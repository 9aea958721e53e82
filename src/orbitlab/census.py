"""Certified census of periodic points and growth-hypothesis checks.

For a 1-D polynomial map (optionally carrying perturbation terms) the census
finds every solution of f^n(x) = x on a certified forward-invariant interval
[-R, R] by certify-or-refine bisection.  Each cell [m - h, m + h] is followed
through n steps of f by an orbit tube: the computed orbit y_k of its
midpoint with a radius r_k that contains the image of the whole cell (the
mean-value theorem with D2 = sup |f''|) and the rounding of y_k itself (a
per-step evaluation slack), which also encloses (f^n)' on the cell.  With
g = f^n - id, a cell is dropped once

    |g(m)| > r_n + h + 8 eps R,

the last term covering the one subtraction in g = y_n - m.  The tube is the
only floating-point error model: every decision reads its own cell's tube,
or at a point a tube of zero width, so no slack grows with the global
Lipschitz bound sup |f'|^n.  A cell on which the enclosure of g' = (f^n)' - 1
excludes 0 has g strictly monotone, and the values of g at its two
endpoints settle it: no solution, or exactly one, which Brent's method
brackets to the requested tolerance.  The roots a round settles are located
together: one Brent per bracket (an in-repo transcription of scipy's
brentq, bit for bit), all advanced in lockstep on one evaluation of g per
step, and their records taken from one orbit pass.  An
endpoint value decides a sign only when it clears its own bound, so a
root on (or within the bound of) a cell end would leave both cells beside
it undecided at every depth; a dyadic root such as the fixed point 1/2 of
0.95 - 1.8x^2 lies on a cell end at every depth.  So monotone cells that
share an end exactly, increase or decrease alike, and meet where g does not
clear the bound join into one run: g is strictly monotone on the union, and
the run's outer ends settle it as a cell's ends do; the value at a joined
end is never read for a sign.
The remaining cells shrink to halfwidth tol and merge into clusters; each
cluster, widened by 2 tol on each side, is settled by the same test, and a
window it leaves open (a tangency, or a root within the bound of a window
end) is reported as uncertified.  So the reported count is exact whenever
the result says so.  The per-step slack and the bounds on f are generous
but not outward-rounded.

The work that does not depend on the period is done once per map and
reused by every later census, cover and ih_check on it: the certified
ranges behind the radius (kept by certified_range_1d, which the
experiment's invariance check shares), the bounds on [-R, R] (sup |f'|,
sup |f''|, the per-step slack), the initial grid of cells (read-only) and
its orbit tube.  The tube at period n is the tube at period n - 1 plus one
step, so a later call extends the deepest tube held for that grid, or
reuses it at the same period; the result is bit for bit the one computed
from scratch.  A reused orbit still counts as evaluations, so budgets and
reported evaluations do not depend on what came before.  The memo
(dynamics._MEMO) is held per map object, weakly (it goes with the map),
and assumes a map is not mutated after it is built, as the 1-D fold
already does.

Orbits of points outside the cell tubes come from _g_ends (g at the ends
settled, with their bounds), _g_many (Brent's steps and the probes of open
windows) and _records_at (the records).  Each iterates up to _SCALAR_POINTS
points one at a time with f.evaluate, cheaper than an array call there, and
more with eval_many; a 1-D map's evaluate and eval_many perform the same
float operations in the same order, so the choice never changes a value.

On top of the census sit:

* gamma_n_of_map: the distance of the worst multiplier to the unit circle
  among all period-n points (+inf when there are none),
* find_almost_periodic: a cover of the points with |f^n(x) - x| <= slack,
* ih_check: certify or refute a stretched-exponential lower bound
  gamma_n >= exp(-C n^(1+delta)) by recursive certify-or-refine boxes,
* prop11_check: the growth constant implied by the census counts, norm
  bounds, and hyperbolicity margins.

Everything degrades honestly: exhausted budgets or tangential candidates are
reported as uncertified regions, never silently dropped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import _memo, as_perturbed, certified_range_1d, invariant_radius, norm_bounds
from .errors import ConfigurationError, InvalidInputError, UncertifiedCensusError

__all__ = [
    "GrowthParams",
    "PeriodicPointRecord",
    "CensusResult",
    "find_periodic",
    "GammaN",
    "gamma_n_of_map",
    "AlmostPeriodicCover",
    "find_almost_periodic",
    "IHRow",
    "IHReport",
    "ih_check",
    "Prop11Row",
    "Prop11Report",
    "prop11_check",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GrowthParams:
    """Parameters of the stretched-exponential profile exp(-C n^(1+delta)).

    rho is the modulus-of-continuity exponent of the perturbation family;
    the estimates only make sense for rho in (0, 1].
    """

    C: float
    delta: float
    rho: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C >= 0):
            raise InvalidInputError("C must be a finite nonnegative real")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise InvalidInputError("delta must be a finite nonnegative real")
        if not 0.0 < self.rho <= 1.0:
            raise InvalidInputError("rho must lie in (0, 1]")

    def gamma_n(self, n: int) -> float:
        """The hyperbolicity threshold exp(-C n^(1+delta)) at period n."""
        if n < 1:
            raise InvalidInputError("period must be >= 1")
        return math.exp(-self.C * float(n) ** (1.0 + self.delta))


@dataclass(frozen=True)
class PeriodicPointRecord:
    """One (near-)solution of f^n(x) = x.

    `kind` is "simple" for a census root: `certified` means the enclosure
    [location - halfwidth, location + halfwidth] provably contains exactly
    one solution.  A "tangential-candidate" (certified=False) marks a census
    window the monotone test could not settle where |f^n - id| is small at
    an end or the midpoint, so that nothing is silently dropped; its
    halfwidth is the window's.  A "witness" is the box at which ih_check
    refutes the hypothesis.  `gap` is the distance of the multiplier
    (f^n)'(x) to the unit circle; `residual` is |f^n(x) - x| at the refined
    point; `least_period` is the smallest divisor d of the period with
    |f^d(x) - x| below a loose metadata threshold (not certified).
    """

    location: float
    halfwidth: float
    period: int
    multiplier: float
    gap: float
    certified: bool
    kind: str = "simple"
    residual: float = 0.0
    least_period: int = 0

    @property
    def is_least_period(self) -> bool:
        return self.least_period == self.period


@dataclass
class CensusResult:
    """Outcome of one period-n census.

    `evaluations` counts n-step orbits of points: the orbit tubes, the
    distinct ends of the intervals settled, Brent's calls, the probes of
    open cluster windows and the orbit that gives each record its
    multiplier, including the initial grid's orbits reused from
    an earlier call on the same map: the count, and so the budget, is the
    same whatever ran before.  That reuse assumes the map is not mutated
    after it is built."""

    period: int
    radius: float
    records: list
    uncertified_regions: list
    certified: bool
    lipschitz: float
    evaluations: int

    @property
    def count(self) -> int:
        """Number of certified periodic points."""
        return sum(1 for r in self.records if r.certified)

    @property
    def gamma_n(self) -> float:
        """Smallest distance of a certified multiplier to the unit circle;
        +inf when the certified census is empty."""
        gaps = [r.gap for r in self.records if r.certified]
        return min(gaps) if gaps else math.inf


# -- shared certified bounds -------------------------------------------------------


# Sets of at most this many points are iterated one point at a time with
# f.evaluate.  On a shared 2-CPU x86 host an eval_many step costs about
# 14 us at any size up to a few dozen points and a scalar step about 0.7 us
# per point (degree 9, with and without a root-product term), so the two
# cross at 20-24 points.  Only _g_many, _g_ends and _records_at read it.
_SCALAR_POINTS = 16


def _g_many(f, xs: list, n: int) -> np.ndarray:
    """g = f^n - id at each float of the list xs, as n steps of eval_many
    minus the start give it bit for bit: a few points take the scalar path,
    f.evaluate per point and step, which performs the same float operations
    (see PerturbedMap)."""
    if len(xs) <= _SCALAR_POINTS:
        out = []
        for x in xs:
            y = x
            for _ in range(n):
                y = f.evaluate(y)
            out.append(y - x)
        return np.array(out, dtype=float)
    x = y = np.array(xs, dtype=float)
    for _ in range(n):
        y = f.eval_many(y)
    return y - x


class _MapBounds(NamedTuple):
    """Certified constants of f on [-R, R] that do not depend on the period."""

    D1: float  # sup |f'|
    D2: float  # sup |f''|
    step: float  # float slack of one evaluation of f


# The census keeps its period-independent work in the map's memo (shared
# with certified_range_1d) under the keys ("bounds", R), ("grid", R, cells)
# and ("tube", R, cells).


def _map_bounds(f, radius: float) -> _MapBounds:
    key = ("bounds", radius)
    memo = _memo(f)
    if key not in memo:
        D2 = f.d2_bound(radius)
        # sup |f'| from a grid, padded by the curvature between grid points
        xs = np.linspace(-radius, radius, 4097)
        h = 2.0 * radius / 4096
        D1 = float(np.abs(f.deriv_many(xs)).max()) + D2 * h / 2.0
        scale = max(radius, f.sup_bound(radius), 1.0)
        memo[key] = _MapBounds(D1=D1, D2=D2, step=64.0 * _EPS * scale)
    return memo[key]


def _resolve_radius(f, radius: Optional[float]) -> float:
    """The given radius, checked for certified forward invariance, or the
    smallest certified invariant radius on the standard ladder.  The ranges
    behind either come from the map's memo."""
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise InvalidInputError("radius must be a positive real")
    if radius is not None:
        lo, hi = certified_range_1d(f, radius)
        if not (lo >= -radius and hi <= radius):
            raise UncertifiedCensusError(
                f"[-R, R] with R = {radius} is not certified forward-invariant "
                f"(certified range [{lo:.6g}, {hi:.6g}])"
            )
        return float(radius)
    found = invariant_radius(f)
    if found is None:
        raise UncertifiedCensusError(
            "no certified forward-invariant radius found on the standard ladder; "
            "pass an explicit radius"
        )
    return float(found)


def _period(n, least: int = 1, name: str = "period") -> int:
    """n as an int, or InvalidInputError unless it is an integer >= least."""
    if not isinstance(n, numbers.Integral) or n < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}")
    return int(n)


# -- orbit tubes and the certify-or-refine driver -----------------------------------


def _tube_many(f, mids: np.ndarray, halves: np.ndarray, n: int, R: float, b: _MapBounds,
               lam=1.0, lam_hi=1.0):
    """Orbit tubes of the cells [m - h, m + h] under n steps of f.

    Returns (y, r, lam, lam_hi): the computed orbit y of each midpoint with a
    radius r such that |f^n(x) - y| <= r for every x in the cell, and the
    product lam of f' along y with lam_hi such that
    |(f^n)'(x) - lam| <= lam_hi - |lam| on the cell, up to the rounding of
    the two products, which _cells pads.

    Each step is the mean-value theorem: while |x_k - y_k| <= r_k,
    |f'(x_k)| <= s_k = |f'(y_k)| + D2 r_k (D2 = sup |f''| on [-R, R]) plus a
    float slack, so |x_{k+1} - y_{k+1}| <= min(s_k, D1) r_k + step, where D1
    = sup |f'| on [-R, R] and step, the per-step evaluation slack, covers
    the rounding of the computed y_{k+1}.  So r carries the cell's own float
    error, and a cell of zero width bounds the error of one computed orbit
    (_g_ends).  The true orbit stays in [-R, R] (forward invariance), so
    clamping y_k to [-R, R] cannot move it away from any true orbit and
    keeps D1 and D2 valid, and r_k never needs to exceed 2R, a cap that also
    keeps s_k bounded.  lam_hi keeps the uncapped s_k: its product bound
    needs |f'(x_k) - f'(y_k)| <= s_k - |f'(y_k)|, which the cap would break.

    Given the (mids, halves) as the tube (y, r) at some step k and the
    (lam, lam_hi) there, it continues that tube to step k + n.  Every
    update is out of place, so the arrays passed in are never changed.
    """
    y = np.asarray(mids, dtype=float)
    r = np.asarray(halves, dtype=float)
    d_slack = 64.0 * _EPS * b.D1
    for _ in range(n):
        d = f.deriv_many(y)
        # np.clip's floats (NaN and -0.0 included), without its wrapper
        y = np.minimum(np.maximum(f.eval_many(y), -R), R)
        s = np.abs(d) + b.D2 * r + d_slack
        lam = lam * d
        lam_hi = lam_hi * s
        r = np.minimum(np.minimum(s, b.D1) * r + b.step, 2.0 * R)
    return y, r, lam, lam_hi


def _g_ends(f, xs: list, n: int, R: float, b: _MapBounds):
    """(g, bound) at each float x of the list xs: g = y - x from the
    zero-width orbit tube (y, r) of x, and bound = r + 8 eps R (8 eps R for
    the subtraction) >= |g(x) - g|.  Up to _SCALAR_POINTS points take a
    scalar loop of the tube's float operations, without the multiplier, and
    more take _tube_many; the two agree bit for bit."""
    pad = 8.0 * _EPS * R
    if len(xs) > _SCALAR_POINTS:
        x = np.array(xs, dtype=float)
        y, r, _, _ = _tube_many(f, x, np.zeros(x.size), n, R, b)
        return y - x, r + pad
    D1, D2, step = b
    evaluate, derivative, d_slack, cap = f.evaluate, f.derivative, 64.0 * _EPS * D1, 2.0 * R
    g, bound = np.empty(len(xs)), np.empty(len(xs))
    for i, x in enumerate(xs):
        y, r = x, 0.0
        for _ in range(n):
            s = abs(derivative(y)) + D2 * r + d_slack
            y = evaluate(y)
            y = R if y > R else -R if y < -R else y  # _tube_many's clamp, NaN and -0.0 too
            r = (D1 if s > D1 else s) * r + step
            r = cap if r > cap else r
        g[i], bound[i] = y - x, r + pad
    return g, bound


def _grid(f, R: float, k0: int):
    """The initial grid (mids, halves) of [-R, R] split into k0 equal
    cells, built once per map and kept read-only in its memo."""
    key = ("grid", R, k0)
    memo = _memo(f)
    if key not in memo:
        edges = np.linspace(-R, R, k0 + 1)
        grid = (0.5 * (edges[:-1] + edges[1:]), np.full(k0, R / k0))
        for a in grid:
            a.flags.writeable = False  # shared with later calls
        memo[key] = grid
    return memo[key]


def _grid_tube(f, mids: np.ndarray, halves: np.ndarray, n: int, R: float, b: _MapBounds):
    """_tube_many over the initial grid (mids, halves) at period n >= 1,
    continued from the deepest tube of that grid in the map's memo, at
    period k: n - k more steps when k < n, none when k = n, and all n from
    the grid when k > n (the memo keeps k).  A step reads only D1, D2 and
    step, none of which depends on the period, so the result is bit for
    bit the tube computed from scratch."""
    key = ("tube", R, mids.size)
    memo = _memo(f)
    k, y, r, lam, lam_hi = memo.get(key, (0, mids, halves, 1.0, 1.0))
    if k == n:
        return y, r, lam, lam_hi
    if k > n:
        k, y, r, lam, lam_hi = 0, mids, halves, 1.0, 1.0
    tube = _tube_many(f, y, r, n - k, R, b, lam, lam_hi)
    if key not in memo or memo[key][0] < n:
        for a in tube:
            a.flags.writeable = False  # shared with later calls
        memo[key] = (n, *tube)
    return tube


class _Cells(NamedTuple):
    """One round of live cells and what their orbit tubes prove, float
    error included: for every x in [mid - half, mid + half],
    g(x) = f^n(x) - x satisfies |g(x) - g| <= spread, and
    |(f^n)'(x) - lam| <= dev."""

    mids: np.ndarray
    halves: np.ndarray
    g: np.ndarray
    spread: np.ndarray
    lam: np.ndarray
    dev: np.ndarray


def _cells(mids: np.ndarray, halves: np.ndarray, n: int, R: float, tube) -> _Cells:
    """The _Cells of (mids, halves) from their tube (y, r, lam, lam_hi) at
    period n: spread = r + half + 8 eps R, r holding the orbit's rounding and
    8 eps R the subtraction g = y - m; dev = lam_hi (1 + (8n + 4) eps) - |lam|,
    as lam and lam_hi (n rounded factors each, |lam| <= lam_hi) are within a
    relative 2n eps of exact, and the subtractions that read dev round too."""
    y, r, lam, lam_hi = tube
    return _Cells(mids=mids, halves=halves, g=y - mids, spread=r + halves + 8.0 * _EPS * R,
                  lam=lam, dev=lam_hi * (1.0 + (8 * n + 4) * _EPS) - np.abs(lam))


def _refine(f, n: int, R: float, b: _MapBounds, k0: int, max_evaluations: int, classify):
    """Certify-or-refine [-R, R], split into k0 equal cells, in vectorised
    rounds.

    Each round runs the orbit tube over the live cells (the first round
    takes the initial grid's tube from the map's memo) and calls
    `classify(cells, budget)`, which records whatever it decides and returns
    the mask of the cells still undecided plus the evaluations it spent
    itself, at most `budget`; the undecided cells are bisected.  An
    evaluation is one n-step orbit of one point.  Returns the evaluations
    spent and the frontier (mids, halves) left when the next round would
    exceed `max_evaluations` (empty when the frontier ran out first).  A
    period at which sup |f'|^n overflows raises ConfigurationError.
    """
    if b.D1 > 1.0 and n * math.log(b.D1) > 600.0:
        raise ConfigurationError(f"period {n} overflows the Lipschitz bound (sup |f'| = {b.D1:.3g})")
    mids, halves = _grid(f, R, k0)
    evaluations = 0
    while evaluations + mids.size <= max_evaluations:
        tube = _grid_tube if evaluations == 0 else _tube_many  # round 1: the grid
        cells = _cells(mids, halves, n, R, tube(f, mids, halves, n, R, b))
        evaluations += mids.size
        live, spent = classify(cells, max_evaluations - evaluations)
        evaluations += spent
        if not live.any():
            return evaluations, np.empty(0), np.empty(0)
        q = halves[live] / 2.0
        mids = np.concatenate([mids[live] - q, mids[live] + q])
        halves = np.concatenate([q, q])
    return evaluations, mids, halves


def _merged(parts, gap: float = 0.0) -> list:
    """Merged union (within `gap`) of the cells in a list of (mids, halves)
    arrays."""
    if not any(m.size for m, _ in parts):
        return []
    mids = np.concatenate([m for m, _ in parts])
    halves = np.concatenate([h for _, h in parts])
    order = np.argsort(mids)
    return _merge_intervals(mids[order] - halves[order], mids[order] + halves[order], gap)


# -- the 1-D certified census ------------------------------------------------------


def find_periodic(
    f,
    n: int,
    radius: Optional[float] = None,
    tol: float = 1e-12,
    max_evaluations: int = 3_000_000,
) -> CensusResult:
    """Certified census of the solutions of f^n(x) = x on [-R, R] for a 1-D
    map.

    R is either the given radius (checked for certified forward invariance)
    or the smallest certified invariant radius on the standard ladder.
    Cells are bisected in rounds: a cell is dropped when its orbit tube
    proves g = f^n - id has no zero on it, and settled when the tube proves
    g monotone and its endpoint values decide the cell (no root, or exactly
    one, which Brent's method brackets; a round's roots are located
    together, see _settle).  Every test reads the cell's own tube (_cells),
    and an endpoint value decides only when |g| there clears its own
    orbit's error bound (_g_ends); adjacent monotone cells of the same
    direction whose shared end does not clear it are settled together,
    from the outer ends of their union, on which g is strictly monotone
    too.  So a root on a cell end (0 for x^2 - 1, 1/2 for 0.95 - 1.8x^2)
    is located in the round that reaches it.  The rest shrink to halfwidth
    <= tol and merge into clusters; each cluster, widened by 2 tol on each
    side, is settled by the same test.  A window the test leaves open is
    reported in `uncertified_regions`, with a "tangential-candidate" record
    when |g| at its ends or midpoint is within the window tube's spread.
    Certified enclosures have halfwidth tol, or tol / 4 + 4 eps |x| when
    that is larger.  The uniform Lipschitz bound L_n = sup |f'|^n + 1
    decides no cell: it is reported as `lipschitz`, and a period at which
    it overflows raises ConfigurationError (_refine).  Every evaluation counts against
    `max_evaluations`.  An exhausted budget leaves the unresolved frontier
    in `uncertified_regions`, and the cluster windows too when it cannot
    pay for their pass, and the result uncertified.  Maps of dimension
    >= 2, and periods that are not integers >= 1, raise InvalidInputError.

    The certified radius, the bounds, the initial grid and its orbit tube
    are kept per map and reused by later calls on it (the tube extended
    from a lower period), with results identical to a fresh map's;
    `evaluations` counts the reused orbits too.  The map must not be
    mutated after it is built.
    """
    f = as_perturbed(f)
    n = _period(n)
    if not (0 < tol < 1):
        raise InvalidInputError("tol must lie in (0, 1)")
    if f.dim != 1:
        raise InvalidInputError("find_periodic needs a 1-D map")

    R = _resolve_radius(f, radius)
    b = _map_bounds(f, R)

    records: list = []
    root_cells: list = [(np.empty(0), np.empty(0))]  # (los, his) of cells with one root
    finished: list = []  # (mids, halves) of cells refined down to tol

    def classify(c: _Cells, budget: int):
        keep = np.abs(c.g) <= c.spread
        idx = np.flatnonzero(keep & (np.abs(c.lam - 1.0) > c.dev))
        settled, spent = _settle(f, n, R, b, c.mids[idx] - c.halves[idx],
                                 c.mids[idx] + c.halves[idx], c.lam[idx] > 1.0, tol, budget,
                                 records, root_cells)
        keep[idx[settled]] = False
        done = keep & (c.halves <= tol)
        finished.append((c.mids[done], c.halves[done]))
        return keep & ~done, spent

    evaluations, left_mids, left_halves = _refine(f, n, R, b, 1024, max_evaluations, classify)
    uncertified: list = _merged([(left_mids, left_halves)])

    clusters = _merged(finished, gap=tol / 2)
    if clusters:
        los, his = np.array(clusters).T
        # a window stops halfway to the next cluster and at the cells of
        # settled roots, so no root is counted twice
        between = 0.5 * (his[:-1] + los[1:])
        root_los = np.sort(np.concatenate([lo for lo, _ in root_cells]))
        root_his = np.sort(np.concatenate([hi for _, hi in root_cells]))
        left = np.maximum(
            np.concatenate([[-R], between]),
            np.concatenate([[-np.inf], root_his])[np.searchsorted(root_his, los, side="right")],
        )
        right = np.minimum(
            np.concatenate([between, [R]]),
            np.concatenate([root_los, [np.inf]])[np.searchsorted(root_los, his, side="left")],
        )
        a = np.maximum(los - 2.0 * tol, left)
        c = np.minimum(his + 2.0 * tol, right)
        # the window pass takes a tube, up to three probes and a candidate's
        # record per window; _settle pays for the ends and Brent's method
        # from what is left
        budget = max_evaluations - evaluations - 5 * a.size
        if budget < 0:
            uncertified.extend(zip(a.tolist(), c.tolist()))
        else:
            mid = 0.5 * (a + c)
            half = (c - a) / 2.0
            w = _cells(mid, half, n, R, _tube_many(f, mid, half, n, R, b))
            idx = np.flatnonzero(np.abs(w.lam - 1.0) > w.dev)
            settled, spent = _settle(f, n, R, b, a[idx], c[idx], w.lam[idx] > 1.0, tol, budget,
                                     records, root_cells)
            evaluations += a.size + spent
            open_ = np.ones(a.size, dtype=bool)
            open_[idx[settled]] = False
            u = np.flatnonzero(open_)
            if u.size:
                # a tangency (or a root at the noise floor) leaves the window open
                pts = np.concatenate([a[u], mid[u], c[u]])
                gabs = np.abs(_g_many(f, pts.tolist(), n)).reshape(3, u.size)
                evaluations += pts.size
                # each window's probe nearest a root; ties go to the leftmost
                best = pts.reshape(3, u.size)[np.argmin(gabs, axis=0), np.arange(u.size)]
                near = gabs.min(axis=0) <= w.spread[u]
                xs = best[near].tolist()
                records.extend(_records_at(f, n, xs, half[u[near]].tolist(), False,
                                           "tangential-candidate"))
                evaluations += len(xs)
                uncertified.extend(zip(a[u].tolist(), c[u].tolist()))

    records.sort(key=lambda r: r.location)
    return CensusResult(
        period=n,
        radius=R,
        records=records,
        uncertified_regions=uncertified,
        certified=not uncertified,
        lipschitz=max(1.0, b.D1) ** n + 1.0,
        evaluations=evaluations,
    )


def _settle(f, n: int, R: float, b: _MapBounds, lo: np.ndarray, hi: np.ndarray, up: np.ndarray,
            tol: float, budget: int, records: list, root_cells: list):
    """Settle the intervals [lo, hi] of [-R, R] on which g = f^n - id is
    proved strictly monotone, increasing where `up` holds and decreasing
    elsewhere, from g at the ends, where |g| clears (exceeds) its own
    orbit's error bound (_g_ends) or does not.

    The intervals join into runs: two join when they share an end exactly,
    are monotone in the same direction, and g at the shared end does not
    clear (a root on or near that end).  g is strictly monotone on the
    union, so a run is decided by its two outer ends as an interval is:
    when both clear, opposite signs mean exactly one root, which Brent's
    method locates (its record goes to `records`, the run's (lo, hi) to
    `root_cells`), and one sign means none.  The value at a joined end is
    never used for a sign.  Where nothing joins, the runs are the intervals
    themselves, and the sort that finds the joins runs only when some
    interval has an end that did not clear.

    An end shared by two intervals is evaluated once, all ends in one
    _g_ends call, whose values Brent's method reuses.  Nothing is settled
    when `budget` cannot pay for the ends.  The roots are located in waves
    (_locate): a wave is the longest prefix of the roots still to locate
    that what is left pays for at Brent's worst and the record's orbit
    (_BRENT_CALLS evaluations each), and its actual calls are charged
    before the next wave, so a root is located exactly when taking the
    roots one at a time under that rule would locate it; its run stays
    unsettled otherwise, as it does when Brent's method runs out of
    iterations.  A wave's records come from one orbit pass (_records_at).
    Returns the mask of the settled intervals and the evaluations spent,
    at most `budget`."""
    index: dict = {}  # distinct end -> its place in `ends`
    at = [index.setdefault(x, len(index)) for x in lo.tolist() + hi.tolist()]
    if not 0 < len(index) <= budget:
        return np.zeros(lo.size, dtype=bool), 0
    g, bound = (v[at] for v in _g_ends(f, list(index), n, R, b))
    spent = len(index)
    glo, ghi = g[: lo.size], g[lo.size :]
    clear_lo, clear_hi = np.split(np.abs(g) > bound, [lo.size])
    run = None  # each interval's run, once some intervals join
    if not (clear_lo & clear_hi).all():
        order = np.argsort(lo, kind="stable")
        a, c = order[:-1], order[1:]
        join = (hi[a] == lo[c]) & (up[a] == up[c]) & ~clear_hi[a]
        if join.any():
            starts = np.concatenate([[True], ~join])
            run = np.empty(lo.size, dtype=np.intp)
            run[order] = np.cumsum(starts) - 1
            # from here on the arrays describe the runs' outer ends
            first, last = order[starts], order[np.concatenate([~join, [True]])]
            lo, glo, clear_lo = lo[first], glo[first], clear_lo[first]
            hi, ghi, clear_hi = hi[last], ghi[last], clear_hi[last]
    settled = clear_lo & clear_hi
    pending = np.flatnonzero(settled & ((glo > 0) != (ghi > 0)))
    brackets = list(zip(lo[pending].tolist(), hi[pending].tolist(), glo[pending].tolist(),
                        ghi[pending].tolist()))
    xtol, rtol = tol / 4, 4 * _EPS
    roots: list = []
    while len(roots) < len(brackets):
        # a wave: as many roots as what is left pays for at Brent's worst
        k = (budget - spent) // _BRENT_CALLS
        if not k:
            break
        wave, calls = _locate(f, n, brackets[len(roots) : len(roots) + k], xtol, rtol)
        found = [x for x in wave if x is not None]
        # a computed sign change of g lies within xtol + rtol |x| of the root
        records.extend(_records_at(f, n, found, [max(tol, xtol + rtol * abs(x)) for x in found],
                                   True, "simple"))
        spent += calls + len(found)
        roots += wave
    located = np.zeros(pending.size, dtype=bool)
    located[: len(roots)] = [x is not None for x in roots]
    settled[pending] = located
    root_cells.append((lo[pending[located]], hi[pending[located]]))
    return (settled if run is None else settled[run]), spent


def _merge_intervals(los: np.ndarray, his: np.ndarray, gap: float = 0.0) -> list:
    """Merge sorted intervals that touch or overlap (within `gap`) into a
    list of (lo, hi) pairs of floats."""
    out: list = []
    for lo, hi in zip(los.tolist(), his.tolist()):
        if out and lo <= out[-1][1] + gap:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


_LEAST_PERIOD_TOL = 1e-8


def _records_at(f, n: int, xs: list, halfwidths: list, certified: bool, kind: str) -> list:
    """The records of the floats xs with their halfwidths, from one orbit
    pass each: the multiplier (f^n)'(x), the residual |f^n(x) - x| and the
    least period, the first divisor d < n of n with |f^d(x) - x| <=
    _LEAST_PERIOD_TOL max(1, |x|) (n when there is none).  Up to
    _SCALAR_POINTS points are iterated one at a time, more on the array
    path, which performs the same float operations (evaluate and eval_many,
    derivative and deriv_many agree bit for bit), so the records do not
    depend on the path.  Every field is a plain Python float, int, bool or
    str."""
    if len(xs) <= _SCALAR_POINTS:
        orbits = []
        for x in xs:
            near = _LEAST_PERIOD_TOL * max(1.0, abs(x))
            y, lam, least = x, 1.0, n
            for d in range(1, n + 1):
                lam *= f.derivative(y)
                y = f.evaluate(y)
                if least == n and d < n and n % d == 0 and abs(y - x) <= near:
                    least = d
            orbits.append((lam, abs(y - x), least))
    else:
        x = np.array(xs, dtype=float)
        near = _LEAST_PERIOD_TOL * np.maximum(1.0, np.abs(x))
        y, lam, least = x, 1.0, np.full(x.size, n)
        for d in range(1, n + 1):
            lam = lam * f.deriv_many(y)
            y = f.eval_many(y)
            if d < n and n % d == 0:
                least[(least == n) & (np.abs(y - x) <= near)] = d
        orbits = zip(lam.tolist(), np.abs(y - x).tolist(), least.tolist())
    return [
        PeriodicPointRecord(location=loc, halfwidth=h, period=n, multiplier=m,
                            gap=abs(abs(m) - 1.0), certified=certified, kind=kind, residual=res,
                            least_period=d)
        for loc, h, (m, res, d) in zip(xs, halfwidths, orbits)
    ]


# Brent's method evaluates g once per iteration and, in _settle, not at the
# bracket ends, whose values _settle has computed; the root's record takes
# one more orbit
_BRENT_MAXITER = 100
_BRENT_CALLS = _BRENT_MAXITER + 1


def _brent(a: float, b: float, fa: float, fb: float, xtol: float, rtol: float):
    """Brent's method on the bracket between a and b, where g(a) = fa and
    g(b) = fb have opposite signs, as a generator: it yields each point at
    which it needs g and is sent g there, and returns the root, or None
    when _BRENT_MAXITER iterations leave it unlocated.  g is not asked for at a or
    b (nor where a step lands on one of them exactly): fa and fb are used.

    A transcription of scipy's brentq.c (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4), float operation for float operation,
    so that the points, and the root, are brentq's bit for bit.  The root is
    a point x with a computed sign change of g to a point within
    xtol + rtol |x| of it, or a computed zero of g."""
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        if xcur == a:
            fcur = fa
        elif xcur == b:
            fcur = fb
        else:
            fcur = yield xcur
    return None


def _locate(f, n: int, brackets: list, xtol: float, rtol: float):
    """The roots of g = f^n - id in the sign-change brackets (a, c, g(a),
    g(c)) (None where Brent's method runs out of iterations) and the
    evaluations of g they took.  One Brent runs per bracket, all advanced
    in lockstep: each step sends every Brent still running its last value
    of g and takes the points they ask for next in one _g_many call.  A
    Brent's points, root and calls depend on its bracket alone, so they do
    not depend on the other brackets, nor on the path _g_many takes."""
    brents = [_brent(*bracket, xtol, rtol) for bracket in brackets]
    roots: list = [None] * len(brents)
    live, gs = list(range(len(brents))), [None] * len(brents)
    calls = 0
    while live:
        still, xs = [], []
        for i, g in zip(live, gs):
            try:
                xs.append(brents[i].send(g))
            except StopIteration as done:
                roots[i] = done.value
            else:
                still.append(i)
        live = still
        gs = _g_many(f, xs, n).tolist()
        calls += len(xs)
    return roots, calls


# -- gamma_n -----------------------------------------------------------------------


class GammaN(NamedTuple):
    value: float
    census: CensusResult


def gamma_n_of_map(f, n: int, radius: Optional[float] = None, tol: float = 1e-12) -> GammaN:
    """min over solutions of f^n(x) = x of || multiplier | - 1|, from a
    certified census; +inf when there are no period-n points.  Raises
    UncertifiedCensusError (carrying the partial result) if the census
    could not be certified."""
    census = find_periodic(f, n, radius=radius, tol=tol)
    if not census.certified:
        raise UncertifiedCensusError(
            f"period-{n} census is not certified "
            f"({len(census.uncertified_regions)} unresolved region(s))",
            result=census,
        )
    return GammaN(value=census.gamma_n, census=census)


# -- almost-periodic covers ---------------------------------------------------------


@dataclass(frozen=True)
class AlmostPeriodicCover:
    """A finite union of intervals guaranteed to contain every x with
    |f^n(x) - x| <= slack on [-R, R]."""

    period: int
    slack: float
    radius: float
    intervals: tuple
    fully_refined: bool

    @property
    def total_length(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


def find_almost_periodic(
    f,
    n: int,
    slack: float,
    radius: Optional[float] = None,
    resolution: Optional[float] = None,
    max_evaluations: int = 2_000_000,
) -> AlmostPeriodicCover:
    """Cover of the slack-level set of the displacement x -> f^n(x) - x.

    Cells are dropped only when their orbit tube proves |f^n - id| > slack
    on them, so the union of the returned intervals is a true cover
    regardless of budget; the budget only limits how tightly it hugs the
    level set (an exhausted budget keeps the whole unresolved frontier).
    A kept cell stops refining once its tube spread of f^n - id is at most
    slack / 4 (halving it would trim little) or its halfwidth reaches
    `resolution` (default 1e-13 R).
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("find_almost_periodic needs a 1-D map")
    n = _period(n)
    if not (math.isfinite(slack) and slack >= 0):
        raise InvalidInputError("slack must be a finite nonnegative real")
    R = _resolve_radius(f, radius)
    b = _map_bounds(f, R)
    if resolution is None:
        resolution = 1e-13 * R

    kept: list = []

    def classify(c: _Cells, _budget: int):
        keep = np.abs(c.g) <= c.spread + slack
        done = keep & ((c.spread <= slack / 4.0) | (c.halves <= resolution))
        kept.append((c.mids[done], c.halves[done]))
        return keep & ~done, 0

    _, left_mids, left_halves = _refine(f, n, R, b, 1024, max_evaluations, classify)
    kept.append((left_mids, left_halves))
    return AlmostPeriodicCover(
        period=n,
        slack=float(slack),
        radius=R,
        intervals=tuple(_merged(kept)),
        fully_refined=left_mids.size == 0,
    )


# -- stretched-exponential hypothesis check -----------------------------------------


@dataclass(frozen=True)
class IHRow:
    period: int
    threshold: float
    slack: float
    status: str  # "holds" | "fails" | "indeterminate"
    witness: Optional[PeriodicPointRecord]
    unresolved: tuple


@dataclass(frozen=True)
class IHReport:
    params: GrowthParams
    radius: float
    rows: tuple

    @property
    def status(self) -> str:
        statuses = {row.status for row in self.rows}
        if "fails" in statuses:
            return "fails"
        if "indeterminate" in statuses:
            return "indeterminate"
        return "holds"

    @property
    def witness(self) -> Optional[PeriodicPointRecord]:
        for row in self.rows:
            if row.status == "fails":
                return row.witness
        return None


def ih_check(
    f,
    params: GrowthParams,
    n_max: int,
    radius: Optional[float] = None,
    max_evaluations_per_period: int = 400_000,
) -> IHReport:
    """Check the stage-wise hyperbolicity hypothesis for periods 1..n_max.

    At stage k the hypothesis asks that every point x with
    |f^k(x) - x| <= gamma_k^(1/rho) (an almost-periodic point at the stage
    slack) has multiplier gap at least gamma_k = exp(-C k^(1+delta)).  Each
    stage is verified by subdividing the invariant interval: a box passes if
    it certifiably contains no almost-periodic point, or if every point of
    the box has gap above the threshold.  Both tests read only the box's
    orbit tube, which bounds f^k - id and the multiplier (f^k)' over the
    whole box, float error included, and no bound grows with sup |f'|^k.
    The stage fails with a witness box when the zero-width tube of its
    midpoint proves the midpoint almost periodic (|g| plus its bound at most
    the slack) with gap below the threshold (gap plus its bound).  Boxes
    that reach the width floor 1e-9 R or exhaust the budget are reported as
    unresolved and make the stage (and the report) indeterminate rather
    than wrong.  A threshold that rounds to 0.0 is below the smallest
    positive float, so there a box passes as hyperbolic only when its gap
    is provably positive, and no witness is possible: a point of gap 0
    leaves the stage indeterminate.  A stage computes at most
    `max_evaluations_per_period` k-step orbits: its tube rounds, the
    zero-width tubes of midpoints whose |g| and gap pass unpadded, and the
    witness record's orbit.  n_max = 0 holds vacuously.
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("ih_check needs a 1-D map")
    n_max = _period(n_max, 0, "n_max")
    R = _resolve_radius(f, radius)

    b = _map_bounds(f, R)
    rows = []
    for k in range(1, n_max + 1):
        thr = params.gamma_n(k)
        slack = thr ** (1.0 / params.rho)
        row = _ih_one_period(f, k, thr, slack, R, b, max_evaluations_per_period)
        rows.append(row)
        if row.status == "fails":
            break
    return IHReport(params=params, radius=R, rows=tuple(rows))


def _ih_one_period(f, k, thr, slack, R, b: _MapBounds, max_evals) -> IHRow:
    gap_floor = max(thr, math.ulp(0.0))  # a threshold of 0.0 (see ih_check)
    witness = None
    unresolved: list = []

    def classify(c: _Cells, budget: int):
        nonlocal witness
        gabs = np.abs(c.g)
        gaps = np.abs(np.abs(c.lam) - 1.0)
        # a witness midpoint is read from its zero-width cell (y, lam: the box's)
        idx = np.flatnonzero((gabs <= slack) & (gaps < thr))
        spent = idx.size if idx.size <= budget else 0
        if spent:
            m, zero = c.mids[idx], np.zeros(spent)
            p = _cells(m, zero, k, R, _tube_many(f, m, zero, k, R, b))
            failing = (np.abs(p.g) + p.spread <= slack) & (np.abs(np.abs(p.lam) - 1.0) + p.dev < thr)
            if failing.any():
                j = idx[failing][np.argmin(m[failing])]
                witness = _records_at(f, k, [c.mids[j].item()], [c.halves[j].item()], True,
                                      "witness")[0]
                return np.zeros(c.mids.size, dtype=bool), spent
        excluded = gabs > c.spread + slack
        hyperbolic = gaps - c.dev >= gap_floor
        live = ~(excluded | hyperbolic)
        floored = live & (2.0 * c.halves <= 1e-9 * R)
        unresolved.append((c.mids[floored], c.halves[floored]))
        return live & ~floored, spent

    # the rounds leave one orbit of the budget for the witness's record
    _, left_mids, left_halves = _refine(f, k, R, b, 256, max_evals - 1, classify)
    unresolved.append((left_mids, left_halves))
    merged = tuple(_merged(unresolved))

    if witness is not None:
        status = "fails"
    elif merged:
        status = "indeterminate"
    else:
        status = "holds"
    return IHRow(period=k, threshold=thr, slack=slack, status=status,
                 witness=witness, unresolved=merged)


# -- implied growth constant ---------------------------------------------------------


@dataclass(frozen=True)
class Prop11Row:
    period: int
    count: Optional[int]
    gamma_n: Optional[float]
    c_impl: Optional[float]
    applicable: bool
    certified: bool


@dataclass(frozen=True)
class Prop11Report:
    rho: float
    m_value: float
    inverse_unbounded: bool
    rows: tuple

    @property
    def c_impl_max(self) -> float:
        vals = [r.c_impl for r in self.rows if r.certified and r.applicable and r.c_impl is not None]
        return max(vals) if vals else 0.0

    @property
    def all_certified(self) -> bool:
        return all(r.certified for r in self.rows)


# a gamma_n at or below this is taken for a nonhyperbolic periodic point
_GAP_TOL = 1e-9


def prop11_check(
    f,
    n_max: int,
    brick=None,
    rho: float = 1.0,
    radius: Optional[float] = None,
    tol: float = 1e-12,
) -> Prop11Report:
    """Growth constant implied by the census: for each n, the smallest C with
    P_n <= C M^(n N (1+rho)/rho) gamma_n^(-N/rho), i.e.

        C_impl(n) = P_n M^(-n N (1+rho)/rho) gamma_n^(N/rho).

    M is the norm bound m_{1+rho}; when the map has no bounded inverse the
    forward-only bound is substituted and flagged.  Periods whose census
    fails to certify are reported but excluded from the running maximum; a
    gamma_n at or below _GAP_TOL signals a nonhyperbolic periodic point, for
    which the multiplicative bound is vacuous, so the row is flagged as
    inapplicable.
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("prop11_check needs a 1-D map")
    n_max = _period(n_max, 1, "n_max")
    nb = norm_bounds(f, brick=brick, rho=rho)
    rho = nb.rho
    inverse_unbounded = not math.isfinite(nb.m1rho)
    if inverse_unbounded:
        M = max(1.0, nb.forward_c1, 2.0 ** (1.0 / rho), nb.forward_c1rho)
    else:
        M = nb.m1rho

    N = f.dim
    rows = []
    for n in range(1, n_max + 1):
        try:
            value, census = gamma_n_of_map(f, n, radius=radius, tol=tol)
        except UncertifiedCensusError:
            rows.append(
                Prop11Row(period=n, count=None, gamma_n=None, c_impl=None, applicable=False, certified=False)
            )
            continue
        count = census.count
        if count == 0:
            rows.append(
                Prop11Row(period=n, count=0, gamma_n=math.inf, c_impl=0.0, applicable=True, certified=True)
            )
            continue
        if value <= _GAP_TOL:
            rows.append(
                Prop11Row(period=n, count=count, gamma_n=float(value), c_impl=None, applicable=False, certified=True)
            )
            continue
        c_impl = count * M ** (-n * N * (1.0 + rho) / rho) * value ** (N / rho)
        rows.append(
            Prop11Row(period=n, count=count, gamma_n=value, c_impl=float(c_impl), applicable=True, certified=True)
        )
    return Prop11Report(rho=rho, m_value=float(M), inverse_unbounded=inverse_unbounded, rows=tuple(rows))
