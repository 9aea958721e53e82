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
endpoints settle it: no solution, or exactly one, and then the cell
leaves the rounds as a bracket.  After the rounds one pass of the interval
Newton operator N(X) = m - G(m) / D(X) (Moore, Kearfott and Cloud,
Introduction to Interval Analysis, 2009, ch. 8) encloses the roots of all
brackets, as far as the budget left pays: G(m) is g at the midpoint m of X
with its zero-width tube's bound, D(X) the enclosure of g' from the box
tube of X, and X shrinks to its intersection with N(X), which keeps the
root.  The first step is N at the bracket's ends, from the values that
settled it; each later step is one orbit, the last one gives the record,
whose halfwidth is tol, or what the contraction proves where the float
noise floor stops it above tol.  An endpoint value decides a sign only
when it clears its own bound, so a root on (or within the bound of) a cell
end would leave both cells beside it undecided at every depth; a dyadic
root such as the fixed point 1/2 of 0.95 - 1.8x^2 lies on a cell end at
every depth.  So monotone cells that
share an end exactly, increase or decrease alike, and meet where g does not
clear the bound join into one run: g is strictly monotone on the union, and
the run's outer ends settle it as a cell's ends do; the value at a joined
end is never read for a sign.
The remaining cells shrink to halfwidth tol and merge into clusters, where
a tangency or a root at the float noise floor stops every test; they are
reported as uncertified, not settled.  So every decision is made in the
refinement rounds, and the reported count is exact whenever the result
says so; a bracket the budget cannot pay for is reported uncertified.
The per-step slack and the bounds on f are generous but not outward-rounded.

A point of period d is a root of g at every multiple n of d, so a census
at n first reads the certified enclosures of the censuses at its proper
divisors, with the same tol and budget, running those censuses (each on
its own budget) where the map's memo does not hold them yet.  Before any end value is read, the kept
monotone cells of a round join into runs: cells that share an end exactly
and rise or fall alike, on whose union g is strictly monotone.  A run
whose interior holds one of those enclosures has that root and no other,
so it leaves the rounds at once, with no end value and no Newton step; its
record keeps the enclosure and takes its period-n multiplier from one
orbit.  The other cells are settled as above, unchanged: a cell of the
same direction beside them would have joined their run.  A root read
from them keeps its least period; one located afresh has n when its
enclosure meets none of their enclosures and regions, else 0: not proved.

The work that does not depend on the period is done once per map and
reused by every later census, cover and ih_check on it: the certified
ranges behind the radius and the map's bound triple at each (kept by
certified_range_1d, which the experiment's invariance check shares) and,
per radius, one _Domain: R, the bounds on [-R, R] (sup |f'|, sup |f''|,
the per-step slack) and their pads, the initial grid of cells
(read-only) that all three start from, and its orbit tube at every
period asked for.  The tube at period n is the tube at period n - 1 plus
one step, so a later call reads its own period's tube or extends the one
held at the highest period below; the result is bit for bit the one
computed from scratch.  A reused orbit still counts as evaluations, so
budgets and reported evaluations do not depend on what came before.  The
domain also keeps each census's certified enclosures, with their least
periods, and uncertified regions per (tol, budget, period); a census
reads its divisors' from there, or runs them, so its result does not
depend on what came before either.  The memo (dynamics._MEMO) is keyed
on the map object the caller passed, a bare PolynomialMap or a
PerturbedMap, weakly and with no reference back to the map, so an entry
goes as soon as its map does; it assumes a map is not mutated after it
is built, as the 1-D fold already does.  A PerturbedMap's bounds read
its base's triple from the base's own entry, so a base that many maps
share is bounded once per radius.

Orbits of points outside the cell tubes use the cells' two kernels:
_tubes_at, one point at a time with f.evaluate, for the ends _settle reads
and _newton's steps up to _SCALAR_POINTS points and for every record's
orbit; _tube_many, with eval_many, for more ends or steps and for
ih_check's witnesses.  A 1-D map's evaluate and eval_many perform the same
float operations in the same order, so the choice never changes a value.
The held-run test follows the same size rule, with the same results.

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
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import _bounds, _check_map, _memo, certified_range_1d, invariant_radius, norm_bounds
from .errors import UncertifiedCensusError, _period, _real

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
        _real(self.C, "C", ge=0)
        _real(self.delta, "delta", ge=0)
        _real(self.rho, "rho", gt=0, le=1)

    def gamma_n(self, n: int) -> float:
        """The hyperbolicity threshold exp(-C n^(1+delta)) at period n."""
        n = _period(n)
        return math.exp(-self.C * float(n) ** (1.0 + self.delta))


@dataclass(frozen=True)
class PeriodicPointRecord:
    """One (near-)solution of f^n(x) = x.

    `kind` is "simple" for a census root: `certified` means the enclosure
    [location - halfwidth, location + halfwidth] provably contains exactly
    one solution.  A "tangential-candidate" (certified=False) marks the
    midpoint of a census cluster, cells refined to tol that no round could
    decide (a tangency, or a root at the float noise floor); its halfwidth
    is half the cluster's width.  A cluster whose midpoint orbit bounds
    nothing (its bound reaches the cap 2R, or its multiplier bound is not
    finite) gets no candidate, and every cluster stays in
    `uncertified_regions`, so that nothing is silently dropped.  A
    "witness" is the box at which ih_check refutes the hypothesis.  `gap`
    is the distance of the multiplier (f^n)'(x) to the unit circle;
    `residual` is |f^n(x) - x| at the refined point; `least_period` is the
    solution's least period, proved (find_periodic), or 0 where it is not.
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
    distinct ends of the intervals settled, the interval Newton steps (a
    root's last one gives its record), the record of each root read from
    the censuses at the proper divisors of n, and each tangential
    candidate's record, including the initial grid's orbits reused from an
    earlier call on the same map: the count, and so the budget, is the same
    whatever ran before.  The divisors' censuses run first, each on its own
    budget, and are not counted here.  That reuse assumes the map is not
    mutated after it is built."""

    period: int
    radius: float
    records: list
    uncertified_regions: list
    certified: bool
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


# Sets of at most this many points or intervals are handled on Python
# floats, one at a time; larger sets on NumPy arrays.  Each array call costs
# a near-constant overhead up to a few dozen elements, each float element a
# few hundred ns, so each use has a crossover (shared 2-CPU x86 host):
#   tube step (_settle's ends, _newton's steps): an eval_many step costs
#     about 14 us, a scalar step 0.7 us a point (degree 9, with and without
#     a root-product term): they cross at 20-24 points;
#   held-run test (_held_runs): the arrays take 25-30 us a call, the floats
#     5-11 us at 1-8 intervals: they cross at 16-20 intervals against 2,000
#     known enclosures and at 32-40 against 16.
# One limit serves all three sites: most sets a census meets hold 1-8
# elements or hundreds and more, which every limit from 16 to 40 sends the
# same way; the few in between lose at most a few us on the slower path;
# and the tests force every use down one path by setting this one value.
# Each side carries benchmark traffic at each site; one seed-42 pass of
# mc_a9 takes the floats only (100 _settle, 350 _held_runs and 100 _newton
# calls), one of census_ladder the arrays at 10 _settle, 7 _held_runs and
# 4 _newton calls (and the floats at 12, 33 and 7).
_SCALAR_POINTS = 16

# Cells of the initial grid of [-R, R] that every _refine caller starts from
_GRID_CELLS = 1024


class _Domain(NamedTuple):
    """The certified model of f on [-R, R], one per map and radius in the
    map's memo (_domain): the constants that do not depend on the period,
    the initial grid of _refine and the grid's orbit tubes (_grid_tube)."""

    R: float
    D1: float  # sup |f'|
    D2: float  # sup |f''|
    step: float  # float slack of one evaluation of f
    d_slack: float  # float slack of one evaluation of f'
    pad: float  # 8 eps R, the rounding of one subtraction or quotient step on [-R, R]
    cap: float  # 2R, the width of [-R, R]
    grid: tuple  # (mids, halves) of _GRID_CELLS equal cells, read-only
    tubes: dict  # period -> the grid's tube (y, r, lam, lam_hi), read-only
    roots: dict  # (tol, max_evaluations, period) -> the census's certified rows and regions (_census)


def _proper_divisors(n: int) -> list:
    """The divisors d < n of n, ascending."""
    return [d for d in range(1, n) if n % d == 0]


def _dev(lam, lam_hi, n: int):
    """dev = lam_hi (1 + (8n + 4) eps) - |lam| of a cell at period n, as
    _cells gives it, for floats or arrays."""
    return lam_hi * (1.0 + (8 * n + 4) * _EPS) - abs(lam)


def _domain(f, R: float) -> _Domain:
    """The _Domain of f on [-R, R], built once and kept in the map's memo,
    which it shares with certified_range_1d and the map's bounds."""
    key = ("domain", R)
    memo = _memo(f)
    if key not in memo:
        sup, _, D2 = _bounds(f, R)
        # sup |f'| from a grid, padded by the curvature between grid points
        xs = np.linspace(-R, R, 4097)
        D1 = float(np.abs(f.deriv_many(xs)).max()) + D2 * (2.0 * R / 4096) / 2.0
        edges = np.linspace(-R, R, _GRID_CELLS + 1)
        grid = (0.5 * (edges[:-1] + edges[1:]), np.full(_GRID_CELLS, R / _GRID_CELLS))
        for a in grid:
            a.flags.writeable = False  # shared with later calls
        memo[key] = _Domain(R=R, D1=D1, D2=D2, step=64.0 * _EPS * max(R, sup, 1.0),
                            d_slack=64.0 * _EPS * D1, pad=8.0 * _EPS * R, cap=2.0 * R,
                            grid=grid, tubes={}, roots={})
    return memo[key]


def _resolve_radius(f, radius: Optional[float]) -> float:
    """The given radius, checked for certified forward invariance, or the
    smallest certified invariant radius on the standard ladder.  The ranges
    behind either come from the map's memo."""
    if radius is not None:
        _real(radius, "radius", gt=0)
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


# -- orbit tubes and the certify-or-refine driver -----------------------------------


def _tube_many(f, mids: np.ndarray, halves: np.ndarray, n: int, dom: _Domain, lam=1.0, lam_hi=1.0):
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
    error, and a cell of zero width bounds the error of one computed orbit.
    The true orbit stays in [-R, R] (forward invariance), so
    clamping y_k to [-R, R] cannot move it away from any true orbit and
    keeps D1 and D2 valid, and r_k never needs to exceed the cap 2R, which
    also keeps s_k bounded.  lam_hi keeps the uncapped s_k: its product
    bound needs |f'(x_k) - f'(y_k)| <= s_k - |f'(y_k)|, which the cap would
    break.  At a deep period the products may overflow to inf, which only
    makes dev inf: no test passes on it, and the cell stays undecided.

    Given the (mids, halves) as the tube (y, r) at some step k and the
    (lam, lam_hi) there, it continues that tube to step k + n; radii stacked
    as halves (j, cells) share y and lam.  Every update is out of place.
    """
    y = np.asarray(mids, dtype=float)
    r = np.asarray(halves, dtype=float)
    with np.errstate(over="ignore"):
        for _ in range(n):
            d = f.deriv_many(y)
            # np.clip's floats (NaN and -0.0 included), without its wrapper
            y = np.minimum(np.maximum(f.eval_many(y), -dom.R), dom.R)
            s = np.abs(d) + dom.D2 * r + dom.d_slack
            lam = lam * d
            lam_hi = lam_hi * s
            r = np.minimum(np.minimum(s, dom.D1) * r + dom.step, dom.cap)
    return y, r, lam, lam_hi


def _tubes_at(f, xs: list, halves: Optional[list], n: int, dom: _Domain) -> list:
    """The orbit tubes of radius 0 and of radius h (the list halves) of
    each float x of the list xs, one point at a time: per point (g, bound,
    lam, dev), g = y - x and bound = r + 8 eps R >= |g(x) - g| from the
    zero-width tube (y, r), lam and dev as _cells gives them for the box
    [x - h, x + h].  Both radii ride the same y and lam.  With halves None
    the box is the zero-width tube itself, bit for bit, so it is not traced
    twice.  The loop performs _tube_many's float operations, so it agrees
    with _tube_many over the stacked radii (0, h) bit for bit."""
    R, D1, D2, step, d_slack, pad, cap = dom[:7]
    evaluate, derivative = f.evaluate, f.derivative
    box, out = halves is not None, []
    for x, r in zip(xs, halves if box else xs):
        y, r0, lam, lam_hi = x, 0.0, 1.0, 1.0
        for _ in range(n):
            d = derivative(y)
            s0 = abs(d) + D2 * r0 + d_slack
            y = evaluate(y)
            y = R if y > R else -R if y < -R else y  # _tube_many's clamp, NaN and -0.0 too
            r0 = (D1 if s0 > D1 else s0) * r0 + step
            r0 = cap if r0 > cap else r0
            lam *= d
            if box:  # the box's tube
                s = abs(d) + D2 * r + d_slack
                lam_hi *= s
                r = (D1 if s > D1 else s) * r + step
                r = cap if r > cap else r
            else:
                lam_hi *= s0
        out.append((y - x, r0 + pad, lam, _dev(lam, lam_hi, n)))
    return out


def _grid_tube(f, n: int, dom: _Domain):
    """_tube_many over the initial grid at period n >= 1.  The domain keeps
    the grid's tube, read-only, at every period asked for: a call reads its
    own period's, or extends the one at the highest period k < n held (the
    grid itself at k = 0) by n - k steps.  A step reads only the domain's
    constants, none of which depends on the period, so the result is bit for
    bit the tube computed from scratch."""
    tubes = dom.tubes
    if n not in tubes:
        k = max((k for k in tubes if k < n), default=0)
        y, r, lam, lam_hi = tubes.get(k, (*dom.grid, 1.0, 1.0))
        tubes[n] = _tube_many(f, y, r, n - k, dom, lam, lam_hi)
        for a in tubes[n]:
            a.flags.writeable = False  # shared with later calls
    return tubes[n]


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

    def slopes(self, idx: np.ndarray) -> np.ndarray:
        """Rows lam - 1 -+ dev: enclosures of g' = (f^n)' - 1 on cells idx."""
        d, dev = self.lam[idx] - 1.0, self.dev[idx]
        return np.array([d - dev, d + dev])


def _cells(mids: np.ndarray, halves: np.ndarray, n: int, dom: _Domain, tube) -> _Cells:
    """The _Cells of (mids, halves) from their tube (y, r, lam, lam_hi) at
    period n: spread = r + half + 8 eps R, r holding the orbit's rounding and
    8 eps R the subtraction g = y - m; dev = lam_hi (1 + (8n + 4) eps) - |lam|,
    as lam and lam_hi (n rounded factors each, |lam| <= lam_hi) are within a
    relative 2n eps of exact, and the subtractions that read dev round too."""
    y, r, lam, lam_hi = tube
    return _Cells(mids=mids, halves=halves, g=y - mids, spread=r + halves + dom.pad,
                  lam=lam, dev=_dev(lam, lam_hi, n))


def _refine(f, n: int, dom: _Domain, max_evaluations: int, classify):
    """Certify-or-refine [-R, R], from the domain's initial grid of
    _GRID_CELLS equal cells, in vectorised rounds.

    Each round runs the orbit tube over the live cells (the first round
    takes the grid's tube from the domain, so every caller at the same
    period shares it) and calls `classify(cells, budget)`, which records
    whatever it decides and returns the mask of the cells still undecided
    plus the evaluations it spent itself, at most `budget`; the undecided
    cells are bisected.  An evaluation is one n-step orbit of one point.
    Returns the evaluations spent and the frontier (mids, halves) left when
    the next round would exceed `max_evaluations` (empty when the frontier
    ran out first).
    """
    mids, halves = dom.grid
    evaluations = 0
    while evaluations + mids.size <= max_evaluations:
        tube = _grid_tube(f, n, dom) if evaluations == 0 else _tube_many(f, mids, halves, n, dom)
        cells = _cells(mids, halves, n, dom, tube)
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
    one, left in a bracket).  Every test reads the cell's own tube (_cells),
    and an endpoint value decides only when |g| there clears its own
    orbit's error bound; adjacent monotone cells of the same
    direction whose shared end does not clear it are settled together, from
    the outer ends of their union, on which g is strictly monotone too.  So
    a root on a cell end (0 for x^2 - 1, 1/2 for 0.95 - 1.8x^2) is
    bracketed in the round that reaches it.  A root of period d | n, d < n,
    is not located again: the censuses at the proper divisors of n, with
    the same radius, tol and budget, run first (find_periodic(f, d, R, tol,
    max_evaluations), unless the map's memo holds them), and a run of
    monotone cells of the same direction whose interior holds one of their
    certified enclosures is settled with that root before any end value is
    read (_held_runs); its record keeps the enclosure and least period, and
    a root located afresh has least period n where its enclosure meets no
    enclosure or region of theirs, else 0: not proved.  After the rounds
    each held root's record takes one orbit, and one interval Newton pass
    encloses the roots of all brackets (_enclose), in waves that the budget
    left pays for; an unpaid root or bracket is an uncertified region.  The
    rest shrink to halfwidth <= tol and merge into clusters (a tangency, or
    a root at the float noise floor), which are not settled: each is
    reported in `uncertified_regions` as it is, with a
    "tangential-candidate" record at its midpoint from one orbit, unless
    that orbit's own error bound reaches the cap 2R or its multiplier bound
    is not finite (at a deep period, say), as such a record bounds nothing.
    Certified enclosures are proved, of halfwidth tol, or wider where the
    float noise floor stops the contraction (see _contract).  At a period
    deep enough for a tube's multiplier bound to overflow, the cells it
    covers stay undecided and are reported uncertified.  Every evaluation
    counts against `max_evaluations`: the rounds first, then the records of
    the divisors' roots, then the brackets, then the clusters' candidates,
    which are left out when what is left cannot pay for one orbit each.  An
    exhausted budget leaves the unresolved frontier in
    `uncertified_regions` and the result uncertified.  Maps of dimension
    >= 2, periods that are not integers >= 1 and budgets that are not
    integers >= 0 raise InvalidInputError.

    The certified radius and its _Domain (the bounds, the initial grid and
    its orbit tube at every period asked for, and each census's certified
    enclosures) are kept per map and reused by later calls on it, the
    cover and ih_check included, with results identical to a fresh map's;
    `evaluations` counts the reused orbits too, but not the divisors'
    censuses, which run on their own budget: a call on a fresh map runs one
    census per divisor of n, n included, each within `max_evaluations`, so
    its work is bounded by sigma_0(n) max_evaluations orbits in all (18
    censuses at n = 800), and on a map whose memo holds the divisors' by
    max_evaluations.  The map must not be mutated after it is built.
    """
    _check_map(f, "find_periodic", one_d=True)
    n = _period(n)
    _real(tol, "tol", gt=0, lt=1)
    max_evaluations = _period(max_evaluations, 0, "max_evaluations")
    return _census(f, n, _domain(f, _resolve_radius(f, radius)), tol, max_evaluations)


def _census(f, n: int, dom: _Domain, tol: float, max_evaluations: int) -> CensusResult:
    """find_periodic on dom.  The censuses at the proper divisors d of n,
    with the same tol and budget, run first where dom.roots does not hold
    them yet, and this one keeps its own there: its certified rows
    (location, halfwidth, least_period) and its uncertified regions."""
    for d in _proper_divisors(n):
        if (tol, max_evaluations, d) not in dom.roots:
            _census(f, d, dom, tol, max_evaluations)
    known = _known_roots(dom, n, tol, max_evaluations)

    brackets: list = [np.empty((0, 9))]  # the one-root runs of every round, in order
    held: list = []  # the rows (x, h, least, a, c) of the runs that hold a known root (_held_runs)
    finished: list = []  # (mids, halves) of cells refined down to tol

    def classify(c: _Cells, budget: int):
        keep = np.abs(c.g) <= c.spread
        idx = np.flatnonzero(keep & (np.abs(c.lam - 1.0) > c.dev))
        lo, hi, slope = c.mids[idx] - c.halves[idx], c.mids[idx] + c.halves[idx], c.slopes(idx)
        if idx.size and known is not None:
            inside, runs = _held_runs(lo, hi, slope[0] > 0.0, known)
            held.extend(runs)
            keep[idx[inside]] = False
            rest = ~inside
            idx, lo, hi, slope = idx[rest], lo[rest], hi[rest], slope[:, rest]
        settled, spent, bracketed = _settle(f, n, dom, lo, hi, slope, budget)
        brackets.append(bracketed)
        keep[idx[settled]] = False
        done = keep & (c.halves <= tol)
        finished.append((c.mids[done], c.halves[done]))
        return keep & ~done, spent

    evaluations, left_mids, left_halves = _refine(f, n, dom, max_evaluations, classify)
    uncertified: list = _merged([(left_mids, left_halves)])

    # the record of each known root takes one orbit, and every bracket's
    # root is enclosed after them, as far as the budget left pays; an unpaid
    # run is reported as it is (the runs are disjoint, so their ends sorted
    # apart stay paired)
    paid = held[: max_evaluations - evaluations]
    orbits = _tubes_at(f, [x for x, *_ in paid], None, n, dom)
    records = [_record(n, x, h, g, lam, True, "simple", int(least))
               for (x, h, least, _, _), (g, _, lam, _) in zip(paid, orbits)]
    evaluations += len(paid)
    rows = np.concatenate(brackets)
    located, spent = _enclose(f, n, dom, rows, tol, max_evaluations - evaluations)
    evaluations += spent
    records += [_record(n, *fields, True, "simple", least)
                for fields, least in zip(located, _least_periods(dom, n, tol, max_evaluations, located))]
    if len(paid) < len(held) or len(located) < len(rows):
        unpaid = np.concatenate([np.reshape(held[len(paid):], (-1, 5))[:, 3:], rows[len(located):, :2]])
        uncertified.extend(_merge_intervals(*np.sort(unpaid.T)))

    # a tangency or a root at the noise floor stops every test on the cells
    # refined to tol: each cluster is reported, with a candidate at its
    # midpoint when the budget pays for that orbit
    clusters = _merged(finished, gap=tol / 2)
    if len(clusters) <= max_evaluations - evaluations:
        xs = [0.5 * (lo + hi) for lo, hi in clusters]
        # an orbit whose bound reaches the cap, or whose multiplier bound is
        # not finite, bounds nothing, and gives no record
        records.extend(_record(n, x, (hi - lo) / 2.0, g, lam, False, "tangential-candidate")
                       for x, (lo, hi), (g, bound, lam, dev)
                       in zip(xs, clusters, _tubes_at(f, xs, None, n, dom))
                       if bound < dom.cap and math.isfinite(dev))
        evaluations += len(xs)
    uncertified.extend(clusters)

    records.sort(key=lambda r: r.location)
    proved = np.array([(r.location, r.halfwidth, r.least_period) for r in records if r.certified], float)
    dom.roots[tol, max_evaluations, n] = proved.reshape(-1, 3), np.array(uncertified, float).reshape(-1, 2)
    return CensusResult(
        period=n,
        radius=dom.R,
        records=records,
        uncertified_regions=uncertified,
        certified=not uncertified,
        evaluations=evaluations,
    )


def _known_roots(dom: _Domain, n: int, tol: float, max_evaluations: int):
    """The certified enclosures [x - h, x + h] of the censuses at the
    proper divisors of n in dom.roots, as the rows x - h, x + h, x, h, least
    of an array, in order of x - h, then x + h (None when there are none).
    Each holds a root of f^d - id, of least period `least` (0: not proved)."""
    x, h, least = np.concatenate([np.empty((0, 3))] + [dom.roots[tol, max_evaluations, d][0]
                                                       for d in _proper_divisors(n)]).T
    known = np.array([x - h, x + h, x, h, least])
    return known[:, np.lexsort(known[1::-1])] if x.size else None


def _least_periods(dom: _Domain, n: int, tol: float, max_evaluations: int, located: list) -> list:
    """The least period of each root _enclose located at period n: n where
    its [m - hw, m + hw] meets no span (enclosure or region) of the proper
    divisors' censuses, which hold all their roots, else 0 (not proved).
    Rounding is monotone: exact intervals that meet have float ends that meet."""
    entries = [dom.roots[tol, max_evaluations, d] for d in _proper_divisors(n)]
    if not (located and entries):
        return [n] * len(located)
    x, h, _ = np.concatenate([rows for rows, _ in entries]).T
    spans = np.concatenate([[(-np.inf, -np.inf)], np.array([x - h, x + h]).T] + [r for _, r in entries])
    spans = spans[np.argsort(spans[:, 0])]
    m, hw = np.array([fields[:2] for fields in located]).T
    j = np.searchsorted(spans[:, 0], m + hw, side="right")  # >= 1: the sentinel starts at -inf
    return np.where(np.maximum.accumulate(spans[:, 1])[j - 1] >= m - hw, 0, n).tolist()


def _runs(lo: np.ndarray, hi: np.ndarray, up: np.ndarray, joinable: Optional[np.ndarray] = None):
    """Group the intervals [lo, hi], on each of which g is strictly
    monotone (rising where up), into runs: in the order of lo, two
    neighbours join when they share an end exactly, rise or fall alike and,
    where `joinable` is given, it holds for the first of them (at the end
    they share).  g is strictly monotone on the union of a run.  Returns
    that order, the places along it where the runs start, and each
    interval's run, the runs numbered in the order of lo."""
    order = np.argsort(lo, kind="stable")
    a, c = order[:-1], order[1:]
    join = (hi[a] == lo[c]) & (up[a] == up[c])
    if joinable is not None:
        join &= joinable[a]
    starts = np.concatenate([[True], ~join])
    run = np.empty(lo.size, dtype=np.intp)
    run[order] = np.cumsum(starts) - 1
    return order, np.flatnonzero(starts), run


def _held_runs(lo: np.ndarray, hi: np.ndarray, up: np.ndarray, known: np.ndarray):
    """The runs (_runs) of the intervals [lo, hi] that hold a known root:
    a run whose interior holds the enclosure of a known root (the rows of
    `known`, from _known_roots) has that root and no other, with no end
    value read.  The first enclosure that starts inside a run is tried.  A
    float end of an enclosure lies inside the run only when its exact end
    does, as rounding is monotone.  Returns the mask of the intervals in
    such runs and one row [x, h, least, a, c] per run [a, c], by a.

    Up to _SCALAR_POINTS intervals are grouped on floats, one run at a
    time, each run bisecting the row known[0] in place (a deep census knows
    thousands of roots, too many to copy per call); more go through _runs on
    arrays.  Both take the same order (a stable sort of lo), joins, lookup
    (bisect_right is searchsorted's side="right") and comparisons, so they
    give the same mask and rows."""
    last = known.shape[1] - 1
    if lo.size > _SCALAR_POINTS:
        order, cuts, run = _runs(lo, hi, up)
        a, c = lo[order[cuts]], hi[order[np.append(cuts[1:], lo.size) - 1]]
        j = np.minimum(np.searchsorted(known[0], a, side="right"), last)
        holds = (a < known[0, j]) & (known[1, j] < c)
        return holds[run], np.array([known[2, j], known[3, j], known[4, j], a, c]).T[holds].tolist()
    los, his, ups, starts = lo.tolist(), hi.tolist(), up.tolist(), known[0]
    order = sorted(range(lo.size), key=los.__getitem__)  # stable, as _runs' argsort
    runs = [[order[0]]]
    for p, i in zip(order, order[1:]):
        if his[p] == los[i] and ups[p] == ups[i]:
            runs[-1].append(i)
        else:
            runs.append([i])
    inside, rows = [False] * lo.size, []
    for run in runs:
        a, c = los[run[0]], his[run[-1]]
        j = min(bisect_right(starts, a), last)
        if a < starts[j] and known[1, j] < c:
            for i in run:
                inside[i] = True
            rows.append(known[2:, j].tolist() + [a, c])
    return np.array(inside), rows


def _settle(f, n: int, dom: _Domain, lo: np.ndarray, hi: np.ndarray, slope: np.ndarray, budget: int):
    """Settle the intervals [lo, hi] of [-R, R] on which g = f^n - id is
    proved strictly monotone, with g' in [slope[0], slope[1]] (excluding 0,
    from _Cells.slopes), from g at the ends, where |g| clears (exceeds) its
    own orbit's error bound or does not.

    The intervals join into runs (_runs): two join when they share an end
    exactly, are monotone in the same direction, and g at the shared end
    does not clear (a root on or near that end).  g is strictly monotone
    on the union, with g' in the hull of the slopes, so a run is decided by
    its two outer ends as an interval is: when both clear, opposite signs
    mean exactly one root, and one sign means none.  The value at a joined
    end is never used for a sign.  No root is located here: a one-root run
    leaves the frontier at once as a bracket row, which find_periodic
    passes to _enclose after the rounds.

    An end shared by two intervals is evaluated once, all ends in one
    zero-width tube call, whose values _newton's first step reads.  Nothing is
    settled when `budget` cannot pay for the ends.  Returns the mask of the
    settled intervals, the evaluations spent (the distinct ends, at most
    `budget`) and the brackets, one row per one-root run."""
    index: dict = {}  # distinct end -> its place among the ends' orbits
    at = [index.setdefault(x, len(index)) for x in lo.tolist() + hi.tolist()]
    if not 0 < len(index) <= budget:
        return np.zeros(lo.size, dtype=bool), 0, np.empty((0, 9))
    if len(index) <= _SCALAR_POINTS:
        g, bound = np.array(_tubes_at(f, list(index), None, n, dom))[:, :2].T
    else:
        ends = np.array(list(index))
        y, r, _, _ = _tube_many(f, ends, np.zeros(ends.size), n, dom)
        g, bound = y - ends, r + dom.pad
    g, bound = g[at], bound[at]
    spent, k = len(index), lo.size
    x, clear = np.concatenate([lo, hi]), np.abs(g) > bound  # the lo ends, then the hi ends
    run = None  # each interval's run, once some intervals join
    if not clear.all():
        order, cuts, joined = _runs(lo, hi, slope[0] > 0.0, ~clear[k:])
        if cuts.size < k:
            run = joined
            # from here on the arrays describe the runs: outer ends, hulls of slopes
            outer = np.concatenate([order[cuts], order[np.append(cuts[1:], k) - 1] + k])
            x, g, bound, clear = x[outer], g[outer], bound[outer], clear[outer]
            slope = np.array([np.minimum.reduceat(slope[0, order], cuts),
                              np.maximum.reduceat(slope[1, order], cuts)])
            k = cuts.size
    settled = clear[:k] & clear[k:]
    pending = settled & ((g[:k] > 0) != (g[k:] > 0))
    # rows a, c, g(a), g(c), bound(a), bound(c), t, dl, dh: t g rises, 0 < dl <= (t g)' <= dh
    up = slope[0] > 0.0
    brackets = np.concatenate([x, g, bound, np.where(up, 1.0, -1.0),
                               np.where(up, slope, -slope[::-1]).ravel()]).reshape(9, k)
    return (settled if run is None else settled[run]), spent, brackets[:, pending].T


def _enclose(f, n: int, dom: _Domain, brackets: np.ndarray, tol: float, budget: int):
    """Enclose the roots of the rows of `brackets` (as _settle gives them)
    in waves: the longest prefix of the rows left that what is left of
    `budget` pays for at _NEWTON_STEPS orbits each goes to one _newton
    call, and its actual orbits are charged before the next.  So a root is
    located exactly when taking the rows one at a time under that rule
    would locate it, and with the budget to spare all go in one call.
    Returns the record fields of the located prefix and the orbits spent."""
    found, spent = [], 0
    while len(found) < len(brackets):
        wave = (budget - spent) // _NEWTON_STEPS
        if not wave:
            break
        located, calls = _newton(f, n, dom, brackets[len(found) : len(found) + wave], tol)
        spent += calls
        found += located
    return found, spent


# The contraction's orbits per root at worst: each step but the last at
# least halves the enclosure, and a contraction cut off proves a wider one
_NEWTON_STEPS = 40


# np.maximum, np.minimum and np.where for Python floats, taking the second
# of two equal operands as NumPy does (-0.0 and 0.0 included)
_pyfloat = SimpleNamespace(maximum=lambda a, c: a if a > c else c,
                           minimum=lambda a, c: a if a < c else c,
                           where=lambda cond, a, c: a if cond else c)


def _newton_image(xp, x, g, bound, dl, dh, pad: float):
    """Newton's operator x - G / D on floats (xp = _pyfloat) or arrays
    (xp = np), for G = [g - bound, g + bound] holding g(x) and D = [dl, dh],
    dl > 0, the slopes of g between x and a root: [lo, hi] holds the root.
    With x in [-R, R] the pad 8 eps R covers the rounding of a quotient q
    and of x - q while |q| <= 3R; a larger q puts that end outside [-R, R]."""
    gl, gh = g - bound, g + bound
    return (x - gh / xp.where(gh >= 0.0, dl, dh) - pad,
            x - gl / xp.where(gl >= 0.0, dh, dl) + pad)


def _start(xp, a, c, ga, gc, ba, bc, t, dl, dh, pad: float):
    """The contraction's first step on [a, c], with no orbit: Newton's
    operator at both ends, from the g and bounds that settled the run."""
    la, ha = _newton_image(xp, a, t * ga, ba, dl, dh, pad)
    lc, hc = _newton_image(xp, c, t * gc, bc, dl, dh, pad)
    return xp.maximum(a, xp.maximum(la, lc)), xp.minimum(c, xp.minimum(ha, hc))


def _contract(xp, xl, xh, m, t, g, bound, lam, dev, dl, dh, pad: float, tol: float):
    """One interval Newton step on [xl, xh] from the orbit of its midpoint
    m, D the box's slopes lam - 1 +- dev within the run's [dl, dh].  Where
    G(m) excludes 0 the step halves the enclosure at least.  Returns it,
    whether to stop: when it lies within tol of m (the record's halfwidth
    is tol) or at the noise floor, where a step does not halve it (its far
    end from m), and that halfwidth."""
    d = t * (lam - 1.0)
    # the two enclosures of the slopes meet; D stays positive regardless
    dl, dh = xp.maximum(dl, d - dev), xp.maximum(xp.minimum(dh, d + dev), dl)
    lo, hi = _newton_image(xp, m, t * g, bound, dl, dh, pad)
    lo, hi = xp.maximum(lo, xl), xp.minimum(hi, xh)
    below, above = m - lo, hi - m
    done = (below <= tol) & (above <= tol)
    halfwidth = xp.where(done, tol, xp.maximum(below, above))
    return lo, hi, done | (hi - lo > 0.5 * (xh - xl)), halfwidth


def _newton(f, n: int, dom: _Domain, brackets: np.ndarray, tol: float):
    """Enclose the root of g = f^n - id in each row (a, c, g(a), g(c),
    bound(a), bound(c), t, dl, dh) of `brackets`: _start, then per step one
    orbit of the enclosure's midpoint at radii (0, h) and _contract.  Returns
    each bracket's record fields (m, halfwidth, g, lam) from its last
    step and the orbits computed.  Brackets step in lockstep on arrays while
    more than _SCALAR_POINTS are open, then one at a time on floats."""
    found, calls, step = [None] * len(brackets), 0, 0
    if len(brackets) <= _SCALAR_POINTS:
        open_ = [(i, *_start(_pyfloat, *r, dom.pad), *r[6:]) for i, r in enumerate(brackets.tolist())]
    else:
        (xl, xh), idx = _start(np, *brackets.T, dom.pad), np.arange(len(brackets))
        t, dl, dh = brackets[:, 6:].T
        while idx.size > _SCALAR_POINTS:
            step += 1
            m = 0.5 * (xl + xh)
            radii = np.stack([np.zeros(m.size), np.maximum(m - xl, xh - m)])  # the point's, the box's
            y, r, lam, lam_hi = _tube_many(f, m, radii, n, dom)
            g, bound, dev = y - m, r[0] + dom.pad, _dev(lam, lam_hi[1], n)
            calls += m.size
            xl, xh, stop, hw = _contract(np, xl, xh, m, t, g, bound, lam, dev, dl, dh, dom.pad, tol)
            stop |= step == _NEWTON_STEPS
            if stop.any():
                for i, *fields in zip(*(v[stop].tolist() for v in (idx, m, hw, g, lam))):
                    found[i] = tuple(fields)
                go = ~stop
                idx, xl, xh, t, dl, dh = (v[go] for v in (idx, xl, xh, t, dl, dh))
        open_ = zip(*(v.tolist() for v in (idx, xl, xh, t, dl, dh)))
    for i, x0, x1, s, d0, d1 in open_:
        for k in range(step + 1, _NEWTON_STEPS + 1):
            m = 0.5 * (x0 + x1)
            ((g, bound, lam, dev),) = _tubes_at(f, [m], [max(m - x0, x1 - m)], n, dom)
            x0, x1, stop, hw = _contract(_pyfloat, x0, x1, m, s, g, bound, lam, dev, d0, d1, dom.pad, tol)
            if stop or k == _NEWTON_STEPS:
                break
        found[i] = (m, hw, g, lam)
        calls += k - step
    return found, calls


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


def _record(n: int, x, halfwidth, g, lam, certified: bool, kind: str, least: int = 0):
    """The record of x from its orbit's g and lam (as _tubes_at's)."""
    return PeriodicPointRecord(location=x, halfwidth=halfwidth, period=n, multiplier=lam,
                               gap=abs(abs(lam) - 1.0), certified=certified, kind=kind,
                               residual=abs(g), least_period=least)


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
    _check_map(f, "find_almost_periodic", one_d=True)
    n = _period(n)
    _real(slack, "slack", ge=0)
    max_evaluations = _period(max_evaluations, 0, "max_evaluations")
    dom = _domain(f, _resolve_radius(f, radius))
    resolution = 1e-13 * dom.R if resolution is None else _real(resolution, "resolution", gt=0)

    kept: list = []

    def classify(c: _Cells, _budget: int):
        keep = np.abs(c.g) <= c.spread + slack
        done = keep & ((c.spread <= slack / 4.0) | (c.halves <= resolution))
        kept.append((c.mids[done], c.halves[done]))
        return keep & ~done, 0

    _, left_mids, left_halves = _refine(f, n, dom, max_evaluations, classify)
    kept.append((left_mids, left_halves))
    return AlmostPeriodicCover(
        period=n,
        slack=float(slack),
        radius=dom.R,
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
    stage is verified by subdividing the invariant interval, from the
    census's initial grid, whose tube at period k a census at k (or an
    earlier stage check) leaves in the map's memo: a box passes if it
    certifiably contains no almost-periodic point, or if every point of
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
    `max_evaluations_per_period` k-step orbits: its tube rounds and the
    zero-width tubes of midpoints whose |g| and gap pass unpadded, one of
    which gives the witness's record.  n_max = 0 holds vacuously.
    """
    _check_map(f, "ih_check", one_d=True)
    n_max = _period(n_max, 0, "n_max")
    max_evaluations_per_period = _period(max_evaluations_per_period, 0, "max_evaluations_per_period")
    dom = _domain(f, _resolve_radius(f, radius))
    rows = []
    for k in range(1, n_max + 1):
        thr = params.gamma_n(k)
        slack = thr ** (1.0 / params.rho)
        row = _ih_one_period(f, k, thr, slack, dom, max_evaluations_per_period)
        rows.append(row)
        if row.status == "fails":
            break
    return IHReport(params=params, radius=dom.R, rows=tuple(rows))


def _ih_one_period(f, k, thr, slack, dom: _Domain, max_evals) -> IHRow:
    gap_floor = max(thr, math.ulp(0.0))  # a threshold of 0.0 (see ih_check)
    witness = None
    unresolved: list = []

    def classify(c: _Cells, budget: int):
        nonlocal witness
        gabs = np.abs(c.g)
        gaps = np.abs(np.abs(c.lam) - 1.0)
        # a witness midpoint is read from its zero-width orbit, which gives its record
        idx = np.flatnonzero((gabs <= slack) & (gaps < thr))
        spent = idx.size if idx.size <= budget else 0
        if spent:
            m, zeros = c.mids[idx], np.zeros(spent)
            w = _cells(m, zeros, k, dom, _tube_many(f, m, zeros, k, dom))
            failing = (np.abs(w.g) + w.spread <= slack) & (np.abs(np.abs(w.lam) - 1.0) + w.dev < thr)
            if failing.any():
                j = np.flatnonzero(failing)[np.argmin(m[failing])]
                x, h = m[j].item(), c.halves[idx[j]].item()
                witness = _record(k, x, h, w.g[j].item(), w.lam[j].item(), True, "witness")
                return np.zeros(c.mids.size, dtype=bool), spent
        excluded = gabs > c.spread + slack
        hyperbolic = gaps - c.dev >= gap_floor
        live = ~(excluded | hyperbolic)
        floored = live & (2.0 * c.halves <= 1e-9 * dom.R)
        unresolved.append((c.mids[floored], c.halves[floored]))
        return live & ~floored, spent

    _, left_mids, left_halves = _refine(f, k, dom, max_evals, classify)
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
    _check_map(f, "prop11_check", one_d=True)
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
