"""Certified census of periodic points and growth-hypothesis checks.

For a 1-D polynomial map (optionally carrying perturbation terms) the census
finds every solution of f^n(x) = x on a certified forward-invariant interval
[-R, R] by certify-or-refine bisection.  Each cell [m - h, m + h] is followed
through n steps of f by an orbit tube: the computed orbit y_k of its
midpoint with a radius r_k that contains the image of the whole cell (the
mean-value theorem with D2 = sup |f''|), which also encloses (f^n)' on the
cell.  With g = f^n - id, a cell is dropped once

    |g(m)| > min(L_n h, r_n + h) + slack,

where L_n = D1^n + 1 is the uniform Lipschitz bound built from a certified
sup bound D1 of |f'| (kept under the minimum, so the tube never drops fewer
cells than L_n alone).  A cell on which the enclosure of g' = (f^n)' - 1
excludes 0 has g monotone, and the values of g at its two endpoints settle
it: no solution, or exactly one, which is then bracketed.  The remaining
cells shrink to enclosures; sign changes plus a local derivative bound
certify existence and uniqueness, so the reported count is exact whenever
the result says so.  Floating-point error is covered by a generous slack per
evaluation, not by outward rounding.

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
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq

from .dynamics import as_perturbed, certified_range_1d, invariant_radius, norm_bounds
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

    `certified` means the enclosure [location - halfwidth, location +
    halfwidth] provably contains exactly one solution; tangential candidates
    (|f^n - id| below the residual tolerance at a critical point of the
    displacement, with no sign change) are kept with certified=False so that
    nothing is silently dropped.  `gap` is the distance of the multiplier
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
    """Outcome of one period-n census."""

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


def _sup_abs_deriv(f, radius: float, n_points: int = 4097) -> float:
    """Certified sup of |f'| on [-radius, radius] (grid + curvature padding)."""
    xs = np.linspace(-radius, radius, n_points)
    vals = np.abs(f.deriv_many(xs))
    h = 2.0 * radius / (n_points - 1)
    return float(vals.max()) + f.d2_bound(radius) * h / 2.0


def _iterate_many(f, xs: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(xs, dtype=float)
    for _ in range(n):
        y = f.eval_many(y)
    return y


def _g_scalar(f, x: float, n: int) -> float:
    y = x
    for _ in range(n):
        y = f.evaluate(y)
    return y - x


def _multiplier_scalar(f, x: float, n: int) -> float:
    y = x
    lam = 1.0
    for _ in range(n):
        lam *= f.derivative(y)
        y = f.evaluate(y)
    return lam


class _Bounds(NamedTuple):
    """Certified constants reused across the census of one (f, n, R)."""

    D1: float
    D2: float
    L: float
    S2: float
    S_lam: float
    step: float
    ev: float
    ev_d: float
    ev_lam: float


def _census_bounds(f, radius: float, n: int) -> _Bounds:
    D1 = _sup_abs_deriv(f, radius)
    D2 = f.d2_bound(radius)
    d1e = max(1.0, D1)
    if d1e > 1.0 and n * math.log(d1e) > 600.0:
        raise ConfigurationError(
            f"period {n} overflows the Lipschitz bound (sup |f'| = {D1:.3g})"
        )
    L = d1e**n + 1.0
    # sup |(f^n)''| by S_k <= D2 D1^(2(k-1)) + D1 S_{k-1}
    S = D2
    for k in range(2, n + 1):
        S = D2 * d1e ** (2 * (k - 1)) + d1e * S
    S_lam = n * D2 * d1e ** max(0, 2 * n - 2)
    # generous floating-point slack: per-step polynomial evaluation error,
    # amplified through the composition chain
    scale = max(radius, f.sup_bound(radius), 1.0)
    step = 64.0 * _EPS * scale
    if abs(d1e - 1.0) < 1e-9:
        chain = float(n)
    else:
        chain = (d1e**n - 1.0) / (d1e - 1.0)
    ev = step * chain + 8.0 * _EPS * radius
    ev_d = 64.0 * _EPS * max(1.0, D1) ** n * n
    ev_lam = ev_d
    return _Bounds(D1=D1, D2=D2, L=L, S2=S, S_lam=S_lam, step=step, ev=ev, ev_d=ev_d, ev_lam=ev_lam)


def _resolve_radius(f, radius: Optional[float]) -> float:
    if radius is not None:
        if not (math.isfinite(radius) and radius > 0):
            raise InvalidInputError("radius must be a positive real")
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


def _tube_many(f, mids: np.ndarray, halves: np.ndarray, n: int, R: float, b: _Bounds):
    """Orbit tubes of the cells [m - h, m + h] under n steps of f.

    Returns (y, r, lam, lam_hi): the computed orbit y of each midpoint with a
    radius r such that |f^n(x) - y| <= r for every x in the cell, and the
    product lam of f' along y with lam_hi such that
    |(f^n)'(x) - lam| <= lam_hi - |lam| on the cell.

    Each step is the mean-value theorem: while |x_k - y_k| <= r_k,
    |f'(x_k)| <= s_k = |f'(y_k)| + D2 r_k (D2 = sup |f''| on [-R, R]) plus a
    float slack, so |x_{k+1} - y_{k+1}| <= s_k r_k + step, where step is the
    per-step evaluation slack of the census.  The true orbit stays in
    [-R, R] (forward invariance), so clamping y_k to [-R, R] cannot move it
    away from any true orbit and keeps D2 valid, and r_k never needs to
    exceed 2R, a cap that also keeps s_k bounded.
    """
    y = np.asarray(mids, dtype=float)
    r = np.asarray(halves, dtype=float)
    lam = np.ones_like(y)
    lam_hi = np.ones_like(y)
    d_slack = 64.0 * _EPS * b.D1
    for _ in range(n):
        d = f.deriv_many(y)
        y = np.clip(f.eval_many(y), -R, R)
        s = np.abs(d) + b.D2 * r + d_slack
        lam *= d
        lam_hi *= s
        r = np.minimum(s * r + b.step, 2.0 * R)
    return y, r, lam, lam_hi


class _Cells(NamedTuple):
    """One round of live cells and what their orbit tubes prove.

    For every x in [mid - half, mid + half], g(x) = f^n(x) - x satisfies
    |g(x) - g| <= spread (+ ev for float error), and
    |(f^n)'(x) - lam| <= dev.  spread is min(L half, r_n + half): keeping the
    global bound under the minimum means the tube drops every cell that L
    alone would."""

    mids: np.ndarray
    halves: np.ndarray
    g: np.ndarray
    spread: np.ndarray
    lam: np.ndarray
    dev: np.ndarray


def _refine(f, n: int, R: float, b: _Bounds, k0: int, max_evaluations: int, classify):
    """Certify-or-refine [-R, R], split into k0 equal cells, in vectorised
    rounds.

    Each round runs the orbit tube over the live cells and calls
    `classify(cells, budget)`, which records whatever it decides and returns
    the mask of the cells still undecided plus the evaluations it spent
    itself, at most `budget`; the undecided cells are bisected.  An
    evaluation is one n-step orbit of one point.  Returns the evaluations
    spent and the frontier (mids, halves) left when the next round would
    exceed `max_evaluations` (empty when the frontier ran out first).
    """
    edges = np.linspace(-R, R, k0 + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = np.full(k0, R / k0)
    evaluations = 0
    while mids.size and evaluations + mids.size <= max_evaluations:
        y, r, lam, lam_hi = _tube_many(f, mids, halves, n, R, b)
        evaluations += mids.size
        cells = _Cells(
            mids=mids,
            halves=halves,
            g=y - mids,
            spread=np.minimum(b.L * halves, r + halves),
            lam=lam,
            dev=lam_hi - np.abs(lam),
        )
        live, spent = classify(cells, max_evaluations - evaluations)
        evaluations += spent
        q = halves[live] / 2.0
        mids = np.concatenate([mids[live] - q, mids[live] + q])
        halves = np.concatenate([q, q])
    return evaluations, mids, halves


def _merged(parts, gap: float = 0.0) -> list:
    """Merged union (within `gap`) of the cells in a list of (mids, halves)
    arrays."""
    if not parts:
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
    residual_tol: Optional[float] = None,
    max_evaluations: int = 3_000_000,
) -> CensusResult:
    """Certified census of the solutions of f^n(x) = x on [-R, R] for a 1-D
    map.

    R is either the given radius (checked for certified forward invariance)
    or the smallest certified invariant radius on the standard ladder.
    Cells are bisected in rounds: a cell is dropped when its orbit tube
    proves g = f^n - id has no zero on it, and settled when the tube proves
    g monotone and its endpoint values decide the cell (no root, or exactly
    one, which is then bracketed).  The rest shrink to halfwidth <= tol and
    are analysed cluster by cluster.  Returned enclosures have halfwidth
    <= tol.  An exhausted evaluation budget leaves the unresolved frontier
    in `uncertified_regions` and the result uncertified.  Maps of dimension
    >= 2 raise InvalidInputError.
    """
    f = as_perturbed(f)
    if n < 1:
        raise InvalidInputError("period must be >= 1")
    if not (0 < tol < 1):
        raise InvalidInputError("tol must lie in (0, 1)")
    if f.dim != 1:
        raise InvalidInputError("find_periodic needs a 1-D map")

    R = _resolve_radius(f, radius)
    b = _census_bounds(f, R, n)
    if residual_tol is None:
        residual_tol = 16.0 * (b.L * tol + b.ev)

    records: list = []
    root_cells: list = []  # cells holding exactly one settled root
    finished: list = []  # (mids, halves) of cells refined down to tol

    def classify(c: _Cells, budget: int):
        keep = np.abs(c.g) <= c.spread + b.ev
        idx = np.flatnonzero(keep & (np.abs(c.lam - 1.0) > c.dev + b.ev_d))
        spent = 0
        if idx.size and 2 * idx.size <= budget:
            # g is monotone on these cells: their endpoint values decide them
            lo = c.mids[idx] - c.halves[idx]
            hi = c.mids[idx] + c.halves[idx]
            ends = np.concatenate([lo, hi])
            gends = _iterate_many(f, ends, n) - ends
            spent = ends.size
            glo, ghi = gends[: idx.size], gends[idx.size :]
            settled = (np.abs(glo) > b.ev) & (np.abs(ghi) > b.ev)
            for j in np.flatnonzero(settled & ((glo > 0) != (ghi > 0))):
                records.append(_bracketed_root(f, n, lo[j], hi[j], glo[j], ghi[j], tol))
                root_cells.append((lo[j], hi[j]))
            keep[idx[settled]] = False
        done = keep & (c.halves <= tol)
        finished.append((c.mids[done], c.halves[done]))
        return keep & ~done, spent

    evaluations, left_mids, left_halves = _refine(f, n, R, b, 1024, max_evaluations, classify)
    certified = left_mids.size == 0
    uncertified: list = _merged([(left_mids, left_halves)])

    clusters = _merged(finished, gap=tol / 2)
    # a cluster's analysis window stops at the cells of settled roots, so
    # no root is counted twice
    root_los = np.sort([lo for lo, _ in root_cells])
    root_his = np.sort([hi for _, hi in root_cells])
    for i, (lo, hi) in enumerate(clusters):
        left_lim = -R if i == 0 else 0.5 * (clusters[i - 1][1] + lo)
        right_lim = R if i == len(clusters) - 1 else 0.5 * (hi + clusters[i + 1][0])
        j = np.searchsorted(root_his, lo, side="right")
        if j:
            left_lim = max(left_lim, float(root_his[j - 1]))
        j = np.searchsorted(root_los, hi, side="left")
        if j < root_los.size:
            right_lim = min(right_lim, float(root_los[j]))
        cert, recs, regions = _analyze_cluster(
            f, n, lo, hi, left_lim, right_lim, tol, residual_tol, R, b
        )
        records.extend(recs)
        uncertified.extend(regions)
        certified = certified and cert

    records.sort(key=lambda r: r.location)
    return CensusResult(
        period=n,
        radius=R,
        records=records,
        uncertified_regions=uncertified,
        certified=certified,
        lipschitz=b.L,
        evaluations=evaluations,
    )


def _merge_intervals(los: np.ndarray, his: np.ndarray, gap: float = 0.0) -> list:
    """Merge sorted intervals that touch or overlap (within `gap`)."""
    out: list = []
    for lo, hi in zip(los, his):
        if out and lo <= out[-1][1] + gap:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([float(lo), float(hi)])
    return [(lo, hi) for lo, hi in out]


_LEAST_PERIOD_TOL = 1e-8


def _least_period(f, x: float, n: int) -> int:
    y = x
    for d in range(1, n):
        y = f.evaluate(y)
        if n % d == 0 and abs(y - x) <= _LEAST_PERIOD_TOL * max(1.0, abs(x)):
            return d
    return n


def _record_at(f, n: int, x: float, halfwidth: float, certified: bool, kind: str) -> PeriodicPointRecord:
    lam = _multiplier_scalar(f, x, n)
    return PeriodicPointRecord(
        location=float(x),
        halfwidth=float(halfwidth),
        period=n,
        multiplier=float(lam),
        gap=abs(abs(lam) - 1.0),
        certified=certified,
        kind=kind,
        residual=abs(_g_scalar(f, x, n)),
        least_period=_least_period(f, x, n),
    )


def _bisect_enclosure(f, n: int, lo: float, hi: float, glo: float, ghi: float, tol: float):
    """Shrink a sign-change bracket to halfwidth <= tol by plain bisection."""
    for _ in range(200):
        if (hi - lo) / 2.0 <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = _g_scalar(f, mid, n)
        if gm == 0.0:
            w = max(tol / 4.0, 4.0 * _EPS * max(1.0, abs(mid)))
            return mid - w, mid + w
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    return lo, hi


def _bracketed_root(f, n: int, a: float, c: float, ga: float, gc: float, tol: float) -> PeriodicPointRecord:
    """Record of the root of g in a sign-change bracket [a, c]: located by
    Brent's method, enclosed to halfwidth tol by bisection."""
    root = brentq(lambda x: _g_scalar(f, x, n), a, c, xtol=tol / 4, rtol=4 * _EPS)
    elo, ehi = _bisect_enclosure(f, n, a, c, ga, gc, tol)
    loc = root if elo <= root <= ehi else 0.5 * (elo + ehi)
    return _record_at(f, n, loc, max(tol, (ehi - elo) / 2), True, "simple")


def _probe_out(f, n, start, direction, limit, tol, ev):
    """First point beyond `start` (towards `limit`) where |f^n - id| clears
    the float noise floor; the limit itself if none does."""
    pad = 2.0 * tol
    while True:
        x = start + direction * pad
        if (direction < 0 and x <= limit) or (direction > 0 and x >= limit):
            return limit
        if abs(_g_scalar(f, x, n)) > ev:
            return x
        pad *= 2.0


def _analyze_cluster(f, n, lo, hi, left_lim, right_lim, tol, residual_tol, R, b: _Bounds):
    """Certify the contents of one surviving cluster [lo, hi]; the analysis
    window is kept inside (left_lim, right_lim) so neighbouring clusters are
    never double-counted."""
    a = _probe_out(f, n, lo, -1.0, left_lim, tol, b.ev)
    c = _probe_out(f, n, hi, +1.0, right_lim, tol, b.ev)
    ga = _g_scalar(f, a, n)
    gc = _g_scalar(f, c, n)
    mid = 0.5 * (a + c)
    width = c - a
    _, _, lam, lam_hi = _tube_many(f, np.array([mid]), np.array([width / 2.0]), n, R, b)
    dmid = float(lam[0]) - 1.0  # g' = (f^n)' - 1
    dev = min(b.S2 * width / 2.0, float(lam_hi[0] - abs(lam[0])))
    monotone = abs(dmid) > dev + b.ev_d

    if monotone:
        if abs(ga) <= b.ev and abs(gc) <= b.ev:
            # an entire tiny cluster at the noise floor with g monotone:
            # a single root, located at the smaller endpoint residual
            x = a if abs(ga) <= abs(gc) else c
            return True, [_record_at(f, n, x, tol, True, "boundary")], []
        if abs(ga) <= b.ev:
            return True, [_record_at(f, n, a, tol, True, "boundary")], []
        if abs(gc) <= b.ev:
            return True, [_record_at(f, n, c, tol, True, "boundary")], []
        if (ga > 0) != (gc > 0):
            return True, [_bracketed_root(f, n, a, c, ga, gc, tol)], []
        # monotone, same signs, endpoints clearly nonzero: certified empty
        if min(abs(ga), abs(gc)) > 2.0 * b.ev:
            return True, [], []
        return False, [], [(a, c)]

    # derivative not sign-definite on the cluster: tangency territory
    if (ga > 0) != (gc > 0) and min(abs(ga), abs(gc)) > b.ev:
        # existence is certified, uniqueness on the cluster is not
        return False, [_bracketed_root(f, n, a, c, ga, gc, tol)], [(a, c)]
    gm = _g_scalar(f, mid, n)
    best = min((abs(ga), a), (abs(gc), c), (abs(gm), mid))
    if best[0] <= residual_tol:
        rec = _record_at(f, n, best[1], (c - a) / 2, False, "tangential-candidate")
        return False, [rec], [(a, c)]
    return False, [], [(a, c)]


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
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("find_almost_periodic needs a 1-D map")
    if not (math.isfinite(slack) and slack >= 0):
        raise InvalidInputError("slack must be a finite nonnegative real")
    R = _resolve_radius(f, radius)
    b = _census_bounds(f, R, n)
    if resolution is None:
        resolution = max(slack / (4.0 * b.L), 1e-13 * R)

    kept: list = []

    def classify(c: _Cells, _budget: int):
        keep = np.abs(c.g) <= c.spread + slack + b.ev
        done = keep & (c.halves <= resolution)
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
    width_floor: Optional[float] = None,
    max_evaluations_per_period: int = 400_000,
) -> IHReport:
    """Check the stage-wise hyperbolicity hypothesis for periods 1..n_max.

    At stage k the hypothesis asks that every point x with
    |f^k(x) - x| <= gamma_k^(1/rho) (an almost-periodic point at the stage
    slack) has multiplier gap at least gamma_k = exp(-C k^(1+delta)).  Each
    stage is verified by subdividing the invariant interval: a box passes if
    it certifiably contains no almost-periodic point, or if every point of
    the box has gap above the threshold.  Both tests read the box's orbit
    tube, which bounds f^k - id and the multiplier (f^k)' over the whole box
    (the global bounds L_k and sup |(f^k)''| stand in where they are
    tighter).  The stage fails with a witness box
    when a midpoint is certifiably almost periodic with gap certifiably
    below the threshold.  Boxes that reach the width floor or exhaust the
    budget are reported as unresolved and make the stage (and the report)
    indeterminate rather than wrong.  n_max = 0 holds vacuously.
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("ih_check needs a 1-D map")
    if n_max < 0:
        raise InvalidInputError("n_max must be >= 0")
    R = _resolve_radius(f, radius)
    if width_floor is None:
        width_floor = 1e-9 * R

    rows = []
    for k in range(1, n_max + 1):
        thr = params.gamma_n(k)
        slack = thr ** (1.0 / params.rho)
        b = _census_bounds(f, R, k)
        row = _ih_one_period(f, k, thr, slack, R, b, width_floor, max_evaluations_per_period)
        rows.append(row)
        if row.status == "fails":
            break
    return IHReport(params=params, radius=R, rows=tuple(rows))


def _ih_one_period(f, k, thr, slack, R, b: _Bounds, width_floor, max_evals) -> IHRow:
    if thr <= 0.0:
        # the threshold underflowed to zero: any gap passes
        return IHRow(period=k, threshold=thr, slack=slack, status="holds",
                     witness=None, unresolved=())

    witness = None
    unresolved: list = []

    def classify(c: _Cells, _budget: int):
        nonlocal witness
        gabs = np.abs(c.g)
        gaps = np.abs(np.abs(c.lam) - 1.0)
        failing = (gabs + b.ev <= slack) & (gaps + b.ev_lam < thr)
        if np.any(failing):
            idx = np.flatnonzero(failing)
            j = idx[np.argmin(c.mids[idx])]
            witness = _record_at(f, k, c.mids[j], c.halves[j], True, "witness")
            return np.zeros(c.mids.size, dtype=bool), 0
        excluded = gabs > c.spread + slack + b.ev
        hyperbolic = gaps - np.minimum(b.S_lam * c.halves, c.dev) - b.ev_lam >= thr
        live = ~(excluded | hyperbolic)
        floored = live & (2.0 * c.halves <= width_floor)
        unresolved.append((c.mids[floored], c.halves[floored]))
        return live & ~floored, 0

    _, left_mids, left_halves = _refine(f, k, R, b, 256, max_evals, classify)
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


def prop11_check(
    f,
    n_max: int,
    brick=None,
    rho: float = 1.0,
    radius: Optional[float] = None,
    tol: float = 1e-12,
    gap_tol: float = 1e-9,
) -> Prop11Report:
    """Growth constant implied by the census: for each n, the smallest C with
    P_n <= C M^(n N (1+rho)/rho) gamma_n^(-N/rho), i.e.

        C_impl(n) = P_n M^(-n N (1+rho)/rho) gamma_n^(N/rho).

    M is the norm bound m_{1+rho}; when the map has no bounded inverse the
    forward-only bound is substituted and flagged.  Periods whose census
    fails to certify are reported but excluded from the running maximum; a
    gamma_n at or below gap_tol signals a nonhyperbolic periodic point, for
    which the multiplicative bound is vacuous, so the row is flagged as
    inapplicable.
    """
    f = as_perturbed(f)
    if f.dim != 1:
        raise InvalidInputError("prop11_check needs a 1-D map")
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
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
        if value <= gap_tol:
            rows.append(
                Prop11Row(period=n, count=count, gamma_n=float(value), c_impl=None, applicable=False, certified=True)
            )
            continue
        c_impl = count * M ** (-n * N * (1.0 + rho) / rho) * value ** (N / rho)
        rows.append(
            Prop11Row(period=n, count=count, gamma_n=value, c_impl=float(c_impl), applicable=True, certified=True)
        )
    return Prop11Report(rho=rho, m_value=float(M), inverse_unbounded=inverse_unbounded, rows=tuple(rows))
