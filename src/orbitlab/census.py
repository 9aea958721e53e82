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
(read-only, shared by every domain of the radius) that all three start
from, and its orbit tube at every period asked for (at the latest only,
in an experiment's stack).  The tube at period n is the tube at period
n - 1 plus one step, so a later call reads its own period's tube or
extends the one held at the highest period below; the result is bit for
bit the one computed from scratch.  A reused orbit still counts as evaluations, so
budgets and reported evaluations do not depend on what came before.  The
domain also keeps each census's certified enclosures, with their least
periods, and uncertified regions per (tol, budget, period); a census
reads its divisors' from there, or runs them, so its result does not
depend on what came before either.  The memo (dynamics._MEMO) is keyed on
the map object the caller passed, a bare PolynomialMap or a PerturbedMap,
weakly and with no reference back to the map, so an entry goes as soon
as its map does; it assumes a map is not mutated after it is built, as
the 1-D fold already does.  A PerturbedMap's bounds read
its base's triple from the base's own entry, so a base that many maps
share is bounded once per radius.

The census runs on a stack of maps (_Stack): find_periodic and ih_check
are stacks of one, and the experiment's consecutive samples are one stack
(experiment._census_stack: its census at each period, each beside its
ih_check stage), so that one array pass per round serves every map and
the per-call cost is paid once per stack.  Each row of a round carries the column of its
map; the stack evaluates all rows at once from a table of each map's
Horner coefficients (dynamics._horner_parts), with each _Domain constant
one column per map (_Rows), which takes each map's own float operations,
so every map's floats are those of its census alone.  Budgets,
evaluations, records, dom.roots and the memo stay per map; no run, wave,
cluster or deduplicated end joins two maps, and each map's cells keep the
order they have alone.

Orbits of points outside the cell tubes use the cells' two kernels.
Every zero-width point orbit goes through _points: the ends _settle
reads, the records of held roots and of candidates, and ih_check's
witness candidates, all maps' together.  It traces up to _SCALAR_POINTS
points on floats, one at a time (_tubes_at), and more on the rows of the
stack (_tube_many); _newton's steps, which trace a point and its box,
take the same two kernels by the same size rule.  A 1-D map's evaluate
and the rows' evaluation perform the same float operations in the same
order, so the choice never changes a value.  The held-run test follows
the same size rule, with the same results.

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

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (_bounds, _check_map, _horner_parts, _memo, _on_grid, _table, certified_range_1d,
                       invariant_radius, norm_bounds)
from .errors import UncertifiedCensusError, _period, _real
from .perturbation import _horner, _horner_many

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
#   tube step (point orbits: _settle's ends, held roots' and candidates'
#     records, witness candidates; _newton's steps): an eval_many step
#     costs about 14 us, a scalar step 0.7 us a point (degree 9, with and
#     without a root-product term): they cross at 20-24 points;
#   held-run test (_held_runs): the arrays take 25-30 us a call, the floats
#     5-11 us at 1-8 intervals: they cross at 16-20 intervals against 2,000
#     known enclosures and at 32-40 against 16.
# One limit serves every site: most sets a census meets hold 1-8 elements
# or hundreds and more, which every limit from 16 to 40 sends the same way;
# the few in between lose at most a few us on the slower path; and the
# tests force every use down one path by setting this one value.  A stack
# of maps pools its sets, so stacked censuses take the arrays more often.
# Each side carries benchmark traffic at each site: one seed-42 pass of
# mc_a9 (stacks of 25 samples) takes the arrays at 14 _held_runs, 4
# _newton and 18 point-orbit (_points) calls and the floats at 0, 0 and 2
# (32, 20 and 90 in stacks of 5); a warm pass of census_ladder the arrays
# at 7 _held_runs, 4 _newton and 9 _points calls and the floats at 19, 1
# and 22.
_SCALAR_POINTS = 16

# Cells of the initial grid of [-R, R] that every _refine caller starts from
_GRID_CELLS = 1024

# The default budgets of find_periodic and of each stage of ih_check, which
# the experiment's stacked censuses and stages take too
_CENSUS_BUDGET = 3_000_000
_IH_BUDGET = 400_000


class _Domain(NamedTuple):
    """The certified model of f on [-R, R], one per map and radius in the
    map's memo (_domain): the constants that do not depend on the period,
    the initial grid of _refine and the grid's orbit tubes (_grid_tube), and
    what each census keeps for later ones: its roots."""

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
    """The _Domain of f on [-R, R] (_domains, a stack of one)."""
    return _domains([f], R)[0]


def _domains(maps: list, R: float) -> list:
    """The _Domain of each map on [-R, R], built once and kept in the map's
    memo, which it shares with certified_range_1d and the map's bounds.
    sup |f'| comes from a grid, padded by the curvature between grid
    points: one stacked derivative pass (dynamics._on_grid) for the maps
    that lack a domain."""
    memos = [_memo(f) for f in maps]
    todo = [k for k, memo in enumerate(memos) if ("domain", R) not in memo]
    if todo:
        slopes = _on_grid([maps[k] for k in todo], np.linspace(-R, R, 4097), derivative=True)
        slopes = np.abs(slopes, out=slopes).max(axis=1)
        for k, slope in zip(todo, slopes):
            sup, _, D2 = _bounds(maps[k], R)
            D1 = float(slope) + D2 * (2.0 * R / 4096) / 2.0
            memos[k]["domain", R] = _Domain(R=R, D1=D1, D2=D2, step=64.0 * _EPS * max(R, sup, 1.0),
                                            d_slack=64.0 * _EPS * D1, pad=8.0 * _EPS * R, cap=2.0 * R,
                                            grid=_grid(R), tubes={}, roots={})
    return [memo["domain", R] for memo in memos]


@functools.lru_cache(maxsize=16)
def _grid(R: float) -> tuple:
    """The initial grid of [-R, R], (mids, halves) of _GRID_CELLS equal
    cells, read-only, which every domain of radius R shares."""
    edges = np.linspace(-R, R, _GRID_CELLS + 1)
    return _read_only(0.5 * (edges[:-1] + edges[1:]), np.full(_GRID_CELLS, R / _GRID_CELLS))


class _Stack:
    """K 1-D maps whose censuses, or ih_check stages, run as one, each with
    its _Domain.  The stack evaluates rows of many maps in one array pass
    (_Rows), so a round over all maps' cells is one call, where it was one
    per map: each map's fold (the map itself for a bare PolynomialMap) is
    one column of a value and of a derivative Horner table (_table), its
    root-product terms, which stay unfolded, are added after it, as the map
    adds them, and each domain constant is one column of `consts`; the
    parts come from dynamics._horner_parts, kept per map for _tubes_at.
    `grid` is the domains' initial grids end to end, with each cell's map,
    and `tubes` holds the grids' tubes as blocks, the grids themselves at
    period 0.  A stack of one map reads its coefficients, its domain and
    its grid's arrays as they are."""

    def __init__(self, maps, doms):
        self.maps, self.doms = tuple(maps), tuple(doms)
        self.parts = [_horner_parts(f) for f in self.maps]  # (poly, dpoly, terms) per map
        self.poly, self.dpoly = self.parts[0][:2]  # one map's rows read them as they are (_Rows)
        if len(self.maps) > 1:
            self.poly, self.dpoly = (_table([p[j] for p in self.parts]) for j in (0, 1))
            self.consts = np.array([dom[:7] for dom in self.doms]).T  # R, D1, D2, step, d_slack, pad, cap
        self.rest = [(k, p[2]) for k, p in enumerate(self.parts) if p[2]]
        mids, halves = (_blocks([dom.grid[j] for dom in self.doms]) for j in (0, 1))
        self.tubes: dict = {0: (mids, halves, 1.0, 1.0)}  # period -> the grids' tubes as blocks (_grid_tube)
        self.grid = _read_only(mids.reshape(-1), halves.reshape(-1),
                               np.repeat(np.arange(len(self.maps)), _GRID_CELLS))
        self.solo = _Rows(self, None) if len(self.maps) == 1 else None  # the rows of a stack of one
        self.blocks = self.solo or _Rows(self, np.arange(len(self.maps))[:, None])  # one map's grid per block

    def subset(self, which: list) -> "_Stack":
        """The stack of the maps `which` (ascending indices): itself when
        they are all its maps."""
        if len(which) == len(self.maps):
            return self
        return _Stack([self.maps[k] for k in which], [self.doms[k] for k in which])

    def rows(self, mi: np.ndarray) -> "_Rows":
        return self.solo or _Rows(self, mi)


class _Rows:
    """Rows of a _Stack, row i of the map in column mi[i]: a map (eval_many,
    deriv_many) and a _Domain (R, D1, D2, step, d_slack, pad, cap, one per
    row) in one, which _tube_many and _cells take in place of f and dom.
    Each row's floats are its map's own, root-product terms included:
    `_horner_many` reads each row's map's column of _table (or the one
    map's tuple).  With mi a column (G, 1) the rows are blocks: arrays of
    shape (G, cells), row j all of the map mi[j], whose coefficients and
    constants broadcast from one column each, with no per-cell copy.  A
    stack of one map reads its coefficients and its domain's constants as
    they are: Python floats, which NumPy applies fastest."""

    def __init__(self, S: _Stack, mi: Optional[np.ndarray]):
        if len(S.maps) == 1:  # every row is of the one map, and mi is not read
            self.poly, self.dpoly = S.poly, S.dpoly
            self.R, self.D1, self.D2, self.step, self.d_slack, self.pad, self.cap = S.doms[0][:7]
            self.rest = [(slice(None), terms) for _, terms in S.rest]
            return
        self.poly, self.dpoly = S.poly[:, mi], S.dpoly[:, mi]
        self.R, self.D1, self.D2, self.step, self.d_slack, self.pad, self.cap = S.consts[:, mi]
        self.rest = [(np.flatnonzero(mi == k), terms) for k, terms in S.rest]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return self._terms(_horner_many(self.poly, xs), xs, "value_many")

    def deriv_many(self, xs: np.ndarray) -> np.ndarray:
        return self._terms(_horner_many(self.dpoly, xs), xs, "deriv_many")

    def _terms(self, y: np.ndarray, xs: np.ndarray, method: str) -> np.ndarray:
        """y plus each row's map's unfolded terms, in term order, as the map adds them."""
        for at, terms in self.rest:
            for t in terms:
                y[at] += getattr(t, method)(xs[at])
        return y


def _col(values, mi: np.ndarray):
    """Each row's entry of the per-map column `values` (values[mi]); in a
    stack of one map, its one value, a scalar that NumPy broadcasts."""
    return values[0] if len(values) == 1 else np.asarray(values)[mi]


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: calls share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The empty frontier (mids, halves, mi)
_NO_ROWS = _read_only(np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))


def _counts(mi: np.ndarray, K: int, weights: Optional[list] = None) -> list:
    """The number of rows, or the sum of their integer weights, of each of
    the K maps of a stack."""
    if K == 1:
        return [mi.size if weights is None else sum(weights)]
    return np.bincount(mi, weights, minlength=K).astype(np.int64).tolist()


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
    as halves (j, cells) share y and lam.  The inputs are never written:
    each update writes only arrays made in its own step.  f and dom are a
    map and its _Domain, or the _Rows of a stack in both places, whose
    constants are one per cell.
    """
    y = np.asarray(mids, dtype=float)
    r = np.asarray(halves, dtype=float)
    with np.errstate(over="ignore"):
        for _ in range(n):
            d = f.deriv_many(y)
            # np.clip's floats (NaN and -0.0 included), without its wrapper
            y = f.eval_many(y)
            np.maximum(y, -dom.R, out=y)
            np.minimum(y, dom.R, out=y)
            s = dom.D2 * r
            s += np.abs(d)
            s += dom.d_slack
            lam = lam * d
            lam_hi = lam_hi * s
            np.minimum(s, dom.D1, out=s)
            s *= r
            s += dom.step
            r = np.minimum(s, dom.cap, out=s)
    return y, r, lam, lam_hi


def _tubes_at(S: _Stack, pm: list, xs: list, halves: Optional[list], n: int) -> list:
    """The orbit tubes of radius 0 and of radius h (the list halves) of
    each float x of the list xs, of the stack's map in its entry of pm, one
    point at a time: per point (g, bound, lam, dev), g = y - x and bound =
    r + 8 eps R >= |g(x) - g| from the zero-width tube (y, r), lam and dev
    as _cells gives them for the box [x - h, x + h].  Both radii ride the
    same y and lam.  With halves None the box is the zero-width tube
    itself, bit for bit, so it is not traced twice.  The loop performs
    _tube_many's float operations, so it agrees with _tube_many over the
    stacked radii (0, h) bit for bit.  It evaluates each map from its parts
    (S.parts), with the floats of f.evaluate and f.derivative and without
    their call layers, and reads its domain's constants from S.doms."""
    box, out = halves is not None, []
    for k, x, r in zip(pm, xs, halves if box else xs):
        (poly, dpoly, rest), (R, D1, D2, step, d_slack, pad, cap) = S.parts[k], S.doms[k][:7]
        y, r0, lam, lam_hi = x, 0.0, 1.0, 1.0
        for _ in range(n):
            d, e = _horner(dpoly, y), _horner(poly, y)
            for t in rest:
                d += t.derivative(y)
                e += t.value(y)
            s0 = abs(d) + D2 * r0 + d_slack
            y = R if e > R else -R if e < -R else e  # _tube_many's clamp, NaN and -0.0 too
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


def _blocks(arrays: list) -> np.ndarray:
    """The arrays, one per map, as the rows of one block array (a view of
    the one array of a stack of one)."""
    return np.stack(arrays) if len(arrays) > 1 else arrays[0][None]


def _grid_tube(S: _Stack, n: int):
    """The initial grids' tubes at period n >= 1 of the stack's maps, as
    blocks (_Rows) of one map's grid each, in map order, which the stack
    keeps for its later calls.  They are the tubes at the highest period
    k <= n that every domain holds (the grids themselves at k = 0), as they
    are where k = n, else extended by n - k steps in one _tube_many call
    for all maps.  Each domain keeps its row, read-only, unless it holds a
    tube at n of its own.  A step reads only the domain's constants, none
    of which depends on the period, so every row is bit for bit the tube
    computed from scratch, and equals the tube a domain holds at n."""
    if n not in S.tubes:
        k = max((j for j in S.doms[0].tubes if j <= n and all(j in dom.tubes for dom in S.doms)), default=0)
        base = S.tubes.get(k) or tuple(_blocks(parts) for parts in zip(*(dom.tubes[k] for dom in S.doms)))
        S.tubes[n] = base if k == n else _tube_many(S.blocks, *base[:2], n - k, S.blocks, *base[2:])
        for dom, *rows in zip(S.doms, *S.tubes[n]):
            dom.tubes.setdefault(n, _read_only(*rows))
    return S.tubes[n]


class _Cells(NamedTuple):
    """One round of live cells and what their orbit tubes prove, float
    error included: for every x in [mid - half, mid + half],
    g(x) = f^n(x) - x satisfies |g(x) - g| <= spread, and
    |(f^n)'(x) - lam| <= dev, dev = _dev(lam, lam_hi, n), which a
    classification computes only on the few cells it asks for (devs)."""

    mids: np.ndarray
    halves: np.ndarray
    g: np.ndarray
    spread: np.ndarray
    lam: np.ndarray
    lam_hi: np.ndarray
    n: int

    @property
    def dev(self) -> np.ndarray:
        return _dev(self.lam, self.lam_hi, self.n)

    def devs(self, idx: np.ndarray) -> np.ndarray:
        """dev on the cells idx."""
        return _dev(self.lam[idx], self.lam_hi[idx], self.n)


def _cells(mids: np.ndarray, halves: np.ndarray, n: int, dom: _Domain, tube) -> _Cells:
    """The _Cells of (mids, halves) from their tube (y, r, lam, lam_hi) at
    period n: spread = r + half + 8 eps R, r holding the orbit's rounding and
    8 eps R the subtraction g = y - m; dev = lam_hi (1 + (8n + 4) eps) - |lam|,
    as lam and lam_hi (n rounded factors each, |lam| <= lam_hi) are within a
    relative 2n eps of exact, and the subtractions that read dev round too."""
    y, r, lam, lam_hi = tube
    spread = r + halves
    spread += dom.pad
    return _Cells(mids=mids, halves=halves, g=y - mids, spread=spread, lam=lam, lam_hi=lam_hi, n=n)


def _refine(S: _Stack, n: int, max_evaluations: int, classify):
    """Certify-or-refine [-R, R] of every map of the stack, each from its
    domain's initial grid of _GRID_CELLS equal cells, in vectorised rounds
    over all maps' live cells at once, each row with its map's column mi.

    Each round runs the orbit tube over the live cells (the first round
    takes the grids' tubes from the domains, so every caller at the same
    period shares them) and calls `classify(cells, mi, budgets)`, which
    records whatever it decides and returns the mask of the cells still
    undecided plus the evaluations each map spent itself (a list), at most
    its entry of `budgets`; the undecided cells are bisected.  An evaluation
    is one n-step orbit of one point.  Each map keeps its own count: its
    rounds end when its frontier runs out or its next round would exceed
    `max_evaluations`, and its cells keep the order they would have alone.
    Returns each map's evaluations and the frontier (mids, halves, mi) left
    by the maps whose budget stopped them.
    """
    K = len(S.maps)
    mids, halves, mi = S.grid
    size = [_GRID_CELLS] * K  # each map's live cells
    evaluations = [0] * K
    stopped: list = []  # (mids, halves, mi) of the maps their budgets stopped
    first = True
    while mi.size:
        over = [e + c > max_evaluations for e, c in zip(evaluations, size)]
        if any(over):  # all maps or none in the first round: each starts with a full grid
            out = np.array(over)[mi]
            stopped.append((mids[out], halves[out], mi[out]))
            mids, halves, mi = mids[~out], halves[~out], mi[~out]
            size = [0 if o else c for o, c in zip(over, size)]
            if not mi.size:
                break
        if first:  # the grids' tubes, as blocks of one map's cells each
            grid = (K, _GRID_CELLS)
            cells = _cells(mids.reshape(grid), halves.reshape(grid), n, S.blocks, _grid_tube(S, n))
            cells = _Cells(*(a.reshape(-1) for a in cells[:6]), n)
            first = False
        else:
            rows = S.rows(mi)
            cells = _cells(mids, halves, n, rows, _tube_many(rows, mids, halves, n, rows))
        evaluations = [e + c for e, c in zip(evaluations, size)]
        live, spent = classify(cells, mi, [max_evaluations - e for e in evaluations])
        evaluations = [e + p for e, p in zip(evaluations, spent)]
        if not live.any():
            break
        m, q, mi = mids[live], halves[live] / 2.0, mi[live]
        mids = np.concatenate([m - q, m + q])
        halves = np.concatenate([q, q])
        size = [2 * c for c in _counts(mi, K)]
        mi = np.concatenate([mi, mi])
    return evaluations, tuple(np.concatenate(parts) for parts in zip(*stopped)) if stopped else _NO_ROWS


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
    max_evaluations: int = _CENSUS_BUDGET,
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
    max_evaluations.  The map must not be mutated after it is built.  The
    census runs as a stack of one map (_census), the code that censuses a
    stack of an experiment's samples at once.
    """
    _check_map(f, "find_periodic", one_d=True)
    n = _period(n)
    _real(tol, "tol", gt=0, lt=1)
    max_evaluations = _period(max_evaluations, 0, "max_evaluations")
    return _census(_Stack([f], [_domain(f, _resolve_radius(f, radius))]), n, tol, max_evaluations)[0]


def _census(S: _Stack, n: int, tol: float, max_evaluations: int) -> list:
    """find_periodic on each map of the stack, on its domain, all maps'
    rounds and Newton steps in one array pass each; one CensusResult per
    map, equal to the map's own census.  The censuses at the proper
    divisors d of n, with the same tol and budget, run first (as a stack
    of the maps whose dom.roots does not hold them yet), and each map keeps
    its own there: its certified rows (location, halfwidth, least_period)
    and its uncertified regions.  Budgets, evaluations and records are per
    map, and no run, wave or cluster joins two maps."""
    K = len(S.maps)
    for d in _proper_divisors(n):
        todo = [k for k, dom in enumerate(S.doms) if (tol, max_evaluations, d) not in dom.roots]
        if todo:
            _census(S.subset(todo), d, tol, max_evaluations)
    known = _known(S, n, tol, max_evaluations)

    brackets: list = [np.empty((0, 9))]  # the one-root runs of every round, in order
    bmaps: list = [np.empty(0, dtype=np.intp)]  # the map of each
    held: list = []  # the rows (x, h, least, a, c, map) of the runs that hold a known root (_held_runs)
    finished: list = [_NO_ROWS]  # (mids, halves, mi) of the cells refined down to tol

    def classify(c: _Cells, mi: np.ndarray, budgets: list):
        keep = np.abs(c.g) <= c.spread
        kept = np.flatnonzero(keep)
        d, dev = c.lam[kept] - 1.0, c.devs(kept)
        mono = np.abs(d) > dev  # g' = (f^n)' - 1, enclosed by lam - 1 -+ dev, excludes 0
        idx, d, dev = kept[mono], d[mono], dev[mono]
        m, h = c.mids[idx], c.halves[idx]
        lo, hi, slope, imi = m - h, m + h, np.array([d - dev, d + dev]), mi[idx]
        if idx.size and known is not None:
            inside, runs = _held_runs(lo, hi, slope[0] > 0.0, imi, known)
            if runs:
                held.extend(runs)
                keep[idx[inside]] = False
                rest = ~inside
                idx, lo, hi, slope, imi = idx[rest], lo[rest], hi[rest], slope[:, rest], imi[rest]
        spent = [0] * K
        if idx.size:
            settled, spent, bracketed, bmi = _settle(S, n, imi, lo, hi, slope, budgets)
            brackets.append(bracketed)
            bmaps.append(bmi)
            keep[idx[settled]] = False
        kept = np.flatnonzero(keep)
        done = kept[c.halves[kept] <= tol]
        if done.size:
            finished.append((c.mids[done], c.halves[done], mi[done]))
            keep[done] = False
        return keep, spent

    evaluations, (left_mids, left_halves, left_mi) = _refine(S, n, max_evaluations, classify)
    rows, rmaps = np.concatenate(brackets), np.concatenate(bmaps)
    finished_mids, finished_halves, finished_mi = (np.concatenate(parts) for parts in zip(*finished))

    # the record of each known root takes one orbit, and every bracket's
    # root is enclosed after them, as far as the budget left pays; an unpaid
    # run is reported as it is (the runs are disjoint, so their ends sorted
    # apart stay paired)
    maps_held: list = [[] for _ in range(K)]
    for *fields, k in held:
        maps_held[int(k)].append(fields)
    paid = [maps_held[k][: max_evaluations - evaluations[k]] for k in range(K)]
    g, _, lam, _ = _points(S, n, [k for k in range(K) for _ in paid[k]], [x for p in paid for x, *_ in p])
    orbits = zip(g.tolist(), lam.tolist())
    records = []
    for k in range(K):
        records.append([_record(n, x, h, *next(orbits), True, "simple", int(least))
                        for x, h, least, _, _ in paid[k]])
        evaluations[k] += len(paid[k])
    located, spent = _enclose(S, n, rmaps, rows, tol, [max_evaluations - e for e in evaluations])
    evaluations = [e + p for e, p in zip(evaluations, spent)]
    lefts, ends, paired = (_counts(a, K) for a in (left_mi, finished_mi, rmaps))

    results = []
    for k, dom in enumerate(S.doms):
        evals, uncertified = evaluations[k], []
        if lefts[k]:
            uncertified = _merged([(left_mids[left_mi == k], left_halves[left_mi == k])])
        if located[k]:
            records[k] += [_record(n, *fields, True, "simple", least) for fields, least
                           in zip(located[k], _least_periods(dom, n, tol, max_evaluations, located[k]))]
        if len(paid[k]) < len(maps_held[k]) or len(located[k]) < paired[k]:
            unpaid = np.concatenate([np.reshape(maps_held[k][len(paid[k]) :], (-1, 5))[:, 3:],
                                     rows[rmaps == k][len(located[k]) :, :2]])
            uncertified.extend(_merge_intervals(*np.sort(unpaid.T)))

        # a tangency or a root at the noise floor stops every test on the
        # cells refined to tol: each cluster is reported, with a candidate at
        # its midpoint when the budget pays for that orbit
        clusters = []
        if ends[k]:
            at = finished_mi == k
            clusters = _merged([(finished_mids[at], finished_halves[at])], gap=tol / 2)
        if clusters and len(clusters) <= max_evaluations - evals:
            xs = [0.5 * (lo + hi) for lo, hi in clusters]
            # an orbit whose bound reaches the cap, or whose multiplier bound is
            # not finite, bounds nothing, and gives no record
            records[k].extend(_record(n, x, (hi - lo) / 2.0, g, lam, False, "tangential-candidate")
                              for x, (lo, hi), g, bound, lam, dev
                              in zip(xs, clusters, *(v.tolist() for v in _points(S, n, [k] * len(xs), xs)))
                              if bound < dom.cap and math.isfinite(dev))
            evals += len(xs)
        uncertified.extend(clusters)

        records[k].sort(key=lambda r: r.location)
        proved = [(r.location, r.halfwidth, r.least_period) for r in records[k] if r.certified]
        dom.roots[tol, max_evaluations, n] = (np.array(proved, float).reshape(-1, 3),
                                              np.array(uncertified, float).reshape(-1, 2))
        results.append(CensusResult(period=n, radius=dom.R, records=records[k],
                                    uncertified_regions=uncertified, certified=not uncertified,
                                    evaluations=evals))
    return results


class _Known(NamedTuple):
    """The certified enclosures [x - h, x + h] that a stack's maps know
    (_known), each a root of f^d - id of least period `least` (0: not
    proved): columns of `rows`, by map, then x - h, then x + h."""

    rows: np.ndarray  # x - h, x + h, x, h, least
    off: list  # map k's are the columns off[k]:off[k + 1]
    maps: np.ndarray  # the map of each column


def _known(S: _Stack, n: int, tol: float, max_evaluations: int) -> Optional[_Known]:
    """The certified enclosures of the censuses at the proper divisors of n
    that each map's dom.roots holds (None when no map has any)."""
    divisors = _proper_divisors(n)
    parts = [[dom.roots[tol, max_evaluations, d][0] for d in divisors] for dom in S.doms]
    sizes = [sum(map(len, rows)) for rows in parts]
    if not any(sizes):
        return None
    x, h, least = np.concatenate([rows for p in parts for rows in p]).T
    lo, hi = x - h, x + h
    maps = np.repeat(np.arange(len(sizes)), sizes)
    rows = np.array([lo, hi, x, h, least])[:, np.lexsort((hi, lo, maps))]
    return _Known(rows=rows, off=[0, *itertools.accumulate(sizes)], maps=maps)


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


def _runs(lo: np.ndarray, hi: np.ndarray, up: np.ndarray, mi: np.ndarray,
          joinable: Optional[np.ndarray] = None):
    """Group the intervals [lo, hi], on each of which g of the map in
    column mi is strictly monotone (rising where up), into runs: in the
    order of the map, then of lo, two neighbours join when they are of one
    map, share an end exactly, rise or fall alike and, where `joinable` is
    given, it holds for the first of them (at the end they share).  g is
    strictly monotone on the union of a run.  Returns that order, the
    places along it where the runs start, and each interval's run, the runs
    numbered in that order."""
    order = np.lexsort((lo, mi))  # stable: each map's intervals as a stable sort of lo alone
    a, c = order[:-1], order[1:]
    join = (hi[a] == lo[c]) & (up[a] == up[c]) & (mi[a] == mi[c])
    if joinable is not None:
        join &= joinable[a]
    starts = np.concatenate([[True], ~join])
    run = np.empty(lo.size, dtype=np.intp)
    run[order] = np.cumsum(starts) - 1
    return order, np.flatnonzero(starts), run


def _held_runs(lo: np.ndarray, hi: np.ndarray, up: np.ndarray, mi: np.ndarray, known: _Known):
    """The runs (_runs) of the intervals [lo, hi] that hold a known root:
    a run whose interior holds the enclosure of a known root of its map
    (from _known) has that root and no other, with no end value read.  The
    first enclosure of its map that starts inside a run is tried.  A float
    end of an enclosure lies inside the run only when its exact end does, as
    rounding is monotone.  Returns the mask of the intervals in such runs
    and one row [x, h, least, a, c, map] per run [a, c], by map, then a.

    Up to _SCALAR_POINTS intervals are grouped on floats, one run at a
    time, each run bisecting its map's part of the row known.rows[0] in
    place (a deep census knows thousands of roots, too many to copy per
    call); more go through _runs on arrays, which look every run up at once
    by map and start.  Both take the same order (a stable sort by map, then
    lo), joins, lookup (bisect_right is searchsorted's side="right") and
    comparisons, so they give the same mask and rows."""
    rows, off, maps = known
    if lo.size > _SCALAR_POINTS:
        order, cuts, run = _runs(lo, hi, up, mi)
        first = order[cuts]
        a, c, m = lo[first], hi[order[np.append(cuts[1:], lo.size) - 1]], mi[first]
        # NumPy orders complex numbers by real, then imaginary part: k + x i by map, then x
        key, at = np.empty(maps.size, dtype=complex), np.empty(a.size, dtype=complex)
        key.real, key.imag, at.real, at.imag = maps, rows[0], m, a
        j = np.minimum(np.searchsorted(key, at, side="right"), key.size - 1)
        holds = (maps[j] == m) & (a < rows[0, j]) & (rows[1, j] < c)
        return holds[run], np.array([rows[2, j], rows[3, j], rows[4, j], a, c, m]).T[holds].tolist()
    los, his, ups, ms, starts = lo.tolist(), hi.tolist(), up.tolist(), mi.tolist(), rows[0]
    order = sorted(range(lo.size), key=lambda i: (ms[i], los[i]))  # stable, as _runs' lexsort
    runs = [[order[0]]] if order else []
    for p, i in zip(order, order[1:]):
        if his[p] == los[i] and ups[p] == ups[i] and ms[p] == ms[i]:
            runs[-1].append(i)
        else:
            runs.append([i])
    inside, found = [False] * lo.size, []
    for run in runs:
        a, c, m = los[run[0]], his[run[-1]], ms[run[0]]
        if off[m] == off[m + 1]:
            continue  # its map knows no root
        j = min(bisect_right(starts, a, off[m], off[m + 1]), off[m + 1] - 1)
        if a < starts[j] and rows[1, j] < c:
            for i in run:
                inside[i] = True
            found.append(rows[2:, j].tolist() + [a, c, float(m)])
    return np.array(inside, dtype=bool), found


def _points(S: _Stack, n: int, pm: list, xs: list):
    """The zero-width tubes of the points xs (floats), each of the map in
    its entry of pm: arrays g, bound, lam, dev as _tubes_at gives them.  Up
    to _SCALAR_POINTS points are traced on floats, in one _tubes_at call;
    more in one _tube_many call at radius 0 on the rows of all their maps,
    whose floats are the same."""
    if len(xs) <= _SCALAR_POINTS:
        return np.array(_tubes_at(S, pm, xs, None, n), dtype=float).reshape(-1, 4).T
    x = np.asarray(xs, dtype=float)
    rows = S.rows(np.asarray(pm))
    y, r, lam, lam_hi = _tube_many(rows, x, np.zeros(x.size), n, rows)
    return y - x, r + rows.pad, lam, _dev(lam, lam_hi, n)


def _settle(S: _Stack, n: int, mi: np.ndarray, lo: np.ndarray, hi: np.ndarray, slope: np.ndarray,
            budgets: list):
    """Settle the intervals [lo, hi] of [-R, R] on which g = f^n - id of
    the map in column mi is proved strictly monotone, with g' in
    [slope[0], slope[1]] (lam - 1 -+ dev of the cells, excluding 0), from
    g at the ends, where |g| clears (exceeds) its own orbit's error bound
    or does not.

    The intervals join into runs (_runs): two join when they are of one
    map, share an end exactly, are monotone in the same direction, and g at
    the shared end does not clear (a root on or near that end).  g is
    strictly monotone on the union, with g' in the hull of the slopes, so a
    run is decided by its two outer ends as an interval is: when both clear,
    opposite signs mean exactly one root, and one sign means none.  The
    value at a joined end is never used for a sign.  No root is located
    here: a one-root run leaves the frontier at once as a bracket row, which
    find_periodic passes to _enclose after the rounds.

    An end shared by two intervals of one map is evaluated once, all ends in
    one zero-width tube pass, whose values _newton's first step reads.
    Nothing of a map is settled when its entry of `budgets` cannot pay for
    its ends.  Returns the mask of the settled intervals, each map's
    evaluations spent (its distinct ends, at most its budget), and the
    brackets, one row per one-root run, in the order of its map's
    intervals, or of its map's runs once two of them join, with the map of
    each."""
    K = len(S.maps)
    # the distinct (map, end) pairs, in order of first appearance (equal
    # floats, -0.0 and 0.0 too, are one end), and each end's place among them
    ends, em = np.concatenate([lo, hi]), np.concatenate([mi, mi])
    index: dict = {}
    at = [index.setdefault(pair, len(index)) for pair in zip(em.tolist(), ends.tolist())]
    pm, xs = (list(v) for v in zip(*index)) if index else ([], [])
    spent = _counts(np.asarray(pm, dtype=np.intp), K)
    pays = [c <= b for c, b in zip(spent, budgets)]
    if not all(pays) and not np.array(pays)[mi].all():
        settled, spent = np.zeros(lo.size, dtype=bool), [0] * K
        sel = np.array(pays)[mi]
        if sel.any():
            settled[sel], spent, brackets, bmi = _settle(S, n, mi[sel], lo[sel], hi[sel], slope[:, sel],
                                                         budgets)
            return settled, spent, brackets, bmi
        return settled, spent, np.empty((0, 9)), np.empty(0, dtype=np.intp)
    if not len(xs):
        return np.zeros(0, dtype=bool), spent, np.empty((0, 9)), np.empty(0, dtype=np.intp)
    g, bound, _, _ = _points(S, n, pm, xs)
    g, bound = g[at], bound[at]
    k = lo.size
    x, clear = ends, np.abs(g) > bound  # the lo ends, then the hi ends
    run = None  # each interval's run, once some intervals join
    if not clear.all():
        order, cuts, joined = _runs(lo, hi, slope[0] > 0.0, mi, ~clear[k:])
        if cuts.size < k:
            # from here on the arrays describe the runs: outer ends, hulls of
            # slopes, in the order of map, then lo
            first, last = order[cuts], order[np.append(cuts[1:], k) - 1]
            slope = np.array([np.minimum.reduceat(slope[0, order], cuts),
                              np.maximum.reduceat(slope[1, order], cuts)])
            mi, run = mi[first], joined
            if K > 1:  # a map none of whose intervals join keeps their order
                alone = np.bincount(mi, minlength=K) == np.bincount(em[:k], minlength=K)
                perm = np.lexsort((np.where(alone[mi], first, 0), mi))
                run = np.empty(perm.size, dtype=np.intp)
                run[perm] = np.arange(perm.size)
                run = run[joined]
                first, last, slope, mi = first[perm], last[perm], slope[:, perm], mi[perm]
            outer = np.concatenate([first, last + k])
            x, g, bound, clear = x[outer], g[outer], bound[outer], clear[outer]
            k = cuts.size
    settled = clear[:k] & clear[k:]
    pending = settled & ((g[:k] > 0) != (g[k:] > 0))
    # rows a, c, g(a), g(c), bound(a), bound(c), t, dl, dh: t g rises, 0 < dl <= (t g)' <= dh
    up = slope[0] > 0.0
    brackets = np.concatenate([x, g, bound, np.where(up, 1.0, -1.0),
                               np.where(up, slope, -slope[::-1]).ravel()]).reshape(9, k)
    return (settled if run is None else settled[run]), spent, brackets[:, pending].T, mi[pending]


def _enclose(S: _Stack, n: int, bmi: np.ndarray, brackets: np.ndarray, tol: float, budgets: list):
    """Enclose the roots of the rows of `brackets` (as _settle gives them,
    each of the map in column bmi) in waves: of each map, the longest prefix
    of its rows left that what is left of its entry of `budgets` pays for
    at _NEWTON_STEPS orbits each goes to one _newton call, with all maps'
    in one, and its actual orbits are charged before the next.  So a root is
    located exactly when taking its map's rows one at a time under that
    rule would locate it, and with the budget to spare all go in one call.
    Returns, per map, the record fields of its located prefix, and each
    map's orbits spent."""
    K = len(S.maps)
    found: list = [[] for _ in range(K)]
    spent = [0] * K
    if not bmi.size:
        return found, spent
    mine = [np.flatnonzero(bmi == k) for k in range(K)]
    while True:
        waves = [mine[k][len(found[k]) : len(found[k]) + (budgets[k] - spent[k]) // _NEWTON_STEPS]
                 for k in range(K)]
        wave = np.concatenate(waves)
        if not wave.size:
            return found, spent
        located, calls = _newton(S, n, bmi[wave], brackets[wave], tol)
        spent = [e + c for e, c in zip(spent, calls)]
        for k, w in enumerate(waves):
            found[k] += located[: w.size]
            located = located[w.size :]


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


def _newton(S: _Stack, n: int, bmi: np.ndarray, brackets: np.ndarray, tol: float):
    """Enclose the root of g = f^n - id in each row (a, c, g(a), g(c),
    bound(a), bound(c), t, dl, dh) of `brackets`, of the map in column bmi:
    _start, then per step one orbit of the enclosure's midpoint at radii
    (0, h) and _contract.  Returns each bracket's record fields (m,
    halfwidth, g, lam) from its last step and each map's orbits computed.
    Brackets step in lockstep on arrays, all maps' at once, while more
    than _SCALAR_POINTS are open, then one at a time on floats."""
    found, taken, step = [None] * len(brackets), [0] * len(brackets), 0
    maps = bmi.tolist()
    if len(brackets) <= _SCALAR_POINTS:
        open_ = [(i, *_start(_pyfloat, *r, S.doms[m].pad), *r[6:])
                 for i, (m, r) in enumerate(zip(maps, brackets.tolist()))]
    else:
        (xl, xh), idx = _start(np, *brackets.T, _col([dom.pad for dom in S.doms], bmi)), np.arange(len(brackets))
        t, dl, dh = brackets[:, 6:].T
        while idx.size > _SCALAR_POINTS:
            step += 1
            m = 0.5 * (xl + xh)
            rows = S.rows(bmi[idx])
            radii = np.stack([np.zeros(m.size), np.maximum(m - xl, xh - m)])  # the point's, the box's
            y, r, lam, lam_hi = _tube_many(rows, m, radii, n, rows)
            g, bound, dev = y - m, r[0] + rows.pad, _dev(lam, lam_hi[1], n)
            xl, xh, stop, hw = _contract(np, xl, xh, m, t, g, bound, lam, dev, dl, dh, rows.pad, tol)
            stop |= step == _NEWTON_STEPS
            if stop.any():
                for i, *fields in zip(*(v[stop].tolist() for v in (idx, m, hw, g, lam))):
                    found[i], taken[i] = tuple(fields), step
                go = ~stop
                idx, xl, xh, t, dl, dh = (v[go] for v in (idx, xl, xh, t, dl, dh))
        open_ = zip(*(v.tolist() for v in (idx, xl, xh, t, dl, dh)))
    for i, x0, x1, s, d0, d1 in open_:
        pad = S.doms[maps[i]].pad
        for k in range(step + 1, _NEWTON_STEPS + 1):
            m = 0.5 * (x0 + x1)
            ((g, bound, lam, dev),) = _tubes_at(S, [maps[i]], [m], [max(m - x0, x1 - m)], n)
            x0, x1, stop, hw = _contract(_pyfloat, x0, x1, m, s, g, bound, lam, dev, d0, d1, pad, tol)
            if stop or k == _NEWTON_STEPS:
                break
        found[i], taken[i] = (m, hw, g, lam), k
    return found, _counts(bmi, len(S.maps), taken)


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

    def classify(c: _Cells, _mi, _budgets):
        keep = np.abs(c.g) <= c.spread + slack
        done = keep & ((c.spread <= slack / 4.0) | (c.halves <= resolution))
        kept.append((c.mids[done], c.halves[done]))
        return keep & ~done, [0]

    _, (left_mids, left_halves, _) = _refine(_Stack([f], [dom]), n, max_evaluations, classify)
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
    max_evaluations_per_period: int = _IH_BUDGET,
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
    which gives the witness's record.  n_max = 0 holds vacuously.  The
    stages run as a stack of one map (_ih_stages).
    """
    _check_map(f, "ih_check", one_d=True)
    n_max = _period(n_max, 0, "n_max")
    max_evaluations_per_period = _period(max_evaluations_per_period, 0, "max_evaluations_per_period")
    dom = _domain(f, _resolve_radius(f, radius))
    (rows,) = _ih_stages(_Stack([f], [dom]), [params], n_max, max_evaluations_per_period)
    return IHReport(params=params, radius=dom.R, rows=tuple(rows))


def _stage(params: GrowthParams, k: int) -> tuple:
    """The threshold gamma_k and the slack gamma_k^(1/rho) of ih_check's
    stage k."""
    thr = params.gamma_n(k)
    return thr, thr ** (1.0 / params.rho)


def _ih_stages(S: _Stack, params: list, n_max: int, max_evals: int, first: Optional[list] = None) -> list:
    """ih_check's stages on each map of the stack, with its own
    GrowthParams, from stage 1 (or the map's entry of `first`) through
    n_max, all maps' stage k in one _ih_one_period; a map stops at its first
    failing stage.  Returns each map's rows.  experiment._census_stack
    runs a map's stages from its first that did not qualify beside its
    censuses, at its final params (see there for the rule)."""
    first = first or [1] * len(S.maps)
    rows: list = [[] for _ in S.maps]
    for k in range(min(first), n_max + 1):
        going = [i for i, mine in enumerate(rows) if first[i] <= k and not (mine and mine[-1].status == "fails")]
        if going:
            thr, slack = (list(v) for v in zip(*(_stage(params[i], k) for i in going)))
            for i, row in zip(going, _ih_one_period(S.subset(going), k, thr, slack, max_evals)[0]):
                rows[i].append(row)
    return rows


def _ih_one_period(S: _Stack, k: int, thr: list, slack: list, max_evals: int) -> tuple:
    """Stage k of ih_check on each map of the stack, with its own threshold
    and slack (floats): one IHRow per map, and per map whether a round left
    its witness candidates unchecked, as its budget could not pay for them."""
    K = len(S.maps)
    gap_floor = [max(t, math.ulp(0.0)) for t in thr]  # a threshold of 0.0 (see ih_check)
    witness: list = [None] * K
    unpaid = [False] * K
    unresolved: list = []  # (mids, halves, mi) of the cells left unresolved

    def classify(c: _Cells, mi: np.ndarray, budgets: list):
        gabs = np.abs(c.g)
        near = np.flatnonzero(~(gabs > c.spread + _col(slack, mi)))  # not excluded; the rest are
        mn, gaps = mi[near], np.abs(np.abs(c.lam[near]) - 1.0)
        # a witness midpoint is read from its zero-width orbit, which gives its record
        cand = near[(gabs[near] <= _col(slack, mn)) & (gaps < _col(thr, mn))]
        spent, failed = [0] * K, []
        if cand.size:
            counts = _counts(mi[cand], K)
            spent = [count if count <= budget else 0 for count, budget in zip(counts, budgets)]
            unpaid[:] = [u or count > budget for u, count, budget in zip(unpaid, counts, budgets)]
            idx = cand[np.array(spent)[mi[cand]] > 0]
            m, wmi = c.mids[idx], mi[idx]
            g, bound, lam, dev = _points(S, k, wmi.tolist(), m.tolist())
            failing = ((np.abs(g) + bound <= _col(slack, wmi))
                       & (np.abs(np.abs(lam) - 1.0) + dev < _col(thr, wmi)))
            for i in np.unique(wmi[failing]).tolist():
                mine = np.flatnonzero(failing & (wmi == i))
                j = mine[np.argmin(m[mine])]
                x, h = m[j].item(), c.halves[idx[j]].item()
                witness[i] = _record(k, x, h, g[j].item(), lam[j].item(), True, "witness")
                failed.append(i)
        # neither excluded nor hyperbolic, of a map with no witness; a cell at
        # the width floor is unresolved
        at = near[~(gaps - c.devs(near) >= _col(gap_floor, mn))]
        if failed:
            at = at[~np.isin(mi[at], failed)]
        floored = at[2.0 * c.halves[at] <= 1e-9 * _col([dom.R for dom in S.doms], mi[at])]
        live = np.zeros(mi.size, dtype=bool)
        live[at] = True
        if floored.size:
            live[floored] = False
            unresolved.append((c.mids[floored], c.halves[floored], mi[floored]))
        return live, spent

    _, left = _refine(S, k, max_evals, classify)
    mids, halves, mi = (np.concatenate(parts) for parts in zip(*unresolved, left)) if unresolved else left
    counts, out = _counts(mi, K), []
    for i in range(K):
        merged = tuple(_merged([(mids[mi == i], halves[mi == i])])) if counts[i] else ()
        status = "fails" if witness[i] is not None else "indeterminate" if merged else "holds"
        out.append(IHRow(period=k, threshold=thr[i], slack=slack[i], status=status,
                         witness=witness[i], unresolved=merged))
    return out, unpaid


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
