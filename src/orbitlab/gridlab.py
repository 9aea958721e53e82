"""Grid discretization of orbits and pseudo-trajectory enumeration.

At stage n the continuum picture is coarsened to a lattice (spacing h) fine
enough that grid pseudo-orbits faithfully shadow the periodic points being
counted.  The spacing is driven by the hyperbolicity threshold at that stage:

    gamma_n   = exp(-C n^(1+delta))                (multiplier margin)
    h_n       = (M^(-2n) gamma_n)^(1/rho) / N      (grid spacing)
    slack_n   = N (M + 1) h_n                      (pseudo-orbit tolerance)

with N the dimension and M the norm bound of the map family.  h_n shrinks
stretched-exponentially; the arithmetic is done in log space and a saturation
flag reports when the float range runs out.

The lattice is the integer lattice scaled by h: a point snaps to the nearest
lattice point coordinate-wise.  A period-n pseudo-trajectory is a cyclic
sequence of lattice points where each step lands within `slack` of the image
of the previous point (sup norm).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .census import GrowthParams
from .dynamics import _check_map, _trajectory
from .errors import InvalidInputError, _period, _real
from .lagrange import product_of_distances

__all__ = [
    "StageTolerances",
    "stage_tolerances",
    "snap",
    "cells_per_axis",
    "GridTrajectory",
    "SnapResult",
    "snap_orbit",
    "PseudoOrbitCensus",
    "enumerate_pseudotrajectories",
    "close_return",
    "SimpleClassification",
    "classify_simple",
]

_LOG_MIN = math.log(sys.float_info.min)


@dataclass(frozen=True)
class StageTolerances:
    """Grid spacing and slack for one stage of the discretized census."""

    period: int
    gamma_n: float
    grid_spacing: float
    log_grid_spacing: float
    pseudo_slack: float
    saturated: bool


def stage_tolerances(n: int, dim: int, m_bound: float, growth: GrowthParams) -> StageTolerances:
    """Stage-n tolerances for a dimension-`dim` family with norm bound
    `m_bound` and stretched-exponential profile `growth`.

    Computed in log space; `saturated` flags spacings below the smallest
    normal float (grid_spacing then underflows, log_grid_spacing stays
    exact).
    """
    n = _period(n, name="stage index")
    dim = _period(dim, 1, "dim")
    _real(m_bound, "m_bound", ge=1)
    log_gamma = -growth.C * float(n) ** (1.0 + growth.delta)
    log_h = (log_gamma - 2.0 * n * math.log(m_bound)) / growth.rho - math.log(dim)
    saturated = log_h < _LOG_MIN
    h = math.exp(log_h) if log_h > -745.0 else 0.0
    slack = dim * (m_bound + 1.0) * h
    return StageTolerances(
        period=n,
        gamma_n=math.exp(log_gamma),
        grid_spacing=h,
        log_grid_spacing=log_h,
        pseudo_slack=slack,
        saturated=saturated,
    )


def snap(x, spacing: float):
    """Nearest lattice point of the `spacing`-scaled integer lattice
    (coordinate-wise; exact halves follow round-half-to-even)."""
    _real(spacing, "spacing", gt=0)
    arr = np.asarray(x, dtype=float)
    out = np.rint(arr / spacing) * spacing
    return float(out) if out.ndim == 0 else out


def _half_cells(radius: float, spacing: float, limit: float = math.inf) -> int:
    """floor(radius / spacing + 0.5), the lattice cells on each side of 0
    in [-radius, radius]; InvalidInputError naming `spacing` when that
    quotient is not finite or reaches `limit`."""
    q = float(radius) / float(spacing) + 0.5
    if not q < limit:
        raise InvalidInputError(
            f"spacing {spacing!r} is too fine for radius {radius!r}: {q:.6g} cells on each side of 0"
        )
    return int(math.floor(q))


def cells_per_axis(radius: float, spacing: float) -> int:
    """Number of lattice points per axis inside [-radius, radius]."""
    _real(radius, "radius", gt=0)
    _real(spacing, "spacing", gt=0)
    return 2 * _half_cells(radius, spacing) + 1


@dataclass(frozen=True)
class GridTrajectory:
    """A cyclic sequence of lattice points (integer coordinates, one row per
    stage point)."""

    spacing: float
    cells: np.ndarray  # (n, N) integers

    def __post_init__(self):
        _real(self.spacing, "spacing", gt=0)
        c = np.asarray(self.cells, dtype=np.int64)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[0] < 1:
            raise InvalidInputError("cells must be a nonempty (n, N) integer array")
        object.__setattr__(self, "cells", c)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cells.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self.cells * self.spacing

    def realized_slack(self, f) -> float:
        """max_k | f(x_k) - x_{k+1 mod n} | (sup norm) over the cycle, from
        one `eval_many` call (equal to `evaluate` at each point, bit for bit)."""
        _check_map(f, "GridTrajectory.realized_slack")
        if f.dim != self.dim:
            raise InvalidInputError("trajectory dimension does not match the map")
        pts = self.points
        y = f.eval_many(pts[:, 0] if self.dim == 1 else pts).reshape(pts.shape)
        return float(np.max(np.abs(y - np.roll(pts, -1, axis=0))))


class SnapResult(NamedTuple):
    trajectory: GridTrajectory
    slack: float


def snap_orbit(f, orbit, spacing: float) -> SnapResult:
    """Snap one period of an orbit to the lattice and measure the slack the
    snapped cycle realizes under f.

    `orbit` is an OrbitSegment or an array of points covering one period
    (the initial point not repeated at the end).
    """
    pts = _trajectory(orbit)
    _real(spacing, "spacing", gt=0)
    cells = np.rint(pts / spacing).astype(np.int64)
    traj = GridTrajectory(spacing=spacing, cells=cells)
    return SnapResult(trajectory=traj, slack=traj.realized_slack(f))


# -- enumeration --------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoOrbitCensus:
    """Count of admissible length-n grid tuples out of a fixed starting cell."""

    period: int
    spacing: float
    slack: float
    radius: float
    start: object
    count: int
    expansions: int
    partial: bool
    samples: tuple


def _start_cell(start, spacing: float, dim: int):
    """Normalize `start` to lattice coordinates: integers index cells
    directly, floats are points snapped to the nearest cell."""
    arr = np.asarray(start)
    if dim == 1:
        if arr.shape not in ((), (1,)):
            raise InvalidInputError("start must be a scalar for a 1-D map")
    elif arr.shape != (dim,):
        raise InvalidInputError(f"start must have {dim} coordinates")
    if arr.dtype.kind in "iu":
        cells = np.atleast_1d(arr).astype(np.int64)
    elif arr.dtype.kind == "f":
        cells = np.rint(np.atleast_1d(arr) / spacing).astype(np.int64)
    else:
        raise InvalidInputError("start must be numeric")
    if dim == 1:
        return int(cells[0])
    return tuple(int(c) for c in cells)


_INT64_MAX = 2**63 - 1
_MAX_INDEX = 2**62  # lattice cells on each side of 0, with room for float rounding
# Successor cells one layer may list: _expand and _merge_cells hold about
# 8 (2N + 6) bytes a listed cell at once, so 2^24 cells take up to 1.6 GiB
# in 3-D
_MAX_LISTED = 2**24


def _successor_boxes(f, cells: np.ndarray, spacing: float, slack: float, max_cell: int):
    """The successor boxes (lo, stop) of `cells`, a (k, N) integer array, from
    one batched evaluation of f: per axis, the lattice cells lo <= c < stop
    within `slack` of the cell's image, clipped to +-max_cell (lo = stop = 0
    when the box is empty, as for an image that is not finite); an infinite
    slack gives every cell the full box and needs no evaluation."""
    k, dim = cells.shape
    if math.isinf(slack):
        return np.full((k, dim), -max_cell, np.int64), np.full((k, dim), max_cell + 1, np.int64)
    y = f.eval_many(cells[:, 0] * spacing if dim == 1 else cells * spacing).reshape(k, dim)
    lo = np.maximum(np.ceil((y - slack) / spacing - 1e-12), -max_cell)
    stop = np.minimum(np.floor((y + slack) / spacing + 1e-12), max_cell) + 1
    empty = ~np.all(lo < stop, axis=1)
    lo[empty] = stop[empty] = 0
    return lo.astype(np.int64), stop.astype(np.int64)


def _expand(lo: np.ndarray, stop: np.ndarray, spacing: float):
    """Every cell of the boxes lo <= c < stop, box after box, each box in
    `itertools.product` order (last axis fastest), as an (m, N) int64
    array; and the number of cells in each box.  Boxes of _MAX_LISTED cells
    or more in all do not fit in memory: InvalidInputError names the
    lattice `spacing` and the coarser one at which the boxes would hold
    about _MAX_LISTED cells."""
    width = stop - lo
    total = np.prod(width, axis=1, dtype=float).sum()
    if total >= _MAX_LISTED:
        _real(spacing, "spacing", gt=spacing * (total / _MAX_LISTED) ** (1.0 / lo.shape[1]))
    size = np.prod(width, axis=1)
    rank = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
    cells = np.empty((rank.size, lo.shape[1]), dtype=np.int64)
    for a in range(lo.shape[1] - 1, 0, -1):
        rank, cells[:, a] = np.divmod(rank, np.repeat(width[:, a], size))
        cells[:, a] += np.repeat(lo[:, a], size)
    cells[:, 0] = rank + np.repeat(lo[:, 0], size)
    return cells, size


def _merge_cells(cells: np.ndarray, counts: np.ndarray):
    """The distinct rows of `cells`, in order of first appearance, with the
    sum of `counts` over the equal rows.  Equal rows are grouped by one
    stable sort over the coordinates (`np.lexsort`, last coordinate
    fastest), so the lattice may have any size."""
    order = np.lexsort(cells.T[::-1])
    cols = [np.take(col, order) for col in cells.T]
    head = np.empty(order.size, dtype=bool)
    head[0] = True
    np.not_equal(cols[0][1:], cols[0][:-1], out=head[1:])
    for col in cols[1:]:
        head[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(head)
    sums = np.add.reduceat(np.take(counts, order), starts)
    firsts = np.take(order, starts)  # a group's first row: the sort is stable
    by_appearance = np.argsort(firsts)
    return np.take(cells, np.take(firsts, by_appearance), axis=0), np.take(sums, by_appearance)


def enumerate_pseudotrajectories(
    f,
    spacing: float,
    slack: float,
    start,
    n: int,
    budget: int = 10_000_000,
    max_samples: int = 4,
) -> PseudoOrbitCensus:
    """Count the admissible length-n grid tuples starting at `start`.

    A tuple (c_0, ..., c_{n-1}) of lattice cells (spacing h, every point
    inside [-R, R]^N for the map's domain radius R) is admissible when
    c_0 = start and each step satisfies |f(c_j h) - c_{j+1} h| <= slack in
    sup norm.  Counting is breadth-first, one layer per step, on arrays: the
    frontier is its distinct cells, in order of first appearance, with the
    number of admissible prefixes that end at each.  Each layer computes the
    successor boxes of its cells not seen before, in frontier order, with
    one batched evaluation of f (`eval_many`, which agrees with `evaluate`
    bit for bit and, for an N-D map, reads its one folded monomial table),
    and keeps each box as its integer corners (lo, stop), an exact record
    of the successor set, for later layers.  The layer then
    lists every successor of every frontier cell in one array (frontier
    order, each box last axis fastest), groups equal cells by one stable
    sort and sums their counts, so the next frontier comes in the order of
    first appearance.  Counts are exact integers: int64 while the layer's
    total provably fits, Python ints beyond; a layer of _MAX_LISTED (2^24)
    successor cells or more, too many to list in memory, raises
    InvalidInputError naming `spacing`, and so does a spacing that puts
    2^62 lattice cells or more on each side of 0.  `budget` caps the box
    computations and is spent in frontier order: when it runs out, the rest
    of the layer's new cells are dropped with their branches, so the
    returned count is a lower bound and `partial` is set.  `start` is a
    lattice cell when given as integers, or a point snapped to the nearest
    cell when given as floats.  An infinite slack admits every cell as a
    successor, which makes the count the full combinatorial one.
    """
    _check_map(f, "enumerate_pseudotrajectories")
    n = _period(n)
    _real(spacing, "spacing", gt=0)
    _real(slack, "slack", ge=0, inf=True)
    budget, max_samples = _period(budget, 0, "budget"), _period(max_samples, 0, "max_samples")
    R = f.domain_radius
    max_cell = _half_cells(R, spacing, _MAX_INDEX)
    N = f.dim
    start = _start_cell(start, spacing, N)
    coords = (start,) if N == 1 else start
    if any(abs(c) > max_cell for c in coords):
        raise InvalidInputError("start lies outside the lattice over the domain")

    index: dict = {}  # expanded cell -> its row in lo and stop
    lo = stop = np.empty((0, N), dtype=np.int64)
    expansions = 0
    partial = False
    cells = np.array([coords], dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    for _ in range(n - 1):
        keys = cells[:, 0].tolist() if N == 1 else list(map(tuple, cells.tolist()))
        at = np.array([index.get(c, -1) for c in keys], dtype=np.int64)
        new = np.flatnonzero(at < 0)
        if new.size > budget - expansions:
            new = new[: budget - expansions]
            partial = True
        if new.size:
            at[new] = np.arange(expansions, expansions + new.size)
            index.update(zip([keys[i] for i in new.tolist()], at[new].tolist()))
            expansions += new.size
            new_lo, new_stop = _successor_boxes(f, cells[new], spacing, slack, max_cell)
            lo, stop = np.concatenate([lo, new_lo]), np.concatenate([stop, new_stop])
        kept = at >= 0
        counts = counts[kept]
        succ, size = _expand(lo[at[kept]], stop[at[kept]], spacing)
        if not succ.size:
            counts = counts[:0]
            break
        if counts.dtype != object and int(counts.max()) * succ.shape[0] > _INT64_MAX:
            counts = counts.astype(object)  # exact beyond int64
        cells, counts = _merge_cells(succ, np.repeat(counts, size))
    count = int(counts.sum())

    def successors(cell):
        i = index.get(cell)
        if i is None:
            return None
        axes = [range(a, b) for a, b in zip(lo[i].tolist(), stop[i].tolist())]
        return axes[0] if N == 1 else itertools.product(*axes)

    return PseudoOrbitCensus(
        period=n,
        spacing=float(spacing),
        slack=float(slack),
        radius=float(R),
        start=start,
        count=count,
        expansions=expansions,
        partial=partial,
        samples=_collect_samples(successors, start, n, max_samples),
    )


def _collect_samples(successors, start, n, max_samples):
    """Up to `max_samples` admissible tuples, depth-first in cell order,
    restricted to the successor sets already computed.  `successors(cell)`
    gives the successors of an expanded cell in order (any iterable), or
    None; `enumerate_pseudotrajectories` passes a lookup into its exact
    successor boxes, whose cells are generated only as the walk reaches
    them, in the order the materialised sets had."""
    if max_samples <= 0:
        return ()
    if n == 1:
        return ((start,),)
    out: list = []
    path = [start]
    walks = [iter(successors(start) or ())]
    while walks and len(out) < max_samples:
        s = next(walks[-1], _DONE)
        if s is _DONE:
            walks.pop()
            path.pop()
        elif len(path) == n - 1:
            out.append(tuple(path) + (s,))
        else:
            path.append(s)
            walks.append(iter(successors(s) or ()))
    return tuple(out)


_DONE = object()


# -- recurrence diagnostics ----------------------------------------------------------


def close_return(trajectory, threshold: float) -> Optional[int]:
    """Smallest k in [1, n-1] with |x_k - x_0| < threshold (sup norm, strict);
    None when the trajectory keeps its distance.  The comparison is strict,
    so threshold 0 never fires."""
    pts = _trajectory(trajectory)
    _real(threshold, "threshold", ge=0, inf=True)
    x0 = pts[0]
    for k in range(1, len(pts)):
        if float(np.max(np.abs(pts[k] - x0))) < threshold:
            return k
    return None


class SimpleClassification(NamedTuple):
    simple: bool
    log_product: float
    log_floor: float


def classify_simple(trajectory, floor: float) -> SimpleClassification:
    """Classify a 1-D trajectory as `simple` when the product of distances
    from its last point to all earlier points stays at or above `floor`
    (comparison done on logarithms to dodge underflow)."""
    _real(floor, "floor", ge=0)
    dp = product_of_distances(trajectory)
    log_floor = math.log(floor) if floor > 0 else -math.inf
    return SimpleClassification(simple=dp.log >= log_floor, log_product=dp.log, log_floor=log_floor)
