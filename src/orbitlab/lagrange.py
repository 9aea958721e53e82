"""Interpolation calculus on trajectory tuples of a 1-D map.

Around an anchor tuple (x_0, ..., x_{n-1}) a polynomial perturbation of
degree < 2n is written in two coordinate systems:

* monomial coefficients eps = (eps_0, ..., eps_{2n-1}),
* Newton-basis coefficients u = (u_0, ..., u_{2n-1}) against the node
  sequence z_j = x_{j mod n}, i.e. phi(x) = sum_k u_k prod_{j<k} (x - z_j).

u_m is the m-th confluent divided difference of phi on (z_0, ..., z_m); the
change of basis is the unit upper-triangular map

    u_m = eps_m + sum_{k>m} eps_k p_{k,m}(z_0, ..., z_m),

where p_{k,m} is the complete homogeneous symmetric sum of degree k-m.  Being
triangular with unit diagonal it preserves volume and inverts by back
substitution.  On top of this kernel sit two explicit orbit surgeries: a
closing correction that turns a length-(n+1) trajectory into a period-n orbit,
and a multiplier correction that moves the derivative of the n-fold
composition off the unit circle without touching the orbit itself.

The element-by-element recurrences run on Python floats: each array is read
once with `tolist()`, and the loops then do the float operations of the
NumPy-indexed loops they replace, in the same order.  A Python float and a
NumPy float64 round the same IEEE double operations alike, so coefficients,
values, derivatives and the row and product of a NearDiagonalError are the
same bit for bit.  These are the triangular solves of `jet_solve`, the
Newton-Horner loop of `jet_eval`, `p_km`, the divided-difference table, and
the point loops of `multijet` and the surgeries.  Whole-row steps stay on
NumPy: the rows of basis products in `jet_solve`, the columns of
`lagrange_matrix`, and the matrix and dot products of `lagrange_map` and
`lagrange_map_inverse`, whose BLAS summation order a Python loop would not
reproduce.  A Python float raises ZeroDivisionError where NumPy returns an
infinity, so every division sits behind a test that its divisor is nonzero.

The coefficient and jet types hold finite numbers only: NaN and infinities
are refused with InvalidInputError, so a solve that overflows raises there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import OrbitSegment, RootProductPerturbation, _check_map, _trajectory
from .errors import (
    CannotPerturbError,
    InvalidInputError,
    NearDiagonalError,
    RecurrenceError,
    _array,
    _period,
    _real,
)

__all__ = [
    "PointTuple",
    "EpsPolynomial",
    "LagrangeCoefficients",
    "MultijetPoint",
    "divided_difference",
    "p_km",
    "lagrange_matrix",
    "lagrange_map",
    "lagrange_map_inverse",
    "jet_eval",
    "jet_solve",
    "multijet",
    "closing_perturbation",
    "hyperbolicity_perturbation",
    "DistanceProduct",
    "product_of_distances",
]

_DIVISION_FLOOR = 1e-250


@dataclass(frozen=True)
class PointTuple:
    """Ordered anchor tuple in the interval; repeats are allowed."""

    points: np.ndarray

    def __post_init__(self):
        pts = _trajectory(self.points, one_d=True, name="anchor point")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def min_gap(self) -> float:
        pts = self.points
        if len(pts) == 1:
            return math.inf
        diffs = np.abs(pts[:, None] - pts[None, :])
        return float(diffs[~np.eye(len(pts), dtype=bool)].min())

    def cyclic_nodes(self) -> np.ndarray:
        """The 2n node sequence z_j = x_{j mod n}."""
        return np.concatenate([self.points, self.points])


@dataclass(frozen=True)
class EpsPolynomial:
    """Monomial coefficients (ascending), length 2n."""

    eps: np.ndarray

    def __post_init__(self):
        e = _array(self.eps, "monomial coefficient").reshape(-1)
        if len(e) == 0 or len(e) % 2 != 0:
            raise InvalidInputError("eps must have even positive length 2n")
        object.__setattr__(self, "eps", e)

    @property
    def n(self) -> int:
        return len(self.eps) // 2


@dataclass(frozen=True)
class LagrangeCoefficients:
    """Newton-basis coefficients against the cyclic nodes of `anchor`."""

    u: np.ndarray
    anchor: PointTuple

    def __post_init__(self):
        u = _array(self.u, "Newton coefficient").reshape(-1)
        if len(u) != 2 * self.anchor.n:
            raise InvalidInputError("u must have length 2n for an n-point anchor")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.anchor.n


@dataclass(frozen=True)
class MultijetPoint:
    """Values and first derivatives over an anchor tuple."""

    anchor: PointTuple
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        v = _array(self.values, "jet value").reshape(-1)
        d = _array(self.derivs, "jet derivative").reshape(-1)
        if len(v) != self.anchor.n or len(d) != self.anchor.n:
            raise InvalidInputError("values/derivs must match the anchor length")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "derivs", d)


# -- divided differences -------------------------------------------------------


def divided_difference(pts: Sequence[float], values: Sequence[float], derivs=None) -> float:
    """Confluent divided difference of order m on m+1 points (repeats allowed).

    `values[i]` is g(pts[i]); where a point occurs twice, `derivs[i]` must
    supply g'(pts[i]) at (at least) one of the two slots.  Points repeated
    more than twice are rejected, and so are two different values, or two
    different derivatives, at one point.  Divided differences are symmetric
    in their arguments, so repeats are grouped adjacently before running the
    standard Newton recursion; a first-order difference on a repeated point
    is the supplied derivative.
    """
    coeffs = _newton_coefficients(pts, values, derivs)
    return float(coeffs[-1])


def _newton_coefficients(pts, values, derivs=None) -> np.ndarray:
    """All confluent Newton coefficients Delta^0 .. Delta^m for the point
    sequence *reordered* so that equal points are adjacent.  Returned in the
    reordered node order (which `divided_difference` does not expose, and
    which permutation symmetry makes irrelevant for the top coefficient).
    The table runs on Python floats."""
    pts = _array(pts, "pts").reshape(-1).tolist()
    values = _array(values, "values").reshape(-1).tolist()
    if len(pts) != len(values):
        raise InvalidInputError("points and values must align")
    m = len(pts)
    if m == 0:
        raise InvalidInputError("a divided difference needs at least one point")
    if derivs is None:
        dvals = [None] * m
    else:
        dvals = list(derivs)
        if len(dvals) != m:
            raise InvalidInputError("derivs must align with points when given")

    # group repeats adjacently, preserving first-appearance order
    seen: dict = {}
    for i, p in enumerate(pts):
        seen.setdefault(p, []).append(i)
    z, table, dz = [], [], []
    for p, idx in seen.items():
        if len(idx) > 2:
            raise InvalidInputError(f"point {p} repeated more than twice")
        if len({values[i] for i in idx}) > 1:
            raise InvalidInputError(f"conflicting values supplied at repeated point {p}")
        given = {float(_real(dvals[i], "an entry of derivs")) for i in idx if dvals[i] is not None}
        if len(given) > 1:
            raise InvalidInputError(f"conflicting derivatives supplied at repeated point {p}")
        d = given.pop() if given else None
        for i in idx:
            z.append(p)
            table.append(values[i])
            dz.append(d)

    out = [table[0]]
    for order_j in range(1, m):
        new = []
        for i in range(m - order_j):
            lo, hi = z[i], z[i + order_j]
            if hi == lo:
                if order_j > 1:
                    raise InvalidInputError("point repeated more than twice")
                if dz[i] is None:
                    raise InvalidInputError(
                        f"derivative required at repeated point {lo}"
                    )
                new.append(dz[i])
            else:
                # hi != lo, so hi - lo is nonzero (or NaN)
                new.append((table[i + 1] - table[i]) / (hi - lo))
        table = new
        out.append(table[0])
    return np.array(out)


def p_km(pts: Sequence[float], k: int) -> float:
    """Complete homogeneous symmetric sum of degree k - m on m+1 points:
    sum over r_0 + ... + r_m = k - m of prod x_j^{r_j}.  Equals the m-th
    divided difference of x^k on the tuple, on or off the diagonal."""
    pts = _array(pts, "pts").reshape(-1).tolist()
    k = _period(k, 0, "k")
    if not pts:
        raise InvalidInputError("p_km needs at least one point")
    m = len(pts) - 1
    if k < m:
        return 0.0
    # h[j] = complete homogeneous sum of the current degree in x_0..x_j,
    # via h_d(x_0..x_j) = h_d(x_0..x_{j-1}) + x_j * h_{d-1}(x_0..x_j),
    # updated in place on Python floats: h[j] still holds degree d - 1
    # when it is read
    h = [1.0] * (m + 1)
    for _ in range(k - m):
        h[0] = pts[0] * h[0]
        for j in range(1, m + 1):
            h[j] = h[j - 1] + pts[j] * h[j]
    return float(h[m])


# -- the triangular change of basis ---------------------------------------------


def lagrange_matrix(anchor: PointTuple) -> np.ndarray:
    """The unit upper-triangular matrix T with u = T eps:
    T[m, k] = p_{k,m}(z_0, ..., z_m) for k > m.

    Built column by column from T[0, k] = z_0 T[0, k-1] and
    T[m, k] = T[m-1, k-1] + z_m T[m, k-1], the recurrence `p_km` runs, with
    the same float operations, so each entry equals p_km's bit for bit."""
    n = anchor.n
    z = anchor.cyclic_nodes()
    size = 2 * n
    T = np.eye(size)
    for k in range(1, size):
        T[0, k] = z[0] * T[0, k - 1]
        T[1:k, k] = T[: k - 1, k - 1] + z[1:k] * T[1:k, k - 1]
    return T


def lagrange_map(eps: EpsPolynomial, anchor: PointTuple) -> LagrangeCoefficients:
    """Monomial -> Newton coefficients over the cyclic nodes of the anchor."""
    if eps.n != anchor.n:
        raise InvalidInputError("eps length 2n must match the anchor")
    T = lagrange_matrix(anchor)
    return LagrangeCoefficients(T @ eps.eps, anchor)


def lagrange_map_inverse(u: LagrangeCoefficients) -> EpsPolynomial:
    """Newton -> monomial coefficients by back substitution (exact inverse of
    `lagrange_map` up to rounding; the map has determinant one)."""
    T = lagrange_matrix(u.anchor)
    size = len(u.u)
    eps = np.zeros(size)
    for m in range(size - 1, -1, -1):
        eps[m] = u.u[m] - T[m, m + 1 :] @ eps[m + 1 :]
    return EpsPolynomial(eps)


# -- jets ------------------------------------------------------------------------


def _newton_value_and_derivative(u: list, nodes: list, x: float):
    """Horner evaluation of sum u_k prod_{j<k}(x - nodes_j) and its
    derivative, on Python floats."""
    b = u[-1]
    db = 0.0
    for k in range(len(u) - 2, -1, -1):
        step = x - nodes[k]
        db = b + step * db
        b = u[k] + step * b
    return b, db


def jet_eval(u: LagrangeCoefficients) -> MultijetPoint:
    """Values and first derivatives of the Newton-form polynomial at the anchor.

    The Newton-Horner loop runs on the Python floats of `u.u` and of the
    anchor (one `tolist()` each), with the operations and order of the
    NumPy-indexed loop, so its results are that loop's bit for bit."""
    pts = u.anchor.points.tolist()
    coeffs = u.u.tolist()
    nodes = pts + pts
    vals, ders = zip(*(_newton_value_and_derivative(coeffs, nodes, x) for x in pts))
    return MultijetPoint(u.anchor, vals, ders)


def jet_solve(anchor: PointTuple, target: MultijetPoint) -> LagrangeCoefficients:
    """Newton coefficients realizing prescribed values and derivatives.

    The system is triangular in the node order: the first n basis functions
    control the values, the next n control the derivatives (the k-th basis
    product vanishes at x_i to second order once k > n + i).  Each step
    divides by a product of anchor differences, so tuples that approach the
    diagonal blow up; a vanishing product raises NearDiagonalError carrying
    the offending product, and quotients that overflow raise
    InvalidInputError through LagrangeCoefficients.

    The basis products are built row by row on NumPy, then read once with
    `tolist()`; the two triangular solves run on Python floats with the
    operations and order of the NumPy-indexed loops, so every coefficient,
    and the row and product of a NearDiagonalError, are theirs bit for bit.
    Every quotient follows the floor test, so no divisor is zero.
    """
    if target.anchor.n != anchor.n:
        raise InvalidInputError("target jet must live over the same anchor length")
    n = anchor.n
    x = anchor.points
    z = anchor.cyclic_nodes()
    size = 2 * n
    scale = max(1.0, float(np.max(np.abs(x))))
    floor = _DIVISION_FLOOR * scale

    # B[k][i] = prod_{j<k} (x_i - z_j) and its derivative in x at x_i, for
    # k < 2n, built by rows and read transposed: B[i][k] once a list
    B = np.empty((size, n))
    dB = np.empty((size, n))
    B[0] = 1.0
    dB[0] = 0.0
    for k in range(size - 1):
        dB[k + 1] = dB[k] * (x - z[k]) + B[k]
        B[k + 1] = B[k] * (x - z[k])
    B, dB = B.T.tolist(), dB.T.tolist()

    u = [0.0] * size
    for i, acc in enumerate(target.values.tolist()):
        div = B[i][i]
        if abs(div) < floor:
            raise NearDiagonalError(
                f"anchor differences collapse at value row {i}", product=div, row=i
            )
        for k in range(i):
            acc -= u[k] * B[i][k]
        u[i] = acc / div
    for i, acc in enumerate(target.derivs.tolist()):
        row = n + i
        div = dB[i][row]
        if abs(div) < floor:
            raise NearDiagonalError(
                f"anchor differences collapse at derivative row {row}",
                product=div,
                row=row,
            )
        for k in range(row):
            acc -= u[k] * dB[i][k]
        u[row] = acc / div
    return LagrangeCoefficients(u, anchor)


def multijet(f, anchor: PointTuple) -> MultijetPoint:
    """Values and derivatives of a 1-D map over the anchor tuple."""
    _check_map(f, "multijet", one_d=True)
    pts = anchor.points.tolist()
    return MultijetPoint(anchor, [f.evaluate(p) for p in pts], [f.derivative(p) for p in pts])


# -- orbit surgeries --------------------------------------------------------------


def _two_diff(a: float, b: float):
    """a - b as an exact double-double pair (head, tail)."""
    s = a - b
    bb = s - a
    err = (a - (s - bb)) - (b + bb)
    return s, err


def closing_perturbation(f, orb: OrbitSegment):
    """Close a length-(n+1) trajectory into a period-n orbit.

    Returns (u, g) where g = f + u * prod_{k<=n-2} (x - x_k) and
    g^n(x_0) = x_0.  The correction vanishes at x_0..x_{n-2}, so the first
    n-1 steps of the trajectory are untouched, and at x_{n-1} it moves the
    image from x_n back to x_0.  A vanishing product of distances (the
    trajectory nearly revisits x_{n-1}) raises RecurrenceError.
    """
    _check_map(f, "closing_perturbation", one_d=True)
    pts = _trajectory(orb, one_d=True, least=2)
    xs = pts.tolist()
    n = len(xs) - 1
    x_last = xs[n - 1]
    roots = tuple(xs[: n - 1])
    denom = 1.0
    for r in roots:
        denom *= x_last - r
    scale = max(1.0, float(np.max(np.abs(pts))))
    if abs(denom) < _DIVISION_FLOOR * scale:
        raise RecurrenceError(
            "trajectory revisits its last interior point; closing correction is singular",
            product=float(denom),
        )
    # compensated numerator: x_0 - x_n carries a rounding tail that matters
    # when the quotient is near a representable value
    num, num_tail = _two_diff(xs[0], xs[n])
    u = num / denom + num_tail / denom
    if u == 0.0:
        return 0.0, f
    g = f.with_term(RootProductPerturbation(u, roots))
    return float(u), g


def hyperbolicity_perturbation(f, orb: OrbitSegment, gamma: float, margin: Optional[float] = None):
    """Move the multiplier of a period-n orbit away from the unit circle.

    The correction v (x - x_{n-1}) prod_{k<=n-2} (x - x_k)^2 vanishes with its
    first derivative at x_0..x_{n-2} and vanishes at x_{n-1}, so the orbit is
    preserved and the multiplier of the n-fold composition depends on v
    affinely:  lambda(v) = P + v A  with  P = prod f'(x_k)  and
    A = prod (x_{n-1} - x_k)^2 * prod_{k<=n-2} f'(x_k).

    Returns (v, g) with the smallest |v| making ||lambda| - 1| exceed gamma
    plus a safety margin (default 10% of gamma); ties prefer positive v.
    If the orbit already clears gamma, v = 0 and g is f unchanged.
    A = 0 (an interior derivative vanishes, or the orbit is degenerate)
    or an A that is not finite (points too far apart) raises
    CannotPerturbError.
    """
    _check_map(f, "hyperbolicity_perturbation", one_d=True)
    _real(gamma, "gamma", gt=0)
    margin = 0.1 * gamma if margin is None else _real(margin, "margin", ge=0)
    pts = _trajectory(orb, one_d=True).tolist()
    n = len(pts)
    x_last = pts[n - 1]
    interior = pts[: n - 1]
    derivs = [f.derivative(p) for p in pts]

    P = 1.0
    for d in derivs:
        P *= d

    # the affine coefficient is checked before the early exit: a degenerate
    # orbit is rejected even when its multiplier already clears gamma
    A = 1.0
    try:
        for r in interior:
            A *= (x_last - r) ** 2
    except OverflowError:  # a float's ** 2 raises where a product would give inf
        A = math.inf
    for d in derivs[: n - 1]:
        A *= d
    if A == 0.0 or not math.isfinite(A):
        raise CannotPerturbError(
            "multiplier does not respond to the correction "
            "(vanishing interior derivative or degenerate orbit)"
        )

    if abs(abs(P) - 1.0) > gamma:
        return 0.0, f

    t = gamma + margin
    # candidate multipliers s*(1 + r*t); the difference to P is assembled as
    # (s - P) + s*r*t so that symmetric candidates give exactly opposite v
    # and ties resolve to the positive one
    candidates = [(1.0, 1.0), (-1.0, 1.0)]
    if t < 1.0:
        candidates += [(1.0, -1.0), (-1.0, -1.0)]
    best_v = None
    for s, r in candidates:
        v = ((s - P) + s * r * t) / A
        if best_v is None or abs(v) < abs(best_v) or (abs(v) == abs(best_v) and v > best_v):
            best_v = v
    roots = (x_last,) + tuple(r for r in interior for _ in range(2))
    g = f.with_term(RootProductPerturbation(best_v, roots))
    return float(best_v), g


# -- recurrence measure ------------------------------------------------------------


class DistanceProduct(NamedTuple):
    """Product of distances from the last point to all earlier ones, plus its
    natural log (safe against underflow; -inf when a factor vanishes)."""

    value: float
    log: float


def product_of_distances(traj) -> DistanceProduct:
    """prod_{k <= n-2} |x_{n-1} - x_k| for a 1-D trajectory of length
    n >= 2 (a PointTuple, an OrbitSegment or GridTrajectory of one column, or
    an array of numbers)."""
    pts = _trajectory(traj, one_d=True, least=2).tolist()
    last = pts[-1]
    value = 1.0
    log_sum = 0.0
    for p in pts[:-1]:
        d = abs(last - p)
        value *= d
        log_sum += math.log(d) if d > 0.0 else -math.inf
    return DistanceProduct(value=value, log=log_sum)
