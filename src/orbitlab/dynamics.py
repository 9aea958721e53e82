"""Polynomial self-maps of a ball, their orbits, and certified norm data.

Maps are multivariate polynomials R^N -> R^N restricted to the closed ball of
``domain_radius`` (default 1).  A `PerturbedMap` is a base polynomial plus a
stack of perturbation terms, evaluated as one folded polynomial (see
`perturbation._Polynomial`) plus its root-product corrections.  A bare
`PolynomialMap` is the map with no terms; every function of the package
that takes a map evaluates, and memoizes work for, the object it is given.

All certified quantities here are honest one-sided bounds: coefficient sums
bound derivatives from above, grid evaluations plus a Lipschitz term bound
sup-norms, and the inverse-map C1 norm is bounded through the smallest
singular value of the Jacobian on a grid with a curvature correction.  Each
kind of term (a `_Polynomial`, a `RootProductPerturbation`, and a whole
brick through `brick_bounds`) gives its coefficient bounds over a ball as
one triple (sup, d1, d2) from one `bounds(radius)`; a `PerturbedMap` adds
its terms' triples to its base's.  The memo (`_MEMO`) keeps one triple per
map and radius, which certified_range_1d, norm_bounds and the census read,
and one certified range per map and radius, which the ranges of many maps
at one radius fill in one stacked pass (`_ranges`).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidInputError,
    MapDomainError,
    OrbitEscapeError,
    _array,
    _period,
    _real,
)
from .perturbation import (
    BrickSpec,
    PerturbationVector,
    _Polynomial,
    _as_point,
    _as_scalar,
    _horner_many,
    brick_bounds,
    check_admissible,
)

__all__ = [
    "PolynomialMap",
    "RootProductPerturbation",
    "PerturbedMap",
    "OrbitSegment",
    "orbit",
    "cocycle",
    "NormBounds",
    "norm_bounds",
    "certified_range_1d",
    "invariant_radius",
]


class PolynomialMap(_Polynomial):
    """Polynomial map stored as exponent rows (T, N) and coefficient rows
    (T, N), and evaluated as a `_Polynomial`."""

    def __init__(self, dim: int, exponents, coeffs, domain_radius: float = 1.0):
        dim = _period(dim, 1, "dim")
        exponents, coeffs = _array(exponents, "exponents", integer=True), _array(coeffs, "coeffs")
        if exponents.size % dim or exponents.size != coeffs.size:
            raise InvalidInputError(f"exponents and coeffs must be rows of {dim} numbers, as many of each")
        if np.any(exponents < 0):
            raise InvalidInputError("negative exponent")
        _real(domain_radius, "domain_radius", gt=0)
        super().__init__(exponents.reshape(-1, dim), coeffs.reshape(-1, dim))
        self.domain_radius = float(domain_radius)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def univariate(cls, coeffs: Sequence[float], domain_radius: float = 1.0) -> "PolynomialMap":
        """1-D map from ascending coefficients: f(x) = c0 + c1 x + c2 x^2 + ..."""
        coeffs = list(coeffs)
        if not coeffs:
            coeffs = [0.0]
        expo = [[k] for k in range(len(coeffs))]
        return cls(1, expo, [[c] for c in coeffs], domain_radius)

    @classmethod
    def from_terms(cls, dim: int, terms: dict, domain_radius: float = 1.0) -> "PolynomialMap":
        """Map from {alpha tuple: coefficient vector}."""
        dim = _period(dim, 1, "dim")
        acc: dict = {}
        for alpha, vec in terms.items():
            alpha, vec = _array(alpha, "terms", integer=True), _array(vec, "terms")
            if alpha.shape != (dim,) or vec.size != dim:
                raise InvalidInputError(f"terms must map {dim} exponents to {dim} coefficients")
            alpha = tuple(alpha.tolist())
            acc[alpha] = acc.get(alpha, np.zeros(dim)) + vec.reshape(dim)
        if not acc:
            acc[(0,) * dim] = np.zeros(dim)
        alphas = sorted(acc.keys())
        return cls(dim, alphas, [acc[a] for a in alphas], domain_radius)

    @classmethod
    def identity(cls, dim: int, domain_radius: float = 1.0) -> "PolynomialMap":
        return cls.linear(np.eye(_period(dim, 1, "dim")), domain_radius)

    @classmethod
    def linear(cls, matrix, domain_radius: float = 1.0) -> "PolynomialMap":
        matrix = _as_square(matrix)
        dim = matrix.shape[0]
        terms = {}
        for j in range(dim):
            alpha = tuple(1 if i == j else 0 for i in range(dim))
            terms[alpha] = matrix[:, j]
        return cls.from_terms(dim, terms, domain_radius)

    @property
    def degree(self) -> int:
        if len(self.exponents) == 0:
            return 0
        return int(self.exponents.sum(axis=1).max())

    # -- evaluation -------------------------------------------------------------

    evaluate = _Polynomial.value
    eval_many = _Polynomial.value_many

    def with_term(self, term) -> "PerturbedMap":
        """This map plus a perturbation term."""
        return PerturbedMap(self, (term,))

    def __repr__(self):
        return f"PolynomialMap(dim={self.dim}, terms={len(self.exponents)}, degree={self.degree})"


@dataclass(frozen=True)
class RootProductPerturbation:
    """1-D perturbation of the form scale * prod_j (x - roots[j]).

    Roots are listed with multiplicity and evaluated in list order, so a
    caller that divides by the same product reproduces the identical float.
    Evaluation in product form keeps the value exact (a signed zero) at every
    root, which is what makes interpolation-type corrections leave prescribed
    orbit points untouched at machine precision.
    """

    scale: float
    roots: tuple

    def __post_init__(self):
        _real(self.scale, "scale")
        object.__setattr__(self, "roots", tuple(float(_real(r, "an entry of roots")) for r in self.roots))

    # one loop per pair: a number and an array of numbers take the same float
    # operations in the same order, from the start values each caller passes

    def _value(self, x, p):
        for r in self.roots:
            p *= x - r
        return p

    def _derivative(self, x, v, d):
        for r in self.roots:
            d = d * (x - r) + v
            v = v * (x - r)
        return d

    def value(self, x: float) -> float:
        return self._value(x, self.scale)

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self._value(xs, np.full_like(xs, self.scale))

    def derivative(self, x: float) -> float:
        return self._derivative(x, self.scale, 0.0)

    def deriv_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self._derivative(xs, np.full_like(xs, self.scale), np.zeros_like(xs))

    def jac(self, x) -> np.ndarray:
        return np.array([[self.derivative(_as_scalar(x))]])

    def bounds(self, radius: float) -> tuple:
        """(sup, d1, d2): bounds on |value|, |derivative| and |second
        derivative| over the ball, by the product rule over
        |x - r| <= radius + |r|."""
        v, d, dd = abs(self.scale), 0.0, 0.0
        for r in self.roots:
            dd = dd * (radius + abs(r)) + 2.0 * d
            d = d * (radius + abs(r)) + v
            v = v * (radius + abs(r))
        return v, d, dd


class PerturbedMap:
    """Base polynomial map plus an ordered stack of perturbation terms.

    The base and every `PerturbationVector` term are folded into one
    polynomial when the map is built (`_Polynomial.fold`).  A
    `RootProductPerturbation` term, 1-D only, stays unfolded and is added
    after the fold: its product form is exactly zero at its roots, so
    appending it leaves the map's value unchanged there.  A point and a
    batch take the same float operations, so `evaluate` and `eval_many`
    (likewise `derivative` and `deriv_many`, `jac` and `jac_many`) agree bit
    for bit.  Its certified `bounds` are its base's plus its terms', each
    term giving one triple (sup, d1, d2), so a base shared by many maps is
    bounded once per radius.  The census, and the certified ranges of
    certified_range_1d and invariant_radius, evaluate a 1-D map from its
    parts (`_horner_parts`), many maps in one array pass, with these
    methods' floats, not through them: a subclass's eval_many and
    deriv_many are not called there.
    """

    def __init__(self, base: PolynomialMap, perturbation=None):
        if not isinstance(base, PolynomialMap):
            raise InvalidInputError("base must be a PolynomialMap")
        self.base = base
        if perturbation is None:
            terms: tuple = ()
        elif isinstance(perturbation, (list, tuple)):
            terms = tuple(perturbation)
        else:
            terms = (perturbation,)
        for t in terms:
            if isinstance(t, PerturbationVector):
                if t.dim != base.dim:
                    raise InvalidInputError("perturbation dimension mismatch")
            elif isinstance(t, RootProductPerturbation):
                if base.dim != 1:
                    raise InvalidInputError("a root-product term needs a 1-D base map")
            else:
                raise InvalidInputError(
                    "a perturbation term is a PerturbationVector or a RootProductPerturbation"
                )
        self.terms = terms
        vectors = [t for t in terms if isinstance(t, PerturbationVector)]
        self._fold = _Polynomial.fold([base] + vectors)
        self._rest = tuple(t for t in terms if isinstance(t, RootProductPerturbation))

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def domain_radius(self) -> float:
        return self.base.domain_radius

    def with_term(self, term) -> "PerturbedMap":
        """This map plus a term; a 1-D root-product term shares the fold."""
        if not (isinstance(term, RootProductPerturbation) and self.dim == 1):
            return PerturbedMap(self.base, self.terms + (term,))
        new = PerturbedMap.__new__(PerturbedMap)
        new.base, new.terms, new._fold = self.base, self.terms + (term,), self._fold
        new._rest = self._rest + (term,)
        return new

    # the unfolded terms are 1-D, so they take the point as a float

    def evaluate(self, x):
        y = self._fold.value(x)
        for t in self._rest:
            y += t.value(_as_scalar(x))
        return y

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        y = self._fold.value_many(xs)
        for t in self._rest:
            y += t.value_many(xs)
        return y

    def derivative(self, x: float) -> float:
        d = self._fold.derivative(x)
        for t in self._rest:
            d += t.derivative(_as_scalar(x))
        return d

    def deriv_many(self, xs: np.ndarray) -> np.ndarray:
        d = self._fold.deriv_many(xs)
        for t in self._rest:
            d += t.deriv_many(xs)
        return d

    def jac(self, x) -> np.ndarray:
        if self.dim == 1:
            # not self.derivative: a subclass that counts evaluations would
            # count this one twice
            return np.array([[PerturbedMap.derivative(self, x)]])
        return self._fold.jac(x)

    def jac_many(self, xs: np.ndarray) -> np.ndarray:
        """Jacobians at a batch of points, shape (B, dim, dim); row i equals
        jac(xs[i]) bit for bit."""
        if self.dim == 1:
            # as in jac, past a subclass's deriv_many, which may count it
            return PerturbedMap.deriv_many(self, xs).reshape(-1, 1, 1)
        return self._fold.jac_many(xs)

    def bounds(self, radius: float) -> tuple:
        """(sup, d1, d2): the base's triple, read from its memo, plus the
        sum of the terms' triples, component by component in term order."""
        terms = [t.bounds(radius) for t in self.terms]
        return tuple(b + sum(t[i] for t in terms) for i, b in enumerate(_bounds(self.base, radius)))

    def __repr__(self):
        return f"PerturbedMap(base={self.base!r}, terms={len(self.terms)})"


# -- the checks of each kind of input ------------------------------------------


def _check_map(f, name: str, one_d: bool = False):
    """InvalidInputError unless f is a PolynomialMap or a PerturbedMap, of
    dimension 1 when `one_d` (the function `name` needs that)."""
    if not isinstance(f, (PolynomialMap, PerturbedMap)):
        raise InvalidInputError(f"{name} takes a PolynomialMap or a PerturbedMap, not {type(f).__name__}")
    if one_d and f.dim != 1:
        raise InvalidInputError(f"{name} needs a 1-D map")


def _as_square(matrix) -> np.ndarray:
    """A square matrix of finite floats, at least 1 x 1."""
    m = _array(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    return m


def _trajectory(traj, one_d: bool = False, least: int = 1, name: str = "trajectory") -> np.ndarray:
    """The points of a trajectory: the `points` of an OrbitSegment,
    GridTrajectory or PointTuple, or an array of points, one per row (one
    number each when the array is 1-D), read by `_array` as `name`.  An
    (n, N) float array, or with `one_d` the n numbers of its one column;
    InvalidInputError otherwise, or when it has fewer than `least` points."""
    pts = _array(getattr(traj, "points", traj), name)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or (one_d and pts.shape[1] != 1):
        shape = "(n,) or (n, 1)" if one_d else "(n,) or (n, N)"
        raise InvalidInputError(f"expected a trajectory of shape {shape}, got {pts.shape}")
    if len(pts) < least:
        raise InvalidInputError(f"a trajectory of {len(pts)} points, where at least {least} are needed")
    return pts[:, 0] if one_d else pts


# -- orbits -------------------------------------------------------------------


@dataclass
class OrbitSegment:
    """Finite trajectory: points x_0..x_{n-1}, their images, and Jacobians."""

    points: np.ndarray  # (n, N)
    images: np.ndarray  # (n, N)
    jacobians: np.ndarray  # (n, N, N)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def points1d(self) -> np.ndarray:
        if self.dim != 1:
            raise InvalidInputError("points1d is defined for dim 1 only")
        return self.points[:, 0]

    @property
    def images1d(self) -> np.ndarray:
        if self.dim != 1:
            raise InvalidInputError("images1d is defined for dim 1 only")
        return self.images[:, 0]


def orbit(f, x0, n: int, radius: Optional[float] = None) -> OrbitSegment:
    """Iterate f for n steps from x0, checking containment in the domain ball.

    Raises MapDomainError if x0 is already outside, OrbitEscapeError (with
    the index of the first offending iterate) if any image leaves the ball.

    A 1-D map iterates a Python float, as `evaluate` reads a point of shape
    (1,) as one, and its test sqrt(y * y) is the norm of that point, so the
    points, images, escape index and escape point are those of the array
    loop bit for bit; the arrays of points and images are filled once at
    the end.  Either way the Jacobians come from one `jac_many` call.
    """
    _check_map(f, "orbit")
    n = _period(n, name="orbit length")
    radius = f.domain_radius if radius is None else _real(radius, "radius", gt=0)
    edge = radius * (1.0 + 1e-12)
    x = _as_point(x0, f.dim)
    # |x| as np.linalg.norm computes it, without its dispatch
    if math.sqrt(x.dot(x)) > edge:
        raise MapDomainError(f"start point outside the radius-{radius:g} ball", point=x)
    if f.dim == 1:
        seq = [float(x[0])]
        for j in range(n):
            y = f.evaluate(seq[j])
            if math.sqrt(y * y) > edge:
                raise OrbitEscapeError(
                    f"iterate {j + 1} left the radius-{radius:g} ball",
                    escape_index=j + 1,
                    point=np.array([y]),
                )
            seq.append(y)
        pts = np.array(seq[:-1]).reshape(n, 1)
        return OrbitSegment(pts, np.array(seq[1:]).reshape(n, 1), f.jac_many(pts))
    pts = np.empty((n, f.dim))
    imgs = np.empty((n, f.dim))
    for j in range(n):
        pts[j] = x
        img = np.asarray(f.evaluate(x), dtype=float).reshape(f.dim)
        imgs[j] = img
        if math.sqrt(img.dot(img)) > edge:
            raise OrbitEscapeError(
                f"iterate {j + 1} left the radius-{radius:g} ball",
                escape_index=j + 1,
                point=img,
            )
        x = img
    return OrbitSegment(pts, imgs, f.jac_many(pts))


def cocycle(orb: OrbitSegment) -> np.ndarray:
    """Jacobian of the n-fold composition along the orbit:
    jac(x_{n-1}) @ ... @ jac(x_0)."""
    n, dim = orb.points.shape
    M = np.eye(dim)
    for j in range(n):
        M = orb.jacobians[j] @ M
    return M


# -- certified ranges and norm data --------------------------------------------


# Work that depends only on the map, per map object: key -> value.  Keyed
# on the object the caller passed (a PolynomialMap or a PerturbedMap), held
# weakly, and referring back to no map, so an entry goes as soon as its map
# does; it assumes a map is not mutated after it is built.  Each map's
# certified bounds and ranges live here, per radius, and the census keeps its
# _Domain records here too.
_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _memo(f) -> dict:
    return _MEMO.setdefault(f, {})


def _bounds(f, radius: float) -> tuple:
    """f.bounds(radius), the certified (sup, d1, d2) of f over the ball of
    radius `radius`: computed once per map and radius, and kept in the
    map's memo."""
    memo = _memo(f)
    if ("bounds", radius) not in memo:
        memo["bounds", radius] = f.bounds(radius)
    return memo["bounds", radius]


def _horner_parts(f) -> tuple:
    """(poly, dpoly, terms) of a 1-D map, a PolynomialMap or a PerturbedMap:
    f.evaluate(x) is _horner(poly, x) plus t.value(x) for each unfolded
    term t in order, f.derivative(x) likewise with dpoly and t.derivative,
    and eval_many and deriv_many take the same floats point by point.  The
    census evaluates maps from these parts, many maps in one array pass,
    with the maps' own floats."""
    fold = f._fold if isinstance(f, PerturbedMap) else f
    return fold._poly, fold._dpoly, getattr(f, "_rest", ())


def _table(coeffs: list) -> np.ndarray:
    """The (terms, K) table of K Horner coefficient tuples, each padded with
    leading zeros to the longest, which `_horner_many` takes row by row.  A
    leading zero repeats Horner's first step 0.0 x + c: at a finite x the
    running value stays 0.0 exactly, and at an infinite or NaN x it is that
    same NaN either way, so a padded column gives its polynomial's own
    floats."""
    top = max(map(len, coeffs))
    return np.ascontiguousarray(np.array([(0.0,) * (top - len(c)) + tuple(c) for c in coeffs]).T)


def _on_grid(maps: list, xs: np.ndarray, derivative: bool = False) -> np.ndarray:
    """The values (or derivatives) of K 1-D maps at the points xs, shape
    (K, len(xs)), from their parts (`_horner_parts`) in one stacked Horner
    pass over a table of their coefficients (`_table`), each map's
    unfolded terms added after it, as the map adds them: row k is
    maps[k].eval_many(xs) (deriv_many(xs)) bit for bit, but not through
    those methods."""
    parts = [_horner_parts(f) for f in maps]
    j, method = (1, "deriv_many") if derivative else (0, "value_many")
    y = _horner_many(_table([p[j] for p in parts])[:, :, None], np.broadcast_to(xs, (len(maps), len(xs))))
    for row, p in zip(y, parts):
        for t in p[2]:
            row += getattr(t, method)(xs)
    return y


# points of the grid whose extrema certified_range_1d pads
_RANGE_GRID = 2049


@functools.lru_cache(maxsize=16)
def _range_grid(radius: float) -> np.ndarray:
    """The _RANGE_GRID points of [-radius, radius], read-only, which every
    range at that radius reads."""
    xs = np.linspace(-radius, radius, _RANGE_GRID)
    xs.flags.writeable = False
    return xs


def certified_range_1d(f, radius: float):
    """Certified enclosure of f([-radius, radius]) for a 1-D map: the
    extrema on a grid of _RANGE_GRID points padded by the derivative bound
    times half the grid step.  Computed once per map and radius, and kept in
    the map's memo.  The grid's values are read from the map's parts, as
    the census reads them (`_ranges`, a stack of one), so a subclass's
    `eval_many` is not called."""
    _check_map(f, "certified_range_1d", one_d=True)
    return _ranges([f], radius)[0]


def _ranges(maps: list, radius: float) -> list:
    """certified_range_1d of each 1-D map of `maps` at one radius: the
    ranges not yet in the maps' memos come from one stacked pass over the
    shared grid (`_on_grid`), each with its map's floats, and are kept
    there."""
    memos = [_memo(f) for f in maps]
    todo = [k for k, memo in enumerate(memos) if ("range", radius) not in memo]
    if todo:
        _real(radius, "radius", gt=0)
        xs = _range_grid(radius)
        vals = _on_grid([maps[k] for k in todo], xs)
        for k, lo, hi in zip(todo, vals.min(axis=1), vals.max(axis=1)):
            pad = _bounds(maps[k], radius)[1] * (xs[1] - xs[0]) / 2.0
            memos[k]["range", radius] = (float(lo - pad), float(hi + pad))
    return [memo["range", radius] for memo in memos]


_LADDER = (1.0, 1.0625, 1.125, 1.25, 1.5)


def invariant_radius(f, ladder: Sequence[float] = _LADDER) -> Optional[float]:
    """Smallest radius R = domain_radius * factor (factor from `ladder`) with a
    certified f([-R, R]) inside [-R, R]; None when no rung certifies.  Its
    ranges are read from the map's parts (`_invariant_radii`, a stack of
    one), so a subclass's `eval_many` is not called."""
    _check_map(f, "invariant_radius", one_d=True)
    return _invariant_radii([f], ladder)[0]


def _invariant_radii(maps: list, ladder: Sequence[float] = _LADDER) -> list:
    """invariant_radius of each 1-D map of `maps`: the ladder is climbed
    by all maps at once, with one stacked range pass (`_ranges`) per rung
    and radius for the maps still climbing."""
    found: list = [None] * len(maps)
    climbing = range(len(maps))
    for factor in ladder:
        rungs: dict = {}  # R -> the maps still climbing whose rung is [-R, R]
        for k in climbing:
            rungs.setdefault(maps[k].domain_radius * factor, []).append(k)
        climbing = []
        for R, ks in rungs.items():
            for k, (lo, hi) in zip(ks, _ranges([maps[k] for k in ks], R)):
                if lo >= -R and hi <= R:
                    found[k] = R
                else:
                    climbing.append(k)
    return found


@dataclass
class NormBounds:
    """Certified norm data for a perturbed family over a brick.

    m1 bounds the C1 norms of the map and its inverse; m1rho additionally
    dominates the Holder-Jacobian norm and the floor 2^(1/rho).  The inverse
    bound comes from the smallest singular value of the Jacobian on a grid,
    corrected by the curvature bound times the covering radius; it is +inf
    when invertibility cannot be certified.
    """

    m1: float
    m1rho: float
    rho: float
    forward_c0: float = math.nan
    forward_c1: float = math.nan
    forward_c1rho: float = math.nan
    inverse_c1: float = math.nan
    sigma_min_lower: float = math.nan
    grid_points: int = 0


def norm_bounds(
    f: PolynomialMap,
    brick: Optional[BrickSpec] = None,
    rho: float = 1.0,
) -> NormBounds:
    """Bound the uniform C1 / C(1+rho) data of the family {f + eps} over a brick."""
    _check_map(f, "norm_bounds")
    if brick is None:
        brick = BrickSpec.empty()
    _real(rho, "rho", gt=0, le=1)
    cert = check_admissible(brick, f.dim)
    if not cert.condition_a_converges:
        raise ConfigurationError(f"brick series diverges on the ball: {cert.reason}")
    R = f.domain_radius
    b_c0, b_d1, b_d2 = brick_bounds(brick, f.dim, R)
    f_c0, f_d1, f_d2 = _bounds(f, R)
    n_grid = 0
    if f.dim == 1:
        lo, hi = certified_range_1d(f, R)
        # the grid range and the coefficient bound are both certified; keep
        # the tighter of the two (the grid pad would otherwise inflate maps
        # whose sup is attained flatly, e.g. the identity)
        f_c0 = min(max(abs(lo), abs(hi)), f_c0)
        n_grid = _RANGE_GRID

    c0 = f_c0 + b_c0
    d1 = f_d1 + b_d1
    d2 = f_d2 + b_d2
    forward_c1 = max(c0, d1)
    holder = d2 * (2.0 * R) ** (1.0 - rho)
    forward_c1rho = max(forward_c1, holder)

    # inverse C1 bound: worst-case smallest singular value of the Jacobian
    sigma_lo, used = _sigma_min_lower(f, R, d2, b_d1)
    if sigma_lo > 0.0:
        inverse_c1 = max(R, 1.0 / sigma_lo)
    else:
        inverse_c1 = math.inf
    n_grid = max(n_grid, used)

    m1 = max(1.0, forward_c1, inverse_c1)
    m1rho = max(m1, 2.0 ** (1.0 / rho), forward_c1rho)
    return NormBounds(
        m1=m1,
        m1rho=m1rho,
        rho=rho,
        forward_c0=c0,
        forward_c1=forward_c1,
        forward_c1rho=forward_c1rho,
        inverse_c1=inverse_c1,
        sigma_min_lower=sigma_lo,
        grid_points=n_grid,
    )


def _sigma_min_lower(f, R: float, d2_total: float, brick_d1: float):
    """Certified lower bound for min over the ball and the brick of
    sigma_min(d f_eps): grid minimum minus curvature and brick corrections."""
    if f.dim == 1:
        n = 4097
        xs = np.linspace(-R, R, n)
        sig = np.abs(f.deriv_many(xs))
        cover = (xs[1] - xs[0]) / 2.0
        lo = float(sig.min()) - d2_total * cover - brick_d1
        return max(lo, 0.0), n
    per_axis = max(9, int(33 / f.dim) * 2 + 1)
    axes = [np.linspace(-R, R, per_axis)] * f.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= R * (1 + 1e-12)]
    if len(mesh) == 0:
        mesh = np.zeros((1, f.dim))
    sig = float(np.linalg.svd(f.jac_many(mesh), compute_uv=False)[:, -1].min())
    step = 2.0 * R / (per_axis - 1)
    cover = step * math.sqrt(f.dim) / 2.0
    # interior points are covered within `cover`; points near the sphere may be
    # farther from the mesh, so widen the correction by one full step
    lo = sig - d2_total * (cover + step) - brick_d1
    return max(lo, 0.0), len(mesh)
