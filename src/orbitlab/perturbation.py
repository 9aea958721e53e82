"""Graded spaces of homogeneous vector polynomials and random brick sampling.

A degree-k component is a homogeneous polynomial map R^N -> R^N written in
monomial coordinates e_alpha, |alpha| = k.  The scalar product weights each
monomial by the inverse multinomial coefficient,

    <eps_k, zeta_k>_k = sum_{|alpha|=k} multinomial(k, alpha)^-1 <eps_alpha, zeta_alpha>,

which makes the norm invariant under orthogonal changes of variables.  A
brick is a product of degree-wise balls with radii r_k drawn from a family
(factorial, geometric, or an explicit finite list); sampling is uniform in
each ball and degrees are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError, _array, _period, _real

__all__ = [
    "multi_indices",
    "multinomial",
    "nu",
    "weighted_inner",
    "HomogeneousComponent",
    "BrickSpec",
    "AdmissibilityCertificate",
    "check_admissible",
    "sample",
    "zero_vector",
    "PerturbationVector",
    "tail_bound",
]

_INDEX_CACHE: dict = {}


def multi_indices(k: int, dim: int) -> tuple:
    """All exponent tuples alpha with |alpha| = k in `dim` variables,
    in descending lexicographic order (deterministic coordinate order)."""
    k, dim = key = _period(k, 0, "k"), _period(dim, 1, "dim")
    if key not in _INDEX_CACHE:
        if dim == 1:
            out = ((k,),)
        else:
            out = tuple(
                (first,) + rest
                for first in range(k, -1, -1)
                for rest in multi_indices(k - first, dim - 1)
            )
        _INDEX_CACHE[key] = out
    return _INDEX_CACHE[key]


def multinomial(k: int, alpha: Sequence[int]) -> int:
    """k! / prod(alpha_i!), the number of ways to place k items into slots alpha."""
    k = _period(k, 0, "k")
    if not isinstance(alpha, (Sequence, np.ndarray)):
        raise InvalidInputError(f"alpha must be a sequence of integers, not {alpha!r}")
    if sum(_period(a, 0, "an entry of alpha") for a in alpha) != k:
        raise InvalidInputError(f"alpha {alpha} does not sum to {k}")
    out = math.factorial(k)
    for a in alpha:
        out //= math.factorial(a)
    return out


def nu(k: int, dim: int) -> int:
    """Dimension of the space of homogeneous degree-k maps R^dim -> R^dim."""
    k, dim = _period(k, 0, "k"), _period(dim, 1, "dim")
    return dim * math.comb(k + dim - 1, dim - 1)


@dataclass
class HomogeneousComponent:
    """Degree-k homogeneous polynomial map: coefficient rows aligned with
    ``multi_indices(degree, dim)``; each row is the R^dim coefficient vector."""

    degree: int
    dim: int
    coeffs: np.ndarray  # shape (len(multi_indices), dim)

    def __post_init__(self):
        self.coeffs = _array(self.coeffs, "coeffs")
        want = (len(multi_indices(self.degree, self.dim)), self.dim)
        if self.coeffs.shape != want:
            raise InvalidInputError(
                f"degree-{self.degree} component in dimension {self.dim} "
                f"needs coefficients of shape {want}, got {self.coeffs.shape}"
            )

    def __eq__(self, other):
        # the coefficients by value (a PerturbationVector compares its components so)
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.degree, self.dim) == (other.degree, other.dim)
        return same and np.array_equal(self.coeffs, other.coeffs)

    @property
    def alphas(self) -> tuple:
        return multi_indices(self.degree, self.dim)

    def weighted_norm(self) -> float:
        return math.sqrt(weighted_inner(self, self))

    @classmethod
    def zero(cls, degree: int, dim: int) -> "HomogeneousComponent":
        return cls(degree, dim, np.zeros((len(multi_indices(degree, dim)), dim)))


_GRADE_CACHE: dict = {}


def _grade(degree: int, dim: int) -> tuple:
    """(1 / multinomial(degree, alpha), sqrt(multinomial(degree, alpha)))
    over multi_indices(degree, dim): the weights of the scalar product and
    the factors from orthonormal to monomial coordinates, read-only arrays
    cached per (degree, dim) as multi_indices is."""
    key = (degree, dim)
    if key not in _GRADE_CACHE:
        counts = [multinomial(degree, a) for a in multi_indices(degree, dim)]
        weights, factors = np.array([1.0 / c for c in counts]), np.array([math.sqrt(c) for c in counts])
        weights.flags.writeable = factors.flags.writeable = False
        _GRADE_CACHE[key] = weights, factors
    return _GRADE_CACHE[key]


def weighted_inner(a: HomogeneousComponent, b: HomogeneousComponent) -> float:
    """Orthogonally invariant scalar product on one graded component."""
    if a.degree != b.degree or a.dim != b.dim:
        raise InvalidInputError("components live in different graded spaces")
    w = _grade(a.degree, a.dim)[0]
    return float((w * (a.coeffs * b.coeffs).sum(axis=1)).sum())


@dataclass(frozen=True)
class BrickSpec:
    """Product of degree-wise balls: degree k gets radius ``sizes[k]``.

    ``family`` is one of "factorial" (tau/k!), "geometric" (tau*q^k, q < 1)
    or "custom" (explicit finite list).  ``truncation_degree`` is the largest
    degree realized; everything above it is quantified by `tail_bound`.
    """

    family: str
    sizes: tuple
    truncation_degree: int
    tau: Optional[float] = None
    q: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("factorial", "geometric", "custom"):
            raise InvalidInputError(f"unknown brick family {self.family!r}")
        degree = _period(self.truncation_degree, -1, "truncation_degree")  # -1: empty()
        object.__setattr__(self, "truncation_degree", degree)
        sizes = tuple(float(_real(s, "an entry of sizes", gt=0)) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) != self.truncation_degree + 1:
            raise InvalidInputError("sizes must list radii for degrees 0..truncation_degree")
        if any(sizes[i + 1] > sizes[i] * (1 + 1e-12) for i in range(len(sizes) - 1)):
            raise InvalidInputError("brick radii must be nonincreasing")

    @classmethod
    def factorial(cls, tau: float, truncation_degree: int) -> "BrickSpec":
        _real(tau, "tau", gt=0)
        truncation_degree = _period(truncation_degree, 0, "truncation_degree")
        sizes = tuple(tau / math.factorial(k) for k in range(truncation_degree + 1))
        return cls("factorial", sizes, truncation_degree, tau=tau)

    @classmethod
    def geometric(cls, tau: float, q: float, truncation_degree: int) -> "BrickSpec":
        _real(tau, "tau", gt=0)
        _real(q, "q", gt=0, lt=1)
        truncation_degree = _period(truncation_degree, 0, "truncation_degree")
        sizes = tuple(tau * q**k for k in range(truncation_degree + 1))
        return cls("geometric", sizes, truncation_degree, tau=tau, q=q)

    @classmethod
    def custom(cls, sizes: Sequence[float]) -> "BrickSpec":
        sizes = tuple(sizes)
        if not sizes:
            raise InvalidInputError("custom brick needs at least one radius; see empty()")
        return cls("custom", sizes, len(sizes) - 1)

    @classmethod
    def empty(cls) -> "BrickSpec":
        """Brick with no degrees at all (the unperturbed family)."""
        return cls("custom", (), -1)

    def to_record(self) -> dict:
        rec = {
            "family": self.family,
            "truncation_degree": self.truncation_degree,
            "sizes": list(self.sizes),
        }
        if self.tau is not None:
            rec["tau"] = self.tau
        if self.q is not None:
            rec["q"] = self.q
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "BrickSpec":
        """The brick of a record as to_record writes it; ConfigurationError
        names what is wrong with one that is not: a record that is not an
        object, a key to_record does not write, or a missing key."""
        if not isinstance(rec, dict):
            raise ConfigurationError(f"a brick record must be an object, not {rec!r}")
        extra = set(rec) - {"family", "truncation_degree", "sizes", "tau", "q"}
        if extra:
            raise ConfigurationError(f"unknown brick record keys: {sorted(extra)}")
        if "family" not in rec:
            raise ConfigurationError("the brick record lacks 'family'")
        needs = {"factorial": ("tau", "truncation_degree"), "geometric": ("tau", "q", "truncation_degree"),
                 "custom": ()}
        family = rec["family"]
        if family not in tuple(needs):  # compared, not hashed: it may be any JSON value
            raise ConfigurationError(f"unknown brick family {family!r}")
        for key in needs[family]:
            if key not in rec:
                raise ConfigurationError(f"the {family} brick record lacks {key!r}")
        if family == "factorial":
            return cls.factorial(rec["tau"], rec["truncation_degree"])
        if family == "geometric":
            return cls.geometric(rec["tau"], rec["q"], rec["truncation_degree"])
        sizes = rec.get("sizes", [])
        if not isinstance(sizes, list):
            raise ConfigurationError(f"the custom brick record's sizes must be a list, not {sizes!r}")
        if not sizes:
            return cls.empty()
        return cls.custom(sizes)


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Outcome of the symbolic admissibility check for a radius family.

    ``status`` is "admissible" for the catalog families (their radii decay
    slower than exp(-C k^(1+delta)) for every C, delta > 0, so the brick keeps
    full measure-theoretic weight at all stretched-exponential scales) and
    "finite-prefix-only" for custom lists, where the tail property is not
    decidable from a prefix.  ``condition_a_converges`` reports whether
    sum_k r_k dim^(k/2) converges, which controls uniform convergence of the
    perturbation series on the unit ball.
    """

    status: str
    admissible: Optional[bool]
    condition_a_converges: bool
    reason: str


def check_admissible(brick: BrickSpec, dim: int = 1) -> AdmissibilityCertificate:
    """Certify a brick family: catalog families are admissible outright,
    custom lists only as finite prefixes."""
    root = math.sqrt(_period(dim, 1, "dim"))
    if brick.family == "factorial" or (brick.family == "custom" and brick.truncation_degree < 0):
        return AdmissibilityCertificate(
            status="admissible" if brick.family == "factorial" else "finite-prefix-only",
            admissible=True if brick.family == "factorial" else None,
            condition_a_converges=True,
            reason="log(k!) grows like k log k, slower than C k^(1+delta); "
            "sum tau/k! dim^(k/2) converges by ratio test"
            if brick.family == "factorial"
            else "empty brick",
        )
    if brick.family == "geometric":
        converges = brick.q * root < 1
        return AdmissibilityCertificate(
            status="admissible",
            admissible=True,
            condition_a_converges=converges,
            reason="-k log q grows linearly, slower than C k^(1+delta); "
            + (
                "q sqrt(dim) < 1 so the series converges"
                if converges
                else "q sqrt(dim) >= 1 so the series diverges"
            ),
        )
    return AdmissibilityCertificate(
        status="finite-prefix-only",
        admissible=None,
        condition_a_converges=True,
        reason="tail behaviour is not decidable from a finite radius list",
    )


# -- generic polynomial evaluation and bounds (shared with the dynamics layer) --


def _univariate(exponents: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficient vector of sum_t coeffs[t] x^exponents[t]: the
    coefficients of each exponent added to 0.0 in row order."""
    uni = np.bincount(exponents, weights=coeffs, minlength=1)
    return uni.astype(float, copy=False)  # without rows, bincount counts in integers


def _horner_form(uni) -> tuple:
    """(value, derivative) coefficient tuples of the ascending vector `uni`,
    as Python floats in Horner order (highest degree first).  The derivative
    coefficients are k * c_k, exactly as numpy's polyder forms them."""
    uni = uni.tolist()
    value = tuple(reversed(uni))
    deriv = tuple(k * uni[k] for k in range(len(uni) - 1, 0, -1))
    return value, deriv or (0.0,)


def _as_scalar(x) -> float:
    """A point of a 1-D map as a float: a real number, or an array of shape
    () or (1,).  Python floats take the fast path."""
    if type(x) is float:
        return x
    arr = _array(x, "point")
    if arr.shape not in ((), (1,)):
        raise InvalidInputError(f"expected a scalar or a point of shape (1,), got shape {arr.shape}")
    return arr.item()


def _as_point(x, dim: int) -> np.ndarray:
    """A point of an N-D map as a finite float array of shape (dim,)."""
    arr = _array(x, "point")
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (dim,):
        raise InvalidInputError(f"expected a point of shape ({dim},), got {arr.shape}")
    return arr


def _horner(coeffs: tuple, x: float) -> float:
    """Horner's rule at one float x, coefficients highest degree first.

    Starting from 0.0 makes the first step x*0 + c_top, as in numpy's
    polyval, so signed zeros and non-finite x come out as they do there."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _horner_many(coeffs: tuple, xs: np.ndarray) -> np.ndarray:
    """`_horner` over a float array, in place on one new array: the same
    IEEE operations in the same order, so each entry equals the scalar
    result bit for bit.  `coeffs` may also be the rows of a table
    (dynamics._table), each broadcasting against xs: each entry then takes
    its own column's polynomial."""
    y = np.zeros(xs.shape)
    for c in coeffs:
        y *= xs
        y += c
    return y


class _MonomialTable:
    """The map x -> sum_t coeffs[t] * x^exponents[t] from R^N to R^N.

    One point and a batch of points are evaluated by the same code, which
    reduces over each axis in one fixed order: powers by repeated
    multiplication, each monomial as the product over the variables in
    order, and each output's sum over the terms along one contiguous row,
    whose order of additions depends only on the number of terms (not a
    matrix product, whose BLAS kernel differs between one point and a
    batch).  So the value and the Jacobian at each row of a batch equal
    those at that point alone bit for bit.  The Jacobian's table is built on
    the first `jac`."""

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray):
        self.exponents = exponents
        self.coeffs = coeffs
        self._top = int(exponents.max(initial=0))
        # x_j^e sits at j * (top + 1) + e of the flattened power table;
        # tables are laid out variable by term and output by term
        self._offsets = np.arange(exponents.shape[1])[:, None] * (self._top + 1)
        self._at = exponents.T + self._offsets
        self._weights = np.ascontiguousarray(coeffs.T)
        self._jac_table = None

    def _powers(self, x: np.ndarray) -> np.ndarray:
        powers = np.empty(x.shape + (self._top + 1,))  # x_j^e for e = 0..top
        powers[..., 0] = 1.0
        powers[..., 1:] = x[..., None]
        np.multiply.accumulate(powers, axis=-1, out=powers)
        return powers.reshape(x.shape[:-1] + (-1,))

    @staticmethod
    def _sum(powers: np.ndarray, at: np.ndarray, weights: np.ndarray) -> np.ndarray:
        monomials = np.multiply.reduce(powers.take(at, axis=-1), axis=-2)
        return (monomials[..., None, :] * weights).sum(axis=-1)

    def value(self, x: np.ndarray) -> np.ndarray:
        """The value at a float point of shape (N,), or at each row of a
        batch of shape (B, N)."""
        return self._sum(self._powers(x), self._at, self._weights)

    def jac(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian, of shape (N, N) at a point of shape (N,), or
        (B, N, N) at a batch of shape (B, N)."""
        if self._jac_table is None:
            # column j: each term's exponents with a_j lowered by one and its
            # coefficients times a_j; a term without x_j gets the monomial 1
            # and weight 0, which add an exact 0 to the sum
            a = self.exponents.T[:, None, :]  # a_j of each term, (N, 1, T)
            eye = np.eye(self.exponents.shape[1], dtype=np.int64)[:, :, None]
            lowered = np.where(a > 0, self.exponents.T - eye, 0)
            self._jac_table = (lowered + self._offsets, a * self._weights)
        at, weights = self._jac_table
        return np.swapaxes(self._sum(self._powers(x), at, weights), -1, -2)


class _Polynomial:
    """The polynomial x -> sum_t coeffs[t] x^exponents[t] from R^N to R^N,
    for exponent rows (T, N) and coefficient rows (T, N): the one format in
    which maps and perturbations are evaluated.

    In dimension 1 it is the ascending coefficient vector `_uni`, whose
    equal exponents are summed in row order, evaluated by Horner's rule over
    the Python-float tuples `_poly` and `_dpoly` (`_horner` at a point,
    `_horner_many` at an array).  In dimension N >= 2 it is one
    `_MonomialTable`.  Either way one point and a batch are evaluated by the
    same float operations in the same order, so `value` and `value_many`
    (and `derivative` and `deriv_many`, `jac` and `jac_many`) agree bit for
    bit.  A point of a 1-D polynomial is a number or an array of shape ()
    or (1,), and its value a float.

    `fold` sums polynomials by pooling their monomial rows in part order:
    the coefficients of each exponent are added to 0.0 in that order (into
    `_uni`, or in N-D into one table row per distinct exponent, in order of
    first appearance).  The sum is then evaluated as one polynomial, so its
    values differ from the sum of the parts' values only by rounding.
    `bounds` gives the one certified triple (sup, d1, d2) over a ball, from
    the monomial rows, whose radius-free parts it keeps from its first
    call."""

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray):
        self.exponents = exponents
        self.coeffs = coeffs
        self.dim = exponents.shape[1]
        self._table = self._uni = self._poly = self._dpoly = self._bound_terms = None
        if self.dim == 1:
            self._uni = _univariate(exponents[:, 0], coeffs[:, 0])
            self._poly, self._dpoly = _horner_form(self._uni)
        else:
            self._table = _MonomialTable(exponents, coeffs)

    @staticmethod
    def fold(parts: list) -> "_Polynomial":
        """The sum of `parts` (at least one, of one dimension); one part is
        returned as it is."""
        if len(parts) == 1:
            return parts[0]
        exponents = np.concatenate([p.exponents for p in parts])
        coeffs = np.concatenate([p.coeffs for p in parts])
        if exponents.shape[1] > 1:
            # a table evaluates its rows as they are, so equal monomials are
            # merged here, numbered in order of first appearance (in
            # dimension 1, `_univariate` merges them)
            row: dict = {}
            at = [row.setdefault(k, len(row)) for k in map(tuple, exponents.tolist())]
            at = np.array(at, dtype=np.intp)
            rows = np.empty((len(row), exponents.shape[1]), dtype=np.int64)
            rows[at] = exponents  # rows sharing a place are equal
            sums = np.zeros((len(row), coeffs.shape[1]))
            np.add.at(sums, at, coeffs)
            exponents, coeffs = rows, sums
        return _Polynomial(exponents, coeffs)

    def value(self, x):
        """The value at one point."""
        if self._table is None:
            return _horner(self._poly, _as_scalar(x))
        return self._table.value(_as_point(x, self.dim))

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        """The values at an array of 1-D points, or at each row of a batch
        of shape (B, N)."""
        xs = np.asarray(xs, dtype=float)
        if self._table is None:
            return _horner_many(self._poly, xs)
        return self._table.value(xs)

    def derivative(self, x) -> float:
        if self._table is not None:
            raise InvalidInputError("scalar derivative is defined for dim 1 only")
        return _horner(self._dpoly, _as_scalar(x))

    def deriv_many(self, xs: np.ndarray) -> np.ndarray:
        if self._table is not None:
            raise InvalidInputError("scalar derivative is defined for dim 1 only")
        return _horner_many(self._dpoly, np.asarray(xs, dtype=float))

    def jac(self, x) -> np.ndarray:
        if self._table is None:
            return np.array([[self.derivative(x)]])
        return self._table.jac(_as_point(x, self.dim))

    def jac_many(self, xs: np.ndarray) -> np.ndarray:
        """Jacobians at a batch of points, shape (B, dim, dim); row i equals
        jac(xs[i]) bit for bit."""
        if self._table is None:
            return self.deriv_many(xs).reshape(-1, 1, 1)
        return self._table.jac(np.asarray(xs, dtype=float))

    def bounds(self, radius: float) -> tuple:
        """(sup, d1, d2): triangle-inequality bounds over the ball of radius
        `radius` on |p|, on the Frobenius norm of the Jacobian and on that of
        the second derivative (as a bilinear map), from the monomial rows.
        What does not depend on the radius (the exponent totals, the
        absolute coefficients, and each derivative's masked rows and
        factors) is computed on the first call and kept (`_bound_terms`), as
        `_MonomialTable` keeps its Jacobian table; each radius then takes
        only the matrix products and norms, on the same arrays, so a triple
        is the same whatever radii came before."""
        if len(self.exponents) == 0:
            return 0.0, 0.0, 0.0
        if self._bound_terms is None:
            self._bound_terms = self._radius_free()
        size_t, total, first, second = self._bound_terms
        sup = float(np.linalg.norm(size_t @ radius**total))
        D = np.zeros((size_t.shape[0], self.dim))
        for j, rows, factor, power in first:
            D[:, j] = rows @ (factor * radius**power)
        acc = 0.0
        for rows, factor, power in second:
            col = rows @ (factor * radius**power)
            acc += float(np.sum(col * col))
        return sup, float(np.linalg.norm(D)), math.sqrt(acc)

    def _radius_free(self) -> tuple:
        """The parts of `bounds` that do not depend on the radius: the
        transposed absolute coefficients, the exponent totals, and per
        nonzero column j of the Jacobian, and per nonzero pair (j, l) of the
        second derivative in order, the transposed absolute coefficients of
        its monomials, their factors and the powers of the radius."""
        exponents = self.exponents
        total = np.abs(exponents).sum(axis=1).astype(float)
        size = np.abs(self.coeffs)
        first, second = [], []
        for j in range(self.dim):
            a_j = exponents[:, j].astype(float)
            mask = a_j > 0
            if np.any(mask):
                first.append((j, size[mask].T, a_j[mask], total[mask] - 1.0))
            for l in range(self.dim):
                a_l = exponents[:, l].astype(float)
                factor = a_j * (a_j - 1.0) if j == l else a_j * a_l
                mask = (factor > 0) & (total >= 2)
                if np.any(mask):
                    second.append((size[mask].T, factor[mask], total[mask] - 2.0))
        return size.T, total, first, second


@dataclass
class PerturbationVector(_Polynomial):
    """One element of a brick: a tuple of homogeneous components, degree
    0..truncation_degree, together with the brick it was drawn from.  It is
    evaluated and bounded as the `_Polynomial` that pools the components of
    every degree."""

    dim: int
    components: tuple
    brick: Optional[BrickSpec] = None
    seed: Optional[tuple] = None

    def __post_init__(self):
        self.components = tuple(self.components)
        for c in self.components:
            if c.dim != self.dim:
                raise InvalidInputError("component dimension mismatch")
        if self.components:
            expo = np.concatenate(
                [np.array(c.alphas, dtype=np.int64).reshape(-1, self.dim) for c in self.components]
            )
            coef = np.concatenate([c.coeffs for c in self.components])
        else:
            expo = np.zeros((0, self.dim), dtype=np.int64)
            coef = np.zeros((0, self.dim))
        super().__init__(expo, coef)

    # -- serialization ------------------------------------------------------

    def to_record(self) -> dict:
        return {
            "dim": self.dim,
            "seed": list(self.seed) if self.seed is not None else None,
            "brick": self.brick.to_record() if self.brick is not None else None,
            "components": [
                {"degree": c.degree, "coeffs": c.coeffs.tolist()} for c in self.components
            ],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "PerturbationVector":
        dim = _period(rec["dim"], 1, "dim")
        comps = tuple(
            HomogeneousComponent(_period(c["degree"], 0, "degree"), dim, c["coeffs"])
            for c in rec["components"]
        )
        brick = BrickSpec.from_record(rec["brick"]) if rec.get("brick") else None
        seed = tuple(rec["seed"]) if rec.get("seed") is not None else None
        return cls(dim, comps, brick, seed)


# -- sampling ----------------------------------------------------------------


def sample(brick: BrickSpec, dim: int, seed) -> PerturbationVector:
    """Draw one perturbation uniformly from the brick.

    Per degree k: a standard Gaussian in the nu(k, dim) orthonormal
    coordinates is normalized to the sphere and scaled by r_k * U^(1/nu),
    which is the uniform law on the ball.  Monomial coefficients are
    recovered as c_alpha * sqrt(multinomial(k, alpha)).  Degrees are
    independent; the whole draw is a deterministic function of `seed`.
    """
    dim = _period(dim, 1, "dim")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    comps = []
    for k in range(brick.truncation_degree + 1):
        factors = _grade(k, dim)[1]
        g = rng.standard_normal((factors.size, dim))
        norm = float(np.sqrt((g * g).sum()))
        while norm == 0.0:  # probability-zero guard, keeps the draw well defined
            g = rng.standard_normal((factors.size, dim))
            norm = float(np.sqrt((g * g).sum()))
        u = rng.random()
        r_k = brick.sizes[k]
        scale = r_k * u ** (1.0 / nu(k, dim)) / norm
        ortho = g * scale
        # orthonormal -> monomial coordinates
        coeffs = ortho * factors[:, None]
        comp = HomogeneousComponent(k, dim, coeffs)
        # one deterministic clamp so membership survives rounding
        nrm = comp.weighted_norm()
        if nrm > r_k:
            comp = HomogeneousComponent(k, dim, coeffs * (r_k / nrm))
        comps.append(comp)
    seed_tag = None
    if isinstance(seed, (int, np.integer)):
        seed_tag = (int(seed),)
    elif isinstance(seed, (tuple, list)):
        seed_tag = tuple(int(s) for s in seed)
    return PerturbationVector(dim, tuple(comps), brick, seed_tag)


def zero_vector(brick: BrickSpec, dim: int) -> PerturbationVector:
    """The zero element, with the same graded structure as a sample."""
    dim = _period(dim, 1, "dim")
    comps = tuple(
        HomogeneousComponent.zero(k, dim) for k in range(brick.truncation_degree + 1)
    )
    return PerturbationVector(dim, comps, brick, None)


# -- tail and worst-case bounds ----------------------------------------------


def tail_bound(brick: BrickSpec, dim: int, k_max: Optional[int] = None) -> float:
    """Rigorous sup-norm bound on the discarded tail sum_{k > k_max} of the
    brick: sum r_k dim^(k/2) sqrt(dim), by Cauchy-Schwarz against
    sum_{|alpha|=k} multinomial(k, alpha) = dim^k."""
    # k_max = -1 bounds the whole series, as for the empty brick
    k_max = brick.truncation_degree if k_max is None else _period(k_max, -1, "k_max")
    root = math.sqrt(_period(dim, 1, "dim"))
    if brick.family == "custom":
        # finite list: the tail beyond the list is empty
        total = 0.0
        for k in range(k_max + 1, brick.truncation_degree + 1):
            total += brick.sizes[k] * root**k
        return total * root
    if brick.family == "geometric":
        x = brick.q * root
        if x >= 1.0:
            raise ConfigurationError(
                f"geometric brick diverges on the ball: q*sqrt(dim) = {x:.6g} >= 1"
            )
        return brick.tau * root * x ** (k_max + 1) / (1.0 - x)
    # factorial: sum_{k>K} tau root^k / k!, summed until the geometric majorant
    # of the remainder is negligible, then closed off rigorously.
    total = 0.0
    k = k_max + 1
    term = brick.tau * root**k / math.factorial(k)
    while True:
        total += term
        k += 1
        nxt = term * root / k
        ratio = root / (k + 1)
        if ratio < 0.5 and nxt <= 1e-30 * max(total, 1e-300):
            # remainder <= nxt / (1 - ratio): fold it in and stop
            total += nxt / (1.0 - ratio)
            break
        term = nxt
    return total * root


def brick_bounds(brick: BrickSpec, dim: int, radius: float) -> tuple:
    """(sup, d1, d2) over the ball of radius `radius` for any eps in the
    brick: sup |eps| <= sum_k r_k radius^k (Cauchy-Schwarz in the weighted
    norm); each partial derivative of a degree-k component has weighted
    norm at most k r_k, which bounds the Jacobian's operator norm; and the
    second derivative, as a bilinear form, likewise."""
    root = math.sqrt(dim)
    sup = d1 = d2 = 0
    for k, r in enumerate(brick.sizes):
        sup += r * radius**k
        if k >= 1:
            d1 += root * k * r * radius ** (k - 1)
        if k >= 2:
            d2 += dim * k * (k - 1) * r * radius ** (k - 2)
    return float(sup), float(d1), float(d2)
