"""Tests for map construction, orbits, and certified norm bounds."""

import gc
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    BrickSpec,
    EpsPolynomial,
    ExperimentConfig,
    GridTrajectory,
    GrowthParams,
    HomogeneousComponent,
    InvalidInputError,
    LagrangeCoefficients,
    MapDomainError,
    MultijetPoint,
    OrbitEscapeError,
    PerturbationVector,
    PerturbedMap,
    PointTuple,
    PolynomialMap,
    RootProductPerturbation,
    base_map_from_spec,
    cells_per_axis,
    certified_range_1d,
    check_admissible,
    classify_simple,
    close_return,
    closing_perturbation,
    cocycle,
    divided_difference,
    enumerate_pseudotrajectories,
    find_almost_periodic,
    find_periodic,
    fit_C,
    gamma_linear,
    gamma_n_of_map,
    hyperbolicity_perturbation,
    ih_check,
    invariant_radius,
    is_gamma_hyperbolic,
    multi_indices,
    multijet,
    multinomial,
    norm_bounds,
    nu,
    orbit,
    orbit_hyperbolicity,
    p_km,
    prop11_check,
    product_of_distances,
    sample,
    snap,
    snap_orbit,
    stage_tolerances,
    tail_bound,
    zero_vector,
)

from orbitlab import dynamics
from orbitlab.errors import _real
from orbitlab.perturbation import _MonomialTable, _Polynomial, brick_bounds

from conftest import random_contraction


def test_univariate_evaluate_and_derivative():
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0])  # x^2 - 1
    assert f.evaluate(0.5) == pytest.approx(-0.75)
    assert f.derivative(0.5) == pytest.approx(1.0)
    assert f.evaluate(-2.0) == pytest.approx(3.0)
    assert f.derivative(-2.0) == pytest.approx(-4.0)


def test_eval_many_matches_scalar(rng):
    f = random_contraction(rng)
    xs = rng.uniform(-1.0, 1.0, size=40)
    many = PerturbedMap(f).eval_many(xs.reshape(-1, 1))[:, 0]
    for x, y in zip(xs, many):
        assert y == pytest.approx(f.evaluate(float(x)), abs=1e-14)


def test_orbit_shapes_and_values():
    f = PolynomialMap.univariate([0.0, 0.5])
    seg = orbit(f, 0.8, 4)
    assert seg.points.shape == (4, 1)
    assert np.allclose(seg.points1d, [0.8, 0.4, 0.2, 0.1])
    assert np.allclose(seg.images1d, [0.4, 0.2, 0.1, 0.05])
    assert np.allclose(seg.jacobians[:, 0, 0], 0.5)


def test_orbit_escape():
    f = PolynomialMap.univariate([0.0, 3.0], domain_radius=1.0)
    with pytest.raises(OrbitEscapeError):
        orbit(f, 0.9, 5)


def test_cocycle_product_is_chain_rule():
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=2.0)
    seg = orbit(f, 0.3, 3)
    j = cocycle(seg)
    manual = 1.0
    x = 0.3
    for _ in range(3):
        manual *= f.derivative(x)
        x = f.evaluate(x)
    assert j[0, 0] == pytest.approx(manual, rel=1e-12)


def test_certified_range_contains_true_range(rng):
    for _ in range(20):
        f = random_contraction(rng)
        lo, hi = certified_range_1d(f, 1.0)
        xs = np.linspace(-1.0, 1.0, 2001)
        ys = np.array([f.evaluate(float(x)) for x in xs])
        assert lo <= ys.min() + 1e-12
        assert hi >= ys.max() - 1e-12


def test_invariant_radius_quadratic():
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.0625)
    r = invariant_radius(f)
    assert r == pytest.approx(1.0625, abs=1e-9)


def test_invariant_radius_contraction():
    f = PolynomialMap.univariate([0.0, 0.5], domain_radius=3.0)
    assert invariant_radius(f) > 0


def test_norm_bounds_identity_exact():
    f = PolynomialMap.univariate([0.0, 1.0], domain_radius=1.0)
    nb = norm_bounds(f, rho=1.0)
    assert nb.m1 == 1.0


def test_norm_bounds_halving():
    f = PolynomialMap.univariate([0.0, 0.5], domain_radius=1.0)
    nb = norm_bounds(f, rho=1.0)
    # forward C1 norm is 1/2 but the inverse doubles, so the bound is 2
    assert nb.m1 == pytest.approx(2.0, abs=1e-9)
    assert nb.m1rho == pytest.approx(2.0, abs=1e-9)
    nb_half_rho = norm_bounds(f, rho=0.5)
    assert nb_half_rho.m1rho == pytest.approx(4.0, abs=1e-9)


def test_norm_bounds_unbounded_inverse():
    # f'(0) = 0, so no uniform inverse bound exists
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.0625)
    nb = norm_bounds(f, rho=1.0)
    assert math.isinf(nb.m1)


def test_norm_bounds_of_a_two_dimensional_map():
    """In N-D the inverse bound comes from the smallest singular value of
    the Jacobian on a mesh of the ball: diag(2, 1/2) is linear, so no
    curvature term lowers it, and a singular Jacobian leaves the inverse
    unbounded."""
    nb = norm_bounds(PolynomialMap.linear(np.diag([2.0, 0.5])))
    assert (nb.sigma_min_lower, nb.inverse_c1, nb.grid_points) == (0.5, 2.0, 797)
    assert nb.m1 == nb.forward_c1 == math.hypot(2.0, 0.5)
    nb = norm_bounds(PolynomialMap.linear(np.diag([0.5, 0.0])))
    assert nb.sigma_min_lower == 0.0 and nb.inverse_c1 == nb.m1 == math.inf


def test_norm_bounds_rejects_bad_rho():
    f = PolynomialMap.univariate([0.0, 0.5])
    with pytest.raises(InvalidInputError):
        norm_bounds(f, rho=0.0)
    with pytest.raises(InvalidInputError):
        norm_bounds(f, rho=1.5)


def test_univariate_rejects_bad_radius():
    with pytest.raises(InvalidInputError):
        PolynomialMap.univariate([0.0, 1.0], domain_radius=0.0)
    # a NaN radius let orbit() run past every escape test (|x| > NaN is false)
    for radius in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            PolynomialMap.univariate([0.0, 2.0], domain_radius=radius)
        with pytest.raises(InvalidInputError):
            PolynomialMap.identity(2, domain_radius=radius)
    # empty coefficient list is the zero map, not an error
    assert PolynomialMap.univariate([]).evaluate(0.3) == 0.0


@pytest.mark.parametrize("method", ["evaluate", "derivative", "jac"])
def test_one_dimensional_point_shapes(method):
    """A point of a 1-D map is a number or an array of shape () or (1,); any
    other shape is an InvalidInputError, not NumPy's TypeError."""
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, 0))
    rp = RootProductPerturbation(0.01, (0.3, -0.6))
    objects = [base, PerturbedMap(base), PerturbedMap(base, eps), PerturbedMap(base, (eps, rp))]
    if method == "jac":
        objects += [eps, rp]
    for obj in objects:
        call = getattr(obj, method)
        want = call(0.3)
        for x in (np.float64(0.3), np.array(0.3), np.array([0.3])):
            assert np.array_equal(call(x), want)
        for bad in (np.zeros(2), np.zeros((1, 1)), np.zeros(0)):
            with pytest.raises(InvalidInputError):
                call(bad)


def test_perturbed_map_accepts_only_its_two_kinds_of_term():
    """A term is a PerturbationVector of the base's dimension or, on a 1-D
    base only, a RootProductPerturbation; anything else is refused when the
    map is built, not in the middle of a census."""
    henon = PolynomialMap.from_terms(2, {(0, 0): [1.0, 0.0], (2, 0): [-1.4, 0.0],
                                         (0, 1): [1.0, 0.0], (1, 0): [0.0, 0.3]})
    line = PolynomialMap.univariate([0.0, 0.5])

    class ValueAndJacOnly:
        def value(self, x):
            return 0.0

        def jac(self, x):
            return np.zeros((1, 1))

    bad = [(henon, RootProductPerturbation(1.0, (0.5,))),
           (henon, sample(BrickSpec.factorial(0.01, 2), 1, 3)),
           (line, sample(BrickSpec.factorial(0.01, 2), 2, 3)),
           (line, ValueAndJacOnly())]
    for base, term in bad:
        with pytest.raises(InvalidInputError):
            PerturbedMap(base, term)
        with pytest.raises(InvalidInputError):
            base.with_term(term)
        with pytest.raises(InvalidInputError):
            PerturbedMap(base).with_term(term)


# -- the folded 1-D polynomial ---------------------------------------------------

FOLD_SEEDS = ((42, 0), (7, 1), (2024, 3))
# a hyperbolicity-type correction: one simple root, two double roots
FOLD_ROOTS = (0.3, -0.6, -0.6, 0.1, 0.1)


def _fold_cases():
    """(map, unfolded terms, |ascending coefficients| of the polynomial part)
    for seeded factorial-brick samples on x^2 - 1, with and without a
    root-product term."""
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    for seed in FOLD_SEEDS:
        eps = sample(BrickSpec.factorial(0.01, 8), 1, seed)
        abs_coeffs = [1.0, 0.0, 1.0] + [0.0] * 6
        for c in eps.components:
            abs_coeffs[c.degree] += abs(c.coeffs[0, 0])
        f = PerturbedMap(base, eps)
        yield f, (base, eps), abs_coeffs
        rp = RootProductPerturbation(0.01, FOLD_ROOTS)
        yield f.with_term(rp), (base, eps, rp), abs_coeffs


def _unfolded(terms, x):
    """Value and derivative of base + sum of terms, each evaluated on its own."""
    base, rest = terms[0], terms[1:]
    value = base.evaluate(x) + sum(t.value(x) for t in rest)
    deriv = base.derivative(x) + sum(t.derivative(x) for t in rest)
    return value, deriv


def test_fold_matches_unfolded_sum():
    xs = np.concatenate([np.linspace(-1.25, 1.25, 401), FOLD_ROOTS])
    ulp = np.finfo(float).eps
    for f, terms, abs_coeffs in _fold_cases():
        values = f.eval_many(xs)
        derivs = f.deriv_many(xs)
        for x, v_many, d_many in zip(xs, values, derivs):
            x = float(x)
            value, deriv = _unfolded(terms, x)
            # the scales of Horner's rounding error
            ax = abs(x)
            v_scale = sum(c * ax**k for k, c in enumerate(abs_coeffs))
            d_scale = sum(k * c * ax ** (k - 1) for k, c in enumerate(abs_coeffs) if k)
            if len(terms) == 3:
                v_scale += abs(terms[2].value(x))
                d_scale += abs(terms[2].derivative(x))
            for got in (f.evaluate(x), v_many):
                assert abs(got - value) <= 8 * ulp * v_scale
            for got in (f.derivative(x), d_many, f.jac(x)[0, 0]):
                assert abs(got - deriv) <= 8 * ulp * d_scale


def test_fold_scalar_path_equals_array_path_bitwise():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-1.25, 1.25, 300), [0.0, -0.0, 1.0, -1.0], FOLD_ROOTS])
    for f, _, _ in _fold_cases():
        scalar = np.array([f.evaluate(float(x)) for x in xs])
        assert scalar.tobytes() == f.eval_many(xs).tobytes()
        scalar = np.array([f.derivative(float(x)) for x in xs])
        assert scalar.tobytes() == f.deriv_many(xs).tobytes()


def test_fold_leaves_root_product_zeros_exact():
    roots = np.array(FOLD_ROOTS)
    for seed in FOLD_SEEDS:
        eps = sample(BrickSpec.factorial(0.01, 8), 1, seed)
        f = PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps)
        g = f.with_term(RootProductPerturbation(0.01, FOLD_ROOTS))
        for r in FOLD_ROOTS:
            assert g.evaluate(r) - f.evaluate(r) == 0.0
        assert np.all(g.eval_many(roots) - f.eval_many(roots) == 0.0)
        # the double roots keep the derivative too
        for r in FOLD_ROOTS[1:]:
            assert g.derivative(r) - f.derivative(r) == 0.0
        assert g.evaluate(FOLD_ROOTS[0] + 0.25) != f.evaluate(FOLD_ROOTS[0] + 0.25)


def test_with_term_keeps_the_fold_for_a_root_product_term(monkeypatch):
    """Appending root-product terms one by one gives the map built from all
    its terms, values and derivatives bit for bit on the scalar and the
    array path, without folding a polynomial again."""
    xs = np.concatenate([np.linspace(-1.25, 1.25, 201), [0.0, -0.0], FOLD_ROOTS])
    extra = (RootProductPerturbation(0.01, FOLD_ROOTS), RootProductPerturbation(-0.02, (0.5,)))
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    folds = []
    fold = _Polynomial.fold

    def counted(parts):
        folds.append(len(parts))
        return fold(parts)

    for seed in FOLD_SEEDS:
        eps = sample(BrickSpec.factorial(0.01, 8), 1, seed)
        f = PerturbedMap(base, eps)
        want = PerturbedMap(base, (eps,) + extra)
        monkeypatch.setattr(_Polynomial, "fold", staticmethod(counted))
        g = f.with_term(extra[0]).with_term(extra[1])
        monkeypatch.undo()
        assert folds == [] and type(g) is PerturbedMap and g.terms == want.terms
        assert g._fold is f._fold and g._rest == extra
        assert g.eval_many(xs).tobytes() == want.eval_many(xs).tobytes()
        assert g.deriv_many(xs).tobytes() == want.deriv_many(xs).tobytes()
        for x in xs.tolist():
            assert math.copysign(1.0, g.evaluate(x)) == math.copysign(1.0, want.evaluate(x))
            assert g.evaluate(x) == want.evaluate(x) and g.derivative(x) == want.derivative(x)


def _nd_maps(dim: int) -> dict:
    """A base map with constant, linear and quadratic terms, and the same map
    perturbed by one and by two seeded brick samples."""
    terms = {(0,) * dim: np.linspace(0.1, 0.3, dim)}
    for j in range(dim):
        alpha = [0] * dim
        alpha[j] = 1
        terms[tuple(alpha)] = np.roll(np.linspace(-0.6, 0.7, dim), j)
        alpha[(j + 1) % dim] += 1
        terms[tuple(alpha)] = np.full(dim, -0.45 + 0.1 * j)
    base = PolynomialMap.from_terms(dim, terms, domain_radius=1.5)
    one = sample(BrickSpec.factorial(0.05, 3), dim, seed=(dim, 1))
    two = sample(BrickSpec.factorial(0.02, 5), dim, seed=(dim, 2))
    return {"base": base, "one term": PerturbedMap(base, one),
            "two terms": PerturbedMap(base, (one, two))}


def _reference_fold(parts):
    """The fold rule written out on its own: in 1-D, each part's ascending
    vector (its coefficients added to 0.0 exponent by exponent in row order)
    added in part order into zeros(maxlen), and the Horner tuples of the
    sum; in N-D, one row per monomial in order of first appearance, the
    coefficients summed by np.add.at in part and row order."""
    dim = parts[0].exponents.shape[1]
    if dim == 1:
        unis = []
        for p in parts:
            uni = np.zeros(int(p.exponents.max(initial=0)) + 1)
            for e, c in zip(p.exponents[:, 0], p.coeffs[:, 0]):
                uni[e] += c
            unis.append(uni)
        uni = np.zeros(max(len(u) for u in unis))
        for u in unis:
            uni[: len(u)] += u
        value = tuple(float(c) for c in reversed(uni))
        deriv = tuple(float(k * uni[k]) for k in range(len(uni) - 1, 0, -1)) or (0.0,)
        return uni, np.array(value), np.array(deriv)
    keys = [tuple(row) for p in parts for row in p.exponents.tolist()]
    row = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    at = [row[k] for k in keys]
    exponents = np.empty((len(row), dim), dtype=np.int64)
    exponents[at] = np.concatenate([p.exponents for p in parts])
    coeffs = np.zeros((len(row), dim))
    np.add.at(coeffs, at, np.concatenate([p.coeffs for p in parts]))
    return exponents, coeffs


def test_fold_is_the_reference_fold_bitwise():
    """Every folded coefficient equals the reference rule's bit for bit: on
    seeded brick samples, with a zero vector as a part, on bases with
    repeated exponent rows (whose order of addition the coefficients
    expose), and on the N-D maps; a fold of the base alone is the base."""
    quad = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    # x^2 twice: (1 + 1e-16) - 1 is 0.0 in row order, and 1e-16 in any other
    repeated = PolynomialMap(1, [[2], [0], [2], [1]], [[1.0], [-1.0], [1e-16], [0.0]])
    minus_x2 = PerturbationVector(1, [HomogeneousComponent(k, 1, [[-float(k == 2)]]) for k in range(3)])
    brick = BrickSpec.factorial(0.01, 8)
    maps = [PerturbedMap(quad, sample(brick, 1, seed)) for seed in FOLD_SEEDS]
    maps += [PerturbedMap(quad, (sample(brick, 1, FOLD_SEEDS[0]), zero_vector(brick, 1))),
             PerturbedMap(quad, zero_vector(BrickSpec.factorial(0.01, 1), 1)),
             PerturbedMap(repeated, minus_x2),
             PerturbedMap(repeated, (sample(brick, 1, 6), minus_x2, sample(brick, 1, 7)))]
    assert maps[-2]._fold._uni[2] == 0.0
    repeated_2d = PolynomialMap(2, [[1, 0], [0, 0], [1, 0], [0, 1], [0, 0]],
                                [[1.0, 0.5], [0.1, -0.2], [1e-16, 0.25], [-0.3, 1.0], [0.0, -0.1]])
    brick_2d = BrickSpec.factorial(0.05, 2)
    maps += [PerturbedMap(repeated_2d, (sample(brick_2d, 2, 8), zero_vector(brick_2d, 2)))]
    maps += [_nd_maps(dim)[name] for dim in (2, 3) for name in ("one term", "two terms")]
    for f in maps:
        parts = [f.base] + [t for t in f.terms if isinstance(t, PerturbationVector)]
        want = _reference_fold(parts)
        if f.dim == 1:
            got = (f._fold._uni, np.array(f._fold._poly), np.array(f._fold._dpoly))
        else:
            got = (f._fold.exponents, f._fold.coeffs)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], f
    for base in (quad, repeated, repeated_2d, _nd_maps(2)["base"]):
        assert PerturbedMap(base)._fold is base
        assert PerturbedMap(base, RootProductPerturbation(0.1, (0.2,)) if base.dim == 1 else ())._fold is base


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("batch", [1, 3, 500])
def test_nd_scalar_path_equals_batch_path_bitwise(dim, batch):
    xs = np.random.default_rng(10 * dim + batch).uniform(-1.5, 1.5, (batch, dim))
    for name, f in _nd_maps(dim).items():
        many = f.eval_many(xs)
        assert many.shape == (batch, dim), name
        for x, row in zip(xs, many):
            assert np.asarray(f.evaluate(x)).tobytes() == row.tobytes(), name


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("batch", [1, 3, 500])
def test_nd_jac_equals_jac_many_bitwise(dim, batch):
    xs = np.random.default_rng(10 * dim + batch).uniform(-1.5, 1.5, (batch, dim))
    for name, f in _nd_maps(dim).items():
        many = f.jac_many(xs)
        assert many.shape == (batch, dim, dim), name
        for x, J in zip(xs, many):
            assert f.jac(x).tobytes() == J.tobytes(), name


@pytest.mark.parametrize("dim", [2, 3])
def test_nd_fold_matches_base_plus_terms(dim):
    """The folded table sums equal monomials before evaluating; the map
    and its Jacobian stay the base plus each term's, to rounding."""
    xs = np.random.default_rng(dim).uniform(-1.5, 1.5, (200, dim))
    maps = _nd_maps(dim)
    base = maps["base"]
    for name in ("one term", "two terms"):
        f = maps[name]
        for x in xs:
            value = base.evaluate(x) + sum(t.value(x) for t in f.terms)
            jac = base.jac(x) + sum(t.jac(x) for t in f.terms)
            np.testing.assert_allclose(f.evaluate(x), value, rtol=1e-14, atol=1e-14, err_msg=name)
            np.testing.assert_allclose(f.jac(x), jac, rtol=1e-14, atol=1e-14, err_msg=name)


def test_nd_map_evaluates_through_one_table(monkeypatch):
    calls = []
    value, jac = _MonomialTable.value, _MonomialTable.jac

    def counted(method):
        def wrapped(self, x):
            calls.append(method.__name__)
            return method(self, x)
        return wrapped

    monkeypatch.setattr(_MonomialTable, "value", counted(value))
    monkeypatch.setattr(_MonomialTable, "jac", counted(jac))
    f = _nd_maps(3)["two terms"]
    x = np.array([0.3, -0.2, 0.5])
    for method, arg, kind in ((f.evaluate, x, "value"), (f.eval_many, np.tile(x, (4, 1)), "value"),
                              (f.jac, x, "jac"), (f.jac_many, np.tile(x, (4, 1)), "jac")):
        calls.clear()
        method(arg)
        assert calls == [kind]


def test_nd_jac_matches_finite_differences():
    for dim in (2, 3):
        for name, f in _nd_maps(dim).items():
            x = np.linspace(-0.4, 0.5, dim)
            h = 1e-6
            fd = np.column_stack([(f.evaluate(x + h * e) - f.evaluate(x - h * e)) / (2 * h)
                                  for e in np.eye(dim)])
            assert np.allclose(f.jac(x), fd, atol=1e-8), name


def test_orbit_jacobians_equal_pointwise_jac_bitwise():
    """orbit takes its Jacobians in one batched call after the loop; in 1-D
    they are the per-point derivatives bit for bit, with a root-product term
    too, and in N-D the per-point Jacobians."""
    base = PolynomialMap.univariate([0.1, 0.3, -0.5, 0.2])
    eps = sample(BrickSpec.factorial(0.05, 4), 1, seed=(1, 2))
    maps = [base, PerturbedMap(base, eps),
            PerturbedMap(base, (eps, RootProductPerturbation(0.01, (0.3, -0.2, 0.7))))]
    maps += [f for dim in (2, 3) for f in _nd_maps(dim).values()]
    for f in maps:
        seg = orbit(f, np.full(f.dim, 0.2), 8)
        assert seg.jacobians.shape == (8, f.dim, f.dim)
        for x, J in zip(seg.points, seg.jacobians):
            assert f.jac(x).tobytes() == J.tobytes()


def _array_orbit(f, x0: float, n: int):
    """The 1-D orbit loop on arrays of shape (1,), as orbit ran it before it
    iterated a Python float: (points, images, Jacobians), or ("escape",
    index, point)."""
    edge = f.domain_radius * (1.0 + 1e-12)
    x = np.array([x0])
    pts, imgs = np.empty((n, 1)), np.empty((n, 1))
    for j in range(n):
        pts[j] = x
        img = np.asarray(f.evaluate(x), dtype=float).reshape(1)
        imgs[j] = img
        if math.sqrt(img.dot(img)) > edge:
            return ("escape", j + 1, img)
        x = img
    return pts, imgs, np.stack([f.jac(p) for p in pts])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
    kind=st.sampled_from(["bare", "perturbed", "root product", "both"]),
    scale=st.floats(-0.5, 0.5),
    roots=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
    eps_seed=st.integers(0, 2**16),
    radius=st.sampled_from([0.5, 1.0, 2.0]),
    x0=st.floats(-1.1, 1.1),
    n=st.integers(1, 40),
)
def test_orbit_1d_on_floats_matches_the_array_loop(coeffs, kind, scale, roots, eps_seed, radius, x0, n):
    """A 1-D orbit iterates a Python float; its points, images and
    Jacobians have the bytes of the loop on arrays of shape (1,), and an
    orbit that leaves the ball reports the same escape index and point, for
    a PolynomialMap, a PerturbedMap, and maps carrying a
    RootProductPerturbation."""
    f = PolynomialMap.univariate(coeffs, domain_radius=radius)
    eps = sample(BrickSpec.factorial(0.05, 4), 1, seed=(3, eps_seed))
    term = RootProductPerturbation(scale, roots)
    f = {"bare": f, "perturbed": PerturbedMap(f, eps), "root product": f.with_term(term),
         "both": PerturbedMap(f, (eps, term))}[kind]
    x0 *= radius
    if abs(x0) > radius * (1.0 + 1e-12):
        with pytest.raises(MapDomainError):
            orbit(f, x0, n)
        return
    want = _array_orbit(f, x0, n)
    if isinstance(want[0], str):
        with pytest.raises(OrbitEscapeError) as info:
            orbit(f, x0, n)
        assert info.value.escape_index == want[1]
        assert info.value.point.shape == (1,) and info.value.point.tobytes() == want[2].tobytes()
        return
    seg = orbit(f, x0, n)
    for got, arr in zip((seg.points, seg.images, seg.jacobians), want):
        assert got.dtype == arr.dtype and got.shape == arr.shape and got.tobytes() == arr.tobytes()


# -- the checks of each kind of input ----------------------------------------------


def _raised_by(check: str, call, *args):
    """call(*args) raises InvalidInputError from the function `check`."""
    with pytest.raises(InvalidInputError) as info:
        call(*args)
    assert info.traceback[-1].name == check, (call, info.traceback[-1].name)


def test_each_kind_of_input_is_checked_in_one_place():
    """A non-map wherever a map is taken, a 2-D map wherever a 1-D one is
    needed, a period that is not an integer, and a trajectory of more than
    one column where a 1-D one is needed (an anchor tuple too) or of too
    few points are each refused by their one check, with
    InvalidInputError."""
    line = PolynomialMap.univariate([0.0, 0.5])
    plane = PolynomialMap.linear(np.diag([0.5, 0.25]))
    seg = orbit(line, 0.5, 3)
    grid = GridTrajectory(0.5, [0, 1])
    takes_a_map = [
        (orbit, 0.5, 2), (norm_bounds,), (orbit_hyperbolicity, seg), (grid.realized_slack,),
        (snap_orbit, seg, 0.5), (enumerate_pseudotrajectories, 0.5, 0.1, 0, 2),
    ]
    one_d = [
        (certified_range_1d, 1.0), (invariant_radius,), (find_periodic, 1),
        (find_almost_periodic, 1, 0.1), (ih_check, GrowthParams(C=1.0, delta=1.0), 1),
        (prop11_check, 1), (gamma_n_of_map, 1), (multijet, PointTuple([0.1, 0.2])),
        (closing_perturbation, seg), (hyperbolicity_perturbation, seg, 0.1),
    ]
    for call, *args in takes_a_map + one_d:
        _raised_by("_check_map", call, object(), *args)
    for call, *args in one_d:
        _raised_by("_check_map", call, plane, *args)
    for call, *args in ((orbit, line, 0.5, 2.5), (orbit, line, 0.5, 0),
                        (enumerate_pseudotrajectories, line, 0.5, 0.1, 0, 2.5),
                        (stage_tolerances, 2.5, 1, 2.0, GrowthParams(C=1.0, delta=1.0)),
                        (GrowthParams(C=1.0, delta=1.0).gamma_n, 2.5)):
        _raised_by("_period", call, *args)
    wide = np.array([[0.1, 0.2], [0.3, 0.5], [0.4, 0.1]])
    for call, *args in ((closing_perturbation, line, wide), (hyperbolicity_perturbation, line, wide, 0.1),
                        (product_of_distances, wide), (product_of_distances, wide[:2]), (PointTuple, wide),
                        (classify_simple, wide, 0.1), (classify_simple, GridTrajectory(0.5, [[1, 2], [3, 5], [4, 1]]), 0.1),
                        (snap_orbit, line, np.zeros((2, 2, 2)), 0.5),
                        (hyperbolicity_perturbation, line, [], 0.1), (close_return, [], 0.1),
                        (PointTuple, []), (closing_perturbation, line, [0.1]),
                        (product_of_distances, [0.1])):
        _raised_by("_trajectory", call, *args)


_BELOW_0 = math.nextafter(0.0, -1.0)


def _real_arguments():
    """(name, call, values just outside the range, whether an infinity is
    refused) for every real-number argument checked by `_real`, and every
    integer argument that is checked by `_period` beside it."""
    half = PolynomialMap.univariate([0.0, 0.5])
    seg = orbit(half, 0.5, 2)
    growth = GrowthParams(C=1.0, delta=1.0)
    brick = BrickSpec.factorial(0.1, 2)
    drawn = sample(brick, 1, 0).to_record()
    return [
        # census
        ("C", lambda v: GrowthParams(C=v, delta=1.0), [_BELOW_0], True),
        ("delta", lambda v: GrowthParams(C=1.0, delta=v), [_BELOW_0], True),
        ("rho", lambda v: GrowthParams(C=1.0, delta=1.0, rho=v), [0.0, math.nextafter(1.0, 2.0)], True),
        ("radius", lambda v: find_periodic(half, 1, radius=v), [0.0], True),
        ("radius", lambda v: ih_check(half, growth, 1, radius=v), [0.0], True),
        ("tol", lambda v: find_periodic(half, 1, tol=v), [0.0, 1.0], True),
        ("slack", lambda v: find_almost_periodic(half, 1, v), [_BELOW_0], True),
        ("resolution", lambda v: find_almost_periodic(half, 1, 0.1, resolution=v), [0.0], True),
        # experiment
        ("deltas", lambda v: ExperimentConfig(deltas=[0.5, v]), [0.0], True),
        ("ih_c_factor", lambda v: ExperimentConfig(ih_c_factor=v), [math.nextafter(1.0, 0.0)], True),
        ("tol", lambda v: ExperimentConfig(tol=v), [0.0, 1.0], True),
        ("radius", lambda v: ExperimentConfig(radius=v), [0.0], True),
        ("delta", lambda v: fit_C({1: 0.5}, v), [_BELOW_0], True),
        ("periods", lambda v: fit_C({v: 0.5}, 1.0), [0, 1.5], True),
        # dynamics
        ("domain_radius", lambda v: PolynomialMap.univariate([0.0, 0.5], domain_radius=v), [0.0], True),
        ("dim", lambda v: PolynomialMap(v, [[1]], [[0.5]]), [0, 1.0], True),
        ("scale", lambda v: RootProductPerturbation(v, (0.1,)), [-math.inf], True),
        ("roots", lambda v: RootProductPerturbation(1.0, (0.1, v)), [-math.inf], True),
        ("rho", lambda v: norm_bounds(half, rho=v), [0.0, math.nextafter(1.0, 2.0)], True),
        ("radius", lambda v: orbit(half, 0.1, 2, radius=v), [0.0], True),
        ("radius", lambda v: certified_range_1d(half, v), [0.0], True),
        # gridlab
        ("spacing", lambda v: snap(0.3, v), [0.0], True),
        ("spacing", lambda v: GridTrajectory(v, [0, 1]), [0.0], True),
        ("spacing", lambda v: snap_orbit(half, seg, v), [0.0], True),
        # 2^-61: the start cell's successors, 2 * 0.1 * 2^61 of them, do not fit in memory
        ("spacing", lambda v: enumerate_pseudotrajectories(half, v, 0.1, 0, 2), [0.0, 2.0**-61], True),
        ("radius", lambda v: cells_per_axis(v, 0.1), [0.0], True),
        ("spacing", lambda v: cells_per_axis(1.0, v), [0.0], True),
        ("slack", lambda v: enumerate_pseudotrajectories(half, 0.5, v, 0, 2), [_BELOW_0, -math.inf], False),
        ("budget", lambda v: enumerate_pseudotrajectories(half, 0.5, 0.1, 0, 2, budget=v), [-1, 2.5], True),
        ("max_samples", lambda v: enumerate_pseudotrajectories(half, 0.5, 0.1, 0, 2, max_samples=v),
         [-1, 2.5], True),
        ("dim", lambda v: stage_tolerances(1, v, 2.0, growth), [0, 1.5], True),
        ("m_bound", lambda v: stage_tolerances(1, 1, v, growth), [math.nextafter(1.0, 0.0)], True),
        ("floor", lambda v: classify_simple([0.1, 0.2], v), [_BELOW_0], True),
        ("threshold", lambda v: close_return([0.1, 0.2], v), [_BELOW_0, -math.inf], False),
        # hyperbolicity
        ("refine_tol", lambda v: gamma_linear(np.diag([0.5, 2.0]), refine_tol=v), [0.0], True),
        ("gamma", lambda v: is_gamma_hyperbolic(np.diag([0.5, 2.0]), v), [_BELOW_0], True),
        # lagrange
        ("gamma", lambda v: hyperbolicity_perturbation(half, seg, v), [0.0], True),
        ("margin", lambda v: hyperbolicity_perturbation(half, seg, 0.1, margin=v), [_BELOW_0], True),
        # perturbation
        ("tau", lambda v: BrickSpec.factorial(v, 3), [0.0], True),
        ("tau", lambda v: BrickSpec.geometric(v, 0.5, 3), [0.0], True),
        ("q", lambda v: BrickSpec.geometric(0.1, v, 3), [0.0, 1.0], True),
        ("sizes", lambda v: BrickSpec.custom([1.0, v]), [0.0], True),
        ("truncation_degree", lambda v: BrickSpec.factorial(0.1, v), [-1, 0.5], True),
        ("truncation_degree", lambda v: BrickSpec.geometric(0.1, 0.5, v), [-1, 0.5], True),
        ("truncation_degree", lambda v: BrickSpec("custom", (), v), [-2, 0.5], True),
        ("k", lambda v: multi_indices(v, 1), [-1, 0.5], True),
        ("dim", lambda v: multi_indices(2, v), [0, 1.5], True),
        ("k", lambda v: nu(v, 1), [-1, 0.5], True),
        ("dim", lambda v: nu(2, v), [0, 1.5], True),
        ("k", lambda v: multinomial(v, (1,)), [-1, 0.5], True),
        ("alpha", lambda v: multinomial(1, (1, v)), [-1, 0.5], True),
        ("dim", lambda v: tail_bound(brick, v), [0, 1.5], True),
        ("k_max", lambda v: tail_bound(brick, 1, v), [-2, 0.5], True),
        ("dim", lambda v: check_admissible(BrickSpec.geometric(0.1, 0.5, 3), v), [0, 1.5], True),
        ("dim", lambda v: sample(brick, v, 0), [0, 1.5], True),
        ("dim", lambda v: zero_vector(brick, v), [0, 1.5], True),
        ("dim", lambda v: PerturbationVector.from_record(dict(drawn, dim=v)), [0, 2.5], True),
        ("degree", lambda v: PerturbationVector.from_record(
            dict(drawn, components=[dict(drawn["components"][0], degree=v)])), [-1, 1.5], True),
        # lagrange
        ("k", lambda v: p_km([0.1, 0.2], v), [-1, 0.5], True),
        ("derivs", lambda v: divided_difference([0.4, 0.4], [0.064, 0.064], derivs=[v, None]), [], True),
    ]


def test_every_number_argument_is_checked_in_one_place():
    """A numeric string, NaN, an infinity where none is allowed, and each
    value just outside the range, given to any checked number argument,
    raise InvalidInputError from `_real` or `_period` with the argument's
    name in the message: never TypeError or OverflowError, and never a
    result."""
    for name, call, outside, refuses_inf in _real_arguments():
        for bad in ["0.5", math.nan, *outside, *([math.inf] if refuses_inf else [])]:
            with pytest.raises(InvalidInputError) as info:
                call(bad)
            assert name in str(info.value), (name, bad, str(info.value))
            assert info.traceback[-1].name in ("_real", "_period"), (name, bad, info.traceback[-1].name)
    # NaN is refused where an infinity is allowed and no bound would refuse it
    assert _real(-math.inf, "x", inf=True) == -math.inf
    with pytest.raises(InvalidInputError, match=r"^x must be a real number in \[-inf, inf\], not nan$"):
        _real(math.nan, "x", inf=True)


def _with_first(good, v):
    """The nested list `good` with its first number replaced by v."""
    return [_with_first(good[0], v)] + good[1:] if isinstance(good, list) else v


def _array_arguments():
    """(name, call, a good value, whether integers are asked for) for every
    array argument checked by `_array`."""
    line = PolynomialMap.univariate([0.0, 0.5])
    plane = PolynomialMap.linear(np.diag([0.5, 0.25]))
    anchor = PointTuple([0.1, -0.3])
    traj = [0.1, 0.2, 0.3]
    return [
        # dynamics
        ("exponents", lambda v: PolynomialMap(1, v, [[0.5], [2.0]]), [[0], [2]], True),
        ("coeffs", lambda v: PolynomialMap(1, [[0], [2]], v), [[0.5], [2.0]], False),
        ("coeffs", PolynomialMap.univariate, [0.5, 2.0], False),
        ("terms", lambda v: PolynomialMap.from_terms(2, {(1, 0): v}), [0.5, 0.0], False),
        ("matrix", PolynomialMap.linear, [[0.5, 0.0], [0.0, 0.25]], False),
        ("point", line.evaluate, [0.3], False),
        ("point", line.derivative, [0.3], False),
        ("point", plane.evaluate, [0.3, 0.2], False),
        ("point", plane.jac, [0.3, 0.2], False),
        ("point", lambda v: orbit(plane, v, 2), [0.3, 0.2], False),
        ("trajectory", product_of_distances, traj, False),
        ("trajectory", lambda v: close_return(v, 0.1), traj, False),
        ("trajectory", lambda v: classify_simple(v, 0.1), traj, False),
        ("trajectory", lambda v: snap_orbit(line, v, 0.1), traj, False),
        ("trajectory", lambda v: closing_perturbation(line, v), traj, False),
        ("trajectory", lambda v: hyperbolicity_perturbation(line, v, 0.1), traj, False),
        # perturbation
        ("coeffs", lambda v: HomogeneousComponent(1, 2, v), [[0.5, 0.0], [0.0, 0.25]], False),
        # lagrange
        ("anchor point", PointTuple, [0.1, -0.3], False),
        ("monomial coefficient", EpsPolynomial, [0.5, 0.0, 0.1, 0.2], False),
        ("Newton coefficient", lambda v: LagrangeCoefficients(v, anchor), [0.5, 0.0, 0.1, 0.2], False),
        ("jet value", lambda v: MultijetPoint(anchor, v, [1.0, 0.0]), [0.1, 0.2], False),
        ("jet derivative", lambda v: MultijetPoint(anchor, [0.1, 0.2], v), [1.0, 0.0], False),
        ("pts", lambda v: divided_difference(v, [1.0, 2.0]), [0.1, 0.2], False),
        ("values", lambda v: divided_difference([0.1, 0.2], v), [1.0, 2.0], False),
        ("pts", lambda v: p_km(v, 3), [0.1, 0.2], False),
        # hyperbolicity
        ("matrix", gamma_linear, [[0.5, 0.0], [0.0, 2.0]], False),
        ("matrix", lambda v: is_gamma_hyperbolic(v, 0.1), [[0.5, 0.0], [0.0, 2.0]], False),
        # gridlab
        ("x", lambda v: snap(v, 0.1), [0.3, 0.2], False),
        ("cells", lambda v: GridTrajectory(0.5, v), [0, 1], True),
        ("start", lambda v: enumerate_pseudotrajectories(plane, 0.5, 0.1, v, 2), [0.3, 0.2], False),
        # experiment
        ("map", base_map_from_spec, [-1.0, 0.0, 1.0], False),
    ]


def test_every_array_argument_is_checked_in_one_place():
    """An entry that is a string (a numeric one too), NaN or an infinity, a
    fraction where integers are asked for, and a ragged array, given to any
    checked array argument, raise InvalidInputError from `_array` with the
    argument's name in the message: never ValueError, TypeError or a
    result.  Each good value is taken."""
    for name, call, good, integer in _array_arguments():
        call(good)
        bad = [_with_first(good, v) for v in ["x", "0.5", math.nan, math.inf, *([0.5] if integer else [])]]
        for v in bad + [[good, [good]]]:
            with pytest.raises(InvalidInputError) as info:
                call(v)
            assert name in str(info.value), (name, v, str(info.value))
            assert info.traceback[-1].name == "_array", (name, v, info.traceback[-1].name)


def test_bad_arrays_that_gave_answers_are_refused():
    """Calls that returned wrong answers, or ended in a RuntimeWarning,
    before the arrays were checked: a fractional exponent (read as 0), a
    3-column matrix for a 2-D linear map (its last column dropped),
    fractional grid cells (truncated), and a trajectory or a start holding
    NaN (a NaN product, no close return, a cast warning)."""
    line = PolynomialMap.univariate([0.0, 0.5])
    nan_traj = [0.1, math.nan, 0.3]
    calls = [
        ("exponents", lambda: PolynomialMap(1, [[0.5], [2]], [[1], [-1]])),
        ("terms", lambda: PolynomialMap.from_terms(1, {(0.5,): [1.0], (2,): [-1.0]})),
        ("matrix", lambda: PolynomialMap.linear([[1, 2, 3], [3, 4, 5]])),
        ("cells", lambda: GridTrajectory(0.1, [0.5, 1.7])),
        ("trajectory", lambda: product_of_distances(nan_traj)),
        ("trajectory", lambda: close_return(nan_traj, 0.1)),
        ("trajectory", lambda: classify_simple(nan_traj, 0.1)),
        ("trajectory", lambda: snap_orbit(line, nan_traj, 0.1)),
        ("trajectory", lambda: closing_perturbation(line, nan_traj)),
        ("start", lambda: enumerate_pseudotrajectories(line, 0.5, 0.1, math.nan, 2)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, call in calls:
            with pytest.raises(InvalidInputError, match=name):
                call()


def test_bad_numbers_that_gave_answers_are_refused():
    """Three calls that returned wrong answers before the numbers were
    checked: an orbit that never escaped a NaN radius, a NaN certified
    tolerance, and a brick of NaN radii."""
    with pytest.raises(InvalidInputError, match="radius"):
        orbit(PolynomialMap.univariate([0, 2]), 0.5, 60, radius=math.nan)
    with pytest.raises(InvalidInputError, match="refine_tol"):
        gamma_linear(np.diag([0.5, 2.0]), refine_tol=math.nan)
    with pytest.raises(InvalidInputError, match="tau"):
        BrickSpec.factorial(math.nan, 3)


def test_census_radius_and_tol_of_any_real_type_agree():
    """A radius given as int, float or np.float64 and a tol given as float
    or np.float64 give equal censuses, each on a fresh map."""
    first, *rest = [
        find_periodic(PolynomialMap.univariate([0.95, 0.0, -1.8]), 6, radius=radius, tol=tol)
        for radius in (1, 1.0, np.float64(1.0)) for tol in (1e-10, np.float64(1e-10))
    ]
    assert first.count == 15 and first.certified
    assert all(res == first for res in rest)


def _old_root_product_bounds(scale, roots, radius):
    """The root-product sup, D1 and D2 bounds as their own three loops."""
    p = abs(scale)
    for r in roots:
        p *= radius + abs(r)
    v, d = abs(scale), 0.0
    for r in roots:
        d = d * (radius + abs(r)) + v
        v = v * (radius + abs(r))
    v2, d2, dd = abs(scale), 0.0, 0.0
    for r in roots:
        dd = dd * (radius + abs(r)) + 2.0 * d2
        d2 = d2 * (radius + abs(r)) + v2
        v2 = v2 * (radius + abs(r))
    return p, d, dd


def test_root_product_bounds_and_identity_are_the_old_floats():
    """The root-product bounds from one shared loop, and the identity map
    built as a linear map, are the floats and rows of their own loops."""
    rng = np.random.default_rng(11)
    for k in range(8):
        scale = float(rng.normal()) * 10.0 ** int(rng.integers(-8, 8))
        roots = tuple(rng.uniform(-1.5, 1.5, k).tolist())
        for radius in (0.0, 0.5, 1.0625, float(rng.uniform(0.1, 3.0))):
            term = RootProductPerturbation(scale, roots)
            assert term.bounds(radius) == _old_root_product_bounds(scale, term.roots, radius)

    for dim in (1, 2, 3, 5):
        terms = {}
        for j in range(dim):
            vec = np.zeros(dim)
            vec[j] = 1.0
            terms[tuple(1 if i == j else 0 for i in range(dim))] = vec
        old = PolynomialMap.from_terms(dim, terms, 1.5)
        new = PolynomialMap.identity(dim, 1.5)
        assert new.dim == old.dim and new.domain_radius == old.domain_radius
        for a, b in ((new.exponents, old.exponents), (new.coeffs, old.coeffs)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _old_monomial_bounds(exponents, coeffs, radius):
    """The three monomial bound functions as they were before `bounds`, one
    pass each."""
    if len(exponents) == 0:
        return 0.0, 0.0, 0.0
    total = np.abs(exponents).sum(axis=1)
    sup = float(np.linalg.norm(np.abs(coeffs).T @ radius ** total.astype(float)))
    total = total.astype(float)
    dim = exponents.shape[1]
    D = np.zeros((coeffs.shape[1], dim))
    for j in range(dim):
        a_j = exponents[:, j].astype(float)
        mask = a_j > 0
        if not np.any(mask):
            continue
        w = a_j[mask] * radius ** (total[mask] - 1.0)
        D[:, j] = np.abs(coeffs[mask]).T @ w
    acc = 0.0
    for j in range(dim):
        for l in range(dim):
            a_j = exponents[:, j].astype(float)
            a_l = exponents[:, l].astype(float)
            factor = a_j * (a_j - 1.0) if j == l else a_j * a_l
            mask = (factor > 0) & (total >= 2)
            if not np.any(mask):
                continue
            w = factor[mask] * radius ** (total[mask] - 2.0)
            col = np.abs(coeffs[mask]).T @ w
            acc += float(np.sum(col * col))
    return sup, float(np.linalg.norm(D)), math.sqrt(acc)


def _old_brick_bounds(brick, dim, radius):
    """The three brick bound functions as they were before `brick_bounds`."""
    root = math.sqrt(dim)
    return (
        float(sum(r * radius**k for k, r in enumerate(brick.sizes))),
        float(sum(root * k * r * radius ** (k - 1) for k, r in enumerate(brick.sizes) if k >= 1)),
        float(sum(dim * k * (k - 1) * r * radius ** (k - 2) for k, r in enumerate(brick.sizes) if k >= 2)),
    )


def _old_term_bounds(term, radius):
    if isinstance(term, RootProductPerturbation):
        return _old_root_product_bounds(term.scale, term.roots, radius)
    return _old_monomial_bounds(term.exponents, term.coeffs, radius)


def test_bounds_are_the_old_floats():
    """`bounds` on monomial rows (none included, dims 1-3), on a perturbed
    map (its base's triple plus each term's, in term order) and
    `brick_bounds` on a brick of every family equal, with ==, the sup, D1
    and D2 of the six functions they replace."""
    rng = np.random.default_rng(30)
    radii = (0.0, 0.5, 1.0, 1.0625, 1.5)
    for dim in (1, 2, 3):
        for rows in (0, 1, 2, 5, 9):
            exponents = rng.integers(0, 5, size=(rows, dim))
            coeffs = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-6, 3, size=(rows, 1))
            f = PolynomialMap(dim, exponents, coeffs)
            for radius in radii + (float(rng.uniform(0.1, 3.0)),):
                assert f.bounds(radius) == _old_monomial_bounds(f.exponents, f.coeffs, radius)

    bricks = [BrickSpec.empty(), BrickSpec.factorial(0.01, 8), BrickSpec.geometric(0.05, 0.5, 6),
              BrickSpec.custom([0.1, 0.05, 0.01])]
    for brick in bricks:
        for dim in (1, 2, 3):
            for radius in radii:
                assert brick_bounds(brick, dim, radius) == _old_brick_bounds(brick, dim, radius)

    quad = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    henon = PolynomialMap.from_terms(2, {(0, 0): [1.0, 0.0], (2, 0): [-1.4, 0.0], (0, 1): [1.0, 0.0],
                                         (1, 0): [0.0, 0.3]}, domain_radius=1.5)
    maps = [
        PerturbedMap(quad),
        PerturbedMap(quad, [sample(bricks[1], 1, (42, 0)), RootProductPerturbation(1e-3, (0.1, -0.2)),
                            zero_vector(bricks[2], 1), RootProductPerturbation(-2e-4, ())]),
        PerturbedMap(quad, sample(bricks[3], 1, 3)).with_term(RootProductPerturbation(1e-5, (0.3,))),
        PerturbedMap(henon, [sample(bricks[2], 2, 5), sample(bricks[1], 2, 6)]),
    ]
    for f in maps:
        for radius in radii:
            old = [_old_term_bounds(t, radius) for t in (f.base,) + f.terms]
            want = tuple(old[0][i] + sum(t[i] for t in old[1:]) for i in range(3))
            assert f.bounds(radius) == want


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def test_prepared_bounds_equal_a_fresh_polynomials_in_any_order():
    """A polynomial keeps the radius-free parts of `bounds` from its first
    call; at radii 0.5, 1, 1.0625 and 1.5, asked in every order, each
    triple is bit for bit that of a fresh copy asked at that radius alone:
    1-D (a map and a brick sample), the 2-D Henon map, a 3-D cubic and the
    empty polynomial."""
    henon = {(0, 0): [1.0, 0.0], (2, 0): [-1.4, 0.0], (0, 1): [1.0, 0.0], (1, 0): [0.0, 0.3]}
    builders = [
        lambda: PolynomialMap.univariate([-1.0, 0.3, 1.0, -0.2]),
        lambda: sample(BrickSpec.factorial(0.01, 8), 1, (42, 0)),
        lambda: PolynomialMap.from_terms(2, henon, domain_radius=1.5),
        lambda: sample(BrickSpec.factorial(0.1, 3), 3, 7),
        lambda: PerturbationVector(2, ()),
    ]
    radii = (0.5, 1.0, 1.0625, 1.5)
    for build in builders:
        alone = {r: _hex(build().bounds(r)) for r in radii}
        for order in itertools.permutations(radii):
            p = build()
            assert [_hex(p.bounds(r)) for r in order] == [alone[r] for r in order]


def test_bounds_are_computed_once_per_map_and_radius(monkeypatch):
    """Two perturbed maps on one base, each given ranges, norm bounds and a
    census: each map's triple is computed once per radius, the shared base's
    once per radius for both, and each memo entry goes with its own map."""
    calls = []
    for cls in (PolynomialMap, PerturbedMap):
        def counted(self, radius, _bounds=cls.bounds):
            calls.append((self, radius))
            return _bounds(self, radius)
        monkeypatch.setattr(cls, "bounds", counted)
    gc.collect()
    before = len(dynamics._MEMO)
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    brick = BrickSpec.factorial(0.01, 8)
    maps = [PerturbedMap(base, sample(brick, 1, (42, i))) for i in range(2)]
    for f in maps:
        for radius in (1.0, 1.25):
            certified_range_1d(f, radius)
        norm_bounds(f, brick)
        find_periodic(f, 3, radius=1.25)
    f, g = maps
    assert calls == [(f, 1.0), (base, 1.0), (f, 1.25), (base, 1.25), (g, 1.0), (g, 1.25)]
    for h in (f, g, base):
        assert set(dynamics._MEMO[h]) >= {("bounds", 1.0), ("bounds", 1.25)}
        assert dynamics._MEMO[h]["bounds", 1.0] == h.bounds(1.0)
    assert dynamics._MEMO[f]["bounds", 1.0] != dynamics._MEMO[g]["bounds", 1.0]
    calls.clear()  # it holds the maps
    assert len(dynamics._MEMO) == before + 3
    del f, g, h
    maps.pop()
    gc.collect()
    assert len(dynamics._MEMO) == before + 2 and base in dynamics._MEMO
    maps.clear()
    gc.collect()
    assert len(dynamics._MEMO) == before + 1
    del base
    gc.collect()
    assert len(dynamics._MEMO) == before
