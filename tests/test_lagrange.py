"""Tests for divided differences, the triangular change of basis, jets, and
the orbit surgeries built on them."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    CannotPerturbError,
    EpsPolynomial,
    InvalidInputError,
    LagrangeCoefficients,
    MultijetPoint,
    NearDiagonalError,
    PointTuple,
    PolynomialMap,
    RecurrenceError,
    closing_perturbation,
    divided_difference,
    hyperbolicity_perturbation,
    jet_eval,
    jet_solve,
    lagrange_map,
    lagrange_map_inverse,
    lagrange_matrix,
    multijet,
    orbit,
    p_km,
    product_of_distances,
)

from conftest import spaced_points


# -- divided differences ------------------------------------------------------


def test_first_order_slope():
    # g(x) = x^2 on (1, 2): (4 - 1)/(2 - 1) = 3
    assert divided_difference([1.0, 2.0], [1.0, 4.0]) == pytest.approx(3.0)


def test_second_order_of_square_is_one(rng):
    for _ in range(5):
        pts = spaced_points(rng, 3)
        vals = pts**2
        assert divided_difference(pts, vals) == pytest.approx(1.0, abs=1e-11)


def test_high_order_of_low_degree_is_zero(rng):
    # m > k kills x^k
    pts = spaced_points(rng, 5)
    vals = pts**2
    assert divided_difference(pts, vals) == pytest.approx(0.0, abs=1e-10)


def test_confluent_pair_is_derivative():
    # g(x) = x^3 at the doubled point 0.4: g'(0.4) = 0.48
    got = divided_difference([0.4, 0.4], [0.064, 0.064], derivs=[0.48, None])
    assert got == pytest.approx(0.48)


def test_confluent_pair_conflicting_derivatives_rejected_in_either_order():
    """Divided differences are symmetric, so two different derivatives at
    one point are refused whatever their order; two equal ones are one."""
    for derivs in ([0.48, 0.9], [0.9, 0.48]):
        with pytest.raises(InvalidInputError, match="conflicting derivatives"):
            divided_difference([0.4, 0.4], [0.064, 0.064], derivs=derivs)
    for derivs in ([0.48, 0.48], [None, 0.48]):
        assert divided_difference([0.4, 0.4], [0.064, 0.064], derivs=derivs) == 0.48
    with pytest.raises(InvalidInputError, match="conflicting values"):
        divided_difference([0.4, 0.4], [0.064, 0.065], derivs=[0.48, None])


def test_no_points_rejected():
    with pytest.raises(InvalidInputError, match="at least one point"):
        divided_difference([], [])
    with pytest.raises(InvalidInputError, match="at least one point"):
        p_km([], 2)


def test_confluent_triple_rejected():
    with pytest.raises(InvalidInputError):
        divided_difference([0.3, 0.3, 0.3], [0.0, 0.0, 0.0], derivs=[1.0, 1.0, 1.0])


def test_confluent_missing_derivative():
    with pytest.raises(InvalidInputError):
        divided_difference([0.3, 0.3], [0.1, 0.1])


def test_symmetry_under_permutation(rng):
    pts = spaced_points(rng, 4)
    g = lambda x: math.sin(x)
    base = divided_difference(pts, [g(p) for p in pts])
    for perm in itertools.permutations(range(4)):
        q = pts[list(perm)]
        assert divided_difference(q, [g(p) for p in q]) == pytest.approx(base, abs=1e-11)


# -- p_km ----------------------------------------------------------------------


def complete_homogeneous(pts, d):
    """Brute-force sum of all degree-d monomials in the given points."""
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(len(pts)), d):
        term = 1.0
        for j in combo:
            term *= pts[j]
        total += term
    return total


def test_p_km_examples():
    assert p_km([1.0, 2.0], 2) == pytest.approx(3.0)  # x_0 + x_1
    assert p_km([0.0, 1.0], 3) == pytest.approx(1.0)  # 0^2 + 0*1 + 1^2
    assert p_km([0.7, -0.3, 0.1], 2) == pytest.approx(1.0)  # k == m
    assert p_km([0.7, -0.3, 0.1, 0.5], 1) == 0.0  # k < m


def test_p_km_is_complete_homogeneous(rng):
    for _ in range(10):
        m = int(rng.integers(0, 4))
        k = int(rng.integers(m, 8))
        pts = rng.uniform(-1.5, 1.5, size=m + 1)
        assert p_km(pts, k) == pytest.approx(
            complete_homogeneous(pts, k - m), rel=1e-10, abs=1e-10
        )


def test_p_km_matches_divided_difference_of_power(rng):
    for _ in range(10):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(m, 13))
        pts = spaced_points(rng, m + 1)
        vals = pts**k
        assert divided_difference(pts, vals) == pytest.approx(
            p_km(pts, k), rel=1e-9, abs=1e-11
        )


# -- the triangular change of basis ----------------------------------------------


def test_lagrange_matrix_unit_upper_triangular(rng):
    anchor = PointTuple(spaced_points(rng, 4))
    T = lagrange_matrix(anchor)
    assert T.shape == (8, 8)
    assert np.allclose(np.diag(T), 1.0)
    assert np.allclose(np.tril(T, -1), 0.0)
    assert abs(np.linalg.det(T) - 1.0) < 1e-9


def test_lagrange_matrix_entries_equal_p_km_bitwise(rng):
    """T is built by p_km's own recurrence, so each entry on and above the
    diagonal is p_km's float result exactly, repeated points included."""
    for n in (1, 2, 3, 5, 8, 13, 16):
        pts = rng.uniform(-1.0, 1.0, size=n)
        if n > 1:
            pts[rng.integers(1, n)] = pts[0]
        anchor = PointTuple(pts)
        T = lagrange_matrix(anchor)
        z = anchor.cyclic_nodes()
        for m in range(2 * n):
            for k in range(m, 2 * n):
                assert T[m, k] == p_km(z[: m + 1], k)


def test_lagrange_map_n1_worked_example():
    # n=1, anchor (0.5), eps=(1,2): u_0 = 1 + 2*0.5 = 2, u_1 = 2
    u = lagrange_map(EpsPolynomial([1.0, 2.0]), PointTuple([0.5]))
    assert np.allclose(u.u, [2.0, 2.0])
    back = lagrange_map_inverse(u)
    assert np.allclose(back.eps, [1.0, 2.0])


def test_lagrange_roundtrip(rng):
    for n in (1, 2, 3, 5):
        anchor = PointTuple(spaced_points(rng, n))
        eps = EpsPolynomial(rng.uniform(-1, 1, size=2 * n))
        u = lagrange_map(eps, anchor)
        back = lagrange_map_inverse(u)
        assert np.allclose(back.eps, eps.eps, atol=1e-12)


def test_zero_maps_to_zero():
    anchor = PointTuple([0.2, -0.4])
    u = lagrange_map(EpsPolynomial(np.zeros(4)), anchor)
    assert np.all(u.u == 0.0)
    eps = lagrange_map_inverse(LagrangeCoefficients(np.zeros(4), anchor))
    assert np.all(eps.eps == 0.0)


# -- jets -------------------------------------------------------------------------


def test_jet_eval_constant():
    anchor = PointTuple([0.1, 0.7, -0.3])
    u = LagrangeCoefficients([2.5, 0, 0, 0, 0, 0], anchor)
    jet = jet_eval(u)
    assert np.allclose(jet.values, 2.5)
    assert np.allclose(jet.derivs, 0.0)


def test_jet_eval_worked_example():
    # u = (0,1,0,0) over (0.1, 0.2) is the polynomial x - 0.1
    jet = jet_eval(LagrangeCoefficients([0, 1, 0, 0], PointTuple([0.1, 0.2])))
    assert np.allclose(jet.values, [0.0, 0.1])
    assert np.allclose(jet.derivs, [1.0, 1.0])


def test_jet_eval_consistent_with_monomial_path(rng):
    for n in (1, 2, 4):
        anchor = PointTuple(spaced_points(rng, n))
        eps = EpsPolynomial(rng.uniform(-1, 1, size=2 * n))
        jet = jet_eval(lagrange_map(eps, anchor))
        coresp = np.polynomial.Polynomial(eps.eps)
        dcoresp = coresp.deriv()
        assert np.allclose(jet.values, coresp(anchor.points), atol=1e-11)
        assert np.allclose(jet.derivs, dcoresp(anchor.points), atol=1e-11)


def test_jet_solve_roundtrip(rng):
    for n in (1, 2, 3, 6):
        anchor = PointTuple(spaced_points(rng, n))
        u = LagrangeCoefficients(rng.uniform(-1, 1, size=2 * n), anchor)
        jet = jet_eval(u)
        solved = jet_solve(anchor, jet)
        assert np.allclose(solved.u, u.u, atol=1e-9)


def test_jet_solve_zero_target():
    anchor = PointTuple([0.3, -0.6])
    jet = MultijetPoint(anchor, np.zeros(2), np.zeros(2))
    assert np.allclose(jet_solve(anchor, jet).u, 0.0)


def test_jet_solve_on_diagonal_blows_up():
    anchor = PointTuple([0.25, 0.25])
    jet = MultijetPoint(anchor, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(NearDiagonalError):
        jet_solve(anchor, jet)


def test_multijet_identity_and_quadratic():
    ident = PolynomialMap.univariate([0.0, 1.0])
    anchor = PointTuple([0.3, -0.2])
    jet = multijet(ident, anchor)
    assert np.allclose(jet.values, anchor.points)
    assert np.allclose(jet.derivs, 1.0)

    quad = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.5)
    jet = multijet(quad, PointTuple([0.0, -1.0]))
    assert np.allclose(jet.values, [-1.0, 0.0])
    assert np.allclose(jet.derivs, [0.0, -2.0])


# -- closing ----------------------------------------------------------------------


def test_closing_worked_example():
    f = PolynomialMap.univariate([0.0, 2.0], domain_radius=2.0)
    traj = orbit(f, 0.1, 3)  # points 0.1, 0.2, 0.4; length n+1 with n = 2
    u, g = closing_perturbation(f, traj)
    assert u == -3.0
    x = g.evaluate(g.evaluate(0.1))
    assert abs(x - 0.1) < 1e-14
    # the first step of the trajectory is untouched
    assert g.evaluate(0.1) == pytest.approx(0.2, abs=1e-14)


def test_closing_already_periodic():
    f = PolynomialMap.univariate([0.0, 0.0, 1.0], domain_radius=1.5)  # x^2
    u, g = closing_perturbation(f, np.array([1.0, 1.0]))
    assert u == 0.0
    assert g.evaluate(0.7) == pytest.approx(f.evaluate(0.7))


def test_closing_recurrent_trajectory_rejected():
    f = PolynomialMap.univariate([0.0, 2.0], domain_radius=4.0)
    # x_{n-1} equals x_0, so the distance product vanishes
    with pytest.raises(RecurrenceError):
        closing_perturbation(f, np.array([0.3, 0.5, 0.3, 0.6]))


def test_closing_random_cases(rng):
    f = PolynomialMap.univariate([0.05, 0.6, -0.2], domain_radius=1.0)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        x0 = float(rng.uniform(-0.5, 0.5))
        traj = orbit(f, x0, n + 1)
        if product_of_distances(traj.points1d).value < 1e-6:
            continue
        u, g = closing_perturbation(f, traj)
        y = x0
        for _ in range(n):
            y = g.evaluate(y)
        assert abs(y - x0) < 1e-10


# -- hyperbolicity surgery ----------------------------------------------------------


def test_hyperbolicity_identity_fixed_point():
    ident = PolynomialMap.univariate([0.0, 1.0])
    seg = orbit(ident, 0.0, 1)
    v, g = hyperbolicity_perturbation(ident, seg, 0.1)
    assert v == pytest.approx(0.11)  # gamma + default margin, tie resolved positive
    assert abs(abs(g.derivative(0.0)) - 1.0) > 0.1
    assert g.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)


def test_hyperbolicity_already_hyperbolic():
    f = PolynomialMap.univariate([0.0, 0.5])
    seg = orbit(f, 0.0, 1)
    v, g = hyperbolicity_perturbation(f, seg, 0.2)
    assert v == 0.0


def test_hyperbolicity_preserves_orbit(rng):
    f = PolynomialMap.univariate([0.1, -0.7, 0.3], domain_radius=1.0)
    seg = orbit(f, 0.2, 3)
    v, g = hyperbolicity_perturbation(f, seg, 0.9)
    for p, q in zip(seg.points1d, seg.images1d):
        assert g.evaluate(float(p)) == pytest.approx(float(q), abs=1e-12)
    # multiplier strictly clears the requested gap
    m = 1.0
    for p in seg.points1d:
        m *= g.derivative(float(p))
    assert abs(abs(m) - 1.0) > 0.9


def test_hyperbolicity_vanishing_coefficient():
    quad = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.5)
    seg = orbit(quad, 0.0, 2)  # 2-cycle (0, -1), f'(0) = 0
    with pytest.raises(CannotPerturbError):
        hyperbolicity_perturbation(quad, seg, 0.5)


def test_hyperbolicity_distance_overflow_cannot_perturb():
    """Orbit points 2e200 apart square past the largest float: the affine
    coefficient is not finite, which is CannotPerturbError, not a bare
    OverflowError."""
    f = PolynomialMap.univariate([0.0, 0.5])
    with pytest.raises(CannotPerturbError, match="does not respond"):
        hyperbolicity_perturbation(f, np.array([1e200, -1e200]), 0.1)


def test_hyperbolicity_rejects_bad_gamma():
    f = PolynomialMap.univariate([0.0, 1.0])
    seg = orbit(f, 0.0, 1)
    with pytest.raises(InvalidInputError):
        hyperbolicity_perturbation(f, seg, -1.0)


# -- distance products ---------------------------------------------------------------


def test_product_of_distances_worked():
    dp = product_of_distances([0.0, 0.5, 0.25])
    assert dp.value == pytest.approx(0.0625)
    assert dp.log == pytest.approx(math.log(0.0625))


def test_product_of_distances_degenerate():
    dp = product_of_distances([0.3, 0.1, 0.3])
    assert dp.value == 0.0
    assert dp.log == -math.inf
    assert product_of_distances([0.2, 0.9]).value == pytest.approx(0.7)
    with pytest.raises(InvalidInputError):
        product_of_distances([0.5])


def test_point_tuple_properties():
    t = PointTuple([0.1, 0.4, 0.2])
    assert t.n == 3
    assert t.min_gap == pytest.approx(0.1)
    assert np.allclose(t.cyclic_nodes(), [0.1, 0.4, 0.2, 0.1, 0.4, 0.2])
    assert PointTuple([0.5]).min_gap == math.inf
    with pytest.raises(InvalidInputError):
        PointTuple([])
    with pytest.raises(InvalidInputError):
        EpsPolynomial([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    """Anchors, coefficients and jets hold finite numbers only: one NaN or
    infinity is refused when the object is built, so a solve or an
    evaluation never runs on it."""
    anchor = PointTuple([0.1, -0.3])
    with pytest.raises(InvalidInputError, match="non-finite anchor point"):
        PointTuple([0.1, bad])
    with pytest.raises(InvalidInputError, match="non-finite monomial coefficient"):
        EpsPolynomial([0.5, bad, 0.0, 0.1])
    with pytest.raises(InvalidInputError, match="non-finite Newton coefficient"):
        LagrangeCoefficients([0.5, 0.0, bad, 0.1], anchor)
    with pytest.raises(InvalidInputError, match="non-finite jet value"):
        MultijetPoint(anchor, [bad, 0.2], [1.0, 0.0])
    with pytest.raises(InvalidInputError, match="non-finite jet derivative"):
        MultijetPoint(anchor, [0.1, 0.2], [1.0, bad])


# -- the float loops against the NumPy-indexed ones ----------------------------------
#
# In-test copies of the NumPy-indexed loops that jet_solve and jet_eval ran
# before they ran on Python floats; the float loops must give their results
# bit for bit.


def _numpy_jet_solve(anchor, values, derivs):
    """u as an array, or ("row", row, product) where it met the floor."""
    n = anchor.n
    x = anchor.points
    z = anchor.cyclic_nodes()
    size = 2 * n
    floor = 1e-250 * max(1.0, float(np.max(np.abs(x))))
    B = np.empty((size + 1, n))
    dB = np.empty((size + 1, n))
    B[0] = 1.0
    dB[0] = 0.0
    for k in range(size):
        dB[k + 1] = dB[k] * (x - z[k]) + B[k]
        B[k + 1] = B[k] * (x - z[k])
    u = np.zeros(size)
    for i in range(n):
        div = B[i][i]
        if abs(div) < floor:
            return ("row", i, float(div))
        acc = values[i]
        for k in range(i):
            acc -= u[k] * B[k][i]
        u[i] = acc / div
    for i in range(n):
        row = n + i
        div = dB[row][i]
        if abs(div) < floor:
            return ("row", row, float(div))
        acc = derivs[i]
        for k in range(row):
            acc -= u[k] * dB[k][i]
        u[row] = acc / div
    return u


def _numpy_jet_eval(u, anchor):
    nodes = anchor.cyclic_nodes()[:-1]
    vals = np.empty(anchor.n)
    ders = np.empty(anchor.n)
    for i, x in enumerate(anchor.points):
        b = u[-1]
        db = 0.0
        for k in range(len(u) - 2, -1, -1):
            db = b + (x - nodes[k]) * db
            b = u[k] + (x - nodes[k]) * b
        vals[i], ders[i] = b, db
    return vals, ders


_number = st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _anchors(draw):
    """1-18 points, some moved onto or next to others: equal, a few ulps
    apart, or apart by amounts whose products fall under the floor."""
    pts = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=18))
    moves = st.tuples(st.integers(0, 17), st.integers(0, 17),
                      st.sampled_from([0.0, 1e-300, 1e-200, 1e-130, 1e-80, 1e-20]))
    for i, j, gap in draw(st.lists(moves, max_size=3)):
        pts[i % len(pts)] = pts[j % len(pts)] + gap
    return PointTuple(pts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(anchor=_anchors(), data=st.data())
def test_jet_kernel_on_floats_matches_numpy_indexed_loops(anchor, data):
    """jet_solve and jet_eval give the NumPy-indexed loops' coefficients,
    values and derivatives with equal bytes, and jet_solve stops at the
    same row with the same product on anchors near the diagonal.  A result
    that overflows is refused by the finite check of its type."""
    n = anchor.n
    values = np.array(data.draw(st.lists(_number, min_size=n, max_size=n)))
    derivs = np.array(data.draw(st.lists(_number, min_size=n, max_size=n)))
    coeffs = np.array(data.draw(st.lists(_number, min_size=2 * n, max_size=2 * n)))
    with np.errstate(all="ignore"):
        want_u = _numpy_jet_solve(anchor, values, derivs)
        want_jet = _numpy_jet_eval(coeffs, anchor)
    if isinstance(want_u, tuple):
        with pytest.raises(NearDiagonalError) as info:
            jet_solve(anchor, MultijetPoint(anchor, values, derivs))
        assert ("row", info.value.row, info.value.product.hex()) == want_u[:2] + (want_u[2].hex(),)
    elif np.isfinite(want_u).all():
        assert jet_solve(anchor, MultijetPoint(anchor, values, derivs)).u.tobytes() == want_u.tobytes()
    else:
        with pytest.raises(InvalidInputError, match="non-finite Newton coefficient"):
            jet_solve(anchor, MultijetPoint(anchor, values, derivs))
    u = LagrangeCoefficients(coeffs, anchor)
    if np.isfinite(want_jet).all():
        jet = jet_eval(u)
        assert (jet.values.tobytes(), jet.derivs.tobytes()) == tuple(a.tobytes() for a in want_jet)
    else:
        with pytest.raises(InvalidInputError, match="non-finite jet"):
            jet_eval(u)

