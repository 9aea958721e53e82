"""Tests for graded perturbation bricks, sampling, and tail bounds."""

import math

import numpy as np
import pytest

from orbitlab import (
    BrickSpec,
    ConfigurationError,
    HomogeneousComponent,
    InvalidInputError,
    PerturbationVector,
    PerturbedMap,
    PolynomialMap,
    check_admissible,
    multi_indices,
    multinomial,
    nu,
    sample,
    tail_bound,
    weighted_inner,
    zero_vector,
)


def test_multi_indices_counts():
    for dim in (1, 2, 3):
        for k in range(6):
            idx = multi_indices(k, dim)
            assert len(idx) == math.comb(k + dim - 1, dim - 1)
            assert all(sum(a) == k and len(a) == dim for a in idx)
    # deterministic ordering
    assert multi_indices(2, 2) == multi_indices(2, 2)


def test_multinomial_oracle():
    for alpha in [(3,), (2, 1), (1, 1, 1), (0, 4), (2, 0, 2)]:
        k = sum(alpha)
        by_hand = math.factorial(k)
        for a in alpha:
            by_hand //= math.factorial(a)
        assert multinomial(k, alpha) == by_hand


def test_multinomial_refuses_an_alpha_that_is_not_a_sequence():
    """An alpha that is a number or None raises InvalidInputError naming
    alpha, not a bare TypeError; an array of integers is a sequence."""
    for alpha in (5, 2.0, None):
        with pytest.raises(InvalidInputError, match=r"^alpha must be a sequence of integers"):
            multinomial(2, alpha)
    assert multinomial(3, np.array([2, 1])) == 3


def test_nu_is_coefficient_count():
    for dim in (1, 2, 3):
        for k in range(5):
            assert nu(k, dim) == len(multi_indices(k, dim)) * dim
    assert nu(0, 2) == 2
    assert nu(1, 2) == 4
    assert nu(4, 2) == 10


def test_brick_factorial_sizes():
    b = BrickSpec.factorial(0.1, 5)
    for k in range(6):
        assert b.sizes[k] == pytest.approx(0.1 / math.factorial(k), rel=1e-15)
    assert b.truncation_degree == 5


def test_brick_geometric_sizes():
    b = BrickSpec.geometric(0.5, 0.25, 4)
    for k in range(5):
        assert b.sizes[k] == pytest.approx(0.5 * 0.25**k, rel=1e-15)


def test_brick_validation():
    with pytest.raises(InvalidInputError):
        BrickSpec.factorial(-1.0, 3)
    with pytest.raises(InvalidInputError):
        BrickSpec.geometric(0.1, 1.5, 3)
    with pytest.raises(InvalidInputError):
        BrickSpec.custom([0.1, 0.5])  # increasing radii
    with pytest.raises(InvalidInputError):
        BrickSpec.custom([0.1, 0.0])  # zero radius
    assert BrickSpec.empty().truncation_degree == -1


def test_brick_record_roundtrip():
    for b in (
        BrickSpec.factorial(0.01, 8),
        BrickSpec.geometric(0.2, 0.5, 6),
        BrickSpec.custom([0.3, 0.2, 0.2]),
        BrickSpec.empty(),
    ):
        b2 = BrickSpec.from_record(b.to_record())
        assert b2.family == b.family
        assert b2.sizes == b.sizes
        assert b2.truncation_degree == b.truncation_degree


def test_check_admissible():
    cert = check_admissible(BrickSpec.factorial(0.1, 6), dim=3)
    assert cert.status == "admissible"
    assert cert.admissible is True
    assert cert.condition_a_converges

    cert = check_admissible(BrickSpec.geometric(0.1, 0.9, 4), dim=2)
    assert cert.status == "admissible"
    assert not cert.condition_a_converges  # 0.9 * sqrt(2) > 1

    cert = check_admissible(BrickSpec.custom([0.5, 0.25]), dim=1)
    assert cert.status == "finite-prefix-only"
    assert cert.admissible is None


def test_sample_membership(rng):
    b = BrickSpec.factorial(0.1, 6)
    for i in range(200):
        eps = sample(b, 1, (900, i))
        for k, comp in enumerate(eps.components):
            r = math.sqrt(weighted_inner(comp, comp))
            assert r <= b.sizes[k] * (1.0 + 1e-12)


def test_sample_membership_2d():
    b = BrickSpec.geometric(0.2, 0.5, 4)
    for i in range(100):
        eps = sample(b, 2, (901, i))
        for k, comp in enumerate(eps.components):
            r = math.sqrt(weighted_inner(comp, comp))
            assert r <= b.sizes[k] * (1.0 + 1e-12)


def test_sample_deterministic():
    b = BrickSpec.factorial(0.05, 5)
    a = sample(b, 2, 1234)
    c = sample(b, 2, 1234)
    d = sample(b, 2, 1235)
    for ca, cc in zip(a.components, c.components):
        assert np.array_equal(ca.coeffs, cc.coeffs)
    assert any(
        not np.array_equal(ca.coeffs, cd.coeffs)
        for ca, cd in zip(a.components, d.components)
    )


def test_vectors_and_components_compare_by_value():
    """Equal N-D draws are equal, and unequal ones are not (a coefficient
    array of more than one entry used to make == raise); 1-D draws compare
    as they always did."""
    b = BrickSpec.factorial(0.01, 3)
    for dim in (2, 3):
        a, c, d = sample(b, dim, 1), sample(b, dim, 1), sample(b, dim, 2)
        assert a == c and not a != c and a.components == c.components
        assert a != d and a.components[1] != d.components[1]
        moved = HomogeneousComponent(1, dim, np.nextafter(a.components[1].coeffs, 1.0))
        comps = (a.components[0], moved) + a.components[2:]
        assert PerturbationVector(dim, comps, a.brick, a.seed) != a
    one, other = sample(b, 1, 1), sample(b, 1, 2)
    assert one == sample(b, 1, 1) and one != other
    assert PerturbationVector.from_record(one.to_record()) == one
    assert HomogeneousComponent.zero(2, 1) != HomogeneousComponent.zero(3, 1)
    assert HomogeneousComponent.zero(2, 2) != "a component"


def test_value_matches_components():
    b = BrickSpec.factorial(0.1, 3)
    eps = sample(b, 2, 77)
    x = np.array([0.3, -0.2])
    manual = np.zeros(2)
    for comp in eps.components:
        for a, row in zip(comp.alphas, comp.coeffs):
            mono = np.prod(x**np.array(a))
            manual += row * mono
    got = eps.value(x)
    assert np.allclose(got, manual, atol=1e-14)


def test_nd_point_is_checked_as_the_maps_check_it():
    """A point of an N-D perturbation must be finite and of shape (dim,),
    for value and jac alike, as for the maps."""
    eps = sample(BrickSpec.factorial(0.1, 3), 2, 77)
    base = PolynomialMap.from_terms(2, {(1, 0): [1.0, 0.0], (0, 1): [0.0, 1.0]})
    for f in (eps.value, eps.jac, base.evaluate, PerturbedMap(base, eps).jac):
        for bad in ([np.nan, 0.0], [0.0, -np.inf], [0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(InvalidInputError):
                f(np.array(bad))


def test_value_many_matches_value():
    b = BrickSpec.factorial(0.1, 4)
    eps = sample(b, 1, 42)
    xs = np.linspace(-0.9, 0.9, 25).reshape(-1, 1)
    many = eps.value_many(xs)
    for x, v in zip(xs[:, 0], many[:, 0]):
        assert v == pytest.approx(float(np.asarray(eps.value(x)).ravel()[0]), abs=1e-14)


def test_derivative_is_calculus(rng):
    b = BrickSpec.factorial(0.1, 5)
    eps = sample(b, 1, 314)
    for x in rng.uniform(-0.8, 0.8, size=10):
        h = 1e-6
        fd = (float(np.ravel(eps.value(x + h))[0]) - float(np.ravel(eps.value(x - h))[0])) / (2 * h)
        assert eps.derivative(float(x)) == pytest.approx(fd, abs=1e-7)


def test_sup_bound_dominates_samples(rng):
    b = BrickSpec.factorial(0.2, 5)
    for i in range(20):
        eps = sample(b, 1, (55, i))
        xs = rng.uniform(-0.7, 0.7, size=50)
        vals = np.abs([float(np.ravel(eps.value(float(x)))[0]) for x in xs])
        assert vals.max() <= eps.bounds(0.7)[0] + 1e-12


def test_perturbation_record_roundtrip():
    b = BrickSpec.factorial(0.1, 4)
    eps = sample(b, 2, (3, 4))
    rec = eps.to_record()
    back = PerturbationVector.from_record(rec)
    assert back.dim == eps.dim
    for ca, cb in zip(eps.components, back.components):
        assert np.array_equal(ca.coeffs, cb.coeffs)


def test_zero_vector():
    b = BrickSpec.factorial(0.1, 4)
    z = zero_vector(b, 1)
    assert float(np.ravel(z.value(0.37))[0]) == 0.0
    assert z.bounds(1.0) == (0.0, 0.0, 0.0)


def test_tail_bound_geometric_closed_form():
    b = BrickSpec.geometric(0.3, 0.2, 6)
    dim = 2
    x = 0.2 * math.sqrt(dim)
    want = 0.3 * math.sqrt(dim) * x**7 / (1 - x)
    assert tail_bound(b, dim) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ConfigurationError):
        tail_bound(BrickSpec.geometric(0.3, 0.9, 4), 2)


def test_tail_bound_factorial_brute_force():
    b = BrickSpec.factorial(0.1, 8)
    dim = 1
    # brute-force the infinite sum far past numerical extinction
    brute = sum(0.1 / math.factorial(k) for k in range(9, 120))
    got = tail_bound(b, dim)
    assert got >= brute
    assert got == pytest.approx(brute, rel=1e-9)


def test_tail_bound_custom_is_finite_window():
    b = BrickSpec.custom([0.4, 0.2, 0.1])
    assert tail_bound(b, 1) == 0.0  # nothing beyond the list
    assert tail_bound(b, 1, k_max=0) == pytest.approx(0.2 + 0.1)


def test_tail_bound_is_small_for_tight_brick():
    assert tail_bound(BrickSpec.factorial(0.1, 20), 1, k_max=20) < 1e-18


def test_component_validation():
    with pytest.raises(InvalidInputError):
        HomogeneousComponent(2, 1, np.zeros((5, 1)))  # wrong row count


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("batch", [1, 3, 500])
def test_nd_value_equals_value_many_bitwise(dim, batch):
    xs = np.random.default_rng(10 * dim + batch).uniform(-1.0, 1.0, (batch, dim))
    for degree in (2, 6):
        eps = sample(BrickSpec.factorial(0.5, degree), dim, seed=(dim, degree))
        many = eps.value_many(xs)
        assert many.shape == (batch, dim)
        for x, row in zip(xs, many):
            assert eps.value(x).tobytes() == row.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("batch", [1, 3, 500])
def test_nd_jac_equals_jac_many_bitwise(dim, batch):
    xs = np.random.default_rng(10 * dim + batch).uniform(-1.0, 1.0, (batch, dim))
    for degree in (2, 6):
        eps = sample(BrickSpec.factorial(0.5, degree), dim, seed=(dim, degree))
        many = eps.jac_many(xs)
        assert many.shape == (batch, dim, dim)
        for x, J in zip(xs, many):
            assert eps.jac(x).tobytes() == J.tobytes()


def test_jac_many_in_one_dimension_is_the_derivative():
    eps = sample(BrickSpec.factorial(0.5, 5), 1, seed=(1, 5))
    base = PolynomialMap.univariate([0.1, -0.4, 0.3])
    xs = np.linspace(-1.0, 1.0, 7)
    for f in (eps, base, PerturbedMap(base, eps)):
        many = f.jac_many(xs)
        assert many.shape == (7, 1, 1)
        assert many.tobytes() == f.deriv_many(xs).tobytes()
