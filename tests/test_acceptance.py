"""Acceptance suite: one test per headline guarantee of the package.

Each test pins an end-to-end contract at a fixed tolerance, so a verbose
run prints one pass/fail line per guarantee.  Everything is seeded; the
suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from orbitlab import (
    BrickSpec,
    CannotPerturbError,
    EpsPolynomial,
    GrowthParams,
    MultijetPoint,
    PerturbedMap,
    PointTuple,
    PolynomialMap,
    RootProductPerturbation,
    closing_perturbation,
    divided_difference,
    find_periodic,
    gamma_linear,
    hyperbolicity_perturbation,
    jet_solve,
    lagrange_map,
    lagrange_map_inverse,
    lagrange_matrix,
    nu,
    orbit,
    p_km,
    product_of_distances,
    prop11_check,
    sample,
    snap_orbit,
    stage_tolerances,
    tail_bound,
    weighted_inner,
)
from orbitlab.experiment import ExperimentConfig, emit_reports, run_experiment

from conftest import random_contraction, spaced_points

GOLDEN = (1.0 - math.sqrt(5.0)) / 2.0


def test_a1_hyperbolicity_matches_eigenvalue_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        a = rng.uniform(-2.0, 2.0, size=(d, d))
        sym = (a + a.T) / 2.0
        oracle = float(np.min(np.abs(np.abs(np.linalg.eigvalsh(sym)) - 1.0)))
        assert gamma_linear(sym).gamma == pytest.approx(oracle, abs=1e-6)
    assert gamma_linear(np.eye(3)).gamma == pytest.approx(0.0, abs=1e-10)
    assert gamma_linear(2.0 * np.eye(3)).gamma == pytest.approx(1.0, abs=1e-10)
    assert time.monotonic() - start < 10.0


def test_a2_lagrange_kernel_identities(rng):
    start = time.monotonic()

    # (a) the coordinate change is volume preserving
    for i in range(50):
        n = (i % 8) + 1
        anchor = PointTuple(spaced_points(rng, n))
        assert abs(np.linalg.det(lagrange_matrix(anchor)) - 1.0) < 1e-9

    # (b) coefficient -> interpolation -> coefficient roundtrip
    worst = 0.0
    for n in range(1, 9):
        for _ in range(5):
            anchor = PointTuple(spaced_points(rng, n))
            eps = EpsPolynomial(rng.uniform(-1.0, 1.0, size=2 * n))
            back = lagrange_map_inverse(lagrange_map(eps, anchor))
            worst = max(worst, float(np.max(np.abs(back.eps - eps.eps))))
    assert worst < 1e-12

    # (c) order-m divided difference of x^k is the complete homogeneous sum
    for k in range(0, 13):
        for m in range(0, k + 1):
            pts = np.linspace(-1.0, 1.0, m + 1) if m else np.array([0.4])
            got = divided_difference(pts, pts**k)
            assert got == pytest.approx(p_km(pts, k), abs=1e-11)

    # (d) Newton-form interpolation reproduces polynomials up to degree 15
    for _ in range(25):
        deg = int(rng.integers(1, 16))
        coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        nodes = spaced_points(rng, deg + 1, low=-1.5, high=1.5)
        vals = poly(nodes)
        newton = [
            divided_difference(nodes[: m + 1], vals[: m + 1])
            for m in range(deg + 1)
        ]
        scale = max(1.0, float(np.max(np.abs(coeffs))), max(abs(a) for a in newton))
        for x in rng.uniform(-1.0, 1.0, size=20):
            acc, basis = 0.0, 1.0
            for m, a in enumerate(newton):
                acc += a * basis
                basis *= x - nodes[m]
            assert abs(acc - poly(x)) < 1e-10 * scale

    assert time.monotonic() - start < 30.0


def test_a3_closing_lemma_residuals(rng):
    # worked case: doubling map, three-step trajectory from 0.1
    f = PolynomialMap.univariate([0.0, 2.0], domain_radius=2.0)
    u, g = closing_perturbation(f, orbit(f, 0.1, 3))
    assert u == -3.0
    assert abs(g.evaluate(g.evaluate(0.1)) - 0.1) < 1e-14

    # 100 random non-degenerate trajectories of length up to 10
    accepted = attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 3000
        f = random_contraction(rng)
        n = int(rng.integers(1, 11))
        x0 = float(rng.uniform(-0.5, 0.5))
        traj = orbit(f, x0, n + 1)
        if product_of_distances(traj.points1d).value < 1e-6:
            continue
        u, g = closing_perturbation(f, traj)
        y = x0
        for _ in range(n):
            y = g.evaluate(y)
        assert abs(y - x0) < 1e-10
        accepted += 1


def test_a4_hyperbolicity_perturbation_contract(rng):
    successes = 0
    for _ in range(100):
        f = random_contraction(rng)
        n = int(rng.integers(1, 11))
        x0 = float(rng.uniform(-0.5, 0.5))
        seg = orbit(f, x0, n)
        gamma = float(rng.uniform(0.05, 0.8))
        try:
            v, g = hyperbolicity_perturbation(f, seg, gamma)
        except CannotPerturbError:
            continue
        successes += 1
        multiplier = 1.0
        for p, q in zip(seg.points1d, seg.images1d):
            # the perturbing polynomial vanishes at every orbit point
            assert abs(g.evaluate(float(p)) - float(q)) <= 1e-12
            multiplier *= g.derivative(float(p))
        assert abs(abs(multiplier) - 1.0) > gamma
    assert successes >= 60


def test_a5_census_oracle():
    start = time.monotonic()
    quad = PolynomialMap.univariate([-1.0, 0.0, 1.0])

    r1 = find_periodic(quad, 1)
    assert r1.certified and r1.count == 1
    assert r1.records[0].location == pytest.approx(GOLDEN, abs=1e-9)
    assert r1.gamma_n == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-6)

    r2 = find_periodic(quad, 2)
    assert r2.certified and r2.count == 3
    got = sorted(r.location for r in r2.records)
    for x, want in zip(got, sorted([-1.0, 0.0, GOLDEN])):
        assert x == pytest.approx(want, abs=1e-9)
    assert r2.gamma_n == pytest.approx(5.0 - 2.0 * math.sqrt(5.0), abs=1e-6)

    half = PolynomialMap.univariate([0.0, 0.5])
    for n in range(1, 11):
        r = find_periodic(half, n)
        assert r.certified and r.count == 1
        assert r.records[0].location == pytest.approx(0.0, abs=1e-9)
        assert r.gamma_n == pytest.approx(1.0 - 2.0**-n, abs=1e-9)

    assert time.monotonic() - start < 60.0


def test_a6_implied_constant_stays_bounded():
    for coeffs in ([0.0, 0.5], [-1.0, 0.0, 1.0]):
        report = prop11_check(PolynomialMap.univariate(coeffs), 10)
        values = []
        for row in report.rows:
            assert row.certified and row.applicable
            assert 0.0 < row.c_impl <= report.c_impl_max < 1.0
            values.append(row.c_impl)
        # bounded with no growth trend: the late values sit below the early peak
        assert max(values[5:]) < max(values[:5])

    # a planted cycle with multiplier exactly -1 must raise the flag
    base = PolynomialMap.univariate([0.0, 0.5], domain_radius=0.8)
    anchor = PointTuple([0.5, -0.5])
    target = MultijetPoint(anchor, values=[-0.75, 0.75], derivs=[0.5, -1.5])
    solved = jet_solve(anchor, target)
    g = base
    nodes = anchor.cyclic_nodes()
    for k, u_k in enumerate(solved.u):
        if u_k != 0.0:
            g = g.with_term(RootProductPerturbation(float(u_k), tuple(nodes[:k])))
    report = prop11_check(g, 2)
    assert not report.rows[1].applicable
    assert report.rows[1].c_impl is None
    assert report.c_impl_max == pytest.approx(report.rows[0].c_impl)


def test_a7_brick_sampling_statistics():
    b = BrickSpec.factorial(0.1, 6)

    # norm membership holds for every component of every draw
    for i in range(10_000):
        eps = sample(b, 1, (123, i))
        for k, comp in enumerate(eps.components):
            r = math.sqrt(weighted_inner(comp, comp))
            assert r <= b.sizes[k] * (1.0 + 1e-12)

    # radial law in two dimensions: CDF of the scaled norm is t^nu(k, 2)
    radii = {0: [], 1: [], 4: []}
    for i in range(2000):
        eps = sample(b, 2, (7, i))
        for k in radii:
            comp = eps.components[k]
            radii[k].append(math.sqrt(weighted_inner(comp, comp)) / b.sizes[k])
    for k, vals in radii.items():
        d = nu(k, 2)
        stat = kstest(vals, lambda t, d=d: np.clip(t, 0.0, 1.0) ** d)
        assert stat.pvalue > 0.01

    assert tail_bound(BrickSpec.factorial(0.1, 20), 1, k_max=20) < 1e-18


def test_a8_grid_stage_formulas(rng):
    growth = GrowthParams(C=1.0, delta=0.1, rho=1.0)
    st = stage_tolerances(2, 1, 2.0, growth)
    assert st.gamma_n == pytest.approx(math.exp(-(2.0**1.1)), abs=1e-6)
    assert st.grid_spacing == pytest.approx(math.exp(-(2.0**1.1)) / 16.0, abs=1e-6)

    # snapped true orbits satisfy the pseudo-trajectory slack bound: 1000 trials
    trials = 0

    # random polynomial contractions, fixed point repeated as a period-n orbit
    for _ in range(400):
        f = random_contraction(rng)
        c = f._uni
        m = max(1.0, float(sum(abs(ck) * k for k, ck in enumerate(c))))
        n = int(rng.integers(1, 4))
        st = stage_tolerances(n, 1, m, growth)
        x_star = brentq(lambda x: f.evaluate(x) - x, -1.0, 1.0, xtol=1e-15)
        res = snap_orbit(f, np.full(n, x_star), st.grid_spacing)
        assert res.slack <= st.pseudo_slack + 1e-15
        trials += 1

    # brick-perturbed halving maps
    base = PolynomialMap.univariate([0.0, 0.5], domain_radius=1.0)
    brick = BrickSpec.factorial(0.01, 5)
    for i in range(300):
        f = PerturbedMap(base, sample(brick, 1, (606, i)))
        n = int(rng.integers(1, 4))
        st = stage_tolerances(n, 1, 2.0, growth)
        x_star = brentq(lambda x: f.evaluate(x) - x, -1.0, 1.0, xtol=1e-15)
        res = snap_orbit(f, np.full(n, x_star), st.grid_spacing)
        assert res.slack <= st.pseudo_slack + 1e-15
        trials += 1

    # genuine 2-cycles of x^2 + c, placed analytically
    for _ in range(300):
        c = float(rng.uniform(-1.2, -0.8))
        f = PolynomialMap.univariate([c, 0.0, 1.0], domain_radius=2.5)
        disc = math.sqrt(-3.0 - 4.0 * c)
        pts = np.array([(-1.0 + disc) / 2.0, (-1.0 - disc) / 2.0])
        st = stage_tolerances(2, 1, 5.0, growth)
        res = snap_orbit(f, pts, st.grid_spacing)
        assert res.slack <= st.pseudo_slack + 1e-15
        trials += 1

    assert trials == 1000


def test_a9_monte_carlo_end_to_end(tmp_path):
    start = time.monotonic()
    cfg = dict(
        map="quadratic",
        brick={"family": "factorial", "tau": 0.01, "truncation_degree": 8},
        num_samples=50,
        master_seed=42,
        n_max=8,
        deltas=[1.0],
    )
    result = run_experiment(ExperimentConfig(**cfg))
    assert result.num_aborted == 0
    for s in result.samples:
        if all(certified for (_, _, _, certified) in s.rows):
            fits = dict(s.fits)
            assert math.isfinite(fits[1.0])

    # reports are byte-identical across two runs with the same seed
    emit_reports(result, str(tmp_path / "one"))
    emit_reports(run_experiment(ExperimentConfig(**cfg)), str(tmp_path / "two"))
    for name in ("samples.ndjson", "table.csv", "summary.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b

    assert time.monotonic() - start < 600.0
