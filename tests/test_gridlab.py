"""Tests for stage tolerances, lattice snapping, pseudotrajectory enumeration,
and the recurrence diagnostics."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from orbitlab import (
    BrickSpec,
    GridTrajectory,
    GrowthParams,
    InvalidInputError,
    PerturbedMap,
    PolynomialMap,
    RootProductPerturbation,
    cells_per_axis,
    classify_simple,
    close_return,
    enumerate_pseudotrajectories,
    norm_bounds,
    orbit,
    sample,
    snap,
    snap_orbit,
    stage_tolerances,
)
from orbitlab.gridlab import _collect_samples

from conftest import random_contraction


def half():
    return PolynomialMap.univariate([0.0, 0.5], domain_radius=1.0)


# -- stage tolerances ------------------------------------------------------------


def test_stage_tolerances_worked_example():
    st = stage_tolerances(2, 1, 2.0, GrowthParams(C=1.0, delta=0.1))
    gamma = math.exp(-(2.0**1.1))
    assert st.gamma_n == pytest.approx(gamma, rel=1e-12)
    assert st.grid_spacing == pytest.approx(gamma / 16.0, rel=1e-12)
    assert st.pseudo_slack == pytest.approx(3.0 * st.grid_spacing, rel=1e-12)
    assert not st.saturated


def test_stage_one_ignores_delta():
    for delta in (0.1, 1.0, 3.0):
        st = stage_tolerances(1, 1, 2.0, GrowthParams(C=0.7, delta=delta))
        assert st.gamma_n == pytest.approx(math.exp(-0.7), rel=1e-14)


def test_unit_norm_bound_collapses_spacing():
    st = stage_tolerances(3, 1, 1.0, GrowthParams(C=0.5, delta=0.2))
    assert st.grid_spacing == pytest.approx(st.gamma_n, rel=1e-12)
    st2 = stage_tolerances(3, 4, 1.0, GrowthParams(C=0.5, delta=0.2))
    assert st2.grid_spacing == pytest.approx(st.gamma_n / 4.0, rel=1e-12)


def test_stage_tolerances_invariants():
    growth = GrowthParams(C=0.8, delta=0.4, rho=0.5)
    prev = None
    for n in range(1, 8):
        st = stage_tolerances(n, 2, 3.0, growth)
        assert st.gamma_n > 0 and st.grid_spacing > 0 and st.pseudo_slack > 0
        assert st.grid_spacing <= st.gamma_n ** (1.0 / growth.rho) / 2.0 + 1e-300
        assert st.pseudo_slack == pytest.approx(2.0 * 4.0 * st.grid_spacing)
        if prev is not None:
            assert st.gamma_n < prev.gamma_n
            assert st.grid_spacing < prev.grid_spacing
        prev = st


def test_stage_tolerances_saturation():
    st = stage_tolerances(2, 1, 2.0, GrowthParams(C=400.0, delta=1.0))
    assert st.saturated
    assert st.grid_spacing == 0.0
    assert st.log_grid_spacing == pytest.approx(-1600.0 - 4.0 * math.log(2.0))
    assert math.isfinite(st.log_grid_spacing)


def test_stage_tolerances_validation():
    g = GrowthParams(C=1.0, delta=1.0)
    with pytest.raises(InvalidInputError):
        stage_tolerances(0, 1, 2.0, g)
    with pytest.raises(InvalidInputError):
        stage_tolerances(1, 0, 2.0, g)
    with pytest.raises(InvalidInputError):
        stage_tolerances(1, 1, 0.5, g)
    with pytest.raises(InvalidInputError):
        stage_tolerances(1, 1, math.inf, g)


# -- snapping ----------------------------------------------------------------------


def test_snap_scalar_and_ties():
    assert snap(0.075, 0.01) == pytest.approx(0.08)  # 7.5 rounds half to even
    assert snap(2.5, 1.0) == 2.0  # half to even
    assert snap(3.5, 1.0) == 4.0
    assert snap(-0.31, 0.1) == pytest.approx(-0.3)


def test_snap_array():
    out = snap(np.array([0.11, -0.27, 0.0]), 0.1)
    assert np.allclose(out, [0.1, -0.3, 0.0])
    with pytest.raises(InvalidInputError):
        snap(0.5, 0.0)


@pytest.mark.parametrize("x, spacing", [(1e300, 1e-10), ([0.25, -1e300], 1e-10), (1.7976931348623157e308, 3.0)])
def test_snap_refuses_a_point_with_no_float_lattice_point(x, spacing):
    """|x| / spacing past the largest float (1e310), or a lattice point
    that rounds past it (the largest float over 3, times 3), is refused
    naming that quotient, with no overflow warning and no inf returned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"\|x\| / spacing"):
            snap(x, spacing)
        # a quotient below the largest float still snaps
        assert snap([0.25, -1e290], 1e-10)[1] == pytest.approx(-1e290, rel=1e-15)


def test_cells_per_axis():
    assert cells_per_axis(1.0, 0.1) == 21
    assert cells_per_axis(1.0, 0.5) == 5
    assert cells_per_axis(1.0, 10.0) == 1
    for h in (0.3, 0.07, 0.011, 0.49):
        assert abs(cells_per_axis(1.0, h) - math.ceil(2.0 / h)) <= 1


def test_a_spacing_too_fine_to_index_is_refused():
    """A spacing whose cells per half axis overflow a float, or, in the
    enumeration, reach 2^62, raises InvalidInputError naming `spacing`: not
    OverflowError, and not a count of 0 from a wrapped int64 cast.  Just
    below 2^62 the lattice is indexed: the fixed point 0 of x/2 with no
    slack is one tuple."""
    calls = [
        lambda: cells_per_axis(1e300, 1e-10),
        lambda: enumerate_pseudotrajectories(half(), 1e-320, 0.1, 0, 2),
        lambda: enumerate_pseudotrajectories(half(), 1e-20, 0.1, 0, 2),
        lambda: enumerate_pseudotrajectories(half(), 2.0**-62, 0.1, 0, 2),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match=r"^spacing "):
            call()
    assert cells_per_axis(1.0, 1e-20) == 2 * 10**20 + 1
    assert enumerate_pseudotrajectories(half(), 2.0**-61, 0.0, 0, 2).count == 1


def test_a_point_too_far_off_the_lattice_to_index_is_refused():
    """A finite start of an enumeration, or point of a snapped orbit, more
    than 2^62 cells from 0 (or so far that its quotient by the spacing is
    inf) raises InvalidInputError naming it before the int64 cast, which
    would warn of an invalid value.  At 2^62 cells the start is indexed and
    refused as off the domain's lattice, and an orbit at 2^61 cells snaps."""
    calls = [
        (lambda: enumerate_pseudotrajectories(half(), 0.5, 0.1, 1e300, 2), "start"),
        (lambda: enumerate_pseudotrajectories(half(), 0.5, 0.1, [1e300], 2), "start"),
        (lambda: snap_orbit(half(), [0.5, 0.25], 1e-300), "orbit"),
        (lambda: snap_orbit(half(), [1e300, 0.25], 1e-300), "orbit"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, name in calls:
            with pytest.raises(InvalidInputError, match=rf"^\|{name}\| / spacing "):
                call()
        with pytest.raises(InvalidInputError, match="^start lies outside the lattice"):
            enumerate_pseudotrajectories(half(), 0.5, 0.1, 2.0**62 * 0.5, 2)
        cells = snap_orbit(half(), [0.5, 0.25], 2.0**-62).trajectory.cells
    assert cells[:, 0].tolist() == [2**61, 2**60]


def test_grid_trajectory_points_and_validation():
    traj = GridTrajectory(spacing=0.25, cells=np.array([2, -1, 0]))
    assert traj.n == 3 and traj.dim == 1
    assert np.allclose(traj.points[:, 0], [0.5, -0.25, 0.0])
    with pytest.raises(InvalidInputError):
        GridTrajectory(spacing=0.25, cells=np.zeros((0, 1)))


def test_realized_slack_is_the_loop_over_points_bit_for_bit():
    """The slack from one eval_many call is the slack of the loop over
    evaluate at each point, bit for bit, on a 1-D map with a root-product
    term and on the 2-D Henon map; a trajectory of another dimension than
    the map's is refused."""
    def loop(traj, f):
        pts = traj.points
        worst = 0.0
        for k in range(traj.n):
            x = pts[k] if traj.dim > 1 else float(pts[k, 0])
            y = np.atleast_1d(np.asarray(f.evaluate(x), dtype=float))
            worst = max(worst, float(np.max(np.abs(y - pts[(k + 1) % traj.n]))))
        return worst

    rng = np.random.default_rng(5)
    line = PolynomialMap.univariate([0.1, 0.3, -0.9]).with_term(RootProductPerturbation(0.05, (0.2, -0.4, 0.7)))
    henon = PolynomialMap.from_terms(2, HENON, domain_radius=1.5)
    for f in (line, henon):
        for n in (1, 2, 7, 40):
            for spacing in (0.025, 0.1, 1 / 3):
                traj = GridTrajectory(spacing, rng.integers(-9, 10, (n, f.dim)))
                assert traj.realized_slack(f) == loop(traj, f)
    for traj, f in ((GridTrajectory(0.1, [1, 2]), henon), (GridTrajectory(0.1, [[1, 2]]), line)):
        with pytest.raises(InvalidInputError):
            traj.realized_slack(f)


def test_snap_orbit_worked_example():
    f = half()
    seg = orbit(f, 0.3, 3)  # 0.3, 0.15, 0.075
    res = snap_orbit(f, seg, 0.01)
    assert list(res.trajectory.cells[:, 0]) == [30, 15, 8]
    # the cycle wraps: the last snapped point maps to 0.04, far from 0.30
    assert res.slack == pytest.approx(abs(0.5 * 0.08 - 0.30), abs=1e-12)


def test_snap_orbit_on_grid_points():
    f = half()
    res = snap_orbit(f, np.array([0.4, 0.2, 0.1]), 0.1)
    assert list(res.trajectory.cells[:, 0]) == [4, 2, 1]
    assert res.slack == pytest.approx(abs(0.05 - 0.4), abs=1e-12)


def test_snap_orbit_single_cell():
    f = half()
    res = snap_orbit(f, np.array([0.3, 0.15, 0.075]), 10.0)
    assert np.all(res.trajectory.cells == 0)
    assert res.slack == 0.0


def test_snapped_fixed_points_respect_pseudo_slack(rng):
    growth = GrowthParams(C=1.0, delta=0.1)
    for _ in range(25):
        f = random_contraction(rng)
        # certified forward Lipschitz bound from the coefficients
        m = max(1.0, float(sum(abs(c) * k for k, c in enumerate(f._uni))))
        st = stage_tolerances(1, 1, m, growth)
        x_star = brentq(lambda x: f.evaluate(x) - x, -1.0, 1.0, xtol=1e-15)
        res = snap_orbit(f, np.array([x_star]), st.grid_spacing)
        assert res.slack <= st.pseudo_slack + 1e-15


def test_derivative_drift_bound(rng):
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.0625)
    nb = norm_bounds(f, rho=1.0)
    m = max(1.0, nb.forward_c1rho)
    growth = GrowthParams(C=1.0, delta=0.5)
    for n in (1, 2, 3):
        st = stage_tolerances(n, 1, m, growth)
        h = st.grid_spacing
        bound = m * (1.0 * h) ** 1.0
        assert bound == pytest.approx(m ** (1 - 2 * n) * st.gamma_n, rel=1e-9)
        for x in rng.uniform(-1.0, 1.0, size=200):
            drift = abs(f.derivative(snap(float(x), h)) - f.derivative(float(x)))
            assert drift <= bound + 1e-15


# -- enumeration -------------------------------------------------------------------


def test_enumerate_contracting_chain():
    res = enumerate_pseudotrajectories(half(), 0.1, 0.06, 0.4, 3)
    assert res.count == 1
    assert not res.partial
    assert res.samples == ((4, 2, 1),)
    assert res.start == 4


def test_enumerate_infinite_slack_is_combinatorial():
    res = enumerate_pseudotrajectories(half(), 0.25, math.inf, 0.0, 3)
    per_axis = cells_per_axis(1.0, 0.25)
    assert res.count == per_axis ** 2
    assert not res.partial


def test_enumerate_budget_gives_sound_lower_bound():
    full = enumerate_pseudotrajectories(half(), 0.25, math.inf, 0.0, 3)
    capped = enumerate_pseudotrajectories(half(), 0.25, math.inf, 0.0, 3, budget=1)
    assert capped.partial
    assert capped.expansions == 1
    assert 0 < capped.count <= full.count


def test_enumerate_length_one():
    res = enumerate_pseudotrajectories(half(), 0.1, 0.01, 0.8, 1)
    assert res.count == 1
    assert res.samples == ((8,),)


def test_enumerate_integer_start_is_cell():
    res = enumerate_pseudotrajectories(half(), 0.1, 0.01, 8, 4)
    assert res.count == 1
    assert res.samples == ((8, 4, 2, 1),)


def test_enumerate_start_validation():
    with pytest.raises(InvalidInputError):
        enumerate_pseudotrajectories(half(), 0.1, 0.05, 1.5, 2)
    with pytest.raises(InvalidInputError):
        enumerate_pseudotrajectories(half(), 0.1, -0.1, 0.0, 2)
    with pytest.raises(InvalidInputError):
        enumerate_pseudotrajectories(half(), 0.1, 0.05, 0.0, 0)


def test_enumerate_matches_brute_force():
    f = PolynomialMap.univariate([0.07, -0.5, 0.3], domain_radius=1.0)
    h, slack, n = 0.2, 0.17, 3
    res = enumerate_pseudotrajectories(f, h, slack, 0.6, n, max_samples=100)
    max_cell = 5
    count = 0
    tuples = []
    for c1, c2 in itertools.product(range(-max_cell, max_cell + 1), repeat=2):
        ok = abs(f.evaluate(3 * h) - c1 * h) <= slack and abs(
            f.evaluate(c1 * h) - c2 * h
        ) <= slack
        if ok:
            count += 1
            tuples.append((3, c1, c2))
    assert res.count == count
    assert sorted(res.samples) == sorted(tuples)


def test_enumerate_two_dimensional():
    f = PolynomialMap.linear(np.diag([0.5, 0.5]), domain_radius=1.0)
    res = enumerate_pseudotrajectories(f, 0.5, 0.3, np.array([0.0, 0.5]), 2)
    assert res.start == (0, 1)
    assert res.count == 2
    assert sorted(res.samples) == [((0, 1), (0, 0)), ((0, 1), (0, 1))]


def _reference_enumeration(f, spacing, slack, start, n, budget, max_samples=6):
    """(count, expansions, partial, samples) of enumerate_pseudotrajectories
    from a layer-by-layer walk with one f.evaluate per new cell, spending
    the budget in frontier order."""
    max_cell = int(math.floor(f.domain_radius / spacing + 0.5))
    cache, expansions, partial = {}, 0, False
    layer = {start: 1}
    for _ in range(n - 1):
        nxt: dict = {}
        for cell, paths in layer.items():
            if cell not in cache:
                if expansions >= budget:
                    partial = True
                    continue
                expansions += 1
                if math.isinf(slack):
                    axes = [range(-max_cell, max_cell + 1)] * f.dim
                else:
                    x = cell * spacing if f.dim == 1 else np.asarray(cell, dtype=float) * spacing
                    axes = [
                        range(max(math.ceil((v - slack) / spacing - 1e-12), -max_cell),
                              min(math.floor((v + slack) / spacing + 1e-12), max_cell) + 1)
                        for v in np.atleast_1d(f.evaluate(x)).tolist()
                    ]
                cache[cell] = tuple(axes[0]) if f.dim == 1 else tuple(itertools.product(*axes))
            for succ in cache[cell]:
                nxt[succ] = nxt.get(succ, 0) + paths
        layer = nxt
    return sum(layer.values()), expansions, partial, _collect_samples(cache.get, start, n, max_samples)


def _enumerated(f, spacing, slack, start, n, budget):
    res = enumerate_pseudotrajectories(f, spacing, slack, start, n, budget=budget, max_samples=6)
    return res.count, res.expansions, res.partial, res.samples


HENON = {(0, 0): [1.0, 0.0], (2, 0): [-1.4, 0.0], (0, 1): [1.0, 0.0], (1, 0): [0.0, 0.3]}
# (brick seed, spacing, slack, start cell, period) -> (count, expansions) of
# the full enumeration, as the per-cell enumeration recorded them: the seeded
# Henon enumerations of the surgery_nd benchmark at seed 42
HENON_RECORDED = {
    ((42, 1220), 0.01, 0.02, (65, -8), 8): (268435456, 1767),
    ((42, 1221), 0.01, 0.015, (-28, -24), 10): (387420489, 2274),
}


def _seeded_henon(seed):
    eps = sample(BrickSpec.factorial(0.001, 3), 2, seed=seed)
    return PerturbedMap(PolynomialMap.from_terms(2, HENON, domain_radius=1.5), eps)


@pytest.mark.parametrize("case", sorted(HENON_RECORDED))
def test_batched_enumeration_matches_per_cell_reference_on_henon(case):
    seed, spacing, slack, start, n = case
    f = _seeded_henon(seed)
    full = _enumerated(f, spacing, slack, start, n, 10_000_000)
    assert full[:3] == HENON_RECORDED[case] + (False,)
    for budget in (0, 1, full[1] // 2, 10_000_000):
        got = _enumerated(f, spacing, slack, start, n, budget)
        assert got == _reference_enumeration(f, spacing, slack, start, n, budget)
        assert got[2] == (budget < full[1])


def test_batched_enumeration_matches_per_cell_reference_in_1d():
    f = PolynomialMap.univariate([0.07, -1.3, 0.0, 0.4], domain_radius=1.0)
    full = _enumerated(f, 0.01, 0.03, 40, 6, 10_000_000)
    assert not full[2] and full[0] > 1000
    for budget in (0, 1, full[1] // 2, 10_000_000):
        got = _enumerated(f, 0.01, 0.03, 40, 6, budget)
        assert got == _reference_enumeration(f, 0.01, 0.03, 40, 6, budget)


def test_batched_enumeration_matches_reference_at_infinite_slack():
    f = _seeded_henon((42, 1220))
    for budget in (0, 1, 20, 10_000_000):
        got = _enumerated(f, 0.5, math.inf, (1, 0), 4, budget)
        assert got == _reference_enumeration(f, 0.5, math.inf, (1, 0), 4, budget)
    assert got[:3] == (49**3, 49, False)


def test_exact_count_beyond_int64_at_infinite_slack():
    """81 cells, each with all 81 as successors: 81^10 tuples of length 11,
    past 2^63, counted exactly as a Python int."""
    f = PolynomialMap.linear(np.diag([0.5, 0.5]), domain_radius=1.0)
    got = _enumerated(f, 0.25, math.inf, (0, 0), 11, 10_000_000)
    assert 81**10 > 2**63
    assert type(got[0]) is int and got[:3] == (81**10, 81, False)
    assert got == _reference_enumeration(f, 0.25, math.inf, (0, 0), 11, 10_000_000)


def test_lattice_of_more_cells_than_int64_holds():
    """An 8-D lattice of 301^8 > 2^63 cells: cells are grouped by their
    coordinates, not by an index into the lattice."""
    base = PolynomialMap.linear(0.5 * np.eye(8), domain_radius=1.5)
    f = PerturbedMap(base, sample(BrickSpec.factorial(0.01, 2), 8, seed=(8, 1)))
    assert cells_per_axis(1.5, 0.01) ** 8 > 2**63
    start = (40, -35, 12, 0, -7, 90, -120, 3)
    for budget in (0, 1, 10_000_000):
        got = _enumerated(f, 0.01, 0.012, start, 2, budget)
        assert got == _reference_enumeration(f, 0.01, 0.012, start, 2, budget)
    assert got[:3] == (576, 1, False)


def test_layer_too_large_to_list_raises():
    """A layer whose successor boxes hold more cells than memory can list
    is refused, naming the spacing and the coarser one that would list about
    _MAX_LISTED, not wrapped or allocated: 301^8 cells at infinite slack,
    2^64 (0 modulo 2^64, which int64 sizes would wrap to) in 64-D width-2
    boxes, and 4.6e17 for x/2 at spacing 2^-61 and slack 0.1, which used to
    ask NumPy for 3.2 EiB."""
    f = PolynomialMap.linear(0.5 * np.eye(8), domain_radius=1.5)
    refused = r"^spacing must be a real number in \({}, inf\), not {}$"
    with pytest.raises(InvalidInputError, match=refused.format(r"0\.37625", r"0\.01")):
        enumerate_pseudotrajectories(f, 0.01, math.inf, (0,) * 8, 2)
    f = PolynomialMap.linear(0.5 * np.eye(64), domain_radius=1.0)
    with pytest.raises(InvalidInputError, match=refused.format(r"1\.54\d*", r"1\.0")):
        enumerate_pseudotrajectories(f, 1.0, 0.5, (1,) * 64, 2)
    with pytest.raises(InvalidInputError, match=r"^spacing "):
        enumerate_pseudotrajectories(half(), 2.0**-61, 0.1, 0, 2)


def test_batched_enumeration_matches_per_cell_reference_in_3d():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    A *= 0.7 / np.linalg.norm(A, 2)
    base = PolynomialMap.linear(A, domain_radius=1.0)
    f = PerturbedMap(base, sample(BrickSpec.factorial(0.02, 3), 3, seed=(3, 5)))
    full = _enumerated(f, 0.04, 0.07, (4, -3, 2), 6, 10_000_000)
    assert full[0] > 10**8 and not full[2]
    for budget in (0, 1, full[1] // 2, 10_000_000):
        got = _enumerated(f, 0.04, 0.07, (4, -3, 2), 6, budget)
        assert got == _reference_enumeration(f, 0.04, 0.07, (4, -3, 2), 6, budget)
        assert got[2] == (budget < full[1])


# -- recurrence diagnostics -----------------------------------------------------------


def test_close_return_finds_first_return():
    assert close_return(np.array([0.0, 0.5, 1e-9]), 1e-6) == 2
    assert close_return(np.array([0.0, 1e-9, 0.5]), 1e-6) == 1


def test_close_return_monotone_escape():
    assert close_return(np.array([0.0, 0.1, 0.2, 0.3]), 1e-3) is None


def test_close_return_zero_threshold_never_fires():
    assert close_return(np.array([0.3, 0.3, 0.3]), 0.0) is None


def test_close_return_appending_invariance():
    base = [0.0, 0.5, 1e-9]
    k = close_return(np.array(base), 1e-6)
    assert close_return(np.array(base + [0.7, 1e-12]), 1e-6) == k


def test_close_return_grid_trajectory():
    traj = GridTrajectory(spacing=0.1, cells=np.array([3, 7, 3]))
    assert close_return(traj, 0.05) == 2


def test_classify_simple_worked_example():
    out = classify_simple(np.array([0.0, 0.5, 0.25]), 0.01)
    assert out.simple
    assert out.log_product == pytest.approx(math.log(0.0625))
    assert out.log_floor == pytest.approx(math.log(0.01))


def test_classify_recurrent():
    out = classify_simple(np.array([0.0, 0.5, 1e-9]), 0.01)
    assert not out.simple


def test_classify_zero_floor_always_simple():
    out = classify_simple(np.array([0.0, 0.5, 0.0]), 0.0)
    assert out.simple
    assert out.log_product == -math.inf
    assert out.log_floor == -math.inf


def test_classify_grid_trajectory_and_validation():
    traj = GridTrajectory(spacing=0.25, cells=np.array([0, 2, 1]))
    out = classify_simple(traj, 0.01)
    assert out.simple  # product |0.25-0|*|0.25-0.5| = 0.0625
    nd = GridTrajectory(spacing=0.25, cells=np.array([[0, 1], [1, 0]]))
    with pytest.raises(InvalidInputError):
        classify_simple(nd, 0.01)
    with pytest.raises(InvalidInputError):
        classify_simple(np.array([0.0, 0.5]), -1.0)
