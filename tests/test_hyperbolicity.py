"""Tests for the spectral distance-to-unit-circle computation."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from orbitlab import (
    InvalidInputError,
    PolynomialMap,
    gamma_linear,
    is_gamma_hyperbolic,
    orbit,
    orbit_hyperbolicity,
)
import orbitlab.hyperbolicity as hyperbolicity
from orbitlab.hyperbolicity import _crossings


def eigen_oracle(m):
    """For normal matrices gamma equals min_j ||lambda_j| - 1|."""
    lams = np.linalg.eigvals(m)
    return float(np.min(np.abs(np.abs(lams) - 1.0)))


def test_identity_is_on_the_circle():
    hv = gamma_linear(np.eye(3))
    assert abs(hv.gamma) < 1e-12


def test_doubling_matrix():
    hv = gamma_linear(2.0 * np.eye(2))
    assert abs(hv.gamma - 1.0) < 1e-10
    assert hv.argmin_phase == pytest.approx(0.0, abs=1e-9)


def test_diagonal_oracle():
    m = np.diag([3.0, 0.25])
    # distances to the circle: 2 and 0.75
    assert gamma_linear(m).gamma == pytest.approx(0.75, abs=1e-10)


def test_rotation_is_not_hyperbolic():
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    hv = gamma_linear(rot)
    assert hv.gamma <= 1e-12
    assert hv.certified_tolerance == hv.gamma  # the bracket reaches down to 0


def test_symmetric_random_match_eigen_oracle(rng):
    for _ in range(60):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d))
        m = (a + a.T) / 2.0
        hv = gamma_linear(m)
        assert hv.gamma == pytest.approx(eigen_oracle(m), abs=1e-8)


def test_dense_phase_grid_oracle(rng):
    """gamma is the min over phases of the smallest singular value; compare
    against a brute-force fine grid for generic (non-normal) matrices."""
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        hv = gamma_linear(m)
        phases = np.linspace(0.0, 1.0, 4001)
        brute = min(
            float(np.linalg.svd(m - np.exp(2j * math.pi * p) * np.eye(3), compute_uv=False)[-1])
            for p in phases
        )
        assert hv.gamma <= brute + 1e-12
        assert hv.gamma >= brute - 1e-6


def test_certificate_is_a_level_without_crossings(rng):
    """gamma - certified_tolerance is a level the profile never reaches: its
    pencil has no unit-modulus eigenvalue, while a level just above gamma
    has some.  The bracket starts at refine_tol and widens tenfold only when
    a level d - delta cannot be told from d."""
    for m in (np.diag([2.0, 0.5]), rng.normal(size=(4, 4))):
        norm = float(np.linalg.norm(m))
        for refine_tol in (1e-6, 1e-10):
            hv = gamma_linear(m, refine_tol=refine_tol)
            assert hv.certified_tolerance == pytest.approx(refine_tol, rel=1e-6)
            assert _crossings(m, hv.gamma - hv.certified_tolerance, norm).size == 0
            assert _crossings(m, hv.gamma + 1e-8, norm).size > 0
        hv = gamma_linear(m, refine_tol=1e-17)  # below an ulp of gamma
        assert 1e-17 < hv.certified_tolerance <= 1e-12
        assert _crossings(m, hv.gamma - hv.certified_tolerance, norm).size == 0


def _profile(L, phases):
    """sigma_min(L - e^{2 pi i phase} I) at each phase."""
    stack = L - np.exp(2j * math.pi * np.asarray(phases))[:, None, None] * np.eye(len(L))
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _grid_min(L):
    """The minimum of the profile over the 20,001 phases k / 20000.  For real
    L the profile is even in the phase, so k <= 10000 suffices; a pass over
    every 20th phase rules out the blocks whose Lipschitz lower bound (the
    profile is 1-Lipschitz in z, and each phase lies within 10 steps of a
    coarse one) is above the coarse minimum."""
    coarse = np.arange(0, 10001, 20)
    s = _profile(L, coarse / 20000)
    near = coarse[s - math.pi / 1000 <= s.min()]
    fine = np.unique(np.clip(near[:, None] + np.arange(-10, 11), 0, 10000))
    return float(min(s.min(), _profile(L, fine / 20000).min()))


def _old_grid_gamma(L, phase_grid=256, refine_tol=1e-10):
    """gamma_linear before the level-set test: the best of a 256-phase grid,
    polished by a bounded 1-D minimization; an attained profile value."""
    phases = np.arange(phase_grid) / phase_grid
    s = _profile(L, phases)
    j = int(np.argmin(s))
    res = minimize_scalar(lambda p: _profile(L, [p])[0], method="bounded",
                          bounds=(phases[j] - 1 / phase_grid, phases[j] + 1 / phase_grid),
                          options={"xatol": refine_tol / (4 * math.pi)})
    return min(float(res.fun), float(s[j]))


def _nonnormal_matrices():
    rng = np.random.default_rng(314)
    return [rng.normal(size=(d, d)) for d in rng.integers(2, 6, 200)]


def test_certified_bracket_holds_the_dense_grid_minimum():
    """On 200 non-normal matrices of sizes 2-5 the 20,001-phase minimum lies
    in [gamma - certified_tolerance, gamma], up to the grid's error: every
    phase is within pi / 20000 of the grid, so the grid minimum exceeds the
    true minimum by at most that."""
    for m in _nonnormal_matrices():
        hv = gamma_linear(m)
        grid = _grid_min(m)
        assert hv.certified_tolerance == pytest.approx(1e-10, rel=1e-6)
        assert hv.gamma - hv.certified_tolerance <= grid <= hv.gamma + math.pi / 20000
        assert hv.gamma <= grid + 1e-12
        assert _profile(m, [hv.argmin_phase])[0] == pytest.approx(hv.gamma, abs=1e-14)


def test_sweeps_evaluate_each_arc_and_its_mirror_image_once(monkeypatch):
    """The profile of a real L is even in the phase, so a sweep evaluates
    only the arcs between the crossings folded into [0, pi]: at most half
    the midpoints of a sweep over the full circle, which has one per arc,
    K + 1 of them for K crossings (each folded crossing inside (0, pi)
    stands for two) and the attained phase."""
    levels, rows = [], []
    crossings, sigma_min = hyperbolicity._crossings, hyperbolicity._sigma_min

    def spied_crossings(L, d, norm):
        cross = crossings(L, d, norm)
        levels.append(cross)
        return cross

    def spied_sigma_min(L, angles):
        assert np.all((0.0 <= angles) & (angles <= math.pi))
        rows.append((len(levels), angles.size))
        return sigma_min(L, angles)

    monkeypatch.setattr(hyperbolicity, "_crossings", spied_crossings)
    monkeypatch.setattr(hyperbolicity, "_sigma_min", spied_sigma_min)
    folded = unfolded = 0
    for m in _nonnormal_matrices():
        levels.clear()
        rows.clear()
        hv = gamma_linear(m)
        assert 0.0 <= hv.argmin_phase <= 0.5
        for sweep, size in rows[1:]:  # rows[0] is the start
            cross = levels[sweep - 1]
            inside = np.count_nonzero((cross > 0.0) & (cross < math.pi))
            full = 2 * inside + (cross.size - inside) + 1
            assert 2 * size <= full + 1
            folded += size
            unfolded += full
    assert 2 * folded <= unfolded


def test_start_at_a_local_maximum_of_the_profile():
    """The start value is taken at phase 1/2, where this profile has a local
    maximum between two dips: the level set only touches the start there,
    so the pencil has no crossing at it, and the sweep must still go down
    into the dips."""
    m = np.array([[-1.25724, -0.34497], [1.36120, -1.81791]])
    hv = gamma_linear(m)
    assert _profile(m, [0.5])[0] - hv.gamma > 5e-5
    assert hv.certified_tolerance == pytest.approx(1e-10, rel=1e-6)
    assert hv.gamma - hv.certified_tolerance <= _grid_min(m) <= hv.gamma + math.pi / 20000


def test_never_above_the_old_phase_grid_value():
    for m in _nonnormal_matrices():
        assert gamma_linear(m).gamma <= _old_grid_gamma(m) + 1e-12


def test_normal_matrices_keep_the_eigenvalue_oracle(rng):
    """Q D Q^T with Q orthogonal and D block diagonal (scaled rotations and
    reals): gamma is min ||lambda| - 1| and the bracket holds it."""
    for _ in range(40):
        blocks = []
        for r, th in zip(rng.uniform(0.2, 2.0, 2), rng.uniform(0.0, math.pi, 2)):
            blocks.append(r * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]))
        d = np.zeros((5, 5))
        d[:2, :2], d[2:4, 2:4], d[4, 4] = blocks[0], blocks[1], rng.uniform(-2.0, 2.0)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m = q @ d @ q.T
        hv = gamma_linear(m)
        oracle = eigen_oracle(m)
        assert hv.gamma == pytest.approx(oracle, abs=1e-12)
        assert hv.gamma - hv.certified_tolerance <= oracle + 1e-14


def test_singular_matrices():
    """QZ copes with a singular L (infinite pencil eigenvalues, and a
    singular pencil at the zero matrix's level 1)."""
    hv = gamma_linear(np.zeros((3, 3)))
    assert hv.gamma == 1.0
    assert hv.certified_tolerance == pytest.approx(1e-10, rel=1e-6)
    rank_one = np.outer([1.0, 2.0, -0.5], [0.3, -1.0, 0.8])
    hv = gamma_linear(rank_one)
    assert hv.gamma - hv.certified_tolerance <= _grid_min(rank_one) <= hv.gamma + math.pi / 20000
    assert hv.gamma <= _old_grid_gamma(rank_one) + 1e-12


def test_is_gamma_hyperbolic_threshold():
    m = np.diag([2.0, 2.0])
    assert is_gamma_hyperbolic(m, 0.5)
    assert is_gamma_hyperbolic(m, 1.0)  # gamma(m) == 1, inclusive comparison
    assert not is_gamma_hyperbolic(m, 1.001)
    assert is_gamma_hyperbolic(np.eye(2), 0.0)  # gamma == 0 >= 0
    with pytest.raises(InvalidInputError):
        is_gamma_hyperbolic(m, -0.1)


def test_rejects_nonsquare():
    with pytest.raises(InvalidInputError):
        gamma_linear(np.ones((2, 3)))


def test_orbit_hyperbolicity_linear_map():
    f = PolynomialMap.univariate([0.0, 0.5])
    seg = orbit(f, 0.5, 4)
    hv = orbit_hyperbolicity(f, seg)
    # cocycle of x/2 over 4 steps is 1/16
    assert hv.gamma == pytest.approx(1.0 - 2.0 ** -4, abs=1e-12)


def test_orbit_hyperbolicity_needs_an_orbit_segment():
    """The Jacobians come with the segment, so points alone (a list or an
    array) are refused as bad input, not read as a segment."""
    f = PolynomialMap.univariate([0.0, 0.5])
    for points in ([0.1, 0.2], np.array([[0.1], [0.2]])):
        with pytest.raises(InvalidInputError):
            orbit_hyperbolicity(f, points)


def test_orbit_hyperbolicity_quadratic_fixed_point():
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    x = (1.0 - math.sqrt(5.0)) / 2.0
    seg = orbit(f, x, 1)
    hv = orbit_hyperbolicity(f, seg)
    assert hv.gamma == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-9)


_FIRST_GAMMA = """
import json, sys
from orbitlab import gamma_linear

matrices = [[[float.fromhex(x) for x in row] for row in m] for m in json.loads(sys.argv[1])]
before = any(m.startswith("scipy") for m in sys.modules)
out = []
for m in matrices:
    hv = gamma_linear(m)
    out.append([hv.gamma.hex(), hv.argmin_phase.hex(), hv.certified_tolerance.hex()])
print(json.dumps({"before": before, "values": out}))
"""


def test_first_pencil_test_in_a_fresh_process_is_bit_identical():
    """The QZ driver is resolved by the first gamma_linear call of a process:
    a fresh process (scipy not yet loaded) gives the same values, bit for bit,
    on a singular L, a non-normal 2 x 2 and a random 4 x 4."""
    matrices = [
        np.outer([1.0, 2.0, -0.5], [0.3, -1.0, 0.8]),
        np.array([[0.5, 3.0], [0.0, 1.5]]),
        np.random.default_rng(2026).normal(size=(4, 4)),
    ]
    want = [[v.hex() for v in (hv.gamma, hv.argmin_phase, hv.certified_tolerance)]
            for hv in map(gamma_linear, matrices)]
    arg = json.dumps([[[float(x).hex() for x in row] for row in m] for m in matrices])
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperbolicity.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FIRST_GAMMA, arg], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"before": False, "values": want}
