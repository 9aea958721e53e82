"""Tests for the sampling experiment driver and its reports."""

import json
import math

import numpy as np
import pytest

from orbitlab import (
    BrickSpec,
    ConfigurationError,
    ExperimentConfig,
    ExperimentResult,
    GrowthParams,
    InvalidInputError,
    PerturbedMap,
    PolynomialMap,
    UncertifiedCensusError,
    base_map_from_spec,
    emit_reports,
    fit_C,
    gamma_n_of_map,
    ih_check,
    invariant_radius,
    run_experiment,
    sample,
)
from orbitlab import census as census_module, dynamics, experiment


# -- the fitted constant --------------------------------------------------------


def test_fit_c_nothing_binds():
    assert fit_C({1: 1.0, 2: 1.0, 3: 1.2}, 1.0) == 0.0
    assert fit_C({}, 0.5) == 0.0


def test_fit_c_worked_example():
    got = fit_C({1: math.exp(-1.0), 2: math.exp(-4.0)}, 1.0)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_fit_c_exact_profile():
    gammas = {n: math.exp(-float(n) ** 1.5) for n in range(1, 6)}
    assert fit_C(gammas, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_fit_c_nonpositive_gamma_is_infinite():
    assert fit_C({1: 0.5, 2: 0.0}, 1.0) == math.inf
    assert fit_C({1: -0.1}, 1.0) == math.inf


def test_fit_c_infinite_gamma_is_no_constraint():
    assert fit_C({1: math.inf, 2: 0.5}, 1.0) == pytest.approx(math.log(2.0) / 4.0)


def test_fit_c_rejects_a_nan_gamma():
    """A NaN gamma is an error, not "no constraint": max(best, nan) kept
    best, so it used to vanish from the fit."""
    for gammas in ({1: math.nan}, {1: 0.5, 2: math.nan}, {1: 0.0, 2: math.nan}, [(1, math.nan), (2, None)]):
        with pytest.raises(InvalidInputError):
            fit_C(gammas, 1.0)


def test_fit_c_accepts_pairs_and_validates():
    assert fit_C([(1, 0.5), (2, 0.75)], 1.0) == pytest.approx(math.log(2.0))
    with pytest.raises(InvalidInputError):
        fit_C({0: 0.5}, 1.0)
    with pytest.raises(InvalidInputError):
        fit_C({1: 0.5}, -0.5)


def test_fit_c_postcondition(rng):
    for _ in range(20):
        gammas = {n: float(g) for n, g in enumerate(rng.uniform(1e-6, 1.0, 6), 1)}
        for delta in (0.1, 1.0):
            c = fit_C(gammas, delta)
            for n, g in gammas.items():
                assert g >= math.exp(-c * float(n) ** (1.0 + delta)) * (1.0 - 1e-12)


# -- configuration ---------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"map": "half", "grid": 3})


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(num_samples=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n_max=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(deltas=[])
    with pytest.raises(InvalidInputError):
        ExperimentConfig(deltas=[0.0])
    with pytest.raises(InvalidInputError):
        ExperimentConfig(deltas=[math.inf])
    with pytest.raises(InvalidInputError):
        ExperimentConfig(ih_c_factor=0.5)
    # wrong types and ranges are refused here, before any census; a NaN
    # ih_c_factor would skip every ih check as if no fit were finite
    for bad in (dict(num_samples=2.5), dict(n_max=1.5), dict(master_seed=0.5), dict(master_seed=-1),
                dict(deltas=0.1), dict(tol=0.0), dict(tol=1.0), dict(tol=math.nan), dict(tol="1e-12"),
                dict(radius=0.0), dict(radius=-1.0), dict(radius=math.inf), dict(radius=math.nan),
                dict(radius="1"), dict(ih_c_factor=math.nan), dict(ih_c_factor=math.inf)):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(**bad)
    assert ExperimentConfig(radius=1.5, tol=1e-8, master_seed=np.int64(3)).radius == 1.5


def test_config_roundtrip():
    cfg = ExperimentConfig(
        map=[0.0, 0.5],
        brick={"family": "factorial", "tau": 0.01, "truncation_degree": 4},
        num_samples=2,
        master_seed=11,
        n_max=2,
        deltas=[0.5, 1.0],
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.brick_spec().sizes[1] == pytest.approx(0.01)


def test_base_map_from_spec():
    f = base_map_from_spec("half")
    assert f.evaluate(0.5) == 0.25
    g = base_map_from_spec([0.0, 0.0, 1.0])
    assert g.evaluate(0.3) == pytest.approx(0.09)
    with pytest.raises(InvalidInputError):
        base_map_from_spec("cubic")
    with pytest.raises(InvalidInputError):
        base_map_from_spec([])


# -- unperturbed experiments -------------------------------------------------------


def test_half_map_experiment_closed_form():
    cfg = ExperimentConfig(map="half", num_samples=1, n_max=3, deltas=[1.0])
    result = run_experiment(cfg)
    assert len(result.samples) == 1
    s = result.samples[0]
    assert not s.aborted
    assert s.strict_invariance
    assert [(n, count) for (n, count, _, _) in s.rows] == [(1, 1), (2, 1), (3, 1)]
    for (n, _, g, certified) in s.rows:
        assert certified
        assert g == pytest.approx(1.0 - 2.0**-n, abs=1e-10)
    (delta, c), = s.fits
    assert delta == 1.0
    assert c == pytest.approx(math.log(2.0), abs=1e-9)
    assert s.ih_status == "holds"
    assert s.ih_pass == 3
    assert s.ih_c == pytest.approx(1.5 * math.log(2.0), abs=1e-9)


def test_quadratic_experiment_oracles():
    cfg = ExperimentConfig(map="quadratic", num_samples=1, n_max=2, deltas=[1.0])
    result = run_experiment(cfg)
    s = result.samples[0]
    rows = {n: (count, g) for (n, count, g, _) in s.rows}
    assert rows[1][0] == 1
    assert rows[1][1] == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-9)
    assert rows[2][0] == 3
    assert rows[2][1] == pytest.approx(5.0 - 2.0 * math.sqrt(5.0), abs=1e-9)


# -- samples that end early --------------------------------------------------------


def _one_sample(tmp_path, **config):
    result = run_experiment(ExperimentConfig(num_samples=1, n_max=1, **config))
    summary = emit_reports(result, str(tmp_path))
    (record,) = [json.loads(line) for line in (tmp_path / "samples.ndjson").read_text().splitlines()]
    return result.samples[0], record, summary


def test_a_map_with_no_invariant_radius_aborts(tmp_path):
    """2x leaves every rung of the ladder: the sample aborts, and the
    summary counts it."""
    s, record, summary = _one_sample(tmp_path, map=[0, 2])
    assert s.status == record["status"] == "aborted:no-invariant-radius"
    assert s.strict_invariance is False and s.rows == [] and s.fits == []
    assert summary["num_aborted"] == 1 and summary["num_ok"] == 0


def test_a_certified_gap_of_zero_skips_the_check(tmp_path):
    """The fixed point 0 of -x + x^3/2 has multiplier -1: gamma_1 is a
    certified 0.0, so the fitted C is inf and ih_check is skipped; the
    report writes the inf as "inf"."""
    s, record, summary = _one_sample(tmp_path, map=[0, -1, 0, 0.5])
    assert s.status == "ok" and s.rows == [(1, 1, 0.0, True)]
    assert s.fits == [(0.1, math.inf)] and s.ih_c is None
    assert s.ih_status == "skipped:no-finite-fit"
    assert record["fits"] == [{"C": "inf", "delta": 0.1}]
    assert summary["fitted_C"]["min"] is None
    assert summary["ih_statuses"] == {"skipped:no-finite-fit": 1}


def test_an_uncertified_census_keeps_its_count(tmp_path):
    """The tangency of x - x^3 at 0 leaves the census uncertified: the row
    keeps the partial count 0 with no gamma."""
    s, record, summary = _one_sample(tmp_path, map=[0, 1, 0, -1], radius=0.5, tol=1e-4)
    assert s.status == "ok" and s.rows == [(1, 0, None, False)]
    assert record["rows"] == [{"certified": False, "count": 0, "gamma_n": None, "n": 1}]
    assert summary["num_uncertified"] == 1 and not summary["all_certified"]


def test_a_radius_that_is_not_invariant_aborts_with_its_reason(tmp_path):
    """x^2 - 1 maps [-0.5, 0.5] into [-1, -0.75]: the census refuses the
    radius, and the sample aborts with the census's reason."""
    s, record, summary = _one_sample(tmp_path, map="quadratic", radius=0.5)
    assert s.status.startswith("aborted:[-R, R] with R = 0.5 is not certified forward-invariant")
    assert record["status"] == s.status and s.rows == []
    assert summary["num_aborted"] == 1


# -- perturbed experiments and reports ----------------------------------------------


def brick_record():
    return {"family": "factorial", "tau": 0.01, "truncation_degree": 4}


def test_perturbed_experiment_is_deterministic(tmp_path):
    cfg = dict(
        map="half", brick=brick_record(), num_samples=3, master_seed=7, n_max=2,
        deltas=[1.0],
    )
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert [s.to_record() for s in a.samples] == [s.to_record() for s in b.samples]

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_reports(a, str(dir_a))
    emit_reports(b, str(dir_b))
    for name in ("samples.ndjson", "table.csv", "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_each_range_is_certified_once_per_sample(monkeypatch):
    """The strict-invariance check, the invariant-radius ladder and every
    census on a sample share one certified range per radius."""
    ranges = []

    class RangeCountingMap(PerturbedMap):
        def eval_many(self, xs):
            if np.shape(xs) == (2049,):  # the grid of certified_range_1d
                ranges.append((self, float(xs[-1])))
            return super().eval_many(xs)

    monkeypatch.setattr(experiment, "PerturbedMap", RangeCountingMap)
    brick = {"family": "factorial", "tau": 0.01, "truncation_degree": 8}
    cfg = ExperimentConfig(map="quadratic", brick=brick, num_samples=6, master_seed=42,
                           n_max=3, deltas=[1.0])
    result = run_experiment(cfg)
    assert {s.strict_invariance for s in result.samples} == {True, False}
    assert len(ranges) == len(set(ranges))
    maps = list(dict.fromkeys(f for f, _ in ranges))
    for s, f in zip(result.samples, maps):
        radii = [r for g, r in ranges if g is f]
        assert radii == ([1.0] if s.strict_invariance else [1.0, s.radius])


def test_perturbed_samples_differ_across_seeds():
    cfg = dict(map="half", brick=brick_record(), num_samples=2, n_max=1, deltas=[1.0])
    result = run_experiment(ExperimentConfig(**cfg))
    g0 = result.samples[0].rows[0][2]
    g1 = result.samples[1].rows[0][2]
    assert g0 != g1  # different seeds, different perturbations


def test_emit_reports_files(tmp_path):
    cfg = ExperimentConfig(map="half", num_samples=2, n_max=2, deltas=[1.0])
    result = run_experiment(cfg)
    summary = emit_reports(result, str(tmp_path))

    lines = (tmp_path / "samples.ndjson").read_text().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["status"] == "ok"
    assert rec["ih"]["pass"] == 2

    csv_lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "sample,n,P_n,gamma_n,certified"
    assert len(csv_lines) == 1 + 2 * 2

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary, default=str)) or on_disk["num_ok"] == 2
    assert summary["num_samples"] == 2
    assert summary["num_aborted"] == 0
    assert summary["all_certified"]
    assert summary["num_uncertified"] == 0
    assert summary["num_ih_failing"] == 0
    assert summary["fitted_C"]["min"] == pytest.approx(math.log(2.0), abs=1e-9)
    assert summary["fitted_C"]["median"] == summary["fitted_C"]["min"]


def test_emit_reports_empty_result(tmp_path):
    cfg = ExperimentConfig(map="half", num_samples=1, n_max=1)
    summary = emit_reports(ExperimentResult(config=cfg, samples=[]), str(tmp_path))
    assert (tmp_path / "table.csv").read_text() == "sample,n,P_n,gamma_n,certified\n"
    assert (tmp_path / "samples.ndjson").read_text() == ""
    assert summary["num_samples"] == 0
    assert summary["fitted_C"]["min"] is None


def test_csv_roundtrips_full_precision(tmp_path):
    cfg = ExperimentConfig(map="quadratic", num_samples=1, n_max=2, deltas=[1.0])
    result = run_experiment(cfg)
    emit_reports(result, str(tmp_path))
    rows = (tmp_path / "table.csv").read_text().strip().split("\n")[1:]
    parsed = [float(line.split(",")[3]) for line in rows]
    want = [g for (_, _, g, _) in result.samples[0].rows]
    assert parsed == want  # repr() round-trips doubles exactly


def test_summary_is_order_independent(tmp_path):
    cfg = ExperimentConfig(
        map="half", brick=brick_record(), num_samples=4, master_seed=3, n_max=2,
        deltas=[1.0],
    )
    result = run_experiment(cfg)
    shuffled = ExperimentResult(config=cfg, samples=list(reversed(result.samples)))
    s1 = emit_reports(result, str(tmp_path / "fwd"))
    s2 = emit_reports(shuffled, str(tmp_path / "rev"))
    assert s1 == s2


# -- stacks of samples ---------------------------------------------------------------


A9_BRICK = {"family": "factorial", "tau": 0.01, "truncation_degree": 8}


def _sample_alone(config: ExperimentConfig, i: int):
    """Sample i measured on its own, through the public per-map calls on a
    fresh map: its rows, fits and ih_check report."""
    f = PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]),
                     sample(BrickSpec.from_record(config.brick), 1, seed=(config.master_seed, i)))
    R = invariant_radius(f)
    rows, gammas = [], {}
    for n in range(1, config.n_max + 1):
        try:
            value, census = gamma_n_of_map(f, n, radius=R, tol=config.tol)
        except UncertifiedCensusError as err:
            rows.append((n, err.result.count, None, False))
            continue
        rows.append((n, census.count, value, True))
        gammas[n] = value
    fits = [(d, fit_C(gammas, d)) for d in config.deltas]
    params = GrowthParams(C=config.ih_c_factor * fits[0][1], delta=fits[0][0])
    return R, rows, fits, ih_check(f, params, config.n_max, radius=R)


def test_stacked_samples_equal_samples_measured_alone():
    """Nine samples run as a stack of 5 and a stack of 4, and each report
    equals the one the per-map calls give the sample alone: radius, rows,
    fits, and the ih_check constant, status and stages passed."""
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=9, master_seed=42, n_max=4,
                              deltas=[1.0, 0.5])
    assert experiment._STACK == 5
    result = run_experiment(config)
    assert len(result.samples) == 9 and {s.radius for s in result.samples} == {1.0, 1.0625}
    for s in result.samples:
        R, rows, fits, report = _sample_alone(config, s.index)
        assert (s.status, s.radius, s.rows, s.fits) == ("ok", R, rows, fits)
        passed = 0
        for row in report.rows:
            if row.status != "holds":
                break
            passed = row.period
        assert (s.ih_c, s.ih_delta) == (report.params.C, report.params.delta)
        assert (s.ih_status, s.ih_pass) == (report.status, passed)


def test_the_memo_holds_one_stack_of_samples_at_a_time(monkeypatch):
    """Each stack's maps, and their memos, go before the next stack is
    drawn: at every stacked census of a 12-sample experiment the memo holds
    at most 5 sample maps, the maps of one stack."""
    held = []
    census = census_module._census

    def counted(S, *args):
        held.append(sum(isinstance(f, PerturbedMap) for f in list(dynamics._MEMO.keys())))
        return census(S, *args)

    monkeypatch.setattr(census_module, "_census", counted)
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=12, master_seed=7, n_max=2)
    assert all(not s.aborted for s in run_experiment(config).samples)
    assert len(held) == 3 * 2 and held == [5] * 4 + [2] * 2
