"""Tests for the sampling experiment driver and its reports."""

import json
import math
import os
import signal
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from orbitlab import (
    BrickSpec,
    ConfigurationError,
    ExperimentConfig,
    ExperimentResult,
    GrowthParams,
    InvalidInputError,
    OrbitLabError,
    PerturbedMap,
    RootProductPerturbation,
    SampleReport,
    UncertifiedCensusError,
    base_map_from_spec,
    emit_reports,
    find_periodic,
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


@pytest.mark.parametrize("record, words", [
    ({"family": "geometric", "tau": 0.1, "truncation_degree": 3}, "lacks 'q'"),
    ({"tau": 0.1}, "lacks 'family'"),
    ("x", "must be an object"),
    ({"family": "factorial", "tau": 0.1, "truncation_degree": 3, "radius": 1.0}, r"keys: \['radius'\]"),
    ({"family": "cubic", "tau": 0.1, "truncation_degree": 3}, "family 'cubic'"),
], ids=["no-q", "no-family", "not-an-object", "unknown-key", "unknown-family"])
def test_a_malformed_brick_record_is_a_configuration_error(record, words):
    """BrickSpec.from_record refuses a record to_record would not write,
    naming what is wrong, and so does the experiment before any sample."""
    with pytest.raises(ConfigurationError, match=words):
        BrickSpec.from_record(record)
    with pytest.raises(ConfigurationError, match=words):
        run_experiment(ExperimentConfig(map="half", brick=record, num_samples=1, n_max=1))


@pytest.mark.parametrize("text, words", [
    (None, "cannot read config"),
    ("{bad", "is not valid JSON"),
    ('["x"]', "must be an object, not list"),
], ids=["missing-file", "invalid-json", "not-an-object"])
def test_a_config_file_that_is_not_a_json_object_is_a_configuration_error(tmp_path, text, words):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigurationError, match=words):
        ExperimentConfig.from_json(str(path))


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


def test_each_range_is_certified_once_per_sample(monkeypatch, request):
    """The strict-invariance check, the invariant-radius ladder and every
    census on a sample share one certified range per radius: each range
    the stacked helper (dynamics._ranges) computes, a (map, radius) it did
    not find in the map's memo, is computed once."""
    ranges = []
    # `ranges` holds the samples' maps; emptying it at the end lets them,
    # and their memos, go with the test.
    request.addfinalizer(ranges.clear)
    stacked = dynamics._ranges

    def counted(maps, radius):
        ranges.extend((f, float(radius)) for f in maps if ("range", radius) not in dynamics._memo(f))
        return stacked(maps, radius)

    monkeypatch.setattr(dynamics, "_ranges", counted)
    brick = {"family": "factorial", "tau": 0.01, "truncation_degree": 8}
    cfg = ExperimentConfig(map="quadratic", brick=brick, num_samples=6, master_seed=42,
                           n_max=3, deltas=[1.0])
    result = run_experiment(cfg)
    assert {s.strict_invariance for s in result.samples} == {True, False}
    assert len(ranges) == len(set(ranges))
    maps = list(dict.fromkeys(f for f, _ in ranges))
    assert len(maps) == len(result.samples)
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


def _sample_map(config: ExperimentConfig, i: int) -> PerturbedMap:
    """A fresh copy of sample i's map."""
    return PerturbedMap(base_map_from_spec(config.map),
                        sample(BrickSpec.from_record(config.brick), 1, seed=(config.master_seed, i)))


def _sample_alone(config: ExperimentConfig, i: int):
    """Sample i measured on its own, through the public per-map calls on a
    fresh map, on the config's radius or else its invariant one: its
    rows, fits and ih_check report."""
    f = _sample_map(config, i)
    R = invariant_radius(f) if config.radius is None else config.radius
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


def _assert_measured_alone(config: ExperimentConfig, result: ExperimentResult):
    """Each report of `result` equals the one the per-map calls give the
    sample alone: radius, rows, fits, and the ih_check constant, status and
    stages passed."""
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


def _serial(monkeypatch):
    """Run experiments in this process alone (one share, no worker), so
    that what a test records of their internals covers every sample."""
    monkeypatch.setattr(experiment, "_workers", lambda stacks: 1)


def _reruns(monkeypatch) -> list:
    """The list, filled as the experiment runs in this process alone, of
    each _ih_stages call: its stack size and the stage each map starts
    from."""
    _serial(monkeypatch)
    calls, stages = [], census_module._ih_stages

    def recorded(S, params, n_max, max_evals, first=None):
        calls.append((len(S.maps), first))
        return stages(S, params, n_max, max_evals, first)

    monkeypatch.setattr(census_module, "_ih_stages", recorded)
    return calls


def test_stacked_samples_equal_samples_measured_alone(monkeypatch):
    """_STACK + 4 a9 samples run as a full stack and a stack of 4, and each
    report equals the one the per-map calls give the sample alone.  Every
    ih_check stage ran beside its census and qualified, so none runs
    again."""
    num = experiment._STACK + 4
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=num, master_seed=42, n_max=4,
                              deltas=[1.0, 0.5])
    reruns = _reruns(monkeypatch)
    result = run_experiment(config)
    assert len(result.samples) == num and {s.radius for s in result.samples} == {1.0, 1.0625}
    assert reruns == [] and {s.ih_status for s in result.samples} == {"holds"}
    _assert_measured_alone(config, result)


def test_a_stage_that_fails_beside_its_census_runs_again_at_the_final_fit(monkeypatch):
    """On 0.95 - 1.8x^2 the fixed points' gaps lie below every fitted
    threshold, so stage 1 fails beside the census at n = 1; it runs again
    at the final fit, as ih_check runs it, and fails there too: each
    report equals the sample's alone."""
    config = ExperimentConfig(map=[0.95, 0.0, -1.8], brick={"family": "factorial", "tau": 1e-6,
                              "truncation_degree": 3}, num_samples=3, n_max=4, deltas=[1.0], radius=1.0)
    reruns = _reruns(monkeypatch)
    result = run_experiment(config)
    assert reruns == [(3, [1, 1, 1])]
    assert [(s.ih_status, s.ih_pass) for s in result.samples] == [("fails", 0)] * 3
    _assert_measured_alone(config, result)


def test_a_stage_that_holds_only_at_the_final_fit_runs_again(monkeypatch):
    """A params whose C rises at a later period: maps 0 and 2 take C = 2.15
    at periods 1 and 2, 0.05 at periods 3 and 4 and 2.2 at the end.  Their
    stages 1 and 2 hold above the final thresholds and qualify, so their
    rows take the final ones; stage 3 does not hold at 0.05, so from there
    their stages run again at 2.2, where all hold.  Map
    1's C falls, from 3.0 to 2.2 at the end: its stages hold, but below the
    final thresholds, so all run again.  Each map's censuses and rows equal
    find_periodic and ih_check on a fresh copy."""
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=3, master_seed=42)
    n_max, final = 5, GrowthParams(C=2.2, delta=1.0)

    def params(k: int, censuses: list) -> GrowthParams:
        if len(censuses) == n_max:
            return final
        return GrowthParams(C=3.0 if k == 1 else 2.15 if len(censuses) < 3 else 0.05, delta=1.0)

    maps = [_sample_map(config, i) for i in range(3)]
    radii = [invariant_radius(f) for f in maps]
    reruns = _reruns(monkeypatch)
    got = experiment._census_stack(maps, radii, n_max, 1e-12, params)
    assert reruns == [(3, [3, 1, 3])]
    for i, (censuses, report) in enumerate(got):
        f, R = _sample_map(config, i), radii[i]
        want = [find_periodic(f, n, radius=R) for n in range(1, n_max + 1)]
        assert censuses == want and [repr(c) for c in censuses] == [repr(c) for c in want]
        alone = ih_check(f, final, n_max, radius=R)
        assert report == alone and repr(report) == repr(alone)
        assert report.status == "holds"
    assert ih_check(maps[0], GrowthParams(C=0.05, delta=1.0), 3, radius=radii[0]).status != "holds"


def _abort_status(f: PerturbedMap, radius: float) -> str:
    """The status an experiment gives a sample whose period-1 census at
    `radius` is uncertified.  The error is dropped when the handler ends, so
    no traceback keeps f (and its memo) alive into later tests."""
    try:
        find_periodic(f, 1, radius=radius)
    except UncertifiedCensusError as err:
        return f"aborted:{err}"
    raise AssertionError("find_periodic certified the census")


def test_aborted_and_measured_samples_share_a_stack():
    """At radius 1, 9 a9 samples at master seed 0 leave samples 0, 1 and 4
    measured and 6 aborted, so both kinds share each stack: each measured
    report equals its per-map calls alone, and each aborted status is the
    error find_periodic raises on the sample's map at that radius."""
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=9, master_seed=0, n_max=3,
                              deltas=[1.0], radius=1.0)
    result = run_experiment(config)
    assert [s.index for s in result.samples if not s.aborted] == [0, 1, 4]
    for s in result.samples:
        if s.aborted:
            assert (s.status, s.rows, s.ih_status) == (_abort_status(_sample_map(config, s.index), 1.0), [], None)
            continue
        R, rows, fits, report = _sample_alone(config, s.index)
        assert (s.status, s.radius, s.rows, s.fits) == ("ok", R, rows, fits)
        assert (s.ih_c, s.ih_delta, s.ih_status) == (report.params.C, report.params.delta, report.status)
        assert s.ih_pass == max([0] + [row.period for row in report.rows if row.status == "holds"])


def test_a_stacked_census_extends_the_grid_tubes_once_a_period(monkeypatch):
    """In a stacked experiment of 5 samples through n_max 3 the stack makes
    one _tube_many call in _grid_tube a period, for all 5 maps, before its
    census, and neither the census nor the ih_check stage beside it makes
    one: they read that tube."""
    calls, grid_tubes = [], []
    tube, grid_tube = census_module._tube_many, census_module._grid_tube

    def counted_tube(*args):
        calls.append(1)
        return tube(*args)

    def counted_grid_tube(S, n):
        before = len(calls)
        out = grid_tube(S, n)
        caller = sys._getframe(1).f_code.co_name
        if caller == "_refine":  # the census's or the stage's
            caller = sys._getframe(2).f_code.co_name
        grid_tubes.append((caller, n, len(S.maps), len(calls) - before))
        return out

    monkeypatch.setattr(census_module, "_tube_many", counted_tube)
    monkeypatch.setattr(census_module, "_grid_tube", counted_grid_tube)
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=5, master_seed=42, n_max=3)
    assert [s.ih_status for s in run_experiment(config).samples] == ["holds"] * 5
    assert grid_tubes == [call for n in (1, 2, 3) for call in
                          (("_census_stack", n, 5, 1), ("_census", n, 5, 0), ("_ih_one_period", n, 5, 0))]


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _range_alone(f: PerturbedMap, R: float) -> tuple:
    """certified_range_1d of f at R as the per-map code computes it: the
    extrema of the map's own eval_many on the grid, padded by its own
    bounds."""
    xs = np.linspace(-R, R, 2049)
    vals = f.eval_many(xs)
    pad = f.bounds(R)[1] * (xs[1] - xs[0]) / 2.0
    return float(vals.min() - pad), float(vals.max() + pad)


def _a9_maps(master_seed: int, indices) -> list:
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, master_seed=master_seed)
    return [_sample_map(config, i) for i in indices]


def _odd_maps() -> list:
    """Three a9 samples, 2x, which has no invariant radius, and the first
    sample with a root-product term."""
    maps = _a9_maps(42, range(3))
    return maps + [PerturbedMap(base_map_from_spec([0.0, 2.0])),
                   maps[0].with_term(RootProductPerturbation(1e-3, (0.1, -0.2)))]


# name -> (the maps, the configured radius, each map's radius, the maps
# whose census certifies its radius)
_SETUP_STACKS = {
    "radii 1 and 1.0625": (lambda: _a9_maps(42, range(6)), None, [1.0] + [1.0625] * 5, [0, 1, 2, 3, 4, 5]),
    "no radius, root product": (_odd_maps, None, [1.0, 1.0625, 1.0625, None, 1.0], [0, 1, 2, 4]),
    "explicit radius 1.0625": (lambda: _a9_maps(42, range(6)), 1.0625, [1.0625] * 6, [0, 1, 2, 3, 4, 5]),
    "explicit radius 1, some uncertified": (lambda: _a9_maps(0, range(9)), 1.0, [1.0] * 9, [0, 1, 4]),
    "one map": (lambda: _a9_maps(42, [1]), None, [1.0625], [0]),
}


@pytest.mark.parametrize("stack", list(_SETUP_STACKS))
def test_the_stacked_setup_equals_the_per_map_calls(stack):
    """A stack's set-up (experiment._radii, then the domains _census_stack
    builds) fills each map's memo with the entries its per-map calls give
    a fresh copy, bit for bit: each range as the map's own eval_many and
    bounds give it, each bound triple as its own bounds, and each domain's
    constants as _domain on the copy alone, with sup |f'| from the map's
    own deriv_many.  Each map's strict invariance and radius are those of
    its ranges, the ladder's rungs climbed up to its radius (all of them
    where there is none)."""
    build, radius, want_radii, want_certified = _SETUP_STACKS[stack]
    maps, copies = build(), build()
    reports = [experiment.SampleReport(index=k, seed=(0, k)) for k in range(len(maps))]
    radii = experiment._radii(maps, ExperimentConfig(map="quadratic", radius=radius), reports)
    measured = [k for k, R in enumerate(radii) if R is not None]
    results = experiment._census_stack([maps[k] for k in measured], [radii[k] for k in measured], 1, 1e-12,
                                       lambda k, censuses: None)
    certified = [k for k, result in zip(measured, results) if not isinstance(result, UncertifiedCensusError)]
    assert (radii, certified) == (want_radii, want_certified)
    for k, (f, g, R, report) in enumerate(zip(maps, copies, radii, reports)):
        inside = {r: lo >= -r and hi <= r for r, (lo, hi) in ((r, _range_alone(g, r)) for r in dynamics._LADDER)}
        assert report.strict_invariance == inside[1.0]
        if radius is None:
            first = next((r for r in dynamics._LADDER if inside[r]), None)
            assert R == first
            climbed = [r for r in dynamics._LADDER if first is None or r <= first]
        else:
            climbed = list(dict.fromkeys([1.0, radius]))
        memo = dynamics._MEMO[f]
        assert [r for kind, r in memo if kind == "range"] == climbed
        assert [r for kind, r in memo if kind == "domain"] == ([float(R)] if k in certified else [])
        for (kind, r), value in memo.items():
            if kind == "range":
                assert _hex(value) == _hex(_range_alone(g, r))
            elif kind == "bounds":
                assert _hex(value) == _hex(g.bounds(r))
            else:
                slope = float(np.abs(g.deriv_many(np.linspace(-r, r, 4097))).max())
                assert _hex([value.D1]) == _hex([slope + value.D2 * (2.0 * r / 4096) / 2.0])
                assert _hex(value[:7]) == _hex(census_module._domain(g, r)[:7])


@pytest.mark.parametrize("gammas", [
    [0.5, None, math.inf, 0.9, 2.0, 1e-3, 0.25],
    [0.5, 0.0, 0.2, None],
    [0.7, -0.1, 0.2],
    [0.5, 0.25, math.nan, 0.1],
])
def test_the_running_fit_equals_fit_c_at_every_prefix(gammas):
    """The running fit of a sample's censuses (experiment._refit), carried
    on one period at a time or taken from scratch, equals fit_C of the
    certified gamma_n at every prefix of the periods, bit for bit: None and
    inf bind nothing, 0 and a negative gamma make C infinite for good, an
    uncertified census (gamma 1e-9, at each even period) counts for
    nothing, and a NaN gamma raises, as in fit_C."""
    censuses = []
    for n, g in enumerate(gammas):
        censuses.append(SimpleNamespace(period=2 * n + 1, certified=True, gamma_n=g))
        censuses.append(SimpleNamespace(period=2 * n + 2, certified=False, gamma_n=1e-9))
    for delta in (0.0, 0.5, 1.0):
        fit, raised = (0, 0.0), False
        for m in range(len(censuses) + 1):
            prefix = censuses[:m]
            try:
                want = fit_C(experiment._gammas(prefix), delta)
            except InvalidInputError:
                for start in (fit, (0, 0.0)):
                    with pytest.raises(InvalidInputError, match="NaN"):
                        experiment._refit(start, prefix, delta)
                raised = True
                break
            fit = experiment._refit(fit, prefix, delta)
            assert fit == experiment._refit((0, 0.0), prefix, delta) and fit[0] == m
            assert _hex([fit[1]]) == _hex([want])
        assert raised == any(g is not None and math.isnan(g) for g in gammas)
        assert (fit[1] == math.inf) == any(g is not None and g <= 0 for g in gammas)


def test_the_memo_holds_one_stack_of_samples_at_a_time(monkeypatch):
    """Each stack's maps, and their memos, go before the next stack is
    drawn: at every stacked census of a 2 _STACK + 2 sample experiment,
    run in this process alone, the memo holds at most _STACK sample maps,
    the maps of one stack."""
    _serial(monkeypatch)
    held = []
    census = census_module._census

    def counted(S, *args):
        held.append(sum(isinstance(f, PerturbedMap) for f in list(dynamics._MEMO.keys())))
        return census(S, *args)

    monkeypatch.setattr(census_module, "_census", counted)
    stack = experiment._STACK
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=2 * stack + 2, master_seed=7, n_max=2)
    assert all(not s.aborted for s in run_experiment(config).samples)
    assert held == [stack] * 4 + [2] * 2


def test_each_sample_holds_one_grid_tube_at_a_time(monkeypatch):
    """At every stacked census and ih_check stage of an experiment through
    n_max 6, each sample map's domain holds the grid tube of one period, the
    census's, where find_periodic would keep one per period so far."""
    _serial(monkeypatch)
    held = []

    def probed(name):
        run = getattr(census_module, name)

        def probe(S, n, *args):
            held.append(max(len(entry.tubes) for f in list(dynamics._MEMO.keys()) if isinstance(f, PerturbedMap)
                            for key, entry in dynamics._MEMO[f].items() if key[0] == "domain"))
            return run(S, n, *args)

        monkeypatch.setattr(census_module, name, probe)

    probed("_census")
    probed("_ih_one_period")
    config = ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=4, master_seed=42, n_max=6)
    assert [s.ih_pass for s in run_experiment(config).samples] == [6] * 4
    assert held == [1] * 12


# -- workers: the samples shared out over forked processes ---------------------------


REPORTS = ("samples.ndjson", "table.csv", "summary.json")


@pytest.fixture
def reaped():
    """Fails the test that leaves a child process behind, running or not
    yet reaped (a zombie)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _a9(num_samples: int, n_max: int = 3) -> ExperimentConfig:
    return ExperimentConfig(map="quadratic", brick=A9_BRICK, num_samples=num_samples, master_seed=42,
                            n_max=n_max, deltas=[1.0])


def _run_on(monkeypatch, W: int) -> list:
    """Runs experiments in W processes from here on; the list, filled as
    they run, has one entry for each worker this process forks."""
    forks, fork = [], os.fork

    def counted():
        forks.append(W)
        return fork()

    monkeypatch.setattr(experiment, "_workers", lambda stacks: W)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_the_worker_count(monkeypatch):
    """One process per usable CPU, at most one per stack; one where there
    is no fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert [experiment._workers(k) for k in (1, 2, 3, 100)] == [1] + [min(cpus, k) for k in (2, 3, 100)]
    monkeypatch.delattr(os, "fork")
    assert experiment._workers(100) == 1


@pytest.mark.parametrize("num, W", [(experiment._STACK + 4, 2), (2 * experiment._STACK + 3, 2),
                                    (2 * experiment._STACK + 3, 3)])
def test_workers_write_the_serial_reports_byte_for_byte(tmp_path, monkeypatch, reaped, num, W):
    """Split over W processes, in uneven shares (at _STACK = 25, 29 samples
    as 14 and 15, 53 as 26 and 27 or 17, 18 and 18), the a9 samples give the reports of
    the run in one process, byte for byte."""
    reports = {}
    for w in (1, W):
        forks = _run_on(monkeypatch, w)
        emit_reports(run_experiment(_a9(num)), str(tmp_path / str(w)))
        assert len(forks) == w - 1
        reports[w] = [(tmp_path / str(w) / name).read_bytes() for name in REPORTS]
    assert reports[W] == reports[1]


def test_reports_larger_than_a_pipe_come_back_whole(monkeypatch, reaped):
    """A worker's share can send more than a pipe holds (64 KB on Linux):
    this process reads it all before it reaps the worker."""
    def measured(config, base, brick, share):
        return [SampleReport(index=i, seed=(0, i), rows=[(n, n, 1.0 / n, True) for n in range(1, 2000)])
                for i in share]

    def stuck(*args):
        raise TimeoutError("the worker and this process wait on each other")

    monkeypatch.setattr(experiment, "_measure_share", measured)
    _run_on(monkeypatch, 2)
    handler = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        result = run_experiment(_a9(2 * experiment._STACK))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert [s.to_record() for s in result.samples] == [s.to_record() for s in measured(None, None, None, range(50))]


def _in_workers(monkeypatch, act):
    """Makes every worker's share call act(share) in place of measuring
    it; this process measures its own share."""
    parent, measure = os.getpid(), experiment._measure_share

    def measured(config, base, brick, share):
        if os.getpid() != parent:
            return act(share)
        return measure(config, base, brick, share)

    monkeypatch.setattr(experiment, "_measure_share", measured)
    _run_on(monkeypatch, 2)


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch, reaped):
    def refuse(share):
        raise ConfigurationError(f"share {share.start}-{share.stop} refused")

    _in_workers(monkeypatch, refuse)
    num = 2 * experiment._STACK + 3
    with pytest.raises(ConfigurationError, match=f"^share {num // 2}-{num} refused$"):
        run_experiment(_a9(num))


def test_a_worker_that_dies_names_its_exit_code(monkeypatch, reaped):
    _in_workers(monkeypatch, lambda share: os._exit(3))
    with pytest.raises(OrbitLabError, match="exit code 3 before sending its reports"):
        run_experiment(_a9(2 * experiment._STACK))


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch, reaped):
    """A KeyboardInterrupt in this process's share, while the worker still
    runs its own (a minute's sleep), reaches the caller at once, and the
    worker goes with it."""
    def interrupted(config, base, brick, share):
        if share.start:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment, "_measure_share", interrupted)
    _run_on(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_a9(2 * experiment._STACK))
    assert time.monotonic() - start < 30


def test_no_fork_beside_another_thread(monkeypatch, reaped):
    """With a second thread running, which a fork would not copy, an
    experiment of three stacks runs in this process alone."""
    def refused():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", refused)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert experiment._workers(3) == 1
        result = run_experiment(_a9(2 * experiment._STACK + 3, n_max=1))
    finally:
        done.set()
        other.join()
    assert [s.index for s in result.samples] == list(range(2 * experiment._STACK + 3))
