"""Smoke tests for the command-line front end."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import orbitlab
from orbitlab.cli import main


def test_gamma_command(capsys):
    rc = main(["gamma", "--matrix", "2,0;0,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma =" in out
    value = float(out.split("gamma =")[1].split()[0])
    assert value == pytest.approx(1.0, abs=1e-9)
    assert "certified tolerance" in out


def test_census_command(capsys):
    rc = main(["census", "--preset", "quadratic", "--period", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "count = 3" in out
    assert "certified: True" in out
    assert "gamma_n" in out


def test_readme_census_example_is_the_printed_output(capsys):
    """README's `orbitlab census --preset quadratic --period 2` block is what
    the command prints, line for line."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    command = "$ orbitlab census --preset quadratic --period 2\n"
    block = text.split(command, 1)[1].split("```", 1)[0]
    assert main(["census", "--preset", "quadratic", "--period", "2"]) == 0
    assert capsys.readouterr().out == block


def test_census_json_output(capsys):
    rc = main(["census", "--preset", "half", "--period", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["certified"] is True
    assert payload["points"][0]["gap"] == pytest.approx(0.5, abs=1e-10)
    assert payload["points"][0]["location"] == pytest.approx(0.0, abs=1e-10)
    assert payload["points"][0]["least_period"] == 1


def test_census_json_reports_least_periods(capsys):
    """At period 12 of x^2 - 1 the three points are the fixed point and the
    2-cycle, each read from the censuses at the divisors 1 and 2."""
    assert main(["census", "--preset", "quadratic", "--period", "12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True and payload["count"] == 3
    assert sorted(p["least_period"] for p in payload["points"]) == [1, 2, 2]


def test_census_exit_code_says_whether_it_certified(capsys):
    """Text and JSON output alike exit 1 for an uncertified census: the
    triple fixed point of x - x^3 leaves a cluster undecided."""
    args = ["census", "--coeffs", "0,1,0,-1", "--radius", "0.5", "--period", "1", "--tol", "1e-4"]
    assert main(args) == 1
    assert "certified: False" in capsys.readouterr().out
    assert main(args + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["certified"] is False


def test_perturb_close_command(capsys):
    rc = main(
        ["perturb", "close", "--coeffs", "0,2", "--x0", "0.1", "--period", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "u = -3" in out
    residual = float(out.split("=")[-1])
    assert residual < 1e-12


def test_perturb_hyp_command(capsys):
    rc = main(
        ["perturb", "hyp", "--preset", "identity", "--x0", "0.0", "--period", "1",
         "--gamma", "0.1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "v = 0.11" in out
    gap = float(out.split("gap =")[1].split()[0])
    assert gap > 0.1


def test_sample_command(capsys):
    rc = main(["sample", "--family", "factorial", "--tau", "0.1", "--degree", "4",
               "--seed", "3"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["brick"]["family"] == "factorial"
    assert rec["dim"] == 1
    assert len(rec["components"]) == 5


def test_grid_table_command(capsys):
    rc = main(["grid", "table", "--periods", "3", "--m-bound", "2", "--c", "1",
               "--delta", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_n" in out
    assert "0.367879" in out
    assert len(out.strip().splitlines()) == 4


def test_grid_enumerate_command(capsys):
    rc = main(["grid", "enumerate", "--preset", "half", "--period", "3",
               "--spacing", "0.1", "--slack", "0.01", "--start", "0.8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "count = 1" in out
    assert "(8, 4, 2)" in out
    assert "partial: False" in out


def test_experiment_command(tmp_path, capsys):
    cfg = {"map": "half", "num_samples": 1, "n_max": 2, "deltas": [1.0]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    for name in ("samples.ndjson", "table.csv", "summary.json"):
        assert (out_dir / name).exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["num_ok"] == 1
    assert summary["num_aborted"] == 0


def test_experiment_reports_bad_config_values(tmp_path, capsys):
    """A config value of the wrong type or range is a reported error, exit
    code 1, before any census runs, and never a traceback."""
    for bad in ({"num_samples": 2.5}, {"n_max": 1.5}, {"master_seed": 0.5}, {"deltas": 0.1},
                {"tol": 2.0}, {"radius": -1.0}):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict({"map": "half", "num_samples": 1, "n_max": 1}, **bad)))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1, bad
        assert capsys.readouterr().err.startswith("error: "), bad
        assert not (tmp_path / "out").exists()


def test_cli_reports_domain_errors(capsys):
    rc = main(["census", "--preset", "quadratic", "--period", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_nonsquare_matrix(capsys):
    rc = main(["gamma", "--matrix", "1,2;3,4;5,6"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _refused(capsys, argv) -> str:
    """main(argv) exits 1 and writes one `error:` line to stderr, which it
    returns."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    return err


_ENUMERATE = ["grid", "enumerate", "--period", "2", "--spacing", "0.1", "--slack", "0.1"]


@pytest.mark.parametrize("argv, name", [
    (["census", "--coeffs", "1,x", "--period", "1"], "--coeffs"),
    (["perturb", "close", "--coeffs", "0,0.5,", "--x0", "0.1", "--period", "2"], "--coeffs"),
    (_ENUMERATE + ["--coeffs", "0,half", "--start", "0"], "--coeffs"),
    (_ENUMERATE + ["--coeffs", "0,0.5", "--start", "0,y"], "--start"),
    (["gamma", "--matrix", "1,2;3,x"], "--matrix"),
    (["gamma", "--matrix", "1,2;3"], "--matrix"),
    (["sample", "--family", "custom", "--sizes", "1,q"], "--sizes"),
], ids=["census-coeffs", "perturb-coeffs", "grid-coeffs", "start", "matrix-entry", "matrix-ragged", "sizes"])
def test_a_malformed_hand_parsed_argument_is_one_error_line(capsys, argv, name):
    """Each argument the front end parses by hand is refused with one
    `error:` line naming it and exit code 1, not a traceback."""
    assert name in _refused(capsys, argv)


@pytest.mark.parametrize("text, words", [
    (None, "cannot read config"),
    ("{bad", "is not valid JSON"),
    ('["x"]', "must be an object"),
    ('{"brick": {"family": "geometric", "tau": 0.1, "truncation_degree": 3}}', "lacks 'q'"),
    ('{"brick": {"tau": 0.1}}', "lacks 'family'"),
    ('{"brick": "x"}', "must be an object"),
], ids=["missing-file", "invalid-json", "not-an-object", "brick-no-q", "brick-no-family", "brick-not-an-object"])
def test_experiment_refuses_a_malformed_config_with_one_error_line(tmp_path, capsys, text, words):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert words in _refused(capsys, ["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


_COLD_START = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

loaded = {}
import orbitlab
loaded["import"] = scipy_modules()
from orbitlab.cli import main
config, out = sys.argv[1], sys.argv[2]
runs = {
    "experiment": ["experiment", "--config", config, "--out", out],
    "census": ["census", "--preset", "quadratic", "--period", "3"],
    "sample": ["sample", "--family", "factorial", "--degree", "4", "--seed", "3"],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    """Only the QZ pencil behind gamma_linear needs scipy, so a fresh process
    that imports orbitlab and runs an experiment, a census and a sample loads
    no scipy module at all."""
    cfg = {"map": "quadratic", "brick": {"family": "factorial", "tau": 0.01, "truncation_degree": 6},
           "num_samples": 1, "n_max": 1, "deltas": [1.0]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbitlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _COLD_START, str(cfg_path), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "experiment": [], "census": [], "sample": []}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["num_ok"] == 1


def test_census_into_a_closed_pipe_exits_quietly():
    """A reader that stops after one line (`orbitlab census ... | head -1`)
    closes the pipe while the census still prints its 1,791 points, more
    than a pipe holds: the command drops the rest with nothing on stderr
    and exits with the census's own code, 0 as it certifies."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbitlab.__file__)))
    argv = ["census", "--coeffs", "0.95,0,-1.8", "--radius", "1", "--period", "16"]
    proc = subprocess.Popen([sys.executable, "-m", "orbitlab.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "period 16 on [-1, 1]\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_package_exports_each_module_all_once():
    """orbitlab.__all__ joins the __all__ lists of the library modules (every
    module but the command-line front end): each name once, none private,
    and each bound to its module's own object."""
    modules = [importlib.import_module(f"orbitlab.{m.name}")
               for m in pkgutil.iter_modules(orbitlab.__path__) if m.name != "cli"]
    assert len(modules) == 8
    joined = [name for module in modules for name in module.__all__]
    assert len(set(joined)) == len(joined) == len(orbitlab.__all__)
    assert set(orbitlab.__all__) == set(joined)
    for module in modules:
        for name in module.__all__:
            assert not name.startswith("_")
            assert getattr(orbitlab, name) is getattr(module, name), (module.__name__, name)
