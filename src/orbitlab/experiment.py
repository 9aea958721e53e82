"""Randomized census experiment: sample perturbations, count periodic points,
fit the growth profile, and re-check it.

One experiment draws `num_samples` perturbations of a base polynomial map
from a brick (independent substreams of a single master seed, so any sample
can be reproduced in isolation), runs the certified periodic-point census for
every period up to `n_max`, fits the smallest stretched-exponential constant
C consistent with the observed hyperbolicity margins, and then certifies the
fitted profile (inflated by a safety factor) with the box checker.

The samples run in stacks of _STACK consecutive indices.  A stack's
samples are drawn and set up in one pass, as the census runs: their
certified ranges at each radius (strict invariance, the invariant-radius
ladder or the configured radius) and then their domains of each radius
are each one array pass over all the maps that need them (_radii,
dynamics._ranges, census._domains), with each map's own floats.  Then
_census_stack runs one census per period on the whole stack (one array
pass per round for all its maps) and, beside it, that period's ih_check
stage, each sample's at C fitted from its censuses so far: a running fit,
raised by one term per new period (_refit), which is fit_C's C bit for
bit.  C only grows as periods are added, so a stage that holds there
holds at the final fit as well; any other runs again at the final fit.
Each sample's report is the one find_periodic (gamma_n_of_map) and
ih_check give it alone, bit for bit.  In each process only one stack's
maps and their memos are alive at a time, and each memo holds its grid's
orbit tube at one period, not at every period so far.

The samples are split into contiguous shares, one per usable CPU but no
more than there are stacks: forked workers run all shares but the first,
which this process runs, and send back their reports, which are joined in
index order (run_experiment).  As each report is the sample's alone, the
reports are byte-identical whatever the number of CPUs.

Reports are written as NDJSON (one object per sample), a flat CSV table of
census rows, and a JSON summary.  All floats are serialized via their
shortest round-trip representation, so repeated runs with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
import statistics
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import census, dynamics
# gamma_n_of_map, ih_check, certified_range_1d and invariant_radius are the
# per-map forms of the stacked calls below, and stay importable from here
# for tools that trace an experiment
from .census import GrowthParams, gamma_n_of_map, ih_check  # noqa: F401
from .dynamics import PerturbedMap, PolynomialMap, certified_range_1d, invariant_radius  # noqa: F401
from .errors import (ConfigurationError, InvalidInputError, OrbitLabError, UncertifiedCensusError, _array, _period,
                     _real)
from .perturbation import BrickSpec, sample as sample_perturbation

__all__ = [
    "base_map_from_spec",
    "ExperimentConfig",
    "SampleReport",
    "ExperimentResult",
    "fit_C",
    "run_experiment",
    "emit_reports",
]

PRESET_MAPS = {
    "quadratic": [-1.0, 0.0, 1.0],  # x^2 - 1
    "half": [0.0, 0.5],  # x / 2
    "identity": [0.0, 1.0],
}


def base_map_from_spec(spec) -> PolynomialMap:
    """Build the base map from a preset name or an ascending coefficient list."""
    if isinstance(spec, str):
        if spec not in PRESET_MAPS:
            raise InvalidInputError(
                f"unknown preset {spec!r}; options: {sorted(PRESET_MAPS)}"
            )
        return PolynomialMap.univariate(PRESET_MAPS[spec])
    coeffs = _array(spec, "map")
    if coeffs.ndim != 1 or not coeffs.size:
        raise InvalidInputError(f"map must be a preset name or a nonempty list of numbers, not {spec!r}")
    return PolynomialMap.univariate(coeffs.tolist())


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    map: object = "quadratic"  # preset name or ascending coefficients
    brick: Optional[dict] = None  # BrickSpec record; None = unperturbed
    num_samples: int = 4
    master_seed: int = 0
    n_max: int = 3
    deltas: list = field(default_factory=lambda: [0.1])
    # The box check asks more than the fit: the stage slack admits almost-
    # periodic points whose multiplier sits below the gap at the true
    # periodic points, so the fitted C is inflated before checking.
    ih_c_factor: float = 1.5
    force_zero_eps: bool = False
    radius: Optional[float] = None
    tol: float = 1e-12

    def __post_init__(self):
        _period(self.num_samples, 1, "num_samples")
        _period(self.n_max, 1, "n_max")
        _period(self.master_seed, 0, "master_seed")
        if not isinstance(self.deltas, list):
            raise InvalidInputError("deltas must be a list")
        if not self.deltas:
            raise InvalidInputError("need at least one delta")
        for d in self.deltas:
            _real(d, "an entry of deltas", gt=0)
        _real(self.ih_c_factor, "ih_c_factor", ge=1)
        _real(self.tol, "tol", gt=0, lt=1)
        if self.radius is not None:
            _real(self.radius, "radius", gt=0)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"a config must be an object, not {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """The config in the JSON file at `path`; ConfigurationError where
        the file cannot be read or is not a JSON object."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except OSError as err:
            raise ConfigurationError(f"cannot read config {path}: {err.strerror or err}") from None
        except ValueError as err:  # JSONDecodeError, and UnicodeDecodeError
            raise ConfigurationError(f"config {path} is not valid JSON: {err}") from None
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return asdict(self)

    def brick_spec(self) -> Optional[BrickSpec]:
        if self.brick is None:
            return None
        return BrickSpec.from_record(self.brick)


@dataclass
class SampleReport:
    """Everything measured for one sampled perturbation."""

    index: int
    seed: tuple
    status: str = "ok"  # "ok" or "aborted:<reason>"
    strict_invariance: Optional[bool] = None
    radius: Optional[float] = None
    rows: list = field(default_factory=list)  # (n, count, gamma_n, certified)
    fits: list = field(default_factory=list)  # (delta, C)
    ih_c: Optional[float] = None
    ih_delta: Optional[float] = None
    ih_status: Optional[str] = None
    ih_pass: Optional[int] = None  # largest n with the hypothesis verified through n

    @property
    def aborted(self) -> bool:
        return self.status != "ok"

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "seed": list(self.seed),
            "status": self.status,
            "strict_invariance": self.strict_invariance,
            "radius": self.radius,
            "rows": [
                {"n": n, "count": count, "gamma_n": g, "certified": certified}
                for (n, count, g, certified) in self.rows
            ],
            "fits": [{"delta": d, "C": c} for (d, c) in self.fits],
            "ih": {
                "C": self.ih_c,
                "delta": self.ih_delta,
                "status": self.ih_status,
                "pass": self.ih_pass,
            },
        }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    samples: list

    @property
    def num_aborted(self) -> int:
        return sum(1 for s in self.samples if s.aborted)


def fit_C(gammas, delta: float) -> float:
    """Smallest C >= 0 with gamma_n >= exp(-C n^(1+delta)) for every observed
    (n, gamma_n); +inf when some gamma_n is <= 0, 0 when nothing binds
    (gamma_n >= 1 everywhere or no data).  A NaN gamma_n is an error."""
    _real(delta, "delta", ge=0)
    items = gammas.items() if hasattr(gammas, "items") else gammas
    best = 0.0
    for n, g in items:
        best = max(best, _fit_term(n, g, delta))
    return best


def _fit_term(n, g, delta: float) -> float:
    """The smallest C >= 0 that one observed (n, gamma_n) asks for: 0 when
    gamma_n is None or infinite (no periodic points at this n: no
    constraint), +inf when it is <= 0.  fit_C is the largest of these over
    all periods, and max(best, 0) is best, as best is never below 0."""
    _period(n, 1, "periods")
    if g is None or math.isinf(g):
        return 0.0
    if math.isnan(g):
        raise InvalidInputError(f"gamma_{n} is NaN")
    return math.inf if g <= 0.0 else -math.log(g) / float(n) ** (1.0 + delta)


def _refit(fit: tuple, censuses: list, delta: float) -> tuple:
    """(m, C) for a sample's first m censuses, C being fit_C of their
    certified gamma_n, carried on to all of `censuses`, which start with
    those m: each census after them raises C to its own term (_fit_term)
    where it is certified.  fit_C's C is the largest term, so this equals
    fit_C(_gammas(censuses), delta) bit for bit, with one term computed per
    new period."""
    m, C = fit
    for c in censuses[m:]:
        if c.certified:
            C = max(C, _fit_term(c.period, c.gamma_n, delta))
    return len(censuses), C


# Consecutive samples whose censuses and ih_check stages run as one stack
# (_census_stack): each round is one array pass for the whole stack, so
# its per-call cost is paid once per stack, while only one stack's maps
# and their memos are alive at a time in each process.  Each map holds its
# grid's tube at one period, and the stack's rounds hold arrays of all its
# maps' cells, so memory still grows with the stack, about 120 KB a map.
# Measured in one process, before the samples were shared out over the
# CPUs: the a9 run (50 samples, n_max 8) took 0.137 reference s at a peak
# of 45.1 MB with stacks of 5 that kept every tube; keeping one, it takes
# 0.121, 0.117, 0.114, 0.112, 0.110, 0.110 and 0.105 s at stacks of 10,
# 16, 20, 25, 32, 40 and 50, with a peak of 44.8, 45.3, 46.2, 46.4, 47.7,
# 48.7 and 49.7 MB (one 8 s run each; 6 runs at 25, 11 at 5): 25 is the
# largest of these within 2 MB of that peak.  On 2 CPUs the 50 samples are
# two shares of 25, one stack in each process.
_STACK = 25


def _radii(drawn: list, config: ExperimentConfig, reports: list) -> list:
    """Each sample's strict invariance and the radius its censuses run on
    (None, with the report aborted, where there is none), for a stack of
    samples in one pass: one stacked range pass (dynamics._ranges) at the
    base's domain radius r0, then one at the config's radius, or the
    invariant-radius ladder climbed by all samples at once, whose first
    rung, r0, finds its ranges in the memos.  Every range the stack's
    censuses certify their radius with is then in its map's memo."""
    r0 = drawn[0].domain_radius  # the base's, which every sample shares
    for report, (lo, hi) in zip(reports, dynamics._ranges(drawn, r0)):
        report.strict_invariance = bool(lo >= -r0 and hi <= r0)
    if config.radius is None:
        radii = dynamics._invariant_radii(drawn)
    else:
        dynamics._ranges(drawn, config.radius)
        radii = [config.radius] * len(drawn)
    for report, R in zip(reports, radii):
        if R is None:
            report.status = "aborted:no-invariant-radius"
        else:
            report.radius = float(R)
    return radii


def _census_stack(maps: list, radii: list, n_max: int, tol: float, params) -> list:
    """What an experiment measures of each map of a stack, on its radius R
    (certified as find_periodic certifies it): its censuses at n = 1..n_max
    and, where params(k, censuses) gives GrowthParams for map k from all of
    them, its ih_check report through n_max with those, each at the default
    budgets.  Returns per map (censuses, report or None), equal to its
    find_periodic and ih_check calls alone, or the UncertifiedCensusError
    its R raised.  Each R is checked as find_periodic checks it, from the
    ranges in the map's memo, and the domains of each R are built in one
    stacked pass (census._domains).  It runs the census's stacked steps
    (census._census, census._ih_one_period and census._ih_stages on a
    census._Stack) in the order below, which keeps the stack's memory at
    one grid tube a map.

    One stacked census runs per period n and, beside it, one stacked
    ih_check stage n, each map's at params(k, its censuses at 1..n):
    provisional parameters.  params(k, censuses) must depend on those
    censuses alone, as it is called again at the end for the final ones;
    as a map's list of censuses only grows at its end, params may carry a
    running fit from one call to the next.  Before the census the stack
    extends its grid tubes to period n (census._grid_tube) and drops every
    other one but the grid itself, from the stack and from the maps'
    domains, so each map holds one tube, where find_periodic and ih_check
    keep one per period.  A map's provisional stages stop at the first
    that does not hold or that left a witness candidate unpaid for budget.

    A provisional stage qualifies when it holds, paid every witness
    candidate, and its threshold and slack (as floats) are not below the
    final ones.  Then the final stage decides every cell as it did: with
    the slack and the gap floor max(threshold, ulp(0)) no larger, a cell the
    final stage keeps is neither excluded nor hyperbolic at the provisional
    stage either, and a final witness candidate or witness is a provisional
    one, which the stage paid for and which failed nothing.  So round by
    round the final cells are among the provisional cells, within the
    budget those stayed in, none reaches the width floor, and the final
    stage holds with no witness and nothing unresolved: its row is
    IHRow(k, final threshold, final slack, "holds", None, ()).  From a map's
    first stage that does not qualify its stages run again as ih_check runs
    them, at the final params, on grid tubes extended afresh from the grid,
    which they keep as ih_check does.  An experiment's C,
    the largest -log(gamma_n) / n^(1+delta) over the certified censuses so
    far, only grows as periods are added, so its thresholds only fall: on
    the a9 brick every stage qualifies."""
    out: list = [None] * len(maps)
    for k, (f, R) in enumerate(zip(maps, radii)):
        try:
            census._resolve_radius(f, R)
        except UncertifiedCensusError as err:
            out[k] = err.with_traceback(None)  # whose frames would hold the maps
    live = [k for k, err in enumerate(out) if err is None]
    if not live:
        return out
    dom: dict = {}  # k -> the _Domain of map k
    for R in dict.fromkeys(float(radii[k]) for k in live):  # the domains of each radius in one pass
        at = [k for k in live if float(radii[k]) == R]
        dom.update(zip(at, census._domains([maps[k] for k in at], R)))
    doms = [dom[k] for k in live]
    S = census._Stack([maps[k] for k in live], doms)
    censuses: list = [[] for _ in live]
    held: list = [[] for _ in live]  # (threshold, slack) of each provisional stage that held, all paid
    going = list(range(len(live)))  # the maps whose provisional stages all held, all paid
    for n in range(1, n_max + 1):
        census._grid_tube(S, n)  # one step on period n - 1's, which goes with every tube but the grid's and n's
        for tubes in (S.tubes, *(dom.tubes for dom in S.doms)):
            for old in [old for old in tubes if old not in (0, n)]:
                del tubes[old]
        for mine, result in zip(censuses, census._census(S, n, tol, census._CENSUS_BUDGET)):
            mine.append(result)
        now = [(j, params(live[j], censuses[j])) for j in going]
        now, going = [(j, p) for j, p in now if p is not None], []
        if now:
            stages = [census._stage(p, n) for _, p in now]
            thr, slack = (list(v) for v in zip(*stages))
            ran = census._ih_one_period(S.subset([j for j, _ in now]), n, thr, slack, census._IH_BUDGET)
            for (j, _), stage, row, unpaid in zip(now, stages, *ran):
                if row.status == "holds" and not unpaid:
                    held[j].append(stage)
                    going.append(j)

    final = [params(k, mine) for k, mine in zip(live, censuses)]
    checked = [j for j, p in enumerate(final) if p is not None]
    rows: dict = {}
    for j in checked:
        rows[j] = []
        for k, (t, sl) in enumerate(held[j], 1):
            thr, slack = census._stage(final[j], k)
            if t < thr or sl < slack:
                break
            rows[j].append(census.IHRow(period=k, threshold=thr, slack=slack, status="holds", witness=None,
                                        unresolved=()))
    rerun = [j for j in checked if len(rows[j]) < n_max]
    if rerun:
        more = census._ih_stages(S.subset(rerun), [final[j] for j in rerun], n_max, census._IH_BUDGET,
                                 [len(rows[j]) + 1 for j in rerun])
        for j, tail in zip(rerun, more):
            rows[j] += tail
    for j, k in enumerate(live):
        report = census.IHReport(params=final[j], radius=doms[j].R, rows=tuple(rows[j])) if j in rows else None
        out[k] = (censuses[j], report)
    return out


def _gammas(censuses: list) -> dict:
    """period -> gamma_n of each certified census."""
    return {c.period: c.gamma_n for c in censuses if c.certified}


def _measure_stack(config: ExperimentConfig, base: PolynomialMap, brick, indices: range) -> list:
    """The reports of the samples `indices`: all are drawn and set up in
    one pass (_radii: their ranges, strict invariance and radii); then
    _census_stack measures all that have a radius, with each sample's
    ih_check at C fitted from its censuses, and each report is filled in
    from its sample's results.  The fit is a running one: params folds in
    the censuses it has not seen yet (_refit), so C is fitted once per new
    period, not from all censuses at every period."""
    seeds = [(config.master_seed, i) for i in indices]
    if config.force_zero_eps:
        drawn = [PerturbedMap(base) for _ in seeds]
    else:
        drawn = [PerturbedMap(base, sample_perturbation(brick, 1, seed=seed)) for seed in seeds]
    reports = [SampleReport(index=i, seed=seed) for i, seed in zip(indices, seeds)]
    radii = _radii(drawn, config, reports)
    measured = [j for j, R in enumerate(radii) if R is not None]
    delta0 = config.deltas[0]
    fits: dict = {}  # k -> (m, C fitted from its first m censuses) of each measured sample

    def params(k: int, censuses: list):
        """The GrowthParams of a sample's ih_check from its censuses: C
        fitted at the first delta, times ih_c_factor (None where that is
        not finite).  C is the sample's running fit, carried on from the
        censuses it was last fitted from (_refit)."""
        fits[k] = _refit(fits.get(k, (0, 0.0)), censuses, delta0)
        c_ih = config.ih_c_factor * fits[k][1]
        return GrowthParams(C=c_ih, delta=delta0) if math.isfinite(c_ih) else None

    results = _census_stack([drawn[j] for j in measured], [radii[j] for j in measured], config.n_max,
                            config.tol, params)
    for j, result in zip(measured, results):
        report = reports[j]
        if isinstance(result, UncertifiedCensusError):
            reports[j] = SampleReport(index=report.index, seed=report.seed, status=f"aborted:{result}")
            continue
        censuses, ih = result
        report.rows = [(c.period, c.count, c.gamma_n if c.certified else None, c.certified) for c in censuses]
        gammas = _gammas(censuses)
        report.fits = [(d, fit_C(gammas, d)) for d in config.deltas]
        if ih is None:
            report.ih_status = "skipped:no-finite-fit"
            continue
        report.ih_c, report.ih_delta = ih.params.C, ih.params.delta
        report.ih_status, report.ih_pass = ih.status, 0
        for row in ih.rows:
            if row.status != "holds":
                break
            report.ih_pass = row.period
    return reports


def _workers(stacks: int) -> int:
    """How many processes run an experiment of `stacks` stacks: one per
    usable CPU, at most one per stack, and 1 (no fork) for one stack, where
    there is no fork, and where this process runs other threads, which a
    fork would not copy."""
    if stacks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, stacks)


def _measure_share(config: ExperimentConfig, base: PolynomialMap, brick, share: range) -> list:
    """The reports of the samples `share`, in stacks of _STACK consecutive
    indices (_measure_stack)."""
    samples = []
    for first in range(share.start, share.stop, _STACK):
        samples += _measure_stack(config, base, brick, range(first, min(first + _STACK, share.stop)))
    return samples


def _pickled_share(*share) -> bytes:
    """What a worker sends back: the pickled (True, reports of its share),
    or (False, the exception that stopped it), one that survives pickling."""
    try:
        return pickle.dumps((True, _measure_share(*share)))
    except BaseException as err:
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(err))))
        except Exception:  # an exception that does not pickle
            return pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sampling experiment described by `config`.  The sample
    indices are split into W contiguous shares, as equal as possible, W
    being the usable CPUs but at most the number of stacks of _STACK
    (_workers).  W - 1 forked workers run a share each and this process the
    first; each share runs in stacks of _STACK consecutive indices
    (_measure_stack), and the shares' reports are joined in index order.
    Each sample's report equals the one it gets alone, so the result is
    the same, byte for byte, whatever W is.  A worker's exception is raised
    here with its type and message, a worker that ends without its reports
    raises OrbitLabError naming its exit code, and on any error or
    interrupt every worker is killed and reaped."""
    base = base_map_from_spec(config.map)
    brick = config.brick_spec()
    if brick is None and not config.force_zero_eps:
        # nothing to sample: one deterministic unperturbed sample
        config = replace(config, force_zero_eps=True)

    num = config.num_samples
    W = _workers(-(-num // _STACK))
    cuts = [num * w // W for w in range(W + 1)]
    workers = []  # [pid, or None before the fork and once reaped; the read end of its pipe]
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            workers.append([None, r])
            try:
                pid = os.fork()
                if pid == 0:  # a worker: it writes its share's reports and ends, whatever happens
                    code = 1
                    try:
                        for _, fd in workers:
                            os.close(fd)
                        with open(w, "wb", closefd=False) as out:
                            out.write(_pickled_share(config, base, brick, range(a, b)))
                        code = 0
                    finally:
                        os._exit(code)
                workers[-1][0] = pid
            finally:
                os.close(w)  # so that the read end sees the end of the file when the worker ends
        samples = _measure_share(config, base, brick, range(0, cuts[1]))
        for worker in workers:
            with open(worker[1], "rb", closefd=False) as pipe:
                sent = pipe.read()  # before the worker is reaped: its reports can fill the pipe
            code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
            worker[0] = None
            if code != 0:
                raise OrbitLabError(f"an experiment worker ended with exit code {code} before sending its reports")
            ok, got = pickle.loads(sent)
            if not ok:
                raise got
            samples += got
    finally:
        for pid, r in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)
    return ExperimentResult(config=config, samples=samples)


# -- serialization -------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _format_float(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def emit_reports(result: ExperimentResult, out_dir: str) -> dict:
    """Write samples.ndjson, table.csv, and summary.json under `out_dir`;
    returns the summary dict."""
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "samples.ndjson"), "w", encoding="utf-8") as fh:
        for s in result.samples:
            fh.write(json.dumps(_jsonable(s.to_record()), sort_keys=True) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample", "n", "P_n", "gamma_n", "certified"])
    for s in result.samples:
        for (n, count, g, certified) in s.rows:
            writer.writerow(
                [s.index, n, "" if count is None else count, _format_float(g), int(certified)]
            )
    with open(os.path.join(out_dir, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())

    ok = [s for s in result.samples if not s.aborted]
    fitted = [c for s in ok for (_, c) in s.fits[:1] if math.isfinite(c)]
    ih_statuses: dict = {}
    for s in ok:
        if s.ih_status is not None:
            ih_statuses[s.ih_status] = ih_statuses.get(s.ih_status, 0) + 1
    summary = {
        "config": _jsonable(result.config.to_dict()),
        "num_samples": len(result.samples),
        "num_ok": len(ok),
        "num_aborted": result.num_aborted,
        "fitted_C": {
            "min": min(fitted) if fitted else None,
            "max": max(fitted) if fitted else None,
            "median": statistics.median(fitted) if fitted else None,
        },
        "ih_statuses": ih_statuses,
        "num_uncertified": sum(
            1 for s in ok if any(not certified for (_, _, _, certified) in s.rows)
        ),
        "num_ih_failing": sum(1 for s in ok if s.ih_status == "fails"),
        "all_certified": all(
            certified for s in ok for (_, _, _, certified) in s.rows
        ),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary
