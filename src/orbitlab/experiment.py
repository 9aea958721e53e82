"""Randomized census experiment: sample perturbations, count periodic points,
fit the growth profile, and re-check it.

One experiment draws `num_samples` perturbations of a base polynomial map
from a brick (independent substreams of a single master seed, so any sample
can be reproduced in isolation), runs the certified periodic-point census for
every period up to `n_max`, fits the smallest stretched-exponential constant
C consistent with the observed hyperbolicity margins, and then certifies the
fitted profile (inflated by a safety factor) with the box checker.

The samples run in stacks of _STACK consecutive indices: a stack's samples
are drawn and their radii found, then census._census_stack runs one
census per period on the whole stack (one array pass per round for all
its maps), C is fitted per sample, and one ih_check stage per period runs
on the stack, each sample with its own threshold.  Each sample's report is
the one find_periodic (gamma_n_of_map) and ih_check give it alone, bit
for bit, and only one stack's maps and their memos are alive at a time.

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
import statistics
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

# gamma_n_of_map and ih_check are the per-map forms of the stacked call
# below, and stay importable from here for tools that trace an experiment
from .census import GrowthParams, _census_stack, gamma_n_of_map, ih_check  # noqa: F401
from .dynamics import PerturbedMap, PolynomialMap, certified_range_1d, invariant_radius
from .errors import ConfigurationError, InvalidInputError, UncertifiedCensusError, _array, _period, _real
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
        _period(n, 1, "periods")
        if g is None or math.isinf(g):
            continue  # no periodic points at this n: no constraint
        if math.isnan(g):
            raise InvalidInputError(f"gamma_{n} is NaN")
        best = math.inf if g <= 0.0 else max(best, -math.log(g) / float(n) ** (1.0 + delta))
    return best


# Consecutive samples whose censuses and ih_check stages run as one stack
# (census._census_stack): each round is one array pass for the whole
# stack, so its per-call cost is paid once per stack, while only one
# stack's maps and their memos are alive at a time.  Each map's memo holds
# its grid's tube at every period (256 KB at n_max 8), so memory grows
# with the stack.  The a9 run (50 samples, n_max 8; 0.188 reference s and
# a peak of 43.8 MB without stacks) takes 0.212, 0.143, 0.137, 0.135,
# 0.128, 0.118 and 0.107 s at stacks of 1, 4, 5, 6, 8, 16 and 50, with a
# peak of 45.1, 45.2, 45.5, 45.8, 46.5, 49.6 and 61.6 MB: 5 is the largest
# stack within 5% (46 MB) of the peak without stacks, with a margin.
_STACK = 5


def _radius(f: PerturbedMap, config: ExperimentConfig, report: SampleReport):
    """The sample's strict invariance, and the radius its censuses run on
    (None, with the report aborted, when there is none)."""
    r0 = f.domain_radius
    lo, hi = certified_range_1d(f, r0)
    report.strict_invariance = bool(lo >= -r0 and hi <= r0)
    if config.radius is not None:
        R = config.radius
    else:
        R = invariant_radius(f)  # its first rung, r0, finds the range above in the memo
    if R is None:
        report.status = "aborted:no-invariant-radius"
        return None
    report.radius = float(R)
    return R


def _measure_stack(config: ExperimentConfig, base: PolynomialMap, brick, indices: range) -> list:
    """The reports of the samples `indices`: all are drawn, then each one's
    radius is found, in order; then census._census_stack measures all that
    have one, C is fitted per sample between its censuses and its ih_check
    stages, and each report is filled in from its sample's results."""
    seeds = [(config.master_seed, i) for i in indices]
    if config.force_zero_eps:
        drawn = [PerturbedMap(base) for _ in seeds]
    else:
        drawn = [PerturbedMap(base, sample_perturbation(brick, 1, seed=seed)) for seed in seeds]
    reports = [SampleReport(index=i, seed=seed) for i, seed in zip(indices, seeds)]
    radii = [_radius(f, config, report) for f, report in zip(drawn, reports)]
    measured = [j for j, R in enumerate(radii) if R is not None]

    def fit(k: int, censuses: list):
        """Sample k's rows and fits, and the GrowthParams its ih_check takes
        (None when the fit is not finite)."""
        report, gammas = reports[measured[k]], {}
        for c in censuses:
            report.rows.append((c.period, c.count, c.gamma_n if c.certified else None, c.certified))
            if c.certified:
                gammas[c.period] = c.gamma_n
        report.fits = [(d, fit_C(gammas, d)) for d in config.deltas]
        delta0, c0 = report.fits[0]
        c_ih = config.ih_c_factor * c0
        if not math.isfinite(c_ih):
            report.ih_status = "skipped:no-finite-fit"
            return None
        report.ih_c, report.ih_delta = c_ih, delta0
        return GrowthParams(C=c_ih, delta=delta0)

    results = _census_stack([drawn[j] for j in measured], [radii[j] for j in measured], config.n_max,
                            config.tol, fit)
    for j, result in zip(measured, results):
        report = reports[j]
        if isinstance(result, UncertifiedCensusError):
            reports[j] = SampleReport(index=report.index, seed=report.seed, status=f"aborted:{result}")
            continue
        ih = result[1]
        if ih is not None:
            report.ih_status, report.ih_pass = ih.status, 0
            for row in ih.rows:
                if row.status != "holds":
                    break
                report.ih_pass = row.period
    return reports


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sampling experiment described by `config`: the samples
    in stacks of _STACK consecutive indices (_measure_stack), each sample's
    report equal to the one it gets alone."""
    base = base_map_from_spec(config.map)
    brick = config.brick_spec()
    if brick is None and not config.force_zero_eps:
        # nothing to sample: one deterministic unperturbed sample
        config = replace(config, force_zero_eps=True)

    samples = []
    for first in range(0, config.num_samples, _STACK):
        samples += _measure_stack(config, base, brick, range(first, min(first + _STACK, config.num_samples)))
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
