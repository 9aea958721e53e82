"""Command-line front end.

Subcommands:

* gamma        distance of a matrix spectrum to the unit circle
* census       certified periodic-point census of a 1-D polynomial map
* perturb      orbit surgeries (close a trajectory / strengthen a multiplier)
* sample       draw a random perturbation from a brick
* grid         stage tolerances and pseudo-trajectory enumeration
* experiment   run a full sampling experiment from a JSON config

All map arguments accept either --preset (quadratic, half, identity) or
--coeffs with ascending comma-separated coefficients.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .census import GrowthParams, find_periodic
from .dynamics import PerturbedMap
from .errors import InvalidInputError, OrbitLabError
from .experiment import (
    PRESET_MAPS,
    ExperimentConfig,
    base_map_from_spec,
    emit_reports,
    run_experiment,
)
from .gridlab import enumerate_pseudotrajectories, stage_tolerances
from .hyperbolicity import gamma_linear
from .lagrange import closing_perturbation, hyperbolicity_perturbation
from .perturbation import BrickSpec, sample as sample_perturbation

__all__ = ["main"]


def _numbers(text: str, name: str) -> list:
    """The comma-separated numbers of the argument `name`, or
    InvalidInputError naming it."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidInputError(f"{name} must be comma-separated numbers, not {text!r}") from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_numbers(r, "--matrix") for r in text.split(";") if r.strip()]
    if len({len(row) for row in rows}) > 1:
        raise InvalidInputError(f"--matrix rows must all have the same length, not {text!r}")
    return np.array(rows)


def _map_from_args(args) -> PerturbedMap:
    spec = _numbers(args.coeffs, "--coeffs") if args.coeffs is not None else args.preset
    return PerturbedMap(base_map_from_spec(spec))


def _add_map_arguments(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=sorted(PRESET_MAPS), help="named base map")
    g.add_argument("--coeffs", help="ascending coefficients, e.g. '-1,0,1' for x^2 - 1")


def _trajectory(f: PerturbedMap, x0: float, count: int) -> np.ndarray:
    pts = [float(x0)]
    for _ in range(count - 1):
        pts.append(float(f.evaluate(pts[-1])))
    return np.asarray(pts)


def _cmd_gamma(args) -> int:
    m = _parse_matrix(args.matrix)
    hv = gamma_linear(m)
    print(f"gamma = {hv.gamma:.12g}")
    print(f"argmin phase = {hv.argmin_phase:.12g}")
    print(f"certified tolerance = {hv.certified_tolerance:.3g}")
    return 0


def _cmd_census(args) -> int:
    f = _map_from_args(args)
    result = find_periodic(f, args.period, radius=args.radius, tol=args.tol)
    try:
        _print_census(result, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`orbitlab census ... | head`): drop the
        # rest of the output, including the flush at exit, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if result.certified else 1


def _print_census(result, as_json: bool):
    if as_json:
        payload = {
            "period": result.period,
            "radius": result.radius,
            "count": result.count,
            "gamma_n": result.gamma_n if result.gamma_n != float("inf") else "inf",
            "certified": result.certified,
            "points": [
                {
                    "location": r.location,
                    "halfwidth": r.halfwidth,
                    "multiplier": r.multiplier,
                    "gap": r.gap,
                    "certified": r.certified,
                    "kind": r.kind,
                    "least_period": r.least_period,
                }
                for r in result.records
            ],
            "uncertified_regions": [list(iv) for iv in result.uncertified_regions],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"period {result.period} on [-{result.radius:g}, {result.radius:g}]")
        print(f"count = {result.count} (certified: {result.certified})")
        for r in result.records:
            tag = r.kind + ("" if r.certified else ", uncertified")
            print(
                f"  x = {r.location:+.15g}  (+/- {r.halfwidth:.2g})  "
                f"multiplier = {r.multiplier:+.6g}  gap = {r.gap:.6g}  [{tag}]"
            )
        print(f"gamma_n = {result.gamma_n:.12g}")
        if result.uncertified_regions:
            print(f"unresolved regions: {len(result.uncertified_regions)}")


def _cmd_perturb(args) -> int:
    f = _map_from_args(args)
    if args.mode == "close":
        pts = _trajectory(f, args.x0, args.period + 1)
        u, g = closing_perturbation(f, pts)
        y = args.x0
        for _ in range(args.period):
            y = g.evaluate(y)
        print(f"u = {u:.17g}")
        print(f"closing residual |g^n(x0) - x0| = {abs(y - args.x0):.3g}")
        return 0
    pts = _trajectory(f, args.x0, args.period)
    v, g = hyperbolicity_perturbation(f, pts, args.gamma, margin=args.margin)
    lam = 1.0
    y = args.x0
    for _ in range(args.period):
        lam *= g.derivative(y)
        y = g.evaluate(y)
    print(f"v = {v:.17g}")
    print(f"multiplier after = {lam:.12g}  gap = {abs(abs(lam) - 1.0):.12g}")
    return 0


def _brick_from_args(args) -> BrickSpec:
    if args.family == "factorial":
        return BrickSpec.factorial(args.tau, args.degree)
    if args.family == "geometric":
        return BrickSpec.geometric(args.tau, args.q, args.degree)
    return BrickSpec.custom(_numbers(args.sizes, "--sizes"))


def _cmd_sample(args) -> int:
    brick = _brick_from_args(args)
    eps = sample_perturbation(brick, args.dim, seed=args.seed)
    rec = eps.to_record()
    print(json.dumps(rec, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    if args.mode == "table":
        growth = GrowthParams(C=args.c, delta=args.delta, rho=args.rho)
        print("n  gamma_n  spacing  slack  saturated")
        for n in range(1, args.periods + 1):
            st = stage_tolerances(n, args.dim, args.m_bound, growth)
            print(
                f"{n}  {st.gamma_n:.6g}  {st.grid_spacing:.6g}  "
                f"{st.pseudo_slack:.6g}  {st.saturated}"
            )
        return 0
    f = _map_from_args(args)
    start = _numbers(args.start, "--start")
    census = enumerate_pseudotrajectories(
        f,
        spacing=args.spacing,
        slack=args.slack,
        start=start[0] if len(start) == 1 else start,
        n=args.period,
        budget=args.budget,
        max_samples=args.samples,
    )
    bound = "count >=" if census.partial else "count ="
    print(
        f"tuples of length {census.period} from cell {census.start}: "
        f"{bound} {census.count} (expansions: {census.expansions}, "
        f"partial: {census.partial})"
    )
    for path in census.samples:
        print("  sample:", path)
    return 0 if not census.partial else 1


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_experiment(config)
    summary = emit_reports(result, args.out)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0 if result.num_aborted == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="distance of a matrix spectrum to the unit circle")
    p.add_argument("--matrix", required=True, help="rows separated by ';', entries by ','")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("census", help="certified periodic-point census")
    _add_map_arguments(p)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("perturb", help="orbit surgeries")
    psub = p.add_subparsers(dest="mode", required=True)
    pc = psub.add_parser("close", help="close a trajectory into a periodic orbit")
    _add_map_arguments(pc)
    pc.add_argument("--x0", type=float, required=True)
    pc.add_argument("--period", type=int, required=True)
    pc.set_defaults(func=_cmd_perturb, mode="close")
    ph = psub.add_parser("hyp", help="push a periodic multiplier off the unit circle")
    _add_map_arguments(ph)
    ph.add_argument("--x0", type=float, required=True)
    ph.add_argument("--period", type=int, required=True)
    ph.add_argument("--gamma", type=float, required=True)
    ph.add_argument("--margin", type=float, default=None)
    ph.set_defaults(func=_cmd_perturb, mode="hyp")

    p = sub.add_parser("sample", help="draw a random perturbation from a brick")
    p.add_argument("--family", choices=["factorial", "geometric", "custom"], required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--sizes", default="")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("grid", help="stage tolerances / pseudo-trajectory counts")
    gsub = p.add_subparsers(dest="mode", required=True)
    gt = gsub.add_parser("table", help="stage tolerance table")
    gt.add_argument("--periods", type=int, default=4)
    gt.add_argument("--dim", type=int, default=1)
    gt.add_argument("--m-bound", type=float, default=2.0)
    gt.add_argument("--c", type=float, default=1.0)
    gt.add_argument("--delta", type=float, default=0.1)
    gt.add_argument("--rho", type=float, default=1.0)
    gt.set_defaults(func=_cmd_grid, mode="table")
    ge = gsub.add_parser("enumerate", help="count lattice pseudo-trajectories")
    _add_map_arguments(ge)
    ge.add_argument("--period", type=int, required=True)
    ge.add_argument("--spacing", type=float, required=True)
    ge.add_argument("--slack", type=float, required=True, help="step tolerance (inf allowed)")
    ge.add_argument("--start", required=True, help="starting point, comma-separated coordinates")
    ge.add_argument("--budget", type=int, default=10_000_000)
    ge.add_argument("--samples", type=int, default=4)
    ge.set_defaults(func=_cmd_grid, mode="enumerate")

    p = sub.add_parser("experiment", help="run a sampling experiment")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrbitLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
