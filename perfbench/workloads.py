"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs one *pass* over a fixed
list of operations (a closed loop: each operation starts when the previous
one returns) and checks the outputs of a pass against oracles.  A pass run
with a `Tracer` puts spans around the calls into each orbitlab module and
evaluates the maps through `CountingMap`; its outputs must equal those of an
untraced pass.

Why these three (see BENCHMARK.json for the one-line form):

* mc_a9 is the Monte-Carlo run users make.  Its frontiers are small, so the
  per-call cost of scalar and small-array map evaluation dominates, with
  ih_check second.
* census_ladder pushes find_periodic up two ladders of periods with the
  default budget; frontiers reach millions of cells, so the vectorised
  exclusion rounds and the budget dominate, and the tops of both ladders
  sit above what certifies today.
* surgery_nd covers what has no census: the Lagrange kernel, both orbit
  surgeries, N-D orbits with their hyperbolicity, and pseudo-orbit
  enumeration on a 2-D map.
"""

from __future__ import annotations

import functools
import importlib
import io
import itertools
import json
import math
import os
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from typing import NamedTuple
from unittest import mock

import numpy as np

import orbitlab as ol
from hostref import HostClock
from tracing import CountingMap


class OracleError(Exception):
    """An output of the program disagrees with its oracle."""


class PassResult(NamedTuple):
    times: tuple  # wall time of each operation the benchmark times itself
    scaled: tuple  # the same in reference seconds, or () without a kernel
    speed: float  # host speed against the kernel's nominal, or 0.0
    attempted: int
    failed: int
    outputs: object  # must be identical between passes of one run
    counts: dict  # exact counts of the pass


def _timing(clock: HostClock) -> dict:
    """The PassResult fields a pass's clock gives."""
    if clock.kernel is None:
        return {"times": clock.raw(), "scaled": (), "speed": 0.0}
    return {"times": clock.raw(), "scaled": clock.scaled(), "speed": clock.speed()}


def _expect(ok: bool, message: str):
    if not ok:
        raise OracleError(message)


def _make_map(base, terms, tracer):
    if tracer is None:
        return ol.PerturbedMap(base, terms)
    return CountingMap(base, terms, tracer=tracer)


def _census_hooks(tracer):
    """on_result/on_error hooks that count the evaluations of a census, for
    find_periodic (returns a CensusResult), gamma_n_of_map (returns one in
    `.census`, or raises with it in `.result`)."""

    def on_result(value):
        census = getattr(value, "census", value)
        tracer.add("census.evaluations", census.evaluations)
        tracer.add("census.certified", int(census.certified))
        if not census.certified:
            tracer.add("census.wasted_evaluations", census.evaluations)

    def on_error(exc):
        partial = getattr(exc, "result", None)
        if partial is not None:
            on_result(partial)

    return {"on_result": on_result, "on_error": on_error}


QUADRATIC = [-1.0, 0.0, 1.0]  # x^2 - 1
CHAOTIC = [0.95, 0.0, -1.8]  # 0.95 - 1.8 x^2
A9_BRICK = {"family": "factorial", "tau": 0.01, "truncation_degree": 8}


# -- mc_a9 ---------------------------------------------------------------------------


class MonteCarloA9:
    """`orbitlab experiment` at the acceptance-a9 config, through
    `orbitlab.cli.main` in-process.  One operation is one sample's census at
    one period, or one sample's ih_check."""

    name = "mc_a9"
    KERNEL = "scalar"
    NUM_SAMPLES = 50
    N_MAX = 8
    REPORTS = ("samples.ndjson", "table.csv", "summary.json")

    def __init__(self, seed: int, out_dir: str):
        self.cli = importlib.import_module("orbitlab.cli")
        self.experiment = importlib.import_module("orbitlab.experiment")
        self.dir = os.path.join(out_dir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        config = {
            "map": "quadratic",
            "brick": A9_BRICK,
            "num_samples": self.NUM_SAMPLES,
            "master_seed": seed,
            "n_max": self.N_MAX,
            "deltas": [1.0],
        }
        self.config = self._write_config("config.json", config)
        self.warmup_config = self._write_config(
            "warmup.json", dict(config, num_samples=1, n_max=1)
        )
        self.reports = os.path.join(self.dir, "reports")

    def _write_config(self, name: str, config: dict) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def _main(self, config: str, out: str):
        with redirect_stdout(io.StringIO()) as printed:
            code = self.cli.main(["experiment", "--config", config, "--out", out])
        return code, printed.getvalue()

    def warmup_op(self):
        self._main(self.warmup_config, os.path.join(self.dir, "warmup"))

    @contextmanager
    def _traced(self, tracer):
        """Spans at the public functions that orbitlab.experiment and the
        experiment subcommand call; the real run_experiment still runs."""
        cli, exp = self.cli, self.experiment
        wrap = tracer.wrap
        patches = [
            (cli, "run_experiment", wrap("experiment.run_experiment", cli.run_experiment)),
            (cli, "emit_reports", wrap("experiment.emit_reports", cli.emit_reports)),
            (exp, "PerturbedMap", functools.partial(CountingMap, tracer=tracer)),
            (exp, "sample_perturbation", wrap("perturbation.sample", exp.sample_perturbation)),
            (exp, "certified_range_1d", wrap("dynamics.range", exp.certified_range_1d)),
            (exp, "invariant_radius", wrap("dynamics.range", exp.invariant_radius)),
            # gamma_n_of_map is find_periodic plus a raise when uncertified
            (exp, "gamma_n_of_map",
             wrap("census.find_periodic", exp.gamma_n_of_map, op=True, **_census_hooks(tracer))),
            (exp, "ih_check", wrap("census.ih_check", exp.ih_check, op=True)),
            (exp, "fit_C", wrap("experiment.fit_C", exp.fit_C)),
        ]
        with ExitStack() as stack:
            for module, attr, new in patches:
                stack.enter_context(mock.patch.object(module, attr, new))
            yield

    @contextmanager
    def _sampled(self, clock):
        """Run the reference kernel (if any) before each sample's
        perturbation draw, so that the one long operation is rescaled sample
        by sample."""
        if clock.kernel is None:
            yield
            return
        draw = self.experiment.sample_perturbation

        def sample_perturbation(*args, **kwargs):
            clock.ref()
            return draw(*args, **kwargs)

        with mock.patch.object(self.experiment, "sample_perturbation", sample_perturbation):
            yield

    def run_pass(self, tracer=None, kernel=None) -> PassResult:
        for name in self.REPORTS:
            path = os.path.join(self.reports, name)
            if os.path.exists(path):
                os.remove(path)
        traced = tracer is not None
        clock = HostClock(kernel)
        clock.ref()
        with self._traced(tracer) if traced else self._sampled(clock):
            with clock.op(), tracer.span("cli.main") if traced else nullcontext():
                code, printed = self._main(self.config, self.reports)
        clock.ref()

        files = {}
        for name in self.REPORTS:
            with open(os.path.join(self.reports, name), "rb") as fh:
                files[name] = fh.read()
        samples = [json.loads(line) for line in files["samples.ndjson"].splitlines()]
        per_sample = self.N_MAX + 1
        failed = per_sample * (self.NUM_SAMPLES - len(samples))
        for s in samples:
            if s["status"] != "ok":
                failed += per_sample
                continue
            failed += sum(1 for row in s["rows"] if not row["certified"])
            failed += s["ih"]["status"] != "holds"
        # the operations run inside orbitlab, so the whole call is timed
        return PassResult(
            **_timing(clock),
            attempted=per_sample * self.NUM_SAMPLES,
            failed=failed,
            outputs=(code, printed, files),
            counts={"experiment.report_bytes": sum(len(b) for b in files.values())},
        )

    def check(self, result: PassResult):
        """x^2 - 1 has zero entropy and tau 0.01 keeps its fixed point and
        2-cycle hyperbolic, so every sample has P_n = 1 at odd n and 3 at
        even n, certified, with ih_check holding, for any seed."""
        code, printed, files = result.outputs
        _expect(code == 0, f"orbitlab experiment exited with {code}")
        _expect(
            json.loads(printed) == json.loads(files["summary.json"]),
            "printed summary differs from summary.json",
        )
        samples = [json.loads(line) for line in files["samples.ndjson"].splitlines()]
        _expect(len(samples) == self.NUM_SAMPLES, f"{len(samples)} samples reported")
        for s in samples:
            i = s["index"]
            _expect(s["status"] == "ok", f"sample {i}: {s['status']}")
            got = [(row["n"], row["count"], row["certified"]) for row in s["rows"]]
            want = [(n, 1 if n % 2 else 3, True) for n in range(1, self.N_MAX + 1)]
            _expect(got == want, f"sample {i}: rows {got}, expected {want}")
            _expect(
                s["ih"]["status"] == "holds" and s["ih"]["pass"] == self.N_MAX,
                f"sample {i}: ih_check {s['ih']}",
            )
            c = s["fits"][0]["C"]
            _expect(isinstance(c, float) and math.isfinite(c), f"sample {i}: fitted C {c!r}")


# -- census_ladder -------------------------------------------------------------------


def sturm_count(coeffs, n: int, radius: float) -> int:
    """Exact number of real roots of f^n(x) - x in [-radius, radius] for a
    map with rational coefficients (Sturm sequences, via sympy)."""
    import sympy

    x = sympy.Symbol("x")
    f = sum(sympy.Rational(str(c)) * x**k for k, c in enumerate(coeffs))
    g = x
    for _ in range(n):
        g = sympy.expand(f.subs(x, g))
    r = sympy.Rational(str(radius))
    return int(sympy.Poly(g - x, x).count_roots(-r, r))


def mirrored(eps) -> ol.PerturbationVector:
    """-eps: as likely a draw from a (symmetric) brick as eps itself."""
    comps = tuple(ol.HomogeneousComponent(c.degree, c.dim, -c.coeffs) for c in eps.components)
    return ol.PerturbationVector(eps.dim, comps, eps.brick, eps.seed)


class CensusLadder:
    """find_periodic with the default budget at rising periods on the seeded
    quadratic, on its mirror image and on the chaotic map.  One operation is
    one rung.

    The census of x^2 - 1 + eps does about twice the work when eps's constant
    term is negative (f(0) < -1) as when it is positive, at every period.
    Each seed draws one eps and runs the ladder on eps and on -eps, so every
    pass has one ladder of each kind and its work hardly depends on the seed
    (antithetic sampling)."""

    name = "census_ladder"
    KERNEL = "array"
    QUADRATIC_RUNGS = (8, 10, 12, 14, 16)
    RUNGS = {"quadratic": QUADRATIC_RUNGS, "quadratic_mirror": QUADRATIC_RUNGS,
             "chaotic": (6, 7, 8, 9, 10)}
    RADIUS = {"quadratic": None, "quadratic_mirror": None, "chaotic": 1.0}
    # Chaotic counts: n = 6 is checked against a Sturm count; 7 and 8 are
    # the counts the census certified when this benchmark was written.
    CHAOTIC_COUNTS = {7: 29, 8: 31}
    STURM_PERIOD = 6

    def __init__(self, seed: int, out_dir: str):
        eps = ol.sample(ol.BrickSpec.factorial(0.01, 8), 1, seed=(seed, 0))
        quad = ol.PolynomialMap.univariate(QUADRATIC)
        self.parts = {
            "quadratic": (quad, (eps,)),
            "quadratic_mirror": (quad, (mirrored(eps),)),
            "chaotic": (ol.PolynomialMap.univariate(CHAOTIC), ()),
        }
        self.plain = {k: _make_map(base, terms, None) for k, (base, terms) in self.parts.items()}
        self.rungs = [(family, n) for family, ns in self.RUNGS.items() for n in ns]

    def warmup_op(self):
        family, n = self.rungs[0]
        ol.find_periodic(self.plain[family], n, radius=self.RADIUS[family])

    def run_pass(self, tracer=None, kernel=None) -> PassResult:
        if tracer is None:
            maps, find = self.plain, ol.find_periodic
        else:
            maps = {k: _make_map(base, terms, tracer) for k, (base, terms) in self.parts.items()}
            find = tracer.wrap("census.find_periodic", ol.find_periodic, op=True,
                               **_census_hooks(tracer))
        rows = []
        clock = HostClock(kernel)
        for family, n in self.rungs:
            clock.ref()
            try:
                with clock.op():
                    r = find(maps[family], n, radius=self.RADIUS[family])
            except ol.OrbitLabError as err:
                rows.append((family, n, False, None, 0, repr(err)))
                continue
            locations = tuple(rec.location for rec in r.records if rec.certified)
            rows.append((family, n, r.certified, r.count, r.evaluations, locations))

        counts = {"census.evaluations": sum(row[4] for row in rows)}
        for family, n, _, _, evaluations, _ in rows:
            counts[f"census.evaluations.{family}.{n}"] = evaluations
        top = {}
        for family in self.RUNGS:
            top[family] = 0
            for fam, n, certified, *_ in rows:
                if fam == family:
                    if not certified:
                        break
                    top[family] = n
        # every rung up to it certified on both quadratic ladders
        counts["census.max_certified_period.quadratic"] = min(top["quadratic"], top["quadratic_mirror"])
        counts["census.max_certified_period.chaotic"] = top["chaotic"]
        clock.ref()
        failed = sum(1 for row in rows if not row[2])
        return PassResult(**_timing(clock), attempted=len(rows), failed=failed,
                          outputs=tuple(rows), counts=counts)

    def check(self, result: PassResult):
        certified = {}
        for family, n, ok, count, _, locations in result.outputs:
            if not ok:
                continue
            _expect(len(locations) == count, f"{family} n={n}: {count} != {len(locations)} records")
            certified[family, n] = count
            if family.startswith("quadratic"):
                _expect(count == 3, f"quadratic n={n}: count {count}, expected 3")
            elif n in self.CHAOTIC_COUNTS:
                want = self.CHAOTIC_COUNTS[n]
                _expect(count == want, f"chaotic n={n}: count {count}, expected {want}")
            elif n == self.STURM_PERIOD:
                want = sturm_count(CHAOTIC, n, self.RADIUS["chaotic"])
                _expect(count == want, f"chaotic n={n}: count {count}, Sturm count {want}")
            if family == "chaotic":
                _expect(count <= 2**n, f"chaotic n={n}: count {count} above degree 2^n")
        # a point of period d is a point of period n for every multiple n of d
        for (family, n), count in certified.items():
            for (fam, d), sub in certified.items():
                if fam == family and d < n and n % d == 0:
                    _expect(sub <= count, f"{family}: count {sub} at n={d} above {count} at n={n}")


# -- surgery_nd ----------------------------------------------------------------------


def _spaced(rng, n: int, lo: float = -0.95, hi: float = 0.95) -> np.ndarray:
    """n anchor points, a jittered grid (gaps at least 0.4 of a grid step),
    in random order."""
    step = (hi - lo) / (n - 1)
    pts = np.linspace(lo, hi, n) + rng.uniform(-0.3 * step, 0.3 * step, n)
    return rng.permutation(np.clip(pts, lo, hi))


def _contraction(rng) -> ol.PolynomialMap:
    """Cubic with sum |c_k| = 0.9: maps [-1, 1] strictly into itself."""
    c = rng.uniform(-1.0, 1.0, 4)
    return ol.PolynomialMap.univariate(c * 0.9 / np.sum(np.abs(c)))


def _nd_contraction(rng, dim: int) -> ol.PolynomialMap:
    """Linear part of spectral norm 0.8 plus small quadratic terms."""
    A = rng.standard_normal((dim, dim))
    A *= 0.8 / np.linalg.norm(A, 2)
    terms = {}
    for j in range(dim):
        alpha = [0] * dim
        alpha[j] = 1
        terms[tuple(alpha)] = A[:, j]
    for i in range(dim):
        for j in range(i, dim):
            alpha = [0] * dim
            alpha[i] += 1
            alpha[j] += 1
            terms[tuple(alpha)] = rng.uniform(-0.05, 0.05, dim)
    return ol.PolynomialMap.from_terms(dim, terms)


HENON = {(0, 0): [1.0, 0.0], (2, 0): [-1.4, 0.0], (0, 1): [1.0, 0.0], (1, 0): [0.0, 0.3]}


class SurgeryND:
    """Lagrange kernel round trips, both orbit surgeries, N-D orbits with
    their hyperbolicity, and pseudo-orbit enumeration.  One operation is one
    item."""

    name = "surgery_nd"
    KERNEL = "scalar"
    REFERENCE_EVERY = 16  # items between reference-kernel runs
    KERNEL_SIZES = (4, 6, 8, 10, 12, 14, 16)
    KERNEL_REPEATS = 3
    SURGERIES = 40  # of each kind
    ND_ORBITS = 20  # per dimension
    # spacing, slack, period, and where to start: that many steps along the
    # unperturbed Henon orbit of 0.  Starts drawn from the seed made the
    # expansions of an enumeration vary 3x between seeds; from fixed starts
    # only the seeded perturbation varies, and the expansions by about 2%.
    ENUMERATIONS = ((0.01, 0.02, 8, 103), (0.01, 0.015, 10, 102))
    # Pseudo-orbit (count, expansions) at the default seed, as first recorded.
    RECORDED_ENUMERATIONS = {42: [(268435456, 1767), (387420489, 2274)]}
    KERNEL_TOL = 1e-10
    CLOSING_TOL = 1e-10  # acceptance a3
    ORBIT_TOL = 1e-12  # acceptance a4

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        stream = itertools.count(1000)
        quad = ol.PolynomialMap.univariate(QUADRATIC)
        brick8 = ol.BrickSpec.factorial(0.01, 8)
        brick4 = ol.BrickSpec.factorial(0.01, 4)
        self.items = []
        for n in self.KERNEL_SIZES:
            for _ in range(self.KERNEL_REPEATS):
                eps = ol.sample(brick8, 1, seed=(seed, next(stream)))
                anchor = ol.PointTuple(_spaced(rng, n))
                coeffs = ol.EpsPolynomial(rng.uniform(-1.0, 1.0, 2 * n))
                self.items.append(("kernel", quad, (eps,), (anchor, coeffs)))
        for kind in ("closing", "hyperbolicity"):
            accepted = 0
            while accepted < self.SURGERIES:
                base = _contraction(rng)
                terms = (ol.sample(brick4, 1, seed=(seed, next(stream))),)
                n = int(rng.integers(1, 11))
                x0 = float(rng.uniform(-0.5, 0.5))
                if kind == "closing":
                    args = (x0, n)
                    pts = ol.orbit(ol.PerturbedMap(base, terms), x0, n + 1).points1d
                    if ol.product_of_distances(pts).value < 1e-6:
                        continue  # the a3 contract needs a non-degenerate trajectory
                else:
                    args = (x0, n, float(rng.uniform(0.05, 0.8)))
                    try:
                        self._hyperbolicity(ol.PerturbedMap(base, terms), args, self._layers(None))
                    except ol.CannotPerturbError:
                        continue
                self.items.append((kind, base, terms, args))
                accepted += 1
        for dim in (2, 3):
            for _ in range(self.ND_ORBITS):
                base = _nd_contraction(rng, dim)
                terms = (ol.sample(brick4, dim, seed=(seed, next(stream))),)
                x0 = rng.uniform(-0.5, 0.5, dim) / math.sqrt(dim)
                n = int(rng.integers(4, 17))
                self.items.append(("orbit", base, terms, (x0, n)))
        henon = ol.PolynomialMap.from_terms(2, HENON, domain_radius=1.5)
        brick_h = ol.BrickSpec.factorial(0.001, 3)
        for spacing, slack, n, steps in self.ENUMERATIONS:
            start = np.zeros(2)
            for _ in range(steps):
                start = henon.evaluate(start)
            terms = (ol.sample(brick_h, 2, seed=(seed, next(stream))),)
            cell = np.rint(start / spacing).astype(np.int64)
            self.items.append(("enumerate", henon, terms, (spacing, slack, cell, n)))

    def warmup_op(self):
        self._run_item(self.items[0], None, self._layers(None))

    # The public orbitlab functions this workload calls, by layer.
    LAYER_OF = {
        "jet_solve": "lagrange.kernel",
        "jet_eval": "lagrange.kernel",
        "lagrange_map": "lagrange.kernel",
        "lagrange_map_inverse": "lagrange.kernel",
        "closing_perturbation": "lagrange.surgery",
        "hyperbolicity_perturbation": "lagrange.surgery",
        "orbit_hyperbolicity": "hyperbolicity.gamma_linear",
        "enumerate_pseudotrajectories": "gridlab.enumerate",
    }

    def _layers(self, tracer):
        """The LAYER_OF functions, in spans named after their layer when traced."""
        if tracer is None:
            return {name: getattr(ol, name) for name in self.LAYER_OF}
        hooks = {"enumerate_pseudotrajectories": {
            "on_result": lambda c: tracer.add("gridlab.expansions", c.expansions)}}
        return {name: tracer.wrap(layer, getattr(ol, name), **hooks.get(name, {}))
                for name, layer in self.LAYER_OF.items()}

    @staticmethod
    def _hyperbolicity(f, args, L):
        x0, n, gamma = args
        seg = ol.orbit(f, x0, n)
        v, g = L["hyperbolicity_perturbation"](f, seg, gamma)
        multiplier, moved = 1.0, 0.0
        for p, q in zip(seg.points1d, seg.images1d):
            moved = max(moved, abs(g.evaluate(float(p)) - float(q)))
            multiplier *= g.derivative(float(p))
        return (v, abs(abs(multiplier) - 1.0), moved, gamma)

    def _run_item(self, item, tracer, L):
        kind, base, terms, args = item
        f = _make_map(base, terms, tracer)
        if kind == "kernel":
            anchor, coeffs = args
            jet = ol.multijet(f, anchor)
            back = L["jet_eval"](L["jet_solve"](anchor, jet))
            jet_err = max(np.max(np.abs(back.values - jet.values)),
                          np.max(np.abs(back.derivs - jet.derivs)))
            eps = L["lagrange_map_inverse"](L["lagrange_map"](coeffs, anchor))
            return (float(jet_err), float(np.max(np.abs(eps.eps - coeffs.eps))))
        if kind == "closing":
            x0, n = args
            u, g = L["closing_perturbation"](f, ol.orbit(f, x0, n + 1))
            y = x0
            for _ in range(n):
                y = g.evaluate(y)
            return (u, abs(y - x0))
        if kind == "hyperbolicity":
            return self._hyperbolicity(f, args, L)
        if kind == "orbit":
            x0, n = args
            seg = ol.orbit(f, x0, n)
            hv = L["orbit_hyperbolicity"](f, seg)
            lam = np.linalg.eigvals(ol.cocycle(seg))
            return (hv.gamma, hv.certified_tolerance, float(np.min(np.abs(np.abs(lam) - 1.0))))
        spacing, slack, cell, n = args
        c = L["enumerate_pseudotrajectories"](f, spacing, slack, cell, n)
        return (c.count, c.expansions, c.partial)

    def run_pass(self, tracer=None, kernel=None) -> PassResult:
        L = self._layers(tracer)
        outputs = []
        failed = 0
        clock = HostClock(kernel)
        for i, item in enumerate(self.items):
            if i % self.REFERENCE_EVERY == 0:
                clock.ref()
            with clock.op():
                with nullcontext() if tracer is None else tracer.span(f"surgery_nd.{item[0]}", op=True):
                    try:
                        outputs.append(self._run_item(item, tracer, L))
                    except ol.OrbitLabError as err:
                        outputs.append(repr(err))
                        failed += 1
        clock.ref()
        enumerations = [out for item, out in zip(self.items, outputs) if item[0] == "enumerate"]
        counts = {"gridlab.expansions": sum(e[1] for e in enumerations if isinstance(e, tuple))}
        return PassResult(**_timing(clock), attempted=len(self.items), failed=failed,
                          outputs=tuple(outputs), counts=counts)

    def check(self, result: PassResult):
        recorded = self.RECORDED_ENUMERATIONS.get(self.seed)
        enumerations = []
        for item, out in zip(self.items, result.outputs):
            kind, base, terms, args = item
            if isinstance(out, str):
                continue  # a failed operation, counted in `failed`
            if kind == "kernel":
                _expect(max(out) <= self.KERNEL_TOL, f"kernel n={args[0].n}: round-trip error {out}")
            elif kind == "closing":
                _expect(out[1] < self.CLOSING_TOL, f"closing n={args[1]}: residual {out[1]}")
            elif kind == "hyperbolicity":
                v, gap, moved, gamma = out
                _expect(moved <= self.ORBIT_TOL, f"hyperbolicity: orbit moved by {moved}")
                _expect(gap > gamma, f"hyperbolicity: gap {gap} not above {gamma}")
            elif kind == "orbit":
                gamma, tol, eig_gap = out
                # the computed gamma overestimates the true one by at most
                # tol, and the true one is at most min ||lambda| - 1|
                _expect(gamma <= eig_gap + tol + 1e-9, f"orbit: gamma {gamma} above {eig_gap} + {tol}")
            else:
                spacing, slack, cell, n = args
                f = ol.PerturbedMap(base, terms)
                want = _count_pseudo_orbits(f, spacing, slack, tuple(int(c) for c in cell), n)
                _expect(not out[2] and out[0] == want, f"enumeration: {out}, expected count {want}")
                enumerations.append(out[:2])
        if recorded is not None:
            _expect(enumerations == recorded, f"enumerations {enumerations}, recorded {recorded}")


def _count_pseudo_orbits(f, spacing: float, slack: float, start: tuple, n: int) -> int:
    """Number of length-n lattice pseudo-orbits from `start`, counted layer
    by layer without the cache or budget of enumerate_pseudotrajectories."""
    max_cell = int(math.floor(f.domain_radius / spacing + 0.5))
    layer = {start: 1}
    for _ in range(n - 1):
        nxt: dict = {}
        for cell, paths in layer.items():
            y = np.atleast_1d(f.evaluate(np.asarray(cell, dtype=float) * spacing))
            axes = [
                range(max(math.ceil((v - slack) / spacing - 1e-12), -max_cell),
                      min(math.floor((v + slack) / spacing + 1e-12), max_cell) + 1)
                for v in y
            ]
            for succ in itertools.product(*axes):
                nxt[succ] = nxt.get(succ, 0) + paths
        layer = nxt
    return sum(layer.values())


WORKLOADS = {w.name: w for w in (MonteCarloA9, CensusLadder, SurgeryND)}
