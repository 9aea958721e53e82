"""Tests for the certified periodic-point census and the checks built on it."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    BrickSpec,
    CensusResult,
    GrowthParams,
    HomogeneousComponent,
    InvalidInputError,
    MultijetPoint,
    PerturbationVector,
    PerturbedMap,
    PointTuple,
    PolynomialMap,
    RootProductPerturbation,
    UncertifiedCensusError,
    find_almost_periodic,
    find_periodic,
    gamma_n_of_map,
    ih_check,
    jet_solve,
    prop11_check,
    sample,
)
from orbitlab import census, dynamics
from orbitlab.census import _cells, _domain, _resolve_radius, _tube_many

from conftest import random_contraction

GOLDEN = (1.0 - math.sqrt(5.0)) / 2.0  # the in-domain fixed point of x^2 - 1


def quad():
    return PolynomialMap.univariate([-1.0, 0.0, 1.0], domain_radius=1.0625)


def half():
    return PolynomialMap.univariate([0.0, 0.5], domain_radius=1.0)


def holds(record, x: float) -> bool:
    """Whether the record's enclosure holds x."""
    return record.location - record.halfwidth <= x <= record.location + record.halfwidth


def _divisors_first(f, n: int, **kwargs):
    """Run the censuses at the proper divisors of n on f, which a census at
    n reads, so that what is counted after it is the census at n alone."""
    for d in census._proper_divisors(n):
        find_periodic(f, d, **kwargs)


def parabolic():
    """x - x^3 assembled through the jet solver over the anchor (0, 0.75)."""
    base = half()
    anchor = PointTuple([0.0, 0.75])
    target = MultijetPoint(
        anchor,
        values=[0.0, 0.75 / 2.0 - 0.75**3],
        derivs=[0.5, 0.5 - 3.0 * 0.75**2],
    )
    solved = jet_solve(anchor, target)
    g = base
    nodes = anchor.cyclic_nodes()
    for k, u_k in enumerate(solved.u):
        if u_k != 0.0:
            g = g.with_term(RootProductPerturbation(float(u_k), tuple(nodes[:k])))
    return g


# -- counts and locations -------------------------------------------------------


def test_quad_fixed_points():
    res = find_periodic(quad(), 1)
    assert res.certified
    assert res.count == 1
    assert res.records[0].location == pytest.approx(GOLDEN, abs=1e-9)
    assert res.records[0].residual < 1e-9
    assert res.records[0].least_period == 1


def test_quad_period_two():
    res = find_periodic(quad(), 2)
    assert res.certified
    assert res.count == 3
    locs = sorted(r.location for r in res.records)
    assert locs[0] == pytest.approx(-1.0, abs=1e-9)
    assert locs[1] == pytest.approx(GOLDEN, abs=1e-9)
    assert locs[2] == pytest.approx(0.0, abs=1e-9)
    by_loc = {round(r.location, 3): r for r in res.records}
    assert by_loc[-1.0].least_period == 2 and by_loc[-1.0].is_least_period
    assert by_loc[0.0].least_period == 2
    assert by_loc[round(GOLDEN, 3)].least_period == 1
    assert not by_loc[round(GOLDEN, 3)].is_least_period


def test_quad_period_three():
    res = find_periodic(quad(), 3)
    assert res.certified
    assert res.count == 1
    assert res.records[0].location == pytest.approx(GOLDEN, abs=1e-9)


def test_half_map_census():
    for n in (1, 2, 5, 10):
        res = find_periodic(half(), n)
        assert res.certified
        assert res.count == 1
        assert res.records[0].location == pytest.approx(0.0, abs=1e-10)
        assert res.records[0].gap == pytest.approx(1.0 - 2.0**-n, abs=1e-12)


def test_random_contractions_match_root_oracle(rng):
    for _ in range(15):
        f = random_contraction(rng)
        p = np.polynomial.Polynomial(f._uni)
        for n in (1, 2, 3):
            comp = p
            for _ in range(n - 1):
                comp = p(comp)
            g = comp - np.polynomial.Polynomial([0.0, 1.0])
            roots = g.roots()
            real = sorted(
                float(r.real)
                for r in roots
                if abs(r.imag) < 1e-9 and abs(r.real) <= 1.0
            )
            # collapse numerically coincident roots
            dedup = []
            for r in real:
                if not dedup or r - dedup[-1] > 1e-7:
                    dedup.append(r)
            res = find_periodic(f, n, radius=1.0)
            if not res.certified:
                continue  # tangential case; the census says so rather than guess
            assert res.count == len(dedup)
            for rec, want in zip(res.records, dedup):
                assert rec.location == pytest.approx(want, abs=1e-8)


def test_gamma_n_values():
    v1, c1 = gamma_n_of_map(quad(), 1)
    assert v1 == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-9)
    v2, c2 = gamma_n_of_map(quad(), 2)
    # fixed point multiplier squared: (1 - sqrt(5))^2 = 6 - 2 sqrt(5)
    assert v2 == pytest.approx(5.0 - 2.0 * math.sqrt(5.0), abs=1e-9)
    assert v2 == min(r.gap for r in c2.records)


def test_gamma_n_of_empty_census_is_infinite():
    res = CensusResult(
        period=1,
        radius=1.0,
        records=[],
        uncertified_regions=[],
        certified=True,
        evaluations=0,
    )
    assert res.count == 0
    assert res.gamma_n == math.inf


def test_census_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        find_periodic(half(), 0)
    with pytest.raises(InvalidInputError):
        find_periodic(half(), 2, tol=0.0)
    shift = PolynomialMap.univariate([0.1, 1.0], domain_radius=1.0)
    with pytest.raises(UncertifiedCensusError):
        find_periodic(shift, 1, radius=1.0)  # not forward invariant
    # a budget that is not an integer >= 0 is named, not a bare TypeError
    for bad in (3e6, math.nan, -1, "100"):
        for call, name in ((lambda b: find_periodic(half(), 2, max_evaluations=b), "max_evaluations"),
                           (lambda b: find_almost_periodic(half(), 2, 0.1, max_evaluations=b), "max_evaluations"),
                           (lambda b: ih_check(half(), GrowthParams(C=1.0, delta=1.0), 2,
                                               max_evaluations_per_period=b), "max_evaluations_per_period")):
            with pytest.raises(InvalidInputError, match=name):
                call(bad)
    assert find_periodic(half(), 2, max_evaluations=np.int64(0)).evaluations == 0


def test_periods_must_be_positive_integers():
    params = GrowthParams(C=1.0, delta=1.0)
    for n in (0, -1):
        with pytest.raises(InvalidInputError):
            find_almost_periodic(half(), n, 1e-3)
    with pytest.raises(InvalidInputError):
        find_almost_periodic(half(), 1.5, 1e-3)
    with pytest.raises(InvalidInputError):
        find_periodic(half(), 2.5)
    with pytest.raises(InvalidInputError):
        ih_check(half(), params, 2.5)
    with pytest.raises(InvalidInputError):
        prop11_check(half(), 2.5)
    # integer types other than int are periods too
    assert find_periodic(half(), np.int64(2)).period == 2


def test_deep_census_overflow_degrades_to_uncertified():
    """At n = 700 and 800 the multiplier bound of the tubes near the
    repelling fixed point -(sqrt 5 - 1)/2 of x^2 - 1 overflows to inf.  That
    only leaves cells undecided: with every warning an error, each census
    certifies the 2-cycle {-1, 0} and reports two uncertified windows, around
    the fixed point and its preimage."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (700, 800):
            res = find_periodic(quad(), n)
            assert not res.certified and res.count == 2
            low, high = (r for r in res.records if r.certified)
            assert holds(low, -1.0) and holds(high, 0.0)
            (a, b), (c, d) = res.uncertified_regions
            assert a < GOLDEN < b and c < -GOLDEN < d and b - a < 1e-10 and d - c < 1e-10


def test_a_candidate_whose_orbit_bounds_nothing_gives_no_record():
    """At n = 800 of x^2 - 1 the orbit of each cluster's midpoint falls onto
    the 2-cycle {-1, 0}: its error bound is the cap 2R plus the pad and its
    multiplier bound is inf, so it bounds nothing and gives no record, and
    the clusters stay uncertified regions.  The candidate at the tangency 0
    of x - x^3 reads its orbit within 1.6e-14, and is kept: multiplier 1,
    gap 0."""
    f = quad()
    res = find_periodic(f, 800)
    low, high = res.records
    assert low.kind == high.kind == "simple" and holds(low, -1.0) and holds(high, 0.0)
    dom = _domain(f, res.radius)
    xs = [0.5 * (lo + hi) for lo, hi in res.uncertified_regions]
    assert len(xs) == 2
    for g, bound, lam, dev in _tubes_at(f, dom, xs, None, 800):
        assert bound == dom.cap + dom.pad and dev == math.inf
    f = PolynomialMap.univariate([0.0, 1.0, 0.0, -1.0])
    res = find_periodic(f, 1, radius=0.5, tol=1e-4)
    (candidate,) = res.records
    assert res.uncertified_regions == [(-0.0078125, 0.0078125)] and not res.certified
    assert (candidate.kind, candidate.location) == ("tangential-candidate", 0.0)
    assert (candidate.multiplier, candidate.gap) == (1.0, 0.0)
    ((_, bound, _, dev),) = _tubes_at(f, _domain(f, 0.5), [0.0], None, 1)
    assert bound < 1.6e-14 and dev < 1.7e-14


def test_two_dimensional_census_is_rejected():
    f = PolynomialMap.linear(np.diag([0.5, 0.25]), domain_radius=1.0)
    with pytest.raises(InvalidInputError):
        find_periodic(f, 1)


def _sturm_count(sympy, coeffs, n: int, radius: float) -> int:
    """Exact number of real roots of f^n(x) - x in [-radius, radius] for the
    map with ascending float coefficients `coeffs`, taken as exact binary
    rationals (Sturm sequences)."""
    x = sympy.Symbol("x")
    f = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x)
    g = sympy.Poly(x, x)
    for _ in range(n):
        g = f.compose(g)
    r = sympy.Rational(radius)
    return (g - sympy.Poly(x, x)).count_roots(-r, r)


def _dyadic(eps, bits: int = 16) -> PerturbationVector:
    """eps with every coefficient rounded to a multiple of 2^-bits."""
    comps = tuple(
        HomogeneousComponent(c.degree, c.dim, np.round(c.coeffs * 2.0**bits) / 2.0**bits)
        for c in eps.components
    )
    return PerturbationVector(eps.dim, comps, eps.brick, eps.seed)


def test_census_matches_exact_sturm_count():
    """certified => count equals the exact number of real periodic points.
    Dyadic coefficients make the float map the rational map itself."""
    sympy = pytest.importorskip("sympy")
    chaotic = [15 / 16, 0.0, -29 / 16]
    eps = _dyadic(sample(BrickSpec.factorial(0.01, 8), 1, (42, 0)))
    perturbed = [-1.0, 0.0, 1.0] + [0.0] * 6
    for c in eps.components:
        perturbed[c.degree] += float(c.coeffs[0, 0])
    cases = [
        (PolynomialMap.univariate(chaotic), chaotic, 1.0, {1: 1, 2: 3, 3: 1, 4: 7, 5: 11}),
        (PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps), perturbed, None, {1: 1, 2: 3}),
    ]
    for f, coeffs, radius, counts in cases:
        for n, want in counts.items():
            res = find_periodic(f, n, radius=radius)
            assert res.certified
            assert res.count == _sturm_count(sympy, coeffs, n, res.radius) == want


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def test_census_counts_pass_least_period_divisibility():
    """Every orbit of least period n has n points, so from the certified
    counts P_d (d | n) the number of points of least period n,
    sum_{d | n} mu(n / d) P_d, is a multiple of n: an exact oracle at any
    period.  The census proves each certified record's least period from
    its divisors' censuses, so that number is also the count of its records
    of least period n, and every certified least period is >= 1 and divides
    n.  Chaotic n = 18 and 20 certify only with each cell's own float
    bound (a global one grows like sup |f'|^n); their counts are pinned
    after an outward-rounded interval check of every enclosure."""
    cases = [
        (PolynomialMap.univariate(CHAOTIC), 1.0, 20, {18: 4_587, 20: 11_647}),
        (_seeded_quadratic(), None, 16, {}),
    ]
    for f, radius, n_max, pinned in cases:
        counts = {}
        for n in range(1, n_max + 1):
            res = find_periodic(f, n, radius=radius)
            assert res.certified
            counts[n] = res.count
            least = sum(_mobius(n // d) * counts[d] for d in range(1, n + 1) if n % d == 0)
            assert least >= 0 and least % n == 0, (n, counts)
            periods = [r.least_period for r in res.records if r.certified]
            assert periods.count(n) == least, (n, counts)
            assert all(p >= 1 and n % p == 0 for p in periods), n
        assert {n: counts[n] for n in pinned} == pinned


def _negated(eps) -> PerturbationVector:
    comps = tuple(HomogeneousComponent(c.degree, c.dim, -c.coeffs) for c in eps.components)
    return PerturbationVector(eps.dim, comps, eps.brick, eps.seed)


CHAOTIC = [0.95, 0.0, -1.8]  # 0.95 - 1.8 x^2, chaotic on [-1, 1]


def test_seeded_quadratic_certifies_at_period_16():
    """x^2 - 1 +- eps: three period-16 points, the attracting 2-cycle and the
    repelling fixed point.  Under the global Lipschitz test alone both maps
    ran out of the default budget at this period."""
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, 0))
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    for term in (eps, _negated(eps)):
        res = find_periodic(PerturbedMap(base, term), 16)
        assert res.certified
        assert res.count == 3
        assert res.uncertified_regions == []


def test_chaotic_map_certifies_at_periods_9_and_10():
    f = PolynomialMap.univariate(CHAOTIC)
    for n, want in ((9, 73), (10, 103)):
        res = find_periodic(f, n, radius=1.0)
        assert res.certified
        assert res.count == want
        assert all(r.certified and r.halfwidth <= 1e-12 for r in res.records)
        assert all(a.location < b.location for a, b in zip(res.records, res.records[1:]))


def test_chaotic_census_certifies_in_a_few_rounds(monkeypatch):
    """The fixed point 0.5 of 0.95 - 1.8x^2 is dyadic, so it lies on a cell
    end at every depth, where g never clears its float bound.  The two
    monotone cells beside it join into one run that its outer ends settle,
    so the census at n = 1, which first locates it, does not halve them
    down to tol; at n = 6-10 the run holds the enclosure of period 1.  Each
    rung takes a few rounds (each one _tube_many call of one positive
    radius per cell; the zero-width tubes are the settled ends', and the
    tubes with stacked radii (0, h) the Newton steps'), counted after the
    censuses at its divisors."""
    rounds = []
    tube = census._tube_many

    def counted_tube(f, mids, halves, *args):
        if np.ndim(halves) == 1 and np.any(halves):
            rounds.append(1)
        return tube(f, mids, halves, *args)

    monkeypatch.setattr(census, "_tube_many", counted_tube)
    for n in (1, 6, 7, 8, 9, 10):
        f = PolynomialMap.univariate(CHAOTIC)
        _divisors_first(f, n, radius=1.0)
        rounds.clear()
        res = find_periodic(f, n, radius=1.0)
        assert res.certified
        assert any(r.location == pytest.approx(0.5, abs=1e-12) for r in res.records)
        assert len(rounds) <= 6, (n, len(rounds))


def test_unperturbed_quadratic_certifies_at_period_32():
    """The 2-cycle point 0 of x^2 - 1 is a cell end at every depth; joining
    the cells beside it locates it at n = 2, and at n = 32 the joined run
    holds that enclosure, which certifies the period-32 census: it used to
    run out of the default budget."""
    f = quad()
    res = find_periodic(f, 2)
    assert res.certified and res.count == 3 and any(holds(r, 0.0) for r in res.records)
    res = find_periodic(f, 32)
    assert res.certified
    assert res.count == 3
    assert res.evaluations <= 2_000
    assert any(holds(r, 0.0) for r in res.records)


def test_census_budget_exhaustion_is_partial():
    """A budget that stops the refinement gives an uncertified result whose
    certified records and uncertified regions still account for every
    periodic point."""
    f = PolynomialMap.univariate(CHAOTIC)
    full = find_periodic(f, 10, radius=1.0)
    for budget in (500, 1100, 1500, 2000):
        res = find_periodic(f, 10, radius=1.0, max_evaluations=budget)
        assert not res.certified
        assert res.evaluations <= budget
        assert res.uncertified_regions
        certified = [r for r in res.records if r.certified]
        for rec in full.records:
            x = rec.location
            in_region = any(lo <= x <= hi for lo, hi in res.uncertified_regions)
            found = any(abs(r.location - x) <= r.halfwidth + rec.halfwidth for r in certified)
            assert in_region or found
        for r in certified:
            assert any(abs(r.location - rec.location) <= 1e-11 for rec in full.records)


def test_census_locates_every_root_in_one_newton_pass(monkeypatch):
    """The rounds leave each root in a bracket, and one _newton call after
    them encloses all 103 of 0.95 - 1.8x^2 at period 10 but the 13 that the
    censuses at its divisors 1, 2 and 5 located, with the evaluations of
    locating them round by round; each record is the one its bracket gives
    alone."""
    passes = []
    newton = census._newton

    def recorded(S, n, bmi, brackets, tol):
        passes.append((S, bmi, brackets, newton(S, n, bmi, brackets, tol)))
        return passes[-1][-1]

    monkeypatch.setattr(census, "_newton", recorded)
    f = PolynomialMap.univariate(CHAOTIC)
    _divisors_first(f, 10, radius=1.0)
    passes.clear()
    res = find_periodic(f, 10, radius=1.0)
    ((S, bmi, brackets, (found, calls)),) = passes
    assert res.certified and res.count == 103 and len(brackets) == 90 and res.evaluations == 2_177
    alone = [newton(S, 10, bmi[i:i + 1], brackets[i:i + 1], 1e-12) for i in range(90)]
    assert [a for (a,), _ in alone] == found and [sum(c for _, (c,) in alone)] == calls


def test_unpaid_brackets_are_reported_uncertified(monkeypatch):
    """A budget that pays for the rounds but not for every record leaves
    the roots it cannot pay for in their runs, each inside an uncertified
    region, and the result uncertified; the roots it pays for are the full
    census's records.  The 13 roots of 0.95 - 1.8x^2 at period 10 that its
    divisors' censuses located take one orbit each, paid before the
    brackets' contractions: 5 more than the rounds pay for 5 of them and
    no bracket, and no bracket is paid until 40 (_NEWTON_STEPS) more than
    all 13."""
    f = PolynomialMap.univariate(CHAOTIC)
    full = find_periodic(f, 10, radius=1.0)
    budgets, known = [], []
    enclose, tubes_at = census._enclose, census._tubes_at

    def recorded(*args):
        budgets.append(int(args[-1][0]))  # the budget left of the stack's one map
        return enclose(*args)

    def recorded_orbits(S, pm, xs, *args):
        if sys._getframe(2).f_code.co_name == "_census":  # the records' orbits, held roots first
            known.append(len(xs))
        return tubes_at(S, pm, xs, *args)

    monkeypatch.setattr(census, "_enclose", recorded)
    monkeypatch.setattr(census, "_tubes_at", recorded_orbits)
    assert find_periodic(f, 10, radius=1.0) == full
    assert known[0] == 13 and full.count == 103
    rounds = 3_000_000 - budgets[-1] - 13
    steps = census._NEWTON_STEPS
    for extra, paid in ((0, 0), (5, 5), (13 + steps - 1, 13), (13 + 5 * steps, 19)):
        res = find_periodic(f, 10, radius=1.0, max_evaluations=rounds + extra)
        assert not res.certified and res.evaluations <= rounds + extra
        assert all(r in full.records for r in res.records)
        assert (res.count == paid) if paid <= 13 else (paid <= res.count < 103)
        for rec in full.records:
            inside = sum(lo <= rec.location <= hi for lo, hi in res.uncertified_regions)
            assert inside == (rec not in res.records)


def test_tangency_is_reported_uncertified():
    """x - x^3 has a triple fixed point at 0, where the tube cannot prove
    x - f(x) monotone.  With the default tol the budget runs out around it;
    with tol 1e-4 the cells refine to a cluster, reported with a tangential
    candidate at its midpoint.  Neither certifies a record."""
    for tol in (1e-12, 1e-4):
        res = find_periodic(parabolic(), 1, tol=tol, max_evaluations=200_000)
        assert not res.certified
        assert res.evaluations <= 200_000
        assert not any(r.certified for r in res.records)
        assert any(lo <= 0.0 <= hi for lo, hi in res.uncertified_regions)
    assert [(r.kind, r.location) for r in res.records] == [("tangential-candidate", 0.0)]


def test_least_periods_near_an_uncertified_divisor_census():
    """1 - 1.75x^2 at tol 1e-8 leaves three tangency clusters at n = 3,
    so that census is uncertified.  At n = 6 the 12 roots the Newton pass
    locates miss those clusters and every enclosure at 1, 2 and 3, so they
    have least period 6; the held ones keep their divisors' 2 and 1, and
    the three candidates prove nothing (0).  At n = 12 all 12 keep least
    period 6, although for 4 of them |f^6(x) - x| at the float location
    is 2e-8 to 7.4e-8 (multipliers 27.7 and -29.0).  A region of the
    census at 3 over one of the 12 leaves its least period unproved."""
    def census(n, region=None):
        f = PolynomialMap.univariate([1.0, 0.0, -1.75])
        third = find_periodic(f, 3, radius=1.0625, tol=1e-8)
        if region is not None:
            roots = _domain(f, 1.0625).roots
            rows, regions = roots[1e-8, 3_000_000, 3]
            roots[1e-8, 3_000_000, 3] = rows, np.vstack([regions, [region]])
        return third, find_periodic(f, n, radius=1.0625, tol=1e-8)

    third, res = census(6)
    assert not third.certified and len(third.uncertified_regions) == 3
    kinds = sorted((r.kind, r.least_period) for r in res.records)
    assert kinds == ([("simple", 1)] + [("simple", 2)] * 2 + [("simple", 6)] * 12
                     + [("tangential-candidate", 0)] * 3)
    assert res.count == 15 and res.uncertified_regions == third.uncertified_regions
    sixes = [r.location for r in res.records if r.least_period == 6]
    _, twelve = census(12)
    assert [r.location for r in twelve.records if r.least_period == 6] == sixes
    _, hidden = census(6, (sixes[0] - 1e-6, sixes[0] + 1e-6))
    assert [(r.location, r.least_period) for r in hidden.records] == [
        (r.location, 0 if r.location == sixes[0] else r.least_period) for r in res.records]


def test_window_pass_is_counted_within_the_budget():
    """The cluster at the triple fixed point of x - x^3 is reported with
    one candidate, whose record is one counted orbit; a budget one short of
    the full count cannot pay for it, and the same cluster is reported
    without it."""
    full = find_periodic(parabolic(), 1, tol=1e-4)
    assert full.evaluations <= 3_000_000
    (candidate,) = full.records
    assert (candidate.kind, candidate.location) == ("tangential-candidate", 0.0)
    ((lo, hi),) = full.uncertified_regions
    assert candidate.location == 0.5 * (lo + hi) and candidate.halfwidth == (hi - lo) / 2.0
    short = find_periodic(parabolic(), 1, tol=1e-4, max_evaluations=full.evaluations - 1)
    assert short.evaluations == full.evaluations - 1
    assert short.uncertified_regions == [(lo, hi)]
    assert short.records == [] and not short.certified


def test_evaluations_count_every_computed_orbit(monkeypatch):
    """With no tube in the memo, so that none is reused, `evaluations` is the
    number of n-step orbits the census computes: orbit tubes, the ends of
    monotone cells, the interval Newton steps (batched across the brackets
    that step in lockstep, each step's orbit also the record's when it is
    the last), the orbit of each record of a root its divisors' censuses
    located, and the orbit of each tangential candidate's record.  Those
    censuses run first, on the same map, and count their own orbits: they
    are left out here, and the tubes they leave are dropped.  Counted at
    the two orbit kernels, which read the map's coefficients, each orbit is
    n steps of f, so the count does not depend on how the census batches
    them.  Each set of points the census iterates is distinct: the orbits
    of points on both kernels (_tubes_at, and _tube_many where some radius
    is 0)."""
    iterated, steps = [], []
    tubes_at, tube = census._tubes_at, census._tube_many

    def recorded_points(S, pm, xs, halves, n):
        iterated.append(np.array(xs))
        steps.append(len(xs) * n)
        return tubes_at(S, pm, xs, halves, n)

    def recorded_tube(f, mids, halves, n, *args):
        if not np.all(halves):
            iterated.append(np.array(mids))
        steps.append(np.size(mids) * n)
        return tube(f, mids, halves, n, *args)

    monkeypatch.setattr(census, "_tubes_at", recorded_points)
    monkeypatch.setattr(census, "_tube_many", recorded_tube)
    for f, n, radius, tol in ((PolynomialMap.univariate(CHAOTIC), 8, 1.0, 1e-12),
                              (parabolic(), 1, None, 1e-4)):
        dom = census._domain(f, census._resolve_radius(f, radius))  # the range and bounds
        _divisors_first(f, n, radius=radius, tol=tol)
        dom.tubes.clear()
        steps.clear()
        res = find_periodic(f, n, radius=radius, tol=tol)
        assert res.records and res.evaluations * n == sum(steps)
    assert iterated and all(np.unique(xs).size == xs.size for xs in iterated)


def _one(f):
    """The _Domain of f on [-1, 1], the radius _settle's callers pass."""
    return _domain(f, 1.0)


def _solo(f):
    """The stack of the one map f on [-1, 1]."""
    return census._Stack([f], [_one(f)])


def _settled(f, n, lo, hi, slope, budget):
    """_settle on the intervals [lo, hi] of f alone, on [-1, 1]: the mask of
    the settled intervals, the evaluations spent and the brackets."""
    mask, used, brackets, _ = census._settle(_solo(f), n, np.zeros(lo.size, dtype=np.intp), lo, hi, slope,
                                             np.array([budget]))
    return mask, int(used[0]), brackets


def _known_of(rows, sizes):
    """The census._Known of the columns of `rows`, sizes[k] of them of map
    k, each map's sorted by x - h, then x + h."""
    return census._Known(rows=rows, off=[0, *np.cumsum(sizes).tolist()],
                         maps=np.repeat(np.arange(len(sizes)), sizes))


def _held(lo, hi, up, known):
    """_held_runs on the intervals [lo, hi] of one map whose known roots are
    the columns of `known`: the mask and the rows [x, h, least, a, c]."""
    one = _known_of(known, [known.shape[1]])
    inside, rows = census._held_runs(lo, hi, up, np.zeros(lo.size, dtype=np.intp), one)
    assert all(row[5] == 0.0 for row in rows)
    return inside, [row[:5] for row in rows]


def _slopes(f, n, lo, hi):
    """The enclosures of g' on the intervals [lo, hi] from their orbit
    tubes on [-1, 1], as _settle's callers pass them."""
    mids, halves = 0.5 * (lo + hi), 0.5 * (hi - lo)
    c = _cells(mids, halves, n, _one(f), _tube_many(f, mids, halves, n, _one(f)))
    d, dev = c.lam - 1.0, c.dev
    return np.array([d - dev, d + dev])


def _located(f, n, brackets, budget=10_000):
    """The records of the roots _enclose locates in `brackets` at period
    n on [-1, 1] within `budget`, and the orbits it spent."""
    (found,), (spent,) = census._enclose(_solo(f), n, np.zeros(len(brackets), dtype=np.intp), brackets, 1e-12,
                                         np.array([budget]))
    return [census._record(n, *fields, True, "simple") for fields in found], int(spent)


def test_settle_pays_for_the_ends_and_newton_at_its_worst():
    """Two intervals share an end, evaluated once; the fixed point 0.5 of
    0.95 - 1.8x^2 lies in the first.  A budget short of the three ends
    settles nothing.  Paid, both intervals leave the frontier, the first as
    a bracket, and a budget short of the contraction's worst case leaves
    its root unlocated."""
    f = PolynomialMap.univariate(CHAOTIC)
    lo, hi = np.array([0.49, 0.505]), np.array([0.505, 0.52])
    slope = _slopes(f, 1, lo, hi)
    assert (slope[1] < 0).all()  # g' = -3.6x - 1 < 0 on both
    for budget, settled, spent in ((2, [False, False], 0), (3, [True, True], 3)):
        mask, used, brackets = _settled(f, 1, lo, hi, slope, budget)
        assert mask.tolist() == settled and used == spent
        assert brackets.shape == (sum(settled) // 2, 9)
    assert brackets[0, :2].tolist() == [0.49, 0.505]
    assert _located(f, 1, brackets, census._NEWTON_STEPS - 1) == ([], 0)
    (record,), used = _located(f, 1, brackets, census._NEWTON_STEPS)
    assert 0 < used <= census._NEWTON_STEPS and abs(record.location - 0.5) <= record.halfwidth


def test_reported_intervals_are_plain_floats():
    regions = find_periodic(parabolic(), 1, max_evaluations=200_000).uncertified_regions
    cover = find_almost_periodic(PolynomialMap.univariate(CHAOTIC), 10, 1e-6, radius=1.0)
    report = ih_check(half(), GrowthParams(C=1.0, delta=0.5), 1, max_evaluations_per_period=100)
    for intervals in (regions, cover.intervals, report.rows[0].unresolved):
        assert intervals
        assert all(type(v) is float for interval in intervals for v in interval)


# -- reuse across periods ----------------------------------------------------------


def _seeded_quadratic():
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, 0))
    return PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps)


def _round_one_orbits(monkeypatch) -> list:
    """The list that receives, per call of _grid_tube, the _tube_many calls
    it makes: 0 when the memo holds the tube asked for."""
    round1, calls = [], []
    tube, grid_tube = census._tube_many, census._grid_tube

    def counted_tube(*args, **kwargs):
        calls.append(1)
        return tube(*args, **kwargs)

    def counted_grid_tube(*args):
        before = len(calls)
        out = grid_tube(*args)
        round1.append(len(calls) - before)
        return out

    monkeypatch.setattr(census, "_tube_many", counted_tube)
    monkeypatch.setattr(census, "_grid_tube", counted_grid_tube)
    return round1


def test_reused_census_work_matches_a_fresh_map(monkeypatch):
    """Periods 5, 1, 8, 8, 3 on one map extend the initial grid's tube,
    start it afresh below every period held, reuse it at the same period
    and extend it from a lower one; every result equals the same call on a
    freshly built map, field by field.  The census, the cover and ih_check
    share one grid, so a descending revisit (8, 4, 8, 4) on a map of its
    own computes each period's round-1 tube once: the census at 8 computes
    those at 1, 2 and 4 for the censuses at its divisors, which run first,
    ih_check reads them and the census's at stage 8, and the revisits take
    every tube from the memo."""
    f = _seeded_quadratic()
    for n in (5, 1, 8, 8, 3):
        assert find_periodic(f, n) == find_periodic(_seeded_quadratic(), n)
    cover = find_almost_periodic(f, 6, 1e-3)
    assert cover == find_almost_periodic(_seeded_quadratic(), 6, 1e-3)
    params = GrowthParams(C=3.0, delta=1.0)
    report = ih_check(f, params, 8)
    assert report == ih_check(_seeded_quadratic(), params, 8)
    assert [row.status for row in report.rows] == ["holds"] * 8
    # the memo holds the ranges and the bound triples of the radii tried, and
    # one domain, at the radius found: the initial grid, read-only, and its
    # tube at every period asked for
    memo, R = dynamics._MEMO[f], report.radius
    assert {k[0] for k in memo} == {"range", "bounds", "domain"}
    assert {k for k in memo if k[0] == "bounds"} == {("bounds", r) for kind, r in memo if kind == "range"}
    (key,) = [k for k in memo if k[0] == "domain"]
    dom = memo[key]
    assert key == ("domain", R) and dom.R == R
    assert (dom.D2, dom.step) == (memo["bounds", R][2], 64.0 * census._EPS * max(R, memo["bounds", R][0], 1.0))
    mids, halves = dom.grid
    assert not (mids.flags.writeable or halves.flags.writeable)
    edges = np.linspace(-R, R, census._GRID_CELLS + 1)
    assert mids.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()
    assert halves.tobytes() == np.full(census._GRID_CELLS, R / census._GRID_CELLS).tobytes()
    assert set(dom.tubes) == set(range(1, 9))
    assert not any(a.flags.writeable for tube in dom.tubes.values() for a in tube)
    # warm calls equal fresh ones
    assert find_periodic(f, 6) == find_periodic(_seeded_quadratic(), 6)
    assert ih_check(f, params, 8) == report
    round1 = _round_one_orbits(monkeypatch)
    g = _seeded_quadratic()
    for i, n in enumerate((8, 4, 8, 4)):
        fresh = find_periodic(_seeded_quadratic(), n), ih_check(_seeded_quadratic(), params, n)
        round1.clear()
        assert (find_periodic(g, n), ih_check(g, params, n)) == fresh
        # the census's tubes (its divisors' first), then ih_check's at stages 1..n
        census_tubes = [1, 1, 1, 1] if i == 0 else [0]
        stages = [int(i == 0 and k not in (1, 2, 4, 8)) for k in range(1, n + 1)]
        assert round1 == census_tubes + stages


def test_ih_check_reads_the_round_one_tubes_a_census_left(monkeypatch):
    """After censuses at n = 1..8 on a seeded a9 map, ih_check through
    stage 8 starts every stage from the census's tube at its period: it
    computes no round-1 orbit, and its report equals a fresh map's."""
    params = GrowthParams(C=2.2, delta=1.0)
    want = ih_check(_seeded_quadratic(), params, 8)
    f = _seeded_quadratic()
    for n in range(1, 9):
        find_periodic(f, n)
    round1 = _round_one_orbits(monkeypatch)
    got = ih_check(f, params, 8)
    assert got == want and len(got.rows) == 8
    assert round1 == [0] * 8


def test_census_reads_the_roots_its_divisors_located(monkeypatch):
    """On a seeded a9 map the censuses at n = 1..8 count 1 and 3 in turn,
    and _newton receives 3 brackets in all: the fixed point at n = 1 and
    the 2-cycle at n = 2.  Every later census settles each monotone run
    that holds one of those enclosures with no end value and no Newton
    step; its record keeps the enclosure.  A census at 8 on a fresh map
    runs its divisors' censuses first, and equals the warm one."""
    brackets = []
    newton = census._newton

    def recorded(f, n, dom, rows, tol):
        brackets.extend([n] * len(rows))
        return newton(f, n, dom, rows, tol)

    monkeypatch.setattr(census, "_newton", recorded)
    f = _seeded_quadratic()
    results = [find_periodic(f, n) for n in range(1, 9)]
    assert [r.count for r in results] == [1, 3] * 4 and all(r.certified for r in results)
    assert brackets == [1, 2, 2]
    odd, even = ([(r.location, r.halfwidth, r.least_period) for r in res.records] for res in results[:2])
    assert [least for *_, least in even] == [2, 1, 2] and odd[0] in even
    for n, res in enumerate(results, 1):
        assert [(r.location, r.halfwidth, r.least_period) for r in res.records] == (odd if n % 2 else even)
    brackets.clear()
    assert find_periodic(_seeded_quadratic(), 8) == results[-1]
    assert brackets == [1, 2, 2]


def test_census_memo_goes_with_its_map():
    """A census memoizes the perturbed map and, for its bounds, the map's
    base: two entries, which go with the map."""
    gc.collect()
    before = len(dynamics._MEMO)
    f = _seeded_quadratic()
    find_periodic(f, 4)
    ih_check(f, GrowthParams(C=1.0, delta=1.0), 2)
    assert f in dynamics._MEMO and f.base in dynamics._MEMO
    assert set(dynamics._MEMO[f.base]) == {k for k in dynamics._MEMO[f] if k[0] == "bounds"}
    assert len(dynamics._MEMO) == before + 2
    del f
    gc.collect()
    assert len(dynamics._MEMO) == before


def test_census_memo_hits_for_a_bare_polynomial_map(monkeypatch):
    """The memo is keyed on the bare PolynomialMap itself: three censuses of
    it compute its bound triple once, for the range and the domain at the
    radius 1 it certifies, as on a PerturbedMap, and nothing in the entry
    refers back to the map, so the entry goes as soon as the map does, with
    no garbage collection."""
    radii = []
    bounds = PolynomialMap.bounds

    def counted(self, radius):
        radii.append(radius)
        return bounds(self, radius)

    monkeypatch.setattr(PolynomialMap, "bounds", counted)
    gc.collect()
    before = len(dynamics._MEMO)
    f = PolynomialMap.univariate(CHAOTIC)
    for n in (6, 7, 8):
        find_periodic(f, n)
    assert radii == [1.0]
    assert set(dynamics._MEMO[f]) == {("range", 1.0), ("bounds", 1.0), ("domain", 1.0)}
    assert f in dynamics._MEMO and len(dynamics._MEMO) == before + 1
    gc.disable()
    try:
        del f
        assert len(dynamics._MEMO) == before
    finally:
        gc.enable()


def test_newton_starts_from_the_ends_settle_computed(monkeypatch):
    """The contraction's first step reads g and its bounds at the bracket
    ends from _settle's pass over the ends, one zero-width _tubes_at call,
    which holds exactly the two ends; no orbit of a Newton step starts at an
    end, and the record encloses the root that mpmath.findroot gives at 200
    bits."""
    f = PolynomialMap.univariate(CHAOTIC)
    lo, hi = np.array([0.49]), np.array([0.505])
    ends, starts, steps = [], [], []
    start, tubes_at = census._start, census._tubes_at

    def recorded_start(xp, *args):
        starts.append(args[:6])
        return start(xp, *args)

    def recorded_orbits(S, pm, xs, halves, n):
        out = tubes_at(S, pm, xs, halves, n)
        if halves is None:  # the ends' zero-width tubes
            ends.append((list(xs), [g for g, *_ in out], [bound for _, bound, *_ in out]))
        else:  # a Newton step's box
            steps.extend(xs)
        return out

    monkeypatch.setattr(census, "_start", recorded_start)
    monkeypatch.setattr(census, "_tubes_at", recorded_orbits)
    mask, used, brackets = _settled(f, 1, lo, hi, _slopes(f, 1, lo, hi), 10_000)
    records, spent = _located(f, 1, brackets)
    ((xs, g, bound),) = ends
    assert xs == [0.49, 0.505]
    assert starts == [(0.49, 0.505, g[0], g[1], bound[0], bound[1])]
    assert mask.tolist() == [True] and used == 2  # the two ends
    assert spent == len(steps)  # the last step is the record's
    assert steps and 0.49 not in steps and 0.505 not in steps
    (record,) = records
    with mpmath.workprec(200):
        root = mpmath.findroot(lambda x: 0.95 - 1.8 * x**2 - x, mpmath.mpf(0.5))
        assert abs(record.location - root) <= record.halfwidth == 1e-12


def test_settle_joins_monotone_intervals_across_a_root_on_their_shared_end():
    """The fixed point 0.5 of 0.95 - 1.8x^2 is the shared end of two
    intervals on which g decreases; g there does not clear the slack, so
    neither interval is decided alone.  They join into one run, whose outer
    ends bracket the root: one record, and both intervals settled."""
    f = PolynomialMap.univariate(CHAOTIC)
    assert abs(f.evaluate(0.5) - 0.5) <= 1e-9
    lo, hi = np.array([0.49, 0.5]), np.array([0.5, 0.51])
    mask, used, brackets = _settled(f, 1, lo, hi, _slopes(f, 1, lo, hi), 10_000)
    assert mask.tolist() == [True, True] and used == 3  # the three ends
    assert brackets[:, :2].tolist() == [[0.49, 0.51]]  # the run's outer ends
    (record,), spent = _located(f, 1, brackets)
    assert record.certified and abs(record.location - 0.5) <= record.halfwidth
    assert 0 < spent <= census._NEWTON_STEPS


def test_settle_keeps_intervals_apart_where_their_shared_end_clears():
    """Three intervals on which g of 0.95 - 1.8x^2 decreases: the last two
    share the fixed point 0.5, where g does not clear, and join; the first
    two share 0.495, where g clears its bound, and stay apart.  The first
    is decided alone (no root), and the run of the other two brackets the
    root from its own outer ends, not from those of all three."""
    f = PolynomialMap.univariate(CHAOTIC)
    lo, hi = np.array([0.49, 0.495, 0.5]), np.array([0.495, 0.5, 0.51])
    mask, used, brackets = _settled(f, 1, lo, hi, _slopes(f, 1, lo, hi), 10_000)
    assert mask.tolist() == [True, True, True] and used == 4
    assert brackets[:, :2].tolist() == [[0.495, 0.51]]


def test_settle_never_joins_intervals_monotone_in_opposite_directions():
    """f(x) = x + x^2/2 has a double fixed point at 0, the shared end of two
    intervals where g = x^2/2 falls and then rises.  They do not join, and
    neither is decided by its ends: nothing settled, no record."""
    f = PolynomialMap.univariate([0.0, 1.0, 0.5])
    lo, hi = np.array([-0.25, 0.0]), np.array([0.0, 0.25])
    slope = np.array([[-0.25, 1e-3], [-1e-3, 0.25]])  # g' = x falls, then rises
    mask, used, brackets = _settled(f, 1, lo, hi, slope, 10_000)
    assert mask.tolist() == [False, False]
    assert used == 3 and brackets.shape == (0, 9)


def test_held_runs_join_only_what_settle_would_and_need_the_enclosure_inside():
    """Cells join into a run only when they share an end exactly and rise
    or fall alike, and a run holds a known root only when the enclosure
    lies strictly inside it: the double fixed point's two cells (falling,
    then rising) stay apart, and an enclosure on a run's end or astride it
    is not read.  On random cells, each run found lies strictly around its
    enclosure, its cells rise or fall alike, and every enclosure strictly
    inside a run of cells that share their ends and direction is read,
    with its least period."""
    lo, hi, up = np.array([0.0, -0.25, 0.25]), np.array([0.25, 0.0, 0.5]), np.array([True, False, True])
    none, rising, falling = [False] * 3, [True, False, True], [False, True, False]
    for x, h, want, mask in ((0.0, 0.01, [], none), (0.3, 0.01, [[0.3, 0.01, 3.0, 0.0, 0.5]], rising),
                             (0.49, 0.01, [], none), (-0.2, 0.05, [], none),
                             (-0.2, 0.04, [[-0.2, 0.04, 3.0, -0.25, 0.0]], falling)):
        inside, runs = _held(lo, hi, up, np.array([[x - h], [x + h], [x], [h], [3.0]]))
        assert runs == want and inside.tolist() == mask
    rng = np.random.default_rng(5)
    for size in range(1, 48):
        edges = np.cumsum(rng.choice([0.125, 0.25], size + 1))
        keep = rng.random(size) < 0.8  # gaps break runs too
        keep[0] = True
        lo, hi, up = edges[:-1][keep], edges[1:][keep], rng.random(keep.sum()) < 0.7
        order = rng.permutation(lo.size)
        lo, hi, up = lo[order], hi[order], up[order]
        xs, hs = rng.uniform(edges[0], edges[-1], 6), rng.choice([1e-3, 0.1], 6)
        known = np.array([xs - hs, xs + hs, xs, hs, rng.integers(0, 4, 6)])
        known = known[:, np.argsort(known[0])]
        inside, runs = _held(lo, hi, up, known)
        for x, h, _, a, c in runs:
            cells = (lo >= a) & (hi <= c)
            assert a < x - h and x + h < c and inside[cells].all() and len(set(up[cells])) == 1
        # the maximal runs, one cell at a time in order of lo
        sorted_cells = sorted(zip(lo.tolist(), hi.tolist(), up.tolist()))
        maximal, (a, c, u) = [], sorted_cells[0]
        for l, r, v in sorted_cells[1:]:
            if l == c and v == u:
                c = r
            else:
                maximal.append((a, c))
                a, c, u = l, r, v
        maximal.append((a, c))
        for a, c in maximal:
            firsts = [(x, h, least) for x, h, least in known[2:].T.tolist() if x - h > a]
            if firsts and firsts[0][0] + firsts[0][1] < c:
                assert [*firsts[0], a, c] in runs
            else:
                assert not any(r[3] == a for r in runs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    widths=st.lists(st.sampled_from([0.125, 0.25]), min_size=1, max_size=40),
    data=st.data(),
)
def test_held_runs_floats_and_arrays_agree(widths, data):
    """_held_runs gives the same mask and rows on floats (up to
    _SCALAR_POINTS intervals) and on arrays (beyond it), each path forced
    by the limit: cells on a dyadic grid, so that shared ends are exact,
    with gaps and mixed directions, in any order, against sorted
    enclosures, more of them than cells, whose ends touch, straddle or sit
    strictly inside the runs' ends, each with its least period."""
    size = len(widths)
    edges = np.cumsum([0.0] + widths)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    keep[0] = True
    lo, hi = edges[:-1][keep], edges[1:][keep]
    up = np.array(data.draw(st.lists(st.booleans(), min_size=lo.size, max_size=lo.size)))
    order = np.array(data.draw(st.permutations(range(lo.size))))
    lo, hi, up = lo[order], hi[order], up[order]
    # each enclosure starts on a cell end, or a little before or after it
    anchors = data.draw(st.lists(st.tuples(st.integers(0, size), st.sampled_from([-1 / 16, 0.0, 1 / 32]),
                                           st.sampled_from([1 / 32, 1 / 16, 1 / 8, 3 / 16])),
                                 min_size=lo.size + 1, max_size=lo.size + 24))
    starts, hs = np.array([edges[i] + d for i, d, _ in anchors]), np.array([h for *_, h in anchors])
    known = np.array([starts, starts + 2.0 * hs, starts + hs, hs, np.arange(starts.size) % 5])
    known = known[:, np.lexsort(known[1::-1])]
    got = []
    for limit in (0, 10**9):  # the arrays, then the floats
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "_SCALAR_POINTS", limit)
            inside, rows = _held(lo, hi, up, known)
        assert inside.dtype == bool and inside.shape == lo.shape
        assert all(type(v) is float for row in rows for v in row)
        got.append((inside.tolist(), rows))
    assert got[0] == got[1]


def test_settle_waves_settle_what_the_sequential_rule_settles(monkeypatch):
    """After the rounds, each wave locates as many roots as the budget left
    pays for at the contraction's worst, and charges their actual orbits
    before the next.  On three roots of 0.95 - 1.8x^2 at period 5, at every
    budget, the roots located and the evaluations equal the rule that takes
    the roots one at a time while what is left pays for _NEWTON_STEPS, on
    both paths, and each record is the one located alone."""
    f = PolynomialMap.univariate(CHAOTIC)
    roots = np.array([r.location for r in find_periodic(f, 5, radius=1.0).records[:6:2]])
    lo, hi = roots - 1e-4, roots + 1e-4
    slope = _slopes(f, 5, lo, hi)
    # each root alone: its two ends, then the Newton steps
    alone = [_located(f, 5, _settled(f, 5, lo[i:i + 1], hi[i:i + 1],
                                           slope[:, i:i + 1], 10_000)[2]) for i in range(3)]
    worst = census._NEWTON_STEPS
    assert all(0 < c < worst for _, c in alone)
    crossed = False
    for limit in (0, 10**9):
        monkeypatch.setattr(census, "_SCALAR_POINTS", limit)
        for budget in range(0, 6 + 3 * worst + 2):
            spent, want = 6, []
            for _, c in alone:
                want.append(budget >= 6 and spent + worst <= budget)
                spent += c if want[-1] else 0
            mask, used, brackets = _settled(f, 5, lo, hi, slope, budget)
            assert mask.tolist() == [budget >= 6] * 3 and len(brackets) == 3 * (budget >= 6)
            records, located = _located(f, 5, brackets, budget - used)
            assert records == [r for (r,), _ in alone[:sum(want)]] and want == sorted(want)[::-1]
            assert used + located == (spent if budget >= 6 else 0), budget
            # the third root fits only once the first wave's orbits are charged
            crossed |= want == [True] * 3 and budget - 6 < 3 * worst
    assert crossed


def _switch_censuses() -> list:
    """Fresh censuses of 0.95 - 1.8x^2 (radius 1) at n = 1..12 and of the
    seeded quadratic and its mirror at n = 1..16."""
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, 0))
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    out = [find_periodic(PolynomialMap.univariate(CHAOTIC), n, radius=1.0) for n in range(1, 13)]
    return out + [find_periodic(PerturbedMap(base, term), n) for term in (eps, _negated(eps))
                  for n in range(1, 17)]


@pytest.mark.parametrize("limit", [0, 10**9])
def test_census_is_the_same_on_the_scalar_and_array_paths(monkeypatch, limit):
    """With every switched set on the array path (settled ends, held-run
    tests and lockstep Newton steps on arrays) or on the float path (one
    point, interval or run at a time), each census equals the default one:
    records, regions and evaluations."""
    want = _switch_censuses()
    monkeypatch.setattr(census, "_SCALAR_POINTS", limit)
    got = _switch_censuses()
    assert got == want
    assert all(repr(a) == repr(b) for a, b in zip(got, want))


@pytest.mark.parametrize("limit", [0, 10**9])
def test_record_fields_are_plain_python_values(monkeypatch, limit):
    """Every field of a settled root's record, of a tangential candidate and
    of an ih_check witness is a plain float, int, bool or str, on the array
    path and on the scalar path, although the candidate and the witness are
    taken at points of NumPy arrays."""
    monkeypatch.setattr(census, "_SCALAR_POINTS", limit)
    settled = find_periodic(PolynomialMap.univariate(CHAOTIC), 5, radius=1.0).records
    (candidate,) = find_periodic(parabolic(), 1, tol=1e-4).records
    witness = ih_check(PolynomialMap.univariate([0, 1, 0, -1]), GrowthParams(C=1.0, delta=1.0), 1,
                       radius=0.5).witness
    assert settled and {r.kind for r in settled} == {"simple"}
    assert candidate.kind == "tangential-candidate" and witness.kind == "witness"
    for record in settled + [candidate, witness]:
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            assert type(value) in (float, int, bool, str), (field.name, type(value))


def test_unperturbed_quadratic_certifies_at_periods_48_64_and_96():
    """Every test reads its own cell's float bound, so the census of
    x^2 - 1 certifies far past the period (about 44) at which a global
    slack, growing like sup |f'|^n = 2.125^n, reaches 2R >= |g| and can
    decide nothing: the fixed point and the 2-cycle, with a few thousand
    evaluations."""
    for n in (48, 64, 96):
        res = find_periodic(quad(), n)
        assert res.certified and res.uncertified_regions == []
        assert res.count == 3 and res.evaluations <= 3_000
        assert any(holds(r, 0.0) for r in res.records)
        assert any(abs(r.location - GOLDEN) <= 1e-12 for r in res.records)


def test_clusters_no_round_decides_are_reported_as_they_are():
    """At n = 128 and 160 of x^2 - 1 the repelling fixed point (1 - sqrt 5)/2
    and its preimage stop every test: their cells refine to two clusters,
    each reported under 1e-10 wide, and the other two points certify.  At
    n = 128 each cluster has a candidate at its midpoint; at n = 160 the
    midpoint's orbit bound reaches the cap 2R, so it bounds nothing and
    gives no record.  Near the period-3 saddle-node of 1 - a x^2 the census
    keeps its count and stays uncertified."""
    for n, kept in ((128, 2), (160, 0)):
        res = find_periodic(quad(), n)
        assert res.count == 2 and not res.certified
        assert len(res.uncertified_regions) == 2
        candidates = [r for r in res.records if not r.certified]
        assert [r.kind for r in candidates] == ["tangential-candidate"] * kept
        for (lo, hi), point in zip(res.uncertified_regions, (GOLDEN, -GOLDEN)):
            assert lo <= point <= hi and hi - lo < 1e-10
        for (lo, hi), r in zip(res.uncertified_regions, candidates):
            assert r.location == 0.5 * (lo + hi) and r.halfwidth == (hi - lo) / 2.0
        assert res.evaluations <= 1_639
    res = find_periodic(PolynomialMap.univariate([1.0, 0.0, -1.75]), 3, radius=1.0625, tol=1e-8)
    assert res.count == 1 and not res.certified
    assert all(any(lo <= r.location <= hi for lo, hi in res.uncertified_regions)
               for r in res.records if not r.certified)


def test_import_leaves_scipy_optimize_out():
    """The census locates roots without scipy.optimize, so importing the
    package does not load it; tests still import it as a reference."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(census.__file__)))
    code = "import sys, orbitlab; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _tubes_at(f, dom, xs, halves, n):
    """census._tubes_at on the points xs of the one map f, on its domain dom."""
    return census._tubes_at(census._Stack([f], [dom]), [0] * len(xs), xs, halves, n)


def _tube_cases():
    """Yield (f, dom, xs, hs, n) for the kernel comparisons below: a folded
    brick sample, a map with unfolded root-product terms and 0.95 - 1.8x^2,
    at periods 1, 5, 6 and 7, at signed zeros, +-R, points outside [-R, R],
    infinities and NaN, and box radii 0 and positive, on both sides of the
    scalar-path limit."""
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, 0))
    maps = ((PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps), None),
            (parabolic(), None), (PolynomialMap.univariate(CHAOTIC), 1.0))
    assert maps[1][0]._rest  # the root-product terms stay unfolded
    special = [0.0, -0.0, 1.5, -3.0, np.inf, -np.inf, np.nan, -np.nan]
    limit = census._SCALAR_POINTS
    for f, radius in maps:
        dom = _domain(f, _resolve_radius(f, radius))
        pool = np.array(special + [dom.R, -dom.R] + np.linspace(-dom.R, dom.R, 17).tolist())
        halves = np.resize([0.0, 1e-9, 1e-3, 0.25], pool.size)
        for size in (1, limit, limit + 1):
            for k in range(len(special)):  # each special value leads once
                xs, hs = np.roll(pool, -k)[:size], np.roll(halves, -k)[:size]
                for n in (1, 5, 6, 7):
                    yield f, dom, xs, hs, n


def _same_bits(got, want):
    for v, w in zip(zip(*got), want):
        v = np.array(v, dtype=float)
        assert np.array_equal(v, w, equal_nan=True) and np.array_equal(np.signbit(v), np.signbit(w))


def test_tubes_at_equals_tubes_at_many_bit_for_bit():
    """The float loop of _tubes_at performs the array path's float
    operations: its g, bound, lam and dev equal bit for bit those of one
    _tube_many over the stacked radii (0, h), the array path _newton's
    lockstep takes (it was _tubes_at_many), for box radii 0 and positive."""
    with np.errstate(all="ignore"):
        for f, dom, xs, hs, n in _tube_cases():
            y, r, lam, lam_hi = _tube_many(f, xs, np.stack([np.zeros(xs.size), hs]), n, dom)
            want = (y - xs, r[0] + dom.pad, lam, census._dev(lam, lam_hi[1], n))
            _same_bits(_tubes_at(f, dom, xs.tolist(), hs.tolist(), n), want)


def test_g_ends_is_the_zero_width_tube_on_both_paths():
    """The ends _settle computes are the zero-width tube on both of its
    paths: _tubes_at with halves None (the float path of _points, which
    also traces the held records', candidates' and witnesses' orbits) gives
    the g = y - x, bound = r + pad, lam and dev of one _tube_many at radius
    0 alone (its array path) bit for bit, and equals _tubes_at with halves
    [0.0] * k and _tube_many over the stacked radii (0, 0): the zero-width
    tube is traced once."""
    with np.errstate(all="ignore"):
        for f, dom, xs, _, n in _tube_cases():
            zeros = np.zeros(xs.size)
            point = _tubes_at(f, dom, xs.tolist(), None, n)
            y, r, lam, lam_hi = _tube_many(f, xs, zeros, n, dom)
            _same_bits(point, (y - xs, r + dom.pad, lam, census._dev(lam, lam_hi, n)))
            y, r, lam, lam_hi = _tube_many(f, xs, np.stack([zeros, zeros]), n, dom)
            want = (y - xs, r[0] + dom.pad, lam, census._dev(lam, lam_hi[1], n))
            _same_bits(point, want)
            _same_bits(_tubes_at(f, dom, xs.tolist(), [0.0] * xs.size, n), want)


def test_newton_step_is_the_same_on_floats_and_arrays():
    """_start and _contract compute the same floats on Python floats
    (_pyfloat) as on arrays (np), signed zeros included, so a bracket's
    enclosure and record do not depend on whether it steps in lockstep."""
    rng = np.random.default_rng(3)
    size = 400
    a = rng.uniform(-1.0, 1.0, size)
    c = a + 10.0 ** rng.uniform(-14, -2, size)
    m = 0.5 * (a + c)
    g = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-18, -3, size)
    g[:4] = [0.0, -0.0, 0.0, -0.0]
    bound = 10.0 ** rng.uniform(-17, -13, size)
    dl = 10.0 ** rng.uniform(-2, 1, size)
    dh = dl * (1.0 + 10.0 ** rng.uniform(-6, 0, size))
    t = rng.choice([-1.0, 1.0], size)
    lam = 1.0 + t * 0.5 * (dl + dh)
    dev = 0.5 * (dh - dl) * rng.uniform(0.0, 1.2, size)
    tol, pad = 1e-12, 8.0 * census._EPS  # the pad of [-1, 1]
    want = census._start(np, a, c, g, -g, bound, bound, t, dl, dh, pad)
    got = [census._start(census._pyfloat, *row, pad)
           for row in zip(*(v.tolist() for v in (a, c, g, -g, bound, bound, t, dl, dh)))]
    want += census._contract(np, a, c, m, t, g, bound, lam, dev, dl, dh, pad, tol)
    got = [s + census._contract(census._pyfloat, *row, pad, tol) for s, row in
           zip(got, zip(*(v.tolist() for v in (a, c, m, t, g, bound, lam, dev, dl, dh))))]
    for v, w in zip(zip(*got), want):
        v = np.array(v, dtype=w.dtype)
        assert np.array_equal(v, w) and np.array_equal(np.signbit(v), np.signbit(w))


def test_tube_clamp_equals_clip():
    """The tube clamps each image to [-R, R] with np.clip's floats, bit for
    bit: NaN of either sign, signed zeros, +-R and values beyond +-R."""
    R = 1.0625
    v = np.array([np.nan, -np.nan, 0.0, -0.0, R, -R, np.nextafter(R, 2.0), -np.nextafter(R, 2.0),
                  2.0, -2.0, np.inf, -np.inf, 0.5, -1e-300])

    class Images:
        def eval_many(self, y):
            return v.copy()

        def deriv_many(self, y):
            return np.zeros_like(y)

    dom = census._Domain(R=R, D1=1.0, D2=0.0, step=0.0, d_slack=0.0, pad=0.0, cap=2.0 * R,
                         grid=None, tubes={}, roots={})
    y = _tube_many(Images(), np.zeros(v.size), np.zeros(v.size), 1, dom)[0]
    assert y.tobytes() == np.clip(v, -R, R).tobytes()


def _proved_sign_changes(f, records, n: int) -> bool:
    """Whether g = f^n - id, in outward-rounded 120-bit interval arithmetic
    on the map's own polynomial (its float coefficients taken exactly),
    excludes 0 with opposite signs at both ends of every record's enclosure
    [location - halfwidth, location + halfwidth]: a root in each."""
    assert not getattr(f, "_rest", ())  # the polynomial is the whole map
    poly = getattr(f, "_fold", f)._poly  # a bare map is its own fold

    def g(x):
        y = x
        for _ in range(n):
            v = mpmath.iv.mpf(0)
            for c in poly:  # highest degree first
                v = v * y + c
            y = v
        return y - x

    prec = mpmath.iv.prec
    mpmath.iv.prec = 120
    try:
        for r in records:
            x, h = mpmath.iv.mpf(r.location), mpmath.iv.mpf(r.halfwidth)
            lo, hi = g(x - h), g(x + h)
            if not (lo.b < 0 < hi.a or hi.b < 0 < lo.a):
                return False
        return True
    finally:
        mpmath.iv.prec = prec


def test_reused_enclosures_hold_a_root_in_interval_arithmetic():
    """A record that a census reads from its divisors' censuses keeps their
    enclosure, which holds a sign change of g = f^n - id as well, proved in
    120-bit interval arithmetic: x^2 - 1 at n = 2..16 (the fixed point, and
    the 2-cycle at even n) and 0.95 - 1.8x^2 at n = 4, 6, 8 and 12."""
    for f, periods, radius in ((quad(), range(2, 17), None),
                               (PolynomialMap.univariate(CHAOTIC), (4, 6, 8, 12), 1.0)):
        for n in periods:
            res = find_periodic(f, n, radius=radius)
            roots = census._domain(f, res.radius).roots
            known = {(x, h) for d in census._proper_divisors(n)
                     for x, h, _ in roots[1e-12, 3_000_000, d][0].tolist()}
            reused = [r for r in res.records if (r.location, r.halfwidth) in known]
            assert res.certified and reused
            assert _proved_sign_changes(f, reused, n)


def test_certified_enclosures_hold_a_root_in_interval_arithmetic():
    """Every certified record's enclosure holds a sign change of g proved
    in outward-rounded interval arithmetic, independently of the census's
    float model: the seeded quadratic at period 8 (a few brackets, stepped
    one at a time on floats), 0.95 - 1.8x^2 at period 10 (103 records,
    stepped in lockstep on arrays), and at period 20 every record whose
    contraction stopped at the float noise floor above tol."""
    seeded = _seeded_quadratic()
    res = find_periodic(seeded, 8)
    assert res.certified and 0 < len(res.records) <= census._SCALAR_POINTS
    assert _proved_sign_changes(seeded, res.records, 8)
    chaotic = PolynomialMap.univariate(CHAOTIC)
    res = find_periodic(chaotic, 10, radius=1.0)
    assert res.certified and res.count == len(res.records) == 103
    assert _proved_sign_changes(chaotic, res.records, 10)
    res = find_periodic(chaotic, 20, radius=1.0)
    wide = [r for r in res.records if r.halfwidth > 1e-12]
    assert res.certified and res.count == 11_647 and wide
    assert _proved_sign_changes(chaotic, wide, 20)


# -- orbit tubes -------------------------------------------------------------------


def _exact_orbit(f, x: float, n: int):
    """f^n(x) and (f^n)'(x) in 200-bit arithmetic, for the map's own
    polynomial (its float coefficients taken exactly)."""
    with mpmath.workprec(200):
        y, lam = mpmath.mpf(x), mpmath.mpf(1)
        for _ in range(n):
            value = deriv = mpmath.mpf(0)
            for c in getattr(f, "_fold", f)._poly:  # highest degree first; a bare map is its own fold
                deriv = deriv * y + value
                value = value * y + c
            lam *= deriv
            y = value
        return y, lam


def _tube_map(family: str, seed: int):
    """(map, radius) for one family of the tube property test."""
    if family == "contraction":
        return random_contraction(np.random.default_rng(seed)), 1.0
    eps = sample(BrickSpec.factorial(0.01, 8), 1, (seed, 0))
    if family == "quadratic":
        return PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps), None
    return PerturbedMap(PolynomialMap.univariate(CHAOTIC), eps), 1.0


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["quadratic", "chaotic", "contraction"]),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 32),
    depth=st.integers(0, 40),
    where=st.floats(0.0, 1.0),
    ts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
def test_tube_encloses_orbits_and_multipliers(family, seed, n, depth, where, ts):
    """Against exact orbits, for every x in the cell [m - h, m + h]:
    |f^n(x) - y_n| <= r_n, |g(x) - g| <= spread and |(f^n)'(x) - lam| <= dev
    for the padded bounds the census reads; and g at m from its zero-width
    tube lies within that orbit's own bound, and (f^n)'(m) within its dev,
    on both kernels."""
    f, radius = _tube_map(family, seed)
    R = _resolve_radius(f, radius)
    dom = _domain(f, R)
    h = R * 2.0**-depth
    m = -R + h + where * (2.0 * R - 2.0 * h)
    tube = _tube_many(f, np.array([m]), np.array([h]), n, dom)
    y, r = float(tube[0][0]), float(tube[1][0])
    c = _cells(np.array([m]), np.array([h]), n, dom, tube)
    for t in [-1.0, 0.0, 1.0] + ts:
        x = min(max(m + t * h, -R), R)
        fx, dfx = _exact_orbit(f, x, n)
        assert abs(fx - y) <= r
        assert abs(fx - x - c.g[0]) <= c.spread[0]
        assert abs(dfx - c.lam[0]) <= c.dev[0]
    fm, dfm = _exact_orbit(f, m, n)
    ((g, bound, lam, dev),) = _tubes_at(f, dom, [m], None, n)
    assert abs(fm - m - g) <= bound and abs(dfm - lam) <= dev
    y, r, _, _ = _tube_many(f, np.array([m]), np.zeros(1), n, dom)
    assert abs(fm - m - (y[0] - m)) <= r[0] + dom.pad


# -- almost-periodic covers ------------------------------------------------------


def test_almost_periodic_cover_half_map():
    cover = find_almost_periodic(half(), 1, 0.1)
    # the true level set of |x/2 - x| <= 0.1 is [-0.2, 0.2]
    assert cover.fully_refined
    xs = np.linspace(-0.2, 0.2, 101)
    for x in xs:
        assert any(lo <= x <= hi for lo, hi in cover.intervals)
    assert cover.total_length >= 0.4
    lo = min(l for l, h in cover.intervals)
    hi = max(h for l, h in cover.intervals)
    assert lo >= -0.36 and hi <= 0.36


def test_almost_periodic_nesting():
    small = find_almost_periodic(half(), 1, 0.05, resolution=0.01)
    big = find_almost_periodic(half(), 1, 0.1, resolution=0.01)
    for lo, hi in small.intervals:
        assert any(LO <= lo and hi <= HI for LO, HI in big.intervals)


def test_almost_periodic_shrinks_to_census():
    cover = find_almost_periodic(half(), 1, 1e-6, resolution=1e-4)
    assert any(lo <= 0.0 <= hi for lo, hi in cover.intervals)
    assert cover.total_length < 0.01


def test_almost_periodic_cover_resolves_chaotic_period_10():
    """Cells stop refining once their tube spread is below slack / 4, so the
    cover of 0.95 - 1.8x^2 at n = 10 resolves within the default budget, one
    interval around each of its 103 periodic points."""
    f = PolynomialMap.univariate(CHAOTIC)
    cover = find_almost_periodic(f, 10, 1e-6, radius=1.0)
    assert cover.fully_refined
    census = find_periodic(f, 10, radius=1.0)
    assert len(cover.intervals) == census.count == 103
    for rec, (lo, hi) in zip(census.records, cover.intervals):
        assert lo <= rec.location <= hi
        assert hi - lo < 1e-5


def test_almost_periodic_validation():
    with pytest.raises(InvalidInputError):
        find_almost_periodic(half(), 1, -0.1)
    with pytest.raises(InvalidInputError):
        find_almost_periodic(half(), 1, math.inf)


# -- the stage-wise hypothesis check ----------------------------------------------


def test_ih_holds_for_half_map():
    report = ih_check(half(), GrowthParams(C=1.0, delta=0.5), 4)
    assert report.status == "holds"
    assert len(report.rows) == 4
    for k, row in enumerate(report.rows, start=1):
        assert row.period == k
        assert row.status == "holds"
        assert row.threshold == pytest.approx(math.exp(-float(k) ** 1.5))
        assert row.witness is None
        assert row.unresolved == ()
    assert report.witness is None


def test_ih_vacuous():
    report = ih_check(half(), GrowthParams(C=1.0, delta=1.0), 0)
    assert report.status == "holds"
    assert report.rows == ()


def test_parabolic_plant_is_cubic():
    g = parabolic()
    for x in (-0.9, -0.3, 0.0, 0.4, 0.75, 1.0):
        assert g.evaluate(x) == pytest.approx(x - x**3, abs=1e-15)
        assert g.derivative(x) == pytest.approx(1.0 - 3.0 * x * x, abs=1e-14)


def test_ih_fails_on_parabolic_plant():
    report = ih_check(parabolic(), GrowthParams(C=1.0, delta=1.0), 3)
    assert report.status == "fails"
    row = report.rows[0]
    assert row.period == 1
    assert row.status == "fails"
    w = row.witness
    assert w is not None
    assert w.kind == "witness"
    # the witness is certifiably almost periodic with gap under the threshold
    assert abs(w.location**3) <= row.slack
    assert w.gap < row.threshold
    assert report.witness is w


def test_ih_witness_reads_its_midpoint_below_the_width_floor():
    """At C = 30 the threshold is 9.4e-14, below what any box wider than
    the floor 1e-9 R proves of all its points, so the witness midpoint is
    tested by its own zero-width tube: the fixed point 0 of x - x^3 is
    refuted, with a witness of |g| and gap under the threshold."""
    row = ih_check(parabolic(), GrowthParams(C=30.0, delta=0.0), 1, radius=0.5).rows[0]
    assert row.status == "fails" and row.threshold < 1e-13
    w = row.witness
    assert w.kind == "witness" and 0 < abs(w.location) <= w.halfwidth < 1e-6
    assert abs(w.location**3) <= row.slack and w.gap < row.threshold


def test_ih_budget_exhaustion_is_indeterminate():
    report = ih_check(
        half(), GrowthParams(C=1.0, delta=0.5), 1, max_evaluations_per_period=100
    )
    assert report.status == "indeterminate"
    row = report.rows[0]
    assert row.status == "indeterminate"
    assert row.unresolved
    total = sum(hi - lo for lo, hi in row.unresolved)
    assert total == pytest.approx(2.0 * report.radius, rel=1e-12)


def test_ih_stage_keeps_the_witness_orbit_within_its_budget(monkeypatch):
    """A stage's tube rounds and the zero-width tubes of its witness
    candidates together compute at most max_evaluations_per_period orbits,
    and the witness's record is read from its candidate's tube, with no
    orbit of its own: on x - x^3 one round over the initial grid finds the
    witness, and a budget one orbit short of the two cannot pay for them.
    The orbits are counted on both kernels, the candidates' on whichever
    _points takes."""
    orbits = []
    tube, tubes_at = census._tube_many, census._tubes_at

    def counted_tube(f, mids, *args):
        orbits.append(np.size(mids))
        return tube(f, mids, *args)

    def counted_points(S, pm, xs, *args):
        orbits.append(len(xs))
        return tubes_at(S, pm, xs, *args)

    def status(budget):
        orbits.clear()
        report = ih_check(parabolic(), GrowthParams(C=1.0, delta=1.0), 1,
                          max_evaluations_per_period=budget)
        assert sum(orbits) <= budget
        return report.status

    monkeypatch.setattr(census, "_tube_many", counted_tube)
    monkeypatch.setattr(census, "_tubes_at", counted_points)
    assert status(400_000) == "fails"
    (cells, candidates), full = orbits, sum(orbits)  # no third orbit: the record's is the candidate's
    assert cells == census._GRID_CELLS and 0 < candidates < cells
    for budget in (0, cells - 1, cells, cells + 1, full - 1):
        assert status(budget) == "indeterminate"
    assert status(full) == "fails"


def test_ih_threshold_underflow_is_not_a_pass():
    """At C = 800 the threshold exp(-800) rounds to 0.0.  The fixed point 0
    of x - x^3 has gap exactly 0, below the exact threshold, so the stage
    must not hold: with no gap provably positive around 0 it is left
    indeterminate."""
    params = GrowthParams(C=800.0, delta=0.0)
    assert params.gamma_n(1) == 0.0
    report = ih_check(parabolic(), params, 1, radius=0.5)
    assert report.status == "indeterminate"
    (row,) = report.rows
    assert row.witness is None
    assert any(lo <= 0.0 <= hi for lo, hi in row.unresolved)


def test_ih_holds_through_stage_48_on_a9_bricks():
    """On the seeded (42, 0..2) bricks of the a9 experiment at a9-like
    C = 2.2, delta = 1, every stage through 48 holds.  Each box reads its
    own multiplier bound; a global one, 64 eps sup |f'|^k k, passes the gap
    of about 1 at the superattracting 2-cycle near stage 38, after which
    no box there could be proved hyperbolic."""
    params = GrowthParams(C=2.2, delta=1.0)
    for i in range(3):
        eps = sample(BrickSpec.factorial(0.01, 8), 1, (42, i))
        report = ih_check(PerturbedMap(PolynomialMap.univariate([-1.0, 0.0, 1.0]), eps), params, 48)
        assert [row.status for row in report.rows] == ["holds"] * 48, i


def test_ih_rejects_negative_n_max():
    with pytest.raises(InvalidInputError):
        ih_check(half(), GrowthParams(C=1.0, delta=1.0), -1)


# -- the implied growth constant ---------------------------------------------------


def test_prop11_half_map_closed_form():
    report = prop11_check(half(), 4)
    assert not report.inverse_unbounded
    assert report.m_value == pytest.approx(2.0, abs=1e-9)
    assert report.rho == 1.0
    for n, row in enumerate(report.rows, start=1):
        assert row.certified and row.applicable
        assert row.count == 1
        want = (1.0 - 2.0**-n) * report.m_value ** (-2 * n)
        assert row.c_impl == pytest.approx(want, rel=1e-6)
    assert report.c_impl_max == pytest.approx(report.rows[0].c_impl)
    assert report.all_certified


def test_prop11_quad_bounded():
    report = prop11_check(quad(), 6)
    assert report.inverse_unbounded  # f'(0) = 0, no global inverse bound
    assert report.m_value >= 2.0
    for row in report.rows:
        assert row.certified
        assert row.applicable
        assert 0.0 < row.c_impl < 1.0


def multiplier_minus_one_plant():
    """Cubic with the 2-cycle {0.5, -0.5} of multiplier exactly -1."""
    base = PolynomialMap.univariate([0.0, 0.5], domain_radius=0.8)
    anchor = PointTuple([0.5, -0.5])
    target = MultijetPoint(anchor, values=[-0.75, 0.75], derivs=[0.5, -1.5])
    solved = jet_solve(anchor, target)
    g = base
    nodes = anchor.cyclic_nodes()
    for k, u_k in enumerate(solved.u):
        if u_k != 0.0:
            g = g.with_term(RootProductPerturbation(float(u_k), tuple(nodes[:k])))
    return g


def test_prop11_flags_nonhyperbolic_cycle():
    g = multiplier_minus_one_plant()
    # sanity: the plant realizes the prescribed jet
    assert g.evaluate(0.5) == pytest.approx(-0.5, abs=1e-14)
    assert g.evaluate(-0.5) == pytest.approx(0.5, abs=1e-14)
    assert g.derivative(0.5) * g.derivative(-0.5) == pytest.approx(-1.0, abs=1e-13)

    report = prop11_check(g, 2)
    row1, row2 = report.rows
    assert row1.applicable and row1.certified
    assert row2.certified
    assert not row2.applicable  # the cycle sits on the unit circle
    assert row2.c_impl is None
    assert row2.gamma_n <= 1e-9
    assert row2.count >= 3
    # the nonhyperbolic rows are excluded from the running maximum
    assert report.c_impl_max == pytest.approx(row1.c_impl)


def test_prop11_rejects_bad_n():
    with pytest.raises(InvalidInputError):
        prop11_check(half(), 0)


# -- stacks of maps ------------------------------------------------------------------


def _stack_maps():
    """Fresh maps for one stack, with the radius each is censused on: a9
    samples (42, 0..2) at R = 1 and 1.0625, x^2 - 1 with an unfolded
    root-product term, 0.95 - 1.8x^2 (degree 2 among degree 8: padded
    Horner columns) and x^2 - 1 itself, a bare PolynomialMap."""
    base = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    maps = [PerturbedMap(base, sample(BrickSpec.factorial(0.01, 8), 1, (42, i))) for i in range(3)]
    maps += [base.with_term(RootProductPerturbation(0.02, (0.3, -0.6))), PolynomialMap.univariate(CHAOTIC),
             PolynomialMap.univariate([-1.0, 0.0, 1.0])]
    return maps, [1.0, 1.0625, 1.0625, 1.0625, 1.0, 1.0625]


def test_a_stack_census_equals_each_maps_own():
    """One stacked census per period, n = 1..8, gives each map the census
    that find_periodic gives a fresh copy of it: records, regions,
    evaluations and certified, bit for bit.  At 1,100 evaluations the
    budget binds for 0.95 - 1.8x^2 at n = 5..8 and for no other map, and
    at 1,000 no map pays for its first round."""
    for budget in (3_000_000, 1_100, 1_000):
        maps, radii = _stack_maps()
        S = census._Stack(maps, [_domain(f, r) for f, r in zip(maps, radii)])
        bound = []
        for n in range(1, 9):
            got = census._census(S, n, 1e-12, budget)
            fresh, _ = _stack_maps()
            want = [find_periodic(f, n, radius=r, max_evaluations=budget) for f, r in zip(fresh, radii)]
            assert got == want, (budget, n)
            assert [repr(a) for a in got] == [repr(b) for b in want]
            bound.append([not r.certified for r in got])
        if budget == 1_100:
            assert [b[4] for b in bound] == [False] * 4 + [True] * 4
            assert not any(b[i] for b in bound for i in (0, 1, 2, 3, 5))
        if budget == 1_000:
            assert all(all(b) for b in bound)


def test_a_stack_extends_grid_tubes_held_at_different_periods():
    """Three maps whose domains hold grid tubes at different periods (none,
    n = 1..3 and n = 1..6) census n = 5 as one stack: each result equals the
    map's own find_periodic on a fresh copy, each tube a domain held is
    still the same object, and each domain that lacked period 5 gains the
    tube a fresh map computes, bit for bit."""
    maps, radii = (v[:3] for v in _stack_maps())
    for f, R, top in zip(maps, radii, (0, 3, 6)):
        for n in range(1, top + 1):
            find_periodic(f, n, radius=R)
    doms = [_domain(f, R) for f, R in zip(maps, radii)]
    held = [dict(dom.tubes) for dom in doms]
    assert [sorted(tubes) for tubes in held] == [[], [1, 2, 3], list(range(1, 7))]
    got = census._census(census._Stack(maps, doms), 5, 1e-12, census._CENSUS_BUDGET)
    fresh, _ = _stack_maps()
    want = [find_periodic(f, 5, radius=R) for f, R in zip(fresh[:3], radii)]
    assert got == want and [repr(a) for a in got] == [repr(b) for b in want]
    for dom, before, f, R in zip(doms, held, fresh, radii):
        assert all(dom.tubes[k] is tube for k, tube in before.items())
        assert [_bits(a) for a in dom.tubes[5]] == [_bits(a) for a in _domain(f, R).tubes[5]]
    assert doms[2].tubes[5] is held[2][5]


def test_a_stack_ih_check_equals_each_maps_own():
    """One stacked ih_check stage per period, each map with its own
    threshold, gives each map the rows ih_check gives a fresh copy; a map
    stops at its first failing stage while the others go on."""
    maps, radii = _stack_maps()
    maps, radii = maps[:3] + maps[4:5], radii[:3] + radii[4:5]
    params = [GrowthParams(C=c, delta=1.0) for c in (2.2, 3.0, 1.5, 2.2)]
    S = census._Stack(maps, [_domain(f, r) for f, r in zip(maps, radii)])
    got = census._ih_stages(S, params, 6, 400_000)
    fresh, _ = _stack_maps()
    want = [ih_check(f, p, 6, radius=r) for f, p, r in zip(fresh[:3] + fresh[4:5], params, radii)]
    assert [tuple(rows) for rows in got] == [report.rows for report in want]
    assert [report.status for report in want] == ["holds", "holds", "fails", "holds"]
    assert [len(rows) for rows in got] == [6, 6, 1, 6]
    # from a later first stage each map gets the rest of its rows, also
    # where no map runs stages 2 and 3
    first = [4, 5, 1, 6]
    got = census._ih_stages(S, params, 6, 400_000, first)
    assert [tuple(rows) for rows in got] == [report.rows[i - 1 :] for report, i in zip(want, first)]


def test_an_ih_stage_reports_the_witness_candidates_its_budget_left_unchecked():
    """Stage 1 of x^2 - 1 at threshold 0.9 meets witness candidates (the
    fixed point's gap is 0.236) in its first round.  With a budget that
    pays that round's 1,024 orbits and no more, they are left unchecked:
    the stage reports so, and no witness; with the default budget it checks
    them and finds one."""
    f = PolynomialMap.univariate([-1.0, 0.0, 1.0])
    S = census._Stack([f], [_domain(f, 1.0625)])
    rows, unpaid = census._ih_one_period(S, 1, [0.9], [0.9], 1024)
    assert unpaid == [True] and rows[0].status == "indeterminate"
    rows, unpaid = census._ih_one_period(S, 1, [0.9], [0.9], census._IH_BUDGET)
    assert unpaid == [False] and rows[0].status == "fails"


def test_stacked_rows_evaluate_each_maps_own_floats():
    """The rows of a stack (_Rows), as 1-D rows of mixed maps and as blocks
    of one map each, take each map's own eval_many and deriv_many floats
    bit for bit, signed zeros, infinities and NaN included, and so does an
    orbit tube over them."""
    maps, radii = _stack_maps()
    doms = [_domain(f, r) for f, r in zip(maps, radii)]
    S = census._Stack(maps, doms)
    xs = np.array([0.0, -0.0, 0.3, -0.7, 1.0625, -1.0625, 2.5, np.inf, -np.inf, np.nan])
    with np.errstate(all="ignore"):
        mi = np.resize(np.arange(len(maps)), xs.size * len(maps))
        x = np.repeat(xs, len(maps))
        rows = S.rows(mi)
        blocks = S.rows(np.arange(len(maps))[:, None])
        x2 = np.tile(xs, (len(maps), 1))
        for method in ("eval_many", "deriv_many"):
            got, blocked = getattr(rows, method)(x), getattr(blocks, method)(x2)
            for k, f in enumerate(maps):
                assert _bits(got[mi == k]) == _bits(getattr(f, method)(x[mi == k]))
                assert _bits(blocked[k]) == _bits(getattr(f, method)(xs))
        h = np.resize([0.0, 1e-3], x.size)
        tube = _tube_many(rows, x, h, 5, rows)
        for k, (f, dom) in enumerate(zip(maps, doms)):
            alone = _tube_many(f, x[mi == k], h[mi == k], 5, dom)
            assert [_bits(t[mi == k]) for t in tube] == [_bits(a) for a in alone]


def _bits(a) -> bytes:
    """The bytes of a float array: equal floats, signed zeros and NaN
    payloads included."""
    return np.asarray(a, dtype=float).tobytes()


def test_held_runs_of_a_stack_are_each_maps_own():
    """_held_runs over the intervals of several maps, each with its own
    known roots (or none), gives each map the mask and rows it gets alone,
    on floats and on arrays: no run joins two maps, although their cells
    share ends and directions."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        K = int(rng.integers(1, 5))
        parts, knowns = [], []
        for k in range(K):
            edges = np.cumsum(rng.choice([0.125, 0.25], 9))
            keep = rng.random(8) < 0.8
            lo, hi, up = edges[:-1][keep], edges[1:][keep], rng.random(keep.sum()) < 0.7
            parts.append((lo, hi, up))
            size = int(rng.integers(0, 5)) if k else 3
            xs, hs = rng.uniform(edges[0], edges[-1], size), rng.choice([1e-3, 0.1], size)
            known = np.array([xs - hs, xs + hs, xs, hs, rng.integers(0, 4, size)])
            knowns.append(known[:, np.lexsort(known[1::-1])])
        order = rng.permutation(sum(p[0].size for p in parts))
        lo, hi, up = (np.concatenate([p[j] for p in parts])[order] for j in range(3))
        mi = np.repeat(np.arange(K), [p[0].size for p in parts])[order]
        stacked = _known_of(np.concatenate(knowns, axis=1), [k.shape[1] for k in knowns])
        for limit in (0, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(census, "_SCALAR_POINTS", limit)
                inside, rows = census._held_runs(lo, hi, up, mi, stacked)
                for k, known in enumerate(knowns):
                    mine = mi == k
                    alone = (np.zeros(mine.sum(), dtype=bool), []) if not known.shape[1] else \
                        _held(lo[mine], hi[mine], up[mine], known)
                    assert inside[mine].tolist() == alone[0].tolist()
                    assert [row[:5] for row in rows if row[5] == k] == alone[1]
