"""Acceptance gate: the eight headline facts this package promises.

One test per criterion, so `pytest -v` prints one pass/fail line each.
Every comparison is exact equality of rationals, strings or booleans;
there are no numeric tolerances anywhere in the package.
"""

from fractions import Fraction

from slopelab.arith import INF, ExtendedRational
from slopelab.corpus import (closure_equivalence_mismatches,
                             local_ring_members, monomial_members,
                             power_scaling_mismatches, rees_cusp_char2,
                             whitney_members)
from slopelab.elimpres import (ReesAlgebra, build_p_presentation, clean,
                               cross_check_theorems, diff_saturate_once,
                               slope)
from slopelab.samuel import kernel_lambda, nu, nubar


def member(name):
    for m in local_ring_members():
        if m.name == name:
            return m
    raise KeyError(name)


def test_criterion_1_cusp_adic_orders_are_exact():
    """nu of x is 1 and nu of x^2 is 3 in k[x,y] modulo x^2 - y^3."""
    cusp = member("cusp-char0")
    x = cusp.ring.var("x")
    first = nu(cusp.presentation, x)
    second = nu(cusp.presentation, x * x)
    assert first.exact and first.lower == ExtendedRational(1)
    assert second.exact and second.lower == ExtendedRational(3)


def test_criterion_2_cusp_asymptotic_order_certificate_and_envelope():
    """nubar of x is exactly 3/2 by certificate; the power-limit
    estimator reaches at least 3/2 - 1/10 by n = 20 and never exceeds
    3/2."""
    cusp = member("cusp-char0")
    x = cusp.ring.var("x")
    certified = nubar(cusp.presentation, x, certificate=cusp.certificate)
    assert certified.status == "exact"
    assert certified.lower == ExtendedRational("3/2")

    limit = nubar(cusp.presentation, x, strategy="limit", max_n=20)
    ratios = [value / n for n, value in limit.samples]
    assert len(ratios) == 20
    assert max(ratios) >= ExtendedRational(Fraction(3, 2) - Fraction(1, 10))
    assert all(r <= ExtendedRational("3/2") for r in ratios)
    assert limit.lower == ExtendedRational("3/2")


def test_criterion_3_cusp_rees_algebra_saturation_and_orders():
    """Differential saturation of the weight-2 cusp generator yields
    exactly y^2 in weight 1 and the cusp itself in weight 2; the
    elimination order at the origin is 2 and the final order is 3/2."""
    ring, g, split = rees_cusp_char2()
    saturated = diff_saturate_once(ReesAlgebra(ring, [(g, 2)]))
    got = [(f.canonical_string(), n) for f, n in saturated.generators]
    assert got == [("y^2", 1), ("y^3 + z^2", 2)]

    presentation = build_p_presentation(g, split)
    report = slope(presentation)
    assert report.elimination_order == ExtendedRational(2)
    cleaned = clean(presentation)
    assert cleaned.hord == ExtendedRational("3/2")


def test_criterion_4_umbrella_orders_at_the_prime():
    """For p in {2, 3, 5}, the germ x^p - y1^p y2 at the prime (x, y1)
    has order 1 and elimination order p/(p-1)."""
    members = {m.name: m for m in whitney_members()}
    for p in (2, 3, 5):
        m = members["whitney-p%d" % p]
        presentation = build_p_presentation(m.g, m.split)
        report = clean(presentation, at=m.point)
        assert report.hord == ExtendedRational(1), m.name
        assert report.elimination_order == \
            ExtendedRational(Fraction(p, p - 1)), m.name


def test_criterion_5_closure_membership_matches_asymptotic_order():
    """On six monomial ideals, every monomial f of degree at most 6 and
    every 1 <= a, b <= 6 agree: nubar(f) >= a/b exactly when f^b lies
    in the integral closure of the a-th power."""
    members = monomial_members()
    assert len(members) == 6
    for m in members:
        assert closure_equivalence_mismatches(m.ideal) == 0, m.name


def test_criterion_6_asymptotic_order_scales_with_powers():
    """nubar(f^r) = r nubar(f), and against ideal^r the value divides
    by r, for r up to 4 on the monomial corpus."""
    for m in monomial_members():
        assert power_scaling_mismatches(m.ideal, rmax=4) == 0, m.name


def test_criterion_7_kernel_dimension_bounded_by_excess():
    """The degree-one nilpotent space never exceeds the excess of
    embedding dimension, and the pair of lines flips classification
    with the characteristic: extremal in characteristic 2, non-extremal
    in characteristic 3."""
    members = local_ring_members()
    assert len(members) == 7
    reports = {}
    for m in members:
        report = kernel_lambda(m.presentation)
        assert 0 <= report.r <= report.t, m.name
        reports[m.name] = report
    assert reports["node-char2"].classification == "extremal"
    assert reports["node-char3"].classification == "non-extremal"
    assert reports["cusp-char0"].classification == "extremal"
    assert reports["cusp-char2"].classification == "extremal"
    assert reports["node-char0"].classification == "non-extremal"
    assert reports["plane-pair"].classification == "non-extremal"
    assert reports["regular-2vars"].r == 0


def test_criterion_8_theorem_cross_checks_hold_on_the_corpus():
    """Non-extremal members come out with order 1; extremal members
    satisfy hord = min(slope, elimination order); the cusp slope in
    characteristic 2 is certified exact at 3/2."""
    hypersurfaces = [m for m in local_ring_members() if m.g is not None]
    assert len(hypersurfaces) == 6
    results = {}
    for m in hypersurfaces + whitney_members():
        report = cross_check_theorems(m.presentation, m.split, at=m.point)
        assert report.applicable, m.name
        assert report.passed, m.name
        results[m.name] = report
        if report.classification == "non-extremal":
            assert report.hord == ExtendedRational(1), m.name
        else:
            assert min(report.slope_value, report.ord_d) \
                == report.hord, m.name

    cusp = results["cusp-char2"]
    assert cusp.classification == "extremal"
    assert cusp.slope_value == ExtendedRational("3/2")
    assert cusp.slope_certified
    assert cusp.hord == ExtendedRational("3/2")
    assert cusp.ord_d == ExtendedRational(2)

    pair = results["node-char2"]
    assert pair.hord == INF and pair.slope_value == INF

    for p in (2, 3, 5):
        umbrella = results["whitney-p%d" % p]
        assert umbrella.hord == ExtendedRational(1)
        assert umbrella.ord_d == ExtendedRational(Fraction(p, p - 1))
