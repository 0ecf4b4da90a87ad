import signal
from fractions import Fraction

import pytest

from slopelab import elimpres
from slopelab.arith import INF, ExtendedRational, SlopelabError
from slopelab.elimpres import (
    BadDegree,
    CharDividesDegree,
    MultiplicityBelowDegree,
    NotMonic,
    PointSpec,
    PPresentation,
    ReesAlgebra,
    build_p_presentation,
    clean,
    cross_check_theorems,
    diff_saturate_once,
    elimination_generators,
    hord_report,
    sing_order,
    slope,
    tschirnhausen_ord,
)
from slopelab.poly import Ring, VariableSplit
from slopelab.samuel import LocalRingPresentation, NotApplicable, SlopeResult


def er(x):
    return ExtendedRational(Fraction(x))


def gens_as_strings(algebra):
    return sorted((f.canonical_string(), n) for f, n in algebra.generators)


def test_sing_order_examples():
    ring = Ring(("y",), char=2)
    G = ReesAlgebra(ring, [(ring.parse("y^2"), 1)])
    assert sing_order(G.generators, PointSpec.origin()) == er(2)

    for p in (2, 3, 5):
        ringp = Ring(("y1", "y2"), char=p)
        Gp = ReesAlgebra(ringp, [(ringp.parse("y1^%d" % p), p - 1)])
        assert sing_order(Gp.generators, PointSpec.prime(("y1",))) \
            == ExtendedRational(Fraction(p, p - 1))

    ring0 = Ring(("x", "y"))
    G0 = ReesAlgebra(ring0, [(ring0.parse("x^2"), 2), (ring0.parse("y^3"), 3)])
    assert sing_order(G0.generators, PointSpec.origin()) == er(1)


def test_saturation_on_the_cusp_algebra():
    ring = Ring(("z", "y"), char=2)
    G = ReesAlgebra(ring, [(ring.parse("z^2 - y^3"), 2)])
    sat = diff_saturate_once(G)
    assert gens_as_strings(sat) == [("y^2", 1), ("y^3 + z^2", 2)]


def test_saturation_on_the_whitney_algebra():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        f = ring.parse("x^%d - y1^%d*y2" % (p, p))
        sat = diff_saturate_once(ReesAlgebra(ring, [(f, p)]))
        strings = gens_as_strings(sat)
        assert len(strings) == 2
        assert ("y1^%d" % p, p - 1) in strings


def test_saturation_char_zero_adds_the_derivative():
    ring = Ring(("x",))
    sat = diff_saturate_once(ReesAlgebra(ring, [(ring.parse("x^2"), 2)]))
    assert gens_as_strings(sat) == [("x", 1), ("x^2", 2)]


def test_saturation_preserves_sing_order_at_corpus_points():
    cases = []
    ring = Ring(("z", "y"), char=2)
    cases.append((ReesAlgebra(ring, [(ring.parse("z^2 - y^3"), 2)]),
                  PointSpec.origin()))
    for p in (2, 3):
        ringp = Ring(("x", "y1", "y2"), char=p)
        G = ReesAlgebra(
            ringp, [(ringp.parse("x^%d - y1^%d*y2" % (p, p)), p)])
        cases.append((G, PointSpec.origin()))
        cases.append((G, PointSpec.prime(("x", "y1"))))
    for G, pt in cases:
        assert sing_order(diff_saturate_once(G).generators, pt) \
            == sing_order(G.generators, pt)


def test_build_p_presentation_collapses_degree_six():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^6"), split)
    assert pres.h.canonical_string() == "z^2"
    assert pres.ell == 1

    pres2 = build_p_presentation(ring.parse("z^6 + y^5"), split)
    assert pres2.h.canonical_string() == "z^2"


def test_build_p_presentation_idempotent_at_prime_power_degree():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y^3")
    pres = build_p_presentation(g, split)
    assert pres.h == g
    again = build_p_presentation(pres.h, split)
    assert again.h == g


def test_build_p_presentation_rejections():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    with pytest.raises(BadDegree):
        build_p_presentation(ring.parse("y^3"), split)
    with pytest.raises(BadDegree):
        build_p_presentation(ring.parse("z^3 + y"), split)
    with pytest.raises(NotMonic):
        build_p_presentation(ring.parse("y*z^2 + y^3"), split)
    ring = Ring(("z", "y"))
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    with pytest.raises(BadDegree, match="Tschirnhausen"):
        build_p_presentation(ring.parse("z^2 + y^3"), split)


def test_p_presentation_reads_the_fiber_and_p_from_the_split():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = PPresentation(split, ring.parse("z^4 + y*z^2 + y^5"))
    assert (pres.z, pres.q, pres.ell) == ("z", 4, 2)
    assert {j: c.canonical_string() for j, c in pres.coefficients.items()} \
        == {1: "0", 2: "y", 3: "0", 4: "y^5"}


@pytest.fixture
def no_hang():
    # a refusal must come at once: a p-adic loop on degree 0 never ends
    def interrupt(signum, frame):
        raise AssertionError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("names,char,fiber,text,error,match", [
    (("z1", "z2", "y"), 2, ("z1", "z2"), "z1^2 + y^3", SlopelabError,
     "exactly one fiber variable, not 2"),
    (("z", "y"), 0, ("z",), "z^2 + y^3", SlopelabError,
     "positive characteristic"),
    (("z", "y"), 2, ("z",), "y^3", BadDegree, "degree 0 is not"),
    (("z", "y"), 2, ("z",), "z^3 + y", BadDegree, "degree 3 is not"),
    (("z", "y"), 2, ("z",), "y*z^2 + y^3", NotMonic, "not monic"),
    (("z", "y"), 3, ("z",), "2*z^3 + y^4", NotMonic, "not monic"),
])
def test_p_presentation_refusals(no_hang, names, char, fiber, text, error,
                                 match):
    ring = Ring(names, char=char)
    base = tuple(v for v in names if v not in fiber)
    split = VariableSplit(ring, base=base, fiber=fiber)
    with pytest.raises(error, match=match):
        PPresentation(split, ring.parse(text))


def test_elimination_generators_on_the_cusp():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split)
    gens = elimination_generators(pres)
    assert [(f.canonical_string(), n) for f, n in gens] == [("y^2", 1)]
    assert slope(pres).approximate_elimination


def test_elimination_generators_on_whitney():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
        pres = build_p_presentation(
            ring.parse("x^%d - y1^%d*y2" % (p, p)), split)
        gens = elimination_generators(pres)
        assert len(gens) == 1
        f, n = gens[0]
        assert n == p - 1
        assert f.vars_used() == {ring.index("y1")}


def test_elimination_generators_empty_for_a_bare_power():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2"), split)
    assert elimination_generators(pres) == []


def test_slope_of_the_cusp_is_three_halves_case_b1():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split)
    report = slope(pres)
    assert report.value == er(Fraction(3, 2))
    assert report.case == "B1"
    assert report.elimination_order == er(2)


def test_slope_of_whitney_at_the_prime_is_one_case_b2():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
        pres = build_p_presentation(
            ring.parse("x^%d - y1^%d*y2" % (p, p)), split)
        report = slope(pres, PointSpec.prime(("x", "y1")))
        assert report.value == er(1)
        assert report.case == "B2"
        assert report.elimination_order == ExtendedRational(Fraction(p, p - 1))


def test_slope_degenerate_for_a_bare_power():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2"), split)
    report = slope(pres)
    assert report.value == INF
    assert report.degenerate


def test_slope_requires_the_point_to_be_singular():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y"), split)
    with pytest.raises(MultiplicityBelowDegree):
        slope(pres)


def test_slope_point_must_contain_the_fiber():
    ring = Ring(("x", "y1", "y2"), char=2)
    split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
    pres = build_p_presentation(ring.parse("x^2 - y1^2*y2"), split)
    with pytest.raises(NotApplicable):
        slope(pres, PointSpec.prime(("y1",)))


def test_clean_runs_one_b3_round_on_the_demo():
    ring = Ring(("z", "y1", "y2"), char=2)
    split = VariableSplit(ring, base=("y1", "y2"), fiber=("z",))
    pres = build_p_presentation(
        ring.parse("z^2 + y1^2*y2^2 + y1^5"), split)
    first = slope(pres)
    assert first.value == er(2)
    assert first.case == "B3"

    final = clean(pres)
    assert final.hord == er(Fraction(5, 2))
    assert final.case == "B1"
    assert final.elimination_order == er(4)
    assert [(name, s.canonical_string()) for name, s in final.transcript] \
        == [("z", "y1*y2")]
    assert final.value >= first.value  # cleaning never decreases the slope
    assert final.presentation.h.canonical_string() == "y1^5 + z^2"


def test_clean_reaches_the_degenerate_flag_on_frobenius_powers():
    for p in (2, 3):
        ring = Ring(("z", "y"), char=p)
        split = VariableSplit(ring, base=("y",), fiber=("z",))
        pres = build_p_presentation(
            ring.parse("z^%d + y^%d" % (p, p)), split)
        report = clean(pres)
        assert report.degenerate
        assert report.hord == INF
        assert len(report.transcript) == 1


def test_clean_is_a_no_op_on_the_cusp():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split)
    report = clean(pres)
    assert report.transcript == []
    assert report.hord == er(Fraction(3, 2))
    assert clean(pres).hord == er(Fraction(3, 2))


def test_clean_needs_at_least_one_round():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split)
    for rounds in (0, -1):
        with pytest.raises(SlopelabError, match="max_rounds"):
            clean(pres, max_rounds=rounds)
    assert clean(pres, max_rounds=1).hord == er(Fraction(3, 2))


def test_tschirnhausen_examples():
    ring = Ring(("z", "y"))
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    assert tschirnhausen_ord(ring.parse("z^2 - y^3"), split) \
        == er(Fraction(3, 2))
    assert tschirnhausen_ord(
        ring.parse("z^2 + 2*y*z + y^3 + y^2"), split) == er(Fraction(3, 2))
    assert tschirnhausen_ord(ring.parse("z^2 - y^2"), split) == er(1)


def test_tschirnhausen_rejects_bad_characteristic():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    with pytest.raises(CharDividesDegree):
        tschirnhausen_ord(ring.parse("z^2 - y^3"), split)


def test_hord_invariant_under_unit_rescaling_of_the_fiber():
    cases = [(3, "z^3 + y^4", (2,)), (5, "z^5 + y^7", (2, 3, 4))]
    for p, text, units in cases:
        ring = Ring(("z", "y"), char=p)
        split = VariableSplit(ring, base=("y",), fiber=("z",))
        base = clean(build_p_presentation(ring.parse(text), split))
        for u in units:
            # g(u*z) / u^n, monic again
            g = ring.parse(text.replace("z", "(%d*z)" % u))
            g = g.scale(ring.field.from_int(u) ** -g.degree_of_var("z"))
            other = clean(build_p_presentation(g, split))
            assert other.hord == base.hord
            assert other.case == base.case


def test_cross_check_cusp_char_two():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y^3")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, split)
    assert report.applicable and report.passed
    assert report.classification == "extremal"
    assert report.hord == er(Fraction(3, 2))
    assert report.ord_d == er(2)
    assert report.slope_value == er(Fraction(3, 2))
    assert report.slope_certified


def test_cross_check_cusp_char_zero():
    ring = Ring(("z", "y"))
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y^3")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, split)
    assert report.passed
    assert report.classification == "extremal"
    assert report.hord == er(Fraction(3, 2))


def test_cross_check_nodes_are_non_extremal_with_order_one():
    for char in (0, 3):
        ring = Ring(("x", "y"), char=char)
        split = VariableSplit(ring, base=("y",), fiber=("x",))
        g = ring.parse("x^2 - y^2")
        A = LocalRingPresentation(ring, [g])
        report = cross_check_theorems(A, split)
        assert report.passed
        assert report.classification == "non-extremal"
        assert report.hord == er(1)
        assert report.ord_d == er(1)


def test_cross_check_whitney_at_the_prime():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
        g = ring.parse("x^%d - y1^%d*y2" % (p, p))
        A = LocalRingPresentation(ring, [g])
        report = cross_check_theorems(A, split,
                                      at=PointSpec.prime(("x", "y1")))
        assert report.passed
        assert report.classification == "non-extremal"
        assert report.hord == er(1)
        assert report.ord_d == ExtendedRational(Fraction(p, p - 1))
        assert "non-closed" in report.note


def test_cross_check_diagonal_square_char_two():
    ring = Ring(("x", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("x",))
    g = ring.parse("x^2 - y^2")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, split)
    assert report.passed
    assert report.classification == "extremal"
    assert report.hord == INF
    assert report.slope_value == INF


def test_cross_check_plane_pair_in_three_variables():
    for char in (0, 2):
        ring = Ring(("z", "u", "w"), char=char)
        split = VariableSplit(ring, base=("u", "w"), fiber=("z",))
        g = ring.parse("z^2 - z*u")
        A = LocalRingPresentation(ring, [g])
        report = cross_check_theorems(A, split)
        assert report.passed
        assert report.classification == "non-extremal"
        assert report.hord == er(1)
        if char == 2:
            assert report.case == "A"


def f11_germ():
    ring = Ring(("z", "y"), char=11)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    return LocalRingPresentation(ring, [ring.parse("z^11 + y^13")]), split


def test_cross_check_slope_bound_below_hord_is_inconclusive():
    # max_n = 8 < p: the slope is only known to be >= 1, below hord
    A, split = f11_germ()
    report = cross_check_theorems(A, split)
    assert report.classification == "extremal"
    assert report.hord == er(Fraction(13, 11))
    assert report.ord_d == er(Fraction(6, 5))
    assert report.slope_value == er(1) and not report.slope_certified
    assert not report.passed and report.inconclusive
    assert report.verdict() == "inconclusive"


def test_cross_check_exact_slope_below_hord_fails(monkeypatch):
    # an exact slope below hord <= ord contradicts hord = min(slope, ord)
    A, split = f11_germ()

    def exact_slope(local_ring, max_n):
        return SlopeResult(er(1), True, (), "extremal")

    monkeypatch.setattr(elimpres, "samuel_slope", exact_slope)
    report = cross_check_theorems(A, split)
    assert not report.passed and not report.inconclusive
    assert report.verdict() == "FAIL"


def test_cross_check_needs_a_hypersurface():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    A = LocalRingPresentation(ring, [ring.parse("z^2"), ring.parse("y^3")])
    with pytest.raises(NotApplicable, match="2 relations"):
        cross_check_theorems(A, split)


def test_hord_report_picks_the_route_by_the_fiber_degree():
    ring = Ring(("z", "y"), char=3)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    # 3 divides 3: the p-presentation is cleaned
    cleaned = hord_report(ring.parse("z^3 + y^4"), split)
    assert cleaned.case == "B1" and cleaned.approximate_elimination
    assert cleaned.hord == er(Fraction(4, 3))
    # 3 does not divide 2: the Tschirnhausen value is elim order and hord
    shifted = hord_report(ring.parse("z^2 + 2*y*z + y^3 + y^2"), split)
    assert shifted.case == "tschirnhausen"
    assert not shifted.approximate_elimination
    assert shifted.value is None and shifted.transcript == []
    assert shifted.hord == shifted.elimination_order == er(Fraction(3, 2))


@pytest.mark.parametrize("char,text,case", [
    (2, "z^2", None),  # 2 divides 2: the p-presentation route
    (0, "z^3", "tschirnhausen"),
    (2, "z^3", "tschirnhausen"),
    (3, "z^2 + 2*y*z + y^2", "tschirnhausen"),  # (z + y)^2
])
def test_hord_report_flags_a_pure_power_on_both_routes(char, text, case):
    ring = Ring(("z", "y"), char=char)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    report = hord_report(ring.parse(text), split)
    assert report.degenerate and report.case == case
    assert report.hord == report.elimination_order == INF


def test_hord_report_needs_one_fiber_variable():
    ring = Ring(("z", "w", "y"), char=2)
    g = ring.parse("z^2 + y^3")
    for fiber in ((), ("z", "w")):
        base = tuple(v for v in ring.variables if v not in fiber)
        split = VariableSplit(ring, base=base, fiber=fiber)
        with pytest.raises(SlopelabError, match="one fiber variable"):
            hord_report(g, split)


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("text,multiplicity,degree", [
    ("z^2 + y", 1, 2), ("z^3 + y*z", 2, 3), ("z^6 + y^5", 5, 6)])
def test_hord_refuses_a_germ_below_its_fiber_degree(char, text,
                                                    multiplicity, degree):
    ring = Ring(("y", "z"), char=char)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    with pytest.raises(MultiplicityBelowDegree,
                       match="^multiplicity %d is below the fiber degree %d$"
                       % (multiplicity, degree)):
        hord_report(ring.parse(text), split)


@pytest.mark.parametrize("char,lead,text,hord", [
    (char, lead, text, hord) for char in (0, 2, 3, 5, 7)
    for lead, text, hord in ((3, "z^2 + y^3", Fraction(3, 2)),
                             (2, "z^5 + y^7", Fraction(7, 5)))
    if not char or lead % char > 1])
def test_a_scalar_lead_is_divided_out_on_both_routes(char, lead, text, hord):
    ring = Ring(("y", "z"), char=char)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    monic_g = ring.parse(text)
    g = monic_g.scale(ring.field.from_int(lead))
    scaled, monic_report = hord_report(g, split), hord_report(monic_g, split)
    assert (scaled.hord, scaled.case) == (monic_report.hord, monic_report.case)
    assert scaled.hord == er(hord)


def test_cross_check_skips_smooth_points():
    ring = Ring(("z", "y"))
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, split)
    assert not report.applicable
    assert report.passed


def test_rees_algebra_validation():
    ring = Ring(("x",))
    with pytest.raises(ValueError):
        ReesAlgebra(ring, [(ring.parse("0"), 1)])
    with pytest.raises(ValueError):
        ReesAlgebra(ring, [(ring.parse("x"), 0)])
