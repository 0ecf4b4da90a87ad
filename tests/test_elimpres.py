from fractions import Fraction

import pytest

from slopelab.arith import INF, ExtendedRational, SlopelabError
from slopelab.elimpres import (
    BadDegree,
    CharDividesDegree,
    InconsistentInputs,
    NotMonic,
    PointNotSingular,
    PointSpec,
    PPresentation,
    Fiber,
    ReesAlgebra,
    build_p_presentation,
    clean,
    cross_check_theorems,
    diff_saturate_once,
    elimination_generators,
    sing_order,
    slope,
    tschirnhausen_ord,
)
from slopelab.poly import Ring, VariableSplit
from slopelab.samuel import LocalRingPresentation


def er(x):
    return ExtendedRational(Fraction(x))


def gens_as_strings(algebra):
    return sorted((f.canonical_string(), n) for f, n in algebra.generators)


def test_sing_order_examples():
    ring = Ring(("y",), char=2)
    G = ReesAlgebra(ring, [(ring.parse("y^2"), 1)])
    assert sing_order(G, PointSpec.origin()) == er(2)

    for p in (2, 3, 5):
        ringp = Ring(("y1", "y2"), char=p)
        Gp = ReesAlgebra(ringp, [(ringp.parse("y1^%d" % p), p - 1)])
        assert sing_order(Gp, PointSpec.prime(("y1",))) \
            == ExtendedRational(Fraction(p, p - 1))

    ring0 = Ring(("x", "y"))
    G0 = ReesAlgebra(ring0, [(ring0.parse("x^2"), 2), (ring0.parse("y^3"), 3)])
    assert sing_order(G0, PointSpec.origin()) == er(1)


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
        assert sing_order(diff_saturate_once(G), pt) == sing_order(G, pt)


def test_build_p_presentation_collapses_degree_six():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^6"), split, 2)
    assert pres.fibers[0].h.canonical_string() == "z^2"
    assert pres.fibers[0].ell == 1

    pres2 = build_p_presentation(ring.parse("z^6 + y^5"), split, 2)
    assert pres2.fibers[0].h.canonical_string() == "z^2"


def test_build_p_presentation_idempotent_at_prime_power_degree():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y^3")
    pres = build_p_presentation(g, split, 2)
    assert pres.fibers[0].h == g
    again = build_p_presentation(pres.fibers[0].h, split, 2)
    assert again.fibers[0].h == g


def test_build_p_presentation_rejections():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    with pytest.raises(BadDegree):
        build_p_presentation(ring.parse("y^3"), split, 2)
    with pytest.raises(BadDegree):
        build_p_presentation(ring.parse("z^3 + y"), split, 2)
    with pytest.raises(NotMonic):
        build_p_presentation(ring.parse("y*z^2 + y^3"), split, 2)


def test_elimination_generators_on_the_cusp():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split, 2)
    gens = elimination_generators(pres)
    assert [(f.canonical_string(), n) for f, n in gens] == [("y^2", 1)]
    assert pres.approximate_elimination


def test_elimination_generators_on_whitney():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
        pres = build_p_presentation(
            ring.parse("x^%d - y1^%d*y2" % (p, p)), split, p)
        gens = elimination_generators(pres)
        assert len(gens) == 1
        f, n = gens[0]
        assert n == p - 1
        assert f.vars_used() == {ring.index("y1")}


def test_elimination_generators_empty_for_a_bare_power():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2"), split, 2)
    assert elimination_generators(pres) == []


def test_elimination_override_channel():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split, 2)
    override = [(ring.parse("y"), 1)]
    pres2 = PPresentation(split, pres.fibers, 2,
                          elimination_override=override)
    assert not pres2.approximate_elimination
    assert elimination_generators(pres2) == override


def test_slope_of_the_cusp_is_three_halves_case_b1():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split, 2)
    report = slope(pres)
    assert report.value == er(Fraction(3, 2))
    assert report.case == "B1"
    assert report.elimination_order == er(2)


def test_slope_of_whitney_at_the_prime_is_one_case_b2():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
        pres = build_p_presentation(
            ring.parse("x^%d - y1^%d*y2" % (p, p)), split, p)
        report = slope(pres, PointSpec.prime(("x", "y1")))
        assert report.value == er(1)
        assert report.case == "B2"
        assert report.elimination_order == ExtendedRational(Fraction(p, p - 1))


def test_slope_degenerate_for_a_bare_power():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2"), split, 2)
    report = slope(pres)
    assert report.value == INF
    assert report.degenerate


def test_slope_requires_the_point_to_be_singular():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y"), split, 2)
    with pytest.raises(PointNotSingular):
        slope(pres)


def test_slope_point_must_contain_the_fiber():
    ring = Ring(("x", "y1", "y2"), char=2)
    split = VariableSplit(ring, base=("y1", "y2"), fiber=("x",))
    pres = build_p_presentation(ring.parse("x^2 - y1^2*y2"), split, 2)
    with pytest.raises(ValueError):
        slope(pres, PointSpec.prime(("y1",)))


def test_clean_runs_one_b3_round_on_the_demo():
    ring = Ring(("z", "y1", "y2"), char=2)
    split = VariableSplit(ring, base=("y1", "y2"), fiber=("z",))
    pres = build_p_presentation(
        ring.parse("z^2 + y1^2*y2^2 + y1^5"), split, 2)
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
    assert final.presentation.fibers[0].h.canonical_string() == "y1^5 + z^2"


def test_clean_reaches_the_degenerate_flag_on_frobenius_powers():
    for p in (2, 3):
        ring = Ring(("z", "y"), char=p)
        split = VariableSplit(ring, base=("y",), fiber=("z",))
        pres = build_p_presentation(
            ring.parse("z^%d + y^%d" % (p, p)), split, p)
        report = clean(pres)
        assert report.degenerate
        assert report.hord == INF
        assert len(report.transcript) == 1


def test_clean_is_a_no_op_on_the_cusp():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split, 2)
    report = clean(pres)
    assert report.transcript == []
    assert report.hord == er(Fraction(3, 2))
    assert clean(pres).hord == er(Fraction(3, 2))


def test_clean_needs_at_least_one_round():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    pres = build_p_presentation(ring.parse("z^2 - y^3"), split, 2)
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


def test_multi_fiber_slope():
    ring = Ring(("z1", "z2", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z1", "z2"))
    fibers = [
        Fiber(ring, split, "z1", ring.parse("z1^2 + y^3"), 2),
        Fiber(ring, split, "z2", ring.parse("z2^2 + y^5"), 2),
    ]
    pres = PPresentation(split, fibers, 2)
    report = slope(pres)
    assert report.value == er(Fraction(3, 2))
    assert report.case == "B1"
    assert report.elimination_order == er(2)


def test_hord_invariant_under_unit_rescaling_of_the_fiber():
    cases = [(3, "z^3 + y^4", (2,)), (5, "z^5 + y^7", (2, 3, 4))]
    for p, text, units in cases:
        ring = Ring(("z", "y"), char=p)
        split = VariableSplit(ring, base=("y",), fiber=("z",))
        base = clean(build_p_presentation(ring.parse(text), split, p))
        for u in units:
            # g(u*z) / u^n, monic again
            g = ring.parse(text.replace("z", "(%d*z)" % u))
            g = g.scale(ring.field.from_int(u) ** -g.degree_of_var("z"))
            other = clean(build_p_presentation(g, split, p))
            assert other.hord == base.hord
            assert other.case == base.case


def test_cross_check_cusp_char_two():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y^3")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, g, split)
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
    report = cross_check_theorems(A, g, split)
    assert report.passed
    assert report.classification == "extremal"
    assert report.hord == er(Fraction(3, 2))


def test_cross_check_nodes_are_non_extremal_with_order_one():
    for char in (0, 3):
        ring = Ring(("x", "y"), char=char)
        split = VariableSplit(ring, base=("y",), fiber=("x",))
        g = ring.parse("x^2 - y^2")
        A = LocalRingPresentation(ring, [g])
        report = cross_check_theorems(A, g, split)
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
        report = cross_check_theorems(A, g, split,
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
    report = cross_check_theorems(A, g, split)
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
        report = cross_check_theorems(A, g, split)
        assert report.passed
        assert report.classification == "non-extremal"
        assert report.hord == er(1)
        if char == 2:
            assert report.case == "A"


def test_cross_check_rejects_mismatched_inputs():
    ring = Ring(("z", "y"), char=2)
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    A = LocalRingPresentation(ring, [ring.parse("z^2 - y^3")])
    with pytest.raises(InconsistentInputs):
        cross_check_theorems(A, ring.parse("z^2 - y^5"), split)


def test_cross_check_skips_smooth_points():
    ring = Ring(("z", "y"))
    split = VariableSplit(ring, base=("y",), fiber=("z",))
    g = ring.parse("z^2 - y")
    A = LocalRingPresentation(ring, [g])
    report = cross_check_theorems(A, g, split)
    assert not report.applicable
    assert report.passed


def test_rees_algebra_validation():
    ring = Ring(("x",))
    with pytest.raises(ValueError):
        ReesAlgebra(ring, [(ring.parse("0"), 1)])
    with pytest.raises(ValueError):
        ReesAlgebra(ring, [(ring.parse("x"), 0)])
