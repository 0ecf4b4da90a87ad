import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab import corpus, groebner, samuel
from slopelab.arith import INF, ExtendedRational, SlopelabError, echelon
from slopelab.groebner import (
    GroebnerBasis,
    buchberger,
    ideal_power,
    radical_member,
)
from slopelab.newton import MonomialValuation
from slopelab.poly import Polynomial, Ring
from slopelab.samuel import (
    CertificateRejected,
    LocalRingPresentation,
    NotALambdaSequence,
    NotApplicable,
    ValuationCertificate,
    kernel_lambda,
    kernel_lambda_at_prime,
    nu,
    nubar,
    samuel_slope,
    validate_lambda_sequence,
)


def cusp_ring(char=0):
    ring = Ring(("x", "y"), char=char)
    return ring, LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])


def test_nu_basic_values_on_the_cusp():
    ring, A = cusp_ring()
    assert nu(A, ring.parse("x")).value == ExtendedRational(1)
    assert nu(A, ring.parse("y")).value == ExtendedRational(1)
    # x^2 falls into m^3 through the relation x^2 = y^3
    v = nu(A, ring.parse("x^2"))
    assert v.value == ExtendedRational(3) and not v.at_least
    assert nu(A, ring.parse("x^2 - y^3")).value == INF
    assert nu(A, ring.parse("0")).value == INF
    assert nu(A, ring.one()).value == ExtendedRational(0)


def test_nu_matches_plain_adic_order_without_relations():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    for text, want in [("x", 1), ("x*y", 2), ("x^2 + y^5", 2), ("3", 0)]:
        assert nu(A, ring.parse(text)).value == ExtendedRational(want)


def test_nu_powers_of_x_on_the_cusp_follow_the_known_pattern():
    # nu(x^{2k}) = 3k and nu(x^{2k+1}) = 3k+1, worked out by replacing
    # x^2 with y^3 as often as possible
    ring, A = cusp_ring()
    x = ring.parse("x")
    for n, want in [(1, 1), (2, 3), (3, 4), (4, 6), (5, 7), (6, 9)]:
        assert nu(A, x ** n).value == ExtendedRational(want), n


def test_nubar_of_x_on_the_cusp_certificate_route():
    ring, A = cusp_ring()
    w = MonomialValuation.from_dict(ring, {"x": 3, "y": 2})
    cert = ValuationCertificate([(w, 2)])
    result = nubar(A, ring.parse("x"), certificate=cert)
    assert result.status == "exact"
    assert result.value == ExtendedRational(Fraction(3, 2))


def test_nubar_limit_route_reaches_the_same_value_from_below():
    ring, A = cusp_ring()
    result = nubar(A, ring.parse("x"), strategy="limit", max_n=6)
    assert result.status == "lower-bound"
    assert result.value == ExtendedRational(Fraction(3, 2))
    # the envelope never overshoots the limit
    for n, v in result.samples:
        assert v / n <= ExtendedRational(Fraction(3, 2))


@pytest.mark.parametrize("text, samples", [
    ("x^2", [(1, 3), (2, 6), (3, 6), (4, 6)]),
    ("x*y", [(1, 2), (2, 5), (3, 6), (4, 6)]),
])
def test_nubar_limit_builds_no_basis_above_the_cap(monkeypatch, text,
                                                   samples):
    exponents = []

    def recording_power(ideal, j):
        exponents.append(j)
        return ideal_power(ideal, j)

    monkeypatch.setattr(samuel, "ideal_power", recording_power)
    ring, A = cusp_ring()
    result = nubar(A, ring.parse(text), strategy="limit", max_n=4, cap=6)
    assert result.samples == [(n, ExtendedRational(v)) for n, v in samples]
    assert exponents and max(exponents) <= 6


def test_nubar_limit_tests_each_power_basis_once_per_sample(monkeypatch):
    tested = []
    contains = GroebnerBasis.contains

    def recording_contains(self, f):
        tested.append((self, f.canonical_string()))
        return contains(self, f)

    monkeypatch.setattr(GroebnerBasis, "contains", recording_contains)
    ring, A = cusp_ring()
    result = nubar(A, ring.parse("x"), strategy="limit", max_n=4)
    assert result.samples == [(1, ExtendedRational(1)),
                              (2, ExtendedRational(3)),
                              (3, ExtendedRational(4)),
                              (4, ExtendedRational(6))]
    # four zero tests and eight power-basis memberships; a floor that is
    # tested once as the overshoot guard is not tested again, and x in m^1
    # and x^2 in m^2 need no basis, having no term below degree j
    assert len(tested) == 12
    # the bases stay referenced in tested, so their ids are not reused
    assert len({(id(gb), f) for gb, f in tested}) == len(tested)


def test_repeated_nu_hashes_no_polynomial(monkeypatch):
    ring, A = cusp_ring()
    f = ring.parse("x*y")
    first = nu(A, f)
    hashes = []
    real_hash = Polynomial.__hash__

    def counting_hash(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(Polynomial, "__hash__", counting_hash)
    again = nu(A, f)
    assert again.value == first.value == ExtendedRational(2)
    assert hashes == []


def recorded_bases(monkeypatch):
    """Generator strings of every ideal samuel asks Buchberger for."""
    built = []

    def recording_buchberger(ideal):
        built.append(tuple(g.canonical_string() for g in ideal.generators))
        return buchberger(ideal)

    monkeypatch.setattr(samuel, "buchberger", recording_buchberger)
    return built


def test_a_presentation_builds_each_basis_once(monkeypatch):
    built = recorded_bases(monkeypatch)
    ring, A = cusp_ring()
    x = ring.parse("x")
    nu(A, x)
    nu(A, x * x)
    nubar(A, x, strategy="limit", max_n=4)
    samuel_slope(A, max_n=3)
    assert built.count(("-y^3 + x^2",)) == 1  # the relations J
    assert built.count(("x^2",)) == 1  # the initial ideal
    assert len(built) == len(set(built)), built


def test_frobenius_kernel_builds_one_basis(monkeypatch):
    built = recorded_bases(monkeypatch)
    ring = Ring(("x", "y", "z"), char=5)
    A = LocalRingPresentation(ring, [ring.parse("(x + 2*y)^2"),
                                     ring.parse("y*z^2")])
    report = kernel_lambda(A, method="frobenius")
    assert [g.canonical_string() for g in report.basis] == ["x + 2*y"]
    assert len(built) == 1


def test_certificate_route_answers_inf_for_zero_in_the_ring():
    cusp = corpus.local_ring_members()[0]
    result = nubar(cusp.presentation, cusp.ring.parse("x^2 - y^3"),
                   certificate=cusp.certificate)
    assert result.value == INF and result.status == "exact"


@pytest.mark.parametrize("call", [
    lambda A, f: nu(A, f, cap=0),
    lambda A, f: nubar(A, f, strategy="limit", max_n=0),
    lambda A, f: nubar(A, f, strategy="limit", max_n=-3),
    lambda A, f: nubar(A, f, strategy="limit", cap=0),
    lambda A, f: samuel_slope(A, max_n=0),
], ids=["nu-cap-0", "nubar-max_n-0", "nubar-max_n-neg", "nubar-cap-0",
        "slope-max_n-0"])
def test_caps_below_one_are_rejected(call):
    ring, A = cusp_ring()
    with pytest.raises(SlopelabError, match="must be a positive integer"):
        call(A, ring.parse("x"))


def test_certificate_rejected_when_claimed_ideal_value_is_wrong():
    ring, A = cusp_ring()
    w = MonomialValuation.from_dict(ring, {"x": 3, "y": 2})
    with pytest.raises(CertificateRejected):
        nubar(A, ring.parse("x"),
              certificate=ValuationCertificate([(w, 3)]))


def test_nubar_monomial_route_agrees_with_newton_polyhedron():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    from slopelab.groebner import IdealPresentation
    ideal = IdealPresentation(ring, [ring.parse("x^2"), ring.parse("y^3")])
    result = nubar(A, ring.parse("x*y"), ideal=ideal)
    assert result.status == "exact"
    assert result.value == ExtendedRational(Fraction(5, 6))


def test_nubar_detects_nilpotents_exactly():
    ring = Ring(("x", "y"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = nubar(A, ring.parse("x + y"), strategy="limit", max_n=4)
    assert result.status == "exact"
    assert result.value == INF


def f11_square_shift():
    # z^11 + y^22 = (z + y^2)^11 over F_11
    ring = Ring(("y", "z"), char=11)
    return ring, LocalRingPresentation(ring, [ring.parse("z^11 + y^22")])


def test_nubar_limit_finds_a_nilpotent_above_max_n_over_fp():
    ring, A = f11_square_shift()
    result = nubar(A, ring.parse("z + y^2"), strategy="limit", max_n=8)
    assert result.status == "exact" and result.value == INF
    assert result.certificate == "nilpotent-power"
    assert result.samples == [(n, ExtendedRational(n)) for n in range(1, 9)] \
        + [(11, INF)]


def test_nubar_limit_keeps_the_bound_of_a_non_nilpotent_over_fp():
    ring, A = f11_square_shift()
    result = nubar(A, ring.parse("z"), strategy="limit", max_n=8)
    assert result.status == "lower-bound"
    assert result.value == ExtendedRational(1)
    assert result.samples == [(n, ExtendedRational(n)) for n in range(1, 9)]


def test_slope_infinite_when_a_shift_dies_above_max_n():
    ring, A = f11_square_shift()
    result = samuel_slope(A, max_n=8)
    assert result.lower_bound == INF and result.exact
    assert [g.canonical_string() for g in result.witness] == ["y^2 + z"]


def test_nu_in_three_variables_reaches_the_default_cap():
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
    value = nu(A, ring.parse("z^30"))
    assert value.at_least and value.value == ExtendedRational(24)


def test_nu_builds_the_large_power_bases_under_the_budget(monkeypatch):
    # x^16 = y^24 in the ring, so nu(x^16) reaches the cap 24; x^16 has no
    # term below degree j for j <= 16, so the bases of m^j + J built are
    # those of j = 17..24 (the pair budget once broke from j = 18 on),
    # besides the basis of J for the zero test
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
    built, divisibility_tests = [], []
    real_buchberger, real_divides = samuel.buchberger, groebner._divides

    def recording_buchberger(ideal):
        built.append(ideal)
        return real_buchberger(ideal)

    def counting_divides(a, b):
        divisibility_tests.append(None)
        return real_divides(a, b)

    monkeypatch.setattr(samuel, "buchberger", recording_buchberger)
    monkeypatch.setattr(groebner, "_divides", counting_divides)
    value = nu(A, ring.parse("x^16"))
    assert value.at_least and value.value == ExtendedRational(24)
    assert len(built) == 9
    assert max(g.degree() for g in built[-1].generators) == 24
    # a work gate, not a timing: 2,943,390 tests when every division step
    # scanned the degree-j leading terms, about 150,000 without
    assert len(divisibility_tests) <= 500000


@st.composite
def fp_polynomials(draw):
    ring = Ring(("x", "y", "z"), draw(st.sampled_from([2, 3, 5])))
    f = ring.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = [draw(st.integers(0, 3)) for _ in ring.variables]
        f = f + ring.monomial(exps, draw(st.integers(-4, 4)))
    return f


@settings(max_examples=100, deadline=None)
@given(fp_polynomials(), st.integers(1, 2))
def test_frobenius_power_scales_the_exponents(f, e):
    q = f.ring.char ** e
    assert samuel._frobenius_power(f, q) == f ** q


def test_kernel_on_the_cusp_is_x_in_any_characteristic():
    for char in (0, 2):
        ring, A = cusp_ring(char)
        report = kernel_lambda(A)
        assert report.method in ("factorization", "monomial")
        assert [g.canonical_string() for g in report.basis] == ["x"]
        assert report.t == 1
        assert report.classification == "extremal"


def test_kernel_of_the_node_is_zero_away_from_char_two():
    for char in (0, 3):
        ring = Ring(("x", "y"), char=char)
        A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
        report = kernel_lambda(A)
        assert report.r == 0
        assert report.classification == "non-extremal"


def test_kernel_of_the_node_in_char_two_is_the_diagonal():
    ring = Ring(("x", "y"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    report = kernel_lambda(A)
    assert [g.canonical_string() for g in report.basis] == ["x + y"]
    assert report.classification == "extremal"


def test_enumeration_route_agrees_with_factorization_on_small_fields():
    for char, relation in [(3, "x^2 - y^2"), (2, "x^2 - y^3"),
                           (5, "x^2 - y^2")]:
        ring = Ring(("x", "y"), char=char)
        A = LocalRingPresentation(ring, [ring.parse(relation)])
        via_fact = kernel_lambda(A, method="factorization")
        via_enum = kernel_lambda(A, method="frobenius")
        assert via_fact.r == via_enum.r
        assert sorted(g.canonical_string() for g in via_fact.basis) \
            == sorted(g.canonical_string() for g in via_enum.basis)


def _enumerated_kernel(A):
    """Reference route: radical membership of every normalized F_p-line,
    then the echelon basis of the lines found."""
    ring = A.ring
    init = A.initial_ideal()

    def linear(row):
        ell = ring.zero()
        for name, c in zip(ring.variables, row):
            ell = ell + ring.var(name).scale(c)
        return ell

    found = []
    for vec in itertools.product(range(ring.char), repeat=len(ring.variables)):
        if next((v for v in vec if v), None) != 1:
            continue
        row = [ring.field.from_int(v) for v in vec]
        if radical_member(linear(row), init):
            found.append(row)
    return [linear(row).canonical_string() for row in echelon(found)]


@pytest.mark.parametrize("char, names, relations, basis", [
    # powers of linear forms
    (2, "xyz", ["x^2 + y^2", "x*z"], ["x + y"]),
    (3, "xyz", ["x^3 + y^3", "z^2"], ["x + y", "z"]),
    (5, "xyz", ["(x + 2*y)^2", "y*z^2"], ["x + 2*y"]),
    (7, "xy", ["(x + 3*y)^3", "x^2*y + 3*x*y^2"], ["x + 3*y"]),
    (3, "xyz", ["(x + y)^2", "(x + y)*z", "z^3"], ["x + y", "z"]),
    # non-extremal and empty kernels
    (7, "xyz", ["x^2 - y^2", "x*z"], []),
    (3, "xyz", ["x^2 + y*z", "x*y"], ["x"]),
    (2, "xyz", ["x^2 + x*y + y^2", "z^2"], ["z"]),
    (5, "xy", ["x^2 + y^2", "x*y"], ["x", "y"]),
    (2, "xyz", ["x^2 + x*y", "y^2 + y*z", "x*z"], ["x"]),
])
def test_frobenius_route_matches_line_enumeration(char, names, relations,
                                                  basis):
    ring = Ring(tuple(names), char=char)
    A = LocalRingPresentation(ring, [ring.parse(r) for r in relations])
    report = kernel_lambda(A, method="frobenius")
    got = [g.canonical_string() for g in report.basis]
    assert got == _enumerated_kernel(A) == basis
    assert report.method == "frobenius-Fp"


@st.composite
def homogeneous_ideals(draw):
    char = draw(st.sampled_from([2, 3]))
    names = draw(st.sampled_from(["xy", "xyz"]))
    ring = Ring(tuple(names), char=char)
    degree = draw(st.integers(2, 3)) if len(names) == 2 else 2
    monomials = [e for e in itertools.product(range(degree + 1),
                                              repeat=len(names))
                 if sum(e) == degree]
    forms = []
    for _ in range(draw(st.integers(2, 3))):
        coeffs = draw(st.lists(st.integers(0, char - 1),
                               min_size=len(monomials),
                               max_size=len(monomials)))
        form = ring.zero()
        for exps, c in zip(monomials, coeffs):
            form = form + ring.monomial(exps, c)
        forms.append(form)
    return LocalRingPresentation(ring, forms)


@settings(max_examples=25, deadline=None)
@given(homogeneous_ideals())
def test_frobenius_route_matches_line_enumeration_on_random_forms(A):
    report = kernel_lambda(A, method="frobenius")
    assert [g.canonical_string() for g in report.basis] \
        == _enumerated_kernel(A)


def test_frobenius_route_at_a_large_prime():
    # the squares template (x^2, y^2) under x -> x + y + z, y -> x + 2y + 5z
    ring = Ring(("x", "y", "z"), char=101)
    A = LocalRingPresentation(ring, [ring.parse("(x + y + z)^2"),
                                     ring.parse("(x + 2*y + 5*z)^2")])
    report = kernel_lambda(A)
    assert report.method == "frobenius-Fp"
    assert (report.r, report.t, report.classification) == (2, 2, "extremal")
    assert [g.canonical_string() for g in report.basis] \
        == ["x + 98*z", "y + 4*z"]


def test_kernel_bound_by_excess():
    cases = [
        (0, ("x", "y"), ["x^2 - y^3"]),
        (2, ("x", "y"), ["x^2 - y^2"]),
        (0, ("z", "u", "w"), ["z^2 - z*u"]),
        (0, ("x", "y"), []),
    ]
    for char, names, rels in cases:
        ring = Ring(names, char=char)
        A = LocalRingPresentation(ring, [ring.parse(r) for r in rels])
        report = kernel_lambda(A)
        assert 0 <= report.r <= report.t


def test_dimension_and_excess_of_fixtures():
    ring, A = cusp_ring()
    assert A.embedding_dimension() == 2
    assert A.dimension() == 1
    assert A.excess() == 1

    ring3 = Ring(("z", "u", "w"))
    B = LocalRingPresentation(ring3, [ring3.parse("z^2 - z*u")])
    assert B.dimension() == 2
    assert B.excess() == 1

    # a relation with a linear part drops the embedding dimension
    ring2 = Ring(("x", "y"))
    C = LocalRingPresentation(ring2, [ring2.parse("x + x^2 - y^3")])
    assert C.embedding_dimension() == 1


def test_dimension_refuses_a_presentation_its_initial_forms_miss():
    # k[x, y]/(x + y^2, x) = k[y]/(y^2): dimension 0 and excess 1, but the
    # initial forms x, x span only (x), which reads dimension 1
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [ring.parse("x + y^2"), ring.parse("x")])
    for call in (A.dimension, A.excess, lambda: kernel_lambda(A),
                 lambda: samuel_slope(A, max_n=4)):
        with pytest.raises(NotApplicable, match="principal or homogeneous"):
            call()
    # several homogeneous relations, or one of any shape, stay exact
    B = LocalRingPresentation(ring, [ring.parse("x^2"), ring.parse("x*y")])
    assert B.dimension() == 1
    C = LocalRingPresentation(ring, [ring.parse("x + y^2")])
    assert C.dimension() == 1


def test_slope_is_one_in_the_non_extremal_case():
    ring = Ring(("x", "y"), char=3)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = samuel_slope(A)
    assert result.classification == "non-extremal"
    assert result.lower_bound == ExtendedRational(1)
    assert result.exact


def test_slope_lower_bound_on_the_cusp():
    ring, A = cusp_ring(char=2)
    result = samuel_slope(A, max_n=6)
    assert result.classification == "extremal"
    assert result.lower_bound == ExtendedRational(Fraction(3, 2))
    assert not result.exact
    assert len(result.witness) == 1


def test_slope_infinite_when_a_kernel_element_dies():
    ring = Ring(("x", "y"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = samuel_slope(A, max_n=4)
    assert result.lower_bound == INF
    assert result.exact


def test_slope_not_applicable_for_a_regular_presentation():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    with pytest.raises(NotApplicable):
        samuel_slope(A)


@pytest.mark.parametrize("name", ["cusp-char0", "cusp-char2",
                                  "node-char2"])
def test_slope_search_shifts_lie_in_the_square_of_m(name):
    member = next(m for m in corpus.local_ring_members() if m.name == name)
    A = member.presentation
    shifts = samuel._translation_shifts(A, kernel_lambda(A))
    assert shifts and all(s.min_degree() >= 2 for s in shifts)


def test_user_candidate_sequences_are_validated():
    ring, A = cusp_ring(char=2)
    kernel = kernel_lambda(A)
    validate_lambda_sequence(A, kernel, [ring.parse("x + y^2")])
    with pytest.raises(NotALambdaSequence):
        validate_lambda_sequence(A, kernel, [ring.parse("y")])
    with pytest.raises(NotALambdaSequence):
        validate_lambda_sequence(A, kernel, [ring.parse("x + 1")])
    with pytest.raises(NotALambdaSequence):
        validate_lambda_sequence(A, kernel, [])


def test_user_candidates_feed_the_slope_search():
    ring, A = cusp_ring(char=2)
    result = samuel_slope(A, candidates=[[ring.parse("x + y^2")]],
                          max_n=6, search=False)
    assert result.lower_bound == ExtendedRational(Fraction(3, 2))


def test_kernel_at_a_coordinate_prime_whitney_shape():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        A = LocalRingPresentation(
            ring, [ring.parse("x^%d - y1^%d*y2" % (p, p))])
        report = kernel_lambda_at_prime(A, ("x", "y1"))
        assert report.method == "frobenius-form"
        assert report.r == 0
        assert report.t == 1
        assert report.classification == "non-extremal"


def test_kernel_at_a_coordinate_prime_detects_actual_powers():
    # x^2 - y1^2*y2^2 has initial form (x + y1*y2)^2 along (x, y1)
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y1^2*y2^2")])
    report = kernel_lambda_at_prime(A, ("x", "y1"))
    assert report.r == 1
    assert report.classification == "extremal"


def test_kernel_at_prime_rejects_points_off_the_hypersurface():
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y1^2*y2")])
    with pytest.raises(ValueError):
        kernel_lambda_at_prime(A, ("y1", "y2"))


def test_relations_must_vanish_at_the_origin():
    ring = Ring(("x", "y"))
    with pytest.raises(ValueError):
        LocalRingPresentation(ring, [ring.parse("x^2 + 1")])
