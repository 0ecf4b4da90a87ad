import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slopelab import corpus, groebner, samuel
from slopelab.arith import (
    INF,
    ExtendedRational,
    SlopelabError,
    echelon,
)
from slopelab.groebner import (
    GroebnerBasis,
    IdealPresentation,
    buchberger,
    local_basis,
    radical_member,
)
from slopelab.poly import Polynomial, Ring
from slopelab.samuel import (
    CertificateRejected,
    LocalRingPresentation,
    NotALambdaSequence,
    NotApplicable,
    UnknownKernel,
    ValuationCertificate,
    kernel_lambda,
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
    assert nu(A, ring.parse("x")).lower == ExtendedRational(1)
    assert nu(A, ring.parse("y")).lower == ExtendedRational(1)
    # x^2 falls into m^3 through the relation x^2 = y^3
    v = nu(A, ring.parse("x^2"))
    assert v.lower == ExtendedRational(3) and v.exact
    assert nu(A, ring.parse("x^2 - y^3")).lower == INF
    assert nu(A, ring.parse("0")).lower == INF
    assert nu(A, ring.one()).lower == ExtendedRational(0)


def test_nu_matches_plain_adic_order_without_relations():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    for text, want in [("x", 1), ("x*y", 2), ("x^2 + y^5", 2), ("3", 0)]:
        assert nu(A, ring.parse(text)).lower == ExtendedRational(want)


def test_nu_powers_of_x_on_the_cusp_follow_the_known_pattern():
    # nu(x^{2k}) = 3k and nu(x^{2k+1}) = 3k+1, worked out by replacing
    # x^2 with y^3 as often as possible
    ring, A = cusp_ring()
    x = ring.parse("x")
    for n, want in [(1, 1), (2, 3), (3, 4), (4, 6), (5, 7), (6, 9)]:
        assert nu(A, x ** n).lower == ExtendedRational(want), n


def test_nubar_of_x_on_the_cusp_certificate_route():
    ring, A = cusp_ring()
    cert = ValuationCertificate(ring, [({"x": 3, "y": 2}, 2)])
    result = nubar(A, ring.parse("x"), certificate=cert)
    assert result.status == "exact"
    assert result.lower == ExtendedRational(Fraction(3, 2))


def test_nubar_limit_route_reaches_the_same_value_from_below():
    ring, A = cusp_ring()
    result = nubar(A, ring.parse("x"), strategy="limit", max_n=6)
    assert result.status == "lower-bound"
    assert result.lower == ExtendedRational(Fraction(3, 2))
    # the envelope never overshoots the limit
    for n, v in result.samples:
        assert v / n <= ExtendedRational(Fraction(3, 2))


def recorded_local_bases(monkeypatch):
    """Caps of the local bases samuel builds; it may build no basis of a
    power of an ideal plus J."""
    caps = []

    def recording_local_basis(ideal, cap):
        caps.append(cap)
        return local_basis(ideal, cap)

    def no_power(ideal, j):
        raise AssertionError("asked for a basis of an ideal^%d + J" % j)

    monkeypatch.setattr(samuel, "local_basis", recording_local_basis)
    monkeypatch.setattr(samuel, "ideal_power", no_power)
    return caps


@pytest.mark.parametrize("text, samples", [
    ("x^2", [(1, 3), (2, 6), (3, 6), (4, 6)]),
    ("x*y", [(1, 2), (2, 5), (3, 6), (4, 6)]),
])
def test_nubar_limit_builds_no_basis_above_the_cap(monkeypatch, text,
                                                   samples):
    caps = recorded_local_bases(monkeypatch)
    ring, A = cusp_ring()
    result = nubar(A, ring.parse(text), strategy="limit", max_n=4, cap=6)
    assert result.samples == [(n, ExtendedRational(v)) for n, v in samples]
    # one basis, of J + m^6, serves every sample
    assert caps == [6]


def recorded_zero_tests(monkeypatch):
    """Strings of the elements samuel tests for zero in the ring."""
    tested = []
    is_zero_element = LocalRingPresentation.is_zero_element

    def recording_is_zero_element(self, f):
        tested.append(f.canonical_string())
        return is_zero_element(self, f)

    monkeypatch.setattr(LocalRingPresentation, "is_zero_element",
                        recording_is_zero_element)
    return tested


def test_nubar_limit_tests_each_power_basis_once_per_sample(monkeypatch):
    divided = []
    normal_form = GroebnerBasis.normal_form

    def recording_normal_form(self, f):
        divided.append((self, f.canonical_string()))
        return normal_form(self, f)

    monkeypatch.setattr(GroebnerBasis, "normal_form", recording_normal_form)
    zero_tests = recorded_zero_tests(monkeypatch)
    ring, A = cusp_ring()
    result = nubar(A, ring.parse("x"), strategy="limit", max_n=4)
    assert result.samples == [(1, ExtendedRational(1)),
                              (2, ExtendedRational(3)),
                              (3, ExtendedRational(4)),
                              (4, ExtendedRational(6))]
    # each sample is one division of the last residue times x by the
    # local basis of J + m^24, and no power is tested for zero: x^2 leaves
    # y^3, and x * y^3 * x leaves y^6
    assert [f for _, f in divided] == ["x", "x^2", "x*y^3", "x^2*y^3"]
    assert {(gb._key, gb._cap) for gb, _ in divided} == {
        (groebner._local_key, 24)}
    assert zero_tests == []


def test_nubar_limit_tests_one_power_for_zero_when_it_dies(monkeypatch):
    zero_tests = recorded_zero_tests(monkeypatch)
    ring, A = f11_square_shift()
    f = ring.parse("z + y^2")
    # every residue up to f^10 is nonzero, which proves the power nonzero;
    # f^11 leaves nothing and is the one power tested
    result = nubar(A, f, strategy="limit", max_n=12)
    assert zero_tests == [(f ** 11).canonical_string()]
    assert result.status == "exact" and result.lower == INF
    assert result.samples == [(n, ExtendedRational(n)) for n in range(1, 11)] \
        + [(11, INF)]


def test_nubar_limit_carries_the_zero_test_past_the_cap(monkeypatch):
    # x^2 - y^3 + x*y^2 equals x*y^2 in the ring, so its residue modulo
    # J + m^72 vanishes from n = 21 on; each later zero test is one
    # product by f of a normal form modulo J, not a fresh power f^n
    products = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    ring, A = cusp_ring()
    result = nubar(A, ring.parse("x^2 - y^3 + x*y^2"), strategy="limit",
                   cap=72, max_n=60)
    assert (result.lower, result.status) == (
        ExtendedRational(Fraction(7, 2)), "lower-bound")
    assert result.capped == tuple(range(21, 61))
    assert len(products) < 2 * 60
    # a power that dies above the cap: nu(x^n) in k[x, y]/(x^30) stays at
    # the cap 24 from n = 24 on, and the carried residue of x^30 is zero
    ring = Ring(("x", "y"))
    B = LocalRingPresentation(ring, [ring.parse("x^30")])
    dead = nubar(B, ring.parse("x"), max_n=30)
    assert (dead.lower, dead.status) == (INF, "exact")
    assert dead.capped == tuple(range(24, 30))
    assert dead.samples[-2:] == [(29, ExtendedRational(24)), (30, INF)]


def test_nubar_limit_flags_the_samples_at_the_cap():
    ring, A = cusp_ring()
    x = ring.parse("x")
    result = nubar(A, x, strategy="limit")
    # nu(x^n) reaches the default cap 24 from n = 16 on
    assert result.capped == (16, 17, 18, 19, 20)
    assert result.samples[15:] == [(n, ExtendedRational(24))
                                   for n in range(16, 21)]
    deeper = nubar(A, x, strategy="limit", cap=40)
    assert deeper.capped == ()
    assert deeper.samples[15:] == [(n, ExtendedRational(v)) for n, v in
                                   zip(range(16, 21), (24, 25, 27, 28, 30))]
    assert result.lower == deeper.lower == ExtendedRational(Fraction(3, 2))


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
    assert again.lower == first.lower == ExtendedRational(2)
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
    nu(A, ring.parse("x^2 - y^3"))  # zero in the ring: tested against J
    nubar(A, x, strategy="limit", max_n=4)
    samuel_slope(A, max_n=3)
    assert built.count(("-y^3 + x^2",)) == 1  # the relations J
    assert built.count(("x^2",)) == 1  # the initial ideal
    assert len(built) == len(set(built)), built


def test_nu_of_a_nonzero_element_builds_no_basis_of_j(monkeypatch):
    built = recorded_bases(monkeypatch)
    zero_tests = recorded_zero_tests(monkeypatch)
    ring, A = cusp_ring()
    # the local residue of x^2 is y^3, which proves x^2 nonzero
    assert nu(A, ring.parse("x^2")).lower == ExtendedRational(3)
    assert built == [] and zero_tests == []


def test_certificate_route_on_a_nonzero_element_tests_nothing_for_zero(
        monkeypatch):
    zero_tests = recorded_zero_tests(monkeypatch)
    cusp = corpus.local_ring_members()[0]
    result = nubar(cusp.presentation, cusp.ring.parse("x"),
                   certificate=cusp.certificate)
    assert result.lower == ExtendedRational(Fraction(3, 2))
    assert zero_tests == []


def test_frobenius_kernel_builds_one_basis(monkeypatch):
    built = recorded_bases(monkeypatch)
    ring = Ring(("x", "y", "z"), char=5)
    A = LocalRingPresentation(ring, [ring.parse("(x + 2*y)^2"),
                                     ring.parse("y*z^2")])
    report = kernel_lambda(A)
    assert report.method == "frobenius-Fp"
    assert [g.canonical_string() for g in report.basis] == ["x + 2*y"]
    assert len(built) == 1


def test_certificate_route_answers_inf_for_zero_in_the_ring():
    cusp = corpus.local_ring_members()[0]
    result = nubar(cusp.presentation, cusp.ring.parse("x^2 - y^3"),
                   certificate=cusp.certificate)
    assert result.lower == INF and result.status == "exact"


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


def test_certificate_value_below_the_order_is_rejected():
    # x^2 - y^3 + y^4 is y^4 in the ring: nu = 4, but the weight (3, 2)
    # reads 6/2 = 3 off the representative, so nubar >= nu rejects it
    cusp = corpus.local_ring_members()[0]
    f = cusp.ring.parse("x^2 - y^3 + y^4")
    assert nu(cusp.presentation, f).lower == ExtendedRational(4)
    with pytest.raises(CertificateRejected, match="below the order 4"):
        nubar(cusp.presentation, f, certificate=cusp.certificate)


def test_certificate_rejected_when_claimed_ideal_value_is_wrong():
    ring, A = cusp_ring()
    with pytest.raises(CertificateRejected):
        nubar(A, ring.parse("x"),
              certificate=ValuationCertificate(ring, [({"x": 3, "y": 2}, 3)]))


def test_negative_claimed_ideal_value_is_rejected():
    ring, _ = cusp_ring()
    # a claim must be positive and finite when the certificate is built,
    # whether it comes as an int or as an ExtendedRational
    for claimed in (-1, 0, ExtendedRational(0), INF, "inf",
                    Fraction(-1, 2)):
        with pytest.raises(CertificateRejected, match="not positive"):
            ValuationCertificate(ring, [({"x": 3, "y": 2}, claimed)])


def test_a_certificate_reads_one_weight_per_variable():
    R = Ring(("x", "y"), 0)
    cert = ValuationCertificate(R, [({"x": 3, "y": 2}, 1)])
    assert cert.entries == [((3, 2), 1)]
    assert cert.evaluate(R.parse("x")) == ExtendedRational(3)
    assert cert.evaluate(R.parse("x^2 - y^3")) == ExtendedRational(6)
    assert cert.evaluate(R.zero()) == INF
    # the weight is an order function: v(fg) = v(f) + v(g) on samples
    f, g = R.parse("x + y^2"), R.parse("x*y - y^4")
    assert cert.evaluate(f * g) == cert.evaluate(f) + cert.evaluate(g)
    # v(x, y) = 2: a claim of 2 validates, 1 does not
    m = IdealPresentation(R, [R.parse("x"), R.parse("y")])
    ValuationCertificate(R, [({"x": 3, "y": 2}, 2)]).validate(m)
    with pytest.raises(CertificateRejected, match="takes value 2"):
        cert.validate(m)
    # a missing name weighs 0, and text or a Fraction is an exact weight
    assert ValuationCertificate(R, [({"x": 1}, 1)]).entries == [((1, 0), 1)]
    cert = ValuationCertificate(R, [({"x": "3/2", "y": Fraction(1, 2)}, 1)])
    assert cert.entries == [((Fraction(3, 2), Fraction(1, 2)), 1)]
    for table, message in (({"x": -1, "y": 2}, "weights must be nonnegative"),
                           ({"x": 0, "y": 0}, "zero weight vector"),
                           ({}, "zero weight vector"),
                           ({"z": 1}, "no variable 'z' in")):
        with pytest.raises(SlopelabError, match=message):
            ValuationCertificate(R, [(table, 1)])
    # a bool is no weight, and a float is not exact, even 3.0
    for bad in (True, 2.5, 3.0, "2.0", "1/0", None):
        with pytest.raises(ValueError):
            ValuationCertificate(R, [({"x": bad, "y": 1}, 1)])


def test_nubar_monomial_route_agrees_with_newton_polyhedron():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    from slopelab.groebner import IdealPresentation
    ideal = IdealPresentation(ring, [ring.parse("x^2"), ring.parse("y^3")])
    result = nubar(A, ring.parse("x*y"), ideal=ideal)
    assert result.status == "exact"
    assert result.lower == ExtendedRational(Fraction(5, 6))


def test_nubar_detects_nilpotents_exactly():
    ring = Ring(("x", "y"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = nubar(A, ring.parse("x + y"), strategy="limit", max_n=4)
    assert result.status == "exact"
    assert result.lower == INF


def f11_square_shift():
    # z^11 + y^22 = (z + y^2)^11 over F_11
    ring = Ring(("y", "z"), char=11)
    return ring, LocalRingPresentation(ring, [ring.parse("z^11 + y^22")])


def test_nubar_limit_finds_a_nilpotent_above_max_n_over_fp():
    ring, A = f11_square_shift()
    result = nubar(A, ring.parse("z + y^2"), strategy="limit", max_n=8)
    assert result.status == "exact" and result.lower == INF
    assert result.route == "nilpotent-power"
    assert result.samples == [(n, ExtendedRational(n)) for n in range(1, 9)] \
        + [(11, INF)]


def test_nubar_limit_keeps_the_bound_of_a_non_nilpotent_over_fp():
    ring, A = f11_square_shift()
    result = nubar(A, ring.parse("z"), strategy="limit", max_n=8)
    assert result.status == "lower-bound"
    assert result.lower == ExtendedRational(1)
    assert result.samples == [(n, ExtendedRational(n)) for n in range(1, 9)]


def test_slope_infinite_when_a_shift_dies_above_max_n():
    ring, A = f11_square_shift()
    result = samuel_slope(A, max_n=8)
    assert result.lower == INF and result.exact
    assert [g.canonical_string() for g in result.witness] == ["y^2 + z"]


def test_nu_in_three_variables_reaches_the_default_cap():
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
    value = nu(A, ring.parse("z^30"))
    assert (value.lower, value.status) == (ExtendedRational(24), "lower-bound")
    assert value.capped == (1,)


def test_nu_of_a_deep_element_builds_one_local_basis(monkeypatch):
    # x^16 = y^24 in the ring, so nu(x^16) reaches the cap 24
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
    caps = recorded_local_bases(monkeypatch)
    built = recorded_bases(monkeypatch)
    divisibility_tests = []
    real_divides = groebner._divides

    def counting_divides(a, b):
        divisibility_tests.append(None)
        return real_divides(a, b)

    monkeypatch.setattr(groebner, "_divides", counting_divides)
    value = nu(A, ring.parse("x^16"))
    assert (value.lower, value.status) == (ExtendedRational(24), "lower-bound")
    assert caps == [24]
    assert built == [("-y^3 + x^2",)]  # J, for the zero test
    # a work gate, not a timing: 2,943,390 tests when nu built and scanned
    # the bases of m^j + J for j up to 24, 153,195 once their degree-j
    # leading terms were cut, 9 by one local division
    assert len(divisibility_tests) <= 1000


def whole_power_limit(A, f, ideal, max_n, cap):
    """The limit route on whole powers f^n, each tested for zero and read
    off by nu or by memberships in ideal^j + J: (samples, value, status,
    capped)."""
    best, samples, capped = ExtendedRational(0), [], []
    power = A.ring.one()
    for n in range(1, max_n + 1):
        power = power * f
        if A.is_zero_element(power):
            return samples + [(n, INF)], INF, "exact", tuple(capped)
        if ideal == A.maximal_ideal():
            sample = nu(A, power, cap)
            value, at_least = sample.lower, not sample.exact
        else:
            j = next((j for j in range(1, cap + 1)
                      if not A.power_basis(ideal, j).contains(power)),
                     cap + 1) - 1
            value, at_least = ExtendedRational(j), j == cap
        samples.append((n, value))
        if at_least:
            capped.append(n)
        best = max(best, value / n)
    p = A.ring.char
    if p:
        q = p
        while q <= max_n:
            q *= p
        if A.is_zero_element(f ** q):
            return samples + [(q, INF)], INF, "exact", tuple(capped)
    return samples, best, "lower-bound", tuple(capped)


def limit_ideal(ring, kind):
    """The maximal ideal, the m-primary monomial ideal that has x^2 in
    place of x, or the m-primary ideal that is not monomial, with x + y^2
    and y^3 in place of x and y."""
    gens = [ring.var(v) for v in ring.variables]
    if kind == "x^2":
        gens[0] = gens[0] * gens[0]
    if kind == "x + y^2":
        gens[:2] = [gens[0] + gens[1] ** 2, gens[1] ** 3]
    return IdealPresentation(ring, gens)


def limit_problem(char, names, relations, f, kind, max_n, cap):
    ring = Ring(names, char)
    A = LocalRingPresentation(ring, [ring.parse(g) for g in relations])
    ideal = A.maximal_ideal() if kind == "m" else limit_ideal(ring, kind)
    return A, ring.parse(f), ideal, max_n, cap


@st.composite
def limit_problems(draw):
    ring = Ring(draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                draw(st.sampled_from([0, 2, 3, 5])))
    exponents = st.lists(st.integers(0, 3), min_size=len(ring.variables),
                         max_size=len(ring.variables)).filter(
                             lambda e: 1 <= sum(e) <= 3)
    coefficients = st.integers(-4, 4).filter(
        lambda c: c % ring.char if ring.char else c)

    def element():
        # one to three terms of degree 1 to 3, so that it lies in m
        g = ring.zero()
        for _ in range(draw(st.integers(1, 3))):
            g = g + ring.monomial(draw(exponents), draw(coefficients))
        return g

    relations = [element() for _ in range(draw(st.integers(0, 2)))]
    A = LocalRingPresentation(ring, relations)
    kind = draw(st.sampled_from(["m", "x^2"]))
    ideal = A.maximal_ideal() if kind == "m" else limit_ideal(ring, kind)
    f = element()
    assume(not f.is_zero())
    return A, f, ideal, draw(st.integers(1, 6)), draw(st.integers(4, 14))


@settings(max_examples=120, deadline=None)
@given(limit_problems())
# (z + y^2)^3 = z^3 + y^6 over F_3: nilpotent at n = 3, and, with max_n
# below 3, at the Frobenius power 3; x^4 on the cusp reaches the cap 6
@example(limit_problem(3, ("y", "z"), ["z^3 + y^6"], "z + y^2", "m", 4, 8))
@example(limit_problem(3, ("y", "z"), ["z^3 + y^6"], "z + y^2", "x^2", 2, 8))
@example(limit_problem(0, ("x", "y"), ["x^2 - y^3"], "x", "m", 5, 6))
@example(limit_problem(0, ("x", "y"), ["x^2 - y^3"], "x", "x^2", 5, 6))
@example(limit_problem(0, ("x", "y"), ["x^2 - y^3"], "x", "x + y^2", 4, 6))
def test_carried_residues_sample_like_whole_powers(problem):
    A, f, ideal, max_n, cap = problem
    result = nubar(A, f, ideal=ideal, strategy="limit", max_n=max_n, cap=cap)
    samples, value, status, capped = whole_power_limit(A, f, ideal, max_n,
                                                       cap)
    assert result.samples == samples
    assert (result.lower, result.status) == (value, status)
    assert result.lower <= result.upper
    assert result.capped == capped


@st.composite
def free_problems(draw):
    """A relation-free ring over Q, F_2 or F_3, an f of zero to four terms
    of degree up to 3, constants included, and a cap."""
    ring = Ring(draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                draw(st.sampled_from([0, 2, 3])))
    f = ring.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = [draw(st.integers(0, 3)) for _ in ring.variables]
        f = f + ring.monomial(exps, draw(st.integers(-4, 4)))
    return LocalRingPresentation(ring, []), f, draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(free_problems())
def test_every_route_stays_below_the_newton_upper_bound(problem):
    # against m in a relation-free ring nubar takes the Newton route, whose
    # value is proven from both sides; nu and the limit route, capped or
    # not, prove lower bounds of the same invariant
    A, f, cap = problem
    newton = nubar(A, f)
    assert newton.route == "newton-polyhedron" and newton.exact
    results = [newton, nu(A, f, cap),
               nubar(A, f, strategy="limit", max_n=4, cap=cap)]
    for result in results:
        assert result.lower <= result.upper
        assert result.lower <= newton.upper


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_the_certificate_route_stays_above_the_limit_lower_bound():
    # x^2 - y^3 + x*y^2 is x*y^2 in the ring: the certificate weighs the
    # representative it is given, 3, while the limit route proves 7/2
    cusp = corpus.local_ring_members()[0]
    f = cusp.ring.parse("x^2 - y^3 + x*y^2")
    certified = nubar(cusp.presentation, f, certificate=cusp.certificate)
    limit = nubar(cusp.presentation, f, strategy="limit", max_n=30, cap=120)
    assert limit.lower <= certified.upper


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


def frobenius_route(A):
    """The kernel by the Frobenius route, whatever route kernel_lambda
    would pick for A, as basis strings."""
    rows = samuel._frobenius_kernel(A.initial_ideal(), A.initial_basis())
    return [samuel._row_to_linear(A.ring, row).canonical_string()
            for row in rows]


def test_enumeration_route_agrees_with_factorization_on_small_fields():
    for char, relation in [(3, "x^2 - y^2"), (2, "x^2 - y^3"),
                           (5, "x^2 - y^2")]:
        ring = Ring(("x", "y"), char=char)
        A = LocalRingPresentation(ring, [ring.parse(relation)])
        (form,) = A.initial_ideal().generators
        ell = samuel._power_of_linear_form(form)
        via_fact = [] if ell is None else [ell.canonical_string()]
        assert via_fact == frobenius_route(A)


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
    report = kernel_lambda(A)
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
    assert frobenius_route(A) == _enumerated_kernel(A)


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


@pytest.mark.parametrize("char, names, relations, kernel, basis, slope", [
    # a linear part of a relation is zero in m/m^2, so it spans no
    # kernel direction: a regular ring, and two rings that are k[y]/(y^2)
    # and the char-2 pair of lines with a redundant variable
    (2, "xy", ["x + y^3"], (0, 0, "extremal", "monomial"), [], None),
    (0, "xy", ["x", "y^2"], (1, 1, "extremal", "monomial"), ["y"], "inf"),
    (2, "xyz", ["x", "z^2 + y^2"], (1, 1, "extremal", "frobenius-Fp"),
     ["y + z"], "inf"),
    # the node with a redundant variable: the partial route finds only x,
    # which is zero in m/m^2, and cannot tell non-extremal from extremal
    (0, "xyz", ["x", "z^2 - y^2"], (0, 1, "unknown", "partial"), [], None),
    # a linear initial form, and one with no pure-power term: neither is
    # a power of a linear form of degree 2 or more
    (0, "xy", ["x + y + y^2"], (0, 0, "extremal", "factorization"), [],
     None),
    (0, "xyz", ["x*y + y*z"], (0, 1, "non-extremal", "factorization"), [],
     "1"),
    # relations whose initial forms are a regular sequence: the cusp with a
    # redundant variable, and two non-homogeneous pairs of dimension 1
    (0, "xyz", ["x", "z^2 - y^3"], (1, 1, "extremal", "monomial"), ["z"],
     None),
    (0, "xyz", ["x^2 - y^3 + z^4", "x*z - y^2 + z^3"],
     (2, 2, "extremal", "partial"), ["x", "y"], None),
    (2, ("z1", "z2", "y"), ["z1^2 + y^3", "z2^2 + y^5"],
     (2, 2, "extremal", "monomial"), ["z1", "z2"], None),
])
def test_kernel_lives_in_m_mod_m_squared(char, names, relations, kernel,
                                         basis, slope):
    ring = Ring(tuple(names), char=char)
    A = LocalRingPresentation(ring, [ring.parse(r) for r in relations])
    report = kernel_lambda(A)
    assert (report.r, report.t, report.classification, report.method) \
        == kernel
    assert [g.canonical_string() for g in report.basis] == basis
    if slope is not None:
        result = samuel_slope(A, max_n=4)
        assert (result.lower.serialize(), result.exact) == (slope, True)


@st.composite
def binary_forms(draw):
    """A characteristic and the coefficients of y^d, y^(d-1)*z, ..., z^d
    of a nonzero binary form of degree d from 2 to 4."""
    char = draw(st.sampled_from([0, 2, 3]))
    degree = draw(st.integers(2, 4))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=degree + 1,
                           max_size=degree + 1))
    assume(any(c % char if char else c for c in coeffs))
    return char, coeffs


@st.composite
def redundant_variables(draw):
    """A binary form from binary_forms, with terms in y and z of higher
    degree to add to it, and the terms of h, of order at least 2 in y and
    z, or none: x - h is the relation that makes x redundant. Each term is
    (exponent of y, exponent of z, coefficient)."""
    char, coeffs = draw(binary_forms())
    degree = len(coeffs) - 1

    def terms(low, high):
        term = st.integers(low, high).flatmap(lambda d: st.tuples(
            st.integers(0, d), st.integers(-2, 2)).map(
                lambda t: (d - t[0], t[0], t[1])))
        return st.lists(term, max_size=3)

    return char, coeffs, draw(terms(degree + 1, degree + 2)), \
        draw(terms(2, 3))


@settings(max_examples=150, deadline=None)
@given(redundant_variables())
def test_a_redundant_variable_leaves_the_kernel_alone(drawn):
    # k[y,z]/(g) and k[x,y,z]/(x - h, g) are the same ring
    char, coeffs, tail, h = drawn
    degree = len(coeffs) - 1
    plane, space = Ring(("y", "z"), char=char), Ring(("x", "y", "z"), char)

    def poly(ring, pad, terms):
        out = ring.zero()
        for a, b, c in terms:
            out = out + ring.monomial(pad + [a, b], c)
        return out

    def g(ring, pad):
        return poly(ring, pad, [(degree - i, i, c)
                                for i, c in enumerate(coeffs)] + tail)

    A = LocalRingPresentation(plane, [g(plane, [])])
    B = LocalRingPresentation(space, [space.var("x") - poly(space, [0], h),
                                      g(space, [0])])
    ka, kb = kernel_lambda(A), kernel_lambda(B)
    assert ka.r <= ka.t and kb.r <= kb.t
    if "unknown" in (ka.classification, kb.classification):
        return
    assert (ka.r, ka.t, ka.classification) == (kb.r, kb.t, kb.classification)
    # x = h lets the search of B shift by x times a monomial, which the
    # search of A has no counterpart for, so only x = 0 keeps the slopes
    if ka.classification == "extremal" and poly(space, [0], h).is_zero():
        sa, sb = samuel_slope(A, max_n=4), samuel_slope(B, max_n=4)
        assert (sa.lower, sa.upper) == (sb.lower, sb.upper)


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
        with pytest.raises(NotApplicable, match="regular sequence"):
            call()
    # several homogeneous relations, or one of any shape, stay exact
    B = LocalRingPresentation(ring, [ring.parse("x^2"), ring.parse("x*y")])
    assert B.dimension() == 1
    C = LocalRingPresentation(ring, [ring.parse("x + y^2")])
    assert C.dimension() == 1
    # and so do relations whose initial forms are a regular sequence
    for char, names, relations in [
            (0, ("x", "y", "z"), ["x", "z^2 - y^3"]),
            (0, ("x", "y", "z"), ["x^2 - y^3 + z^4", "x*z - y^2 + z^3"]),
            (2, ("z1", "z2", "y"), ["z1^2 + y^3", "z2^2 + y^5"])]:
        space = Ring(names, char=char)
        D = LocalRingPresentation(space, [space.parse(r) for r in relations])
        assert D.dimension() == 1


@st.composite
def presentations(draw):
    """A ring in x, y, z over Q, F_2 or F_3 and one to three relations,
    each with up to three terms of degree 1 to 3 and small coefficients."""
    ring = Ring(("x", "y", "z"), char=draw(st.sampled_from([0, 2, 3])))
    exponent = st.integers(1, 3).flatmap(lambda d: st.integers(0, d).flatmap(
        lambda a: st.integers(0, d - a).map(lambda b: (a, b, d - a - b))))
    term = st.tuples(exponent, st.integers(-2, 2))
    relations = draw(st.lists(st.lists(term, min_size=1, max_size=3),
                              min_size=1, max_size=3))
    return LocalRingPresentation(ring, [
        sum((ring.monomial(e, c) for e, c in terms), ring.zero())
        for terms in relations])


def standard_monomials(leads, degree, n):
    """How many monomials of the degree in n variables no lead divides."""
    return sum(1 for e in itertools.product(range(degree + 1), repeat=n)
               if sum(e) == degree and not any(
                   all(a <= b for a, b in zip(lead, e)) for lead in leads))


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_the_tangent_cone_has_the_hilbert_function_of_the_local_ring(A):
    # dim_k m^d/(m^(d+1) + J) is read twice: from the tangent cone, and
    # from the leading monomials of the standard basis of J + m^cap in the
    # local degree order, which is exact below the cap
    try:
        cone = A.initial_basis().leading_monomials()
    except NotApplicable:
        assume(False)
    cap = 7
    local = local_basis(A.relations, cap).leading_monomials()
    assert [standard_monomials(cone, d, 3) for d in range(cap)] \
        == [standard_monomials(local, d, 3) for d in range(cap)]


def test_a_redundant_variable_keeps_the_cusp_slope():
    space, plane = Ring(("x", "y", "z")), Ring(("y", "z"))
    A = LocalRingPresentation(space, [space.parse("x"),
                                      space.parse("z^2 - y^3")])
    B = LocalRingPresentation(plane, [plane.parse("z^2 - y^3")])
    sa, sb = samuel_slope(A, max_n=6), samuel_slope(B, max_n=6)
    assert (sa.lower, sa.upper, sa.status) == (sb.lower, sb.upper, sb.status) \
        == (ExtendedRational(Fraction(3, 2)), INF, "lower-bound")


def test_a_candidate_is_read_in_m_mod_m_squared():
    # on Q[x, y]/(x, y^2), x + y = y spans the kernel, and x = 0 does not
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [ring.parse("x"), ring.parse("y^2")])
    result = samuel_slope(A, candidates=[[ring.parse("x + y")]])
    assert (result.lower.serialize(), result.exact) == ("inf", True)
    with pytest.raises(NotALambdaSequence, match="do not span"):
        samuel_slope(A, candidates=[[ring.parse("x")]])


def test_slope_is_one_in_the_non_extremal_case():
    ring = Ring(("x", "y"), char=3)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = samuel_slope(A)
    assert result.classification == "non-extremal"
    assert result.lower == ExtendedRational(1)
    assert result.exact


def test_slope_lower_bound_on_the_cusp():
    ring, A = cusp_ring(char=2)
    result = samuel_slope(A, max_n=6)
    assert result.classification == "extremal"
    assert result.lower == ExtendedRational(Fraction(3, 2))
    assert not result.exact
    assert len(result.witness) == 1


def test_slope_infinite_when_a_kernel_element_dies():
    ring = Ring(("x", "y"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    result = samuel_slope(A, max_n=4)
    assert result.lower == INF
    assert result.exact
    # two kernel directions, x and y, each nilpotent: the slope is the
    # least of the two, inf
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2"), ring.parse("y^2")])
    result = samuel_slope(A, max_n=4)
    assert (result.lower, result.exact) == (INF, True)
    assert [w.canonical_string() for w in result.witness] == ["x", "y"]


def test_slope_refuses_a_kernel_the_partial_route_leaves_unknown():
    # two quadrics over Q: the initial ideal is neither monomial nor
    # principal, and the Frobenius route needs F_p, so the partial route
    # runs
    ring = Ring(("x", "y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y*z"),
                                     ring.parse("y^2 - x*z")])
    report = kernel_lambda(A)
    assert (report.classification, report.method, report.r, report.t) \
        == ("unknown", "partial", 0, 2)
    with pytest.raises(UnknownKernel, match="inconclusive"):
        samuel_slope(A, max_n=4)
    # the partial route finds what it can: x is in the radical of the
    # initial ideal (x^2 + yz, xy), y and z are not
    A = LocalRingPresentation(ring, [ring.parse("x^2 + y*z"),
                                     ring.parse("x*y")])
    report = kernel_lambda(A)
    assert (report.classification, report.method, report.r, report.t) \
        == ("unknown", "partial", 1, 2)
    assert [b.canonical_string() for b in report.basis] == ["x"]


def test_slope_not_applicable_for_a_regular_presentation():
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [])
    with pytest.raises(NotApplicable):
        samuel_slope(A)


def echelon_complement(presentation, kernel):
    """Complement variables chosen greedily by one echelon per variable."""
    ring = presentation.ring
    rows = echelon(samuel._linear_part_rows(kernel.basis, ring))
    complement = []
    for i, name in enumerate(ring.variables):
        unit = [ring.field.zero] * len(ring.variables)
        unit[i] = ring.field.one
        grown = echelon(rows + [unit])
        if len(grown) > len(rows):
            rows = grown
            complement.append(name)
    return complement


def test_complement_variables_match_one_echelon_per_variable():
    members = corpus.local_ring_members() + corpus.whitney_members()
    for member in members:
        A = member.presentation
        kernel = kernel_lambda(A)
        assert samuel._complement_variables(A, kernel) \
            == echelon_complement(A, kernel), member.name
    # seeded spans of linear forms, with dependent and repeated rows
    rng = random.Random(41)
    for char in (0, 2, 3, 5):
        for n in (2, 3, 4):
            ring = Ring(("x", "y", "z", "w")[:n], char=char)
            A = LocalRingPresentation(ring)
            for _ in range(6):
                basis = [sum((ring.var(v) * rng.randint(-2, 2)
                              for v in ring.variables), ring.zero())
                         for _ in range(rng.randint(0, n))]
                kernel = samuel.KernelReport(basis, 0, "partial")
                assert samuel._complement_variables(A, kernel) \
                    == echelon_complement(A, kernel), (ring, basis)


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
    # the search's shifts of z have degree at most 3, so it never tries
    # z + y^4, whose square is the relation up to y^9
    ring = Ring(("y", "z"))
    A = LocalRingPresentation(ring, [ring.parse("(z + y^4)^2 - y^9")])
    searched = samuel_slope(A, max_n=6)
    assert (searched.lower, searched.exact, searched.witness) \
        == (ExtendedRational(Fraction(7, 2)), False, [ring.parse("z")])
    result = samuel_slope(A, candidates=[[ring.parse("z + y^4")]], max_n=6)
    assert (result.lower, result.exact) \
        == (ExtendedRational(Fraction(9, 2)), False)
    assert [w.canonical_string() for w in result.witness] == ["y^4 + z"]


def reference_slope(presentation, max_n):
    """samuel_slope's automatic search with every candidate, each shift
    included, sent through nubar's limit route."""
    kernel = kernel_lambda(presentation)
    assert kernel.classification == "extremal"
    shifts = [s.scale(u)
              for s in samuel._translation_shifts(presentation, kernel)
              for u in samuel._shift_units(presentation.ring)]
    bound, witness = None, []
    for ell in kernel.basis:
        slot_best, slot_witness = None, None
        for gamma in [ell] + [ell + s for s in shifts]:
            value = nubar(presentation, gamma, strategy="limit",
                          max_n=max_n).lower
            if slot_best is None or value > slot_best:
                slot_best, slot_witness = value, gamma
            if slot_best.is_infinite:
                break
        bound = slot_best if bound is None else min(bound, slot_best)
        witness.append(slot_witness)
    return bound, bound.is_infinite, witness, "extremal"


def shifted_power_germs(seed=17, per_field=5):
    """Seeded hypersurfaces (z + c*s)^a + higher terms over Q, F_2, F_3,
    F_5 and F_7, s a monomial of degree 2 or 3 in the base variables and
    each higher term of degree above 2a, with a max_n for the search."""
    rng = random.Random(seed)
    for char in (0, 2, 3, 5, 7):
        for _ in range(per_field):
            names = rng.choice([("y", "z"), ("x", "y", "z")])
            ring = Ring(names, char=char)
            base = names[:-1]

            def monomial(low, high, variables, c):
                exps = [0] * len(names)
                for _ in range(rng.randint(low, high)):
                    exps[names.index(rng.choice(variables))] += 1
                return ring.monomial(exps, c)

            a = rng.choice([2, 3] + ([char] * 2 if char else []))
            c = rng.randint(1, char - 1) if char else rng.choice([-1, 1, 3])
            g = (ring.var("z") + monomial(2, 3, base, c)) ** a
            for _ in range(rng.randint(0, 2)):
                g = g + monomial(2 * a + 1, 3 * a + 1, names,
                                 rng.randint(1, 4))
            yield LocalRingPresentation(ring, [g]), rng.randint(2, 8)


def test_slope_search_matches_a_reference_that_runs_nubar_on_every_shift():
    shift_wins = frobenius_deaths = 0
    for A, max_n in shifted_power_germs():
        result = samuel_slope(A, max_n=max_n)
        bound, exact, witness, classification = reference_slope(A, max_n)
        assert (result.lower, result.exact, result.classification) \
            == (bound, exact, classification), A
        assert result.witness == witness, A
        assert result.lower <= result.upper
        if witness != list(kernel_lambda(A).basis):
            shift_wins += 1
            frobenius_deaths += bound.is_infinite and A.ring.char > max_n
    # the germs cover shifts that win, and shifts whose power dies only
    # at the Frobenius power above max_n
    assert shift_wins and frobenius_deaths


def recorded_nubar_runs(monkeypatch):
    """The elements samuel runs nubar on."""
    assessed = []

    def recording_nubar(presentation, f, *args, **kwargs):
        assessed.append(f)
        return nubar(presentation, f, *args, **kwargs)

    monkeypatch.setattr(samuel, "nubar", recording_nubar)
    return assessed


def recorded_divisions(monkeypatch, basis):
    """The elements divided by the given Groebner basis."""
    divided = []
    normal_form = GroebnerBasis.normal_form

    def recording_normal_form(self, f):
        if self is basis:
            divided.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(GroebnerBasis, "normal_form", recording_normal_form)
    return divided


@pytest.mark.parametrize("p", [13, 7])
def test_slope_search_settles_shifts_from_the_direction_samples(
        monkeypatch, p):
    ring = Ring(("y", "z"), char=p)
    A = LocalRingPresentation(ring, [ring.parse("z^%d + y^%d" % (p, p + 1))])
    kernel = kernel_lambda(A)
    shifts = samuel._translation_shifts(A, kernel)
    assessed = recorded_nubar_runs(monkeypatch)
    zero_tests = recorded_zero_tests(monkeypatch)
    divided = recorded_divisions(monkeypatch, A.relation_basis())
    result = samuel_slope(A, max_n=8)
    assert result.witness == [ring.parse("z")]
    # nubar runs on the direction z alone, tests nothing for zero but its
    # Frobenius power z^q, and keeps the normal form of z^q for the
    # search; past it, the search divides each shift monomial's q-th power
    # once, for all p - 1 units together
    assert assessed == list(kernel.basis)
    assert zero_tests == []
    z_q = ring.parse("z^%d" % samuel._frobenius_exponent(p, 8))
    assert divided.count(z_q) == 1
    assert len(divided) == 1 + len(shifts)


def test_slope_search_runs_nubar_where_a_shift_can_move_an_order(
        monkeypatch):
    ring = Ring(("x", "y"))
    A = LocalRingPresentation(ring, [ring.parse("x^2 - 2*y^3")])
    kernel = kernel_lambda(A)
    shifts = samuel._translation_shifts(A, kernel)
    assessed = recorded_nubar_runs(monkeypatch)
    samuel_slope(A, max_n=3)
    # the orders of x, x^2, x^3 are 1, 3, 4: a shift s of degree 2 may
    # move the order of (x + s)^2, as 3 is not below 1 + 2, while one of
    # degree 3 moves none; and x +- x*y is x times a unit
    x = ring.parse("x")
    assert [s for s in shifts if s.min_degree() == 2] \
        == [ring.parse("y^2"), ring.parse("x*y")]
    assert {s.min_degree() for s in shifts} == {2, 3}
    assert assessed == [x, ring.parse("x + y^2"), ring.parse("x - y^2")]


def unit_multiple_germs(seed=29, per_kind=2):
    """Seeded hypersurfaces over Q, F_2, F_3, F_5 and F_7 whose kernel
    direction z divides some shift monomials, in the variables y, z or
    x, y, z, each with a max_n for the search, and of three kinds:
      jump    -- z^a + c*y^b with b > a + 1, plus higher terms: the order
                 of z^a jumps, so the binomial rule fails on shifts of
                 order 2 and only z | s settles z*y;
      capped  -- z^a*(1 + c*y): z^a is zero only in the local ring, so
                 the run of z has capped samples from a on, and the unit
                 multiple z + c*y*z dies under the global zero test;
      shifted -- (z + c*s)^a plus higher terms, s a monomial in the base
                 variables, whose shift may die only at the Frobenius
                 power above max_n.
    """
    rng = random.Random(seed)
    for char in (0, 2, 3, 5, 7):
        for kind in ("jump", "capped", "shifted") * per_kind:
            names = rng.choice([("y", "z"), ("x", "y", "z")])
            ring = Ring(names, char=char)
            base = names[:-1]

            def monomial(low, high, variables, c):
                exps = [0] * len(names)
                for _ in range(rng.randint(low, high)):
                    exps[names.index(rng.choice(variables))] += 1
                return ring.monomial(exps, c)

            z, y = ring.var("z"), ring.var("y")
            c = rng.randint(1, char - 1) if char else rng.choice([-1, 1])
            a = rng.choice([2, 3] + ([char] if char else []))
            if kind == "jump":
                g = z ** a + y ** rng.randint(a + 2, a + 4) * c
                for _ in range(rng.randint(0, 1)):
                    g = g + monomial(2 * a + 2, 3 * a, names,
                                     rng.randint(1, 4))
            elif kind == "capped":
                g = z ** a * (ring.one() + y * c)
            else:
                g = (z + monomial(2, 3, base, c)) ** a
                for _ in range(rng.randint(0, 2)):
                    g = g + monomial(2 * a + 1, 3 * a + 1, names,
                                     rng.randint(1, 4))
            yield kind, LocalRingPresentation(ring, [g]), rng.randint(2, 8)


def test_slope_search_settles_unit_multiples_like_the_reference(
        monkeypatch):
    divides = []
    normal_form = samuel.normal_form

    def recording_normal_form(f, basis):
        # the search divides only to ask whether its direction divides f
        rest = normal_form(f, basis)
        divides.append(rest.is_zero())
        return rest

    monkeypatch.setattr(samuel, "normal_form", recording_normal_form)
    assessed = recorded_nubar_runs(monkeypatch)
    guarded = frobenius_deaths = 0
    for kind, A, max_n in unit_multiple_germs():
        asked = len(divides)
        assessed.clear()
        result = samuel_slope(A, max_n=max_n)
        bound, exact, witness, classification = reference_slope(A, max_n)
        assert (result.lower, result.exact, result.classification,
                result.witness) == (bound, exact, classification, witness), A
        (ell,) = kernel_lambda(A).basis
        # a shifted witness that nubar never ran on died at the Frobenius
        # power, found from the normal forms shared by its units
        frobenius_deaths += witness != [ell] and witness[0] not in assessed
        if nubar(A, ell, strategy="limit", max_n=max_n).capped:
            # a capped run never asks whether ell divides a shift, and here
            # the unit multiple that rule would copy is the witness
            assert len(divides) == asked, A
            shift = witness[0] - ell
            guarded += not shift.is_zero() \
                and groebner.normal_form(shift, [ell]).is_zero()
    assert any(divides) and guarded and frobenius_deaths


def test_kernel_at_a_coordinate_prime_whitney_shape():
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        A = LocalRingPresentation(
            ring, [ring.parse("x^%d - y1^%d*y2" % (p, p))])
        # the presentation keeps one report per point: the origin's first
        assert kernel_lambda(A).classification == "extremal"
        report = kernel_lambda(A, prime=("x", "y1"))
        assert report.method == "frobenius-form"
        assert report.r == 0
        assert report.t == 1
        assert report.classification == "non-extremal"


def test_kernel_at_a_coordinate_prime_detects_actual_powers():
    # x^2 - y1^2*y2^2 has initial form (x + y1*y2)^2 along (x, y1)
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y1^2*y2^2")])
    report = kernel_lambda(A, prime=("x", "y1"))
    assert report.r == 1
    assert report.classification == "extremal"
    assert [b.canonical_string() for b in report.basis] == ["y1*y2 + x"]


def test_kernel_at_a_coordinate_prime_divides_out_the_common_unit():
    # y2*x^4 + y1^4*y2^5 = y2*(x + y1*y2)^4, and y2 is a unit along (x, y1)
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("y2*x^4 + y1^4*y2^5")])
    report = kernel_lambda(A, prime=("x", "y1"))
    assert [b.canonical_string() for b in report.basis] == ["y1*y2 + x"]
    assert (report.t, report.classification) == (1, "extremal")
    # the unit ratio y2 is no square, so no linear form squares to the
    # initial form of y2*x^2 + y1^2*y2^2
    A = LocalRingPresentation(ring, [ring.parse("y2*x^2 + y1^2*y2^2")])
    report = kernel_lambda(A, prime=("x", "y1"))
    assert (report.r, report.classification) == (0, "non-extremal")


def test_kernel_at_a_coordinate_prime_off_the_shape_is_partial():
    ring = Ring(("x", "y1", "y2"), char=2)
    for text, classification, t in (
            ("x^2 + x*y1 + y1^2*y2", "unknown", 1),  # a mixed term
            ("x^2*y2 + x^2 + y1^2", "unknown", 1),  # two terms in x^2
            # degree 1 along the prime: t = 0, so r = t and it is extremal
            ("x*y2 + y1^2", "extremal", 0)):
        A = LocalRingPresentation(ring, [ring.parse(text)])
        report = kernel_lambda(A, prime=("x", "y1"))
        assert (report.classification, report.method, report.r, report.t) \
            == (classification, "partial", 0, t), text


def test_kernel_at_prime_rejects_points_off_the_hypersurface():
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y1^2*y2")])
    with pytest.raises(NotApplicable):
        kernel_lambda(A, prime=("y1", "y2"))
    # a kernel at a prime is read off one relation only
    B = LocalRingPresentation(ring, [ring.parse("x^2"), ring.parse("y1^2")])
    with pytest.raises(UnknownKernel, match="hypersurfaces"):
        kernel_lambda(B, prime=("x", "y1"))


def test_kernel_at_prime_refuses_a_repeated_variable():
    ring = Ring(("x", "y1", "y2"), char=2)
    A = LocalRingPresentation(ring, [ring.parse("x^2 - y1^2*y2")])
    with pytest.raises(SlopelabError, match="twice"):
        kernel_lambda(A, prime=("x", "y1", "y1"))


def test_relations_must_vanish_at_the_origin():
    ring = Ring(("x", "y"))
    with pytest.raises(ValueError):
        LocalRingPresentation(ring, [ring.parse("x^2 + 1")])
