import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopelab import arith, groebner, samuel
from slopelab.groebner import (
    BudgetExceeded,
    GroebnerBasis,
    IdealPresentation,
    NotMonomial,
    buchberger,
    ideal_power,
    ideal_sum,
    local_basis,
    monomial_dimension,
    normal_form,
    radical_member,
)
from slopelab.poly import Polynomial, Ring
from slopelab.samuel import LocalRingPresentation


def grevlex(m):
    """Sort key of graded reverse lex, kept apart from the package's heap
    key so that the reference division below does not lean on it."""
    return (sum(m), tuple(-e for e in reversed(m)))


def leading(f):
    """The grevlex-largest term of f, found by a scan."""
    mono = max(f.terms, key=grevlex)
    return mono, f.terms[mono]


def monomials_up_to(ring, bound):
    n = len(ring.variables)
    for exps in itertools.product(range(bound + 1), repeat=n):
        if sum(exps) <= bound:
            yield ring.monomial(exps)


def span_member(f, gens, degree_cap=6):
    """Membership oracle by plain linear algebra.

    Spans all products (monomial of degree <= cap - deg g) * g and reduces f
    against that space. Complete for memberships whose cofactors stay under
    the cap, which holds on the small corpus used here.
    """
    ring = f.ring
    bound = max(degree_cap, f.degree() if not f.is_zero() else 0)
    vectors = []
    for g in gens:
        for m in monomials_up_to(ring, bound - g.degree()):
            vectors.append(m * g)
    # incremental row reduction, pivots keyed by an arbitrary fixed order
    pivots = {}

    def reduce(v):
        changed = True
        while changed:
            changed = False
            for mono in sorted(v.terms, reverse=True):
                if mono in pivots and v.terms.get(mono):
                    v = v - pivots[mono].scale(v.terms[mono])
                    changed = True
                    break
        return v

    for vec in vectors:
        vec = reduce(vec)
        if vec.is_zero():
            continue
        head = max(vec.terms)
        pivots[head] = vec.scale(1 / vec.terms[head])
    return reduce(f).is_zero()


def test_reduced_basis_cusp_times_axis():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("x*y")])
    gb = buchberger(I)
    got = [g.canonical_string() for g in gb.polys]
    assert got == ["x*y", "y^3 - x^2", "x^3"]
    assert gb.contains(R.parse("y^4"))


def test_generators_reduce_to_zero():
    cases = [
        (0, ["x^2 - y^3", "x*y"]),
        (2, ["x^2 + y^2", "x*y + y^3"]),
        (5, ["x^3 - 2*y", "x*y^2 - x"]),
    ]
    for char, gens in cases:
        R = Ring(("x", "y"), char)
        I = IdealPresentation(R, [R.parse(s) for s in gens])
        gb = buchberger(I)
        for g in I.generators:
            assert gb.normal_form(g).is_zero()
        # basis is monic: each entry is (lm, g), g's coefficient at lm one
        for lm, b in gb.leads:
            assert b.terms[lm] == R.field.one


def test_membership_against_span_oracle():
    corpora = [
        (0, ("x", "y"), ["x^2 - y^3", "x*y"]),
        (0, ("x", "y", "w"), ["x*y - w^2", "y^2 - w"]),
        (3, ("x", "y"), ["x^2 + 2*y^2", "x*y^3"]),
        (2, ("x", "y", "w"), ["x^2 + y*w", "y^2 + w^2"]),
    ]
    for char, variables, gens in corpora:
        R = Ring(variables, char)
        I = IdealPresentation(R, [R.parse(s) for s in gens])
        probes = list(I.generators)
        probes += [a * b for a, b in itertools.product(I.generators, repeat=2)]
        probes += [R.var(v) for v in variables]
        probes += [R.parse("1"),
                   R.var(variables[0]) * I.generators[0] + I.generators[-1],
                   R.var(variables[0]) ** 2 + R.var(variables[1])]
        gb = buchberger(I)
        for f in probes:
            assert gb.contains(f) == span_member(f, I.generators), \
                "mismatch on %s in %r" % (f, I)


def test_radical_membership():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2")])
    assert radical_member(R.parse("x"), I)
    assert not buchberger(I).contains(R.parse("x"))
    assert not radical_member(R.parse("y"), I)
    assert not radical_member(R.parse("x + y"), I)

    # f^k in I for some k <= 8 forces radical membership
    J = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("y^4")])
    probes = [R.parse("y"), R.parse("x"), R.parse("x + y"), R.parse("x*y")]
    gb = buchberger(J)
    for f in probes:
        in_some_power = any(gb.contains(f ** k) for k in range(1, 9))
        if in_some_power:
            assert radical_member(f, J)
    assert radical_member(R.parse("x"), J)  # x^8 = (y^3+ (x^2-y^3))^4 ...
    assert not radical_member(R.parse("x + 1"), J)


def test_radical_membership_fresh_variable():
    # the trick variable must dodge a ring that already uses "t"
    R = Ring(("t", "y"), 0)
    I = IdealPresentation(R, [R.parse("t^3")])
    assert radical_member(R.parse("t"), I)
    assert not radical_member(R.parse("y"), I)


def test_ideal_power():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2"), R.parse("x*y")])
    sq = ideal_power(I, 2)
    got = sorted(g.canonical_string() for g in sq.generators)
    assert got == ["x^2*y^2", "x^3*y", "x^4"]
    assert ideal_power(I, 0).generators == (R.one(),)
    # containment I^(a+b) subseteq I^a * I^b on a couple of splits
    for a, b in ((1, 1), (1, 2), (2, 2)):
        big = ideal_power(I, a + b)
        prod = IdealPresentation(R, [
            g * h for g in ideal_power(I, a).generators
            for h in ideal_power(I, b).generators])
        gb = buchberger(prod)
        for g in big.generators:
            assert gb.contains(g)


def test_ideal_sum_and_dedup():
    R = Ring(("x", "y"), 0)
    A = IdealPresentation(R, [R.parse("x"), R.zero(), R.parse("x")])
    assert A.generators == (R.parse("x"),)
    B = IdealPresentation(R, [R.parse("y")])
    S = ideal_sum(A, B)
    assert set(S.generators) == {R.parse("x"), R.parse("y")}


def test_budget(monkeypatch):
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("x*y")])
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        buchberger(I)
    # generous budget succeeds
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 100)
    assert len(buchberger(I).polys) == 3


def test_monomial_dimension():
    R3 = Ring(("x", "y", "w"), 0)
    assert monomial_dimension(IdealPresentation(R3, [R3.parse("x*y")])) == 2
    assert monomial_dimension(IdealPresentation(R3, [])) == 3
    assert monomial_dimension(
        IdealPresentation(R3, [R3.parse("x"), R3.parse("y"), R3.parse("w")])) == 0
    R2 = Ring(("x", "y"), 0)
    assert monomial_dimension(
        IdealPresentation(R2, [R2.parse("x^2*y"), R2.parse("x*y^2")])) == 1
    assert monomial_dimension(IdealPresentation(R2, [R2.parse("1")])) == -1
    with pytest.raises(NotMonomial):
        monomial_dimension(IdealPresentation(R2, [R2.parse("x + y")]))


def test_minimal_monomial_generators():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2"), R.parse("x^3"), R.parse("x*y")])
    monos = I.monomial_generators()
    assert sorted(monos) == [(1, 1), (2, 0)]


def test_determinism_and_generator_order():
    R = Ring(("x", "y", "w"), 2)
    gens = [R.parse("x^2 + y*w"), R.parse("y^2 + w^2"), R.parse("x*w")]
    I1 = IdealPresentation(R, gens)
    I2 = IdealPresentation(R, list(reversed(gens)))
    b1 = buchberger(I1)
    b2 = buchberger(I2)
    assert [g.canonical_string() for g in b1.polys] == \
        [g.canonical_string() for g in b2.polys]
    assert [g.canonical_string() for g in buchberger(I1).polys] == \
        [g.canonical_string() for g in b1.polys]


def test_normal_form_properties():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("x*y")])
    gb = buchberger(I)
    f = R.parse("x^4 + x*y + y")
    r = gb.normal_form(f)
    # remainder differs from f by a member and is fully reduced
    assert gb.contains(f - r)
    assert normal_form(r, gb.polys) == r


def test_contains_does_not_recompute_basis_leading_terms(monkeypatch):
    R = Ring(("x", "y", "z"), 0)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    gb = buchberger(ideal_power(m, 3))
    assert len(gb.polys) == 10
    calls = []
    real_monic_lead = groebner._monic_lead

    def counting_monic_lead(*args):
        calls.append(args)
        return real_monic_lead(*args)

    monkeypatch.setattr(groebner, "_monic_lead", counting_monic_lead)
    assert gb.contains(R.parse("x^2*y*z"))
    assert calls == []
    # the count sees the free normal_form, which makes each divisor monic
    assert normal_form(R.parse("x^2*y*z"), gb.polys).is_zero()
    assert len(calls) == len(gb.polys)


def reference_normal_form(f, divisors):
    """Division that rebuilds whole polynomials at every step.

    Each step takes the grevlex-largest term of the work polynomial and the
    first divisor, in list order, whose leading monomial divides it, and
    subtracts the monomial multiple by polynomial arithmetic; a term no
    divisor divides moves to the remainder.
    """
    ring = f.ring
    leads = [leading(g) + (g,) for g in divisors if not g.is_zero()]
    remainder = ring.zero()
    work = f
    while not work.is_zero():
        mono, coeff = leading(work)
        for lm, lc, g in leads:
            if all(a <= b for a, b in zip(lm, mono)):
                shift = tuple(b - a for a, b in zip(lm, mono))
                work = work - Polynomial(ring, {shift: coeff / lc}) * g
                break
        else:
            head = Polynomial(ring, {mono: coeff})
            remainder = remainder + head
            work = work - head
    return remainder


RINGS = [Ring(names, char) for char in (0, 5)
         for names in (("x", "y"), ("x", "y", "z"))]


@st.composite
def polynomials(draw, ring, max_terms=4, max_degree=3):
    f = ring.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        exps = []
        for _ in ring.variables:
            exps.append(draw(st.integers(0, max_degree - sum(exps))))
        f = f + ring.monomial(exps, draw(st.integers(-4, 4)))
    return f


@st.composite
def nonzero_scalars(draw, ring):
    field = ring.field
    num, den = (draw(st.integers(-6, 6).map(field.from_int).filter(bool))
                for _ in range(2))
    return num / den


@st.composite
def division_problems(draw):
    ring = draw(st.sampled_from(RINGS))
    f = draw(polynomials(ring, max_terms=8, max_degree=6))
    divisors = draw(st.lists(polynomials(ring).filter(
        lambda g: not g.is_zero()), min_size=1, max_size=3))
    scales = [draw(nonzero_scalars(ring)) for _ in divisors]
    return f, divisors, scales


@settings(max_examples=150, deadline=None)
@given(division_problems())
def test_in_place_division_matches_the_polynomial_level_loop(problem):
    f, divisors, scales = problem
    want = reference_normal_form(f, divisors)
    scaled = [g.scale(c) for g, c in zip(divisors, scales)]
    assert reference_normal_form(f, scaled) == want
    entries = []
    for g in divisors:
        lm, lc = leading(g)
        entries.append((lm, g.scale(1 / lc)))
    for got in (normal_form(f, divisors), normal_form(f, scaled),
                GroebnerBasis(f.ring, entries).normal_form(f)):
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(got.terms.values())


def sympy_reduced_basis(ideal):
    """The reduced grevlex basis of sympy, monic, as package polynomials."""
    ring = ideal.ring
    gens = sympy.symbols(ring.variables)
    exprs = [sympy.sympify(g.canonical_string().replace("^", "**"),
                           locals=dict(zip(ring.variables, gens)))
             for g in ideal.generators]
    options = {"modulus": ring.char} if ring.char else {}
    basis = sympy.groebner(exprs, *gens, order="grevlex", **options)
    out = []
    for p in basis.polys:
        terms = {m: (ring.field.from_int(int(c)) if ring.char
                     else Fraction(str(c))) for m, c in p.terms()}
        lc = terms[p.LM(order="grevlex").exponents]
        out.append(Polynomial(ring, {m: c / lc for m, c in terms.items()}))
    return sorted(out, key=lambda g: grevlex(leading(g)[0]))


@st.composite
def small_ideals(draw):
    char = draw(st.sampled_from([0, 2, 3, 5]))
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    ring = Ring(names, char)
    gens = draw(st.lists(polynomials(ring, max_terms=3).filter(
        lambda g: not g.is_zero()), min_size=2, max_size=3))
    return IdealPresentation(ring, gens)


@settings(max_examples=100, deadline=None)
@given(small_ideals())
def test_buchberger_matches_sympy_reduced_basis(ideal):
    assert list(buchberger(ideal).polys) == sympy_reduced_basis(ideal)


@pytest.mark.parametrize("char", [0, 5])
def test_buchberger_multiplies_no_polynomials(monkeypatch, char):
    R = Ring(("x", "y", "z"), char)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    ideal = ideal_sum(ideal_power(m, 3),
                      IdealPresentation(R, [R.parse("x^2 - y^3")]))
    products, primality_tests = [], []
    real_mul, real_is_prime = Polynomial.__mul__, arith.is_prime

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    def counting_is_prime(p):
        primality_tests.append(p)
        return real_is_prime(p)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counting_mul)
    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    gb = buchberger(ideal)
    assert [g.canonical_string() for g in gb.polys] == [
        "x^2", "z^3", "y*z^2", "x*z^2", "y^2*z", "x*y*z", "y^3", "x*y^2"]
    assert products == []
    assert primality_tests == []


def product_route_power(ideal, m):
    """The generators of ideal^m by polynomial products, in
    combinations_with_replacement order, repeats dropped by a linear scan."""
    ring = ideal.ring
    prods = []
    for combo in itertools.combinations_with_replacement(ideal.generators, m):
        g = ring.one()
        for factor in combo:
            g = g * factor
        if g not in prods:
            prods.append(g)
    return tuple(prods)


@st.composite
def monomial_ideals(draw):
    ring = draw(st.sampled_from(RINGS))
    gens = [ring.monomial([draw(st.integers(0, 3)) for _ in ring.variables],
                          draw(st.sampled_from([1, 1, 2, -3])))
            for _ in range(draw(st.integers(0, 4)))]
    return IdealPresentation(ring, gens)


@settings(max_examples=100, deadline=None)
@given(monomial_ideals(), st.integers(0, 4))
def test_monomial_power_matches_the_product_route(ideal, m):
    got = ideal_power(ideal, m).generators
    want = product_route_power(ideal, m)
    assert got == want
    assert [list(g.terms.items()) for g in got] == \
        [list(g.terms.items()) for g in want]


def test_monomial_power_multiplies_no_polynomials(monkeypatch):
    R = Ring(("x", "y", "z"), 0)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    products = []
    real_mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counting_mul)
    power = ideal_power(m, 6)
    assert products == []
    assert len(power.generators) == 28
    assert [g.canonical_string() for g in power.generators[:3]] == [
        "x^6", "x^5*y", "x^5*z"]


def test_buchberger_forms_no_s_polynomial_of_two_monomials(monkeypatch):
    R = Ring(("x", "y", "z"), 0)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    ideal = ideal_sum(ideal_power(m, 5),
                      IdealPresentation(R, [R.parse("x^2 - y^3")]))
    pairs = []
    real_spoly = groebner._spoly

    def recording_spoly(lcm, entry_i, entry_j):
        pairs.append((entry_i[1], entry_j[1]))
        return real_spoly(lcm, entry_i, entry_j)

    monkeypatch.setattr(groebner, "_spoly", recording_spoly)
    gb = buchberger(ideal)
    assert pairs  # the binomial still meets the monomials
    assert not any(f.is_monomial() and g.is_monomial() for f, g in pairs)
    assert list(gb.polys) == sympy_reduced_basis(ideal)


def test_pair_budget_counts_only_queued_pairs(monkeypatch):
    # 66 monomials and one binomial: 2,211 generator pairs, of which only
    # the 66 with the binomial are queued
    R = Ring(("x", "y", "z"), 0)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    ideal = ideal_sum(ideal_power(m, 10),
                      IdealPresentation(R, [R.parse("x^2 - y^3")]))
    assert len(ideal.generators) == 67
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 500)
    assert list(buchberger(ideal).polys) == sympy_reduced_basis(ideal)


def test_pair_budget_bounds_the_first_queue(monkeypatch):
    # x*h, y*h and z*h queue 3 pairs, all of which reduce to zero
    R = Ring(("x", "y", "z"), 0)
    h = R.parse("y + z^2")
    ideal = IdealPresentation(R, [R.var(v) * h for v in R.variables])
    assert len(buchberger(ideal).polys) == 3
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="S-pair budget 2 exceeded"):
        buchberger(ideal)


def test_local_basis_counts_pairs_against_the_budget(monkeypatch):
    R = Ring(("x", "y", "z"), 0)
    ideal = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("x*y - z^3")])
    assert len(local_basis(ideal, 12).polys) == 3
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        local_basis(ideal, 12)


@st.composite
def maximal_power_ideals(draw):
    char = draw(st.sampled_from([0, 3]))
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    ring = Ring(names, char)
    relations = [
        Polynomial(ring, {m: c for m, c in g.terms.items() if sum(m)})
        for g in draw(st.lists(polynomials(ring), min_size=1, max_size=2))]
    m = IdealPresentation(ring, [ring.var(v) for v in ring.variables])
    return ideal_sum(ideal_power(m, draw(st.integers(1, 8))),
                     IdealPresentation(ring, relations))


@settings(max_examples=60, deadline=None)
@given(maximal_power_ideals())
def test_buchberger_matches_sympy_on_maximal_powers_plus_relations(ideal):
    # m^j + J: many monomial leading terms, some divided by lower-degree
    # leading terms that reductions of J bring in
    assert list(buchberger(ideal).polys) == sympy_reduced_basis(ideal)


@st.composite
def order_problems(draw):
    ring = Ring(draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                draw(st.sampled_from([0, 2, 3, 5])))
    relations = [
        Polynomial(ring, {m: c for m, c in g.terms.items() if sum(m)})
        for g in draw(st.lists(polynomials(ring, max_terms=3), max_size=3))]
    # a combination of the relations plus a deep rest, so that f often
    # lies deep in m^j + J
    f = draw(polynomials(ring, max_terms=4, max_degree=8))
    for g in relations:
        f = f + draw(polynomials(ring)) * g
    return LocalRingPresentation(ring, relations), f, draw(st.integers(1, 14))


def order_problem(names, relations, f, cap):
    ring = Ring(names, 0)
    return (LocalRingPresentation(ring, [ring.parse(g) for g in relations]),
            ring.parse(f), cap)


@settings(max_examples=200, deadline=None)
@given(order_problems())
# f at the cap; an S-pair below the cap; an S-pair whose lcm is one
# degree below the cap
@example(order_problem(("x", "y"), [], "y", 1))
@example(order_problem(("x", "y"), ["x^2 + y", "y^2 + y"], "y", 3))
@example(order_problem(("x", "y", "z"), ["x^2 + x*y", "x^2*z + z^3"],
                       "z^5 + x^2*y*z + y*z^3", 5))
def test_nu_is_the_first_power_of_m_plus_j_that_misses_f(problem):
    # the local division against grevlex bases of m^j + J; these shrink as
    # j grows, so nu(f) = v < cap exactly when f lies in m^v + J and not in
    # m^(v+1) + J, and nu(f) >= cap when f lies in m^cap + J
    A, f, cap = problem
    got = samuel.nu(A, f, cap)
    if buchberger(A.relations).contains(f):
        assert got.lower == arith.INF
        return
    m = A.maximal_ideal()

    def within(j):
        return buchberger(
            ideal_sum(ideal_power(m, j), A.relations)).contains(f)

    assert not got.lower.is_infinite
    v = int(got.lower.as_fraction)
    assert v <= cap and got.exact == (v < cap)
    assert within(v) and (v == cap or not within(v + 1))


def test_ideal_presentations_hash_once_and_compare_by_generators(
        monkeypatch):
    R = Ring(("x", "y"), 0)
    A = IdealPresentation(R, [R.parse("x^2"), R.parse("x*y")])
    B = IdealPresentation(R, [R.parse("x^2"), R.parse("x*y"), R.parse("x^2")])
    C = IdealPresentation(R, [R.parse("x*y"), R.parse("x^2")])
    assert A == B and hash(A) == hash(B)
    assert A != C
    assert A != IdealPresentation(Ring(("x", "y"), 5), [])
    hashes = []
    real_hash = Polynomial.__hash__

    def counting_hash(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(Polynomial, "__hash__", counting_hash)
    bases = {(A, 2): "basis"}
    assert bases[(B, 2)] == "basis" and (C, 2) not in bases
    assert tuple(hashes) == C.generators  # C is hashed for the first time
