import itertools

import pytest

from slopelab import groebner
from slopelab.groebner import (
    BudgetExceeded,
    IdealPresentation,
    NotMonomial,
    buchberger,
    ideal_member,
    ideal_power,
    ideal_sum,
    leading,
    monomial_dimension,
    normal_form,
    radical_member,
)
from slopelab.poly import Ring


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
    assert ideal_member(R.parse("y^4"), I)


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
        # basis is monic
        for b in gb.polys:
            assert leading(b)[1] == R.field.one


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
        for f in probes:
            assert ideal_member(f, I) == span_member(f, I.generators), \
                "mismatch on %s in %r" % (f, I)


def test_radical_membership():
    R = Ring(("x", "y"), 0)
    I = IdealPresentation(R, [R.parse("x^2")])
    assert radical_member(R.parse("x"), I)
    assert not ideal_member(R.parse("x"), I)
    assert not radical_member(R.parse("y"), I)
    assert not radical_member(R.parse("x + y"), I)

    # f^k in I for some k <= 8 forces radical membership
    J = IdealPresentation(R, [R.parse("x^2 - y^3"), R.parse("y^4")])
    probes = [R.parse("y"), R.parse("x"), R.parse("x + y"), R.parse("x*y")]
    for f in probes:
        in_some_power = any(ideal_member(f ** k, J) for k in range(1, 9))
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
        for g in big.generators:
            assert ideal_member(g, prod)


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
    assert ideal_member(f - r, I)
    assert normal_form(r, gb.polys) == r


def test_contains_does_not_recompute_basis_leading_terms(monkeypatch):
    R = Ring(("x", "y", "z"), 0)
    m = IdealPresentation(R, [R.var(v) for v in R.variables])
    gb = buchberger(ideal_power(m, 3))
    assert len(gb.polys) == 10
    calls = []
    real_leading = groebner.leading

    def counting_leading(*args):
        calls.append(args)
        return real_leading(*args)

    monkeypatch.setattr(groebner, "leading", counting_leading)
    assert gb.contains(R.parse("x^2*y*z"))
    assert len(calls) < len(gb.polys)
