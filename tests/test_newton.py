import itertools
from fractions import Fraction

import pytest

from slopelab.arith import INF, ExtendedRational
from slopelab.groebner import IdealPresentation, NotMonomial, ideal_power
from slopelab.newton import (
    DimensionCap,
    MonomialValuation,
    build_polyhedron,
    closure_member,
    nubar_monomial,
)
from slopelab.poly import Ring


def ideal(ring, texts):
    return IdealPresentation(ring, [ring.parse(t) for t in texts])


def power_closure_oracle(exps, gens, a, max_k=18):
    """u in closure(J^a) iff u^k in J^(a*k) for some k: brute monomial search.

    Independent of facets on purpose: decides k*u >= (componentwise) a sum
    of a*k generator exponents by memoized recursion.
    """
    memo = {}

    def member(e, s):
        if s == 0:
            return True
        key = (e, s)
        if key not in memo:
            memo[key] = False  # guard against rework
            for g in gens:
                if all(gi <= ei for gi, ei in zip(g, e)):
                    rest = tuple(ei - gi for gi, ei in zip(g, e))
                    if member(rest, s - 1):
                        memo[key] = True
                        break
        return memo[key]

    for k in range(1, max_k + 1):
        scaled = tuple(k * e for e in exps)
        if member(scaled, a * k):
            return True
    return False


def test_facets_frozen_examples():
    R = Ring(("x", "y"), 0)
    P = build_polyhedron(ideal(R, ["x^2", "y^3"]))
    assert P.facets == (((3, 2), 6),)
    P = build_polyhedron(ideal(R, ["x", "y"]))
    assert P.facets == (((1, 1), 1),)
    P = build_polyhedron(ideal(R, ["x^2*y", "x*y^2"]))
    assert P.facets == (((0, 1), 1), ((1, 0), 1), ((1, 1), 3))


def test_facet_invariants():
    R2 = Ring(("x", "y"), 0)
    R3 = Ring(("x", "y", "w"), 0)
    corpus = [
        ideal(R2, ["x^2", "y^3"]),
        ideal(R2, ["x^2*y", "x*y^2"]),
        ideal(R2, ["x^3", "x*y", "y^5"]),
        ideal(R3, ["x", "y", "w"]),
        ideal(R3, ["x^2", "y^3", "w^5"]),
        ideal(R3, ["x*y", "y*w", "x*w"]),
    ]
    for I in corpus:
        P = build_polyhedron(I)
        gens = list(I.monomial_generators())
        assert P.facets, "no facets for %r" % I
        for w, thr in P.facets:
            assert thr > 0
            assert all(x >= 0 for x in w)
            values = [sum(a * b for a, b in zip(w, g)) for g in gens]
            assert min(values) == thr  # valid and tight on some generator


def test_nubar_examples():
    R = Ring(("x", "y"), 0)
    I = ideal(R, ["x^2", "y^3"])
    assert nubar_monomial(I, R.parse("x*y")) == ExtendedRational(Fraction(5, 6))
    assert nubar_monomial(I, R.parse("x")) == ExtendedRational(Fraction(1, 2))
    assert nubar_monomial(ideal(R, ["x", "y"]), R.parse("x")) == ExtendedRational(1)
    assert nubar_monomial(I, R.zero()) == INF
    # polynomial input: the min over terms, exact in the ambient ring
    assert nubar_monomial(I, R.parse("x + y")) == ExtendedRational(Fraction(1, 3))
    # a unit has order zero
    assert nubar_monomial(I, R.parse("1 + x")) == ExtendedRational(0)


def test_closure_examples():
    R = Ring(("x", "y"), 0)
    I = ideal(R, ["x^2", "y^2"])
    assert closure_member(R.parse("x*y"), I)
    assert not closure_member(R.parse("x"), I)
    assert not ideal_member_local(R.parse("x*y"), I)
    assert closure_member(R.zero(), I, a=3)


def ideal_member_local(f, I):
    from slopelab.groebner import ideal_member
    return ideal_member(f, I)


def test_closure_against_power_oracle():
    R2 = Ring(("x", "y"), 0)
    R3 = Ring(("x", "y", "w"), 0)
    cases = [
        (R2, ["x^2", "y^3"]),
        (R2, ["x^2*y", "x*y^2"]),
        (R2, ["x", "y"]),
        (R3, ["x^2", "y^2", "w^3"]),
    ]
    for ring, gens in cases:
        I = ideal(ring, gens)
        gen_exps = list(I.monomial_generators())
        n = len(ring.variables)
        polyhedra = {a: build_polyhedron(ideal_power(I, a)) for a in (1, 2, 3)}
        for exps in itertools.product(range(5), repeat=n):
            if sum(exps) > 4:
                continue
            f = ring.monomial(exps)
            for a in (1, 2, 3):
                got = closure_member(f, I, a, polyhedron=polyhedra[a])
                want = power_closure_oracle(exps, gen_exps, a)
                assert got == want, (gens, exps, a)


def test_power_scaling_of_facets():
    # facets of I^a are the facets of I with thresholds scaled by a
    R = Ring(("x", "y"), 0)
    for gens in (["x^2", "y^3"], ["x^2*y", "x*y^2"]):
        I = ideal(R, gens)
        base = build_polyhedron(I)
        for a in (2, 3, 4):
            scaled = build_polyhedron(ideal_power(I, a))
            assert scaled.facets == tuple(sorted(
                (w, a * thr) for w, thr in base.facets))


def test_monomial_valuation():
    R = Ring(("x", "y"), 0)
    v = MonomialValuation.from_dict(R, {"x": 3, "y": 2})
    assert v.value(R.parse("x")) == ExtendedRational(3)
    assert v.value(R.parse("x^2 - y^3")) == ExtendedRational(6)
    assert v.value(R.zero()) == INF
    assert v.ideal_value(ideal(R, ["x", "y"])) == ExtendedRational(2)
    # value is an order function: v(fg) = v(f) + v(g) on samples
    f, g = R.parse("x + y^2"), R.parse("x*y - y^4")
    assert v.value(f * g) == v.value(f) + v.value(g)
    with pytest.raises(ValueError):
        MonomialValuation(R, (0, 0))
    with pytest.raises(ValueError):
        MonomialValuation(R, (-1, 2))


def test_dimension_cap_and_guards():
    R5 = Ring(("a", "b", "c", "d", "e"), 0)
    I = IdealPresentation(R5, [R5.parse("a"), R5.parse("b")])
    with pytest.raises(DimensionCap):
        build_polyhedron(I)
    R = Ring(("x", "y"), 0)
    with pytest.raises(NotMonomial):
        build_polyhedron(ideal(R, ["x + y"]))
    with pytest.raises(NotMonomial):
        build_polyhedron(IdealPresentation(R, []))


def test_four_variable_polyhedron():
    R4 = Ring(("x", "y", "z", "w"), 0)
    I = ideal(R4, ["x", "y", "z", "w"])
    P = build_polyhedron(I)
    assert P.facets == (((1, 1, 1, 1), 1),)
    value = nubar_monomial(P, R4.parse("x*y*z*w"))
    assert value == ExtendedRational(4)
