from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab import arith
from slopelab.arith import (
    INF,
    Bounds,
    ExtendedRational,
    PrimeField,
    PrimeFieldElement,
    RationalField,
    echelon,
    is_prime,
)


def test_prime_check():
    assert [q for q in range(15) if is_prime(q)] == [2, 3, 5, 7, 11, 13]
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 9)


def test_a_modulus_is_an_int():
    # 3.0 == 3 passed the trial division, and the field failed later
    for bad in (3.0, 5.0, 2.5):
        assert not is_prime(bad)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(bad)
        with pytest.raises(ValueError, match="not prime"):
            PrimeFieldElement(1, bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_axioms_exhaustive(p):
    elems = [PrimeFieldElement(v, p) for v in range(p)]
    zero, one = elems[0], elems[1 % p]
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a != zero:
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_prime_field_misc():
    a = PrimeFieldElement(3, 5)
    assert a ** 0 == 1
    assert a ** -1 == a.inverse()
    assert 1 / a == a.inverse()
    assert 2 - a == PrimeFieldElement(4, 5)
    with pytest.raises(TypeError):
        a + PrimeFieldElement(1, 3)
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(0, 5).inverse()


def test_unit_over_element_builds_one_element(monkeypatch):
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    for v in range(1, 7):
        calls.clear()
        c = PrimeFieldElement(v, 7)
        assert calls == [7]  # the public constructor checks its modulus
        calls.clear()
        quotient = 1 / c
        assert calls == []  # an arithmetic result trusts its operand's
        assert quotient == c.inverse()
    with pytest.raises(ZeroDivisionError):
        1 / PrimeFieldElement(0, 7)


def test_field_handle_elements_skip_the_primality_check(monkeypatch):
    F7 = PrimeField(7)
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    # the handle checked 7 when it was built
    made = [F7.from_int(v) for v in range(-8, 9)] + [F7.zero, F7.one]
    assert calls == []
    assert made[:3] == [PrimeFieldElement(v, 7) for v in (-8, -7, -6)]
    assert F7.from_int(9).value == 2 and F7.zero.value == 0 \
        and F7.one.value == 1
    with pytest.raises(ValueError):
        PrimeField(9)
    assert calls == [7, 7, 7, 9]


def test_field_handles():
    Q = RationalField()
    assert Q.from_int(3) == Fraction(3)
    assert Q.zero == 0 and Q.one == 1 and Q.char == 0
    F3 = PrimeField(3)
    assert F3.from_int(5) == PrimeFieldElement(2, 3)
    assert F3.char == 3


def test_a_characteristic_is_a_nonnegative_int():
    assert arith.field_of_characteristic(0) == RationalField()
    assert arith.field_of_characteristic(5) == PrimeField(5)
    # refused with this message before the field's own primality check
    for bad in (3.0, 2.5, True, False, -2, "2", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            arith.field_of_characteristic(bad)


def test_rational_reads_ints_fractions_and_text():
    assert arith.rational(3) == 3 and type(arith.rational(3)) is Fraction
    assert arith.rational(Fraction(3, 2)) == Fraction(3, 2)
    assert arith.rational("3/2") == arith.rational(" 6 / 4 ") == Fraction(3, 2)
    assert arith.rational("-2") == -2
    for bad in (True, False, 2.5, 3.0, "2.0", "1.5", "inf", "x", "3/",
                None, [3]):
        with pytest.raises(ValueError, match="expected an integer"):
            arith.rational(bad)
    with pytest.raises(ValueError, match="denominator 0"):
        arith.rational("1/0")
    # ExtendedRational reads its value the same way
    for bad in (True, 2.0, "2.0"):
        with pytest.raises(ValueError):
            ExtendedRational(bad)
    assert ExtendedRational("3/2") == ExtendedRational(Fraction(3, 2))


def test_extended_rational_basics():
    half = ExtendedRational(Fraction(1, 2))
    two = ExtendedRational(2)
    assert half + two == ExtendedRational(Fraction(5, 2))
    assert half * 3 == ExtendedRational(Fraction(3, 2))
    assert two / 4 == half
    assert two.is_integer() and not half.is_integer()
    with pytest.raises(ValueError):
        ExtendedRational(-1)


def test_infinity_is_absorbing_and_maximal():
    values = [ExtendedRational(Fraction(n, d)) for n in range(5) for d in (1, 2, 3)]
    for v in values:
        assert v + INF == INF
        assert INF + v == INF
        assert v < INF and INF > v
        assert min(v, INF) == v and min(INF, v) == v
    assert INF + INF == INF
    assert min(INF, INF) == INF
    assert not (INF < INF)
    assert INF == ExtendedRational.infinity()


def test_total_order():
    vals = [ExtendedRational(Fraction(n, d)) for n in range(4) for d in (1, 2, 3)]
    vals.append(INF)
    for a in vals:
        for b in vals:
            assert (a < b) + (a == b) + (a > b) == 1
            assert min(a, b) == min(b, a)
            assert min(a, b) <= a and min(a, b) <= b


def test_serialization_round_trip():
    for text in ["0", "1", "3/2", "5/6", "24"]:
        assert ExtendedRational(text).serialize() == text
    # reduced on the way through
    assert ExtendedRational("2/1").serialize() == "2"
    assert ExtendedRational("4/6").serialize() == "2/3"
    assert ExtendedRational(Fraction(3, 2)).serialize() == "3/2"
    assert INF.serialize() == "inf"


def test_bounds_carry_the_label():
    half, three = ExtendedRational(Fraction(1, 2)), ExtendedRational(3)
    exact = Bounds(three, ExtendedRational(3), route="r", capped=[2])
    assert (exact.exact, exact.status) == (True, "exact")
    assert (exact.route, exact.capped) == ("r", (2,))
    below = Bounds(half)
    assert below.upper is INF and (below.exact, below.status) == (
        False, "lower-bound")
    assert Bounds(half, three).status == "lower-bound"
    assert Bounds(INF).exact and Bounds(INF, INF).exact
    assert repr(below) == "1/2 (lower-bound)"
    for lower, upper in ((three, half), (INF, three)):
        with pytest.raises(ValueError, match="above upper bound"):
            Bounds(lower, upper)


def test_bounds_keep_the_names_the_benchmark_reads():
    three = ExtendedRational(3)
    capped = Bounds(ExtendedRational(24), capped=(1,))
    assert capped.value == capped.lower_bound == ExtendedRational(24)
    assert capped.at_least
    exact = Bounds(three, three)
    assert exact.value == exact.lower_bound == three
    assert not exact.at_least


def _fractions(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_echelon_over_q_is_pinned():
    # the third row is the sum of the first two
    assert echelon(_fractions([[2, 4, 6], [1, 1, 1], [3, 5, 7]])) \
        == _fractions([[1, 0, -1], [0, 1, 2]])
    # the pivot for column 0 comes from the first row that has one
    assert echelon(_fractions([[0, 1], [1, 0]])) \
        == _fractions([[1, 0], [0, 1]])
    assert echelon([]) == []


def test_echelon_over_f5_is_pinned():
    F5 = PrimeField(5)

    def elems(rows):
        return [[F5.from_int(x) for x in r] for r in rows]

    # 2*(2, 3, 1) = (4, 1, 2) mod 5, so the rank is one
    assert echelon(elems([[2, 3, 1], [4, 1, 2]])) == elems([[1, 4, 3]])
    assert echelon(elems([[0, 2, 1], [3, 0, 4]])) \
        == elems([[1, 0, 3], [0, 1, 3]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
    min_size=1, max_size=4)))
def test_echelon_rank_matches_sympy_and_stays_exact(rows):
    out = echelon(_fractions(rows))
    assert len(out) == sympy.Matrix(rows).rank()
    assert all(type(x) is Fraction for r in out for x in r)
