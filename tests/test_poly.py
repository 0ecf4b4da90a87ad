import random

import pytest

from slopelab.arith import SlopelabError
from slopelab.poly import (
    IllegalSubstitution,
    Polynomial,
    Ring,
    VariableSplit,
    ZeroPolynomial,
)


def sample_polys(ring, count, seed, max_deg=3, max_terms=4):
    rng = random.Random(seed)
    n = len(ring.variables)
    out = []
    for _ in range(count):
        p = ring.zero()
        for _ in range(rng.randint(1, max_terms)):
            exps = [rng.randint(0, max_deg) for _ in range(n)]
            p = p + ring.monomial(exps, rng.randint(-3, 3))
        out.append(p)
    return out


def test_parse_and_print_round_trip():
    R = Ring(("z", "y1", "y2"), 0)
    f = R.parse("z^2 - y1^3*y2")
    # canonical order is graded lex, descending, so degree 4 leads
    assert f.canonical_string() == "-y1^3*y2 + z^2"
    assert R.parse(f.canonical_string()) == f
    for text in ("0", "1", "-1", "z", "3*z^2*y1 + y2 - 2", "-z + 5"):
        g = R.parse(text)
        assert R.parse(g.canonical_string()) == g


def test_parse_mod_p_and_errors():
    R2 = Ring(("y",), 2)
    assert R2.parse("3*y") == R2.parse("y")
    assert R2.parse("2*y").is_zero()
    assert R2.parse("y - y").is_zero()
    with pytest.raises(SlopelabError):
        R2.parse("y +")
    with pytest.raises(SlopelabError):
        R2.parse("y ? 2")
    with pytest.raises(SlopelabError):
        R2.parse("(y")


@pytest.mark.parametrize("text, at", [("x*+y", 2), ("x**2", 2), ("()", 1),
                                      ("x^2 + )", 6), ("-*x", 1)])
def test_parse_names_an_operator_where_a_factor_belongs(text, at):
    R = Ring(("x", "y"))
    with pytest.raises(SlopelabError,
                       match=r"expected a factor at .*, position %d of" % at):
        R.parse(text)


def test_ring_guards():
    with pytest.raises(ValueError):
        Ring(tuple("abcdefghi"), 0)  # nine variables, one over the cap
    with pytest.raises(ValueError):
        Ring(("x", "x"), 0)
    with pytest.raises(ValueError):
        Ring(("2x",), 0)


def test_ring_axioms_on_samples():
    for char in (0, 2, 5):
        R = Ring(("x", "y"), char)
        polys = sample_polys(R, 6, seed=17 + char)
        zero, one = R.zero(), R.one()
        for f in polys:
            assert f + zero == f
            assert f * one == f
            assert f - f == zero
            for g in polys:
                assert f + g == g + f
                assert f * g == g * f
                for h in polys[:3]:
                    assert (f + g) + h == f + (g + h)
                    assert (f * g) * h == f * (g * h)
                    assert f * (g + h) == f * g + f * h


def test_initial_form():
    R = Ring(("x", "y"), 0)
    f = R.parse("x^2 + x*y + y^3")
    assert f.initial_form() == R.parse("x^2 + x*y")
    assert R.parse("5").initial_form() == R.parse("5")
    with pytest.raises(ZeroPolynomial):
        R.zero().initial_form()
    with pytest.raises(ZeroPolynomial):
        R.zero().min_degree()


def test_initial_form_multiplicative():
    for char in (0, 3):
        R = Ring(("x", "y", "w"), char)
        for f in sample_polys(R, 5, seed=5 + char):
            for g in sample_polys(R, 5, seed=11 + char):
                if f.is_zero() or g.is_zero():
                    continue
                assert (f * g).initial_form() == \
                    f.initial_form() * g.initial_form()


def test_hasse_derivative_examples():
    R2 = Ring(("z", "y"), 2)
    assert R2.parse("y^3").hasse_derivative("y", 1) == R2.parse("y^2")
    assert R2.parse("z^6").hasse_derivative("z", 4) == R2.parse("z^2")
    # plain first derivative of z^2 dies in char 2
    assert R2.parse("z^2").hasse_derivative("z", 1).is_zero()
    R = Ring(("z", "y"), 0)
    assert R.parse("z^3*y").hasse_derivative("z", 2) == R.parse("3*z*y")


def test_hasse_derivative_linear_over_base():
    R = Ring(("z", "y"), 5)
    fs = sample_polys(R, 4, seed=3)
    gs = sample_polys(R, 4, seed=9)
    for f in fs:
        for g in gs:
            for b in (1, 2, 3):
                lhs = (f + g).hasse_derivative("z", b)
                rhs = f.hasse_derivative("z", b) + g.hasse_derivative("z", b)
                assert lhs == rhs
                scaled = f.scale(R.field.from_int(3))
                assert scaled.hasse_derivative("z", b) == \
                    f.hasse_derivative("z", b).scale(R.field.from_int(3))


def test_taylor_identity():
    # f(z + T) = sum_b Delta^b_z(f) T^b, checked in an extended ring
    for char in (0, 2, 3):
        R = Ring(("z", "y"), char)
        S = R.extend(("T",))
        T = S.var("T")
        for f in sample_polys(R, 6, seed=23 + char, max_deg=4):
            if f.is_zero():
                continue
            lifted = S.lift(f)
            lhs = lifted.translate("z", T)
            rhs = S.zero()
            for b in range(f.degree() + 1):
                rhs = rhs + S.lift(f.hasse_derivative("z", b)) * T ** b
            assert lhs == rhs


def test_translate_examples():
    R2 = Ring(("z", "y1", "y2"), 2)
    f = R2.parse("z^2 + y1^2*y2^2")
    assert f.translate("z", R2.parse("y1*y2")) == R2.parse("z^2")
    R = Ring(("z", "y"), 0)
    g = R.parse("z^2 + 2*y*z + y^3 + y^2")
    assert g.translate("z", R.parse("-y")) == R.parse("z^2 + y^3")
    with pytest.raises(IllegalSubstitution):
        g.translate("z", R.parse("z + y"))


def test_translate_is_inverse_of_itself():
    R = Ring(("z", "y"), 3)
    for f in sample_polys(R, 6, seed=41):
        s = R.parse("y^2 + 2*y")
        assert f.translate("z", s).translate("z", -s) == f


def test_pth_power_root():
    R2 = Ring(("y1", "y2"), 2)
    assert R2.parse("y1^2*y2^2").pth_power_root() == R2.parse("y1*y2")
    assert R2.parse("y1^3").pth_power_root() is None
    assert R2.parse("y1^4").pth_power_root(2) == R2.parse("y1")
    R3 = Ring(("x", "y"), 3)
    h = R3.parse("x^3 + 2*y^3")
    root = h.pth_power_root()
    assert root is not None and root ** 3 == h
    R = Ring(("x",), 0)
    with pytest.raises(SlopelabError):
        R.parse("x^2").pth_power_root()


def test_pth_power_root_round_trip():
    R = Ring(("x", "y"), 5)
    for g in sample_polys(R, 6, seed=7):
        if g.is_zero():
            continue
        h = g ** 5
        root = h.pth_power_root()
        assert root == g
        # and anything that has a root squares back to itself
        assert root ** 5 == h


def test_coefficients_in():
    R = Ring(("z", "y"), 0)
    f = R.parse("z^2 + 3*y*z + y^3")
    coeffs = f.coefficients_in("z")
    assert coeffs[2] == R.one()
    assert coeffs[1] == R.parse("3*y")
    assert coeffs[0] == R.parse("y^3")


def test_degree_helpers():
    R = Ring(("x", "y1", "y2"), 0)
    f = R.parse("x^2*y1 + y1^3*y2")
    assert f.degree() == 4
    assert f.min_degree() == 3
    assert f.min_degree_in((R.index("x"),)) == 0
    assert f.min_degree_in((R.index("x"), R.index("y1"))) == 3
    assert f.initial_form_in((R.index("y1"), R.index("y2"))) == R.parse("x^2*y1")
    assert f.degree_of_var("y1") == 3


def test_variable_split():
    R = Ring(("z", "y1", "y2"), 2)
    split = VariableSplit(R, base=("y1", "y2"), fiber=("z",))
    assert (split.base, split.fiber) == (("y1", "y2"), ("z",))
    with pytest.raises(ValueError):
        VariableSplit(R, base=("y1",), fiber=("z",))  # y2 uncovered
    with pytest.raises(ValueError):
        VariableSplit(R, base=("y1", "z"), fiber=("z",))


def test_monomial_ops():
    R = Ring(("x", "y", "z"), 0)
    a = R.monomial((2, 0, 1))
    b = R.monomial([1, 3, 0])
    assert a * b == R.monomial((3, 3, 1))
    assert a.degree() == 3 and a.min_degree_in((0, 1)) == 2
    assert R.monomial((0, 0, 0), 5) == R.constant(5)
    with pytest.raises(ValueError):
        R.monomial((-1, 0, 0))
    for wrong_length in [(1, 0), (1, 0, 2, 0), ()]:
        with pytest.raises(ValueError):
            R.monomial(wrong_length)


def test_terms_are_keyed_by_plain_tuples():
    R = Ring(("x", "y"), 0)
    f = R.parse("x*y^2")
    assert f.terms == {(1, 2): R.field.one}
    assert all(type(m) is tuple for m in f.terms)
    assert all(type(m) is tuple for m in (R.var("y") * f).terms)


@pytest.mark.parametrize("char", [0, 5])
def test_power_is_the_repeated_product(char):
    R = Ring(("x", "y", "z"), char)
    for f in sample_polys(R, 4, seed=char) + [R.zero(), R.one()]:
        product = R.one()
        for n in range(10):
            assert f ** n == product
            product = product * f


def test_power_squares_no_further_than_the_last_bit(monkeypatch):
    R = Ring(("x", "y", "z"), 5)
    f = R.parse("2*x^3 + y^2*z + 3*x*z + y^3")
    want = f * f * f * f * f * f * f * f
    products = []
    real_mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    power = f ** 8
    # three squarings, and the running product starts at f^8 itself;
    # squaring f^8 as well would be a fourth, and the largest
    assert len(products) == 3
    assert power == want


@pytest.mark.parametrize("n,count", [(0, 0), (1, 0), (4, 2), (7, 4)])
def test_power_starts_from_the_base(monkeypatch, n, count):
    R = Ring(("x", "y"), 3)
    f = R.parse("x^2 + 2*x*y + y")
    want = R.one()
    for _ in range(n):
        want = want * f
    products = []
    real_mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    power = f ** n
    # squarings up to the top bit, and one product per further set bit
    assert len(products) == count
    assert power == want
