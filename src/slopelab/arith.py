"""Exact scalars: rationals, prime fields, and the nonnegative rational line
with a genuine infinity element; the bounds every answer carries; and the
one exact row reduction.

Everything downstream (orders, slopes, thresholds) flows through these types,
so no floats anywhere. Coefficients of either field share one spelling for
inversion (``1 / c``) and print as their value (``str(c)``), so no other
module needs to know which field a coefficient lives in.
"""

from fractions import Fraction


class SlopelabError(Exception):
    """Base class for every error this package raises on purpose."""


def is_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeFieldElement:
    """A residue modulo a prime, with field arithmetic.

    The constructor checks that the modulus is prime. Arithmetic results
    and the elements a PrimeField hands out are built by _element, which
    does not check again: the modulus is an operand's or the field's,
    checked when that was built.
    """

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.value = value % p
        self.p = p

    def _check(self, other):
        if isinstance(other, int):
            return _element(other, self.p)
        if not isinstance(other, PrimeFieldElement) or other.p != self.p:
            raise TypeError("mixed moduli: %r vs %r" % (self, other))
        return other

    def __add__(self, other):
        other = self._check(other)
        return _element(self.value + other.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return _element(-self.value, self.p)

    def __sub__(self, other):
        other = self._check(other)
        return _element(self.value - other.value, self.p)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return _element(self.value * other.value, self.p)

    __rmul__ = __mul__

    def _inverse_value(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        # Fermat; p is small everywhere we run
        return pow(self.value, self.p - 2, self.p)

    def inverse(self):
        return _element(self._inverse_value(), self.p)

    def __truediv__(self, other):
        other = self._check(other)
        return _element(self.value * other._inverse_value(), self.p)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            # ``1 / c`` builds only the quotient
            return _element(other * self._inverse_value(), self.p)
        return self._check(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _element(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return (isinstance(other, PrimeFieldElement)
                and self.p == other.p and self.value == other.value)

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "%d mod %d" % (self.value, self.p)


def _element(value, p):
    """An element whose modulus was already checked: an operand's, or the
    field handle's."""
    e = object.__new__(PrimeFieldElement)
    e.value = value % p
    e.p = p
    return e


class RationalField:
    """Coefficient-field handle for characteristic 0."""

    char = 0

    def from_int(self, n):
        return Fraction(n)

    def char_exponent(self, n):
        """The exponent of the characteristic in n: none over Q."""
        return 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("Q",))

    def __repr__(self):
        return "Q"


class PrimeField:
    """Coefficient-field handle for F_p.

    The constructor checks that p is prime, so the elements it hands out
    are built by _element, without a second check.
    """

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        self.char = p

    def from_int(self, n):
        return _element(n, self.char)

    def char_exponent(self, n):
        """The exponent of p in the positive integer n."""
        if n < 1:
            raise ValueError("char_exponent needs a positive integer")
        e = 0
        while n % self.char == 0:
            n //= self.char
            e += 1
        return e

    @property
    def zero(self):
        return _element(0, self.char)

    @property
    def one(self):
        return _element(1, self.char)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.char == other.char

    def __hash__(self):
        return hash(("F", self.char))

    def __repr__(self):
        return "F_%d" % self.char


def field_of_characteristic(char):
    if isinstance(char, bool) or not isinstance(char, int) or char < 0:
        raise ValueError("characteristic must be a nonnegative integer, "
                         "got %r" % (char,))
    return RationalField() if char == 0 else PrimeField(char)


def rational(value):
    """A weight or a claimed value from outside the program as a Fraction:
    an int, a Fraction, or text such as ``3/2``. A bool, a float (which is
    not exact) and a zero denominator are refused."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except ValueError:
            pass
        except ZeroDivisionError:
            raise ValueError("a rational with denominator 0: %r" % value)
    raise ValueError("expected an integer or a rational such as 3/2, "
                     "got %r" % (value,))


class ExtendedRational:
    """A value in Q>=0 together with INFINITY.

    Infinity is its own variant (no float('inf'), no magic sentinel int):
    it absorbs addition and is the unique maximum of the order.
    """

    __slots__ = ("_value",)

    def __init__(self, value=None, _inf=False):
        if _inf:
            self._value = None
            return
        v = rational(value)
        if v < 0:
            raise ValueError("ExtendedRational lives on Q>=0, got %s" % v)
        self._value = v

    @classmethod
    def infinity(cls):
        return cls(_inf=True)

    @property
    def is_infinite(self):
        return self._value is None

    @property
    def as_fraction(self):
        if self._value is None:
            raise ValueError("infinity has no fraction value")
        return self._value

    def __add__(self, other):
        other = _coerce(other)
        if self.is_infinite or other.is_infinite:
            return INF
        return ExtendedRational(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other):
        # scalar scaling, used for r * nubar and friends
        k = Fraction(other)
        if k < 0:
            raise ValueError("negative scaling leaves Q>=0")
        if self.is_infinite:
            if k == 0:
                raise ValueError("0 * infinity is undefined here")
            return INF
        return ExtendedRational(self._value * k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        k = Fraction(other)
        if k <= 0:
            raise ValueError("division only by positive rationals")
        if self.is_infinite:
            return INF
        return ExtendedRational(self._value / k)

    def _cmp_key(self):
        # (1, _) for infinity so it compares above every finite value
        return (1, 0) if self.is_infinite else (0, self._value)

    def __lt__(self, other):
        return self._cmp_key() < _coerce(other)._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= _coerce(other)._cmp_key()

    def __gt__(self, other):
        return self._cmp_key() > _coerce(other)._cmp_key()

    def __ge__(self, other):
        return self._cmp_key() >= _coerce(other)._cmp_key()

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._cmp_key() == other._cmp_key()

    def __hash__(self):
        return hash(self._cmp_key())

    def is_integer(self):
        return (not self.is_infinite) and self._value.denominator == 1

    def serialize(self):
        if self.is_infinite:
            return "inf"
        if self._value.denominator == 1:
            return str(self._value.numerator)
        return "%d/%d" % (self._value.numerator, self._value.denominator)

    def __repr__(self):
        return self.serialize()


def _coerce(x):
    if isinstance(x, ExtendedRational):
        return x
    return ExtendedRational(x)


INF = ExtendedRational.infinity()


class Bounds:
    """What is proven about an invariant: a lower bound and, once something
    proves it, a matching upper bound (INF while none is known). This is
    the one place an answer's label lives: it is exact when the two bounds
    meet, and a lower bound otherwise.

    route names the route that proved the answer, and capped lists the
    sample n's that reached a cap, whose values are only 'at least' it.
    Two flags stay outside until ROADMAP item 5 makes them bounds:
    SlopeReport.approximate_elimination and CheckReport.slope_certified
    rest on the elimination order's approximate generating rule, so
    folding them in would label an unproven value a proven bound.
    """

    __slots__ = ("lower", "upper", "route", "capped")

    def __init__(self, lower, upper=INF, route=None, capped=()):
        # one comparison costs as much as the rest of the constructor, so
        # it is skipped where the bounds cannot be out of order
        if upper is not INF and upper is not lower and lower > upper:
            raise ValueError("lower bound %s above upper bound %s"
                             % (lower, upper))
        self.lower = lower
        self.upper = upper
        self.route = route
        self.capped = tuple(capped)

    @property
    def exact(self):
        if self.upper is INF:
            return self.lower.is_infinite
        return self.lower is self.upper or self.lower == self.upper

    @property
    def status(self):
        return "exact" if self.exact else "lower-bound"

    value = lower_bound = property(
        lambda self: self.lower,
        doc="lower, by old names that only perfbench/ reads; they go with "
            "ROADMAP item 6.")
    at_least = property(
        lambda self: not self.exact,
        doc="not exact, by an old name that only perfbench/ reads; it goes "
            "with ROADMAP item 6.")

    def __repr__(self):
        return "%s (%s)" % (self.lower, self.status)


def echelon(rows):
    """Reduced row echelon form of a matrix over Q or F_p, zero rows dropped.

    Pivots are taken column by column from the first nonzero row, and every
    pivot row is scaled to a leading one. Callers print kernel bases from
    these rows, so that order is part of the output. Entries must be field
    elements (Fraction, not int), so that ``1 / pivot`` stays exact.
    """
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [a - c * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return work[:rank]
