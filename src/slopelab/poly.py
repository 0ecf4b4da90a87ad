"""Multivariate polynomials over Q or F_p with the operator set the rest of
the package leans on: initial forms, divided-power (Hasse) derivatives,
variable translations, and p-th power roots.

Monomials are plain tuples of ints, one exponent per ring variable, and
terms live in a dict keyed by them. The canonical printing order is graded
lex, descending, so serialized output is stable across runs.
"""

import math
import re
from operator import add

from .arith import SlopelabError, field_of_characteristic

VARIABLE_CAP = 8


class ZeroPolynomial(SlopelabError):
    """Raised when an operation needs a nonzero polynomial."""


class IllegalSubstitution(SlopelabError):
    """Raised when a translation would substitute a variable into itself."""


class Ring:
    """A polynomial ring: named variables plus a coefficient field."""

    def __init__(self, variables, char=0):
        variables = tuple(variables)
        if len(variables) > VARIABLE_CAP:
            raise ValueError("at most %d variables supported" % VARIABLE_CAP)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError("bad variable name %r" % name)
        self.variables = variables
        self.field = field_of_characteristic(char)
        self.char = self.field.char

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError("no variable %r in %r" % (name, self.variables))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, n):
        c = self.field.from_int(n) if isinstance(n, int) else n
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.variables): c})

    def var(self, name):
        exps = [0] * len(self.variables)
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != len(self.variables) or not all(
                isinstance(e, int) and e >= 0 for e in exps):
            raise ValueError("need one nonnegative int exponent per variable "
                             "of %r, got %r" % (self.variables, exps))
        c = self.field.from_int(coeff) if isinstance(coeff, int) else coeff
        if not c:
            return self.zero()
        return Polynomial(self, {exps: c})

    def parse(self, text):
        return _parse(self, text)

    def extend(self, extra):
        return Ring(self.variables + tuple(extra), self.char)

    def lift(self, poly):
        """Carry a polynomial from a ring whose variables are a subset of ours."""
        src = poly.ring
        pos = [self.index(name) for name in src.variables]
        terms = {}
        for mono, c in poly.terms.items():
            exps = [0] * len(self.variables)
            for i, e in enumerate(mono):
                exps[pos[i]] = e
            terms[tuple(exps)] = c
        return Polynomial(self, terms)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.variables == other.variables
                and self.field == other.field)

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return "%r[%s]" % (self.field, ",".join(self.variables))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _of(cls, ring, terms):
        """Wrap a term dict that has no zero coefficient, without a copy."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def constant_term(self):
        unit = (0,) * len(self.ring.variables)
        return self.terms.get(unit, self.ring.field.zero)

    def degree(self):
        if self.is_zero():
            raise ZeroPolynomial("degree of the zero polynomial")
        return max(sum(m) for m in self.terms)

    def min_degree(self):
        if self.is_zero():
            raise ZeroPolynomial("order of the zero polynomial")
        return min(sum(m) for m in self.terms)

    def min_degree_in(self, indices):
        """Smallest total degree of a term in the given variable slots."""
        if self.is_zero():
            raise ZeroPolynomial("order of the zero polynomial")
        return min(sum(m[i] for i in indices) for m in self.terms)

    def degree_of_var(self, name):
        i = self.ring.index(name)
        if self.is_zero():
            raise ZeroPolynomial("degree of the zero polynomial")
        return max(m[i] for m in self.terms)

    def vars_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def _same_ring(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise TypeError("polynomials from different rings")
        return other

    def __add__(self, other):
        other = self._same_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial._of(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._same_ring(other))

    def __rsub__(self, other):
        return self._same_ring(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.field.from_int(other))
        other = self._same_ring(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = terms.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial._of(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c):
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None  # the running product starts at the first set bit
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if out is None else out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def initial_form(self):
        """Homogeneous part of lowest total degree."""
        d = self.min_degree()
        return Polynomial(self.ring,
                          {m: c for m, c in self.terms.items() if sum(m) == d})

    def initial_form_in(self, indices):
        """Terms of lowest total degree in the given variable slots."""
        d = self.min_degree_in(indices)
        return Polynomial(self.ring,
                          {m: c for m, c in self.terms.items()
                           if sum(m[i] for i in indices) == d})

    def hasse_derivative(self, name, b):
        """Divided-power derivative of order b in one variable.

        Acts on x^n by the binomial coefficient C(n, b) and drops the
        exponent by b, which keeps it meaningful in small characteristic.
        """
        if b < 0:
            raise ValueError("derivative order must be >= 0")
        if b == 0:
            return self
        i = self.ring.index(name)
        field = self.ring.field
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            if e < b:
                continue
            k = field.from_int(math.comb(e, b)) * c
            if not k:
                continue
            mono = m[:i] + (e - b,) + m[i + 1:]
            s = terms.get(mono)
            s = k if s is None else s + k
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Polynomial(self.ring, terms)

    def translate(self, name, shift):
        """Substitute name -> name + shift, with shift free of that variable."""
        shift = self._same_ring(shift)
        i = self.ring.index(name)
        if i in shift.vars_used():
            raise IllegalSubstitution(
                "shift for %s mentions %s itself" % (name, name))
        field = self.ring.field
        # cache powers of the shift as we go
        powers = {0: self.ring.one()}

        def shift_power(j):
            if j not in powers:
                powers[j] = shift_power(j - 1) * shift
            return powers[j]

        out = self.ring.zero()
        for m, c in self.terms.items():
            e = m[i]
            rest = list(m)
            for j in range(e + 1):
                k = field.from_int(math.comb(e, j)) * c
                if not k:
                    continue
                rest[i] = e - j
                out = out + shift_power(j).scale(k) * Polynomial(
                    self.ring, {tuple(rest): field.one})
        return out

    def coefficients_in(self, name):
        """Split into coefficients of powers of one variable.

        Returns {exponent: coefficient polynomial}; the coefficients still
        live in the full ring but do not mention the variable.
        """
        i = self.ring.index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            part = out.setdefault(e, self.ring.zero())
            out[e] = part + Polynomial(self.ring,
                                       {m[:i] + (0,) + m[i + 1:]: c})
        return out

    def pth_power_root(self, e=1):
        """Inverse of the p^e-th power map, or None when there is none.

        Over F_p the power map fixes scalars, so the root exists exactly
        when every exponent is divisible by p^e.
        """
        p = self.ring.char
        if p == 0:
            raise SlopelabError("p-th roots need positive characteristic")
        if e < 1:
            raise ValueError("root exponent must be >= 1")
        q = p ** e
        terms = {}
        for m, c in self.terms.items():
            if any(x % q for x in m):
                return None
            terms[tuple(x // q for x in m)] = c
        return Polynomial(self.ring, terms)

    def canonical_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def canonical_string(self):
        if self.is_zero():
            return "0"
        pieces = []
        for m, c in self.canonical_terms():
            body = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.ring.variables, m) if e)
            cs = str(c)
            if body:
                if cs == "1":
                    text = body
                elif cs == "-1":
                    text = "-" + body
                else:
                    text = cs + "*" + body
            else:
                text = cs
            pieces.append(text)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self):
        return self.canonical_string()


class VariableSplit:
    """A partition of the ring variables into base and fiber blocks."""

    def __init__(self, ring, base, fiber):
        base, fiber = tuple(base), tuple(fiber)
        for name in base + fiber:
            ring.index(name)
        if set(base) & set(fiber):
            raise ValueError("base and fiber overlap")
        if set(base) | set(fiber) != set(ring.variables):
            raise ValueError("split must cover every variable")
        self.ring = ring
        self.base = base
        self.fiber = fiber

    def __repr__(self):
        return "VariableSplit(base=%r, fiber=%r)" % (self.base, self.fiber)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def _tokenize(text):
    """The tokens of text, each with its offset, then the end marker."""
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise SlopelabError("cannot read polynomial at %r" % text[pos:pos + 12])
        pos = m.end()
        out.append((m.group(m.lastindex), m.start(m.lastindex)))
    out.append((None, len(text)))  # end marker
    return out


def _parse(ring, text):
    tokens = _tokenize(text)
    k = [0]

    def peek():
        return tokens[k[0]][0]

    def take():
        tok = tokens[k[0]][0]
        k[0] += 1
        return tok

    def atom():
        at = tokens[k[0]][1]
        tok = take()
        if tok == "(":
            e = expr()
            if take() != ")":
                raise SlopelabError("unbalanced parenthesis in %r" % text)
            return e
        if tok == "-":
            return -atom()
        if tok is None:
            raise SlopelabError("polynomial text ended early: %r" % text)
        if tok.isdigit():
            return ring.constant(int(tok))
        if tok[0].isalpha() or tok[0] == "_":
            return ring.var(tok)
        raise SlopelabError("expected a factor at %r, position %d of %r"
                            % (text[at:at + 12], at, text))

    def factor():
        base = atom()
        if peek() == "^":
            take()
            exp = take()
            if exp is None or not exp.isdigit():
                raise SlopelabError("exponent must be a nonnegative integer")
            return base ** int(exp)
        return base

    def term():
        out = factor()
        while peek() == "*":
            take()
            out = out * factor()
        return out

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        out = term() * sign
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            out = out + term() * sign
        return out

    result = expr()
    if peek() is not None:
        raise SlopelabError("trailing junk in polynomial %r" % text)
    return result
