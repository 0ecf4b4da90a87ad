"""Newton polyhedra of monomial ideals and the order functions they carry.

The polyhedron of a monomial ideal is the convex hull of the generator
exponents plus the nonnegative orthant. Its facets with positive threshold
are exactly the Rees valuations of the ideal, so the asymptotic order of a
monomial against the ideal drops out of a finite min formula, and integral
closure membership is a system of facet inequalities.
"""

import itertools
import math
from fractions import Fraction

from .arith import INF, ExtendedRational, SlopelabError, echelon
from .groebner import NotMonomial, ideal_power

DIMENSION_CAP = 4


class DimensionCap(SlopelabError):
    """Facet enumeration is only wired up through dimension 4."""


class NewtonPolyhedron:
    """Facet description: list of (weights, threshold), all integers,
    weights primitive and componentwise nonnegative, threshold positive."""

    def __init__(self, ring, facets):
        self.ring = ring
        self.facets = tuple(sorted(facets))

    def __repr__(self):
        return "NewtonPolyhedron(%r)" % (list(self.facets),)


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det(minor)
    return total


def _cross(directions, n):
    """A nonzero integer vector orthogonal to n-1 integer directions."""
    w = []
    for i in range(n):
        minor = [d[:i] + d[i + 1:] for d in directions]
        sign = -1 if i % 2 else 1
        w.append(sign * _det(minor))
    return tuple(w)


def build_polyhedron(ideal):
    """Enumerate the facets of conv(generator exponents) + orthant.

    Brute force: every facet hyperplane is spanned by n-1 directions taken
    from generator differences (with a common basepoint) and coordinate
    rays, so candidates come from all such brackets; each candidate is then
    validated (nonnegative, positive threshold, tight set of rank n-1).
    Facets through the origin carry no order information and are dropped.
    """
    n = len(ideal.ring.variables)
    if n > DIMENSION_CAP:
        raise DimensionCap("facet enumeration capped at %d variables"
                           % DIMENSION_CAP)
    gens = ideal.monomial_generators()
    if not gens:
        raise NotMonomial("cannot build the polyhedron of the zero ideal")

    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    candidates = set()
    for k in range(1, min(n, len(gens)) + 1):
        for subset in itertools.combinations(gens, k):
            base = subset[0]
            diffs = [tuple(a - b for a, b in zip(s, base)) for s in subset[1:]]
            for rays in itertools.combinations(units, n - k):
                w = _cross([list(d) for d in diffs + list(rays)], n)
                if all(x == 0 for x in w):
                    continue
                if all(x <= 0 for x in w):
                    w = tuple(-x for x in w)
                if any(x < 0 for x in w):
                    continue
                g = 0
                for x in w:
                    g = math.gcd(g, x)
                candidates.add(tuple(x // g for x in w))

    facets = set()
    for w in candidates:
        values = [sum(a * b for a, b in zip(w, g)) for g in gens]
        thr = min(values)
        if thr <= 0:
            continue
        tight = [g for g, v in zip(gens, values) if v == thr]
        base = tight[0]
        rows = [[a - b for a, b in zip(g, base)] for g in tight[1:]]
        rows += [list(u) for u, wi in zip(units, w) if wi == 0]
        if len(echelon([[Fraction(x) for x in r] for r in rows])) == n - 1:
            facets.add((w, thr))
    return NewtonPolyhedron(ideal.ring, facets)


def least_weight_ratio(f, pairs):
    """The least v_w(f)/value over (weights, value) pairs, v_w(f) being the
    least w-weight of a term of f; infinite when f is zero or there is no
    pair.

    This is nubar_I(f) = min over the Rees valuations v of I of
    v(f)/v(I) (Rees 1956; Swanson and Huneke, Integral Closure, ch. 10)
    with monomial valuations, as the Newton facets of a monomial ideal and
    a valuation certificate both supply them.
    """
    if f.is_zero() or not pairs:
        return INF
    return ExtendedRational(min(
        Fraction(min(sum(a * e for a, e in zip(w, m)) for m in f.terms),
                 value)
        for w, value in pairs))


def nubar_monomial(ideal_or_polyhedron, f):
    """Asymptotic order of f against a monomial ideal: the facet min formula.

    Exact for any polynomial f of the ambient ring, monomial or not, since a
    monomial valuation never sees cancellation between distinct exponents.
    """
    P = ideal_or_polyhedron
    if not isinstance(P, NewtonPolyhedron):
        P = build_polyhedron(P)
    return least_weight_ratio(f, P.facets)


def closure_member(f, ideal, a=1, polyhedron=None):
    """Is f in the integral closure of the a-th power of the ideal?

    The polyhedron of ideal^a is built from scratch (not by scaling the
    facets of the base ideal), so this route stays independent from the
    nubar formula. Pass polyhedron= to reuse one across a batch.
    """
    if f.is_zero():
        return True
    if a < 1:
        raise ValueError("power must be >= 1")
    P = polyhedron
    if P is None:
        P = build_polyhedron(ideal_power(ideal, a))
    for w, thr in P.facets:
        for m in f.terms:
            if sum(x * e for x, e in zip(w, m)) < thr:
                return False
    return True
