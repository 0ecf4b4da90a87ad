"""Buchberger-based ideal arithmetic: normal forms, membership, radical
membership by the extra-variable trick, ideal powers, and the dimension of a
monomial quotient.

Everything here is exact and deterministic. There is no caching; callers that
need repeated memberships against the same ideal should hold on to the
GroebnerBasis object themselves.
"""

import itertools

from .arith import SlopelabError
from .poly import Monomial, Polynomial

DEFAULT_PAIR_BUDGET = 50000


class BudgetExceeded(SlopelabError):
    """The S-pair queue outgrew the configured cap."""


class NotMonomial(SlopelabError):
    """An operation that needs monomial generators got something else."""


def order_key(order):
    if order == "grevlex":
        def key(m):
            return (m.degree(), tuple(-e for e in reversed(m.exps)))
    elif order == "grlex":
        def key(m):
            return (m.degree(), m.exps)
    elif order == "lex":
        def key(m):
            return m.exps
    else:
        raise ValueError("unknown term order %r" % (order,))
    return key


class IdealPresentation:
    """An ideal given by a finite generator list (zeros dropped)."""

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise TypeError("generator from the wrong ring: %r" % g)
            if not g.is_zero() and g not in gens:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    def is_monomial_ideal(self):
        return all(g.is_monomial() for g in self.generators)

    def monomial_generators(self):
        """Exponent vectors of the generators, minimalized by divisibility."""
        if not self.is_monomial_ideal():
            raise NotMonomial("ideal has a non-monomial generator")
        monos = [next(iter(g.terms)) for g in self.generators]
        keep = []
        for m in monos:
            if any(other.divides(m) and other != m for other in monos):
                continue
            if m not in keep:
                keep.append(m)
        return keep

    def __repr__(self):
        return "<ideal (%s)>" % ", ".join(
            g.canonical_string() for g in self.generators)


def leading(f, key):
    mono = max(f.terms, key=key)
    return mono, f.terms[mono]


def normal_form(f, basis, order="grevlex"):
    """Remainder of f on division by the listed polynomials."""
    key = order_key(order)
    ring = f.ring
    leads = [leading(g, key) + (g,) for g in basis if not g.is_zero()]
    remainder = ring.zero()
    work = f
    while not work.is_zero():
        mono, coeff = leading(work, key)
        hit = None
        for lm, lc, g in leads:
            if lm.divides(mono):
                hit = (lm, lc, g)
                break
        if hit is None:
            head = Polynomial(ring, {mono: coeff})
            remainder = remainder + head
            work = work - head
        else:
            lm, lc, g = hit
            factor = Polynomial(ring, {mono.div(lm): coeff / lc})
            work = work - factor * g
    return remainder


class GroebnerBasis:
    def __init__(self, ring, order, polys):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)

    def normal_form(self, f):
        return normal_form(f, self.polys, self.order)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def leading_monomials(self):
        key = order_key(self.order)
        return [leading(g, key)[0] for g in self.polys]

    def __repr__(self):
        return "<groebner %s: %s>" % (
            self.order, "; ".join(g.canonical_string() for g in self.polys))


def buchberger(ideal, order="grevlex", budget=None):
    """Reduced Groebner basis of the ideal, monic, sorted by leading term."""
    if budget is None:
        budget = DEFAULT_PAIR_BUDGET
    key = order_key(order)
    ring = ideal.ring
    basis = [monic(g, key) for g in ideal.generators]
    if not basis:
        return GroebnerBasis(ring, order, ())

    pairs = list(itertools.combinations(range(len(basis)), 2))
    enqueued = len(pairs)
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        lmi, _ = leading(fi, key)
        lmj, _ = leading(fj, key)
        # coprime leading terms never produce anything new
        if lmi.mul(lmj) == lmi.lcm(lmj):
            continue
        lcm = lmi.lcm(lmj)
        spoly = (Polynomial(ring, {lcm.div(lmi): ring.field.one}) * fi
                 - Polynomial(ring, {lcm.div(lmj): ring.field.one}) * fj)
        rem = normal_form(spoly, basis, order)
        if rem.is_zero():
            continue
        basis.append(monic(rem, key))
        new = len(basis) - 1
        fresh = [(k, new) for k in range(new)]
        enqueued += len(fresh)
        if enqueued > budget:
            raise BudgetExceeded(
                "S-pair budget %d exceeded; raise it if the input is "
                "really this large" % budget)
        pairs.extend(fresh)

    # minimalize: drop members whose leading term another one divides
    keep = []
    for idx, g in enumerate(basis):
        lm, _ = leading(g, key)
        dominated = False
        for jdx, h in enumerate(basis):
            if idx == jdx:
                continue
            lmh, _ = leading(h, key)
            if lmh.divides(lm) and (lmh != lm or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    # tail-reduce each survivor against the others
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        reduced.append(monic(normal_form(g, others, order), key))
    reduced.sort(key=lambda g: key(leading(g, key)[0]))
    return GroebnerBasis(ring, order, reduced)


def monic(f, key):
    """Scale f so that its leading coefficient under the key is one."""
    _, lc = leading(f, key)
    return f.scale(1 / lc)


def ideal_member(f, ideal, order="grevlex", budget=None):
    gb = buchberger(ideal, order, budget)
    if f.is_zero():
        return True
    return gb.contains(f)


def radical_member(f, ideal, budget=None):
    """Membership in the radical via the 1 - t*f localization trick."""
    ring = ideal.ring
    if f.is_zero():
        return True
    fresh = "t"
    while fresh in ring.variables:
        fresh += "_"
    big = ring.extend((fresh,))
    gens = [big.lift(g) for g in ideal.generators]
    gens.append(big.one() - big.var(fresh) * big.lift(f))
    gb = buchberger(IdealPresentation(big, gens), "grevlex", budget)
    return gb.contains(big.one())


def ideal_power(ideal, m):
    """The m-fold product, presented by all m-fold generator products."""
    if m < 0:
        raise ValueError("ideal power needs m >= 0")
    ring = ideal.ring
    if m == 0:
        return IdealPresentation(ring, [ring.one()])
    prods = []
    for combo in itertools.combinations_with_replacement(ideal.generators, m):
        g = ring.one()
        for factor in combo:
            g = g * factor
        prods.append(g)
    return IdealPresentation(ring, prods)


def ideal_sum(a, b):
    if a.ring != b.ring:
        raise TypeError("ideals in different rings")
    return IdealPresentation(a.ring, list(a.generators) + list(b.generators))


def monomial_dimension(ideal):
    """Krull dimension of ring/ideal for a monomial ideal.

    This is the largest number of variables meeting no generator's support.
    Returns -1 when a generator is a unit (empty vanishing locus).
    """
    monos = ideal.monomial_generators()
    n = len(ideal.ring.variables)
    if any(m.degree() == 0 for m in monos):
        return -1
    supports = [frozenset(i for i, e in enumerate(m.exps) if e) for m in monos]
    best = -1
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                best = size
                break
        if best >= 0:
            break
    return best
