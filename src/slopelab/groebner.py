"""Buchberger-based ideal arithmetic: normal forms, membership, radical
membership by the extra-variable trick, ideal powers, and the dimension of a
monomial quotient.

Everything here is exact and deterministic. The one term order is graded
reverse lex (grevlex). Each basis element's leading term is fixed once, when
the element is made monic, and a GroebnerBasis keeps it next to the
polynomial. Division works on one dict of terms: each step takes the
largest term off a heap in grevlex order and subtracts a shifted multiple
of a basis element from the dict in place, term by term, and S-polynomials
are written into such a dict straight from the two shifted elements, so
neither builds intermediate polynomials. The degrees of the popped terms
never rise, so each time the degree falls the division cuts the basis
entries to those whose leading term has at most that degree, in list
order: once f is cut below degree j, the degree-j leading terms of
m^j + J are not tried again.

Buchberger queues a pair only when at least one side is not a monomial,
since the S-polynomial of two monomials is zero, both for the generators
and for each element that joins the basis; it takes the queued pairs
first in, first out, and skips one whose leading terms are coprime. The
pair budget counts queued pairs only. Minimalizing keeps the first
element for each leading term and tries only leading terms of lower
degree as divisors; tail reduction passes over monomials, which are
already reduced. A power of a monomial ideal is built by adding exponent
tuples, with no polynomial products, and a coefficient one is never
multiplied in; an element whose leading coefficient is one is kept, not
rescaled, when it is made monic.

An IdealPresentation hashes once and compares by its ring and generator
tuple, so it can key a dict cheaply. Callers that need repeated
memberships against the same ideal hold on to the GroebnerBasis object: a
presented local ring (samuel.LocalRingPresentation) keeps the bases of its
relations, its initial ideal and each ideal power plus relations it has
asked about, keyed by (ideal, exponent).
"""

import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .arith import SlopelabError
from .poly import Polynomial

DEFAULT_PAIR_BUDGET = 50000


class BudgetExceeded(SlopelabError):
    """The S-pair queue outgrew the configured cap."""


class NotMonomial(SlopelabError):
    """An operation that needs monomial generators got something else."""


class IdealPresentation:
    """An ideal given by a finite generator list (zeros and repeats dropped).

    Two presentations are equal when their rings and generator tuples are;
    the hash is computed once, on first use.
    """

    def __init__(self, ring, generators):
        gens = {}
        for g in generators:
            if g.ring is not ring and g.ring != ring:
                raise TypeError("generator from the wrong ring: %r" % g)
            if not g.is_zero():
                gens.setdefault(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._hash = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, IdealPresentation) and self.ring == other.ring
            and self.generators == other.generators)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.generators))
        return self._hash

    def is_monomial_ideal(self):
        return all(g.is_monomial() for g in self.generators)

    def monomial_generators(self):
        """Exponent vectors of the generators, minimalized by divisibility."""
        if not self.is_monomial_ideal():
            raise NotMonomial("ideal has a non-monomial generator")
        monos = [next(iter(g.terms)) for g in self.generators]
        keep = []
        for m in monos:
            if any(_divides(other, m) and other != m for other in monos):
                continue
            if m not in keep:
                keep.append(m)
        return keep

    def __repr__(self):
        return "<ideal (%s)>" % ", ".join(
            g.canonical_string() for g in self.generators)


def _grevlex(m):
    """Sort key of the one term order, graded reverse lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a, b):
    return all(map(le, a, b))


def _quotient(m, d):
    """m / d for a monomial d that divides m."""
    return tuple(map(sub, m, d))


def leading(f):
    mono = max(f.terms, key=_grevlex)
    return mono, f.terms[mono]


def monic(f):
    """Scale f so that its leading coefficient is one."""
    return _monic_lead(f)[2]


def _monic_lead(f):
    # (leading monomial, leading coefficient, f made monic); a monic f is
    # returned as it is
    lm, lc = leading(f)
    if lc == 1:
        return lm, lc, f
    g = f.scale(1 / lc)
    return lm, g.terms[lm], g


def _heap_key(m):
    """Heap entry of the monomial m, smallest for the grevlex-largest:
    higher degree first, then the smaller reversed exponent tuple."""
    return (-sum(m), m[::-1], m)


def _add_shifted(work, factor, shift, g, lm, heap=None):
    """work += factor * x^shift * (g without its term at lm), in place.

    A term new to work is pushed onto heap when one is given.
    """
    for m, c in g.terms.items():
        if m == lm:
            continue
        m = tuple(map(add, m, shift))
        t = factor * c
        s = work.get(m)
        if s is None:
            work[m] = t
            if heap is not None:
                heappush(heap, _heap_key(m))
            continue
        s = s + t
        if s:
            work[m] = s
        else:
            del work[m]


def _reduce(ring, work, leads):
    """Divide the term dict work, in place, by the (lm, lc, g) entries.

    Each step takes the largest work term and the first entry, in list
    order, whose leading monomial divides it, and subtracts that multiple
    of g term by term; the leading terms cancel, so g's is skipped. A term
    no entry divides moves to the remainder. The largest term comes off a
    heap built once from work; each term is pushed when it appears, and
    an entry whose term has cancelled since is skipped when popped.

    Every term a step adds is below the term it reduces, so the popped
    degrees never rise. Whenever the popped degree falls, the entries are
    cut, in list order, to those whose leading monomial has at most that
    degree; no other one can divide a term still to come, so the cut
    changes no step.
    """
    heap = [_heap_key(m) for m in work]
    heapify(heap)
    remainder = {}
    degree = None
    while heap:
        key, _, mono = heappop(heap)
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        if -key != degree:
            degree = -key
            leads = [entry for entry in leads if sum(entry[0]) <= degree]
        for lm, lc, g in leads:
            if _divides(lm, mono):
                _add_shifted(work, -(coeff / lc), _quotient(mono, lm), g, lm,
                             heap)
                break
        else:
            remainder[mono] = coeff
    return Polynomial._of(ring, remainder)


def normal_form(f, basis):
    """Remainder of f on division by the listed polynomials."""
    return _reduce(f.ring, dict(f.terms),
                   [leading(g) + (g,) for g in basis if not g.is_zero()])


class GroebnerBasis:
    """A reduced basis, kept as (leading monomial, coefficient, poly)."""

    def __init__(self, ring, leads):
        self.ring = ring
        self.leads = tuple(leads)
        self.polys = tuple(g for _, _, g in self.leads)

    def normal_form(self, f):
        return _reduce(self.ring, dict(f.terms), self.leads)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def leading_monomials(self):
        return [lm for lm, _, _ in self.leads]

    def __repr__(self):
        return "<groebner grevlex: %s>" % "; ".join(
            g.canonical_string() for g in self.polys)


def _spoly(lcm, entry_i, entry_j):
    """Terms of (lcm/lmi)*fi - (lcm/lmj)*fj for monic basis entries.

    Both shifted leading terms are lcm with coefficient one and cancel, so
    neither is written.
    """
    (lmi, one, fi), (lmj, _, fj) = entry_i, entry_j
    terms = {}
    _add_shifted(terms, one, _quotient(lcm, lmi), fi, lmi)
    _add_shifted(terms, -one, _quotient(lcm, lmj), fj, lmj)
    return terms


def buchberger(ideal):
    """Reduced Groebner basis of the ideal, monic, sorted by leading term."""
    ring = ideal.ring
    basis = [_monic_lead(g) for g in ideal.generators]
    if not basis:
        return GroebnerBasis(ring, ())

    budget = DEFAULT_PAIR_BUDGET
    # the S-polynomial of two monomials is zero, so a pair is queued only
    # when one side is not a monomial
    monomial = [len(g.terms) == 1 for _, _, g in basis]
    pairs = deque((i, j)
                  for i, j in itertools.combinations(range(len(basis)), 2)
                  if not (monomial[i] and monomial[j]))
    enqueued = len(pairs)
    while pairs:
        i, j = pairs.popleft()
        lmi, lmj = basis[i][0], basis[j][0]
        lcm = tuple(map(max, lmi, lmj))
        # coprime leading terms never produce anything new
        if lcm == tuple(map(add, lmi, lmj)):
            continue
        rem = _reduce(ring, _spoly(lcm, basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        basis.append(_monic_lead(rem))
        new = len(basis) - 1
        monomial.append(len(rem.terms) == 1)
        fresh = [(k, new) for k in range(new)
                 if not (monomial[k] and monomial[new])]
        enqueued += len(fresh)
        if enqueued > budget:
            raise BudgetExceeded(
                "S-pair budget %d exceeded; raise it if the input is "
                "really this large" % budget)
        pairs.extend(fresh)

    # minimalize: keep the first member for each leading term, and drop
    # one whose leading term a leading term of lower degree divides (a
    # proper divisor always has lower degree); by transitivity the lower
    # survivors are the only ones to try
    firsts = {}
    for entry in basis:
        firsts.setdefault(entry[0], entry)
    lower = []
    for _, lms in itertools.groupby(sorted(firsts, key=sum), key=sum):
        lower += [lm for lm in lms
                  if not any(_divides(low, lm) for low in lower)]
    minimal = set(lower)
    keep = [entry for lm, entry in firsts.items() if lm in minimal]
    # tail-reduce each survivor against the others; a monomial survivor is
    # its leading term, which no other leading term divides, so it stays
    reduced = []
    for idx, entry in enumerate(keep):
        g = entry[2]
        if len(g.terms) == 1:
            reduced.append(entry)
            continue
        others = keep[:idx] + keep[idx + 1:]
        reduced.append(_monic_lead(_reduce(ring, dict(g.terms), others)))
    reduced.sort(key=lambda entry: _grevlex(entry[0]))
    return GroebnerBasis(ring, reduced)


def ideal_member(f, ideal):
    gb = buchberger(ideal)
    if f.is_zero():
        return True
    return gb.contains(f)


def radical_member(f, ideal):
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
    gb = buchberger(IdealPresentation(big, gens))
    return gb.contains(big.one())


def ideal_power(ideal, m):
    """The m-fold product, presented by all m-fold generator products.

    The products come in combinations_with_replacement order. For a
    monomial ideal each one is the sum of its factors' exponent tuples
    with the product of their coefficients, so no polynomial is
    multiplied, and a coefficient one is never multiplied in.
    """
    if m < 0:
        raise ValueError("ideal power needs m >= 0")
    ring = ideal.ring
    if m == 0:
        return IdealPresentation(ring, [ring.one()])
    gens = ideal.generators
    prods = []
    if ideal.is_monomial_ideal():
        one = ring.field.one
        # (exponents, coefficient or None when it is one)
        terms = [(e, None if c == 1 else c)
                 for g in gens for e, c in g.terms.items()]
        for combo in itertools.combinations_with_replacement(terms, m):
            coeff = one
            for _, c in combo:
                if c is not None:
                    coeff = coeff * c
            mono = tuple(map(sum, zip(*[e for e, _ in combo])))
            prods.append(Polynomial._of(ring, {mono: coeff}))
    else:
        for combo in itertools.combinations_with_replacement(gens, m):
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
    if any(sum(m) == 0 for m in monos):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monos]
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
