"""Order functions of local rings at the origin (or a coordinate prime):
the plain adic order nu, its asymptotic companion nubar, the kernel of the
degree-one comparison map into the associated graded ring, and the slope
built from it.

A local ring is presented as polynomial ring / relations, localized at the
origin. Membership questions reduce to ideal membership in the polynomial
ring because every ideal we test against contains a power of the maximal
ideal.
"""

import itertools
import math
from fractions import Fraction

from .arith import INF, ExtendedRational, SlopelabError, echelon, ext_min
from .groebner import (
    IdealPresentation,
    buchberger,
    ideal_power,
    ideal_sum,
    local_basis,
    monomial_dimension,
    normal_form,
    radical_member,
)
from .newton import nubar_monomial
from .poly import Polynomial

NU_CAP_DEFAULT = 24
LIMIT_N_DEFAULT = 20
SHIFT_DEGREE = 2  # top degree of the slope search's shift monomials


class CertificateRejected(SlopelabError):
    pass


class UnknownKernel(SlopelabError):
    pass


class NotALambdaSequence(SlopelabError):
    pass


class NotApplicable(SlopelabError):
    pass


class LocalRingPresentation:
    """Polynomial ring modulo relations J, localized at the origin.

    The presentation owns the bases its questions need and builds each one
    once, on first use; they live as long as the instance: the grevlex
    bases of J (zero tests, and the residues of nubar against an ideal
    other than m) and of the initial ideal (dimension and the Frobenius
    kernel), the local basis of J + m^cap for each cap (nu, and nubar
    against m), and the grevlex basis of ideal^j + J for each other ideal
    and exponent j asked for (nubar against it). The maximal ideal is
    built once, so its hash is computed once.
    """

    def __init__(self, ring, relations=()):
        gens = list(relations)
        for g in gens:
            if not g.is_zero() and g.constant_term():
                raise ValueError(
                    "relation %s does not vanish at the origin" % g)
        self.ring = ring
        self.relations = IdealPresentation(ring, gens)
        self._maximal = IdealPresentation(
            ring, [ring.var(v) for v in ring.variables])
        self._bases = {}

    def _basis(self, key, build):
        """The basis kept under key; build() makes it on first use."""
        if key not in self._bases:
            self._bases[key] = build()
        return self._bases[key]

    def maximal_ideal(self):
        return self._maximal

    def is_zero_element(self, f):
        return f.is_zero() or self.relation_basis().contains(f)

    def relation_basis(self):
        return self._basis("J", lambda: buchberger(self.relations))

    def initial_basis(self):
        return self._basis("in(J)",
                           lambda: buchberger(self.initial_ideal()))

    def power_basis(self, ideal, j):
        """Groebner basis of ideal^j + J."""
        return self._basis((ideal, j), lambda: buchberger(
            ideal_sum(ideal_power(ideal, j), self.relations)))

    def initial_ideal(self):
        """Initial forms of the presented generators.

        This is the tangent cone relative to the presentation: exact when
        the relations are principal or homogeneous, a subideal in general.
        """
        return IdealPresentation(
            self.ring,
            [g.initial_form() for g in self.relations.generators])

    def embedding_dimension(self):
        rows = _linear_part_rows(self.relations.generators, self.ring)
        rank = len(echelon(rows))
        return len(self.ring.variables) - rank

    def dimension(self):
        """Krull dimension, through the initial ideal of the presentation.

        The initial forms of the given relations span in(J) exactly when J
        is principal or every relation is homogeneous; only then is the
        answer exact, and otherwise this raises NotApplicable.
        """
        gens = self.relations.generators
        if not gens:
            return len(self.ring.variables)
        if len(gens) > 1 and any(g.min_degree() != g.degree() for g in gens):
            raise NotApplicable(
                "the dimension is computed only for a principal or "
                "homogeneous presentation; (%s) is neither"
                % ", ".join(g.canonical_string() for g in gens))
        lead = IdealPresentation(
            self.ring,
            [Polynomial(self.ring, {m: self.ring.field.one})
             for m in self.initial_basis().leading_monomials()])
        return monomial_dimension(lead)

    def excess(self):
        return self.embedding_dimension() - self.dimension()

    def __repr__(self):
        return "<local ring %r / (%s)>" % (
            self.ring,
            ", ".join(g.canonical_string() for g in self.relations.generators))


class NuValue:
    """Result of nu: an exact order, or a certified 'at least cap'."""

    __slots__ = ("value", "at_least")

    def __init__(self, value, at_least=False):
        self.value = value
        self.at_least = at_least

    def __repr__(self):
        tag = ">=" if self.at_least else "="
        return "nu %s %s" % (tag, self.value)


def nu(presentation, f, cap=NU_CAP_DEFAULT):
    """Adic order of f in the local ring: sup of j with f in m^j.

    Exact up to the cap; returns at_least=True when f survives that deep.
    It is the first sample of nubar's limit route against m (see _orders):
    f is divided once, by the local basis of J + m^cap, and the order is
    the lowest degree left. Only when nothing is left is f tested for
    zero, and the order is infinite when f lies in J in the polynomial
    ring. That zero test is global: an f that is zero only in the
    localization, such as x in k[x, y]/(x*y - x), where y - 1 is a unit,
    reads 'at least cap'.
    """
    _check_cap("cap", cap)
    order, at_least = next(
        _orders(presentation, f, presentation.maximal_ideal(), cap))
    if order is INF:
        return NuValue(INF)
    return NuValue(ExtendedRational(order), at_least)


class ValuationCertificate:
    """Claimed Rees valuations of an ideal: monomial valuations together
    with the value each one takes on the ideal.

    Structural checks happen here; the deep claim (that these really are
    the Rees valuations of the ideal in the quotient) is the caller's to
    stand behind, and the acceptance suite corroborates it against the
    power-limit estimator on the corpus.
    """

    def __init__(self, entries):
        entries = [(valuation, _claim(claimed))
                   for valuation, claimed in entries]
        if not entries:
            raise CertificateRejected("empty certificate")
        self.entries = entries

    def validate(self, presentation, ideal):
        for valuation, claimed in self.entries:
            if claimed <= ExtendedRational(0) or claimed.is_infinite:
                raise CertificateRejected(
                    "claimed ideal value %s is not positive and finite"
                    % claimed)
            actual = valuation.ideal_value(ideal)
            if actual != claimed:
                raise CertificateRejected(
                    "valuation takes value %s on the ideal, certificate "
                    "claims %s" % (actual, claimed))

    def evaluate(self, f):
        best = INF
        for valuation, claimed in self.entries:
            v = valuation.value(f)
            if v.is_infinite:
                continue
            best = ext_min(best, v / claimed.as_fraction)
        return best


def _claim(claimed):
    """A claimed ideal value as an ExtendedRational; it lives on Q>=0, so
    a negative claim is rejected here."""
    if isinstance(claimed, ExtendedRational):
        return claimed
    try:
        return ExtendedRational(claimed)
    except ValueError:
        raise CertificateRejected(
            "claimed ideal value %s is not positive and finite" % claimed)


class NubarResult:
    """A nubar value, its status and the certificate that proves it.

    The limit route also keeps its samples, (n, nu(f^n)) pairs, and in
    capped the n whose sample is only 'at least' its value, the cap.
    """

    def __init__(self, value, status, certificate=None, samples=None,
                 capped=()):
        self.value = value
        self.status = status  # "exact" or "lower-bound"
        self.certificate = certificate
        self.samples = samples or []
        self.capped = tuple(capped)

    def __repr__(self):
        return "nubar %s (%s)" % (self.value, self.status)


def nubar(presentation, f, ideal=None, strategy="auto", certificate=None,
          max_n=LIMIT_N_DEFAULT, cap=NU_CAP_DEFAULT):
    """Asymptotic order of f against an ideal of the local ring.

    Three routes:
      monomial    -- the Newton polyhedron formula; needs a monomial ideal
                     in a relation-free presentation; exact.
      certificate -- min of v(f)/v(ideal) over supplied valuations, or
                     infinite when f is zero in the ring; exact once the
                     certificate validates. A value below the order of f
                     against the ideal, a proven lower bound of nubar, is
                     rejected. The order and the zero test are the first
                     sample of the limit route.
      limit       -- max over n <= max_n of nu(f^n)/n; always a valid
                     lower bound, and exact (infinite) when some power of
                     f dies in the ring.

    The limit route reads its samples from _orders, which carries one
    residue, r_n, the normal form of r_(n-1)*f, and builds f^n once, for
    the global zero test at the first zero residue; from there on it
    carries the normal form of f^n modulo J for that test. A sample that
    reaches the cap is only 'at least' it; capped lists its n. Over F_p,
    when no power is zero, it tests one more, f^q for the least power q
    of p above max_n: the power map fixes F_p, so f^q is f with every
    exponent multiplied by q and needs no product. If f^q is zero the
    answer is infinite (exact), with (q, inf) as the last sample; if not,
    the lower bound and its samples stand as they were.
    """
    _check_choice("nubar strategy", strategy,
                  ("auto", "monomial", "certificate", "limit"))
    _check_cap("max_n", max_n)
    _check_cap("cap", cap)
    if ideal is None:
        ideal = presentation.maximal_ideal()
    if strategy == "auto":
        if not presentation.relations.generators and ideal.is_monomial_ideal():
            strategy = "monomial"
        elif certificate is not None:
            strategy = "certificate"
        else:
            strategy = "limit"

    if strategy == "monomial":
        if presentation.relations.generators:
            raise SlopelabError(
                "monomial strategy needs a relation-free presentation")
        return NubarResult(nubar_monomial(ideal, f), "exact",
                           certificate="newton-polyhedron")

    if strategy == "certificate":
        if certificate is None:
            raise CertificateRejected("no certificate supplied")
        certificate.validate(presentation, ideal)
        order, _ = next(_orders(presentation, f, ideal, cap))
        if order is INF:
            return NubarResult(INF, "exact", certificate="zero-element")
        value = certificate.evaluate(f)
        if value < order:
            # nubar(f) >= nu(f), so the certificate cannot be right
            raise CertificateRejected(
                "the certificate gives %s, below the order %d of %s"
                % (value, order, f.canonical_string()))
        return NubarResult(value, "exact",
                           certificate="valuation-certificate")

    best = Fraction(0)
    samples, capped = [], []
    orders = itertools.islice(_orders(presentation, f, ideal, cap), max_n)
    for n, (order, at_least) in enumerate(orders, 1):
        if order is INF:
            # f is nilpotent against the relations: the limit is infinite
            samples.append((n, INF))
            return NubarResult(INF, "exact", certificate="nilpotent-power",
                               samples=samples, capped=capped)
        samples.append((n, ExtendedRational(order)))
        if at_least:
            capped.append(n)
        ratio = Fraction(order, n)
        if ratio > best:
            best = ratio
    q = _frobenius_zero(presentation, f, max_n)
    if q:
        samples.append((q, INF))
        return NubarResult(INF, "exact", certificate="nilpotent-power",
                           samples=samples, capped=capped)
    return NubarResult(ExtendedRational(best), "lower-bound",
                       samples=samples, capped=capped)


def _frobenius_zero(presentation, f, max_n):
    """Over F_p, the least power q of p above max_n when f^q is zero in
    the ring, else None; None at once in characteristic 0."""
    q = _frobenius_exponent(presentation.ring.char, max_n)
    if q and presentation.is_zero_element(_frobenius_power(f, q)):
        return q
    return None


def _frobenius_exponent(p, max_n):
    """The least power q of p above max_n, the Frobenius power the limit
    route tests for zero; None in characteristic 0."""
    if not p:
        return None
    q = p
    while q <= max_n:
        q *= p
    return q


def _frobenius_power(f, q):
    """f^q for a power q of the characteristic p: (a + b)^q = a^q + b^q,
    and c^q = c on F_p, so each term keeps its coefficient and has its
    exponents multiplied by q."""
    return Polynomial._of(f.ring, {tuple(e * q for e in m): c
                                   for m, c in f.terms.items()})


def _check_choice(kind, value, choices):
    if value not in choices:
        raise SlopelabError("unknown %s %r (choose %s or %s)" % (
            kind, value, ", ".join(choices[:-1]), choices[-1]))


def _check_cap(name, value):
    if value < 1:
        raise SlopelabError("%s must be a positive integer" % name)


def _orders(presentation, f, ideal, cap):
    """Orders against ideal of f, f^2, ... in turn, as (order, at_least):
    the largest j <= cap with f^n in ideal^j + J, flagged at_least when
    that is the cap, or (INF, False) for a power that is zero in the ring,
    which ends the run.

    Which basis divides, and how an order is read off, is decided once.
    Against the maximal ideal m it is the local basis of J + m^cap: in the
    local degree order, it is, together with the monomials of degree j, a
    standard basis of J + m^j for every j <= cap, so the order is the
    lowest degree left, or the cap when nothing is left. Against any other
    ideal it is the grevlex basis of J, and each ideal^j + J is tested on
    what is left in turn. Either way the normal form of g depends only on
    g modulo that basis' ideal, so r_1 = NF(f) and r_n = NF(r_(n-1)*f) is
    the normal form of f^n. A nonzero r_n proves f^n nonzero, so the
    global zero test runs only when r_n is zero: on f^n at the first such
    n, n0. The residue then stays zero, so from n0 on the run carries
    w_n, the normal form of w_(n-1)*f modulo J's grevlex basis, from
    w_n0 = NF(f^n0), and tests it for zero in place of f^n.
    """
    if ideal == presentation.maximal_ideal():
        basis = presentation._basis(
            ("local", cap), lambda: local_basis(presentation.relations, cap))

        def order(rest):
            if rest.is_zero():
                return cap, True
            return rest.min_degree(), False
    else:
        basis = presentation.relation_basis()

        def order(rest):
            for j in range(1, cap + 1):
                if not presentation.power_basis(ideal, j).contains(rest):
                    return j - 1, False
            return cap, True
    rest = basis.normal_form(f)
    n = 1
    while not rest.is_zero():
        yield order(rest)
        n += 1
        rest = basis.normal_form(rest * f)
    power = f ** n
    if presentation.is_zero_element(power):
        yield INF, False
        return
    grevlex = presentation.relation_basis()
    carried = grevlex.normal_form(power)
    while not carried.is_zero():
        yield order(rest)
        carried = grevlex.normal_form(carried * f)
    yield INF, False


class KernelReport:
    def __init__(self, basis, t, classification, method):
        self.basis = tuple(basis)
        self.r = len(self.basis)
        self.t = t
        self.classification = classification
        self.method = method

    def __repr__(self):
        return "<kernel r=%d t=%d %s via %s>" % (
            self.r, self.t, self.classification, self.method)


def _linear_part_rows(polys, ring):
    rows = []
    n = len(ring.variables)
    for g in polys:
        row = [ring.field.zero] * n
        for mono, c in g.terms.items():
            if sum(mono) == 1:
                row[mono.index(1)] = c
        rows.append(row)
    return rows


def _row_to_linear(ring, row):
    out = ring.zero()
    for i, c in enumerate(row):
        if c:
            out = out + ring.var(ring.variables[i]).scale(c)
    return out


def kernel_lambda(presentation, method=None, prime=()):
    """Degree-one nilpotents of the associated graded ring of the origin,
    or, when prime names some variables, of the coordinate prime they
    span (see _kernel_at_prime; no method is chosen there).

    Exact routes at the origin: monomial initial ideal (radical by
    squarefree parts), principal initial ideal (is it a scalar times a
    power of a linear form?), and, over F_p in at most three variables,
    the null space of the Frobenius-linear map a -> sum a_i NF(x_i^q).
    Anything else comes back labeled partial.
    """
    if method is not None:
        _check_choice("kernel method", method,
                      ("monomial", "factorization", "frobenius", "partial"))
    if prime:
        if method is not None:
            raise UnknownKernel("a kernel method is chosen only at the "
                                "origin, not at the prime (%s)"
                                % ", ".join(prime))
        return _kernel_at_prime(presentation, prime)
    ring = presentation.ring
    init = presentation.initial_ideal()
    t = presentation.excess()

    def classify(r):
        return "extremal" if r == t else "non-extremal"

    if method is None:
        if init.is_monomial_ideal():
            method = "monomial"
        elif len(init.generators) == 1:
            method = "factorization"
        elif ring.char and len(ring.variables) <= 3:
            method = "frobenius"
        else:
            method = "partial"

    if method == "monomial":
        monos = init.monomial_generators() if init.generators else []
        basis = []
        for i, name in enumerate(ring.variables):
            for m in monos:
                if m[i] and all(e == 0 for k, e in enumerate(m) if k != i):
                    basis.append(ring.var(name))
                    break
        return KernelReport(basis, t, classify(len(basis)), "monomial")

    if method == "factorization":
        if len(init.generators) != 1:
            raise UnknownKernel("factorization route needs a principal ideal")
        g = init.generators[0]
        ell = _power_of_linear_form(g)
        basis = [ell] if ell is not None else []
        return KernelReport(basis, t, classify(len(basis)), "factorization")

    if method == "frobenius":
        if not ring.char or len(ring.variables) > 3:
            raise UnknownKernel("the Frobenius route needs a prime field "
                                "and at most 3 variables")
        basis = [_row_to_linear(ring, row) for row in
                 _frobenius_kernel(init, presentation.initial_basis())]
        return KernelReport(basis, t, classify(len(basis)), "frobenius-Fp")

    found = []
    for name in ring.variables:
        if radical_member(ring.var(name), init):
            found.append(ring.var(name))
    classification = "extremal" if len(found) == t else "unknown"
    return KernelReport(found, t, classification, "partial")


def _kernel_at_prime(presentation, prime):
    """Kernel at the coordinate prime P spanned by the variables prime,
    hypersurface case; t is 0 when the relation has a term of degree 1
    along P, and 1 otherwise.

    Exact on the shape the non-closed points of the corpus show: over
    F_p, the initial form along P has degree q = p^e and is a sum of unit
    monomials times x_i^q over distinct prime variables x_i. The unit
    monomials are invertible at P, so once their smallest common one is
    divided out, the form is the q-th power of a linear form over the
    residue field exactly when it has a q-th root, and that root spans
    the kernel. Any other shape comes back labeled partial.
    """
    ring = presentation.ring
    if len(presentation.relations.generators) != 1:
        raise UnknownKernel("prime-point kernels only for hypersurfaces")
    f = presentation.relations.generators[0]
    idx = tuple(ring.index(v) for v in prime)
    if f.min_degree_in(idx) < 1:
        raise NotApplicable("the prime (%s) does not contain the relation %s"
                            % (", ".join(prime), f.canonical_string()))
    t = 0 if any(sum(m[i] for i in idx) == 1 for m in f.terms) else 1

    init = f.initial_form_in(idx)
    q = init.min_degree_in(idx)
    p, e = ring.char, ring.field.char_exponent(q)
    supports = [tuple(i for i in idx if m[i]) for m in init.terms]
    if not e or p ** e != q or any(len(s) != 1 for s in supports) \
            or len(set(supports)) != len(supports):
        return KernelReport([], t, "unknown", "partial")
    common = [0 if k in idx else min(m[k] for m in init.terms)
              for k in range(len(ring.variables))]
    form = Polynomial._of(ring, {tuple(a - b for a, b in zip(m, common)): c
                                 for m, c in init.terms.items()})
    root = form.pth_power_root(e)
    basis = [] if root is None else [root]
    return KernelReport(basis, t, "extremal" if len(basis) == t
                        else "non-extremal", "frobenius-form")


def _frobenius_kernel(init, gb):
    """Reduced echelon basis of the linear forms in the radical of an
    ideal over F_p, with Groebner basis gb, as coefficient rows.

    For q = p^e, (sum a_i x_i)^q = sum a_i x_i^q, so a linear form is in
    the radical exactly when sum a_i NF(x_i^q) = 0, once q reaches a
    Nullstellensatz exponent; Kollar's max(d, 3)^n, for generators of
    degree at most d, is one.
    """
    ring = init.ring
    p, n = ring.char, len(ring.variables)
    d = max((g.degree() for g in init.generators), default=1)
    q = p
    while q < max(d, 3) ** n:
        q *= p
    forms = [_power_normal_form(gb, ring.var(name), q)
             for name in ring.variables]
    columns = list(dict.fromkeys(m for h in forms for m in h.terms))
    zero, one = ring.field.zero, ring.field.one
    rows = [[h.terms.get(m, zero) for m in columns]
            + [one if k == i else zero for k in range(n)]
            for i, h in enumerate(forms)]
    # the normal-form columns come first, so the echelon rows whose
    # normal-form part vanishes have their pivots among the unit columns
    # and already form the reduced echelon basis of the null space
    return [row[-n:] for row in echelon(rows) if not any(row[:-n])]


def _power_normal_form(gb, h, q):
    """NF(h^q) by square-and-multiply, reducing after every product.

    Reducing h^q in one go can walk every monomial of its degree that
    lies above the normal form; the reduced factors stay as small as the
    quotient's graded pieces.
    """
    out = gb.ring.one()
    while q:
        if q & 1:
            out = gb.normal_form(out * h)
        q >>= 1
        if q:
            h = gb.normal_form(h * h)
    return out


def _power_of_linear_form(g):
    """If g = c * ell^m for a linear form ell, return ell (monic); else None.

    Complete over Q and F_p: a linear form's power has a pure-power term in
    every variable the form touches, the candidate coefficients are forced,
    and a final expansion check settles it.
    """
    ring = g.ring
    m = g.degree()
    if m <= 1:
        return None  # a linear (or constant) generator leaves no nilpotents
    if g.initial_form() != g:
        return None  # not homogeneous, cannot be a power of a linear form
    h, mm, s = g, m, ring.field.char_exponent(m)
    if s:
        mm //= ring.char ** s
        h = g.pth_power_root(s)
        if h is None:
            return None
    # now h should be c * ell^mm with the exponent prime to the characteristic
    pivot = None
    for i in range(len(ring.variables)):
        exps = [0] * len(ring.variables)
        exps[i] = mm
        c = h.terms.get(tuple(exps))
        if c:
            pivot = (i, c)
            break
    if pivot is None:
        return None
    i, c = pivot
    coeffs = [ring.field.zero] * len(ring.variables)
    coeffs[i] = ring.field.one
    denom = c * ring.field.from_int(mm)
    for j in range(len(ring.variables)):
        if j == i:
            continue
        exps = [0] * len(ring.variables)
        exps[i] = mm - 1
        exps[j] = 1
        cj = h.terms.get(tuple(exps))
        if cj:
            coeffs[j] = cj / denom
    ell = _row_to_linear(ring, coeffs)
    if (ell ** mm).scale(c) == h:
        return ell
    return None


class SlopeResult:
    def __init__(self, lower_bound, exact, witness, classification):
        self.lower_bound = lower_bound
        self.exact = exact
        self.witness = witness
        self.classification = classification

    def __repr__(self):
        tag = "=" if self.exact else ">="
        return "slope %s %s" % (tag, self.lower_bound)


def validate_lambda_sequence(presentation, kernel, candidate):
    """A usable sequence: elements of the maximal ideal whose linear parts
    span exactly the kernel."""
    ring = presentation.ring
    if len(candidate) != kernel.r:
        raise NotALambdaSequence(
            "need %d elements, got %d" % (kernel.r, len(candidate)))
    for gamma in candidate:
        if gamma.is_zero() or gamma.constant_term():
            raise NotALambdaSequence(
                "element %s does not vanish at the origin" % gamma)
    rows = _linear_part_rows(candidate, ring)
    want = echelon(_linear_part_rows(kernel.basis, ring))
    got = echelon(rows)
    if want != got:
        raise NotALambdaSequence(
            "linear parts do not span the kernel")


def _complement_variables(presentation, kernel):
    """The variables whose unit vectors, taken greedily in ring order,
    extend the linear parts of the kernel basis to a basis of k^n: e_i is
    taken when it lies outside the span so far.

    One forward elimination serves every test. The span is kept as rows
    with distinct pivot columns, each row a one at its pivot and zero at
    the pivots of the rows before it, so a vector lies in the span
    exactly when reducing it by the rows in turn leaves zero.
    """
    ring = presentation.ring
    n = len(ring.variables)
    zero, one = ring.field.zero, ring.field.one
    pivots = []  # (pivot column, row)

    def extend(row):
        """Add row to the span when it lies outside it; True when it did."""
        for col, pivot_row in pivots:
            c = row[col]
            if c:
                row = [a - c * b for a, b in zip(row, pivot_row)]
        col = next((k for k, c in enumerate(row) if c), None)
        if col is None:
            return False
        inv = 1 / row[col]
        pivots.append((col, [c * inv for c in row]))
        return True

    for row in _linear_part_rows(kernel.basis, ring):
        extend(row)
    complement = []
    for i, name in enumerate(ring.variables):
        if extend([one if k == i else zero for k in range(n)]):
            complement.append(name)
    return complement


def _translation_shifts(presentation, kernel):
    """Shift monomials of the automatic slope search, in its order: a
    complement variable times a monomial of degree 1 up to SHIFT_DEGREE,
    with coefficient one. The search shifts by u*s for each of them, s,
    and each unit u of _shift_units in turn.

    Every shift lies in m^2, so ell + u*s keeps the linear part ell and
    is a valid lambda-sequence element for the kernel direction ell.
    """
    ring = presentation.ring
    n = len(ring.variables)
    shifts = []
    for name in _complement_variables(presentation, kernel):
        i = ring.index(name)
        for exps in itertools.product(range(SHIFT_DEGREE + 1), repeat=n):
            if 1 <= sum(exps) <= SHIFT_DEGREE:
                shifts.append(ring.monomial(
                    [e + (k == i) for k, e in enumerate(exps)]))
    return shifts


def _shift_units(ring):
    """The scalars each shift monomial is taken with: 1 and -1 over Q,
    every unit over F_p."""
    units = [1, -1] if ring.char == 0 else range(1, ring.char)
    return [ring.field.from_int(u) for u in units]


def samuel_slope(presentation, candidates=(), certificate=None,
                 max_n=LIMIT_N_DEFAULT, search=True):
    """Slope of the local ring: 1 in the non-extremal case, otherwise the
    best min-over-sequence asymptotic order found.

    The extremal value is reported as a lower bound; sup attainment is
    never assumed here. The theorem cross-check can certify it exact.

    The search runs nubar on each kernel direction ell and keeps its
    samples a_n = nu(ell^n), with a_0 = 0, then tries ell + u*s for each
    shift monomial s (see _translation_shifts) and unit u. When no
    certificate is in play and no sample of ell is capped, a monomial s
    copies ell's samples for every u by either of two rules:
      binomial -- s has order d and a_n < a_(n-k) + k*d for every
                  k = 1..n whose binomial C(n, k) is nonzero in the
                  field: (ell + u*s)^n - ell^n, the sum of the terms
                  C(n, k)*u^k*ell^(n-k)*s^k, then has order above a_n,
                  and ord(a + b) = ord(a) when ord(b) > ord(a);
      multiple -- ell divides s (the normal form of s modulo {ell}, a
                  Groebner basis of (ell), is zero): ell + u*s is
                  ell*(1 + u*s/ell), a unit times ell in the local ring,
                  so nu((ell + u*s)^n) = nu(ell^n) for every n.
    Either way every limit sample of ell + u*s is ell's, none capped and
    none zero, and its value, ell's, cannot beat the best of the
    direction. The no-capped-sample condition matters: a capped sample
    sends nubar to the global zero test, where the unit can change the
    answer. Over Q such a monomial is skipped. Over F_p only nubar's
    Frobenius zero test is left: for the power q of p it uses,
    (ell + u*s)^q = ell^q + u*s^q, as u^q = u, and the grevlex normal
    form modulo J is linear, so NF(ell^q), once per direction, and
    NF(s^q), once per monomial, settle every unit: ell + u*s is infinite
    when NF(ell^q) + u*NF(s^q) = 0, which needs no division. Other
    monomials run nubar on ell + u*s for each unit in turn, and so do
    caller candidates and every candidate of a run with a certificate.
    A shifted element is built only for a nubar run or a new witness.
    """
    _check_cap("max_n", max_n)
    kernel = kernel_lambda(presentation)
    if kernel.t == 0:
        raise NotApplicable("the presented ring is regular: no slope")
    if kernel.classification == "unknown":
        raise UnknownKernel("kernel method was inconclusive")
    if kernel.classification == "non-extremal":
        return SlopeResult(ExtendedRational(1), True, [], "non-extremal")

    def assess(gamma):
        return nubar(presentation, gamma, certificate=certificate,
                     strategy="auto" if certificate else "limit",
                     max_n=max_n)

    ring = presentation.ring
    shifts = _translation_shifts(presentation, kernel) if search else []
    units = _shift_units(ring)
    q = _frobenius_exponent(ring.char, max_n)
    best_by_slot = []
    witness = []
    for ell in kernel.basis:
        lead = assess(ell)
        slot_best, slot_witness = lead.value, ell
        settled = certificate is None and not lead.capped
        copies = {}  # shift order d -> whether the binomial rule holds
        ell_q = None  # NF(ell^q) modulo J, on the first copying monomial
        for s in shifts:
            if slot_best.is_infinite:
                break
            d = s.min_degree()
            if settled and d not in copies:
                copies[d] = _copies_samples(lead, d, ring.char)
            if settled and (copies[d] or normal_form(s, [ell]).is_zero()):
                if q:
                    grevlex = presentation.relation_basis()
                    if ell_q is None:
                        ell_q = grevlex.normal_form(_frobenius_power(ell, q))
                    s_q = grevlex.normal_form(_frobenius_power(s, q))
                    for u in units:
                        if (ell_q + s_q.scale(u)).is_zero():
                            slot_best, slot_witness = INF, ell + s.scale(u)
                            break
                continue
            for u in units:
                gamma = ell + s.scale(u)
                value = assess(gamma).value
                if value > slot_best:
                    slot_best, slot_witness = value, gamma
                if slot_best.is_infinite:
                    break
        best_by_slot.append(slot_best)
        witness.append(slot_witness)

    bound = best_by_slot[0]
    for v in best_by_slot[1:]:
        bound = ext_min(bound, v)

    for seq in candidates:
        validate_lambda_sequence(presentation, kernel, list(seq))
        value = None
        for gamma in seq:
            v = assess(gamma).value
            value = v if value is None else ext_min(value, v)
        if value > bound:
            bound = value
            witness = list(seq)

    exact = bound.is_infinite  # an infinite lower bound is already the sup
    return SlopeResult(bound, exact, witness, "extremal")


def _copies_samples(lead, d, p):
    """Whether every shift of order at least d leaves the limit samples of
    lead, the result of nubar on a kernel direction with no capped
    sample, as they are, p being the characteristic: the binomial rule of
    samuel_slope."""
    orders = [0] + [order.as_fraction for _, order in lead.samples]
    for n in range(1, len(orders)):
        for k in range(1, n + 1):
            if (not p or math.comb(n, k) % p) \
                    and orders[n] >= orders[n - k] + k * d:
                return False
    return True
