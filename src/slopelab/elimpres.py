"""Weighted Rees algebras of hypersurface germs and their projections:
differential saturation, presentations with a monic fiber polynomial of
prime-power degree, the slope attached to such a presentation, cleaning
translations, and the two theorem cross-checks that tie the slope back to
the local-ring invariants of the samuel module.
"""

from .arith import INF, ExtendedRational, SlopelabError, ext_min
from .groebner import monic, normal_form
from .samuel import NotApplicable, kernel_lambda, samuel_slope

SATURATION_CAP = 512
MAX_ROUNDS_DEFAULT = 16
THEOREM_MAX_N_DEFAULT = 8


class NotMonic(SlopelabError):
    pass


class BadDegree(SlopelabError):
    pass


class CharDividesDegree(SlopelabError):
    pass


class MultiplicityBelowDegree(SlopelabError):
    pass


class RoundsExhausted(SlopelabError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class PointSpec:
    """The origin, or the coordinate prime spanned by some of the variables."""

    def __init__(self, kind, variables=()):
        if kind not in ("origin", "prime"):
            raise ValueError("kind must be 'origin' or 'prime'")
        if kind == "prime" and not variables:
            raise ValueError("a coordinate prime needs at least one variable")
        self.kind = kind
        self.variables = tuple(variables)

    @classmethod
    def origin(cls):
        return cls("origin")

    @classmethod
    def prime(cls, variables):
        return cls("prime", variables)

    def indices(self, ring):
        if self.kind == "origin":
            return tuple(range(len(ring.variables)))
        return tuple(ring.index(v) for v in self.variables)

    def order_of(self, f, ring):
        """The order of f along this point: minimal degree in its variables.

        Exact for a polynomial ambient ring; distinct monomials never cancel.
        """
        if f.is_zero():
            return INF
        return ExtendedRational(f.min_degree_in(self.indices(ring)))

    def __repr__(self):
        if self.kind == "origin":
            return "<origin>"
        return "<prime (%s)>" % ", ".join(self.variables)


class ReesAlgebra:
    """Finitely many weighted generators f_i W^{n_i} over a polynomial ring.

    Generators are kept scalar-normalized (leading coefficient one) and
    deduplicated keeping the largest weight, so saturation output is stable.
    """

    def __init__(self, ring, generators):
        self.ring = ring
        seen = {}
        for f, n in generators:
            if f.is_zero():
                raise ValueError("zero generator")
            if n < 1:
                raise ValueError("weights must be positive")
            f = monic(f)
            key = f.canonical_string()
            if key not in seen or seen[key][1] < n:
                seen[key] = (f, n)
        self.generators = tuple(
            sorted(seen.values(),
                   key=lambda fn: (fn[1], fn[0].canonical_string())))

    def __repr__(self):
        parts = ["%sW^%d" % (f.canonical_string(), n)
                 for f, n in self.generators]
        return "<rees %s>" % "; ".join(parts)


def sing_order(pairs, at):
    """The least ord(f)/n at the point over weighted elements (f, n), INF
    when there are none.

    On the generators of a Rees algebra, the point lies in the singular
    locus of the algebra exactly when the result is at least 1.
    """
    best = INF
    for f, n in pairs:
        best = ext_min(best, at.order_of(f, f.ring) / n)
    return best


def _dominated(f, n, others):
    # (f, n) is redundant when some (g, w) with w >= n has g dividing f
    for g, w in others:
        if w >= n and not (g is f and w == n):
            if g.degree() <= f.degree() and normal_form(f, [g]).is_zero():
                return True
    return False


def diff_saturate_once(algebra):
    """Close the generator set under Hasse derivatives of lower weight.

    Every derivative D^b_v(f) enters with weight n - b; the loop runs to a
    fixed point (weights strictly drop, so it terminates) and redundant
    generators are pruned afterwards.
    """
    ring = algebra.ring
    work = list(algebra.generators)
    queue = list(algebra.generators)
    while queue:
        if len(work) > SATURATION_CAP:
            raise SlopelabError("saturation grew past %d generators"
                                % SATURATION_CAP)
        f, n = queue.pop()
        for v in ring.variables:
            for b in range(1, n):
                g = f.hasse_derivative(v, b)
                if g.is_zero():
                    continue
                g = monic(g)
                entry = (g, n - b)
                known = any(g == h and m >= n - b for h, m in work)
                if not known:
                    work.append(entry)
                    queue.append(entry)
    kept = [fn for fn in work if not _dominated(fn[0], fn[1], work)]
    return ReesAlgebra(ring, kept)


def _fiber_variable(split):
    """The one fiber variable of a hypersurface's split."""
    if len(split.fiber) != 1:
        raise SlopelabError("the split must have exactly one fiber "
                            "variable, not %d" % len(split.fiber))
    return split.fiber[0]


def _monic_in_fiber(g, split):
    """g over its leading coefficient in the split's one fiber variable z,
    with z and the degree n of g in z; refused when n is 0 or the leading
    coefficient is not a nonzero scalar."""
    z = _fiber_variable(split)
    n = g.degree_of_var(z)
    if n == 0:
        raise BadDegree("polynomial has degree 0 in %s" % z)
    top = g.hasse_derivative(z, n)  # the coefficient of z^n
    if not top.is_constant():
        raise NotMonic("leading coefficient in %s is not a scalar" % z)
    return g.scale(1 / top.constant_term()), z, n


def _admit(g, split, at):
    """The germ g over its scalar leading coefficient in the fiber variable
    z, with its degree n in z, where hord and the slope are defined: the
    point holds z, and the multiplicity of g there is at least n."""
    g, z, n = _monic_in_fiber(g, split)
    if g.ring.index(z) not in at.indices(g.ring):
        raise NotApplicable("the point must contain every fiber variable")
    multiplicity = at.order_of(g, g.ring)
    if multiplicity < ExtendedRational(n):
        raise MultiplicityBelowDegree(
            "multiplicity %s is below the fiber degree %d"
            % (multiplicity.serialize(), n))
    return g, n


class PPresentation:
    """One monic polynomial h of degree q = p^ell in the split's one fiber
    variable z, p the characteristic of the ring; coefficients maps j to
    the coefficient a_j of z^(q-j), which lies in the base variables."""

    def __init__(self, split, h):
        ring = split.ring
        z = _fiber_variable(split)
        p = ring.char
        if not p:
            raise SlopelabError("a p-presentation needs a ring of positive "
                                "characteristic")
        q = h.degree_of_var(z)
        ell = q and ring.field.char_exponent(q)
        if not ell or q != p ** ell:
            raise BadDegree(
                "fiber polynomial degree %d is not a positive power of %d"
                % (q, p))
        by_exp = h.coefficients_in(z)
        if by_exp[q] != ring.one():
            raise NotMonic("fiber polynomial is not monic in %s" % z)
        self.split = split
        self.ring = ring
        self.z = z
        self.h = h
        self.q = q
        self.ell = ell
        self.coefficients = {j: by_exp.get(q - j, ring.zero())
                             for j in range(1, q + 1)}

    def __repr__(self):
        return "<p-presentation %s: %s>" % (self.z, self.h.canonical_string())


def build_p_presentation(g, split):
    """Reduce a fiber polynomial of degree N'p^ell, its scalar leading
    coefficient divided out, to one of degree q = p^ell by the scaled
    Hasse derivative of order (N'-1)q, p the characteristic of the ring."""
    ring = split.ring
    h, z, n = _monic_in_fiber(g, split)
    ell = ring.field.char_exponent(n)
    if ell == 0:
        raise BadDegree(
            "the characteristic %d does not divide the degree %d; this "
            "shape belongs to the Tschirnhausen route" % (ring.char, n))
    q = ring.char ** ell
    if n > q:
        h = h.hasse_derivative(z, n - q).scale(
            1 / ring.field.from_int(n // q))
    return PPresentation(split, h)


def elimination_generators(presentation):
    """Generators for the base-ring part of the algebra.

    Rule: the coefficient elements themselves below the top weight, plus
    all Hasse derivatives of coefficients taken in base variables. This is
    an approximate generating set (exact on the worked examples).
    """
    out = []
    q = presentation.q
    for j in range(1, q):
        c = presentation.coefficients[j]
        if not c.is_zero():
            out.append((c, j))
    for j in range(2, q + 1):
        c = presentation.coefficients[j]
        if c.is_zero():
            continue
        for y in presentation.split.base:
            for b in range(1, j):
                d = c.hasse_derivative(y, b)
                if not d.is_zero():
                    out.append((d, j - b))
    return out


class SlopeReport:
    def __init__(self, value, case, elimination_order, degenerate=False,
                 hord=None, transcript=(), presentation=None, root=None):
        self.value = value
        self.case = case
        self.elimination_order = elimination_order
        self.degenerate = degenerate
        self.hord = hord
        self.transcript = list(transcript)
        self.presentation = presentation
        self.root = root

    @property
    def approximate_elimination(self):
        # elimination_generators follows an approximate rule, which the
        # Tschirnhausen route does not use
        return self.case != "tschirnhausen"

    def __repr__(self):
        return "<slope %s case %s elim %s hord %s>" % (
            self.value, self.case, self.elimination_order, self.hord)


def _initial_root(presentation, at):
    """If the initial form of the top coefficient at the point is a q-th
    power G^q, return G; the scalar is absorbed because every scalar of
    the prime field is fixed by Frobenius. The top coefficient vanishes
    at the point, so the point holds some base variable."""
    ring = presentation.ring
    idx = tuple(i for i in at.indices(ring)
                if ring.variables[i] in presentation.split.base)
    init = presentation.coefficients[presentation.q].initial_form_in(idx)
    return init.pth_power_root(presentation.ell)


def slope(presentation, at=None):
    """Slope of the presentation at the point: the smaller of the top
    coefficient's order over the fiber degree and the elimination order,
    the least ord(f)/n over the elimination generators f of weight n.

    The case label records what attains the minimum and whether a cleaning
    translation is still available; in case B3 the report carries the
    root G of the top coefficient's initial form.
    """
    at = at or PointSpec.origin()
    _admit(presentation.h, presentation.split, at)
    q = presentation.q
    top = sing_order([(presentation.coefficients[q], q)], at)
    elim = sing_order(elimination_generators(presentation), at)
    value = ext_min(top, elim)

    if value.is_infinite:
        return SlopeReport(value, None, elim, degenerate=True,
                           presentation=presentation)

    root = None
    if elim <= top:
        case = "A"
    elif not value.is_integer():
        case = "B1"
    else:
        root = _initial_root(presentation, at)
        case = "B2" if root is None else "B3"
    return SlopeReport(value, case, elim, presentation=presentation,
                       root=root)


def clean(presentation, at=None, max_rounds=MAX_ROUNDS_DEFAULT):
    """Iterate cleaning translations until a normal form (cases A, B1, B2,
    or nothing left at all) and stamp the final slope as the order of the
    presentation there.

    Each B3 round translates z to z - G, G the root the slope found, which
    cancels the initial form of the top coefficient because raising to
    the fiber degree is additive in characteristic p."""
    if max_rounds < 1:
        raise SlopelabError("max_rounds must be a positive integer")
    at = at or PointSpec.origin()
    transcript = []
    best = None
    current = presentation
    for _ in range(max_rounds):
        report = slope(current, at)
        report.transcript = list(transcript)
        if best is None or report.value > best.value:
            best = report
        if report.degenerate:
            report.hord = INF
            return report
        if report.case != "B3":
            report.hord = report.value
            return report
        shift = -report.root
        current = PPresentation(current.split,
                                current.h.translate(current.z, shift))
        transcript.append((current.z, shift))
    raise RoundsExhausted(
        "no normal form after %d cleaning rounds; best slope %s is a "
        "lower bound" % (max_rounds, best.value), best)


def tschirnhausen_ord(g, split, at=None):
    """Order of a fiber polynomial away from the bad characteristic, its
    scalar leading coefficient divided out: kill the subleading
    coefficient by a linear shift, then take the least coefficient order
    over weight."""
    at = at or PointSpec.origin()
    ring = split.ring
    g, z, m = _monic_in_fiber(g, split)
    if ring.field.char_exponent(m):
        raise CharDividesDegree(
            "characteristic %d divides the degree %d" % (ring.char, m))
    a1 = g.coefficients_in(z).get(m - 1)
    if a1 is not None:
        g = g.translate(z, a1.scale(-1 / ring.field.from_int(m)))
    return sing_order(((a, m - e) for e, a in g.coefficients_in(z).items()
                       if e <= m - 2), at)


def hord_report(g, split, at=None, max_rounds=MAX_ROUNDS_DEFAULT):
    """Order of a fiber polynomial at the point, as a SlopeReport, once
    the germ is admitted: its scalar leading coefficient is divided out,
    and its multiplicity at the point must reach its fiber degree.

    When the characteristic divides the fiber degree, its p-presentation
    is cleaned (see clean); otherwise the Tschirnhausen translation gives
    the order, which is then both the elimination order and hord, under
    the case "tschirnhausen", with no slope of a p-presentation; an
    infinite order, the translated polynomial a pure power of z, is
    flagged degenerate as on the p-presentation route.
    """
    at = at or PointSpec.origin()
    g, n = _admit(g, split, at)
    if split.ring.field.char_exponent(n):
        return clean(build_p_presentation(g, split), at, max_rounds)
    value = tschirnhausen_ord(g, split, at)
    return SlopeReport(None, "tschirnhausen", value,
                       degenerate=value.is_infinite, hord=value)


class CheckReport:
    """Outcome of cross_check_theorems. An inconclusive report has not
    passed, and it is no contradiction either."""

    def __init__(self, applicable, passed, classification, hord, ord_d,
                 slope_value, slope_certified, case, note="",
                 inconclusive=False):
        self.applicable = applicable
        self.passed = passed
        self.classification = classification
        self.hord = hord
        self.ord_d = ord_d
        self.slope_value = slope_value
        self.slope_certified = slope_certified
        self.case = case
        self.note = note
        self.inconclusive = inconclusive

    def verdict(self):
        if self.passed:
            return "pass"
        return "inconclusive" if self.inconclusive else "FAIL"

    def __repr__(self):
        verdict = self.verdict() if self.applicable else "n/a"
        return "<check %s: %s hord=%s ord=%s slope=%s>" % (
            verdict, self.classification, self.hord, self.ord_d,
            self.slope_value)


def cross_check_theorems(local_ring, split, at=None,
                         max_n=THEOREM_MAX_N_DEFAULT,
                         max_rounds=MAX_ROUNDS_DEFAULT):
    """Confront the two structure statements with one germ, the local
    ring's one relation g, with a scalar leading coefficient in the fiber
    variable of the split.

    The statements hold where g has multiplicity equal to its degree in
    the fiber variable; below that the check does not apply.
    Non-extremal points must come out with order 1 (and elimination order
    1 too when the point is closed); extremal points must satisfy
    hord = min(slope of the local ring, elimination-algebra order), which
    pins the slope exactly whenever hord falls below the elimination order.
    A slope known only as a lower bound below hord <= elimination order
    contradicts neither: that check is inconclusive, not failed.
    """
    at = at or PointSpec.origin()
    relations = local_ring.relations.generators
    if len(relations) != 1:
        raise NotApplicable(
            "the theorems are checked on a hypersurface; the local ring "
            "has %d relations" % len(relations))
    g = relations[0]

    multiplicity = at.order_of(g, split.ring)
    if multiplicity <= ExtendedRational(1):
        return CheckReport(False, True, "smooth", None, None, None, False,
                           None, note="multiplicity 1: point not singular")
    try:
        _admit(g, split, at)
    except MultiplicityBelowDegree as exc:
        return CheckReport(False, True, "singular", None, None, None, False,
                           None, note=str(exc))

    kernel = kernel_lambda(local_ring, prime=at.variables)
    if kernel.classification == "unknown":
        return CheckReport(False, True, "unknown", None, None, None, False,
                           None, note="kernel classification out of reach")

    report = hord_report(g, split, at, max_rounds)
    hord, ord_d, case = report.hord, report.elimination_order, report.case

    if kernel.classification == "non-extremal":
        passed = hord == ExtendedRational(1)
        note = ""
        if at.kind == "origin":
            passed = passed and ord_d == ExtendedRational(1)
        elif ord_d > ExtendedRational(1):
            note = "elimination order stays above 1 at this non-closed point"
        return CheckReport(True, passed, "non-extremal", hord, ord_d,
                           ExtendedRational(1), True, case, note=note)

    # extremal branch: needs the Samuel slope of the local ring
    if at.kind != "origin":
        return CheckReport(False, True, "extremal", hord, ord_d, None, False,
                           case, note="slope at non-closed points is out of "
                           "scope here")
    slope_result = samuel_slope(local_ring, max_n=max_n)
    lb = slope_result.lower_bound
    passed = ext_min(lb, ord_d) == hord
    certified = passed and hord < ord_d
    inconclusive = not slope_result.exact and lb < hord <= ord_d
    return CheckReport(True, passed, "extremal", hord, ord_d, lb,
                       certified or slope_result.exact, case,
                       inconclusive=inconclusive)

