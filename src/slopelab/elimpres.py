"""Weighted Rees algebras of hypersurface germs and their projections:
differential saturation, presentations with a monic fiber polynomial of
prime-power degree, the slope attached to such a presentation, cleaning
translations, and the two theorem cross-checks that tie the slope back to
the local-ring invariants of the samuel module.
"""

import math

from .arith import INF, ExtendedRational, SlopelabError
from .groebner import monic, normal_form
from .samuel import NotApplicable, _check_cap, kernel_lambda, samuel_slope

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
            raise ValueError("point kind must be origin or prime")
        if kind == "origin" and variables:
            raise ValueError("point vars need kind prime, not origin")
        if kind == "prime" and not variables:
            raise ValueError("a coordinate prime needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("a coordinate prime names each variable once")
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

    def order_of(self, f):
        """The order of f along this point: minimal degree in its variables.

        Exact for a polynomial ambient ring; distinct monomials never cancel.
        """
        if f.is_zero():
            return INF
        return ExtendedRational(f.min_degree_in(self.indices(f.ring)))

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
    return min((at.order_of(f) / n for f, n in pairs), default=INF)


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
    i = g.ring.index(z)
    lead = g.terms.get(tuple(n if k == i else 0
                             for k in range(len(g.ring.variables))))
    if lead is None or sum(m[i] == n for m in g.terms) != 1:
        raise NotMonic("leading coefficient in %s is not a scalar" % z)
    return (g if lead == 1 else g.scale(1 / lead)), z, n


def _admit(g, split, at):
    """The germ g over its scalar leading coefficient in the fiber variable
    z, with its degree n in z, where hord and the slope are defined: the
    point holds z, and the multiplicity of g there is at least n."""
    g, z, n = _monic_in_fiber(g, split)
    if g.ring.index(z) not in at.indices(g.ring):
        raise NotApplicable("the point must contain every fiber variable")
    multiplicity = at.order_of(g)
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


class SlopeReport:
    """What slope found after the cleaning shifts of the transcript. hord
    is the elimination order on the Tschirnhausen route, unknown in case
    B3, which cleaning would still change, and the slope otherwise."""

    def __init__(self, value, case, elimination_order, transcript=(),
                 root=None):
        self.value = value
        self.case = case
        self.elimination_order = elimination_order
        self.transcript = list(transcript)
        self.root = root

    @property
    def hord(self):
        if self.case == "tschirnhausen":
            return self.elimination_order
        return None if self.case == "B3" else self.value

    @property
    def degenerate(self):
        # the fiber polynomial reduced to a pure power of z
        return self.hord is not None and self.hord.is_infinite

    @property
    def approximate_elimination(self):
        # slope's elimination order follows an approximate generating
        # rule, which the Tschirnhausen route does not use
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


def _elimination_order(presentation, at):
    """The elimination order of slope, read off the exponents of the
    coefficients; INF when no generator is left."""
    ring = presentation.ring
    p, q, idx = ring.char, presentation.q, at.indices(ring)
    base = [(i, i in idx) for i in map(ring.index, presentation.split.base)]
    num, den = 1, 0  # the least ratio so far, 1/0 standing for INF
    for j in range(1, q + 1):
        for m in presentation.coefficients[j].terms:
            d = sum(m[i] for i in idx)
            if j < q and d * den < num * j:
                num, den = d, j
            for i, inside in base:
                for b in range(1, min(m[i], j - 1) + 1):
                    if math.comb(m[i], b) % p \
                            and (d - b * inside) * den < num * (j - b):
                        num, den = d - b * inside, j - b
    return ExtendedRational(num) / den if den else INF


def slope(presentation, at=None):
    """Slope of the presentation at the point: the smaller of the top
    coefficient's order over the fiber degree and the elimination order,
    the least ord(f)/n over the elimination generators f of weight n.

    The generators follow an approximate rule: each coefficient a_j of
    weight j < q, and each nonzero Hasse derivative D^b_y(a_j) in a base
    variable y, 1 <= b < j <= q, of weight j - b. Their orders are read
    off the exponents, with no derivative built: D^b_y sends y^e to
    C(e, b) y^(e - b) and keeps every other exponent, so it maps distinct
    monomials to distinct monomials and no terms cancel. So D^b_y(a_j)
    keeps exactly the terms of a_j with C(e_y, b) nonzero mod p, and each
    loses b in order when y is a variable of the point.

    The case label records what attains the minimum and whether a cleaning
    translation is still available; in case B3 the report carries the
    root G of the top coefficient's initial form.
    """
    at = at or PointSpec.origin()
    _admit(presentation.h, presentation.split, at)
    q = presentation.q
    top = sing_order([(presentation.coefficients[q], q)], at)
    elim = _elimination_order(presentation, at)
    value = min(top, elim)

    root = None
    if value.is_infinite:
        case = None
    elif elim <= top:
        case = "A"
    elif not value.is_integer():
        case = "B1"
    else:
        root = _initial_root(presentation, at)
        case = "B2" if root is None else "B3"
    return SlopeReport(value, case, elim, root=root)


def clean(presentation, at=None, max_rounds=MAX_ROUNDS_DEFAULT):
    """Iterate cleaning translations until a normal form (cases A, B1, B2,
    or nothing left at all), whose slope is the order of the presentation
    there; the report carries the translations in its transcript.

    Each B3 round translates z to z - G, G the root the slope found, which
    cancels the initial form of the top coefficient because raising to
    the fiber degree is additive in characteristic p."""
    _check_cap("max_rounds", max_rounds)
    at = at or PointSpec.origin()
    transcript = []
    best = None
    current = presentation
    for _ in range(max_rounds):
        found = slope(current, at)
        report = SlopeReport(found.value, found.case, found.elimination_order,
                             transcript, found.root)
        if report.case != "B3":
            return report
        if best is None or report.value > best.value:
            best = report
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
    _check_cap("max_rounds", max_rounds)
    at = at or PointSpec.origin()
    g, n = _admit(g, split, at)
    if split.ring.field.char_exponent(n):
        return clean(build_p_presentation(g, split), at, max_rounds)
    return SlopeReport(None, "tschirnhausen", tschirnhausen_ord(g, split, at))


class CheckReport:
    """Outcome of cross_check_theorems: the verdict pass, FAIL or
    inconclusive. An inconclusive report has not passed, and it is no
    contradiction either; a report that does not apply passes."""

    def __init__(self, verdict, classification, hord=None, ord_d=None,
                 slope_value=None, slope_certified=False, case=None, note="",
                 applicable=True):
        self.verdict = verdict
        self.classification = classification
        self.hord = hord
        self.ord_d = ord_d
        self.slope_value = slope_value
        self.slope_certified = slope_certified
        self.case = case
        self.note = note
        self.applicable = applicable

    @property
    def passed(self):
        return self.verdict == "pass"

    @property
    def inconclusive(self):
        return self.verdict == "inconclusive"

    def __repr__(self):
        verdict = self.verdict if self.applicable else "n/a"
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
    _check_cap("max_n", max_n)
    _check_cap("max_rounds", max_rounds)
    at = at or PointSpec.origin()
    relations = local_ring.relations.generators
    if len(relations) != 1:
        raise NotApplicable(
            "the theorems are checked on a hypersurface; the local ring "
            "has %d relations" % len(relations))
    g = relations[0]

    multiplicity = at.order_of(g)
    if multiplicity <= ExtendedRational(1):
        return CheckReport("pass", "smooth", applicable=False,
                           note="multiplicity 1: point not singular")
    try:
        _admit(g, split, at)
    except MultiplicityBelowDegree as exc:
        return CheckReport("pass", "singular", applicable=False,
                           note=str(exc))

    kernel = kernel_lambda(local_ring, prime=at.variables)
    if kernel.classification == "unknown":
        return CheckReport("pass", "unknown", applicable=False,
                           note="kernel classification out of reach")

    report = hord_report(g, split, at, max_rounds)
    hord, ord_d, case = report.hord, report.elimination_order, report.case

    if kernel.classification == "non-extremal":
        passed = hord == ExtendedRational(1)
        note = ""
        if at.kind == "origin":
            passed = passed and ord_d == ExtendedRational(1)
        elif ord_d > ExtendedRational(1):
            note = "elimination order stays above 1 at this non-closed point"
        return CheckReport("pass" if passed else "FAIL", "non-extremal",
                           hord, ord_d, ExtendedRational(1), True, case,
                           note=note)

    # extremal branch: needs the Samuel slope of the local ring
    if at.kind != "origin":
        return CheckReport("pass", "extremal", hord, ord_d, case=case,
                           applicable=False, note="slope at non-closed "
                           "points is out of scope here")
    slope_result = samuel_slope(local_ring, max_n=max_n)
    lb = slope_result.lower
    passed = min(lb, ord_d) == hord
    unproven = not slope_result.exact and lb < hord <= ord_d
    verdict = "pass" if passed else "inconclusive" if unproven else "FAIL"
    return CheckReport(verdict, "extremal", hord, ord_d, lb,
                       slope_result.exact or passed and hord < ord_d, case)

