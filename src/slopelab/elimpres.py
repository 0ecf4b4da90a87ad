"""Weighted Rees algebras of hypersurface germs and their projections:
differential saturation, presentations with a monic fiber polynomial of
prime-power degree, the slope attached to such a presentation, cleaning
translations, and the two theorem cross-checks that tie the slope back to
the local-ring invariants of the samuel module.
"""

from .arith import INF, ExtendedRational, SlopelabError, ext_min, is_prime
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


class PointNotSingular(SlopelabError):
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

    def contains_all(self, names, ring):
        if self.kind == "origin":
            return True
        return set(names) <= set(self.variables)

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


def sing_order(algebra, at):
    """Order of the Rees algebra at the point: min of ord(f_i)/n_i.

    The point lies in the singular locus of the algebra exactly when the
    result is at least 1.
    """
    best = INF
    for f, n in algebra.generators:
        v = at.order_of(f, algebra.ring)
        if v.is_infinite:
            continue
        best = ext_min(best, v / n)
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


class Fiber:
    """One fiber variable with its monic polynomial of degree p^ell."""

    __slots__ = ("name", "h", "ell", "q", "coefficients")

    def __init__(self, ring, split, name, h, p):
        if name not in split.fiber:
            raise ValueError("%s is not a fiber variable" % name)
        q = h.degree_of_var(name)
        ell = 0
        while q % p == 0 and q > 1:
            q //= p
            ell += 1
        if q != 1 or ell < 1:
            raise BadDegree(
                "fiber polynomial degree %d is not a positive power of %d"
                % (h.degree_of_var(name), p))
        q = h.degree_of_var(name)
        by_exp = h.coefficients_in(name)
        top = by_exp.get(q)
        if top is None or top != ring.one():
            raise NotMonic("fiber polynomial is not monic in %s" % name)
        coefficients = {}
        for j in range(1, q + 1):
            c = by_exp.get(q - j, ring.zero())
            if not c.is_zero():
                bad = c.vars_used() & set(split.fiber_indices())
                if bad:
                    raise ValueError(
                        "coefficient of %s^%d involves the fiber variable %s"
                        % (name, q - j, ring.variables[sorted(bad)[0]]))
            coefficients[j] = c
        self.name = name
        self.h = h
        self.q = q
        self.ell = ell
        self.coefficients = coefficients


class PPresentation:
    """Coordinate-separated presentation: one monic polynomial of degree
    p^ell per fiber variable, coefficients in the base variables only."""

    def __init__(self, split, fibers, p):
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        if split.ring.char != p:
            raise ValueError("presentation characteristic differs from ring")
        self.split = split
        self.ring = split.ring
        self.p = p
        self.fibers = tuple(fibers)
        if not self.fibers:
            raise ValueError("need at least one fiber")

    def __repr__(self):
        parts = ["%s: %s" % (f.name, f.h.canonical_string())
                 for f in self.fibers]
        return "<p-presentation %s>" % "; ".join(parts)


def _fiber_variable(split):
    """The one fiber variable of a hypersurface's split."""
    if len(split.fiber) != 1:
        raise SlopelabError("the split must have exactly one fiber "
                            "variable, not %d" % len(split.fiber))
    return split.fiber[0]


def build_p_presentation(g, split, p):
    """Reduce a monic fiber polynomial of degree N'p^ell to one of degree
    p^ell by the scaled Hasse derivative of order (N'-1)p^ell."""
    ring = split.ring
    z = _fiber_variable(split)
    n = g.degree_of_var(z)
    if n == 0:
        raise BadDegree("polynomial has degree 0 in %s" % z)
    top = g.coefficients_in(z).get(n)
    if top is None or not top.is_constant():
        raise NotMonic("leading coefficient in %s is not a scalar" % z)
    g = g.scale(1 / top.constant_term())
    q, ell = n, 0
    while q % p == 0:
        q //= p
        ell += 1
    n_prime = q
    if ell == 0:
        raise BadDegree(
            "degree %d is prime to the characteristic %d; this shape "
            "belongs to the Tschirnhausen route" % (n, p))
    r = (n_prime - 1) * (n // n_prime)
    h = g
    if r:
        h = g.hasse_derivative(z, r)
        h = h.scale(1 / ring.field.from_int(n_prime))
    return PPresentation(split, [Fiber(ring, split, z, h, p)], p)


def elimination_generators(presentation):
    """Generators for the base-ring part of the algebra.

    Rule: the coefficient elements themselves below the top weight, plus
    all Hasse derivatives of coefficients taken in base variables. This is
    an approximate generating set (exact on the worked examples).
    """
    out = []
    for fiber in presentation.fibers:
        for j in range(1, fiber.q):
            c = fiber.coefficients[j]
            if not c.is_zero():
                out.append((c, j))
        for j in range(2, fiber.q + 1):
            c = fiber.coefficients[j]
            if c.is_zero():
                continue
            for y in presentation.split.base:
                for b in range(1, j):
                    d = c.hasse_derivative(y, b)
                    if not d.is_zero():
                        out.append((d, j - b))
    return out


def elimination_algebra(presentation):
    gens = elimination_generators(presentation)
    if not gens:
        return None
    return ReesAlgebra(presentation.ring, gens)


class SlopeReport:
    def __init__(self, value, case, elimination_order, coefficient_orders,
                 degenerate=False, hord=None, transcript=(),
                 presentation=None):
        self.value = value
        self.case = case
        self.elimination_order = elimination_order
        self.coefficient_orders = coefficient_orders
        self.degenerate = degenerate
        self.hord = hord
        self.transcript = list(transcript)
        self.presentation = presentation

    @property
    def approximate_elimination(self):
        # elimination_generators follows an approximate rule, which the
        # Tschirnhausen route does not use
        return self.case != "tschirnhausen"

    def __repr__(self):
        return "<slope %s case %s elim %s hord %s>" % (
            self.value, self.case, self.elimination_order, self.hord)


def _initial_root(fiber, presentation, at):
    """If the initial form of the top coefficient at the point is a q-th
    power G^q, return G; the scalar is absorbed because every scalar of
    the prime field is fixed by Frobenius."""
    ring = presentation.ring
    c = fiber.coefficients[fiber.q]
    if c.is_zero():
        return None
    idx = tuple(i for i in at.indices(ring)
                if ring.variables[i] in presentation.split.base)
    if not idx:
        return None
    init = c.initial_form_in(idx)
    return init.pth_power_root(fiber.ell)


def slope(presentation, at=None):
    """Slope of the presentation at the point: the smaller of the top
    coefficient orders (each divided by its fiber degree) and the order of
    the elimination algebra.

    The case label records what attains the minimum and whether a cleaning
    translation is still available.
    """
    at = at or PointSpec.origin()
    ring = presentation.ring
    if not at.contains_all([f.name for f in presentation.fibers], ring):
        raise NotApplicable("the point must contain every fiber variable")

    coefficient_orders = {}
    top_term = INF
    for fiber in presentation.fibers:
        per = {}
        for j in range(1, fiber.q + 1):
            c = fiber.coefficients[j]
            per[j] = at.order_of(c, ring) / j
        coefficient_orders[fiber.name] = per
        top_term = ext_min(top_term, per[fiber.q])

    algebra = elimination_algebra(presentation)
    elim = sing_order(algebra, at) if algebra else INF
    value = ext_min(top_term, elim)

    for per in coefficient_orders.values():
        for j, v in per.items():
            if v < ExtendedRational(1):
                raise PointNotSingular(
                    "coefficient order %s at weight %d is below 1" % (v, j))

    if value.is_infinite:
        return SlopeReport(value, None, elim, coefficient_orders,
                           degenerate=True, presentation=presentation)

    if elim <= top_term:
        case = "A"
    elif not value.is_integer():
        case = "B1"
    else:
        case = "B2"
        attaining = [f for f in presentation.fibers
                     if coefficient_orders[f.name][f.q] == value]
        if attaining and all(
                _initial_root(f, presentation, at) is not None
                for f in attaining):
            case = "B3"
    return SlopeReport(value, case, elim, coefficient_orders,
                       presentation=presentation)


def _apply_cleaning(presentation, at, report):
    """Translate each fiber that attains the slope by the root of its
    initial form: z goes to z - G, which cancels the initial form because
    raising to the fiber degree is additive in characteristic p."""
    ring = presentation.ring
    new_fibers = []
    shifts = []
    for fiber in presentation.fibers:
        root = None
        if report.coefficient_orders[fiber.name][fiber.q] == report.value:
            root = _initial_root(fiber, presentation, at)
        if root is None:
            new_fibers.append(fiber)
            continue
        shift = -root
        h = fiber.h.translate(fiber.name, shift)
        new_fibers.append(Fiber(ring, presentation.split, fiber.name, h,
                                presentation.p))
        shifts.append((fiber.name, shift))
    return PPresentation(presentation.split, new_fibers,
                         presentation.p), shifts


def clean(presentation, at=None, max_rounds=MAX_ROUNDS_DEFAULT):
    """Iterate cleaning translations until a normal form (cases A, B1, B2,
    or nothing left at all) and stamp the final slope as the order of the
    presentation there."""
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
        current, shifts = _apply_cleaning(current, at, report)
        transcript.extend(shifts)
    raise RoundsExhausted(
        "no normal form after %d cleaning rounds; best slope %s is a "
        "lower bound" % (max_rounds, best.value), best)


def tschirnhausen_ord(g, split, at=None):
    """Order of a monic fiber polynomial away from the bad characteristic:
    kill the subleading coefficient by a linear shift, then take the least
    coefficient order over weight."""
    at = at or PointSpec.origin()
    ring = split.ring
    z = _fiber_variable(split)
    m = g.degree_of_var(z)
    if m == 0:
        raise BadDegree("polynomial has degree 0 in %s" % z)
    if ring.char and m % ring.char == 0:
        raise CharDividesDegree(
            "characteristic %d divides the degree %d" % (ring.char, m))
    top = g.coefficients_in(z).get(m)
    if top is None or top != ring.one():
        raise NotMonic("polynomial is not monic in %s" % z)
    a1 = g.coefficients_in(z).get(m - 1, ring.zero())
    if not a1.is_zero():
        shift = a1.scale(1 / ring.field.from_int(m)).scale(
            ring.field.from_int(-1))
        g = g.translate(z, shift)
    coeffs = g.coefficients_in(z)
    best = INF
    for i in range(2, m + 1):
        a = coeffs.get(m - i)
        if a is None or a.is_zero():
            continue
        best = ext_min(best, at.order_of(a, ring) / i)
    return best


def hord_report(g, split, at=None, max_rounds=MAX_ROUNDS_DEFAULT):
    """Order of a monic fiber polynomial at the point, as a SlopeReport.

    When the characteristic divides the fiber degree, its p-presentation
    is cleaned (see clean); otherwise the Tschirnhausen translation gives
    the order, which is then both the elimination order and hord, under
    the case "tschirnhausen", with no slope of a p-presentation.
    """
    z = _fiber_variable(split)
    p = split.ring.char
    if p and g.degree_of_var(z) % p == 0:
        return clean(build_p_presentation(g, split, p), at, max_rounds)
    value = tschirnhausen_ord(g, split, at)
    return SlopeReport(None, "tschirnhausen", value, {}, hord=value)


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
    ring's one relation g, monic in the fiber variable of the split.

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

    if at.order_of(g, split.ring) <= ExtendedRational(1):
        return CheckReport(False, True, "smooth", None, None, None, False,
                           None, note="multiplicity 1: point not singular")

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

