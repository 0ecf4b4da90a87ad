"""Built-in worked examples with frozen expected values.

The corpus bundles three kinds of fixtures:

  * presented local rings (hypersurface germs) with their kernel data,
    slopes and orders worked out by hand,
  * a small family of monomial ideals used to confront the asymptotic
    order function with the integral-closure membership test,
  * one Rees algebra whose differential saturation is known in closed
    form.

Every check the package promises to pass lives here as a named row:
an expected string frozen in EXPECTED and a procedure that recomputes
the same string from scratch.  The ``corpus`` subcommand replays all
rows and prints an expected-versus-computed table; the acceptance test
suite asserts the same facts one criterion at a time.
"""

from fractions import Fraction

from .arith import ExtendedRational
from .groebner import IdealPresentation, ideal_power
from .newton import (MonomialValuation, build_polyhedron, closure_member,
                     nubar_monomial)
from .poly import Ring, VariableSplit
from .samuel import (LIMIT_N_DEFAULT, LocalRingPresentation,
                     ValuationCertificate, kernel_lambda,
                     kernel_lambda_at_prime, nu, nubar)
from .elimpres import (PointSpec, ReesAlgebra, build_p_presentation, clean,
                       cross_check_theorems, diff_saturate_once, slope)


class LocalRingMember:
    """A presented local ring bundled with its hypersurface data.

    ``fiber`` names the variable the defining polynomial is monic in;
    the split puts every other variable in the base.  Members without a
    relation (the regular ring) carry no split and no fiber polynomial.
    """

    def __init__(self, name, ring, relation=None, fiber=None, point=None,
                 certificate=None):
        self.name = name
        self.ring = ring
        self.g = relation
        relations = [relation] if relation is not None else []
        self.presentation = LocalRingPresentation(ring, relations)
        if fiber is None:
            self.split = None
        else:
            base = tuple(v for v in ring.variables if v != fiber)
            self.split = VariableSplit(ring, base, (fiber,))
        self.point = point or PointSpec.origin()
        self.certificate = certificate

    def __repr__(self):
        return "<member %s>" % self.name


class MonomialMember:
    """A monomial ideal in a small polynomial ring."""

    def __init__(self, name, ring, generator_texts):
        self.name = name
        self.ring = ring
        self.ideal = IdealPresentation(
            ring, [ring.parse(t) for t in generator_texts])

    def __repr__(self):
        return "<monomial member %s>" % self.name


def local_ring_members():
    """The seven presented local rings the kernel and theorem rows use."""
    out = []

    r_cusp0 = Ring(("x", "y"))
    cert = ValuationCertificate(
        [(MonomialValuation.from_dict(r_cusp0, {"x": 3, "y": 2}), 2)])
    out.append(LocalRingMember("cusp-char0", r_cusp0,
                               r_cusp0.parse("x^2 - y^3"), fiber="x",
                               certificate=cert))

    r_cusp2 = Ring(("x", "y"), char=2)
    out.append(LocalRingMember("cusp-char2", r_cusp2,
                               r_cusp2.parse("x^2 - y^3"), fiber="x"))

    r_node0 = Ring(("x", "y"))
    out.append(LocalRingMember("node-char0", r_node0,
                               r_node0.parse("x^2 - y^2"), fiber="x"))

    r_node2 = Ring(("x", "y"), char=2)
    out.append(LocalRingMember("node-char2", r_node2,
                               r_node2.parse("x^2 - y^2"), fiber="x"))

    r_node3 = Ring(("x", "y"), char=3)
    out.append(LocalRingMember("node-char3", r_node3,
                               r_node3.parse("x^2 - y^2"), fiber="x"))

    r_reg = Ring(("x", "y"))
    out.append(LocalRingMember("regular-2vars", r_reg))

    r_pair = Ring(("z", "u", "w"))
    out.append(LocalRingMember("plane-pair", r_pair,
                               r_pair.parse("z^2 - z*u"), fiber="z"))

    return out


def whitney_members():
    """Umbrella-type germs x^p = y1^p y2, checked at the prime (x, y1)."""
    out = []
    for p in (2, 3, 5):
        ring = Ring(("x", "y1", "y2"), char=p)
        g = ring.parse("x^%d - y1^%d*y2" % (p, p))
        out.append(LocalRingMember("whitney-p%d" % p, ring, g, fiber="x",
                                   point=PointSpec.prime(("x", "y1"))))
    return out


def monomial_members():
    """Six monomial ideals in two or three variables."""
    r2 = Ring(("x", "y"))
    r3 = Ring(("x", "y", "z"))
    return [
        MonomialMember("powers-2v", r2, ("x^2", "y^3")),
        MonomialMember("maximal-2v", r2, ("x", "y")),
        MonomialMember("edge-2v", r2, ("x^2*y", "x*y^2")),
        MonomialMember("stairs-2v", r2, ("x^3", "x*y", "y^2")),
        MonomialMember("weighted-3v", r3, ("x", "y^2", "z^3")),
        MonomialMember("pair-3v", r3, ("x*y", "z^2")),
    ]


def rees_cusp_char2():
    """The cuspidal Rees algebra fixture: z^2 + y^3 over the field F_2."""
    ring = Ring(("z", "y"), char=2)
    g = ring.parse("z^2 + y^3")
    split = VariableSplit(ring, ("y",), ("z",))
    return ring, g, split


# One frozen expected string per check row.  The rows recompute the same
# string from scratch; a row passes exactly when the two agree.
EXPECTED = {
    "order/cusp-char0/nu(x)": "1",
    "order/cusp-char0/nu(x^2)": "3",
    "nubar/cusp-char0/certificate": "3/2 exact",
    "nubar/cusp-char0/limit-envelope": "peak 3/2 within [7/5, 3/2]",
    "rees/cusp-char2/saturation": "y^2 W^1; y^3 + z^2 W^2",
    "rees/cusp-char2/elimination-order": "2",
    "rees/cusp-char2/hord": "3/2",
    "ppres/whitney-p2/hord": "1",
    "ppres/whitney-p2/elimination-order": "2",
    "ppres/whitney-p3/hord": "1",
    "ppres/whitney-p3/elimination-order": "3/2",
    "ppres/whitney-p5/hord": "1",
    "ppres/whitney-p5/elimination-order": "5/4",
    "closure/powers-2v": "0 mismatches",
    "closure/maximal-2v": "0 mismatches",
    "closure/edge-2v": "0 mismatches",
    "closure/stairs-2v": "0 mismatches",
    "closure/weighted-3v": "0 mismatches",
    "closure/pair-3v": "0 mismatches",
    "scaling/powers-2v": "0 mismatches",
    "scaling/maximal-2v": "0 mismatches",
    "scaling/edge-2v": "0 mismatches",
    "scaling/stairs-2v": "0 mismatches",
    "scaling/weighted-3v": "0 mismatches",
    "scaling/pair-3v": "0 mismatches",
    "kernel/cusp-char0": "extremal r=1 t=1",
    "kernel/cusp-char2": "extremal r=1 t=1",
    "kernel/node-char0": "non-extremal r=0 t=1",
    "kernel/node-char2": "extremal r=1 t=1",
    "kernel/node-char3": "non-extremal r=0 t=1",
    "kernel/regular-2vars": "extremal r=0 t=0",
    "kernel/plane-pair": "non-extremal r=0 t=1",
    "theorem/cusp-char0": "pass extremal hord=3/2 ord=3/2 slope=3/2 lower-bound",
    "theorem/cusp-char2": "pass extremal hord=3/2 ord=2 slope=3/2 certified",
    "theorem/node-char0": "pass non-extremal hord=1 ord=1",
    "theorem/node-char2": "pass extremal hord=inf ord=inf slope=inf certified",
    "theorem/node-char3": "pass non-extremal hord=1 ord=1",
    "theorem/plane-pair": "pass non-extremal hord=1 ord=1",
    "theorem/whitney-p2": "pass non-extremal hord=1 ord=2",
    "theorem/whitney-p3": "pass non-extremal hord=1 ord=3/2",
    "theorem/whitney-p5": "pass non-extremal hord=1 ord=5/4",
}


def _nu_string(value):
    out = value.value.serialize()
    if value.at_least:
        out += " at-least"
    return out


def _monomials_up_to(ring, degree):
    """All nonconstant monomials of total degree at most the bound."""
    import itertools
    n = len(ring.variables)
    out = []
    for exps in itertools.product(range(degree + 1), repeat=n):
        if 1 <= sum(exps) <= degree:
            out.append(ring.monomial(exps))
    return out


def closure_equivalence_mismatches(ideal, degree=6, amax=6, bmax=6):
    """Count disagreements between the asymptotic order and closure tests.

    For every monomial f up to the degree bound and every pair (a, b)
    the inequality nubar(f) >= a/b must hold exactly when f^b lies in
    the integral closure of ideal^a.  The two sides use polyhedra of
    different powers built independently.
    """
    base = build_polyhedron(ideal)
    polyhedra = {a: build_polyhedron(ideal_power(ideal, a))
                 for a in range(1, amax + 1)}
    mismatches = 0
    for f in _monomials_up_to(ideal.ring, degree):
        value = nubar_monomial(base, f)
        for b in range(1, bmax + 1):
            fb = f ** b
            for a in range(1, amax + 1):
                lhs = value >= ExtendedRational(Fraction(a, b))
                rhs = closure_member(fb, ideal, a, polyhedron=polyhedra[a])
                if lhs != rhs:
                    mismatches += 1
    return mismatches


def power_scaling_mismatches(ideal, rmax=4, degree=3):
    """Count failures of nubar(f^r) = r nubar(f) and of the same rule
    against powers of the ideal, nubar through ideal^r = nubar(f)/r."""
    ring = ideal.ring
    base = build_polyhedron(ideal)
    polyhedra = {r: build_polyhedron(ideal_power(ideal, r))
                 for r in range(1, rmax + 1)}
    samples = _monomials_up_to(ring, degree)
    samples.append(ring.parse("x + y"))
    samples.append(ring.parse("x*y + y^3"))
    mismatches = 0
    for f in samples:
        value = nubar_monomial(base, f)
        for r in range(1, rmax + 1):
            if nubar_monomial(base, f ** r) != value * r:
                mismatches += 1
            if nubar_monomial(polyhedra[r], f) != value / r:
                mismatches += 1
    return mismatches


def _kernel_string(member):
    if member.point.kind == "origin":
        report = kernel_lambda(member.presentation)
    else:
        report = kernel_lambda_at_prime(member.presentation,
                                        member.point.variables)
    return "%s r=%d t=%d" % (report.classification, report.r, report.t)


def _theorem_string(member):
    report = cross_check_theorems(member.presentation, member.g,
                                  member.split, at=member.point)
    bits = ["pass" if report.passed else "FAIL", report.classification,
            "hord=%s" % report.hord.serialize(),
            "ord=%s" % report.ord_d.serialize()]
    if report.classification == "extremal":
        bits.append("slope=%s" % report.slope_value.serialize())
        bits.append("certified" if report.slope_certified else "lower-bound")
    return " ".join(bits)


def _order_rows(member):
    pres = member.presentation
    x = member.ring.var("x")
    yield ("order/cusp-char0/nu(x)",
           lambda: _nu_string(nu(pres, x)))
    yield ("order/cusp-char0/nu(x^2)",
           lambda: _nu_string(nu(pres, x * x)))


def _nubar_rows(member, max_n):
    pres = member.presentation
    x = member.ring.var("x")

    def certificate_row():
        res = nubar(pres, x, certificate=member.certificate,
                    strategy="certificate")
        return "%s %s" % (res.value.serialize(), res.status)

    def envelope_row():
        res = nubar(pres, x, strategy="limit", max_n=max_n)
        low = ExtendedRational(Fraction(7, 5))
        high = ExtendedRational(Fraction(3, 2))
        peak = res.value
        ratios = [v / n for n, v in res.samples]
        inside = low <= peak and all(r <= high for r in ratios)
        verdict = "within" if inside else "outside"
        return "peak %s %s [7/5, 3/2]" % (peak.serialize(), verdict)

    yield ("nubar/cusp-char0/certificate", certificate_row)
    yield ("nubar/cusp-char0/limit-envelope", envelope_row)


def _rees_rows():
    ring, g, split = rees_cusp_char2()

    def saturation_row():
        saturated = diff_saturate_once(ReesAlgebra(ring, [(g, 2)]))
        return "; ".join("%s W^%d" % (f.canonical_string(), n)
                         for f, n in saturated.generators)

    def elimination_row():
        report = slope(build_p_presentation(g, split, 2))
        return report.elimination_order.serialize()

    def hord_row():
        report = clean(build_p_presentation(g, split, 2))
        return report.hord.serialize()

    yield ("rees/cusp-char2/saturation", saturation_row)
    yield ("rees/cusp-char2/elimination-order", elimination_row)
    yield ("rees/cusp-char2/hord", hord_row)


def _ppres_rows(member):
    p = member.ring.char

    def run():
        pres = build_p_presentation(member.g, member.split, p)
        return clean(pres, at=member.point)

    yield ("ppres/%s/hord" % member.name,
           lambda: run().hord.serialize())
    yield ("ppres/%s/elimination-order" % member.name,
           lambda: run().elimination_order.serialize())


def checks(max_n=LIMIT_N_DEFAULT):
    """All corpus rows as (name, thunk) pairs, in a fixed order.

    Thunks are lazy so that a filtered run only pays for the rows it
    keeps.  Every name has a frozen entry in EXPECTED.
    """
    members = {m.name: m for m in local_ring_members()}
    rows = []
    rows.extend(_order_rows(members["cusp-char0"]))
    rows.extend(_nubar_rows(members["cusp-char0"], max_n))
    rows.extend(_rees_rows())
    whitney = whitney_members()
    for member in whitney:
        rows.extend(_ppres_rows(member))
    for mono in monomial_members():
        rows.append(("closure/%s" % mono.name,
                     lambda m=mono: "%d mismatches"
                     % closure_equivalence_mismatches(m.ideal)))
    for mono in monomial_members():
        rows.append(("scaling/%s" % mono.name,
                     lambda m=mono: "%d mismatches"
                     % power_scaling_mismatches(m.ideal)))
    for member in local_ring_members():
        rows.append(("kernel/%s" % member.name,
                     lambda m=member: _kernel_string(m)))
    for member in local_ring_members():
        if member.g is None:
            continue
        rows.append(("theorem/%s" % member.name,
                     lambda m=member: _theorem_string(m)))
    for member in whitney:
        rows.append(("theorem/%s" % member.name,
                     lambda m=member: _theorem_string(m)))
    return rows


class CheckRow:
    """One corpus comparison: a name, the frozen value, the recomputed one."""

    __slots__ = ("name", "expected", "computed", "ok")

    def __init__(self, name, expected, computed):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.ok = (expected == computed)

    def __repr__(self):
        return "<row %s %s>" % (self.name, "ok" if self.ok else "FAIL")


def run_corpus(filters=(), max_n=LIMIT_N_DEFAULT):
    """Evaluate the corpus rows, optionally keeping only matching names.

    A row is kept when any filter string occurs in its name; with no
    filters every row runs.  Returns the list of CheckRow results.
    """
    rows = []
    for name, thunk in checks(max_n=max_n):
        if filters and not any(term in name for term in filters):
            continue
        try:
            computed = thunk()
        except Exception as exc:  # surface the failure in the table
            computed = "error: %s" % exc
        rows.append(CheckRow(name, EXPECTED[name], computed))
    return rows
