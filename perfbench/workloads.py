"""The benchmark's three workloads: seeded input generators, the operations
that run on them, and an independent oracle for every operation.

A workload is built pass by pass. Pass k draws fresh inputs from
(workload, seed, k), so the program never sees the same input twice in
one run and a cache that outlives a pass cannot make a later pass look
cheaper. The mix inside a pass is stratified (fixed germ shapes, primes
and target values; the seed picks within them), so the work per pass
varies little from seed to seed.

Every input is written as text by this module's own polynomial helper;
the package receives only that text (parsed through `Ring.parse` or a
job file). Oracles never call the package.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction


class Op:
    """One timed call into the package plus the oracle for its answer.

    `run` takes no arguments and returns the package's answer. `judge`
    takes that answer and returns a Verdict.
    """

    __slots__ = ("name", "spec", "run", "judge")

    def __init__(self, name, spec, run, judge):
        self.name = name
        self.spec = spec
        self.run = run
        self.judge = judge


class Verdict:
    """Outcome of an oracle: an error text (None when correct), whether the
    answer is labelled exact, reported/true for answers whose true value
    has a closed form (None otherwise), and the known defect that explains
    a wrong answer (None when no known defect does)."""

    __slots__ = ("error", "exact", "bound", "known")

    def __init__(self, error=None, exact=True, bound=None, known=None):
        self.error = error
        self.exact = exact
        self.bound = bound
        self.known = known


# Known defects of the package that some generated inputs trigger. An
# operation failing with exactly such a defect's symptom is still a
# failed operation, but it is named with the defect and does not make
# the run incorrect. Inputs that trigger a defect are never filtered out,
# so a fix shows as fewer failed operations.
BUG_3 = "ROADMAP item 1, bug 3"


def digest(ops):
    """Hash of the generated inputs of a pass, for the determinism check."""
    h = hashlib.sha256()
    for op in ops:
        h.update(("%s|%s\n" % (op.name, op.spec)).encode("utf-8"))
    return h.hexdigest()[:16]


# -- exact polynomial helper used to write inputs and oracle values ------

def poly_mul(f, g, p=0):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out, p)


def poly_pow(f, n, nvars, p=0):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = poly_mul(out, f, p)
    return out


def poly_add(f, g, p=0):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return _clean(out, p)


def _clean(f, p):
    if p:
        f = {m: c % p for m, c in f.items()}
    return {m: c for m, c in f.items() if c}


def poly_text(f, names):
    """Text the package's parser reads, terms in a fixed order."""
    if not f:
        return "0"
    parts = []
    for mono in sorted(f, reverse=True):
        c = f[mono]
        body = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(names, mono) if e)
        if not body:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(body if c == 1 else "-" + body)
        else:
            parts.append("%d*%s" % (c, body))
    return " + ".join(parts).replace("+ -", "- ")


def mono(*exps):
    return {tuple(exps): 1}


def ratio(reported, true):
    """reported/true for a lower bound of a nonnegative value; None means
    infinity."""
    if true is None:
        return 1.0 if reported is None else 0.0
    if reported is None:
        return 1.0
    return float(Fraction(reported) / Fraction(true))


def parse_value(text):
    """A serialized package value ('inf', '3', '7/2') as Fraction or None."""
    return None if text == "inf" else Fraction(text)


def ext_value(value):
    """An ExtendedRational as Fraction, or None for infinity."""
    return None if value.is_infinite else value.as_fraction


# -- order-q ---------------------------------------------------------------
#
# Germs k[x,y]/(x^a - c*y^b) and k[x,y,z]/(x^a - c*y^b), c != 0,
# gcd(a,b) = 1, a < b. The associated graded ring is k[...]/(x^a), so
# writing i = q*a + r with 0 <= r < a, x^i y^j z^l equals
# c^q x^r y^(j+qb) z^l, whose degree is the order: nu = r + j + q*b + l.
# Up to constants the branch is parametrized by x = t^b, y = t^a, and m
# pulls back to (t^a, z), so nubar(x^i y^j z^l) = i*b/a + j + l and no
# lambda-direction beats nubar(x) = b/a.

# (a, b, variables, nu targets, exponents of the nubar monomial, nubar
# max_n, slope max_n). Each shape appears once per pass. The cost of nu
# grows with its value, and that of nubar with max_n * nubar, so the
# targets are fixed; the seed picks the relation's coefficient c in
# x^a - c*y^b and the monomials that have the target orders. The last
# 2-variable shape reaches the nu cap, so capped answers and the limit
# estimator's cap behaviour are in every pass.
ORDER_Q_SHAPES = (
    (2, 3, 2, (3, 7, 12), (1, 0), 4, 3),
    (2, 5, 2, (3, 7, 12), (1, 0), 4, 3),
    (3, 4, 2, (3, 7, 12), (1, 1), 4, 3),
    (3, 5, 2, (3, 7, 12), (1, 0), 4, 3),
    (3, 7, 2, (3, 7, 12), (1, 0), 4, 3),
    (4, 5, 2, (3, 7, 12), (1, 1), 4, 3),
    (5, 7, 2, (3, 7, 12), (1, 0), 4, 3),
    (2, 9, 2, (3, 8, 28), (1, 0), 4, 3),
    (2, 3, 3, (3, 5), (1, 0, 0), 2, 2),
    (3, 4, 3, (3, 5), (1, 0, 0), 2, 2),
)
ORDER_Q_TINY = (
    (2, 3, 2, (3, 6), (1, 0), 3, 2),
    (2, 3, 3, (3,), (1, 0, 1), 2, 2),
)


def _germ_nu(a, b, exps):
    i, j = exps[0], exps[1]
    q, r = divmod(i, a)
    return r + j + q * b + sum(exps[2:])


def _germ_nubar(a, b, exps):
    return Fraction(exps[0] * b, a) + sum(exps[1:])


class OrderQ:
    name = "order-q"

    def __init__(self, lab, seed, tiny=False, workdir=None):
        self.lab = lab
        self.seed = seed
        self.shapes = ORDER_Q_TINY if tiny else ORDER_Q_SHAPES

    def make_pass(self, k):
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        ops = []
        for g, shape in enumerate(self.shapes):
            ops += self._germ_ops(rng, "p%d/g%d" % (k, g), *shape)
        return ops

    def _germ_ops(self, rng, label, a, b, n, targets, nubar_exps, nubar_n,
                  slope_n):
        lab = self.lab
        names = ("x", "y", "z")[:n]
        ring = lab.poly.Ring(names)
        relation = "x^%d - %d*y^%d" % (a, rng.choice((1, -1, 2, -2, 3)), b)
        relation = relation.replace("- -", "+ ").replace(" 1*", " ")
        pres = lab.samuel.LocalRingPresentation(ring, [ring.parse(relation)])
        label = "%s[%s in %dv]" % (label, relation, n)
        ops = []
        for target in targets:
            exps = rng.choice([
                e for e in itertools.product(range(target + 1), repeat=n)
                if _germ_nu(a, b, e) == target])
            text = poly_text(mono(*exps), names)
            ops.append(self._nu_op(label, pres, ring.parse(text), text,
                                   target))
        text = poly_text(mono(*nubar_exps), names)
        ops.append(self._nubar_op(label, pres, ring.parse(text), text,
                                  nubar_n, _germ_nubar(a, b, nubar_exps)))
        ops.append(self._slope_op(label, pres, slope_n, Fraction(b, a)))
        return ops

    def _nu_op(self, label, pres, f, text, true):
        samuel = self.lab.samuel

        def judge(res):
            value = ext_value(res.value)
            if res.at_least:
                if value is None or value > true:
                    return Verdict("nu >= %s but the order is %d"
                                   % (value, true))
            elif value != true:
                return Verdict("nu = %s but the order is %d" % (value, true))
            return Verdict(exact=not res.at_least, bound=ratio(value, true))

        return Op("%s/nu(%s)" % (label, text), text,
                  lambda: samuel.nu(pres, f), judge)

    def _nubar_op(self, label, pres, f, text, max_n, true):
        samuel = self.lab.samuel

        def judge(res):
            value = ext_value(res.value)
            exact = res.status == "exact"
            if value is None or value > true or (exact and value != true):
                return Verdict("nubar %s (%s) but the true value is %s"
                               % (value, res.status, true))
            return Verdict(exact=exact, bound=ratio(value, true))

        return Op("%s/nubar(%s,max_n=%d)" % (label, text, max_n), text,
                  lambda: samuel.nubar(pres, f, strategy="limit",
                                       max_n=max_n), judge)

    def _slope_op(self, label, pres, max_n, true):
        samuel = self.lab.samuel

        def judge(res):
            value = ext_value(res.lower_bound)
            if res.classification != "extremal":
                return Verdict("classified %s, expected extremal"
                               % res.classification)
            if value is None or value > true or (res.exact and value != true):
                return Verdict("slope %s but the true slope is %s"
                               % (value, true))
            return Verdict(exact=res.exact, bound=ratio(value, true))

        return Op("%s/samuel_slope(max_n=%d)" % (label, max_n), "",
                  lambda: samuel.samuel_slope(pres, max_n=max_n), judge)


# -- monomial-newton -------------------------------------------------------
#
# Monomial ideals in a relation-free ring. The Newton polyhedron of I^a is
# a times that of I, so its facets are those of I with thresholds times a.
# nubar(f) >= a/b exactly when f^b lies in the closure of I^a, and
# nubar(f^r) = r*nubar(f). For a diagonal ideal (x1^d1, ..., xn^dn),
# nubar(f) is the least sum(e_i/d_i) over the terms of f.

# (variables, extra mixed generators, m-primary?, highest power a, number
# of minimal generators of I^a). Facet enumeration costs about
# C(generators, variables), so each shape fixes the size of its top power
# and the seed draws ideals until one has it; 0 leaves the size free. The
# one diagonal shape sits in 3 variables: the light operations on
# diagonal ideals in 2 and 4 variables fell right at the median latency,
# between two groups, and made it jump from run to run.
NEWTON_SHAPES = (
    (2, 3, True, 4, 0), (2, 3, False, 4, 0),
    (3, 0, True, 3, 0),
    (3, 2, True, 3, 25), (3, 2, True, 3, 25),
    (3, 3, True, 3, 28), (3, 3, True, 3, 28),
    (3, 3, False, 3, 28), (3, 3, False, 3, 28),
    (4, 1, True, 2, 14), (4, 1, True, 2, 14),
    (4, 2, True, 2, 18), (4, 2, False, 2, 18),
)
NEWTON_TINY = ((2, 0, True, 2, 0), (3, 1, False, 2, 0))


def _divides(g, e):
    return all(a <= b for a, b in zip(g, e))


def _monomial_ideal(rng, n, extra, primary):
    """Exponents of minimal generators: pure powers of every variable (of
    all but x when not m-primary, plus x times other variables), and
    `extra` mixed monomials under the staircase of the pure powers."""
    degrees = [rng.randint(2, 5) for _ in range(n)]
    gens = [tuple(d if j == i else 0 for j in range(n))
            for i, d in enumerate(degrees) if primary or i]
    if not primary:
        other = rng.randrange(1, n)
        gens.append(tuple(rng.randint(1, 3) if j == 0 else
                          int(j == other or rng.random() < 0.5)
                          for j in range(n)))
    for _ in range(extra):
        free = [e for e in itertools.product(*map(range, degrees))
                if sum(map(bool, e)) >= 2 and not any(
                    _divides(g, e) or _divides(e, g) for g in gens)]
        if free:
            gens.append(rng.choice(free))
    return degrees, gens


def _power_size(gens, a):
    """Number of minimal generators of the a-th power."""
    prods = {tuple(map(sum, zip(*combo)))
             for combo in itertools.combinations_with_replacement(gens, a)}
    return sum(1 for e in prods
               if not any(g != e and _divides(g, e) for g in prods))


class MonomialNewton:
    name = "monomial-newton"

    def __init__(self, lab, seed, tiny=False, workdir=None):
        self.lab = lab
        self.seed = seed
        self.shapes = NEWTON_TINY if tiny else NEWTON_SHAPES

    def make_pass(self, k):
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        ops = []
        for g, (n, extra, primary, top, size) in enumerate(self.shapes):
            while True:
                degrees, gens = _monomial_ideal(rng, n, extra, primary)
                if not size or _power_size(gens, top) == size:
                    break
            ops += self._ideal_ops(rng, "p%d/i%d" % (k, g), degrees, gens,
                                   primary and not extra, top)
        return ops

    def _ideal_ops(self, rng, label, degrees, gens, diagonal, top):
        lab = self.lab
        n = len(degrees)
        names = ("x", "y", "z", "w")[:n]
        texts = [poly_text(mono(*g), names) for g in gens]
        ring = lab.poly.Ring(names)
        ideal = lab.groebner.IdealPresentation(
            ring, [ring.parse(t) for t in texts])
        free = lab.samuel.LocalRingPresentation(ring, [])
        label = "%s[(%s)]" % (label, ", ".join(texts))
        state = {}
        ops = [self._polyhedron_op(label, ideal, a, state,
                                   degrees if diagonal else None)
               for a in range(1, top + 1)]
        for s in range(2):
            f = {}
            while len(f) < 1 + s:
                e = tuple(rng.randrange(5) for _ in range(n))
                if any(e):
                    f[e] = rng.choice((1, -1, 2))
            true = None
            if diagonal:
                true = min(sum(Fraction(x, d) for x, d in zip(e, degrees))
                           for e in f)
            key = "f%d" % s
            ops.append(self._nubar_op(label, key, free, ideal, f, names,
                                      1, true, state))
            if s == 0:
                ops.append(self._nubar_op(label, key, free, ideal,
                                          poly_pow(f, 2, n), names, 2,
                                          None, state))
            for a in (top, top - 1):
                ops.append(self._closure_op(label, key, ideal, f, names,
                                            a, rng.randint(1, 3), state))
        return ops

    def _polyhedron_op(self, label, ideal, a, state, degrees):
        lab = self.lab

        def run():
            return lab.newton.build_polyhedron(
                lab.groebner.ideal_power(ideal, a))

        def judge(res):
            facets = set(res.facets)
            if a == 1:
                state["facets"] = facets
                if degrees is not None:
                    lcm = math.lcm(*degrees)
                    want = {(tuple(lcm // d for d in degrees), lcm)}
                    if facets != want:
                        return Verdict("facets %s, expected %s"
                                       % (sorted(facets), sorted(want)))
                if not facets:
                    return Verdict("no facets")
                return Verdict()
            if "facets" not in state:
                return Verdict("no facets of I to compare against")
            want = {(w, a * thr) for w, thr in state["facets"]}
            if facets != want:
                return Verdict("facets of I^%d are not %d times those of I"
                               % (a, a))
            return Verdict()

        return Op("%s/polyhedron(I^%d)" % (label, a), "", run, judge)

    def _nubar_op(self, label, key, free, ideal, f, names, power, true,
                  state):
        samuel = self.lab.samuel
        text = poly_text(f, names)
        g = ideal.ring.parse(text)

        def judge(res):
            value = ext_value(res.value)
            if res.status != "exact":
                return Verdict("nubar labelled %s" % res.status, exact=False)
            if value is None:
                return Verdict("nubar of a nonzero polynomial is inf")
            if power == 1:
                state[key] = value
            elif key not in state or value != power * state[key]:
                return Verdict("nubar(f^%d) = %s, not %d * nubar(f)"
                               % (power, value, power))
            if true is not None and value != true:
                return Verdict("nubar %s, expected %s" % (value, true))
            return Verdict(bound=None if true is None else 1.0)

        return Op("%s/nubar(%s)" % (label, text), text,
                  lambda: samuel.nubar(free, g, ideal=ideal), judge)

    def _closure_op(self, label, key, ideal, f, names, a, b, state):
        newton = self.lab.newton
        text = poly_text(poly_pow(f, b, len(names)), names)
        fb = ideal.ring.parse(text)

        def judge(res):
            if key not in state:
                return Verdict("no nubar(f) to compare against")
            want = state[key] >= Fraction(a, b)
            if res != want:
                return Verdict("closure says %s but nubar(f) = %s vs %d/%d"
                               % (res, state[key], a, b))
            return Verdict()

        return Op("%s/closure(f^%d in I^%d)" % (label, b, a), text,
                  lambda: newton.closure_member(fb, ideal, a), judge)


# -- fp-jobs ---------------------------------------------------------------
#
# Job files run through the command-line entry point in-process.
#   kernel: a monomial ideal M of x,y,z moved by an invertible linear map
#     over F_p. Linear forms in rad(M) are spanned by the variables with a
#     pure power in M, so r is their number; t = 3 - dim(M).
#   slope: (z + c*y^s)^p + y^k in characteristic p cleans to z^p + y^k:
#     hord = k/p when p does not divide k and inf when it does.
#     (z + c*y^s)^m + y^k with p not dividing m: Tschirnhausen gives k/m.
#   check-theorems: z^p + y^k, hord as above, verdict pass. For p above
#     the command's default max_n = 8 the limit bound of the slope stops
#     short of hord (it needs the p-th power), so a correct program may
#     also answer inconclusive; only min(slope bound, ord) > hord is a
#     contradiction. At p = 11 and 13 the package prints FAIL instead
#     (bug 3): those are failed operations, named with the defect.

# (p, template of M). The lines enumerated grow like p^2 and the cost per
# line differs several times between ideals, so the seed permutes the
# variables of a fixed template (and draws the linear map); at p = 3, where
# the whole enumeration is cheap, M is any ideal of two or three quadratic
# monomials.
QUADRICS = tuple(e for e in itertools.product(range(3), repeat=3)
                 if sum(e) == 2)
SQUARES = ((2, 0, 0), (0, 2, 0))  # r = t = 2, extremal
CHAIN = ((2, 0, 0), (1, 1, 0), (0, 1, 1))  # r = 1, t = 2, non-extremal
KERNELS = ((3, None), (5, SQUARES), (7, CHAIN), (11, SQUARES), (13, CHAIN))
SLOPE_PRIMES = (2, 3, 5, 7, 11, 13)
TSCHIRNHAUSEN = ((3, 2), (3, 4), (5, 3), (7, 4))  # (p, degree m)
THEOREM_PRIMES = (2, 3, 5, 7, 11, 13)
# Slope jobs take milliseconds and the others tenths of a second or more.
# Ten rounds of slope jobs make them most of a pass, so the median latency
# falls inside the slope jobs and the 90th percentile inside the
# check-theorems jobs at p <= 7, not on the edge between two groups.
SLOPE_REPEATS = 10
FP_TINY = {"kernel": ((3, None), (5, None)), "slope": (2, 3),
           "tsch": ((3, 2),), "theorem": (2, 11)}


def _job(names, char, **sections):
    job = {"schema": "slopelab-job/1",
           "ring": {"vars": list(names), "char": char}}
    job.update(sections)
    return job


def _monomial_dimension(gens, n):
    best = 0
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(any(g[i] for i in range(n) if i not in subset)
                   for g in gens):
                best = size
    return best


class FpJobs:
    name = "fp-jobs"

    def __init__(self, lab, seed, tiny=False, workdir=None):
        self.lab = lab
        self.seed = seed
        self.workdir = workdir
        if tiny:
            self.kernels = FP_TINY["kernel"]
            self.slope_primes = FP_TINY["slope"]
            self.tsch = FP_TINY["tsch"]
            self.theorem_primes = FP_TINY["theorem"]
            self.repeats = 1
        else:
            self.kernels = KERNELS
            self.slope_primes = SLOPE_PRIMES
            self.tsch = TSCHIRNHAUSEN
            self.theorem_primes = THEOREM_PRIMES
            self.repeats = SLOPE_REPEATS

    def make_pass(self, k):
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        folder = os.path.join(self.workdir, "pass%d" % k)
        os.makedirs(folder, exist_ok=True)
        specs = []
        for p, template in self.kernels:
            specs.append(self._kernel_job(rng, p, template))
        for _ in range(self.repeats):
            for p in self.slope_primes:
                specs.append(self._frobenius_slope_job(rng, p))
            for p, m in self.tsch:
                specs.append(self._tschirnhausen_job(rng, p, m))
        for p in self.theorem_primes:
            finite = [k for k in (p + 1, p + 2) if k % p]
            specs.append(self._theorem_job(p, rng.choice(finite)))
            specs.append(self._theorem_job(p, 2 * p))
        ops = []
        for idx, (label, cmd, job, judge) in enumerate(specs):
            path = os.path.join(folder, "%02d-%s.json" % (idx, cmd))
            text = json.dumps(job, sort_keys=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            ops.append(Op("p%d/%s" % (k, label), text,
                          self._runner(cmd, path), judge))
        return ops

    def _runner(self, cmd, path):
        cli = self.lab.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([cmd, path, "--json"])
            return code, out.getvalue(), err.getvalue()

        return run

    def _kernel_job(self, rng, p, template):
        n = 3
        if template is None:
            gens = rng.sample(QUADRICS, rng.randint(2, 3))
        else:
            perm = rng.sample(range(n), n)
            gens = [tuple(g[perm[i]] for i in range(n)) for g in template]
        gens.sort()
        while True:
            matrix = [[rng.randrange(1, p) for _ in range(n)]
                      for _ in range(n)]
            if _det3(matrix) % p:
                break
        images = [{tuple(int(i == j) for i in range(n)): matrix[v][j]
                   for j in range(n)} for v in range(n)]
        relations = []
        for g in gens:
            out = {(0,) * n: 1}
            for v, e in enumerate(g):
                out = poly_mul(out, poly_pow(images[v], e, n, p), p)
            relations.append(poly_text(out, ("x", "y", "z")))
        r = sum(1 for v in range(n)
                if any(g[v] == sum(g) for g in gens))
        t = n - _monomial_dimension(gens, n)
        job = _job(("x", "y", "z"), p, local_ring={"relations": relations},
                   kernel={})
        label = "kernel[F_%d, M=(%s)]" % (
            p, ", ".join(poly_text(mono(*g), "xyz") for g in gens))

        def judge(res):
            code, out, err = res
            if code != 0:
                return Verdict("exit %d: %s" % (code, err.strip()))
            report = json.loads(out)
            want = "extremal" if r == t else "non-extremal"
            if (report["r"], report["t"], report["classification"]) != \
                    (r, t, want):
                return Verdict("r=%s t=%s %s, expected r=%d t=%d %s"
                               % (report["r"], report["t"],
                                  report["classification"], r, t, want))
            return Verdict(bound=1.0)

        return label, "kernel", job, judge

    def _frobenius_slope_job(self, rng, p):
        k = rng.randint(p + 1, 3 * p)
        s = rng.choice([s for s in (1, 2, 3) if s * p != k])
        c = rng.randrange(1, p)
        g = poly_add({(0, p): 1, (k, 0): 1}, {(s * p, 0): c}, p)
        true = None if k % p == 0 else Fraction(k, p)
        return self._slope_spec(p, g, true, "frobenius")

    def _tschirnhausen_job(self, rng, p, m):
        k = rng.randint(m + 1, 3 * m)
        s = rng.randint(1, 2)
        c = rng.randrange(1, p)
        shifted = poly_pow({(0, 1): 1, (s, 0): c}, m, 2, p)
        g = poly_add(shifted, {(k, 0): 1}, p)
        return self._slope_spec(p, g, Fraction(k, m), "tschirnhausen")

    def _slope_spec(self, p, g, true, shape):
        text = poly_text(g, ("y", "z"))
        job = _job(("y", "z"), p, split={"base": ["y"], "fiber": ["z"]},
                   slope={"g": text})

        def judge(res):
            code, out, err = res
            if code != 0:
                return Verdict("exit %d: %s" % (code, err.strip()))
            report = json.loads(out)
            hord = parse_value(report["Hord"])
            if hord != true:
                return Verdict("hord %s, expected %s" % (hord, true))
            return Verdict(exact=not report["approximate_elimination"],
                           bound=1.0)

        return "slope-%s[F_%d, %s]" % (shape, p, text), "slope", job, judge

    def _theorem_job(self, p, k):
        text = "z^%d + y^%d" % (p, k)
        true = None if k % p == 0 else Fraction(k, p)
        job = _job(("y", "z"), p, polys={"g": text},
                   local_ring={"relations": ["g"]},
                   split={"base": ["y"], "fiber": ["z"]},
                   check_theorems={})

        def judge(res):
            code, out, err = res
            report = json.loads(out) if out.strip() else {}
            inconclusive = report.get("verdict") == "inconclusive" or \
                report.get("inconclusive") is True
            if not inconclusive and (code != 0 or not report.get("passed")):
                return Verdict("verdict FAIL (exit %d): %s"
                               % (code, out.strip() or err.strip()),
                               known=_bug_3(report, true))
            hord = parse_value(report["hord"])
            if hord != true:
                return Verdict("hord %s, expected %s" % (hord, true))
            slope = parse_value(report["slope"])
            if true is not None and (slope is None or slope > true):
                return Verdict("slope %s above hord %s" % (slope, true))
            return Verdict(exact=report["slope_certified"] and
                           not inconclusive, bound=ratio(slope, true))

        return "check-theorems[F_%d, %s]" % (p, text), "check-theorems", \
            job, judge


def _bug_3(report, true):
    """BUG_3 when a FAIL report has bug 3's symptom: an extremal germ, the
    true hord, and slope lower bound < hord <= elimination order, which
    is inconclusive, not a contradiction. None otherwise."""
    try:
        hord = parse_value(report["hord"])
        ord_d = parse_value(report["ord"])
        slope = parse_value(report["slope"])
    except (KeyError, TypeError, ValueError):
        return None
    if report.get("classification") != "extremal" or hord != true \
            or slope is None:
        return None
    if slope < (math.inf if hord is None else hord) <= \
            (math.inf if ord_d is None else ord_d):
        return BUG_3
    return None


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


WORKLOADS = {cls.name: cls for cls in (OrderQ, MonomialNewton, FpJobs)}
