"""Per-layer tracing, installed from outside the package.

Each traced public function is replaced by a wrapper in every package
module that holds it: samuel, elimpres, cli and corpus import functions
by name, so patching only the defining module would miss their calls.
Methods are replaced on their class, aliases included (`__rmul__` is
`__mul__`). A span is (name, start, end, parent); spans stay in memory in
flat arrays and are written once, at the end of the run.

Self time is a span's duration minus the time of its child spans.
Per-term helpers (`leading`, `order_key`, `normal_form`, field
arithmetic) get no span: one would cost more than the call, and their
time counts toward the traced function that called them. Field-element
construction and primality tests are only counted.
"""

import array
import gzip
import json
import sys
import time
from collections import Counter


def _basis_polys(counts, result):
    counts["groebner.basis_polys"] += len(result.polys)


def _facets(counts, result):
    counts["newton.facets"] += len(result.facets)


def _capped(counts, result):
    counts["samuel.nu.capped"] += bool(result.at_least)


def _samples(counts, result):
    counts["samuel.nubar.samples"] += len(result.samples)


# (module, function, hook reading the result)
FUNCTIONS = (
    ("groebner", "buchberger", _basis_polys),
    ("groebner", "radical_member", None),
    ("groebner", "ideal_power", None),
    ("newton", "build_polyhedron", _facets),
    ("newton", "nubar_monomial", None),
    ("newton", "closure_member", None),
    ("samuel", "nu", _capped),
    ("samuel", "nubar", _samples),
    ("samuel", "kernel_lambda", None),
    ("samuel", "samuel_slope", None),
    ("elimpres", "build_p_presentation", None),
    ("elimpres", "slope", None),
    ("elimpres", "clean", None),
    ("elimpres", "tschirnhausen_ord", None),
    ("elimpres", "cross_check_theorems", None),
    ("cli", "main", None),
)
# (module, class, method, span name)
METHODS = (
    ("groebner", "GroebnerBasis", "contains", "groebner.contains"),
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("samuel", "LocalRingPresentation", "is_zero_element",
     "samuel.is_zero_element"),
)
# counted, not spanned: (module, class or None, attribute, counter name)
COUNTED = (
    ("arith", None, "is_prime", "arith.is_prime.calls"),
    ("arith", "PrimeFieldElement", "__init__", "arith.fp_element.new"),
)

# Every per-layer metric the traced run reports, with its unit. The
# end-to-end metric and workload each should move are in README.md.
METRICS = (
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.basis_polys", "count"),
    ("groebner.contains.calls", "count"),
    ("groebner.bases_per_membership", "ratio"),
    ("groebner.radical_member.calls", "count"),
    ("groebner.radical_member.s", "s"),
    ("groebner.ideal_power.self_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("arith.fp_element.new", "count"),
    ("arith.is_prime.calls", "count"),
    ("newton.build_polyhedron.calls", "count"),
    ("newton.build_polyhedron.self_s", "s"),
    ("newton.facets", "count"),
    ("newton.closure_member.self_s", "s"),
    ("samuel.nu.calls", "count"),
    ("samuel.nu.self_s", "s"),
    ("samuel.nu.capped", "count"),
    ("samuel.nubar.calls", "count"),
    ("samuel.nubar.self_s", "s"),
    ("samuel.nubar.samples", "count"),
    ("samuel.is_zero_element.calls", "count"),
    ("samuel.samuel_slope.self_s", "s"),
    ("samuel.samuel_slope.candidates", "count"),
    ("samuel.kernel_lambda.self_s", "s"),
    ("elimpres.clean.self_s", "s"),
    ("elimpres.cleaning_rounds", "count"),
    ("elimpres.cross_check_theorems.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._undo = []

    def _span(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, \
            self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, attr, original, wrapper):
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._replace(module, attr, wrapper)

    def _replace_method(self, cls, original, wrapper):
        for attr, value in list(cls.__dict__.items()):
            if value is original:
                self._replace(cls, attr, wrapper)

    def install(self, lab):
        modules = [m for n, m in sys.modules.items()
                   if n == "slopelab" or n.startswith("slopelab.")]
        for mod, attr, hook in FUNCTIONS:
            original = getattr(getattr(lab, mod), attr)
            self._replace_everywhere(
                modules, attr, original,
                self._span("%s.%s" % (mod, attr), original, hook))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(getattr(lab, mod), cls_name)
            original = cls.__dict__[attr]
            self._replace_method(cls, original,
                                 self._span(name, original, None))
        for mod, cls_name, attr, name in COUNTED:
            if cls_name is None:
                original = getattr(getattr(lab, mod), attr)
                self._replace_everywhere(modules, attr, original,
                                         self._counted(name, original))
            else:
                cls = getattr(getattr(lab, mod), cls_name)
                original = cls.__dict__[attr]
                self._replace_method(cls, original,
                                     self._counted(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """All spans as text: a header naming the span kinds, then one
        'kind parent start end' line per span, times relative to the
        first span."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.kind, self.parent, self.start, self.end):
                handle.write("%d %d %.9f %.9f\n"
                             % (row[0], row[1], row[2] - base, row[3] - base))

    def metrics(self, wall_s, overhead_s):
        """The METRICS values from the spans and counters."""
        n = len(self.kind)
        kind, parent = self.kind, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        ids = {name: i for i, name in enumerate(self.names)}
        calls, total, own = Counter(), Counter(), Counter()
        under_slope = bytearray(n)
        slope_id, nubar_id = ids["samuel.samuel_slope"], ids["samuel.nubar"]
        clean_id, round_id = ids["elimpres.clean"], ids["elimpres.slope"]
        candidates = rounds = 0
        for i in range(n):
            k, p = kind[i], parent[i]
            calls[k] += 1
            total[k] += dur[i]
            own[k] += dur[i] - child[i]
            if p >= 0 and (kind[p] == slope_id or under_slope[p]):
                under_slope[i] = 1
                candidates += k == nubar_id
            rounds += k == round_id and p >= 0 and kind[p] == clean_id

        def c(name):
            return calls[ids[name]]

        def s(name):
            return own[ids[name]]

        contains = c("groebner.contains")
        values = dict(self.counts)
        values.update({
            "groebner.buchberger.calls": c("groebner.buchberger"),
            "groebner.buchberger.self_s": s("groebner.buchberger"),
            "groebner.contains.calls": contains,
            "groebner.bases_per_membership":
                c("groebner.buchberger") / contains if contains else 0.0,
            "groebner.radical_member.calls": c("groebner.radical_member"),
            "groebner.radical_member.s": total[ids["groebner.radical_member"]],
            "groebner.ideal_power.self_s": s("groebner.ideal_power"),
            "poly.mul.calls": c("poly.mul"),
            "poly.mul.self_s": s("poly.mul"),
            "newton.build_polyhedron.calls": c("newton.build_polyhedron"),
            "newton.build_polyhedron.self_s": s("newton.build_polyhedron"),
            "newton.closure_member.self_s": s("newton.closure_member"),
            "samuel.nu.calls": c("samuel.nu"),
            "samuel.nu.self_s": s("samuel.nu"),
            "samuel.nubar.calls": c("samuel.nubar"),
            "samuel.nubar.self_s": s("samuel.nubar"),
            "samuel.is_zero_element.calls": c("samuel.is_zero_element"),
            "samuel.samuel_slope.self_s": s("samuel.samuel_slope"),
            "samuel.samuel_slope.candidates": candidates,
            "samuel.kernel_lambda.self_s": s("samuel.kernel_lambda"),
            "elimpres.clean.self_s": s("elimpres.clean"),
            "elimpres.cleaning_rounds": rounds,
            "elimpres.cross_check_theorems.self_s":
                s("elimpres.cross_check_theorems"),
            "cli.main.self_s": s("cli.main"),
            "trace.spans": n,
            "trace.wall_s": wall_s,
            "trace.overhead_s": overhead_s,
        })
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in METRICS}
