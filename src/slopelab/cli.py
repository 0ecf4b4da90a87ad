"""Command-line front end.

Jobs are JSON files: a ring declaration plus named polynomials, ideals,
certificates and points, and one parameter section per subcommand.  Each
subcommand runs the matching computation on the loaded job and returns
its report twice, as a JSON object and as the lines of a short human
summary, with a code: 0 for an exact answer, 2 for one that is only a
bound or an approximation, and 1 for a failed corpus or theorem check.
main alone loads the job, prints the report (one line of canonical JSON
under --json) and reads --require-exact: it alone maps "not exact" to
exit code 2, and without the flag such an answer exits 0.  A parse or
validation problem is one `error:` line on stderr and exit code 1.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import groebner
from .arith import SlopelabError
from .groebner import IdealPresentation
from .poly import Ring, VariableSplit
from .samuel import (LocalRingPresentation, ValuationCertificate,
                     _check_cap, kernel_lambda, nubar, samuel_slope)
from .elimpres import PointSpec, cross_check_theorems, hord_report
from . import corpus as corpus_module

SCHEMA = "slopelab-job/1"

# The keys each job object reads; a job that names any other is refused
# when it loads, so a mistyped key never runs the default in its place.
_SECTION_KEYS = {
    "ring": ("vars", "char"),
    "local_ring": ("relations",),
    "split": ("base", "fiber"),
    "point": ("kind", "vars"),
    "nubar": ("f", "ideal", "certificate", "strategy", "max_n"),
    "slope": ("g", "max_rounds"),
    "kernel": (),
    "samuel_slope": ("max_n",),
    "check_theorems": ("max_n", "max_rounds"),
}
_TOP_LEVEL_KEYS = frozenset(_SECTION_KEYS).union((
    "schema", "polys", "ideals", "certificates", "candidates"))


class JobError(SlopelabError):
    """The job file does not parse or does not validate."""


class Job:
    """A validated job file: the ring plus every named object in it."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise JobError("job file must hold a JSON object")
        if data.get("schema") != SCHEMA:
            raise JobError("job schema must be %r" % SCHEMA)
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise JobError("unknown job sections: %s"
                           % ", ".join(sorted(unknown)))
        for name, keys in _SECTION_KEYS.items():
            section = data.get(name, {})
            if not isinstance(section, dict):
                raise JobError("section %r must be an object" % name)
            for key in section:
                if key not in keys:
                    raise JobError("%s takes no %s" % (name, key))
        ring_decl = data.get("ring")
        if not isinstance(ring_decl, dict):
            raise JobError("job needs a ring section")
        names = ring_decl.get("vars")
        if (not isinstance(names, list) or not names
                or not all(isinstance(v, str) for v in names)):
            raise JobError("ring vars must be a nonempty list of names")
        try:
            self.ring = Ring(tuple(names), char=ring_decl.get("char", 0))
        except (SlopelabError, ValueError) as exc:
            raise JobError("bad ring declaration: %s" % exc)
        self.data = data
        self.polys = {}
        for name, text in self.section("polys").items():
            self.polys[name] = self._parse_poly(text, "polys[%s]" % name)
        self.ideals = {}
        for name, gens in self.section("ideals").items():
            if not isinstance(gens, list):
                raise JobError("ideal %r must list its generators" % name)
            self.ideals[name] = IdealPresentation(
                self.ring, [self.poly(g, "ideals[%s]" % name) for g in gens])

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise JobError("cannot read job file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise JobError("job file is not valid JSON: %s" % exc)
        return cls(data)

    def _parse_poly(self, text, where):
        if not isinstance(text, str):
            raise JobError("%s: expected polynomial text" % where)
        try:
            return self.ring.parse(text)
        except (SlopelabError, ValueError) as exc:
            raise JobError("%s: %s" % (where, exc))

    def poly(self, ref, where):
        """Resolve a polynomial reference: a named entry or inline text."""
        if isinstance(ref, str) and ref in self.polys:
            return self.polys[ref]
        return self._parse_poly(ref, where)

    def ideal(self, ref, where):
        if isinstance(ref, str) and ref in self.ideals:
            return self.ideals[ref]
        if isinstance(ref, list):
            return IdealPresentation(
                self.ring, [self.poly(g, where) for g in ref])
        raise JobError("%s: unknown ideal %r" % (where, ref))

    def certificate(self, ref, where):
        """Parse and check the certificate ref names; no other entry of the
        certificates section is read."""
        section = self.section("certificates")
        if not isinstance(ref, str) or ref not in section:
            raise JobError("%s: unknown certificate %r" % (where, ref))
        entries = section[ref]
        try:
            if not isinstance(entries, list) or not entries:
                raise JobError("expected a nonempty list")
            return ValuationCertificate(self.ring, map(_entry, entries))
        except (SlopelabError, ValueError) as exc:
            raise JobError("certificates[%s]: %s" % (ref, exc))

    def local_ring(self):
        refs = self.section("local_ring").get("relations", [])
        if not isinstance(refs, list):
            raise JobError("local_ring relations must be a list")
        relations = [self.poly(r, "local_ring.relations") for r in refs]
        try:
            return LocalRingPresentation(self.ring, relations)
        except (SlopelabError, ValueError) as exc:
            raise JobError("bad local ring: %s" % exc)

    def split(self):
        section = self.data.get("split")
        if section is None:
            raise JobError("this command needs a split section "
                           "(base and fiber variables)")
        try:
            return VariableSplit(self.ring, section.get("base", ()),
                                 section.get("fiber", ()))
        except (SlopelabError, ValueError, TypeError) as exc:
            raise JobError("bad split: %s" % exc)

    def point(self):
        section = self.section("point")
        names = section.get("vars", [])
        if not isinstance(names, list) \
                or not all(name in self.ring.variables for name in names):
            raise JobError("point vars must be a list of ring variables")
        try:
            return PointSpec(section.get("kind", "origin"), tuple(names))
        except ValueError as exc:  # PointSpec names the point in its message
            raise JobError(str(exc))

    def candidates(self):
        section = self.data.get("candidates", [])
        if not isinstance(section, list):
            raise JobError("candidates must be a list of sequences")
        out = []
        for i, seq in enumerate(section):
            if not isinstance(seq, list):
                raise JobError("candidates[%d] must be a list" % i)
            out.append([self.poly(g, "candidates[%d]" % i) for g in seq])
        return out

    def section(self, key):
        section = self.data.get(key, {})
        if not isinstance(section, dict):
            raise JobError("section %r must be an object" % key)
        return section


def _entry(entry):
    """A certificate entry's (weights, value) pair, once its JSON shape
    is checked; ValuationCertificate checks the numbers."""
    if not isinstance(entry, dict) or "weights" not in entry \
            or "value" not in entry:
        raise JobError("each entry needs weights and value")
    if not isinstance(entry["weights"], dict):
        raise JobError("weights must map variables")
    return entry["weights"], entry["value"]


def _caps(args, params, section, *keys):
    """The caps given for keys, as keywords: each from its flag, which
    main checked, else from the job section, checked as <section>.<key>.
    A cap given by neither is left out, so the library's default holds."""
    caps = {}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            if key not in params:
                continue
            value = params[key]
            _check_cap("%s.%s" % (section, key), value)
        caps[key] = value
    return caps


def cmd_nubar(job, args):
    params = job.section("nubar")
    if "f" not in params:
        raise JobError("nubar section needs an entry f")
    f = job.poly(params["f"], "nubar.f")
    ideal = None
    if "ideal" in params:
        ideal = job.ideal(params["ideal"], "nubar.ideal")
    certificate = None
    if "certificate" in params:
        certificate = job.certificate(params["certificate"],
                                      "nubar.certificate")
    strategy = params.get("strategy", "auto")
    presentation = job.local_ring()
    result = nubar(presentation, f, ideal=ideal, strategy=strategy,
                   certificate=certificate,
                   **_caps(args, params, "nubar", "max_n"))
    report = {"value": result.lower.serialize(), "status": result.status}
    lines = ["nubar = %s (%s)" % (report["value"], report["status"])]
    return report, lines, 0 if result.exact else 2


def cmd_slope(job, args):
    params = job.section("slope")
    if "g" not in params:
        raise JobError("slope section needs an entry g")
    result = hord_report(job.poly(params["g"], "slope.g"), job.split(),
                         at=job.point(),
                         **_caps(args, params, "slope", "max_rounds"))
    report = {
        "Hord": result.hord.serialize(),
        "elim_ord": result.elimination_order.serialize(),
        "approximate_elimination": result.approximate_elimination,
        "transcript": [{"var": name, "shift": shift.canonical_string()}
                       for name, shift in result.transcript],
    }
    lines = []
    if result.value is not None:  # the Tschirnhausen route has no slope
        lines.append("slope = %s" % result.value.serialize())
    if result.case is not None:
        report["case"] = result.case
        lines.append("case = %s" % result.case)
    note = " (approximate generating rule)" \
        if result.approximate_elimination else ""
    lines.append("elimination order = %s%s" % (report["elim_ord"], note))
    lines.append("hord = %s" % report["Hord"])
    for name, shift in result.transcript:
        lines.append("cleaning: %s -> %s - (%s)"
                     % (name, name, (-shift).canonical_string()))
    if result.degenerate:
        report["flag"] = "degenerate"
        lines.append("degenerate: the fiber polynomial reduced to a "
                     "pure power")
    code = 2 if result.approximate_elimination else 0
    if "samuel_slope" in job.data:
        report["samuel"], samuel_lines, samuel_code = \
            cmd_samuel_slope(job, args)
        lines += samuel_lines
        code = max(code, samuel_code)
    return report, lines, code


def cmd_kernel(job, args):
    result = kernel_lambda(job.local_ring(), prime=job.point().variables)
    report = {
        "classification": result.classification,
        "method": result.method,
        "r": result.r,
        "t": result.t,
        "basis": [b.canonical_string() for b in result.basis],
    }
    lines = ["classification = %s (method %s)"
             % (result.classification, result.method),
             "t = %d, r = %d" % (result.t, result.r)]
    if result.basis:
        lines.append("basis: %s" % "; ".join(report["basis"]))
    return report, lines, 2 if result.classification == "unknown" else 0


def cmd_samuel_slope(job, args):
    params = job.section("samuel_slope")
    result = samuel_slope(job.local_ring(), candidates=job.candidates(),
                          **_caps(args, params, "samuel_slope", "max_n"))
    report = {
        "bound": result.lower.serialize(),
        "exact": result.exact,
        "classification": result.classification,
        "witness": [w.canonical_string() for w in result.witness],
    }
    tag = "=" if result.exact else ">="
    lines = ["samuel slope %s %s (%s)" % (tag, report["bound"],
                                          result.classification)]
    if result.witness:
        lines.append("witness: %s" % "; ".join(report["witness"]))
    return report, lines, 0 if result.exact else 2


def cmd_check_theorems(job, args):
    params = job.section("check_theorems")
    result = cross_check_theorems(
        job.local_ring(), job.split(), at=job.point(),
        **_caps(args, params, "check_theorems", "max_n", "max_rounds"))
    report = {"applicable": result.applicable,
              "passed": result.passed,
              "classification": result.classification}
    if result.hord is not None:
        report["hord"] = result.hord.serialize()
    if result.ord_d is not None:
        report["ord"] = result.ord_d.serialize()
    if result.slope_value is not None:
        report["slope"] = result.slope_value.serialize()
        report["slope_certified"] = result.slope_certified
    if result.case is not None:
        report["case"] = result.case
    if result.note:
        report["note"] = result.note
    if result.inconclusive:
        report["inconclusive"] = True

    lines = ["verdict: %s" % result.verdict]
    if not result.applicable:
        lines[0] += " (not applicable: %s)" % result.note
    else:
        lines.append("classification = %s" % result.classification)
        lines.append("hord = %s, elimination order = %s"
                     % (report["hord"], report["ord"]))
        if result.slope_value is not None:
            tag = "certified exact" if result.slope_certified \
                else "lower bound"
            lines.append("slope = %s (%s)" % (report["slope"], tag))
        if result.note:
            lines.append("note: %s" % result.note)
    if result.verdict == "FAIL":
        return report, lines, 1
    inexact = result.applicable and result.classification == "extremal" \
        and not result.slope_certified
    return report, lines, 2 if inexact else 0


def cmd_corpus(job, args):
    filters = tuple(args.filter or ())
    rows = corpus_module.run_corpus(
        filters=filters, **_caps(args, {}, "corpus", "max_n"))
    if not rows:
        raise SlopelabError("no corpus rows match %s" % ", ".join(filters))
    failed = sum(1 for row in rows if not row.ok)
    report = {"failed": failed,
              "rows": [{"name": row.name, "expected": row.expected,
                        "computed": row.computed, "ok": row.ok}
                       for row in rows]}
    name_w = max(len(row.name) for row in rows)
    exp_w = max(len(row.expected) for row in rows)
    lines = ["%-4s %-*s  expected %-*s  computed %s"
             % ("ok" if row.ok else "FAIL", name_w, row.name,
                exp_w, row.expected, row.computed) for row in rows]
    lines.append("corpus: %d checks, %d failed" % (len(rows), failed))
    return report, lines, 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, keeping the
    exit-code contract (2 is reserved for inexact results)."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


_CAP_HELP = {"--max-n": "power cap for limit-based estimates",
             "--max-rounds": "cap on cleaning translation rounds"}


@functools.cache
def build_parser():
    """The one parser of the process: parsing leaves no value in it, so
    every main() call reuses it."""
    parser = _Parser(prog="slopelab",
                     description="Asymptotic order functions, Samuel "
                                 "slopes and Rees-algebra orders for "
                                 "hypersurface germs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name, handler, help_text, caps=(), needs_job=True):
        """A subcommand with the flags it reads: a job command can require
        an exact answer, and caps names its --max-n and --max-rounds."""
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        if needs_job:
            cmd.add_argument("job", help="path to a JSON job file")
            cmd.add_argument("--require-exact", action="store_true",
                             help="exit 2 unless the result is exact")
        cmd.add_argument("--json", action="store_true",
                         help="print one line of canonical JSON")
        for flag in caps:
            cmd.add_argument(flag, type=int, default=None,
                             help=_CAP_HELP[flag])
        cmd.set_defaults(handler=handler)
        return cmd

    add("nubar", cmd_nubar,
        "asymptotic order of a polynomial against an ideal", ["--max-n"])
    add("slope", cmd_slope,
        "slope, cleaning and order of a monic fiber polynomial",
        ["--max-n", "--max-rounds"])
    add("kernel", cmd_kernel,
        "degree-one nilpotents of the associated graded ring")
    add("samuel-slope", cmd_samuel_slope,
        "Samuel slope of a presented local ring", ["--max-n"])
    add("check-theorems", cmd_check_theorems,
        "confront the order and slope statements on one germ",
        ["--max-n", "--max-rounds"])
    corpus_cmd = add("corpus", cmd_corpus,
                     "replay every built-in check and compare against "
                     "the frozen table", ["--max-n"], needs_job=False)
    corpus_cmd.add_argument("--filter", action="append", default=None,
                            help="only run rows whose name contains this "
                                 "text (repeatable)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    saved = groebner.DEFAULT_PAIR_BUDGET
    try:
        for key in ("max_n", "max_rounds"):  # the cap flags, as typed
            value = getattr(args, key, None)
            if value is not None:
                _check_cap("--" + key.replace("_", "-"), value)
        budget = os.environ.get("SLOPELAB_BUDGET")
        if budget is not None:
            try:
                value = int(budget)
            except ValueError:
                value = None
            _check_cap("SLOPELAB_BUDGET", value, limit=math.inf)
            groebner.DEFAULT_PAIR_BUDGET = value
        job = Job.load(args.job) if "job" in args else None
        report, lines, code = args.handler(job, args)
    except SlopelabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        groebner.DEFAULT_PAIR_BUDGET = saved
    if args.json:
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in lines:
            print(line)
    if code == 2 and not args.require_exact:
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
