"""Command-line front end.

Jobs are JSON files: a ring declaration plus named polynomials, ideals,
certificates and points, and one parameter section per subcommand.  Each
subcommand loads the job, runs the matching computation, and prints
either a short human summary or one line of canonical JSON.

Exit codes: 0 on success, 1 on a parse or validation problem (and on a
failed corpus or theorem check), 2 when --require-exact was given and
the result is only a bound or an approximation.
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
from .newton import MonomialValuation
from .poly import Ring, VariableSplit
from .samuel import (LIMIT_N_DEFAULT, LocalRingPresentation,
                     ValuationCertificate, _check_cap, kernel_lambda, nubar,
                     samuel_slope)
from .elimpres import (MAX_ROUNDS_DEFAULT, THEOREM_MAX_N_DEFAULT, PointSpec,
                       cross_check_theorems, hord_report)
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
        self.certificates = {}
        for name, entries in self.section("certificates").items():
            self.certificates[name] = self._parse_certificate(name, entries)

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
        except (SlopelabError, ValueError, KeyError) as exc:
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
        if not isinstance(ref, str) or ref not in self.certificates:
            raise JobError("%s: unknown certificate %r" % (where, ref))
        return self.certificates[ref]

    def _parse_certificate(self, name, entries):
        where = "certificates[%s]" % name
        try:
            if not isinstance(entries, list) or not entries:
                raise JobError("expected a nonempty list")
            pairs = []
            for entry in entries:
                if not isinstance(entry, dict) or "weights" not in entry \
                        or "value" not in entry:
                    raise JobError("each entry needs weights and value")
                if not isinstance(entry["weights"], dict):
                    raise JobError("weights must map variables")
                pairs.append((
                    MonomialValuation.from_dict(self.ring, entry["weights"]),
                    entry["value"]))
            return ValuationCertificate(pairs)
        except (SlopelabError, ValueError, KeyError) as exc:
            raise JobError("%s: %s" % (where, exc))

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
        except (SlopelabError, ValueError, KeyError, TypeError) as exc:
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


def _emit(args, report, lines):
    if args.json:
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in lines:
            print(line)


def _cap(args, params, section, key, default):
    """A cap from the command line, which main checked, else the job
    section, else default."""
    value = getattr(args, key)
    if value is None:
        value = params.get(key, default)
        _check_cap("%s.%s" % (section, key), value)
    return value


def cmd_nubar(args):
    job = Job.load(args.job)
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
                   max_n=_cap(args, params, "nubar", "max_n",
                              LIMIT_N_DEFAULT))
    report = {"value": result.lower.serialize(), "status": result.status}
    _emit(args, report,
          ["nubar = %s (%s)" % (report["value"], report["status"])])
    if args.require_exact and not result.exact:
        return 2
    return 0


def _slope_json(report):
    out = {
        "Hord": report.hord.serialize(),
        "elim_ord": report.elimination_order.serialize(),
        "approximate_elimination": report.approximate_elimination,
        "transcript": [{"var": name, "shift": shift.canonical_string()}
                       for name, shift in report.transcript],
    }
    if report.case is not None:
        out["case"] = report.case
    if report.degenerate:
        out["flag"] = "degenerate"
    return out


def _slope_lines(report):
    lines = []
    if report.value is not None:  # the Tschirnhausen route has no slope
        lines.append("slope = %s" % report.value.serialize())
    if report.case is not None:
        lines.append("case = %s" % report.case)
    note = " (approximate generating rule)" \
        if report.approximate_elimination else ""
    lines.append("elimination order = %s%s"
                 % (report.elimination_order.serialize(), note))
    lines.append("hord = %s" % report.hord.serialize())
    for name, shift in report.transcript:
        lines.append("cleaning: %s -> %s - (%s)"
                     % (name, name, (-shift).canonical_string()))
    if report.degenerate:
        lines.append("degenerate: the fiber polynomial reduced to a "
                     "pure power")
    return lines


def cmd_slope(args):
    job = Job.load(args.job)
    params = job.section("slope")
    if "g" not in params:
        raise JobError("slope section needs an entry g")
    report = hord_report(job.poly(params["g"], "slope.g"), job.split(),
                         at=job.point(),
                         max_rounds=_cap(args, params, "slope", "max_rounds",
                                         MAX_ROUNDS_DEFAULT))
    json_report = _slope_json(report)
    lines = _slope_lines(report)
    inexact = report.approximate_elimination

    if "samuel_slope" in job.data:
        code, samuel_report, samuel_lines = _samuel_slope_report(job, args)
        json_report["samuel"] = samuel_report
        lines += samuel_lines
        inexact = inexact or code == 2
    _emit(args, json_report, lines)
    if args.require_exact and inexact:
        return 2
    return 0


def cmd_kernel(args):
    job = Job.load(args.job)
    report = kernel_lambda(job.local_ring(), prime=job.point().variables)
    json_report = {
        "classification": report.classification,
        "method": report.method,
        "r": report.r,
        "t": report.t,
        "basis": [b.canonical_string() for b in report.basis],
    }
    lines = ["classification = %s (method %s)"
             % (report.classification, report.method),
             "t = %d, r = %d" % (report.t, report.r)]
    if report.basis:
        lines.append("basis: %s" % "; ".join(json_report["basis"]))
    _emit(args, json_report, lines)
    if args.require_exact and report.classification == "unknown":
        return 2
    return 0


def _samuel_slope_report(job, args):
    params = job.section("samuel_slope")
    result = samuel_slope(job.local_ring(), candidates=job.candidates(),
                          max_n=_cap(args, params, "samuel_slope", "max_n",
                                     LIMIT_N_DEFAULT))
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
    code = 0
    if args.require_exact and not result.exact:
        code = 2
    return code, report, lines


def cmd_samuel_slope(args):
    job = Job.load(args.job)
    code, report, lines = _samuel_slope_report(job, args)
    _emit(args, report, lines)
    return code


def cmd_check_theorems(args):
    job = Job.load(args.job)
    params = job.section("check_theorems")
    report = cross_check_theorems(
        job.local_ring(), job.split(), at=job.point(),
        max_n=_cap(args, params, "check_theorems", "max_n",
                   THEOREM_MAX_N_DEFAULT),
        max_rounds=_cap(args, params, "check_theorems", "max_rounds",
                        MAX_ROUNDS_DEFAULT))
    json_report = {"applicable": report.applicable,
                   "passed": report.passed,
                   "classification": report.classification}
    if report.hord is not None:
        json_report["hord"] = report.hord.serialize()
    if report.ord_d is not None:
        json_report["ord"] = report.ord_d.serialize()
    if report.slope_value is not None:
        json_report["slope"] = report.slope_value.serialize()
        json_report["slope_certified"] = report.slope_certified
    if report.case is not None:
        json_report["case"] = report.case
    if report.note:
        json_report["note"] = report.note
    if report.inconclusive:
        json_report["inconclusive"] = True

    lines = ["verdict: %s" % report.verdict()]
    if not report.applicable:
        lines[0] += " (not applicable: %s)" % (report.note or
                                               report.classification)
    else:
        lines.append("classification = %s" % report.classification)
        lines.append("hord = %s, elimination order = %s"
                     % (report.hord.serialize(), report.ord_d.serialize()))
        if report.slope_value is not None:
            tag = "certified exact" if report.slope_certified \
                else "lower bound"
            lines.append("slope = %s (%s)"
                         % (report.slope_value.serialize(), tag))
        if report.note:
            lines.append("note: %s" % report.note)
    _emit(args, json_report, lines)
    if report.verdict() == "FAIL":
        return 1
    if args.require_exact and report.applicable \
            and report.classification == "extremal" \
            and not report.slope_certified:
        return 2
    return 0


def cmd_corpus(args):
    filters = tuple(args.filter or ())
    rows = corpus_module.run_corpus(
        filters=filters, max_n=_cap(args, {}, "corpus", "max_n",
                                    LIMIT_N_DEFAULT))
    if not rows:
        print("no corpus rows match %s" % (", ".join(filters)),
              file=sys.stderr)
        return 1
    failed = sum(1 for row in rows if not row.ok)
    if args.json:
        report = {"failed": failed,
                  "rows": [{"name": row.name, "expected": row.expected,
                            "computed": row.computed, "ok": row.ok}
                           for row in rows]}
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        name_w = max(len(row.name) for row in rows)
        exp_w = max(len(row.expected) for row in rows)
        for row in rows:
            print("%-4s %-*s  expected %-*s  computed %s"
                  % ("ok" if row.ok else "FAIL", name_w, row.name,
                     exp_w, row.expected, row.computed))
        print("corpus: %d checks, %d failed" % (len(rows), failed))
    return 1 if failed else 0


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
        return args.handler(args)
    except SlopelabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        groebner.DEFAULT_PAIR_BUDGET = saved


if __name__ == "__main__":
    sys.exit(main())
