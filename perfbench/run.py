"""slopelab benchmark: one workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload order-q --seed 1 --seconds 30 \
        --trace 0

The package is imported from src/ next to this directory. Inputs come
from the seed only. Operations run one after another, each starting when
the previous one has returned; no threads or worker processes. Every
answer is checked by an oracle in workloads.py, and each failed
operation is printed by name.

Every pass starts from a fresh import of the package. --trace 0 first
times SETUPS cold set-ups, each in a fresh interpreter from its start
until pass 0's inputs are ready, then runs passes of fresh inputs until
--seconds is spent and prints the end-to-end metrics. --trace 1 runs
pass 0 alternately without and with spans (tracing.py) until --seconds
is spent, and prints the per-layer metrics of the first traced pass;
the difference of the median traced and untraced pass times is the
tracing overhead, and every traced pass must repeat the first one's
counters. Either way the last line of stdout is one JSON object.
Operations that fail with the symptom of a known defect of the package
(workloads.BUG_3) count as failed and are named with it; the run is
correct, and exits 0, when no other operation fails and, with
--trace 1, the counters repeat.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("arith", "poly", "groebner", "newton", "samuel", "elimpres", "cli")
SETUPS = 5  # cold set-ups timed for setup_s, one interpreter each

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "ok_share": "ratio", "exact_share": "ratio",
         "bound_share": "ratio", "peak_rss_mb": "MB"}


class Lab:
    """The package's layer modules, imported afresh."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "slopelab" or n.startswith("slopelab.")]:
            del sys.modules[name]
        package = importlib.import_module("slopelab")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError("slopelab was not imported from %s" % SRC)
        for name in LAYERS:
            setattr(self, name, importlib.import_module("slopelab." + name))


def run_pass(ops):
    """Run the ops in order; one row (name, wall, cpu, verdict) per op."""
    rows = []
    for op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            t1, c1 = time.perf_counter(), time.process_time()
            verdict = workloads.Verdict("raised %s: %s"
                                        % (type(exc).__name__, exc))
        else:
            t1, c1 = time.perf_counter(), time.process_time()
            try:
                verdict = op.judge(result)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                verdict = workloads.Verdict("unreadable answer: %r" % exc)
        rows.append((op.name, t1 - t0, c1 - c0, verdict))
    return rows


def end_to_end(passes, setups):
    rows = [row for rows in passes for row in rows]
    lat = sorted(row[1] * 1000 for row in rows)
    ok = [row[3] for row in rows if row[3].error is None]
    bounds = [v.bound for v in ok if v.bound is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(r[1] for r in rs) for rs in passes),
        "cpu_s": statistics.median(sum(r[2] for r in rs) for rs in passes),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] if len(lat) > 1
        else lat[0],
        "ok_share": len(ok) / len(rows),
        "exact_share": sum(v.exact for v in ok) / len(rows),
        "bound_share": statistics.fmean(bounds) if bounds else 1.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def cold_setup(args):
    """Seconds from starting a fresh interpreter on this script with
    --setup-only until it reports pass 0's inputs ready: interpreter
    start, imports, input and job-file generation."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("cold set-up exited %d" % proc.returncode)
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up pass 0, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slopelab", "__init__.py")):
        print("error: no slopelab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench")
    jobs = os.path.join(scratch, "jobs-%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))

    def set_up(k):
        """Import the package afresh and build pass k's inputs."""
        lab = Lab()
        bench = workloads.WORKLOADS[args.workload](lab, args.seed,
                                                   workdir=jobs)
        return lab, bench.make_pass(k)

    if args.setup_only:
        try:
            set_up(0)
        finally:
            shutil.rmtree(jobs, ignore_errors=True)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [cold_setup(args) for _ in range(SETUPS)]
    mismatches = []
    try:
        lab, ops = set_up(0)
        print("%s seed %d: inputs digest %s (pass 0, %d ops)"
              % (args.workload, args.seed, workloads.digest(ops), len(ops)))
        passes = []
        start = time.perf_counter()
        if args.trace:
            plain, traced, tracers = [], [], []
            while True:
                passes.append(run_pass(ops))
                plain.append(sum(r[1] for r in passes[-1]))
                lab, ops = set_up(0)
                tracers.append(tracing.Tracer())
                tracers[-1].install(lab)
                try:
                    passes.append(run_pass(ops))
                finally:
                    tracers[-1].uninstall()
                traced.append(sum(r[1] for r in passes[-1]))
                if time.perf_counter() - start + plain[-1] + traced[-1] \
                        > args.seconds:
                    break
                lab, ops = set_up(0)
            os.makedirs(scratch, exist_ok=True)
            spans = os.path.join(scratch, "spans-%s-%d.txt.gz"
                                 % (args.workload, args.seed))
            tracers[0].write(spans)
            wall_t, wall_u = statistics.median(traced), \
                statistics.median(plain)
            print("spans: %s; pass 0 untraced %s s, traced %s s"
                  % (os.path.relpath(spans, ROOT),
                     " ".join("%.3f" % w for w in plain),
                     " ".join("%.3f" % w for w in traced)))
            metrics = tracers[0].metrics(wall_t, wall_t - wall_u)
            for tracer in tracers[1:]:
                again = tracer.metrics(wall_t, wall_t - wall_u)
                for name, unit in tracing.METRICS:
                    if unit == "count" and \
                            again[name]["value"] != metrics[name]["value"]:
                        mismatches.append(
                            "counter %s differs between traced passes: "
                            "%s then %s" % (name, metrics[name]["value"],
                                            again[name]["value"]))
        else:
            while True:
                passes.append(run_pass(ops))
                last = sum(r[1] for r in passes[-1])
                if time.perf_counter() - start + last > args.seconds:
                    break
                ops = set_up(len(passes))[1]
            metrics = end_to_end(passes, setups)
            print("%d passes, %d ops; cold set-ups %s s"
                  % (len(passes), sum(len(p) for p in passes),
                     " ".join("%.3f" % t for t in setups)))
    finally:
        shutil.rmtree(jobs, ignore_errors=True)

    rows = [row for rows in passes for row in rows]
    failed = [row for row in rows if row[3].error is not None]
    for name, _, _, verdict in failed:
        known = "" if verdict.known is None else \
            " [known defect: %s]" % verdict.known
        print("FAILED %s: %s%s" % (name, verdict.error, known))
    for mismatch in mismatches:
        print("MISMATCH %s" % mismatch)
    correct = not mismatches and \
        all(row[3].known is not None for row in failed)
    print(json.dumps({"correct": correct, "attempted": len(rows),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
