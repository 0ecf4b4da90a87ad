"""Fast self-check of the benchmark, stdlib only:

    python3 perfbench/smoke.py

A tiny size of each workload must pass every oracle, except where a
known defect of the package explains the failure; two builds of its
inputs for one seed must give the same digest, and two traced runs the
same counters; and BENCHMARK.json must name exactly the workloads and
metrics that run.py prints. Exits 1 and lists the problems otherwise.
"""

import json
import os
import shutil
import sys

import run
import tracing
import workloads

SEED = 0


def traced_pass(cls, jobs):
    lab = run.Lab()
    bench = cls(lab, SEED, tiny=True, workdir=jobs)
    ops = bench.make_pass(0)
    tracer = tracing.Tracer()
    tracer.install(lab)
    try:
        rows = run.run_pass(ops)
    finally:
        tracer.uninstall()
    counters = {name: m["value"]
                for name, m in tracer.metrics(0.0, 0.0).items()
                if m["unit"] in ("count", "ratio")}
    return workloads.digest(ops), rows, counters


def check_spec(problems):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    pairs = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if sorted(pairs) != sorted(run.UNITS.items()):
        problems.append("BENCHMARK.json end_to_end differs from run.UNITS")
    pairs = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if pairs != list(tracing.METRICS):
        problems.append("BENCHMARK.json per_layer differs from "
                        "tracing.METRICS")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from "
                        "workloads.WORKLOADS")


def main():
    sys.path.insert(0, run.SRC)
    problems = []
    check_spec(problems)
    jobs = os.path.join(run.ROOT, ".perfbench", "smoke-%d" % os.getpid())
    try:
        for name, cls in workloads.WORKLOADS.items():
            first = traced_pass(cls, jobs)
            second = traced_pass(cls, jobs)
            for op_name, _, _, verdict in first[1] + second[1]:
                if verdict.error is not None and verdict.known is None:
                    problems.append("%s %s: %s"
                                    % (name, op_name, verdict.error))
            known = [op_name for op_name, _, _, verdict in first[1]
                     if verdict.known is not None]
            if first[0] != second[0]:
                problems.append("%s: input digest differs for one seed"
                                % name)
            for counter, value in first[2].items():
                if second[2][counter] != value:
                    problems.append("%s: %s is %s then %s" % (
                        name, counter, value, second[2][counter]))
            metrics = run.end_to_end([first[1]], [0.0])
            print("%s: %d ops, %d failed with a known defect, digest %s, "
                  "wall %.2f s" % (name, len(first[1]), len(known), first[0],
                                   metrics["wall_s"]["value"]))
    finally:
        shutil.rmtree(jobs, ignore_errors=True)
    for problem in problems:
        print("PROBLEM %s" % problem)
    print("smoke: %s" % ("ok" if not problems else "%d problems"
                         % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
