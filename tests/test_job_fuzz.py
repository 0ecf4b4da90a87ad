"""A seeded job-file fuzz: mutated caps, strategies, certificate weights
and values, references, points, characteristics and polynomial texts,
each job run through one of five subcommands. Every run
either exits 0 or 2 with its report on stdout and nothing on stderr, or
exits 1 with exactly one `error:` line on stderr and nothing on stdout;
an exception other than the package's own would escape cli.main as a
traceback and fail the test.

A second stream, with a seed of its own and no golden file, also gives
each job more relations or a linear term in g, so the kernel and the
Samuel slope answer on presentations with several relations; about a
third of its jobs also pad the ring with unused variables, up to the
variable cap, so radical membership runs one variable past it.

The exit code, stdout and stderr of the first GOLDEN_RUNS runs are
frozen in tests/golden/cli_fuzz.json. A change that means to alter those
bytes rewrites the file with `PYTHONPATH=src python tests/test_job_fuzz.py`,
which first prints the index and argv of each entry that changed, and
lists those entries."""

import contextlib
import copy
import io
import json
import pathlib
import random
import tempfile

from slopelab import cli
from slopelab.poly import VARIABLE_CAP

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_fuzz.json"
GOLDEN_RUNS = 300

BASE_JOB = {
    "schema": "slopelab-job/1",
    "ring": {"vars": ["x", "y"], "char": 2},
    "polys": {"g": "x^2 + y^3"},
    "local_ring": {"relations": ["g"]},
    "split": {"base": ["y"], "fiber": ["x"]},
    "certificates": {"c": [{"weights": {"x": 3, "y": 2}, "value": "2"}]},
    "nubar": {"f": "x + y^2", "certificate": "c", "max_n": 3},
    "slope": {"g": "g", "max_rounds": 3},
    "samuel_slope": {"max_n": 3},
    "check_theorems": {"max_n": 3, "max_rounds": 3},
}
COMMANDS = ("nubar", "slope", "kernel", "samuel-slope", "check-theorems")
# small valid caps keep each run cheap; the rest are refused
CAP_VALUES = (1, 3, 0, -1, 4.5, "3", True, None, [3], 10001, 2 ** 70)
CAP_KEYS = (("nubar", "max_n"), ("slope", "max_rounds"),
            ("samuel_slope", "max_n"), ("check_theorems", "max_n"),
            ("check_theorems", "max_rounds"))
STRATEGIES = ("auto", "limit", "monomial", "certificate", "", 3, None)
CLAIMS = ("2", "3/2", "0", "inf", "-1", "1/0", "x", 2, 0, None, [2],
          True, 2.0, 2.5, "2.0")
WEIGHTS = (3, "3", "3/2", 0, -1, "1/0", True, False, 3.0, 2.5, "2.0", None)
REFERENCES = ("c", "d", ["c"], {"c": 1}, 3, None)
POINTS = ({"kind": "origin"}, {"kind": "origin", "vars": ["x"]},
          {"vars": ["x", "y"]}, {"kind": "prime", "vars": ["x"]},
          {"kind": "prime", "vars": ["x", "x"]}, {"kind": "prime"},
          {"kind": "prime", "vars": "x"}, {"kind": "prime", "vars": ["z"]},
          {"kind": "bogus"}, {"kind": ["prime"], "vars": ["x"]})
CHARACTERISTICS = (0, 3, 4, -2, "2", True, False, 3.0, 2.5, None)
RELATIONS = ("x", "x + y^2", "y^2 + x*y", "x*y", "y^3")
LINEAR_TERMS = (" + x", " + y", " - x", " + y + x")
TEXT_CHARS = "xyz0123+-*^() "
FLAG_VALUES = ("1", "3", "0", "-2", "4.5", "four", "10001")


def mutate_text(rng, text):
    """One character of the text inserted, dropped or replaced, or a
    unary minus or an unknown name put in."""
    at = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.3:
        return text[:at] + rng.choice(TEXT_CHARS) + text[at:]
    if roll < 0.5:
        return text[:at] + text[at + 1:]
    if roll < 0.7:
        return text[:at] + rng.choice(TEXT_CHARS) + text[at + 1:]
    if roll < 0.85:
        return text + rng.choice([" + -y^2", "*-x^3", " - -2^2*y"])
    return text + rng.choice(["*w", " + z", "^", "^-1"])


def mutated_job(rng):
    job = copy.deepcopy(BASE_JOB)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.25:
            section, key = rng.choice(CAP_KEYS)
            job[section][key] = rng.choice(CAP_VALUES)
        elif roll < 0.35:
            job["nubar"]["strategy"] = rng.choice(STRATEGIES)
        elif roll < 0.45:
            job["certificates"]["c"][0]["value"] = rng.choice(CLAIMS)
        elif roll < 0.52:
            job["certificates"]["c"][0]["weights"][rng.choice("xy")] = \
                rng.choice(WEIGHTS)
        elif roll < 0.59:
            job["nubar"]["certificate"] = rng.choice(REFERENCES)
        elif roll < 0.66:
            job["point"] = rng.choice(POINTS)
        elif roll < 0.9:
            where = rng.choice([("polys", "g"), ("nubar", "f"),
                                ("slope", "g")])
            job[where[0]][where[1]] = mutate_text(rng, job[where[0]][where[1]])
        else:
            job["ring"]["char"] = rng.choice(CHARACTERISTICS)
    return job


def job_with_relations(rng):
    """A mutated job that also appends one or two relations to its local
    ring, or adds a linear term to g, and now and then appends unused
    variables u0, u1, ... to its ring."""
    job = mutated_job(rng)
    if rng.random() < 0.6:
        job["local_ring"]["relations"] += rng.sample(RELATIONS,
                                                     rng.randint(1, 2))
    else:
        job["polys"]["g"] += rng.choice(LINEAR_TERMS)
    if rng.random() < 0.3:
        names = job["ring"]["vars"]
        pad = rng.randint(1, min(6, VARIABLE_CAP - len(names)))
        names += ["u%d" % i for i in range(pad)]
    return job


def fuzz_runs(seed, count, tmp_path, make_job=mutated_job):
    """(argv, job) for each run; argv names the job file written under
    tmp_path."""
    rng = random.Random(seed)
    path = tmp_path / "fuzz.json"
    for _ in range(count):
        job = make_job(rng)
        path.write_text(json.dumps(job))
        argv = [rng.choice(COMMANDS), str(path)]
        argv += [flag for flag in ("--json", "--require-exact")
                 if rng.random() < 0.3]
        if rng.random() < 0.2:
            argv += [rng.choice(["--max-n", "--max-rounds"]),
                     rng.choice(FLAG_VALUES)]
        yield argv, job


def frozen(argv, code, out, err):
    """One golden entry: the run with its job file named job.json."""
    return {"argv": [argv[0], "job.json"] + argv[2:], "code": code,
            "out": out, "err": err}


def assert_report_or_one_error(argv, code, out, err):
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1, argv
        assert "error:" in err, argv
    else:
        assert code in (0, 2), argv
        assert out and err == "", argv


def test_a_mutated_job_is_a_report_or_one_error_line(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == GOLDEN_RUNS
    codes = set()
    for i, (argv, job) in enumerate(fuzz_runs("job-fuzz", 1500, tmp_path)):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if i < GOLDEN_RUNS:
            assert frozen(argv, code, out, err) == golden[i], (i, argv, job)
        codes.add(code)
        assert_report_or_one_error(argv, code, out, err)
    # the mutations reach both reports and refusals
    assert {0, 1} <= codes


def test_a_job_with_several_relations_is_a_report_or_one_error_line(
        tmp_path, capsys):
    answered = set()
    for argv, job in fuzz_runs("relations-fuzz", 500, tmp_path,
                               job_with_relations):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert_report_or_one_error(argv, code, out, err)
        # only nubar reads a certificate, so only it can refuse one
        assert argv[0] == "nubar" or "certificates[" not in err, argv
        if code != 1 and len(job["local_ring"]["relations"]) > 1:
            answered.add(argv[0])
    # the kernel and the Samuel slope answer on several relations
    assert {"kernel", "samuel-slope"} <= answered


if __name__ == "__main__":
    entries = []
    with tempfile.TemporaryDirectory() as scratch:
        for argv, _ in fuzz_runs("job-fuzz", GOLDEN_RUNS,
                                 pathlib.Path(scratch)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            entries.append(frozen(argv, code, out.getvalue(),
                                  err.getvalue()))
    lines = [json.dumps(entry, sort_keys=True) for entry in entries]
    old = [json.dumps(entry, sort_keys=True)
           for entry in json.loads(GOLDEN.read_text())]
    changed = [i for i, line in enumerate(lines)
               if i >= len(old) or line != old[i]]
    for i in changed:
        print("%d %s" % (i, " ".join(entries[i]["argv"])))
    print("%d of %d entries changed" % (len(changed), len(entries)))
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(lines))
