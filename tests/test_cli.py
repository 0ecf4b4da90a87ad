"""Command-line front end: golden JSON lines, exit codes, determinism."""

import json

import pytest

from slopelab import cli, corpus, groebner
from slopelab.samuel import LIMIT_N_DEFAULT, LocalRingPresentation, nubar


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def monomial_nubar_job(tmp_path):
    return write_job(tmp_path, {
        "schema": "slopelab-job/1",
        "ring": {"vars": ["x", "y"], "char": 0},
        "ideals": {"I": ["x^2", "y^3"]},
        "nubar": {"f": "x*y", "ideal": "I"},
    }, name="nubar_job.json")


def ideal_limit_job(tmp_path):
    # against an ideal other than m, the limit route builds the Buchberger
    # bases of its powers plus the relations
    return write_job(tmp_path, {
        "schema": "slopelab-job/1",
        "ring": {"vars": ["x", "y"], "char": 0},
        "local_ring": {"relations": ["x^2 - y^3"]},
        "ideals": {"I": ["x^2", "y^2"]},
        "nubar": {"f": "x", "ideal": "I", "strategy": "limit", "max_n": 4},
    }, name="ideal_limit_job.json")


def cusp_certificate_job(tmp_path):
    return write_job(tmp_path, {
        "schema": "slopelab-job/1",
        "ring": {"vars": ["x", "y"], "char": 0},
        "polys": {"g": "x^2 - y^3"},
        "local_ring": {"relations": ["g"]},
        "certificates": {"c": [{"weights": {"x": 3, "y": 2}, "value": "2"}]},
        "nubar": {"f": "x", "certificate": "c"},
    })


def cusp_slope_job(tmp_path):
    return write_job(tmp_path, {
        "schema": "slopelab-job/1",
        "ring": {"vars": ["z", "y"], "char": 2},
        "split": {"base": ["y"], "fiber": ["z"]},
        "slope": {"g": "z^2 + y^3"},
    }, name="slope_job.json")


class TestNubarCommand:
    def test_monomial_golden_bytes(self, tmp_path, capsys):
        job = monomial_nubar_job(tmp_path)
        code, out, _ = run(["nubar", job, "--json"], capsys)
        assert code == 0
        assert out == '{"status":"exact","value":"5/6"}\n'

    def test_certificate_golden_bytes(self, tmp_path, capsys):
        job = cusp_certificate_job(tmp_path)
        code, out, _ = run(["nubar", job, "--json"], capsys)
        assert code == 0
        assert out == '{"status":"exact","value":"3/2"}\n'

    def test_zero_polynomial_is_infinite(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "nubar": {"f": "0"},
        })
        code, out, _ = run(["nubar", job, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"status": "exact", "value": "inf"}

    def test_human_output(self, tmp_path, capsys):
        job = monomial_nubar_job(tmp_path)
        code, out, _ = run(["nubar", job], capsys)
        assert code == 0
        assert out == "nubar = 5/6 (exact)\n"

    def test_require_exact_rejects_lower_bound(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "nubar": {"f": "x", "strategy": "limit"},
        })
        code, out, _ = run(["nubar", job, "--json", "--max-n", "6",
                            "--require-exact"], capsys)
        assert code == 2
        assert json.loads(out) == {"status": "lower-bound", "value": "3/2"}

    def test_byte_determinism(self, tmp_path, capsys):
        job = monomial_nubar_job(tmp_path)
        _, first, _ = run(["nubar", job, "--json"], capsys)
        _, second, _ = run(["nubar", job, "--json"], capsys)
        assert first == second


class TestSlopeCommand:
    def test_cusp_golden_bytes(self, tmp_path, capsys):
        job = cusp_slope_job(tmp_path)
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        assert out == ('{"Hord":"3/2","approximate_elimination":true,'
                       '"case":"B1","elim_ord":"2","transcript":[]}\n')

    def test_degenerate_flag(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["z", "y"], "char": 2},
            "split": {"base": ["y"], "fiber": ["z"]},
            "slope": {"g": "z^2 + y^2"},
        })
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["Hord"] == "inf"
        assert report["flag"] == "degenerate"
        assert report["transcript"] == [{"shift": "y", "var": "z"}]

    @pytest.mark.parametrize("char,g", [
        (0, "z^3"), (2, "z^3"), (3, "z^2 + 2*y*z + y^2")])
    def test_degenerate_flag_on_the_tschirnhausen_route(self, tmp_path,
                                                        capsys, char, g):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["z", "y"], "char": char},
            "split": {"base": ["y"], "fiber": ["z"]},
            "slope": {"g": g},
        })
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        assert out == ('{"Hord":"inf","approximate_elimination":false,'
                       '"case":"tschirnhausen","elim_ord":"inf",'
                       '"flag":"degenerate","transcript":[]}\n')
        code, out, _ = run(["slope", job], capsys)
        assert code == 0
        assert out == ("case = tschirnhausen\nelimination order = inf\n"
                       "hord = inf\ndegenerate: the fiber polynomial "
                       "reduced to a pure power\n")

    def test_whitney_at_prime(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y1", "y2"], "char": 2},
            "split": {"base": ["y1", "y2"], "fiber": ["x"]},
            "point": {"kind": "prime", "vars": ["x", "y1"]},
            "slope": {"g": "x^2 - y1^2*y2"},
        })
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["Hord"] == "1"
        assert report["elim_ord"] == "2"
        assert report["case"] == "B2"

    def test_away_from_characteristic_uses_translation(self, tmp_path,
                                                       capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "split": {"base": ["y"], "fiber": ["x"]},
            "slope": {"g": "x^2 - y^3"},
        })
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["Hord"] == "3/2"
        assert report["case"] == "tschirnhausen"

    def test_samuel_section_rides_along(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 2},
            "polys": {"g": "x^2 - y^2"},
            "local_ring": {"relations": ["g"]},
            "split": {"base": ["y"], "fiber": ["x"]},
            "slope": {"g": "g"},
            "samuel_slope": {},
        })
        code, out, _ = run(["slope", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["samuel"] == {"bound": "inf", "exact": True,
                                    "classification": "extremal",
                                    "witness": ["x + y"]}

    @pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
    @pytest.mark.parametrize("g,multiplicity,degree", [
        ("z^2 + y", 1, 2), ("z^3 + y*z", 2, 3), ("z^6 + y^5", 5, 6)])
    def test_multiplicity_below_the_fiber_degree_is_refused(
            self, tmp_path, capsys, char, g, multiplicity, degree):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["y", "z"], "char": char},
            "split": {"base": ["y"], "fiber": ["z"]},
            "slope": {"g": g},
        })
        code, out, err = run(["slope", job, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: multiplicity %d is below the fiber degree %d\n"
                       % (multiplicity, degree))


class TestKernelCommand:
    def test_extremal_pair_of_lines(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 2},
            "local_ring": {"relations": ["x^2 - y^2"]},
        })
        code, out, _ = run(["kernel", job, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "basis": ["x + y"], "classification": "extremal",
            "method": "factorization", "r": 1, "t": 1}

    def test_kernel_at_prime(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y1", "y2"], "char": 2},
            "local_ring": {"relations": ["x^2 - y1^2*y2"]},
            "point": {"kind": "prime", "vars": ["x", "y1"]},
        })
        code, out, _ = run(["kernel", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "non-extremal"
        assert report["r"] == 0
        assert report["t"] == 1


    def test_presentation_without_exact_dimension(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x + y^2", "x"]},
        })
        code, out, err = run(["kernel", job, "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("error: the dimension is computed only for a "
                       "principal or homogeneous presentation; "
                       "(y^2 + x, x) is neither\n")


class TestUnknownChoices:
    @pytest.mark.parametrize("method", ["bogus", "enumeration"])
    def test_unknown_kernel_method(self, tmp_path, capsys, method):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 3},
            "local_ring": {"relations": ["x^2 - y^2"]},
            "kernel": {"method": method},
        })
        code, out, err = run(["kernel", job, "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("error: unknown kernel method %r (choose monomial, "
                       "factorization, frobenius or partial)\n" % method)

    def test_unknown_nubar_strategy(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "nubar": {"f": "x", "strategy": "bogus"},
        })
        code, out, err = run(["nubar", job, "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("error: unknown nubar strategy 'bogus' (choose auto, "
                       "monomial, certificate or limit)\n")


class TestSamuelSlopeCommand:
    def test_infinite_bound_is_exact(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 2},
            "local_ring": {"relations": ["x^2 - y^2"]},
        })
        code, out, _ = run(["samuel-slope", job, "--json",
                            "--require-exact"], capsys)
        assert code == 0
        assert json.loads(out) == {"bound": "inf", "exact": True,
                                   "classification": "extremal",
                                   "witness": ["x + y"]}

    def test_finite_bound_fails_require_exact(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "samuel_slope": {"max_n": 6},
        })
        code, out, _ = run(["samuel-slope", job, "--json",
                            "--require-exact"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["bound"] == "3/2"
        assert report["exact"] is False

    def test_regular_ring_is_a_validation_error(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
        })
        code, _, err = run(["samuel-slope", job], capsys)
        assert code == 1
        assert "regular" in err


class TestCheckTheoremsCommand:
    def test_cusp_char2_certifies_slope(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 2},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "split": {"base": ["y"], "fiber": ["x"]},
        })
        code, out, _ = run(["check-theorems", job, "--json",
                            "--require-exact"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["hord"] == "3/2"
        assert report["ord"] == "2"
        assert report["slope"] == "3/2"
        assert report["slope_certified"] is True

    def test_slope_bound_below_hord_is_inconclusive(self, tmp_path, capsys):
        # over F_11 the default max_n = 8 stops short of the 11th power,
        # so the slope is only known to be >= 1 < hord = 13/11 <= ord
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["y", "z"], "char": 11},
            "local_ring": {"relations": ["z^11 + y^13"]},
            "split": {"base": ["y"], "fiber": ["z"]},
        })
        code, out, _ = run(["check-theorems", job], capsys)
        assert code == 0
        assert out.splitlines()[:4] == [
            "verdict: inconclusive", "classification = extremal",
            "hord = 13/11, elimination order = 6/5",
            "slope = 1 (lower bound)"]
        code, out, _ = run(["check-theorems", job, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "applicable": True, "case": "B1", "classification": "extremal",
            "hord": "13/11", "inconclusive": True, "ord": "6/5",
            "passed": False, "slope": "1", "slope_certified": False}
        code, _, _ = run(["check-theorems", job, "--require-exact"], capsys)
        assert code == 2

    def test_shift_nilpotent_above_max_n_passes(self, tmp_path, capsys):
        # z^11 + y^22 = (z + y^2)^11: the slope is infinite although the
        # default max_n = 8 stops short of the 11th power
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["y", "z"], "char": 11},
            "local_ring": {"relations": ["z^11 + y^22"]},
            "split": {"base": ["y"], "fiber": ["z"]},
        })
        code, out, _ = run(["check-theorems", job], capsys)
        assert code == 0
        assert out.splitlines()[:4] == [
            "verdict: pass", "classification = extremal",
            "hord = inf, elimination order = inf",
            "slope = inf (certified exact)"]
        code, out, _ = run(["check-theorems", job, "--require-exact"],
                           capsys)
        assert code == 0

    def test_deep_orders_need_no_basis_of_a_power_of_m(self, tmp_path,
                                                       capsys, monkeypatch):
        # nu(z^8) = 20 here: this took 16 s when nu built the basis of
        # m^j + J for every j up to 21, and one local basis serves them all
        def no_power_basis(presentation, ideal, j):
            raise AssertionError("asked for a basis of an ideal^%d + J" % j)

        monkeypatch.setattr(LocalRingPresentation, "power_basis",
                            no_power_basis)
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["y1", "y2", "z"], "char": 2},
            "local_ring": {"relations": ["z^2 + y1^3*y2^2*z + y1^4*y2"]},
            "split": {"base": ["y1", "y2"], "fiber": ["z"]},
        })
        code, out, _ = run(["check-theorems", job, "--json"], capsys)
        assert code == 0
        assert out == (
            '{"applicable":true,"case":"B1","classification":"extremal",'
            '"hord":"5/2","ord":"4","passed":true,"slope":"5/2",'
            '"slope_certified":true}\n')

    def test_smooth_point_not_applicable(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "local_ring": {"relations": ["x - y"]},
            "split": {"base": ["y"], "fiber": ["x"]},
        })
        code, out, _ = run(["check-theorems", job, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["applicable"] is False
        assert report["passed"] is True

    @pytest.mark.parametrize("char", [0, 3, 5])
    def test_multiplicity_below_the_fiber_degree_not_applicable(
            self, tmp_path, capsys, char):
        # z^3 + y*z has multiplicity 2 at the origin: this was a FAIL over
        # Q and F_5 and an error over F_3
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["y", "z"], "char": char},
            "local_ring": {"relations": ["z^3 + y*z"]},
            "split": {"base": ["y"], "fiber": ["z"]},
        })
        code, out, err = run(["check-theorems", job, "--require-exact"],
                             capsys)
        assert (code, err) == (0, "")
        assert out == ("verdict: pass (not applicable: multiplicity 2 is "
                       "below the fiber degree 3)\n")
        code, out, _ = run(["check-theorems", job, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "applicable": False, "classification": "singular",
            "note": "multiplicity 2 is below the fiber degree 3",
            "passed": True}


class TestParser:
    def test_built_once_and_carries_no_value_between_calls(
            self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        caps = []

        def recording_nubar(presentation, f, **kwargs):
            caps.append(kwargs["max_n"])
            return nubar(presentation, f, **kwargs)

        monkeypatch.setattr(cli, "nubar", recording_nubar)
        job = monomial_nubar_job(tmp_path)
        assert run(["nubar", job, "--max-n", "3"], capsys)[0] == 0
        assert run(["nubar", job], capsys)[0] == 0
        assert caps == [3, LIMIT_N_DEFAULT]


class TestValidationErrors:
    def test_wrong_schema(self, tmp_path, capsys):
        job = write_job(tmp_path, {"schema": "nope/9",
                                   "ring": {"vars": ["x"]}})
        code, _, err = run(["nubar", job], capsys)
        assert code == 1
        assert "schema" in err

    def test_unknown_section(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x"]},
            "polynomials": {},
        })
        code, _, err = run(["nubar", job], capsys)
        assert code == 1
        assert "polynomials" in err

    def test_unknown_variable_in_polynomial(self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 0},
            "nubar": {"f": "x + q"},
        })
        code, _, err = run(["nubar", job], capsys)
        assert code == 1
        assert "q" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["nubar", str(tmp_path / "missing.json")], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(["nubar", str(path)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "corpus" in out

    def test_budget_env_must_be_positive_int(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("SLOPELAB_BUDGET", "abc")
        job = monomial_nubar_job(tmp_path)
        code, _, err = run(["nubar", job], capsys)
        assert code == 1
        assert "SLOPELAB_BUDGET" in err

    def test_budget_env_caps_groebner_pairs(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET",
                            groebner.DEFAULT_PAIR_BUDGET)
        monkeypatch.setenv("SLOPELAB_BUDGET", "1")
        code, _, err = run(["nubar", ideal_limit_job(tmp_path)], capsys)
        assert code == 1
        assert "budget" in err

    def test_budget_env_lasts_one_run(self, tmp_path, capsys, monkeypatch):
        default = groebner.DEFAULT_PAIR_BUDGET
        monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", default)
        job = ideal_limit_job(tmp_path)
        monkeypatch.setenv("SLOPELAB_BUDGET", "1")
        assert run(["nubar", job], capsys)[0] == 1
        assert groebner.DEFAULT_PAIR_BUDGET == default
        monkeypatch.delenv("SLOPELAB_BUDGET")
        code, out, _ = run(["nubar", job], capsys)
        assert code == 0 and out


def cusp_char2_job(tmp_path, **sections):
    return write_job(tmp_path, dict({
        "schema": "slopelab-job/1",
        "ring": {"vars": ["x", "y"], "char": 2},
        "local_ring": {"relations": ["x^2 - y^3"]},
        "split": {"base": ["y"], "fiber": ["x"]},
    }, **sections), name="caps.json")


def assert_one_error_line(code, out, err, name):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "error:" in err and name in err


# the cap flags each subcommand reads
CAP_FLAGS = {
    "nubar": {"--max-n"},
    "slope": {"--max-n", "--max-rounds"},
    "kernel": set(),
    "samuel-slope": {"--max-n"},
    "check-theorems": {"--max-n", "--max-rounds"},
    "corpus": {"--max-n"},
}
COMMANDS = sorted(CAP_FLAGS)


class TestCaps:
    """--max-n, --max-rounds and the job keys max_n, max_rounds take
    positive integers only, and each subcommand takes only the flags it
    reads."""

    @pytest.mark.parametrize("flag", ["--max-n", "--max-rounds"])
    @pytest.mark.parametrize("value", ["0", "-3", "4.5", "four"])
    def test_flag_must_be_a_positive_int(self, tmp_path, capsys, flag,
                                         value):
        for command in COMMANDS:
            if flag not in CAP_FLAGS[command]:
                continue
            job = [] if command == "corpus" else [cusp_char2_job(tmp_path)]
            code, out, err = run([command] + job + [flag, value], capsys)
            assert_one_error_line(code, out, err, flag)

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in COMMANDS
        for flag in ("--max-n", "--max-rounds")
        if flag not in CAP_FLAGS[command]])
    def test_a_flag_the_command_does_not_read_is_refused(
            self, tmp_path, capsys, command, flag):
        job = [] if command == "corpus" else [cusp_char2_job(tmp_path)]
        code, out, err = run([command] + job + [flag, "3"], capsys)
        assert_one_error_line(code, out, err, flag)

    def test_corpus_takes_no_require_exact(self, capsys):
        code, out, err = run(["corpus", "--filter", "order/",
                              "--require-exact"], capsys)
        assert_one_error_line(code, out, err, "--require-exact")

    @pytest.mark.parametrize("section,key,extra", [
        ("nubar", "max_n", {"f": "x", "strategy": "limit"}),
        ("slope", "max_rounds", {"g": "x^2 + y^3"}),
        ("samuel_slope", "max_n", {}),
        ("check_theorems", "max_n", {}),
        ("check_theorems", "max_rounds", {}),
    ])
    @pytest.mark.parametrize("value", [0, -2, "4", 4.0, True, None])
    def test_job_key_must_be_a_positive_int(self, tmp_path, capsys,
                                            section, key, extra, value):
        params = dict(extra, **{key: value})
        job = cusp_char2_job(tmp_path, **{section: params})
        command = section.replace("_", "-")
        code, out, err = run([command, job], capsys)
        assert_one_error_line(code, out, err, "%s.%s" % (section, key))

    def test_flag_overrides_a_bad_job_key(self, tmp_path, capsys):
        job = cusp_char2_job(tmp_path, slope={"g": "x^2 + y^3",
                                              "max_rounds": 0})
        code, out, _ = run(["slope", job, "--max-rounds", "2", "--json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["Hord"] == "3/2"


class TestMalformedJobs:
    """Each input the computations refuse is one error line, never a
    traceback."""

    @pytest.mark.parametrize("command,sections,message", [
        ("kernel", {"local_ring": {"relations": ["x^2 - y1^2*y2"]},
                    "point": {"kind": "prime", "vars": ["y1", "y2"]}},
         "does not contain the relation"),
        ("check-theorems", {"local_ring": {"relations": ["x^2 - y1^3"]},
                            "split": {"base": ["x", "y1", "y2"],
                                      "fiber": []}},
         "exactly one fiber variable, not 0"),
        ("check-theorems", {"local_ring": {"relations": ["x^2 - y1^3"]},
                            "split": {"base": ["y2"],
                                      "fiber": ["x", "y1"]}},
         "exactly one fiber variable, not 2"),
        ("slope", {"split": {"base": ["y1", "y2"], "fiber": ["x"]},
                   "point": {"kind": "prime", "vars": ["y1"]},
                   "slope": {"g": "x^2 - y1^2*y2"}},
         "the point must contain every fiber variable"),
        ("slope", {"split": {"base": 3, "fiber": ["x"]},
                   "slope": {"g": "x^2 - y1^2*y2"}},
         "bad split"),
        ("check-theorems", {"local_ring": {"relations": ["x^2 - y1^3"]},
                            "split": {"base": ["y1", "y2"], "fiber": ["x"]},
                            "check_theorems": {"g": "x^2 - y1^3"}},
         "check_theorems takes no g"),
    ])
    def test_one_error_line(self, tmp_path, capsys, command, sections,
                            message):
        job = write_job(tmp_path, dict({
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y1", "y2"], "char": 2},
        }, **sections))
        code, out, err = run([command, job], capsys)
        assert_one_error_line(code, out, err, message)
        assert "Traceback" not in err

    def test_a_string_split_entry_is_one_name(self, tmp_path, capsys):
        # "base": 3 stays a bad split: see test_one_error_line
        def job(fiber):
            return write_job(tmp_path, {
                "schema": "slopelab-job/1",
                "ring": {"vars": ["z1", "y"], "char": 2},
                "split": {"base": ["y"], "fiber": fiber},
                "slope": {"g": "z1^2 + y^3"},
            }, name="split.json")

        for flags in ([], ["--json"]):
            listed = run(["slope", job(["z1"])] + flags, capsys)
            named = run(["slope", job("z1")] + flags, capsys)
            assert named == listed and listed[0] == 0

    def test_extremal_kernel_at_a_prime_prints_its_linear_form(
            self, tmp_path, capsys):
        job = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y1", "y2"], "char": 2},
            "local_ring": {"relations": ["x^2 + y1^2*y2^2"]},
            "point": {"kind": "prime", "vars": ["x", "y1"]},
        })
        code, out, _ = run(["kernel", job, "--json"], capsys)
        assert code == 0
        assert out == ('{"basis":["y1*y2 + x"],"classification":"extremal",'
                       '"method":"frobenius-form","r":1,"t":1}\n')


REPORT_KEYS = {
    "nubar": {"status", "value"},
    "slope": {"Hord", "approximate_elimination", "case", "elim_ord",
              "flag", "samuel", "transcript"},
    "kernel": {"basis", "classification", "method", "r", "t"},
    "samuel-slope": {"bound", "classification", "exact", "witness"},
    "check-theorems": {"applicable", "case", "classification", "hord",
                       "inconclusive", "note", "ord", "passed", "slope",
                       "slope_certified"},
}


class TestReportRoundTrip:
    def test_every_report_reparses_with_known_keys(self, tmp_path, capsys):
        jobs = {
            "nubar": monomial_nubar_job(tmp_path),
            "slope": cusp_slope_job(tmp_path),
        }
        shared = write_job(tmp_path, {
            "schema": "slopelab-job/1",
            "ring": {"vars": ["x", "y"], "char": 2},
            "local_ring": {"relations": ["x^2 - y^3"]},
            "split": {"base": ["y"], "fiber": ["x"]},
        }, name="shared.json")
        jobs["kernel"] = shared
        jobs["samuel-slope"] = shared
        jobs["check-theorems"] = shared
        for command, job in jobs.items():
            code, out, _ = run([command, job, "--json"], capsys)
            assert code == 0
            report = json.loads(out)
            assert set(report) <= REPORT_KEYS[command], command


class TestCorpusCommand:
    def test_filter_runs_only_matching_rows(self, capsys):
        code, out, _ = run(["corpus", "--filter", "kernel/"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "corpus: 7 checks, 0 failed"
        assert all(line.startswith("ok") for line in lines[:-1])

    def test_json_rows(self, capsys):
        code, out, _ = run(["corpus", "--filter", "order/", "--json"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        assert [row["name"] for row in report["rows"]] == [
            "order/cusp-char0/nu(x)", "order/cusp-char0/nu(x^2)"]
        assert all(row["ok"] for row in report["rows"])

    def test_unmatched_filter_fails(self, capsys):
        code, _, err = run(["corpus", "--filter", "nosuchrow"], capsys)
        assert code == 1
        assert "no corpus rows" in err

    def test_injected_wrong_expected_value_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(corpus.EXPECTED, "order/cusp-char0/nu(x)", "2")
        code, out, _ = run(["corpus", "--filter", "order/"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "corpus: 2 checks, 1 failed" in out
