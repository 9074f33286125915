"""End-to-end driver tests: every subcommand through main(), checking
exit codes, JSON payloads, and the error channel.

Output capture is done with redirect_stdout/redirect_stderr because the
suite runs with capture off."""

import contextlib
import io
import json
import multiprocessing.process
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoeffding import characterization, cli, laws, urnsim
from hoeffding.cli import main
from hoeffding.decomp import SymmetricStatistic, table_to_jsonable
from hoeffding.laws import law_to_jsonable, parse_law
from test_golden import LAWS, VERIFY_DEEP_GOLDEN

def statistic_file(tmp_path):
    stat = SymmetricStatistic.from_function(
        3, 3, lambda c: sum(j * x for j, x in enumerate(c)))
    path = tmp_path / "stat.json"
    path.write_text(json.dumps(table_to_jsonable(stat)))
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse bails this way on bad usage
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestVerify:
    def test_decomposable_law_exits_zero(self):
        code, out, err = run_cli(
            ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "3"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["all_zero"] is True
        assert report["law"] == "hls:K=3,pi=1,nu=2,alpha=1/2"
        assert report["first_nonzero"] is None
        assert len(report["entries"]) == 57

    def test_mixture_exits_one_with_witness(self):
        code, out, _ = run_cli(
            ["verify", "--law",
             "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
             "--n-max", "2"])
        assert code == 1
        report = json.loads(out)
        assert report["all_zero"] is False
        assert report["first_nonzero"] == {
            "n": 2, "u": 2, "z": [1, 0, 0], "m": [1], "value": "-1/60"}

    def test_two_colors_point_at_the_oracle(self):
        code, out, err = run_cli(
            ["verify", "--law", "iid:p=1/2,1/2", "--n-max", "3"])
        assert code == 2 and out == ""
        assert "oracle" in err

    def test_include_zeros_false_drops_zero_entries(self):
        code, out, _ = run_cli(
            ["verify", "--law", "iid:p=1/2,1/3,1/6", "--n-max", "2",
             "--include-zeros", "false"])
        assert code == 0
        assert json.loads(out)["entries"] == []

    def test_jobs_do_not_change_the_report(self):
        argv = ["verify", "--law", "polya:alpha=1,2,3", "--n-max", "3"]
        assert run_cli(argv + ["--jobs", "1"]) == run_cli(argv + ["--jobs", "2"])

    def test_law_file_and_out_file(self, tmp_path):
        law_path = tmp_path / "law.json"
        law_path.write_text(json.dumps(law_to_jsonable(
            parse_law("hls:K=3,pi=1,nu=2,alpha=1/2"))))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["verify", "--law", str(law_path), "--n-max", "2",
             "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["all_zero"] is True

    def test_include_zeros_is_the_one_spelling(self):
        argv = ["verify", "--law", "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
                "--n-max", "3"]
        assert run_cli(argv + ["--include-zeros", "true"]) == run_cli(argv)
        # the alias it once had is gone
        code, out, err = run_cli(argv + ["--zeros-only", "false"])
        assert (code, out) == (2, "") and "--zeros-only" in err

    def test_out_file_is_complete_and_leaves_no_temporary(self, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_text("stale")
        argv = ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "3"]
        code, stdout, _ = run_cli(argv)
        assert run_cli(argv + ["--out", str(out_path)]) == (code, "", "")
        assert out_path.read_text() == stdout
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("include_zeros", ["true", "false"])
    def test_out_file_holds_the_stdout_bytes_of_a_witness(self, tmp_path, include_zeros):
        out_path = tmp_path / "report.json"
        argv = ["verify", "--law", LAWS["mixture"], "--n-max", "4",
                "--include-zeros", include_zeros]
        code, stdout, _ = run_cli(argv)
        assert code == 1
        assert run_cli(argv + ["--out", str(out_path)]) == (code, "", "")
        assert out_path.read_bytes() == stdout.encode()

    def test_report_is_written_without_entry_objects(self, monkeypatch):
        argv = ["verify", "--law", LAWS["mixture"], "--n-max", "3"]
        expected = run_cli(argv)

        def refuse(*args):
            raise AssertionError("the CLI built the report's entries or dict tree")

        report_cls = characterization.VerificationReport
        monkeypatch.setattr(report_cls, "entries", property(refuse))
        monkeypatch.setattr(report_cls, "to_jsonable", refuse)
        assert run_cli(argv) == expected

    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        out_path = tmp_path / "report.json"
        out_path.write_text("old report")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, _, err = run_cli(["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2",
                                "--n-max", "2", "--out", str(out_path)])
        assert code == 3 and "disk full" in err
        assert out_path.read_text() == "old report"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_to_a_pipe_writes_through(self, tmp_path):
        # a pipe or device must be written, never renamed over
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []

        def read():
            with open(pipe, encoding="utf-8") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        argv = ["identity", "pascal-star"]
        code, stdout, _ = run_cli(argv)
        assert run_cli(argv + ["--out", str(pipe)]) == (code, "", "")
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [stdout] and stat.S_ISFIFO(os.stat(pipe).st_mode)

    def test_jobs_below_one_are_an_input_error(self):
        code, out, err = run_cli(
            ["verify", "--law", "polya:alpha=1,2,3", "--n-max", "3", "--jobs", "0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "jobs" in err

    def test_no_process_is_started(self, monkeypatch):
        argv = ["verify", "--law", "polya:alpha=1,2,3", "--n-max", "3"]
        expected = run_cli(argv)

        def refuse(self):
            raise RuntimeError("verify started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert run_cli(argv + ["--jobs", "2"]) == expected


# the six golden laws at --n-max 3 and the deeper golden sweeps: an empty
# entries list (zeros dropped), first_nonzero null, a nonzero witness, K = 5
WRITER_CASES = [(spec, 3) for spec in LAWS.values()] + [
    (spec, n_max) for spec, n_max, _ in VERIFY_DEEP_GOLDEN.values()]


@pytest.mark.parametrize("include_zeros", [True, False])
@pytest.mark.parametrize("spec, n_max", WRITER_CASES)
def test_report_writer_matches_json_dumps(spec, n_max, include_zeros):
    report = characterization.verify_hd(parse_law(spec), n_max)
    expected = json.dumps(report.to_jsonable(include_zeros), indent=2) + "\n"
    assert "".join(characterization._report_chunks(report, include_zeros)) == expected


class TestOracle:
    def test_decomposable_law(self):
        code, out, _ = run_cli(
            ["oracle", "--law", "polya:alpha=1,2,3", "--n-max", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["weakly_independent"] is True
        assert report["witness"] is None
        assert [r["n"] for r in report["results"]] == [2, 3]
        assert all(r["basis_size"] >= 1 for r in report["results"])

    def test_mixture_witness(self):
        code, out, _ = run_cli(
            ["oracle", "--law",
             "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
             "--n-max", "2"])
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["n"] == 2 and witness["u"] == 2
        assert witness["z"] == [1, 0, 0]
        assert witness["value"] == "-1/720"
        assert witness["kernel"]["order"] == 2

    def test_n_max_validation(self):
        code, _, err = run_cli(["oracle", "--law", "iid:p=1/2,1/2", "--n-max", "1"])
        assert code == 2 and err.startswith("error:")


class TestDecompose:
    def test_full_run(self, tmp_path):
        path = statistic_file(tmp_path)
        code, out, _ = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["reconstruction"] == "exact"
        assert [c["k"] for c in report["components"]] == [0, 1, 2, 3]
        assert report["components"][0]["completely_degenerate"] is None
        assert all(c["completely_degenerate"] is True
                   for c in report["components"][1:])

    def test_order_zero_statistic_is_its_own_f0(self, tmp_path):
        path = tmp_path / "stat.json"
        path.write_text(json.dumps(
            {"order": 0, "K": 3, "values": [{"composition": [0, 0, 0], "value": "5/2"}]}))
        code, out, err = run_cli(
            ["decompose", "--law", "polya:alpha=1,2,3", "--statistic", str(path)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["n"] == 0 and report["reconstruction"] == "exact"
        [f0] = report["components"]
        assert f0["k"] == 0 and f0["completely_degenerate"] is None
        assert f0["values"] == [{"composition": [0, 0, 0], "value": "5/2"}]
        assert f0["kernel"]["order"] == 0
        assert f0["kernel"]["values"] == f0["values"]

    def test_color_mismatch(self, tmp_path):
        path = statistic_file(tmp_path)
        code, _, err = run_cli(
            ["decompose", "--law", "iid:p=1/4,1/4,1/4,1/4",
             "--statistic", str(path)])
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("order", [0, 1])
    def test_color_mismatch_is_caught_before_the_grid(self, tmp_path, order):
        # more colors than the recursion limit, every composition listed: the
        # law's K=3 refuses the file before its grid is enumerated
        colors = sys.getrecursionlimit() + 500 if order else 5000
        if order:
            listed = [[int(t == j) for t in range(colors)] for j in range(colors)]
        else:
            listed = [[0] * colors]
        path = tmp_path / "stat.json"
        path.write_text(json.dumps({"order": order, "K": colors, "values": [
            {"composition": c, "value": 1} for c in listed]}))
        code, _, err = run_cli(
            ["decompose", "--law", "polya:alpha=1,2,3", "--statistic", str(path)])
        assert (code, err) == (2, f"error: statistic has K={colors} but the law has K=3\n")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["decompose", "--law", "polya:alpha=1,2,3", "--statistic", None],
    ["decompose", "--law", "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
     "--statistic", None],
    ["oracle", "--law", "hls:K=4,pi=1,nu=2,alpha=1/4,1/4", "--n-max", "4"],
    ["oracle", "--law", "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2", "--n-max", "3"],
])
def test_decompose_and_oracle_read_the_law_memo(tmp_path, argv):
    # neither command goes through the law-keyed cache of the public
    # probability helpers, which would keep the law alive
    argv = [str(statistic_file(tmp_path)) if a is None else a for a in argv]
    before = laws._cylinder.cache_info()
    code, out, _ = run_cli(argv)
    assert code in (0, 1) and json.loads(out)
    assert laws._cylinder.cache_info() == before


class TestIdentity:
    def test_each_identity_exits_zero(self):
        for name in ("sommedentro", "star-vandermonde", "pascal-star",
                     "quandebello"):
            code, out, _ = run_cli(["identity", name])
            assert code == 0, name
            report = json.loads(out)
            assert report["holds"] is True and report["identity"] == name

    def test_narrowed_grid(self):
        code, out, _ = run_cli(
            ["identity", "sommedentro", "--pi", "1", "--nu", "2",
             "--n-max", "3"])
        assert code == 0
        assert json.loads(out)["checked"] == 9

    @pytest.mark.parametrize("flag", ["--pi", "--nu"])
    def test_lone_pi_or_nu_sweeps_the_other_over_the_grid(self, flag):
        # 105 cases per (pi, nu) pair at the default n-max, times the five
        # grid values of the unset parameter
        code, out, _ = run_cli(["identity", "sommedentro", flag, "3/2"])
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True and report["checked"] == 5 * 105

    def test_unknown_name_is_usage_error(self):
        code, _, err = run_cli(["identity", "legendre"])
        assert code == 2 and err != ""

    @pytest.mark.parametrize("name, flag", [
        ("sommedentro", "--k-max"),
        ("star-vandermonde", "--n-max"),
        ("pascal-star", "--pi"),
        ("quandebello", "--a-max"),
    ])
    def test_unread_bound_is_an_input_error(self, name, flag):
        code, out, err = run_cli(["identity", name, flag, "2"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err


    @pytest.mark.parametrize("name, flag, value", [
        ("sommedentro", "--n-max", "1"),
        ("star-vandermonde", "--u-max", "-1"),
        ("pascal-star", "--a-max", "-3"),
        ("quandebello", "--k-max", "0"),
    ])
    def test_empty_grid_is_an_input_error(self, name, flag, value):
        code, out, err = run_cli(["identity", name, flag, value])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{flag} {value}" in err

    # For each identity, the function its grid evaluates (a module global
    # of characterization), the one argument tuple at which a stand-in
    # returns a wrong value, that value, and the report it must produce:
    # the first failure, counted from 1 in the default grid's order.
    FIRST_FAILURES = [
        ("sommedentro", "sommedentro_sum",
         (Fraction(3, 2), Fraction(1, 2), 4, 3, 2, 1), Fraction(-1, 7),
         1070,
         {"pi": "3/2", "nu": "1/2", "n": 4, "u": 3, "z": 2, "k": 1,
          "value": "-1/7"}),
        ("star-vandermonde", "star_vandermonde", (3, 1, 2, 4), (5, 6), 772,
         {"u": 3, "q1": 1, "k1": 2, "j": 4, "sum": 5, "closed_form": 6}),
        ("pascal-star", "binom_star", (4, 2), 7, 63,
         {"a": 4, "b": 2, "lhs": 7, "rhs": 6}),
        ("quandebello", "compositions", (3, 2), ((2, 1), (1, 2), (0, 3)), 11,
         {"n": 3, "K": 2, "restricted": 2, "lower_order": 3}),
    ]

    @pytest.mark.parametrize(
        "name, attr, case, wrong, checked, counterexample", FIRST_FAILURES)
    def test_first_failure_is_reported(
            self, monkeypatch, name, attr, case, wrong, checked, counterexample):
        real = getattr(characterization, attr)
        monkeypatch.setattr(
            characterization, attr,
            lambda *args: wrong if args == case else real(*args))
        expected = {
            "schema_version": 1,
            "identity": name,
            "holds": False,
            "checked": checked,
            "counterexample": counterexample,
        }
        obj = characterization.check_identity(name).to_jsonable()
        assert obj == expected
        assert list(obj["counterexample"]) == list(counterexample)
        code, out, err = run_cli(["identity", name])
        assert code == 1 and err == ""
        assert out == json.dumps(expected, indent=2) + "\n"


class TestSimulate:
    def test_stream_mode(self):
        code, out, _ = run_cli(
            ["simulate", "--urn", "hls", "--pi", "1", "--nu", "2",
             "--alpha", "1/2", "--steps", "5", "--seed", "9"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(line in ("0", "1", "2") for line in lines)

    def test_stream_is_deterministic(self):
        argv = ["simulate", "--urn", "polya", "--initial", "1,2,3",
                "--steps", "8", "--seed", "4"]
        assert run_cli(argv) == run_cli(argv)

    def test_sampling_with_exact_crosscheck(self):
        code, out, _ = run_cli(
            ["simulate", "--urn", "hls", "--pi", "1", "--nu", "2",
             "--alpha", "1/2", "--samples", "800", "--n", "2",
             "--seed", "17", "--compare-exact"])
        assert code == 0
        report = json.loads(out)
        assert report["all_within_four_sigma"] is True
        assert report["law"] == "hls:K=3,pi=1,nu=2,alpha=1/2"
        assert sum(e["count"] for e in report["estimates"]) == 800

    def test_spreading_nu_changes_initial_not_the_law(self):
        # the hls law sees the counts only through pi and nu, and so does
        # every draw
        base = ["simulate", "--urn", "hls", "--alpha", "1/2", "--samples", "300",
                "--n", "2", "--seed", "29", "--compare-exact"]
        code_a, out_a, _ = run_cli(base + ["--pi", "1", "--nu", "2"])
        code_b, out_b, _ = run_cli(base + ["--initial", "1,1,1"])
        assert code_a == code_b == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["initial"] == [1, 2, 0] and b["initial"] == [1, 1, 1]
        assert a["law"] == b["law"]
        assert [e["count"] for e in a["estimates"]] == [e["count"] for e in b["estimates"]]

    def test_zero_samples(self):
        code, out, _ = run_cli(
            ["simulate", "--urn", "constant", "--p", "1/2,1/2",
             "--samples", "0", "--n", "2"])
        assert code == 0
        assert json.loads(out)["estimates"] == []

    @pytest.mark.parametrize("extra", [[], ["--compare-exact"]])
    def test_negative_samples_are_refused_before_any_work(self, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("urn built for a negative sample count")

        monkeypatch.setattr(cli, "_build_urn", refuse)
        code, out, err = run_cli(
            ["simulate", "--urn", "hls", "--alpha", "1/2", "--pi", "1", "--nu", "2",
             "--samples", "-1", "--n", "2", *extra])
        assert (code, out, err) == (2, "", "error: --samples must be >= 0\n")

    def test_zero_samples_check_the_prefix_length(self):
        code, out, err = run_cli(
            ["simulate", "--urn", "constant", "--p", "1/2,1/2",
             "--samples", "0", "--n", "0"])
        assert (code, out) == (2, "") and "--n must be >= 1" in err

    def test_zero_samples_compare_nothing(self):
        # no draw is no comparison, so it is no verdict either
        code, out, err = run_cli(
            ["simulate", "--urn", "hls", "--alpha", "1/2", "--pi", "1", "--nu", "2",
             "--samples", "0", "--n", "2", "--compare-exact"])
        assert (code, out) == (2, "") and "--compare-exact" in err

    def test_steps_and_samples_are_exclusive(self):
        code, _, err = run_cli(
            ["simulate", "--urn", "polya", "--initial", "1,1",
             "--steps", "3", "--samples", "10", "--n", "2"])
        assert code == 2 and "error:" in err
        code, _, err = run_cli(["simulate", "--urn", "polya", "--initial", "1,1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        # the counts come from --initial, so --pi/--nu would only rename the law
        "--urn hls --alpha 1/3 --initial 1,1,1 --pi 5 --nu 5 "
        "--samples 2000 --n 2 --compare-exact --seed 3",
        "--urn polya --initial 1,1 --steps 3 --compare-exact",
        "--urn polya --initial 1,1 --steps 3 --n 2",
        # each family reads only its own flags
        "--urn polya --initial 1,1 --p 1/2,1/2 --steps 3",
        "--urn polya --initial 1,1 --pi 7 --steps 3",
        "--urn polya --initial 1,1 --nu 7 --steps 3",
        "--urn polya --initial 1,1 --alpha 1/2 --steps 3",
        "--urn constant --p 1/2,1/2 --pi 7 --steps 3",
        "--urn constant --p 1/2,1/2 --nu 7 --steps 3",
        "--urn constant --p 1/2,1/2 --alpha 1/2 --steps 3",
        "--urn constant --p 1/2,1/2 --initial 1,1 --steps 3",
        "--urn hls --pi 1 --nu 2 --alpha 1/2 --p 1/3,1/3,1/3 --steps 3",
    ], ids=["initial-pi-nu", "steps-compare-exact", "steps-n",
            "polya-p", "polya-pi", "polya-nu", "polya-alpha",
            "constant-pi", "constant-nu", "constant-alpha", "constant-initial",
            "hls-p"])
    def test_ignored_flags_are_input_errors(self, argv):
        code, out, err = run_cli(["simulate", *argv.split()])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_initial_fixes_the_compared_law(self):
        code, out, _ = run_cli(
            ["simulate", "--urn", "hls", "--alpha", "1/3", "--initial", "1,1,1",
             "--samples", "300", "--n", "2", "--seed", "3", "--compare-exact"])
        assert code == 0
        assert json.loads(out)["law"] == "hls:K=3,pi=1,nu=2,alpha=1/3"

    @pytest.mark.parametrize("argv, message", [
        ("--urn polya --initial 0,2,3", "Polya weights must be strictly positive"),
        ("--urn constant --p 0,1/3,2/3", "IID probabilities must be strictly positive"),
        ("--urn hls --alpha 1/2 --initial 0,1,0", "HLS needs pi > 0 and nu > 0"),
    ], ids=["polya", "constant", "hls"])
    def test_compared_law_is_checked_before_drawing(self, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("samples drawn before the compared law was checked")

        monkeypatch.setattr(urnsim, "empirical_cylinder", refuse)
        code, out, err = run_cli(
            ["simulate", *argv.split(), "--samples", "50", "--n", "2",
             "--compare-exact", "--seed", "1"])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestLawCheck:
    def test_passing_law(self):
        code, out, _ = run_cli(
            ["law-check", "--law", "hls:K=4,pi=1,nu=2,alpha=1/4,1/4",
             "--n-max", "3"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_bad_law_spec_is_an_input_error(self):
        code, _, err = run_cli(["law-check", "--law", "iid:p=1/2,1/2,1/2",
                                "--n-max", "2"])
        assert code == 2 and err.startswith("error:")

    def test_n_max_below_one_is_an_input_error(self):
        code, out, err = run_cli(["law-check", "--law", "polya:alpha=1,2,3",
                                  "--n-max", "0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["law-check", "verify"])
    @pytest.mark.parametrize("spec", [
        "iid:p=1/2,,1/2",
        "polya:alpha=1,2,",
        "mixture:w=1/2,1/2;;p1=1/2,1/2;p2=1/4,3/4",
        "iid:p=1/2,1/2;",
        "iid:p=",
        "iid:",
        "hls:K=3,,pi=1,nu=2,alpha=1/2",
    ])
    def test_empty_entries_are_input_errors(self, command, spec):
        # the first four were read as valid laws once their empty entries
        # were dropped
        code, out, err = run_cli([command, "--law", spec, "--n-max", "2"])
        assert code == 2 and out == ""
        assert "empty entry" in err and repr(spec.partition(":")[2]) in err


# the fuzz test's law specs: each family's own keys or a random list of
# keys, and values of at most 6 colors (K included) so that no run starts
# unbounded work, with a near-miss now and then
FUZZ_KEYS = {"iid": ("p",), "polya": ("alpha",), "hls": ("K", "pi", "nu", "alpha"),
             "mixture": ("w", "p1", "p2"), "HLS": (), "gauss": ("sigma",), "": ()}
FUZZ_STRAY_KEYS = ("p", "alpha", "K", "pi", "nu", "w", "p1", "p3", "family", "", None)
FUZZ_VALUES = ("1", "2", "3", "4", "1/2", "1/3", "2/3", "1/4", "3/4")
FUZZ_NEAR_MISSES = ("0", "-1", "6", "1/0", "0.5", "+1/2", "1_000", "1e-100000000",
                    "\u0663", "")


@st.composite
def fuzzed_specs(draw):
    def joined(parts):
        out = parts[0]
        for part in parts[1:]:
            out += draw(st.sampled_from(",;")) + part
        return out

    def value():
        if draw(st.integers(0, 7)):
            return draw(st.sampled_from(FUZZ_VALUES))
        return draw(st.sampled_from(FUZZ_NEAR_MISSES))

    family = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    keys = draw(st.one_of(st.just(FUZZ_KEYS[family]),
                          st.lists(st.sampled_from(FUZZ_STRAY_KEYS), max_size=5)))
    pieces = []
    for key in keys:
        values = joined([value() for _ in range(draw(st.integers(1, 6)))])
        pieces.append(values if key is None else f"{key}={values}")
    body = joined(pieces) if pieces else ""
    return family + draw(st.sampled_from((":", ":", "", "::"))) + body


class TestLawSpecFuzz:
    @given(fuzzed_specs())
    def test_a_spec_is_a_verdict_or_an_input_error(self, spec):
        code, _, err = run_cli(["law-check", "--law", spec, "--n-max", "2"])
        assert code in (0, 1, 2), err
        assert (code == 2) == err.startswith("error:"), err


class TestErrorChannel:
    def test_exponent_forms_are_refused_before_any_work(self):
        # Fraction would expand the exponent into a 10^8-digit integer
        src = os.path.dirname(os.path.dirname(os.path.abspath(characterization.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hoeffding", "law-check",
             "--law", "iid:p=1e-100000000,1", "--n-max", "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "exponent" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["law-check", "--law", "iid:p=1/2,0.5", "--n-max", "1"],
        ["law-check", "--law", "iid:p=+1/2,1/2", "--n-max", "1"],
        ["law-check", "--law", "polya:alpha=1_0,2,3", "--n-max", "1"],
        ["law-check", "--law", "polya:alpha=\u0661,2,3", "--n-max", "1"],
        ["simulate", "--urn", "constant", "--p", "0.5,1/2", "--steps", "2"],
    ])
    def test_only_integers_and_num_den_are_rationals(self, argv):
        # decimal, '+', underscore and non-ASCII digit forms used to be
        # read as the number they spell; now they are input errors
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not accepted" in err
        assert err.count("\n") == 1

    def test_decimal_statistic_value_is_an_input_error(self, tmp_path):
        path = tmp_path / "statistic.json"
        path.write_text(json.dumps({"order": 1, "K": 3, "values": [
            {"composition": [1, 0, 0], "value": "0.5"},
            {"composition": [0, 1, 0], "value": "1/2"},
            {"composition": [0, 0, 1], "value": 1}]}))
        code, out, err = run_cli(
            ["decompose", "--law", "polya:alpha=1,2,3", "--statistic", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not accepted" in err

    @pytest.mark.parametrize("obj", [
        {"family": "iid"},
        {"family": "iid", "p": 5},
        {"family": "hls", "K": 3.9, "pi": "1/1", "nu": "2/1", "alpha": ["1/2"]},
        {"family": "iid", "p": ["1/2", "1/2"], "q": ["1/1"]},
    ])
    def test_malformed_law_file_is_an_input_error(self, tmp_path, obj):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["law-check", "--law", str(path), "--n-max", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_law_file_without_p_names_the_field(self, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"family": "iid"}))
        code, _, err = run_cli(["verify", "--law", str(path), "--n-max", "2"])
        assert code == 2
        assert err == "error: law field 'p' is missing\n"

    def test_statistic_order_must_be_an_integer(self, tmp_path):
        path = statistic_file(tmp_path)
        obj = json.loads(path.read_text())
        obj["order"] = 2.9
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "order" in err

    @pytest.mark.parametrize("field, raw", [
        ("value", True), ("value", 0.5), ("composition", [True, 1, 1]),
    ])
    def test_statistic_entries_are_never_coerced(self, tmp_path, field, raw):
        path = statistic_file(tmp_path)
        obj = json.loads(path.read_text())
        obj["values"][0][field] = raw
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: malformed value entry")

    @pytest.mark.parametrize("extra, message", [
        ({"composition": [1, 0], "value": 7},
         "error: composition [1, 0] is listed more than once\n"),
        ({"composition": [0, 1], "value": 0, "note": "x"},
         "error: malformed value entry {'composition': [0, 1], 'value': 0, 'note': 'x'}: "
         "unknown fields ['note']\n"),
    ], ids=["repeated-composition", "unknown-entry-field"])
    def test_statistic_entries_are_listed_once_with_known_fields(
            self, tmp_path, extra, message):
        path = tmp_path / "stat.json"
        path.write_text(json.dumps({"order": 1, "K": 2, "values": [
            {"composition": [1, 0], "value": "1/2"}, extra,
            {"composition": [0, 1], "value": 0}]}))
        code, out, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/2", "--statistic", str(path)])
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("text, argv, noun, key", [
        ('{"family": "iid", "p": ["1/2", "1/2"], "p": ["1/3", "2/3"]}',
         ["law-check", "--n-max", "2", "--law"], "law", "p"),
        ('{"order": 1, "K": 2, "values": ['
         '{"composition": [1, 0], "value": "1/2", "value": 7}, '
         '{"composition": [0, 1], "value": 0}]}',
         ["decompose", "--law", "iid:p=1/2,1/2", "--statistic"], "statistic", "value"),
    ], ids=["law", "statistic"])
    def test_repeated_json_key_is_an_input_error(self, tmp_path, text, argv, noun, key):
        # json.load alone would keep the last value of a repeated key
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli([*argv, str(path)])
        assert (code, out, err) == (
            2, "", f"error: {noun} file {path} repeats the key {key!r}\n")

    def test_statistic_file_rejects_unknown_fields(self, tmp_path):
        path = statistic_file(tmp_path)
        obj = json.loads(path.read_text())
        obj["colors"] = 3
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert (code, out, err) == (2, "", "error: unknown statistic fields ['colors']\n")

    @pytest.mark.parametrize("case", ["out-dir-missing", "statistic-missing", "law-is-a-directory"])
    def test_unusable_path_is_an_input_error(self, tmp_path, case):
        stat_path = statistic_file(tmp_path)
        law = "iid:p=1/2,1/3,1/6"
        named, argv = {
            "out-dir-missing": (
                tmp_path / "missing" / "x.json", ["identity", "pascal-star", "--out"]),
            "statistic-missing": (
                tmp_path / "missing.json", ["decompose", "--law", law, "--statistic"]),
            "law-is-a-directory": (
                tmp_path, ["decompose", "--statistic", str(stat_path), "--law"]),
        }[case]
        argv = argv + [str(named)]
        if case != "out-dir-missing":
            argv += ["--out", str(tmp_path / "report.json")]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(named) in err
        assert [p.name for p in tmp_path.iterdir()] == ["stat.json"]

    def test_command_checks_share_main_error_line(self, tmp_path, monkeypatch):
        # the exact stderr and exit code of each input check made inside a
        # subcommand, as main prints every ValueError
        path = str(statistic_file(tmp_path))
        law = "iid:p=1/2,1/3,1/6"
        failure = {"check": "normalization", "n": 3, "composition": None,
                   "detail": "2/1"}
        monkeypatch.setattr(laws, "check_consistency", lambda law, n: laws.ConsistencyReport(
            laws.format_law(law), n, False, failure))
        code, out, err = run_cli(["decompose", "--law", law, "--statistic", path])
        assert (code, out, err) == (2, "", f"error: law failed consistency: {failure}\n")

        for flags in (["--steps", "3", "--samples", "10", "--n", "2"], []):
            code, out, err = run_cli(
                ["simulate", "--urn", "polya", "--initial", "1,1", *flags])
            assert (code, out, err) == (
                2, "", "error: pass exactly one of --steps or --samples\n")

    def test_internal_error_exits_three(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(laws, "check_consistency", broken)
        code, out, err = run_cli(["law-check", "--law", "iid:p=1/2,1/2", "--n-max", "2"])
        assert code == 3 and out == ""
        assert err.startswith("internal error:\n")
        assert "Traceback" in err and "RuntimeError: broken on purpose" in err

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # the reader takes one line and closes the pipe while the report is
        # still being written: the reader's choice, not a crash
        src = os.path.dirname(os.path.dirname(os.path.abspath(characterization.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hoeffding", "verify",
             "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "6"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"{\n" and err == b""


@pytest.mark.parametrize("argv", [
    ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "2", "--inc", "false"],
    ["oracle", "--law", "iid:p=1/2,1/2", "--n-max", "2", "--ou", "{}"],
    ["decompose", "--law", "iid:p=1/2,1/2", "--statistic", "stat.json", "--ou", "{}"],
    ["identity", "pascal-star", "--a", "3"],
    ["simulate", "--urn", "polya", "--initial", "1,1", "--samp", "10", "--n", "2"],
    ["simulate", "--urn", "polya", "--initial", "1,1", "--samples", "10", "--n", "2",
     "--se", "3", "--comp"],
    ["law-check", "--law", "iid:p=1/2,1/2", "--n-max", "2", "--ou", "{}"],
    ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "2", "--bogus", "1",
     "--out", "{}"],
], ids=["verify-inc", "oracle-ou", "decompose-ou", "identity-a", "simulate-samp",
        "simulate-se-comp", "law-check-ou", "verify-bogus"])
def test_a_flag_prefix_is_a_usage_error(tmp_path, argv):
    # each flag has one spelling, in full, on every subcommand; a prefix or
    # an unknown flag gets that subcommand's own usage line
    report = tmp_path / "report.json"
    code, out, err = run_cli([a.format(report) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"usage: hoeffding {argv[0]} ")
    assert "unrecognized arguments: --" in err
    assert not report.exists()


HLS_URN = ["simulate", "--urn", "hls", "--alpha", "1/2", "--steps", "2"]


class TestIntegerFlags:
    @pytest.mark.parametrize("value", ["+1", "1_0", "٣"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "{}"],
        ["identity", "sommedentro", "--n-max", "{}"],
        ["simulate", "--urn", "polya", "--initial", "1,1", "--steps", "2", "--seed", "{}"],
        ["simulate", "--urn", "polya", "--initial", "1,{},3", "--steps", "2"],
        [*HLS_URN, "--pi", "{}", "--nu", "2"],
        [*HLS_URN, "--pi", "1", "--nu", "{}"],
    ], ids=["type-int", "identity", "seed", "initial", "pi", "nu"])
    def test_only_ascii_digits_are_integers(self, argv, value):
        # int() would read each of these as the number it spells
        code, out, err = run_cli([a.format(value) for a in argv])
        assert code == 2 and out == ""
        assert "expected" in err and "integer" in err and value in err

    @pytest.mark.parametrize("spaced, plain", [
        (["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", " 3 "],
         ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "3"]),
        (["simulate", "--urn", "polya", "--initial", " 7 ,1", "--steps", "4"],
         ["simulate", "--urn", "polya", "--initial", "7,1", "--steps", "4"]),
        ([*HLS_URN, "--pi", " 7 ", "--nu", "2"], [*HLS_URN, "--pi", "7", "--nu", "2"]),
    ], ids=["n-max", "initial", "pi"])
    def test_surrounding_whitespace_is_stripped(self, spaced, plain):
        # as parse_rational strips it
        assert run_cli(spaced) == run_cli(plain)
        assert run_cli(plain)[0] == 0


class TestVectorFlags:
    @pytest.mark.parametrize("argv, a, b", [
        (["simulate", "--urn", "polya", "--initial", "{}", "--steps", "2"], "1", "2"),
        (["simulate", "--urn", "constant", "--p", "{}", "--steps", "2"], "1/2", "1/2"),
        (["simulate", "--urn", "hls", "--alpha", "{}", "--pi", "1", "--nu", "2",
          "--steps", "2"], "1/4", "1/4"),
    ], ids=["initial", "p", "alpha"])
    def test_empty_entries_are_input_errors(self, argv, a, b):
        # each list is valid once its empty entries are dropped, as they
        # once were; an empty value is not an absent flag either
        assert run_cli([x.format(f"{a},{b}") for x in argv])[0] == 0
        for value in (f"{a},,{b}", f"{a},{b},", f",{a},{b}", " , ", ""):
            code, out, err = run_cli([x.format(value) for x in argv])
            assert code == 2 and out == ""
            assert "empty entry" in err and repr(value) in err
