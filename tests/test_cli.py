"""End-to-end driver tests: every subcommand through main(), checking
exit codes, JSON payloads, and the error channel.

Output capture is done with redirect_stdout/redirect_stderr because the
suite runs with capture off."""

import contextlib
import io
import json
import os
import stat
import threading

import pytest

from hoeffding import characterization, cli, laws
from hoeffding.cli import main
from hoeffding.decomp import SymmetricStatistic, table_to_jsonable
from hoeffding.laws import law_to_jsonable, parse_law

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

    def test_zeros_only_false_drops_zero_entries(self):
        code, out, _ = run_cli(
            ["verify", "--law", "iid:p=1/2,1/3,1/6", "--n-max", "2",
             "--zeros-only", "false"])
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

    def test_include_zeros_and_its_alias_give_identical_bytes(self):
        argv = ["verify", "--law", "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
                "--n-max", "3"]
        for flag in ("true", "false"):
            new = run_cli(argv + ["--include-zeros", flag])
            old = run_cli(argv + ["--zeros-only", flag])
            assert new == old and new[0] == 1
        assert run_cli(argv + ["--include-zeros", "true"]) == run_cli(argv)

    def test_out_file_is_complete_and_leaves_no_temporary(self, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_text("stale")
        argv = ["verify", "--law", "hls:K=3,pi=1,nu=2,alpha=1/2", "--n-max", "3"]
        code, stdout, _ = run_cli(argv)
        assert run_cli(argv + ["--out", str(out_path)]) == (code, "", "")
        assert out_path.read_text() == stdout
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

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

    def test_jobs_from_the_environment_are_capped(self, monkeypatch, recording_pool):
        monkeypatch.setattr(characterization.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("HOEFFDING_JOBS", "1000000")
        argv = ["verify", "--law", "polya:alpha=1,2,3", "--n-max", "3"]
        capped = run_cli(argv)
        assert recording_pool == [3]
        assert capped == run_cli(argv + ["--jobs", "1"])
        assert recording_pool == [3]


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

    def test_order_crosscheck(self, tmp_path):
        path = statistic_file(tmp_path)
        code, _, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6",
             "--statistic", str(path), "--n", "4"])
        assert code == 2 and "order" in err

    def test_color_mismatch(self, tmp_path):
        path = statistic_file(tmp_path)
        code, _, err = run_cli(
            ["decompose", "--law", "iid:p=1/4,1/4,1/4,1/4",
             "--statistic", str(path)])
        assert code == 2 and err.startswith("error:")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            ["decompose", "--law", "iid:p=1/2,1/3,1/6", "--statistic", str(path)])
        assert code == 2 and err.startswith("error:")


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

    def test_nu_split_changes_initial_not_the_law(self):
        base = ["simulate", "--urn", "hls", "--pi", "1", "--nu", "2",
                "--alpha", "1/2", "--samples", "300", "--n", "2",
                "--seed", "29", "--compare-exact"]
        code_a, out_a, _ = run_cli(base)
        code_b, out_b, _ = run_cli(base + ["--nu-split", "1,1"])
        assert code_a == code_b == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["initial"] == [1, 2, 0] and b["initial"] == [1, 1, 1]
        assert a["law"] == b["law"]

    def test_zero_samples(self):
        code, out, _ = run_cli(
            ["simulate", "--urn", "constant", "--p", "1/2,1/2",
             "--samples", "0", "--n", "2"])
        assert code == 0
        assert json.loads(out)["estimates"] == []

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
        "--urn hls --alpha 1/2 --initial 1,1,1 --nu-split 1,1 --steps 3",
        "--urn polya --initial 1,1 --steps 3 --compare-exact",
        "--urn polya --initial 1,1 --steps 3 --n 2",
        # each family reads only its own flags
        "--urn polya --initial 1,1 --p 1/2,1/2 --steps 3",
        "--urn polya --initial 1,1 --pi 7 --steps 3",
        "--urn polya --initial 1,1 --nu 7 --steps 3",
        "--urn polya --initial 1,1 --alpha 1/2 --steps 3",
        "--urn polya --initial 1,1 --nu-split 1,1 --steps 3",
        "--urn constant --p 1/2,1/2 --pi 7 --steps 3",
        "--urn constant --p 1/2,1/2 --nu 7 --steps 3",
        "--urn constant --p 1/2,1/2 --alpha 1/2 --steps 3",
        "--urn constant --p 1/2,1/2 --nu-split 1,1 --steps 3",
        "--urn hls --pi 1 --nu 2 --alpha 1/2 --p 1/3,1/3,1/3 --steps 3",
    ], ids=["initial-pi-nu", "initial-nu-split", "steps-compare-exact", "steps-n",
            "polya-p", "polya-pi", "polya-nu", "polya-alpha", "polya-nu-split",
            "constant-pi", "constant-nu", "constant-alpha", "constant-nu-split",
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

    def test_bad_nu_split(self):
        code, _, err = run_cli(
            ["simulate", "--urn", "hls", "--pi", "1", "--nu", "2",
             "--alpha", "1/2", "--nu-split", "1,2", "--steps", "3"])
        assert code == 2 and err.startswith("error:")


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


class TestErrorChannel:
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

    def test_internal_error_exits_three(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(laws, "check_consistency", broken)
        code, out, err = run_cli(["law-check", "--law", "iid:p=1/2,1/2", "--n-max", "2"])
        assert code == 3 and out == ""
        assert err.startswith("internal error:\n")
        assert "Traceback" in err and "RuntimeError: broken on purpose" in err
