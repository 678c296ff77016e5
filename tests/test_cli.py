import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plethyra
from plethyra.cli import parse_partition, run
from plethyra.verify import EMPTY_INNER_TABLE, KAPPAS_5

# One query per subcommand and flag, with its JSON report minus elapsed_ms,
# recorded before the dispatch code was merged into one report constructor.
# The file is a fixed reference: do not regenerate it from the current code.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def run_error(capsys, argv):
    """Exit code and the stderr lines of a query that must fail cleanly."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.strip().splitlines()


class TestParsePartition:
    def test_brackets(self):
        assert parse_partition("[3,2,1]") == (3, 2, 1)

    def test_empty_forms(self):
        assert parse_partition("[]") == ()
        assert parse_partition("∅") == ()
        assert parse_partition("()") == ()

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_partition("[1,2]")


class TestSubcommands:
    def test_rc_example(self, capsys):
        code, report = run_json(capsys, [
            "rc", "--alpha", "[]", "--beta", "[2,1]", "--kappa", "[5]",
        ])
        assert code == 0 and report["value"] == 2

    def test_stable_example(self, capsys):
        code, report = run_json(capsys, [
            "stable", "--beta", "[2,1]", "--m", "3", "--n", "7", "--kappa", "[5]",
        ])
        assert code == 0
        assert report["value"] == 2
        assert report["route"] == "stable_formula"
        assert report["bounds_met"] is True

    def test_stable_brute_route(self, capsys):
        code, report = run_json(capsys, [
            "stable", "--beta", "[1]", "--m", "2", "--n", "3", "--kappa", "[3]",
        ])
        assert code == 0 and report["route"] == "brute_force"
        assert report["bounds_met"] is False

    def test_plethysm_coefficient(self, capsys):
        code, report = run_json(capsys, [
            "plethysm", "--nu", "[2]", "--mu", "[2]", "--lam", "[2,2]",
        ])
        assert code == 0 and report["value"] == 1

    def test_plethysm_expansion_schema(self, capsys):
        code, report = run_json(capsys, ["plethysm", "--nu", "[2]", "--mu", "[2]"])
        assert code == 0
        assert report["value"] == [
            {"partition": [4], "coefficient": 1},
            {"partition": [2, 2], "coefficient": 1},
        ]

    def test_lr(self, capsys):
        code, report = run_json(capsys, [
            "lr", "--lam", "[3,2,1]", "--mu", "[2,1]", "--nu", "[2,1]",
        ])
        assert code == 0 and report["value"] == 2

    def test_marked_and_gf(self, capsys):
        code, report = run_json(capsys, ["marked", "--b", "2", "--r", "4"])
        assert code == 0 and report["value"] == 3
        code, report = run_json(capsys, [
            "marked", "--b", "1", "--r", "3", "--distinct", "--cap", "2"])
        assert code == 0 and report["value"] == 1
        code, report = run_json(capsys, ["gf", "--b", "0", "--n", "6"])
        assert code == 0 and report["value"] == [1, 0, 1, 1, 2, 2, 4]

    def test_tableaux_oracle(self, capsys):
        code, report = run_json(capsys, [
            "tableaux-oracle", "--m", "3", "--n", "8", "--k", "3", "--r", "5",
        ])
        assert code == 0 and report["count_r"] == 5
        code, report = run_json(capsys, [
            "tableaux-oracle", "--m", "3", "--n", "8", "--k", "3", "--r", "1000000000000",
        ])
        assert code == 0 and report["value"] == 0 == report["count_r"]

    @pytest.mark.parametrize("m,n", [("60", "100"), ("1000000000", "1000000000")])
    def test_tableaux_oracle_large(self, capsys, m, n):
        # the counts are read off a series truncated at r, whatever m and n
        code, report = run_json(capsys, [
            "tableaux-oracle", "--m", m, "--n", n, "--k", "3", "--r", "40",
        ])
        assert code == 0
        assert (report["count_r"], report["count_r_minus_1"], report["value"]) == (
            726058, 583644, 142414)

    def test_diagram_compose(self, capsys):
        code, report = run_json(capsys, [
            "diagram", "--compose", "{1,1'}|{2,2'}", "{1}|{1'}|{2,2'}",
        ])
        assert code == 0
        assert report["delta_exponent"] == 0
        assert report["value"] == "{1}|{2,2'}|{1'}"

    @pytest.mark.parametrize("flag,text,code", [
        ("--prop-data", "{}", 0), ("--prop-data", "", 0), ("--prop-index", "", 1),
    ], ids=["prop-data-braces", "prop-data-empty", "prop-index-empty"])
    def test_empty_diagram_value(self, capsys, flag, text, code):
        # an empty value still selects its action, not --orbit-expand
        assert run(["diagram", flag, text, "--format", "json"]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["value"] == 0
        else:
            lines = captured.err.strip().splitlines()
            assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")

    def test_dq_check(self, capsys):
        code, report = run_json(capsys, ["dq-check", "--r", "4", "--beta", "[2]"])
        assert code == 0 and report["match"] is True

    def test_schur_weyl_commute(self, capsys):
        code, report = run_json(capsys, ["schur-weyl", "--commute", "2", "2", "2"])
        assert code == 0 and report["value"] is True


class TestOutputFormats:
    """The text and csv renderings of one report carry the JSON record's
    keys in sorted order, with elapsed_ms among them."""

    ARGV = ["rc", "--r", "3", "--beta", "[1]"]
    KEYS = ["bounds_met", "elapsed_ms", "query", "route", "value"]
    TABLE = [{"partition": [3], "coefficient": 2}, {"partition": [2, 1], "coefficient": 1},
             {"partition": [1, 1, 1], "coefficient": 0}]

    def render(self, capsys, fmt):
        assert run(self.ARGV + ["--format", fmt]) == 0
        return capsys.readouterr().out

    def test_csv(self, capsys):
        header, row = csv.reader(io.StringIO(self.render(capsys, "csv")))
        assert header == self.KEYS
        record = dict(zip(header, row))
        assert json.loads(record["value"]) == self.TABLE
        assert record["query"] == "rc([]^[1],kappa|-3)"
        assert (record["bounds_met"], record["route"]) == ("None", "branching_function")
        assert float(record["elapsed_ms"]) >= 0

    def test_text(self, capsys):
        record = dict(line.split(": ", 1) for line in self.render(capsys, "text").splitlines())
        assert list(record) == self.KEYS
        assert ast.literal_eval(record["value"]) == self.TABLE
        assert record["query"] == "rc([]^[1],kappa|-3)"
        assert float(record["elapsed_ms"]) >= 0


class TestGolden:
    @pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
    def test_report_as_recorded(self, capsys, entry):
        code, report = run_json(capsys, entry["argv"])
        report.pop("elapsed_ms")
        assert code == 0
        assert report == entry["report"]

    def test_rc_table_is_empty_inner_table(self, capsys):
        code, report = run_json(capsys, ["rc", "--r", "5", "--beta", "[2,1]"])
        assert code == 0
        assert [e["partition"] for e in report["value"]] == [list(k) for k in KAPPAS_5]
        assert tuple(e["coefficient"] for e in report["value"]) == EMPTY_INNER_TABLE

    @pytest.mark.parametrize("lam", [[], ["--lam", "[21]"]], ids=["expansion", "coefficient"])
    def test_one_degree_ceiling_message(self, capsys, lam):
        code, lines = run_error(
            capsys, ["plethysm", "--nu", "[3]", "--mu", "[7]", "--max-degree", "20", *lam])
        assert code == 1
        assert lines == ["error: brute-force plethysm degree 21 exceeds the ceiling 20 "
                         "(raise --max-degree)"]


class TestExitCodes:
    @pytest.mark.parametrize("argv,precondition", [
        (["gf", "--b", "-1", "--n", "5"], "stable_two_row_gf requires b, n >= 0"),
        (["gf", "--b", "1", "--n", "-1"], "stable_two_row_gf requires b, n >= 0"),
        (["marked", "--b", "-1", "--r", "4"], "marked_partitions requires b, r, cap >= 0"),
        (["marked", "--b", "1", "--r", "-1"], "marked_partitions requires b, r, cap >= 0"),
        (["marked", "--b", "1", "--r", "4", "--cap", "-1"],
         "marked_partitions requires b, r, cap >= 0"),
        (["schur-weyl", "--rank", "-1", "2"], "faithfulness_rank requires d, r >= 0"),
        (["schur-weyl", "--rank", "2", "-1"], "faithfulness_rank requires d, r >= 0"),
        (["schur-weyl", "--commute", "-1", "2", "2"], "check_commute requires m, n, r >= 0"),
        (["schur-weyl", "--commute", "2", "-1", "2"], "check_commute requires m, n, r >= 0"),
        (["schur-weyl", "--commute", "2", "2", "-1"], "check_commute requires m, n, r >= 0"),
        (["rc", "--beta", "[2,1]", "--r", "-1"], "rc requires --r >= 0"),
        (["theta", "--r", "-1"], "theta_poset requires r >= 0"),
        (["tableaux-oracle", "--m", "-1", "--n", "2", "--k", "1", "--r", "1"],
         "cayley_tableaux_count requires m, n, k >= 0"),
        (["tableaux-oracle", "--m", "2", "--n", "-1", "--k", "0", "--r", "1"],
         "cayley_tableaux_count requires m, n, k >= 0"),
        (["tableaux-oracle", "--m", "2", "--n", "4", "--k", "-1", "--r", "1"],
         "cayley_tableaux_count requires m, n, k >= 0"),
        (["tableaux-oracle", "--m", "2", "--n", "4", "--k", "1", "--r", "-1"],
         "tableaux-oracle requires --r >= 0"),
        (["stable", "--beta", "[2]", "--m", "-1", "--n", "5", "--kappa", "[1]"],
         "stable requires m >= 0 and n >= 0"),
        (["stable", "--beta", "[2]", "--m", "3", "--n", "-7", "--kappa", "[1]"],
         "stable requires m >= 0 and n >= 0"),
        (["dq-check", "--r", "-1", "--beta", "[1]"], "dq-check requires --r >= 0, got -1"),
        (["schur-weyl", "--commute", "2", "2", "2", "--max-entries", "-1"],
         "schur-weyl requires --max-entries >= 0, got -1"),
        (["plethysm", "--nu", "[1]", "--mu", "[1]", "--lam", "[1]", "--max-degree", "-1"],
         "plethysm requires --max-degree >= 0, got -1"),
        (["stable", "--beta", "[1]", "--m", "2", "--n", "3", "--kappa", "[1]",
          "--max-degree", "-1"], "stable requires --max-degree >= 0, got -1"),
        (["theta", "--r", "2", "--bound", "-1"], "theta requires --bound >= 0, got -1"),
    ], ids=["gf-b", "gf-n", "marked-b", "marked-r", "marked-cap", "rank-d", "rank-r",
            "commute-m", "commute-n", "commute-r", "rc-r", "theta-r", "tableaux-m",
            "tableaux-n", "tableaux-k", "tableaux-r", "stable-m", "stable-n", "dq-check-r",
            "max-entries", "plethysm-max-degree", "stable-max-degree", "theta-bound"])
    def test_negative_integer_exit_one(self, capsys, argv, precondition):
        code, lines = run_error(capsys, argv)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert precondition in lines[0]

    @pytest.mark.parametrize("argv,fragments", [
        (["diagram", "--compose", "{1,1'}", "{1,1'}", "--prop-data", "{1,1'}"],
         ["argument --prop-data: not allowed with argument --compose",
          "(--compose D D | --ramified-compose R R | --prop-data D | --prop-index R"]),
        (["schur-weyl", "--commute", "1", "1", "1", "--rank", "2", "2"],
         ["argument --rank: not allowed with argument --commute",
          "(--commute M N R | --negative-control M N R | --rank D R)"]),
        (["schur-weyl", "--max-entries", "10"],
         ["one of the arguments --commute --negative-control --rank is required"]),
        (["lr", "--lam", "[3,x]", "--mu", "[2]", "--nu", "[1]"],
         ["integers like [3,2,1]", "'[3,x]'"]),
        (["diagram", "--prop-data", "{1,x}"],
         ["integers, primed for the southern row", "'{1,x}'"]),
        (["diagram", "--prop-index", "{1,1'}"],
         ["inner@outer with exactly one @", "\"{1,1'}\""]),
        (["diagram", "--prop-index", "{1,1'}@{1,1'}@{1,1'}"],
         ["inner@outer with exactly one @", "\"{1,1'}@{1,1'}@{1,1'}\""]),
        (["rc", "--beta", "[2,1]", "--kappa", "[5]", "--r", "5"],
         ["argument --r: not allowed with argument --kappa", "(--kappa KAPPA | --r R)"]),
        (["rc", "--kappa", "[5]"],
         ["the following arguments are required: --beta", "usage: plethyra rc",
          "--beta BETA"]),
        (["--format", "json"],
         ["the following arguments are required: command", "usage: plethyra [-h]"]),
        (["dq-check", "--r", "0", "--beta", "[1]"],
         ["dq-check requires |beta| <= r, got |beta| = 1, r = 0"]),
    ], ids=["diagram-two-actions", "schur-weyl-two-actions", "schur-weyl-no-action",
            "partition-parse",
            "diagram-parse", "ramified-no-at", "ramified-two-at", "usage-two-targets",
            "usage-missing-beta", "usage-no-command", "dq-check-beta-above-r"])
    def test_malformed_query_exit_one(self, capsys, argv, fragments):
        code, lines = run_error(capsys, argv)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert all(fragment in lines[0] for fragment in fragments)

    def test_domain_error_exit_one(self, capsys):
        code = run(["rc", "--alpha", "[1]", "--beta", "[2,1]", "--kappa", "[2]"])
        assert code == 1
        err = capsys.readouterr().err
        assert "|kappa| >= |alpha|*|beta|" in err

    def test_budget_error_exit_one(self, capsys):
        code = run(["schur-weyl", "--rank", "6", "3", "--max-entries", "100"])
        assert code == 1

    def test_commute_work_budget(self, capsys):
        # 199 wreath generators times 80,000 stored entries, although
        # d^(r+1) = 40,000 is under the default cap
        code, lines = run_error(capsys, ["schur-weyl", "--commute", "200", "1", "1"])
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds the cap 1000000" in lines[0]
        # 29 x 1,800 = 52,200: under the default cap, over a lowered one
        code, lines = run_error(capsys, ["schur-weyl", "--commute", "30", "1", "1",
                                         "--max-entries", "50000"])
        assert code == 1 and len(lines) == 1
        _, rep = run_json(capsys, ["schur-weyl", "--commute", "30", "1", "1"])
        assert rep["value"] is True

    def test_verify_examples_exit_zero(self, capsys):
        code = run(["verify", "--suite", "examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == out.count("\n")


class TestDeterminism:
    def test_identical_queries_identical_json(self, capsys):
        argv = ["rc", "--alpha", "[]", "--beta", "[2]", "--kappa", "[4]"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    def test_schema_keys(self, capsys):
        _, report = run_json(capsys, [
            "stable", "--beta", "[2]", "--m", "4", "--n", "6", "--kappa", "[4]",
        ])
        assert set(report) == {"query", "value", "route", "bounds_met", "elapsed_ms"}


def spawn(*args, **kwargs):
    """A fresh Python process on this package's sources, as Popen."""
    env = {**os.environ, "PYTHONPATH": str(Path(plethyra.__file__).resolve().parents[1])}
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


class TestFreshProcess:
    def test_verify_fails_under_optimized_mode(self):
        """python -O strips assert statements; a perturbed golden value must
        still fail, because the checks raise explicitly.  Only this
        subprocess patches the table."""
        code = ("import sys; from plethyra import cli, verify; "
                "verify.EMPTY_INNER_TABLE = (9, 5, 4, 3, 2, 0, 0); "
                "sys.exit(cli.run(['verify', '--suite', 'examples']))")
        proc = spawn("-O", "-c", code)
        out, err = proc.communicate(timeout=120)
        assert "FAIL branching-table-empty-inner" in out, err
        assert proc.returncode == 2

    def test_closed_pipe_exits_without_traceback(self):
        """A reader that stops after a few bytes of a 482 KB report."""
        proc = spawn("-m", "plethyra.cli", "marked", "--b", "2", "--r", "30", "--list")
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
