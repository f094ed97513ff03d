import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biperiodic import IdentityId, SeqParams, SequenceKind, cli, format_rational, genmatrix, identities, sequences
from conftest import oracle_fib_table, oracle_lucas_table, pairs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=ROOT)


def run_cli(*args):
    return run_python("-m", "biperiodic", *args)


def call_counted(monkeypatch, module, name, argv):
    """Run the CLI in-process with ``module.name`` counting its calls; return the count."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(calls)


def run_json(*args, expect_code=0):
    proc = run_cli(*args)
    assert proc.returncode == expect_code, proc.stderr.decode()
    record = json.loads(proc.stdout)
    assert record["schema_version"] == "1"
    return record


class TestTerm:
    def test_matrix_method_example(self):
        record = run_json("term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5", "--method", "matrix")
        assert record["results"] == [{"n": 5, "value": "55"}]

    def test_lucas_seed(self):
        record = run_json("term", "--kind", "lucas", "--a", "1", "--b", "1", "--n", "0")
        assert record["results"] == [{"n": 0, "value": "2"}]

    def test_binet_on_the_line_matches_recurrence(self):
        # the documented command at (2, -2), where ab + 4 = 0
        args = ("term", "--kind", "fib", "--a", "2", "--b", "-2", "--n", "4")
        binet = run_json(*args, "--method", "binet")
        recurrence = run_json(*args, "--method", "recurrence")
        assert binet["params"].pop("method") == "binet"
        assert recurrence["params"].pop("method") == "recurrence"
        assert binet == recurrence
        assert binet["results"] == [{"n": 4, "value": "-4"}]

    def test_matrix_method_on_the_line_matches_recurrence(self):
        for kind in ("fib", "lucas"):
            args = ("term", "--kind", kind, "--a", "1", "--b", "-4", "--n", "6")
            matrix = run_json(*args, "--method", "matrix")
            recurrence = run_json(*args, "--method", "recurrence")
            assert matrix["params"].pop("method") == "matrix"
            assert recurrence["params"].pop("method") == "recurrence"
            assert matrix == recurrence, kind

    def test_invalid_rational_exits_2(self):
        proc = run_cli("term", "--kind", "fib", "--a", "2.5", "--b", "3", "--n", "1")
        assert proc.returncode == 2
        assert b"error" in proc.stderr

    def test_requires_exactly_one_index_argument(self):
        proc = run_cli("term", "--kind", "fib", "--a", "2", "--b", "3")
        assert proc.returncode == 2
        proc = run_cli("term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "1", "--n-range", "1..2")
        assert proc.returncode == 2

    def test_all_methods_agree_over_a_range(self):
        # (2, -2) and (1, -4) lie on ab = -4, where G^-n and an eigenbasis do
        # not exist; term needs neither, so every method serves the line
        for kind, a, b in (("lucas", "2", "3"), ("fib", "2", "-2"), ("lucas", "1", "-4")):
            outputs = []
            for method in ("recurrence", "matrix", "binet"):
                proc = run_cli("term", "--kind", kind, "--a", a, "--b", b, "--n-range", "-6..6",
                               "--method", method, "--format", "csv")
                assert proc.returncode == 0, proc.stderr.decode()
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1] == outputs[2], (kind, a, b)

    def test_csv_and_json_carry_the_same_values(self):
        args = ("term", "--kind", "fib", "--a", "1/2", "--b", "-3/2", "--n-range", "-4..8")
        record = run_json(*args, "--format", "json")
        proc = run_cli(*args, "--format", "csv")
        assert proc.returncode == 0
        rows = [line.split(",") for line in proc.stdout.decode().splitlines()]
        assert rows == [["n", "value"]] + [
            [str(r["n"]), r["value"]] for r in record["results"]
        ]
        assert [r["n"] for r in record["results"]] == list(range(-4, 9))


class TestMatrix:
    def test_entries_example(self):
        record = run_json("matrix", "--a", "2", "--b", "3", "--n", "1", "--show", "entries")
        assert record["result"]["entries"] == [["16/3", "4/3"], ["2", "4/3"]]

    def test_det_example(self):
        record = run_json("matrix", "--a", "2", "--b", "3", "--n", "2", "--show", "det")
        assert record["result"]["det"] == "1600/81"

    def test_identity_at_n0(self):
        record = run_json("matrix", "--a", "1", "--b", "1", "--n", "0", "--show", "entries")
        assert record["result"]["entries"] == [["1", "0"], ["0", "1"]]

    def test_closed_form_display(self):
        record = run_json("matrix", "--a", "2", "--b", "3", "--n", "2", "--show", "closed-form")
        cf = record["result"]["closed_form"]
        assert cf["parity"] == "even"
        assert (cf["scale_ab_pow"], cf["scale_abp4_pow"]) == (2, 1)
        assert cf["core"] == [["7", "2"], ["3", "1"]]
        assert cf["core_labels"][0] == ["q(3)", "q(2)"]

    def test_closed_form_needs_positive_n(self):
        proc = run_cli("matrix", "--a", "2", "--b", "3", "--n", "0", "--show", "closed-form")
        assert proc.returncode == 2

    def test_negative_power_of_singular_matrix_exits_3(self):
        proc = run_cli("matrix", "--a", "1", "--b", "-4", "--n", "-2", "--show", "entries")
        assert proc.returncode == 3

    def test_det_at_nonpositive_n(self):
        record = run_json("matrix", "--a", "2", "--b", "3", "--n", "-2", "--show", "det")
        assert record["result"]["det"] == "81/1600"
        record = run_json("matrix", "--a", "1", "--b", "-4", "--n", "0", "--show", "det")
        assert record["result"]["det"] == "1"
        proc = run_cli("matrix", "--a", "1", "--b", "-4", "--n", "-1", "--show", "det")
        assert proc.returncode == 3
        assert b"domain error" in proc.stderr

    def test_show_all_computes_one_power(self, monkeypatch):
        # the entries are the closed form materialized, and its core is one kernel power
        argv = ["matrix", "--a", "5/3", "--b", "-4/3", "--n", "9", "--show", "all"]
        assert call_counted(monkeypatch, genmatrix, "_kernel", argv) == 1

    def test_negative_power_entries(self):
        record = run_json("matrix", "--a", "2", "--b", "3", "--n", "-1", "--show", "entries")
        assert record["result"]["entries"] == [["3/10", "-3/10"], ["-9/20", "6/5"]]


class TestVerify:
    def test_cassini_grid_example(self):
        record = run_json(
            "verify", "--identity", "cassini-fib",
            "--a-set", "1,2", "--b-set", "1,3", "--n-range", "1..50",
        )
        report = record["reports"][0]
        assert (report["checked"], report["passed"]) == (200, 200)
        assert record["all_as_expected"] is True

    def test_erratum_signature_example(self):
        record = run_json(
            "verify", "--identity", "thm6-vi-printed",
            "--a-set", "2", "--b-set", "3", "--m-range", "0..4", "--n-range", "0..4",
        )
        report = record["reports"][0]
        assert report["failed"] > 0
        assert report["as_expected"] is True
        for ce in report["counterexamples"]:
            assert Fraction(ce["lhs"]) == -Fraction(ce["rhs"])

    def test_unknown_identity_exits_2(self):
        proc = run_cli("verify", "--identity", "no-such-identity")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--a-set", "--b-set", "--n-range", "--m-range"])
    def test_empty_flag_value_exits_2(self, flag):
        # an empty value is refused like "--a-set ,", not read as the default
        argv = ["verify", "--identity", "thm6-i", "--a-set", "1", "--b-set", "1"]
        for empty in ([f"{flag}="], [flag, ""]):
            code, out, err = main_output(argv + empty)
            assert (code, out) == (2, ""), empty
            assert err.startswith("error: "), empty

    def test_unexpected_outcome_exits_1(self, monkeypatch):
        # an evaluator off by one disagrees with its documented value at
        # every point, for an identity that holds and for each erratum entry
        for ident, ranges in (
            (IdentityId.CASSINI_FIB, ["--n-range", "1..3"]),
            (IdentityId.THM4_I_PRINTED, ["--n-range", "1..3"]),
            (IdentityId.THM6_VI_PRINTED, ["--n-range", "0..1", "--m-range", "0..1"]),
        ):
            idef = identities._CATALOG[ident]

            def off_by_one(*args, evaluate=idef.evaluate):
                lhs, rhs = evaluate(*args)
                return lhs + 1, rhs

            with monkeypatch.context() as patch:
                patch.setitem(identities._CATALOG, ident, idef._replace(evaluate=off_by_one))
                out = io.StringIO()
                argv = ["verify", "--identity", ident.value, "--a-set", "2", "--b-set", "3"]
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv + ranges) == 1, ident
            record = json.loads(out.getvalue())
            assert record["all_as_expected"] is False, ident
            assert record["reports"][0]["as_expected"] is False, ident

    @pytest.mark.parametrize(
        "argv, checked, failed",
        [
            (["thm4-i-printed", "--a-set", "2", "--b-set", "3", "--n-range", "2..2"], 1, 1),
            # q(3) = 0 at (1, -1), so the variant holds there
            (["thm4-i-printed", "--a-set", "1", "--b-set", "-1", "--n-range", "3..3"], 1, 0),
            (["thm4-i-printed", "--a-set", "1,2", "--b-set", "1", "--n-range", "2..2"], 2, 1),
            # lhs = rhs = 0: the sign flip leaves nothing to fail
            (
                ["thm6-vi-printed", "--a-set", "1", "--b-set", "-3",
                 "--n-range", "0..0", "--m-range", "1..1"],
                1, 0,
            ),
        ],
        ids=["thm4-at-2-3", "thm4-where-q-vanishes", "thm4-mixed-grid", "thm6-vi-at-zero"],
    )
    def test_erratum_points_off_the_default_grid_are_as_expected(self, argv, checked, failed):
        # each point is exactly the documented discrepancy, whatever the grid's shape
        record = run_json("verify", "--identity", *argv)
        report = record["reports"][0]
        assert (report["checked"], report["failed"]) == (checked, failed)
        assert report["as_expected"] is True
        assert record["all_as_expected"] is True

    def test_defective_cassini_variant_passes_where_a_equals_b(self):
        # the variant coincides with cassini-fib when a == b, so on an
        # all-a == b grid a pass everywhere is the expected outcome
        for a_set, b_set, n_range in (("1", "1", "1..20"), ("2", "2", "1..200")):
            proc = run_cli(
                "verify", "--identity", "thm4-i-printed",
                "--a-set", a_set, "--b-set", b_set, "--n-range", n_range,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            report = json.loads(proc.stdout)["reports"][0]
            assert report["failed"] == 0 and report["as_expected"] is True
            assert report["expected"] == "fails-for-some-odd-index"

    def test_single_identity_with_default_grid(self):
        record = run_json("verify", "--identity", "det-power")
        report = record["reports"][0]
        assert report["checked"] == 36 * 32
        assert report["failed"] == 0


class TestTable:
    def test_classical_fibonacci(self):
        record = run_json("table", "--a", "1", "--b", "1", "--n-range", "0..6", "--kinds", "fib")
        assert [row["fib"] for row in record["results"]] == ["0", "1", "1", "2", "3", "5", "8"]

    def test_negative_range(self):
        record = run_json("table", "--a", "2", "--b", "3", "--n-range", "-3..3", "--kinds", "fib")
        assert [row["fib"] for row in record["results"]] == ["7", "-2", "1", "0", "1", "2", "7"]

    def test_lucas_values(self):
        record = run_json("table", "--a", "2", "--b", "3", "--n-range", "0..5", "--kinds", "lucas")
        assert [row["lucas"] for row in record["results"]] == ["2", "2", "8", "18", "62", "142"]

    def test_csv_round_trip(self):
        args = ("table", "--a", "2", "--b", "3", "--n-range", "-2..4")
        record = run_json(*args)
        proc = run_cli(*args, "--format", "csv")
        assert proc.returncode == 0
        rows = [line.split(",") for line in proc.stdout.decode().splitlines()]
        assert rows == [["n", "fib", "lucas"]] + [
            [str(row["n"]), row["fib"], row["lucas"]] for row in record["results"]
        ]
        assert [row["n"] for row in record["results"]] == list(range(-2, 5))

    def test_abbreviated_flag_takes_a_negative_range(self):
        full = run_cli("table", "--a", "2", "--b", "3", "--n-range", "-3..3")
        for short_flag in (["--n-r", "-3..3"], ["--n-r=-3..3"]):
            short = run_cli("table", "--a", "2", "--b", "3", *short_flag)
            assert full.returncode == short.returncode == 0, short.stderr.decode()
            assert short.stdout == full.stdout

    def test_each_kind_is_walked_once(self, monkeypatch):
        # one forward walk to 200 per kind, not one walk per row
        argv = ["table", "--a", "2", "--b", "3", "--n-range", "-200..200"]
        assert call_counted(monkeypatch, sequences, "_coefficient", argv) <= 2 * 201

    def test_bad_kind_exits_2(self):
        proc = run_cli("table", "--a", "1", "--b", "1", "--n-range", "0..3", "--kinds", "fib,weird")
        assert proc.returncode == 2

    def test_cells_make_no_object_per_row(self, monkeypatch):
        # the cells come from the walk's int pairs: format_rational formats a and b,
        # and no Fraction is built per row (3.12+ negates through _from_coprime_ints)
        counted = [(cli, "format_rational"), (Fraction, "__new__")]
        if hasattr(Fraction, "_from_coprime_ints"):
            counted.append((Fraction, "_from_coprime_ints"))
        counts = {
            n_range: [
                call_counted(monkeypatch, owner, name,
                             ["table", "--a", "5/3", "--b", "-4/3", "--n-range", n_range])
                for owner, name in counted
            ]
            for n_range in ("-2..2", "-200..199")
        }
        assert counts["-2..2"] == counts["-200..199"]


def main_output(argv):
    """Run ``cli.main(argv)`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


#: One cheap, valid argv per command, flags spelled out, and the same with abbreviated flags.
COMMAND_ARGVS = {
    "term": (["--kind", "fib", "--a", "2", "--b", "3", "--n-range", "-3..3", "--method", "binet",
              "--format", "csv"],
             ["--ki", "fib", "--a", "2", "--b", "3", "--n-r", "-3..3", "--meth", "binet",
              "--fo", "csv"]),
    "matrix": (["--a", "2", "--b", "3", "--n", "-2", "--show", "det"],
               ["--a", "2", "--b", "3", "--n", "-2", "--sh", "det"]),
    "verify": (["--identity", "cassini-fib", "--a-set", "1,-2", "--b-set", "3", "--n-range", "1..4"],
               ["--ident", "cassini-fib", "--a-s", "1,-2", "--b-s", "3", "--n", "1..4"]),
    "table": (["--a", "2", "--b", "3", "--n-range", "-3..3", "--kinds", "fib", "--format", "csv"],
              ["--a", "2", "--b", "3", "--n-r", "-3..3", "--ki", "fib", "--fo", "csv"]),
}

#: Each command's help line, as ``biperiodic --help`` lists it.
COMMAND_HELP = {
    "term": "compute sequence terms",
    "matrix": "generating-matrix powers",
    "verify": "grid-verify identities",
    "table": "tabulate terms over an index range",
}


#: A valid table request, to which the usage-error rows below append.
TABLE = ["table", "--a", "2", "--b", "3", "--n-range", "0..3"]
FORMAT_XML = "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"


class TestParsing:
    """argparse's rules for every command: help, usage errors, abbreviated flags."""

    def test_top_level_help_lists_the_commands(self):
        for flag in ("--help", "-h"):
            code, out, err = main_output([flag])
            assert (code, err) == (0, "")
            assert out.startswith("usage: biperiodic")
            text = "".join(out.split())  # help lines may wrap anywhere, after a hyphen too
            for command, line in COMMAND_HELP.items():
                assert command in text and "".join(line.split()) in text, command

    @pytest.mark.parametrize("command", COMMAND_ARGVS)
    def test_command_help_lists_its_flags(self, command):
        code, out, err = main_output([command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: biperiodic")
        flags = [token for token in COMMAND_ARGVS[command][0] if token.startswith("--")]
        for flag in flags:
            assert flag in out, flag

    def test_help_runs_as_a_program(self):
        for argv in (["--help"], ["table", "--help"]):
            proc = run_cli(*argv)
            assert proc.returncode == 0 and proc.stderr == b""
            assert proc.stdout.startswith(b"usage: biperiodic")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["tabel", "--a", "2"],
             "argument command: invalid choice: 'tabel' (choose from 'term', 'matrix', 'verify', 'table')"),
            (["--a", "2", "table"], "the command (term, matrix, verify, table) must come before '--a'"),
            (["--a=2", "table"], "the command (term, matrix, verify, table) must come before '--a'"),
            ([*TABLE, "--method", "matrix"], "unrecognized arguments: --method matrix"),
            ([*TABLE, "--format", "xml"], FORMAT_XML),
            (["term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5", "--method", "exact"],
             "argument --method: invalid choice: 'exact' (choose from 'recurrence', 'matrix', 'binet')"),
            (["matrix", "--a", "2", "--b", "3", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["matrix", "--a", "2", "--b", "3"], "the following arguments are required: --n"),
            (["term", "--a", "2", "--b", "3", "--n", "5"], "the following arguments are required: --kind"),
            ([*TABLE, "extra"], "unrecognized arguments: extra"),
            (["table"], "the following arguments are required: --a, --b, --n-range"),
            ([*TABLE, "--kinds"], "argument --kinds: expected one argument"),
            (["table", "--a", "--b", "3"], "argument --a: expected one argument"),
            ([*TABLE, "--method=matrix"], "unrecognized arguments: --method=matrix"),
            ([*TABLE, "-5"], "unrecognized arguments: -5"),
            ([*TABLE, "--", "extra"], "unrecognized arguments: -- extra"),
            (["table", "--format", "xml", "--help"], FORMAT_XML),
        ],
        ids=["no-command", "unknown-command", "flag-before-command", "joined-flag-before-command",
             "other-commands-flag", "bad-format", "bad-method", "non-int-n", "missing-n",
             "missing-kind", "extra-positional", "missing-required", "missing-last-value",
             "flag-as-value", "joined-other-commands-flag", "stray-negative", "after-separator",
             "bad-value-before-help"],
    )
    def test_usage_errors_exit_2(self, argv, message):
        assert main_output(argv) == (2, "", f"error: {message}\n")

    def test_the_last_of_a_repeated_flag_wins(self):
        assert main_output([*TABLE, "--format", "csv", "--format", "json"]) == main_output(TABLE)

    @pytest.mark.parametrize("argv", [["table", "--a", "2", "--help"],
                                      ["verify", "--identity", "nope", "--he"],
                                      ["table", "-h", "--method", "matrix"]])
    def test_help_comes_before_missing_and_unknown_flags(self, argv):
        code, out, err = main_output(argv)
        assert (code, out, err) == main_output([argv[0], "--help"])
        assert code == 0 and out.startswith("usage: biperiodic")

    def test_usage_error_as_a_program(self):
        proc = run_cli("tabel", "--a", "2")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: ")

    @pytest.mark.parametrize("command", COMMAND_ARGVS)
    def test_abbreviated_flags(self, command):
        full, short = COMMAND_ARGVS[command]
        expected = main_output([command, *full])
        assert expected[0] == 0 and expected[1]
        assert main_output([command, *short]) == expected
        joined = [f"{flag}={value}" for flag, value in zip(short[::2], short[1::2])]
        assert main_output([command, *joined]) == expected

    @pytest.mark.parametrize("command", COMMAND_ARGVS)
    def test_only_help_builds_a_parser(self, monkeypatch, command):
        # a request is read from the command table; argparse renders help only
        argv = [command, *COMMAND_ARGVS[command][0]]
        for name in ("__init__", "add_argument"):
            assert call_counted(monkeypatch, argparse.ArgumentParser, name, argv) == 0
        help_argv = [command, "--help"]
        assert call_counted(monkeypatch, argparse.ArgumentParser, "__init__", help_argv) == 1

    @pytest.mark.parametrize("argv, imported", [(["table", *COMMAND_ARGVS["table"][0]], False),
                                                (["table", "--help"], True)])
    def test_argparse_is_imported_for_help_only(self, argv, imported):
        script = ("import contextlib, io, sys\n"
                  "from biperiodic import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert cli.main(sys.argv[1:]) == 0\n"
                  "print('argparse' in sys.modules)\n")
        proc = run_python("-c", script, *argv)
        assert (proc.returncode, proc.stdout.decode()) == (0, f"{imported}\n"), proc.stderr.decode()


def argparse_reading(argv):
    """What argparse makes of ``argv`` under ``cli.build_parser``: the values, its error or "help"."""
    parser = cli.build_parser(argv[0])

    def error(message):
        raise cli.UsageError(message)

    parser.error = error
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parser.parse_args(argv))
    except cli.UsageError as exc:
        return str(exc)
    except SystemExit:
        return "help"


def parse_reading(argv):
    try:
        args = cli._parse(argv)
    except cli.UsageError as exc:
        return str(exc)
    return "help" if args is None else vars(args)


def unquoted_choices(reading):
    """``reading`` with the choices of an invalid-choice error unquoted.

    argparse quotes the choices it lists on 3.10-3.13.0 but not on later 3.13
    releases; ``_parse`` quotes them on every version.
    """
    if isinstance(reading, str):
        return re.sub(r"\(choose from .*\)$", lambda m: m[0].replace("'", ""), reading)
    return reading


#: Values for the flags below: good and bad choices, ints, ranges, and "-3",
#: a dash value that argparse also reads as a value after a bare flag.
FLAG_VALUES = ["fib", "lucas", "csv", "xml", "binet", "det", "all", "2", "x", "", "0..3", "-3"]
#: Tokens that stand alone: help, unknown flags and stray arguments.
LONE_TOKENS = ["-h", "--help", "--he", "--he=1", "--zzz", "--method=matrix", "extra", "-x", "-5"]


@st.composite
def flag_argvs(draw):
    """A command and flags of it, whole or abbreviated, joined to a value or apart, and strays."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = list(cli._COMMANDS[command][2])
    argv = [command]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            argv.append(draw(st.sampled_from(LONE_TOKENS)))
            continue
        flag = draw(st.sampled_from(flags))
        flag = flag[:draw(st.integers(3, len(flag)))]
        value = draw(st.sampled_from(FLAG_VALUES))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(deadline=None, max_examples=400)
@given(flag_argvs())
def test_parse_reads_argv_as_argparse_does(argv):
    # argparse, kept as the reference, on inputs where no value after a bare
    # flag starts with a dash it would take for an option
    assert unquoted_choices(parse_reading(argv)) == unquoted_choices(argparse_reading(argv))


def test_the_command_table_uses_only_the_keys_parse_reads():
    keys = {key for _, _, flags in cli._COMMANDS.values() for spec in flags.values() for key in spec}
    assert keys <= {"required", "choices", "default", "type"}


#: Points of the differential test below: integral and fractional terms, both signs.
ROW_POINTS = [("2", "3"), ("1/2", "-3"), ("5/3", "-2/3"), ("-1", "1"), ("-3/2", "1/2")]


def _cell(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def row_commands(draw):
    """A ``table`` or ``term`` argv and its stdout, rendered from one dict per row.

    The expected text comes from ``json.dumps(record, indent=2)`` and
    ``csv.writer``, over values of the conftest oracles.
    """
    a, b = draw(st.sampled_from(ROW_POINTS))
    lo = draw(st.integers(-25, 25))
    hi = lo + draw(st.integers(0, 30)) * draw(st.booleans())  # one-row ranges often
    fmt = draw(st.sampled_from(("json", "csv")))
    oracles = {"fib": oracle_fib_table(Fraction(a), Fraction(b), lo, hi),
               "lucas": oracle_lucas_table(Fraction(a), Fraction(b), lo, hi)}
    if draw(st.booleans()):
        given_kinds = draw(st.lists(st.sampled_from(("fib", "lucas")), min_size=1, max_size=3))
        argv = ["table", "--a", a, "--b", b, "--n-range", f"{lo}..{hi}",
                "--kinds", ",".join(given_kinds)]
        kinds = list(dict.fromkeys(given_kinds))
        params = {"a": a, "b": b, "n_range": f"{lo}..{hi}", "kinds": kinds}
        columns = {kind: oracles[kind] for kind in kinds}
    else:
        kind = draw(st.sampled_from(("fib", "lucas")))
        method = draw(st.sampled_from(("recurrence", "matrix", "binet")))
        single = lo == hi and draw(st.booleans())
        index = ["--n", str(lo)] if single else ["--n-range", f"{lo}..{hi}"]
        argv = ["term", "--kind", kind, "--a", a, "--b", b, *index, "--method", method]
        params = {"kind": kind, "a": a, "b": b, "n": lo if single else None,
                  "n_range": None if single else f"{lo}..{hi}", "method": method}
        columns = {"value": oracles[kind]}
    rows = [{"n": n, **{name: _cell(t[n]) for name, t in columns.items()}}
            for n in range(lo, hi + 1)]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", *columns])
        writer.writerows([row.values() for row in rows])
        expected = out.getvalue()
    else:
        record = {"schema_version": "1", "command": argv[0], "params": params, "results": rows}
        expected = json.dumps(record, indent=2) + "\n"
    if fmt != "json" or draw(st.booleans()):
        argv += ["--format", fmt]
    return argv, expected


@settings(deadline=None, max_examples=150)
@given(row_commands())
def test_rows_render_as_json_dumps_and_csv_writer_would(command):
    argv, expected = command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == expected


@st.composite
def index_ranges(draw):
    """lo..hi wholly below 0, wholly above 0, across 0, or a single index."""
    shape = draw(st.sampled_from(("below", "above", "across", "single")))
    if shape == "single":
        lo = draw(st.integers(-40, 40))
        return lo, lo
    if shape == "across":
        return draw(st.integers(-30, -1)), draw(st.integers(1, 30))
    width = draw(st.integers(1, 30))
    if shape == "below":
        hi = draw(st.integers(-40, -1))
        return hi - width, hi
    lo = draw(st.integers(1, 40))
    return lo, lo + width


def output_columns(out: str, fmt: str) -> dict:
    """Column name -> its cells as text, from a term or table output."""
    if fmt == "json":
        rows = json.loads(out)["results"]
        return {name: [str(row[name]) for row in rows] for name in rows[0]}
    header, *lines = [line.split(",") for line in out.splitlines()]
    return dict(zip(header, map(list, zip(*lines))))


@settings(deadline=None, max_examples=120)
@given(
    # random points with either sign of a, points on ab = -4, and (2, 1/4),
    # where a = 2 shares the prime 2 with s = 2
    point=st.one_of(pairs, st.just((Fraction(2), Fraction(1, 4)))),
    index_range=index_ranges(),
    fmt=st.sampled_from(("json", "csv")),
)
def test_walk_cells_are_format_rational_of_the_oracle(point, index_range, fmt):
    (a, b), (lo, hi) = point, index_range
    oracles = {"fib": oracle_fib_table(a, b, lo, hi), "lucas": oracle_lucas_table(a, b, lo, hi)}
    expected = {kind: [format_rational(t[n]) for n in range(lo, hi + 1)] for kind, t in oracles.items()}
    point_flags = ["--a", format_rational(a), "--b", format_rational(b), "--n-range", f"{lo}..{hi}"]
    code, out, _ = main_output(["table", *point_flags, "--format", fmt])
    assert code == 0
    table = output_columns(out, fmt)
    assert table["n"] == [str(n) for n in range(lo, hi + 1)]
    assert {kind: table[kind] for kind in oracles} == expected
    for kind in oracles:
        code, out, _ = main_output(["term", "--kind", kind, *point_flags, "--method", "recurrence",
                                    "--format", fmt])
        assert code == 0
        assert output_columns(out, fmt)["value"] == expected[kind]
        # the pairs reach the cells with no Fraction to normalize them
        for num, den in sequences.term_pairs(SeqParams(a, b), SequenceKind(kind), lo, hi):
            assert type(num) is type(den) is int
            assert den > 0 and math.gcd(num, den) == 1, (num, den)


def test_byte_determinism_of_cheap_commands():
    commands = [
        ("term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5", "--method", "matrix"),
        ("matrix", "--a", "2", "--b", "3", "--n", "2", "--show", "all"),
        ("table", "--a", "2", "--b", "3", "--n-range", "-3..3", "--kinds", "fib"),
        ("verify", "--identity", "cassini-fib", "--a-set", "1,2", "--b-set", "1,3", "--n-range", "1..50"),
    ]
    for command in commands:
        first = run_cli(*command)
        second = run_cli(*command)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_terms_past_the_interpreter_digit_limit_print():
    # 10^4-th and 2*10^4-th powers have far more than 4300 decimal digits
    matrix = run_json(
        "term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "10000", "--method", "matrix"
    )
    recurrence = run_json(
        "term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "10000", "--method", "recurrence"
    )
    value = matrix["results"][0]["value"]
    assert len(value) > 4300
    assert value == recurrence["results"][0]["value"]
    det = run_json("matrix", "--a", "2", "--b", "3", "--n", "20000", "--show", "det")
    # (40/9)^20000; int() of these strings would trip the limit in this process
    num, den = det["result"]["det"].split("/")
    assert num.isdigit() and den.isdigit()
    assert len(num) == int(20000 * math.log10(40)) + 1
    assert len(den) == int(20000 * math.log10(9)) + 1
