"""Command-line interface: term computation, matrix powers, identity checks, tables.

Output contract:

* JSON with a top-level ``schema_version: "1"``; every rational is an
  exact ``num/den`` string (``/den`` dropped when the denominator is 1),
  never a float. Output is byte-deterministic for identical inputs.
* CSV (term and table only) carries the same values with a header row.
* term and table map one ``str.format`` template per row over columns of
  cells, indented in JSON as ``json.dumps(indent=2)`` indents them. No cell
  needs escaping: the keys are n, value, fib and lucas; the cells are ints
  and ``num/den`` strings (``exact._format_pair``, straight from the walk's
  integer pairs for the recurrence), made of ``-``, digits and ``/`` only.
* Exit codes: 0 success, 1 identity-verification mismatch, 2 usage error,
  3 domain error (``matrix --n`` below 0 where ab = -4, since G is
  singular there).

Arguments are read by ``_parse`` straight from the ``_COMMANDS`` table,
under argparse's rules and with its error texts. argparse itself is
imported only to render ``-h``/``--help``, from the same table.

A handler imports the engines it runs when it runs: ``genmatrix`` for
``matrix`` and ``term --method matrix``, ``binet`` for ``--method binet``,
the ``identities`` catalog for ``verify``. So a ``table`` process loads
``exact`` and ``sequences`` only.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import starmap
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .exact import Mat2, SingularMatrixError, _format_pair, format_rational, parse_int, parse_rational
from .sequences import SeqParams, SequenceKind, term_pairs

if TYPE_CHECKING:
    from .genmatrix import ClosedForm
    from .identities import IdentityReport

SCHEMA_VERSION = "1"
MAX_COUNTEREXAMPLES_SHOWN = 25


class UsageError(Exception):
    pass


def _parse_rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"invalid range {text!r}: expected LO..HI")
    try:
        lo_i, hi_i = parse_int(lo), parse_int(hi)
    except ValueError:
        raise UsageError(f"invalid range {text!r}: endpoints must be integers") from None
    if lo_i > hi_i:
        raise UsageError(f"invalid range {text!r}: lower end exceeds upper end")
    return lo_i, hi_i


def _parse_rational_set(text: str) -> tuple[Fraction, ...]:
    items = text.split(",")
    if not any(map(str.strip, items)):
        raise UsageError("empty parameter set")
    if not all(map(str.strip, items)):
        raise UsageError(f"invalid parameter set {text!r}: empty item")
    return tuple(map(_parse_rational_arg, items))


def _params(args) -> SeqParams:
    a = _parse_rational_arg(args.a)
    b = _parse_rational_arg(args.b)
    try:
        return SeqParams(a, b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _mat_strings(m: Mat2) -> list[list[str]]:
    return [
        [format_rational(m.e11), format_rational(m.e12)],
        [format_rational(m.e21), format_rational(m.e22)],
    ]


def _value_json(v):
    if isinstance(v, Mat2):
        return _mat_strings(v)
    return format_rational(v)


def _emit_json(record, columns=None) -> str:
    """``json.dumps(record, indent=2)``, ``columns`` appended as its last key "results"."""
    text = json.dumps(record, indent=2)
    if columns:
        fields = ",\n".join(f'      "{c}": ' + ("{}" if c == "n" else '"{}"') for c in columns)
        rows = ",\n".join(map(("    {{\n" + fields + "\n    }}").format, *columns.values()))
        text = f'{text[:-2]},\n  "results": [\n{rows}\n  ]\n}}'  # reopen the final "\n}"
    return text + "\n"


def _emit_rows(args, params: dict, columns: dict) -> str:
    """``columns`` (name -> cells, "n" first) as rows in ``args.format``."""
    if args.format == "csv":
        line = ",".join(["{}"] * len(columns)) + "\n"
        return ",".join(columns) + "\n" + "".join(map(line.format, *columns.values()))
    record = {"schema_version": SCHEMA_VERSION, "command": args.command, "params": params}
    return _emit_json(record, columns)


def _term_cells(p: SeqParams, kind: SequenceKind, method: str, lo: int, hi: int) -> list[str]:
    """The cells of t(lo..hi): from the pairs of one forward walk, or one Fraction per index."""
    if method == "recurrence":
        return list(starmap(_format_pair, term_pairs(p, kind, lo, hi)))
    if method == "matrix":
        from .genmatrix import term_fast

        return [format_rational(term_fast(p, kind, n)) for n in range(lo, hi + 1)]
    from .binet import binet_fib, binet_lucas

    closed_form = binet_fib if kind is SequenceKind.FIBONACCI else binet_lucas
    return [format_rational(closed_form(p, n)) for n in range(lo, hi + 1)]


def cmd_term(args) -> tuple[str, int]:
    p = _params(args)
    if (args.n is None) == (args.n_range is None):
        raise UsageError("exactly one of --n and --n-range is required")
    if args.n is not None:
        lo = hi = args.n
        range_echo = None
    else:
        lo, hi = _parse_range(args.n_range)
        range_echo = f"{lo}..{hi}"
    cells = _term_cells(p, SequenceKind(args.kind), args.method, lo, hi)
    columns = {"n": range(lo, hi + 1), "value": cells}
    params = {
        "kind": args.kind,
        "a": format_rational(p.a),
        "b": format_rational(p.b),
        "n": args.n,
        "n_range": range_echo,
        "method": args.method,
    }
    return _emit_rows(args, params, columns), 0


def _closed_form_json(cf: ClosedForm):
    n = cf.n
    symbol = "q" if cf.kind is SequenceKind.FIBONACCI else "l"
    labels = [
        [f"{symbol}({n + 1})", f"{symbol}({n})"],
        [f"(b/a)*{symbol}({n})", f"{symbol}({n - 1})"],
    ]
    return {
        "parity": cf.parity,
        "scale_ab_pow": cf.scale_ab_pow,
        "scale_abp4_pow": cf.scale_abp4_pow,
        "scale": format_rational(cf.scale()),
        "core_labels": labels,
        "core": _mat_strings(cf.core),
    }


def cmd_matrix(args) -> tuple[str, int]:
    from .genmatrix import det_power, matrix_power, power_closed_form

    p = _params(args)
    n, show = args.n, args.show
    if show == "closed-form" and n < 1:
        raise UsageError("--show closed-form requires --n >= 1")
    # when both are shown, the entries come from the closed form's one power
    cf = power_closed_form(p, n) if show in ("closed-form", "all") and n >= 1 else None
    result = {}
    if show in ("entries", "all"):
        result["entries"] = _mat_strings(matrix_power(p, n) if cf is None else cf.materialize())
    if show in ("det", "all"):
        result["det"] = format_rational(det_power(p, n))
    if cf is not None:
        result["closed_form"] = _closed_form_json(cf)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "matrix",
        "params": {
            "a": format_rational(p.a),
            "b": format_rational(p.b),
            "n": n,
            "show": show,
        },
        "result": result,
    }
    return _emit_json(record), 0


def _report_json(report: IdentityReport):
    from .identities import expectation, report_matches_expectation

    shown = report.counterexamples[:MAX_COUNTEREXAMPLES_SHOWN]
    return {
        "identity": report.identity.value,
        "a_values": [format_rational(a) for a in report.a_values],
        "b_values": [format_rational(b) for b in report.b_values],
        "n_range": f"{report.n_range[0]}..{report.n_range[1]}",
        "m_range": None
        if report.m_range is None
        else f"{report.m_range[0]}..{report.m_range[1]}",
        "checked": report.checked,
        "passed": report.passed,
        "failed": report.failed,
        "expected": expectation(report.identity).value,
        "as_expected": report_matches_expectation(report),
        "excluded": [
            {"a": format_rational(e.a), "b": format_rational(e.b), "reason": e.reason}
            for e in report.excluded
        ],
        "counterexamples_total": len(report.counterexamples),
        "counterexamples": [
            {
                "a": format_rational(ce.a),
                "b": format_rational(ce.b),
                "indices": list(ce.indices),
                "lhs": _value_json(ce.lhs),
                "rhs": _value_json(ce.rhs),
            }
            for ce in shown
        ],
    }


def cmd_verify(args) -> tuple[str, int]:
    from .identities import (
        DEFAULT_RANGES,
        STANDARD_VALUES,
        IdentityId,
        report_matches_expectation,
        verify_grid,
    )

    if args.identity == "all":
        idents = list(IdentityId)
    else:
        try:
            idents = [IdentityId(args.identity)]
        except ValueError:
            known = ", ".join(i.value for i in IdentityId)
            raise UsageError(
                f"unknown identity {args.identity!r}; expected 'all' or one of: {known}"
            ) from None
    a_vals = STANDARD_VALUES if args.a_set is None else _parse_rational_set(args.a_set)
    b_vals = STANDARD_VALUES if args.b_set is None else _parse_rational_set(args.b_set)
    if any(v == 0 for v in a_vals + b_vals):
        raise UsageError("sequence parameters must be nonzero")
    n_override = None if args.n_range is None else _parse_range(args.n_range)
    m_override = None if args.m_range is None else _parse_range(args.m_range)

    reports = []
    for ident in idents:
        n_default, m_default = DEFAULT_RANGES[ident]
        report = verify_grid(
            ident,
            a_vals,
            b_vals,
            n_range=n_override or n_default,
            m_range=m_override or m_default,
        )
        reports.append(report)
    all_ok = all(report_matches_expectation(r) for r in reports)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": {
            "identity": args.identity,
            "a_values": [format_rational(a) for a in a_vals],
            "b_values": [format_rational(b) for b in b_vals],
        },
        "all_as_expected": all_ok,
        "reports": [_report_json(r) for r in reports],
    }
    return _emit_json(record), 0 if all_ok else 1


def cmd_table(args) -> tuple[str, int]:
    p = _params(args)
    lo, hi = _parse_range(args.n_range)
    kinds = []
    for item in args.kinds.split(","):
        item = item.strip()
        if item not in ("fib", "lucas"):
            raise UsageError(f"invalid kind {item!r}: expected fib or lucas")
        if item not in kinds:
            kinds.append(item)
    columns = {"n": range(lo, hi + 1)}
    for kind in kinds:
        columns[kind] = _term_cells(p, SequenceKind(kind), "recurrence", lo, hi)
    params = {
        "a": format_rational(p.a),
        "b": format_rational(p.b),
        "n_range": f"{lo}..{hi}",
        "kinds": kinds,
    }
    return _emit_rows(args, params, columns), 0


_AB_FLAGS = {"--a": {"required": True}, "--b": {"required": True}}
_FORMAT_FLAG = {"--format": {"choices": ("json", "csv"), "default": "json"}}

#: Each command: its handler, its help line and its flags, as add_argument keywords.
#: ``_parse`` reads required, choices, default and type, the only keys in use.
_COMMANDS = {
    "term": (cmd_term, "compute sequence terms", {
        "--kind": {"choices": ("fib", "lucas"), "required": True},
        **_AB_FLAGS,
        "--n": {"type": int},
        "--n-range": {},
        "--method": {"choices": ("recurrence", "matrix", "binet"), "default": "recurrence"},
        **_FORMAT_FLAG,
    }),
    "matrix": (cmd_matrix, "generating-matrix powers", {
        **_AB_FLAGS,
        "--n": {"type": int, "required": True},
        "--show": {"choices": ("entries", "closed-form", "det", "all"), "default": "entries"},
    }),
    "verify": (cmd_verify, "grid-verify identities", {
        "--identity": {"default": "all"},
        "--a-set": {},
        "--b-set": {},
        "--n-range": {},
        "--m-range": {},
    }),
    "table": (cmd_table, "tabulate terms over an index range", {
        **_AB_FLAGS,
        "--n-range": {"required": True},
        "--kinds": {"default": "fib,lucas"},
        **_FORMAT_FLAG,
    }),
}


def build_parser(command):
    """The help parser of one call: every command name, and the flags of ``command`` only."""
    import argparse

    parser = argparse.ArgumentParser(prog="biperiodic", description=__doc__.splitlines()[0])
    listing = "; ".join(f"{name}: {line}" for name, (_, line, _) in _COMMANDS.items())
    parser.add_argument("command", choices=_COMMANDS, help=listing)
    flags = _COMMANDS[command][2] if command in _COMMANDS else {}
    for flag, kwargs in flags.items():
        parser.add_argument(flag, **kwargs)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The values of ``argv``'s command and flags, read from ``_COMMANDS``; None for help.

    The command comes first. A flag matches exactly, else as the one flag it
    is a prefix of, and takes "--flag value" or "--flag=value"; every flag but
    --help takes a value, so a value may start with one dash (-1/2, -3..3).
    The last of a repeated flag wins. Errors are argparse's, in its order: a
    bad or missing value where it stands, missing flags, unrecognized ones.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    first = argv[0]
    if first == "-h" or (len(first) > 2 and "--help".startswith(first)):
        return None
    if first.startswith("-"):
        flag = first.partition("=")[0]
        raise UsageError(f"the command ({', '.join(_COMMANDS)}) must come before {flag!r}")
    if first not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument command: invalid choice: {first!r} (choose from {choices})")
    flags = _COMMANDS[first][2]
    names = ("--help", *flags)
    values, extras = {}, []
    tokens = iter(argv[1:])
    if argv[1:2] == ["--"]:  # argparse's command positional takes a "--" right after it
        extras, tokens = argv[2:], iter(())
    for token in tokens:
        if token == "-h":
            return None
        if token == "--":  # what follows is positional
            extras += [token, *tokens]
            break
        name, joined, value = token.partition("=")
        matches = [name] if name in names else [f for f in names if f.startswith(name)]
        if not token.startswith("--") or not matches:
            extras.append(token)
            continue
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        flag = matches[0]
        if flag == "--help":
            if joined:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            return None
        if not joined:
            value = next(tokens, "--")  # none left: missing, as when a flag follows
            if value.startswith("--"):
                raise UsageError(f"argument {flag}: expected one argument")
        spec = flags[flag]
        if spec.get("type") is int:  # argparse's type for help; read here by the one integer grammar
            try:
                value = parse_int(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        if value not in spec.get("choices", (value,)):
            choices = ", ".join(map(repr, spec["choices"]))
            raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[flag] = value
    missing = [f for f, spec in flags.items() if spec.get("required") and f not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    dests = {f[2:].replace("-", "_"): values.get(f, spec.get("default"))
             for f, spec in flags.items()}
    return SimpleNamespace(command=first, **dests)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args is None:
            build_parser(argv[0]).print_help()
            return 0
        output, code = _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return code


def entrypoint() -> None:
    # A term of any size prints. In-process callers of main() keep the
    # interpreter's int->str digit limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
