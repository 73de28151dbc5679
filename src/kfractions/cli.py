"""Experiment runner.

Each subcommand runs one suite of `verify.SUITES`; its flags come from the
suite's signature (parameter `n_specs` is `--n-specs`, with its default and
type; tuples take comma-separated ints) and its help is the first line of the
suite's docstring.  Global flags, before or after the subcommand: --seed,
--out (CSV path), --json (mirror) and --config, a flat key=value file whose
keys name global or subcommand options; flags override it, and an unknown key
or a mistyped value is a configuration error.  `equidist` takes the full sets
X_N = [0, N]; with --density-exponent e > 0 it draws X_N of size
ceil(N^(1-e)) instead.  No environment variables are consulted.  The CLI
times nothing and writes no record field itself: each suite returns its
records, with the resolved options as params and its own runtime.  Records
append to a CSV (fixed column order, 17-significant-digit floats) and
optionally mirror to JSON.  Exit codes: 0 all assertions passed, 1 at least
one assertion failed, 2 usage or configuration error, 3 an internal check
inside the suite failed (an ArithmeticError: the message goes to stderr and
no record is written).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable, NamedTuple

from . import verify
from .records import write_csv, write_json

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _Option(NamedTuple):
    parse: Callable[[str], Any]
    default: Any
    help: str = ""


_GLOBALS = {
    "seed": _Option(int, 7, "64-bit master seed"),
    "out": _Option(str, "kfractions_records.csv", "CSV record file, appended"),
    "json": _Option(str, None, "optional JSON mirror"),
}


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _suite_options(fn: Callable) -> dict[str, _Option]:
    """The options of a suite: every parameter of its signature but the seed."""
    out = {}
    for param in inspect.signature(fn).parameters.values():
        if param.name == "seed":
            continue
        default = param.default
        parse = _parse_ints if isinstance(default, tuple) else type(default)
        out[param.name] = _Option(parse, default)
    return out


def _add_options(parser: argparse.ArgumentParser, options: dict[str, _Option]) -> None:
    """Flags default to SUPPRESS, so the parsed namespace holds only the given ones."""
    for name, opt in options.items():
        flag = "--" + name.replace("_", "-")
        shown = ",".join(map(str, opt.default)) if isinstance(opt.default, tuple) else opt.default
        text = f"{opt.help} (default {shown})".lstrip()
        parser.add_argument(flag, type=opt.parse, default=argparse.SUPPRESS, help=text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key=value config file; flags override it")
    _add_options(common, _GLOBALS)
    parser = argparse.ArgumentParser(prog="kfractions", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in verify.SUITES.items():
        doc = inspect.getdoc(fn)
        p = sub.add_parser(name, help=doc.splitlines()[0], description=doc, parents=[common])
        _add_options(p, _suite_options(fn))
    return parser


def _resolve(argv: list[str]) -> tuple[str, dict[str, Any]]:
    """The chosen subcommand and every option value: flag over config over default.

    Raises SystemExit on a usage error and ValueError or OSError on a
    configuration error.
    """
    given = vars(_build_parser().parse_args(argv))
    name = given.pop("subcommand")
    options = {**_GLOBALS, **_suite_options(verify.SUITES[name])}
    values = {key: opt.default for key, opt in options.items()}
    if "config" in given:
        for key, raw in _parse_config_file(given.pop("config")).items():
            dest = key.replace("-", "_")
            if dest not in options:
                raise ValueError(f"unknown key {key!r}: not an option of {name} or a global option")
            try:
                values[dest] = options[dest].parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from None
    values.update(given)
    return name, values


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, values = _resolve(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out, json_path = values.pop("out"), values.pop("json")

    # looked up at call time, so a wrapper installed on the verify module is the one called
    suite = getattr(verify, verify.SUITES[command].__name__)
    try:
        result = suite(**values)
    except ValueError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal check failed in {command}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    records = result if isinstance(result, list) else [result]

    write_csv(out, records)
    if json_path:
        write_json(json_path, records)

    failed = []
    for rec in records:
        for name, outcome in sorted(rec.assertions.items()):
            tag = "PASS" if outcome else "FAIL"
            print(f"[{tag}] {rec.subcommand}: {name}")
            if not outcome:
                failed.append((rec.subcommand, name))
        for name, val in sorted(rec.values.items()):
            print(f"       {rec.subcommand}: {name} = {val:.6g}")
    if failed:
        print(f"{len(failed)} assertion(s) failed", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
