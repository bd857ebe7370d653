"""Command line: ``skelpot run <scenario> [--out DIR]`` and
``skelpot list-scenarios``.

Exit codes: 0 success, 2 validation error, 3 mathematical infeasibility,
1 internal error.  Failures put a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import sys

from . import jsonio, scenarios
from .jsonio import SchemaError
from .potential import EnvelopeInfeasible, MassMismatch, PotentialError
from .testideals import TestIdealError
from .toric import ComplexInvalid, ToricError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

_ENV_CAP = "SKELPOT_MAX_LP_VARS"


class _CliValidation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse is chatty on error; keep the exit-code contract and put the
    # message on stderr as JSON instead.
    def error(self, message):
        raise _CliValidation(message)


def _emit_error(code: int, kind: str, message: str) -> int:
    payload = {"error": {"exit_code": code, "kind": kind, "message": message}}
    sys.stderr.write(jsonio.dumps(payload))
    return code


def _lp_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return scenarios.DEFAULT_MAX_LP_VARS
    try:
        cap = int(raw)
    except ValueError:
        raise _CliValidation(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise _CliValidation(f"{_ENV_CAP} must be positive, got {cap}")
    return cap


def _load_scenario(spec: str) -> dict:
    path = pathlib.Path(spec)
    if path.exists():
        return jsonio.loads(path.read_text(encoding="utf-8"))
    if "/" not in spec and spec in scenarios.builtin_names():
        return scenarios.load_builtin(spec)
    raise _CliValidation(f"{spec!r} is neither a file nor a built-in scenario")


def _cmd_run(args) -> int:
    bbox = jsonio.rat_from_str(args.bbox)
    if bbox <= 0:
        raise _CliValidation(f"--bbox must be positive, got {args.bbox!r}")
    scenario = _load_scenario(args.scenario)
    out = scenarios.execute(scenario, bbox=bbox, max_lp_vars=_lp_cap())
    text = jsonio.dumps(out.result)  # a float fails here, before any write
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("json", "both"):
        target = outdir / "result.json"
        target.write_text(text, encoding="utf-8")
        written.append(target)
    if args.format in ("svg", "both"):
        for name in sorted(out.figures):
            target = outdir / name
            target.write_text(out.figures[name], encoding="utf-8")
            written.append(target)
    for target in written:
        print(target)
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name in scenarios.builtin_names():
        kind = scenarios.load_builtin(name).get("kind", "?")
        print(f"{name}\t{kind}")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: every parse_args call returns a
    fresh namespace, so in-process main calls can share it."""
    parser = _Parser(prog="skelpot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario file or built-in")
    run.add_argument("scenario", help="path to a scenario JSON, or a built-in name")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument(
        "--bbox",
        default="3",
        help="rational half-width of the SVG clipping box (default: 3)",
    )
    run.add_argument(
        "--format", choices=("json", "svg", "both"), default="both"
    )
    run.set_defaults(fn=_cmd_run)
    ls = sub.add_parser("list-scenarios", help="list built-in scenarios")
    ls.set_defaults(fn=_cmd_list)
    return parser


# Each failure's exit code and kind, first match wins: a subclass comes
# before its base (ComplexInvalid before ToricError; EnvelopeInfeasible and
# MassMismatch before PotentialError).
_FAILURES = (
    ((_CliValidation, SchemaError, ComplexInvalid), EXIT_VALIDATION, "validation"),
    ((EnvelopeInfeasible, MassMismatch, ToricError, TestIdealError), EXIT_INFEASIBLE, "infeasible"),
    ((OSError,), EXIT_VALIDATION, "validation"),
    ((PotentialError,), EXIT_INTERNAL, "internal"),
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except Exception as ex:  # noqa: BLE001 - the contract wants exit 1 + JSON
        for classes, code, kind in _FAILURES:
            if isinstance(ex, classes):
                return _emit_error(code, kind, str(ex))
        return _emit_error(EXIT_INTERNAL, "internal", f"{type(ex).__name__}: {ex}")


if __name__ == "__main__":
    sys.exit(main())
