"""Command line front end.

    everettsim superdense --p 0 --q 1 [--trace] [--json]
    everettsim teleport --alpha 0.6,0 --beta 0,0.8 [--trace] [--json]
    everettsim run <file.ecirc> [--json]
    everettsim render <file.ecirc>
    everettsim verify

Exit codes: 0 success, 1 failed assertions or a protocol, locality or state
error while running, 2 usage errors, non-finite amplitudes, unreadable,
non-UTF-8 or unparseable files. Every error is one line on stderr. The
environment variable EVERETT_TOL (a decimal literal in (0, 1), default 1e-12
for protocol state checks and 1e-10 for circuit assertions) overrides the
comparison tolerance; `verify` always runs at its pinned tolerances. Trace line and JSON record
layouts are documented in `everettsim.reports`.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

from . import reports, verify
from .circuit import CircuitError, CircuitParseError, exec_circuit, parse_circuit
from .protocols import ProtocolError, derive_decode_table, run_superdense, run_teleport
from .render import render_ascii
from .state import DEFAULT_TOL, StateError


def _bit(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"expected 0 or 1, got {text!r}")
    return int(text)


def _amplitude(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric amplitude {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite amplitude {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="everettsim",
        description="Unitary-only superdense coding and teleportation simulator.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sd = sub.add_parser("superdense", help="encode two bits, move one qubit, read the pointer")
    p_sd.add_argument("--p", type=_bit, required=True, help="first bit")
    p_sd.add_argument("--q", type=_bit, required=True, help="second bit")
    p_sd.add_argument("--trace", action="store_true", help="include the event trace")
    p_sd.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_tp = sub.add_parser("teleport", help="teleport alpha|0> + beta|1> from Alice to Bob")
    p_tp.add_argument("--alpha", type=_amplitude, required=True, metavar="RE,IM")
    p_tp.add_argument("--beta", type=_amplitude, required=True, metavar="RE,IM")
    p_tp.add_argument("--trace", action="store_true", help="include the event trace")
    p_tp.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_run = sub.add_parser("run", help="execute a .ecirc circuit file")
    p_run.add_argument("file", help="circuit file path")
    p_run.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_render = sub.add_parser("render", help="draw a .ecirc circuit file as ASCII")
    p_render.add_argument("file", help="circuit file path")

    sub.add_parser("verify", help="run the full verification suite")
    return parser


def _tolerance(default: float) -> float:
    raw = os.environ.get("EVERETT_TOL")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        print(f"everettsim: bad EVERETT_TOL {raw!r}", file=sys.stderr)
        raise SystemExit(2) from None
    # at 1 or above, equal_up_to_phase accepts any two nonzero states and
    # schmidt_factor reports rank 0, so every check would be switched off
    if not 0 < value < 1:
        print(f"everettsim: EVERETT_TOL must lie in (0, 1), got {raw!r}", file=sys.stderr)
        raise SystemExit(2)
    return value


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        print(f"everettsim: cannot read {path}: {err.strerror}", file=sys.stderr)
        raise SystemExit(2) from None
    except UnicodeDecodeError as err:
        print(f"everettsim: cannot read {path}: not UTF-8 ({err.reason})", file=sys.stderr)
        raise SystemExit(2) from None


def _parse_file(path: str):
    try:
        return parse_circuit(_read_file(path))
    except CircuitParseError as err:
        print(f"everettsim: {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ProtocolError, CircuitError, StateError) as err:
        where = f"{args.file}: " if "file" in args else ""
        print(f"everettsim: {where}{err}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "superdense":
        tol = _tolerance(DEFAULT_TOL)
        result = run_superdense(args.p, args.q, tol=tol)
        table = derive_decode_table(tol=tol)
        for line in reports.superdense_lines(result, table, args.json, args.trace):
            print(line)
        return 0

    if args.verb == "teleport":
        if args.alpha == 0 and args.beta == 0:
            print("everettsim: the input qubit must be nonzero", file=sys.stderr)
            return 2
        result = run_teleport(args.alpha, args.beta, tol=_tolerance(DEFAULT_TOL))
        for line in reports.teleport_lines(result, args.json, args.trace):
            print(line)
        return 0

    if args.verb == "run":
        prog = _parse_file(args.file)
        _, outcomes = exec_circuit(prog, tol=_tolerance(1e-10))
        for line in reports.run_lines(outcomes, args.json):
            print(line)
        return 0 if all(o.passed for o in outcomes) else 1

    if args.verb == "render":
        print(render_ascii(_parse_file(args.file)))
        return 0

    if args.verb == "verify":
        results = verify.run_all()
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.index} {r.name}: {r.detail}")
        passed = sum(1 for r in results if r.passed)
        print(f"verified: {passed}/{len(results)} checks passed")
        return 0 if passed == len(results) else 1

    raise AssertionError(f"unhandled verb {args.verb!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
