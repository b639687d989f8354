"""Command line front end.

    everettsim superdense --p 0 --q 1 [--trace] [--json]
    everettsim teleport --alpha 0.6,0 --beta 0,0.8 [--trace] [--json]
    everettsim run <file.ecirc> [--json]
    everettsim render <file.ecirc>
    everettsim verify

Exit codes: 0 success, 1 failed assertions, a protocol, locality or state
error, or running out of memory, 2 usage errors, non-finite amplitudes,
unreadable, non-UTF-8 or unparseable files, or output that stdout's
encoding cannot write. Every error is one line on stderr; stdout closed
early by its reader (`| head`) exits 1 in silence. Flags must be spelled in
full: `--al` is not `--alpha`. The environment variable EVERETT_TOL (an
ASCII decimal literal in (0, 1e-6], default 1e-12 for protocol state checks
and 1e-10 for circuit assertions) overrides the comparison tolerance;
`verify` always runs at its pinned tolerances. Trace line and JSON record layouts are documented in
`everettsim.reports`.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import os
import re
import sys

# state first, so that numpy loads before the other modules: loaded after
# them it cost `import everettsim.cli` about 550 more minor page faults
# (medians 5,450 against 4,900 on a 2-core x86-64 VM) and 5-9 ms of wall time
from .state import DEFAULT_TOL, StateError
from . import reports, verify
from .circuit import ASSERT_TOL, CircuitError, CircuitParseError, exec_circuit, parse_circuit
from .protocols import ProtocolError, derive_decode_table, run_superdense, run_teleport
from .render import render_ascii


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


# argparse takes `-1,0` for an option; a value that float() reads as
# negative, nan and inf included, is attached to its flag as `--beta=-1,0`
_NEGATIVE = re.compile(r"-([0-9.]|nan|inf)", re.IGNORECASE)


def _attach_negative_amplitudes(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--alpha", "--beta") and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="everettsim",
        description="Unitary-only superdense coding and teleportation simulator.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # subparsers do not inherit allow_abbrev
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_sd = add_parser("superdense", help="encode two bits, move one qubit, read the pointer")
    p_sd.add_argument("--p", type=_bit, required=True, help="first bit")
    p_sd.add_argument("--q", type=_bit, required=True, help="second bit")
    p_sd.add_argument("--trace", action="store_true", help="include the event trace")
    p_sd.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_tp = add_parser("teleport", help="teleport alpha|0> + beta|1> from Alice to Bob")
    p_tp.add_argument("--alpha", type=_amplitude, required=True, metavar="RE,IM")
    p_tp.add_argument("--beta", type=_amplitude, required=True, metavar="RE,IM")
    p_tp.add_argument("--trace", action="store_true", help="include the event trace")
    p_tp.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_run = add_parser("run", help="execute a .ecirc circuit file")
    p_run.add_argument("file", help="circuit file path")
    p_run.add_argument("--json", action="store_true", help="line-delimited JSON records")

    p_render = add_parser("render", help="draw a .ecirc circuit file as ASCII")
    p_render.add_argument("file", help="circuit file path")

    add_parser("verify", help="run the full verification suite")
    return parser


def _tolerance(default: float) -> float:
    raw = os.environ.get("EVERETT_TOL")
    if raw is None:
        return default
    # an ASCII decimal literal: float() also takes surrounding whitespace,
    # underscores between digits, non-ASCII digits, inf and nan
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", raw):
        print(f"everettsim: bad EVERETT_TOL {raw!r}", file=sys.stderr)
        raise SystemExit(2)
    value = float(raw)
    # equal_up_to_phase accepts any pair with fidelity >= 1 - tol, so a large
    # tolerance passes states that differ (at 0.9, a pair with fidelity 0.1);
    # the defaults are 1e-12 and 1e-10
    if not 0 < value <= 1e-6:
        print(f"everettsim: EVERETT_TOL must lie in (0, 1e-6], got {raw!r}", file=sys.stderr)
        raise SystemExit(2)
    return value


def _read_file(path: str) -> str:
    try:
        # utf-8-sig drops one leading byte-order mark and is strict UTF-8 otherwise
        with open(path, encoding="utf-8-sig") as handle:
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
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_amplitudes(argv))
    try:
        code = _dispatch(args)
        # a reader that has gone shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except (ProtocolError, CircuitError, StateError, MemoryError) as err:
        where = f"{args.file}: " if "file" in args else ""
        # Python's own MemoryError has no message
        print(f"everettsim: {where}{str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python's SIGPIPE recipe: with stdout on devnull the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnicodeEncodeError as err:
        print(f"everettsim: cannot write the output in the {err.encoding} encoding",
              file=sys.stderr)
        return 2


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
        _, outcomes = exec_circuit(prog, tol=_tolerance(ASSERT_TOL))
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
