"""Hash what seeded `wide` programs end in: the final state's bytes and every assertion outcome.

Run as ``python tools/wide_bits.py --seed 1 --count 4``; it runs the
benchmark's `wide` programs of that seed, indices 0 to count - 1, with
``everettsim`` from ``src/`` and ``perfbench/programs.py``, and prints one
``<index> <sha256>`` line per program. The hash covers the final state's
wires and amplitude bytes, and each assertion's line, kind, result and
detail. On more than one core the kernels split each call of a 20-wire
program between two threads, and under ``taskset -c 0`` they run it
inline, so the two runs' output must be equal:

    python tools/wide_bits.py > two.txt
    taskset -c 0 python tools/wide_bits.py | diff two.txt -
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import programs  # noqa: E402

from everettsim.circuit import exec_circuit, parse_circuit  # noqa: E402


def program_hash(source: str) -> str:
    """The sha256 of one program's final state and assertion outcomes."""
    world, outcomes = exec_circuit(parse_circuit(source))
    digest = hashlib.sha256(" ".join(world.state.wires).encode())
    digest.update(world.state.amps.tobytes())
    for o in outcomes:
        digest.update(f"\n{o.line} {o.kind} {o.passed} {o.detail}".encode())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=4)
    args = parser.parse_args(argv)
    for index in range(args.count):
        print(index, program_hash(programs.wide_program(args.seed, index).source), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
