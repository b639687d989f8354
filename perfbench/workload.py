"""One benchmark workload, run in its own process by `run.py`.

A single client runs a closed loop: it starts the next operation only after
the previous one has returned and its output has been checked. Only the
operation itself is timed; making its input and checking its output are not.
The process prints one JSON object with the raw latencies and either the
calibration times around them (untraced run; none for `wide`) or the span
totals (traced run); `run.py` turns them into metrics. In an untraced run it also stops a
few times between operations, with the clock stopped, and asks `run.py` to
time a cold start (`tracer.PROBE_REQUEST` on stdout, then it waits for a
line on stdin), so those samples spread over the whole run.

    python3 perfbench/workload.py --workload wide --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import programs  # noqa: E402
from calibrate import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from everettsim import circuit, render, verify  # noqa: E402

# the bound `everettsim verify` holds teleport fidelity to
FIDELITY_FLOOR = 1.0 - 1e-10
CHILD_TIMEOUT_S = 60
# a traced run alternates untraced and traced blocks of this length
BLOCK_S = 2.0
# workloads whose latencies are scaled by the calibration kernel; `wide`
# is not, since its time goes to threaded BLAS, which the kernel does not follow
SCALED = ("verify", "cli", "long")


def _fidelity(psi, phi) -> float:
    psi, phi = np.asarray(psi, dtype=complex), np.asarray(phi, dtype=complex)
    return abs(np.vdot(psi, phi)) ** 2 / (np.vdot(psi, psi).real * np.vdot(phi, phi).real)


def _wire_matrix(state, wires: tuple[str, ...]) -> np.ndarray:
    """The amplitudes as a matrix whose rows are indexed by the given wires."""
    positions = [state.wires.index(w) for w in wires]
    arr = np.moveaxis(state.amps.reshape((2,) * len(state.wires)), positions, range(len(wires)))
    return arr.reshape(1 << len(wires), -1)


class VerifyWorkload:
    """Back-to-back in-process `verify.run_all()`; one operation is all 9 checks."""

    def make(self, index: int):
        return None

    def call(self, _):
        return verify.run_all()

    def check(self, _, results) -> str | None:
        failed = [f"{r.index}: {r.detail}" for r in results if not r.passed]
        if len(results) != 9 or failed:
            return f"{len(results) - len(failed)}/9 checks passed: {failed}"
        return None


class ProgramWorkload:
    """Generated `.ecirc` programs, each run through parse, exec and render."""

    def __init__(self, seed: int, generate):
        self.seed = seed
        self.generate = generate

    def make(self, index: int) -> programs.Program:
        return self.generate(self.seed, index)

    def call(self, program: programs.Program):
        prog = circuit.parse_circuit(program.source)
        world, outcomes = circuit.exec_circuit(prog)
        return prog, world, outcomes, render.render_ascii(prog)

    def check(self, program: programs.Program, out) -> str | None:
        prog, world, outcomes, picture = out
        if len(prog.statements) != program.statements:
            return f"parsed {len(prog.statements)} statements, wrote {program.statements}"
        failed = [o.detail for o in outcomes if not o.passed]
        if failed or len(outcomes) != program.asserts:
            return f"assertions: {len(outcomes)} run, failed {failed}"
        if len(world.trace) != program.events:
            return f"trace has {len(world.trace)} events, expected {program.events}"
        rows = picture.count("\n") + 1
        if rows != program.rows:
            return f"render has {rows} rows, expected {program.rows}"
        for wire, alpha, beta in program.teleports:
            rows_b = _wire_matrix(world.state, (wire,))
            rho = rows_b @ rows_b.conj().T
            psi = np.array([alpha, beta])
            fid = (psi.conj() @ rho @ psi).real / (np.trace(rho).real * np.vdot(psi, psi).real)
            if fid < FIDELITY_FLOOR:
                return f"teleport fidelity {fid!r} on {wire}"
        for e1, e2, (x, y) in program.pointers:
            weights = (np.abs(_wire_matrix(world.state, (e1, e2))) ** 2).sum(axis=1)
            share = weights[2 * x + y] / weights.sum()
            if share < FIDELITY_FLOOR:
                return f"pointer {e1} {e2} holds {share!r} of the weight on {x}{y}"
        return None


FIXTURES = ("superdense_pq", "teleport")
# one round: superdense over all four inputs, teleport plain and traced as
# JSON, then run and render on each committed fixture
CLI_MIX = (
    [("superdense", p, q) for p in (0, 1) for q in (0, 1)]
    + [("teleport", False), ("teleport", True)]
    + [(verb, name) for verb in ("run", "render") for name in FIXTURES]
)


class CliWorkload:
    """Subprocess invocations of a fixed mix of CLI verbs, seeded order and amplitudes."""

    TABLE_LINE = "decode table: " + " ".join(
        f"{p}{q}->{x}{y}" for (p, q), (x, y) in sorted(programs.DECODE.items())
    )

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.traced = traced
        self.golden = {
            name: (ROOT / "tests" / "golden" / f"{name.split('_')[0]}_render.txt").read_text(encoding="utf-8")
            for name in FIXTURES
        }
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.child_stats: list[dict] = []
        self.process_s: list[float] = []

    def make(self, index: int):
        per_round = len(CLI_MIX)
        order = np.random.default_rng([self.seed, 3, index // per_round]).permutation(per_round)
        job = CLI_MIX[order[index % per_round]]
        if job[0] == "superdense":
            _, p, q = job
            return job, ["superdense", "--p", str(p), "--q", str(q)]
        if job[0] == "teleport":
            x = [float(v) for v in np.random.default_rng([self.seed, 4, index]).standard_normal(4)]
            alpha, beta = complex(x[0], x[1]), complex(x[2], x[3])
            argv = ["teleport", f"--alpha={x[0]!r},{x[1]!r}", f"--beta={x[2]!r},{x[3]!r}"]
            return (job[0], job[1], alpha, beta), argv + (["--trace", "--json"] if job[1] else [])
        verb, name = job
        return job, [verb, f"src/everettsim/fixtures/{name}.ecirc"]

    def call(self, inp):
        _, argv = inp
        if self.traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), *argv]
        else:
            argv = [sys.executable, "-m", "everettsim.cli", *argv]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              encoding="utf-8", timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        stderr = done.stderr
        if self.traced and tracing.STATS_MARK in stderr:
            stderr, _, stats = stderr.rpartition(tracing.STATS_MARK)
            self.child_stats.append(json.loads(stats))
            self.process_s.append(elapsed)
        return done.returncode, done.stdout, stderr

    def check(self, inp, out) -> str | None:
        job, argv = inp
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"{' '.join(argv)}: exit {code}, stderr {stderr.strip()!r}"
        lines = stdout.splitlines()
        verb = job[0]
        if verb == "superdense":
            _, p, q = job
            x, y = programs.DECODE[(p, q)]
            want = [f"input: p={p} q={q}", f"pointer: {x}{y}", "branches: 1"]
            if lines[:3] != want or lines[4] != self.TABLE_LINE or not (
                lines[3].startswith(f"branch {x}{y}: ") and lines[3].endswith("weight=1.000000000000")
            ):
                return f"superdense {p}{q}: unexpected output {lines[:5]}"
        elif verb == "teleport":
            _, as_json, alpha, beta = job
            if as_json:
                records = [json.loads(line) for line in lines]
                kinds = [r["event"] for r in records]
                if kinds != ["Init", "Gate", "Transfer", "Transfer", "Gate", "Summary"]:
                    return f"teleport --trace --json: events {kinds}"
                summary = records[-1]
                fid, rank = summary["fidelity"], summary["schmidt_rank_b_cut"]
                bob = [complex(*pair) for pair in summary["bob_qubit"]]
            else:
                fields = dict(line.split(": ", 1) for line in lines)
                fid, rank = float(fields["fidelity"]), int(fields["schmidt rank (b cut)"])
                nums = [float(v) for v in re.findall(r"-?\d+\.\d+", fields["bob qubit"])]
                bob = [complex(nums[0], nums[1]), complex(nums[2], nums[3])]
            own = _fidelity(bob, [alpha, beta])
            if rank != 1 or min(fid, own) < FIDELITY_FLOOR:
                return f"teleport {argv[1:3]}: rank {rank}, fidelity {fid!r}, recomputed {own!r}"
        elif verb == "run":
            if lines[-1] != "assertions: 1 passed, 0 failed" or not all(": PASS (" in l for l in lines[:-1]):
                return f"run {job[1]}: {lines}"
        elif stdout != self.golden[job[1]]:
            return f"render {job[1]}: output differs from tests/golden"
        return None


def ask_for_cold_start() -> None:
    """Have `run.py` time a cold start now, and wait until it has."""
    sys.stdout.write(tracing.PROBE_REQUEST + "\n")
    sys.stdout.flush()
    if not sys.stdin.readline():
        raise SystemExit("perfbench: run.py closed the probe channel")


def run_phase(workload, seconds: float, first: int, min_ops: int = 1, pauses: int = 0,
              speed: list[float] | None = None) -> tuple[list[float], list[str]]:
    """Closed loop for `seconds` and at least `min_ops` operations.

    With `pauses`, the loop stops that many times, once in each equal step
    of the phase, for `ask_for_cold_start`; the phase is extended by the
    time each stop takes. With `speed`, the calibration kernel is timed
    before every operation and once after the last, and appended to it, so
    operation i lies between speed[i] and speed[i + 1]. Returns the
    per-operation latencies and the failed checks.
    """
    latencies: list[float] = []
    failures: list[str] = []
    end = time.perf_counter() + seconds
    step = seconds / pauses if pauses else 0.0
    next_pause = end - seconds + step / 2
    paused = 0
    index = first
    while True:
        inp = workload.make(index)
        if speed is not None:
            speed.append(calibrate())
        start = time.perf_counter()
        try:
            out = workload.call(inp)
        except Exception as err:  # noqa: BLE001 - a raising operation is a failed one
            latencies.append(time.perf_counter() - start)
            problem = f"{type(err).__name__}: {err}"
        else:
            latencies.append(time.perf_counter() - start)
            try:
                problem = workload.check(inp, out)
            except (IndexError, KeyError, ValueError) as err:  # malformed output
                problem = f"unreadable output ({type(err).__name__}: {err})"
        if problem is not None:
            failures.append(problem)
        index += 1
        if paused < pauses and time.perf_counter() >= next_pause:
            stopped = time.perf_counter()
            ask_for_cold_start()
            took = time.perf_counter() - stopped
            end += took
            next_pause += step + took
            paused += 1
        if len(latencies) >= min_ops and time.perf_counter() >= end:
            for _ in range(pauses - paused):  # operations longer than a step
                ask_for_cold_start()
            if speed is not None:
                speed.append(calibrate())
            return latencies, failures


def merge(snapshots: list[dict]) -> dict:
    """Sum span totals and counters, and pool samples, over several tracers."""
    out: dict = {"stats": {}, "samples": {}, "counts": {}}
    for snap in snapshots:
        for name, (calls, self_s) in snap["stats"].items():
            entry = out["stats"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, values in snap["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        for name, value in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
    return out


def _make(name: str, seed: int):
    if name == "verify":
        return VerifyWorkload()
    if name == "cli":
        return CliWorkload(seed)
    return ProgramWorkload(seed, {"wide": programs.wide_program, "long": programs.long_program}[name])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("verify", "cli", "wide", "long"))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-starts", type=int, default=0,
                        help="cold starts to ask run.py for during an untraced run")
    args = parser.parse_args()

    workload = _make(args.workload, args.seed)
    # one untimed operation first, so caches fill and lazy set-up finishes
    _, failures = run_phase(workload, 0.0, 0)
    attempted = 1
    if not args.trace:
        speed = [] if args.workload in SCALED else None
        latencies, more = run_phase(workload, args.seconds, 1, pauses=args.cold_starts,
                                    speed=speed)
        failures += more
        attempted += len(latencies)
        report: dict = {"latencies": latencies, "calibration": speed}
    else:
        # untraced and traced blocks alternate, so that both halves see the
        # same spells of a machine whose speed drifts
        tracer = tracing.Tracer()
        plain: list[float] = []
        traced: list[float] = []
        hits = misses = 0
        stop = time.perf_counter() + args.seconds
        while True:
            for spans in (False, True):
                if spans:
                    restore = tracing.install(tracer)
                    before = tracing.gate_cache()
                if isinstance(workload, CliWorkload):
                    workload.traced = spans
                lat, more = run_phase(workload, BLOCK_S, attempted)
                if spans:
                    restore()
                    after = tracing.gate_cache()
                    hits, misses = hits + after[0] - before[0], misses + after[1] - before[1]
                (traced if spans else plain).extend(lat)
                failures += more
                attempted += len(lat)
            if time.perf_counter() >= stop:
                break
        report = {"latencies": plain}
        children = getattr(workload, "child_stats", [])
        loop = merge([tracer.snapshot(), *children])
        if children:
            hits, misses = (sum(c["cache"][i] for c in children) for i in (0, 1))

        # one verify.run_all and one round of the CLI mix reach every layer,
        # for the functions the loop never called
        tracer.reset()
        restore = tracing.install(tracer)
        cli_probe = CliWorkload(args.seed, traced=True)
        for probe, count in ((VerifyWorkload(), 1), (cli_probe, len(CLI_MIX))):
            _, more = run_phase(probe, 0.0, 0, min_ops=count)
            failures += more
            attempted += count
        restore()
        cli_children = children + cli_probe.child_stats
        report["traced"] = {
            "latencies": traced,
            "loop": loop,
            "probe": merge([tracer.snapshot(), *cli_probe.child_stats]),
            "cache": [hits, misses],
            "cli_main_s": [c["main_s"] for c in cli_children],
            "cli_process_s": getattr(workload, "process_s", []) + cli_probe.process_s,
        }
    if args.workload == "cli":
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report["attempted"] = attempted
    report["failures"] = failures
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
