"""everettsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the workload runs untraced for `--seconds` and the run
reports the end-to-end metrics; the workload stops between operations,
with its clock stopped, for the cold-start samples of `setup_s`. Cold
starts, and the latencies of every workload but `wide`, are scaled to a
reference machine speed (`calibrate.py`). With
`--trace 1` it alternates untraced and traced blocks for `--seconds`, then
probes cold start and a width sweep in fresh processes, and reports the
per-layer metrics. Every line but the last is for people; the last line is
one JSON object. The exit code is 0 only if every operation's output check
passed. See README.md for the workloads and for which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "cli", "wide", "long")
SETUP_RUNS = 16
SWEEP_PROCESSES = 3
# time allowed beyond --seconds for warm-up, cold starts, probes and sweeps;
# every child is stopped when it runs out
ALLOWANCE_S = 90

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from calibrate import COLD_REFERENCE_S, REFERENCE_S, SPEED_EXPONENT  # noqa: E402

LAYER_FUNCTIONS = ("state.PureState", *tracing.SPANS)


def machine_context() -> dict:
    """Core count, interpreter, numpy and BLAS build, thread settings, CPU limit."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    quota = None
    for path, parse in (
        ("/sys/fs/cgroup/cpu.max", lambda text: text.split()),
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", lambda text: [text.strip(), None]),
    ):
        try:
            with open(path, encoding="ascii") as handle:
                quota = " ".join(v for v in parse(handle.read()) if v)
            break
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": quota,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def child(argv: list[str], deadline: float) -> str:
    """Run a Python child from the checkout root and return its stdout.

    The child gets its own process group, so that on timeout its own
    children (the CLI invocations) are stopped with it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill(proc)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(argv: list[str], deadline: float, on_request) -> dict:
    """Run `workload.py` and return its report.

    Whenever the workload asks (a `tracer.PROBE_REQUEST` line), `on_request` runs
    while the workload waits, and the workload is then told to go on.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        _kill(proc)

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), expire)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == tracing.PROBE_REQUEST:
                on_request()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        _kill(proc)
        proc.wait()
        if not expired.is_set():  # past the deadline, the timeout is the error
            raise
    finally:
        timer.cancel()
        proc.stdout.close()
        with contextlib.suppress(BrokenPipeError):  # the workload has gone
            proc.stdin.close()
    if expired.is_set():
        raise RuntimeError(f"workload.py ran past the deadline of --seconds + {ALLOWANCE_S} s and was stopped")
    if code != 0:
        raise RuntimeError(f"workload.py {' '.join(argv)} exited {code}")
    return json.loads(last)


def latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    # the highest rank with ten samples beyond it; with fewer samples, the largest
    tail_rank = n - 10 if n > 10 else n
    return {
        "ops_per_s": n / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[tail_rank - 1] * 1e3,
        "tail_percentile": 100.0 * tail_rank / n,
        "samples": n,
    }


def scaled(latencies: list[float], speed: list[float] | None) -> list[float]:
    """Every latency at the reference speed; unchanged for an unscaled workload.

    All are scaled by the median kernel timing of the run, raised to
    SPEED_EXPONENT (see `calibrate.py`). Scaling each one by the timings
    next to it followed spells of seconds, but it put the kernel's own noise
    on every operation, and the tail picked that up.
    """
    if speed is None:
        return latencies
    factor = (REFERENCE_S / statistics.median(speed)) ** SPEED_EXPONENT
    return [t * factor for t in latencies]


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> dict:
    lat = latency_metrics(scaled(report["latencies"], report["calibration"]))
    ok = 1.0 - len(report["failures"]) / report["attempted"]
    return {
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "latency_p50_ms": (lat["latency_p50_ms"], "ms"),
        "latency_tail_ms": (lat["latency_tail_ms"], "ms"),
        "setup_s": (statistics.median(t * COLD_REFERENCE_S / r for t, r in setups), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MiB"),
        "ok_ratio": (ok, "ratio"),
    }


def per_layer(report: dict, probes: list[dict]) -> dict:
    traced = report["traced"]
    ops = len(traced["latencies"])
    loop, probe = traced["loop"], traced["probe"]
    out: dict = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s = loop["stats"].get(name, (0, 0.0))
        # a function this workload never reaches gets its per-call cost from the probes
        seen, seen_s = (calls, self_s) if calls else probe["stats"].get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / ops, "count/op")
        out[f"{name}.self_s"] = (seen_s / max(seen, 1), "s/call")
    for name in ("state.apply.amps", "circuit.statements",
                 "protocols.trace_events.calls", "protocols.trace_events.copied"):
        out[name] = (loop["counts"].get(name, 0) / ops, "count/op")
    samples = {k: loop["samples"].get(k, []) + probe["samples"].get(k, []) for k in tracing.SAMPLED}
    out["verify.run_all_s"] = (statistics.median(samples.pop("verify.run_all")), "s")
    for name, values in samples.items():
        out[f"{name}_s"] = (statistics.median(values), "s")

    hits, misses = traced["cache"]
    out["gates.cache_hit_ratio"] = (hits / (hits + misses), "ratio")
    out["gates.build.self_s"] = (statistics.median(p["build_s"] for p in probes), "s")

    process = traced["cli_process_s"]
    main_s = traced["cli_main_s"]
    out["cli.process_s"] = (statistics.median(process), "s")
    out["cli.main_s"] = (statistics.median(main_s), "s")
    out["cli.startup_s"] = (statistics.median(p - m for p, m in zip(process, main_s)), "s")

    for key in probes[0]["sweep"]:
        values = [p["sweep"][key] for p in probes]
        out[key] = (statistics.median(values), "ns/amp")
        out[f"{key}.max"] = (max(values), "ns/amp")

    plain = latency_metrics(report["latencies"])
    with_spans = latency_metrics(traced["latencies"])
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
        unit = "1/s" if name == "ops_per_s" else "ms"
        out[f"trace.overhead.{name}"] = (with_spans[name] - plain[name], unit)
    out["trace.overhead.latency_p50_pct"] = (
        100.0 * (with_spans["latency_p50_ms"] / plain["latency_p50_ms"] - 1.0), "%")
    out["e2e.samples"] = (plain["samples"], "count")
    out["e2e.tail_percentile"] = (plain["tail_percentile"], "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"measured time; the run may take up to {ALLOWANCE_S} s more")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [ROOT / "src" / "everettsim" / "__init__.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not an everettsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    seed = str(args.seed % (1 << 63))  # numpy seeds must be non-negative
    deadline = time.monotonic() + args.seconds + ALLOWANCE_S
    context = machine_context()
    print("machine: " + json.dumps(context))

    def setup_s() -> tuple[float, float]:
        """One cold start, and the reference cold start just after it."""
        cold = json.loads(child([str(HERE / "probe.py")], deadline))
        ref = json.loads(child([str(HERE / "probe.py"), "--reference"], deadline))
        return cold["import_s"] + cold["build_s"], ref["numpy_import_s"]

    # the set-up samples are taken while the workload waits between
    # operations, spread over the whole run, so that one slow spell of the
    # machine does not decide them alone
    setups: list[tuple[float, float]] = []
    try:
        if not args.trace:
            setup_s()  # warm the file cache first
        report = run_workload(["--workload", args.workload, "--seed", seed,
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--cold-starts", str(0 if args.trace else SETUP_RUNS)],
                              deadline, lambda: setups.append(setup_s()))
        if args.trace:
            probes = [json.loads(child([str(HERE / "probe.py"), "--sweep", "--seed", seed],
                                       deadline)) for _ in range(SWEEP_PROCESSES)]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    metrics = per_layer(report, probes) if args.trace else end_to_end(report, setups)

    lat = latency_metrics(report["latencies"])
    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"latency_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples")
    if not args.trace:
        speed = report["calibration"]
        cold_ms = statistics.median(r for _, r in setups) * 1e3
        print(f"calibration: reference cold start median {cold_ms:.2f} ms "
              f"(reference {COLD_REFERENCE_S * 1e3:g} ms); kernel "
              + (f"median {statistics.median(speed) * 1e3:.3f} ms per pass between operations "
                 f"(reference {REFERENCE_S * 1e3:g} ms)" if speed else "not used, latencies unscaled"))
        print("unscaled: " + ", ".join(f"{name} = {lat[name]!r}" for name in
                                       ("ops_per_s", "latency_p50_ms", "latency_tail_ms"))
              + f", setup_s = {statistics.median(t for t, _ in setups)!r}")
        print("setup samples (s, unscaled): " + " ".join(f"{t:.4f}" for t, _ in setups))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in report["failures"][:20]:
        print(f"FAILED: {problem}")
    failed = len(report["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
