"""Cold-start probe, run in a fresh interpreter by `run.py`.

Times `import everettsim` and the first build of every gate (the
`lru_cache` constructors start cold). With `--sweep` it also times
`state.apply` of `cu_meas` and `state.schmidt_factor` on random states of a
few widths. With `--reference` it times only `import numpy`, the reference
cold start that `setup_s` is scaled by (see `calibrate.py`). Prints one JSON
object.

    python3 perfbench/probe.py --sweep --seed 1
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

WIDTHS = (6, 12, 16, 20)
BUDGET_S = 0.1  # per width and function, after at least MIN_REPS calls
MIN_REPS = 3


def sweep(seed: int) -> dict[str, float]:
    import numpy as np

    from everettsim.gates import cu_meas
    from everettsim.state import Bipartition, PureState, apply, schmidt_factor

    rng = np.random.default_rng([seed, 5])
    gate = cu_meas()
    out = {}
    for n in WIDTHS:
        wires = tuple(f"w{i}" for i in range(n))
        state = PureState(wires, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        targets = wires[n // 2 - 2 : n // 2 + 2]
        cut = Bipartition(frozenset(wires[:-1]), frozenset(wires[-1:]))
        calls = {
            "state.apply": lambda: apply(gate, targets, state),
            "state.schmidt_factor": lambda: schmidt_factor(state, cut),
        }
        for name, call in calls.items():
            times = []
            end = time.perf_counter() + BUDGET_S
            while len(times) < MIN_REPS or time.perf_counter() < end:
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out[f"{name}.ns_per_amp.n{n}"] = statistics.median(times) / (1 << n) * 1e9
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    if args.reference:
        import numpy  # noqa: F401

        print(json.dumps({"numpy_import_s": time.perf_counter() - start}))
        return
    import everettsim  # noqa: F401
    from everettsim import gates

    imported = time.perf_counter()
    for p in (0, 1):
        for q in (0, 1):
            gates.sigma(p, q)
    gates.cu_sigma()
    gates.cu_meas()
    gates.u_b_decoder()
    built = time.perf_counter()
    report = {"import_s": imported - start, "build_s": built - imported}
    if args.sweep:
        report["sweep"] = sweep(args.seed)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
