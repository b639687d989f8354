"""Machine-speed calibration: a fixed kernel, timed next to the workload.

The shared host this benchmark runs on changes speed by up to about 1.5x
in spells that last from seconds to minutes, and a whole run can fall into
one. The timings of the workloads whose time goes to per-call overhead
(`verify`, `cli`, `long`) are therefore scaled to a reference speed: each
time is multiplied by `REFERENCE_S` over the median time this kernel takes
between the run's operations, raised to the power `SPEED_EXPONENT`. A
change to the program moves the scaled figures as it moves the raw ones; a
change of the machine's speed moves both the time and the kernel, and
mostly cancels out.

Cold starts slow down with the machine in their own way, mostly in loading
shared libraries, which the kernel does not follow. Each cold start is
therefore scaled by `COLD_REFERENCE_S` over the time a fresh interpreter
next to it takes to import numpy alone (`probe.py --reference`).

The kernel does the same kind of work as those workloads: integer
arithmetic, dicts, tuples and calls in the interpreter, and a chain of
numpy calls on a tiny array every fourth step. Neither the kernel nor the
reference cold start calls the program, so no change to everettsim can
speed them up.
"""

from __future__ import annotations

import statistics
import time

# one pass's time on the machine the scaled figures refer to: about what it
# took on a 2-vCPU cloud VM (Xeon, 2.1 GHz) with Python 3.11 and numpy 2.4
REFERENCE_S = 0.005
# `import numpy` in a fresh interpreter on that machine
COLD_REFERENCE_S = 0.07
# how far a latency moves with the kernel: across 40 runs of `verify` in
# four sets, the log of the median latency rose with the log of the kernel's
# time with a slope of 0.66 (correlation 0.89), so scaling by the whole
# ratio would over-correct
SPEED_EXPONENT = 0.66
PASSES = 3


def _step(i: int, acc: int) -> int:
    return (acc * 31 + i) & 0xFFFFFF


def _kernel() -> None:
    import numpy as np

    acc = 0
    table: dict[int, tuple[int, int]] = {}
    tiny = np.zeros(8)
    for i in range(5000):
        acc = _step(i, acc)
        table[i & 255] = (i, acc)
        acc ^= table.get((i * 7) & 255, (0, 0))[0]
        if i & 3 == 0:
            tiny = (tiny.reshape(2, 4).T + 1.0).reshape(8)


def calibrate(passes: int = PASSES) -> float:
    """Median time of `passes` runs of the kernel, in seconds."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(f"{calibrate(20) * 1e3:.3f} ms per pass (reference {REFERENCE_S * 1e3:g} ms)")
