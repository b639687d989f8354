"""The memory contract of README "Width": each kernel's peak as a multiple of the state.

At 20 wires (tracemalloc), a one-wire cut by ``schmidt_factor``, which
builds both factors, holds at most 0.75 times the state beside the state
itself, whether its row blocks are views of the amplitudes or gathered;
``assert factor`` makes the same cut but builds only the wire's factor, and
holds under 0.2 times the state. A 22-wire
``everettsim run`` peaks at ``apply``'s two states and little more: the
peak resident set of its child process stays within 2.25 times the state
of the child's own peak after its imports. CI runs this module on two
cores and again under ``taskset -c 0``, where every piece runs inline.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak
from test_properties import product_on_cut
from test_sharing import run_python

from everettsim import protocols
from everettsim.circuit import parse_circuit, run_step
from everettsim.state import DEFAULT_TOL, Bipartition, schmidt_factor


# one-wire cuts of 20 wires: the row blocks of w12 are gathered, those of w19
# are views; the parent of this contract read 2.0 and 1.0 times the state
@pytest.mark.parametrize("position", [12, 19])
def test_a_20_wire_one_wire_cut_holds_at_most_three_quarters_of_the_state(position):
    wire = f"w{position}"
    s, _, _ = product_on_cut(np.random.default_rng(position), 20, (wire,), 1)
    cut = Bipartition(frozenset(s.wires) - {wire}, frozenset({wire}))
    # the worker thread and every cache exist before tracing starts
    schmidt_factor(s, cut)
    tracemalloc.start()
    try:
        rank, factors = schmidt_factor(s, cut)
        peak = traced_peak()
    finally:
        tracemalloc.stop()
    assert rank == 1 and factors is not None
    assert peak <= 0.75 * s.amps.nbytes


# the cut of the same states as assert factor makes it: only the wire's
# factor, the SVD's own, is built, and never the half-state factor beside it
@pytest.mark.parametrize("position", [12, 19])
def test_a_20_wire_assert_factor_holds_under_a_fifth_of_the_state(position):
    wire = f"w{position}"
    s, _, factor = product_on_cut(np.random.default_rng(position), 20, (wire,), 1)
    a0, a1 = factor.amps.tolist()
    source = "".join(f"wire {w} @ Alice\n" for w in s.wires)
    source += f"assert factor {wire} ~ ({a0.real!r},{a0.imag!r}) |0> + ({a1.real!r},{a1.imag!r}) |1>\n"
    (stmt,) = parse_circuit(source).statements
    world = protocols.ProtocolWorld(s, {w: protocols.Agent.ALICE for w in s.wires}, ())
    outcomes = []
    # the worker thread and every cache exist before tracing starts
    run_step(world, stmt, DEFAULT_TOL, outcomes)
    tracemalloc.start()
    try:
        run_step(world, stmt, DEFAULT_TOL, outcomes)
        peak = traced_peak()
    finally:
        tracemalloc.stop()
    assert [o.passed for o in outcomes] == [True, True]
    # the parent of this contract read 0.57 and 0.51 times the state
    assert peak < 0.2 * s.amps.nbytes


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM on this platform")
def test_a_22_wire_run_peaks_within_two_and_a_quarter_states(tmp_path):
    # sigma11 and u_b move slices, cu_meas is a block product, and w16 is
    # factored from gathered row blocks, w21 from views; a 22-wire state
    # takes 64 MiB
    n = 22
    lines = [f"wire w{i} @ Alice" for i in range(n)]
    lines += [f"init w{i} = (0.6,0) |0> + (0,0.8) |1>" if i % 3 == 1 else f"init w{i} = |0>" for i in range(n)]
    lines += ["gate sigma11 w3 @ Alice", "gate u_b w0 w2 w5 @ Alice", "gate cu_meas w6 w8 w9 w11 @ Alice"]
    lines += ["assert factor w16 ~ (0.6,0) |0> + (0,0.8) |1>", "assert factor w21 ~ |0>"]
    path = tmp_path / "wide.ecirc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the child reads VmHWM, the peak of its own address space: ru_maxrss
    # would start at the resident set of this process, which forked it
    code = (
        "from everettsim import cli\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        f"code = cli.main(['run', {str(path)!r}])\n"
        "print(code, before, peak())\n"
    )
    exit_code, before, peak = map(int, run_python(code).stdout.splitlines()[-1].split())
    assert exit_code == 0
    # VmHWM counts KiB; the parent of this contract read 3.0 times the
    # state on two cores and 2.5 on one
    assert peak - before <= 2.25 * (16 << n) / 1024
