"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`everettsim verify` for the same checks from the CLI.
"""

import math
import sys
from collections import Counter
from dataclasses import replace

import pytest

from everettsim import circuit, fixtures, protocols, state, verify
from everettsim.circuit import GATES
from everettsim.gates import UnitaryGate, u_b_decoder
from everettsim.protocols import DecodeTable, ProtocolError
from everettsim.reports import teleport_lines


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in verify.run_all()}


@pytest.mark.parametrize("index", range(1, len(verify._CHECKS) + 1))
def test_criterion(results, index):
    r = results[index]
    print(f"{'PASS' if r.passed else 'FAIL'} {r.index} {r.name}: {r.detail}")
    assert r.passed, f"criterion {r.index} ({r.name}): {r.detail}"


def test_every_criterion_is_covered(results):
    assert sorted(results) == list(range(1, 10))


def test_check_5_pins_the_whole_decode_table(monkeypatch):
    identity = DecodeTable(tuple(((p, q), (p, q)) for p in (0, 1) for q in (0, 1)), True)
    monkeypatch.setattr(verify, "decode_table", lambda _: identity)
    with pytest.raises(AssertionError, match="hand-derived table"):
        verify._check_superdense_end_to_end()


def _swap_two_corrections(m):
    # pointer 01 gets the correction of 10, and 10 that of 01
    m[2:4, 2:4], m[4:6, 4:6] = m[4:6, 4:6].copy(), m[2:4, 2:4].copy()


def _flip_one_branch(m):
    # Bob's qubit on pointer 11 comes out as (alpha, -beta)
    m[7] *= -1


@pytest.mark.parametrize("mutate", [_swap_two_corrections, _flip_one_branch])
def test_check_6_catches_a_broken_decoder(monkeypatch, mutate):
    # each basis input still teleports with rank 1, but the pointer sides of
    # F(1, 0) and F(0, 1) differ: only the linearity half can see it
    matrix = u_b_decoder().matrix.copy()
    mutate(matrix)
    broken = UnitaryGate(3, matrix, name="u_b")
    monkeypatch.setitem(GATES, "u_b", GATES["u_b"]._replace(build=lambda: broken))
    with pytest.raises(AssertionError, match="^linearity: F\\(1, 0\\) and F\\(0, 1\\) carry different"):
        verify._check_teleport_random()


def _fail_at_11(monkeypatch):
    """Make verify's run_superdense raise for input (1, 1); return its call counter."""
    real, calls = verify.run_superdense, Counter()

    def broken(p, q, **kwargs):
        calls[p, q] += 1
        if (p, q) == (1, 1):
            raise ProtocolError("injected failure at (1,1)")
        return real(p, q, **kwargs)

    monkeypatch.setattr(verify, "run_superdense", broken)
    return calls


def test_a_failed_shared_run_fails_every_check_that_reads_it(monkeypatch):
    calls = _fail_at_11(monkeypatch)
    results = {r.index: r for r in verify.run_all()}
    failed = {i for i, r in results.items() if not r.passed}
    assert failed == {4, 5, 7, 8, 9}
    for i in failed:
        assert results[i].detail == "ProtocolError: injected failure at (1,1)"
    # the shared run, its error raised again to each check that reads it, and
    # check 9's fresh run
    assert calls[1, 1] == 2


def test_no_shared_run_outlives_run_all(monkeypatch):
    assert all(r.passed for r in verify.run_all())
    _fail_at_11(monkeypatch)
    with pytest.raises(ProtocolError, match="injected failure"):
        verify._check_superdense_end_to_end()


def test_each_shared_run_is_made_once_per_run_all(monkeypatch):
    calls = Counter()
    for module, name in (
        (protocols, "run_superdense"),
        (protocols, "run_teleport"),
        (circuit, "exec_circuit"),
        (fixtures, "read"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every module that bound the original by name calls the counter
        for holder in (circuit, fixtures, protocols, verify):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted)
    assert all(r.passed for r in verify.run_all())
    # check 9 makes 4 superdense runs and 1 teleport of its own
    assert calls == {"run_superdense": 8, "run_teleport": 12, "exec_circuit": 7, "read": 2}


def test_run_all_applies_every_gate_through_the_small_state_plans(monkeypatch):
    """No apply in run_all views a state through _bit_view, the strided path of larger states."""
    strided = Counter()
    original = state._bit_view

    def counted(amps, n, front):
        # only the strided path calls it from apply itself; _plan and
        # _wire_view call it too
        if sys._getframe(1).f_code is state.apply.__code__:
            strided[n] += 1
        return original(amps, n, front)

    monkeypatch.setattr(state, "_bit_view", counted)
    state._plan.cache_clear()
    assert all(r.passed for r in verify.run_all())
    assert not strided
    # the plans of one run_all are a handful, one per gate and wire order
    assert 0 < state._plan.cache_info().currsize <= 8
    # the counter sees the strided path: a state past _SMALL takes it
    n = state._SMALL.bit_length()
    wide = state.basis_state([f"w{i}" for i in range(n)], [0] * n)
    state.apply(GATES["u_b"].build(), ("w0", "w1", "w2"), wide)
    assert strided == {n: 2}


def _nudge_the_input(run, alpha, beta, **kwargs):
    # one ulp up in each part; a zero part becomes the least subnormal, which
    # the JSON report echoes as given
    def up(z):
        return complex(math.nextafter(z.real, math.inf), math.nextafter(z.imag, math.inf))

    return run(up(alpha), up(beta), **kwargs)


def _nudge_a_nonzero_part(run, alpha, beta, **kwargs):
    # one ulp up in alpha's real part alone: the JSON report rounds it away
    return run(math.nextafter(alpha.real, math.inf) + 1j * alpha.imag, beta, **kwargs)


def _drop_the_last_event(run, *args, **kwargs):
    result = run(*args, **kwargs)
    return replace(result, world=replace(result.world, trace=result.world.trace[:-1]))


def _same(run, *args, **kwargs):
    return run(*args, **kwargs)


def _repeats(monkeypatch, name, drift):
    """Patch verify's `name` so that a repeated run of one input goes through
    `drift`; return the count of runs per input."""
    real, calls = getattr(verify, name), Counter()

    def run(*args, **kwargs):
        calls[args] += 1
        return (drift if calls[args] > 1 else _same)(real, *args, **kwargs)

    monkeypatch.setattr(verify, name, run)
    return calls


@pytest.mark.parametrize("name, drift, report", [
    ("run_teleport", _nudge_the_input, "teleport"),
    ("run_superdense", _drop_the_last_event, "superdense"),
])
def test_check_9_catches_a_run_that_differs_when_repeated(monkeypatch, name, drift, report):
    calls = _repeats(monkeypatch, name, drift)
    # checks 1-8 run each input once, or read the shared first run
    results = verify.run_all()
    assert [r.index for r in results if not r.passed] == [9]
    assert results[8].detail == f"AssertionError: {report} JSON output not reproducible"
    # alone, check 9 makes both sides afresh: the second drifts
    calls.clear()
    with pytest.raises(AssertionError, match=f"^{report} JSON output not reproducible$"):
        verify._check_determinism()


def test_check_9_catches_a_final_state_that_differs_in_its_last_bits(monkeypatch):
    # the JSON of the nudged repeat is byte-identical; only the amplitudes show it
    nudged = _nudge_a_nonzero_part(verify.run_teleport, 0.6, 0.8j)
    plain = verify.run_teleport(0.6, 0.8j)
    assert teleport_lines(nudged, json_mode=True, trace=True) == teleport_lines(
        plain, json_mode=True, trace=True
    )
    assert nudged.world.state.amps.tobytes() != plain.world.state.amps.tobytes()
    calls = _repeats(monkeypatch, "run_teleport", _nudge_a_nonzero_part)
    results = verify.run_all()
    assert [r.index for r in results if not r.passed] == [9]
    assert results[8].detail == "AssertionError: teleport final state not bit-identical"
    calls.clear()
    with pytest.raises(AssertionError, match="^teleport final state not bit-identical$"):
        verify._check_determinism()


def test_check_9_alone_makes_one_run_of_each_input_per_side(monkeypatch):
    superdense = _repeats(monkeypatch, "run_superdense", _same)
    teleport = _repeats(monkeypatch, "run_teleport", _same)
    assert verify._check_determinism().startswith("renders and JSON reports byte-identical")
    # 4 superdense runs and 1 teleport on each side
    assert superdense == {(p, q): 2 for p in (0, 1) for q in (0, 1)}
    assert teleport == {(0.6, 0.8j): 2}
