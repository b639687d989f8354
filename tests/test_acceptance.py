"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`everettsim verify` for the same checks from the CLI.
"""

import pytest

from everettsim import verify
from everettsim.circuit import GATES
from everettsim.gates import UnitaryGate, u_b_decoder
from everettsim.protocols import DecodeTable


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
    monkeypatch.setattr(verify, "derive_decode_table", lambda: identity)
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
