"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`everettsim verify` for the same checks from the CLI.
"""

import tracemalloc

import pytest

from everettsim import verify
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


def test_check_6_holds_its_batch_in_little_memory():
    # 1000 states of 32 amplitudes take 0.5 MiB; a pass that kept every
    # step's batch, or one per-input copy of each, would exceed the bound
    verify._check_teleport_random()  # parse the template and build the gates first
    tracemalloc.start()
    try:
        verify._check_teleport_random()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"
