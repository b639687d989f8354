"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`everettsim verify` for the same checks from the CLI.
"""

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
