"""Shared oracles for the test suite.

``embed`` expands a gate to the full register space entry by entry from bit
arithmetic, with no axis permutation, so it stays independent of the code
path it is used to check. ``permute_wires`` is the reference transpose.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from everettsim import circuit, state


def embed(matrix: np.ndarray, positions: list[int], n: int) -> np.ndarray:
    """Full 2^n matrix acting as ``matrix`` on the given wire positions.

    Positions are indices into the wire list (first wire = most significant
    bit); all other wires get the identity.
    """
    k = len(positions)
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        colbits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        tcol = 0
        for pos in positions:
            tcol = (tcol << 1) | colbits[pos]
        for trow in range(1 << k):
            amp = matrix[trow, tcol]
            if amp == 0:
                continue
            rowbits = list(colbits)
            for j, pos in enumerate(positions):
                rowbits[pos] = (trow >> (k - 1 - j)) & 1
            row = 0
            for b in rowbits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def permute_wires(s: state.PureState, order) -> state.PureState:
    """The reference transpose: `s` with its wires listed in `order`.

    One numpy transpose of the amplitudes as one axis per wire, found by
    wire name, independent of the kernels' views.
    """
    order = tuple(order)
    if sorted(order) != sorted(s.wires):
        raise state.WireError(f"{order} is not a permutation of {s.wires}")
    amps = s.amps.reshape((2,) * s.n_wires).transpose([s.wires.index(w) for w in order])
    return state.PureState(order, amps)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_amps(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_wire_limit(monkeypatch):
    """Lower the dense-state bound to 16 wires and trace allocations until teardown.

    One wire past the bound a state takes 2**17 amplitudes, 2 MiB, so a refused
    call that formed such a state first lifts `traced_peak` past 1 MiB,
    whichever numpy call allocated it. Yields the lowered bound.
    """
    monkeypatch.setattr(state, "MAX_WIRES", 16)
    monkeypatch.setattr(circuit, "MAX_WIRES", 16)
    tracemalloc.start()
    try:
        yield 16
    finally:
        tracemalloc.stop()


def traced_peak() -> int:
    """The most bytes tracemalloc has seen allocated at once since tracing started."""
    return tracemalloc.get_traced_memory()[1]
