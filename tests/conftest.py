"""Shared oracles for the test suite.

``embed`` expands a gate to the full register space entry by entry from bit
arithmetic, with no axis permutation, so it stays independent of the code
path it is used to check.
"""

from __future__ import annotations

import numpy as np
import pytest


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
def kron_forbidden(monkeypatch) -> None:
    """Make any np.kron call fail, to show a bound is checked before allocating."""

    def no_allocation(*args):
        raise AssertionError("np.kron called past the wire limit")

    monkeypatch.setattr(np, "kron", no_allocation)
