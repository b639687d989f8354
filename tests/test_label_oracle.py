"""The 20-wire kernels against references that find each wire by its label.

Wire ``w{i}`` is position i, bit 19 - i of an amplitude's index (the first
wire is the most significant bit). The references here work from that rule
and numpy index arithmetic alone: none of them asks ``state`` where a wire
sits, so a kernel and its reference cannot share a wrong position, as they
would through ``state._positions`` or a reference built on the kernels'
views.
"""

import numpy as np
import pytest

from everettsim.circuit import GATES
from everettsim.state import Bipartition, PureState, apply, branch_decompose, schmidt_factor

N = 20
WIRES = tuple(f"w{i}" for i in range(N))
INDEX = np.arange(1 << N)


def position(label):
    return int(label[1:])


def bit_of(label):
    """Each amplitude's bit of the wire `label`, one per index."""
    return (INDEX >> (N - 1 - position(label))) & 1


def unit_amps(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


@pytest.fixture(scope="module")
def wide_amps():
    return unit_amps(np.random.default_rng(2020), N)


def oracle_apply(matrix, targets, amps):
    """Gather the 2^k slices of the target values by index, multiply, scatter back."""
    k = len(targets)
    weights = [1 << (N - 1 - position(t)) for t in targets]
    base = INDEX[(INDEX & sum(weights)) == 0]
    values = np.arange(1 << k)
    offsets = sum(((values >> (k - 1 - j)) & 1) * w for j, w in enumerate(weights))
    idx = base[None, :] + offsets[:, None]
    out = np.empty_like(amps)
    out[idx] = matrix @ amps[idx]
    return out


def target_sets(name):
    k = GATES[name].arity
    rng = np.random.default_rng(sorted(GATES).index(name))
    return {
        "last": WIRES[N - k:],
        "from_w17": tuple(f"w{(17 + j) % N}" for j in range(k)),
        "seeded": tuple(WIRES[i] for i in rng.choice(N, size=k, replace=False)),
    }


@pytest.mark.parametrize("which", ["last", "from_w17", "seeded"])
@pytest.mark.parametrize("name", sorted(GATES))
def test_apply_matches_the_label_oracle(wide_amps, name, which):
    gate = GATES[name].build()
    targets = target_sets(name)[which]
    got = apply(gate, targets, PureState(WIRES, wide_amps)).amps
    want = oracle_apply(gate.matrix, targets, wide_amps)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("pointer", [("w17", "w18"), ("w18", "w3"), ("w0", "w19")])
def test_branch_decompose_matches_a_bincount(wide_amps, pointer):
    labels = 2 * bit_of(pointer[0]) + bit_of(pointer[1])
    probs = np.abs(wide_amps) ** 2
    want = np.bincount(labels, weights=probs, minlength=4) / probs.sum()
    decomp = branch_decompose(PureState(WIRES, wide_amps), pointer)
    assert [2 * b.bits[0] + b.bits[1] for b in decomp.branches] == [0, 1, 2, 3]
    for branch, weight, value in zip(decomp.branches, want, range(4)):
        assert abs(branch.weight - weight) <= 1e-12
        # the residual keeps the other wires in state order: ascending index
        assert branch.residual.wires == tuple(w for w in WIRES if w not in pointer)
        assert np.array_equal(branch.residual.amps, wide_amps[labels == value])


@pytest.mark.parametrize("wire", ["w17", "w18"])
def test_one_wire_schmidt_cut_matches_a_moveaxis_reference(wire):
    rng = np.random.default_rng(position(wire))
    rest, factor = unit_amps(rng, N - 1), unit_amps(rng, 1)
    # the product with `factor` as wire `wire`, its axis moved into place by label
    amps = np.moveaxis(np.multiply.outer(rest.reshape((2,) * (N - 1)), factor), -1, position(wire))
    amps = amps.reshape(-1)
    matrix = np.moveaxis(amps.reshape((2,) * N), position(wire), -1).reshape(-1, 2)
    _, sv, vh = np.linalg.svd(matrix, full_matrices=False)
    cut = Bipartition(frozenset(w for w in WIRES if w != wire), frozenset({wire}))

    rank, factors = schmidt_factor(PureState(WIRES, amps), cut)
    assert rank == int((sv > 1e-12 * sv[0]).sum()) == 1
    left, right = factors
    assert left.wires == tuple(w for w in WIRES if w != wire) and right.wires == (wire,)
    assert abs(abs(np.vdot(vh[0], right.amps)) - 1) <= 1e-12
    assert np.abs(np.outer(left.amps, right.amps) - matrix).max() <= 1e-12

    # an entangled state across the same cut has rank 2 in both
    assert schmidt_factor(PureState(WIRES, unit_amps(rng, N)), cut) == (2, None)
