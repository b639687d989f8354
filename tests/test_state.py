import numpy as np
import pytest
from conftest import embed, random_amps, random_unitary

from everettsim.gates import UnitaryGate, bell, sigma
from everettsim.state import (
    Bipartition,
    PureState,
    StateError,
    WireError,
    ZeroStateError,
    apply,
    basis_state,
    branch_decompose,
    dump_state,
    equal_up_to_phase,
    fidelity,
    inner_product,
    norm_drift,
    permute_wires,
    qubit,
    schmidt_factor,
    tensor,
)


def rand_state(rng, wires):
    return PureState(wires, random_amps(rng, 1 << len(wires)))


# ---------------------------------------------------------------- PureState


def test_amps_length_must_match_wire_count():
    with pytest.raises(StateError):
        PureState(("a", "b"), np.ones(3, dtype=complex))


def test_duplicate_and_invalid_labels_rejected():
    with pytest.raises(WireError):
        PureState(("a", "a"), np.ones(4, dtype=complex))
    with pytest.raises(WireError):
        PureState(("a b",), np.ones(2, dtype=complex))
    with pytest.raises(WireError):
        PureState(("",), np.ones(2, dtype=complex))


def test_non_finite_amplitudes_rejected():
    with pytest.raises(StateError):
        PureState(("a",), np.array([np.nan, 0.0]))
    with pytest.raises(StateError):
        PureState(("a",), np.array([np.inf + 0j, 0.0]))


def test_amps_are_frozen_copies():
    raw = np.array([1.0, 0.0], dtype=complex)
    s = PureState(("a",), raw)
    raw[0] = 5.0
    assert s.amps[0] == 1.0
    with pytest.raises(ValueError):
        s.amps[0] = 2.0


def test_index_of_packs_first_wire_most_significant():
    s = basis_state(("a", "b", "c"), (1, 0, 1))
    assert s.index_of((1, 0, 1)) == 0b101
    assert s.amps[0b101] == 1.0


# ------------------------------------------------------------------ tensor


def test_tensor_of_basis_states_is_basis_outer_product():
    s = tensor(basis_state(("c",), (0,)), basis_state(("d",), (0,)))
    assert s.wires == ("c", "d")
    assert s.amps[0] == 1.0
    assert np.count_nonzero(s.amps) == 1


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_tensor_knowledge_with_shared_pair_has_two_unit_amps(p, q):
    s = tensor(basis_state(("c",), (p,)), basis_state(("d",), (q,)), bell(0, 0, ("a", "b")))
    assert s.wires == ("c", "d", "a", "b")
    nonzero = {i for i, a in enumerate(s.amps) if a != 0}
    assert nonzero == {s.index_of((p, q, 0, 0)), s.index_of((p, q, 1, 1))}
    assert all(s.amps[i] == 1.0 for i in nonzero)


def test_tensor_is_bilinear(rng):
    s1, s2 = rand_state(rng, ("a",)), rand_state(rng, ("b", "c"))
    doubled = PureState(s1.wires, 2.0 * s1.amps)
    assert np.array_equal(tensor(doubled, s2).amps, 2.0 * tensor(s1, s2).amps)


def test_tensor_rejects_duplicate_labels():
    with pytest.raises(WireError):
        tensor(qubit("a", 1, 0), qubit("a", 1, 0))


def test_tensor_is_associative_up_to_wire_order(rng):
    # exact for the integer amplitudes the protocols use ...
    e1, e2, e3 = bell(0, 1, ("a", "b")), basis_state(("c",), (1,)), bell(1, 1, ("d", "e"))
    assert np.array_equal(tensor(tensor(e1, e2), e3).amps, tensor(e1, tensor(e2, e3)).amps)
    # ... and up to rounding for arbitrary ones
    s1, s2, s3 = rand_state(rng, ("a",)), rand_state(rng, ("b",)), rand_state(rng, ("c",))
    left = tensor(tensor(s1, s2), s3)
    right = tensor(s1, tensor(s2, s3))
    assert left.wires == right.wires
    assert np.allclose(left.amps, right.amps, rtol=1e-15, atol=0)
    swapped = permute_wires(tensor(s2, tensor(s1, s3)), ("a", "b", "c"))
    assert np.allclose(swapped.amps, left.amps, rtol=1e-15, atol=0)


# ------------------------------------------------------------------- apply


def test_identity_gate_leaves_any_state_alone(rng):
    s = rand_state(rng, ("a", "b", "c"))
    out = apply(sigma(0, 0), ("b",), s)
    assert np.array_equal(out.amps, s.amps)


def test_bit_flip_on_half_of_a_shared_pair():
    out = apply(sigma(0, 1), ("a",), bell(0, 0, ("a", "b")))
    # |00>+|11> -> |10>+|01>, hand expanded
    assert np.array_equal(out.amps, np.array([0, 1, 1, 0], dtype=complex))


def test_apply_agrees_with_brute_force_embedding(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        wires = tuple(f"w{i}" for i in range(n))
        k = int(rng.integers(1, min(n, 3) + 1))
        positions = list(rng.choice(n, size=k, replace=False))
        gate = UnitaryGate(k, random_unitary(rng, 1 << k))
        s = rand_state(rng, wires)
        got = apply(gate, tuple(wires[p] for p in positions), s)
        want = embed(gate.matrix, positions, n) @ s.amps
        assert np.allclose(got.amps, want, atol=1e-12)


def test_apply_preserves_norm_for_random_gates(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        wires = tuple(f"w{i}" for i in range(n))
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        gate = UnitaryGate(k, random_unitary(rng, 1 << k))
        s = rand_state(rng, wires)
        out = apply(gate, tuple(wires[p] for p in positions), s)
        assert abs(out.norm_sq - s.norm_sq) <= 1e-12 * max(s.norm_sq, 1.0)


def test_apply_rejects_bad_targets():
    s = bell(0, 0, ("a", "b"))
    with pytest.raises(StateError):
        apply(sigma(0, 1), ("a", "b"), s)  # arity mismatch
    with pytest.raises(WireError):
        apply(sigma(0, 1), ("z",), s)  # unknown wire
    g2 = UnitaryGate(2, np.eye(4))
    with pytest.raises(WireError):
        apply(g2, ("a", "a"), s)  # repeated target


# ----------------------------------------------------------- inner product


def test_bell_states_are_orthogonal_with_norm_two():
    states = {(x, y): bell(x, y, ("a", "b")) for x in (0, 1) for y in (0, 1)}
    assert inner_product(states[(0, 0)], states[(0, 1)]) == 0
    for s in states.values():
        assert inner_product(s, s) == 2.0


def test_inner_product_of_normalized_state_is_one(rng):
    s = rand_state(rng, ("a", "b"))
    normalized = PureState(s.wires, s.amps / np.sqrt(s.norm_sq))
    assert inner_product(normalized, normalized) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_conjugate_symmetry(rng):
    s1, s2 = rand_state(rng, ("a", "b")), rand_state(rng, ("a", "b"))
    assert inner_product(s1, s2) == np.conj(inner_product(s2, s1))


def test_inner_product_requires_matching_wires():
    with pytest.raises(WireError):
        inner_product(qubit("a", 1, 0), qubit("b", 1, 0))
    with pytest.raises(WireError):
        inner_product(bell(0, 0, ("a", "b")), bell(0, 0, ("b", "a")))


# -------------------------------------------------------- equal up to phase


def test_negation_is_a_phase(rng):
    s = rand_state(rng, ("a", "b"))
    assert equal_up_to_phase(s, PureState(s.wires, -s.amps))


def test_orthogonal_states_are_not_phase_equal():
    assert not equal_up_to_phase(bell(0, 0, ("a", "b")), bell(0, 1, ("a", "b")))


def test_unit_phases_and_scales_are_ignored(rng):
    s = rand_state(rng, ("a", "b", "c"))
    for theta in rng.uniform(0, 2 * np.pi, size=10):
        rotated = PureState(s.wires, np.exp(1j * theta) * s.amps)
        assert equal_up_to_phase(rotated, s)
    assert equal_up_to_phase(PureState(s.wires, 3.7 * s.amps), s)


def test_zero_states_rejected():
    z = PureState(("a",), np.zeros(2, dtype=complex))
    v = qubit("a", 1, 0)
    with pytest.raises(ZeroStateError):
        equal_up_to_phase(z, v)
    with pytest.raises(ZeroStateError):
        equal_up_to_phase(v, z)
    with pytest.raises(ZeroStateError):
        fidelity(z, v)
    with pytest.raises(ZeroStateError):
        schmidt_factor(z, Bipartition(frozenset("a"), frozenset()))
    with pytest.raises(ZeroStateError):
        branch_decompose(z, ("a",))


# -------------------------------------------------------------- far scales

# at these scales a squared norm underflows or overflows, or the product of
# two of them does
FAR_SCALES = (1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300)


@pytest.mark.parametrize("scale", FAR_SCALES)
def test_comparisons_hold_at_any_scale(rng, scale):
    s = rand_state(rng, ("a", "b", "c"))
    other = rand_state(rng, s.wires)
    far = PureState(s.wires, scale * s.amps)
    assert equal_up_to_phase(far, s) and equal_up_to_phase(s, far)
    assert not equal_up_to_phase(far, PureState(s.wires, scale * other.amps))
    assert fidelity(far, other) == pytest.approx(fidelity(s, other), rel=1e-12)
    cut = Bipartition(frozenset("a"), frozenset("bc"))
    assert schmidt_factor(far, cut)[0] == schmidt_factor(s, cut)[0] == 2
    near_weights = [b.weight for b in branch_decompose(s, ("a", "b")).branches]
    far_weights = [b.weight for b in branch_decompose(far, ("a", "b")).branches]
    assert far_weights == pytest.approx(near_weights, rel=1e-12)


@pytest.mark.parametrize("scale", (1e-5, 1e-200, 1e160))
def test_norm_drift_is_relative_at_any_scale(scale):
    before = qubit("a", scale, 0)
    assert norm_drift(before, qubit("a", 0, scale)) == 0.0
    assert norm_drift(before, qubit("a", 2 * scale, 0)) == pytest.approx(3.0)
    with pytest.raises(ZeroStateError):
        norm_drift(PureState(("a",), np.zeros(2)), before)


# ---------------------------------------------------------- schmidt factor


def test_product_state_has_rank_one():
    s = tensor(basis_state(("a",), (0,)), basis_state(("b",), (1,)))
    rank, factors = schmidt_factor(s, Bipartition(frozenset("a"), frozenset("b")))
    assert rank == 1
    left, right = factors
    assert equal_up_to_phase(left, basis_state(("a",), (0,)))
    assert equal_up_to_phase(right, basis_state(("b",), (1,)))


def test_shared_pair_has_rank_two():
    rank, factors = schmidt_factor(
        bell(0, 0, ("a", "b")), Bipartition(frozenset("a"), frozenset("b"))
    )
    assert rank == 2
    assert factors is None


def test_schmidt_recovers_tensor_factors(rng):
    for _ in range(20):
        s1 = rand_state(rng, ("a", "b"))
        s2 = rand_state(rng, ("c",))
        joint = tensor(s1, s2)
        rank, factors = schmidt_factor(joint, Bipartition({"a", "b"}, {"c"}))
        assert rank == 1
        left, right = factors
        assert equal_up_to_phase(left, s1)
        assert equal_up_to_phase(right, s2)
        rebuilt = tensor(left, right)
        assert equal_up_to_phase(rebuilt, joint)
        assert np.allclose(rebuilt.amps, joint.amps, atol=1e-12 * np.abs(joint.amps).max())


def test_cut_must_cover_the_wires():
    s = bell(0, 0, ("a", "b"))
    with pytest.raises(WireError):
        schmidt_factor(s, Bipartition(frozenset("a"), frozenset("c")))
    with pytest.raises(WireError):
        Bipartition(frozenset("a"), frozenset("a"))


# -------------------------------------------------------- branch decompose


def test_product_with_pointer_gives_single_branch(rng):
    r = rand_state(rng, ("x", "y"))
    s = tensor(basis_state(("E1", "E2"), (1, 0)), r)
    decomp = branch_decompose(s, ("E1", "E2"))
    assert [b.bits for b in decomp.branches] == [(1, 0)]
    branch = decomp.branches[0]
    assert branch.weight == pytest.approx(1.0, abs=1e-12)
    assert branch.raw_weight == pytest.approx(r.norm_sq, rel=1e-12)
    assert np.array_equal(branch.residual.amps, r.amps)


def test_single_branch_of_the_recorded_pointer_state():
    # knowledge |00>, matching Bell component, pointer reading 00
    s = tensor(
        basis_state(("c", "d"), (0, 0)),
        bell(0, 0, ("a", "b")),
        basis_state(("E1", "E2"), (0, 0)),
    )
    decomp = branch_decompose(s, ("E1", "E2"))
    assert len(decomp.branches) == 1
    assert decomp.branches[0].label == "00"
    assert decomp.branches[0].weight == pytest.approx(1.0, abs=1e-12)


def test_four_branch_measurement_superposition(rng):
    alpha, beta = 0.6, 0.8j
    residuals = {
        (0, 0): (alpha, beta),
        (0, 1): (-beta, alpha),
        (1, 0): (beta, alpha),
        (1, 1): (-alpha, beta),
    }
    total = None
    for (x, y), (a0, a1) in residuals.items():
        part = tensor(basis_state(("E1", "E2"), (x, y)), bell(x, y, ("u", "a")), qubit("b", a0, a1))
        total = part if total is None else PureState(total.wires, total.amps + part.amps)
    decomp = branch_decompose(total, ("E1", "E2"))
    assert len(decomp.branches) == 4
    for branch in decomp.branches:
        x, y = branch.bits
        a0, a1 = residuals[(x, y)]
        want = tensor(bell(x, y, ("u", "a")), qubit("b", a0, a1))
        assert equal_up_to_phase(branch.residual, want)
        assert branch.weight == pytest.approx(0.25, abs=1e-12)


def test_branch_weights_sum_to_one(rng):
    for _ in range(20):
        s = rand_state(rng, ("a", "b", "c", "d"))
        decomp = branch_decompose(s, ("b", "d"))
        assert sum(b.weight for b in decomp.branches) == pytest.approx(1.0, abs=1e-12)


def test_branch_decompose_rejects_bad_pointers(rng):
    s = rand_state(rng, ("a", "b"))
    with pytest.raises(WireError):
        branch_decompose(s, ())
    with pytest.raises(WireError):
        branch_decompose(s, ("a", "a"))
    with pytest.raises(WireError):
        branch_decompose(s, ("z",))


# -------------------------------------------------------------------- dump


def test_dump_format_is_sorted_and_sparse():
    s = tensor(basis_state(("c",), (0,)), basis_state(("d",), (1,)), bell(0, 1, ("a", "b")))
    assert dump_state(s).splitlines() == [
        "wires: c d a b",
        "0101 1.000000000000 0.000000000000",
        "0110 -1.000000000000 0.000000000000",
    ]
