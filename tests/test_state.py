import itertools

import numpy as np
import pytest
from conftest import embed, permute_wires, random_amps, random_unitary, traced_peak
from test_properties import product_on_cut

from everettsim.gates import UnitaryGate, bell, sigma
from everettsim.state import (
    DEFAULT_TOL,
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
    fmt12,
    inner_product,
    norm_drift,
    qubit,
    schmidt_factor,
    tensor,
    wire_factor,
)
from everettsim.state import _DOT_BLOCK, _sum_sq


def rand_state(rng, wires):
    return PureState(wires, random_amps(rng, 1 << len(wires)))


# ---------------------------------------------------------------- PureState


def test_amps_length_must_match_wire_count():
    with pytest.raises(StateError):
        PureState(("a", "b"), np.ones(3, dtype=complex))
    # amps of any shape is one vector, a 2-D array too
    assert PureState(("a", "b"), np.eye(2)).amps.tolist() == [1, 0, 0, 1]
    with pytest.raises(StateError, match="1 wires need 2 amplitudes, got 4"):
        PureState(("a",), np.eye(2))


def test_duplicate_and_invalid_labels_rejected():
    with pytest.raises(WireError, match=r"^duplicate wire labels in \('a', 'a'\)$"):
        PureState(("a", "a"), np.ones(4, dtype=complex))
    with pytest.raises(WireError, match=r"^bad wire label 'a b'$"):
        PureState(("a b",), np.ones(2, dtype=complex))
    with pytest.raises(WireError, match=r"^bad wire label ''$"):
        PureState(("",), np.ones(2, dtype=complex))


def test_labels_of_any_type_and_iterable_become_str():
    amps = np.ones(4, dtype=complex)
    for wires, want in (
        ((np.str_("a"), np.str_("b")), ("a", "b")),
        (["a", "b"], ("a", "b")),
        ((w for w in "ab"), ("a", "b")),
        ((1, True), ("1", "True")),
    ):
        labels = PureState(wires, amps).wires
        assert labels == want and all(type(w) is str for w in labels)


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


@pytest.mark.parametrize("bits", [(2, 0, 1), (-1, 0, 0), (1.0, 0, 0)])
def test_index_of_rejects_a_non_bit_as_basis_state_does(bits):
    s = basis_state(("a", "b", "c"), (0, 0, 0))
    with pytest.raises(StateError, match="bit must be 0 or 1"):
        s.index_of(bits)
    with pytest.raises(StateError, match="bit must be 0 or 1"):
        basis_state(("a", "b", "c"), bits)


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


def test_tensor_refuses_a_state_wider_than_max_wires(small_wire_limit):
    half = (small_wire_limit + 2) // 2
    s1 = basis_state(tuple(f"l{i}" for i in range(half)), (0,) * half)
    s2 = basis_state(tuple(f"r{i}" for i in range(half)), (1,) * half)
    limit = f"{2 * half} wires exceeds the limit of {small_wire_limit}"
    with pytest.raises(StateError, match=limit):
        tensor(s1, s2)
    # the product would take 2**18 amplitudes, 4 MiB
    assert traced_peak() < 2**20


def test_basis_state_refuses_a_state_wider_than_max_wires(small_wire_limit):
    n = small_wire_limit + 1
    with pytest.raises(StateError, match=f"{n} wires exceeds the limit of {small_wire_limit}"):
        basis_state(tuple(f"w{i}" for i in range(n)), (0,) * n)
    # the state would take 2**17 amplitudes, 2 MiB, and PureState a copy as large
    assert traced_peak() < 2**20


@pytest.mark.parametrize("partial", [False, True])
def test_tensor_refuses_a_product_that_overflows(partial):
    big = [qubit(w, 1e150, 1e150) for w in "abc"]
    if partial:
        # only the products that take b's second amplitude overflow
        big[1] = qubit("b", 1.0, 1e150)
    with pytest.raises(StateError, match="^tensor product overflows the float range$"):
        tensor(*big)


def test_tensor_refuses_nonzero_factors_whose_product_rounds_to_zero():
    tiny = qubit("a", 1e-200, 0), qubit("b", 0, 1e-200)
    with pytest.raises(StateError, match="^tensor product of nonzero factors rounds to the zero vector$"):
        tensor(*tiny)


def test_tensor_keeps_the_zero_state_of_a_zero_factor():
    zero = PureState(("a",), np.zeros(2))
    assert not tensor(zero, qubit("b", 1e-200, 1)).amps.any()
    assert not tensor(qubit("b", 1e300, 1e300), zero).amps.any()
    # a tiny product next to an amplitude that survives is no error
    assert tensor(qubit("a", 1e-200, 1), qubit("b", 1e-200, 1)).amps[0] == 0


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
    with pytest.raises(WireError, match="not a permutation"):
        permute_wires(left, ("c", "a", "a"))


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
    # arities 1..4 (cu_meas is 4) on up to 7 wires, targets in any order
    for _ in range(60):
        n = int(rng.integers(1, 8))
        wires = tuple(f"w{i}" for i in range(n))
        k = int(rng.integers(1, min(n, 4) + 1))
        positions = list(rng.choice(n, size=k, replace=False))
        gate = UnitaryGate(k, random_unitary(rng, 1 << k))
        s = rand_state(rng, wires)
        got = apply(gate, tuple(wires[p] for p in positions), s)
        want = embed(gate.matrix, positions, n) @ s.amps
        assert np.allclose(got.amps, want, atol=1e-12)
        assert not got.amps.flags.writeable
        assert not np.shares_memory(got.amps, s.amps)


def test_kernels_split_long_blas_calls_into_blocks_that_agree(rng):
    # 16 wires: apply, norm_sq and the large Schmidt factor all run as
    # stacks of BLAS blocks (4 of them for one wire, 32 for four)
    n = 16
    wires = tuple(f"w{i}" for i in range(n))
    s = rand_state(rng, wires)
    for positions in ([9], [3, 14, 0, 7]):
        k = len(positions)
        gate = UnitaryGate(k, random_unitary(rng, 1 << k))
        got = apply(gate, tuple(wires[p] for p in positions), s)
        rows = np.moveaxis(s.amps.reshape((2,) * n), positions, range(k)).reshape(1 << k, -1)
        want = np.moveaxis((gate.matrix @ rows).reshape((2,) * n), range(k), positions)
        assert np.allclose(got.amps, want.reshape(-1), rtol=0, atol=1e-12)
    assert s.norm_sq == pytest.approx(np.vdot(s.amps, s.amps).real, rel=1e-12)
    for split in ((wires[:1], wires[1:]), (wires[:-1], wires[-1:])):
        joint = tensor(rand_state(rng, split[0]), rand_state(rng, split[1]))
        rank, (left, right) = schmidt_factor(joint, Bipartition(*split))
        assert rank == 1
        assert np.allclose(tensor(left, right).amps, joint.amps, rtol=0, atol=1e-12)
    # the QR reduces over row blocks: a second Schmidt direction that lives
    # in one row of the 2**15 x 2 cut matrix counts wherever that row is
    right = rand_state(rng, wires[-1:]).amps
    product = tensor(rand_state(rng, wires[:-1]), PureState(wires[-1:], right))
    # a unit row orthogonal to every row of the product's cut matrix
    orth = np.array([right[1], -right[0]]).conj() / np.linalg.norm(right)
    for row in (0, 12345, (1 << 15) - 1):
        for eps, want in ((1e-3 * DEFAULT_TOL, 1), (1e3 * DEFAULT_TOL, 2)):
            mat = product.amps.reshape(-1, 2).copy()
            # second singular value about eps times the first
            mat[row] += eps * np.sqrt(product.norm_sq) * orth
            s = PureState(wires, mat.reshape(-1))
            assert schmidt_factor(s, Bipartition(wires[:-1], wires[-1:]))[0] == want


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


@pytest.mark.parametrize("n", range(14))
def test_sum_sq_of_a_small_state_matches_vecdot_at_every_scale(n):
    # a single state of at most _DOT_BLOCK amplitudes sums by np.vdot, which
    # needs no np.errstate; on one amplitude that overflows np.vdot may give
    # nan where vecdot gives inf, so that one keeps vecdot
    assert 1 << n <= _DOT_BLOCK
    rng = np.random.default_rng(n)
    # parts near 10**exponent: signed zeros below the smallest subnormal,
    # squares past the largest float above 1e154
    for exponent in range(-330, 306, 5):
        amps = random_amps(rng, 2 << n) * 10.0**exponent
        amps[rng.random(amps.shape) < 0.1] = -0.0
        for view in (amps[: 1 << n], amps[::2]):
            with np.errstate(all="ignore"):
                want = np.vecdot(view, view)[()].real
            got = _sum_sq(view)
            assert np.isnan(got) == np.isnan(want)
            assert np.isnan(got) or got == want and np.signbit(got) == np.signbit(want)


# inner_product has its own: test_inner_product_requires_matching_wires
@pytest.mark.parametrize("kernel", [equal_up_to_phase, fidelity, norm_drift])
def test_a_state_pairs_only_with_one_on_the_same_wires(kernel):
    with pytest.raises(WireError, match="wire mismatch"):
        kernel(qubit("a", 1, 0), qubit("b", 1, 0))
    with pytest.raises(WireError, match="wire mismatch"):
        kernel(bell(0, 0, ("a", "b")), bell(0, 0, ("b", "a")))


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


@pytest.mark.parametrize("left_wires,right_wires", [
    (("a",), ("b", "c", "d", "e")),  # the small side on the left
    (("a", "b", "c", "d"), ("e",)),  # the small side on the right
    (("a", "b"), ("c", "d")),  # square
])
def test_schmidt_factors_either_orientation(rng, left_wires, right_wires):
    s1, s2 = rand_state(rng, left_wires), rand_state(rng, right_wires)
    # interleave the two sides, each keeping its own order
    sides = [list(left_wires), list(right_wires)]
    picks = rng.permutation([0] * len(left_wires) + [1] * len(right_wires))
    joint = permute_wires(tensor(s1, s2), [sides[p].pop(0) for p in picks])
    rank, (left, right) = schmidt_factor(joint, Bipartition(left_wires, right_wires))
    assert rank == 1
    assert (left.wires, right.wires) == (left_wires, right_wires)
    assert equal_up_to_phase(left, s1) and equal_up_to_phase(right, s2)
    # the side with fewer amplitudes is a unit vector, the other carries the norm
    unit = left if len(left_wires) < len(right_wires) else right
    assert unit.norm_sq == pytest.approx(1.0, abs=1e-12)
    rebuilt = permute_wires(tensor(left, right), joint.wires)
    assert np.allclose(rebuilt.amps, joint.amps, atol=1e-12 * np.abs(joint.amps).max())


@pytest.mark.parametrize("cut", [
    Bipartition(frozenset("a"), frozenset("bcdef")),
    Bipartition(frozenset("bcdef"), frozenset("a")),
])
def test_schmidt_rank_threshold_is_relative_to_tol(rng, cut):
    # a unit product plus eps times a unit state of Schmidt rank 2 across
    # the cut has second singular value about eps/sqrt(2)
    product = tensor(rand_state(rng, ("a",)), rand_state(rng, ("b", "c", "d", "e", "f")))
    product = PureState(product.wires, product.amps / np.sqrt(product.norm_sq))
    entangled = tensor(bell(0, 0, ("a", "b")), basis_state(("c", "d", "e", "f"), (1, 0, 1, 1)))
    entangled = PureState(entangled.wires, entangled.amps / np.sqrt(2))
    for eps, want in ((1e-3 * DEFAULT_TOL, 1), (1e3 * DEFAULT_TOL, 2)):
        s = PureState(product.wires, product.amps + eps * entangled.amps)
        assert schmidt_factor(s, cut)[0] == want


@pytest.mark.parametrize("scale", (1e-300, 1e300))
@pytest.mark.parametrize("split", [(("a",), ("b", "c")), (("a", "b"), ("c",))])
def test_schmidt_factors_rebuild_the_state_at_far_scales(rng, scale, split):
    s1, s2 = rand_state(rng, split[0]), rand_state(rng, split[1])
    joint = tensor(s1, s2)
    far = PureState(joint.wires, scale * joint.amps)
    rank, (left, right) = schmidt_factor(far, Bipartition(*split))
    assert rank == 1
    rebuilt = tensor(left, right)
    atol = 1e-12 * np.abs(joint.amps).max()
    assert np.allclose(rebuilt.amps / scale, joint.amps, rtol=1e-12, atol=atol)


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


def one_wire_cut(rng, n, wire, rank, scale):
    """A sum of `rank` products across (the other wires | `wire`) over w0..w(n-1), times scale."""
    s, _, _ = product_on_cut(rng, n, (wire,), rank)
    return PureState(s.wires, s.amps * scale)


@pytest.mark.parametrize("n,positions", [(1, (0,)), (2, (0, 1)), (3, (0, 1, 2)), (12, (0, 5, 11))])
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_wire_factor_is_schmidt_factors_right_factor_bit_for_bit(n, positions, scale):
    rng = np.random.default_rng([n, int(np.log10(scale)) + 200])
    for position, rank in itertools.product(positions, (1, 2) if n > 1 else (1,)):
        wire = f"w{position}"
        s = one_wire_cut(rng, n, wire, rank, scale)
        got_rank, got = wire_factor(s, wire)
        want_rank, want = schmidt_factor(s, Bipartition(frozenset(s.wires) - {wire}, frozenset({wire})))
        assert got_rank == want_rank == rank
        if rank == 1:
            assert got.wires == want[1].wires == (wire,)
            assert got.amps.tobytes() == want[1].amps.tobytes()
        else:
            assert got is None


@pytest.mark.parametrize("position", [0, 12, 19])
def test_wire_factor_of_a_20_wire_state_is_schmidt_factors_right_factor(position):
    wire = f"w{position}"
    s = one_wire_cut(np.random.default_rng(position), 20, wire, 1, 1.0)
    rank, factor = wire_factor(s, wire)
    cut = Bipartition(frozenset(s.wires) - {wire}, frozenset({wire}))
    assert rank == 1
    assert factor.amps.tobytes() == schmidt_factor(s, cut)[1][1].amps.tobytes()


def test_wire_factor_refuses_an_unknown_wire_and_a_zero_state():
    with pytest.raises(WireError, match="unknown wire"):
        wire_factor(bell(0, 0, ("a", "b")), "c")
    with pytest.raises(WireError, match="unknown wire"):
        wire_factor(qubit("a", 1, 0), "c")
    with pytest.raises(ZeroStateError):
        wire_factor(PureState(("a", "b"), np.zeros(4)), "b")


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


@pytest.mark.parametrize("x,text", [
    (-0.0, "0.000000000000"),
    (-1e-14, "0.000000000000"),
    (-4.9e-13, "0.000000000000"),
    (-6e-13, "-0.000000000001"),
    (1e-14, "0.000000000000"),
    (-0.5, "-0.500000000000"),
])
def test_fmt12_prints_no_negative_zero(x, text):
    assert fmt12(x) == text


def test_dump_format_is_sorted_and_sparse():
    s = tensor(basis_state(("c",), (0,)), basis_state(("d",), (1,)), bell(0, 1, ("a", "b")))
    assert dump_state(s).splitlines() == [
        "wires: c d a b",
        "0101 1.000000000000 0.000000000000",
        "0110 -1.000000000000 0.000000000000",
    ]
