import numpy as np
import pytest
from conftest import random_unitary

from everettsim.circuit import exec_circuit, parse_circuit
from everettsim.gates import (
    GateError,
    UnitaryGate,
    bell,
    cu_meas,
    cu_sigma,
    reversed_convention_matrix,
    sigma,
    u_b_decoder,
)
from everettsim.state import PureState, apply, basis_state, qubit, tensor

# the same four encoders as displayed with the one-qubit basis order flipped
FLIPPED = {
    (0, 0): np.array([[1, 0], [0, 1]]),
    (0, 1): np.array([[0, 1], [1, 0]]),
    (1, 0): np.array([[0, -1], [1, 0]]),
    (1, 1): np.array([[1, 0], [0, -1]]),
}


def ket(x):
    return np.array([1 - x, x], dtype=complex)


# ------------------------------------------------------------------- sigma


def test_sigma00_is_identity():
    assert np.array_equal(sigma(0, 0).matrix, np.eye(2))


def test_sigma01_swaps_basis_kets():
    g = sigma(0, 1)
    assert np.array_equal(g.matrix @ ket(0), ket(1))
    assert np.array_equal(g.matrix @ ket(1), ket(0))


def test_sigma10_flips_with_a_sign():
    g = sigma(1, 0)
    assert np.array_equal(g.matrix @ ket(0), -ket(1))
    assert np.array_equal(g.matrix @ ket(1), ket(0))
    assert np.array_equal(g.matrix, np.array([[0, 1], [-1, 0]]))


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_sigma_action_rules(p, q):
    g = sigma(p, q)
    assert np.abs(g.matrix @ ket(0) - (-1.0) ** p * ket((p + q) % 2)).max() < 1e-14
    assert np.abs(g.matrix @ ket(1) - ket((p + q + 1) % 2)).max() < 1e-14


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_sigma_matches_reference_in_flipped_convention(p, q):
    assert np.array_equal(reversed_convention_matrix(sigma(p, q)), FLIPPED[(p, q)])


def test_sigma_rejects_non_bits():
    with pytest.raises(GateError):
        sigma(2, 0)


def test_sigma_reads_a_bool_as_its_int_and_rejects_a_float():
    # the first call for a cache key builds the gate that every equal key gets
    sigma.cache_clear()
    assert sigma(True, 1).name == "sigma11"
    world, _ = exec_circuit(parse_circuit("wire a @ Alice\ninit a = |0>\ngate sigma11 a @ Alice\n"))
    assert world.trace[-1].record()["gate"] == "sigma11"
    with pytest.raises(GateError, match="bits required"):
        sigma(1.0, 0)


# -------------------------------------------------------------------- bell


def test_bell00_is_the_shared_pair():
    assert np.array_equal(bell(0, 0, ("a", "b")).amps, np.array([1, 0, 0, 1], dtype=complex))


def test_bell01_has_a_minus_sign():
    assert np.array_equal(bell(0, 1, ("a", "b")).amps, np.array([0, 1, -1, 0], dtype=complex))


def test_bell_gram_matrix_is_twice_identity():
    vecs = [bell(x, y, ("a", "b")).amps for x in (0, 1) for y in (0, 1)]
    gram = np.array([[np.vdot(v, w) for w in vecs] for v in vecs])
    assert np.array_equal(gram, 2 * np.eye(4))


def test_bell_states_span_the_two_qubit_space():
    vecs = np.array([bell(x, y, ("a", "b")).amps for x in (0, 1) for y in (0, 1)])
    assert np.linalg.matrix_rank(vecs) == 4


def test_bell_needs_two_wires_and_bits():
    with pytest.raises(GateError):
        bell(0, 0, ("a",))
    with pytest.raises(GateError):
        bell(0, 3, ("a", "b"))
    with pytest.raises(GateError):
        bell(1.0, 0, ("a", "b"))


# --------------------------------------------------------------- UnitaryGate


def test_non_unitary_matrices_are_rejected():
    with pytest.raises(GateError):
        UnitaryGate(1, np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(GateError):
        UnitaryGate(2, np.eye(3))
    with pytest.raises(GateError):
        UnitaryGate(1, np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(GateError):
        UnitaryGate(-1, np.eye(1))
    with pytest.raises(GateError):
        UnitaryGate(1.5, np.eye(2))


def test_gate_matrix_is_frozen():
    g = sigma(0, 1)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 9.0


def test_signed_permutations_list_their_entries_and_dense_gates_do_not(rng):
    assert sigma(1, 0).monomial == ((0, 1, 1.0), (1, 0, -1.0))
    for gate in (cu_sigma(), u_b_decoder(), UnitaryGate(2, np.eye(4)[[2, 0, 3, 1]] * 1j)):
        rows = [row for row, _, _ in gate.monomial]
        cols = sorted(col for _, col, _ in gate.monomial)
        assert rows == cols == list(range(1 << gate.arity))
        for row, col, entry in gate.monomial:
            assert gate.matrix[row, col] == entry
    assert u_b_decoder().monomial[3] == (3, 2, -1.0)  # |011> -> -|010>
    assert cu_meas().monomial is None
    assert UnitaryGate(1, random_unitary(rng, 2)).monomial is None


# ---------------------------------------------------------------- cu_sigma


def test_cu_sigma_applies_sigma_on_every_basis_ket():
    g = cu_sigma()
    for p in (0, 1):
        for q in (0, 1):
            for x in (0, 1):
                state = tensor(basis_state(("c", "d"), (p, q)), basis_state(("a",), (x,)))
                got = apply(g, ("c", "d", "a"), state)
                want = tensor(
                    basis_state(("c", "d"), (p, q)),
                    PureState(("a",), sigma(p, q).matrix @ ket(x)),
                )
                assert np.array_equal(got.amps, want.amps)


def test_cu_sigma_fixes_the_all_zero_control():
    g = cu_sigma()
    for x in (0, 1):
        state = tensor(basis_state(("c", "d"), (0, 0)), basis_state(("a",), (x,)))
        assert np.array_equal(apply(g, ("c", "d", "a"), state).amps, state.amps)


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("q", [0, 1])
def test_cu_sigma_on_the_shared_pair(p, q):
    state = tensor(basis_state(("c", "d"), (p, q)), bell(0, 0, ("a", "b")))
    got = apply(cu_sigma(), ("c", "d", "a"), state)
    want = np.zeros(16, dtype=complex)
    want[state.index_of((p, q, (p + q) % 2, 0))] = (-1.0) ** p
    want[state.index_of((p, q, (p + q + 1) % 2, 1))] = 1.0
    assert np.array_equal(got.amps, want)


def test_cu_sigma_sign_on_the_double_one_control():
    state = basis_state(("c", "d", "a"), (1, 1, 0))
    got = apply(cu_sigma(), ("c", "d", "a"), state)
    assert np.array_equal(got.amps, -state.amps)


# ----------------------------------------------------------------- cu_meas


def test_cu_meas_records_the_outcome_on_a_reset_pointer():
    g = cu_meas()
    for x in (0, 1):
        for y in (0, 1):
            state = tensor(basis_state(("E1", "E2"), (0, 0)), bell(x, y, ("m1", "m2")))
            want = tensor(basis_state(("E1", "E2"), (x, y)), bell(x, y, ("m1", "m2")))
            got = apply(g, ("E1", "E2", "m1", "m2"), state)
            assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_cu_meas_shifts_any_pointer_value():
    g = cu_meas()
    for m in (0, 1):
        for n in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    state = tensor(basis_state(("E1", "E2"), (m, n)), bell(x, y, ("m1", "m2")))
                    want = tensor(
                        basis_state(("E1", "E2"), (m ^ x, n ^ y)), bell(x, y, ("m1", "m2"))
                    )
                    got = apply(g, ("E1", "E2", "m1", "m2"), state)
                    assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_cu_meas_specific_shift_example():
    # pointer 10 with Bell component (0,1) reads out 11
    state = tensor(basis_state(("E1", "E2"), (1, 0)), bell(0, 1, ("m1", "m2")))
    want = tensor(basis_state(("E1", "E2"), (1, 1)), bell(0, 1, ("m1", "m2")))
    got = apply(cu_meas(), ("E1", "E2", "m1", "m2"), state)
    assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_cu_meas_full_matrix_is_exactly_unitary():
    g = cu_meas()
    assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(16)).max() == 0.0


# ------------------------------------------------------------- u_b_decoder


@pytest.mark.parametrize("x", [0, 1])
@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("z", [0, 1])
def test_decoder_rule(x, y, z):
    state = basis_state(("E1", "E2", "b"), (x, y, z))
    got = apply(u_b_decoder(), ("E1", "E2", "b"), state)
    want = np.zeros(8, dtype=complex)
    want[state.index_of((x, y, (z + x + y) % 2))] = (-1.0) ** (y * (z + 1))
    assert np.array_equal(got.amps, want)


def test_decoder_sign_example():
    # pointer 01 sends |0> to -|1>
    state = basis_state(("E1", "E2", "b"), (0, 1, 0))
    got = apply(u_b_decoder(), ("E1", "E2", "b"), state)
    want = -basis_state(("E1", "E2", "b"), (0, 1, 1)).amps
    assert np.array_equal(got.amps, want)


def test_decoder_restores_every_branch_residual(rng):
    residual = {
        (0, 0): lambda a, b: (a, b),
        (0, 1): lambda a, b: (-b, a),
        (1, 0): lambda a, b: (b, a),
        (1, 1): lambda a, b: (-a, b),
    }
    for _ in range(20):
        re_im = rng.standard_normal(4)
        alpha, beta = complex(re_im[0], re_im[1]), complex(re_im[2], re_im[3])
        for (x, y), res in residual.items():
            a0, a1 = res(alpha, beta)
            state = tensor(basis_state(("E1", "E2"), (x, y)), qubit("b", a0, a1))
            got = apply(u_b_decoder(), ("E1", "E2", "b"), state)
            want = tensor(basis_state(("E1", "E2"), (x, y)), qubit("b", alpha, beta))
            assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_decoder_disentangles_the_four_branch_state(rng):
    alpha, beta = complex(0.3, -0.4), complex(0.5, 0.7)
    residuals = {
        (0, 0): (alpha, beta),
        (0, 1): (-beta, alpha),
        (1, 0): (beta, alpha),
        (1, 1): (-alpha, beta),
    }
    total = None
    pointer_part = None
    for (x, y), (a0, a1) in residuals.items():
        part = tensor(basis_state(("E1", "E2"), (x, y)), bell(x, y, ("u", "a")), qubit("b", a0, a1))
        ptr = tensor(basis_state(("E1", "E2"), (x, y)), bell(x, y, ("u", "a")))
        total = part if total is None else PureState(total.wires, total.amps + part.amps)
        pointer_part = (
            ptr if pointer_part is None else PureState(ptr.wires, pointer_part.amps + ptr.amps)
        )
    got = apply(u_b_decoder(), ("E1", "E2", "b"), total)
    want = tensor(pointer_part, qubit("b", alpha, beta))
    assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_fixed_gates_are_unitary_within_tolerance():
    for g in (cu_sigma(), cu_meas(), u_b_decoder()):
        dim = 1 << g.arity
        assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(dim)).max() <= 1e-12
