import numpy as np
import pytest
from conftest import embed

from everettsim import circuit, protocols
from everettsim.circuit import GATES
from everettsim.gates import (
    UnitaryGate,
    bell,
    cu_meas,
    cu_sigma,
    sigma,
)
from everettsim.protocols import (
    Agent,
    DecomposeEvent,
    GateEvent,
    InitEvent,
    LocalityError,
    ProtocolError,
    TransferEvent,
    apply_local,
    audit_locality,
    decode_table,
    derive_decode_table,
    empty_world,
    init_wires,
    pointer_bell_sum,
    run_superdense,
    run_teleport,
    transfer,
)
from everettsim.state import (
    PureState,
    basis_state,
    branch_decompose,
    equal_up_to_phase,
    qubit,
    schmidt_factor,
    tensor,
)

# hand-derived by expanding the encoded pair in the Bell basis: the 01 and 10
# pointer labels come out swapped, 00 and 11 are fixed points
EXPECTED_TABLE = {(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (1, 1)}


def small_world():
    state = tensor(qubit("a", 1, 0), qubit("b", 0, 1))
    return init_wires(empty_world(), (state,), {"a": Agent.ALICE, "b": Agent.BOB}, ("pair",))


# ---------------------------------------------------------------- plumbing


def test_transfer_moves_a_wire_and_keeps_amplitudes():
    world = small_world()
    moved = transfer(world, "a", Agent.BOB)
    assert moved.holder("a") is Agent.BOB
    assert world.holder("a") is Agent.ALICE  # original world untouched
    assert np.array_equal(moved.state.amps, world.state.amps)
    event = moved.trace[-1]
    assert isinstance(event, TransferEvent)
    assert (event.wire, event.source, event.dest) == ("a", "Alice", "Bob")


def test_transfer_to_current_holder_is_a_recorded_noop():
    world = small_world()
    moved = transfer(world, "b", Agent.BOB)
    assert moved.holder("b") is Agent.BOB
    assert isinstance(moved.trace[-1], TransferEvent)
    assert moved.trace[-1].source == moved.trace[-1].dest == "Bob"


def test_transfer_of_unknown_wire_fails():
    with pytest.raises(ProtocolError):
        transfer(small_world(), "z", Agent.BOB)


def test_apply_local_requires_colocation():
    state = tensor(qubit("c", 1, 0), qubit("d", 0, 1), qubit("t", 1, 0))
    placements = {"c": Agent.ALICE, "d": Agent.ALICE, "t": Agent.BOB}
    world = init_wires(empty_world(), (state,), placements, ("split triple",))
    with pytest.raises(LocalityError):
        apply_local(world, cu_sigma(), ("c", "d", "t"), Agent.ALICE)
    moved = transfer(world, "t", Agent.ALICE)
    apply_local(moved, cu_sigma(), ("c", "d", "t"), Agent.ALICE)  # now allowed


def test_gate_events_record_name_wires_actor():
    state = tensor(qubit("c", 1, 0), qubit("d", 0, 1), qubit("t", 1, 0))
    world = init_wires(
        empty_world(), (state,), {k: Agent.ALICE for k in ("c", "d", "t")}, ("triple",)
    )
    world = apply_local(world, cu_sigma(), ("c", "d", "t"), Agent.ALICE)
    event = world.trace[-1]
    assert isinstance(event, GateEvent)
    assert event.gate == "cu_sigma"
    assert event.wires == ("c", "d", "t")
    assert event.actor == "Alice"


@pytest.mark.parametrize("scale", (1e-5, 1e160))
def test_apply_local_rejects_a_norm_change_at_any_scale(monkeypatch, scale):
    # a bound absolute below norm 1 let this pass, and so did inf - inf
    world = init_wires(empty_world(), (qubit("a", scale, 0),), {"a": Agent.ALICE}, ("far",))
    monkeypatch.setattr(
        protocols, "apply", lambda gate, targets, state: PureState(state.wires, 2 * state.amps)
    )
    with pytest.raises(ProtocolError, match="did not preserve the norm"):
        apply_local(world, sigma(0, 0), ("a",), Agent.ALICE)


def test_init_requires_full_placements():
    with pytest.raises(ProtocolError):
        init_wires(empty_world(), (qubit("a", 1, 0),), {}, ("missing placement",))


def test_a_run_of_inits_matches_one_init_at_a_time():
    rng = np.random.default_rng(22)
    wide = tuple(f"w{i}" for i in range(11))
    parts = rng.standard_normal((2, 1 << 11))
    parts[rng.random(parts.shape) < 0.25] = -0.0
    pieces = (
        qubit("a", 0.6, -0.0),
        PureState(wide, parts[0] + 1j * parts[1]),
        bell(0, 1, ("b", "c")),
        qubit("d", 1e-150, 2e-150j),
        qubit("e", -0.0, 1.0),
    )
    labels = tuple(f"piece {i}" for i in range(len(pieces)))
    placements = {w: Agent.BOB if w in "bd" else Agent.ALICE for p in pieces for w in p.wires}
    start = init_wires(empty_world(), (qubit("z", 0.8, 0.6j),), {"z": Agent.BOB}, ("z",))
    # from the empty world, and from one that already holds a state
    for world in (empty_world(), start):
        run = init_wires(world, pieces, placements, labels)
        folded = world
        for piece, label in zip(pieces, labels):
            alone = {w: placements[w] for w in piece.wires}
            folded = init_wires(folded, (piece,), alone, (label,))
        assert run.state.wires == folded.state.wires
        assert run.state.amps.tobytes() == folded.state.amps.tobytes()
        assert run.trace == folded.trace
        assert list(run.location.items()) == list(folded.location.items())


# -------------------------------------------------------------- superdense


@pytest.mark.parametrize("p,q", sorted(EXPECTED_TABLE))
def test_superdense_pointer_labels(p, q):
    result = run_superdense(p, q)
    assert result.pointer == EXPECTED_TABLE[(p, q)]
    assert result.branch_count == 1


def test_superdense_final_states_frozen():
    # hand-expanded final amplitudes over wires (c, d, a, b, E1, E2)
    expected = {
        (0, 0): {(0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0): 1},
        (0, 1): {(0, 1, 1, 0, 1, 0): 1, (0, 1, 0, 1, 1, 0): 1},
        (1, 0): {(1, 0, 0, 1, 0, 1): 1, (1, 0, 1, 0, 0, 1): -1},
        (1, 1): {(1, 1, 1, 1, 1, 1): 1, (1, 1, 0, 0, 1, 1): -1},
    }
    for (p, q), entries in expected.items():
        result = run_superdense(p, q)
        want = np.zeros(64, dtype=complex)
        for bits, amp in entries.items():
            want[result.final_state.index_of(bits)] = amp
        assert np.array_equal(result.final_state.amps, want), (p, q)


def test_superdense_against_brute_force_evolution():
    enc = embed(cu_sigma().matrix, [0, 1, 2], 6)  # wires (c,d,a,b,E1,E2)
    meas = embed(cu_meas().matrix, [4, 5, 2, 3], 6)
    for p in (0, 1):
        for q in (0, 1):
            vec = np.zeros(64, dtype=complex)
            base = (p << 5) | (q << 4)
            vec[base | (0b00 << 2)] = 1.0  # a=b=0
            vec[base | (0b11 << 2)] = 1.0  # a=b=1
            vec = meas @ (enc @ vec)
            result = run_superdense(p, q)
            assert np.allclose(result.final_state.amps, vec, atol=1e-12)


def test_superdense_keeps_alice_knowledge_intact():
    for p in (0, 1):
        for q in (0, 1):
            result = run_superdense(p, q)
            branch = branch_decompose(result.final_state, ("E1", "E2")).branches[0]
            knowledge = branch_decompose(branch.residual, ("c", "d"))
            assert [b.bits for b in knowledge.branches] == [(p, q)]


def test_superdense_moves_exactly_one_qubit():
    result = run_superdense(1, 0)
    transfers = [e for e in result.world.trace if isinstance(e, TransferEvent)]
    assert [t.wire for t in transfers] == ["a"]
    assert (transfers[0].source, transfers[0].dest) == ("Alice", "Bob")


def test_superdense_preserves_the_global_norm():
    for p in (0, 1):
        for q in (0, 1):
            result = run_superdense(p, q)
            assert result.final_state.norm_sq == pytest.approx(2.0, abs=1e-12)


def test_superdense_records_the_decomposition():
    result = run_superdense(0, 1)
    decompose = [e for e in result.world.trace if isinstance(e, DecomposeEvent)]
    assert len(decompose) == 1
    assert decompose[0].branches == (("10", 2.0, 1.0),)
    # the result keeps the decomposition that event records
    kept = result.decomposition
    assert kept.pointer == decompose[0].pointer
    assert tuple((b.label, b.raw_weight, b.weight) for b in kept.branches) == decompose[0].branches
    assert result.pointer == (1, 0) and result.branch_count == 1
    assert result.final_state is result.world.state


def test_superdense_rejects_non_bits():
    with pytest.raises(ValueError):
        run_superdense(2, 0)


def test_superdense_reads_a_bool_as_its_int_and_rejects_a_float():
    assert run_superdense(True, False).world.trace[0].state == "superdense(p=1,q=0)"
    with pytest.raises(ValueError, match="p must be 0 or 1"):
        run_superdense(1.0, 0)


def test_superdense_self_check_fires_on_a_tampered_encoder(monkeypatch):
    run_superdense(0, 1)  # the real encoder passes the check
    # the two control wires swapped: control (p, q) applies sigma(q, p)
    swap = [0, 1, 4, 5, 2, 3, 6, 7]
    tampered = UnitaryGate(3, cu_sigma().matrix[np.ix_(swap, swap)], name="cu_sigma")
    monkeypatch.setitem(GATES, "cu_sigma", GATES["cu_sigma"]._replace(build=lambda: tampered))
    with pytest.raises(ProtocolError, match=r"post-encoding state diverged for \(p,q\)=\(0,1\)"):
        run_superdense(0, 1)


def test_runners_parse_no_template_per_run(monkeypatch):
    run_superdense(0, 1)
    run_teleport(0.6, 0.8j)

    def no_parse(source):
        raise AssertionError("a runner parsed its template again")

    monkeypatch.setattr(circuit, "parse_circuit", no_parse)
    assert run_superdense(1, 0).pointer == (0, 1)
    assert run_teleport(0.6, 0.8j).fidelity == pytest.approx(1.0, abs=1e-12)


def test_decode_table_is_the_expected_bijection():
    table = derive_decode_table()
    assert table.mapping == EXPECTED_TABLE
    assert not table.is_identity
    assert len(set(table.mapping.values())) == 4


def test_decode_table_reads_runs_in_any_order():
    runs = [run_superdense(p, q) for p in (0, 1) for q in (0, 1)]
    assert decode_table(reversed(runs)) == derive_decode_table()
    # one input twice among five runs: four distinct labels, yet no bijection
    with pytest.raises(ProtocolError, match="not a bijection"):
        decode_table(runs + runs[:1])


# ------------------------------------------------------------ teleportation


def test_teleport_basis_inputs():
    r0 = run_teleport(1, 0)
    assert r0.fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r0.bob_qubit.amps, [1, 0], atol=1e-12)
    r1 = run_teleport(0, 1)
    assert r1.fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r1.bob_qubit.amps, [0, 1], atol=1e-12)
    assert r0.schmidt_rank_b_cut == r1.schmidt_rank_b_cut == 1


def test_teleport_random_inputs(rng):
    for _ in range(100):
        re_im = rng.standard_normal(4)
        alpha, beta = complex(re_im[0], re_im[1]), complex(re_im[2], re_im[3])
        norm = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
        result = run_teleport(alpha / norm, beta / norm)
        assert result.fidelity >= 1 - 1e-10
        assert result.schmidt_rank_b_cut == 1


def test_teleport_accepts_unnormalized_input():
    result = run_teleport(3.0, 4.0j)
    assert result.fidelity >= 1 - 1e-10
    assert equal_up_to_phase(result.bob_qubit, qubit("b", 3.0, 4.0j))
    # far from unit scale too
    for scale in (1e-300, 1e300):
        result = run_teleport(0.28j * scale, (-0.71 + 0.46j) * scale)
        assert result.schmidt_rank_b_cut == 1 and result.fidelity >= 1 - 1e-10
        assert equal_up_to_phase(result.pointer_side, pointer_bell_sum(), 1e-10)


def test_teleport_runner_matches_the_interpreter_bit_for_bit():
    # the runner and exec_circuit make the same numpy calls on one state; the
    # inputs span 1e-5 to 1e5 in magnitude, with negative and purely
    # imaginary parts
    rng = np.random.default_rng(26)
    for i in range(60):
        re_im = rng.standard_normal(4) * 10.0 ** rng.uniform(-5, 5, size=4)
        alpha, beta = complex(re_im[0], re_im[1]), complex(re_im[2], re_im[3])
        if i % 3 == 0:
            alpha = complex(0.0, -abs(re_im[1]))
        if i % 5 == 0:
            beta = complex(-abs(re_im[2]), 0.0)
        program = circuit.parse_circuit(circuit.teleport_source(alpha, beta))
        world, outcomes = circuit.exec_circuit(program)
        assert all(o.passed for o in outcomes)
        runner = run_teleport(alpha, beta).world.state
        assert np.array_equal(runner.amps, world.state.amps), (alpha, beta)


def test_teleport_rejects_the_zero_qubit():
    with pytest.raises(ValueError):
        run_teleport(0, 0)


def test_teleport_pointer_side_factor():
    result = run_teleport(0.6, 0.8j)
    assert equal_up_to_phase(result.pointer_side, pointer_bell_sum(), 1e-10)
    rebuilt = tensor(result.pointer_side, result.bob_qubit)
    assert np.allclose(rebuilt.amps, result.world.state.amps, atol=1e-12)


def test_teleport_post_measurement_state_against_brute_force():
    alpha, beta = complex(0.28, -0.45), complex(0.71, 0.46)
    # initial vector over (E1,E2,u,a,b) via explicit index arithmetic
    vec = np.zeros(32, dtype=complex)
    for u_bit, amp_u in ((0, alpha), (1, beta)):
        for pair_bit in (0, 1):
            idx = (u_bit << 2) | (pair_bit << 1) | pair_bit
            vec[idx] = amp_u
    vec = embed(cu_meas().matrix, [0, 1, 2, 3], 5) @ vec
    # the four-branch form, built independently from its closed expression
    residuals = {
        (0, 0): (alpha, beta),
        (0, 1): (-beta, alpha),
        (1, 0): (beta, alpha),
        (1, 1): (-alpha, beta),
    }
    want = np.zeros(32, dtype=complex)
    for (x, y), (a0, a1) in residuals.items():
        part = tensor(
            basis_state(("E1", "E2"), (x, y)), bell(x, y, ("u", "a")), qubit("b", a0, a1)
        )
        want += part.amps
    assert np.allclose(vec, want / 2.0, atol=1e-12)


def test_teleport_self_check_fires_on_a_tampered_measurement(monkeypatch):
    alpha, beta = complex(0.28, -0.45), complex(0.71, 0.46)
    run_teleport(alpha, beta)  # the real measurement passes the check
    swap = np.eye(4)[[0, 2, 1, 3]]  # exchanges the pointer labels 01 and 10
    tampered = UnitaryGate(4, np.kron(swap, np.eye(4)) @ cu_meas().matrix, name="cu_meas")
    monkeypatch.setitem(GATES, "cu_meas", GATES["cu_meas"]._replace(build=lambda: tampered))
    with pytest.raises(ProtocolError, match="post-measurement state diverged"):
        run_teleport(alpha, beta)


def test_teleport_moves_both_pointer_wires():
    result = run_teleport(0.6, 0.8)
    transfers = [e for e in result.world.trace if isinstance(e, TransferEvent)]
    assert [t.wire for t in transfers] == ["E1", "E2"]
    assert all(t.dest == "Bob" for t in transfers)


def test_teleport_preserves_the_global_norm():
    result = run_teleport(0.6, 0.8)
    assert result.world.state.norm_sq == pytest.approx(2.0, abs=1e-12)


def _swap_the_inputs(real):
    return lambda alpha, beta: real(beta, alpha)


def _rank_2(real):
    return lambda state, cut, tol: (2, None)


@pytest.mark.parametrize("inputs,patch,message", [
    # the subnormal amplitudes of this input round away in cu_meas's sums
    ((5e-324, 5e-324j), None, "gate cu_meas did not preserve the norm: the amplitudes lie below"),
    ((0.28 - 0.45j, 0.71 + 0.46j), ("_measured_superposition", _swap_the_inputs),
     "post-measurement state diverged from the four-branch form$"),
    ((0.28 - 0.45j, 0.71 + 0.46j), ("schmidt_factor", _rank_2),
     r"final state is not a product across the b cut \(rank 2\)$"),
])
def test_teleport_names_the_self_check_that_fails(monkeypatch, inputs, patch, message):
    if patch is not None:
        run_teleport(*inputs)  # the real step passes
        name, wrap = patch
        monkeypatch.setattr(protocols, name, wrap(getattr(protocols, name)))
    with pytest.raises(ProtocolError, match=f"^{message}"):
        run_teleport(*inputs)


# ---------------------------------------------------------------- locality


def test_measuring_before_the_transfer_is_rejected():
    initial = tensor(
        basis_state(("c",), (0,)),
        basis_state(("d",), (1,)),
        bell(0, 0, ("a", "b")),
        basis_state(("E1", "E2"), (0, 0)),
    )
    placements = {
        "c": Agent.ALICE,
        "d": Agent.ALICE,
        "a": Agent.ALICE,
        "b": Agent.BOB,
        "E1": Agent.BOB,
        "E2": Agent.BOB,
    }
    world = init_wires(empty_world(), (initial,), placements, ("superdense(p=0,q=1)",))
    world = apply_local(world, cu_sigma(), ("c", "d", "a"), Agent.ALICE)
    with pytest.raises(LocalityError):
        apply_local(world, cu_meas(), ("E1", "E2", "a", "b"), Agent.BOB)


def test_audit_accepts_protocol_traces():
    assert audit_locality(run_superdense(0, 0).world.trace) == 2
    assert audit_locality(run_teleport(1, 0).world.trace) == 2


def test_audit_flags_a_tampered_trace():
    trace = (
        InitEvent(("a", "b"), (("a", "Alice"), ("b", "Bob")), "pair"),
        GateEvent("cu_meas", ("a", "b"), "Bob"),
    )
    with pytest.raises(LocalityError, match="event 1: Bob acted on wire 'a' held by Alice"):
        audit_locality(trace)


def test_audit_flags_transfer_of_undeclared_wire():
    with pytest.raises(LocalityError):
        audit_locality((TransferEvent("a", "Alice", "Bob"),))
