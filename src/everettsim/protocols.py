"""End-to-end protocol runners with agent locality tracking.

A ProtocolWorld is a global pure state plus a map saying which agent holds
which wire and an append-only event trace. Gates may only touch wires that
are co-located at the acting agent; moving a qubit between agents is an
explicit Transfer event. An event carries no sequence number of its own:
its index in the trace is its number, which ``audit_locality`` and the
reports print. Classical knowledge, measurement, and signaling all appear
as state preparation, controlled unitaries, and wire transfers, so a whole
protocol is a single deterministic unitary evolution.

Superdense coding: two knowledge wires (c, d) and Alice's half (a) of a
shared pair are encoded with ``cu_sigma``; wire a crosses to Bob; Bob's
instrument (E1, E2) measures the pair via ``cu_meas``; the final state has a
single pointer branch whose label decodes the two bits.

Teleportation: Alice measures her unknown qubit (u) against her half (a) of
the shared pair via ``cu_meas``; the pointer pair crosses to Bob, who applies
``u_b_decoder`` to his half (b); the final state factorizes with an exact
copy of the unknown qubit on b.

A runner's steps are the gate and transfer statements of its circuit
template (``circuit.superdense_source``, ``circuit.teleport_source``),
parsed once per process and run by the interpreter's step executor
``circuit.run_step``. Around them the runner adds one labelled Init built
from its register layout, a closed-form check after the template's first
gate, and its own readout of the final state.

Every step acts on one state, so ``run_teleport`` makes the numpy calls the
interpreter makes on the same program, and its final state has the bytes
of ``exec_circuit(parse_circuit(teleport_source(alpha, beta)))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

# circuit imports this module too; each only reads the other's attributes
# inside functions, so either may be imported first
from . import circuit
from .gates import UnitaryGate, bell
from .state import (
    BRANCH_TOL,
    DEFAULT_TOL,
    Bipartition,
    BranchDecomposition,
    PureState,
    _bit,
    basis_state,
    apply,
    branch_decompose,
    equal_up_to_phase,
    fidelity,
    norm_drift,
    qubit,
    schmidt_factor,
    tensor,
)


class Agent(Enum):
    ALICE = "Alice"
    BOB = "Bob"


class ProtocolError(RuntimeError):
    """A protocol step produced a state that violates its contract."""


class LocalityError(ProtocolError):
    """A gate touched a wire its actor does not hold."""


@dataclass(frozen=True)
class InitEvent:
    wires: tuple[str, ...]
    placements: tuple[tuple[str, str], ...]
    state: str

    kind = "Init"

    def record(self) -> dict:
        return {
            "wires": list(self.wires),
            "locations": {w: a for w, a in self.placements},
            "state": self.state,
        }


@dataclass(frozen=True)
class GateEvent:
    gate: str
    wires: tuple[str, ...]
    actor: str

    kind = "Gate"

    def record(self) -> dict:
        return {"gate": self.gate, "wires": list(self.wires), "actor": self.actor}


@dataclass(frozen=True)
class TransferEvent:
    wire: str
    source: str
    dest: str

    kind = "Transfer"

    def record(self) -> dict:
        return {"wire": self.wire, "from": self.source, "to": self.dest}


@dataclass(frozen=True)
class DecomposeEvent:
    pointer: tuple[str, ...]
    branches: tuple[tuple[str, float, float], ...]  # (label, raw, normalized)

    kind = "Decompose"

    def record(self) -> dict:
        return {
            "pointer": list(self.pointer),
            "branches": [
                {"label": label, "raw": raw, "weight": weight}
                for label, raw, weight in self.branches
            ],
        }


Event = Union[InitEvent, GateEvent, TransferEvent, DecomposeEvent]


@dataclass(frozen=True, eq=False)
class ProtocolWorld:
    """Global state, wire locations, and the event trace. Treat as immutable."""

    state: PureState
    location: dict[str, Agent]
    trace: tuple[Event, ...]

    def holder(self, wire: str) -> Agent:
        try:
            return self.location[wire]
        except KeyError:
            raise ProtocolError(f"unknown wire {wire!r}") from None


def empty_world() -> ProtocolWorld:
    return ProtocolWorld(PureState((), np.ones(1, dtype=complex)), {}, ())


def init_wires(
    world: ProtocolWorld,
    pieces: Sequence[PureState],
    placements: Mapping[str, Agent],
    labels: Sequence[str],
) -> ProtocolWorld:
    """Tensor a run of new pieces into the world and record where each wire sits.

    The world's state and the pieces are one ``tensor`` call, whose product
    is built in one buffer. The trace gains one InitEvent per piece, in
    order, labelled by the matching entry of `labels`; `placements` covers
    exactly the pieces' wires.
    """
    wires = [w for piece in pieces for w in piece.wires]
    if set(placements) != set(wires):
        raise ProtocolError("placements must cover exactly the new wires")
    # the empty world's state is the scalar 1, so a lone first piece is the product
    states = (world.state, *pieces) if world.state.wires else tuple(pieces)
    state = states[0] if len(states) == 1 else tensor(*states)
    location = dict(world.location)
    location.update(placements)
    events = tuple(
        InitEvent(
            wires=piece.wires,
            placements=tuple((w, placements[w].value) for w in piece.wires),
            state=label,
        )
        for piece, label in zip(pieces, labels, strict=True)
    )
    return ProtocolWorld(state, location, world.trace + events)


def transfer(world: ProtocolWorld, wire: str, to: Agent) -> ProtocolWorld:
    """Physically move one wire to the other agent. A no-op move is still recorded."""
    source = world.holder(wire)
    location = dict(world.location)
    location[wire] = to
    event = TransferEvent(wire, source.value, to.value)
    return ProtocolWorld(world.state, location, world.trace + (event,))


def apply_local(
    world: ProtocolWorld, gate: UnitaryGate, targets: Sequence[str], actor: Agent
) -> ProtocolWorld:
    """Apply a gate as one agent; every target must be in that agent's hands."""
    targets = tuple(targets)
    for t in targets:
        holder = world.holder(t)
        if holder is not actor:
            raise LocalityError(
                f"{actor.value} cannot act on wire {t!r} held by {holder.value}"
            )
    state = apply(gate, targets, world.state)
    # a nan drift fails too
    if not norm_drift(world.state, state) <= 1e-9:
        raise ProtocolError(_norm_message(gate, world.state))
    event = GateEvent(gate.name or f"U{gate.arity}", targets, actor.value)
    return ProtocolWorld(state, world.location, world.trace + (event,))


def _norm_message(gate: UnitaryGate, before: PureState) -> str:
    """Why the gate's result failed the norm check."""
    amps = before.amps
    peak = max(np.abs(amps.real).max(), np.abs(amps.imag).max())
    smallest_normal = np.finfo(float).tiny
    if peak < smallest_normal:
        # the gate's products of subnormal parts round away whole amplitudes
        return (
            f"gate {gate.name or '?'} did not preserve the norm: the amplitudes lie below what "
            f"the evolution can carry without rounding (largest part {peak:.1e}, "
            f"smallest normal float {smallest_normal:.1e})"
        )
    return f"gate {gate.name or '?'} did not preserve the norm"


def decompose_pointer(
    world: ProtocolWorld, pointer: Sequence[str], tol: float = BRANCH_TOL
) -> tuple[ProtocolWorld, BranchDecomposition]:
    """Branch-decompose on pointer wires and record the branch table."""
    decomp = branch_decompose(world.state, pointer, tol=tol)
    event = DecomposeEvent(
        pointer=decomp.pointer,
        branches=tuple((b.label, b.raw_weight, b.weight) for b in decomp.branches),
    )
    return ProtocolWorld(world.state, world.location, world.trace + (event,)), decomp


def audit_locality(trace: Iterable[Event]) -> int:
    """Replay a trace and check every gate touched only co-located wires.

    Returns the number of gate events checked; raises LocalityError on the
    first violation.
    """
    location: dict[str, str] = {}
    checked = 0
    for seq, event in enumerate(trace):
        if isinstance(event, InitEvent):
            location.update(dict(event.placements))
        elif isinstance(event, TransferEvent):
            if event.wire not in location:
                raise LocalityError(f"transfer of undeclared wire {event.wire!r}")
            location[event.wire] = event.dest
        elif isinstance(event, GateEvent):
            for w in event.wires:
                if location.get(w) != event.actor:
                    raise LocalityError(
                        f"event {seq}: {event.actor} acted on wire {w!r} "
                        f"held by {location.get(w)}"
                    )
            checked += 1
    return checked


def _check_bit(name: str, value: int) -> int:
    bit = _bit(value)
    if bit is None:
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return bit


@dataclass(frozen=True, eq=False)
class SuperdenseResult:
    input: tuple[int, int]
    decomposition: BranchDecomposition  # of the final state on (E1, E2)
    world: ProtocolWorld

    @property
    def pointer(self) -> tuple[int, ...]:
        return self.decomposition.branches[0].bits

    @property
    def final_state(self) -> PureState:
        return self.world.state

    @property
    def branch_count(self) -> int:
        return len(self.decomposition.branches)


@dataclass(frozen=True, eq=False)
class TeleportResult:
    input: tuple[complex, complex]
    bob_qubit: PureState
    fidelity: float
    schmidt_rank_b_cut: int
    pointer_side: PureState
    world: ProtocolWorld


@dataclass(frozen=True)
class DecodeTable:
    """Pointer label observed for each two-bit input, plus whether that map is the identity."""

    entries: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    is_identity: bool

    @property
    def mapping(self) -> dict[tuple[int, int], tuple[int, int]]:
        return dict(self.entries)


# Each protocol's wires in state order, with the agent holding each at the
# start. The runners, their oracles and the DSL templates all read these.
SUPERDENSE_WIRES = {
    "c": Agent.ALICE,
    "d": Agent.ALICE,
    "a": Agent.ALICE,
    "b": Agent.BOB,
    "E1": Agent.BOB,
    "E2": Agent.BOB,
}
TELEPORT_WIRES = {
    "E1": Agent.ALICE,
    "E2": Agent.ALICE,
    "u": Agent.ALICE,
    "a": Agent.ALICE,
    "b": Agent.BOB,
}


def _superdense_state(p: int, q: int, pair: PureState) -> PureState:
    """Knowledge (p, q) on (c, d), the given pair on (a, b), a reset pointer on (E1, E2)."""
    return tensor(basis_state(("c", "d"), (p, q)), pair, basis_state(("E1", "E2"), (0, 0)))


def superdense_encoded(p: int, q: int) -> PureState:
    """The whole state after Alice encodes (p, q), wires (c, d, a, b, E1, E2).

    Only the shared pair has changed: (-1)^p |p+q>|0> + |p+q+1>|1> on (a, b).
    """
    pair = np.zeros(4, dtype=complex)
    pair[((p + q) % 2) << 1] = (-1.0) ** p
    pair[(((p + q + 1) % 2) << 1) | 1] = 1.0
    return _superdense_state(p, q, PureState(("a", "b"), pair))


@cache
def _template_steps(template, *inputs) -> tuple[tuple[circuit.Statement, ...], ...]:
    """A template's gate and transfer statements, split after its first gate.

    Parsed once per process: a template's inputs change only its init and
    assert lines, never these.
    """
    steps = tuple(
        stmt
        for stmt in circuit.parse_circuit(template(*inputs)).statements
        if isinstance(stmt, (circuit.GateStatement, circuit.TransferStatement))
    )
    first = next(i for i, stmt in enumerate(steps) if isinstance(stmt, circuit.GateStatement))
    return steps[: first + 1], steps[first + 1 :]


def run_superdense(p: int, q: int, tol: float = DEFAULT_TOL) -> SuperdenseResult:
    """Send two bits by moving one qubit of a shared pair.

    Wires: c, d (Alice's knowledge), a/b (shared pair), E1/E2 (Bob's
    instrument). Raises ProtocolError if the post-encoding state diverges
    from the expected two-component form, or if the final state is not a
    single pointer branch.
    """
    p, q = _check_bit("p", p), _check_bit("q", q)
    initial = _superdense_state(p, q, bell(0, 0, ("a", "b")))
    world = init_wires(empty_world(), (initial,), SUPERDENSE_WIRES, (f"superdense(p={p},q={q})",))
    encode, send_and_measure = _template_steps(circuit.superdense_source, 0, 0, (0, 0))

    for stmt in encode:
        world = circuit.run_step(world, stmt, tol, [])
    if not equal_up_to_phase(world.state, superdense_encoded(p, q), tol):
        raise ProtocolError(f"post-encoding state diverged for (p,q)=({p},{q})")

    for stmt in send_and_measure:
        world = circuit.run_step(world, stmt, tol, [])
    world, decomp = decompose_pointer(world, ("E1", "E2"))
    if len(decomp.branches) != 1:
        raise ProtocolError(
            f"expected one pointer branch, got {[b.label for b in decomp.branches]}"
        )
    return SuperdenseResult(input=(p, q), decomposition=decomp, world=world)


def decode_table(results: Iterable[SuperdenseResult]) -> DecodeTable:
    """Tabulate the pointer label Bob observes in each run, in input order.

    The table must be a bijection on two-bit strings (anything else is a bug
    in the evolution); whether it is the identity map is reported rather than
    assumed.
    """
    entries = sorted((result.input, result.pointer) for result in results)
    # four distinct inputs, each with its own label
    if len(dict(entries)) != len(entries) or len({out for _, out in entries}) != 4:
        raise ProtocolError(f"decode table is not a bijection: {entries}")
    is_identity = all(inp == out for inp, out in entries)
    return DecodeTable(tuple(entries), is_identity)


def derive_decode_table(tol: float = DEFAULT_TOL) -> DecodeTable:
    """Run all four inputs and tabulate the pointer labels, as `decode_table`."""
    return decode_table(run_superdense(p, q, tol=tol) for p in (0, 1) for q in (0, 1))


# Bob's residual on pointer branch (x, y) is row 2x+y applied to (alpha, beta):
# 00 -> (alpha, beta), 01 -> (-beta, alpha), 10 -> (beta, alpha), 11 -> (-alpha, beta).
# Derived by hand from the Bell expansion of the input, never from cu_meas or
# u_b_decoder, because it is the reference those two gates are checked against.
_TELEPORT_RESIDUALS = np.array(
    [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]]], dtype=complex
)
# row 2x+y holds the amplitudes of bell(x, y)
_BELL_ROWS = np.array([bell(x, y, ("m1", "m2")).amps for x in (0, 1) for y in (0, 1)])


def _measured_superposition(alpha, beta) -> PureState:
    """The four-branch state after Alice's Bell measurement, wires (E1,E2,u,a,b).

    Branch (x, y) holds bell(x, y) on (u, a) and the residual table's row
    (x, y) applied to (alpha, beta) on b.
    """
    residuals = _TELEPORT_RESIDUALS @ np.array([alpha, beta], dtype=complex)
    amps = _BELL_ROWS[:, :, None] * residuals[:, None, :]
    return PureState._adopt(tuple(TELEPORT_WIRES), amps.reshape(-1))


def pointer_bell_sum() -> PureState:
    """Each pointer label on (E1, E2) with its Bell state on (u, a), summed over all four."""
    return PureState(tuple(TELEPORT_WIRES)[:-1], _BELL_ROWS.reshape(-1))


def _phase_canonical(state: PureState) -> tuple[PureState, np.ndarray]:
    """Rotate the state's global phase so its largest amplitude is real positive.

    The phase is returned as an array of one element: numpy's array loops,
    not its scalar arithmetic, divide and multiply by it.
    """
    amps = state.amps
    largest = amps[[np.argmax(np.abs(amps))]]
    # libm's hypot, as the modulus of one numpy complex is; np.abs over an
    # array rounds differently in the last bit
    phase = largest / np.hypot(largest.real, largest.imag)
    return PureState._adopt(state.wires, amps * np.conj(phase)), phase


def run_teleport(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> TeleportResult:
    """Teleport alpha|0> + beta|1> from Alice's wire u to Bob's wire b.

    The input need not be normalized; fidelity is computed on normalized
    copies. Raises ProtocolError if the mid-protocol state diverges from the
    expected four-branch form or the final state fails to factorize across
    the b cut.
    """
    u = qubit("u", alpha, beta)
    if not u.amps.any():
        raise ValueError("input qubit must be nonzero")
    initial = tensor(basis_state(("E1", "E2"), (0, 0)), u, bell(0, 0, ("a", "b")))
    world = init_wires(empty_world(), (initial,), TELEPORT_WIRES, ("teleport",))
    measure, send_and_correct = _template_steps(circuit.teleport_source, 1, 0)

    for stmt in measure:
        world = circuit.run_step(world, stmt, tol, [])
    if not equal_up_to_phase(world.state, _measured_superposition(alpha, beta), tol):
        raise ProtocolError("post-measurement state diverged from the four-branch form")

    for stmt in send_and_correct:
        world = circuit.run_step(world, stmt, tol, [])

    cut = Bipartition(frozenset(TELEPORT_WIRES) - {"b"}, frozenset({"b"}))
    rank, factors = schmidt_factor(world.state, cut, tol)
    if factors is None:
        raise ProtocolError(f"final state is not a product across the b cut (rank {rank})")
    pointer_side, bob = factors
    bob, phase = _phase_canonical(bob)
    pointer_side = PureState._adopt(pointer_side.wires, pointer_side.amps * phase)
    return TeleportResult(
        input=(alpha, beta),
        bob_qubit=bob,
        fidelity=fidelity(bob, qubit("b", alpha, beta)),
        schmidt_rank_b_cut=rank,
        pointer_side=pointer_side,
        world=world,
    )
