"""End-to-end protocol runners with agent locality tracking.

A ProtocolWorld is a global pure state plus a map saying which agent holds
which wire and an append-only event trace. Gates may only touch wires that
are co-located at the acting agent; moving a qubit between agents is an
explicit Transfer event. Classical knowledge, measurement, and signaling all
appear as state preparation, controlled unitaries, and wire transfers, so a
whole protocol is a single deterministic unitary evolution.

Superdense coding: two knowledge wires (c, d) and Alice's half (a) of a
shared pair are encoded with ``cu_sigma``; wire a crosses to Bob; Bob's
instrument (E1, E2) measures the pair via ``cu_meas``; the final state has a
single pointer branch whose label decodes the two bits.

Teleportation: Alice measures her unknown qubit (u) against her half (a) of
the shared pair via ``cu_meas``; the pointer pair crosses to Bob, who applies
``u_b_decoder`` to his half (b); the final state factorizes with an exact
copy of the unknown qubit on b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .gates import UnitaryGate, bell, cu_meas, cu_sigma, u_b_decoder
from .state import (
    BRANCH_TOL,
    DEFAULT_TOL,
    Bipartition,
    BranchDecomposition,
    PureState,
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
    seq: int
    wires: tuple[str, ...]
    placements: tuple[tuple[str, str], ...]
    state: str

    kind = "Init"

    def record(self) -> dict:
        return {
            "event": self.kind,
            "seq": self.seq,
            "wires": list(self.wires),
            "locations": {w: a for w, a in self.placements},
            "state": self.state,
        }


@dataclass(frozen=True)
class GateEvent:
    seq: int
    gate: str
    wires: tuple[str, ...]
    actor: str

    kind = "Gate"

    def record(self) -> dict:
        return {
            "event": self.kind,
            "seq": self.seq,
            "gate": self.gate,
            "wires": list(self.wires),
            "actor": self.actor,
        }


@dataclass(frozen=True)
class TransferEvent:
    seq: int
    wire: str
    source: str
    dest: str

    kind = "Transfer"

    def record(self) -> dict:
        return {
            "event": self.kind,
            "seq": self.seq,
            "wire": self.wire,
            "from": self.source,
            "to": self.dest,
        }


@dataclass(frozen=True)
class DecomposeEvent:
    seq: int
    pointer: tuple[str, ...]
    branches: tuple[tuple[str, float, float], ...]  # (label, raw, normalized)

    kind = "Decompose"

    def record(self) -> dict:
        return {
            "event": self.kind,
            "seq": self.seq,
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
    world: ProtocolWorld, piece: PureState, placements: Mapping[str, Agent], label: str
) -> ProtocolWorld:
    """Tensor new wires into the world and record where each one sits."""
    if set(placements) != set(piece.wires):
        raise ProtocolError("placements must cover exactly the new wires")
    state = tensor(world.state, piece)
    location = dict(world.location)
    for w, agent in placements.items():
        location[w] = agent
    event = InitEvent(
        seq=len(world.trace),
        wires=piece.wires,
        placements=tuple((w, placements[w].value) for w in piece.wires),
        state=label,
    )
    return ProtocolWorld(state, location, world.trace + (event,))


def transfer(world: ProtocolWorld, wire: str, to: Agent) -> ProtocolWorld:
    """Physically move one wire to the other agent. A no-op move is still recorded."""
    source = world.holder(wire)
    location = dict(world.location)
    location[wire] = to
    event = TransferEvent(len(world.trace), wire, source.value, to.value)
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
    if norm_drift(world.state, state) > 1e-9:
        raise ProtocolError(f"gate {gate.name or '?'} did not preserve the norm")
    event = GateEvent(len(world.trace), gate.name or f"U{gate.arity}", targets, actor.value)
    return ProtocolWorld(state, world.location, world.trace + (event,))


def decompose_pointer(
    world: ProtocolWorld, pointer: Sequence[str], tol: float = BRANCH_TOL
) -> tuple[ProtocolWorld, BranchDecomposition]:
    """Branch-decompose on pointer wires and record the branch table."""
    decomp = branch_decompose(world.state, pointer, tol=tol)
    event = DecomposeEvent(
        seq=len(world.trace),
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
    for event in trace:
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
                        f"event {event.seq}: {event.actor} acted on wire {w!r} "
                        f"held by {location.get(w)}"
                    )
            checked += 1
    return checked


def _check_bit(name: str, value: int) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


@dataclass(frozen=True, eq=False)
class SuperdenseResult:
    input: tuple[int, int]
    pointer: tuple[int, int]
    final_state: PureState
    branch_count: int
    world: ProtocolWorld


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


def superdense_encoded(p: int, q: int) -> PureState:
    """The whole state after Alice encodes (p, q), wires (c, d, a, b, E1, E2).

    Only the shared pair has changed: (-1)^p |p+q>|0> + |p+q+1>|1> on (a, b).
    """
    pair = np.zeros(4, dtype=complex)
    pair[((p + q) % 2) << 1] = (-1.0) ** p
    pair[(((p + q + 1) % 2) << 1) | 1] = 1.0
    return tensor(
        basis_state(("c", "d"), (p, q)),
        PureState(("a", "b"), pair),
        basis_state(("E1", "E2"), (0, 0)),
    )


def run_superdense(p: int, q: int, tol: float = DEFAULT_TOL) -> SuperdenseResult:
    """Send two bits by moving one qubit of a shared pair.

    Wires: c, d (Alice's knowledge), a/b (shared pair), E1/E2 (Bob's
    instrument). Raises ProtocolError if the post-encoding state diverges
    from the expected two-component form, or if the final state is not a
    single pointer branch.
    """
    _check_bit("p", p)
    _check_bit("q", q)
    initial = tensor(
        basis_state(("c",), (p,)),
        basis_state(("d",), (q,)),
        bell(0, 0, ("a", "b")),
        basis_state(("E1",), (0,)),
        basis_state(("E2",), (0,)),
    )
    placements = {
        "c": Agent.ALICE,
        "d": Agent.ALICE,
        "a": Agent.ALICE,
        "b": Agent.BOB,
        "E1": Agent.BOB,
        "E2": Agent.BOB,
    }
    world = init_wires(empty_world(), initial, placements, f"superdense(p={p},q={q})")

    world = apply_local(world, cu_sigma(), ("c", "d", "a"), Agent.ALICE)
    if not equal_up_to_phase(world.state, superdense_encoded(p, q), tol):
        raise ProtocolError(f"post-encoding state diverged for (p,q)=({p},{q})")

    world = transfer(world, "a", Agent.BOB)
    world = apply_local(world, cu_meas(), ("E1", "E2", "a", "b"), Agent.BOB)
    world, decomp = decompose_pointer(world, ("E1", "E2"))
    if len(decomp.branches) != 1:
        raise ProtocolError(
            f"expected one pointer branch, got {[b.label for b in decomp.branches]}"
        )
    branch = decomp.branches[0]
    return SuperdenseResult(
        input=(p, q),
        pointer=(branch.bits[0], branch.bits[1]),
        final_state=world.state,
        branch_count=len(decomp.branches),
        world=world,
    )


def derive_decode_table(tol: float = DEFAULT_TOL) -> DecodeTable:
    """Run all four inputs and tabulate the pointer labels Bob observes.

    The table must be a bijection on two-bit strings (anything else is a bug
    in the evolution); whether it is the identity map is reported rather than
    assumed.
    """
    entries = []
    for p in (0, 1):
        for q in (0, 1):
            result = run_superdense(p, q, tol=tol)
            entries.append(((p, q), result.pointer))
    outputs = {out for _, out in entries}
    if len(outputs) != 4:
        raise ProtocolError(f"decode table is not a bijection: {entries}")
    is_identity = all(inp == out for inp, out in entries)
    return DecodeTable(tuple(entries), is_identity)


# Bob's residual on pointer branch (x, y) is row 2x+y applied to (alpha, beta):
# 00 -> (alpha, beta), 01 -> (-beta, alpha), 10 -> (beta, alpha), 11 -> (-alpha, beta).
# Derived by hand from the Bell expansion of the input, never from cu_meas or
# u_b_decoder, because it is the reference those two gates are checked against.
_TELEPORT_RESIDUALS = np.array(
    [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]]], dtype=complex
)
# row 2x+y holds the amplitudes of bell(x, y)
_BELL_ROWS = np.array([bell(x, y, ("m1", "m2")).amps for x in (0, 1) for y in (0, 1)])


def _measured_superposition(alpha: complex, beta: complex) -> PureState:
    """The four-branch state after Alice's Bell measurement, wires (E1,E2,u,a,b).

    Branch (x, y) holds bell(x, y) on (u, a) and the residual table's row
    (x, y) applied to (alpha, beta) on b.
    """
    residuals = _TELEPORT_RESIDUALS @ np.array([alpha, beta], dtype=complex)
    amps = _BELL_ROWS[:, :, None] * residuals[:, None, :]
    return PureState(("E1", "E2", "u", "a", "b"), amps.reshape(-1))


def pointer_bell_sum() -> PureState:
    """Each pointer label on (E1, E2) with its Bell state on (u, a), summed over all four."""
    return PureState(("E1", "E2", "u", "a"), _BELL_ROWS.reshape(-1))


def _phase_canonical(state: PureState) -> tuple[PureState, complex]:
    """Rotate a global phase so the largest amplitude is real positive."""
    idx = int(np.argmax(np.abs(state.amps)))
    a = state.amps[idx]
    phase = a / abs(a)
    return PureState(state.wires, state.amps * np.conj(phase)), phase


def run_teleport(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> TeleportResult:
    """Teleport alpha|0> + beta|1> from Alice's wire u to Bob's wire b.

    The input need not be normalized; fidelity is computed on normalized
    copies. Raises ProtocolError if the mid-protocol state diverges from the
    expected four-branch form or the final state fails to factorize across
    the b cut.
    """
    if alpha == 0 and beta == 0:
        raise ValueError("input qubit must be nonzero")
    initial = tensor(
        basis_state(("E1",), (0,)),
        basis_state(("E2",), (0,)),
        qubit("u", alpha, beta),
        bell(0, 0, ("a", "b")),
    )
    placements = {
        "E1": Agent.ALICE,
        "E2": Agent.ALICE,
        "u": Agent.ALICE,
        "a": Agent.ALICE,
        "b": Agent.BOB,
    }
    world = init_wires(empty_world(), initial, placements, "teleport")

    world = apply_local(world, cu_meas(), ("E1", "E2", "u", "a"), Agent.ALICE)
    if not equal_up_to_phase(world.state, _measured_superposition(alpha, beta), tol):
        raise ProtocolError("post-measurement state diverged from the four-branch form")

    world = transfer(world, "E1", Agent.BOB)
    world = transfer(world, "E2", Agent.BOB)
    world = apply_local(world, u_b_decoder(), ("E1", "E2", "b"), Agent.BOB)

    cut = Bipartition(frozenset({"E1", "E2", "u", "a"}), frozenset({"b"}))
    rank, factors = schmidt_factor(world.state, cut, tol)
    if rank != 1 or factors is None:
        raise ProtocolError(f"final state is not a product across the b cut (rank {rank})")
    pointer_side, bob = factors
    bob, phase = _phase_canonical(bob)
    pointer_side = PureState(pointer_side.wires, pointer_side.amps * phase)
    fid = fidelity(bob, qubit("b", alpha, beta))
    return TeleportResult(
        input=(alpha, beta),
        bob_qubit=bob,
        fidelity=fid,
        schmidt_rank_b_cut=rank,
        pointer_side=pointer_side,
        world=world,
    )
