"""Self-contained verification suite behind `everettsim verify`.

Each check pins its tolerance here; the pytest acceptance module runs the
same functions. Checks return a result instead of raising, so one failure
never hides the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fixtures
from .circuit import (
    CircuitParseError,
    exec_circuit,
    parse_circuit,
    superdense_source,
    teleport_source,
)
from .gates import bell, cu_meas, cu_sigma, reversed_convention_matrix, sigma, u_b_decoder
from .protocols import (
    LocalityError,
    TransferEvent,
    audit_locality,
    derive_decode_table,
    pointer_bell_sum,
    run_superdense,
    run_teleport,
)
from .render import render_ascii
from .reports import superdense_lines, teleport_lines
from .state import (
    apply,
    basis_state,
    branch_decompose,
    equal_up_to_phase,
    inner_product,
    tensor,
)

# reference single-qubit matrices in the flipped ket convention (|0> second)
FLIPPED_CONVENTION_MATRICES = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[0, -1], [1, 0]], dtype=complex),
    (1, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}

# hand-derived pointer labels: expanding the encoded pair in the Bell basis
# swaps the 01 and 10 labels, so the table is a bijection but not the identity
EXPECTED_DECODE_TABLE = {
    (0, 0): (0, 0),
    (0, 1): (1, 0),
    (1, 0): (0, 1),
    (1, 1): (1, 1),
}

MALFORMED_SOURCES: tuple[str, ...] = (
    "wird c @ Alice",
    "wire c Alice",
    "wire c @ alice",
    "wire c @",
    "wire c @ Alice\nwire c @ Bob",
    "init c = |0>",
    "wire c @ Alice\ninit c = |2>",
    "wire c @ Alice\ninit c = (1,0) |0>",
    "wire c @ Alice\ninit c = (1;0) |0> + (0,0) |1>",
    "wire a @ Alice\nwire b @ Bob\ninit pair a b = bell 0 2",
    "wire a @ Alice\ninit pair a a = bell 0 0",
    "wire c @ Alice\nwire d @ Alice\ngate cu_sigma c d @ Alice",
    "wire c @ Alice\ngate warp c @ Alice",
    "wire c @ Alice\ngate sigma01 c",
    "wire a @ Alice\ntransfer a ->",
    "wire a @ Alice\ntransfer a Bob",
    "wire E1 @ Bob\nassert pointer E1 = 00",
    "wire E1 @ Bob\nwire E2 @ Bob\nassert pointer E1 E2 = 2",
    "wire b @ Bob\nassert factor b |0>",
    "wire c @ Alice extra",
)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


def _check_sigma_identities() -> str:
    for p in (0, 1):
        for q in (0, 1):
            gate = sigma(p, q)
            for x in (0, 1):
                got = gate.matrix[:, x]
                want = np.zeros(2, dtype=complex)
                if x == 0:
                    want[(p + q) % 2] = (-1.0) ** p
                else:
                    want[(p + q + 1) % 2] = 1.0
                err = np.abs(got - want).max()
                if err >= 1e-14:
                    raise AssertionError(f"action rule broken at (p,q,x)=({p},{q},{x}): {err}")
            flipped = reversed_convention_matrix(gate)
            if not np.array_equal(flipped, FLIPPED_CONVENTION_MATRICES[(p, q)]):
                raise AssertionError(f"flipped-convention matrix mismatch at ({p},{q})")
    return "8 action identities exact; all 4 matrices match in the flipped convention"


def _check_bell_gram() -> str:
    states = {(x, y): bell(x, y, ("a", "b")) for x in (0, 1) for y in (0, 1)}
    worst = 0.0
    for k1, s1 in states.items():
        for k2, s2 in states.items():
            want = 2.0 if k1 == k2 else 0.0
            worst = max(worst, abs(inner_product(s1, s2) - want))
    if worst > 1e-12:
        raise AssertionError(f"Gram deviation {worst}")
    return f"16 inner products match 2*delta (max deviation {worst:.1e})"


def _check_gate_unitarity() -> str:
    # building a UnitaryGate raises GateError past gates.UNITARY_TOL (1e-12)
    fixed = (cu_sigma(), cu_meas(), u_b_decoder())
    details = [f"{g.name} {1 << g.arity}x{1 << g.arity}" for g in fixed]
    meas = cu_meas()
    for x in (0, 1):
        for y in (0, 1):
            state = tensor(basis_state(("E1", "E2"), (0, 0)), bell(x, y, ("m1", "m2")))
            got = apply(meas, ("E1", "E2", "m1", "m2"), state)
            want = tensor(basis_state(("E1", "E2"), (x, y)), bell(x, y, ("m1", "m2")))
            if np.abs(got.amps - want.amps).max() > 1e-12:
                raise AssertionError(f"pointer rule broken on Bell input ({x},{y})")
    return "; ".join(details) + "; pointer rule exact on all 4 Bell inputs"


def _check_superdense_intermediate() -> str:
    for p in (0, 1):
        for q in (0, 1):
            # raises ProtocolError unless the state after cu_sigma matches
            # superdense_encoded(p, q) up to phase
            run_superdense(p, q, tol=1e-12)
    return "post-encoding state matches the two-component form for all 4 inputs"


def _check_superdense_end_to_end() -> str:
    for p in (0, 1):
        for q in (0, 1):
            result = run_superdense(p, q)
            # run_superdense raises unless the pointer holds a single branch
            branch = branch_decompose(result.final_state, ("E1", "E2")).branches[0]
            if abs(branch.weight - 1.0) > 1e-12:
                raise AssertionError(f"({p},{q}): branch weight {branch.weight}")
            knowledge = branch_decompose(branch.residual, ("c", "d"))
            if len(knowledge.branches) != 1 or knowledge.branches[0].bits != (p, q):
                raise AssertionError(f"({p},{q}): knowledge wires disturbed")
            transfers = [e for e in result.world.trace if isinstance(e, TransferEvent)]
            if len(transfers) != 1 or transfers[0].wire != "a":
                raise AssertionError(f"({p},{q}): expected exactly one transfer of wire a")
    table = derive_decode_table()
    if table.mapping != EXPECTED_DECODE_TABLE:
        raise AssertionError(f"pointer labels differ from the hand-derived table: {table.entries}")
    shown = " ".join(f"{i[0]}{i[1]}->{o[0]}{o[1]}" for i, o in table.entries)
    return (
        f"single unit-weight branch, knowledge intact, one qubit moved; table {shown}; "
        f"identity map: {'yes' if table.is_identity else 'no'}"
    )


def _check_teleport_random() -> str:
    rng = np.random.default_rng(20240809)
    expected_pointer = pointer_bell_sum()
    worst = 1.0
    for _ in range(1000):
        re_im = rng.standard_normal(4)
        alpha = complex(re_im[0], re_im[1])
        beta = complex(re_im[2], re_im[3])
        norm = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
        alpha, beta = alpha / norm, beta / norm
        # raises if the mid state diverges or the b cut has rank other than 1
        result = run_teleport(alpha, beta)
        if result.fidelity < 1.0 - 1e-10:
            raise AssertionError(f"fidelity {result.fidelity}")
        if not equal_up_to_phase(result.pointer_side, expected_pointer, 1e-10):
            raise AssertionError("pointer-side factor mismatch")
        worst = min(worst, result.fidelity)
    return f"1000 random qubits teleported; min fidelity {worst:.15f}; rank 1 throughout"


def _check_locality() -> str:
    premature = superdense_source(0, 1, (1, 0)).replace("transfer a -> Bob\n", "")
    try:
        exec_circuit(parse_circuit(premature))
    except LocalityError:
        pass
    else:
        raise AssertionError("measuring before the transfer should violate locality")
    audited = 0
    for p in (0, 1):
        for q in (0, 1):
            audited += audit_locality(run_superdense(p, q).world.trace)
    audited += audit_locality(run_teleport(0.6, 0.8j).world.trace)
    for name in (fixtures.SUPERDENSE, fixtures.TELEPORT):
        world, _ = exec_circuit(parse_circuit(fixtures.read(name)))
        audited += audit_locality(world.trace)
    return f"premature measurement rejected; {audited} gate events audited clean"


def _check_dsl_round_trip() -> str:
    table = derive_decode_table().mapping
    for p in (0, 1):
        for q in (0, 1):
            source = superdense_source(p, q, table[(p, q)])
            world, outcomes = exec_circuit(parse_circuit(source))
            reference = run_superdense(p, q)
            if not all(o.passed for o in outcomes):
                raise AssertionError(f"({p},{q}): fixture assertion failed")
            if world.state.wires != reference.final_state.wires or not np.array_equal(
                world.state.amps, reference.final_state.amps
            ):
                raise AssertionError(f"({p},{q}): amplitudes not bit-identical")
    committed = fixtures.read(fixtures.SUPERDENSE)
    if committed != superdense_source(0, 1, table[(0, 1)]):
        raise AssertionError("committed superdense fixture differs from its template")
    world, outcomes = exec_circuit(parse_circuit(fixtures.read(fixtures.TELEPORT)))
    reference = run_teleport(1.0, 0.0)
    if not all(o.passed for o in outcomes):
        raise AssertionError("teleport fixture assertion failed")
    if not np.array_equal(world.state.amps, reference.world.state.amps):
        raise AssertionError("teleport amplitudes not bit-identical")
    if fixtures.read(fixtures.TELEPORT) != teleport_source(1.0, 0.0):
        raise AssertionError("committed teleport fixture differs from its template")
    positioned = 0
    for source in MALFORMED_SOURCES:
        try:
            parse_circuit(source)
        except CircuitParseError as err:
            if err.line >= 1 and err.column >= 1:
                positioned += 1
        # any other exception propagates and fails the check
    if positioned != len(MALFORMED_SOURCES):
        raise AssertionError(f"only {positioned}/{len(MALFORMED_SOURCES)} gave positioned errors")
    return (
        "4 superdense instantiations and teleport fixture bit-identical to the runners; "
        f"{positioned} malformed inputs produced positioned parse errors"
    )


def _check_determinism() -> str:
    renders = []
    for name in (fixtures.SUPERDENSE, fixtures.TELEPORT):
        prog = parse_circuit(fixtures.read(name))
        first, second = render_ascii(prog), render_ascii(prog)
        if first != second:
            raise AssertionError(f"render of {name} not reproducible")
        renders.append(first)
    table0 = derive_decode_table()
    json0 = superdense_lines(run_superdense(0, 1), table0, json_mode=True, trace=True)
    json1 = superdense_lines(run_superdense(0, 1), derive_decode_table(), json_mode=True, trace=True)
    if json0 != json1:
        raise AssertionError("superdense JSON output not reproducible")
    tele0 = teleport_lines(run_teleport(0.6, 0.8j), json_mode=True, trace=True)
    tele1 = teleport_lines(run_teleport(0.6, 0.8j), json_mode=True, trace=True)
    if tele0 != tele1:
        raise AssertionError("teleport JSON output not reproducible")
    return "renders and JSON reports byte-identical across repeated runs"


_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("sigma action identities and convention translation", _check_sigma_identities),
    ("Bell basis Gram matrix equals 2I", _check_bell_gram),
    ("gate unitarity and the pointer-shift rule", _check_gate_unitarity),
    ("superdense intermediate state", _check_superdense_intermediate),
    ("superdense end to end", _check_superdense_end_to_end),
    ("teleportation over 1000 random qubits", _check_teleport_random),
    ("locality enforcement and trace audit", _check_locality),
    ("circuit DSL round trip and parse errors", _check_dsl_round_trip),
    ("deterministic render and JSON output", _check_determinism),
)


def run_all() -> list[CheckResult]:
    results = []
    for index, (name, check) in enumerate(_CHECKS, start=1):
        try:
            detail = check()
            results.append(CheckResult(index, name, True, detail))
        except Exception as err:  # noqa: BLE001 - report, never crash the suite
            results.append(CheckResult(index, name, False, f"{type(err).__name__}: {err}"))
    return results
