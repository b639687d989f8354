"""Self-contained verification suite behind `everettsim verify`.

Each check pins its tolerance here; the pytest acceptance module runs the
same functions. Checks return a result instead of raising, so one failure
never hides the others.

One `run_all` makes each shared run once: checks 4, 5, 7, 8 and 9 read one
set of four superdense runs, checks 6 and 8 one `run_teleport(1, 0)`, checks
7 and 9 one `run_teleport(0.6, 0.8j)`, checks 7, 8 and 9 one read and parse
of each committed fixture, and checks 7 and 8 one exec of it. A shared run
that raised raises again in every check that reads it, so each of those
checks fails. Check 9 tests determinism: it compares the shared runs with
fresh ones of its own, two independent runs of everything it compares.
Outside `run_all` a check makes all of its runs afresh.
"""

from __future__ import annotations

from contextvars import ContextVar
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
    decode_table,
    pointer_bell_sum,
    run_superdense,
    run_teleport,
)
from .render import render_ascii
from .reports import superdense_lines, teleport_lines
from .state import (
    PureState,
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


# key -> the shared run's result, or the exception it raised; set by run_all
_RUNS: ContextVar[dict] = ContextVar("verify_runs")


def _once(key, make):
    # outside run_all the memo is a new dict, dropped when this call returns
    runs = _RUNS.get({})
    if key not in runs:
        try:
            runs[key] = make()
        except Exception as err:  # noqa: BLE001 - raised again below, to each reader
            runs[key] = err
    if isinstance(runs[key], Exception):
        raise runs[key]
    return runs[key]


def _superdense(p: int, q: int):
    # check 4 pins 1e-12, the default the other checks ran at
    return _once(("superdense", p, q), lambda: run_superdense(p, q, tol=1e-12))


def _teleport(alpha: complex, beta: complex):
    return _once(("teleport", alpha, beta), lambda: run_teleport(alpha, beta))


def _fixture(name: str) -> tuple:
    """A committed fixture's text and its parsed program."""
    return _once(("fixture", name), lambda: (text := fixtures.read(name), parse_circuit(text)))


def _fixture_run(name: str):
    return _once(("fixture run", name), lambda: exec_circuit(_fixture(name)[1]))


def _check_sigma_identities() -> str:
    # the hand-written matrices obey the 8 action rules, and an exact match
    # pins every entry, so each rule holds exactly
    for (p, q), want in FLIPPED_CONVENTION_MATRICES.items():
        if not np.array_equal(reversed_convention_matrix(sigma(p, q)), want):
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
            _superdense(p, q)
    return "post-encoding state matches the two-component form for all 4 inputs"


def _check_superdense_end_to_end() -> str:
    for p in (0, 1):
        for q in (0, 1):
            result = _superdense(p, q)
            # run_superdense raises unless the pointer holds a single branch
            branch = result.decomposition.branches[0]
            if abs(branch.weight - 1.0) > 1e-12:
                raise AssertionError(f"({p},{q}): branch weight {branch.weight}")
            knowledge = branch_decompose(branch.residual, ("c", "d"))
            if len(knowledge.branches) != 1 or knowledge.branches[0].bits != (p, q):
                raise AssertionError(f"({p},{q}): knowledge wires disturbed")
            transfers = [e for e in result.world.trace if isinstance(e, TransferEvent)]
            if len(transfers) != 1 or transfers[0].wire != "a":
                raise AssertionError(f"({p},{q}): expected exactly one transfer of wire a")
    table = decode_table(_superdense(p, q) for p in (0, 1) for q in (0, 1))
    if table.mapping != EXPECTED_DECODE_TABLE:
        raise AssertionError(f"pointer labels differ from the hand-derived table: {table.entries}")
    shown = " ".join(f"{i[0]}{i[1]}->{o[0]}{o[1]}" for i, o in table.entries)
    return (
        f"single unit-weight branch, knowledge intact, one qubit moved; table {shown}; "
        f"identity map: {'yes' if table.is_identity else 'no'}"
    )


def _check_teleport_random() -> str:
    # The evolution is linear in the input: final(alpha, beta) = alpha F(1, 0)
    # + beta F(0, 1). Final states P (x) |0> and P (x) |1> on b, with one P,
    # therefore teleport every input exactly.
    # b is the last wire: transposed, one row per value of b over the pointer side
    (p0, zero0), (zero1, p1) = (
        _teleport(*inputs).world.state.amps.reshape(-1, 2).T for inputs in ((1, 0), (0, 1))
    )
    exact = not zero0.any() and not zero1.any() and np.array_equal(p0, p1)
    if not exact:
        # relative to the state's norm, for a kernel that rounds differently
        scale = 1e-10 * np.linalg.norm(p0)
        if max(np.linalg.norm(zero0), np.linalg.norm(zero1)) > scale:
            raise AssertionError("linearity: a basis input leaves amplitude on the other b value")
        if np.linalg.norm(p0 - p1) > scale:
            raise AssertionError("linearity: F(1, 0) and F(0, 1) carry different pointer sides")
    pointer = pointer_bell_sum()
    if not equal_up_to_phase(PureState(pointer.wires, p0), pointer, 1e-10):
        raise AssertionError("linearity: the pointer side is not the pointer Bell sum")
    # a few general complex inputs exercise the engine's arithmetic, which the
    # proof leaves open: the first 8 draws of 4 normals, normalized in Python
    # floats
    rng = np.random.default_rng(20240809)
    worst = 1.0
    for i, (re_a, im_a, re_b, im_b) in enumerate(rng.standard_normal((8, 4)).tolist()):
        alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
        norm = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
        # raises if the mid state diverges or the b cut has rank other than 1
        result = run_teleport(alpha / norm, beta / norm)
        if result.fidelity < 1.0 - 1e-10:
            raise AssertionError(f"sample {i}: fidelity {result.fidelity}")
        if not equal_up_to_phase(result.pointer_side, pointer, 1e-10):
            raise AssertionError(f"sample {i}: pointer-side factor mismatch")
        worst = min(worst, result.fidelity)
    return (
        f"F(1,0) = P|0> and F(0,1) = P|1> on b {'exactly' if exact else 'within 1e-10'}, "
        f"P the pointer Bell sum; 8 random qubits: min fidelity {worst:.15f}"
    )


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
            audited += audit_locality(_superdense(p, q).world.trace)
    audited += audit_locality(_teleport(0.6, 0.8j).world.trace)
    for name in (fixtures.SUPERDENSE, fixtures.TELEPORT):
        audited += audit_locality(_fixture_run(name)[0].trace)
    return f"premature measurement rejected; {audited} gate events audited clean"


def _check_dsl_round_trip() -> str:
    # check 5 pins the derived table to EXPECTED_DECODE_TABLE
    table = EXPECTED_DECODE_TABLE
    for p in (0, 1):
        for q in (0, 1):
            source = superdense_source(p, q, table[(p, q)])
            world, outcomes = exec_circuit(parse_circuit(source))
            reference = _superdense(p, q)
            if not all(o.passed for o in outcomes):
                raise AssertionError(f"({p},{q}): fixture assertion failed")
            if world.state.wires != reference.final_state.wires or not np.array_equal(
                world.state.amps, reference.final_state.amps
            ):
                raise AssertionError(f"({p},{q}): amplitudes not bit-identical")
    if _fixture(fixtures.SUPERDENSE)[0] != superdense_source(0, 1, table[(0, 1)]):
        raise AssertionError("committed superdense fixture differs from its template")
    world, outcomes = _fixture_run(fixtures.TELEPORT)
    reference = _teleport(1, 0)
    if not all(o.passed for o in outcomes):
        raise AssertionError("teleport fixture assertion failed")
    if not np.array_equal(world.state.amps, reference.world.state.amps):
        raise AssertionError("teleport amplitudes not bit-identical")
    if _fixture(fixtures.TELEPORT)[0] != teleport_source(1.0, 0.0):
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


def _reports(superdense: Callable, teleport: Callable) -> tuple[list[str], list[str]]:
    """Traced JSON of superdense (0, 1), with its decode table, and of teleport (0.6, 0.8i)."""
    runs = {(p, q): superdense(p, q) for p in (0, 1) for q in (0, 1)}
    return (
        superdense_lines(runs[0, 1], decode_table(runs.values()), json_mode=True, trace=True),
        teleport_lines(teleport(0.6, 0.8j), json_mode=True, trace=True),
    )


def _check_determinism() -> str:
    for name in (fixtures.SUPERDENSE, fixtures.TELEPORT):
        prog = _fixture(name)[1]
        first, second = render_ascii(prog), render_ascii(prog)
        if first != second:
            raise AssertionError(f"render of {name} not reproducible")
    # fresh runs of its own, then the shared ones: two independent runs
    fresh = _reports(lambda p, q: run_superdense(p, q, tol=1e-12), run_teleport)
    for kind, a, b in zip(("superdense", "teleport"), fresh, _reports(_superdense, _teleport)):
        if a != b:
            raise AssertionError(f"{kind} JSON output not reproducible")
    return "renders and JSON reports byte-identical across repeated runs"


_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("sigma action identities and convention translation", _check_sigma_identities),
    ("Bell basis Gram matrix equals 2I", _check_bell_gram),
    ("gate unitarity and the pointer-shift rule", _check_gate_unitarity),
    ("superdense intermediate state", _check_superdense_intermediate),
    ("superdense end to end", _check_superdense_end_to_end),
    ("teleportation of every qubit, by linearity", _check_teleport_random),
    ("locality enforcement and trace audit", _check_locality),
    ("circuit DSL round trip and parse errors", _check_dsl_round_trip),
    ("deterministic render and JSON output", _check_determinism),
)


def _result(index: int, name: str, check: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(index, name, True, check())
    except Exception as err:  # noqa: BLE001 - report, never crash the suite
        return CheckResult(index, name, False, f"{type(err).__name__}: {err}")


def run_all() -> list[CheckResult]:
    token = _RUNS.set({})
    try:
        return [_result(index, *named) for index, named in enumerate(_CHECKS, start=1)]
    finally:
        # the shared runs die with this call: no later check reads them
        _RUNS.reset(token)
