"""Line-oriented circuit language and interpreter.

One statement per line, `#` starts a comment, keywords are case sensitive.
Grammar (tokens separated by whitespace):

    wire <label> @ <Alice|Bob>
    init <label> = |0>
    init <label> = |1>
    init <label> = (<re>,<im>) |0> + (<re>,<im>) |1>
    init pair <label> <label> = bell <x> <y>
    gate <name> <label>... @ <Alice|Bob>
    transfer <label> -> <Alice|Bob>
    assert pointer <label> <label> = <bit><bit>
    assert factor <label> ~ <ket-expression>

Gate names: sigma00 sigma01 sigma10 sigma11 (1 wire), cu_sigma (3, two
controls then the target), cu_meas (4, two pointer wires then the measured
pair), u_b (3, two pointer wires then the target). Labels must be declared
with `wire` before use; gate operand counts are checked at parse time.

Execution interprets statements in order against a ProtocolWorld: inits
tensor wires into the state in statement order, gates are applied as the
named agent (halting with LocalityError if the agent does not hold every
operand), and assertions are evaluated and recorded without halting.
Files use extension `.ecirc`, UTF-8, LF line endings.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from . import protocols
from .gates import UnitaryGate, bell, cu_meas, cu_sigma, sigma, u_b_decoder
from .state import Bipartition, equal_up_to_phase, qubit, schmidt_factor

ASSERT_TOL = 1e-10


class GateSpec(NamedTuple):
    """A DSL gate: how to construct it, and which operands the diagram draws as dots and boxes."""

    build: Callable[[], UnitaryGate]
    controls: tuple[int, ...]
    boxes: tuple[int, ...]
    label: str

    @property
    def arity(self) -> int:
        return len(self.controls) + len(self.boxes)


GATES: dict[str, GateSpec] = {
    "sigma00": GateSpec(lambda: sigma(0, 0), (), (0,), "σ00"),
    "sigma01": GateSpec(lambda: sigma(0, 1), (), (0,), "σ01"),
    "sigma10": GateSpec(lambda: sigma(1, 0), (), (0,), "σ10"),
    "sigma11": GateSpec(lambda: sigma(1, 1), (), (0,), "σ11"),
    "cu_sigma": GateSpec(cu_sigma, (0, 1), (2,), "Uσ"),
    "cu_meas": GateSpec(cu_meas, (2, 3), (0, 1), "UM"),
    "u_b": GateSpec(u_b_decoder, (0, 1), (2,), "UB"),
}

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_AMP_RE = re.compile(r"\(([^\s,()]+),([^\s,()]+)\)\Z")
_AGENTS = ("Alice", "Bob")


class CircuitParseError(Exception):
    """Parse failure with a source position and what was expected instead."""

    def __init__(self, line: int, column: int, message: str, expected: str):
        super().__init__(f"line {line}, column {column}: {message} (expected {expected})")
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected


class CircuitError(RuntimeError):
    """Runtime failure while executing a parsed circuit."""


@dataclass(frozen=True)
class KetExpr:
    """A single-qubit initializer: amplitudes for |0> and |1>."""

    amp0: complex
    amp1: complex

    @property
    def text(self) -> str:
        if (self.amp0, self.amp1) == (1, 0):
            return "|0>"
        if (self.amp0, self.amp1) == (0, 1):
            return "|1>"
        def pair(a: complex) -> str:
            return f"({_shortf(a.real)},{_shortf(a.imag)})"
        return f"{pair(self.amp0)}|0>+{pair(self.amp1)}|1>"


def _shortf(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class WireDecl:
    line: int
    label: str
    agent: str


@dataclass(frozen=True)
class InitKet:
    line: int
    wire: str
    expr: KetExpr


@dataclass(frozen=True)
class InitPair:
    line: int
    wires: tuple[str, str]
    x: int
    y: int


@dataclass(frozen=True)
class GateStatement:
    line: int
    name: str
    wires: tuple[str, ...]
    actor: str


@dataclass(frozen=True)
class TransferStatement:
    line: int
    wire: str
    dest: str


@dataclass(frozen=True)
class AssertPointer:
    line: int
    wires: tuple[str, str]
    bits: tuple[int, int]


@dataclass(frozen=True)
class AssertFactor:
    line: int
    wire: str
    expr: KetExpr


Statement = Union[InitKet, InitPair, GateStatement, TransferStatement, AssertPointer, AssertFactor]


@dataclass(frozen=True)
class CircuitProgram:
    registers: tuple[WireDecl, ...]
    statements: tuple[Statement, ...]


class _Cursor:
    """Token stream over one source line, tracking 1-based columns."""

    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        body = text.split("#", 1)[0]
        self.tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", body)]
        self.end_column = len(body.rstrip()) + 1
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def take(self, expected: str) -> tuple[int, str]:
        if self.pos >= len(self.tokens):
            raise CircuitParseError(self.lineno, self.end_column, "line ended early", expected)
        col, tok = self.tokens[self.pos]
        self.pos += 1
        return col, tok

    def literal(self, word: str) -> None:
        col, tok = self.take(f"'{word}'")
        if tok != word:
            raise CircuitParseError(self.lineno, col, f"got {tok!r}", f"'{word}'")

    def done(self) -> None:
        if self.pos < len(self.tokens):
            col, tok = self.tokens[self.pos]
            raise CircuitParseError(self.lineno, col, f"unexpected trailing token {tok!r}", "end of line")

    def error(self, column: int, message: str, expected: str) -> CircuitParseError:
        return CircuitParseError(self.lineno, column, message, expected)


def _parse_label(cur: _Cursor, declared: set[str] | None) -> str:
    col, tok = cur.take("wire label")
    if not _LABEL_RE.match(tok):
        raise cur.error(col, f"{tok!r} is not a valid wire label", "identifier")
    if declared is not None and tok not in declared:
        raise cur.error(col, f"wire {tok!r} not declared", "a declared wire")
    return tok


def _parse_agent(cur: _Cursor) -> str:
    col, tok = cur.take("agent name")
    if tok not in _AGENTS:
        raise cur.error(col, f"unknown agent {tok!r}", "'Alice' or 'Bob'")
    return tok


def _parse_bit(cur: _Cursor) -> int:
    col, tok = cur.take("bit")
    if tok not in ("0", "1"):
        raise cur.error(col, f"{tok!r} is not a bit", "'0' or '1'")
    return int(tok)


def _amp_value(cur: _Cursor, col: int, tok: str) -> complex:
    m = _AMP_RE.match(tok)
    if not m:
        raise cur.error(col, f"{tok!r} is not an amplitude", "(re,im)")
    try:
        value = complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        raise cur.error(col, f"non-numeric amplitude {tok!r}", "(re,im) with decimal parts") from None
    if not cmath.isfinite(value):
        raise cur.error(col, f"non-finite amplitude {tok!r}", "finite (re,im)")
    return value


def _parse_amp(cur: _Cursor) -> complex:
    return _amp_value(cur, *cur.take("(re,im) amplitude"))


def _parse_ket(cur: _Cursor) -> KetExpr:
    col, tok = cur.take("ket expression")
    if tok == "|0>":
        return KetExpr(1.0, 0.0)
    if tok == "|1>":
        return KetExpr(0.0, 1.0)
    if not _AMP_RE.match(tok):
        raise cur.error(col, f"{tok!r} does not start a ket expression", "|0>, |1> or (re,im)")
    amp0 = _amp_value(cur, col, tok)
    cur.literal("|0>")
    cur.literal("+")
    amp1 = _parse_amp(cur)
    cur.literal("|1>")
    return KetExpr(amp0, amp1)


def parse_circuit(source: str) -> CircuitProgram:
    """Parse a circuit program; deterministic single pass, first error wins."""
    registers: list[WireDecl] = []
    statements: list[Statement] = []
    declared: set[str] = set()

    for lineno, raw in enumerate(source.splitlines(), start=1):
        cur = _Cursor(lineno, raw)
        head = cur.peek()
        if head is None:
            continue
        if head == "wire":
            cur.take("'wire'")
            col = cur.tokens[cur.pos][0] if cur.pos < len(cur.tokens) else cur.end_column
            label = _parse_label(cur, None)
            if label in declared:
                raise cur.error(col, f"wire {label!r} already declared", "a fresh label")
            cur.literal("@")
            agent = _parse_agent(cur)
            cur.done()
            declared.add(label)
            registers.append(WireDecl(lineno, label, agent))
        elif head == "init":
            cur.take("'init'")
            if cur.peek() == "pair":
                cur.take("'pair'")
                w1 = _parse_label(cur, declared)
                col2 = cur.tokens[cur.pos][0] if cur.pos < len(cur.tokens) else cur.end_column
                w2 = _parse_label(cur, declared)
                if w2 == w1:
                    raise cur.error(col2, "pair wires must differ", "a different label")
                cur.literal("=")
                cur.literal("bell")
                x = _parse_bit(cur)
                y = _parse_bit(cur)
                cur.done()
                statements.append(InitPair(lineno, (w1, w2), x, y))
            else:
                wirelabel = _parse_label(cur, declared)
                cur.literal("=")
                expr = _parse_ket(cur)
                cur.done()
                statements.append(InitKet(lineno, wirelabel, expr))
        elif head == "gate":
            cur.take("'gate'")
            col, name = cur.take("gate name")
            if name not in GATES:
                raise cur.error(col, f"unknown gate {name!r}", " | ".join(sorted(GATES)))
            operands: list[str] = []
            while cur.peek() is not None and cur.peek() != "@":
                wcol = cur.tokens[cur.pos][0]
                w = _parse_label(cur, declared)
                if w in operands:
                    raise cur.error(wcol, f"repeated operand {w!r}", "distinct wires")
                operands.append(w)
            arity = GATES[name].arity
            if len(operands) != arity:
                raise cur.error(
                    col, f"{name} takes {arity} wires, got {len(operands)}", f"{arity} operand(s)"
                )
            cur.literal("@")
            actor = _parse_agent(cur)
            cur.done()
            statements.append(GateStatement(lineno, name, tuple(operands), actor))
        elif head == "transfer":
            cur.take("'transfer'")
            wirelabel = _parse_label(cur, declared)
            cur.literal("->")
            dest = _parse_agent(cur)
            cur.done()
            statements.append(TransferStatement(lineno, wirelabel, dest))
        elif head == "assert":
            cur.take("'assert'")
            col, what = cur.take("'pointer' or 'factor'")
            if what == "pointer":
                w1 = _parse_label(cur, declared)
                w2 = _parse_label(cur, declared)
                cur.literal("=")
                bcol, btok = cur.take("two bits")
                if len(btok) != 2 or any(ch not in "01" for ch in btok):
                    raise cur.error(bcol, f"{btok!r} is not a two-bit string", "e.g. 01")
                cur.done()
                statements.append(AssertPointer(lineno, (w1, w2), (int(btok[0]), int(btok[1]))))
            elif what == "factor":
                wirelabel = _parse_label(cur, declared)
                cur.literal("~")
                expr = _parse_ket(cur)
                cur.done()
                statements.append(AssertFactor(lineno, wirelabel, expr))
            else:
                raise cur.error(col, f"unknown assertion {what!r}", "'pointer' or 'factor'")
        else:
            col = cur.tokens[0][0]
            raise cur.error(col, f"unknown statement {head!r}", "wire|init|gate|transfer|assert")

    return CircuitProgram(tuple(registers), tuple(statements))


@dataclass(frozen=True)
class AssertionOutcome:
    line: int
    kind: str  # "pointer" or "factor"
    passed: bool
    detail: str


def exec_circuit(
    prog: CircuitProgram, tol: float = ASSERT_TOL
) -> tuple[protocols.ProtocolWorld, list[AssertionOutcome]]:
    """Interpret a program; returns the final world and assertion outcomes.

    Assertions are recorded and execution continues past failures; locality
    violations and malformed runtime states raise and halt.
    """
    world = protocols.empty_world()
    agents = {decl.label: protocols.Agent(decl.agent) for decl in prog.registers}
    initialized: set[str] = set()
    outcomes: list[AssertionOutcome] = []

    def need_initialized(line: int, wires: tuple[str, ...]) -> None:
        for w in wires:
            if w not in initialized:
                raise CircuitError(f"line {line}: wire {w!r} used before init")

    for stmt in prog.statements:
        if isinstance(stmt, InitKet):
            if stmt.wire in initialized:
                raise CircuitError(f"line {stmt.line}: wire {stmt.wire!r} initialized twice")
            if stmt.expr.amp0 == 0 and stmt.expr.amp1 == 0:
                raise CircuitError(f"line {stmt.line}: zero initializer for {stmt.wire!r}")
            piece = qubit(stmt.wire, stmt.expr.amp0, stmt.expr.amp1)
            world = protocols.init_wires(
                world, piece, {stmt.wire: agents[stmt.wire]}, stmt.expr.text
            )
            initialized.add(stmt.wire)
        elif isinstance(stmt, InitPair):
            for w in stmt.wires:
                if w in initialized:
                    raise CircuitError(f"line {stmt.line}: wire {w!r} initialized twice")
            piece = bell(stmt.x, stmt.y, stmt.wires)
            world = protocols.init_wires(
                world, piece, {w: agents[w] for w in stmt.wires}, f"bell({stmt.x},{stmt.y})"
            )
            initialized.update(stmt.wires)
        elif isinstance(stmt, GateStatement):
            need_initialized(stmt.line, stmt.wires)
            gate = GATES[stmt.name].build()
            world = protocols.apply_local(
                world, gate, stmt.wires, protocols.Agent(stmt.actor)
            )
        elif isinstance(stmt, TransferStatement):
            need_initialized(stmt.line, (stmt.wire,))
            world = protocols.transfer(world, stmt.wire, protocols.Agent(stmt.dest))
        elif isinstance(stmt, AssertPointer):
            need_initialized(stmt.line, stmt.wires)
            world, decomp = protocols.decompose_pointer(world, stmt.wires, tol=tol)
            observed = {b.label: b.weight for b in decomp.branches}
            want = f"{stmt.bits[0]}{stmt.bits[1]}"
            passed = len(decomp.branches) == 1 and decomp.branches[0].label == want
            detail = (
                f"pointer={want}"
                if passed
                else "expected " + want + ", observed " + (
                    ",".join(f"{k}:{v:.6f}" for k, v in sorted(observed.items())) or "nothing"
                )
            )
            outcomes.append(AssertionOutcome(stmt.line, "pointer", passed, detail))
        elif isinstance(stmt, AssertFactor):
            need_initialized(stmt.line, (stmt.wire,))
            rest = frozenset(w for w in world.state.wires if w != stmt.wire)
            cut = Bipartition(rest, frozenset({stmt.wire}))
            rank, factors = schmidt_factor(world.state, cut, tol)
            if rank != 1 or factors is None:
                passed = False
                detail = f"not a product across {stmt.wire!r} (rank {rank})"
            else:
                target = qubit(stmt.wire, stmt.expr.amp0, stmt.expr.amp1)
                passed = equal_up_to_phase(factors[1], target, tol)
                detail = f"factor on {stmt.wire!r} ~ {stmt.expr.text}" if passed else (
                    f"factor on {stmt.wire!r} differs from {stmt.expr.text}"
                )
            outcomes.append(AssertionOutcome(stmt.line, "factor", passed, detail))
        else:  # pragma: no cover - parser only emits the kinds above
            raise CircuitError(f"line {stmt.line}: unhandled statement {stmt!r}")

    return world, outcomes


def superdense_source(p: int, q: int, expect: tuple[int, int]) -> str:
    """Program text for one superdense run asserting the given pointer label."""
    return (
        "wire c @ Alice\n"
        "wire d @ Alice\n"
        "wire a @ Alice\n"
        "wire b @ Bob\n"
        "wire E1 @ Bob\n"
        "wire E2 @ Bob\n"
        f"init c = |{p}>\n"
        f"init d = |{q}>\n"
        "init pair a b = bell 0 0\n"
        "init E1 = |0>\n"
        "init E2 = |0>\n"
        "gate cu_sigma c d a @ Alice\n"
        "transfer a -> Bob\n"
        "gate cu_meas E1 E2 a b @ Bob\n"
        f"assert pointer E1 E2 = {expect[0]}{expect[1]}\n"
    )


def teleport_source(alpha: complex, beta: complex) -> str:
    """Program text for one teleportation run asserting Bob's factor."""
    alpha = complex(alpha)
    beta = complex(beta)
    expr = KetExpr(alpha, beta)
    if expr.text in ("|0>", "|1>"):
        init_u = expr.text
        ket = expr.text
    else:
        init_u = (
            f"({_shortf(alpha.real)},{_shortf(alpha.imag)}) |0> "
            f"+ ({_shortf(beta.real)},{_shortf(beta.imag)}) |1>"
        )
        ket = init_u
    return (
        "wire E1 @ Alice\n"
        "wire E2 @ Alice\n"
        "wire u @ Alice\n"
        "wire a @ Alice\n"
        "wire b @ Bob\n"
        "init E1 = |0>\n"
        "init E2 = |0>\n"
        f"init u = {init_u}\n"
        "init pair a b = bell 0 0\n"
        "gate cu_meas E1 E2 u a @ Alice\n"
        "transfer E1 -> Bob\n"
        "transfer E2 -> Bob\n"
        "gate u_b E1 E2 b @ Bob\n"
        f"assert factor b ~ {ket}\n"
    )
