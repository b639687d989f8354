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

Each keyword has one parse function (`_parse_wire`, `_parse_init`,
`_parse_gate`, `_parse_transfer`, `_parse_assert`). `parse_circuit` looks a
line's first token up among them, calls that function and then checks that
the line has ended; a wire is declared only once its whole line has parsed.
Every failure is a CircuitParseError naming the line, the column and what
was expected there. `KetExpr.source` is the one spelling of a ket, which
`teleport_source` writes and the parser reads back to an equal KetExpr.

Execution interprets statements in order against a ProtocolWorld: each run
of consecutive inits tensors its wires into the state as one product, in
statement order; gates are applied as the named agent (halting with
LocalityError if the agent does not hold every operand), and assertions
are evaluated and recorded without halting.
Every statement but an init runs through the step executor `run_step`,
which the protocol runners also use on the gate and transfer statements of
`superdense_source` and `teleport_source`, the protocol templates.
Files use extension `.ecirc`, UTF-8, LF line endings. `parse_circuit` ends
a line at LF, CRLF or a lone CR only, the three the CLI's text-mode read
folds into LF. The other line boundaries of `str.splitlines` (VT, FF, the
file, group and record separators, NEL, U+2028 and U+2029) are whitespace
to the tokenizer, inside a comment as well. The CLI drops a leading UTF-8
byte-order mark when it reads a file; `parse_circuit` takes
its text as given, so a mark passed to it is an unknown statement.
"""

from __future__ import annotations

import cmath
import itertools
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Union

from . import protocols
from .gates import UnitaryGate, bell, cu_meas, cu_sigma, sigma, u_b_decoder
from .state import MAX_WIRES, StateError, equal_up_to_phase, qubit, wire_factor

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
    **{
        f"sigma{p}{q}": GateSpec(partial(sigma, p, q), (), (0,), f"σ{p}{q}")
        for p in (0, 1)
        for q in (0, 1)
    },
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
    def source(self) -> str:
        """The program spelling: `|0>`, `|1>`, or `(re,im) |0> + (re,im) |1>`.

        Each part is written as its float's repr, which reads back to the same float.
        """
        if (self.amp0, self.amp1) == (1, 0):
            return "|0>"
        if (self.amp0, self.amp1) == (0, 1):
            return "|1>"
        def pair(a: complex) -> str:
            return f"({float(a.real)!r},{float(a.imag)!r})"
        return f"{pair(self.amp0)} |0> + {pair(self.amp1)} |1>"

    @property
    def text(self) -> str:
        """`source` without spaces.

        Init trace labels, assertion details and diagrams print this form.
        """
        return self.source.replace(" ", "")


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

    def column(self) -> int:
        """The column of the next token, or the end of the line."""
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else self.end_column

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
    amp1 = _amp_value(cur, *cur.take("(re,im) amplitude"))
    cur.literal("|1>")
    return KetExpr(amp0, amp1)


def _parse_pair(cur: _Cursor, declared: set[str], role: str) -> tuple[str, str]:
    """Two distinct declared labels; a repeated one is reported at its second use."""
    first = _parse_label(cur, declared)
    col = cur.column()
    second = _parse_label(cur, declared)
    if second == first:
        raise cur.error(col, f"{role} wires must differ", "a different label")
    return first, second


def _parse_wire(cur: _Cursor, lineno: int, declared: set[str]) -> WireDecl:
    col = cur.column()
    label = _parse_label(cur, None)
    if label in declared:
        raise cur.error(col, f"wire {label!r} already declared", "a fresh label")
    cur.literal("@")
    return WireDecl(lineno, label, _parse_agent(cur))


def _parse_init(cur: _Cursor, lineno: int, declared: set[str]) -> InitKet | InitPair:
    if cur.peek() == "pair":
        cur.take("'pair'")
        wires = _parse_pair(cur, declared, "pair")
        cur.literal("=")
        cur.literal("bell")
        return InitPair(lineno, wires, _parse_bit(cur), _parse_bit(cur))
    wire = _parse_label(cur, declared)
    cur.literal("=")
    return InitKet(lineno, wire, _parse_ket(cur))


def _parse_gate(cur: _Cursor, lineno: int, declared: set[str]) -> GateStatement:
    col, name = cur.take("gate name")
    if name not in GATES:
        raise cur.error(col, f"unknown gate {name!r}", " | ".join(sorted(GATES)))
    operands: list[str] = []
    while cur.peek() is not None and cur.peek() != "@":
        wcol = cur.column()
        w = _parse_label(cur, declared)
        if w in operands:
            raise cur.error(wcol, f"repeated operand {w!r}", "distinct wires")
        operands.append(w)
    arity = GATES[name].arity
    if len(operands) != arity:
        raise cur.error(col, f"{name} takes {arity} wires, got {len(operands)}", f"{arity} operand(s)")
    cur.literal("@")
    return GateStatement(lineno, name, tuple(operands), _parse_agent(cur))


def _parse_transfer(cur: _Cursor, lineno: int, declared: set[str]) -> TransferStatement:
    wire = _parse_label(cur, declared)
    cur.literal("->")
    return TransferStatement(lineno, wire, _parse_agent(cur))


def _parse_assert(cur: _Cursor, lineno: int, declared: set[str]) -> AssertPointer | AssertFactor:
    col, what = cur.take("'pointer' or 'factor'")
    if what == "pointer":
        wires = _parse_pair(cur, declared, "pointer")
        cur.literal("=")
        bcol, btok = cur.take("two bits")
        if len(btok) != 2 or any(ch not in "01" for ch in btok):
            raise cur.error(bcol, f"{btok!r} is not a two-bit string", "e.g. 01")
        return AssertPointer(lineno, wires, (int(btok[0]), int(btok[1])))
    if what == "factor":
        wire = _parse_label(cur, declared)
        cur.literal("~")
        return AssertFactor(lineno, wire, _parse_ket(cur))
    raise cur.error(col, f"unknown assertion {what!r}", "'pointer' or 'factor'")


def parse_circuit(source: str) -> CircuitProgram:
    """Parse a circuit program; deterministic single pass, first error wins."""
    parsers = {
        "wire": _parse_wire,
        "init": _parse_init,
        "gate": _parse_gate,
        "transfer": _parse_transfer,
        "assert": _parse_assert,
    }
    registers: list[WireDecl] = []
    statements: list[Statement] = []
    declared: set[str] = set()

    # a line ends at LF, CRLF or a lone CR, not at the other boundaries of
    # str.splitlines: those are whitespace, as \S+ reads them
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", source), start=1):
        cur = _Cursor(lineno, raw)
        head = cur.peek()
        if head is None:
            continue
        parse = parsers.get(head)
        if parse is None:
            raise cur.error(cur.column(), f"unknown statement {head!r}", "|".join(parsers))
        cur.take(head)
        stmt = parse(cur, lineno, declared)
        cur.done()
        if isinstance(stmt, WireDecl):
            # declared only once its whole line has parsed
            declared.add(stmt.label)
            registers.append(stmt)
        else:
            statements.append(stmt)

    return CircuitProgram(tuple(registers), tuple(statements))


@dataclass(frozen=True)
class AssertionOutcome:
    line: int
    kind: str  # "pointer" or "factor"
    passed: bool
    detail: str


def _operands(stmt: Statement) -> tuple[str, ...]:
    if isinstance(stmt, (InitKet, TransferStatement, AssertFactor)):
        return (stmt.wire,)
    return stmt.wires


def exec_circuit(
    prog: CircuitProgram, tol: float = ASSERT_TOL
) -> tuple[protocols.ProtocolWorld, list[AssertionOutcome]]:
    """Interpret a program; returns the final world and assertion outcomes.

    Each run of consecutive inits joins the state in one
    ``protocols.init_wires`` call (``_init_run``), one InitEvent per
    statement. Assertions are recorded and execution continues past
    failures. Any other failure of a statement (a locality violation, a wire
    initialized twice or used before its init, a state that leaves the float
    range) halts with its error, of the same type, its message prefixed with
    the statement's line; so does a MemoryError, raised anew, which names the
    last init of a run. A program that initializes more than MAX_WIRES wires
    halts before its first statement, naming the init that crosses the
    limit, so no part of it is allocated.
    """
    planned: set[str] = set()
    for stmt in prog.statements:
        if isinstance(stmt, (InitKet, InitPair)):
            planned.update(_operands(stmt))
            if len(planned) > MAX_WIRES:
                raise CircuitError(
                    f"line {stmt.line}: initializes wire {len(planned)}, "
                    f"past the limit of {MAX_WIRES} wires for a dense state"
                )

    world = protocols.empty_world()
    agents = {decl.label: protocols.Agent(decl.agent) for decl in prog.registers}
    outcomes: list[AssertionOutcome] = []
    runs = itertools.groupby(prog.statements, lambda stmt: isinstance(stmt, (InitKet, InitPair)))
    for inits, stmts in runs:
        if inits:
            world = _init_run(world, tuple(stmts), agents)
            continue
        for stmt in stmts:
            try:
                world = run_step(world, stmt, tol, outcomes)
            except (CircuitError, protocols.ProtocolError, StateError, MemoryError) as err:
                raise _at_line(err, stmt.line)
    return world, outcomes


def _at_line(err: Exception, line: int) -> Exception:
    """A statement's failure, its message prefixed with the statement's line.

    The same error, of the same type, but for a MemoryError, which is made
    anew: numpy's prints its own message whatever its args hold.
    """
    if isinstance(err, MemoryError):
        named = MemoryError(f"line {line}: {str(err) or 'out of memory'}")
        named.__cause__ = err
        return named
    err.args = (f"line {line}: {err}",)
    return err


def _init_run(
    world: protocols.ProtocolWorld,
    run: tuple[InitKet | InitPair, ...],
    agents: dict[str, protocols.Agent],
) -> protocols.ProtocolWorld:
    """Tensor a run of consecutive inits into the world in one ``protocols.init_wires`` call.

    Each init's own checks run first, in order, and name its line: a wire
    initialized twice, by an earlier init of the run too, and a zero
    initializer. A run whose product leaves the float range runs again one
    init at a time, so that the init whose product left it names the line,
    as it would alone. A MemoryError names the run's last init.
    """
    pieces, labels, placements = [], [], {}
    for stmt in run:
        for w in _operands(stmt):
            if w in world.location or w in placements:
                raise CircuitError(f"line {stmt.line}: wire {w!r} initialized twice")
        if isinstance(stmt, InitPair):
            piece, label = bell(stmt.x, stmt.y, stmt.wires), f"bell({stmt.x},{stmt.y})"
        elif stmt.expr.amp0 == 0 and stmt.expr.amp1 == 0:
            raise CircuitError(f"line {stmt.line}: zero initializer for {stmt.wire!r}")
        else:
            piece, label = qubit(stmt.wire, stmt.expr.amp0, stmt.expr.amp1), stmt.expr.text
        placements.update((w, agents[w]) for w in piece.wires)
        pieces.append(piece)
        labels.append(label)
    try:
        return protocols.init_wires(world, pieces, placements, labels)
    except MemoryError as err:
        raise _at_line(err, run[-1].line)
    except StateError as err:
        for stmt, piece, label in zip(run, pieces, labels):
            alone = {w: placements[w] for w in piece.wires}
            try:
                world = protocols.init_wires(world, (piece,), alone, (label,))
            except (StateError, MemoryError) as failed:
                raise _at_line(failed, stmt.line)
        raise _at_line(err, run[-1].line)


def run_step(
    world: protocols.ProtocolWorld, stmt: Statement, tol: float, outcomes: list[AssertionOutcome]
) -> protocols.ProtocolWorld:
    """Run one gate, transfer or assert statement; returns the new world.

    The gate is built from GATES when its step runs. An assertion appends
    its outcome to `outcomes` and never halts; a wire that no init has put
    into the world raises CircuitError. The caller names the line.
    """
    for w in _operands(stmt):
        if w not in world.location:
            raise CircuitError(f"wire {w!r} used before init")
    if isinstance(stmt, GateStatement):
        gate = GATES[stmt.name].build()
        return protocols.apply_local(world, gate, stmt.wires, protocols.Agent(stmt.actor))
    if isinstance(stmt, TransferStatement):
        return protocols.transfer(world, stmt.wire, protocols.Agent(stmt.dest))
    if isinstance(stmt, AssertPointer):
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
        rank, factor = wire_factor(world.state, stmt.wire, tol)
        if factor is None:
            passed = False
            detail = f"not a product across {stmt.wire!r} (rank {rank})"
        elif stmt.expr.amp0 == 0 and stmt.expr.amp1 == 0:
            # a zero ket is no state to compare with: a failed assertion, not a halt
            passed = False
            detail = f"factor on {stmt.wire!r} cannot be compared with the zero ket {stmt.expr.text}"
        else:
            target = qubit(stmt.wire, stmt.expr.amp0, stmt.expr.amp1)
            passed = equal_up_to_phase(factor, target, tol)
            detail = f"factor on {stmt.wire!r} ~ {stmt.expr.text}" if passed else (
                f"factor on {stmt.wire!r} differs from {stmt.expr.text}"
            )
        outcomes.append(AssertionOutcome(stmt.line, "factor", passed, detail))
    else:  # pragma: no cover - inits never reach the step executor
        raise CircuitError(f"unhandled statement {stmt!r}")
    return world


def _wire_lines(layout: dict[str, protocols.Agent]) -> str:
    return "".join(f"wire {w} @ {agent.value}\n" for w, agent in layout.items())


def superdense_source(p: int, q: int, expect: tuple[int, int]) -> str:
    """Program text for one superdense run asserting the given pointer label."""
    return _wire_lines(protocols.SUPERDENSE_WIRES) + (
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
    ket = KetExpr(complex(alpha), complex(beta)).source
    return _wire_lines(protocols.TELEPORT_WIRES) + (
        "init E1 = |0>\n"
        "init E2 = |0>\n"
        f"init u = {ket}\n"
        "init pair a b = bell 0 0\n"
        "gate cu_meas E1 E2 u a @ Alice\n"
        "transfer E1 -> Bob\n"
        "transfer E2 -> Bob\n"
        "gate u_b E1 E2 b @ Bob\n"
        f"assert factor b ~ {ket}\n"
    )
