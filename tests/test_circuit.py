import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import everettsim
from everettsim import fixtures, protocols
from everettsim.circuit import (
    AssertFactor,
    AssertPointer,
    CircuitError,
    CircuitParseError,
    GateStatement,
    InitKet,
    InitPair,
    KetExpr,
    TransferStatement,
    exec_circuit,
    parse_circuit,
    superdense_source,
    teleport_source,
)
from everettsim.protocols import LocalityError, run_superdense, run_teleport
from everettsim.state import StateError

DECODE = {(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (1, 1)}


# ----------------------------------------------------------------- parsing


def test_committed_superdense_fixture_matches_its_template():
    assert fixtures.read(fixtures.SUPERDENSE) == superdense_source(0, 1, (1, 0))


def test_committed_teleport_fixture_matches_its_template():
    assert fixtures.read(fixtures.TELEPORT) == teleport_source(1.0, 0.0)


def test_superdense_fixture_parses_into_registers_and_statements():
    prog = parse_circuit(fixtures.read(fixtures.SUPERDENSE))
    assert [d.label for d in prog.registers] == ["c", "d", "a", "b", "E1", "E2"]
    assert [d.agent for d in prog.registers] == ["Alice"] * 3 + ["Bob"] * 3
    kinds = [type(s) for s in prog.statements]
    assert kinds == [InitKet, InitKet, InitPair, InitKet, InitKet,
                     GateStatement, TransferStatement, GateStatement, AssertPointer]
    gate = prog.statements[5]
    assert (gate.name, gate.wires, gate.actor) == ("cu_sigma", ("c", "d", "a"), "Alice")
    pointer = prog.statements[-1]
    assert pointer.wires == ("E1", "E2") and pointer.bits == (1, 0)


def test_comments_and_blank_lines_are_ignored():
    prog = parse_circuit("# a comment\n\nwire c @ Alice  # trailing\ninit c = |1>\n")
    assert len(prog.registers) == 1
    assert prog.statements == (InitKet(4, "c", KetExpr(0.0, 1.0)),)


def test_superposition_init_parses_amplitudes():
    prog = parse_circuit(
        "wire u @ Alice\ninit u = (0.6,0.0) |0> + (0.0,-0.8) |1>\n"
    )
    stmt = prog.statements[0]
    assert stmt.expr.amp0 == complex(0.6, 0.0)
    assert stmt.expr.amp1 == complex(0.0, -0.8)


def test_assert_factor_parses_ket_expression():
    prog = parse_circuit("wire b @ Bob\nassert factor b ~ |1>\n")
    stmt = prog.statements[0]
    assert isinstance(stmt, AssertFactor)
    assert stmt.expr == KetExpr(0.0, 1.0)


def test_truncated_transfer_reports_the_missing_agent():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire a @ Alice\ntransfer a ->")
    assert err.value.line == 2
    assert err.value.column == len("transfer a ->") + 1
    assert "agent" in err.value.expected


def test_undeclared_wire_is_a_parse_error():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("init c = |0>")
    assert (err.value.line, err.value.column) == (1, 6)


def test_unknown_gate_name_is_a_parse_error():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice\ngate warp c @ Alice")
    assert err.value.line == 2
    assert "sigma00" in err.value.expected
    assert str(err.value) == (
        "line 2, column 6: unknown gate 'warp' (expected cu_meas | cu_sigma | "
        "sigma00 | sigma01 | sigma10 | sigma11 | u_b)"
    )


def test_gate_arity_checked_at_parse_time():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice\nwire d @ Alice\ngate cu_sigma c d @ Alice")
    assert "3 operand" in err.value.expected
    assert str(err.value) == "line 3, column 6: cu_sigma takes 3 wires, got 2 (expected 3 operand(s))"


@pytest.mark.parametrize("source,message", [
    ("wire c @ Alice\ngate cu_meas c @ Alice",
     "line 2, column 6: cu_meas takes 4 wires, got 1 (expected 4 operand(s))"),
    ("wire c @ Alice\nwire d @ Alice\ngate sigma01 c d @ Alice",
     "line 3, column 6: sigma01 takes 1 wires, got 2 (expected 1 operand(s))"),
])
def test_wrong_arity_message_names_the_count(source, message):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(source)
    assert str(err.value) == message


@pytest.mark.parametrize("statement,column", [
    ("init c = (nan,0) |0> + (1,0) |1>", 10),
    ("init c = (inf,0) |0> + (1,0) |1>", 10),
    ("init c = (1,0) |0> + (0,-inf) |1>", 22),
    ("assert factor c ~ (1,0) |0> + (1e999,0) |1>", 31),
])
def test_non_finite_amplitude_is_a_positioned_parse_error(statement, column):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice\n" + statement)
    assert (err.value.line, err.value.column) == (2, column)
    assert "non-finite amplitude" in err.value.message


def test_repeated_pointer_wire_is_a_parse_error_at_the_second_wire():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire a @ Alice\nassert pointer a a = 00")
    assert str(err.value) == "line 2, column 18: pointer wires must differ (expected a different label)"


def test_duplicate_declaration_is_a_parse_error():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice\nwire c @ Bob")
    assert err.value.line == 2


# every line boundary of str.splitlines but LF, CR and CRLF
@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_lf_cr_and_crlf_end_a_line(separator):
    # inside a comment the separator ends neither the comment nor the line
    program = parse_circuit(f"wire c @ Alice # a comment{separator}wire d @ Bob")
    assert [w.label for w in program.registers] == ["c"]
    # between tokens it is whitespace
    program = parse_circuit(f"wire{separator}c @ Alice\r\nwire d{separator}@ Bob")
    assert [w.label for w in program.registers] == ["c", "d"]
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"# x{separator}\nwire c @ Alice\rwire c @ Bob")
    assert err.value.line == 3


def test_trailing_tokens_are_rejected():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice extra")
    assert err.value.column == len("wire c @ Alice ") + 1


def test_ket_expr_text_round_trips():
    assert KetExpr(1.0, 0.0).text == "|0>"
    assert KetExpr(0.0, 1.0).text == "|1>"
    assert KetExpr(complex(0.6, 0), complex(0, 0.8)).text == "(0.6,0.0)|0>+(0.0,0.8)|1>"


FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(alpha=FINITE, beta=FINITE)
def test_ket_source_is_the_one_spelling_of_a_ket(alpha, beta):
    assume(alpha != 0 or beta != 0)
    expr = KetExpr(alpha, beta)
    parsed = parse_circuit(f"wire x @ Alice\ninit x = {expr.source}\n").statements[0]
    assert parsed == InitKet(2, "x", expr)
    assert expr.text == expr.source.replace(" ", "")
    program = teleport_source(alpha, beta)
    assert f"init u = {expr.source}\n" in program
    assert f"assert factor b ~ {expr.source}\n" in program


# --------------------------------------------------------------- execution


@pytest.mark.parametrize("p,q", sorted(DECODE))
def test_superdense_programs_match_the_runner_bit_for_bit(p, q):
    prog = parse_circuit(superdense_source(p, q, DECODE[(p, q)]))
    world, outcomes = exec_circuit(prog)
    reference = run_superdense(p, q)
    assert [o.passed for o in outcomes] == [True]
    assert world.state.wires == reference.final_state.wires
    assert np.array_equal(world.state.amps, reference.final_state.amps)


def test_teleport_fixture_matches_the_runner_bit_for_bit():
    prog = parse_circuit(fixtures.read(fixtures.TELEPORT))
    world, outcomes = exec_circuit(prog)
    reference = run_teleport(1.0, 0.0)
    assert [o.passed for o in outcomes] == [True]
    assert world.state.wires == reference.world.state.wires
    assert np.array_equal(world.state.amps, reference.world.state.amps)


def test_generated_teleport_program_with_complex_amplitudes():
    prog = parse_circuit(teleport_source(complex(0.6, 0.0), complex(0.0, 0.8)))
    world, outcomes = exec_circuit(prog)
    reference = run_teleport(complex(0.6, 0.0), complex(0.0, 0.8))
    assert [o.passed for o in outcomes] == [True]
    assert np.array_equal(world.state.amps, reference.world.state.amps)


def test_failed_assertion_is_recorded_and_execution_continues():
    source = superdense_source(0, 1, (0, 1)) + "assert pointer E1 E2 = 10\n"
    world, outcomes = exec_circuit(parse_circuit(source))
    assert [o.passed for o in outcomes] == [False, True]
    assert "expected 01" in outcomes[0].detail


def test_wrong_factor_assertion_fails_without_crashing():
    source = teleport_source(1.0, 0.0).replace("assert factor b ~ |0>", "assert factor b ~ |1>")
    _, outcomes = exec_circuit(parse_circuit(source))
    assert [o.passed for o in outcomes] == [False]


def test_factor_assertion_on_an_entangled_wire_reports_rank():
    source = (
        "wire a @ Alice\nwire b @ Bob\ninit pair a b = bell 0 0\nassert factor b ~ |0>\n"
    )
    _, outcomes = exec_circuit(parse_circuit(source))
    assert not outcomes[0].passed
    assert "rank 2" in outcomes[0].detail


ZERO_KET_SOURCE = (
    "wire a @ Alice\nwire b @ Bob\ninit a = |0>\ninit b = |1>\n"
    "assert factor b ~ |1>\n"
    "assert factor b ~ (0,0) |0> + (0,0) |1>\n"
    "assert pointer a b = 01\n"
)


def test_a_zero_ket_in_a_factor_assertion_fails_it_and_execution_continues():
    _, outcomes = exec_circuit(parse_circuit(ZERO_KET_SOURCE))
    assert [(o.line, o.kind, o.passed) for o in outcomes] == [
        (5, "factor", True),
        (6, "factor", False),
        (7, "pointer", True),
    ]
    assert outcomes[1].detail == (
        "factor on 'b' cannot be compared with the zero ket (0.0,0.0)|0>+(0.0,0.0)|1>"
    )


def test_missing_transfer_halts_with_a_locality_error():
    source = superdense_source(0, 1, (1, 0)).replace("transfer a -> Bob\n", "")
    with pytest.raises(LocalityError):
        exec_circuit(parse_circuit(source))


def test_gate_before_init_is_an_execution_error():
    source = "wire c @ Alice\ngate sigma01 c @ Alice"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))


@pytest.mark.parametrize("statement", [
    "transfer E1 -> Alice",
    "assert pointer E2 E1 = 00",
    "assert factor E1 ~ |0>",
])
def test_step_before_init_names_the_line_and_wire(statement):
    source = f"wire E1 @ Bob\nwire E2 @ Bob\ninit E2 = |0>\n{statement}\n"
    with pytest.raises(CircuitError, match="line 4: wire 'E1' used before init"):
        exec_circuit(parse_circuit(source))


# `import everettsim` loads no submodule, so each module here is the first one
# its fresh process imports; circuit and protocols import each other, and
# either may start that cycle
@pytest.mark.parametrize("module", [f"everettsim.{m}" for m in (
    "state", "gates", "protocols", "circuit", "render", "reports", "verify", "cli", "fixtures")])
def test_each_side_of_the_import_cycle_imports_first(module):
    src = str(Path(everettsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_double_init_is_an_execution_error():
    source = "wire c @ Alice\ninit c = |0>\ninit c = |1>"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))


def test_zero_initializer_is_an_execution_error():
    source = "wire c @ Alice\ninit c = (0,0) |0> + (0,0) |1>"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))


def test_an_init_past_the_float_range_keeps_its_state_error_and_names_its_line():
    lines = [f"wire {w} @ Alice" for w in "xyz"]
    lines += [f"init {w} = (1e150,0) |0> + (1e150,0) |1>" for w in "xyz"]
    with pytest.raises(StateError, match="^line 6: tensor product overflows the float range$"):
        exec_circuit(parse_circuit("\n".join(lines)))


def test_a_run_of_inits_holds_one_state_sized_buffer(small_wire_limit):
    # built one init at a time, a run holds the last two states at once,
    # 1.5 times the state
    n = small_wire_limit
    lines = [f"wire w{i} @ Alice" for i in range(n)] + ["init pair w0 w1 = bell 0 1"]
    lines += [f"init w{i} = (0.6,0) |0> + (0,0.8) |1>" for i in range(2, n)]
    world, _ = exec_circuit(parse_circuit("\n".join(lines)))
    assert world.state.n_wires == n
    assert traced_peak() <= 1.2 * world.state.amps.nbytes


def test_a_run_that_runs_out_of_memory_names_its_last_init(monkeypatch):
    def exhausted(*states):
        raise MemoryError("Unable to allocate 1.00 MiB")

    monkeypatch.setattr(protocols, "tensor", exhausted)
    source = "wire a @ Alice\nwire b @ Alice\ninit a = |0>\ninit b = |1>\ngate sigma00 a @ Alice"
    with pytest.raises(MemoryError, match="^line 4: Unable to allocate 1.00 MiB$"):
        exec_circuit(parse_circuit(source))
