import numpy as np
import pytest

from everettsim import fixtures
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


def test_duplicate_declaration_is_a_parse_error():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice\nwire c @ Bob")
    assert err.value.line == 2


def test_trailing_tokens_are_rejected():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("wire c @ Alice extra")
    assert err.value.column == len("wire c @ Alice ") + 1


def test_ket_expr_text_round_trips():
    assert KetExpr(1.0, 0.0).text == "|0>"
    assert KetExpr(0.0, 1.0).text == "|1>"
    assert KetExpr(complex(0.6, 0), complex(0, 0.8)).text == "(0.6,0.0)|0>+(0.0,0.8)|1>"


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


def test_missing_transfer_halts_with_a_locality_error():
    source = superdense_source(0, 1, (1, 0)).replace("transfer a -> Bob\n", "")
    with pytest.raises(LocalityError):
        exec_circuit(parse_circuit(source))


def test_gate_before_init_is_an_execution_error():
    source = "wire c @ Alice\ngate sigma01 c @ Alice"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))


def test_double_init_is_an_execution_error():
    source = "wire c @ Alice\ninit c = |0>\ninit c = |1>"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))


def test_zero_initializer_is_an_execution_error():
    source = "wire c @ Alice\ninit c = (0,0) |0> + (0,0) |1>"
    with pytest.raises(CircuitError):
        exec_circuit(parse_circuit(source))
