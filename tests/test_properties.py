"""Property tests: random circuit programs and random tensor factors.

The programs are drawn with amplitudes from 1e-150 to 1e150, so products of
a few inits reach past both ends of the float range. Every test runs the
same examples on every run (`derandomize`).
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from everettsim import cli
from everettsim.circuit import (
    GATES,
    CircuitError,
    CircuitParseError,
    exec_circuit,
    parse_circuit,
)
from everettsim.protocols import ProtocolError
from everettsim.render import render_ascii
from everettsim.state import PureState, StateError, tensor

# fixed examples, few enough that this file runs in about two seconds
PROGRAMS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
FACTORS = settings(PROGRAMS, max_examples=40)

AGENTS = st.sampled_from(("Alice", "Bob"))
BITS = st.sampled_from((0, 1))

# a real or imaginary part: zero, or a signed power of ten from 1e-150 to 1e150
PART = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from((1.0, -1.0)), st.floats(-150, 150)),
)
AMPLITUDE = st.builds(lambda re, im: f"({re!r},{im!r})", PART, PART)
KET = st.one_of(
    st.sampled_from(("|0>", "|1>")),
    st.builds(lambda a0, a1: f"{a0} |0> + {a1} |1>", AMPLITUDE, AMPLITUDE),
)


@st.composite
def programs(draw) -> str:
    """A program that parses: every wire declared, inits, then gates, moves and asserts.

    The body is sometimes shuffled, so steps may come before their inits.
    """
    wires = [f"w{i}" for i in range(draw(st.integers(1, 6)))]
    head = [f"wire {w} @ {draw(AGENTS)}" for w in wires]
    body = []
    order = draw(st.permutations(wires))
    while order:
        if len(order) > 1 and draw(st.booleans()):
            body.append(f"init pair {order[0]} {order[1]} = bell {draw(BITS)} {draw(BITS)}")
            order = order[2:]
        else:
            body.append(f"init {order[0]} = {draw(KET)}")
            order = order[1:]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("gate", "transfer", "pointer", "factor")))
        picked = draw(st.permutations(wires))
        if kind == "gate":
            name = draw(st.sampled_from(sorted(GATES)))
            if GATES[name].arity <= len(wires):
                operands = " ".join(picked[: GATES[name].arity])
                body.append(f"gate {name} {operands} @ {draw(AGENTS)}")
        elif kind == "transfer":
            body.append(f"transfer {picked[0]} -> {draw(AGENTS)}")
        elif kind == "pointer":
            # the two wires may be one wire twice
            body.append(f"assert pointer {picked[0]} {draw(st.sampled_from(wires))} = "
                        f"{draw(BITS)}{draw(BITS)}")
        else:
            body.append(f"assert factor {picked[0]} ~ {draw(KET)}")
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    return "\n".join(head + body) + "\n"


@PROGRAMS
@given(programs())
def test_parse_render_exec_raise_only_documented_errors(source):
    try:
        prog = parse_circuit(source)
        render_ascii(prog)
        exec_circuit(prog)
    except (CircuitParseError, CircuitError, ProtocolError, StateError):
        pass


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    return tmp_path_factory.mktemp("programs") / "random.ecirc"


@PROGRAMS
@given(source=programs(), as_json=st.booleans())
def test_run_exits_0_1_or_2_with_at_most_one_stderr_line(program_path, source, as_json):
    program_path.write_text(source, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", str(program_path)] + ["--json"] * as_json)
        except SystemExit as exc:
            code = f"exit {exc.code}"
    assert code in (0, 1, "exit 2")
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@st.composite
def factors(draw, wires: str, batch: bool) -> PureState:
    """A state over `wires` at scale 1, 1e-150 or 1e150, signed zeros included."""
    shape = (draw(st.integers(1, 3)),) * batch + (1 << len(wires),)
    size = int(np.prod(shape))
    parts = st.lists(st.floats(-4, 4), min_size=size, max_size=size)
    scale = draw(st.sampled_from((1.0, 1e-150, 1e150)))
    amps = np.empty(shape, dtype=complex)
    amps.real = np.reshape(draw(parts), shape) * scale
    amps.imag = np.reshape(draw(parts), shape) * scale
    return PureState(tuple(wires), amps)


@pytest.mark.parametrize("left_batch,right_batch", [(False, False), (True, False), (False, True)])
@FACTORS
@given(data=st.data())
def test_tensor_matches_kron_bit_for_bit(left_batch, right_batch, data):
    left = data.draw(factors("ab", left_batch))
    right = data.draw(factors("c", right_batch))
    try:
        got = tensor(left, right).amps
    except StateError:
        # a product that rounds to zero is refused; np.kron would give it
        assert not np.kron(left.amps, right.amps).any()
        return
    want = np.kron(left.amps, right.amps)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
