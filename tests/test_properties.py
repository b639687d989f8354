"""Property tests: random circuit programs, tensor factors and kernel inputs.

The programs are drawn with amplitudes from 1e-150 to 1e150, so products of
a few inits reach past both ends of the float range. The kernels `apply`
and `schmidt_factor` are checked against reference versions kept here,
bit for bit where their results must not change. Every test runs the same
examples on every run (`derandomize`).
"""

import contextlib
import functools
import inspect
import io
import itertools

import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from everettsim import cli, fixtures, state
from everettsim.circuit import (
    GATES,
    CircuitError,
    CircuitParseError,
    exec_circuit,
    parse_circuit,
)
from everettsim.gates import UnitaryGate, cu_meas
from everettsim.protocols import ProtocolError
from everettsim.render import render_ascii
from everettsim.state import (
    Bipartition,
    PureState,
    StateError,
    apply,
    branch_decompose,
    fidelity,
    schmidt_factor,
    tensor,
)

# fixed examples, few enough that this file runs in a few seconds
PROGRAMS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
FACTORS = settings(PROGRAMS, max_examples=40)
KERNELS = settings(PROGRAMS, max_examples=150)

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


# what an edit puts into a fixture: its own syntax, amplitudes at and past
# the float range, separators, and bytes that are not UTF-8 or not printable
NOISE = st.sampled_from((
    b"|0>", b"|1>", b"(", b")", b",", b"@", b"=", b"~", b"->", b"+", b"-", b".", b"e",
    b"(0.6,0) |0> + (0,0.8) |1>", b"(0.6,0.8)", b"(0,0)", b"(1e308,1e308)", b"(1e-320,0)",
    b"(nan,0)", b"1e308", b"0", b"1", b"2", b"00", b"Alice", b"Bob", b"wire", b"init", b"gate",
    b"pair", b"bell", b"assert", b"factor", b"pointer", b"transfer", b"sigma", b"#", b" ",
    b"\t", b"\n", b"\r", b"\x0b", b"\x00", b"\xff", b"\xc3\xa9",
))


@st.composite
def mutated_fixtures(draw) -> bytes:
    """A committed fixture's bytes after one to four edits.

    An edit deletes one to three bytes, inserts one to three NOISE tokens,
    replaces one of the text's words by them, or duplicates or swaps lines.
    """
    text = fixtures.read(draw(st.sampled_from((fixtures.SUPERDENSE, fixtures.TELEPORT))))
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "insert", "replace", "duplicate", "swap")))
        noise = b"".join(draw(st.lists(NOISE, min_size=1, max_size=3)))
        lines = data.split(b"\n")
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(data)))
        if kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 3)) :]
        elif kind == "insert":
            data = data[:at] + noise + data[at:]
        elif kind == "replace":
            words = lines[i].split(b" ")
            words[draw(st.integers(0, len(words) - 1))] = noise
            lines[i] = b" ".join(words)
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        if kind not in ("delete", "insert"):
            data = b"\n".join(lines)
    return data


# more examples than the other programs: most edits stop the parser early
HOSTILE = settings(PROGRAMS, max_examples=400)


@HOSTILE
@given(mutated_fixtures())
def test_mutated_fixtures_raise_only_documented_errors(data):
    try:
        prog = parse_circuit(data.decode("utf-8", errors="replace"))
        render_ascii(prog)
        exec_circuit(prog)
    except (CircuitParseError, CircuitError, ProtocolError, StateError):
        pass


@HOSTILE
@given(data=mutated_fixtures(), as_json=st.booleans())
def test_run_of_a_mutated_fixture_exits_0_1_or_2_with_at_most_one_stderr_line(
    program_path, data, as_json
):
    program_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", str(program_path)] + ["--json"] * as_json)
        except SystemExit as exc:
            code = f"exit {exc.code}"
    assert code in (0, 1, "exit 2")
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


def factor_amps(rng, shape, scale):
    """Parts uniform in (-4, 4) or, one in four, a signed zero, times scale."""
    amps = np.empty(shape, dtype=complex)
    for part in (amps.real, amps.imag):
        part[...] = rng.uniform(-4, 4, size=shape) * scale
        zero = rng.random(shape) < 0.25
        part[zero] = np.copysign(0.0, part[zero])
    return amps


@FACTORS
@given(data=st.data())
def test_tensor_matches_kron_bit_for_bit(data):
    # 2-5 factors, the first up to 2**12 amplitudes wide: later steps then
    # run by columns from _COLUMN_ROWS rows on, over row chunks of
    # _ROW_CHUNK, the first of which reads a copy
    count = data.draw(st.integers(2, 5))
    widths = [data.draw(st.sampled_from((0, 2, 9, 12)))]
    widths += [data.draw(st.integers(0, 3)) for _ in range(count - 1)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = []
    for i, n in enumerate(widths):
        scale = data.draw(st.sampled_from((1.0, 1e-150, 1e150)))
        wires = tuple(f"f{i}w{j}" for j in range(n))
        states.append(PureState(wires, factor_amps(rng, 1 << n, scale)))
    with np.errstate(all="ignore"):
        want = functools.reduce(np.kron, [s.amps for s in states])
    try:
        got = tensor(*states).amps
    except StateError:
        # refused only past the float range: an overflow, or a product that
        # rounds to the zero vector although no factor is zero
        lost = not want.any() and all(s.amps.any() for s in states)
        assert not np.isfinite(want).all() or lost
        return
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def test_tensor_of_many_small_factors_matches_chained_kron():
    # a step on one running amplitude and a factor of one writes where it
    # reads, and numpy 2.4's in-place complex product rounds about half of
    # such products differently in the last bit; the step reads a copy
    rng = np.random.default_rng(11)
    for _ in range(300):
        widths = rng.integers(0, 4, size=int(rng.integers(2, 6)))
        states = [
            PureState(tuple(f"f{i}w{j}" for j in range(n)), factor_amps(rng, 1 << n, 1.0))
            for i, n in enumerate(widths)
        ]
        want = functools.reduce(np.kron, [s.amps for s in states])
        assert np.array_equal(bits(tensor(*states).amps), bits(want)), widths


@pytest.mark.parametrize("left_shape,right_shape", [
    ((1 << 15,), (2,)),  # several row chunks of the column-wise product
    ((1 << 15,), (4,)),
    ((1 << 15,), (8,)),  # a broadcast: b spans two cache lines
    ((2,), (1 << 15,)),
])
def test_tensor_of_a_long_and_a_short_factor_matches_kron(left_shape, right_shape):
    rng = np.random.default_rng(len(left_shape) + right_shape[-1])
    left, right = (
        PureState(tuple(f"{name}{i}" for i in range(shape[-1].bit_length() - 1)), kernel_amps(rng, shape))
        for name, shape in (("a", left_shape), ("b", right_shape))
    )
    got = tensor(left, right).amps
    want = np.kron(left.amps, right.amps)
    assert np.array_equal(bits(got), bits(want))


# ------------------------------------------------------------------ kernels


def reference_apply(gate, targets, s):
    """`apply` as one dense block product for every gate, the oracle for the slice path.

    This is `state.apply` as it ran before gates that permute basis states
    moved slices; it returns the result's amplitudes.
    """
    targets = tuple(targets)
    k = len(targets)
    n = s.n_wires
    src = state._wire_view(s, targets, s.amps, "target")
    out = np.empty(s.amps.shape, dtype=complex)
    dst = state._wire_view(s, targets, out, "target")
    columns = state._GEMM_BLOCK // gate.matrix.size
    inner = min(n - k, max(0, columns.bit_length() - 1))
    every_target = (slice(None),) * k
    for idx in itertools.product((0, 1), repeat=n - k - inner):
        key = every_target + idx
        block = dst[key]
        block[...] = (gate.matrix @ src[key].reshape(1 << k, -1)).reshape(block.shape)
    return out


def reference_schmidt_factor(s, cut, tol=state.DEFAULT_TOL):
    """`schmidt_factor` as it ran while it gathered the whole cut matrix first.

    The oracle for states of at most 11 wires, whose matrix is one row block:
    the gathered matrix has the left wires first, and is transposed when the
    left side is the short one.
    """
    scaled, norm_sq, shift = state._in_range(s)
    left_wires = tuple(w for w in s.wires if w in cut.left)
    right_wires = tuple(w for w in s.wires if w in cut.right)
    arr = state._wire_view(s, left_wires, scaled, "cut")
    mat = arr.reshape(1 << len(left_wires), 1 << len(right_wires))
    tall = mat if mat.shape[0] >= mat.shape[1] else mat.T
    assert tall.shape[0] <= max(2 * tall.shape[1], state._GEMV_BLOCK // tall.shape[1])
    _, sv, vh = np.linalg.svd(tall, full_matrices=False)
    rank = int((sv > tol * sv[0]).sum())
    if rank != 1:
        return rank, None
    small = vh[0]
    rows, cols = tall.shape
    step = min(rows, max(1, state._GEMV_BLOCK // cols))
    blocks = np.reshape(tall, (-1, step, cols))
    big = np.matmul(blocks, small.conj()[:, None]).reshape(rows)
    if shift:
        big = state._ldexp(big, -shift)
    left, right = (big, small) if tall is mat else (small, big)
    return rank, (left, right)


def kernel_amps(rng, shape):
    """Parts that are a signed zero (one in four) or a signed 10**u, u from -150 to 150."""
    amps = np.empty(shape, dtype=complex)
    for part in (amps.real, amps.imag):
        sign = rng.choice((-1.0, 1.0), size=shape)
        part[...] = sign * 10.0 ** rng.uniform(-150, 150, size=shape)
        zero = rng.random(shape) < 0.25
        part[zero] = sign[zero] * 0.0
    return amps


def kernel_gate(name, rng):
    """A gate of GATES, a random dense unitary, or a permutation with random phases."""
    if name in GATES:
        return GATES[name].build()
    k = int(rng.integers(1, 5))
    if name == "dense":
        return UnitaryGate(k, random_unitary(rng, 1 << k))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << k))
    return UnitaryGate(k, np.eye(1 << k)[rng.permutation(1 << k)] * phases[:, None])


def bits(a):
    return a.view(np.uint64)


def assert_apply_matches_reference(gate, targets, s):
    got = apply(gate, targets, s).amps
    want = reference_apply(gate, targets, s)
    if gate.monomial is None:
        # the same block product
        assert np.array_equal(bits(got), bits(want))
    elif all(entry in (1, -1) for _, _, entry in gate.monomial):
        # An exact product, so every nonzero part keeps its bits, and a zero
        # one is +0 as a block product's sum of zeros is. OpenBLAS's kernel
        # for a block of two columns (one wire besides the targets) is the
        # exception: it may return -0 there.
        got_parts, want_parts = bits(got.view(np.float64)), bits(want.view(np.float64))
        nonzero = want.view(np.float64) != 0
        assert np.array_equal(got_parts[nonzero], want_parts[nonzero])
        assert not got_parts[~nonzero].any()
        if s.n_wires - gate.arity != 1:
            assert np.array_equal(bits(got), bits(want))
    else:
        # a phase is one complex product against a sum of products
        assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want))).all()


@KERNELS
@given(
    name=st.sampled_from(sorted(GATES) + ["dense", "phased"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_the_block_product(name, n, seed):
    rng = np.random.default_rng(seed)
    gate = kernel_gate(name, rng)
    assume(gate.arity <= n)
    wires = tuple(f"w{i}" for i in range(n))
    s = PureState(wires, kernel_amps(rng, 1 << n))
    assert_apply_matches_reference(gate, tuple(rng.permutation(wires)[: gate.arity]), s)


def reference_slice_moves(gate, targets, s):
    """`apply`'s slice moves, as every phased permutation ran before small states took a gather per entry.

    The oracle for that path, a copy of ``state._move`` included; it returns
    the result's amplitudes.
    """
    targets = tuple(targets)
    src = state._wire_view(s, targets, s.amps, "target")
    out = np.empty(s.amps.size, dtype=complex)
    dst = state._wire_view(s, targets, out, "target")
    index = list(itertools.product((0, 1), repeat=len(targets)))
    for row, col, entry in gate.monomial:
        a, b = src[index[col] + (...,)], dst[index[row] + (...,)]
        if entry == 1:
            np.add(a, 0.0, out=b)
        elif entry == -1:
            np.subtract(0.0, a, out=b)
        else:
            np.multiply(a, entry, out=b)
    return out


SMALL_WIRES = state._SMALL.bit_length() - 1
APPLY_GATES = sorted(GATES) + ["dense", "phased"]


def small_path_state(rng, n, kind):
    """A state of n wires: kernel_amps, Gaussian, or a strided residual of a Gaussian state."""
    wires = tuple(f"w{i}" for i in range(n))
    if kind == "kernel":
        return PureState(wires, kernel_amps(rng, 1 << n))
    gaussian = rng.standard_normal(2 << n) + 1j * rng.standard_normal(2 << n)
    if kind == "gaussian":
        return PureState(wires, gaussian[: 1 << n])
    # the rows of the last wire are every other amplitude, a strided view
    whole = PureState(tuple(f"w{i}" for i in range(n + 1)), gaussian)
    residual = branch_decompose(whole, (f"w{n}",), tol=-1.0).branches[1].residual
    assert not residual.amps.flags.c_contiguous
    return residual


# from one wire to two past state._SMALL, so both sides of the boundary run
@pytest.mark.parametrize("kind", ["kernel", "gaussian", "residual"])
@pytest.mark.parametrize("n", range(1, SMALL_WIRES + 3))
@pytest.mark.parametrize("name", APPLY_GATES)
def test_small_states_keep_the_bits_of_slice_moves_and_the_block_product(name, n, kind):
    rng = np.random.default_rng([APPLY_GATES.index(name), n, len(kind)])
    checked = 0
    for _ in range(12):
        gate = kernel_gate(name, rng)
        if gate.arity > n:
            continue
        s = small_path_state(rng, n, kind)
        targets = tuple(rng.permutation(s.wires)[: gate.arity])
        got = apply(gate, targets, s)
        if gate.monomial is None:
            want = reference_apply(gate, targets, s)
        else:
            want = reference_slice_moves(gate, targets, s)
        assert got.amps.tobytes() == want.tobytes()
        assert np.float64(got._norm_sq).tobytes() == np.float64(PureState(s.wires, want)._norm_sq).tobytes()
        checked += 1
    # only a gate of GATES wider than the state has no case
    assert checked or (name in GATES and GATES[name].build().arity > n)


def test_plan_arrays_are_read_only():
    u_b = GATES["u_b"].build()
    order = state._block_plan(5, (3, 0, 4, 1))[0]
    arrays = [state._plan(5, order, None)]
    for _, rows, cols in state._plan(5, (4, 1, 2), u_b.monomial):
        arrays += [rows, cols]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


def test_plan_cache_is_bounded_as_its_comment_states():
    maxsize = state._plan.cache_parameters()["maxsize"]
    assert maxsize is not None
    itemsize = np.dtype(np.intp).itemsize
    # a plan at _SMALL amplitudes holds at most two arrays of _SMALL indices
    n = SMALL_WIRES
    largest = 0
    for name in ("u_b", "cu_sigma", "sigma10", "cu_meas"):
        gate = GATES[name].build()
        targets = tuple(range(n - gate.arity, n))
        if gate.monomial is None:
            plan = state._plan.__wrapped__(n, state._block_plan(n, targets)[0], None)
            largest = max(largest, plan.nbytes)
        else:
            plan = state._plan.__wrapped__(n, targets, gate.monomial)
            largest = max(largest, sum(rows.nbytes + cols.nbytes for _, rows, cols in plan))
    assert largest == 2 * state._SMALL * itemsize
    comment = " ".join(inspect.getcomments(state._plan.__wrapped__).split())
    assert f"({largest // 1024} KiB)" in comment
    assert f"at most {maxsize * largest // 2**20} MiB" in comment


@pytest.fixture(scope="module")
def wide_state():
    wires = tuple(f"w{i}" for i in range(20))
    return PureState(wires, kernel_amps(np.random.default_rng(20), 1 << 20))


@pytest.mark.parametrize("name", sorted(GATES))
def test_apply_matches_the_block_product_at_20_wires(wide_state, name):
    gate = GATES[name].build()
    targets = tuple(np.random.default_rng(sorted(GATES).index(name)).permutation(wide_state.wires))
    assert_apply_matches_reference(gate, targets[: gate.arity], wide_state)


BLOCK_CASES = [
    # cu_meas at 20 wires, with no wire or 1-3 column wires after the last
    # target
    (4, (16, 17, 18, 19)),
    (4, (3, 12, 18, 7)),
    (4, (19, 2, 16, 11)),
    (4, (2, 17, 9, 15)),
    (4, (6, 10, 13, 18)),
    # random dense unitaries at 20 wires
    (2, (18, 19)),
    (2, (19, 4)),
    (3, (17, 18, 19)),
    (3, (0, 19, 18)),
    (3, (9, 18, 2)),
]


# the ids keep the form 0-<arity>-targets<i> these cases have long been run
# under, whose leading 0 stood for a single state
@pytest.mark.parametrize("arity,targets", BLOCK_CASES,
                         ids=[f"0-{arity}-targets{i}" for i, (arity, _) in enumerate(BLOCK_CASES)])
def test_block_product_chunks_keep_every_bit(wide_state, arity, targets):
    rng = np.random.default_rng(sum(targets))
    gate = cu_meas() if arity == 4 else UnitaryGate(arity, random_unitary(rng, 1 << arity))
    wires = tuple(wide_state.wires[i] for i in targets)
    got = apply(gate, wires, wide_state).amps
    assert got.tobytes() == reference_apply(gate, wires, wide_state).tobytes()


@pytest.mark.parametrize("name,targets,source", [
    # a target at 17 or 18 leaves slices whose runs are 2-8 amplitudes long
    ("sigma11", (0,), "state"),
    ("sigma11", (17,), "state"),
    ("sigma11", (18,), "state"),
    ("sigma11", (19,), "state"),
    ("u_b", (0, 1, 2), "state"),
    ("u_b", (3, 12, 18), "state"),
    ("cu_sigma", (19, 2, 16), "state"),
    ("cu_sigma", (5, 18, 7), "state"),
    # every other amplitude of the state, a strided view
    ("u_b", (3, 12, 18), "residual"),
])
def test_signed_permutations_keep_every_bit_at_20_wires(wide_state, name, targets, source):
    gate = GATES[name].build()
    s = wide_state
    if source == "residual":
        s = branch_decompose(s, ("w19",)).branches[0].residual
        assert not s.amps.flags.c_contiguous
    wires = tuple(s.wires[i] for i in targets)
    assert apply(gate, wires, s).amps.tobytes() == reference_apply(gate, wires, s).tobytes()


def test_block_product_of_a_strided_state_keeps_every_bit():
    """A residual of branch_decompose may be a strided view of the state's amplitudes."""
    rng = np.random.default_rng(6)
    s = PureState(tuple(f"w{i}" for i in range(7)), kernel_amps(rng, 1 << 7))
    residual = branch_decompose(s, ("w6",)).branches[0].residual
    assert not residual.amps.flags.c_contiguous
    targets = ("w5", "w1", "w3", "w2")
    got = apply(cu_meas(), targets, residual).amps
    assert got.tobytes() == reference_apply(cu_meas(), targets, residual).tobytes()


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


# Gaussian amplitudes are of one size, so every product in a block's sum
# reaches its last bits and the order of the sum shows: kernel_amps' spread
# from 1e-150 to 1e150 leaves one product per sum and hides it. Blocks of
# one or two columns (cu_meas on 4 and 5 wires) sum a real product in
# another order than a complex one, and must stay complex.
@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("kind", ["cu_meas", 1, 2, 3, 4])
def test_real_gates_keep_every_bit_on_gaussian_states(kind, n):
    rng = np.random.default_rng([n, 0 if kind == "cu_meas" else kind])
    wires = tuple(f"w{i}" for i in range(n))
    for _ in range(10):
        if kind == "cu_meas":
            gate = cu_meas()
        else:
            gate = UnitaryGate(kind, random_orthogonal(rng, 1 << kind))
        assert gate.real is not None
        s = PureState(wires, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        targets = tuple(rng.permutation(wires)[: gate.arity])
        assert apply(gate, targets, s).amps.tobytes() == reference_apply(gate, targets, s).tobytes()


def product_on_cut(rng, n, right, rank):
    """A sum of `rank` products across (the other wires | `right`), with one of its terms.

    Returns the state over w0..w(n-1) and the two factors of its first term,
    on the other wires and on `right`, each over its wires in state order.
    """
    wires = tuple(f"w{i}" for i in range(n))
    left = tuple(w for w in wires if w not in right)
    right = tuple(w for w in wires if w in right)
    terms = []
    for _ in range(rank):
        a = rng.standard_normal(1 << len(left)) + 1j * rng.standard_normal(1 << len(left))
        b = rng.standard_normal(1 << len(right)) + 1j * rng.standard_normal(1 << len(right))
        terms.append((a, b))
    joint = sum(np.multiply.outer(a, b) for a, b in terms).reshape((2,) * n)
    # axes in left + right order, back to state order
    order = [(left + right).index(w) for w in wires]
    amps = joint.transpose(order).reshape(-1)
    return PureState(wires, amps), PureState(left, terms[0][0]), PureState(right, terms[0][1])


@KERNELS
@given(n=st.integers(2, 11), rank=st.sampled_from((1, 1, 2)),
       scale=st.sampled_from((1.0, 1e-200, 1e200)), seed=st.integers(0, 2**32 - 1))
def test_schmidt_factor_of_one_row_block_moves_only_a_flipped_large_factor(n, rank, scale, seed):
    rng = np.random.default_rng(seed)
    wires = tuple(f"w{i}" for i in range(n))
    right = frozenset(rng.permutation(wires)[: int(rng.integers(1, n))])
    s = PureState(wires, product_on_cut(rng, n, right, rank)[0].amps * scale)
    cut = Bipartition(frozenset(wires) - right, right)
    got_rank, got = schmidt_factor(s, cut)
    want_rank, want = reference_schmidt_factor(s, cut)
    assert got_rank == want_rank
    assert (got is None) == (want is None)
    if got is None:
        return
    # The SVD reads the same tall matrix, so the rank and the small factor
    # keep their bits. When the left side is the short one, the reference
    # multiplied a transposed gather and the kernel multiplies the tall side
    # gathered row-major: BLAS sums the large factor in another order.
    flip = len(cut.left) < len(cut.right)
    (got_small, got_big), (want_small, want_big) = (got, want) if flip else (got[::-1], want[::-1])
    assert np.array_equal(bits(got_small.amps), bits(want_small))
    if flip:
        assert (np.abs(got_big.amps - want_big) <= 4 * np.spacing(np.abs(want_big))).all()
    else:
        assert np.array_equal(bits(got_big.amps), bits(want_big))


@settings(KERNELS, max_examples=30)
@given(n=st.integers(12, 16), rank=st.sampled_from((1, 1, 2)), small_left=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_schmidt_factor_across_any_cut_of_a_wide_state(n, rank, small_left, seed):
    rng = np.random.default_rng(seed)
    wires = tuple(f"w{i}" for i in range(n))
    small = frozenset(rng.permutation(wires)[: int(rng.integers(1, n // 2 + 1))])
    s, big_factor, small_factor = product_on_cut(rng, n, small, rank)
    rest = frozenset(wires) - small
    cut = Bipartition(small, rest) if small_left else Bipartition(rest, small)
    left, right = (small_factor, big_factor) if small_left else (big_factor, small_factor)
    got_rank, factors = schmidt_factor(s, cut)
    # the rank an SVD of the whole gathered matrix gives
    front = [i for i, w in enumerate(wires) if w not in small]
    back = [i for i, w in enumerate(wires) if w in small]
    mat = s.amps.reshape((2,) * n).transpose(front + back).reshape(1 << len(front), -1)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert got_rank == rank == (sv > state.DEFAULT_TOL * sv[0]).sum()
    if rank == 1:
        assert fidelity(factors[0], left) >= 1 - 1e-12
        assert fidelity(factors[1], right) >= 1 - 1e-12
        assert factors[0].wires == left.wires and factors[1].wires == right.wires
