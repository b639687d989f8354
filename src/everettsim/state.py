"""Dense pure-state vectors over named qubit wires.

A state is an unnormalized vector of complex amplitudes indexed by bit
strings: the basis index packs one bit per wire in wire-list order, with the
first wire most significant. Vectors are deliberately not normalized; all
equality checks are up to a complex scale, and probabilities are computed on
normalized copies.

A state is always one vector of 2^n amplitudes, and every kernel returns
plain Python scalars.

One helper, ``_bit_view``, owns the memory layout: it alone reshapes
amplitudes to one axis of 2 per wire and transposes them, the wires a
kernel names first. ``apply``, ``schmidt_factor`` and ``branch_decompose``
take their views from it, directly or through ``_wire_view``; ``_pack`` is
the one packing of bits into an index.

Everything here is an immutable value and every operation is a pure function,
so states can be shared freely between threads.

One rule, ``_split``, decides how a kernel shares its work with one worker
thread (``_share``): apply's slice moves and block product, and
schmidt_factor's first TSQR level and large factor, run as two halves from
_PIECE amplitudes on, and as one piece inline below; ``_split``'s docstring
has the measurements. Each half makes the same numpy and BLAS calls on the
same operands as one pass would, so sharing changes no bit. The worker is
the one thread of a ``ThreadPoolExecutor``, made on the first shared call
in each process (a forked child makes its own), never at import. The
worker calls only private helpers and numpy, and never builds a state.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gates import UnitaryGate

DEFAULT_TOL = 1e-12
BRANCH_TOL = 1e-10

# the widest dense state: 2**24 amplitudes take 256 MiB, and a kernel holds
# two or three such vectors at once
MAX_WIRES = 24

# squared norms in this range are used as summed: the product of two, times a
# tolerance down to 2**-200, is still a normal float
_NORM_SQ_RANGE = (2.0**-400, 2.0**400)

# OpenBLAS (0.3.31, as numpy's wheels ship it) hands a call to its worker
# threads above 2**15 complex multiply-adds in a matrix product, 2**11 matrix
# elements in a matrix-vector product (also inside LAPACK's QR) and 10**4
# elements in a dot product. A threaded call returns only when every worker
# has been scheduled, so its time follows the load on the other cores: on a
# 2-core x86-64 VM one product of a 2x2 gate with 2**14 columns took 320 us
# threaded, against 80 us as two one-thread halves, and one np.vdot over
# 2**20 amplitudes took 0.60 ms at the 95th percentile idle and 5.1 ms next
# to a busy loop on the other core, where _sum_sq's blocked sum took 0.97
# and 2.1 ms. The kernels keep each BLAS call below these sizes, on either
# thread: a piece shared with the worker makes the calls one pass would.
_GEMM_BLOCK = 1 << 15
_GEMV_BLOCK = 1 << 11
_DOT_BLOCK = 1 << 13

# complex amplitudes in one 64-byte cache line
_LINE = 4
# Below this many rows a product is one broadcast numpy call: a call per
# column costs more than the broadcast's overhead per row, which on a 2-core
# x86-64 VM broke even near 2**9 rows of 2 or 4 columns.
_COLUMN_ROWS = 1 << 10
# A product written column by column touches each of its cache lines once per
# column; this many rows keep those lines (512 KiB) in a core's L2 cache until
# every column is written, instead of fetching them again from memory.
_ROW_CHUNK = 1 << 13
# apply's block product gathers, multiplies and scatters this many amplitudes
# at a time, through two buffers of 128 KiB that stay in a core's L2 cache;
# each half of a shared call has two of its own. On a 2-core x86-64 VM
# (glibc 2.36), in a fresh process, allocating and touching two buffers of
# 2**14 amplitudes took 170-215 us against 11 us for 2**13. At 20 wires
# cu_meas took about 3% longer than with 2**14 and 10% less than with 2**12.
_CHUNK = 1 << 13
# from this many amplitudes a kernel runs as two halves, one of them on the
# worker thread; _split has the measurements
_PIECE = 1 << 18
# schmidt_factor reads the row blocks of a half in pieces of about this many
# amplitudes, so neither its gather nor np.linalg.qr's copy of its input
# grows with the state. On a 2-core x86-64 VM a one-wire cut of 20 wires
# held 0.54, 0.57, 0.63 and 0.75 times the state beside it (tracemalloc,
# gathered at w12) with pieces of 2**14, 2**15, 2**16 and 2**17, and 0.63,
# 0.76, 1.0 and 1.5 at 18 wires; averaged over the 20 positions it took
# 9.4-9.5, 8.5-9.6 and 9.2-10.3 ms with the first three, in three
# alternating processes each, against 5.2-6.3 ms with one QR call per half
_ROWS = 1 << 15


class StateError(ValueError):
    """Invalid statevector operation."""


class WireError(StateError):
    """Unknown, duplicate, or mismatched wire labels."""


class ZeroStateError(StateError):
    """A zero vector was passed where a physical state is required."""


def fmt12(x: float) -> str:
    """Format a float with 12 decimal places; anything that rounds to zero prints unsigned."""
    text = f"{x:.12f}"
    return text[1:] if text == "-0.000000000000" else text


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized pure state over an ordered list of labeled wires.

    ``amps[i]`` is the amplitude of the basis state whose bit string is the
    binary expansion of ``i`` over the wires (first wire = most significant
    bit). Amplitudes must be finite; the all-zero vector is representable but
    rejected by every analytical operation. ``amps`` of any shape is
    flattened into one vector.

    The constructor copies and validates its input. The kernels in this
    package hand their results over through ``_adopt`` instead, which takes
    the array as it is. Either way ``amps`` is read-only from then on, and
    the plain sum of squares is computed once, at construction.
    """

    wires: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        wires = tuple(str(w) for w in self.wires)
        for w in wires:
            if not w or any(ch.isspace() for ch in w):
                raise WireError(f"bad wire label {w!r}")
        if len(set(wires)) != len(wires):
            raise WireError(f"duplicate wire labels in {wires}")
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != 1 << len(wires):
            raise StateError(
                f"{len(wires)} wires need {1 << len(wires)} amplitudes, got {amps.size}"
            )
        object.__setattr__(self, "wires", wires)
        self._seal(amps)

    @classmethod
    def _adopt(cls, wires: tuple[str, ...], amps: np.ndarray) -> PureState:
        """A state over ``amps`` as it is, without a copy.

        The caller vouches that ``wires`` are valid and distinct, that ``amps``
        is a complex vector of the matching length, and that nothing writes to
        it afterwards: an array the caller has just allocated, or a
        view of another state's read-only amplitudes. Only the finiteness
        check runs.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "wires", wires)
        state._seal(amps)
        return state

    def _seal(self, amps: np.ndarray) -> None:
        norm_sq = _sum_sq(amps)
        # a finite sum of squares proves every amplitude finite; only an
        # overflowed (or nan) one needs the element-wise scan
        if not math.isfinite(norm_sq) and not np.isfinite(amps).all():
            raise StateError("non-finite amplitude")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_norm_sq", norm_sq)

    @property
    def n_wires(self) -> int:
        return len(self.wires)

    @property
    def norm_sq(self) -> float:
        """The plain sum of squares, which rounds to 0, inf or nan far from unit scale."""
        return float(self._norm_sq)

    def index_of(self, bits: Sequence[int]) -> int:
        """Basis index of a full wire assignment."""
        return _pack(bits, self.n_wires)

    def __repr__(self) -> str:
        return f"PureState(wires={self.wires}, dim={self.amps.size})"


def _bit(value: object) -> int | None:
    """value as the int 0 or 1, a bool read as its int; None for anything else."""
    if isinstance(value, (int, np.integer, np.bool_)) and value in (0, 1):
        return int(value)
    return None


def _pack(bits: Sequence[int], n: int) -> int:
    """The basis index of one bit per wire over n wires, first wire most significant."""
    if len(bits) != n:
        raise WireError(f"need {n} bits, got {len(bits)}")
    idx = 0
    for b in bits:
        bit = _bit(b)
        if bit is None:
            raise StateError(f"bit must be 0 or 1, got {b!r}")
        idx = (idx << 1) | bit
    return idx


def _check_width(n_wires: int) -> None:
    if n_wires > MAX_WIRES:
        raise StateError(f"a dense state of {n_wires} wires exceeds the limit of {MAX_WIRES} wires")


def basis_state(wires: Sequence[str], bits: Sequence[int]) -> PureState:
    """|bits> over the given wires, e.g. basis_state(('a','b'), (1,0)) = |10>.

    More than MAX_WIRES wires raise StateError before anything is allocated.
    """
    _check_width(len(wires))
    idx = _pack(bits, len(wires))
    amps = np.zeros(1 << len(wires), dtype=complex)
    amps[idx] = 1.0
    return PureState(tuple(wires), amps)


def qubit(wire: str, amp0: complex, amp1: complex) -> PureState:
    """Single-wire state amp0|0> + amp1|1>."""
    return PureState((wire,), np.array([amp0, amp1], dtype=complex))


def tensor(*states: PureState) -> PureState:
    """Tensor product; wire lists concatenate, amplitudes take the outer product.

    However many factors there are, the product is written into one buffer
    of its final size (``_product``), with the products of chained
    ``np.kron``, bit for bit: on a 2-core x86-64 VM, the 17 one- and two-wire inits of a 20-wire
    program took 8.8-9.0 ms as one product against 17.3-18.6 ms as 16
    products of two factors, each in a new buffer. A product that leaves
    the float range raises StateError: one that overflows, and one that
    rounds to the zero vector although no factor is zero.
    """
    if not states:
        raise StateError("tensor needs at least one state")
    wires: tuple[str, ...] = ()
    for s in states:
        overlap = set(wires) & set(s.wires)
        if overlap:
            raise WireError(f"duplicate wire labels across factors: {sorted(overlap)}")
        wires = wires + s.wires
    _check_width(len(wires))
    amps = states[0].amps
    if len(states) > 1:
        with np.errstate(all="ignore"):
            amps = _product([s.amps for s in states])
    try:
        product = PureState._adopt(wires, amps)
    except StateError:
        # every factor is finite, so only an overflow makes the product not
        raise StateError("tensor product overflows the float range") from None
    # a zero sum of squares may hide nonzero amplitudes, so look at them
    if product._norm_sq == 0.0 and not amps.any() and all(s.amps.any() for s in states):
        raise StateError("tensor product of nonzero factors rounds to the zero vector")
    return product


def _product(factors: list[np.ndarray]) -> np.ndarray:
    """The outer product of two or more factors, flattened, in one new buffer.

    Every amplitude is ((a[i] * b[j]) * c[k]) * ..., the products of
    chained np.kron, operands in that order.

    The buffer holds the running product, flattened, in its first
    amplitudes. The first step reads factors[0] itself; each later step
    expands the running product in place, back to front. For a factor of
    `cols` amplitudes, rows [start, stop) write [start * cols, stop *
    cols), so only a chunk with start * cols < stop would overwrite rows it
    has not read yet, and that chunk reads a copy.

    A broadcast product loops over the factor innermost, which is slow when
    the factor holds only a few amplitudes. A factor that fits in one cache
    line, in a step of at least _COLUMN_ROWS rows, is therefore written
    one column (one amplitude of the factor) at a time, in chunks of
    _ROW_CHUNK rows: on a 2-core x86-64 VM a 2**19 x 2 product took 5.7 ms
    broadcast and 1.7 ms by columns. Any other step is one broadcast
    product, which reads a copy of the running product: left to itself,
    numpy runs a product whose output is its input in place, and numpy
    2.4's in-place complex product rounds some results differently in the
    last bit.
    """
    buffer = np.empty(math.prod(f.size for f in factors), dtype=complex)
    src = factors[0]
    for step, factor in enumerate(factors[1:]):
        rows, cols = src.size, factor.size
        out = buffer[: rows * cols].reshape(rows, cols)
        if cols <= _LINE and rows >= _COLUMN_ROWS:
            for start in reversed(range(0, rows, _ROW_CHUNK)):
                stop = min(start + _ROW_CHUNK, rows)
                chunk = src[start:stop]
                if step and start * cols < stop:
                    chunk = chunk.copy()
                for j in range(cols):
                    np.multiply(chunk, factor[j : j + 1], out=out[start:stop, j])
        else:
            np.multiply((src.copy() if step else src)[:, None], factor[None, :], out=out)
        src = buffer[: out.size]
    return buffer


# the executor of each process, by process id
_pools: dict[int, object] = {}


def _executor():
    """The one-thread executor that runs the worker's share of kernel pieces.

    Made on first use in each process, so a forked child makes its own
    rather than queue tasks for a thread it does not have.
    """
    pool = _pools.get(os.getpid())
    if pool is None:
        # imported here, so that importing everettsim imports nothing more
        from concurrent.futures import ThreadPoolExecutor

        # setdefault is atomic: two first callers share the executor stored
        # first, and the other, which never started a thread, is dropped
        new = ThreadPoolExecutor(max_workers=1, thread_name_prefix="everettsim-kernels")
        pool = _pools.setdefault(os.getpid(), new)
    return pool


def _cores() -> int:
    """How many cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _share(count: int, piece: Callable[[int], None]) -> None:
    """Run piece(0) .. piece(count - 1), the pieces of one kernel call, which ``_split`` counts.

    One piece, or one core, runs here. Otherwise this thread and the worker,
    a ``ThreadPoolExecutor`` of one thread, take pieces in turn from one
    iterator; every piece runs exactly once, the same computation on the
    same operands, so sharing changes no bit. When the pieces run out, the
    worker's task is cancelled if it has not started (a busy worker then
    costs about the serial time), and waited for if it has. A piece that
    raises leaves no piece for the other thread, and its exception is raised
    here. While the interpreter shuts down, as in an atexit handler, no
    thread starts and every piece runs here.
    """
    if count < 2 or _cores() < 2:
        for i in range(count):
            piece(i)
        return
    # next() on a range iterator is one C call: no piece is handed out twice
    pieces = iter(range(count))

    def work() -> None:
        try:
            for i in pieces:
                piece(i)
        except BaseException:
            # drain the pieces: the other thread stops after the one it holds
            for _ in pieces:
                pass
            raise

    try:
        future = _executor().submit(work)
    except RuntimeError:  # at interpreter shutdown neither the import nor a new task is allowed
        work()
        return
    try:
        work()
    finally:
        error = None if future.cancel() else future.exception()
        # a cancelled task stays in the worker's queue: emptying the cell
        # that work reads piece from keeps it from holding the kernel's arrays
        piece = None
    if error is not None:
        raise error


@lru_cache(maxsize=None)
def _bits(m: int) -> tuple[tuple[int, ...], ...]:
    """Every assignment of m bits, first bit most significant."""
    return tuple(itertools.product((0, 1), repeat=m))


def _split(amps: int, axes: int) -> int:
    """How many of a kernel's first `axes` free wire axes split it: 1 from _PIECE amplitudes, else 0.

    The one sharing rule of every kernel: apply's slice moves and block
    product, and schmidt_factor's first TSQR level and large factor. From
    _PIECE amplitudes a kernel runs as two halves, one per value of its
    first free wire axis, which ``_share`` hands to this thread and the
    worker; below, or with no free axis, it is one piece and runs inline. A half is the calls one pass would make on its
    part, so neither rule nor core count moves a bit.

    Measured on a 2-core x86-64 VM (numpy 2.4.6, OpenBLAS 0.3.31), medians
    of five alternating processes per rule, against the rule this one
    replaced (the block product shared its chunks from 2**16 amplitudes,
    the other kernels pieces of 2**17 from 2**18). A shared call costs
    about 60 us of worker wake-up, whatever its work, so a count of
    amplitudes stands for work only roughly. cu_meas took 0.41-0.43 ms
    inline against 0.35-0.47 ms shared at 16 wires, 0.78-0.79 against
    0.63-0.85 ms at 17, and 5.2-5.4 ms at 20 wires both as two halves and
    as 128 chunks. sigma11, u_b, cu_sigma and a one-wire cut at 20 wires
    moved less than their spread between runs, two halves against eight
    pieces.
    TSQR's first level at 20 wires (512 blocks of 1024x2) took 2.2 ms as
    two halves, one np.linalg.qr call each, against 3.7 ms as one call and
    3.4 ms as eight pieces. _sum_sq and TSQR's later levels stay on one
    thread: _sum_sq took 0.72 ms split over two against 0.67 ms whole at
    2**20 amplitudes, and the later levels are a few small blocks.

    Each half of schmidt_factor reads its row blocks in pieces of _ROWS
    amplitudes, one np.linalg.qr call each and later one np.matmul each.
    numpy 2.4's QR copies its whole input (astype(copy=True)) on the
    thread that calls it, and a copy the worker made stays in that
    thread's malloc arena, where the calling thread cannot reuse it: one
    QR call per half raised wide's peak RSS from 110 to 118 MiB. In pieces
    wide's peak fell from 107 to 99.5 MiB, a one-wire cut of 20 wires holds
    0.50-0.57 times the state beside it (tracemalloc) against 1.0-2.0, and
    a 22-wire run peaks at 159 MiB on two cores and on one, against 224
    and 192 MiB. The pieces cost time on two cores: both threads take the
    interpreter lock between short numpy calls, and in one traced cut the
    calling thread waited 2.3-2.7 ms for it while the worker ran its whole
    half. The 20 one-wire cuts of a 20-wire product state took 7.9-9.3 ms
    on average against 5.4-8.0 ms with one QR call per half, in six
    alternating processes each.
    """
    return min(axes, int(amps >= _PIECE))


def apply(gate: UnitaryGate, targets: Sequence[str], state: PureState) -> PureState:
    """Apply a gate to the designated wires, identity on all others.

    The gate's matrix alone picks the path, the same at every width. Both
    paths see the input and a fresh result through ``_bit_view``. A phased
    permutation (``gate.monomial``) views them with the targets first and
    moves slices: the slice of the result whose target bits spell an entry's
    row is the input's slice at its column times the entry (``_move``), one
    numpy call with one read and one write per amplitude and no BLAS call.
    Any other matrix runs as a block product, over a view in the wire order
    ``_block_plan`` returns: each block, the target rows of one value of the
    other wires but a few column wires, is multiplied by the matrix in one
    BLAS call below _GEMM_BLOCK. The blocks go chunk by chunk: a chunk of
    about _CHUNK amplitudes, several blocks, is copied once into a
    contiguous stack of blocks, multiplied by one ``np.matmul``
    (a BLAS call per block) and written back into the result by one
    assignment. Every amplitude is one dot over the matrix's columns in the
    same order whatever the chunk, so chunking changes no bit. Both paths
    run in the halves ``_split`` gives, over the first wire besides the
    targets, or the first loop wire; a half of the block product has two
    buffers of its own.
    """
    targets = tuple(targets)
    k = len(targets)
    if gate.arity != k:
        raise StateError(f"gate acts on {gate.arity} wires, got {k} targets")
    n = state.n_wires
    front = _positions(state, targets, "target")
    amps, out = state.amps, np.empty(state.amps.size, dtype=complex)
    if gate.monomial is not None:
        src, dst = _bit_view(amps, n, front), _bit_view(out, n, front)
        index = _bits(k)
        parts = _bits(_split(amps.size, n - k))

        def moves(p: int) -> None:
            # every slice move, over one value of the first other wire; the
            # trailing ... keeps a slice of one amplitude an array
            part = parts[p] + (...,)
            for row, col, entry in gate.monomial:
                _move(src[index[col] + part], entry, dst[index[row] + part])

        _share(len(parts), moves)
        return PureState._adopt(state.wires, out)
    order, outer, block = _block_plan(n, front)
    src, dst = _bit_view(amps, n, order), _bit_view(out, n, order)
    parts = _bits(_split(amps.size, outer))
    loops = _bits(outer - len(parts[0]))

    def chunks(p: int) -> None:
        stack, results = np.empty(block, dtype=complex), np.empty(block, dtype=complex)
        shape = src.shape[outer:]
        for loop in loops:
            key = parts[p] + loop
            np.copyto(stack.reshape(shape), src[key])
            np.matmul(gate.matrix, stack, out=results)
            dst[key] = results.reshape(shape)

    _share(len(parts), chunks)
    return PureState._adopt(state.wires, out)


def _wire_view(state: PureState, wires: tuple[str, ...], amps: np.ndarray, role: str) -> np.ndarray:
    """`amps`, laid out as `state`'s, viewed by `_bit_view` with `wires` first.

    A repeated or unknown wire raises WireError; `role` names the wires in
    the first message.
    """
    return _bit_view(amps, state.n_wires, _positions(state, wires, role))


def _bit_view(amps: np.ndarray, n: int, front: tuple[int, ...]) -> np.ndarray:
    """`amps` over n wires viewed as (2, ..., 2), the wires at positions `front` first.

    One axis per wire: those at `front` in its order, then the others in
    state order.
    """
    return amps.reshape((2,) * n).transpose(_axis_plan(n, front))


def _positions(state: PureState, wires: tuple[str, ...], role: str) -> tuple[int, ...]:
    """The positions of `wires` in `state`; a repeated or unknown wire raises WireError."""
    if len(set(wires)) != len(wires):
        raise WireError(f"repeated {role} wire in {wires}")
    try:
        return tuple(map(state.wires.index, wires))
    except ValueError:
        missing = [w for w in wires if w not in state.wires]
        raise WireError(f"unknown wire(s) {missing}") from None


# bounded: a long program's random target choices would otherwise grow it for
# the life of the process
@lru_cache(maxsize=4096)
def _axis_plan(n: int, front: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose _bit_view takes for the wire positions `front`."""
    return front + tuple(i for i in range(n) if i not in front)


@lru_cache(maxsize=4096)
def _block_plan(
    n: int, targets: tuple[int, ...]
) -> tuple[tuple[int, ...], int, tuple[int, int, int]]:
    """How apply's block product cuts a state over n wires into chunks.

    Returns (order, outer, block). `order` holds the wire positions in the
    order ``_bit_view`` puts them: the loop wires, the targets in gate order,
    then the column wires. The columns are the last `inner` other wires: as
    many as keep a product with the matrix below _GEMM_BLOCK, the BLAS
    call's shape. The chunks run over the first `outer` loop wires; a chunk
    is `block`, (stacked blocks, 2**k, 2**inner), about _CHUNK amplitudes.
    The column wires are ordered by runs of neighbours in the layout, the
    longest run last, so the gather into that buffer copies along the
    longest stretch it can: after the last target there may be only a few
    amplitudes. A column's place in the product does not change its sum.
    """
    k = len(targets)
    rest = [i for i in range(n) if i not in targets]
    inner = min(n - k, max(0, (_GEMM_BLOCK >> (2 * k)).bit_length() - 1))
    loops, columns = rest[: n - k - inner], rest[n - k - inner :]
    runs: list[list[int]] = []
    for i in columns:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    columns = [i for run in sorted(runs, key=len) for i in run]
    stack = min(len(loops), max(0, (_CHUNK >> (k + inner)).bit_length() - 1))
    order = tuple(loops + list(targets) + columns)
    return order, len(loops) - stack, (1 << stack, 1 << k, 1 << inner)


def _move(src: np.ndarray, entry: complex, dst: np.ndarray) -> None:
    """dst = entry * src; for an entry of 1 or -1 a zero is +0, as a block product's sum is."""
    if entry == 1:
        np.add(src, 0.0, out=dst)
    elif entry == -1:
        np.subtract(0.0, src, out=dst)
    else:
        np.multiply(src, entry, out=dst)


def inner_product(s1: PureState, s2: PureState) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    _check_pair(s1, s2)
    return complex(_vdot(s1.amps, s2.amps))


def _check_pair(s1: PureState, s2: PureState) -> None:
    """The same wires in the same order."""
    if s1.wires != s2.wires:
        raise WireError(f"wire mismatch: {s1.wires} vs {s2.wires}")


def _vdot(a: np.ndarray, b: np.ndarray) -> np.complex128:
    """<a|b>, by the BLAS dot np.vdot calls, so the sum matches it bit for bit.

    a is conjugated inside the dot, not copied.
    """
    # [()] makes the 0-d result a numpy scalar, cheaper to use
    return np.vecdot(a, b)[()]


def _sum_sq(amps: np.ndarray) -> np.float64:
    """The plain sum of squares of a vector.

    Far from unit scale it may round to 0, inf or nan, silently, as np.vdot
    does; _in_range rescales such states.
    """
    if amps.size > _DOT_BLOCK:
        # the real and imaginary parts in blocks, each one BLAS dot of _DOT_BLOCK
        parts = np.ascontiguousarray(amps).view(np.float64).reshape(-1, 1, _DOT_BLOCK)
        with np.errstate(all="ignore"):
            return np.matmul(parts, parts.swapaxes(-1, -2)).reshape(-1).sum()
    if amps.size == 1:
        # on one amplitude that overflows np.vdot may give nan where vecdot
        # gives inf, so this one takes vecdot
        with np.errstate(all="ignore"):
            return _vdot(amps, amps).real
    # np.vdot is no ufunc, so it overflows silently without np.errstate
    # (about 1 us against 4 us on a 2-core x86-64 VM), and its sums are
    # vecdot's
    return np.vdot(amps, amps).real


def _in_range(state: PureState) -> tuple[np.ndarray, np.float64, int]:
    """(amps * 2**shift, its squared norm, shift), the norm safe to multiply.

    shift is 0 when the plain sum of squares lies in _NORM_SQ_RANGE;
    elsewhere it puts the largest real or imaginary part in [1/2, 1) (a
    modulus itself may overflow). The squared norm is 0.0 only when every
    amplitude is zero.
    """
    amps, norm_sq = state.amps, state._norm_sq
    # an overflowed sum may be nan, which is far too
    if _NORM_SQ_RANGE[0] <= norm_sq <= _NORM_SQ_RANGE[1]:
        return amps, norm_sq, 0
    peak = max(np.abs(amps.real).max(), np.abs(amps.imag).max())
    # frexp(0.0) is (0.0, 0): an all-zero state keeps shift 0 and sum 0.0
    shift = -math.frexp(peak)[1]
    scaled = _ldexp(amps, shift)
    return scaled, _sum_sq(scaled), shift


def _ldexp(amps: np.ndarray, shift) -> np.ndarray:
    # np.ldexp takes real arrays only, and 2.0**shift need not be a float
    return np.ldexp(amps.real, shift) + 1j * np.ldexp(amps.imag, shift)


def _overlap(s1: PureState, s2: PureState, zero_message: str) -> tuple:
    """|<s1|s2>|^2, <s1|s1> and <s2|s2> after rescaling each state on its own."""
    a1, n1, _ = _in_range(s1)
    a2, n2, _ = _in_range(s2)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroStateError(zero_message)
    _check_pair(s1, s2)
    ip = _vdot(a1, a2)
    # libm's hypot and pow, as Python's abs(complex) ** 2 has them: np.abs and
    # ** round differently in the last bit, and printed fidelities show it
    return np.float_power(np.hypot(ip.real, ip.imag), 2), n1, n2


def equal_up_to_phase(s1: PureState, s2: PureState, tol: float = DEFAULT_TOL) -> bool:
    """True iff s1 = c*s2 for some nonzero complex scalar c.

    Tested via the Cauchy-Schwarz equality |<s1,s2>|^2 = <s1,s1><s2,s2>,
    relative to tol.
    """
    ip, n1, n2 = _overlap(s1, s2, "cannot compare a zero state up to phase")
    return bool(np.abs(ip - n1 * n2) <= tol * n1 * n2)


def fidelity(s1: PureState, s2: PureState) -> float:
    """|<s1|s2>|^2 on normalized copies, clamped into [0, 1]."""
    ip, n1, n2 = _overlap(s1, s2, "fidelity of a zero state is undefined")
    return float(np.minimum(np.maximum(ip / (n1 * n2), 0.0), 1.0))


def norm_drift(before: PureState, after: PureState) -> float:
    """|<after|after> - <before|before>| / <before|before>, at any scale."""
    _check_pair(before, after)
    _, n0, k0 = _in_range(before)
    _, n1, k1 = _in_range(after)
    if n0 == 0.0:
        raise ZeroStateError("norm drift from a zero state is undefined")
    # n0 and n1 were summed 4**k0 and 4**k1 times too large
    return float(abs(np.ldexp(n1, 2 * (k0 - k1)) - n0) / n0)


@dataclass(frozen=True)
class Bipartition:
    """A two-way split of a state's wires, used for factorization checks."""

    left: frozenset[str]
    right: frozenset[str]

    def __post_init__(self) -> None:
        left = frozenset(self.left)
        right = frozenset(self.right)
        if left & right:
            raise WireError(f"cut sides overlap: {sorted(left & right)}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def schmidt_factor(
    state: PureState, cut: Bipartition, tol: float = DEFAULT_TOL
) -> tuple[int, tuple[PureState, PureState] | None]:
    """Schmidt rank across a cut; for rank 1 also the two factors.

    The rank counts singular values above tol times the largest one. When it
    is 1 the returned (left, right) factors satisfy tensor(left, right) ==
    state up to rounding, with each side's wires in state order. The factor
    on the side with fewer amplitudes (the right one on a square cut) has
    norm 1; the other carries the state's norm.

    The SVD reads the tall side's row blocks (``_row_blocks``) cut to one
    block by TSQR, and the large factor is the tall matrix times the small
    one, in row blocks. Those are the same blocks, in the same order,
    wherever the cut's wires sit, so the rank and the small factor do not
    depend on the layout. The large factor may differ in its last bits: BLAS
    sums the product in an order that follows the operand's layout, a view
    of the amplitudes or a gather.

    TSQR's first level and the large factor run in the halves ``_split``
    gives, over the first axis of the stack of row blocks, and each half
    walks its blocks in pieces of about _ROWS amplitudes, over the stack
    axes after its own. A piece is a view of the amplitudes where the stack
    is in place, and elsewhere is gathered into the half's one buffer,
    which both passes reuse. The first level factors each piece by one
    ``np.linalg.qr`` call into an array this function owns, so that QR's
    copy of its input is one piece too; ``_reduce_rows`` regroups those R
    factors into blocks and runs the later levels on the calling thread.
    The large factor is one ``np.matmul`` per piece into its rows of the
    result. A matrix of one block has no stack and goes to the SVD
    unfactored. Every block meets the LAPACK and BLAS calls one pass over
    the whole stack would make, so neither the rank nor a factor moves a
    bit, whatever the pieces and on any number of cores. Beside the state
    and the factors, a cut holds one buffer per half and one QR copy per
    thread, each a piece: README "Width" has the peaks.
    """
    if set(cut.left) | set(cut.right) != set(state.wires):
        raise WireError("cut does not cover exactly the state's wires")
    scaled, norm_sq, shift = _in_range(state)
    if norm_sq == 0.0:
        raise ZeroStateError("cannot factor a zero state")
    left_wires = tuple(w for w in state.wires if w in cut.left)
    right_wires = tuple(w for w in state.wires if w in cut.right)
    # The SVD runs on the tall orientation of the cut matrix, cut to one
    # block of rows, which keeps the singular values and right singular
    # vectors. QR is backward-stable, so the rank test keeps its meaning (a
    # Gram matrix would square the tolerance).
    flip = len(left_wires) < len(right_wires)
    view, shape, in_place = _row_blocks(state, scaled, right_wires if flip else left_wires)
    block, cols = shape[-2:]
    stack = shape[:-2]
    parts = _bits(_split(scaled.size, len(stack)))
    # a half's pieces run over the stack axes after its own and keep the
    # rest, as many as about _ROWS amplitudes hold
    keep = max(0, (_ROWS // (block * cols)).bit_length() - 1)
    keep = min(len(stack) - len(parts[0]), keep)
    keys = [[part + bits for bits in _bits(len(stack) - len(part) - keep)] for part in parts]
    piece = (2,) * keep + (block, cols)
    buffers = None if in_place else np.empty((len(parts),) + piece, dtype=complex)

    def rows(p: int, key: tuple) -> np.ndarray:
        # the row blocks at key: a view, or gathered into half p's buffer
        if buffers is None:
            return view[key].reshape(piece)
        src, dst = view[key], buffers[p].reshape(view[key].shape)
        # numpy copies in the buffer's order, a row's columns innermost; a
        # few columns are copied one at a time, along the rows' stretches in
        # the layout: on a 2-core x86-64 VM the row blocks of a one-wire cut
        # at w12 of 20 wires took 1.6 ms to gather on one thread, against
        # 4.0-4.6 ms in one copy
        for column in _bits(cols.bit_length() - 1 if cols <= _LINE else 0):
            np.copyto(dst[(...,) + column], src[(...,) + column])
        return buffers[p]

    # TSQR's first level; a matrix of one block goes to the SVD as it is
    if stack:
        first = np.empty(stack + (cols, cols), dtype=complex)

        def factor(p: int) -> None:
            for key in keys[p]:
                first[key] = np.linalg.qr(rows(p, key), mode="r")

        _share(len(parts), factor)
    else:
        first = rows(0, keys[0][0])
    _, sv, vh = np.linalg.svd(_reduce_rows(first, block), full_matrices=False)
    rank = int((sv > tol * sv[0]).sum())
    if rank != 1:
        return rank, None
    small = vh[0]
    # the large factor by row blocks, each one BLAS call below _GEMV_BLOCK
    step = min(block, max(1, _GEMV_BLOCK // cols))
    conj = small.conj().reshape((1,) * (keep + 1) + (cols, 1))
    big = np.empty(stack + (block // step, step, 1), dtype=complex)

    def large(p: int) -> None:
        for key in keys[p]:
            np.matmul(rows(p, key).reshape(piece[:-2] + (-1, step, cols)), conj, out=big[key])

    _share(len(parts), large)
    big = big.reshape(-1)
    if shift:
        big = _ldexp(big, -shift)
    # the cut matrix is outer(big, small) with the tall side first, and
    # outer(small, big) when the left side is the short one
    left, right = (small, big) if flip else (big, small)
    return rank, (
        PureState._adopt(left_wires, left),
        PureState._adopt(right_wires, right),
    )


def _row_blocks(
    state: PureState, amps: np.ndarray, tall: tuple[str, ...]
) -> tuple[np.ndarray, tuple[int, ...], bool]:
    """The cut matrix with `tall`'s wires as rows, as a stack of row blocks: (view, shape, in place).

    `amps` is laid out as `state`'s, and `view` is its wire view with
    `tall`'s wires first. The stack has `shape`, (2, ..., 2, block, cols):
    one axis per wire of `tall` above the last log2(block), in state order,
    then a block's rows and the columns, over the other wires in state
    order. A block has max(2 * cols, _GEMV_BLOCK // cols) rows, or every row when there are fewer: the whole matrix of a state of
    at most 11 wires. The stack is in place where a block's row wires lie
    next to one another in the layout, and so do the column wires: then
    numpy's reshape of any part of `view` that keeps whole blocks is a view
    of `amps`, as for a one-wire short side at the end of a 20-wire state or
    with at least 10 wires after it. Elsewhere that reshape is a gather.
    """
    rows, cols = 1 << len(tall), 1 << (state.n_wires - len(tall))
    block = min(rows, max(2 * cols, _GEMV_BLOCK // cols))
    view = _wire_view(state, tall, amps, "cut")
    lead, cut = len(tall) - (block.bit_length() - 1), len(tall)
    # numpy merges the axes of a block's rows, and those of its columns,
    # without a copy when each stride is twice the next
    strides = view.strides
    in_place = all(strides[i] == 2 * strides[i + 1] for i in range(lead, view.ndim - 1) if i != cut - 1)
    return view, view.shape[:lead] + (block, cols), in_place


def _reduce_rows(first: np.ndarray, block: int) -> np.ndarray:
    """TSQR's later levels: the first level's R factors cut to one block of at most `block` rows.

    `first` is (stack..., cols, cols), from ``schmidt_factor``,
    which describes the first level. Stacked, the R factors have the
    singular values and right singular vectors of the whole matrix; each
    level regroups them into blocks of `block` rows, below _GEMV_BLOCK, and
    factors them by one ``np.linalg.qr`` call, as backward-stable as one QR.
    A matrix of one block, passed as `first`, is returned as it is.
    """
    cols = first.shape[-1]
    rows = first.reshape(-1, cols)
    while len(rows) > block:
        rows = np.linalg.qr(rows.reshape(-1, block, cols), mode="r").reshape(-1, cols)
    return rows


@dataclass(frozen=True, eq=False)
class Branch:
    """One pointer-basis component of a state.

    ``raw_weight`` is the squared norm of the residual as stored (states are
    unnormalized); ``weight`` is raw_weight divided by the squared norm of the
    whole state, so weights over all branches sum to 1.
    """

    bits: tuple[int, ...]
    residual: PureState
    raw_weight: float
    weight: float

    @property
    def label(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    pointer: tuple[str, ...]
    branches: tuple[Branch, ...]
    total_norm_sq: float


def branch_decompose(
    state: PureState, pointer: Sequence[str], tol: float = BRANCH_TOL
) -> BranchDecomposition:
    """Split a state into components indexed by basis values of the pointer wires.

    Each branch holds the residual sub-state on the remaining wires (state
    order). Branches with weight <= tol are omitted; the emitted weights sum
    to 1 up to that same omission.
    """
    pointer = tuple(pointer)
    if not pointer:
        raise WireError("pointer wire list is empty")
    rows = _wire_view(state, pointer, state.amps, "pointer").reshape(1 << len(pointer), -1)
    _, total, shift = _in_range(state)
    total = float(total)
    if total == 0.0:
        raise ZeroStateError("cannot decompose a zero state")
    rest = tuple(w for w in state.wires if w not in pointer)
    branches = []
    for row, bits in zip(rows, itertools.product((0, 1), repeat=len(pointer))):
        # a row of a read-only state or of a fresh gather, never written again
        residual = PureState._adopt(rest, row)
        raw = residual.norm_sq
        # raw stays as stored; the weight needs the row at the total's scale
        weight = float(_sum_sq(_ldexp(residual.amps, shift)) if shift else raw) / total
        if weight > tol:
            branches.append(Branch(bits, residual, raw, weight))
    return BranchDecomposition(pointer, tuple(branches), total)


def dump_state(state: PureState) -> str:
    """Line format: a wire header, then one `<bits> <re> <im>` line per nonzero amplitude."""
    lines = ["wires: " + " ".join(state.wires)]
    n = state.n_wires
    for idx, amp in enumerate(state.amps):
        if amp == 0:
            continue
        bits = format(idx, f"0{n}b") if n else ""
        lines.append(f"{bits} {fmt12(amp.real)} {fmt12(amp.imag)}")
    return "\n".join(lines)
