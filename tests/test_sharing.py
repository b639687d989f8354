"""The kernels' sharing of pieces with one worker thread (``state._share``).

``state._split`` states the one rule: from ``state._PIECE`` (2**18)
amplitudes, ``apply``'s slice moves and block product, and
``schmidt_factor``'s first TSQR level and large factor, run as two halves
on the calling thread and the one thread of ``state._executor()``, when the
process may use two cores; below, they run inline. These tests check that rule for each kernel, that every piece runs
exactly once, also with several callers, that a piece's exception reaches
the caller and stops the other thread, that a busy worker costs no waiting
and its cancelled task holds no array, that the worker keeps no process
alive, that atexit handlers and forked children can share, and that
sharing moves no bit. The 20-wire tests of ``test_properties`` reach the
shared path as well; CI runs both modules once more on one core, where
every piece runs inline.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from test_properties import kernel_amps, product_on_cut, reference_apply

from everettsim import state, verify
from everettsim.circuit import GATES
from everettsim.gates import cu_meas
from everettsim.state import Bipartition, PureState, apply, schmidt_factor

TWO_CORES = pytest.mark.skipif(state._cores() < 2, reason="the pieces run inline on one core")


@pytest.fixture(scope="module")
def wide_state():
    wires = tuple(f"w{i}" for i in range(20))
    return PureState(wires, kernel_amps(np.random.default_rng(15), 1 << 20))


def test_a_piece_that_raises_is_raised_in_the_caller_and_the_next_call_works():
    def piece(i):
        if i == 5:
            raise RuntimeError("piece 5 failed")

    with pytest.raises(RuntimeError, match="piece 5 failed"):
        state._share(16, piece)
    seen = []
    # list.append is one call under the GIL, safe from either thread
    state._share(16, seen.append)
    assert sorted(seen) == list(range(16))


def test_a_piece_that_raises_leaves_the_other_thread_no_piece():
    seen = []

    def piece(i):
        # by piece 20 both threads are at work, where there are two cores
        if i == 20:
            raise RuntimeError("piece 20 failed")
        seen.append(i)
        time.sleep(0.002)

    with pytest.raises(RuntimeError, match="piece 20 failed"):
        state._share(200, piece)
    # the other thread stops after the piece it holds, not after all 179
    assert len([i for i in seen if i > 20]) < 10


def test_concurrent_callers_run_every_piece_exactly_once():
    # more callers than cores, one worker, and a thread switch at nearly
    # every bytecode: a piece handed out twice or lost shows in `seen`, and
    # a caller that dies shows in `errors` and in the count of rounds
    wrong, errors, rounds = [], [], []

    def caller():
        try:
            for _ in range(50):
                seen = []
                state._share(64, seen.append)
                if sorted(seen) != list(range(64)):
                    wrong.append(seen)
                rounds.append(1)
        except BaseException as err:
            errors.append(err)

    callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert errors == []
    assert wrong == [] and len(rounds) == 4 * 50


@TWO_CORES
def test_a_piece_that_raises_on_the_worker_is_raised_in_the_caller():
    caller = threading.current_thread()

    def piece(i):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker piece failed")
        # leave the worker time to start and take a piece
        time.sleep(0.01)

    with pytest.raises(RuntimeError, match="worker piece failed"):
        state._share(200, piece)
    seen = []
    state._share(16, seen.append)
    assert sorted(seen) == list(range(16))


@pytest.fixture
def busy_worker():
    """The worker, held by a task that blocks until the test ends."""
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(120)

    busy = state._executor().submit(hold)
    assert started.wait(10)
    try:
        yield
    finally:
        release.set()
    busy.result(10)


def test_a_busy_worker_does_not_hold_up_a_20_wire_apply(wide_state, busy_worker):
    cases = ((cu_meas(), ("w3", "w12", "w18", "w7")), (GATES["u_b"].build(), ("w3", "w12", "w18")))
    got = {}
    # on a thread of its own, so that an apply that waits for the worker fails the test
    caller = threading.Thread(
        target=lambda: got.update({targets: apply(gate, targets, wide_state).amps for gate, targets in cases}),
        daemon=True,
    )
    caller.start()
    caller.join(60)
    assert not caller.is_alive()
    for gate, targets in cases:
        assert got[targets].tobytes() == reference_apply(gate, targets, wide_state).tobytes()


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports everettsim from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


# an 18-wire state and a cu_meas over it, shared on two cores
SHARED_APPLY = (
    "import numpy as np\n"
    "from everettsim.gates import cu_meas\n"
    "from everettsim.state import PureState, apply\n"
    "amps = np.random.default_rng(16).standard_normal((1 << 18, 2)) @ (1, 1j)\n"
    "s = PureState(tuple(f'w{i}' for i in range(18)), amps)\n"
    "def shared_apply():\n"
    "    return apply(cu_meas(), ('w2', 'w9', 'w17', 'w0'), s).amps.tobytes()\n"
)


def shared_apply_bytes() -> bytes:
    scope: dict = {}
    exec(SHARED_APPLY, scope)
    return scope["shared_apply"]()


def test_a_process_that_shared_a_kernel_exits():
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from everettsim.gates import cu_meas\n"
        "from everettsim.state import PureState, apply\n"
        "s = PureState(tuple(f'w{i}' for i in range(20)), np.ones(1 << 20))\n"
        "apply(cu_meas(), ('w0', 'w5', 'w10', 'w19'), s)\n"
        "print(threading.active_count())\n"
    )
    done = run_python(code)
    # the worker was running when the interpreter exited, where there are two cores
    assert int(done.stdout) == (2 if state._cores() > 1 else 1)


@pytest.mark.parametrize("started", [False, True])
def test_an_atexit_handler_runs_a_shared_apply(started):
    # at interpreter shutdown the executor takes no task, and before its
    # first use it cannot even be imported: either way the pieces run inline
    code = SHARED_APPLY + (
        "import atexit, hashlib\n"
        "atexit.register(lambda: print(hashlib.sha256(shared_apply()).hexdigest(), flush=True))\n"
    )
    if started:
        code += "shared_apply()\n"
    done = run_python(code)
    assert done.stdout.strip() == hashlib.sha256(shared_apply_bytes()).hexdigest(), done.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_shares_with_a_worker_of_its_own():
    code = SHARED_APPLY + (
        "import os, sys, threading, time\n"
        "from everettsim import state\n"
        "before = shared_apply()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    threads = set()\n"
        "    def piece(i):\n"
        "        threads.add(threading.get_ident())\n"
        "        time.sleep(0.005)\n"
        "    state._share(100, piece)\n"
        "    same = shared_apply() == before\n"
        "    sys.exit(0 if same and len(threads) == min(2, state._cores()) else 3)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert run_python(code).stdout.strip() == "0"


@TWO_CORES
def test_a_share_cancelled_behind_a_busy_worker_keeps_no_array_alive(busy_worker):
    s = PureState(tuple(f"w{i}" for i in range(18)), kernel_amps(np.random.default_rng(16), 1 << 18))
    # the block product's two halves, shared
    out = apply(cu_meas(), ("w3", "w9", "w14", "w0"), s)
    refs = weakref.ref(s.amps), weakref.ref(out.amps)
    del s, out
    gc.collect()
    # the cancelled task is still queued behind the busy one
    assert all(ref() is None for ref in refs)


@pytest.fixture
def shares(monkeypatch):
    """The piece count of each ``_share`` call and the tasks handed to the worker.

    The process is taken to have two cores, so the rule is checked on one
    core too.
    """
    pool, share, counts, tasks = state._executor(), state._share, [], []

    class Counting:
        def submit(self, work):
            tasks.append(work)
            return pool.submit(work)

    def counted(count, piece):
        counts.append(count)
        share(count, piece)

    monkeypatch.setattr(state, "_cores", lambda: 2)
    monkeypatch.setattr(state, "_executor", Counting)
    monkeypatch.setattr(state, "_share", counted)
    return counts, tasks


def random_state(rng, n):
    return PureState(tuple(f"w{i}" for i in range(n)), kernel_amps(rng, 1 << n))


def cut_w12(rank):
    def call(rng, n):
        s, _, _ = product_on_cut(rng, n, ("w12",), rank)
        return schmidt_factor(s, Bipartition(frozenset(s.wires) - {"w12"}, frozenset({"w12"})))

    return call


# each kernel, called on an n-wire state, and its number of _share calls
RULE_KERNELS = {
    "slice moves": (lambda rng, n: apply(GATES["u_b"].build(), ("w3", "w9", "w14"), random_state(rng, n)), 1),
    "block product": (lambda rng, n: apply(cu_meas(), ("w3", "w9", "w14", "w0"), random_state(rng, n)), 1),
    # rank 2: no large factor
    "first TSQR level": (cut_w12(2), 1),
    # rank 1: the first level, then the large factor
    "large factor": (cut_w12(1), 2),
}


@pytest.mark.parametrize("kernel", RULE_KERNELS)
@pytest.mark.parametrize("n", [17, 18])
def test_each_kernel_shares_two_halves_from_2_18_amplitudes(shares, kernel, n):
    call, calls = RULE_KERNELS[kernel]
    call(np.random.default_rng(n), n)
    counts, tasks = shares
    assert counts == [2 if n == 18 else 1] * calls
    # one task per shared call, whether or not the worker ran it
    assert len(tasks) == (calls if n == 18 else 0)


def row_blocks(s, right):
    """The stack of row blocks of the cut of `right` from `s`: numpy's reshape of the wire view.

    The wire view, the tall side's wires first, is built here from numpy
    alone. The stack is (2, ..., 2, block, cols), a view of the amplitudes
    where numpy can merge the axes of a block and a gather elsewhere.
    """
    tall = [i for i, w in enumerate(s.wires) if w not in right]
    short = [i for i, w in enumerate(s.wires) if w in right]
    rows, cols = 1 << len(tall), 1 << len(short)
    block = min(rows, max(2 * cols, state._GEMV_BLOCK // cols))
    view = s.amps.reshape((2,) * s.n_wires).transpose(tall + short)
    return view.reshape((2,) * (len(tall) - block.bit_length() + 1) + (block, cols))


def one_serial_pass(s, right):
    """Rank and factors of the cut of `right` from `s`, each step one call over the whole stack of row blocks.

    Every TSQR level runs here, not through ``state._reduce_rows`` or
    ``state._share``, so the pass stays independent of the code it checks.
    """
    _, _, shift = state._in_range(s)
    assert shift == 0
    blocks = row_blocks(s, right)
    block, cols = blocks.shape[-2:]
    reduced = blocks
    while reduced.ndim > 2:
        reduced = np.linalg.qr(reduced, mode="r").reshape(-1, cols)
        if reduced.shape[0] > block:
            reduced = reduced.reshape(-1, block, cols)
    _, sv, vh = np.linalg.svd(reduced, full_matrices=False)
    small = vh[0]
    step = min(block, max(1, state._GEMV_BLOCK // cols))
    steps = blocks.reshape(blocks.shape[:-2] + (-1, step, cols))
    conj = small.conj().reshape((1,) * (steps.ndim - 2) + (cols, 1))
    big = np.matmul(steps, conj).reshape(-1)
    return (sv > state.DEFAULT_TOL * sv[0]).sum(), big, small


def assert_one_serial_pass(s, right, view):
    """schmidt_factor on the cut of `right` matches one serial pass byte for byte.

    `view` says whether the stack of row blocks is a view of the amplitudes,
    which the cases below rely on to cover both the view and the gather.
    """
    tall = tuple(w for w in s.wires if w not in right)
    assert np.shares_memory(row_blocks(s, right), s.amps) == view
    rank, factors = schmidt_factor(s, Bipartition(frozenset(tall), frozenset(right)))
    serial_rank, big, small = one_serial_pass(s, right)
    assert rank == serial_rank == 1
    assert factors[0].amps.tobytes() == big.tobytes()
    assert factors[1].amps.tobytes() == small.tobytes()


# From 2**18 amplitudes TSQR's first level runs in two halves, below in one.
# Wires 0 and 19 leave the stack of row blocks a view; wires 10 to 18 need a
# gather, 10 and 18 at the edges of that range
@pytest.mark.parametrize("position", [0, 10, 12, 15, 18, 19])
def test_schmidt_factor_of_a_20_wire_cut_keeps_the_bits_of_one_serial_pass(position):
    wire = f"w{position}"
    s, _, _ = product_on_cut(np.random.default_rng(position), 20, (wire,), 1)
    assert_one_serial_pass(s, (wire,), position in (0, 19))


# 2**18 amplitudes, the fewest that TSQR's first level splits into halves
@pytest.mark.parametrize("position", [0, 9, 17])
def test_schmidt_factor_of_an_18_wire_cut_keeps_the_bits_of_one_serial_pass(position):
    wire = f"w{position}"
    s, _, _ = product_on_cut(np.random.default_rng(18 + position), 18, (wire,), 1)
    assert_one_serial_pass(s, (wire,), position in (0, 17))


# below 2**18 amplitudes: a stack of row blocks factored as one half, a view
# at the first wire and gathered at w6 of 12 and w9 of 17 wires
@pytest.mark.parametrize("n, position", [(12, 0), (12, 6), (17, 0), (17, 9)])
def test_schmidt_factor_of_a_one_half_cut_keeps_the_bits_of_one_serial_pass(n, position):
    wire = f"w{position}"
    s, _, _ = product_on_cut(np.random.default_rng(n + position), n, (wire,), 1)
    assert_one_serial_pass(s, (wire,), position == 0)


# a two-wire cut of 19 wires leaves R factors of twice a block's rows after
# the first level, and of 20 wires four times; (w0, w7) of 8 wires is one
# gathered block, with no QR before the SVD
@pytest.mark.parametrize("n, right", [(19, ("w3", "w15")), (20, ("w10", "w11")), (8, ("w0", "w7"))])
def test_schmidt_factor_of_a_two_wire_cut_keeps_the_bits_of_one_serial_pass(n, right):
    s, _, _ = product_on_cut(np.random.default_rng(n), n, right, 1)
    assert_one_serial_pass(s, right, False)


# Each half reads its row blocks in pieces of at most state._ROWS amplitudes,
# here at least four to a half. One-wire cuts of 18 and 20 wires as a view
# and as a gather, and the two-wire cut of 20 wires, gathered. Where a half
# of several pieces is gathered, both passes gather each piece anew into
# the half's one buffer
# the ids keep the names these cases have long been run under, whose 1 stood
# for a single state
@pytest.mark.parametrize("n, right, view", [
    pytest.param(18, ("w3",), True, id="18-right0-1-True"),
    pytest.param(18, ("w12",), False, id="18-right1-1-False"),
    pytest.param(20, ("w5",), True, id="20-right2-1-True"),
    pytest.param(20, ("w14",), False, id="20-right3-1-False"),
    pytest.param(20, ("w10", "w11"), False, id="20-right6-1-False"),
])
def test_schmidt_factor_in_pieces_keeps_the_bits_of_one_serial_pass(monkeypatch, n, right, view):
    s, _, _ = product_on_cut(np.random.default_rng(n + int(right[0][1:])), n, right, 1)
    qr, sizes = np.linalg.qr, []

    def recorded(a, mode="reduced"):
        # list.append is one call under the GIL, safe from either thread
        sizes.append(a.size)
        return qr(a, mode=mode)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", recorded)
        schmidt_factor(s, Bipartition(frozenset(s.wires) - set(right), frozenset(right)))
    assert max(sizes) <= state._ROWS and sizes.count(state._ROWS) >= 2 * 4
    assert_one_serial_pass(s, right, view)


# rank and factor bytes of one-wire cuts of product states at a view and a
# gather position, of 18 and 20 wires
CUT_HASH = (
    "import hashlib\n"
    "import numpy as np\n"
    "from everettsim.state import Bipartition, PureState, schmidt_factor\n"
    "def cut_hash():\n"
    "    digest = hashlib.sha256()\n"
    "    for n, position in ((18, 0), (18, 9), (20, 19), (20, 12)):\n"
    "        rng = np.random.default_rng(n + position)\n"
    "        a, b = (rng.standard_normal((rows, 2)) @ (1, 1j) for rows in (1 << (n - 1), 2))\n"
    "        # the outer product, the cut wire's axis moved to its position\n"
    "        joint = (a[:, None] * b[None, :]).reshape(1 << position, -1, 2)\n"
    "        amps = joint.transpose(0, 2, 1).reshape(-1)\n"
    "        s = PureState(tuple(f'w{i}' for i in range(n)), amps)\n"
    "        right = frozenset({f'w{position}'})\n"
    "        rank, factors = schmidt_factor(s, Bipartition(frozenset(s.wires) - right, right))\n"
    "        digest.update(np.asarray(rank).tobytes())\n"
    "        for factor in factors:\n"
    "            digest.update(factor.amps.tobytes())\n"
    "    return digest.hexdigest()\n"
)


@TWO_CORES
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask on this platform")
def test_one_wire_cuts_keep_their_bits_in_a_process_on_one_core():
    scope: dict = {}
    exec(CUT_HASH, scope)
    # the child pins itself to one core before numpy, and with it OpenBLAS,
    # starts: there every piece runs inline and BLAS has one thread
    code = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + CUT_HASH
    done = run_python(code + "from everettsim import state\nprint(state._cores(), cut_hash())\n")
    assert done.stdout.split() == ["1", scope["cut_hash"]()]


def test_verify_starts_no_thread(monkeypatch):
    def refuse():
        raise AssertionError("verify reached the shared path")

    monkeypatch.setattr(state, "_executor", refuse)
    before = threading.active_count()
    with contextlib.redirect_stdout(io.StringIO()):
        results = verify.run_all()
    assert all(result.passed for result in results)
    assert threading.active_count() == before
