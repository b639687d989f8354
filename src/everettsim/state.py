"""Dense pure-state vectors over named qubit wires.

A state is an unnormalized vector of complex amplitudes indexed by bit
strings: the basis index packs one bit per wire in wire-list order, with the
first wire most significant. Vectors are deliberately not normalized; all
equality checks are up to a complex scale, and probabilities are computed on
normalized copies.

Everything here is an immutable value and every operation is a pure function,
so states can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gates import UnitaryGate

DEFAULT_TOL = 1e-12
BRANCH_TOL = 1e-10

# squared norms in this range are used as summed: the product of two, times a
# tolerance down to 2**-200, is still a normal float
_NORM_SQ_RANGE = (2.0**-400, 2.0**400)


class StateError(ValueError):
    """Invalid statevector operation."""


class WireError(StateError):
    """Unknown, duplicate, or mismatched wire labels."""


class ZeroStateError(StateError):
    """A zero vector was passed where a physical state is required."""


def fmt12(x: float) -> str:
    """Format a float with 12 decimal places, folding negative zero."""
    return f"{x + 0.0:.12f}"


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized pure state over an ordered list of labeled wires.

    ``amps[i]`` is the amplitude of the basis state whose bit string is the
    binary expansion of ``i`` over the wires (first wire = most significant
    bit). Amplitudes must be finite; the all-zero vector is representable but
    rejected by every analytical operation.
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
        if amps.shape[0] != 1 << len(wires):
            raise StateError(
                f"{len(wires)} wires need {1 << len(wires)} amplitudes, got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise StateError("non-finite amplitude")
        amps.setflags(write=False)
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "amps", amps)

    @property
    def n_wires(self) -> int:
        return len(self.wires)

    @property
    def norm_sq(self) -> float:
        """The plain sum of squares, which rounds to 0 or inf far from unit scale."""
        return _sum_sq(self.amps)

    def index_of(self, bits: Sequence[int]) -> int:
        """Basis index of a full wire assignment."""
        if len(bits) != self.n_wires:
            raise WireError(f"need {self.n_wires} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        return idx

    def __repr__(self) -> str:
        return f"PureState(wires={self.wires}, dim={self.amps.shape[0]})"


def basis_state(wires: Sequence[str], bits: Sequence[int]) -> PureState:
    """|bits> over the given wires, e.g. basis_state(('a','b'), (1,0)) = |10>."""
    if len(wires) != len(bits):
        raise WireError("one bit per wire required")
    amps = np.zeros(1 << len(wires), dtype=complex)
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise StateError(f"bit must be 0 or 1, got {b!r}")
        idx = (idx << 1) | b
    amps[idx] = 1.0
    return PureState(tuple(wires), amps)


def qubit(wire: str, amp0: complex, amp1: complex) -> PureState:
    """Single-wire state amp0|0> + amp1|1>."""
    return PureState((wire,), np.array([amp0, amp1], dtype=complex))


def tensor(*states: PureState) -> PureState:
    """Tensor product; wire lists concatenate, amplitudes take the outer product."""
    if not states:
        raise StateError("tensor needs at least one state")
    wires: tuple[str, ...] = ()
    amps = np.ones(1, dtype=complex)
    for s in states:
        overlap = set(wires) & set(s.wires)
        if overlap:
            raise WireError(f"duplicate wire labels across factors: {sorted(overlap)}")
        wires = wires + s.wires
        amps = np.kron(amps, s.amps)
    return PureState(wires, amps)


def apply(gate: UnitaryGate, targets: Sequence[str], state: PureState) -> PureState:
    """Apply a gate to the designated wires, identity on all others."""
    targets = tuple(targets)
    k = len(targets)
    if gate.arity != k:
        raise StateError(f"gate acts on {gate.arity} wires, got {k} targets")
    if len(set(targets)) != k:
        raise WireError(f"repeated target wire in {targets}")
    try:
        positions = [state.wires.index(t) for t in targets]
    except ValueError:
        missing = [t for t in targets if t not in state.wires]
        raise WireError(f"unknown wire(s) {missing}") from None
    n = state.n_wires
    arr = state.amps.reshape((2,) * n)
    arr = np.moveaxis(arr, positions, range(k))
    arr = gate.matrix @ arr.reshape(1 << k, -1)
    arr = np.moveaxis(arr.reshape((2,) * n), range(k), positions)
    return PureState(state.wires, arr.reshape(-1))


def inner_product(s1: PureState, s2: PureState) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    _check_same_wires(s1, s2)
    return complex(np.vdot(s1.amps, s2.amps))


def _check_same_wires(s1: PureState, s2: PureState) -> None:
    if s1.wires != s2.wires:
        raise WireError(f"wire mismatch: {s1.wires} vs {s2.wires}")


def _sum_sq(amps: np.ndarray) -> float:
    return float(np.real(np.vdot(amps, amps)))


def _in_range(amps: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(amps * 2**shift, its squared norm, shift), the norm safe to multiply.

    shift is 0 whenever the plain sum of squares lies in _NORM_SQ_RANGE;
    otherwise it puts the largest real or imaginary part in [1/2, 1) (a
    modulus itself may overflow). The squared norm is 0.0 only when every
    amplitude is zero.
    """
    norm_sq = _sum_sq(amps)
    if _NORM_SQ_RANGE[0] <= norm_sq <= _NORM_SQ_RANGE[1]:
        return amps, norm_sq, 0
    peak = max(float(np.abs(amps.real).max()), float(np.abs(amps.imag).max()))
    if peak == 0.0:
        return amps, 0.0, 0
    shift = -math.frexp(peak)[1]
    scaled = _ldexp(amps, shift)
    return scaled, _sum_sq(scaled), shift


def _ldexp(amps: np.ndarray, shift: int) -> np.ndarray:
    # np.ldexp takes real arrays only, and 2.0**shift need not be a float
    return np.ldexp(amps.real, shift) + 1j * np.ldexp(amps.imag, shift)


def _overlap(s1: PureState, s2: PureState, zero_message: str) -> tuple[float, float, float]:
    """|<s1|s2>|^2, <s1|s1> and <s2|s2> after rescaling each state on its own."""
    a1, n1, _ = _in_range(s1.amps)
    a2, n2, _ = _in_range(s2.amps)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroStateError(zero_message)
    _check_same_wires(s1, s2)
    return abs(complex(np.vdot(a1, a2))) ** 2, n1, n2


def equal_up_to_phase(s1: PureState, s2: PureState, tol: float = DEFAULT_TOL) -> bool:
    """True iff s1 = c*s2 for some nonzero complex scalar c.

    Tested via the Cauchy-Schwarz equality |<s1,s2>|^2 = <s1,s1><s2,s2>,
    relative to tol.
    """
    ip, n1, n2 = _overlap(s1, s2, "cannot compare a zero state up to phase")
    return abs(ip - n1 * n2) <= tol * n1 * n2


def fidelity(s1: PureState, s2: PureState) -> float:
    """|<s1|s2>|^2 on normalized copies, clamped into [0, 1]."""
    ip, n1, n2 = _overlap(s1, s2, "fidelity of a zero state is undefined")
    return min(max(ip / (n1 * n2), 0.0), 1.0)


def norm_drift(before: PureState, after: PureState) -> float:
    """|<after|after> - <before|before>| / <before|before>, at any scale."""
    _, n0, k0 = _in_range(before.amps)
    _, n1, k1 = _in_range(after.amps)
    if n0 == 0.0:
        raise ZeroStateError("norm drift from a zero state is undefined")
    # n0 and n1 were summed 4**k0 and 4**k1 times too large
    return abs(math.ldexp(n1, 2 * (k0 - k1)) - n0) / n0


def permute_wires(state: PureState, new_order: Sequence[str]) -> PureState:
    """Same state with wires listed in a different order."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(state.wires):
        raise WireError(f"{new_order} is not a permutation of {state.wires}")
    positions = [state.wires.index(w) for w in new_order]
    arr = state.amps.reshape((2,) * state.n_wires).transpose(positions)
    return PureState(new_order, arr.reshape(-1))


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
    state up to rounding, with each side's wires in state order.
    """
    if set(cut.left) | set(cut.right) != set(state.wires):
        raise WireError("cut does not cover exactly the state's wires")
    if _in_range(state.amps)[1] == 0.0:
        raise ZeroStateError("cannot factor a zero state")
    left_wires = tuple(w for w in state.wires if w in cut.left)
    right_wires = tuple(w for w in state.wires if w in cut.right)
    positions = [state.wires.index(w) for w in left_wires]
    arr = np.moveaxis(state.amps.reshape((2,) * state.n_wires), positions, range(len(positions)))
    mat = arr.reshape(1 << len(left_wires), 1 << len(right_wires))
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(sv > tol * sv[0]))
    if rank != 1:
        return rank, None
    left = PureState(left_wires, u[:, 0] * sv[0])
    right = PureState(right_wires, vh[0, :])
    return 1, (left, right)


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
    if len(set(pointer)) != len(pointer):
        raise WireError(f"repeated pointer wire in {pointer}")
    try:
        positions = [state.wires.index(w) for w in pointer]
    except ValueError:
        missing = [w for w in pointer if w not in state.wires]
        raise WireError(f"unknown wire(s) {missing}") from None
    _, total, shift = _in_range(state.amps)
    if total == 0.0:
        raise ZeroStateError("cannot decompose a zero state")
    rest = tuple(w for w in state.wires if w not in pointer)
    k = len(pointer)
    arr = np.moveaxis(state.amps.reshape((2,) * state.n_wires), positions, range(k))
    rows = arr.reshape(1 << k, -1)
    branches = []
    for value in range(1 << k):
        residual = rows[value]
        raw = _sum_sq(residual)
        # raw stays as stored; the weight needs the row at the total's scale
        weight = (_sum_sq(_ldexp(residual, shift)) if shift else raw) / total
        if weight <= tol:
            continue
        bits = tuple((value >> (k - 1 - i)) & 1 for i in range(k))
        branches.append(Branch(bits, PureState(rest, residual), raw, weight))
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
