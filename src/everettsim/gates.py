"""Constructors for every unitary the two protocols use.

The single-qubit encoding family ``sigma(p, q)`` is defined by its action on
basis kets rather than by fixed matrices:

    sigma(p,q)|0> = (-1)^p |p+q>        sigma(p,q)|1> = |p+q+1>

with addition mod 2. These rules are convention independent; the matrices
below use the package convention (basis index 0 is |0>). Writings that order
the one-qubit basis the other way around, |0> = (0,1)^T and |1> = (1,0)^T,
see the same gates with both matrix axes reversed; ``reversed_convention_matrix``
performs that translation. As a matrix in this package's convention,
sigma(1,0) happens to equal iY; only the action rules matter to the protocols.

Each signed-permutation gate is built from its rule |bits> -> sign |out_bits>:
``sigma``, the two-qubit encoder controlled by two knowledge wires
(``cu_sigma``), and the receiver's correction unitary (``u_b_decoder``). The
encoder's rule is written once, in ``_encode``, for both ``sigma`` and
``cu_sigma``. Also here: the Bell-pair builder, and the Bell-basis measurement
unitary that shifts a two-wire pointer by the outcome label (``cu_meas``),
built from the Bell projectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .state import PureState, _bit, _pack

UNITARY_TOL = 1e-12

_BITS = (0, 1)


class GateError(ValueError):
    """Invalid gate construction."""


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """Dense unitary on ``arity`` qubit wires (matrix dimension 2^arity).

    Unitarity is checked at construction; a failing matrix raises GateError.
    Row/column index bits follow the package basis convention, first wire
    most significant.

    ``monomial`` is set when the matrix has exactly one nonzero entry per row
    and per column, a phased permutation of basis states such as every
    ``sigma``, ``cu_sigma`` and ``u_b``: one ``(row, column, entry)`` per
    nonzero, in row order. It is None for any other matrix.

    ``real`` is the matrix's real part, a contiguous read-only array, when
    no entry has a nonzero imaginary part, such as ``cu_meas``; it is None
    for any other matrix.
    """

    arity: int
    matrix: np.ndarray
    name: str = ""
    monomial: tuple[tuple[int, int, complex], ...] | None = field(
        init=False, repr=False, default=None
    )
    real: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not isinstance(self.arity, (int, np.integer)) or self.arity < 0:
            raise GateError(f"arity must be an integer of at least 0, got {self.arity!r}")
        dim = 1 << self.arity
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise GateError(f"arity {self.arity} needs a {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise GateError("non-finite matrix entry")
        defect = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
        if defect > UNITARY_TOL:
            raise GateError(f"matrix is not unitary (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if not mat.imag.any():
            real = mat.real.copy()
            real.setflags(write=False)
            object.__setattr__(self, "real", real)
        # every row and column of a unitary holds a nonzero entry, so dim
        # nonzero entries are one per row and one per column
        rows, cols = np.nonzero(mat)
        if len(rows) == dim:
            entries = zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist())
            object.__setattr__(self, "monomial", tuple(entries))

    def __repr__(self) -> str:
        return f"UnitaryGate(name={self.name!r}, arity={self.arity})"


def reversed_convention_matrix(gate: UnitaryGate) -> np.ndarray:
    """The gate's matrix re-expressed with every wire's basis order flipped.

    Flipping |0> and |1> on each wire complements the basis index, which for
    a full register is a reversal of both matrix axes.
    """
    return gate.matrix[::-1, ::-1].copy()


def _from_rule(arity: int, rule: Callable[..., tuple], name: str) -> UnitaryGate:
    """The gate sending each basis ket |bits> to sign |out_bits>, (out_bits, sign) = rule(*bits)."""
    mat = np.zeros((1 << arity, 1 << arity), dtype=complex)
    for bits in itertools.product(_BITS, repeat=arity):
        out_bits, sign = rule(*bits)
        mat[_pack(out_bits, arity), _pack(bits, arity)] = sign
    return UnitaryGate(arity, mat, name=name)


def _encode(p: int, q: int, x: int) -> tuple[tuple[int], int]:
    """The encoder rule sigma(p,q)|0> = (-1)^p |p+q>, sigma(p,q)|1> = |p+q+1>, mod 2."""
    return ((p + q + x) % 2,), (-1) ** (p * (1 - x))


# typed: 1.0 == 1 and hash alike, so an untyped cache would hand a float bit
# the gate built for the int instead of refusing it
@lru_cache(maxsize=None, typed=True)
def sigma(p: int, q: int) -> UnitaryGate:
    """The (p, q) single-qubit encoder, built from its basis action rules."""
    bits = _bit(p), _bit(q)
    if None in bits:
        raise GateError(f"bits required, got p={p!r} q={q!r}")
    p, q = bits
    return _from_rule(1, partial(_encode, p, q), f"sigma{p}{q}")


def bell(x: int, y: int, wires: Sequence[str]) -> PureState:
    """Unnormalized Bell state |x>|y> + (-1)^y |x+1>|y+1> on two wires."""
    bits = _bit(x), _bit(y)
    if None in bits:
        raise GateError(f"bits required, got x={x!r} y={y!r}")
    x, y = bits
    wires = tuple(wires)
    if len(wires) != 2:
        raise GateError("a Bell state needs exactly two wire labels")
    amps = np.zeros(4, dtype=complex)
    amps[(x << 1) | y] = 1.0
    amps[((1 - x) << 1) | (1 - y)] = (-1.0) ** y
    return PureState(wires, amps)


@lru_cache(maxsize=1)
def cu_sigma() -> UnitaryGate:
    """Two knowledge wires controlling the encoder family on one target.

    |p>|q>|x> -> |p>|q> sigma(p,q)|x>; arity 3, controls first.
    """

    def rule(p: int, q: int, x: int) -> tuple[tuple[int, ...], int]:
        (y,), sign = _encode(p, q, x)
        return (p, q, y), sign

    return _from_rule(3, rule, "cu_sigma")


@lru_cache(maxsize=1)
def cu_meas() -> UnitaryGate:
    """Bell-basis measurement as a pointer-shift unitary, arity 4.

    Wire order (pointer1, pointer2, measured1, measured2). For every pointer
    value |mn> and Bell state b(x,y) of the measured pair:

        |mn> (x) b(x,y)  ->  |m+x, n+y> (x) b(x,y)     (mod 2)

    The defining requirement only pins the pointer-at-|00> slice; extending
    it to a pointer translation makes the whole map unitary.
    """
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    full = np.zeros((16, 16), dtype=complex)
    for x in _BITS:
        for y in _BITS:
            vec = bell(x, y, ("m1", "m2")).amps
            projector = np.outer(vec, vec.conj()) / 2.0
            shift = np.kron(flip if x else eye, flip if y else eye)
            full += np.kron(shift, projector)
    return UnitaryGate(4, full, name="cu_meas")


@lru_cache(maxsize=1)
def u_b_decoder() -> UnitaryGate:
    """The receiver's correction, arity 3 (two pointer controls, one target).

    |xy>|z> -> (-1)^(y(z+1)) |xy>|z+x+y>  with addition mod 2.
    """

    def rule(x: int, y: int, z: int) -> tuple[tuple[int, ...], int]:
        return (x, y, (z + x + y) % 2), (-1) ** (y * (z + 1))

    return _from_rule(3, rule, "u_b")
