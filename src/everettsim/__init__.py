"""Unitary-only simulation of superdense coding and teleportation.

State preparation, measurement, and classical signaling are all modeled as
unitary evolution of one global pure state: knowledge is a basis-state
register, measuring is a pointer-shifting controlled unitary, and sending a
message is physically handing a wire to the other agent.

Each public name, and each of the submodules `state`, `gates`, `protocols`,
`circuit` and `render`, loads its home module on first use (PEP 562), so
`import everettsim` alone loads no submodule: that import is the cold-start
contract.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "state": (
        "Bipartition", "Branch", "BranchDecomposition", "PureState", "StateError", "WireError",
        "ZeroStateError", "apply", "basis_state", "branch_decompose", "dump_state",
        "equal_up_to_phase", "fidelity", "inner_product", "qubit", "schmidt_factor", "tensor",
    ),
    "gates": (
        "GateError", "UnitaryGate", "bell", "cu_meas", "cu_sigma", "reversed_convention_matrix",
        "sigma", "u_b_decoder",
    ),
    "protocols": (
        "Agent", "DecodeTable", "LocalityError", "ProtocolError", "ProtocolWorld",
        "SuperdenseResult", "TeleportResult", "apply_local", "audit_locality",
        "derive_decode_table", "run_superdense", "run_teleport", "transfer",
    ),
    "circuit": (
        "AssertionOutcome", "CircuitError", "CircuitParseError", "CircuitProgram",
        "exec_circuit", "parse_circuit", "superdense_source", "teleport_source",
    ),
    "render": ("render_ascii",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # nothing is stored here, so a name rebound in its home module (a tracer,
    # a test's monkeypatch) reads the same through the package
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
