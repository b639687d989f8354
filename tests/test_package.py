"""The package's import contract: each name loads its home module on first use.

`import everettsim` alone loads no submodule, and no name is stored in the
package namespace, so a name rebound in its home module reads the same
through the package.
"""

import json

import pytest
from test_sharing import run_python

import everettsim
from everettsim import state

SUBMODULES = ("state", "gates", "protocols", "circuit", "render")

# the public API, as `__all__` listed it before the package loaded lazily
PUBLIC = [
    "Agent", "AssertionOutcome", "Bipartition", "Branch", "BranchDecomposition", "CircuitError",
    "CircuitParseError", "CircuitProgram", "DecodeTable", "GateError", "LocalityError",
    "ProtocolError", "ProtocolWorld", "PureState", "StateError", "SuperdenseResult",
    "TeleportResult", "UnitaryGate", "WireError", "ZeroStateError", "apply", "apply_local",
    "audit_locality", "basis_state", "bell", "branch_decompose", "cu_meas", "cu_sigma",
    "derive_decode_table", "dump_state", "equal_up_to_phase", "exec_circuit", "fidelity",
    "inner_product", "parse_circuit", "qubit", "render_ascii", "reversed_convention_matrix",
    "run_superdense", "run_teleport", "schmidt_factor", "sigma", "superdense_source",
    "teleport_source", "tensor", "transfer", "u_b_decoder",
]

# prints the package's loaded modules, whether concurrent.futures is loaded,
# and the thread count
LOADED = (
    "import json, sys, threading\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'everettsim'),\n"
    "                  'concurrent.futures' in sys.modules, threading.active_count()]))\n"
)


def test_importing_the_package_loads_no_submodule():
    done = run_python("import everettsim\n" + LOADED)
    assert json.loads(done.stdout) == [["everettsim"], False, 1]


def test_the_cold_start_probe_loads_only_state_and_gates():
    # perfbench/probe.py's path: the package, then one build of every gate
    probe = (
        "import everettsim\n"
        "from everettsim import gates\n"
        "for p in (0, 1):\n"
        "    for q in (0, 1):\n"
        "        gates.sigma(p, q)\n"
        "gates.cu_sigma(), gates.cu_meas(), gates.u_b_decoder()\n"
        "gates.bell(0, 1, ('a', 'b'))\n"
    )
    done = run_python(probe + LOADED)
    assert json.loads(done.stdout) == [["everettsim", "everettsim.gates", "everettsim.state"], False, 1]


def test_all_is_the_public_api_and_each_name_is_its_home_modules_attribute():
    assert everettsim.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(everettsim, name)
        home = value.__module__
        assert home in {f"everettsim.{m}" for m in SUBMODULES}, name
        assert getattr(getattr(everettsim, home.rsplit(".", 1)[1]), name) is value


def test_star_import_binds_exactly_all():
    scope: dict = {}
    exec("from everettsim import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC


def test_dir_lists_every_public_name_and_submodule():
    assert set(dir(everettsim)) >= {*PUBLIC, *SUBMODULES, "__version__"}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'everettsim' has no attribute 'nope'$"):
        everettsim.nope  # noqa: B018
    assert not hasattr(everettsim, "nope")


def test_a_submodule_is_reachable_as_the_first_access():
    done = run_python("import everettsim as es\nprint(es.protocols.SUPERDENSE_WIRES['E2'].value)")
    assert done.stdout == "Bob\n"


def test_a_name_rebound_in_its_home_module_reads_the_same_through_the_package(monkeypatch):
    original = state.apply

    def fake(*args):
        return None

    monkeypatch.setattr(state, "apply", fake)
    assert everettsim.apply is fake
    monkeypatch.undo()
    assert everettsim.apply is original
    assert "apply" not in vars(everettsim)
