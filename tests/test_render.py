from pathlib import Path

import pytest

from everettsim import fixtures
from everettsim.circuit import GATES, exec_circuit, parse_circuit
from everettsim.render import render_ascii

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8").rstrip("\n")


def test_registers_only_renders_plain_lines():
    prog = parse_circuit("wire a @ Alice\nwire b @ Bob\n")
    assert render_ascii(prog) == (
        "══ Alice ═══\n"
        " a ─────────\n"
        "╌╌ Bob ╌╌╌╌╌\n"
        " b ─────────"
    )


def test_superdense_fixture_matches_golden():
    prog = parse_circuit(fixtures.read(fixtures.SUPERDENSE))
    assert render_ascii(prog) == golden("superdense_render.txt")


def test_teleport_fixture_matches_golden():
    prog = parse_circuit(fixtures.read(fixtures.TELEPORT))
    assert render_ascii(prog) == golden("teleport_render.txt")


def label_rows(lines: list[str], name: str) -> list[int]:
    return [i for i, line in enumerate(lines) if line[:4].strip() == name]


def test_superdense_topology():
    prog = parse_circuit(fixtures.read(fixtures.SUPERDENSE))
    art = render_ascii(prog)
    lines = art.splitlines()
    assert art.count("●") == 4  # c,d control the encoder; a,b control the readout
    assert art.count("[Uσ]") == 1
    assert art.count("[UM]") == 2
    sep = next(i for i, line in enumerate(lines) if line.startswith("╌╌ Bob"))
    a_rows = label_rows(lines, "a")
    assert any(i < sep for i in a_rows) and any(i > sep for i in a_rows)


def test_teleport_topology():
    prog = parse_circuit(fixtures.read(fixtures.TELEPORT))
    art = render_ascii(prog)
    lines = art.splitlines()
    assert art.count("[UB]") == 1
    sep = next(i for i, line in enumerate(lines) if line.startswith("╌╌ Bob"))
    ub_row = next(i for i, line in enumerate(lines) if "[UB]" in line)
    assert ub_row > sep  # correction happens on Bob's side
    # the pointer wires appear both above and below the separator
    for name in ("E1", "E2"):
        rows = label_rows(lines, name)
        assert any(i < sep for i in rows) and any(i > sep for i in rows)


def test_render_is_deterministic():
    for name in (fixtures.SUPERDENSE, fixtures.TELEPORT):
        prog = parse_circuit(fixtures.read(name))
        assert render_ascii(prog) == render_ascii(prog)


def test_noop_transfer_draws_nothing():
    base = "wire a @ Alice\nwire b @ Bob\ninit a = |0>\n"
    with_noop = base + "transfer a -> Alice\n"
    assert render_ascii(parse_circuit(base)) == render_ascii(parse_circuit(with_noop))


@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_parses_runs_and_renders_its_box(name):
    spec = GATES[name]
    wires = [f"w{i}" for i in range(spec.arity)]
    source = "".join(f"wire {w} @ Alice\ninit {w} = |0>\n" for w in wires)
    source += f"gate {name} {' '.join(wires)} @ Alice\n"
    prog = parse_circuit(source)
    world, _ = exec_circuit(prog)
    assert world.trace[-1].gate == spec.build().name
    art = render_ascii(prog)
    assert art.count(f"[{spec.label}]") == len(spec.boxes)
    assert art.count("●") == len(spec.controls)
