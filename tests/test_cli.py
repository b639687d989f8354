import json
from pathlib import Path

import pytest

from everettsim import cli, fixtures
from everettsim.circuit import superdense_source
from everettsim.cli import main
from everettsim.state import ZeroStateError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_file(tmp_path, name):
    path = tmp_path / name
    path.write_text(fixtures.read(name), encoding="utf-8")
    return str(path)


def test_superdense_reports_the_pointer(capsys):
    code, out, _ = run_cli(capsys, "superdense", "--p", "0", "--q", "0")
    assert code == 0
    assert "pointer: 00" in out
    assert "decode table: 00->00 01->10 10->01 11->11" in out


def test_teleport_reports_unit_fidelity(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--alpha", "1,0", "--beta", "0,0")
    assert code == 0
    assert "fidelity: 1.000000000000" in out
    assert "schmidt rank (b cut): 1" in out


def test_run_fixture_passes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", fixture_file(tmp_path, fixtures.TELEPORT))
    assert code == 0
    assert "PASS" in out


def test_run_with_failing_assertion_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.ecirc"
    path.write_text(superdense_source(0, 1, (0, 1)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "FAIL" in out


def test_run_with_locality_violation_exits_one(capsys, tmp_path):
    path = tmp_path / "nonlocal.ecirc"
    source = superdense_source(0, 1, (1, 0)).replace("transfer a -> Bob\n", "")
    path.write_text(source, encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "cannot act on wire" in err


def test_missing_file_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "no_such_file.ecirc"])
    assert exc.value.code == 2


def test_parse_error_exits_two_with_position(capsys, tmp_path):
    path = tmp_path / "broken.ecirc"
    path.write_text("wire a @ Alice\ntransfer a ->\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entangle"])
    assert exc.value.code == 2


def test_bad_bit_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["superdense", "--p", "2", "--q", "0"])
    assert exc.value.code == 2


def test_bad_amplitude_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "1", "--beta", "0,0"])
    assert exc.value.code == 2


def test_zero_qubit_rejected(capsys):
    code, _, err = run_cli(capsys, "teleport", "--alpha", "0,0", "--beta", "0,0")
    assert code == 2
    assert "nonzero" in err


def test_json_output_is_parseable_and_matches_human_numbers(capsys):
    _, human, _ = run_cli(capsys, "teleport", "--alpha", "0.6,0", "--beta", "0,0.8")
    _, machine, _ = run_cli(capsys, "teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--json")
    records = [json.loads(line) for line in machine.splitlines()]
    summary = records[-1]
    assert summary["event"] == "Summary"
    human_fidelity = float(next(l for l in human.splitlines() if l.startswith("fidelity:")).split()[1])
    assert summary["fidelity"] == human_fidelity
    assert summary["schmidt_rank_b_cut"] == 1


def test_json_trace_records_have_event_and_seq(capsys):
    _, out, _ = run_cli(capsys, "superdense", "--p", "1", "--q", "1", "--json", "--trace")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["event"] for r in records] == [
        "Init", "Gate", "Transfer", "Gate", "Decompose", "Summary"
    ]
    assert [r["seq"] for r in records[:-1]] == [0, 1, 2, 3, 4]


def test_trace_lines_follow_the_documented_layout(capsys):
    _, out, _ = run_cli(capsys, "superdense", "--p", "0", "--q", "1", "--trace")
    lines = out.splitlines()
    start = lines.index("trace:")
    assert lines[start + 1].startswith("0 Init wires=c,d,a,b,E1,E2 at=c:Alice,")
    assert lines[start + 2] == "1 Gate name=cu_sigma wires=c,d,a actor=Alice"
    assert lines[start + 3] == "2 Transfer wire=a from=Alice to=Bob"
    assert lines[start + 4] == "3 Gate name=cu_meas wires=E1,E2,a,b actor=Bob"
    assert lines[start + 5].startswith("4 Decompose pointer=E1,E2 branches=10:")
    assert "final state:" in lines
    assert "wires: c d a b E1 E2" in lines


def test_render_output_is_byte_identical_across_runs(capsys, tmp_path):
    path = fixture_file(tmp_path, fixtures.SUPERDENSE)
    _, first, _ = run_cli(capsys, "render", path)
    _, second, _ = run_cli(capsys, "render", path)
    assert first == second
    assert "[Uσ]" in first


def test_json_output_is_byte_identical_across_runs(capsys):
    args = ("superdense", "--p", "0", "--q", "1", "--json", "--trace")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_everett_tol_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("EVERETT_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "superdense", "--p", "0", "--q", "0")
    assert code == 0 and "pointer: 00" in out
    monkeypatch.setenv("EVERETT_TOL", "banana")
    with pytest.raises(SystemExit) as exc:
        main(["superdense", "--p", "0", "--q", "0"])
    assert exc.value.code == 2


def assert_one_error_line(err):
    assert err.count("\n") == 1 and err.startswith("everettsim: ")
    assert "Traceback" not in err


def test_non_finite_amplitude_in_a_file_exits_two(capsys, tmp_path):
    path = tmp_path / "nan.ecirc"
    path.write_text("wire c @ Alice\ninit c = (nan,0) |0> + (1,0) |1>\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "line 2, column 10: non-finite amplitude" in err


def test_non_finite_amplitude_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "nan,0", "--beta", "1,0"])
    assert exc.value.code == 2
    assert "non-finite amplitude 'nan,0'" in capsys.readouterr().err


@pytest.mark.parametrize("target,argv", [
    ("run_superdense", ("superdense", "--p", "0", "--q", "0")),
    ("run_teleport", ("teleport", "--alpha", "1,0", "--beta", "0,0")),
    ("exec_circuit", ("run", "prog.ecirc")),
])
def test_state_error_exits_one_with_one_line(capsys, tmp_path, monkeypatch, target, argv):
    # injected, because no input is known to raise one
    def fail(*args, **kwargs):
        raise ZeroStateError("cannot compare a zero state up to phase")

    monkeypatch.setattr(cli, target, fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.ecirc").write_text(fixtures.read(fixtures.TELEPORT), encoding="utf-8")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert_one_error_line(err)
    assert "zero state" in err


@pytest.mark.parametrize("tol", ["inf", "1", "2.5"])
def test_everett_tol_at_or_above_one_exits_two(capsys, monkeypatch, tol):
    monkeypatch.setenv("EVERETT_TOL", tol)
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "1,0", "--beta", "0,0"])
    assert exc.value.code == 2
    assert_one_error_line(capsys.readouterr().err)


def test_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.ecirc"
    path.write_bytes("wire c @ Alice # café\n".encode("latin-1"))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "not UTF-8" in err


def test_verify_output_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "verify.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("alpha,beta,bob", [
    ("1e-200,0", "0,0", "(1.000000000000,0.000000000000) |0> + (0.000000000000,0.000000000000) |1>"),
    ("1e160,0", "0,1e160", "(0.707106781187,0.000000000000) |0> + (0.000000000000,0.707106781187) |1>"),
    ("1e100,0", "0,0", "(1.000000000000,0.000000000000) |0> + (0.000000000000,0.000000000000) |1>"),
])
def test_teleport_at_far_scales(capsys, alpha, beta, bob):
    code, out, err = run_cli(capsys, "teleport", "--alpha", alpha, "--beta", beta)
    assert (code, err) == (0, "")
    assert "fidelity: 1.000000000000" in out
    assert f"bob qubit: {bob}" in out


@pytest.mark.parametrize("source", [
    "wire c @ Alice\ninit c = (1e-200,0) |0> + (0,0) |1>\nassert factor c ~ |0>\n",
    "wire E1 @ Bob\nwire E2 @ Bob\ninit E1 = (0,0) |0> + (1e-200,0) |1>\ninit E2 = |0>\n"
    "assert pointer E1 E2 = 10\n",
])
def test_run_at_far_scales(capsys, tmp_path, source):
    path = tmp_path / "far.ecirc"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("assertions: 1 passed, 0 failed\n")


@pytest.mark.parametrize("alpha,beta", [("1e308,0", "1e308,0"), ("5e-324,0", "0,5e-324")])
def test_teleport_past_the_float_range_exits_one_with_one_line(capsys, alpha, beta):
    # the top singular value of the 1e308 state is not a float, and halving
    # the smallest subnormal rounds, so no check can pass
    code, out, err = run_cli(capsys, "teleport", "--alpha", alpha, "--beta", beta)
    assert (code, out) == (1, "")
    assert_one_error_line(err)
