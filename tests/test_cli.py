import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak
from test_circuit import ZERO_KET_SOURCE

import everettsim
from everettsim import cli, fixtures, gates
from everettsim.circuit import GATES, superdense_source
from everettsim.cli import main
from everettsim.gates import UnitaryGate, cu_meas
from everettsim.state import ZeroStateError

GOLDEN = Path(__file__).parent / "golden"


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


def test_run_records_a_zero_ket_factor_assertion_and_goes_on(capsys, tmp_path):
    path = tmp_path / "zero.ecirc"
    path.write_text(ZERO_KET_SOURCE, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "line 5 assert factor: PASS (factor on 'b' ~ |1>)",
        "line 6 assert factor: FAIL (factor on 'b' cannot be compared with the zero ket"
        " (0.0,0.0)|0>+(0.0,0.0)|1>)",
        "line 7 assert pointer: PASS (pointer=01)",
        "assertions: 2 passed, 1 failed",
    ]
    code, out, err = run_cli(capsys, "run", "--json", str(path))
    assert (code, err) == (1, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["event"], r["line"], r["passed"]) for r in records[:-1]] == [
        ("Assertion", 5, True),
        ("Assertion", 6, False),
        ("Assertion", 7, True),
    ]
    assert "zero ket" in records[1]["detail"]
    assert records[-1] == {"event": "Summary", "verb": "run", "passed": 2, "failed": 1}


def test_run_with_locality_violation_exits_one(capsys, tmp_path):
    path = tmp_path / "nonlocal.ecirc"
    source = superdense_source(0, 1, (1, 0)).replace("transfer a -> Bob\n", "")
    path.write_text(source, encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "cannot act on wire" in err


def test_run_names_the_line_of_a_gate_on_another_agents_wire(capsys, tmp_path):
    path = tmp_path / "f.ecirc"
    path.write_text("wire a @ Alice\ninit a = |0>\n\ngate sigma00 a @ Bob\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == f"everettsim: {path}: line 4: Bob cannot act on wire 'a' held by Alice\n"


def test_repeated_pointer_wire_exits_two_with_position(capsys, tmp_path):
    path = tmp_path / "f.ecirc"
    path.write_text("wire a @ Alice\ninit a = |0>\nassert pointer a a = 00\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"everettsim: {path}: line 3, column 18: pointer wires must differ (expected a different label)\n"
    )


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


@pytest.mark.parametrize("argv,events", [
    (("superdense", "--p", "1", "--q", "1"), ["Init", "Gate", "Transfer", "Gate", "Decompose"]),
    (("teleport", "--alpha", "0.6,0", "--beta", "0,0.8"),
     ["Init", "Gate", "Transfer", "Transfer", "Gate"]),
], ids=["superdense", "teleport"])
def test_json_trace_records_have_event_and_seq(capsys, argv, events):
    _, out, _ = run_cli(capsys, *argv, "--json", "--trace")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["event"] for r in records] == events + ["Summary"]
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


@pytest.mark.parametrize("tol", ["inf", "1", "2.5", "0.9", "1e-5"])
def test_everett_tol_above_the_bound_exits_two(capsys, monkeypatch, tol):
    monkeypatch.setenv("EVERETT_TOL", tol)
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "1,0", "--beta", "0,0"])
    assert exc.value.code == 2
    assert_one_error_line(capsys.readouterr().err)


# float() reads each of these, "1_0e-9" as 1e-8, but none is an ASCII
# decimal literal
@pytest.mark.parametrize("tol", [" 1e-9 ", "1e-9\n", "1_0e-9", "١e-9", "1e-٩"])
def test_everett_tol_that_is_no_decimal_literal_exits_two(capsys, monkeypatch, tol):
    monkeypatch.setenv("EVERETT_TOL", tol)
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "1,0", "--beta", "0,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("everettsim: bad EVERETT_TOL")


@pytest.mark.parametrize("tol", ["+1e-9", "1E-9", ".5e-7", "1e-6", "0.000001"])
def test_everett_tol_takes_every_decimal_literal_in_range(capsys, monkeypatch, tol):
    monkeypatch.setenv("EVERETT_TOL", tol)
    code, _, err = run_cli(capsys, "teleport", "--alpha", "1,0", "--beta", "0,0")
    assert (code, err) == (0, "")


def test_everett_tol_cannot_pass_a_wrong_factor(capsys, monkeypatch, tmp_path):
    # fidelity 0.1, so only a tolerance of 0.9 or more would pass it
    path = tmp_path / "wrong.ecirc"
    path.write_text(
        "wire b @ Bob\ninit b = |0>\nassert factor b ~ (1,0) |0> + (3,0) |1>\n", encoding="utf-8"
    )
    monkeypatch.setenv("EVERETT_TOL", "0.9")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "everettsim: EVERETT_TOL must lie in (0, 1e-6], got '0.9'\n"
    monkeypatch.setenv("EVERETT_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 1 and "FAIL" in out


def test_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.ecirc"
    path.write_bytes("wire c @ Alice # café\n".encode("latin-1"))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "not UTF-8" in err


@pytest.mark.parametrize("verb", ["run", "render"])
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, verb):
    plain = fixture_file(tmp_path, fixtures.TELEPORT)
    marked = tmp_path / "marked.ecirc"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    want = run_cli(capsys, verb, plain)
    assert want[0] == 0
    assert run_cli(capsys, verb, str(marked)) == want


def test_verify_output_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out == (GOLDEN / "verify.txt").read_text(encoding="utf-8")


def child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports the package this suite imports."""
    src = str(Path(everettsim.__file__).parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def test_python_m_everettsim_verify_matches_golden():
    done = subprocess.run(
        [sys.executable, "-m", "everettsim", "verify"], capture_output=True, text=True,
        env=child_env(),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (GOLDEN / "verify.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("verb", ["run", "render"])
def test_a_reader_that_stops_early_gets_no_traceback(tmp_path, verb):
    # 5,000 assertions print far more than a pipe buffers, so the write that
    # finds the pipe closed happens while the command is still printing
    lines = [f"wire w{i} @ Alice" for i in range(3)] + [f"init w{i} = |0>" for i in range(3)]
    path = tmp_path / "long.ecirc"
    path.write_text("\n".join(lines + ["assert factor w0 ~ |0>"] * 5000) + "\n", encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "everettsim", verb, str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(), err) == (1, b"")


def test_output_the_encoding_cannot_write_exits_two_with_one_line(tmp_path):
    # the diagram's σ and box-drawing characters have no latin-1 encoding
    done = subprocess.run(
        [sys.executable, "-m", "everettsim", "render", fixture_file(tmp_path, fixtures.TELEPORT)],
        capture_output=True, text=True, env=child_env(PYTHONIOENCODING="latin-1"),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "everettsim: cannot write the output in the latin-1 encoding\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no preexec_fn on this platform")
def test_running_out_of_memory_exits_one_with_one_line(tmp_path):
    # a 22-wire state takes 64 MiB, and its inits and the gate hold two or
    # three at once; one OpenBLAS thread keeps the interpreter with numpy
    # near 100 MiB of address space, whatever the core count
    import resource

    lines = [f"wire w{i} @ Alice" for i in range(22)] + [f"init w{i} = |0>" for i in range(22)]
    path = tmp_path / "wide.ecirc"
    path.write_text("\n".join(lines + ["gate cu_meas w0 w1 w2 w3 @ Alice"]) + "\n", encoding="utf-8")
    limit = 200 << 20
    done = subprocess.run(
        [sys.executable, "-m", "everettsim", "run", str(path)],
        capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"),
        # in the child only, between fork and exec
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert_one_error_line(done.stderr)
    assert done.stderr.startswith(f"everettsim: {path}: line ")
    assert "Unable to allocate" in done.stderr


@pytest.mark.parametrize("alpha,beta,bob", [
    ("1e-200,0", "0,0", "(1.000000000000,0.000000000000) |0> + (0.000000000000,0.000000000000) |1>"),
    ("1e160,0", "0,1e160", "(0.707106781187,0.000000000000) |0> + (0.000000000000,0.707106781187) |1>"),
    ("1e100,0", "0,0", "(1.000000000000,0.000000000000) |0> + (0.000000000000,0.000000000000) |1>"),
    ("1e308,0", "1e308,0", "(0.707106781187,0.000000000000) |0> + (0.707106781187,0.000000000000) |1>"),
    # subnormal, but the gates' halves of it stay exact
    ("1e-320,0", "0,0", "(1.000000000000,0.000000000000) |0> + (0.000000000000,0.000000000000) |1>"),
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


@pytest.mark.parametrize("alpha,beta", [("5e-324,0", "0,5e-324")])
def test_teleport_past_the_float_range_exits_one_with_one_line(capsys, alpha, beta):
    # halving the smallest subnormal rounds, so the norm check fails
    code, out, err = run_cli(capsys, "teleport", "--alpha", alpha, "--beta", beta)
    assert (code, out) == (1, "")
    assert_one_error_line(err)
    assert err == (
        "everettsim: gate cu_meas did not preserve the norm: the amplitudes lie below what the "
        "evolution can carry without rounding (largest part 4.9e-324, smallest normal float "
        "2.2e-308)\n"
    )


def test_teleport_prints_no_negative_zero(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--alpha=1,0", "--beta=-1e-14,0")
    assert code == 0
    assert "-0.000000000000" not in out
    # the input echo shows the nonzero part fmt12 would print as zeros
    assert "beta=(-1.000000000000e-14,0.000000000000)" in out
    assert "+ (0.000000000000,0.000000000000) |1>" in out


def test_run_past_the_wire_limit_fails_before_allocating(capsys, tmp_path, small_wire_limit):
    n = small_wire_limit + 1
    lines = [f"wire w{i} @ Alice" for i in range(n)] + [f"init w{i} = |0>" for i in range(n)]
    path = tmp_path / "wide.ecirc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    # running the inits before the bound check would build a state of 2**16
    # amplitudes, 1 MiB, and a product as large
    assert traced_peak() < 2**20
    assert (code, out) == (1, "")
    assert_one_error_line(err)
    # the init past the bound is on line 2n
    assert f"line {2 * n}: initializes wire {n}" in err


@pytest.mark.parametrize("wires,init,tail,message", [
    ("xyz", "(1e150,0) |0> + (1e150,0) |1>", "",
     "line 6: tensor product overflows the float range"),
    ("xy", "(1e-200,0) |0> + (0,0) |1>", "gate sigma00 x @ Alice",
     "line 4: tensor product of nonzero factors rounds to the zero vector"),
    ("xy", "(1e-200,0) |0> + (0,0) |1>", "assert factor x ~ |0>",
     "line 4: tensor product of nonzero factors rounds to the zero vector"),
], ids=["overflow", "underflow-then-gate", "underflow-then-assert"])
def test_run_names_the_init_whose_product_leaves_the_float_range(
    capsys, tmp_path, wires, init, tail, message
):
    lines = [f"wire {w} @ Alice" for w in wires] + [f"init {w} = {init}" for w in wires]
    path = tmp_path / "range.ecirc"
    path.write_text("\n".join(lines + [tail]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert_one_error_line(err)
    assert err == f"everettsim: {path}: {message}\n"


@pytest.mark.parametrize("golden,argv", [
    ("superdense_trace.txt", ("superdense", "--p", "0", "--q", "1", "--trace")),
    ("superdense_trace_json.txt", ("superdense", "--p", "0", "--q", "1", "--trace", "--json")),
    ("teleport_trace.txt", ("teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--trace")),
    ("teleport_trace_json.txt",
     ("teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--trace", "--json")),
    ("superdense_run_json.txt", ("run", fixtures.SUPERDENSE, "--json")),
    ("teleport_run_json.txt", ("run", fixtures.TELEPORT, "--json")),
])
def test_output_matches_golden(capsys, tmp_path, golden, argv):
    if argv[0] == "run":
        argv = ("run", fixture_file(tmp_path, argv[1]), *argv[2:])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("flag,value", [("--beta", "-1,0"), ("--alpha", "-.5,0.25")])
def test_negative_amplitude_as_a_separate_argument(capsys, flag, value):
    other = "--alpha" if flag == "--beta" else "--beta"
    code, out, err = run_cli(capsys, "teleport", other, "1,0", flag, value, "--trace")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "teleport", other, "1,0", f"{flag}={value}", "--trace") == (0, out, "")


@pytest.mark.parametrize("beta", ["-1,0", "0,1"])
def test_abbreviated_flags_exit_two(capsys, beta):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--al", "1,0", "--be", beta])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("the following arguments are required: --alpha, --beta")


def test_teleport_matches_golden_over_many_inputs(capsys):
    # each case is a `$ everettsim <argv>` line followed by its stdout
    golden = (GOLDEN / "teleport_cases.txt").read_text(encoding="utf-8")
    commands = [line.split()[2:] for line in golden.splitlines() if line.startswith("$ ")]
    assert len(commands) == 96
    got = []
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        got.append(f"$ everettsim {' '.join(argv)}\n{out}")
    assert "".join(got) == golden


def test_negative_nan_amplitude_as_a_separate_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "1,0", "--beta", "-nan,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("argument --beta: non-finite amplitude '-nan,0'")


def test_non_numeric_amplitude_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "x,0", "--beta", "1,0"])
    assert exc.value.code == 2
    # argparse prints its usage line first, as the README says
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: everettsim teleport")
    assert error == "everettsim teleport: error: argument --alpha: non-numeric amplitude 'x,0'"


@pytest.mark.parametrize("source,message", [
    ("wire c @ Alice\nwire a @ Alice\ngate cu_sigma c c a @ Alice\n",
     "line 3, column 17: repeated operand 'c' (expected distinct wires)"),
    ("wire E1 @ Bob\nassert weight E1 = 0\n",
     "line 2, column 8: unknown assertion 'weight' (expected 'pointer' or 'factor')"),
    ("wire c @ Alice\ninit c = (1,0) |0> + x |1>\n",
     "line 2, column 22: 'x' is not an amplitude (expected (re,im))"),
    ("wire c @ Alice\ninit c = (1,zero) |0> + (0,0) |1>\n",
     "line 2, column 10: non-numeric amplitude '(1,zero)' (expected (re,im) with decimal parts)"),
])
def test_parse_error_exits_two_with_its_message(capsys, tmp_path, source, message):
    path = tmp_path / "bad.ecirc"
    path.write_text(source, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err == f"everettsim: {path}: {message}\n"


def test_init_pair_on_an_initialized_wire_exits_one(capsys, tmp_path):
    path = tmp_path / "twice.ecirc"
    path.write_text(
        "wire a @ Alice\nwire b @ Bob\ninit a = |0>\ninit pair a b = bell 0 0\n", encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == f"everettsim: {path}: line 4: wire 'a' initialized twice\n"


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.mark.parametrize("target,gate,argv,message", [
    # a Hadamard on E1 after the measurement splits the pointer in two
    ("cu_meas", UnitaryGate(4, np.kron(HADAMARD, np.eye(8)) @ cu_meas().matrix, "cu_meas"),
     ("superdense", "--p", "0", "--q", "1"), "expected one pointer branch, got ['00', '10']"),
    # a measurement that never moves the pointer reads 00 for every input
    ("cu_meas", UnitaryGate(4, np.eye(16), "cu_meas"), ("superdense", "--p", "0", "--q", "0"),
     "decode table is not a bijection: "
     "[((0, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0))]"),
    # without Bob's correction his wire stays entangled with the pointer
    ("u_b_decoder", UnitaryGate(3, np.eye(8), "u_b"),
     ("teleport", "--alpha", "0.6,0", "--beta", "0,0.8"),
     "final state is not a product across the b cut (rank 2)"),
])
def test_runner_self_check_exits_one(capsys, monkeypatch, target, gate, argv, message):
    assert run_cli(capsys, *argv)[0] == 0  # the real gate passes the check
    # the DSL gate that `target` builds now builds the tampered one
    name = next(key for key, spec in GATES.items() if spec.build is getattr(gates, target))
    monkeypatch.setitem(GATES, name, GATES[name]._replace(build=lambda: gate))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"everettsim: {message}\n"
