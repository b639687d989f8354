"""The repository's own tools, run as a user runs them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_code_lines_ends_quietly_when_its_reader_stops_early(tmp_path):
    # 3,000 lines print far more than a pipe buffers, so the write that
    # finds the pipe closed happens while the count is still printing
    module = tmp_path / "one.py"
    module.write_text("x = 1\n", encoding="utf-8")
    # leaving the block closes the stderr pipe too, and waits for the child
    with subprocess.Popen(
        [sys.executable, str(TOOLS / "code_lines.py")] + [str(module)] * 3000,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline().split() == [b"1", str(module).encode()]
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(), err) == (1, b"")


def test_wide_bits_prints_one_hash_per_program():
    out = subprocess.run(
        [sys.executable, str(TOOLS / "wide_bits.py"), "--seed", "1", "--count", "2"],
        capture_output=True, text=True, check=True,
    )
    lines = [line.split() for line in out.stdout.splitlines()]
    assert [index for index, _ in lines] == ["0", "1"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)
    # two programs of one seed end in different states
    assert lines[0][1] != lines[1][1]
    assert out.stderr == ""
