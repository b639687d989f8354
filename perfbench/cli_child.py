"""Run one `everettsim` CLI command with every layer traced.

Used in place of `python -m everettsim.cli` by the traced `cli` run. The
command's stdout and exit code are left as they are; the span totals, the
gate cache counts and the time spent inside `cli.main` go to stderr as the
last line, after a marker.

    python3 perfbench/cli_child.py superdense --p 0 --q 1
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from everettsim import cli  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:  # argparse reports usage errors this way
        code = stop.code if isinstance(stop.code, int) else 2
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    report = tracer.snapshot()
    report["cache"] = tracing.gate_cache()
    report["main_s"] = main_s
    sys.stderr.write(tracing.STATS_MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
