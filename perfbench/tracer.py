"""Span tracing of everettsim's layers, installed from outside the package.

The package binds names at import time (`from .state import apply`), so a
wrapper only takes effect where a caller looks the name up. `install`
therefore rebinds every module attribute that still refers to an original
function, in every module of the package, and replaces
`PureState.__post_init__` on the class itself. The function it returns puts
every original back the same way. Nothing under `src/` changes.

Spans are folded into per-name totals as they close: a span's self time is
its duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> (module name, attribute names folded into that span)
SPANS = {
    "state.tensor": ("state", ("tensor",)),
    "state.apply": ("state", ("apply",)),
    "state.schmidt_factor": ("state", ("schmidt_factor",)),
    "state.branch_decompose": ("state", ("branch_decompose",)),
    "state.equal_up_to_phase": ("state", ("equal_up_to_phase",)),
    "protocols.run_teleport": ("protocols", ("run_teleport",)),
    "protocols.run_superdense": ("protocols", ("run_superdense",)),
    "protocols.derive_decode_table": ("protocols", ("derive_decode_table",)),
    "protocols.apply_local": ("protocols", ("apply_local",)),
    "circuit.parse_circuit": ("circuit", ("parse_circuit",)),
    "circuit.exec_circuit": ("circuit", ("exec_circuit",)),
    "render.render_ascii": ("render", ("render_ascii",)),
    "reports.lines": ("reports", ("superdense_lines", "teleport_lines", "run_lines")),
    "verify.run_all": ("verify", ("run_all",)),
}

# functions that append one event to the world's trace tuple, copying it;
# apply_local does too, and its span counts that
TRACE_APPENDERS = ("init_wires", "transfer", "decompose_pointer")

GATE_CONSTRUCTORS = ("sigma", "cu_sigma", "cu_meas", "u_b_decoder")

# spans whose every duration is kept, for per-call medians
SAMPLED = ("verify.run_all", *(f"verify.check{i}" for i in range(1, 10)))

# marks the stats line a traced child process writes last on stderr
STATS_MARK = "PERFBENCH-STATS "

# the line a workload writes on stdout to have `run.py` time a cold start
PROBE_REQUEST = "PERFBENCH-PROBE"


class Tracer:
    """Per-name span totals plus plain counters.

    `stats[name]` is `[calls, self_s]`; `samples[name]` keeps every span
    duration of the names in `SAMPLED`. `reset` starts fresh tables, so
    one process can trace two phases separately.
    """

    def __init__(self):
        self._open: list[float] = []  # time covered by children, per open span
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict:
        return {"stats": dict(self.stats), "samples": dict(self.samples), "counts": dict(self.counts)}

    def wrap(self, name: str, fn, before=None):
        clock = time.perf_counter
        open_spans = self._open
        keep = name in SAMPLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, *args)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += span - inner
                if keep:
                    self.samples[name].append(span)

        return traced

    def count(self, fn, hook):
        """Wrap `fn` to feed its arguments to `hook` without opening a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hook(self.counts, *args)
            return fn(*args, **kwargs)

        return counted


def _count_amps(counts, gate, targets, state):
    counts["state.apply.amps"] += 1 << state.n_wires


def _count_statements(counts, prog, *rest):
    counts["circuit.statements"] += len(prog.statements)


def _count_trace(counts, world, *rest):
    counts["protocols.trace_events.calls"] += 1
    counts["protocols.trace_events.copied"] += len(world.trace) + 1


def install(tracer: Tracer):
    """Wrap every traced function wherever the package looks it up.

    Returns a function that restores the originals, so that a process can
    alternate traced and untraced stretches.
    """
    import everettsim
    from everettsim import circuit, cli, gates, protocols, render, reports, state, verify

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (state, gates, protocols, circuit, render, reports, cli, verify)}
    everywhere = (everettsim, *modules.values())
    replaced: list[tuple[object, str, object]] = []

    def rebind(original, wrapper):
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # trace copies are counted without a span, so no self time moves
    for attr in TRACE_APPENDERS:
        original = getattr(protocols, attr)
        rebind(original, tracer.count(original, _count_trace))

    hooks = {"state.apply": _count_amps, "circuit.exec_circuit": _count_statements,
             "protocols.apply_local": _count_trace}
    for name, (module, attrs) in SPANS.items():
        for attr in attrs:
            original = getattr(modules[module], attr)
            rebind(original, tracer.wrap(name, original, hooks.get(name)))

    replaced.append((state.PureState, "__post_init__", state.PureState.__post_init__))
    state.PureState.__post_init__ = tracer.wrap("state.PureState", state.PureState.__post_init__)
    replaced.append((verify, "_CHECKS", verify._CHECKS))
    verify._CHECKS = tuple(
        (title, tracer.wrap(f"verify.check{i}", check))
        for i, (title, check) in enumerate(verify._CHECKS, start=1)
    )

    def restore() -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return restore


def gate_cache() -> tuple[int, int]:
    """Summed (hits, misses) of the cached gate constructors."""
    from everettsim import gates

    infos = [getattr(gates, name).cache_info() for name in GATE_CONSTRUCTORS]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
