"""Seeded `.ecirc` programs for the `wide` and `long` workloads.

Every program is built from the workload seed and an index, so the same seed
gives the same programs. Alongside the source text each program carries what
a correct run must produce, worked out here from the physics and never from
the simulator: Bob's teleported qubit, each superdense pointer label, the
number of trace events and the number of rendered rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Pointer label Bob's instrument shows for each encoded pair (p, q): expanding
# the encoded pair in the Bell basis swaps the 01 and 10 labels.
DECODE = {(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (1, 1)}

WIDE_TELEPORTS = 2
WIDE_SUPERDENSE = 1
WIDE_WIRES = 20
LONG_STATEMENTS = 4000


@dataclass
class Program:
    source: str
    teleports: list[tuple[str, complex, complex]] = field(default_factory=list)
    pointers: list[tuple[str, str, tuple[int, int]]] = field(default_factory=list)
    asserts: int = 0
    events: int = 0
    rows: int = 0
    statements: int = 0


def _amp(z: complex) -> str:
    return f"({float(z.real)!r},{float(z.imag)!r})"


def _ket(a0: complex, a1: complex) -> str:
    return f"{_amp(a0)} |0> + {_amp(a1)} |1>"


def _random_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    x = rng.standard_normal(4)
    norm = float(np.sqrt((x**2).sum()))
    return complex(x[0], x[1]) / norm, complex(x[2], x[3]) / norm


class _Builder:
    """Collects one program: declarations, inits, per-instance step queues."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.prog = Program("")
        self.decls: list[str] = []
        self.inits: list[str] = []
        self.queues: list[list[tuple[str, str | None, str | None]]] = []
        self.home: dict[str, str] = {}

    def wire(self, label: str, agent: str) -> None:
        self.decls.append(f"wire {label} @ {agent}")
        self.home[label] = agent
        self.prog.rows += 1

    def teleport(self, tag: str) -> None:
        e1, e2, u, a, b = (f"{tag}_{w}" for w in ("E1", "E2", "u", "a", "b"))
        for w in (e1, e2, u, a):
            self.wire(w, "Alice")
        self.wire(b, "Bob")
        alpha, beta = _random_qubit(self.rng)
        self.inits += [f"init {e1} = |0>", f"init {e2} = |0>", f"init {u} = {_ket(alpha, beta)}",
                       f"init pair {a} {b} = bell 0 0"]
        self.queues.append([
            (f"gate cu_meas {e1} {e2} {u} {a} @ Alice", None, None),
            (f"transfer {e1} -> Bob", e1, "Bob"),
            (f"transfer {e2} -> Bob", e2, "Bob"),
            (f"gate u_b {e1} {e2} {b} @ Bob", None, None),
            (f"assert factor {b} ~ {_ket(alpha, beta)}", None, None),
        ])
        self.prog.teleports.append((b, alpha, beta))
        self.prog.asserts += 1
        self.prog.events += 4 + 4  # inits, then two gates and two transfers
        self.prog.rows += 2

    def superdense(self, tag: str) -> None:
        c, d, a, b, e1, e2 = (f"{tag}_{w}" for w in ("c", "d", "a", "b", "E1", "E2"))
        for w in (c, d, a):
            self.wire(w, "Alice")
        for w in (b, e1, e2):
            self.wire(w, "Bob")
        p, q = (int(v) for v in self.rng.integers(0, 2, size=2))
        label = DECODE[(p, q)]
        self.inits += [f"init {c} = |{p}>", f"init {d} = |{q}>", f"init pair {a} {b} = bell 0 0",
                       f"init {e1} = |0>", f"init {e2} = |0>"]
        self.queues.append([
            (f"gate cu_sigma {c} {d} {a} @ Alice", None, None),
            (f"transfer {a} -> Bob", a, "Bob"),
            (f"gate cu_meas {e1} {e2} {a} {b} @ Bob", None, None),
            (f"assert pointer {e1} {e2} = {label[0]}{label[1]}", None, None),
        ])
        self.prog.pointers.append((e1, e2, label))
        self.prog.asserts += 1
        self.prog.events += 5 + 4  # inits, then two gates, a transfer, a decompose
        self.prog.rows += 1

    def spectator(self, tag: str) -> None:
        agent = "Alice" if self.rng.integers(0, 2) else "Bob"
        self.wire(tag, agent)
        self.inits.append(f"init {tag} = {_ket(*_random_qubit(self.rng))}")
        p, q = (int(v) for v in self.rng.integers(0, 2, size=2))
        self.queues.append([(f"gate sigma{p}{q} {tag} @ {agent}", None, None)])
        self.prog.events += 2

    def steps(self) -> list[tuple[str, str | None, str | None]]:
        """Interleave the instances' step queues in a seeded order."""
        queues = [list(q) for q in self.queues]
        out = []
        while queues:
            i = int(self.rng.integers(0, len(queues)))
            out.append(queues[i].pop(0))
            if not queues[i]:
                queues.pop(i)
        return out

    def finish(self, lines: list[str]) -> Program:
        order = self.rng.permutation(len(self.inits))
        body = self.decls + [self.inits[i] for i in order] + lines
        self.prog.source = "\n".join(body) + "\n"
        self.prog.statements = len(body) - len(self.decls)
        self.prog.rows += 2  # the Alice and Bob bars
        return self.prog


def wide_program(seed: int, index: int) -> Program:
    """Parallel teleport and superdense instances on WIDE_WIRES wires.

    Every wire is initialised before the first gate, so each gate and each
    assertion works on the full 2^WIDE_WIRES state. Wires not used by a
    protocol are spectators in seeded states, each hit by one seeded sigma.
    """
    b = _Builder(np.random.default_rng([seed, 1, index]))
    for i in range(WIDE_TELEPORTS):
        b.teleport(f"t{i}")
    for i in range(WIDE_SUPERDENSE):
        b.superdense(f"s{i}")
    for i in range(WIDE_WIRES - 5 * WIDE_TELEPORTS - 6 * WIDE_SUPERDENSE):
        b.spectator(f"x{i}")
    return b.finish([text for text, _, _ in b.steps()])


def long_program(seed: int, index: int) -> Program:
    """One teleport and one superdense on 11 wires, about LONG_STATEMENTS statements.

    The protocol steps are padded with adjacent pairs of the self-inverse
    gates sigma00 and sigma11, each acting on a seeded wire as the agent
    holding it at that point, so every assertion still holds.
    """
    b = _Builder(np.random.default_rng([seed, 2, index]))
    b.teleport("t")
    b.superdense("s")
    steps = b.steps()
    fixed = len(b.inits) + len(steps)
    pairs = max(0, (LONG_STATEMENTS - fixed) // 2)
    slots = np.sort(b.rng.integers(0, len(steps) + 1, size=pairs))
    wires = list(b.home)
    where = dict(b.home)
    lines: list[str] = []
    k = 0
    for pos in range(len(steps) + 1):
        while k < pairs and slots[k] == pos:
            w = wires[int(b.rng.integers(0, len(wires)))]
            g = "sigma00" if b.rng.integers(0, 2) else "sigma11"
            lines += [f"gate {g} {w} @ {where[w]}"] * 2
            k += 1
        if pos < len(steps):
            text, moved, dest = steps[pos]
            lines.append(text)
            if moved is not None:
                where[moved] = dest
    b.prog.events += 2 * pairs
    return b.finish(lines)
