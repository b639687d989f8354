"""Deterministic ASCII diagrams for circuit programs.

One row per wire residence segment, time flowing left to right. Alice's
lanes sit above a labeled separator, Bob's below; a transferred wire leaves
its lane and re-enters on the other side of the separator. Control wires get
dots, gate targets get small labeled boxes, and every statement occupies one
column, so identical programs always render to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    GATES,
    AssertFactor,
    AssertPointer,
    CircuitProgram,
    GateStatement,
    InitKet,
    InitPair,
    TransferStatement,
)


@dataclass
class _Seg:
    wire: str
    agent: str
    start: int | None = None  # column where this residence begins (None = from the left edge)
    end: int | None = None  # column where it ends (None = to the right edge)
    row: int = -1

    def covers(self, col: int) -> bool:
        return (self.start is None or self.start <= col) and (self.end is None or col <= self.end)

    def covers_gap(self, gap: int) -> bool:
        # gap g sits immediately left of column g
        return (self.start is None or self.start <= gap - 1) and (self.end is None or self.end >= gap)


def _ket_cell(expr) -> str:
    return expr.text if expr.text in ("|0>", "|1>") else "|ψ>"


def render_ascii(prog: CircuitProgram) -> str:
    residence = {d.label: d.agent for d in prog.registers}
    segs = {d.label: [_Seg(d.label, d.agent)] for d in prog.registers}
    columns: list[tuple[str, object]] = []

    for stmt in prog.statements:
        if isinstance(stmt, TransferStatement):
            if residence[stmt.wire] == stmt.dest:
                continue  # a no-op move reroutes nothing
            col = len(columns)
            columns.append(("transfer", stmt))
            segs[stmt.wire][-1].end = col
            segs[stmt.wire].append(_Seg(stmt.wire, stmt.dest, start=col))
            residence[stmt.wire] = stmt.dest
        else:
            columns.append(("stmt", stmt))

    first = {w: s[0] for w, s in segs.items()}
    arrivals = sorted(
        (s for chain in segs.values() for s in chain if s.start is not None),
        key=lambda s: s.start,
    )
    alice_rows = [first[d.label] for d in prog.registers if d.agent == "Alice"]
    alice_rows += [s for s in arrivals if s.agent == "Alice"]
    bob_rows = [s for s in arrivals if s.agent == "Bob"]
    bob_rows += [first[d.label] for d in prog.registers if d.agent == "Bob"]

    # grid layout: top bar, Alice rows, separator bar, Bob rows
    for i, seg in enumerate(alice_rows):
        seg.row = 1 + i
    sep_row = 1 + len(alice_rows)
    for i, seg in enumerate(bob_rows):
        seg.row = sep_row + 1 + i
    n_rows = sep_row + 1 + len(bob_rows)

    def seg_at(wire: str, col: int) -> _Seg:
        hits = [s for s in segs[wire] if s.covers(col)]
        return hits[-1]

    # cells[(row, col)] = (text, left fill, right fill); fills of None follow coverage
    cells: dict[tuple[int, int], tuple[str, str | None, str | None]] = {}
    spans: list[tuple[int, int, int]] = []

    def put(row: int, col: int, text: str, left: str | None = None, right: str | None = None) -> None:
        cells[(row, col)] = (text, left, right)

    for col, (kind, stmt) in enumerate(columns):
        if kind == "transfer":
            src = next(s for s in segs[stmt.wire] if s.end == col)
            dst = next(s for s in segs[stmt.wire] if s.start == col)
            down = dst.row > src.row
            put(src.row, col, "╮" if down else "╯", "─", " ")
            put(dst.row, col, "╰" if down else "╭", " ", "─")
            spans.append((col, src.row, dst.row))
        elif isinstance(stmt, InitKet):
            put(seg_at(stmt.wire, col).row, col, _ket_cell(stmt.expr))
        elif isinstance(stmt, InitPair):
            rows = [seg_at(w, col).row for w in stmt.wires]
            for r in rows:
                put(r, col, f"Λ{stmt.x}{stmt.y}")
            spans.append((col, rows[0], rows[1]))
        elif isinstance(stmt, GateStatement):
            spec = GATES[stmt.name]
            rows = [seg_at(w, col).row for w in stmt.wires]
            for i in spec.controls:
                put(rows[i], col, "●")
            for i in spec.boxes:
                put(rows[i], col, f"[{spec.label}]")
            spans.append((col, min(rows), max(rows)))
        elif isinstance(stmt, AssertPointer):
            rows = [seg_at(w, col).row for w in stmt.wires]
            for r, b in zip(rows, stmt.bits):
                put(r, col, f"={b}?")
            spans.append((col, min(rows), max(rows)))
        elif isinstance(stmt, AssertFactor):
            put(seg_at(stmt.wire, col).row, col, f"~{_ket_cell(stmt.expr)}")

    widths = [1] * len(columns)
    for (_, col), (text, _, _) in cells.items():
        widths[col] = max(widths[col], len(text))

    label_w = max((len(d.label) for d in prog.registers), default=0) + 1
    content_start = label_w + 1
    chunk_starts = []
    x = content_start
    for w in widths:
        chunk_starts.append(x)
        x += 2 + w
    total = max(x + 2, content_start + 6, 12)

    def spine(col: int) -> int:
        return chunk_starts[col] + 2 + (widths[col] - 1) // 2

    def bar(label: str, fill: str) -> list[str]:
        row = [fill] * total
        text = f" {label} "
        row[2 : 2 + len(text)] = list(text)
        return row

    grid: list[list[str]] = [[" "] * total for _ in range(n_rows)]
    grid[0] = bar("Alice", "═")
    grid[sep_row] = bar("Bob", "╌")

    all_segs = alice_rows + bob_rows
    for seg in all_segs:
        row = grid[seg.row]
        row[: label_w + 1] = list(f"{seg.wire:>{label_w}} ")
        for col in range(len(columns)):
            gap_fill = "─" if seg.covers_gap(col) else " "
            cstart = chunk_starts[col]
            row[cstart : cstart + 2] = [gap_fill, gap_fill]
            cell_start = cstart + 2
            w = widths[col]
            if (seg.row, col) in cells:
                text, left, right = cells[(seg.row, col)]
                base = "─" if seg.covers(col) else " "
                lfill = left if left is not None else base
                rfill = right if right is not None else base
                tstart = cell_start + (w - len(text)) // 2
                for i in range(cell_start, tstart):
                    row[i] = lfill
                row[tstart : tstart + len(text)] = list(text)
                for i in range(tstart + len(text), cell_start + w):
                    row[i] = rfill
            else:
                fill = "─" if seg.covers(col) else " "
                row[cell_start : cell_start + w] = [fill] * w
        tail = "─" if seg.covers_gap(len(columns)) else " "
        tail_start = chunk_starts[-1] + 2 + widths[-1] if columns else content_start
        for i in range(tail_start, total):
            row[i] = tail

    for col, ra, rb in spans:
        lo, hi = sorted((ra, rb))
        x = spine(col)
        for r in range(lo + 1, hi):
            ch = grid[r][x]
            if ch == "─":
                grid[r][x] = "┼"
            elif ch in (" ", "╌", "═"):
                grid[r][x] = "│"

    return "\n".join("".join(row).rstrip() for row in grid)
