"""Output builders shared by the CLI and the verification suite.

Two parallel formats with identical numbers:

Text trace lines, one event per line, space separated fields; <seq> is the
event's index in the trace, as is a JSON trace record's "seq":

    <seq> Init wires=<w,...> at=<w:agent,...> state=<label>
    <seq> Gate name=<gate> wires=<w,...> actor=<agent>
    <seq> Transfer wire=<w> from=<agent> to=<agent>
    <seq> Decompose pointer=<w,...> branches=<label:raw:weight;...>

JSON mode emits one record per line; every record carries an "event" field
(trace events use their kind, result summaries use "Summary"). Floats are
fixed at 12 decimal places in text and rounded to 12 decimals in JSON.
"""

from __future__ import annotations

import json
from typing import Iterable

from .circuit import AssertionOutcome
from .protocols import (
    DecodeTable,
    DecomposeEvent,
    Event,
    GateEvent,
    InitEvent,
    SuperdenseResult,
    TeleportResult,
    TransferEvent,
)
from .state import PureState, dump_state, fmt12


def _jnum(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return round(value, 12) + 0.0
    if isinstance(value, list):
        return [_jnum(v) for v in value]
    if isinstance(value, dict):
        return {k: _jnum(v) for k, v in value.items()}
    return value


def json_line(record: dict) -> str:
    return json.dumps(_jnum(record))


def event_line(seq: int, event: Event) -> str:
    if isinstance(event, InitEvent):
        at = ",".join(f"{w}:{a}" for w, a in event.placements)
        return f"{seq} Init wires={','.join(event.wires)} at={at} state={event.state}"
    if isinstance(event, GateEvent):
        return f"{seq} Gate name={event.gate} wires={','.join(event.wires)} actor={event.actor}"
    if isinstance(event, TransferEvent):
        return f"{seq} Transfer wire={event.wire} from={event.source} to={event.dest}"
    if isinstance(event, DecomposeEvent):
        branches = ";".join(
            f"{label}:{fmt12(raw)}:{fmt12(weight)}" for label, raw, weight in event.branches
        )
        return f"{seq} Decompose pointer={','.join(event.pointer)} branches={branches}"
    raise TypeError(f"unknown event {event!r}")


def _amp_pair(a: complex) -> str:
    return f"({fmt12(a.real)},{fmt12(a.imag)})"


def _input_pair(a: complex) -> str:
    """An input amplitude as _amp_pair prints it, unless that hides or bloats a part.

    A nonzero part that would print as all zeros, and a part of 1e12 or more,
    print in exponent form with 12 digits after the point.
    """
    parts = []
    for x in (a.real, a.imag):
        text = fmt12(x)
        parts.append(f"{x:.12e}" if (x and text == "0.000000000000") or abs(x) >= 1e12 else text)
    return f"({parts[0]},{parts[1]})"


def _input_json(a: complex) -> list[float]:
    # a nonzero part that rounding at 12 places would zero is echoed as given
    return [x if x and not round(x, 12) else _jnum(x) for x in (a.real, a.imag)]


def _trace_records(events: Iterable[Event]) -> list[str]:
    """One JSON record per event, its index in the trace as its "seq"."""
    return [json_line({"event": e.kind, "seq": i, **e.record()}) for i, e in enumerate(events)]


def _trace_lines(events: Iterable[Event], final_state: PureState) -> list[str]:
    lines = ["trace:"]
    lines += [event_line(i, e) for i, e in enumerate(events)]
    lines.append("final state:")
    lines += dump_state(final_state).splitlines()
    return lines


def superdense_lines(
    result: SuperdenseResult, table: DecodeTable, json_mode: bool, trace: bool
) -> list[str]:
    branches = result.decomposition.branches
    if json_mode:
        lines = _trace_records(result.world.trace) if trace else []
        summary = {
            "event": "Summary",
            "verb": "superdense",
            "p": result.input[0],
            "q": result.input[1],
            "pointer": f"{result.pointer[0]}{result.pointer[1]}",
            "branch_count": result.branch_count,
            "branches": [
                {"label": b.label, "raw": b.raw_weight, "weight": b.weight} for b in branches
            ],
            "decode_table": {
                f"{i[0]}{i[1]}": f"{o[0]}{o[1]}" for i, o in table.entries
            },
            "table_is_identity": table.is_identity,
        }
        lines.append(json_line(summary))
        return lines
    lines = [
        f"input: p={result.input[0]} q={result.input[1]}",
        f"pointer: {result.pointer[0]}{result.pointer[1]}",
        f"branches: {result.branch_count}",
    ]
    for b in branches:
        lines.append(f"branch {b.label}: raw={fmt12(b.raw_weight)} weight={fmt12(b.weight)}")
    lines.append(
        "decode table: "
        + " ".join(f"{i[0]}{i[1]}->{o[0]}{o[1]}" for i, o in table.entries)
    )
    lines.append(
        "pointer label equals the encoded bits for every input: "
        + ("yes" if table.is_identity else "no (table is still a bijection Bob can invert)")
    )
    if trace:
        lines += _trace_lines(result.world.trace, result.final_state)
    return lines


def teleport_lines(result: TeleportResult, json_mode: bool, trace: bool) -> list[str]:
    alpha, beta = result.input
    b0, b1 = result.bob_qubit.amps
    if json_mode:
        lines = _trace_records(result.world.trace) if trace else []
        summary = {
            "event": "Summary",
            "verb": "teleport",
            "alpha": _input_json(alpha),
            "beta": _input_json(beta),
            "fidelity": _jnum(result.fidelity),
            "bob_qubit": _jnum([[b0.real, b0.imag], [b1.real, b1.imag]]),
            "schmidt_rank_b_cut": result.schmidt_rank_b_cut,
        }
        lines.append(json.dumps(summary))
        return lines
    lines = [
        f"input: alpha={_input_pair(alpha)} beta={_input_pair(beta)}",
        f"fidelity: {fmt12(result.fidelity)}",
        f"bob qubit: {_amp_pair(b0)} |0> + {_amp_pair(b1)} |1>",
        f"schmidt rank (b cut): {result.schmidt_rank_b_cut}",
    ]
    if trace:
        lines += _trace_lines(result.world.trace, result.world.state)
    return lines


def run_lines(outcomes: list[AssertionOutcome], json_mode: bool) -> list[str]:
    passed = sum(1 for o in outcomes if o.passed)
    failed = len(outcomes) - passed
    if json_mode:
        lines = [
            json_line(
                {
                    "event": "Assertion",
                    "line": o.line,
                    "kind": o.kind,
                    "passed": o.passed,
                    "detail": o.detail,
                }
            )
            for o in outcomes
        ]
        lines.append(
            json_line({"event": "Summary", "verb": "run", "passed": passed, "failed": failed})
        )
        return lines
    lines = [
        f"line {o.line} assert {o.kind}: {'PASS' if o.passed else 'FAIL'} ({o.detail})"
        for o in outcomes
    ]
    lines.append(f"assertions: {passed} passed, {failed} failed")
    return lines
