"""Run results, trace records and the regular-move projection.

In-memory traces are flat tuples for speed.  Both engines share the first
seven fields (step, pos, state, read, write, move, frozen), all symbol
and state fields as indices into the compiled machine; the linear engine
appends (case, merged_left, merged_right, seg_lo, seg_hi) where case is
0 = plain move, 1 = deletion scan, 2 = map jump.  Map jumps use -2 as
their read/write index.

The trace is where a run's per-cell writes are recorded: a write that
sticks is a record whose read and write differ, so an outcome keeps no
write counters of its own.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .model import ACCEPT, RIGHT


class BudgetExceeded(Exception):
    def __init__(self, steps: int):
        super().__init__(f"step budget exceeded after {steps} steps")
        self.steps = steps


@dataclass
class RunOutcome:
    verdict: str                 # "accept" | "reject"
    reason: str | None           # None | LOOP_DETECTED | MAP_LOOP
    steps: int
    moves: dict                  # per-kind move counters
    trace: list | None = None
    scans: int = 0
    compose_calls: int = 0       # compositions requested, memo hits included
    compose_walks: int = 0       # distinct (f, g) pairs this run requested, walked or not
    compose_edges_max: int = 0

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT


def regular_projection(aut, outcome: RunOutcome) -> list:
    """Index-form projection onto regular moves, initial configuration first.

    A step is regular when it is applied at a marker or at a cell that was
    still writable on arrival.  Both engines record every marker step with
    frozen = False (run_naive writes frozen and s < lo, run_linear's marker
    case False), and map jumps with frozen = True, so frozen alone is the
    filter for both engines' trace layouts.
    """
    if outcome.trace is None:
        raise ValueError("run was not recorded with trace enabled")
    recs = [(aut.compiled.start_idx, 1, -1, -1, -1)]
    for t in outcome.trace:
        if not t[6]:
            recs.append((t[2], t[1], t[3], t[4], t[5]))
    return recs


_CASES = ("amove", "scan", "mapjump")


def trace_records(aut, outcome: RunOutcome, engine: str):
    """Yield the JSON-ready step records followed by the final record."""
    c = aut.compiled

    def tok(i):
        return "[map]" if i == -2 else c.sym_names[i]

    for t in outcome.trace or ():
        rec = {
            "step": t[0], "pos": t[1], "state": aut.states[t[2]],
            "read": tok(t[3]), "write": tok(t[4]),
            "move": "R" if t[5] == RIGHT else "L", "frozen": bool(t[6]),
        }
        if engine == "linear":
            rec["case"] = _CASES[t[7]]
            if t[7] == 1:
                rec["merged_left"] = bool(t[8])
                rec["merged_right"] = bool(t[9])
                rec["segment"] = [t[10], t[11]]
        yield rec
    final = {
        "verdict": outcome.verdict,
        "reason": outcome.reason,
        "steps": outcome.steps,
    }
    if engine == "linear":
        final["compose_walks"] = outcome.compose_walks
    yield final


def write_trace(aut, outcome: RunOutcome, engine: str, fp) -> None:
    """Write the run as JSON lines to an open text file."""
    for rec in trace_records(aut, outcome, engine):
        fp.write(json.dumps(rec) + "\n")
