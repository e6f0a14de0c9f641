"""Reference engine: executes the definition literally, cell by cell.

Exists to be obviously correct; the linear engine is differentially
tested against it.  Loop detection is exact: a set of (position, state)
pairs is cleared whenever a cell's content actually changes.  Between
content changes the tape as seen by the transition function is constant,
so a repeated pair replays forever.  Visit counters still advance on
no-change visits, but they only gate whether writes stick, and every
write in such a cycle rewrites the letter that is already there, so the
cycle is genuinely infinite.  Termination without a budget follows:
content changes are bounded by the rewrite budget, and each change-free
stretch is bounded by (n + 2) * |Q| pairs.
"""
from __future__ import annotations

from .model import (
    ACCEPT, LOOP_DETECTED, RANKED, REJECT, RIGHT,
    d_of, word_indices,
)
from .outcome import BudgetExceeded, RunOutcome


def run_naive(aut, word, *, trace: bool = False, max_steps: int | None = None) -> RunOutcome:
    """Run the machine on a word; requires validate_automaton(aut).ok.

    Always terminates: Accept on arriving at the right marker in an
    accepting state, Reject when the stretch detector fires.  A supplied
    max_steps raises BudgetExceeded instead of guessing a verdict.
    """
    c = aut.compiled
    syms = word_indices(aut, word)
    n = len(syms)
    lo = c.n_letters
    width = c.width
    right_idx = lo + 1
    nq = c.n_states
    to_tab, wr_tab, mv_tab = c.to_tab, c.wr_tab, c.mv_tab
    accepting = c.accepting

    tape = [lo] + syms + [right_idx]
    visits = [0] * (n + 2)
    cell_writes = [0] * (n + 2)

    ranked = aut.mode == RANKED
    if ranked:
        d_k = aut.dlimit.k
        zero_d = d_k == 0
        frozen_rank = [r == d_k for r in c.ranks]
        d_n = d_k
    else:
        d_n = d_of(aut.dlimit, n)

    pos = 1
    state = c.start_idx
    steps = 0
    r_moves = l_moves = 0
    writes = 0
    last_write = 0
    stretch = set()
    tr = [] if trace else None
    verdict = None
    reason = None

    if tape[pos] == right_idx and accepting[state]:
        verdict = ACCEPT
    else:
        while True:
            if max_steps is not None and steps >= max_steps:
                raise BudgetExceeded(steps)
            s = tape[pos]
            k = state * width + s
            ns = to_tab[k]
            mv = mv_tab[k]
            # markers and frozen cells keep their letter: w = s
            if s >= lo:
                frozen = False
                w = s
            else:
                if ranked:
                    frozen = visits[pos] >= 1 if zero_d else frozen_rank[s]
                else:
                    frozen = visits[pos] >= d_n
                w = s if frozen else wr_tab[k]
            if w != s:  # a write that sticks ends the stretch
                tape[pos] = w
                writes += 1
                cell_writes[pos] += 1
                last_write = steps + 1
                stretch.clear()
            else:
                key = pos * nq + state
                if key in stretch:
                    verdict, reason = REJECT, LOOP_DETECTED
                    break
                stretch.add(key)
            if tr is not None:
                tr.append((steps + 1, pos, state, s, w, mv, frozen))
            visits[pos] += 1
            steps += 1
            state = ns
            if mv == RIGHT:
                pos += 1
                r_moves += 1
            else:
                pos -= 1
                l_moves += 1
            if tape[pos] == right_idx and accepting[state]:
                verdict = ACCEPT
                break

    return RunOutcome(
        verdict=verdict, reason=reason, steps=steps,
        moves={"R": r_moves, "L": l_moves},
        visits=visits, writes=writes, cell_writes=cell_writes,
        last_write_step=last_write, trace=tr,
    )

