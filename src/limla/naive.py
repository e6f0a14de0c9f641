"""Reference engine: executes the definition literally, cell by cell.

Exists to be obviously correct; the linear engine is differentially
tested against it.  One rule freezes a cell for every mode: a visit
applies the written letter unless the cell's visit count has reached
``limit`` or the letter read is ``fixed`` (``CompiledAutomaton.fixed``:
the markers, and rank-d letters in ranked mode with d > 0).  ``limit``
is ``model.visit_limit``, which run_linear reads too.  Trace records
report markers as not frozen.

Loop detection is exact: a set of (position, state) pairs is cleared
whenever a cell's content actually changes.  Between content changes the
tape as seen by the transition function is constant, so a repeated pair
replays forever.  Visit counters still advance on no-change visits, but
they only gate whether writes stick, and every write in such a cycle
rewrites the letter that is already there, so the cycle is genuinely
infinite.  Termination without a budget follows: content changes are
bounded by the rewrite budget, and each change-free stretch is bounded by
(n + 2) * |Q| pairs.
"""
from __future__ import annotations

import sys

from .model import ACCEPT, LOOP_DETECTED, REJECT, RIGHT, visit_limit, word_indices
from .outcome import BudgetExceeded, RunOutcome


def run_naive(aut, word, *, trace: bool = False, max_steps: int | None = None) -> RunOutcome:
    """Run the machine on a word; requires validate_automaton(aut).ok.

    Always terminates: Accept on arriving at the right marker in an
    accepting state, Reject when the stretch detector fires.  A supplied
    max_steps raises BudgetExceeded instead of guessing a verdict; no step
    is taken when it is 0 or less.  The head starts on cell 1, so the move
    counts follow from the step count and the final position.
    """
    c = aut.compiled
    syms = word_indices(aut, word)
    n = len(syms)
    lo = c.n_letters
    width = c.width
    nq = c.n_states
    to_tab, wr_tab, mv_tab = c.to_tab, c.wr_tab, c.mv_tab
    accepting = c.accepting

    tape = [lo] + syms + [lo + 1]
    visits = [0] * (n + 2)

    fixed = c.fixed
    limit = visit_limit(aut, n)

    pos = 1
    state = c.start_idx
    steps = 0
    stretch = set()
    tr = [] if trace else None
    verdict = REJECT
    reason = None

    if n == 0 and accepting[state]:
        verdict = ACCEPT
    else:
        budget = range(sys.maxsize if max_steps is None else max_steps)
        for steps in budget:
            s = tape[pos]
            k = state * width + s
            v = visits[pos]
            frozen = v >= limit or fixed[s]
            w = s if frozen else wr_tab[k]
            if w != s:  # a write that sticks ends the stretch
                tape[pos] = w
                stretch.clear()
            else:
                key = pos * nq + state
                if key in stretch:
                    reason = LOOP_DETECTED
                    break
                stretch.add(key)
            visits[pos] = v + 1
            if tr is not None:
                tr.append((steps + 1, pos, state, s, w, mv_tab[k], frozen and s < lo))
            state = to_tab[k]
            if mv_tab[k] == RIGHT:
                pos += 1
                if pos > n and accepting[state]:
                    verdict = ACCEPT
                    steps += 1
                    break
            else:
                pos -= 1
        else:
            raise BudgetExceeded(len(budget))

    r_moves = (steps + pos - 1) // 2
    return RunOutcome(verdict, reason, steps, {"R": r_moves, "L": steps - r_moves}, tr)
