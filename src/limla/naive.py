"""Reference engine: executes the definition literally, cell by cell.

Exists to be obviously correct; the linear engine is differentially
tested against it.  One rule freezes a cell for every mode: a visit
applies the written letter unless the letter read is ``fixed``
(``CompiledAutomaton.fixed``: the markers, and rank-d letters in ranked
mode with d > 0) or the cell's visit count has reached ``limit``.  The
step tests them in that order, so a visit to a fixed letter or a marker
reads no count; in ranked mode with d > 0, where ``limit`` is never
reached, ``fixed`` alone decides.  ``limit`` is ``model.visit_limit``,
which run_linear reads too.  A visit is counted only while the cell is
writable: once it is frozen nothing reads its count again, since either
its letter is fixed and never rewritten or the count has reached
``limit``.  Trace records report markers as not frozen.  The move is
tested as a truth value, which relies on the direction encoding pinned in
``model`` (RIGHT = 0, LEFT = 1).

Loop detection is exact: the stretch since the last content change is a
generation number, bumped by every write that sticks, and a stamp per
(state, position) pair holding the generation in which the pair was last
seen; a pair whose stamp equals the current generation is a repeat.
Between content changes the tape as seen by the transition function is
constant, so a repeated pair replays forever.  Visit counters still
advance on no-change visits to writable cells, but they only gate whether
writes stick, and every write in such a cycle rewrites the letter that is
already there, so the cycle is genuinely infinite.  Termination without a
budget follows: content changes are bounded by the rewrite budget, and
each change-free stretch is bounded by (n + 2) * |Q| pairs.

The stamps are one row per state, ``seen[state][pos]``, each row made on
its state's first stamp, so a no-change step does two subscripts and no
arithmetic.  One table of rows is kept between runs: a run takes it from
``_spare`` and hands it back when it ends, exception or not, so a
concurrent or re-entrant run finds none and makes its own.  Generations
keep counting across runs: a run starts one past the last generation its
table handed out, so a stamp left by an earlier run never equals the
current generation and nothing is cleared.  A run makes a fresh table
when its word needs longer rows or the generation has passed 2**30 (so a
generation stays a one-digit int), and the table is kept only while its
rows hold at most ``STAMP_SLOTS`` slots.

A run holds the tape and the visit counts, n + 2 slots each, and a row of
at least n + 2 slots for each state it stamps, besides the rows the kept
table held already; 8 bytes a slot, so (16 + 8 * r) bytes a cell on a
64-bit build for r rows made, at most |Q| of them.
"""
from __future__ import annotations

import sys

from .model import ACCEPT, LOOP_DETECTED, REJECT, tape_indices, visit_limit
from .outcome import BudgetExceeded, RunOutcome

STAMP_SLOTS = 1 << 14  # the most stamp slots a table may hold to be kept


class _Stamps:
    """A stamp table: ``rows[state]`` is None until the state's first stamp,
    then a row of ``length`` stamps, ``slots`` in all; ``gen`` is the last
    generation handed out."""
    __slots__ = ("gen", "length", "rows", "slots")

    def __init__(self, length: int):
        self.gen = 0
        self.length = length
        self.rows = []
        self.slots = 0


_spare: list[_Stamps] = []  # the kept table: a run pops it and appends it back


def run_naive(aut, word, *, trace: bool = False, max_steps: int | None = None) -> RunOutcome:
    """Run the machine on a word; requires validate_automaton(aut).ok.

    Always terminates: Accept on arriving at the right marker in an
    accepting state, Reject when the stretch detector fires.  A supplied
    max_steps raises BudgetExceeded instead of guessing a verdict; no step
    is taken when it is 0 or less.  The head starts on cell 1, so the move
    counts follow from the step count and the final position.
    """
    c = aut.compiled
    tape = tape_indices(aut, word)
    n = len(tape) - 2
    lo = c.n_letters
    width = c.width
    nq = c.n_states
    to_tab, wr_tab, mv_tab = c.to_tab, c.wr_tab, c.mv_tab
    accepting = c.accepting

    visits = [0] * (n + 2)

    fixed = c.fixed
    limit = visit_limit(aut, n)

    pos = 1
    state = c.start_idx
    steps = 0
    tr = [] if trace else None
    verdict = REJECT
    reason = None

    if n == 0 and accepting[state]:
        verdict = ACCEPT
    else:
        try:
            stamps = _spare.pop()
        except IndexError:
            stamps = None
        if stamps is None or stamps.length < n + 2 or stamps.gen > 2 ** 30:
            stamps = _Stamps(n + 2)
        seen = stamps.rows
        if len(seen) < nq:
            seen += [None] * (nq - len(seen))
        gen = stamps.gen + 1
        budget = range(sys.maxsize if max_steps is None else max_steps)
        try:
            for steps in budget:
                s = tape[pos]
                k = state * width + s
                if fixed[s]:
                    w = s
                else:
                    v = visits[pos]
                    if v < limit:
                        visits[pos] = v + 1
                        w = wr_tab[k]
                    else:
                        w = s
                if w != s:  # a write that sticks ends the stretch
                    tape[pos] = w
                    gen += 1
                else:
                    row = seen[state]
                    if row is None:
                        row = seen[state] = [0] * stamps.length
                        stamps.slots += stamps.length
                    if row[pos] == gen:
                        reason = LOOP_DETECTED
                        break
                    row[pos] = gen
                if tr is not None:
                    tr.append((steps + 1, pos, state, s, w, mv_tab[k],
                               s < lo if fixed[s] else v >= limit))
                state = to_tab[k]
                if mv_tab[k]:  # LEFT
                    pos -= 1
                else:
                    pos += 1
                    if pos > n and accepting[state]:
                        verdict = ACCEPT
                        steps += 1
                        break
            else:
                raise BudgetExceeded(len(budget))
        finally:
            stamps.gen = gen
            if stamps.slots <= STAMP_SLOTS:
                _spare.append(stamps)

    r_moves = (steps + pos - 1) // 2
    return RunOutcome(verdict, reason, steps, {"R": r_moves, "L": steps - r_moves}, tr)
