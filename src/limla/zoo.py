"""Concrete machines covering every mode and complexity regime, parsed from
their documents in machines/, plus a seeded generator for differential fuzzing."""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

from . import fmt
from .model import (
    Automaton, DLimit, Transition,
    COUNTED, LEFT_MARKER, RANKED, RIGHT_MARKER, dlimit_error,
)
from .rng import SplitMix64


_MACHINES = Path(__file__).resolve().parents[2] / "machines"


def _load(name: str) -> Automaton:
    return fmt.parse_machine((_MACHINES / f"{name}.limla").read_text(encoding="utf-8"))


def build_anbn() -> Automaton:
    """Ranked d=2 shuttle recognizing words of a's followed by as many b's.

    Marks the leftmost unmatched b, walks left to the nearest once-visited
    a and marks it, walks right to the next unmatched b, and so on; at the
    right marker it sweeps back to check that no once-visited a survived.
    Matching the k-th pair walks across the whole matched block, so the
    step count grows quadratically.  Invalid words fall into a bouncing
    trap state.  Letters: a, b are input; a1 is a once-visited a; A and B
    are matched (frozen) marks.  States:

    - start: classifies the first cell; accepting, for the empty word,
      whose run starts directly on the right marker.
    - scan_a: the first sweep right over the leading a's.
    - match_a: walks left through the matched block to the nearest unmatched a.
    - seek_b: walks right through the matched block to the next unmatched b.
    - verify: sweeps back to the left marker checking for leftover a1's.
    - finish: all matched; returns to the right marker, accepting.
    - trap: rejection, a bounce between the right marker and the last cell.
    """
    return _load("anbn")


def build_even_a_2dfa() -> Automaton:
    """Ranked d=0 parity machine: accepts words with an even number of a's.

    With d = 0 every write equals the read and a cell freezes after its
    first visit, so this is a plain two-way DFA; the linear engine folds
    the whole interior into one map during the single forward sweep.
    """
    return _load("even_a")


def build_bouncer() -> Automaton:
    """Loop-detection fixture: one state, runs right to the end marker and
    back forever, never accepting.  Counted mode with a budget large enough
    that no cell freezes before the reference detector fires."""
    return _load("bouncer")


def build_sweeper() -> Automaton:
    """Counted machine with d(n) = n: sweeps end to end, toggling every
    cell each visit until all cells freeze, then keeps sweeping until the
    loop detector fires.  Each cell is written exactly n times."""
    return _load("sweeper")


ZOO = {
    "anbn": build_anbn,
    "even_a": build_even_a_2dfa,
    "bouncer": build_bouncer,
    "sweeper": build_sweeper,
}


@dataclass(frozen=True)
class GenParams:
    """Knobs for the seeded machine generator; the seed fully determines
    the output machine."""

    state_count: int
    seed: int
    mode: str = RANKED
    dlimit: DLimit = DLimit.const(2)
    input_alphabet_size: int = 2
    tape_per_rank: int = 1


INPUT_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Most transitions (one per state and symbol) random_automaton draws: ranked
# mode adds a tape letter per rank, so d alone could exhaust memory.
MAX_TRANSITIONS = 1 << 16

# What generated machines repeat, shared by all of them (records and tuples
# are immutable): one Transition per distinct (to_state, write, move), and
# one tuple of (state, symbol) keys per machine shape (state count, tape), in
# draw order.  The cap counts the records plus the keys of every tuple.  A
# machine could add a record per transition and a tuple of its shape, so one
# whose draw could pass the cap empties both tables first, as the shadow memo
# does, and one that alone could pass it keeps tables of its own.  At the cap
# the tables hold at most about 10 MB (tracemalloc, CPython 3.11: a record
# with its triple and table slot takes 160 bytes, a key 64).
SHARED_SLOTS = 1 << 16
_RECORDS: dict = {}     # (to_state, write, move) -> its Transition
_KEYS: dict = {}        # (state count, tape) -> the machine's delta keys

_MOVES = ("R", "L")     # a move draw: even is right, odd is left


def symbol_count(p: GenParams) -> int:
    """Tape letters plus the two markers of the machine p generates."""
    ranks = p.dlimit.k if p.mode == RANKED else 1
    return p.input_alphabet_size + ranks * p.tape_per_rank + 2


def _shared_tables(states: tuple, tape: tuple) -> tuple:
    """The record table a machine of these states and tape looks its
    transitions up in, and its delta keys, both under SHARED_SLOTS."""
    records, keys_of = _RECORDS, _KEYS
    cost = 2 * len(states) * (len(tape) + 2)
    if cost > SHARED_SLOTS:
        records, keys_of = {}, {}
    elif len(records) + sum(map(len, keys_of.values())) + cost > SHARED_SLOTS:
        records.clear()
        keys_of.clear()
    shape = (len(states), tape)
    keys = keys_of.get(shape)
    if keys is None:
        syms = tape + (LEFT_MARKER, RIGHT_MARKER)
        keys = keys_of[shape] = tuple((q, s) for q in states for s in syms)
    return records, keys


def random_automaton(p: GenParams) -> Automaton:
    """Seed-deterministic machine, valid by construction.

    Every transition is drawn uniformly among the choices that are legal
    for the symbol being read; each tape letter's write choices (the
    letters of higher rank in ranked mode, every tape letter in counted
    mode) are one table built once per machine.  Draw order is pinned
    (accepting bits per state, then per state: for each tape letter in
    declaration order the target state, the written letter where the table
    gives a choice and the move, then the targets of the left and right
    markers), so a seed reproduces the same machine everywhere.  The
    machine takes exactly the draws it reads, in one take(), and reduces
    them by one state's list of moduli.  The generated names (q0, ...,
    x1_0, ..., y0, ...) are interned, and the Transition records and delta
    key tuples are shared across machines (SHARED_SLOTS), so all machines
    hold one string per name, one record per distinct transition and one
    key tuple per (state, symbol) of a shape.
    """
    if p.state_count < 1 or p.input_alphabet_size < 1 or p.tape_per_rank < 1:
        raise ValueError("all generator counts must be >= 1")
    if p.input_alphabet_size > len(INPUT_LETTERS):
        raise ValueError("input alphabet too large")
    err = dlimit_error(p.mode, p.dlimit)
    if err:
        raise ValueError(err)
    if p.mode not in (RANKED, COUNTED):
        raise ValueError(f"unknown mode {p.mode!r}")
    if p.state_count * symbol_count(p) > MAX_TRANSITIONS:
        raise ValueError(f"the machine would have over {MAX_TRANSITIONS} transitions")

    states = tuple(sys.intern(f"q{i}") for i in range(p.state_count))
    input_syms = tuple(INPUT_LETTERS[:p.input_alphabet_size])
    ranks: dict = {}
    tape = list(input_syms)
    if p.mode == RANKED:
        d = p.dlimit.k
        for tok in input_syms:
            ranks[tok] = 0
        for r in range(1, d + 1):
            for j in range(p.tape_per_rank):
                tok = sys.intern(f"x{r}_{j}")
                tape.append(tok)
                ranks[tok] = r
    else:
        for j in range(p.tape_per_rank):
            tape.append(sys.intern(f"y{j}"))
    tape = tuple(tape)
    # each letter's write choices; None for a rank-d letter, rewritten as itself
    if p.mode == RANKED:
        writes = [tuple(t for t in tape if ranks[t] > ranks[s]) if ranks[s] < d else None
                  for s in tape]
    else:
        writes = [tape] * len(tape)

    # one state's moduli: per letter the target, the write where the table
    # gives a choice and the move, then the two markers' targets
    nq = p.state_count
    mods = []
    for choices in writes:
        mods += (nq, 2) if choices is None else (nq, len(choices), 2)
    mods += (nq, nq)
    values = SplitMix64(p.seed).take(nq * (1 + len(mods)))
    accepting = tuple(q for q, v in zip(states, values) if v & 1)
    draw = iter([v % m for v, m in zip(values[nq:], mods * nq)]).__next__

    records, keys = _shared_tables(states, tape)
    triples = []
    for _ in states:
        for s, choices in zip(tape, writes):
            triples.append((states[draw()], s if choices is None else choices[draw()],
                            _MOVES[draw()]))
        triples.append((states[draw()], LEFT_MARKER, "R"))
        triples.append((states[draw()], RIGHT_MARKER, "L"))
    get = records.get
    delta = dict(zip(keys, [get(t) or records.setdefault(t, Transition(*t)) for t in triples]))

    return Automaton(
        mode=p.mode, dlimit=p.dlimit, states=states,
        input_alphabet=input_syms, tape_alphabet=tape,
        ranks=ranks, start_state=states[0], accepting=accepting, delta=delta,
    )
