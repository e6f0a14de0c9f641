"""Concrete machines covering every mode and complexity regime, plus a
seeded generator for differential fuzzing."""
from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Automaton, DLimit, ID, Transition,
    COUNTED, LEFT_MARKER, RANKED, RIGHT_MARKER,
)
from .rng import SplitMix64


def _machine(mode, dlimit, states, input_syms, tape, ranks, start, accept, rows):
    delta = {(q, rd): Transition(q, rd, p, wr, mv) for q, rd, p, wr, mv in rows}
    return Automaton(
        mode=mode, dlimit=dlimit, states=tuple(states),
        input_alphabet=tuple(input_syms), tape_alphabet=tuple(tape),
        ranks=ranks, start_state=start, accepting=tuple(accept), delta=delta,
    )


def build_anbn() -> Automaton:
    """Ranked d=2 shuttle recognizing words of a's followed by as many b's.

    Marks the leftmost unmatched b, walks left to the nearest once-visited
    a and marks it, walks right to the next unmatched b, and so on; at the
    right marker it sweeps back to check that no once-visited a survived.
    Matching the k-th pair walks across the whole matched block, so the
    step count grows quadratically.  Invalid words fall into a bouncing
    trap state.  Letters: a, b are input; a1 is a once-visited a; A and B
    are matched (frozen) marks.
    """
    L, R = "L", "R"
    rows = [
        # initial state: classify the first cell; accepting here covers the
        # empty word, whose run starts directly on the right marker
        ("start", "a", "scan_a", "a1", R),
        ("start", "b", "match_a", "B", L),
        ("start", "a1", "trap", "A", R),
        ("start", "A", "trap", "A", R),
        ("start", "B", "trap", "B", R),
        ("start", LEFT_MARKER, "start", LEFT_MARKER, R),
        ("start", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        # first sweep right over the leading a's
        ("scan_a", "a", "scan_a", "a1", R),
        ("scan_a", "b", "match_a", "B", L),
        ("scan_a", "a1", "trap", "A", R),
        ("scan_a", "A", "trap", "A", R),
        ("scan_a", "B", "trap", "B", R),
        ("scan_a", LEFT_MARKER, "scan_a", LEFT_MARKER, R),
        ("scan_a", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        # walk left through the matched block to the nearest unmatched a
        ("match_a", "a", "trap", "a1", L),
        ("match_a", "b", "trap", "B", L),
        ("match_a", "a1", "seek_b", "A", R),
        ("match_a", "A", "match_a", "A", L),
        ("match_a", "B", "match_a", "B", L),
        ("match_a", LEFT_MARKER, "trap", LEFT_MARKER, R),
        ("match_a", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        # walk right through the matched block to the next unmatched b
        ("seek_b", "a", "trap", "A", R),
        ("seek_b", "b", "match_a", "B", L),
        ("seek_b", "a1", "trap", "A", R),
        ("seek_b", "A", "seek_b", "A", R),
        ("seek_b", "B", "seek_b", "B", R),
        ("seek_b", LEFT_MARKER, "seek_b", LEFT_MARKER, R),
        ("seek_b", RIGHT_MARKER, "verify", RIGHT_MARKER, L),
        # sweep back to the left marker checking for leftover a1's
        ("verify", "a", "trap", "A", L),
        ("verify", "b", "trap", "B", L),
        ("verify", "a1", "trap", "A", L),
        ("verify", "A", "verify", "A", L),
        ("verify", "B", "verify", "B", L),
        ("verify", LEFT_MARKER, "finish", LEFT_MARKER, R),
        ("verify", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        # all matched: return to the right marker in an accepting state
        ("finish", "a", "trap", "A", R),
        ("finish", "b", "trap", "B", R),
        ("finish", "a1", "trap", "A", R),
        ("finish", "A", "finish", "A", R),
        ("finish", "B", "finish", "B", R),
        ("finish", LEFT_MARKER, "finish", LEFT_MARKER, R),
        ("finish", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        # rejection is a bounce between the right marker and the last cell
        ("trap", "a", "trap", "A", R),
        ("trap", "b", "trap", "B", R),
        ("trap", "a1", "trap", "A", R),
        ("trap", "A", "trap", "A", R),
        ("trap", "B", "trap", "B", R),
        ("trap", LEFT_MARKER, "trap", LEFT_MARKER, R),
        ("trap", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
    ]
    return _machine(
        RANKED, DLimit.const(2),
        ["start", "scan_a", "match_a", "seek_b", "verify", "finish", "trap"],
        ["a", "b"], ["a", "b", "a1", "A", "B"],
        {"a": 0, "b": 0, "a1": 1, "A": 2, "B": 2},
        "start", ["start", "finish"], rows,
    )


def build_even_a_2dfa() -> Automaton:
    """Ranked d=0 parity machine: accepts words with an even number of a's.

    With d = 0 every write equals the read and a cell freezes after its
    first visit, so this is a plain two-way DFA; the linear engine folds
    the whole interior into one map during the single forward sweep.
    """
    L, R = "L", "R"
    rows = [
        ("even", "a", "odd", "a", R),
        ("even", "b", "even", "b", R),
        ("even", LEFT_MARKER, "even", LEFT_MARKER, R),
        ("even", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        ("odd", "a", "even", "a", R),
        ("odd", "b", "odd", "b", R),
        ("odd", LEFT_MARKER, "odd", LEFT_MARKER, R),
        ("odd", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
        ("trap", "a", "trap", "a", R),
        ("trap", "b", "trap", "b", R),
        ("trap", LEFT_MARKER, "trap", LEFT_MARKER, R),
        ("trap", RIGHT_MARKER, "trap", RIGHT_MARKER, L),
    ]
    return _machine(
        RANKED, DLimit.const(0), ["even", "odd", "trap"],
        ["a", "b"], ["a", "b"], {"a": 0, "b": 0},
        "even", ["even"], rows,
    )


def build_bouncer() -> Automaton:
    """Loop-detection fixture: one state, runs right to the end marker and
    back forever, never accepting.  Counted mode with a budget large enough
    that no cell freezes before the reference detector fires."""
    rows = [
        ("roam", "a", "roam", "a", "R"),
        ("roam", LEFT_MARKER, "roam", LEFT_MARKER, "R"),
        ("roam", RIGHT_MARKER, "roam", RIGHT_MARKER, "L"),
    ]
    return _machine(
        COUNTED, DLimit.const(8), ["roam"], ["a"], ["a"], {},
        "roam", [], rows,
    )


def build_sweeper() -> Automaton:
    """Counted machine with d(n) = n: sweeps end to end, toggling every
    cell each visit until all cells freeze, then keeps sweeping until the
    loop detector fires.  Each cell is written exactly n times."""
    L, R = "L", "R"
    rows = [
        ("fwd", "a", "fwd", "b", R),
        ("fwd", "b", "fwd", "a", R),
        ("fwd", LEFT_MARKER, "fwd", LEFT_MARKER, R),
        ("fwd", RIGHT_MARKER, "back", RIGHT_MARKER, L),
        ("back", "a", "back", "b", L),
        ("back", "b", "back", "a", L),
        ("back", LEFT_MARKER, "fwd", LEFT_MARKER, R),
        ("back", RIGHT_MARKER, "back", RIGHT_MARKER, L),
    ]
    return _machine(
        COUNTED, ID, ["fwd", "back"], ["a", "b"], ["a", "b"], {},
        "fwd", [], rows,
    )


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


def symbol_count(p: GenParams) -> int:
    """Tape letters plus the two markers of the machine p generates."""
    ranks = p.dlimit.k if p.mode == RANKED else 1
    return p.input_alphabet_size + ranks * p.tape_per_rank + 2


def random_automaton(p: GenParams) -> Automaton:
    """Seed-deterministic machine, valid by construction.

    Every transition is drawn uniformly among the choices that are legal
    for the symbol being read.  Draw order is pinned (accepting bits per
    state, then per (state, symbol) in declaration order: target state,
    then written symbol where the read is rewritable, then move), so a
    seed reproduces the same machine everywhere.
    """
    if p.state_count < 1 or p.input_alphabet_size < 1 or p.tape_per_rank < 1:
        raise ValueError("all generator counts must be >= 1")
    if p.input_alphabet_size > len(INPUT_LETTERS):
        raise ValueError("input alphabet too large")
    if p.mode == RANKED and p.dlimit.kind != "const":
        raise ValueError("ranked mode requires a constant d")
    if p.mode not in (RANKED, COUNTED):
        raise ValueError(f"unknown mode {p.mode!r}")
    if p.state_count * symbol_count(p) > MAX_TRANSITIONS:
        raise ValueError(f"the machine would have over {MAX_TRANSITIONS} transitions")

    rng = SplitMix64(p.seed)
    states = tuple(f"q{i}" for i in range(p.state_count))
    input_syms = tuple(INPUT_LETTERS[:p.input_alphabet_size])
    ranks: dict = {}
    tape = list(input_syms)
    if p.mode == RANKED:
        d = p.dlimit.k
        for tok in input_syms:
            ranks[tok] = 0
        for r in range(1, d + 1):
            for j in range(p.tape_per_rank):
                tok = f"x{r}_{j}"
                tape.append(tok)
                ranks[tok] = r
    else:
        for j in range(p.tape_per_rank):
            tape.append(f"y{j}")
    tape = tuple(tape)

    accepting = tuple(s for s in states if rng.below(2) == 1)

    by_rank_above: dict = {}
    if p.mode == RANKED:
        d = p.dlimit.k
        for r in range(d):
            by_rank_above[r] = [t for t in tape if ranks[t] > r]

    rows = []
    for q in states:
        for s in tape + (LEFT_MARKER, RIGHT_MARKER):
            to = states[rng.below(p.state_count)]
            if s == LEFT_MARKER:
                rows.append((q, s, to, s, "R"))
            elif s == RIGHT_MARKER:
                rows.append((q, s, to, s, "L"))
            elif p.mode == RANKED and ranks[s] < p.dlimit.k:
                cands = by_rank_above[ranks[s]]
                wr = cands[rng.below(len(cands))]
                mv = "R" if rng.below(2) == 0 else "L"
                rows.append((q, s, to, wr, mv))
            elif p.mode == RANKED:
                mv = "R" if rng.below(2) == 0 else "L"
                rows.append((q, s, to, s, mv))
            else:
                wr = tape[rng.below(len(tape))]
                mv = "R" if rng.below(2) == 0 else "L"
                rows.append((q, s, to, wr, mv))

    return _machine(p.mode, p.dlimit, states, input_syms, tape, ranks,
                    states[0], accepting, rows)
