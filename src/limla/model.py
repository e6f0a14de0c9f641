"""Machine model for rewrite-limited automata over a marked tape.

A machine walks a tape holding the input word between an immovable left
marker ``|>`` and right marker ``<|``.  Interior cells can be rewritten
only a bounded number of times.  In ranked mode every tape letter carries
a rank and each rewrite must strictly increase it, up to the limit d; a
letter of rank d can never change again.  In counted mode there are no
ranks: a cell freezes once it has been visited d(n) times, where n is the
input length.  Frozen cells stay readable forever but keep their content.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

LEFT_MARKER = "|>"
RIGHT_MARKER = "<|"
RESERVED_TOKENS = (LEFT_MARKER, RIGHT_MARKER, "->", "L", "R")

RANKED = "ranked"
COUNTED = "counted"

# Direction encoding is pinned: right = 0, left = 1.  It is the low bit of
# directed-state indices, so serialized dumps stay byte-stable.
RIGHT = 0
LEFT = 1

ACCEPT = "accept"
REJECT = "reject"

# Rejection reasons.
LOOP_DETECTED = "loop"      # a (position, state) pair repeated inside a write-free stretch
MAP_LOOP = "map-loop"       # a segment map reported that the head never leaves


@dataclass(frozen=True)
class DLimit:
    """Per-cell rewrite budget: a constant or a function of the input length."""

    kind: str  # "const" | "log2" | "sqrt" | "id"
    k: int = 0

    @staticmethod
    def const(k: int) -> "DLimit":
        return DLimit("const", k)

    def token(self) -> str:
        return str(self.k) if self.kind == "const" else self.kind


LOG2 = DLimit("log2")
SQRT = DLimit("sqrt")
ID = DLimit("id")


# The growing d-limits by name: each maps the input length n >= 0 to d(n).
GROWING = {
    "log2": lambda n: max(n.bit_length() - 1, 0),
    "sqrt": math.isqrt,
    "id": lambda n: n,
}


def d_of(spec: DLimit, n: int) -> int:
    """Evaluate the rewrite budget for an input of length n."""
    if n < 0:
        raise ValueError("input length must be >= 0")
    if spec.kind == "const":
        return spec.k
    try:
        return GROWING[spec.kind](n)
    except KeyError:
        raise ValueError(dlimit_error(COUNTED, spec)) from None


def dlimit_error(mode: str, dlimit: DLimit) -> str | None:
    """Reason a machine of this mode cannot take this d-limit, or None if fine."""
    if dlimit.kind == "const":
        return "d must be >= 0" if dlimit.k < 0 else None
    if dlimit.kind not in GROWING:
        return f"unknown d-limit kind {dlimit.kind!r}"
    return "ranked mode requires a constant d" if mode == RANKED else None


def visit_limit(aut: Automaton, n: int) -> int:
    """Visits after which a cell of an n-letter word takes no more writes.

    1 in ranked mode with d = 0; never reached with d > 0, where a cell
    freezes by the rank-d letter it holds (CompiledAutomaton.fixed); d(n)
    in counted mode.
    """
    if aut.mode == RANKED:
        return 1 if aut.dlimit.k == 0 else sys.maxsize
    return d_of(aut.dlimit, n)


@dataclass(frozen=True, slots=True)
class Transition:
    """One row of delta: the state entered, the letter written and the move.

    Slotted, so a record has no instance dict: it takes 56 bytes, against
    96 as a plain frozen dataclass (tracemalloc, CPython 3.11, 64-bit).
    Frozen, so one record can serve many rows: the seeded generator
    (zoo.random_automaton) shares one record per distinct transition
    across all the machines it makes.
    """

    to_state: str
    write: str
    move: str  # "L" | "R"


def token_error(tok: str) -> str | None:
    """Reason a token cannot appear in the machine format, or None if fine."""
    if not tok:
        return "empty token"
    if tok in RESERVED_TOKENS:
        return f"reserved token {tok!r}"
    if tok.split() != [tok]:  # splits exactly where str.isspace() holds
        return "token contains whitespace"
    if "#" in tok or ":" in tok:
        return "token contains '#' or ':'"
    if "," in tok:  # the separator of --input-tokens words
        return "token contains ','"
    return None


@dataclass(frozen=True)
class Automaton:
    """Complete machine description.

    Immutable after construction; validation is a separate pass
    (validate_automaton) so that malformed machines can be represented
    and reported on.  ``accepting`` is normalized to declaration order,
    making equal machines compare and serialize identically.
    """

    mode: str
    dlimit: DLimit
    states: tuple
    input_alphabet: tuple
    tape_alphabet: tuple
    ranks: dict          # letter -> rank; empty in counted mode
    start_state: str
    accepting: tuple
    delta: dict          # (state, read token) -> Transition

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        order = {s: i for i, s in enumerate(self.states)}
        acc = sorted(set(self.accepting), key=lambda s: (order.get(s, len(order)), s))
        object.__setattr__(self, "accepting", tuple(acc))
        object.__setattr__(self, "ranks", dict(self.ranks))
        object.__setattr__(self, "delta", dict(self.delta))

    @cached_property
    def compiled(self) -> "CompiledAutomaton":
        return _compile(self)


@dataclass
class CompiledAutomaton:
    """Dense integer form of a validated machine, shared by both engines.

    Symbols are indexed in tape declaration order; the two markers get the
    last two indices (left marker first).  Transition tables are flat lists
    indexed by state * width + symbol.  out_tab[k] = 2 * to_tab[k] + mv_tab[k]
    is the exit as a directed state, the map entry encoding the linear engine
    reads; the oracles run_naive and describe_indices read to_tab and mv_tab.
    head_row maps a directed state h to its state's row, (h >> 1) * width,
    one shared int for both directions, so the linear engine indexes the
    tables by head_row[head] + symbol.
    """

    n_states: int
    n_letters: int
    width: int
    sym_names: tuple
    input_index: dict        # input token -> symbol index (tape_indices)
    start_idx: int
    accepting: list
    to_tab: list
    wr_tab: list
    mv_tab: list
    out_tab: list            # transition -> its exit as a directed state (linear)
    head_row: list           # directed state -> its state's row offset (linear)
    fixed: list              # symbol -> a cell holding it takes no more writes
    compose_memo: CompositionMemo    # maps, their compositions and generators (mapping)
    shadow_cache: dict       # shadow letters -> describe_indices table (linear._shadow_check)
    shadow_slots: int = 0    # letters plus table entries held in shadow_cache


_MOVE_DIRS = {"R": RIGHT, "L": LEFT}


def _compile(aut: Automaton) -> CompiledAutomaton:
    """The dense form of a machine.  The rules live in validate_automaton
    alone: every name is looked up, and a failed lookup refuses the machine
    with a ValueError naming the validator's first violation."""
    states = aut.states
    letters = aut.tape_alphabet
    lo = len(letters)
    sym_names = letters + (LEFT_MARKER, RIGHT_MARKER)
    state_index = {s: i for i, s in enumerate(states)}
    sym_index = {s: i for i, s in enumerate(sym_names)}
    width = lo + 2
    delta = aut.delta
    try:
        # a name listed twice leaves its index shorter than its list
        {(len(states), width): None}[len(state_index), len(sym_index)]
        rows = [delta[q, s] for q in states for s in sym_names]  # in table order
        to_tab = [state_index[t.to_state] for t in rows]
        wr_tab = [sym_index[t.write] for t in rows]
        mv_tab = [_MOVE_DIRS[t.move] for t in rows]
        start = state_index[aut.start_state]
        accepting = [False] * len(states)
        for s in aut.accepting:
            accepting[state_index[s]] = True
        input_index = {t: sym_index[t] for t in aut.input_alphabet}
        # the rank that fixes a letter, none in counted mode; an unknown
        # mode fails the lookup, as an unknown move does
        d = {RANKED: aut.dlimit.k, COUNTED: 0}[aut.mode]
    except KeyError:
        raise ValueError(f"invalid machine: {validate_automaton(aut).violations[0]}") from None
    # the markers, and rank-d letters in ranked mode with d > 0; counted mode
    # and ranked mode with d = 0 freeze by visit count alone (visit_limit)
    fixed = [d > 0 and aut.ranks.get(tok, 0) == d for tok in letters] + [True, True]
    from .mapping import CompositionMemo
    return CompiledAutomaton(
        n_states=len(states), n_letters=lo, width=width,
        sym_names=sym_names,
        input_index=input_index,
        start_idx=start, accepting=accepting,
        to_tab=to_tab, wr_tab=wr_tab, mv_tab=mv_tab,
        out_tab=[2 * t + m for t, m in zip(to_tab, mv_tab)],
        head_row=[row for row in range(0, len(rows), width) for _ in (RIGHT, LEFT)],
        fixed=fixed, compose_memo=CompositionMemo(), shadow_cache={},
    )


def tape_indices(aut: Automaton, word) -> list:
    """Symbol indices of the marked tape: the left marker, one index per
    token of the word (a str is one token per char), the right marker.
    Rejects tokens outside the input alphabet.  The list is fresh and
    writable: each engine runs on it in place."""
    c = aut.compiled
    try:
        return [c.n_letters, *map(c.input_index.__getitem__, word), c.n_letters + 1]
    except KeyError as e:
        raise ValueError(f"symbol {e.args[0]!r} is not in the input alphabet") from None


@dataclass(frozen=True)
class Violation:
    rule: str
    state: str | None = None
    symbol: str | None = None
    detail: str = ""

    def __str__(self):
        where = ""
        if self.state is not None or self.symbol is not None:
            where = f" at ({self.state}, {self.symbol})"
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.rule}{where}{tail}"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_automaton(aut: Automaton) -> ValidationReport:
    """Check every definitional constraint; violations are data, not errors."""
    v = []

    def bad(rule, state=None, symbol=None, detail=""):
        v.append(Violation(rule, state, symbol, detail))

    ranked = aut.mode == RANKED
    if aut.mode not in (RANKED, COUNTED):
        bad("Mode", detail=f"unknown mode {aut.mode!r}")
    err = dlimit_error(aut.mode, aut.dlimit)
    if err:
        bad("ModeDLimit", detail=err)

    for group, toks in (("state", aut.states), ("input", aut.input_alphabet),
                        ("tape", aut.tape_alphabet)):
        seen = set()
        for tok in toks:
            err = token_error(tok)
            if err:
                bad("BadToken", symbol=tok, detail=f"{group}: {err}")
            if tok in seen:
                bad("DuplicateToken", symbol=tok, detail=f"duplicate in {group} list")
            seen.add(tok)

    tape_set = set(aut.tape_alphabet)
    for tok in aut.input_alphabet:
        if tok not in tape_set:
            bad("InputNotInTape", symbol=tok)

    d = aut.dlimit.k if (ranked and aut.dlimit.kind == "const") else None
    if ranked:
        for tok in aut.tape_alphabet:
            r = aut.ranks.get(tok)
            if r is None:
                bad("BadRank", symbol=tok, detail="missing rank")
            elif r < 0 or (d is not None and r > d):
                bad("BadRank", symbol=tok, detail=f"rank {r} outside 0..{d}")
        for tok in aut.input_alphabet:
            if tok in tape_set and aut.ranks.get(tok) not in (None, 0):
                bad("BadRank", symbol=tok, detail="input symbols must have rank 0")
        for tok in aut.ranks:
            if tok not in tape_set:
                bad("BadRank", symbol=tok, detail="rank for unknown symbol")
    elif aut.ranks:
        bad("BadRank", detail="counted mode carries no ranks")

    state_set = set(aut.states)
    if aut.start_state not in state_set:
        bad("UnknownState", state=aut.start_state, detail="start state")
    for s in aut.accepting:
        if s not in state_set:
            bad("UnknownState", state=s, detail="accepting state")

    all_syms = aut.tape_alphabet + (LEFT_MARKER, RIGHT_MARKER)
    sym_set = set(all_syms)
    for q in aut.states:
        for s in all_syms:
            if (q, s) not in aut.delta:
                bad("Totality", q, s, "missing transition")
    for (q, s), t in aut.delta.items():
        if q not in state_set:
            bad("UnknownState", q, s, "transition from unknown state")
            continue
        if s not in sym_set:
            bad("UnknownSymbol", q, s, "transition reads unknown symbol")
            continue
        if t.to_state not in state_set:
            bad("UnknownState", q, s, f"target {t.to_state!r}")
        if t.move not in ("L", "R"):
            bad("BadMove", q, s, f"move {t.move!r}")
        if s == LEFT_MARKER:
            if t.write != s:
                bad("MarkerWrite", q, s, "markers cannot be rewritten")
            if t.move != "R":
                bad("MarkerDirection", q, s, "left marker forces a right move")
        elif s == RIGHT_MARKER:
            if t.write != s:
                bad("MarkerWrite", q, s, "markers cannot be rewritten")
            if t.move != "L":
                bad("MarkerDirection", q, s, "right marker forces a left move")
        else:
            if t.write in (LEFT_MARKER, RIGHT_MARKER):
                bad("MarkerWrite", q, s, "markers cannot be written over letters")
            elif t.write not in tape_set:
                bad("UnknownSymbol", q, s, f"write {t.write!r}")
            elif ranked and d is not None:
                rr = aut.ranks.get(s)
                wr = aut.ranks.get(t.write)
                if rr is None or wr is None:
                    pass  # already reported as BadRank
                elif rr >= d:
                    if t.write != s:
                        bad("FrozenRewrite", q, s, f"rank-{rr} letter must be rewritten as itself")
                elif wr <= rr:
                    bad("RankNotIncreased", q, s, f"rank {rr} -> {wr}")
    return ValidationReport(v)
