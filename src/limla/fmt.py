"""Line-oriented machine format.

A document looks like::

    limla 1
    mode ranked
    d 2
    states start trap
    input a b
    tape a b A:2
    start start
    accept start
    delta start a -> trap A R
    ...

``#`` starts a comment, blank lines are ignored.  Directives may appear in
any order after the header, each exactly once; serialization always emits
the canonical order above with delta lines sorted by (state, symbol)
declaration index, so equal machines produce byte-identical documents.
"""
from __future__ import annotations

import re

from .model import (
    Automaton, DLimit, Transition,
    COUNTED, GROWING, LEFT_MARKER, RANKED, RESERVED_TOKENS, RIGHT_MARKER,
    dlimit_error, token_error,
)

_DIRECTIVES = ("mode", "d", "states", "input", "tape", "start", "accept")
# Numbers in the grammar are ASCII digits only; int() alone would also take
# "0_2", "+2" and non-ASCII digits such as "٢".
_NUMBER = re.compile(r"[0-9]+")


class FormatError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def _logical_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield no, body.split()


def _check_sym_token(tok: str, line: int, what: str) -> None:
    err = token_error(tok)
    if err:
        raise FormatError(f"bad {what} {tok!r}: {err}", line)


def parse_dlimit(tok: str, mode: str) -> DLimit:
    """The d-limit a `d` token names in the given mode; ValueError otherwise."""
    if tok in GROWING:
        dlimit = DLimit(tok)
    elif _NUMBER.fullmatch(tok.removeprefix("-")):
        # the grammar has no signs, so a leading "-" makes d negative, "-0" too
        dlimit = DLimit.const(-1 if tok.startswith("-") else int(tok))
    else:
        raise ValueError(f"bad d value {tok!r}")
    err = dlimit_error(mode, dlimit)
    if err:
        raise ValueError(err)
    return dlimit


def parse_machine(text: str) -> Automaton:
    """Parse a machine document; FormatError (with line number) on any syntax issue.

    The result is structurally well-formed but not yet checked against the
    transition constraints; run validate_automaton separately.
    """
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty document, expected 'limla 1' header", 1)
    no, toks = lines[0]
    if toks != ["limla", "1"]:
        raise FormatError("expected 'limla 1' header", no)

    seen: dict = {}
    delta_lines = []
    for no, toks in lines[1:]:
        key = toks[0]
        if key == "delta":
            delta_lines.append((no, toks[1:]))
            continue
        if key not in _DIRECTIVES:
            raise FormatError(f"unknown directive {key!r}", no)
        if key in seen:
            raise FormatError(f"duplicate directive {key!r}", no)
        seen[key] = (no, toks[1:])

    for key in _DIRECTIVES:
        if key not in seen:
            raise FormatError(f"missing {key!r} line", no)

    no, args = seen["mode"]
    if len(args) != 1 or args[0] not in (RANKED, COUNTED):
        raise FormatError("mode must be 'ranked' or 'counted'", no)
    mode = args[0]

    no, args = seen["d"]
    if len(args) != 1:
        raise FormatError("d takes exactly one value", no)
    try:
        dlimit = parse_dlimit(args[0], mode)
    except ValueError as e:
        raise FormatError(str(e), no) from None

    no, args = seen["states"]
    if not args:
        raise FormatError("states line needs at least one state", no)
    for tok in args:
        _check_sym_token(tok, no, "state name")
    if len(set(args)) != len(args):
        raise FormatError("duplicate state name", no)
    states = tuple(args)

    no, args = seen["input"]
    for tok in args:
        _check_sym_token(tok, no, "input symbol")
    if len(set(args)) != len(args):
        raise FormatError("duplicate input symbol", no)
    input_alphabet = tuple(args)

    no, args = seen["tape"]
    tape = []
    ranks: dict = {}
    for tok in args:
        if mode == RANKED:
            base, colon, suffix = tok.rpartition(":")
            if colon:
                if not _NUMBER.fullmatch(suffix):
                    raise FormatError(f"bad rank suffix in {tok!r}", no)
                rank = int(suffix)
            else:
                base = tok
                if base not in input_alphabet:
                    raise FormatError(
                        f"tape symbol {base!r} needs an explicit rank (only input "
                        "symbols default to rank 0)", no)
                rank = 0
            _check_sym_token(base, no, "tape symbol")
            ranks[base] = rank
        else:
            if ":" in tok:
                raise FormatError("counted mode carries no ranks", no)
            base = tok
            _check_sym_token(base, no, "tape symbol")
        if base in tape:
            raise FormatError(f"duplicate tape symbol {base!r}", no)
        tape.append(base)
    tape_alphabet = tuple(tape)

    no, args = seen["start"]
    if len(args) != 1:
        raise FormatError("start takes exactly one state", no)
    start = args[0]

    no, args = seen["accept"]
    if len(set(args)) != len(args):
        raise FormatError("duplicate accepting state", no)
    accepting = tuple(args)

    delta: dict = {}
    for no, toks in delta_lines:
        if len(toks) != 6 or toks[2] != "->":
            raise FormatError("delta line must be 'delta <q> <sym> -> <q> <sym> <L|R>'", no)
        q, rd, p, wr, mv = toks[0], toks[1], toks[3], toks[4], toks[5]
        if mv not in ("L", "R"):
            raise FormatError(f"bad move {mv!r}", no)
        for tok, what in ((q, "state"), (p, "state")):
            if tok in RESERVED_TOKENS:
                raise FormatError(f"reserved token {tok!r} used as {what}", no)
        for tok in (rd, wr):
            if tok not in (LEFT_MARKER, RIGHT_MARKER) and token_error(tok):
                raise FormatError(f"bad symbol {tok!r}: {token_error(tok)}", no)
        # unknown states/symbols are left for validate_automaton to report
        if (q, rd) in delta:
            raise FormatError(f"duplicate delta entry for ({q}, {rd})", no)
        delta[(q, rd)] = Transition(p, wr, mv)

    return Automaton(
        mode=mode, dlimit=dlimit, states=states,
        input_alphabet=input_alphabet, tape_alphabet=tape_alphabet,
        ranks=ranks, start_state=start, accepting=accepting, delta=delta,
    )


def serialize_machine(aut: Automaton) -> str:
    """Canonical document for a structurally well-formed machine."""
    out = ["limla 1", f"mode {aut.mode}", f"d {aut.dlimit.token()}"]
    out.append("states " + " ".join(aut.states))
    out.append(("input " + " ".join(aut.input_alphabet)).rstrip())
    input_set = set(aut.input_alphabet)
    toks = []
    for tok in aut.tape_alphabet:
        if aut.mode == RANKED and tok not in input_set:
            toks.append(f"{tok}:{aut.ranks.get(tok, 0)}")
        else:
            toks.append(tok)
    out.append(("tape " + " ".join(toks)).rstrip())
    out.append(f"start {aut.start_state}")
    out.append(("accept " + " ".join(aut.accepting)).rstrip())

    state_order = {s: i for i, s in enumerate(aut.states)}
    sym_order = {s: i for i, s in enumerate(aut.tape_alphabet + (LEFT_MARKER, RIGHT_MARKER))}

    def sort_key(item):
        (q, s), _ = item
        return (state_order.get(q, len(state_order)), sym_order.get(s, len(sym_order)), q, s)

    for (q, s), t in sorted(aut.delta.items(), key=sort_key):
        out.append(f"delta {q} {s} -> {t.to_state} {t.write} {t.move}")
    return "\n".join(out) + "\n"
