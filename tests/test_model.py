import dataclasses
import sys

import pytest

from limla.model import (
    Automaton, DLimit, ID, LOG2, SQRT, Transition,
    COUNTED, LEFT_MARKER, RANKED, RIGHT_MARKER,
    d_of, tape_indices, token_error, validate_automaton, visit_limit,
)
from limla.zoo import ZOO


def test_d_of_trivial_values():
    assert d_of(DLimit.const(2), 17) == 2
    assert d_of(LOG2, 8) == 3
    assert d_of(ID, 5) == 5
    assert d_of(SQRT, 10) == 3


def test_d_of_edges():
    assert d_of(LOG2, 0) == 0
    assert d_of(LOG2, 1) == 0
    assert d_of(LOG2, 7) == 2
    assert d_of(SQRT, 0) == 0
    assert d_of(ID, 0) == 0
    with pytest.raises(ValueError):
        d_of(ID, -1)


def test_d_of_monotone():
    for spec in (LOG2, SQRT, ID):
        vals = [d_of(spec, n) for n in range(300)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert {d_of(DLimit.const(3), n) for n in range(50)} == {3}


def test_visit_limit():
    def machine(mode, dlimit):
        return Automaton(mode, dlimit, ("q",), ("a",), ("a",), {}, "q", (), {})
    assert visit_limit(machine(RANKED, DLimit.const(0)), 9) == 1
    assert visit_limit(machine(RANKED, DLimit.const(2)), 9) == sys.maxsize
    assert visit_limit(machine(COUNTED, DLimit.const(0)), 9) == 0
    assert visit_limit(machine(COUNTED, ID), 9) == 9
    assert visit_limit(machine(COUNTED, SQRT), 9) == 3


def test_transition_is_a_slotted_frozen_record():
    t = Transition("p", "X", "R")
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.move = "L"
    same = Transition("p", "X", "R")
    assert t == same and hash(t) == hash(same)
    assert t != Transition("p", "X", "L")
    assert repr(t) == "Transition(to_state='p', write='X', move='R')"


def _tiny(mode=RANKED, d=2, rows=None, ranks=None, tape=("a", "X"),
          inputs=("a",), states=("q", "p"), start="q", accept=("p",)):
    if ranks is None:
        ranks = {"a": 0, "X": d} if mode == RANKED else {}
    delta = {}
    default_rows = []
    for q in states:
        for s in tape + (LEFT_MARKER, RIGHT_MARKER):
            if s == LEFT_MARKER:
                default_rows.append((q, s, q, s, "R"))
            elif s == RIGHT_MARKER:
                default_rows.append((q, s, q, s, "L"))
            elif mode == RANKED and ranks.get(s, 0) < d:
                default_rows.append((q, s, q, "X", "R"))
            else:
                default_rows.append((q, s, q, s, "R"))
    for q, rd, p, wr, mv in default_rows + (rows or []):
        delta[(q, rd)] = Transition(p, wr, mv)
    return Automaton(mode=mode, dlimit=DLimit.const(d), states=states,
                     input_alphabet=inputs, tape_alphabet=tape, ranks=ranks,
                     start_state=start, accepting=accept, delta=delta)


def _rules(aut):
    return {v.rule for v in validate_automaton(aut).violations}


def test_zoo_machines_validate():
    for name, build in ZOO.items():
        rep = validate_automaton(build())
        assert rep.ok, (name, [str(v) for v in rep.violations])


def test_frozen_rewrite_violation():
    # reading the rank-2 letter X but writing rank-0 a
    aut = _tiny(rows=[("q", "X", "q", "a", "R")])
    rep = validate_automaton(aut)
    assert not rep.ok
    assert any(v.rule == "FrozenRewrite" and v.state == "q" and v.symbol == "X"
               for v in rep.violations)


def test_marker_direction_violation():
    aut = _tiny(rows=[("q", RIGHT_MARKER, "q", RIGHT_MARKER, "R")])
    assert "MarkerDirection" in _rules(aut)
    aut = _tiny(rows=[("q", LEFT_MARKER, "q", LEFT_MARKER, "L")])
    assert "MarkerDirection" in _rules(aut)


def test_totality_violation():
    aut = _tiny()
    delta = dict(aut.delta)
    del delta[("q", "a")]
    broken = Automaton(mode=aut.mode, dlimit=aut.dlimit, states=aut.states,
                       input_alphabet=aut.input_alphabet, tape_alphabet=aut.tape_alphabet,
                       ranks=aut.ranks, start_state=aut.start_state,
                       accepting=aut.accepting, delta=delta)
    rep = validate_automaton(broken)
    assert any(v.rule == "Totality" and (v.state, v.symbol) == ("q", "a")
               for v in rep.violations)


def test_rank_not_increased_violation():
    aut = _tiny(tape=("a", "m", "X"), ranks={"a": 0, "m": 1, "X": 2},
                rows=[("q", "m", "q", "m", "R")])
    assert "RankNotIncreased" in _rules(aut)


def test_marker_write_violation():
    aut = _tiny(rows=[("q", "a", "q", LEFT_MARKER, "R")])
    assert "MarkerWrite" in _rules(aut)
    aut = _tiny(rows=[("q", RIGHT_MARKER, "q", "a", "L")])
    assert "MarkerWrite" in _rules(aut)


def test_rank_rules():
    assert "BadRank" in _rules(_tiny(ranks={"a": 1, "X": 2}))           # input must be rank 0
    assert "BadRank" in _rules(_tiny(ranks={"a": 0, "X": 5}))           # rank above d
    assert "BadRank" in _rules(_tiny(mode=COUNTED, ranks={"a": 0}))     # counted has no ranks


def test_mode_dlimit_rule():
    aut = _tiny()
    bad = Automaton(mode=RANKED, dlimit=LOG2, states=aut.states,
                    input_alphabet=aut.input_alphabet, tape_alphabet=aut.tape_alphabet,
                    ranks=aut.ranks, start_state=aut.start_state,
                    accepting=aut.accepting, delta=aut.delta)
    assert "ModeDLimit" in _rules(bad)


def test_unknown_state_violations():
    assert "UnknownState" in _rules(_tiny(start="nope"))
    assert "UnknownState" in _rules(_tiny(accept=("nope",)))
    assert "UnknownState" in _rules(_tiny(rows=[("q", "a", "ghost", "X", "R")]))


def test_input_not_in_tape():
    aut = _tiny(inputs=("a", "z"))
    assert "InputNotInTape" in _rules(aut)


def test_d_zero_requires_identity_writes():
    aut = _tiny(d=0, tape=("a",), ranks={"a": 0}, rows=[("q", "a", "q", "a", "R")])
    assert validate_automaton(aut).ok
    bad = _tiny(d=0, tape=("a", "b"), inputs=("a", "b"), ranks={"a": 0, "b": 0},
                rows=[("q", "a", "q", "b", "R"), ("q", "b", "q", "b", "R"),
                      ("p", "b", "p", "b", "R")])
    assert "FrozenRewrite" in _rules(bad)


def test_accepting_normalized_to_declaration_order():
    a1 = _tiny(accept=("p", "q"))
    a2 = _tiny(accept=("q", "p"))
    assert a1.accepting == a2.accepting == ("q", "p")
    assert a1 == a2


@pytest.mark.parametrize("kwargs, want", [
    (dict(states=("q", "p#"), accept=("p#",)), [("BadToken", None, "p#")]),
    (dict(inputs=("a", "a")), [("DuplicateToken", None, "a")]),
    (dict(inputs=("a", ""), tape=("a", "X", "")),
     [("BadToken", None, ""), ("BadToken", None, ""), ("BadRank", None, "")]),
    (dict(rows=[("q", "zz", "q", "a", "R")]), [("UnknownSymbol", "q", "zz")]),
    (dict(rows=[("p", "a", "p", "X", "S")]), [("BadMove", "p", "a")]),
    (dict(rows=[("q", "a", "q", "Y", "R")]), [("UnknownSymbol", "q", "a")]),
    # delta is reported in its own order: ("q", "a") was put in first
    (dict(rows=[("p", "a", "p", "X", "S"), ("q", "zz", "q", "a", "R"),
                ("q", "a", "q", "Y", "R")]),
     [("UnknownSymbol", "q", "a"), ("BadMove", "p", "a"), ("UnknownSymbol", "q", "zz")]),
    (dict(inputs=("a", "a,b"), tape=("a", "X", "a,b"), ranks={"a": 0, "X": 2, "a,b": 0}),
     [("BadToken", None, "a,b"), ("BadToken", None, "a,b")]),
])
def test_rules_the_parser_reaches_first(kwargs, want):
    # the parser rejects these machines before they are built, so each is
    # built directly as an Automaton
    violations = validate_automaton(_tiny(**kwargs)).violations
    assert [(v.rule, v.state, v.symbol) for v in violations] == want


@pytest.mark.parametrize("kwargs, message", [
    (dict(states=("q", "q"), accept=()), "duplicate state names"),
    (dict(tape=("a", "a")), "duplicate tape symbols"),
    (dict(drop=("p", "X")), "transition table is not total: missing ('p', 'X'); "
                            "run validate_automaton for a full report"),
    (dict(rows=[("q", "a", "q", "Y", "R")]), "transition ('q', 'a') references unknown token 'Y'"),
    (dict(rows=[("q", "a", "s", "X", "R")]), "transition ('q', 'a') references unknown token 's'"),
    (dict(start="s"), "start state 's' is not a state"),
    (dict(rows=[("p", "a", "p", "X", "S")]), "transition ('p', 'a') has move 'S', not 'L' or 'R'"),
])
def test_compile_refuses_what_validation_reports(kwargs, message):
    drop = kwargs.pop("drop", None)
    aut = _tiny(**kwargs)
    if drop is not None:
        delta = dict(aut.delta)
        del delta[drop]
        aut = dataclasses.replace(aut, delta=delta)
    assert not validate_automaton(aut).ok
    with pytest.raises(ValueError) as e:
        aut.compiled
    assert str(e.value) == message


def test_tape_indices_accepts_only_input_tokens():
    aut = ZOO["anbn"]()
    c = aut.compiled
    marked = [c.sym_names.index(t) for t in (LEFT_MARKER, *"abba", RIGHT_MARKER)]
    assert tape_indices(aut, "abba") == marked
    assert tape_indices(aut, ("a", "b")) == tape_indices(aut, "ab")
    assert tape_indices(aut, iter("abba")) == marked
    assert tape_indices(aut, "") == [c.n_letters, c.n_letters + 1]
    # tape letters and markers are symbols but not input; tokens are looked
    # up as given, so 1 is not the letter '1'
    for word, bad in (("abc", "c"), (("a", "a1"), "a1"), (("|>",), "|>"), ((1,), 1)):
        with pytest.raises(ValueError) as e:
            tape_indices(aut, word)
        assert str(e.value) == f"symbol {bad!r} is not in the input alphabet"


def test_token_whitespace_is_what_isspace_says():
    # U+3000 is the highest code point str.isspace() accepts
    for cp in range(0x3001):
        c = chr(cp)
        assert (token_error("a" + c + "b") == "token contains whitespace") == c.isspace(), hex(cp)
