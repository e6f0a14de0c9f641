import pathlib

import pytest

from limla.fmt import FormatError, parse_machine, serialize_machine
from limla.model import COUNTED, DLimit, RANKED, validate_automaton
from limla.zoo import ZOO

MACHINES_DIR = pathlib.Path(__file__).resolve().parents[1] / "machines"

MINIMAL = """\
limla 1
mode ranked
d 1
states q
input a
tape a X:1
start q
accept q
delta q a -> q X R
delta q X -> q X L
delta q |> -> q |> R
delta q <| -> q <| L
"""


def test_minimal_document_fields():
    aut = parse_machine(MINIMAL)
    assert aut.mode == RANKED
    assert aut.dlimit == DLimit.const(1)
    assert aut.states == ("q",)
    assert aut.input_alphabet == ("a",)
    assert aut.tape_alphabet == ("a", "X")
    assert aut.ranks == {"a": 0, "X": 1}
    assert aut.start_state == "q"
    assert aut.accepting == ("q",)
    assert aut.delta[("q", "a")].write == "X"
    assert aut.delta[("q", "<|")].move == "L"
    assert validate_automaton(aut).ok


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace("start q", "start q   # the start state\n\n# comment line")
    assert parse_machine(text) == parse_machine(MINIMAL)


def test_missing_start_line():
    text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("start"))
    with pytest.raises(FormatError, match="missing 'start'"):
        parse_machine(text)


@pytest.mark.parametrize("mutation, message", [
    (lambda t: t.replace("limla 1", "limla 2"), "header"),
    (lambda t: "", "empty"),
    (lambda t: t + "mode ranked\n", "duplicate directive"),
    (lambda t: t + "bogus x\n", "unknown directive"),
    (lambda t: t + "delta q a -> q X R\n", "duplicate delta"),
    (lambda t: t.replace("delta q a -> q X R", "delta q a q X R"), "delta line"),
    (lambda t: t.replace("delta q a -> q X R", "delta q a -> q X UP"), "bad move"),
    (lambda t: t.replace("d 1", "d -3"), "d must be"),
    (lambda t: t.replace("d 1", "d log2"), "constant d"),
    (lambda t: t.replace("tape a X:1", "tape a X"), "explicit rank"),
    (lambda t: t.replace("input a", "input a a"), "duplicate input"),
    (lambda t: t.replace("states q", "states ->"), "reserved"),
])
def test_format_errors(mutation, message):
    with pytest.raises(FormatError, match=message):
        parse_machine(mutation(MINIMAL))


@pytest.mark.parametrize("old, new", [
    ("d 1", "d 0_2"), ("d 1", "d +2"), ("d 1", "d \u0662"),  # Arabic-Indic two
    ("tape a X:1", "tape a X:0_1"),
])
def test_numbers_are_ascii_digits_only(old, new):
    # int() alone would read each of these as a number
    text = MINIMAL.replace(old, new)
    with pytest.raises(FormatError, match="bad") as e:
        parse_machine(text)
    assert e.value.line == next(no for no, line in enumerate(text.splitlines(), 1)
                                if line == new)


def test_counted_mode_rejects_rank_suffix():
    text = MINIMAL.replace("mode ranked", "mode counted").replace("d 1", "d id")
    with pytest.raises(FormatError, match="no ranks"):
        parse_machine(text)
    ok = text.replace("tape a X:1", "tape a X").replace(
        "delta q a -> q X R", "delta q a -> q X R")
    aut = parse_machine(ok)
    assert aut.mode == COUNTED
    assert aut.ranks == {}


def test_format_error_carries_line_number():
    with pytest.raises(FormatError) as e:
        parse_machine(MINIMAL + "bogus x\n")
    assert e.value.line == len(MINIMAL.splitlines()) + 1


def test_roundtrip_identity_on_zoo():
    for name, build in ZOO.items():
        aut = build()
        text = serialize_machine(aut)
        assert parse_machine(text) == aut, name
        assert serialize_machine(parse_machine(text)) == text, name


def test_serialize_canonical_and_deterministic():
    a, b = ZOO["anbn"](), ZOO["anbn"]()
    assert a == b
    assert serialize_machine(a) == serialize_machine(b)


def test_serialize_is_canonicalization():
    # reordered delta lines and added comments still parse to the same machine
    lines = MINIMAL.splitlines()
    head, deltas = lines[:8], lines[8:]
    scrambled = "\n".join(head + ["# scrambled"] + deltas[::-1]) + "\n"
    assert parse_machine(scrambled) == parse_machine(MINIMAL)
    canon = serialize_machine(parse_machine(scrambled))
    assert serialize_machine(parse_machine(canon)) == canon


def test_anbn_document_d_line():
    text = serialize_machine(ZOO["anbn"]())
    assert text.splitlines()[2] == "d 2"


def test_directive_order_free():
    lines = MINIMAL.splitlines()
    reordered = "\n".join([lines[0]] + lines[1:8][::-1] + lines[8:]) + "\n"
    assert parse_machine(reordered) == parse_machine(MINIMAL)


def test_golden_machine_files_pinned():
    # the zoo builders parse these documents, so each must already be canonical
    for name, build in ZOO.items():
        path = MACHINES_DIR / f"{name}.limla"
        text = path.read_text(encoding="utf-8")
        assert serialize_machine(build()) == text, f"machines/{name}.limla is not canonical"


def test_zoo_lists_every_machine_file():
    assert sorted(ZOO) == sorted(p.stem for p in MACHINES_DIR.glob("*.limla"))


def test_accept_line_may_be_empty():
    text = MINIMAL.replace("accept q", "accept")
    aut = parse_machine(text)
    assert aut.accepting == ()
    assert serialize_machine(aut).splitlines()[7] == "accept"
