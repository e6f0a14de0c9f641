"""Property tests for the machine format and the composition algebra."""
import pytest
from hypothesis import given, settings, strategies as st

from limla.fmt import FormatError, parse_machine, serialize_machine
from limla.mapping import CompositionMemo, SegmentMap, compose_full, oracle_compose
from limla.model import COUNTED, DLimit, RANKED
from limla.zoo import GenParams, random_automaton

# A fixed example stream and no example database, so every run of the
# suite tries the same examples.
_SETTINGS = dict(deadline=None, derandomize=True, database=None)

_LIMITS = st.one_of(
    st.tuples(st.just(RANKED), st.integers(0, 3).map(DLimit.const)),
    st.tuples(st.just(COUNTED), st.integers(0, 3).map(DLimit.const)),
    st.tuples(st.just(COUNTED), st.sampled_from(("log2", "sqrt", "id")).map(DLimit)),
)


@settings(max_examples=60, **_SETTINGS)
@given(limit=_LIMITS, states=st.integers(1, 5), seed=st.integers(0, 2**64 - 1),
       inputs=st.integers(1, 3), per_rank=st.integers(1, 2))
def test_serialize_parse_round_trip(limit, states, seed, inputs, per_rank):
    mode, dlimit = limit
    m = random_automaton(GenParams(states, seed, mode, dlimit, inputs, per_rank))
    assert parse_machine(serialize_machine(m)) == m


@settings(max_examples=150, **_SETTINGS)
@given(st.text(max_size=200))
def test_arbitrary_text_raises_only_format_error(text):
    try:
        parse_machine(text)
    except FormatError:
        pass


# Words the parser branches on, mixed with short arbitrary tokens.
_VOCAB = ("limla", "1", "mode", "ranked", "counted", "d", "log2", "sqrt", "id",
          "-1", "0", "2", "states", "input", "tape", "start", "accept", "delta",
          "->", "L", "R", "|>", "<|", "q0", "a", "X:1", "a:x", ":", "#")
_TOKEN = st.one_of(st.sampled_from(_VOCAB), st.text(min_size=1, max_size=4))


@st.composite
def _mutated_documents(draw):
    """A valid document with a few lines after the header dropped, copied or
    re-tokened, so that most examples reach the checks past the header."""
    mode, dlimit = draw(_LIMITS)
    m = random_automaton(GenParams(draw(st.integers(1, 3)), draw(st.integers(0, 2**32)),
                                   mode, dlimit))
    lines = [line.split() for line in serialize_machine(m).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "copy", "token", "token")))
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(i, list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i][j:j + 1] = [draw(_TOKEN)]
    return "\n".join(" ".join(toks) for toks in lines)


@settings(max_examples=300, **_SETTINGS)
@given(_mutated_documents())
def test_mutated_documents_raise_only_format_error(text):
    try:
        parse_machine(text)
    except FormatError:
        pass


def _bad_tokens(toks):
    """(index, replacement) pairs that make a valid line fail to parse."""
    bad = [(0, "x")]  # not a directive (or, on line 1, not the header)
    key, args = toks[0], toks[1:]
    if key in ("limla", "mode"):
        bad.append((1, "x"))
    elif key == "d":
        bad.append((1, "\u0662"))  # an Arabic-Indic digit in the numeric slot
    elif key in ("states", "input") and args:
        bad.append((len(toks) - 1, "->"))
    elif key == "tape":
        bad += [(i, tok.rpartition(":")[0] + ":x") for i, tok in enumerate(toks) if ":" in tok]
    elif key == "delta":
        bad += [(3, "=>"), (6, "X")]
    return bad


@settings(max_examples=150, **_SETTINGS)
@given(limit=_LIMITS, states=st.integers(1, 4), seed=st.integers(0, 2**32), data=st.data())
def test_format_error_carries_the_line_number(limit, states, seed, data):
    mode, dlimit = limit
    lines = serialize_machine(random_automaton(GenParams(states, seed, mode, dlimit))).splitlines()
    k = data.draw(st.integers(1, len(lines)))
    toks = lines[k - 1].split()
    i, tok = data.draw(st.sampled_from(_bad_tokens(toks)))
    toks[i] = tok
    lines[k - 1] = " ".join(toks)
    with pytest.raises(FormatError) as err:
        parse_machine("\n".join(lines))
    assert err.value.line == k


@st.composite
def _map_triples(draw):
    """Three random segment maps over one |Q| in 1..6; -1 entries are LOOP."""
    q = draw(st.integers(1, 6))
    entry = st.integers(-1, 2 * q - 1)
    return tuple(SegmentMap(tuple(draw(st.lists(entry, min_size=2 * q, max_size=2 * q))))
                 for _ in range(3))


@settings(max_examples=300, **_SETTINGS)
@given(_map_triples())
def test_compose_agrees_with_oracle(maps):
    f, g, _ = maps
    r = compose_full(f, g, CompositionMemo())
    assert (r.h.table, tuple(map(r.departure, range(2 * f.q_count)))) == oracle_compose(f, g)


@settings(max_examples=300, **_SETTINGS)
@given(_map_triples())
def test_compose_is_associative(maps):
    f, g, h = maps
    memo = CompositionMemo()
    assert compose_full(compose_full(f, g, memo).h, h, memo).h == \
        compose_full(f, compose_full(g, h, memo).h, memo).h


@settings(max_examples=200, **_SETTINGS)
@given(_map_triples())
def test_transparent_map_is_two_sided_identity(maps):
    f = maps[0]
    t = SegmentMap(tuple(range(2 * f.q_count)))
    assert compose_full(t, f, CompositionMemo()).h == f
    assert compose_full(f, t, CompositionMemo()).h == f
