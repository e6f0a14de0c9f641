import copy
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import limla.difftest as difftest_mod
from limla.difftest import compare_run, random_words, step_budget, words_upto
import limla.linear as linear_mod
from limla.linear import SHADOW_MEMO_SLOTS, ShadowMismatch, deletion_scan, run_linear
import limla.mapping as mapping_mod
from limla.mapping import COMPOSE_MEMO_BYTES, cf_idx, compose_full
from limla.model import (
    ACCEPT, COUNTED, DLimit, LEFT, MAP_LOOP, RANKED, REJECT, RIGHT,
    Automaton, Transition, LEFT_MARKER, RIGHT_MARKER, tape_indices,
)
from limla.naive import run_naive
from limla.outcome import BudgetExceeded, regular_projection, write_trace
from limla.rng import SplitMix64
from limla.tape import ListTape
from limla.zoo import ZOO, GenParams, build_anbn, build_bouncer, build_even_a_2dfa, random_automaton

from test_mapping import _WalkLog, _walked
from trace_writes import write_profile


def _live_cells(t):
    """Live cell indices in tape order, following the nxt links."""
    out = [0]
    while out[-1] != t.n + 1:
        out.append(t.nxt[out[-1]])
    return out


def test_init_tape_empty_word():
    aut = build_anbn()
    t = ListTape.from_word(aut, "")
    n_letters = aut.compiled.n_letters
    assert t.fmap == [None, None]
    assert t.sym == [n_letters, n_letters + 1]  # left marker, then right
    assert t.nxt[0] == 1 and t.prev[1] == 0
    assert _live_cells(t) == [0, 1]


def test_init_tape_word_layout():
    aut = build_anbn()
    c = aut.compiled
    t = ListTape.from_word(aut, "ab")
    assert _live_cells(t) == [0, 1, 2, 3]
    assert t.fmap == [None] * 4  # no cell starts as a map
    assert [c.sym_names[s] for s in t.sym[1:3]] == ["a", "b"]
    assert (t.sym[0], t.sym[3]) == (c.n_letters, c.n_letters + 1)  # the markers
    assert t.visits == [0, 0, 0, 0]
    t = ListTape.from_word(aut, "aabb")
    assert [c.sym_names[s] for s in t.sym[1:5]] == list("aabb")


def test_unlink_relinks_and_marks_dead():
    # deletion_scan unlinks each map neighbour it merges
    aut = _right_runner()
    t = ListTape.from_word(aut, "xxxxx")
    g = cf_idx(aut.compiled, 0)  # the letter x
    t.fmap[2] = t.fmap[4] = g
    assert deletion_scan(t, 3, 2 * 1 + RIGHT, g) >= 0
    assert t.nxt[1] == 3 and t.prev[3] == 1
    assert t.nxt[3] == 5 and t.prev[5] == 3
    assert t.fmap[2] is None and t.fmap[4] is None  # their maps are dropped with them
    assert _live_cells(t) == [0, 1, 3, 5, 6]
    merged = t.fmap[3]
    assert deletion_scan(t, 5, 2 * 1 + RIGHT, g) >= 0
    assert t.nxt[1] == 5 and t.prev[5] == 1
    assert t.fmap[3] is None and t.fmap[5].table == _walked(merged, g).h.table
    assert _live_cells(t) == [0, 1, 5, 6]  # no dead index comes back
    assert len(t.prev) == len(t.nxt) == len(t.fmap) == t.n + 2


def _two_state_walker():
    """Counted d(n)=1 machine whose frozen pair of cells traps the head."""
    rows = [
        ("u", "x", "v", "x", "R"),
        ("v", "x", "u", "x", "L"),
        ("u", LEFT_MARKER, "u", LEFT_MARKER, "R"),
        ("v", LEFT_MARKER, "v", LEFT_MARKER, "R"),
        ("u", RIGHT_MARKER, "u", RIGHT_MARKER, "L"),
        ("v", RIGHT_MARKER, "v", RIGHT_MARKER, "L"),
    ]
    delta = {(q, s): Transition(p, w, m) for q, s, p, w, m in rows}
    return Automaton(mode=COUNTED, dlimit=DLimit.const(1), states=("u", "v"),
                     input_alphabet=("x",), tape_alphabet=("x",), ranks={},
                     start_state="u", accepting=(), delta=delta)


def test_map_loop_reason():
    aut = _two_state_walker()
    out = run_linear(aut, "xx")
    assert out.verdict == REJECT and out.reason == MAP_LOOP
    naive = run_naive(aut, "xx")
    assert naive.verdict == REJECT  # reasons differ, verdicts agree


def _scan(t, i, p, g):
    """deletion_scan, with the compositions it requested and the largest edges
    among the memo's walks, both read from the memo of g, the machine's."""
    memo = g.memo
    calls = memo.calls
    out = deletion_scan(t, i, p, g)
    assert isinstance(out, int)
    return out, memo.calls - calls, memo.edges_max


def test_deletion_scan_no_neighbours():
    aut = _two_state_walker()
    t = ListTape.from_word(aut, "xxx")
    g = cf_idx(aut.compiled, 0)  # the letter x
    letters = list(t.sym)
    out, calls, edges = _scan(t, 2, 2 * 0 + RIGHT, g)
    assert out == 2 * 0 + RIGHT
    assert (calls, edges) == (0, 0)
    assert _live_cells(t) == [0, 1, 2, 3, 4]  # nothing merged
    assert (t.prev[2] + 1, t.nxt[2] - 1) == (2, 2)
    assert t.fmap[2] is g
    assert t.fmap[1] is None and t.fmap[3] is None  # the neighbours stay letters
    assert t.sym == letters  # the scan writes no letter


def test_deletion_scan_left_merge_no_departure_when_heading_right():
    aut = _two_state_walker()
    t = ListTape.from_word(aut, "xxx")
    g = cf_idx(aut.compiled, 0)  # the letter x
    t.fmap[1] = g
    out, calls, edges = _scan(t, 2, 2 * 1 + RIGHT, g)
    assert out >= 0 and calls == 1
    assert edges == _walked(g, g).edges
    assert _live_cells(t) == [0, 2, 3, 4] and t.fmap[1] is None  # merged left only
    assert out == 2 * 1 + RIGHT  # no departure taken
    assert t.fmap[2].table == _walked(g, g).h.table
    assert (t.prev[2] + 1, t.nxt[2] - 1) == (1, 2)


def _right_runner():
    """Counted d(n)=1 machine: u steps right once into v, v runs right."""
    rows = [
        ("u", "x", "v", "x", "R"),
        ("v", "x", "v", "x", "R"),
        ("u", LEFT_MARKER, "u", LEFT_MARKER, "R"),
        ("v", LEFT_MARKER, "v", LEFT_MARKER, "R"),
        ("u", RIGHT_MARKER, "u", RIGHT_MARKER, "L"),
        ("v", RIGHT_MARKER, "v", RIGHT_MARKER, "L"),
    ]
    delta = {(q, s): Transition(p, w, m) for q, s, p, w, m in rows}
    return Automaton(mode=COUNTED, dlimit=DLimit.const(1), states=("u", "v"),
                     input_alphabet=("x",), tape_alphabet=("x",), ranks={},
                     start_state="u", accepting=(), delta=delta)


def test_deletion_scan_three_way_merge():
    aut = _right_runner()
    t = ListTape.from_word(aut, "xxx")
    g = cf_idx(aut.compiled, 0)  # the letter x
    t.fmap[1] = g
    t.fmap[3] = g
    # heading left into the left map: the departure bounces the head back
    # rightward, so the second departure is taken on the merged map too
    out, calls, edges = _scan(t, 2, 2 * 0 + LEFT, g)
    assert out >= 0 and calls == 2
    gg = _walked(g, g)
    assert edges == max(gg.edges, _walked(gg.h, g).edges)
    assert t.fmap[1] is None and t.fmap[3] is None  # both merged
    assert out == 2 * 1 + RIGHT
    assert t.fmap[2].table == _walked(gg.h, g).h.table
    assert _live_cells(t) == [0, 2, 4]
    assert (t.prev[2] + 1, t.nxt[2] - 1) == (1, 3)


def test_deletion_scan_rejects_on_loop_departure():
    aut = _two_state_walker()
    t = ListTape.from_word(aut, "xx")
    g = cf_idx(aut.compiled, 0)  # the letter x
    t.fmap[1] = g
    # entering leftward in state u: u bounces right, v bounces back left, a cycle
    out, calls, edges = _scan(t, 2, 2 * 0 + LEFT, g)
    assert out < 0 and calls == 1
    assert edges == _walked(g, g).edges
    assert t.fmap[1] is g and t.nxt[1] == 2  # the looping neighbour stays linked


def test_verdicts_and_projections_match_naive_on_zoo():
    for name, build in ZOO.items():
        aut = build()
        for word in words_upto(aut.input_alphabet, 6):
            div = compare_run(aut, word, shadow=True)
            assert div is None, (name, word, div and div.detail)


def test_long_zoo_words_agree_with_naive(monkeypatch):
    # scans on long words merge into left and into right neighbours, the two
    # relinks of deletion_scan, and shadow checks the merged maps
    real_run_linear = difftest_mod.run_linear
    merges = set()

    def recording_run(aut, word, **kwargs):
        out = real_run_linear(aut, word, **kwargs)
        merges.update(r[8:10] for r in out.trace if r[7] == 1)
        return out

    monkeypatch.setattr(difftest_mod, "run_linear", recording_run)
    for name, build in ZOO.items():
        aut = build()
        for word in random_words(aut.input_alphabet, 4, 64, 256, 0x10A6):
            div = compare_run(aut, word, shadow=True)
            assert div is None, (name, len(word), div and div.detail)
    assert {(True, False), (False, True)} <= merges


def test_empty_word_projection_is_initial_record_only():
    aut = build_anbn()
    no = run_naive(aut, "", trace=True)
    lo = run_linear(aut, "", trace=True)
    start = aut.states.index("start")
    assert regular_projection(aut, no) == regular_projection(aut, lo) == \
        [(start, 1, -1, -1, -1)]


def test_bouncer_projections_agree_up_to_detection():
    aut = build_bouncer()
    pn = regular_projection(aut, run_naive(aut, "aa", trace=True))
    pl = regular_projection(aut, run_linear(aut, "aa", trace=True))
    m = min(len(pn), len(pl))
    assert pn[:m] == pl[:m]


def test_even_a_interior_collapses_to_one_map():
    aut = build_even_a_2dfa()
    out = run_linear(aut, "abba", trace=True, shadow=True)
    assert out.verdict == ACCEPT
    scans = [t for t in out.trace if t[7] == 1]
    assert len(scans) == 4 == out.scans
    assert (scans[-1][10], scans[-1][11]) == (1, 4)
    # odd parity: the run goes on bouncing; the collapse still happened during
    # the first letter run, before the head ever reached a marker twice
    out = run_linear(aut, "ab", trace=True, shadow=True)
    assert out.verdict == REJECT
    marker_steps = [t[0] for t in out.trace if t[3] >= aut.compiled.n_letters]
    scan_steps = [t[0] for t in out.trace if t[7] == 1]
    assert len(scan_steps) == 2
    assert len(marker_steps) < 2 or max(scan_steps) < marker_steps[1]


def test_step_bound_on_zoo_runs():
    # the letter count is derived from the others, so every count is checked
    # against the trace: case-0 records on letters and on markers, case-2
    # map jumps and case-1 scans
    for name, build in ZOO.items():
        aut = build()
        for word in words_upto(aut.input_alphabet, 6):
            n = len(word)
            out = run_linear(aut, word, trace=True)
            assert out.steps <= step_budget(aut, n), (name, word)
            assert out.scans <= n
            kinds = [(rec[7], rec[7] == 0 and 0 < rec[1] <= n) for rec in out.trace]
            assert kinds.count((0, True)) == out.moves["letter"], (name, word)
            assert kinds.count((0, False)) == out.moves["marker"], (name, word)
            assert kinds.count((2, False)) == out.moves["map"], (name, word)
            assert kinds.count((1, False)) == out.scans, (name, word)


def test_no_adjacent_maps_assertion_active(monkeypatch):
    # the engine asserts the invariant after every scan; a full sweep
    # exercising merges must never trip it
    aut = build_even_a_2dfa()
    for word in words_upto(aut.input_alphabet, 5):
        run_linear(aut, word, shadow=True)

    # shadowed or not, the engine's one assert catches it: a scan that
    # stores its map but merges no neighbour leaves two maps side by side
    def unmerging_scan(tape, i, p, g):
        tape.fmap[i] = g
        return p

    monkeypatch.setattr(linear_mod, "deletion_scan", unmerging_scan)
    for shadow in (False, True):
        with pytest.raises(AssertionError):
            run_linear(aut, "aa", shadow=shadow)


_UNMERGED_UNDER_O = """
import sys
import limla.linear as linear_mod
from limla.zoo import build_even_a_2dfa

assert sys.flags.optimize, "asserts are on"
def unmerging_scan(tape, i, p, g):
    tape.fmap[i] = g
    return p

linear_mod.deletion_scan = unmerging_scan
for shadow in (False, True):
    try:
        linear_mod.run_linear(build_even_a_2dfa(), "aa", shadow=shadow)
    except AssertionError:
        continue
    sys.exit(f"shadow={shadow}: two maps side by side went unreported")
"""


def test_adjacency_check_survives_python_O():
    # python -O drops assert statements; the engine's adjacency check is an
    # explicit test, so the unmerging scan above is still caught
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(linear_mod.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", _UNMERGED_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_TAPE_RSS = """
import gc, resource
from limla.linear import run_linear
from limla.zoo import build_even_a_2dfa

n = 10 ** 6
aut = build_even_a_2dfa()
run_linear(aut, "ab")
word = "ab" * (n // 2)  # n bytes, made with no larger transient to hide a peak
gc.collect()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert run_linear(aut, word).accepted
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / n)
"""


def test_linear_run_peak_rss_per_letter():
    # an even_a run keeps five lists of n + 2 slots, 8 bytes a slot each, and
    # the links' ints, 32 bytes a cell when prev and nxt share them: 72 bytes
    # a letter, against 112 with a private int per link and a copy of the
    # word's indices, and 80 when prev is concatenated from a copied slice
    # (ru_maxrss, CPython 3.11)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(linear_mod.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _TAPE_RSS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 80


def test_composition_memo_walks_each_pair_once():
    # even_a makes one scan and one composition per cell, but its maps form a
    # tiny monoid: the memo walks at most 8 distinct pairs on a 1024-letter word
    aut = build_even_a_2dfa()
    word = next(random_words(aut.input_alphabet, 1, 1024, 1024, 0x5EED))
    out = run_linear(aut, word)
    assert out.compose_calls == 1023  # one per merge: hits count as calls
    assert out.compose_walks <= 8
    assert out.compose_edges_max <= 4 * len(aut.states)


def test_composition_memo_under_shadow():
    # every memo hit stands in for a walk, so each stored map must still
    # describe its segment
    n = 200
    assert run_linear(build_anbn(), "a" * n + "b" * n, shadow=True).accepted
    aut = random_automaton(GenParams(5, 11, COUNTED, DLimit("sqrt")))
    hits = 0
    for word in random_words(aut.input_alphabet, 20, 1, 64, 11):
        out = run_linear(aut, word, shadow=True)
        assert out.compose_walks <= out.compose_calls <= 2 * out.scans
        hits += out.compose_calls - out.compose_walks
    assert hits > 0


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        run_linear(build_bouncer(), "aaaa", max_steps=3)


def _jsonl_trace(aut, word) -> list:
    buf = io.StringIO()
    write_trace(aut, run_linear(aut, word, trace=True), "linear", buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def test_linear_trace_jsonl_schema():
    lines = _jsonl_trace(build_even_a_2dfa(), "ab")
    base = {"step", "pos", "state", "read", "write", "move", "frozen", "case"}
    for rec in lines[:-1]:
        assert set(rec) >= base
        if rec["case"] == "scan":
            assert set(rec) == base | {"merged_left", "merged_right", "segment"}
        elif rec["case"] == "mapjump":
            assert rec["read"] == rec["write"] == "[map]"
    assert lines[-1]["verdict"] == "reject"
    assert lines[-1]["reason"] == "loop"


def test_linear_trace_reports_map_loop_reason():
    assert _jsonl_trace(_two_state_walker(), "xx")[-1]["reason"] == "map-loop"


# (step, merged_left, merged_right, segment) of every scan record.  The engine
# derives these from the tape after the scan, so fixed values guard that
# derivation.  Step 14 is a three-way merge; step 16 is a scan rejected by a
# looping departure, which leaves its right neighbour unmerged.
GOLDEN_SCANS = [
    (5, False, False, [3, 3]), (6, True, False, [3, 4]),
    (10, False, False, [6, 6]), (11, True, False, [6, 7]),
    (14, True, True, [3, 7]), (15, False, True, [2, 7]),
    (16, False, False, [1, 1]),
]


def test_scan_record_values_golden():
    aut = random_automaton(GenParams(4, 28, COUNTED, DLimit.const(2)))
    recs = _jsonl_trace(aut, "abaabaaa")
    scans = [(r["step"], r["merged_left"], r["merged_right"], r["segment"])
             for r in recs if r.get("case") == "scan"]
    assert scans == GOLDEN_SCANS
    assert recs[-1] == {"verdict": "reject", "reason": "map-loop", "steps": 16,
                        "compose_walks": 5}


@pytest.mark.parametrize("seed, d, word, segment", [
    (183, 2, "bba", [3, 3]),  # cell 2 belongs to the unmerged map at cell 1
    (117, 3, "baa", [1, 1]),  # cell 2 belongs to the unmerged map at cell 3
])
def test_map_loop_scan_record_gives_the_merges_it_completed(seed, d, word, segment):
    # the last scan's departure loops before it relinks that side, so the
    # unmerged neighbour map's cells are not in the segment
    aut = random_automaton(GenParams(1, seed, COUNTED, DLimit.const(d)))
    recs = _jsonl_trace(aut, word)
    assert recs[-1]["reason"] == "map-loop"
    last = [r for r in recs if r.get("case") == "scan"][-1]
    assert (last["merged_left"], last["merged_right"], last["segment"]) == (
        False, False, segment)


def test_counted_zero_budget_cells_freeze_immediately():
    aut = _two_state_walker()
    zero = Automaton(mode=COUNTED, dlimit=DLimit.const(0), states=aut.states,
                     input_alphabet=aut.input_alphabet, tape_alphabet=aut.tape_alphabet,
                     ranks={}, start_state=aut.start_state, accepting=aut.accepting,
                     delta=aut.delta)
    for word in words_upto(zero.input_alphabet, 5):
        div = compare_run(zero, word, shadow=True)
        assert div is None, (word, div and div.detail)
        out = run_linear(zero, word, trace=True)
        assert write_profile(out, len(word))[0] == [0] * (len(word) + 2)


def test_shadow_mismatch_on_corrupted_map():
    # patching a wrong map into the tape right after a scan must be caught
    aut = build_even_a_2dfa()
    out = run_linear(aut, "ab", trace=True, shadow=True)  # sanity: passes
    assert out.scans == 2

    import limla.linear as linear_mod
    real_scan = linear_mod.deletion_scan

    def corrupt(tape, i, p, g):
        res = real_scan(tape, i, p, g)
        if tape.fmap[i] is not None:
            table = list(tape.fmap[i].table)
            table[0] = -1 if table[0] >= 0 else 0
            tape.fmap[i] = g.memo.canonical(tuple(table))
        return res

    linear_mod.deletion_scan = corrupt
    try:
        with pytest.raises(ShadowMismatch):
            run_linear(aut, "ab", shadow=True)
    finally:
        linear_mod.deletion_scan = real_scan


def _outcome_fingerprint(aut, out) -> tuple:
    buf = io.StringIO()
    write_trace(aut, out, "linear", buf)
    return (out.verdict, out.reason, out.steps, out.moves, out.scans, out.compose_calls,
            out.compose_walks, out.compose_edges_max, buf.getvalue())


def _walkless(out):
    """out with its walk counts zeroed, and so its trace's final compose_walks."""
    return dataclasses.replace(out, compose_walks=0, compose_edges_max=0)


def test_compose_memo_shows_only_in_walks(monkeypatch):
    # a cold run and the same run after a sweep has warmed the machine's
    # composition memo (and its shadow memo) report the same counters and
    # the same trace but for the walks, which each run reports as it made
    # them; a run after an end_run that emptied the memo is a cold run again
    params = GenParams(5, 37, COUNTED, DLimit.const(2))
    word = next(random_words(("a", "b"), 1, 40, 40, 37))
    log = _WalkLog(monkeypatch)
    aut = random_automaton(params)
    cold = log.run(aut, word, trace=True, shadow=True)
    assert cold.accepted and 0 < cold.compose_walks < cold.compose_calls

    warm_aut = random_automaton(params)
    for w in random_words(warm_aut.input_alphabet, 60, 1, 48, 5):
        run_linear(warm_aut, w, shadow=True)
    run_linear(warm_aut, word, shadow=True)
    warm = log.run(warm_aut, word, trace=True, shadow=True)
    assert warm.compose_walks == 0  # every composition the run asked for came from the memo
    assert (_outcome_fingerprint(warm_aut, _walkless(warm))
            == _outcome_fingerprint(aut, _walkless(cold)))

    monkeypatch.setattr(mapping_mod, "COMPOSE_MEMO_BYTES", 0)
    log.run(warm_aut, word, shadow=True)  # its end_run empties the memo
    assert warm_aut.compiled.compose_memo.entries == 0
    monkeypatch.setattr(mapping_mod, "COMPOSE_MEMO_BYTES", COMPOSE_MEMO_BYTES)
    again = log.run(warm_aut, word, trace=True, shadow=True)
    assert _outcome_fingerprint(warm_aut, again) == _outcome_fingerprint(aut, cold)


def test_shadow_memo_does_not_weaken_the_check(monkeypatch):
    aut = random_automaton(GenParams(4, 31, COUNTED, DLimit.const(2)))
    words = list(random_words(aut.input_alphabet, 40, 4, 16, 31))
    for w in words:
        run_linear(aut, w, shadow=True)
    warmed = dict(aut.compiled.shadow_cache)
    assert warmed

    # a word whose run composes and accepts, and its first composed pair
    seen = []

    def record(f, g):
        seen.append((f.table, g.table))
        return compose_full(f, g)

    monkeypatch.setattr(linear_mod, "compose_full", record)
    for word in words:
        seen.clear()
        if run_linear(aut, word, shadow=True).accepted and seen:
            break
    else:
        pytest.fail("no accepted word composes")
    bad_pair = seen[0]

    def corrupt(f, g):
        r = compose_full(f, g)
        if (f.table, g.table) != bad_pair:
            return r
        table = list(r.h.table)
        table[0] = -1 if table[0] >= 0 else 0
        bad = copy.copy(r)  # the memo keeps the true result
        bad.h = f.memo.canonical(tuple(table))
        return bad

    monkeypatch.setattr(linear_mod, "compose_full", corrupt)
    with pytest.raises(ShadowMismatch):
        run_linear(aut, word, shadow=True)
    div = compare_run(aut, word, shadow=True)
    assert div is not None and div.kind == "error"
    # the memo kept the true descriptions, not the corrupted map
    assert all(aut.compiled.shadow_cache[k] == v for k, v in warmed.items()
               if k in aut.compiled.shadow_cache)


def test_shadow_memo_stays_within_its_slot_cap():
    # one long run: no segment repeats, so only the cap bounds the memo
    aut = build_anbn()
    n = 2048
    assert run_linear(aut, "a" * n + "b" * n, shadow=True).accepted
    c = aut.compiled
    assert c.shadow_cache
    assert c.shadow_slots == sum(len(k) + len(v) for k, v in c.shadow_cache.items())
    assert c.shadow_slots <= SHADOW_MEMO_SLOTS


def _seam_calls(monkeypatch, aut, word):
    """Run untraced, counting the calls made through the module names
    linear.deletion_scan and linear.compose_full, as any wrapper installed
    on them (a tracer, a test) would see them, and the largest edges among
    the compositions the wrapped compose_full returned."""
    calls = {"scan": 0, "compose": 0}
    edges = [0]
    real_scan, real_compose = linear_mod.deletion_scan, linear_mod.compose_full

    def scan(*args):
        calls["scan"] += 1
        return real_scan(*args)

    def compose(*args):
        calls["compose"] += 1
        r = real_compose(*args)
        edges.append(r.edges)
        return r

    monkeypatch.setattr(linear_mod, "deletion_scan", scan)
    monkeypatch.setattr(linear_mod, "compose_full", compose)
    out = run_linear(aut, word)
    monkeypatch.undo()
    return out, calls, max(edges)


@pytest.mark.parametrize("case", ["even_a", "anbn", "log2", "sqrt", "id"])
def test_every_scan_and_merge_goes_through_its_module_name(monkeypatch, case):
    # the letter run may skip the main loop, never the seams: one deletion_scan
    # call per scan and one compose_full call per merge, memo hits included
    if case == "even_a":
        aut = build_even_a_2dfa()
        word = next(random_words(aut.input_alphabet, 1, 1024, 1024, 0x5EED))
    elif case == "anbn":
        aut, word = build_anbn(), "a" * 128 + "b" * 128
    else:
        seed = {"log2": 2, "sqrt": 37, "id": 56}[case]
        aut = random_automaton(GenParams(4, seed, COUNTED, DLimit(case)))
        word = next(random_words(aut.input_alphabet, 1, 64, 64, seed))
    out, calls, edges_max = _seam_calls(monkeypatch, aut, word)
    assert out.scans >= 20 and out.compose_calls >= 20
    assert calls == {"scan": out.scans, "compose": out.compose_calls}
    assert out.compose_edges_max == edges_max


_D_LIMITS = ([(RANKED, DLimit.const(k)) for k in range(4)]
             + [(COUNTED, DLimit.const(k)) for k in (0, 1, 2, 4)]
             + [(COUNTED, DLimit(k)) for k in ("log2", "sqrt", "id")])


# sha256 of _fingerprint, taken from the engine that still kept per-write
# counters in RunOutcome, with those fields left out (the trace holds every
# write).  The outcomes and traces are those pinned before the sweep, when
# the main loop went round once per step: the letter run, like the sweep,
# left them as they were.  compose_edges_max was re-pinned when composition
# began to walk only what h needs: with that field left out, the digests of
# the full walk and of the crossing walk are the same.  ranked-3 was re-pinned
# when a scan record began to give only the merges the scan completed: a
# map-loop run's last scan record there had a segment reaching into the
# neighbour it left unmerged.  All but zoo-bouncer, which composes nothing,
# were re-pinned when compose_walks became the run's own walks, its memo
# misses: the runs follow one another on one machine, so a warm run reports
# fewer walks than the distinct pairs it requested.  Every other field and
# trace record was compared equal with the engine before, and every run on
# a cold twin machine gave the same compose_walks and compose_edges_max.
# Recompute only for a change that means to alter them.
_FINGERPRINTS = {
    "zoo-anbn": "54a15f2c97806421a9efd3bfe8f87790b739939387362b3ef95393262f52223d",
    "zoo-bouncer": "4023cc903c6916d30b525432abff05b1164d95600947dc94fc44669bb2d5e842",
    "zoo-even_a": "476a98c2f5adc8434b15512681356551c19623a6d5a4fc01156d6d6839f5abc5",
    "zoo-sweeper": "4c6016d059168224bbe3ce735e7bce2d6cb0556508bac4d9fbbe103cbaeef997",
    "ranked-0": "c9a467f4e38ff861e0320deb46ef64ad86181daae53bd4956dee0f391b758203",
    "ranked-1": "226452f67407e053286d5548b497c6b6278436ebaf93053f6866c773c8e8cd58",
    "ranked-2": "42e6bc9993c79dd6a92d2da82bf83a0d5f5908fc80efdaa0555952c010d118d2",
    "ranked-3": "74a5062a0ce5ef59e15dbc839a7a700e721d6de7764b042ea8941d204eafff43",
    "counted-0": "e6de0e4f935cc8940fb1c2b7a951c32e0fd06f45c9ffc1fd3b07b4b2c7962143",
    "counted-1": "0cadaa1910c9ca94362d0ca8282db6f416c9883a53ca843c402ecd6519d79989",
    "counted-2": "216b5ee231fff12482b2f4db0633bf3fb6906bb34dd5848fa500d9e18dfd48a9",
    "counted-4": "561794d95ded048b397505079f7495f68e651bd44ecf8ffaaf9c0c83cb0a0ec6",
    "counted-log2": "bce5a01b9044ba1f06779f2948d93c1373d253706fdbbbcd1b8dc74780b2c314",
    "counted-sqrt": "f74ed37f936fbed13fb3d27b094255221a89fba861768525d8fb52d90edd016a",
    "counted-id": "aa43e07751e83492b26fcec5531e6d52e1af07d57f6489fa44efbad087e9e649",
}


def _fingerprint(log, aut, words, budget_words) -> str:
    """Digest of every RunOutcome field, traces included, over the words,
    run one after another on aut; checks on the way, through log, a
    _WalkLog, that each run reports the walks it made, that tracing changes
    no outcome but in its walks (the untraced repeat finds the traced run's
    pairs in the memo), and that max_steps=k raises BudgetExceeded(k) for
    each k short of a run's length."""
    h = hashlib.sha256()
    for word in words:
        out = log.run(aut, word, trace=True)
        again = log.run(aut, word)
        assert _walkless(again) == _walkless(dataclasses.replace(out, trace=None)), word
        h.update(repr(out).encode())
    for word in budget_words:
        full = _walkless(log.run(aut, word))
        for k in range(full.steps + 1):
            try:
                got = _walkless(run_linear(aut, word, max_steps=k))
            except BudgetExceeded as e:
                got = e.steps
            assert got == k or (k == full.steps and got == full), (word, k)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_sweep_keeps_outcomes_on_zoo(monkeypatch, name):
    aut = ZOO[name]()
    words = list(words_upto(aut.input_alphabet, 6))
    words += random_words(aut.input_alphabet, 4, 200, 600, 17)
    budget_words = random_words(aut.input_alphabet, 3, 6, 24, 19)
    digest = _fingerprint(_WalkLog(monkeypatch), aut, words, budget_words)
    assert _FINGERPRINTS.get(f"zoo-{name}") == digest, digest


@pytest.mark.parametrize("mode, dlimit", _D_LIMITS,
                         ids=[f"{m}-{d.token()}" for m, d in _D_LIMITS])
def test_sweep_keeps_outcomes_on_random_machines(monkeypatch, mode, dlimit):
    rng = SplitMix64(0x5EE9)
    log = _WalkLog(monkeypatch)
    h = hashlib.sha256()
    for q in (1, 2, 3, 4, 6):
        aut = random_automaton(GenParams(q, rng.next_u64(), mode, dlimit))
        words = list(words_upto(aut.input_alphabet, 4))
        words += random_words(aut.input_alphabet, 6, 8, 96, rng.next_u64())
        budget_words = random_words(aut.input_alphabet, 3, 6, 20, rng.next_u64())
        h.update(_fingerprint(log, aut, words, budget_words).encode())
    digest = h.hexdigest()
    assert _FINGERPRINTS.get(f"{mode}-{dlimit.token()}") == digest, digest


def test_tape_ends_with_the_oracles_letters(monkeypatch):
    # a frozen cell keeps the letter it last held, so on every accepting run
    # the linear tape spells the reference engine's final tape: the letters
    # the shadow check reads
    tapes = []
    real_from_word = ListTape.from_word.__func__

    def capture(cls, aut, word):
        tapes.append(real_from_word(cls, aut, word))
        return tapes[-1]

    monkeypatch.setattr(ListTape, "from_word", classmethod(capture))
    rng = SplitMix64(0x7A9E)
    machines = [ZOO[name]() for name in sorted(ZOO)]
    machines += [random_automaton(GenParams(q, rng.next_u64(), mode, dlimit))
                 for mode, dlimit in _D_LIMITS for q in (1, 2, 3, 4, 6)]
    accepted = 0
    for aut in machines:
        words = list(words_upto(aut.input_alphabet, 5))
        words += random_words(aut.input_alphabet, 10, 8, 64, rng.next_u64())
        for word in words:
            tapes.clear()
            if not run_linear(aut, word).accepted:
                continue
            want = tape_indices(aut, word)
            for rec in run_naive(aut, word, trace=True).trace:
                want[rec[1]] = rec[4]  # replay the oracle's writes
            n = len(want) - 2
            assert tapes[0].sym[1:n + 1] == want[1:n + 1], word
            accepted += 1
    assert accepted >= 1000, accepted
