import io
import json

import pytest

from limla.model import ACCEPT, LEFT, LOOP_DETECTED, RANKED, REJECT, RIGHT, d_of
from limla.naive import run_naive
from limla.outcome import BudgetExceeded, regular_projection, write_trace
from limla.zoo import ZOO, build_anbn, build_bouncer
from limla.difftest import words_upto


def test_anbn_language_samples():
    aut = build_anbn()
    assert run_naive(aut, "aabb").verdict == ACCEPT
    assert run_naive(aut, "").verdict == ACCEPT
    out = run_naive(aut, "aab")
    assert out.verdict == REJECT and out.reason == LOOP_DETECTED
    assert run_naive(aut, "abab").verdict == REJECT


def test_bouncer_forced_two_cycle():
    aut = build_bouncer()
    out = run_naive(aut, "a", trace=True)
    assert out.verdict == REJECT and out.reason == LOOP_DETECTED
    assert out.steps <= 2 * 1 * 3
    # nothing froze, so the regular projection is the whole trace
    proj = regular_projection(aut, out)
    assert len(proj) == len(out.trace) + 1
    assert proj[0] == (aut.compiled.state_index["roam"], 1, -1, -1, -1)


# frozen from one reference run of this engine; hand-checked move by move
ANBN_AB_REGULAR = [
    ("start", 1, None, None, None),
    ("start", 1, "a", "a1", "R"),
    ("scan_a", 2, "b", "B", "L"),
    ("match_a", 1, "a1", "A", "R"),
    ("seek_b", 3, "<|", "<|", "L"),
    ("verify", 0, "|>", "|>", "R"),
]


def test_anbn_ab_regular_trace_golden():
    aut = build_anbn()
    c = aut.compiled
    out = run_naive(aut, "ab", trace=True)
    assert out.verdict == ACCEPT
    want = [(c.state_index[q], pos, -1, -1, -1) if rd is None else
            (c.state_index[q], pos, c.sym_index[rd], c.sym_index[wr],
             RIGHT if mv == "R" else LEFT)
            for q, pos, rd, wr, mv in ANBN_AB_REGULAR]
    assert regular_projection(aut, out) == want


def test_determinism():
    aut = build_anbn()
    a = run_naive(aut, "aabbab", trace=True)
    b = run_naive(aut, "aabbab", trace=True)
    assert (a.verdict, a.reason, a.steps, a.trace) == (b.verdict, b.reason, b.steps, b.trace)
    assert a.visits == b.visits and a.cell_writes == b.cell_writes


def test_steps_equals_move_sum_and_write_budget():
    for name, build in ZOO.items():
        aut = build()
        d_const = aut.dlimit.k if aut.mode == RANKED else None
        for word in words_upto(aut.input_alphabet, 5):
            out = run_naive(aut, word)
            assert out.steps == out.moves["R"] + out.moves["L"]
            n = len(word)
            budget = d_const if d_const is not None else d_of(aut.dlimit, n)
            assert out.writes <= budget * n
            assert all(w <= budget for w in out.cell_writes)


def test_quadratic_sanity_bound():
    # generous envelope: steps within 8 * (d(n)+1) * (n+2)^2 * (|Q|+1)
    for name, build in ZOO.items():
        aut = build()
        nq = len(aut.states)
        for word in ["", "a", "ab" * 4, "a" * 9, "aabb" * 2]:
            word = [t for t in word if t in aut.input_alphabet]
            n = len(word)
            d_n = aut.dlimit.k if aut.mode == RANKED else d_of(aut.dlimit, n)
            out = run_naive(aut, word)
            assert out.steps <= 8 * (d_n + 1) * (n + 2) ** 2 * (nq + 1), (name, word)


def test_rank_monotone_until_frozen():
    aut = build_anbn()
    ranks = aut.ranks
    out = run_naive(aut, "aaabbb", trace=True)
    per_cell: dict = {}
    for step, pos, state, rd, wr, mv, frozen in out.trace:
        if rd >= aut.compiled.n_letters:
            continue
        rd_tok = aut.compiled.sym_names[rd]
        wr_tok = aut.compiled.sym_names[wr]
        if not frozen:
            assert ranks[wr_tok] > ranks[rd_tok] or ranks[rd_tok] == aut.dlimit.k == 0
            seq = per_cell.setdefault(pos, [])
            seq.append((ranks[rd_tok], ranks[wr_tok]))
    for pos, seq in per_cell.items():
        flat = [r for pair in seq for r in pair]
        assert all(a <= b for a, b in zip(flat, flat[1:]))


def test_budget_exceeded_distinct_from_loop():
    aut = build_bouncer()
    with pytest.raises(BudgetExceeded) as e:
        run_naive(aut, "aaa", max_steps=1)
    assert e.value.steps == 1
    # a large enough budget changes nothing
    assert run_naive(aut, "aaa", max_steps=10_000).verdict == REJECT


def test_empty_word_initial_placement():
    # start directly on the right marker: accept iff the start state accepts
    assert run_naive(build_anbn(), "").steps == 0
    out = run_naive(build_bouncer(), "")
    assert out.verdict == REJECT and out.steps == 2


def test_trace_jsonl_schema():
    aut = build_anbn()
    out = run_naive(aut, "ab", trace=True)
    buf = io.StringIO()
    write_trace(aut, out, "naive", buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(lines) == out.steps + 1
    for rec in lines[:-1]:
        assert set(rec) == {"step", "pos", "state", "read", "write", "move", "frozen"}
        assert rec["move"] in ("L", "R")
    assert lines[-1] == {"verdict": "accept", "reason": None, "steps": out.steps}
    reject = run_naive(aut, "ba", trace=True)
    buf = io.StringIO()
    write_trace(aut, reject, "naive", buf)
    assert json.loads(buf.getvalue().splitlines()[-1])["reason"] == "loop"


def test_detector_fires_soon_after_last_write():
    for word in ("a", "aa", "ab", "aab", "abab", "bb"):
        aut = build_anbn()
        out = run_naive(aut, word)
        if out.verdict == REJECT:
            n = len(word)
            assert out.steps - out.last_write_step <= 2 * (n + 2) * len(aut.states)


def test_word_must_be_over_input_alphabet():
    with pytest.raises(ValueError):
        run_naive(build_anbn(), "abc")
    with pytest.raises(ValueError):
        run_naive(build_anbn(), ["a", "A"])  # tape letter, not input
