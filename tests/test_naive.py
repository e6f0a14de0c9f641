import collections
import dataclasses
import hashlib
import io
import json
import sys
import threading

import pytest

import limla.naive as naive_mod
from limla.linear import run_linear
from limla.model import (ACCEPT, COUNTED, DLimit, LEFT, LOOP_DETECTED, RANKED, REJECT, RIGHT, d_of,
                         visit_limit)
from limla.naive import run_naive
from limla.outcome import BudgetExceeded, regular_projection, write_trace
from limla.rng import SplitMix64
from limla.zoo import ZOO, GenParams, build_anbn, build_bouncer, build_even_a_2dfa, random_automaton
from limla.difftest import random_words, words_upto

from peak_rss import bytes_per_letter
from trace_writes import write_profile


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
    assert proj[0] == (aut.states.index("roam"), 1, -1, -1, -1)


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
    want = [(aut.states.index(q), pos, -1, -1, -1) if rd is None else
            (aut.states.index(q), pos, c.sym_names.index(rd), c.sym_names.index(wr),
             RIGHT if mv == "R" else LEFT)
            for q, pos, rd, wr, mv in ANBN_AB_REGULAR]
    assert regular_projection(aut, out) == want


def test_determinism():
    aut = build_anbn()
    a = run_naive(aut, "aabbab", trace=True)
    b = run_naive(aut, "aabbab", trace=True)
    assert (a.verdict, a.reason, a.steps, a.trace) == (b.verdict, b.reason, b.steps, b.trace)


def test_steps_equals_move_sum_and_write_budget():
    for name, build in ZOO.items():
        aut = build()
        d_const = aut.dlimit.k if aut.mode == RANKED else None
        for word in words_upto(aut.input_alphabet, 5):
            out = run_naive(aut, word, trace=True)
            assert out.steps == out.moves["R"] + out.moves["L"]
            n = len(word)
            budget = d_const if d_const is not None else d_of(aut.dlimit, n)
            cell_writes, _ = write_profile(out, n)
            assert sum(cell_writes) <= budget * n
            assert all(w <= budget for w in cell_writes)


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
        out = run_naive(aut, word, trace=True)
        if out.verdict == REJECT:
            n = len(word)
            _, last_write = write_profile(out, n)
            assert out.steps - last_write <= 2 * (n + 2) * len(aut.states)


def test_word_must_be_over_input_alphabet():
    with pytest.raises(ValueError):
        run_naive(build_anbn(), "abc")
    with pytest.raises(ValueError):
        run_naive(build_anbn(), ["a", "A"])  # tape letter, not input


@pytest.mark.parametrize("engine", [run_naive, run_linear])
def test_negative_budget_takes_no_step(engine):
    # max_steps < 0 is spent before the first step, like 0: BudgetExceeded(0),
    # unless the empty word accepts at step 0
    assert engine(build_anbn(), "", max_steps=-1).verdict == ACCEPT
    for aut, word in ((build_anbn(), "ab"), (build_bouncer(), ""), (build_bouncer(), "a")):
        for k in (-7, -1):
            with pytest.raises(BudgetExceeded) as e:
                engine(aut, word, max_steps=k)
            assert e.value.steps == 0, (word, k)


_D_LIMITS = ([(RANKED, DLimit.const(k)) for k in range(4)]
             + [(COUNTED, DLimit.const(k)) for k in (0, 1, 2, 4)]
             + [(COUNTED, DLimit(k)) for k in ("log2", "sqrt", "id")])


# sha256 of _fingerprint, taken from the engine that still kept per-write
# counters in RunOutcome, with those fields left out (the trace holds every
# write).  The outcomes and traces are those pinned before the step loop was
# rewritten to test one frozen rule.  Recompute only for a change that means
# to alter outcomes or traces.
_FINGERPRINTS = {
    "zoo-anbn": "ea5b451e1d486acf4ac36001812c2afdcc7e7e0cfa3e7c4e907ba908c4950104",
    "zoo-bouncer": "87ab6adf9d89f8b7093e14405388ad8c2b97afdfa6b17674c544228e3238dd77",
    "zoo-even_a": "6aeb83c711eb038828c54c6114dbfe734b54c2419affa4e6fdb7f7a859b51f73",
    "zoo-sweeper": "995bf42e6eb4cc7608fd4427657be8549c7eda888f1e813258a81310e30321b5",
    "ranked-0": "5d332a4995378860b9e9e6351cbab4b03d1ac52897cbb05211ef510b17c78cc4",
    "ranked-1": "9e5a790323204bd467170583092332ba3aecbd950fd35f0f410d9a1969c6b7c8",
    "ranked-2": "758e795dc1696351cd9f6672d7ca07144743f2981d82e2f70401fc11d0d73fab",
    "ranked-3": "259fd45e6eba805b12d76631b051fb95090230fbd8d65383d539ef3d516f7fcf",
    "counted-0": "5db104b21d4f5d94a188b7b5619eaa57d032dff9a9e11167da8420881a6d65a9",
    "counted-1": "3df0e3757c9e3fbb8f98ca8a2aa2eea1e6de244c09bc03dfc696ef6331d9d06d",
    "counted-2": "792f1a0bdd385c5cc273c5d17fa71f0141953b3d79651a26f9442dd32a5bdd4d",
    "counted-4": "2e360095834819150ac5fbb758fe63e5396e6c50d68295419780e2f7a1def8c5",
    "counted-log2": "da18413c0cff10f34bfbcaa1c27c720b48b3c543699f6606e003acab0ba8ca2e",
    "counted-sqrt": "44f03fc31d69d10681b90a4dcefd29b9098a288d991e878cd88d9a5ca180ac72",
    "counted-id": "184e027ce89e343c64b5c10b8a91dd58f5da4731087ace346ff7a915eb2baa77",
}


def _fingerprint(aut, words, budget_words) -> str:
    """Digest of every RunOutcome field, traces included, over the words.

    Checks on the way that tracing changes no outcome, that the move counts
    agree with the trace's move column, and that max_steps=k raises
    BudgetExceeded(max(k, 0)) until the budget covers the run: its steps on
    an accepting run, one more on a rejecting one (the detector fires on the
    step it refuses to take)."""
    h = hashlib.sha256()
    for word in words:
        out = run_naive(aut, word, trace=True)
        assert run_naive(aut, word) == dataclasses.replace(out, trace=None), word
        right = sum(rec[5] == RIGHT for rec in out.trace)
        assert out.moves == {"R": right, "L": len(out.trace) - right}, word
        h.update(repr(out).encode())
    for word in budget_words:
        full = run_naive(aut, word)
        covers = full.steps + (not full.accepted)
        for k in range(-1, covers + 1):
            try:
                got = run_naive(aut, word, max_steps=k)
            except BudgetExceeded as e:
                got = e.steps
            assert got == (full if max(k, 0) >= covers else max(k, 0)), (word, k)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_outcomes_pinned_on_zoo(name):
    aut = ZOO[name]()
    words = list(words_upto(aut.input_alphabet, 6))
    words += random_words(aut.input_alphabet, 4, 200, 600, 17)
    budget_words = random_words(aut.input_alphabet, 3, 6, 24, 19)
    digest = _fingerprint(aut, words, budget_words)
    assert _FINGERPRINTS.get(f"zoo-{name}") == digest, digest


@pytest.mark.parametrize("mode, dlimit", _D_LIMITS,
                         ids=[f"{m}-{d.token()}" for m, d in _D_LIMITS])
def test_outcomes_pinned_on_random_machines(mode, dlimit):
    rng = SplitMix64(0x0AC1E)
    h = hashlib.sha256()
    for q in (1, 2, 3, 4, 6):
        aut = random_automaton(GenParams(q, rng.next_u64(), mode, dlimit))
        words = list(words_upto(aut.input_alphabet, 4))
        words += random_words(aut.input_alphabet, 6, 8, 96, rng.next_u64())
        budget_words = random_words(aut.input_alphabet, 3, 6, 20, rng.next_u64())
        h.update(_fingerprint(aut, words, budget_words).encode())
    digest = h.hexdigest()
    assert _FINGERPRINTS.get(f"{mode}-{dlimit.token()}") == digest, digest


def _check_first_repeated_pair(aut, word) -> bool:
    """On a rejecting run, rebuild the stretch from the trace alone: the
    (pos, state) pairs of the records since the last one whose read differs
    from its write.  No recorded step repeats a pair of its stretch, and the
    refused step, the one delta gives after the last record, does.  Returns
    whether the run rejected."""
    out = run_naive(aut, word, trace=True)
    if out.verdict != REJECT:
        return False
    assert out.reason == LOOP_DETECTED
    stretch = set()
    for rec in out.trace:
        _, pos, state, rd, wr, _, _ = rec
        if rd != wr:
            stretch = set()
            continue
        assert (pos, state) not in stretch, (word, rec)
        stretch.add((pos, state))
    _, pos, state, rd, _, mv, _ = out.trace[-1]
    t = aut.delta[aut.states[state], aut.compiled.sym_names[rd]]
    refused = (pos + 1 if mv == RIGHT else pos - 1, aut.states.index(t.to_state))
    assert refused in stretch, (word, refused)
    return True


def test_detector_fires_on_the_first_repeated_pair():
    rejected = 0
    for build in ZOO.values():
        aut = build()
        for word in words_upto(aut.input_alphabet, 6):
            rejected += _check_first_repeated_pair(aut, word)
    rng = SplitMix64(0xF125)
    for mode, dlimit in _D_LIMITS:
        for q in (1, 2, 3, 4, 6):
            aut = random_automaton(GenParams(q, rng.next_u64(), mode, dlimit))
            words = list(words_upto(aut.input_alphabet, 4))
            words += random_words(aut.input_alphabet, 4, 8, 48, rng.next_u64())
            for word in words:
                rejected += _check_first_repeated_pair(aut, word)
    assert rejected >= 1000, rejected


def test_frozen_flag_recounted_from_the_trace():
    # a record is frozen exactly when it reads a letter that is fixed, or one
    # whose cell has already had visit_limit counted visits: the earlier
    # records at its pos that are not frozen; a marker step never is
    rng = SplitMix64(0xF202)
    machines = [build() for build in ZOO.values()]
    machines += [random_automaton(GenParams(q, rng.next_u64(), mode, dlimit))
                 for mode, dlimit in _D_LIMITS for q in (1, 2, 3, 4, 6)]
    frozen_steps = marker_steps = 0
    for aut in machines:
        c = aut.compiled
        words = list(words_upto(aut.input_alphabet, 4))
        words += random_words(aut.input_alphabet, 4, 8, 48, rng.next_u64())
        for word in words:
            limit = visit_limit(aut, len(word))
            counted = collections.Counter()
            for rec in run_naive(aut, word, trace=True).trace:
                _, pos, _, rd, _, _, frozen = rec
                marker = rd >= c.n_letters
                assert frozen == (not marker and (c.fixed[rd] or counted[pos] >= limit)), \
                    (word, rec)
                counted[pos] += not frozen
                frozen_steps += frozen
                marker_steps += marker
    assert frozen_steps >= 3000 and marker_steps >= 3000, (frozen_steps, marker_steps)


def _kept_table():
    """The stamp table kept between runs, or None."""
    return naive_mod._spare[-1] if naive_mod._spare else None


def _slots(table) -> int:
    """The slots in a table's rows, counted from the rows themselves."""
    return sum(len(row) for row in table.rows if row is not None)


def _outcome(aut, word, max_steps):
    try:
        return run_naive(aut, word, trace=True, max_steps=max_steps)
    except BudgetExceeded as e:
        return e.steps


def test_reused_stamp_table_is_invisible(monkeypatch):
    # one sequence of runs on the kept stamp table, in which the table gains
    # rows as |Q| grows, is made afresh with longer rows as the words grow,
    # is dropped after a run above STAMP_SLOTS, and is made afresh once its
    # generation has passed 2**30; every outcome, trace included, and every
    # BudgetExceeded equals the same run on a fresh table
    rng = SplitMix64(0x57A3)
    short = [build() for build in ZOO.values()]
    short += [random_automaton(GenParams(q, rng.next_u64(), *_D_LIMITS[q % len(_D_LIMITS)]))
              for q in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)]
    again = [(aut, word, None) for aut in short for word in words_upto(aut.input_alphabet, 2)]
    cases = []
    for aut in short:  # more rows, with a max_steps cut at every step
        for word in random_words(aut.input_alphabet, 3, 4, 8, rng.next_u64()):
            full = run_naive(aut, word)
            cases += [(aut, word, k) for k in range(full.steps + 1)]
        cases += [(aut, word, None) for word in words_upto(aut.input_alphabet, 3)]
    for aut in short[:len(ZOO)]:  # longer rows
        cases += [(aut, word, None) for word in random_words(aut.input_alphabet, 2, 120, 120, 23)]
    for n in (200, 300, 400, 500, 600):
        aut = random_automaton(GenParams(1 + rng.below(16), rng.next_u64(), RANKED, DLimit.const(1)))
        cases += [(aut, word, None) for word in random_words(aut.input_alphabet, 2, n, n, n)]
    cases += again
    for q in (32, 64):  # above STAMP_SLOTS
        aut = random_automaton(GenParams(q, 7, RANKED, DLimit.const(0)))
        cases += [(aut, word, None) for word in random_words(aut.input_alphabet, 4, 600, 700, 3)]
    cases += again + [None] + again  # None: the kept table's generation passes 2**30

    fresh = []
    for case in filter(None, cases):
        monkeypatch.setattr(naive_mod, "_spare", [])
        fresh.append(_outcome(*case))
    monkeypatch.setattr(naive_mod, "_spare", [])
    want = iter(fresh)
    seen = set()
    for case in cases:
        before = _kept_table()
        if case is None:
            before.gen = 2 ** 30 + 1
            continue
        slots = before and _slots(before)
        assert _outcome(*case) == next(want), case
        after = _kept_table()
        assert after is None or _slots(after) <= naive_mod.STAMP_SLOTS
        if before is None or after is None:
            seen.add("dropped" if after is None else "made")
        elif after is before:
            if _slots(after) > slots:
                seen.add("more rows")
        elif after.length > before.length:
            seen.add("longer rows")
        elif before.gen > 2 ** 30:
            seen.add("generation reset")
    assert seen == {"made", "more rows", "longer rows", "dropped", "generation reset"}, seen


def test_concurrent_runs_each_take_their_own_table():
    # runs on four threads, switching every microsecond, each take the kept
    # table or make their own, so none reads another run's stamps
    even_a = build_even_a_2dfa()  # writes nothing, so a run keeps one generation
    cases = [(even_a, word) for word in random_words(even_a.input_alphabet, 200, 100, 300, 0x7EAD)]
    cases += [(build_anbn(), "a" * k + "b" * k) for k in range(10, 20)]
    want = [run_naive(aut, word, trace=True) for aut, word in cases]
    got = {}

    def rotated(i):
        got[i] = [run_naive(aut, word, trace=True) for aut, word in cases[i:] + cases[:i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rotated, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert got[i] == want[i:] + want[:i], i


_NAIVE_RSS = """
import gc
from limla.naive import run_naive
from limla.zoo import build_even_a_2dfa

n = 10 ** 6
aut = build_even_a_2dfa()
run_naive(aut, "ab")
word = "ab" * (n // 2)  # n bytes, made with no larger transient to hide a peak
gc.collect()
before = peak_kb()
assert run_naive(aut, word).accepted
print((peak_kb() - before) * 1024 / n)
"""


def test_naive_run_peak_rss_per_letter():
    # an even_a run keeps the tape and the visit counts, 8 bytes a slot each
    # (their ints are cached small ones), and a stamp row of 8-byte slots for
    # each state that stamps, here 2 of |Q| = 3: 8 + 8 + 2 * 8 = 32 bytes a
    # letter, against 40 with a stamp for every state allocated up front and
    # 87 with a set of (position, state) keys, each a fresh int
    assert bytes_per_letter(_NAIVE_RSS) <= 36


_NAIVE_RSS_64 = """
import gc
from limla.difftest import random_words
from limla.model import RANKED, DLimit
from limla.naive import run_naive
from limla.zoo import GenParams, random_automaton

n = 10 ** 5
aut = random_automaton(GenParams(64, 7, RANKED, DLimit.const(0)))
run_naive(aut, "ab")
word = next(random_words(aut.input_alphabet, 1, n, n, 7))
gc.collect()
before = peak_kb()
run_naive(aut, word)
print((peak_kb() - before) * 1024 / n)
"""


def test_naive_run_peak_rss_per_letter_at_64_states():
    # this run stamps in 33 of its 64 states before the detector fires:
    # 8 + 8 + 33 * 8 = 280 bytes a letter, read as about 270 since the run
    # reuses memory that the word's maker freed, against 16 + 64 * 8 = 528
    # with a stamp for every state allocated up front
    assert bytes_per_letter(_NAIVE_RSS_64) <= 320
