import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from limla.difftest import random_words, words_upto
from limla.linear import COMPOSE_MEMO_BYTES, run_linear
import limla.linear as linear_mod
import limla.mapping as mapping_mod
from limla.outcome import BudgetExceeded
from limla.mapping import (
    CompositionMemo, SegmentMap, SizeMismatch,
    cf_idx, compose_full, describe_indices, oracle_compose,
)
from limla.model import COUNTED, RANKED, DLimit, LEFT, RIGHT, Transition, Automaton, LEFT_MARKER, RIGHT_MARKER
from limla.rng import SplitMix64
from limla.zoo import GenParams, build_anbn, random_automaton


def _uniform_machine(move_by_state):
    """Counted machine over one letter x; state q maps to (next, move)."""
    states = tuple(sorted(move_by_state))
    delta = {}
    for q, (p, mv) in move_by_state.items():
        delta[(q, "x")] = Transition(p, "x", mv)
        delta[(q, LEFT_MARKER)] = Transition(q, LEFT_MARKER, "R")
        delta[(q, RIGHT_MARKER)] = Transition(q, RIGHT_MARKER, "L")
    return Automaton(mode=COUNTED, dlimit=DLimit.const(1), states=states,
                     input_alphabet=("x",), tape_alphabet=("x",), ranks={},
                     start_state=states[0], accepting=(), delta=delta)


def _rand_map(rng, q):
    return SegmentMap(tuple(rng.below(2 * q + 1) - 1 for _ in range(2 * q)))


def _shuffled(rng, n):
    """range(n) in a seeded random order (Fisher-Yates)."""
    order = list(range(n))
    for k in range(n - 1, 0, -1):
        j = rng.below(k + 1)
        order[k], order[j] = order[j], order[k]
    return order


def all_q1_maps():
    return [SegmentMap((a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]


def test_cf_all_right_letter():
    aut = _uniform_machine({"p": ("p", "R"), "q": ("q", "R")})
    m = cf_idx(aut.compiled, 0)  # the letter x
    for qi in range(2):
        assert m.table[2 * qi + RIGHT] == 2 * qi + RIGHT
        assert m.table[2 * qi + LEFT] == 2 * qi + RIGHT


def test_cf_all_left_letter():
    aut = _uniform_machine({"p": ("p", "L"), "q": ("q", "L")})
    m = cf_idx(aut.compiled, 0)  # the letter x
    for qi in range(2):
        assert m.table[2 * qi + RIGHT] == 2 * qi + LEFT
        assert m.table[2 * qi + LEFT] == 2 * qi + LEFT


def test_cf_of_anbn_frozen_letter_matches_delta():
    aut = build_anbn()
    c = aut.compiled
    m = cf_idx(c, c.sym_names.index("B"))
    for qi, q in enumerate(aut.states):
        t = aut.delta[(q, "B")]
        want = 2 * aut.states.index(t.to_state) + (RIGHT if t.move == "R" else LEFT)
        assert m.table[2 * qi + RIGHT] == want
        assert m.table[2 * qi + LEFT] == want


def test_cf_never_loops_and_ignores_direction():
    rng = SplitMix64(11)
    for _ in range(30):
        aut = random_automaton(GenParams(state_count=1 + rng.below(5),
                                         seed=rng.next_u64(), tape_per_rank=2))
        d = aut.dlimit.k
        for i, tok in enumerate(aut.tape_alphabet):
            if aut.ranks[tok] != d:
                continue
            m = cf_idx(aut.compiled, i)
            assert all(v >= 0 for v in m.table)
            assert all(m.table[2 * s] == m.table[2 * s + 1] for s in range(m.q_count))


def test_transparent_map_is_identity():
    # the map whose every entry passes straight through is the identity
    t1 = SegmentMap((0, 1))
    for f in all_q1_maps():
        assert compose_full(t1, f, CompositionMemo()).h == f
        assert compose_full(f, t1, CompositionMemo()).h == f
    rng = SplitMix64(23)
    for _ in range(300):
        q = 1 + rng.below(6)
        f = _rand_map(rng, q)
        t = SegmentMap(tuple(range(2 * q)))
        assert compose_full(t, f, CompositionMemo()).h == f
        assert compose_full(f, t, CompositionMemo()).h == f


def test_two_cycle_composes_to_loop():
    # f sends both entries rightward in q, g bounces both entries leftward:
    # the head shuttles across the internal boundary forever
    f = SegmentMap((0, 0))
    g = SegmentMap((1, 1))
    r = compose_full(f, g, CompositionMemo())
    assert r.h.table == (-1, -1)
    assert oracle_compose(f, g)[0] == (-1, -1)
    # the boundary departure is the same forced cycle
    assert r.departure(2 * 0 + RIGHT) == -1


def test_compose_matches_oracle_randomized():
    rng = SplitMix64(31)
    for _ in range(3000):
        q = 1 + rng.below(6)
        f, g = _rand_map(rng, q), _rand_map(rng, q)
        r = compose_full(f, g, CompositionMemo())
        oh, od = oracle_compose(f, g)
        assert r.h.table == oh
        assert tuple(map(r.departure, range(2 * q))) == od
        assert 2 * q <= r.edges <= 4 * q


def test_memo_returns_the_walked_result_once_per_pair():
    rng = SplitMix64(37)
    memo = CompositionMemo()
    for _ in range(500):
        q = 1 + rng.below(6)
        f, g = _rand_map(rng, q), _rand_map(rng, q)
        memo.run += 1
        memo.calls = memo.walks = 0
        r = compose_full(f, g, memo)
        plain = compose_full(f, g, CompositionMemo())
        assert (r.h, r.edges) == (plain.h, plain.edges)
        assert (r.h.table, tuple(map(r.departure, range(2 * q)))) == oracle_compose(f, g)
        # a repeat request, even through equal tables that are distinct
        # objects (tuple() of a tuple would return the same one), is a hit
        again = compose_full(SegmentMap(tuple(list(f.table))),
                             SegmentMap(tuple(list(g.table))), memo)
        assert again is r
        assert (memo.calls, memo.walks) == (2, 1)  # one distinct pair requested in this run
        assert r.run == memo.run


def _memo_bytes(q, entries, tables):
    """What run_linear charges a composition memo of that many entries and
    an intern table of that many tables."""
    return (16 * q + 320) * entries + (16 * q + 144) * tables


def _charge(memo, q):
    return _memo_bytes(q, len(memo), len(memo.maps))


def _count_evictions(monkeypatch):
    """A list that gains an item each time a memo evicts."""
    evictions = []
    real_evict = CompositionMemo.evict
    monkeypatch.setattr(CompositionMemo, "evict",
                        lambda self, *a: evictions.append(1) or real_evict(self, *a))
    return evictions


def _held_tables(c):
    """The identities of the tables that the machine's memo entries and
    cf_cache keep alive."""
    held = {id(m.table) for m in c.cf_cache.values()}
    for r in c.compose_memo.values():
        held |= {id(r._ft), id(r._gt), id(r.h.table)}
    return held


def test_compose_memo_stays_within_its_cap(monkeypatch):
    # after every run the memo and its intern table are at most the cap, and
    # only then are entries evicted, down to a full memo; large machines pass
    # the cap after a few long words
    evicted = 0
    for seed in range(16):
        q = (2, 3, 5, 32, 64)[seed % 5]
        aut = random_automaton(GenParams(q, seed, COUNTED, DLimit.const(2)))
        memo = aut.compiled.compose_memo
        if q < 32:
            words = list(words_upto(aut.input_alphabet, 6))
            words += random_words(aut.input_alphabet, 8, 20, 64, seed)
        else:
            words = list(words_upto(aut.input_alphabet, 3))
            words += random_words(aut.input_alphabet, 16, 256, 512, seed)
        for word in words:
            before = set(memo)
            run_linear(aut, word)
            assert _charge(memo, q) <= COMPOSE_MEMO_BYTES
            if not before <= memo.keys():
                evicted += 1
                # the next older entry, with at most three tables of its
                # own, did not fit; and no table outlives what holds it
                assert _charge(memo, q) + _memo_bytes(q, 1, 3) > COMPOSE_MEMO_BYTES
                assert {id(t) for t in memo.maps} == _held_tables(aut.compiled)
    assert evicted > 0
    # a run cut short by its step budget ends all the same
    params = GenParams(64, 69, COUNTED, DLimit.const(2))
    word = random_words(("a", "b"), 1, 256, 256, 69)[0]
    full = run_linear(random_automaton(params), word)
    aut = random_automaton(params)
    evictions = _count_evictions(monkeypatch)
    with pytest.raises(BudgetExceeded):
        run_linear(aut, word, max_steps=full.steps - 1)
    assert evictions == [1]  # the cut run passed the cap
    assert _charge(aut.compiled.compose_memo, 64) <= COMPOSE_MEMO_BYTES


def test_run_past_the_cap_keeps_the_newest_pairs(monkeypatch):
    # one run requests 71 pairs, more than the cap holds at |Q| = 64 with
    # their tables; evicting only the oldest leaves the rest for the next
    # run of the word
    params = GenParams(64, 69, COUNTED, DLimit.const(2))
    word = random_words(("a", "b"), 1, 256, 256, 69)[0]
    cold = run_linear(random_automaton(params), word)
    assert cold.compose_walks == 71
    aut = random_automaton(params)
    memo = aut.compiled.compose_memo
    run_linear(aut, word)
    walks = []
    real = mapping_mod._walk_glued
    monkeypatch.setattr(mapping_mod, "_walk_glued",
                        lambda ft, gt: walks.append(1) or real(ft, gt))
    for _ in range(2):
        walks.clear()
        assert run_linear(aut, word) == cold
        assert 0 < len(walks) < 71
        assert 0 < _charge(memo, 64) <= COMPOSE_MEMO_BYTES


def test_warm_large_machine_walks_no_pair_again(monkeypatch):
    # a |Q| = 64 machine keeps the pairs of a run under the cap, so running
    # the same word again walks nothing and reports the same counts
    aut = random_automaton(GenParams(64, 34, RANKED, DLimit.const(3)))
    word = random_words(aut.input_alphabet, 1, 512, 512, 34)[0]
    first = run_linear(aut, word)
    assert first.compose_walks > 4
    walks = []
    real = mapping_mod._walk_glued
    monkeypatch.setattr(mapping_mod, "_walk_glued",
                        lambda ft, gt: walks.append(1) or real(ft, gt))
    second = run_linear(aut, word)
    assert walks == []
    assert second == first  # verdict, steps, moves, scans and the three counts


def test_compose_memo_charge_covers_its_memory():
    # the bytes a memo and its intern table free when both are emptied are
    # at most what run_linear charges them; every departure is resolved
    # first, so each entry holds all it ever will
    for params, lengths, passes in (
        (GenParams(1, 0, COUNTED, DLimit.const(2)), (64, 512), 1),
        (GenParams(8, 3, COUNTED, DLimit.const(2)), (64, 512), 1),
        (GenParams(64, 2, COUNTED, DLimit.const(2)), (64, 512), 1),
        # partial evictions: kept entries share tables with evicted ones
        (GenParams(64, 34, RANKED, DLimit.const(3)), (256, 512), 3),
    ):
        q = params.state_count
        tracemalloc.start()
        try:
            aut = random_automaton(params)
            c = aut.compiled
            memo = c.compose_memo
            words = random_words(aut.input_alphabet, 16, *lengths, params.seed)
            for _ in range(passes):
                for word in words:
                    run_linear(aut, word)
            assert {id(t) for t in memo.maps} == _held_tables(c)
            for r in memo.values():
                for p in range(2 * q):
                    r.departure(p)
            r = None  # hold no entry past the clear
            entries, tables = len(memo), len(memo.maps)
            own = tables - len({id(m) for m in c.cf_cache.values()})
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            memo.clear()
            memo.maps.clear()
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries >= 4
        # each entry frees its departure list, each table not in cf_cache
        # its slots
        assert 16 * q * (entries + own) < freed <= _memo_bytes(q, entries, tables)


class _CountingTable(tuple):
    hashes = 0

    def __hash__(self):
        _CountingTable.hashes += 1
        return tuple.__hash__(self)


@pytest.mark.parametrize("q", [2, 64])
def test_memo_hit_hashes_no_table(q):
    # the first request interns f and g; every later one on them is a
    # subscript on the identities of their tables
    rng = SplitMix64(41 + q)
    f = SegmentMap(_CountingTable(_rand_map(rng, q).table))
    g = SegmentMap(_CountingTable(_rand_map(rng, q).table))
    memo = CompositionMemo()
    r = compose_full(f, g, memo)
    before = _CountingTable.hashes
    for _ in range(100):
        assert compose_full(f, g, memo) is r
    assert _CountingTable.hashes == before
    assert (memo.calls, memo.walks) == (101, 1)


def test_memo_evicting_every_run_stays_exact(monkeypatch):
    # with a cap so small that every run evicts, tables die between runs and
    # new ones may take their ids; no stale key may answer for a new table
    params = GenParams(64, 34, RANKED, DLimit.const(3))
    aut = random_automaton(params)
    memo = aut.compiled.compose_memo
    words = random_words(aut.input_alphabet, 10, 256, 512, 34)
    cold = [run_linear(random_automaton(params), w) for w in words]
    cap = _memo_bytes(64, 8, 8)
    monkeypatch.setattr(linear_mod, "COMPOSE_MEMO_BYTES", cap)
    evictions = _count_evictions(monkeypatch)
    rng = SplitMix64(34)
    for i in range(30):
        assert run_linear(aut, words[i % 10]) == cold[i % 10]
        assert len(evictions) == i + 1
        assert 0 < _charge(memo, 64) <= cap
        for r in memo.values():
            f, g = SegmentMap(r._ft), SegmentMap(r._gt)
            oh, od = oracle_compose(f, g)
            assert r.h.table == oh
            assert all(r.departure(p) == od[p] for p in _shuffled(rng, 128))


def test_associativity():
    for f in all_q1_maps():
        for g in all_q1_maps():
            for h in all_q1_maps():
                memo = CompositionMemo()
                assert compose_full(compose_full(f, g, memo).h, h, memo).h == \
                       compose_full(f, compose_full(g, h, memo).h, memo).h
    rng = SplitMix64(41)
    for _ in range(500):
        q = 1 + rng.below(6)
        f, g, h = (_rand_map(rng, q) for _ in range(3))
        memo = CompositionMemo()
        assert compose_full(compose_full(f, g, memo).h, h, memo).h == \
               compose_full(f, compose_full(g, h, memo).h, memo).h


def test_departure_through_transparent_part():
    rng = SplitMix64(53)
    for _ in range(200):
        q = 1 + rng.below(6)
        t = SegmentMap(tuple(range(2 * q)))
        g = _rand_map(rng, q)
        tg = compose_full(t, g, CompositionMemo())
        gt = compose_full(g, t, CompositionMemo())
        for s in range(q):
            # crossing rightward into g behaves exactly like g
            assert tg.departure(2 * s) == g.table[2 * s]
            # crossing leftward into g (right part is transparent)
            assert gt.departure(2 * s + 1) == g.table[2 * s + 1]


def test_size_mismatch():
    f, g = SegmentMap((0, 1)), SegmentMap((0, 1, 2, 3))
    with pytest.raises(SizeMismatch):
        compose_full(f, g, CompositionMemo())
    with pytest.raises(SizeMismatch):
        oracle_compose(f, g)


@st.composite
def _map_pairs(draw):
    """Two segment maps over |Q| in 1..8, 32 or 64; -1 entries are LOOP."""
    q = draw(st.one_of(st.integers(1, 8), st.sampled_from((32, 64))))
    entry = st.integers(-1, 2 * q - 1)
    return tuple(SegmentMap(tuple(draw(st.lists(entry, min_size=2 * q, max_size=2 * q))))
                 for _ in range(2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_map_pairs())
def test_compose_steps_within_4q_and_matches_oracle(maps):
    f, g = maps
    r = compose_full(f, g, CompositionMemo())
    # one step per h entry, plus one per crossing walked; kept resolutions
    # walk each crossing at most once
    q = f.q_count
    assert 2 * q <= r.edges <= 4 * q
    assert (r.h.table, tuple(map(r.departure, range(2 * q)))) == oracle_compose(f, g)


def _loopy_map(rng, q):
    return SegmentMap(tuple(-1 if rng.below(4) == 0 else rng.below(2 * q)
                            for _ in range(2 * q)))


# Per |Q|: (sum of edges, digest of every h table and departure table).
# The digests were recorded with the glued-graph walk that the fused kernel
# replaced, and the crossing walk with lazy departures left them as they
# were; the sums count h walk loop iterations, each checked against 2|Q|
# plus an independent count of the crossings reachable from h's entries.
_KERNEL_GOLDEN = {
    1: (1106, "bee8ddd8fe6b4b2c"),
    2: (2158, "1c0632ff7bf36b87"),
    3: (3272, "a1613a468d70547d"),
    6: (6438, "da17a26163d24e22"),
    8: (8530, "80235e198876f8e0"),
    32: (33885, "b2606670b7a6f5ed"),
    64: (68198, "49bc31d88958aea1"),
}


@pytest.mark.parametrize("q", sorted(_KERNEL_GOLDEN))
def test_compose_kernel_golden(q):
    # a quarter of the entries loop; every round composes a fresh pair and
    # folds into a running map, which drifts towards long cycles and LOOP
    rng = SplitMix64(0x601D + q)
    digest = hashlib.sha256()
    edges = 0
    m = _loopy_map(rng, q)
    for _ in range(200):
        f, g = _loopy_map(rng, q), _loopy_map(rng, q)
        for a, b in ((f, g), (m, f)):
            r = compose_full(a, b, CompositionMemo())
            digest.update(repr((r.h.table, tuple(map(r.departure, range(2 * q))))).encode())
            edges += r.edges
        m = compose_full(m, f, CompositionMemo()).h
    assert (edges, digest.hexdigest()[:16]) == _KERNEL_GOLDEN[q]


def _bouncy_pair(rng, q):
    """Maps whose exits mostly cross the seam between them: long crossing
    chains, and cycles among them."""
    def table(cross):
        return tuple((2 * rng.below(q) + (rng.below(4) == 0)) ^ cross for _ in range(2 * q))
    return SegmentMap(table(0)), SegmentMap(table(1))


@pytest.mark.parametrize("q", [*range(1, 9), 32, 64])
def test_departures_resolve_lazily_in_any_order(q):
    # departures asked for in random order, some and then all, equal the
    # oracle's, and asking changes neither h nor the edge count
    rng = SplitMix64(0x1A2E + q)
    for i in range(60):
        if i % 3 == 2:
            f, g = _bouncy_pair(rng, q)
        else:
            f, g = (_loopy_map if i % 3 else _rand_map)(rng, q), _loopy_map(rng, q)
        want_h, want_dep = oracle_compose(f, g)
        r = compose_full(f, g, CompositionMemo())
        edges = r.edges
        order = _shuffled(rng, 2 * q)
        for p in order[:rng.below(2 * q + 1)]:
            assert r.departure(p) == want_dep[p]
        assert [r.departure(p) for p in reversed(order)] == [want_dep[p] for p in reversed(order)]
        assert (r.h.table, r.edges) == (want_h, edges)


def test_edge_witness_catches_a_walk_that_forgets_resolutions(monkeypatch):
    # every h entry funnels into crossing 0 or 1 of the chain 0, 1, ..., 2q-1,
    # which then leaves leftward: the h walk walks the chain once, 4q edges
    q = 8
    f = SegmentMap(tuple(0 if c % 2 == 0 else min(c + 1, 2 * q - 1) for c in range(2 * q)))
    g = SegmentMap(tuple(c + 1 if c % 2 == 0 else 1 for c in range(2 * q)))
    r = compose_full(f, g, CompositionMemo())
    assert r.h.table == oracle_compose(f, g)[0] == (2 * q - 1,) * (2 * q)
    assert r.edges == 4 * q

    def forgetful(ft, gt, dep, c):
        # resolves crossing c right, but stores nothing for later walks
        seen = set()
        while c not in seen:
            seen.add(c)
            v = ft[c] if c & 1 else gt[c]
            if v < 0 or not (v ^ c) & 1:
                return v, len(seen)
            c = v
        return -1, len(seen)

    monkeypatch.setattr(mapping_mod, "_cross", forgetful)
    r = compose_full(f, g, CompositionMemo())
    assert r.h.table == (2 * q - 1,) * (2 * q)
    # past criterion 7's and DiffStats' 8|Q| too, not only the 4|Q| bound
    assert r.edges > 8 * q


def _described(c, idxs):
    return SegmentMap(tuple(describe_indices(c, idxs)))


def _anbn_frozen():
    """anbn's compiled form and the indices of its frozen letters A and B."""
    c = build_anbn().compiled
    return c, [c.sym_names.index(tok) for tok in ("A", "B")]


def test_describe_single_cell_is_cf():
    c, frozen = _anbn_frozen()
    for i in frozen:
        assert _described(c, [i]) == cf_idx(c, i)


def test_describe_pair_is_composition():
    c, frozen = _anbn_frozen()
    for u in frozen:
        for v in frozen:
            assert _described(c, [u, v]) == \
                   compose_full(cf_idx(c, u), cf_idx(c, v), CompositionMemo()).h


def test_fold_of_cf_equals_describe_over_anbn_letters():
    c, frozen = _anbn_frozen()
    rng = SplitMix64(71)
    for _ in range(300):
        seg = [frozen[rng.below(2)] for _ in range(1 + rng.below(8))]
        m = cf_idx(c, seg[0])
        for i in seg[1:]:
            m = compose_full(m, cf_idx(c, i), CompositionMemo()).h
        assert m == _described(c, seg)


def _frozen_samples(rng):
    """(compiled machine, its frozen letter indices): 30 ranked random
    machines with their rank-d letters, then 30 counted ones over every
    d-limit, in which every letter can freeze."""
    for _ in range(30):
        d = 1 + rng.below(3)
        aut = random_automaton(GenParams(state_count=1 + rng.below(5),
                                         seed=rng.next_u64(),
                                         dlimit=DLimit.const(d), tape_per_rank=2))
        yield aut.compiled, [i for i, t in enumerate(aut.tape_alphabet) if aut.ranks[t] == d]
    limits = (DLimit.const(1), DLimit.const(2), DLimit("log2"), DLimit("sqrt"), DLimit("id"))
    for k in range(30):
        c = random_automaton(GenParams(state_count=1 + rng.below(5), seed=rng.next_u64(),
                                       mode=COUNTED, dlimit=limits[k % len(limits)])).compiled
        yield c, list(range(c.n_letters))


def test_homomorphism_on_random_machines():
    rng = SplitMix64(83)
    for c, frozen in _frozen_samples(rng):
        for _ in range(20):
            u = [frozen[rng.below(len(frozen))] for _ in range(1 + rng.below(4))]
            v = [frozen[rng.below(len(frozen))] for _ in range(1 + rng.below(4))]
            assert compose_full(_described(c, u), _described(c, v), CompositionMemo()).h \
                == _described(c, u + v)
            m = cf_idx(c, u[0])
            for i in u[1:] + v:
                m = compose_full(m, cf_idx(c, i), CompositionMemo()).h
            assert m == _described(c, u + v)
