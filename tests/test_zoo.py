import dataclasses
import tracemalloc

import pytest

from limla.difftest import compare_run, random_words, words_upto
from limla.fmt import serialize_machine
from limla.linear import run_linear
from limla.model import (
    ACCEPT, COUNTED, ID, LOG2, RANKED, REJECT, SQRT, DLimit, dlimit_error, validate_automaton,
)
from limla.naive import run_naive
from limla.rng import SplitMix64
from limla import zoo
from limla.zoo import (
    MAX_TRANSITIONS, GenParams, ZOO, build_anbn, build_bouncer, build_even_a_2dfa, build_sweeper,
    random_automaton,
)

from trace_writes import write_profile


def test_all_builders_validate():
    for name, build in ZOO.items():
        assert validate_automaton(build()).ok, name


def test_anbn_exhaustive_against_predicate():
    aut = build_anbn()
    for word in words_upto("ab", 14):
        n = len(word)
        expect = n % 2 == 0 and word == ("a",) * (n // 2) + ("b",) * (n // 2)
        got = run_naive(aut, word).verdict == ACCEPT
        assert got == expect, word


def test_even_a_against_parity_count():
    aut = build_even_a_2dfa()
    words = random_words("ab", 500, 0, 12, seed=0xEA)
    for word in words:
        expect = word.count("a") % 2 == 0
        assert (run_naive(aut, word).verdict == ACCEPT) == expect
        assert (run_linear(aut, word).verdict == ACCEPT) == expect


def test_bouncer_rejects_everything():
    aut = build_bouncer()
    for n in range(0, 12):
        word = "a" * n
        out = run_naive(aut, word, trace=True)
        assert out.verdict == REJECT
        _, last_write = write_profile(out, n)
        assert out.steps - last_write <= 2 * (n + 2) * 1
        lin = run_linear(aut, word)
        assert lin.verdict == REJECT


def test_sweeper_write_profile():
    aut = build_sweeper()
    for n in (0, 1, 2, 3, 5, 9, 16):
        word = "ab" * (n // 2) + "a" * (n % 2)
        out = run_naive(aut, word, trace=True)
        assert out.verdict == REJECT
        assert write_profile(out, n)[0][1:n + 1] == [n] * n
        # sweeps until everything froze, plus one detection lap:
        # exactly (n+1)(n+2) - 1 steps for n >= 1
        if n >= 1:
            assert out.steps == (n + 1) * (n + 2) - 1
        assert n * (n + 1) <= out.steps <= 4 * (n + 2) * (n + 1) + 2
        assert run_linear(aut, word).verdict == REJECT


def test_sweeper_visit_budget():
    aut = build_sweeper()
    out = run_naive(aut, "abab", trace=True)
    # letters change only during the first d(n)=n visits of each cell
    assert sum(write_profile(out, 4)[0]) == 4 * 4


def test_random_automaton_deterministic():
    p = GenParams(state_count=4, seed=987654321, tape_per_rank=2)
    a, b = random_automaton(p), random_automaton(p)
    assert a == b
    assert serialize_machine(a) == serialize_machine(b)
    other = random_automaton(dataclasses.replace(p, seed=987654322))
    assert other != a


def test_random_automata_all_valid():
    rng = SplitMix64(2024)
    for _ in range(1000):
        p = GenParams(state_count=1 + rng.below(5), seed=rng.next_u64(),
                      dlimit=DLimit.const(rng.below(4)),
                      input_alphabet_size=1 + rng.below(3),
                      tape_per_rank=1 + rng.below(2))
        assert validate_automaton(random_automaton(p)).ok


def test_rank_jump_coverage_at_d3():
    # every legal (read rank -> written rank) pair appears across seeds
    seen = set()
    rng = SplitMix64(7)
    for _ in range(1000):
        aut = random_automaton(GenParams(state_count=2, seed=rng.next_u64(),
                                         dlimit=DLimit.const(3), tape_per_rank=1))
        for (q, s), t in aut.delta.items():
            if s in aut.ranks and t.write in aut.ranks:
                seen.add((aut.ranks[s], aut.ranks[t.write]))
    assert {(r, w) for r in range(3) for w in range(r + 1, 4)} <= seen


def test_generated_machines_agree_between_engines():
    rng = SplitMix64(5150)
    for _ in range(20):
        aut = random_automaton(GenParams(state_count=4, seed=rng.next_u64(),
                                         dlimit=DLimit.const(2)))
        assert [w for w in words_upto(aut.input_alphabet, 5)
                if compare_run(aut, w) is not None] == []


def _empty_tables(monkeypatch):
    monkeypatch.setattr(zoo, "_RECORDS", {})
    monkeypatch.setattr(zoo, "_KEYS", {})


def _held() -> int:
    return len(zoo._RECORDS) + sum(map(len, zoo._KEYS.values()))


def test_generated_machines_bytes_per_transition(monkeypatch):
    # perfbench random's classes: interned names, one shared record per
    # distinct transition and one key tuple per (state, symbol) of a shape
    # keep a grid of 180 machines near 45 bytes a transition, the tables
    # counted; the bound sits below the 149 of a record and a key tuple per
    # transition
    _empty_tables(monkeypatch)
    classes = ((RANKED, DLimit.const(1)), (RANKED, DLimit.const(3)),
               (COUNTED, LOG2), (COUNTED, SQRT), (COUNTED, ID))
    tracemalloc.start()
    try:
        machines = [random_automaton(GenParams(q, seed, mode, dlimit))
                    for q in (8, 32, 64) for mode, dlimit in classes for seed in range(12)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    transitions = sum(len(aut.delta) for aut in machines)
    assert held / transitions < 90, held / transitions


def test_generated_machines_share_records_and_keys(monkeypatch):
    _empty_tables(monkeypatch)
    a = random_automaton(GenParams(4, 11, RANKED, DLimit.const(1)))
    b = random_automaton(GenParams(4, 12, RANKED, DLimit.const(1)))
    assert list(a.delta) == list(b.delta)
    assert all(ka is kb for ka, kb in zip(a.delta, b.delta))
    shared = [key for key, t in a.delta.items() if b.delta[key] == t]
    assert shared
    assert all(a.delta[key] is b.delta[key] for key in shared)
    # another shape has its own keys, but the same records
    c = random_automaton(GenParams(2, 13, RANKED, DLimit.const(1)))
    assert next(iter(c.delta)) is not next(iter(a.delta))
    records = {id(t) for aut in (a, b) for t in aut.delta.values()}
    assert {id(t) for t in c.delta.values()} & records


def test_shared_tables_stay_within_their_cap(monkeypatch):
    # ranked d=1 over a and b: 5 symbols, so a machine of q states could
    # add 10q slots; at q = 32 it alone could pass the cap, and keeps its own
    params = [GenParams(q, 100 * q + seed, mode, dlimit)
              for q in (1, 3, 8, 16, 32) for seed in range(4)
              for mode, dlimit in ((RANKED, DLimit.const(1)), (COUNTED, SQRT))]
    _empty_tables(monkeypatch)
    monkeypatch.setattr(zoo, "SHARED_SLOTS", 200)
    capped, held = [], []
    for p in params:
        capped.append(serialize_machine(random_automaton(p)))
        held.append(_held())
    assert max(held) <= 200
    # the tables only grow, except where a machine emptied them first
    assert any(after < before for before, after in zip(held, held[1:]))
    # the eight machines of 32 states leave them as they were
    assert len(set(held[-9:])) == 1
    fresh = []
    for p in params:
        _empty_tables(monkeypatch)
        fresh.append(serialize_machine(random_automaton(p)))
    assert capped == fresh


def test_gen_params_validation():
    with pytest.raises(ValueError):
        random_automaton(GenParams(state_count=0, seed=1))
    with pytest.raises(ValueError):
        random_automaton(GenParams(state_count=1, seed=1, tape_per_rank=0))
    with pytest.raises(ValueError):
        random_automaton(GenParams(state_count=1, seed=1, dlimit=DLimit("id")))
    # more transitions than the generator draws: refused before allocating
    with pytest.raises(ValueError, match="transitions"):
        random_automaton(GenParams(state_count=2, seed=1, dlimit=DLimit.const(10 ** 11)))
    with pytest.raises(ValueError, match="transitions"):
        random_automaton(GenParams(state_count=MAX_TRANSITIONS, seed=1, mode=COUNTED))


def test_generator_refuses_the_dlimits_the_validator_refuses():
    for mode, dlimit in ((COUNTED, DLimit("foo")), (RANKED, DLimit("foo")), (RANKED, LOG2),
                         (COUNTED, DLimit.const(-1)), (RANKED, DLimit.const(-1))):
        with pytest.raises(ValueError) as e:
            random_automaton(GenParams(2, 1, mode, dlimit))
        assert str(e.value) == dlimit_error(mode, dlimit), (mode, dlimit)


def test_splitmix64_reference_sequence():
    # first outputs of the published reference algorithm
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
