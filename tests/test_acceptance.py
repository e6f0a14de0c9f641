"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The differential
workload (criterion 1) is executed once in a module fixture and shared by
the criteria that piggyback on its runs (5, 7, 9).
"""
import dataclasses
import time

import pytest

from limla.bench import doubling_ratios, fit_scaling, run_bench
from limla.difftest import DiffStats, compare_run, random_words, step_budget, words_upto
from limla.linear import run_linear
from limla.mapping import CompositionMemo, SegmentMap, cf_idx, compose_full, describe_indices, oracle_compose
from limla.model import DLimit, REJECT, validate_automaton
from limla.naive import run_naive
from limla.rng import SplitMix64
from limla.zoo import GenParams, ZOO, build_anbn, build_bouncer, build_sweeper, random_automaton

from trace_writes import write_profile

N_RANDOM_MACHINES = 200
RANDOM_WORD_LEN = 10
ZOO_WORD_LEN = 12


def _criterion1_machines():
    master = SplitMix64(0xC1A55)
    out = []
    for _ in range(N_RANDOM_MACHINES):
        params = GenParams(
            state_count=1 + master.below(5),         # |Q| <= 5
            dlimit=DLimit.const(master.below(4)),    # d <= 3
            input_alphabet_size=2,
            tape_per_rank=1 + master.below(2),
            seed=master.next_u64(),
        )
        out.append(random_automaton(params))
    return out


@pytest.fixture(scope="module")
def diff_results():
    stats = DiffStats()
    divergences = []
    t0 = time.monotonic()
    for aut in _criterion1_machines():
        divergences += [d for d in
                        (compare_run(aut, w, shadow=True, stats=stats)
                         for w in words_upto(aut.input_alphabet, RANDOM_WORD_LEN))
                        if d is not None]
    for name, build in ZOO.items():
        aut = build()
        divergences += [d for d in
                        (compare_run(aut, w, shadow=True, stats=stats)
                         for w in words_upto(aut.input_alphabet, ZOO_WORD_LEN))
                        if d is not None]
    return {"stats": stats, "divergences": divergences,
            "elapsed": time.monotonic() - t0}


def test_criterion_1_differential_equivalence(diff_results):
    stats = diff_results["stats"]
    divs = diff_results["divergences"]
    assert divs == [], [f"{d.kind}: {d.detail} word={d.word}" for d in divs[:5]]
    print(f"\ncriterion 1: PASS  differential equivalence over {stats.runs} runs "
          f"({N_RANDOM_MACHINES} random machines x words<= {RANDOM_WORD_LEN}, "
          f"zoo x words<={ZOO_WORD_LEN}) in {diff_results['elapsed']:.1f}s")


def _random_map(rng, q):
    return SegmentMap(tuple(rng.below(2 * q + 1) - 1 for _ in range(2 * q)))


def test_criterion_2_algebra_oracle():
    rng = SplitMix64(0xA19E)
    t0 = time.monotonic()
    for _ in range(10_000):
        q = 1 + rng.below(6)
        f, g = _random_map(rng, q), _random_map(rng, q)
        r = compose_full(f, g, CompositionMemo())
        oh, od = oracle_compose(f, g)
        assert r.h.table == oh
        assert tuple(map(r.departure, range(2 * q))) == od
        assert 2 * q <= r.edges <= 4 * q
    for _ in range(1_000):
        q = 1 + rng.below(6)
        f, g, h = (_random_map(rng, q) for _ in range(3))
        memo = CompositionMemo()
        assert compose_full(compose_full(f, g, memo).h, h, memo).h == \
               compose_full(f, compose_full(g, h, memo).h, memo).h
        t = SegmentMap(tuple(range(2 * q)))
        assert compose_full(t, f, memo).h == f and compose_full(f, t, memo).h == f
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 2: PASS  10^4 compose+departure vs oracle, 10^3 associativity, "
          f"identity; {elapsed:.1f}s")


def test_criterion_3_homomorphism():
    rng = SplitMix64(0x803)
    checked = 0
    for _ in range(100):
        d = 1 + rng.below(3)
        aut = random_automaton(GenParams(
            state_count=1 + rng.below(5), seed=rng.next_u64(),
            dlimit=DLimit.const(d), tape_per_rank=2))
        c = aut.compiled
        frozen = [i for i, t in enumerate(aut.tape_alphabet) if aut.ranks[t] == d]
        for _ in range(100):
            seg = [frozen[rng.below(len(frozen))] for _ in range(1 + rng.below(8))]
            m = cf_idx(c, seg[0])
            for i in seg[1:]:
                r = compose_full(m, cf_idx(c, i), CompositionMemo())
                assert r.edges <= 4 * c.n_states
                m = r.h
            assert m == SegmentMap(tuple(describe_indices(c, seg)))
            checked += 1
    assert checked == 10_000
    print(f"\ncriterion 3: PASS  fold of single-cell maps equals brute-force "
          f"description on {checked} frozen strings")


@pytest.fixture(scope="module")
def anbn_profile():
    aut = build_anbn()
    naive = run_bench(aut, "anbn", ("naive",), (128, 256, 512), "anbn")
    linear = run_bench(aut, "anbn", ("linear",), (128, 256, 512), "anbn")
    return aut, naive, linear


def test_criterion_4_quadratic_naive_profile(anbn_profile):
    _, naive, _ = anbn_profile
    ratios = doubling_ratios(naive)
    fit = fit_scaling(naive)
    assert all(3.4 <= r <= 4.6 for r in ratios), ratios
    assert 1.8 <= fit.slope <= 2.2, fit
    print(f"\ncriterion 4: PASS  naive steps {[r.steps for r in naive]} "
          f"ratios {[round(r, 2) for r in ratios]} slope {fit.slope:.3f}")


def test_criterion_5_linear_engine_profile(anbn_profile, diff_results):
    aut, _, linear = anbn_profile
    ratios = doubling_ratios(linear)
    fit = fit_scaling(linear)
    assert all(1.6 <= r <= 2.4 for r in ratios), ratios
    for row in linear:
        assert row.steps <= step_budget(aut, row.n)
    stats = diff_results["stats"]
    assert stats.bound_violations == []
    assert stats.scan_violations == []
    print(f"\ncriterion 5: PASS  linear steps {[r.steps for r in linear]} "
          f"ratios {[round(r, 2) for r in ratios]} slope {fit.slope:.3f}; "
          f"step budget respected on all {stats.runs} differential runs")


@pytest.fixture(scope="module")
def sweeper_runs():
    aut = build_sweeper()
    runs = {}
    for n in range(0, 129):
        word = ("a",) * n
        runs[n] = (run_naive(aut, word, trace=True), run_linear(aut, word))
    return aut, runs


def test_criterion_6_growing_budget_mode(sweeper_runs):
    aut, runs = sweeper_runs
    for n, (no, lo) in runs.items():
        assert no.verdict == lo.verdict == REJECT
        assert write_profile(no, n)[0][1:n + 1] == [n] * n, f"n={n}"
        assert lo.steps <= step_budget(aut, n)
    rows = run_bench(aut, "sweeper", ("naive",), (32, 64, 128, 256), "unary")
    fit = fit_scaling(rows)
    assert 1.8 <= fit.slope <= 2.2, fit
    print(f"\ncriterion 6: PASS  verdicts equal for n<=128, per-cell writes == n, "
          f"naive slope {fit.slope:.3f}")


def test_criterion_7_composition_complexity_witness(diff_results):
    stats = diff_results["stats"]
    assert stats.edge_violations == []
    # direct probe at the largest size used anywhere in the suites
    rng = SplitMix64(0x7E57)
    for _ in range(2_000):
        q = 6
        r = compose_full(_random_map(rng, q), _random_map(rng, q), CompositionMemo())
        assert r.edges <= 8 * q
    print("\ncriterion 7: PASS  composition walk stayed within 8*|Q| edge "
          "traversals on every call")


def test_criterion_8_loop_handling():
    rng = SplitMix64(0x100B)
    machines = [build_bouncer()]
    for _ in range(50):
        aut = random_automaton(GenParams(
            state_count=1 + rng.below(4), seed=rng.next_u64(),
            dlimit=DLimit.const(rng.below(3)), tape_per_rank=1))
        aut = dataclasses.replace(aut, accepting=())  # accepting unreachable
        assert validate_automaton(aut).ok
        machines.append(aut)
    runs = 0
    for i, aut in enumerate(machines):
        nq = len(aut.states)
        for word in random_words(aut.input_alphabet, 100, 0, 12, seed=i):
            n = len(word)
            no = run_naive(aut, word, trace=True)
            assert no.verdict == REJECT
            assert no.steps - write_profile(no, n)[1] <= 2 * (n + 2) * nq
            lo = run_linear(aut, word)
            assert lo.verdict == REJECT
            assert lo.steps <= step_budget(aut, n)
            runs += 1
    print(f"\ncriterion 8: PASS  {runs} runs on accept-free machines: both engines "
          "reject, detectors fire within their windows")


def test_criterion_9_shadow_invariant(diff_results):
    errors = [d for d in diff_results["divergences"] if d.kind == "error"]
    assert errors == []
    print("\ncriterion 9: PASS  zero shadow mismatches across all criterion-1 runs")
