"""Counted-mode differential gate: the growing d-limits log2, sqrt and id.

Criterion 1 of the acceptance gate generates only ranked machines with a
constant d; this gate covers the counted mode's growing budgets, where
cells freeze after d(n) visits instead of on a rank.
"""
import pytest

import limla.difftest as difftest_mod
from limla.difftest import DiffStats, compare_run, random_words, words_upto
from limla.model import COUNTED, DLimit, d_of
from limla.rng import SplitMix64
from limla.zoo import GenParams, random_automaton

MACHINES_PER_LIMIT = 40
MAX_WORD_LEN = 5
# log2 and sqrt give d(n) <= 2 up to MAX_WORD_LEN and d(n) >= 4 at these lengths
LONG_WORD_LENS = (16, 64)
WORDS_PER_LONG_LEN = 20


def _gate(monkeypatch, kind, words_for):
    """Compare both engines, with the shadow check, on the gate's machines for
    one d-limit kind and the words words_for(aut, seed) gives each; assert no
    divergence and no DiffStats violation.  Returns the runs compared, the
    largest d(n) among the runs whose linear engine scanned, and the scans
    that merged into both neighbours (read from the linear traces)."""
    real_run_linear = difftest_mod.run_linear
    seen = {"scanned_d": 0, "two_sided": 0}

    def run_linear(aut, word, **kwargs):
        out = real_run_linear(aut, word, **kwargs)
        if out.scans:
            seen["scanned_d"] = max(seen["scanned_d"], d_of(aut.dlimit, len(word)))
            seen["two_sided"] += sum(1 for r in out.trace if r[7] == 1 and r[8] and r[9])
        return out

    monkeypatch.setattr(difftest_mod, "run_linear", run_linear)
    master = SplitMix64(0xC0DE)
    stats = DiffStats()
    divergences = []
    for _ in range(MACHINES_PER_LIMIT):
        params = GenParams(state_count=1 + master.below(5), seed=master.next_u64(),
                           mode=COUNTED, dlimit=DLimit(kind))
        aut = random_automaton(params)
        for word in words_for(aut, params.seed):
            div = compare_run(aut, word, shadow=True, stats=stats)
            if div is not None:
                divergences.append((div.kind, div.detail, word))
    assert divergences == []
    assert not stats.bound_violations
    assert not stats.scan_violations
    assert not stats.edge_violations
    return stats.runs, seen["scanned_d"], seen["two_sided"]


@pytest.mark.parametrize("kind", ["log2", "sqrt", "id"])
def test_counted_growing_limits_agree(monkeypatch, kind):
    runs, _, _ = _gate(monkeypatch, kind,
                       lambda aut, seed: words_upto(aut.input_alphabet, MAX_WORD_LEN))
    assert runs == MACHINES_PER_LIMIT * (2 ** (MAX_WORD_LEN + 1) - 1)


@pytest.mark.parametrize("kind", ["log2", "sqrt", "id"])
def test_counted_growing_limits_agree_on_long_words(monkeypatch, kind):
    def words_for(aut, seed):
        return [word for n in LONG_WORD_LENS
                for word in random_words(aut.input_alphabet, WORDS_PER_LONG_LEN, n, n, seed + n)]

    runs, scanned_d, two_sided = _gate(monkeypatch, kind, words_for)
    assert runs == MACHINES_PER_LIMIT * WORDS_PER_LONG_LEN * len(LONG_WORD_LENS)
    # in counted mode only the visit limit freezes a letter, so a scan here
    # shows that the gate reaches budgets of d(n) >= 3, which short words lack
    assert scanned_d >= 3
    # long words also freeze cells between two segments, so deletion_scan
    # relinks on both sides of one scan
    assert two_sided > 0
