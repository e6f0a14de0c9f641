"""Counted-mode differential gate: the growing d-limits log2, sqrt and id.

Criterion 1 of the acceptance gate generates only ranked machines with a
constant d; this gate covers the counted mode's growing budgets, where
cells freeze after d(n) visits instead of on a rank.
"""
import pytest

from limla.difftest import DiffStats, compare_run, words_upto
from limla.model import COUNTED, DLimit
from limla.rng import SplitMix64
from limla.zoo import GenParams, random_automaton

MACHINES_PER_LIMIT = 40
MAX_WORD_LEN = 5


@pytest.mark.parametrize("kind", ["log2", "sqrt", "id"])
def test_counted_growing_limits_agree(kind):
    master = SplitMix64(0xC0DE)
    stats = DiffStats()
    divergences = []
    for _ in range(MACHINES_PER_LIMIT):
        params = GenParams(state_count=1 + master.below(5), seed=master.next_u64(),
                           mode=COUNTED, dlimit=DLimit(kind))
        aut = random_automaton(params)
        for word in words_upto(aut.input_alphabet, MAX_WORD_LEN):
            div = compare_run(aut, word, shadow=True, stats=stats)
            if div is not None:
                divergences.append((div.kind, div.detail, word))
    assert divergences == []
    assert stats.runs == MACHINES_PER_LIMIT * (2 ** (MAX_WORD_LEN + 1) - 1)
    assert not stats.bound_violations
    assert not stats.scan_violations
    assert not stats.edge_violations
