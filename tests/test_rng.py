import hashlib
import itertools
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from limla.bench import make_word
from limla.difftest import random_words
from limla.fmt import serialize_machine
from limla.model import COUNTED, ID, LOG2, RANKED, SQRT, DLimit
from limla.rng import SplitMix64
from limla.zoo import GenParams, random_automaton


_SEEDS = (0, 1, (1 << 64) - 1, 0x5DEECE66D)
_LENGTHS = (0, 1, 1023, 1024, 1025, 5000)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("count", (0, 1, 2, 1023, 1024, 1025, 3 * 1024 + 5))
def test_take_equals_scalar_draws(seed, count):
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    assert batched.take(count) == [scalar.next_u64() for _ in range(count)]
    assert batched._state == scalar._state  # advanced by count * GAMMA
    assert [batched.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_take_continues_from_scalar_draws():
    batched, scalar = SplitMix64(7), SplitMix64(7)
    assert batched.next_u64() == scalar.take(1)[0]
    got = batched.take(5) + [batched.below(10)] + batched.take(2000)
    want = [scalar.next_u64() for _ in range(6)]
    want[5] %= 10
    want += [scalar.next_u64() for _ in range(2000)]
    assert got == want


# sha256 of the generators' outputs, recorded before they drew through take:
# the batched draws must reproduce every word and machine bit for bit.
_WORD_DIGESTS = {
    1: "78b79c28ba641d0caad3a82694de281b200cfe4644f142331b49da2fd50331ef",
    2: "63f2d91f2cfc9f1e548d1546640b8dd4a68337768d28ffbf1e55fcaf1277f4bb",
    3: "c7d381992ee5d68e97909822c68ce44188c9b23f6cb3c9b64e7864b84487d7df",
}

_RANDOM_WORDS_CASES = (
    (("a", "b"), 1, 256, 256, 69),
    (("a", "b"), 100, 0, 12, 3),
    (("a", "b", "c"), 16, 11, 20, 0x5EED),
    (("a",), 5, 0, 1030, 9),
    (("a", "b"), 3, 1024, 1025, (1 << 64) - 1),
    (("a", "b", "c"), 0, 1, 4, 1),
)
_RANDOM_WORDS_DIGESTS = (
    "0cd4230b87c95edfebcf6c30df32e78836e07f45d41142c8458b61629ff30297",
    "e95afa1d73cd5a8dca38204979d1941d07d90d6fb9bcea36690c7e56d0055bb1",
    "26db88cad6e3b64921236e43a4da4149d0e0f0afa357e0b47b967be3c345cf56",
    "4c1c61eb2a79b6cdaab01e656b0f79a8896067df26c0abafa46ef9450e97b8fe",
    "f56d222b00fe5d917c1d5483c69ddffd7f1c37c6ce3014479fdc8c7892231fad",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
)

_MACHINE_DIGESTS = {
    RANKED: "dfe0c8c133df577b7ead2311631598b585f2d5df7b097e7e22e5e980bf3011aa",
    COUNTED: "bfbb438705d6fb152ce30314edee222ed671ab457ba68e12368ee124d04c8153",
}


def _machine_grid(mode):
    dlimits = ([DLimit.const(k) for k in range(4)] if mode == RANKED
               else [DLimit.const(2), LOG2, SQRT, ID])
    for q in (1, 2, 7, 64):
        for dlimit in dlimits:
            for alphabet in (1, 2, 3):
                for tape_per_rank in (1, 2):
                    yield GenParams(q, 1000 * q + alphabet, mode, dlimit, alphabet, tape_per_rank)


@pytest.mark.parametrize("size", sorted(_WORD_DIGESTS))
def test_make_word_random_is_pinned(size):
    aut = SimpleNamespace(input_alphabet=tuple("abc"[:size]))
    words = (make_word("random", aut, n, seed) for seed in _SEEDS for n in _LENGTHS)
    assert _digest(words) == _WORD_DIGESTS[size]


@pytest.mark.parametrize("case, digest", zip(_RANDOM_WORDS_CASES, _RANDOM_WORDS_DIGESTS))
def test_random_words_are_pinned(case, digest):
    assert _digest(random_words(*case)) == digest


def test_random_words_holds_one_word_at_a_time():
    # the first of 16 long words is made without the other 15
    tracemalloc.start()
    try:
        first, = itertools.islice(random_words(("a", "b"), 16, 50_000, 50_000, 7), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 50_000
    assert peak < 3 * sys.getsizeof(first), peak


def test_make_word_holds_no_list_of_draws():
    # a long random word is drawn a block at a time, not as n 64-bit ints
    aut = SimpleNamespace(input_alphabet=("a", "b"))
    tracemalloc.start()
    try:
        word = make_word("random", aut, 200_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == 200_000
    assert peak < 3 * sys.getsizeof(word), peak


@pytest.mark.parametrize("mode", (RANKED, COUNTED))
def test_random_automaton_is_pinned(mode):
    machines = (serialize_machine(random_automaton(p)) for p in _machine_grid(mode))
    assert _digest(machines) == _MACHINE_DIGESTS[mode]


def test_generators_draw_a_block_at_a_time(monkeypatch):
    # words and machines come from take(); none makes a scalar draw
    real_next = SplitMix64.next_u64
    draws = []

    def counting_next(self):
        draws.append(1)
        return real_next(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counting_next)
    assert len(make_word("random", SimpleNamespace(input_alphabet=("a", "b")), 4096, 3)) == 4096
    assert len(list(random_words(("a", "b", "c"), 40, 0, 300, 11))) == 40
    assert len(random_automaton(GenParams(64, 5, RANKED, DLimit.const(3))).states) == 64
    assert len(random_automaton(GenParams(64, 5, COUNTED, SQRT, 3, 2)).states) == 64
    assert draws == []


def test_a_random_word_takes_exactly_the_draws_it_reads(monkeypatch):
    # each word asks take() for its length draw and its letters, no more
    real_take = SplitMix64.take
    asked = []

    def counting_take(self, count):
        asked.append(count)
        return real_take(self, count)

    monkeypatch.setattr(SplitMix64, "take", counting_take)
    assert len(next(random_words(("a", "b"), 1, 1500, 1500, 3))) == 1500
    assert sum(asked) == 1500
    asked.clear()
    assert len(make_word("random", SimpleNamespace(input_alphabet=("a", "b")), 1500, 3)) == 1500
    assert sum(asked) == 1500
    asked.clear()
    lengths = [len(w) for w in random_words(("a", "b"), 3, 5, 9, 4)]
    assert sum(lengths) < 27  # so one chunk of 3 * 10 draws would be too many
    assert sum(asked) == 3 + sum(lengths)
