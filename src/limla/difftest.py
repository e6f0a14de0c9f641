"""Differential harness: the reference engine is the oracle for the linear one.

Verdicts must match exactly.  Regular-move projections must match exactly
on accepting runs; on loop rejections they must agree up to the point
where either engine's detector fires (the detectors are both exact but
may fire a bounded number of moves apart).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import ACCEPT, d_of
from .linear import ShadowMismatch, run_linear
from .naive import run_naive
from .outcome import regular_projection
from .rng import BLOCK, SplitMix64


@dataclass
class Divergence:
    kind: str            # "verdict" | "trace" | "error"
    word: tuple
    detail: str
    naive: object = None
    linear: object = None


@dataclass
class DiffStats:
    """Side-channel checks collected over every compared run."""

    runs: int = 0
    bound_violations: list = field(default_factory=list)  # linear steps over budget
    scan_violations: list = field(default_factory=list)   # more scans than cells
    edge_violations: list = field(default_factory=list)   # a walk of the run over 8*|Q| edges


def words_upto(alphabet, maxlen: int):
    """All words over the alphabet with length <= maxlen, shortest first."""
    alphabet = tuple(alphabet)
    for length in range(maxlen + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_words(alphabet, count: int, min_len: int, max_len: int, seed: int):
    """Yield count seeded words, each of min_len to max_len letters.

    Each word is made when it is asked for; the generator keeps none.
    Each draws its length (when lengths can vary), then its letters, from
    one stream taken a chunk at a time: a block, or the most the words can
    need when that is less.  The rng is local, so draws taken and never
    read change no word.
    """
    alphabet = tuple(alphabet)
    k = len(alphabet)
    rng = SplitMix64(seed)
    chunk = max(1, min(count * (max_len + 1), BLOCK))
    draws = itertools.chain.from_iterable(iter(lambda: rng.take(chunk), None))
    for _ in range(count):
        length = min_len
        if max_len > min_len:
            length += next(draws) % (max_len - min_len + 1)
        yield tuple([alphabet[v % k] for v in itertools.islice(draws, length)])


def projections_agree(verdict: str, pn: list, pl: list) -> bool:
    if verdict == ACCEPT:
        return pn == pl
    m = min(len(pn), len(pl))
    return pn[:m] == pl[:m]


def step_budget(aut, n: int) -> int:
    """Linear-engine step allowance for an input of length n."""
    return 16 * (d_of(aut.dlimit, n) + 1) * (aut.compiled.n_states + 1) * (n + 2)


def compare_run(aut, word, *, shadow: bool = True, stats: DiffStats | None = None):
    """Run both engines on one word; None if they agree, else a Divergence."""
    word = tuple(word)
    no = run_naive(aut, word, trace=True)
    try:
        lo = run_linear(aut, word, trace=True, shadow=shadow)
    except (ShadowMismatch, AssertionError) as e:
        return Divergence("error", word, f"linear engine invariant failed: {e}", no, None)
    if stats is not None:
        stats.runs += 1
        n = len(word)
        if lo.steps > step_budget(aut, n):
            stats.bound_violations.append((word, lo.steps))
        if lo.scans > n:
            stats.scan_violations.append((word, lo.scans))
        if lo.compose_edges_max > 8 * aut.compiled.n_states:
            stats.edge_violations.append((word, lo.compose_edges_max))
    if no.verdict != lo.verdict:
        return Divergence("verdict", word,
                          f"naive={no.verdict} linear={lo.verdict}", no, lo)
    pn = regular_projection(aut, no)
    pl = regular_projection(aut, lo)
    if not projections_agree(no.verdict, pn, pl):
        m = min(len(pn), len(pl))
        at = next((i for i in range(m) if pn[i] != pl[i]), m)
        return Divergence("trace", word, f"regular projections differ at record {at}", no, lo)
    return None

