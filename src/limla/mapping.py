"""Segment description maps and their directed composition.

A maximal frozen stretch of tape behaves like a black box: all that
matters is, for each state and entry side, where the head eventually pops
out, or that it never does.  A SegmentMap records exactly that.  Entries
and exits are directed states: (q, RIGHT) on the input side means the
head walks into the segment at its left end moving right, (q, LEFT) means
entry at the right end moving left.  On the output side (p, RIGHT) means
the head leaves past the segment's right end and (p, LEFT) past its left
end.  Tables store a directed state (q, dir) as the integer 2 * q + dir
and LOOP, an entry that never leaves, as -1.

Composition of maps over adjacent segments is computed by one fused
marked walk that bounces between the two part tables, following each
entry to the combined segment's exit with no graph built, so one
composition plus the full boundary departure table costs O(|Q|).  Maps are
immutable values, so a machine can memoize their compositions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import LEFT_MARKER, RIGHT_MARKER, RANKED, RIGHT


class SizeMismatch(ValueError):
    pass


class EmptySegment(ValueError):
    pass


@dataclass(frozen=True)
class SegmentMap:
    """Total map over 2*q_count directed states; -1 encodes LOOP."""

    q_count: int
    table: tuple

    def __post_init__(self):
        if len(self.table) != 2 * self.q_count:
            raise ValueError("table must have one entry per directed state")


def transparent_map(q_count: int) -> SegmentMap:
    """The two-sided identity of composition: every entry passes straight through."""
    return SegmentMap(q_count, tuple(range(2 * q_count)))


def cf_idx(c, s: int) -> SegmentMap:
    """Single-cell map for the letter with symbol index s (cached per machine)."""
    m = c.cf_cache.get(s)
    if m is None:
        w = c.width
        tab = [0] * (2 * c.n_states)
        to_tab, mv_tab = c.to_tab, c.mv_tab
        for q in range(c.n_states):
            k = q * w + s
            out = 2 * to_tab[k] + mv_tab[k]
            tab[2 * q] = out      # one step always leaves a one-cell segment,
            tab[2 * q + 1] = out  # so the entry side is irrelevant
        m = SegmentMap(c.n_states, tuple(tab))
        c.cf_cache[s] = m
    return m


def _frozen_letter_index(aut, letter: str) -> int:
    c = aut.compiled
    if letter in (LEFT_MARKER, RIGHT_MARKER):
        raise ValueError("markers do not describe segments")
    i = c.sym_index.get(letter)
    if i is None or i >= c.n_letters:
        raise ValueError(f"unknown tape letter {letter!r}")
    if aut.mode == RANKED and c.ranks[i] != aut.dlimit.k:
        raise ValueError(f"letter {letter!r} has rank {c.ranks[i]}, not frozen")
    return i


def cf(aut, letter: str) -> SegmentMap:
    """Map describing a single frozen cell holding the given letter."""
    return cf_idx(aut.compiled, _frozen_letter_index(aut, letter))


class CompositionResult(NamedTuple):
    h: SegmentMap          # the composed map
    dep: tuple             # boundary departure table, indexed 2*state+dir, -1 = LOOP
    edges: int             # walk loop iterations, in [4|Q|, 8|Q|]


class CompositionMemo(dict):
    """One machine's compositions: (f.table, g.table) -> [result, the last
    run to request the pair]; walks counts the pairs the current run requested."""

    __slots__ = ("run", "walks")

    def __init__(self):
        self.run = self.walks = 0


def compose_full(f: SegmentMap, g: SegmentMap, memo: CompositionMemo | None = None
                 ) -> CompositionResult:
    """Compose adjacent segment maps and compute the boundary departure table.

    The result depends on the two tables alone: maps over one machine form
    a finite monoid.  So with a memo (the machine's compose_memo), only the
    first request for a pair ever reaches the walk and every later one, in
    this run or a later one, returns the same CompositionResult.  The memo
    also counts, in memo.walks, the distinct pairs the current run requested.
    """
    if memo is None:
        return _walk_glued(f.table, g.table)
    key = (f.table, g.table)
    e = memo.get(key)
    if e is None:
        e = memo[key] = [_walk_glued(*key), -1]
    if e[1] != memo.run:
        e[1] = memo.run
        memo.walks += 1
    return e[0]


def _walk_glued(ft: tuple, gt: tuple) -> CompositionResult:
    """The composition of the maps with tables ft and gt, by one fused marked walk.

    The glued graph is never built.  Its internal vertices are the 4|Q|
    part entries, numbered f's entries 0..2|Q|-1 then g's from 2|Q|, and
    each has at most one successor, read straight from its part's table
    (RIGHT = 0, so an even exit points right): a left-part exit pointing
    right continues at that right-part entry, a right-part exit pointing
    left continues at that left-part entry, and every other exit (or
    LOOP, -1) is the combined segment's own.

    One walk per origin, marking every vertex it visits with the walk's
    number, which is also the origin's slot in h + dep.  A walk ends at an
    exit, on its own mark (a cycle, LOOP), or on an earlier walk's mark,
    whose resolved outcome it inherits since the paths share their tail.
    Marks persist across origins, so edges (one per origin plus one per
    transition followed) lies in [4|Q|, 8|Q|].  Origins run in pinned order:
    f's rightward and g's leftward entries ascending for the composed map,
    then g's rightward and f's leftward entries for the departure table.
    """
    n = len(ft)
    if n != len(gt):
        raise SizeMismatch(f"cannot compose maps over {n // 2} and {len(gt) // 2} states")
    tab = ft + gt
    marks = [-1] * (2 * n)
    res = [0] * (2 * n)  # h then dep
    hops = 0
    for lo, hi, shift in ((0, n, 0), (n + 1, 2 * n, -n), (n, 2 * n, 0), (1, n, n)):
        for u in range(lo, hi, 2):
            k = u + shift
            while True:
                m = marks[u]
                if m >= 0:
                    val = -1 if m == k else res[m]
                    break
                marks[u] = k
                out = tab[u]
                if u < n:  # in f: a rightward exit (even) enters g
                    if out & 1:
                        val = out
                        break
                    u = n + out
                elif out & 1 and out > 0:  # in g: a leftward exit enters f
                    u = out
                else:
                    val = out
                    break
                hops += 1
            res[k] = val
    return CompositionResult(SegmentMap(n // 2, tuple(res[:n])), tuple(res[n:]),
                             2 * n + hops)


def describe_indices(c, idxs) -> list:
    """Brute-force description of a frozen letter-index sequence.

    Walks the head from each of the 2|Q| entries with a per-entry
    (position, state) visited set; a repeat means the head never leaves.
    Independent of composition, which makes it the oracle for cf and for
    the coalescing done by the linear engine.
    """
    q = c.n_states
    w = c.width
    to_tab, mv_tab = c.to_tab, c.mv_tab
    length = len(idxs)
    table = []
    for ci in range(2 * q):
        state = ci >> 1
        pos = 0 if (ci & 1) == RIGHT else length - 1
        seen = set()
        while True:
            key = pos * q + state
            if key in seen:
                out = -1
                break
            seen.add(key)
            k = state * w + idxs[pos]
            state = to_tab[k]
            if mv_tab[k] == RIGHT:
                pos += 1
                if pos == length:
                    out = 2 * state
                    break
            else:
                pos -= 1
                if pos < 0:
                    out = 2 * state + 1
                    break
        table.append(out)
    return table


def describe_segment(aut, letters) -> SegmentMap:
    """Map describing a non-empty sequence of frozen letters, by direct walk."""
    letters = list(letters)
    if not letters:
        raise EmptySegment("a described segment holds at least one letter")
    idxs = [_frozen_letter_index(aut, tok) for tok in letters]
    return SegmentMap(aut.compiled.n_states, tuple(describe_indices(aut.compiled, idxs)))


def oracle_compose(f: SegmentMap, g: SegmentMap):
    """Unmemoized reference for compose_full: plain path following.

    Bounces between the two part tables with a fresh visited set per
    entry.  Returns (h_table, dep_table) as tuples.
    """
    if f.q_count != g.q_count:
        raise SizeMismatch("size mismatch")
    q = f.q_count

    def follow(side: int, ci: int) -> int:
        seen = set()
        while True:
            if (side, ci) in seen:
                return -1
            seen.add((side, ci))
            out = (f.table if side == 0 else g.table)[ci]
            if out < 0:
                return -1
            p, dr = out >> 1, out & 1
            if side == 0:
                if dr == RIGHT:
                    side, ci = 1, 2 * p      # crosses the boundary rightward
                else:
                    return out               # leaves the combined segment leftward
            else:
                if dr == RIGHT:
                    return out               # leaves rightward
                side, ci = 0, 2 * p + 1      # crosses back leftward

    h = []
    dep = []
    for s in range(q):
        h.append(follow(0, 2 * s))       # entry (s, RIGHT) starts in the left part
        h.append(follow(1, 2 * s + 1))   # entry (s, LEFT) starts in the right part
    for s in range(q):
        dep.append(follow(1, 2 * s))     # crossing rightward enters the right part
        dep.append(follow(0, 2 * s + 1))  # crossing leftward enters the left part
    return tuple(h), tuple(dep)

