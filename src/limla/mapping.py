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

Composition of maps over adjacent segments follows the head across the
seam between them, with no graph built.  Crossing 2p is the head crossing
the seam rightward in state p, so it exits wherever the right part sends
entry 2p; crossing 2p+1 crosses leftward and exits wherever the left part
sends entry 2p+1.  The 2|Q| crossings are also the boundary departure
table's indices.  One marked walk builds the composed map h, resolving
only the crossings that h passes through; the rest of the departure table
is resolved entry by entry when a deletion scan first asks for it.  Both
share one list of resolutions, so a composition costs O(|Q|) however many
departures are read.  Maps are immutable values, so a machine can memoize
their compositions: its CompositionMemo interns each distinct table once
and keys a composition on the identities of the two interned tables, so a
repeated request costs one subscript at any |Q|.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .model import RIGHT


class SizeMismatch(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SegmentMap:
    """Total map over the 2|Q| directed states, its table; -1 encodes LOOP."""

    table: tuple

    @property
    def q_count(self) -> int:
        return len(self.table) >> 1


def cf_idx(c, s: int) -> SegmentMap:
    """Single-cell map for the letter with symbol index s (cached per machine,
    and interned in its compose_memo)."""
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
        m = c.cf_cache[s] = c.compose_memo.intern(SegmentMap(tuple(tab)))
    return m


# Marks in a composition's departure list, which otherwise holds resolved
# exits (-1 = LOOP): a crossing not yet walked, and one on the current walk.
_UNSEEN, _ON_PATH = -3, -2


class CompositionResult:
    """A composition of adjacent maps f and g.

    h is the composed map and edges the h walk's loop iterations, in
    [2|Q|, 4|Q|].  departure(p) is the boundary departure table, resolved
    on first request per entry into a list that the h walk started.  In a
    memo, h and the tables of the key are interned maps, which the result
    reads and so keeps alive; its own slots are the 2|Q| of that list.
    run is the last run of the memo to request the result.
    """

    __slots__ = ("h", "edges", "run", "_ft", "_gt", "_dep")

    def __init__(self, h: SegmentMap, edges: int, ft: tuple, gt: tuple, dep: list):
        self.h = h
        self.edges = edges
        self.run = -1
        self._ft = ft
        self._gt = gt
        self._dep = dep

    def departure(self, p: int) -> int:
        """Where the head leaves the combined segment after crossing the seam
        in directed state p (rightward into g, leftward into f); -1 = LOOP."""
        v = self._dep[p]
        if v == _UNSEEN:
            v = _cross(self._ft, self._gt, self._dep, p)[0]
        return v


class CompositionMemo(dict):
    """One machine's compositions and the maps they are made of.

    maps interns the machine's tables: each distinct table maps to the one
    canonical SegmentMap that holds it.  cf_idx and every walk's h go
    through it, so within a machine each distinct table is one tuple
    object.  Entries are keyed on (id(ft), id(gt)), the identities of the
    two canonical tables, and each entry is the CompositionResult, which
    holds those tables: a key's ids cannot be reused while its entry lives.
    Also the run's counts: calls, every request; walks, the distinct pairs
    requested; edges_max, the largest edges among them.
    """

    __slots__ = ("run", "calls", "walks", "edges_max", "maps")

    def __init__(self):
        self.run = self.calls = self.walks = self.edges_max = 0
        self.maps = {}

    def intern(self, m: SegmentMap) -> SegmentMap:
        """The canonical map equal to m, which becomes canonical if none is."""
        return self.maps.setdefault(m.table, m)

    def evict(self, cap: int, entry: int, table: int, held) -> None:
        """Drop the oldest entries, in insertion order, until the kept
        entries, at entry bytes each, and the distinct tables that they and
        the maps in held use, at table bytes each, charge at most cap; then
        trim the intern table to those tables.  Interned tables are
        canonical, so their identities tell them apart."""
        keep = {id(m.table) for m in held}
        charge = len(keep) * table
        kept = 0
        for r in reversed(self.values()):
            new = {id(r._ft), id(r._gt), id(r.h.table)} - keep
            charge += entry + len(new) * table
            if charge > cap:
                break
            keep |= new
            kept += 1
        for key in list(islice(self, len(self) - kept)):
            del self[key]
        maps = self.maps
        for t in [t for t in maps if id(t) not in keep]:
            del maps[t]


def compose_full(f: SegmentMap, g: SegmentMap, memo: CompositionMemo) -> CompositionResult:
    """Compose adjacent segment maps; the result also answers departures.

    The result depends on the two tables alone: maps over one machine form
    a finite monoid.  So in memo, which is always given (the machine's
    compose_memo), only the first request for a pair reaches the walk and
    every later one, in this run or a later one, returns the same
    CompositionResult, with every departure an earlier request resolved.
    A request on interned maps, as every map of a run is, hits on the
    tables' identities without hashing them.  Any other request, such as
    one on an equal copy of an interned map, interns both maps and looks
    again, and only then walks, so equal tables share one entry.  The memo
    counts every request in memo.calls, and a pair's first request in this
    run (memo.run, stamped on the result) in walks and edges_max.
    """
    memo.calls += 1
    try:
        r = memo[id(f.table), id(g.table)]
    except KeyError:
        ft, gt = memo.intern(f).table, memo.intern(g).table
        key = id(ft), id(gt)
        r = memo.get(key)
        if r is None:
            r = memo[key] = _walk_glued(ft, gt)
            r.h = memo.intern(r.h)
    if r.run != memo.run:
        r.run = memo.run
        memo.walks += 1
        if r.edges > memo.edges_max:
            memo.edges_max = r.edges
    return r


def _walk_glued(ft: tuple, gt: tuple) -> CompositionResult:
    """The composed map of the tables ft and gt, by one marked walk.

    Entry 2q enters the left part and entry 2q+1 the right part; h takes
    that part's exit unless the exit crosses the seam (a left-part exit
    pointing right, a right-part exit pointing left), and then the
    resolution of that crossing.  Crossings resolve through _cross into one
    list that keeps every resolution, so a crossing is walked at most once
    and edges (one per entry plus one per crossing walked) lies in
    [2|Q|, 4|Q|].
    """
    n = len(ft)
    if n != len(gt):
        raise SizeMismatch(f"cannot compose maps over {n // 2} and {len(gt) // 2} states")
    dep = [_UNSEEN] * n
    h = list(ft)
    h[1::2] = gt[1::2]
    hops = 0
    for c in range(n):
        out = h[c]
        if out >= 0 and not (out ^ c) & 1:  # the exit crosses the seam
            v = dep[out]
            if v == _UNSEEN:
                v, k = _cross(ft, gt, dep, out)
                hops += k
            h[c] = v
    return CompositionResult(SegmentMap(tuple(h)), n + hops, ft, gt, dep)


def _cross(ft: tuple, gt: tuple, dep: list, c: int) -> tuple:
    """Resolve crossing c; returns (its exit, the crossings walked).

    A crossing reads its exit from the part it enters (gt for 2p, ft for
    2p+1) and leads on to another crossing exactly when that exit is a
    directed state of the opposite parity.  The walk ends at any other exit,
    at a crossing resolved earlier, whose exit it shares, or back on its own
    path, a cycle: LOOP.  Every crossing walked gets the walk's exit.
    """
    path = []
    while True:
        v = dep[c]
        if v != _UNSEEN:
            if v == _ON_PATH:
                v = -1
            break
        dep[c] = _ON_PATH
        path.append(c)
        v = ft[c] if c & 1 else gt[c]
        if v < 0 or not (v ^ c) & 1:
            break
        c = v
    for u in path:
        dep[u] = v
    return v, len(path)


def describe_indices(c, idxs) -> list:
    """Brute-force description of a frozen letter-index sequence.

    Walks the head from each of the 2|Q| entries with a per-entry
    (position, state) visited set; a repeat means the head never leaves.
    Independent of composition, which makes it the oracle for cf_idx and for
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

