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
table's indices.  One marked walk builds the composed map h and then
resolves the crossings h did not pass through; both share one list of
resolutions, so every crossing is walked once and a composition, its
departure table included, costs O(|Q|).  A composition depends on the two
tables alone, so a machine can memoize it: its CompositionMemo makes every
map, one per distinct table, and each map composes in that memo and keeps
its compositions in its own row, keyed on the right map, so a repeated
request costs one dict lookup by identity at any |Q|.  The rows are the
memo's one record of its compositions; it also keeps the monoid's
generators and cap.
"""
from __future__ import annotations

from .model import RIGHT

# Cap on a machine's composition memo in bytes, applied as a run ends
# (CompositionMemo.end_run).  A map is charged 16|Q| + 224: 8 bytes per
# slot of its table, and 224 for the tuple header, the SegmentMap, its empty
# row dict and its slot in the memo's maps.  An entry is charged
# 16|Q| + 256: 8 bytes per slot of its departure tuple, and 256 for the tuple
# header, the result object and its row slot (a row's first allocates its
# 160-byte key table).  A map is charged once however many entries share it.
# A memo past the cap keeps the generators it has made and nothing else (a
# fresh memo is empty: cf_idx makes generators on demand); emptying the rows
# and the memo's maps freed 60-96% of the charge (tracemalloc, CPython 3.11).
COMPOSE_MEMO_BYTES = 1 << 17


class SizeMismatch(ValueError):
    pass


class SegmentMap:
    """Total map over the 2|Q| directed states, its table; -1 encodes LOOP.

    Equality and hashing are identity, so a dict keyed on a map hashes no
    table: compare tables to compare what two maps describe.  Only
    CompositionMemo.canonical makes one, the one map of that memo for its
    table; memo is that memo, where the map composes, and row holds the
    map's compositions there, right map -> CompositionResult.
    """

    __slots__ = ("table", "row", "memo")

    def __init__(self, table: tuple, memo: "CompositionMemo"):
        self.table = table
        self.row = {}
        self.memo = memo

    @property
    def q_count(self) -> int:
        return len(self.table) >> 1


def cf_idx(c, s: int) -> SegmentMap:
    """Single-cell map for the letter with symbol index s: a generator of the
    machine's compose_memo, made by its canonical and kept in its cf.  Its
    entries are the column of out_tab for s, each state's exit on s."""
    memo = c.compose_memo
    m = memo.cf.get(s)
    if m is None:
        col = c.out_tab[s::c.width]
        tab = [0] * (2 * len(col))
        # one step always leaves a one-cell segment, so the entry side is irrelevant
        tab[::2] = tab[1::2] = col
        m = memo.cf[s] = memo.canonical(tuple(tab))
    return m


# Marks in a walk's departure list, which otherwise holds resolved exits
# (-1 = LOOP): a crossing not yet walked, and one on the current walk.
_UNSEEN, _ON_PATH = -3, -2


class CompositionResult:
    """A composition of adjacent maps f and g.

    h is the composed map, the memo's map of its table, and edges the h
    walk's loop iterations, in [2|Q|, 4|Q|].  dep is the boundary departure
    table: dep[p] is where the head leaves the combined segment after
    crossing the seam in directed state p (rightward into g, leftward into
    f); -1 = LOOP.
    """

    __slots__ = ("h", "edges", "dep")

    def __init__(self, h: SegmentMap, edges: int, dep: tuple):
        self.h = h
        self.edges = edges
        self.dep = dep


class CompositionMemo:
    """One machine's compositions, their maps and the generators.

    maps holds the machine's maps, table -> the one SegmentMap of that
    table, which canonical makes; each map points back at the memo, so a
    dropped machine's memo is freed by the cyclic garbage collector.  cf
    holds the generators, symbol index -> single-cell map (cf_idx).  The
    composition of maps f and g lives in f.row[g] alone: the rows of the
    memo's maps are the memo, and entries counts them.  A run is
    bracketed by start_run and end_run, which applies the cap: a memo past
    it drops every composition and every map but the generators.  A run
    counts calls, every request; walks, the requests that missed and were
    walked, so calls - walks are its hits; edges_max, the largest edges
    among its walks (0 if none).
    """

    __slots__ = ("calls", "walks", "edges_max", "entries", "maps", "cf")

    def __init__(self):
        self.calls = self.walks = self.edges_max = self.entries = 0
        self.maps, self.cf = {}, {}

    def canonical(self, table: tuple) -> SegmentMap:
        """The one map of this memo for table, made on its first request."""
        m = self.maps.get(table)
        if m is None:
            m = self.maps[table] = SegmentMap(table, self)
        return m

    def start_run(self) -> None:
        """Zero the run's counts; a run that raises skips end_run."""
        self.calls = self.walks = self.edges_max = 0

    def end_run(self, nq: int) -> None:
        """Close a run on nq states.  Past COMPOSE_MEMO_BYTES, start over from
        the generators: every row is emptied, which breaks the cycles that
        results and maps form, so reference counting frees what is dropped,
        and maps keeps the generators alone."""
        entry, table = 16 * nq + 256, 16 * nq + 224
        if self.entries * entry + len(self.maps) * table > COMPOSE_MEMO_BYTES:
            for m in self.maps.values():
                m.row.clear()
            self.maps = {m.table: m for m in self.cf.values()}
            self.entries = 0


def compose_full(f: SegmentMap, g: SegmentMap) -> CompositionResult:
    """Compose adjacent segment maps; the result also holds the departures.

    The result depends on the two tables alone: maps over one machine form
    a finite monoid, and f and g are maps of one memo, f.memo, the
    machine's compose_memo, which holds one map per table.  So only the
    first request for a pair reaches the walk, which stores the result in
    f.row[g], its one record, with h the memo's map of its table.  Every
    later request, in this run or a later one, hits there without hashing
    a table and returns the same CompositionResult: a hit is the subscript
    f.row[g] alone, and only its KeyError leads to the walk.  Raising costs
    a miss about 220 ns, against a walk of 2 us or more.  The memo counts
    every request in memo.calls; a miss, the walk, in entries and walks,
    with its edges in edges_max.
    """
    memo = f.memo
    memo.calls += 1
    try:
        return f.row[g]
    except KeyError:
        pass
    h, edges, dep = _walk_glued(f.table, g.table)
    r = f.row[g] = CompositionResult(memo.canonical(h), edges, dep)
    memo.entries += 1
    memo.walks += 1
    if edges > memo.edges_max:
        memo.edges_max = edges
    return r


def _walk_glued(ft: tuple, gt: tuple) -> tuple:
    """The composed table of ft and gt, edges and the departure table, by
    one marked walk.

    Entry 2q enters the left part and entry 2q+1 the right part; h takes
    that part's exit unless the exit crosses the seam (a left-part exit
    pointing right, a right-part exit pointing left), and then the
    resolution of that crossing.  Crossings resolve through _cross into one
    list that keeps every resolution, so a crossing is walked at most once
    and edges (one per entry plus one per crossing the h walk walked) lies
    in [2|Q|, 4|Q|].  The crossings h did not reach are resolved after it,
    uncounted, which completes the departure table.
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
    for c in range(n):
        if dep[c] == _UNSEEN:
            _cross(ft, gt, dep, c)
    return tuple(h), n + hops, tuple(dep)


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

