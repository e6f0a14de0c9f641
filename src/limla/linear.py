"""Linear-time engine over the linked-list tape.

Each engine step handles one cell.  Letters behave as in the reference
engine until the visit that makes the cell permanently unwritable; that
visit triggers a deletion scan, which replaces the cell with the map
describing it and coalesces it with any adjacent map cells, so no two map
cells are ever adjacent.  Arriving on a map cell costs a single table
lookup that teleports the head across the whole frozen segment.

Writes stick as in the reference engine, and a visit freezes its cell
when it is the cell's model.visit_limit-th or writes a letter that
CompiledAutomaton.fixed marks.  That test is keyed on the written letter,
not the letter read: ranked rewrites may jump several ranks at once, so a
cell can become frozen on a visit that read a low rank.  Without this the
frozen letter would persist and no case could handle its next visit.

A map lookup answers LOOP only for loops inside one frozen segment.
Loops that bounce off the end markers never stay inside a segment, so the
engine also keeps an exact stretch detector: a set of (position, state,
arrival direction) triples, cleared on every letter visit (each such
visit advances a bounded per-cell budget and changes what the engine will
do there next).  Between letter visits the tape is completely static, so
a repeated triple replays forever.  Arrival direction matters because map
cells, unlike letters, react to it.
"""
from __future__ import annotations

import sys

from .model import ACCEPT, LOOP_DETECTED, MAP_LOOP, REJECT, RIGHT, visit_limit
from .mapping import cf_idx, compose_full, describe_indices
from .outcome import BudgetExceeded, RunOutcome
from .tape import ListTape


class ShadowMismatch(Exception):
    """A map cell disagrees with the brute-force description of its segment."""


# Cap on a machine's shadow memo, in stored slots: the letters of each key
# plus the 2|Q| entries of its table.  A key holds at least one letter, so
# an entry costs at most about 60 bytes of objects per slot, and the memo
# stays under 0.3 MB per machine whatever the word length.  An entry that
# would pass the cap empties the memo first.
SHADOW_MEMO_SLOTS = 1 << 12

# Cap on a machine's composition memo with its intern table, in bytes.  An
# interned table is charged 16|Q| + 144: 8 bytes for each of its 2|Q| slots,
# and 144 for the tuple header, its SegmentMap and the intern table's dict
# slot.  An entry is charged 16|Q| + 320: 8 bytes for each of the 2|Q| slots
# of its departure list (which fills as scans ask for departures), and 320
# for the list header, the result object, its key (a tuple of two ints) and
# the dict slot.  An entry's h and key tables are interned tables, charged
# once however many entries share them.  Checked only when a run ends, so a
# run is never evicted from; a memo past the cap loses its oldest entries,
# in insertion order, until the kept entries and the tables that they and
# cf_cache hold charge at most the cap, and the intern table is trimmed to
# those tables, so between runs the charge covers everything the memo
# keeps alive.  cf_cache's tables are charged but never evicted.  Emptying
# a memo and its intern table freed about 94% of their charge at |Q| = 64
# and 200 (tracemalloc, CPython 3.11).
COMPOSE_MEMO_BYTES = 1 << 17


def deletion_scan(tape: ListTape, i: int, p: int, g) -> int:
    """Freeze-time coalescing at cell i; returns the exit.

    g is the single-cell map of the letter just written at i and p the
    directed result of the transition there, encoded as 2 * state + dir
    like every segment map entry.  A neighbour is a map when its fmap
    entry is set.  If the left neighbour is a map f, the two segments
    merge: when p points left the head is about to cross into f's segment,
    so p is rerouted through the departure table of (f, g); then g becomes
    f composed with g, and i is linked past the neighbour, whose map is
    dropped.  The right neighbour is handled the same way afterwards, with
    the possibly rerouted p.  On success fmap[i] holds the merged map, both
    its neighbours are letters or markers, and the exit is the rerouted p.
    The scan writes only fmap and the links, so sym[i] keeps the letter the
    caller stored there.  A departure that loops stops the scan at once
    with exit -1, leaving the unmerged neighbour linked.  Every merge is one
    compose_full request on the machine's compose_memo, which counts it.
    """
    fmap, prev, nxt = tape.fmap, tape.prev, tape.nxt
    memo = tape.compiled.compose_memo

    left = prev[i]
    f = fmap[left]
    if f is not None:
        comp = compose_full(f, g, memo)
        if (p & 1) != RIGHT:  # heading left, into the merged territory
            p = comp.departure(p)
            if p < 0:
                return p
        g = comp.h
        fmap[left] = None
        left = prev[i] = prev[left]
        nxt[left] = i

    right = nxt[i]
    f = fmap[right]
    if f is not None:
        comp = compose_full(g, f, memo)
        if (p & 1) == RIGHT:
            p = comp.departure(p)
            if p < 0:
                return p
        g = comp.h
        fmap[right] = None
        right = nxt[i] = nxt[right]
        prev[right] = i

    fmap[i] = g
    return p


def _shadow_check(c, tape: ListTape, i: int) -> None:
    fmap = tape.fmap
    lo = tape.prev[i] + 1
    hi = tape.nxt[i] - 1
    if fmap[lo - 1] is not None or fmap[hi + 1] is not None:
        raise ShadowMismatch(f"adjacent segment maps around cell {i}")
    table = fmap[i].table
    seg = tuple(tape.sym[lo:hi + 1])
    expected = c.shadow_cache.get(seg)
    if expected is None:
        # The description depends on the machine and the letters alone, so
        # the machine keeps it for later runs; only this walk is reused.
        # A verified description is stored as the map's own equal table,
        # which other maps and caches already share, not as a new copy.
        expected = tuple(describe_indices(c, seg))
        cost = len(seg) + len(expected)
        if expected == table and cost <= SHADOW_MEMO_SLOTS:
            if c.shadow_slots + cost > SHADOW_MEMO_SLOTS:
                c.shadow_cache.clear()
                c.shadow_slots = 0
            c.shadow_cache[seg] = table
            c.shadow_slots += cost
    if expected != table:
        raise ShadowMismatch(f"map at cell {i} does not describe cells {lo}..{hi}")


def run_linear(aut, word, *, trace: bool = False, shadow: bool = False,
               max_steps: int | None = None) -> RunOutcome:
    """Run the deleting engine on a word; requires validate_automaton(aut).ok.

    With shadow=True, after every deletion scan the stored map is compared
    against the brute-force description of its segment, read from the
    tape's own letters: sym keeps the letter each frozen cell last held, as
    the reference tape would (ShadowMismatch on any disagreement).  The
    descriptions are memoized per machine on the letters of the segment
    (SHADOW_MEMO_SLOTS), but the comparison runs after every scan.
    Verdicts always match run_naive; steps count letter moves, scans, map
    jumps and marker moves.

    Consecutive visits to letter cells make one letter run, an inner loop
    that hands back to the main loop only on a map cell, a marker, a
    map-loop exit or max_steps.  Each scan is one call to deletion_scan and
    each merge one call to compose_full, both looked up by name at call
    time, so wrappers installed on them see every call.
    """
    c = aut.compiled
    tape = ListTape.from_word(aut, word)
    memo = c.compose_memo
    memo.run += 1
    memo.calls = memo.walks = memo.edges_max = 0
    n = tape.n
    sym = tape.sym
    visits = tape.visits
    fmap = tape.fmap
    prev = tape.prev
    nxt = tape.nxt

    width = c.width
    nq = c.n_states
    to_tab, wr_tab, mv_tab = c.to_tab, c.wr_tab, c.mv_tab
    accepting = c.accepting
    fixed = c.fixed
    cf_cache = c.cf_cache
    limit = visit_limit(aut, n)
    budget = sys.maxsize if max_steps is None else max_steps

    state = c.start_idx
    dr = RIGHT
    pos = 1
    steps = map_jumps = scans = marker_moves = 0
    stretch = set()
    tr = [] if trace else None
    verdict = reason = None

    while True:
        if pos == n + 1 and accepting[state]:
            verdict = ACCEPT
            break
        if steps >= budget:
            break
        f = fmap[pos]
        if f is None and 0 < pos <= n:
            stretch.clear()
            while True:  # the letter run: see the docstring
                s = sym[pos]
                k = state * width + s
                v = visits[pos]
                visits[pos] = v + 1
                w = s if v >= limit else wr_tab[k]
                mv = mv_tab[k]
                steps += 1
                if w != s:
                    sym[pos] = w
                if v + 1 >= limit or fixed[w]:
                    g = cf_cache.get(w) or cf_idx(c, w)
                    if tr is None:
                        out = deletion_scan(tape, pos, 2 * to_tab[k] + mv, g)
                    else:
                        left, right = prev[pos], nxt[pos]
                        out = deletion_scan(tape, pos, 2 * to_tab[k] + mv, g)
                        tr.append((steps, pos, state, s, w, mv, v >= limit, 1,
                                   prev[pos] != left, nxt[pos] != right,
                                   prev[pos] + 1, nxt[pos] - 1))
                    scans += 1
                    if out < 0:
                        verdict, reason = REJECT, MAP_LOOP
                        break
                    if shadow:
                        _shadow_check(c, tape, pos)
                    else:
                        assert fmap[prev[pos]] is None and fmap[nxt[pos]] is None
                    state = out >> 1
                    dr = out & 1
                else:
                    if tr is not None:
                        tr.append((steps, pos, state, s, w, mv, False,
                                   0, False, False, -1, -1))
                    state = to_tab[k]
                    dr = mv
                pos = prev[pos] if dr else nxt[pos]
                if fmap[pos] is not None or not 0 < pos <= n or steps >= budget:
                    break
            if verdict is not None:
                break
            continue
        key = ((pos * nq + state) << 1) | dr
        if key in stretch:
            verdict, reason = REJECT, LOOP_DETECTED
            break
        stretch.add(key)
        if f is not None:
            out = f.table[2 * state + dr]
            map_jumps += 1
            steps += 1
            if out < 0:
                verdict, reason = REJECT, MAP_LOOP
                break
            if tr is not None:
                tr.append((steps, pos, state, -2, -2, out & 1, True,
                           2, False, False, -1, -1))
            state = out >> 1
            dr = out & 1
        else:  # marker
            s = sym[pos]
            k = state * width + s
            mv = mv_tab[k]
            marker_moves += 1
            steps += 1
            if tr is not None:
                tr.append((steps, pos, state, s, s, mv, False,
                           0, False, False, -1, -1))
            state = to_tab[k]
            dr = mv
        pos = prev[pos] if dr else nxt[pos]

    entry, table = 16 * nq + 320, 16 * nq + 144
    if len(memo) * entry + len(memo.maps) * table > COMPOSE_MEMO_BYTES:
        memo.evict(COMPOSE_MEMO_BYTES, entry, table, cf_cache.values())
    if verdict is None:
        raise BudgetExceeded(steps)
    return RunOutcome(
        verdict=verdict, reason=reason, steps=steps,
        moves={"letter": steps - scans - map_jumps - marker_moves,
               "map": map_jumps, "marker": marker_moves},
        trace=tr, scans=scans, compose_calls=memo.calls, compose_walks=memo.walks,
        compose_edges_max=memo.edges_max,
    )
