"""Linear-time engine over the linked-list tape.

Each engine step handles one cell.  Letters behave as in the reference
engine until the visit that makes the cell permanently unwritable; that
visit triggers a deletion scan, which replaces the cell with the map
describing it and coalesces it with any adjacent map cells, so no two map
cells are ever adjacent; the engine checks this after every scan that
completes, with or without shadow, under python -O too.  Arriving on a map
cell costs a single table lookup that teleports the head across the whole
frozen segment.

Writes stick as in the reference engine, and a visit freezes its cell
when it is the cell's model.visit_limit-th or writes a letter that
CompiledAutomaton.fixed marks.  That test is keyed on the written letter,
not the letter read: ranked rewrites may jump several ranks at once, so a
cell can become frozen on a visit that read a low rank.  Without this the
frozen letter would persist and no case could handle its next visit.

A map lookup answers LOOP only for loops inside one frozen segment.
Loops that bounce off the end markers never stay inside a segment, so the
engine also keeps an exact stretch detector: a set of (position, directed
state) pairs, cleared on every letter visit (each such visit advances a
bounded per-cell budget and changes what the engine will do there next).
Between letter visits the tape is completely static, so a repeated pair
replays forever.  The head is itself a directed state, 2 * state + dir,
the encoding the maps read, so its arrival side, to which map cells react
unlike letters, is in the key.
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
    compose_full request, counted by the memo of the maps, the machine's.
    """
    fmap, prev, nxt = tape.fmap, tape.prev, tape.nxt

    left = prev[i]
    f = fmap[left]
    if f is not None:
        comp = compose_full(f, g)
        if p & 1:  # heading left (RIGHT is 0), into the merged territory
            p = comp.dep[p]
            if p < 0:
                return p
        g = comp.h
        fmap[left] = None
        left = prev[i] = prev[left]
        nxt[left] = i

    right = nxt[i]
    f = fmap[right]
    if f is not None:
        comp = compose_full(g, f)
        if not p & 1:
            p = comp.dep[p]
            if p < 0:
                return p
        g = comp.h
        fmap[right] = None
        right = nxt[i] = nxt[right]
        prev[right] = i

    fmap[i] = g
    return p


def _shadow_check(c, tape: ListTape, i: int) -> None:
    lo = tape.prev[i] + 1
    hi = tape.nxt[i] - 1
    table = tape.fmap[i].table
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

    After every scan that completes, the engine checks that neither of the
    new map's neighbours is a map, in shadowed and unshadowed runs alike and
    under python -O, and raises AssertionError if one is.
    With shadow=True, the stored map is then compared against the
    brute-force description of its segment, read from the tape's own
    letters: sym keeps the letter each frozen cell last held, as the
    reference tape would (ShadowMismatch on any disagreement).  The
    descriptions are memoized per machine on the letters of the segment
    (SHADOW_MEMO_SLOTS), but the comparison runs after every scan.
    Verdicts always match run_naive; steps count letter moves, scans, map
    jumps and marker moves.  The head is a directed state, the encoding the
    maps read, and the stretch detector's key is 2 * pos * |Q| + head.

    Consecutive visits to letter cells make one letter run, an inner loop
    that hands back to the main loop only on a map cell, a marker, a
    map-loop exit or max_steps.  It tells a marker by its symbol as soon as
    it reads the cell, before it counts or writes, indexes the tables by
    head_row[head] + symbol and counts each visit once.  Each scan is one
    call to deletion_scan and each merge one call to compose_full, both
    looked up by name at call time, so wrappers installed on them see every
    call.  After a scan the cell's links are read once, as left and right,
    for the record, the adjacency check and the move; the check has just
    read both neighbours' maps, so a scan visit ends on its own tail, which
    tests only the budget, and a plain visit on one that tests the new cell
    for a map and the budget.  Every scan, completed or not, is recorded at one
    site, from the tape the scan leaves, by one rule: on each side the
    segment ends at pos if that neighbour is still a map (a looping
    departure left that merge undone), else at left + 1 or right - 1.  A
    completed scan leaves no neighbour a map, so it records left + 1 ..
    right - 1.
    """
    c = aut.compiled
    tape = ListTape.from_word(aut, word)
    memo = c.compose_memo
    memo.start_run()
    n = tape.n
    sym = tape.sym
    visits = tape.visits
    fmap = tape.fmap
    prev = tape.prev
    nxt = tape.nxt

    nq = c.n_states
    n_letters, head_row = c.n_letters, c.head_row
    wr_tab, out_tab = c.wr_tab, c.out_tab
    accepting = c.accepting
    fixed = c.fixed
    cf = memo.cf
    limit = visit_limit(aut, n)
    budget = sys.maxsize if max_steps is None else max_steps

    head = 2 * c.start_idx + RIGHT
    pos = 1
    steps = map_jumps = scans = marker_moves = 0
    stretch = set()
    tr = [] if trace else None
    verdict = reason = None

    while True:
        if pos == n + 1 and accepting[head >> 1]:
            verdict = ACCEPT
            break
        if steps >= budget:
            break
        f = fmap[pos]
        if f is None and 0 < pos <= n:
            stretch.clear()
            while True:  # the letter run: see the docstring
                s = sym[pos]
                if s >= n_letters:  # a marker: the main loop moves off it
                    break
                k = head_row[head] + s
                v = visits[pos] + 1
                visits[pos] = v
                w = s if v > limit else wr_tab[k]
                out = out_tab[k]
                steps += 1
                if w != s:
                    sym[pos] = w
                if v >= limit or fixed[w]:
                    out = deletion_scan(tape, pos, out, cf.get(w) or cf_idx(c, w))
                    scans += 1
                    left, right = prev[pos], nxt[pos]
                    if tr is not None:  # a side still next to a map ends at pos
                        tr.append((steps, pos, head >> 1, s, w, out_tab[k] & 1, v > limit, 1,
                                   pos if fmap[left] is not None else left + 1,
                                   pos if fmap[right] is not None else right - 1))
                    if out < 0:
                        verdict, reason = REJECT, MAP_LOOP
                        break
                    if fmap[left] is not None or fmap[right] is not None:
                        raise AssertionError(f"adjacent maps at cell {pos}")
                    if shadow:
                        _shadow_check(c, tape, pos)
                    head = out
                    pos = left if out & 1 else right
                    if steps >= budget:  # pos is no map (just checked); a marker ends the run above
                        break
                    continue
                if tr is not None:
                    tr.append((steps, pos, head >> 1, s, w, out & 1, False, 0))
                head = out
                pos = prev[pos] if out & 1 else nxt[pos]
                if fmap[pos] is not None or steps >= budget:
                    break
            if verdict is not None:
                break
            continue
        key = 2 * pos * nq + head
        if key in stretch:
            verdict, reason = REJECT, LOOP_DETECTED
            break
        stretch.add(key)
        if f is not None:
            out = f.table[head]
            map_jumps += 1
            s = -2
        else:  # marker: its transition's exit, read as a map entry would be
            s = sym[pos]
            out = out_tab[head_row[head] + s]
            marker_moves += 1
        steps += 1
        if out < 0:
            verdict, reason = REJECT, MAP_LOOP
            break
        if tr is not None:
            jump = f is not None
            tr.append((steps, pos, head >> 1, s, s, out & 1, jump, 2 * jump))
        head = out
        pos = prev[pos] if out & 1 else nxt[pos]

    memo.end_run(nq)
    if verdict is None:
        raise BudgetExceeded(steps)
    return RunOutcome(  # positional, in field order: half the cost of keywords
        verdict, reason, steps,
        {"letter": steps - scans - map_jumps - marker_moves,
         "map": map_jumps, "marker": marker_moves},
        tr, scans, memo.calls, memo.walks, memo.edges_max,
    )
