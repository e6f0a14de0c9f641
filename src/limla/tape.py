"""Doubly linked tape over a fixed cell arena.

Cell indices 0..n+1 are fixed for the whole run; index 0 holds the left
marker, n+1 the right marker, and neither is ever deleted.  Deleting a
cell only relinks its neighbours; dead cells are never reused, which
keeps indices stable for traces and shadow bookkeeping at O(n) memory.

Each cell is one record across the parallel arrays: sym (the letter it
holds, or last held before it froze), visits, fmap, and the prev/nxt
links.  A live interior cell is a letter while fmap[i] is None and a
frozen segment described by fmap[i] otherwise; the markers never get a map.

Memory: sym is the list word_indices returns, with the markers put in
place, and prev a slice of nxt with its first two links put in place, so
no list is made twice.  prev[i + 1] and nxt[i - 1] share one int object;
above 256 each link would otherwise own one, 32 bytes a cell.  So a tape
costs five 8-byte slots and one int a cell: an even_a linear run of 10^6
letters grows peak RSS by 72 bytes a letter past the built word, against
112 with a private int per link and a copy of the word's indices
(ru_maxrss, CPython 3.11).

The tape holds no cache, no merge code and no machine: linear.deletion_scan
relinks it.  fmap holds maps of the machine's mapping.CompositionMemo, each
of which composes in that memo and keeps its compositions in its own row,
so a merge of two neighbours finds its result in the left map's row.
"""
from __future__ import annotations

from .model import word_indices


class ListTape:
    __slots__ = ("n", "sym", "visits", "fmap", "prev", "nxt")

    @classmethod
    def from_word(cls, aut, word) -> "ListTape":
        c = aut.compiled
        sym = word_indices(aut, word)  # a fresh list, so the markers go in place
        t = cls.__new__(cls)
        t.n = n = len(sym)
        sym.insert(0, c.n_letters)
        sym.append(c.n_letters + 1)
        t.sym = sym
        t.visits = [0] * (n + 2)
        t.fmap = [None] * (n + 2)
        t.nxt = nxt = list(range(1, n + 3))
        t.prev = prev = nxt[:n]  # the same int objects as nxt
        prev[:0] = -1, 0
        return t
