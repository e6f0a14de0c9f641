"""Doubly linked tape over a fixed cell arena.

Cell indices 0..n+1 are fixed for the whole run; index 0 holds the left
marker, n+1 the right marker, and neither is ever deleted.  Deleting a
cell only relinks its neighbours; dead cells are never reused, which
keeps indices stable for traces and shadow bookkeeping at O(n) memory.

Each cell is one record across the parallel arrays: sym (the letter it
holds, or last held before it froze), visits, fmap, and the prev/nxt
links.  A live interior cell is a letter while fmap[i] is None and a
frozen segment described by fmap[i] otherwise; the markers never get a map.

The tape holds no cache and no merge code: linear.deletion_scan relinks
it, sharing the composition memo of its compiled machine
(mapping.CompositionMemo), whose interned maps are the ones fmap holds.
"""
from __future__ import annotations

from .model import word_indices


class ListTape:
    __slots__ = ("n", "sym", "visits", "fmap", "prev", "nxt", "compiled")

    @classmethod
    def from_word(cls, aut, word) -> "ListTape":
        c = aut.compiled
        syms = word_indices(aut, word)
        t = cls.__new__(cls)
        t.n = n = len(syms)
        t.sym = [c.n_letters] + syms + [c.n_letters + 1]
        t.visits = [0] * (n + 2)
        t.fmap = [None] * (n + 2)
        t.prev = list(range(-1, n + 1))
        t.nxt = list(range(1, n + 3))
        t.compiled = c
        return t
