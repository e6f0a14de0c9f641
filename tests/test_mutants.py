"""A standing catalogue of mutants that the tier-1 net must kill.

Each entry is a one-site string replacement in a module of limla: the old
text, which must occur exactly once, the new text, and the tier-1 test that
must fail on the mutant.  The mutated source is compiled in memory, and the
code of the function that holds the site is swapped into the live function
through monkeypatch, so every module that imported the function runs the
mutant, and the original comes back when the test ends; no file is written.
A change that moves a site updates its entry.
"""
import ast
import inspect
from functools import reduce
from typing import Callable, NamedTuple

import pytest

import limla.linear as linear_mod
import limla.mapping as mapping_mod
import test_linear
import test_mapping


class Mutant(NamedTuple):
    name: str
    module: object
    old: str
    new: str
    killer: Callable


CATALOGUE = [
    # evict drops entries from its count but leaves them in the rows
    Mutant("evict-leaves-row-entries", mapping_mod,
           "            del f.row[g]\n", "            pass\n",
           test_mapping.test_memo_evicting_every_run_stays_exact),
    # a miss stores its walk in the row of the caller's map, which may be
    # an equal copy, rather than the canonical one
    Mutant("miss-stores-in-callers-row", mapping_mod,
           "r = fc.row[gc] = _walk_glued", "r = f.row[g] = _walk_glued",
           test_mapping.test_memo_returns_the_walked_result_once_per_pair),
    # evict keeps every interned map, whatever its entries
    Mutant("untrimmed-intern-table", mapping_mod,
           "if m not in keep]", "if False]",
           test_mapping.test_compose_memo_stays_within_its_cap),
    # a miss walks the caller's maps without interning them
    Mutant("miss-skips-interning", mapping_mod,
           "fc, gc = memo.intern(f), memo.intern(g)", "fc, gc = f, g",
           test_mapping.test_memo_returns_the_walked_result_once_per_pair),
    # a miss stores its entry without counting it
    Mutant("miss-leaves-entry-uncounted", mapping_mod,
           "            memo.entries += 1\n", "",
           test_mapping.test_memo_returns_the_walked_result_once_per_pair),
    # evict keeps the least recently requested entries first
    Mutant("evict-keeps-least-recent", mapping_mod,
           "key=lambda e: e[2].run, reverse=True)", "key=lambda e: e[2].run)",
           test_mapping.test_eviction_keeps_the_most_recently_requested_entries),
    # a left merge leaves the merged neighbour's left cell linked to it
    Mutant("scan-drops-left-relink", linear_mod,
           "        nxt[left] = i\n", "",
           test_linear.test_unlink_relinks_and_marks_dead),
    # a right merge leaves the merged neighbour's right cell linked to it
    Mutant("scan-drops-right-relink", linear_mod,
           "        prev[right] = i\n", "",
           test_linear.test_unlink_relinks_and_marks_dead),
]


def _site_path(src: str, line: int) -> list:
    """The names leading to the top-level function, or the method of a
    top-level class, whose lines hold line."""
    for node in ast.parse(src).body:
        if node.lineno <= line <= node.end_lineno:
            if isinstance(node, ast.ClassDef):
                method = next(m for m in node.body if isinstance(m, ast.FunctionDef)
                              and m.lineno <= line <= m.end_lineno)
                return [node.name, method.name]
            assert isinstance(node, ast.FunctionDef)
            return [node.name]
    raise AssertionError(f"line {line} is in no function")


def _swap_in(monkeypatch, m: Mutant) -> None:
    src = inspect.getsource(m.module)
    assert src.count(m.old) == 1, f"{m.name}: the old text must occur exactly once"
    path = _site_path(src, src.count("\n", 0, src.index(m.old)) + 1)
    ns = {"__name__": m.module.__name__, "__package__": m.module.__package__}
    exec(compile(src.replace(m.old, m.new), m.module.__file__, "exec"), ns)
    mutated = reduce(getattr, path[1:], ns[path[0]])
    monkeypatch.setattr(reduce(getattr, path, m.module), "__code__", mutated.__code__)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_mutant_is_killed(monkeypatch, mutant):
    _swap_in(monkeypatch, mutant)
    args = [monkeypatch] if "monkeypatch" in inspect.signature(mutant.killer).parameters else []
    with pytest.raises(AssertionError):
        mutant.killer(*args)
