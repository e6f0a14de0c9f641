"""A standing catalogue of mutants that the tier-1 net must kill.

Each entry is a one-site string replacement in a module of limla: the old
text, which must occur exactly once, the new text, and the tier-1 test that
must fail on the mutant.  The mutated source is compiled in memory, and the
code of the function that holds the site is swapped into the live function
through monkeypatch, so every module that imported the function runs the
mutant, and the original comes back when the test ends; no file is written.
A change that moves a site updates its entry.

A killer is a named tier-1 test, bound to one parameter if it takes one,
or the net slice: a slice of the differential net, with or without the
shadow check, that the unmutated engines pass.
"""
import ast
import inspect
from functools import partial, reduce
from typing import Callable, NamedTuple

import pytest

import limla.difftest as difftest_mod
import limla.linear as linear_mod
import limla.mapping as mapping_mod
import limla.model as model_mod
import limla.naive as naive_mod
import limla.outcome as outcome_mod
from limla.difftest import random_words, step_budget, words_upto
from limla.linear import ShadowMismatch, run_linear
from limla.model import COUNTED, DLimit
from limla.naive import run_naive
from limla.outcome import BudgetExceeded
from limla.rng import SplitMix64
from limla.zoo import GenParams, random_automaton
import test_difftest
import test_linear
import test_mapping
import test_model
import test_naive


def _net_slice(shadow: bool) -> None:
    """Both engines reach the same verdict, each run within its step budget,
    on 60 random machines like criterion 1's over every word of up to 6
    letters, then on 10 counted machines per growing d-limit over 10 words
    of 16-64 letters each.  The machines are made afresh on every call, so
    no memo keeps compositions from an earlier call."""
    master = SplitMix64(0x5E7)
    cases = []
    for _ in range(60):
        aut = random_automaton(GenParams(
            state_count=1 + master.below(5), dlimit=DLimit.const(master.below(4)),
            input_alphabet_size=2, tape_per_rank=1 + master.below(2), seed=master.next_u64()))
        cases.append((aut, words_upto(aut.input_alphabet, 6)))
    for kind in ("log2", "sqrt", "id"):
        for _ in range(10):
            seed = master.next_u64()
            aut = random_automaton(GenParams(state_count=1 + master.below(5), seed=seed,
                                             mode=COUNTED, dlimit=DLimit(kind)))
            cases.append((aut, random_words(aut.input_alphabet, 10, 16, 64, seed)))
    for aut, words in cases:
        for word in words:
            try:
                got = run_linear(aut, word, shadow=shadow,
                                 max_steps=step_budget(aut, len(word))).verdict
            except (BudgetExceeded, ShadowMismatch) as e:
                got = repr(e)
            assert got == run_naive(aut, word).verdict, word


def net_slice():
    _net_slice(shadow=False)


def net_slice_with_shadow():
    _net_slice(shadow=True)


class Mutant(NamedTuple):
    name: str
    module: object
    old: str
    new: str
    killer: Callable


CATALOGUE = [
    # a memo past its cap drops its maps and entries but leaves their rows
    Mutant("capped-memo-keeps-rows", mapping_mod,
           "                m.row.clear()\n", "                pass\n",
           test_mapping.test_memo_emptied_after_every_run_stays_exact),
    # a memo past its cap empties every row but keeps every map
    Mutant("capped-memo-keeps-maps", mapping_mod,
           "            self.maps = {m.table: m for m in self.cf.values()}\n", "",
           test_mapping.test_compose_memo_stays_within_its_cap),
    # end_run never empties the memo, whatever its charge
    Mutant("end-run-never-empties", mapping_mod,
           "> COMPOSE_MEMO_BYTES:", "> COMPOSE_MEMO_BYTES and False:",
           test_mapping.test_compose_memo_stays_within_its_cap),
    # canonical makes a second map for a table it already holds
    Mutant("canonical-makes-a-second-map", mapping_mod,
           "m = self.maps.get(table)", "m = None",
           test_mapping.test_memo_returns_the_walked_result_once_per_pair),
    # a miss stores its entry without counting it
    Mutant("miss-leaves-entry-uncounted", mapping_mod,
           "    memo.entries += 1\n", "",
           test_mapping.test_memo_returns_the_walked_result_once_per_pair),
    # a hit counts a walk as a miss does, so a warm run reports walks it
    # never made
    Mutant("walk-counted-on-hit", mapping_mod,
           "        return f.row[g]\n",
           "        r = f.row[g]\n        memo.walks += 1\n        return r\n",
           partial(test_mapping.test_walks_are_the_runs_misses,
                   params=GenParams(5, 37, COUNTED, DLimit.const(2)), count=40,
                   lengths=(1, 48))),
    # the walk keeps the left part's entries for every h entry
    Mutant("walk-keeps-left-entries", mapping_mod,
           "    h[1::2] = gt[1::2]\n", "",
           net_slice),
    # _cross walks a cycle without its own-mark test and reports the mark,
    # -2, as the exit; the engine reads any negative exit as LOOP, so only
    # the shadow check tells
    Mutant("cross-without-cycle-test", mapping_mod,
           "            if v == _ON_PATH:\n                v = -1\n", "",
           net_slice_with_shadow),
    # the walk returns once h is built, leaving the crossings h did not
    # reach marked unseen in the departure table
    Mutant("walk-leaves-departures-unresolved", mapping_mod,
           "    for c in range(n):\n        if dep[c] == _UNSEEN:\n"
           "            _cross(ft, gt, dep, c)\n", "",
           partial(test_mapping.test_walk_resolves_every_departure, 8)),
    # a left merge leaves the merged neighbour's left cell linked to it
    Mutant("scan-drops-left-relink", linear_mod,
           "        nxt[left] = i\n", "",
           test_linear.test_unlink_relinks_and_marks_dead),
    # a right merge leaves the merged neighbour's right cell linked to it
    Mutant("scan-drops-right-relink", linear_mod,
           "        prev[right] = i\n", "",
           test_linear.test_unlink_relinks_and_marks_dead),
    # the right merge reroutes an exit that points left, not right
    Mutant("scan-flips-right-departure-parity", linear_mod,
           "        if not p & 1:\n", "        if p & 1:\n",
           net_slice),
    # the stretch set survives letter visits, so a changed tape looks static
    Mutant("stretch-not-cleared", linear_mod,
           "            stretch.clear()\n", "",
           net_slice),
    # a map jump reads the entry of the other side
    Mutant("map-jump-reads-other-side", linear_mod,
           "out = f.table[head]", "out = f.table[head ^ 1]",
           net_slice),
    # a letter's single-cell map takes the exits of the next letter's column
    Mutant("cf-reads-next-column", mapping_mod,
           "c.out_tab[s::c.width]", "c.out_tab[s + 1::c.width]",
           net_slice),
    # a cell freezes one visit after its last write; that visit writes
    # nothing, so verdicts hold and only the scans tell
    Mutant("freeze-one-visit-late", linear_mod,
           "if v >= limit or fixed[w]:", "if v > limit or fixed[w]:",
           test_linear.test_even_a_interior_collapses_to_one_map),
    # the letter run counts a visit to a marker before it hands the marker
    # to the main loop; verdicts hold and only the markers' counts tell
    Mutant("marker-visit-counted", linear_mod,
           "                if s >= n_letters:  # a marker: the main loop moves off it\n"
           "                    break\n"
           "                k = head_row[head] + s\n"
           "                v = visits[pos] + 1\n"
           "                visits[pos] = v\n",
           "                k = head_row[head] + s\n"
           "                v = visits[pos] + 1\n"
           "                visits[pos] = v\n"
           "                if s >= n_letters:  # a marker: the main loop moves off it\n"
           "                    break\n",
           test_linear.test_markers_are_never_visited_as_letters),
    # the letter run reads the row of state head >> 1, not of the head's state
    Mutant("row-of-the-halved-state", linear_mod,
           "k = head_row[head] + s", "k = head_row[head >> 1] + s",
           test_linear.test_verdicts_and_projections_match_naive_on_zoo),
    # a scan record takes its segment from the links alone, so a map-loop
    # scan's segment reaches into the neighbour map it left unmerged
    Mutant("scan-record-segment-from-links", linear_mod,
           "                                   pos if fmap[left] is not None else left + 1,\n"
           "                                   pos if fmap[right] is not None else right - 1))\n",
           "                                   left + 1, right - 1))\n",
           partial(test_linear.test_map_loop_scan_record_gives_the_merges_it_completed,
                   183, 2, "bba", [3, 3])),
    # the JSON merged_right flag counts a segment that ends at the scanned
    # cell as a merge, so a scan with no right merge reports one
    Mutant("merged-right-from-the-wrong-end", outcome_mod,
           "t[9] > t[1]", "t[9] >= t[1]",
           test_linear.test_scan_record_values_golden),
    # a scan reads its cell's neighbours before it merges them, so the head
    # leaves for a cell the merge unlinked
    Mutant("scan-reads-neighbours-before-scan", linear_mod,
           "                    out = deletion_scan(tape, pos, out, cf.get(w) or cf_idx(c, w))\n"
           "                    scans += 1\n"
           "                    left, right = prev[pos], nxt[pos]\n",
           "                    left, right = prev[pos], nxt[pos]\n"
           "                    out = deletion_scan(tape, pos, out, cf.get(w) or cf_idx(c, w))\n"
           "                    scans += 1\n",
           net_slice),
    # a completed scan sends the head out on the side its exit does not name
    Mutant("scan-moves-to-the-other-side", linear_mod,
           "                    pos = left if out & 1 else right\n",
           "                    pos = right if out & 1 else left\n",
           net_slice),
    # a write that sticks leaves the stamps current, so the stretch of the
    # old content survives the change and a pair seen before it reads as a
    # repeat
    Mutant("stamp-kept-across-a-write", naive_mod,
           "                    gen += 1\n", "",
           test_naive.test_detector_fires_on_the_first_repeated_pair),
    # a cell takes one write more than its visit limit allows
    Mutant("writable-one-visit-late", naive_mod,
           "if v < limit:", "if v <= limit:",
           partial(test_naive.test_outcomes_pinned_on_random_machines,
                   mode=COUNTED, dlimit=DLimit.const(1))),
    # a step on a marker is flagged frozen like one on a fixed letter
    Mutant("marker-step-flagged-frozen", naive_mod,
           "s < lo if fixed[s]", "True if fixed[s]",
           test_naive.test_frozen_flag_recounted_from_the_trace),
    # every state stamps into the row of state 0, so the stamp is keyed by
    # the position alone and a cell revisited in another state reads as a
    # repeat
    Mutant("stamp-key-drops-the-state", naive_mod,
           "row = seen[state]\n                    if row is None:\n"
           "                        row = seen[state] =",
           "row = seen[0]\n                    if row is None:\n"
           "                        row = seen[0] =",
           test_naive.test_detector_fires_on_the_first_repeated_pair),
    # a run does not write its last generation back to the table it hands
    # on, so the next run counts again from a generation whose stamps are
    # still in the rows
    Mutant("generation-not-written-back", naive_mod,
           "            stamps.gen = gen\n", "",
           test_naive.test_reused_stamp_table_is_invisible),
    # a run on a kept table starts at generation 1, so a stamp left by an
    # earlier run can equal the current generation
    Mutant("reused-table-restarts-at-generation-1", naive_mod,
           "gen = stamps.gen + 1", "gen = 1",
           test_naive.test_reused_stamp_table_is_invisible),
    # compilation takes a state listed twice as one state and compiles the
    # machine
    Mutant("compile-lets-duplicate-states-through", model_mod,
           "{(len(states), width): None}", "{(len(state_index), width): None}",
           partial(test_model.test_compile_refuses_what_validation_reports,
                   dict(states=("q", "q"), accept=()),
                   "DuplicateToken at (None, q): duplicate in state list")),
    # the d-limit rule lets a kind through that no engine can evaluate
    Mutant("unknown-dlimit-kind-allowed", model_mod,
           'return f"unknown d-limit kind {dlimit.kind!r}"', "return None",
           test_model.test_unknown_dlimit_kind_is_a_violation),
    # the harness lets the engines disagree on a verdict
    Mutant("compare-skips-verdict", difftest_mod,
           "    if no.verdict != lo.verdict:\n", "    if False:\n",
           test_difftest.test_compare_run_reports_a_flipped_verdict),
    # the harness lets the regular projections disagree
    Mutant("compare-skips-projection", difftest_mod,
           "    if not projections_agree(no.verdict, pn, pl):\n", "    if False:\n",
           test_difftest.test_compare_run_reports_a_changed_regular_record),
    # the harness counts no run over its step budget
    Mutant("compare-skips-step-budget", difftest_mod,
           "        if lo.steps > step_budget(aut, n):\n", "        if False:\n",
           partial(test_difftest.test_compare_run_counts_each_bound_it_checks, field="steps")),
    # the harness counts no run with more scans than cells
    Mutant("compare-skips-scan-count", difftest_mod,
           "        if lo.scans > n:\n", "        if False:\n",
           partial(test_difftest.test_compare_run_counts_each_bound_it_checks, field="scans")),
    # the harness counts no composition over its 8|Q| edges
    Mutant("compare-skips-edge-bound", difftest_mod,
           "        if lo.compose_edges_max > 8 * aut.compiled.n_states:\n", "        if False:\n",
           partial(test_difftest.test_compare_run_counts_each_bound_it_checks,
                   field="compose_edges_max")),
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


@pytest.mark.parametrize("check", [net_slice, net_slice_with_shadow])
def test_net_slice_passes_unmutated(check):
    check()
