"""The differential harness's own detectors.

compare_run is handed doctored linear outcomes through the name it looks
the engine up by, difftest.run_linear, so each check is seen to report the
fault it guards against and to let pass the runs it must let pass.
"""
import dataclasses

import pytest

import limla.difftest as difftest_mod
from limla.difftest import DiffStats, compare_run, step_budget
from limla.linear import run_linear
from limla.model import ACCEPT, REJECT
from limla.zoo import build_anbn, build_even_a_2dfa


def _doctor(monkeypatch, change) -> None:
    """compare_run sees change(outcome, word) for each linear outcome."""
    def doctored(aut, word, **kwargs):
        return change(run_linear(aut, word, **kwargs), word)

    monkeypatch.setattr(difftest_mod, "run_linear", doctored)


def _with_trace(out, trace):
    return dataclasses.replace(out, trace=trace)


def test_compare_run_reports_a_flipped_verdict(monkeypatch):
    aut = build_anbn()
    flip = {ACCEPT: REJECT, REJECT: ACCEPT}
    _doctor(monkeypatch, lambda out, word: dataclasses.replace(out, verdict=flip[out.verdict]))
    for word in ("aabb", "aab"):
        div = compare_run(aut, word)
        assert div is not None and div.kind == "verdict", word


def test_compare_run_reports_a_changed_regular_record(monkeypatch):
    aut, word = build_anbn(), "aabb"
    trace = run_linear(aut, word, trace=True).trace
    j = [i for i, t in enumerate(trace) if not t[6]][2]  # projection record 3
    changed = trace[:j] + [trace[j][:5] + (trace[j][5] ^ 1,) + trace[j][6:]] + trace[j + 1:]
    _doctor(monkeypatch, lambda out, w: _with_trace(out, changed))
    div = compare_run(aut, word)
    assert div is not None and div.kind == "trace"
    assert div.detail == "regular projections differ at record 3"


def test_compare_run_holds_a_rejecting_run_to_the_shorter_projection(monkeypatch):
    # the two loop detectors may fire a bounded number of moves apart, so a
    # rejecting run's projections need only agree up to the shorter one; an
    # accepting run's must be equal
    cases = ((build_even_a_2dfa(), "ab", None), (build_anbn(), "aabb", "trace"))
    for aut, word, kind in cases:
        trace = run_linear(aut, word, trace=True).trace
        last = max(i for i, t in enumerate(trace) if not t[6])
        _doctor(monkeypatch, lambda out, w: _with_trace(out, trace[:last]))
        div = compare_run(aut, word)
        assert (div and div.kind) == kind, word


_BOUNDS = {  # outcome field: (its DiffStats list, the least value over its bound)
    "steps": ("bound_violations", lambda aut, n: step_budget(aut, n) + 1),
    "scans": ("scan_violations", lambda aut, n: n + 1),
    "compose_edges_max": ("edge_violations", lambda aut, n: 8 * aut.compiled.n_states + 1),
}


@pytest.mark.parametrize("field", sorted(_BOUNDS))
def test_compare_run_counts_each_bound_it_checks(monkeypatch, field):
    aut, word = build_anbn(), ("a", "a", "b", "b")
    name, over = _BOUNDS[field]
    value = over(aut, len(word))
    _doctor(monkeypatch, lambda out, w: dataclasses.replace(out, **{field: value}))
    stats = DiffStats()
    assert compare_run(aut, word, stats=stats) is None
    assert stats.runs == 1
    assert {k: getattr(stats, k) for k, _ in _BOUNDS.values()} == {
        k: [(word, value)] if k == name else [] for k, _ in _BOUNDS.values()}
