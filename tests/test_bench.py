import csv
import io
from dataclasses import fields

import pytest

from limla.bench import (
    BenchRow, Degenerate, doubling_ratios, fit_scaling, make_word, run_bench, write_csv,
)
from limla.zoo import build_anbn, build_sweeper


def _rows(pairs, machine="m", engine="naive", verdict="accept"):
    return [BenchRow(machine, engine, n, s, 0, verdict) for n, s in pairs]


def test_fit_exact_quadratic():
    fit = fit_scaling(_rows([(n, n * n) for n in (4, 8, 16, 32)]))
    assert abs(fit.slope - 2.0) <= 1e-9
    assert fit.residual <= 1e-9
    assert fit.points == 4


def test_fit_exact_linear():
    fit = fit_scaling(_rows([(n, 7 * n) for n in (3, 9, 27)]))
    assert abs(fit.slope - 1.0) <= 1e-9


def test_fit_degenerate_cases():
    with pytest.raises(Degenerate):
        fit_scaling(_rows([(4, 16), (8, 64)]))  # too few rows
    with pytest.raises(Degenerate):
        fit_scaling(_rows([(0, 1), (2, 4), (4, 16)]))  # n <= 0
    with pytest.raises(Degenerate):
        fit_scaling(_rows([(2, 0), (4, 16), (8, 64)]))  # steps <= 0
    mixed = _rows([(2, 4), (4, 16)]) + _rows([(8, 64)], engine="linear")
    with pytest.raises(Degenerate):
        fit_scaling(mixed)
    with pytest.raises(Degenerate):
        fit_scaling(_rows([(4, 1), (4, 2), (4, 3)]))  # constant x


def test_make_word_generators():
    aut = build_anbn()
    assert make_word("anbn", aut, 6) == ("a", "a", "a", "b", "b", "b")
    assert make_word("unary", aut, 3) == ("a", "a", "a")
    w1 = make_word("random", aut, 8, seed=5)
    assert w1 == make_word("random", aut, 8, seed=5)
    assert len(w1) == 8 and set(w1) <= {"a", "b"}
    with pytest.raises(ValueError):
        make_word("anbn", aut, 5)  # odd length
    with pytest.raises(ValueError):
        make_word("nope", aut, 4)


def test_bench_rows_deterministic_steps():
    aut = build_anbn()
    a = run_bench(aut, "anbn", ("naive", "linear"), (8, 16, 32), "anbn")
    b = run_bench(aut, "anbn", ("naive", "linear"), (8, 16, 32), "anbn")
    strip = lambda rows: [(r.machine, r.engine, r.n, r.steps, r.verdict)
                          for r in rows]
    assert strip(a) == strip(b)


def test_csv_layout():
    aut = build_anbn()
    rows = run_bench(aut, "anbn", ("naive",), (8, 16, 32), "anbn")
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "machine,engine,n,steps,wall_ns,verdict"
    assert len(lines) == 4
    assert lines[1].startswith("anbn,naive,8,")
    # every row holds BenchRow's fields, in the header's order
    assert list(csv.reader(io.StringIO(buf.getvalue())))[1:] == [
        [str(getattr(r, f.name)) for f in fields(BenchRow)] for r in rows]


def test_anbn_profiles_small():
    aut = build_anbn()
    naive = run_bench(aut, "anbn", ("naive",), (32, 64, 128), "anbn")
    fit = fit_scaling(naive)
    assert 1.8 <= fit.slope <= 2.2
    assert all(3.4 <= r <= 4.6 for r in doubling_ratios(naive))
    linear = run_bench(aut, "anbn", ("linear",), (32, 64, 128), "anbn")
    fit = fit_scaling(linear)
    assert 0.8 <= fit.slope <= 1.2
    assert all(1.6 <= r <= 2.4 for r in doubling_ratios(linear))


def test_sweeper_quadratic_naive():
    aut = build_sweeper()
    rows = run_bench(aut, "sweeper", ("naive",), (16, 32, 64), "unary")
    assert 1.8 <= fit_scaling(rows).slope <= 2.2
