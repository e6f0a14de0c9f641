"""Step-count benchmarks and log-log scaling fits.

Step counts are the primary metric: they are bit-for-bit reproducible
and directly witness the engines' growth rates.  Wall time is recorded
as a secondary column and excluded from any determinism checks.
"""
from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass

from .naive import run_naive
from .linear import run_linear
from .rng import SplitMix64


class Degenerate(ValueError):
    pass


@dataclass(frozen=True)
class BenchRow:
    machine: str
    engine: str
    n: int
    steps: int
    wall_ns: int
    verdict: str


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    residual: float   # root mean square residual in log space
    points: int


CSV_HEADER = ["machine", "engine", "n", "steps", "wall_ns", "verdict"]

GENERATORS = ("anbn", "unary", "random")


def check_word(kind: str, aut, length: int) -> None:
    """Raise ValueError if make_word cannot make this word; makes nothing."""
    alphabet = aut.input_alphabet
    if kind == "anbn":
        if "a" not in alphabet or "b" not in alphabet:
            raise ValueError("anbn generator needs 'a' and 'b' in the input alphabet")
        if length % 2:
            raise ValueError("anbn generator needs even lengths")
    elif kind in ("unary", "random"):
        if not alphabet:
            raise ValueError(f"{kind} generator needs a non-empty input alphabet")
    else:
        raise ValueError(f"unknown generator {kind!r}")


def make_word(kind: str, aut, length: int, seed: int = 0) -> tuple:
    """Deterministic benchmark word of the given total length."""
    check_word(kind, aut, length)
    alphabet = aut.input_alphabet
    if kind == "anbn":
        half = length // 2
        return ("a",) * half + ("b",) * half
    if kind == "unary":
        return (alphabet[0],) * length
    k = len(alphabet)
    return tuple([alphabet[v % k] for v in SplitMix64(seed + length).take(length)])


def run_bench(aut, machine_id: str, engines, lengths, gen: str, seed: int = 0) -> list:
    rows = []
    for length in lengths:
        word = make_word(gen, aut, length, seed)
        for engine in engines:
            runner = run_naive if engine == "naive" else run_linear
            t0 = time.perf_counter_ns()
            out = runner(aut, word)
            wall = time.perf_counter_ns() - t0
            rows.append(BenchRow(machine_id, engine, length, out.steps, wall, out.verdict))
    rows.sort(key=lambda r: (r.machine, r.engine, r.n))
    return rows


def write_csv(rows, fp) -> None:
    """Write the rows as CSV, header first, to an open text file."""
    w = csv.writer(fp)
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow([r.machine, r.engine, r.n, r.steps, r.wall_ns, r.verdict])


def fit_scaling(rows) -> ScalingFit:
    """Least-squares slope of log(steps) against log(n)."""
    rows = list(rows)
    if len(rows) < 3:
        raise Degenerate("need at least 3 rows")
    if len({(r.machine, r.engine, r.verdict) for r in rows}) != 1:
        raise Degenerate("rows must share one machine, engine and verdict")
    if any(r.n <= 0 or r.steps <= 0 for r in rows):
        raise Degenerate("n and steps must be positive for a log-log fit")
    xs = [math.log(r.n) for r in rows]
    ys = [math.log(r.steps) for r in rows]
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError as e:
        raise Degenerate(str(e)) from None
    resid = math.sqrt(statistics.fmean((y - (slope * x + intercept)) ** 2
                                       for x, y in zip(xs, ys)))
    return ScalingFit(slope, resid, len(rows))


def doubling_ratios(rows) -> list:
    """steps[2n] / steps[n] for consecutive doubled lengths."""
    by_n = {r.n: r.steps for r in rows}
    ratios = []
    for n in sorted(by_n):
        if 2 * n in by_n and by_n[n] > 0:
            ratios.append(by_n[2 * n] / by_n[n])
    return ratios
