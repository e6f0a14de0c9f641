"""Workloads of the limla benchmark: set-up, one timed pass, result checks.

A job is one (machine, word) pair run through both engines.  Each
workload builds its jobs from the seed alone; the library only ever sees
the generated machines and words.  Jobs run one at a time in a closed
loop with a single client: the next job starts when the previous one
has returned.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracer import Patches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MACHINES = ROOT / "machines"
ENGINES = ("naive", "linear")
LIMLA_MODULES = ("bench", "difftest", "fmt", "linear", "mapping", "model",
                 "naive", "outcome", "rng", "tape", "zoo")

_now = time.perf_counter_ns


class SetupError(Exception):
    """The checkout does not hold a usable limla source tree."""


LOOP = "closed loop, 1 client, 1 job at a time"
WHY = {  # the same one-line reasons as in BENCHMARK.json
    "anbn": "zoo anbn machine on long a^k b^k words, both engines: the quadratic naive "
            "regime where folding wins; naive-loop changes show here (closed loop, 1 client)",
    "twodfa": "zoo even_a two-way DFA (ranked, d=0) on long random words: one scan and one "
              "compose per cell, where linear is ~30x slower than naive (closed loop, "
              "1 client)",
    "random": "seeded random machines, |Q| 8/32/64, ranked d=1,3 and counted log2/sqrt/id, "
              "long words: compose cost grows with |Q|; counted runs are mostly letter moves "
              "(closed loop, 1 client)",
    "diff": "differential-gate traffic: compare_run with the shadow oracle on random |Q|<=6 "
            "machines, both modes, every d-limit; exercises shadow, traces, projection "
            "(closed loop, 1 client)",
}


# Sizes per workload.  "full" is the benchmark; "tiny" is for the self-test.
SIZES = {
    "anbn": {"full": dict(jobs=12, lo=256, hi=640), "tiny": dict(jobs=2, lo=16, hi=32)},
    "twodfa": {"full": dict(jobs=24, lo=512, hi=1536), "tiny": dict(jobs=2, lo=32, hi=64)},
    "random": {"full": dict(per_class=12, n=128), "tiny": dict(per_class=4, n=24)},
    "diff": {"full": dict(per_class=24, short=5, longer=6, longer_len=12),
             "tiny": dict(per_class=6, short=2, longer=1, longer_len=6)},
}

WARMUP_LEN = 8


def import_limla():
    """Import limla afresh from the checkout's src/, so set-up can be timed again."""
    if not (SRC / "limla" / "__init__.py").is_file():
        raise SetupError(f"no limla package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "limla" or m.startswith("limla.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("limla")
    if Path(pkg.__file__).resolve().parent != (SRC / "limla").resolve():
        raise SetupError(f"imported limla from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"limla.{m}") for m in LIMLA_MODULES})


# --------------------------------------------------------------------------
# Engine outcome capture

class Tap:
    """Keeps every engine outcome a pass produces, in call order.

    Wraps the engine names that `module` looks up (run_naive / run_linear).
    With timed=True it also sums the time of each engine call; that is
    only used where no library function already times the call.
    """

    def __init__(self, module, timed: bool):
        self.outcomes = []
        self.ns = {"naive": 0, "linear": 0}
        self._patches = Patches()
        for engine in ENGINES:
            attr = f"run_{engine}"
            orig = getattr(module, attr)
            self._patches.replace(module, attr, self._timed(engine, orig) if timed
                                  else self._plain(engine, orig))

    def _plain(self, engine, fn):
        outcomes = self.outcomes

        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            outcomes.append((engine, out))
            return out
        return run

    def _timed(self, engine, fn):
        outcomes, ns = self.outcomes, self.ns

        def run(*args, **kwargs):
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                ns[engine] += _now() - t0
            outcomes.append((engine, out))
            return out
        return run

    def restore(self) -> None:
        self._patches.restore()


def pin_of(naive_out, linear_out) -> tuple:
    """The exact outcome of one job: verdict, naive steps, linear iterations,
    letter / map / marker moves, scans and compose calls."""
    return (1 if naive_out.verdict == "accept" else 0, naive_out.steps, linear_out.steps,
            linear_out.moves["letter"], linear_out.moves["map"], linear_out.moves["marker"],
            linear_out.scans, linear_out.compose_calls)


PIN_FIELDS = ("accepts", "naive_steps", "linear_iterations", "letter_moves",
              "map_jumps", "marker_moves", "scans", "compose_calls")


@dataclass
class PassResult:
    wall_ns: int
    naive_ns: int
    linear_ns: int
    latencies: list          # ns per job that completed, job order
    pins: list               # per job: pin tuple, or None when the job raised
    problems: dict = field(default_factory=dict)   # job index -> reason
    diff_runs: int = 0
    divergences: int = 0


# --------------------------------------------------------------------------
# Set-up shared by every workload

def load_zoo(L) -> dict:
    """Parse, validate and compile machines/*.limla; each must equal its zoo builder."""
    zoo = {}
    for path in sorted(MACHINES.glob("*.limla")):
        aut = L.fmt.parse_machine(path.read_text(encoding="utf-8"))
        report = L.model.validate_automaton(aut)
        if not report.ok:
            raise SetupError(f"{path.name}: {report.violations[0]}")
        aut.compiled
        build = L.zoo.ZOO.get(path.stem)
        if build is None or build() != aut:
            raise SetupError(f"{path.name} does not match the zoo builder {path.stem!r}")
        zoo[path.stem] = aut
    for name in ("anbn", "even_a"):
        if name not in zoo:
            raise SetupError(f"machines/{name}.limla is missing")
    return zoo


def generate(L, params):
    aut = L.zoo.random_automaton(params)
    report = L.model.validate_automaton(aut)
    if not report.ok:
        raise SetupError(f"generated machine invalid: {report.violations[0]}")
    aut.compiled
    return aut


def stratified_lengths(rng, count: int, lo: int, hi: int, even: bool) -> list:
    """`count` distinct lengths, one drawn from each equal slice of [lo, hi)."""
    step = (hi - lo) / count
    out = []
    for i in range(count):
        width = max(1, int(step))
        n = lo + int(i * step) + rng.below(width)
        if even:
            n -= n % 2
        out.append(n)
    if len(set(out)) != len(out):
        raise SetupError("length slices too narrow for distinct lengths")
    return out


# --------------------------------------------------------------------------
# Engine workloads: anbn, twodfa, random go through limla.bench.run_bench

@dataclass
class BenchCall:
    aut: object
    machine_id: str
    gen: str
    lengths: list
    seed: int
    expect: list             # per length: "accept" / "reject" / None
    group: int = 0           # pin group of the first length; one group per job


class EngineWorkload:
    """Jobs are run_bench calls; run_bench times every engine call itself."""

    def __init__(self, L, calls: list):
        self.L = L
        self.calls = calls
        g = 0
        for call in calls:
            call.group = g
            g += len(call.lengths)
        self.n_jobs = g
        self.group_of = list(range(g))
        self.tap = None

    def warm_up(self) -> None:
        for call in self.calls:
            self.L.bench.run_bench(call.aut, call.machine_id, ENGINES, [WARMUP_LEN],
                                   call.gen, call.seed)

    def attach(self) -> None:
        self.tap = Tap(self.L.bench, timed=False)

    def detach(self) -> None:
        self.tap.restore()

    def run_pass(self) -> PassResult:
        run_bench = self.L.bench.run_bench
        tap = self.tap
        latencies, pins, problems = [], [], {}
        naive_ns = linear_ns = 0
        t0 = _now()
        for call in self.calls:
            tap.outcomes.clear()
            try:
                rows = run_bench(call.aut, call.machine_id, ENGINES, call.lengths,
                                 call.gen, call.seed)
            except Exception as e:  # a failing job is counted, not fatal
                for i in range(len(call.lengths)):
                    problems[call.group + i] = f"raised {type(e).__name__}: {e}"
                    pins.append(None)
                continue
            rows = {(r.engine, r.n): r for r in rows}
            outs = tap.outcomes
            for i, n in enumerate(call.lengths):
                rn, rl = rows[("naive", n)], rows[("linear", n)]
                on, ol = outs[2 * i][1], outs[2 * i + 1][1]
                naive_ns += rn.wall_ns
                linear_ns += rl.wall_ns
                latencies.append(rn.wall_ns + rl.wall_ns)
                pins.append(pin_of(on, ol))
                reason = None
                if on.verdict != ol.verdict:
                    reason = f"engines disagree: naive={on.verdict} linear={ol.verdict}"
                elif call.expect[i] is not None and on.verdict != call.expect[i]:
                    reason = f"verdict {on.verdict}, expected {call.expect[i]}"
                elif (rn.steps, rl.steps) != (on.steps, ol.steps):
                    reason = "bench rows disagree with engine outcomes"
                if reason:
                    problems[call.group + i] = f"{call.machine_id} n={n}: {reason}"
        wall = _now() - t0
        return PassResult(wall, naive_ns, linear_ns, latencies, pins, problems)


def build_anbn(L, zoo, rng, size) -> EngineWorkload:
    lengths = stratified_lengths(rng, size["jobs"], size["lo"], size["hi"], even=True)
    order = [lengths.pop(rng.below(len(lengths))) for _ in range(len(lengths))]
    # every a^k b^k is in the language
    return EngineWorkload(L, [BenchCall(zoo["anbn"], "anbn", "anbn", order, 0,
                                        ["accept"] * len(order))])


def build_twodfa(L, zoo, rng, size) -> EngineWorkload:
    aut = zoo["even_a"]
    word_seed = rng.next_u64() >> 16
    lengths = stratified_lengths(rng, size["jobs"], size["lo"], size["hi"], even=False)
    order = [lengths.pop(rng.below(len(lengths))) for _ in range(len(lengths))]
    expect = []
    for n in order:
        word = L.bench.make_word("random", aut, n, word_seed)
        # even_a accepts exactly the words with an even number of a's
        expect.append("accept" if word.count("a") % 2 == 0 else "reject")
    return EngineWorkload(L, [BenchCall(aut, "even_a", "random", order, word_seed, expect)])


RANDOM_STATES = (8, 32, 64)
STEP_RANGE = 8      # a kept machine's naive run takes n to 8n steps
STEP_SLOTS = 4      # equal slots of that range, on a log scale


def random_classes(L):
    m = L.model
    return [(m.RANKED, m.DLimit.const(1)), (m.RANKED, m.DLimit.const(3)),
            (m.COUNTED, m.LOG2), (m.COUNTED, m.SQRT), (m.COUNTED, m.ID)]


def build_random(L, zoo, rng, size) -> EngineWorkload:
    """`per_class` machines for each |Q| and mode / d-limit, one word each.

    A drawn machine is kept when its naive run on its word takes n to 8n
    steps: it reads the whole word and stays in the linear-work regime.
    Quadratic naive runs are the anbn workload's, and machines that
    reject after a few steps would leave the composition path idle.  The
    step range is cut into STEP_SLOTS slots of equal width on a log scale,
    each taking an equal share of a class's machines, so every seed gets
    the same spread of run lengths.  Without the slots the median job
    latency moved by a fifth from one seed to the next.
    """
    n = size["n"]
    per_slot = size["per_class"] // STEP_SLOTS
    calls = []
    for q in RANDOM_STATES:
        for mode, dlimit in random_classes(L):
            room = [per_slot] * STEP_SLOTS
            while any(room):
                mseed = rng.next_u64()
                aut = generate(L, L.zoo.GenParams(q, mseed, mode, dlimit))
                word = L.bench.make_word("random", aut, n, mseed)
                try:
                    steps = L.naive.run_naive(aut, word, max_steps=STEP_RANGE * n).steps
                except L.outcome.BudgetExceeded:
                    continue
                if steps < n:
                    continue
                slot = min(STEP_SLOTS - 1,
                           int(STEP_SLOTS * math.log(steps / n) / math.log(STEP_RANGE)))
                if not room[slot]:
                    continue
                room[slot] -= 1
                mid = f"q{q}-{mode}-{dlimit.token()}-{len(calls)}"
                calls.append(BenchCall(aut, mid, "random", [n], mseed, [None]))
    order = [calls.pop(rng.below(len(calls))) for _ in range(len(calls))]
    return EngineWorkload(L, order)


# --------------------------------------------------------------------------
# Differential workload: limla.difftest.compare_run with the shadow oracle

class DiffWorkload:
    """Jobs are compare_run calls; the tap times the engine calls inside them."""

    def __init__(self, L, machines: list):
        self.L = L
        self.machines = machines          # [(aut, [words])]
        self.group_of = [g for g, (_, words) in enumerate(machines) for _ in words]
        self.n_jobs = len(self.group_of)
        self.tap = None

    def warm_up(self) -> None:
        for aut, words in self.machines:
            self.L.difftest.compare_run(aut, words[-1][:WARMUP_LEN], shadow=True)

    def attach(self) -> None:
        self.tap = Tap(self.L.difftest, timed=True)

    def detach(self) -> None:
        self.tap.restore()

    def run_pass(self) -> PassResult:
        difftest = self.L.difftest
        tap = self.tap
        outs = tap.outcomes
        tap.ns["naive"] = tap.ns["linear"] = 0
        stats = difftest.DiffStats()
        latencies, pins, problems = [], [], {}
        divergences = 0
        bad_before = 0
        j = 0
        t0 = _now()
        for aut, words in self.machines:
            for word in words:
                outs.clear()
                s = _now()
                try:
                    div = difftest.compare_run(aut, word, shadow=True, stats=stats)
                except Exception as e:  # a failing job is counted, not fatal
                    problems[j] = f"raised {type(e).__name__}: {e}"
                    pins.append(None)
                    j += 1
                    continue
                latencies.append(_now() - s)
                bad = (len(stats.bound_violations) + len(stats.scan_violations)
                       + len(stats.edge_violations))
                if len(outs) == 2:
                    pins.append(pin_of(outs[0][1], outs[1][1]))
                else:
                    pins.append(None)
                if div is not None:
                    divergences += 1
                    problems[j] = f"divergence ({div.kind}): {div.detail}"
                elif bad != bad_before:
                    problems[j] = "DiffStats bound, scan or edge violation"
                bad_before = bad
                j += 1
        wall = _now() - t0
        return PassResult(wall, tap.ns["naive"], tap.ns["linear"], latencies, pins,
                          problems, diff_runs=stats.runs, divergences=divergences)


def diff_classes(L):
    m = L.model
    return [(m.RANKED, m.DLimit.const(d)) for d in range(4)] + [
        (m.COUNTED, m.DLimit.const(2)), (m.COUNTED, m.LOG2),
        (m.COUNTED, m.SQRT), (m.COUNTED, m.ID)]


def build_diff(L, zoo, rng, size) -> DiffWorkload:
    """`per_class` machines for each mode / d-limit, |Q| cycling through 1..6
    so that every seed has the same mix of sizes; each runs on all words
    up to length `short` and on `longer` seeded words of `longer_len`."""
    machines = []
    for mode, dlimit in diff_classes(L):
        for i in range(size["per_class"]):
            params = L.zoo.GenParams(
                state_count=1 + i % 6, seed=rng.next_u64(), mode=mode,
                dlimit=dlimit, tape_per_rank=1 + rng.below(2))
            aut = generate(L, params)
            words = list(L.difftest.words_upto(aut.input_alphabet, size["short"]))
            for _ in range(size["longer"]):
                words.append(L.bench.make_word("random", aut, size["longer_len"],
                                               rng.next_u64() >> 16))
            machines.append((aut, words))
    return DiffWorkload(L, machines)


BUILDERS = {"anbn": build_anbn, "twodfa": build_twodfa, "random": build_random,
            "diff": build_diff}


def set_up(name: str, seed: int, size: str, instrument=None):
    """Import, parse, validate, compile, generate and warm up.

    Returns (workload, seconds).  instrument(L), if given, runs right
    after the import so that the tracer sees every set-up call.
    """
    t0 = _now()
    L = import_limla()
    if instrument is not None:
        instrument(L)
    zoo = load_zoo(L)
    rng = L.rng.SplitMix64(seed)
    wl = BUILDERS[name](L, zoo, rng, SIZES[name][size])
    wl.warm_up()
    return wl, (_now() - t0) / 1e9
