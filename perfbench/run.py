"""limla benchmark: one workload, one seed, one process, one job at a time.

    python3 perfbench/run.py --workload anbn --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src and
the zoo from ./machines.  Set-up is repeated (see SETUP_REPS) and its
median reported as setup_s.  Then passes over the workload's jobs repeat
until --seconds have elapsed (at least MIN_PASSES of them).  Times are
medians over passes (or set-ups) of times scaled to a nominal host speed
(calibrate.py), because the speed of a shared host drifts by tens of
percent within a run.  Every job's result is checked on every pass.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (see layers.py); the raw spans go to perfbench/out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import LOOP, PIN_FIELDS, WHY, SetupError  # noqa: E402

SETUP_REPS = (5, 21)     # set-ups: at least 5, then more, up to 21, ...
SETUP_BUDGET_S = 1.5     # ... until this much time has gone into them
MIN_PASSES = 10          # untraced run
MIN_TRACED_PASSES = 3    # each of untraced and traced, in a traced run
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10

E2E = [  # name, unit, in the result line
    ("setup_s", "s", True),
    ("wall_s", "s", True),
    ("naive_s", "s", True),
    ("linear_s", "s", True),
    ("job_p50_ms", "ms", True),
    ("job_tail_ms", "ms", True),
    ("peak_rss_mb", "MB", True),
    # 0 when every job passes, so it has no ratio bound; the result line
    # carries it as attempted / failed.
    ("failed_frac", "fraction", False),
]

ENVIRONMENT = (
    "nproc={nproc} python={py} {impl}; CPU pinning and frequency control are not "
    "available, and a fixed pass drifts by tens of percent on this kind of shared host, "
    "so every time is scaled by a calibration loop timed around it and reported as a "
    "median over repeated passes (set-up: over {reps} set-ups)")


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest grid percentile with at least TAIL_BEYOND samples beyond it
    in MIN_PASSES passes, so that it is the same in every run."""
    n = jobs_per_pass * MIN_PASSES
    for p in TAIL_GRID:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return 50.0


def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    k = max(0, min(len(sorted_vals) - 1, int(-(-p * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def load_pins(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)["pins"]


def save_pins(path: Path, pins: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in sorted(pins.items(), key=lambda kv: kv[0])]
    with open(path, "w", encoding="utf-8") as fp:
        fp.write('{"fields": ' + json.dumps(list(PIN_FIELDS)) + ',\n "pins": {\n'
                 + ",\n".join(lines) + "\n}}\n")


def group_sums(pins: list, group_of: list, n_groups: int) -> list:
    """Per-group field sums; None for a group with a job that raised."""
    sums = [[0] * len(PIN_FIELDS) for _ in range(n_groups)]
    for j, pin in enumerate(pins):
        g = group_of[j]
        if pin is None or sums[g] is None:
            sums[g] = None
            continue
        row = sums[g]
        for i, x in enumerate(pin):
            row[i] += x
    return sums


class Checker:
    """Counts failed jobs: reported problems, outcomes that differ from the
    first pass, and group sums that differ from the committed pins."""

    def __init__(self, wl, committed):
        self.group_of = wl.group_of
        self.n_groups = max(wl.group_of) + 1 if wl.group_of else 0
        self.committed = committed
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, result) -> None:
        bad = dict(result.problems)
        if self.first is None:
            self.first = result.pins
        for j, pin in enumerate(result.pins):
            if j not in bad and (pin is None or pin != self.first[j]):
                bad[j] = f"outcome {pin} differs from the first pass {self.first[j]}"
        if self.committed is not None:
            sums = group_sums(result.pins, self.group_of, self.n_groups)
            pinned = self.committed + [None] * (self.n_groups - len(self.committed))
            for j, g in enumerate(self.group_of):
                if j not in bad and sums[g] != pinned[g]:
                    bad[j] = f"group {g}: outcome sums {sums[g]} != pinned {pinned[g]}"
        self.attempted += len(self.group_of)
        self.failed += len(bad)
        for j in sorted(bad)[:5 - len(self.examples)]:
            self.examples.append(f"job {j}: {bad[j]}")


class Timing(NamedTuple):
    wall_ns: int
    naive_ns: int
    linear_ns: int
    latencies: array         # ns per completed job
    scale: float             # calibrate.scale() around this pass


def timing(result, before_ns: int, after_ns: int) -> Timing:
    return Timing(result.wall_ns, result.naive_ns, result.linear_ns,
                  array("q", result.latencies), calibrate.scale(before_ns, after_ns))


def measure(args) -> int:
    name, size = args.workload, args.size
    traced = args.trace == 1
    pins_path = HERE / "pins" / f"{name}.json"
    pin_key = f"{size}/{args.seed}"

    setups, setup_raw, cals = [], [], [calibrate.host_ns()]
    lo, hi = SETUP_REPS
    t_setup = time.monotonic() + SETUP_BUDGET_S
    while len(setups) < lo or (len(setups) < hi and time.monotonic() < t_setup):
        wl = None
        gc.collect()   # drop the previous set-up's modules before the next import
        lt = layers.LayerTrace() if traced else None
        wl, secs = workloads.set_up(name, args.seed, size,
                                    instrument=lt.install if lt else None)
        cals.append(calibrate.host_ns())
        k = calibrate.scale(cals[-2], cals[-1])
        setups.append((secs, k))
        if lt:
            lt.restore()
            setup_raw.append({span: ns * k for span, ns in lt.take()["self_ns"].items()})

    all_pins = load_pins(pins_path)
    committed = None if args.record else all_pins.get(pin_key)
    checker = Checker(wl, committed)
    lt = layers.LayerTrace() if traced else None
    plain, traced_runs = [], []
    need = MIN_TRACED_PASSES if traced else MIN_PASSES
    wl.attach()
    try:
        t_end = time.monotonic() + args.seconds
        while len(plain) < need or time.monotonic() < t_end:
            result = wl.run_pass()
            cals.append(calibrate.host_ns())
            checker.check(result)
            plain.append(timing(result, cals[-2], cals[-1]))
            if traced:
                lt.install(wl.L)
                try:
                    result = lt.tracer.call("pass", wl.run_pass)
                finally:
                    lt.restore()
                cals.append(calibrate.host_ns())
                checker.check(result)
                raw = lt.take()
                traced_runs.append((timing(result, cals[-2], cals[-1]),
                                    layers.pass_counts(raw, result), layers.pass_times(raw)))
    finally:
        wl.detach()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before stats

    print(f"limla benchmark: workload={name} seed={args.seed} size={size} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"why: {WHY[name]}")
    print(f"loop: {LOOP}; {wl.n_jobs} jobs per pass, {len(plain)} untraced"
          + (f" + {len(traced_runs)} traced" if traced else "") + " passes")
    print("env: " + ENVIRONMENT.format(nproc=os.cpu_count(), py=platform.python_version(),
                                       impl=platform.python_implementation(), reps=len(setups)))
    print(f"host: calibration loop median {statistics.median(cals) / 1e6:.3f} ms over "
          f"{len(cals)} timings, nominal {calibrate.NOMINAL_NS / 1e6:g} ms; times below are "
          "scaled to the nominal host (see calibrate.py)")

    correct = checker.failed == 0
    if args.record:
        if correct:
            all_pins[pin_key] = group_sums(checker.first, wl.group_of, checker.n_groups)
            save_pins(pins_path, all_pins)
            print(f"pins: recorded {pin_key} in {pins_path}")
        else:
            print("pins: not recorded, the run had failures")
    elif committed is not None:
        print(f"pins: every pass checked against {pin_key} in {pins_path.name}")
    else:
        print(f"pins: none recorded for {pin_key}; outcomes checked for repeatability "
              "across passes and by the per-workload cross-checks")

    if traced:
        metrics, units, problems = per_layer(traced_runs, plain, setup_raw)
        for problem in problems:
            correct = False
            print(f"inconsistent count: {problem}")
    else:
        metrics, units = end_to_end(plain, setups, wl.n_jobs, checker, peak_rss_mb)
    for ex in checker.examples:
        print(f"failed {ex}")
    if traced:
        spans = HERE / "out" / f"spans-{name}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        lt.tracer.write(str(spans))
        print(f"spans: {spans.relative_to(HERE.parent)}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


def end_to_end(plain, setups, jobs, checker, peak_rss_mb):
    lat = sorted(x * t.scale for t in plain for x in t.latencies)
    p = tail_percentile(jobs)
    tail = percentile(lat, p) if lat else 0
    values = {
        "setup_s": statistics.median(secs * k for secs, k in setups),
        "wall_s": statistics.median(t.wall_ns * t.scale for t in plain) / 1e9,
        "naive_s": statistics.median(t.naive_ns * t.scale for t in plain) / 1e9,
        "linear_s": statistics.median(t.linear_ns * t.scale for t in plain) / 1e9,
        "job_p50_ms": statistics.median(lat) / 1e6 if lat else 0.0,
        "job_tail_ms": tail / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": checker.failed / checker.attempted,
    }
    unscaled = {
        "setup_s": statistics.median(secs for secs, _ in setups),
        "wall_s": statistics.median(t.wall_ns for t in plain) / 1e9,
        "naive_s": statistics.median(t.naive_ns for t in plain) / 1e9,
        "linear_s": statistics.median(t.linear_ns for t in plain) / 1e9,
    }
    for metric, unit, _ in E2E:
        raw = f"   (unscaled {unscaled[metric]:.6f})" if metric in unscaled else ""
        print(f"  {metric:<14} {values[metric]:>14.6f} {unit}{raw}")
    beyond = sum(1 for x in lat if x > tail)
    print(f"job_tail_ms is p{p:g} of {len(lat)} job latencies ({beyond} beyond it); "
          f"failed_frac = {checker.failed} / {checker.attempted}")
    return values, {m: u for m, u, in_json in E2E if in_json}


def per_layer(traced_runs, plain, setup_raw):
    counts = [c for _, c, _ in traced_runs]
    problems = layers.consistency_problems(counts[0])
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    times = [{k: v * t.scale for k, v in ts.items()} for t, _, ts in traced_runs]
    median_times = {k: statistics.median(t[k] for t in times) for k in times[0]}
    values = layers.derive(counts[0], median_times)
    for metric, span in layers.SETUP_TIME.items():
        values[metric] = statistics.median(raw.get(span, 0) for raw in setup_raw) / 1e9
    traced_wall = statistics.median(t.wall_ns * t.scale for t, _, _ in traced_runs)
    plain_wall = statistics.median(t.wall_ns * t.scale for t in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    for m in layers.PER_LAYER:
        print(f"  {m.name:<32} {values[m.name]:>16.6f} {m.unit:<6} moves: {m.moves}")
    return values, {m.name: m.unit for m in layers.PER_LAYER if m.json}, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small jobs, for the self-test")
    p.add_argument("--record", action="store_true",
                   help="write this run's outcomes into perfbench/pins/WORKLOAD.json "
                        "instead of checking them")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        return measure(args)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
