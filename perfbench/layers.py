"""Per-layer metrics of the limla benchmark and the tracer hooks behind them.

Each metric names the end-to-end metric it should move and the workload
where it should move it.  Counts are exact and repeat exactly for a seed;
`_s` metrics are seconds of self time in one pass (set-up layers: in one
set-up).  No layer queues work, so there are no waiting times.
"""
from __future__ import annotations

from dataclasses import dataclass

from tracer import Tracer


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    moves: str
    json: bool = True   # in the result line; False for times that are 0 on some workloads


PER_LAYER = [
    Metric("naive.self_s", "s", "naive_s, wall_s on anbn; no change on twodfa"),
    Metric("naive.steps", "count", "naive_s, wall_s on anbn; no change on twodfa"),
    Metric("naive.ns_per_step", "ns", "naive_s, wall_s on anbn; no change on twodfa"),
    Metric("linear.loop_self_s", "s", "linear_s on random (counted machines) and diff"),
    Metric("linear.iterations", "count", "linear_s on random (counted machines) and diff"),
    Metric("linear.letter_moves", "count", "linear_s on random (counted) and diff; 0 on twodfa"),
    Metric("linear.map_jumps", "count", "linear_s on random (counted machines) and diff"),
    Metric("linear.marker_moves", "count", "linear_s on random (counted machines) and diff"),
    Metric("linear.ns_per_iteration", "ns", "linear_s on random (counted machines) and diff"),
    Metric("linear.fold_ratio", "ratio", "explains linear_s against naive_s on every workload"),
    Metric("linear.scan_self_s", "s", "linear_s on twodfa"),
    Metric("linear.scans", "count", "linear_s on twodfa"),
    Metric("linear.ns_per_scan", "ns", "linear_s on twodfa"),
    Metric("mapping.compose_s", "s", "linear_s on twodfa, and on random (ranked)"),
    Metric("mapping.compose_calls", "count", "linear_s on twodfa, and on random (ranked)"),
    Metric("mapping.compose_edges", "count", "linear_s on twodfa, and on random (ranked)"),
    Metric("mapping.ns_per_compose", "ns", "linear_s on twodfa, and on random (ranked)"),
    Metric("mapping.ns_per_compose.q8", "ns", "linear_s on random (ranked)", json=False),
    Metric("mapping.ns_per_compose.q32", "ns", "linear_s on random (ranked)", json=False),
    Metric("mapping.ns_per_compose.q64", "ns", "linear_s on random (ranked)", json=False),
    Metric("mapping.compose_distinct_ratio", "ratio",
           "bounds what a composition memo saves in linear_s on twodfa and random"),
    Metric("mapping.cf_s", "s", "linear_s on every workload"),
    Metric("mapping.cf_calls", "count", "linear_s on every workload"),
    Metric("mapping.describe_s", "s", "wall_s, job_p50_ms on diff", json=False),
    Metric("mapping.describe_calls", "count", "wall_s, job_p50_ms on diff"),
    Metric("tape.from_word_s", "s", "linear_s on every workload"),
    Metric("outcome.projection_s", "s", "wall_s, peak_rss_mb on diff", json=False),
    Metric("outcome.trace_records", "count", "wall_s, peak_rss_mb on diff"),
    Metric("difftest.compare_self_s", "s", "job_p50_ms, job_tail_ms on diff", json=False),
    Metric("difftest.runs", "count", "job_p50_ms, job_tail_ms on diff"),
    Metric("difftest.divergences", "count", "job_p50_ms, job_tail_ms on diff"),
    Metric("fmt.parse_s", "s", "setup_s on every workload"),
    Metric("model.validate_s", "s", "setup_s on every workload"),
    Metric("model.compile_s", "s", "setup_s on every workload"),
    Metric("zoo.generate_s", "s", "setup_s on random and diff"),
    Metric("bench.make_word_s", "s", "setup_s on every workload"),
    Metric("trace.overhead_frac", "ratio",
           "none: cost of this tracer (traced / untraced wall_s - 1)"),
]

COMPOSE_SIZES = (8, 32, 64)

# Span names whose self time is reported, by metric.
SELF_TIME = {
    "naive.self_s": "naive",
    "linear.loop_self_s": "linear",
    "linear.scan_self_s": "linear.scan",
    "mapping.compose_s": "mapping.compose",
    "mapping.cf_s": "mapping.cf",
    "mapping.describe_s": "mapping.describe",
    "tape.from_word_s": "tape.from_word",
    "outcome.projection_s": "outcome.projection",
    "difftest.compare_self_s": "difftest.compare",
}
SETUP_TIME = {
    "fmt.parse_s": "fmt.parse",
    "model.validate_s": "model.validate",
    "model.compile_s": "model.compile",
    "zoo.generate_s": "zoo.generate",
    "bench.make_word_s": "bench.make_word",
}


class LayerTrace:
    """A Tracer plus the wrap list and hooks that feed the per-layer metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.pairs = set()    # distinct (f.table, g.table) composed in this pass

    def install(self, L) -> None:
        tr = self.tracer
        pairs = self.pairs

        def on_compose(tr, args, result, dur):
            f, g = args[0], args[1]
            tr.extra["compose_edges"] += result.edges
            tr.extra[f"compose_ns.q{f.q_count}"] += dur
            tr.extra[f"compose_calls.q{f.q_count}"] += 1
            pairs.add((f.table, g.table))

        def on_projection(tr, args, result, dur):
            tr.extra["trace_records"] += len(args[1].trace)

        # The benchmark's own calls into the library.
        tr.wrap(L.bench, "run_bench", "bench.run_bench")
        tr.wrap(L.bench, "make_word", "bench.make_word")
        tr.wrap(L.difftest, "compare_run", "difftest.compare")
        tr.wrap(L.fmt, "parse_machine", "fmt.parse")
        tr.wrap(L.model, "validate_automaton", "model.validate")
        tr.wrap(L.model, "_compile", "model.compile")
        tr.wrap(L.zoo, "random_automaton", "zoo.generate")
        for name in list(L.zoo.ZOO):
            tr.wrap(L.zoo.ZOO, name, "zoo.generate")
        # Names the engines and the harness look up at call time.
        for owner in (L.bench, L.difftest):
            tr.wrap(owner, "run_naive", "naive")
            tr.wrap(owner, "run_linear", "linear")
        tr.wrap(L.difftest, "regular_projection", "outcome.projection", hook=on_projection)
        tr.wrap(L.linear, "deletion_scan", "linear.scan")
        tr.wrap(L.linear, "compose_full", "mapping.compose", hook=on_compose)
        tr.wrap(L.linear, "cf_idx", "mapping.cf")
        tr.wrap(L.linear, "describe_indices", "mapping.describe")
        tr.wrap(L.tape.ListTape, "from_word", "tape.from_word")

    def restore(self) -> None:
        self.tracer.restore()

    def take(self) -> dict:
        self_ns, calls, extra = self.tracer.take()
        extra["compose_distinct"] = len(self.pairs)
        self.pairs.clear()
        return {"self_ns": self_ns, "calls": calls, "extra": extra}


def _div(a, b) -> float:
    return a / b if b else 0.0


def pass_counts(raw: dict, result) -> dict:
    """Exact counts of one traced pass, from the spans and the job outcomes."""
    calls, extra = raw["calls"], raw["extra"]
    pins = [p for p in result.pins if p is not None]
    col = [sum(p[i] for p in pins) for i in range(8)]
    out = {
        "naive.steps": col[1],
        "linear.iterations": col[2],
        "linear.letter_moves": col[3],
        "linear.map_jumps": col[4],
        "linear.marker_moves": col[5],
        "linear.scans": col[6],
        "mapping.compose_calls": calls.get("mapping.compose", 0),
        "mapping.compose_edges": extra.get("compose_edges", 0),
        "mapping.cf_calls": calls.get("mapping.cf", 0),
        "mapping.describe_calls": calls.get("mapping.describe", 0),
        "outcome.trace_records": extra.get("trace_records", 0),
        "difftest.runs": result.diff_runs,
        "difftest.divergences": result.divergences,
        # bookkeeping used by the ratios below, not reported on their own
        "_compose_distinct": extra.get("compose_distinct", 0),
        "_outcome_compose_calls": col[7],
        "_scan_calls": calls.get("linear.scan", 0),
    }
    for q in COMPOSE_SIZES:
        out[f"_compose_calls.q{q}"] = extra.get(f"compose_calls.q{q}", 0)
    return out


def pass_times(raw: dict) -> dict:
    """Self-time figures of one traced pass, in ns."""
    out = {metric: raw["self_ns"].get(span, 0) for metric, span in SELF_TIME.items()}
    for q in COMPOSE_SIZES:
        out[f"_compose_ns.q{q}"] = raw["extra"].get(f"compose_ns.q{q}", 0)
    return out


def derive(counts: dict, times: dict) -> dict:
    """Per-layer metric values from exact counts and median self times (ns)."""
    v = {k: c for k, c in counts.items() if not k.startswith("_")}
    for metric in SELF_TIME:
        v[metric] = times[metric] / 1e9
    v["naive.ns_per_step"] = _div(times["naive.self_s"], counts["naive.steps"])
    v["linear.ns_per_iteration"] = _div(times["linear.loop_self_s"], counts["linear.iterations"])
    v["linear.fold_ratio"] = _div(counts["linear.iterations"], counts["naive.steps"])
    v["linear.ns_per_scan"] = _div(times["linear.scan_self_s"], counts["linear.scans"])
    v["mapping.ns_per_compose"] = _div(times["mapping.compose_s"], counts["mapping.compose_calls"])
    for q in COMPOSE_SIZES:
        v[f"mapping.ns_per_compose.q{q}"] = _div(times[f"_compose_ns.q{q}"],
                                                 counts[f"_compose_calls.q{q}"])
    v["mapping.compose_distinct_ratio"] = _div(counts["_compose_distinct"],
                                               counts["mapping.compose_calls"])
    return v


def consistency_problems(counts: dict) -> list:
    """Cross-checks between what the spans saw and what the engines report."""
    out = []
    if counts["mapping.compose_calls"] != counts["_outcome_compose_calls"]:
        out.append(f"traced compose calls {counts['mapping.compose_calls']} != "
                   f"engine-reported {counts['_outcome_compose_calls']}")
    if counts["_scan_calls"] != counts["linear.scans"]:
        out.append(f"traced scans {counts['_scan_calls']} != engine-reported "
                   f"{counts['linear.scans']}")
    return out
