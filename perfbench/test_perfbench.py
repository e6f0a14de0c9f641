"""Self-test of the limla benchmark, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload through run.py's command line and checks that every
named metric appears with its unit and that no job fails.  Checks in
process that a corrupted pinned value is counted as a failed job rather
than a crash.  Checks that the benchmark refuses to run without the library.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WHY)
SEED = "5"


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", SEED, "--size", "tiny",
                           "--seconds", "0.2", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def units_of(res) -> dict:
    return {k: v["unit"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--trace", "0")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert units_of(res) == {m: u for m, u, in_json in run.E2E if in_json}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for metric, unit, _ in run.E2E:   # failed_frac too, in the text lines
        assert re.search(rf"^\s+{metric}\s+\S+ {unit}\b", proc.stdout, re.M), metric
    assert f"failed_frac = 0 / {res['attempted']}" in proc.stdout
    assert f"seed={SEED}" in proc.stdout and "jobs per pass" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat(workload):
    runs = []
    for i in range(2):
        proc = bench("--workload", workload, "--trace", "1")
        res = result_of(proc)
        assert res["correct"] and res["failed"] == 0
        assert units_of(res) == {m.name: m.unit for m in layers.PER_LAYER if m.json}
        for m in layers.PER_LAYER:
            assert re.search(rf"^\s+{re.escape(m.name)}\s+\S+ {m.unit}\s", proc.stdout, re.M)
        runs.append(res["metrics"])
        spans = HERE / "out" / f"spans-{workload}-{SEED}.jsonl"
        assert json.loads(spans.read_text().splitlines()[0])["kept"] > 0
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["anbn", "diff"])
def test_corrupted_pin_is_a_failed_job(workload, monkeypatch, capsys):
    pins = {}
    monkeypatch.setattr(run, "load_pins", lambda path: pins)
    monkeypatch.setattr(run, "save_pins", lambda path, recorded: pins.update(recorded))
    args = ["--workload", workload, "--seed", SEED, "--size", "tiny", "--seconds", "0.2"]
    assert run.main(args + ["--record"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    pins[f"tiny/{SEED}"][0][1] += 1                # naive steps of the first group
    assert run.main(args) == 0
    out = capsys.readouterr().out
    res = json.loads(out.splitlines()[-1])
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    assert "!= pinned" in out


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {m: u for m, u, in_json in run.E2E if in_json}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m.name: m.unit for m in layers.PER_LAYER if m.json}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "anbn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "limla" in proc.stderr
