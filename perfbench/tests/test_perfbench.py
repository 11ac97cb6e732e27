"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.hostclock import PAD_CHUNKS, HostClock, calibrate
from perfbench.tracing import self_times, spans_path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


SEED = 3


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "25",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """workload -> trace -> (last-line JSON, full stdout)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            last = proc.stdout.strip().splitlines()[-1]
            out.setdefault(workload, {})[trace] = (json.loads(last),
                                                   proc.stdout)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    result, stdout = runs[workload][trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name in SPEC["end_to_end"]:
            assert result["metrics"][name["name"]]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_names_the_workload_metrics(runs, workload):
    stdout = runs[workload][0][1]
    names = ["setup_s", "run_s", "sim_minst_per_s", "peak_rss_mb",
             "error_rate"]
    if workload == "debug-session":
        names += ["continue_p50_ms", "continue_tail_ms", "query_p50_ms",
                  "query_tail_ms"]
    else:
        names += ["cells_per_s", "rerun_cells_per_s"]
    for name in names:
        assert f"  {name} " in stdout, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_are_bounded_by_the_traced_wall(runs, workload):
    metrics = {k: v["value"] for k, v in runs[workload][1][0]["metrics"]
               .items()}
    selfs = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in selfs)
    assert sum(selfs) <= metrics["trace.wall_s"]
    spans = json.loads(spans_path(workload, SEED).read_text())
    assert spans, "no spans written"
    records = [[s["name"], s["layer"], s["start"], s["end"], s["parent"],
                s["request"], s["extra"]] for s in spans]
    assert min(self_times(records)) >= -1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert bench.tail([1.0, 2.0, 3.0]) == (100, 3.0)


def test_the_clock_leaves_out_its_calibration_thread():
    clock = HostClock().start()
    try:
        begun, own = clock.begin(), time.thread_time()
        while time.thread_time() - own < 0.3:
            calibrate()
        measured, own = clock.end(begun), time.thread_time() - own
        work, first, end = measured
        calibration = sum(clock.chunks[first:end])
        assert calibration > 0, "no calibration chunk ran"
        assert clock.scaled(measured) == work / clock.slowdown(
            max(0, first - PAD_CHUNKS), end + PAD_CHUNKS)
    finally:
        clock.stop()
    # Only this thread worked; the calibration chunks that ran
    # meanwhile are not part of the work.
    assert abs(work - own) < calibration / 2


def test_a_wrong_output_with_a_note_counts_once():
    result = {"reference_key": "pool", "checks": 2,
              "outputs": {"fib": {"digest": "0" * 16, "weight": 4}},
              "notes": ["fib/HOT/dise: worker failed"],
              "problems": ["fib/HOT/dise: recomputed by a warm re-run"]}
    attempted, failed, problems = bench.check("corpus-sweep", result)
    assert (attempted, failed) == (6, 5)
    assert len(problems) == 3


def _copy_checkout(dest: Path) -> Path:
    for name in ("src", "programs", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_an_altered_reference_is_reported_as_a_failure(tmp_path):
    root = _copy_checkout(tmp_path / "checkout")
    path = root / "perfbench" / "reference" / "corpus-sweep.json"
    recorded = json.loads(path.read_text())
    recorded["pool"]["fib"]["digest"] = "0" * 16
    path.write_text(json.dumps(recorded))
    proc = _run(root, "corpus-sweep", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "WRONG: fib" in proc.stdout


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "paper-cells", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
