"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cells --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced repetition (and writes its spans as JSON
to ``.perfbench_out/spans-<workload>-seed<seed>.json``).  Every
repetition runs in a fresh interpreter with ``REPRO_SCALE``,
``REPRO_WORKERS``, ``REPRO_CACHE``, ``PYTHONHASHSEED`` and its own
``REPRO_CACHE_DIR`` pinned; all scratch files live under
``.perfbench_tmp/`` and are removed at exit.  Every time it reports is
CPU time scaled to a reference host speed (see
``perfbench/hostclock.py``).  The human-readable report goes first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units
``BENCHMARK.json`` declares.  ``--tiny`` shrinks every workload to a
few seconds (used by the tests).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402
from perfbench.tracing import spans_path  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Metric name -> unit, as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Fresh processes that only set up, besides the measured repetition.
SETUP_PROBES = 4
#: A repetition that takes longer than this has failed.
CHILD_TIMEOUT_S = 170


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value) of the highest percentile with >= 10 samples beyond it.

    Nearest-rank percentiles, from p99 down to p50; with too few samples
    for any of them, the maximum (reported as p100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


class Repetitions:
    """Starts fresh interpreters for one workload run."""

    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.count = 0
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "PYTHON", "PERFBENCH_"))}
        env.update({
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            "PYTHONPYCACHEPREFIX": str(scratch / "pycache"),
            # Per-process string-hash randomization shifts timings by up
            # to ~15% between otherwise identical repetitions.
            "PYTHONHASHSEED": "0",
            "REPRO_SCALE": "0.02" if args.tiny else "1",
            "REPRO_WORKERS": "1",
            "REPRO_CACHE": "1",
            "PERFBENCH_TINY": "1" if args.tiny else "0",
        })
        self.env = env

    def compile(self) -> None:
        """Fill the private bytecode cache once, outside every timing."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "repro"), str(ROOT / "perfbench")],
                       env=self.env, cwd=self.scratch, check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)

    def run(self, mode: str) -> dict:
        """One repetition in a fresh interpreter; returns its result."""
        self.count += 1
        workdir = self.scratch / f"rep{self.count}-{mode}"
        workdir.mkdir()
        env = dict(self.env, REPRO_CACHE_DIR=str(workdir / "cache"))
        spec = {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "mode": mode,
            "workdir": str(workdir), "out": str(workdir / "result.json"),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child", json.dumps(spec)],
            env=env, cwd=workdir, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} repetition exited with code "
                               f"{proc.returncode}")
        return json.loads(Path(spec["out"]).read_text())


def check(workload: str, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one repetition's outputs."""
    recorded = reference.load(workload).get(result["reference_key"], {})
    attempted, failed, problems = reference.compare(recorded,
                                                    result["outputs"])
    attempted += result["checks"]
    failed += len(result["problems"])
    return attempted, failed, result["notes"] + problems + result["problems"]


def setup_s(result: dict) -> float:
    """Set-up CPU seconds at the reference host speed."""
    return result["setup_cpu_s"] / result["setup_slowdown"]


def end_to_end(result: dict, setups: list[float]) -> dict:
    _, ops_tail = tail(result["ops"])
    return {
        "setup_s": statistics.median(setups),
        "run_s": result["run_s"],
        "sim_minst_per_s": (result["sim_instructions"]
                            / result["sim_seconds"] / 1e6),
        "op_p50_ms": statistics.median(result["ops"]) * 1e3,
        "op_tail_ms": ops_tail * 1e3,
        "recall_ms": statistics.fmean(result["recalls"]) * 1e3,
        "peak_rss_mb": max(result["rss_kb"],
                           result.get("shard_rss_kb", 0)) / 1024,
    }


def report_end_to_end(workload: str, result: dict, metrics: dict,
                      setups: list[float], attempted: int,
                      failed: int) -> list[str]:
    """The human-readable report, with the workload's own metric names.

    Times are CPU time at the reference host speed, like the metrics.
    """
    extra = result["extra"]
    lines = [f"  setup_s            {metrics['setup_s']:12.4f} s   "
             f"(median of {len(setups)} fresh processes)",
             f"  run_s              {metrics['run_s']:12.4f} s   "
             f"({result['cpu_s']:.4f} CPU s on this host, slowdown "
             f"{result['slowdown']:.3f})"]
    if workload == "debug-session":
        ops = result["ops"]
        recalls = result["recalls"]
        cp, cv = tail(ops)
        qp, qv = tail(recalls)
        lines += [
            f"  continue_p50_ms    {statistics.median(ops) * 1e3:12.3f} ms  "
            f"(n={len(ops)})",
            f"  continue_tail_ms   {cv * 1e3:12.3f} ms  (p{cp}, "
            f"n={len(ops)})",
            f"  query_p50_ms       {statistics.median(recalls) * 1e3:12.3f}"
            f" ms  (n={len(recalls)})",
            f"  query_tail_ms      {qv * 1e3:12.3f} ms  (p{qp}, "
            f"n={len(recalls)})",
            f"  sim_minst_per_s    {metrics['sim_minst_per_s']:12.4f} "
            f"M app inst/s during run/continue",
        ]
    else:
        cp, cv = tail(result["ops"])
        lines += [
            f"  cells_per_s        {extra['cells_per_s']:12.3f} cells/s "
            f"(cold slices, {extra['cells']} cells)",
            f"  rerun_cells_per_s  {extra['rerun_cells_per_s']:12.1f} "
            f"cells/s (warm re-runs)",
            f"  sim_minst_per_s    {metrics['sim_minst_per_s']:12.4f} "
            f"M sim inst/s (measured intervals, debugged + baseline)",
            f"  cell_p50_ms        {metrics['op_p50_ms']:12.3f} ms",
            f"  cell_tail_ms       {cv * 1e3:12.3f} ms  (p{cp}, "
            f"n={len(result['ops'])})",
        ]
    if workload == "corpus-sweep":
        lines.append(f"  corpus_seed        {extra['corpus_seed']:12d}   "
                     f"({extra['programs']} programs)")
    if workload == "debug-session":
        lines.append(f"  session_variant    {extra['session_variant']:12d}")
    lines += [f"  peak_rss_mb        {metrics['peak_rss_mb']:12.1f} MB",
              f"  error_rate         {failed / attempted:12.4f} "
              f"failed/attempted ({failed}/{attempted})"]
    return lines


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["run_s"] / untraced["run_s"] - 1
    denominator = (layers["cpu.baseline_ns_per_inst"]
                   or layers["cpu.table.ns_per_inst"])
    layers["debugger.dise.host_overhead"] = (
        layers["debugger.dise.ns_per_app_inst"] / denominator)
    # Wire cost of a request: what the client waited minus what the
    # dispatcher spent on it, both in the traced (thread-shard) session.
    wire = [c[1] - d[1] for c, d in zip(traced["requests"],
                                        traced["dispatch"])
            if c[0] == d[0]]
    layers["server.wire_ms"] = statistics.median(wire) * 1e3 if wire else 0.0
    return layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "programs").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'} "
              f"(run from a full checkout)", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        reps = Repetitions(args, scratch)
        reps.compile()
        if args.trace:
            untraced = reps.run("run")
            traced = reps.run("trace")
            results = [untraced, traced]
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
        else:
            main_rep = reps.run("run")
            setups = [setup_s(main_rep)] + [
                setup_s(reps.run("setup")) for _ in range(SETUP_PROBES)]
            results = [main_rep]
            metrics = end_to_end(main_rep, setups)
            units = END_TO_END
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = failed = 0
    problems = []
    for result in results:
        a, f, p = check(args.workload, result)
        attempted += a
        failed += f
        problems += p
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    if args.trace:
        for name, unit in units.items():
            value = metrics[name]
            text = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:40s} {text:>18s} {unit}")
        print(f"  spans written to {spans_path(args.workload, args.seed)}")
    else:
        for line in report_end_to_end(args.workload, main_rep, metrics,
                                      setups, attempted, failed):
            print(line)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are "
              f"computed or declared in BENCHMARK.json, not both",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
