"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py [--workload NAME]

Re-run only after a change that is *meant* to alter simulated results;
the new references then belong to that change.  Records:

* paper-cells: every cell at REPRO_SCALE=1 and at the tiny scale;
* corpus-sweep: every program of the generated pool plus the
  ``programs/*.s`` files (corpus cells run whole programs, so one record
  serves every run size);
* debug-session: both seed parities at ``run_seconds`` from
  ``BENCHMARK.json`` and at the tiny size.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402
from perfbench.run import Repetitions  # noqa: E402
from perfbench.workloads import (CORPUS_POOL,  # noqa: E402
                                 CORPUS_PROGRAMS_PER_SECOND, WORKLOADS)


def plan(workload: str, seconds: int) -> list[tuple[bool, int, int]]:
    """(tiny, seed, seconds) of every run whose outputs are recorded."""
    if workload == "paper-cells":
        return [(False, 0, seconds), (True, 0, seconds)]
    if workload == "corpus-sweep":
        # Enough seconds that the sample is the whole pool.
        return [(False, 0, -(-CORPUS_POOL // CORPUS_PROGRAMS_PER_SECOND))]
    # debug-session: both seed parities.
    return [(tiny, seed, seconds) for tiny in (False, True)
            for seed in (0, 1)]


def record(workload: str, seconds: int, scratch: Path) -> dict:
    recorded: dict = {}
    for tiny, seed, run_seconds in plan(workload, seconds):
        args = argparse.Namespace(workload=workload, seed=seed,
                                  seconds=run_seconds, tiny=tiny)
        workdir = scratch / f"{'tiny' if tiny else 'full'}-{seed}"
        workdir.mkdir()
        reps = Repetitions(args, workdir)
        reps.compile()
        result = reps.run("run")
        wrong = result["notes"] + result["problems"]
        if wrong:
            raise SystemExit(f"{workload}: refusing to record outputs "
                             f"with problems: {wrong[:5]}")
        recorded.setdefault(result["reference_key"], {}).update(
            result["outputs"])
        print(f"{workload}: recorded {len(result['outputs'])} outputs "
              f"under {result['reference_key']}", flush=True)
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    scratch = ROOT / ".perfbench_tmp" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for workload in args.workload or WORKLOADS:
            scratch.mkdir(parents=True)
            recorded = record(workload, seconds, scratch)
            path = reference.reference_path(workload)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")
            shutil.rmtree(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
