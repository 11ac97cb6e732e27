"""One repetition of a workload, in a fresh interpreter.

Started by ``perfbench/run.py`` as ``python -m perfbench.child SPEC``
where SPEC is a JSON object:

``workload``, ``seed``, ``seconds``
    what to run;
``mode``
    ``setup`` (set up, then stop), ``run`` (the untraced timed part)
    or ``trace`` (the timed part with spans, then the interpreter-tier
    re-runs);
``workdir``, ``out``
    private scratch directory, result file.

The process pins itself to one vCPU and starts its
:class:`~perfbench.hostclock.HostClock` first, so set-up CPU time
covers interpreter start-up and imports.  Set-up and the timed part
each report the host's slowdown over their own span.  The trace mode
writes its spans to :func:`perfbench.tracing.spans_path`.

The result is written as JSON to ``out``; standard output is left to
the program under test.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


#: Calibration chunks behind the set-up slowdown (about 0.6 s).
SETUP_CHUNKS = 30


def tier_metrics(programs) -> tuple[dict, list[str]]:
    """Re-run the workload's undebugged baseline runs on each tier.

    ``programs`` lists (workload, warm-up, measured instructions).  The
    measured interval is timed on the table and compiled tiers with the
    timing model, and on the table tier in functional mode.  Table and
    compiled tiers must produce identical ``SimStats``.
    """
    from repro.config import DEFAULT_CONFIG
    from repro.cpu.machine import Machine
    from repro.workloads.corpus import build_workload

    modes = {"table": (DEFAULT_CONFIG.with_(interpreter="table"), True),
             "compiled": (DEFAULT_CONFIG.with_(interpreter="compiled"), True),
             "functional": (DEFAULT_CONFIG, False)}
    host = dict.fromkeys(modes, 0.0)
    instructions = dict.fromkeys(modes, 0)
    problems = []
    for name, warmup, measure in programs:
        stats = {}
        for mode, (config, detailed) in modes.items():
            machine = Machine(build_workload(name), config,
                              detailed_timing=detailed)
            if warmup:
                machine.run(warmup)
                machine.reset_stats()
            tic = time.perf_counter()
            run = machine.run(measure)
            host[mode] += time.perf_counter() - tic
            instructions[mode] += run.stats.total_instructions
            stats[mode] = run.stats.to_dict()
        if stats["table"] != stats["compiled"]:
            problems.append(f"{name}: compiled-tier SimStats differ from "
                            f"the table tier")
    ns = {mode: host[mode] * 1e9 / max(1, instructions[mode])
          for mode in modes}
    return {
        "cpu.table.ns_per_inst": ns["table"],
        "cpu.compiled.ns_per_inst": ns["compiled"],
        "cpu.functional_ns_per_inst": ns["functional"],
        "cpu.timing_share": 1 - ns["functional"] / ns["table"],
    }, problems


def main(argv: list[str]) -> int:
    from perfbench.hostclock import HostClock, pin_to_one_cpu

    pin_to_one_cpu()
    clock = HostClock().start()
    spec = json.loads(argv[0])
    mode = spec["mode"]
    workdir = Path(spec["workdir"])
    from perfbench.tracing import (Tracer, dispatch_latencies, layer_metrics,
                                   spans_path)
    from perfbench.workloads import WORKLOADS, DebugSession

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    cls = WORKLOADS[spec["workload"]]
    options = {}
    if cls is DebugSession:
        # The traced repetition serves the session from a thread shard in
        # this process, so dispatcher, replay and time travel are traced.
        options["use_processes"] = mode != "trace"
    workload = cls(spec["seed"], spec["seconds"], workdir, clock, **options)
    result: dict = {"reference_key": workload.reference_key()}
    try:
        workload.setup()
        result["setup_cpu_s"] = clock.cpu()
        # Set-up is too short for a steady mean on its own chunks.
        clock.settle(SETUP_CHUNKS)
        result["setup_slowdown"] = clock.slowdown()
        if mode != "setup":
            begun = clock.begin()
            window = time.perf_counter()
            outcome = workload.run()
            window = (window, time.perf_counter())
            cpu_s, first, end = clock.end(begun)
            result["cpu_s"] = cpu_s
            result["slowdown"] = clock.slowdown(first, end)
            result["run_s"] = cpu_s / result["slowdown"]
            result.update(asdict(outcome))
            if isinstance(workload, DebugSession):
                result["shard_rss_kb"] = workload.shard_peak_rss_kb()
    finally:
        clock.stop()
        workload.teardown()
    if tracer is not None:
        tracer.enabled = False  # nothing below belongs to the workload
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode != "setup" and hasattr(workload, "self_checks"):
        statuses = workload.self_checks()
        result["self_checks"] = statuses
        result["checks"] += len(statuses)
        result["problems"] += [f"{name}: self-check status {s['status']} "
                               f"(expected 1)"
                               for name, s in statuses.items()
                               if s["status"] != 1]
    if tracer is not None:
        layers = layer_metrics(tracer, window)
        layers["trace.wall_s"] = window[1] - window[0]
        programs = workload.baseline_programs()
        tiers, problems = tier_metrics(programs)
        layers.update(tiers)
        result["layers"] = layers
        result["checks"] += len(programs)
        result["problems"] += problems
        result["dispatch"] = dispatch_latencies(tracer)
        spans = spans_path(spec["workload"], spec["seed"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(tracer.dump()))
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
