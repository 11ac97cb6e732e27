"""The three benchmark workloads.

Each workload is built from ``--seed`` and sized from ``--seconds``
(never from the clock), so one seed always runs the same work and two
commits are compared on identical inputs.  A workload runs in a fresh
interpreter (see ``perfbench/child.py``) in three steps:

``setup()``     everything before the first timed operation;
``run()``       the timed part; returns an :class:`Outcome`;
``teardown()``  closes sessions, connections and the server.

Every time a workload reports is CPU time measured by its
:class:`~perfbench.hostclock.HostClock` and scaled to the reference host
speed by the host's slowdown around the operation.

Workloads drive the system only through public entry points:
:class:`repro.harness.runner.Runner` with ``CellSpec`` (paper-cells),
:func:`repro.api.experiment` with ``corpus=`` (corpus-sweep), and the
``repro.server`` ``ServerThread``/``DebugClient`` pair (debug-session;
its traced repetition serves the same script from an in-process thread
shard, so every :class:`~repro.debugger.dispatcher.CommandDispatcher`
call runs under the tracer).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import random
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench import reference

#: Watch kinds of the Figure 3 cell shape.
PAPER_KINDS = ("HOT", "WARM1", "COLD")
#: Re-runs of each grid slice against the warm result cache.
WARM_PASSES = 5

#: corpus-sweep draws its generated programs from ``gen:0 .. gen:POOL-1``.
CORPUS_POOL = 1024
#: Generated programs per second of ``--seconds``.
CORPUS_PROGRAMS_PER_SECOND = 16

#: debug-session: benchmark -> watch target written every few thousand
#: instructions (a ``continue`` stops after ~20 ms).
SESSION_TARGETS = {"bzip2": "warm1", "gcc": "hot"}
#: Never written within a long continue's budget.
SESSION_QUIET_TARGET = "cold"


@dataclass
class Outcome:
    """What one timed part produced.

    Times are CPU seconds at the reference host speed.
    """

    #: Costs of simulating operations: computed cells, or run/continue
    #: requests.
    ops: list[float]
    #: Costs of answers from recorded state: warm re-runs of the grid
    #: per cell (one sample per pass over the grid), or time-travel
    #: verbs.
    recalls: list[float]
    #: Simulated instructions behind ``ops`` and the seconds they took.
    sim_instructions: int
    sim_seconds: float
    #: Canonical output records, compared against the reference.
    outputs: dict
    #: Checks besides the reference compare (warm re-runs of a cell,
    #: self-check statuses, tier identity), and one line per failed one.
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    #: Why an output is wrong (failed cell, error reply).  The reference
    #: compare counts that output; a note only explains it.
    notes: list[str] = field(default_factory=list)
    #: Workload-specific figures for the human-readable report.
    extra: dict = field(default_factory=dict)
    #: Per request: [verb, wall seconds] as the caller saw it.
    requests: list = field(default_factory=list)


def _tiny() -> bool:
    return os.environ.get("PERFBENCH_TINY") == "1"


def _slices(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` consecutive, nearly equal slices."""
    size = -(-len(items) // count)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _cell_key(result) -> str:
    return f"{result.benchmark}/{result.kind}/{result.backend}"


@contextlib.contextmanager
def timed_cells(clock):
    """Measure every cell the runner computes.

    Wraps the module global through which ``Runner`` calls
    ``execute_spec``; yields the list of ``clock.end`` measurements.
    """
    import repro.harness.runner as runner

    original = runner.execute_spec
    samples: list = []

    def execute_spec(*args, **kwargs):
        begun = clock.begin()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(clock.end(begun))

    runner.execute_spec = execute_spec
    try:
        yield samples
    finally:
        runner.execute_spec = original


def sweep_grid(slices: list, run_slice, clock) -> Outcome:
    """Run every slice cold, then WARM_PASSES times from the warm cache.

    ``run_slice(part)`` runs one slice exactly as a user would and
    returns its results.  Re-running each slice right after its cold run
    spreads the warm samples over the whole timed part, so slow drifts
    of host speed weigh on them as they do on the cold pass.  A warm
    sample is one pass over every slice, so each sample spans the whole
    timed part rather than one moment of it.
    """
    cold_all, problems = [], []
    # clock.end() measurements of each slice's cold run and, per warm
    # pass, of each slice's re-run.
    cold_runs = []
    warm_runs = [[] for _ in range(WARM_PASSES)]
    with timed_cells(clock) as cells:
        for part in slices:
            begun = clock.begin()
            cold = run_slice(part)
            cold_runs.append(clock.end(begun))
            cold_all += cold
            for runs in warm_runs:
                begun = clock.begin()
                warm = run_slice(part)
                runs.append(clock.end(begun))
                # One check per cell and pass.  A cell answered from
                # the cache carries the cold pass's stored wall time.
                for before, after in zip(cold, warm):
                    if after.wall_time != before.wall_time:
                        problems.append(f"{_cell_key(before)}: recomputed "
                                        f"by a warm re-run")
                    elif reference.cell_record(before) != \
                            reference.cell_record(after):
                        problems.append(f"{_cell_key(before)}: warm re-run "
                                        f"differs from the cold pass")
    notes = [f"{_cell_key(result)}: {result.unsupported_reason}"
             for result in cold_all
             if (result.unsupported_reason or "").startswith("worker failed")]
    sim = 0
    baselines = {}
    for result in cold_all:
        if result.stats is not None:
            sim += result.stats.total_instructions
        if result.baseline_stats is not None:
            baselines[result.benchmark] = \
                result.baseline_stats.total_instructions
    sim += sum(baselines.values())
    cold_s = sum(map(clock.scaled, cold_runs))
    warm_passes = [sum(map(clock.scaled, runs)) for runs in warm_runs]
    warm_s = sum(warm_passes)
    return Outcome(
        ops=[clock.scaled(cell) for cell in cells],
        recalls=[elapsed / len(cold_all) for elapsed in warm_passes],
        sim_instructions=sim,
        sim_seconds=cold_s,
        outputs={_cell_key(r): reference.cell_record(r) for r in cold_all},
        checks=len(cold_all) * WARM_PASSES,
        problems=problems,
        notes=notes,
        extra={"cells": len(cold_all),
               "cells_per_s": len(cold_all) / cold_s,
               "rerun_cells_per_s": len(cold_all) * WARM_PASSES / warm_s})


class PaperCells:
    """Figure 3 cells: 6 benchmarks x HOT/WARM1/COLD x 4 backends.

    One grid per run whatever ``--seconds`` says: the grid is the unit
    researchers regenerate.
    """

    name = "paper-cells"
    slices = 6

    def __init__(self, seed: int, seconds: int, workdir: Path, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock

    def reference_key(self) -> str:
        return "tiny" if _tiny() else "full"

    def setup(self) -> None:
        from repro.harness.cache import ResultCache, code_version
        from repro.harness.experiment import CellSpec
        from repro.harness.figures import COMPARED_BACKENDS
        from repro.harness.runner import Runner
        from repro.workloads.benchmarks import BENCHMARK_NAMES

        code_version()
        specs = [CellSpec.make(bench, kind, backend)
                 for bench in BENCHMARK_NAMES for kind in PAPER_KINDS
                 for backend in COMPARED_BACKENDS]
        random.Random(self.seed).shuffle(specs)
        self.specs = specs
        self.runner = Runner(workers=0,
                             cache=ResultCache(self.workdir / "cache"))

    def run(self) -> Outcome:
        return sweep_grid(_slices(self.specs, self.slices), self.runner.run,
                          self.clock)

    def teardown(self) -> None:
        pass

    def baseline_programs(self) -> list[tuple[str, int, int]]:
        """(workload, warm-up, measured) of every baseline run."""
        from repro.harness.experiment import ExperimentSettings

        settings = ExperimentSettings.scaled()
        return [(name, settings.warmup_instructions,
                 settings.measure_instructions)
                for name in sorted({spec.benchmark for spec in self.specs})]


class CorpusSweep:
    """``programs/*.s`` plus seeded generated programs on 4 backends."""

    name = "corpus-sweep"
    slices = 8

    def __init__(self, seed: int, seconds: int, workdir: Path, clock):
        self.seed = seed
        self.clock = clock
        count = 8 if _tiny() else max(8, seconds *
                                      CORPUS_PROGRAMS_PER_SECOND)
        self.sample = random.Random(seed).sample(range(CORPUS_POOL),
                                                 min(count, CORPUS_POOL))
        self.workdir = workdir

    def reference_key(self) -> str:
        return "pool"

    def setup(self) -> None:
        from repro.harness.cache import ResultCache, code_version
        from repro.harness.runner import Runner
        from repro.workloads.corpus import (Corpus, generated_entry,
                                            programs_corpus)

        code_version()
        self.files = programs_corpus().entries
        self.corpus = Corpus(
            f"perfbench[seed={self.seed}]",
            self.files + tuple(generated_entry(s) for s in self.sample))
        self.runner = Runner(workers=0,
                             cache=ResultCache(self.workdir / "cache"))

    def run(self) -> Outcome:
        from repro.api import experiment
        from repro.workloads.corpus import Corpus

        parts = [Corpus(f"{self.corpus.name}[{i}]", tuple(entries))
                 for i, entries in enumerate(
                     _slices(list(self.corpus), self.slices))]
        outcome = sweep_grid(
            parts, lambda part: experiment(corpus=part,
                                           runner=self.runner).cells,
            self.clock)
        outcome.extra["programs"] = len(self.corpus)
        outcome.extra["corpus_seed"] = self.seed
        # One record per program: a digest over its backend cells.
        by_program: dict[str, list] = {}
        for key, record in sorted(outcome.outputs.items()):
            program = key.split("/", 1)[0]
            by_program.setdefault(program, []).append([key, record])
        outcome.outputs = {
            program: {"digest": reference.digest(cells),
                      "weight": len(cells)}
            for program, cells in by_program.items()}
        return outcome

    def teardown(self) -> None:
        pass

    def self_checks(self) -> dict:
        """``status`` of every self-checking ``.s`` program (1 = pass)."""
        from repro.cpu.machine import Machine

        out = {}
        for entry in self.files:
            if not entry.self_checking:
                continue
            program = entry.build()
            machine = Machine(program, detailed_timing=False)
            machine.run(entry.run_budget())
            status = machine.memory.read_int(
                program.symbol("status").address, 8)
            out[f"status:{entry.name}"] = {"status": status}
        return out

    def baseline_programs(self) -> list[tuple[str, int, int]]:
        return [(entry.name, 0, entry.run_budget())
                for entry in self.corpus]


@dataclass(frozen=True)
class SessionShape:
    """Sizes of the debug-session script."""

    cycles: int  # short phase + long phase, repeated
    short: int  # budget of a continue that stops at a watch hit
    k: int  # short continues after each short phase's run
    rounds: int  # time-travel rounds in each short phase
    between: int  # short continues after each round
    long: int  # budget of a continue that never stops at a hit
    l: int  # continues after each long phase's run

    @classmethod
    def for_run(cls, seconds: int) -> "SessionShape":
        if _tiny():
            return cls(cycles=1, short=200_000, k=3, rounds=1, between=2,
                       long=20_000, l=1)
        return cls(cycles=2, short=200_000, k=max(2, round(1.6 * seconds)),
                   rounds=3, between=5, long=150_000,
                   l=max(1, round(0.12 * seconds)))

    def key(self) -> str:
        return (f"c{self.cycles}-short{self.short}-k{self.k}-r{self.rounds}-"
                f"b{self.between}-long{self.long}-l{self.l}")


#: Verbs whose latency is a "continue" sample / a "query" sample.
CONTINUE_VERBS = ("run", "continue")
QUERY_VERBS = ("last-write", "first-write", "value-at", "seek-transition",
               "reverse-continue", "rewind")
#: Verbs that move the session (their reply carries the new position).
MOVING_VERBS = ("run", "continue", "rewind", "seek-transition",
                "reverse-continue")


def _moved_to(verb: str, data: Optional[dict], position: int) -> int:
    """The session's application-instruction count after a reply."""
    if verb in MOVING_VERBS and data \
            and data.get("app_instructions") is not None:
        return data["app_instructions"]
    return position


def session_script(bench: str, shape: SessionShape, request) -> None:
    """Drive one session through its script.

    ``request(verb, args)`` sends one request and returns the reply's
    data payload and the session's position after it.

    ``shape.cycles`` times: a short phase (watch a target written every
    few thousand instructions, continue from hit to hit, ask the
    time-travel verbs about it), then a long phase (watch a target that
    is never written, continue over long budgets, ask the verbs about
    the first target over that history).  Changing the watch restarts
    the program, so every phase is a separate run.
    """
    target = SESSION_TARGETS[bench]
    position = 0
    rounds = itertools.count()

    def step(verb, *args):
        nonlocal position
        data, position = request(verb, [str(a) for a in args])
        return data

    def queries():
        # Arguments vary by round, not by seed: every run asks the same
        # questions.  The fractions walk (0.2, 0.8) by the golden ratio.
        round_ = next(rounds)
        fraction = 0.2 + 0.6 * (round_ * 0.618034 % 1)
        step("last-write", target)
        step("first-write", target)
        step("value-at", target, max(1, int(position * fraction)))
        step("seek-transition", target, 1 + round_ % 4)
        step("reverse-continue")
        step("rewind", 100 + round_ * 977 % 2900)

    def watch(expression):
        data = step("watch", expression)
        return data["number"] if data else 0

    for cycle in range(shape.cycles):
        if cycle:
            step("delete", number)
        number = watch(target)
        step("run", shape.short)
        for _ in range(shape.k):
            step("continue", shape.short)
        for _ in range(shape.rounds):
            queries()
            for _ in range(shape.between):
                step("continue", shape.short)
        step("delete", number)
        number = watch(SESSION_QUIET_TARGET)
        step("run", shape.long)
        for _ in range(shape.l):
            step("continue", shape.long)
        queries()


class DebugSession:
    """Scripted sessions on bzip2 and gcc with the dise backend."""

    name = "debug-session"

    def __init__(self, seed: int, seconds: int, workdir: Path, clock, *,
                 use_processes: bool = True):
        # The seed picks which session runs first.
        self.variant = seed % 2
        self.order = sorted(SESSION_TARGETS, reverse=bool(self.variant))
        self.shape = SessionShape.for_run(seconds)
        self.workdir = workdir
        self.use_processes = use_processes
        self.clock = clock
        self.server = None
        self.client = None
        self.shard_pid: Optional[int] = None

    def reference_key(self) -> str:
        return f"{self.shape.key()}/v{self.variant}"

    def setup(self) -> None:
        from repro.harness.cache import code_version
        from repro.server.client import DebugClient
        from repro.server.server import ServerConfig, ServerThread

        code_version()
        config = ServerConfig(workers=1, use_processes=self.use_processes,
                              state_dir=str(self.workdir / "server"),
                              cache_dir=str(self.workdir / "cache"))
        self.server = ServerThread(config)
        self.server.__enter__()
        self.client = DebugClient("127.0.0.1", self.server.port,
                                  timeout=170)
        self.sessions = {}
        for bench in self.order:
            reply = self.client.request(
                "open-session", {"benchmark": bench, "backend": "dise"})
            self.sessions[bench] = reply["result"]["session"]
            self.shard_pid = reply["result"]["pid"]
        if self.shard_pid != os.getpid():
            self.clock.pids.append(self.shard_pid)

    def run(self) -> Outcome:
        """Both sessions' scripts, one after the other, in one closed loop."""
        from repro.errors import ReproError

        outputs = {}
        notes = []
        requests, ops, recalls = [], [], []
        sim = 0
        clock = self.clock
        for bench in self.order:
            index = 0
            position = 0

            def request(verb, args):
                nonlocal index, position, sim
                tic = time.perf_counter()
                begun = clock.begin()
                try:
                    data = self.client.command(self.sessions[bench], verb,
                                               args)
                except ReproError as exc:
                    data = None
                    notes.append(f"{bench}#{index} {verb} {args}: error "
                                 f"reply: {exc}")
                measured = clock.end(begun)
                requests.append([verb, time.perf_counter() - tic])
                outputs[f"{bench}#{index:03d}:{verb}"] = \
                    reference.digest(json.loads(json.dumps(data)))
                moved = _moved_to(verb, data, position)
                if verb in CONTINUE_VERBS:
                    ops.append(measured)
                    # ``run`` restarts the program from instruction 0.
                    sim += moved - (0 if verb == "run" else position)
                elif verb in QUERY_VERBS:
                    recalls.append(measured)
                index += 1
                position = moved
                return data, moved

            session_script(bench, self.shape, request)
        ops = [clock.scaled(op) for op in ops]
        return Outcome(
            ops=ops, recalls=[clock.scaled(recall) for recall in recalls],
            sim_instructions=sim, sim_seconds=sum(ops), outputs=outputs,
            notes=notes, requests=requests,
            extra={"session_variant": self.variant})

    def teardown(self) -> None:
        if self.client is None:
            return
        for session in self.sessions.values():
            self.client.close_session(session)
        # The forked shard inherited this connection's socket, so closing
        # our copy sends no EOF; shut the connection down explicitly, or
        # the server stops with its handler still parked in readline and
        # logs "Event loop is closed" (see perfbench/NOTES.md).
        self.client._sock.shutdown(socket.SHUT_RDWR)
        self.client.close()
        time.sleep(0.2)  # let the handler see EOF and finish
        self.server.__exit__(None, None, None)
        self.client = None
        for process in multiprocessing.active_children():
            process.join(timeout=30)  # the shard exits once shut down

    def shard_peak_rss_kb(self) -> int:
        """VmHWM of the shard process (0 when unavailable)."""
        if self.shard_pid is None:
            return 0
        try:
            for line in Path(f"/proc/{self.shard_pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    def baseline_programs(self) -> list[tuple[str, int, int]]:
        """Undebugged runs of the session programs (tier comparison)."""
        length = 20_000 if _tiny() else 200_000
        return [(bench, 0, length) for bench in sorted(self.order)]


WORKLOADS = {cls.name: cls for cls in (PaperCells, CorpusSweep,
                                        DebugSession)}
