"""Parallel experiment engine.

:class:`Runner` takes a list of :class:`~repro.harness.experiment.CellSpec`
cells, answers what it can from the on-disk result cache, and fans the
misses out over a ``ProcessPoolExecutor`` (worker count configurable,
default ``os.cpu_count() - 1``).  Results stream back as they finish:
each completion updates a progress/telemetry line (cells done/failed,
cache hits, aggregate simulated instructions per second, ETA) and is
written straight back to the cache, so an interrupted grid loses only
its in-flight cells.

Cache misses run grouped by workload (first-appearance order), so a
workload's cells run back to back and share the one program
:func:`~repro.workloads.corpus.build_workload` keeps.

Worker crashes are survived: a cell whose worker dies (or whose pool
breaks) is resubmitted to a fresh pool up to ``retries`` extra times
before being recorded as a failed cell — the grid always completes.

``workers=0`` (or 1) runs everything in-process, byte-for-byte
identical to the historical serial path; the parallel path produces the
same :class:`~repro.cpu.stats.SimStats` per cell because the simulator
is deterministic.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.config import default_workers
from repro.harness.cache import ResultCache, default_cache
from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                      execute_spec)
from repro.results import RunResult


def _execute_remote(spec: CellSpec,
                    settings: ExperimentSettings) -> RunResult:
    """Worker-process entry point (workers never touch the cache)."""
    return execute_spec(spec, settings)


def _grouped_by_workload(todo: list) -> list:
    """``todo`` with each workload's cells together.

    Groups keep first-appearance order and cells keep their order
    inside a group, so cells of one workload run back to back and
    reuse the program :func:`~repro.workloads.corpus.build_workload`
    keeps from the group's first build.  Results are placed by index,
    so callers still get them in spec order.
    """
    groups: dict[str, list] = {}
    for item in todo:
        groups.setdefault(item[1].benchmark, []).append(item)
    return [item for group in groups.values() for item in group]


@dataclass
class RunReport:
    """Telemetry of one :meth:`Runner.run` invocation."""

    total: int = 0
    computed: int = 0
    cached: int = 0
    failed: int = 0
    retried: int = 0
    wall_time: float = 0.0
    instructions: int = 0  # simulated instructions in *computed* cells
    warmed: int = 0  # computed cells that resumed from a warm checkpoint
    prefixes: int = 0  # distinct warm prefixes ensured before fan-out

    @property
    def done(self) -> int:
        """Cells accounted for so far (computed + cached + failed)."""
        return self.computed + self.cached + self.failed

    @property
    def instructions_per_second(self) -> float:
        """Aggregate simulated-instruction throughput of computed cells."""
        if self.wall_time <= 0:
            return 0.0
        return self.instructions / self.wall_time

    def summary(self) -> str:
        """One-line rendering for logs and the CLI."""
        warm = (f", {self.warmed} warm-started "
                f"({self.prefixes} shared prefixes)" if self.warmed else "")
        return (f"{self.total} cells: {self.computed} computed, "
                f"{self.cached} cached, {self.failed} failed{warm} in "
                f"{self.wall_time:.1f}s "
                f"({self.instructions_per_second / 1e6:.2f}M sim-instr/s)")


class Runner:
    """Expands experiment specs into cells and runs them in parallel."""

    def __init__(self, *, workers: Optional[int] = None,
                 settings: Optional[ExperimentSettings] = None,
                 cache: Optional[ResultCache] = None,
                 retries: int = 2,
                 progress: bool = False,
                 stream=None,
                 worker: Optional[Callable[..., RunResult]] = None):
        self.workers = default_workers() if workers is None else max(0, workers)
        self.settings = settings
        self.cache = default_cache() if cache is None else cache
        self.retries = max(0, retries)
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.worker = worker or _execute_remote
        self.last_report: Optional[RunReport] = None

    def run(self, specs: Iterable[CellSpec], *,
            settings: Optional[ExperimentSettings] = None
            ) -> list[RunResult]:
        """Run every spec; results come back in spec order."""
        specs = list(specs)
        settings = settings or self.settings or ExperimentSettings.scaled()
        report = RunReport(total=len(specs))
        started = time.perf_counter()
        results: list[Optional[RunResult]] = [None] * len(specs)

        # Answer what we can from the cache up front.
        misses: list[tuple[int, CellSpec, Optional[str]]] = []
        for index, spec in enumerate(specs):
            key = (self.cache.key_for(spec.cache_payload(settings))
                   if self.cache.enabled else None)
            stored = self.cache.load(key) if key is not None else None
            if stored is not None:
                results[index] = stored
                report.cached += 1
                self._emit_progress(report, started)
            else:
                misses.append((index, spec, key))

        misses = _grouped_by_workload(misses)
        if misses and settings.warm_start:
            report.prefixes = self._ensure_warm_prefixes(
                [spec for _, spec, _ in misses], settings)

        if misses:
            if self.workers <= 1:
                self._run_serial(misses, settings, results, report, started)
            else:
                self._run_parallel(misses, settings, results, report, started)

        report.wall_time = time.perf_counter() - started
        self._emit_progress(report, started, final=True)
        self.last_report = report
        return results

    # -- warm-start prefixes -----------------------------------------------

    def _ensure_warm_prefixes(self, specs: list[CellSpec],
                              settings: ExperimentSettings) -> int:
        """Compute (and persist) every distinct shared warm-up prefix.

        Runs before fan-out so worker processes find the checkpoints in
        the on-disk store instead of each re-simulating the warm-up.
        Returns the number of distinct prefixes ensured.
        """
        from repro.debugger.backends import backend_class
        from repro.harness.experiment import warm_checkpoint

        if settings.warmup_instructions <= 0:
            return 0
        prefixes = set()
        for spec in specs:
            try:
                if backend_class(spec.backend).transforms_program:
                    continue  # runs cold; no shared prefix
            except Exception:  # noqa: BLE001 - unknown backend fails later
                continue
            detailed = dict(spec.options).get("detailed_timing", True)
            prefixes.add((spec.benchmark, spec.config, detailed))
        for benchmark, config, detailed in sorted(
                prefixes, key=lambda p: (p[0], repr(p[1]), p[2])):
            warm_checkpoint(benchmark, settings, config,
                            detailed_timing=detailed)
        return len(prefixes)

    # -- execution paths ---------------------------------------------------

    def _run_serial(self, todo, settings, results, report, started) -> None:
        """In-process execution (workers <= 1)."""
        for index, spec, key in todo:
            try:
                result = self.worker(spec, settings)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                self._record_failure(results, report, index, spec, exc)
                continue
            self._record_success(results, report, settings, index, spec,
                                 key, result)
            self._emit_progress(report, started)

    def _run_parallel(self, todo, settings, results, report, started) -> None:
        """Fan misses out over worker processes, retrying crashes."""
        attempts: dict[int, int] = {}
        failures: dict[int, BaseException] = {}
        while todo:
            next_round: list = []
            max_workers = min(self.workers, len(todo))
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {
                    pool.submit(self.worker, spec, settings): (index, spec,
                                                               key)
                    for index, spec, key in todo
                }
                todo = []
                pending = set(futures)
                broken = False
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        index, spec, key = futures[future]
                        exc = future.exception()
                        if exc is None:
                            self._record_success(results, report, settings,
                                                 index, spec, key,
                                                 future.result())
                            self._emit_progress(report, started)
                            continue
                        failures[index] = exc
                        self._retry_or_fail(next_round, results, report,
                                            attempts, index, spec, key, exc,
                                            started)
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                    if broken:
                        # The pool is unusable: pull every in-flight cell
                        # back and resubmit to a fresh pool.
                        for future in pending:
                            future.cancel()
                            index, spec, key = futures[future]
                            exc = failures.get(index,
                                               BrokenProcessPool(
                                                   "worker pool crashed"))
                            self._retry_or_fail(next_round, results, report,
                                                attempts, index, spec, key,
                                                exc, started)
                        pending = set()
            todo = next_round

    # -- bookkeeping -------------------------------------------------------

    def _record_success(self, results, report, settings, index, spec, key,
                        result: RunResult) -> None:
        results[index] = result
        report.computed += 1
        if result.warm_started:
            report.warmed += 1
        if result.stats is not None:
            report.instructions += result.stats.total_instructions
        if key is not None:
            self.cache.store(key, result, spec.cache_payload(settings))

    def _record_failure(self, results, report, index, spec: CellSpec,
                        exc: BaseException) -> None:
        results[index] = RunResult(
            spec.benchmark, spec.kind, spec.label or spec.backend, None,
            spec.conditional,
            unsupported_reason=f"worker failed: {exc!r}")
        report.failed += 1

    def _retry_or_fail(self, next_round, results, report, attempts, index,
                       spec, key, exc, started) -> None:
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] <= self.retries:
            report.retried += 1
            next_round.append((index, spec, key))
        else:
            self._record_failure(results, report, index, spec, exc)
            self._emit_progress(report, started)

    def _emit_progress(self, report: RunReport, started: float,
                       final: bool = False) -> None:
        if not self.progress:
            return
        elapsed = max(time.perf_counter() - started, 1e-9)
        rate = report.done / elapsed
        remaining = report.total - report.done
        eta = remaining / rate if rate > 0 else float("inf")
        line = (f"\r[runner] {report.done}/{report.total} cells "
                f"({report.cached} cached, {report.failed} failed)  "
                f"{report.instructions / elapsed / 1e6:.2f}M sim-instr/s  "
                f"ETA {eta:5.0f}s")
        self.stream.write(line)
        if final:
            self.stream.write("\n")
        self.stream.flush()
