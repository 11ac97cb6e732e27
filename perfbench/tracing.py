"""In-memory spans around calls into each layer's public functions.

The traced repetition installs wrappers (from the benchmark's own code;
nothing under ``src/`` changes) around the public entry points of every
measured layer.  Each call records a span: name, layer, start, end,
parent span and request id.  A span's self time is its duration minus
the part its child spans cover; spans nest strictly because every
traced workload is single-threaded.

``Machine.run`` spans also carry the application and total instructions
the call committed, and which backend (or none) owns the machine, so
host time per simulated instruction can be split by debugger backend.
The exact simulated counts (statistics, cache/TLB/predictor counters)
are summed over every ``Machine.run`` call.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans (JSON)."""
    return ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json"


#: Layers whose self time is reported (``<layer>.self_s``).
LAYERS = ("workloads", "isa", "harness", "cpu", "debugger", "replay",
          "timetravel")

#: Time-travel verbs of :class:`~repro.timetravel.TimelineQuery`.
TIMELINE_VERBS = ("last_write", "first_write", "value_at", "seek_transition")

#: Debugger verbs the debug-session script issues (dispatch time each).
SESSION_VERBS = ("watch", "delete", "run", "continue", "last-write",
                 "first-write", "value-at", "seek-transition",
                 "reverse-continue", "rewind")

#: The four backends the paper compares.
BACKENDS = ("single_step", "virtual_memory", "hardware", "dise")

#: Exact simulated counts: metric name -> SimStats field.
STAT_COUNTS = {
    "sim.app_instructions": "app_instructions",
    "sim.dise_instructions": "dise_instructions",
    "sim.function_instructions": "function_instructions",
    "sim.cycles": "cycles",
    "dise.expansions": "dise_expansions",
    "debugger.traps": "traps",
}
#: Exact simulated counts: metric name -> (timing-model part, counter).
TIMING_COUNTS = {
    "memory.l1i_misses": ("caches.l1i", "misses"),
    "memory.l1d_misses": ("caches.l1d", "misses"),
    "memory.l2_misses": ("caches.l2", "misses"),
    "memory.itlb_misses": ("itlb", "misses"),
    "memory.dtlb_misses": ("dtlb", "misses"),
    # SimStats.mispredictions is never filled in; the predictor counts.
    "predictor.mispredictions": ("predictor", "mispredictions"),
}

#: Every exact simulated count, in report order.
COUNT_METRICS = (*STAT_COUNTS, "debugger.spurious_transitions",
                 "debugger.user_transitions", *TIMING_COUNTS)

# Span record fields (a list per span keeps recording cheap).
NAME, LAYER, START, END, PARENT, REQUEST, EXTRA = range(7)


class Tracer:
    """Records spans (and simulated counts) while ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._requests = 0
        self._owners: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.sim_counts: dict[str, int] = defaultdict(int)
        self.cache_hits = 0
        self.cache_misses = 0
        self.instructions_replayed = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, *,
             operation: bool = False, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``operation`` starts a new request id (a cell, a command);
        ``before(args)`` returns a context that becomes the span's extra
        field and is handed to ``after(span, args, result, context)``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            if operation:
                tracer._requests += 1
                request = tracer._requests
            else:
                request = spans[parent][REQUEST] if parent is not None else 0
            context = before(args) if before is not None else None
            span = [name, layer, 0.0, 0.0, parent, request, context]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(span, args, result, context)
            return result

        setattr(owner, attr, wrapper)

    # -- machine bookkeeping -----------------------------------------------

    @staticmethod
    def _counts(machine) -> dict:
        """Current values of every exact simulated count of ``machine``."""
        stats = machine.stats
        counts = {metric: getattr(stats, field)
                  for metric, field in STAT_COUNTS.items()}
        counts["debugger.spurious_transitions"] = stats.spurious_transitions
        counts["debugger.user_transitions"] = stats.user_transitions
        for metric, (part, counter) in TIMING_COUNTS.items():
            obj = machine.timing
            if obj is not None:
                for step in part.split("."):
                    obj = getattr(obj, step)
            counts[metric] = getattr(obj, counter) if obj is not None else 0
        return counts

    def _machine_before(self, args):
        return self._counts(args[0])

    def _machine_after(self, span, args, result, before) -> None:
        """Attribute the call's simulated work to its owner and totals.

        Counters only grow inside one ``run`` call (resets and restores
        happen between calls), so per-call deltas sum to everything the
        workload simulated, replays and warm-ups included.
        """
        machine = args[0]
        after = self._counts(machine)
        for metric, value in after.items():
            self.sim_counts[metric] += value - before[metric]
        app = after["sim.app_instructions"] - before["sim.app_instructions"]
        total = app + sum(after[m] - before[m] for m in (
            "sim.dise_instructions", "sim.function_instructions"))
        span[EXTRA] = (self._owners.get(machine, "undebugged"), app, total)

    def _backend_after(self, span, args, result, context) -> None:
        self._owners[result.machine] = result.name

    def _load_after(self, span, args, result, context) -> None:
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def _query_after(self, span, args, result, context) -> None:
        self.instructions_replayed += result.instructions_replayed

    @staticmethod
    def _dispatch_before(args):
        return args[1]  # the verb

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        import repro.isa
        import repro.isa.assembler as assembler
        import repro.workloads.benchmarks as benchmarks
        import repro.workloads.corpus as corpus
        import repro.harness.cache as cache
        import repro.harness.experiment as experiment
        import repro.harness.runner as runner
        from repro.cpu.machine import Machine
        from repro.debugger.backends import BACKENDS as backend_classes
        from repro.debugger.backends.base import DebuggerBackend
        from repro.debugger.dispatcher import CommandDispatcher
        from repro.debugger.session import Session
        from repro.replay.reverse import ReverseController
        from repro.timetravel import TimelineQuery

        wrap = self.wrap
        wrap(cache, "code_version", "code_version", "harness")
        for method in ("key_for", "store"):
            wrap(cache.ResultCache, method, f"cache.{method}", "harness")
        wrap(cache.ResultCache, "load", "cache.load", "harness",
             after=self._load_after)
        wrap(runner.Runner, "run", "Runner.run", "harness", operation=True)
        # The runner calls execute_spec through its own module global.
        for module in (runner, experiment):
            wrap(module, "execute_spec", "execute_spec", "harness",
                 operation=True)
        wrap(corpus, "build_workload", "build_workload", "workloads")
        wrap(benchmarks, "build_benchmark", "build_benchmark", "workloads")
        # ``assemble`` is imported by name into the corpus module and the
        # isa package; wrap every binding callers resolve.
        for module in (assembler, corpus, repro.isa):
            wrap(module, "assemble", "assemble", "isa")
        wrap(Machine, "__init__", "Machine.__init__", "cpu")
        wrap(Machine, "run", "Machine.run", "cpu",
             before=self._machine_before, after=self._machine_after)
        wrap(Machine, "snapshot", "Machine.snapshot", "replay")
        wrap(Machine, "restore", "Machine.restore", "replay")
        wrap(Session, "build_backend", "Session.build_backend", "debugger",
             after=self._backend_after)
        for cls in {DebuggerBackend, *backend_classes.values()}:
            if "run" in cls.__dict__:
                wrap(cls, "run", f"{cls.__name__}.run", "debugger")
        wrap(CommandDispatcher, "dispatch", "CommandDispatcher.dispatch",
             "debugger", operation=True, before=self._dispatch_before)
        wrap(ReverseController, "resume", "ReverseController.resume",
             "replay")
        for verb in TIMELINE_VERBS:
            wrap(TimelineQuery, verb, f"TimelineQuery.{verb}", "timetravel",
                 after=self._query_after)

    # -- output --------------------------------------------------------------

    def dump(self) -> list[dict]:
        """Every span as a JSON-able record (times relative to the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        return [{"name": s[NAME], "layer": s[LAYER],
                 "start": s[START] - origin, "end": s[END] - origin,
                 "parent": s[PARENT], "request": s[REQUEST],
                 "extra": s[EXTRA]} for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            out[parent] -= span[END] - span[START]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, window: tuple[float, float]) -> dict:
    """Per-layer metrics from the spans recorded inside ``window``.

    ``window`` is the (start, end) of the timed part; set-up spans (the
    first ``code_version`` call, say) are reported only where a metric
    names them.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    lo, hi = window
    inside = [i for i, s in enumerate(spans)
              if s[START] >= lo and s[END] <= hi]
    metrics: dict[str, float] = {}

    by_layer = defaultdict(float)
    for i in inside:
        by_layer[spans[i][LAYER]] += selfs[i]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer]

    def outermost(names):
        """Inclusive time and count of spans not nested in their own kind."""
        total, calls = 0.0, 0
        for i in inside:
            span = spans[i]
            if span[NAME] not in names:
                continue
            calls += 1
            parent = span[PARENT]
            nested = False
            while parent is not None:
                if spans[parent][NAME] in names:
                    nested = True
                    break
                parent = spans[parent][PARENT]
            if not nested:
                total += span[END] - span[START]
        return total, calls

    for metric, names in (
            ("workloads.build", ("build_workload", "build_benchmark")),
            ("isa.assemble", ("assemble",)),
            ("cpu.machine_init", ("Machine.__init__",)),
            ("debugger.build_backend", ("Session.build_backend",))):
        total, calls = outermost(names)
        metrics[f"{metric}_s"] = total
        metrics[f"{metric}_calls"] = calls

    # code_version() is memoized per process: its one real call happens
    # during set-up, so it is reported over the whole traced process.
    metrics["harness.code_version_s"] = sum(
        s[END] - s[START] for s in spans if s[NAME] == "code_version")
    for method in ("key", "load", "store"):
        name = "cache.key_for" if method == "key" else f"cache.{method}"
        metrics[f"harness.cache.{method}_s"] = outermost((name,))[0]
    metrics["harness.cache.hit_ratio"] = _ratio(
        tracer.cache_hits, tracer.cache_hits + tracer.cache_misses)
    metrics["harness.runner_self_s"] = sum(
        selfs[i] for i in inside if spans[i][NAME] == "Runner.run")

    host = defaultdict(float)
    app = defaultdict(int)
    total_inst = defaultdict(int)
    for i in inside:
        span = spans[i]
        if span[NAME] != "Machine.run" or not isinstance(span[EXTRA], tuple):
            continue  # a run that raised has no instruction counts
        owner, app_delta, total_delta = span[EXTRA]
        host[owner] += span[END] - span[START]
        app[owner] += app_delta
        total_inst[owner] += total_delta
    baseline_ns = _ratio(host["undebugged"] * 1e9, total_inst["undebugged"])
    metrics["cpu.baseline_ns_per_inst"] = baseline_ns
    for backend in BACKENDS:
        metrics[f"debugger.{backend}.ns_per_app_inst"] = _ratio(
            host[backend] * 1e9, app[backend])

    dispatch = defaultdict(float)
    for i in inside:
        span = spans[i]
        if span[NAME] == "CommandDispatcher.dispatch":
            dispatch[span[EXTRA]] += span[END] - span[START]
    for verb in SESSION_VERBS:
        metrics[f"debugger.dispatch.{verb.replace('-', '_')}_s"] = \
            dispatch[verb]
    metrics["replay.resume_s"] = outermost(("ReverseController.resume",))[0]
    snapshot_s, snapshots = outermost(("Machine.snapshot",))
    metrics["replay.snapshot_s"] = snapshot_s
    metrics["replay.restore_s"] = outermost(("Machine.restore",))[0]
    metrics["replay.checkpoints"] = snapshots
    for verb in TIMELINE_VERBS:
        metrics[f"timetravel.{verb}_s"] = outermost(
            (f"TimelineQuery.{verb}",))[0]
    metrics["timetravel.instructions_replayed"] = \
        tracer.instructions_replayed

    for metric in COUNT_METRICS:
        metrics[metric] = tracer.sim_counts[metric]
    metrics["trace.spans"] = len(inside)
    return metrics


def dispatch_latencies(tracer: Tracer) -> list[tuple[str, float]]:
    """(verb, seconds) of every top-level ``dispatch`` span, in order."""
    return [(s[EXTRA], s[END] - s[START]) for s in tracer.spans
            if s[NAME] == "CommandDispatcher.dispatch" and s[PARENT] is None]
