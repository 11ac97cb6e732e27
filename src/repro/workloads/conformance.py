"""Corpus conformance: every workload, every tier, every backend.

A corpus entry *conforms* when it is observationally identical across
the full execution matrix — the three interpreter tiers (table, legacy,
compiled) undebugged, and each of the five debugger backends on all
three tiers with a watchpoint on the entry's default target:

* interpreter choice must be invisible: per backend, the legacy and
  compiled runs must match the table run in final architectural state,
  canonical stop sequence, and full ``SimStats``;
* debugging must not perturb the application: every debugged run must
  reproduce the undebugged final state (compared registers, every data
  word, the halt flag);
* all backends must present the same user-visible stop sequence;
* a self-checking workload (the ``programs/*.s`` convention) must halt
  with ``status == 1`` — its own checksum verified — in every run.

Stop sequences are compared only for workloads with
instruction-granularity statement starts (the ``programs/*.s`` files
and promoted fuzz specs): the synthetic benchmarks mark statements
sparsely, so the single-step backend legitimately stops at coarser
points than the trap-per-store mechanisms.  Benchmark entries instead
run to a bounded budget and must agree on final state.

The comparison machinery (canonical :class:`~repro.fuzz.oracle.Stop`
records, recorder-shadowed watched values, register/state/stats
diffing) is shared with the differential fuzz oracle — same rules, a
different program source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.config import MachineConfig
from repro.debugger.watchpoint import Watchpoint
# Shared with the fuzz oracle by design: conformance applies the exact
# comparison rules of the differential matrix to corpus workloads.
from repro.fuzz.oracle import (BACKENDS, INTERPRETERS, Divergence,
                               RunOutcome, _compare, run_outcome)
from repro.isa.program import Program
from repro.workloads.corpus import Corpus, CorpusEntry, entry_for

QUAD = 8


@dataclass
class ConformanceReport:
    """Everything :func:`check_entry` observed for one corpus entry."""

    workload: str
    divergences: list[Divergence] = field(default_factory=list)
    runs: int = 0
    stop_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        """Multi-line text rendering used by tests and the smoke job."""
        if self.ok:
            return (f"{self.workload}: OK ({self.runs} runs, "
                    f"{self.stop_count} stops)")
        lines = [f"{self.workload}: {len(self.divergences)} divergence(s) "
                 f"over {self.runs} runs"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)


def _data_symbols(program: Program) -> tuple[str, ...]:
    """Names of the data words every run of the entry must agree on."""
    return tuple(sorted(symbol.name for symbol in program.symbols.values()
                        if symbol.kind == "data"))


def _named_state(program: Program, symbols: Sequence[str],
                 memory) -> tuple[tuple[str, int], ...]:
    """Read every named data word (quadword granularity) from memory.

    Addresses come from the *original* program image: data addresses
    are identical across backends because transforms only append.
    """
    out = []
    for name in symbols:
        symbol = program.symbol(name)
        words = max(1, symbol.size // QUAD)
        for i in range(words):
            label = name if words == 1 else f"{name}+{i * QUAD}"
            out.append((label,
                        memory.read_int(symbol.address + i * QUAD, QUAD)))
    return tuple(out)


def _run_entry(entry: CorpusEntry, symbols: Sequence[str],
               config: Optional[MachineConfig], interp: str,
               backend_name: Optional[str] = None) -> RunOutcome:
    """:func:`~repro.fuzz.oracle.run_outcome` for a corpus entry,
    watching the entry's default target when debugged."""
    return run_outcome(
        entry.build, entry.run_budget(),
        lambda program, memory: _named_state(program, symbols, memory),
        config, interp, backend_name,
        lambda: ([Watchpoint.parse(entry.watch, None, 1)], []))


def _check_self(report: ConformanceReport, entry: CorpusEntry,
                outcome: RunOutcome) -> None:
    """A self-checking workload must have verified its own checksum."""
    if not entry.self_checking or outcome.error or not outcome.halted:
        return
    state = dict(outcome.state)
    if state.get("status") != 1:
        report.divergences.append(Divergence(
            "state", (outcome.name, outcome.name),
            f"self-check failed: status={state.get('status')!r}, "
            f"checksum={state.get('checksum', 0):#x} != "
            f"expect={state.get('expect', 0):#x}"))


def check_entry(entry: Union[CorpusEntry, str], *,
                backends: Sequence[str] = BACKENDS,
                interpreters: Sequence[str] = INTERPRETERS,
                config: Optional[MachineConfig] = None) -> ConformanceReport:
    """Run one corpus entry over the tier x backend matrix and compare.

    The first interpreter listed is the reference tier.  Returns a
    :class:`ConformanceReport`; ``report.ok`` is the verdict.
    """
    if isinstance(entry, str):
        entry = entry_for(entry)
    report = ConformanceReport(workload=entry.name)
    symbols = _data_symbols(entry.build())
    compare_stops = entry.source != "benchmark"
    interpreters = tuple(interpreters)

    reference = _run_entry(entry, symbols, config, interpreters[0])
    report.runs += 1
    if reference.error:
        report.divergences.append(Divergence(
            "error", (reference.name, reference.name), reference.error))
        return report
    if entry.budget > 0 and not reference.halted:
        report.divergences.append(Divergence(
            "termination", (reference.name, reference.name),
            "undebugged run did not halt within the entry budget"))
        return report
    _check_self(report, entry, reference)
    for interp in interpreters[1:]:
        other = _run_entry(entry, symbols, config, interp)
        report.runs += 1
        _compare(report, reference, other, stats=True, stops=False)

    debugged_reference: Optional[RunOutcome] = None
    for backend_name in backends:
        table = _run_entry(entry, symbols, config, interpreters[0],
                           backend_name)
        report.runs += 1
        # Interpreter choice must be invisible per backend.
        for interp in interpreters[1:]:
            other = _run_entry(entry, symbols, config, interp,
                               backend_name)
            report.runs += 1
            _compare(report, table, other, stats=True, stops=compare_stops)
        if table.error:
            report.divergences.append(Divergence(
                "error", (table.name, table.name), table.error))
            continue
        if entry.budget > 0 and not table.halted:
            report.divergences.append(Divergence(
                "termination", (table.name, table.name),
                "debugged run did not halt within the entry budget"))
        _check_self(report, entry, table)
        # Debugging must not perturb the application's final state.
        _compare(report, reference, table, stats=False, stops=False)
        # All backends must present the same user-visible stop sequence.
        if debugged_reference is None:
            debugged_reference = table
            report.stop_count = len(table.stops)
        else:
            _compare(report, debugged_reference, table, stats=False,
                     stops=compare_stops)
    return report


def check_corpus(corpus, *,
                 backends: Sequence[str] = BACKENDS,
                 interpreters: Sequence[str] = INTERPRETERS,
                 config: Optional[MachineConfig] = None
                 ) -> list[ConformanceReport]:
    """:func:`check_entry` for every entry of ``corpus``, in order."""
    from repro.workloads.corpus import resolve_corpus

    resolved: Corpus = resolve_corpus(corpus)
    return [check_entry(entry, backends=backends,
                        interpreters=interpreters, config=config)
            for entry in resolved.entries]
