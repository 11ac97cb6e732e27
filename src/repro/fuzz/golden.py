"""Golden-trace snapshots of pinned fuzz seeds.

A golden record pins, for one seed, the canonical user-visible stop
sequence (recorded under the virtual-memory backend — any backend would
do, they must agree) and the final architectural state of the
undebugged run.  The snapshot files live in ``tests/fuzz/golden/`` and
regress two things hand-written tests can't: that the *generator* is
bit-stable (a changed program for the same seed invalidates every
reported seed) and that debugger stop semantics don't drift silently.

Regenerate after an intentional change with::

    repro-fuzz --write-golden tests/fuzz/golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

from repro.config import MachineConfig
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import BACKENDS, _run_spec

GOLDEN_SEEDS = (1, 7, 23, 101, 4242)
# Format 2: adds the compiled-interpreter rotation record
# (compiled_backend/compiled_stops), pinning the compiled tier's stop
# sequence under a seed-rotated backend.
GOLDEN_FORMAT = 2
_REFERENCE_BACKEND = "virtual_memory"


def _stop_list(outcome) -> list[dict]:
    return [{"breakpoints": list(stop.breakpoints),
             "changes": [[name, value] for name, value in stop.changes]}
            for stop in outcome.stops]


def compute_golden(seed: int,
                   config: Optional[MachineConfig] = None) -> dict:
    """The canonical record for ``seed`` (JSON-ready, key-sorted)."""
    spec = generate_spec(seed)
    base = _run_spec(spec, config)
    debugged = _run_spec(spec, config, "table", _REFERENCE_BACKEND)
    # Rotate the compiled interpreter through the backend matrix: each
    # pinned seed exercises it under a different backend (rotated by
    # position so the five golden seeds jointly cover all five
    # backends; ad-hoc seeds fall back to a seed-keyed pick).
    if seed in GOLDEN_SEEDS:
        compiled_backend = BACKENDS[GOLDEN_SEEDS.index(seed)
                                    % len(BACKENDS)]
    else:
        compiled_backend = BACKENDS[seed % len(BACKENDS)]
    compiled = _run_spec(spec, config, "compiled", compiled_backend)
    if base.error or debugged.error or compiled.error:
        raise RuntimeError(
            f"golden seed {seed} failed to run: "
            f"{base.error or debugged.error or compiled.error}")
    return {
        "format": GOLDEN_FORMAT,
        "seed": seed,
        "mode": spec.mode,
        "stops": _stop_list(debugged),
        "compiled_backend": compiled_backend,
        "compiled_stops": _stop_list(compiled),
        "final_state": [[name, value] for name, value in base.state],
        "regs": list(base.regs),
    }


def path_for(directory: str | Path, seed: int) -> Path:
    """Snapshot file location for ``seed`` inside ``directory``."""
    return Path(directory) / f"seed-{seed}.json"


def write_golden(directory: str | Path,
                 seeds: Iterable[int] = GOLDEN_SEEDS,
                 config: Optional[MachineConfig] = None) -> list[Path]:
    """(Re)write the snapshot files; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for seed in seeds:
        path = path_for(directory, seed)
        path.write_text(json.dumps(compute_golden(seed, config),
                                   indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def verify_golden(directory: str | Path,
                  seeds: Optional[Iterable[int]] = None,
                  config: Optional[MachineConfig] = None) -> list[str]:
    """Compare current behavior against the snapshots.

    Returns a list of human-readable mismatch descriptions (empty =
    everything matches).  A missing snapshot file is a mismatch.
    """
    problems = []
    for seed in (GOLDEN_SEEDS if seeds is None else seeds):
        path = path_for(directory, seed)
        if not path.exists():
            problems.append(f"seed {seed}: no snapshot at {path}")
            continue
        recorded = json.loads(path.read_text())
        current = compute_golden(seed, config)
        if recorded != current:
            keys = [k for k in current
                    if recorded.get(k) != current.get(k)]
            problems.append(
                f"seed {seed}: drift in {', '.join(keys)} (see {path})")
    return problems
