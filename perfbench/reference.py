"""Recorded reference outputs and the comparison against them.

Every workload reduces its simulated outputs to canonical records:

* a grid cell -> its overhead plus a digest of its ``SimStats``, the
  baseline's ``SimStats``, transition counts, halt/stop flags and any
  unsupported reason;
* a corpus program -> one digest over its four backend cells (corpus
  cells run whole programs, so the record does not depend on run size);
* a debug-session request -> a digest of the reply payload: per-stop
  ``app_instructions``/``pc``/``state_fingerprint`` and every
  time-travel answer.

The references under ``perfbench/reference/`` were recorded from this
code by ``perfbench/record.py``.  They are identity checks on a
deterministic simulator, not accuracy claims: the model is not
validated against hardware (the comparison with the paper lives in
``EXPERIMENTS.md``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(obj) -> str:
    """Short content hash of a JSON-able object (key order ignored)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_record(result) -> dict:
    """The canonical record of one :class:`~repro.results.RunResult`."""
    return {
        "overhead": result.overhead,
        "digest": digest({
            "stats": result.stats.to_dict() if result.stats else None,
            "baseline": (result.baseline_stats.to_dict()
                         if result.baseline_stats else None),
            "user": result.user_transitions,
            "spurious": result.spurious_transitions,
            "halted": result.halted,
            "stopped_at_user": result.stopped_at_user,
            "unsupported": result.unsupported_reason,
        }),
    }


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    """The recorded reference of one workload ({} if none exists)."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def compare(expected: dict, actual: dict) -> tuple[int, int, list[str]]:
    """Compare output records key by key.

    Returns (outputs checked, outputs wrong, problems).  A key with no
    recorded reference is wrong too: an unchecked output must not
    pass.  A record may carry a ``weight``, the number of outputs it
    stands for (the four cells of one corpus program).
    """
    checked = failed = 0
    problems = []
    for key, record in actual.items():
        weight = record.get("weight", 1) if isinstance(record, dict) else 1
        checked += weight
        want = expected.get(key)
        if want == record:
            continue
        failed += weight
        problems.append(f"{key}: no recorded reference" if want is None
                        else f"{key}: expected {want}, got {record}")
    return checked, failed, problems
