"""Artifact writers: CSV tables and JSON reports.

All numeric CSV fields use 17 significant digits so a written value
round-trips to the exact float64 that produced it; regression diffs on
these files are therefore exact.  JSON documents are written with sorted
keys and a fixed layout.  Newlines are always "\\n" so digests do not
depend on the platform.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

# An ensemble report lists its outcomes one by one up to this many, and
# beyond that only their count.
MAX_LISTED_OUTCOMES = 64


def format_float(x: float) -> str:
    """Render a float with full round-trip precision."""
    return f"{float(x):.17g}"


def write_csv(path: Path, header: Sequence[str],
              columns: Sequence[np.ndarray]) -> Path:
    """Write equal-length columns as CSV with round-trip floats."""
    path = Path(path)
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ValueError("CSV columns must have equal length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(format_float(col[i]) for col in columns) + "\n")
    return path


def write_json(path: Path, document: Mapping) -> Path:
    """Write a JSON document with sorted keys and a trailing newline."""
    path = Path(path)
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def sha256_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def jsonable(value):
    """Recursively convert numpy scalars/arrays for JSON output."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def write_ledger_csv(path: Path, ledger) -> Path:
    """Energy ledger table with columns (t, H_A, H_w, V, total)."""
    return write_csv(path, ["t", "H_A", "H_w", "V", "total"],
                     [ledger.times, ledger.system, ledger.field,
                      ledger.interaction, ledger.total])


def write_ensemble_series_csv(path: Path, stats) -> Path:
    """Ensemble-mean series with columns (t, expA, expH)."""
    if stats.times is None:
        raise ValueError("ensemble was run without series recording")
    return write_csv(path, ["t", "expA", "expH"],
                     [stats.times, stats.mean_coupling,
                      stats.mean_hamiltonian])


def ensemble_report(stats, scenario_echo: Mapping) -> dict:
    """JSON-ready summary of an ensemble run."""
    doc = {
        "scenario": jsonable(dict(scenario_echo)),
        "mode": stats.mode,
        "n_requested": stats.n_requested,
        "n_success": stats.n_success,
        "n_failed": stats.n_failed,
        "master_seed": stats.master_seed,
        "effective_sample_size": stats.effective_sample_size,
        "mean_weight": stats.mean_weight,
        "mean_weight_se": stats.mean_weight_se,
        "interaction_mean": stats.interaction_mean,
        "interaction_se": stats.interaction_se,
    }
    if stats.field_energy_mean is not None:
        doc["field_energy_mean"] = stats.field_energy_mean
        doc["field_energy_se"] = stats.field_energy_se
    if stats.outcome_values.size <= MAX_LISTED_OUTCOMES:
        doc["outcomes"] = [
            {"value": v, "frequency": f, "stderr": e}
            for v, f, e in zip(stats.outcome_values,
                               stats.outcome_frequencies,
                               stats.outcome_errors)
        ]
    else:
        doc["outcome_count"] = int(stats.outcome_values.size)
    return jsonable(doc)
