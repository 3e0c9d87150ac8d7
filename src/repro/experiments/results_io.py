"""Saving and loading experiment artefacts (bit-width assignments, result tables).

MixQ-GNN's output is a *bit-width assignment* — a small dictionary mapping
component names to integers — plus the summary metrics of the quantized
model.  Persisting these as JSON lets a search run on one machine be
finalized and deployed on another, and lets a measured table be archived
and reloaded (:func:`save_table` / :func:`load_table`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.core.mixq import MixQResult
from repro.core.selection import BitWidthSearchResult
from repro.experiments.common import MethodRow
from repro.quant.qmodules import BitWidthAssignment

PathLike = Union[str, Path]


def save_assignment(assignment: BitWidthAssignment, path: PathLike,
                    metadata: Dict[str, object] | None = None) -> None:
    """Write a bit-width assignment (and optional metadata) to a JSON file."""
    payload = {"assignment": {str(k): int(v) for k, v in assignment.items()},
               "metadata": metadata or {}}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_assignment(path: PathLike) -> BitWidthAssignment:
    """Read a bit-width assignment produced by :func:`save_assignment`."""
    payload = json.loads(Path(path).read_text())
    if "assignment" not in payload:
        raise ValueError(f"{path} does not contain a bit-width assignment")
    return {str(key): int(value) for key, value in payload["assignment"].items()}


def search_result_to_dict(result: BitWidthSearchResult) -> Dict[str, object]:
    """A JSON-serialisable view of a :class:`BitWidthSearchResult`."""
    return {
        "assignment": {k: int(v) for k, v in result.assignment.items()},
        "average_bits": result.average_bits,
        "lambda": result.lambda_value,
        "loss_history": list(result.loss_history),
        "penalty_history": list(result.penalty_history),
        "expected_bits_history": list(result.expected_bits_history),
    }


def mixq_result_to_dict(result: MixQResult) -> Dict[str, object]:
    """A JSON-serialisable view of a :class:`MixQResult`."""
    payload = {
        "accuracy": result.accuracy,
        "average_bits": result.average_bits,
        "giga_bit_operations": result.giga_bit_operations,
        "assignment": {k: int(v) for k, v in result.assignment.items()},
    }
    if result.search is not None:
        payload["search"] = search_result_to_dict(result.search)
    return payload


def save_mixq_result(result: MixQResult, path: PathLike) -> None:
    """Write a full MixQ run summary to JSON."""
    Path(path).write_text(json.dumps(mixq_result_to_dict(result), indent=2))


def rows_to_records(rows: Sequence[MethodRow]) -> List[Dict[str, object]]:
    """Convert table rows to plain dictionaries (one per method)."""
    return [row.as_dict() for row in rows]


def save_table(rows: Sequence[MethodRow], path: PathLike, title: str = "") -> None:
    """Persist a result table (as printed by the benchmarks) to JSON."""
    payload = {"title": title, "rows": rows_to_records(rows)}
    Path(path).write_text(json.dumps(payload, indent=2))


def load_table(path: PathLike) -> List[Dict[str, object]]:
    """Load a table written by :func:`save_table`."""
    payload = json.loads(Path(path).read_text())
    return list(payload.get("rows", []))
