"""reprolint — invariant-enforcing static analysis for this repository.

Run it as ``python -m tools.reprolint src tests benchmarks examples``.

Rule families (details + authoring guide in ``docs/static-analysis.md``):

* **RL01 determinism** — no global-state RNG, no wall-clock seeding.
* **RL02 integer-path purity** — Theorem-1 stages keep their accumulation
  in int64 and exit to floats only explicitly.
* **RL03 lock discipline** — ``# guarded-by:`` attributes are only
  touched under their lock; the acquisition-order graph stays acyclic.
* **RL04 API hygiene** — no artifact-version literals outside
  ``serving/artifact.py``.

Suppress per line with ``# reprolint: disable=RL01`` or per file with
``# reprolint: disable-file=RL04``.
"""

from tools.reprolint.core import (
    Rule,
    Violation,
    analyze_paths,
    analyze_source,
    collect_files,
)
from tools.reprolint.rules import ALL_RULES, RULES_BY_ID

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "collect_files",
]
