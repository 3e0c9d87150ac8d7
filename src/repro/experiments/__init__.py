"""Experiment runners: one function per table / figure of the paper.

Every runner returns plain Python data (``MethodRow`` lists or point lists)
so it can be driven both by the ``benchmarks/`` harness (which prints the
paper-style tables and asserts the qualitative shape) and by the
``examples/`` scripts.  Tables 3–10 are declared once in
:data:`repro.experiments.reference.TABLES` (title, default datasets, the
paper's values, runner); ``repro table`` and the ``bench_table*`` files read
that declaration.  The paper's values are printed, never asserted.
``ExperimentScale`` controls dataset sizes and epoch counts so the full
suite finishes on a CPU-only machine.
"""

from repro.experiments.config import ExperimentScale, QUICK, STANDARD
from repro.experiments.common import MethodRow, format_table
from repro.experiments import (
    ablation,
    figures,
    graph_tables,
    node_tables,
    reference,
    table_static,
)

__all__ = [
    "ExperimentScale",
    "QUICK",
    "STANDARD",
    "MethodRow",
    "format_table",
    "figures",
    "node_tables",
    "graph_tables",
    "ablation",
    "table_static",
    "reference",
]
