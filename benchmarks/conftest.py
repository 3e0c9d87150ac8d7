"""Shared helpers for the benchmark harness.

Every benchmark runs its experiment exactly once through
``benchmark.pedantic(..., rounds=1, iterations=1)`` (the experiments are
full training runs, not micro-kernels), prints the paper-style table or
series, and asserts the qualitative *shape* of the result — orderings and
compression factors, never absolute accuracies, because the datasets are
synthetic stand-ins (see ``repro.graphs.datasets``).

Set ``REPRO_SCALE=standard`` for larger graphs / more seeds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import current_scale


@pytest.fixture(scope="session")
def scale():
    """The experiment scale shared by all benchmarks."""
    return current_scale()


@pytest.fixture(scope="session")
def light_scale():
    """A reduced-seed variant for the heavier table benchmarks."""
    base = current_scale()
    return replace(base, num_seeds=max(1, base.num_seeds - 1))
