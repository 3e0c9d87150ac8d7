"""Kernel-backend latency on the integer serving hot path.

The backend registry (:mod:`repro.kernels`) certifies every backend
bit-identical to the ``numpy`` reference, so the only thing left to
measure is speed.  This benchmark times the two stages the ``vectorized``
backend actually rewrites on a synthetic attention-shaped workload:

* **edge aggregation** (``edge_spmm``) — scatter-add ``np.add.at`` in the
  reference vs a sort + ``np.add.reduceat`` segment reduce;
* **per-head score projection** (``gat_scores``) — a Python loop over
  heads in the reference vs one batched ``(N, H, D)`` evaluation.

Each cell is a min-of-repeats wall time; outputs are asserted bit-equal
across backends before anything is timed, so a contract break fails here
too rather than producing a fast-but-wrong number.
"""

from __future__ import annotations

import time

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.kernels import available_backends, get_backend

HEADS = 4
HEAD_DIM = 16
REPEATS = 5
#: Stages timed per backend (name -> builder of a no-arg callable).
STAGES = ("edge_spmm", "gat_scores")


def _workload(num_nodes: int, num_edges: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    q_edge = rng.integers(0, 127, size=(num_edges, HEADS))
    qx = rng.integers(-128, 128, size=(num_nodes, HEADS, HEAD_DIM))
    transformed = rng.normal(size=(num_nodes, HEADS * HEAD_DIM))
    attention_src = rng.normal(size=(HEAD_DIM, HEADS))
    attention_dst = rng.normal(size=(HEAD_DIM, HEADS))
    return {
        "edge_spmm": (q_edge, 0.004, qx, 0.15, 3.0, src, dst, num_nodes),
        "gat_scores": (transformed, attention_src, attention_dst, src, dst,
                       HEADS, HEAD_DIM),
    }


def _time_stage(backend, stage: str, arguments) -> float:
    kernel = getattr(backend, stage)
    kernel(*arguments)                     # warm (jit / memoised segments)
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel(*arguments)
        best = min(best, time.perf_counter() - start)
    return best


def _sweep():
    quick = current_scale().name == "quick"
    num_nodes = 5_000 if quick else 20_000
    num_edges = 50_000 if quick else 400_000
    workload = _workload(num_nodes, num_edges)
    reference = get_backend("numpy")
    expected = {stage: getattr(reference, stage)(*workload[stage])
                for stage in STAGES}

    rows = []
    for name in available_backends():
        backend = get_backend(name)
        for stage in STAGES:
            # never time a backend that broke the contract
            exact = bool(np.array_equal(
                getattr(backend, stage)(*workload[stage]), expected[stage]))
            seconds = _time_stage(backend, stage, workload[stage])
            rows.append((name, stage, seconds, exact))
    return num_nodes, num_edges, rows


def test_kernel_backend_latency(benchmark):
    num_nodes, num_edges, rows = run_once(benchmark, _sweep)

    print(f"\nkernel backends on N={num_nodes}, E={num_edges}, "
          f"H={HEADS}, D={HEAD_DIM} (min of {REPEATS})")
    print(f"{'backend':>12} {'stage':>12} {'ms':>9} {'exact':>6}")
    for name, stage, seconds, exact in rows:
        print(f"{name:>12} {stage:>12} {seconds * 1e3:>9.3f} {str(exact):>6}")

    timings = {(name, stage): seconds for name, stage, seconds, _ in rows}
    assert all(exact for _, _, _, exact in rows)
    for stage in STAGES:
        # the acceptance criterion: the shipped fast backend beats the
        # reference on both rewritten stages
        assert timings[("vectorized", stage)] < timings[("numpy", stage)], \
            f"vectorized {stage} slower than the reference"
