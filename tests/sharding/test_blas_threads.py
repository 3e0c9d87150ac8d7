"""Shard workers run BLAS on one thread; the router process is untouched.

The bitwise half — one thread computes what the default count computes —
is ``tests/kernels/test_blas_thread_count.py``.
"""

import time

import numpy as np
import pytest

from repro.sharding import ShardedBlockSession, _blas


def test_pinned_process_does_not_spin(in_pinned_child):
    """A worker's rhythm — one chunk-sized GEMM, then idle — costs only
    the GEMMs.  Left at two threads, OpenBLAS's helper busy-waits through
    every idle gap (~0.2 s of CPU for these 0.2 s of wall time)."""

    def gemm_rounds():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((600, 64))
        weight = rng.standard_normal((64, 32))
        # Pinning restarts OpenBLAS's pool once; that helper spins for
        # ~0.3 s and then sleeps for good.
        time.sleep(0.5)
        start = time.process_time()
        for _ in range(20):
            x @ weight
            time.sleep(0.01)
        return time.process_time() - start

    pinned, cpu_seconds = in_pinned_child(gemm_rounds)
    if pinned == 0:
        pytest.skip("no OpenBLAS mapped: the thread count is not ours to set")
    assert cpu_seconds < 0.05


def test_router_process_keeps_its_blas_threads(shard_artifact, parity_graph):
    before = _blas.blas_thread_counts()
    with ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                             fanouts=3, batch_size=32, seed=7) as session:
        session.run(np.arange(40, dtype=np.int64))
    assert _blas.blas_thread_counts() == before


def test_no_openblas_mapped_changes_nothing(tmp_path, monkeypatch):
    before = _blas.blas_thread_counts()
    maps = tmp_path / "maps"
    maps.write_text(
        "7f0000000000-7f0000001000 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n"
        "7f0000002000-7f0000003000 rw-p 00000000 00:00 0\n"
        "7ffc00000000-7ffc00021000 rw-p 00000000 00:00 0 [stack]\n")
    with monkeypatch.context() as patch:
        patch.setattr(_blas, "_MAPS", str(maps))
        assert _blas.pin_blas_to_one_thread() == 0
        patch.setattr(_blas, "_MAPS", str(tmp_path / "absent"))  # no /proc
        assert _blas.pin_blas_to_one_thread() == 0
    assert _blas.blas_thread_counts() == before
