"""Per-kernel certification: every backend bit-identical to the reference.

The served-logits parity lives in ``tests/parity_matrix.py`` (backend
axis); these tests certify each kernel *in isolation* on randomized
integer-grid inputs, so a contract break names the exact operation.
"""

import numpy as np
import pytest

from repro.kernels import VectorizedBackend, available_backends, get_backend, vectorized
from repro.tensor.sparse import SparseTensor

REFERENCE = get_backend("numpy")
OTHER_BACKENDS = [name for name in available_backends() if name != "numpy"]

NUM_NODES = 40
NUM_DST = 24
NUM_EDGES = 160
HEADS = 4
HEAD_DIM = 5


def _rng():
    return np.random.default_rng(17)


def _edges(rng, num_edges=NUM_EDGES):
    src = rng.integers(0, NUM_NODES, size=num_edges)
    dst = rng.integers(0, NUM_DST, size=num_edges)
    return src, dst


@pytest.mark.parametrize("name", OTHER_BACKENDS)
class TestKernelCertification:
    @staticmethod
    def _spmm_operands():
        """A float32-valued operator (``quantized_spmm``'s form) with empty
        first, middle and last rows, and features on a grid."""
        rng = _rng()
        dense = rng.integers(-8, 8, size=(NUM_DST, NUM_NODES)).astype(np.float64)
        dense[rng.random(dense.shape) < 0.7] = 0.0
        dense[[0, 5, NUM_DST - 1]] = 0.0
        qx = rng.integers(0, 255, size=(NUM_NODES, 16)).astype(np.float64)
        return SparseTensor(dense), qx

    def _assert_spmm_matches(self, backend, qa, qx):
        arguments = (qa, 0.03, qx, 0.11, 7.0)
        keywords = {"sy": 0.9, "zy": 3.0}
        expected = REFERENCE.spmm(*arguments, **keywords)
        assert expected.tobytes() \
            == backend.spmm(*arguments, **keywords).tobytes()

    def test_spmm(self, name):
        qa, qx = self._spmm_operands()
        assert qa.values.dtype == np.float32
        self._assert_spmm_matches(get_backend(name), qa, qx)

    def test_spmm_int64_operand(self, name):
        """The serving operand: int64 values on the source CSR pattern."""
        qa, qx = self._spmm_operands()
        csr = qa.csr
        integer = SparseTensor.from_csr(csr.data.astype(np.int64),
                                        csr.indices, csr.indptr, csr.shape)
        self._assert_spmm_matches(get_backend(name), integer, qx)
        np.testing.assert_array_equal(
            get_backend(name).spmm(integer, 0.03, qx, 0.11, 7.0),
            REFERENCE.spmm(qa, 0.03, qx, 0.11, 7.0))

    def test_edge_spmm_single_head(self, name):
        rng = _rng()
        backend = get_backend(name)
        src, dst = _edges(rng)
        q_edge = rng.integers(0, 127, size=NUM_EDGES)
        qx = rng.integers(-128, 128, size=(NUM_NODES, 12))
        arguments = (q_edge, 0.007, qx, 0.2, 5.0, src, dst, NUM_DST)
        np.testing.assert_array_equal(backend.edge_spmm(*arguments),
                                      REFERENCE.edge_spmm(*arguments))

    def test_edge_spmm_multi_head(self, name):
        rng = _rng()
        backend = get_backend(name)
        src, dst = _edges(rng)
        q_edge = rng.integers(0, 127, size=(NUM_EDGES, HEADS))
        qx = rng.integers(-128, 128, size=(NUM_NODES, HEADS, HEAD_DIM))
        arguments = (q_edge, 0.004, qx, 0.15, 3.0, src, dst, NUM_DST)
        result = backend.edge_spmm(*arguments)
        assert result.shape == (NUM_DST, HEADS, HEAD_DIM)
        np.testing.assert_array_equal(result, REFERENCE.edge_spmm(*arguments))

    def test_edge_spmm_per_column_feature_params(self, name):
        rng = _rng()
        backend = get_backend(name)
        src, dst = _edges(rng)
        q_edge = rng.integers(0, 63, size=NUM_EDGES)
        qx = rng.integers(0, 255, size=(NUM_NODES, 6))
        sx = rng.uniform(0.01, 0.3, size=6)
        zx = rng.integers(-4, 4, size=6).astype(np.float64)
        arguments = (q_edge, 0.01, qx, sx, zx, src, dst, NUM_DST)
        np.testing.assert_array_equal(backend.edge_spmm(*arguments),
                                      REFERENCE.edge_spmm(*arguments))

    def test_edge_spmm_empty_edge_list(self, name):
        backend = get_backend(name)
        empty = np.zeros(0, dtype=np.int64)
        qx = np.ones((NUM_NODES, HEADS, HEAD_DIM))
        result = backend.edge_spmm(np.zeros((0, HEADS), dtype=np.int64), 0.01,
                                   qx, 0.1, 2.0, empty, empty, NUM_DST)
        assert result.shape == (NUM_DST, HEADS, HEAD_DIM)
        np.testing.assert_array_equal(result, np.zeros_like(result))

    def test_edge_spmm_rejects_mismatched_heads(self, name):
        backend = get_backend(name)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="multi-head"):
            backend.edge_spmm(np.zeros((0, HEADS), dtype=np.int64), 0.01,
                              np.ones((NUM_NODES, HEADS + 1, HEAD_DIM)),
                              0.1, 0.0, empty, empty, NUM_DST)

    def test_edge_softmax(self, name):
        rng = _rng()
        backend = get_backend(name)
        _, dst = _edges(rng)
        scores = rng.normal(size=(NUM_EDGES, HEADS))
        expected = REFERENCE.edge_softmax(scores, dst, NUM_DST)
        np.testing.assert_array_equal(backend.edge_softmax(scores, dst,
                                                           NUM_DST), expected)
        # single-head (E,) form too
        flat = rng.normal(size=NUM_EDGES)
        np.testing.assert_array_equal(
            backend.edge_softmax(flat, dst, NUM_DST),
            REFERENCE.edge_softmax(flat, dst, NUM_DST))

    def test_gat_scores(self, name):
        rng = _rng()
        backend = get_backend(name)
        src, dst = _edges(rng)
        src = np.minimum(src, NUM_DST - 1)
        transformed = rng.normal(size=(NUM_DST, HEADS * HEAD_DIM))
        attention_src = rng.normal(size=(HEAD_DIM, HEADS))
        attention_dst = rng.normal(size=(HEAD_DIM, HEADS))
        arguments = (transformed, attention_src, attention_dst, src, dst,
                     HEADS, HEAD_DIM)
        np.testing.assert_array_equal(backend.gat_scores(*arguments),
                                      REFERENCE.gat_scores(*arguments))


class TestVectorizedMemoisation:
    def test_repeat_calls_are_stable(self):
        """Memoised segments/weights must not change results on reuse."""
        rng = _rng()
        backend = get_backend("vectorized")
        src, dst = _edges(rng)
        q_edge = rng.integers(0, 127, size=NUM_EDGES)
        qx = rng.integers(-64, 64, size=(NUM_NODES, 8))
        arguments = (q_edge, 0.02, qx, 0.3, 1.0, src, dst, NUM_DST)
        first = backend.edge_spmm(*arguments)
        second = backend.edge_spmm(*arguments)  # served from the dst memo
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, REFERENCE.edge_spmm(*arguments))

    def test_softmax_and_spmm_share_one_sort(self, monkeypatch):
        """A layer hands both edge kernels the same ``dst`` array: the
        by-target structure is built (and the edge list sorted) once."""
        built = []
        build = vectorized._build_by_target

        def counting_build(dst, num_dst):
            built.append(dst)
            return build(dst, num_dst)

        monkeypatch.setattr(vectorized, "_build_by_target", counting_build)
        rng = _rng()
        backend = VectorizedBackend()
        src, dst = _edges(rng)
        scores = rng.normal(size=(NUM_EDGES, HEADS))
        q_edge = rng.integers(0, 127, size=(NUM_EDGES, HEADS))
        qx = rng.integers(-64, 64, size=(NUM_NODES, HEADS, HEAD_DIM))
        arguments = (q_edge, 0.02, qx, 0.3, 1.0, src, dst, NUM_DST)
        np.testing.assert_array_equal(
            backend.edge_softmax(scores, dst, NUM_DST),
            REFERENCE.edge_softmax(scores, dst, NUM_DST))
        np.testing.assert_array_equal(backend.edge_spmm(*arguments),
                                      REFERENCE.edge_spmm(*arguments))
        assert len(built) == 1 and built[0] is dst

    def test_structure_memo_is_bounded_and_releases_evicted_edges(self):
        import gc
        import weakref

        rng = _rng()
        backend = VectorizedBackend()
        bound = vectorized._STRUCTURE_ENTRIES
        _, first = _edges(rng)
        released = weakref.ref(first)
        scores = rng.normal(size=NUM_EDGES)
        backend.edge_softmax(scores, first, NUM_DST)
        del first
        assert released() is not None  # pinned while memoised
        for _ in range(bound):
            backend.edge_softmax(scores, _edges(rng)[1], NUM_DST)
        assert len(backend._structures) == bound
        gc.collect()
        assert released() is None

    def test_memo_entry_of_another_array_is_never_served(self):
        """A recycled ``id()`` must not alias: an entry is used only for
        the very array (and target count) it was built from."""
        rng = _rng()
        backend = VectorizedBackend()
        src, dst = _edges(rng)
        other = np.sort(dst)
        q_edge = rng.integers(0, 127, size=NUM_EDGES)
        qx = rng.integers(-64, 64, size=(NUM_NODES, 8))
        backend._structures[id(dst)] = (
            other, NUM_DST, vectorized._build_by_target(other, NUM_DST))
        arguments = (q_edge, 0.02, qx, 0.3, 1.0, src, dst, NUM_DST)
        np.testing.assert_array_equal(backend.edge_spmm(*arguments),
                                      REFERENCE.edge_spmm(*arguments))
        wider = (q_edge, 0.02, qx, 0.3, 1.0, src, dst, NUM_DST + 3)
        np.testing.assert_array_equal(backend.edge_spmm(*wider),
                                      REFERENCE.edge_spmm(*wider))

    def test_thread_safety_under_concurrent_calls(self):
        import threading

        rng = _rng()
        backend = get_backend("vectorized")
        cases = []
        for _ in range(8):
            src, dst = _edges(rng, num_edges=64)
            q_edge = rng.integers(0, 63, size=64)
            qx = rng.integers(0, 127, size=(NUM_NODES, 4))
            arguments = (q_edge, 0.05, qx, 0.25, 2.0, src, dst, NUM_DST)
            cases.append((arguments, REFERENCE.edge_spmm(*arguments)))

        failures = []

        def worker():
            for arguments, expected in cases * 4:
                if not np.array_equal(backend.edge_spmm(*arguments), expected):
                    failures.append(arguments)  # pragma: no cover

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
