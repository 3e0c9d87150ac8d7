"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.relaxed_quantizer import RelaxedQuantizer
from repro.core.search_space import pareto_front
from repro.quant.bitops import BitOpsCounter, average_bits
from repro.quant.integer_mp import quantized_edge_spmm
from repro.quant.quantizer import AffineQuantizer
from repro.tensor import SparseTensor, Tensor, spmm
from repro.tensor import functional as F
from repro.tensor.tensor import no_grad

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False, width=32)


class TestTensorProperties:
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                      elements=finite_floats))
    def test_addition_commutes(self, values):
        a = Tensor(values)
        b = Tensor(values[::-1].copy())
        np.testing.assert_allclose((a + b).data, (b + a).data, rtol=1e-5, atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      elements=finite_floats))
    def test_sum_matches_numpy(self, values):
        np.testing.assert_allclose(Tensor(values).sum().data, values.sum(),
                                   rtol=1e-4, atol=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                      elements=finite_floats))
    def test_relu_is_idempotent(self, values):
        once = Tensor(values).relu()
        twice = once.relu()
        np.testing.assert_allclose(once.data, twice.data)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(2, 6)),
                      elements=finite_floats))
    def test_softmax_is_probability_distribution(self, values):
        probabilities = F.softmax(Tensor(values), axis=-1).data
        assert (probabilities >= 0).all()
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0, rtol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 5), st.integers(0, 100))
    def test_spmm_matches_dense_product(self, num_nodes, num_features, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((num_nodes, num_nodes)) *
                 (rng.random((num_nodes, num_nodes)) < 0.4)).astype(np.float32)
        features = rng.standard_normal((num_nodes, num_features)).astype(np.float32)
        result = spmm(SparseTensor(dense), Tensor(features))
        np.testing.assert_allclose(result.data, dense @ features, rtol=1e-4, atol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 4), st.integers(1, 6), st.integers(0, 50))
    def test_segment_sum_conserves_mass(self, num_rows, num_cols, num_segments, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((num_rows, num_cols)).astype(np.float32)
        segments = rng.integers(0, num_segments, size=num_rows)
        pooled = F.segment_sum(Tensor(values), segments, num_segments)
        np.testing.assert_allclose(pooled.data.sum(), values.sum(), rtol=1e-3, atol=1e-3)


class TestQuantizerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 6, 8, 16]),
           hnp.arrays(np.float64, st.integers(2, 40),
                      elements=st.floats(-50, 50, allow_nan=False)))
    def test_quantized_integers_stay_in_range(self, bits, values):
        quantizer = AffineQuantizer(bits=bits)
        integers, params = quantizer.quantize_array(values)
        assert integers.min() >= params.qmin
        assert integers.max() <= params.qmax

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([4, 8, 16]),
           hnp.arrays(np.float64, st.integers(2, 40),
                      elements=st.floats(-10, 10, allow_nan=False)))
    def test_dequantization_error_bounded_by_scale(self, bits, values):
        quantizer = AffineQuantizer(bits=bits)
        integers, params = quantizer.quantize_array(values)
        recovered = quantizer.dequantize_array(integers, params)
        scale, _ = params.as_scalars()
        span = values.max() - values.min()
        # Errors are at most one grid step (plus clipping at the range edges).
        assert np.abs(recovered - values).max() <= scale + 1e-9 or span == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=4, unique=True),
           st.integers(0, 100))
    def test_relaxed_quantizer_expected_bits_within_choices(self, choices, seed):
        relaxed = RelaxedQuantizer(sorted(choices))
        relaxed.alpha.data[:] = np.random.default_rng(seed).standard_normal(len(choices))
        expected = relaxed.expected_bits_value()
        assert min(choices) - 1e-6 <= expected <= max(choices) + 1e-6
        assert relaxed.selected_bits() in choices

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.sampled_from([2, 4, 8, 32])),
                    min_size=1, max_size=10))
    def test_bitops_counter_total_is_sum(self, records):
        counter = BitOpsCounter()
        for operations, bits in records:
            counter.add("f", operations, bits)
        assert counter.total_bit_operations == sum(o * b for o, b in records)
        weighted = counter.operation_weighted_bits()
        assert min(b for _, b in records) <= weighted <= max(b for _, b in records)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([2, 4, 8, 16, 32]), min_size=1, max_size=12))
    def test_average_bits_bounded_by_extremes(self, bits):
        value = average_bits(bits)
        assert min(bits) <= value <= max(bits)


def _edge_case(seed: int, num_edges: int, num_dst: int, heads: int):
    """A random per-head edge-score instance with every target covered.

    Self loops for every target come first so no softmax segment is empty —
    exactly the guarantee the canonical attention edge list provides.
    """
    rng = np.random.default_rng(seed)
    loops = np.arange(num_dst, dtype=np.int64)
    extra = rng.integers(0, num_dst, size=num_edges).astype(np.int64)
    dst = np.concatenate([loops, extra])
    scores = rng.standard_normal((dst.size, heads)).astype(np.float32)
    return scores, dst


class TestMultiHeadAttentionProperties:
    """The three invariants of the per-head attention stage."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 40), st.integers(1, 8),
           st.sampled_from([1, 2, 4, 8]))
    def test_per_head_scatter_softmax_rows_sum_to_one(self, seed, num_edges,
                                                      num_dst, heads):
        scores, dst = _edge_case(seed, num_edges, num_dst, heads)
        attention = F.scatter_softmax(Tensor(scores), dst, num_dst).data
        sums = np.zeros((num_dst, heads))
        np.add.at(sums, dst, attention)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-5, atol=1e-5)
        assert (attention >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 40), st.integers(1, 8),
           st.sampled_from([1, 2, 4]))
    def test_scatter_softmax_invariant_under_edge_permutation(self, seed,
                                                              num_edges,
                                                              num_dst, heads):
        scores, dst = _edge_case(seed, num_edges, num_dst, heads)
        permutation = np.random.default_rng(seed + 1).permutation(dst.size)
        canonical = F.scatter_softmax(Tensor(scores), dst, num_dst).data
        permuted = F.scatter_softmax(Tensor(scores[permutation]),
                                     dst[permutation], num_dst).data
        # float softmax is permutation-invariant to round-off (the shifted
        # max is exact; only the denominator accumulation order moves)
        np.testing.assert_allclose(permuted, canonical[permutation],
                                   rtol=1e-5, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 40), st.integers(1, 8),
           st.sampled_from([1, 2, 4]), st.integers(1, 6))
    def test_integer_edge_aggregation_exactly_permutation_invariant(
            self, seed, num_edges, num_dst, heads, head_dim):
        """int64 accumulation is associative — the head axis of
        ``quantized_edge_spmm`` must be *bit*-invariant under any edge-list
        reordering, unlike its float counterpart."""
        rng = np.random.default_rng(seed)
        _, dst = _edge_case(seed, num_edges, num_dst, heads)
        src = rng.integers(0, num_dst, size=dst.size).astype(np.int64)
        q_edge = rng.integers(-127, 128, size=(dst.size, heads))
        qx = rng.integers(-127, 128, size=(num_dst, heads, head_dim))
        permutation = rng.permutation(dst.size)
        canonical = quantized_edge_spmm(q_edge, 0.017, qx, 0.21, 3.0,
                                        src, dst, num_dst)
        permuted = quantized_edge_spmm(q_edge[permutation], 0.017, qx,
                                       0.21, 3.0, src[permutation],
                                       dst[permutation], num_dst)
        np.testing.assert_array_equal(permuted, canonical)
        assert canonical.shape == (num_dst, heads, head_dim)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.sampled_from([2, 3, 4]),
           st.integers(2, 5), st.integers(3, 10))
    def test_concat_of_identical_heads_repeats_single_head(self, seed, heads,
                                                           head_dim,
                                                           num_nodes):
        """A concat-merge layer whose heads share one parameter set outputs
        the single-head layer's columns tiled ``heads`` times: the head
        blocks of one forward are *bit*-identical to each other (per-head
        pipelines are independent), and match the standalone single-head
        layer to float32 round-off (BLAS may tile the wider transform
        matmul differently)."""
        from repro.graphs.graph import Graph
        from repro.quant.qmodules import QuantGATConv

        rng = np.random.default_rng(seed)
        in_features = 5
        edges = np.stack([rng.integers(0, num_nodes, size=3 * num_nodes),
                          rng.integers(0, num_nodes, size=3 * num_nodes)])
        graph = Graph(rng.standard_normal((num_nodes, in_features))
                      .astype(np.float32), edges, name="prop")

        single = QuantGATConv(in_features, head_dim, {}, heads=1,
                              rng=np.random.default_rng(seed + 1))
        multi = QuantGATConv(in_features, heads * head_dim, {}, heads=heads,
                             head_merge="concat",
                             rng=np.random.default_rng(seed + 2))
        # tile the single head's parameters across every head
        multi.linear.weight.data[:] = np.tile(single.linear.weight.data,
                                              (1, heads))
        multi.attention_src.data[:] = np.tile(single.attention_src.data,
                                              (1, heads))
        multi.attention_dst.data[:] = np.tile(single.attention_dst.data,
                                              (1, heads))
        multi.bias.data[:] = np.tile(single.bias.data, heads)
        with no_grad():
            reference = single(Tensor(graph.x), graph).data
            tiled = multi(Tensor(graph.x), graph).data
        for head in range(1, heads):
            np.testing.assert_array_equal(
                tiled[:, head * head_dim:(head + 1) * head_dim],
                tiled[:, :head_dim])
        np.testing.assert_allclose(tiled, np.tile(reference, (1, heads)),
                                   rtol=1e-5, atol=1e-6)


class TestParetoProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(2, 8, allow_nan=False),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=1, max_size=30))
    def test_pareto_points_are_mutually_non_dominated(self, points):
        front = pareto_front(points)
        assert front  # never empty
        for i in front:
            for j in front:
                if i == j:
                    continue
                dominates = (points[j][0] < points[i][0]) and (points[j][1] > points[i][1])
                assert not dominates

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(2, 8, allow_nan=False),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=1, max_size=30))
    def test_every_point_dominated_by_some_front_point(self, points):
        front = pareto_front(points)
        best_quality = max(points[i][1] for i in front)
        assert all(point[1] <= best_quality for point in points)
