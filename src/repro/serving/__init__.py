"""Unified export + inference-session API for quantized serving.

The deployment story of the paper (Figure 7, stage 5 / Theorem 1) as a
subsystem decoupled from training:

* :class:`QuantizedArtifact` — a self-contained, serializable deployment
  artifact exported from a trained quantized classifier (``save()`` /
  ``load()`` as npz + json sidecar).
* :class:`FullGraphSession` / :class:`BlockSession` — integer inference
  backends sharing one layer executor; the block backend serves per-request
  through fanout-bounded :class:`~repro.graphs.sampling.NeighborSampler`
  blocks and never materialises the full adjacency.  Matrix layers (GCN /
  SAGE / GIN) aggregate with pre-quantized operators; attention layers
  (GAT / TAG / Transformer) execute per-edge *score plans* — float scores
  and softmax on the canonical edge list, integer Theorem-1 aggregation of
  the quantized coefficients.
* :class:`ServingEngine` — request coalescing, micro-batching and
  per-request BitOPs / latency accounting, optionally fanning micro-batches
  over a worker pool (``workers``).
* :class:`AsyncServingEngine` — thread-safe online front: futures-based
  ``submit()`` from any number of threads and a work-conserving
  dispatcher: an idle one flushes at once, and requests that arrive during
  a flush share the next one.

Repeat/overlapping block-serving traffic is accelerated by the shared
:class:`~repro.cache.BlockCache` (``BlockSession(cache_size=...)``), with
bit-identical outputs.  The CLI front ends are ``repro export`` and
``repro predict`` (``--cache-size``, ``--workers``).
"""

from repro.serving.artifact import (
    LayerPlan,
    QUANTIZER_SLOTS,
    QuantizedArtifact,
    WEIGHT_SLOTS,
    WeightPlan,
    artifact_paths,
    tag_weight_slots,
)
from repro.serving.async_engine import AsyncServingEngine
from repro.serving.engine import EngineStats, RequestResult, ServingEngine
from repro.serving.session import (
    BlockSession,
    FullGraphSession,
    InferenceSession,
    SessionRun,
)

__all__ = [
    "QuantizedArtifact",
    "LayerPlan",
    "WeightPlan",
    "WEIGHT_SLOTS",
    "QUANTIZER_SLOTS",
    "artifact_paths",
    "tag_weight_slots",
    "InferenceSession",
    "FullGraphSession",
    "BlockSession",
    "SessionRun",
    "ServingEngine",
    "AsyncServingEngine",
    "RequestResult",
    "EngineStats",
]
