"""Shared block-cache subsystem.

One size-bounded, thread-safe LRU (:class:`LRUCache`) underneath a
:class:`BlockCache` that both the training-side sampler (built by
:func:`~repro.training.trainer.training_sampler`) and the serving-side
:class:`~repro.serving.session.BlockSession` consult before resampling a
node's neighbourhood.  See :mod:`repro.cache.block_cache` for the cache
key contract (per-seed rows keyed by ``(node, fanout, hop, rng-epoch)``)
and the bit-identity guarantee the parity tests enforce.
"""

from repro.cache.block_cache import ROW_FINAL, ROW_RAW, BlockCache
from repro.cache.lru import CacheStats, LRUCache

__all__ = [
    "BlockCache",
    "CacheStats",
    "LRUCache",
    "ROW_FINAL",
    "ROW_RAW",
]
