"""RL05 — cache-key versioning: streamed caches must key on graph versions.

The streaming tier's correctness story (see :mod:`repro.cache.block_cache`)
rests on one construction: every :class:`~repro.cache.BlockCache` key
carries a graph-version component — the node's ``Graph.row_version`` for
row-shaped entries, the ``Graph.version`` for batch entries — so an update
makes stale entries *unreachable by key* instead of relying on eviction
races.  A key tuple built without that component reintroduces the exact
bug class scoped invalidation was designed out of: a warm entry from
before an update keeps getting served after it.

The rule flags any tuple literal whose first element is one of the cache
kind tags (``"row"`` / ``"blk"`` / ``"bat"``) unless some other element of
the tuple mentions a ``*version*`` identifier.  All-constant tuples are
ignored: ``("row", "blk")`` is a membership test, not a key.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.core import FileContext, Rule, Violation

#: First elements that mark a tuple literal as a BlockCache key.
KIND_TAGS = ("row", "blk", "bat")


def _mentions_version(node: ast.AST) -> bool:
    """True when any identifier under ``node`` looks version-carrying."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.keyword):
            name = sub.arg
        if name and "version" in name.lower():
            return True
    return False


class CacheKeyVersionRule(Rule):
    rule_id = "RL05"
    name = "cache-key-versions"
    hint = ("streamed graphs advance their versions on every update; a "
            "cache key without a version component keeps serving entries "
            "from before the update — put the graph's row_version (row "
            "entries) or version (batch entries) into the key tuple")

    def check(self, context: FileContext) -> Iterable[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Tuple) or not node.elts:
                continue
            head = node.elts[0]
            if not (isinstance(head, ast.Constant)
                    and head.value in KIND_TAGS):
                continue
            rest = node.elts[1:]
            if not rest or all(isinstance(element, ast.Constant)
                               for element in rest):
                continue  # a membership test like ("row", "blk"), not a key
            if any(_mentions_version(element) for element in rest):
                continue
            yield self.violation(
                context, node,
                f"cache key tagged {head.value!r} has no graph-version "
                f"component")
