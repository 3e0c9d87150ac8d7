"""reprolint: every rule catches its seeded violation, and the tree is clean.

Three layers of coverage:

* **fixtures** — for each rule RL01–RL04, a minimal positive (the rule
  fires), a minimal negative (the blessed pattern passes) and a
  suppression (``# reprolint: disable=RLxx`` silences exactly that rule);
* **self-check** — the shipped ``src`` / ``tests`` / ``benchmarks`` /
  ``examples`` trees lint clean, so CI's lint step cannot rot silently;
* **static/dynamic agreement** — the RL03 lock-order graph is
  cross-checked against a runtime lock-sanitizer trace of the real cache
  stack under concurrency.
"""

import ast
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import ALL_RULES, RULES_BY_ID, analyze_source  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.rules.rl03_locks import (  # noqa: E402
    build_lock_order_graph,
    find_cycle,
)
from tools.reprolint.sanitizer import LockSanitizer  # noqa: E402

from repro.cache import BlockCache  # noqa: E402


def lint(source, rules=None, path="fixture.py"):
    return analyze_source(textwrap.dedent(source), rules or ALL_RULES,
                          Path(path))


def rule_ids(violations):
    return [violation.rule for violation in violations]


# --------------------------------------------------------------------- #
# RL01 — determinism
# --------------------------------------------------------------------- #
class TestDeterminismRule:
    def test_global_numpy_rng_flagged(self):
        violations = lint("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert rule_ids(violations) == ["RL01"]

    def test_global_seed_call_flagged(self):
        violations = lint("""
            import numpy as np
            np.random.seed(0)
        """)
        assert rule_ids(violations) == ["RL01"]

    def test_stdlib_global_random_flagged(self):
        violations = lint("""
            import random
            choice = random.choice([1, 2, 3])
        """)
        assert rule_ids(violations) == ["RL01"]

    def test_wall_clock_seed_flagged(self):
        violations = lint("""
            import time
            import numpy as np
            rng = np.random.default_rng(int(time.time()))
        """)
        assert rule_ids(violations) == ["RL01"]

    def test_seeded_generator_passes(self):
        violations = lint("""
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.standard_normal(3)
        """)
        assert violations == []

    def test_suppression_silences_the_line(self):
        violations = lint("""
            import numpy as np
            x = np.random.rand(3)  # reprolint: disable=RL01
        """)
        assert violations == []


# --------------------------------------------------------------------- #
# RL02 — integer-path purity
# --------------------------------------------------------------------- #
class TestIntegerPurityRule:
    def test_true_division_on_integer_path_flagged(self):
        violations = lint("""
            import numpy as np

            def quantized_spmm(values, x):
                accumulator = x.astype(np.int64)
                return accumulator / 3
        """)
        assert rule_ids(violations) == ["RL02"]
        assert "true division" in violations[0].message

    def test_implicit_promotion_flagged(self):
        violations = lint("""
            import numpy as np

            def quantized_spmm(values, x):
                accumulator = x.astype(np.int64)
                return accumulator * 0.5
        """)
        assert rule_ids(violations) == ["RL02"]
        assert "promotion" in violations[0].message

    def test_narrowing_float_cast_flagged(self):
        violations = lint("""
            import numpy as np

            def quantized_edge_spmm(values, x):
                accumulator = x.astype(np.int64)
                return accumulator.astype(np.float32)
        """)
        assert rule_ids(violations) == ["RL02"]
        assert "narrowing" in violations[0].message

    def test_explicit_float64_exit_passes(self):
        violations = lint("""
            import numpy as np

            def quantized_spmm(values, x):
                accumulator = x.astype(np.int64)
                main = accumulator.sum(axis=0)
                return main.astype(np.float64) / 3
        """)
        assert violations == []

    def test_marker_opts_helper_into_the_walk(self):
        violations = lint("""
            import numpy as np

            # reprolint: integer-stage
            def _aggregate(x):
                counts = np.zeros(4, dtype=np.int64)
                return counts / 2
        """)
        assert rule_ids(violations) == ["RL02"]

    def test_unmarked_helper_is_not_a_stage(self):
        violations = lint("""
            import numpy as np

            def unrelated(x):
                counts = np.zeros(4, dtype=np.int64)
                return counts / 2
        """)
        assert violations == []

    def test_suppression(self):
        violations = lint("""
            import numpy as np

            def quantized_spmm(values, x):
                accumulator = x.astype(np.int64)
                return accumulator / 3  # reprolint: disable=RL02
        """)
        assert violations == []


class TestServingIntegerStages:
    """RL02 walks the serving executor's integer aggregation ops and every
    Theorem-1 kernel the backends define.

    A clean tree proves nothing if a stage lost its marker, so each op is
    seeded with an integer true division in a copy of the real source
    file, and RL02 must flag every seed.
    """

    SOURCE = REPO_ROOT / "src" / "repro"
    KERNELS = ("spmm", "edge_spmm")

    @staticmethod
    def _flagged_seeds(path, functions):
        """Seed every listed function's body and lint the copy: the
        ``(seeded, flagged)`` seed names."""
        source = path.read_text()
        lines = source.splitlines()
        seeds = {}
        for node in sorted(functions, key=lambda node: -node.lineno):
            first = node.body[0]
            seed = f"_seed_{node.name}_{node.lineno}"
            seeds[seed] = node.name
            lines.insert(first.lineno - 1, " " * first.col_offset
                         + f"{seed} = np.zeros(1, dtype=np.int64) / 2")
        violations = lint("\n".join(lines), rules=[RULES_BY_ID["RL02"]],
                          path=path)
        flagged = {lines[violation.line - 1].split("=")[0].strip()
                   for violation in violations}
        return seeds, flagged

    def test_executor_aggregate_ops_are_stages(self):
        path = self.SOURCE / "serving" / "session.py"
        executor = next(node for node in ast.parse(path.read_text()).body
                        if isinstance(node, ast.ClassDef)
                        and node.name == "IntegerExecutor")
        stages = [node for node in executor.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("aggregate", "attend")]
        seeds, flagged = self._flagged_seeds(path, stages)
        assert sorted(seeds.values()) == ["aggregate", "attend"]
        assert flagged == set(seeds)

    @pytest.mark.parametrize("module", ["numpy_backend", "vectorized"])
    def test_kernel_aggregations_are_stages(self, module):
        path = self.SOURCE / "kernels" / f"{module}.py"
        kernels = [node for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and node.name in self.KERNELS]
        seeds, flagged = self._flagged_seeds(path, kernels)
        assert sorted(seeds.values()) == sorted(self.KERNELS)
        assert flagged == set(seeds)


# --------------------------------------------------------------------- #
# RL03 — lock discipline
# --------------------------------------------------------------------- #
class TestLockDisciplineRule:
    def test_unlocked_access_to_guarded_attribute_flagged(self):
        violations = lint("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0  # guarded-by: self._lock

                def bump(self):
                    self._hits += 1
        """)
        assert rule_ids(violations) == ["RL03"]
        assert "_hits" in violations[0].message

    def test_locked_access_passes(self):
        violations = lint("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0  # guarded-by: self._lock

                def bump(self):
                    with self._lock:
                        self._hits += 1
        """)
        assert violations == []

    def test_requires_lock_annotation_trusted(self):
        violations = lint("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0  # guarded-by: self._lock

                def _bump_locked(self):  # requires-lock: self._lock
                    self._hits += 1

                def bump(self):
                    with self._lock:
                        self._bump_locked()
        """)
        assert violations == []

    def test_nested_callable_does_not_inherit_the_lock(self):
        violations = lint("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0  # guarded-by: self._lock

                def deferred(self):
                    with self._lock:
                        def callback():
                            return self._hits
                        return callback
        """)
        assert rule_ids(violations) == ["RL03"]

    def test_acquisition_order_cycle_flagged(self):
        violations = lint("""
            class Worker:
                def one(self):
                    with self._lock_a:
                        with self._lock_b:
                            pass

                def two(self):
                    with self._lock_b:
                        with self._lock_a:
                            pass
        """)
        assert rule_ids(violations) == ["RL03"]
        assert "cycle" in violations[0].message

    def test_consistent_order_passes(self):
        violations = lint("""
            class Worker:
                def one(self):
                    with self._lock_a:
                        with self._lock_b:
                            pass

                def two(self):
                    with self._lock_a:
                        with self._lock_b:
                            pass
        """)
        assert violations == []


# --------------------------------------------------------------------- #
# RL04 — API hygiene
# --------------------------------------------------------------------- #
class TestApiHygieneRule:
    def test_version_literal_outside_artifact_module_flagged(self):
        violations = lint("""
            payload["format_version"] = 3
        """)
        assert rule_ids(violations) == ["RL04"]

    def test_artifact_module_owns_its_version(self):
        violations = lint("""
            FORMAT_VERSION = 3
        """, path="src/repro/serving/artifact.py")
        assert violations == []

    def test_file_level_suppression(self):
        violations = lint("""
            # reprolint: disable-file=RL04
            payload["format_version"] = 3
        """)
        assert violations == []


# --------------------------------------------------------------------- #
# RL05 — cache-key versioning
# --------------------------------------------------------------------- #
class TestCacheKeyVersionRule:
    def test_versionless_key_flagged(self):
        violations = lint("""
            def key(node, fanout, hop, epoch):
                return ("blk", node, fanout, hop, epoch)
        """)
        assert rule_ids(violations) == ["RL05"]
        assert "graph-version" in violations[0].message

    def test_row_version_component_passes(self):
        violations = lint("""
            def key(node, version):
                return ("row", int(node), int(version))
        """)
        assert violations == []

    def test_region_tag_component_flagged(self):
        """Only a ``*version*`` identifier counts: a tag is not a version."""
        violations = lint("""
            def key(seeds, fanouts, epoch, region_tag):
                return ("bat", seeds.tobytes(), tuple(fanouts), epoch,
                        region_tag)
        """)
        assert rule_ids(violations) == ["RL05"]

    def test_graph_version_component_passes(self):
        violations = lint("""
            def key(seeds, fanouts, epoch, graph):
                return ("bat", seeds.tobytes(), tuple(fanouts), epoch,
                        graph.version)
        """)
        assert violations == []

    def test_membership_tuple_is_not_a_key(self):
        violations = lint("""
            def is_row_shaped(key):
                return key[0] in ("row", "blk")
        """)
        assert violations == []

    def test_line_suppression(self):
        violations = lint("""
            def key(node):
                return ("row", node)  # reprolint: disable=RL05
        """)
        assert violations == []


# --------------------------------------------------------------------- #
# suppression hygiene + CLI + self-check
# --------------------------------------------------------------------- #
class TestSuppressionsAndCli:
    def test_unknown_rule_id_in_suppression_is_reported(self):
        violations = lint("""
            x = 1  # reprolint: disable=RL99
        """)
        assert rule_ids(violations) == ["RL00"]

    def test_suppressing_one_rule_keeps_the_other(self):
        violations = lint("""
            import numpy as np
            payload["format_version"] = 3
            x = np.random.rand(3)  # reprolint: disable=RL01
        """)
        assert rule_ids(violations) == ["RL04"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\n"
                         "rng = np.random.default_rng(0)\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\n"
                         "x = np.random.rand(3)\n")
        assert reprolint_main([str(clean)]) == 0
        assert reprolint_main([str(dirty)]) == 1
        output = capsys.readouterr()
        assert "RL01" in output.out
        assert "hint:" in output.out
        assert reprolint_main([str(tmp_path / "missing.py")]) == 2
        assert reprolint_main(["--rules", "RL99", str(clean)]) == 2

    def test_rules_filter(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\n"
                         "x = np.random.rand(3)\n")
        assert reprolint_main(["--rules", "RL04", str(dirty)]) == 0
        assert reprolint_main(["--rules", "RL01", str(dirty)]) == 1

    def test_rule_registry_is_complete(self):
        assert sorted(RULES_BY_ID) == ["RL01", "RL02", "RL03", "RL04",
                                       "RL05"]

    def test_shipped_tree_is_clean(self):
        targets = [str(REPO_ROOT / name)
                   for name in ("src", "tests", "benchmarks", "examples")
                   if (REPO_ROOT / name).exists()]
        assert reprolint_main(targets) == 0


# --------------------------------------------------------------------- #
# RL03 static graph vs. runtime lock-sanitizer trace
# --------------------------------------------------------------------- #
class TestLockSanitizerCrossCheck:
    def _instrumented_cache(self, sanitizer):
        cache = BlockCache(max_entries=512)
        cache._lock = sanitizer.wrap("BlockCache.self._lock", cache._lock)
        cache._lru._lock = sanitizer.wrap("LRUCache.self._lock",
                                          cache._lru._lock)
        return cache

    def _hammer(self, cache, worker_seed):
        rng = np.random.default_rng(worker_seed)
        rows = [(np.arange(3, dtype=np.int64),
                 np.ones(3, dtype=np.float64))] * 8
        for _ in range(40):
            nodes = rng.integers(0, 64, size=8)
            cache.put_raw_rows([int(node) for node in nodes], rows)
            cache.get_rows(nodes.astype(np.int64), fanout=2, hop=0, epoch=0)
            cache.get_batch(nodes.astype(np.int64), (2,), 0)
            cache.stats()

    def test_runtime_edges_agree_with_static_graph(self):
        static = build_lock_order_graph(
            [REPO_ROOT / "src" / "repro" / "cache",
             REPO_ROOT / "src" / "repro" / "serving"])
        static_edges = {(source, target)
                        for source, targets in static.items()
                        for target in targets}

        sanitizer = LockSanitizer()
        cache = self._instrumented_cache(sanitizer)
        workers = [threading.Thread(target=self._hammer,
                                    args=(cache, seed))
                   for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        observed = sanitizer.edges()
        # The static analysis over-approximates the dynamic behaviour: any
        # runtime edge outside the static graph is a path RL03 missed.
        assert observed <= static_edges
        # ... and the nested acquisition in BlockCache.get_rows really runs.
        assert ("BlockCache.self._lock", "LRUCache.self._lock") in observed
        # Both views must be deadlock-free.
        assert find_cycle(static) is None
        assert sanitizer.find_cycle() is None
