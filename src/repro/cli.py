"""Command-line interface for the MixQ-GNN reproduction.

Seven sub-commands cover the everyday workflows::

    python -m repro.cli search   --dataset cora --lambda 0.1 --out assignment.json
    python -m repro.cli train    --dataset cora --assignment assignment.json
    python -m repro.cli table    --name table3 --datasets cora
    python -m repro.cli export   --dataset cora --uniform-bits 8 --out artifact.npz
    python -m repro.cli predict  --artifact artifact.npz --dataset cora
    python -m repro.cli loadtest --dataset cora --qps 200 --duration 2
    python -m repro.cli streamtest --dataset cora --qps 200 --update-every 8

``search`` runs the differentiable bit-width search and stores the selected
assignment; ``train`` quantization-aware-trains a model from a stored (or
uniform) assignment and reports accuracy / bits / GBitOPs; ``table`` runs
one of the paper-table experiment runners at the quick scale and prints it;
``export`` QAT-trains and writes a self-contained integer deployment
artifact (npz + json sidecar); ``predict`` serves requests from a saved
artifact with integer arithmetic — full-graph or memory-bounded
neighbor-sampled blocks — and reports per-request latency and BitOPs;
``loadtest`` replays deterministic production-shaped traffic (zipfian seed
popularity, open- or closed-loop) against the async serving engine and
reports p50/p95/p99 latency, achieved vs offered QPS, SLO violations and
cache hit rate (see ``docs/benchmarks.md``); ``streamtest`` replays a
temporal trace — the same query stream with edge additions, feature
overwrites and edge removals interleaved — against a block session with
streaming updates and scoped cache invalidation enabled (see
``docs/streaming.md``).

Every sub-command accepts ``--conv`` from the six supported layer families
(gcn / sage / gin / gat / tag / transformer); the attention families run in
block mode through per-edge score plans, with ``--hops`` selecting the TAG
polynomial depth and ``--heads`` / ``--head-merge`` the multi-head
configuration of the GAT / Transformer layers (hidden layers merge by
``--head-merge``, the output layer averages its heads).  See
``docs/serving.md`` for the end-to-end export-then-predict guide and the
knob defaults.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.core.build import layer_dimensions
from repro.core.mixq import MixQNodeClassifier
from repro.core.search_space import conv_component_names
from repro.experiments.common import format_table
from repro.experiments.config import current_scale
from repro.experiments.results_io import load_assignment, save_assignment, save_mixq_result
from repro.graphs.datasets import NODE_DATASETS, load_node_dataset
from repro.quant.degree_quant import DegreeQuantizer, attach_degree_probabilities, \
    degree_quant_factory
from repro.quant.qmodules import (
    QuantNodeClassifier,
    default_quantizer_factory,
    uniform_assignment,
)


#: Every layer family the quantization + serving stack supports end to end.
CONV_CHOICES = ("gcn", "sage", "gin", "gat", "tag", "transformer")


def _add_common_model_arguments(parser: argparse.ArgumentParser,
                                convs: Sequence[str] = CONV_CHOICES) -> None:
    parser.add_argument("--dataset", default="cora", choices=sorted(NODE_DATASETS),
                        help="node-classification dataset stand-in "
                             "(default: cora)")
    parser.add_argument("--conv", default="gcn", choices=list(convs),
                        help="layer family to quantize (default: gcn)")
    parser.add_argument("--hidden", type=int, default=16,
                        help="hidden width (default: 16)")
    parser.add_argument("--layers", type=int, default=2,
                        help="number of layers (default: 2)")
    parser.add_argument("--hops", type=int, default=3,
                        help="adjacency powers per TAG layer; other families "
                             "ignore it (default: 3)")
    parser.add_argument("--heads", type=int, default=1,
                        help="attention heads per GAT / Transformer layer; "
                             "other families ignore it (default: 1)")
    parser.add_argument("--head-merge", default="concat",
                        choices=["concat", "mean"],
                        help="hidden-layer head merge; the output layer "
                             "always averages its heads (default: concat, "
                             "which needs --hidden divisible by --heads)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="dataset down-scaling factor (default: 0.2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    parser.add_argument("--degree-quant", action="store_true",
                        help="use Degree-Quant quantizers (MixQ + DQ)")


def _build_mixq(args, graph, lambda_value: float) -> MixQNodeClassifier:
    factory = degree_quant_factory() if args.degree_quant else default_quantizer_factory
    return MixQNodeClassifier(args.conv, graph.num_features, args.hidden,
                              graph.num_classes, num_layers=args.layers,
                              bit_choices=tuple(args.bits), lambda_value=lambda_value,
                              quantizer_factory=factory, hops=args.hops,
                              heads=args.heads, head_merge=args.head_merge,
                              seed=args.seed)


def _command_search(args) -> int:
    graph = load_node_dataset(args.dataset, scale=args.scale, seed=args.seed)
    mixq = _build_mixq(args, graph, args.lambda_value)
    result = mixq.search(graph, epochs=args.epochs)
    print(f"selected average bit-width: {result.average_bits:.2f}")
    for component, bits in sorted(result.assignment.items()):
        print(f"  {component:<28} {bits} bits")
    if args.out:
        save_assignment(result.assignment, args.out,
                        metadata={"dataset": args.dataset, "lambda": args.lambda_value,
                                  "conv": args.conv, "hidden": args.hidden,
                                  "layers": args.layers})
        print(f"assignment written to {args.out}")
    return 0


def _command_train(args) -> int:
    graph = load_node_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.assignment:
        assignment = load_assignment(args.assignment)
    else:
        assignment = uniform_assignment(
            conv_component_names(args.conv, args.layers, hops=args.hops),
            args.uniform_bits)
    mixq = _build_mixq(args, graph, lambda_value=0.0)
    result = mixq.fit(graph, train_epochs=args.epochs, assignment=assignment)
    print(f"test accuracy      : {result.accuracy:.3f}")
    print(f"average bit-width  : {result.average_bits:.2f}")
    print(f"GBitOPs            : {result.giga_bit_operations:.4f}")
    if args.out:
        save_mixq_result(result, args.out)
        print(f"result written to {args.out}")
    return 0


def _command_table(args) -> int:
    from repro.experiments import ablation, node_tables

    scale = current_scale()
    if args.datasets:
        datasets = tuple(args.datasets)
    else:
        # table7 runs on the large-scale stand-ins, not the citation graphs.
        datasets = ("reddit",) if args.name == "table7" else ("cora",)
    sampled = {"minibatch": args.minibatch, "fanout": args.fanout,
               "batch_size": args.batch_size}
    if args.minibatch and args.name not in ("table3", "table7"):
        print(f"note: --minibatch is only wired into table3/table7; "
              f"{args.name} runs full-batch", file=sys.stderr)
    if args.name == "table3":
        results = node_tables.table3_node_classification(datasets=datasets, scale=scale,
                                                         **sampled)
    elif args.name == "table6":
        results = node_tables.table6_graphsage(datasets=datasets, scale=scale)
    elif args.name == "table7":
        results = node_tables.table7_large_scale(datasets=datasets, scale=scale,
                                                 **sampled)
    elif args.name == "table10":
        results = ablation.table10_random_vs_mixq(datasets=datasets, scale=scale)
    else:
        raise ValueError(f"unknown table {args.name!r}")
    for dataset, rows in results.items():
        print(format_table(f"{args.name} — {dataset}", rows))
        print()
    return 0


def _train_for_export(dataset: str, conv: str, hidden: int, layers: int,
                      scale: float, seed: int, assignment, epochs: int,
                      lr: float, degree_quant: bool, hops: int = 3,
                      heads: int = 1, head_merge: str = "concat"):
    """The deterministic QAT run behind ``repro export``.

    Shared with the test suite so the in-memory fake-quantized reference the
    exported artifact must match can be reconstructed exactly.
    Returns ``(graph, model, test_accuracy)`` with the model in eval mode.
    """
    from repro.training.trainer import evaluate_node_classifier, train_node_classifier

    graph = load_node_dataset(dataset, scale=scale, seed=seed)
    factory = degree_quant_factory() if degree_quant else default_quantizer_factory
    model = QuantNodeClassifier.from_assignment(
        layer_dimensions(graph.num_features, hidden, graph.num_classes, layers),
        conv, assignment, quantizer_factory=factory, hops=hops,
        heads=heads, head_merge=head_merge,
        rng=np.random.default_rng(seed))
    if any(isinstance(module, DegreeQuantizer) for module in model.modules()):
        attach_degree_probabilities(model, graph)
    train_node_classifier(model, graph, epochs=epochs, lr=lr)
    model.eval()
    accuracy = evaluate_node_classifier(model, graph, graph.test_mask)
    return graph, model, accuracy


def _command_export(args) -> int:
    from repro.serving import QuantizedArtifact

    if args.assignment:
        assignment = load_assignment(args.assignment)
    else:
        assignment = uniform_assignment(
            conv_component_names(args.conv, args.layers, hops=args.hops),
            args.uniform_bits)
    graph, model, accuracy = _train_for_export(
        args.dataset, args.conv, args.hidden, args.layers, args.scale, args.seed,
        assignment, args.epochs, args.lr, args.degree_quant, hops=args.hops,
        heads=args.heads, head_merge=args.head_merge)

    artifact = QuantizedArtifact.from_model(model, metadata={
        "dataset": args.dataset, "scale": args.scale, "seed": args.seed,
        "hidden": args.hidden, "test_accuracy": float(accuracy),
        "heads": int(args.heads), "head_merge": args.head_merge,
        "degree_quant": bool(args.degree_quant)})
    npz_path, json_path = artifact.save(args.out)
    print(artifact.summary())
    print(f"test accuracy      : {accuracy:.3f}")
    print(f"average bit-width  : {artifact.metadata['average_bits']:.2f}")
    print(f"arrays written to  : {npz_path}")
    print(f"sidecar written to : {json_path}")
    return 0


def _build_block_session(artifact, graph, args, cache_bytes=None):
    """Block session of ``repro predict`` / ``repro loadtest``: the
    single-process :class:`BlockSession`, or — with ``--shards N`` —
    the bit-identical multi-process :class:`ShardedBlockSession`."""
    from repro.serving import BlockSession

    fanout = None if args.fanout <= 0 else args.fanout
    shards = getattr(args, "shards", 0)
    if shards > 1:
        from repro.sharding import ShardedBlockSession

        deadline = args.shard_deadline if args.shard_deadline > 0 else None
        return ShardedBlockSession(
            artifact, graph, shards=shards, partition=args.partition,
            fanouts=fanout, batch_size=args.batch_size, seed=args.seed,
            cache_size=args.cache_size, cache_bytes=cache_bytes,
            request_deadline_s=deadline)
    return BlockSession(artifact, graph, fanouts=fanout,
                        batch_size=args.batch_size, seed=args.seed,
                        cache_size=args.cache_size, cache_bytes=cache_bytes)


def _add_block_session_arguments(parser: argparse.ArgumentParser) -> None:
    """The block-session knobs ``predict``, ``loadtest`` and ``streamtest`` share."""
    parser.add_argument("--fanout", type=int, default=10,
                        help="neighbours sampled per hop in block mode "
                             "(default: 10; <= 0 keeps every neighbour, which "
                             "matches full-graph logits exactly; TAG layers "
                             "consume one hop per adjacency power)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="seed nodes per coalesced micro-batch — the "
                             "engine's max batch (default: 256)")
    parser.add_argument("--cache-size", type=int, default=0,
                        help="block-cache entries for block mode (default: 0 = "
                             "off); repeat/overlapping requests reuse sampled "
                             "receptive fields with bit-identical logits")
    parser.add_argument("--workers", type=int, default=1,
                        help="thread-pool width for micro-batches inside one "
                             "flush (default: 1 = synchronous)")


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """Every flag ``loadtest`` and ``streamtest`` share: what to serve, the
    query traffic, the block session and the engine."""
    parser.add_argument("--artifact", default="",
                        help="serve this `repro export` artifact; when "
                             "omitted, a small uniform-bits model is "
                             "QAT-trained in memory first")
    parser.add_argument("--dataset", default="cora", choices=sorted(NODE_DATASETS),
                        help="graph to serve against (default: cora)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="dataset down-scaling factor (default: 0.2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset / sampler / training seed (default: 0)")
    parser.add_argument("--conv", default="gcn", choices=list(CONV_CHOICES),
                        help="layer family of the in-memory model "
                             "(default: gcn; ignored with --artifact)")
    parser.add_argument("--hidden", type=int, default=16,
                        help="hidden width of the in-memory model (default: 16)")
    parser.add_argument("--layers", type=int, default=2,
                        help="layers of the in-memory model (default: 2)")
    parser.add_argument("--uniform-bits", type=int, default=8,
                        help="bit-width of the in-memory model (default: 8)")
    parser.add_argument("--train-epochs", type=int, default=3,
                        help="QAT epochs of the in-memory model (default: 3)")
    parser.add_argument("--pattern", default="zipfian",
                        choices=["zipfian", "uniform"],
                        help="seed-popularity law (default: zipfian)")
    parser.add_argument("--skew", type=float, default=1.1,
                        help="zipfian exponent; 0 degenerates to uniform "
                             "(default: 1.1)")
    parser.add_argument("--arrival", default="poisson",
                        choices=["poisson", "fixed"],
                        help="open-loop arrival process (default: poisson)")
    parser.add_argument("--qps", type=float, default=200.0,
                        help="offered request rate (default: 200)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="trace length in seconds; request count is "
                             "qps * duration unless --requests pins it "
                             "(default: 1.0)")
    parser.add_argument("--requests", type=int, default=0,
                        help="explicit request count (default: 0 = derive "
                             "from --qps and --duration)")
    parser.add_argument("--seeds-per-request", type=int, default=8,
                        help="distinct seed nodes per request (default: 8)")
    parser.add_argument("--warmup", type=int, default=16,
                        help="requests / events served (then discarded, stats "
                             "reset) before the measured window (default: 16)")
    parser.add_argument("--deadline-ms", type=float, default=50.0,
                        help="per-request latency SLO in milliseconds "
                             "(default: 50)")
    parser.add_argument("--traffic-seed", type=int, default=0,
                        help="trace generator seed — same seed, same "
                             "trace, bit for bit (default: 0)")
    _add_block_session_arguments(parser)


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.graphs.partition import PARTITION_STRATEGIES

    parser.add_argument("--shards", type=int, default=0,
                        help="serve block mode from this many worker "
                             "processes (default: 0 = single process); "
                             "sharded logits are bit-identical to "
                             "single-process serving")
    parser.add_argument("--partition", default="hash",
                        choices=list(PARTITION_STRATEGIES),
                        help="graph partition strategy for --shards "
                             "(default: hash)")
    parser.add_argument("--shard-deadline", type=float, default=0.0,
                        help="per-chunk deadline in seconds with --shards; "
                             "an overrun kills and restarts the worker and "
                             "fails only that request (default: 0 = none)")


def _command_predict(args) -> int:
    from repro.serving import FullGraphSession, QuantizedArtifact, ServingEngine

    graph = load_node_dataset(args.dataset, scale=args.scale, seed=args.seed)
    artifact = QuantizedArtifact.load(args.artifact)
    if artifact.num_features != graph.num_features:
        print(f"artifact expects {artifact.num_features} features but "
              f"{args.dataset} (scale {args.scale}) has {graph.num_features}; "
              f"pass the export-time --dataset/--scale/--seed", file=sys.stderr)
        return 1

    if args.mode == "full":
        session = FullGraphSession(artifact, graph)
        if args.cache_size:
            print("note: --cache-size only applies to block mode",
                  file=sys.stderr)
        if args.shards > 1:
            print("note: --shards only applies to block mode",
                  file=sys.stderr)
    else:
        cache_bytes = int(args.cache_mb * 1e6) if args.cache_mb > 0 else None
        session = _build_block_session(artifact, graph, args,
                                       cache_bytes=cache_bytes)

    if args.nodes:
        nodes = np.asarray(args.nodes, dtype=np.int64)
    elif args.split == "all" or getattr(graph, f"{args.split}_mask") is None:
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
    else:
        nodes = np.flatnonzero(getattr(graph, f"{args.split}_mask"))
    if nodes.size == 0:
        print("no nodes to predict", file=sys.stderr)
        getattr(session, "close", lambda: None)()
        return 1

    engine = ServingEngine(session, max_batch_size=args.batch_size,
                           workers=args.workers)
    try:
        num_requests = min(max(1, args.requests), nodes.size)
        results = []
        for _ in range(max(1, args.repeat)):
            for chunk in np.array_split(nodes, num_requests):
                engine.submit(chunk)
            results = engine.flush()
        cache_stats = getattr(session, "cache_stats", lambda: None)()
    finally:
        engine.close()
        getattr(session, "close", lambda: None)()

    mode = args.mode if args.shards <= 1 or args.mode == "full" \
        else f"{args.mode}[{args.shards}x{args.partition}]"
    print(f"{artifact.summary()}  mode={mode}  "
          f"backend={session.backend_name}")
    print(f"{'request':>8} {'nodes':>6} {'latency ms':>11} {'GBitOPs':>9}")
    for result in results:
        print(f"{result.request_id:>8} {result.nodes.shape[0]:>6} "
              f"{result.latency_seconds * 1e3:>11.2f} "
              f"{result.giga_bit_operations:>9.4f}")
    stats = engine.stats
    print(f"served {stats.nodes} nodes in {stats.requests} requests / "
          f"{stats.micro_batches} micro-batches "
          f"({stats.throughput():.0f} nodes/s, "
          f"{stats.giga_bit_operations:.4f} GBitOPs, "
          f"workers={args.workers})")
    if cache_stats is not None:
        print(f"block cache: {cache_stats.hits} hits / "
              f"{cache_stats.misses} misses "
              f"(hit rate {cache_stats.hit_rate():.1%}), "
              f"{cache_stats.entries} entries / "
              f"{cache_stats.bytes / 1e6:.2f} MB, "
              f"{cache_stats.evictions} evictions")

    logits = np.concatenate([result.logits for result in results], axis=0)
    classes = logits.argmax(axis=1)
    if graph.y is not None and graph.y.ndim == 1:
        accuracy = float((classes == graph.y[nodes]).mean())
        print(f"accuracy on served nodes: {accuracy:.3f}")
    if args.out:
        np.savez(args.out, nodes=nodes, logits=logits, classes=classes)
        print(f"logits written to {args.out}")
    return 0


def _loadtest_session(args):
    """(graph, session) for the load test: saved artifact or quick QAT."""
    from repro.serving import QuantizedArtifact

    if args.artifact:
        graph = load_node_dataset(args.dataset, scale=args.scale, seed=args.seed)
        artifact = QuantizedArtifact.load(args.artifact)
        if artifact.num_features != graph.num_features:
            raise SystemExit(
                f"artifact expects {artifact.num_features} features but "
                f"{args.dataset} (scale {args.scale}) has "
                f"{graph.num_features}; pass the export-time "
                f"--dataset/--scale/--seed")
    else:
        assignment = uniform_assignment(
            conv_component_names(args.conv, args.layers, hops=3),
            args.uniform_bits)
        graph, model, _ = _train_for_export(
            args.dataset, args.conv, args.hidden, args.layers, args.scale,
            args.seed, assignment, args.train_epochs, 0.01, False)
        artifact = QuantizedArtifact.from_model(model)

    return graph, _build_block_session(artifact, graph, args)


def _report_load(args, run, metrics: dict, session, header: str) -> None:
    """Print one replay's latency / QPS / SLO report."""
    print(header)
    print(f"{'offered QPS':>18} {run.offered_qps:>10.1f}")
    print(f"{'achieved QPS':>18} {run.achieved_qps:>10.1f}")
    for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms", "mean_ms"):
        print(f"{key:>18} {metrics[key]:>10.2f}")
    print(f"{'SLO violations':>18} {metrics['slo_violation_rate']:>10.1%} "
          f"(deadline {args.deadline_ms:.0f} ms)")
    print(f"{'failure rate':>18} {metrics['failure_rate']:>10.1%}")
    print(f"{'cache hit rate':>18} {metrics['cache_hit_rate']:>10.1%}")
    print(f"{'micro-batches':>18} {run.micro_batches:>10} "
          f"({run.nodes} seed nodes, {run.giga_bit_operations:.4f} GBitOPs, "
          f"workers={args.workers}, conv={session.artifact.conv_type}, "
          f"backend={session.backend_name})")


def _command_loadtest(args) -> int:
    from repro.loadgen import TrafficConfig, generate_trace, metrics_from_run, \
        run_load
    from repro.serving import AsyncServingEngine

    graph, session = _loadtest_session(args)
    config = TrafficConfig(
        num_nodes=graph.num_nodes, pattern=args.pattern, skew=args.skew,
        seeds_per_request=min(args.seeds_per_request, graph.num_nodes),
        arrival=args.arrival, qps=args.qps,
        duration_seconds=args.duration,
        num_requests=args.requests if args.requests > 0 else None,
        seed=args.traffic_seed)
    trace = generate_trace(config)

    try:
        with AsyncServingEngine(session, max_batch=args.batch_size,
                                workers=args.workers) as engine:
            run = run_load(engine, trace, mode=args.mode, clients=args.clients,
                           warmup_requests=args.warmup)
        metrics = metrics_from_run(run, deadline_ms=args.deadline_ms)
    finally:
        getattr(session, "close", lambda: None)()

    _report_load(
        args, run, metrics, session,
        header=f"loadtest: {args.pattern} traffic (skew {args.skew}), "
               f"{args.mode} loop, {run.requests} measured requests x "
               f"{config.seeds_per_request} seeds "
               f"(+{trace.num_requests - run.requests} warm-up)")
    return 0


def _command_streamtest(args) -> int:
    from repro.loadgen import TemporalConfig, TrafficConfig, \
        generate_temporal_trace, metrics_from_stream, run_stream
    from repro.serving import AsyncServingEngine

    graph, session = _loadtest_session(args)
    if not session.supports_updates:
        raise SystemExit("streamtest needs a session that supports streaming "
                         "updates; sharded serving (--shards > 1) does not")
    traffic = TrafficConfig(
        num_nodes=graph.num_nodes, pattern=args.pattern, skew=args.skew,
        seeds_per_request=min(args.seeds_per_request, graph.num_nodes),
        arrival=args.arrival, qps=args.qps,
        duration_seconds=args.duration,
        num_requests=args.requests if args.requests > 0 else None,
        seed=args.traffic_seed)
    config = TemporalConfig(
        traffic=traffic, update_every=args.update_every,
        edges_per_update=args.edges_per_update,
        feature_nodes_per_update=args.feature_nodes,
        num_features=graph.num_features, seed=args.update_seed)
    trace = generate_temporal_trace(config)

    try:
        with AsyncServingEngine(session, max_batch=args.batch_size,
                                workers=args.workers) as engine:
            result = run_stream(engine, trace, warmup_events=args.warmup)
        metrics = metrics_from_stream(result, deadline_ms=args.deadline_ms)
    finally:
        getattr(session, "close", lambda: None)()

    run = result.load
    _report_load(
        args, run, metrics, session,
        header=f"streamtest: {args.pattern} traffic (skew {args.skew}), "
               f"{run.requests} measured queries x {traffic.seeds_per_request} "
               f"seeds, {result.updates} updates "
               f"(every {args.update_every} queries), "
               f"final graph version {result.final_version}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    search = subparsers.add_parser("search", help="run the MixQ bit-width search")
    _add_common_model_arguments(search)
    search.add_argument("--lambda", dest="lambda_value", type=float, default=0.1,
                        help="penalty weight λ")
    search.add_argument("--bits", type=int, nargs="+", default=[2, 4, 8],
                        help="candidate bit-widths B")
    search.add_argument("--epochs", type=int, default=60, help="search epochs")
    search.add_argument("--out", default="", help="write the assignment to this JSON file")
    search.set_defaults(handler=_command_search)

    train = subparsers.add_parser("train", help="QAT-train a quantized model")
    _add_common_model_arguments(train)
    train.add_argument("--assignment", default="",
                       help="JSON assignment produced by the search command")
    train.add_argument("--uniform-bits", type=int, default=8,
                       help="uniform bit-width when no assignment file is given")
    train.add_argument("--bits", type=int, nargs="+", default=[2, 4, 8],
                       help="candidate bit-widths (metadata only)")
    train.add_argument("--epochs", type=int, default=100, help="training epochs")
    train.add_argument("--out", default="", help="write the run summary to this JSON file")
    train.set_defaults(handler=_command_train)

    table = subparsers.add_parser("table", help="print one of the paper tables")
    table.add_argument("--name", default="table3",
                       choices=["table3", "table6", "table7", "table10"])
    table.add_argument("--datasets", nargs="+", default=None,
                       help="defaults to cora (table7: reddit)")
    table.add_argument("--minibatch", action="store_true",
                       help="train with neighbor-sampled minibatches "
                            "(table3/table7 runners)")
    table.add_argument("--fanout", type=int, default=10,
                       help="neighbours sampled per layer in minibatch mode "
                            "(<= 0 means unlimited)")
    table.add_argument("--batch-size", type=int, default=256,
                       help="seed nodes per minibatch step")
    table.set_defaults(handler=_command_table)

    export = subparsers.add_parser(
        "export", help="QAT-train and export an integer serving artifact",
        description="Quantization-aware-train a model from a stored (or uniform) "
                    "bit-width assignment and export the integer deployment "
                    "artifact (npz + json sidecar) consumed by `repro predict`. "
                    "Attention families (gat/tag/transformer) export per-edge "
                    "score plans servable in block mode.")
    _add_common_model_arguments(export)
    export.add_argument("--assignment", default="",
                        help="JSON assignment produced by the search command")
    export.add_argument("--uniform-bits", type=int, default=8,
                        help="uniform bit-width when no assignment file is given "
                             "(default: 8)")
    export.add_argument("--epochs", type=int, default=100,
                        help="QAT training epochs (default: 100)")
    export.add_argument("--lr", type=float, default=0.01,
                        help="QAT learning rate (default: 0.01)")
    export.add_argument("--out", required=True,
                        help="artifact path; writes <out>.npz and <out>.json")
    export.set_defaults(handler=_command_export)

    predict = subparsers.add_parser(
        "predict", help="serve integer predictions from a saved artifact",
        description="Load a `repro export` artifact and serve seed-node requests "
                    "with integer arithmetic.  The default block mode samples each "
                    "request's receptive field (never materialising the full "
                    "adjacency); full mode runs the classic whole-graph engine.")
    predict.add_argument("--artifact", required=True,
                         help="artifact path written by `repro export`")
    predict.add_argument("--dataset", default="cora", choices=sorted(NODE_DATASETS),
                         help="graph to serve against (default: cora; must match "
                              "the export-time dataset/scale/seed)")
    predict.add_argument("--scale", type=float, default=0.2,
                         help="dataset down-scaling factor (default: 0.2)")
    predict.add_argument("--seed", type=int, default=0,
                         help="dataset / sampler random seed (default: 0)")
    predict.add_argument("--mode", default="block", choices=["block", "full"],
                         help="serving backend (default: block)")
    _add_block_session_arguments(predict)
    predict.add_argument("--nodes", type=int, nargs="+", default=None,
                         help="explicit seed node ids to serve")
    predict.add_argument("--split", default="test",
                         choices=["train", "val", "test", "all"],
                         help="serve this node split when --nodes is not given "
                              "(default: test)")
    predict.add_argument("--requests", type=int, default=1,
                         help="split the served nodes into this many requests to "
                              "exercise coalescing (default: 1)")
    predict.add_argument("--cache-mb", type=float, default=256.0,
                         help="byte budget in MB for the --cache-size cache "
                              "(default: 256; <= 0 means entry-bounded only; "
                              "no effect unless --cache-size > 0) — "
                              "whole-batch entries hold the sampled blocks "
                              "of a whole receptive field, so diverse "
                              "traffic needs a byte bound too")
    _add_sharding_arguments(predict)
    predict.add_argument("--repeat", type=int, default=1,
                         help="serve the request set this many times (warms the "
                              "block cache; stats accumulate; default: 1)")
    predict.add_argument("--out", default="",
                         help="write served nodes/logits/classes to this npz file")
    predict.set_defaults(handler=_command_predict)

    loadtest = subparsers.add_parser(
        "loadtest", help="replay production-shaped traffic against the "
                         "async serving engine",
        description="Generate a deterministic, seeded traffic trace (zipfian "
                    "or uniform seed popularity; Poisson or fixed-rate "
                    "open-loop arrivals, or closed-loop N-client replay), "
                    "drive it through AsyncServingEngine over a block "
                    "session, and report p50/p95/p99/max latency, achieved "
                    "vs offered QPS, SLO-violation rate and cache hit rate "
                    "(see docs/benchmarks.md).")
    _add_serving_arguments(loadtest)
    loadtest.add_argument("--mode", default="open", choices=["open", "closed"],
                          help="open-loop (submit at scheduled arrivals) or "
                               "closed-loop (N clients back-to-back) replay "
                               "(default: open)")
    loadtest.add_argument("--clients", type=int, default=4,
                          help="client threads in closed-loop mode "
                               "(default: 4)")
    _add_sharding_arguments(loadtest)
    loadtest.set_defaults(handler=_command_loadtest)

    streamtest = subparsers.add_parser(
        "streamtest", help="replay interleaved graph updates and queries "
                           "against the async serving engine",
        description="Generate a deterministic temporal trace — the loadtest "
                    "query stream with edge additions, feature overwrites "
                    "and edge removals interleaved every N queries — and "
                    "replay it open-loop through AsyncServingEngine over a "
                    "block session with streaming updates enabled.  Reports "
                    "the loadtest latency/QPS/SLO metrics plus the applied "
                    "update count and failure rate (see docs/streaming.md).")
    _add_serving_arguments(streamtest)
    streamtest.add_argument("--update-every", type=int, default=8,
                            help="one update event per this many queries; "
                                 "0 disables updates (default: 8)")
    streamtest.add_argument("--edges-per-update", type=int, default=4,
                            help="edges added/removed per edge update "
                                 "(default: 4)")
    streamtest.add_argument("--feature-nodes", type=int, default=2,
                            help="feature rows overwritten per feature "
                                 "update (default: 2)")
    streamtest.add_argument("--update-seed", type=int, default=0,
                            help="update generator seed, independent of "
                                 "--traffic-seed (default: 0)")
    streamtest.set_defaults(handler=_command_streamtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
