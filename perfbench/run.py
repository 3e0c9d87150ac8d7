#!/usr/bin/env python3
"""perfbench — the serving benchmark.

One workload, as the benchmark driver calls it (last stdout line is the
result object)::

    python3 perfbench/run.py --workload zipf_open --seed 3 --seconds 12 --trace 0

The whole suite, each workload in a fresh child process, one at a time,
every metric printed by name with its unit::

    python3 perfbench/run.py [--seed N] [--seconds S] [--traced] [--smoke]
    python3 perfbench/run.py --calibrate 10 [--out perfbench/baseline.json]

``--trace 0`` measures the end-to-end metrics with no instrumentation at
all; ``--trace 1`` replays the same workload with spans recorded from
outside the program and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SMOKE_SECONDS = 2.0

Metric = Tuple[float, str]


def declared() -> dict:
    return json.loads((fixtures.ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# process accounting (no psutil in the image: /proc directly)
# --------------------------------------------------------------------------- #
def _status_kb(pid, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (shard workers).

    A sum of per-process high-water marks: pages a forked worker still
    shares with its parent are counted in both, so this over-states a
    sharded tree by the shared part — consistently, which is what a
    regression bound needs.
    """
    pids = ["self"] + [child.pid for child in
                       multiprocessing.active_children()]
    return sum(_status_kb(pid, "VmHWM:") for pid in pids) / 1024.0


def tree_cpu_seconds() -> float:
    """User+system CPU seconds of this process plus its live children."""
    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / ticks
        except (OSError, IndexError, ValueError):
            pass
    return total


def surviving_descendants() -> List[int]:
    """Pids whose parent is this process (there must be none at exit)."""
    me = os.getpid()
    survivors = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            survivors.append(int(entry))
    return survivors


def provenance(seed: int, backend: str) -> dict:
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=fixtures.ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "backend": backend, "seed": seed}


# --------------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------------- #
def end_to_end(spec, window, records, setup_s: float) -> Dict[str, Metric]:
    """The end-to-end metrics of one untraced window, read at the
    workload's reference: the reference ladder step of an open loop, every
    request of a closed one."""
    chosen = window.step(spec.reference_qps) or slice(None)
    answered = records.latencies_ms()[chosen][~records.failed[chosen]]
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (float(np.percentile(answered, 50)), "ms"),
        "p95_ms": (float(np.percentile(answered, 95)), "ms"),
        "goodput_qps": (records.goodput_qps(spec.deadline_ms, chosen), "1/s"),
        "peak_rss_mb": (tree_peak_rss_mb(), "MB"),
    }


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #
def measure(spec, engine, window, seconds: float) -> "replay.Records":
    if spec.loop == "closed":
        return replay.closed_loop(engine, window.requests, spec.clients,
                                  seconds)
    return replay.open_loop(engine, window.requests, window.arrivals,
                            window.updates)


def run_workload(spec, seed: int, seconds: float, traced: bool, smoke: bool,
                 trace_out: Optional[str]) -> Tuple[dict, dict]:
    """Run one workload here.  Returns ``(result object, provenance)``."""
    fixtures.import_program()
    loaded = fixtures.load(smoke=smoke)
    scale = 0.2 if smoke else 1.0
    # A traced run splits its seconds: an untraced window (the base of
    # proc.trace_overhead_ratio), then the traced one.
    window_s = seconds / 2 if traced else seconds
    inputs = workloads.build_inputs(
        spec, loaded.num_nodes, loaded.arrays["x"].shape[1], seed, window_s,
        windows=2 if traced else 1, warmup_scale=scale)
    # The trace is the harness's, not the program's: keep its thousands of
    # small arrays out of every later GC pass so collector pauses during
    # the window are the program's own.
    gc.collect()
    gc.freeze()

    recorder = backend = None
    if traced:
        import layers

        recorder, backend = layers.make_recorder(spec)

    setup_seconds = []
    session = engine = None
    for _ in range(2 if smoke or traced else SETUP_REPEATS):
        if engine is not None:
            workloads.tear_down(session, engine)
        session, engine, elapsed = workloads.set_up(spec, loaded, backend)
        setup_seconds.append(elapsed)
    setup_s = statistics.median(setup_seconds)

    try:
        replay.warm_up(engine, inputs.warmup, spec.clients,
                       workloads.WARMUP_SECONDS * scale,
                       inputs.warmup_updates)
        all_records = [measure(spec, engine, inputs.windows[0], window_s)]
        metrics = end_to_end(spec, inputs.windows[0], all_records[0], setup_s)
        if traced:
            untraced_p50 = metrics["p50_ms"][0]
            layers.install(recorder, session, engine)
            traced_pass = layers.TracedPass(recorder, session,
                                            tree_cpu_seconds)
            with traced_pass:
                all_records.append(measure(spec, engine, inputs.windows[1],
                                           window_s))

        report = workloads.OracleReport()
        if spec.update_every:
            workloads.check_stream(spec, loaded, inputs, all_records, session,
                                   report)
        else:
            for window, records in zip(inputs.windows, all_records):
                workloads.check_static(spec, loaded, window, records, report)

        if traced:
            metrics = layers.per_layer(
                spec, loaded, inputs, all_records[1], traced_pass, session,
                report, untraced_p50, setup_s, smoke)
            if trace_out:
                layers.tracing.write_chrome_trace(recorder.spans(), trace_out)
        backend_name = session.backend_name
    finally:
        workloads.tear_down(session, engine)

    survivors = surviving_descendants()
    for pid in survivors:  # a leak is a failure; still leave nothing behind
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    attempted = sum(records.count for records in all_records)
    failed = int(sum(records.failed.sum() for records in all_records)) \
        + report.mismatches + len(survivors)
    result = {"correct": failed == 0 and report.checked > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, provenance(seed, backend_name)


# --------------------------------------------------------------------------- #
# the suite: one child process per workload, one at a time
# --------------------------------------------------------------------------- #
def run_child(name: str, seed: int, seconds: float, traced: bool,
              smoke: bool, trace_out: Optional[str] = None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if traced else "0"]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        # No result object: the child crashed rather than measured wrong.
        raise SystemExit(f"perfbench: workload {name} exited "
                         f"{done.returncode}\n{done.stdout}\n{done.stderr}")
    for line in lines[:-1]:
        if line.startswith("# provenance "):
            result["provenance"] = json.loads(line[len("# provenance "):])
    return result


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<14} {metric:<40} {entry['value']:>14.4f} "
              f"{entry['unit']}")


def run_suite(args, seconds: float) -> int:
    results: Dict[str, dict] = {}
    ok = True
    for spec in workloads.WORKLOADS:
        for traced in ([False, True] if args.trace else [False]):
            result = run_child(spec.name, args.seed, seconds, traced,
                               args.smoke, args.trace_out if traced else None)
            key = spec.name + (".traced" if traced else "")
            results[key] = result
            ok = ok and result["correct"]
            print_metrics(spec.name, result)
            print(f"{spec.name:<14} {'attempted / failed':<40} "
                  f"{result['attempted']:>9} / {result['failed']}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True))
    return 0 if ok else 1


def calibrate(args, seconds: float) -> int:
    """Run every workload ``--calibrate`` times, each with another seed, and
    report per end-to-end metric the run-to-run spread the driver computes
    (inter-quartile distance over the median) and the bound it implies:
    the declared floor, or three times the widest spread if that is more —
    never past 0.25."""
    floors = {metric["name"]: metric["bound"]
              for metric in declared()["end_to_end"]}
    report: Dict[str, dict] = {}
    ok = True
    for spec in ([workloads.BY_NAME[args.workload]] if args.workload
                 else workloads.WORKLOADS):
        runs = [run_child(spec.name, args.seed + 1 + index, seconds, False,
                          args.smoke) for index in range(args.calibrate)]
        ok = ok and all(run["correct"] for run in runs)
        for metric in floors:
            values = [run["metrics"][metric]["value"] for run in runs]
            low, _, high = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry = report.setdefault(metric, {})
            entry[spec.name] = {"values": values, "median": median,
                                "iqr_spread": (high - low) / median,
                                "range_spread": (max(values) - min(values))
                                / median}
            print(f"{spec.name:<14} {metric:<14} median {median:>10.4f} "
                  f"iqr/median {entry[spec.name]['iqr_spread']:.4f} "
                  f"range/median {entry[spec.name]['range_spread']:.4f}")
    for metric, per_workload in report.items():
        widest = max(entry["iqr_spread"] for entry in per_workload.values())
        per_workload["bound"] = min(0.25, max(floors[metric], 3 * widest))
        flag = "" if 3 * widest <= floors[metric] else "  <- above declared"
        print(f"bound {metric:<14} declared {floors[metric]:.3f} "
              f"widest spread {widest:.4f} -> {per_workload['bound']:.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"runs": args.calibrate, "seconds": seconds,
             "metrics": report}, indent=1, sort_keys=True))
    return 0 if ok else 1


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="run this one workload in this process and "
                             "print its result object as the last line "
                             "(with --calibrate: calibrate only this one)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated traffic (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer pass (suite: after "
                             "each workload's untraced pass)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's spans here "
                             "(Chrome-trace JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="2k-node graph and 2 s windows (self-test)")
    parser.add_argument("--calibrate", type=int, default=0, metavar="K",
                        help="run each workload K times on K seeds and "
                             "report spreads and the bounds they imply")
    parser.add_argument("--out", default=None,
                        help="suite/calibration: also write results as JSON")
    args = parser.parse_args(argv)

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else declared()["run_seconds"])
    if args.calibrate:
        return calibrate(args, seconds)
    if args.workload is None:
        return run_suite(args, seconds)

    result, where = run_workload(workloads.BY_NAME[args.workload], args.seed,
                                 seconds, bool(args.trace), args.smoke,
                                 args.trace_out)
    print("# provenance " + json.dumps(where, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
