"""Closed-loop QueryService benchmark.

Usage::

    python3 perfbench/run.py --workload strings-serve --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see :mod:`inputs`): ``strings-serve``,
``ints-analytic``, ``tenant-churn``.  Each run sends a fixed number of
requests derived from ``--seed``, sized so the timed phase takes about
``--seconds`` normalised seconds; clients wait for each reply before sending
the next request (closed loop).

``--trace 0`` prints the end-to-end metrics: ``states_per_s``,
``latency_p50_ms``, ``latency_tail_ms`` (the highest percentile with at
least ten requests beyond it; the percentile and n are printed),
``setup_s`` (median of three cold starts, each in a fresh interpreter),
``success_rate`` (oracle-equal answers over states submitted; exceptions
and refusals count as failures) and ``rss_growth_mb`` (the largest RSS
growth the program showed: per round, the peak over the round's start plus
what earlier rounds retained; inputs are built between rounds, so they do
not count).  Times are host-speed normalised (see :mod:`hostspeed`); the raw
throughput is printed alongside.
``--trace 1`` runs the same seed with the layer wrappers of :mod:`spans`
installed and prints the per-layer metrics, each with the end-to-end metric
and workload it should move, and the tracing overhead: this run's
throughput against the last untraced run of the same seed.

Every answer is checked against the classic backend.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Counts that must repeat for a seed (routing mix, tenant tiers,
catalog and execution counters) are recorded under ``.perfbench_tmp/counts``
on the first run of a seed and compared on every later one; a difference is
flagged on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

SETUP_RUNS = 3

END_TO_END_UNITS = {
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "success_rate": "ratio",
    "rss_growth_mb": "MB",
}

#: Per-layer metric → (unit, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "service.queue_ms": ("ms", "latency_p50_ms on strings-serve; ~0 elsewhere"),
    "routing.decide_ms": ("ms", "latency_p50_ms on strings-serve"),
    "routing.probe_ms": ("ms", "setup_s on strings-serve"),
    "routing.probes": ("count", "setup_s on strings-serve"),
    "routing.estimate_ratio": ("ratio", "states_per_s on strings-serve (misroute)"),
    "routing.batches.compiled": ("count", "states_per_s on any workload (misroute)"),
    "routing.batches.vectorized": ("count", "states_per_s on any workload (misroute)"),
    "routing.batches.parallel": ("count", "states_per_s on any workload (misroute)"),
    "routing.rule.parallel-loses": ("count", "states_per_s on strings-serve"),
    "routing.rule.parallel-wins": ("count", "states_per_s on strings-serve"),
    "routing.rule.small-batch": ("count", "states_per_s on ints-analytic, tenant-churn"),
    "routing.rule.thin-serial": ("count", "states_per_s on any workload"),
    "analysis.prepare_ms": ("ms", "latency_tail_ms, states_per_s on tenant-churn; setup_s"),
    "analysis.lru_hit_ratio": ("ratio", "latency_tail_ms, states_per_s on tenant-churn"),
    "cyclic.prepare_ms": ("ms", "latency_tail_ms on tenant-churn"),
    "cyclic.execute_ms_per_state": ("ms", "states_per_s on tenant-churn"),
    "catalog.load_ms": ("ms", "latency_tail_ms on tenant-churn"),
    "catalog.store_ms": ("ms", "latency_tail_ms on tenant-churn"),
    "catalog.hits": ("count", "latency_tail_ms on tenant-churn"),
    "catalog.misses": ("count", "latency_tail_ms on tenant-churn"),
    "catalog.stores": ("count", "latency_tail_ms on tenant-churn"),
    "catalog.store_skips": ("count", "latency_tail_ms on tenant-churn"),
    "plan.compile_ms": ("ms", "latency_p50_ms on tenant-churn; setup_s elsewhere"),
    "compiled.encode_ms_per_state": ("ms", "states_per_s, latency_p50_ms on strings-serve"),
    "compiled.execute_ms_per_state": ("ms", "states_per_s on strings-serve, tenant-churn"),
    "compiled.encode_cache_hit_ratio": ("ratio", "states_per_s on ints-analytic (star)"),
    "compiled.filtering_semijoin_ratio": ("ratio", "states_per_s on any workload"),
    "compiled.index_builds": ("count", "states_per_s on any workload"),
    "compiled.interner_resets": ("count", "rss_growth_mb on strings-serve"),
    "vectorized.encode_ms_per_state": ("ms", "states_per_s on ints-analytic"),
    "vectorized.execute_ms_per_state": ("ms", "states_per_s on ints-analytic"),
    "parallel.batches": ("count", "states_per_s on strings-serve if a pool starts"),
    "parallel.execute_ms": ("ms", "states_per_s on strings-serve if a pool starts"),
    "parallel.respawns": ("count", "success_rate, latency_tail_ms on any workload"),
    "tenants.tier_lru": ("count", "latency_p50_ms on tenant-churn"),
    "tenants.tier_catalog": ("count", "latency_tail_ms on tenant-churn"),
    "tenants.tier_cold": ("count", "latency_tail_ms on tenant-churn"),
    "trace.states_per_s": ("1/s", "tracing overhead: this traced run"),
    "trace.untraced_states_per_s": ("1/s", "tracing overhead: last untraced run, same seed"),
    "trace.overhead_ratio": ("ratio", "tracing overhead: untraced / traced (0: no untraced run)"),
    "steady.counts_changed": ("count", "counts differing from this seed's first run"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: shrink every input, corrupt N answers.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cold_starts(args, scratch) -> tuple:
    """Median normalised setup seconds over fresh interpreters, and whether
    every cold start answered correctly."""
    values, raws, ok = [], [], True
    for attempt in range(SETUP_RUNS):
        directory = os.path.join(scratch, f"cold{attempt}")
        os.makedirs(directory)
        command = [
            sys.executable,
            os.path.join(HERE, "coldstart.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--scratch", directory,
        ]
        if args.tiny:
            command.append("--tiny")
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"cold start exited with {completed.returncode}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        values.append(result["setup_s"])
        raws.append(result["raw_s"])
        ok = ok and result["ok"]
    return statistics.median(values), statistics.median(raws), ok


def _record_path(args, kind: str) -> str:
    directory = os.path.join(SCRATCH, kind)
    os.makedirs(directory, exist_ok=True)
    size = "tiny" if args.tiny else f"{args.seconds:g}s"
    return os.path.join(directory, f"{args.workload}-seed{args.seed}-{size}.json")


def _compare_counts(args, counts) -> int:
    """Record this seed's counts on its first run; flag differences later."""
    path = _record_path(args, "counts")
    current = json.loads(json.dumps(counts, sort_keys=True))
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump(current, handle, sort_keys=True)
        return 0
    with open(path) as handle:
        first = json.load(handle)

    def leaves(tree, prefix=""):
        if isinstance(tree, dict):
            for key, value in tree.items():
                yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix.rstrip("."), tree

    old, new = dict(leaves(first)), dict(leaves(current))
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in changed:
        print(
            f"STEADINESS FLAG: {key} was {old.get(key)} on this seed's first run, "
            f"now {new.get(key)}",
            file=sys.stderr,
        )
    return len(changed)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs
    import loadgen
    import oracle

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload](args.seed, args.seconds, tiny=args.tiny)
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    pool = oracle.start_pool()
    try:
        if not args.trace:
            setup_s, setup_raw, setup_ok = _cold_starts(args, scratch)
        catalog_dir = os.path.join(scratch, "catalog")
        workload.prefill(pool, catalog_dir)
        gen = loadgen.LoadGenerator(
            workload, catalog_dir, trace=bool(args.trace), inject_wrong=args.inject_wrong
        )
        try:
            gen.warm_up()
            gen.run_rounds(pool)
        finally:
            gen.close()
        counts = gen.counts()
        changed = _compare_counts(args, counts)
    finally:
        oracle.stop_pool(pool)
        del pool
        oracle.stop_tracker()
        shutil.rmtree(scratch, ignore_errors=True)

    for error, times in gen.errors.items():
        print(f"error x{times}: {error}", file=sys.stderr)
    correct = gen.correct == gen.attempted and gen.warm_failures == 0
    print(f"workload {args.workload} seed {args.seed}: {gen.attempted} states in "
          f"{gen.requests} requests, {gen.raw_seconds:.2f} s timed")
    print("counts " + json.dumps(counts, sort_keys=True))
    throughput_path = _record_path(args, "throughput")
    if args.trace:
        untraced = 0.0
        if os.path.exists(throughput_path):
            with open(throughput_path) as handle:
                untraced = json.load(handle)["states_per_s"]
        values = loadgen.summarise_layers(gen, counts, changed, untraced)
        metrics = {}
        for name, (unit, moves) in LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:36s} {values[name]:14.6g} {unit:6s} moves {moves}")
    else:
        e2e = gen.end_to_end()
        e2e["setup_s"] = setup_s
        with open(throughput_path, "w") as handle:
            json.dump({"states_per_s": e2e["states_per_s"]}, handle)
        correct = correct and setup_ok
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        notes = {
            "states_per_s": f"raw {e2e['raw_states_per_s']:.1f} 1/s",
            "latency_tail_ms": f"p{e2e['tail_percentile']:g} of n={e2e['requests']}",
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters, raw {setup_raw:.4f} s",
            "success_rate": f"{gen.correct} of {gen.attempted} states oracle-equal",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"{name:16s} {e2e[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gen.attempted,
                "failed": gen.attempted - gen.correct,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
