"""Closed-loop load generator: rounds of fresh requests against one service.

A run is a warm-up (the first request of every plan) followed by a fixed
number of rounds.  Each round:

1. builds the round's requests (untimed) and freezes them out of the
   collector's view (``gc.collect(); gc.freeze()``);
2. times the host-speed reference slice, resets the RSS high-water mark and
   starts every client at once; each client sends its next request only
   after the previous reply arrived (closed loop) and digests each answer as
   it arrives;
3. reads the RSS high-water mark, times the reference slice again, and
   checks every answer against the classic backend (untimed).

Round wall times and request latencies are normalised by the reference
timings around the round and its neighbours (see :mod:`hostspeed`).  With
tracing on, the layer wrappers of :mod:`spans` are installed while requests
run (warm-up included) and removed for the untimed phases.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import hostspeed
import inputs
import oracle
import spans as spanlib
from repro.relational.compiled import ExecutionStats

#: Tail percentiles tried, highest first; the reported one is the highest
#: with at least ten samples beyond it.
_TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)

_EXEC_FIELDS = (
    "states",
    "deduped_states",
    "encoded_slots",
    "cached_slots",
    "identity_semijoins",
    "filtering_semijoins",
    "interner_resets",
)


class Outcome:
    __slots__ = ("rid", "latency_ns", "digests", "error", "stats", "request", "tier")

    def __init__(self, rid, request, tier) -> None:
        self.rid = rid
        self.request = request
        self.tier = tier
        self.latency_ns = 0
        self.digests: Optional[list] = None
        self.error: Optional[str] = None
        self.stats: list = []


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _reset_peak_rss() -> None:
    # Resets VmHWM to the current RSS (Linux >= 4.0).
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def tail_percentile(count: int) -> float:
    for percentile in _TAIL_PERCENTILES:
        if count * (1 - percentile / 100) >= 10:
            return percentile
    return 50.0


def percentile_of(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = percentile / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class LoadGenerator:
    def __init__(
        self,
        workload: inputs.Workload,
        scratch: str,
        *,
        trace: bool = False,
        inject_wrong: int = 0,
    ) -> None:
        self.workload = workload
        self.service = workload.make_service(scratch)
        self.recorder: Optional[spanlib.Recorder] = None
        if trace:
            self.recorder = spanlib.Recorder()
            spanlib.install_layer_spans(self.recorder, inputs)
        self._inject_wrong = inject_wrong
        self._inject_lock = threading.Lock()
        self.attempted = 0
        self.correct = 0
        self.errors: Counter = Counter()
        self.tiers: Counter = Counter()
        self.exec_stats: Dict[str, ExecutionStats] = {}
        self.respawns = 0
        #: Per timed round: wall seconds, states, request latencies (ns) and
        #: the reference samples taken around it.
        self.rounds: List[tuple] = []
        self.rss_peak_kb = 0
        self._retained_kb = 0
        self.warm_failures = 0

    # -- clients ---------------------------------------------------------------

    def _serve(self, request, rid, traced):
        if traced:
            with self.recorder.request(rid, request.states):
                return self.workload.serve(self.service, request)
        return self.workload.serve(self.service, request)

    def _client(self, requests, base_rid, traced, barrier, out: List[Outcome]) -> None:
        timed = base_rid[0] != "warm"
        barrier.wait()
        for offset, request in enumerate(requests):
            outcome = Outcome(base_rid + (offset,), request, self.workload.tier(request))
            started = perf_counter_ns()
            try:
                runs = self._serve(request, outcome.rid, traced)
            except Exception as error:  # counted as failed states, run goes on
                runs = None
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.latency_ns = perf_counter_ns() - started
            if runs is not None:
                outcome.digests = [
                    None if run is None else inputs.answer_digest(run.result)
                    for run in runs
                ]
                seen = {}
                for run in runs:
                    if run is not None and run.stats is not None:
                        seen[id(run.stats)] = (run.backend, run.stats)
                outcome.stats = list(seen.values())
                if timed:
                    self._maybe_inject(outcome)
            out.append(outcome)

    def _maybe_inject(self, outcome: Outcome) -> None:
        """Self-test hook: replace answers with a wrong one (cardinality + 1)."""
        if not self._inject_wrong:
            return
        with self._inject_lock:
            for index, digest in enumerate(outcome.digests):
                if self._inject_wrong and digest is not None:
                    schema, size, row_hash = digest
                    outcome.digests[index] = (schema, size + 1, row_hash)
                    self._inject_wrong -= 1

    def _run_clients(self, per_client, round_key, traced) -> tuple:
        outcomes: List[List[Outcome]] = [[] for _ in per_client]
        barrier = threading.Barrier(len(per_client) + 1)
        threads = [
            threading.Thread(
                target=self._client,
                args=(requests, (round_key, client), traced, barrier, outcomes[client]),
                name=f"perfbench-client-{client}",
            )
            for client, requests in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = perf_counter()
        for thread in threads:
            thread.join()
        return perf_counter() - started, [o for out in outcomes for o in out]

    # -- checking --------------------------------------------------------------

    def _check(self, outcomes: List[Outcome], timed: bool, expected=None) -> None:
        """Compare every answer with the oracle; ``expected`` holds the pool's
        digests for the outcomes that have answers, in order, when the
        oracle ran remotely."""
        remote = iter(expected or ())
        for outcome in outcomes:
            states = len(outcome.request.states)
            good = 0
            if outcome.digests is not None:
                want = (
                    next(remote)
                    if expected is not None
                    else self.workload.expected(outcome.request)
                )
                good = sum(1 for got, w in zip(outcome.digests, want) if got == w)
            else:
                self.errors[outcome.error] += 1
            if not timed:
                self.warm_failures += states - good
                continue
            self.attempted += states
            self.correct += good
            self.tiers[outcome.tier] += 1
            for backend, stats in outcome.stats:
                total = self.exec_stats.setdefault(backend, ExecutionStats())
                total.absorb(stats)
                self.respawns += getattr(stats, "respawns", 0)

    # -- phases ----------------------------------------------------------------

    def warm_up(self) -> None:
        """Open the plans and serve the first request of each (untimed)."""
        if self.recorder is not None:
            self.recorder.install()
        try:
            self.workload.open(self.service)
            _, outcomes = self._run_clients(
                [self.workload.warm_requests()], "warm", self.recorder is not None
            )
        finally:
            if self.recorder is not None:
                self.recorder.uninstall()
        self._check(outcomes, timed=False)
        self.stats_before = self._service_counts()

    def _service_counts(self):
        stats = self.service.stats
        return dict(stats.backends), dict(stats.rules)

    def run_rounds(self, pool=None) -> None:
        """Run the timed rounds; with ``pool`` the oracle of round k runs in
        the pool while this process builds round k + 1."""
        rounds = self.workload.rounds
        traced = self.recorder is not None
        per_client = self.workload.make_round(0)
        for index in range(rounds):
            gc.collect()
            gc.freeze()
            reference = hostspeed.reference_samples()
            _reset_peak_rss()
            start_kb = _status_kb("VmRSS")
            if traced:
                self.recorder.install()
            try:
                wall, outcomes = self._run_clients(per_client, index, traced)
            finally:
                if traced:
                    self.recorder.uninstall()
            peak_kb = _status_kb("VmHWM")
            end_kb = _status_kb("VmRSS")
            reference += hostspeed.reference_samples()
            gc.unfreeze()
            del per_client
            # Inputs differ per round, so only what a round adds while it
            # runs is the program's: its peak over its own start, on top of
            # what earlier rounds retained.
            self.rss_peak_kb = max(
                self.rss_peak_kb, self._retained_kb + peak_kb - start_kb
            )
            self._retained_kb += end_kb - start_kb
            self.rounds.append(
                (
                    wall,
                    sum(len(o.request.states) for o in outcomes),
                    [o.latency_ns for o in outcomes],
                    reference,
                )
            )
            job = None
            if pool is not None and self.workload.remote_oracle:
                payloads = [
                    (o.request.prepared.schema, o.request.prepared.target, o.request.states)
                    for o in outcomes
                    if o.digests is not None
                ]
                job = pool.map_async(oracle.classic_answers, payloads, chunksize=4)
            if traced:
                self.recorder.forget_requests()
            if index + 1 < rounds:
                per_client = self.workload.make_round(index + 1)
            expected = None
            if job is not None:
                expected = [
                    [inputs.answer_digest(answer) for answer in answers]
                    for answers in job.get()
                ]
            self._check(outcomes, timed=True, expected=expected)
            del outcomes

    def close(self) -> None:
        self.service.close()

    # -- results ---------------------------------------------------------------

    def counts(self) -> Dict[str, object]:
        """Counts that must repeat exactly for a seed."""
        backends_before, rules_before = self.stats_before
        backends, rules = self._service_counts()
        return {
            "routing.backends": {
                k: v - backends_before.get(k, 0) for k, v in sorted(backends.items())
            },
            "routing.rules": {
                k: v - rules_before.get(k, 0) for k, v in sorted(rules.items())
            },
            "tiers": dict(sorted(self.tiers.items())),
            "execution": {
                backend: {
                    **{name: getattr(stats, name) for name in _EXEC_FIELDS},
                    "keyset_builds": stats.total_keyset_builds(),
                    "bucket_builds": stats.total_bucket_builds(),
                }
                for backend, stats in sorted(self.exec_stats.items())
            },
            "attempted": self.attempted,
            **self.workload.counts(),
        }

    def normalised(self):
        """Per round: normalised seconds, states, normalised latencies (s)."""
        window = max(1, round(1.5 / self.workload.nominal_round_s))
        factors = hostspeed.factors([r[3] for r in self.rounds], window)
        return [
            (wall * f, states, [ns * 1e-9 * f for ns in latencies])
            for (wall, states, latencies, _), f in zip(self.rounds, factors)
        ]

    def throughput(self) -> float:
        rounds = self.normalised()
        return sum(r[1] for r in rounds) / sum(r[0] for r in rounds)

    @property
    def raw_seconds(self) -> float:
        return sum(r[0] for r in self.rounds)

    @property
    def requests(self) -> int:
        return sum(len(r[2]) for r in self.rounds)

    def end_to_end(self) -> Dict[str, float]:
        latencies = [value for r in self.normalised() for value in r[2]]
        tail = tail_percentile(len(latencies))
        return {
            "states_per_s": self.throughput(),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile_of(latencies, tail) * 1e3,
            "tail_percentile": tail,
            "requests": len(latencies),
            "success_rate": self.correct / self.attempted,
            "rss_growth_mb": self.rss_peak_kb / 1024,
            "raw_states_per_s": self.attempted / self.raw_seconds,
        }


def summarise_layers(
    gen: LoadGenerator, counts, counts_changed: int, untraced_states_per_s: float
) -> Dict[str, float]:
    """Per-layer metrics from the spans and the run's ``counts``.
    ``untraced_states_per_s`` is the last untraced run's throughput on this
    seed (0 when there was none), for the tracing overhead."""
    spans = gen.recorder.spans
    self_ns = spanlib.self_times(spans)
    named: Dict[str, List[list]] = {}
    for span in spans:
        named.setdefault(span[spanlib.NAME], []).append(span)

    def timed(name):
        return [
            s for s in named.get(name, ())
            if s[spanlib.RID] is not None and s[spanlib.RID][0] != "warm"
        ]

    def mean_self_ms(name):
        chosen = timed(name)
        if not chosen:
            return 0.0
        return sum(self_ns[id(s)] for s in chosen) / len(chosen) / 1e6

    def mean_ms(chosen):
        if not chosen:
            return 0.0
        return sum(s[spanlib.END] - s[spanlib.START] for s in chosen) / len(chosen) / 1e6

    # Observed execution per request, for the router's estimate.
    executed: Dict[object, int] = {}
    for name in ("plan.execute_many", "cyclic.execute_many", "parallel.execute_many"):
        for span in timed(name):
            if span[spanlib.PARENT] is not None and span[spanlib.PARENT][spanlib.NAME] == "request":
                executed[span[spanlib.RID]] = executed.get(span[spanlib.RID], 0) + (
                    span[spanlib.END] - span[spanlib.START]
                )
    ratios = [
        s[spanlib.EXTRA] / (executed[s[spanlib.RID]] * 1e-9)
        for s in timed("routing.decide")
        if s[spanlib.EXTRA] is not None and executed.get(s[spanlib.RID])
    ]

    # probe() returns the cached per-row cost on every decision after the
    # first; only calls that executed the plan (have child spans) probed.
    parents = {id(s[spanlib.PARENT]) for s in spans if s[spanlib.PARENT] is not None}
    probes = [s for s in named.get("routing.probe", ()) if id(s) in parents]
    cyclic_spans = timed("cyclic.execute_many")
    cyclic_states = sum(s[spanlib.EXTRA] or 0 for s in cyclic_spans)
    rules = counts["routing.rules"]
    backends = counts["routing.backends"]
    requests = sum(gen.tiers.values())

    def exec_ratio(backend, numerator, other):
        stats = gen.exec_stats.get(backend)
        if stats is None:
            return 0.0
        top = getattr(stats, numerator)
        bottom = top + getattr(stats, other)
        return top / bottom if bottom else 0.0

    compiled = gen.exec_stats.get("compiled")
    catalog = counts.get("catalog", {})
    metrics = {
        "service.queue_ms": mean_self_ms("request"),
        "routing.decide_ms": mean_self_ms("routing.decide"),
        "routing.probe_ms": mean_ms(probes),
        "routing.probes": len(probes),
        "routing.estimate_ratio": statistics.median(ratios) if ratios else 0.0,
        "analysis.prepare_ms": mean_self_ms("analysis.prepare"),
        "analysis.lru_hit_ratio": gen.tiers.get("lru", 0) / requests,
        "cyclic.prepare_ms": mean_self_ms("cyclic.prepare"),
        "cyclic.execute_ms_per_state": (
            sum(self_ns[id(s)] for s in cyclic_spans) / cyclic_states / 1e6
            if cyclic_states
            else 0.0
        ),
        "catalog.load_ms": mean_self_ms("catalog.load"),
        "catalog.store_ms": mean_self_ms("catalog.store"),
        "catalog.hits": catalog.get("hits", 0),
        "catalog.misses": catalog.get("misses", 0),
        "catalog.stores": catalog.get("stores", 0),
        "catalog.store_skips": catalog.get("store_skips", 0),
        "plan.compile_ms": mean_ms(named.get("plan.compile", [])),
        "compiled.encode_ms_per_state": mean_self_ms("compiled.encode"),
        "compiled.execute_ms_per_state": mean_self_ms("compiled.execute"),
        "compiled.encode_cache_hit_ratio": exec_ratio(
            "compiled", "cached_slots", "encoded_slots"
        ),
        "compiled.filtering_semijoin_ratio": exec_ratio(
            "compiled", "filtering_semijoins", "identity_semijoins"
        ),
        "compiled.index_builds": (
            compiled.total_keyset_builds() + compiled.total_bucket_builds()
            if compiled is not None
            else 0
        ),
        "compiled.interner_resets": compiled.interner_resets if compiled else 0,
        "vectorized.encode_ms_per_state": mean_self_ms("vectorized.encode"),
        "vectorized.execute_ms_per_state": mean_self_ms("vectorized.execute"),
        "parallel.batches": backends.get("parallel", 0),
        "parallel.execute_ms": mean_ms(timed("parallel.execute_many")),
        "parallel.respawns": gen.respawns,
        "tenants.tier_lru": gen.tiers.get("lru", 0),
        "tenants.tier_catalog": gen.tiers.get("catalog", 0),
        "tenants.tier_cold": gen.tiers.get("cold", 0),
        "trace.states_per_s": gen.throughput(),
        "trace.untraced_states_per_s": untraced_states_per_s,
        "trace.overhead_ratio": untraced_states_per_s / gen.throughput(),
        "steady.counts_changed": counts_changed,
    }
    for backend in ROUTING_BACKENDS:
        metrics[f"routing.batches.{backend}"] = backends.get(backend, 0)
    for rule in ROUTING_RULES:
        metrics[f"routing.rule.{rule}"] = rules.get(rule, 0)
    unknown = set(rules) - set(ROUTING_RULES)
    if unknown:
        print(f"note: routing rules outside the metric list: {sorted(unknown)}", file=sys.stderr)
    return metrics


ROUTING_BACKENDS = ("compiled", "vectorized", "parallel")
ROUTING_RULES = ("parallel-loses", "parallel-wins", "small-batch", "thin-serial")
