"""The three workloads: seeded inputs, plans, the closed-loop call, the oracle.

Every workload derives all of its inputs from ``--seed`` alone; the program
receives only the generated :class:`Relation`/:class:`DatabaseState` objects.
Each request carries objects no earlier request touched (star dimensions are
re-created as equal values, never shared objects), so no per-object cache
inside the program can fake warmth.  The work per run is a fixed number of
rounds of fixed requests, so every count the program reports repeats exactly
for a seed.

Answers are compared by digest: ``(schema, cardinality, hash of the row
frozenset)`` of each result relation, taken by the client as the reply
arrives and checked against the classic backend after the round.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
from repro.engine import analyze, peek_analysis
from repro.engine.catalog import PlanCatalog
from repro.engine.service import QueryService
from repro.hypergraph.generators import (
    chain_schema,
    random_cyclic_schema,
    random_tree_schema,
    star_schema,
)
from repro.hypergraph.schema import DatabaseSchema, RelationSchema
from repro.relational.database import DatabaseState
from repro.relational.relation import Relation


def answer_digest(relation: Relation) -> Tuple[object, int, int]:
    """What a reply is compared by: schema, cardinality and row-set hash."""
    return (relation.schema, len(relation), hash(relation.rows))


class Request:
    """One closed-loop request: a batch of fresh states for one plan."""

    __slots__ = ("plan", "states", "tenant", "prepared")

    def __init__(self, plan, states: List[DatabaseState], tenant=None) -> None:
        self.plan = plan
        self.states = states
        self.tenant = tenant
        #: The prepared query the request was served by (the oracle runs
        #: its classic backend); set by ``serve``.
        self.prepared = None


def _distinct_rows(
    rng: random.Random, width: int, rows: int, domains: Sequence[int]
) -> List[Tuple[int, ...]]:
    seen = set()
    while len(seen) < rows:
        seen.add(tuple(rng.randrange(domains[k]) for k in range(width)))
    return sorted(seen)


class Workload:
    """Interface the load generator drives (see the subclasses)."""

    name = ""
    clients = 1
    #: Requests each client sends per round.
    round_requests = 1
    #: Normalised seconds one round takes, used to size a run to --seconds.
    nominal_round_s = 1.0
    #: Whether the classic oracle runs in the worker pool of :mod:`oracle`
    #: (fixed plans) or in this process from the request's own plan.
    remote_oracle = True

    def __init__(self, seed: int, seconds: float = 0.0, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        #: Timed rounds in a run sized to ``seconds``.
        self.rounds = 2 if tiny else max(4, round(seconds / self.nominal_round_s))
        self.prepared: Dict[object, object] = {}

    def make_service(self, scratch: str) -> QueryService:
        return QueryService()

    def prefill(self, pool, scratch: str) -> None:
        """Untimed preparation of persistent state, run in the oracle pool."""

    def open(self, service: QueryService) -> None:
        """Analyze and prepare the workload's fixed plans."""

    def warm_requests(self) -> List[Request]:
        """The first request of every plan the workload starts with."""
        raise NotImplementedError

    def make_round(self, index: int) -> List[List[Request]]:
        """Per client, the requests of round ``index``."""
        raise NotImplementedError

    def serve(self, service: QueryService, request: Request) -> list:
        """The closed-loop call; returns one run (or ``None``) per state."""
        raise NotImplementedError

    def schema_of(self, request: Request) -> DatabaseSchema:
        raise NotImplementedError

    def tier(self, request: Request) -> str:
        """Which plan-lifecycle tier the request will hit (checked before it
        is sent): ``lru``, ``catalog`` or ``cold``."""
        return "lru" if peek_analysis(self.schema_of(request)) is not None else "cold"

    def expected(self, request: Request) -> List[Tuple[object, int, int]]:
        """Classic-backend answer digests for every state of ``request``."""
        prepared = request.prepared
        return [
            answer_digest(prepared.execute(state, backend="classic").result)
            for state in request.states
        ]

    def counts(self) -> Dict[str, object]:
        """Workload-specific counts that must repeat for a seed."""
        return {}


class StringsServe(Workload):
    """Two clients, ``execute_many`` of 48-64 fresh string states on chain(5).

    200 rows per state sit below the 256-row vectorized floor, so ``auto``
    runs the compiled kernel and every batch reaches the cost model's
    ``parallel-loses`` rule.  Every value is a string never seen before, so
    interning is the dominant cost.
    """

    name = "strings-serve"
    clients = 2
    round_requests = 8
    nominal_round_s = 0.73
    ROWS = 40
    #: ~81 distinct values per state: an 8-second run (~10k states) stays
    #: clear of the interner's 1M-value cap, so the run never resets it.
    DOMAIN = 14
    #: States per request.  Even the smallest batch keeps the router's
    #: serial estimate (~4.5 us/row here) well above its 20 ms thin-serial
    #: gate on a fast host phase, so the rule cannot flip between runs.
    BATCH = (48, 64)

    def __init__(self, seed: int, seconds: float = 0.0, tiny: bool = False) -> None:
        super().__init__(seed, seconds, tiny)
        self.schema = chain_schema(5)
        self.target = RelationSchema({"x0", "x5"})
        self._tags = itertools.count()
        if tiny:
            self.round_requests = 2

    def open(self, service: QueryService) -> None:
        self.prepared["chain"] = analyze(self.schema).prepare(self.target)

    def _state(self, rng: random.Random) -> DatabaseState:
        tag = next(self._tags)
        relations = []
        for relation_schema in self.schema.relations:
            columns = relation_schema.sorted_attributes()
            rows = _distinct_rows(
                rng, len(columns), self.ROWS, [self.DOMAIN] * len(columns)
            )
            relations.append(
                Relation(
                    relation_schema,
                    [
                        tuple(f"{c}{tag}.{v}" for c, v in zip(columns, row))
                        for row in rows
                    ],
                )
            )
        return DatabaseState(self.schema, relations)

    def _request(self, rng: random.Random) -> Request:
        size = rng.randint(8, 12) if self.tiny else rng.randint(*self.BATCH)
        return Request("chain", [self._state(rng) for _ in range(size)])

    def warm_requests(self) -> List[Request]:
        return [self._request(random.Random(f"{self.seed}/warm"))]

    def make_round(self, index: int) -> List[List[Request]]:
        return [
            [
                self._request(rng)
                for _ in range(self.round_requests)
            ]
            for rng in (
                random.Random(f"{self.seed}/{index}/{client}")
                for client in range(self.clients)
            )
        ]

    def schema_of(self, request: Request) -> DatabaseSchema:
        return self.schema

    def serve(self, service: QueryService, request: Request) -> list:
        prepared = self.prepared[request.plan]
        request.prepared = prepared
        return service.execute_many(prepared, request.states)


class IntsAnalytic(Workload):
    """One client, ``stream`` of 8-state integer batches over two plans.

    chain(6) at 396 rows per state clears both vectorized gates; star(12) at
    300 rows (25 per relation) fails the per-relation gate and runs compiled.
    A star request re-creates the eleven dimension relations as equal values
    around a fresh fact relation, so the slot encode cache serves them.  The
    plan mix is 3:1 chain:star: an even mix puts the median between the two
    latency modes.
    """

    name = "ints-analytic"
    round_requests = 24
    nominal_round_s = 0.22
    BATCH = 8
    CHAIN_ROWS = 66
    CHAIN_DOMAIN = 40
    STAR_ROWS = 25
    HUB_DOMAIN = 6
    POINT_DOMAIN = 24

    def __init__(self, seed: int, seconds: float = 0.0, tiny: bool = False) -> None:
        super().__init__(seed, seconds, tiny)
        self.chain = chain_schema(6)
        self.chain_target = RelationSchema({"x0", "x6"})
        self.star = star_schema(12)
        self.star_target = RelationSchema({"x_hub", "x0"})
        dims_rng = random.Random(f"{seed}/dims")
        self._dim_rows = [
            self._star_rows(dims_rng, relation_schema)
            for relation_schema in self.star.relations[1:]
        ]
        if tiny:
            self.round_requests = 4

    def _star_rows(self, rng, relation_schema) -> List[Tuple[int, ...]]:
        columns = relation_schema.sorted_attributes()
        domains = [
            self.HUB_DOMAIN if column == "x_hub" else self.POINT_DOMAIN
            for column in columns
        ]
        return _distinct_rows(rng, len(columns), self.STAR_ROWS, domains)

    def open(self, service: QueryService) -> None:
        self.prepared["chain"] = analyze(self.chain).prepare(self.chain_target)
        self.prepared["star"] = analyze(self.star).prepare(self.star_target)

    def _chain_state(self, rng) -> DatabaseState:
        return DatabaseState(
            self.chain,
            [
                Relation(
                    relation_schema,
                    _distinct_rows(
                        rng, 2, self.CHAIN_ROWS, [self.CHAIN_DOMAIN] * 2
                    ),
                )
                for relation_schema in self.chain.relations
            ],
        )

    def _star_state(self, rng) -> DatabaseState:
        fact_schema = self.star.relations[0]
        relations = [Relation(fact_schema, self._star_rows(rng, fact_schema))]
        for relation_schema, rows in zip(self.star.relations[1:], self._dim_rows):
            # Equal values in a fresh object, fresh row tuples included.
            relations.append(
                Relation(relation_schema, [(a, b) for a, b in rows])
            )
        return DatabaseState(self.star, relations)

    def _request(self, rng, plan: str) -> Request:
        make = self._chain_state if plan == "chain" else self._star_state
        return Request(plan, [make(rng) for _ in range(self.BATCH)])

    def warm_requests(self) -> List[Request]:
        rng = random.Random(f"{self.seed}/warm")
        return [self._request(rng, "chain"), self._request(rng, "star")]

    def make_round(self, index: int) -> List[List[Request]]:
        rng = random.Random(f"{self.seed}/{index}")
        plans = rng.choices(("chain", "star"), weights=(3, 1), k=self.round_requests)
        return [[self._request(rng, plan) for plan in plans]]

    def schema_of(self, request: Request) -> DatabaseSchema:
        return self.chain if request.plan == "chain" else self.star

    def serve(self, service: QueryService, request: Request) -> list:
        prepared = self.prepared[request.plan]
        request.prepared = prepared
        runs: List[Optional[object]] = [None] * len(request.states)
        for item in service.stream(prepared, request.states):
            if item.ok:
                runs[item.index] = item.run
        return runs


class _Tenant:
    __slots__ = ("schema", "target", "cyclic")

    def __init__(self, schema: DatabaseSchema, target: RelationSchema, cyclic: bool):
        self.schema = schema
        self.target = target
        self.cyclic = cyclic


class TenantChurn(Workload):
    """One client serving a skewed tenant population through the whole plan
    lifecycle: ``analyze`` (LRU, then catalog, then cold), ``prepare`` or
    ``prepare_cyclic``, a catalog store, then ``execute_many`` of 8 small
    states.

    Half the tenants are ``random_tree_schema(10)``, half
    ``random_cyclic_schema(8)`` with a ring of 3-5.  Each run sends a fixed
    mix: every tenant gets its Zipf(s=0.6) share of the run's requests
    (largest remainder), in an order shuffled by the seed, so the set of
    tenants a run touches, and with it the cold-analysis work, is the same
    for every seed.  A third of the tenants are already in the catalog when
    the run starts, written by other processes (see :meth:`prefill`), so
    requests split into three tiers: analysis-LRU hits, catalog reads and
    first touches that pay cold analysis plus a catalog store with fsync.
    Each state is a small universal relation projected onto the schema plus
    a few noise rows, so answers are non-empty.
    """

    name = "tenant-churn"
    remote_oracle = False
    round_requests = 48
    nominal_round_s = 0.8
    POPULATION = 600
    ZIPF_S = 0.6
    BATCH = 8
    UNIVERSAL_ROWS = 6
    NOISE_ROWS = 2
    DOMAIN = 4

    def __init__(self, seed: int, seconds: float = 0.0, tiny: bool = False) -> None:
        super().__init__(seed, seconds, tiny)
        population = 40 if tiny else self.POPULATION
        if tiny:
            self.round_requests = 8
        # The population is the deployment, not the traffic: it is the same
        # for every seed.  The seed drives the request order and the states.
        rng = random.Random("tenants")
        tenants = []
        for index in range(population):
            if index % 2 == 0:
                schema = random_tree_schema(10, rng=rng)
            else:
                schema = random_cyclic_schema(
                    8, ring_size=rng.randint(3, 5), rng=rng
                )
            attributes = sorted(schema.attributes)
            target = RelationSchema(rng.sample(attributes, 2))
            tenants.append(_Tenant(schema, target, index % 2 == 1))
        rng.shuffle(tenants)
        #: By popularity rank.
        self.tenants = tenants
        total = self.rounds * self.round_requests
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(population)]
        shares = [total * w / sum(weights) for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(
            range(population), key=lambda rank: counts[rank] - shares[rank]
        )
        for rank in by_remainder[: total - sum(counts)]:
            counts[rank] += 1
        self._sequence = [
            rank for rank, count in enumerate(counts) for _ in range(count)
        ]
        random.Random(f"{seed}/order").shuffle(self._sequence)
        self._stored = set()
        self.catalog: Optional[PlanCatalog] = None

    def make_service(self, scratch: str) -> QueryService:
        self.catalog = PlanCatalog(scratch)
        return QueryService(catalog=self.catalog)

    def prefill(self, pool, scratch: str) -> None:
        """Store every third touched tenant's analysis from worker processes,
        as an earlier process sharing the catalog directory would have."""
        chosen = sorted(set(self._sequence))[2::3]
        pool.map(
            oracle.store_analysis,
            [
                (scratch, t.schema, t.target, t.cyclic)
                for t in (self.tenants[rank] for rank in chosen)
            ],
            chunksize=4,
        )
        self._stored.update(self.tenants[rank].schema.relations for rank in chosen)

    def _state(self, rng, schema: DatabaseSchema) -> DatabaseState:
        columns = sorted(schema.attributes)
        universal = _distinct_rows(
            rng, len(columns), self.UNIVERSAL_ROWS, [self.DOMAIN] * len(columns)
        )
        relations = []
        for relation_schema in schema.relations:
            own = relation_schema.sorted_attributes()
            positions = [columns.index(attribute) for attribute in own]
            rows = {tuple(row[p] for p in positions) for row in universal}
            rows.update(
                _distinct_rows(rng, len(own), self.NOISE_ROWS, [self.DOMAIN] * len(own))
            )
            relations.append(Relation(relation_schema, rows))
        return DatabaseState(schema, relations)

    def _request(self, rng, rank: int) -> Request:
        tenant = self.tenants[rank]
        return Request(
            None,
            [self._state(rng, tenant.schema) for _ in range(self.BATCH)],
            tenant=tenant,
        )

    def warm_requests(self) -> List[Request]:
        rng = random.Random(f"{self.seed}/warm")
        trees = [i for i, t in enumerate(self.tenants) if not t.cyclic][:2]
        cyclic = [i for i, t in enumerate(self.tenants) if t.cyclic][:2]
        return [self._request(rng, index) for index in trees + cyclic]

    def make_round(self, index: int) -> List[List[Request]]:
        rng = random.Random(f"{self.seed}/{index}")
        ranks = self._sequence[
            index * self.round_requests : (index + 1) * self.round_requests
        ]
        return [[self._request(rng, rank) for rank in ranks]]

    def schema_of(self, request: Request) -> DatabaseSchema:
        return request.tenant.schema

    def tier(self, request: Request) -> str:
        schema = request.tenant.schema
        if peek_analysis(schema) is not None:
            return "lru"
        return "catalog" if schema.relations in self._stored else "cold"

    def serve(self, service: QueryService, request: Request) -> list:
        tenant = request.tenant
        analysis = analyze(tenant.schema, catalog=self.catalog)
        if tenant.cyclic:
            prepared = analysis.prepare_cyclic(tenant.target)
        else:
            prepared = analysis.prepare(tenant.target)
        if self.catalog.store(analysis):
            self._stored.add(tenant.schema.relations)
        request.prepared = prepared
        return service.execute_many(prepared, request.states)

    def counts(self) -> Dict[str, object]:
        return {"catalog": self.catalog.stats.as_dict()}


WORKLOADS = {
    cls.name: cls for cls in (StringsServe, IntsAnalytic, TenantChurn)
}
