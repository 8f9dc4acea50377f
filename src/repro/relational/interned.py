"""The interned-plan core shared by the row and array execution kernels.

A prepared query over a tree schema runs the paper's full reducer and the
bottom-up join on *codes*, not values: every attribute owns an interning
dictionary mapping values to integer codes, so rows compare and hash as ints
and only the final answer is decoded.  Two kernels execute such plans —
:mod:`repro.relational.compiled` (tuple rows, ``itemgetter`` programs) and
:mod:`repro.relational.vectorized` (numpy int64 code columns) — and this
module owns everything they share:

* **The positional layout.**  :func:`plan_layout` replays the plan's column
  algebra once into integer positions and join shapes; each kernel turns it
  into its own step program, which is what keeps their step semantics and
  their :class:`ExecutionStats` lineages identical by construction.
* **The mode policy.**  Each attribute's encoding mode is pinned the first
  time a column of it is classified: *identity* (the value is its own code)
  when the kernel can carry every cell as a code, *dictionary* (dense codes
  from the interning dictionary) otherwise.  A pinned identity column that
  later meets a value the kernel cannot carry is **promoted** to dictionary
  mode: slot encodings holding identity codes for the attribute are dropped
  and the in-progress state encode restarts, so one state never mixes modes.
  Promotions are monotone and counted in :attr:`InternedPlan.mode_promotions`.
  Equality across the numeric tower (``1 == 1.0 == True``) holds in
  dictionary mode for free: equal values are equal dictionary keys.
* **The lifecycle.**  :class:`InternedPlan` holds the interner, the encode
  lock and a bounded per-slot LRU of encodings whose slots turn themselves
  off after a miss streak.  Growth is bounded: each plan carries a
  ``max_interned_values`` cap (default :data:`DEFAULT_MAX_INTERNED_VALUES`),
  and when the interned-value count overflows it, the next state encode opens
  a new interner *epoch* — interning maps are rebuilt and every cached slot
  encoding is dropped.  Each :class:`InternedState` captures its epoch's
  decoders at encode time, so codes never leak across an epoch boundary.
  :meth:`repro.engine.prepared.PreparedQuery.reset_compiled` remains the
  heavier hammer (drops the whole plan).

Process boundaries: a plan is **not** picklable by design — its interner is
a process-local, mutable object.  The pickle-safe boundary is
:class:`repro.engine.parallel.PlanSpec`; each worker rebuilds and caches its
own plan, and every answer a worker ships back is decoded to plain values
first, so integer codes never cross a process boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemaError
from ..hypergraph.schema import Attribute
from .database import DatabaseState
from .relation import Relation
from .yannakakis import YannakakisRun

__all__ = [
    "DEFAULT_MAX_INTERNED_VALUES",
    "ExecutionStats",
    "InternedPlan",
    "InternedState",
    "dedup_states",
    "plan_layout",
]

#: Default cap on distinct interned values per plan.  Overflow opens a new
#: interner epoch at the next state-encode boundary; see the module notes.
#: Sized so that ordinary serving never trips it while a long-lived process
#: churning through unbounded string domains stays bounded.
DEFAULT_MAX_INTERNED_VALUES = 1 << 20

#: Sentinel distinguishing "use the default cap" from an explicit ``None``
#: (= unbounded) in the plan constructors.
_USE_DEFAULT_CAP: Any = object()


class ExecutionStats:
    """Instrumentation for one interned-plan execution or batch.

    ``keyset_builds`` and ``bucket_builds`` are lineage-attributed: they map
    ``(slot index, key column positions)`` to the number of times that index
    was actually constructed.  On a batch over states whose slot contents
    repeat (and are not filtered by the reducer), each count stays at 1 —
    the property the call-count tests pin down.
    """

    __slots__ = (
        "states",
        "deduped_states",
        "encoded_slots",
        "cached_slots",
        "keyset_builds",
        "bucket_builds",
        "identity_semijoins",
        "filtering_semijoins",
        "interner_resets",
    )

    def __init__(self) -> None:
        self.states = 0
        self.deduped_states = 0
        self.encoded_slots = 0
        self.cached_slots = 0
        self.keyset_builds: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.bucket_builds: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.identity_semijoins = 0
        self.filtering_semijoins = 0
        #: Interner epochs opened while this batch ran (``max_interned_values``
        #: overflows observed at state-encode boundaries).
        self.interner_resets = 0

    def absorb(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (used by stats merging
        across shards/workers; lineage counts are summed per (slot, key))."""
        self.states += other.states
        self.deduped_states += other.deduped_states
        self.encoded_slots += other.encoded_slots
        self.cached_slots += other.cached_slots
        self.identity_semijoins += other.identity_semijoins
        self.filtering_semijoins += other.filtering_semijoins
        self.interner_resets += other.interner_resets
        for lineage, count in other.keyset_builds.items():
            self.keyset_builds[lineage] = self.keyset_builds.get(lineage, 0) + count
        for lineage, count in other.bucket_builds.items():
            self.bucket_builds[lineage] = self.bucket_builds.get(lineage, 0) + count

    def total_keyset_builds(self) -> int:
        """Total number of key-set constructions across all (slot, key) pairs."""
        return sum(self.keyset_builds.values())

    def total_bucket_builds(self) -> int:
        """Total number of join-bucket constructions across all (slot, key) pairs."""
        return sum(self.bucket_builds.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExecutionStats(states={self.states}, "
            f"encoded_slots={self.encoded_slots}, cached_slots={self.cached_slots}, "
            f"keyset_builds={self.total_keyset_builds()}, "
            f"bucket_builds={self.total_bucket_builds()})"
        )


def dedup_states(
    states: Iterable[DatabaseState],
) -> Tuple[List[DatabaseState], List[int]]:
    """Split a batch into its distinct states and each input's position.

    Returns ``(unique, positions)``: ``unique`` keeps first occurrences in
    input order and ``positions[i]`` indexes the entry of ``unique`` equal
    to input ``i``.  Every batch entry point executes ``unique`` only and
    answers input ``i`` with run ``positions[i]``, so states repeated
    verbatim (duplicate requests) run once and share the immutable run;
    ``len(positions) - len(unique)`` is the batch's ``deduped_states``.
    """
    unique: List[DatabaseState] = []
    index_of: Dict[DatabaseState, int] = {}
    positions: List[int] = []
    for state in states:
        index = index_of.get(state)
        if index is None:
            index = index_of[state] = len(unique)
            unique.append(state)
        positions.append(index)
    return unique, positions


#: Per-attribute encoding modes, pinned the first time the attribute is seen.
_MODE_IDENTITY = 0  # codes are the int values themselves
_MODE_DICT = 1  # codes are dense ints assigned by the interning dictionary


class _PromoteToDict(Exception):
    """Internal: a pinned identity column met a value the kernel cannot carry.

    Raised by a kernel's ``_encode_relation`` and handled by the encode loop
    of :meth:`InternedPlan.encode_state`: the attribute's mode flips to
    dictionary, stale caches are dropped, and the state encode restarts from
    its first slot (modes only ever move identity → dict, so the restart
    loop terminates).
    """

    def __init__(self, attribute: Any) -> None:
        super().__init__(attribute)
        self.attribute = attribute


# -- the positional layout -----------------------------------------------------

#: Join-step shapes resolved at compile time (see :func:`plan_layout`).
_JOIN_SEMI_MOTHER = 0  # child ⊆ mother: mother := mother ⋉ child
_JOIN_SEMI_CHILD = 1  # mother ⊆ child: mother := child ⋉ mother
_JOIN_GENERAL = 2  # hash join combining rows


class _SemijoinLayout:
    """Position-only description of one reducer step (see :func:`plan_layout`)."""

    __slots__ = ("target", "source", "tkey", "skey")

    def __init__(
        self,
        target: int,
        source: int,
        tkey: Tuple[int, ...],
        skey: Tuple[int, ...],
    ) -> None:
        self.target = target
        self.source = source
        self.tkey = tkey
        self.skey = skey


class _JoinLayout:
    """Position-only description of one join step (see :func:`plan_layout`).

    ``proj_pos`` (child-semijoin shape), ``extract_pos`` and ``cnew_pos``
    (general shape) carry the column positions of the step's early
    projection; ``None`` marks a position program the shape does not use.
    ``ckey`` holds positions in the *unprojected* child row for the
    mother-semijoin shape, positions in the projected child layout otherwise
    (the pair also keys stats lineages).
    """

    __slots__ = (
        "kind",
        "mother",
        "node",
        "tag",
        "has_proj",
        "mkey",
        "ckey",
        "kw",
        "proj_pos",
        "extract_pos",
        "cnew_pos",
    )

    def __init__(
        self,
        kind: int,
        mother: int,
        node: int,
        tag: int,
        *,
        has_proj: bool = False,
        mkey: Tuple[int, ...] = (),
        ckey: Tuple[int, ...] = (),
        kw: int = 0,
        proj_pos: Optional[Tuple[int, ...]] = None,
        extract_pos: Optional[Tuple[int, ...]] = None,
        cnew_pos: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.kind = kind
        self.mother = mother
        self.node = node
        self.tag = tag
        self.has_proj = has_proj
        self.mkey = mkey
        self.ckey = ckey
        self.kw = kw
        self.proj_pos = proj_pos
        self.extract_pos = extract_pos
        self.cnew_pos = cnew_pos


class _PlanLayout:
    """The fully positional step program shared by the execution kernels.

    ``final_positions`` is ``None`` when the root's final layout already
    matches the target's canonical column order (projection is a no-op).
    """

    __slots__ = ("semijoins", "joins", "final_positions")

    def __init__(
        self,
        semijoins: Tuple[_SemijoinLayout, ...],
        joins: Tuple[_JoinLayout, ...],
        final_positions: Optional[Tuple[int, ...]],
    ) -> None:
        self.semijoins = semijoins
        self.joins = joins
        self.final_positions = final_positions


def plan_layout(prepared) -> _PlanLayout:
    """Replay the plan's column algebra symbolically into a positional layout.

    The columns every slot carries at each join step are a function of the
    plan alone (the same recurrence :class:`~repro.engine.prepared
    .PreparedQuery` uses to place its early projections), so the shape of
    every join — semijoin degeneration included — is decided here, once.
    Intermediate column layouts are *not* kept sorted: a general join's
    output layout is the mother's layout followed by the child's new
    columns, so the execution-time combine is a bare concatenation and only
    the final projection re-establishes the canonical order.
    """
    schema = prepared.schema
    columns: Tuple[Tuple[Attribute, ...], ...] = tuple(
        relation.sorted_attributes() for relation in schema.relations
    )
    positions = tuple(
        {column: index for index, column in enumerate(cols)} for cols in columns
    )
    semijoins: List[_SemijoinLayout] = []
    for step in prepared.semijoin_steps:
        tcols, scols = columns[step.target], columns[step.source]
        shared = sorted(set(tcols) & set(scols))
        semijoins.append(
            _SemijoinLayout(
                step.target,
                step.source,
                tuple(positions[step.target][a] for a in shared),
                tuple(positions[step.source][a] for a in shared),
            )
        )

    current: Dict[int, Tuple[Attribute, ...]] = {
        index: cols for index, cols in enumerate(columns)
    }
    joins: List[_JoinLayout] = []
    for tag, step in enumerate(prepared.join_steps):
        orig_child_cols = current[step.node]
        orig_positions = {c: i for i, c in enumerate(orig_child_cols)}
        child_cols = orig_child_cols
        has_proj = step.projection is not None
        if has_proj:
            child_cols = step.projection.sorted_attributes()
        mother_cols = current[step.mother]
        mother_positions = {c: i for i, c in enumerate(mother_cols)}
        mother_set = set(mother_cols)
        shared = sorted(mother_set & set(child_cols))
        mkey = tuple(mother_positions[c] for c in shared)
        if len(shared) == len(child_cols):
            # Projection (if any) keeps exactly the key columns, so the key
            # set read off the unprojected rows IS the projected child; no
            # materialization needed.
            joins.append(
                _JoinLayout(
                    _JOIN_SEMI_MOTHER,
                    step.mother,
                    step.node,
                    tag,
                    has_proj=has_proj,
                    mkey=mkey,
                    ckey=tuple(orig_positions[c] for c in shared),
                )
            )
            current[step.mother] = mother_cols
            continue
        child_positions = {c: i for i, c in enumerate(child_cols)}
        ckey = tuple(child_positions[c] for c in shared)
        if len(shared) == len(mother_cols):
            proj_pos = (
                tuple(orig_positions[c] for c in child_cols) if has_proj else None
            )
            joins.append(
                _JoinLayout(
                    _JOIN_SEMI_CHILD,
                    step.mother,
                    step.node,
                    tag,
                    has_proj=has_proj,
                    mkey=mkey,
                    ckey=ckey,
                    proj_pos=proj_pos,
                )
            )
            current[step.mother] = child_cols
            continue
        new_cols = tuple(c for c in child_cols if c not in mother_set)
        if has_proj:
            # One pass extracts (key, new) in that order off the unprojected
            # rows; since key ∪ new covers every projected column, deduping
            # the extraction IS the projection.
            extract_pos: Optional[Tuple[int, ...]] = tuple(
                [orig_positions[c] for c in shared]
                + [orig_positions[c] for c in new_cols]
            )
            cnew_pos: Optional[Tuple[int, ...]] = None
        else:
            extract_pos = None
            cnew_pos = tuple(child_positions[c] for c in new_cols)
        joins.append(
            _JoinLayout(
                _JOIN_GENERAL,
                step.mother,
                step.node,
                tag,
                has_proj=has_proj,
                mkey=mkey,
                ckey=ckey,
                kw=len(shared),
                extract_pos=extract_pos,
                cnew_pos=cnew_pos,
            )
        )
        current[step.mother] = mother_cols + new_cols

    final_columns = prepared.final_projection.sorted_attributes()
    final_positions: Optional[Tuple[int, ...]]
    if columns:
        root_cols = current[prepared.root]
        if final_columns == root_cols:
            final_positions = None
        else:
            root_positions = {c: i for i, c in enumerate(root_cols)}
            final_positions = tuple(root_positions[c] for c in final_columns)
    else:
        final_positions = None
    return _PlanLayout(tuple(semijoins), tuple(joins), final_positions)


# -- the plan core ---------------------------------------------------------------


class InternedPlan:
    """The kernel-independent part of an interned-value plan.

    Owns the per-attribute interning dictionaries and modes shared by every
    state the plan ever executes, the encode lock, the bounded per-slot
    encoding cache, epoch rollover, decoders and the batch entry points.  A
    kernel subclass supplies ``backend`` (the name its runs report),
    ``_compile(layout)`` (turn the positional layout into its step program,
    setting ``_semijoins`` and ``_joins``), ``_encode_relation(slot,
    relation)`` (one slot's encoding, raising :class:`_PromoteToDict` when a
    pinned identity column meets a value it cannot carry) and ``execute``.
    """

    #: Cap on cached encodings per slot — bounds what long-running serving
    #: processes can accumulate while keeping whole batches of repeated
    #: relations resident.  Sized above typical batch fan-outs: an LRU whose
    #: cap sits just *below* the working set degrades to 100% misses under
    #: sequentially repeated batches.
    _ENCODE_CACHE_MAX = 1024

    #: Consecutive misses after which a slot's encode cache turns itself off.
    #: A slot whose relation never repeats (a per-request fact table) pays
    #: hashing and LRU bookkeeping for nothing; shared slots keep hitting and
    #: never trip this.  ``clear_encode_cache`` and an epoch rollover re-arm
    #: a tripped slot.
    _CACHE_MISS_STREAK_MAX = 512

    backend = ""

    __slots__ = (
        "schema",
        "target",
        "root",
        "slot_columns",
        "_modes",
        "_intern",
        "_values",
        "_encode_lock",
        "_semijoins",
        "_joins",
        "_final_schema",
        "_final_columns",
        "_slot_cache",
        "_cache_meta",
        "max_interned_values",
        "interner_epoch",
        "mode_promotions",
    )

    def __init__(
        self, prepared, *, max_interned_values: Optional[int] = _USE_DEFAULT_CAP
    ) -> None:
        schema = prepared.schema
        self.schema = schema
        self.target = prepared.target
        self.root = prepared.root
        columns: Tuple[Tuple[Attribute, ...], ...] = tuple(
            relation.sorted_attributes() for relation in schema.relations
        )
        self.slot_columns = columns
        self._modes: Dict[Attribute, Optional[int]] = {
            attribute: None for attribute in schema.attributes
        }
        self._intern: Dict[Attribute, Dict[Any, int]] = {
            attribute: {} for attribute in schema.attributes
        }
        self._values: Dict[Attribute, List[Any]] = {
            attribute: [] for attribute in schema.attributes
        }
        self._encode_lock = threading.Lock()
        self._slot_cache: Tuple["OrderedDict[Relation, Any]", ...] = tuple(
            OrderedDict() for _ in columns
        )
        # Per slot: [consecutive miss count, cache disabled flag].
        self._cache_meta: List[List[int]] = [[0, 0] for _ in columns]
        #: Interned-value cap; ``None`` disables epoch rollover entirely.
        #: Plain-assignable: serving processes may tune it on a live plan
        #: (the cap is only read at state-encode boundaries).
        self.max_interned_values: Optional[int] = (
            DEFAULT_MAX_INTERNED_VALUES
            if max_interned_values is _USE_DEFAULT_CAP
            else max_interned_values
        )
        #: Number of interner epochs opened so far (0 = the original epoch).
        self.interner_epoch = 0
        #: Identity→dictionary mode promotions forced by values arriving in a
        #: pinned identity column that the kernel cannot carry as codes.
        self.mode_promotions = 0
        final = prepared.final_projection
        self._final_schema = final
        self._final_columns = final.sorted_attributes()
        self._compile(plan_layout(prepared))

    def _compile(self, layout: _PlanLayout) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _encode_relation(self, slot: int, relation: Relation) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- encoding --------------------------------------------------------------

    def _intern_column(self, attribute: Attribute, column: Iterable[Any]) -> List[int]:
        """Dictionary codes for one column, interning novel values.

        Hot path of string-heavy encoding.  On the serving steady state the
        interner has already seen every value the column carries (fresh
        states drawing from a stable domain), so the whole column encodes as
        one C-level ``map`` over the interning dictionary — measured ~1.8×
        over the per-cell loop (see docs/performance.md).  A novel value
        raises ``KeyError`` and falls back to :meth:`_intern_novel`; the map
        attempt is gated on a non-empty interner so a cold column never pays
        a guaranteed-failing scan.
        """
        intern_map = self._intern[attribute]
        if intern_map:
            try:
                return list(map(intern_map.__getitem__, column))
            except KeyError:
                pass
        return self._intern_novel(attribute, column)

    def _intern_novel(self, attribute: Attribute, column: Iterable[Any]) -> List[int]:
        """The per-cell interning loop (assigns codes to unseen values)."""
        intern_map = self._intern[attribute]
        values = self._values[attribute]
        get = intern_map.get
        codes: List[int] = []
        append = codes.append
        for value in column:
            code = get(value)
            if code is None:
                code = len(values)
                intern_map[value] = code
                values.append(value)
            append(code)
        return codes

    def _decoders(self) -> Tuple[Optional[Any], ...]:
        """Per-final-column decoders for the *current* interner epoch.

        ``None`` for identity columns (the codes are the values); dictionary
        columns index their epoch's value list.  Captured onto each
        :class:`InternedState` at encode time (under the encode lock), so a
        state always decodes against the epoch that minted its codes — even
        if the plan has rolled its interner over since.
        """
        modes, values = self._modes, self._values
        return tuple(
            values[attribute].__getitem__ if modes[attribute] == _MODE_DICT else None
            for attribute in self._final_columns
        )

    def _encode_slots_locked(
        self, relations: Sequence[Relation], use_cache: bool
    ) -> Tuple[List[Any], int]:
        """One cache-assisted encode pass over every slot (lock held).

        Returns the slot encodings and how many were freshly encoded (the
        rest were cache hits).
        """
        encodings: List[Any] = []
        encoded = 0
        for slot, relation in enumerate(relations):
            meta = self._cache_meta[slot]
            caching = use_cache and not meta[1]
            if caching:
                cache = self._slot_cache[slot]
                encoding = cache.get(relation)
                if encoding is not None:
                    cache.move_to_end(relation)
                    meta[0] = 0
                    encodings.append(encoding)
                    continue
            encoding = self._encode_relation(slot, relation)
            encoded += 1
            if caching:
                cache = self._slot_cache[slot]
                cache[relation] = encoding
                if len(cache) > self._ENCODE_CACHE_MAX:
                    cache.popitem(last=False)
                meta[0] += 1
                if meta[0] > self._CACHE_MISS_STREAK_MAX:
                    meta[1] = 1
                    cache.clear()
            encodings.append(encoding)
        return encodings, encoded

    def encode_state(
        self,
        state: DatabaseState,
        *,
        use_cache: bool = True,
        stats: Optional[ExecutionStats] = None,
    ) -> "InternedState":
        """Encode a database state against this plan's interner.

        With ``use_cache`` (the default), encodings are looked up in the
        per-slot bounded cache keyed by the relation value, so states that
        repeat a slot's rows share one encoding — and therefore one set of
        key indexes.  The interner-cap check runs first (an overflow opens a
        new epoch), and a mode promotion restarts the pass; stats are
        committed only after a successful pass, so a restarted encode is not
        double-counted.  Encoding mutates the shared interning dictionaries
        and is serialized by a per-plan lock.  Execution never mutates rows,
        but it does lazily *fill* the per-encoding index caches outside that
        lock: concurrent threads may race to insert the same immutable index
        (a benign duplicate build under the GIL; on free-threaded builds
        those dict writes are unsynchronized and would need the lock).
        """
        schema = state.schema
        if schema is not self.schema and schema != self.schema:
            raise SchemaError("the state is for a different schema than the query")
        with self._encode_lock:
            cap = self.max_interned_values
            if cap is not None and self.interned_value_count() > cap:
                self._open_interner_epoch_locked()
                if stats is not None:
                    stats.interner_resets += 1
            while True:
                try:
                    encodings, encoded = self._encode_slots_locked(
                        state.relations, use_cache
                    )
                    break
                except _PromoteToDict as promote:
                    self._promote_locked(promote.attribute)
            decoders = self._decoders()
        if stats is not None:
            stats.states += 1
            stats.encoded_slots += encoded
            stats.cached_slots += len(encodings) - encoded
        return InternedState(self, state, tuple(encodings), decoders)

    def _promote_locked(self, attribute: Attribute) -> None:
        """Flip a pinned identity attribute to dictionary mode (lock held).

        Cached encodings of slots containing the attribute carry identity
        codes for it and must go; a slot without the attribute is untouched
        by the mode flip, so its cache (and future hits) survive.
        """
        self._modes[attribute] = _MODE_DICT
        self.mode_promotions += 1
        for slot, columns in enumerate(self.slot_columns):
            if attribute in columns:
                self._slot_cache[slot].clear()

    # -- execution -------------------------------------------------------------

    def _empty_schema_run(self, stats: Optional[ExecutionStats]) -> YannakakisRun:
        """The run over the empty schema: ⋈ ∅ is the nullary-true relation
        (the same constant ``PreparedQuery.execute`` returns before routing
        to a kernel)."""
        return YannakakisRun(
            result=Relation.nullary_true(),
            semijoin_count=0,
            join_count=0,
            max_intermediate_size=1,
            backend=self.backend,
            stats=stats,
        )

    def _run(
        self, result: Relation, max_intermediate: int, stats: Optional[ExecutionStats]
    ) -> YannakakisRun:
        """Wrap a kernel's decoded result with the plan's step accounting."""
        return YannakakisRun(
            result=result,
            semijoin_count=len(self._semijoins),
            join_count=len(self._joins),
            max_intermediate_size=max(max_intermediate, len(result)),
            backend=self.backend,
            stats=stats,
        )

    def execute_state(
        self, state: DatabaseState, stats: Optional[ExecutionStats] = None
    ) -> YannakakisRun:
        """Encode (cache-assisted) and execute one state."""
        return self.execute(self.encode_state(state, stats=stats), stats=stats)

    def execute_batch(
        self,
        states: Iterable[DatabaseState],
        stats: Optional[ExecutionStats] = None,
    ) -> List[YannakakisRun]:
        """Execute many states as one batch with shared instrumentation.

        All states share the plan's interner and per-slot encoding cache, so
        slots whose rows repeat across states are encoded — and their key
        indexes built — once for the whole batch; states repeated verbatim
        are executed once (:func:`dedup_states`).  Every returned run
        carries the same :class:`ExecutionStats` object describing the
        batch; a wrapping plan (the cyclic prologue adapter of
        :mod:`repro.engine.cyclic`) may pass its own ``stats`` to fold
        pre-batch accounting into the same object.
        """
        if stats is None:
            stats = ExecutionStats()
        unique, positions = dedup_states(states)
        runs = [self.execute_state(state, stats=stats) for state in unique]
        stats.deduped_states += len(positions) - len(unique)
        return [runs[index] for index in positions]

    # -- maintenance -----------------------------------------------------------

    def _open_interner_epoch_locked(self) -> None:
        """Rebuild the interner and retire every encoding of the old epoch.

        Called at a state-encode boundary with the encode lock held, *before*
        the incoming state is encoded: the interning maps and value lists are
        **replaced with fresh objects** — never cleared in place — and the
        slot encoding caches are dropped wholesale (re-arming tripped ones),
        because every cached encoding holds codes minted by the retired
        epoch and must never mix with codes of the new one.  Attribute
        *modes* — including past promotions — stay pinned (they describe
        column shape, not code assignment).

        Replacement rather than clearing is what makes rollover safe for
        everything in flight: each :class:`InternedState` captures its
        epoch's decoders — bound to that epoch's value-list objects — at
        encode time, so states encoded before a rollover (including ones a
        concurrent thread is executing right now, and ones a caller pinned
        long-term) keep decoding against the retired epoch's intact lists.
        The retired objects die with the last such state.
        """
        self._intern = {attribute: {} for attribute in self._intern}
        self._values = {attribute: [] for attribute in self._values}
        self._reset_caches()
        self.interner_epoch += 1

    def _reset_caches(self) -> None:
        for cache in self._slot_cache:
            cache.clear()
        for meta in self._cache_meta:
            meta[0] = 0
            meta[1] = 0

    def cache_sizes(self) -> Tuple[int, ...]:
        """Cached encodings per slot (diagnostic)."""
        return tuple(len(cache) for cache in self._slot_cache)

    def clear_encode_cache(self) -> None:
        """Drop cached slot encodings and re-arm tripped slot caches (the
        interner is left intact)."""
        with self._encode_lock:
            self._reset_caches()

    def interned_value_count(self) -> int:
        """Total distinct values interned across all attributes (diagnostic).

        Identity-mode values are never interned, so this counts only
        dictionary-mode values.
        """
        return sum(len(intern_map) for intern_map in self._intern.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(schema={self.schema.to_notation()!r}, "
            f"target={self.target.to_notation()!r}, "
            f"semijoins={len(self._semijoins)}, joins={len(self._joins)})"
        )


class InternedState:
    """One database state encoded against a plan's interner.

    Holds one (possibly cache-shared) kernel encoding per relation slot —
    code-tuple rows for the row kernel, int64 code columns for the array
    kernel — plus the decoders of the interner epoch that minted its codes
    (so the state stays executable across epoch rollovers).  ``state`` is
    the source :class:`DatabaseState`.  Immutable from the executor's point
    of view: execution replaces slot views instead of mutating them, so an
    encoded state can be executed any number of times.  Under the GIL
    concurrent executions are safe (they may redundantly fill an encoding's
    index caches); on free-threaded builds those lazy cache fills are
    unsynchronized.
    """

    __slots__ = ("plan", "state", "encodings", "decoders")

    def __init__(
        self,
        plan: InternedPlan,
        state: DatabaseState,
        encodings: Tuple[Any, ...],
        decoders: Optional[Tuple[Optional[Any], ...]] = None,
    ) -> None:
        self.plan = plan
        self.state = state
        self.encodings = encodings
        # Direct constructions (tests, tooling) default to the plan's
        # current-epoch decoders; encode_state always passes the captured
        # ones explicitly.
        self.decoders = plan._decoders() if decoders is None else decoders

    @classmethod
    def from_state(
        cls,
        plan: InternedPlan,
        state: DatabaseState,
        *,
        use_cache: bool = True,
        stats: Optional[ExecutionStats] = None,
    ) -> "InternedState":
        """Encode ``state`` for ``plan`` (the public entry point)."""
        return plan.encode_state(state, use_cache=use_cache, stats=stats)

    def execute(self, stats: Optional[ExecutionStats] = None) -> YannakakisRun:
        """Run the owning plan against this encoded state."""
        return self.plan.execute(self, stats=stats)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"InternedState({self.plan!r})"
