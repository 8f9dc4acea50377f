"""The row kernel: interned-value execution on tuples of int codes.

The classic executor (:meth:`repro.engine.prepared.PreparedQuery.execute`
with ``backend="classic"``) runs the full-reducer semijoin program and the
bottom-up join on :class:`~repro.relational.relation.Relation` objects: every
step re-derives shared attributes, sorts them, and hashes rows of arbitrary
Python values.  That per-step schema algebra is pure overhead on the
plan-once/execute-many serving path — the plan already fixes, for every step,
which columns are compared and which are kept.

A :class:`CompiledPlan` runs the same program on interned codes.  Its
interner, mode policy, encoding cache, epochs and batch entry points are the
shared core of :mod:`repro.relational.interned`; this module holds only what
is specific to rows of code tuples:

* **Encoding.**  Each relation slot encodes column-major into code tuples.
  Columns of native Python ints take the identity mode (the value *is* the
  code, as in columnar engines that skip dictionary-encoding integer
  columns), so integer data encodes and decodes at near-zero cost; any other
  column is dictionary-interned.  An identity column that later meets a
  non-int value (``2.0``, ``True``, ``"s"``) is promoted to dictionary mode.
* **Positional step programs.**  Each semijoin and join step of the shared
  layout (:func:`~repro.relational.interned.plan_layout`) is compiled to
  prebuilt ``itemgetter`` extractors, so execution never touches attribute
  names.
* **Encode-time key indexes.**  Key sets and join buckets are built at most
  once per (slot, key) and cached on the encoding, where every later step
  that touches the slot — both reducer passes and the join — finds them.
  Batches share encodings across states, so a slot whose rows repeat (e.g.
  fixed dimension tables under a changing fact table) is encoded and indexed
  once per batch, not once per state.

Intermediates never materialize object tuples; only the final result is
decoded back to a classic :class:`~repro.relational.relation.Relation`.
The classic operators remain in place as the property-test oracle
(``tests/relational/test_compiled_equivalence.py``), mirroring how
``repro.tableau.reference`` anchors the interned tableau kernel.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemaError
from .interned import (
    DEFAULT_MAX_INTERNED_VALUES,
    ExecutionStats,
    InternedPlan,
    InternedState,
    _JOIN_SEMI_CHILD,
    _JOIN_SEMI_MOTHER,
    _JoinLayout,
    _MODE_DICT,
    _MODE_IDENTITY,
    _PlanLayout,
    _PromoteToDict,
    _SemijoinLayout,
    _USE_DEFAULT_CAP,
)
from .relation import Relation, _tuple_getter, pure_int_column, pure_int_rows
from .yannakakis import YannakakisRun

__all__ = [
    "CompiledPlan",
    "CompiledState",
    "DEFAULT_MAX_INTERNED_VALUES",
    "ExecutionStats",
    "compile_plan",
]

#: The encoded-state type of both kernels, under its row-kernel name.
CompiledState = InternedState


def _key_getter(positions: Sequence[int]):
    """An extractor for join/semijoin keys over code rows.

    Unlike :func:`~repro.relational.relation._tuple_getter`, a single-column
    key is extracted as the *bare* int code (no 1-tuple wrapping): key sets
    and bucket dictionaries over bare ints hash faster and allocate nothing
    per row.  Both sides of every step use this consistently, so the key
    representations always agree.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


class _Encoding:
    """Encoded rows of one relation slot plus its reusable key indexes.

    ``rows`` is a tuple of row tuples of int codes (one per column, in the
    slot's canonical column order).  ``keysets`` caches, per key-position
    tuple, the set of key tuples occurring in ``rows``; ``buckets`` caches,
    per join-step tag, grouped rows for the join probe.  Encodings held in a
    batch cache are shared across states, so cached indexes amortize across
    every state whose slot carries the same rows.
    """

    __slots__ = ("rows", "keysets", "buckets")

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]) -> None:
        self.rows = rows
        self.keysets: Dict[Tuple[int, ...], set] = {}
        self.buckets: Dict[int, Tuple[Dict[Tuple[int, ...], tuple], Optional[int]]] = {}


class _SemijoinOp:
    """One compiled reducer step: filter ``target`` rows by ``source`` keys."""

    __slots__ = ("target", "source", "tkey", "skey", "tget", "sget")

    def __init__(self, layout: _SemijoinLayout) -> None:
        self.target = layout.target
        self.source = layout.source
        self.tkey = layout.tkey
        self.skey = layout.skey
        self.tget = _key_getter(layout.tkey)
        self.sget = _key_getter(layout.skey)


def _getter_or_none(positions: Optional[Tuple[int, ...]]):
    return None if positions is None else _tuple_getter(positions)


class _JoinOp:
    """One compiled bottom-up join step (child merged into mother).

    The plan composes each step's early projection directly into the child
    extractors, so execution never materializes projected child relations:

    * mother-semijoin shape — ``cget`` reads the key straight off the
      *unprojected* child row; when the step had a projection, the key set
      *is* the projected child (``has_proj`` drives the size accounting).
    * general shape — ``extract`` reads the projected child columns in
      (shared key, new columns) order off the unprojected row; buckets map
      ``row[:kw]`` keys to ``row[kw:]`` parts and output rows are built as
      ``mother_row + part`` (intermediate layouts are chosen at compile time
      to make every join a plain tuple concatenation).
    * child-semijoin shape — projected child rows are the output, so this
      shape keeps an explicit ``proj_get``.
    """

    __slots__ = (
        "kind",
        "mother",
        "node",
        "tag",
        "proj_get",
        "has_proj",
        "mkey",
        "ckey",
        "mget",
        "cget",
        "cnew",
        "extract",
        "kw",
    )

    def __init__(self, layout: _JoinLayout) -> None:
        self.kind = layout.kind
        self.mother = layout.mother
        self.node = layout.node
        self.tag = layout.tag
        self.proj_get = _getter_or_none(layout.proj_pos)
        self.has_proj = layout.has_proj
        self.mkey = layout.mkey
        self.ckey = layout.ckey
        self.mget = _key_getter(layout.mkey)
        self.cget = _key_getter(layout.ckey)
        self.cnew = _getter_or_none(layout.cnew_pos)
        self.extract = _getter_or_none(layout.extract_pos)
        self.kw = layout.kw


class CompiledPlan(InternedPlan):
    """A fully positional, interned-value row program for one prepared query.

    Built once per :class:`~repro.engine.prepared.PreparedQuery` (see its
    ``compiled`` property).  The interner, encoding cache and batch entry
    points live in :class:`~repro.relational.interned.InternedPlan`; this
    class adds the per-step ``itemgetter`` programs and the row kernel.
    """

    backend = "compiled"

    __slots__ = ("_final_get",)

    def _compile(self, layout: _PlanLayout) -> None:
        self._semijoins = tuple(_SemijoinOp(sj) for sj in layout.semijoins)
        self._joins = tuple(_JoinOp(jl) for jl in layout.joins)
        self._final_get = _getter_or_none(layout.final_positions)

    # -- encoding --------------------------------------------------------------

    def _encode_relation(self, slot: int, relation: Relation) -> _Encoding:
        """Encode one relation column-major into code tuples (no cache)."""
        rows = relation.rows
        attrs = self.slot_columns[slot]
        if not attrs or not rows:
            return _Encoding(tuple(rows))
        modes = self._modes
        # Identity fast path: when every column is (or can become)
        # identity-mode and every cell is a native int, the value rows are
        # their own encoding — no per-cell work at all.
        if all(modes[a] != _MODE_DICT for a in attrs) and pure_int_rows(rows):
            for a in attrs:
                if modes[a] is None:
                    modes[a] = _MODE_IDENTITY
            return _Encoding(tuple(rows))
        coded_columns: List[Sequence[Any]] = []
        for attribute, column in zip(attrs, zip(*rows)):
            mode = modes[attribute]
            if mode != _MODE_DICT:
                # Classified once: native ints carry themselves as codes;
                # anything else pins a fresh attribute to dictionary mode
                # or promotes a pinned identity one.
                if pure_int_column(column):
                    if mode is None:
                        modes[attribute] = _MODE_IDENTITY
                    coded_columns.append(column)
                    continue
                if mode is not None:
                    raise _PromoteToDict(attribute)
                modes[attribute] = _MODE_DICT
            coded_columns.append(self._intern_column(attribute, column))
        return _Encoding(tuple(zip(*coded_columns)))

    # Bound in the class body (not only inherited) so per-kernel
    # instrumentation can wrap each kernel's encode on its own class.
    encode_state = InternedPlan.encode_state

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        encoded: InternedState,
        stats: Optional[ExecutionStats] = None,
    ) -> YannakakisRun:
        """Run the row program against one encoded state.

        Semantics — result, semijoin/join counts and the intermediate-size
        accounting — match the classic executor exactly; the equivalence
        suites check this on random schemas and states.
        """
        if encoded.plan is not self:
            raise SchemaError("the encoded state belongs to a different plan")
        if not self.slot_columns:
            return self._empty_schema_run(stats)
        # ``views`` holds one encoding per slot (``keysets``/``buckets``
        # filled lazily) and is rebound as steps replace slot views.
        views: List[_Encoding] = list(encoded.encodings)

        # Phase 1: the full-reducer semijoin program.  Key-set lookups are
        # inlined (this loop runs per state on the serving path).
        for op in self._semijoins:
            source_view = views[op.source]
            source_keys = source_view.keysets.get(op.skey)
            if source_keys is None:
                source_keys = set(map(op.sget, source_view.rows))
                source_view.keysets[op.skey] = source_keys
                if stats is not None:
                    lineage = (op.source, op.skey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            target_view = views[op.target]
            target_keys = target_view.keysets.get(op.tkey)
            if target_keys is None:
                target_keys = set(map(op.tget, target_view.rows))
                target_view.keysets[op.tkey] = target_keys
                if stats is not None:
                    lineage = (op.target, op.tkey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            if target_keys <= source_keys:
                if stats is not None:
                    stats.identity_semijoins += 1
                continue
            getter = op.tget
            kept = tuple(
                row for row in target_view.rows if getter(row) in source_keys
            )
            filtered = _Encoding(kept)
            filtered.keysets[op.tkey] = target_keys & source_keys
            views[op.target] = filtered
            if stats is not None:
                stats.filtering_semijoins += 1
        max_intermediate = max((len(view.rows) for view in views), default=0)

        # Phase 2: the bottom-up join with early projection.
        for op in self._joins:
            child_view = views[op.node]
            mother_view = views[op.mother]
            if op.kind == _JOIN_SEMI_MOTHER:
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    # The (projected) child's columns are exactly the key, so
                    # its key set is its row set — read in one composed pass.
                    keys = set(map(op.cget, child_view.rows))
                    proj_len: Optional[int] = len(keys) if op.has_proj else None
                    child_view.buckets[op.tag] = (keys, proj_len)  # type: ignore[assignment]
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                else:
                    keys, proj_len = cached  # type: ignore[assignment]
                if proj_len is not None and proj_len > max_intermediate:
                    max_intermediate = proj_len
                # Identity detection keeps the mother's view object — and
                # with it every cached index a later step (where this slot is
                # the child) would otherwise rebuild.  On consistent states
                # the mother's key set is usually already cached from the
                # reducer phase, making the check allocation-free.
                mother_keys = mother_view.keysets.get(op.mkey)
                if mother_keys is not None and mother_keys <= keys:
                    joined = mother_view
                else:
                    getter = op.mget
                    kept = tuple(
                        row for row in mother_view.rows if getter(row) in keys
                    )
                    if len(kept) == len(mother_view.rows):
                        joined = mother_view
                    else:
                        joined = _Encoding(kept)
            elif op.kind == _JOIN_SEMI_CHILD:
                if op.proj_get is not None:
                    # The projected child is a function of the (possibly
                    # shared) child view alone — cache it there, like the
                    # other join shapes cache their buckets.
                    cached = child_view.buckets.get(op.tag)
                    if cached is None:
                        child_rows: Iterable = tuple(
                            set(map(op.proj_get, child_view.rows))
                        )
                        child_view.buckets[op.tag] = (child_rows, len(child_rows))  # type: ignore[assignment]
                        if stats is not None:
                            lineage = (op.node, op.ckey)
                            builds = stats.bucket_builds
                            builds[lineage] = builds.get(lineage, 0) + 1
                    else:
                        child_rows = cached[0]
                    if len(child_rows) > max_intermediate:  # type: ignore[arg-type]
                        max_intermediate = len(child_rows)  # type: ignore[arg-type]
                else:
                    child_rows = child_view.rows
                mother_keys = mother_view.keysets.get(op.mkey)
                if mother_keys is None:
                    mother_keys = set(map(op.mget, mother_view.rows))
                    mother_view.keysets[op.mkey] = mother_keys
                    if stats is not None:
                        lineage = (op.mother, op.mkey)
                        builds = stats.keyset_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                getter = op.cget
                kept = tuple(row for row in child_rows if getter(row) in mother_keys)
                if op.proj_get is None and len(kept) == len(child_view.rows):
                    joined = child_view
                else:
                    joined = _Encoding(kept)
            else:
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    # Buckets store the pre-extracted *new* child columns, so
                    # the probe loop below is a bare tuple concatenation.
                    grouped: Dict[Any, list] = {}
                    setdefault = grouped.setdefault
                    if op.extract is not None:
                        # Composed projection: dedup the (key, new) extraction
                        # (≡ the projected child), then split by fixed width.
                        extracted = set(map(op.extract, child_view.rows))
                        proj_len = len(extracted)
                        kw = op.kw
                        if kw == 1:
                            for row in extracted:
                                setdefault(row[0], []).append(row[1:])
                        else:
                            for row in extracted:
                                setdefault(row[:kw], []).append(row[kw:])
                    else:
                        proj_len = None
                        cget = op.cget
                        cnew = op.cnew
                        for row in child_view.rows:
                            setdefault(cget(row), []).append(cnew(row))
                    buckets = {key: tuple(parts) for key, parts in grouped.items()}
                    child_view.buckets[op.tag] = (buckets, proj_len)
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                else:
                    buckets, proj_len = cached
                if proj_len is not None and proj_len > max_intermediate:
                    max_intermediate = proj_len
                # Distinct (mother row, part) pairs concatenate injectively —
                # key + new part cover every child column — so the output
                # rows are distinct by construction and need no dedup set.
                combined: List[Tuple[int, ...]] = []
                append = combined.append
                mget = op.mget
                get_bucket = buckets.get
                for mrow in mother_view.rows:
                    bucket = get_bucket(mget(mrow))
                    if bucket:
                        for part in bucket:
                            append(mrow + part)
                joined = _Encoding(tuple(combined))
            if len(joined.rows) > max_intermediate:
                max_intermediate = len(joined.rows)
            views[op.mother] = joined

        # Final projection + decode: the only value-level materialization
        # (and a no-op for pure identity-mode columns).
        root_rows = views[self.root].rows
        final_get = self._final_get
        final_rows: Iterable = (
            root_rows if final_get is None else set(map(final_get, root_rows))
        )
        result = Relation.from_interned(
            self._final_schema, self._final_columns, final_rows, encoded.decoders
        )
        return self._run(result, max_intermediate, stats)


def compile_plan(
    prepared, *, max_interned_values: Optional[int] = _USE_DEFAULT_CAP
) -> CompiledPlan:
    """Compile a :class:`~repro.engine.prepared.PreparedQuery` (see the
    module notes; normally reached through ``prepared.compiled``).

    ``max_interned_values`` caps the plan's interner before an epoch rollover
    (:data:`DEFAULT_MAX_INTERNED_VALUES` when omitted, ``None`` = unbounded).
    """
    return CompiledPlan(prepared, max_interned_values=max_interned_values)
