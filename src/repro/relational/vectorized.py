"""The array kernel: interned-value execution on numpy int64 code columns.

The row kernel (:mod:`repro.relational.compiled`) runs the plan's positional
step programs as per-row Python: key sets are built by mapping
``itemgetter`` over tuple rows, semijoins probe Python sets row by row, and
general joins concatenate tuples in a Python loop.  Since every intermediate
is already a table of dense ``int`` codes, all of that is vector work in
disguise.  A :class:`VectorizedPlan` runs the same layout
(:func:`repro.relational.interned.plan_layout`, so the step semantics — and
the stats lineages — are identical by construction) over contiguous int64
**code arrays**.  Its interner, mode policy, encoding cache, epochs and batch
entry points are the shared core of :mod:`repro.relational.interned`; this
module holds only the array encoding and the numpy kernels:

* **Representation.**  Each relation slot encodes column-major into one
  contiguous ``numpy`` int64 array per column.  Composite
  join keys pack their columns into a C-contiguous ``(n, k)`` block viewed as
  a ``numpy`` void dtype — one fixed-width scalar per row — so every kernel
  below works uniformly for single- and multi-column keys.
* **Semijoins as membership masks.**  A key set is the sorted unique key
  array (``np.unique``); membership is a batch binary search
  (``searchsorted`` + one vectorized equality), and filtering is a boolean
  gather.  Subset checks (the identity-semijoin detection the row kernel
  does with ``set <= set``) are the same mask, reduced with ``all()``.
* **Mother/child semijoin joins as gathers.**  The degenerate join shapes
  reuse the membership mask; early projections dedup via
  ``np.unique(return_index)`` over the projected key block and gather the
  kept columns once.
* **General joins as index cross products.**  The child groups by join key
  once per (slot, step) — stable argsort, boundary scan, pre-gathered "new"
  columns in sort order — and the probe expands mother rows with
  ``np.repeat``/``cumsum`` index arithmetic: output columns are built by two
  gathers (mother rows by repeat index, child parts by group-offset index)
  with no per-row Python at all.
* **Bulk interning.**  Dictionary-mode encode of an all-string column runs
  ``np.unique(return_inverse)`` over the raw values and only walks the
  *unique* values through the interning dictionary.  Warm columns still take
  the shared C-level ``map`` fast path.

**What identity mode carries.**  Codes must live in int64 arrays, so an
identity column holds ints that fit int64 (a column mixing ints and bools
canonicalizes ``True``/``False`` onto ``1``/``0``, which preserves
equality).  A pinned identity column that meets anything else — a string, a
float, an int beyond int64 — is promoted to dictionary mode by the shared
encode loop.

The classic executor remains the property-test oracle
(``tests/relational/test_vectorized_equivalence.py``), with the row kernel
as a second cross-check.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SchemaError
from .interned import (
    ExecutionStats,
    InternedPlan,
    InternedState,
    _JOIN_SEMI_CHILD,
    _JOIN_SEMI_MOTHER,
    _MODE_DICT,
    _MODE_IDENTITY,
    _PlanLayout,
    _PromoteToDict,
    _USE_DEFAULT_CAP,
)
from .relation import Relation
from .yannakakis import YannakakisRun

__all__ = [
    "VectorizedPlan",
    "VectorizedState",
    "vectorize_plan",
]


#: The encoded-state type of both kernels, under its array-kernel name.
VectorizedState = InternedState


class _VecEncoding:
    """Encoded columns of one relation slot plus its reusable key indexes.

    ``columns`` holds one contiguous numpy int64 code array per column and
    ``n`` the row count — kept explicitly so zero-width (nullary) slots
    still know their cardinality.  ``keysets`` caches sorted-unique key
    arrays per key-position tuple; ``keyarrays`` caches packed per-row key
    arrays; ``buckets`` caches per-join-step structures.  Encodings held in
    a batch cache are shared across states, so cached indexes amortize
    exactly like the compiled backend's.
    """

    __slots__ = ("columns", "n", "keysets", "keyarrays", "buckets")

    def __init__(self, columns: Tuple[Any, ...], n: int) -> None:
        self.columns = columns
        self.n = n
        self.keysets: Dict[Tuple[int, ...], Any] = {}
        self.keyarrays: Dict[Tuple[int, ...], Any] = {}
        self.buckets: Dict[int, Any] = {}


# -- numpy kernels ---------------------------------------------------------------
#
# All helpers treat int64 1-D arrays and fixed-width void arrays uniformly: a void scalar is the packed bytes of one composite key row, and
# ``unique``/``searchsorted``/``argsort``/``==`` all operate on it like any
# scalar dtype.  Byte order of the void comparisons is not numeric order,
# but every kernel only needs a *consistent* total order on both sides.


def _build_key(columns, n: int, kpos: Tuple[int, ...]):
    """Pack the key columns at ``kpos`` into one array of per-row keys.

    Empty keys pack as zeros (every row shares one key — the degenerate
    cross-product/nonempty-test semantics the row engine gets from its
    ``lambda row: ()`` getter); single columns pass through; composite keys
    copy into a C-contiguous block viewed as a fixed-width void scalar.
    """
    if not kpos:
        return np.zeros(n, dtype=np.int64)
    if len(kpos) == 1:
        return columns[kpos[0]]
    k = len(kpos)
    block = np.empty((n, k), dtype=np.int64)
    for j, p in enumerate(kpos):
        block[:, j] = columns[p]
    return block.view(np.dtype((np.void, 8 * k))).ravel()


def _key_array(encoding: _VecEncoding, kpos: Tuple[int, ...]):
    """Per-row key array for an encoding, cached per key-position tuple."""
    cached = encoding.keyarrays.get(kpos)
    if cached is None:
        cached = _build_key(encoding.columns, encoding.n, kpos)
        encoding.keyarrays[kpos] = cached
    return cached


def _member_mask(sorted_unique, keys):
    """Boolean mask: which of ``keys`` occur in the sorted-unique array."""
    if len(sorted_unique) == 0:
        return np.zeros(len(keys), dtype=bool)
    index = sorted_unique.searchsorted(keys)
    np.minimum(index, len(sorted_unique) - 1, out=index)
    return sorted_unique[index] == keys


#: Dense-scatter dedup is allowed to allocate up to this many slots per row.
_DENSE_DEDUP_SLACK = 4


def _unique_rows_index(encoding: _VecEncoding, positions: Tuple[int, ...]):
    """Indices of one representative of each distinct row at ``positions``.

    Within-relation dedup needs no cross-relation key representation, so it
    avoids the void-dtype sort (memcmp comparisons — the slowest kernel in
    the module) entirely.  Columns pack into a single int64 by range
    compression; a small packed domain dedups by pure scatter (no sort at
    all), a larger one by a single typed ``np.unique``.  Domains too wide to
    pack fall back to iterative inverse recompression: one typed unique per
    column, with the running group id recompressed below ``n`` each step so
    the arithmetic never overflows.  Representatives are arbitrary (callers
    gather whole equal rows), and output order is irrelevant.
    """
    n = encoding.n
    if n == 0:
        return np.empty(0, dtype=np.intp)
    cols = [encoding.columns[p] for p in positions]
    lows = [int(col.min()) for col in cols]
    widths = [int(col.max()) - low + 1 for col, low in zip(cols, lows)]
    span = 1
    for width in widths:
        span *= width
    if span < 1 << 62:
        combined = cols[0] - lows[0]
        for col, low, width in zip(cols[1:], lows[1:], widths[1:]):
            combined = combined * width + (col - low)
        if span <= max(_DENSE_DEDUP_SLACK * n, 1 << 16):
            representative = np.full(span, -1, dtype=np.intp)
            representative[combined] = np.arange(n, dtype=np.intp)
            return representative[representative >= 0]
        _, index = np.unique(combined, return_index=True)
        return index
    inverse = None
    for col in cols:
        _, col_inverse = np.unique(col, return_inverse=True)
        col_inverse = col_inverse.astype(np.int64, copy=False)
        if inverse is None:
            inverse = col_inverse
        else:
            # Both factors are < n, so the product stays well inside int64.
            inverse = inverse * (int(col_inverse.max()) + 1) + col_inverse
            _, inverse = np.unique(inverse, return_inverse=True)
            inverse = inverse.astype(np.int64, copy=False)
    representative = np.empty(int(inverse.max()) + 1, dtype=np.intp)
    representative[inverse] = np.arange(n, dtype=np.intp)
    return representative


def _filtered(encoding: _VecEncoding, mask) -> _VecEncoding:
    """A fresh encoding keeping the masked rows of every column."""
    return _VecEncoding(
        tuple(column[mask] for column in encoding.columns),
        int(mask.sum()),
    )


def _empty_like(width: int) -> _VecEncoding:
    empty = np.empty(0, dtype=np.int64)
    return _VecEncoding(tuple(empty for _ in range(width)), 0)


def _general_bucket(child: _VecEncoding, op):
    """Group a general-join child by its key, early projection folded in.

    Returns ``(group_keys, starts, counts, new_sorted, proj_len)``:
    sorted-unique group keys, each group's start offset and length in stable
    key-sort order, the child's *new* columns pre-gathered into that order
    (so the probe's second gather indexes them directly), and the projected
    child's cardinality when the step carries an early projection.
    """
    if op.extract_pos is not None:
        # Composed projection: dedup the (key, new) extraction — which IS
        # the projected child — then split by the fixed key width.
        index = _unique_rows_index(child, op.extract_pos)
        extracted = [child.columns[p][index] for p in op.extract_pos]
        m = len(index)
        proj_len: Optional[int] = m
        key = _build_key(extracted, m, tuple(range(op.kw)))
        new_source = extracted[op.kw :]
    else:
        proj_len = None
        key = _key_array(child, op.ckey)
        new_source = [child.columns[p] for p in op.cnew_pos]
        m = child.n
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    if m:
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, m))
        group_keys = sorted_keys[starts]
    else:
        starts = np.empty(0, dtype=np.intp)
        counts = np.empty(0, dtype=np.int64)
        group_keys = sorted_keys
    new_sorted = tuple(column[order] for column in new_source)
    return group_keys, starts, counts, new_sorted, proj_len


class VectorizedPlan(InternedPlan):
    """An interned-value array program for one prepared query.

    Built once per :class:`~repro.engine.prepared.PreparedQuery` (see its
    ``vectorized`` property).  The interner, encoding cache and batch entry
    points live in :class:`~repro.relational.interned.InternedPlan`; this
    class adds the array encoding and kernel.  Execution semantics —
    results, semijoin/join counts, intermediate-size accounting, and the
    lineage attribution of :class:`~repro.relational.interned.ExecutionStats`
    — match the row kernel branch for branch.
    """

    backend = "vectorized"

    __slots__ = ("_final_positions", "_final_permutes")

    def _compile(self, layout: _PlanLayout) -> None:
        self._semijoins = layout.semijoins
        self._joins = layout.joins
        self._final_positions = layout.final_positions
        # Candidate for the final-projection permutation shortcut: the
        # positions are distinct and cover a prefix 0..k-1 (the execution
        # still checks they span the root's whole final layout).
        self._final_permutes = layout.final_positions is not None and sorted(
            layout.final_positions
        ) == list(range(len(layout.final_positions)))

    # -- encoding --------------------------------------------------------------

    def _int64_or_none(self, data):
        """Convert rows/column to an int64 array at C speed, or ``None``.

        Conversion without an explicit dtype lets numpy *classify* instead
        of coerce: pure native-int data lands exactly on int64, while every
        hazard the per-cell classifier guards against lands elsewhere —
        floats on float64 (never truncated), pure bools on bool, out-of-range
        ints on object (or an ``OverflowError``), strings on unicode, ragged
        or exotic values on object/``ValueError`` — and is rejected by the
        dtype/ndim check.  The one deliberate coarsening: a *mixed* int/bool
        column converts to int64, canonicalizing ``True``/``False`` onto
        ``1``/``0``.  That is equality-preserving (``True == 1`` across the
        numeric tower, and dictionary mode already canonicalizes
        tower-equal values onto one representative), so
        results still compare equal to the classic oracle's.
        """
        try:
            converted = np.asarray(data)
        except Exception:
            return None
        if converted.dtype == np.int64:
            return converted
        return None

    def _encode_dict_column(self, attribute: Any, column):
        """One cold dictionary-mode column as a contiguous int64 code array.

        Called once the warm ``map`` over the interning dictionary has
        failed (or the interner is empty).  For all-string columns,
        ``np.unique`` collapses the raw values at C speed and only the
        *unique* values touch the interning dictionary, so per-cell Python
        work is proportional to the distinct-value count, not the row count.
        Everything else takes the shared interning loop.
        """
        # The type scan runs as C-level ``map``; mixed columns must never
        # reach ``np.asarray`` below, which would silently stringify them.
        if set(map(type, column)) == {str}:
            uniques, inverse = np.unique(np.asarray(column), return_inverse=True)
            codes = self._intern_novel(attribute, uniques.tolist())
            return np.asarray(codes, dtype=np.int64)[inverse]
        return np.asarray(self._intern_novel(attribute, column), dtype=np.int64)

    def _encode_relation(self, slot: int, relation: Relation) -> _VecEncoding:
        """Encode one relation column-major into int64 code arrays."""
        rows = relation.rows
        attrs = self.slot_columns[slot]
        n = len(rows)
        if not attrs:
            return _VecEncoding((), n)
        if not n:
            empty = np.empty(0, dtype=np.int64)
            return _VecEncoding(tuple(empty for _ in attrs), 0)
        rows_t = tuple(rows)
        modes = self._modes
        # Whole-slot identity fast path: one 2-D classify-and-convert
        # (see ``_int64_or_none``) + transpose copy turns the value rows
        # into contiguous per-column arrays — value == code in identity
        # mode, no per-cell Python at all.
        if all(modes[a] != _MODE_DICT for a in attrs):
            block = self._int64_or_none(rows_t)
            if block is not None and block.ndim == 2:
                for a in attrs:
                    if modes[a] is None:
                        modes[a] = _MODE_IDENTITY
                transposed = np.ascontiguousarray(block.T)
                return _VecEncoding(
                    tuple(transposed[j] for j in range(len(attrs))), n
                )
        # Columns extract via ``map(itemgetter, ...)`` pipelines instead
        # of a ``zip(*rows)`` transpose: star-unpacking tens of
        # thousands of rows costs more than one C pass per column, and
        # the warm dictionary path below never materializes the column
        # at all — extraction and interning fuse into nested C maps.
        coded: List[Any] = []
        for position, attribute in enumerate(attrs):
            getter = itemgetter(position)
            mode = modes[attribute]
            if mode == _MODE_DICT:
                intern_map = self._intern[attribute]
                if intern_map:
                    try:
                        codes = list(
                            map(intern_map.__getitem__, map(getter, rows_t))
                        )
                    except KeyError:
                        pass
                    else:
                        coded.append(np.asarray(codes, dtype=np.int64))
                        continue
                coded.append(
                    self._encode_dict_column(
                        attribute, tuple(map(getter, rows_t))
                    )
                )
                continue
            column = tuple(map(getter, rows_t))
            converted = self._int64_or_none(column)
            if converted is not None and converted.ndim == 1:
                if mode is None:
                    modes[attribute] = _MODE_IDENTITY
                coded.append(converted)
                continue
            if mode is None:
                modes[attribute] = _MODE_DICT
            else:
                # Pinned identity met a column int64 cannot carry.
                raise _PromoteToDict(attribute)
            coded.append(self._encode_dict_column(attribute, column))
        return _VecEncoding(tuple(coded), n)

    # Bound in the class body (not only inherited) so per-kernel
    # instrumentation can wrap each kernel's encode on its own class.
    encode_state = InternedPlan.encode_state

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        encoded: InternedState,
        stats: Optional[ExecutionStats] = None,
    ) -> YannakakisRun:
        """Run the array program against one encoded state.

        Semantics — result, semijoin/join counts and the intermediate-size
        accounting — match the classic and row executors exactly; the
        equivalence suite checks this on random schemas and states.
        """
        if encoded.plan is not self:
            raise SchemaError("the encoded state belongs to a different plan")
        if not self.slot_columns:
            return self._empty_schema_run(stats)
        views: List[_VecEncoding] = list(encoded.encodings)

        # Phase 1: the full-reducer semijoin program as membership masks.
        for op in self._semijoins:
            source_view = views[op.source]
            source_keys = source_view.keysets.get(op.skey)
            if source_keys is None:
                source_keys = np.unique(_key_array(source_view, op.skey))
                source_view.keysets[op.skey] = source_keys
                if stats is not None:
                    lineage = (op.source, op.skey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            target_view = views[op.target]
            target_keys = target_view.keysets.get(op.tkey)
            if target_keys is None:
                target_keys = np.unique(_key_array(target_view, op.tkey))
                target_view.keysets[op.tkey] = target_keys
                if stats is not None:
                    lineage = (op.target, op.tkey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            subset_mask = _member_mask(source_keys, target_keys)
            if bool(subset_mask.all()):
                if stats is not None:
                    stats.identity_semijoins += 1
                continue
            mask = _member_mask(source_keys, _key_array(target_view, op.tkey)
            )
            filtered = _filtered(target_view, mask)
            filtered.keysets[op.tkey] = target_keys[subset_mask]
            views[op.target] = filtered
            if stats is not None:
                stats.filtering_semijoins += 1
        max_intermediate = max((view.n for view in views), default=0)

        # Phase 2: the bottom-up join as gathers.
        for op in self._joins:
            child_view = views[op.node]
            mother_view = views[op.mother]
            if op.kind == _JOIN_SEMI_MOTHER:
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    # The (projected) child's columns are exactly the key,
                    # so its sorted-unique key array IS the projected child.
                    keys = np.unique(_key_array(child_view, op.ckey))
                    proj_len: Optional[int] = len(keys) if op.has_proj else None
                    child_view.buckets[op.tag] = (keys, proj_len)
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                else:
                    keys, proj_len = cached
                if proj_len is not None and proj_len > max_intermediate:
                    max_intermediate = proj_len
                # Identity detection keeps the mother's view object — and
                # with it every cached index a later step would rebuild.
                mother_keys = mother_view.keysets.get(op.mkey)
                if mother_keys is not None and bool(
                    _member_mask(keys, mother_keys).all()
                ):
                    joined = mother_view
                else:
                    mask = _member_mask(keys, _key_array(mother_view, op.mkey)
                    )
                    if bool(mask.all()):
                        joined = mother_view
                    else:
                        joined = _filtered(mother_view, mask)
            elif op.kind == _JOIN_SEMI_CHILD:
                if op.proj_pos is not None:
                    cached = child_view.buckets.get(op.tag)
                    if cached is None:
                        index = _unique_rows_index(child_view, op.proj_pos)
                        projected = tuple(
                            child_view.columns[p][index] for p in op.proj_pos
                        )
                        cached = (projected, len(index))
                        child_view.buckets[op.tag] = cached
                        if stats is not None:
                            lineage = (op.node, op.ckey)
                            builds = stats.bucket_builds
                            builds[lineage] = builds.get(lineage, 0) + 1
                    child_columns, child_n = cached
                    if child_n > max_intermediate:
                        max_intermediate = child_n
                else:
                    child_columns, child_n = child_view.columns, child_view.n
                mother_keys = mother_view.keysets.get(op.mkey)
                if mother_keys is None:
                    mother_keys = np.unique(
                        _key_array(mother_view, op.mkey)
                    )
                    mother_view.keysets[op.mkey] = mother_keys
                    if stats is not None:
                        lineage = (op.mother, op.mkey)
                        builds = stats.keyset_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                child_key = _build_key(child_columns, child_n, op.ckey)
                mask = _member_mask(mother_keys, child_key)
                if op.proj_pos is None and bool(mask.all()):
                    joined = child_view
                else:
                    joined = _VecEncoding(
                        tuple(column[mask] for column in child_columns),
                        int(mask.sum()),
                    )
            else:
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    cached = _general_bucket(child_view, op)
                    child_view.buckets[op.tag] = cached
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                group_keys, starts, counts, new_sorted, proj_len = cached
                if proj_len is not None and proj_len > max_intermediate:
                    max_intermediate = proj_len
                mother_n = mother_view.n
                if mother_n == 0 or len(group_keys) == 0:
                    joined = _empty_like(len(mother_view.columns) + len(new_sorted)
                    )
                else:
                    mother_key = _key_array(mother_view, op.mkey)
                    position = group_keys.searchsorted(mother_key)
                    np.minimum(position, len(group_keys) - 1, out=position)
                    match = group_keys[position] == mother_key
                    per_mother = np.where(match, counts[position], 0)
                    total = int(per_mother.sum())
                    if total == 0:
                        joined = _empty_like(len(mother_view.columns) + len(new_sorted)
                        )
                    else:
                        # Expand: mother row index per output row, and the
                        # matched group's offsets into the key-sorted child.
                        mother_index = np.repeat(
                            np.arange(mother_n), per_mother
                        )
                        cumulative = np.cumsum(per_mother)
                        offsets = np.arange(total) - np.repeat(
                            cumulative - per_mother, per_mother
                        )
                        group_start = np.where(match, starts[position], 0)
                        child_index = np.repeat(group_start, per_mother) + offsets
                        joined = _VecEncoding(
                            tuple(
                                column[mother_index]
                                for column in mother_view.columns
                            )
                            + tuple(column[child_index] for column in new_sorted),
                            total,
                        )
            if joined.n > max_intermediate:
                max_intermediate = joined.n
            views[op.mother] = joined

        # Final projection + decode: the only value-level materialization
        # (and a bare ``tolist`` for pure identity-mode columns).
        root_view = views[self.root]
        final_positions = self._final_positions
        if final_positions is None:
            final_columns = root_view.columns
            final_n = root_view.n
        elif not final_positions:
            # Projection onto the nullary target relation.
            final_columns = ()
            final_n = 1 if root_view.n else 0
        elif self._final_permutes and len(final_positions) == len(
            root_view.columns
        ):
            # Pure column reorder: no column is dropped, so the root's rows
            # (distinct by construction) stay distinct — skip the dedup.
            final_columns = tuple(root_view.columns[p] for p in final_positions)
            final_n = root_view.n
        else:
            index = _unique_rows_index(root_view, final_positions)
            final_columns = tuple(
                root_view.columns[p][index] for p in final_positions
            )
            final_n = len(index)
        if not final_columns:
            rows = frozenset([()]) if final_n else frozenset()
        else:
            decoded = []
            for column, decoder in zip(final_columns, encoded.decoders):
                cells = column.tolist()
                decoded.append(cells if decoder is None else list(map(decoder, cells)))
            rows = frozenset(zip(*decoded))
        result = Relation._from_trusted(
            self._final_schema, self._final_columns, rows
        )
        return self._run(result, max_intermediate, stats)


def vectorize_plan(
    prepared, *, max_interned_values: Optional[int] = _USE_DEFAULT_CAP
) -> VectorizedPlan:
    """Build a :class:`VectorizedPlan` for a prepared query (see the module
    notes; normally reached through ``prepared.vectorized``)."""
    return VectorizedPlan(prepared, max_interned_values=max_interned_values)

