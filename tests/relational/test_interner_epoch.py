"""Bounded interner growth: epoch rollover under ``max_interned_values``.

PR-4 left plan interners growing monotonically (``reset_compiled`` was the
only relief, and manual).  Plans now carry a cap checked at every
state-encode boundary; overflow opens a new epoch — interning maps rebuilt,
stale encodings evicted — without changing any answer.

The lifecycle lives in the interned-plan core shared by both kernels, so
every class here runs on the row kernel and again, through a subclass that
only swaps ``backend``, on the array kernel.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine import analyze
from repro.hypergraph import DatabaseSchema, RelationSchema
from repro.relational import DatabaseState, ExecutionStats, Relation
from repro.relational.compiled import DEFAULT_MAX_INTERNED_VALUES


def _schema():
    return DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])


def _string_state(schema, salt: int, rows: int = 4) -> DatabaseState:
    return DatabaseState(
        schema,
        [
            Relation(
                schema[0],
                [(f"a{salt}.{i}", f"b{salt}.{i}") for i in range(rows)],
            ),
            Relation(
                schema[1],
                [(f"b{salt}.{i}", f"c{salt}.{i}") for i in range(rows)],
            ),
        ],
    )


def _random_caps_property():
    """A fresh ``@given`` test per class: hypothesis ties each wrapped test
    to the one class that runs it."""

    @settings(max_examples=25, deadline=None)
    @given(
        cap=st.integers(1, 30),
        salts=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    )
    def test_equivalence_under_random_caps(self, cap, salts):
        """Any cap, any (possibly repeating) state sequence: the kernel with
        rollovers ≡ classic."""
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=cap)
        for salt in salts:
            state = _string_state(schema, salt, rows=3)
            run = prepared.execute(state, backend=self.backend)
            classic = prepared.execute(state, backend="classic")
            assert run.result == classic.result

    return test_equivalence_under_random_caps


class TestEpochRollover:
    backend = "compiled"

    def _fresh_plan(self, cap):
        prepared = analyze(_schema()).prepare(RelationSchema("ac"))
        prepared.reset_compiled()
        plan = getattr(prepared, self.backend)
        plan.max_interned_values = cap
        return prepared, plan

    def test_default_cap_is_finite(self):
        _, plan = self._fresh_plan(cap=DEFAULT_MAX_INTERNED_VALUES)
        assert plan.max_interned_values == DEFAULT_MAX_INTERNED_VALUES
        assert plan.interner_epoch == 0

    def test_overflow_opens_epochs_and_bounds_growth(self):
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=20)
        for salt in range(12):
            prepared.execute(_string_state(schema, salt), backend=self.backend)
        assert plan.interner_epoch > 0
        # Growth is bounded by cap + one state's worth of fresh values.
        assert plan.interned_value_count() <= 20 + 4 * 3

    def test_results_stay_correct_across_rollovers(self):
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=10)
        for salt in range(15):
            state = _string_state(schema, salt)
            run = prepared.execute(state, backend=self.backend)
            classic = prepared.execute(state, backend="classic")
            assert run.result == classic.result
            assert run.max_intermediate_size == classic.max_intermediate_size
        assert plan.interner_epoch >= 1

    def test_batch_surfaces_reset_counter(self):
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=10)
        states = [_string_state(schema, salt) for salt in range(10)]
        runs = prepared.execute_many(states, backend=self.backend)
        stats = runs[0].stats
        assert stats.interner_resets > 0
        assert stats.interner_resets == plan.interner_epoch

    def test_rollover_drops_stale_slot_encodings(self):
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=10)
        state = _string_state(schema, 0)
        prepared.execute(state, backend=self.backend)
        assert sum(plan.cache_sizes()) > 0
        for salt in range(1, 8):
            prepared.execute(_string_state(schema, salt), backend=self.backend)
        assert plan.interner_epoch > 0
        # Re-executing the very first state after rollovers re-encodes it
        # against the new epoch and still answers correctly.
        rerun = prepared.execute(state, backend=self.backend)
        classic = prepared.execute(state, backend="classic")
        assert rerun.result == classic.result

    def test_pinned_compiled_state_survives_rollover(self):
        """An encoded state captures its epoch's decoders at encode time, so
        executing it after rollovers still decodes the retired epoch's codes
        to the right values."""
        from repro.relational import CompiledState

        schema = _schema()
        prepared, plan = self._fresh_plan(cap=10)
        state = _string_state(schema, 0)
        pinned = CompiledState.from_state(plan, state)
        expected = prepared.execute(state, backend="classic").result
        assert pinned.execute().result == expected
        for salt in range(1, 9):
            prepared.execute(_string_state(schema, salt), backend=self.backend)
        assert plan.interner_epoch > 0
        # Same pinned encoding, executed against a plan that has since
        # rolled its interner over (possibly several times).
        assert pinned.execute().result == expected

    def test_unbounded_cap_never_rolls_over(self):
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=None)
        for salt in range(10):
            prepared.execute(_string_state(schema, salt), backend=self.backend)
        assert plan.interner_epoch == 0
        assert plan.interned_value_count() > 20

    def test_identity_columns_unaffected_by_cap(self):
        """Pure-int states intern nothing, so even a tiny cap never triggers."""
        schema = _schema()
        prepared, plan = self._fresh_plan(cap=1)
        for salt in range(6):
            state = DatabaseState(
                schema,
                [
                    Relation(schema[0], [(salt * 10 + i, i) for i in range(4)]),
                    Relation(schema[1], [(i, salt * 10 + i) for i in range(4)]),
                ],
            )
            run = prepared.execute(state, backend=self.backend)
            classic = prepared.execute(state, backend="classic")
            assert run.result == classic.result
        assert plan.interner_epoch == 0

    test_equivalence_under_random_caps = _random_caps_property()


class TestEncodeCacheMissStreak:
    """A slot whose relation never repeats turns its encode cache off after
    ``_CACHE_MISS_STREAK_MAX`` consecutive misses; ``clear_encode_cache()``
    and an epoch rollover re-arm it."""

    backend = "compiled"

    def _tripped_plan(self):
        """A plan whose slot 0 (fresh rows every state) has tripped while
        slot 1 (one shared relation) kept hitting; returns the plan and a
        state to repeat."""
        schema = _schema()
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        prepared.reset_compiled()
        plan = getattr(prepared, self.backend)
        plan.max_interned_values = None
        shared = Relation(schema[1], [(0, "c")])
        for i in range(plan._CACHE_MISS_STREAK_MAX + 1):
            state = DatabaseState(schema, [Relation(schema[0], [(i, 0)]), shared])
            plan.encode_state(state)
        return plan, state

    def _encode_twice(self, plan, state) -> ExecutionStats:
        stats = ExecutionStats()
        plan.encode_state(state, stats=stats)
        plan.encode_state(state, stats=stats)
        return stats

    def test_streak_disables_only_the_missing_slot(self):
        plan, state = self._tripped_plan()
        assert plan.cache_sizes() == (0, 1)
        # The tripped slot re-encodes even a verbatim repeat; the shared
        # slot still hits.
        stats = self._encode_twice(plan, state)
        assert plan.cache_sizes() == (0, 1)
        assert stats.encoded_slots == 2
        assert stats.cached_slots == 2

    def test_one_short_of_the_streak_keeps_caching(self):
        schema = _schema()
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        prepared.reset_compiled()
        plan = getattr(prepared, self.backend)
        shared = Relation(schema[1], [(0, "c")])
        streak = plan._CACHE_MISS_STREAK_MAX
        for i in range(streak):
            state = DatabaseState(schema, [Relation(schema[0], [(i, 0)]), shared])
            plan.encode_state(state)
        assert plan.cache_sizes() == (streak, 1)

    def test_clear_encode_cache_rearms(self):
        plan, state = self._tripped_plan()
        plan.clear_encode_cache()
        assert plan.cache_sizes() == (0, 0)
        stats = self._encode_twice(plan, state)
        assert plan.cache_sizes() == (1, 1)
        assert stats.encoded_slots == 2
        assert stats.cached_slots == 2

    def test_epoch_rollover_rearms(self):
        plan, state = self._tripped_plan()
        assert plan.interned_value_count() == 1  # the shared slot's "c"
        plan.max_interned_values = 0
        plan.encode_state(state)
        assert plan.interner_epoch == 1
        assert plan.cache_sizes() == (1, 1)


class TestEpochRolloverVectorized(TestEpochRollover):
    backend = "vectorized"
    test_equivalence_under_random_caps = _random_caps_property()


class TestEncodeCacheMissStreakVectorized(TestEncodeCacheMissStreak):
    backend = "vectorized"
