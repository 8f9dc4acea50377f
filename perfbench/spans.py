"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files, by wrapping the public
entry points of each layer: class methods (looked up dynamically, so every
caller sees the wrapper), ``compile_plan``/``vectorize_plan`` in the module
namespace that calls them, and ``analyze`` as the benchmark's own module
imported it.  Module-level names that other modules bound by value at import
(``routing.py`` binds ``analyze``) are deliberately not patched.

A span is ``[name, request id, parent span, start ns, end ns, extra]`` from
``perf_counter_ns``.  The parent is the innermost open span on the same
thread; a span opened on a service dispatcher thread with nothing open is
linked to its request through the identity of its first state object (every
state of a request is registered, so stream shards link too — states are
fresh per request, so identities are unambiguous).  Spans stay in memory and
are summarised when the run ends.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

NAME, RID, PARENT, START, END, EXTRA = range(6)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._request_of: Dict[int, list] = {}
        self._patches: List[tuple] = []

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        *,
        states_arg: Optional[int] = None,
        extra: Optional[Callable] = None,
    ) -> None:
        """Register a wrapper for ``owner.attribute`` (installed later).

        ``states_arg`` is the positional index of the state list, used to
        link a top-level span to its request and to record the state count
        as the span's ``extra``; ``extra(result)`` records a value from the
        call's result instead.
        """
        original = owner.__dict__[attribute]
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder._call(name, original, args, kwargs, states_arg, extra)

        self._patches.append((owner, attribute, original, wrapper))

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in self._patches:
            setattr(owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, function, args, kwargs, states_arg, extra):
        stack = self._stack()
        states = None
        if states_arg is not None and len(args) > states_arg:
            states = args[states_arg]
            if not isinstance(states, (list, tuple)):
                states = None
        if stack:
            parent = stack[-1]
        elif states:
            parent = self._request_of.get(id(states[0]))
        else:
            parent = None
        span = [
            name,
            None if parent is None else parent[RID],
            parent,
            0,
            0,
            None if states is None else len(states),
        ]
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            span[END] = perf_counter_ns()
            stack.pop()
        if extra is not None:
            span[EXTRA] = extra(result)
        return result

    # -- requests --------------------------------------------------------------

    @contextmanager
    def request(self, rid, states):
        """The root span of one request, opened on the client thread."""
        span = ["request", rid, None, 0, 0, len(states)]
        for state in states:
            self._request_of[id(state)] = span
        self.spans.append(span)
        stack = self._stack()
        stack.append(span)
        span[START] = perf_counter_ns()
        try:
            yield span
        finally:
            span[END] = perf_counter_ns()
            stack.pop()

    def forget_requests(self) -> None:
        """Drop the state-identity links (call once a round's states die)."""
        self._request_of.clear()


def self_times(spans: List[list]) -> Dict[int, int]:
    """``id(span) → self ns``: duration minus the union of its children's
    intervals (children on other threads included, clipped to the span)."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append(span)
    result: Dict[int, int] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(id(span), ()), key=lambda s: s[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[id(span)] = (end - start) - covered
    return result


def install_layer_spans(recorder: Recorder, inputs_module) -> None:
    """Register wrappers at every layer boundary the per-layer metrics name."""
    from repro.engine import prepared as prepared_module
    from repro.engine.analysis import AnalyzedSchema
    from repro.engine.catalog import PlanCatalog
    from repro.engine.cyclic import CyclicPreparedQuery
    from repro.engine.parallel import ParallelExecutor
    from repro.engine.prepared import PreparedQuery
    from repro.engine.routing import RoutingPolicy
    from repro.relational.compiled import CompiledPlan
    from repro.relational.vectorized import VectorizedPlan

    recorder.wrap(inputs_module, "analyze", "analysis.analyze")
    recorder.wrap(AnalyzedSchema, "prepare", "analysis.prepare")
    recorder.wrap(AnalyzedSchema, "prepare_cyclic", "cyclic.prepare")
    recorder.wrap(PlanCatalog, "load", "catalog.load")
    recorder.wrap(PlanCatalog, "store", "catalog.store")
    recorder.wrap(
        RoutingPolicy,
        "decide",
        "routing.decide",
        extra=lambda decision: decision.estimated_serial_s,
    )
    recorder.wrap(RoutingPolicy, "probe", "routing.probe")
    recorder.wrap(prepared_module, "compile_plan", "plan.compile")
    recorder.wrap(prepared_module, "vectorize_plan", "plan.compile")
    recorder.wrap(CompiledPlan, "encode_state", "compiled.encode")
    recorder.wrap(CompiledPlan, "execute", "compiled.execute")
    recorder.wrap(VectorizedPlan, "encode_state", "vectorized.encode")
    recorder.wrap(VectorizedPlan, "execute", "vectorized.execute")
    recorder.wrap(PreparedQuery, "execute_many", "plan.execute_many", states_arg=1)
    recorder.wrap(
        CyclicPreparedQuery, "execute_many", "cyclic.execute_many", states_arg=1
    )
    recorder.wrap(
        ParallelExecutor, "execute_many", "parallel.execute_many", states_arg=2
    )
