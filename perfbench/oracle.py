"""Work done in a small worker pool: classic answers and catalog prefill.

The classic backend costs more per state than the serving path, so for the
fixed-plan workloads the oracle runs in a small ``spawn`` pool between timed
rounds, while the main process builds the next round (the pool is idle
whenever a round is timed).  Workers receive pickled copies of the states,
so the oracle shares no object and no cache with the serving process.  They
return the answer relations; the main process digests them, because string
hashes differ between processes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from typing import List

from repro.engine import analyze
from repro.relational.relation import Relation

ORACLE_WORKERS = 2


def classic_answers(payload) -> List[Relation]:
    schema, target, states = payload
    prepared = analyze(schema).prepare(target)
    return [prepared.execute(state, backend="classic").result for state in states]


def store_analysis(payload) -> bool:
    """Analyze and prepare one schema and store it in the catalog at
    ``directory``, as another process sharing the catalog would."""
    from repro.engine.catalog import PlanCatalog

    directory, schema, target, cyclic = payload
    analysis = analyze(schema)
    if cyclic:
        analysis.prepare_cyclic(target)
    else:
        analysis.prepare(target)
    return PlanCatalog(directory).store(analysis)


def _pid(_index) -> int:
    time.sleep(0.05)
    return os.getpid()


def start_pool():
    """A ready pool: both workers have imported the program, so none is
    still starting up when the first round is timed."""
    pool = multiprocessing.get_context("spawn").Pool(ORACLE_WORKERS)
    try:
        seen = set()
        while len(seen) < ORACLE_WORKERS:
            seen.update(pool.map(_pid, range(ORACLE_WORKERS * 2), chunksize=1))
    except BaseException:
        stop_pool(pool)
        raise
    return pool


def stop_pool(pool) -> None:
    """Let the workers finish, wait for them to exit, then run the pool's
    finaliser so its queues (and their semaphores) can be released."""
    pool.close()
    pool.join()
    pool.terminate()


def stop_tracker() -> None:
    """Stop this process's resource tracker and wait for it to exit.

    The ``spawn`` pool (and any shared memory the program creates) starts a
    tracker process that would otherwise outlive this one by a moment.  Call
    it once nothing registered with the tracker is alive any more: garbage
    is collected first so released semaphores unregister while the tracker
    still runs.
    """
    from multiprocessing import resource_tracker

    gc.unfreeze()
    gc.collect()
    resource_tracker._resource_tracker._stop()
