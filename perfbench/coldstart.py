"""One cold start of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/coldstart.py --workload NAME --seed N --scratch DIR``

Measures the imports the workload needs (``repro``, the service, the
catalog) plus the wall time from a fresh service and an empty analysis cache
to the first answered request of every plan the workload starts with: that
covers analysis and prepare, catalog open, the routing probe, plan compile
and lazy imports inside the program.  Input generation is not timed.  The
answers are checked against the classic backend afterwards.  Prints one JSON
line: normalised and raw seconds and whether the answers were right.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402  (no program import: the clock starts below)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    before = hostspeed.reference_samples(3)
    started = perf_counter()
    import inputs

    import_s = perf_counter() - started
    from repro.engine import analysis_cache_size

    workload = inputs.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    requests = workload.warm_requests()
    if analysis_cache_size() != 0:
        raise RuntimeError("input generation analysed a schema")
    gc.collect()
    gc.freeze()
    started = perf_counter()
    service = workload.make_service(args.scratch)
    workload.open(service)
    replies = [workload.serve(service, request) for request in requests]
    serve_s = perf_counter() - started
    after = hostspeed.reference_samples(3)
    service.close()
    from oracle import stop_tracker

    stop_tracker()
    ok = all(
        run is not None and inputs.answer_digest(run.result) == want
        for request, runs in zip(requests, replies)
        for run, want in zip(runs, workload.expected(request))
    )
    raw = import_s + serve_s
    print(
        json.dumps(
            {
                "setup_s": raw * hostspeed.factors([before + after], 0)[0],
                "raw_s": raw,
                "import_s": import_s,
                "ok": ok,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
