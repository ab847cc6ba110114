"""One cold set-up: import the workload's code and fill an empty trace store.

Usage: ``python3 perfbench/materialise.py WORKLOAD SEED``, with
``REPRO_TRACE_STORE`` naming the (empty) store root and ``PYTHONPATH``
the repository's ``src``.  The benchmark times this process from spawn
to exit, so its duration is what a user pays before the first result.
"""

from __future__ import annotations

import sys


def main(workload: str, seed: int) -> None:
    if workload == "serve-mixed":
        import repro.serve.server  # noqa: F401  -- what a shard imports
        from bench_serve import SERVE_TRACES

        traces = [(bench, side, n, seed) for bench, side, n in SERVE_TRACES]
    else:
        import repro.cli  # noqa: F401  -- every experiment module
        from bench_batch import bench_traces

        traces = bench_traces(workload, seed)
    from repro.engine.trace_store import default_store

    store = default_store()
    for benchmark, side, n, trace_seed in traces:
        store.ensure(benchmark, side, n, trace_seed)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
