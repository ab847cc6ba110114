"""Parallel experiment engine: trace store, runner, results, resilience.

Six pieces (see ``docs/engine.md``):

* :mod:`repro.engine.trace_store` — on-disk ``array('Q')`` blobs (CRC32
  framed, corrupt files quarantined + regenerated) so every synthetic
  trace is generated exactly once per machine;
* :mod:`repro.engine.runner` — :class:`SweepJob`, the one execution
  path (``execute_job``) and ``run_sweep``, bit-identical statistics
  at any worker count;
* :mod:`repro.engine.results` — the one job codec (``job_to_wire`` /
  ``job_from_wire``, ``job_key``, ``job_hash``) and the one
  content-addressed result store (:class:`ResultCache`), shared by
  ``run_id`` sweeps, the cluster and the serve tier;
* :mod:`repro.engine.resilience` — the sweep supervisor behind
  ``run_sweep`` and the one worker loop it shares with the serve
  tier: persistent supervised workers, per-job retries with backoff,
  hung-worker timeouts, the run store behind
  ``run_sweep(..., run_id=...)``, and serial fallback after repeated
  worker failures;
* :mod:`repro.engine.faultinject` — deterministic fault injection
  (:class:`FaultPlan`) proving every recovery path, plus the CI chaos
  harness (``python -m repro.engine.faultinject``);
* :mod:`repro.engine.bench` — the ``bcache-bench`` perf-tracking
  harness behind ``BENCH_engine.json``.
"""

import importlib
from typing import Any

from repro.engine.runner import (
    SweepJob,
    available_cpus,
    default_jobs,
    execute_job,
    run_sweep,
)
from repro.engine.trace_store import TraceStore, default_store, set_default_store

#: Symbols resolved lazily (PEP 562) so ``python -m
#: repro.engine.faultinject`` does not double-import its own module and
#: importing the engine never pays for the supervisor or results.
_LAZY = {
    "FAULT_KINDS": "faultinject",
    "FaultPlan": "faultinject",
    "FaultPlanError": "faultinject",
    "FaultSpec": "faultinject",
    "InjectedFault": "faultinject",
    "BadJob": "results",
    "ResilienceConfig": "resilience",
    "ResultCache": "results",
    "RetryPolicy": "resilience",
    "SweepFailure": "resilience",
    "default_run_root": "resilience",
    "engine_fingerprint": "results",
    "job_from_wire": "results",
    "job_hash": "results",
    "job_key": "results",
    "job_to_wire": "results",
}


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "BadJob",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "ResultCache",
    "RetryPolicy",
    "SweepFailure",
    "SweepJob",
    "TraceStore",
    "available_cpus",
    "default_jobs",
    "default_run_root",
    "default_store",
    "engine_fingerprint",
    "execute_job",
    "job_from_wire",
    "job_hash",
    "job_key",
    "job_to_wire",
    "run_sweep",
    "set_default_store",
]
