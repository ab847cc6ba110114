"""Deterministic fault injection for the sweep supervisor.

Chaos testing only earns its keep when failures are *reproducible*: a
flake that appears once a week proves nothing, a fault injected at
job 3, attempt 0, by seed 2006 proves the recovery path every single
run.  A :class:`FaultPlan` is a set of ``(kind, job_index, attempt)``
triples; the sweep supervisor consults it at well-defined points and
triggers each fault exactly when its coordinates match.

Fault classes (``FAULT_KINDS``):

``crash``
    Worker process exits with ``os._exit(137)`` before running the job
    (the moral equivalent of the OOM killer).
``hang``
    Worker sleeps forever; only the supervisor's ``job_timeout`` can
    recover it.
``flaky``
    Worker raises :class:`InjectedFault` — a transient in-job Python
    error, retried with backoff.
``corrupt_blob``
    Parent flips a byte in the job's on-disk trace blob before the
    attempt starts; the hardened ``TraceStore`` must quarantine the
    blob and regenerate it from the deterministic seed.
``torn_journal``
    The job's run-store entry is half-written to its temp file and
    never renamed into place — what a crash between ``write`` and
    ``os.replace`` leaves behind.  The entry stays absent, so the job
    must re-run on resume.

Node-level classes (``NODE_KINDS``), consumed by the cluster
coordinator (:mod:`repro.engine.cluster`) at dispatch time instead of
inside a worker:

``node_down``
    The node serving the matched job dies permanently: its connection
    drops, its circuit opens for good, and every in-flight job it held
    must be re-dispatched elsewhere.
``node_hang``
    The dispatch deadline expires (a node that accepted the batch and
    went silent); the batch is re-dispatched and the node is probed
    before it gets more work.
``node_flaky``
    The node answers the matched dispatch with a transient error; the
    batch is re-dispatched and the node stays in rotation.

A plan is expressed either programmatically, via the seed-driven
:meth:`FaultPlan.scatter`, or as a DSL string (``bcache-sim
--inject-faults``)::

    crash@0,hang@1:0,flaky@2,corrupt_blob@3,torn_journal@4

i.e. comma-separated ``kind@job`` or ``kind@job:attempt`` terms; the
attempt defaults to 0, so by default a fault hits the first attempt
only and the retry succeeds.

Run as a module, this file is the CI chaos harness: it executes a
small sweep twice — cleanly in-process and under an all-five-kinds
fault plan with a run id — and exits non-zero unless the faulted run
recovers to bit-identical statistics and a subsequent resume replays
them from the run store.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # avoid an import cycle with resilience/runner
    from repro.engine.results import ResultCache
    from repro.engine.runner import SweepJob
    from repro.engine.trace_store import TraceStore

log = logging.getLogger("repro.engine.faultinject")

FAULT_KINDS = ("crash", "hang", "flaky", "corrupt_blob", "torn_journal")

#: Node-level faults, applied by the cluster coordinator at dispatch.
NODE_KINDS = ("node_down", "node_hang", "node_flaky")

#: Every kind the DSL accepts (worker-, parent- and node-level).
ALL_KINDS = FAULT_KINDS + NODE_KINDS

#: Faults applied inside the worker process.
CHILD_KINDS = frozenset({"crash", "hang", "flaky"})
#: Faults applied by the supervising parent.
PARENT_KINDS = frozenset({"corrupt_blob", "torn_journal"})

#: Exit code of an injected worker crash (mirrors SIGKILL's 128+9).
CRASH_EXIT_CODE = 137

#: An injected hang sleeps in chunks this long until killed.
_HANG_SLEEP = 60.0


class FaultPlanError(ValueError):
    """Malformed fault-plan DSL or invalid fault coordinates."""


class InjectedFault(RuntimeError):
    """Transient failure raised by the ``flaky`` fault kind."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault: ``kind`` fires on attempt ``attempt`` of job ``job_index``."""

    kind: str
    job_index: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.job_index < 0 or self.attempt < 0:
            raise FaultPlanError(
                f"fault coordinates must be non-negative: {self.kind}@"
                f"{self.job_index}:{self.attempt}"
            )

    def render(self) -> str:
        if self.attempt:
            return f"{self.kind}@{self.job_index}:{self.attempt}"
        return f"{self.kind}@{self.job_index}"


class FaultPlan:
    """An immutable set of :class:`FaultSpec` triples."""

    __slots__ = ("specs",)

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``kind@job[:attempt]`` comma-separated DSL."""
        specs = []
        for term in text.split(","):
            term = term.strip()
            if not term:
                continue
            kind, sep, where = term.partition("@")
            if not sep:
                raise FaultPlanError(
                    f"bad fault term {term!r}: expected kind@job[:attempt]"
                )
            job_text, _, attempt_text = where.partition(":")
            try:
                job_index = int(job_text)
                attempt = int(attempt_text) if attempt_text else 0
            except ValueError as exc:
                raise FaultPlanError(
                    f"bad fault term {term!r}: job/attempt must be integers"
                ) from exc
            specs.append(FaultSpec(kind.strip(), job_index, attempt))
        return cls(specs)

    @classmethod
    def scatter(
        cls,
        seed: int,
        n_jobs: int,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """Deterministically place one fault of each kind on some job.

        The same ``(seed, n_jobs, kinds)`` always yields the same plan,
        so a chaos run is exactly reproducible from its seed.
        """
        if n_jobs <= 0:
            return cls()
        rng = Random(seed)
        return cls(FaultSpec(kind, rng.randrange(n_jobs)) for kind in kinds)

    def render(self) -> str:
        return ",".join(spec.render() for spec in self.specs)

    def matches(self, kind: str, job_index: int, attempt: int) -> bool:
        return any(
            spec.kind == kind
            and spec.job_index == job_index
            and spec.attempt == attempt
            for spec in self.specs
        )

    def child_kinds(self, job_index: int, attempt: int) -> tuple[str, ...]:
        """Worker-side fault kinds for this attempt, in FAULT_KINDS order."""
        hit = {
            spec.kind
            for spec in self.specs
            if spec.kind in CHILD_KINDS
            and spec.job_index == job_index
            and spec.attempt == attempt
        }
        return tuple(kind for kind in FAULT_KINDS if kind in hit)

    def node_kinds(self, job_index: int, attempt: int) -> tuple[str, ...]:
        """Node-level fault kinds for this dispatch, in NODE_KINDS order.

        ``attempt`` counts *dispatches* of the job by the coordinator
        (initial dispatch = 0, each re-dispatch or speculative steal
        copy increments it), so the default ``kind@job`` form fires on
        the first dispatch only and the recovery path gets a clean
        retry — mirroring the worker-side semantics.
        """
        hit = {
            spec.kind
            for spec in self.specs
            if spec.kind in NODE_KINDS
            and spec.job_index == job_index
            and spec.attempt == attempt
        }
        return tuple(kind for kind in NODE_KINDS if kind in hit)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.render()!r})"


# ----------------------------------------------------------------------
# Fault application
# ----------------------------------------------------------------------
def apply_child_faults(kinds: Sequence[str]) -> None:
    """Trigger worker-side faults (called at the top of a worker process)."""
    for kind in kinds:
        if kind == "crash":
            log.warning("injected fault: crashing worker (exit %d)", CRASH_EXIT_CODE)
            os._exit(CRASH_EXIT_CODE)
        if kind == "hang":
            log.warning("injected fault: hanging worker")
            while True:
                time.sleep(_HANG_SLEEP)
        if kind == "flaky":
            raise InjectedFault("flaky: injected transient worker failure")


def apply_inprocess_faults(kinds: Sequence[str]) -> None:
    """Serial-mode stand-in for :func:`apply_child_faults`.

    In-process execution must not kill or hang the caller, so every
    worker-side kind degrades to a transient :class:`InjectedFault`
    (which the serial retry loop recovers from).
    """
    for kind in kinds:
        if kind in CHILD_KINDS:
            raise InjectedFault(f"{kind}: injected transient failure (in-process)")


def corrupt_job_blobs(store: "TraceStore", job: "SweepJob") -> None:
    """Flip a byte in the job's on-disk address blob (``corrupt_blob``).

    Ensures the blob exists first, then damages it in place — the
    hardened store must detect the CRC mismatch, quarantine the file,
    and regenerate it from the deterministic seed.
    """
    store.ensure(
        job.benchmark,
        side=job.side,
        n=job.n,
        seed=job.seed,
        kinds=job.with_kinds,
    )
    path = store.address_path(
        job.benchmark, job.side, job.n, job.seed, kinds=job.with_kinds
    )
    data = bytearray(path.read_bytes())
    if not data:
        return
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    # Drop any clean in-memory copy so the corruption is actually seen.
    store.clear_memory()
    log.warning("injected fault: corrupted trace blob %s", path.name)


def tear_entry(
    run_store: "ResultCache", job: "SweepJob", snapshot: dict[str, Any]
) -> None:
    """Leave half of the job's framed entry in its temp file (``torn_journal``).

    The rename never happens, exactly as when the process dies between
    ``write`` and ``os.replace``: the entry stays absent, so a resume
    re-runs this job and only this job.
    """
    from repro.engine.results import frame, job_key, temp_path

    path = run_store.entry_path(run_store.key(job))
    data = frame({"key": job_key(job), "stats": snapshot})
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path(path).write_text(data[: len(data) // 2], encoding="utf-8")
    log.warning("injected fault: tore result entry %s before its rename", path.name)


# ----------------------------------------------------------------------
# CI chaos harness
# ----------------------------------------------------------------------
_DEFAULT_FAULTS = "crash@0,hang@1:0,flaky@2,corrupt_blob@3,torn_journal@4"


def main(argv: Sequence[str] | None = None) -> int:
    """Run a small sweep under faults and assert full recovery."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.faultinject",
        description=(
            "Chaos harness: run a sweep cleanly, re-run it under an "
            "injected fault plan under a run id, and verify the faulted "
            "run recovers to bit-identical statistics (then resumes "
            "bit-identically from its run store)."
        ),
    )
    parser.add_argument(
        "--benchmarks",
        default="gzip,equake,mcf",
        help="comma-separated synthetic benchmarks (default: %(default)s)",
    )
    parser.add_argument(
        "--specs",
        default="dm,2way",
        help="comma-separated cache specs (default: %(default)s)",
    )
    parser.add_argument("--n", type=int, default=4000, help="accesses per trace")
    parser.add_argument("--seed", type=int, default=2006, help="trace seed")
    parser.add_argument("--workers", type=int, default=2, help="worker processes")
    parser.add_argument(
        "--faults",
        default=None,
        help=f"fault-plan DSL (default: {_DEFAULT_FAULTS!r})",
    )
    parser.add_argument(
        "--scatter",
        type=int,
        default=None,
        metavar="SEED",
        help="derive the plan from a seed instead of --faults",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="per-job timeout in seconds (recovers injected hangs)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=4, help="retry budget per job"
    )
    parser.add_argument(
        "--run-root",
        default=None,
        help="run-store root (default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )

    from repro.engine.resilience import ResilienceConfig, RetryPolicy
    from repro.engine.runner import SweepJob, run_sweep

    jobs = [
        SweepJob(spec=spec, benchmark=benchmark, n=args.n, seed=args.seed)
        for benchmark in args.benchmarks.split(",")
        for spec in args.specs.split(",")
    ]
    if args.scatter is not None:
        plan = FaultPlan.scatter(args.scatter, len(jobs))
    else:
        plan = FaultPlan.parse(args.faults if args.faults else _DEFAULT_FAULTS)
    for spec in plan.specs:
        if spec.job_index >= len(jobs):
            print(
                f"chaos: fault {spec.render()} targets job {spec.job_index} "
                f"but the sweep has only {len(jobs)} jobs",
                file=sys.stderr,
            )
            return 2
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=args.max_attempts, base_delay=0.02),
        job_timeout=args.timeout,
    )

    from repro.engine import shm

    def leak_shm(stage: str) -> bool:
        """Shared-memory leak gate: no trace segment survives a sweep.

        Fault-killed workers (SIGKILL included) only ever *attach*;
        the parent registry owns every segment and must unlink them
        all on the way out, whatever the sweep just went through.
        """
        leaked = shm.leaked_segments()
        if leaked:
            print(
                f"chaos: FAIL — {stage} leaked shared-memory "
                f"segments: {', '.join(leaked)}",
                file=sys.stderr,
            )
            return True
        return False

    print(f"chaos: {len(jobs)} jobs, plan [{plan.render()}]")
    expected = run_sweep(jobs, workers=1)

    with tempfile.TemporaryDirectory(prefix="bcache-chaos-") as tmp:
        run_root = args.run_root or tmp
        faulted = run_sweep(
            jobs,
            workers=args.workers,
            run_id="chaos",
            run_root=run_root,
            resilience=config,
            fault_plan=plan,
        )
        if faulted != expected:
            print("chaos: FAIL — faulted run diverged from clean run", file=sys.stderr)
            return 1
        if leak_shm("faulted run"):
            return 1
        print("chaos: faulted run recovered bit-identically")
        resumed = run_sweep(
            jobs,
            workers=1,
            run_id="chaos",
            run_root=run_root,
            resilience=config,
        )
        if resumed != expected:
            print("chaos: FAIL — resume diverged from clean run", file=sys.stderr)
            return 1
        if leak_shm("resume"):
            return 1
        print("chaos: resume replayed bit-identically from the run store")
    print(f"chaos: PASS ({len(plan)} faults injected and recovered)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
