"""The two batch workloads: ``bcache-repro all`` split by simulation path.

``repro-sweep`` runs the experiments whose simulations go through the
batch kernels (``Cache.access_trace``); ``repro-system`` runs the ones
that walk references one at a time through the hierarchy, the timing
model, the 3C classifier and the sensitivity sweeps.  Only the
closed-form circuit tables (tab1/2/3, addressing) are left out.

A run, all in one process after set-up:

1. set-up, three times: a fresh process imports the experiments and
   fills an empty trace store with every trace the workload reads
   (``materialise.py``); ``setup_s`` is the median;
2. a check pass at the default seed, whose output digests must equal
   the ones committed in ``expected.json``;
3. timed passes at the run's seed until ``--seconds`` have passed (at
   least three).  Every pass starts like a fresh ``bcache-repro``
   invocation on a warm disk store: in-process trace memos are
   dropped.  Their digests must agree with each other.

Times are divided by the run's host slowdown (``SpeedProbe``, probed
around each set-up and every half second of the passes).  With
``--trace 1`` step 3 is one pass under :mod:`bench_layers`.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from bench_util import (SpeedProbe, beyond, digest, median, percentile,
                        run_child)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

BATCH = {
    "repro-sweep": (
        "fig3", "fig4", "fig5", "fig12", "tab56", "tab7", "hac",
        "prior-art", "replacement", "latency", "drowsy",
    ),
    "repro-system": ("fig8", "fig9", "3c", "sensitivity"),
}
EXPERIMENT_IDS = BATCH["repro-sweep"] + BATCH["repro-system"]
#: A tenth of the ``smoke`` preset: every experiment, small traces.
SCALE = {"data_n": 2000, "instr_n": 3000, "instructions": 1000}
DEFAULT_SEED = 2006
SETUPS = 3
MIN_PASSES = 3


def scale_for(seed: int):
    from repro.experiments import ExperimentScale

    return ExperimentScale(seed=seed, **SCALE)


def bench_traces(workload: str, seed: int) -> list[tuple[str, str, int, int]]:
    """Every stored trace the workload reads (the system model's
    combined streams are generated in-process on every invocation)."""
    from repro.workloads.spec2k import ALL_BENCHMARKS

    sides = [("data", SCALE["data_n"])]
    if workload == "repro-sweep":
        sides.append(("instr", SCALE["instr_n"]))
    return [(bench, side, n, seed) for bench in ALL_BENCHMARKS for side, n in sides]


def setup_once(workload: str, seed: int, store: Path, env: dict,
               probe: SpeedProbe) -> float:
    """One cold set-up, between two speed probes; returns host seconds."""
    probe.probe()
    started = time.perf_counter()
    run_child([sys.executable, str(HERE / "materialise.py"), workload, str(seed)],
              {**env, "REPRO_TRACE_STORE": str(store)})
    elapsed = time.perf_counter() - started
    probe.probe()
    return elapsed


def run_pass(workload: str, seed: int, meter=None) -> tuple[float, dict[str, str]]:
    """One fresh-invocation pass, timed by ``meter`` when given;
    returns its host seconds and the output digest per experiment."""
    from repro.cli import EXPERIMENTS, RunOptions
    from repro.experiments.common import clear_trace_caches

    scale = scale_for(seed)
    options = RunOptions(jobs=1)
    clear_trace_caches()
    gc.collect()
    digests = {}
    if meter is not None:
        meter.start_pass()
    started = time.perf_counter()
    for name in BATCH[workload]:
        digests[name] = digest(EXPERIMENTS[name](scale, options))
    seconds = time.perf_counter() - started
    if meter is not None:
        meter.end_pass()
    return seconds, digests


def expected_digests(workload: str) -> dict[str, str]:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


def write_expected() -> None:
    """Regenerate ``expected.json`` from the current code."""
    out = {workload: run_pass(workload, DEFAULT_SEED)[1] for workload in BATCH}
    EXPECTED.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def _mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [name for name in got if got[name] != want.get(name)]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        env: dict) -> dict:
    probe = SpeedProbe()
    setups = [] if trace else [
        setup_once(workload, seed, work / f"traces{index}", env, probe)
        for index in range(SETUPS)
    ]
    os.environ["REPRO_TRACE_STORE"] = str(work / f"traces{SETUPS - 1}")

    import bench_layers
    from repro.caches.columnar import get_numpy
    from repro.engine.runner import available_cpus

    names = BATCH[workload]
    failures: list[str] = []
    _, check = run_pass(workload, DEFAULT_SEED)
    failures += [f"{name}@{DEFAULT_SEED}" for name in
                 _mismatches(check, expected_digests(workload))]

    patches = bench_layers.Patches()
    if trace:
        result = _traced(workload, seed, patches)
        digests_seen = [result.pop("digests")]
    else:
        meter = bench_layers.PassMeter(probe)
        meter.install(patches)
        walls, samples, digests_seen = [], [], []
        try:
            started = time.perf_counter()
            while (len(walls) < MIN_PASSES
                   or time.perf_counter() - started < seconds):
                digests_seen.append(run_pass(workload, seed, meter)[1])
                walls.append(meter.pass_s)
                samples.extend(meter.samples)
        finally:
            patches.undo()
        slowdown = probe.slowdown
        wall = median(walls)
        result = {
            "setup_s": median(setups) / slowdown,
            "wall_s": wall / slowdown,
            "rps": len(samples) / len(walls) / wall * slowdown,
            "p50_ms": percentile(samples, 0.50) * 1e3 / slowdown,
            "p99_ms": percentile(samples, 0.99) * 1e3 / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"[{workload}] passes={len(walls)} "
              f"host_s={[round(wall, 3) for wall in walls]} "
              f"setup_host_s={[round(setup, 3) for setup in setups]} "
              f"slowdown={slowdown:.3f} simulations={len(samples)} "
              f"beyond_p99={beyond(samples, 0.99)}")
    for digests in digests_seen[1:]:
        failures += [f"{name}@{seed}" for name in _mismatches(digests, digests_seen[0])]
    run_digest = digest(json.dumps(digests_seen[0], sort_keys=True))
    print(f"[{workload}] seed={seed} output_digest={run_digest} "
          f"per_experiment={json.dumps(digests_seen[0], sort_keys=True)}")
    print(f"[{workload}] numpy={get_numpy() is not None} "
          f"available_cpus={available_cpus()}")
    if failures:
        print(f"[{workload}] output mismatches: {failures}")
    return {
        "attempted": len(names) * (1 + len(digests_seen)),
        "failed": len(failures),
        "metrics": result,
    }


def _traced(workload: str, seed: int, patches) -> dict:
    """Per-layer metrics: set-up and one pass at the run's seed, both
    measured through layer wrappers, in a fresh trace store."""
    import bench_layers
    from repro.cli import EXPERIMENTS
    from repro.engine.trace_store import default_store, set_default_store

    set_default_store(None)
    os.environ["REPRO_TRACE_STORE"] = os.environ["REPRO_TRACE_STORE"] + "-traced"
    setup = bench_layers.LayerProfiler()
    setup.install(patches)
    try:
        store = default_store()
        for benchmark, side, n, trace_seed in bench_traces(workload, seed):
            store.ensure(benchmark, side, n, trace_seed)
    finally:
        patches.undo()
    profiler = bench_layers.LayerProfiler()
    profiler.install(patches)
    for name in EXPERIMENT_IDS:
        patches.item(EXPERIMENTS, name, profiler.timed(f"exp.{name}", EXPERIMENTS[name]))
    try:
        wall, digests = run_pass(workload, seed)
    finally:
        patches.undo()
    out = profiler.metrics(wall)
    for key, value in setup.metrics(1.0).items():
        if key.startswith("trace_store."):
            out[key] += value
    for name in EXPERIMENT_IDS:
        out[f"exp.{name}.s"] = profiler.total_s[f"exp.{name}"]
    out["traced.wall_s"] = wall
    out["digests"] = digests
    print(f"[{workload}] reference mix: " + " ".join(
        f"{key}={out[key]:.3f}" for key in
        ("mix.read_share", "mix.write_share", "mix.ifetch_share")))
    return out
