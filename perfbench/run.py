"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repro-sweep --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones; earlier lines are a human-readable
report (output digests, tier counters, numpy/CPU availability).
``--write-expected`` regenerates ``perfbench/expected.json``, the
default-seed output digests every run is checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Variables that change what the program does; runs start without them.
PROGRAM_ENV = ("REPRO_OBS", "REPRO_OBS_LOG", "REPRO_JOBS", "REPRO_NUMPY",
               "REPRO_TRACE_SAMPLE", "REPRO_TRACE_STORE", "REPRO_RUN_ROOT")


def isolate(work: Path) -> dict:
    """Fresh program environment rooted in ``work``; also applied to
    this process, which imports the program after set-up."""
    env = {key: value for key, value in os.environ.items()
           if key not in PROGRAM_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RUN_ROOT"] = str(work / "runs")
    env["REPRO_TRACE_STORE"] = str(work / "traces")
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    if not args.write_expected and args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = isolate(work)
        import bench_batch

        if args.write_expected:
            bench_batch.write_expected()
            return 0
        if args.workload == "serve-mixed":
            import bench_serve

            result = bench_serve.run(args.seed, args.seconds, bool(args.trace),
                                     work, env)
        else:
            result = bench_batch.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["metrics"]
    absent = [entry["name"] for entry in declared if entry["name"] not in values]
    if absent and not args.trace:
        raise RuntimeError(f"workload did not measure {absent}")
    if absent:
        print(f"[{args.workload}] layers this workload does not enter "
              "(reported as 0): " + " ".join(absent))
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in declared
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
