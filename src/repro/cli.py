"""Command-line runner: regenerate any paper figure or table.

Usage::

    bcache-repro list
    bcache-repro fig3 [--scale smoke|default|full]
    bcache-repro fig4
    bcache-repro fig5
    bcache-repro fig8
    bcache-repro fig9
    bcache-repro fig12
    bcache-repro tab1 tab2 tab3 tab56 tab7
    bcache-repro hac prior-art replacement
    bcache-repro all
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.experiments import DEFAULT, FULL, SMOKE, ExperimentScale
from repro.experiments import circuit_tables, comparisons, extensions
from repro.experiments import fig3_mf_sweep, latency_study, miss_decomposition
from repro.experiments import missrate_figures, perf_energy
from repro.experiments import sensitivity, tab56_tradeoff, tab7_balance

_SCALES = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


@dataclass(frozen=True)
class RunOptions:
    """Engine options shared by the sweep-backed experiments.

    ``run_id`` opts into the crash-safe run store: the id is namespaced
    per experiment (``<run_id>-fig4`` etc.) so one ``bcache-repro all
    --run-id nightly`` invocation resumes each experiment independently
    after a kill.
    """

    jobs: int | None = None
    run_id: str | None = None

    def sub_id(self, name: str) -> str | None:
        return f"{self.run_id}-{name}" if self.run_id else None


def _render_fig3(scale: ExperimentScale, opts: "RunOptions") -> str:
    return fig3_mf_sweep.run(
        scale, jobs=opts.jobs, run_id=opts.sub_id("fig3")
    ).render()


def _render_fig4(scale: ExperimentScale, opts: "RunOptions") -> str:
    return missrate_figures.run_fig4(
        scale, jobs=opts.jobs, run_id=opts.sub_id("fig4")
    ).render()


def _render_fig5(scale: ExperimentScale, opts: "RunOptions") -> str:
    return missrate_figures.run_fig5(
        scale, jobs=opts.jobs, run_id=opts.sub_id("fig5")
    ).render()


def _render_fig12(scale: ExperimentScale, opts: "RunOptions") -> str:
    return missrate_figures.run_fig12(
        scale, jobs=opts.jobs, run_id=opts.sub_id("fig12")
    ).render()


def _render_fig8(scale: ExperimentScale, opts: "RunOptions") -> str:
    return perf_energy.run(scale).render_fig8()


def _render_fig9(scale: ExperimentScale, opts: "RunOptions") -> str:
    return perf_energy.run(scale).render_fig9()


def _render_tab1(scale: ExperimentScale, opts: "RunOptions") -> str:
    return circuit_tables.run_tab1().render()


def _render_tab2(scale: ExperimentScale, opts: "RunOptions") -> str:
    return circuit_tables.run_tab2().render()


def _render_tab3(scale: ExperimentScale, opts: "RunOptions") -> str:
    return circuit_tables.run_tab3().render()


def _render_tab56(scale: ExperimentScale, opts: "RunOptions") -> str:
    return tab56_tradeoff.run(scale).render()


def _render_tab7(scale: ExperimentScale, opts: "RunOptions") -> str:
    return tab7_balance.run(scale).render()


def _render_hac(scale: ExperimentScale, opts: "RunOptions") -> str:
    return comparisons.run_hac(scale).render()


def _render_prior_art(scale: ExperimentScale, opts: "RunOptions") -> str:
    return comparisons.run_prior_art(scale).render(
        "Section 7.1 prior art comparison"
    )


def _render_replacement(scale: ExperimentScale, opts: "RunOptions") -> str:
    return comparisons.run_replacement_ablation(scale).render()


def _render_sensitivity(scale: ExperimentScale, opts: "RunOptions") -> str:
    return (
        sensitivity.run_line_size(scale).render()
        + "\n\n"
        + sensitivity.run_cache_size(scale).render()
    )


def _render_3c(scale: ExperimentScale, opts: "RunOptions") -> str:
    return miss_decomposition.run(scale).render()


def _render_latency(scale: ExperimentScale, opts: "RunOptions") -> str:
    return latency_study.run(scale).render()


def _render_addressing(scale: ExperimentScale, opts: "RunOptions") -> str:
    return extensions.run_addressing().render()


def _render_drowsy(scale: ExperimentScale, opts: "RunOptions") -> str:
    return extensions.run_drowsy(scale).render()


EXPERIMENTS: dict[str, Callable[[ExperimentScale, RunOptions], str]] = {
    "fig3": _render_fig3,
    "fig4": _render_fig4,
    "fig5": _render_fig5,
    "fig8": _render_fig8,
    "fig9": _render_fig9,
    "fig12": _render_fig12,
    "tab1": _render_tab1,
    "tab2": _render_tab2,
    "tab3": _render_tab3,
    "tab56": _render_tab56,
    "tab7": _render_tab7,
    "hac": _render_hac,
    "prior-art": _render_prior_art,
    "replacement": _render_replacement,
    "latency": _render_latency,
    "3c": _render_3c,
    "sensitivity": _render_sensitivity,
    "addressing": _render_addressing,
    "drowsy": _render_drowsy,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-repro``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-repro",
        description="Regenerate tables/figures from the B-Cache paper (ISCA 2006).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all' / 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="trace-length preset (default: default)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="additionally write the selected experiments into one "
        "markdown report file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep-backed experiments "
        "(default: $REPRO_JOBS or serial); results are bit-identical "
        "to serial runs",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="store sweep results under this run id and resume a "
        "previously killed run bit-identically (stored in "
        "$REPRO_RUN_ROOT or ~/.cache/bcache-repro/runs; a resume after "
        "a simulation source changed re-runs the jobs)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    scale = _SCALES[args.scale]
    opts = RunOptions(jobs=args.jobs, run_id=args.run_id)
    status = 0
    try:
        for name in names:
            runner = EXPERIMENTS.get(name)
            if runner is None:
                print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
                status = 2
                continue
            started = time.time()
            print(f"== {name} (scale={args.scale}) ==")
            print(runner(scale, opts))
            print(f"[{time.time() - started:.1f}s]\n")
    except KeyboardInterrupt:
        print(
            "\nbcache-repro: interrupted — workers terminated"
            + (
                f"; completed jobs are stored under run id {args.run_id!r} "
                "(rerun with the same --run-id to resume)"
                if args.run_id
                else ""
            ),
            file=sys.stderr,
        )
        return 130

    if args.report and status == 0:
        from repro.experiments.report import write_report

        valid = tuple(name for name in names if name in EXPERIMENTS)
        # Bind this invocation's engine options; with --run-id the
        # report replays stored results instead of recomputing.
        registry = {
            name: (lambda s, _fn=fn: _fn(s, opts))
            for name, fn in EXPERIMENTS.items()
        }
        path = write_report(args.report, scale, experiments=registry, ids=valid)
        print(f"report written to {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
