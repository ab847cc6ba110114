"""Figures 4, 5 and 12 — miss-rate reductions over the baseline.

* Figure 4: data cache at 16 kB, reported as CINT2K and CFP2K panels.
* Figure 5: instruction cache at 16 kB for the fifteen benchmarks whose
  baseline I$ miss rate is significant.
* Figure 12: both caches at 8 kB and 32 kB, with the extra
  BAS = 4 design points.

All report *percentage miss-rate reduction over the direct-mapped
baseline* per benchmark, plus the arithmetic-mean "Ave" bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.caches.factory import FIGURE12_SPECS, FIGURE45_SPECS
from repro.experiments.ascii_chart import horizontal_bars
from repro.experiments.common import DEFAULT, ExperimentScale, sweep_stats
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction, miss_rate_reduction
from repro.workloads.spec2k import CFP2K, CINT2K, REPORTED_ICACHE


@dataclass(frozen=True)
class ReductionPanel:
    """One figure panel: benchmarks x configs, reductions in [0, 1]."""

    title: str
    side: str
    size: int
    specs: tuple[str, ...]
    benchmarks: tuple[str, ...]
    baseline_rates: dict[str, float]
    reductions: dict[str, dict[str, float]]  # spec -> benchmark -> reduction

    def average(self, spec: str) -> float:
        return average_reduction(
            [self.reductions[spec][b] for b in self.benchmarks]
        )

    def render(self) -> str:
        headers = ["benchmark", "DM miss%"] + list(self.specs)
        rows: list[list[object]] = []
        for benchmark in self.benchmarks:
            row: list[object] = [
                benchmark,
                100.0 * self.baseline_rates[benchmark],
            ]
            row.extend(
                100.0 * self.reductions[spec][benchmark] for spec in self.specs
            )
            rows.append(row)
        ave: list[object] = ["Ave", ""]
        ave.extend(100.0 * self.average(spec) for spec in self.specs)
        rows.append(ave)
        return format_table(headers, rows, title=self.title)

    def render_chart(self) -> str:
        """Bar chart of the per-config averages (the figure's Ave bars)."""
        return horizontal_bars(
            {spec: 100.0 * self.average(spec) for spec in self.specs},
            title=f"{self.title} — average reductions",
        )


def run_panel(
    benchmarks: Sequence[str],
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    specs: Sequence[str] = FIGURE45_SPECS,
    title: str = "",
    jobs: int | None = None,
    run_id: str | None = None,
) -> ReductionPanel:
    """Measure one panel of miss-rate reductions.

    The (spec x benchmark) grid goes through the engine's sweep runner:
    ``jobs`` (default ``$REPRO_JOBS``) fans the jobs across processes
    with bit-identical results.  ``run_id`` stores every grid cell
    durably so a killed panel resumes where it stopped (see
    ``docs/engine.md``).
    """
    all_specs = ["dm"] + [spec for spec in specs if spec != "dm"]
    stats = sweep_stats(
        all_specs, benchmarks, side, scale, size=size, jobs=jobs, run_id=run_id
    )
    baseline_rates: dict[str, float] = {}
    reductions: dict[str, dict[str, float]] = {spec: {} for spec in specs}
    for benchmark in benchmarks:
        base = stats[("dm", benchmark)].miss_rate
        baseline_rates[benchmark] = base
        for spec in specs:
            rate = stats[(spec, benchmark)].miss_rate
            reductions[spec][benchmark] = miss_rate_reduction(base, rate)
    return ReductionPanel(
        title=title or f"{side} cache {size // 1024}kB miss-rate reductions",
        side=side,
        size=size,
        specs=tuple(specs),
        benchmarks=tuple(benchmarks),
        baseline_rates=baseline_rates,
        reductions=reductions,
    )


@dataclass(frozen=True)
class Fig4Result:
    cint: ReductionPanel
    cfp: ReductionPanel

    def render(self) -> str:
        return (
            self.cfp.render()
            + "\n\n"
            + self.cint.render()
            + "\n\n"
            + self.cfp.render_chart()
            + "\n\n"
            + self.cint.render_chart()
        )


def _sub_id(run_id: str | None, suffix: str) -> str | None:
    """Derive a per-panel run id (multi-panel figures get one run
    store per panel so each resumes independently)."""
    return f"{run_id}-{suffix}" if run_id else None


def run_fig4(
    scale: ExperimentScale = DEFAULT,
    jobs: int | None = None,
    run_id: str | None = None,
) -> Fig4Result:
    """Figure 4: D$ reductions at 16 kB, CFP2K and CINT2K panels."""
    cfp = run_panel(
        CFP2K, "data", scale,
        title="Figure 4 (top): SPEC CFP2K data cache, 16kB",
        jobs=jobs, run_id=_sub_id(run_id, "cfp"),
    )
    cint = run_panel(
        CINT2K, "data", scale,
        title="Figure 4 (bottom): SPEC CINT2K data cache, 16kB",
        jobs=jobs, run_id=_sub_id(run_id, "cint"),
    )
    return Fig4Result(cint=cint, cfp=cfp)


def run_fig5(
    scale: ExperimentScale = DEFAULT,
    jobs: int | None = None,
    run_id: str | None = None,
) -> ReductionPanel:
    """Figure 5: I$ reductions at 16 kB for the reported benchmarks."""
    return run_panel(
        REPORTED_ICACHE, "instr", scale,
        title="Figure 5: instruction cache, 16kB",
        jobs=jobs, run_id=run_id,
    )


@dataclass(frozen=True)
class Fig12Result:
    panels: tuple[ReductionPanel, ...]  # 32kB D$, 32kB I$, 8kB D$, 8kB I$

    def render(self) -> str:
        headers = ["config", "32K D$", "32K I$", "8K D$", "8K I$"]
        specs = self.panels[0].specs
        rows = []
        for spec in specs:
            rows.append(
                [spec] + [100.0 * panel.average(spec) for panel in self.panels]
            )
        return format_table(
            headers, rows, title="Figure 12: average miss-rate reductions"
        )


def run_fig12(
    scale: ExperimentScale = DEFAULT,
    jobs: int | None = None,
    run_id: str | None = None,
) -> Fig12Result:
    """Figure 12: average reductions at 32 kB and 8 kB, both caches."""
    benchmarks_d = CINT2K + CFP2K
    panels = []
    for size in (32 * 1024, 8 * 1024):
        kb = size // 1024
        panels.append(
            run_panel(
                benchmarks_d, "data", scale, size=size,
                specs=FIGURE12_SPECS,
                title=f"Figure 12: D$ {kb}kB",
                jobs=jobs, run_id=_sub_id(run_id, f"d{kb}k"),
            )
        )
        panels.append(
            run_panel(
                REPORTED_ICACHE, "instr", scale, size=size,
                specs=FIGURE12_SPECS,
                title=f"Figure 12: I$ {kb}kB",
                jobs=jobs, run_id=_sub_id(run_id, f"i{kb}k"),
            )
        )
    # Order: 32K D$, 32K I$, 8K D$, 8K I$ (paper's x-axis order).
    return Fig12Result(panels=(panels[0], panels[1], panels[2], panels[3]))
