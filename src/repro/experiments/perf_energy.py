"""Figures 8 and 9 — IPC improvement and normalised total energy.

Both figures come from the same simulations (the paper runs
SimpleScalar once per configuration and derives IPC and the Figure 10
energy equations from it), so one runner produces both:

* Figure 8: percentage IPC improvement over the baseline processor for
  2-/4-/8-way caches, the B-Cache (MF=8, BAS=8) and the 16-entry
  victim buffer — all 26 benchmarks plus the average.
* Figure 9: total memory-related energy normalised to the baseline,
  same configurations, using the Figure 10 equations with static
  energy calibrated to 50 % of the baseline total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.caches.factory import FIGURE89_SPECS
from repro.cpu.timing import ExecutionResult
from repro.energy.model import (
    ConfigEnergy,
    RunActivity,
    SystemEnergyModel,
    access_energy_for,
)
from repro.experiments.common import DEFAULT, ExperimentScale, run_system
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction, improvement
from repro.workloads.spec2k import ALL_BENCHMARKS


def _activity(result: ExecutionResult, spec: str) -> RunActivity:
    """Extract the Figure 10 counters from one run."""
    hierarchy = result.hierarchy  # type: ignore[attr-defined]
    stats = hierarchy.stats
    l1i = hierarchy.l1i.cache.stats
    l1d = hierarchy.l1d.cache.stats
    return RunActivity(
        l1i_accesses=l1i.accesses,
        l1i_misses=l1i.misses,
        l1i_pd_predicted_misses=l1i.pd_miss_misses,
        l1d_accesses=l1d.accesses,
        l1d_misses=l1d.misses,
        l1d_pd_predicted_misses=l1d.pd_miss_misses,
        l2_accesses=stats.l2_accesses,
        l2_misses=stats.l2_misses,
        cycles=result.cycles,
    )


@dataclass(frozen=True)
class SystemPoint:
    """One (config, benchmark) system simulation."""

    spec: str
    benchmark: str
    ipc: float
    energy_pj: float
    l1i_miss_rate: float
    l1d_miss_rate: float


@dataclass(frozen=True)
class PerfEnergyResult:
    specs: tuple[str, ...]
    benchmarks: tuple[str, ...]
    ipc: dict[str, dict[str, float]]  # spec -> benchmark -> IPC
    energy: dict[str, dict[str, float]]  # spec -> benchmark -> pJ

    # ------------------------------------------------------------------
    def ipc_improvement(self, spec: str, benchmark: str) -> float:
        return improvement(self.ipc["dm"][benchmark], self.ipc[spec][benchmark])

    def average_ipc_improvement(self, spec: str) -> float:
        return average_reduction(
            [self.ipc_improvement(spec, b) for b in self.benchmarks]
        )

    def normalized_energy(self, spec: str, benchmark: str) -> float:
        return self.energy[spec][benchmark] / self.energy["dm"][benchmark]

    def average_normalized_energy(self, spec: str) -> float:
        return average_reduction(
            [self.normalized_energy(spec, b) for b in self.benchmarks]
        )

    # ------------------------------------------------------------------
    def render_fig8(self) -> str:
        headers = ["benchmark"] + [s for s in self.specs if s != "dm"]
        rows = []
        for benchmark in self.benchmarks:
            rows.append(
                [benchmark]
                + [
                    100.0 * self.ipc_improvement(spec, benchmark)
                    for spec in self.specs
                    if spec != "dm"
                ]
            )
        rows.append(
            ["Ave"]
            + [
                100.0 * self.average_ipc_improvement(spec)
                for spec in self.specs
                if spec != "dm"
            ]
        )
        return format_table(headers, rows, title="Figure 8: % IPC improvement over baseline")

    def render_fig9(self) -> str:
        headers = ["benchmark"] + [s for s in self.specs if s != "dm"]
        rows = []
        for benchmark in self.benchmarks:
            rows.append(
                [benchmark]
                + [
                    round(self.normalized_energy(spec, benchmark), 3)
                    for spec in self.specs
                    if spec != "dm"
                ]
            )
        rows.append(
            ["Ave"]
            + [
                round(self.average_normalized_energy(spec), 3)
                for spec in self.specs
                if spec != "dm"
            ]
        )
        return format_table(
            headers, rows, title="Figure 9: total energy normalised to baseline"
        )

    def render_charts(self) -> str:
        from repro.experiments.ascii_chart import horizontal_bars

        ipc_chart = horizontal_bars(
            {
                spec: 100.0 * self.average_ipc_improvement(spec)
                for spec in self.specs
                if spec != "dm"
            },
            title="Figure 8 — average % IPC improvement",
        )
        energy_chart = horizontal_bars(
            {
                spec: self.average_normalized_energy(spec)
                for spec in self.specs
                if spec != "dm"
            },
            unit="x",
            title="Figure 9 — average normalised energy (1.0 = baseline)",
        )
        return ipc_chart + "\n\n" + energy_chart

    def render(self) -> str:
        return (
            self.render_fig8()
            + "\n\n"
            + self.render_fig9()
            + "\n\n"
            + self.render_charts()
        )


@lru_cache(maxsize=4)
def run(
    scale: ExperimentScale = DEFAULT,
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
    specs: tuple[str, ...] = ("dm",) + FIGURE89_SPECS,
) -> PerfEnergyResult:
    """Run the Figure 8/9 study: one system simulation per (spec, bench).

    Memoised per argument set (the result holds only floats, not the
    simulated hierarchies), so ``fig8`` and ``fig9`` in one invocation
    share a run; :func:`~repro.experiments.common.clear_trace_caches`
    drops the memo.
    """
    ipc: dict[str, dict[str, float]] = {spec: {} for spec in specs}
    energy: dict[str, dict[str, float]] = {spec: {} for spec in specs}
    config_energies: dict[str, ConfigEnergy] = {
        spec: access_energy_for(spec) for spec in specs
    }
    for benchmark in benchmarks:
        baseline_result = None
        activities: dict[str, RunActivity] = {}
        for spec in specs:
            result = run_system(spec, benchmark, scale)
            ipc[spec][benchmark] = result.ipc
            activities[spec] = _activity(result, spec)
            if spec == "dm":
                baseline_result = result
        assert baseline_result is not None
        baseline_model = SystemEnergyModel(
            l1i=config_energies["dm"], l1d=config_energies["dm"]
        )
        static_per_cycle = baseline_model.static_pj_per_cycle_for_baseline(
            activities["dm"]
        )
        for spec in specs:
            model = SystemEnergyModel(
                l1i=config_energies[spec], l1d=config_energies[spec]
            )
            report = model.report(activities[spec], static_per_cycle)
            energy[spec][benchmark] = report.total_pj
    return PerfEnergyResult(
        specs=tuple(specs),
        benchmarks=tuple(benchmarks),
        ipc=ipc,
        energy=energy,
    )
