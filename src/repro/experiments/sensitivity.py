"""Design-space sensitivity sweeps beyond the paper's fixed points.

The paper fixes 32-byte lines and studies 8/16/32 kB capacities.  These
sweeps check that the B-Cache's advantage is not an artefact of that
geometry:

* ``run_line_size``  — 16/32/64-byte lines at 16 kB;
* ``run_cache_size`` — 4 kB to 64 kB at 32-byte lines (a superset of
  the paper's Figure 12 range).

Each point reports the direct-mapped baseline miss rate and the
reductions of the 4-way, 8-way and B-Cache organisations, averaged
over a benchmark subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches import make_cache, record_outcomes
from repro.experiments.common import DEFAULT, ExperimentScale, data_addresses
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction, miss_rate_reduction

SWEEP_SPECS = ("4way", "8way", "mf8_bas8")
SWEEP_BENCHMARKS = ("equake", "crafty", "gzip", "mcf", "twolf", "mesa")


@dataclass(frozen=True)
class SweepPoint:
    label: str
    baseline_miss_rate: float
    reductions: dict[str, float]


@dataclass(frozen=True)
class SensitivityResult:
    axis: str
    points: tuple[SweepPoint, ...]

    def render(self) -> str:
        rows = []
        for point in self.points:
            row: list[object] = [point.label, 100.0 * point.baseline_miss_rate]
            row.extend(100.0 * point.reductions[s] for s in SWEEP_SPECS)
            rows.append(row)
        return format_table(
            [self.axis, "DM miss%"] + [f"{s} red%" for s in SWEEP_SPECS],
            rows,
            title=f"Sensitivity sweep over {self.axis}",
        )

    def reduction_series(self, spec: str) -> list[float]:
        return [point.reductions[spec] for point in self.points]


def _measure_point(
    label: str,
    size: int,
    line_size: int,
    scale: ExperimentScale,
    benchmarks: tuple[str, ...],
) -> SweepPoint:
    baselines = []
    reductions: dict[str, list[float]] = {spec: [] for spec in SWEEP_SPECS}
    for benchmark in benchmarks:
        addresses = data_addresses(benchmark, scale.data_n, scale.seed)
        rates: dict[str, float] = {}
        for spec in ("dm",) + SWEEP_SPECS:
            cache = make_cache(spec, size=size, line_size=line_size)
            # The outcome path keeps the system experiments on the
            # stdlib kernels (no numpy import in their process).
            record_outcomes(cache, addresses)
            rates[spec] = cache.miss_rate
        baselines.append(rates["dm"])
        for spec in SWEEP_SPECS:
            reductions[spec].append(miss_rate_reduction(rates["dm"], rates[spec]))
    return SweepPoint(
        label=label,
        baseline_miss_rate=average_reduction(baselines),
        reductions={
            spec: average_reduction(values) for spec, values in reductions.items()
        },
    )


def run_line_size(
    scale: ExperimentScale = DEFAULT,
    line_sizes: tuple[int, ...] = (16, 32, 64),
    size: int = 16 * 1024,
    benchmarks: tuple[str, ...] = SWEEP_BENCHMARKS,
) -> SensitivityResult:
    """Sweep the line size at fixed capacity."""
    points = tuple(
        _measure_point(f"{line}B", size, line, scale, benchmarks)
        for line in line_sizes
    )
    return SensitivityResult(axis="line size", points=points)


def run_cache_size(
    scale: ExperimentScale = DEFAULT,
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
    line_size: int = 32,
    benchmarks: tuple[str, ...] = SWEEP_BENCHMARKS,
) -> SensitivityResult:
    """Sweep the capacity (sizes in kB) at fixed line size."""
    points = tuple(
        _measure_point(f"{kb}kB", kb * 1024, line_size, scale, benchmarks)
        for kb in sizes
    )
    return SensitivityResult(axis="cache size", points=points)
