"""Figure 3 — wupwise D$ miss rate and PD hit rate vs mapping factor.

The paper sweeps MF from 2 to 512 at BAS = 8 on wupwise's data cache
and observes: the PD hit rate during misses stays high (the colliding
addresses share the PD's low tag bits) until the PD grows enough tag
bits to tell them apart, at which point both the PD hit rate and the
miss rate drop sharply (between MF = 32 and MF = 64 in the paper —
regions 2^19 apart need a 6-tag-bit PD).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import DEFAULT, ExperimentScale, sweep_stats
from repro.experiments.reporting import format_table

MF_SWEEP = (2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class MFSweepPoint:
    mapping_factor: int
    miss_rate: float
    pd_hit_rate_during_miss: float


@dataclass(frozen=True)
class Fig3Result:
    benchmark: str
    points: tuple[MFSweepPoint, ...]

    def render(self) -> str:
        rows = [
            (
                f"MF{p.mapping_factor}",
                100.0 * p.miss_rate,
                100.0 * p.pd_hit_rate_during_miss,
            )
            for p in self.points
        ]
        return format_table(
            ("config", "D$ miss rate %", "PD hit rate during miss %"),
            rows,
            title=f"Figure 3: {self.benchmark} 16kB D$, BAS=8",
        )

    def miss_rates(self) -> list[float]:
        return [p.miss_rate for p in self.points]

    def pd_hit_rates(self) -> list[float]:
        return [p.pd_hit_rate_during_miss for p in self.points]


def run(
    scale: ExperimentScale = DEFAULT,
    benchmark: str = "wupwise",
    mapping_factors: tuple[int, ...] = MF_SWEEP,
    jobs: int | None = None,
    run_id: str | None = None,
) -> Fig3Result:
    """Run the MF sweep of Figure 3 (parallelised across ``jobs``).

    ``run_id`` stores each MF point durably and resumes a previously
    killed sweep bit-identically (see ``docs/engine.md``).
    """
    specs = [f"mf{mf}_bas8" for mf in mapping_factors]
    stats_by_key = sweep_stats(
        specs, [benchmark], "data", scale, jobs=jobs, run_id=run_id
    )
    points = []
    for mf, spec in zip(mapping_factors, specs):
        stats = stats_by_key[(spec, benchmark)]
        points.append(
            MFSweepPoint(
                mapping_factor=mf,
                miss_rate=stats.miss_rate,
                pd_hit_rate_during_miss=stats.pd_hit_rate_during_miss,
            )
        )
    return Fig3Result(benchmark=benchmark, points=tuple(points))
