"""Outside-in layer timing for the batch workloads.

Nothing here edits the program: every layer is measured by replacing a
function or method of a ``repro`` module (its public entry points, plus
the sensitivity sweep point as a unit of work) with a wrapper for the
duration of a pass, then putting the original back.  Wrappers keep a
frame stack, so each layer gets both its inclusive time and its *self*
time (inclusive time minus the time of wrapped calls beneath it).  The
self times of all layers plus the time outside every frame add up to
the pass's wall time exactly, which is what lets the report state the
share of ``wall_s`` that no layer explains.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from bench_util import SpeedProbe

clock = time.perf_counter


class Patches:
    """Replacements applied to ``repro`` modules and classes, undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner: object, name: str, replacement: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def item(self, mapping: dict, key: str, replacement: object) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that
        imported it by name (``from x import f`` copies the binding)."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.attr(module, name, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)


class PassMeter:
    """Pass time and per-simulation latency in host seconds, tracing off.

    A simulation is one call of ``execute_job``, ``run_side_cache``,
    ``run_system``, ``classify_misses`` or a sensitivity sweep point; a
    served request is one ``execute_job`` on a shard, so the batch and
    serve workloads share one unit of work.  The wrappers cost a clock
    read per simulation.  Every ``interval`` seconds, at a simulation
    boundary, the meter samples host speed; the probe's own time is
    left out of the pass.
    """

    def __init__(self, probe: SpeedProbe, interval: float = 0.5) -> None:
        self.probe = probe
        self.interval = interval
        self.samples: list[float] = []
        self.pass_s = 0.0
        self._segment_start = 0.0

    def install(self, patches: Patches) -> None:
        from repro.engine import runner
        from repro.experiments import common, sensitivity
        from repro.stats import three_c

        for original in (
            runner.execute_job,
            common.run_side_cache,
            common.run_system,
            three_c.classify_misses,
            sensitivity._measure_point,
        ):
            patches.function(original, self._wrap(original))

    def start_pass(self) -> None:
        self.samples = []
        self.pass_s = 0.0
        self.probe.probe()
        self._segment_start = clock()

    def end_pass(self) -> None:
        self._cut()

    def _cut(self) -> None:
        self.pass_s += clock() - self._segment_start
        self.probe.probe()
        self._segment_start = clock()

    def _wrap(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                done = clock()
                self.samples.append(done - started)
                if done - self._segment_start >= self.interval:
                    self._cut()

        return timed


def _trace_id(addresses: memoryview) -> tuple[int, str]:
    data = bytes(addresses.cast("B"))
    return len(addresses), hashlib.blake2b(data, digest_size=8).hexdigest()


def count_kinds(counts: Counter, kinds: bytes) -> None:
    """Add an access-kind column (0 read, 1 write, 2 ifetch) to the mix."""
    writes, ifetches = kinds.count(1), kinds.count(2)
    counts["mix.write"] += writes
    counts["mix.ifetch"] += ifetches
    counts["mix.read"] += len(kinds) - writes - ifetches


class LayerProfiler:
    """Per-layer self time, inclusive time and work counts for one pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.sim_keys: list[object] = []
        self.cache_stats: list[Any] = []
        self._stack: list[list] = []

    # -- frames ----------------------------------------------------------
    def enter(self, layer: str) -> list:
        frame = [layer, clock(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        duration = clock() - frame[1]
        self._stack.pop()
        layer = frame[0]
        self.self_s[layer] += duration - frame[2]
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def timed(self, layer: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self.leave(frame)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, patches: Patches) -> None:
        from repro.caches.base import Cache
        from repro.cpu.timing import OoOProcessorModel
        from repro.energy import model as energy
        from repro.engine import runner
        from repro.engine.trace_store import TraceStore
        from repro.experiments import common
        from repro.hierarchy.memory_system import MemoryHierarchy
        from repro.stats import three_c

        self._install_store(patches, TraceStore)
        self._install_kernels(patches, Cache)
        patches.function(common.combined_trace, self._combined(common.combined_trace))
        for name in ("fetch_instruction", "access_data"):
            original = getattr(MemoryHierarchy, name)
            patches.attr(MemoryHierarchy, name, self.timed("hierarchy", original))
        patches.attr(OoOProcessorModel, "run", self._timing(OoOProcessorModel.run))
        patches.function(
            three_c.classify_misses, self._three_c(three_c.classify_misses)
        )
        for original in (energy.access_energy_for, energy.bcache_access_energy):
            patches.function(original, self.timed("energy", original))
        for name in ("dynamic_pj", "static_pj_per_cycle_for_baseline", "report"):
            original = getattr(energy.SystemEnergyModel, name)
            patches.attr(energy.SystemEnergyModel, name, self.timed("energy", original))
        patches.function(runner.run_sweep, self.timed("runner", runner.run_sweep))
        patches.function(runner.execute_job, self._execute_job(runner.execute_job))
        patches.function(common.run_system, self._run_system(common.run_system))

    def _install_store(self, patches: Patches, store_cls: type) -> None:
        counts = self.counts

        def wrap(original: Callable, name: str) -> Callable:
            @functools.wraps(original)
            def wrapper(store: Any, *args: Any, **kwargs: Any) -> Any:
                misses, disk, shared = store.disk_misses, store.disk_hits, store.shared_hits
                # ensure() generates a missing blob without counting a miss.
                unseen = name == "ensure" and not store.address_path(
                    *args, **kwargs).is_file()
                frame = self.enter("trace_store.load")
                try:
                    result = original(store, *args, **kwargs)
                finally:
                    generated = store.disk_misses - misses + unseen
                    if generated:
                        frame[0] = "trace_store.generate"
                    self.leave(frame)
                counts["trace_store.calls"] += 1
                counts["trace_store.generated"] += generated
                counts["trace_store.disk_hits"] += store.disk_hits - disk
                counts["trace_store.shared_hits"] += store.shared_hits - shared
                if name == "addresses":
                    side = args[1] if len(args) > 1 else kwargs["side"]
                    counts["mix.ifetch" if side == "instr" else "mix.read"] += len(result)
                elif name == "accesses":
                    count_kinds(counts, bytes(result[1]))
                return result

            return wrapper

        for name in ("addresses", "accesses", "ensure"):
            patches.attr(store_cls, name, wrap(getattr(store_cls, name), name))

    def _install_kernels(self, patches: Patches, cache_cls: type) -> None:
        counts = self.counts
        generic = cache_cls._batch_trace
        access_trace = cache_cls.access_trace
        init = cache_cls.__init__

        @functools.wraps(access_trace)
        def batch(cache: Any, addresses: Any, kinds: Any = None) -> Any:
            frame = self.enter("kernel.batch")
            try:
                return access_trace(cache, addresses, kinds)
            finally:
                # last_kernel says "stdlib" for the generic per-block
                # fallback too; a class without its own _batch_trace is
                # the fallback.
                flavour = (
                    "generic"
                    if type(cache)._batch_trace is generic
                    else cache.last_kernel
                )
                frame[0] = f"kernel.{flavour}"
                self.leave(frame)
                counts[f"kernel.{flavour}.refs"] += len(addresses)

        @functools.wraps(init)
        def built(cache: Any, *args: Any, **kwargs: Any) -> None:
            init(cache, *args, **kwargs)
            self.cache_stats.append(cache.stats)

        patches.attr(cache_cls, "access_trace", batch)
        patches.attr(cache_cls, "access", self.timed("kernel.scalar", cache_cls.access))
        patches.attr(cache_cls, "__init__", built)

    def _combined(self, original: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter("workloads.combined_trace")
            try:
                trace = original(*args, **kwargs)
            finally:
                self.leave(frame)
            count_kinds(counts, bytes(access.kind for access in trace))
            return trace

        wrapper.cache_clear = original.cache_clear  # type: ignore[attr-defined]
        return wrapper

    def _timing(self, original: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(model: Any, trace: Any) -> Any:
            frame = self.enter("timing")
            try:
                result = original(model, trace)
            finally:
                self.leave(frame)
            counts["hierarchy.l2_refs"] += result.l2_accesses
            return result

        return wrapper

    def _three_c(self, original: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(cache: Any, addresses: Any, reference: Any = None) -> Any:
            trace = _trace_id(addresses)
            self.sim_keys.append(
                ("cut", type(cache).__qualname__, cache.name, cache.size,
                 cache.line_size, cache.num_sets, trace)
            )
            self.sim_keys.append(("fa-lru", cache.size, cache.line_size, trace))
            frame = self.enter("three_c")
            try:
                breakdown = original(cache, addresses, reference)
            finally:
                self.leave(frame)
            counts["three_c.refs"] += breakdown.accesses
            return breakdown

        return wrapper

    def _execute_job(self, original: Callable) -> Callable:
        inner = self.timed("runner", original)

        @functools.wraps(original)
        def wrapper(job: Any, *args: Any, **kwargs: Any) -> Any:
            self.sim_keys.append(("job", job))
            self.counts["runner.jobs"] += 1
            return inner(job, *args, **kwargs)

        return wrapper

    def _run_system(self, original: Callable) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.sim_keys.append(("system",) + tuple(bound.arguments.values()))
            return original(*args, **kwargs)

        return wrapper

    # -- report ----------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        self_s, total_s, calls, counts = self.self_s, self.total_s, self.calls, self.counts
        out: dict[str, float] = {}
        out["trace_store.load_s"] = self_s["trace_store.load"]
        out["trace_store.generate_s"] = self_s["trace_store.generate"]
        for name in ("calls", "disk_hits", "shared_hits", "generated"):
            out[f"trace_store.{name}"] = counts[f"trace_store.{name}"]
        out["trace_store.memory_hits"] = (
            counts["trace_store.calls"] - counts["trace_store.generated"]
            - counts["trace_store.disk_hits"] - counts["trace_store.shared_hits"]
        )
        out["workloads.combined_trace_s"] = self_s["workloads.combined_trace"]
        batch_refs = 0
        for flavour in ("numpy", "stdlib", "generic"):
            out[f"kernel.{flavour}.s"] = self_s[f"kernel.{flavour}"]
            out[f"kernel.{flavour}.refs"] = counts[f"kernel.{flavour}.refs"]
            batch_refs += counts[f"kernel.{flavour}.refs"]
        scalar_refs = sum(stats.accesses for stats in self.cache_stats) - batch_refs
        out["kernel.scalar.s"] = self_s["kernel.scalar"]
        out["kernel.scalar.refs"] = scalar_refs
        simulated = scalar_refs + batch_refs
        out["kernel.scalar_share"] = scalar_refs / simulated if simulated else 0.0
        out["hierarchy.s"] = total_s["hierarchy"]
        out["hierarchy.self_s"] = self_s["hierarchy"]
        out["hierarchy.refs"] = calls["hierarchy"]
        out["hierarchy.l2_refs"] = counts["hierarchy.l2_refs"]
        out["timing.self_s"] = self_s["timing"]
        out["timing.runs"] = calls["timing"]
        out["three_c.self_s"] = self_s["three_c"]
        out["three_c.refs"] = counts["three_c.refs"]
        out["energy.s"] = total_s["energy"]
        out["runner.jobs"] = counts["runner.jobs"]
        out["runner.self_s"] = self_s["runner"]
        runs = len(self.sim_keys)
        out["sim.runs"] = runs
        out["sim.duplicate_share"] = 1 - len(set(self.sim_keys)) / runs if runs else 0.0
        # Time in no layer below the experiments: their own glue code
        # plus anything outside every frame.
        below = sum(v for k, v in self_s.items() if not k.startswith("exp."))
        out["exp.self_s"] = sum(self_s.values()) - below
        out["unattributed_share"] = (wall_s - below) / wall_s
        refs = counts["mix.read"] + counts["mix.write"] + counts["mix.ifetch"]
        for kind in ("read", "write", "ifetch"):
            out[f"mix.{kind}_share"] = counts[f"mix.{kind}"] / refs if refs else 0.0
        return out
