"""One job codec and one content-addressed result store.

Every number the reproduction reports, from a figure's miss rates to a
served ``CacheStats``, is a pure function of one
:class:`~repro.engine.runner.SweepJob`.  This module is the single place
that describes a job outside the process and the single durable store
for what a job computed:

* **The codec** — :func:`job_to_wire` / :func:`job_from_wire` are the
  wire form every client, server and loader speaks (the decoder
  validates: unknown fields, lossy scalars and out-of-range values
  raise :class:`BadJob`); :func:`job_key` is the canonical key (sorted
  keys, fixed separators) that the micro-batcher coalesces on and the
  cluster deduplicates on; :func:`job_hash` folds that key with the
  engine fingerprint into a 128-bit truncated SHA-256, wide enough that
  accidental collisions stay out of reach even at birthday-paradox
  request volumes (see PAPERS.md).
* **The store** — :class:`ResultCache` keeps an in-process LRU of
  snapshots in front of a crash-safe disk tier: one CRC32-framed JSON
  line per entry file, written to a temp file and renamed into place,
  quarantined on corruption instead of trusted.  Entries live under a
  directory named by the **engine fingerprint** (a hash of every
  simulation-relevant source file), so editing a kernel, a workload
  generator or a replacement policy invalidates every stale result.
  The serve tier uses one as its shared result cache; a ``run_id``
  sweep opens one in its run directory as its resumable run store.

All methods of :class:`ResultCache` are synchronous and thread-safe;
event-loop callers must off-load ``get``/``put`` to an executor
(BCL011) or use the loop-safe :meth:`ResultCache.lookup_memory` fast
path, which is pure dict work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

from repro.engine.runner import SweepJob
from repro.obs import instrument as _obs

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"

_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(SweepJob))

#: The job field set: every :class:`SweepJob` field is part of the key,
#: so a field ``execute_job`` reads can never be missing from it.  Lint
#: rule BCL018 keeps a copy (``RESULT_CACHE_KEY_FIELDS``) and checks
#: the engine against it.
KEY_FIELDS = frozenset(_FIELD_NAMES)

#: Hard cap on one wire job's trace length (memory admission control).
MAX_TRACE_N = 2_000_000

#: Hex digits kept from the SHA-256 job digest: 32 nibbles = 128 bits,
#: sized against birthday-paradox collision odds (PAPERS.md).
HASH_HEX_DIGITS = 32

#: Hex digits of the engine fingerprint used in directory names.
FINGERPRINT_HEX_DIGITS = 16

#: Source trees whose bytes define what a simulation computes; any
#: change to them must invalidate every stored snapshot.
_FINGERPRINT_ROOTS = (
    "caches",
    "core",
    "cpu",
    "hierarchy",
    "replacement",
    "stats",
    "trace",
    "workloads",
    "engine/runner.py",
    "engine/trace_store.py",
)


class BadJob(ValueError):
    """A wire job description is malformed or cannot be keyed exactly."""


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def job_to_wire(job: SweepJob) -> dict[str, Any]:
    """The job as a plain JSON-ready dict (every field, always)."""
    return {name: getattr(job, name) for name in _FIELD_NAMES}


def job_from_wire(payload: Mapping[str, Any]) -> SweepJob:
    """Validate one wire job description and build its :class:`SweepJob`.

    Missing fields take the dataclass defaults.  Every present field
    must be an exact scalar of its type — a float or bool where an int
    belongs would key differently from the job it means — and ``n``,
    ``size``, ``line_size`` and ``side`` must be in range.
    """
    unknown = set(payload) - KEY_FIELDS
    if unknown:
        raise BadJob(f"unknown job field(s): {', '.join(sorted(unknown))}")
    if "spec" not in payload or "benchmark" not in payload:
        raise BadJob("job needs at least 'spec' and 'benchmark'")
    job = SweepJob(**payload)
    if not isinstance(job.spec, str) or not isinstance(job.benchmark, str):
        raise BadJob("'spec' and 'benchmark' must be strings")
    if (isinstance(job.n, bool) or not isinstance(job.n, int)
            or not 0 < job.n <= MAX_TRACE_N):
        raise BadJob(f"'n' must be an int in (0, {MAX_TRACE_N}]")
    for name in ("seed", "size", "line_size"):
        value = getattr(job, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadJob(f"{name!r} must be an int")
    if job.size <= 0 or job.line_size <= 0:
        raise BadJob("'size' and 'line_size' must be positive")
    if not isinstance(job.policy, str):
        raise BadJob("'policy' must be a string")
    if not isinstance(job.with_kinds, bool):
        raise BadJob("'with_kinds' must be a boolean")
    if job.side not in ("data", "instr", "combined"):
        raise BadJob(f"bad side {job.side!r}")
    if job.side == "combined" and not job.with_kinds:
        raise BadJob("side 'combined' requires with_kinds=true")
    return job


def job_key(job: SweepJob) -> str:
    """Canonical serialisation of a job: sorted keys, fixed separators."""
    return json.dumps(job_to_wire(job), sort_keys=True, separators=(",", ":"))


def _digest(key: str, fingerprint: str) -> str:
    body = f"{fingerprint}\n{key}"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:HASH_HEX_DIGITS]


def job_hash(job: SweepJob, fingerprint: str = "") -> str:
    """128-bit content hash of (engine fingerprint, canonical job key)."""
    return _digest(job_key(job), fingerprint)


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
def frame(payload: dict[str, Any]) -> str:
    """One record: ``<crc32-hex> <canonical-json>\\n``."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(body.encode()):08x} {body}\n"


def unframe(raw: str) -> dict[str, Any] | None:
    """Decode one record; ``None`` for a torn or bit-rotted one."""
    head, sep, body = raw.rstrip("\n").partition(" ")
    if not sep or len(head) != 8:
        return None
    try:
        expected = int(head, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode()) != expected:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def temp_path(path: Path) -> Path:
    """Where :meth:`ResultCache.put` writes ``path`` before the rename."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def engine_fingerprint() -> str:
    """Hash of every simulation-relevant source file in this install.

    Walks the trees in ``_FINGERPRINT_ROOTS`` in sorted order and
    digests each file's package-relative path alongside its bytes, so
    renames invalidate too.  Cached per process — the sources cannot
    change under a running process in a way Python would notice anyway.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for root in _FINGERPRINT_ROOTS:
        target = package_root / root
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:FINGERPRINT_HEX_DIGITS]


def default_cache_root() -> Path:
    """``$REPRO_RESULT_CACHE`` or ``~/.cache/bcache-repro/results``."""
    env = os.environ.get(ENV_RESULT_CACHE)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "bcache-repro" / "results"


class ResultCache:
    """Two-tier (memory LRU + CRC-framed disk) store of job snapshots.

    Args:
        root: store root directory (default
            ``$REPRO_RESULT_CACHE`` or ``~/.cache/bcache-repro/results``);
            entries live under ``<root>/fp-<engine fingerprint>/``.
        capacity: in-process LRU entry budget.
        fingerprint: engine fingerprint override (tests); defaults to
            :func:`engine_fingerprint` over the live sources.
        fsync: flush disk entries to stable storage before the rename
            (disable only in tests, mirroring the trace store).

    Thread-safe; every public method may be called from executor
    threads.  Only :meth:`lookup_memory` is cheap enough for an event
    loop.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        capacity: int = 4096,
        fingerprint: str | None = None,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = fingerprint if fingerprint else engine_fingerprint()
        self.dir = self.root / f"fp-{self.fingerprint}"
        self.quarantine_root = self.root / "quarantine"
        self.capacity = max(1, capacity)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0

    # -- keys ----------------------------------------------------------
    def key(self, job: SweepJob) -> str:
        """The content hash this store files ``job`` under."""
        return job_hash(job, self.fingerprint)

    def entry_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    # -- memory tier (event-loop safe) ---------------------------------
    def lookup_memory(self, key: str) -> dict[str, Any] | None:
        """Memory-tier probe: pure dict work, safe on an event loop."""
        with self._lock:
            snapshot = self._memory.get(key)
            if snapshot is None:
                return None
            self._memory.move_to_end(key)
            self.hits_memory += 1
        _obs.resultcache_lookup("memory")
        return snapshot

    def _remember(self, key: str, snapshot: dict[str, Any]) -> None:
        with self._lock:
            self._memory[key] = snapshot
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                self.evictions += 1
                _obs.resultcache_evicted()
            _obs.resultcache_entries(len(self._memory))

    # -- full lookup (executor threads) --------------------------------
    def get(self, job: SweepJob) -> dict[str, Any] | None:
        """Snapshot for ``job``, or ``None`` on a miss.

        Checks the memory LRU first, then the disk tier; a disk hit is
        promoted into memory.  A corrupt disk entry is quarantined and
        reported as a miss (the caller recomputes), and an entry whose
        stored canonical key disagrees with the probe (a 128-bit hash
        collision, i.e. never) is ignored rather than served.
        """
        canonical = job_key(job)
        key = _digest(canonical, self.fingerprint)
        snapshot = self.lookup_memory(key)
        if snapshot is not None:
            return snapshot
        entry = self._load_entry(key)
        stats = entry.get("stats") if entry is not None else None
        if (
            entry is not None
            and entry.get("key") == canonical
            and isinstance(stats, dict)
        ):
            with self._lock:
                self.hits_disk += 1
            _obs.resultcache_lookup("disk")
            self._remember(key, stats)
            return stats
        with self._lock:
            self.misses += 1
        _obs.resultcache_lookup("miss")
        return None

    def _load_entry(self, key: str) -> dict[str, Any] | None:
        path = self.entry_path(key)
        try:
            raw = path.read_text("utf-8")
        except OSError:
            return None
        entry = unframe(raw)
        if entry is None:
            self._quarantine(path, "crc mismatch")
        return entry

    def _quarantine(self, path: Path, reason: str) -> None:
        """Park a corrupt entry for forensics; the caller recomputes."""
        target = self.quarantine_root / path.name
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # A racing process already moved or replaced it.
            path.unlink(missing_ok=True)
        with self._lock:
            self.quarantined += 1
        _obs.resultcache_quarantined(path.name, reason)

    # -- store ----------------------------------------------------------
    def put(self, job: SweepJob, snapshot: dict[str, Any]) -> None:
        """File ``snapshot`` under ``job``'s content hash, both tiers.

        The disk write is atomic and (by default) durable: temp file,
        optional fsync, ``os.replace`` — racing writers of the same key
        converge on one intact entry because the snapshot is a pure
        function of the key.  A failed write removes its temp file and
        raises ``OSError``; the memory tier keeps the snapshot, so a
        caller that treats the store as best-effort may suppress it.
        """
        canonical = job_key(job)
        key = _digest(canonical, self.fingerprint)
        self._remember(key, snapshot)
        path = self.entry_path(key)
        tmp = temp_path(path)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(frame({"key": canonical, "stats": snapshot}))
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise
        with self._lock:
            self.stores += 1
        _obs.resultcache_stored()

    # -- invalidation ---------------------------------------------------
    def prune_stale(self) -> int:
        """Delete entry directories written by older engine builds.

        Returns the number of stale fingerprint directories removed.
        Safe to call on every server start: the current fingerprint's
        directory and the quarantine area are never touched.
        """
        removed = 0
        try:
            children = list(self.root.iterdir())
        except OSError:
            return 0
        for child in children:
            if not child.is_dir() or not child.name.startswith("fp-"):
                continue
            if child == self.dir:
                continue
            shutil.rmtree(child, ignore_errors=True)
            removed += 1
        if removed:
            _obs.resultcache_invalidated(removed)
        return removed

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Counters for the server's ``status`` response."""
        with self._lock:
            return {
                "fingerprint": self.fingerprint,
                "entries_memory": len(self._memory),
                "capacity": self.capacity,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
            }

    @property
    def hits(self) -> int:
        with self._lock:
            return self.hits_memory + self.hits_disk
