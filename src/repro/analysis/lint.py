"""``bcache-lint`` — AST lint pass with simulator-specific rules.

Generic linters cannot know that every cache model must route its
statistics through :meth:`repro.caches.base.Cache.access`, or that a
``/`` inside ``_access_block`` silently turns an index into a float.
This pass encodes the repo's correctness conventions as machine-checked
rules:

========  =============================================================
code      rule
========  =============================================================
BCL001    concrete ``Cache`` subclass must implement ``_access_block``,
          ``_probe_block`` and ``_flush_state``
BCL002    cache subclasses must route statistics through the base class
          (no ``access``/``run`` overrides, no direct
          ``self.stats.record(...)`` calls)
BCL003    hot-path dataclasses must declare ``slots=True``
BCL004    geometry parameters must be validated via ``log2_exact`` —
          no bare ``int(math.log2(...))``, no ``math.log2`` in
          ``caches``/``core`` modules
BCL005    no unseeded ``random`` usage anywhere in ``src/repro/``
          (module-level ``random.*`` calls, seedless ``Random()``)
BCL006    no float arithmetic in index/tag computation
          (``/``, ``float()``, ``math.*`` inside the address-math
          functions)
BCL007    no mutable default arguments
BCL008    cache-interface methods must carry full type annotations so
          this pass (and mypy) can reason about subclass signatures
BCL009    batch kernels (``access_trace`` / ``_batch_trace``) must stay
          allocation-free: no ``AccessResult(...)`` construction on a
          CFG cycle (accumulate locals, bulk-update the stats once) —
          decided on the function's real control-flow graph, so
          straight-line code under a lexical loop that returns on its
          first iteration is not flagged
BCL010    engine code (``repro.engine``) must not swallow failures or
          spin-retry: no bare ``except:``, no ``except Exception:
          pass``, and retry loops (``while``/``for range(...)`` with an
          except-and-continue) must back off via a sleep/delay call
BCL011    event-loop code (``repro.serve`` and the cluster coordinator
          ``repro.engine.cluster``) must not block the loop: no
          ``time.sleep``, synchronous file I/O (``open``,
          ``read_text``/``write_text``/…) or ``Future.result()``
          inside a coroutine — await, or offload via
          ``run_in_executor``
BCL012    telemetry contract: ``span(...)`` must be used as a context
          manager (``with span(...):`` — never a bare call or manual
          ``__enter__``, which loses the crash-safe exit event), and
          metric names passed to ``counter``/``gauge``/``histogram``
          must match ``^repro_[a-z0-9_]+$``
BCL013    determinism audit (flow): values tainted by wall-clock,
          process identity, unseeded randomness or unordered iteration
          must not flow into result-bearing sinks — ``CacheStats``
          fields, journal ``record(...)`` calls, ``merge_deltas`` and
          serve response payloads
BCL014    fork-safety (flow): process-boundary entry points must not
          mutate module-level mutable state, ship unpicklable objects
          (locks, file handles, event loops) across ``Process``/
          ``submit`` boundaries, or (serve) drop ``create_task``
          references (task leak)
BCL015    bit-width proof (flow): address-derived indices in
          ``_access_block``-family methods are abstract-interpreted
          over intervals seeded from the constructor; an index mask
          provably wider than its table is flagged
BCL016    columnar/shm discipline: no ``Access`` object construction
          inside a batch-kernel loop (kernels consume address/kind
          columns directly), and no ``SharedMemory`` use without a
          paired ``close()``/``unlink()`` owner in the same module
BCL017    cluster coroutines (``repro.engine.cluster``) must bound every
          await on a node socket (``connect``/``request``/``sweep``/
          ``status``/``read_frame``/…) with a deadline — wrap the call
          in ``asyncio.wait_for(...)``; a hung node must never hang
          the coordinator
BCL018    result-cache key discipline: ``execute_job`` must not read a
          job field outside the canonical hash set (a field that can
          change the result but not the key silently poisons every
          cached entry), and nothing non-canonical — ``str(...)``,
          ``repr(...)`` or an f-string — may feed a cache-key function
          (``job_key``/``job_hash``); representation drift
          splits one logical job across many keys
BCL019    trace propagation discipline: spans opened inside serve or
          cluster coroutines (``span``/``stage_span``/``stage_event``)
          must thread the request context via ``trace=`` (an
          ambient-only span silently detaches from its waterfall the
          moment a task boundary drops the contextvar), and trace ids
          must never be minted from clocks or randomness
          (``time.*``/``random.*``/``uuid4``/``urandom``/…) — a worker
          that mints a nondeterministic id orphans its spans and breaks
          replay
========  =============================================================

Rules BCL013–BCL015 run on the :mod:`repro.analysis.flow`
abstract-interpretation engine (see ``docs/analysis.md``); the
remaining rules are single-pass syntactic checks.

A violation on a line containing ``# noqa: BCLxxx`` (or a bare
``# noqa``) is suppressed; the repo itself is expected to stay clean
(see ``tests/test_lint.py::test_repo_is_lint_clean``).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

#: One-line summary per rule (``bcache-lint --list-rules``).
RULES: dict[str, str] = {
    "BCL001": "concrete Cache subclass must implement "
    "_access_block/_probe_block/_flush_state",
    "BCL002": "cache subclasses must route stats through the base class "
    "(no access/run override, no self.stats.record)",
    "BCL003": "hot-path dataclass must declare slots=True",
    "BCL004": "validate geometry via log2_exact, not int(math.log2(...))",
    "BCL005": "unseeded random usage (module-level random.* / Random())",
    "BCL006": "float arithmetic in index/tag computation",
    "BCL007": "mutable default argument",
    "BCL008": "cache-interface method missing type annotations",
    "BCL009": "AccessResult allocation inside a batch-kernel loop",
    "BCL010": "engine code swallows exceptions or retries without backoff",
    "BCL011": "blocking call (time.sleep / sync file I/O / Future.result) "
    "inside a serve or cluster coroutine",
    "BCL012": "span() not used as a context manager, or metric name not "
    "matching ^repro_[a-z0-9_]+$",
    "BCL013": "nondeterministic value (wall-clock/pid/random/unordered) "
    "flows into a result-bearing sink",
    "BCL014": "fork-safety hazard: worker-reachable module state mutation, "
    "unpicklable across the process boundary, or dropped create_task",
    "BCL015": "address-derived index mask provably wider than its table "
    "(interval/bit-width proof of address math)",
    "BCL016": "Access object built in a batch-kernel loop, or SharedMemory "
    "without a paired close()/unlink() owner",
    "BCL017": "await on a node socket without a deadline in a cluster "
    "coroutine (wrap in asyncio.wait_for)",
    "BCL018": "result-cache key discipline: execute_job reads a job field "
    "outside the canonical hash, or str()/repr()/f-string feeds a cache key",
    "BCL019": "trace discipline: span/stage_span/stage_event in a serve or "
    "cluster coroutine without trace=, or a trace id minted from "
    "clock/randomness",
}

#: Rules that need the flow engine rather than the syntactic visitor.
FLOW_RULES = frozenset({"BCL013", "BCL014", "BCL015"})

#: Sub-packages of ``repro`` whose code runs once per simulated access.
HOT_PACKAGES = frozenset(
    {"caches", "core", "trace", "hierarchy", "replacement", "stats"}
)

#: Sub-packages holding the fault-tolerant engine: failure handling
#: there must be explicit (BCL010) — a swallowed exception is a lost
#: worker, a sleepless retry loop is a busy-wait against a dead pool.
ENGINE_PACKAGES = frozenset({"engine"})

#: Call names that count as backing off inside a retry loop.
BACKOFF_CALLS = frozenset({"sleep", "delay", "backoff", "wait"})

#: Sub-packages running on an asyncio event loop: a blocking call in a
#: coroutine there stalls every connection at once (BCL011).
SERVE_PACKAGES = frozenset({"serve"})

#: Coroutine call names that talk to a node socket in the cluster
#: coordinator.  BCL017: every such await must sit inside a deadline
#: wrapper, or one hung node hangs the whole sweep.
NODE_SOCKET_CALLS = frozenset(
    {
        "connect",
        "connect_with_backoff",
        "request",
        "simulate",
        "sweep",
        "status",
        "drain",
        "open_connection",
        "open_unix_connection",
        "read_frame",
        "write_frame",
    }
)

def _is_cluster_module(segments: tuple[str, ...]) -> bool:
    """Is this file part of the cluster coordinator (BCL011/BCL017 scope)?"""
    return (
        len(segments) >= 2
        and segments[0] in ENGINE_PACKAGES
        and segments[-1].startswith("cluster")
    )

#: Method calls that do synchronous file I/O when issued on a ``Path``
#: (or file object) inside a coroutine.
BLOCKING_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: ``SweepJob`` fields covered by the canonical result-cache key
#: (mirrors ``repro.engine.results.KEY_FIELDS``; duplicated so the
#: linter stays importable without the engine package).  BCL018:
#: ``execute_job`` reading any *other* ``job.<field>`` means the cached
#: result depends on state the key cannot see.
RESULT_CACHE_KEY_FIELDS = frozenset(
    {"spec", "benchmark", "side", "n", "seed", "size", "line_size",
     "policy", "with_kinds"}
)

#: Functions whose return value keys the result cache.  BCL018: their
#: arguments must stay canonical — ``str()``/``repr()``/f-string
#: serialisation drifts with Python versions and repr details, silently
#: splitting one logical job across several cache entries.
CACHE_KEY_FUNCS = frozenset({"job_key", "job_hash", "cache_key"})

#: Registry factory methods whose first argument is a metric name that
#: must satisfy the exposition contract (BCL012).
METRIC_FACTORY_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Span-opening observability calls.  BCL019: inside serve/cluster
#: coroutines each must thread the request's TraceContext explicitly —
#: relying on the ambient contextvar detaches the span from its
#: waterfall as soon as a task boundary drops the context.
TRACE_SPAN_CALLS = frozenset({"span", "stage_span", "stage_event"})

#: Nondeterministic sources banned from trace-id minting (BCL019);
#: ``time.*`` and ``random.*`` attribute calls are banned wholesale.
NONDET_TRACE_SOURCES = frozenset(
    {"uuid4", "urandom", "token_hex", "token_bytes", "getrandbits",
     "randbytes"}
)

#: Prometheus-safe, repo-prefixed metric names (mirrors
#: ``repro.obs.metrics.METRIC_NAME_RE``; duplicated so the linter stays
#: importable without the obs package).
METRIC_NAME_PATTERN = re.compile(r"^repro_[a-z0-9_]+$")

#: Modules where ``math.log2`` itself is banned (geometry must go
#: through ``log2_exact``); the energy models legitimately need floats.
GEOMETRY_PACKAGES = frozenset({"caches", "core"})

#: The subclass contract of :class:`repro.caches.base.Cache`.
CACHE_INTERFACE = ("_access_block", "_probe_block", "_flush_state")

#: Functions that compute set indices / tags and must stay integral.
INDEX_FUNCS = frozenset(
    {
        "_access_block",
        "_probe_block",
        "_batch_trace",
        "decompose_block",
        "compose_block",
        "set_index",
    }
)

#: The batch fast path: these bodies are the per-reference hot loop and
#: must not allocate one result object per access (BCL009).
BATCH_FUNCS = frozenset({"access_trace", "_batch_trace"})

#: ``random.<fn>()`` calls that use the shared, unseeded global state.
RANDOM_MODULE_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "expovariate",
        "betavariate",
        "paretovariate",
        "seed",
        "getrandbits",
    }
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding, renderable as ``path:line: CODE message``."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _call_name(node: ast.Call) -> str:
    """The called name: ``f(...)`` → ``f``, ``obj.m(...)`` → ``m``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _module_segments(path: str) -> tuple[str, ...]:
    """Path components below the ``repro`` package (empty if outside)."""
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1 :]
    return ()


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_abstract_class(node: ast.ClassDef, bases: list[str]) -> bool:
    if "ABC" in bases or "ABCMeta" in bases:
        return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                name = deco.attr if isinstance(deco, ast.Attribute) else (
                    deco.id if isinstance(deco, ast.Name) else ""
                )
                if name in {"abstractmethod", "abstractproperty"}:
                    return True
    return False


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if present."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return deco
    return None


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


class _Linter(ast.NodeVisitor):
    """Single-pass visitor collecting all rule violations for one file."""

    def __init__(self, path: str, segments: tuple[str, ...]) -> None:
        self.path = path
        self.hot = bool(segments) and segments[0] in HOT_PACKAGES
        self.geometry_module = bool(segments) and segments[0] in GEOMETRY_PACKAGES
        self.engine_module = bool(segments) and segments[0] in ENGINE_PACKAGES
        self.cluster_module = _is_cluster_module(segments)
        # The cluster coordinator runs on an event loop exactly like the
        # serve package; it inherits the no-blocking-call rule (BCL011).
        self.serve_module = (
            bool(segments) and segments[0] in SERVE_PACKAGES
        ) or self.cluster_module
        self.violations: list[Violation] = []
        self._func_stack: list[str] = []
        self._async_stack: list[bool] = []  # "is coroutine" per frame
        self._class_stack: list[bool] = []  # "is cache-like" per frame
        self._awaited_calls: set[ast.Call] = set()
        self._cm_calls: set[ast.Call] = set()  # calls used as with-items
        self._loop_depth = 0  # loops inside the current function body
        # BCL016 bookkeeping: SharedMemory call sites seen in this
        # module, plus whether any close()/unlink() appears anywhere in
        # it (resolved module-wide in finish()).
        self._shm_calls: list[tuple[ast.Call, bool]] = []
        self._saw_close = False
        self._saw_unlink = False

    # -- helpers -------------------------------------------------------
    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), code, message)
        )

    @property
    def _in_index_func(self) -> bool:
        return bool(self._func_stack) and self._func_stack[-1] in INDEX_FUNCS

    @property
    def _in_batch_func(self) -> bool:
        return any(name in BATCH_FUNCS for name in self._func_stack)

    @property
    def _in_cache_class(self) -> bool:
        return bool(self._class_stack) and self._class_stack[-1]

    @property
    def _in_coroutine(self) -> bool:
        """Is the nearest enclosing function frame an ``async def``?

        A plain nested ``def`` inside a coroutine is *not* a coroutine
        frame — it typically runs in an executor thread, where blocking
        is the whole point.
        """
        return bool(self._async_stack) and self._async_stack[-1]

    # -- classes -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = _base_names(node)
        # "Cache-like": inherits (directly) from the abstract base or
        # from another cache model; CacheLevel et al. do not match.
        cache_like = any(b == "Cache" or b.endswith("Cache") for b in bases)
        direct_subclass = "Cache" in bases
        abstract = _is_abstract_class(node, bases)
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        if direct_subclass and not abstract:
            missing = [m for m in CACHE_INTERFACE if m not in methods]
            if missing:
                self._add(
                    node,
                    "BCL001",
                    f"cache model {node.name!r} does not implement "
                    f"{', '.join(missing)}",
                )

        if cache_like:
            # access_trace is the sanitizer's single batch interception
            # point; subclasses customise _batch_trace instead.
            for overridden in ("access", "run", "access_trace"):
                if overridden in methods:
                    self._add(
                        node,
                        "BCL002",
                        f"{node.name!r} overrides {overridden}(); statistics "
                        "must be routed through Cache.access/Cache.run "
                        "(batch kernels override _batch_trace)",
                    )

        deco = _dataclass_decorator(node)
        if deco is not None and self.hot:
            has_slots = isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            )
            if not has_slots:
                self._add(
                    node,
                    "BCL003",
                    f"hot-path dataclass {node.name!r} must declare slots=True",
                )

        self._class_stack.append(cache_like)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- functions -----------------------------------------------------
    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_literal(default):
                self._add(
                    default,
                    "BCL007",
                    f"mutable default argument in {node.name}()",
                )

        # BCL009 on real control flow: an allocation counts as per-access
        # only when its basic block sits on a CFG cycle (or inside a
        # comprehension).  Nested defs get their own CFGs.
        if node.name in BATCH_FUNCS and not self._in_batch_func:
            self._check_batch_allocations(node)

        if node.name in CACHE_INTERFACE:
            positional = args.posonlyargs + args.args
            unannotated = [
                a.arg
                for a in positional[1:] + args.kwonlyargs  # skip self
                if a.annotation is None
            ]
            if unannotated:
                self._add(
                    node,
                    "BCL008",
                    f"{node.name}() is missing annotations for "
                    f"{', '.join(unannotated)}",
                )
            if node.returns is None:
                self._add(
                    node,
                    "BCL008",
                    f"{node.name}() is missing a return annotation",
                )

        self._func_stack.append(node.name)
        self._async_stack.append(isinstance(node, ast.AsyncFunctionDef))
        enclosing_loops = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = enclosing_loops
        self._async_stack.pop()
        self._func_stack.pop()

    def _check_batch_allocations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        from .rules_flow import batch_allocation_lines

        nested = [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not node
        ]
        nested_spans = [
            (sub.lineno, sub.end_lineno or sub.lineno) for sub in nested
        ]
        lines = {
            line
            for line in batch_allocation_lines(node)
            if not any(lo <= line <= hi for lo, hi in nested_spans)
        }
        for sub in nested:
            lines.update(batch_allocation_lines(sub))
        for line in sorted(lines):
            self.violations.append(
                Violation(
                    self.path,
                    line,
                    "BCL009",
                    "AccessResult allocated per access inside a batch "
                    "kernel loop; accumulate local counters instead",
                )
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    # -- loops ---------------------------------------------------------
    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        # Only counted ``for`` loops (``for _ in range(...)``) look like
        # retry loops; journal/line iteration legitimately continues on
        # bad records without sleeping.
        if (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
        ):
            self._check_retry_loop(node)
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited_calls.add(node.value)
            # BCL017: an awaited node-socket call must carry a deadline.
            # The wrapped form (await asyncio.wait_for(client.sweep(...),
            # t)) awaits wait_for, not sweep, so it passes; the bare
            # form awaits the socket op directly and is flagged.
            if self.cluster_module and self._in_coroutine:
                name = _call_name(node.value)
                if name in NODE_SOCKET_CALLS:
                    self._add(
                        node,
                        "BCL017",
                        f"await {name}() on a node socket without a deadline; "
                        "wrap the call in asyncio.wait_for(...)",
                    )
        self.generic_visit(node)

    # -- with-statements (BCL012 bookkeeping) --------------------------
    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._cm_calls.add(item.context_expr)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_retry_loop(node)
        self._visit_loop(node)

    def _check_retry_loop(self, node: ast.While | ast.For) -> None:
        """BCL010 (engine only): a loop that catches-and-continues must
        back off — a sleepless retry loop busy-waits against a failure
        that is not going away this microsecond."""
        if not self.engine_module:
            return
        retries = False
        backs_off = False
        for child in ast.walk(node):
            if isinstance(child, ast.ExceptHandler) and any(
                isinstance(sub, ast.Continue) for sub in ast.walk(child)
            ):
                retries = True
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if name in BACKOFF_CALLS:
                    backs_off = True
        if retries and not backs_off:
            self._add(
                node,
                "BCL010",
                "retry loop without backoff: call sleep/delay before "
                "retrying a failed operation",
            )

    # -- exception handling (BCL010, engine only) ----------------------
    @staticmethod
    def _handler_type_names(node: ast.ExceptHandler) -> list[str]:
        """Exception class names a handler catches (empty for bare)."""
        if node.type is None:
            return []
        exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = []
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.append(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.append(expr.attr)
        return names

    @staticmethod
    def _is_noop_body(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.engine_module:
            if node.type is None:
                self._add(
                    node,
                    "BCL010",
                    "bare except: hides worker failures; catch specific "
                    "exception types (contextlib.suppress for expected ones)",
                )
            elif any(
                name in {"Exception", "BaseException"}
                for name in self._handler_type_names(node)
            ) and self._is_noop_body(node.body):
                self._add(
                    node,
                    "BCL010",
                    "except Exception: pass swallows failures silently; "
                    "log, retry with backoff, or re-raise",
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_loop(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_loop(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_loop(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_loop(node)

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        # BCL004: int(math.log2(...)) truncates silently on non-powers
        # of two; log2_exact raises instead.
        if (
            isinstance(func, ast.Name)
            and func.id == "int"
            and len(node.args) == 1
            and self._is_math_call(node.args[0], {"log2"})
        ):
            self._add(
                node,
                "BCL004",
                "use log2_exact(value, what) instead of int(math.log2(...))",
            )
        elif self.geometry_module and self._is_math_call(node, {"log2"}):
            self._add(
                node,
                "BCL004",
                "math.log2 in a geometry module; use log2_exact",
            )

        # BCL005: the module-level random API draws from one shared,
        # unseeded generator — irreproducible simulations.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "random" and func.attr in RANDOM_MODULE_FUNCS:
                self._add(
                    node,
                    "BCL005",
                    f"random.{func.attr}() uses the unseeded global generator; "
                    "pass an explicit random.Random(seed)",
                )
            if (
                func.value.id == "random"
                and func.attr == "Random"
                and not node.args
                and not node.keywords
            ):
                self._add(
                    node,
                    "BCL005",
                    "random.Random() without a seed is irreproducible",
                )
        if (
            isinstance(func, ast.Name)
            and func.id in {"Random", "SystemRandom"}
            and not node.args
            and not node.keywords
        ):
            self._add(
                node, "BCL005", f"{func.id}() without a seed is irreproducible"
            )

        # BCL012: a span's duration/ok fields are written by __exit__;
        # a bare span(...) call — or a manual __enter__() on one —
        # leaks an unpaired span whenever the caller raises.
        # ExitStack.enter_context(span(...)) still routes through
        # __exit__ and is allowed.
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name == "enter_context":
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    self._cm_calls.add(arg)
        elif name == "span" and node not in self._cm_calls:
            self._add(
                node,
                "BCL012",
                "span(...) must be entered via a with-statement "
                "(with span(...):) so the exit event is always emitted",
            )

        # BCL012: metric names feed the Prometheus exposition; reject a
        # name that would fail the registry's contract at lint time
        # rather than at first scrape.
        if (
            name in METRIC_FACTORY_METHODS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and not METRIC_NAME_PATTERN.match(node.args[0].value)
        ):
            self._add(
                node,
                "BCL012",
                f"metric name {node.args[0].value!r} does not match "
                "^repro_[a-z0-9_]+$",
            )

        # BCL019 (a): a span opened on the request path must carry the
        # request's TraceContext explicitly.  The ambient contextvar is
        # a convenience, not a guarantee — create_task / executor hops
        # drop it, and the span lands parentless in the event log.
        if (
            self.serve_module
            and self._in_coroutine
            and name in TRACE_SPAN_CALLS
            and not any(kw.arg == "trace" for kw in node.keywords)
        ):
            self._add(
                node,
                "BCL019",
                f"{name}(...) in a serve/cluster coroutine must thread the "
                "request context explicitly (trace=...); ambient context "
                "does not survive task boundaries",
            )

        # BCL019 (b): trace identity must be deterministic.  An id
        # minted from a clock or an entropy source cannot be re-derived
        # on replay, and a worker minting its own id (instead of
        # deriving from the propagated parent) orphans its spans.
        is_mint = name == "mint_trace_id" or (
            isinstance(func, ast.Attribute)
            and func.attr == "new"
            and isinstance(func.value, ast.Name)
            and func.value.id == "TraceContext"
        )
        if is_mint:
            culprit = self._nondet_trace_arg(node)
            if culprit:
                self._add(
                    node,
                    "BCL019",
                    f"trace id minted from {culprit}; derive it from a "
                    "deterministic request key (client id / ordinal / "
                    "propagated parent), never from clocks or randomness",
                )

        # BCL016: the columnar refactor's contract.  Batch kernels flow
        # flat address/kind columns straight from the trace store; one
        # Access object per reference would resurrect the allocation
        # cost the columnar core removed.
        if name == "Access" and self._in_batch_func and self._loop_depth > 0:
            self._add(
                node,
                "BCL016",
                "Access object built inside a batch-kernel loop; columnar "
                "kernels consume address/kind columns directly",
            )

        # BCL016 bookkeeping: SharedMemory ownership is resolved
        # module-wide in finish() — every create needs close()+unlink()
        # somewhere in its module, every attach at least a close().
        if name == "SharedMemory":
            created = any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            self._shm_calls.append((node, created))
        elif name == "close":
            self._saw_close = True
        elif name == "unlink":
            self._saw_unlink = True

        # BCL018: cache-key functions must be fed canonical values.  An
        # f-string or str()/repr() serialisation in the argument list
        # bakes incidental representation into the content hash.
        if name in CACHE_KEY_FUNCS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                culprit = self._non_canonical_arg(arg)
                if culprit:
                    self._add(
                        arg,
                        "BCL018",
                        f"{culprit} feeds cache-key function {name}(); pass "
                        "the job itself — canonical serialisation "
                        "happens inside the key function",
                    )

        # BCL011: serve coroutines share one event loop; a single
        # blocking call there stalls every connection.  Blocking work
        # belongs in an executor (see ShardPool's shard-io threads).
        if self.serve_module and self._in_coroutine:
            self._check_blocking_call(node)

        # BCL006: float() / math.* inside address math.
        if self._in_index_func and self.hot:
            if isinstance(func, ast.Name) and func.id == "float":
                self._add(node, "BCL006", "float() in index/tag computation")
            elif self._is_math_call(node, None):
                self._add(
                    node,
                    "BCL006",
                    f"math.{func.attr} in index/tag computation",  # type: ignore[union-attr]
                )

        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._in_index_func and self.hot and isinstance(node.op, ast.Div):
            self._add(
                node,
                "BCL006",
                "true division in index/tag computation (use // or shifts)",
            )
        self.generic_visit(node)

    def _check_blocking_call(self, node: ast.Call) -> None:
        """BCL011: blocking primitives inside a serve coroutine."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self._add(
                node,
                "BCL011",
                "open() blocks the event loop; offload file I/O via "
                "loop.run_in_executor",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr == "sleep"
        ):
            self._add(
                node,
                "BCL011",
                "time.sleep() blocks the event loop; use await asyncio.sleep",
            )
        elif func.attr in BLOCKING_IO_METHODS:
            self._add(
                node,
                "BCL011",
                f".{func.attr}() does synchronous file I/O in a coroutine; "
                "offload via loop.run_in_executor",
            )
        elif func.attr == "result" and not self._is_awaited(node):
            self._add(
                node,
                "BCL011",
                ".result() blocks the event loop waiting on a future; "
                "await the future (or run_in_executor) instead",
            )

    def _is_awaited(self, node: ast.Call) -> bool:
        return node in self._awaited_calls

    @staticmethod
    def _nondet_trace_arg(node: ast.Call) -> str:
        """BCL019: describe a nondeterministic mint source, or ``""``.

        Unlike BCL018's shallow check, the whole argument subtree is
        walked: ``f"gw/{time.time()}"`` hides the clock one level down.
        """
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if isinstance(func, ast.Attribute):
                    base = (
                        func.value.id
                        if isinstance(func.value, ast.Name)
                        else ""
                    )
                    if base in {"time", "random"}:
                        return f"{base}.{func.attr}()"
                    if func.attr in NONDET_TRACE_SOURCES:
                        return f"{func.attr}()"
                elif (
                    isinstance(func, ast.Name)
                    and func.id in NONDET_TRACE_SOURCES
                ):
                    return f"{func.id}()"
        return ""

    @staticmethod
    def _non_canonical_arg(node: ast.expr) -> str:
        """BCL018: describe a non-canonical serialisation, or ``""``.

        Only the argument expression itself is judged (not its
        subexpressions): a pre-computed string variable is the caller's
        responsibility, but ``f"..."`` / ``str(...)`` / ``repr(...)``
        written directly into the call is always representation drift.
        """
        if isinstance(node, ast.JoinedStr):
            return "an f-string"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"str", "repr"}
        ):
            return f"{node.func.id}(...)"
        return ""

    # -- attributes (BCL018: execute_job's side of the key contract) ---
    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Every job field the execution path consults must be part of
        # the canonical cache key; a field the key cannot see would let
        # two different results share one hash.
        if (
            "execute_job" in self._func_stack
            and isinstance(node.value, ast.Name)
            and node.value.id == "job"
            and isinstance(node.ctx, ast.Load)
            and not node.attr.startswith("_")
            and node.attr not in RESULT_CACHE_KEY_FIELDS
        ):
            self._add(
                node,
                "BCL018",
                f"execute_job reads job.{node.attr}, which is not in the "
                "canonical result-cache key; make it a SweepJob field "
                "(and add it to the linter's RESULT_CACHE_KEY_FIELDS) or "
                "the cache will serve stale results",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_math_call(node: ast.expr, names: set[str] | None) -> bool:
        """Is ``node`` a call ``math.<fn>(...)`` (optionally restricted)?"""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "math"
            and (names is None or func.attr in names)
        )

    # -- module-wide wrap-up -------------------------------------------
    def finish(self) -> None:
        """Emit violations that need the whole module seen first.

        BCL016's shared-memory half is an ownership pairing: a module
        that creates named segments must also be the place that closes
        and unlinks them (the registry pattern); a module that only
        attaches must still close its handles.  Individual calls can't
        be judged until every call site has been visited.
        """
        for node, created in self._shm_calls:
            if created and not (self._saw_close and self._saw_unlink):
                self._add(
                    node,
                    "BCL016",
                    "SharedMemory(create=True) without a paired "
                    "close()/unlink() owner in this module; segments must "
                    "be tracked and unlinked (registry pattern)",
                )
            elif not created and not self._saw_close:
                self._add(
                    node,
                    "BCL016",
                    "SharedMemory attached without a close() in this "
                    "module; attachers must close their handle (only the "
                    "owner unlinks)",
                )


def _noqa_codes(source: str) -> dict[int, set[str] | None]:
    """Map line number -> suppressed codes (None = suppress all)."""
    suppressed: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = {c.strip().upper() for c in codes.split(",")}
    return suppressed


def _flow_violations(
    tree: ast.Module, path: str, segments: tuple[str, ...]
) -> list[Violation]:
    """BCL013–BCL015 via the abstract-interpretation engine."""
    from .rules_flow import (
        check_address_math,
        check_determinism,
        check_fork_safety,
    )

    violations: list[Violation] = []
    for checker in (check_determinism, check_fork_safety, check_address_math):
        for line, code, message in checker(tree, segments):
            violations.append(Violation(path, line, code, message))
    return violations


def lint_source(
    source: str, path: str = "<string>", flow: bool = True
) -> list[Violation]:
    """Lint one module's source text; ``path`` drives path-scoped rules.

    ``flow=False`` restricts the pass to the syntactic rules (an order
    of magnitude faster; used by callers that only need BCL001–BCL012).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "BCL000", f"syntax error: {exc.msg}")]
    segments = _module_segments(path)
    linter = _Linter(path, segments)
    linter.visit(tree)
    linter.finish()
    violations = linter.violations
    if flow:
        violations = violations + _flow_violations(tree, path, segments)
    suppressed = _noqa_codes(source)
    kept = []
    for violation in violations:
        codes = suppressed.get(violation.line, set())
        if codes is None or (codes and violation.code in codes):
            continue
        kept.append(violation)
    return sorted(kept, key=lambda v: (v.path, v.line, v.code))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(
                p
                for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield entry


# ----------------------------------------------------------------------
# Result cache + parallel execution
# ----------------------------------------------------------------------
#: Default location of the content-hash result cache.
CACHE_DIR_NAME = ".bcache-lint-cache"

_fingerprint: Optional[str] = None


def engine_fingerprint() -> str:
    """Hash of the analysis engine's own sources.

    Part of every cache key, so editing any rule (or the engine under
    it) invalidates all cached results at once.
    """
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256()
        here = Path(__file__).parent
        for name in ("lint.py", "domains.py", "flow.py", "rules_flow.py"):
            module = here / name
            if module.exists():
                digest.update(module.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cache_key(path: str, source: str) -> str:
    digest = hashlib.sha256()
    digest.update(engine_fingerprint().encode())
    digest.update(path.encode())
    digest.update(b"\0")
    digest.update(source.encode())
    return digest.hexdigest()


def _cache_load(cache_dir: Path, key: str) -> Optional[list[Violation]]:
    entry = cache_dir / f"{key}.json"
    try:
        rows = json.loads(entry.read_text(encoding="utf-8"))
        return [Violation(r[0], r[1], r[2], r[3]) for r in rows]
    except (OSError, ValueError, IndexError, TypeError):
        return None


def _cache_store(
    cache_dir: Path, key: str, violations: list[Violation]
) -> None:
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        rows = [[v.path, v.line, v.code, v.message] for v in violations]
        tmp = cache_dir / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(rows), encoding="utf-8")
        tmp.replace(cache_dir / f"{key}.json")
    except OSError:  # cache is best-effort; never fail the lint
        pass


def lint_file(
    path: str | Path, cache_dir: str | Path | None = None
) -> list[Violation]:
    """Lint one file, consulting the content-hash cache if given."""
    path = str(path)
    source = Path(path).read_text(encoding="utf-8")
    if cache_dir is None:
        return lint_source(source, path)
    cache = Path(cache_dir)
    key = _cache_key(path, source)
    cached = _cache_load(cache, key)
    if cached is not None:
        return cached
    violations = lint_source(source, path)
    _cache_store(cache, key, violations)
    return violations


def _lint_file_job(job: tuple[str, str | None]) -> list[Violation]:
    """Process-pool entry point (must be module-level picklable)."""
    path, cache_dir = job
    return lint_file(path, cache_dir)


def lint_paths(
    paths: Iterable[str | Path],
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> list[Violation]:
    """Lint every python file under ``paths``; returns all violations.

    ``jobs > 1`` fans files out across a process pool;
    ``cache_dir`` enables the content-hash result cache.
    """
    files = [str(f) for f in iter_python_files(paths)]
    cache = str(cache_dir) if cache_dir is not None else None
    violations: list[Violation] = []
    if jobs > 1 and len(files) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(files))) as pool:
            for result in pool.map(
                _lint_file_job, [(f, cache) for f in files]
            ):
                violations.extend(result)
    else:
        for file in files:
            violations.extend(lint_file(file, cache))
    return violations


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def render_json(violations: list[Violation]) -> str:
    rows = [
        {
            "path": v.path,
            "line": v.line,
            "code": v.code,
            "message": v.message,
        }
        for v in violations
    ]
    return json.dumps(rows, indent=2)


def render_sarif(violations: list[Violation]) -> str:
    """SARIF 2.1.0, as consumed by GitHub code scanning."""
    rules = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": "error"},
        }
        for code, summary in sorted(RULES.items())
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": v.path.replace(os.sep, "/"),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(v.line, 1)},
                    }
                }
            ],
        }
        for v in violations
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "bcache-lint",
                        "informationUri": "https://example.invalid/bcache-lint",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-lint``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-lint",
        description="Simulator-specific lint pass for the B-Cache reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="lint N files in parallel (default: all available CPUs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"disable the {CACHE_DIR_NAME}/ result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=CACHE_DIR_NAME,
        help=f"result-cache directory (default: {CACHE_DIR_NAME})",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"bcache-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs > 0 else available_cpus()
    cache_dir = None if args.no_cache else args.cache_dir
    violations = lint_paths(args.paths, jobs=jobs, cache_dir=cache_dir)
    violations.sort(key=lambda v: (v.path, v.line, v.code))
    checked = sum(1 for _ in iter_python_files(args.paths))
    if args.format == "json":
        print(render_json(violations))
    elif args.format == "sarif":
        print(render_sarif(violations))
    else:
        for violation in violations:
            print(violation.render())
        if violations:
            print(
                f"bcache-lint: {len(violations)} violation(s) in "
                f"{checked} file(s)"
            )
        else:
            print(f"bcache-lint: OK ({checked} files clean)")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
