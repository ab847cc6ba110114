"""Flow-engine rule families: BCL013–BCL015 and the BCL009 retrofit.

Four consumers of :mod:`repro.analysis.flow`:

* :func:`prove_address_math` — the BCL015 *proof* driver.  Given a live
  cache it abstract-interprets ``_access_block``/``_probe_block`` over
  (interval, bit-width) domains seeded from the concrete geometry, and
  for B-Caches additionally checks field-disjointness of the
  ``decompose_block`` split (row/PI/tag occupy disjoint bit ranges, so
  ``compose_block`` is injective — "tags never alias") plus the
  programmable-decoder bank's own subscripts.
* :func:`check_determinism` — BCL013: taint from unordered iteration,
  wall-clock, process identity and unseeded randomness must not reach
  result-bearing sinks (CacheStats fields, journal records,
  ``merge_deltas``, serve response payloads).
* :func:`check_fork_safety` — BCL014: process-boundary entry points
  must not mutate module-level state, ship unpicklables across the
  fork, or (in ``repro.serve``) drop ``create_task`` references.
* :func:`batch_allocation_lines` — BCL009 on real reaching control
  flow: an ``AccessResult`` allocation is hot iff its basic block lies
  on a CFG cycle (or inside a comprehension), not merely under a
  lexical ``for``.

All checkers return plain ``(line, message)`` tuples; the linter wraps
them into :class:`repro.analysis.lint.Violation`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from .domains import (
    BOTTOM,
    NO_TAINT,
    TAINT_ADDR,
    TAINT_PID,
    TAINT_RANDOM,
    TAINT_UNORDERED,
    TAINT_UNPICKLABLE,
    TAINT_WALLCLOCK,
    TOP,
    Interval,
    ObjInfo,
    Val,
    seed_value,
)
from .flow import (
    AstResolver,
    FnCtx,
    Interp,
    LiveResolver,
    Obligation,
    build_cfg,
    cycle_blocks,
)

__all__ = [
    "CONTRACTS",
    "ProofReport",
    "prove_address_math",
    "check_determinism",
    "check_fork_safety",
    "check_address_math",
    "batch_allocation_lines",
]


# ----------------------------------------------------------------------
# Assume-guarantee contracts
# ----------------------------------------------------------------------
def _obj_int(obj: ObjInfo, name: str) -> Optional[int]:
    """An exact integer attribute of a (concrete or symbolic) object."""
    if obj.concrete is not None:
        value = getattr(obj.concrete, name, None)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    sym = obj.attr(name)
    if sym is not None and sym.num is not None and sym.num.is_exact:
        return sym.num.value
    return None


def _contract_victim(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    ways = _obj_int(obj, "ways")
    interp.assumptions.add(
        f"{obj.cls_name}.victim() returns a way in [0, ways-1]"
    )
    return Val.of_int(0, None if ways is None else ways - 1)


def _contract_victim_among(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    interp.assumptions.add(
        f"{obj.cls_name}.victim_among(c) returns an element of c"
    )
    if args:
        elem = interp.iter_element(args[0])
        if elem.num is not None:
            return Val(num=elem.num, taint=elem.taint)
    ways = _obj_int(obj, "ways")
    return Val.of_int(0, None if ways is None else ways - 1)


def _contract_none(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    return Val.none()


def _decoder_cluster_interval(obj: ObjInfo) -> Interval:
    clusters = _obj_int(obj, "num_clusters")
    return Interval(0, None if clusters is None else clusters - 1)


def _contract_search(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    interp.assumptions.add(
        "ProgrammableDecoderBank.search(row, value) hits with a cluster "
        "in [0, num_clusters-1] or misses with cluster None"
    )
    cluster = Val(num=_decoder_cluster_interval(obj), maybe_none=True)
    return Val.of_obj(
        "PDMatch", attrs=(("hit", Val.of_bool()), ("cluster", cluster))
    )


def _contract_value_at(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    interp.assumptions.add(
        "ProgrammableDecoderBank.value_at(row, cluster) returns a PI value "
        "in [0, 2^pi_bits-1] or None when the entry is invalid"
    )
    pi_bits = _obj_int(obj, "pi_bits")
    hi = None if pi_bits is None else (1 << pi_bits) - 1
    return Val(num=Interval(0, hi), maybe_none=True)


def _contract_invalid_clusters(interp: Interp, obj: ObjInfo, args: list[Val]) -> Val:
    interp.assumptions.add(
        "ProgrammableDecoderBank.invalid_clusters(row) returns cluster "
        "numbers in [0, num_clusters-1]"
    )
    clusters = _obj_int(obj, "num_clusters")
    return Val.of_seq(
        Val(num=_decoder_cluster_interval(obj)),
        Interval(0, clusters),
    )


#: (class-in-MRO, method) -> summary function.  Checked before inlining.
CONTRACTS = {
    ("ReplacementPolicy", "victim"): _contract_victim,
    ("ReplacementPolicy", "victim_among"): _contract_victim_among,
    ("ReplacementPolicy", "touch"): _contract_none,
    ("ReplacementPolicy", "invalidate"): _contract_none,
    ("ReplacementPolicy", "reset"): _contract_none,
    ("ProgrammableDecoderBank", "search"): _contract_search,
    ("ProgrammableDecoderBank", "value_at"): _contract_value_at,
    ("ProgrammableDecoderBank", "invalid_clusters"): _contract_invalid_clusters,
    ("ProgrammableDecoderBank", "program"): _contract_none,
    ("ProgrammableDecoderBank", "invalidate"): _contract_none,
    ("ProgrammableDecoderBank", "reset"): _contract_none,
}


# ----------------------------------------------------------------------
# BCL015 proof mode
# ----------------------------------------------------------------------
@dataclass
class ProofReport:
    """Outcome of :func:`prove_address_math` for one cache instance."""

    cache_name: str
    obligations: list[Obligation] = field(default_factory=list)
    geometry_checks: list[tuple[str, bool]] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)

    @property
    def proven(self) -> bool:
        return all(o.proved for o in self.obligations) and all(
            ok for _, ok in self.geometry_checks
        )

    @property
    def failures(self) -> list[str]:
        out = [o.render() for o in self.obligations if not o.proved]
        out.extend(desc for desc, ok in self.geometry_checks if not ok)
        return out

    def render(self) -> str:
        status = "PROVEN" if self.proven else "UNPROVEN"
        lines = [
            f"{self.cache_name}: {status} "
            f"({len(self.obligations)} obligations, "
            f"{len(self.geometry_checks)} geometry checks)"
        ]
        lines.extend("  " + o.render() for o in self.obligations)
        for desc, ok in self.geometry_checks:
            lines.append(f"  {'proved' if ok else 'UNPROVED'} {desc}")
        for assumption in self.assumptions:
            lines.append(f"  assuming {assumption}")
        return "\n".join(lines)


_PROOF_METHODS = ("_access_block", "_probe_block")


def prove_address_math(cache: Any, address_bits: int = 32) -> ProofReport:
    """Statically prove the address math of one live cache instance.

    Every sequence subscript reachable from ``_access_block`` /
    ``_probe_block`` (through method inlining, replacement-policy and
    decoder contracts) becomes a bounds obligation; for B-Caches the
    geometry split and the decoder bank's own tables are checked too.
    ``_batch_trace`` kernels are intentionally out of scope — they are
    covered bit-for-bit by the runtime equivalence suite.
    """
    report = ProofReport(cache_name=type(cache).__name__)
    resolver = LiveResolver()
    interp = Interp(resolver, contracts=CONTRACTS)
    obj = ObjInfo(type(cache).__name__, concrete=cache, path="self")
    block_hi = (1 << max(address_bits - cache.offset_bits, 1)) - 1
    for method in _PROOF_METHODS:
        resolved = resolver.resolve_method(obj, method)
        if resolved is None:
            continue
        fn_node, ctx = resolved
        bound = {
            "self": seed_value(cache, path="self"),
            "block": Val.of_int(0, block_hi, taint=frozenset((TAINT_ADDR,))),
            "is_write": Val.of_bool(),
        }
        interp.analyze(fn_node, ctx, bound)
        report.obligations.extend(interp.obligations)
    report.assumptions = sorted(interp.assumptions)

    geometry = getattr(cache, "geometry", None)
    if geometry is not None:
        _check_geometry(report, resolver, geometry, address_bits)
    decoder = getattr(cache, "decoder", None)
    if decoder is not None:
        _check_decoder(report, resolver, decoder)
    return report


def _check_geometry(
    report: ProofReport, resolver: LiveResolver, geometry: Any, address_bits: int
) -> None:
    """Interpret ``decompose_block`` and check field-disjointness.

    If row < 2^NPI, pi < 2^PI and tag <= 2^stored_tag_bits - 1 then the
    three fields occupy disjoint bit ranges of ``compose_block``'s
    or-composition, so the mapping is injective and two distinct block
    addresses can never collide on (row, pi, tag): tags never alias.
    """
    obj = ObjInfo(type(geometry).__name__, concrete=geometry, path="self")
    resolved = resolver.resolve_method(obj, "decompose_block")
    if resolved is None:
        report.geometry_checks.append(("decompose_block resolvable", False))
        return
    fn_node, ctx = resolved
    interp = Interp(resolver, contracts=CONTRACTS)
    block_hi = (1 << max(address_bits - geometry.offset_bits, 1)) - 1
    result = interp.analyze(
        fn_node,
        ctx,
        {
            "self": seed_value(geometry, path="self"),
            "block": Val.of_int(0, block_hi, taint=frozenset((TAINT_ADDR,))),
        },
    )
    report.obligations.extend(interp.obligations)
    parts = result.tup
    if parts is None or len(parts) != 3:
        report.geometry_checks.append(
            ("decompose_block returns a (row, pi, tag) triple", False)
        )
        return
    row, pi, tag = parts
    checks = [
        (
            f"row in [0, 2^NPI-1] = [0, {geometry.num_rows - 1}]",
            row.num is not None
            and row.num.ge(0)
            and row.num.le(geometry.num_rows - 1),
        ),
        (
            f"pi in [0, 2^PI-1] = [0, {(1 << geometry.pi_bits) - 1}]",
            pi.num is not None
            and pi.num.ge(0)
            and pi.num.le((1 << geometry.pi_bits) - 1),
        ),
        (
            "stored tag in [0, 2^stored_tag_bits-1] "
            f"= [0, {(1 << geometry.stored_tag_bits) - 1}]",
            tag.num is not None
            and tag.num.ge(0)
            and tag.num.le((1 << geometry.stored_tag_bits) - 1),
        ),
    ]
    report.geometry_checks.extend(checks)
    if all(ok for _, ok in checks):
        report.geometry_checks.append(
            (
                "compose_block is injective on (row, pi, tag) — "
                "fields are bit-disjoint, tags never alias",
                True,
            )
        )


def _check_decoder(report: ProofReport, resolver: LiveResolver, decoder: Any) -> None:
    """Prove the decoder bank's own table subscripts in isolation."""
    obj = ObjInfo(type(decoder).__name__, concrete=decoder, path="self")
    rows = Interval(0, decoder.num_rows - 1)
    clusters = Interval(0, decoder.num_clusters - 1)
    values = Interval(0, (1 << decoder.pi_bits) - 1)
    cases = {
        "search": {"row": Val(num=rows), "value": Val(num=values)},
        "value_at": {"row": Val(num=rows), "cluster": Val(num=clusters)},
        "invalid_clusters": {"row": Val(num=rows)},
        "program": {
            "row": Val(num=rows),
            "cluster": Val(num=clusters),
            "value": Val(num=values),
        },
    }
    for method, params in cases.items():
        resolved = resolver.resolve_method(obj, method)
        if resolved is None:
            continue
        fn_node, ctx = resolved
        interp = Interp(resolver, contracts={})
        bound = {"self": seed_value(decoder, path="self")}
        bound.update(params)
        interp.analyze(fn_node, ctx, bound)
        report.obligations.extend(interp.obligations)


# ----------------------------------------------------------------------
# BCL013: determinism audit
# ----------------------------------------------------------------------
#: Result-bearing CacheStats fields (sinks when the receiver is stats).
CACHESTATS_FIELDS = frozenset(
    (
        "num_sets",
        "accesses",
        "hits",
        "misses",
        "reads",
        "writes",
        "evictions",
        "writebacks",
        "pd_hit_misses",
        "pd_miss_misses",
        "set_accesses",
        "set_hits",
        "set_misses",
    )
)

#: Timing metadata is a legitimate wall-clock consumer: a journal may
#: record durations without breaking bit-identity of *results*.
TIMING_FIELD_RE = re.compile(
    r"(duration|elapsed|latency|uptime|time|wall|started|finished)", re.IGNORECASE
)

_NONDET_LABELS = frozenset(
    (TAINT_WALLCLOCK, TAINT_PID, TAINT_RANDOM, TAINT_UNORDERED)
)

_WALLCLOCK_CALLS = frozenset(
    (
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    )
)

_PID_CALLS = frozenset(("os.getpid", "os.getppid", "threading.get_ident"))

_RANDOM_CALLS = frozenset(
    (
        "random.random",
        "random.randrange",
        "random.randint",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.getrandbits",
        "random.randbytes",
        "uuid.uuid4",
        "uuid.uuid1",
        "secrets.token_hex",
        "secrets.token_bytes",
        "secrets.randbelow",
    )
)

_UNORDERED_CALL_SUFFIXES = (
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
    ".iterdir",
    ".rglob",
)

#: Serve response payload keys whose values must be deterministic.
_PAYLOAD_KEYS = frozenset(("stats", "results", "result"))

#: Constructors whose results must never cross a fork/pickle boundary.
_UNPICKLABLE_CALLS = (
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
    "asyncio.get_event_loop",
    "asyncio.get_running_loop",
    "asyncio.new_event_loop",
    "socket.socket",
)

_MUTATOR_METHODS = frozenset(
    (
        "append",
        "add",
        "insert",
        "extend",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
    )
)

#: Known process-boundary entry point names (see engine/serve layers).
_ENTRY_POINT_NAMES = frozenset(("execute_job", "_worker_entry"))


class _FlowLintHooks:
    """Shared hook object feeding BCL013 + BCL014(b) during one run."""

    def __init__(self, segments: tuple[str, ...]) -> None:
        self.segments = segments
        self.in_serve = bool(segments) and segments[0] == "serve"
        self.findings: list[tuple[int, str, str]] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append((getattr(node, "lineno", 1), code, message))

    # -- taint sources -------------------------------------------------
    def call_result(
        self, interp: Interp, node: ast.Call, dotted: str, args: list[Val]
    ) -> Optional[Val]:
        if dotted in _WALLCLOCK_CALLS:
            return Val(
                num=Interval.nonneg(),
                other=True,
                taint=frozenset((TAINT_WALLCLOCK,)),
            )
        if dotted in _PID_CALLS:
            return Val(num=Interval.nonneg(), taint=frozenset((TAINT_PID,)))
        if dotted in _RANDOM_CALLS:
            return Val.top(frozenset((TAINT_RANDOM,)))
        for suffix in _UNORDERED_CALL_SUFFIXES:
            if dotted == suffix or dotted.endswith(suffix):
                return Val.of_seq(
                    Val(other=True), Interval.nonneg(), unordered=True
                )
        if dotted == "open" or dotted in _UNPICKLABLE_CALLS:
            return Val.of_obj(
                "unpicklable", taint=frozenset((TAINT_UNPICKLABLE,))
            )
        return None

    # -- sinks ---------------------------------------------------------
    @staticmethod
    def _labels(value: Val) -> frozenset:
        return value.taint & _NONDET_LABELS

    @staticmethod
    def _describe(labels: frozenset) -> str:
        return "/".join(sorted(labels))

    def on_store(
        self,
        interp: Interp,
        ctx: FnCtx,
        target_text: str,
        value: Val,
        node: ast.AST,
    ) -> None:
        labels = self._labels(value)
        if not labels:
            return
        base, _, attr = target_text.rpartition(".")
        if "[" in attr:
            attr = attr.split("[", 1)[0]
        if attr in CACHESTATS_FIELDS and base.endswith("stats"):
            if TIMING_FIELD_RE.search(attr):
                labels = labels - {TAINT_WALLCLOCK}
            if labels:
                self._flag(
                    node,
                    "BCL013",
                    f"nondeterministic value ({self._describe(labels)}) "
                    f"stored into result-bearing stats field {target_text!r}",
                )

    def on_call(
        self,
        interp: Interp,
        ctx: FnCtx,
        dotted: str,
        base_val: Optional[Val],
        args: list[Val],
        kwargs: dict[str, Val],
        node: ast.AST,
    ) -> None:
        receiver, _, method = dotted.rpartition(".")
        if method == "record" and (
            "journal" in receiver or receiver.endswith("stats")
        ):
            self._check_record_args(dotted, args, kwargs, node)
        elif method == "merge_deltas" or dotted == "merge_deltas":
            self._check_record_args(dotted, args, kwargs, node)
        elif method == "Process" or dotted == "Process":
            self._check_fork_args(dotted, args, kwargs, node)
        elif method in ("submit", "apply_async"):
            self._check_fork_args(dotted, args[1:], kwargs, node)

    def _check_record_args(
        self,
        dotted: str,
        args: list[Val],
        kwargs: dict[str, Val],
        node: ast.AST,
    ) -> None:
        for value in args:
            labels = self._labels(value)
            if labels:
                self._flag(
                    node,
                    "BCL013",
                    f"nondeterministic value ({self._describe(labels)}) "
                    f"flows into result sink {dotted}()",
                )
                return
        for key, value in kwargs.items():
            labels = self._labels(value)
            if labels and TIMING_FIELD_RE.search(key):
                labels = labels - {TAINT_WALLCLOCK}
            if labels:
                self._flag(
                    node,
                    "BCL013",
                    f"nondeterministic value ({self._describe(labels)}) "
                    f"flows into result sink {dotted}({key}=...)",
                )
                return

    def _check_fork_args(
        self,
        dotted: str,
        args: list[Val],
        kwargs: dict[str, Val],
        node: ast.AST,
    ) -> None:
        candidates = list(args)
        payload = kwargs.get("args")
        if payload is not None:
            candidates.append(payload)
            if payload.tup is not None:
                candidates.extend(payload.tup)
            if payload.seq is not None:
                candidates.append(payload.seq.elem)
        for value in candidates:
            if TAINT_UNPICKLABLE in value.taint:
                self._flag(
                    node,
                    "BCL014",
                    "unpicklable object (lock/file handle/event loop) "
                    f"crosses the process boundary at {dotted}()",
                )
                return

    def on_dict_item(
        self, interp: Interp, ctx: FnCtx, key: Any, value: Val, node: ast.AST
    ) -> None:
        if not self.in_serve or not isinstance(key, str):
            return
        if key not in _PAYLOAD_KEYS:
            return
        labels = self._labels(value)
        if labels:
            self._flag(
                node,
                "BCL013",
                f"nondeterministic value ({self._describe(labels)}) "
                f"placed into serve response payload key {key!r}",
            )


def _iter_functions(tree: ast.Module):
    """Yield (classdef_or_None, function_node) for every def in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, sub


def _function_bound(cls_name: Optional[str], fn_node: ast.AST) -> dict:
    bound: dict[str, Val] = {}
    args = fn_node.args
    params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs]
    for position, name in enumerate(params):
        if position == 0 and cls_name is not None and name in ("self", "cls"):
            bound[name] = Val.of_obj(cls_name, path="self")
        else:
            bound[name] = TOP
    if args.vararg is not None:
        bound[args.vararg.arg] = Val.of_seq(TOP, Interval.nonneg())
    if args.kwarg is not None:
        bound[args.kwarg.arg] = TOP
    return bound


def check_determinism(
    tree: ast.Module, segments: tuple[str, ...]
) -> list[tuple[int, str, str]]:
    """BCL013 + BCL014(b): run the taint interpreter over every function.

    Methods of one class share an :class:`Interp` (and therefore the
    ``self.*`` summaries), analysed in two sweeps so stores in later
    methods reach loads in earlier ones.  Findings are collected only
    on the second sweep, then deduplicated.
    """
    hooks = _FlowLintHooks(segments)
    resolver = AstResolver(tree, inline=False)
    by_class: dict[Optional[ast.ClassDef], list] = {}
    for cls_node, fn_node in _iter_functions(tree):
        by_class.setdefault(cls_node, []).append(fn_node)
    for cls_node, functions in by_class.items():
        cls_name = cls_node.name if cls_node is not None else None
        interp = Interp(resolver, hooks=hooks, contracts=CONTRACTS)
        for sweep in range(2):
            if sweep == 0:
                saved, hooks.findings = hooks.findings, []
            for fn_node in functions:
                ctx = FnCtx(
                    module=resolver,
                    instance_cls=cls_node,
                    defining_cls=cls_node,
                    name=(f"{cls_name}." if cls_name else "") + fn_node.name,
                )
                interp.analyze(fn_node, ctx, _function_bound(cls_name, fn_node))
            if sweep == 0:
                hooks.findings = saved
    seen: set[tuple[int, str, str]] = set()
    unique = []
    for finding in hooks.findings:
        if finding not in seen:
            seen.add(finding)
            unique.append(finding)
    return unique


# ----------------------------------------------------------------------
# BCL014: fork-safety (module-state reachability + task leaks)
# ----------------------------------------------------------------------
_MUTABLE_DISPLAY = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CTORS = frozenset(
    ("list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter")
)


def _module_mutables(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers → def line."""
    mutables: dict[str, int] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, _MUTABLE_DISPLAY) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CTORS
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables[target.id] = node.lineno
    return mutables


def _entry_points(tree: ast.Module) -> dict[str, str]:
    """Function name → reason it is a process-boundary entry point."""
    entries: dict[str, str] = {}
    for _, fn_node in _iter_functions(tree):
        if fn_node.name in _ENTRY_POINT_NAMES:
            entries[fn_node.name] = "worker entry point"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if callee == "Process":
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    entries.setdefault(kw.value.id, "Process target")
        elif callee in ("submit", "apply_async") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name):
                entries.setdefault(first.id, f"{callee}() callable")
    return entries


def _local_names(fn_node: ast.AST) -> set[str]:
    """Names bound inside a function (params + assignments), minus globals."""
    bound: set[str] = set()
    args = fn_node.args
    for p in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(p.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    return bound - declared_global


def _root_name(node: ast.expr) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutations_of(
    fn_node: ast.AST, globals_: dict[str, int]
) -> list[tuple[int, str]]:
    """(line, name) for each mutation of a module-level container."""
    shadowed = _local_names(fn_node)
    visible = {name for name in globals_ if name not in shadowed}
    declared_global = {
        name
        for node in ast.walk(fn_node)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    visible |= declared_global & set(globals_)
    if not visible:
        return []
    hits: list[tuple[int, str]] = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root in visible:
                        hits.append((node.lineno, root))
                elif (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                    and target.id in globals_
                ):
                    hits.append((node.lineno, target.id))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                root = _root_name(func.value)
                if root in visible:
                    hits.append((node.lineno, root))
    return hits


def check_fork_safety(
    tree: ast.Module, segments: tuple[str, ...]
) -> list[tuple[int, str, str]]:
    """BCL014(a)+(c): module-state mutations reachable from a worker
    entry point, and (serve only) dropped ``create_task`` references.

    The unpicklable-capture half, (b), rides on the taint interpreter
    inside :func:`check_determinism`.
    """
    findings: list[tuple[int, str, str]] = []
    mutables = _module_mutables(tree)
    entries = _entry_points(tree)
    if mutables and entries:
        functions = {fn.name: fn for _, fn in _iter_functions(tree)}
        for entry_name, reason in entries.items():
            entry_fn = functions.get(entry_name)
            if entry_fn is None:
                continue
            # Entry function plus same-module callees, two levels deep.
            reachable = [entry_fn]
            frontier = [entry_fn]
            for _ in range(2):
                next_frontier = []
                for fn in frontier:
                    for node in ast.walk(fn):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id in functions
                        ):
                            callee = functions[node.func.id]
                            if callee not in reachable:
                                reachable.append(callee)
                                next_frontier.append(callee)
                frontier = next_frontier
            for fn in reachable:
                for line, name in _mutations_of(fn, mutables):
                    findings.append(
                        (
                            line,
                            "BCL014",
                            f"module-level mutable {name!r} is mutated on a "
                            f"path reachable from process {reason} "
                            f"{entry_name!r}; state diverges across workers",
                        )
                    )
    if segments and segments[0] == "serve":
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("create_task", "ensure_future")
            ):
                findings.append(
                    (
                        node.lineno,
                        "BCL014",
                        f"fire-and-forget {node.value.func.attr}(): the task "
                        "reference is dropped, so exceptions vanish and the "
                        "task may be garbage-collected mid-flight",
                    )
                )
    seen: set[tuple[int, str, str]] = set()
    return [f for f in findings if not (f in seen or seen.add(f))]


# ----------------------------------------------------------------------
# BCL015 (lint mode): interval proof over a module's AST
# ----------------------------------------------------------------------
#: Synthetic constructor arguments used when an __init__ parameter has
#: no default: a plausible mid-size geometry.
_SYNTH_PARAMS = {
    "size": 16384,
    "line_size": 32,
    "ways": 2,
    "associativity": 2,
    "victim_entries": 4,
    "num_colors": 4,
    "mf": 8,
    "bas": 8,
}

_ADDRESS_BITS = 26

_PROOF_METHOD_NAMES = ("_access_block", "_probe_block")


def _init_bound(cls_node: ast.ClassDef, init_node: ast.AST, self_val: Val) -> dict:
    bound: dict[str, Val] = {}
    args = init_node.args
    params = args.posonlyargs + args.args
    defaults = list(args.defaults)
    # Right-align defaults against the positional parameter list.
    default_by_name: dict[str, ast.expr] = {}
    for param, default in zip(params[len(params) - len(defaults):], defaults):
        default_by_name[param.arg] = default
    for kw_param, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if kw_default is not None:
            default_by_name[kw_param.arg] = kw_default
    for position, param in enumerate(params + args.kwonlyargs):
        name = param.arg
        if position == 0:
            bound[name] = self_val
        elif name in _SYNTH_PARAMS:
            bound[name] = Val.exact(_SYNTH_PARAMS[name])
        elif name in default_by_name and isinstance(
            default_by_name[name], ast.Constant
        ):
            value = default_by_name[name].value
            if isinstance(value, bool):
                bound[name] = Val.of_bool()
            elif isinstance(value, int):
                bound[name] = Val.exact(value)
            elif value is None:
                bound[name] = Val.none()
            else:
                bound[name] = TOP
        else:
            bound[name] = TOP
    if args.vararg is not None:
        bound[args.vararg.arg] = Val.of_seq(TOP, Interval.nonneg())
    if args.kwarg is not None:
        bound[args.kwarg.arg] = TOP
    return bound


def check_address_math(
    tree: ast.Module, segments: tuple[str, ...]
) -> list[tuple[int, str, str]]:
    """BCL015 in lint mode: flag *provably possible* out-of-bounds
    indexing by address-derived values in ``_access_block``-family
    methods.

    Conservative by construction: a finding requires the index upper
    bound to be finite, the container length to be exact, and the two
    to overlap — anything the analysis cannot bound stays silent.
    """
    findings: list[tuple[int, str, str]] = []
    resolver = AstResolver(tree, inline=True)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            sub.name: sub
            for sub in node.body
            if isinstance(sub, ast.FunctionDef)
        }
        if not any(name in methods for name in _PROOF_METHOD_NAMES):
            continue
        interp = Interp(resolver, contracts=CONTRACTS)
        self_val = Val.of_obj(node.name, path="self")
        init = resolver.resolve_method(self_val.obj, "__init__")
        if init is not None:
            init_node, init_ctx = init
            interp.analyze(
                init_node, init_ctx, _init_bound(node, init_node, self_val)
            )
        for method_name in _PROOF_METHOD_NAMES:
            fn_node = methods.get(method_name)
            if fn_node is None:
                continue
            ctx = FnCtx(
                module=resolver,
                instance_cls=node,
                defining_cls=node,
                name=f"{node.name}.{method_name}",
            )
            bound = {
                "self": self_val,
                "block": Val.of_int(
                    0, (1 << _ADDRESS_BITS) - 1, taint=frozenset((TAINT_ADDR,))
                ),
                "is_write": Val.of_bool(),
            }
            args = fn_node.args
            for param in args.posonlyargs + args.args + args.kwonlyargs:
                bound.setdefault(param.arg, TOP)
            interp.analyze(fn_node, ctx, bound)
        for ob in interp.obligations:
            if ob.proved:
                continue
            if TAINT_ADDR not in ob.taint:
                continue
            if ob.index.hi is None or not ob.length.is_exact:
                continue
            if ob.length.lo is not None and ob.index.hi >= ob.length.lo:
                findings.append(
                    (
                        ob.line,
                        "BCL015",
                        f"address-derived index {ob.target}[{ob.index}] can "
                        f"exceed container length {ob.length}; the index "
                        "mask is wider than the table",
                    )
                )
    seen: set[tuple[int, str, str]] = set()
    return [f for f in findings if not (f in seen or seen.add(f))]


# ----------------------------------------------------------------------
# BCL009 retrofit: allocation-in-loop via real control flow
# ----------------------------------------------------------------------
def batch_allocation_lines(
    fn_node: ast.AST, call_names: frozenset = frozenset(("AccessResult",))
) -> list[int]:
    """Lines in ``fn_node`` where a per-access object is allocated on a
    CFG cycle (or inside a comprehension) — i.e. genuinely per-element,
    not merely lexically beneath a ``for`` that returns on iteration 1.
    """
    from .flow import _IterBind, _BindTop, _IterInit  # cycle-free: same package

    blocks = build_cfg(fn_node)
    cyclic = cycle_blocks(blocks)

    def alloc_lines(sub: ast.AST):
        for inner in ast.walk(sub):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id in call_names
            ):
                yield inner.lineno

    lines: set[int] = set()
    for block in blocks:
        trees: list[ast.AST] = []
        for stmt in block.stmts:
            if isinstance(stmt, _IterInit):
                trees.append(stmt.iter_expr)
            elif isinstance(stmt, (_IterBind, _BindTop)):
                continue
            else:
                trees.append(stmt)
        if block.term and block.term[0] in ("cond", "for"):
            test = block.term[1]
            if isinstance(test, ast.AST):
                trees.append(test)
        if block.term and block.term[0] == "ret" and block.term[1] is not None:
            trees.append(block.term[1])
        for tree in trees:
            for sub in ast.walk(tree):
                if isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    lines.update(alloc_lines(sub))
            if block.idx in cyclic:
                lines.update(alloc_lines(tree))
    return sorted(lines)
