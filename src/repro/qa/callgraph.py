"""Project-wide symbol table and call graph for the flow-aware rule tier.

The per-file rules (:mod:`repro.qa.rules`) see one module at a time; the
whole-program analyses (:mod:`repro.qa.taint`, :mod:`repro.qa.hazards`,
:mod:`repro.qa.contracts`) need to know what *other* modules define — a
generator constructed in ``repro.sim.runner`` and consumed in
``repro.workload.batched`` is one flow, a coroutine defined in
``repro.service.core`` and called from ``repro.service.app`` is one call
edge.

This module extracts, from each parsed file, a compact serialisable
:class:`ModuleSummary` — functions with their parameters and call sites,
classes with their method signatures and contract markers, RNG
construction sites with a classification of the seed expression, and the
async-hazard facts the flow rules consume.  The summaries are the *only*
thing the flow rules see, which is what makes the content-hash cache
(:mod:`repro.qa.cache`) sound: a cached summary is exactly as good as a
re-parsed one.

:class:`ProjectIndex` stitches the summaries into a project: dotted-name
resolution (following one level of re-export aliasing), the async
function table, and the transitive *seed-parameter* fixpoint used by the
RNG provenance taint (a parameter is a seed parameter if it flows into
an RNG constructor in its own body, or is forwarded into a seed
parameter of a callee).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .engine import FileContext, _suppressions
from .rules import import_table, resolve_call_target

__all__ = [
    "CallSite",
    "RngSite",
    "BlockingCall",
    "StaleWrite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "ProjectIndex",
    "build_summary",
    "build_project",
]

#: RNG constructors whose first argument is a seed / SeedSequence.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "random.Random",
    }
)

#: Callables that take coroutine arguments and schedule them — a
#: coroutine handed to one of these is *not* an unawaited coroutine.
TASK_WRAPPERS = frozenset(
    {
        "asyncio.create_task",
        "asyncio.ensure_future",
        "asyncio.gather",
        "asyncio.wait",
        "asyncio.wait_for",
        "asyncio.shield",
        "asyncio.run",
        "asyncio.Task",
        "asyncio.run_coroutine_threadsafe",
        "asyncio.as_completed",
        "asyncio.timeout",
    }
)

#: Known-blocking calls that stall an event loop when made from a
#: coroutine.  Only *resolvable* targets are listed (the import-table
#: discipline of the per-file rules); the builtin ``open`` is handled
#: separately because it needs no import.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.head",
        "requests.request",
        "concurrent.futures.wait",
        "concurrent.futures.as_completed",
    }
)

_ARITH_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.LShift,
    ast.RShift,
    ast.BitXor,
    ast.BitOr,
    ast.BitAnd,
)


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a function (or at module level).

    ``target`` is the resolved dotted path when the callee chain roots at
    an import (``numpy.random.default_rng``), ``<module>.<name>`` for
    same-module functions, ``<module>.<Class>.<meth>`` for ``self.``
    method calls, or ``~<text>`` for unresolvable callees (kept only so
    diagnostics can name them; rules must not match on them).
    ``arg_tags`` classifies each positional argument (see
    :func:`_classify_expr`); ``kwarg_tags`` does the same for keywords.
    ``method_call`` records whether the call went through an attribute
    (``obj.meth(...)``), which shifts positional arguments by one
    relative to the callee's parameter list (``self``).
    """

    target: str
    line: int
    col: int
    awaited: bool
    discarded: bool
    wrapped: bool
    in_async: bool
    method_call: bool
    arg_tags: tuple[str, ...]
    kwarg_tags: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class RngSite:
    """One RNG-constructor call with its seed expression classified.

    ``seed`` is one of ``none`` (no argument), ``const`` (literal or
    constant-foldable), ``arith`` (arithmetic over at least one
    non-constant — the pre-PR2 ``base_seed + i`` anti-pattern),
    ``spawned`` (a ``SeedSequence.spawn`` product), ``param:<name>`` (a
    parameter of the enclosing function), ``name:<id>``, ``attr`` or
    ``expr``.
    """

    ctor: str
    line: int
    col: int
    seed: str
    module_level: bool


@dataclass(frozen=True, slots=True)
class BlockingCall:
    """A known-blocking call made inside an ``async def``."""

    target: str
    line: int
    col: int
    function: str


@dataclass(frozen=True, slots=True)
class StaleWrite:
    """A write to ``self.<attr>`` acting on a pre-``await`` read.

    The enclosing coroutine read the attribute, suspended at an
    ``await``, then wrote it without re-reading — the written value may
    be based on state another task changed during the suspension.
    """

    attr: str
    line: int
    col: int
    read_line: int
    function: str


@dataclass(frozen=True, slots=True)
class FunctionSummary:
    """One function or method: signature, call sites, RNG facts.

    ``seed_params`` lists parameters that flow *directly* into an RNG
    constructor in this body; ``seed_flows`` records parameters forwarded
    verbatim as arguments of other calls (``(param, target, position)``,
    position ``"kw:<name>"`` for keywords) — the transitive closure is
    computed by :meth:`ProjectIndex.transitive_seed_params`.
    """

    qualname: str
    line: int
    params: tuple[str, ...]
    is_async: bool
    calls: tuple[CallSite, ...]
    rng_sites: tuple[RngSite, ...]
    seed_params: tuple[str, ...]
    seed_flows: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True, slots=True)
class ClassSummary:
    """One class: method table plus its declarative contract marker.

    ``event_kind`` is the ``kind: ClassVar[str]`` tag of trace-event
    dataclasses (trace-schema exhaustiveness, RL017).
    """

    name: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    event_kind: Optional[str]


@dataclass(slots=True)
class ModuleSummary:
    """Everything the flow rules may consult about one module."""

    module: str
    path: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    module_rng: tuple[RngSite, ...] = ()
    module_calls: tuple[CallSite, ...] = ()
    blocking_calls: tuple[BlockingCall, ...] = ()
    stale_writes: tuple[StaleWrite, ...] = ()
    string_literals: frozenset[str] = frozenset()
    event_kinds_passed: Optional[tuple[str, ...]] = None
    event_kinds_passed_line: int = 1
    suppress_lines: dict[int, tuple[str, ...]] = field(default_factory=dict)
    suppress_file: tuple[str, ...] = ()

    def context(self) -> FileContext:
        """A rule-scoping context for this module (no source lines)."""
        return FileContext(path=self.path, module=self.module, source_lines=())

    # -- serialisation (the cache stores summaries as JSON) -----------------
    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "module": self.module,
            "path": self.path,
            "functions": {
                name: {
                    "qualname": fn.qualname,
                    "line": fn.line,
                    "params": list(fn.params),
                    "is_async": fn.is_async,
                    "calls": [list(_call_row(c)) for c in fn.calls],
                    "rng_sites": [list(_rng_row(r)) for r in fn.rng_sites],
                    "seed_params": list(fn.seed_params),
                    "seed_flows": [list(flow) for flow in fn.seed_flows],
                }
                for name, fn in sorted(self.functions.items())
            },
            "classes": {
                name: {
                    "line": cls.line,
                    "bases": list(cls.bases),
                    "methods": list(cls.methods),
                    "event_kind": cls.event_kind,
                }
                for name, cls in sorted(self.classes.items())
            },
            "imports": dict(sorted(self.imports.items())),
            "module_rng": [list(_rng_row(r)) for r in self.module_rng],
            "module_calls": [list(_call_row(c)) for c in self.module_calls],
            "blocking_calls": [
                [b.target, b.line, b.col, b.function] for b in self.blocking_calls
            ],
            "stale_writes": [
                [w.attr, w.line, w.col, w.read_line, w.function]
                for w in self.stale_writes
            ],
            "string_literals": sorted(self.string_literals),
            "event_kinds_passed": None
            if self.event_kinds_passed is None
            else list(self.event_kinds_passed),
            "event_kinds_passed_line": self.event_kinds_passed_line,
            "suppress_lines": {
                str(line): list(names)
                for line, names in sorted(self.suppress_lines.items())
            },
            "suppress_file": list(self.suppress_file),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ModuleSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        functions: dict[str, FunctionSummary] = {}
        for name, raw in dict(payload["functions"]).items():  # type: ignore[call-overload]
            fn = dict(raw)
            functions[name] = FunctionSummary(
                qualname=str(fn["qualname"]),
                line=int(fn["line"]),
                params=tuple(fn["params"]),
                is_async=bool(fn["is_async"]),
                calls=tuple(_call_from_row(row) for row in fn["calls"]),
                rng_sites=tuple(_rng_from_row(row) for row in fn["rng_sites"]),
                seed_params=tuple(fn["seed_params"]),
                seed_flows=tuple(
                    (str(a), str(b), str(c)) for a, b, c in fn["seed_flows"]
                ),
            )
        classes: dict[str, ClassSummary] = {}
        for name, raw in dict(payload["classes"]).items():  # type: ignore[call-overload]
            cl = dict(raw)
            classes[name] = ClassSummary(
                name=name,
                line=int(cl["line"]),
                bases=tuple(cl["bases"]),
                methods=tuple(cl["methods"]),
                event_kind=None if cl["event_kind"] is None else str(cl["event_kind"]),
            )
        passed = payload["event_kinds_passed"]
        return cls(
            module=str(payload["module"]),
            path=str(payload["path"]),
            functions=functions,
            classes=classes,
            imports={str(k): str(v) for k, v in dict(payload["imports"]).items()},  # type: ignore[call-overload]
            module_rng=tuple(_rng_from_row(row) for row in payload["module_rng"]),  # type: ignore[union-attr]
            module_calls=tuple(_call_from_row(row) for row in payload["module_calls"]),  # type: ignore[union-attr]
            blocking_calls=tuple(
                BlockingCall(str(t), int(li), int(co), str(fn))
                for t, li, co, fn in payload["blocking_calls"]  # type: ignore[union-attr]
            ),
            stale_writes=tuple(
                StaleWrite(str(a), int(li), int(co), int(rl), str(fn))
                for a, li, co, rl, fn in payload["stale_writes"]  # type: ignore[union-attr]
            ),
            string_literals=frozenset(
                str(s) for s in payload["string_literals"]  # type: ignore[union-attr]
            ),
            event_kinds_passed=None if passed is None else tuple(str(k) for k in passed),  # type: ignore[union-attr]
            event_kinds_passed_line=int(payload["event_kinds_passed_line"]),  # type: ignore[arg-type]
            suppress_lines={
                int(line): tuple(names)
                for line, names in dict(payload["suppress_lines"]).items()  # type: ignore[call-overload]
            },
            suppress_file=tuple(str(n) for n in payload["suppress_file"]),  # type: ignore[union-attr]
        )


def _call_row(c: CallSite) -> tuple[object, ...]:
    return (
        c.target, c.line, c.col, c.awaited, c.discarded, c.wrapped,
        c.in_async, c.method_call, list(c.arg_tags),
        [list(pair) for pair in c.kwarg_tags],
    )


def _call_from_row(row: object) -> CallSite:
    t, line, col, aw, disc, wrap, in_async, meth, args, kwargs = row  # type: ignore[misc]
    return CallSite(
        target=str(t), line=int(line), col=int(col), awaited=bool(aw),
        discarded=bool(disc), wrapped=bool(wrap), in_async=bool(in_async),
        method_call=bool(meth), arg_tags=tuple(str(a) for a in args),
        kwarg_tags=tuple((str(k), str(v)) for k, v in kwargs),
    )


def _rng_row(r: RngSite) -> tuple[object, ...]:
    return (r.ctor, r.line, r.col, r.seed, r.module_level)


def _rng_from_row(row: object) -> RngSite:
    ctor, line, col, seed, mod = row  # type: ignore[misc]
    return RngSite(
        ctor=str(ctor), line=int(line), col=int(col), seed=str(seed),
        module_level=bool(mod),
    )


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def _classify_expr(
    node: ast.expr,
    params: frozenset[str],
    spawned: frozenset[str],
) -> str:
    """Classify an argument/seed expression (see :class:`RngSite`)."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return "const"
        if isinstance(node.value, int):
            return f"int:{node.value}"
        return "const"
    if isinstance(node, ast.UnaryOp):
        inner = _classify_expr(node.operand, params, spawned)
        return inner if inner.startswith("int:") or inner == "const" else "expr"
    if isinstance(node, ast.Name):
        if node.id in spawned:
            return "spawned"
        if node.id in params:
            return f"param:{node.id}"
        return f"name:{node.id}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
        left = _classify_expr(node.left, params, spawned)
        right = _classify_expr(node.right, params, spawned)
        folded = {"const"} >= {
            "const" if tag.startswith("int:") else tag for tag in (left, right)
        }
        return "const" if folded else "arith"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            return "spawned"
        return "call"
    if isinstance(node, ast.Subscript):
        base = _classify_expr(node.value, params, spawned)
        return "spawned" if base == "spawned" else "expr"
    if isinstance(node, ast.Attribute):
        return "attr"
    if isinstance(node, ast.Starred):
        return _classify_expr(node.value, params, spawned)
    return "expr"


def _spawned_names(body_nodes: Iterable[ast.AST]) -> frozenset[str]:
    """Names assigned (incl. tuple-unpacked) from a ``.spawn(...)`` call."""
    names: set[str] = set()
    for node in body_nodes:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_spawn = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "spawn"
        )
        if not is_spawn:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        names.add(elt.id)
                    elif isinstance(elt, ast.Starred) and isinstance(
                        elt.value, ast.Name
                    ):
                        names.add(elt.value.id)
    return frozenset(names)


def _resolve_callee(
    node: ast.Call,
    imports: Mapping[str, str],
    module: str,
    local_defs: frozenset[str],
    class_name: Optional[str],
) -> tuple[str, bool]:
    """Resolve a call's target to a dotted path; ``(target, method_call)``."""
    func = node.func
    resolved = resolve_call_target(func, dict(imports))
    if resolved is not None:
        return resolved, isinstance(func, ast.Attribute)
    if isinstance(func, ast.Name):
        if func.id in local_defs:
            return f"{module}.{func.id}", False
        return f"~{func.id}", False
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and class_name is not None
        ):
            return f"{module}.{class_name}.{func.attr}", True
        return f"~{ast.unparse(func)}", True
    return "~<dynamic>", False


class _BodyFacts:
    """Per-function (or module-level) extraction state."""

    def __init__(self) -> None:
        self.calls: list[CallSite] = []
        self.rng_sites: list[RngSite] = []


def _extract_body(
    root: ast.AST,
    *,
    imports: Mapping[str, str],
    module: str,
    local_defs: frozenset[str],
    class_name: Optional[str],
    params: frozenset[str],
    is_async: bool,
    module_level: bool,
) -> _BodyFacts:
    """Collect call sites and RNG sites from one function body.

    ``root`` is the function node (its nested function/class definitions
    are skipped — they get their own summaries) or a module-level
    statement.
    """
    facts = _BodyFacts()
    own_nodes = list(_walk_shallow(root))
    spawned = _spawned_names(own_nodes)
    awaited: set[int] = set()
    wrapped: set[int] = set()
    discarded: set[int] = set()
    for node in own_nodes:
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited.add(id(node.value))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            discarded.add(id(node.value))
        if isinstance(node, ast.Call):
            target, _ = _resolve_callee(node, imports, module, local_defs, class_name)
            if target in TASK_WRAPPERS:
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Call):
                            wrapped.add(id(sub))
    for node in own_nodes:
        if not isinstance(node, ast.Call):
            continue
        target, method_call = _resolve_callee(
            node, imports, module, local_defs, class_name
        )
        arg_tags = tuple(
            _classify_expr(arg, params, spawned) for arg in node.args
        )
        kwarg_tags = tuple(
            (kw.arg, _classify_expr(kw.value, params, spawned))
            for kw in node.keywords
            if kw.arg is not None
        )
        site = CallSite(
            target=target,
            line=node.lineno,
            col=node.col_offset + 1,
            awaited=id(node) in awaited,
            discarded=id(node) in discarded,
            wrapped=id(node) in wrapped,
            in_async=is_async,
            method_call=method_call,
            arg_tags=arg_tags,
            kwarg_tags=kwarg_tags,
        )
        facts.calls.append(site)
        if target in RNG_CONSTRUCTORS:
            if node.args:
                seed = _classify_expr(node.args[0], params, spawned)
            else:
                seed_kw = next(
                    (
                        kw.value
                        for kw in node.keywords
                        if kw.arg in ("seed", "entropy")
                    ),
                    None,
                )
                seed = (
                    "none"
                    if seed_kw is None
                    else _classify_expr(seed_kw, params, spawned)
                )
            facts.rng_sites.append(
                RngSite(
                    ctor=target,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    seed=seed,
                    module_level=module_level,
                )
            )
    return facts


def _walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class defs."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if node is not root and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node is root and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _stale_writes(
    fn: ast.AsyncFunctionDef, qualname: str
) -> list[StaleWrite]:
    """Check-then-act hazards: ``self.x`` read, ``await``, ``self.x`` write.

    A light abstract interpretation in source order: an *epoch* counts the
    ``await`` expressions crossed; a write to ``self.<attr>`` whose most
    recent read happened in an earlier epoch acted on a value that other
    tasks may have changed during the suspension.  Branches are scanned
    with branch-local epochs and merged optimistically (a read on either
    path counts), which keeps the rule low-false-positive at the cost of
    missing some interleavings — it is a linter, not a model checker.
    """
    findings: list[StaleWrite] = []

    def scan(
        stmts: Iterable[ast.stmt], reads: dict[str, tuple[int, int]], epoch: int
    ) -> int:
        for stmt in stmts:
            epoch = scan_stmt(stmt, reads, epoch)
        return epoch

    def note_expr(
        node: Optional[ast.AST], reads: dict[str, tuple[int, int]], epoch: int
    ) -> int:
        """Process one expression tree in evaluation order."""
        if node is None:
            return epoch
        for sub in _expr_order(node):
            if isinstance(sub, ast.Await):
                epoch += 1
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and isinstance(sub.ctx, ast.Load)
            ):
                reads[sub.attr] = (epoch, sub.lineno)
        return epoch

    def store(
        target: ast.expr,
        reads: dict[str, tuple[int, int]],
        epoch: int,
    ) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            seen = reads.get(target.attr)
            if seen is not None and seen[0] < epoch:
                findings.append(
                    StaleWrite(
                        attr=target.attr,
                        line=target.lineno,
                        col=target.col_offset + 1,
                        read_line=seen[1],
                        function=qualname,
                    )
                )
            # The write refreshes our knowledge of the attribute.
            reads[target.attr] = (epoch, target.lineno)

    def scan_stmt(
        stmt: ast.stmt, reads: dict[str, tuple[int, int]], epoch: int
    ) -> int:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return epoch
        if isinstance(stmt, ast.Assign):
            epoch = note_expr(stmt.value, reads, epoch)
            for target in stmt.targets:
                store(target, reads, epoch)
            return epoch
        if isinstance(stmt, ast.AugAssign):
            # target is read then written at the same epoch unless the
            # value expression awaits in between.
            if (
                isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                reads[stmt.target.attr] = (epoch, stmt.lineno)
            epoch = note_expr(stmt.value, reads, epoch)
            store(stmt.target, reads, epoch)
            return epoch
        if isinstance(stmt, ast.AnnAssign):
            epoch = note_expr(stmt.value, reads, epoch)
            store(stmt.target, reads, epoch)
            return epoch
        if isinstance(stmt, ast.If):
            epoch = note_expr(stmt.test, reads, epoch)
            body_reads = dict(reads)
            body_epoch = scan(stmt.body, body_reads, epoch)
            else_reads = dict(reads)
            else_epoch = scan(stmt.orelse, else_reads, epoch)
            # A branch that cannot fall through (return/raise/...) does
            # not contribute reads to the code after the If — a read in
            # an early-return guard never reaches a later write.
            branches = [
                (branch_reads, branch_epoch)
                for stmts, branch_reads, branch_epoch in (
                    (stmt.body, body_reads, body_epoch),
                    (stmt.orelse, else_reads, else_epoch),
                )
                if not _terminates(stmts)
            ]
            if not branches:
                return epoch
            merged_epoch = max(branch_epoch for _, branch_epoch in branches)
            for attr in sorted({a for branch_reads, _ in branches for a in branch_reads}):
                reads[attr] = max(
                    branch_reads[attr]
                    for branch_reads, _ in branches
                    if attr in branch_reads
                )
            return merged_epoch
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                epoch = note_expr(stmt.test, reads, epoch)
            else:
                epoch = note_expr(stmt.iter, reads, epoch)
            epoch = scan(stmt.body, reads, epoch)
            return scan(stmt.orelse, reads, epoch)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                epoch = note_expr(item.context_expr, reads, epoch)
            return scan(stmt.body, reads, epoch)
        if isinstance(stmt, ast.Try):
            epoch = scan(stmt.body, reads, epoch)
            for handler in stmt.handlers:
                epoch = scan(handler.body, dict(reads), epoch)
            epoch = scan(stmt.orelse, reads, epoch)
            return scan(stmt.finalbody, reads, epoch)
        # Fallback: process every expression the statement evaluates.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                epoch = note_expr(child, reads, epoch)
        return epoch

    scan(fn.body, {}, 0)
    return findings


def _terminates(stmts: Sequence[ast.stmt]) -> bool:
    """Whether a suite cannot fall through to the statement after it."""
    return any(
        isinstance(s, (ast.Return, ast.Raise, ast.Break, ast.Continue))
        for s in stmts
    )


def _expr_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, evaluation-ish order walk of one expression tree."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _expr_order(child)


def _function_summary(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    qualname: str,
    imports: Mapping[str, str],
    module: str,
    local_defs: frozenset[str],
    class_name: Optional[str],
) -> FunctionSummary:
    args = fn.args
    params = tuple(
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    )
    is_async = isinstance(fn, ast.AsyncFunctionDef)
    facts = _extract_body(
        fn,
        imports=imports,
        module=module,
        local_defs=local_defs,
        class_name=class_name,
        params=frozenset(params),
        is_async=is_async,
        module_level=False,
    )
    seed_params = sorted(
        {
            site.seed.split(":", 1)[1]
            for site in facts.rng_sites
            if site.seed.startswith("param:")
        }
    )
    flows: list[tuple[str, str, str]] = []
    for call in facts.calls:
        if call.target.startswith("~"):
            continue
        for index, tag in enumerate(call.arg_tags):
            if tag.startswith("param:"):
                flows.append((tag.split(":", 1)[1], call.target, str(index)))
        for kw, tag in call.kwarg_tags:
            if tag.startswith("param:"):
                flows.append((tag.split(":", 1)[1], call.target, f"kw:{kw}"))
    calls = tuple(
        sorted(facts.calls, key=lambda c: (c.line, c.col, c.target))
    )
    return FunctionSummary(
        qualname=qualname,
        line=fn.lineno,
        params=params,
        is_async=is_async,
        calls=calls,
        rng_sites=tuple(facts.rng_sites),
        seed_params=tuple(seed_params),
        seed_flows=tuple(sorted(set(flows))),
    )


def _class_marker(node: ast.stmt, name: str) -> Optional[tuple[object, int]]:
    """Value of a ``<name> = <literal>`` class-body assignment, if present."""
    targets: list[ast.expr] = []
    value: Optional[ast.expr] = None
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    for target in targets:
        if isinstance(target, ast.Name) and target.id == name and value is not None:
            try:
                literal = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                return None
            return literal, node.lineno
    return None


def _relative_imports(tree: ast.Module, ctx: FileContext) -> dict[str, str]:
    """Resolve ``from .x import y`` against the module's own dotted name.

    The per-file rules deliberately ignore relative imports (their bans
    target external modules), but cross-module resolution lives on them:
    ``from .core import SchedulerCore`` inside ``repro.service.app`` binds
    ``SchedulerCore`` to ``repro.service.core.SchedulerCore``.
    """
    is_package = Path(ctx.path).name == "__init__.py"
    package = ctx.module if is_package else ctx.module.rpartition(".")[0]
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        base_parts = package.split(".") if package else []
        # level=1 is the current package; each further level climbs once.
        climb = node.level - 1
        if climb > len(base_parts):
            continue
        base = ".".join(base_parts[: len(base_parts) - climb])
        prefix = f"{base}.{node.module}" if node.module else base
        if not prefix:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            table[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return table


def build_summary(tree: ast.Module, ctx: FileContext) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    imports = import_table(tree)
    imports.update(_relative_imports(tree, ctx))
    local_defs = frozenset(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    summary = ModuleSummary(module=ctx.module, path=ctx.path, imports=dict(imports))

    per_line, per_file = _suppressions(ctx.source_lines)
    summary.suppress_lines = {
        line: tuple(sorted(names)) for line, names in per_line.items()
    }
    summary.suppress_file = tuple(sorted(per_file))

    literals: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
    summary.string_literals = frozenset(literals)

    passed = _module_marker(tree, "EVENT_KINDS_PASSED")
    if passed is not None:
        value, line = passed
        if isinstance(value, (tuple, list)):
            summary.event_kinds_passed = tuple(str(v) for v in value)
            summary.event_kinds_passed_line = line

    blocking: list[BlockingCall] = []
    stale: list[StaleWrite] = []

    def visit_function(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: Optional[str],
    ) -> FunctionSummary:
        info = _function_summary(
            fn,
            qualname=qualname,
            imports=imports,
            module=ctx.module,
            local_defs=local_defs,
            class_name=class_name,
        )
        if info.is_async:
            for call in info.calls:
                if call.target in BLOCKING_CALLS or (
                    call.target == "~open" and "open" not in imports
                ):
                    blocking.append(
                        BlockingCall(
                            target=call.target.lstrip("~"),
                            line=call.line,
                            col=call.col,
                            function=qualname,
                        )
                    )
            if isinstance(fn, ast.AsyncFunctionDef):
                stale.extend(_stale_writes(fn, qualname))
        return info

    module_facts = _BodyFacts()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = visit_function(node, node.name, None)
            _collect_nested(node, node.name, None, visit_function, summary)
        elif isinstance(node, ast.ClassDef):
            methods: list[str] = []
            event_kind: Optional[str] = None
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{item.name}"
                    summary.functions[qualname] = visit_function(
                        item, qualname, node.name
                    )
                    _collect_nested(item, qualname, node.name, visit_function, summary)
                    methods.append(item.name)
                    continue
                kind = _class_marker(item, "kind")
                if kind is not None and isinstance(kind[0], str):
                    event_kind = kind[0]
                # Class-body RNG construction is an ambient stream too.
                if isinstance(item, (ast.Assign, ast.AnnAssign)):
                    body_facts = _extract_body(
                        item,
                        imports=imports,
                        module=ctx.module,
                        local_defs=local_defs,
                        class_name=node.name,
                        params=frozenset(),
                        is_async=False,
                        module_level=True,
                    )
                    module_facts.rng_sites.extend(body_facts.rng_sites)
                    module_facts.calls.extend(body_facts.calls)
            bases = tuple(
                ast.unparse(base) for base in node.bases
            )
            summary.classes[node.name] = ClassSummary(
                name=node.name,
                line=node.lineno,
                bases=bases,
                methods=tuple(methods),
                event_kind=event_kind,
            )
        else:
            facts = _extract_body(
                node,
                imports=imports,
                module=ctx.module,
                local_defs=local_defs,
                class_name=None,
                params=frozenset(),
                is_async=False,
                module_level=True,
            )
            module_facts.rng_sites.extend(facts.rng_sites)
            module_facts.calls.extend(facts.calls)

    summary.module_rng = tuple(module_facts.rng_sites)
    summary.module_calls = tuple(module_facts.calls)
    summary.blocking_calls = tuple(blocking)
    summary.stale_writes = tuple(stale)
    return summary


def _collect_nested(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    class_name: Optional[str],
    visit: Callable[
        [ast.FunctionDef | ast.AsyncFunctionDef, str, Optional[str]],
        FunctionSummary,
    ],
    summary: ModuleSummary,
) -> None:
    """Summarise functions nested inside ``fn`` (closures, local helpers)."""
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_name = f"{qualname}.<locals>.{node.name}"
            if nested_name not in summary.functions:
                summary.functions[nested_name] = visit(node, nested_name, class_name)


def _module_marker(tree: ast.Module, name: str) -> Optional[tuple[object, int]]:
    for node in tree.body:
        marker = _class_marker(node, name)
        if marker is not None:
            return marker
    return None


# --------------------------------------------------------------------------
# The project index
# --------------------------------------------------------------------------


class ProjectIndex:
    """All module summaries of one analysis run, stitched together."""

    def __init__(self, summaries: Mapping[str, ModuleSummary]) -> None:
        #: module name → summary, iteration-stable (sorted).
        self.modules: dict[str, ModuleSummary] = {
            name: summaries[name] for name in sorted(summaries)
        }
        self._functions: dict[str, FunctionSummary] = {}
        self._function_module: dict[str, str] = {}
        self._dotted_by_id: dict[int, str] = {}
        for name, summary in self.modules.items():
            for qualname, fn in summary.functions.items():
                dotted = f"{name}.{qualname}"
                self._functions[dotted] = fn
                self._function_module[dotted] = name
                self._dotted_by_id[id(fn)] = dotted
        self._seed_params: Optional[dict[str, frozenset[str]]] = None

    def __iter__(self) -> Iterator[ModuleSummary]:
        return iter(self.modules.values())

    def module_of(self, dotted: str) -> Optional[str]:
        """Module that defines the function ``dotted``, if any."""
        return self._function_module.get(dotted)

    def resolve_function(self, target: str) -> Optional[FunctionSummary]:
        """Resolve a call target to a function summary, chasing re-exports.

        ``repro.sim.run_single`` resolves through ``repro.sim.__init__``'s
        ``from .runner import run_single`` to the real definition.  A
        class target (``pkg.mod.Cls``) resolves to ``Cls.__init__``.
        """
        seen: set[str] = set()
        current = target
        while current not in seen:
            seen.add(current)
            found = self._functions.get(current)
            if found is not None:
                return found
            module, _, leaf = current.rpartition(".")
            if not module:
                return None
            # A class call resolves to its constructor.
            summary = self.modules.get(module)
            if summary is not None and leaf in summary.classes:
                ctor = self._functions.get(f"{module}.{leaf}.__init__")
                return ctor
            # Chase one aliasing hop through the defining module's imports.
            if summary is not None and leaf in summary.imports:
                current = summary.imports[leaf]
                continue
            # ``pkg.func`` re-exported by ``pkg/__init__``: the module
            # prefix may itself be a package whose summary knows the leaf.
            prefix, _, rest = module.rpartition(".")
            if prefix and self.modules.get(module) is None:
                parent = self.modules.get(prefix)
                if parent is not None and rest in parent.imports:
                    current = f"{parent.imports[rest]}.{leaf}"
                    continue
            return None
        return None

    def is_async(self, target: str) -> bool:
        """Whether ``target`` resolves to an ``async def``."""
        fn = self.resolve_function(target)
        return fn is not None and fn.is_async

    def transitive_seed_params(self) -> dict[str, frozenset[str]]:
        """Fixpoint of seed parameters across the call graph.

        ``{dotted function: {param names}}`` where a parameter is a seed
        parameter if it reaches an RNG constructor in the function's own
        body, or is forwarded verbatim into a seed parameter of a callee
        (to any depth, across modules).
        """
        if self._seed_params is not None:
            return dict(self._seed_params)
        seeds: dict[str, set[str]] = {
            dotted: set(fn.seed_params) for dotted, fn in self._functions.items()
        }
        changed = True
        while changed:
            changed = False
            for dotted, fn in self._functions.items():
                for param, target, position in fn.seed_flows:
                    if param in seeds[dotted]:
                        continue
                    callee = self.resolve_function(target)
                    if callee is None:
                        continue
                    callee_dotted = self._dotted_of(callee)
                    if callee_dotted is None:
                        continue
                    callee_seeds = seeds.get(callee_dotted, set())
                    if self._position_is_seed(callee, callee_seeds, position):
                        seeds[dotted].add(param)
                        changed = True
        self._seed_params = {k: frozenset(v) for k, v in seeds.items()}
        return dict(self._seed_params)

    def _dotted_of(self, fn: FunctionSummary) -> Optional[str]:
        return self._dotted_by_id.get(id(fn))

    @staticmethod
    def _position_is_seed(
        callee: FunctionSummary,
        callee_seeds: set[str],
        position: str,
    ) -> bool:
        """Whether argument ``position`` lands on a seed parameter.

        Positional indices are caller-side: ``self``/``cls`` is stripped
        from the callee's parameter list before indexing (method calls go
        through an attribute, so the receiver is never in the caller's
        argument list).
        """
        params = list(callee.params)
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        if position.startswith("kw:"):
            return position[3:] in callee_seeds
        try:
            index = int(position)
        except ValueError:
            return False
        if 0 <= index < len(params):
            return params[index] in callee_seeds
        return False

    def seed_param_positions(self, target: str) -> frozenset[str]:
        """Seed-parameter positions of ``target``: indices and ``kw:`` names.

        Positions are expressed against a *caller's* positional argument
        list with ``self``/``cls`` already stripped from the callee.
        """
        fn = self.resolve_function(target)
        if fn is None:
            return frozenset()
        dotted = self._dotted_of(fn)
        if dotted is None:
            return frozenset()
        seeds = self.transitive_seed_params().get(dotted, frozenset())
        if not seeds:
            return frozenset()
        params = list(fn.params)
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        positions: set[str] = set()
        for index, name in enumerate(params):
            if name in seeds:
                positions.add(str(index))
        for name in seeds:
            positions.add(f"kw:{name}")
        return frozenset(positions)


def build_project(
    sources: Mapping[str, tuple[str, str]]
) -> tuple[ProjectIndex, dict[str, ast.Module]]:
    """Build a :class:`ProjectIndex` from in-memory sources (for tests).

    ``sources`` maps module name → ``(path, source)``.  Returns the index
    plus the parsed trees (handy for asserting extraction details).
    """
    summaries: dict[str, ModuleSummary] = {}
    trees: dict[str, ast.Module] = {}
    for module, (path, source) in sources.items():
        tree = ast.parse(source, filename=path)
        ctx = FileContext(
            path=path, module=module, source_lines=tuple(source.splitlines())
        )
        summaries[module] = build_summary(tree, ctx)
        trees[module] = tree
    return ProjectIndex(summaries), trees
