"""Rules guarding the chunking core's performance invariants."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.index import SourceModule, dotted_name
from repro.analysis.model import Finding
from repro.analysis.registry import Checker, LintContext, register

#: Modules on the scan fast path (engine, the one scan driver, the
#: Shredder buffer splitter every backup goes through) and the parity
#: kernel every erasure-coded chunk goes through: every byte copied here
#: is paid per input byte, so materialization must be explicit and
#: justified.
HOT_PATH_SUFFIXES = (
    "core/engines.py",
    "core/chunking.py",
    "core/shredder.py",
    "core/buffers.py",
    "store/erasure.py",
)

_LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _is_bytes_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, bytes)


@register
class ZeroCopyChecker(Checker):
    """No implicit byte copies inside the hot-path modules."""

    name = "zero-copy"
    description = (
        "flags bytes()/bytearray() materialization, .tobytes(), and "
        "bytes-concatenation in the hot-path core modules"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.index.matching(HOT_PATH_SUFFIXES):
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("bytes", "bytearray")
                    and node.args
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{func.id}(...) copies its buffer on the hot "
                        "path — pass the view through, or suppress with "
                        "a reason if this materialization is the API",
                    )
                elif isinstance(func, ast.Attribute) and func.attr == "tobytes":
                    yield self.finding(
                        module,
                        node,
                        ".tobytes() copies the array on the hot path — "
                        "keep the ndarray/memoryview form",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                if _is_bytes_literal(node.left) or _is_bytes_literal(node.right):
                    yield self.finding(
                        module,
                        node,
                        "bytes concatenation allocates and copies both "
                        "operands — build views or join once at the edge",
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                if _is_bytes_literal(node.value):
                    yield self.finding(
                        module,
                        node,
                        "in-place bytes concatenation reallocates the "
                        "whole accumulator per step",
                    )


#: Per-item methods with a batched twin: calling the left side inside a
#: loop is one round trip (or one index probe) per item where one
#: batched call would do.
PER_ITEM_TO_BATCH = {
    "has_chunk": "has_chunks",
    "lookup": "lookup_batch",
    "lookup_or_insert": "lookup_or_insert_batch",
    "contains": "contains_batch",
    "holds": "holds_batch",
}


@register
class BatchedApiChecker(Checker):
    """Per-item backend/index calls must not hide inside loops."""

    name = "batched-api"
    description = (
        "flags per-item ChunkBackend/DedupIndex/cluster calls inside "
        "loops where a *_batch twin exists"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.index.modules:
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            twin = PER_ITEM_TO_BATCH.get(func.attr)
            if twin is None:
                continue
            if not any(
                isinstance(anc, _LOOPS) for anc in module.ancestors(node)
            ):
                continue
            # The batch implementation itself is allowed to loop: skip
            # calls whose enclosing function *is* the batched twin (or
            # the plural form of the same verb).
            enclosing = module.enclosing_function(node)
            if enclosing is not None and enclosing.name in (
                twin,
                func.attr + "s",
            ):
                continue
            yield self.finding(
                module,
                node,
                f".{func.attr}(...) per item inside a loop — use the "
                f"batched twin .{twin}(...) for the whole sequence",
            )


def _mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set", "defaultdict", "deque")
    return False


def _is_lock_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in ("Lock", "RLock")


#: Modules whose module-level caches carry a designated lock (the
#: paper's single-Store-thread discipline, made checkable).
LOCKED_STATE_SUFFIXES = ("core/engines.py",)

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)


@register
class LockDisciplineChecker(Checker):
    """Module-level shared state mutates only under its lock, and
    nested lock acquisitions follow one global order."""

    name = "lock-discipline"
    description = (
        "module-level caches in the core modules must be "
        "mutated under a designated lock; nested lock acquisitions "
        "must not reverse each other"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        #: (outer, inner) -> first witness, across all checked modules.
        order: dict[tuple[str, str], tuple[SourceModule, int]] = {}
        for module in ctx.index.matching(LOCKED_STATE_SUFFIXES):
            locks, state = self._module_surface(module)
            if state:
                yield from self._check_mutations(module, locks, state)
            yield from self._check_lock_order(module, locks, order)

    # -- surface discovery ---------------------------------------------

    def _module_surface(
        self, module: SourceModule
    ) -> tuple[set[str], set[str]]:
        """(designated locks, guarded state names) for one module.

        Locks are module-level ``threading.Lock()``/``RLock()``
        assignments.  Guarded state is any module-level name bound to a
        mutable literal, plus any module-level name some function
        re-binds through a ``global`` declaration.
        """
        locks: set[str] = set()
        mutable: set[str] = set()
        module_names: set[str] = set()
        for stmt in module.tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name) or (
                    target.id.startswith("__") and target.id.endswith("__")
                ):
                    continue
                module_names.add(target.id)
                if _is_lock_ctor(value):
                    locks.add(target.id)
                elif _mutable_literal(value):
                    mutable.add(target.id)
        globals_declared: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        state = mutable | (globals_declared & module_names)
        return locks, state - locks

    # -- unlocked mutations --------------------------------------------

    def _check_mutations(
        self, module: SourceModule, locks: set[str], state: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            mutated = self._mutated_name(module, node, state)
            if mutated is None:
                continue
            if module.enclosing_function(node) is None:
                continue  # module-level initialization is single-threaded
            if not locks:
                yield self.finding(
                    module,
                    node,
                    f"module-level state {mutated!r} is mutated at "
                    "runtime but this module declares no "
                    "threading.Lock to guard it",
                )
            elif not self._under_lock(module, node, locks):
                yield self.finding(
                    module,
                    node,
                    f"shared state {mutated!r} mutated outside "
                    f"`with {'/'.join(sorted(locks))}:` — races with "
                    "the locked writers",
                )

    def _mutated_name(
        self, module: SourceModule, node: ast.AST, state: set[str]
    ) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in state:
                    # A plain Name store inside a function only hits the
                    # module global through a ``global`` declaration.
                    func = module.enclosing_function(node)
                    if func is not None and _declares_global(func, target.id):
                        return target.id
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in state
                ):
                    return target.value.id
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in state
            ):
                return func.value.id
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in state
                ):
                    return target.value.id
        return None

    def _under_lock(
        self, module: SourceModule, node: ast.AST, locks: set[str]
    ) -> bool:
        for anc in module.ancestors(node):
            if isinstance(anc, ast.With):
                for item in anc.items:
                    name = dotted_name(item.context_expr)
                    if name is not None and name.split(".")[-1] in locks:
                        return True
        return False

    # -- lock ordering -------------------------------------------------

    def _check_lock_order(
        self,
        module: SourceModule,
        locks: set[str],
        order: dict[tuple[str, str], tuple[SourceModule, int]],
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            inner = self._lock_names(node, locks)
            if not inner:
                continue
            for anc in module.ancestors(node):
                if not isinstance(anc, ast.With):
                    continue
                for outer_name in self._lock_names(anc, locks):
                    for inner_name in inner:
                        if inner_name == outer_name:
                            continue
                        edge = (outer_name, inner_name)
                        reverse = (inner_name, outer_name)
                        if reverse in order:
                            other_module, other_line = order[reverse]
                            yield self.finding(
                                module,
                                node,
                                f"lock order {outer_name!r} -> "
                                f"{inner_name!r} reverses the "
                                f"{inner_name!r} -> {outer_name!r} "
                                f"nesting at {other_module.rel}:"
                                f"{other_line} — pick one global order",
                            )
                        else:
                            order.setdefault(edge, (module, node.lineno))

    def _lock_names(self, node: ast.With, locks: set[str]) -> list[str]:
        names = []
        for item in node.items:
            name = dotted_name(item.context_expr)
            if name is not None and name.split(".")[-1] in locks:
                names.append(name.split(".")[-1])
        return names


def _declares_global(
    func: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Global) and name in node.names:
            return True
    return False
