"""Rules guarding the asyncio service layer's liveness and wire contract."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.index import SourceModule, dotted_name
from repro.analysis.model import Finding
from repro.analysis.registry import Checker, LintContext, register

#: Calls that block the event loop.  Dotted forms match the full chain
#: suffix (``time.sleep`` also catches ``import time as t; t.sleep``
#: only when the attribute chain spells it out — name-resolution-free
#: by design, same tradeoff every lexical linter makes).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.sync",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "urllib.request.urlopen",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.rmtree",
    }
)

#: Attribute calls that block regardless of receiver spelling -> the fix.
_BLOCKING_METHODS = {
    "acquire": "an asyncio.Lock (await-able) instead of a thread lock",
    "sendall": "loop.sock_sendall",
    "accept": "loop.sock_accept",
}


@register
class AsyncBlockingChecker(Checker):
    """No blocking calls lexically inside ``async def`` in the service
    and store layers — one ``time.sleep`` stalls every session."""

    name = "async-blocking"
    description = (
        "flags time.sleep, synchronous file I/O, os.fsync, lock "
        ".acquire(), raw-socket .sendall()/.accept(), and known-heavy "
        "calls inside async def across service/ and store/"
    )

    _SCOPES = ("service", "store")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.index.modules:
            parts = module.rel.split("/")
            if not any(scope in parts for scope in self._SCOPES):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_async_body(module, node)

    def _check_async_body(
        self, module: SourceModule, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # Walk the async function but stop at nested *sync* defs: those
        # run on worker threads (thread targets, executor submits),
        # where blocking is the whole point.
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            called = dotted_name(node.func)
            if called is not None:
                hit = next(
                    (
                        b
                        for b in _BLOCKING_CALLS
                        if called == b or called.endswith("." + b)
                    ),
                    None,
                )
                if hit is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{hit}() blocks the event loop inside async "
                        f"def {func.name} — every session stalls behind "
                        "it; use the asyncio equivalent or a thread",
                    )
                    continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self.finding(
                    module,
                    node,
                    f"synchronous open() inside async def {func.name} "
                    "— file I/O blocks the loop; do it on a thread",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}() blocks inside async def "
                    f"{func.name} — use "
                    f"{_BLOCKING_METHODS[node.func.attr]}",
                )


#: Frames whose payload is raw/empty — no encode_/decode_ pair to demand.
_RAW_FRAMES = frozenset(
    {"BEGIN_OK", "RESTORE_DATA", "RESTORE_END", "LIST_SNAPSHOTS"}
)
#: Frames whose codec functions don't share the member's spelling.
_CODEC_ALIASES = {
    "BEGIN_SNAPSHOT": "begin",
    "FINISH": "snapshot_id",
    "RESTORE": "snapshot_id",
}


@register
class ProtocolExhaustivenessChecker(Checker):
    """Every opcode fully plumbed: codec, server arm, client handler."""

    name = "protocol"
    description = (
        "every Msg opcode needs an encoder, a decoder, a server "
        "dispatch arm, and a client handler; every Err handled"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        protocol = ctx.index.find("service/protocol.py")
        if protocol is None:
            return
        server = ctx.index.find("service/server.py")
        client = ctx.index.find("service/client.py")
        msgs = _enum_members(protocol, "Msg")
        errs = _enum_members(protocol, "Err")
        codecs = {
            node.name
            for node in protocol.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name, line in msgs.items():
            if name not in _RAW_FRAMES:
                base = _CODEC_ALIASES.get(name, name.lower())
                for prefix, what in (("encode_", "encoder"), ("decode_", "decoder")):
                    if prefix + base not in codecs:
                        yield self.finding(
                            protocol,
                            line,
                            f"Msg.{name} has no {what} "
                            f"({prefix}{base}) in protocol.py",
                        )
            for module, side in ((server, "server dispatch arm"), (client, "client handler")):
                if module is not None and not _references_member(
                    module, "Msg", name
                ):
                    yield self.finding(
                        protocol,
                        line,
                        f"Msg.{name} has no {side} ({module.rel} never "
                        f"references Msg.{name})",
                    )
        for name, line in errs.items():
            handled = any(
                module is not None and _references_member(module, "Err", name)
                for module in (server, client)
            )
            if not handled:
                yield self.finding(
                    protocol,
                    line,
                    f"Err.{name} is never handled by the server or "
                    "client — wire it up or suppress with a reason",
                )


def _enum_members(module: SourceModule, class_name: str) -> dict[str, int]:
    """Name -> line of int-valued members of an enum-style class."""
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members: dict[str, int] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members[target.id] = stmt.lineno
            return members
    return {}


def _references_member(
    module: SourceModule, class_name: str, member: str
) -> bool:
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == member
            and dotted_name(node.value) is not None
            and dotted_name(node.value).split(".")[-1] == class_name
        ):
            return True
    return False


@register
class MetricsCoverageChecker(Checker):
    """Every counter incremented anywhere must reach the snapshot."""

    name = "metrics"
    description = (
        "every ServiceMetrics.add() keyword must be a declared counter "
        "field, every tenant counter a declared field, and every "
        "latency op an existing histogram series"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        metrics = ctx.index.find("service/metrics.py")
        if metrics is None:
            return
        fields = _dataclass_fields(metrics, "ServiceMetrics")
        latency_ops = _latency_keys(metrics, "ServiceMetrics")
        tenant = ctx.index.find("service/tenant.py")
        counter_fields = (
            _counter_dataclass_fields(tenant) if tenant is not None else None
        )
        for module in ctx.index.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    yield from self._check_call(
                        module, node, fields, latency_ops
                    )
                elif isinstance(node, ast.AugAssign) and counter_fields is not None:
                    yield from self._check_counter(
                        module, node, counter_fields
                    )
                elif isinstance(node, ast.Assign):
                    yield from self._check_latency_map(
                        module, node, latency_ops
                    )

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        fields: set[str],
        latency_ops: set[str],
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = dotted_name(func.value)
        if func.attr == "add" and receiver is not None and (
            receiver == "metrics" or receiver.endswith(".metrics")
        ):
            for kw in node.keywords:
                if kw.arg is not None and kw.arg not in fields:
                    yield self.finding(
                        module,
                        node,
                        f"metrics.add({kw.arg}=...) increments a "
                        "counter ServiceMetrics does not declare — it "
                        "never reaches the /metrics snapshot",
                    )
        elif func.attr == "observe_latency" and node.args:
            op = node.args[0]
            if isinstance(op, ast.Constant) and isinstance(op.value, str):
                if op.value not in latency_ops:
                    yield self.finding(
                        module,
                        node,
                        f"observe_latency({op.value!r}, ...) has no "
                        "histogram series in ServiceMetrics.latency",
                    )

    def _check_counter(
        self,
        module: SourceModule,
        node: ast.AugAssign,
        counter_fields: set[str],
    ) -> Iterator[Finding]:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "counters"
            and target.attr not in counter_fields
        ):
            yield self.finding(
                module,
                node,
                f"counters.{target.attr} is incremented but not a "
                "declared tenant counter field — it never reaches the "
                "snapshot",
            )

    def _check_latency_map(
        self, module: SourceModule, node: ast.Assign, latency_ops: set[str]
    ) -> Iterator[Finding]:
        """String values of ``*_LATENCY_OPS`` maps must be real series
        (covers op names that reach observe_latency via a dict)."""
        names = [
            t.id
            for t in node.targets
            if isinstance(t, ast.Name) and "LATENCY_OPS" in t.id
        ]
        if not names or not isinstance(node.value, ast.Dict):
            return
        for value in node.value.values:
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value not in latency_ops
            ):
                yield self.finding(
                    module,
                    node,
                    f"latency op {value.value!r} in {names[0]} has no "
                    "histogram series in ServiceMetrics.latency",
                )


def _dataclass_fields(module: SourceModule, class_name: str) -> set[str]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
    return set()


def _latency_keys(module: SourceModule, class_name: str) -> set[str]:
    """Keys of the ``self.latency = {...}`` histogram map."""
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == "latency"
            and isinstance(node.value, ast.Dict)
        ):
            return {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return set()


def _counter_dataclass_fields(module: SourceModule) -> set[str] | None:
    """Fields of the tenant counters dataclass (name contains
    'Counters'); None when the module defines no such class."""
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and "Counters" in node.name:
            return {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
    return None
