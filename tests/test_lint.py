"""The repro lint framework: every rule fires on a seeded violation,
stays quiet on the clean twin, and the shipped tree itself is clean.

Fixture trees are built under ``tmp_path`` with the directory shapes
the rules key on (``core/``, ``service/``, ``store/``); the mutation
test copies a real hot-path module and seeds a violation into the copy.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.model import Finding, apply_baseline, load_baseline
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def lint(root: Path, *, rules: list[str] | None = None, paths=None):
    return run_lint(paths or [root], root=root, rules=rules)


def rules_of(result) -> list[str]:
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# zero-copy


class TestZeroCopy:
    def test_fires_on_bytes_materialization_in_hot_path(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                )
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        assert rules_of(result) == ["zero-copy"]
        assert result.findings[0].line == 2
        assert "bytes(" in result.findings[0].message

    def test_fires_on_tobytes_and_concat(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/buffers.py": (
                    "def f(arr, acc):\n"
                    "    x = arr.tobytes()\n"
                    "    y = acc + b'tail'\n"
                    "    acc += b'tail'\n"
                    "    return x, y, acc\n"
                )
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        assert len(result.findings) == 3

    def test_quiet_outside_hot_path_and_on_clean_module(self, tmp_path):
        write_tree(
            tmp_path,
            {
                # Same copy, but not a hot-path module: out of scope.
                "core/util.py": "def payload(view):\n    return bytes(view)\n",
                # Hot-path module without a copy: clean.
                "core/shredder.py": (
                    "def passthrough(view):\n"
                    "    return memoryview(view)\n"
                ),
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        assert result.findings == []

    def test_bare_bytes_constructor_without_args_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {"core/engines.py": "def empty():\n    return bytes()\n"},
        )
        assert lint(tmp_path, rules=["zero-copy"]).findings == []


# ---------------------------------------------------------------------------
# batched-api


class TestBatchedApi:
    def test_fires_on_per_item_call_in_loop(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "store/caller.py": (
                    "def presence(store, digests):\n"
                    "    out = []\n"
                    "    for d in digests:\n"
                    "        out.append(store.has_chunk(d))\n"
                    "    return out\n"
                )
            },
        )
        result = lint(tmp_path, rules=["batched-api"])
        assert rules_of(result) == ["batched-api"]
        assert "has_chunks" in result.findings[0].message

    def test_fires_inside_comprehension(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "store/caller.py": (
                    "def presence(index, keys):\n"
                    "    return [index.lookup(k) for k in keys]\n"
                )
            },
        )
        assert rules_of(lint(tmp_path, rules=["batched-api"])) == [
            "batched-api"
        ]

    @pytest.mark.parametrize(
        "per_item, twin", [("holds", "holds_batch"), ("probe", "probe_batch")]
    )
    def test_fires_on_per_item_node_calls(self, tmp_path, per_item, twin):
        write_tree(
            tmp_path,
            {
                "store/caller.py": (
                    "def presence(node, digests):\n"
                    f"    return [node.{per_item}(d) for d in digests]\n"
                )
            },
        )
        result = lint(tmp_path, rules=["batched-api"])
        assert rules_of(result) == ["batched-api"]
        assert f".{twin}(" in result.findings[0].message

    def test_quiet_inside_the_batch_twin_itself(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "store/backendish.py": (
                    "class Store:\n"
                    "    def has_chunk(self, d):\n"
                    "        return True\n"
                    "    def has_chunks(self, digests):\n"
                    "        return [self.has_chunk(d) for d in digests]\n"
                )
            },
        )
        assert lint(tmp_path, rules=["batched-api"]).findings == []

    def test_quiet_outside_loops(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "store/caller.py": (
                    "def one(store, d):\n"
                    "    return store.has_chunk(d)\n"
                )
            },
        )
        assert lint(tmp_path, rules=["batched-api"]).findings == []


# ---------------------------------------------------------------------------
# async-blocking


class TestAsyncBlocking:
    def test_fires_on_time_sleep_in_async_def(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/app.py": (
                    "import time\n"
                    "async def handler():\n"
                    "    time.sleep(0.1)\n"
                )
            },
        )
        result = lint(tmp_path, rules=["async-blocking"])
        assert rules_of(result) == ["async-blocking"]
        assert "time.sleep" in result.findings[0].message

    def test_fires_on_open_and_lock_acquire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "store/async_io.py": (
                    "async def handler(lock):\n"
                    "    fh = open('x')\n"
                    "    lock.acquire()\n"
                    "    return fh\n"
                )
            },
        )
        assert len(lint(tmp_path, rules=["async-blocking"]).findings) == 2

    def test_nested_sync_def_is_a_thread_target(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/app.py": (
                    "import time\n"
                    "async def handler():\n"
                    "    def worker():\n"
                    "        time.sleep(0.1)\n"
                    "    return worker\n"
                )
            },
        )
        assert lint(tmp_path, rules=["async-blocking"]).findings == []

    def test_quiet_outside_service_and_store(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/app.py": (
                    "import time\n"
                    "async def handler():\n"
                    "    time.sleep(0.1)\n"
                )
            },
        )
        assert lint(tmp_path, rules=["async-blocking"]).findings == []


# ---------------------------------------------------------------------------
# lock-discipline


class TestLockDiscipline:
    def test_fires_on_unlocked_mutation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "import threading\n"
                    "_lock = threading.Lock()\n"
                    "_cache = {}\n"
                    "def put(k, v):\n"
                    "    _cache[k] = v\n"
                )
            },
        )
        result = lint(tmp_path, rules=["lock-discipline"])
        assert rules_of(result) == ["lock-discipline"]
        assert "_cache" in result.findings[0].message

    def test_fires_when_module_has_state_but_no_lock(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "_cache = {}\n"
                    "def put(k, v):\n"
                    "    _cache[k] = v\n"
                )
            },
        )
        result = lint(tmp_path, rules=["lock-discipline"])
        assert rules_of(result) == ["lock-discipline"]
        assert "no" in result.findings[0].message.lower()

    def test_fires_on_global_rebind_outside_lock(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "import threading\n"
                    "_lock = threading.Lock()\n"
                    "_tuned = None\n"
                    "def set_tuned(n):\n"
                    "    global _tuned\n"
                    "    _tuned = n\n"
                )
            },
        )
        assert rules_of(lint(tmp_path, rules=["lock-discipline"])) == [
            "lock-discipline"
        ]

    def test_quiet_when_mutation_is_under_the_lock(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "import threading\n"
                    "_lock = threading.Lock()\n"
                    "_cache = {}\n"
                    "def put(k, v):\n"
                    "    with _lock:\n"
                    "        _cache[k] = v\n"
                )
            },
        )
        assert lint(tmp_path, rules=["lock-discipline"]).findings == []

    def test_fires_on_reversed_lock_order(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "import threading\n"
                    "_a = threading.Lock()\n"
                    "_b = threading.Lock()\n"
                    "def forward():\n"
                    "    with _a:\n"
                    "        with _b:\n"
                    "            pass\n"
                    "def backward():\n"
                    "    with _b:\n"
                    "        with _a:\n"
                    "            pass\n"
                )
            },
        )
        result = lint(tmp_path, rules=["lock-discipline"])
        assert rules_of(result) == ["lock-discipline"]
        assert "order" in result.findings[0].message

    def test_module_level_initialization_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/engines.py": (
                    "import threading\n"
                    "_lock = threading.Lock()\n"
                    "_cache = {}\n"
                    "_cache['warm'] = True\n"
                )
            },
        )
        assert lint(tmp_path, rules=["lock-discipline"]).findings == []


# ---------------------------------------------------------------------------
# protocol


_PROTOCOL_OK = (
    "class Msg:\n"
    "    HELLO = 1\n"
    "    THROTTLE = 2\n"
    "class Err:\n"
    "    BAD = 1\n"
    "def encode_hello(x):\n"
    "    return b''\n"
    "def decode_hello(x):\n"
    "    return x\n"
    "def encode_throttle(x):\n"
    "    return b''\n"
    "def decode_throttle(x):\n"
    "    return x\n"
)

_SERVER_OK = (
    "from proto import Msg, Err\n"
    "class Server:\n"
    "    def dispatch(self, op):\n"
    "        if op == Msg.HELLO:\n"
    "            return 'hi'\n"
    "        self.send(Msg.THROTTLE)\n"
    "        return Err.BAD\n"
)

_CLIENT_OK = (
    "from proto import Msg, Err\n"
    "def handle(op):\n"
    "    return {Msg.HELLO: 'hi', Msg.THROTTLE: 'slow', Err.BAD: 'bad'}[op]\n"
)


class TestProtocol:
    def _tree(self, protocol=_PROTOCOL_OK, server=_SERVER_OK, client=_CLIENT_OK):
        return {
            "service/protocol.py": protocol,
            "service/server.py": server,
            "service/client.py": client,
        }

    def test_clean_plumbing_is_quiet(self, tmp_path):
        write_tree(tmp_path, self._tree())
        assert lint(tmp_path, rules=["protocol"]).findings == []

    def test_fires_on_missing_codec(self, tmp_path):
        protocol = _PROTOCOL_OK.replace(
            "def encode_throttle(x):\n    return b''\n", ""
        )
        write_tree(tmp_path, self._tree(protocol=protocol))
        result = lint(tmp_path, rules=["protocol"])
        assert any("encode_throttle" in f.message for f in result.findings)

    def test_fires_on_unhandled_opcode_and_error(self, tmp_path):
        server = (
            "from proto import Msg\n"
            "class Server:\n"
            "    def dispatch(self, op):\n"
            "        self.send(Msg.THROTTLE)\n"
        )
        client = "from proto import Msg\n" "def handle(op):\n" "    return Msg.THROTTLE\n"
        write_tree(tmp_path, self._tree(server=server, client=client))
        result = lint(tmp_path, rules=["protocol"])
        messages = " | ".join(f.message for f in result.findings)
        assert "Msg.HELLO has no server dispatch arm" in messages
        assert "Msg.HELLO has no client handler" in messages
        assert "Err.BAD is never handled" in messages


# ---------------------------------------------------------------------------
# metrics


_METRICS_OK = (
    "class ServiceMetrics:\n"
    "    frames: int = 0\n"
    "    def __init__(self):\n"
    "        self.latency = {'decide': object()}\n"
)


class TestMetrics:
    def test_fires_on_undeclared_counter_kwarg(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/metrics.py": _METRICS_OK,
                "service/server.py": (
                    "class S:\n"
                    "    def f(self):\n"
                    "        self.metrics.add(frames=1, bogus=2)\n"
                ),
            },
        )
        result = lint(tmp_path, rules=["metrics"])
        assert rules_of(result) == ["metrics"]
        assert "bogus" in result.findings[0].message

    def test_fires_on_unknown_latency_series(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/metrics.py": _METRICS_OK,
                "service/server.py": (
                    "class S:\n"
                    "    def f(self):\n"
                    "        self.metrics.observe_latency('nope', 1.0)\n"
                ),
            },
        )
        result = lint(tmp_path, rules=["metrics"])
        assert any("nope" in f.message for f in result.findings)

    def test_fires_on_undeclared_tenant_counter(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/metrics.py": _METRICS_OK,
                "service/tenant.py": (
                    "class TenantCounters:\n"
                    "    bytes_in: int = 0\n"
                ),
                "service/server.py": (
                    "def bump(t):\n"
                    "    t.counters.bytes_out += 1\n"
                ),
            },
        )
        result = lint(tmp_path, rules=["metrics"])
        assert any("bytes_out" in f.message for f in result.findings)

    def test_declared_counters_are_quiet(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/metrics.py": _METRICS_OK,
                "service/tenant.py": (
                    "class TenantCounters:\n"
                    "    bytes_in: int = 0\n"
                ),
                "service/server.py": (
                    "class S:\n"
                    "    def f(self, t):\n"
                    "        self.metrics.add(frames=1)\n"
                    "        self.metrics.observe_latency('decide', 1.0)\n"
                    "        t.counters.bytes_in += 1\n"
                ),
            },
        )
        assert lint(tmp_path, rules=["metrics"]).findings == []


# ---------------------------------------------------------------------------
# dead-code


class TestDeadCode:
    def test_fires_on_unreferenced_private_helper(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def _orphan():\n"
                    "    return 1\n"
                    "def used():\n"
                    "    return 2\n"
                ),
                "pkg/other.py": "from pkg.mod import used\nused()\n",
            },
        )
        result = lint(tmp_path, rules=["dead-code"])
        assert rules_of(result) == ["dead-code"]
        assert "_orphan" in result.findings[0].message

    def test_fires_on_export_never_used_outside(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "__all__ = ['shiny']\n"
                    "def shiny():\n"
                    "    return 1\n"
                )
            },
        )
        result = lint(tmp_path, rules=["dead-code"])
        assert rules_of(result) == ["dead-code"]
        assert "'shiny'" in result.findings[0].message

    def test_referenced_helper_and_export_are_quiet(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "__all__ = ['shiny']\n"
                    "def _helper():\n"
                    "    return 1\n"
                    "def shiny():\n"
                    "    return _helper()\n"
                ),
                "pkg/other.py": "from pkg.mod import shiny\nshiny()\n",
            },
        )
        assert lint(tmp_path, rules=["dead-code"]).findings == []

    def test_getattr_string_counts_as_a_use(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/mod.py": "def _maybe():\n    return 1\n",
                "pkg/other.py": (
                    "import pkg.mod\n"
                    "fn = getattr(pkg.mod, '_maybe', None)\n"
                ),
            },
        )
        assert lint(tmp_path, rules=["dead-code"]).findings == []

    def test_decorated_def_is_never_dead(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def deco(f):\n"
                    "    return f\n"
                    "@deco\n"
                    "def _routed():\n"
                    "    return 1\n"
                    "deco\n"
                ),
            },
        )
        assert lint(tmp_path, rules=["dead-code"]).findings == []


# ---------------------------------------------------------------------------
# suppressions, baseline, runner plumbing


class TestSuppression:
    def test_same_line_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)  # repro: lint-ok[zero-copy] the API\n"
                )
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_above_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    # repro: lint-ok[zero-copy] the API\n"
                    "    return bytes(view)\n"
                )
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_star_suppresses_any_rule(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)  # repro: lint-ok[*]\n"
                )
            },
        )
        assert lint(tmp_path, rules=["zero-copy"]).findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)  # repro: lint-ok[batched-api]\n"
                )
            },
        )
        assert rules_of(lint(tmp_path, rules=["zero-copy"])) == ["zero-copy"]


class TestBaseline:
    def _violation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                )
            },
        )

    def test_baselined_finding_is_forgiven(self, tmp_path):
        self._violation(tmp_path)
        first = lint(tmp_path, rules=["zero-copy"])
        assert len(first.findings) == 1
        baseline = tmp_path / "lint-baseline.json"
        baseline.write_text(
            json.dumps([f.to_dict() for f in first.findings])
        )
        second = run_lint(
            [tmp_path], root=tmp_path, rules=["zero-copy"],
            baseline_path=baseline,
        )
        assert second.findings == []
        assert second.baselined == 1

    def test_default_baseline_at_root_is_picked_up(self, tmp_path):
        self._violation(tmp_path)
        first = lint(tmp_path, rules=["zero-copy"])
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps([f.to_dict() for f in first.findings])
        )
        second = lint(tmp_path, rules=["zero-copy"])
        assert second.findings == []
        assert second.baselined == 1

    def test_baseline_matches_ignore_line_numbers(self):
        finding = Finding("zero-copy", "core/chunking.py", 99, "copied")
        baseline = [("zero-copy", "core/chunking.py", "copied")]
        fresh, matched = apply_baseline([finding], baseline)
        assert fresh == [] and matched == 1

    def test_one_entry_forgives_one_finding(self):
        f1 = Finding("zero-copy", "core/chunking.py", 1, "copied")
        f2 = Finding("zero-copy", "core/chunking.py", 9, "copied")
        fresh, matched = apply_baseline(
            [f1, f2], [("zero-copy", "core/chunking.py", "copied")]
        )
        assert matched == 1
        assert fresh == [f2]

    def test_malformed_baseline_is_an_error(self, tmp_path):
        self._violation(tmp_path)
        bad = tmp_path / "lint-baseline.json"
        bad.write_text('{"not": "a list"}')
        result = lint(tmp_path, rules=["zero-copy"])
        assert result.exit_code == 2
        assert any("baseline" in e for e in result.errors)


class TestRunner:
    def test_unknown_rule_is_exit_2(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        result = lint(tmp_path, rules=["bogus"])
        assert result.exit_code == 2
        assert any("unknown rule" in e for e in result.errors)

    def test_syntax_error_is_exit_2_not_a_crash(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "def broken(:\n"})
        result = lint(tmp_path)
        assert result.exit_code == 2
        assert any("failed to parse" in e for e in result.errors)

    def test_missing_path_is_exit_2(self, tmp_path):
        result = run_lint([tmp_path / "nope"], root=tmp_path)
        assert result.exit_code == 2

    def test_findings_only_for_requested_paths(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                ),
                "clean/mod.py": "x = 1\n",
            },
        )
        result = run_lint(
            [tmp_path / "clean"], root=tmp_path, rules=["zero-copy"]
        )
        assert result.findings == []

    def test_findings_sorted_by_path_line_rule(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/buffers.py": (
                    "def f(a, b):\n"
                    "    return bytes(a), bytes(b)\n"
                ),
                "core/chunking.py": (
                    "def g(v):\n"
                    "    return bytes(v)\n"
                ),
            },
        )
        result = lint(tmp_path, rules=["zero-copy"])
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)


# ---------------------------------------------------------------------------
# mutation test: seed a violation into a copy of a real module


class TestMutation:
    def test_seeded_violation_in_real_module_fires(self, tmp_path):
        real = REPO_ROOT / "src" / "repro" / "core" / "chunking.py"
        target = tmp_path / "core" / "chunking.py"
        target.parent.mkdir(parents=True)
        shutil.copy(real, target)
        source = target.read_text()
        # Seed: force a copy at the top of the hot loop's home module.
        source += (
            "\n\ndef _seeded_violation(view):\n"
            "    return bytes(view)\n"
        )
        target.write_text(source)
        result = lint(tmp_path, rules=["zero-copy"])
        assert [f.rule for f in result.findings] == ["zero-copy"]
        assert result.findings[0].line > 0

    def test_unmutated_copy_stays_clean(self, tmp_path):
        real = REPO_ROOT / "src" / "repro" / "core" / "chunking.py"
        target = tmp_path / "core" / "chunking.py"
        target.parent.mkdir(parents=True)
        shutil.copy(real, target)
        result = lint(tmp_path, rules=["zero-copy"])
        assert result.findings == []
        # The real module's own justified copies carry suppressions —
        # they must survive the copy byte-for-byte.
        assert result.suppressed > 0


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_exit_zero_and_human_output_on_clean_tree(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "mod.py"]) == 0
        out = capsys.readouterr().out
        assert "1 files checked (mod.py 1 lines), 0 finding(s)" in out

    def test_exit_one_with_clickable_findings(self, tmp_path, capsys, monkeypatch):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                )
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "core"]) == 1
        out = capsys.readouterr().out
        assert "core/chunking.py:2: [zero-copy]" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "no/such/dir"]) == 2

    def test_json_output(self, tmp_path, capsys, monkeypatch):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                )
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "core", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["findings"] == 1
        assert doc["findings"][0]["rule"] == "zero-copy"

    def test_out_file(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "mod.py", "--out", "report.json"]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["counts"]["checked_files"] == 1
        assert doc["lines"] == {"mod.py": 1}

    def test_rule_filter(self, tmp_path, capsys, monkeypatch):
        write_tree(
            tmp_path,
            {
                "core/chunking.py": (
                    "def payload(view):\n"
                    "    return bytes(view)\n"
                )
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "core", "--rule", "batched-api"]) == 0


# ---------------------------------------------------------------------------
# the shipped tree is clean


class TestRepoIsClean:
    @pytest.mark.parametrize("subdir", ["src", "benchmarks", "examples"])
    def test_shipped_tree_has_no_findings(self, subdir):
        path = REPO_ROOT / subdir
        if not path.exists():
            pytest.skip(f"{subdir} not present")
        result = run_lint([path], root=REPO_ROOT)
        assert result.errors == []
        assert [f.format() for f in result.findings] == []

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert baseline == []
