"""Tests for the fault-injection package (plan parsing, the faulty
backend decorator, and the wire-level injector)."""

from __future__ import annotations

import pytest

from repro.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultyBackend,
    InjectedFault,
    WireFaultInjector,
)
from repro.store.backend import MemoryBackend


def wrapped(spec: str, name: str = "node-0"):
    plan = FaultPlan.parse(spec)
    backend = plan.wrap_backend(MemoryBackend(), name)
    return plan, backend


# ----------------------------------------------------------------------
# plan parsing
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=9,backend.io_error=0.5,backend.latency=0.25:0.002,"
            "backend.torn_write=0.1,backend.bit_flip=0.05,"
            "wire.drop=0.2,wire.stall=0.1:0.5,wire.garble=0.3,"
            "node.kill=node-2:17"
        )
        assert plan.seed == 9
        assert plan.backend.io_error == 0.5
        assert plan.backend.latency == 0.25
        assert plan.backend.latency_s == 0.002
        assert plan.backend.torn_write == 0.1
        assert plan.backend.bit_flip == 0.05
        assert plan.wire.drop == 0.2
        assert plan.wire.stall == 0.1
        assert plan.wire.stall_s == 0.5
        assert plan.wire.garble == 0.3
        assert plan.kill is not None
        assert plan.kill.node_id == "node-2"
        assert plan.kill.at_op == 17

    def test_parse_multiple_kills(self):
        plan = FaultPlan.parse(
            "seed=1,node.kill=node-1:10,node.kill=node-4:25"
        )
        assert [(k.node_id, k.at_op) for k in plan.kills] == [
            ("node-1", 10),
            ("node-4", 25),
        ]
        # Legacy single-kill accessor yields the first scheduled kill.
        assert plan.kill is not None and plan.kill.node_id == "node-1"
        with pytest.raises(ValueError):
            FaultPlan.parse("node.kill=node-1:10,node.kill=node-1:20")

    def test_multi_kill_wraps_each_named_backend(self):
        plan = FaultPlan.parse("node.kill=node-0:1,node.kill=node-1:2")
        first = plan.wrap_backend(MemoryBackend(), "node-0")
        second = plan.wrap_backend(MemoryBackend(), "node-1")
        spared = plan.wrap_backend(MemoryBackend(), "node-2")
        assert isinstance(first, FaultyBackend)
        assert isinstance(second, FaultyBackend)
        assert not isinstance(spared, FaultyBackend)
        with pytest.raises(InjectedFault):
            first.contains_batch([b"a"])
        second.contains_batch([b"a"])
        with pytest.raises(InjectedFault):
            second.contains_batch([b"b"])
        assert plan.stats.kills == 2

    def test_parse_rejects_bad_keys_and_values(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus.key=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("backend.io_error=nope")
        with pytest.raises(ValueError):
            FaultPlan.parse("backend.io_error=1.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("node.kill=missing-op")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "seed=5,backend.io_error=0.1")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.seed == 5

    def test_seeded_determinism(self):
        spec = "seed=42,backend.io_error=0.3"
        a = FaultPlan.parse(spec).rng("x")
        b = FaultPlan.parse(spec).rng("x")
        assert [a.random() for _ in range(32)] == [
            b.random() for _ in range(32)
        ]
        # A different component draws a different stream.
        c = FaultPlan.parse(spec).rng("y")
        assert [c.random() for _ in range(8)] != [
            FaultPlan.parse(spec).rng("x").random() for _ in range(8)
        ]

    def test_wrap_backend_is_identity_without_backend_faults(self):
        plan = FaultPlan.parse("seed=1,wire.drop=0.5")
        inner = MemoryBackend()
        assert plan.wrap_backend(inner, "node-0") is inner

    def test_wire_injector_none_without_wire_faults(self):
        plan = FaultPlan.parse("seed=1,backend.io_error=0.5")
        assert plan.wire_injector("conn-1") is None


# ----------------------------------------------------------------------
# FaultyBackend
# ----------------------------------------------------------------------


class TestFaultyBackend:
    def test_passthrough_when_quiet(self):
        plan, backend = wrapped("seed=1,backend.io_error=0.0001")
        assert isinstance(backend, FaultyBackend)
        assert backend.put_batch([(b"k", b"v")]) == [True]
        assert backend.get_batch([b"k"]) == [b"v"]
        assert backend.contains_batch([b"k", b"x"]) == [True, False]
        assert len(backend) == 1
        assert backend.value_bytes == 1

    def test_io_errors_are_oserrors_and_counted(self):
        plan, backend = wrapped("seed=2,backend.io_error=1.0")
        with pytest.raises(OSError):
            backend.put_batch([(b"k", b"v")])
        with pytest.raises(InjectedFault):
            backend.get_batch([b"k"])
        assert plan.stats.io_errors == 2

    def test_deterministic_fault_sequence(self):
        outcomes = []
        for _ in range(2):
            plan, backend = wrapped("seed=3,backend.io_error=0.3")
            run = []
            for i in range(40):
                try:
                    backend.contains_batch([bytes([i])])
                    run.append(True)
                except InjectedFault:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert False in outcomes[0] and True in outcomes[0]

    def test_torn_write_applies_strict_prefix(self):
        plan, backend = wrapped("seed=4,backend.torn_write=1.0")
        items = [(bytes([i]), bytes([i]) * 4) for i in range(8)]
        with pytest.raises(InjectedFault):
            backend.put_batch(items)
        assert plan.stats.torn_writes == 1
        stored = sum(1 for k, _ in items if (k in backend.inner._data))
        assert 1 <= stored < len(items)

    def test_bit_flip_corrupts_one_read(self):
        plan, backend = wrapped("seed=5,backend.bit_flip=1.0")
        backend.inner.put_batch([(b"k", b"payload")])
        (value,) = backend.get_batch([b"k"])
        assert value != b"payload"
        assert len(value) == len(b"payload")
        assert plan.stats.bit_flips_injected == 1
        assert plan.stats.bit_flips_detected == 0

    def test_kill_at_op_threshold(self):
        plan = FaultPlan.parse("seed=6,node.kill=node-0:3,backend.io_error=0")
        backend = plan.wrap_backend(MemoryBackend(), "node-0")
        assert isinstance(backend, FaultyBackend)
        other = plan.wrap_backend(MemoryBackend(), "node-1")
        assert not isinstance(other, FaultyBackend)
        backend.contains_batch([b"a"])
        backend.contains_batch([b"b"])
        with pytest.raises(InjectedFault):
            backend.contains_batch([b"c"])
        assert backend.dead
        assert plan.stats.kills == 1
        with pytest.raises(InjectedFault):
            backend.get_batch([b"a"])
        # clear/close stay callable so StoreNode.fail() can reap it.
        backend.clear()
        backend.close()

    @pytest.mark.parametrize("op", ["contains_batch", "get_batch", "put_batch", "delete_batch"])
    @pytest.mark.parametrize("batch", [1, 7, 25, 60])
    def test_kill_threshold_counts_keys_not_calls(self, op, batch):
        """A plan kills after the same number of keys however callers
        batch them: the call carrying the 100th key dies."""
        _, backend = wrapped("seed=6,node.kill=node-0:100")
        keys = [i.to_bytes(4, "big") for i in range(200)]
        delivered = 0
        with pytest.raises(InjectedFault, match="node death"):
            for start in range(0, len(keys), batch):
                part = keys[start : start + batch]
                args = [(k, b"v") for k in part] if op == "put_batch" else part
                getattr(backend, op)(args)
                delivered += len(part)
        assert backend.dead
        # Every whole call before the 100th key went through; the call
        # that carried it did not.
        assert delivered == (99 // batch) * batch

    def test_other_backend_faults_draw_per_call(self):
        """One call is one draw, whatever it carries."""
        plan, backend = wrapped("seed=8,backend.latency=1.0:0.0")
        backend.contains_batch([bytes([i]) for i in range(50)])
        backend.contains_batch([b"a"])
        assert plan.stats.latencies == 2

    def test_latency_counts(self):
        plan, backend = wrapped(
            "seed=7,backend.latency=1.0:0.0001"
        )
        backend.contains_batch([b"a"])
        assert plan.stats.latencies == 1


# ----------------------------------------------------------------------
# wire injector
# ----------------------------------------------------------------------


class TestWireInjector:
    def test_actions_and_stats(self):
        plan = FaultPlan.parse("seed=8,wire.drop=0.2,wire.garble=0.2")
        inj = plan.wire_injector("conn-1")
        assert isinstance(inj, WireFaultInjector)
        actions = [inj.frame_action() for _ in range(300)]
        drops = sum(1 for a in actions if a and a[0] == "drop")
        garbles = sum(1 for a in actions if a and a[0] == "garble")
        assert drops > 0 and garbles > 0
        assert plan.stats.wire_drops == drops
        assert plan.stats.wire_garbles == garbles

    def test_stall_carries_duration(self):
        plan = FaultPlan.parse("seed=9,wire.stall=1.0:0.25")
        inj = plan.wire_injector("conn-1")
        action = inj.frame_action()
        assert action == ("stall", 0.25)

    def test_garble_flips_exactly_one_bit(self):
        plan = FaultPlan.parse("seed=10,wire.garble=1.0")
        inj = plan.wire_injector("conn-1")
        payload = bytes(range(64))
        garbled = inj.garble(payload)
        assert len(garbled) == len(payload)
        diff = [
            (a ^ b) for a, b in zip(payload, garbled) if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1
        assert inj.garble(b"") == b""

    def test_per_connection_streams_differ(self):
        plan = FaultPlan.parse("seed=11,wire.drop=0.5")
        a = plan.wire_injector("conn-1")
        b = plan.wire_injector("conn-2")
        seq_a = [a.frame_action() is not None for _ in range(64)]
        seq_b = [b.frame_action() is not None for _ in range(64)]
        assert seq_a != seq_b
