"""Model test of the storage backends.

One ``hypothesis`` state machine drives a real backend through batched
puts (duplicate keys inside one batch, and ``known_absent=True`` only
where the model says so), deletes, reads, ``flush``, ``compact`` and — on
disk — close-and-reopen, against an oracle that is a plain dict.  The
disk machine draws ``memtable_limit`` and ``compact_fanout`` small enough
that runs, tombstones shadowing older runs and tier merges all occur
within a few steps.

What the model claims, after every step: ``get_batch``,
``contains_batch``, ``keys``, ``len`` and ``value_bytes`` answer exactly
what the dict does, for every key of the universe.

Derandomized, so a failure replays; a failure becomes a shrunk example
next to the machine, never a skip.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.hashing import chunk_hash
from repro.store.backend import MemoryBackend, PersistentBackend

#: Digest-shaped keys plus a few of other lengths (run entries frame the
#: key length; neighbours in sort order that share a prefix).
KEYS = tuple(chunk_hash(b"key-%d" % i) for i in range(12)) + (
    b"",
    b"k",
    b"ka",
    b"kb" * 40,
)
KEY = st.sampled_from(KEYS)
VALUE = st.binary(max_size=24)
MEMTABLE_LIMITS = (1, 2, 3, 5, 8)
COMPACT_FANOUTS = (2, 3, 4)


class BackendModel(RuleBasedStateMachine):
    kind = "disk"

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp() if self.kind == "disk" else None
        self.options: dict[str, int] = {}
        self.backend = None
        #: The oracle.
        self.model: dict[bytes, bytes] = {}

    def _open(self):
        if self.kind == "memory":
            return MemoryBackend()
        return PersistentBackend(self.directory, **self.options)

    @initialize(
        memtable_limit=st.sampled_from(MEMTABLE_LIMITS),
        compact_fanout=st.sampled_from(COMPACT_FANOUTS),
    )
    def open(self, memtable_limit, compact_fanout):
        self.options = {
            "memtable_limit": memtable_limit,
            "compact_fanout": compact_fanout,
        }
        self.backend = self._open()

    def teardown(self) -> None:
        if self.backend is not None:
            self.backend.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    # -- mutations -----------------------------------------------------

    @rule(items=st.lists(st.tuples(KEY, VALUE), max_size=6))
    def put_batch(self, items):
        """Insert-if-absent, decided item by item: the second of two
        equal keys in one batch sees the first."""
        want = []
        for key, value in items:
            want.append(key not in self.model)
            self.model.setdefault(key, value)
        assert self.backend.put_batch(items) == want

    @rule(keys=st.lists(KEY, max_size=4, unique=True), value=VALUE)
    def put_known_absent(self, keys, value):
        """The pledge is only made where it is true."""
        items = [(key, value + key[:2]) for key in keys if key not in self.model]
        assert self.backend.put_batch(items, known_absent=True) == [True] * len(items)
        self.model.update(items)

    @rule(keys=st.lists(KEY, max_size=5))
    def delete_batch(self, keys):
        want = [len(self.model.pop(key, b"")) for key in keys]
        assert self.backend.delete_batch(keys) == want

    # -- maintenance ---------------------------------------------------

    @rule()
    def flush(self):
        self.backend.flush()

    @rule()
    def compact(self):
        assert self.backend.compact() >= 0

    @precondition(lambda self: self.kind == "disk")
    @rule()
    def close_reopen(self):
        self.backend.close()
        self.backend = self._open()
        assert self.backend.recovery.clean

    # -- the claim -----------------------------------------------------

    @invariant()
    def answers_like_the_dict(self):
        if self.backend is None:
            return
        backend, model = self.backend, self.model
        assert backend.get_batch(KEYS) == [model.get(key) for key in KEYS]
        assert backend.contains_batch(KEYS) == [key in model for key in KEYS]
        assert sorted(backend.keys()) == sorted(model)
        assert len(backend) == len(model)
        assert backend.value_bytes == sum(map(len, model.values()))


MODEL_SETTINGS = settings(
    max_examples=150,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_backend_model(kind):
    model = type(f"BackendModel[{kind}]", (BackendModel,), {"kind": kind})
    model.TestCase.settings = MODEL_SETTINGS
    model.TestCase().runTest()
