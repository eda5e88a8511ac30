"""Model test of the storage backends.

One ``hypothesis`` state machine drives a real backend through batched
puts (duplicate keys inside one batch), deletes, reads, ``flush``,
``compact`` and — on disk — close-and-reopen and crash-and-reopen,
against an oracle that is a plain dict.  A crash drops the handle
without ``close()``, so no checkpoint is written: the reopen loads the
last (stale) keydir checkpoint and replays the log past it.  The disk
machine draws the checkpoint floor small enough that checkpoints land
between mutations within a few steps.

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
from repro.store import backend as backend_module
from repro.store.backend import MemoryBackend, PersistentBackend

#: Digest-shaped keys plus a few of other lengths (checkpoint entries
#: frame the key length; neighbours in sort order that share a prefix).
KEYS = tuple(chunk_hash(b"key-%d" % i) for i in range(12)) + (
    b"",
    b"k",
    b"ka",
    b"kb" * 40,
)
KEY = st.sampled_from(KEYS)
VALUE = st.binary(max_size=24)
DEFAULT_FLOOR = backend_module._CHECKPOINT_FLOOR
CHECKPOINT_FLOORS = (1, 2, 5, DEFAULT_FLOOR)


class BackendModel(RuleBasedStateMachine):
    kind = "disk"

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp() if self.kind == "disk" else None
        self.backend = None
        #: The oracle.
        self.model: dict[bytes, bytes] = {}

    def _open(self):
        if self.kind == "memory":
            return MemoryBackend()
        return PersistentBackend(self.directory)

    @initialize(floor=st.sampled_from(CHECKPOINT_FLOORS))
    def open(self, floor):
        backend_module._CHECKPOINT_FLOOR = floor
        self.backend = self._open()

    def teardown(self) -> None:
        backend_module._CHECKPOINT_FLOOR = DEFAULT_FLOOR
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

    @precondition(lambda self: self.kind == "disk")
    @rule()
    def crash_reopen(self):
        """Records reach the OS, then the process dies: no close()."""
        self.backend.flush()
        self.backend._finalizer()  # closes the file handles, as exit would
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
