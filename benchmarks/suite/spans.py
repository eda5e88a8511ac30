"""Timing wrappers around the public callables of every layer.

One table (:data:`TABLE`) names each patch point — module, qualified
name — with the layer metric it feeds.  :class:`Tracer` resolves the
table once, wraps methods on their classes and module-level functions
in every ``repro.*`` namespace that imported them by name, records one
span per call (name, start, end, parent, repetition), and restores the
originals on :meth:`Tracer.uninstall`.  Spans nest per thread *and* per
asyncio task (the current span lives in a ``ContextVar``), stay in
memory as flat columns, and are written out once at the end.

Only the traced run imports this module; end-to-end numbers always come
from a run that never loaded it.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

GIB = 1 << 30

IN_PROCESS = ("image_stream", "small_files", "cluster_ec_disk")
SINGLE_STORE = ("image_stream", "small_files", "remote_ingest")
CLUSTER = ("cluster_ec_disk",)
REMOTE = ("remote_ingest",)
EVERYWHERE = IN_PROCESS + REMOTE

# What a row contributes to its metric.
TOTAL = "total"  # the span, unless an ancestor already feeds the metric
SELF = "self"  # the span minus its child spans
RTT = "rtt"  # one duration per call, reported as the percentiles of RTT_PERCENTILES
COVER = "cover"  # feeds no metric; the span only closes the attribution of its window

# Which timed phases a metric is taken over (and normalised by).
BACKUP = ("full", "incr")
RESTORE = ("restore",)
ANY_PHASE = BACKUP + RESTORE


@dataclass(frozen=True)
class Row:
    module: str
    qualname: str
    metric: str
    kind: str
    phases: tuple[str, ...]
    #: Workloads on which a repetition must call this at least once.
    runs_on: tuple[str, ...]
    #: "call" times the call; "iter" times every ``next()`` on the
    #: iterator the call returns (the caller blocked in the producer).
    wrap: str = "call"
    #: Record ``len(result)`` in the span's value column.
    sized: bool = False


def _rows(module, metric, kind, phases, runs_on, *qualnames, **kw):
    return [Row(module, q, metric, kind, phases, runs_on, **kw) for q in qualnames]


TABLE: tuple[Row, ...] = tuple(
    _rows("repro.core.engines", "core.engines.scan_s_per_gib", TOTAL, BACKUP, IN_PROCESS,
          "VectorEngine.candidate_cut_array")
    # Min/max selection and chunk-record building run inline in
    # stream_chunks on the backup path; its self time (the scan is a
    # child span) is the select cost.
    + _rows("repro.core.chunking", "core.chunking.select_s_per_gib", SELF, BACKUP, IN_PROCESS,
            "stream_chunks", wrap="iter")
    + _rows("repro.core.hashing", "core.hashing.digest_s_per_gib", TOTAL, BACKUP, EVERYWHERE,
            "digest_many")
    + _rows("repro.core.shredder", "core.shredder.batch_wait_s_per_gib", TOTAL, BACKUP, IN_PROCESS,
            "Shredder.pipeline_batches", wrap="iter")
    + _rows("repro.core.dedup", "core.dedup.probe_s_per_gib", TOTAL, BACKUP, EVERYWHERE,
            "DedupIndex.lookup_or_insert_batch")
    + _rows("repro.backup.server", "backup.server.self_s_per_gib", SELF, BACKUP, IN_PROCESS,
            "BackupServer.backup_snapshot")
    + _rows("repro.backup.agent", "backup.agent.receive_s_per_gib", TOTAL, BACKUP, EVERYWHERE,
            "ShredderAgent.receive_chunks", "ShredderAgent.receive_pointers")
    + _rows("repro.backup.agent", "backup.agent.finish_s_per_gib", TOTAL, BACKUP, EVERYWHERE,
            "ShredderAgent.finish_snapshot")
    + _rows("repro.backup.store", "backup.store.put_s_per_gib", TOTAL, BACKUP, SINGLE_STORE,
            "ChunkStore.put_chunks")
    + _rows("repro.backup.store", "backup.store.has_s_per_gib", TOTAL, BACKUP, SINGLE_STORE,
            "ChunkStore.has_chunks")
    + _rows("repro.backup.store", "backup.store.restore_s_per_gib", TOTAL, RESTORE, SINGLE_STORE,
            "ChunkStore.restore")
    + _rows("repro.store.cluster", "store.cluster.lookup_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "ChunkStoreCluster.lookup_chunks")
    + _rows("repro.store.cluster", "store.cluster.has_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "ChunkStoreCluster.has_chunks")
    + _rows("repro.store.cluster", "store.cluster.put_self_s_per_gib", SELF, BACKUP, CLUSTER,
            "ChunkStoreCluster.put_chunks")
    + _rows("repro.store.cluster", "store.cluster.get_self_s_per_gib", SELF, RESTORE, CLUSTER,
            "ChunkStoreCluster.get_chunk", "ChunkStoreCluster.restore")
    + _rows("repro.store.cluster", "store.cluster.recipe_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "ChunkStoreCluster.put_recipe")
    + _rows("repro.store.schemes", "store.schemes.placement_s_per_gib", TOTAL, ANY_PHASE, CLUSTER,
            "ErasureCodedPlacement.nodes_for")
    + _rows("repro.store.erasure", "store.erasure.encode_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "ReedSolomonCodec.encode")
    + _rows("repro.store.erasure", "store.erasure.decode_s_per_gib", TOTAL, RESTORE, CLUSTER,
            "ReedSolomonCodec.decode")
    + _rows("repro.store.node", "store.node.put_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "StoreNode.put_fragment")
    + _rows("repro.store.node", "store.node.get_s_per_gib", TOTAL, RESTORE, CLUSTER,
            "StoreNode.get_fragment")
    + _rows("repro.store.backend", "store.backend.put_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "PersistentBackend.put_batch")
    + _rows("repro.store.backend", "store.backend.get_s_per_gib", TOTAL, RESTORE, CLUSTER,
            "PersistentBackend.get_batch")
    + _rows("repro.store.backend", "store.backend.contains_s_per_gib", TOTAL, BACKUP, CLUSTER,
            "PersistentBackend.contains_batch")
    + _rows("repro.service.protocol", "service.protocol.encode_s_per_gib", TOTAL, ANY_PHASE, REMOTE,
            "encode_chunk_batch", "encode_digest_batch", "encode_pointer_batch",
            "encode_digest_reply")
    + _rows("repro.service.protocol", "service.protocol.encode_s_per_gib", TOTAL, ANY_PHASE, REMOTE,
            "encode_frame", sized=True)
    + _rows("repro.service.protocol", "service.protocol.decode_s_per_gib", TOTAL, ANY_PHASE, REMOTE,
            "decode_chunk_batch", "decode_digest_batch", "decode_pointer_batch",
            "decode_digest_reply")
    + _rows("repro.service.client", "service.client.decide_rtt_ms", RTT, BACKUP, REMOTE,
            "AsyncBackupClient.decide_chunks")
    + _rows("repro.service.client", "service.client.chunk_rtt_ms", RTT, BACKUP, REMOTE,
            "AsyncBackupClient.ship_chunks")
    + _rows("repro.service.client", "service.client.pointer_rtt_ms", RTT, BACKUP, REMOTE,
            "AsyncBackupClient.ship_pointers")
    # The client half of the remaining wire calls: without these spans
    # half of remote_ingest's timed wall clock lies outside every span.
    + _rows("repro.service.client", "", COVER, ANY_PHASE, REMOTE,
            "AsyncBackupClient.begin_snapshot", "AsyncBackupClient.finish_snapshot",
            "AsyncBackupClient.restore")
)

#: Percentiles reported for each RTT metric, as ``<metric>_p<N>``.
RTT_PERCENTILES = {
    "service.client.decide_rtt_ms": (50, 95),
    "service.client.chunk_rtt_ms": (50, 95),
    "service.client.pointer_rtt_ms": (50,),
}

PHASES = ANY_PHASE

_METRICS = sorted({r.metric for r in TABLE})
_METRIC_ID = np.array([_METRICS.index(r.metric) for r in TABLE])
#: Doubles per span in the log: id, parent, row, rep, start, end, value.
_FIELDS = 7
_ROW_OF = {(r.module, r.qualname): i for i, r in enumerate(TABLE)}
_FRAME = _ROW_OF["repro.service.protocol", "encode_frame"]
_PLACEMENT = _ROW_OF["repro.store.schemes", "ErasureCodedPlacement.nodes_for"]
_BATCHES = _ROW_OF["repro.core.shredder", "Shredder.pipeline_batches"]


class TraceError(RuntimeError):
    """A patch point is missing, or a required callable never ran."""


class Tracer:
    #: Span-derived metrics that must repeat exactly.
    EXACT_METRICS = (
        "store.schemes.placement_calls_per_chunk",
        "service.protocol.wire_bytes_per_user_byte",
    )

    def __init__(self) -> None:
        self.rep = -1
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "suite_span", default=-1
        )
        self._ids = itertools.count()
        # One flat array, _FIELDS doubles per span, appended when the
        # span closes: a single C call (atomic under the GIL, so spans
        # from several threads interleave safely) that creates nothing
        # the cyclic collector tracks.
        self._log = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self._targets = [self._resolve(r) for r in TABLE]

    # -- patch points --------------------------------------------------

    @staticmethod
    def _resolve(row: Row):
        """``(owner, attribute, original)`` of one table row, or raise."""
        try:
            owner = importlib.import_module(row.module)
            *path, attr = row.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            raise TraceError(f"patch point {row.module}:{row.qualname} not found") from exc
        if not inspect.isfunction(original):
            raise TraceError(f"{row.module}:{row.qualname} is not a plain function")
        return owner, attr, original

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        by_name: dict[int, object] = {}
        for index, (row, (owner, attr, original)) in enumerate(zip(TABLE, self._targets)):
            wrapper = self._wrapper(index, row, original)
            if inspect.ismodule(owner):
                by_name[id(original)] = wrapper  # patched by the sweep below
            else:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
        # `from repro.x import f` left a second reference in the
        # importer's namespace; the wrapper has to replace that too.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = by_name.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------

    def _wrapper(self, index: int, row: Row, original):
        ids, current, log = self._ids, self._current, self._log
        clock, nan, tracer = time.perf_counter, float("nan"), self

        if row.wrap == "iter":
            def traced(*args, **kwargs):
                return _TracedIterator(tracer, index, original(*args, **kwargs))
        elif inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                span = next(ids)
                parent = current.get()
                token = current.set(span)
                t0 = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    t1 = clock()
                    current.reset(token)
                    log.extend((span, parent, index, tracer.rep, t0, t1, nan))
        else:
            sized = row.sized

            def traced(*args, **kwargs):
                span = next(ids)
                parent = current.get()
                token = current.set(span)
                value = nan
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                    if sized:
                        value = len(result)
                    return result
                finally:
                    t1 = clock()
                    current.reset(token)
                    log.extend((span, parent, index, tracer.rep, t0, t1, value))

        traced.__name__ = original.__name__
        traced.__qualname__ = original.__qualname__
        traced.__doc__ = original.__doc__
        traced.__wrapped__ = original
        return traced

    # -- analysis ------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as NumPy columns, plus duration, self time and
        whether an ancestor already feeds the span's metric."""
        log = np.frombuffer(self._log, dtype=np.float64).reshape(-1, _FIELDS)
        log = log[np.argsort(log[:, 0])]  # close order -> span id order
        if log.shape[0] and int(log[-1, 0]) != log.shape[0] - 1:
            raise TraceError("a span was opened and never closed")
        cols = {
            "parent": log[:, 1].astype(np.int64),
            "row": log[:, 2].astype(np.int64),
            "rep": log[:, 3].astype(np.int64),
            "start": log[:, 4].copy(),
            "end": log[:, 5].copy(),
            "value": log[:, 6].copy(),
        }
        parent = cols["parent"]
        duration = cols["end"] - cols["start"]
        self_time = duration.copy()
        child = parent >= 0
        np.subtract.at(self_time, parent[child], duration[child])
        metric = _METRIC_ID[cols["row"]]
        covered = np.zeros(len(parent), dtype=bool)
        ancestor = parent.copy()
        while True:
            live = np.nonzero(ancestor >= 0)[0]
            if live.size == 0:
                break
            covered[live] |= metric[ancestor[live]] == metric[live]
            ancestor[live] = parent[ancestor[live]]
        cols.update(duration=duration, self=self_time, covered=covered)
        return cols

    @staticmethod
    def check_called(cols: dict[str, np.ndarray], workload: str, reps: list[int]) -> None:
        """Every row the table says runs on ``workload`` ran in every
        traced repetition."""
        for rep in reps:
            seen = set(cols["row"][cols["rep"] == rep].tolist())
            for index, row in enumerate(TABLE):
                if workload in row.runs_on and index not in seen:
                    raise TraceError(
                        f"{row.module}:{row.qualname} was never called in "
                        f"repetition {rep} of {workload}"
                    )

    @staticmethod
    def rep_metrics(
        cols: dict[str, np.ndarray],
        rep: int,
        windows: list[tuple[str, float, float]],
        phase_bytes: dict[str, int],
        chunks: int,
    ) -> dict[str, float]:
        """Per-layer numbers of one traced repetition.

        ``windows`` are the repetition's ``(phase, wall0, wall1)`` clock
        windows, ``phase_bytes`` the user bytes each phase moved and
        ``chunks`` the chunks it backed up; a span belongs to the phase
        whose window holds its start.
        """
        mine = np.nonzero(cols["rep"] == rep)[0]
        cols = {name: column[mine] for name, column in cols.items()}
        windows = sorted(windows, key=lambda w: w[1])
        starts = np.array([w[1] for w in windows])
        ends = np.array([w[2] for w in windows])
        codes = np.array([PHASES.index(w[0]) for w in windows])
        slot = np.clip(np.searchsorted(starts, cols["start"], side="right") - 1, 0, None)
        inside = (cols["start"] >= starts[slot]) & (cols["start"] < ends[slot])
        phase = np.where(inside, codes[slot], -1)

        out: dict[str, float] = {}
        rtt: dict[str, list[np.ndarray]] = {}
        for index, row in enumerate(TABLE):
            wanted = [PHASES.index(p) for p in row.phases]
            pick = (cols["row"] == index) & np.isin(phase, wanted)
            if row.kind == COVER:
                continue
            if row.kind == RTT:
                rtt.setdefault(row.metric, []).append(cols["duration"][pick] * 1e3)
                continue
            if row.kind == SELF:
                seconds = float(cols["self"][pick].sum())
            else:
                seconds = float(cols["duration"][pick & ~cols["covered"]].sum())
            gib = sum(phase_bytes[p] for p in row.phases) / GIB
            out[row.metric] = out.get(row.metric, 0.0) + seconds / gib
        for metric, parts in rtt.items():
            ms = np.concatenate(parts)
            for p in RTT_PERCENTILES[metric] if ms.size else ():
                out[f"{metric}_p{p}"] = float(np.percentile(ms, p))

        backup = np.isin(phase, [PHASES.index(p) for p in BACKUP])
        first = cols["value"][backup & (cols["row"] == _BATCHES)]
        first = first[~np.isnan(first)]
        if first.size:
            out["core.shredder.first_batch_ms_p50"] = float(np.percentile(first, 50))
        placements = int((backup & (cols["row"] == _PLACEMENT)).sum())
        if placements:
            out["store.schemes.placement_calls_per_chunk"] = placements / chunks
        frames = cols["value"][backup & (cols["row"] == _FRAME)]
        if frames.size:
            out["service.protocol.wire_bytes_per_user_byte"] = float(frames.sum()) / sum(
                phase_bytes[p] for p in BACKUP
            )
        # Attribution closes when the timed windows lie (almost)
        # entirely inside traced root spans; below them the self times
        # add back up to each root span by construction.
        roots = inside & (cols["parent"] < 0)
        out["trace.attributed_share"] = _union_seconds(
            cols["start"][roots], cols["end"][roots], starts, ends
        ) / float((ends - starts).sum())
        return out

    @staticmethod
    def dump(cols: dict[str, np.ndarray], path: str, meta: dict) -> None:
        """Write every span, as columns indexed by span id, to ``path``."""
        doc = {
            "meta": meta,
            "rows": [f"{r.module}:{r.qualname}" for r in TABLE],
            "metrics": [r.metric for r in TABLE],
            "spans": {
                name: cols[name].tolist() for name in ("row", "rep", "parent", "start", "end")
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _TracedIterator:
    """Times each ``next()`` on an iterator a traced call returned.

    The first span's value column carries the milliseconds from the
    call to the first item (time to first batch).
    """

    def __init__(self, tracer: Tracer, index: int, inner) -> None:
        self._tracer = tracer
        self._index = index
        self._inner = iter(inner)
        self._called = time.perf_counter()
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = next(tracer._ids)
        parent = tracer._current.get()
        token = tracer._current.set(span)
        value = float("nan")
        t0 = time.perf_counter()
        try:
            item = next(self._inner)
            if self._first:
                self._first = False
                value = (time.perf_counter() - self._called) * 1e3
            return item
        finally:
            t1 = time.perf_counter()
            tracer._current.reset(token)
            tracer._log.extend((span, parent, self._index, tracer.rep, t0, t1, value))

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _union_seconds(span_starts, span_ends, win_starts, win_ends) -> float:
    """Seconds of the (disjoint) windows covered by the union of the spans."""
    if span_starts.size == 0:
        return 0.0
    order = np.argsort(span_starts)
    lo, hi = span_starts[order], np.maximum.accumulate(span_ends[order])
    # Merge overlapping spans into disjoint runs [lo, hi).
    first = np.concatenate(([True], lo[1:] > hi[:-1]))
    run_lo = lo[first]
    run_hi = hi[np.concatenate((first[1:], [True]))]
    before = np.concatenate(([0.0], np.cumsum(run_hi - run_lo)))

    def covered_up_to(x):
        i = np.searchsorted(run_lo, x, side="right") - 1
        inside = np.clip(x - run_lo[np.clip(i, 0, None)], 0.0, None)
        inside = np.minimum(inside, (run_hi - run_lo)[np.clip(i, 0, None)])
        return np.where(i >= 0, before[np.clip(i, 0, None)] + inside, 0.0)

    return float((covered_up_to(win_ends) - covered_up_to(win_starts)).sum())
