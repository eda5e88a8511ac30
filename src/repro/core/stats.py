"""Chunk-size, dedup, and scan-instrumentation statistics helpers.

Besides the chunk-size summaries, this module hosts two lightweight
process-wide instrumentation sinks for the fast path:

* **Scan counters** — every scan records how many kernel dispatches it
  issued (one dispatch = one block of the roll kernel: a stacked
  data-term lookup for up to ``roll_steps`` byte-plane rows and the
  chain that retires them, the ``window`` seed rows of a tile counted
  in the same blocks; the paper's per-launch amortization, §4.1,
  measured instead of modeled), how many bytes and tiles it covered,
  and the tile geometry used.  The e2e benchmark surfaces
  ``bytes_per_dispatch`` so dispatch reduction shows up directly in
  ``BENCH_e2e.json``.
* **Stage timers** — the chunk pipeline (scan / hash) and the dedup
  index (lookup) accumulate wall-clock per stage, powering
  ``python -m repro chunk --profile``.

Both sinks are cumulative until reset, guarded by one lock, and cheap:
they are touched once per tile scan / pipeline batch, never per byte.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.chunking import Chunk

__all__ = [
    "SizeStats",
    "size_stats",
    "dedup_ratio",
    "unique_bytes",
    "ScanCounters",
    "record_scan",
    "scan_counters",
    "reset_scan_counters",
    "record_stage",
    "stage_times",
    "reset_stage_times",
    "register_backend_stats",
    "register_node_stats",
    "snapshot",
]


@dataclass(frozen=True)
class SizeStats:
    """Summary statistics of a chunk-size distribution."""

    count: int
    total: int
    mean: float
    stdev: float
    minimum: int
    maximum: int

    @property
    def coefficient_of_variation(self) -> float:
        return self.stdev / self.mean if self.mean else 0.0


def size_stats(sizes: Sequence[int]) -> SizeStats:
    """Summary of a list of chunk sizes."""
    if not sizes:
        return SizeStats(0, 0, 0.0, 0.0, 0, 0)
    n = len(sizes)
    total = sum(sizes)
    mean = total / n
    var = sum((s - mean) ** 2 for s in sizes) / n
    return SizeStats(n, total, mean, math.sqrt(var), min(sizes), max(sizes))


def unique_bytes(chunks: Iterable[Chunk]) -> int:
    """Bytes after dedup: each distinct digest counted once."""
    seen: dict[bytes, int] = {}
    for chunk in chunks:
        seen.setdefault(chunk.digest, chunk.length)
    return sum(seen.values())


def dedup_ratio(chunks: Sequence[Chunk]) -> float:
    """Fraction of bytes eliminated by dedup over a chunk sequence."""
    total = sum(c.length for c in chunks)
    if total == 0:
        return 0.0
    return 1.0 - unique_bytes(chunks) / total


# ----------------------------------------------------------------------
# scan instrumentation
# ----------------------------------------------------------------------


@dataclass
class ScanCounters:
    """Cumulative striped-scan instrumentation since the last reset.

    ``dispatches`` counts roll-kernel blocks (the Python-level loop of
    the striped scan: each block advances every lane of a tile by up to
    ``roll_steps`` rows, seed rows included; a gather evaluation counts
    as one).  ``geometry`` records the last scan's configured
    ``(lanes, tile_bytes, roll_steps)`` so benchmark rows can attribute
    a dispatch rate to the geometry that produced it.
    """

    scans: int = 0
    tiles: int = 0
    dispatches: int = 0
    positions: int = 0
    scanned_bytes: int = 0
    geometry: dict = field(default_factory=dict)

    @property
    def bytes_per_dispatch(self) -> float:
        """Mean payload bytes advanced per kernel dispatch."""
        if self.dispatches == 0:
            return 0.0
        return self.scanned_bytes / self.dispatches

    @property
    def dispatches_per_mib(self) -> float:
        """Kernel dispatches issued per MiB scanned (the ISSUE metric)."""
        if self.scanned_bytes == 0:
            return 0.0
        return self.dispatches / (self.scanned_bytes / (1 << 20))


_SCAN_LOCK = threading.Lock()
_SCAN = ScanCounters()
_STAGES: dict[str, float] = {}


def record_scan(
    *,
    dispatches: int,
    tiles: int,
    positions: int,
    scanned_bytes: int,
    geometry: dict | None = None,
) -> None:
    """Accumulate one tile-scan's instrumentation (thread-safe)."""
    with _SCAN_LOCK:
        _SCAN.scans += 1
        _SCAN.tiles += tiles
        _SCAN.dispatches += dispatches
        _SCAN.positions += positions
        _SCAN.scanned_bytes += scanned_bytes
        if geometry:
            _SCAN.geometry = dict(geometry)


def scan_counters() -> ScanCounters:
    """Snapshot of the cumulative scan counters."""
    with _SCAN_LOCK:
        return ScanCounters(
            scans=_SCAN.scans,
            tiles=_SCAN.tiles,
            dispatches=_SCAN.dispatches,
            positions=_SCAN.positions,
            scanned_bytes=_SCAN.scanned_bytes,
            geometry=dict(_SCAN.geometry),
        )


def reset_scan_counters() -> None:
    """Zero the cumulative scan counters (e.g. before a timed run)."""
    with _SCAN_LOCK:
        _SCAN.scans = 0
        _SCAN.tiles = 0
        _SCAN.dispatches = 0
        _SCAN.positions = 0
        _SCAN.scanned_bytes = 0
        _SCAN.geometry = {}


# ----------------------------------------------------------------------
# pipeline stage timers
# ----------------------------------------------------------------------


def record_stage(name: str, seconds: float) -> None:
    """Accumulate wall-clock for one pipeline stage (thread-safe)."""
    with _SCAN_LOCK:
        _STAGES[name] = _STAGES.get(name, 0.0) + seconds


def stage_times() -> dict[str, float]:
    """Snapshot of accumulated per-stage seconds since the last reset."""
    with _SCAN_LOCK:
        return dict(_STAGES)


def reset_stage_times() -> None:
    """Zero the per-stage timers."""
    with _SCAN_LOCK:
        _STAGES.clear()


# ----------------------------------------------------------------------
# process-wide counter registry + merged snapshot
# ----------------------------------------------------------------------

# Live stats objects register themselves here at construction (weakly,
# so a closed backend or a decommissioned node drops out with its
# owner).  ``snapshot()`` aggregates across whatever is still alive —
# the metrics endpoint and ``repro chunk --profile`` both consume the
# same merged view instead of each walking the owners themselves.
# Keyed by id() because the stats dataclasses are mutable (unhashable);
# weak values mean a dead entry vanishes before its id can be reused.
_BACKEND_STATS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_NODE_STATS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def register_backend_stats(stats_obj) -> None:
    """Track a :class:`~repro.store.backend.BackendStats` for snapshots."""
    with _SCAN_LOCK:
        _BACKEND_STATS[id(stats_obj)] = stats_obj


def register_node_stats(stats_obj) -> None:
    """Track a :class:`~repro.store.node.NodeStats` for snapshots."""
    with _SCAN_LOCK:
        _NODE_STATS[id(stats_obj)] = stats_obj


def _aggregate(instances) -> dict:
    """Field-wise merge of live stats dataclasses.

    Integer counters sum across instances; float gauges (fill ratios)
    report their maximum — the saturation signal survives aggregation,
    a mean across mostly-empty instances would hide it.
    """
    merged: dict = {"instances": len(instances)}
    for obj in instances:
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float):
                merged[f.name] = max(merged.get(f.name, 0.0), value)
            else:
                merged[f.name] = merged.get(f.name, 0) + value
    return merged


def snapshot() -> dict:
    """One merged dict of scan / stage / backend / node counters.

    The single aggregation point for process-wide instrumentation:
    the service metrics endpoint serves it and ``repro chunk
    --profile`` prints from it.  Shape::

        {"scan":     {...ScanCounters + derived rates...},
         "stages":   {"scan": s, "hash": s, "lookup": s, "store": s},
         "backends": {"instances": n, "puts": ..., "gets": ...},
         "nodes":    {"instances": n, "probes": ..., "hits": ...}}
    """
    scan = scan_counters()
    with _SCAN_LOCK:
        backends = list(_BACKEND_STATS.values())
        nodes = list(_NODE_STATS.values())
    scan_dict = dataclasses.asdict(scan)
    scan_dict["bytes_per_dispatch"] = scan.bytes_per_dispatch
    scan_dict["dispatches_per_mib"] = scan.dispatches_per_mib
    return {
        "scan": scan_dict,
        "stages": stage_times(),
        "backends": _aggregate(backends),
        "nodes": _aggregate(nodes),
    }
