"""Self-tuning scan geometry: measure the host, don't assume it.

The striped scan's throughput depends on tile size, lane count, fused
roll-step factor, and worker threads in ways that vary with cache sizes,
core counts, and the NumPy build — the same lesson as the lane/vector-
length tuning in "Test-driving RISC-V Vector hardware for HPC"
(PAPERS.md): geometry must be *measured*, not hard-coded.  This module
micro-benchmarks a small grid of :class:`ScanGeometry` candidates by
coordinate descent, persists the per-host winner to a cache file, and
feeds it to every consumer of the fast path:

* :class:`repro.core.engines.VectorEngine` — default ``lanes`` /
  ``tile_bytes`` / ``roll_steps`` (replacing the fixed 1 MiB tiles);
* :func:`repro.core.engines.parallel_candidate_cuts` — the region floor
  follows the tuned tile;
* :mod:`repro.core.threads` — the measured thread-sweep winner becomes
  the auto-detected worker default (explicit ``REPRO_THREADS`` /
  ``set_threads`` still win).

Control knobs
-------------
``REPRO_AUTOTUNE=0``
    Disable entirely: static fallback geometry, no benchmarking, no
    file I/O.  CI runs tier-1 this way so a broken tuner can never
    poison the default path.
``REPRO_AUTOTUNE_CACHE=<path>``
    Override the cache file location (default:
    ``$XDG_CACHE_HOME/repro/autotune.json`` or
    ``~/.cache/repro/autotune.json``).

First use (or ``python -m repro tune``) runs a *quick* tune — a few
candidates on a small buffer, well under two seconds — and caches the
winner keyed by a host signature; later processes just read the file.
``python -m repro tune`` (full mode) sweeps a wider grid on a larger
buffer for a higher-confidence answer.  Any tuner failure falls back to
the static defaults rather than raising into the scan path.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.engines import (
    DEFAULT_LANES,
    DEFAULT_ROLL_STEPS,
    DEFAULT_TILE_BYTES,
    KERNEL_GENERATION,
    VectorEngine,
)
from repro.core.threads import available_cpus, set_default_threads

__all__ = [
    "ScanGeometry",
    "DEFAULT_GEOMETRY",
    "autotune_enabled",
    "cache_path",
    "host_key",
    "get_geometry",
    "set_geometry",
    "clear_geometry",
    "load_cached",
    "save_cached",
    "tune",
    "describe",
]

MB = 1 << 20

#: Marker configuration used for tuning scans — the paper's defaults
#: (13-bit mask, the fixed marker from repro.core.chunking).  Geometry
#: is mask-agnostic (the scan cost is per window position, hits are
#: rare either way); one fixed probe keeps runs comparable.
_TUNE_MASK = (1 << 13) - 1
_TUNE_MARKER = 0x1A2B & _TUNE_MASK


@dataclass(frozen=True)
class ScanGeometry:
    """One striped-scan configuration: the knobs the tuner searches.

    ``threads is None`` means "defer to the process-wide setting"
    (``REPRO_THREADS`` / CPU count); a tuned integer becomes the
    auto-detected default via
    :func:`repro.core.threads.set_default_threads`.
    """

    lanes: int = DEFAULT_LANES
    tile_bytes: int = DEFAULT_TILE_BYTES
    roll_steps: int = DEFAULT_ROLL_STEPS
    threads: int | None = None
    source: str = "default"
    mib_per_s: float | None = None

    def validate(self) -> "ScanGeometry":
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if self.tile_bytes < 1:
            raise ValueError(f"tile_bytes must be >= 1, got {self.tile_bytes}")
        if self.roll_steps < 1:
            raise ValueError(f"roll_steps must be >= 1, got {self.roll_steps}")
        if self.threads is not None and self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")
        return self


DEFAULT_GEOMETRY = ScanGeometry()

_lock = threading.Lock()
_resolved: ScanGeometry | None = None


def autotune_enabled() -> bool:
    """True unless ``REPRO_AUTOTUNE=0`` disables self-tuning."""
    return os.environ.get("REPRO_AUTOTUNE", "").strip() != "0"


def cache_path() -> Path:
    """Per-host geometry cache file location."""
    override = os.environ.get("REPRO_AUTOTUNE_CACHE", "").strip()
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "autotune.json"


def host_key() -> str:
    """Signature of everything the winning geometry depends on.

    A cache hit on a different machine class (or NumPy build, whose
    gather/dispatch costs set the optimum) would silently apply the
    wrong answer, so all of it keys the cache entry — the roll kernel's
    generation included: a winner measured on an older kernel (4 MiB
    tiles, say) is simply not found, and the host re-tunes.
    """
    return (
        f"{platform.system()}:{platform.machine()}"
        f":cpus={available_cpus()}"
        f":numpy={np.__version__}"
        f":py={sys.version_info[0]}.{sys.version_info[1]}"
        f":kernel={KERNEL_GENERATION}"
    )


# ----------------------------------------------------------------------
# cache file
# ----------------------------------------------------------------------


def load_cached() -> ScanGeometry | None:
    """Geometry cached for this host, or ``None`` (missing/corrupt)."""
    try:
        raw = json.loads(cache_path().read_text())
        entry = raw["hosts"][host_key()]
        return ScanGeometry(
            lanes=int(entry["lanes"]),
            tile_bytes=int(entry["tile_bytes"]),
            roll_steps=int(entry["roll_steps"]),
            threads=None if entry.get("threads") is None else int(entry["threads"]),
            source="cache",
            mib_per_s=entry.get("mib_per_s"),
        ).validate()
    except (OSError, ValueError, KeyError, TypeError):
        return None


def save_cached(geometry: ScanGeometry, mode: str) -> Path:
    """Merge ``geometry`` into the cache file under this host's key.

    Written atomically (tmp + rename) so a concurrent reader never sees
    a torn file; other hosts' entries are preserved.
    """
    path = cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw.get("hosts"), dict):
            raise ValueError("bad cache shape")
    except (OSError, ValueError):
        raw = {"version": 1, "hosts": {}}
    raw["hosts"][host_key()] = {
        "lanes": geometry.lanes,
        "tile_bytes": geometry.tile_bytes,
        "roll_steps": geometry.roll_steps,
        "threads": geometry.threads,
        "mib_per_s": geometry.mib_per_s,
        "mode": mode,
        "tuned_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(raw, indent=2) + "\n")
    tmp.replace(path)
    return path


# ----------------------------------------------------------------------
# geometry resolution
# ----------------------------------------------------------------------


def get_geometry() -> ScanGeometry:
    """The geometry every defaulted ``VectorEngine`` scans with.

    Resolution (memoized per process): disabled -> static defaults;
    cached for this host -> the cached winner; otherwise run one quick
    tune and persist it.  A tuner failure degrades to the static
    defaults — the scan path never sees an exception from here.
    """
    global _resolved
    if _resolved is not None:
        return _resolved
    with _lock:
        if _resolved is not None:
            return _resolved
        if not autotune_enabled():
            geometry = DEFAULT_GEOMETRY
        else:
            geometry = load_cached()
            if geometry is None:
                try:
                    geometry = tune(quick=True, persist=True)
                except Exception:  # never let tuning break a scan
                    geometry = replace(
                        DEFAULT_GEOMETRY, source="default(tune-failed)"
                    )
        _resolved = geometry
    # Every resolution re-applies its thread answer (None clears), so a
    # stale tuned default can never outlive the geometry that set it.
    _apply_threads(geometry)
    return geometry


def set_geometry(geometry: ScanGeometry | None) -> None:
    """Install (or with ``None`` clear) the process-wide geometry.

    Engines built afterwards with defaulted knobs pick it up; existing
    engines keep what they resolved.  Clearing forces the next
    :func:`get_geometry` to re-resolve from env/cache and retracts any
    tuned thread default so a retired tuner cannot keep steering
    ``get_threads``.
    """
    global _resolved
    if geometry is not None:
        geometry.validate()
    with _lock:
        _resolved = geometry
    if geometry is None:
        set_default_threads(None)
    else:
        _apply_threads(geometry)


def clear_geometry() -> None:
    """Alias for ``set_geometry(None)`` (test/bench convenience)."""
    set_geometry(None)


def _apply_threads(geometry: ScanGeometry) -> None:
    # Unconditional: a geometry with deferred threads must also clear
    # any stale tuned default from an earlier resolution.
    set_default_threads(geometry.threads)


# ----------------------------------------------------------------------
# the tuner
# ----------------------------------------------------------------------


def _measure(
    data: np.ndarray,
    lanes: int,
    tile_bytes: int,
    roll_steps: int,
    threads: int,
    repeats: int,
) -> float:
    """Best-of-``repeats`` scan rate (MiB/s) for one candidate."""
    engine = VectorEngine(
        lanes=lanes, tile_bytes=tile_bytes, threads=threads, roll_steps=roll_steps
    )
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.candidate_cut_array(data, _TUNE_MASK, _TUNE_MARKER)
        best = min(best, time.perf_counter() - t0)
    return data.size / MB / best


def tune(
    quick: bool = True,
    persist: bool = True,
    data_bytes: int | None = None,
    log=None,
) -> ScanGeometry:
    """Search the geometry grid by coordinate descent; return the winner.

    Dimensions are tuned in dependency order — ``roll_steps`` (kernel
    shape), then ``lanes`` (vector width), then ``tile_bytes`` (cache
    blocking), each measured serially because that is what every pool
    worker runs — and finally ``threads`` on the chosen geometry, but
    only when the sweep is honest (multi-CPU host, full mode, buffer
    spanning at least two tiles so the scan really fans out); otherwise
    threads stay deferred to the env/CPU default.  ``quick`` bounds the
    whole run to well under two seconds (small buffer, narrow grid);
    full mode sweeps wider on a larger buffer.  ``log`` (optional
    callable) receives one line per candidate for the CLI.
    """
    cpus = available_cpus()
    if quick:
        size = data_bytes or 4 * MB
        steps_grid = [1, 8, 16, 24]
        lanes_grid = [4096, 8192]
        tile_grid = [MB // 2, MB]
        # The quick buffer is too small for the scan to fan out (regions
        # are at least one tile wide), so a thread sweep here would just
        # compare serial runs and crown noise; leave threads deferred.
        thread_grid: list[int] = []
        repeats = 2  # best-of-2: scan rates on small buffers are noisy
    else:
        size = data_bytes or 16 * MB
        steps_grid = [1, 4, 8, 16, 24, 32]
        lanes_grid = [2048, 4096, 8192, 16384]
        tile_grid = [MB // 4, MB // 2, MB, 2 * MB, 4 * MB]
        thread_grid = sorted({1, 2, 4, cpus} & set(range(1, cpus + 1)))
        repeats = 3
    rng = np.random.default_rng(0xC0FFEE)
    data = rng.integers(0, 256, size, dtype=np.uint8)

    best = {
        "lanes": DEFAULT_LANES,
        "tile_bytes": min(DEFAULT_TILE_BYTES, size),
        "roll_steps": DEFAULT_ROLL_STEPS,
        "threads": 1,
    }
    # Warm the tables and NumPy dispatch outside the measured region.
    _measure(data[: MB // 2], repeats=1, **best)

    best_rate = 0.0
    threads_tuned = False
    for dim, grid in (
        ("roll_steps", steps_grid),
        ("lanes", lanes_grid),
        ("tile_bytes", tile_grid),
        ("threads", thread_grid),
    ):
        if dim == "threads":
            # A thread sweep is only honest when the scan can actually
            # fan out: regions are at least one tile wide, so the
            # buffer must span two tiles or every candidate runs the
            # identical serial code and noise crowns the winner —
            # which _apply_threads would then install process-wide.
            if len(grid) < 2 or best["tile_bytes"] * 2 > size:
                continue
            threads_tuned = True
        if not grid:
            continue
        winner, winner_rate = best[dim], 0.0
        for value in grid:
            candidate = dict(best, **{dim: value})
            rate = _measure(data, repeats=repeats, **candidate)
            if log is not None:
                log(f"  {dim}={value}: {rate:.1f} MiB/s")
            if rate > winner_rate:
                winner, winner_rate = value, rate
        best[dim] = winner
        best_rate = winner_rate

    tuned = ScanGeometry(
        lanes=best["lanes"],
        tile_bytes=best["tile_bytes"],
        roll_steps=best["roll_steps"],
        # Untuned threads stay deferred (env / CPU count), never a
        # guessed constant.
        threads=best["threads"] if threads_tuned else None,
        source="tuned-quick" if quick else "tuned-full",
        mib_per_s=round(best_rate, 3),
    ).validate()
    if persist:
        try:
            save_cached(tuned, mode="quick" if quick else "full")
        except OSError:
            pass  # read-only home: the in-process winner still applies
    return tuned


def describe(geometry: ScanGeometry) -> dict:
    """JSON-ready view of a geometry (for benchmarks and the CLI)."""
    return asdict(geometry)
