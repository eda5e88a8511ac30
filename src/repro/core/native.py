"""The native scan kernel: one C loop that rolls the Rabin window in lanes.

:class:`~repro.core.engines.VectorEngine` hands every scan of at least a
window to :func:`kernel` first.  The kernel reads the engine's own two
256-entry tables (the fold table and the leaving-byte table of the NumPy
roll kernel) and rolls the serial reference's recurrence,

    f(p+1) = f(p) * x**8  ^  d[p] * x**(8*w)  ^  d[p+w]   (mod P)

compiled.  One state carried from the first byte to the last waits on
its own fold-table load at every step, so the kernel splits the
positions into :data:`LANES` contiguous segments (the last takes the
remainder), seeds each lane from the ``w`` bytes before its segment and
advances every lane one step per iteration: independent chains the core
overlaps, the paper's sub-streams (§4.3) on one core.  An input with
fewer than :data:`LANE_FLOOR` positions per lane rolls as one serial
chain.  Each lane writes its candidate cut offsets to its own region of
a caller-supplied ``int64`` buffer, and the regions are compacted into
stream order at the end.  The kernel returns the exact total count when
every lane's cuts fit its region.  When one did not (the total is too
big, or skewed data crowds one lane), it returns ``LANES`` times the
largest lane count instead, which is always more than the capacity it
was given: a caller reallocates to the count returned and calls again,
and that second, laned call fits every lane and returns the exact
total.  The serial roll returns the exact total too.

The library is built on the first scan, never at import, with the system
C compiler and loaded with :mod:`ctypes`, which releases the GIL for the
call.  It is cached in ``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``,
mode 0700), named by a hash of the source, the compiler flags and the
platform, and published by atomic rename, so processes that build at
once each publish a whole library.  A library whose embedded tag does
not match its name (stale or corrupt) is rebuilt.  Nothing is loaded
from a directory or file another user can write: if the cache directory
is unusable, the library is built into a private ``mkdtemp()`` for the
process.  When no library can be built (no compiler, a compile error),
:func:`kernel` returns ``None`` and the engine keeps its NumPy path.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading

__all__ = ["LANES", "LANE_FLOOR", "kernel"]

#: Lanes the kernel rolls interleaved, and the fewest positions a lane
#: must get for the laned loop to run (shorter inputs roll serially).
#: Both are compiled into the library: constants, not options.
LANES = 4
LANE_FLOOR = 4096

_SOURCE = f"""
#define LANES {LANES}
#define LANE_FLOOR {LANE_FLOOR}
/* Unrolls a loop over the lanes, so each lane's state is a register. */
#define UNROLL_LANES _Pragma("GCC unroll {LANES}")
""" + r"""
#include <stdint.h>
#include <string.h>

const char *repro_rabin_tag(void) { return REPRO_TAG; }

static int64_t serial_cuts(const uint8_t *d, int64_t n, int64_t w, int32_t lead,
                           const uint64_t *fold, const uint64_t *out,
                           uint64_t mask, uint64_t marker, int64_t *cuts, int64_t cap)
{
    uint64_t f = 0;
    int64_t i, count = 0;
    for (i = 0; i < w; i++)
        f = (f << 8) ^ fold[f >> lead] ^ d[i];
    for (i = w;; i++) {
        /* f is the fingerprint of d[i - w .. i - 1]: a cut at i. */
        if ((f & mask) == marker) {
            if (count < cap)
                cuts[count] = i;
            count++;
        }
        if (i == n)
            return count;
        f = (f << 8) ^ fold[f >> lead] ^ out[d[i - w]] ^ d[i];
    }
}

int64_t repro_rabin_cuts(const uint8_t *d, int64_t n, int64_t w, int32_t lead,
                         const uint64_t *fold, const uint64_t *out,
                         uint64_t mask, uint64_t marker,
                         int64_t *cuts, int64_t cap)
{
    /* Lane k rolls the positions w + k*seg + t, t in [0, seg), over
       s = d + k*seg: byte s[t] leaves and s[t + w] enters.  The last
       lane then rolls on through the remainder.  Lane k writes its
       cuts to region k of the buffer (the last region takes the
       rounding), and the regions are compacted in order at the end. */
    uint64_t f[LANES];
    int64_t count[LANES], room[LANES], *region[LANES];
    int64_t m = n - w + 1, seg, t, i, k, total = 0, most = 0;
    int over = 0;
    const uint8_t *s;
    if (m <= 0)
        return 0;
    if (m < (int64_t)LANES * LANE_FLOOR)
        return serial_cuts(d, n, w, lead, fold, out, mask, marker, cuts, cap);
    seg = m / LANES;
    for (k = 0; k < LANES; k++) {
        s = d + k * seg;
        f[k] = 0;
        for (i = 0; i < w; i++)
            f[k] = (f[k] << 8) ^ fold[f[k] >> lead] ^ s[i];
        count[k] = 0;
        region[k] = cuts + k * (cap / LANES);
        room[k] = k < LANES - 1 ? cap / LANES : cap - k * (cap / LANES);
    }
    for (t = 0;; t++) {
        UNROLL_LANES
        for (k = 0; k < LANES; k++)
            if ((f[k] & mask) == marker) {
                if (count[k] < room[k])
                    region[k][count[k]] = w + k * seg + t;
                count[k]++;
            }
        if (t == seg - 1)
            break;
        UNROLL_LANES
        for (k = 0; k < LANES; k++) {
            s = d + k * seg;
            f[k] = (f[k] << 8) ^ fold[f[k] >> lead] ^ out[s[t]] ^ s[t + w];
        }
    }
    k = LANES - 1;
    s = d + k * seg;
    for (t = seg; t < m - k * seg; t++) {
        f[k] = (f[k] << 8) ^ fold[f[k] >> lead] ^ out[s[t - 1]] ^ s[t - 1 + w];
        if ((f[k] & mask) == marker) {
            if (count[k] < room[k])
                region[k][count[k]] = w + k * seg + t;
            count[k]++;
        }
    }
    /* A lane that overran its region (always so when the total does
       not fit) asks for LANES times the largest lane count: more than
       cap, and a retry at that capacity gives every lane its count. */
    for (k = 0; k < LANES; k++) {
        total += count[k];
        over |= count[k] > room[k];
        most = count[k] > most ? count[k] : most;
    }
    if (over)
        return (int64_t)LANES * most;
    for (i = 0, k = 0; k < LANES; k++) {
        memmove(cuts + i, region[k], count[k] * sizeof *cuts);
        i += count[k];
    }
    return total;
}
"""

_CFLAGS = ("-O2", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")
_BUILD_TIMEOUT_S = 120

_UNSET = object()
_KERNEL = _UNSET
_LOCK = threading.Lock()


def kernel():
    """The ``repro_rabin_cuts`` ctypes function, or ``None`` when no
    library could be built or loaded.  Built on the first call, once per
    process; every later call returns the same answer."""
    global _KERNEL
    fn = _KERNEL
    if fn is _UNSET:
        with _LOCK:
            if _KERNEL is _UNSET:
                _KERNEL = _load()
            fn = _KERNEL
    return fn


def _tag() -> str:
    """Hash of everything the library's bytes depend on."""
    import sysconfig

    h = hashlib.sha256(_SOURCE.encode())
    h.update(" ".join(_CFLAGS).encode())
    h.update(f"{sysconfig.get_platform()} {sys.implementation.cache_tag}".encode())
    return h.hexdigest()[:20]


def _load():
    tag = _tag()
    name = f"rabin-{tag}.so"
    shared = _shared_dir()
    if shared is not None:
        path = os.path.join(shared, name)
        return _open(path, tag) or _build(shared, path, tag)
    # No usable shared cache: a private directory for this process alone,
    # removed once the library is mapped (or the build failed).
    try:
        private = tempfile.mkdtemp(prefix="repro-native-")
    except OSError:
        return None
    try:
        return _build(private, os.path.join(private, name), tag)
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _shared_dir() -> str | None:
    """``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro`` (created 0700), or
    ``None`` when it cannot be created or another user could write it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative value
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return None
    return path if stat.S_ISDIR(st.st_mode) and _owned_private(st) else None


def _owned_private(st: os.stat_result) -> bool:
    """Owned by this user and writable by nobody else."""
    return st.st_uid == os.geteuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _open(path: str, tag: str):
    """Load and bind the library at ``path`` if it is a private regular
    file carrying ``tag``; ``None`` if it is missing, foreign, corrupt or
    stale."""
    import ctypes

    try:
        st = os.lstat(path)
    except OSError:
        return None
    if not (stat.S_ISREG(st.st_mode) and _owned_private(st)):
        return None
    try:
        lib = ctypes.CDLL(path)
        lib.repro_rabin_tag.restype = ctypes.c_char_p
        lib.repro_rabin_tag.argtypes = ()
        if lib.repro_rabin_tag() != tag.encode():
            return None
        fn = lib.repro_rabin_cuts
    except (OSError, ValueError, AttributeError):
        return None
    c_void_p, c_int64, c_uint64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    fn.argtypes = (c_void_p, c_int64, c_int64, ctypes.c_int32, c_void_p, c_void_p,
                   c_uint64, c_uint64, c_void_p, c_int64)
    fn.restype = c_int64
    return fn


def _build(directory: str, path: str, tag: str):
    """Compile into a temporary file of ``directory``, load it from
    there, then publish it at ``path`` by atomic rename."""
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        return None
    try:
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    except OSError:
        return None
    os.close(fd)
    try:
        try:
            built = subprocess.run(
                [compiler, *_CFLAGS, f'-DREPRO_TAG="{tag}"', "-x", "c", "-", "-o", tmp],
                input=_SOURCE.encode(), capture_output=True, timeout=_BUILD_TIMEOUT_S,
            )
            os.chmod(tmp, 0o700)  # the linker may recreate it under the umask
        except (OSError, subprocess.SubprocessError):
            return None
        fn = _open(tmp, tag) if built.returncode == 0 else None
        if fn is not None:
            try:
                os.replace(tmp, path)
            except OSError:
                pass  # loaded all the same; the next process builds again
        return fn
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
