"""The native scan kernel: one C loop that rolls the Rabin window byte by byte.

:class:`~repro.core.engines.VectorEngine` hands every scan of at least a
window to :func:`kernel` first.  The kernel reads the engine's own two
256-entry tables (the fold table and the leaving-byte table of the NumPy
roll kernel) and has no lanes, tiles or seed rows: one state carried from
the first byte to the last, the serial reference's recurrence,

    f(p+1) = f(p) * x**8  ^  d[p] * x**(8*w)  ^  d[p+w]   (mod P)

compiled.  It writes candidate cut offsets into a caller-supplied
``int64`` buffer and returns the total count, so a caller whose buffer
was too small reallocates to that count and calls again.

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

__all__ = ["kernel"]

_SOURCE = r"""
#include <stdint.h>

const char *repro_rabin_tag(void) { return REPRO_TAG; }

int64_t repro_rabin_cuts(const uint8_t *d, int64_t n, int64_t w, int32_t lead,
                         const uint64_t *fold, const uint64_t *out,
                         uint64_t mask, uint64_t marker,
                         int64_t *cuts, int64_t cap)
{
    uint64_t f = 0;
    int64_t i, count = 0;
    if (n < w)
        return 0;
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
