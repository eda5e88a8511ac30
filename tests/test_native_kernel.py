"""The native scan kernel and its loader.

* The kernel is bit-identical to ``SerialEngine`` (and, through the scan
  driver, to ``SerialEngine`` + ``select_cuts``) and to the NumPy
  fallback: inputs of 0, ``w - 1``, ``w`` and ``w + 1`` bytes, masks
  wider than 16 bits, degree-8 and degree-56 fingerprinters, other
  polynomials and windows, every buffer type scanned in place, a mask
  that makes every position a candidate (the capacity retry), and a
  hypothesis split fuzz.
* The lanes: a cut at a lane start and ``w - 1`` bytes before one,
  inputs of ``LANES * LANE_FLOOR - 1``, ``LANES * LANE_FLOOR`` and
  ``LANES * LANE_FLOOR + 1`` positions, a lane that overruns its region
  of the buffer while the total fits, a hypothesis property against the
  NumPy oracle up to ``2 * LANES * LANE_FLOOR`` bytes, and a split fuzz
  whose buffers cross the floor.
* Its instrumentation: one dispatch per scan, geometry
  ``{"kernel": "native"}``, and ``repro chunk --profile`` names the
  kernel that ran.
* The loader: no compiler, a compile error, an unusable or
  foreign-writable cache directory, a stale or corrupt cached library,
  and two processes building at once.  Every case gives the reference's
  cuts, from the native kernel or from the NumPy fallback.
"""

from __future__ import annotations

import mmap
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    Chunker,
    ChunkerConfig,
    SerialEngine,
    VectorEngine,
    gf2,
    native,
    reset_scan_counters,
    scan_counters,
)
from repro.core.rabin import RabinFingerprinter
from tests.conftest import chunk_shape, reference_chunks, scan_kernel_as, seeded_bytes

#: Fingerprinters the contract covers: the default, another polynomial
#: and window, and the two extreme degrees (56: the shifted state fills
#: all 64 bits; 8: the fold byte is the whole state).
FPS = {
    "default": RabinFingerprinter(),
    "poly19-w8": RabinFingerprinter(gf2.find_irreducible(19, seed=3), window_size=8),
    "poly31-w64": RabinFingerprinter(gf2.find_irreducible(31, seed=11), window_size=64),
    "degree56-w16": RabinFingerprinter(gf2.find_irreducible(56, seed=5), window_size=16),
    "degree8-w8": RabinFingerprinter(gf2.find_irreducible(8, seed=5), window_size=8),
}
#: (mask, marker): a 5-bit mask, one wider than 16 bits, one with a bit
#: far above 16 (48, inside every degree but 8 and 19), and the empty
#: mask that makes every position a candidate.
MASKS = {
    "5-bit": (0x1F, 0x0B),
    "17-bit": (0x10007, 0x10003),
    "bit-48": ((1 << 48) | 0x3, 0x1),
    "every-position": (0, 0),
}


@pytest.fixture(scope="module")
def native_fn():
    fn = native.kernel()
    if fn is None:
        pytest.skip("the native scan kernel did not load")
    return fn


def native_cuts(fp: RabinFingerprinter, data, mask: int, marker: int) -> list[int]:
    """Cuts of one native scan, checked to have run natively."""
    reset_scan_counters()
    cuts = VectorEngine(fp).candidate_cut_array(data, mask, marker).tolist()
    counters = scan_counters()
    reset_scan_counters()
    if counters.scans:
        assert counters.geometry == {"kernel": "native"}
    return cuts


#: The laned loop runs from this many positions up.
LANED = native.LANES * native.LANE_FLOOR
#: The widest window among ``FPS``: an input of ``LANED + MAX_W - 1``
#: bytes or more is laned under every one of them.
MAX_W = max(fp.window_size for fp in FPS.values())


def lane_starts(n: int, w: int) -> list[int]:
    """The first cut offset each lane of the laned loop rolls, for an
    ``n``-byte input of at least ``LANED`` positions."""
    seg = (n - w + 1) // native.LANES
    return [w + k * seg for k in range(native.LANES)]


def reachable(fp: RabinFingerprinter, marker: int) -> bool:
    """Whether a fingerprint of ``fp`` can carry ``marker`` (a degree-8
    fingerprint never sets bit 16)."""
    return marker >> fp.degree == 0


def plant_cut(data: bytearray, fp: RabinFingerprinter, cut: int, mask: int, marker: int) -> None:
    """Rewrite the window ending at ``cut`` until it fingerprints to
    ``marker`` under ``mask``, so ``cut`` is a candidate."""
    w = fp.window_size
    rng = np.random.default_rng(cut)
    while fp.fingerprint(bytes(data[cut - w : cut])) & mask != marker:
        data[cut - w : cut] = rng.integers(0, 256, w, dtype=np.uint8).tobytes()


def kernel_cuts(fn, fp: RabinFingerprinter, data: bytes, mask: int, marker: int,
                cap: int) -> tuple[int, list[int]]:
    """One direct call of the kernel ``fn`` with a ``cap``-entry buffer:
    the count it returns and the cuts it wrote, checked to write nothing
    past the buffer."""
    d = np.frombuffer(data, dtype=np.uint8)
    engine = VectorEngine(fp)
    cuts = np.full(cap + 1, -1, dtype=np.int64)
    count = fn(d.ctypes.data, d.size, fp.window_size, fp.degree - 8,
               engine._fold_table.ctypes.data, engine._out_table.ctypes.data,
               mask, marker, cuts.ctypes.data, cap)
    assert cuts[cap] == -1
    return count, cuts[: min(count, cap)].tolist()


def assert_matches_references(fn, fp: RabinFingerprinter, data: bytes, mask: int,
                              marker: int) -> list[int]:
    """The kernel's cuts equal the pure-Python reference's (the NumPy
    oracle's from 100 KB up, where the reference is slow), both from a
    buffer no lane region can overrun (one call) and through the
    engine's sizing (which may retry once); returns them."""
    expect = VectorEngine(fp).numpy_cut_array(data, mask, marker).tolist()
    if len(data) < 100_000:
        assert expect == SerialEngine(fp).candidate_cuts(data, mask, marker)
    roomy = native.LANES * max(len(data) - fp.window_size + 1, 1)
    assert kernel_cuts(fn, fp, data, mask, marker, roomy) == (len(expect), expect)
    assert native_cuts(fp, data, mask, marker) == expect
    return expect


class TestContract:
    @pytest.mark.parametrize("mask_name", list(MASKS))
    @pytest.mark.parametrize("fp_name", list(FPS))
    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_sizes_around_the_window(self, native_fn, fp_name, mask_name, delta):
        """0, ``w - 1``, ``w`` and ``w + 1`` bytes: no scan below a
        window, and exactly the reference's cuts from one window up."""
        fp = FPS[fp_name]
        mask, marker = MASKS[mask_name]
        size = 0 if delta is None else fp.window_size + delta
        data = seeded_bytes(size, seed=size)
        expect = SerialEngine(fp).candidate_cuts(data, mask, marker)
        assert native_cuts(fp, data, mask, marker) == expect
        assert VectorEngine(fp).numpy_cut_array(data, mask, marker).tolist() == expect
        if mask == 0 and delta is not None:
            assert expect == list(range(fp.window_size, size + 1))

    @pytest.mark.parametrize("mask_name", list(MASKS))
    @pytest.mark.parametrize("fp_name", list(FPS))
    def test_matches_serial_and_numpy(self, native_fn, fp_name, mask_name):
        """20 KB (a gather-path size for NumPy) and 200 KB (its roll
        kernel): the native kernel, SerialEngine and the NumPy fallback
        agree."""
        fp = FPS[fp_name]
        mask, marker = MASKS[mask_name]
        for size in (20_000, 200_000):
            data = seeded_bytes(size, seed=size + fp.window_size)
            cuts = native_cuts(fp, data, mask, marker)
            assert cuts == VectorEngine(fp).numpy_cut_array(data, mask, marker).tolist()
            if size < 100_000:  # the pure-Python reference is slow
                assert cuts == SerialEngine(fp).candidate_cuts(data, mask, marker)

    def test_zero_runs(self, native_fn):
        """An all-zero window fingerprints to 0, so a zero marker cuts
        at every position of a zero run."""
        fp = FPS["default"]
        data = bytes(5000) + seeded_bytes(5000, seed=1) + bytes(5000)
        assert native_cuts(fp, data, 0xFF, 0) == SerialEngine(fp).candidate_cuts(data, 0xFF, 0)

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview", "mmap", "ndarray"])
    def test_buffer_types_scanned_in_place(self, native_fn, monkeypatch, tmp_path, kind):
        """The kernel is handed the caller's own buffer address."""
        fp, (mask, marker) = FPS["poly19-w8"], MASKS["5-bit"]
        raw = seeded_bytes(50_000, seed=9)
        pointers = []

        def spy(data_ptr, *args):
            pointers.append(data_ptr)
            return native_fn(data_ptr, *args)

        monkeypatch.setattr(native, "_KERNEL", spy)
        expect = SerialEngine(fp).candidate_cuts(raw, mask, marker)
        if kind == "mmap":
            path = tmp_path / "blob"
            path.write_bytes(raw)
            with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                view = np.frombuffer(mm, dtype=np.uint8)
                address = view.ctypes.data
                assert native_cuts(fp, mm, mask, marker) == expect
                del view
        else:
            buf = {
                "bytes": lambda: raw,
                "bytearray": lambda: bytearray(raw),
                "memoryview": lambda: memoryview(raw),
                "ndarray": lambda: np.frombuffer(raw, dtype=np.uint8).copy(),
            }[kind]()
            address = np.frombuffer(buf, dtype=np.uint8).ctypes.data
            assert native_cuts(fp, buf, mask, marker) == expect
        assert pointers and set(pointers) == {address}  # a 5-bit mask retries once

    def test_every_position_a_candidate_retries_once(self, native_fn, monkeypatch):
        """A mask of 0 finds more cuts than the first buffer holds: the
        engine reallocates to the returned capacity (``LANES`` times the
        largest lane's count, at least every position) and calls once
        more, which returns the exact count."""
        calls = []

        def spy(*args):
            count = native_fn(*args)
            calls.append((args[-1], count))
            return count

        monkeypatch.setattr(native, "_KERNEL", spy)
        fp = FPS["default"]
        data = seeded_bytes(100_000, seed=4)
        cuts = native_cuts(fp, data, 0, 0)
        positions = len(data) - fp.window_size + 1
        assert cuts == list(range(fp.window_size, len(data) + 1))
        assert len(calls) == 2
        (first_cap, first_count), (second_cap, second_count) = calls
        assert first_cap < first_count == second_cap
        assert second_cap >= positions == second_count

    @given(
        data=st.binary(min_size=0, max_size=4000),
        sizes=st.lists(st.integers(0, 600), min_size=1, max_size=5).filter(any),
        config=st.sampled_from([
            ChunkerConfig(window_size=8, mask_bits=5, marker=0x0B),
            ChunkerConfig(window_size=8, mask_bits=5, marker=0x0B, min_size=16, max_size=256),
            ChunkerConfig(window_size=16, mask_bits=17, marker=0x1, min_size=0, max_size=128),
            ChunkerConfig(window_size=8, mask_bits=4, marker=0x3, min_size=8, max_size=64,
                          polynomial=gf2.find_irreducible(56, seed=5)),
        ]),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_fuzz_matches_serial_reference(self, native_fn, data, sizes, config):
        """Any split of the stream into buffers chunks exactly like
        ``SerialEngine`` + ``select_cuts`` over the whole stream."""
        pieces, pos, i = [], 0, 0
        while pos < len(data):
            pieces.append(data[pos : pos + sizes[i % len(sizes)]])
            pos += sizes[i % len(sizes)]
            i += 1
        reset_scan_counters()
        chunks = list(Chunker(config).chunk_stream(pieces))
        if scan_counters().scans:
            assert scan_counters().geometry == {"kernel": "native"}
        reset_scan_counters()
        assert chunk_shape(chunks) == reference_chunks(config, data)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(LANED, 3 * LANED),
        sizes=st.lists(st.integers(LANED - 100, LANED + 200), min_size=1, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_split_fuzz_across_the_lane_floor(self, native_fn, seed, size, sizes):
        """The split fuzz with buffers just below and above the size the
        laned loop starts at."""
        config = ChunkerConfig(window_size=16, mask_bits=8, marker=0x5A, min_size=64, max_size=1024)
        data = seeded_bytes(size, seed=seed)
        pieces, pos, i = [], 0, 0
        while pos < len(data):
            pieces.append(data[pos : pos + sizes[i % len(sizes)]])
            pos += sizes[i % len(sizes)]
            i += 1
        chunks = list(Chunker(config).chunk_stream(pieces))
        assert chunk_shape(chunks) == reference_chunks(config, data)

    @pytest.mark.parametrize("mask_name", list(MASKS))
    @pytest.mark.parametrize("fp_name", list(FPS))
    @pytest.mark.parametrize("before", [0, 1, "w-1"])
    def test_cut_at_a_lane_seam(self, native_fn, fp_name, mask_name, before):
        """A cut planted at every lane start, one byte before it (the
        previous lane's last position) or ``w - 1`` bytes before it."""
        fp = FPS[fp_name]
        mask, marker = MASKS[mask_name]
        w = fp.window_size
        back = w - 1 if before == "w-1" else before
        data = bytearray(seeded_bytes(LANED + 1000 + w - 1, seed=w + back))
        planted = [start - back for start in lane_starts(len(data), w)[1:]]
        if reachable(fp, marker):
            for cut in planted:
                plant_cut(data, fp, cut, mask, marker)
        cuts = assert_matches_references(native_fn, fp, bytes(data), mask, marker)
        if reachable(fp, marker):
            assert set(planted) <= set(cuts)

    @pytest.mark.parametrize("mask_name", list(MASKS))
    @pytest.mark.parametrize("fp_name", list(FPS))
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_sizes_around_the_lane_floor(self, native_fn, fp_name, mask_name, delta):
        """``LANES * LANE_FLOOR - 1`` positions roll serially; that many
        and one more roll in lanes."""
        fp = FPS[fp_name]
        mask, marker = MASKS[mask_name]
        size = LANED + delta + fp.window_size - 1
        assert_matches_references(native_fn, fp, seeded_bytes(size, seed=size), mask, marker)

    @pytest.mark.parametrize("mask_name", list(MASKS))
    @pytest.mark.parametrize("fp_name", list(FPS))
    def test_lane_overruns_its_region_while_the_total_fits(self, native_fn, fp_name, mask_name):
        """Random bytes in the first lane, zeros in the rest, and a buffer
        of exactly the reference's count: the first lane finds more cuts
        than its quarter of the buffer holds, so the call returns
        ``LANES`` times that lane's count, more than the buffer holds,
        and a second call at that capacity returns the exact count and
        the reference's cuts."""
        fp = FPS[fp_name]
        mask, marker = MASKS[mask_name]
        w = fp.window_size
        n = 2 * LANED + w - 1
        starts = lane_starts(n, w)
        hot = starts[1] - w  # lane 0 rolls the windows inside d[:hot + w - 1]
        data = seeded_bytes(hot, seed=w) + bytes(n - hot)
        expect = SerialEngine(fp).candidate_cuts(data, mask, marker)
        per_lane = np.bincount(np.searchsorted(starts, expect, side="right") - 1,
                               minlength=native.LANES)
        count, _ = kernel_cuts(native_fn, fp, data, mask, marker, len(expect))
        if mask and expect:  # every-position cuts fill the regions evenly
            assert per_lane[0] > len(expect) // native.LANES
            assert count == native.LANES * per_lane.max() > len(expect)
        else:
            assert count == len(expect)
        assert kernel_cuts(native_fn, fp, data, mask, marker, count) == (len(expect), expect)

    @given(
        fp_name=st.sampled_from(list(FPS)),
        # From the full range alone hypothesis draws mostly small sizes,
        # which roll serially; the second range is laned under every
        # fingerprinter.
        size=st.one_of(st.integers(0, 2 * LANED), st.integers(LANED + MAX_W - 1, 2 * LANED)),
        seed=st.integers(0, 2**32 - 1),
        bits=st.integers(3, 5),
        marker=st.integers(0, 31),
        zeros=st.tuples(st.floats(0, 1), st.integers(0, 3000)),
    )
    # Every run scans at least one laned input, whatever hypothesis draws.
    @example(fp_name="default", size=LANED + MAX_W - 1, seed=1, bits=3, marker=0,
             zeros=(0.0, 0))
    @example(fp_name="poly31-w64", size=2 * LANED, seed=2, bits=5, marker=7,
             zeros=(0.5, 3000))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_numpy_oracle(self, native_fn, fp_name, size, seed, bits,
                                           marker, zeros):
        """Any input up to twice the laned threshold, with a 3 to 5-bit
        mask (so cuts land on seams) and an optional zero run (a dense
        burst of cuts when the marker is 0), scans exactly like the
        NumPy oracle."""
        fp = FPS[fp_name]
        mask = (1 << bits) - 1
        marker &= mask
        data = bytearray(seeded_bytes(size, seed=seed))
        at, length = int(zeros[0] * size), zeros[1]
        data[at : at + length] = bytes(len(data[at : at + length]))
        data = bytes(data)
        expect = VectorEngine(fp).numpy_cut_array(data, mask, marker).tolist()
        roomy = native.LANES * max(size - fp.window_size + 1, 1)
        assert kernel_cuts(native_fn, fp, data, mask, marker, roomy) == (len(expect), expect)
        assert native_cuts(fp, data, mask, marker) == expect


class TestInstrumentation:
    def test_one_dispatch_per_scan(self, native_fn):
        engine = VectorEngine()
        data = seeded_bytes(3 << 20, seed=5)
        reset_scan_counters()
        engine.candidate_cut_array(data, 0x1FFF, 0x78)
        engine.candidate_cut_array(data[: 1 << 20], 0x1FFF, 0x78)
        engine.candidate_cut_array(data[:10], 0x1FFF, 0x78)  # under a window: no scan
        counters = scan_counters()
        reset_scan_counters()
        assert counters.geometry == {"kernel": "native"}
        assert (counters.scans, counters.dispatches) == (2, 2)
        assert counters.scanned_bytes == (4 << 20)
        assert counters.positions == (4 << 20) - 2 * (engine.window_size - 1)

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_profile_names_the_kernel(self, kernel, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "blob.bin"
        path.write_bytes(seeded_bytes(2 << 20, seed=6))
        with scan_kernel_as(kernel):
            assert main(["chunk", str(path), "--profile"]) == 0
        out = capsys.readouterr().out
        assert f"scan kernel: {kernel}, " in out
        assert ("scan geometry:" in out) == (kernel == "numpy")


# -- the loader ---------------------------------------------------------------

DATA = seeded_bytes(300_000, seed=12)  # the bytes the two-process test regenerates
MASK, MARKER = 0x3FF, 0x2A


def reference_cuts() -> list[int]:
    return VectorEngine().numpy_cut_array(DATA, MASK, MARKER).tolist()


def scan(expect_kernel: str) -> list[int]:
    """One default-engine scan of ``DATA`` through a fresh loader,
    checked to have run on ``expect_kernel``."""
    reset_scan_counters()
    cuts = VectorEngine().candidate_cut_array(DATA, MASK, MARKER).tolist()
    geometry = scan_counters().geometry
    reset_scan_counters()
    assert geometry.get("kernel", "numpy") == expect_kernel
    return cuts


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet, caching under ``tmp_path/cache``
    and taking private directories under ``tmp_path/tmp``; returns the
    shared cache directory it will use."""
    monkeypatch.setattr(native, "_KERNEL", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path / "cache" / "repro"


def library_name() -> str:
    return f"rabin-{native._tag()}.so"


def compile_library(path: Path, tag: str) -> None:
    compiler = next(filter(None, map(shutil.which, native._COMPILERS)))
    subprocess.run(
        [compiler, *native._CFLAGS, f'-DREPRO_TAG="{tag}"', "-x", "c", "-", "-o", str(path)],
        input=native._SOURCE.encode(), check=True, capture_output=True,
    )
    path.chmod(0o700)


class TestLoader:
    def test_builds_once_into_a_private_cache(self, native_fn, fresh_loader):
        assert scan("native") == reference_cuts()
        assert native.kernel() is native.kernel()
        assert [p.name for p in fresh_loader.iterdir()] == [library_name()]
        assert fresh_loader.stat().st_mode & 0o777 == 0o700

    def test_no_compiler(self, fresh_loader, monkeypatch, tmp_path):
        empty = tmp_path / "no-tools"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        assert native.kernel() is None
        assert scan("numpy") == reference_cuts()

    def test_compile_error(self, native_fn, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "_SOURCE", native._SOURCE + "\n#error broken\n")
        assert native.kernel() is None
        assert scan("numpy") == reference_cuts()
        assert list(fresh_loader.iterdir()) == []  # the failed build left nothing

    def test_unusable_cache_dir_builds_privately(self, native_fn, monkeypatch, fresh_loader, tmp_path):
        """A cache path that cannot be a directory (a file is in the
        way): the library is built in a private temporary directory,
        which is gone once the library is mapped."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert scan("native") == reference_cuts()
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_no_usable_directory_falls_back(self, monkeypatch, fresh_loader, tmp_path):
        """Neither the cache nor a temporary directory can be made: the
        scan takes the NumPy fallback."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(blocker))
        assert native.kernel() is None
        assert scan("numpy") == reference_cuts()

    def test_foreign_writable_cache_dir_is_not_used(self, native_fn, fresh_loader, tmp_path):
        """A cache directory another user can write is never read from
        or written to, even when it holds a library of the right name."""
        fresh_loader.mkdir(parents=True)
        fresh_loader.chmod(0o777)
        planted = fresh_loader / library_name()
        compile_library(planted, "planted")
        before = planted.read_bytes()
        assert scan("native") == reference_cuts()
        assert [p.name for p in fresh_loader.iterdir()] == [library_name()]
        assert planted.read_bytes() == before
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_foreign_writable_library_is_rebuilt(self, native_fn, fresh_loader):
        fresh_loader.mkdir(parents=True, mode=0o700)
        planted = fresh_loader / library_name()
        compile_library(planted, native._tag())
        planted.chmod(0o666)
        assert scan("native") == reference_cuts()
        assert planted.stat().st_mode & 0o077 == 0

    @pytest.mark.parametrize("damage", ["stale", "corrupt", "empty"])
    def test_stale_or_corrupt_library_is_rebuilt(self, native_fn, fresh_loader, damage):
        fresh_loader.mkdir(parents=True, mode=0o700)
        path = fresh_loader / library_name()
        if damage == "stale":
            compile_library(path, "an older build")
        else:
            path.write_bytes(b"\x7fELF" + bytes(60) if damage == "corrupt" else b"")
            path.chmod(0o700)
        assert scan("native") == reference_cuts()
        assert native._tag().encode() in path.read_bytes()
        assert [p.name for p in fresh_loader.iterdir()] == [library_name()]

    def test_two_processes_build_at_once(self, native_fn, tmp_path):
        """Two cold processes race to build into one empty cache: each
        loads a whole library and scans natively, one library is left,
        and no build file."""
        cache = tmp_path / "cache"
        env = dict(os.environ, XDG_CACHE_HOME=str(cache))
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import random\n"
            "from repro.core import VectorEngine, scan_counters\n"
            "data = random.Random(12).randbytes(300_000)\n"
            f"cuts = VectorEngine().candidate_cut_array(data, {MASK}, {MARKER})\n"
            "assert scan_counters().geometry == {'kernel': 'native'}\n"
            "print(cuts.tolist())\n"
        )
        children = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        assert [child.returncode for child in children] == [0, 0], outputs
        expect = str(reference_cuts())
        assert [out.strip() for out, _ in outputs] == [expect, expect]
        assert [p.name for p in (cache / "repro").iterdir()] == [library_name()]
