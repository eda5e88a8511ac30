"""SIGKILL drill: a snapshot the service acknowledged survives a crash.

Each case runs ``python -m repro serve --backend disk`` as a child
process on a loopback port, backs up 2 MiB as tenant ``alice`` and
SIGKILLs the server as soon as FINISH_OK is in.  A server restarted on
the same data dir must list the snapshot and restore it byte-exact, and
alice's usage, read back from her index, must equal that of a run whose
server stopped cleanly.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service import AsyncBackupClient, TenantRegistry

MB = 1 << 20
_PORT_RE = re.compile(r"service on [^ ]+:(\d+) ")

STORES = {
    "single": [],
    "cluster": ["--store-backend", "cluster", "--nodes", "3"],
}


def payload() -> bytes:
    """2 MiB whose second half repeats the first, so pointers ship too."""
    half = random.Random(22).randbytes(MB)
    return half + half


class Server:
    """One ``repro serve`` child process on ``data_dir``."""

    def __init__(self, data_dir: Path, store_args: list[str], log: Path) -> None:
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        self._log = log
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--backend", "disk",
                 "--data-dir", str(data_dir), "--port", "0", *store_args],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = _PORT_RE.search(line)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            pytest.fail(
                f"serve printed {line!r}; stderr: {self._log.read_text()}"
            )
        return int(match.group(1))

    def stop(self, sig: int) -> None:
        self.proc.send_signal(sig)
        assert self.proc.wait(timeout=60) == (
            -signal.SIGKILL if sig == signal.SIGKILL else 0
        ), self._log.read_text()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


async def backup(port: int, data: bytes) -> None:
    client = await AsyncBackupClient.connect("127.0.0.1", port, tenant="alice")
    try:
        await client.backup(data, "snap-1")
    finally:
        await client.close()


async def list_and_restore(port: int) -> tuple[list[str], bytes]:
    client = await AsyncBackupClient.connect("127.0.0.1", port, tenant="alice")
    try:
        return await client.list_snapshots(), await client.restore("snap-1")
    finally:
        await client.close()


def usage(data_dir: Path) -> dict:
    registry = TenantRegistry(backend="disk", data_dir=data_dir)
    try:
        return registry.get("alice").usage.as_dict()
    finally:
        registry.close()


def backed_up(data_dir: Path, store_args: list[str], data: bytes, sig: int) -> None:
    """Back ``data`` up through a fresh server, then stop it with ``sig``."""
    server = Server(data_dir, store_args, data_dir.parent / "serve.log")
    try:
        asyncio.run(backup(server.port, data))
        server.stop(sig)
    finally:
        server.kill()


@pytest.mark.parametrize("store", sorted(STORES))
def test_acknowledged_snapshot_survives_sigkill(tmp_path, store):
    store_args = STORES[store]
    data = payload()
    clean_dir, killed_dir = tmp_path / "clean", tmp_path / "killed"

    backed_up(clean_dir, store_args, data, signal.SIGTERM)
    backed_up(killed_dir, store_args, data, signal.SIGKILL)

    server = Server(killed_dir, store_args, tmp_path / "serve.log")
    try:
        listing, restored = asyncio.run(list_and_restore(server.port))
        server.stop(signal.SIGTERM)
    finally:
        server.kill()
    assert listing == ["snap-1"]
    assert restored == data
    expected = usage(clean_dir)
    assert 0 < expected["stored_bytes"] < len(data)
    assert usage(killed_dir) == expected
