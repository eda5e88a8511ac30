"""Tests for the one backup site both front ends open: shared site-field
validation, the modeled ``BackupReport`` pinned per site kind, and the
CLI commands that open a site (``serve``, ``cluster``, ``scrub``)."""

from __future__ import annotations

import asyncio
import dataclasses
import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from repro.backup import BackupConfig, BackupServer
from repro.cli import main
from repro.service import ServiceConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "workloads.py"


@pytest.mark.parametrize("config_cls", [BackupConfig, ServiceConfig])
@pytest.mark.parametrize(
    "fields",
    [
        {"cluster_nodes": 0},
        {"lookup_batch_size": 0},
        {"store_backend": "raid"},
        {"read_attempts": 0},
        {"put_attempts": 0},
        {"ec_k": 0},
        {"backend": "memory", "data_dir": "site-dir"},
    ],
    ids=lambda fields: ",".join(fields),
)
def test_both_front_ends_refuse_the_same_bad_site(config_cls, fields):
    with pytest.raises(ValueError):
        config_cls(**fields)


@pytest.fixture
def never_serve(monkeypatch):
    """Fail instead of serving forever if ``repro serve`` accepts its flags."""

    def refuse(coro):
        coro.close()
        raise AssertionError("repro serve accepted its flags and started serving")

    monkeypatch.setattr(asyncio, "run", refuse)


class TestScrubNeedsTheClusterBeat:
    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"store_backend": "cluster"},
            {"heartbeat_s": 0.5},
        ],
        ids=["single-no-beat", "cluster-no-beat", "single-with-beat"],
    )
    def test_scrub_batch_without_a_cluster_beat_is_refused(self, fields):
        with pytest.raises(ValueError, match="scrub_batch"):
            ServiceConfig(scrub_batch=8, **fields)

    def test_scrub_batch_on_a_beating_cluster_is_accepted(self):
        cfg = ServiceConfig(scrub_batch=8, store_backend="cluster", heartbeat_s=0.5)
        assert cfg.scrub_batch == 8

    def test_serve_refuses_scrub_without_heartbeat(self, never_serve):
        with pytest.raises(SystemExit, match="serve config rejected: scrub_batch"):
            main(["serve", "--store-backend", "cluster", "--scrub", "8", "--port", "0"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nodes", "0"], "cluster_nodes must be >= 1"),
        (["--replication", "0"], "replicas must be >= 1"),
    ],
)
def test_serve_rejects_a_bad_site_flag_without_a_traceback(flags, message, never_serve):
    argv = ["serve", "--store-backend", "cluster", "--port", "0", *flags]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert str(exc_info.value) == f"serve config rejected: {message}"


def test_scrub_opens_a_root_data_dir_and_its_bare_cluster_dir(tmp_path, capsys):
    image = tmp_path / "image.bin"
    image.write_bytes(random.Random(36).randbytes(1 << 20))
    data_dir = tmp_path / "state"
    site = ["--nodes", "8", "--placement", "ec", "--ec", "4+2"]
    assert main(["cluster", str(image), "--backend", "disk", "--data-dir", str(data_dir), *site]) == 0
    capsys.readouterr()
    for scrubbed in (data_dir, data_dir / "cluster"):
        assert main(["scrub", str(scrubbed), *site]) == 0
        out = capsys.readouterr().out
        assert "every item verified clean" in out
        assert f"under {data_dir / 'cluster'}" in out


# -- the modeled BackupReport (Fig. 18's model), pinned per site kind -----

#: Shared by every site kind: both generations are 4 MiB, so the
#: generation, chunking and hashing stages depend on the size alone.
_STAGES = {"generation": 0.0033554432, "chunking": 0.004080452092110411, "hashing": 0.001048576}
#: (n_chunks, duplicate_chunks, shipped_bytes) of generation 0 and 1.
_COUNTS = [(870, 0, 4194304), (875, 772, 456324)]
_PINNED = {
    "single": ([0.0137954432, 0.0031450592000000005], [None, None]),
    "replicated": (
        [0.0040534432, 0.0024546592],
        [
            {"n_digests": 870, "n_batches": 7, "n_node_batches": 28, "hits": 0,
             "misses": 870, "probes": 1740, "probe_errors": 0},
            {"n_digests": 875, "n_batches": 7, "n_node_batches": 28, "hits": 772,
             "misses": 103, "probes": 978, "probe_errors": 0},
        ],
    ),
    "ec": (
        [0.0047494432, 0.0030002592],
        [
            {"n_digests": 870, "n_batches": 7, "n_node_batches": 56, "hits": 0,
             "misses": 870, "probes": 5220, "probe_errors": 0},
            {"n_digests": 875, "n_batches": 7, "n_node_batches": 56, "hits": 772,
             "misses": 103, "probes": 3706, "probe_errors": 0},
        ],
    ),
}
_CONFIGS = {
    "single": {},
    "replicated": {"store_backend": "cluster"},
    "ec": {"store_backend": "cluster", "cluster_nodes": 8, "placement": "ec"},
}


@pytest.fixture(scope="module")
def generations() -> list[bytes]:
    spec = importlib.util.spec_from_file_location("suite_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.image_generations(np.random.default_rng(36), 4 << 20, 2)


@pytest.mark.parametrize("site", sorted(_PINNED))
def test_modeled_backup_report_is_pinned(site, generations):
    index_network, lookup_stats = _PINNED[site]
    with BackupServer(BackupConfig(**_CONFIGS[site])) as server:
        for gen, data in enumerate(generations):
            report = server.backup_snapshot(data, f"gen{gen}")
            assert report.stage_seconds == {**_STAGES, "index+network": index_network[gen]}
            assert (report.n_chunks, report.duplicate_chunks, report.shipped_bytes) == _COUNTS[gen]
            stats = report.lookup_stats
            assert (dataclasses.asdict(stats) if stats else None) == lookup_stats[gen]
