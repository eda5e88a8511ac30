#!/usr/bin/env python3
"""Overload drill: hostile load against a quota'd, rate-limited service.

Boots one loopback backup service with every overload defence armed —
shared-secret auth, per-tenant quotas and rate limits, a restore
reserve, and a tight pre-auth deadline — then throws the works at it
all at once:

* a garbage-spraying connection flood plus silent slowloris holds
  (``wire.flood`` / ``client.slowloris`` from the fault plan);
* many more greedy backup clients than session slots, some over their
  tenant's byte quota, one with a forged auth token;
* a health prober hitting ``/health`` the whole time.

The drill passes only if the service stays responsive and *typed*
throughout:

1. every ``/health`` probe answers while the overload is live;
2. every refused client saw a typed error (BUSY / QUOTA_EXCEEDED /
   RETRY_LATER / UNAUTHORIZED) — never a hang, never a stack trace;
3. no unhandled exception escaped to the event loop;
4. the shed/throttle/eviction counters actually counted the abuse;
5. every admitted backup restores byte-exact afterwards;
6. no tenant's durable usage exceeds its byte quota — asserted from
   the accounting a *restarted* service reads back from disk.

Run:  python examples/overload_drill.py [--clients 16] [--seconds 1.0]
CI:   python examples/overload_drill.py  (the "Overload smoke" job)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.faults import FaultPlan, drive_overload
from repro.service import (
    AsyncBackupClient,
    BackupService,
    ServiceConfig,
    auth_token,
)
from repro.service.protocol import Err, RemoteError

KB = 1 << 10

#: Refusals the drill accepts as a correct answer under overload.
TYPED_REFUSALS = frozenset(
    {Err.BUSY, Err.QUOTA_EXCEEDED, Err.RETRY_LATER, Err.UNAUTHORIZED}
)

TENANTS = ("t0", "t1", "t2", "t3")
SECRET = "drill-secret"
QUOTA_BYTES = 400 * KB


def build_config(data_dir: str, auth_file: str, max_sessions: int) -> ServiceConfig:
    return ServiceConfig(
        backend="disk",
        data_dir=data_dir,
        auth_file=auth_file,
        max_sessions=max_sessions,
        restore_reserve=1,
        rate_bytes_per_s=128_000.0,   # burst 256 KB < a tenant's traffic
        shed_debt_s=10.0,             # pace first, shed true floods
        quota_bytes=QUOTA_BYTES,
        quota_sessions=max_sessions,  # per-tenant ceiling, not a gate here
        hello_timeout_s=0.25,
        window=4,
    )


async def greedy_client(port: int, i: int, outcomes: list) -> None:
    """One greedy backup client: retries BUSY briefly, accepts any
    typed refusal, records anything else as a drill failure."""
    tenant = TENANTS[i % len(TENANTS)]
    # One client per run presents a forged token: it must be turned
    # away with UNAUTHORIZED, not a hang or a generic error.
    token = auth_token("forged" if i == 0 else SECRET, tenant)
    data = random.Random(1000 + i).randbytes(192 * KB)
    rng = random.Random(2000 + i)
    for attempt in range(30):
        try:
            client = await AsyncBackupClient.connect(
                "127.0.0.1", port, tenant=tenant, auth=token
            )
        except RemoteError as exc:
            if exc.code is Err.BUSY:
                await asyncio.sleep(0.05 + rng.random() * 0.1)
                continue
            if exc.code in TYPED_REFUSALS:
                outcomes.append(("refused", i, tenant, exc.code, None))
                return
            outcomes.append(("failed", i, tenant, exc.code, None))
            return
        except OSError as exc:
            outcomes.append(("failed", i, tenant, None, repr(exc)))
            return
        try:
            await client.backup(data, f"snap-{i}")
            outcomes.append(("ok", i, tenant, None, data))
            return
        except RemoteError as exc:
            if exc.code in TYPED_REFUSALS:
                outcomes.append(("refused", i, tenant, exc.code, None))
                return
            outcomes.append(("failed", i, tenant, exc.code, None))
            return
        except OSError as exc:
            outcomes.append(("failed", i, tenant, None, repr(exc)))
            return
        finally:
            try:
                await client.close()
            except (OSError, RemoteError):
                pass
    outcomes.append(("refused", i, tenant, Err.BUSY, None))


async def probe_health(port: int, stop: asyncio.Event, failures: list) -> int:
    """Poll /health until told to stop; count every probe."""
    probes = 0
    while not stop.is_set():
        try:
            body = await asyncio.to_thread(
                lambda: urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/health", timeout=2
                ).read()
            )
            if json.loads(body).get("status") != "ok":
                failures.append(body)
        except Exception as exc:  # noqa: BLE001 — any miss fails the drill
            failures.append(repr(exc))
        probes += 1
        await asyncio.sleep(0.1)
    return probes


async def run_drill(args, data_dir: str, auth_file: str) -> dict:
    unhandled: list = []
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(
        lambda _loop, ctx: unhandled.append(ctx.get("message") or ctx)
    )

    plan = FaultPlan.parse(
        f"seed=3,wire.flood=8:{args.seconds},client.slowloris=8:{args.seconds}"
    )
    config = build_config(data_dir, auth_file, args.max_sessions)
    outcomes: list = []
    health_failures: list = []
    async with BackupService(config) as service:
        stop = asyncio.Event()
        prober = asyncio.create_task(
            probe_health(service.port, stop, health_failures)
        )
        await asyncio.gather(
            drive_overload("127.0.0.1", service.port, plan),
            *(
                greedy_client(service.port, i, outcomes)
                for i in range(args.clients)
            ),
        )
        stop.set()
        probes = await prober

        # Every admitted backup must restore byte-exact, through the
        # restore reserve (PURPOSE_RESTORE always has a slot).
        ok = [(i, tenant, data) for kind, i, tenant, _, data in outcomes
              if kind == "ok"]
        for i, tenant, data in ok:
            async with await AsyncBackupClient.connect(
                "127.0.0.1", service.port, tenant=tenant,
                auth=auth_token(SECRET, tenant), purpose=1,
            ) as client:
                restored = await client.restore(f"snap-{i}")
                assert restored == data, f"snap-{i} restore mismatch"

        usage_live = {
            t: service.registry.get(t).usage.as_dict() for t in TENANTS
        }
        metrics = service.metrics
        counters = {
            name: getattr(metrics, name)
            for name in (
                "preauth_evictions", "sessions_rejected", "sessions_shed",
                "throttles_sent", "retry_later_sent", "quota_rejections",
                "auth_failures", "errors_sent",
            )
        }
    loop.set_exception_handler(None)

    # Restart on the same data_dir: the durable accounting the fresh
    # service reads back must match what the dying one last committed.
    async with BackupService(config) as reborn:
        usage_reborn = {
            t: reborn.registry.get(t).usage.as_dict() for t in TENANTS
        }

    return {
        "outcomes": outcomes,
        "ok": len([o for o in outcomes if o[0] == "ok"]),
        "refused": len([o for o in outcomes if o[0] == "refused"]),
        "failed": [o for o in outcomes if o[0] == "failed"],
        "probes": probes,
        "health_failures": health_failures,
        "unhandled": unhandled,
        "counters": counters,
        "usage_live": usage_live,
        "usage_reborn": usage_reborn,
        "fault_stats": plan.stats.as_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=16,
                        help="greedy backup clients (default 16)")
    parser.add_argument("--max-sessions", type=int, default=4,
                        help="service session slots (default 4)")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="flood/slowloris duration (default 1.0)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="overload-drill-") as tmp:
        auth_file = Path(tmp) / "auth"
        auth_file.write_text(
            "".join(f"{t}: {SECRET}\n" for t in TENANTS)
        )
        result = asyncio.run(
            run_drill(args, str(Path(tmp) / "svc"), str(auth_file))
        )

    counters = result["counters"]
    print(f"clients: {result['ok']} admitted+finished, "
          f"{result['refused']} refused with typed errors, "
          f"{len(result['failed'])} failed")
    print(f"health: {result['probes']} probes, "
          f"{len(result['health_failures'])} misses")
    print("counters:", ", ".join(f"{k}={v}" for k, v in counters.items()))
    print("hostile load:", result["fault_stats"]["flood_conns"], "flood +",
          result["fault_stats"]["slowloris_conns"], "slowloris connections")
    for tenant, usage in sorted(result["usage_reborn"].items()):
        print(f"  {tenant}: {usage['stored_bytes']} B / {QUOTA_BYTES} B quota "
              f"({usage['chunks']} chunks) after restart")

    failures = []
    if result["failed"]:
        failures.append(f"untyped client failures: {result['failed']}")
    if result["health_failures"]:
        failures.append(f"/health missed: {result['health_failures'][:3]}")
    if result["unhandled"]:
        failures.append(f"unhandled loop exceptions: {result['unhandled'][:3]}")
    if result["ok"] == 0:
        failures.append("no client was ever admitted")
    if counters["preauth_evictions"] == 0:
        failures.append("slowloris holds were never evicted")
    if counters["sessions_rejected"] == 0:
        failures.append("nothing was shed at admission")
    if counters["auth_failures"] == 0:
        failures.append("the forged token was not refused")
    if counters["throttles_sent"] + counters["retry_later_sent"] == 0:
        failures.append("rate limiter never engaged")
    if result["usage_live"] != result["usage_reborn"]:
        failures.append(
            f"restart lost accounting: {result['usage_live']} != "
            f"{result['usage_reborn']}"
        )
    for tenant, usage in result["usage_reborn"].items():
        if usage["stored_bytes"] > QUOTA_BYTES:
            failures.append(
                f"{tenant} stored {usage['stored_bytes']} B past its "
                f"{QUOTA_BYTES} B quota"
            )

    if failures:
        print("\nFAIL")
        for failure in failures:
            print(" -", failure)
        return 1
    print("\nPASS: responsive under overload, every refusal typed, "
          "quotas durable across restart, admitted backups byte-exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
