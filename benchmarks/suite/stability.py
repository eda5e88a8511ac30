"""Does the benchmark repeat?  One A/B check on one checkout, as Markdown.

    python3 benchmarks/suite/stability.py > benchmarks/suite/STABILITY.md

Every workload runs twice on the same seed, as sets A and B (A then B
per workload, so both sets see the same stretch of machine time).  Each
end-to-end metric's A/B difference must stay within *half* its bound,
and the exact ratios must agree to the last digit.

Exit status is non-zero when a difference is too large.  If a metric
fails, lengthen that workload — never widen the bound or drop the check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("shipped_bytes_per_user_byte", "stored_bytes_per_user_byte")


def run_once(spec: dict, workload: str, seed: int) -> dict[str, float]:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"stability.py: {' '.join(command)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"stability.py: {workload} reported failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def ab_table(spec: dict, seed: int) -> bool:
    print(f"# A/B on seed {seed}: same code, same inputs, run twice\n")
    print("| workload | metric | A | B | difference | allowed (half the bound) | ok |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        a = run_once(spec, workload, seed)
        b = run_once(spec, workload, seed)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            diff = abs(b[name] - a[name]) / a[name]
            allowed = 0.0 if name in EXACT else metric["bound"] / 2
            good = diff <= allowed
            ok &= good
            print(f"| {workload} | {name} | {a[name]:.6g} | {b[name]:.6g} | "
                  f"{diff:.2%} | {allowed:.2%} | {'yes' if good else '**NO**'} |")
    print("\n`failed_ops_share` is 0 on every run above (a failed operation aborts this script).")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 0 if ab_table(spec, args.seed) else 1


if __name__ == "__main__":
    sys.exit(main())
