"""Run one benchmark workload and print every metric by name.

    python3 benchmarks/suite/run.py --workload image_stream --seed 2012 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on untouched code;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (``spans.py`` is imported only then).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Exit status is non-zero when any operation
failed, when a count that must repeat exactly did not, or when the
``repro`` sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIB = 1 << 20
GIB = 1 << 30

#: Cold-start children per run, half before and half after the timed
#: repetitions (slow stretches of the machine last seconds, so spreading
#: them out gives the minimum a better chance); ``setup_s`` is the
#: fastest of them.
COLD_STARTS = 6
#: Fewest timed repetitions of an untraced run, whatever ``--seconds``.
MIN_REPS = {"remote_ingest": 12}
MIN_REPS_DEFAULT = 8
#: Fewest traced repetitions of a traced run.
MIN_TRACED_REPS = 3


def pin_environment(workdir: str) -> None:
    """Fix every knob the library reads from the environment, before
    ``import repro``; temp files stay inside the checkout."""
    os.environ["REPRO_AUTOTUNE"] = "0"
    os.environ["REPRO_THREADS"] = "1"
    for name in ("REPRO_STORE_BACKEND", "REPRO_FAULTS", "REPRO_FSYNC"):
        os.environ.pop(name, None)
    os.environ["REPRO_STORE_TMP"] = workdir
    os.environ["TMPDIR"] = workdir


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input, 1 repetition, 1 cold start (tests only)")
    parser.add_argument("--flip-restored-byte", action="store_true",
                        help="corrupt one restored byte: the run must fail (tests only)")
    parser.add_argument("--cold-start", metavar="WORKDIR",
                        help="child mode of setup_s: bring up, back up 2 MiB, restore, tear down")
    return parser.parse_args(argv)


def cold_start_seconds(workload: str, workdir: str, ops, children: int) -> list[float]:
    """Wall time of fresh interpreters that each import ``repro``, bring
    the workload's system up, back up + restore + verify one fixed 2 MiB
    image and tear down.  This process already imported the same
    modules, so their bytecode is compiled before the first clock."""
    samples = []
    for _ in range(children):
        child_dir = tempfile.mkdtemp(prefix="cold", dir=workdir)
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--cold-start", child_dir]
        ops.attempted += 1
        t0 = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.DEVNULL) as child:
            # wait() blocks in waitpid; given a timeout it polls every
            # 50 ms instead and rounds the sample up to that grid, so a
            # timer thread is the watchdog.
            watchdog = threading.Timer(120, child.kill)
            watchdog.start()
            code = child.wait()
            samples.append(time.perf_counter() - t0)
            watchdog.cancel()
        if code != 0:
            ops.failed += 1
            ops.first_error = ops.first_error or f"cold start exited {code}"
    return samples


def spread(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def require_exact(name: str, values: list[float], ops) -> float:
    """A count that must repeat exactly across repetitions (a failed
    operation already fails the run, and explains a count that moved)."""
    for other in values[1:]:
        if other != values[0] and not ops.failed:
            raise SystemExit(
                f"run.py: {name} must repeat exactly but read {values[0]!r} "
                f"and then {other!r}"
            )
    return values[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    child = args.cold_start is not None
    workdir = args.cold_start or str(
        ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    pin_environment(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Clock, Ops

    try:
        if args.workload not in WORKLOADS:
            print(f"run.py: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        ops = Ops(flip_restored_byte=args.flip_restored_byte)
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        if child:
            workload.cold_start(ops)
            return 1 if ops.failed else 0
        return measure(args, workload, ops, Clock())
    finally:
        if not child:  # a child's directory belongs to its parent
            shutil.rmtree(workdir, ignore_errors=True)


class Samples:
    """The timed operations of a run, grouped by repetition and phase.

    A *sample* is one phase of one repetition: the sum of its timed
    operations (verification runs between them, outside the timers).
    Noise on this kind of box is one-sided, so a rate is bytes over the
    minimum sample; a restore sample loops a clock-dependent number of
    passes, so there it is the best bytes-per-second of any sample.
    """

    def __init__(self, clock, workload) -> None:
        self.bytes = {"full": workload.full_bytes, "incr": workload.incr_bytes,
                      "restore": workload.restore_pass_bytes}
        self.ops: dict[tuple[int, str], list[tuple]] = {}
        for op in clock.ops:
            self.ops.setdefault((op[0], op[1]), []).append(op)

    def rate(self, phase: str, rep: int) -> float:
        return self.moved(phase, rep) / MIB / self.seconds(phase, rep)

    def moved(self, phase: str, rep: int) -> int:
        """Bytes one repetition moved in ``phase`` (restore loops passes)."""
        mine = self.ops[rep, phase]
        return self.bytes[phase] * len(mine) // len({op[2] for op in mine})

    def seconds(self, phase: str, rep: int, cpu: bool = False) -> float:
        lo, hi = (5, 6) if cpu else (3, 4)
        return sum(op[hi] - op[lo] for op in self.ops[rep, phase])

    def windows(self, rep: int) -> list[tuple[str, float, float]]:
        return [(op[1], op[3], op[4]) for (r, _), ops in self.ops.items() if r == rep
                for op in ops]


def repetitions(args, workload, ops, clock, tracer):
    """One discarded warm-up repetition, then timed ones until
    ``--seconds`` are used.  A traced run alternates untraced and traced
    repetitions so both see the same stretch of machine time."""
    results: dict[int, dict] = {}
    plain: list[int] = []
    traced: list[int] = []
    counted = traced if tracer else plain
    rep_s = warmup_s = 0.0
    deadline = float("inf")
    if args.scale < 1:
        min_reps = 1
    elif tracer:
        min_reps = MIN_TRACED_REPS
    else:
        min_reps = MIN_REPS.get(workload.name, MIN_REPS_DEFAULT)
    while len(counted) < min_reps or time.perf_counter() + 0.5 * rep_s < deadline:
        rep = clock.rep = len(results)
        t0 = time.perf_counter()
        if tracer and rep and rep % 2 == 0:
            tracer.rep = rep
            tracer.install()
            try:
                results[rep] = workload.repetition(clock, ops)
            finally:
                tracer.uninstall()
            traced.append(rep)
        else:
            results[rep] = workload.repetition(clock, ops)
            if rep:
                plain.append(rep)
        rep_s = time.perf_counter() - t0
        if rep == 0:
            warmup_s = rep_s
            deadline = time.perf_counter() + args.seconds
    return results, plain, traced, warmup_s


def end_to_end(workload, samples, plain, exact, setup) -> list[tuple]:
    lines = []
    for name, phase in (("full_backup_mib_s", "full"), ("incr_backup_mib_s", "incr"),
                        ("restore_mib_s", "restore")):
        rates = [samples.rate(phase, r) for r in plain]
        s = spread(rates)
        lines.append((name, max(rates), "MiB/s",
                      f"samples: n={s['n']} median={s['median']:.2f} "
                      f"q1={s['q1']:.2f} q3={s['q3']:.2f}"))
    s = spread(setup)
    lines.append(("setup_s", min(setup), "s",
                  f"cold starts: n={s['n']} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f}"))
    for name in ("shipped_bytes", "stored_bytes"):
        lines.append((f"{name}_per_user_byte", exact[name] / workload.user_bytes,
                      "ratio", "exact"))
    lines.append(("peak_rss_mib",
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", ""))
    return lines


def per_layer(args, workload, ops, samples, plain, traced, results, exact, tracer, harness) -> dict:
    cols = tracer.columns()
    tracer.check_called(cols, workload.name, traced)
    per_rep = [
        tracer.rep_metrics(cols, rep, samples.windows(rep),
                           {ph: samples.moved(ph, rep) for ph in samples.bytes},
                           results[rep]["chunks"])
        for rep in traced
    ]
    layer: dict[str, float] = {}
    for name in sorted({n for m in per_rep for n in m}):
        values = [m[name] for m in per_rep if name in m]
        layer[name] = (require_exact(name, values, ops) if name in tracer.EXACT_METRICS
                       else statistics.median(values))
    for name in results[0]["gauges"]:
        layer[name] = statistics.median(results[r]["gauges"][name] for r in traced)
    layer.update({k: v for k, v in exact.items() if "." in k})
    layer["proc.backup_cpu_s_per_gib"] = statistics.median(
        (samples.seconds("full", r, cpu=True) + samples.seconds("incr", r, cpu=True))
        / (workload.user_bytes / GIB) for r in plain)
    layer["proc.restore_cpu_s_per_gib"] = statistics.median(
        samples.seconds("restore", r, cpu=True) / (samples.moved("restore", r) / GIB)
        for r in plain)
    layer["trace.overhead_share"] = (
        min(samples.seconds("full", r) for r in traced)
        / min(samples.seconds("full", r) for r in plain) - 1.0)
    layer.update(harness)
    trace_path = ROOT / ".bench_work" / f"trace-{workload.name}.json"
    tracer.dump(cols, str(trace_path), {
        "workload": workload.name, "seed": args.seed, "traced_reps": traced,
        "operations": [[ph, w0, w1] for rep in traced for ph, w0, w1 in samples.windows(rep)],
    })
    print(f"spans: {len(cols['row'])} written to {trace_path.relative_to(ROOT)}")
    return layer


def measure(args, workload, ops, clock) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    children = 0 if tracer else (COLD_STARTS // 2 if args.scale >= 1 else 1)
    setup = cold_start_seconds(workload.name, workload.workdir, ops, children)

    t0 = time.perf_counter()
    workload.generate()
    input_gen_s = time.perf_counter() - t0
    gc.collect()
    gc.freeze()  # the inputs are immortal: keep the collector off them

    results, plain, traced, warmup_s = repetitions(args, workload, ops, clock, tracer)
    if args.scale >= 1:
        setup += cold_start_seconds(workload.name, workload.workdir, ops, children)
    exact = {
        name: require_exact(name, [results[r]["counts"][name] for r in sorted(results)], ops)
        for name in results[0]["counts"]
    }
    samples = Samples(clock, workload)
    cpu_wall_ratio = (
        sum(samples.seconds(ph, r, cpu=True) for ph in samples.bytes for r in plain)
        / sum(samples.seconds(ph, r) for ph in samples.bytes for r in plain))

    if tracer is None:
        wanted = spec["end_to_end"]
        lines = end_to_end(workload, samples, plain, exact, setup)
    else:
        wanted = spec["per_layer"]
        layer = per_layer(args, workload, ops, samples, plain, traced, results, exact, tracer, {
            "proc.cpu_wall_ratio": cpu_wall_ratio,
            "bench.input_gen_s": input_gen_s,
            "bench.warmup_rep_s": warmup_s,
        })
        unknown = sorted(set(layer) - {m["name"] for m in wanted})
        if unknown:
            raise SystemExit(f"run.py: BENCHMARK.json does not list {unknown}")
        # A layer that does not run on this workload reads 0.
        lines = [(m["name"], layer.get(m["name"], 0.0), m["unit"],
                  "" if m["name"] in layer else "layer not on this workload")
                 for m in wanted]

    print(f"workload {workload.name}  seed {args.seed}  scale {args.scale:g}  "
          f"repetitions {len(plain)} untraced + {len(traced)} traced  "
          f"user bytes {workload.user_bytes}")
    for name, value, unit, detail in lines:
        print(f"{name:<46} {value:>14.6f} {unit:<8} {detail}")
    print(f"{'failed_ops_share':<46} {ops.failed / ops.attempted:>14.6f} {'ratio':<8} "
          f"{ops.failed} of {ops.attempted}  {ops.first_error}")
    print(f"{'proc.cpu_wall_ratio':<46} {cpu_wall_ratio:>14.6f} {'ratio':<8} "
          "well below 1 marks a contended run")

    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines}
    if {n: m["unit"] for n, m in metrics.items()} != {m["name"]: m["unit"] for m in wanted}:
        raise SystemExit("run.py: metrics printed do not match BENCHMARK.json")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 1 if ops.failed else 0


if __name__ == "__main__":
    sys.exit(main())
