"""tropsurf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop workload against the library in this checkout's
``src`` and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up is repeated
``SETUP_REPEATS`` times (median reported as ``setup_s``), then operations
run for S seconds of timed wall time, and throughput and latencies are
taken over the faster half of the rounds (see ``fastest_rounds``).

With ``--trace 1`` a fixed number of operations runs twice, first plain
and then with every layer traced; the metrics are the per-layer ones
plus the traced/untraced throughput ratio, and the spans are written to
``perfbench/out``.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
KEPT_ROUNDS = 0.5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
LOGGED_FAILURES = 3

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class LibraryMissing(Exception):
    pass


def load_library(root):
    """Import tropsurf from ``root/src`` and nowhere else."""
    pkg_dir = root / "src" / "tropsurf"
    if not (pkg_dir / "__init__.py").is_file():
        raise LibraryMissing(f"no tropsurf package under {pkg_dir.parent}")
    sys.path.insert(0, str(pkg_dir.parent))
    import tropsurf
    import tropsurf.cli

    if Path(tropsurf.__file__).resolve().parent != pkg_dir.resolve():
        raise LibraryMissing(f"imported tropsurf from {tropsurf.__file__}, not {pkg_dir}")
    return SimpleNamespace(
        package=tropsurf,
        mt=tropsurf.matroid,
        bg=tropsurf.bergman,
        fc=tropsurf.fan_cycles,
        fi=tropsurf.fan_intersect,
        ch=tropsurf.cosheaf_homology,
        sc=tropsurf.surface_calculus,
        cli=tropsurf.cli,
        data_dir=pkg_dir / "data",
    )


# -- the closed loop -----------------------------------------------------------


def closed_loop(wl, state, items, seconds=None, tracer=None):
    """Run operations one after another until ``seconds`` of timed wall
    time have passed (or ``items`` runs out).  Only op and check are
    timed; a failed check or an exception counts as a failure and the
    loop goes on.  Returns per-operation latencies (op only) and costs
    (op + check)."""
    latencies, costs = [], []
    timed = 0.0
    failed = 0
    for i, item in enumerate(items):
        state.op_id = i
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
        t0 = perf_counter()
        try:
            result = wl.op(state, item)
            ok = True
        except Exception:
            ok = False
            _log_failure(failed, f"operation {i} raised", traceback.format_exc())
        if tracer is not None:
            tracer.active = False
        t1 = perf_counter()
        if ok:
            try:
                ok = bool(wl.check(state, item, result))
                why = "check failed"
            except Exception:
                ok = False
                why = traceback.format_exc()
            if not ok:
                _log_failure(failed, f"operation {i} is wrong", why)
        t2 = perf_counter()
        latencies.append(t1 - t0)
        costs.append(t2 - t0)
        timed += t2 - t0
        failed += not ok
        if seconds is not None and timed >= seconds:
            break
    return SimpleNamespace(latencies=latencies, costs=costs, timed=timed, failed=failed)


def fastest_rounds(loop, round_ops):
    """(latencies, timed) of the fastest KEPT_ROUNDS share of the loop's
    rounds.

    A round is ``round_ops`` consecutive operations, one full turn of the
    workload's input mix where it has one.  On a host whose cores are
    shared with other work, speed drifts by a large factor over seconds
    (up to 1.6x, and for whole runs, on a 2-vCPU Xeon virtual machine);
    keeping the fastest rounds measures the code rather than how long the
    slow spells lasted during one particular run.
    """
    n = len(loop.latencies)
    rounds = [range(i, i + round_ops) for i in range(0, n - round_ops + 1, round_ops)]
    if len(rounds) < 2:
        return loop.latencies, loop.timed
    rounds.sort(key=lambda r: sum(loop.costs[i] for i in r))
    kept = [i for r in rounds[: math.ceil(len(rounds) * KEPT_ROUNDS)] for i in r]
    return [loop.latencies[i] for i in kept], sum(loop.costs[i] for i in kept)


def _log_failure(count, what, detail):
    if count < LOGGED_FAILURES:
        print(f"perfbench: {what}: {detail}", file=sys.stderr)


def tail_percentile(latencies, cap):
    """(percentile, value, samples beyond) for the highest percentile on
    TAIL_LADDER, at most ``cap``, with at least TAIL_BEYOND samples above
    it (nearest-rank).  Falls back to the maximum for tiny samples."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        if p > cap:
            continue
        idx = math.ceil(p / 100 * n) - 1
        if n - 1 - idx >= TAIL_BEYOND:
            return p, xs[idx], n - 1 - idx
    return 100.0, xs[-1], 0


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# -- runs ------------------------------------------------------------------------


def run_untraced(wl, lib, seed, seconds, work_dir):
    setup_times = []
    state = None
    for rep in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = wl.setup(lib, random.Random(seed), work_dir / f"setup{rep}")
        setup_times.append(perf_counter() - t0)
    # the inputs held for the whole run are no work of the operations:
    # keep full collections from scanning them
    gc.freeze()
    try:
        loop = closed_loop(wl, state, wl.items(state), seconds=seconds)
    finally:
        gc.unfreeze()
    latencies, timed = fastest_rounds(loop, wl.round_ops)
    p, tail, beyond = tail_percentile(latencies, wl.tail_percentile)
    metrics = {
        "throughput_ops_s": len(latencies) / timed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(getattr(wl, "rss_of_children", False)),
    }
    details = {
        "tail_percentile": p,
        "tail_samples": len(latencies),
        "tail_samples_beyond": beyond,
        "rounds_kept": f"{len(latencies) // wl.round_ops} of {len(loop.latencies) // wl.round_ops}",
        "round_ops": wl.round_ops,
        "timed_s": loop.timed,
        "setup_runs_s": setup_times,
    }
    return len(loop.latencies), loop.failed, metrics, dict(END_TO_END), details


def run_traced(wl, lib, seed, work_dir, trace_file):
    state = wl.setup(lib, random.Random(seed), work_dir / "plain")
    plain = closed_loop(wl, state, list(islice(wl.items(state), wl.trace_ops)))
    state = None
    gc.collect()

    tracer = Tracer()
    tracer.install(lib.package)
    try:
        tracer.active = True
        state = wl.setup(lib, random.Random(seed), work_dir / "traced")
        tracer.active = False
        items = list(islice(wl.items(state), wl.trace_ops))
        if hasattr(state, "tracer"):
            state.tracer = tracer
        traced = closed_loop(wl, state, items, tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    n = len(traced.latencies)
    metrics["trace.throughput_ratio"] = (n / traced.timed) / (len(plain.latencies) / plain.timed)
    tracer.dump(trace_file)
    details = {
        "trace_ops": n,
        "spans": len(tracer.start),
        "untraced_timed_s": plain.timed,
        "traced_timed_s": traced.timed,
        "trace_file": os.path.relpath(trace_file, ROOT),
    }
    attempted = len(plain.latencies) + n
    return attempted, plain.failed + traced.failed, metrics, dict(PER_LAYER), details


def run_one(args):
    try:
        lib = load_library(ROOT)
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            attempted, failed, metrics, units, details = run_traced(
                wl, lib, args.seed, work_dir, OUT / f"trace-{wl.name}-seed{args.seed}.json.gz"
            )
        else:
            attempted, failed, metrics, units, details = run_untraced(
                wl, lib, args.seed, args.seconds, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": wl.name,
        "why": wl.why,
        "sizes": wl.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "details": details,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record_file = OUT / f"result-{tag}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={record['python']} nproc={record['nproc']}")
    print(f"  sizes: {json.dumps(wl.sizes)}")
    print(f"  details: {json.dumps(details)}")
    print(f"  attempted {attempted}  failed {failed}  error_rate {record['error_rate']:g} ratio")
    for k, unit in units.items():
        print(f"  {k} {metrics[k]:.6g} {unit}")
    print(f"  record: {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so each gets its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
