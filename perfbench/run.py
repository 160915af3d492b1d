"""Benchmark of aufhebung, end to end and layer by layer.

Run from the root of a checkout (it imports the package from ./src):

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 40 --trace 0

One client, closed loop, no threads.  The run builds its inputs from the
seed, repeats a fixed round of operations until ``--seconds`` have passed
(and at least MIN_OPS operations, so the 90th percentile has ten beyond
it), checks every output against ``expect``, and prints one JSON object as
its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 100
TAIL_PERCENTILE = 90
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("certify-sweep", "dense-scan", "cli-files")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs and one round, for the tests")
    return ap.parse_args(argv)


def import_ms(root: str) -> float:
    """Median time to import aufhebung.cli in a fresh interpreter, minus a
    bare interpreter start, timed from outside."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    diffs = []
    for _ in range(IMPORT_REPEATS):
        times = []
        for code in ("import aufhebung.cli", "pass"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
        diffs.append(times[0] - times[1])
    return 1000 * statistics.median(diffs)


def timed_loop(ops, seconds: float, min_ops: int, tracer):
    """Repeat the round whole until the time and the floor of completed
    operations are met.

    Returns (latencies of completed ops by kind, busy seconds over all
    attempted ops, attempted, failures by description, check errors)."""
    lat: dict[str, list[float]] = {}
    busy = 0.0
    attempted = completed = 0
    failures: Counter = Counter()
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
                tracer.on = True
            failure = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a crashing op is counted as failed, not fatal
                failure = f"{op.kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            busy += dt
            attempted += 1
            if failure is not None:
                failures[failure] += 1
                continue
            lat.setdefault(op.kind, []).append(dt)
            completed += 1
            try:
                errs = op.check(result)
            except Exception as exc:  # output the check cannot read is wrong output
                errs = [f"unreadable output: {type(exc).__name__}: {exc}"]
            errors += [f"{op.kind}: {e}" for e in errs]
        if time.perf_counter() - start >= seconds and completed >= min_ops:
            return lat, busy, attempted, failures, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "aufhebung", "__init__.py")):
        print(f"error: no src/aufhebung under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    tiny = args.size == "tiny"

    t0 = time.perf_counter()
    import aufhebung
    import workloads
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(aufhebung.__file__)) != os.path.join(src, "aufhebung"):
        print(f"error: imported aufhebung from {aufhebung.__file__}", file=sys.stderr)
        return 2
    from aufhebung import _kernels

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            rnd = workloads.WORKLOADS[args.workload](args.seed, tiny, workdir)
            builds.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(builds)
        errors = workloads.check_written(rnd.written)

        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        # the op floor is for the tail percentile, which a traced run omits
        min_ops = 0 if tiny or args.trace else MIN_OPS
        by_kind, busy, attempted, failures, op_errors = timed_loop(
            rnd.ops, args.seconds, min_ops, tracer)
        errors += op_errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(failures.values())
    lat = [dt for kind_lat in by_kind.values() for dt in kind_lat]
    ops_per_s = len(lat) / busy if busy else 0.0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "backend": "numba" if _kernels.numba_enabled() else "numpy",
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "round": [op.kind for op in rnd.ops],
        "attempted": attempted, "failed": failed,
        "failures": dict(failures), "errors": errors[:20],
        "ops_per_s": ops_per_s,
        "median_ms_by_kind": {kind: 1000 * statistics.median(v)
                              for kind, v in by_kind.items()},
    }
    if tracer is not None:
        tracer.uninstall()
        values = tracer.metrics(attempted, import_ms(root))
        metrics = {name: {"value": v, "unit": spans.UNITS[name]}
                   for name, v in values.items()}
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.json"))
    else:
        q = statistics.quantiles(lat, n=100, method="inclusive")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * q[TAIL_PERCENTILE - 1], "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(os.path.join(out_dir, f"run-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"backend {record['backend']}, python {record['python']},"
          f" nproc {record['nproc']}, ops/s {ops_per_s:.4f}", file=sys.stderr)
    for what, count in failures.items():
        print(f"failed x{count}: {what}", file=sys.stderr)
    for e in errors[:20]:
        print(f"wrong: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
