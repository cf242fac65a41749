"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload huber_grid --seed 0 --seconds 10 --trace 0

Runs whole rounds of the workload's operations (one per input, closed
loop, one client) until --seconds have passed, checks every answer
outside the timed region, writes a record under perfbench/out/ and
prints one JSON object as the last line of standard output. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the keys of workloads.WORKLOADS, listed here because importing that
# module imports numpy, which has to wait for the BLAS thread settings
WORKLOAD_NAMES = ("huber_grid", "greedy_grid", "treedp_org", "sigmoid_large")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_rounds(workload, seconds):
    """(case, record or None, seconds) per operation, and the rounds run."""
    ops, rounds = [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for case in workload.cases:
            gc.collect()  # no operation pays for its predecessor's garbage
            t0 = time.perf_counter()
            try:
                record = workload.run(case)
            except Exception:
                traceback.print_exc()
                record = None
            ops.append((case, record, time.perf_counter() - t0))
        rounds += 1
    return ops, rounds


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "medianflip", "__init__.py")):
        print(f"error: medianflip sources not found under {SRC}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import workloads
    import_s = time.perf_counter() - T_START

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = None
    build_s = []
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        with tracer:
            workload.build()
            tracer.phase = "ops"
            ops, rounds = timed_rounds(workload, args.seconds)
    else:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            build_s.append(time.perf_counter() - t0)
        ops, rounds = timed_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, good = [], []
    for case, record, seconds in ops:
        if record is None:
            continue
        found = workload.check(case, record)
        problems += [f"draw {case.draw}: {p}" for p in found]
        if not found:
            good.append((case, record, seconds))
    failed = len(ops) - len(good)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not good:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if tracer:
        metrics = tracer.per_layer(rounds)
    else:
        metrics = {
            "op_s": (statistics.median(s for _, _, s in good), "s"),
            "answer_pct": (workload.answer([c for c, _, _ in good],
                                           [r for _, r, _ in good]), "%"),
            "setup_s": (import_s + statistics.median(build_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = {"python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "nproc": nproc}
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "rounds": rounds,
                   "op_s": [s for _, _, s in ops], "import_s": import_s,
                   "build_s": build_s, "problems": problems,
                   "metrics": metrics}, fh, indent=1)
    if tracer:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
