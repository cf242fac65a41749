"""Re-measure the reference figures at their original sizes, once each.

    python3 perfbench/reference.py

The workloads scale some settings down to fit a run; this script runs
the same workload code at the original ones (500 ascent iterations,
10x10 grids for greedy, org charts of 200 and 400 nodes, no relabelling)
and prints one line per figure. It takes about five minutes on 2 CPUs.
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = os.path.join(HERE, "out")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def case_of(cls, seed, **attrs):
    workload = type("Reference", (cls,), {"population": None, **attrs})(
        seed, OUT)
    workload.build()
    return workload, workload.cases[0]


def main():
    os.makedirs(OUT, exist_ok=True)
    huber, case = case_of(workloads.HuberGrid, 0, ascent_iters=500)
    with Tracer() as tracer:
        tracer.phase = "ops"
        (found, calls), secs = timed(lambda: huber.run(case))
    layers = tracer.per_layer(rounds=1)
    print(f"huber flip search, 10x10 grid seed 0: {secs:.1f} s, "
          f"{layers['optimize.ascents'][0]:.0f} ascents, "
          f"{layers['optimize.cap_hits'][0]:.0f} capped at 500 iterations, "
          f"budget {2 * found:.2f}")

    for seed in (0, 1):
        _, case = case_of(workloads.GreedyGrid, seed,
                          params={"rows": 10, "cols": 10})
        (found, _), secs = timed(
            lambda: workloads._flip_search(case, "greedy", False))
        print(f"greedy flip search, 10x10 grid seed {seed}: {secs:.1f} s, "
              f"budget {found}")
        if seed == 0:
            res, secs = timed(
                lambda: workloads.greedy.lazy_greedy(case.instance, 100))
            print(f"lazy_greedy to threshold, seed 0: {secs:.2f} s, "
                  f"{len(res.stooges)} stooges")
            (found, _), secs = timed(
                lambda: workloads._flip_search(case, "centrality", False))
            print(f"centrality flip search, seed 0: {secs:.1f} s, "
                  f"budget {found}")

    for n in (200, 400):
        tree, case = case_of(workloads.TreedpOrg, 0, params={"n": n})
        (cost, _, _), secs = timed(lambda: tree.run(case))
        print(f"tree DP both mode, org chart n={n} seed 0: {secs:.1f} s, "
              f"cost {cost}")

    sigmoid, case = case_of(workloads.SigmoidLarge, 0, ascent_iters=500)
    record, secs = timed(lambda: sigmoid.run(case))
    median, _ = sigmoid._reported(record[1])
    print(f"sigmoid optimize, ba n=10000 seed 0, 500 iterations: "
          f"{secs:.1f} s, median {sigmoid._base_median(case):.4f} -> "
          f"{median:.4f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.0f} MB")


if __name__ == "__main__":
    main()
