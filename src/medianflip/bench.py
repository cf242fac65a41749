"""Experiment harness: run intervention methods over seeds and budgets,
search for flip points, and emit machine-readable reports.

Budget convention: budgets, search caps and search resolutions count
stooges (the l0 sense). The continuous methods spend an l1 budget
instead and receive half the stooge count, matching the uniform
alpha = 1/2 starting point where one full stooge costs 1/2 of l1
movement; stooge_runner is the one place that converts. Found
continuous flip budgets are therefore stooge equivalents (twice the l1
radius).
"""

import json
import logging
import time
import weakref
from csv import writer as csv_writer
from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import SolverError, equilibrium
from .estimators import HuberConfig, SigmoidConfig, find_c
from .greedy import (
    baseline_select,
    jaccard,
    lazy_greedy,
    min_budget_to_flip,
    round_to_stooges,
    score_total,
)
from .network import NetworkError
from .optimize import (
    InterventionResult,
    OptimizerConfig,
    projected_huber,
    sigmoid_gd,
)
from .treedp import (
    TreeInstance,
    apply_assignment,
    tree_dp_min_stooges,
    tree_equilibrium,
)

log = logging.getLogger(__name__)

# method -> the options its runner reads; no other option is accepted
METHOD_OPTIONS = {
    "huber": ("c", "eta", "max_iters"),
    "sigmoid": ("tau", "eta", "max_iters"),
    "greedy": ("phi",),
    "greedy-score": ("phi",),
    "random": (),
    "degree": (),
    "centrality": (),
    "tree-dp": ("mode",),
}
METHODS = tuple(METHOD_OPTIONS)
CONTINUOUS_METHODS = frozenset({"huber", "sigmoid"})

CSV_COLUMNS = (
    "instance", "method", "seed", "n", "m", "theta", "budget", "l1_used",
    "l0_used", "flipped", "final_median", "runtime_ms",
)


@dataclass
class ExperimentConfig:
    """One instance, several methods, several seeds.

    budget None means "search for the smallest flipping budget" via
    flip_budget, up to max_budget and to within resolution; an integer
    budget runs each method once at that stooge count. All three count
    stooges (see stooge_runner).
    """

    instance: object
    name: str = "instance"
    methods: tuple = ("greedy",)
    theta: float = 0.5
    budget: int = None
    seeds: tuple = (0,)
    method_params: dict = field(default_factory=dict)
    max_budget: int = None
    resolution: float = 0.5

    def __post_init__(self):
        self.methods = tuple(self.methods)
        self.seeds = tuple(self.seeds)
        if not self.methods:
            raise ValueError("need at least one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if not self.seeds:
            raise ValueError("need at least one seed (repetitions >= 1)")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.max_budget is not None and self.max_budget < 0:
            raise ValueError("max_budget must be nonnegative")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        for method, params in self.method_params.items():
            _check_options(method, params)


@dataclass
class RunRecord:
    instance: str
    method: str
    seed: int
    n: int
    m: int
    theta: float
    budget: float = None
    percent_of_n: float = None
    l1_used: float = None
    l0_used: int = None
    flipped: bool = False
    final_median: float = None
    runtime_ms: float = None
    stooges: tuple = ()
    error: str = None


@dataclass
class ExperimentReport:
    records: list
    aggregates: dict


def _tree_dp_runner(instance, budget, theta, mode):
    """The DP's assignment, or none when it is infeasible or over budget;
    flipped means the DP's strict majority, never met by no stooges."""
    tree = TreeInstance(instance, mode=mode)
    res = tree_dp_min_stooges(tree, theta=theta)
    fits = res.feasible and res.cost <= budget
    assignment = res.assignment if fits else {}
    alpha, s = apply_assignment(tree, assignment)
    stooges = {
        u: (0.0 if label == "alpha0" else 1.0)
        for u, label in assignment.items()
    }
    result = InterventionResult.of(
        instance, alpha, tree_equilibrium(tree, alpha=alpha, s=s), theta,
        stooges, s=s)
    return result if fits else replace(result, flipped=False)


def _check_options(method, params):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    unread = set(params or {}) - set(METHOD_OPTIONS[method])
    if unread:
        raise ValueError(f"{method} reads no option {sorted(unread)}")


def method_runner(method, theta=0.5, seed=None, params=None):
    """Build runner(instance, budget) -> InterventionResult.

    The budget argument is in the method's native units: a stooge count
    for discrete methods, an l1 radius for huber and sigmoid. params may
    set only the options METHOD_OPTIONS lists for the method.
    """
    _check_options(method, params)
    params = dict(params or {})
    c_cache = weakref.WeakKeyDictionary()

    def opt_config(budget):
        keys = ("eta", "max_iters")
        kwargs = {k: params[k] for k in keys if k in params}
        return OptimizerConfig(budget_k=budget, **kwargs)

    def run(instance, budget):
        if method == "huber":
            c = params.get("c")
            if c is None:
                if instance not in c_cache:
                    c_cache[instance] = find_c(instance, seed=seed)
                c = c_cache[instance]
            huber = HuberConfig(c=c)
            return projected_huber(instance, opt_config(budget), huber,
                                   theta=theta)
        if method == "sigmoid":
            sig = SigmoidConfig(theta=theta, tau=params.get("tau", 25.0))
            return sigmoid_gd(instance, opt_config(budget), sig)
        if method == "greedy":
            return lazy_greedy(instance, int(budget),
                               phi=params.get("phi", 0.8), theta=theta)
        if method == "greedy-score":
            return lazy_greedy(instance, int(budget),
                               phi=params.get("phi", 0.8), gain=score_total,
                               theta=theta)
        if method == "tree-dp":
            return _tree_dp_runner(instance, int(budget), theta,
                                   params.get("mode", "resistance"))
        return baseline_select(instance, int(budget), method, theta=theta,
                               seed=seed)

    return run


def stooge_runner(method, theta, seed, params):
    """method_runner whose budget argument counts stooges: huber and
    sigmoid receive half of it as their l1 radius."""
    runner = method_runner(method, theta=theta, seed=seed, params=params)
    if method not in CONTINUOUS_METHODS:
        return runner
    return lambda instance, stooges: runner(instance, stooges / 2.0)


def flip_budget(instance, method, runner, theta, max_budget, resolution,
                base=None):
    """min_budget_to_flip for a stooge_runner, in stooges. A max_budget
    of None caps the search at every node; continuous methods bisect
    down to resolution stooges. `base` is the unmodified instance's
    equilibrium opinions, solved when None."""
    continuous = method in CONTINUOUS_METHODS
    if continuous and max_budget is None:
        max_budget = instance.node_count
    return min_budget_to_flip(instance, runner, theta=theta,
                              max_budget=max_budget, continuous=continuous,
                              resolution=resolution, base=base)


def _stooge_set(method, result, instance, k_equivalent):
    if method in CONTINUOUS_METHODS and k_equivalent > 0:
        k = max(1, int(np.ceil(k_equivalent)))
        return tuple(sorted(round_to_stooges(result.alpha_final,
                                             instance.alpha, k)))
    return tuple(sorted(result.stooges))


def _run_one(config, method, seed):
    """Record the runner's answer at the fixed budget, or the one the
    flip search met at the budget it found; runtime_ms times that work."""
    instance = config.instance
    n = instance.network.node_count
    record = RunRecord(
        instance=config.name, method=method, seed=seed, n=n,
        m=instance.network.edge_count, theta=config.theta,
    )
    runner = stooge_runner(method, theta=config.theta, seed=seed,
                           params=config.method_params.get(method))
    answers = {}

    def recording(inst, budget):
        answers[budget] = runner(inst, budget)
        return answers[budget]

    try:
        start = time.perf_counter()
        # the flip search and a zero budget read the unmodified instance
        base = None if config.budget else equilibrium(instance).x_star
        if config.budget is None:
            budget = flip_budget(instance, method, recording,
                                 theta=config.theta,
                                 max_budget=config.max_budget,
                                 resolution=config.resolution, base=base)
        else:
            budget = config.budget
            if budget > 0:
                recording(instance, budget)
        record.runtime_ms = 1e3 * (time.perf_counter() - start)
        if budget is None:
            record.error = "no flipping budget up to max_budget"
            return record
        result = answers[budget] if budget > 0 else InterventionResult.of(
            instance, instance.alpha, base, config.theta, {})
        record.budget = float(budget)
        record.percent_of_n = 100.0 * record.budget / n
        record.l1_used = float(result.l1_budget_used)
        record.l0_used = int(result.l0_budget_used)
        record.flipped = bool(result.flipped)
        record.final_median = float(result.final_median)
        record.stooges = _stooge_set(method, result, instance, record.budget)
    except (SolverError, NetworkError, RuntimeError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        log.warning("run failed (%s, seed %s): %s", method, seed, exc)
    return record


def run_experiment(config):
    """Run every (method, seed) pair; failures become error records."""
    records = [
        _run_one(config, method, seed)
        for method in config.methods
        for seed in config.seeds
    ]
    records.sort(key=lambda r: (r.instance, r.method, r.seed))
    aggregates = {}
    for method in config.methods:
        group = [r for r in records if r.method == method]
        good = [r.budget for r in group if r.flipped and r.error is None]
        aggregates[method] = {
            "mean_budget": float(np.mean(good)) if good else None,
            "std_budget": float(np.std(good)) if good else None,
            "mean_percent": (100.0 * float(np.mean(good))
                             / config.instance.network.node_count
                             if good else None),
            "successes": len(good),
            "failures": len(group) - len(good),
        }
    return ExperimentReport(records=records, aggregates=aggregates)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def emit_report(report, path, format="csv"):
    """Write the report; CSV rows carry exactly the documented columns,
    JSON mirrors the full record structure plus aggregates."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            out = csv_writer(fh)
            out.writerow(CSV_COLUMNS)
            for r in report.records:
                out.writerow([_csv_cell(getattr(r, col)) for col in CSV_COLUMNS])
        return path
    if format == "json":
        doc = {
            "records": [
                {
                    **{col: getattr(r, col) for col in CSV_COLUMNS},
                    "percent_of_n": r.percent_of_n,
                    "stooges": list(r.stooges),
                    "error": r.error,
                }
                for r in report.records
            ],
            "aggregates": report.aggregates,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return path
    raise ValueError(f"unknown report format {format!r}")


def compare_stooges(report):
    """Pairwise Jaccard similarity of stooge sets, averaged over the
    seeds each method pair shares."""
    records = [r for r in report.records if r.error is None]
    methods = sorted({r.method for r in records})
    by_key = {(r.method, r.seed): set(r.stooges) for r in records}
    for (method, seed), stooges in by_key.items():
        if not stooges:
            raise ValueError(
                f"record ({method}, seed {seed}) has no stooge set"
            )
    matrix = np.eye(len(methods))
    for i, a in enumerate(methods):
        for j, b in enumerate(methods):
            if j <= i:
                continue
            seeds = [
                s for (m, s) in by_key if m == a and (b, s) in by_key
            ]
            if not seeds:
                raise ValueError(f"no shared seeds for {a} and {b}")
            vals = [jaccard(by_key[(a, s)], by_key[(b, s)]) for s in seeds]
            matrix[i, j] = matrix[j, i] = float(np.mean(vals))
    return matrix, methods
