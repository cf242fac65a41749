"""Spans around calls into medianflip's public functions.

A Tracer replaces each traced function in every medianflip namespace
that holds it (the defining module, the package and every module that
imported it by name), so calls are caught where callers look them up;
the benchmark itself calls through module attributes. Each span keeps
its parent; a layer's self time is its spans' durations minus the time
of their traced children. Spans stay in memory until the run ends.
"""

import sys
import time
from functools import wraps
from importlib import import_module

# import_module, because the package rebinds the name "equilibrium" to
# the function of that module
(bench, cli, equilibrium, estimators, generators, gradients, greedy,
 instance_io, network, optimize, projection, stats, treedp) = (
    import_module(f"medianflip.{name}") for name in (
        "bench", "cli", "equilibrium", "estimators", "generators",
        "gradients", "greedy", "instance_io", "network", "optimize",
        "projection", "stats", "treedp"))

# span name -> (module, attribute); treedp.instance and network.adjacency
# wrap a method and a property getter on their class instead
FUNCTIONS = {
    "equilibrium": (equilibrium, "equilibrium"),
    "gradients.adjoint": (gradients, "equilibrium_jacobian_action"),
    "estimators.huber": (estimators, "huber_m_estimate"),
    "estimators.find_c": (estimators, "find_c"),
    "projection": (projection, "project_l1_box"),
    "optimize.huber": (optimize, "projected_huber"),
    "optimize.sigmoid": (optimize, "sigmoid_gd"),
    "greedy.flip_search": (greedy, "min_budget_to_flip"),
    "greedy.lazy": (greedy, "lazy_greedy"),
    "greedy.betweenness": (greedy, "betweenness"),
    "stats.median": (stats, "median"),
    "treedp.dp": (treedp, "tree_dp_min_stooges"),
    "treedp.tree_equilibrium": (treedp, "tree_equilibrium"),
    "network.build": (network, "build_network"),
    "instance_io.load": (instance_io, "load_instance"),
    "instance_io.save": (instance_io, "save_instance"),
    "generators.generate": (generators, "generate"),
    "bench.method_runner": (bench, "method_runner"),
    "cli": (cli, "main"),
}

# per-layer metric -> span names whose self times or call counts it sums
SELF_TIMES = {
    "equilibrium.s": ["equilibrium"],
    "gradients.adjoint_s": ["gradients.adjoint"],
    "estimators.huber_s": ["estimators.huber"],
    "estimators.find_c_s": ["estimators.find_c"],
    "projection.s": ["projection"],
    "optimize.self_s": ["optimize.huber", "optimize.sigmoid"],
    "greedy.lazy_s": ["greedy.lazy"],
    "greedy.betweenness_s": ["greedy.betweenness"],
    "stats.median_s": ["stats.median"],
    "treedp.instance_s": ["treedp.instance"],
    "treedp.dp_s": ["treedp.dp"],
    "treedp.tree_equilibrium_s": ["treedp.tree_equilibrium"],
    "network.build_s": ["network.build"],
    "network.adjacency_s": ["network.adjacency"],
    "instance_io.load_s": ["instance_io.load"],
    "instance_io.save_s": ["instance_io.save"],
    "generators.generate_s": ["generators.generate"],
    "cli.self_s": ["cli"],
}
CALLS = {
    "equilibrium.calls": ["equilibrium"],
    "gradients.adjoint_calls": ["gradients.adjoint"],
    "estimators.huber_calls": ["estimators.huber"],
    "projection.calls": ["projection"],
    "optimize.ascents": ["optimize.huber", "optimize.sigmoid"],
    "greedy.betweenness_calls": ["greedy.betweenness"],
    "stats.median_calls": ["stats.median"],
}
# counters read off the traced functions' results
COUNTERS = ("equilibrium.lsqr_iters", "optimize.iters", "optimize.cap_hits",
            "greedy.candidate_evals", "greedy.committed",
            "treedp.root_table_entries")


def _record_result(counts, name, result):
    if name == "equilibrium":
        counts["equilibrium.lsqr_iters"] += result.iterations
    elif name in ("optimize.huber", "optimize.sigmoid"):
        counts["optimize.iters"] += result.iterations
        counts["optimize.cap_hits"] += not result.converged
    elif name == "greedy.lazy":
        counts["greedy.candidate_evals"] += sum(result.evals_per_iter)
        counts["greedy.committed"] += len(result.stooges)
    elif name == "treedp.dp":
        counts["treedp.root_table_entries"] += len(result.root_table or ())


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.

    `phase` tags new spans ("setup" or "ops") so that set-up work and
    operation work can be normalised apart.
    """

    def __init__(self):
        # (name, parent index or -1, start, end, child time, phase, error)
        self.spans = []
        self.phase = "setup"
        self._stack = []  # [span index, child time so far]
        self._phase_counts = {}
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append([index, 0.0])
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans[index] = (name, parent, start, end, child,
                                       tracer.phase, error)
            if name == "bench.method_runner":
                return tracer._wrap("bench.runner", result)
            _record_result(tracer._counts(tracer.phase), name, result)
            return result

        return traced

    def _counts(self, phase):
        return self._phase_counts.setdefault(
            phase, dict.fromkeys(COUNTERS, 0))

    def _replace(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def __enter__(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "medianflip" or key.startswith("medianflip.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        init = treedp.TreeInstance.__dict__["__post_init__"]
        self._replace(treedp.TreeInstance, "__post_init__",
                      self._wrap("treedp.instance", init))
        adjacency = network.Network.__dict__["adjacency"]
        self._replace(network.Network, "adjacency", property(
            self._wrap("network.adjacency", adjacency.fget)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False

    def per_layer(self, rounds):
        """Per-layer metrics for one set-up plus one round of operations:
        set-up spans count in full, operation spans are divided by the
        number of rounds run. greedy.runner_calls is per flip search."""

        def share(phase):
            return 1.0 if phase == "setup" else 1.0 / max(rounds, 1)

        selfs, calls = {}, {}
        searches = reruns = errors = 0.0
        for name, parent, start, end, child, phase, error in self.spans:
            selfs[name] = selfs.get(name, 0.0) + share(phase) * (
                end - start - child)
            calls[name] = calls.get(name, 0.0) + share(phase)
            if name == "greedy.flip_search":
                searches += 1
            elif name == "bench.runner" and parent >= 0 and (
                    self.spans[parent][0] == "greedy.flip_search"):
                reruns += 1
            elif name == "equilibrium" and error == "SolverError":
                errors += share(phase)
        counts = dict.fromkeys(COUNTERS, 0.0)
        for phase, values in self._phase_counts.items():
            for key, value in values.items():
                counts[key] += share(phase) * value
        out = {m: (sum(selfs.get(n, 0.0) for n in names), "s")
               for m, names in SELF_TIMES.items()}
        out.update({m: (sum(calls.get(n, 0.0) for n in names), "count")
                    for m, names in CALLS.items()})
        evals = counts["greedy.candidate_evals"]
        out.update({
            "equilibrium.lsqr_iters": (counts["equilibrium.lsqr_iters"],
                                       "count"),
            "equilibrium.errors": (errors, "count"),
            "optimize.iters": (counts["optimize.iters"], "count"),
            "optimize.cap_hits": (counts["optimize.cap_hits"], "count"),
            "greedy.runner_calls": (reruns / searches if searches else 0.0,
                                    "count"),
            "greedy.candidate_evals": (evals, "count"),
            "greedy.useful_ratio": (
                counts["greedy.committed"] / evals if evals else 0.0,
                "ratio"),
            "treedp.root_table_entries": (
                counts["treedp.root_table_entries"], "count"),
        })
        return out
