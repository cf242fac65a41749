"""The benchmark's workloads: inputs built from the run's seed, one timed
operation per input, the answer checks and the workload's answer metric.

The grid and tree workloads run a fixed population of generator draws
(the first criterion-08 grid seeds, the first org charts), relabelled
by a permutation drawn from the run's seed. Their answers (flip budgets,
DP costs) differ widely between draws, so a run covers its whole
population and two runs with different seeds see the same graphs under
different node ids, tie-breaks and summation orders. sigmoid_large
draws a fresh 10 000-node graph per seed; at that size its figures
barely move between draws.
"""

import io
import json
import os
from contextlib import redirect_stdout
from importlib import import_module

import numpy as np

import checks

# import_module, because the package rebinds the name "equilibrium" to
# the function of that module
bench, cli, generators, greedy, instance_io, network, treedp = (
    import_module(f"medianflip.{name}") for name in (
        "bench", "cli", "generators", "greedy", "instance_io", "network",
        "treedp"))

THETA = 0.5
# ADAM iterations per ascent in both continuous workloads. At the library
# default of 500 one Huber flip search on a 10x10 grid takes about 48 s,
# longer than a run.
ASCENT_ITERS = 25
RESOLUTION = 0.25  # l1 resolution of the continuous flip search
SIGMOID_STOOGES = 500  # fixed budget of sigmoid_large, 5% of n


class Case:
    """One input: the program's instance, and the benchmark's own copy of
    it (edge list, resistances, opinions) that the checks solve from."""

    def __init__(self, draw, edges, directed, alpha0, s, instance, path):
        self.draw = draw
        self.n = len(s)
        self.edges = edges
        self.directed = directed
        self.alpha0 = alpha0
        self.s = s
        self.instance = instance
        self.path = path
        self.base_median = None

    @property
    def view(self):
        return self.n, self.edges, self.directed, self.alpha0, self.s


class Workload:
    """Builds its cases in build(); run(case) is the timed operation."""

    topology = None
    params = {}
    population = None  # generator seeds; None draws one graph per run seed

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.cases = []

    def build(self):
        draws = self.population or [self.seed]
        self.cases = [self._case(draw) for draw in draws]

    def _case(self, draw):
        spec = generators.GeneratorSpec(self.topology, dist="normal",
                                        seed=draw, params=self.params)
        inst = generators.generate(spec)
        net = inst.network
        edges = [(int(u), int(v), float(w))
                 for u, v, w in zip(net.arc_src, net.arc_dst, net.arc_w)
                 if net.directed or u <= v]
        alpha0, s = inst.alpha, inst.s
        if self.population is not None:
            perm = np.random.default_rng([self.seed, draw]).permutation(
                net.node_count)
            edges = [(int(perm[u]), int(perm[v]), w) for u, v, w in edges]
            alpha0, s = np.empty_like(alpha0), np.empty_like(s)
            alpha0[perm], s[perm] = inst.alpha, inst.s
            relabelled = network.build_network(net.node_count, edges,
                                               directed=net.directed)
            inst = network.Instance(relabelled, alpha0, s)
        path = os.path.join(self.out_dir,
                            f"{self.name}-seed{self.seed}-draw{draw}.json")
        instance_io.save_instance(inst, path)
        return Case(draw, edges, net.directed, alpha0.copy(), s.copy(),
                    inst, path)


def _flip_search(case, method, continuous, params=None):
    """min_budget_to_flip through bench.method_runner, keeping what the
    checks need of every runner answer: (budget, alpha, stooges, median,
    flipped). Records stay small, so that peak memory does not grow with
    the number of operations a run fits in."""
    runner = bench.method_runner(method, theta=THETA, seed=case.draw,
                                 params=params)
    calls = []

    def recording(instance, budget):
        result = runner(instance, budget)
        calls.append((budget, result.alpha_final, result.stooges,
                      result.final_median, result.flipped))
        return result

    found = greedy.min_budget_to_flip(case.instance, recording, theta=THETA,
                                      continuous=continuous,
                                      resolution=RESOLUTION)
    return found, calls


class HuberGrid(Workload):
    name = "huber_grid"
    topology = "grid"
    population = [0, 1, 2, 3, 4, 5]
    ascent_iters = ASCENT_ITERS

    def run(self, case):
        return _flip_search(case, "huber", True,
                            params={"max_iters": self.ascent_iters})

    def check(self, case, record):
        found, calls = record
        return checks.check_continuous_search(case.view, calls, found,
                                              RESOLUTION, THETA)

    def answer(self, cases, records):
        """Mean flip budget in stooge equivalents (twice the l1 radius),
        as a percentage of n."""
        return float(np.mean([200.0 * found / case.n
                              for case, (found, _) in zip(cases, records)]))


BASELINES = ("random", "degree", "centrality")


class GreedyGrid(Workload):
    name = "greedy_grid"
    topology = "grid"
    # 6x6: the linear scan reruns greedy for every k, 18-40 s per search
    # at 10x10
    params = {"rows": 6, "cols": 6}
    population = [0, 1, 2, 3, 4]

    def run(self, case):
        return {method: _flip_search(case, method, False)
                for method in ("greedy",) + BASELINES}

    def check(self, case, record):
        problems = []
        for method, (found, calls) in record.items():
            problems += [f"{method}: {p}" for p in
                         checks.check_discrete_search(case.view, calls,
                                                      found, THETA)]
            if method in BASELINES and found:
                selection = list(calls[-1][2].items())
                problems += [f"{method}: {p}" for p in
                             checks.check_baseline_scan(
                                 case.view, selection,
                                 self._measure(case, method), found, THETA)]
        return problems

    @staticmethod
    def _measure(case, method):
        n = case.n
        if method == "random":
            order = np.random.default_rng(case.draw).permutation(n)
            measure = np.empty(n)
            measure[order] = np.arange(n, 0, -1)
            return measure
        if method == "degree":
            measure = np.zeros(n)
            for u, v, w in checks.arcs(case.edges, case.directed):
                measure[u] += w
            return measure
        import networkx as nx
        graph = nx.DiGraph() if case.directed else nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((u, v) for u, v, _ in case.edges if u != v)
        bc = nx.betweenness_centrality(graph, normalized=False)
        return np.array([bc[u] for u in range(n)])

    def answer(self, cases, records):
        """Mean greedy flip budget as a percentage of n."""
        return float(np.mean([100.0 * record["greedy"][0] / case.n
                              for case, record in zip(cases, records)]))


class TreedpOrg(Workload):
    name = "treedp_org"
    topology = "org_chart"
    # 120 nodes: one both-mode solve takes about 3.5 s at 200 and 47 s at
    # 400. Its time also depends on the order in which children are
    # merged, which the relabelling changes, so a run averages many draws.
    params = {"n": 120}
    population = list(range(16))

    def run(self, case):
        tree = treedp.TreeInstance(case.instance, mode="both")
        result = treedp.tree_dp_min_stooges(tree, theta=THETA)
        alpha, s = treedp.apply_assignment(tree, result.assignment)
        x = treedp.tree_equilibrium(tree, alpha=alpha, s=s)
        return result.cost, result.assignment, x

    def check(self, case, record):
        cost, assignment, x = record
        problems = []
        if cost != len(assignment):
            problems.append(f"cost {cost} for {len(assignment)} stooges")
        if set(assignment.values()) - {"one"}:
            problems.append("both-mode assignment with another label")
        return problems + checks.check_tree_answer(
            case.view, set(assignment), x, THETA)

    def answer(self, cases, records):
        """Mean minimum stooge count as a percentage of n."""
        return float(np.mean([100.0 * cost / case.n
                              for case, (cost, _, _) in zip(cases, records)]))


class SigmoidLarge(Workload):
    name = "sigmoid_large"
    topology = "ba"
    params = {"n": 10000}
    ascent_iters = ASCENT_ITERS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.ops = 0

    def run(self, case):
        self.ops += 1
        out = os.path.join(self.out_dir, f"{self.name}-answer{self.ops}.json")
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main([
                "optimize", "--instance", case.path, "--method", "sigmoid",
                "--budget", str(SIGMOID_STOOGES), "--theta", str(THETA),
                "--max-iters", str(self.ascent_iters), "--out", out])
        # the summary lines; one "stooge" line per moved node is dropped
        return code, stdout.getvalue().split("\nstooge ", 1)[0], out

    @staticmethod
    def _reported(stdout):
        fields = dict(line.split(" ", 1) for line in stdout.splitlines())
        return float(fields["final_median"]), fields["flipped"] == "true"

    def _base_median(self, case):
        if case.base_median is None:
            x, _ = checks.iterate_equilibrium(*case.view)
            case.base_median = checks.upper_median(x)
        return case.base_median

    def check(self, case, record):
        code, stdout, out = record
        if code != 0:
            return [f"exit code {code}"]
        with open(out) as fh:
            doc = json.load(fh)
        problems = []
        if doc["s"] != case.s.tolist() or len(doc["edges"]) != len(
                case.edges):
            problems.append("written instance changed s or the edges")
        median, flipped = self._reported(stdout)
        return problems + checks.check_sparse_answer(
            case.view, np.array(doc["alpha"]), median, flipped,
            SIGMOID_STOOGES / 2, self._base_median(case), THETA)

    def answer(self, cases, records):
        """Share of the gap from the unmodified median up to theta that
        the fixed budget leaves open, in percent."""
        return float(np.mean([
            100.0 * (THETA - self._reported(stdout)[0])
            / (THETA - self._base_median(case))
            for case, (_, stdout, _) in zip(cases, records)]))


WORKLOADS = {w.name: w for w in (HuberGrid, GreedyGrid, TreedpOrg,
                                 SigmoidLarge)}
