import csv
import gc
import json
import weakref

import numpy as np
import pytest

import medianflip.bench as bench
import medianflip.greedy as greedy
from medianflip import (
    GeneratorSpec,
    Instance,
    OptimizerConfig,
    SigmoidConfig,
    build_network,
    equilibrium,
    generate,
)
from medianflip.bench import (
    CONTINUOUS_METHODS,
    CSV_COLUMNS,
    METHOD_OPTIONS,
    METHODS,
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    compare_stooges,
    emit_report,
    method_answer,
    method_runner,
    run_experiment,
)
from medianflip.greedy import (
    min_budget_to_flip,
    round_to_stooges,
    score_total,
)
from medianflip.stats import median

from helpers import random_connected_instance


def small_instance(seed=0, n=8):
    rng = np.random.default_rng(seed)
    return random_connected_instance(rng, n, alpha_range=(0.45, 0.55))


def low_instance():
    # path of three nodes, opinions low enough that one stooge flips
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return Instance(net, np.full(3, 0.5), np.array([0.40, 0.45, 0.60]))


class TestConfigValidation:
    def test_needs_methods(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(low_instance(), methods=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(low_instance(), methods=("simplex",))

    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(low_instance(), methods=("greedy",), seeds=())

    @pytest.mark.parametrize("resolution", [0.0, -0.5, float("nan"), True])
    def test_resolution_must_be_positive(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            ExperimentConfig(low_instance(), methods=("huber",),
                             resolution=resolution)

    def test_max_budget_nonnegative(self):
        with pytest.raises(ValueError, match="max_budget"):
            ExperimentConfig(low_instance(), max_budget=-1)

    def test_method_params_name_methods_and_read_options(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(low_instance(),
                             method_params={"hubr": {"max_iters": 3}})
        with pytest.raises(ValueError, match="max_iter"):
            ExperimentConfig(low_instance(), methods=("huber",),
                             method_params={"huber": {"max_iter": 3}})
        for method in METHODS:
            params = {name: None for name in METHOD_OPTIONS[method]}
            ExperimentConfig(low_instance(), method_params={method: params})

    @pytest.mark.parametrize("key", ["budget", "max_budget"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_budgets_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match="budget must be"):
            ExperimentConfig(low_instance(), methods=("huber", "greedy"),
                             **{key: value})

    def test_discrete_budget_must_be_whole(self):
        ExperimentConfig(low_instance(), methods=("huber",), budget=2.5)
        with pytest.raises(ValueError, match="greedy budget"):
            ExperimentConfig(low_instance(), methods=("huber", "greedy"),
                             budget=2.5)
        # a continuous cap may be any finite number, a discrete one not
        ExperimentConfig(low_instance(), methods=("huber", "sigmoid"),
                         max_budget=2.5)
        with pytest.raises(ValueError, match="max_budget of a discrete"):
            ExperimentConfig(low_instance(), methods=("huber", "greedy"),
                             max_budget=2.5)

    @pytest.mark.parametrize("method_params,match", [
        ({"huber": {"c": 0}}, "c must be positive"),
        ({"greedy": {"phi": 2}}, "phi must lie"),
        ({"greedy-score": {"phi": float("nan")}}, "phi must lie"),
        ({"sigmoid": {"eta": 0}}, "eta must be positive"),
        ({"sigmoid": {"tau": float("nan")}}, "tau must be positive"),
        ({"huber": {"max_iters": 2.5}}, "max_iters must be"),
        ({"tree-dp": {"mode": "all"}}, "mode must be one of")])
    def test_option_values_checked(self, method_params, match):
        # the method need not be among those run for its options to count
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(low_instance(), methods=("random",),
                             method_params=method_params)

    def test_theta_must_be_finite(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            ExperimentConfig(low_instance(), theta=float("nan"))


class TestMethodRunner:
    def test_find_c_once_per_live_instance(self, monkeypatch):
        calls = []
        real = bench.find_c
        monkeypatch.setattr(bench, "find_c", lambda instance, seed: (
            calls.append(seed), real(instance, seed=seed))[1])
        runner = method_runner("huber", params={"max_iters": 1})
        # each grid is dropped before the next is built, so a cache keyed
        # on id() would hand a reused id the previous grid's c
        for seed in range(40):
            inst = generate(GeneratorSpec("grid", seed=seed,
                                          params={"rows": 4, "cols": 4}))
            runner(inst, 0.5)
            runner(inst, 1.0)
        assert len(calls) == 40

    def test_given_c_of_zero_fails_when_the_runner_is_built(self):
        with pytest.raises(ValueError, match="c must be positive"):
            method_runner("huber", params={"c": 0})

    @pytest.mark.parametrize("method,params", [
        ("huber", {"eta": -1.0}), ("sigmoid", {"max_iters": 0}),
        ("greedy", {"phi": 1.5}), ("tree-dp", {"mode": "pin"})])
    def test_every_given_value_fails_when_the_runner_is_built(self, method,
                                                               params):
        (name, _), = params.items()
        with pytest.raises(ValueError, match=name):
            method_runner(method, params=params)

    def test_non_finite_theta_fails_when_the_runner_is_built(self):
        for theta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="theta must be finite"):
                method_runner("greedy", theta=theta)

    @pytest.mark.parametrize("method,budget", [
        ("greedy", 2.7), ("greedy", -0.5), ("greedy", float("inf")),
        ("random", float("nan")), ("tree-dp", 1.5),
        ("sigmoid", float("nan")), ("huber", float("inf")),
        ("sigmoid", -0.5)])
    def test_runner_rejects_ill_posed_budgets(self, method, budget):
        runner = method_runner(method, params={"c": 0.1} if method == "huber"
                               else None)
        with pytest.raises(ValueError, match=f"{method} budget must be"):
            runner(low_instance(), budget)

    def test_tree_dp_search_solves_the_dp_once(self, monkeypatch):
        calls = []
        real = bench.tree_dp_min_stooges
        monkeypatch.setattr(bench, "tree_dp_min_stooges", lambda *a, **k: (
            calls.append(1), real(*a, **k))[1])
        inst = generate(GeneratorSpec("org_chart", seed=0,
                                      params={"n": 120}))
        budget, answer = method_answer(inst, "tree-dp", seed=0,
                                       params={"mode": "both"})
        assert budget == 10 and answer.flipped
        assert len(calls) == 1
        # every budget still gets an answer of its own
        runner = method_runner("tree-dp", params={"mode": "both"})
        first, again = runner(inst, 10), runner(inst, 10)
        assert first is not again and first.flipped and again.flipped
        assert first.alpha_final is not again.alpha_final

    def test_tree_dp_memo_holds_instances_weakly(self):
        runner = method_runner("tree-dp")
        refs = []
        for seed in range(3):
            inst = generate(GeneratorSpec("org_chart", seed=seed,
                                          params={"n": 12}))
            runner(inst, 1)
            refs.append(weakref.ref(inst))
        del inst
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3

    def test_given_options_reach_their_readers(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "lazy_greedy",
                            lambda *args, **kwargs: calls.append(kwargs))
        monkeypatch.setattr(bench, "sigmoid_gd",
                            lambda *args: calls.append(args[1:]))
        inst = low_instance()
        method_runner("greedy", params={"phi": 0.3})(inst, 1)
        method_runner("greedy-score")(inst, 1)
        method_runner("sigmoid", theta=0.4,
                      params={"tau": 7.0, "eta": 0.2})(inst, 0.5)
        method_runner("sigmoid")(inst, 0.5)
        assert calls[0] == {"gain": None, "theta": 0.5, "phi": 0.3}
        # an option not given is left to the reader's own default
        # greedy-score's gain is score_total pivoted at the runner's theta
        gain = calls[1].pop("gain")
        assert (gain.func, gain.args, gain.keywords) == (
            score_total, (), {"theta": 0.5})
        assert calls[1] == {"theta": 0.5}
        assert calls[2] == (OptimizerConfig(0.5, eta=0.2),
                            SigmoidConfig(theta=0.4, tau=7.0))
        assert calls[3] == (OptimizerConfig(0.5), SigmoidConfig())

    @pytest.mark.parametrize("method", METHODS)
    def test_rejects_options_the_method_does_not_read(self, method):
        unread = {"phi", "c", "tau", "eta", "max_iters", "mode"} - set(
            METHOD_OPTIONS[method])
        for name in sorted(unread):
            with pytest.raises(ValueError, match=name):
                method_runner(method, params={name: 1})


class TestRunExperiment:
    def test_random_full_budget_matches_direct_rule(self):
        inst = small_instance(3)
        n = inst.network.node_count
        config = ExperimentConfig(inst, methods=("random",), budget=n,
                                  seeds=(7,))
        report = run_experiment(config)
        rec = report.records[0]
        # stooging everything applies alpha = 1 iff s > theta, no matter
        # which permutation the seed draws
        alpha = np.where(inst.s > 0.5, 1.0, 0.0)
        x = equilibrium(inst, alpha=alpha).x_star
        assert rec.flipped == (median(x) > 0.5)
        assert rec.l0_used == int(np.sum(alpha != inst.alpha))

    def test_budget_search_matches_independent_rerun(self):
        inst = low_instance()
        config = ExperimentConfig(inst, methods=("greedy",), seeds=(0,))
        report = run_experiment(config)
        rec = report.records[0]
        runner = method_runner("greedy", theta=0.5, seed=0)
        expected = min_budget_to_flip(inst, runner, theta=0.5)
        assert rec.budget == float(expected)
        assert rec.flipped

    def test_records_say_why_each_method_stopped(self, tmp_path):
        inst = low_instance()
        config = ExperimentConfig(
            inst, methods=("greedy", "sigmoid", "huber", "degree"),
            seeds=(0,), method_params={"huber": {"c": 0.1}})
        report = run_experiment(config)
        stops = {r.method: r.stop for r in report.records}
        # each search ends on a flipping answer; a baseline has no stop
        assert stops == {"greedy": "threshold", "sigmoid": "flipped",
                         "huber": "flipped", "degree": None}
        path = tmp_path / "r.json"
        emit_report(report, path, format="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert {r["method"]: r["stop"] for r in doc["records"]} == stops
        csv_path = tmp_path / "r.csv"
        emit_report(report, csv_path)
        with open(csv_path) as fh:
            assert next(csv.reader(fh)) == list(CSV_COLUMNS)

    def test_continuous_budget_reported_in_stooge_equivalents(self):
        inst = low_instance()
        config = ExperimentConfig(inst, methods=("sigmoid",), seeds=(0,),
                                  resolution=0.5)
        report = run_experiment(config)
        rec = report.records[0]
        if rec.error is None:
            runner = method_runner("sigmoid", theta=0.5, seed=0)
            found = min_budget_to_flip(inst, runner, theta=0.5,
                                       continuous=True, resolution=0.25)
            assert rec.budget == pytest.approx(2.0 * found)

    def test_tree_dp_failure_isolated(self):
        # undirected triangle: not a hierarchy, tree-dp must fail while
        # greedy still reports normally
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = Instance(net, np.full(3, 0.5), np.array([0.4, 0.45, 0.6]))
        config = ExperimentConfig(inst, methods=("tree-dp", "greedy"),
                                  budget=2, seeds=(0,))
        report = run_experiment(config)
        by_method = {r.method: r for r in report.records}
        assert by_method["tree-dp"].error is not None
        assert "hierarchy" in by_method["tree-dp"].error
        assert by_method["greedy"].error is None

    def test_zero_budget_evaluates_baseline_state(self):
        inst = low_instance()
        config = ExperimentConfig(inst, methods=("greedy",), budget=0,
                                  seeds=(0,))
        rec = run_experiment(config).records[0]
        assert rec.l0_used == 0 and not rec.flipped
        assert rec.final_median == pytest.approx(
            median(equilibrium(inst).x_star))

    def test_aggregates_only_over_successes(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = Instance(net, np.full(3, 0.5), np.array([0.4, 0.45, 0.6]))
        config = ExperimentConfig(inst, methods=("tree-dp",), budget=2,
                                  seeds=(0, 1))
        report = run_experiment(config)
        agg = report.aggregates["tree-dp"]
        assert agg["successes"] == 0 and agg["failures"] == 2
        assert agg["mean_budget"] is None

    def test_deterministic_given_seeds(self):
        inst = small_instance(5)
        config = ExperimentConfig(inst, methods=("random", "greedy"),
                                  budget=3, seeds=(1, 2))
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a.records, b.records):
            assert ra.stooges == rb.stooges
            assert ra.final_median == rb.final_median


def ba_instance():
    # opinions lifted by 0.03: every method flips, none at budget 0
    g = generate(GeneratorSpec("ba", seed=0, params={"n": 12}))
    return Instance(g.network, g.alpha, np.clip(g.s + 0.03, 0.0, 1.0))


def dp_chart():
    # opinions lifted by 0.05: the tree DP's own pass reads median 0.5149
    # with no stooges, where equilibrium reads 0.2618; the DP needs 2
    inst = generate(GeneratorSpec("org_chart", seed=4, params={"n": 10}))
    return inst.with_s(inst.s + 0.05)


def flipped_path():
    # a directed path with alpha = 1: x* = s by equilibrium and by the
    # tree pass alike, so every method flips it with no stooges
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    return Instance(net, np.ones(3), np.array([0.55, 0.60, 0.70]))


def counting(monkeypatch, name):
    """Count the calls of bench.<name>; returns the list of budgets."""
    calls = []
    real = getattr(bench, name)

    def counted(instance, k, *args, **kwargs):
        calls.append(k)
        return real(instance, k, *args, **kwargs)

    monkeypatch.setattr(bench, name, counted)
    return calls


class TestSearchAnswers:
    """A record is the answer its flip search already computed."""

    @pytest.mark.parametrize("method,name", [
        ("greedy", "lazy_greedy"), ("random", "baseline_select")])
    def test_search_runs_each_budget_once(self, monkeypatch, method, name):
        calls = counting(monkeypatch, name)
        inst = ba_instance()
        rec = run_experiment(ExperimentConfig(
            inst, methods=(method,), seeds=(0,))).records[0]
        assert rec.error is None and rec.budget > 0
        # the linear scan tries k = 1..found, each once
        assert calls == list(range(1, int(rec.budget) + 1))

    def test_continuous_search_runs_each_budget_once(self, monkeypatch):
        calls = counting(monkeypatch, "projected_huber")
        rec = run_experiment(ExperimentConfig(
            ba_instance(), methods=("huber",), seeds=(0,),
            method_params={"huber": {"max_iters": 20}})).records[0]
        radii = [config.budget_k for config in calls]
        assert rec.flipped and rec.budget / 2 in radii
        assert len(radii) == len(set(radii)) > 1

    def test_zero_budget_search_solves_the_guard_and_the_answer(
            self, monkeypatch):
        solves = []
        real = greedy.equilibrium

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        # the search's guard and lazy_greedy both solve through greedy
        monkeypatch.setattr(greedy, "equilibrium", counted)
        # a path whose median already exceeds theta
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        inst = Instance(net, np.full(3, 0.5), np.array([0.55, 0.60, 0.70]))
        rec = run_experiment(ExperimentConfig(
            inst, methods=("greedy",), seeds=(0,))).records[0]
        assert rec.error is None and rec.budget == 0
        assert rec.flipped and rec.l0_used == 0 and rec.stooges == ()
        assert rec.final_median == median(real(inst).x_star)
        # the guard's solve, then lazy_greedy's answer at budget 0
        assert len(solves) == 2

    @pytest.mark.parametrize("budget", [None, 0, 3])
    def test_records_equal_direct_runs(self, budget):
        methods = ("huber", "sigmoid", "greedy", "greedy-score", "random",
                   "degree", "centrality")
        params = {"huber": {"max_iters": 20}, "sigmoid": {"max_iters": 20}}
        cases = [(ba_instance(), methods, budget),
                 (dp_chart(), ("tree-dp",), budget)]
        if budget == 0:
            # searches that end at 0: every method's answer there flips
            cases.append((flipped_path(), METHODS, None))
        for inst, run_methods, config_budget in cases:
            report = run_experiment(ExperimentConfig(
                inst, methods=run_methods, seeds=(0, 1),
                budget=config_budget, method_params=params))
            for rec in report.records:
                assert rec.error is None, rec
                if budget == 0:
                    assert rec.budget == 0, rec
                _, res = method_answer(inst, rec.method, seed=rec.seed,
                                       params=params.get(rec.method),
                                       budget=rec.budget)
                if rec.method in CONTINUOUS_METHODS and rec.budget > 0:
                    k = int(np.ceil(rec.budget))
                    stooges = round_to_stooges(res.alpha_final, inst.alpha,
                                               k)
                else:
                    stooges = res.stooges
                assert rec.final_median == res.final_median, rec
                assert rec.stooges == tuple(sorted(stooges)), rec
                assert rec.l0_used == res.l0_budget_used, rec
                assert rec.l1_used == res.l1_budget_used, rec
                assert rec.flipped == res.flipped, rec
                assert rec.stop == res.stop, rec
                if rec.method == "tree-dp" and config_budget == 0:
                    # the DP's own tree pass, not equilibrium's 0.2618
                    assert rec.final_median == pytest.approx(0.5149,
                                                             abs=1e-4)

    @pytest.mark.parametrize("method", sorted(CONTINUOUS_METHODS))
    def test_continuous_methods_get_half_the_stooges(self, method):
        inst = ba_instance()
        params = {"max_iters": 20}
        for k in (0, 3, 5):
            budget, res = method_answer(inst, method, seed=0, params=params,
                                        budget=k)
            direct = method_runner(method, seed=0, params=params)(inst,
                                                                  k / 2)
            assert budget == k
            assert np.array_equal(res.alpha_final, direct.alpha_final)
            assert res.final_median == direct.final_median
            assert res.l1_budget_used == direct.l1_budget_used
            assert res.objective_trace == direct.objective_trace


class TestResultAccounting:
    @pytest.mark.parametrize("method", METHODS)
    def test_l0_and_l1_count_the_moves(self, method):
        inst = generate(GeneratorSpec("org_chart", seed=0,
                                      params={"n": 30}))
        params = {"tree-dp": {"mode": "both"}, "huber": {"max_iters": 30},
                  "sigmoid": {"max_iters": 30}}.get(method)
        _, res = method_answer(inst, method, seed=0, params=params, budget=6)
        shift = np.abs(res.alpha_final - inst.alpha)
        s = inst.s if res.s_final is None else res.s_final
        moved = (shift > 1e-9) | (s != inst.s)
        assert moved.any()
        assert res.l1_budget_used == pytest.approx(shift.sum(), abs=1e-12)
        assert res.l0_budget_used == int(moved.sum())
        if method == "tree-dp":  # pins move opinions too in both mode
            assert res.s_final is not None

    def test_tree_dp_over_budget_is_not_flipped(self):
        # root 0 over leaf 1: the upper median 0.9 is above theta, but
        # the DP's strict majority needs the root pinned, at cost 1
        net = build_network(2, [(0, 1, 1.0)], directed=True)
        inst = Instance(net, np.full(2, 0.5), np.array([0.0, 0.9]))
        _, over = method_answer(inst, "tree-dp", seed=0, budget=0)
        assert over.final_median > 0.5 and not over.flipped
        assert over.stooges == {} and over.l0_budget_used == 0
        assert over.l1_budget_used == 0.0
        _, fits = method_answer(inst, "tree-dp", seed=0, budget=1)
        assert fits.flipped and fits.l0_budget_used == 1

    def test_tree_dp_search_past_an_unflipped_budget_zero(self):
        # root 0 over a fully resistant leaf 1: the equilibrium median 0.9
        # is above theta, but the runner's answer at budget 0 does not
        # flip, so the search goes on to the DP cost of 1
        net = build_network(2, [(0, 1, 1.0)], directed=True)
        inst = Instance(net, np.array([0.5, 1.0]), np.array([0.0, 0.9]))
        assert median(equilibrium(inst).x_star) > 0.5
        rec = run_experiment(ExperimentConfig(
            inst, methods=("tree-dp",))).records[0]
        assert rec.error is None
        assert rec.budget == 1.0 and rec.flipped and rec.l0_used == 1
        assert rec.stooges == (0,)

    def test_tree_dp_search_ends_at_the_dp_cost(self):
        # every budget below the DP cost of 2 leaves the upper median
        # 0.5149 above theta without a strict majority; the search reads
        # the runner's flipped, so it does not stop there
        inst = generate(GeneratorSpec("org_chart", seed=4, params={"n": 10}))
        inst = inst.with_s(inst.s + 0.05)
        rec = run_experiment(ExperimentConfig(
            inst, methods=("tree-dp",),
            method_params={"tree-dp": {"mode": "resistance"}})).records[0]
        assert rec.error is None
        assert rec.budget == 2.0 and rec.l0_used == 2 and rec.flipped
        assert rec.final_median == pytest.approx(0.5169, abs=1e-4)

    def test_tree_dp_searches_end_flipped(self):
        unflipped = []
        for seed in range(60):
            for n in (8, 10, 12):
                inst = generate(GeneratorSpec("org_chart", seed=seed,
                                              params={"n": n}))
                inst = inst.with_s(inst.s + 0.05)
                for mode in ("resistance", "opinion", "both"):
                    rec = run_experiment(ExperimentConfig(
                        inst, methods=("tree-dp",),
                        method_params={"tree-dp": {"mode": mode}}
                    )).records[0]
                    if rec.error is None and not rec.flipped:
                        unflipped.append((seed, n, mode, rec.budget))
        assert unflipped == []


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report(ExperimentReport([], {}), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(CSV_COLUMNS)]

    def test_one_record_one_row(self, tmp_path):
        rec = RunRecord(instance="i", method="greedy", seed=0, n=3, m=2,
                        theta=0.5, budget=1.0, l1_used=0.5, l0_used=1,
                        flipped=True, final_median=0.6, runtime_ms=1.5)
        path = tmp_path / "out.csv"
        emit_report(ExperimentReport([rec], {}), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][0] == "i" and rows[1][9] == "true"

    def test_json_records_hold_every_field(self, tmp_path):
        record = RunRecord(instance="i", method="greedy", seed=0, n=3, m=2,
                           theta=0.5, stooges=(2,))
        path = tmp_path / "r.json"
        emit_report(ExperimentReport([record], {}), path, format="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["records"] == [{**vars(record), "stooges": [2]}]

    def test_json_round_trip(self, tmp_path):
        inst = low_instance()
        config = ExperimentConfig(inst, methods=("greedy",), budget=1,
                                  seeds=(0,))
        report = run_experiment(config)
        path = tmp_path / "out.json"
        emit_report(report, path, format="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["records"]) == 1
        rec = doc["records"][0]
        for col in CSV_COLUMNS:
            assert col in rec
        assert rec["flipped"] == report.records[0].flipped
        assert doc["aggregates"]["greedy"]["successes"] in (0, 1)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(ExperimentReport([], {}), tmp_path / "x", "yaml")


class TestCompareStooges:
    def rec(self, method, seed, stooges):
        return RunRecord(instance="i", method=method, seed=seed, n=4, m=3,
                         theta=0.5, stooges=tuple(stooges), flipped=True)

    def test_single_method_unit_matrix(self):
        report = ExperimentReport([self.rec("greedy", 0, (1, 2))], {})
        matrix, methods = compare_stooges(report)
        assert methods == ["greedy"]
        np.testing.assert_array_equal(matrix, [[1.0]])

    def test_identical_sets_give_one(self):
        report = ExperimentReport(
            [self.rec("greedy", 0, (1, 2)), self.rec("random", 0, (1, 2))],
            {})
        matrix, _ = compare_stooges(report)
        assert matrix[0, 1] == 1.0 and matrix[1, 0] == 1.0

    def test_disjoint_sets_give_zero(self):
        report = ExperimentReport(
            [self.rec("greedy", 0, (1, 2)), self.rec("random", 0, (3,))],
            {})
        matrix, _ = compare_stooges(report)
        assert matrix[0, 1] == 0.0

    def test_missing_stooges_rejected(self):
        report = ExperimentReport([self.rec("greedy", 0, ())], {})
        with pytest.raises(ValueError, match="no stooge set"):
            compare_stooges(report)

    def test_averages_over_shared_seeds(self):
        report = ExperimentReport(
            [self.rec("greedy", 0, (1,)), self.rec("greedy", 1, (1,)),
             self.rec("random", 0, (1,)), self.rec("random", 1, (2,))],
            {})
        matrix, methods = compare_stooges(report)
        i, j = methods.index("greedy"), methods.index("random")
        assert matrix[i, j] == pytest.approx(0.5)
