import csv
import json

import numpy as np
import pytest

from medianflip import Instance, build_network, equilibrium
from medianflip.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    compare_stooges,
    emit_report,
    method_runner,
    run_experiment,
)
from medianflip.greedy import min_budget_to_flip
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


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report(ExperimentReport([], {}), path)
        rows = list(csv.reader(open(path)))
        assert rows == [list(CSV_COLUMNS)]

    def test_one_record_one_row(self, tmp_path):
        rec = RunRecord(instance="i", method="greedy", seed=0, n=3, m=2,
                        theta=0.5, budget=1.0, l1_used=0.5, l0_used=1,
                        flipped=True, final_median=0.6, runtime_ms=1.5)
        path = tmp_path / "out.csv"
        emit_report(ExperimentReport([rec], {}), path)
        rows = list(csv.reader(open(path)))
        assert len(rows) == 2
        assert rows[1][0] == "i" and rows[1][9] == "true"

    def test_json_round_trip(self, tmp_path):
        inst = low_instance()
        config = ExperimentConfig(inst, methods=("greedy",), budget=1,
                                  seeds=(0,))
        report = run_experiment(config)
        path = tmp_path / "out.json"
        emit_report(report, path, format="json")
        doc = json.loads(open(path).read())
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
