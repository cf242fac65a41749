"""Friedkin-Johnsen opinion dynamics and median-shifting interventions."""

from .network import Instance, Network, NetworkError, build_network
from .stats import mean, median, quantile
from .equilibrium import (
    EquilibriumOperator,
    EquilibriumSolution,
    SolverError,
    equilibrium,
    simulate,
)
from .estimators import (
    HuberConfig,
    SigmoidConfig,
    find_c,
    huber_loss,
    huber_m_estimate,
    sigmoid_objective,
)
from .projection import project_l1_box
from .gradients import (
    equilibrium_jacobian_action,
    huber_gradient,
    sigmoid_gradient,
)
from .optimize import (
    InterventionResult,
    OptimizerConfig,
    projected_huber,
    sigmoid_gd,
)
from .greedy import (
    baseline_select,
    betweenness,
    jaccard,
    lazy_greedy,
    min_budget_to_flip,
    round_to_stooges,
    score_total,
)
from .treedp import (
    TreeInstance,
    brute_force_min_stooges,
    is_hierarchy,
    tree_dp_min_stooges,
    tree_equilibrium,
)
from .generators import GeneratorSpec, generate
from .gadgets import (
    SetCoverSpec,
    gen_quantile_gadget,
    gen_set_cover_gadget,
    intervene_on_sets,
)
from .instance_io import (
    InstanceIOError,
    instance_stats,
    load_edge_list,
    load_instance,
    save_instance,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    compare_stooges,
    emit_report,
    method_runner,
    run_experiment,
)

__all__ = [
    "Instance",
    "Network",
    "NetworkError",
    "build_network",
    "mean",
    "median",
    "quantile",
    "EquilibriumOperator",
    "EquilibriumSolution",
    "SolverError",
    "equilibrium",
    "simulate",
    "HuberConfig",
    "SigmoidConfig",
    "find_c",
    "huber_loss",
    "huber_m_estimate",
    "sigmoid_objective",
    "project_l1_box",
    "equilibrium_jacobian_action",
    "huber_gradient",
    "sigmoid_gradient",
    "InterventionResult",
    "OptimizerConfig",
    "projected_huber",
    "sigmoid_gd",
    "baseline_select",
    "betweenness",
    "jaccard",
    "lazy_greedy",
    "min_budget_to_flip",
    "round_to_stooges",
    "score_total",
    "TreeInstance",
    "brute_force_min_stooges",
    "is_hierarchy",
    "tree_dp_min_stooges",
    "tree_equilibrium",
    "GeneratorSpec",
    "generate",
    "SetCoverSpec",
    "gen_quantile_gadget",
    "gen_set_cover_gadget",
    "intervene_on_sets",
    "InstanceIOError",
    "instance_stats",
    "load_edge_list",
    "load_instance",
    "save_instance",
    "ExperimentConfig",
    "ExperimentReport",
    "compare_stooges",
    "emit_report",
    "method_runner",
    "run_experiment",
]
