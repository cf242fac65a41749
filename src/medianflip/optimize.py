"""Projected gradient ascent on the continuous resistance relaxation.

Both optimizers share one loop: solve the equilibrium, evaluate a smooth
surrogate of the median (Huber M-estimate or sigmoid headcount), take an
ADAM ascent step on alpha, and project back onto the budget set
{alpha in [0,1]^n : ||alpha - alpha0||_1 <= k}. The surrogate can move
against the true median, so the best iterate by true median is returned.
"""

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import equilibrium
from .gradients import huber_gradient, sigmoid_gradient
from .projection import project_l1_box
from .stats import median

# ADAM moment decay rates and denominator guard (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# an ascent has converged once no resistance moves more than this per step
CONVERGE_TOL = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """ADAM step size, iteration cap, and the l1 budget."""

    budget_k: float
    eta: float = 0.05
    max_iters: int = 500

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.budget_k < 0:
            raise ValueError(f"budget_k must be nonnegative, got {self.budget_k}")


@dataclass
class TraceEntry:
    """One optimizer iteration: surrogate value, true median, budget use."""

    iteration: int
    surrogate: float
    true_median: float
    l1_used: float


@dataclass
class InterventionResult:
    """Outcome of any intervention method, continuous or discrete."""

    alpha_final: np.ndarray
    stooges: dict
    l0_budget_used: int
    l1_budget_used: float
    final_median: float
    flipped: bool
    objective_trace: list = field(default_factory=list)
    converged: bool = True
    iterations: int = 0
    evals_per_iter: list = field(default_factory=list)
    s_final: np.ndarray = None  # innate opinions, when the method moved them


class AdamState:
    """First/second moment accumulators with bias correction."""

    def __init__(self, n):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0


def adam_step(state, gradient, eta):
    """One ascent step; returns the increment to add to alpha."""
    state.t += 1
    state.m = BETA1 * state.m + (1 - BETA1) * gradient
    state.v = BETA2 * state.v + (1 - BETA2) * gradient**2
    m_hat = state.m / (1 - BETA1**state.t)
    v_hat = state.v / (1 - BETA2**state.t)
    return eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _stooge_view(alpha, alpha0, tol=1e-9):
    return {
        int(u): float(alpha[u])
        for u in np.nonzero(np.abs(alpha - alpha0) > tol)[0]
    }


def _ascend(instance, config, gradient_fn, theta):
    """Shared projected-ascent loop; gradient_fn(alpha) -> (grad, surrogate, x*)."""
    alpha0 = instance.alpha
    n = instance.node_count
    k = config.budget_k
    if k == 0:
        x = equilibrium(instance).x_star
        med = median(x)
        return InterventionResult(
            alpha_final=alpha0.copy(),
            stooges={},
            l0_budget_used=0,
            l1_budget_used=0.0,
            final_median=med,
            flipped=med > theta,
        )

    alpha = alpha0.copy()
    state = AdamState(n)
    trace = []
    best_alpha, best_median = alpha0.copy(), -np.inf
    converged = False
    it = 0
    while it < config.max_iters:
        it += 1
        grad, surrogate, x_star = gradient_fn(alpha)
        true_med = median(x_star)
        trace.append(TraceEntry(it, surrogate, true_med,
                                float(np.abs(alpha - alpha0).sum())))
        if true_med > best_median:
            best_median = true_med
            best_alpha = alpha.copy()
        step = adam_step(state, grad, config.eta)
        new_alpha = project_l1_box(alpha + step, alpha0, k)
        drift = float(np.max(np.abs(new_alpha - alpha)))
        alpha = new_alpha
        if drift < CONVERGE_TOL:
            converged = True
            break
    # the final projected alpha has not been evaluated yet
    final_med = median(equilibrium(instance, alpha=alpha).x_star)
    if final_med > best_median:
        best_median = final_med
        best_alpha = alpha.copy()
    return InterventionResult(
        alpha_final=best_alpha,
        stooges=_stooge_view(best_alpha, alpha0),
        l0_budget_used=int(np.sum(np.abs(best_alpha - alpha0) > 1e-9)),
        l1_budget_used=float(np.abs(best_alpha - alpha0).sum()),
        final_median=best_median,
        flipped=best_median > theta,
        objective_trace=trace,
        converged=converged,
        iterations=it,
    )


def projected_huber(instance, config, huber, theta=0.5):
    """Gradient ascent on the Huber M-estimate of the equilibrium opinions."""

    def grad_fn(alpha):
        res = huber_gradient(instance, huber, alpha=alpha)
        return res.gradient, res.y_hat, res.x_star

    return _ascend(instance, config, grad_fn, theta)


def sigmoid_gd(instance, config, sig, theta=None):
    """Gradient ascent on the sigmoid count of nodes above the threshold."""
    if theta is None:
        theta = sig.theta

    def grad_fn(alpha):
        res = sigmoid_gradient(instance, sig, alpha=alpha)
        return res.gradient, res.objective, res.x_star

    return _ascend(instance, config, grad_fn, theta)
