"""Projected gradient ascent on the continuous resistance relaxation.

Both optimizers share one loop: solve the equilibrium, evaluate a smooth
surrogate of the median (Huber M-estimate or sigmoid headcount), take an
ADAM ascent step on alpha, and project back onto the budget set
{alpha in [0,1]^n : ||alpha - alpha0||_1 <= k}. An ascent returns its
first iterate whose true median exceeds theta; when none does, the
surrogate can move against the true median, so the best iterate by true
median is returned. Whether some iterate flips does not depend on where
the loop stops, so stopping at the first flip leaves every flip budget
as it was.
"""

from dataclasses import dataclass, field
from numbers import Integral

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
# a node whose resistance moved by more than this is a stooge
STOOGE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """ADAM step size, iteration cap, and the l1 budget."""

    budget_k: float
    eta: float = 0.05
    max_iters: int = 500

    def __post_init__(self):
        # NaN fails every comparison, so each check is written to pass
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not self.budget_k >= 0:
            raise ValueError(f"budget_k must be nonnegative, got {self.budget_k}")
        iters = self.max_iters
        if not (isinstance(iters, Integral) and not isinstance(iters, bool)
                and iters >= 1):
            raise ValueError(
                f"max_iters must be an integer >= 1, got {iters!r}")


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
    # why the method stopped: an ascent's "converged", "cap" or "flipped",
    # lazy_greedy's "threshold", "k" or "stalled"; None for the others
    stop: str = None

    @classmethod
    def of(cls, instance, alpha, x, theta, stooges, s=None, **diagnostics):
        """Result of moving instance to alpha (and opinions s) with
        equilibrium x. l0 counts the nodes whose resistance moved by more
        than STOOGE_TOL or whose opinion moved."""
        shift = np.abs(alpha - instance.alpha)
        moved = shift > STOOGE_TOL
        if s is not None and not np.array_equal(s, instance.s):
            moved |= s != instance.s
        else:
            s = None
        med = median(x)
        return cls(alpha_final=alpha, stooges=stooges,
                   l0_budget_used=int(moved.sum()),
                   l1_budget_used=float(shift.sum()), final_median=med,
                   flipped=med > theta, s_final=s, **diagnostics)


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


def _stooge_view(alpha, alpha0):
    moved = np.flatnonzero(np.abs(alpha - alpha0) > STOOGE_TOL)
    return dict(zip(moved.tolist(), alpha[moved].tolist()))


def _ascend(instance, config, gradient_fn, theta):
    """Shared projected-ascent loop. Each iterate's equilibrium is solved
    here, once, starting from the previous iterate's solution (it only
    seeds the sparse solves); gradient_fn(solution) -> (grad, surrogate)
    differentiates it. The final projected alpha is evaluated like every
    other iterate, and takes no step.

    The loop stops at the first iterate whose true median exceeds theta,
    alpha0 included, and returns it (stop "flipped"). Otherwise it runs
    until a step moves no resistance by CONVERGE_TOL ("converged") or
    until max_iters steps ("cap"), and returns the best iterate by true
    median. Each iterate is the same wherever the loop stops, so whether
    an ascent flips does not depend on the exit; only which flipping
    iterate it reports does.
    """
    alpha0 = instance.alpha
    alpha = alpha0.copy()
    state = AdamState(instance.node_count)
    trace = []
    best_alpha, best_x, best_median = alpha, None, -np.inf
    converged = False
    solution = None
    while True:
        solution = equilibrium(instance, alpha=alpha, start=solution)
        true_med = median(solution.x_star)
        if true_med > best_median:
            best_alpha, best_x, best_median = alpha, solution.x_star, true_med
        if true_med > theta:
            stop = "flipped"
            break
        if converged or len(trace) == config.max_iters:
            stop = "converged" if converged else "cap"
            break
        grad, surrogate = gradient_fn(solution)
        trace.append(TraceEntry(len(trace) + 1, surrogate, true_med,
                                float(np.abs(alpha - alpha0).sum())))
        step = adam_step(state, grad, config.eta)
        new_alpha = project_l1_box(alpha + step, alpha0, config.budget_k)
        converged = float(np.max(np.abs(new_alpha - alpha))) < CONVERGE_TOL
        alpha = new_alpha
    return InterventionResult.of(
        instance, best_alpha, best_x, theta,
        _stooge_view(best_alpha, alpha0),
        objective_trace=trace, converged=converged, iterations=len(trace),
        stop=stop,
    )


def projected_huber(instance, config, huber, theta=0.5):
    """Gradient ascent on the Huber M-estimate of the equilibrium opinions."""

    def grad_fn(solution):
        res = huber_gradient(instance, huber, solution)
        return res.gradient, res.y_hat

    return _ascend(instance, config, grad_fn, theta)


def sigmoid_gd(instance, config, sig):
    """Gradient ascent on the sigmoid count of nodes above the threshold
    sig.theta, which is also the flip threshold."""

    def grad_fn(solution):
        res = sigmoid_gradient(instance, sig, solution)
        return res.gradient, res.objective

    return _ascend(instance, config, grad_fn, sig.theta)
