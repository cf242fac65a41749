"""Huber M-estimation and the sigmoid threshold objective.

The Huber M-estimate of a vector x solves min_y sum_i H_c(x_i - y),
exactly: its stationarity condition is piecewise linear in y, so sorting
the kinks x_i +- c gives the root (see huber_m_estimate). The tuning
constant c interpolates between the median (c -> 0) and the mean
(c -> inf); find_c picks a c whose estimate tracks the median under small
random perturbations of the instance. The sigmoid objective is a smooth
count of nodes above a threshold theta.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import SolverError, equilibrium
from .stats import _clip_sum_root, median

log = logging.getLogger(__name__)

# find_c counts trial-average errors within this relative distance of the
# smallest as tied. On a 10x10 grid the errors of six small c agreed to
# 2e-13 relative, so the solve's rounding alone ordered them, while the
# next candidate lay 2.5e-3 away. GMRES solves (n > 200) matched a dense
# solve to within 9e-11 relative on ba and gnp graphs of 240 to 3000
# nodes, so 1e-9 sits above solver noise and far below such gaps.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class HuberConfig:
    """Tuning constant c of the M-estimator, which is solved in closed form."""

    c: float

    def __post_init__(self):
        if not self.c > 0:  # NaN fails
            raise ValueError(f"c must be positive, got {self.c}")


@dataclass(frozen=True)
class SigmoidConfig:
    """Threshold theta and temperature tau of the smooth step."""

    theta: float = 0.5
    tau: float = 25.0

    def __post_init__(self):
        if not self.tau > 0:  # NaN fails
            raise ValueError(f"tau must be positive, got {self.tau}")


def huber_loss(x, c):
    """H_c(x): quadratic for |x| <= c, linear with matched slope beyond."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    x = abs(x)
    if x <= c:
        return 0.5 * x * x
    return c * (x - 0.5 * c)


def huber_m_estimate(x, config):
    """Minimize sum_i H_c(x_i - y) over y exactly.

    The minimizers are the roots of the psi-sum sum_i clip(x_i - y, -c, c),
    which equals sum_i clip(x_i + c - y, 0, 2c) - n c: a piecewise-linear
    equation in y solved exactly by sorting its kinks x_i +- c. The root
    is unique unless n is even and the two middle values lie more than 2c
    apart; then half the residuals sit at -c and half at +c everywhere on
    the flat segment between them, every point there minimizes, and the
    segment's midpoint, the mean of the two middle values, is returned.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("huber_m_estimate of empty vector")
    c, n = config.c, x.size
    if n % 2 == 0:
        lo, hi = np.sort(x)[n // 2 - 1:n // 2 + 1]
        if hi - lo > 2 * c:
            return float(0.5 * (lo + hi))
    return float(_clip_sum_root((x + c)[None], 2 * c, (n * c,))[0])


def _huber_estimates(x, cs):
    """huber_m_estimate of a nonempty x at each tuning constant in cs,
    bit for bit, with every c that needs a root solved in one batched
    sort of the kinks."""
    n = x.size
    y = np.empty(len(cs))
    wide = np.zeros(len(cs), dtype=bool)
    if n % 2 == 0:
        lo, hi = np.sort(x)[n // 2 - 1:n // 2 + 1]
        wide = hi - lo > 2 * cs
        y[wide] = 0.5 * (lo + hi)
    c = cs[~wide, None]
    y[~wide] = _clip_sum_root(x + c, 2 * c, n * c[:, 0])
    return y


# find_c's perturbation size, trial count and candidate grid of c
FIND_C_EPSILON = 0.05
FIND_C_TRIALS = 10
C_GRID = np.logspace(-4, 0, 25)


def find_c(instance, seed=None):
    """Pick the tuning constant in C_GRID whose M-estimate best tracks
    the median.

    Each of FIND_C_TRIALS trials perturbs every resistance and innate
    opinion by +-FIND_C_EPSILON (sign chosen at random), clamps to
    [0, 1], solves the equilibrium, and scores each candidate c by
    |y_hat_c - median(x*)|. Returns the candidate with the smallest
    trial-average error, ties broken toward the smaller c; errors within
    TIE_RTOL relative of the smallest count as tied. Trials whose
    equilibrium solve fails are skipped; all failing is an error.
    """
    n = instance.node_count
    errors = np.zeros(len(C_GRID))
    used = 0
    for child_seed in np.random.SeedSequence(seed).spawn(FIND_C_TRIALS):
        rng = np.random.default_rng(child_seed)
        da = FIND_C_EPSILON * rng.choice([-1.0, 1.0], size=n)
        ds = FIND_C_EPSILON * rng.choice([-1.0, 1.0], size=n)
        alpha = np.clip(instance.alpha + da, 0.0, 1.0)
        s = np.clip(instance.s + ds, 0.0, 1.0)
        perturbed = instance.with_alpha(alpha).with_s(s)
        try:
            x = equilibrium(perturbed).x_star
        except SolverError as exc:
            log.warning("find_c trial skipped: %s", exc)
            continue
        errors += np.abs(_huber_estimates(x, C_GRID) - median(x))
        used += 1
    if used == 0:
        raise SolverError("find_c: every perturbation trial failed")
    errors /= used
    tied = errors <= errors.min() * (1.0 + TIE_RTOL)
    return float(C_GRID[int(np.argmax(tied))])


def sigmoid(z):
    """1 / (1 + exp(-z)), written through tanh so no exp can overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def sigmoid_objective(x, config):
    """Smooth headcount: sum_u 1 / (1 + exp(tau * (theta - x_u)))."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(sigmoid(config.tau * (x - config.theta))))
