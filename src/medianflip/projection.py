"""Euclidean projection onto {alpha in [0,1]^n : ||alpha - alpha0||_1 <= k}.

alpha0 lies inside the unit box, so projecting v moves each coordinate
from alpha0 toward v by its distance |v_i - alpha0_i| soft-thresholded at
one shared lam >= 0 and capped at the room w_i the box leaves on that
side. The budget used, sum_i clip(|v_i - alpha0_i| - lam, 0, w_i), falls
piecewise linearly in lam, so lam comes from sorting its kinks (the
sorted-threshold method of Duchi et al., ICML 2008, with the box added).
"""

import numpy as np

from .stats import _clip_sum_root


def project_l1_box(alpha_prime, alpha0, k):
    """Exact projection of alpha_prime onto the box-and-ball intersection.

    When clipping alpha_prime to the box already meets the budget (lam = 0),
    the clipped copy is the answer; feasible input thus comes back
    unchanged, bit for bit, which also makes the projection idempotent.
    Otherwise lam > 0 spends the budget exactly. k = 0 collapses the set
    to alpha0.
    """
    alpha_prime = np.asarray(alpha_prime, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    if k < 0:
        raise ValueError(f"budget k must be nonnegative, got {k}")
    if k == 0:
        return np.clip(alpha0, 0.0, 1.0)
    u = alpha_prime - alpha0
    dist = np.abs(u)
    room = np.where(u > 0, 1.0 - alpha0, alpha0)
    if np.minimum(dist, room).sum() <= k:
        return np.clip(alpha_prime, 0.0, 1.0)
    lam = _clip_sum_root(dist, room, k)
    return alpha0 + np.sign(u) * np.clip(dist - lam, 0.0, room)
