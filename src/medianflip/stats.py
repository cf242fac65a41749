"""Order statistics of opinion vectors.

The median follows the upper-median convention: the element at 0-indexed
position floor(n/2) of the ascending sort. For even n this is the larger
of the two central values, which is the convention under which an exact
half/half split of positive and zero opinions yields a positive median.

_clip_sum_root solves the sorted-breakpoint equation behind both the
Huber M-estimate and the l1-box projection.
"""

import numpy as np


def median(x):
    """Upper median: ascending sort, element at position floor(n/2)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("median of empty vector")
    return float(np.sort(x)[x.size // 2])


def quantile(x, q):
    """q-th quantile: ascending sort, element at position floor(q * n).

    quantile(x, 0.5) equals median(x) for every length.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("quantile of empty vector")
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    idx = min(int(np.floor(q * x.size)), x.size - 1)
    return float(np.sort(x)[idx])


def mean(x):
    """Arithmetic mean."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("mean of empty vector")
    return float(x.mean())


def _clip_sum_root(h, w, target):
    """Solve G(t) = sum_i clip(h_i - t, 0, w_i) = target for t, with w >= 0.

    G(t) = sum_i max(h_i - t, 0) - max(h_i - w_i - t, 0) is continuous,
    nonincreasing and linear between its kinks h_i (sign +1) and h_i - w_i
    (sign -1). With the kinks sorted downward, G = C - S t below each kink,
    where C and S are running sums of the signed kinks and of the signs,
    so one sort gives G at every kink, and interpolating between kinks is
    exact. A target outside (0, sum w) clamps to the outermost kink; on a
    flat segment at the target level any point of it may be returned.
    """
    kinks = np.concatenate([h, h - w])
    order = np.argsort(-kinks)
    t = kinks[order]
    sign = np.where(order < len(h), 1.0, -1.0)
    g = np.cumsum(sign * t) - np.cumsum(sign) * t
    # G rises as t falls; rounding must not make the interpolation table dip
    return float(np.interp(target, np.maximum.accumulate(g), t))
