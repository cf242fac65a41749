import numpy as np
import pytest
from scipy.optimize import linprog

from medianflip.projection import project_l1_box

from helpers import check_variational_inequality, grid_projection_oracle


def test_feasible_input_returned_unchanged():
    a0 = np.array([0.5, 0.5, 0.5])
    a = np.array([0.6, 0.4, 0.5])
    out = project_l1_box(a, a0, k=0.5)
    assert np.array_equal(out, a)
    assert out is not a


def test_one_dimensional_ball_clamp():
    out = project_l1_box(np.array([0.9]), np.array([0.5]), k=0.2)
    assert out[0] == pytest.approx(0.7, abs=1e-9)


def test_zero_budget_returns_center():
    a0 = np.array([0.2, 0.8])
    out = project_l1_box(np.array([1.0, 0.0]), a0, k=0.0)
    assert np.array_equal(out, a0)


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        project_l1_box(np.zeros(2), np.zeros(2), k=-0.1)


def test_ball_projection_reaches_radius():
    center = np.full(4, 0.5)
    v = np.array([1.5, 0.5, 0.5, 0.5])
    out = project_l1_box(v, center, k=0.3)
    assert np.abs(out - center).sum() == pytest.approx(0.3, abs=1e-12)
    assert out[0] == pytest.approx(0.8, abs=1e-9)


def _3d_problems():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a0 = rng.uniform(0.05, 0.95, 3)
        a = rng.uniform(-0.1, 1.1, 3)
        k = float(rng.uniform(0.1, 1.2))
        yield a0, a, k
    # v far outside the box: the projection spends all of k = 0.369, while
    # stopping on small iterate drift halts early, having spent 0.341
    rng = np.random.default_rng(1261)
    a0 = rng.uniform(0.05, 0.95, 3)
    a = a0 + rng.normal(0, 1.0, 3)
    yield a0, a, float(rng.uniform(0.1, 1.5))


def test_matches_grid_oracle_on_3d_problems():
    for a0, a, k in _3d_problems():
        proj = project_l1_box(a, a0, k)
        best, f_best, coarse, fine = grid_projection_oracle(
            a, a0, k, pitches=(0.05, 0.01, 0.002)
        )
        f_proj = float(np.linalg.norm(proj - a))
        assert np.abs(proj - a0).sum() <= k + 1e-9
        assert np.all(proj >= 0) and np.all(proj <= 1)
        assert f_proj <= f_best + 1e-9
        assert f_best <= f_proj + np.sqrt(3) * 0.002 + 1e-9
        assert check_variational_inequality(proj, a, coarse)
        assert check_variational_inequality(proj, a, fine)


def test_feasibility_and_idempotence_high_dimensional():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = 50
        a0 = rng.uniform(0, 1, n)
        a = a0 + rng.normal(0, 0.5, n)
        k = float(rng.uniform(0.1, 5.0))
        out = project_l1_box(a, a0, k)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.abs(out - a0).sum() <= k + 1e-9
        again = project_l1_box(out, a0, k)
        assert np.max(np.abs(again - out)) <= 1e-12


def test_projection_shrinks_distance_to_feasible_points():
    # projection is a contraction toward any feasible point
    rng = np.random.default_rng(23)
    a0 = np.full(5, 0.5)
    k = 0.8
    for _ in range(20):
        a = rng.uniform(-1, 2, 5)
        proj = project_l1_box(a, a0, k)
        z = project_l1_box(rng.uniform(0, 1, 5), a0, k)  # arbitrary feasible point
        assert np.linalg.norm(proj - z) <= np.linalg.norm(a - z) + 1e-9


def _max_first_order_gap(proj, v, a0, k):
    """max <v - proj, z - proj> over feasible z, by a linear program.

    z = a0 + dp - dm with 0 <= dp <= 1 - a0, 0 <= dm <= a0 and
    sum(dp + dm) <= k; proj is the projection of v iff the max is <= 0.
    """
    g = v - proj
    n = len(v)
    res = linprog(
        np.concatenate([-g, g]),
        A_ub=np.ones((1, 2 * n)),
        b_ub=[k],
        bounds=list(zip(np.zeros(2 * n), np.concatenate([1.0 - a0, a0]))),
        method="highs",
    )
    assert res.status == 0
    return float(-res.fun + g @ (a0 - proj))


def test_first_order_optimality_high_dimensional():
    rng = np.random.default_rng(24)
    for sigma in (0.05, 5.0):
        for _ in range(50):
            a0 = rng.uniform(0, 1, 50)
            v = a0 + rng.normal(0, sigma, 50)
            k = float(rng.uniform(0.1, 5.0))
            proj = project_l1_box(v, a0, k)
            assert _max_first_order_gap(proj, v, a0, k) <= 1e-9
