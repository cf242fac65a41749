import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medianflip import (GeneratorSpec, Instance, OptimizerConfig,
                        SigmoidConfig, SolverError, build_network,
                        equilibrium, generate, median, sigmoid_gd, simulate)
from medianflip.equilibrium import DEFAULT_TOL, DENSE_MAX_NODES, GMRES_RESTART

ROOT = Path(__file__).resolve().parent.parent


def two_node_instance():
    net = build_network(2, [(0, 1, 1.0)], directed=False)
    return Instance(net, [0.5, 0.5], [0.0, 1.0])


def random_instance(rng, n, p=0.2):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    net = build_network(n, edges, directed=False)
    return Instance(net, rng.uniform(0.05, 1.0, n), rng.uniform(0, 1, n))


def test_two_node_closed_form():
    # fixed point of x0 = .5*0 + .5*x1, x1 = .5*1 + .5*x0
    sol = equilibrium(two_node_instance())
    assert np.allclose(sol.x_star, [1 / 3, 2 / 3], atol=1e-10)


def test_simulate_matches_on_two_node():
    sol = simulate(two_node_instance(), tol=1e-12)
    assert sol.converged
    assert np.allclose(sol.x_star, [1 / 3, 2 / 3], atol=1e-10)


def test_isolated_node_alpha_zero_gives_zero():
    net = build_network(1, [])
    inst = Instance(net, [0.0], [0.7])
    assert equilibrium(inst).x_star[0] == pytest.approx(0.0, abs=1e-12)
    assert simulate(inst).x_star[0] == pytest.approx(0.0, abs=1e-12)


def test_isolated_node_keeps_scaled_innate():
    net = build_network(1, [])
    inst = Instance(net, [0.6], [0.5])
    assert equilibrium(inst).x_star[0] == pytest.approx(0.3, abs=1e-10)


def test_full_resistance_returns_innate_exactly():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 12)
    inst = inst.with_alpha(np.ones(12))
    sol = equilibrium(inst)
    assert np.array_equal(sol.x_star, sol.x_star)  # no NaNs
    assert np.allclose(sol.x_star, inst.s, atol=1e-12)
    one_round = simulate(inst, max_rounds=1, tol=1e-15)
    assert np.allclose(one_round.x_star, inst.s)


def test_star_center_pulled_to_leaf_consensus():
    n = 6
    edges = [(0, v, 1.0) for v in range(1, n)]
    net = build_network(n, edges, directed=False)
    alpha = np.array([0.0] + [1.0] * (n - 1))
    s = np.array([0.2] + [1.0] * (n - 1))
    sol = simulate(Instance(net, alpha, s), tol=1e-12)
    assert sol.x_star[0] == pytest.approx(1.0, abs=1e-9)
    assert equilibrium(Instance(net, alpha, s)).x_star[0] == pytest.approx(1.0, abs=1e-9)


def test_solver_and_simulation_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 30)))
        a = equilibrium(inst).x_star
        b = simulate(inst, tol=1e-12).x_star
        assert np.max(np.abs(a - b)) <= 1e-6


def test_equilibrium_opinions_stay_in_unit_interval():
    rng = np.random.default_rng(99)
    for _ in range(10):
        inst = random_instance(rng, 20)
        x = equilibrium(inst).x_star
        assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)


def test_simulate_flags_nonconvergence():
    inst = two_node_instance()
    sol = simulate(inst, max_rounds=2, tol=1e-15)
    assert not sol.converged
    assert sol.iterations == 2


def test_simulate_rejects_bad_tol():
    with pytest.raises(ValueError):
        simulate(two_node_instance(), tol=0.0)


def test_equilibrium_accepts_alpha_override():
    inst = two_node_instance()
    sol = equilibrium(inst, alpha=np.array([1.0, 1.0]))
    assert np.allclose(sol.x_star, inst.s, atol=1e-12)


def test_singular_closed_class_raises():
    # X is singular: the whole path is one closed class with alpha = 0,
    # so every constant vector solves X x = 0 and no equilibrium exists
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(net, np.zeros(3), [0.9, 0.8, 0.1])
    with pytest.raises(SolverError, match=r"\[0, 1, 2\]"):
        equilibrium(inst)
    assert not simulate(inst, max_rounds=1000).converged


def test_singular_check_names_the_nodes_without_a_resisting_node():
    # {0, 1} and {2, 3} are closed; node 4 listens to both, node 5 only
    # to {2, 3}
    edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
             (4, 0, 1.0), (4, 2, 1.0), (5, 2, 1.0)]
    net = build_network(6, edges, directed=True)
    s = np.full(6, 0.5)
    with pytest.raises(SolverError, match=r"\[2, 3, 5\]"):
        equilibrium(Instance(net, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0], s))
    # one resisting node per closed class suffices; nodes 4 and 5 may be 0
    inst = Instance(net, [0.0, 0.3, 0.0, 0.7, 0.0, 0.0], s)
    sol = equilibrium(inst)
    assert np.allclose(sol.x_star, simulate(inst, tol=1e-13).x_star,
                       atol=1e-9)


def test_singular_check_skips_degree_zero_nodes_and_keeps_self_loops():
    silent = Instance(build_network(2, []), [0.0, 0.0], [0.2, 0.4])
    assert equilibrium(silent).x_star.tolist() == [0.0, 0.0]
    loop = build_network(2, [(0, 0, 1.0), (1, 0, 1.0)], directed=True,
                         allow_self_loops=True)
    with pytest.raises(SolverError, match=r"\[0, 1\]"):
        equilibrium(Instance(loop, [0.0, 0.0], [0.2, 0.4]))
    with pytest.raises(SolverError, match=r"\[0\]"):
        equilibrium(Instance(loop, [0.0, 0.5], [0.2, 0.4]))
    resisting = Instance(loop, [0.1, 0.0], [0.2, 0.4])
    assert equilibrium(resisting).x_star == pytest.approx([0.2, 0.2])


def _ba_instance(n, seed):
    return generate(GeneratorSpec("ba", dist="normal", seed=seed,
                                  params={"n": n}))


@pytest.mark.parametrize("n", [60, DENSE_MAX_NODES, DENSE_MAX_NODES + 40])
def test_operator_matches_simulation_on_both_sides_of_cutoff(n):
    inst = _ba_instance(n, seed=n)
    sol = equilibrium(inst)
    dense = n <= DENSE_MAX_NODES
    assert (sol.iterations == 0) == dense
    sim = simulate(inst, tol=1e-13)
    assert sim.converged
    assert np.max(np.abs(sol.x_star - sim.x_star)) <= 1e-8
    assert sol.residual <= 1e-8


@pytest.mark.parametrize("n", [60, DENSE_MAX_NODES + 40])
def test_adjoint_solve_is_the_transpose_of_the_forward_solve(n):
    inst = _ba_instance(n, seed=n + 1)
    op = equilibrium(inst).operator
    rng = np.random.default_rng(n)
    b, v = rng.normal(size=n), rng.normal(size=n)
    # <v, X^-1 b> = <X^-T v, b>
    assert v @ op.solve(b) == pytest.approx(op.solve_T(v) @ b, rel=1e-8)
    # each entry of X^-T v is the derivative of <v, X^-1 b> in b_i
    h = 1e-3
    for i in rng.choice(n, 3, replace=False):
        e = np.zeros(n)
        e[i] = h
        fd = (v @ op.solve(b + e) - v @ op.solve(b - e)) / (2 * h)
        assert fd == pytest.approx(op.solve_T(v)[i], rel=1e-6, abs=1e-9)


def test_dense_solve_rejects_non_finite_result(monkeypatch):
    lapack = importlib.import_module("scipy.linalg.lapack")
    monkeypatch.setattr(lapack, "dgetrs",
                        lambda lu, piv, b, **kw: (np.full_like(b, np.nan), 0))
    with pytest.raises(SolverError, match="residual"):
        equilibrium(two_node_instance())


def _edge_list_system(inst, alpha):
    """X = I - (1 - alpha) W, with W summed arc by arc from the edge list."""
    net = inst.network
    n = inst.node_count
    W = np.zeros((n, n))
    for u, v, w in zip(net.arc_src.tolist(), net.arc_dst.tolist(),
                       net.arc_w.tolist()):
        W[u, v] += w
    deg = W.sum(axis=1)
    W[deg > 0] /= deg[deg > 0, None]
    return np.eye(n) - (1.0 - alpha)[:, None] * W


@pytest.mark.parametrize("topology,params", [
    ("grid", {"rows": 6, "cols": 6}), ("grid", {"rows": 10, "cols": 10}),
    ("ba", {"n": 150}), ("gnp", {"n": 120}), ("ba", {"n": DENSE_MAX_NODES})])
def test_dense_solves_match_a_reference_built_from_the_edge_list(topology,
                                                                  params):
    for seed in range(3):
        inst = generate(GeneratorSpec(topology, dist="normal", seed=seed,
                                      params=params))
        n = inst.node_count
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.05, 1.0, n)
        alpha[rng.choice(n, n // 5, replace=False)] = 1.0
        X = _edge_list_system(inst, alpha)
        sol = equilibrium(inst, alpha=alpha)
        assert sol.iterations == 0
        assert np.max(np.abs(sol.x_star - np.linalg.solve(X, alpha * inst.s))
                      ) <= 1e-12
        b, v = rng.normal(size=n), rng.normal(size=n)
        assert np.max(np.abs(sol.operator.solve(b) - np.linalg.solve(X, b))
                      ) <= 1e-12
        assert np.max(np.abs(sol.operator.solve_T(v)
                             - np.linalg.solve(X.T, v))) <= 1e-12


def test_dense_influence_matrix_is_built_once_and_shared():
    inst = _ba_instance(60, seed=3)
    net = inst.network
    assert net._W_dense is None
    equilibrium(inst)
    W = net._W_dense
    assert W is not None and not W.flags.writeable
    assert np.array_equal(W, net.influence_matrix.toarray())
    other = inst.with_alpha(np.full(inst.node_count, 0.3))
    equilibrium(other)
    equilibrium(inst, alpha=other.alpha)
    assert other.network.dense_influence_matrix is W
    assert net._W_dense is W


def test_no_dense_influence_matrix_above_the_dense_limit():
    inst = _ba_instance(DENSE_MAX_NODES + 40, seed=4)
    sol = equilibrium(inst)
    sol.operator.solve_T(np.ones(inst.node_count))
    assert sol.iterations > 0
    assert inst.network._W_dense is None


def test_zero_pivot_in_dense_factorization_raises(monkeypatch):
    lapack = importlib.import_module("scipy.linalg.lapack")
    real = lapack.dgetrf

    def zero_pivot(a, **kw):
        lu, piv, _ = real(a, **kw)
        return lu, piv, 2

    monkeypatch.setattr(lapack, "dgetrf", zero_pivot)
    with pytest.raises(SolverError, match="info 2"):
        equilibrium(two_node_instance())


def test_iterative_solve_rejects_non_finite_result(monkeypatch):
    eq = importlib.import_module("medianflip.equilibrium")
    monkeypatch.setattr(eq, "_gmres", lambda apply, b, x0: (
        np.full_like(b, np.nan), float("nan"), 0, True))
    with pytest.raises(SolverError, match="residual"):
        equilibrium(_ba_instance(DENSE_MAX_NODES + 40, seed=5))


def test_restarted_solve_matches_a_dense_solve():
    # a directed cycle with alpha = 0.05: X's eigenvalues 1 - 0.95 w lie on
    # a circle around 1, so GMRES needs several restart cycles
    n = DENSE_MAX_NODES + 40
    net = build_network(n, [(u, (u + 1) % n, 1.0) for u in range(n)],
                        directed=True)
    s = np.random.default_rng(0).uniform(size=n)
    inst = Instance(net, np.full(n, 0.05), s)
    X = np.eye(n) - 0.95 * np.roll(np.eye(n), 1, axis=1)
    sol = equilibrium(inst)
    assert sol.converged and sol.iterations > GMRES_RESTART
    assert np.max(np.abs(sol.x_star - np.linalg.solve(X, 0.05 * s))) <= 1e-10
    assert sol.residual <= DEFAULT_TOL * np.linalg.norm(0.05 * s)
    v = np.linspace(-1.0, 1.0, n)
    z = sol.operator.solve_T(v)
    assert np.linalg.norm(X.T @ z - v) <= DEFAULT_TOL * np.linalg.norm(v)
    ref = np.linalg.solve(X.T, v)
    assert np.max(np.abs(z - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_zero_right_hand_side_returns_zero_from_a_warm_start():
    inst = _ba_instance(DENSE_MAX_NODES + 40, seed=6)
    prev = equilibrium(inst)
    zero = inst.with_s(np.zeros(inst.node_count))
    sol = equilibrium(zero, start=prev)
    assert not sol.x_star.any()
    assert (sol.iterations, sol.residual, sol.converged) == (0, 0.0, True)


def test_sparse_solves_load_no_scipy_solver_module():
    # the forward and adjoint GMRES runs need only numpy and the sparse W
    check = (
        "import sys\n"
        "import numpy as np\n"
        "from medianflip import GeneratorSpec, equilibrium, generate\n"
        f"inst = generate(GeneratorSpec('ba', seed=0, params={{'n': "
        f"{DENSE_MAX_NODES + 40}}}))\n"
        "sol = equilibrium(inst)\n"
        "sol.operator.solve_T(np.ones(inst.node_count))\n"
        "names = ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg')\n"
        "print(sol.iterations > 0, [m for m in names if m in sys.modules])\n")
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", check],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True ['scipy.sparse']"]


def test_iterative_solve_with_weak_resistance_matches_simulation():
    # alpha = 1e-3 puts X within 1e-3 of the singular I - W
    inst = _ba_instance(2000, seed=0)
    alpha = np.full(inst.node_count, 1e-3)
    sol = equilibrium(inst, alpha=alpha)
    assert sol.converged and sol.iterations > 0
    assert sol.residual <= 1e-9
    sim = simulate(inst, alpha=alpha, tol=1e-14)
    assert sim.converged
    assert np.max(np.abs(sol.x_star - sim.x_star)) <= 1e-10


def test_singular_closed_class_raises_on_the_sparse_path():
    # a directed path into a 3-cycle; the cycle is closed and has alpha 0
    n = DENSE_MAX_NODES + 40
    edges = [(u, u + 1, 1.0) for u in range(n - 1)] + [(n - 1, n - 3, 1.0)]
    net = build_network(n, edges, directed=True)
    alpha = np.full(n, 0.5)
    alpha[-3:] = 0.0
    s = np.linspace(0.0, 1.0, n)
    with pytest.raises(SolverError,
                       match=rf"\[{n - 3}, {n - 2}, {n - 1}\]"):
        equilibrium(Instance(net, alpha, s))
    alpha[-1] = 0.2  # one resisting node opens the class
    inst = Instance(net, alpha, s)
    sol = equilibrium(inst)
    assert sol.iterations > 0
    assert np.max(np.abs(sol.x_star - simulate(inst, tol=1e-13).x_star)) <= 1e-8


def test_ascent_warm_starts_keep_the_residual_guarantee(monkeypatch):
    inst = _ba_instance(DENSE_MAX_NODES + 40, seed=8)
    optimize = importlib.import_module("medianflip.optimize")
    real = optimize.equilibrium
    solves = []

    def recording(instance, alpha=None, start=None):
        sol = real(instance, alpha=alpha, start=start)
        solves.append((np.array(alpha), start, sol))
        return sol

    monkeypatch.setattr(optimize, "equilibrium", recording)
    sigmoid_gd(inst, OptimizerConfig(budget_k=10.0, max_iters=8),
               SigmoidConfig())
    # eight steps and the final projected iterate, which takes no step
    assert len(solves) == 9
    # each iterate starts from the solution of the one before, and from
    # the third on its forward GMRES begins at the extrapolation through
    # the two solutions before it
    assert solves[0][1] is None
    assert all(start is prev[2] for prev, (_, start, _) in
               zip(solves, solves[1:]))
    assert solves[1][2].operator._x0 is solves[0][2].x_star
    for (_, _, older), (_, _, old), (_, _, sol) in zip(solves, solves[1:],
                                                       solves[2:]):
        assert np.array_equal(sol.operator._x0,
                              2.0 * old.x_star - older.x_star)
    W = inst.network.influence_matrix
    for alpha, _, sol in solves:
        b = alpha * inst.s
        assert sol.residual <= 1e-10 * np.linalg.norm(b)
        residual = sol.x_star - (1.0 - alpha) * (W @ sol.x_star) - b
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)
        cold = real(inst, alpha=alpha)
        assert median(sol.x_star) == pytest.approx(median(cold.x_star),
                                                   abs=1e-9)


def test_neighbouring_start_takes_fewer_iterations(monkeypatch):
    inst = _ba_instance(DENSE_MAX_NODES + 40, seed=9)
    n = inst.node_count
    rng = np.random.default_rng(9)
    near = np.clip(inst.alpha + rng.normal(scale=1e-3, size=n), 0.0, 1.0)
    v = rng.uniform(size=n)
    eq = importlib.import_module("medianflip.equilibrium")
    real_gmres = eq._gmres
    counts = []

    def counting(apply, b, x0):
        calls = []

        def counted(v):
            calls.append(v)
            return apply(v)

        out = real_gmres(counted, b, x0)
        # these solves end within one restart cycle: one apply per Arnoldi
        # step, plus the true residual that ends the cycle and, from a
        # start, the residual it begins with
        counts.append(len(calls) - 1 - (x0 is not None))
        return out

    monkeypatch.setattr(eq, "_gmres", counting)
    prev = equilibrium(inst)
    prev.operator.solve_T(v)
    del counts[:]
    cold = equilibrium(inst, alpha=near)
    z_cold = cold.operator.solve_T(v)
    warm = equilibrium(inst, alpha=near, start=prev)
    z_warm = warm.operator.solve_T(v)
    cold_fwd, cold_adj, warm_fwd, warm_adj = counts
    assert (cold_fwd, warm_fwd) == (cold.iterations, warm.iterations)
    assert warm_fwd < cold_fwd and warm_adj < cold_adj
    assert np.max(np.abs(warm.x_star - cold.x_star)) <= 1e-8
    assert np.max(np.abs(z_warm - z_cold)) <= 1e-8
