"""Surrogate prox solver: closed-form cases, oracle equivalence, KKT."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pnprecon import admm, prox, recon, sim
from oracles import make_test_problem, penalized_solver, scalar_model


def test_scalar_sqrt2_case():
    # 1 pixel, 1 bin, A=[1], y=2, v=1, rho=1: stationarity -2/x + 1 + (x-1) = 0
    lm = scalar_model(y_value=2.0)
    cfg = prox.ProxConfig(rho=1.0, n_inner=50)
    x = prox.prox_neg_ll(lm, np.array([[1.0]]), cfg, np.array([[1.0]]))
    assert x[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-13)
    assert prox.kkt_residual(lm, np.array([[1.0]]), 1.0, x) < 1e-10


def test_zero_counts_give_clipped_quadratic_solution():
    _, lm = make_test_problem(grid=16, seed=1)
    lm0 = recon.LikelihoodModel(model=lm.model, y=np.zeros_like(lm.y))
    rng = np.random.default_rng(2)
    v = rng.normal(0.2, 0.5, (16, 16))
    rho = 7.0
    cfg = prox.ProxConfig(rho=rho, n_inner=5)
    x = prox.prox_neg_ll(lm0, v, cfg, np.ones((16, 16)))
    sens = lm.model.sensitivity
    want = np.maximum(0.0, v - sens / rho)
    want[~lm.model.mask] = 0.0
    np.testing.assert_allclose(x, want, rtol=1e-13, atol=1e-15)


def test_matches_projected_gradient_oracle():
    for seed in (3, 4, 5):
        _, lm = make_test_problem(grid=16, seed=seed)
        rng = np.random.default_rng(seed)
        scale = float(np.mean(lm.model.sensitivity[lm.model.mask]))
        rho = scale * rng.uniform(1.0, 3.0)
        activity, _ = make_test_problem(grid=16, seed=seed)
        v = activity + rng.normal(0.0, 0.3, activity.shape)
        want = penalized_solver(lm, v, rho, kkt_target=1e-10)
        cfg = prox.ProxConfig(rho=rho, n_inner=20000)
        x = prox.prox_neg_ll(lm, v, cfg, np.ones_like(v))
        assert prox.kkt_residual(lm, v, rho, x) < 1e-8
        assert np.max(np.abs(x - want)) < 1e-6


def test_subproblem_objective_at_v_is_negative_ll():
    activity, lm = make_test_problem(grid=16, seed=6)
    v = activity + 0.2
    got = prox.subproblem_objective(lm, v, 3.0, v)
    assert got == pytest.approx(-recon.log_likelihood(lm, v), rel=1e-14)


def test_subproblem_objective_rho_zero_is_negative_ll():
    activity, lm = make_test_problem(grid=16, seed=6)
    x = activity + 0.1
    got = prox.subproblem_objective(lm, np.zeros_like(x), 0.0, x)
    assert got == pytest.approx(-recon.log_likelihood(lm, x), rel=1e-14)


def test_subproblem_objective_compositional_oracle():
    activity, lm = make_test_problem(grid=16, seed=7)
    rng = np.random.default_rng(1)
    v = rng.normal(0.5, 0.4, activity.shape)
    x = np.abs(rng.normal(0.5, 0.4, activity.shape))
    rho = 2.5
    mask = lm.model.mask
    want = (-recon.log_likelihood(lm, x)
            + 0.5 * rho * float(np.sum((x[mask] - v[mask]) ** 2)))
    got = prox.subproblem_objective(lm, v, rho, x)
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_monotone_along_surrogate_iterations():
    _, lm = make_test_problem(grid=16, seed=8)
    rng = np.random.default_rng(3)
    v = rng.normal(0.3, 0.5, (16, 16))
    rho = 5.0
    objs = []
    cfg = prox.ProxConfig(rho=rho, n_inner=60)
    prox.prox_neg_ll(lm, v, cfg, np.ones((16, 16)),
                     callback=lambda it, x: objs.append(
                         prox.subproblem_objective(lm, v, rho, x)))
    objs = np.array(objs)
    assert np.all(objs[1:] <= objs[:-1] + 1e-10 * np.abs(objs[:-1]))


def test_kkt_decreases_along_iterations():
    _, lm = make_test_problem(grid=16, seed=9)
    rng = np.random.default_rng(4)
    v = rng.normal(0.3, 0.5, (16, 16))
    rho = 30.0
    kkts = []
    cfg = prox.ProxConfig(rho=rho, n_inner=200)
    prox.prox_neg_ll(lm, v, cfg, np.ones((16, 16)),
                     callback=lambda it, x: kkts.append(
                         prox.kkt_residual(lm, v, rho, x)))
    assert kkts[-1] < kkts[0] * 1e-3


def test_prox_runs_n_inner_iterations_at_exact_fixed_point():
    # exact data and v at the true image make it the minimizer and a fixed
    # point of the surrogate map, so only the cap can end the iterations
    activity, lm = make_test_problem(grid=16, seed=16)
    x_true = np.where(lm.model.mask, activity + 0.1, 0.0)
    exact = recon.LikelihoodModel(model=lm.model,
                                  y=sim.forward_project(lm.model, x_true))
    its = []
    cfg = prox.ProxConfig(rho=5.0, n_inner=9)
    x = prox.prox_neg_ll(exact, x_true, cfg, x_true,
                         callback=lambda it, x: its.append(it))
    assert its == list(range(9))
    np.testing.assert_allclose(x, x_true, rtol=1e-12, atol=0.0)


def test_kkt_positive_away_from_optimum():
    _, lm = make_test_problem(grid=16, seed=9)
    v = np.full((16, 16), 0.5)
    assert prox.kkt_residual(lm, v, 5.0, np.full((16, 16), 10.0)) > 1.0


def test_rho_zero_rejected_by_config():
    with pytest.raises(ValueError, match="rho"):
        prox.ProxConfig(rho=0.0)
    with pytest.raises(ValueError, match="rho"):
        prox.ProxConfig(rho=-1.0)


def test_surrogate_root_rho_zero_is_em_update_bitwise():
    _, lm = make_test_problem(grid=16, seed=10)
    x = recon.uniform_start(lm.model)
    for _ in range(3):
        x = recon.mlem_step(lm, x)
    sens = lm.model.sensitivity.ravel()
    mask = lm.model.mask.ravel()
    num = recon._em_ratio_backproj(lm.counted, x).ravel()
    b = x.ravel() * num
    em = recon.mlem_step(lm, x).ravel()
    root = prox.surrogate_root(sens[mask], b[mask], np.zeros(mask.sum()), 0.0)
    np.testing.assert_array_equal(root, em[mask])


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 1e6), b=st.floats(0.0, 1e6),
       v=st.floats(-1e6, 1e6), rho=st.floats(1e-9, 1e6))
def test_surrogate_root_nonnegative(s, b, v, rho):
    root = prox.surrogate_root(np.array([s]), np.array([b]),
                               np.array([v]), rho)[0]
    assert root >= 0.0
    assert np.isfinite(root)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(1e-3, 1e3), b=st.floats(1e-6, 1e3), v=st.floats(-1e3, 1e3),
       rho=st.floats(1e-3, 1e3))
def test_surrogate_root_solves_quadratic(s, b, v, rho):
    x = prox.surrogate_root(np.array([s]), np.array([b]), np.array([v]), rho)[0]
    # rho x^2 + (s - rho v) x - b = 0 at the returned root
    resid = rho * x * x + (s - rho * v) * x - b
    scale = max(rho * x * x, abs(s - rho * v) * x, b, 1e-12)
    assert abs(resid) / scale < 1e-9


def test_prox_accepts_negative_v():
    _, lm = make_test_problem(grid=16, seed=11)
    v = np.full((16, 16), -2.0)
    cfg = prox.ProxConfig(rho=50.0, n_inner=100)
    x = prox.prox_neg_ll(lm, v, cfg, np.ones((16, 16)))
    assert np.all(x >= 0.0)
    assert np.all(np.isfinite(x))


def _full_em_ratio_backproj(lm, x):
    """A^T mult (y / ybar), flat, projecting every bin of the sinogram."""
    ybar = sim.forward_project(lm.model, x).ravel()
    ratio = np.divide(lm.y.ravel(), ybar, out=np.zeros_like(ybar), where=ybar > 0)
    return sim.back_project(lm.model, ratio).ravel()


def _full_prox(lm, v, rho, x_init, n_inner):
    """The data step on the whole sinogram: masked gathers and scatters and
    the guarded b-form root, for n_inner iterations."""
    sens = lm.model.sensitivity.ravel()
    mask = sens > 0
    x = np.asarray(x_init, dtype=float).ravel().copy()
    pos = x[(x > 0) & mask]
    x = np.maximum(x, 1e-8 * (float(pos.mean()) if pos.size else 1.0))
    x[~mask] = 0.0
    s, vm = sens[mask], np.asarray(v, dtype=float).ravel()[mask]
    for _ in range(n_inner):
        b = (x * _full_em_ratio_backproj(lm, x))[mask]
        c = rho * vm - s
        disc = np.sqrt(c * c + 4.0 * rho * b)
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.where(c < 0, np.divide(2.0 * b, disc - c, out=np.zeros_like(b),
                                             where=(disc - c) > 0),
                            (c + disc) / (2.0 * rho))
        x = np.zeros_like(x)
        x[mask] = root
    return x.reshape((lm.model.grid_size, lm.model.grid_size))


def _full_mlem_step(lm, x):
    sens = lm.model.sensitivity.ravel()
    mask = sens > 0
    x = x.ravel()
    num = _full_em_ratio_backproj(lm, x)
    out = np.zeros_like(x)
    out[mask] = x[mask] * num[mask] / sens[mask]
    return out


def _bitwise_equal(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _partial_mask_problem():
    """Hand-built 3x3 model whose pixel 4 no detector row sees."""
    rng = np.random.default_rng(5)
    A = rng.uniform(0.0, 1.0, (12, 9)) * (rng.uniform(size=(12, 9)) < 0.5)
    A[:, 4] = 0.0
    model = sim.SystemModel(geometry=sim.GeometryConfig(n_angles=3, n_bins=4),
                            grid_size=3, weights=sp.csr_matrix(A),
                            mult_factors=rng.uniform(0.5, 1.5, 12),
                            background=np.full(12, 0.05))
    y = rng.poisson(1.0, 12).astype(float)
    return rng.uniform(0.2, 2.0, (3, 3)), recon.LikelihoodModel(model=model, y=y)


def test_counted_bins_match_full_sinogram_bitwise():
    low_activity, low = make_test_problem(grid=16, seed=12, dose=0.1)
    high_activity, high = make_test_problem(grid=16, seed=12, dose=5.0)
    hand_activity, hand = _partial_mask_problem()
    empty = recon.LikelihoodModel(model=low.model, y=np.zeros_like(low.y))
    assert np.mean(low.y == 0) >= 0.4 and np.mean(high.y == 0) < 0.1
    assert hand.model.mask.any() and not hand.model.mask.all()
    rng = np.random.default_rng(13)
    for lm, activity in ((low, 0.1 * low_activity), (high, 5.0 * high_activity),
                         (hand, hand_activity), (empty, 0.1 * low_activity)):
        v = activity + rng.normal(0.0, 0.3 * activity.mean(), activity.shape)
        scale = float(np.mean(lm.model.sensitivity[lm.model.mask]))
        signs = set()
        for rho in (0.1 * scale, scale, 10.0 * scale):
            signs |= set((rho * v - lm.model.sensitivity)[lm.model.mask] < 0)
            cfg = prox.ProxConfig(rho=rho, n_inner=12)
            _bitwise_equal(prox.prox_neg_ll(lm, v, cfg, np.ones_like(v)),
                           _full_prox(lm, v, rho, np.ones_like(v), 12))
        x = recon.uniform_start(lm.model).ravel()
        for _ in range(4):
            got = recon.mlem_step(lm, x)
            x = _full_mlem_step(lm, x)
            _bitwise_equal(got, x)
        assert signs == {False, True}     # both the b-form and the c-form


def test_prox_projects_only_counted_bins(monkeypatch):
    activity, lm = make_test_problem(grid=16, seed=14, dose=0.2)
    lm.model.sensitivity                # cached once per model, as in ADMM
    calls = []
    for name in ("forward_project", "back_project"):
        def counting(*args, _name=name, _fn=getattr(sim, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(sim, name, counting)
    cfg = prox.ProxConfig(rho=10.0, n_inner=5)
    prox.prox_neg_ll(lm, activity, cfg, np.ones_like(activity))
    assert calls == []
    rows = lm.counted[0]
    np.testing.assert_array_equal(rows, np.flatnonzero(lm.y > 0))
    assert lm.counted[1].shape == (rows.size, lm.model.n_pixels)


def test_admm_builds_counted_blocks_once(monkeypatch):
    builds = []
    build = recon.LikelihoodModel.counted.func
    counted = functools.cached_property(lambda lm: builds.append(lm) or build(lm))
    counted.__set_name__(recon.LikelihoodModel, "counted")
    monkeypatch.setattr(recon.LikelihoodModel, "counted", counted)
    activity, lm = make_test_problem(grid=16, seed=15, dose=0.5)
    cfg = admm.AdmmConfig(rho=10.0, n_iterations=3, n_inner=4)
    admm.admm_pnp(lm, lambda img: img.copy(), cfg, z0=activity)
    assert len(builds) == 1 and builds[0] is lm
