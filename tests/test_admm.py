"""PnP-ADMM loop: fixed points, convex-oracle equivalence, DR residual."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from pnprecon import admm, net, prox, recon, sim, util
from pnprecon.util import NumericalAbort
from oracles import make_test_problem, masked_osem, osem_start, penalized_solver

IDENTITY = lambda img: img.copy()


def exact_data_problem(grid=16, seed=1):
    """Noise-free y = ybar(x_true): the ML optimum is x_true itself."""
    activity, lm = make_test_problem(grid=grid, seed=seed)
    x_true = activity + 0.05   # strictly positive
    y = sim.forward_project(lm.model, x_true)
    return x_true, recon.LikelihoodModel(model=lm.model, y=y)


def test_identity_denoiser_stays_at_fixed_point():
    x_true, lm = exact_data_problem()
    cfg = admm.AdmmConfig(rho=5.0, n_iterations=5, n_inner=50)
    x, hist = admm.admm_pnp(lm, IDENTITY, cfg, z0=x_true)
    assert len(hist) == 5
    assert max(hist.primal) < 1e-8
    assert np.max(np.abs(x - x_true)) / np.max(x_true) < 1e-8


def test_dual_update_identity_bitwise():
    _, lm = make_test_problem(grid=16, seed=2)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.init_params(arch, seed=0, scale=0.2)
    states = []
    cfg = admm.AdmmConfig(rho=20.0, n_iterations=4, n_inner=10)
    admm.admm_pnp(lm, params, cfg, osem_start(lm),
                  on_iterate=lambda st: states.append(
                      (st.k, st.x.copy(), st.z.copy(), st.u.copy())))
    assert [st[0] for st in states] == [1, 2, 3, 4]
    u_prev = np.zeros_like(states[0][1])
    for _, x, z, u in states:
        np.testing.assert_array_equal(u - u_prev, x - z)
        u_prev = u


def test_single_iteration_matches_hand_stepped_composition():
    _, lm = make_test_problem(grid=16, seed=3)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.init_params(arch, seed=1, scale=0.2)
    z0 = recon.osem_reconstruct(lm, 2)
    cfg = admm.AdmmConfig(rho=15.0, n_iterations=1, n_inner=25)
    x, hist = admm.admm_pnp(lm, params, cfg, z0=z0)

    x1 = prox.prox_neg_ll(lm, z0, cfg, np.clip(z0, 0.0, None))
    z1 = net.forward(params, x1)
    u1 = x1 - z1
    np.testing.assert_array_equal(x, x1)
    assert len(hist) == 1
    mask = lm.model.mask
    assert hist.primal[0] == np.linalg.norm((x1 - z1)[mask])
    assert hist.dual[0] == 15.0 * np.linalg.norm((z1 - z0)[mask])


def test_quadratic_prox_denoiser_matches_convex_oracle():
    # denoiser = prox of (lam/2)||z - m||^2: classical convex ADMM
    activity, lm = make_test_problem(grid=16, seed=4)
    lam = 20.0
    rho = 20.0
    m = np.clip(activity + 0.1, 0.0, None)
    denoise = lambda v: (rho * v + lam * m) / (rho + lam)
    cfg = admm.AdmmConfig(rho=rho, n_iterations=200, n_inner=100)
    x, hist = admm.admm_pnp(lm, denoise, cfg, osem_start(lm))
    assert hist.primal[-1] < 1e-6
    assert hist.dual[-1] < 1e-6
    want = penalized_solver(lm, m, lam, kkt_target=1e-10)
    rel = np.linalg.norm(x - want) / np.linalg.norm(want)
    assert rel < 1e-4


def test_dr_residual_and_secant_match_recorded_states():
    # the centre pixel sees no bin, so it is masked; the DR columns count it
    _, lm = make_test_problem(grid=16, seed=6)
    w = lm.model.weights.tolil()
    w[:, 8 * 16 + 8] = 0.0
    lm = recon.LikelihoodModel(model=replace(lm.model, weights=w.tocsr()), y=lm.y)
    assert not lm.model.mask[8, 8]
    arch = net.ArchConfig(n_layers=2, channels=3)
    rng = np.random.default_rng(3)
    params = net.vector_to_params(arch, rng.normal(0, 0.2, net.n_params(arch)))
    z0 = recon.osem_reconstruct(lm, 2)
    states = []
    cfg = admm.AdmmConfig(rho=20.0, n_iterations=6, n_inner=10)
    _, hist = admm.admm_pnp(lm, params, cfg, z0=z0, on_iterate=states.append)
    # t_k = z_k + u_k is the denoiser input x_k + u_{k-1}; R_k = 2 z_k - t_k
    t = [st.z + st.u for st in states]
    r = [st.z - st.u for st in states]
    assert len(hist.dr_residual) == len(hist.secant) == 6
    np.testing.assert_allclose(hist.dr_residual[0],
                               np.linalg.norm(states[0].x - z0), rtol=1e-10)
    assert hist.secant[0] is None
    for k in range(1, 6):
        step = np.linalg.norm(t[k] - t[k - 1])
        np.testing.assert_allclose(hist.dr_residual[k], step, rtol=1e-10)
        np.testing.assert_allclose(hist.secant[k],
                                   np.linalg.norm(r[k] - r[k - 1]) / step,
                                   rtol=1e-10)


def test_dr_residual_vanishes_at_fixed_point():
    x_true, lm = exact_data_problem(seed=5)
    cfg = admm.AdmmConfig(rho=5.0, n_iterations=5, n_inner=80)
    _, hist = admm.admm_pnp(lm, IDENTITY, cfg, z0=x_true)
    assert max(hist.dr_residual) < 1e-8
    # 2D - Id is the identity itself: an isometry wherever t moved
    assert all(s is None or s == 1.0 for s in hist.secant)


def test_dr_residual_falls_and_secant_is_exact_for_linear_denoiser():
    # D = prox of (lam/2)||z - m||^2 is firmly nonexpansive; 2D - Id scales
    # by 2 rho/(rho + lam) - 1 = 1/3 at lam = rho/2, so DR contracts
    activity, lm = make_test_problem(grid=16, seed=4)
    rho = 20.0
    lam = rho / 2.0
    m = np.clip(activity + 0.1, 0.0, None)
    denoise = lambda v: (rho * v + lam * m) / (rho + lam)
    cfg = admm.AdmmConfig(rho=rho, n_iterations=60, n_inner=100)
    _, hist = admm.admm_pnp(lm, denoise, cfg, osem_start(lm))
    # ||x_1 - z_0|| is no T step, so the DR sequence starts at k = 2
    assert hist.dr_residual[1] > hist.dr_residual[0]
    res = np.asarray(hist.dr_residual[1:])
    live = res[:-1] > 1e-10 * res[0]
    assert live.sum() >= 5
    assert np.all(res[1:][live] <= res[:-1][live])
    secants = hist.secant[1:]
    assert all(s is not None and abs(s - 1.0 / 3.0) < 1e-8 for s in secants)
    assert admm.summary_row(hist)[-2:] == [0, max(secants)]


def test_abort_on_nonfinite_denoiser():
    _, lm = make_test_problem(grid=16, seed=8)
    bad = lambda img: np.full_like(img, np.inf)
    cfg = admm.AdmmConfig(rho=10.0, n_iterations=3)
    with pytest.raises(NumericalAbort, match="iteration 1"):
        admm.admm_pnp(lm, bad, cfg, osem_start(lm))
    # a finite but huge start overflows the prox: the net never sees it
    params = net.init_params(net.ArchConfig(n_layers=2, channels=3),
                             seed=0, scale=0.2)
    z0 = np.ones((16, 16))
    z0[8, 8] = 1e302
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match="iteration 1"):
        admm.admm_pnp(lm, params, cfg, z0=z0)


def test_abort_on_overflowed_residual_norm():
    # a huge but finite denoiser output: x, z and u stay finite, while the
    # primal residual norm overflows and used to be recorded as inf
    _, lm = make_test_problem(grid=16, seed=8)
    cfg = admm.AdmmConfig(rho=10.0, n_iterations=3)
    seen = []

    def huge(img):
        seen.append(np.full_like(img, 1e300))
        return seen[-1]
    with np.errstate(all="ignore"), pytest.raises(
            NumericalAbort, match="^non-finite primal_residual_norm at iteration 1$"):
        admm.admm_pnp(lm, huge, cfg, osem_start(lm))
    assert len(seen) == 1 and np.all(np.isfinite(seen[0]))


def test_rho_sweep_single_value_equals_one_run():
    _, lm = make_test_problem(grid=16, seed=9)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.init_params(arch, seed=2, scale=0.2)
    z0 = recon.osem_reconstruct(lm, 2)
    cfg = admm.AdmmConfig(rho=25.0, n_iterations=6)
    (swept,) = admm.rho_sweep(lm, params, [25.0], cfg, z0=z0)
    _, hist = admm.admm_pnp(lm, params, cfg, z0=z0)
    assert swept.primal == hist.primal
    assert swept.dual == hist.dual


def test_rho_sweep_row_count_and_determinism():
    activity, lm = make_test_problem(grid=16, seed=10)
    arch = net.ArchConfig(n_layers=2, channels=3)
    rng = np.random.default_rng(3)
    params = net.vector_to_params(arch, rng.normal(0, 0.2, net.n_params(arch)))
    z0 = recon.osem_reconstruct(lm, 2)
    rhos = [5.0, 50.0, 500.0]
    cfg = admm.AdmmConfig(rho=1.0, n_iterations=4)
    r1 = admm.rho_sweep(lm, params, rhos, cfg, z0=z0, x_ref=activity)
    r2 = admm.rho_sweep(lm, params, rhos, cfg, z0=z0, x_ref=activity)
    assert len(admm.curve_rows(r1)) == len(rhos) * 4
    assert admm.curve_rows(r1) == admm.curve_rows(r2)
    assert ([admm.summary_row(h) for h in r1]
            == [admm.summary_row(h) for h in r2])


def test_rho_sweep_validates_input():
    _, lm = make_test_problem(grid=16, seed=10)
    cfg = admm.AdmmConfig(rho=1.0)
    calls = []
    counted = lambda img: calls.append(1) or img.copy()
    with pytest.raises(ValueError):
        admm.rho_sweep(lm, counted, [], cfg, osem_start(lm))
    with pytest.raises(ValueError):
        admm.rho_sweep(lm, counted, [1.0, -2.0], cfg, osem_start(lm))
    assert calls == []       # the bad rho is rejected before any run


def test_sweep_rows_match_per_rho_runs():
    # reference rows written inline from one AdmmConfig run per rho
    activity, lm = make_test_problem(grid=16, seed=13)
    arch = net.ArchConfig(n_layers=2, channels=3)
    rng = np.random.default_rng(5)
    params = net.vector_to_params(arch, rng.normal(0, 0.2, net.n_params(arch)))
    # the 4-subset OSEM start the pinned flags below were taken from
    z0 = masked_osem(lm, 2, 4, recon.uniform_start(lm.model))
    rhos = [0.05, 0.5, 1.5, 5.0]
    want_curves, want_summary = [], []
    for rho in rhos:
        _, hist = admm.admm_pnp(lm, params, admm.AdmmConfig(
            rho, n_iterations=8, n_inner=7), z0=z0, x_ref=activity)
        secants = [s for s in hist.secant if s is not None]
        for k in range(len(hist)):
            want_curves.append([rho, k + 1, hist.primal[k], hist.dual[k],
                                hist.log_likelihood[k], hist.mse[k],
                                hist.dr_residual[k],
                                "" if hist.secant[k] is None else hist.secant[k]])
        pr = hist.primal[-1] / hist.primal[0]
        dr = hist.dual[-1] / hist.dual[0]
        rises = sum(hist.dr_residual[k] > hist.dr_residual[k - 1]
                    for k in range(2, len(hist)))
        want_summary.append([rho, hist.primal[-1], hist.dual[-1], pr, dr,
                             int(pr < 0.1 and dr < 0.1),
                             int(admm._is_monotone(hist.primal)),
                             int(admm._is_monotone(hist.dual)),
                             hist.log_likelihood[-1], hist.mse[-1],
                             rises, max(secants)])
    cfg = admm.AdmmConfig(1.0, n_iterations=8, n_inner=7)
    hists = admm.rho_sweep(lm, params, rhos, cfg, z0=z0, x_ref=activity)
    assert admm.curve_rows(hists) == want_curves
    summary = [admm.summary_row(h) for h in hists]
    assert summary == want_summary
    # threshold and monotone flags (columns 5-7) each take both values
    assert [row[5:8] for row in summary] == [[1, 1, 1], [0, 1, 1], [0, 0, 1],
                                             [0, 0, 0]]
    assert admm.CURVE_HEADER == ("rho", "iteration", "primal_residual_norm",
                                 "dual_residual_norm", "log_likelihood",
                                 "mse_vs_ref", "dr_residual", "secant")


def test_history_rows_shape():
    _, lm = make_test_problem(grid=16, seed=11)
    cfg = admm.AdmmConfig(rho=30.0, n_iterations=3)
    x_ref, _ = make_test_problem(grid=16, seed=11)
    _, hist = admm.admm_pnp(lm, IDENTITY, cfg, osem_start(lm), x_ref=x_ref)
    rows = hist.as_rows()
    assert len(rows) == 3
    assert rows[0][0] == 1 and rows[-1][0] == 3
    assert all(len(r) == len(admm.History.HEADER) for r in rows)
    assert len(hist.mse) == 3


@pytest.mark.parametrize("start", ["osem", "given"])
def test_rho_sweep_matches_serial_loop_bitwise(start):
    # the loop rho_sweep replaced, run on a separately built model so the
    # parallel runs build their own caches
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.vector_to_params(
        arch, np.random.default_rng(6).normal(0, 0.2, net.n_params(arch)))
    rhos = [0.3, 3.0, 30.0]
    cfg = admm.AdmmConfig(1.0, n_iterations=6, n_inner=5)
    runs = []
    for _ in range(2):
        activity, lm = make_test_problem(grid=16, seed=14)
        z0 = osem_start(lm) if start == "osem" else recon.osem_reconstruct(
            lm, 2)
        runs.append((activity, lm, z0))
    activity, lm, z0 = runs[0]
    want = [admm.admm_pnp(lm, params, replace(cfg, rho=rho), z0=z0, x_ref=activity)[1]
            for rho in rhos]
    activity, lm, z0 = runs[1]
    got = admm.rho_sweep(lm, params, rhos, cfg, z0=z0, x_ref=activity)
    assert [h.rho for h in got] == rhos
    for g, w in zip(got, want):
        assert g == w       # every recorded list, float for float
        assert g.as_rows() == w.as_rows()


def test_run_all_matches_serial_runs_bitwise():
    # three items, each with its own model, rho, start and reference,
    # against the serial admm_pnp loop on separately built models
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.vector_to_params(
        arch, np.random.default_rng(8).normal(0, 0.2, net.n_params(arch)))
    cfg = admm.AdmmConfig(1.0, n_iterations=5, n_inner=5)

    def runs():
        out = []
        for seed, rho in ((16, 3.0), (17, 30.0), (18, 300.0)):
            activity, lm = make_test_problem(grid=16, seed=seed)
            z0 = recon.osem_reconstruct(lm, 2)
            out.append((f"item {seed}", lm, replace(cfg, rho=rho), z0, activity))
        return out
    want = [admm.admm_pnp(lm, params, c, z0=z0, x_ref=ref)
            for _, lm, c, z0, ref in runs()]
    got = list(admm.run_all(runs(), params))
    assert len(got) == 3
    for (x_got, h_got), (x_want, h_want) in zip(got, want):
        assert x_got.tobytes() == x_want.tobytes()
        assert h_got == h_want       # every recorded list, float for float
        assert h_got.as_rows() == h_want.as_rows()


def test_rho_sweep_stress_more_workers_than_cores(monkeypatch):
    # 8 workers and a 1 us switch interval on a fresh projector: the
    # histories stay bitwise those of the serial loop
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.vector_to_params(
        arch, np.random.default_rng(7).normal(0, 0.2, net.n_params(arch)))
    rhos = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0]
    cfg = admm.AdmmConfig(1.0, n_iterations=3, n_inner=3)
    pool = ThreadPoolExecutor(max_workers=8, initializer=setattr,
                              initargs=(util._in_worker, "flag", True))
    monkeypatch.setattr(util, "_POOL", pool)
    monkeypatch.setattr(util, "N_WORKERS", 8)
    sim._assemble_projector.cache_clear()
    activity, lm = make_test_problem(grid=12, seed=15)
    z0 = osem_start(lm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = admm.rho_sweep(lm, params, rhos, cfg, z0, x_ref=activity)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    sim._assemble_projector.cache_clear()
    activity, lm = make_test_problem(grid=12, seed=15)
    z0 = osem_start(lm)
    want = [admm.admm_pnp(lm, params, replace(cfg, rho=rho), z0, x_ref=activity)[1]
            for rho in rhos]
    assert got == want
