"""Dataset building, loss decomposition, Adam, and the two training phases."""

import dataclasses
import warnings

import numpy as np
import pytest

from pnprecon import net, recon, sim, train
from oracles import masked_osem


def tiny_dataset(n_phantoms=3, n_doses=2, grid=16, n_test=1, osem_subsets=None):
    """4 OSEM iterations per item; at the derived 12 subsets of 12 angles
    unless osem_subsets is given, in which case the oracle redoes each
    item's OSEM image at that count from build_dataset's start."""
    specs = [sim.random_phantom_spec(grid, seed=40 + p) for p in range(n_phantoms)]
    geom = sim.GeometryConfig(n_angles=12, n_bins=int(grid * 1.5) + 2, bin_width=1.0)
    doses = list(np.linspace(0.8, 1.6, n_doses))
    ds = train.build_dataset(specs, geom, [doses] * n_phantoms, base_seed=5,
                             osem_iterations=4, n_test_phantoms=n_test, norm_seed=3)
    if osem_subsets is None:
        return ds
    items = []
    for item in ds.items:
        model = sim.phantom_model(geom, *ds.phantoms[item.phantom_id], 3, 0.2)
        lm = recon.LikelihoodModel(model=train.item_model(model, item.dose_scale),
                                   y=item.counts)
        x_noisy = masked_osem(lm, 4, osem_subsets, recon.uniform_start(model))
        items.append(dataclasses.replace(item, x_noisy=x_noisy))
    return dataclasses.replace(ds, items=tuple(items))


def test_dataset_size_is_phantoms_times_doses():
    ds = tiny_dataset(n_phantoms=3, n_doses=2)
    assert len(ds.items) == 6


def test_dataset_split_phantom_disjoint():
    ds = tiny_dataset(n_phantoms=3, n_doses=2, n_test=1)
    train_ph = {it.phantom_id for it in ds.split("train")}
    test_ph = {it.phantom_id for it in ds.split("test")}
    assert train_ph and test_ph
    assert train_ph.isdisjoint(test_ph)


def test_dataset_rebuild_bit_identical():
    a = tiny_dataset()
    b = tiny_dataset()
    for ia, ib in zip(a.items, b.items):
        np.testing.assert_array_equal(ia.x_noisy, ib.x_noisy)
        np.testing.assert_array_equal(ia.x_ref, ib.x_ref)
        assert ia.seed == ib.seed


def test_dataset_needs_two_phantoms():
    spec = sim.random_phantom_spec(16, seed=1)
    geom = sim.GeometryConfig(n_angles=8, n_bins=26, bin_width=1.0)
    with pytest.raises(ValueError, match="phantoms"):
        train.build_dataset([spec], geom, [1.0], 0, 1)


def test_sample_tilde_endpoints_and_midpoint():
    rng = np.random.default_rng(0)
    x_ref = rng.random((8, 8))
    d_out = rng.random((8, 8))
    np.testing.assert_array_equal(train.sample_tilde(x_ref, d_out, 1.0), x_ref)
    np.testing.assert_array_equal(train.sample_tilde(x_ref, d_out, 0.0), d_out)
    mid = train.sample_tilde(x_ref, d_out, 0.5)
    np.testing.assert_allclose(mid, (x_ref + d_out) / 2.0, rtol=1e-15)
    with pytest.raises(ValueError):
        train.sample_tilde(x_ref, d_out, 1.5)


def _inline_sigma_draw(params, x_ref, d_out, rng, power_iters, u0=None):
    """The draw sigma_at_tilde replaced, as the JAC step, the epoch log and
    certify each wrote it: kappa first, then the seed of the Lanczos start."""
    kappa = float(rng.uniform())
    lin = net.Linearization(params, train.sample_tilde(x_ref, d_out, kappa))
    sigma, u, steps = net.spectral_norm_l(lin, max_iters=power_iters,
                                          seed=int(rng.integers(2 ** 62)), u0=u0)
    return kappa, lin, sigma, u, steps


@pytest.mark.parametrize("warm", [True, False])
def test_sigma_at_tilde_matches_inline_draw(warm):
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=3, channels=4)
    params = net.vector_to_params(
        arch, np.random.default_rng(21).normal(0, 0.5, net.n_params(arch)))
    item = ds.items[0]
    out = net.forward(params, item.x_noisy)
    u0 = np.random.default_rng(22).standard_normal(out.shape) if warm else None
    rng_want, rng_got = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(3):
        want = _inline_sigma_draw(params, item.x_ref, out, rng_want, 4, u0)
        draw = train.draw_tilde(rng_got)
        got = (draw[0],) + train.sigma_at_tilde(params, item.x_ref, out, draw, 4, u0)
        assert (got[0], got[2], got[4]) == (want[0], want[2], want[4])
        np.testing.assert_array_equal(got[1].x, want[1].x)
        np.testing.assert_array_equal(got[1].out, want[1].out)
        np.testing.assert_array_equal(got[3], want[3])
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _pre_cfg(**kw):
    base = dict(epochs=1, learning_rate=1e-3, batch_size=1)
    base.update(kw)
    return train.TrainConfig(**base)


def _jac_cfg(**kw):
    base = dict(epochs=1, learning_rate=5e-4, batch_size=2,
                beta=10.0, alpha=0.1, epsilon=0.05, power_iters=10)
    base.update(kw)
    return train.TrainConfig(**base)


def test_loss_beta_zero_equals_mse_and_gradient():
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.init_params(arch, seed=0)
    batch = list(ds.items[:2])
    rng = np.random.default_rng(1)
    total, mse_part, pen, gvec = train.loss_and_grad(
        params, batch, _pre_cfg(), rng)
    assert pen == 0.0
    assert total == mse_part
    want = np.zeros_like(gvec)
    for item in batch:
        want += net.grad_to_vector(net.param_grad_mse(params, item.x_noisy,
                                                      item.x_ref)[0])
    np.testing.assert_array_equal(gvec, want)


def test_loss_identity_denoiser_noise_free_inputs():
    # D = Id on x_b = ref_b: MSE = 0 and sigma = 1, so each element
    # contributes hinge(1) = eps^(1+alpha)
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.identity_params(arch)
    items = [train.DatasetItem(phantom_id=i.phantom_id, dose_scale=i.dose_scale,
                               seed=i.seed, counts=i.counts, x_noisy=i.x_ref,
                               x_ref=i.x_ref, split=i.split)
             for i in ds.items[:3]]
    rng = np.random.default_rng(2)
    cfg = _jac_cfg(epsilon=0.05, alpha=0.1)
    total, mse_part, pen, gvec = train.loss_and_grad(params, items, cfg, rng)
    assert mse_part == 0.0
    assert pen == pytest.approx(3 * 0.05 ** 1.1, rel=1e-12)
    assert total == pytest.approx(10.0 * pen, rel=1e-12)


def test_loss_decomposition_exact():
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.vector_to_params(
        arch, np.random.default_rng(3).normal(0, 0.5, net.n_params(arch)))
    rng = np.random.default_rng(4)
    cfg = _jac_cfg(beta=7.0)
    total, mse_part, pen, _ = train.loss_and_grad(params, list(ds.items[:3]),
                                                  cfg, rng)
    assert total == mse_part + 7.0 * pen


@pytest.mark.parametrize("phase, passes_per_item", [("pre", 1), ("jac", 2)])
def test_loss_and_grad_primal_passes(monkeypatch, phase, passes_per_item):
    # one pass on x_noisy (loss, output and MSE gradient); in JAC one more
    # on x_tilde, shared by power iteration and the penalty gradient
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.init_params(arch, seed=0, scale=0.3)
    batch = list(ds.items[:3])
    cfg = _pre_cfg(batch_size=3) if phase == "pre" else _jac_cfg(batch_size=3)
    calls = [0]
    original = net.Linearization.__init__

    def counted(self, *args):
        calls[0] += 1
        original(self, *args)
    monkeypatch.setattr(net.Linearization, "__init__", counted)
    train.loss_and_grad(params, batch, cfg, np.random.default_rng(16))
    assert calls[0] == passes_per_item * len(batch)


def test_jac_loss_and_grad_matches_separate_linearizations():
    # the replaced path: power iteration on one linearization of x_tilde
    # and the penalty gradient on a fresh one, drawing the same rng values
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=3, channels=4)
    params = net.vector_to_params(
        arch, np.random.default_rng(17).normal(0, 0.5, net.n_params(arch)))
    batch = list(ds.items[:3])
    cfg = _jac_cfg(batch_size=3)
    u0 = np.random.default_rng(18).standard_normal(batch[0].x_ref.shape)
    key = (batch[0].phantom_id, round(batch[0].dose_scale, 12))
    got = train.loss_and_grad(params, batch, cfg, np.random.default_rng(19),
                              power_warm={key: u0.copy()})

    rng = np.random.default_rng(19)
    loss_mse = loss_pen = 0.0
    gvec = np.zeros(net.n_params(arch))
    for i, item in enumerate(batch):
        grad, out = net.param_grad_mse(params, item.x_noisy, item.x_ref)
        loss_mse += float(np.sum((out - item.x_ref) ** 2))
        gvec += grad.vec
        x_tilde = train.sample_tilde(item.x_ref, out, float(rng.uniform()))
        _, u, _ = net.spectral_norm_l(net.Linearization(params, x_tilde),
                                      max_iters=cfg.power_iters,
                                      seed=int(rng.integers(2 ** 62)),
                                      u0=u0 if i == 0 else None)
        pen_grad, sigma_hat = net.param_grad_penalty(
            net.Linearization(params, x_tilde), u,
            epsilon=cfg.epsilon, alpha=cfg.alpha)
        loss_pen += net.hinge(sigma_hat, cfg.epsilon, cfg.alpha)[0]
        gvec += cfg.beta * pen_grad.vec
    assert loss_pen > 0.0, "test setup must activate the hinge"
    assert got[:3] == (loss_mse + cfg.beta * loss_pen, loss_mse, loss_pen)
    np.testing.assert_array_equal(got[3], gvec)


def test_jac_loss_and_grad_matches_serial_loop_bitwise():
    # the per-item loop loss_and_grad ran before its items were fanned out:
    # losses, gradient, the stored warm starts and the final RNG state
    ds = tiny_dataset()
    arch = net.ArchConfig(n_layers=3, channels=4)
    params = net.vector_to_params(
        arch, np.random.default_rng(24).normal(0, 0.5, net.n_params(arch)))
    batch = list(ds.items[:3])
    cfg = _jac_cfg(batch_size=3)
    keys = [(it.phantom_id, round(it.dose_scale, 12)) for it in batch]
    u0 = np.random.default_rng(25).standard_normal(batch[1].x_ref.shape)
    warm_got, warm_want = {keys[1]: u0.copy()}, {keys[1]: u0.copy()}
    rng_got, rng_want = np.random.default_rng(26), np.random.default_rng(26)
    got = train.loss_and_grad(params, batch, cfg, rng_got, power_warm=warm_got)

    loss_mse = loss_pen = 0.0
    gvec = np.zeros(net.n_params(arch))
    for item, key in zip(batch, keys):
        grad, out = net.param_grad_mse(params, item.x_noisy, item.x_ref)
        diff = out - item.x_ref
        loss_mse += float(np.sum(diff * diff))
        gvec += grad.vec
        kappa = float(rng_want.uniform())
        lin = net.Linearization(params, train.sample_tilde(item.x_ref, out, kappa))
        _, u, _ = net.spectral_norm_l(lin, max_iters=cfg.power_iters,
                                      seed=int(rng_want.integers(2 ** 62)),
                                      u0=warm_want.get(key))
        warm_want[key] = u
        pen_grad, sigma_hat = net.param_grad_penalty(
            lin, u, epsilon=cfg.epsilon, alpha=cfg.alpha)
        loss_pen += net.hinge(sigma_hat, cfg.epsilon, cfg.alpha)[0]
        gvec += cfg.beta * pen_grad.vec
    assert loss_pen > 0.0, "test setup must activate the hinge"
    assert got[:3] == (loss_mse + cfg.beta * loss_pen, loss_mse, loss_pen)
    np.testing.assert_array_equal(got[3], gvec)
    assert got[3].tobytes() == gvec.tobytes()
    assert list(warm_got) == list(warm_want)
    for key in keys:
        assert warm_got[key].tobytes() == warm_want[key].tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_test_metrics_match_serial_loop_bitwise():
    # the epoch-log loop _test_metrics ran before its samples were fanned
    # out: item pick, kappa, then the power-iteration seed, per sample
    ds = tiny_dataset(n_phantoms=3, n_doses=3)
    test_items = ds.split("test")
    assert len(test_items) == 3
    arch = net.ArchConfig(n_layers=3, channels=4)
    params = net.vector_to_params(
        arch, np.random.default_rng(27).normal(0, 0.5, net.n_params(arch)))
    cfg = _pre_cfg(sigma_eval_samples=3, power_iters=6)
    rng_got, rng_want = np.random.default_rng(28), np.random.default_rng(28)
    got = train._test_metrics(params, test_items, cfg, rng_got)

    outs = [net.forward(params, it.x_noisy) for it in test_items]
    mses = [recon.mse(out, it.x_ref) for out, it in zip(outs, test_items)]
    sigmas = []
    for _ in range(3):
        idx = int(rng_want.integers(len(test_items)))
        draw = (float(rng_want.uniform()), int(rng_want.integers(2 ** 62)))
        sigmas.append(train.sigma_at_tilde(params, test_items[idx].x_ref, outs[idx],
                                           draw, cfg.power_iters, dtype=np.float32)[1])
    assert got == (float(np.mean(mses)), float(np.max(sigmas)),
                   float(np.mean(sigmas)))
    assert len(set(sigmas)) == 3
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_sample_sigmas_matches_serial_loop_bitwise():
    # certify's sampling: round-robin picks over the test points, every
    # draw taken in order before the samples run, each sample started cold
    # on a float32 linearization
    ds = tiny_dataset(n_phantoms=3, n_doses=3)
    arch = net.ArchConfig(n_layers=3, channels=4)
    params = net.vector_to_params(
        arch, np.random.default_rng(29).normal(0, 0.5, net.n_params(arch)))
    points = [(it.x_ref, net.forward(params, it.x_noisy)) for it in ds.split("test")]
    assert len(points) == 3
    picks = [points[j % len(points)] for j in range(7)]
    rng = np.random.default_rng(30)
    draws = [train.draw_tilde(rng) for _ in picks]
    got = list(train.sample_sigmas(params, picks, draws, 6))

    want = []
    for (x_ref, out), draw in zip(picks, draws):
        _, sigma, _, steps = train.sigma_at_tilde(params, x_ref, out, draw, 6,
                                                  dtype=np.float32)
        want.append((sigma, steps))
    assert got == want
    assert len({sigma for sigma, _ in got}) == 7


def _huge_net(scale):
    """init_params at scale with a last layer of the same scale: the layer
    outputs grow as scale ** layer."""
    params = net.init_params(net.ArchConfig(), 1, scale=scale)
    last = params.kernels[-1]
    last[...] = np.random.default_rng(2).normal(0.0, scale / np.sqrt(last[0].size),
                                                last.shape)
    return params


@pytest.mark.parametrize("scale,redone", [(0.1, False), (1e3, False), (1e6, False),
                                          (1e8, True), (1e12, True)])
def test_sample_sigmas_redoes_float32_overflow_in_float64(scale, redone):
    # at 1e8 float32 overflows and, unguarded, returns a finite sigma 3x too
    # small; at 1e12 a NaN
    params = _huge_net(scale)
    rng = np.random.default_rng(60)
    points = [(np.abs(rng.normal(1.0, 0.3, (48, 48))),
               np.abs(rng.normal(1.0, 0.3, (48, 48)))) for _ in range(2)]
    draws = [train.draw_tilde(rng) for _ in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(train.sample_sigmas(params, points, draws, 10))
    for (x_ref, d_out), draw, (sigma, steps) in zip(points, draws, got):
        want = train.sigma_at_tilde(params, x_ref, d_out, draw, 10,
                                    dtype=np.float64 if redone else np.float32)
        assert (sigma, steps) == (want[1], want[3])
        assert np.isfinite(sigma)


def test_full_loss_gradient_matches_finite_differences():
    ds = tiny_dataset(grid=16)
    arch = net.ArchConfig(n_layers=2, channels=2)
    vec0 = np.random.default_rng(5).normal(0, 0.6, net.n_params(arch))
    item = ds.items[0]
    eps, alpha, beta = 0.05, 0.1, 10.0

    # freeze kappa and the power direction so the loss is a plain function
    params0 = net.vector_to_params(arch, vec0)
    kappa = 0.4
    x_tilde0 = train.sample_tilde(item.x_ref,
                                  net.forward(params0, item.x_noisy), kappa)
    _, u, _ = net.spectral_norm_l(net.Linearization(params0, x_tilde0),
                                  max_iters=10, seed=6)

    def loss(vec):
        p = net.vector_to_params(arch, vec)
        out = net.forward(p, item.x_noisy)
        mse_part = float(np.sum((out - item.x_ref) ** 2))
        # x_tilde depends on theta through D(x_b)
        x_tilde = train.sample_tilde(item.x_ref, out, kappa)
        g = 2.0 * net.Linearization(p, x_tilde).jvp(u) - u
        value, _ = net.hinge(float(np.linalg.norm(g)), eps, alpha)
        return mse_part + beta * value

    # the analytic gradient treats x_tilde as fixed (stop-gradient), so the
    # finite-difference comparison freezes it too
    def loss_stopgrad(vec):
        p = net.vector_to_params(arch, vec)
        out = net.forward(p, item.x_noisy)
        mse_part = float(np.sum((out - item.x_ref) ** 2))
        g = 2.0 * net.Linearization(p, x_tilde0).jvp(u) - u
        value, _ = net.hinge(float(np.linalg.norm(g)), eps, alpha)
        return mse_part + beta * value

    grad = net.grad_to_vector(net.param_grad_mse(params0, item.x_noisy,
                                                 item.x_ref)[0])
    pen_grad, sigma = net.param_grad_penalty(net.Linearization(params0, x_tilde0),
                                             u, epsilon=eps, alpha=alpha)
    assert sigma + eps > 1.0
    grad = grad + beta * net.grad_to_vector(pen_grad)
    rng = np.random.default_rng(7)
    h = 1e-6
    for j in rng.choice(vec0.size, size=15, replace=False):
        e = np.zeros(vec0.size)
        e[j] = h
        fd = (loss_stopgrad(vec0 + e) - loss_stopgrad(vec0 - e)) / (2 * h)
        assert abs(fd - grad[j]) / max(abs(grad[j]), 1e-8) < 1e-3


def test_adam_zero_gradient_keeps_params():
    vec = np.array([1.0, -2.0, 3.0])
    state = train.AdamState.zeros(3)
    new, state = train.adam_step(vec, np.zeros(3), state, lr=0.1)
    np.testing.assert_array_equal(new, vec)


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first step lr * sign(g) up to the eps guard
    for scale in (1e-3, 1.0, 1e6):
        vec = np.zeros(4)
        grad = np.full(4, scale)
        new, _ = train.adam_step(vec, grad, train.AdamState.zeros(4), lr=0.01)
        np.testing.assert_allclose(np.abs(new), 0.01, rtol=1e-4)


def test_adam_converges_on_scalar_quadratic():
    # minimize (w - 3)^2
    vec = np.array([0.0])
    state = train.AdamState.zeros(1)
    for _ in range(500):
        grad = 2.0 * (vec - 3.0)
        vec, state = train.adam_step(vec, grad, state, lr=0.05)
    assert abs(vec[0] - 3.0) < 1e-6


def test_train_pre_reduces_mse_on_toy_set():
    # one training phantom at five doses; MSE must halve within 30 epochs
    ds = tiny_dataset(n_phantoms=2, n_doses=5, n_test=1)
    arch = net.ArchConfig(n_layers=3, channels=6)
    params0 = net.init_params(arch, seed=8, scale=0.3)
    cfg = _pre_cfg(epochs=30, learning_rate=1e-2, seed=9)
    params, log = train.train_phase(params0, ds, cfg)
    assert len(log) == 30
    first = log[0][train.LOG_HEADER.index("loss_mse")]
    last = log[-1][train.LOG_HEADER.index("loss_mse")]
    assert last <= 0.5 * first
    assert all(len(row) == len(train.LOG_HEADER) for row in log)


def test_train_jac_enforces_sigma_on_toy_set():
    # after the constrained phase, sampled test spectral norms sit under 1.05;
    # the toy set keeps the 4-subset OSEM images the bound was set on (its
    # 12 derived subsets are of one angle each, and there the hinge does
    # not reach 1.05 in 14 epochs)
    ds = tiny_dataset(n_phantoms=3, n_doses=5, n_test=1, osem_subsets=4)
    arch = net.ArchConfig(n_layers=3, channels=6)
    params0 = net.init_params(arch, seed=8, scale=0.3)
    pre, _ = train.train_phase(params0, ds, _pre_cfg(
        epochs=30, learning_rate=1e-2, seed=9, sigma_eval_samples=2))
    jac, log = train.train_phase(pre, ds, _jac_cfg(
        epochs=14, learning_rate=5e-3, batch_size=5, seed=10,
        sigma_eval_samples=2))
    assert len(log) == 14
    rng = np.random.default_rng(99)
    test = ds.split("test")
    sigmas = []
    for j in range(20):
        item = test[j % len(test)]
        x_tilde = train.sample_tilde(item.x_ref,
                                     net.forward(jac, item.x_noisy),
                                     float(rng.uniform()))
        sigma, _, _ = net.spectral_norm_l(net.Linearization(jac, x_tilde),
                                          max_iters=15,
                                          seed=int(rng.integers(2 ** 62)))
        sigmas.append(sigma)
    assert max(sigmas) < 1.05


def test_train_reproducible():
    ds = tiny_dataset(n_phantoms=2, n_doses=1)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params0 = net.init_params(arch, seed=10)
    cfg = _pre_cfg(epochs=3, seed=11)
    p1, log1 = train.train_phase(params0, ds, cfg)
    p2, log2 = train.train_phase(params0, ds, cfg)
    np.testing.assert_array_equal(net.params_to_vector(p1),
                                  net.params_to_vector(p2))
    assert log1 == log2


def test_train_jac_penalty_inactive_matches_pre_gradient():
    # identity denoiser with eps=0: every sigma = 1 keeps the hinge dead,
    # so the JAC gradient equals the PRE gradient bit for bit
    ds = tiny_dataset(n_phantoms=2, n_doses=1)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params = net.identity_params(arch)
    batch = list(ds.items)
    _, _, _, g_pre = train.loss_and_grad(params, batch, _pre_cfg(),
                                         np.random.default_rng(12))
    cfg = _jac_cfg(epsilon=0.0)
    _, _, pen, g_jac = train.loss_and_grad(params, batch, cfg,
                                           np.random.default_rng(13))
    assert pen == 0.0
    np.testing.assert_array_equal(g_pre, g_jac)


@pytest.mark.parametrize("split, what", [("train", "training"), ("test", "test")])
def test_train_phase_rejects_an_empty_split(split, what):
    ds = tiny_dataset(n_phantoms=2, n_doses=1)
    ds = train.Dataset(items=tuple(it for it in ds.items if it.split != split),
                       phantoms=ds.phantoms)
    params0 = net.init_params(net.ArchConfig(n_layers=2, channels=3), seed=16)
    with pytest.raises(ValueError, match=f"^dataset has no {what} items$"):
        train.train_phase(params0, ds, _pre_cfg(epochs=1, seed=17))


def test_train_nonfinite_loss_aborts():
    from pnprecon.util import NumericalAbort
    ds = tiny_dataset(n_phantoms=2, n_doses=1)
    arch = net.ArchConfig(n_layers=2, channels=3)
    params0 = net.init_params(arch, seed=14)
    params0.kernels[0][:] = 1e200   # overflow through both layers
    params0.kernels[1][:] = 1e200
    cfg = _pre_cfg(epochs=1, seed=15)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort, match="epoch 0"):
            train.train_phase(params0, ds, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(epochs=0, learning_rate=1e-3, batch_size=1)
