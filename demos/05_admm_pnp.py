"""Plug-and-Play ADMM: the loop, its residuals, and the rho trade-off.

Three denoisers ride the same loop: the identity (a do-nothing prior),
a closed-form quadratic prox (classical convex ADMM, residuals vanish),
and a trained network.  For the network it also reports the
Douglas-Rachford residual and the secant of 2D - Id along the path.
"""

import numpy as np

from pnprecon import admm, net, recon, sim, train

spec = sim.random_phantom_spec(32, seed=21)
activity, mu = sim.make_phantom(spec)
geom = sim.GeometryConfig(n_angles=32, n_bins=48, bin_width=1.0)
model = sim.build_system_model(geom, mu, norm_seed=6)
model = sim.with_background(model, activity, fraction=0.2)
counts = sim.simulate_counts(model, activity, dose_scale=1.0, seed=23)
lm = recon.LikelihoodModel(model=model, y=counts)
z0 = recon.osem_reconstruct(lm, 8)
print(f"{int(counts.sum())} counts; OSEM start MSE "
      f"{recon.mse(z0, activity):.4f}")

rho = float(np.mean(lm.model.sensitivity))

# 1. quadratic-prox denoiser: classical convex ADMM, residuals go to zero
lam = rho
m = np.clip(z0, 0.0, None)
quad = lambda v: (rho * v + lam * m) / (rho + lam)
cfg = admm.AdmmConfig(rho=rho, n_iterations=60, n_inner=60)
x_quad, hist = admm.admm_pnp(lm, quad, cfg, z0=z0, x_ref=activity)
print("quadratic-prox denoiser (convex case):")
print(f"  primal residual {hist.primal[0]:.2e} -> {hist.primal[-1]:.2e}")
print(f"  dual   residual {hist.dual[0]:.2e} -> {hist.dual[-1]:.2e}")

# 2. a quickly trained network denoiser
specs = [sim.random_phantom_spec(32, seed=70 + p) for p in range(3)]
dataset = train.build_dataset(specs, geom, [[0.7, 1.0, 1.4]] * 3, base_seed=31,
                              osem_iterations=8, n_test_phantoms=1, norm_seed=6)
params = net.init_params(net.ArchConfig(n_layers=3, channels=8),
                         seed=4, scale=0.3)
params, _ = train.train_phase(params, dataset, train.TrainConfig(
    epochs=20, learning_rate=5e-3, batch_size=1, seed=5, sigma_eval_samples=2))
params, _ = train.train_phase(params, dataset, train.TrainConfig(
    epochs=10, learning_rate=2e-3, batch_size=3, beta=10.0,
    alpha=0.1, epsilon=0.05, power_iters=10, seed=6, sigma_eval_samples=2))

cfg = admm.AdmmConfig(rho=rho, n_iterations=40)
x_net, hist = admm.admm_pnp(lm, params, cfg, z0=z0, x_ref=activity)
print("trained network denoiser:")
print(f"  primal residual ratio (it 40 / it 1): "
      f"{hist.primal[-1] / hist.primal[0]:.3f}")
print(f"  dual   residual ratio (it 40 / it 1): "
      f"{hist.dual[-1] / hist.dual[0]:.3f}")
print(f"  MSE {hist.mse[0]:.4f} -> {hist.mse[-1]:.4f} "
      f"(OSEM start {recon.mse(z0, activity):.4f})")
# the DR residual ||t_k - t_{k-1}|| in the denoiser input t = x + u, and
# the largest secant of 2D - Id between the inputs the loop visited
print(f"  DR residual {hist.dr_residual[0]:.3e} -> {hist.dr_residual[-1]:.3e}, "
      f"{admm.summary_row(hist)[-2]} rises")
print(f"  max secant of 2D - Id: "
      f"{max(s for s in hist.secant if s is not None):.3f}")

# 3. rho sensitivity: too small or too large stalls one of the residuals
sweep_cfg = admm.AdmmConfig(rho=rho, n_iterations=40)
histories = admm.rho_sweep(lm, params, [rho / 100, rho, rho * 100], sweep_cfg,
                           z0=z0, x_ref=activity)
print("rho sweep (residual ratios at iteration 40):")
for hist in histories:
    r, _, _, pr, dr, ok = admm.summary_row(hist)[:6]
    print(f"  rho {r:10.2f}: primal {pr:7.3f}, dual {dr:7.3f}, "
          f"meets 10% threshold: {bool(ok)}")
