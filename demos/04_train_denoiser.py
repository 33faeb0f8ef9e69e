"""Two-phase denoiser training at toy scale: supervised first, then the
nonexpansiveness hinge on the sampled Jacobian spectral norm.

Reproduces the qualitative picture: the unconstrained network ends with
spectral norms of 2D - Id above 1, the constrained phase pulls them below.
Takes a minute or two on one CPU core.
"""

import numpy as np

from pnprecon import net, sim, train

# toy dataset: 3 phantoms (2 train / 1 test) x 4 doses at 24x24
specs = [sim.random_phantom_spec(24, seed=60 + p) for p in range(3)]
geom = sim.GeometryConfig(n_angles=24, n_bins=36, bin_width=1.0)
doses = list(np.logspace(-0.3, 0.3, 4))
# 3 OSEM iterations over the 12 subsets of 24 angles: 36 subset updates
dataset = train.build_dataset(specs, geom, [doses] * len(specs), base_seed=17,
                              osem_iterations=3, n_test_phantoms=1, norm_seed=4)
print(f"dataset: {len(dataset.split('train'))} train / "
      f"{len(dataset.split('test'))} test items")

arch = net.ArchConfig(n_layers=3, channels=8)
params = net.init_params(arch, seed=1, scale=0.3)


def certify(tag, params, n=40):
    rng = np.random.default_rng(99)
    points = [(item.x_ref, net.forward(params, item.x_noisy))
              for item in dataset.split("test")]
    sigmas = np.array([sigma for sigma, _ in train.sample_sigmas(
        params, [points[j % len(points)] for j in range(n)],
        [train.draw_tilde(rng) for _ in range(n)], 20)])
    print(f"{tag}: sigma(2D - Id) over {n} test points: "
          f"min {sigmas.min():.3f}, mean {sigmas.mean():.3f}, "
          f"max {sigmas.max():.3f}, share <= 1.05: {np.mean(sigmas <= 1.05):.0%}")


pre_cfg = train.TrainConfig(epochs=30, learning_rate=5e-3, batch_size=1, seed=2,
                            sigma_eval_samples=4)
MSE, PEN = train.LOG_HEADER.index("loss_mse"), train.LOG_HEADER.index("loss_pen")
params_pre, log_pre = train.train_phase(params, dataset, pre_cfg)
print(f"supervised phase: per-item MSE {log_pre[0][MSE]:.1f} -> "
      f"{log_pre[-1][MSE]:.1f}")
certify("after supervised phase", params_pre)

jac_cfg = train.TrainConfig(epochs=14, learning_rate=2e-3, batch_size=4, beta=10.0,
                            alpha=0.1, epsilon=0.05, power_iters=10, seed=3,
                            sigma_eval_samples=4)
params_jac, log_jac = train.train_phase(params_pre, dataset, jac_cfg)
print(f"constrained phase: hinge penalty {log_jac[0][PEN]:.4f} -> "
      f"{log_jac[-1][PEN]:.4f}")
certify("after constrained phase", params_jac)
