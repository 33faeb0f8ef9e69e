"""Output checks of the benchmark.  Each check is one operation: it
returns on success and raises ``CheckError`` (or any exception raised
while reading the outputs) on failure."""

import csv
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def read_csv(path):
    """Rows of a CSV written by the program, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _finite(row, keys):
    return all(math.isfinite(float(row[k])) for k in keys)


def manifest(plan, data_dir):
    rows = read_csv(Path(data_dir, "manifest.csv"))
    require(len(rows) == plan.n_items,
            f"manifest has {len(rows)} rows, expected {plan.n_items}")


def counts_are_integers(sim, plan, data_dir):
    for i in range(plan.n_items):
        y = sim.read_image(Path(data_dir, f"item{i:03d}_counts.img"))
        require(y.shape == plan.sino_shape, f"item {i}: sinogram shape {y.shape}")
        require(np.all(np.isfinite(y)) and np.all(y >= 0) and np.all(y == np.rint(y)),
                f"item {i}: counts are not nonnegative integers")


def osem_nonnegative(sim, plan, data_dir):
    for i in range(plan.n_items):
        x = sim.read_image(Path(data_dir, f"item{i:03d}_osem.img"))
        require(x.shape == (plan.grid, plan.grid), f"item {i}: image shape {x.shape}")
        require(np.all(np.isfinite(x)) and np.all(x >= 0),
                f"item {i}: OSEM image not finite and nonnegative")


def projector_adjoint(sim, plan, data_dir, seed):
    """<A x, s> = <x, A^T s> on the generated geometry and attenuation,
    with the background left at zero."""
    mu = sim.read_image(Path(data_dir, "phantom00_mu.img"))
    geom = sim.GeometryConfig(n_angles=plan.n_angles, n_bins=plan.n_bins,
                              bin_width=plan.bin_width)
    model = sim.build_system_model(geom, mu, norm_seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.random((plan.grid, plan.grid))
    s = rng.random(plan.sino_shape)
    lhs = float(np.vdot(sim.forward_project(model, x), s))
    rhs = float(np.vdot(x, sim.back_project(model, s)))
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    require(rel <= 1e-10, f"projector adjointness error {rel:.3g}")


def training_log(plan, train_dir, phase):
    rows = read_csv(Path(train_dir, f"train_{phase}.csv"))
    epochs = plan.epochs[phase]
    require(len(rows) == epochs, f"train_{phase}.csv has {len(rows)} rows, expected {epochs}")
    require(all(_finite(r, r.keys()) for r in rows),
            f"train_{phase}.csv has non-finite values")


def checkpoint_reloads(net, plan, train_dir, phase):
    params = net.load_checkpoint(Path(train_dir, f"{phase}.ckpt"))
    require(params.arch.n_layers == plan.n_layers and params.arch.channels == plan.channels,
            f"{phase}.ckpt architecture does not match the config")
    vec = net.params_to_vector(params)
    require(np.all(np.isfinite(vec)), f"{phase}.ckpt has non-finite parameters")


def certify_rows(plan, certify_dir):
    rows = read_csv(Path(certify_dir, "certify.csv"))
    require(len(rows) == plan.certify_samples,
            f"certify.csv has {len(rows)} rows, expected {plan.certify_samples}")
    sig = [float(r["sigma"]) for r in rows]
    require(all(math.isfinite(s) and s > 0 for s in sig), "certify.csv sigma not finite and positive")


def certify_summary(plan, certify_dir):
    sig = [float(r["sigma"]) for r in read_csv(Path(certify_dir, "certify.csv"))]
    (summary,) = read_csv(Path(certify_dir, "certify_summary.csv"))
    margin = float(summary["margin"])
    frac = sum(s <= 1.0 + margin for s in sig) / len(sig)
    require(int(summary["n_samples"]) == len(sig), "certify summary sample count mismatch")
    require(abs(float(summary["fraction_within"]) - frac) <= 1e-12,
            f"certify summary fraction {summary['fraction_within']} != rows {frac}")
    require(float(summary["sigma_max"]) == max(sig), "certify summary sigma_max mismatch")


def recon_summary(plan, recon_dir):
    rows = read_csv(Path(recon_dir, "summary.csv"))
    methods = {}
    for r in rows:
        methods.setdefault(r["item"], []).append(r["method"])
        require(_finite(r, ("mse", "log_likelihood")), f"summary.csv row {r} not finite")
        if r["method"] == "admm":
            require(_finite(r, ("final_primal", "final_dual")), f"summary.csv row {r} not finite")
    require(len(methods) == plan.n_sims, f"summary.csv has {len(methods)} sims, expected {plan.n_sims}")
    require(all(sorted(m) == ["admm", "osem", "osem_filtered"] for m in methods.values()),
            "summary.csv does not have the 3 methods per sim")


def sweep_summary(plan, sweep_dir):
    rows = read_csv(Path(sweep_dir, "sweep_summary.csv"))
    require([float(r["rho"]) for r in rows] == plan.rhos,
            f"sweep_summary.csv rhos {[r['rho'] for r in rows]} != {plan.rhos}")
    require(all(_finite(r, ("final_primal", "final_dual", "final_log_likelihood"))
                for r in rows), "sweep_summary.csv has non-finite values")
