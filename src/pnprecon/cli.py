"""Batch experiment commands: simulate, train, reconstruct, sweep, certify.

Every command reads one config file, writes CSV/image artifacts plus a
provenance record, and is byte-reproducible given the same config and
seeds.  Exit codes: 0 success, 2 config error, 3 numerical abort.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, admm, net, recon, sim, train
from .config import ConfigError, FileFormatError, config_hash, load_config
from .util import NumericalAbort, atomic_write_text, derive_seed, write_csv

__all__ = ["main"]


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_provenance(out_dir, cfg, **extras):
    lines = [f"config_hash = {config_hash(cfg)}",
             f"seed = {cfg.seed}",
             f"version = pnprecon {__version__}"]
    lines += [f"{key} = {value}" for key, value in extras.items()]
    atomic_write_text(os.path.join(out_dir, "provenance.txt"),
                      "\n".join(lines) + "\n")


def _phantom_specs(cfg):
    pc = cfg["phantoms"]
    return [sim.random_phantom_spec(pc["grid_size"], pc["family_seed"] + p)
            for p in range(pc["count"])]


def _geometry(cfg):
    g = cfg["geometry"]
    return sim.GeometryConfig(n_angles=g["n_angles"], n_bins=g["n_bins"],
                              bin_width=g["bin_width"])


def _doses(cfg, phantom_id):
    s = cfg["simulation"]
    rng = np.random.default_rng(derive_seed(cfg.seed, 202, phantom_id))
    half = s["dose_decades"] / 2.0
    return sorted(s["dose_center"] * 10.0 ** rng.uniform(-half, half)
                  for _ in range(s["n_doses"]))


def _norm_seed(cfg):
    return derive_seed(cfg.seed, 101) if cfg["simulation"]["normalization"] else None


def _osem_config(cfg):
    o = cfg["osem"]
    subsets = o["n_subsets"]
    if subsets == "auto":
        n_sub = recon.default_n_subsets(cfg["geometry"]["n_angles"])
    else:
        n_sub = int(subsets)
    return recon.OsemConfig(n_iterations=o["n_iterations"], n_subsets=n_sub)


def _arch(cfg):
    n = cfg["net"]
    return net.ArchConfig(n_layers=n["n_layers"], channels=n["channels"],
                          kernel=n["kernel"], activation=n["activation"])


def _train_config(cfg, phase):
    sec = cfg[f"train.{phase}"]
    return train.TrainConfig(
        phase=phase, epochs=sec["epochs"], learning_rate=sec["learning_rate"],
        batch_size=sec["batch_size"],
        beta=sec.get("beta", 0.0), alpha=sec.get("alpha", 0.1),
        epsilon=sec.get("epsilon", 0.05), power_iters=sec["power_iters"],
        seed=derive_seed(cfg.seed, 301 if phase == "pre" else 302),
        sigma_eval_samples=sec["sigma_eval_samples"])


def _check_domain(cfg):
    """Build every domain object once, so that a value the parser accepts
    but a command would reject fails before any output is written."""
    builders = (
        ("net", _arch),
        ("geometry",
         lambda c: _geometry(c).check_covers(c["phantoms"]["grid_size"])),
        ("osem", _osem_config),
        ("train.pre", lambda c: _train_config(c, "pre")),
        ("train.jac", lambda c: _train_config(c, "jac")))
    for section, build in builders:
        try:
            build(cfg)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc


def cmd_simulate(cfg, out_dir):
    out_dir = _ensure_dir(out_dir or cfg.path("data"))
    specs = _phantom_specs(cfg)
    doses = [_doses(cfg, p) for p in range(len(specs))]
    dataset = train.build_dataset(
        specs, _geometry(cfg), doses, cfg.seed, _osem_config(cfg),
        n_test_phantoms=cfg["phantoms"]["n_test"],
        background_fraction=cfg["simulation"]["background_fraction"],
        norm_seed=_norm_seed(cfg))
    for p, spec in enumerate(specs):
        activity, mu = sim.make_phantom(spec)
        sim.write_image(os.path.join(out_dir, f"phantom{p:02d}_activity.img"), activity)
        sim.write_image(os.path.join(out_dir, f"phantom{p:02d}_mu.img"), mu)
        sim.write_pgm(os.path.join(out_dir, f"phantom{p:02d}_activity.pgm"), activity)
    rows = []
    for i, item in enumerate(dataset.items):
        sim.write_image(os.path.join(out_dir, f"item{i:03d}_counts.img"),
                        item.counts.astype(float))
        sim.write_image(os.path.join(out_dir, f"item{i:03d}_osem.img"), item.x_noisy)
        sim.write_pgm(os.path.join(out_dir, f"item{i:03d}_osem.pgm"), item.x_noisy)
        rows.append([i, item.phantom_id, item.dose_scale, item.seed, item.split])
    write_csv(os.path.join(out_dir, "manifest.csv"),
              ("item", "phantom", "dose_scale", "seed", "split"), rows)
    _write_provenance(out_dir, cfg)
    print(f"simulate: wrote {len(rows)} items for {len(specs)} phantoms to {out_dir}")
    return 0


def _load_dataset(cfg, data_dir):
    manifest = os.path.join(data_dir, "manifest.csv")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest at {manifest}; run simulate first")
    items = []
    with open(manifest) as fh:
        header = fh.readline()
        if not header.startswith("item,"):
            raise ConfigError(f"{manifest}: unexpected header")
        for lineno, line in enumerate(fh, start=2):
            try:
                i, p, dose, seed, split = line.strip().split(",")
                i, p, dose, seed = int(i), int(p), float(dose), int(seed)
            except ValueError as exc:
                raise FileFormatError(
                    f"{manifest}: line {lineno}: malformed row") from exc
            counts = sim.read_image(os.path.join(data_dir, f"item{i:03d}_counts.img"))
            x_noisy = sim.read_image(os.path.join(data_dir, f"item{i:03d}_osem.img"))
            activity = sim.read_image(
                os.path.join(data_dir, f"phantom{p:02d}_activity.img"))
            items.append(train.DatasetItem(
                phantom_id=p, dose_scale=dose, seed=seed, counts=counts,
                x_noisy=x_noisy, x_ref=dose * activity, split=split))
    return train.Dataset(items=tuple(items))


def cmd_train(cfg, phase, out_dir):
    out_dir = _ensure_dir(out_dir or cfg.path("train"))
    dataset = _load_dataset(cfg, cfg.path("data"))
    tc = _train_config(cfg, phase)
    if phase == "pre":
        params0 = net.init_params(_arch(cfg), seed=derive_seed(cfg.seed, 300),
                                  scale=cfg["net"]["init_scale"])
    else:
        pre_path = os.path.join(out_dir, "pre.ckpt")
        if not os.path.exists(pre_path):
            raise ConfigError(f"jac phase requires {pre_path}; train pre first")
        params0 = net.load_checkpoint(pre_path)
    params, log = train.train_phase(params0, dataset, tc)
    net.save_checkpoint(os.path.join(out_dir, f"{phase}.ckpt"), params)
    write_csv(os.path.join(out_dir, f"train_{phase}.csv"),
              train.TrainingLog.HEADER, log.as_rows(), comment=log.adam_constants)
    _write_provenance(out_dir, cfg)
    last = log.rows[-1]
    print(f"train {phase}: {tc.epochs} epochs, final loss {last['loss_total']:.6g}, "
          f"test mse {last['test_mse']:.6g}, checkpoint {phase}.ckpt")
    return 0


def _select_test_sims(cfg, dataset):
    """n_test_sims items evenly spaced over the dose-sorted test split."""
    test = sorted(((i, it) for i, it in enumerate(dataset.items)
                   if it.split == "test"), key=lambda t: t[1].dose_scale)
    if not test:
        raise ConfigError("dataset has no test items")
    n = min(cfg["admm"]["n_test_sims"], len(test))
    picks = np.unique(np.linspace(0, len(test) - 1, n).round().astype(int))
    return [test[i] for i in picks]


def _likelihood_for_item(cfg, item):
    data_dir = cfg.path("data")
    mu = sim.read_image(
        os.path.join(data_dir, f"phantom{item.phantom_id:02d}_mu.img"))
    activity = sim.read_image(
        os.path.join(data_dir, f"phantom{item.phantom_id:02d}_activity.img"))
    model = sim.phantom_model(_geometry(cfg), activity, mu, _norm_seed(cfg),
                              cfg["simulation"]["background_fraction"])
    return recon.LikelihoodModel(model=train.item_model(model, item.dose_scale),
                                 y=item.counts)


def cmd_reconstruct(cfg, checkpoint, rho, iters, out_dir):
    out_dir = _ensure_dir(out_dir or cfg.path("recon"))
    dataset = _load_dataset(cfg, cfg.path("data"))
    params = net.load_checkpoint(checkpoint)
    rho = rho if rho is not None else cfg["admm"]["rho"]
    iters = iters if iters is not None else cfg["admm"]["iterations"]
    acfg = admm.AdmmConfig.make(rho, n_iterations=iters,
                                n_inner=cfg["admm"]["prox_inner"],
                                tol=cfg["admm"]["prox_tol"],
                                record_t_residual=cfg["admm"]["record_t_residual"])
    summary = []
    for item_idx, item in _select_test_sims(cfg, dataset):
        lm = _likelihood_for_item(cfg, item)
        x, hist = admm.admm_pnp(lm, params, acfg, z0=item.x_noisy, x_ref=item.x_ref)
        tag = f"item{item_idx:03d}"
        write_csv(os.path.join(out_dir, f"{tag}_history.csv"),
                  admm.History.HEADER, hist.as_rows())
        sim.write_image(os.path.join(out_dir, f"{tag}_admm.img"), x)
        sim.write_pgm(os.path.join(out_dir, f"{tag}_admm.pgm"), x)
        best_sigma, x_filt = recon.gaussian_postfilter_sweep(
            item.x_noisy, item.x_ref, cfg["admm"]["filter_sigmas"])
        sim.write_image(os.path.join(out_dir, f"{tag}_osem_filtered.img"), x_filt)
        summary.append([item_idx, "osem", recon.mse(item.x_noisy, item.x_ref),
                        recon.log_likelihood(lm, item.x_noisy), "", "", ""])
        summary.append([item_idx, "osem_filtered", recon.mse(x_filt, item.x_ref),
                        recon.log_likelihood(lm, x_filt), "", "", best_sigma])
        summary.append([item_idx, "admm", recon.mse(x, item.x_ref),
                        hist.log_likelihood[-1], hist.primal[-1],
                        hist.dual[-1], rho])
    write_csv(os.path.join(out_dir, "summary.csv"),
              ("item", "method", "mse", "log_likelihood", "final_primal",
               "final_dual", "extra"), summary)
    _write_provenance(out_dir, cfg, checkpoint=os.path.basename(checkpoint),
                      rho=rho, iterations=iters)
    print(f"reconstruct: rho={rho:g}, {iters} iterations, "
          f"{len(summary) // 3} test simulations -> {out_dir}")
    return 0


def cmd_sweep(cfg, checkpoint, out_dir):
    out_dir = _ensure_dir(out_dir or cfg.path("sweep"))
    dataset = _load_dataset(cfg, cfg.path("data"))
    params = net.load_checkpoint(checkpoint)
    item_idx, item = _select_test_sims(cfg, dataset)[0]
    lm = _likelihood_for_item(cfg, item)
    s = cfg["sweep"]
    if s["rhos"] == "auto":
        rhos = admm.default_rho_grid(lm, params, z0=item.x_noisy,
                                     n_values=s["n_values"], decades=s["decades"])
    else:
        rhos = [float(tok) for tok in s["rhos"].split(",")]
    report = admm.rho_sweep(lm, params, rhos, n_iterations=s["iterations"],
                            z0=item.x_noisy, x_ref=item.x_ref,
                            n_inner=cfg["admm"]["prox_inner"],
                            tol=cfg["admm"]["prox_tol"])
    write_csv(os.path.join(out_dir, "sweep_curves.csv"),
              admm.SweepReport.CURVE_HEADER, report.curve_rows())
    write_csv(os.path.join(out_dir, "sweep_summary.csv"),
              admm.SweepReport.SUMMARY_HEADER, report.summary_rows())
    _write_provenance(out_dir, cfg)
    n_ok = sum(report.meets_threshold)
    print(f"sweep: item {item_idx}, {len(rhos)} rho values, "
          f"{n_ok} meet the residual-decrease threshold -> {out_dir}")
    return 0


def cmd_certify(cfg, checkpoint, n_samples, out_dir):
    out_dir = _ensure_dir(out_dir or cfg.path("certify"))
    dataset = _load_dataset(cfg, cfg.path("data"))
    params = net.load_checkpoint(checkpoint)
    test_items = dataset.split("test")
    if not test_items:
        raise ConfigError("dataset has no test items")
    outs = [net.forward(params, item.x_noisy) for item in test_items]
    rng = np.random.default_rng(derive_seed(cfg.seed, 401))
    rows = []
    sigmas = []
    for j in range(n_samples):
        idx = j % len(test_items)
        item = test_items[idx]
        kappa = float(rng.uniform())
        x_tilde = train.sample_tilde(item.x_ref, outs[idx], kappa)
        sigma, _ = net.spectral_norm_l(
            params, x_tilde, max_iters=cfg["net"]["certify_power_iters"],
            seed=int(rng.integers(2 ** 62)))
        rows.append([j, item.phantom_id, kappa, sigma])
        sigmas.append(sigma)
    write_csv(os.path.join(out_dir, "certify.csv"),
              ("sample", "phantom", "kappa", "sigma"), rows)
    margin = cfg["net"]["certify_margin"]
    frac = float(np.mean([s <= 1.0 + margin for s in sigmas]))
    write_csv(os.path.join(out_dir, "certify_summary.csv"),
              ("n_samples", "sigma_min", "sigma_mean", "sigma_max",
               "margin", "fraction_within"),
              [[n_samples, min(sigmas), float(np.mean(sigmas)), max(sigmas),
                margin, frac]])
    _write_provenance(out_dir, cfg)
    print(f"certify: {n_samples} samples, sigma max {max(sigmas):.4f}, "
          f"{100 * frac:.0f}% within 1+{margin:g} -> {out_dir}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pnprecon",
        description="2D Plug-and-Play ADMM emission-tomography experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "train", "reconstruct", "sweep", "certify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name == "train":
            p.add_argument("--phase", choices=("pre", "jac"), required=True)
        if name in ("reconstruct", "sweep", "certify"):
            p.add_argument("--checkpoint", required=True)
        if name == "reconstruct":
            p.add_argument("--rho", type=float, default=None)
            p.add_argument("--iters", type=int, default=None)
        if name == "certify":
            p.add_argument("--n-samples", type=int, default=100)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _check_domain(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.phase, args.out)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.checkpoint, args.rho,
                                   args.iters, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.checkpoint, args.out)
        if args.command == "certify":
            return cmd_certify(cfg, args.checkpoint, args.n_samples, args.out)
        raise AssertionError(args.command)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
