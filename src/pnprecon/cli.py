"""Batch experiment commands: simulate, train, reconstruct, sweep, certify.

Every command reads one config file, writes CSV/image artifacts plus a
provenance record, and is byte-reproducible given the same config and
seeds.  Exit codes: 0 success, 2 config error, 3 numerical abort, decided
by a non-finite value: main turns numpy's floating-point warnings off.
"""

import argparse
import collections
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import __version__, admm, net, recon, sim, train
from .config import ConfigError, FileFormatError, config_hash, load_config
from .util import NumericalAbort, atomic_write, derive_seed, write_csv

__all__ = ["main"]


# command -> the [paths] entry that is its output directory without --out
OUT_PATHS = {"simulate": "data", "train": "train", "reconstruct": "recon",
             "sweep": "sweep", "certify": "certify"}


def _write_provenance(out_dir, exp, args, extras):
    lines = [f"config_hash = {config_hash(exp.cfg)}",
             f"seed = {exp.cfg.seed}",
             f"version = pnprecon {__version__}"]
    if "checkpoint" in args:
        lines.append(f"checkpoint = {os.path.basename(args.checkpoint)}")
    lines += [f"{key} = {value}" for key, value in extras.items()]
    atomic_write(os.path.join(out_dir, "provenance.txt"), "\n".join(lines) + "\n")


# What build_experiment builds or derives from the config and the flags
# (admm with --rho and --iters applied, train configs by phase, sweep rhos
# as floats, the sweep's AdmmConfig); a plain value is read from cfg once
# build_experiment has checked it.
Experiment = collections.namedtuple("Experiment", (
    "cfg paths specs doses geometry norm_seed arch train admm sweep_rhos sweep"))

# certify_summary.csv counts the samples with sigma(2D - Id) <= 1 + this
CERTIFY_MARGIN = 0.05


@contextlib.contextmanager
def _naming(where):
    """Re-raise a ValueError as a ConfigError that names its section or flag."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def build_experiment(cfg, flags):
    """Turn each value of cfg, and the flags (a dict from argument names),
    into its typed form once, through the constructor that validates it,
    so that a bad value exits 2 before any command writes output."""
    ph, s, n, a, sw = (cfg[sec] for sec in
                       ("phantoms", "simulation", "net", "admm", "sweep"))
    with _naming("[phantoms]"):
        _require(1 <= ph["n_test"] < ph["count"], f"count = {ph['count']} and "
                 f"n_test = {ph['n_test']}: need 1 <= n_test < count")
        _require(ph["family_seed"] >= 0, "need family_seed >= 0")
        specs = tuple(sim.random_phantom_spec(ph["grid_size"], ph["family_seed"] + p)
                      for p in range(ph["count"]))
    with _naming("[geometry]"):
        geometry = sim.GeometryConfig(**cfg["geometry"])
        geometry.check_covers(ph["grid_size"])
    with _naming("[simulation]"):
        _require(s["n_doses"] >= 1 and 0 <= s["dose_decades"] < np.inf
                 and 0 < s["dose_center"] < np.inf
                 and 0 <= s["background_fraction"] < np.inf,
                 "need n_doses >= 1, 0 <= dose_decades < inf, 0 < dose_center < inf "
                 "and 0 <= background_fraction < inf")
        center, half = s["dose_center"], s["dose_decades"] / 2.0
        rngs = [np.random.default_rng(derive_seed(cfg.seed, 202, p))
                for p in range(ph["count"])]
        try:
            doses = tuple(tuple(sorted(center * 10.0 ** rng.uniform(-half, half)
                                       for _ in range(s["n_doses"]))) for rng in rngs)
            ok = all(0 < d < np.inf for ds in doses for d in ds)
        except OverflowError:       # 10.0 ** u beyond the float range
            ok = False
        _require(ok, "each drawn dose must be finite and > 0: narrow dose_decades "
                 "or move dose_center")
    with _naming("[osem]"):
        _require(cfg["osem"]["n_iterations"] >= 1, "need n_iterations >= 1")
    with _naming("[net]"):
        arch = net.ArchConfig(n_layers=n["n_layers"], channels=n["channels"])
        _require(0 <= n["init_scale"] < np.inf and n["certify_power_iters"] >= 1,
                 "need init_scale >= 0 and finite and certify_power_iters >= 1")
    phases = {}
    for phase, key in (("pre", 301), ("jac", 302)):
        with _naming(f"[train.{phase}]"):
            phases[phase] = train.TrainConfig(seed=derive_seed(cfg.seed, key),
                                              **cfg[f"train.{phase}"])
    with _naming("[admm]"):
        acfg = admm.AdmmConfig(
            rho=a["rho"], n_iterations=a["iterations"], n_inner=a["prox_inner"])
        _require(a["n_test_sims"] >= 1 and a["filter_sigmas"]
                 and all(0 <= f <= ph["grid_size"] for f in a["filter_sigmas"]),
                 "need n_test_sims >= 1 and at least one filter sigma, "
                 "each in [0, grid_size]")
    with _naming("[sweep] rhos:"):
        rhos = tuple(dataclasses.replace(acfg, rho=float(tok)).rho
                     for tok in sw["rhos"].split(","))
    with _naming("[sweep] iterations:"):
        sweep = dataclasses.replace(acfg, n_iterations=sw["iterations"])
    with _naming("--rho:"):
        if flags.get("rho") is not None:
            acfg = dataclasses.replace(acfg, rho=flags["rho"])
    with _naming("--iters:"):
        if flags.get("iters") is not None:
            acfg = dataclasses.replace(acfg, n_iterations=flags["iters"])
    with _naming("--n-samples:"):
        _require(flags.get("n_samples", 1) >= 1, "need at least one sample")
    return Experiment(
        cfg=cfg, paths={name: os.path.normpath(os.path.join(cfg.base_dir, path))
                        for name, path in cfg["paths"].items()},
        specs=specs, doses=doses, geometry=geometry,
        norm_seed=derive_seed(cfg.seed, 101), arch=arch, train=phases,
        admm=acfg, sweep_rhos=rhos, sweep=sweep)


def cmd_simulate(exp, args, out_dir):
    cfg = exp.cfg
    dataset = train.build_dataset(
        exp.specs, exp.geometry, exp.doses, cfg.seed, cfg["osem"]["n_iterations"],
        n_test_phantoms=cfg["phantoms"]["n_test"],
        background_fraction=cfg["simulation"]["background_fraction"],
        norm_seed=exp.norm_seed)
    for p, (activity, mu) in dataset.phantoms.items():
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
    print(f"simulate: wrote {len(rows)} items for {len(exp.specs)} phantoms to {out_dir}")
    return {}


def _read_data_image(data_dir, name, shape):
    """The image name in data_dir, checked to have the given shape and no
    negative pixel (every data image is nonnegative by construction)."""
    path = os.path.join(data_dir, name)
    image = sim.read_image(path)
    if image.shape != shape:
        raise FileFormatError(f"{path}: a {image.shape[0]}x{image.shape[1]} "
                              f"image, expected {shape[0]}x{shape[1]}")
    if np.any(image < 0):
        raise FileFormatError(f"{path}: negative pixel values")
    return image


def _load_dataset(exp):
    """The dataset simulate wrote, each image read once and checked, activity,
    mu and OSEM on the grid and counts on the sinogram; both splits non-empty."""
    data_dir, grid = exp.paths["data"], (exp.cfg["phantoms"]["grid_size"],) * 2
    sino = (exp.geometry.n_angles, exp.geometry.n_bins)
    manifest = os.path.join(data_dir, "manifest.csv")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest at {manifest}; run simulate first")
    try:
        with open(manifest) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{manifest}: not UTF-8 text") from exc
    if not lines or not lines[0].startswith("item,"):
        raise ConfigError(f"{manifest}: unexpected header")
    items, phantoms = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            i, p, dose, seed, split = line.strip().split(",")
            i, p, dose, seed = int(i), int(p), float(dose), int(seed)
            _require(split in ("train", "test"), f"unknown split {split!r}")
            _require(0 < dose < np.inf, f"dose_scale {dose!r} is not finite and > 0")
        except ValueError as exc:
            raise FileFormatError(
                f"{manifest}: line {lineno}: malformed row: {exc}") from exc
        counts = _read_data_image(data_dir, f"item{i:03d}_counts.img", sino)
        x_noisy = _read_data_image(data_dir, f"item{i:03d}_osem.img", grid)
        if p not in phantoms:
            phantoms[p] = tuple(_read_data_image(data_dir, f"phantom{p:02d}_{kind}.img",
                                                 grid) for kind in ("activity", "mu"))
        items.append(train.DatasetItem(
            phantom_id=p, dose_scale=dose, seed=seed, counts=counts,
            x_noisy=x_noisy, x_ref=dose * phantoms[p][0], split=split))
    for split, name in (("train", "training"), ("test", "test")):
        if not any(item.split == split for item in items):
            raise ConfigError(f"dataset has no {name} items")
    return train.Dataset(items=tuple(items), phantoms=phantoms)


def cmd_train(exp, args, out_dir):
    phase = args.phase
    dataset = _load_dataset(exp)
    tc = exp.train[phase]
    if phase == "pre":
        params0 = net.init_params(exp.arch, seed=derive_seed(exp.cfg.seed, 300),
                                  scale=exp.cfg["net"]["init_scale"])
    else:
        pre_path = os.path.join(out_dir, "pre.ckpt")
        if not os.path.exists(pre_path):
            raise ConfigError(f"jac phase requires {pre_path}; train pre first")
        params0 = net.load_checkpoint(pre_path)
        if params0.arch != exp.arch:
            raise ConfigError(f"{pre_path} has {params0.arch} but [net] gives "
                              f"{exp.arch}; train pre again")
    params, rows = train.train_phase(params0, dataset, tc)
    net.save_checkpoint(os.path.join(out_dir, f"{phase}.ckpt"), params)
    write_csv(os.path.join(out_dir, f"train_{phase}.csv"),
              train.LOG_HEADER, rows, comment=train.ADAM_CONSTANTS)
    loss, mse = (rows[-1][train.LOG_HEADER.index(k)] for k in ("loss_total", "test_mse"))
    print(f"train {phase}: {tc.epochs} epochs, final loss {loss:.6g}, "
          f"test mse {mse:.6g}, checkpoint {phase}.ckpt")
    return {}


def _select_test_sims(exp, dataset):
    """n_test_sims items evenly spaced over the dose-sorted test split."""
    test = sorted(((i, it) for i, it in enumerate(dataset.items)
                   if it.split == "test"), key=lambda t: t[1].dose_scale)
    n = min(exp.cfg["admm"]["n_test_sims"], len(test))
    picks = np.unique(np.linspace(0, len(test) - 1, n).round().astype(int))
    return [test[i] for i in picks]


def _likelihood_for_item(exp, dataset, item):
    activity, mu = dataset.phantoms[item.phantom_id]
    model = sim.phantom_model(exp.geometry, activity, mu, exp.norm_seed,
                              exp.cfg["simulation"]["background_fraction"])
    return recon.LikelihoodModel(
        model=train.item_model(model, item.dose_scale), y=item.counts)


def cmd_reconstruct(exp, args, out_dir):
    dataset = _load_dataset(exp)
    params = net.load_checkpoint(args.checkpoint)
    rho, iters = exp.admm.rho, exp.admm.n_iterations
    sims = [(item_idx, item, _likelihood_for_item(exp, dataset, item))
            for item_idx, item in _select_test_sims(exp, dataset)]
    runs = admm.run_all([(f"item {i:03d}", lm, exp.admm, item.x_noisy, item.x_ref)
                         for i, item, lm in sims], params)
    summary = []
    # outputs are written in item order as the parallel runs finish
    for (item_idx, item, lm), (x, hist) in zip(sims, runs):
        try:
            best_sigma, x_filt = recon.gaussian_postfilter_sweep(
                item.x_noisy, item.x_ref, exp.cfg["admm"]["filter_sigmas"])
        except NumericalAbort as exc:
            raise NumericalAbort(f"item {item_idx:03d}: {exc}") from exc
        tag = f"item{item_idx:03d}"
        write_csv(os.path.join(out_dir, f"{tag}_history.csv"),
                  admm.History.HEADER, hist.as_rows())
        sim.write_image(os.path.join(out_dir, f"{tag}_admm.img"), x)
        sim.write_pgm(os.path.join(out_dir, f"{tag}_admm.pgm"), x)
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
    print(f"reconstruct: rho={rho:g}, {iters} iterations, "
          f"{len(summary) // 3} test simulations -> {out_dir}")
    return {"rho": rho, "iterations": iters}


def cmd_sweep(exp, args, out_dir):
    dataset = _load_dataset(exp)
    params = net.load_checkpoint(args.checkpoint)
    item_idx, item = _select_test_sims(exp, dataset)[0]
    lm = _likelihood_for_item(exp, dataset, item)
    histories = admm.rho_sweep(lm, params, exp.sweep_rhos, exp.sweep,
                               z0=item.x_noisy, x_ref=item.x_ref)
    summary = [admm.summary_row(h) for h in histories]
    write_csv(os.path.join(out_dir, "sweep_curves.csv"),
              admm.CURVE_HEADER, admm.curve_rows(histories))
    write_csv(os.path.join(out_dir, "sweep_summary.csv"),
              admm.SUMMARY_HEADER, summary)
    n_ok = sum(row[5] for row in summary)       # meets_threshold
    print(f"sweep: item {item_idx}, {len(histories)} rho values, "
          f"{n_ok} meet the residual-decrease threshold -> {out_dir}")
    return {}


def cmd_certify(exp, args, out_dir):
    dataset = _load_dataset(exp)
    params = net.load_checkpoint(args.checkpoint)
    test_items = dataset.split("test")
    points = [(item.x_ref, net.forward(params, item.x_noisy)) for item in test_items]
    rng = np.random.default_rng(derive_seed(exp.cfg.seed, 401))
    cap = exp.cfg["net"]["certify_power_iters"]
    picks = [j % len(points) for j in range(args.n_samples)]    # round robin
    draws = [train.draw_tilde(rng) for _ in picks]
    rows = []
    for j, (sigma, steps) in enumerate(train.sample_sigmas(
            params, [points[i] for i in picks], draws, cap)):
        if not np.isfinite(sigma):
            raise NumericalAbort(f"non-finite sigma at sample {j}")
        rows.append([j, test_items[picks[j]].phantom_id, draws[j][0], steps, sigma])
    sigmas = [row[4] for row in rows]
    n_capped = sum(row[3] == cap for row in rows)
    write_csv(os.path.join(out_dir, "certify.csv"),
              ("sample", "phantom", "kappa", "steps", "sigma"), rows)
    frac = float(np.mean([s <= 1.0 + CERTIFY_MARGIN for s in sigmas]))
    write_csv(os.path.join(out_dir, "certify_summary.csv"),
              ("n_samples", "sigma_min", "sigma_mean", "sigma_max",
               "margin", "fraction_within"),
              [[args.n_samples, min(sigmas), float(np.mean(sigmas)), max(sigmas),
                CERTIFY_MARGIN, frac]])
    print(f"certify: {args.n_samples} samples, sigma max {max(sigmas):.4f}, "
          f"{100 * frac:.0f}% within 1+{CERTIFY_MARGIN:g}, {n_capped} at the "
          f"{cap}-step cap -> {out_dir}")
    return {}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pnprecon",
        description="2D Plug-and-Play ADMM emission-tomography experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OUT_PATHS:
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


def _keep_heap():
    """Pin glibc's trim and mmap thresholds: a freed heap is kept for the
    next allocation, not handed back to the kernel and faulted in again.
    Setting one stops glibc adjusting the other, so both are set.  No
    output depends on them; where libc has no mallopt this does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD
    mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD, above a counted row block


@np.errstate(all="ignore")
def main(argv=None):
    _keep_heap()
    args = _build_parser().parse_args(argv)
    try:
        exp = build_experiment(load_config(args.config), vars(args))
        out_dir = args.out or exp.paths[OUT_PATHS[args.command]]
        # looked up at call time, so a wrapper set on cli.cmd_* runs
        extras = globals()[f"cmd_{args.command}"](exp, args, out_dir)
        _write_provenance(out_dir, exp, args, extras)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
