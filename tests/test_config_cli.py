"""Config parsing/diagnostics and the five CLI commands end to end."""

import collections
import os
import pathlib
import re
import shutil
import tempfile

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pnprecon import admm, cli, config, net, prox, recon, sim, train
from pnprecon.config import (ConfigError, canonical_text, config_hash,
                             load_config, parse_config)
from pnprecon.util import NumericalAbort, derive_seed, write_csv
from test_acceptance import _run_python

DEMO_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"

TINY_CFG = """
seed = 2024

[phantoms]
count = 3
n_test = 1
grid_size = 16
family_seed = 40

[geometry]
n_angles = 12
n_bins = 26

[simulation]
n_doses = 2
dose_center = 1.2
background_fraction = 0.2

[osem]
n_iterations = 4

[net]
n_layers = 2
channels = 3
certify_power_iters = 10

[train.pre]
epochs = 2
learning_rate = 0.005
sigma_eval_samples = 2

[train.jac]
epochs = 1
batch_size = 2
power_iters = 5
sigma_eval_samples = 2

[admm]
rho = 30.0
iterations = 3
n_test_sims = 2
filter_sigmas = 0,1.0

[sweep]
rhos = 10.0,300.0
iterations = 3
"""

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    return root, str(cfg_path)


def test_parse_and_defaults():
    cfg = parse_config(TINY_CFG)
    assert cfg.seed == 2024
    assert cfg["phantoms"]["count"] == 3
    assert cfg["geometry"]["bin_width"] == 1.0       # default
    assert cfg["train.jac"]["beta"] == 10.0          # default
    assert cfg["admm"]["filter_sigmas"] == [0.0, 1.0]


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="line 1.*unknown section"):
        parse_config("[nonsense]\n")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("[phantoms]\nbogus = 3\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("[phantoms]\ncount = 2\ncount = 3\n")
    with pytest.raises(ConfigError, match="line 2.*bad value"):
        parse_config("[phantoms]\ncount = two\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[phantoms]\njust words\n")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("[admm]\nrecord_t_residual = true\n")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("[simulation]\nnormalization = true\n")


def test_demo_config_sets_every_schema_key_once():
    # bench/run.py's render_config and the acceptance fixture both start
    # from configs/demo.cfg, so a key it lacks or repeats is schema drift
    section, pairs = "", collections.Counter()
    for raw in DEMO_CFG.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            pairs[section, line.partition("=")[0].strip()] += 1
    assert set(pairs.values()) == {1}
    assert set(pairs) == {(sec, key) for sec, keys in config._SCHEMA.items()
                          for key in keys}


def test_canonical_roundtrip():
    cfg = parse_config(TINY_CFG)
    canon = canonical_text(cfg)
    again = parse_config(canon)
    assert again.values == cfg.values
    assert canonical_text(again) == canon
    assert config_hash(again) == config_hash(cfg)


def test_global_key_only_before_sections():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[phantoms]\nseed = 3\n")


def test_cli_pipeline_end_to_end(workspace):
    root, cfg_path = workspace
    assert cli.main(["simulate", "--config", cfg_path]) == 0
    data = root / "runs" / "data"
    manifest = (data / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "item,phantom,dose_scale,seed,split"
    assert len(manifest) - 1 == 3 * 2
    splits = [line.split(",")[-1] for line in manifest[1:]]
    assert splits.count("test") == 2     # one test phantom x two doses
    assert (data / "provenance.txt").exists()

    # idempotent re-run: byte-identical outputs
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    assert cli.main(["simulate", "--config", cfg_path]) == 0
    after = {p.name: p.read_bytes() for p in data.iterdir()}
    assert before == after

    # jac before pre is an error
    assert cli.main(["train", "--config", cfg_path, "--phase", "jac"]) == 2

    assert cli.main(["train", "--config", cfg_path, "--phase", "pre"]) == 0
    tdir = root / "runs" / "train"
    log = (tdir / "train_pre.csv").read_text().splitlines()
    assert log[0].startswith("# adam_beta1=")
    assert log[1] == ",".join(("epoch", "loss_total", "loss_mse", "loss_pen",
                               "test_mse", "test_sigma_max", "test_sigma_mean"))
    assert len(log) - 2 == 2

    assert cli.main(["train", "--config", cfg_path, "--phase", "jac"]) == 0
    assert (tdir / "jac.ckpt").exists()

    ckpt = str(tdir / "jac.ckpt")
    assert cli.main(["reconstruct", "--config", cfg_path,
                     "--checkpoint", ckpt]) == 0
    rdir = root / "runs" / "recon"
    summary = (rdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "item,method,mse,log_likelihood,final_primal,final_dual,extra"
    assert len(summary) - 1 == 2 * 3   # two sims x three methods
    histories = sorted(p.name for p in rdir.iterdir() if "history" in p.name)
    assert len(histories) == 2
    hist_lines = (rdir / histories[0]).read_text().splitlines()
    assert len(hist_lines) - 1 == 3    # K iterations
    assert hist_lines[0].endswith(",mse_vs_ref,dr_residual,secant")

    assert cli.main(["sweep", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    sdir = root / "runs" / "sweep"
    curves = (sdir / "sweep_curves.csv").read_text().splitlines()
    assert len(curves) - 1 == 2 * 3    # |rhos| x K
    summary2 = (sdir / "sweep_summary.csv").read_text().splitlines()
    assert len(summary2) - 1 == 2
    assert curves[0].endswith(",mse_vs_ref,dr_residual,secant")
    assert summary2[0].endswith(",final_mse,dr_rises,secant_max")

    assert cli.main(["certify", "--config", cfg_path, "--checkpoint", ckpt,
                     "--n-samples", "5"]) == 0
    cdir = root / "runs" / "certify"
    cert = (cdir / "certify.csv").read_text().splitlines()
    assert len(cert) - 1 == 5
    # the fraction within the fixed margin of criterion 7: sigma <= 1.05
    sigmas = [float(line.split(",")[4]) for line in cert[1:]]
    header, row = (cdir / "certify_summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), map(float, row.split(","))))
    assert summary["margin"] == cli.CERTIFY_MARGIN == 0.05
    assert summary["fraction_within"] == np.mean([s <= 1.05 for s in sigmas])


def test_cli_reruns_are_byte_identical(workspace):
    root, cfg_path = workspace
    ckpt = str(root / "runs" / "train" / "jac.ckpt")
    out1 = root / "again1"
    out2 = root / "again2"
    for out in (out1, out2):
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--checkpoint", ckpt, "--out", str(out)]) == 0
        assert cli.main(["certify", "--config", cfg_path, "--checkpoint", ckpt,
                         "--n-samples", "4", "--out", str(out)]) == 0
    for name in ("summary.csv", "certify.csv", "certify_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_identity_checkpoint_certifies_sigma_one(workspace, tmp_path):
    root, cfg_path = workspace
    arch = net.ArchConfig(n_layers=2, channels=3)
    ident = tmp_path / "identity.ckpt"
    net.save_checkpoint(ident, net.identity_params(arch))
    out = tmp_path / "cert"
    assert cli.main(["certify", "--config", cfg_path, "--checkpoint", str(ident),
                     "--n-samples", "6", "--out", str(out)]) == 0
    lines = (out / "certify.csv").read_text().splitlines()
    sigmas = [float(line.split(",")[-1]) for line in lines[1:]]
    assert sigmas == [1.0] * 6


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[phantoms]\nwhat = 1\n")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.cfg"
    assert cli.main(["simulate", "--config", str(missing)]) == 2
    retired = tmp_path / "retired.cfg"
    retired.write_text("[admm]\nrecord_t_residual = true\n")
    assert cli.main(["simulate", "--config", str(retired)]) == 2


def test_cli_reconstruct_rho_override(workspace, tmp_path):
    root, cfg_path = workspace
    ckpt = str(root / "runs" / "train" / "jac.ckpt")
    out = tmp_path / "rho_override"
    assert cli.main(["reconstruct", "--config", cfg_path, "--checkpoint", ckpt,
                     "--rho", "60.0", "--iters", "2", "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    admm_rows = [l for l in summary[1:] if ",admm," in l]
    assert all(l.endswith(",60") for l in admm_rows)
    name = next(p for p in out.iterdir() if "history" in p.name)
    assert len(name.read_text().splitlines()) - 1 == 2


@pytest.mark.parametrize("line, bad, needle", [
    ("n_iterations = 4", "n_iterations = 4\nn_subsets = 4",
     r"unknown key 'n_subsets' in \[osem\]"),
    ("rhos = 10.0,300.0", "rhos = 1,x", r"\[sweep\] rhos"),
    ("count = 3", "count = 1", r"\[phantoms\] count"),
    ("channels = 3", "channels = 3\nkernel = 3", r"unknown key 'kernel' in \[net\]"),
    ("channels = 3", "channels = 3\nactivation = softplus",
     r"unknown key 'activation' in \[net\]"),
    ("learning_rate = 0.005", "learning_rate = -1", r"\[train\.pre\]"),
    ("n_bins = 26", "n_bins = 10", r"\[geometry\] detector"),
    ("power_iters = 5", "power_iters = 5\nepsilon = 1.5", r"\[train\.jac\]"),
    ("rho = 30.0", "rho = -1", r"\[admm\] rho must be positive"),
    ("rho = 30.0", "rho = inf", r"\[admm\] rho must be positive and finite"),
    ("rho = 30.0", "rho = 30.0\nprox_tol = nan", r"unknown key 'prox_tol'"),
    ("filter_sigmas = 0,1.0", "filter_sigmas = -1.0", r"\[admm\] .*filter sigma"),
    ("filter_sigmas = 0,1.0", "filter_sigmas = 0,nan", r"\[admm\] .*filter sigma"),
    ("filter_sigmas = 0,1.0", "filter_sigmas = 0,1e300", r"\[admm\] .*filter sigma"),
    ("filter_sigmas = 0,1.0", "filter_sigmas = 17", r"\[admm\] .*grid_size"),
    ("n_iterations = 4", "n_iterations = 0", r"\[osem\] need n_iterations >= 1"),
    ("rho = 30.0\niterations = 3", "rho = 30.0\niterations = 0",
     r"\[admm\] need at least one iteration"),
    ("rho = 30.0", "rho = 30.0\nprox_inner = 0", r"\[admm\] invalid inner"),
    ("filter_sigmas = 0,1.0", "filter_sigmas =", r"\[admm\] .*filter sigma"),
    ("n_test_sims = 2", "n_test_sims = 0", r"\[admm\] need n_test_sims"),
    ("certify_power_iters = 10", "certify_power_iters = 0",
     r"\[net\] .*certify_power_iters"),
    ("channels = 3", "channels = 3\ninit_scale = -1", r"\[net\] need init_scale"),
    ("learning_rate = 0.005", "learning_rate = 0.005\npower_iters = 0",
     r"\[train\.pre\] power_iters"),
    ("learning_rate = 0.005\nsigma_eval_samples = 2",
     "learning_rate = 0.005\nsigma_eval_samples = -3",
     r"\[train\.pre\] .*sigma_eval_samples"),
    ("rhos = 10.0,300.0", "rhos = -1,300.0", r"\[sweep\] rhos"),
    ("rhos = 10.0,300.0", "rhos = 10.0,inf", r"\[sweep\] rhos"),
    ("rhos = 10.0,300.0", "rhos = 10.0,nan", r"\[sweep\] rhos"),
    ("rhos = 10.0,300.0", "rhos = auto", r"\[sweep\] rhos"),
    ("rhos = 10.0,300.0\niterations = 3", "rhos = 10.0,300.0\niterations = 0",
     r"\[sweep\] iterations: need at least one iteration"),
    ("rhos = 10.0,300.0", "rhos = 10.0,300.0\nn_values = 3",
     r"unknown key 'n_values'"),
    ("rhos = 10.0,300.0", "rhos = 10.0,300.0\ndecades = 4", r"unknown key 'decades'"),
    ("n_doses = 2", "n_doses = 0", r"\[simulation\] need n_doses"),
    ("dose_center = 1.2", "dose_center = -1", r"\[simulation\] .*dose_center"),
    ("background_fraction = 0.2", "background_fraction = -0.5",
     r"\[simulation\] .*background_fraction"),
    ("grid_size = 16", "grid_size = 0", r"\[phantoms\]"),
    ("dose_center = 1.2", "dose_center = 1.2\ndose_decades = nan",
     r"\[simulation\] .*dose_decades"),
    ("dose_center = 1.2", "dose_center = 1.2\ndose_decades = inf",
     r"\[simulation\] .*dose_decades"),
    ("dose_center = 1.2", "dose_center = inf", r"\[simulation\] .*dose_center"),
    ("dose_center = 1.2", "dose_center = 1.2\ndose_decades = 1e4",
     r"\[simulation\] each drawn dose must be finite and > 0"),
    ("background_fraction = 0.2", "background_fraction = inf",
     r"\[simulation\] .*background_fraction"),
    ("learning_rate = 0.005", "learning_rate = inf", r"\[train\.pre\] .*learning_rate"),
    ("learning_rate = 0.005", "learning_rate = nan", r"\[train\.pre\] .*learning_rate"),
    ("channels = 3", "channels = 3\ninit_scale = inf", r"\[net\] .*init_scale"),
    ("n_bins = 26", "n_bins = 26\nbin_width = inf", r"\[geometry\] .*bin_width"),
    ("n_bins = 26", "n_bins = 26\nbin_width = nan", r"\[geometry\] .*bin_width"),
    ("channels = 3", "channels = 3\ncertify_margin = nan",
     r"unknown key 'certify_margin' in \[net\]"),
    ("power_iters = 5", "power_iters = 5\nbeta = inf", r"\[train\.jac\] .*beta"),
    ("power_iters = 5", "power_iters = 5\nalpha = nan", r"\[train\.jac\] .*alpha"),
    ("dose_center = 1.2", "dose_center = 1.2\ndose_decades = -1",
     r"\[simulation\] need .*0 <= dose_decades < inf"),
    ("family_seed = 40", "family_seed = -1", r"\[phantoms\] need family_seed >= 0"),
])
def test_cli_bad_config_value_exit_code(tmp_path, capsys, line, bad, needle):
    assert line in TINY_CFG
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY_CFG.replace(line, bad))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "runs").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert re.search(needle, err)


def test_simulate_dose_beyond_poisson_sampler_aborts(tmp_path, capsys):
    # numpy's Poisson sampler rejects a mean count above about 9.2e18
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(TINY_CFG.replace(
        "dose_center = 1.2", "dose_center = 1e20\ndose_decades = 0"))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert re.match(r"numerical abort: phantom 0, dose 1e\+20: bin \d+, mean count "
                    r".*: lam value too large", err)
    assert not (tmp_path / "runs" / "data" / "manifest.csv").exists()


def test_aborted_commands_leave_no_output_directory(tmp_path, capsys):
    # a command makes its output directory at its first write: one that
    # aborts before writing leaves none, and a simulate that aborts over an
    # earlier run's data leaves every file of it as it was
    huge = tmp_path / "huge.cfg"
    huge.write_text(TINY_CFG.replace("dose_center = 1.2",
                                     "dose_center = 1e20\ndose_decades = 0"))
    assert cli.main(["simulate", "--config", str(huge)]) == 3
    assert not (tmp_path / "runs").exists()
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY_CFG)
    assert cli.main(["simulate", "--config", str(tiny)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny), "--phase", "jac"]) == 2
    assert capsys.readouterr().err.startswith("config error: jac phase requires")
    assert not (tmp_path / "runs" / "train").exists()
    data = tmp_path / "runs" / "data"
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    assert cli.main(["simulate", "--config", str(huge)]) == 3
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


@pytest.mark.parametrize("argv, flag", [
    (["reconstruct", "--rho", "-1"], "--rho"),
    (["reconstruct", "--iters", "0"], "--iters"),
    (["certify", "--n-samples", "0"], "--n-samples"),
    (["reconstruct", "--rho", "inf"], "--rho"),
    (["reconstruct", "--rho", "nan"], "--rho"),
])
def test_cli_bad_flag_exit_code(tmp_path, capsys, argv, flag):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    assert cli.main([*argv, "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "net.ckpt")]) == 2
    assert not (tmp_path / "runs").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}:")


def _old_builders(cfg, rho=None, iters=None):
    """The per-command construction that build_experiment replaced."""
    g, n, a, s = (cfg[sec] for sec in ("geometry", "net", "admm", "sweep"))

    def train_config(phase):
        sec = cfg[f"train.{phase}"]
        return train.TrainConfig(
            epochs=sec["epochs"], learning_rate=sec["learning_rate"],
            batch_size=sec["batch_size"],
            beta=sec.get("beta", 0.0), alpha=sec.get("alpha", 0.1),
            epsilon=sec.get("epsilon", 0.05), power_iters=sec["power_iters"],
            seed=derive_seed(cfg.seed, 301 if phase == "pre" else 302),
            sigma_eval_samples=sec["sigma_eval_samples"])

    def doses(phantom_id):
        sc = cfg["simulation"]
        rng = np.random.default_rng(derive_seed(cfg.seed, 202, phantom_id))
        half = sc["dose_decades"] / 2.0
        return sorted(sc["dose_center"] * 10.0 ** rng.uniform(-half, half)
                      for _ in range(sc["n_doses"]))

    pc = cfg["phantoms"]
    return dict(
        paths={name: os.path.normpath(os.path.join(cfg.base_dir, cfg["paths"][name]))
               for name in ("data", "train", "recon", "sweep", "certify")},
        specs=[sim.random_phantom_spec(pc["grid_size"], pc["family_seed"] + p)
               for p in range(pc["count"])],
        doses=[doses(p) for p in range(pc["count"])],
        geometry=sim.GeometryConfig(n_angles=g["n_angles"], n_bins=g["n_bins"],
                                    bin_width=g["bin_width"]),
        norm_seed=derive_seed(cfg.seed, 101),
        arch=net.ArchConfig(n_layers=n["n_layers"], channels=n["channels"]),
        train={phase: train_config(phase) for phase in ("pre", "jac")},
        admm=admm.AdmmConfig(
            rho if rho is not None else a["rho"],
            n_iterations=iters if iters is not None else a["iterations"],
            n_inner=a["prox_inner"]),
        sweep_rhos=[float(tok) for tok in s["rhos"].split(",")],
        sweep=admm.AdmmConfig(
            a["rho"], n_iterations=s["iterations"], n_inner=a["prox_inner"]))


@pytest.mark.parametrize("source", ["tiny", "demo"])
@pytest.mark.parametrize("flags", [{}, {"rho": 60.0, "iters": 2, "n_samples": 5}])
def test_experiment_matches_old_builders(tmp_path, source, flags):
    if source == "tiny":
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CFG)
    else:
        cfg_path = DEMO_CFG
    cfg = load_config(str(cfg_path))
    exp = cli.build_experiment(cfg, flags)
    want = _old_builders(cfg, flags.get("rho"), flags.get("iters"))
    got = exp._asdict()
    assert got.pop("cfg") is cfg
    assert set(got) == set(want)
    for name, value in want.items():
        if isinstance(value, list):
            value = [tuple(v) if isinstance(v, list) else v for v in value]
            assert list(got[name]) == value, name
        else:
            assert got[name] == value, name
    assert all(type(r) is float for r in exp.sweep_rhos)


def test_simulate_computes_each_thing_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((sim, "make_phantom"), (sim, "build_system_model"),
                         (sim, "simulate_counts"), (recon, "osem_reconstruct"),
                         (sim, "back_project")):
        count(module, name)
    sim._assemble_projector.cache_clear()
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    # 3 phantoms x 2 doses, one geometry; one sensitivity per phantom
    assert sim._assemble_projector.cache_info().misses == 1
    assert calls == {"make_phantom": 3, "build_system_model": 3, "simulate_counts": 6,
                     "osem_reconstruct": 6, "back_project": 3}

    exp = cli.build_experiment(load_config(str(cfg_path)), {})
    data = tmp_path / "runs" / "data"
    rows = (data / "manifest.csv").read_text().splitlines()[1:]
    for row in rows:
        i, p, dose, seed, _ = row.split(",")
        activity = sim.read_image(data / f"phantom{int(p):02d}_activity.img")
        mu = sim.read_image(data / f"phantom{int(p):02d}_mu.img")
        model = sim.with_background(
            sim.build_system_model(exp.geometry, mu, norm_seed=exp.norm_seed),
            activity, exp.cfg["simulation"]["background_fraction"])
        want = sim.simulate_counts(model, activity, float(dose), int(seed))
        got = sim.read_image(data / f"item{int(i):03d}_counts.img")
        np.testing.assert_array_equal(got, want)


def _truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


@pytest.mark.parametrize("case", ["checkpoint-bad-magic", "checkpoint-truncated",
                                  "checkpoint-huge-layer-count", "checkpoint-relu",
                                  "osem-image-truncated", "osem-image-nan-pixel",
                                  "mu-negative-pixel", "manifest-not-utf8",
                                  "manifest-bad-split", "osem-image-wrong-shape",
                                  "activity-wrong-shape", "mu-wrong-shape",
                                  "counts-transposed", "counts-negative-pixel"])
def test_cli_file_error_exit_code(tmp_path, capsys, case):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "net.ckpt"
    net.save_checkpoint(ckpt, net.identity_params(
        net.ArchConfig(n_layers=2, channels=3)))
    if case == "checkpoint-bad-magic":
        ckpt.write_bytes(b"WRONGMAG" + ckpt.read_bytes()[8:])
    elif case == "checkpoint-truncated":
        _truncate(ckpt)
    elif case == "checkpoint-huge-layer-count":
        raw = bytearray(ckpt.read_bytes())
        raw[11] = 0x40                    # n_layers = 2 + 2**30
        ckpt.write_bytes(bytes(raw))
    elif case == "checkpoint-relu":
        raw = bytearray(ckpt.read_bytes())
        raw[20] = 1                       # activation code 1, once relu
        ckpt.write_bytes(bytes(raw))
    elif case == "osem-image-truncated":
        _truncate(tmp_path / "runs" / "data" / "item000_osem.img")
    elif case == "osem-image-nan-pixel":
        osem = tmp_path / "runs" / "data" / "item000_osem.img"
        raw = bytearray(osem.read_bytes())
        raw[16:24] = np.array([np.nan], dtype="<f8").tobytes()
        osem.write_bytes(bytes(raw))
    elif case == "mu-negative-pixel":
        mu = tmp_path / "runs" / "data" / "phantom02_mu.img"
        sim.write_image(mu, -sim.read_image(mu))
    elif case == "osem-image-wrong-shape":
        # a valid 10x10 image on the 16x16 grid, for test item 4 (phantom 2)
        sim.write_image(tmp_path / "runs" / "data" / "item004_osem.img",
                        np.ones((10, 10)))
    elif case == "activity-wrong-shape":
        sim.write_image(tmp_path / "runs" / "data" / "phantom02_activity.img",
                        np.ones((10, 10)))
    elif case == "mu-wrong-shape":
        sim.write_image(tmp_path / "runs" / "data" / "phantom02_mu.img",
                        np.zeros((10, 10)))
    elif case == "counts-transposed":
        # the 26x12 transpose of the 12 angles x 26 bins sinogram of item 4
        counts = tmp_path / "runs" / "data" / "item004_counts.img"
        sim.write_image(counts, sim.read_image(counts).T)
    elif case == "counts-negative-pixel":
        counts = tmp_path / "runs" / "data" / "item004_counts.img"
        sim.write_image(counts, -sim.read_image(counts))
    elif case == "manifest-not-utf8":
        manifest = tmp_path / "runs" / "data" / "manifest.csv"
        manifest.write_bytes(b"\xe9" + manifest.read_bytes()[1:])
    else:
        # one of the two test rows would drop out of both splits
        manifest = tmp_path / "runs" / "data" / "manifest.csv"
        text = manifest.read_text()
        assert text.count(",test\n") == 2
        manifest.write_text(text.replace(",test\n", ",tesd\n", 1))
    rejected = {"osem-image-wrong-shape": "item004_osem.img",
                "activity-wrong-shape": "phantom02_activity.img",
                "mu-wrong-shape": "phantom02_mu.img",
                "counts-transposed": "item004_counts.img",
                "mu-negative-pixel": "phantom02_mu.img",
                "counts-negative-pixel": "item004_counts.img",
                "checkpoint-relu": "net.ckpt: activation code 1 is not 0"}
    commands = [("certify", ["--n-samples", "2"], "certify")]
    if case == "checkpoint-relu":
        commands.append(("reconstruct", ["--iters", "1"], "recon"))
    for command, extra, out in commands:
        capsys.readouterr()
        assert cli.main([command, *extra, "--config", str(cfg_path),
                         "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if case in rejected:
            assert rejected[case] in err
        assert not (tmp_path / "runs" / out).exists()


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """One tiny simulate run and a non-identity checkpoint to corrupt."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tiny.cfg").write_text(TINY_CFG)
    assert cli.main(["simulate", "--config", str(root / "tiny.cfg")]) == 0
    arch = net.ArchConfig(n_layers=2, channels=3)
    vec = np.random.default_rng(5).normal(0.0, 0.2, net.n_params(arch))
    net.save_checkpoint(root / "net.ckpt", net.DenoiserParams(arch=arch, vec=vec))
    return root


@pytest.mark.parametrize("argv", [["train", "--phase", "pre"],
                                  ["reconstruct", "--iters", "1"]])
def test_commands_read_each_data_image_once(fuzz_run, tmp_path, monkeypatch, argv):
    reads = collections.Counter()
    original = sim.read_image

    def counted(path):
        reads[os.path.basename(path)] += 1
        return original(path)
    monkeypatch.setattr(sim, "read_image", counted)
    if argv[0] == "reconstruct":
        argv = [*argv, "--checkpoint", str(fuzz_run / "net.ckpt")]
    assert cli.main([*argv, "--config", str(fuzz_run / "tiny.cfg"),
                     "--out", str(tmp_path / "out")]) == 0
    assert set(reads.values()) == {1}
    # 3 phantoms x (activity, mu) and 6 items x (counts, osem)
    assert len(reads) == 3 * 2 + 6 * 2


@pytest.mark.parametrize("argv", [["simulate"], ["train", "--phase", "pre"],
                                  ["reconstruct", "--iters", "1"], ["sweep"],
                                  ["certify", "--n-samples", "2"]])
def test_out_naming_a_file_exits_2(fuzz_run, tmp_path, capsys, argv):
    # the file stands where the command would make its output directory
    out = tmp_path / "out"
    out.write_bytes(b"a regular file\n")
    if argv[0] in ("reconstruct", "sweep", "certify"):
        argv = [*argv, "--checkpoint", str(fuzz_run / "net.ckpt")]
    capsys.readouterr()
    rc = cli.main([*argv, "--config", str(fuzz_run / "tiny.cfg"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert out.read_bytes() == b"a regular file\n"


def test_certify_primal_passes(fuzz_run, tmp_path, monkeypatch):
    # one pass per test item for the outputs, one per sample for the
    # linearization its Lanczos run reads
    calls = [0]
    original = net.Linearization.__init__

    def counted(self, *args):
        calls[0] += 1
        original(self, *args)
    monkeypatch.setattr(net.Linearization, "__init__", counted)
    assert cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                     "--checkpoint", str(fuzz_run / "net.ckpt"),
                     "--out", str(tmp_path / "out"), "--n-samples", "5"]) == 0
    # 1 test phantom x 2 doses
    assert calls[0] == 5 + 2


def test_certify_summary_counts_sigmas_within_fixed_margin(fuzz_run, tmp_path,
                                                           monkeypatch):
    # sigmas on both sides of 1 + CERTIFY_MARGIN, one exactly at it
    sigmas = [0.9, 1.04, 1.05, 1.0500001, 1.3]
    monkeypatch.setattr(train, "sample_sigmas",
                        lambda params, points, draws, cap: [(s, 3) for s in sigmas])
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                     "--checkpoint", str(fuzz_run / "net.ckpt"),
                     "--out", str(out), "--n-samples", "5"]) == 0
    header, row = (out / "certify_summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), map(float, row.split(","))))
    assert (summary["margin"], summary["fraction_within"]) == (0.05, 0.6)


def test_certify_provenance_names_its_checkpoint(fuzz_run, tmp_path):
    lines = {}
    for name in ("jac", "pre"):
        shutil.copy(fuzz_run / "net.ckpt", tmp_path / f"{name}.ckpt")
        out = tmp_path / f"certify_{name}"
        assert cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                         "--checkpoint", str(tmp_path / f"{name}.ckpt"),
                         "--out", str(out), "--n-samples", "2"]) == 0
        lines[name] = (out / "provenance.txt").read_text().splitlines()
    assert lines["jac"][:3] == lines["pre"][:3]
    assert lines["jac"][3:] == ["checkpoint = jac.ckpt"]
    assert lines["pre"][3:] == ["checkpoint = pre.ckpt"]


def test_main_calls_commands_through_the_module(tmp_path, monkeypatch):
    # a wrapper set on cli.cmd_* (as the benchmark's span recorder sets
    # them) is the function main runs
    ran = []

    def recording(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            ran.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    for name in ("cmd_simulate", "cmd_certify"):
        recording(name)
    (tmp_path / "tiny.cfg").write_text(TINY_CFG)
    arch = net.ArchConfig(n_layers=2, channels=3)
    net.save_checkpoint(tmp_path / "net.ckpt", net.init_params(arch, seed=1, scale=0.2))
    assert cli.main(["simulate", "--config", str(tmp_path / "tiny.cfg")]) == 0
    assert cli.main(["certify", "--config", str(tmp_path / "tiny.cfg"), "--checkpoint",
                     str(tmp_path / "net.ckpt"), "--n-samples", "2"]) == 0
    assert ran == ["cmd_simulate", "cmd_certify"]
    runs = tmp_path / "runs"
    for name in ("data/manifest.csv", "data/provenance.txt",
                 "certify/certify.csv", "certify/provenance.txt"):
        assert (runs / name).is_file()


def test_certify_non_finite_sigma_aborts(fuzz_run, tmp_path, capsys):
    # a kernel weight of 1e307 overflows the net's output
    params = net.load_checkpoint(fuzz_run / "net.ckpt")
    vec = params.vec.copy()
    vec[0] = 1e307
    ckpt = tmp_path / "huge.ckpt"
    net.save_checkpoint(ckpt, net.DenoiserParams(arch=params.arch, vec=vec))
    out = tmp_path / "out"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                       "--checkpoint", str(ckpt), "--out", str(out),
                       "--n-samples", "3"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical abort:")
    assert not list(out.glob("*.csv"))


def test_sweep_uses_admm_prox_settings(fuzz_run, tmp_path, monkeypatch):
    # the swept runs solve the data step with [admm] prox_inner, not with a
    # built-in default
    cfg_path = tmp_path / "prox.cfg"
    cfg_path.write_text(_with_data(
        TINY_CFG.replace("rho = 30.0", "rho = 30.0\nprox_inner = 7"), fuzz_run))
    n_inner = []
    original = prox.prox_neg_ll

    def recorded(lm, v, cfg, *args, **kwargs):
        n_inner.append(cfg.n_inner)
        return original(lm, v, cfg, *args, **kwargs)
    monkeypatch.setattr(prox, "prox_neg_ll", recorded)
    assert cli.main(["sweep", "--config", str(cfg_path), "--checkpoint",
                     str(fuzz_run / "net.ckpt"), "--out", str(tmp_path / "out")]) == 0
    # rhos 10.0 and 300.0, 3 iterations each
    assert len(n_inner) == 2 * 3
    assert set(n_inner) == {7}


@pytest.mark.parametrize("dose, code", [("nan", 2), ("inf", 2), ("0", 2),
                                        ("-1.5", 2), ("1e300", 3)])
def test_cli_manifest_dose_exit_code(fuzz_run, tmp_path, capsys, dose, code):
    # a dose of 1e300 is valid but overflows every MSE against x_ref
    root = pathlib.Path(shutil.copytree(fuzz_run, tmp_path / "run"))
    manifest = root / "runs" / "data" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    i, p, _, seed, split = lines[5].split(",")
    assert (i, split) == ("4", "test")
    lines[5] = ",".join((i, p, dose, seed, split))
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = cli.main(["reconstruct", "--iters", "1", "--config",
                       str(root / "tiny.cfg"), "--checkpoint", str(root / "net.ckpt")])
    assert rc == code
    err = capsys.readouterr().err
    if code == 2:
        assert re.search(r"^config error: .*manifest\.csv: line 6: .*dose_scale", err)
    else:
        assert err.startswith("numerical abort:")
    assert not (root / "runs" / "recon" / "summary.csv").exists()


# the checkpoint, the manifest, and one image of each kind that certify or
# reconstruct reads for test phantom 2 (items 4 and 5)
FUZZ_FILES = ("net.ckpt", "runs/data/manifest.csv", "runs/data/item004_osem.img",
              "runs/data/item005_counts.img", "runs/data/phantom02_activity.img",
              "runs/data/phantom02_mu.img")


def _corrupt(path, truncate, where, bit):
    """Cut the file at fraction where, or flip one bit there."""
    raw = bytearray(path.read_bytes())
    pos = min(int(where * len(raw)), len(raw) - 1)
    if truncate:
        del raw[pos:]
    else:
        raw[pos] ^= 1 << bit
    path.write_bytes(bytes(raw))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(FUZZ_FILES),
       command=st.sampled_from(("certify", "reconstruct")),
       truncate=st.booleans(), where=st.floats(0.0, 1.0),
       bit=st.integers(0, 7))
def test_cli_exit_code_contract_on_corrupt_files(fuzz_run, name, command,
                                                 truncate, where, bit):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(shutil.copytree(fuzz_run, pathlib.Path(tmp) / "run"))
        _corrupt(root / name, truncate, where, bit)
        extra = ["--n-samples", "2"] if command == "certify" else ["--iters", "1"]
        rc = cli.main([command, "--config", str(root / "tiny.cfg"), "--checkpoint",
                       str(root / "net.ckpt"), "--out", str(root / "out"), *extra])
    assert rc in (0, 2, 3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(FUZZ_FILES + ("runs/data/item000_osem.img",
                                          "runs/data/phantom00_activity.img")),
       command=st.sampled_from(("pre", "jac", "sweep")),
       truncate=st.booleans(), where=st.floats(0.0, 1.0),
       bit=st.integers(0, 7))
def test_cli_exit_code_contract_on_corrupt_files_train_sweep(fuzz_run, name, command,
                                                             truncate, where, bit):
    # jac starts from the fuzzed checkpoint, copied to pre.ckpt in its --out
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(shutil.copytree(fuzz_run, pathlib.Path(tmp) / "run"))
        _corrupt(root / name, truncate, where, bit)
        out = root / "out"
        if command == "sweep":
            argv = ["sweep", "--checkpoint", str(root / "net.ckpt")]
        else:
            argv = ["train", "--phase", command]
            out.mkdir()
            shutil.copy(root / "net.ckpt", out / "pre.ckpt")
        with np.errstate(all="ignore"):
            rc = cli.main([*argv, "--config", str(root / "tiny.cfg"), "--out", str(out)])
    assert rc in (0, 2, 3)


def _with_data(text, fuzz_run):
    return text + f"\n[paths]\ndata = {fuzz_run / 'runs' / 'data'}\n"


def test_train_adam_overflow_aborts(fuzz_run, tmp_path, capsys):
    # at learning_rate = 1e308 the first Adam step leaves non-finite parameters
    cfg_path = tmp_path / "lr.cfg"
    cfg_path.write_text(_with_data(
        TINY_CFG.replace("learning_rate = 0.005", "learning_rate = 1e308"), fuzz_run))
    out = tmp_path / "out"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--phase", "pre", "--config", str(cfg_path),
                       "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.match(r"numerical abort: .*Adam step at epoch 0, batch start 0", err)
    assert not (out / "pre.ckpt").exists()


def test_train_adam_moment_overflow_aborts(fuzz_run, tmp_path, capsys):
    # at init_scale = 1e300 the squared gradient overflows the second Adam
    # moment while the parameters stay finite (frozen, as the step is 0)
    cfg_path = tmp_path / "scale.cfg"
    cfg_path.write_text(_with_data(
        TINY_CFG.replace("channels = 3", "channels = 3\ninit_scale = 1e300"), fuzz_run))
    out = tmp_path / "out"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--phase", "pre", "--config", str(cfg_path),
                       "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("numerical abort: non-finite Adam moments "
                                       "after the Adam step at epoch 0, batch start 0\n")
    assert not (out / "pre.ckpt").exists()


def test_train_jac_rejects_pre_checkpoint_of_another_arch(fuzz_run, tmp_path, capsys):
    # pre.ckpt has 3 channels; the config now asks for 4
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(_with_data(
        TINY_CFG.replace("channels = 3", "channels = 4"), fuzz_run))
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(fuzz_run / "net.ckpt", out / "pre.ckpt")
    capsys.readouterr()
    rc = cli.main(["train", "--phase", "jac", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out / 'pre.ckpt'} has ")
    assert "channels=3" in err and "channels=4" in err
    assert sorted(p.name for p in out.iterdir()) == ["pre.ckpt"]


@pytest.mark.parametrize("name", ["phantom02_mu.img", "item004_counts.img"])
def test_train_rejects_negative_data_pixel(fuzz_run, tmp_path, capsys, name):
    # train reads mu and the counts only to check them
    root = pathlib.Path(shutil.copytree(fuzz_run, tmp_path / "run"))
    path = root / "runs" / "data" / name
    sim.write_image(path, -sim.read_image(path))
    capsys.readouterr()
    rc = cli.main(["train", "--phase", "pre", "--config", str(root / "tiny.cfg"),
                   "--out", str(root / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (f"config error: {path}: "
                                       "negative pixel values\n")
    assert not (root / "out").exists()


def test_lanczos_cap_above_pixel_count(fuzz_run, tmp_path):
    # a Krylov space on the 16x16 grid has at most 256 dimensions
    cfg_path = tmp_path / "cap.cfg"
    cfg_path.write_text(_with_data(TINY_CFG.replace(
        "certify_power_iters = 10", "certify_power_iters = 1000000000").replace(
        "sigma_eval_samples = 2", "sigma_eval_samples = 2\npower_iters = 1000000000",
        1), fuzz_run))
    assert cli.main(["train", "--phase", "pre", "--config", str(cfg_path),
                     "--out", str(tmp_path / "train")]) == 0
    out = tmp_path / "cert"
    assert cli.main(["certify", "--config", str(cfg_path), "--checkpoint",
                     str(fuzz_run / "net.ckpt"), "--n-samples", "3",
                     "--out", str(out)]) == 0
    steps = [int(line.split(",")[3])
             for line in (out / "certify.csv").read_text().splitlines()[1:]]
    assert len(steps) == 3 and max(steps) <= 256


@pytest.mark.parametrize("edit, what", [
    (("learning_rate = 0.005", "learning_rate = 1e308"), "parameters"),
    (("channels = 3", "channels = 3\ninit_scale = 1e300"), "Adam moments")],
    ids=["learning-rate", "init-scale"])
def test_train_adam_overflow_leaves_one_stderr_line(fuzz_run, tmp_path, edit, what):
    # a child process, so no errstate or warning capture of the test runner
    # hides a numpy warning
    (tmp_path / "bad.cfg").write_text(_with_data(TINY_CFG.replace(*edit), fuzz_run))
    res = _run_python(["-m", "pnprecon.cli", "train", "--phase", "pre",
                       "--config", "bad.cfg", "--out", "out"], str(tmp_path))
    assert res.returncode == 3
    assert res.stderr == (f"numerical abort: non-finite {what} after the Adam "
                          "step at epoch 0, batch start 0\n")


def _huge_checkpoint(path, scale):
    """A net of init_params at scale with a last kernel drawn at the same
    scale: its layer outputs grow as scale ** layer."""
    params = net.init_params(net.ArchConfig(n_layers=2, channels=3), 1, scale)
    last = params.kernels[-1]
    last[...] = np.random.default_rng(2).normal(0.0, scale / np.sqrt(last[0].size),
                                                last.shape)
    net.save_checkpoint(path, params)
    return path


@pytest.mark.parametrize("edit, argv, scale, abort", [
    (("rhos = 10.0,300.0", "rhos = 1e308"), ["sweep"], None,
     r"rho = 1e\+308: non-finite denoiser input at iteration 1"),
    (None, ["reconstruct", "--rho", "1e308"], None,
     r"item \d{3}: non-finite denoiser input at iteration 1"),
    (("background_fraction = 0.2", "background_fraction = 1e308"), ["simulate"], None,
     r"phantom 0, dose [\d.]+: bin \d+, mean count inf: lam value too large"),
    (("rhos = 10.0,300.0", "rhos = 1e300"), ["sweep"], None,
     r"rho = 1e\+300: non-finite denoiser input at iteration 1"),
    (None, ["reconstruct", "--rho", "1e300"], None,
     r"item \d{3}: non-finite denoiser input at iteration 1"),
    (("background_fraction = 0.2", "background_fraction = 0"), ["simulate"], None,
     r"phantom \d+, dose [\d.]+: expected counts vanish at bin \d+ "
     r"with observed counts"),
    (("learning_rate = 0.005", "learning_rate = 1e300"), ["train", "--phase", "pre"],
     None, r"non-finite loss at epoch 0, batch start \d+"),
    (None, ["reconstruct"], 1e50,
     r"item \d{3}: non-finite primal_residual_norm at iteration \d+"),
    (None, ["sweep"], 1e50,
     r"rho = 10: non-finite primal_residual_norm at iteration \d+"),
    (None, ["certify", "--n-samples", "2"], 1e160, r"non-finite sigma at sample 0"),
    (None, ["reconstruct"], 1e160, r"item \d{3}: non-finite iterate at iteration 1"),
    (None, ["sweep"], 1e160, r"rho = 10: non-finite iterate at iteration 1")],
    ids=["sweep-rhos", "reconstruct-rho", "background-fraction", "sweep-rhos-1e300",
         "reconstruct-rho-1e300", "background-fraction-0", "train-loss-lr-1e300",
         "reconstruct-net-1e50", "sweep-net-1e50", "certify-net-1e160",
         "reconstruct-net-1e160", "sweep-net-1e160"])
def test_huge_value_abort_leaves_one_stderr_line(fuzz_run, tmp_path, edit, argv,
                                                 scale, abort):
    # finite values whose products overflow, and a zero background that
    # leaves a count with no expected count; a child process, so no errstate
    # or warning capture of the test runner hides a numpy warning
    text = TINY_CFG.replace(*edit) if edit else TINY_CFG
    (tmp_path / "bad.cfg").write_text(_with_data(text, fuzz_run))
    if argv[0] in ("reconstruct", "sweep", "certify"):
        ckpt = (_huge_checkpoint(tmp_path / "huge.ckpt", scale) if scale
                else fuzz_run / "net.ckpt")
        argv = [*argv, "--checkpoint", str(ckpt)]
    res = _run_python(["-m", "pnprecon.cli", *argv, "--config", "bad.cfg",
                       "--out", "out"], str(tmp_path))
    assert res.returncode == 3
    assert re.fullmatch(f"numerical abort: {abort}\n", res.stderr), res.stderr


@pytest.mark.parametrize("phase", ["pre", "jac"])
def test_train_without_train_items_exits_2(fuzz_run, tmp_path, capsys, phase):
    root = pathlib.Path(shutil.copytree(fuzz_run, tmp_path / "run"))
    manifest = root / "runs" / "data" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    test_rows = [line for line in lines[1:] if line.endswith(",test")]
    assert test_rows and len(test_rows) < len(lines) - 1
    manifest.write_text("\n".join([lines[0], *test_rows]) + "\n")
    out = root / "out"
    out.mkdir()
    shutil.copy(root / "net.ckpt", out / "pre.ckpt")
    capsys.readouterr()
    rc = cli.main(["train", "--phase", phase, "--config", str(root / "tiny.cfg"),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: dataset has no training items\n"
    assert not (out / f"train_{phase}.csv").exists()


def test_certify_csv_matches_serial_loop(fuzz_run, tmp_path):
    # certify.csv written from the per-sample loop certify ran before its
    # samples were fanned out
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                     "--checkpoint", str(fuzz_run / "net.ckpt"),
                     "--out", str(out), "--n-samples", "5"]) == 0
    dataset = cli._load_dataset(
        cli.build_experiment(load_config(str(fuzz_run / "tiny.cfg")), {}))
    params = net.load_checkpoint(fuzz_run / "net.ckpt")
    points = [(item, net.forward(params, item.x_noisy))
              for item in dataset.split("test")]
    rng = np.random.default_rng(derive_seed(2024, 401))
    rows = []
    for j in range(5):
        item, d_out = points[j % len(points)]
        kappa = float(rng.uniform())
        _, sigma, _, steps = train.sigma_at_tilde(
            params, item.x_ref, d_out, (kappa, int(rng.integers(2 ** 62))), 10,
            dtype=np.float32)
        rows.append([j, item.phantom_id, kappa, steps, sigma])
    write_csv(tmp_path / "want.csv", ("sample", "phantom", "kappa", "steps", "sigma"),
              rows)
    assert (out / "certify.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _nan_prox(monkeypatch, fails_at):
    """prox_neg_ll returning NaN from call fails_at(lm, rho) on (counted per
    lm and rho, 1-based; None: never), so the ADMM run aborts there."""
    original = prox.prox_neg_ll
    calls = collections.Counter()

    def patched(lm, v, cfg, *args, **kwargs):
        key = (id(lm), cfg.rho)
        calls[key] += 1          # each (lm, rho) runs on one thread
        at = fails_at(lm, cfg.rho)
        if at is not None and calls[key] >= at:
            return np.full_like(v, np.nan)
        return original(lm, v, cfg, *args, **kwargs)
    monkeypatch.setattr(prox, "prox_neg_ll", patched)


def test_sweep_abort_names_first_failing_rho(fuzz_run, tmp_path, capsys, monkeypatch):
    # rho 300 fails at its first iteration, rho 100 at its third: the
    # message names rho 100, the first failing run in input order
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_with_data(TINY_CFG.replace(
        "rhos = 10.0,300.0", "rhos = 10.0,100.0,300.0"), fuzz_run))
    _nan_prox(monkeypatch, lambda lm, rho: {100.0: 3, 300.0: 1}.get(rho))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["sweep", "--config", str(cfg_path), "--checkpoint",
                   str(fuzz_run / "net.ckpt"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical abort: rho = 100: non-finite denoiser input at iteration 3\n")
    assert not list(out.glob("*.csv"))


def test_certify_abort_names_first_failing_sample(fuzz_run, tmp_path, capsys,
                                                  monkeypatch):
    # samples 2 and 4 get a NaN sigma; the message names sample 2
    draws_rng = np.random.default_rng(derive_seed(2024, 401))
    seeds = [train.draw_tilde(draws_rng)[1] for _ in range(5)]
    bad = {seeds[2], seeds[4]}
    original = net.spectral_norm_l

    def patched(lin, *args, seed, **kwargs):
        sigma, u, steps = original(lin, *args, seed=seed, **kwargs)
        return (float("nan") if seed in bad else sigma), u, steps
    monkeypatch.setattr(net, "spectral_norm_l", patched)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["certify", "--config", str(fuzz_run / "tiny.cfg"),
                   "--checkpoint", str(fuzz_run / "net.ckpt"),
                   "--out", str(out), "--n-samples", "5"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical abort: non-finite sigma at sample 2\n")
    assert not list(out.glob("*.csv"))


def test_reconstruct_abort_names_first_failing_item(tmp_path, capsys, monkeypatch):
    # three test sims: the second fails at ADMM iteration 2, the third at
    # iteration 1; the message names the second, whose files are not
    # written, and the first one's files are
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG.replace("n_doses = 2", "n_doses = 3")
                        .replace("n_test_sims = 2", "n_test_sims = 3"))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    arch = net.ArchConfig(n_layers=2, channels=3)
    net.save_checkpoint(tmp_path / "net.ckpt", net.init_params(arch, seed=1, scale=0.2))
    exp = cli.build_experiment(load_config(str(cfg_path)), {})
    tags = [f"item{i:03d}" for i, _ in
            cli._select_test_sims(exp, cli._load_dataset(exp))]
    assert len(tags) == 3
    models = []
    original = cli._likelihood_for_item

    def recorded(exp, dataset, item):
        models.append(original(exp, dataset, item))
        return models[-1]
    monkeypatch.setattr(cli, "_likelihood_for_item", recorded)
    _nan_prox(monkeypatch, lambda lm, rho: {1: 2, 2: 1}.get(
        next(i for i, m in enumerate(models) if m is lm)))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["reconstruct", "--config", str(cfg_path), "--checkpoint",
                   str(tmp_path / "net.ckpt"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"numerical abort: item {tags[1][4:]}: "
        "non-finite denoiser input at iteration 2\n")
    assert sorted(p.name for p in out.iterdir()) == [
        f"{tags[0]}_{name}" for name in
        ("admm.img", "admm.pgm", "history.csv", "osem_filtered.img")]


def test_reconstruct_postfilter_abort_names_its_item(tmp_path, capsys, monkeypatch):
    # the second test sim's Gaussian post-filter finds no finite MSE: the
    # message names that item, and only the first one's files are written
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    arch = net.ArchConfig(n_layers=2, channels=3)
    net.save_checkpoint(tmp_path / "net.ckpt", net.init_params(arch, seed=1, scale=0.2))
    exp = cli.build_experiment(load_config(str(cfg_path)), {})
    sims = cli._select_test_sims(exp, cli._load_dataset(exp))
    assert len(sims) == 2
    failing = sims[1][1].x_noisy
    original = recon.gaussian_postfilter_sweep

    def patched(x_osem, x_ref, sigmas):
        if np.array_equal(x_osem, failing):
            raise NumericalAbort("no filter sigma gives a finite MSE")
        return original(x_osem, x_ref, sigmas)
    monkeypatch.setattr(recon, "gaussian_postfilter_sweep", patched)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["reconstruct", "--iters", "1", "--config", str(cfg_path),
                   "--checkpoint", str(tmp_path / "net.ckpt"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"numerical abort: item {sims[1][0]:03d}: no filter sigma gives a finite MSE\n")
    assert sorted(p.name for p in out.iterdir()) == [
        f"item{sims[0][0]:03d}_{name}" for name in
        ("admm.img", "admm.pgm", "history.csv", "osem_filtered.img")]


# A fresh `python -c` child that runs cli.main on its arguments (none: the
# bare import) and prints the exit code and which of the two slow scipy
# modules are loaded.
_LOADED_PROG = """
import sys
from pnprecon import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *[m for m in ("scipy.sparse", "scipy.ndimage") if m in sys.modules])
"""


def test_commands_import_scipy_only_where_a_stage_uses_it(tmp_path):
    """scipy.sparse (the projector) and scipy.ndimage (the post-filter) are
    most of the package's import time: `import pnprecon.cli`, train and
    certify load neither, simulate and sweep load only scipy.sparse, and
    reconstruct both."""
    cfg = str(tmp_path / "tiny.cfg")
    (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("n_angles = 12",
                                                        "n_angles = 8"))
    pre = str(tmp_path / "runs" / "train" / "pre.ckpt")
    cases = [
        ([], ""),
        (["simulate", "--config", cfg], "scipy.sparse"),
        (["train", "--config", cfg, "--phase", "pre"], ""),
        (["certify", "--config", cfg, "--checkpoint", pre, "--n-samples", "2"], ""),
        (["sweep", "--config", cfg, "--checkpoint", pre], "scipy.sparse"),
        (["reconstruct", "--config", cfg, "--checkpoint", pre],
         "scipy.sparse scipy.ndimage"),
    ]
    for argv, loaded in cases:
        res = _run_python(["-c", _LOADED_PROG, *argv], str(tmp_path))
        assert res.returncode == 0, f"{argv}: {res.stderr}"
        assert res.stdout.splitlines()[-1] == f"0 {loaded}".strip(), argv


def _has_mallopt():
    import ctypes
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_train_keeps_its_heap(tmp_path):
    """A `train --phase pre` child on the demo's 48x48 shape keeps its freed
    heap instead of returning it to the kernel and faulting it in again:
    about 10k minor faults, against about 200k with glibc's default
    thresholds, which hand the heap back after each large free."""
    import resource
    text = DEMO_CFG.read_text()
    for old, new in (("count = 5", "count = 2"), ("n_doses = 5", "n_doses = 3"),
                     ("epochs = 50", "epochs = 10")):
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "demo.cfg").write_text(text)
    res = _run_python(["-m", "pnprecon.cli", "simulate", "--config", "demo.cfg"],
                      str(tmp_path))
    assert res.returncode == 0, res.stderr
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    res = _run_python(["-m", "pnprecon.cli", "train", "--phase", "pre",
                       "--config", "demo.cfg"], str(tmp_path))
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert res.returncode == 0, res.stderr
    assert faults < 40_000, faults
