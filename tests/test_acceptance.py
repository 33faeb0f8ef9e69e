"""Acceptance criteria: property checks plus the end-to-end demo pipeline.

Criteria 1-6 are self-contained numerical checks.  Criteria 7-11 train
and evaluate the bundled demo config (configs/demo.cfg) through the CLI;
the pipeline runs twice with identical seeds, in two concurrent runs,
so that criterion 11 can demand byte-identical CSV artifacts.  Expect the
module to take about a minute on 2 cores, most of it that pipeline.

The CLI children put the directory holding the `pnprecon` this process
imported first on their PYTHONPATH, so the suite runs the same code from an
uninstalled checkout (`PYTHONPATH=src python -m pytest`) as from an
installed one.

Each test prints one `PASS criterion-N` line on success (visible with
`pytest -s` or in the captured output).
"""

import csv
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pnprecon
from pnprecon import admm, net, prox, recon, sim, train
from oracles import (dense_jacobian_l, make_test_problem, osem_start,
                     penalized_solver, scalar_model)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CFG = os.path.join(REPO, "configs", "demo.cfg")


def _ok(n, detail):
    print(f"PASS criterion-{n}: {detail}")


# ---------------------------------------------------------------------------
# 1. projector adjointness


def test_criterion_01_projector_adjointness():
    t0 = time.time()
    _, lm = make_test_problem(grid=32, n_angles=24, seed=101)
    model = lm.model
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(model.n_pixels)
        s = rng.standard_normal(model.n_rows)
        ax = model.mult_factors * (model.weights @ x)
        gap = abs(np.dot(ax, s) - np.dot(x, sim.back_project(model, s).ravel()))
        worst = max(worst, gap / (np.linalg.norm(ax) * np.linalg.norm(s)))
    assert worst < 1e-10
    assert time.time() - t0 < 10
    _ok(1, f"100 pairs, worst relative adjointness error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. MLEM monotonicity


def test_criterion_02_mlem_monotonicity():
    t0 = time.time()
    for seed in (201, 202, 203):
        _, lm = make_test_problem(grid=32, n_angles=24, seed=seed)
        x = recon.uniform_start(lm.model)
        prev = recon.log_likelihood(lm, x)
        for _ in range(50):
            x = recon.mlem_step(lm, x)
            cur = recon.log_likelihood(lm, x)
            assert cur >= prev - 1e-9 * abs(prev)
            prev = cur
    assert time.time() - t0 < 30
    _ok(2, "log-likelihood non-decreasing over 50 iterations on 3 problems")


# ---------------------------------------------------------------------------
# 3. prox oracle equivalence


def _prox_to_kkt(lm, v, rho, target=1e-8, block=2000, max_blocks=25):
    x = np.ones((lm.model.grid_size, lm.model.grid_size))
    cfg = prox.ProxConfig(rho=rho, n_inner=block)
    for _ in range(max_blocks):
        x = prox.prox_neg_ll(lm, v, cfg, x)
        res = prox.kkt_residual(lm, v, rho, x)
        if res < target:
            return x, res
    return x, res


def test_criterion_03_prox_oracle_equivalence():
    t0 = time.time()
    # the analytic scalar case: root of -2/x + 1 + (x - 1) = 0 is sqrt(2)
    lm = scalar_model(y_value=2.0)
    cfg = prox.ProxConfig(rho=1.0, n_inner=50)
    x = prox.prox_neg_ll(lm, np.array([[1.0]]), cfg, np.array([[1.0]]))
    assert abs(x[0, 0] - np.sqrt(2.0)) < 1e-12
    assert prox.kkt_residual(lm, np.array([[1.0]]), 1.0, x) < 1e-10

    rng = np.random.default_rng(301)
    worst_diff = 0.0
    worst_kkt = 0.0
    for i in range(20):
        activity, lm = make_test_problem(grid=16, seed=310 + i)
        scale = float(np.mean(lm.model.sensitivity[lm.model.mask]))
        rho = scale * rng.uniform(2.0, 5.0)
        # anchor shaped like an ADMM z - u: perturbed on the support,
        # strictly negative in the background (avoids degenerate optima
        # with vanishingly small positive pixels)
        v = activity * (1.0 + 0.3 * rng.standard_normal(activity.shape))
        v[activity == 0] = -rng.uniform(0.05, 0.3, int(np.sum(activity == 0)))
        x, res = _prox_to_kkt(lm, v, rho)
        want = penalized_solver(lm, v, rho, kkt_target=1e-10)
        diff = float(np.max(np.abs(x - want)))
        worst_diff = max(worst_diff, diff)
        worst_kkt = max(worst_kkt, res)
        assert res < 1e-8, f"instance {i}: KKT {res:.2e}"
        assert diff < 1e-6, f"instance {i}: max-abs {diff:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 60
    _ok(3, f"20 instances, worst max-abs {worst_diff:.2e}, "
           f"worst KKT {worst_kkt:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. differentiation engine


def test_criterion_04_differentiation_engine():
    t0 = time.time()
    arch = net.ArchConfig(n_layers=2, channels=3)
    rng = np.random.default_rng(401)
    params = net.vector_to_params(arch, rng.normal(0.0, 0.7, net.n_params(arch)))
    x = np.abs(rng.normal(1.0, 0.5, (8, 8))) + 0.1
    target = np.abs(rng.normal(1.0, 0.5, (8, 8)))

    worst_t = 0.0
    for _ in range(50):
        tan = rng.standard_normal((8, 8))
        cot = rng.standard_normal((8, 8))
        lhs = np.sum(net.Linearization(params, x).jvp(tan) * cot)
        rhs = np.sum(tan * net.Linearization(params, x).vjp(cot))
        worst_t = max(worst_t, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    assert worst_t < 1e-10

    vec = net.params_to_vector(params)
    h = 1e-6

    grad_mse = net.grad_to_vector(net.param_grad_mse(params, x, target)[0])

    def loss_mse(v):
        out = net.forward(net.vector_to_params(arch, v), x)
        return float(np.sum((out - target) ** 2))

    u = rng.standard_normal((8, 8))
    u /= np.linalg.norm(u)
    pen_struct, sigma = net.param_grad_penalty(net.Linearization(params, x), u,
                                               epsilon=0.05, alpha=0.1)
    assert sigma + 0.05 > 1.0, "penalty path must be active for the check"
    grad_pen = net.grad_to_vector(pen_struct)

    def loss_pen(v):
        p = net.vector_to_params(arch, v)
        g = 2.0 * net.Linearization(p, x).jvp(u) - u
        value, _ = net.hinge(float(np.linalg.norm(g)), 0.05, 0.1)
        return value

    worst_mse = worst_pen = 0.0
    for j in rng.choice(vec.size, size=25, replace=False):
        e = np.zeros(vec.size)
        e[j] = h
        fd = (loss_mse(vec + e) - loss_mse(vec - e)) / (2 * h)
        worst_mse = max(worst_mse, abs(fd - grad_mse[j]) / max(abs(grad_mse[j]), 1e-8))
        fd = (loss_pen(vec + e) - loss_pen(vec - e)) / (2 * h)
        worst_pen = max(worst_pen, abs(fd - grad_pen[j]) / max(abs(grad_pen[j]), 1e-8))
    assert worst_mse < 1e-3
    assert worst_pen < 1e-3
    assert time.time() - t0 < 60
    _ok(4, f"transpose {worst_t:.1e}, FD rel err mse {worst_mse:.1e} / "
           f"penalty {worst_pen:.1e}")


# ---------------------------------------------------------------------------
# 5. power iteration vs dense SVD


def test_criterion_05_power_iteration():
    t0 = time.time()
    arch = net.ArchConfig(n_layers=2, channels=3)
    rng = np.random.default_rng(501)
    worst = 0.0
    for i in range(5):
        params = net.vector_to_params(
            arch, rng.normal(0.0, 0.5, net.n_params(arch)))
        x = np.abs(rng.normal(1.0, 0.5, (8, 8))) + 0.1
        dense_sigma = np.linalg.svd(dense_jacobian_l(params, x),
                                    compute_uv=False)[0]
        sigma, _, _ = net.spectral_norm_l(net.Linearization(params, x),
                                          max_iters=50, tol=0.0,
                                          seed=510 + i)
        rel = abs(sigma - dense_sigma) / dense_sigma
        worst = max(worst, rel)
        assert rel < 1e-3
        assert sigma <= dense_sigma + 1e-9
    ident = net.identity_params(arch)
    sigma, _, _ = net.spectral_norm_l(
        net.Linearization(ident, np.abs(rng.normal(1, 0.4, (8, 8)))),
        max_iters=10, seed=0)
    assert sigma == 1.0
    assert time.time() - t0 < 30
    _ok(5, f"5 nets vs dense SVD, worst rel err {worst:.1e}; identity exact")


# ---------------------------------------------------------------------------
# 6. convex-ADMM oracle


def test_criterion_06_convex_admm_oracle():
    t0 = time.time()
    activity, lm = make_test_problem(grid=32, n_angles=24, seed=601)
    scale = float(np.mean(lm.model.sensitivity[lm.model.mask]))
    lam = rho = 5.0 * scale
    m = np.clip(activity + 0.1, 0.0, None)
    denoise = lambda v: (rho * v + lam * m) / (rho + lam)
    cfg = admm.AdmmConfig(rho=rho, n_iterations=200, n_inner=200)
    x, hist = admm.admm_pnp(lm, denoise, cfg, osem_start(lm))
    k_pass = next((k for k in range(len(hist))
                   if hist.primal[k] < 1e-6 and hist.dual[k] < 1e-6), None)
    assert k_pass is not None and k_pass < 200
    want = penalized_solver(lm, m, lam, kkt_target=1e-10)
    rel = np.linalg.norm(x - want) / np.linalg.norm(want)
    assert rel < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 120
    _ok(6, f"residuals < 1e-6 at iteration {k_pass + 1}, "
           f"limit matches solver to {rel:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7-11. the demo pipeline


def _run_python(argv, cwd):
    """Run a Python child in `cwd` whose PYTHONPATH puts first the directory
    holding the `pnprecon` this process imported, so the child runs the same
    code from any cwd: not an installed copy, and not a relative path that
    resolves only from the repo root.  Each child gets one BLAS thread, since
    demo_runs runs two pipelines side by side."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(pnprecon.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    path = pkg_root + (os.pathsep + inherited if inherited else "")
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True)


def _run_cli(args, cwd):
    res = _run_python(["-m", "pnprecon.cli"] + args, cwd)
    assert res.returncode == 0, f"{args}: {res.stderr}\n{res.stdout}"
    return res.stdout


def test_cli_child_imports_same_package(tmp_path):
    res = _run_python(["-c", "import pnprecon; print(pnprecon.__file__)"],
                      str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == pnprecon.__file__


def _read_csv(path):
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def _pipeline(root):
    os.makedirs(root, exist_ok=True)
    cfg = os.path.join(root, "demo.cfg")
    shutil.copy(DEMO_CFG, cfg)
    _run_cli(["simulate", "--config", cfg], root)
    _run_cli(["train", "--config", cfg, "--phase", "pre"], root)
    _run_cli(["train", "--config", cfg, "--phase", "jac"], root)
    jac = os.path.join(root, "runs", "train", "jac.ckpt")
    pre = os.path.join(root, "runs", "train", "pre.ckpt")
    _run_cli(["certify", "--config", cfg, "--checkpoint", jac,
              "--n-samples", "100", "--out", "runs/certify_jac"], root)
    _run_cli(["certify", "--config", cfg, "--checkpoint", pre,
              "--n-samples", "100", "--out", "runs/certify_pre"], root)
    _run_cli(["sweep", "--config", cfg, "--checkpoint", jac], root)
    sweep_rows = _read_csv(os.path.join(root, "runs", "sweep",
                                        "sweep_summary.csv"))
    passing = [r for r in sweep_rows if r["meets_threshold"] == "1"]
    best_rho = min(
        passing or sweep_rows,
        key=lambda r: max(float(r["primal_ratio"]), float(r["dual_ratio"])))
    _run_cli(["reconstruct", "--config", cfg, "--checkpoint", jac,
              "--rho", best_rho["rho"]], root)
    return root


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    # the two identical-seed runs are independent, so they run concurrently
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(_pipeline, [str(base / "run1"),
                                             str(base / "run2")])
    return first, second


def test_criterion_07_constraint_enforcement(demo_runs):
    root, _ = demo_runs
    jac_rows = _read_csv(os.path.join(root, "runs", "certify_jac", "certify.csv"))
    pre_rows = _read_csv(os.path.join(root, "runs", "certify_pre", "certify.csv"))
    assert len(jac_rows) == 100 and len(pre_rows) == 100
    jac_sigma = np.array([float(r["sigma"]) for r in jac_rows])
    pre_sigma = np.array([float(r["sigma"]) for r in pre_rows])
    frac = float(np.mean(jac_sigma <= 1.05))
    assert frac >= 0.90
    assert pre_sigma.max() > 1.05
    _ok(7, f"JAC: {100 * frac:.0f}% of sigma <= 1.05 (max {jac_sigma.max():.3f}); "
           f"PRE max sigma {pre_sigma.max():.3f} > 1.05")


def test_criterion_08_convergent_reconstruction(demo_runs):
    root, _ = demo_runs
    rdir = os.path.join(root, "runs", "recon")
    hists = sorted(f for f in os.listdir(rdir) if f.endswith("_history.csv"))
    assert len(hists) == 3
    for name in hists:
        rows = _read_csv(os.path.join(rdir, name))
        assert len(rows) == 40
        primal = [float(r["primal_residual_norm"]) for r in rows]
        dual = [float(r["dual_residual_norm"]) for r in rows]
        ll = [float(r["log_likelihood"]) for r in rows]
        assert primal[-1] < 0.1 * primal[0], name
        assert dual[-1] < 0.1 * dual[0], name
        for k in range(35, 40):
            assert abs(ll[k] - ll[k - 1]) / abs(ll[k - 1]) < 1e-4, (name, k)
    _ok(8, "3 test simulations: residuals below 10% of iteration-1, "
           "log-likelihood stabilized over the last 5 of 40 iterations")


def test_criterion_09_end_image_quality(demo_runs):
    root, _ = demo_runs
    rows = _read_csv(os.path.join(root, "runs", "recon", "summary.csv"))
    by_item = {}
    for r in rows:
        by_item.setdefault(r["item"], {})[r["method"]] = float(r["mse"])
    assert len(by_item) == 3
    wins = sum(1 for m in by_item.values()
               if m["admm"] < m["osem_filtered"])
    assert wins >= 2
    _ok(9, f"ADMM beats best-filtered OSEM on {wins}/3 test simulations")


def test_criterion_10_rho_sensitivity(demo_runs):
    root, _ = demo_runs
    rows = _read_csv(os.path.join(root, "runs", "sweep", "sweep_summary.csv"))
    assert len(rows) >= 4
    flags = [r["meets_threshold"] == "1" for r in rows]
    assert any(flags) and not all(flags)
    curves = _read_csv(os.path.join(root, "runs", "sweep", "sweep_curves.csv"))
    assert len(curves) == len(rows) * 40
    labels = {r["rho"]: (r["primal_monotone"], r["dual_monotone"]) for r in rows}
    assert len(labels) == len(rows)
    _ok(10, f"{sum(flags)}/{len(flags)} rho values meet the residual "
            f"threshold; curves and monotonicity labels emitted")


def test_criterion_11_full_determinism(demo_runs):
    first, second = demo_runs
    rel_paths = []
    for sub in ("train", "certify_jac", "certify_pre", "sweep", "recon", "data"):
        d1 = os.path.join(first, "runs", sub)
        for name in sorted(os.listdir(d1)):
            if name.endswith(".csv"):
                rel_paths.append(os.path.join(sub, name))
    assert rel_paths
    for rel in rel_paths:
        a = open(os.path.join(first, "runs", rel), "rb").read()
        b = open(os.path.join(second, "runs", rel), "rb").read()
        assert a == b, f"{rel} differs between identical-seed runs"
    _ok(11, f"{len(rel_paths)} CSV artifacts byte-identical across reruns")
