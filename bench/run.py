"""Benchmark of the pnprecon pipeline, driven through ``pnprecon.cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload train-certify --seed 1 --seconds 36 --trace 0

A run writes a config generated from configs/demo.cfg, warms up on a
tiny config, then runs the workload's set-up (timed as ``setup_s``) and
its units of CLI stages -- a closed loop, one stage at a time -- each
getting a fixed share of ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics (throughputs over the whole run), ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of spans.py.  Every stage output is checked and hashed; the last line of
standard output is the result object.  See README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEMO_CFG = ROOT / "configs" / "demo.cfg"
OUT_DIR = BENCH_DIR / "out"

MIN_SETUPS = 3   # set-ups per untraced run, at least


@dataclass(frozen=True)
class Workload:
    setup: tuple            # CLI stages of the set-up; empty: config + import
    setup_weight: float     # share of the run's time the set-up gets
    units: tuple            # (CLI stages, weight) of what the run repeats
    config: dict            # (section, key) -> value written over demo.cfg
    certify_samples: int
    admm_checkpoint: str    # checkpoint that sweep and reconstruct load

    @property
    def stages(self):
        """One pass: the set-up, then every unit once."""
        return self.setup + tuple(s for stages, _ in self.units for s in stages)


# Every workload keeps the demo shape (48x48 grid, 48 angles x 69 bins,
# 5 layers x 16 channels) and reports every end-to-end metric, so it also
# runs the stages outside its focus, at their smallest size.  A run
# repeats the set-up and each unit, always the one furthest behind its
# share of the time (shares proportional to the weights), so that every
# metric is timed for several seconds spread over the whole run: speed on
# a shared machine drifts over tens of seconds, and a metric timed in
# one stretch of it would move with it.
# Two phantoms (one test) x three doses give 3 train and
# 3 test items: enough for the 3 reconstructed test sims, small enough
# that a run stays well under a minute on 2 cores.
_DATA = {("phantoms", "count"): 2, ("simulation", "n_doses"): 3}
# PRE learning rate 3x the demo's.  Once a net has moved away from
# identity every power iteration runs to its cap (after 6 PRE epochs at
# the demo rate, seeds 11-16).  After fewer epochs at the demo rate power
# iteration stops early on some seeds and not on others, so JAC and
# certify cost 3-10x more on some seeds.  At 0.003 every power iteration
# from the second epoch on runs to its cap, on all 23 seeds tried (1-8,
# 201-205, 301-310).
_PRE = {("train.pre", "learning_rate"): 0.003}
_SMALL_NET = {("train.pre", "epochs"): 1, ("train.pre", "power_iters"): 2,
              ("train.pre", "sigma_eval_samples"): 1,
              ("train.jac", "epochs"): 1, ("train.jac", "power_iters"): 2,
              ("train.jac", "sigma_eval_samples"): 1,
              ("net", "certify_power_iters"): 3}
_SMALL_ADMM = {("sweep", "rhos"): "30.0", ("sweep", "iterations"): 5,
               ("admm", "iterations"): 5}
# Before timing, a run calls the same stages once on this tiny config: the
# first call of a stage in a process runs cold (lazy imports, first-use
# set-up), about 1.5 s per workload, and would otherwise be in the samples.
WARM_UP = {("phantoms", "grid_size"): 16, ("geometry", "n_angles"): 8,
           ("geometry", "n_bins"): 23, ("osem", "n_iterations"): 2,
           ("net", "certify_power_iters"): 2, ("train.pre", "epochs"): 1,
           ("train.pre", "power_iters"): 2, ("train.pre", "sigma_eval_samples"): 1,
           ("train.jac", "epochs"): 1, ("train.jac", "power_iters"): 2,
           ("train.jac", "sigma_eval_samples"): 1, ("admm", "iterations"): 2,
           ("sweep", "iterations"): 2}

WORKLOADS = {
    "simulate": Workload(
        setup=(), setup_weight=0.5,
        units=((("simulate",), 3), (("pre",), 1), (("jac",), 1), (("certify",), 1),
               (("sweep", "reconstruct"), 1.5)),
        config={**_DATA, **_PRE, **_SMALL_NET, **_SMALL_ADMM},
        certify_samples=4, admm_checkpoint="jac"),
    "train-certify": Workload(
        setup=("simulate",), setup_weight=1.5,
        units=((("pre",), 1.5), (("jac",), 2), (("certify",), 2),
               (("sweep", "reconstruct"), 1.5)),
        config={**_DATA, **_PRE, **_SMALL_ADMM, ("train.pre", "epochs"): 2,
                ("train.jac", "epochs"): 1},
        certify_samples=3, admm_checkpoint="jac"),
    "reconstruct": Workload(
        setup=("simulate", "pre"), setup_weight=1.5,
        units=((("sweep",), 2.5), (("reconstruct",), 2.5), (("pre",), 1),
               (("jac",), 1), (("certify",), 1)),
        config={**_DATA, **_PRE, **_SMALL_NET},
        certify_samples=4, admm_checkpoint="pre"),
}

# stage -> (config [paths] entry of its output directory, files it writes)
OUTPUTS = {
    "simulate": ("data", ("*",)),
    "pre": ("train", ("pre.ckpt", "train_pre.csv")),
    "jac": ("train", ("jac.ckpt", "train_jac.csv")),
    "certify": ("certify", ("*",)),
    "sweep": ("sweep", ("*",)),
    "reconstruct": ("recon", ("*",)),
}

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("simulate_items_per_s", "items/s", "higher"),
    ("train_pre_items_per_s", "items/s", "higher"),
    ("train_jac_items_per_s", "items/s", "higher"),
    ("certify_samples_per_s", "samples/s", "higher"),
    ("admm_iters_per_s", "it/s", "higher"),
    ("jac_test_mse_rel", "ratio", "lower"),
    ("certify_sigma_max", "sigma", "lower"),
    ("admm_mse_rel", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


def render_config(base_text, overrides):
    """demo.cfg with the given keys replaced; every key must exist."""
    pending = dict(overrides)
    section = ""
    lines = []
    for line in base_text.splitlines():
        text = line.split("#", 1)[0].strip()
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
        elif "=" in text:
            key = text.split("=", 1)[0].strip()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        lines.append(line)
    if pending:
        raise KeyError(f"keys not in {DEMO_CFG.name}: {sorted(pending)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Plan:
    """Sizes of one run, read back from the generated config."""

    grid: int
    n_angles: int
    n_bins: int
    bin_width: float
    n_items: int
    n_train: int
    n_sims: int
    epochs: dict
    n_layers: int
    channels: int
    certify_samples: int
    rhos: list
    sweep_iters: int
    admm_iters: int

    @classmethod
    def from_config(cls, cfg, certify_samples):
        ph, sim_cfg = cfg["phantoms"], cfg["simulation"]
        n_doses = sim_cfg["n_doses"]
        return cls(
            grid=ph["grid_size"], n_angles=cfg["geometry"]["n_angles"],
            n_bins=cfg["geometry"]["n_bins"], bin_width=cfg["geometry"]["bin_width"],
            n_items=ph["count"] * n_doses,
            n_train=(ph["count"] - ph["n_test"]) * n_doses,
            n_sims=min(cfg["admm"]["n_test_sims"], ph["n_test"] * n_doses),
            epochs={"pre": cfg["train.pre"]["epochs"], "jac": cfg["train.jac"]["epochs"]},
            n_layers=cfg["net"]["n_layers"], channels=cfg["net"]["channels"],
            certify_samples=certify_samples,
            rhos=[float(t) for t in cfg["sweep"]["rhos"].split(",")],
            sweep_iters=cfg["sweep"]["iterations"], admm_iters=cfg["admm"]["iterations"])

    @property
    def sino_shape(self):
        return (self.n_angles, self.n_bins)

    def work(self, stage):
        """Items one call of the stage processes."""
        return {"simulate": self.n_items,
                "pre": self.epochs["pre"] * self.n_train,
                "jac": self.epochs["jac"] * self.n_train,
                "certify": self.certify_samples,
                "sweep": len(self.rhos) * self.sweep_iters,
                "reconstruct": self.n_sims * self.admm_iters}[stage]


def import_package():
    """Import pnprecon from this checkout's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"pnprecon.{name}")
               for name in (*spans.LAYERS, "config")}
    where = Path(modules["cli"].__file__).resolve().parent
    if where != (SRC / "pnprecon").resolve():
        raise ImportError(f"pnprecon imported from {where}, not from {SRC}")
    return modules


class Runner:
    """Runs CLI stages of one workload and counts operations.

    An operation is one stage call (a non-zero exit or an exception fails
    it) or one output check; determinism is one check per repeated stage.
    """

    def __init__(self, workload, seed, work_dir, modules, overrides=None, tracer=None):
        self.wl = workload
        self.seed = seed
        self.mod = modules
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.walls = {stage: [] for stage in OUTPUTS}   # successful calls only
        self._hashes = {}
        self._adjoint_checked = False
        paths = {("paths", name): name for name, _ in OUTPUTS.values()}
        self.overrides = {**workload.config, ("", "seed"): seed,
                          ("phantoms", "family_seed"): seed, **paths, **(overrides or {})}
        work_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = work_dir / "bench.cfg"
        self.write_config()
        cfg = modules["config"].load_config(self.cfg_path)
        self.plan = Plan.from_config(cfg, workload.certify_samples)
        self.dirs = {stage: work_dir / name for stage, (name, _) in OUTPUTS.items()}

    def write_config(self):
        self.cfg_path.write_text(render_config(DEMO_CFG.read_text(), self.overrides))

    def op(self, name, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
            return True
        except Exception as exc:   # a failed stage or check is counted, not fatal
            self.failed += 1
            self.failures.append(f"{name}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return False

    def import_setup(self):
        """Set-up of the simulate workload: write the config, then import
        the package in a fresh interpreter.  Returns the wall time."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        t0 = time.perf_counter()
        self.write_config()
        proc = subprocess.run([sys.executable, "-c", "import pnprecon.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0

        def imported():
            checks.require(proc.returncode == 0, f"import failed: {proc.stderr.strip()}")
        self.op("import", imported)
        return wall

    def argv(self, stage):
        common = ["--config", str(self.cfg_path)]
        train = self.dirs["pre"]
        if stage == "simulate":
            return ["simulate", *common]
        if stage in ("pre", "jac"):
            return ["train", "--phase", stage, *common]
        if stage == "certify":
            return ["certify", *common, "--checkpoint", str(train / "jac.ckpt"),
                    "--n-samples", str(self.plan.certify_samples)]
        return [stage, *common, "--checkpoint", str(train / f"{self.wl.admm_checkpoint}.ckpt")]

    def _call_cli(self, argv, trace_id):
        ctx = self.tracer.stage(trace_id) if trace_id else nullcontext()
        with redirect_stdout(sys.stderr), ctx:
            rc = self.mod["cli"].main(argv)
        checks.require(rc == 0, f"exit code {rc}")

    def _outputs(self, stage):
        out, patterns = self.dirs[stage], OUTPUTS[stage][1]
        return sorted({f for pat in patterns for f in out.glob(pat) if f.is_file()})

    def stage(self, stage, trace_id=None):
        """Run one CLI stage, then check and hash its outputs; returns
        the stage's wall time, or None if it failed."""
        for f in self._outputs(stage):
            f.unlink()
        t0 = time.perf_counter()
        ok = self.op(stage, self._call_cli, self.argv(stage), trace_id)
        wall = time.perf_counter() - t0
        if not ok:
            return None
        self.walls[stage].append(wall)
        for name, fn, *args in self._checks(stage):
            self.op(f"{stage}: {name}", fn, *args)
        digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in self._outputs(stage) if f.suffix == ".csv"}
        if stage in self._hashes:
            ref = self._hashes[stage]
            self.op(f"{stage}: determinism", checks.require, digest == ref,
                    f"CSV outputs differ between same-seed calls: "
                    f"{sorted(k for k in digest.keys() | ref.keys() if digest.get(k) != ref.get(k))}")
        else:
            self._hashes[stage] = digest
        return wall

    def _checks(self, stage):
        p, d, sim, net = self.plan, self.dirs[stage], self.mod["sim"], self.mod["net"]
        if stage == "simulate":
            out = [("manifest rows", checks.manifest, p, d),
                   ("counts", checks.counts_are_integers, sim, p, d),
                   ("osem images", checks.osem_nonnegative, sim, p, d)]
            if not self._adjoint_checked:
                self._adjoint_checked = True
                out.append(("adjointness", checks.projector_adjoint, sim, p, d, self.seed))
            return out
        if stage in ("pre", "jac"):
            return [("training log", checks.training_log, p, d, stage),
                    ("checkpoint", checks.checkpoint_reloads, net, p, d, stage)]
        if stage == "certify":
            return [("rows", checks.certify_rows, p, d),
                    ("summary", checks.certify_summary, p, d)]
        if stage == "sweep":
            return [("summary", checks.sweep_summary, p, d)]
        return [("summary", checks.recon_summary, p, d)]

    def run_stages(self, stages, trace_id=None):
        """A closed loop over the stages; returns their wall times (None
        for a failed stage)."""
        return [self.stage(stage, trace_id and f"{trace_id}.{i}.{stage}")
                for i, stage in enumerate(stages)]


def _median(values):
    return statistics.median(values) if values else None


def measure(runner, seconds):
    """Untraced run: one pass over the set-up and every unit, then the
    unit furthest behind its share of the time, among those whose last
    call still fits in `seconds`, until none fits and at least MIN_SETUPS
    set-ups have run.  Throughputs are a stage's work over its wall time,
    summed over all its calls in the run; `setup_s` is the median set-up."""
    wl, plan = runner.wl, runner.plan
    units = [(wl.setup, wl.setup_weight), *wl.units]
    spent = [0.0] * len(units)
    last = [0.0] * len(units)
    setup = []
    setups = 0

    def run_unit(i):
        nonlocal setups
        t = time.perf_counter()
        if i == 0:
            setups += 1
            if wl.setup:
                walls = runner.run_stages(wl.setup)
                if None not in walls:
                    setup.append(sum(walls))
            else:
                setup.append(runner.import_setup())
        else:
            runner.run_stages(units[i][0])
        last[i] = time.perf_counter() - t
        spent[i] += last[i]

    t0 = time.perf_counter()
    for i in range(len(units)):
        run_unit(i)
    while True:
        left = seconds - (time.perf_counter() - t0)
        fits = [i for i in range(len(units)) if last[i] <= left]
        if not fits:
            if setups >= MIN_SETUPS:
                break
            fits = [0]
        run_unit(min(fits, key=lambda i: spent[i] / units[i][1]))

    def rate(*stages):
        wall = sum(sum(runner.walls[s]) for s in stages)
        work = sum(plan.work(s) * len(runner.walls[s]) for s in stages)
        return work / wall if wall else None

    metrics = {
        "setup_s": _median(setup),
        "simulate_items_per_s": rate("simulate"),
        "train_pre_items_per_s": rate("pre"),
        "train_jac_items_per_s": rate("jac"),
        "certify_samples_per_s": rate("certify"),
        "admm_iters_per_s": rate("sweep", "reconstruct"),
    }
    metrics.update(quality(runner))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    detail = {"setup_s": setup, "walls": runner.walls,
              "unit_seconds": dict(zip(("setup", *("+".join(u) for u, _ in wl.units)), spent))}
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}, detail


def quality(runner):
    """Quality metrics from the last outputs (same-seed outputs are
    byte-identical, which the determinism checks enforce)."""
    sim, d = runner.mod["sim"], runner.dirs
    out = {"jac_test_mse_rel": None, "certify_sigma_max": None, "admm_mse_rel": None}
    try:
        errs = []
        for row in checks.read_csv(d["simulate"] / "manifest.csv"):
            if row["split"] == "test":
                x = sim.read_image(d["simulate"] / f"item{int(row['item']):03d}_osem.img")
                ref = float(row["dose_scale"]) * sim.read_image(
                    d["simulate"] / f"phantom{int(row['phantom']):02d}_activity.img")
                errs.append(float(np.mean((x - ref) ** 2)))
        last = checks.read_csv(d["jac"] / "train_jac.csv")[-1]
        out["jac_test_mse_rel"] = float(last["test_mse"]) / float(np.mean(errs))
        (cert,) = checks.read_csv(d["certify"] / "certify_summary.csv")
        out["certify_sigma_max"] = float(cert["sigma_max"])
        mse = {}
        for row in checks.read_csv(d["reconstruct"] / "summary.csv"):
            mse[row["item"], row["method"]] = float(row["mse"])
        items = sorted({item for item, _ in mse})
        out["admm_mse_rel"] = float(np.mean([mse[i, "admm"] / mse[i, "osem"] for i in items]))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        runner.failures.append(f"quality metrics: {exc!r}")
    return out


def measure_traced(runner, seconds):
    """Traced run: passes alternate untraced and traced, in ABBA order,
    while the next pair is expected to end within `seconds`; at least
    one pair runs."""
    tracer = runner.tracer
    walls = {False: [], True: []}
    summaries = []
    traced_spans = []
    t0 = time.perf_counter()
    k = 0
    while True:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            stage_walls = runner.run_stages(runner.wl.stages,
                                            trace_id=f"r{k}" if traced else None)
            if None not in stage_walls:
                walls[traced].append(sum(stage_walls))
            if traced:
                round_spans, prox = tracer.reset()
                summaries.append(spans.summarize(round_spans, prox))
                traced_spans.append(round_spans)
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / k > seconds:
            break
    values = {name: _median([s[name] for s in summaries]) for name in summaries[0]}
    plain, traced_wall = _median(walls[False]), _median(walls[True])
    if plain is not None and traced_wall is not None:
        values["trace.overhead_s"] = traced_wall - plain
        values["trace.overhead_frac"] = (traced_wall - plain) / plain
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit, _ in spans.METRICS}
    return metrics, {"round_walls": {"untraced": walls[False], "traced": walls[True]},
                     "spans": traced_spans}


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": os.getloadavg(),
        "git_revision": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        env["git_revision"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain"))
    return env


def run_workload(name, seed, seconds, trace, out_dir=OUT_DIR, overrides=None):
    """One benchmark run; returns (result, record).  The record holds the
    environment block, raw timings, failures and, traced, the spans."""
    env = environment()
    modules = import_package()
    work = out_dir / f"work-{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer(modules) if trace else None
    wl = WORKLOADS[name]
    try:
        warm = Runner(wl, seed, work / "warm-up", modules, {**(overrides or {}), **WARM_UP})
        warm.run_stages(wl.stages)
        runner = Runner(wl, seed, work / "run", modules, overrides, tracer)
        runner.attempted, runner.failed, runner.failures = warm.attempted, warm.failed, warm.failures
        if trace:
            tracer.install()
            try:
                metrics, detail = measure_traced(runner, seconds)
            finally:
                tracer.uninstall()
        else:
            metrics, detail = measure(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0 and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    env["loadavg_end"] = os.getloadavg()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "failures": runner.failures, **detail}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pnprecon" / "cli.py").is_file() or not DEMO_CFG.is_file():
        print(f"error: {SRC}/pnprecon or {DEMO_CFG} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_spans = record.pop("spans", None)
    Path(f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    if record_spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(record_spans))
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
