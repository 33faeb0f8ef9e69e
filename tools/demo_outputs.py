"""Write the demo pipeline's outputs for a same-behaviour check.

    python3 tools/demo_outputs.py OUT_DIR [CHECKOUT]

Runs the package in CHECKOUT/src (CHECKOUT defaults to the checkout
holding this script) on a copy of CHECKOUT/configs/demo.cfg with
[train.pre] epochs = 4 and [train.jac] epochs = 2, each stage in its own
process with one BLAS thread: simulate, train pre and jac, certify jac.ckpt
and pre.ckpt (100 samples each), sweep and reconstruct; then reconstruct
with pre.ckpt from a second copy, pre_rho3.cfg, whose [admm] has rho = 3.0
and iterations = 5.  Everything lands in OUT_DIR, which must not exist or
be empty.  Two checkouts behave the same on the demo when `diff -r` of
their two OUT_DIR trees is empty.  A stage that fails
or writes anything to standard error (a numpy warning, say) stops the
run with its standard error echoed and a non-zero exit.  Each stage's wall
time, and the CPU time (user plus system), minor page faults and maximum
resident set size of its whole process (from os.wait4), go to standard
output only, with the totals, so OUT_DIR holds the same files either way.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHORT = {("train.pre", "epochs"): "4", ("train.jac", "epochs"): "2"}
PRE_RHO3 = {("admm", "rho"): "3.0", ("admm", "iterations"): "5"}

JAC, PRE = "runs/train/jac.ckpt", "runs/train/pre.ckpt"
STAGES = (
    ["simulate"],
    ["train", "--phase", "pre"],
    ["train", "--phase", "jac"],
    ["certify", "--checkpoint", JAC, "--n-samples", "100"],
    ["certify", "--checkpoint", PRE, "--n-samples", "100", "--out", "runs/certify_pre"],
    ["sweep", "--checkpoint", JAC],
    ["reconstruct", "--checkpoint", JAC],
    ["reconstruct", "--checkpoint", PRE, "--out", "runs/recon_pre_rho3",
     "--config", "pre_rho3.cfg"],
)


def edited(text, changes):
    """text with the value of each (section, key) in changes replaced."""
    lines, section, seen = [], None, set()
    for line in text.splitlines():
        header = re.fullmatch(r"\s*\[(.+)\]\s*", line)
        if header:
            section = header.group(1)
        key = line.split("=")[0].strip()
        if "=" in line and (section, key) in changes:
            line = f"{key} = {changes[section, key]}"
            seen.add((section, key))
        lines.append(line)
    missing = set(changes) - seen
    if missing:
        raise SystemExit(f"demo.cfg has no {sorted(missing)}")
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    out = Path(argv[0]).resolve()
    checkout = Path(argv[1] if len(argv) == 2 else Path(__file__).parents[1]).resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    demo = (checkout / "configs" / "demo.cfg").read_text()
    short = edited(demo, SHORT)
    (out / "demo.cfg").write_text(short)
    (out / "pre_rho3.cfg").write_text(edited(short, PRE_RHO3))
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    total, cpu_total, faults = 0.0, 0.0, 0
    for args in STAGES:
        if "--config" not in args:
            args = [*args, "--config", "demo.cfg"]
        print(f"== {' '.join(args)}", flush=True)
        with tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "pnprecon.cli", *args],
                                    cwd=out, env=env, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code or stderr:
            sys.stderr.write(stderr)
            raise SystemExit(f"{' '.join(args)} exited {code} with "
                             f"{len(stderr.splitlines())} standard-error lines")
        cpu = usage.ru_utime + usage.ru_stime
        total += wall
        cpu_total += cpu
        faults += usage.ru_minflt
        print(f"== {' '.join(args)} took {wall:.2f} s, {cpu:.2f} s CPU, "
              f"{usage.ru_minflt} minor faults, max RSS {usage.ru_maxrss / 1024:.1f} MB",
              flush=True)
    print(f"== all stages took {total:.2f} s, {cpu_total:.2f} s CPU, "
          f"{faults} minor faults", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
