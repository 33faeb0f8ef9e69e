"""Smoke test of the benchmark harness on a tiny generated config.

It checks that every workload runs, passes its output checks and reports
exactly the metrics BENCHMARK.json declares.  It asserts nothing about
timings.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the warm-up config plus a smaller net
TINY = {**run.WARM_UP, ("net", "n_layers"): 2, ("net", "channels"): 4}


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
            == list(run.spans.METRICS))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_on_tiny_config(tmp_path, workload, trace):
    result, record = run.run_workload(workload, seed=3, seconds=0, trace=bool(trace),
                                      out_dir=tmp_path, overrides=TINY)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    assert record["environment"]["nproc"] >= 1
    assert not any(tmp_path.glob("work-*")), "work directory left behind"


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in run.BENCH_DIR.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_render_config_rejects_unknown_keys():
    with pytest.raises(KeyError):
        run.render_config(run.DEMO_CFG.read_text(), {("net", "no_such_key"): 1})
