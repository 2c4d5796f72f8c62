"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers, refs, speed  # noqa: E402
from perfbench.cli_runs import CliRuns, draw_cycle  # noqa: E402
from perfbench.dense_sweep import DenseSweep, draw_op  # noqa: E402
from perfbench.harness import child_env, run_child  # noqa: E402
from perfbench.pair_algebra import PairAlgebra  # noqa: E402
from perfbench.run import Context  # noqa: E402
from perfbench.spans import self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--probes", "1", "--points", "181"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"  {name} " in proc.stdout, name  # printed by name with its unit


def test_per_layer_declaration_matches_the_derivation():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("pair-algebra", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------ corrupted outputs count as failures


def test_corrupted_rate_table_is_a_failure(tmp_path):
    w = DenseSweep(7, Context(str(tmp_path)), points=181)
    ops = [draw_op(np.random.default_rng(1), "chi", False, "csv", 181),
           draw_op(np.random.default_rng(2), "P2", True, "json", 181)]
    assert w.run_unit(ops).failures == []

    execute = w.execute

    def corrupt_table(op):
        elapsed, result, data = execute(op)
        result.rc[40] *= 1.0 + 1e-9
        return elapsed, result, data

    w.execute = corrupt_table
    r = w.run_unit(ops)
    assert len(r.failures) == 2 and "Rc" in r.failures[0]

    def corrupt_file(op):  # the last row goes missing
        elapsed, result, data = execute(op)
        return elapsed, result, data.rstrip(b"\n").rsplit(b"\n", 1)[0] + b"\n"

    w.execute = corrupt_file
    assert len(w.run_unit(ops).failures) == 2


def test_seeded_counts_far_from_their_means_are_a_failure():
    grid = np.linspace(0.0, 90.0, 181)
    r1, r2, rc = refs.ideal_sweep("chi", grid, 0.0, 30.0, 60.0)
    counts = [np.round(x) for x in (r1, r2, rc)]
    table = {"param": grid, "R1": counts[0], "R2": counts[1], "Rc": counts[2],
             "g2": refs.g2_from_counts(*counts, 1.0)}
    assert refs.check_sweep_table(table, "chi", grid, 0.0, 30.0, 60.0, True, 1.0, 0.0) == []
    table["Rc"] = counts[2] * 1.2
    table["g2"] = refs.g2_from_counts(counts[0], counts[1], table["Rc"], 1.0)
    assert refs.check_sweep_table(table, "chi", grid, 0.0, 30.0, 60.0, True, 1.0, 0.0)


def test_corrupted_cli_output_is_a_failure(tmp_path):
    w = CliRuns(3, Context(str(tmp_path)))
    cycle = draw_cycle(np.random.default_rng(4))
    picked = [op for op in cycle if op["kind"] in ("state-chi", "partner-sphere-json", "sweep-ideal")]
    assert w.run_unit(picked).failures == []

    execute = w.execute

    def tampered(op, tracer=None):
        elapsed, outcome = execute(op, tracer)
        # the leading digit of the first decimal number changes
        outcome["stdout"] = re.sub(r"(\d)\.", lambda m: f"{(int(m.group(1)) + 1) % 10}.",
                                   outcome["stdout"], count=1)
        return elapsed, outcome

    w.execute = tampered
    assert len(w.run_unit(picked).failures) == len(picked)


def test_wrong_exit_code_is_a_failure(tmp_path):
    w = CliRuns(3, Context(str(tmp_path)))
    degenerate = [op for op in draw_cycle(np.random.default_rng(4)) if op["kind"] == "partner-degenerate"]
    outcome = {"code": 0, "stdout": "", "stderr": "", "files": {}, "path": None}
    assert w.verify(degenerate[0], outcome)


def test_wrong_scalar_rate_is_a_failure(tmp_path, monkeypatch):
    w = PairAlgebra(3, Context(str(tmp_path)))
    unit = next(w.units())
    assert w.run_unit(unit).failures == []
    real = w.bp.coincidence_rate
    monkeypatch.setattr(w.bp, "coincidence_rate", lambda *a, **k: real(*a, **k) + 1e-3)
    assert len(w.run_unit(unit).failures) == len(unit["jones"])


# ------------------------------------------------------------ host-speed scaling


def test_samples_inside_an_op_are_not_op_time():
    meter = speed.Meter()
    t0, c0 = time.perf_counter(), speed.clock()
    with meter.during() as inside:
        while time.perf_counter() - t0 < 0.5:
            pass
    wall, op = time.perf_counter() - t0, speed.clock() - c0
    assert len(inside) >= 2
    assert 0 < wall - op and abs((wall - op) - sum(inside)) < 1e-3 * len(inside)
    assert speed.scale([speed.REF_S / 2, speed.REF_S, speed.REF_S * 4]) == 1.0


# ------------------------------------------------------------ tracing


def test_child_driver_matches_the_cli(tmp_path):
    env = child_env(str(tmp_path))
    for argv in (["state", "--chi", "30", "--json"], ["partner", "H", "H", "V"],
                 ["partner", "H", "V", "atlantis"], ["sweep", "chi", "--format", "xml"],
                 ["sweep", "polarizer", "--chi", "20", "--seed", "3", "--format", "json"]):
        real = run_child([sys.executable, "-m", "biphoton.cli", *argv], env, str(tmp_path))
        child = run_child([sys.executable, os.path.join(ROOT, "perfbench", "cli_child.py"), *argv],
                          env, str(tmp_path))
        assert (child.code, child.stdout, child.stderr) == (real.code, real.stdout, real.stderr), argv


def test_self_time_subtracts_child_coverage():
    spans = [[0, None, 1, "a", 0, 100, None], [1, 0, 1, "b", 10, 40, None],
             [2, 0, 1, "c", 30, 60, None], [3, 2, 1, "d", 35, 45, None]]
    assert self_times(spans) == {0: 50, 1: 30, 2: 20, 3: 10}
