"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest bench/selftest.py``.
The file is not named ``test_*.py``, so the package's test suite does not
collect it: the minimal-length runs below take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tensortract import cli, complexity, errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_pass(workload: str, op_ids=None, pins=None) -> run.Runner:
    ops = workloads.build(workload, 1)
    if op_ids is not None:
        ops = [op for op in ops if op.id in op_ids]
    runner = run.Runner(ops, workloads.load_pins() if pins is None else pins, 1)
    runner.run_pass()
    return runner


def failed_ids(runner: run.Runner) -> list:
    return sorted(op_id for op_id, _ in runner.failures)


@pytest.mark.parametrize("workload, victim", [
    ("small_calls", "j_of_eps:exp_power:E=10.0"),
    ("small_calls", "classify:double_exp_sharp:spt"),
    ("count_sweep", "sweep:double_exp:E=100.0"),
    ("spectrum_topk", "topk:power_law-exp_power:K=1000:d=10"),
])
def test_corrupted_pin_is_a_failed_op(workload, victim):
    pins = workloads.load_pins()
    pin = pins[victim]
    if isinstance(pin, int):
        pins[victim] = pin + 1
    elif isinstance(pin, str):
        pins[victim] = "inconclusive" if pin != "inconclusive" else "holds"
    else:
        pins[victim] = json.loads(json.dumps(pin).replace('"298"', '"299"'))
    assert pins[victim] != pin
    ops = None if workload == "small_calls" else {victim}
    assert failed_ids(one_pass(workload, ops, pins)) == [victim]


def _refuse(*args, **kwargs):
    raise errors.BudgetExceeded("forced by the test")


def test_forced_budget_exceeded_is_a_failed_op(monkeypatch):
    # Where each op looks the function up: the CLI row catches the error and
    # exits nonzero; the direct API calls raise.
    monkeypatch.setattr(cli, "info_complexity", _refuse)
    monkeypatch.setattr(complexity, "info_complexity", _refuse)
    monkeypatch.setattr(complexity, "top_eigenvalues", _refuse)
    sweep = "sweep:double_exp:E=100.0"
    assert failed_ids(one_pass("count_sweep", {sweep})) == [sweep]
    draws = {"draw:0", "draw:1"}
    assert failed_ids(one_pass("small_calls", draws)) == sorted(draws)
    topk = "topk:power_law-exp_power:K=1000:d=10"
    assert failed_ids(one_pass("spectrum_topk", {topk})) == [topk]


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric(workload, trace, section):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(want) | {"failed_frac"}


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _bench(["--workload", "small_calls", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
