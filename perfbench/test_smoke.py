"""Smoke test of the benchmark itself, at tiny scale.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench -q

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, that the output check goes red on a tampered result or
a simulation past the timeout, and that the benchmark refuses to run
without the simulator's sources.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_contract_names_every_workload_and_metric():
    import bench

    doc = _contract()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, proc.stderr
    assert doc["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in _contract()[section]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if section == "end_to_end":
            assert m["value"] > 0, name


@pytest.mark.parametrize("seed", ["1", "2"])
def test_output_check_goes_red_on_a_tampered_result(monkeypatch, seed):
    """At the default seed the reference digest catches it; at any seed a
    repeat that differs from the first answer does."""
    from repro.experiments import runner

    calls = {"n": 0}
    run_spec = runner.run_spec

    def every_other(spec):
        calls["n"] += 1
        result = run_spec(spec)
        if seed == "1" or calls["n"] % 2 == 0:
            result.cycles += 1
        return result

    monkeypatch.setattr(runner, "run_spec", every_other)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "detailed-compute", "--seed", seed,
                         "--seconds", "0", "--trace", "1", "--scale", "tiny"])
    assert code == 0
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] >= 1


def test_a_simulation_past_the_timeout_is_stopped_and_counted(monkeypatch):
    import sim
    from repro.experiments import runner

    calls = {"n": 0}
    run_spec = runner.run_spec

    def second_hangs(spec):
        calls["n"] += 1
        if calls["n"] == 2:
            time.sleep(60)
        return run_spec(spec)

    monkeypatch.setattr(runner, "run_spec", second_hangs)
    monkeypatch.setattr(sim, "OP_TIMEOUT", 0.5)
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        code = run.main(["--workload", "detailed-compute", "--seed", "2",
                         "--seconds", "0", "--trace", "0", "--scale", "tiny"])
    assert code == 0
    assert time.perf_counter() - t0 < 30
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] == 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "detailed-mem", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
