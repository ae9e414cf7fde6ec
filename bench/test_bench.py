"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted reference value turns ops into failures, and that the benchmark
refuses to run without the sources. Runs each workload briefly (about three
minutes on two cores).
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_corrupted_reference_turns_ops_into_failures():
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["canary"]["V"] *= 1 + 1e-6  # far above the 1e-9 tolerance
    law = reference["laws"]["f3_g2_R40000_n1000"]["0.95"]
    law[0] += 10 * law[1]  # test quantile off by 10 standard errors
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        path = Path(tmp) / "reference.json"
        path.write_text(json.dumps(reference))
        result = _result(_run("pivot_cold", 0, "--reference", str(path)))
    assert not result["correct"]
    # every canary (the run's own and each set-up probe's) and both reports of each round
    assert result["failed"] >= 1 + 2 + 2
    assert result["failed"] < result["attempted"]  # the joint op still passes


def test_refuses_to_run_without_sources():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run("spectral_large", 0, cwd=Path(tmp))
    assert done.returncode != 0
    assert not done.stdout.strip()
