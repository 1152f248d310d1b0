"""The benchmark's own checks, on ``--quick`` runs.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(HERE))


def run_quick(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, cwd=cwd)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better, samples = line.split(" ", 6)[:6]
            printed[name] = (float(value), unit, better, int(samples[len("n="):]))
    return result, printed


@pytest.fixture(scope="module")
def runs():
    """Quick runs of every workload: untraced, and traced twice (same seed)."""
    return {
        (workload, trace, repeat): parse(run_quick(workload, trace))
        for workload in WORKLOADS
        for trace, repeat in ((0, 0), (1, 0), (1, 1))
    }


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(runs, workload, trace):
    result, printed = runs[(workload, trace, 0)]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted == {"value": emitted["value"], "unit": metric["unit"]}
        value, unit, better, samples = printed[metric["name"]]
        assert (value, unit, better) == (emitted["value"], metric["unit"], metric["better"])
        if not trace:
            assert samples >= 1 and value > 0
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(runs, workload):
    counted = re.compile(r"(\.applied|\.ops|\.nodes|^kernels_with_maps|^cache\.hit_ratio)$")
    first = runs[(workload, 1, 0)][0]["metrics"]
    second = runs[(workload, 1, 1)][0]["metrics"]
    names = [name for name in first if counted.search(name)]
    assert len(names) == 13 + 5 + 1
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


def test_layers_each_workload_enters(runs):
    layer = {w: runs[(w, 1, 0)][0]["metrics"] for w in WORKLOADS}
    assert layer["compile-cold"]["frontend.s"]["value"] > 0
    assert layer["compile-cold"]["cc.s"]["value"] == 0
    assert layer["native-large"]["cc.s"]["value"] > 0
    assert layer["native-large"]["run.s"]["value"] > 0
    assert layer["py-cached"]["frontend_py.s"]["value"] > 0
    assert layer["py-cached"]["cache.hit_ratio"]["value"] == 0.75
    for workload in WORKLOADS:
        assert layer[workload]["trace_overhead"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_quick(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_statistics():
    from harness import agrees, geomean, percentile

    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1.0, 2.0, float("inf")], 90) == float("inf")
    assert abs(geomean([1, 4]) - 2) < 1e-12
    assert geomean([1, float("inf")]) == float("inf")
    assert agrees(1.0, 1.0 + 1e-12) and not agrees(1.0, 1.0001)
    assert not agrees(float("nan"), float("nan"))
