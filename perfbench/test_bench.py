"""Smoke tests of the benchmark on B3/H3-sized inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def table_units(stdout: str) -> dict[str, str]:
    """Metric name -> unit from the human-readable tables."""
    rows = re.findall(r"^  (\S+)(?: \(\S+\))?\s+\S+ (\S+)$", stdout, re.M)
    return dict(rows)


def test_workloads_match_the_runner():
    assert WORKLOADS == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.REPORTED_LAYERS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = table_units(proc.stdout)
    assert printed["failed_frac"] == "ratio"
    assert printed["op_p50_ms"] == printed["op_p99_ms"] == "ms"
    for name, unit in declared.items():
        assert printed[name] == unit
    if trace:
        for name in list(bench.LAYER_FIELDS) + ["verify.other_s", "verify.unions_per_s"]:
            assert name in printed
        assert "self time by span name:" in proc.stdout


def test_wrong_expected_union_count_fails_the_run(capsys):
    sizes = dataclasses.replace(bench.SMOKE, union_counts={"B3": 136, "H3": 817})
    argv = ["--workload", "sweep-exhaustive", "--seed", "5", "--seconds", "0", "--trace", "0"]
    assert bench.main(argv, sizes=sizes) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_tracer_restores_the_library():
    from weakorder import scalar, verify

    before = (scalar.AlgebraicScalar.__mul__, verify._joins_for_chunk, verify.sweep)
    with Tracer().installed():
        assert verify.sweep is not before[2]
    assert (scalar.AlgebraicScalar.__mul__, verify._joins_for_chunk, verify.sweep) == before


def test_without_the_library_the_runner_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("pointwise", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
