"""Smoke test of the benchmark harness at tiny scale. Asserts no timing bound.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--scale", "tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [l for l in lines if l.startswith("check failed")]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"metric {m['name']}=" in res.stdout


def test_inputs_are_a_function_of_the_seed(tmp_path):
    sys.path.insert(0, str(BENCH))
    from gen import generate
    from workloads import WORKLOADS as defined

    shape = defined["embed-sim"].tiny
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        generate(tmp_path / name, seed, shape, embeddings=True)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["test_bodies.csv", "test_stances.csv", "train_bodies.csv",
                     "train_stances.csv", "vectors.txt"]
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "train_bodies.csv").read_bytes() != (
        tmp_path / "c" / "train_bodies.csv").read_bytes()


def test_library_api_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from replay import LIBRARY_API

    for dotted in LIBRARY_API:
        module, _, name = dotted.rpartition(".")
        assert hasattr(importlib.import_module(module), name), dotted


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""
