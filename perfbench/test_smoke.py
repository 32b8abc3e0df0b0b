"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced, twice each, on a few tiny ops.
Each run must pass its output checks and print every metric that
BENCHMARK.json names, with its unit; runs with the same seed must give
identical counts.  A directory holding only the benchmark must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# quantities the report also prints, under names for solve or classify workloads
REPORTED = {"solve": {"starts_per_s": "1/s", "solve_s.gmean": "s"},
            "classify": {"tensors_per_s": "1/s", "classify_s.gmean": "s"}}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def printed(report, name, unit):
    return any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
               for line in report.splitlines())


def exact(result):
    """The parts of a result that must repeat exactly for a fixed seed."""
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] in ("count", "ratio") and k != "trace.overhead_share"}
    return result["correct"], result["attempted"], result["failed"], counts


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        (first, report), (second, _) = result_of(run(workload, trace)), result_of(run(workload, trace))
        assert first["correct"] is True and first["failed"] == 0 and first["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: m["unit"] for k, m in first["metrics"].items()} == units
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in first["metrics"].values())
            units.update(REPORTED["classify" if workload == "classify" else "solve"],
                         fail_share="ratio", miss_share="ratio")
        assert all(printed(report, name, unit) for name, unit in units.items())
        assert exact(first) == exact(second)


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("lowdeg", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
