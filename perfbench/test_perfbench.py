"""Self-test of the benchmark harness.

Runs every workload briefly, untraced and traced, on a seed that was not
used while the benchmark was tuned, and checks the output contract.  Also
checks that set-up is a pure function of the seed and that the benchmark
refuses to run without the package source.  Takes a few minutes:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 90210


def bench(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_last_line_follows_the_contract(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_setup_depends_only_on_the_seed(tmp_path):
    files = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        subprocess.run(
            [sys.executable, "perfbench/worker.py", "--mode", "setup", "--workload",
             "desk_cli", "--seed", str(SEED), "--seconds", "1", "--workdir", str(workdir),
             "--result", str(tmp_path / f"{run}.json")],
            cwd=ROOT, check=True, timeout=120)
        files.append({p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()})
    assert files[0] and files[0] == files[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "fit_batch", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
