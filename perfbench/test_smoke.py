"""Smoke test of the benchmark harness at criterion-11 size (3 clusters x 6 docs).

    python -m pytest -q perfbench/test_smoke.py

Runs every workload's command sequence untraced and traced, with all output
checks, plus the paper-table view, in a temporary directory. Also checks
that the oracle rejects a tampered run file and that the benchmark fails
without printing a result when the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# serve-inst-L is not in BENCHMARK.json but stays runnable (and feeds --paper-table).
ALL_WORKLOADS = sorted({*WORKLOADS, "serve-inst-L"})


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_passes_its_checks(tmp_path, workload, trace):
    proc = _bench(str(BENCH / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "4",
                  "--trace", str(trace), "--size", "smoke", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_paper_table(tmp_path):
    proc = _bench(str(BENCH / "run.py"), "--paper-table", "--seed", "5", "--size", "smoke",
                  "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("serve-")]
    assert [r[0] for r in rows] == ["serve-inst-L", "serve-ic-L"]
    assert rows[0][-1] == "1.00x" and float(rows[1][1]) > 0.0  # NN is zero only without examples


def test_oracle_rejects_a_tampered_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def rare(*args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "rare.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    rare("synth", "--out", "data", "--clusters", "3", "--vocab-per-cluster", "16", "--shared-vocab", "12",
         "--docs", "6", "--queries", "3", "--seed", "5")
    rare("train", "--data", "data/train.jsonl", "--pool", "data/pool.jsonl", "--epochs", "0",
         "--hash-dim", "2048", "--dim", "16", "--out", "model.rare")
    rare("index", "--corpus", "data/corpus.jsonl", "--model", "model.rare", "--out", "index.rfi")
    rare("search", "--index", "index.rfi", "--model", "model.rare", "--queries", "data/queries.jsonl",
         "--pool", "data/pool.jsonl", "--format", "inst+ic", "--k", "2", "--out", "run.trec")
    oracle = [str(BENCH / "oracle.py"), "--index", "index.rfi", "--model", "model.rare",
              "--queries", "data/queries.jsonl", "--pool", "data/pool.jsonl", "--run", "run.trec",
              "--format", "inst+ic", "--k", "2", "--sample", "9"]
    run = tmp_path / "run.trec"
    assert subprocess.run([sys.executable, *oracle], cwd=tmp_path, env=env, timeout=60).returncode == 0
    lines = run.read_text().splitlines()
    first, second = lines[0].split(), lines[1].split()
    first[2], second[2] = second[2], first[2]  # swap the top two documents of the first query
    run.write_text("\n".join([" ".join(first), " ".join(second), *lines[2:]]) + "\n")
    assert subprocess.run([sys.executable, *oracle], cwd=tmp_path, env=env, timeout=60).returncode == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(*SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail(list(range(1, 101))) == (90, 90.0, 100)
    assert layers.tail(list(range(1, 10001))) == (9990, 99.9, 10000)
    assert layers.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_self_time_subtracts_the_union_of_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 3.0, 5.0, 0, None]]
    assert layers.self_time(spans, {0: [1, 2]}, 0) == pytest.approx(6.0)
