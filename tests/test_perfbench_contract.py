"""The names the committed benchmark reaches into src for.

`perfbench/tracer.py` rebinds module attributes of `rare` by name, and
`perfbench/oracle.py` builds its own BM25 index and calls
`rare.trainer.select_examples` positionally. The benchmark's own smoke test
is slow and outside testpaths, so this checks both in fresh interpreters: a
rename under src, or a change to the BM25 index the oracle cannot use, fails
here first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from rare.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import inspect, json, sys
sys.path.insert(0, "perfbench")
import tracer
tracer.install(tracer.Tracer())
import oracle
from rare import trainer
print(json.dumps(list(inspect.signature(trainer.select_examples).parameters)))
"""


SMOKE_SYNTH = ["--clusters", "3", "--vocab-per-cluster", "16", "--shared-vocab", "12",
               "--docs", "6", "--queries", "3", "--seed", "7"]


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_tracer_installs_and_oracle_imports():
    result = run_child(["-c", CHILD])
    assert result.returncode == 0, result.stderr
    params = json.loads(result.stdout.strip().splitlines()[-1])
    assert params == ["pool", "index", "query", "k", "policy", "rng"]


def test_oracle_accepts_search_run(tmp_path):
    data = tmp_path / "data"
    model, index, run = tmp_path / "model.rare", tmp_path / "index.rfi", tmp_path / "run.trec"
    steps = [
        ["synth", "--out", str(data), *SMOKE_SYNTH],
        ["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
         "--epochs", "0", "--hash-dim", "2048", "--dim", "16", "--out", str(model)],
        ["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(model), "--out", str(index)],
        ["search", "--index", str(index), "--model", str(model), "--queries", str(data / "queries.jsonl"),
         "--pool", str(data / "pool.jsonl"), "--task", "synth", "--format", "inst+ic", "--k", "5",
         "--out", str(run)],
    ]
    for argv in steps:
        assert dispatch(argv) == 0, argv[0]
    oracle = [str(ROOT / "perfbench" / "oracle.py"), "--index", str(index), "--model", str(model),
              "--queries", str(data / "queries.jsonl"), "--run", str(run), "--format", "inst+ic",
              "--k", "5", "--pool", str(data / "pool.jsonl"), "--sample", "20", "--seed", "7"]
    result = run_child(oracle)
    assert result.returncode == 0, result.stderr

    # The oracle is not vacuous: swapping a query's first two documents fails it.
    lines = run.read_text(encoding="utf-8").splitlines()
    first, second = lines[0].split(), lines[1].split()
    first[2], second[2] = second[2], first[2]
    run.write_text("\n".join([" ".join(first), " ".join(second), *lines[2:]]) + "\n", encoding="utf-8")
    assert run_child(oracle).returncode == 1
