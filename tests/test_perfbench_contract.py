"""The names the committed benchmark reaches into src for.

`perfbench/tracer.py` rebinds module attributes of `rare` by name, and
`perfbench/oracle.py` builds its own BM25 index and calls
`rare.trainer.select_examples` positionally. The benchmark's own smoke test
is slow and outside testpaths, so this checks both in fresh interpreters: a
rename under src, a change to the BM25 index the oracle cannot use, or a
training path that stops calling the wrapped names (which zeroes the
per-layer metrics without an error), fails here first. So does an index
build that stops projecting one document at a time or counting its gram
lookups, and a search that stops embedding (with one projection) and
searching one query at a time, which `layers.paper_view` needs to rebuild
the paper's NN / Query / Search table.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from rare.bm25 import tokenize
from rare.cli import dispatch
from rare.data import load_corpus, load_queries
from rare.embedder import load
from rare.retrieve import document_text

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


def test_traced_train_reports_its_layers(tmp_path):
    data, spans_file = tmp_path / "data", tmp_path / "spans.json"
    assert dispatch(["synth", "--out", str(data), *SMOKE_SYNTH]) == 0
    train = ["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
             "--epochs", "1", "--hash-dim", "2048", "--dim", "16", "--out", str(tmp_path / "model.rare")]
    result = run_child([str(ROOT / "perfbench" / "tracer.py"), str(spans_file), "--", *train])
    assert result.returncode == 0, result.stderr
    traced = json.loads(spans_file.read_text())
    spans = traced["spans"]
    # The trainer embeds through the wrapped featurize and project, inside batch_grads.
    under_grads = {name for name, _, _, parent, _ in spans
                   if parent >= 0 and spans[parent][0] == "trainer.batch_grads"}
    assert {"embedder.featurize", "embedder.project"} <= under_grads
    assert traced["bucket_hits"] + traced["bucket_misses"] > 0
    assert traced["bucket_hits"] > 0
    assert traced["bucket_misses"] > 0


def traced(argv: list[str], spans_file: Path) -> dict:
    result = run_child([str(ROOT / "perfbench" / "tracer.py"), str(spans_file), "--", *argv])
    assert result.returncode == 0, result.stderr
    return json.loads(spans_file.read_text())


def smoke_model(tmp_path: Path) -> tuple[Path, Path]:
    data, model = tmp_path / "data", tmp_path / "model.rare"
    assert dispatch(["synth", "--out", str(data), *SMOKE_SYNTH]) == 0
    assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                     "--epochs", "0", "--hash-dim", "2048", "--dim", "16", "--out", str(model)]) == 0
    return data, model


def test_traced_index_projects_each_document_and_counts_each_gram(tmp_path):
    data, model = smoke_model(tmp_path)
    index = ["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(model), "--out", str(tmp_path / "i.rfi")]
    trace = traced(index, tmp_path / "spans.json")
    spans = trace["spans"]
    build = [i for i, span in enumerate(spans) if span[0] == "retrieve.build_flat_index"]
    assert len(build) == 1
    projects = [span for span in spans if span[0] == "embedder.project" and span[3] == build[0]]
    corpus = load_corpus(data / "corpus.jsonl")
    assert len(projects) == len(corpus)
    # Each gram of each document is looked up once; bucket_hit_rate rests on this.
    orders = load(model).ngram_orders
    grams = sum(max(len(tokenize(document_text(doc))) - n + 1, 0) for doc in corpus.values() for n in orders)
    assert trace["bucket_hits"] + trace["bucket_misses"] == grams


def test_traced_index_over_workers_projects_each_document_and_counts_each_gram(tmp_path):
    # 1,280 documents are five ranges of `_TASK_TEXTS`: with two usable CPUs
    # they are featurized in forked workers, whose gram counts must reach the
    # traced process, while every project span stays in it.
    data, model = tmp_path / "data", tmp_path / "model.rare"
    assert dispatch(["synth", "--out", str(data), "--clusters", "8", "--docs", "160", "--seed", "7"]) == 0
    assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                     "--epochs", "0", "--hash-dim", "2048", "--dim", "16", "--out", str(model)]) == 0
    index = ["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(model), "--out", str(tmp_path / "i.rfi")]
    trace = traced(index, tmp_path / "spans.json")
    spans = trace["spans"]
    build = [i for i, span in enumerate(spans) if span[0] == "retrieve.build_flat_index"]
    assert len(build) == 1
    projects = [span for span in spans if span[0] == "embedder.project" and span[3] == build[0]]
    corpus = load_corpus(data / "corpus.jsonl")
    assert len(corpus) == 1280
    assert len(projects) == len(corpus)
    orders = load(model).ngram_orders
    grams = sum(max(len(tokenize(document_text(doc))) - n + 1, 0) for doc in corpus.values() for n in orders)
    assert trace["bucket_hits"] + trace["bucket_misses"] == grams


def test_traced_search_gives_the_paper_view_one_row_per_query(tmp_path):
    data, model = smoke_model(tmp_path)
    index = tmp_path / "i.rfi"
    assert dispatch(["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(model), "--out", str(index)]) == 0
    search = ["search", "--index", str(index), "--model", str(model), "--queries", str(data / "queries.jsonl"),
              "--pool", str(data / "pool.jsonl"), "--task", "synth", "--format", "inst+ic", "--k", "5",
              "--out", str(tmp_path / "run.trec")]
    trace = traced(search, tmp_path / "spans.json")
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    view = layers.paper_view([trace])
    n_queries = len(load_queries(data / "queries.jsonl"))
    assert len(view["nn"]) == n_queries
    assert all(nn > 0 for nn in view["nn"])
    # Each query embed holds exactly one project span, which
    # embedder.zero_embeddings counts, and featurizes nothing.
    spans = trace["spans"]
    embeds = [i for i, span in enumerate(spans) if span[0] == "embedder.embed"]
    assert len(embeds) == n_queries
    for i in embeds:
        children = [span[0] for span in spans if span[3] == i]
        assert children == ["embedder.project"], children
