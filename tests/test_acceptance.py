"""Acceptance suite: one test per numbered criterion, so `pytest -v` prints
one line per criterion. Oracles are imported from the per-module test files
to keep a single authoritative restatement of each rule."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from rare import bm25
from rare.cli import dispatch
from rare.data import ICExample
from rare.bench import LatencyReport, add_inc_factors, profile, timer_resolution
from rare.embedder import new_params
from rare.evaluation import evaluate, ndcg_at_k
from rare.prompt import FormatKind, PromptFormat, render_inst, render_inst_ic
from rare.retrieve import FlatIndex, build_flat_index, run_inference, search
from rare.synth import SynthSpec, generate
from rare.trainer import RenderedExample, SelectionPolicy, TrainConfig, batch_grads, train

from conftest import fd_grads, random_text
from test_bm25 import reference_top_k
from test_evaluation import reference_ndcg
from test_trainer import random_example

# Expected pipeline outputs on the default synthetic benchmark, frozen from a
# reference run. Training and evaluation are deterministic, so reproduction
# is exact up to float noise.
FROZEN = {
    "untrained_inst": 0.10180176149631423,
    "untrained_ic5": 0.5290366773554561,
    "initial_loss": 17.07604508396367,
    "final_loss": 6.217442360679975,
    "trained_inst": 0.4234772200457796,
    "trained_ic1": 0.7609094802950261,
    "trained_ic5": 0.8426782035215554,
    "trained_doc_only": 0.8270434621272459,
    "trained_queries_only": 0.5870880498295383,
    "random_by_seed": [0.1446617369889444, 0.0981747362255082, 0.13235426831060962],
    "random_avg": 0.1250635805083541,
}


@pytest.fixture(scope="module")
def mechanism():
    """Full pipeline on the default synthetic benchmark, run once and shared
    by criteria 6 through 9: untrained baselines, a Retrieved-selection
    training run, a Random-selection training run, and evaluations of every
    format variant the criteria compare."""
    t0 = time.perf_counter()
    bench = generate(SynthSpec())
    ic_index = bm25.build_index([ex.query for ex in bench.pool.examples])

    def score(params, kind, k, selection=SelectionPolicy.RETRIEVED, seed=0):
        idx = build_flat_index(bench.corpus, params)
        run = run_inference(
            bench.queries, "", bench.pool, ic_index, idx, params,
            PromptFormat(kind=kind), k=k, top_k=10, selection=selection, seed=seed,
        )
        return evaluate(run, bench.qrels, 10).mean

    out = {}
    untrained = new_params(seed=0)
    out["untrained_inst"] = score(untrained, FormatKind.INST, 0)
    out["untrained_ic5"] = score(untrained, FormatKind.INST_IC, 5)

    trained, history = train(bench.train_set, {"synth": bench.pool}, new_params(seed=0), TrainConfig())
    out["initial_loss"] = history[0]["mean_loss"]
    out["final_loss"] = history[-1]["mean_loss"]
    out["trained_inst"] = score(trained, FormatKind.INST, 0)
    out["trained_ic1"] = score(trained, FormatKind.INST_IC, 1)
    out["trained_ic5"] = score(trained, FormatKind.INST_IC, 5)
    out["trained_doc_only"] = score(trained, FormatKind.DOC_ONLY, 5)
    out["trained_queries_only"] = score(trained, FormatKind.QUERIES_ONLY, 5)
    out["retrieved_by_seed"] = [
        score(trained, FormatKind.INST_IC, 5, SelectionPolicy.RETRIEVED, seed=s) for s in (0, 1, 2)
    ]

    trained_rand, _ = train(
        bench.train_set, {"synth": bench.pool}, new_params(seed=0),
        TrainConfig(selection=SelectionPolicy.RANDOM),
    )
    out["random_by_seed"] = [
        score(trained_rand, FormatKind.INST_IC, 5, SelectionPolicy.RANDOM, seed=s) for s in (0, 1, 2)
    ]
    out["random_avg"] = sum(out["random_by_seed"]) / 3
    out["wall_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_01_bm25_oracle_equivalence(rng):
    """top_k_neighbors agrees ordinal-for-ordinal with brute-force Okapi
    scoring on 200 random pools (size <= 200, queries <= 10 tokens)."""
    for trial in range(200):
        pool_size = rng.randint(1, 200)
        index = bm25.build_index([random_text(rng) for _ in range(pool_size)])
        query = random_text(rng, max_tokens=10)
        k = rng.randint(1, 12)
        exclude = rng.randrange(pool_size) if rng.random() < 0.3 else None
        got = bm25.top_k_neighbors(index, query, k, exclude=exclude)
        want = reference_top_k(index, query, k, exclude=exclude)
        assert [o for o, _ in got] == [o for o, _ in want]


def test_criterion_02_ndcg_oracle_equivalence(rng):
    """ndcg_at_k agrees with a direct transcription of the definition on 500
    random instances (<= 20 docs, grades <= 3) within 1e-9, plus the hand
    case of one relevant document at rank two."""
    hand = ndcg_at_k([("d2", 0.9), ("d1", 0.8)], {"d1": 1}, 10)
    assert hand == pytest.approx(1.0 / math.log2(3.0), abs=1e-9)
    for trial in range(500):
        n = rng.randint(1, 20)
        ids = [f"d{i}" for i in range(n)]
        rng.shuffle(ids)
        ranked = [(doc_id, 1.0 - rank * 0.01) for rank, doc_id in enumerate(ids)]
        judged = {doc_id: rng.randint(0, 3) for doc_id in rng.sample(ids, rng.randint(0, n))}
        got = ndcg_at_k(ranked, judged, 10)
        want = reference_ndcg(ids, judged, 10)
        assert abs(got - want) < 1e-9


def test_criterion_03_flat_search_oracle_equivalence():
    """search returns exactly the prefix of a full sort by (score desc,
    doc id asc) on 100 random indexes with up to 500 rows."""
    nprng = np.random.default_rng(20240817)
    for trial in range(100):
        n = int(nprng.integers(1, 501))
        dim = int(nprng.integers(2, 17))
        matrix = nprng.standard_normal((n, dim))
        if n > 1 and trial % 3 == 0:
            matrix[0] = matrix[-1]  # force at least one exact score tie
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        ids = [f"d{i:04d}" for i in range(n)]
        index = FlatIndex(ids=ids, matrix=matrix, dim=dim)
        q = nprng.standard_normal(dim)
        q /= np.linalg.norm(q)
        k = int(nprng.integers(1, 20))
        got = search(index, q, k)
        scores = matrix @ q
        want = sorted(zip(ids, scores.tolist()), key=lambda p: (-p[1], p[0]))[: min(k, n)]
        assert got == want


def test_criterion_04_gradient_correctness(rng):
    """batch_grads matches central finite differences (h = 1e-5) entrywise
    with relative error < 1e-4 on 50 random batches, and the uniform
    similarity case (all-zero embeddings) returns ln(M) exactly."""
    for batch_size, n_candidates in ((1, 2), (4, 5)):
        batch = [
            RenderedExample(query="", positive=f"pos {i}", negative=f"neg {i}")
            for i in range(batch_size)
        ]
        result = batch_grads(batch, new_params(hash_dim=256, embed_dim=16, seed=1), TrainConfig())
        assert result.value == pytest.approx(math.log(n_candidates), abs=1e-9)

    for trial in range(50):
        params = new_params(
            hash_dim=rng.randint(16, 256),
            embed_dim=rng.randint(2, 16),
            ngram_orders=(1, 2),
            seed=trial,
        )
        batch = [random_example(rng, with_negative=rng.random() < 0.7) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            batch.append(batch[0])
        config = TrainConfig(
            temperature=rng.uniform(0.05, 0.5),
            use_hard_negative=rng.random() < 0.8,
            include_batch_hard_negatives=rng.random() < 0.4,
            dedupe_in_batch=rng.random() < 0.8,
        )
        analytic = batch_grads(batch, params, config).grads
        numeric = fd_grads(batch, params, config, h=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        assert float(rel.max()) < 1e-4


def test_criterion_05_prompt_golden_strings():
    """Byte-exact renderings for all seven formats, zero-example degeneracy,
    shuffle multiset preservation, and bracketed rendering."""
    two = [ICExample(query="a", positive="b", negative="nb"), ICExample(query="c", positive="d", negative="nd")]
    four = [ICExample(query=f"q{i}", positive=f"p{i}") for i in range(4)]

    def render(kind, examples, target, bracket=False, seed=0):
        return render_inst_ic("T", examples, target, PromptFormat(kind=kind, bracket_queries=bracket, shuffle_seed=seed)).text

    assert render_inst("T", "q").text == "Instruct: T ; Query: q"
    assert render(FormatKind.INST, two, "e") == "Instruct: T ; Query: e"
    assert render(FormatKind.INST_IC, two, "e") == (
        "Instruct: T ; Query: a ; Document: b ; Query: c ; Document: d ; Query: e"
    )
    assert render(FormatKind.INST_IC_NEG, two[:1], "c") == (
        "Instruct: T ; Query: a ; Positive Document: b ; Negative Document: nb ; Query: c"
    )
    assert render(FormatKind.QUERIES_ONLY, two, "e") == "Instruct: T ; Query: a ; Query: c ; Query: e"
    assert render(FormatKind.DOC_ONLY, two, "e") == "Instruct: T ; Document: b ; Document: d ; Query: e"
    assert render(FormatKind.SHUFFLE_C, four, "tq") == (
        "Instruct: T ; Query: q0 ; Document: p2 ; Query: q1 ; Document: p0 ; "
        "Query: q2 ; Document: p1 ; Query: q3 ; Document: p3 ; Query: tq"
    )
    assert render(FormatKind.SHUFFLE_NC, four, "tq") == (
        "Instruct: T ; Query: q2 ; Document: p0 ; Document: p2 ; Query: q1 ; "
        "Query: q0 ; Document: p1 ; Document: p3 ; Query: q3 ; Query: tq"
    )

    # k = 0 collapses every format to the plain instruction rendering.
    plain = render_inst("T", "q").text
    for kind in FormatKind:
        assert render(kind, [], "q") == plain

    # Shuffle-C keeps query slots fixed and permutes documents as a multiset.
    shuffled = render(FormatKind.SHUFFLE_C, four, "tq", seed=7)
    segments = shuffled.split(" ; ")
    assert segments[1:-1:2] == [f"Query: q{i}" for i in range(4)]
    assert sorted(segments[2:-1:2]) == sorted(f"Document: p{i}" for i in range(4))

    assert render(FormatKind.INST_IC, two[:1], "c", bracket=True) == (
        "Instruct: T ; Query: [a] ; Document: b ; Query: [c]"
    )


def test_criterion_06_mechanism_reproduction(mechanism):
    """On the default synthetic benchmark, training with the in-context
    mixture lifts InstIC nDCG@10 over the Inst rendering of the same model
    by >= 0.05 and over the untrained baseline by >= 0.10; exact values
    match the frozen reference run."""
    spec = SynthSpec()
    assert (spec.n_clusters, spec.query_ambiguity, spec.seed) == (8, 0.8, 7)
    config = TrainConfig()
    assert (config.ic_mixture, config.k, config.selection) == (0.7, 5, SelectionPolicy.RETRIEVED)

    assert mechanism["final_loss"] < mechanism["initial_loss"]
    assert mechanism["trained_ic5"] - mechanism["trained_inst"] >= 0.05
    untrained_best = max(mechanism["untrained_inst"], mechanism["untrained_ic5"])
    assert mechanism["trained_ic5"] - untrained_best >= 0.10

    for key, frozen in FROZEN.items():
        assert mechanism[key] == pytest.approx(frozen, abs=1e-12), key
    assert mechanism["wall_seconds"] < 120.0


def test_criterion_07_retrieved_beats_random(mechanism):
    """Retrieved-selection training and inference beats Random selection by
    >= 0.03 mean nDCG@10, averaged over three evaluation seeds."""
    assert all(s == mechanism["retrieved_by_seed"][0] for s in mechanism["retrieved_by_seed"])
    retrieved_avg = sum(mechanism["retrieved_by_seed"]) / 3
    assert retrieved_avg >= mechanism["random_avg"] + 0.03


def test_criterion_08_doc_only_beats_queries_only(mechanism):
    """Example documents carry the disambiguating signal, so dropping the
    example queries hurts less than dropping the documents."""
    assert mechanism["trained_doc_only"] >= mechanism["trained_queries_only"]


def test_criterion_09_k_sweep_monotone(mechanism):
    """More in-context examples never hurt on this benchmark: k=5 >= k=1 >=
    k=0 (the k=0 rendering is exactly the Inst format)."""
    assert mechanism["trained_ic5"] >= mechanism["trained_ic1"]
    assert mechanism["trained_ic1"] >= mechanism["trained_inst"]


def test_criterion_10_latency_report_structure():
    """Stage timings add up to the total, the inst setting does zero neighbor
    work, in-context queries are longer, search cost is setting-independent,
    and the increase factor is the plain total ratio."""
    # A larger corpus keeps the search stage dominated by scoring work
    # rather than per-call overhead, so the ratio check is stable.
    bench_data = generate(SynthSpec(docs_per_cluster=160))
    params = new_params(seed=0)
    index = build_flat_index(bench_data.corpus, params)
    ic_index = bm25.build_index([ex.query for ex in bench_data.pool.examples])
    inst = profile("synth", bench_data.queries, "", None, None, index, params,
                   FormatKind.INST, k=5, repetitions=5)
    inst_ic = profile("synth", bench_data.queries, "", bench_data.pool, ic_index, index, params,
                      FormatKind.INST_IC, k=5, repetitions=5)

    tolerance = 2.0 * timer_resolution() * 3.0
    for report in (inst, inst_ic):
        assert abs(report.total_s - (report.nn_s + report.query_s + report.search_s)) <= tolerance
        assert min(report.nn_s, report.query_s, report.search_s) >= 0.0
    assert inst.nn_s == 0.0
    assert inst_ic.nn_s > 0.0
    assert inst_ic.avg_q_len > inst.avg_q_len
    assert 0.5 <= inst_ic.search_s / inst.search_s <= 2.0

    rows = [
        LatencyReport(dataset="x", n_corpus=1, setting="inst", avg_q_len=1.0,
                      nn_s=0.0, query_s=0.0, search_s=0.0, total_s=3.84),
        LatencyReport(dataset="x", n_corpus=1, setting="inst+ic", avg_q_len=1.0,
                      nn_s=0.0, query_s=0.0, search_s=0.0, total_s=153.76),
    ]
    add_inc_factors(rows)
    assert round(rows[1].inc_factor, 2) == 40.04


def test_criterion_11_cli_determinism(tmp_path):
    """synth -> train -> index -> search -> eval twice with fixed seeds gives
    bit-identical models, runs, and reports in single-threaded mode."""
    outputs = []
    for name in ("first", "second"):
        root = tmp_path / name
        synth_dir = root / "data"
        model = root / "model.rare"
        index = root / "index.rfi"
        run = root / "run.trec"
        report = root / "report.json"
        steps = [
            ["synth", "--out", str(synth_dir), "--clusters", "3", "--vocab-per-cluster", "16",
             "--shared-vocab", "12", "--docs", "6", "--queries", "3", "--seed", "5"],
            ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
             "--k", "2", "--epochs", "2", "--batch", "16", "--hash-dim", "2048", "--dim", "16",
             "--out", str(model)],
            ["index", "--corpus", str(synth_dir / "corpus.jsonl"), "--model", str(model),
             "--out", str(index)],
            ["search", "--index", str(index), "--model", str(model),
             "--queries", str(synth_dir / "queries.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
             "--task", "synth", "--k", "2", "--out", str(run)],
            ["eval", "--run", str(run), "--qrels", str(synth_dir / "qrels.tsv"), "--out", str(report)],
        ]
        for argv in steps:
            assert dispatch(argv) == 0, f"step failed: {argv[0]}"
        outputs.append((model.read_bytes(), run.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
