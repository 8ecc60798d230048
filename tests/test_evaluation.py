"""nDCG@K against a brute-force oracle, report aggregation, ablation tables
and Score@Top-1 bucketing."""

from __future__ import annotations

import csv
import math

import pytest

from rare.data import Document, ExamplePool, ICExample, QRels, Query
from rare.embedder import new_params
from rare.errors import SpecInvalid
from rare.evaluation import (
    AblationCell,
    AblationTable,
    DatasetBundle,
    EvalReport,
    ScoreBucket,
    ablate,
    evaluate,
    ndcg_at_k,
    score_at_top1,
    write_ablation_csv,
)
from rare.prompt import FormatKind, PromptFormat
from rare.trainer import SelectionPolicy


def reference_ndcg(ranked_ids, judged, k):
    """Direct transcription of the definition: DCG over the top k ranks with
    gain 2^grade - 1 and discount 1/log2(rank + 1), normalized by the DCG of
    the best possible ordering of the judged grades."""
    dcg = 0.0
    for rank, doc_id in enumerate(ranked_ids[:k], start=1):
        grade = judged.get(doc_id, 0)
        dcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)
    idcg = 0.0
    for rank, grade in enumerate(ideal[:k], start=1):
        idcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    return dcg / idcg if idcg > 0 else 0.0


def ranked(*ids):
    return [(doc_id, 1.0 - i * 0.01) for i, doc_id in enumerate(ids)]


class TestNdcgAtK:
    def test_perfect_single_relevant(self):
        assert abs(ndcg_at_k(ranked("d1", "d2"), {"d1": 1}, 10) - 1.0) < 1e-12

    def test_relevant_at_rank_two(self):
        # One relevant doc placed second: DCG = 1/log2(3), IDCG = 1.
        got = ndcg_at_k(ranked("d2", "d1"), {"d1": 1}, 10)
        assert abs(got - 1.0 / math.log2(3)) < 1e-9
        assert abs(got - 0.6309297535714574) < 1e-9

    def test_graded_hand_case(self):
        # grades 2 and 1, returned in the wrong order.
        judged = {"a": 1, "b": 2}
        got = ndcg_at_k(ranked("a", "b"), judged, 10)
        dcg = 1.0 / math.log2(2) + 3.0 / math.log2(3)
        idcg = 3.0 / math.log2(2) + 1.0 / math.log2(3)
        assert abs(got - dcg / idcg) < 1e-12

    def test_no_relevant_judged_returns_zero(self):
        assert ndcg_at_k(ranked("d1"), {}, 10) == 0.0
        assert ndcg_at_k(ranked("d1"), {"d1": 0}, 10) == 0.0

    def test_cutoff_applies_to_both_dcg_and_idcg(self):
        # Two relevant docs but k=1: only the first rank counts on both sides.
        judged = {"a": 1, "b": 1}
        assert abs(ndcg_at_k(ranked("a", "b"), judged, 1) - 1.0) < 1e-12
        assert ndcg_at_k(ranked("x", "a"), judged, 1) == 0.0

    def test_unjudged_documents_are_ignored(self):
        judged = {"a": 1}
        with_noise = ndcg_at_k(ranked("z1", "a", "z2"), judged, 10)
        assert abs(with_noise - 1.0 / math.log2(3)) < 1e-12

    def test_score_values_do_not_matter_given_order(self, rng):
        judged = {"a": 2, "b": 1}
        ids = ["c", "a", "d", "b"]
        base = ndcg_at_k([(i, 0.0) for i in ids], judged, 10)
        noisy = ndcg_at_k([(i, rng.random()) for i in ids], judged, 10)
        assert base == noisy

    def test_in_unit_interval_and_monotone_under_promotion(self, rng):
        # Swapping a relevant doc one place up never lowers nDCG.
        for _ in range(50):
            n = rng.randint(2, 15)
            ids = [f"d{i}" for i in range(n)]
            rng.shuffle(ids)
            judged = {f"d{i}": rng.randint(0, 3) for i in range(n) if rng.random() < 0.5}
            k = rng.randint(1, 12)
            value = ndcg_at_k([(i, 0.0) for i in ids], judged, k)
            assert 0.0 <= value <= 1.0 + 1e-12
            pos = rng.randrange(1, n)
            if judged.get(ids[pos], 0) > judged.get(ids[pos - 1], 0):
                promoted = ids[:]
                promoted[pos - 1], promoted[pos] = promoted[pos], promoted[pos - 1]
                assert ndcg_at_k([(i, 0.0) for i in promoted], judged, k) >= value - 1e-12

    def test_against_reference_on_random_instances(self, rng):
        for _ in range(500):
            n_docs = rng.randint(1, 20)
            ids = [f"d{i}" for i in range(n_docs)]
            rng.shuffle(ids)
            judged = {f"d{i}": rng.randint(0, 3) for i in range(n_docs) if rng.random() < 0.6}
            k = rng.randint(1, 15)
            got = ndcg_at_k([(i, 0.0) for i in ids], judged, k)
            assert abs(got - reference_ndcg(ids, judged, k)) < 1e-9


class TestEvaluate:
    def test_hand_scored_fixture(self):
        run = {
            "q1": ranked("d1", "d2"),   # relevant first -> 1.0
            "q2": ranked("d2", "d1"),   # relevant second -> 1/log2(3)
            "q3": ranked("d9"),          # no relevant docs judged
        }
        qrels = QRels(judgments={"q1": {"d1": 1}, "q2": {"d1": 1}, "q3": {"d9": 0}})
        report = evaluate(run, qrels, k=10, dataset="toy")
        assert report.dataset == "toy"
        assert report.zero_relevant == ["q3"]
        assert report.n_evaluated == 2
        expected = (1.0 + 1.0 / math.log2(3)) / 2
        assert abs(report.mean - expected) < 1e-12

    def test_empty_run(self):
        report = evaluate({}, QRels(judgments={}), k=10)
        assert report.mean is None
        assert report.n_evaluated == 0

    def test_all_zero_relevant(self):
        report = evaluate({"q1": ranked("d1")}, QRels(judgments={}), k=10)
        assert report.mean is None
        assert report.per_query == {"q1": 0.0}
        assert report.zero_relevant == ["q1"]

    def test_mean_independent_of_run_order(self, rng):
        qids = [f"q{i}" for i in range(40)]
        run = {}
        judgments = {}
        for qid in qids:
            ids = [f"{qid}-d{i}" for i in range(8)]
            rng.shuffle(ids)
            run[qid] = [(i, 0.0) for i in ids]
            judgments[qid] = {f"{qid}-d{rng.randrange(8)}": rng.randint(1, 3)}
        shuffled = list(run.items())
        rng.shuffle(shuffled)
        a = evaluate(run, QRels(judgments=judgments), k=5)
        b = evaluate(dict(shuffled), QRels(judgments=judgments), k=5)
        assert a.mean == b.mean

    def test_mean_matches_fsum_oracle(self, rng):
        run = {}
        judgments = {}
        for i in range(25):
            qid = f"q{i}"
            run[qid] = ranked(f"d{i}a", f"d{i}b")
            judgments[qid] = {f"d{i}b": 1}
        report = evaluate(run, QRels(judgments=judgments), k=10)
        values = [report.per_query[q] for q in sorted(run)]
        assert report.mean == math.fsum(values) / len(values)

    def test_fingerprint_carried(self):
        report = evaluate({}, QRels(judgments={}), k=10, fingerprint="abc123")
        assert report.fingerprint == "abc123"


def toy_bundle(name="toy"):
    corpus = {
        "fruit1": Document(id="fruit1", title="", text="apple banana cherry nectar"),
        "sky1": Document(id="sky1", title="", text="cloud frost zephyr lunar"),
    }
    queries = [Query(id="q1", text="apple banana"), Query(id="q2", text="cloud frost")]
    qrels = QRels(judgments={"q1": {"fruit1": 1}, "q2": {"sky1": 1}})
    pool = ExamplePool(
        task_id=name,
        examples=[
            ICExample(query="fruit salad", positive="apple banana cherry nectar"),
            ICExample(query="cold weather", positive="cloud frost zephyr lunar"),
        ],
    )
    return DatasetBundle(name=name, corpus=corpus, queries=queries, qrels=qrels, pool=pool)


class TestAblate:
    def cells(self):
        return [
            AblationCell(fmt=PromptFormat(kind=FormatKind.INST), k=0, selection=SelectionPolicy.RETRIEVED),
            AblationCell(fmt=PromptFormat(kind=FormatKind.INST_IC), k=1, selection=SelectionPolicy.RETRIEVED),
        ]

    def test_labels(self):
        labels = [c.label() for c in self.cells()]
        assert labels == ["inst,k=0,retrieved", "inst+ic,k=1,retrieved"]
        bracketed = AblationCell(
            fmt=PromptFormat(kind=FormatKind.INST_IC, bracket_queries=True),
            k=5,
            selection=SelectionPolicy.RANDOM,
        )
        assert bracketed.label() == "inst+ic,k=5,random,brackets"

    def test_table_complete_and_average_recomputes(self):
        params = new_params(hash_dim=256, embed_dim=8, ngram_orders=(1, 2), seed=0)
        table = ablate(self.cells(), [toy_bundle("a"), toy_bundle("b")], params)
        assert table.datasets == ["a", "b"]
        for row in table.rows:
            for dataset in table.datasets:
                assert (row, dataset) in table.cells
                assert 0.0 <= table.cells[(row, dataset)] <= 1.0
            expected = sum(table.cells[(row, d)] for d in table.datasets) / 2
            assert abs(table.average(row) - expected) <= 1e-9

    def test_empty_grid_rejected(self):
        params = new_params(hash_dim=64, embed_dim=4, ngram_orders=(1,), seed=0)
        with pytest.raises(SpecInvalid):
            ablate([], [toy_bundle()], params)
        with pytest.raises(SpecInvalid):
            ablate(self.cells(), [], params)

    def test_dataset_without_relevant_docs_rejected(self):
        params = new_params(hash_dim=64, embed_dim=4, ngram_orders=(1,), seed=0)
        bundle = toy_bundle()
        bundle.qrels = QRels(judgments={})
        with pytest.raises(SpecInvalid, match="relevant"):
            ablate(self.cells(), [bundle], params)

    def test_csv_round_trip(self, tmp_path):
        table = AblationTable(
            rows=["inst,k=0,retrieved"],
            datasets=["a", "b"],
            cells={("inst,k=0,retrieved", "a"): 0.5, ("inst,k=0,retrieved", "b"): 0.25},
        )
        path = tmp_path / "ablation.csv"
        write_ablation_csv(table, path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Setting", "a", "b", "Average"]
        assert rows[1][0] == "inst,k=0,retrieved"
        assert float(rows[1][1]) == 0.5
        assert float(rows[1][3]) == table.average("inst,k=0,retrieved")
        # repr round-trips doubles exactly.
        assert [float(x) for x in rows[1][1:]] == [0.5, 0.25, 0.375]


class TestScoreAtTop1:
    def setup_fixture(self):
        params = new_params(hash_dim=256, embed_dim=8, ngram_orders=(1, 2), seed=1)
        pool = ExamplePool(
            task_id="t",
            examples=[
                ICExample(query="apple banana", positive="p0"),
                ICExample(query="cloud frost", positive="p1"),
            ],
        )
        return params, pool

    def report(self, values):
        return EvalReport(dataset="t", k=10, per_query=dict(values), mean=None)

    def test_identical_query_lands_in_top_bucket(self):
        params, pool = self.setup_fixture()
        queries = [Query(id="q1", text="apple banana")]
        a = self.report({"q1": 0.9})
        b = self.report({"q1": 0.4})
        buckets = score_at_top1(queries, pool, params, a, b)
        assert len(buckets) == 10
        assert buckets[-1].n == 1
        assert abs(buckets[-1].mean_ndcg_delta - 0.5) < 1e-12
        assert sum(bucket.n for bucket in buckets) == 1

    def test_self_comparison_deltas_are_zero(self):
        params, pool = self.setup_fixture()
        queries = [Query(id="q1", text="apple banana"), Query(id="q2", text="cloud frost")]
        a = self.report({"q1": 0.7, "q2": 0.2})
        buckets = score_at_top1(queries, pool, params, a, a)
        for bucket in buckets:
            if bucket.n:
                assert bucket.mean_ndcg_delta == 0.0

    def test_queries_missing_from_either_report_are_skipped(self):
        params, pool = self.setup_fixture()
        queries = [Query(id="q1", text="apple banana"), Query(id="ghost", text="cloud frost")]
        a = self.report({"q1": 0.9})
        b = self.report({"q1": 0.4})
        buckets = score_at_top1(queries, pool, params, a, b)
        assert sum(bucket.n for bucket in buckets) == 1

    def test_buckets_partition_unit_interval(self):
        params, pool = self.setup_fixture()
        buckets = score_at_top1([], pool, params, self.report({}), self.report({}), bin_width=0.3)
        assert [round(b.lower, 10) for b in buckets] == [0.0, 0.3, 0.6, 0.9]
        assert buckets[-1].upper == 1.0
        assert all(bucket.n == 0 and bucket.mean_ndcg_delta is None for bucket in buckets)

    def test_bin_width_validation(self):
        params, pool = self.setup_fixture()
        for width in (0.0, -0.1, 1.5):
            with pytest.raises(SpecInvalid):
                score_at_top1([], pool, params, self.report({}), self.report({}), bin_width=width)

    def test_bucket_type(self):
        params, pool = self.setup_fixture()
        buckets = score_at_top1([], pool, params, self.report({}), self.report({}))
        assert all(isinstance(bucket, ScoreBucket) for bucket in buckets)
