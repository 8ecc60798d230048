"""Flat dense index, exact search, end-to-end inference and the TREC run
and index file formats."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from rare import bm25
from rare.data import Document, ExamplePool, ICExample, Query
from rare.embedder import embed, new_params
from rare.errors import (
    BadMagic,
    DataError,
    DimMismatch,
    EmptyCorpus,
    MalformedRow,
    NonFiniteParams,
    Truncated,
    VersionMismatch,
)
from rare.prompt import FormatKind, PromptFormat
from rare.retrieve import (
    FlatIndex,
    build_flat_index,
    document_text,
    load_flat_index,
    load_run,
    run_inference,
    save_index,
    search,
    write_run,
)

from conftest import random_text


def small_params(seed=0):
    return new_params(hash_dim=512, embed_dim=16, ngram_orders=(1, 2), seed=seed)


def make_corpus(texts):
    return {f"d{i}": Document(id=f"d{i}", title="", text=t) for i, t in enumerate(texts)}


class TestDocumentText:
    def test_title_and_text_joined_by_one_space(self):
        doc = Document(id="d", title="The Title", text="the body")
        assert document_text(doc) == "The Title the body"

    def test_empty_title(self):
        assert document_text(Document(id="d", title="", text="body")) == " body"


class TestBuildFlatIndex:
    def test_single_doc(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple banana"]), params)
        assert index.matrix.shape == (1, params.embed_dim)
        assert abs(np.linalg.norm(index.matrix[0]) - 1.0) < 1e-9
        assert index.ids == ["d0"]

    def test_rows_follow_corpus_order(self, rng):
        params = small_params()
        texts = [random_text(rng, 8) for _ in range(12)]
        corpus = make_corpus(texts)
        index = build_flat_index(corpus, params)
        assert index.ids == list(corpus)
        for row, text in zip(index.matrix, texts):
            np.testing.assert_array_equal(row, embed(params, " " + text))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_flat_index({}, small_params())

    def test_rebuild_bit_identical(self, rng):
        params = small_params()
        corpus = make_corpus([random_text(rng, 8) for _ in range(20)])
        a = build_flat_index(corpus, params)
        b = build_flat_index(corpus, params)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_corpus_scale(self):
        # NFCorpus-sized collection: 3633 documents.
        params = new_params(hash_dim=64, embed_dim=4, ngram_orders=(1,), seed=0)
        corpus = make_corpus([f"term{i % 97} term{i % 89}" for i in range(3633)])
        index = build_flat_index(corpus, params)
        assert len(index) == 3633
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_gram_free_document_embeds_to_zero_row(self):
        params = small_params()
        corpus = {"d0": Document(id="d0", title="", text="..."), "d1": Document(id="d1", title="", text="apple")}
        index = build_flat_index(corpus, params)
        assert not index.matrix[0].any()


class TestSearch:
    def build_random_index(self, rng, n, dim=8, with_ties=False):
        mat = np.zeros((n, dim))
        for i in range(n):
            v = np.array([rng.gauss(0, 1) for _ in range(dim)])
            mat[i] = v / np.linalg.norm(v)
        ids = [f"d{i:04d}" for i in range(n)]
        if with_ties and n >= 4:
            mat[1] = mat[0]
            mat[3] = mat[2]
        return FlatIndex(ids=ids, matrix=mat, dim=dim)

    def test_k_zero(self, rng):
        index = self.build_random_index(rng, 5)
        assert search(index, index.matrix[0], 0) == []

    def test_self_match_first_with_score_one(self, rng):
        index = self.build_random_index(rng, 30)
        got = search(index, index.matrix[7].copy(), 3)
        assert got[0][0] == "d0007"
        assert abs(got[0][1] - 1.0) < 1e-6

    def test_k_larger_than_n_returns_all(self, rng):
        index = self.build_random_index(rng, 6)
        got = search(index, index.matrix[0], 100)
        assert len(got) == 6
        assert len({doc_id for doc_id, _ in got}) == 6

    def test_matches_brute_force_full_sort(self, rng):
        for _ in range(25):
            n = rng.randint(1, 60)
            index = self.build_random_index(rng, n, with_ties=rng.random() < 0.5)
            q = np.array([rng.gauss(0, 1) for _ in range(index.dim)])
            q /= np.linalg.norm(q)
            k = rng.randint(1, n + 3)
            got = search(index, q, k)
            scores = index.matrix @ q
            expected = sorted(zip(index.ids, scores), key=lambda pair: (-pair[1], pair[0]))[:k]
            assert [doc_id for doc_id, _ in got] == [doc_id for doc_id, _ in expected]

    def test_scores_non_increasing_and_ties_by_id(self, rng):
        index = self.build_random_index(rng, 20, with_ties=True)
        got = search(index, index.matrix[0].copy(), 20)
        for (id_a, score_a), (id_b, score_b) in zip(got, got[1:]):
            assert score_a >= score_b
            if score_a == score_b:
                assert id_a < id_b

    def test_dim_mismatch(self, rng):
        index = self.build_random_index(rng, 4, dim=8)
        with pytest.raises(DimMismatch):
            search(index, np.zeros(9), 3)

    def test_zero_query_warns_and_orders_by_id(self, rng, caplog):
        index = self.build_random_index(rng, 10)
        with caplog.at_level(logging.WARNING, logger="rare.retrieve"):
            got = search(index, np.zeros(index.dim), 10)
        assert any("all zeros" in rec.message for rec in caplog.records)
        assert [doc_id for doc_id, _ in got] == sorted(index.ids)
        assert all(score == 0.0 for _, score in got)


def disambiguation_fixture():
    corpus = {
        "fruit1": Document(id="fruit1", title="", text="apple banana cherry nectar"),
        "fruit2": Document(id="fruit2", title="", text="banana maple orchid apple"),
        "sky1": Document(id="sky1", title="", text="cloud frost zephyr lunar"),
        "sky2": Document(id="sky2", title="", text="frost tundra cloud galaxy"),
    }
    pool = ExamplePool(
        task_id="t",
        examples=[
            ICExample(query="orchard picks", positive="apple banana cherry nectar"),
            ICExample(query="weather report", positive="cloud frost zephyr lunar"),
        ],
    )
    ic_index = bm25.build_index([ex.query for ex in pool.examples])
    return corpus, pool, ic_index


class TestRunInference:
    def test_k_zero_equals_inst(self, rng):
        params = small_params()
        corpus, pool, ic_index = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id=f"q{i}", text=random_text(rng, 5)) for i in range(6)]
        ic = run_inference(
            queries, "find it", pool, ic_index, index, params,
            PromptFormat(kind=FormatKind.INST_IC), k=0, top_k=4,
        )
        inst = run_inference(
            queries, "find it", None, None, index, params,
            PromptFormat(kind=FormatKind.INST), k=0, top_k=4,
        )
        assert ic == inst

    def test_single_query_single_doc(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple banana"]), params)
        run = run_inference(
            [Query(id="q1", text="apple")], "", None, None, index, params,
            PromptFormat(kind=FormatKind.INST), k=0, top_k=10,
        )
        assert list(run) == ["q1"]
        assert len(run["q1"]) == 1

    def test_run_twice_identical(self):
        params = small_params()
        corpus, pool, ic_index = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard fruit"), Query(id="q2", text="weather frost")]
        kwargs = dict(fmt=PromptFormat(kind=FormatKind.INST_IC), k=1, top_k=4, seed=3)
        a = run_inference(queries, "", pool, ic_index, index, params, **kwargs)
        b = run_inference(queries, "", pool, ic_index, index, params, **kwargs)
        assert a == b

    def test_examples_change_ranking(self):
        # An ambiguous query plus a fruit-flavored in-context example should
        # pull fruit documents up relative to the bare rendering.
        params = small_params()
        corpus, pool, ic_index = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard picks")]
        ic = run_inference(
            queries, "", pool, ic_index, index, params,
            PromptFormat(kind=FormatKind.INST_IC), k=1, top_k=4,
        )
        assert ic["q1"][0][0].startswith("fruit")

    def test_missing_pool_rejected(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple"]), params)
        with pytest.raises(ValueError, match="pool"):
            run_inference(
                [Query(id="q", text="x")], "", None, None, index, params,
                PromptFormat(kind=FormatKind.INST_IC), k=2, top_k=3,
            )


class TestRunFiles:
    def test_write_format(self, tmp_path):
        path = tmp_path / "run.trec"
        write_run({"q1": [("d9", 0.25), ("d2", 0.125)]}, path, tag="sys")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["q1 Q0 d9 1 0.250000 sys", "q1 Q0 d2 2 0.125000 sys"]

    def test_round_trip(self, tmp_path):
        run = {"q1": [("d1", 0.5), ("d2", 0.25)], "q2": [("d3", 0.125)]}
        path = tmp_path / "run.trec"
        write_run(run, path)
        assert load_run(path) == run

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_run(path)
        assert err.value.line_no == 2

    def test_bad_score(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 abc tag\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_run(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5 tag\n\n", encoding="utf-8")
        assert len(load_run(path)) == 1


class TestIndexSerialization:
    def make_index(self, rng, n=7, dim=5):
        mat = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)])
        ids = [f"doc-{i}" for i in range(n - 1)] + ["unicode-ид"]
        return FlatIndex(ids=ids, matrix=mat, dim=dim)

    def test_round_trip(self, rng, tmp_path):
        index = self.make_index(rng)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_flat_index(path)
        assert loaded.ids == index.ids
        assert loaded.dim == index.dim
        assert loaded.matrix.tobytes() == index.matrix.tobytes()

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("Z")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_flat_index(path)

    def test_version_mismatch(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_flat_index(path)

    def test_every_strict_prefix_raises_truncated(self, rng, tmp_path):
        index = self.make_index(rng, n=3, dim=2)
        path = tmp_path / "index.bin"
        save_index(index, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(Truncated):
                load_flat_index(cut)

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(Truncated):
            load_flat_index(path)

    def test_non_finite_file_rejected(self, rng, tmp_path):
        index = self.make_index(rng)
        index.matrix[-1, -1] = np.nan
        path = tmp_path / "index.bin"
        save_index(index, path)
        with pytest.raises(NonFiniteParams):
            load_flat_index(path)

    def test_bad_utf8_id_rejected(self, rng, tmp_path):
        index = self.make_index(rng, n=2, dim=2)
        index.ids = ["a", "b"]
        path = tmp_path / "index.bin"
        save_index(index, path)
        blob = path.read_bytes()
        # Layout: magic(4) version(4) n(8) dim(8), then u32 length + "a".
        path.write_bytes(blob[:28] + b"\xff" + blob[29:])
        with pytest.raises(DataError, match="UTF-8"):
            load_flat_index(path)
