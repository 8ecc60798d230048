"""Data loading and writing: JSONL/TSV parsing, error reporting with line
numbers and round trips."""

from __future__ import annotations

import json
import logging

import pytest

from rare import data
from rare.data import Document, ExamplePool, ICExample, QRels, Query, TrainExample
from rare.errors import (
    DuplicateId,
    EmptyPool,
    MalformedLine,
    MalformedRow,
    NegativeGrade,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadCorpus:
    def test_field_mapping(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, ['{"_id":"d1","title":"","text":"apple banana"}'])
        corpus = data.load_corpus(p)
        assert corpus == {"d1": Document(id="d1", title="", text="apple banana")}

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, ['{"_id":"d1","title":"t","text":"a"}', '{"_id":"d1","title":"t","text":"b"}'])
        with pytest.raises(DuplicateId, match="d1"):
            data.load_corpus(p)

    def test_file_order_preserved(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        ids = [f"d{i}" for i in range(20)]
        write_lines(p, [json.dumps({"_id": i, "title": "", "text": "x"}) for i in ids])
        assert list(data.load_corpus(p)) == ids

    def test_nfcorpus_scale(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(
            p,
            [json.dumps({"_id": f"MED-{i}", "title": f"title {i}", "text": f"body {i}"}) for i in range(3633)],
        )
        assert len(data.load_corpus(p)) == 3633

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, ['{"_id":"d1","title":"","text":"a"}', "{not json"])
        with pytest.raises(MalformedLine) as err:
            data.load_corpus(p)
        assert err.value.line_no == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, ['{"_id":"d1","title":"t"}'])
        with pytest.raises(MalformedLine, match="text"):
            data.load_corpus(p)

    def test_both_title_and_text_empty(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, ['{"_id":"d1","title":"","text":""}'])
        with pytest.raises(MalformedLine):
            data.load_corpus(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"_id":"d1","title":"","text":"a"}\n\n\n', encoding="utf-8")
        assert len(data.load_corpus(p)) == 1


class TestLoadQrels:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["q1\td1\t1"])
        assert data.load_qrels(p).judgments == {"q1": {"d1": 1}}

    def test_negative_grade(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["q1\td1\t-2"])
        with pytest.raises(NegativeGrade):
            data.load_qrels(p)

    def test_last_write_wins_with_warning(self, tmp_path, caplog):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["q1\td1\t1", "q1\td1\t2"])
        with caplog.at_level(logging.WARNING, logger="rare.data"):
            qrels = data.load_qrels(p)
        assert qrels.judgments["q1"]["d1"] == 2
        assert any("duplicate judgment" in rec.message for rec in caplog.records)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["query-id\tcorpus-id\tscore", "q1\td1\t1"])
        assert data.load_qrels(p).judgments == {"q1": {"d1": 1}}

    def test_non_integer_grade_after_first_line(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["q1\td1\t1", "q2\td2\tbad"])
        with pytest.raises(MalformedRow):
            data.load_qrels(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        write_lines(p, ["q1\td1"])
        with pytest.raises(MalformedRow):
            data.load_qrels(p)

    def test_order_insensitive_apart_from_duplicates(self, tmp_path):
        rows = ["q1\td1\t1", "q2\td2\t2", "q1\td3\t1"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_lines(a, rows)
        write_lines(b, rows[::-1])
        assert data.load_qrels(a).judgments == data.load_qrels(b).judgments


class TestLoadExamplePool:
    def test_file_order(self, tmp_path):
        p = tmp_path / "pool.jsonl"
        write_lines(
            p,
            ['{"query":"a","positive":"pa"}', '{"query":"b","positive":"pb"}'],
        )
        pool = data.load_example_pool(p, "task")
        assert [ex.query for ex in pool.examples] == ["a", "b"]
        assert pool.task_id == "task"

    def test_empty_pool(self, tmp_path):
        p = tmp_path / "pool.jsonl"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmptyPool):
            data.load_example_pool(p, "task")

    def test_mixed_negatives_round_trip(self, tmp_path):
        examples = [
            ICExample(query="a", positive="pa", negative="na"),
            ICExample(query="b", positive="pb"),
        ]
        pool = ExamplePool(task_id="t", examples=examples)
        p = tmp_path / "pool.jsonl"
        data.write_pool(pool, p)
        loaded = data.load_example_pool(p, "t")
        assert loaded.examples == examples

    def test_ordinal_of_first_match(self):
        pool = ExamplePool(
            task_id="t",
            examples=[ICExample("a", "p1"), ICExample("b", "p2"), ICExample("a", "p3")],
        )
        assert pool.ordinal_of("a") == 0
        assert pool.ordinal_of("b") == 1
        assert pool.ordinal_of("zzz") is None


class TestRoundTrips:
    def test_corpus(self, tmp_path):
        corpus = {
            "d1": Document("d1", "Title One", "text one"),
            "d2": Document("d2", "", "unicode wörds"),
        }
        p = tmp_path / "corpus.jsonl"
        data.write_corpus(corpus, p)
        assert data.load_corpus(p) == corpus

    def test_queries(self, tmp_path):
        queries = [Query("q1", "first"), Query("q2", "second")]
        p = tmp_path / "queries.jsonl"
        data.write_queries(queries, p)
        assert data.load_queries(p) == queries

    def test_queries_duplicate_id(self, tmp_path):
        p = tmp_path / "queries.jsonl"
        write_lines(p, ['{"_id":"q1","text":"a"}', '{"_id":"q1","text":"b"}'])
        with pytest.raises(DuplicateId):
            data.load_queries(p)

    def test_qrels(self, tmp_path):
        qrels = QRels(judgments={"q1": {"d1": 1, "d2": 2}, "q2": {"d3": 1}})
        p = tmp_path / "qrels.tsv"
        data.write_qrels(qrels, p)
        assert data.load_qrels(p).judgments == qrels.judgments

    def test_train(self, tmp_path):
        examples = [
            TrainExample("t", "instr", "q1", "pos1", "neg1"),
            TrainExample("t", "", "q2", "pos2", ""),
        ]
        p = tmp_path / "train.jsonl"
        data.write_train(examples, p)
        assert data.load_train(p) == examples

    def test_write_ends_with_newline(self, tmp_path):
        p = tmp_path / "queries.jsonl"
        data.write_queries([Query("q1", "text")], p)
        assert p.read_text(encoding="utf-8").endswith("\n")

    def test_jsonl_bytes(self, tmp_path):
        # Key order, separators and non-ASCII text are part of the synth files' bytes.
        p = tmp_path / "out.jsonl"
        data.write_corpus({"d1": Document("d1", "Tïtle", "text")}, p)
        assert p.read_bytes() == '{"_id": "d1", "title": "Tïtle", "text": "text"}\n'.encode()
        data.write_queries([Query("q1", "wörd")], p)
        assert p.read_bytes() == '{"_id": "q1", "text": "wörd"}\n'.encode()
        data.write_train([TrainExample("t", "i", "q", "p", "n"), TrainExample("t", "", "q2", "p2")], p)
        assert p.read_text(encoding="utf-8").splitlines() == [
            '{"task_id": "t", "instruction": "i", "query": "q", "positive": "p", "negative": "n"}',
            '{"task_id": "t", "instruction": "", "query": "q2", "positive": "p2", "negative": ""}',
        ]
        data.write_pool(ExamplePool("t", [ICExample("a", "pa", "na"), ICExample("b", "pb")]), p)
        assert p.read_text(encoding="utf-8").splitlines() == [
            '{"query": "a", "positive": "pa", "negative": "na"}',
            '{"query": "b", "positive": "pb"}',
        ]


class TestQRels:
    def test_grades_for_missing_query(self):
        assert QRels(judgments={}).grades_for("q9") == {}
