"""Data loading and writing: JSONL/TSV parsing, error reporting with line
numbers, round trips, and the one line reader every loader and `load_run`
parse from."""

from __future__ import annotations

import json
import logging
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare import data
from rare.data import Document, ExamplePool, ICExample, QRels, Query, TrainExample, load_run
from rare.errors import (
    DataError,
    DuplicateId,
    EmptyPool,
    MalformedLine,
    MalformedRow,
    NegativeGrade,
)


def json_default(obj):
    """`json.dumps`' default for loaded data: a `Corpus` reads each document back."""
    return dict(obj) if isinstance(obj, data.Corpus) else vars(obj)


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


# Each loader and `load_run`, with a valid line i of its file format.
LOADERS = {
    "corpus": (data.load_corpus, lambda i: json.dumps({"_id": f"d{i}", "title": "", "text": f"text {i}"})),
    "queries": (data.load_queries, lambda i: json.dumps({"_id": f"q{i}", "text": f"query {i}"})),
    "qrels": (data.load_qrels, lambda i: f"q{i}\td{i}\t1"),
    "train": (data.load_train, lambda i: json.dumps({"task_id": "t", "instruction": "", "query": f"q{i}",
                                                      "positive": f"p{i}"})),
    "pool": (lambda p: data.load_example_pool(p, "t"), lambda i: json.dumps({"query": f"q{i}", "positive": "p"})),
    "run": (load_run, lambda i: f"q{i} Q0 d{i} 1 0.5 tag"),
}

NEWLINES = ["\n", "\r\n", "\r"]


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


# Texts of lines ended by each of text mode's newlines, blank or not, with
# characters that end a line for str.splitlines but not for a text-mode file.
LINE_TEXTS = st.lists(st.sampled_from(["a", "b c", " ", "\t", "\n", "\r\n", "\r", "\x85", "\u2028", "\x0c", "é"]),
                      max_size=30).map("".join)


class TestLines:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=LINE_TEXTS)
    def test_equals_text_mode_iteration(self, tmp_dir, text):
        # `\x85` and `\u2028` end a line for str.splitlines, not for a text-mode file.
        p = tmp_dir / "lines.txt"
        p.write_bytes(text.encode("utf-8"))
        with p.open("r", encoding="utf-8") as fh:
            expected = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
        assert list(data._lines(p)) == expected

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "lines.txt"
        p.write_bytes(b"a\r\n\r\n \rb\n\nc")
        assert list(data._lines(p)) == [(1, "a\n"), (4, "b\n"), (6, "c")]

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=LINE_TEXTS, emoji=st.booleans())
    def test_spans_read_back_the_lines(self, tmp_dir, text, emoji):
        # Each line's span holds its bytes; the lines are text mode's, their
        # newlines untranslated.
        raw = (text.replace("é", "\U0001f642") if emoji else text).encode("utf-8")
        p = tmp_dir / "lines.txt"
        p.write_bytes(raw)
        spans = array("q")
        lines = list(data._lines(p, spans))
        assert [(n, line.replace("\r\n", "\n").replace("\r", "\n")) for n, line in lines] == list(data._lines(p))
        assert len(spans) == 2 * len(lines)
        assert list(spans) == sorted(spans)
        read_back = [raw[start:end].decode("utf-8") for start, end in zip(spans[::2], spans[1::2])]
        assert read_back == [line for _, line in lines]


class TestNotUtf8:
    """A byte that is not UTF-8 is a MalformedLine naming its file and line,
    even past the decoder's read-ahead."""

    @pytest.mark.parametrize("kind", LOADERS)
    def test_names_the_line_past_64_kib(self, tmp_path, kind):
        load, line = LOADERS[kind]
        p = tmp_path / kind
        parts = [line(i).encode() + NEWLINES[i % 3].encode() for i in range(8000)]
        parts[10] = b"\r\n"  # a blank line still counts
        n = 6001
        good = line(n - 1).encode()
        parts[n - 1] = good[:-1] + b"\xff" + good[-1:] + b"\n"
        p.write_bytes(b"".join(parts))
        assert len(b"".join(parts[: n - 1])) > 65536
        with pytest.raises(MalformedLine) as err:
            load(p)
        assert err.value.line_no == n
        assert str(err.value) == f"{p}:{n}: not valid UTF-8"

    @pytest.mark.parametrize("kind", LOADERS)
    def test_truncated_sequence_at_end(self, tmp_path, kind):
        load, line = LOADERS[kind]
        p = tmp_path / kind
        p.write_bytes(f"{line(0)}\r{line(1)}\r\n".encode() + b"\xe2\x82")
        with pytest.raises(MalformedLine, match=r":3: not valid UTF-8$"):
            load(p)


class TestLoneSurrogate:
    """A JSON escape that decodes to a lone surrogate is not UTF-8: a
    MalformedLine naming the file, line and field. A surrogate pair loads."""

    JSONL = ["corpus", "queries", "train", "pool"]

    @pytest.mark.parametrize("kind", JSONL)
    @pytest.mark.parametrize("escape", ["\\ud800", "a \\udcff b", "\\uDBFF"])
    def test_names_the_field(self, tmp_path, kind, escape):
        load, line = LOADERS[kind]
        good = json.loads(line(1))
        key = next(iter(good))
        good[key] = "@"
        p = tmp_path / kind
        p.write_text(f"{line(0)}\n{json.dumps(good).replace('@', escape)}\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load(p)
        assert str(err.value) == f"{p}:2: field {key!r} is not valid UTF-8 (a lone surrogate)"

    @pytest.mark.parametrize("kind", JSONL)
    def test_surrogate_pair_loads(self, tmp_path, kind):
        load, line = LOADERS[kind]
        p = tmp_path / kind
        p.write_text(line(0).replace('"q0"', '"q\\ud83d\\ude00"').replace('"d0"', '"d\\ud83d\\ude00"') + "\n",
                     encoding="utf-8")
        assert "\U0001f600" in json.dumps(load(p), default=json_default, ensure_ascii=False)


# Malformed input for the property tests: lines are cut short, fields get the
# wrong JSON type or escape a lone surrogate, ids repeat, grades are not
# integers or are negative, and a file may start with a BOM, be empty, or
# hold bytes that are not UTF-8.
SURROGATES = ["\ud800", "a \udcff b", "\ud83d\ude00"]  # json.dumps escapes each; the last is a valid pair
JSON_VALUES = st.one_of(st.sampled_from(["", "a", "b", " ", *SURROGATES]), st.text(max_size=4), st.integers(-2, 2),
                        st.none(), st.booleans(), st.floats(allow_nan=True), st.lists(st.integers(), max_size=2))
JSON_KEYS = ["_id", "title", "text", "task_id", "instruction", "query", "positive", "negative"]
JSON_LINES = st.tuples(st.dictionaries(st.sampled_from(JSON_KEYS), JSON_VALUES), st.integers(0, 80)).map(
    lambda obj_cut: json.dumps(obj_cut[0])[: obj_cut[1]]
) | st.sampled_from(["[]", "1", "null", "{", '"text"', " "])
FIELDS = st.sampled_from(["q1", "d1", "q2", "", " ", "0", "1", "2", "-1", "1.5", "x", " 3 ", "nan", "1_0", "Q0"])
ROWS = {
    "qrels": st.lists(FIELDS, min_size=1, max_size=4).map("\t".join),
    "run": st.lists(FIELDS, min_size=4, max_size=7).map(" ".join),
}
BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"])


@st.composite
def malformed_files(draw, kind):
    lines = draw(st.lists(ROWS.get(kind, JSON_LINES), max_size=8))
    newlines = draw(st.lists(st.sampled_from(NEWLINES), min_size=len(lines), max_size=len(lines)))
    raw = "".join(map(str.__add__, lines, newlines)).encode()
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(BAD_BYTES) + raw[at:]
    return raw


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=st.data())
def test_malformed_input_loads_or_is_a_data_error(tmp_dir, kind, case):
    load, _ = LOADERS[kind]
    p = tmp_dir / kind
    p.write_bytes(case.draw(malformed_files(kind)))
    try:
        loaded = load(p)
    except DataError:
        return
    json.dumps(loaded, default=json_default, ensure_ascii=False).encode("utf-8")  # every string loaded is UTF-8
