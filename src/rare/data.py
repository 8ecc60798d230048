"""Loading and writing BeIR-style retrieval data.

Every loader reads UTF-8 text through `_lines`, which names the line of any
byte that is not UTF-8. A JSONL string field whose JSON escapes decode to a
lone surrogate is not UTF-8 either, and is a `MalformedLine` too. File
formats:

* ``corpus.jsonl``: one JSON object per line with ``_id``, ``title``, ``text``.
* ``queries.jsonl``: one JSON object per line with ``_id``, ``text``. A
  corpus or query ``_id`` holds no whitespace, as a run file field cannot.
* ``qrels.tsv``: tab-separated ``query-id  doc-id  grade`` rows with an
  optional header row.
* ``train.jsonl``: one JSON object per line with ``task_id``, ``instruction``,
  ``query``, ``positive``, ``negative``.
* ``pool.jsonl``: one JSON object per line with ``query``, ``positive`` and an
  optional ``negative``; these are the in-context example candidates.
* TREC run files: whitespace-separated ``qid Q0 docid rank score tag`` rows.
  Within a query the ranks are integers that increase down the file, and no
  document is listed twice.

`load_corpus` checks every line, then holds only each document's id and the
byte span of its line: a `Corpus` reads a document back from the file, on a
descriptor of its own, each time it is accessed.

The module needs no numpy: `ExamplePool.bm25_index` imports `bm25` when it
first builds an index, and a `Corpus` imports `array` when it is loaded.
"""

from __future__ import annotations

import json
import logging
import os
import weakref
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    DataError,
    DuplicateId,
    EmptyPool,
    MalformedLine,
    MalformedRow,
    NegativeGrade,
)

if TYPE_CHECKING:
    from array import array

    from . import bm25

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass(frozen=True)
class TrainExample:
    """One contrastive training triple for one task."""

    task_id: str
    instruction: str
    query: str
    positive: str
    negative: str = ""


@dataclass(frozen=True)
class ICExample:
    """A (query, relevant document) pair usable as an in-context example."""

    query: str
    positive: str
    negative: str | None = None


@dataclass
class ExamplePool:
    """The candidate examples one task draws from, in file order."""

    task_id: str
    examples: list[ICExample]
    _ordinals: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _bm25: bm25.Bm25Index | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.examples)

    def ordinal_of(self, query_text: str) -> int | None:
        """Ordinal of the first pool example whose query text matches exactly."""
        if self._ordinals is None:
            mapping: dict[str, int] = {}
            for i, ex in enumerate(self.examples):
                mapping.setdefault(ex.query, i)
            self._ordinals = mapping
        return self._ordinals.get(query_text)

    def bm25_index(self) -> bm25.Bm25Index:
        """BM25 over the pool queries by ordinal, built on first use."""
        if self._bm25 is None:
            from . import bm25

            self._bm25 = bm25.build_index([ex.query for ex in self.examples])
        return self._bm25


@dataclass
class QRels:
    """Graded relevance judgments: query id -> doc id -> grade >= 0."""

    judgments: dict[str, dict[str, int]]

    def grades_for(self, query_id: str) -> dict[str, int]:
        return self.judgments.get(query_id, {})


def _lines(p: Path, spans: array | None = None):
    """Yield (line_no, line) for each non-blank line of a UTF-8 file, as text mode reads it.

    With `spans`, each line keeps its newline as the file has it, and its
    start and end byte offsets are appended to `spans` before it is yielded.
    """
    # newline="" splits lines where text mode does but leaves their ends untranslated.
    with p.open("r", encoding="utf-8", newline=None if spans is None else "") as fh:
        try:
            if spans is None:
                for line_no, line in enumerate(fh, start=1):
                    if line.strip():
                        yield line_no, line
            else:
                end = 0
                for line_no, line in enumerate(fh, start=1):
                    start, end = end, end + (len(line) if line.isascii() else len(line.encode("utf-8")))
                    if line.strip():
                        spans.extend((start, end))
                        yield line_no, line
        except UnicodeDecodeError:
            raw = p.read_bytes()  # the decoder reads ahead: count the newlines before the bad byte
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = raw[: exc.start]
                line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                raise MalformedLine(str(p), line_no, "not valid UTF-8") from None
            raise


def _read_jsonl(path: str | Path, spans: array | None = None):
    """Yield (line_no, parsed object) for each non-blank line of a JSONL file
    (`spans` as in `_lines`)."""
    p = Path(path)
    for line_no, line in _lines(p, spans):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(str(p), line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise MalformedLine(str(p), line_no, "expected a JSON object")
        yield line_no, obj


def _write_jsonl(path: str | Path, objs) -> None:
    """Write one JSON object per line, non-ASCII text as is."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


def _require_str(
    obj: dict, key: str, path: str, line_no: int, allow_empty: bool = False, spaceless: bool = False
) -> str:
    if key not in obj:
        raise MalformedLine(path, line_no, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise MalformedLine(path, line_no, f"field {key!r} must be a string")
    if not value.isascii():  # isascii is O(1); a JSON \u escape can decode to a lone surrogate
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLine(path, line_no, f"field {key!r} is not valid UTF-8 (a lone surrogate)") from None
    if not allow_empty and not value:
        raise MalformedLine(path, line_no, f"field {key!r} must be non-empty")
    if spaceless and value.split() != [value]:  # as a run file line splits
        raise MalformedLine(path, line_no, f"field {key!r} must not contain whitespace: {value!r}")
    return value


def _stamp(fd: int) -> tuple[int, int]:
    st = os.fstat(fd)
    return st.st_size, st.st_mtime_ns


class Corpus(Mapping[str, Document]):
    """A corpus.jsonl as an id -> Document mapping in file order, holding
    only each document's id and the byte span of its line.

    Every line is checked when the corpus is loaded. The file stays open on
    a descriptor of its own, closed when the object is collected, and a
    document is read back with `os.pread` each time it is accessed, so forked
    processes that inherit the corpus read their own lines without sharing a
    file offset. A line that no longer parses to an object with the id it
    had, or a file whose size or modification time differs from when it was
    loaded, means the file changed: a `DataError`.
    """

    def __init__(self, path: str | Path):
        from array import array  # imported here: the module adds about 0.25 MiB to every command's RSS

        self.path = str(path)
        self._fd = os.open(path, os.O_RDONLY)
        self._close = weakref.finalize(self, os.close, self._fd)  # also when a line below is refused
        self._stamp = _stamp(self._fd)
        self._rows: dict[str, int] = {}  # id -> its ordinal in the file
        self._spans = array("q")  # each line's start and end byte offsets, in pairs
        for line_no, obj in _read_jsonl(path, self._spans):
            doc_id = _require_str(obj, "_id", self.path, line_no, spaceless=True)
            title = _require_str(obj, "title", self.path, line_no, allow_empty=True)
            text = _require_str(obj, "text", self.path, line_no, allow_empty=True)
            if not title and not text:
                raise MalformedLine(self.path, line_no, "title and text are both empty")
            if doc_id in self._rows:
                raise DuplicateId(f"{path}:{line_no}: duplicate document id {doc_id!r}")
            self._rows[doc_id] = len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __getitem__(self, doc_id: str) -> Document:
        row = self._rows[doc_id]
        start, end = self._spans[2 * row], self._spans[2 * row + 1]
        raw = os.pread(self._fd, end - start, start)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            obj = None
        # The stamp is taken after the read: if it still holds, the line is the
        # one checked at loading, and its fields need no second check.
        if not isinstance(obj, dict) or obj.get("_id") != doc_id or _stamp(self._fd) != self._stamp:
            raise DataError(f"{self.path} changed while it was read (document {doc_id!r}); run the command again")
        return Document(id=doc_id, title=obj["title"], text=obj["text"])


def load_corpus(path: str | Path) -> Corpus:
    """Load corpus.jsonl as a `Corpus`, in file order."""
    return Corpus(path)


def load_queries(path: str | Path) -> list[Query]:
    """Load queries.jsonl in file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        qid = _require_str(obj, "_id", str(path), line_no, spaceless=True)
        text = _require_str(obj, "text", str(path), line_no)
        if qid in seen:
            raise DuplicateId(f"{path}:{line_no}: duplicate query id {qid!r}")
        seen.add(qid)
        queries.append(Query(id=qid, text=text))
    return queries


def load_qrels(path: str | Path) -> QRels:
    """Load a qrels TSV.

    An optional header row is skipped. A repeated (query, doc) pair keeps the
    last value and logs a warning. Grades must be non-negative integers.
    """
    p = Path(path)
    judgments: dict[str, dict[str, int]] = {}
    for line_no, line in _lines(p):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRow(str(p), line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        qid, doc_id, raw_grade = fields[0].strip(), fields[1].strip(), fields[2]
        try:
            grade = int(raw_grade)  # int() ignores surrounding whitespace, the newline too
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise MalformedRow(str(p), line_no, f"grade {raw_grade.strip()!r} is not an integer") from None
        if grade < 0:
            raise NegativeGrade(f"{p}:{line_no}: grade {grade} for query {qid!r}")
        if not qid or not doc_id:
            raise MalformedRow(str(p), line_no, "empty query or document id")
        per_query = judgments.setdefault(qid, {})
        if doc_id in per_query:
            log.warning("%s:%d: duplicate judgment for (%s, %s), keeping the last", p, line_no, qid, doc_id)
        per_query[doc_id] = grade
    return QRels(judgments=judgments)


def load_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Load a TREC run file: qid -> [(doc id, score)] in rank order.

    A row with other than 6 fields, a rank that is not an integer or does not
    increase on the query's previous row, a score that is not a number, or a
    document listed twice for one query is a `MalformedRow`.
    """
    run: dict[str, list[tuple[str, float]]] = {}
    last_rank: dict[str, int] = {}
    listed: set[tuple[str, str]] = set()
    p = Path(path)
    for line_no, line in _lines(p):
        fields = line.split()
        if len(fields) != 6:
            raise MalformedRow(str(p), line_no, f"expected 6 fields, got {len(fields)}")
        qid, _, doc_id, raw_rank, raw_score, _ = fields
        try:
            rank = int(raw_rank)
        except ValueError:
            raise MalformedRow(str(p), line_no, f"rank {raw_rank!r} is not an integer") from None
        try:
            score = float(raw_score)
        except ValueError:
            raise MalformedRow(str(p), line_no, f"score {raw_score!r} is not a number") from None
        if qid in last_rank and rank <= last_rank[qid]:
            raise MalformedRow(str(p), line_no, f"rank {rank} of query {qid!r} does not follow rank {last_rank[qid]}")
        if (qid, doc_id) in listed:
            raise MalformedRow(str(p), line_no, f"document {doc_id!r} is listed twice for query {qid!r}")
        last_rank[qid] = rank
        listed.add((qid, doc_id))
        run.setdefault(qid, []).append((doc_id, score))
    return run


def load_train(path: str | Path) -> list[TrainExample]:
    """Load train.jsonl in file order."""
    out: list[TrainExample] = []
    for line_no, obj in _read_jsonl(path):
        out.append(
            TrainExample(
                task_id=_require_str(obj, "task_id", str(path), line_no),
                instruction=_require_str(obj, "instruction", str(path), line_no, allow_empty=True),
                query=_require_str(obj, "query", str(path), line_no),
                positive=_require_str(obj, "positive", str(path), line_no),
                negative=_require_str(obj, "negative", str(path), line_no, allow_empty=True)
                if "negative" in obj else "",
            )
        )
    return out


def load_example_pool(path: str | Path, task_id: str) -> ExamplePool:
    """Load pool.jsonl as the in-context candidate pool for one task."""
    examples: list[ICExample] = []
    for line_no, obj in _read_jsonl(path):
        query = _require_str(obj, "query", str(path), line_no)
        positive = _require_str(obj, "positive", str(path), line_no)
        negative = None if obj.get("negative") is None else _require_str(obj, "negative", str(path), line_no)
        examples.append(ICExample(query=query, positive=positive, negative=negative))
    if not examples:
        raise EmptyPool(f"{path}: example pool is empty")
    return ExamplePool(task_id=task_id, examples=examples)


def write_corpus(corpus: Mapping[str, Document], path: str | Path) -> None:
    _write_jsonl(path, ({"_id": doc.id, "title": doc.title, "text": doc.text} for doc in corpus.values()))


def write_queries(queries: list[Query], path: str | Path) -> None:
    _write_jsonl(path, ({"_id": q.id, "text": q.text} for q in queries))


def write_qrels(qrels: QRels, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("query-id\tcorpus-id\tscore\n")
        for qid, per_query in qrels.judgments.items():
            for doc_id, grade in per_query.items():
                fh.write(f"{qid}\t{doc_id}\t{grade}\n")


def write_train(examples: list[TrainExample], path: str | Path) -> None:
    _write_jsonl(path, map(vars, examples))


def write_pool(pool: ExamplePool, path: str | Path) -> None:
    """Write the pool's examples; a None negative is left out of its line."""
    _write_jsonl(path, ({k: v for k, v in vars(ex).items() if v is not None} for ex in pool.examples))


def write_run(run: dict[str, list[tuple[str, float]]], path: str | Path, tag: str = "rare") -> None:
    """Write a TREC run file: qid Q0 docid rank score tag."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for qid, ranked in run.items():
            for rank, (doc_id, score) in enumerate(ranked, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
