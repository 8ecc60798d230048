"""Loading and writing BeIR-style retrieval data.

File formats, all UTF-8:

* ``corpus.jsonl``: one JSON object per line with ``_id``, ``title``, ``text``.
* ``queries.jsonl``: one JSON object per line with ``_id``, ``text``.
* ``qrels.tsv``: tab-separated ``query-id  doc-id  grade`` rows with an
  optional header row.
* ``train.jsonl``: one JSON object per line with ``task_id``, ``instruction``,
  ``query``, ``positive``, ``negative``.
* ``pool.jsonl``: one JSON object per line with ``query``, ``positive`` and an
  optional ``negative``; these are the in-context example candidates.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import bm25
from .errors import (
    DuplicateId,
    EmptyPool,
    MalformedLine,
    MalformedRow,
    NegativeGrade,
)

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
            self._bm25 = bm25.build_index([ex.query for ex in self.examples])
        return self._bm25


@dataclass
class QRels:
    """Graded relevance judgments: query id -> doc id -> grade >= 0."""

    judgments: dict[str, dict[str, int]]

    def grades_for(self, query_id: str) -> dict[str, int]:
        return self.judgments.get(query_id, {})


def _read_jsonl(path: str | Path):
    """Yield (line_no, parsed object) for each non-blank line of a JSONL file."""
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(str(p), line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise MalformedLine(str(p), line_no, "expected a JSON object")
            yield line_no, obj


def _require_str(obj: dict, key: str, path: str, line_no: int, allow_empty: bool = False) -> str:
    if key not in obj:
        raise MalformedLine(path, line_no, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise MalformedLine(path, line_no, f"field {key!r} must be a string")
    if not allow_empty and not value:
        raise MalformedLine(path, line_no, f"field {key!r} must be non-empty")
    return value


def load_corpus(path: str | Path) -> dict[str, Document]:
    """Load corpus.jsonl into an id -> Document mapping, preserving file order."""
    corpus: dict[str, Document] = {}
    for line_no, obj in _read_jsonl(path):
        doc_id = _require_str(obj, "_id", str(path), line_no)
        title = _require_str(obj, "title", str(path), line_no, allow_empty=True)
        text = _require_str(obj, "text", str(path), line_no, allow_empty=True)
        if not title and not text:
            raise MalformedLine(str(path), line_no, "title and text are both empty")
        if doc_id in corpus:
            raise DuplicateId(f"{path}:{line_no}: duplicate document id {doc_id!r}")
        corpus[doc_id] = Document(id=doc_id, title=title, text=text)
    return corpus


def load_queries(path: str | Path) -> list[Query]:
    """Load queries.jsonl in file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        qid = _require_str(obj, "_id", str(path), line_no)
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
    with p.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedRow(str(p), line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            qid, doc_id, raw_grade = (f.strip() for f in fields)
            try:
                grade = int(raw_grade)
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise MalformedRow(str(p), line_no, f"grade {raw_grade!r} is not an integer") from None
            if grade < 0:
                raise NegativeGrade(f"{p}:{line_no}: grade {grade} for query {qid!r}")
            if not qid or not doc_id:
                raise MalformedRow(str(p), line_no, "empty query or document id")
            per_query = judgments.setdefault(qid, {})
            if doc_id in per_query:
                log.warning("%s:%d: duplicate judgment for (%s, %s), keeping the last", p, line_no, qid, doc_id)
            per_query[doc_id] = grade
    return QRels(judgments=judgments)


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
                if "negative" in obj
                else "",
            )
        )
    return out


def load_example_pool(path: str | Path, task_id: str) -> ExamplePool:
    """Load pool.jsonl as the in-context candidate pool for one task."""
    examples: list[ICExample] = []
    for line_no, obj in _read_jsonl(path):
        query = _require_str(obj, "query", str(path), line_no)
        positive = _require_str(obj, "positive", str(path), line_no)
        negative: str | None = None
        if "negative" in obj and obj["negative"] is not None:
            negative = _require_str(obj, "negative", str(path), line_no)
        examples.append(ICExample(query=query, positive=positive, negative=negative))
    if not examples:
        raise EmptyPool(f"{path}: example pool is empty")
    return ExamplePool(task_id=task_id, examples=examples)


def write_corpus(corpus: dict[str, Document], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in corpus.values():
            fh.write(json.dumps({"_id": doc.id, "title": doc.title, "text": doc.text}, ensure_ascii=False))
            fh.write("\n")


def write_queries(queries: list[Query], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps({"_id": q.id, "text": q.text}, ensure_ascii=False))
            fh.write("\n")


def write_qrels(qrels: QRels, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("query-id\tcorpus-id\tscore\n")
        for qid, per_query in qrels.judgments.items():
            for doc_id, grade in per_query.items():
                fh.write(f"{qid}\t{doc_id}\t{grade}\n")


def write_train(examples: list[TrainExample], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "task_id": ex.task_id,
                        "instruction": ex.instruction,
                        "query": ex.query,
                        "positive": ex.positive,
                        "negative": ex.negative,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def write_pool(pool: ExamplePool, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in pool.examples:
            obj: dict[str, str] = {"query": ex.query, "positive": ex.positive}
            if ex.negative is not None:
                obj["negative"] = ex.negative
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")
