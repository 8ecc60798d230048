"""Exact dense retrieval over a flat embedding index.

The index holds one row per document, embedding `title + " " + text`. Search
is a full dot product against every row followed by top-K selection, so the
result is exact: scores descending, ties broken by ascending document id.
"""

from __future__ import annotations

import logging
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bm25
from .binfile import Reader
from .data import Document, ExamplePool, Query
from .embedder import EmbedderParams, embed
from .errors import DimMismatch, EmptyCorpus, MalformedRow
from .prompt import FormatKind, PromptFormat, render_inst, render_inst_ic
from .trainer import SelectionPolicy, select_examples

log = logging.getLogger(__name__)

MAGIC = b"RFI1"
VERSION = 1


@dataclass
class FlatIndex:
    ids: list[str]
    matrix: np.ndarray  # (n, dim) float64, rows unit norm or zero
    dim: int
    _ids_arr: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    def ids_array(self) -> np.ndarray:
        if self._ids_arr is None:
            self._ids_arr = np.array(self.ids)
        return self._ids_arr


def document_text(doc: Document) -> str:
    return doc.title + " " + doc.text


def build_flat_index(corpus: dict[str, Document], params: EmbedderParams) -> FlatIndex:
    """Embed every document, rows in corpus iteration order."""
    if not corpus:
        raise EmptyCorpus("cannot index an empty corpus")
    docs = list(corpus.values())
    matrix = np.stack([embed(params, document_text(d)) for d in docs])
    return FlatIndex(ids=[d.id for d in docs], matrix=matrix, dim=params.embed_dim)


def search(index: FlatIndex, q_emb: np.ndarray, top_k: int) -> list[tuple[str, float]]:
    """Exact top-K by dot product; ties and the all-zero case order by doc id."""
    if q_emb.shape != (index.dim,):
        raise DimMismatch(f"query dim {q_emb.shape} does not match index dim ({index.dim},)")
    if top_k <= 0:
        return []
    scores = index.matrix @ q_emb
    if not np.any(scores):
        log.warning("query embedding is all zeros; ranking by document id")
    order = np.lexsort((index.ids_array(), -scores))
    top = order[: min(top_k, len(index.ids))]
    return [(index.ids[i], float(scores[i])) for i in top]


def run_inference(
    queries: list[Query],
    instruction: str,
    pool: ExamplePool | None,
    ic_index: bm25.Bm25Index | None,
    index: FlatIndex,
    params: EmbedderParams,
    fmt: PromptFormat,
    k: int,
    top_k: int,
    selection: SelectionPolicy = SelectionPolicy.RETRIEVED,
    seed: int = 0,
) -> dict[str, list[tuple[str, float]]]:
    """Augment, embed and search every query; returns qid -> ranked list.

    With fmt.kind == INST or k == 0 the example pool is never consulted, so
    `pool` and `ic_index` may be None in that case.
    """
    uses_examples = fmt.kind is not FormatKind.INST and k > 0
    if uses_examples and (pool is None or ic_index is None):
        raise ValueError("this format needs an example pool and its BM25 index")
    rng = random.Random(f"{seed}:eval-select")
    run: dict[str, list[tuple[str, float]]] = {}
    for query in queries:
        if uses_examples:
            examples = select_examples(pool, ic_index, query.text, k, selection, rng)
            aug = render_inst_ic(instruction, examples, query.text, fmt)
        else:
            aug = render_inst(instruction, query.text, fmt.bracket_queries)
        run[query.id] = search(index, embed(params, aug.text), top_k)
    return run


def write_run(run: dict[str, list[tuple[str, float]]], path: str | Path, tag: str = "rare") -> None:
    """Write a TREC run file: qid Q0 docid rank score tag."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for qid, ranked in run.items():
            for rank, (doc_id, score) in enumerate(ranked, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def load_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    run: dict[str, list[tuple[str, float]]] = {}
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise MalformedRow(str(p), line_no, f"expected 6 fields, got {len(fields)}")
            qid, _, doc_id, _, score, _ = fields
            try:
                run.setdefault(qid, []).append((doc_id, float(score)))
            except ValueError:
                raise MalformedRow(str(p), line_no, f"score {score!r} is not a number") from None
    return run


def save_index(index: FlatIndex, path: str | Path) -> None:
    """Serialize: magic RFI1, u32 version, u64 n, u64 dim, ids, row-major float64."""
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<QQ", len(index.ids), index.dim))
        for doc_id in index.ids:
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())


def load_flat_index(path: str | Path) -> FlatIndex:
    rd = Reader(path, MAGIC, VERSION, "index")
    n, dim = rd.unpack("<QQ")
    ids = [rd.text() for _ in range(n)]
    matrix = rd.matrix(n, dim)
    rd.end()
    return FlatIndex(ids=ids, matrix=matrix, dim=int(dim))
