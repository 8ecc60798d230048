"""Exact dense retrieval over a flat embedding index.

The index holds one row per document, embedding `title + " " + text`. Search
is a full dot product against every row followed by top-K selection, so the
result is exact: scores descending, ties broken by ascending document id.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader
from .data import Document, ExamplePool, Query
from .embedder import EmbedderParams, embed
from .errors import DimMismatch, EmptyCorpus, MalformedRow, SpecInvalid
from .prompt import PromptFormat, render_inst, render_inst_ic
from .trainer import SelectionPolicy, select_examples

MAGIC = b"RFI1"
VERSION = 1


@dataclass
class FlatIndex:
    ids: list[str]
    matrix: np.ndarray  # (n, dim) float64, rows unit norm or zero
    dim: int

    def __len__(self) -> int:
        return len(self.ids)


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
    """Exact top-K by dot product; ties and the all-zero case order by doc id.

    The k-th best score is found by partial selection. Every row scoring at
    least that much is kept, so a tie at the boundary cannot drop the row
    with the smaller id, and only those rows are sorted.
    """
    if q_emb.shape != (index.dim,):
        raise DimMismatch(f"query dim {q_emb.shape} does not match index dim ({index.dim},)")
    if top_k <= 0:
        return []
    scores = index.matrix @ q_emb
    n = len(scores)
    if top_k < n:
        kth = np.partition(scores, n - top_k)[n - top_k]
        rows = np.flatnonzero(scores >= kth).tolist()
    else:
        rows = range(n)
    ids = index.ids
    ranked = sorted(rows, key=lambda row: (-scores[row], ids[row]))[:top_k]
    return [(ids[row], float(scores[row])) for row in ranked]


@dataclass
class StageTimes:
    """Seconds per inference stage and rendered tokens, summed over calls."""

    select_s: float = 0.0
    query_s: float = 0.0  # render + embed
    search_s: float = 0.0
    tokens: int = 0  # whitespace tokens of every rendered query
    queries: int = 0
    zero_queries: int = 0  # queries that embed to all zeros; they rank by doc id


def run_inference(
    queries: list[Query],
    instruction: str,
    pool: ExamplePool | None,
    index: FlatIndex,
    params: EmbedderParams,
    fmt: PromptFormat,
    k: int,
    top_k: int,
    selection: SelectionPolicy = SelectionPolicy.RETRIEVED,
    seed: int = 0,
    times: StageTimes | None = None,
) -> dict[str, list[tuple[str, float]]]:
    """Augment, embed and search every query; returns qid -> ranked list.

    When the format uses no examples (fmt.uses_examples(k) is false) the pool
    is never consulted and may be None. Stage seconds, rendered tokens and
    the count of all-zero query embeddings are added into `times` when one is
    given.
    """
    uses_examples = fmt.uses_examples(k)
    if uses_examples and pool is None:
        raise SpecInvalid(f"format {fmt.kind.value} with k={k} needs an example pool")
    pool_index = pool.bm25_index() if uses_examples else None
    if times is None:
        times = StageTimes()
    clock = time.perf_counter
    rng = random.Random(f"{seed}:eval-select")
    run: dict[str, list[tuple[str, float]]] = {}
    for query in queries:
        t0 = clock()
        if uses_examples:
            examples = select_examples(pool, pool_index, query.text, k, selection, rng)
            t1 = clock()
            times.select_s += t1 - t0
            t0 = t1
            aug = render_inst_ic(instruction, examples, query.text, fmt)
        else:
            aug = render_inst(instruction, query.text, fmt.bracket_queries)
        emb = embed(params, aug.text)
        t1 = clock()
        run[query.id] = search(index, emb, top_k)
        times.query_s += t1 - t0
        times.search_s += clock() - t1
        times.tokens += aug.approx_len
        times.queries += 1
        if not emb.any():
            times.zero_queries += 1
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
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f8"))


def load_flat_index(path: str | Path) -> FlatIndex:
    rd = Reader(path, MAGIC, VERSION, "index")
    n, dim = rd.unpack("<QQ")
    ids = [rd.text() for _ in range(n)]
    matrix = rd.matrix(n, dim)
    rd.end()
    return FlatIndex(ids=ids, matrix=matrix, dim=int(dim))
