"""Exact dense retrieval over a flat embedding index.

The index holds one row per document, embedding `title + " " + text`. Every
entry of the index and of a query lies in [-1, 1], as in the unit-or-zero
vectors `embed` makes; search rejects anything else. Search is exact in two
passes: a float32 scan of every row picks the candidates that can reach the
top K, and only their 4-row blocks are scored again in float64. The result
is the float64 top K with the float64 scores: scores descending, ties broken
by ascending document id. An index file names the model it was built with
by the sha256 of the model file.

`ablate`, `bench` and library callers build an index in memory. `rare index`
builds into an `IndexWriter`, which writes the header and ids first and each
range of rows as it is projected. A loaded index keeps its float64 rows in
the file: it holds the float32 scan copy, built from slices of the file, and
reads each query's candidate blocks with `os.preadv`. It holds its ids as
the file's id block (`binfile.StringTable`), so search decodes the ids of
the rows it returns and of rows tied on score, and no others.
`run_inference` hashes its queries' grams through one `embedder.Memo`.
"""

from __future__ import annotations

import math
import os
import random
import struct
import time
from collections.abc import Mapping, Sequence
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .binfile import Reader, StoredMatrix, row_slices
from .data import Document, ExamplePool, Query
from .embedder import EmbedderParams, Memo, embed, embed_many, embed_ranges
from .errors import DataError, DimMismatch, EmptyCorpus, SpecInvalid, VersionMismatch
from .prompt import PromptFormat, SelectionPolicy, render_inst, render_inst_ic
from .trainer import select_examples

MAGIC = b"RFI1"
VERSION = 2


class FlatIndex:
    """One row per document, in `ids` order, every entry in [-1, 1].

    `ids` is a list for an index built in memory and a `StringTable` for a
    loaded one.

    The rows are an `(n, dim)` C-order float64 array held in memory, or a
    `StoredMatrix` left in the index file that `load_flat_index` or
    `build_flat_index` with an `IndexWriter` keeps open. Search touches the
    float64 rows only through slices and gathered rows, so a stored index
    holds no more than its float32 `scan` copy; `matrix` reads a stored index
    whole on each access. The rows are fixed once searched.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray | StoredMatrix, dim: int, model: str | None = None):
        self.ids = ids
        self.rows = matrix
        self.dim = dim
        self.model = model  # sha256 hex digest of the model file; None for an index built in memory
        self._scan: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def matrix(self) -> np.ndarray:
        rows = self.rows
        return rows if isinstance(rows, np.ndarray) else rows[:]

    def scan(self) -> np.ndarray:
        """The float32 copy of the rows, built on first use one row slice at
        a time, each checked to lie in [-1, 1] (NaN fails the check)."""
        if self._scan is None:
            rows = self.rows
            scan = np.empty(rows.shape, dtype=np.float32)
            for start, stop in row_slices(*rows.shape):
                part = rows[start:stop]
                if not max(part.max(initial=0.0), -part.min(initial=0.0)) <= 1.0:
                    raise DataError("index entries must lie in [-1, 1]; rebuild it with `rare index`")
                scan[start:stop] = part
            self._scan = scan
        return self._scan


def document_text(doc: Document) -> str:
    return doc.title + " " + doc.text


class _Texts(Sequence):
    """`document_text(corpus[id])` for each id, made when it is read. An index
    build then holds no document it is not embedding, and with a file-backed
    `data.Corpus` the forked featurizing workers each read their own lines."""

    def __init__(self, corpus: Mapping[str, Document], ids: list[str]) -> None:
        self.corpus = corpus
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> str:
        return document_text(self.corpus[self.ids[row]])


def build_flat_index(
    corpus: Mapping[str, Document], params: EmbedderParams, out: IndexWriter | None = None
) -> FlatIndex:
    """Embed every document, rows in corpus iteration order.

    With `out`, the header and ids are written first and each range of rows
    as soon as it is projected, so no `(n, dim)` array is ever held; the
    index returned reads its rows back from that file.
    """
    if not corpus:
        raise EmptyCorpus("cannot index an empty corpus")
    ids = list(corpus)
    if out is None:
        return FlatIndex(ids=ids, matrix=embed_many(params, _Texts(corpus, ids)), dim=params.embed_dim)
    out.begin(ids, params.embed_dim)
    with closing(embed_ranges(params, _Texts(corpus, ids))) as ranges:
        for rows in ranges:
            out.write(rows)
    return FlatIndex(ids=ids, matrix=out, dim=params.embed_dim, model=out.model)


def search(index: FlatIndex, q_emb: np.ndarray, top_k: int) -> list[tuple[str, float]]:
    """Exact top-K by dot product; ties and the all-zero case order by doc id.

    Returns the float64 scores `index.matrix @ q_emb` would give on one
    BLAS thread, but computes them only for the rows `_rescore_rows` picks
    from a float32 scan, and sorts only those rows. They include every row
    scoring at least the k-th best, so a tie at the boundary cannot drop the
    row with the smaller id. Only the ids of rows tied on score up to the
    k-th, and of the rows returned, are read.
    """
    if q_emb.shape != (index.dim,):
        raise DimMismatch(f"query dim {q_emb.shape} does not match index dim ({index.dim},)")
    if not np.abs(q_emb).max(initial=0.0) <= 1.0:
        raise DataError("query entries must lie in [-1, 1]")
    if top_k <= 0:
        return []
    # Every factor is finite and in [-1, 1], so no score overflows or is NaN,
    # and underflow stays within `_rescore_rows`' delta: a flag is spurious.
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        rows = _rescore_rows(index.scan(), q_emb, top_k)
        scores = _product(index.rows[rows], q_emb).tolist()
    ids = index.ids
    ranked: list[tuple[float, int]] = []
    for _, tied in groupby(sorted(zip(scores, rows.tolist()), key=itemgetter(0), reverse=True), itemgetter(0)):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda p: ids[p[1]])
        ranked += tied
        if len(ranked) >= top_k:
            break
    return [(ids[row], score) for score, row in ranked[:top_k]]


def _rescore_rows(c32: np.ndarray, q: np.ndarray, top_k: int) -> np.ndarray:
    """The rows to score in float64, in ascending order: whole 4-row blocks
    holding every row of the exact top K, or `arange(n)` when that is every
    row.

    Let `M` be the index matrix, `c32` its float32 copy, `f_i` the float64
    score `(M @ q)[i]`, `f_k` the k-th largest, and `a_i` the float32 score
    of `c32[i]` against `q`. Every entry of `M` and `q` lies in [-1, 1], so
    no score overflows and `|a_i - f_i| <= delta` for every row, with

        delta = (d+2) * 2**-22 * sqrt(d) * |q| + d * 2**-120 + 2*d * 2**-1074.

    The first term bounds the float32 rounding of both factors and of the
    d-term sum, `(d+2) * 2**-24 * |M_i| * |q|` to first order (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1, with Cauchy-Schwarz
    and `|M_i| <= sqrt(d)`), with a factor of 4 that also covers the float64
    rounding of `f_i` and the higher-order terms. The second bounds float32
    underflow: every factor and product is at most 1, and each of the at
    most 3d operands and products that underflows is off by at most
    2**-150. It also covers a query whose `q @ q` underflows: then
    `|q| < 2**-511`, and the first term with the true norm is smaller still.
    The third bounds the underflow of the float64 score itself: d products
    each off by at most 2**-1075, with a factor of 4.

    Take the k rows with the largest `a`. One of them has `f_j <= f_k`, so
    the k-th largest `a`, `kth`, is at most `a_j <= f_k + delta`. Any row
    with `f_i >= f_k` has `a_i >= f_k - delta >= kth - 2*delta`. So the
    candidates `a >= kth - 2*delta` hold every row of the exact top K and
    every row tied with the k-th. Among them the k-th largest float64
    score is again `f_k`, so sorting them in `search` ranks the same top K.

    The candidates' blocks `[4b, 4b+4)` are scored in row order, and a
    candidate in the `n % 4` tail brings `[max(head-4, 0), n)`, with
    `head = n - n % 4`, scored last. OpenBLAS's gemv scores rows in groups
    of four from the first row and the `n % 4` rows after them apart, and a
    product of fewer than four rows can take yet another path. So a row
    gathered this way is computed as in `matrix @ q`, to the bit
    (tests/test_retrieve.py pins this), with `_product`'s chunks.
    """
    n, d = c32.shape
    if top_k >= n:
        return np.arange(n)
    a = c32 @ q.astype(np.float32)
    kth = np.partition(a, n - top_k)[n - top_k]
    delta = (d + 2) * 2.0**-22 * math.sqrt(d) * math.sqrt(q @ q) + d * 2.0**-120 + 2 * d * 2.0**-1074
    candidates = np.flatnonzero(a >= np.float64(kth) - 2 * delta)
    hit = np.zeros(-(-n // 4), dtype=bool)  # one flag per 4-row block; the last covers the n % 4 tail
    hit[candidates >> 2] = True
    tail = n % 4 > 0 and hit[-1]
    if tail:
        hit[-2:] = False  # the tail is scored with the block before it
    blocks = np.flatnonzero(hit)
    tail_rows = np.arange(max(n - n % 4 - 4, 0) if tail else n, n)
    return np.concatenate([(4 * blocks[:, None] + np.arange(4)).ravel(), tail_rows])


# OpenBLAS runs a gemv of this many entries on one thread: 4,096 x 64
# here, where 8,193 x 64 is threaded.
_ONE_THREAD_ENTRIES = 1 << 18


def _product(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`rows @ q` with the bits of a one-thread gemv, on any BLAS thread count.

    A threaded gemv splits the rows at ceil(n / threads), and when that is
    not a multiple of 4, a few rows near the split get the last bit of
    another kernel. So the product runs in chunks of whole 4-row groups
    small enough for one thread, and the `n % 4` tail stays in the last
    chunk: each row is then computed as in a one-thread `rows @ q`.
    """
    n, d = rows.shape
    step = 4 * max(1, _ONE_THREAD_ENTRIES // (4 * max(d, 1)))
    starts = list(range(0, max(n - n % 4, 1), step))
    return np.concatenate([rows[start:end] @ q for start, end in zip(starts, [*starts[1:], n])])


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

    The queries' grams are hashed through one `embedder.Memo` that lives for
    the call, emptied past 4,096 grams (at most 0.46 MiB on L). Neighbouring
    queries carry the same retrieved examples: on L it hashes 141,961 of
    282,240 grams looked up, against 229,632 with a memo per query.

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
    memo = Memo(params, 1 << 12)
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
        emb = embed(params, aug.text, memo)
        t1 = clock()
        run[query.id] = search(index, emb, top_k)
        times.query_s += t1 - t0
        times.search_s += clock() - t1
        times.tokens += aug.approx_len
        times.queries += 1
        if not emb.any():
            times.zero_queries += 1
    return run


class IndexWriter(StoredMatrix):
    """An index file written front to back at `path`: `begin` writes the header
    and ids, `write` appends rows, and they can be read back as a `StoredMatrix`."""

    def __init__(self, path: str | Path, model: str):
        super().__init__(os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666), path, 0, 0, 0)
        self.model = model

    def _write(self, data) -> None:
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(self.fd, view):]

    def begin(self, ids: Sequence[str], dim: int) -> None:
        """Magic RFI1, u32 version, u64 n, u64 dim, the 32-byte sha256 of the
        model file, then each id as a u32 byte length and its UTF-8 bytes."""
        head = bytearray(MAGIC + struct.pack("<IQQ32s", VERSION, len(ids), dim, bytes.fromhex(self.model)))
        for doc_id in ids:  # into one buffer: a list of two small objects per id costs 7 MiB at 32k ids
            raw = doc_id.encode("utf-8")
            head += struct.pack("<I", len(raw))
            head += raw
        self._write(head)
        self.offset = os.lseek(self.fd, 0, os.SEEK_CUR)
        self.shape = (len(ids), dim)

    def write(self, rows: np.ndarray) -> None:
        """Append row-major float64 rows."""
        self._write(np.ascontiguousarray(rows, dtype="<f8"))


def save_index(index: FlatIndex, path: str | Path, model: str) -> None:
    """Write `index` as an RFI1 file (see `IndexWriter.begin`), its rows
    row-major float64 after the ids, naming `model`. An index whose rows are
    stored in the very file at `path` (loaded from it, or built into an
    `IndexWriter` for it) is there already if it names `model`, and an error
    otherwise: writing the file would truncate the rows it reads."""
    rows = index.rows
    if isinstance(rows, StoredMatrix) and os.path.exists(path) and os.path.samestat(os.fstat(rows.fd), os.stat(path)):
        if index.model != model:
            raise DataError(f"{path} holds the rows being saved and names another model; save them to another file")
        return
    with closing(IndexWriter(path, model)) as out:
        out.begin(index.ids, index.dim)
        for start, stop in row_slices(*rows.shape):
            out.write(rows[start:stop])


def load_flat_index(path: str | Path) -> FlatIndex:
    """The index at `path`, its rows left in the file (checked to be finite)."""
    try:
        reader = Reader(path, MAGIC, VERSION, "index")
    except VersionMismatch as exc:
        raise VersionMismatch(f"{exc}; rebuild it with `rare index`") from None
    with reader as rd:
        n, dim, model = rd.unpack("<QQ32s")
        ids = rd.texts(n, trailer=8 * n * dim)
        rows = rd.stored_matrix(n, dim)
        rd.end()
    return FlatIndex(ids=ids, matrix=rows, dim=int(dim), model=model.hex())
