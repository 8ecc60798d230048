"""Hashed n-gram text embedder with a learnable linear projection.

A text is tokenized with the BM25 tokenizer, expanded into n-grams of the
configured orders, and each n-gram is hashed into one of `hash_dim` buckets
with a seeded, process-independent hash. Bucket counts normalized by the
total n-gram count form a sparse feature vector x; the embedding is the
L2-normalized projection W @ x. Texts producing no n-grams embed to the zero
vector, and cosine against a zero vector is defined as 0. One text, a query
for `embed` or a training text for `featurize`, goes through `_text_features`
and its caller's gram memo. Many texts go through `embed_ranges`, in ranges
and chunks that forked workers may featurize; `embed_many` gathers the rows.

W is held column-major (Fortran order), so the columns of a text's buckets
are contiguous 8 * embed_dim-byte reads. The RARE1 file (version 2) stores
the same bytes: W column-major, which is the row-major (hash_dim, embed_dim)
matrix Wᵀ.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections import deque, namedtuple
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, pairwise
from pathlib import Path

import numpy as np

from . import DEFAULT_EMBED_DIM, DEFAULT_HASH_DIM, DEFAULT_NGRAM_ORDERS
from .binfile import Reader
from .bm25 import tokenize
from .errors import DimMismatch, NonFiniteParams, SerializationError, SpecInvalid, WorkerLost

MAGIC = b"RARE1"
VERSION = 2


@dataclass
class EmbedderParams:
    hash_dim: int
    embed_dim: int
    ngram_orders: tuple[int, ...]
    projection: np.ndarray  # (embed_dim, hash_dim) float64, column-major
    hash_seed: int
    max_tokens: int | None = None


def new_params(
    hash_dim: int = DEFAULT_HASH_DIM,
    embed_dim: int = DEFAULT_EMBED_DIM,
    ngram_orders: tuple[int, ...] = DEFAULT_NGRAM_ORDERS,
    seed: int = 0,
    max_tokens: int | None = None,
) -> EmbedderParams:
    """Fresh parameters with W drawn i.i.d. uniform on [-1/sqrt(V), 1/sqrt(V)]."""
    orders = tuple(sorted(set(int(n) for n in ngram_orders)))
    problem = _shape_problem(hash_dim, embed_dim, orders)
    if problem:
        raise ValueError(problem)
    bound = 1.0 / np.sqrt(hash_dim)
    rng = np.random.default_rng(seed)
    # Drawn 8 rows at a time into the column-major W: the same numbers as one
    # (embed_dim, hash_dim) draw, without a 32 MiB C-order copy at the defaults.
    try:
        projection = np.empty((embed_dim, hash_dim), order="F")
    except (ValueError, MemoryError):  # a size numpy cannot address, or the machine cannot map
        raise SpecInvalid(f"a {embed_dim} x {hash_dim} projection is too large to allocate") from None
    for start in range(0, embed_dim, 8):
        rows = min(8, embed_dim - start)
        projection[start : start + rows] = rng.uniform(-bound, bound, size=(rows, hash_dim))
    return EmbedderParams(
        hash_dim=hash_dim,
        embed_dim=embed_dim,
        ngram_orders=orders,
        projection=projection,
        hash_seed=seed,
        max_tokens=max_tokens,
    )


def _shape_problem(hash_dim: int, embed_dim: int, orders: tuple[int, ...]) -> str | None:
    """Why these dimensions and n-gram orders cannot make an embedder, if they cannot."""
    if hash_dim < 1 or embed_dim < 1:
        return "hash_dim and embed_dim must be positive"
    if not orders or min(orders) < 1:
        return "ngram orders must be positive integers"
    return None


# hits are gram lookups answered from a memo, misses are gram hashes.
CacheInfo = namedtuple("CacheInfo", "hits misses")


class _GramCounts:
    """The process's gram lookups and hashes, its featurizing workers' included."""

    lookups = hashes = 0  # each instance counts from these

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.lookups - self.hashes, self.hashes)


_bucket = _GramCounts()


class Memo(dict):
    """A gram -> bucket memo for one model's `hash_seed` and `hash_dim`,
    emptied once a lookup leaves it holding more than `cap` grams.

    A gram's bucket depends on nothing else, so the memo is exact for that
    model, and `buckets` refuses any other. Its owner sets the cap and hands
    it to `embed` or `featurize`: `retrieve.run_inference` one over a run's
    queries, `trainer.Features` one over a training run.
    """

    def __init__(self, params: EmbedderParams, cap: int) -> None:
        super().__init__()
        self.model = (params.hash_seed, params.hash_dim)
        self.cap = cap

    def buckets(self, params: EmbedderParams, grams: list[str]) -> np.ndarray:
        """Each gram's bucket, as int64: each distinct gram the memo lacks is
        hashed once and added to it, and `_bucket` counts every lookup and hash."""
        if (params.hash_seed, params.hash_dim) != self.model:
            raise DimMismatch(
                f"a gram memo for hash seed {self.model[0]} and hash_dim {self.model[1]} cannot serve "
                f"hash seed {params.hash_seed} and hash_dim {params.hash_dim}"
            )
        fresh = set(filterfalse(self.__contains__, grams))
        _bucket.lookups += len(grams)
        _bucket.hashes += len(fresh)
        # blake2b keyed by the seed, copied per gram: a copy skips the key block.
        keyed = hashlib.blake2b(digest_size=8, key=(params.hash_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        copy, digests = keyed.copy, []
        add = digests.append
        for gram in map(str.encode, fresh):
            h = copy()
            h.update(gram)
            add(h.digest())
        self.update(zip(fresh, (np.frombuffer(b"".join(digests), dtype="<u8") % params.hash_dim).tolist()))
        out = np.fromiter(map(self.__getitem__, grams), dtype=np.int64, count=len(grams))
        if len(self) > self.cap:
            self.clear()
        return out


# `embed_ranges` hands out texts in ranges of this many, and hashes and counts
# the grams of a range this many at a time. 256 texts of an L corpus are about
# one chunk, so what a worker returns stays small while the ranges stream.
# More than four ranges (1,024 texts) go to forked workers.
_TASK_TEXTS = 1 << 8
_CHUNK_GRAMS = 1 << 14

# A chunk's `_features`: its texts' buckets, their values, and each text's end.
_Chunk = tuple[np.ndarray, np.ndarray, list[int]]


def _grams(params: EmbedderParams, text: str) -> list[str]:
    """The text's n-grams, one order after another, each in text order."""
    tokens = tokenize(text)
    if params.max_tokens is not None:
        tokens = tokens[: params.max_tokens]
    return list(chain.from_iterable(  # an order past the text costs one empty slice, not `order`
        map(" ".join, zip(*(tokens[j:] for j in range(min(order, len(tokens) + 1)))))
        for order in params.ngram_orders
    ))


def _features(params: EmbedderParams, grams: list[str], lens: list[int], memo: Memo | None = None) -> _Chunk:
    """Each text's buckets in the order its grams first reach them, and each
    bucket's count over the text's gram count.

    `grams` holds the texts' grams back to back, `lens[i]` text i's number.
    They are hashed through `memo` (see `Memo.buckets`), or through a memo
    that lives for this call without one. Returns `(cols, vals, ends)`: text
    i's features are `cols[ends[i-1]:ends[i]]` and the same of `vals`.
    """
    n = len(grams)
    buckets = (Memo(params, n) if memo is None else memo).buckets(params, grams)
    text = np.repeat(np.arange(len(lens)), lens)
    # A stable sort keeps each (text, bucket) run in gram order, so a run's
    # head is the first occurrence; its count goes at that gram's position.
    perm = buckets.argsort(kind="stable")
    sorted_buckets, sorted_text = buckets[perm], text[perm]
    head = np.ones(n + 1, dtype=bool)  # run heads, and n to close the last run
    np.not_equal(sorted_buckets[1:], sorted_buckets[:-1], out=head[1:n])
    head[1:n] |= sorted_text[1:] != sorted_text[:-1]
    head = head.nonzero()[0]
    counts = np.zeros(n, dtype=np.int64)
    counts[perm[head[:-1]]] = head[1:] - head[:-1]
    first = counts.nonzero()[0]  # text by text, in first-occurrence order
    text = text[first]
    ends = np.bincount(text, minlength=len(lens)).cumsum().tolist()
    return buckets[first], counts[first] / np.asarray(lens)[text], ends


def _text_features(params: EmbedderParams, text: str, memo: Memo | None) -> tuple[np.ndarray, np.ndarray]:
    """One text's buckets in first-occurrence order and their values, hashed through `memo` (see `_features`)."""
    grams = _grams(params, text)
    return _features(params, grams, [len(grams)], memo)[:2]


def featurize(params: EmbedderParams, text: str, memo: Memo | None = None) -> dict[int, float]:
    """Sparse hashed n-gram features; values sum to 1 when any gram exists.

    Buckets keep the order their first gram reaches them, orders in turn;
    `project` sums in that order, and that order decides the bits. The grams
    are hashed through `memo` (see `_features`).
    """
    cols, vals = _text_features(params, text, memo)
    return dict(zip(cols.tolist(), vals.tolist()))


def feature_arrays(feats: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """`featurize`'s buckets and values as the int64 and float64 arrays `project` takes, in order."""
    return (np.fromiter(feats.keys(), dtype=np.int64, count=len(feats)),
            np.fromiter(feats.values(), dtype=np.float64, count=len(feats)))


def project(params: EmbedderParams, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Unnormalized projection W @ x, where x[cols] = vals (zero for no cols).

    The order of `cols` decides the bits: callers keep `featurize`'s order.
    """
    u = params.projection[:, cols] @ vals
    if not np.isfinite(u).all():
        raise NonFiniteParams("projection produced non-finite values")
    return u


def unit(u: np.ndarray) -> tuple[np.ndarray, float]:
    """`u / ||u||` and `||u||`, or the zero vector and 0.0 when `u` is zero.

    Finite entries of about 1e154 or more overflow the norm to infinity, and
    `u / inf` would be a silent zero embedding, so that is an error. So is a
    nonzero norm below 2**-511: its squares are subnormal, and `u / norm` could
    hold entries above 1, outside the range `retrieve.search` takes.
    """
    norm = math.sqrt(u @ u)  # what np.linalg.norm evaluates for 1-D float64: its bits
    if not math.isfinite(norm):
        raise NonFiniteParams("embedding norm overflowed")
    if norm < 2.0**-511:
        if u.any():
            raise NonFiniteParams("embedding norm underflowed")
        return np.zeros(u.shape), 0.0
    return u / norm, norm


def embed(params: EmbedderParams, text: str, memo: Memo | None = None) -> np.ndarray:
    """The text's row of `embed_many`, bit for bit (zero if gram-free), its grams hashed through `memo`."""
    return unit(project(params, *_text_features(params, text, memo)))[0]


def embed_many(params: EmbedderParams, texts: Sequence[str]) -> np.ndarray:
    """Each text's unit-norm embedding (zero for gram-free text), one row each:
    the rows of `embed_ranges`, gathered into one array."""
    out = np.empty((len(texts), params.embed_dim))
    row = 0
    for rows in embed_ranges(params, texts):
        out[row : row + len(rows)] = rows
        row += len(rows)
    return out


def embed_ranges(params: EmbedderParams, texts: Sequence[str]) -> Iterator[np.ndarray]:
    """`embed_many`'s rows, one array per range of `_TASK_TEXTS` texts, each
    yielded once it is projected, so a caller that writes them out never
    holds every row.

    A range goes in chunks of about `_CHUNK_GRAMS` grams: each distinct gram
    of a chunk is hashed once into a memo that lives for the chunk, and the
    chunk's buckets are counted in one pass. With more than four ranges
    (more than 1,024 texts) and more than one usable CPU, forked workers
    featurize the ranges (see `_range_features`); this process projects
    every row in text order either way. Each row is its own `project` gemv,
    so a text's row has the same bits in any batch and on any number of
    CPUs; a gemm over the chunk would not give a gemv's bits. Close the
    generator if it is left early: that ends the workers.
    """
    with closing(_range_features(params, texts)) as ranges:  # its workers end before an error leaves here
        for chunks in ranges:
            rows = np.empty((sum(len(ends) for _, _, ends in chunks), params.embed_dim))
            row = 0
            for cols, vals, ends in chunks:
                for start, end in pairwise([0, *ends]):
                    rows[row] = unit(project(params, cols[start:end], vals[start:end]))[0]
                    row += 1
            yield rows


def _range_features(params: EmbedderParams, texts: Sequence[str]) -> Iterator[list[_Chunk]]:
    """`_chunks` of each range of `_TASK_TEXTS` texts, in text order.

    Stays in this process when there are at most four ranges (at most 1,024
    texts, as the 320-document synth corpus), one usable CPU, or no
    `fork` or `os.sched_getaffinity` (as off Linux). Otherwise `min(usable
    CPUs, ranges)` workers forked from this process inherit `params` and
    `texts`, so only range starts go to them and only chunks and counts come
    back; their gram lookups and hashes are added to `_bucket`. No worker
    outlives the call: the pool is shut down, pending ranges cancelled, once
    the caller closes this generator.
    """
    starts = range(0, len(texts), _TASK_TEXTS)
    workers = 1
    if len(starts) > 4 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(starts))
    if workers < 2:
        yield from (_chunks(params, texts, start) for start in starts)
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context

    # The fork start flushes the std streams before each fork, so nothing
    # buffered here is printed again by a worker as it ends.
    pool = ProcessPoolExecutor(workers, get_context("fork"), initializer=_inherit, initargs=(params, texts))
    try:
        # At most eight ranges (2,048 texts) per worker are out at a time, so
        # finished ranges that this process has not projected yet cannot pile
        # up in memory; fewer left the workers idle while this process lagged.
        queued = iter(starts)
        futures = deque(pool.submit(_worker_chunks, start) for start in islice(queued, 8 * workers))
        while futures:
            chunks, lookups, hashes = futures.popleft().result()
            futures.extend(pool.submit(_worker_chunks, start) for start in islice(queued, 1))
            _bucket.lookups += lookups
            _bucket.hashes += hashes
            yield chunks
    except BrokenProcessPool:
        raise WorkerLost("a featurizing worker process ended before returning its texts") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _chunks(params: EmbedderParams, texts: Sequence[str], start: int) -> list[_Chunk]:
    """The `_features` of texts[start : start + _TASK_TEXTS], one per chunk
    of about `_CHUNK_GRAMS` grams, each through a memo of its own: a chunk
    ends with the text that brings it to that many, or with the range. On an
    L corpus a range is about one chunk, so smaller ranges would hash more."""
    stop = min(start + _TASK_TEXTS, len(texts))
    chunks, grams, lens = [], [], []
    for row in range(start, stop):  # by row: `texts` may not slice
        text_grams = _grams(params, texts[row])
        grams += text_grams
        lens.append(len(text_grams))
        if len(grams) >= _CHUNK_GRAMS or row == stop - 1:
            chunks.append(_features(params, grams, lens))
            grams, lens = [], []
    return chunks


_inherited: tuple[EmbedderParams, Sequence[str]] | None = None  # set in a featurizing worker only


def _inherit(params: EmbedderParams, texts: Sequence[str]) -> None:
    """A worker's initializer: keep what the fork handed over."""
    global _inherited
    _inherited = params, texts


def _worker_chunks(start: int) -> tuple[list[_Chunk], int, int]:
    """`_chunks` of one range in a worker, with the gram lookups and hashes it made."""
    _bucket.lookups = _bucket.hashes = 0
    chunks = _chunks(*_inherited, start)
    return chunks, _bucket.lookups, _bucket.hashes


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit-or-zero vectors; 0 if either is the zero vector."""
    if a.shape != b.shape:
        raise DimMismatch(f"embedding shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def save(params: EmbedderParams, path: str | Path) -> None:
    """Write parameters: magic RARE1, little-endian header, column-major float64 W."""
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<QQ", params.hash_dim, params.embed_dim))
        fh.write(struct.pack("<I", len(params.ngram_orders)))
        fh.write(struct.pack(f"<{len(params.ngram_orders)}I", *params.ngram_orders))
        fh.write(struct.pack("<q", params.hash_seed))
        fh.write(struct.pack("<Q", params.max_tokens or 0))
        fh.write(np.asfortranarray(params.projection, dtype="<f8").T)


def load(path: str | Path) -> EmbedderParams:
    with Reader(path, MAGIC, VERSION, "model") as rd:
        hash_dim, embed_dim = rd.unpack("<QQ")
        (n_orders,) = rd.unpack("<I")
        orders = rd.unpack(f"<{n_orders}I")
        (hash_seed,) = rd.unpack("<q")
        (raw_max,) = rd.unpack("<Q")
        problem = _shape_problem(hash_dim, embed_dim, orders)
        if problem:
            raise SerializationError(f"{path}: {problem}")
        projection = rd.matrix(hash_dim, embed_dim).T
        rd.end()
    return EmbedderParams(
        hash_dim=int(hash_dim),
        embed_dim=int(embed_dim),
        ngram_orders=tuple(int(n) for n in orders),
        projection=projection,
        hash_seed=int(hash_seed),
        max_tokens=int(raw_max) or None,
    )
