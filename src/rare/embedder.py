"""Hashed n-gram text embedder with a learnable linear projection.

A text is tokenized with the BM25 tokenizer, expanded into n-grams of the
configured orders, and each n-gram is hashed into one of `hash_dim` buckets
with a seeded, process-independent hash. Bucket counts normalized by the
total n-gram count form a sparse feature vector x; the embedding is the
L2-normalized projection W @ x. Texts producing no n-grams embed to the zero
vector, and cosine against a zero vector is defined as 0.

W is held column-major (Fortran order), so the columns of a text's buckets
are contiguous 8 * embed_dim-byte reads. The RARE1 file (version 2) stores
the same bytes: W column-major, which is the row-major (hash_dim, embed_dim)
matrix Wᵀ.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .binfile import Reader
from .bm25 import tokenize
from .errors import DimMismatch, NonFiniteParams, SerializationError

MAGIC = b"RARE1"
VERSION = 2

DEFAULT_HASH_DIM = 1 << 16
DEFAULT_EMBED_DIM = 64
DEFAULT_NGRAM_ORDERS = (1, 2)


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
    projection = np.asfortranarray(rng.uniform(-bound, bound, size=(embed_dim, hash_dim)))
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


@lru_cache(maxsize=1 << 16)  # a train sees ~13k distinct grams; an L index ~630k at ~270 B each
def _bucket(hash_seed: int, hash_dim: int, gram: str) -> int:
    key = (hash_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % hash_dim


def featurize(params: EmbedderParams, text: str) -> dict[int, float]:
    """Sparse hashed n-gram features; values sum to 1 when any gram exists."""
    tokens = tokenize(text)
    if params.max_tokens is not None:
        tokens = tokens[: params.max_tokens]
    counts: dict[int, int] = {}
    total = 0
    for order in params.ngram_orders:
        if len(tokens) < order:
            continue
        for i in range(len(tokens) - order + 1):
            gram = " ".join(tokens[i : i + order])
            bucket = _bucket(params.hash_seed, params.hash_dim, gram)
            counts[bucket] = counts.get(bucket, 0) + 1
            total += 1
    if total == 0:
        return {}
    return {bucket: count / total for bucket, count in counts.items()}


def project(params: EmbedderParams, feats: dict[int, float]) -> np.ndarray:
    """Unnormalized projection W @ x of a sparse feature vector."""
    if not feats:
        return np.zeros(params.embed_dim)
    cols = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
    vals = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
    u = params.projection[:, cols] @ vals
    if not np.all(np.isfinite(u)):
        raise NonFiniteParams("projection produced non-finite values")
    return u


def unit(u: np.ndarray) -> tuple[np.ndarray, float]:
    """`u / ||u||` and `||u||`, or the zero vector and 0.0 when `u` is zero.

    Finite entries of about 1e154 or more overflow the norm to infinity, and
    `u / inf` would be a silent zero embedding, so that is an error.
    """
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return np.zeros(u.shape), 0.0
    if not np.isfinite(norm):
        raise NonFiniteParams("embedding norm overflowed")
    return u / norm, norm


def embed(params: EmbedderParams, text: str) -> np.ndarray:
    """Unit-norm embedding of `text`, or the zero vector for gram-free text."""
    return unit(project(params, featurize(params, text)))[0]


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
    rd = Reader(path, MAGIC, VERSION, "model")
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
