"""Okapi BM25 over the queries of an in-context example pool.

Scoring uses the standard Okapi form. For a query term t against item d:

    idf(t) = ln(1 + (N - n_t + 0.5) / (n_t + 0.5))
    tf_part = tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

with k1 = 1.2 and b = 0.75. Because idf is always positive here,
an item has a positive score exactly when it shares at least one term with
the query.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCollection, OrdinalOutOfRange

K1 = 1.2
B = 0.75

_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip ASCII punctuation off token edges.

    Interior punctuation survives, so "don't" stays one token. Tokens that
    are all punctuation are dropped. No stemming, no stopword removal.
    """
    out: list[str] = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and raw[start] in _PUNCT:
            start += 1
        while end > start and raw[end - 1] in _PUNCT:
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return out


@dataclass(frozen=True)
class TermPostings:
    """Every indexed item containing one term, in ascending ordinal order.

    `denom` is the item's tf plus its length normalisation,
    tf + k1 * (1 - b + b * len(d) / avg_len), so a query only multiplies.
    """

    ordinals: np.ndarray  # int64
    tf: np.ndarray  # float64, whole numbers
    denom: np.ndarray  # float64
    idf: float


@dataclass(frozen=True)
class Bm25Index:
    """Inverted index over a fixed list of texts, addressed by ordinal."""

    postings: dict[str, TermPostings]
    lengths: list[int]
    avg_length: float
    n_items: int


def build_index(texts: list[str]) -> Bm25Index:
    """Index texts by ordinal. Raises EmptyCollection for an empty list."""
    if not texts:
        raise EmptyCollection("cannot build a BM25 index over zero items")
    lists: dict[str, tuple[list[int], list[int]]] = {}
    lengths: list[int] = []
    for ordinal, text in enumerate(texts):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for term, tf in counts.items():
            ordinals, tfs = lists.setdefault(term, ([], []))
            ordinals.append(ordinal)
            tfs.append(tf)
    avg_length = sum(lengths) / len(lengths)
    length_arr = np.array(lengths, dtype=np.float64)
    n_items = len(texts)
    postings: dict[str, TermPostings] = {}
    for term, (ordinals, tfs) in lists.items():
        ords = np.array(ordinals, dtype=np.int64)
        tf = np.array(tfs, dtype=np.float64)
        n_t = len(ordinals)
        postings[term] = TermPostings(
            ordinals=ords,
            tf=tf,
            denom=tf + K1 * (1.0 - B + B * length_arr[ords] / avg_length),
            idf=math.log(1.0 + (n_items - n_t + 0.5) / (n_t + 0.5)),
        )
    return Bm25Index(postings=postings, lengths=lengths, avg_length=avg_length, n_items=n_items)


def top_k_neighbors(
    index: Bm25Index,
    query: str,
    k: int,
    exclude: int | None = None,
) -> list[tuple[int, float]]:
    """The k nearest indexed items to `query`, as (ordinal, score) pairs.

    Items sharing at least one term are ranked by (score desc, ordinal asc).
    If fewer than k items match, zero-score items pad the tail in ordinal
    order. When nothing matches at all the result is empty: with no term
    overlap anywhere there is no meaningful neighborhood to pad from.
    `exclude` drops a single ordinal, used to keep an item out of its own
    neighbor list. Repeated query terms add up.
    """
    if k <= 0:
        return []
    if exclude is not None and not 0 <= exclude < index.n_items:
        raise OrdinalOutOfRange(f"exclude ordinal {exclude} not in [0, {index.n_items})")
    counts: dict[str, int] = {}
    for tok in tokenize(query):
        counts[tok] = counts.get(tok, 0) + 1
    scores = np.zeros(index.n_items)
    # Terms are added in sorted order and each product is evaluated left to
    # right, so a score does not depend on query word order and is the same
    # float as the formula term by term.
    for term in sorted(counts):
        p = index.postings.get(term)
        if p is not None:
            scores[p.ordinals] += counts[term] * p.idf * p.tf * (K1 + 1.0) / p.denom
    if exclude is not None:
        scores[exclude] = 0.0
    matched = np.flatnonzero(scores)  # every term score is positive
    if matched.size == 0:
        return []
    # A stable sort of ascending ordinals breaks score ties by ordinal.
    top = matched[np.argsort(-scores[matched], kind="stable")[:k]].tolist()
    if len(top) < k:
        unmatched = scores == 0.0
        if exclude is not None:
            unmatched[exclude] = False
        top += np.flatnonzero(unmatched)[: k - len(top)].tolist()
    return [(ordinal, float(scores[ordinal])) for ordinal in top]
