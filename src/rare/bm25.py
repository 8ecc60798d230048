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
class Bm25Index:
    """Inverted index over a fixed list of texts, addressed by ordinal."""

    postings: dict[str, list[tuple[int, int]]]  # term -> [(ordinal, term freq)]
    lengths: list[int]
    avg_length: float
    n_items: int


def build_index(texts: list[str]) -> Bm25Index:
    """Index texts by ordinal. Raises EmptyCollection for an empty list."""
    if not texts:
        raise EmptyCollection("cannot build a BM25 index over zero items")
    postings: dict[str, list[tuple[int, int]]] = {}
    lengths: list[int] = []
    for ordinal, text in enumerate(texts):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((ordinal, tf))
    avg_length = sum(lengths) / len(lengths)
    return Bm25Index(postings=postings, lengths=lengths, avg_length=avg_length, n_items=len(texts))


def idf(index: Bm25Index, term: str) -> float:
    n_t = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.n_items - n_t + 0.5) / (n_t + 0.5))


def score(index: Bm25Index, query_tokens: list[str], ordinal: int) -> float:
    """BM25 score of one indexed item. Repeated query terms add up."""
    if not 0 <= ordinal < index.n_items:
        raise OrdinalOutOfRange(f"ordinal {ordinal} not in [0, {index.n_items})")
    if index.avg_length == 0.0:
        return 0.0
    length = index.lengths[ordinal]
    counts: dict[str, int] = {}
    for tok in query_tokens:
        counts[tok] = counts.get(tok, 0) + 1
    total = 0.0
    # Sorted term iteration keeps the float sum independent of query order.
    for term in sorted(counts):
        plist = index.postings.get(term)
        if not plist:
            continue
        tf = 0
        for item, freq in plist:
            if item == ordinal:
                tf = freq
                break
        if tf == 0:
            continue
        denom = tf + K1 * (1.0 - B + B * length / index.avg_length)
        total += counts[term] * idf(index, term) * tf * (K1 + 1.0) / denom
    return total


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
    neighbor list.
    """
    if k <= 0:
        return []
    if exclude is not None and not 0 <= exclude < index.n_items:
        raise OrdinalOutOfRange(f"exclude ordinal {exclude} not in [0, {index.n_items})")
    tokens = tokenize(query)
    accum: dict[int, float] = {}
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    # Same sorted-term accumulation order as score(), so both agree exactly.
    for term in sorted(counts):
        plist = index.postings.get(term)
        if not plist:
            continue
        q_tf = counts[term]
        term_idf = idf(index, term)
        for ordinal, tf in plist:
            if ordinal == exclude:
                continue
            denom = tf + K1 * (1.0 - B + B * index.lengths[ordinal] / index.avg_length)
            accum[ordinal] = accum.get(ordinal, 0.0) + q_tf * term_idf * tf * (K1 + 1.0) / denom
    if not accum:
        return []
    ranked = sorted(accum.items(), key=lambda item: (-item[1], item[0]))
    if len(ranked) < k:
        matched = set(accum)
        for ordinal in range(index.n_items):
            if len(ranked) >= k:
                break
            if ordinal in matched or ordinal == exclude:
                continue
            ranked.append((ordinal, 0.0))
    return ranked[:k]
