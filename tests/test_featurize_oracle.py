"""`bm25.tokenize` and `embedder.featurize` against their per-character and
per-gram loop implementations, and the bucket hash against a keyed blake2b
made afresh per gram, kept here as oracles. `embedder.embed_many`, and
`embed` with and without a gram memo, against rows built from the oracle
features, which share no hashing or counting code with `embedder._features`; and the
trainer's `Features`, whose gram memo empties as it grows, against the same
oracle features.

`project` sums a text's columns in the key order of its features, and that
order decides the bits of every embedding, so the comparison is on
`list(d.items())`: keys, values and their order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import string
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rare import embedder
from rare.bm25 import tokenize
from rare.embedder import feature_arrays, featurize, new_params, project, unit
from rare.trainer import Features


def oracle_bucket(hash_seed: int, hash_dim: int, gram: str) -> int:
    key = (hash_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % hash_dim


_PUNCT = set(string.punctuation)


def oracle_tokenize(text: str) -> list[str]:
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


def oracle_grams(params, text: str) -> list[str]:
    tokens = oracle_tokenize(text)
    if params.max_tokens is not None:
        tokens = tokens[: params.max_tokens]
    grams: list[str] = []
    for order in params.ngram_orders:
        for i in range(len(tokens) - order + 1):
            grams.append(" ".join(tokens[i : i + order]))
    return grams


def oracle_featurize(params, text: str) -> dict[int, float]:
    counts: dict[int, int] = {}
    total = 0
    for gram in oracle_grams(params, text):
        bucket = oracle_bucket(params.hash_seed, params.hash_dim, gram)
        counts[bucket] = counts.get(bucket, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {bucket: count / total for bucket, count in counts.items()}


# A few words so that grams repeat; words wrapped in and made of punctuation;
# non-ASCII letters, including ones whose lowercase differs; odd whitespace.
WORDS = ["alpha", "beta", "gamma", "Don't", "(beta)", "...", "-", "'", "ÉCOLE", "naïve", "東京", "İstanbul", "ß"]
SPACES = [" ", "  ", "\t", "\n", " ", "　"]

words = st.sampled_from(WORDS) | st.text(alphabet=string.ascii_letters + string.punctuation + "éΣ", max_size=6)
texts = st.builds(
    lambda parts, seps: "".join(p + s for p, s in zip(parts, seps)),
    st.lists(words, max_size=24),
    st.lists(st.sampled_from(SPACES), min_size=24, max_size=24),
) | st.text(max_size=40)
orders = st.sampled_from([(1,), (1, 2), (1, 2, 3), (2, 3)])


@settings(max_examples=300, deadline=None)
@given(texts)
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(
    texts,
    orders,
    st.none() | st.integers(min_value=1, max_value=6),
    st.sampled_from([7, 64, 1 << 16]),
    st.sampled_from([0, 3, -1, 1 << 70]),
)
def test_featurize_matches_oracle(text, ngram_orders, max_tokens, hash_dim, seed):
    params = new_params(hash_dim=hash_dim, embed_dim=2, ngram_orders=ngram_orders, max_tokens=max_tokens)
    params = dataclasses.replace(params, hash_seed=seed)  # a model file may hold any int64 seed
    assert list(featurize(params, text).items()) == list(oracle_featurize(params, text).items())


def test_named_cases():
    cases = [
        "",  # empty
        "... !! -",  # punctuation-only tokens
        "word",  # gram-free under orders (2, 3)
        "a b a b a b",  # repeated grams
        "(Hello), WORLD! hello world... don't",
        "Über naïve 東京 東京 straße",
    ]
    for ngram_orders in [(1,), (1, 2), (1, 2, 3), (2, 3)]:
        for max_tokens in (None, 1, 3):
            params = new_params(hash_dim=97, embed_dim=2, ngram_orders=ngram_orders, max_tokens=max_tokens)
            for text in cases:
                assert tokenize(text) == oracle_tokenize(text)
                got = featurize(params, text)
                assert list(got.items()) == list(oracle_featurize(params, text).items()), (ngram_orders, text)
    assert featurize(new_params(hash_dim=97, embed_dim=2, ngram_orders=(2, 3)), "word") == {}


def test_order_longer_than_the_text_allocates_nothing_per_unit():
    # A model header may name any u32 order. Featurizing once took memory and
    # time in proportion to the order, so a flipped header byte hung `search`.
    small = new_params(hash_dim=97, embed_dim=2, ngram_orders=(1,))
    big = new_params(hash_dim=97, embed_dim=2, ngram_orders=(1, 10**6))
    featurize(big, "a b c")
    tracemalloc.start()
    try:
        assert list(featurize(big, "a b c").items()) == list(featurize(small, "a b c").items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


# Texts over a 40-word vocabulary: grams repeat within and across texts.
_rng = random.Random(3)
_VOCAB = [f"w{i}" for i in range(40)] + ["Don't", "naïve", "東京"]
CORPUS = [" ".join(_rng.choice(_VOCAB) for _ in range(_rng.randint(0, 30))) for _ in range(60)]


def test_features_match_oracle_across_memo_flushes(monkeypatch):
    counts = embedder._GramCounts()
    monkeypatch.setattr(embedder, "_bucket", counts)
    params = new_params(hash_dim=97, embed_dim=2, ngram_orders=(1, 2, 3))
    features = Features(params)
    monkeypatch.setattr(features.memo, "cap", 16)
    for text in CORPUS:
        cols, vals = features.of(text)
        expected = oracle_featurize(params, text)
        assert cols.tolist() == list(expected)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in expected.values()]
        assert len(features.memo) <= 16
    distinct = {g for text in CORPUS for g in oracle_grams(params, text)}
    assert counts.cache_info().misses > len(distinct)  # flushed grams were hashed again


def test_featurize_matches_oracle_while_params_alternate():
    # No memo is shared between calls unless the caller passes one, so
    # featurizing for one model leaves nothing stale for another.
    a = new_params(hash_dim=97, embed_dim=2, ngram_orders=(1, 2), seed=1)
    b = new_params(hash_dim=1 << 16, embed_dim=2, ngram_orders=(1, 2), seed=2)
    # Same dimension, another seed: a memo keyed on the dimension alone goes stale.
    c = dataclasses.replace(a, hash_seed=5)
    for text in CORPUS:
        for params in (a, b, c):
            assert list(featurize(params, text).items()) == list(oracle_featurize(params, text).items())


def test_cache_info_counts_lookups_and_hashes(monkeypatch):
    monkeypatch.setattr(embedder, "_bucket", embedder._GramCounts())
    params = new_params(hash_dim=1 << 16, embed_dim=2, ngram_orders=(1, 2))
    grams = [g for text in CORPUS for g in oracle_grams(params, text)]
    memo = embedder.Memo(params, 1 << 16)
    for text in CORPUS:
        featurize(params, text, memo)
    info = embedder._bucket.cache_info()
    assert info.hits + info.misses == len(grams)
    assert info.misses == len(set(grams)) == len(memo)
    assert info.hits > 0


def oracle_embed_rows(params, batch):
    rows = [unit(project(params, *feature_arrays(oracle_featurize(params, text))))[0] for text in batch]
    return np.array(rows).reshape(len(batch), params.embed_dim)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(texts, max_size=12),
    orders,
    st.none() | st.integers(min_value=1, max_value=6),
    st.sampled_from([7, 97, 1 << 16]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1, 2, 1 << 12]),
)
def test_embed_many_equals_stacked_embed(batch, ngram_orders, max_tokens, hash_dim, chunk, cap):
    # Chunks of a few grams: texts straddle chunk boundaries, and one text can exceed a chunk.
    # One memo serves every `embed` of the batch, as `run_inference`'s serves a run, at serving caps.
    params = new_params(hash_dim=hash_dim, embed_dim=8, ngram_orders=ngram_orders, max_tokens=max_tokens, seed=5)
    expected = oracle_embed_rows(params, batch)
    memo = embedder.Memo(params, cap)
    with mock.patch.object(embedder, "_CHUNK_GRAMS", chunk):
        assert embedder.embed_many(params, batch).tobytes() == expected.tobytes()
        for text, row in zip(batch, expected):
            assert embedder.embed(params, text).tobytes() == row.tobytes()
            assert embedder.embed(params, text, memo).tobytes() == row.tobytes()


def test_embed_many_with_a_text_larger_than_a_chunk():
    params = new_params(hash_dim=1 << 16, embed_dim=8, ngram_orders=(1, 2, 3))
    rng = random.Random(9)
    big = " ".join(rng.choice(_VOCAB) for _ in range(embedder._CHUNK_GRAMS // 2))
    batch = [*CORPUS[:20], big, *CORPUS[20:], "", "...", big[:200], big]
    assert len(oracle_grams(params, big)) > embedder._CHUNK_GRAMS
    assert embedder.embed_many(params, batch).tobytes() == oracle_embed_rows(params, batch).tobytes()


def test_cache_info_counts_embed_many_lookups_and_hashes(monkeypatch):
    monkeypatch.setattr(embedder, "_bucket", embedder._GramCounts())
    params = new_params(hash_dim=1 << 16, embed_dim=2, ngram_orders=(1, 2))
    per_text = [oracle_grams(params, text) for text in CORPUS]
    grams = [g for text_grams in per_text for g in text_grams]
    embedder.embed_many(params, CORPUS)  # one chunk: each distinct gram is hashed once
    info = embedder._bucket.cache_info()
    assert info.hits + info.misses == len(grams)
    assert info.misses == len(set(grams))
    monkeypatch.setattr(embedder, "_CHUNK_GRAMS", 1)  # a chunk per text: its distinct grams
    embedder.embed_many(params, CORPUS)
    again = embedder._bucket.cache_info()
    assert again.hits + again.misses == 2 * len(grams)
    assert again.misses - info.misses == sum(len(set(text_grams)) for text_grams in per_text)
