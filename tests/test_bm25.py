"""BM25 tests: tokenizer rules, Okapi scoring against a brute-force oracle,
and neighbor retrieval."""

from __future__ import annotations

import math
import random
import string

import pytest

from rare import bm25
from rare.errors import EmptyCollection, OrdinalOutOfRange

from conftest import WORDS, random_text


def reference_tokenize(text: str) -> list[str]:
    """Independent restatement of the tokenizer rule using str.strip."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def reference_scores(index: bm25.Bm25Index, query_tokens: list[str]) -> list[float]:
    """Okapi BM25 of every indexed item, computed from the formula term by term.

    Reads only the term frequencies and lengths the index records; idf and
    the length normalisation are worked out here, not taken from the index.
    """
    totals = [0.0] * index.n_items
    for term in sorted(set(query_tokens)):
        postings = index.postings.get(term)
        if postings is None:
            continue
        n_t = len(postings.ordinals)
        idf = math.log(1.0 + (index.n_items - n_t + 0.5) / (n_t + 0.5))
        for ordinal, tf in zip(postings.ordinals.tolist(), postings.tf.tolist()):
            norm = bm25.K1 * (1.0 - bm25.B + bm25.B * index.lengths[ordinal] / index.avg_length)
            totals[ordinal] += query_tokens.count(term) * idf * tf * (bm25.K1 + 1.0) / (tf + norm)
    return totals


def reference_top_k(index: bm25.Bm25Index, query: str, k: int, exclude: int | None = None):
    """Exhaustive scoring of every ordinal plus the documented tie and padding rules."""
    scores = reference_scores(index, bm25.tokenize(query))
    positive = [(o, s) for o, s in enumerate(scores) if o != exclude and s > 0.0]
    if not positive:
        return []
    positive.sort(key=lambda item: (-item[1], item[0]))
    if len(positive) < k:
        matched = {o for o, _ in positive}
        for ordinal in range(index.n_items):
            if len(positive) >= k:
                break
            if ordinal not in matched and ordinal != exclude:
                positive.append((ordinal, 0.0))
    return positive[:k]


def kernel_score(index: bm25.Bm25Index, query_tokens: list[str], ordinal: int) -> float:
    """The score `top_k_neighbors` gives one item, read from a full-length list."""
    return dict(bm25.top_k_neighbors(index, " ".join(query_tokens), index.n_items)).get(ordinal, 0.0)


class TestTokenize:
    def test_punctuation_stripped(self):
        assert bm25.tokenize("Apple, banana!") == ["apple", "banana"]

    def test_empty(self):
        assert bm25.tokenize("") == []

    def test_interior_punctuation_survives(self):
        assert bm25.tokenize("don't stop") == ["don't", "stop"]

    def test_all_punctuation_token_dropped(self):
        assert bm25.tokenize("... hello --- world !!") == ["hello", "world"]

    def test_matches_reference_rule(self, rng):
        pieces = WORDS + ["it's", "[bracketed]", "(parens)", "a,b", "--", "x!", "!y", "..."]
        for _ in range(300):
            text = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
            if rng.random() < 0.3:
                text = text.upper()
            assert bm25.tokenize(text) == reference_tokenize(text)


class TestBuildIndex:
    def test_avg_len_hand_case(self):
        index = bm25.build_index(["apple banana", "banana cherry"])
        assert index.avg_length == 2.0
        assert index.n_items == 2

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            bm25.build_index([])

    def test_avg_len_recount(self, rng):
        texts = [random_text(rng, max_tokens=5, min_tokens=5) for _ in range(1000)]
        index = bm25.build_index(texts)
        lengths = [len(bm25.tokenize(t)) for t in texts]
        assert index.avg_length == sum(lengths) / len(lengths)

    def test_postings_reference_valid_ordinals(self, rng):
        texts = [random_text(rng) for _ in range(50)]
        index = bm25.build_index(texts)
        for term, postings in index.postings.items():
            ordinals = postings.ordinals.tolist()
            assert ordinals == sorted(set(ordinals))
            for ordinal, tf in zip(ordinals, postings.tf.tolist()):
                assert 0 <= ordinal < index.n_items
                assert tf == bm25.tokenize(texts[ordinal]).count(term) >= 1


class TestScore:
    """The scores `top_k_neighbors` reports."""

    def test_no_match_is_zero(self):
        index = bm25.build_index(["apple banana", "banana cherry"])
        assert kernel_score(index, ["durian"], 0) == 0.0
        assert kernel_score(index, ["apple"], 1) == 0.0

    def test_repeated_term_doubles(self):
        index = bm25.build_index(["apple banana", "banana cherry"])
        single = kernel_score(index, ["apple"], 0)
        assert single > 0.0
        assert kernel_score(index, ["apple", "apple"], 0) == 2 * single

    def test_hand_case_against_formula(self):
        index = bm25.build_index(["apple banana", "banana cherry"])
        got = kernel_score(index, ["apple"], 0)
        # One matching doc of two, tf=1, len=2, avg=2.
        idf = math.log(1.0 + (2 - 1 + 0.5) / (1 + 0.5))
        expected = idf * 1 * (1.2 + 1.0) / (1 + 1.2 * (1 - 0.75 + 0.75 * 2 / 2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_ordinal_out_of_range(self):
        index = bm25.build_index(["apple"])
        with pytest.raises(OrdinalOutOfRange):
            bm25.top_k_neighbors(index, "apple", 1, exclude=1)

    def test_term_order_invariant(self, rng):
        texts = [random_text(rng) for _ in range(20)]
        index = bm25.build_index(texts)
        for _ in range(50):
            tokens = bm25.tokenize(random_text(rng))
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            for ordinal in range(index.n_items):
                assert kernel_score(index, tokens, ordinal) == kernel_score(index, shuffled, ordinal)

    def test_rarer_term_scores_higher(self):
        # "rare" appears once, "common" in every item; same tf and lengths.
        texts = ["rare common alpha", "common beta gamma", "common delta epsilon"]
        index = bm25.build_index(texts)
        assert kernel_score(index, ["rare"], 0) > kernel_score(index, ["common"], 0)

    def test_determinism(self, rng):
        texts = [random_text(rng) for _ in range(30)]
        q = bm25.tokenize(random_text(rng))
        a = bm25.build_index(texts)
        b = bm25.build_index(texts)
        for ordinal in range(len(texts)):
            assert kernel_score(a, q, ordinal) == kernel_score(b, q, ordinal)


class TestTopKNeighbors:
    def test_k_zero(self):
        index = bm25.build_index(["apple"])
        assert bm25.top_k_neighbors(index, "apple", 0) == []

    def test_self_exclusion(self):
        index = bm25.build_index(["apple pie", "apple tart"])
        got = bm25.top_k_neighbors(index, "apple pie", 1, exclude=0)
        assert [o for o, _ in got] == [1]

    def test_no_overlap_returns_empty(self):
        index = bm25.build_index(["apple", "banana"])
        assert bm25.top_k_neighbors(index, "zzz unknown", 5) == []

    def test_zero_padding_in_ordinal_order(self):
        index = bm25.build_index(["apple", "banana", "cherry", "durian"])
        got = bm25.top_k_neighbors(index, "cherry", 3)
        assert got[0][0] == 2 and got[0][1] > 0.0
        assert [(o, s) for o, s in got[1:]] == [(0, 0.0), (1, 0.0)]

    def test_padding_skips_excluded(self):
        index = bm25.build_index(["apple", "banana", "cherry"])
        got = bm25.top_k_neighbors(index, "cherry", 3, exclude=0)
        assert [o for o, _ in got] == [2, 1]

    def test_tie_breaks_by_ordinal(self):
        index = bm25.build_index(["apple pie", "apple pie", "apple pie"])
        got = bm25.top_k_neighbors(index, "apple", 3)
        assert [o for o, _ in got] == [0, 1, 2]
        assert got[0][1] == got[1][1] == got[2][1]

    def test_exclude_out_of_range(self):
        index = bm25.build_index(["apple"])
        with pytest.raises(OrdinalOutOfRange):
            bm25.top_k_neighbors(index, "apple", 1, exclude=5)

    def test_matches_brute_force(self, rng):
        for trial in range(60):
            n = rng.randint(1, 50)
            texts = [random_text(rng, max_tokens=6) for _ in range(n)]
            index = bm25.build_index(texts)
            query = random_text(rng, max_tokens=10)
            k = rng.randint(1, 8)
            exclude = rng.randrange(n) if rng.random() < 0.5 else None
            got = bm25.top_k_neighbors(index, query, k, exclude=exclude)
            want = reference_top_k(index, query, k, exclude=exclude)
            assert [o for o, _ in got] == [o for o, _ in want], f"trial {trial}"
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-12)

    def test_pool_scale_scores_equal_formula(self, rng):
        # A pool as large as the L benchmark's. A few items carry a word of
        # their own, so a query of rare words matches fewer than k items and
        # gets padded; repeated query words weigh more.
        rare = [f"rare{i}" for i in range(60)]
        texts = []
        for _ in range(3200):
            words = random_text(rng, max_tokens=12).split()
            if rng.random() < 0.03:
                words.insert(rng.randrange(len(words) + 1), rng.choice(rare))
            texts.append(" ".join(words))
        index = bm25.build_index(texts)
        queries = [random_text(rng, max_tokens=10) for _ in range(10)]
        queries += ["apple apple apple cherry", "rare3 rare3 rare7", "rare11 zzz", "unknown words only"]
        padded = 0
        for query in queries:
            matched = [o for o, s in enumerate(reference_scores(index, bm25.tokenize(query))) if s > 0.0]
            for k in (1, 5, 40):
                for exclude in (None, matched[0] if matched else 0):
                    got = bm25.top_k_neighbors(index, query, k, exclude=exclude)
                    assert got == reference_top_k(index, query, k, exclude=exclude), (query, k, exclude)
                    padded += bool(got) and got[-1][1] == 0.0
        assert padded > 0
        assert bm25.top_k_neighbors(index, "unknown words only", 5) == []
