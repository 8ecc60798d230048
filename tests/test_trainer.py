"""Contrastive loss, analytic gradients against finite differences, example
selection policies, and the training loop."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from rare import bm25, embedder
from rare import trainer as trainer_module
from rare.cli import dispatch
from rare.data import ExamplePool, ICExample, TrainExample
from rare.embedder import cosine, embed, featurize, new_params
from rare.errors import (
    EmptyPool,
    MissingNegative,
    NonPositiveTemperature,
    PoolTooSmall,
    SpecInvalid,
)
from rare.prompt import FormatKind, PromptFormat
from rare.trainer import (
    BatchLoss,
    Features,
    RenderedExample,
    SelectionPolicy,
    TrainConfig,
    batch_grads,
    select_examples,
    train,
)

from conftest import WORDS, fd_grads, oracle_batch_loss, oracle_candidates, random_text

SRC = Path(__file__).resolve().parents[1] / "src"


def loss_from_similarities(sims: np.ndarray, temperature: float, positive_index: int = 0) -> float:
    """Oracle: stable -log softmax at `positive_index` of sims / temperature."""
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {temperature}")
    z = np.asarray(sims, dtype=np.float64) / temperature
    m = float(np.max(z))
    return float(-(z[positive_index] - m) + np.log(np.sum(np.exp(z - m))))


def contrastive_loss(
    q_emb: np.ndarray,
    pos_emb: np.ndarray,
    hard_neg_emb: np.ndarray | None,
    in_batch_embs: list[np.ndarray],
    temperature: float,
) -> float:
    """Oracle: loss of one query against its positive, hard negative and in-batch negatives."""
    sims = [cosine(q_emb, pos_emb)]
    if hard_neg_emb is not None:
        sims.append(cosine(q_emb, hard_neg_emb))
    sims.extend(cosine(q_emb, e) for e in in_batch_embs)
    return loss_from_similarities(np.array(sims), temperature)


def small_params(seed=0, hash_dim=256, embed_dim=12):
    return new_params(hash_dim=hash_dim, embed_dim=embed_dim, ngram_orders=(1, 2), seed=seed)


def random_example(rng, with_negative=True):
    neg = random_text(rng, 6) if with_negative else None
    return RenderedExample(query=random_text(rng, 6), positive=random_text(rng, 6), negative=neg)


def word_at(params, col: int) -> str:
    """A one-word text whose unigram lands in bucket `col`."""
    return next(f"w{i}" for i in itertools.count() if col in featurize(params, f"w{i}"))


def edge_batch(params) -> list[RenderedExample]:
    """Texts at column 0 and column hash_dim - 1, columns shared between
    texts ("apple", "cherry", the last column), a zero query whose own
    negative "river maple" is a candidate of no live query (its gradient row
    is 0 unless batch hard negatives are offered) and a gram-free positive."""
    first, last = word_at(params, 0), word_at(params, params.hash_dim - 1)
    return [
        RenderedExample(query=f"{first} apple", positive="apple banana", negative=f"{last} cherry"),
        RenderedExample(query="", positive="cherry stone", negative="river maple"),
        RenderedExample(query=f"lunar {last}", positive="!!", negative="frost galaxy"),
    ]


class TestLossFromSimilarities:
    def test_single_candidate_is_zero(self):
        assert loss_from_similarities(np.array([0.37]), 0.01) == 0.0

    def test_uniform_similarities_give_ln_m(self):
        for m in range(1, 11):
            loss = loss_from_similarities(np.full(m, 0.25), 0.01)
            assert abs(loss - math.log(m)) < 1e-9

    def test_pos_plus_one_equal_negative_is_ln_two(self):
        loss = loss_from_similarities(np.array([0.5, 0.5]), 0.01)
        assert abs(loss - math.log(2)) < 1e-9

    def test_shift_invariance(self, rng):
        for _ in range(50):
            sims = np.array([rng.uniform(-1, 1) for _ in range(rng.randint(2, 8))])
            shift = rng.uniform(-0.5, 0.5)
            tau = rng.uniform(0.05, 0.5)
            a = loss_from_similarities(sims, tau)
            b = loss_from_similarities(sims + shift, tau)
            assert abs(a - b) < 1e-9

    def test_high_precision_oracle(self, rng):
        # Straight evaluation in extended precision, no max subtraction;
        # exp(1/0.01) is far inside long double range.
        for _ in range(200):
            sims = np.array([rng.uniform(-1, 1) for _ in range(8)])
            got = loss_from_similarities(sims, 0.01)
            z = sims.astype(np.longdouble) / np.longdouble(0.01)
            expected = float(-z[0] + np.log(np.exp(z).sum()))
            assert abs(got - expected) < 1e-9

    def test_positive_index(self):
        sims = np.array([0.1, 0.9, 0.3])
        a = loss_from_similarities(sims, 0.1, positive_index=1)
        b = loss_from_similarities(np.array([0.9, 0.1, 0.3]), 0.1)
        assert abs(a - b) < 1e-12

    def test_non_positive_temperature(self):
        for tau in (0.0, -0.01):
            with pytest.raises(NonPositiveTemperature):
                loss_from_similarities(np.array([0.5, 0.2]), tau)


class TestContrastiveLoss:
    def unit(self, *values):
        v = np.array(values, dtype=np.float64)
        return v / np.linalg.norm(v)

    def test_pos_only_zero(self):
        q = self.unit(1.0, 0.0)
        assert contrastive_loss(q, self.unit(0.6, 0.8), None, [], 0.01) == 0.0

    def test_candidate_composition(self):
        q = self.unit(1.0, 0.0, 0.0)
        pos = self.unit(0.9, 0.1, 0.0)
        neg = self.unit(0.0, 1.0, 0.0)
        others = [self.unit(0.0, 0.0, 1.0), self.unit(0.5, 0.5, 0.5)]
        got = contrastive_loss(q, pos, neg, others, 0.2)
        sims = [float(q @ pos), float(q @ neg)] + [float(q @ e) for e in others]
        expected = loss_from_similarities(np.array(sims), 0.2)
        assert abs(got - expected) < 1e-12

    def test_no_hard_negative_shrinks_candidate_set(self):
        q = self.unit(1.0, 0.0)
        pos = self.unit(1.0, 0.0)
        neg = self.unit(0.0, 1.0)
        with_neg = contrastive_loss(q, pos, neg, [], 0.1)
        without = contrastive_loss(q, pos, None, [], 0.1)
        assert without == 0.0
        assert with_neg > without

    def test_non_negative(self, rng):
        params = small_params()
        for _ in range(30):
            q = embed(params, random_text(rng, 6))
            pos = embed(params, random_text(rng, 6))
            others = [embed(params, random_text(rng, 6)) for _ in range(rng.randint(0, 4))]
            assert contrastive_loss(q, pos, None, others, 0.05) >= 0.0

    def test_zero_query_gives_uniform(self):
        params = small_params()
        q = np.zeros(params.embed_dim)
        pos = embed(params, "apple banana")
        others = [embed(params, "cherry stone"), embed(params, "river maple")]
        loss = contrastive_loss(q, pos, None, others, 0.01)
        assert abs(loss - math.log(3)) < 1e-9


class TestBatchGrads:
    def test_single_pos_only_example(self):
        params = small_params()
        batch = [RenderedExample(query="apple banana", positive="cherry river")]
        result = batch_grads(batch, params, TrainConfig())
        assert result.value == 0.0
        assert not result.grads.any()

    def test_empty_batch_rejected(self):
        with pytest.raises(SpecInvalid):
            batch_grads([], small_params(), TrainConfig())

    def test_non_positive_temperature(self):
        batch = [RenderedExample(query="a", positive="b")]
        with pytest.raises(NonPositiveTemperature):
            batch_grads(batch, small_params(), TrainConfig(temperature=0.0))

    def test_loss_matches_contrastive_loss_composition(self, rng):
        # The batch loss must equal the mean of per-example contrastive
        # losses over the documented candidate sets.
        params = small_params(seed=3)
        for trial in range(10):
            batch = [random_example(rng, with_negative=rng.random() < 0.7) for _ in range(rng.randint(1, 5))]
            config = TrainConfig(
                temperature=rng.uniform(0.05, 0.5),
                include_batch_hard_negatives=rng.random() < 0.5,
            )
            result = batch_grads(batch, params, config)
            losses = []
            for i, ex in enumerate(batch):
                cands = oracle_candidates(batch, i, config)
                q = embed(params, ex.query)
                sims = np.array([float(q @ embed(params, c)) for c in cands])
                losses.append(loss_from_similarities(sims, config.temperature))
            assert abs(result.value - sum(losses) / len(batch)) < 1e-9

    def test_candidate_count_is_b_plus_one(self):
        # With hard negatives on and distinct examples, each query competes
        # against 1 positive, 1 hard negative and B-1 in-batch positives.
        params = small_params()
        rng = random.Random(5)
        batch = [random_example(rng) for _ in range(4)]
        config = TrainConfig(temperature=0.1)
        for i in range(len(batch)):
            assert len(oracle_candidates(batch, i, config)) == 2 + (len(batch) - 1)
        uniform = batch_grads(
            [RenderedExample(query="", positive=f"p{i} text", negative=f"n{i} text") for i in range(4)],
            params,
            config,
        )
        # An empty query embeds to zero, so all similarities are equal and
        # the loss is exactly ln(candidate count).
        assert abs(uniform.value - math.log(2 + 3)) < 1e-9

    def test_zero_embedding_texts_contribute_no_gradient(self):
        params = small_params()
        batch = [RenderedExample(query="", positive="apple banana", negative="cherry stone")]
        result = batch_grads(batch, params, TrainConfig(temperature=0.1))
        assert abs(result.value - math.log(2)) < 1e-9
        assert not result.grads.any()

    def test_duplicated_batch_identical_mean_loss(self):
        a = RenderedExample(query="apple banana", positive="cherry river", negative="stone maple")
        b = RenderedExample(query="cloud ember", positive="frost galaxy", negative="harbor island")
        params = small_params(seed=8)
        config = TrainConfig(temperature=0.1, dedupe_in_batch=True)
        single = batch_grads([a, b], params, config)
        doubled = batch_grads([a, b, a, b], params, config)
        assert doubled.value == single.value
        np.testing.assert_allclose(doubled.grads, single.grads, atol=1e-12)

    def test_duplicated_batch_property(self, rng):
        params = small_params(seed=9)
        for _ in range(10):
            batch = [random_example(rng) for _ in range(rng.randint(1, 4))]
            config = TrainConfig(temperature=rng.uniform(0.05, 0.3))
            single = batch_grads(batch, params, config)
            doubled = batch_grads(batch + batch, params, config)
            assert abs(doubled.value - single.value) < 1e-12

    def test_include_batch_hard_negatives_changes_loss(self):
        rng = random.Random(11)
        batch = [random_example(rng) for _ in range(3)]
        params = small_params(seed=11)
        base = batch_grads(batch, params, TrainConfig(temperature=0.1))
        wide = batch_grads(
            batch, params, TrainConfig(temperature=0.1, include_batch_hard_negatives=True)
        )
        assert wide.value > base.value

    def test_gradients_match_finite_differences(self, rng):
        # Criterion-sized check lives in the acceptance suite; this covers
        # the same oracle on a handful of varied configurations.
        for trial in range(10):
            params = new_params(
                hash_dim=rng.randint(16, 256),
                embed_dim=rng.randint(2, 16),
                ngram_orders=(1, 2),
                seed=trial,
            )
            batch = [random_example(rng, with_negative=rng.random() < 0.7) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.3:
                batch.append(batch[0])
            config = TrainConfig(
                temperature=rng.uniform(0.05, 0.5),
                use_hard_negative=rng.random() < 0.8,
                include_batch_hard_negatives=rng.random() < 0.4,
                dedupe_in_batch=rng.random() < 0.8,
            )
            analytic = batch_grads(batch, params, config).grads
            numeric = fd_grads(batch, params, config)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            rel = np.abs(analytic - numeric) / denom
            assert float(rel.max()) < 1e-4

    def test_shared_texts_repeats_and_gaps_match_oracles(self, rng):
        # One text in several roles, two examples sharing a positive, repeated
        # examples, an empty query and a missing negative. Each distinct text
        # is embedded once, so every role must read and feed that one row.
        for trial in range(6):
            params = small_params(seed=trial, hash_dim=128, embed_dim=8)
            t = [random_text(rng, 6) for _ in range(6)]
            a = RenderedExample(query=t[0], positive=t[1], negative=t[2])
            b = RenderedExample(query=t[3], positive=t[2], negative=t[4])  # B's positive is A's negative
            c = RenderedExample(query=t[1], positive=t[5])  # C's query is A's positive; no negative
            d = RenderedExample(query="", positive=t[5], negative=t[0])  # shares C's positive
            batch = [a, b, c, a, d, b]
            rng.shuffle(batch)
            for dedupe in (True, False):
                config = TrainConfig(
                    temperature=rng.uniform(0.05, 0.5),
                    include_batch_hard_negatives=trial % 2 == 0,
                    dedupe_in_batch=dedupe,
                )
                result = batch_grads(batch, params, config)
                losses = []
                for i, ex in enumerate(batch):
                    q = embed(params, ex.query)
                    sims = np.array([float(q @ embed(params, c)) for c in oracle_candidates(batch, i, config)])
                    losses.append(loss_from_similarities(sims, config.temperature))
                assert abs(result.value - sum(losses) / len(batch)) < 1e-9
                numeric = fd_grads(batch, params, config)
                denom = np.maximum(np.maximum(np.abs(result.grads), np.abs(numeric)), 1e-6)
                assert float((np.abs(result.grads - numeric) / denom).max()) < 1e-4

    def test_grads_shape_and_finiteness(self, rng):
        params = small_params()
        batch = [random_example(rng) for _ in range(3)]
        result = batch_grads(batch, params, TrainConfig())
        assert result.grads.shape == params.projection.shape
        assert np.all(np.isfinite(result.grads))
        assert math.isfinite(result.value)

    def test_sparse_update_equals_dense_update(self):
        # The sparse step touches only the batch's columns of W; a dense
        # reference on a row-major copy must reach the same bytes.
        config = TrainConfig(temperature=0.1)
        cases = [
            (config, [RenderedExample(query="", positive="apple banana", negative="cherry stone"),
                      RenderedExample(query="river maple", positive="cloud ember", negative="frost galaxy")]),
            (config, [RenderedExample(query="harbor island", positive="jungle kernel"),
                      RenderedExample(query="lunar meadow", positive="nectar orchid", negative="prairie raven")]),
            (TrainConfig(temperature=0.1, include_batch_hard_negatives=True),
             [RenderedExample(query="apple cherry", positive="apple banana", negative="stone apple"),
              RenderedExample(query="river stone", positive="river maple", negative="cloud river")]),
            (config, [RenderedExample(query="", positive="...", negative="!!"),
                      RenderedExample(query="?", positive="", negative=None)]),
            # "apple" is a gram of both texts, so its column sums two terms.
            (config, [RenderedExample(query="apple banana", positive="apple cherry", negative="stone maple")]),
        ]
        for hash_dim in (256, 16):  # 16 buckets: distinct grams collide too
            sparse = small_params(seed=6, hash_dim=hash_dim)
            dense = dataclasses.replace(sparse, projection=np.array(sparse.projection, order="C"))
            for _ in range(3):
                for case_config, batch in cases:
                    result = batch_grads(batch, sparse, case_config)
                    before = sparse.projection.copy()
                    result.descend(sparse.projection, 0.05)
                    dense.projection -= 0.05 * batch_grads(batch, dense, case_config).grads
                    assert sparse.projection.tobytes() == dense.projection.tobytes()
                    changed = np.flatnonzero((sparse.projection != before).any(axis=0))
                    assert set(changed) <= set(result.cols.tolist())
        gram_free = batch_grads(cases[3][1], sparse, config)
        assert gram_free.cols.size == 0 and gram_free.block.shape == (0, sparse.embed_dim)
        shared = featurize(sparse, "apple banana").keys() & featurize(sparse, "apple cherry").keys()
        assert shared


class TestDescend:
    """`BatchLoss.descend` updates W a slice of columns at a time."""

    @pytest.mark.parametrize("n_cols", [5_000, 5_120, 300])  # 512 columns of 64 floats per slice
    def test_slices_give_the_one_shot_bytes_in_two_slices_of_memory(self, n_cols):
        rng = np.random.default_rng(n_cols)
        params = new_params(hash_dim=8192, embed_dim=64, seed=1)
        cols = np.sort(rng.choice(params.hash_dim, n_cols, replace=False))
        block = rng.standard_normal((n_cols, params.embed_dim)) * 10.0 ** rng.integers(-8, 3, (n_cols, 1))
        result = BatchLoss(value=0.0, cols=cols, block=block, shape=params.projection.shape)
        expected = params.projection.copy(order="F")
        expected.T[cols] -= 0.003 * block
        tracemalloc.start()
        try:
            result.descend(params.projection, 0.003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert params.projection.tobytes() == expected.tobytes()
        slice_bytes = 256 * 1024
        assert peak <= 2 * slice_bytes + 4096  # the gathered columns and the scaled block, one slice each
        if n_cols >= 5_000:
            assert peak < block.nbytes / 4

    def test_a_batch_of_zero_queries_leaves_w_alone(self):
        params = small_params()
        batch = [RenderedExample(query="", positive="apple banana", negative="cherry stone"),
                 RenderedExample(query="!!", positive="river maple", negative="frost galaxy")]
        result = batch_grads(batch, params, TrainConfig(temperature=0.1))
        assert result.cols.size == 0 and result.block.shape == (0, params.embed_dim)
        before = params.projection.tobytes()
        result.descend(params.projection, 0.05)
        assert params.projection.tobytes() == before


class TestBatchMatrices:
    """`batch_grads` computes the whole batch as matrices; `oracle_batch_loss`
    is the same loss one example at a time."""

    @pytest.mark.parametrize(("use_hard_negative", "include_batch_hard_negatives", "dedupe_in_batch"),
                             list(itertools.product((False, True), repeat=3)))
    def test_matches_the_per_example_oracle(self, use_hard_negative, include_batch_hard_negatives, dedupe_in_batch):
        # Repeated examples, texts in several roles (t[1] is a query and a
        # positive, t[2] a positive and a negative), an empty query, a
        # gram-free text and missing negatives. A repeated pair has a true
        # gradient of 0, so the bounds are relative to max(1, ...).
        rng = random.Random(f"{use_hard_negative}:{include_batch_hard_negatives}:{dedupe_in_batch}")
        for trial in range(20):
            params = small_params(seed=trial, hash_dim=rng.choice((16, 128, 256)), embed_dim=rng.randint(2, 12))
            t = [random_text(rng, 6) for _ in range(4)]
            examples = [
                RenderedExample(query=t[0], positive=t[1], negative=t[2]),
                RenderedExample(query=t[1], positive=t[2], negative=rng.choice([None, "", *t])),
                RenderedExample(query="", positive=rng.choice(t), negative=None),
                RenderedExample(query=t[3], positive="!!", negative=rng.choice(["!!", t[0]])),
            ]
            batch = examples + [rng.choice(examples) for _ in range(rng.randint(1, 6))]
            rng.shuffle(batch)
            config = TrainConfig(
                temperature=rng.uniform(0.01, 0.5),
                use_hard_negative=use_hard_negative,
                include_batch_hard_negatives=include_batch_hard_negatives,
                dedupe_in_batch=dedupe_in_batch,
            )
            result = batch_grads(batch, params, config)
            value, grads = oracle_batch_loss(batch, params, config)
            assert abs(result.value - value) <= 1e-12 * max(1.0, abs(value))
            assert np.abs(result.grads - grads).max() <= 1e-12 * max(1.0, float(np.abs(grads).max()))

    @pytest.mark.parametrize(("use_hard_negative", "include_batch_hard_negatives", "dedupe_in_batch"),
                             list(itertools.product((False, True), repeat=3)))
    def test_repeats_and_crossed_roles_match_the_oracle(self, use_hard_negative, include_batch_hard_negatives,
                                                        dedupe_in_batch):
        # One example three times, and one whose negative is another's positive.
        params = small_params(seed=5)
        a = RenderedExample(query="apple banana", positive="cherry stone", negative="river maple")
        b = RenderedExample(query="lunar meadow", positive="river maple", negative="harbor island")
        c = RenderedExample(query="frost galaxy", positive="cloud ember", negative="cherry stone")
        config = TrainConfig(use_hard_negative=use_hard_negative,
                             include_batch_hard_negatives=include_batch_hard_negatives,
                             dedupe_in_batch=dedupe_in_batch)
        for batch in ([a, b, a, a], [a, b, c], edge_batch(params)):
            result = batch_grads(batch, params, config)
            value, grads = oracle_batch_loss(batch, params, config)
            assert abs(result.value - value) <= 1e-12 * max(1.0, abs(value))
            assert np.abs(result.grads - grads).max() <= 1e-12 * max(1.0, float(np.abs(grads).max()))

    @pytest.mark.parametrize(("use_hard_negative", "include_batch_hard_negatives", "dedupe_in_batch"),
                             list(itertools.product((False, True), repeat=3)))
    def test_block_rows_match_the_searchsorted_loop(self, monkeypatch, use_hard_negative,
                                                    include_batch_hard_negatives, dedupe_in_batch):
        # The block as a per-text `np.searchsorted(cols, text_cols)` loop
        # builds it, from the (vals, g) pairs each text's `np.outer` gets.
        params = small_params(seed=5)
        terms: list[tuple[np.ndarray, np.ndarray]] = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def outer(self, a, b):
                terms.append((a, b))
                return np.outer(a, b)

        monkeypatch.setattr(trainer_module, "np", RecordingNumpy())
        config = TrainConfig(use_hard_negative=use_hard_negative,
                             include_batch_hard_negatives=include_batch_hard_negatives,
                             dedupe_in_batch=dedupe_in_batch)
        features = Features(params)
        batch = edge_batch(params)
        result = batch_grads(batch, params, config, features)

        cols_of = {id(vals): text_cols for text_cols, vals in features.now.values()}
        texts = [(cols_of[id(vals)], vals, g) for vals, g in terms if id(vals) in cols_of]
        assert texts and all(g.any() for _, _, g in texts)
        cols = np.unique(np.concatenate([text_cols for text_cols, _, _ in texts]))
        block = np.zeros((len(cols), params.embed_dim))
        for text_cols, vals, g in texts:
            block[np.searchsorted(cols, text_cols)] += np.outer(vals, g)
        assert result.cols.tobytes() == cols.tobytes()
        assert result.block.tobytes() == block.tobytes()
        assert {0, params.hash_dim - 1} <= set(result.cols.tolist())
        # "river maple" is a live query's candidate only when the batch offers its negatives.
        river = set(featurize(params, "river maple"))
        assert not river & {c for ex in batch for t in (ex.query, ex.positive, ex.negative)
                             if t != "river maple" for c in featurize(params, t)}
        assert river & set(result.cols.tolist()) == (river if include_batch_hard_negatives else set())

    @pytest.mark.parametrize(("use_hard_negative", "include_batch_hard_negatives", "texts"),
                             [(False, False, 8), (True, False, 12), (False, True, 12), (True, True, 12)])
    def test_negatives_are_featurized_only_when_a_candidate(self, monkeypatch, use_hard_negative,
                                                            include_batch_hard_negatives, texts):
        calls = count_featurize(monkeypatch)
        batch = [RenderedExample(query=f"q{i} apple", positive=f"p{i} river", negative=f"n{i} stone")
                 for i in range(4)]
        config = TrainConfig(use_hard_negative=use_hard_negative,
                             include_batch_hard_negatives=include_batch_hard_negatives)
        batch_grads(batch, small_params(), config)
        assert len(calls) == texts

    def test_small_temperature_ignores_a_closer_non_candidate(self):
        # A's negative is its own query (similarity 1) but no candidate, and
        # A's candidates lie more than 0.71 below it: at temperature 1e-3 the
        # exponential of that gap overflows, and 0 * inf would be NaN.
        params = small_params()
        a = RenderedExample(query="apple banana", positive="cherry river", negative="apple banana")
        b = RenderedExample(query="lunar meadow", positive="stone maple", negative="harbor island")
        config = TrainConfig(temperature=1e-3, use_hard_negative=False)
        e_q = embed(params, a.query)
        assert max(float(e_q @ embed(params, c)) for c in oracle_candidates([a, b], 0, config)) < 1.0 - 0.71
        result = batch_grads([a, b], params, config)
        value, grads = oracle_batch_loss([a, b], params, config)
        assert math.isfinite(result.value)
        assert abs(result.value - value) <= 1e-12 * max(1.0, abs(value))
        assert np.abs(result.grads - grads).max() <= 1e-12 * max(1.0, float(np.abs(grads).max()))

    def test_train_at_temperature_0_001_on_synth(self, tmp_path):
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(tmp_path / "m.rare"), "--temp", "0.001"]) == 0
        log = [json.loads(line) for line in (tmp_path / "m.rare.log.jsonl").read_text().splitlines()]
        assert log[-1]["mean_loss"] == pytest.approx(126.55758947997116, abs=1e-10)  # the per-example loop's

    def test_library_callers_see_no_warning(self):
        # Outside `cli.dispatch` no np.errstate hides a floating-point warning.
        params = small_params(seed=4)
        batch = [RenderedExample(query="", positive="!!", negative="apple banana"),
                 RenderedExample(query="cherry stone", positive="river maple", negative="!!")]
        train_set = [TrainExample(task_id="t", instruction="find", query=f"q{i}", positive="!!", negative=f"doc {i}")
                     for i in range(3)]
        zero = dataclasses.replace(params, projection=np.zeros_like(params.projection))  # every query embeds to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for config in (TrainConfig(temperature=0.1), TrainConfig(temperature=1e-3, use_hard_negative=False)):
                batch_grads(batch, params, config)
            train(train_set, {}, zero, TrainConfig(k=0, batch_size=2, epochs=2))
        assert not zero.projection.any()


def make_pool(n, prefix="pq"):
    examples = [
        ICExample(query=f"{prefix}{i} " + WORDS[i % len(WORDS)], positive=f"doc {i}", negative=f"neg {i}")
        for i in range(n)
    ]
    return ExamplePool(task_id="t", examples=examples)


class TestSelectExamples:
    def build(self, pool):
        return bm25.build_index([ex.query for ex in pool.examples])

    def test_k_zero(self):
        pool = make_pool(4)
        got = select_examples(pool, self.build(pool), "anything", 0, SelectionPolicy.RETRIEVED, random.Random(0))
        assert got == []

    def test_empty_pool(self):
        pool = ExamplePool(task_id="t", examples=[])
        with pytest.raises(EmptyPool):
            select_examples(pool, None, "q", 3, SelectionPolicy.RETRIEVED, random.Random(0))

    def test_retrieved_excludes_self_exact_pool(self):
        # Pool of exactly k+1 where the query itself is a member: the k
        # others come back, self never does.
        examples = [ICExample(query=f"shared term q{i}", positive=f"d{i}") for i in range(4)]
        pool = ExamplePool(task_id="t", examples=examples)
        index = bm25.build_index([ex.query for ex in pool.examples])
        got = select_examples(pool, index, "shared term q2", 3, SelectionPolicy.RETRIEVED, random.Random(0))
        assert len(got) == 3
        assert examples[2] not in got
        assert sorted(ex.query for ex in got) == ["shared term q0", "shared term q1", "shared term q3"]

    def test_retrieved_orders_most_similar_first(self):
        examples = [
            ICExample(query="apple apple apple", positive="d0"),
            ICExample(query="apple banana cherry", positive="d1"),
            ICExample(query="stone river maple", positive="d2"),
        ]
        pool = ExamplePool(task_id="t", examples=examples)
        index = bm25.build_index([ex.query for ex in pool.examples])
        got = select_examples(pool, index, "apple", 2, SelectionPolicy.RETRIEVED, random.Random(0))
        oracle = bm25.top_k_neighbors(index, "apple", 2)
        assert [ex.positive for ex in got] == [examples[o].positive for o, _ in oracle]

    def test_retrieved_pool_too_small_after_exclusion(self):
        examples = [ICExample(query="only entry", positive="d0")]
        pool = ExamplePool(task_id="t", examples=examples)
        index = bm25.build_index([ex.query for ex in pool.examples])
        with pytest.raises(PoolTooSmall):
            select_examples(pool, index, "only entry", 1, SelectionPolicy.RETRIEVED, random.Random(0))

    def test_random_deterministic_for_fixed_seed(self):
        pool = make_pool(10)
        a = select_examples(pool, None, "q", 4, SelectionPolicy.RANDOM, random.Random(42))
        b = select_examples(pool, None, "q", 4, SelectionPolicy.RANDOM, random.Random(42))
        assert a == b

    def test_random_draws_distinct(self):
        pool = make_pool(6)
        got = select_examples(pool, None, "q", 6, SelectionPolicy.RANDOM, random.Random(1))
        assert len({ex.query for ex in got}) == 6

    def test_random_pool_too_small(self):
        pool = make_pool(2)
        with pytest.raises(PoolTooSmall):
            select_examples(pool, None, "q", 3, SelectionPolicy.RANDOM, random.Random(0))


def make_train_task(n_queries=24, seed=0):
    """A linearly separable toy task: queries about fruit match fruit docs,
    queries about weather match weather docs."""
    rng = random.Random(seed)
    fruit = ["apple", "banana", "cherry", "maple", "nectar", "orchid"]
    weather = ["cloud", "frost", "zephyr", "tundra", "ember", "river"]
    train_set = []
    pool_examples = []
    for i in range(n_queries):
        topic = fruit if i % 2 == 0 else weather
        q = " ".join(rng.choice(topic) for _ in range(3)) + f" q{i}"
        pos = " ".join(rng.choice(topic) for _ in range(5))
        neg = " ".join(rng.choice(weather if topic is fruit else fruit) for _ in range(5))
        train_set.append(TrainExample(task_id="t", instruction="find the match", query=q, positive=pos, negative=neg))
        pool_examples.append(ICExample(query=q, positive=pos, negative=neg))
    pools = {"t": ExamplePool(task_id="t", examples=pool_examples)}
    return train_set, pools


class TestTrain:
    def config(self, **kw):
        defaults = dict(k=2, batch_size=8, epochs=2, learning_rate=0.01, seed=5)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_lr_zero_keeps_w_bit_identical(self):
        train_set, pools = make_train_task()
        params = small_params(seed=1)
        before = params.projection.tobytes()
        trained, _ = train(train_set, pools, params, self.config(learning_rate=0.0))
        assert trained.projection.tobytes() == before

    def test_loss_decreases(self):
        train_set, pools = make_train_task()
        params = small_params(seed=2)
        _, history = train(train_set, pools, params, self.config(epochs=4, learning_rate=0.05))
        assert history[-1]["mean_loss"] < history[0]["mean_loss"]

    def test_history_shape(self):
        train_set, pools = make_train_task()
        _, history = train(train_set, pools, small_params(), self.config(epochs=3))
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert all(math.isfinite(h["mean_loss"]) for h in history)

    def test_run_twice_bit_identical(self):
        train_set, pools = make_train_task()
        a, hist_a = train(train_set, pools, small_params(seed=4), self.config())
        b, hist_b = train(train_set, pools, small_params(seed=4), self.config())
        assert a.projection.tobytes() == b.projection.tobytes()
        assert hist_a == hist_b

    def test_mixture_zero_never_renders_examples(self):
        train_set, pools = make_train_task()
        seen = []
        train(train_set, pools, small_params(), self.config(ic_mixture=0.0, epochs=1),
              render_hook=lambda epoch, idx, aug: seen.append(aug))
        assert seen
        assert all(aug.n_examples == 0 for aug in seen)

    def test_mixture_one_always_renders_examples(self):
        train_set, pools = make_train_task()
        seen = []
        train(train_set, pools, small_params(), self.config(ic_mixture=1.0, epochs=1),
              render_hook=lambda epoch, idx, aug: seen.append(aug))
        assert seen
        assert all(aug.n_examples == 2 for aug in seen)

    def test_random_selection_varies_across_epochs(self):
        train_set, pools = make_train_task()
        by_epoch: dict[int, dict[int, str]] = {0: {}, 1: {}}
        train(
            train_set, pools, small_params(),
            self.config(ic_mixture=1.0, epochs=2, selection=SelectionPolicy.RANDOM, learning_rate=0.0),
            render_hook=lambda epoch, idx, aug: by_epoch[epoch].__setitem__(idx, aug.text),
        )
        differing = [i for i in by_epoch[0] if by_epoch[1].get(i) != by_epoch[0][i]]
        assert differing

    def test_retrieved_selection_runs_bm25_once_per_task_and_query(self, monkeypatch):
        # Retrieved examples do not depend on the epoch, so each distinct
        # (task_id, query) reaches BM25 once per `train` call; a query text
        # shared by two tasks is looked up in each task's pool.
        train_set, pools = make_train_task()
        pools["u"] = ExamplePool(task_id="u", examples=pools["t"].examples[::-1])
        train_set += [dataclasses.replace(ex, task_id="u") for ex in train_set[:6]]
        calls: list[tuple[int, str]] = []
        top_k = bm25.top_k_neighbors

        def counted(index, query, k, exclude=None):
            calls.append((id(index), query))
            return top_k(index, query, k, exclude=exclude)

        monkeypatch.setattr(bm25, "top_k_neighbors", counted)
        texts: dict[int, set[str]] = {}
        config = self.config(ic_mixture=1.0, epochs=3)
        for _ in range(2):
            calls.clear()
            train(train_set, pools, small_params(), config,
                  render_hook=lambda epoch, idx, aug: texts.setdefault(idx, set()).add(aug.text))
            assert sorted(calls) == sorted({(id(pools[ex.task_id].bm25_index()), ex.query) for ex in train_set})
        assert all(len(rendered) == 1 for rendered in texts.values())

    def test_random_selection_draws_at_every_render(self, monkeypatch):
        train_set, pools = make_train_task()
        drawn: list[str] = []
        select = trainer_module.select_examples

        def counted(pool, index, query, *args):
            drawn.append(query)
            return select(pool, index, query, *args)

        monkeypatch.setattr(trainer_module, "select_examples", counted)
        rendered: list[str] = []

        def hook(epoch, idx, aug):
            if aug.n_examples:
                rendered.append(train_set[idx].query)

        config = self.config(ic_mixture=0.5, epochs=3, selection=SelectionPolicy.RANDOM)
        train(train_set, pools, small_params(), config, render_hook=hook)
        assert len(drawn) > len(set(drawn))
        assert drawn == rendered

    def test_each_batch_loss_is_dropped_before_the_next_batch(self, tmp_path, monkeypatch):
        # One batch's gradient block at a time: no earlier result is alive
        # when `train` asks for the next one.
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7", "--clusters", "2", "--docs", "20",
                         "--queries", "5"]) == 0
        results: list[weakref.ref] = []
        alive: list[int] = []
        grads = trainer_module.batch_grads

        def tracked(*args, **kwargs):
            alive.append(sum(r() is not None for r in results))
            result = grads(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(trainer_module, "batch_grads", tracked)
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(tmp_path / "m.rare"), "--epochs", "2", "--batch", "8",
                         "--hash-dim", "4096", "--dim", "16"]) == 0
        assert alive == [0] * 14  # 50 triples in batches of 8, twice

    def test_empty_train_set(self):
        _, pools = make_train_task()
        with pytest.raises(SpecInvalid):
            train([], pools, small_params(), self.config())

    def test_bad_mixture(self):
        train_set, pools = make_train_task()
        with pytest.raises(SpecInvalid):
            train(train_set, pools, small_params(), self.config(ic_mixture=1.5))

    def test_missing_negative_rejected_when_loss_needs_it(self):
        train_set, pools = make_train_task()
        train_set[3] = TrainExample(task_id="t", instruction="", query="q", positive="p", negative="")
        with pytest.raises(MissingNegative):
            train(train_set, pools, small_params(), self.config())

    def test_missing_pool_rejected(self):
        train_set, _ = make_train_task()
        with pytest.raises(EmptyPool):
            train(train_set, {}, small_params(), self.config())

    def test_plain_format_needs_no_pool(self):
        train_set, _ = make_train_task()
        config = self.config(format=PromptFormat(kind=FormatKind.INST), epochs=1)
        _, history = train(train_set, {}, small_params(), config)
        assert len(history) == 1


def count_featurize(monkeypatch) -> list[str]:
    """Texts passed to the trainer's `featurize`, in call order."""
    calls: list[str] = []

    def counted(params, text, memo=None):
        calls.append(text)
        return featurize(params, text, memo)

    monkeypatch.setattr(trainer_module, "featurize", counted)
    return calls


class TestFeatureCache:
    def test_shared_cache_matches_fresh_features(self, rng):
        # Batches reuse texts across calls and epochs while W moves; a shared
        # cache must give the bytes a per-call one gives.
        params = small_params(seed=3, hash_dim=64, embed_dim=8)
        texts = [random_text(rng, 6) for _ in range(8)] + ["", "..."]
        features = Features(params)
        for step in range(12):
            batch = [
                RenderedExample(query=rng.choice(texts), positive=rng.choice(texts[:8]),
                                negative=rng.choice([None, *texts]))
                for _ in range(4)
            ]
            if step % 3 == 0:
                batch[0] = RenderedExample(query="", positive=batch[0].positive, negative=batch[0].negative)
            config = TrainConfig(temperature=0.1, include_batch_hard_negatives=step % 2 == 0)
            fresh = batch_grads(batch, params, config)
            cached = batch_grads(batch, params, config, features)
            assert cached.value == fresh.value
            assert cached.cols.tobytes() == fresh.cols.tobytes()
            assert cached.block.tobytes() == fresh.block.tobytes()
            fresh.descend(params.projection, 0.5)
            if step % 4 == 3:
                features.next_epoch()

    @pytest.mark.parametrize("orders", [(1,), (1, 2), (1, 2, 3)])
    @pytest.mark.parametrize(("text", "max_tokens"), [
        ("", None),
        ("... !!", None),
        ("apple banana apple banana apple cherry", None),
        ("apple banana cherry stone river maple", 3),
    ], ids=["empty", "gram-free", "repeated-grams", "max-tokens-cut"])
    def test_arrays_hold_featurize_in_order(self, orders, text, max_tokens):
        params = new_params(hash_dim=256, embed_dim=12, ngram_orders=orders, max_tokens=max_tokens)
        feats = featurize(params, text)
        cols, vals = Features(params).of(text)
        assert cols.dtype == np.int64 and vals.dtype == np.float64
        assert cols.tolist() == list(feats)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in feats.values()]

    def test_text_unused_for_an_epoch_is_featurized_again(self, monkeypatch):
        calls = count_featurize(monkeypatch)
        features = Features(small_params())
        features.of("apple banana")
        features.of("cherry stone")
        features.of("")
        features.of("")  # a gram-free text's {} is a hit too
        features.next_epoch()
        features.of("apple banana")  # used last epoch
        features.next_epoch()
        features.of("apple banana")  # used last epoch
        features.of("cherry stone")  # not used last epoch
        assert calls == ["apple banana", "cherry stone", "", "cherry stone"]

    def test_batch_grads_featurizes_through_the_cache(self, monkeypatch):
        calls = count_featurize(monkeypatch)
        params = small_params()
        batch = [RenderedExample(query="apple banana", positive="cherry stone", negative="river maple"),
                 RenderedExample(query="cloud ember", positive="cherry stone", negative="frost galaxy")]
        features = Features(params)
        first = batch_grads(batch, params, TrainConfig(), features)
        assert len(calls) == 5  # distinct texts
        second = batch_grads(batch, params, TrainConfig(), features)
        assert len(calls) == 5
        assert second.block.tobytes() == first.block.tobytes()
        batch_grads(batch, params, TrainConfig())
        assert len(calls) == 10  # no cache: every distinct text again

    def test_random_selection_holds_at_most_two_epochs(self, monkeypatch):
        # Under random selection the rendered queries change every epoch; the
        # cache holds this epoch's texts and what is left of the last one's.
        train_set, pools = make_train_task()
        queries: dict[int, set[str]] = {}
        held: list[tuple[set[str], set[str]]] = []
        next_epoch = Features.next_epoch

        def recording(self):
            held.append((set(self.now), set(self.last)))
            next_epoch(self)

        monkeypatch.setattr(Features, "next_epoch", recording)
        config = TrainConfig(k=2, batch_size=8, epochs=5, ic_mixture=1.0, selection=SelectionPolicy.RANDOM, seed=5)
        train(train_set, pools, small_params(), config,
              render_hook=lambda epoch, idx, aug: queries.setdefault(epoch, set()).add(aug.text))
        docs = {t for ex in train_set for t in (ex.positive, ex.negative)}
        used = [queries[e] | docs for e in range(config.epochs)]
        assert len(held) == config.epochs
        for epoch, (now, last) in enumerate(held):
            assert now == used[epoch]
            assert last <= (used[epoch - 1] - used[epoch] if epoch else set())
        assert len(set().union(*used)) > max(len(a | b) for a, b in zip(used, used[1:]))

    def test_default_train_featurizes_within_the_window(self, tmp_path, monkeypatch):
        # The default `rare train` on synth seed 7 sees 1,024 distinct texts
        # in 5,650 batch lookups; a text is featurized again only after a
        # whole epoch without it, which leaves 1,371 calls.
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        calls = count_featurize(monkeypatch)
        model = tmp_path / "m.rare"
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(model)]) == 0
        assert len(calls) == 1371
        assert len(set(calls)) == 1024
        log = [json.loads(line) for line in (tmp_path / "m.rare.log.jsonl").read_text().splitlines()]
        assert log[-1]["mean_loss"] == pytest.approx(6.217442360679975, abs=1e-12)

    def test_default_train_hashes_each_gram_once_per_memo(self, tmp_path, monkeypatch):
        # The default `rare train` on synth seed 7 looks up 304,869 grams; the
        # run's memo answers all but the 12,969 it hashes.
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        counts = embedder._GramCounts()
        monkeypatch.setattr(embedder, "_bucket", counts)
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(tmp_path / "m.rare")]) == 0
        assert (counts.lookups, counts.hashes) == (304_869, 12_969)

    def test_back_to_back_trains_equal_each_alone(self, tmp_path):
        # Each training run owns its gram memo: a run after one with another
        # hash seed and dimension writes the bytes it writes in a fresh process.
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        runs = {"a": ["--seed", "1", "--hash-dim", "4096"], "b": ["--seed", "2", "--hash-dim", "8192"]}

        def argv(name, where):
            return ["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                    "--epochs", "2", "--out", str(where / f"{name}.rare"), *runs[name]]

        together, alone = tmp_path / "together", tmp_path / "alone"
        together.mkdir()
        alone.mkdir()
        for name in runs:
            assert dispatch(argv(name, together)) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        for name in runs:
            subprocess.run([sys.executable, "-m", "rare.cli", *argv(name, alone)], env=env, check=True,
                           capture_output=True, timeout=120)
            for file in (f"{name}.rare", f"{name}.rare.log.jsonl"):
                assert (together / file).read_bytes() == (alone / file).read_bytes(), file

    def test_default_train_selects_once_per_query(self, tmp_path, monkeypatch):
        # The default `rare train` on synth seed 7 renders 1,418 queries with
        # retrieved examples over 5 epochs, from 400 distinct training queries.
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        calls: list[str] = []
        top_k = bm25.top_k_neighbors

        def counted(index, query, k, exclude=None):
            calls.append(query)
            return top_k(index, query, k, exclude=exclude)

        monkeypatch.setattr(bm25, "top_k_neighbors", counted)
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(tmp_path / "m.rare")]) == 0
        assert len(calls) == len(set(calls)) == 400
