"""Contrastive loss, analytic gradients against finite differences, example
selection policies, and the training loop."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from rare import bm25
from rare.data import ExamplePool, ICExample, TrainExample
from rare.embedder import cosine, embed, new_params
from rare.errors import (
    EmptyPool,
    MissingNegative,
    NonPositiveTemperature,
    PoolTooSmall,
    SpecInvalid,
)
from rare.prompt import FormatKind, PromptFormat
from rare.trainer import (
    RenderedExample,
    SelectionPolicy,
    TrainConfig,
    batch_grads,
    select_examples,
    train,
)

from conftest import WORDS, fd_grads, oracle_candidates, random_text


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

    def test_grads_shape_and_finiteness(self, rng):
        params = small_params()
        batch = [random_example(rng) for _ in range(3)]
        result = batch_grads(batch, params, TrainConfig())
        assert result.grads.shape == params.projection.shape
        assert np.all(np.isfinite(result.grads))
        assert math.isfinite(result.value)


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
