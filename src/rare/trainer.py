"""Contrastive training of the embedder projection over augmented queries.

Each training example contributes an InfoNCE-style loss: the query embedding
should be closer to its positive document than to a hard negative and to the
positives of the other examples in the batch. With candidate similarities
s_c (positive first) and temperature tau,

    L = -s_pos / tau + logsumexp(s / tau)

computed with max subtraction. The gradient with respect to the projection W
is exact and flows through projection and L2 normalization on both the query
and the candidate side:

    dL/du_q = (v - (e_q . v) e_q) / ||u_q||,  v = sum_c coef_c e_c
    dL/du_c = coef_c (e_q - s_c e_c) / ||u_c||
    coef_c  = (softmax(s / tau)_c - [c == pos]) / tau

and dL/dW accumulates g xT for each text with features x. Texts that embed
to the zero vector have constant similarity 0 by convention and contribute
no gradient.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import bm25
from .data import ExamplePool, ICExample, TrainExample
from .embedder import EmbedderParams, featurize, project
from .errors import (
    EmptyPool,
    MissingNegative,
    NonFiniteLoss,
    NonPositiveTemperature,
    PoolTooSmall,
    SpecInvalid,
)
from .prompt import AugmentedQuery, PromptFormat, render_inst, render_inst_ic

log = logging.getLogger(__name__)


class SelectionPolicy(Enum):
    RETRIEVED = "retrieved"
    RANDOM = "random"


@dataclass
class TrainConfig:
    k: int = 5
    temperature: float = 0.01
    batch_size: int = 32
    epochs: int = 5
    learning_rate: float = 0.003
    ic_mixture: float = 0.7  # probability a query is rendered with examples
    selection: SelectionPolicy = SelectionPolicy.RETRIEVED
    format: PromptFormat = field(default_factory=PromptFormat)
    seed: int = 0
    use_hard_negative: bool = True
    include_batch_hard_negatives: bool = False
    dedupe_in_batch: bool = True


@dataclass(frozen=True)
class RenderedExample:
    """A training example after query augmentation, ready to embed."""

    query: str
    positive: str
    negative: str | None = None


@dataclass
class BatchLoss:
    value: float
    grads: np.ndarray  # same shape as the projection


@dataclass
class _Encoded:
    feats: dict[int, float]
    e: np.ndarray
    norm: float


def _encode_texts(texts: list[str], params: EmbedderParams) -> dict[str, _Encoded]:
    cache: dict[str, _Encoded] = {}
    for text in texts:
        if text in cache:
            continue
        feats = featurize(params, text)
        u = project(params, feats)
        norm = float(np.linalg.norm(u))
        e = u / norm if norm > 0.0 else np.zeros(params.embed_dim)
        cache[text] = _Encoded(feats=feats, e=e, norm=norm)
    return cache


def batch_grads(batch: list[RenderedExample], params: EmbedderParams, config: TrainConfig) -> BatchLoss:
    """Mean loss over the batch and its exact gradient w.r.t. the projection."""
    if config.temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {config.temperature}")
    if not batch:
        raise SpecInvalid("batch_grads needs a non-empty batch")
    texts: list[str] = []
    for ex in batch:
        texts.append(ex.query)
        texts.append(ex.positive)
        if ex.negative:
            texts.append(ex.negative)
    cache = _encode_texts(texts, params)

    tau = config.temperature
    total_loss = 0.0
    g_by_text: dict[str, np.ndarray] = {}

    def add_grad(text: str, g: np.ndarray) -> None:
        acc = g_by_text.get(text)
        if acc is None:
            g_by_text[text] = g.copy()
        else:
            acc += g

    for i, ex in enumerate(batch):
        cand_texts = [ex.positive]
        if config.use_hard_negative and ex.negative:
            cand_texts.append(ex.negative)
        seen: list[RenderedExample] = [ex]
        for j, other in enumerate(batch):
            if j == i:
                continue
            if config.dedupe_in_batch:
                if any(other == s for s in seen):
                    continue
                seen.append(other)
            cand_texts.append(other.positive)
            if config.include_batch_hard_negatives and other.negative:
                cand_texts.append(other.negative)

        q = cache[ex.query]
        e_cands = np.stack([cache[t].e for t in cand_texts])
        sims = e_cands @ q.e
        z = sims / tau
        m = float(np.max(z))
        exp_z = np.exp(z - m)
        denom = float(np.sum(exp_z))
        total_loss += -(z[0] - m) + np.log(denom)
        coef = exp_z / denom
        coef[0] -= 1.0
        coef /= tau

        if q.norm > 0.0:
            v = coef @ e_cands
            add_grad(ex.query, (v - q.e * float(q.e @ v)) / q.norm)
            for c, text_c in enumerate(cand_texts):
                tc = cache[text_c]
                if tc.norm > 0.0:
                    add_grad(text_c, coef[c] * (q.e - sims[c] * tc.e) / tc.norm)

    n = len(batch)
    grads = np.zeros_like(params.projection)
    for text, g in g_by_text.items():
        feats = cache[text].feats
        if not feats:
            continue
        cols = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
        vals = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
        grads[:, cols] += np.outer(g / n, vals)
    value = total_loss / n
    if not np.isfinite(value) or not np.all(np.isfinite(grads)):
        raise NonFiniteLoss(f"batch produced non-finite loss or gradient (loss={value})")
    return BatchLoss(value=value, grads=grads)


def select_examples(
    pool: ExamplePool,
    index: bm25.Bm25Index,
    query: str,
    k: int,
    policy: SelectionPolicy,
    rng: random.Random,
) -> list[ICExample]:
    """Pick up to k in-context examples for `query` from the pool.

    Retrieved policy ranks pool queries by BM25 against `query`, most similar
    first, excluding a pool entry whose query text is identical. Random policy
    draws k distinct entries from `rng`. Retrieved may return fewer than k
    when BM25 finds no term overlap at all.
    """
    if not pool.examples:
        raise EmptyPool(f"pool for task {pool.task_id!r} is empty")
    if k <= 0:
        return []
    if policy is SelectionPolicy.RANDOM:
        if len(pool.examples) < k:
            raise PoolTooSmall(f"pool has {len(pool.examples)} examples, need {k}")
        return rng.sample(pool.examples, k)
    self_ordinal = pool.ordinal_of(query)
    effective = len(pool.examples) - (1 if self_ordinal is not None else 0)
    if effective < k:
        raise PoolTooSmall(f"pool has {effective} usable examples after self-exclusion, need {k}")
    neighbors = bm25.top_k_neighbors(index, query, k, exclude=self_ordinal)
    return [pool.examples[ordinal] for ordinal, _ in neighbors]


def _validate(train_set: list[TrainExample], pools: dict[str, ExamplePool], config: TrainConfig) -> None:
    if not train_set:
        raise SpecInvalid("training set is empty")
    if not 0.0 <= config.ic_mixture <= 1.0:
        raise SpecInvalid(f"ic_mixture must be in [0, 1], got {config.ic_mixture}")
    if config.temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {config.temperature}")
    if config.k < 0 or config.batch_size < 1 or config.epochs < 0 or config.learning_rate < 0:
        raise SpecInvalid("k, batch_size, epochs and learning_rate must be non-negative (batch_size >= 1)")
    if config.use_hard_negative:
        for ex in train_set:
            if not ex.negative:
                raise MissingNegative(
                    f"training example for query {ex.query!r} has no negative but the loss expects one"
                )
    if config.format.uses_examples(config.k) and config.ic_mixture > 0.0:
        missing = {ex.task_id for ex in train_set} - set(pools)
        if missing:
            raise EmptyPool(f"no example pool for task(s): {sorted(missing)}")


def train(
    train_set: list[TrainExample],
    pools: dict[str, ExamplePool],
    params: EmbedderParams,
    config: TrainConfig,
    render_hook: Callable[[int, int, AugmentedQuery], None] | None = None,
) -> tuple[EmbedderParams, list[dict]]:
    """Plain SGD over shuffled batches; returns params and per-epoch mean losses.

    In-context examples are re-selected every epoch, and each example flips
    its own seeded coin per epoch: with probability `ic_mixture` the query is
    rendered with examples, otherwise in the plain instruction format.
    Documents are always embedded bare.
    """
    _validate(train_set, pools, config)
    uses_examples = config.format.uses_examples(config.k) and config.ic_mixture > 0.0

    order_rng = random.Random(f"{config.seed}:order")
    coin_rng = random.Random(f"{config.seed}:coin")
    select_rng = random.Random(f"{config.seed}:select")

    history: list[dict] = []
    n = len(train_set)
    for epoch in range(config.epochs):
        order = list(range(n))
        order_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            rendered: list[RenderedExample] = []
            for idx in chunk:
                ex = train_set[idx]
                if uses_examples and coin_rng.random() < config.ic_mixture:
                    pool = pools[ex.task_id]
                    examples = select_examples(
                        pool, pool.bm25_index(), ex.query, config.k, config.selection, select_rng,
                    )
                    aug = render_inst_ic(ex.instruction, examples, ex.query, config.format)
                else:
                    aug = render_inst(ex.instruction, ex.query, config.format.bracket_queries)
                if render_hook is not None:
                    render_hook(epoch, idx, aug)
                rendered.append(
                    RenderedExample(query=aug.text, positive=ex.positive, negative=ex.negative or None)
                )
            result = batch_grads(rendered, params, config)
            params.projection -= config.learning_rate * result.grads
            epoch_loss += result.value * len(chunk)
        mean_loss = epoch_loss / n
        history.append({"epoch": epoch, "mean_loss": mean_loss})
        log.info("epoch %d: mean loss %.6f", epoch, mean_loss)
    return params, history
