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
no gradient. The gradient is zero outside the columns of the batch's
features, so it is kept, and W updated, on those columns only.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import bm25
from .data import ExamplePool, ICExample, TrainExample
from .embedder import EmbedderParams, featurize, project, unit
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
    cols: np.ndarray  # sorted columns of the projection the batch's features touch
    block: np.ndarray  # (len(cols), embed_dim): the gradient of those columns, as rows
    shape: tuple[int, int]  # the projection's

    @property
    def grads(self) -> np.ndarray:
        """The dense gradient, zero outside `cols`; same shape as the projection."""
        dense = np.zeros(self.shape)
        dense[:, self.cols] = self.block.T
        return dense

    def descend(self, projection: np.ndarray, learning_rate: float) -> None:
        """`projection -= learning_rate * grads`, on `cols` only: w - lr * 0.0 == w."""
        projection.T[self.cols] -= learning_rate * self.block


def batch_grads(batch: list[RenderedExample], params: EmbedderParams, config: TrainConfig) -> BatchLoss:
    """Mean loss over the batch and its exact gradient w.r.t. the projection."""
    if config.temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {config.temperature}")
    if not batch:
        raise SpecInvalid("batch_grads needs a non-empty batch")
    # Every query and positive gets a row, even when empty; a negative only
    # when non-empty (`or ex.positive` repeats a text that already has one).
    texts = list(dict.fromkeys(t for ex in batch for t in (ex.query, ex.positive, ex.negative or ex.positive)))
    row = {text: r for r, text in enumerate(texts)}
    feats, norms = [], []
    emb = np.zeros((len(texts), params.embed_dim))
    for r, text in enumerate(texts):
        feats.append(featurize(params, text))
        emb[r], norm = unit(project(params, feats[r]))
        norms.append(norm)
    distinct = list(dict.fromkeys(batch))
    slot = {ex: s for s, ex in enumerate(distinct)}

    tau = config.temperature
    total_loss = 0.0
    # Per-row gradients in first-touch order: the block below sums each
    # column of W in this order, and that order decides the bits.
    g_by_row: dict[int, np.ndarray] = {}

    def add_grad(r: int, g: np.ndarray) -> None:
        g_by_row[r] = g_by_row[r] + g if r in g_by_row else g

    for i, ex in enumerate(batch):
        if config.dedupe_in_batch:
            others = distinct[: slot[ex]] + distinct[slot[ex] + 1 :]
        else:
            others = batch[:i] + batch[i + 1 :]
        cands = [row[ex.positive]]
        if config.use_hard_negative and ex.negative:
            cands.append(row[ex.negative])
        for other in others:
            cands.append(row[other.positive])
            if config.include_batch_hard_negatives and other.negative:
                cands.append(row[other.negative])

        q = row[ex.query]
        e_q = emb[q]
        e_cands = emb[cands]
        sims = e_cands @ e_q
        z = sims / tau
        m = float(np.max(z))
        exp_z = np.exp(z - m)
        denom = float(np.sum(exp_z))
        total_loss += -(z[0] - m) + np.log(denom)
        coef = exp_z / denom
        coef[0] -= 1.0
        coef /= tau

        if norms[q] > 0.0:
            v = coef @ e_cands
            add_grad(q, (v - e_q * float(e_q @ v)) / norms[q])
            for c, r in enumerate(cands):
                if norms[r] > 0.0:
                    add_grad(r, coef[c] * (e_q - sims[c] * emb[r]) / norms[r])

    n = len(batch)
    cols = np.unique(np.fromiter((c for r in g_by_row for c in feats[r]), dtype=np.int64))
    # Each touched column sums its per-text terms from 0.0 in g_by_row order,
    # as a dense gradient would; a text's own columns are distinct.
    block = np.zeros((len(cols), params.embed_dim))
    for r, g in g_by_row.items():
        text_cols = np.fromiter(feats[r].keys(), dtype=np.int64, count=len(feats[r]))
        vals = np.fromiter(feats[r].values(), dtype=np.float64, count=len(feats[r]))
        block[np.searchsorted(cols, text_cols)] += np.outer(vals, g / n)
    value = total_loss / n
    if not np.isfinite(value) or not np.all(np.isfinite(block)):
        raise NonFiniteLoss(f"batch produced non-finite loss or gradient (loss={value})")
    return BatchLoss(value=value, cols=cols, block=block, shape=params.projection.shape)


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
    if not (math.isfinite(config.learning_rate) and math.isfinite(config.temperature)):
        raise SpecInvalid(
            f"learning_rate and temperature must be finite, got {config.learning_rate} and {config.temperature}"
        )
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
            result.descend(params.projection, config.learning_rate)
            epoch_loss += result.value * len(chunk)
        mean_loss = epoch_loss / n
        history.append({"epoch": epoch, "mean_loss": mean_loss})
        log.info("epoch %d: mean loss %.6f", epoch, mean_loss)
    return params, history
