"""Contrastive training of the embedder projection over augmented queries.

Each training example contributes an InfoNCE-style loss: the query embedding
should be closer to its positive document than to a hard negative and to the
positives of the other examples in the batch. The batch is computed as
matrices over its distinct texts, with unit embeddings E (one row per text),
the rows E_q of the examples' queries, and temperature tau:

    mult[i, r] = how many of example i's candidates are text r
               = offer[r] + (use - offer_neg) [r = neg_i]
    S = E_q E^T,  z = S / tau,  m_i = max of z[i] over the candidates
    L_i = log sum_r mult[i, r] exp(z[i, r] - m_i) - (z[i, pos_i] - m_i)
    C = (softmax(z) o mult - onehot(pos)) / tau,  softmax over mult > 0

The batch offers each example's positive, and its negative if offer_neg
(include_batch_hard_negatives), once per distinct example under dedupe.
Example i's own offer goes out and its positive, and negative if use
(use_hard_negative), come back: row i differs only at its own negative.

The gradient with respect to the projection W is exact and flows through
projection and L2 normalization on both the query and the candidate side:

    dL/du_q = sum of (C E - e_q (e_q . C E)) / ||u_q|| over the query's rows
    dL/du   = (C^T E_q - colsum(C o S) e) / ||u||

and dL/dW accumulates g xT for each text with features x. Texts that embed
to the zero vector have constant similarity 0 by convention and contribute
no gradient: their rows and columns of C are 0. The gradient is zero outside
the columns of the batch's features, so it is kept, and W updated, on those
columns only.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bm25
from .data import ExamplePool, ICExample, TrainExample
from .embedder import EmbedderParams, Memo, feature_arrays, featurize, project, unit
from .errors import (
    EmptyPool,
    MissingNegative,
    NonFiniteLoss,
    NonPositiveTemperature,
    PoolTooSmall,
    SpecInvalid,
)
from .prompt import AugmentedQuery, PromptFormat, SelectionPolicy, render_inst, render_inst_ic

log = logging.getLogger(__name__)

# Floats of W one slice of `BatchLoss.descend` updates: 256 KiB of float64.
_STEP_FLOATS = 32 * 1024


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
        """`projection -= learning_rate * grads`, on `cols` only: w - lr * 0.0 == w.

        Each column still gets `w - learning_rate * b`, but a slice of
        `_STEP_FLOATS` floats at a time, so the step's temporaries (the
        gathered columns and the scaled block) stay two slices, not two blocks.
        """
        step = max(1, _STEP_FLOATS // self.shape[0])
        for start in range(0, len(self.cols), step):
            projection.T[self.cols[start : start + step]] -= learning_rate * self.block[start : start + step]


class Features:
    """Each text's features, kept through the epoch after the last one that used it.

    A text's features are the (cols, vals) arrays `project` takes, in
    `featurize`'s order: two arrays rather than a dict of boxed numbers.
    Features do not depend on W. `now` holds this epoch's texts and `last` the
    previous epoch's; `next_epoch` drops whatever the epoch now ending did not
    use. Memory stays within two epochs' distinct texts, also when rendered
    queries never repeat (random example selection).

    `memo` is the run's gram memo for `featurize`. Its cap of 65,536 grams
    holds the ~13k a seed-7 train hashes; at 4,096 that train hashed 149,642.
    """

    def __init__(self, params: EmbedderParams) -> None:
        self.params = params
        self.now: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.last: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.memo = Memo(params, 1 << 16)

    def of(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """`text`'s (cols, vals); a gram-free text's are two empty arrays."""
        if text not in self.now:
            self.now[text] = self.last.pop(text, None) or feature_arrays(featurize(self.params, text, self.memo))
        return self.now[text]

    def next_epoch(self) -> None:
        self.last, self.now = self.now, {}


def batch_grads(
    batch: list[RenderedExample],
    params: EmbedderParams,
    config: TrainConfig,
    features: Features | None = None,
) -> BatchLoss:
    """Mean loss over the batch and its exact gradient w.r.t. the projection.

    `features` carries texts' (cols, vals) arrays across calls; without it
    every text of the batch is featurized afresh. The gradient block is built
    from those arrays: one `np.outer(vals, g / n)` per text with a gradient,
    added at the block rows a column -> row table gives for its columns.
    """
    if config.temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {config.temperature}")
    if not batch:
        raise SpecInvalid("batch_grads needs a non-empty batch")
    use, offer_neg = config.use_hard_negative, config.include_batch_hard_negatives
    # Every query and positive gets a row, even when empty; a negative only
    # when non-empty and some candidate can be it.
    negs = [ex.negative if (use or offer_neg) and ex.negative else None for ex in batch]
    texts = list(dict.fromkeys(t for e, neg in zip(batch, negs) for t in (e.query, e.positive, neg) if t is not None))
    row = {text: r for r, text in enumerate(texts)}
    if features is None:
        features = Features(params)
    feats = [features.of(text) for text in texts]
    emb = np.zeros((len(texts), params.embed_dim))
    norms = np.zeros(len(texts))
    for r, (text_cols, vals) in enumerate(feats):
        emb[r], norms[r] = unit(project(params, text_cols, vals))
    n = len(batch)
    offered = list(dict.fromkeys(batch)) if config.dedupe_in_batch else batch
    offer = [row[ex.positive] for ex in offered] + [row[ex.negative] for ex in offered if offer_neg and ex.negative]
    mult = np.tile(np.bincount(offer, minlength=len(texts)).astype(float), (n, 1))  # the offer, per row
    own = [i for i, neg in enumerate(negs) if neg is not None]
    mult[own, [row[negs[i]] for i in own]] += use - offer_neg  # the own-negative term (module docstring)

    tau = config.temperature
    q_rows = np.array([row[ex.query] for ex in batch])
    pos = (np.arange(n), np.array([row[ex.positive] for ex in batch]))
    e_q = emb[q_rows]
    sims = e_q @ emb.T
    # Non-candidates are masked before the exponential: one far above m overflows.
    z = np.where(mult > 0.0, sims / tau, -np.inf)
    m = z.max(axis=1, keepdims=True)
    weights = mult * np.exp(z - m)
    denom = weights.sum(axis=1, keepdims=True)
    losses = np.log(denom[:, 0]) - (z[pos] - m[:, 0])
    coef = weights / denom
    coef[pos] -= 1.0
    coef /= tau
    live = norms > 0.0  # zero embeddings have constant similarity 0: no gradient
    coef *= np.outer(live[q_rows], live)
    safe = np.where(live, norms, 1.0)[:, None]
    v = coef @ emb
    grad = (coef.T @ e_q - (coef * sims).sum(axis=0)[:, None] * emb) / safe
    np.add.at(grad, q_rows, (v - e_q * np.einsum("ij,ij->i", e_q, v)[:, None]) / safe[q_rows])

    grad_rows = np.flatnonzero(grad.any(axis=1))  # before dividing: a tiny entry / n can round to 0
    grad /= n
    touched = np.zeros(params.hash_dim, dtype=bool)
    if grad_rows.size:  # none when every query of the batch embeds to zero
        touched[np.concatenate([feats[r][0] for r in grad_rows])] = True
    cols = np.flatnonzero(touched)
    where = np.empty(params.hash_dim, dtype=np.intp)  # column -> its row of the block, on `cols`
    where[cols] = np.arange(len(cols))
    # Each touched column sums its per-text terms from 0.0 in text order, as
    # a dense gradient would; a text's own columns are distinct.
    block = np.zeros((len(cols), params.embed_dim))
    for r in grad_rows:
        text_cols, vals = feats[r]
        block[where[text_cols]] += np.outer(vals, grad[r])
    value = float(losses.sum()) / n
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

    Each example flips its own seeded coin per epoch: with probability
    `ic_mixture` the query is rendered with examples, otherwise in the plain
    instruction format. Random selection draws a query's examples afresh at
    every render; retrieved selection draws no random number, so a query's
    BM25 examples are chosen once per call and reused. Documents are always
    embedded bare. A text's features are computed again only after a whole
    epoch that did not use it.
    """
    _validate(train_set, pools, config)
    uses_examples = config.format.uses_examples(config.k) and config.ic_mixture > 0.0

    order_rng = random.Random(f"{config.seed}:order")
    coin_rng = random.Random(f"{config.seed}:coin")
    select_rng = random.Random(f"{config.seed}:select")

    features = Features(params)
    retrieved: dict[tuple[str, str], list[ICExample]] = {}  # (task_id, query) -> its BM25 examples
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
                    examples = retrieved.get((ex.task_id, ex.query))
                    if examples is None:
                        pool = pools[ex.task_id]
                        examples = select_examples(
                            pool, pool.bm25_index(), ex.query, config.k, config.selection, select_rng,
                        )
                        if config.selection is SelectionPolicy.RETRIEVED:
                            retrieved[ex.task_id, ex.query] = examples
                    aug = render_inst_ic(ex.instruction, examples, ex.query, config.format)
                else:
                    aug = render_inst(ex.instruction, ex.query, config.format.bracket_queries)
                if render_hook is not None:
                    render_hook(epoch, idx, aug)
                rendered.append(
                    RenderedExample(query=aug.text, positive=ex.positive, negative=ex.negative or None)
                )
            result = batch_grads(rendered, params, config, features)
            result.descend(params.projection, config.learning_rate)
            epoch_loss += result.value * len(chunk)
            del result  # so the next batch's block is not allocated beside this one
        features.next_epoch()
        mean_loss = epoch_loss / n
        history.append({"epoch": epoch, "mean_loss": mean_loss})
        log.info("epoch %d: mean loss %.6f", epoch, mean_loss)
    return params, history
