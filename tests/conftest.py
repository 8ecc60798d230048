"""Shared helpers for the test suite.

Property tests draw their cases from seeded random.Random instances so every
run sees the same inputs; failures reproduce without any extra machinery.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from rare.embedder import EmbedderParams, feature_arrays, featurize, project, unit

WORDS = [
    "apple", "banana", "cherry", "quartz", "river", "stone", "maple", "cloud",
    "ember", "frost", "galaxy", "harbor", "island", "jungle", "kernel", "lunar",
    "meadow", "nectar", "orchid", "prairie", "quiver", "raven", "saffron",
    "tundra", "umber", "violet", "willow", "xenon", "yarrow", "zephyr",
]


def random_text(rng: random.Random, max_tokens: int = 10, min_tokens: int = 1) -> str:
    n = rng.randint(min_tokens, max_tokens)
    return " ".join(rng.choice(WORDS) for _ in range(n))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


# `embed_many` forks workers only when more than one CPU is usable.
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs to fork workers")


def no_pool(*_args, **_kwargs):
    """A stand-in for `ProcessPoolExecutor` where no worker may be forked."""
    raise AssertionError("at most four ranges (1,024 texts) or one usable CPU: no worker may be forked")


def dense_features(params: EmbedderParams, text: str) -> np.ndarray:
    x = np.zeros(params.hash_dim)
    for bucket, value in featurize(params, text).items():
        x[bucket] += value
    return x


def oracle_candidates(batch, i, config) -> list[str]:
    """Candidate texts for batch example i under the documented batch rule:
    own positive, own hard negative if used, then the other examples'
    positives (and optionally negatives), with duplicate examples skipped."""
    ex = batch[i]
    cands = [ex.positive]
    if config.use_hard_negative and ex.negative:
        cands.append(ex.negative)
    seen = [ex]
    for j, other in enumerate(batch):
        if j == i:
            continue
        if config.dedupe_in_batch:
            if any(other == s for s in seen):
                continue
            seen.append(other)
        cands.append(other.positive)
        if config.include_batch_hard_negatives and other.negative:
            cands.append(other.negative)
    return cands


def oracle_batch_loss(batch, params: EmbedderParams, config) -> tuple[float, np.ndarray]:
    """Mean batch loss and its dense gradient w.r.t. the projection, one
    example at a time: each query's softmax over its `oracle_candidates`, and
    each text's gradient added up in a dict before it meets its features."""
    tau = config.temperature
    embedded: dict[str, tuple[np.ndarray, float]] = {}
    g_by_text: dict[str, np.ndarray] = {}

    def emb(text: str) -> tuple[np.ndarray, float]:
        if text not in embedded:
            embedded[text] = unit(project(params, *feature_arrays(featurize(params, text))))
        return embedded[text]

    def add_grad(text: str, g: np.ndarray) -> None:
        g_by_text[text] = g_by_text[text] + g if text in g_by_text else g

    total_loss = 0.0
    for i, ex in enumerate(batch):
        cands = oracle_candidates(batch, i, config)
        e_q, norm_q = emb(ex.query)
        e_cands = np.array([emb(c)[0] for c in cands])
        sims = e_cands @ e_q
        z = sims / tau
        m = float(np.max(z))
        exp_z = np.exp(z - m)
        denom = float(np.sum(exp_z))
        total_loss += -(z[0] - m) + np.log(denom)
        coef = exp_z / denom
        coef[0] -= 1.0
        coef /= tau
        if norm_q > 0.0:
            v = coef @ e_cands
            add_grad(ex.query, (v - e_q * float(e_q @ v)) / norm_q)
            for c, text in enumerate(cands):
                e_c, norm_c = emb(text)
                if norm_c > 0.0:
                    add_grad(text, coef[c] * (e_q - sims[c] * e_c) / norm_c)

    n = len(batch)
    grads = np.zeros(params.projection.shape)
    for text, g in g_by_text.items():
        grads += np.outer(g / n, dense_features(params, text))
    return total_loss / n, grads


def fd_grads(batch, params: EmbedderParams, config, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the mean batch loss over every projection
    entry, derived directly from the loss definition.

    Perturbing W[i, j] by delta shifts each text's projection u_t by
    delta * x_t[j] along coordinate i, so norms and dot products at the
    perturbed point follow in closed form from the unperturbed ones. That
    lets one numpy pass evaluate the loss for a whole row of perturbations.
    """
    texts: list[str] = []
    index_of: dict[str, int] = {}
    for ex in batch:
        for text in (ex.query, ex.positive, ex.negative):
            # An empty query keeps a row: its zero features embed to zero.
            if text is not None and text not in index_of:
                index_of[text] = len(texts)
                texts.append(text)
    X = np.stack([dense_features(params, t) for t in texts])
    X2 = X * X
    W = params.projection
    U = X @ W.T
    dot_base = U @ U.T
    normsq_base = np.einsum("td,td->t", U, U)
    tau = config.temperature
    pairs = []
    for b, ex in enumerate(batch):
        cand_idx = [index_of[t] for t in oracle_candidates(batch, b, config)]
        pairs.append((index_of[ex.query], cand_idx))

    def loss_vector(i: int, delta: float) -> np.ndarray:
        ns = normsq_base[:, None] + 2.0 * delta * X * U[:, i : i + 1] + delta * delta * X2
        inv = np.where(ns > 0.0, 1.0 / np.sqrt(np.where(ns > 0.0, ns, 1.0)), 0.0)
        total = np.zeros(X.shape[1])
        for qi, cand_idx in pairs:
            dots = (
                dot_base[qi, cand_idx][:, None]
                + delta * (X[cand_idx] * U[qi, i] + X[qi][None, :] * U[cand_idx, i][:, None])
                + delta * delta * (X[qi][None, :] * X[cand_idx])
            )
            z = dots * inv[qi][None, :] * inv[cand_idx] / tau
            m = z.max(axis=0)
            total += -z[0] + m + np.log(np.exp(z - m).sum(axis=0))
        return total / len(batch)

    grads = np.empty_like(W)
    for i in range(W.shape[0]):
        grads[i] = (loss_vector(i, h) - loss_vector(i, -h)) / (2.0 * h)
    return grads
