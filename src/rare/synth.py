"""Synthetic clustered retrieval benchmark.

Each cluster owns a private vocabulary, disjoint from every other cluster
and from a shared vocabulary. Documents draw 80% of their tokens from their
cluster's private vocabulary and 20% from the shared one. Queries are made
deliberately ambiguous: a `query_ambiguity` fraction of their tokens is
shared vocabulary, so at ambiguity 1.0 the query text alone cannot identify
the cluster, while any in-context document from the right cluster carries
plenty of private tokens. Relevance is cluster membership.

The private vocabulary is split into a document part and a query part.
Documents use only the document part; query texts (evaluation, training and
pool queries alike) use only the query part. Query-part words therefore
never occur in any document, which is what gives in-context documents their
value here: lexical example retrieval matches query-part words between a
query and the pool directly, and the documents it pulls in carry the
document-part words that actually identify the cluster in the corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .data import Document, ExamplePool, ICExample, QRels, Query, TrainExample
from .errors import SpecInvalid

DOC_TOKENS = 30
QUERY_TOKENS = 10
PRIVATE_DOC_FRACTION = 0.8
QUERY_PART_FRACTION = 0.08
TRAIN_QUERIES_PER_CLUSTER_FACTOR = 5

TASK_ID = "synth"
INSTRUCTION = ""


@dataclass(frozen=True)
class SynthSpec:
    n_clusters: int = 8
    vocab_per_cluster: int = 96
    shared_vocab: int = 100
    docs_per_cluster: int = 40
    queries_per_cluster: int = 10
    query_ambiguity: float = 0.8
    seed: int = 7


@dataclass
class SynthBenchmark:
    corpus: dict[str, Document]
    queries: list[Query]
    qrels: QRels
    train_set: list[TrainExample]
    pool: ExamplePool


def private_vocabulary(spec: SynthSpec, cluster: int) -> list[str]:
    return [f"c{cluster}w{i}" for i in range(spec.vocab_per_cluster)]


def doc_part(spec: SynthSpec, cluster: int) -> list[str]:
    words = private_vocabulary(spec, cluster)
    n_query = max(1, round(QUERY_PART_FRACTION * len(words)))
    return words[: len(words) - n_query] or words


def query_part(spec: SynthSpec, cluster: int) -> list[str]:
    words = private_vocabulary(spec, cluster)
    n_query = max(1, round(QUERY_PART_FRACTION * len(words)))
    return words[len(words) - n_query :]


def shared_vocabulary(spec: SynthSpec) -> list[str]:
    return [f"sh{i}" for i in range(spec.shared_vocab)]


def _validate(spec: SynthSpec) -> None:
    if spec.n_clusters < 1:
        raise SpecInvalid(f"need at least one cluster, got {spec.n_clusters}")
    if spec.vocab_per_cluster < 1 or spec.shared_vocab < 1:
        raise SpecInvalid("vocabulary sizes must be positive")
    if spec.docs_per_cluster < 1 or spec.queries_per_cluster < 1:
        raise SpecInvalid("docs_per_cluster and queries_per_cluster must be positive")
    if not 0.0 <= spec.query_ambiguity <= 1.0:
        raise SpecInvalid(f"query_ambiguity must be in [0, 1], got {spec.query_ambiguity}")


def _query_tokens(spec: SynthSpec, rng: random.Random, private: list[str], shared: list[str]) -> list[str]:
    n_shared = round(spec.query_ambiguity * QUERY_TOKENS)
    tokens = rng.choices(private, k=QUERY_TOKENS - n_shared) + rng.choices(shared, k=n_shared)
    rng.shuffle(tokens)
    return tokens


def generate(spec: SynthSpec) -> SynthBenchmark:
    """Build the benchmark deterministically from the spec's seed."""
    _validate(spec)
    rng = random.Random(spec.seed)
    shared = shared_vocabulary(spec)

    corpus: dict[str, Document] = {}
    cluster_doc_ids: list[list[str]] = []
    n_private = round(PRIVATE_DOC_FRACTION * DOC_TOKENS)
    for cluster in range(spec.n_clusters):
        words = doc_part(spec, cluster)
        doc_ids = []
        for i in range(spec.docs_per_cluster):
            tokens = rng.choices(words, k=n_private) + rng.choices(shared, k=DOC_TOKENS - n_private)
            rng.shuffle(tokens)
            doc_id = f"d{cluster}-{i}"
            corpus[doc_id] = Document(id=doc_id, title="", text=" ".join(tokens))
            doc_ids.append(doc_id)
        cluster_doc_ids.append(doc_ids)

    queries: list[Query] = []
    judgments: dict[str, dict[str, int]] = {}
    for cluster in range(spec.n_clusters):
        words = query_part(spec, cluster)
        for i in range(spec.queries_per_cluster):
            qid = f"q{cluster}-{i}"
            queries.append(Query(id=qid, text=" ".join(_query_tokens(spec, rng, words, shared))))
            judgments[qid] = {doc_id: 1 for doc_id in cluster_doc_ids[cluster]}

    train_set: list[TrainExample] = []
    pool_examples: list[ICExample] = []
    n_train = spec.queries_per_cluster * TRAIN_QUERIES_PER_CLUSTER_FACTOR
    for cluster in range(spec.n_clusters):
        words = query_part(spec, cluster)
        for _ in range(n_train):
            text = " ".join(_query_tokens(spec, rng, words, shared))
            positive = corpus[rng.choice(cluster_doc_ids[cluster])].text
            if spec.n_clusters > 1:
                other = rng.choice([c for c in range(spec.n_clusters) if c != cluster])
            else:
                other = cluster  # degenerate single-cluster case: no true negative exists
            negative = corpus[rng.choice(cluster_doc_ids[other])].text
            train_set.append(
                TrainExample(
                    task_id=TASK_ID, instruction=INSTRUCTION,
                    query=text, positive=positive, negative=negative,
                )
            )
            pool_examples.append(ICExample(query=text, positive=positive, negative=negative))

    pool = ExamplePool(task_id=TASK_ID, examples=pool_examples)
    return SynthBenchmark(
        corpus=corpus, queries=queries, qrels=QRels(judgments=judgments),
        train_set=train_set, pool=pool,
    )
