"""nDCG@K evaluation, ablation tables, and Score@Top-1 bucketing.

nDCG uses the graded gain 2^grade - 1 and the discount 1 / log2(rank + 1)
with ranks starting at 1. Queries that have no relevant document in the
qrels cannot be ranked meaningfully, so they are excluded from the mean and
counted separately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import bm25
from .data import Document, ExamplePool, QRels, Query
from .embedder import EmbedderParams, cosine, embed
from .errors import SpecInvalid
from .prompt import PromptFormat
from .retrieve import FlatIndex, StageTimes, build_flat_index, run_inference
from .trainer import SelectionPolicy


def ndcg_at_k(ranked: list[tuple[str, float]], judged: dict[str, int], k: int) -> float:
    """nDCG@k of one ranked list against graded judgments.

    Unjudged documents gain nothing. Returns 0.0 when no judged document has
    a positive grade; callers decide whether such queries count.
    """
    gains = sorted((g for g in judged.values() if g > 0), reverse=True)
    if not gains:
        return 0.0
    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranked[:k]):
        grade = judged.get(doc_id, 0)
        if grade > 0:
            dcg += (2.0**grade - 1.0) / math.log2(i + 2)
    idcg = sum((2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(gains[:k]))
    return dcg / idcg


@dataclass
class EvalReport:
    dataset: str
    k: int
    per_query: dict[str, float]
    mean: float | None
    zero_relevant: list[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def n_evaluated(self) -> int:
        return len(self.per_query) - len(self.zero_relevant)


def evaluate(
    run: dict[str, list[tuple[str, float]]],
    qrels: QRels,
    k: int = 10,
    dataset: str = "",
    fingerprint: str = "",
) -> EvalReport:
    """Score a run against qrels; the mean skips queries with no relevant doc."""
    per_query: dict[str, float] = {}
    zero_relevant: list[str] = []
    counted: dict[str, float] = {}
    for qid, ranked in run.items():
        judged = qrels.grades_for(qid)
        value = ndcg_at_k(ranked, judged, k)
        per_query[qid] = value
        if any(g > 0 for g in judged.values()):
            counted[qid] = value
        else:
            zero_relevant.append(qid)
    # Summing in sorted-qid order keeps the mean independent of run order.
    mean = math.fsum(counted[q] for q in sorted(counted)) / len(counted) if counted else None
    return EvalReport(
        dataset=dataset, k=k, per_query=per_query, mean=mean,
        zero_relevant=zero_relevant, fingerprint=fingerprint,
    )


@dataclass(frozen=True)
class AblationCell:
    fmt: PromptFormat
    k: int
    selection: SelectionPolicy

    def label(self) -> str:
        parts = [self.fmt.kind.value, f"k={self.k}", self.selection.value]
        if self.fmt.bracket_queries:
            parts.append("brackets")
        return ",".join(parts)


@dataclass
class DatasetBundle:
    """Everything needed to run one dataset end to end."""

    name: str
    corpus: dict[str, Document]
    queries: list[Query]
    qrels: QRels
    pool: ExamplePool | None = None
    instruction: str = ""


@dataclass
class AblationTable:
    rows: list[str]
    datasets: list[str]
    cells: dict[tuple[str, str], float]  # (row label, dataset) -> mean nDCG

    def average(self, row: str) -> float:
        return sum(self.cells[(row, d)] for d in self.datasets) / len(self.datasets)


def ablate(
    cells: list[AblationCell],
    datasets: list[DatasetBundle],
    params: EmbedderParams,
    top_k: int = 10,
    ndcg_k: int = 10,
    seed: int = 0,
    times: StageTimes | None = None,
) -> AblationTable:
    """Evaluate every (setting, dataset) pair with a shared embedder.

    Every cell's inference adds its stage counts into `times` when one is given.
    """
    if not cells or not datasets:
        raise SpecInvalid("ablation needs at least one cell and one dataset")
    table = AblationTable(rows=[c.label() for c in cells], datasets=[d.name for d in datasets], cells={})
    for bundle in datasets:
        index = build_flat_index(bundle.corpus, params)
        for cell in cells:
            run = run_inference(
                bundle.queries, bundle.instruction, bundle.pool, index, params,
                cell.fmt, cell.k, top_k, selection=cell.selection, seed=seed, times=times,
            )
            report = evaluate(run, bundle.qrels, ndcg_k, dataset=bundle.name)
            if report.mean is None:
                raise SpecInvalid(f"dataset {bundle.name!r} has no query with relevant documents")
            table.cells[(cell.label(), bundle.name)] = report.mean
    return table


def write_ablation_csv(table: AblationTable, path: str | Path) -> None:
    """Rows are settings, columns are datasets, final column is the row mean."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Setting", *table.datasets, "Average"])
        for row in table.rows:
            values = [table.cells[(row, d)] for d in table.datasets]
            writer.writerow([row, *(repr(v) for v in values), repr(table.average(row))])


@dataclass
class ScoreBucket:
    lower: float
    upper: float
    n: int
    mean_ndcg_delta: float | None


def score_at_top1(
    queries: list[Query],
    pool: ExamplePool,
    params: EmbedderParams,
    report_a: EvalReport,
    report_b: EvalReport,
    bin_width: float = 0.1,
) -> list[ScoreBucket]:
    """Bucket queries by similarity to their top retrieved example query.

    The score is cosine(embed(query), embed(top-1 pool query)) under the
    given embedder, clamped into [0, 1]; no self-exclusion is applied. Each
    bucket reports how many queries landed in it and the mean nDCG delta
    (report_a minus report_b) over those queries.
    """
    if not 0.0 < bin_width <= 1.0:
        raise SpecInvalid(f"bin width must be in (0, 1], got {bin_width}")
    n_bins = math.ceil(1.0 / bin_width)
    counts = [0] * n_bins
    sums = [0.0] * n_bins
    pool_index = pool.bm25_index()
    for query in queries:
        if query.id not in report_a.per_query or query.id not in report_b.per_query:
            continue
        neighbors = bm25.top_k_neighbors(pool_index, query.text, 1)
        if neighbors:
            top = pool.examples[neighbors[0][0]]
            sim = cosine(embed(params, query.text), embed(params, top.query))
        else:
            sim = 0.0
        sim = min(max(sim, 0.0), 1.0)
        bucket = min(int(sim / bin_width), n_bins - 1)
        counts[bucket] += 1
        sums[bucket] += report_a.per_query[query.id] - report_b.per_query[query.id]
    out = []
    for i in range(n_bins):
        lower = i * bin_width
        upper = min((i + 1) * bin_width, 1.0)
        mean = sums[i] / counts[i] if counts[i] else None
        out.append(ScoreBucket(lower=lower, upper=upper, n=counts[i], mean_ndcg_delta=mean))
    return out
