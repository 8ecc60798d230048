"""Stage-level latency profiling of the inference loop.

Each pass is one call of `retrieve.run_inference`, the loop `rare search`
serves queries with. Three stages are timed per query and summed over the
query set:

* NN: retrieved example selection, BM25 over the pool queries.
* Query: rendering the augmented query, then embedding it.
* Search: dot products against the flat index plus top-K selection.

A full pass over the queries is one repetition. One untimed warmup pass runs
first (it also builds the pool's BM25 index), then the median over
repetitions is reported per stage. The total is the sum of the three stage
medians, so it is additive by construction. The plain instruction setting
never touches the example pool and reports NN = 0.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

from .data import ExamplePool, Query
from .embedder import EmbedderParams
from .errors import SpecInvalid
from .prompt import FormatKind, PromptFormat
from .retrieve import FlatIndex, StageTimes, run_inference

CSV_COLUMNS = ["Dataset", "#Corpus", "Setting", "AvgQLen", "NN", "Query", "Search", "Total", "Inc"]


@dataclass
class LatencyReport:
    dataset: str
    n_corpus: int
    setting: str  # "inst" or "inst+ic"
    avg_q_len: float
    nn_s: float
    query_s: float
    search_s: float
    total_s: float
    zero_queries: int = 0  # all-zero query embeddings in one pass
    inc_factor: float | None = None


def timer_resolution() -> float:
    return time.get_clock_info("perf_counter").resolution


def profile(
    dataset: str,
    queries: list[Query],
    instruction: str,
    pool: ExamplePool | None,
    index: FlatIndex,
    params: EmbedderParams,
    setting: FormatKind,
    k: int = 5,
    top_k: int = 10,
    repetitions: int = 5,
) -> LatencyReport:
    """Time one `run_inference` pass per repetition and report stage medians."""
    # Imported here: `statistics` brings `fractions` and `decimal`, about
    # 0.5 MiB, into every numeric command that loads this module.
    from statistics import median

    if setting not in (FormatKind.INST, FormatKind.INST_IC):
        raise SpecInvalid(f"profiling covers inst and inst+ic, got {setting.value}")
    if repetitions < 1:
        raise SpecInvalid("need at least one repetition")
    fmt = PromptFormat(kind=setting)

    def one_pass() -> StageTimes:
        times = StageTimes()
        run_inference(queries, instruction, pool, index, params, fmt, k, top_k, times=times)
        return times

    one_pass()  # warmup, untimed
    samples = [one_pass() for _ in range(repetitions)]
    nn_s = median(s.select_s for s in samples)
    query_s = median(s.query_s for s in samples)
    search_s = median(s.search_s for s in samples)
    return LatencyReport(
        dataset=dataset,
        n_corpus=len(index),
        setting=setting.value,
        avg_q_len=samples[-1].tokens / len(queries) if queries else 0.0,
        nn_s=nn_s,
        query_s=query_s,
        search_s=search_s,
        total_s=nn_s + query_s + search_s,
        zero_queries=samples[-1].zero_queries,
    )


def add_inc_factors(reports: list[LatencyReport]) -> list[LatencyReport]:
    """Fill inc_factor on each inst+ic row as its total over the inst total.

    The baseline is the inst row of the same dataset; rows without a baseline
    keep inc_factor None.
    """
    baselines = {r.dataset: r.total_s for r in reports if r.setting == FormatKind.INST.value}
    for report in reports:
        if report.setting == FormatKind.INST_IC.value:
            base = baselines.get(report.dataset)
            if base is not None and base > 0.0:
                report.inc_factor = report.total_s / base
    return reports


def emit_csv(reports: list[LatencyReport], path: str | Path) -> None:
    """Write reports as CSV; floats use repr so a parse round-trips exactly."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.dataset,
                    r.n_corpus,
                    r.setting,
                    repr(r.avg_q_len),
                    repr(r.nn_s),
                    repr(r.query_s),
                    repr(r.search_s),
                    repr(r.total_s),
                    "" if r.inc_factor is None else repr(r.inc_factor),
                ]
            )
