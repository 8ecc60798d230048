"""Stage-level latency profiling of the inference loop.

Three stages are timed per query and summed over the query set:

* NN: retrieved example selection, BM25 over the pool queries with an
  identical self-match excluded, as `search` selects.
* Query: rendering the augmented query, then embedding it.
* Search: dot products against the flat index plus top-K selection.

A full pass over the queries is one repetition. One untimed warmup pass runs
first, then the median over repetitions is reported per stage. The total is
the sum of the three stage medians, so it is additive by construction. The
plain instruction setting never touches the example pool and reports NN = 0.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from . import bm25
from .data import ExamplePool, Query
from .embedder import EmbedderParams, embed
from .errors import SpecInvalid
from .prompt import FormatKind, PromptFormat, render_inst, render_inst_ic
from .retrieve import FlatIndex, search
from .trainer import SelectionPolicy, select_examples

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
    inc_factor: float | None = None


def timer_resolution() -> float:
    return time.get_clock_info("perf_counter").resolution


def profile(
    dataset: str,
    queries: list[Query],
    instruction: str,
    pool: ExamplePool | None,
    ic_index: bm25.Bm25Index | None,
    index: FlatIndex,
    params: EmbedderParams,
    setting: FormatKind,
    k: int = 5,
    top_k: int = 10,
    repetitions: int = 5,
) -> LatencyReport:
    """Time one full inference pass per repetition and report stage medians."""
    if setting not in (FormatKind.INST, FormatKind.INST_IC):
        raise SpecInvalid(f"profiling covers inst and inst+ic, got {setting.value}")
    if repetitions < 1:
        raise SpecInvalid("need at least one repetition")
    uses_examples = setting is FormatKind.INST_IC and k > 0
    if uses_examples and (pool is None or ic_index is None):
        raise SpecInvalid("the inst+ic setting needs an example pool and its BM25 index")
    fmt = PromptFormat(kind=setting)
    rng = random.Random(0)  # the retrieved policy draws nothing from it

    q_len_total = 0.0

    def one_pass() -> tuple[float, float, float]:
        nonlocal q_len_total
        nn = query = srch = 0.0
        q_len_total = 0.0
        for q in queries:
            if uses_examples:
                t0 = time.perf_counter()
                examples = select_examples(pool, ic_index, q.text, k, SelectionPolicy.RETRIEVED, rng)
                nn += time.perf_counter() - t0
            t0 = time.perf_counter()
            if uses_examples:
                aug = render_inst_ic(instruction, examples, q.text, fmt)
            else:
                aug = render_inst(instruction, q.text, fmt.bracket_queries)
            emb = embed(params, aug.text)
            query += time.perf_counter() - t0
            q_len_total += aug.approx_len
            t0 = time.perf_counter()
            search(index, emb, top_k)
            srch += time.perf_counter() - t0
        return nn, query, srch

    one_pass()  # warmup, untimed
    samples = [one_pass() for _ in range(repetitions)]
    nn_s = median(s[0] for s in samples)
    query_s = median(s[1] for s in samples)
    search_s = median(s[2] for s in samples)
    return LatencyReport(
        dataset=dataset,
        n_corpus=len(index),
        setting=setting.value,
        avg_q_len=q_len_total / len(queries) if queries else 0.0,
        nn_s=nn_s,
        query_s=query_s,
        search_s=search_s,
        total_s=nn_s + query_s + search_s,
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
