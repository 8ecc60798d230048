"""Per-layer metrics from the spans that perfbench/tracer.py records.

A trace is the dict one traced command wrote, plus the keys `command` (the
subcommand name) and `wall_s` (its wall time as the benchmark measured it).
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "trainer.batch_grads_calls": "count",
    "trainer.batch_grads_s": "s",
    "trainer.batch_grads_p50_ms": "ms",
    "trainer.select_s": "s",
    "trainer.train_self_s": "s",
    "embedder.featurize_calls": "count",
    "embedder.featurize_s": "s",
    "embedder.project_s": "s",
    "embedder.features_per_text": "count",
    "embedder.bucket_hit_rate": "ratio",
    "embedder.zero_embeddings": "count",
    "embedder.load_s": "s",
    "embedder.save_s": "s",
    "bm25.build_s": "s",
    "bm25.top_k_calls": "count",
    "bm25.top_k_p50_us": "us",
    "bm25.top_k_tail_us": "us",
    "bm25.short_lists": "count",
    "prompt.render_calls": "count",
    "prompt.render_s": "s",
    "prompt.aug_tokens_mean": "tokens",
    "prompt.ic_fraction": "ratio",
    "retrieve.search_calls": "count",
    "retrieve.search_p50_us": "us",
    "retrieve.search_tail_us": "us",
    "retrieve.build_index_s": "s",
    "retrieve.save_index_s": "s",
    "retrieve.load_index_s": "s",
    "retrieve.write_run_s": "s",
    "data.load_s": "s",
    "manifest.build_s": "s",
    "evaluation.evaluate_s": "s",
    "synth.generate_s": "s",
    "cli.synth_s": "s",
    "cli.train_s": "s",
    "cli.index_s": "s",
    "cli.search_s": "s",
    "cli.eval_s": "s",
    "paper.nn_p50_us": "us",
    "paper.query_p50_us": "us",
    "paper.search_p50_us": "us",
    "paper.total_p50_us": "us",
    "trace.overhead": "ratio",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest ladder percentile with at least
    MIN_BEYOND_TAIL samples beyond it, or the median when none has."""
    n = len(samples)
    if n == 0:
        return 0.0, 50.0, 0
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if round(n * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND_TAIL:
            break
    else:
        pct = 50.0
    # Nearest rank: the smallest sample with at least pct% of samples at or below it.
    rank = max(1, math.ceil(round(n * pct / 100.0, 6)))
    return ordered[rank - 1], pct, n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def self_time(spans: list[list], children: dict[int, list[int]], i: int) -> float:
    start, end = spans[i][1], spans[i][2]
    covered, reach = 0.0, start
    for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
        lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


class _Index:
    """Spans of many traces, grouped by name."""

    def __init__(self, traces: list[dict]):
        self.traces = traces
        self.children: list[dict[int, list[int]]] = []
        self.by_name: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for t, trace in enumerate(traces):
            kids: dict[int, list[int]] = defaultdict(list)
            for i, span in enumerate(trace["spans"]):
                self.by_name[span[0]].append((t, i))
                if span[3] >= 0:
                    kids[span[3]].append(i)
            self.children.append(kids)

    def spans(self, name: str, command: str | None = None) -> list[tuple[int, int]]:
        return [(t, i) for t, i in self.by_name.get(name, ())
                if command is None or self.traces[t]["command"] == command]

    def durations(self, name: str, command: str | None = None) -> list[float]:
        out = []
        for t, i in self.spans(name, command):
            span = self.traces[t]["spans"][i]
            out.append(span[2] - span[1])
        return out

    def self_times(self, name: str) -> list[float]:
        return [self_time(self.traces[t]["spans"], self.children[t], i) for t, i in self.spans(name)]

    def values(self, name: str) -> list:
        return [self.traces[t]["spans"][i][4] for t, i in self.spans(name)]


def paper_view(traces: list[dict]) -> dict[str, list[float]]:
    """Per-query NN / Query / Search / total seconds along run_inference.

    NN is select_examples, Query is render plus embed, Search is search; a
    query ends at its search span. Formats without examples have NN = 0.
    """
    view: dict[str, list[float]] = {"nn": [], "query": [], "search": [], "total": []}
    idx = _Index(traces)
    for t, i in idx.spans("retrieve.run_inference"):
        spans = traces[t]["spans"]
        nn = query = 0.0
        for c in sorted(idx.children[t].get(i, ())):
            name, start, end = spans[c][0], spans[c][1], spans[c][2]
            if name == "trainer.select_examples":
                nn += end - start
            elif name in ("prompt.render", "embedder.embed"):
                query += end - start
            elif name == "retrieve.search":
                view["nn"].append(nn)
                view["query"].append(query)
                view["search"].append(end - start)
                view["total"].append(nn + query + end - start)
                nn = query = 0.0
    return view


def layer_metrics(traces: list[dict]) -> tuple[dict[str, float], dict[str, tuple[float, int]]]:
    """Every LAYER_UNITS metric except trace.overhead, plus the percentile and
    sample count behind each tail value."""
    idx = _Index(traces)
    m: dict[str, float] = {}
    tails: dict[str, tuple[float, int]] = {}

    def record_tail(name: str, samples: list[float], scale: float) -> None:
        value, pct, n = tail(samples)
        m[name] = value * scale
        tails[name] = (pct, n)

    grads = idx.durations("trainer.batch_grads")
    m["trainer.batch_grads_calls"] = len(grads)
    m["trainer.batch_grads_s"] = sum(idx.self_times("trainer.batch_grads"))
    m["trainer.batch_grads_p50_ms"] = median(grads) * 1e3
    m["trainer.select_s"] = sum(idx.durations("trainer.select_examples", command="train"))
    m["trainer.train_self_s"] = sum(idx.self_times("trainer.train"))

    features = idx.values("embedder.featurize")
    m["embedder.featurize_calls"] = len(features)
    m["embedder.featurize_s"] = sum(idx.durations("embedder.featurize"))
    m["embedder.project_s"] = sum(idx.durations("embedder.project"))
    m["embedder.features_per_text"] = sum(features) / len(features) if features else 0.0
    hits = sum(t["bucket_hits"] for t in traces)
    lookups = hits + sum(t["bucket_misses"] for t in traces)
    m["embedder.bucket_hit_rate"] = hits / lookups if lookups else 0.0
    m["embedder.zero_embeddings"] = sum(idx.values("embedder.project"))
    m["embedder.load_s"] = sum(idx.durations("embedder.load"))
    m["embedder.save_s"] = sum(idx.durations("embedder.save"))

    top_k = idx.durations("bm25.top_k_neighbors")
    m["bm25.build_s"] = sum(idx.durations("bm25.build_index"))
    m["bm25.top_k_calls"] = len(top_k)
    m["bm25.top_k_p50_us"] = median(top_k) * 1e6
    record_tail("bm25.top_k_tail_us", top_k, 1e6)
    m["bm25.short_lists"] = sum(idx.values("bm25.top_k_neighbors"))

    renders = idx.values("prompt.render")
    m["prompt.render_calls"] = len(renders)
    m["prompt.render_s"] = sum(idx.durations("prompt.render"))
    m["prompt.aug_tokens_mean"] = sum(r[0] for r in renders) / len(renders) if renders else 0.0
    m["prompt.ic_fraction"] = sum(1 for r in renders if r[1] > 0) / len(renders) if renders else 0.0

    searches = idx.durations("retrieve.search")
    m["retrieve.search_calls"] = len(searches)
    m["retrieve.search_p50_us"] = median(searches) * 1e6
    record_tail("retrieve.search_tail_us", searches, 1e6)
    m["retrieve.build_index_s"] = sum(idx.self_times("retrieve.build_flat_index"))
    m["retrieve.save_index_s"] = sum(idx.durations("retrieve.save_index"))
    m["retrieve.load_index_s"] = sum(idx.durations("retrieve.load_flat_index"))
    m["retrieve.write_run_s"] = sum(idx.durations("retrieve.write_run"))

    m["data.load_s"] = sum(idx.durations("data.load"))
    m["manifest.build_s"] = sum(idx.durations("manifest.build_manifest"))
    m["evaluation.evaluate_s"] = sum(idx.durations("evaluation.evaluate"))
    m["synth.generate_s"] = sum(idx.durations("synth.generate"))

    for command in ("synth", "train", "index", "search", "eval"):
        m[f"cli.{command}_s"] = sum(t["wall_s"] for t in traces if t["command"] == command)

    view = paper_view(traces)
    for part in ("nn", "query", "search", "total"):
        m[f"paper.{part}_p50_us"] = median(view[part]) * 1e6
    return m, tails
