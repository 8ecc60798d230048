"""Latency profiling: stage additivity, the inst baseline, increase factors
and the CSV surface."""

from __future__ import annotations

import csv

import pytest

from rare import retrieve
from rare.bench import (
    CSV_COLUMNS,
    LatencyReport,
    add_inc_factors,
    emit_csv,
    profile,
    timer_resolution,
)
from rare.data import Document, ExamplePool, ICExample, Query
from rare.embedder import new_params
from rare.errors import SpecInvalid
from rare.prompt import FormatKind, PromptFormat, render_inst_ic
from rare.retrieve import build_flat_index, run_inference


def fixture(n_docs=30, n_queries=8):
    params = new_params(hash_dim=512, embed_dim=8, ngram_orders=(1, 2), seed=0)
    corpus = {
        f"d{i}": Document(id=f"d{i}", title="", text=f"topic{i % 5} body word{i}")
        for i in range(n_docs)
    }
    index = build_flat_index(corpus, params)
    queries = [Query(id=f"q{i}", text=f"topic{i % 5} question") for i in range(n_queries)]
    pool = ExamplePool(
        task_id="t",
        examples=[ICExample(query=f"topic{i % 5} sample {i}", positive=f"doc text {i}") for i in range(20)],
    )
    return params, corpus, index, queries, pool


class TestProfile:
    def test_inst_reports_zero_nn(self):
        params, _, index, queries, pool = fixture()
        report = profile("toy", queries, "find", pool, index, params,
                         FormatKind.INST, repetitions=2)
        assert report.nn_s == 0.0
        assert report.setting == "inst"
        assert report.n_corpus == len(index)

    def test_total_is_additive(self):
        params, _, index, queries, pool = fixture()
        for setting in (FormatKind.INST, FormatKind.INST_IC):
            report = profile("toy", queries, "find", pool, index, params,
                             setting, k=3, repetitions=3)
            gap = abs(report.total_s - (report.nn_s + report.query_s + report.search_s))
            assert gap <= 2 * timer_resolution() * 3

    def test_stage_times_non_negative(self):
        params, _, index, queries, pool = fixture()
        report = profile("toy", queries, "find", pool, index, params,
                         FormatKind.INST_IC, k=3, repetitions=2)
        assert report.nn_s >= 0.0 and report.query_s >= 0.0 and report.search_s >= 0.0
        assert report.total_s > 0.0

    def test_avg_q_len_hand_fixture(self):
        # "Instruct: find ; Query: topicX question" splits into six
        # whitespace tokens; the bare separator counts as one.
        params, _, index, queries, _ = fixture()
        report = profile("toy", queries, "find", None, index, params,
                         FormatKind.INST, repetitions=1)
        assert report.avg_q_len == 6.0

    def test_inst_ic_lengthens_queries(self):
        params, _, index, queries, pool = fixture()
        inst = profile("toy", queries, "find", None, index, params,
                       FormatKind.INST, repetitions=1)
        ic = profile("toy", queries, "find", pool, index, params,
                     FormatKind.INST_IC, k=3, repetitions=1)
        assert ic.avg_q_len > inst.avg_q_len

    def test_avg_q_len_matches_search(self, monkeypatch):
        # The query is also the first pool query. Search leaves that entry
        # out of its own examples, and its long positive would lengthen the
        # rendering if bench kept it in.
        params, _, index, _, _ = fixture()
        pool = ExamplePool(task_id="t", examples=[
            ICExample(query="alpha beta gamma", positive="a long positive with many more words in it"),
            ICExample(query="alpha beta", positive="short"),
            ICExample(query="beta gamma", positive="short"),
            ICExample(query="gamma delta", positive="short"),
        ])
        queries = [Query(id="q0", text="alpha beta gamma"), Query(id="q1", text="gamma beta")]
        rendered = []

        def spy(*args):
            rendered.append(render_inst_ic(*args))
            return rendered[-1]

        monkeypatch.setattr(retrieve, "render_inst_ic", spy)
        run_inference(queries, "find", pool, index, params,
                      PromptFormat(kind=FormatKind.INST_IC), k=2, top_k=10)
        report = profile("toy", queries, "find", pool, index, params,
                         FormatKind.INST_IC, k=2, repetitions=1)
        # profile runs the same run_inference, so the spy also sees its renders;
        # the first len(queries) are the direct call's.
        assert len(rendered) == 3 * len(queries)
        assert report.avg_q_len == sum(aug.approx_len for aug in rendered[: len(queries)]) / len(queries)

    def test_unsupported_setting_rejected(self):
        params, _, index, queries, pool = fixture()
        with pytest.raises(SpecInvalid):
            profile("toy", queries, "", pool, index, params, FormatKind.DOC_ONLY)

    def test_zero_repetitions_rejected(self):
        params, _, index, queries, pool = fixture()
        with pytest.raises(SpecInvalid):
            profile("toy", queries, "", pool, index, params,
                    FormatKind.INST, repetitions=0)

    def test_missing_pool_rejected(self):
        params, _, index, queries, _ = fixture()
        with pytest.raises(SpecInvalid):
            profile("toy", queries, "", None, index, params, FormatKind.INST_IC, k=3)

    def test_timer_resolution_positive(self):
        assert timer_resolution() > 0.0


def report_row(dataset, setting, total, inc=None):
    return LatencyReport(
        dataset=dataset, n_corpus=100, setting=setting, avg_q_len=4.0,
        nn_s=total / 4, query_s=total / 4, search_s=total / 2, total_s=total,
        inc_factor=inc,
    )


class TestIncFactors:
    def test_ratio_against_baseline(self):
        # 153.76 over 3.84 rounds to 40.04 at two decimals.
        rows = [report_row("beir", "inst", 3.84), report_row("beir", "inst+ic", 153.76)]
        add_inc_factors(rows)
        assert rows[0].inc_factor is None
        assert round(rows[1].inc_factor, 2) == 40.04

    def test_only_matching_dataset_used(self):
        rows = [
            report_row("a", "inst", 2.0),
            report_row("b", "inst", 4.0),
            report_row("a", "inst+ic", 6.0),
            report_row("b", "inst+ic", 6.0),
        ]
        add_inc_factors(rows)
        assert rows[2].inc_factor == 3.0
        assert rows[3].inc_factor == 1.5

    def test_no_baseline_leaves_none(self):
        rows = [report_row("solo", "inst+ic", 6.0)]
        add_inc_factors(rows)
        assert rows[0].inc_factor is None

    def test_zero_baseline_leaves_none(self):
        rows = [report_row("z", "inst", 0.0), report_row("z", "inst+ic", 6.0)]
        add_inc_factors(rows)
        assert rows[1].inc_factor is None

    def test_inst_rows_never_get_a_factor(self):
        rows = [report_row("a", "inst", 2.0), report_row("a", "inst", 3.0)]
        add_inc_factors(rows)
        assert all(r.inc_factor is None for r in rows)


class TestEmitCsv:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "bench.csv"
        emit_csv([], path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [CSV_COLUMNS]

    def test_floats_round_trip(self, tmp_path):
        row = report_row("beir", "inst+ic", 1.23456789012345, inc=40.0375)
        path = tmp_path / "bench.csv"
        emit_csv([row], path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        parsed = rows[1]
        assert parsed[0] == "beir"
        assert int(parsed[1]) == 100
        assert parsed[2] == "inst+ic"
        assert float(parsed[4]) == row.nn_s
        assert float(parsed[5]) == row.query_s
        assert float(parsed[6]) == row.search_s
        assert float(parsed[7]) == row.total_s
        assert float(parsed[8]) == row.inc_factor

    def test_missing_inc_is_empty_cell(self, tmp_path):
        path = tmp_path / "bench.csv"
        emit_csv([report_row("a", "inst", 2.0)], path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][-1] == ""
