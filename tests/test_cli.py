"""Command-line surface: exit codes, the full pipeline and manifests.
Commands run in-process through dispatch; the subprocess tests cover the
declared `rare` console script and `main()`."""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import importlib
import io
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rare.cli
import rare.data
import rare.embedder
import rare.manifest
from rare.cli import UsageError, build_parser, dispatch, main
from rare.embedder import load, new_params, save
from rare.manifest import digest_file, manifest_path

from conftest import TWO_CPUS, no_pool

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"
SUBPROCESS_TIMEOUT_S = 120

SMALL_SYNTH = [
    "--clusters", "2", "--vocab-per-cluster", "12", "--shared-vocab", "10",
    "--docs", "4", "--queries", "2", "--ambiguity", "0.8", "--seed", "3",
]
SMALL_EMBEDDER = ["--hash-dim", "2048", "--dim", "16"]


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """A command stages each output in a `NAME.PID.tmp` beside it; none may
    be left behind, whether the command succeeds or fails."""
    yield
    assert sorted(tmp_path.rglob("*.tmp")) == []


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> train -> index -> search -> eval pipeline, shared
    by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir = root / "data"
    model = root / "model.rare"
    index = root / "index.rfi"
    run = root / "run.trec"
    report = root / "report.json"
    steps = [
        ["synth", "--out", str(synth_dir), *SMALL_SYNTH],
        ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
         "--k", "2", "--epochs", "2", "--batch", "16", "--out", str(model), *SMALL_EMBEDDER],
        ["index", "--corpus", str(synth_dir / "corpus.jsonl"), "--model", str(model),
         "--out", str(index)],
        ["search", "--index", str(index), "--model", str(model),
         "--queries", str(synth_dir / "queries.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
         "--task", "synth", "--k", "2", "--out", str(run)],
        ["eval", "--run", str(run), "--qrels", str(synth_dir / "qrels.tsv"),
         "--out", str(report)],
    ]
    for argv in steps:
        assert dispatch(argv) == 0, f"step failed: {argv[0]}"
    return root


def test_help_prints_each_continued_usage_line():
    # In a docstring, backslash-newline is a line continuation unless escaped.
    lines = [line.strip() for line in build_parser().format_help().splitlines()]
    assert any(line.startswith("--pool pool.jsonl") for line in lines)
    assert any(line.startswith("--cell inst+ic:5:retrieved") for line in lines)
    assert any(line.endswith("--queries queries.jsonl \\") for line in lines)


class TestExitCodes:
    def test_no_args_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_eval_missing_qrels_names_path(self, tmp_path, capsys):
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 0.5 tag\n", encoding="utf-8")
        missing = tmp_path / "nope.tsv"
        code = dispatch(["eval", "--run", str(run), "--qrels", str(missing),
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("lines, reason", [
        # Read in file order, ranks ignored, they would score nDCG@10 = 1.6309, 0.6309 and 1.0.
        (["q1 Q0 d1 1 0.9 t", "q1 Q0 d1 2 0.8 t"], "document 'd1' is listed twice for query 'q1'"),
        (["q1 Q0 d2 2 0.8 t", "q1 Q0 d1 1 0.9 t"], "rank 1 of query 'q1' does not follow rank 2"),
        (["q1 Q0 d1 1 0.9 t", "q1 Q0 d2 x 0.8 t"], "rank 'x' is not an integer"),
    ])
    def test_malformed_run_is_one_line_exit_two(self, tmp_path, capsys, lines, reason):
        run, qrels, out = tmp_path / "run.trec", tmp_path / "qrels.tsv", tmp_path / "r.json"
        run.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        qrels.write_text("q1\td1\t1\n", encoding="utf-8")
        assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {run}:2: {reason}"]
        assert not out.exists()

    def test_malformed_data_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        model = tmp_path / "m.rare"
        code = dispatch(["index", "--corpus", str(bad), "--model", str(model),
                         "--out", str(tmp_path / "i.rfi")])
        assert code == 2

    def test_corpus_id_with_whitespace_is_exit_two(self, pipeline, tmp_path, capsys):
        # `rare index` and `rare search` took the id "d 0", and then `rare eval`
        # refused the run line it made: "expected 6 fields, got 7".
        lines = (pipeline / "data" / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        doc = json.loads(lines[1])
        doc["_id"] = "d 0"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(lines[0] + json.dumps(doc) + "\n", encoding="utf-8")
        out = tmp_path / "i.rfi"
        assert dispatch(["index", "--corpus", str(corpus), "--model", str(pipeline / "model.rare"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}:2: field '_id' must not contain whitespace: 'd 0'"]
        assert not out.exists()

    def test_query_id_with_whitespace_is_exit_two(self, pipeline, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"_id": "q\t1", "text": "apple"}) + "\n", encoding="utf-8")
        out = tmp_path / "r.trec"
        assert dispatch(["search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
                         "--queries", str(queries), "--format", "inst", "--k", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {queries}:1: field '_id' must not contain whitespace: 'q\\t1'"]
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numeric_blowup_is_exit_three(self, tmp_path, capsys):
        # A learning rate of 1e308 overflows the first update to infinity,
        # so the next batch trips the parameter finiteness check.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        code = dispatch([
            "train", "--data", str(synth_dir / "train.jsonl"),
            "--pool", str(synth_dir / "pool.jsonl"),
            "--k", "2", "--epochs", "2", "--batch", "8", "--lr", "1e308",
            "--out", str(tmp_path / "m.rare"), *SMALL_EMBEDDER,
        ])
        assert code == 3
        assert "numeric" in capsys.readouterr().err.lower()

    def test_non_finite_rate_is_usage_error(self, tmp_path, capsys):
        # Rejected before training.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        out = tmp_path / "m.rare"
        train = ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                 "--k", "2", "--epochs", "2", "--batch", "8", "--out", str(out), *SMALL_EMBEDDER]
        for key in ("lr", "temp"):
            for value in ("nan", "inf"):
                extra = [f"--{key}", value]
                capsys.readouterr()
                assert dispatch([*train, *extra]) == 1, extra
                err = capsys.readouterr().err
                assert err.splitlines() == [err.strip()] and "must be finite" in err, err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_norm_overflow_is_exit_three(self, tmp_path, capsys):
        # Finite weights past ~1e154 overflow an embedding's norm, and u / inf
        # would silently embed every text to zero.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        capsys.readouterr()
        code = dispatch([
            "train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
            "--k", "2", "--epochs", "2", "--batch", "8", "--lr", "1e200",
            "--out", str(tmp_path / "m.rare"), *SMALL_EMBEDDER,
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines()[-1] == "numeric failure: embedding norm overflowed" and "Traceback" not in err, err
        assert not (tmp_path / "m.rare").exists()

        params = new_params(hash_dim=2048, embed_dim=16)
        params.projection *= 1e200
        save(params, tmp_path / "huge.rare")
        code = dispatch(["index", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--model", str(tmp_path / "huge.rare"), "--out", str(tmp_path / "i.rfi")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines()[-1] == "numeric failure: embedding norm overflowed" and "Traceback" not in err, err

    def test_norm_underflow_is_exit_three(self, tmp_path, capsys):
        # Weights near 1e-162 give norms whose squares are subnormal; u / norm
        # could then hold entries above 1, which search does not take.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        params = new_params(hash_dim=2048, embed_dim=16)
        params.projection *= 1e-162
        save(params, tmp_path / "tiny.rare")
        capsys.readouterr()
        code = dispatch(["index", "--corpus", str(synth_dir / "corpus.jsonl"),
                         "--model", str(tmp_path / "tiny.rare"), "--out", str(tmp_path / "i.rfi")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == ["numeric failure: embedding norm underflowed"], err
        assert not (tmp_path / "i.rfi").exists()

    def test_failed_rebuild_leaves_the_index_and_no_temporary_file(self, pipeline, tmp_path, capsys):
        # The rows go to a temporary file beside --out, renamed into place only on success.
        index = tmp_path / "i.rfi"
        shutil.copy(pipeline / "index.rfi", index)
        before = index.read_bytes()
        params = new_params(hash_dim=2048, embed_dim=16)
        params.projection *= 1e-162  # every norm underflows: exit 3 after the ids are written
        save(params, tmp_path / "tiny.rare")
        capsys.readouterr()
        code = dispatch(["index", "--corpus", str(pipeline / "data" / "corpus.jsonl"),
                         "--model", str(tmp_path / "tiny.rare"), "--out", str(index)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["numeric failure: embedding norm underflowed"]
        assert index.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.rfi", "tiny.rare"]

    def test_index_that_shrinks_after_loading_is_exit_two(self, pipeline, tmp_path, monkeypatch, capsys):
        index, run = tmp_path / "i.rfi", tmp_path / "run.trec"
        shutil.copy(pipeline / "index.rfi", index)
        load_flat_index = rare.cli.load_flat_index

        def load_then_truncate(path):
            loaded = load_flat_index(path)
            with Path(path).open("r+b") as fh:
                fh.truncate(fh.seek(0, 2) - 8)
            return loaded

        monkeypatch.setattr(rare.cli, "load_flat_index", load_then_truncate)
        data_dir = pipeline / "data"
        capsys.readouterr()
        code = dispatch(["search", "--index", str(index), "--model", str(pipeline / "model.rare"),
                         "--queries", str(data_dir / "queries.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
                         "--task", "synth", "--k", "2", "--out", str(run)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {index}: expected "), err
        assert "the file shrank" in err
        assert not run.exists()

    def test_out_of_range_index_is_exit_two(self, pipeline, tmp_path, capsys):
        # Index entries outside [-1, 1] are not unit-or-zero rows `rare index` writes.
        blob = (pipeline / "index.rfi").read_bytes()
        bad = tmp_path / "bad.rfi"
        bad.write_bytes(blob[:-8] + struct.pack("<d", 2.0))
        data_dir = pipeline / "data"
        capsys.readouterr()
        code = dispatch(["search", "--index", str(bad), "--model", str(pipeline / "model.rare"),
                         "--queries", str(data_dir / "queries.jsonl"), "--format", "inst", "--k", "0",
                         "--out", str(tmp_path / "run.trec")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: index entries must lie in [-1, 1]; rebuild it with `rare index`"], err
        assert not (tmp_path / "run.trec").exists()

    def test_numeric_failure_is_one_line_outside_pytest(self, tmp_path):
        # In a plain interpreter numpy would print an overflow warning, with
        # its source line, before the failure; stderr must hold one line.
        def rare(*argv):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
            return subprocess.run([sys.executable, "-m", "rare.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)

        synth_dir = tmp_path / "data"
        assert rare("synth", "--out", str(synth_dir), *SMALL_SYNTH).returncode == 0
        params = new_params(hash_dim=2048, embed_dim=16)
        params.projection *= 1e200
        save(params, tmp_path / "huge.rare")
        runs = [
            rare("train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                 "--k", "2", "--epochs", "2", "--batch", "8", "--lr", "1e308",
                 "--out", str(tmp_path / "m.rare"), *SMALL_EMBEDDER),
            rare("index", "--corpus", str(synth_dir / "corpus.jsonl"), "--model", str(tmp_path / "huge.rare"),
                 "--out", str(tmp_path / "i.rfi")),
        ]
        for result in runs:
            lines = [line for line in result.stderr.splitlines() if not line.startswith("INFO ")]
            assert result.returncode == 3, result.stderr
            assert len(lines) == 1 and lines[0].startswith("numeric failure:"), result.stderr

    def test_version_one_model_is_exit_two(self, tmp_path, capsys):
        # Version 1 stored W row-major; there is no read path for it.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        params = new_params(hash_dim=2048, embed_dim=16)
        model, old = tmp_path / "m.rare", tmp_path / "v1.rare"
        save(params, model)
        blob = model.read_bytes()
        header = len(blob) - params.projection.size * 8
        old.write_bytes(blob[:5] + (1).to_bytes(4, "little") + blob[9:header]
                        + params.projection.astype("<f8").tobytes(order="C"))
        index = tmp_path / "i.rfi"
        corpus = ["--corpus", str(synth_dir / "corpus.jsonl")]
        assert dispatch(["index", *corpus, "--model", str(model), "--out", str(index)]) == 0
        capsys.readouterr()
        commands = [
            ["index", *corpus, "--model", str(old), "--out", str(tmp_path / "j.rfi")],
            ["search", "--index", str(index), "--model", str(old), "--queries", str(synth_dir / "queries.jsonl"),
             "--format", "inst", "--k", "0", "--out", str(tmp_path / "run.trec")],
        ]
        for argv in commands:
            assert dispatch(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: {old}: unsupported model version 1"], err
        assert not (tmp_path / "j.rfi").exists() and not (tmp_path / "run.trec").exists()

    def test_bad_embedder_shape_is_usage_error(self, tmp_path, capsys):
        # With real training data these values used to reach new_params and
        # end in a ValueError traceback, or (--max-tokens -1) train and then
        # fail to save, or (--max-tokens 0) cut every text to nothing; now the
        # flag's type rejects them, with one line.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        out = tmp_path / "m.rare"
        train = ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                 "--epochs", "1", "--out", str(out)]
        bad = [
            ("ngrams", "ngram_orders", "a"), ("ngrams", "ngram_orders", "0"), ("ngrams", "ngram_orders", ","),
            ("hash-dim", "positive_int", "0"), ("dim", "positive_int", "0"), ("dim", "positive_int", "-3"),
            ("max-tokens", "positive_int", "-1"), ("max-tokens", "positive_int", "0"),
            ("max-tokens", "positive_int", "abc"),
        ]
        for flag, type_name, value in bad:
            capsys.readouterr()
            assert dispatch([*train, f"--{flag}", value]) == 1, (flag, value)
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: rare train: argument --{flag}: invalid {type_name} value: '{value}'"], err
        assert not out.exists()

    def test_train_seed_outside_int64_is_usage_error(self, tmp_path, capsys):
        # numpy's generator takes no negative seed and the model header stores
        # an int64, so both ends are rejected before training writes --out.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        out = tmp_path / "m.rare"
        train = ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                 "--k", "2", "--epochs", "1", "--out", str(out), *SMALL_EMBEDDER]
        for value in ("-1", str(2**63)):
            capsys.readouterr()
            assert dispatch([*train, "--seed", value]) == 1, value
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: rare train: argument --seed: invalid model_seed value: '{value}'"]
            assert not out.exists()
        assert dispatch([*train, "--seed", str(2**63 - 1)]) == 0
        assert load(out).hash_seed == 2**63 - 1

    @pytest.fixture
    def small_train(self, tmp_path):
        """A smoke-size train invocation whose --out is the only file in its directory."""
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "m.rare"
        return out, ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                     "--k", "2", "--epochs", "1", "--out", str(out), *SMALL_EMBEDDER]

    def assert_flag_refused(self, argv, out, flag, type_name, value, capsys):
        capsys.readouterr()
        assert dispatch([*argv, f"--{flag}", value]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: rare train: argument --{flag}: invalid {type_name} value: '{value}'"]
        assert files_under(out.parent) == set()

    def test_max_tokens_outside_u64_is_usage_error(self, small_train, capsys):
        out, train = small_train
        self.assert_flag_refused(train, out, "max-tokens", "positive_int", str(2**64), capsys)
        assert dispatch([*train, "--max-tokens", str(2**64 - 1)]) == 0
        assert load(out).max_tokens == 2**64 - 1

    def test_ngram_order_outside_u32_is_usage_error(self, small_train, capsys):
        out, train = small_train
        self.assert_flag_refused(train, out, "ngrams", "ngram_orders", f"1,{2**32}", capsys)
        assert dispatch([*train, "--ngrams", f"1,{2**32 - 1}"]) == 0
        assert load(out).ngram_orders == (1, 2**32 - 1)

    @pytest.mark.parametrize("flag", ["--hash-dim", "--dim"])
    def test_projection_too_large_to_address_is_usage_error(self, small_train, flag, capsys):
        # numpy refuses a 2**62-column float64 array before allocating any of
        # it. 2**40 columns of 64 floats (512 TiB) pass numpy but exceed
        # x86-64's 128 TiB user address space, so the mapping is refused
        # before any page is touched.
        out, train = small_train
        for size in (2**62, 2**40):
            capsys.readouterr()
            assert dispatch([*train, flag, str(size)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0], (size, err)
            assert files_under(out.parent) == set()

    def test_config_flag_is_refused(self, small_train, capsys):
        out, train = small_train
        capsys.readouterr()
        assert dispatch([*train, "--config", "epochs=1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: rare: unrecognized arguments: --config epochs=1"]
        assert files_under(out.parent) == set()

    def test_pool_named_twice_for_one_task_is_usage_error(self, small_train, tmp_path, capsys):
        # The second pool used to replace the first, and only its digest was recorded.
        out, train = small_train
        at = train.index("--pool")
        pool, train = train[at + 1], train[:at] + train[at + 2:]
        first = tmp_path / "p1.jsonl"
        first.write_text(Path(pool).read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
        for pools in ([str(first), pool], [f"synth={first}", f"synth={pool}"], [str(first), f"synth={pool}"]):
            capsys.readouterr()
            assert dispatch([*train, *(arg for p in pools for arg in ("--pool", p))]) == 1, pools
            assert capsys.readouterr().err.splitlines() == ["error: --pool names task 'synth' more than once"]
            assert files_under(out.parent) == set()

    def test_pool_task_named_like_a_directory(self, tmp_path, monkeypatch):
        # `synth=synth/pool.jsonl` was read as a plain path because a `synth`
        # directory exists: "example pool not found: synth=synth/pool.jsonl".
        monkeypatch.chdir(tmp_path)
        assert dispatch(["synth", "--out", "synth", *SMALL_SYNTH]) == 0
        assert dispatch(["train", "--data", "synth/train.jsonl", "--pool", "synth=synth/pool.jsonl",
                         "--k", "2", "--epochs", "1", "--out", "m.rare", *SMALL_EMBEDDER]) == 0
        manifest = json.loads(manifest_path(tmp_path / "m.rare").read_text(encoding="utf-8"))
        assert set(manifest["input_digests"]) == {"train", "pool:synth"}

    def test_pool_path_holding_an_equals_sign(self, small_train, tmp_path, monkeypatch):
        # An existing `p=1.jsonl` was split into task `p` and "example pool not found: 1.jsonl".
        out, train = small_train
        at = train.index("--pool")
        shutil.copy(train[at + 1], tmp_path / "p=1.jsonl")
        monkeypatch.chdir(tmp_path)
        assert dispatch([*train[:at], "--pool", "p=1.jsonl", *train[at + 2:]]) == 0
        manifest = json.loads(manifest_path(out).read_text(encoding="utf-8"))
        assert manifest["input_digests"]["pool"] == digest_file(tmp_path / "p=1.jsonl")

    def test_train_log_over_its_model_is_usage_error(self, small_train, capsys):
        # The log used to overwrite the model. The check comes before any input
        # is read, so a missing --data does not change the error.
        out, train = small_train
        missing = ["--data", str(out.parent / "missing.jsonl")]
        for extra in (["--log", str(out)], ["--log", f"{out.parent}/../out/{out.name}", *missing]):
            capsys.readouterr()
            assert dispatch([*train, *extra]) == 1, extra
            assert capsys.readouterr().err.splitlines() == [f"error: --log and --out name the same file: {out}"]
            assert files_under(out.parent) == set()

    def test_eval_buckets_over_its_report_is_usage_error(self, pipeline, tmp_path, capsys):
        # The report used to overwrite the buckets CSV. The check comes before
        # any input is read, so a missing --run does not change the error.
        out = tmp_path / "out.json"
        argv = ["eval", "--qrels", str(pipeline / "data" / "qrels.tsv"), "--out", str(out),
                "--baseline-run", str(pipeline / "run.trec"), "--queries", str(pipeline / "data" / "queries.jsonl"),
                "--pool", str(pipeline / "data" / "pool.jsonl"), "--task", "synth", "--model", str(pipeline / "model.rare")]
        for run in (pipeline / "run.trec", tmp_path / "missing.trec"):
            capsys.readouterr()
            assert dispatch([*argv, "--run", str(run), "--buckets-out", str(out)]) == 1, run
            assert capsys.readouterr().err.splitlines() == [f"error: --buckets-out and --out name the same file: {out}"]
            assert files_under(tmp_path) == set()

    def test_train_log_over_its_model_manifest_is_usage_error(self, small_train, capsys):
        # The model's manifest used to replace the log, with exit 0.
        out, train = small_train
        log = ["--log", f"{out}.manifest.json"]
        for extra in (log, [*log, "--data", str(out.parent / "missing.jsonl")]):
            capsys.readouterr()
            assert dispatch([*train, *extra]) == 1, extra
            assert capsys.readouterr().err.splitlines() == [
                f"error: --log and the manifest of --out name the same file: {out}.manifest.json"]
            assert files_under(out.parent) == set()

    def test_eval_buckets_over_its_report_manifest_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["eval", "--qrels", str(pipeline / "data" / "qrels.tsv"), "--out", str(out),
                "--buckets-out", f"{out}.manifest.json", "--baseline-run", str(pipeline / "run.trec"),
                "--queries", str(pipeline / "data" / "queries.jsonl"), "--pool", str(pipeline / "data" / "pool.jsonl"),
                "--task", "synth", "--model", str(pipeline / "model.rare")]
        for run in (pipeline / "run.trec", tmp_path / "missing.trec"):
            capsys.readouterr()
            assert dispatch([*argv, "--run", str(run)]) == 1, run
            assert capsys.readouterr().err.splitlines() == [
                f"error: --buckets-out and the manifest of --out name the same file: {out}.manifest.json"]
            assert files_under(tmp_path) == set()

    def test_search_tag_with_whitespace_or_empty_is_usage_error(self, pipeline, tmp_path, capsys):
        # A run line must have six fields; `rare eval` refused the run these wrote.
        d = pipeline / "data"
        argv = ["search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
                "--queries", str(d / "queries.jsonl"), "--format", "inst", "--k", "0",
                "--out", str(tmp_path / "r.trec")]
        for tag in ("", "a b", "a\tb", " a"):
            capsys.readouterr()
            assert dispatch([*argv, "--tag", tag]) == 1, tag
            assert capsys.readouterr().err.splitlines() == [
                f"error: rare search: argument --tag: invalid run_tag value: {tag!r}"]
            assert files_under(tmp_path) == set()
        assert dispatch([*argv, "--tag", "a-b"]) == 0
        assert {line.split()[5] for line in (tmp_path / "r.trec").read_text(encoding="utf-8").splitlines()} == {"a-b"}


class TestPipelineArtifacts:
    def test_synth_wrote_dataset_files(self, pipeline):
        names = ["corpus.jsonl", "queries.jsonl", "qrels.tsv", "train.jsonl", "pool.jsonl"]
        for name in names:
            assert (pipeline / "data" / name).is_file()

    def test_report_json(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text(encoding="utf-8"))
        assert report["k"] == 10
        assert report["n_evaluated"] == 4
        assert 0.0 <= report["mean_ndcg"] <= 1.0
        assert len(report["per_query"]) == 4
        assert report["fingerprint"]

    def test_manifests_next_to_artifacts(self, pipeline):
        for artifact in ("model.rare", "index.rfi", "run.trec", "report.json"):
            manifest_file = pipeline / f"{artifact}.manifest.json"
            assert manifest_file.is_file()
            manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
            assert manifest["command"][0] == "rare"
            assert "input_digests" in manifest and "created_at" in manifest

    def test_manifest_digests_match_inputs(self, pipeline):
        from rare.manifest import digest_file

        manifest = json.loads((pipeline / "index.rfi.manifest.json").read_text(encoding="utf-8"))
        assert manifest["input_digests"]["corpus"] == digest_file(pipeline / "data" / "corpus.jsonl")
        assert manifest["input_digests"]["model"] == digest_file(pipeline / "model.rare")

    def test_train_log_written(self, pipeline):
        log = pipeline / "model.rare.log.jsonl"
        lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert [entry["epoch"] for entry in lines] == [0, 1]
        assert all("mean_loss" in entry for entry in lines)

    def test_run_file_is_trec_format(self, pipeline):
        first = (pipeline / "run.trec").read_text(encoding="utf-8").splitlines()[0].split()
        assert len(first) == 6
        assert first[1] == "Q0"
        assert first[3] == "1"


class TestDeterminism:
    def test_synth_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(["synth", "--out", str(a), *SMALL_SYNTH]) == 0
        assert dispatch(["synth", "--out", str(b), *SMALL_SYNTH]) == 0
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv", "train.jsonl", "pool.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_train_byte_identical_across_runs(self, tmp_path):
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        models = []
        for name in ("m1.rare", "m2.rare"):
            out = tmp_path / name
            assert dispatch([
                "train", "--data", str(synth_dir / "train.jsonl"),
                "--pool", str(synth_dir / "pool.jsonl"),
                "--k", "2", "--epochs", "1", "--batch", "16",
                "--out", str(out), *SMALL_EMBEDDER,
            ]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]


class TestEvalBuckets:
    def test_buckets_need_companion_flags(self, pipeline, tmp_path, capsys):
        code = dispatch([
            "eval", "--run", str(pipeline / "run.trec"),
            "--qrels", str(pipeline / "data" / "qrels.tsv"),
            "--out", str(tmp_path / "r.json"),
            "--buckets-out", str(tmp_path / "buckets.csv"),
        ])
        assert code == 1
        assert "--baseline-run" in capsys.readouterr().err

    def test_buckets_written(self, pipeline, tmp_path):
        buckets = tmp_path / "buckets.csv"
        code = dispatch([
            "eval", "--run", str(pipeline / "run.trec"),
            "--qrels", str(pipeline / "data" / "qrels.tsv"),
            "--out", str(tmp_path / "r.json"),
            "--buckets-out", str(buckets),
            "--baseline-run", str(pipeline / "run.trec"),
            "--queries", str(pipeline / "data" / "queries.jsonl"),
            "--pool", str(pipeline / "data" / "pool.jsonl"),
            "--task", "synth",
            "--model", str(pipeline / "model.rare"),
        ])
        assert code == 0
        with buckets.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Lower", "Upper", "N", "MeanNdcgDelta"]
        assert len(rows) == 11
        # Same run on both sides: every populated bucket has delta zero.
        populated = [r for r in rows[1:] if int(r[2]) > 0]
        assert populated
        assert all(float(r[3]) == 0.0 for r in populated)

    def test_bin_width_outside_domain_is_usage_error(self, pipeline, tmp_path, capsys):
        # A width below 1e-3 asks for more than 1,000 bins; at 1e-300 the bin
        # count does not fit a list.
        out = tmp_path / "r.json"
        buckets = tmp_path / "buckets.csv"
        argv = [
            "eval", "--run", str(pipeline / "run.trec"), "--qrels", str(pipeline / "data" / "qrels.tsv"),
            "--out", str(out), "--buckets-out", str(buckets), "--baseline-run", str(pipeline / "run.trec"),
            "--queries", str(pipeline / "data" / "queries.jsonl"), "--pool", str(pipeline / "data" / "pool.jsonl"),
            "--task", "synth", "--model", str(pipeline / "model.rare"),
        ]
        for value in ("1e-300", "0.0009", "0", "-0.1", "1.5", "nan", "inf"):
            form = ["--bin-width", value]
            capsys.readouterr()
            assert dispatch([*argv, *form]) == 1, form
            err = capsys.readouterr().err
            assert err.strip().splitlines() == [f"error: bin width must be in [0.001, 1], got {float(value)}"]
            assert not out.exists() and not buckets.exists()
        assert dispatch([*argv, "--bin-width", "0.001"]) == 0
        assert len(buckets.read_text(encoding="utf-8").splitlines()) == 1 + 1000


class TestAblateCommand:
    def test_grid_csv(self, pipeline, tmp_path):
        out = tmp_path / "ablation.csv"
        code = dispatch([
            "ablate", "--data", f"synth={pipeline / 'data'}",
            "--model", str(pipeline / "model.rare"),
            "--cell", "inst:0:retrieved",
            "--cell", "inst+ic:2:retrieved",
            "--cell", "inst+ic:2:random",
            "--out", str(out),
        ])
        assert code == 0
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Setting", "synth", "Average"]
        assert [r[0] for r in rows[1:]] == [
            "inst,k=0,retrieved", "inst+ic,k=2,retrieved", "inst+ic,k=2,random",
        ]
        for row in rows[1:]:
            assert row[1] == row[2]  # single dataset: average equals the cell
            assert 0.0 <= float(row[1]) <= 1.0

    def test_dataset_directory_holding_an_equals_sign(self, pipeline, tmp_path, monkeypatch):
        # An existing directory `k=5` was split into NAME `k` and "dataset directory not found: 5".
        shutil.copytree(pipeline / "data", tmp_path / "k=5")
        monkeypatch.chdir(tmp_path)
        assert dispatch(["ablate", "--data", "k=5", "--model", str(pipeline / "model.rare"),
                         "--cell", "inst:0:retrieved", "--out", "a.csv"]) == 0
        with (tmp_path / "a.csv").open(newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == ["Setting", "k=5", "Average"]

    def test_bad_cell_is_usage_error(self, pipeline, tmp_path, capsys):
        code = dispatch([
            "ablate", "--data", f"synth={pipeline / 'data'}",
            "--model", str(pipeline / "model.rare"),
            "--cell", "inst+ic:x:retrieved",
            "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 1

    def test_unknown_cell_option_is_usage_error(self, pipeline, tmp_path, capsys):
        # A misspelt `brackets` used to run the cell without brackets.
        out = tmp_path / "a.csv"
        for cell in ("inst+ic:5:retrieved:brackts", "inst:0:retrieved:", "inst:0:retrieved:brackets:brackets"):
            capsys.readouterr()
            assert dispatch(["ablate", "--data", f"synth={pipeline / 'data'}", "--model", str(pipeline / "model.rare"),
                             "--cell", cell, "--out", str(out)]) == 1, cell
            assert capsys.readouterr().err.splitlines() == [
                f"error: --cell expects format:k:selection[:brackets], got {cell!r}"]
            assert not out.exists()

    @pytest.mark.parametrize("command", ["ablate", "bench"])
    def test_empty_dataset_name_is_usage_error(self, pipeline, tmp_path, capsys, command):
        # An empty NAME gave the CSV header `Setting,,Average` and the digest keys `:corpus`.
        out = tmp_path / "out.csv"
        extra = ["--cell", "inst:0:retrieved"] if command == "ablate" else ["--k", "0", "--reps", "1"]
        entries = [f"={pipeline / 'data'}", "/"] if command == "ablate" else ["/"]
        for entry in entries:
            capsys.readouterr()
            assert dispatch([command, "--data", entry, "--model", str(pipeline / "model.rare"), *extra,
                             "--out", str(out)]) == 1, entry
            assert capsys.readouterr().err.splitlines() == [
                f"error: --data {entry!r} names no dataset; give it as NAME=dir"]
            assert not out.exists()

    def test_repeated_dataset_name_is_usage_error(self, pipeline, tmp_path, capsys):
        # The table is keyed by dataset NAME, so a second `synth` used to put its
        # result under both columns and lose the first dataset's.
        out = tmp_path / "dup.csv"
        for second in (f"synth={pipeline / 'data'}", str(tmp_path / "synth")):
            code = dispatch([
                "ablate", "--data", f"synth={pipeline / 'data'}", "--data", second,
                "--model", str(pipeline / "model.rare"), "--cell", "inst:0:retrieved", "--out", str(out),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert err.strip().splitlines() == [
                "error: --data names dataset 'synth' more than once; give each a distinct NAME=dir"
            ]
            assert not out.exists()

    def test_missing_pool_is_usage_error(self, pipeline, tmp_path, capsys):
        # A dataset directory without pool.jsonl cannot serve an inst+ic cell.
        data_dir = tmp_path / "nopool"
        data_dir.mkdir()
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv"):
            shutil.copy(pipeline / "data" / name, data_dir / name)
        out = tmp_path / "a.csv"
        code = dispatch([
            "ablate", "--data", str(data_dir), "--model", str(pipeline / "model.rare"),
            "--cell", "inst:0:retrieved", "--cell", "inst+ic:5:retrieved", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: format inst+ic with k=5 needs an example pool"]
        assert not out.exists()


class TestBenchCommand:
    def test_both_settings_csv(self, pipeline, tmp_path):
        out = tmp_path / "bench.csv"
        code = dispatch([
            "bench", "--data", str(pipeline / "data"), "--dataset", "synth",
            "--model", str(pipeline / "model.rare"),
            "--k", "2", "--reps", "2", "--out", str(out),
        ])
        assert code == 0
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        by_setting = {r[2]: r for r in rows[1:]}
        assert set(by_setting) == {"inst", "inst+ic"}
        assert float(by_setting["inst"][4]) == 0.0  # NN column
        assert float(by_setting["inst+ic"][3]) > float(by_setting["inst"][3])  # AvgQLen
        assert by_setting["inst+ic"][8] != ""  # Inc factor filled


class TestCountFlags:
    def test_out_of_domain_counts_are_usage_errors(self, pipeline, tmp_path, capsys):
        # These used to end in a ZeroDivisionError traceback (eval --k 0,
        # ablate --ndcg-k 0), exit 0 with an empty ranking (--topk 0/-3), or
        # run as inst under a negative k's label (search/bench/train --k).
        data_dir = pipeline / "data"
        out = tmp_path / "out"
        commands = {
            "search": ["search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
                       "--queries", str(data_dir / "queries.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
                       "--task", "synth"],
            "eval": ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(data_dir / "qrels.tsv")],
            "ablate": ["ablate", "--data", f"synth={data_dir}", "--model", str(pipeline / "model.rare"),
                       "--cell", "inst+ic:2:retrieved"],
            "bench": ["bench", "--data", str(data_dir), "--model", str(pipeline / "model.rare"), "--reps", "1"],
            "train": ["train", "--data", str(data_dir / "train.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
                      "--epochs", "1", *SMALL_EMBEDDER],
        }
        bad = [
            ("eval", "k", "positive_int", "0"), ("eval", "k", "positive_int", "-1"),
            ("ablate", "ndcg-k", "positive_int", "0"), ("ablate", "topk", "positive_int", "0"),
            ("search", "topk", "positive_int", "0"), ("search", "topk", "positive_int", "-3"),
            ("bench", "topk", "positive_int", "0"),
            ("search", "k", "nonneg_int", "-2"), ("bench", "k", "nonneg_int", "-3"),
            ("train", "k", "nonneg_int", "-1"),
        ]
        for command, flag, type_name, value in bad:
            argv = [*commands[command], "--out", str(out)]
            capsys.readouterr()
            assert dispatch([*argv, f"--{flag}", value]) == 1, (command, flag, value)
            err = capsys.readouterr().err
            assert err.splitlines()[0] == f"error: rare {command}: argument --{flag}: invalid {type_name} value: '{value}'"
            assert "Traceback" not in err
        ablate = [*commands["ablate"][:-2], "--out", str(out)]
        form = ["--cell", "inst+ic:-1:retrieved"]
        capsys.readouterr()
        assert dispatch([*ablate, *form]) == 1, form
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: k must be a non-negative integer in --cell 'inst+ic:-1:retrieved'"
        ], err
        assert not out.exists()

    def test_zero_examples_stays_valid(self, pipeline, tmp_path):
        # --k 0 means no examples: the plain-instruction serving workload uses it.
        data_dir = pipeline / "data"
        run = tmp_path / "run.trec"
        assert dispatch([
            "search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
            "--queries", str(data_dir / "queries.jsonl"), "--format", "inst", "--k", "0", "--out", str(run),
        ]) == 0
        assert run.read_text(encoding="utf-8")


class TestZeroQueryEmbeddings:
    def test_search_ablate_bench_print_one_count(self, pipeline, tmp_path, capsys):
        data_dir = pipeline / "data"
        n_queries = len((data_dir / "queries.jsonl").read_text(encoding="utf-8").splitlines())
        params = load(pipeline / "model.rare")
        params.projection[:] = 0.0  # every query embeds to all zeros
        zero_model = tmp_path / "zero.rare"
        save(params, zero_model)
        zero_index = tmp_path / "zero.rfi"  # an index names its model, so the zero model gets its own
        assert dispatch(["index", "--corpus", str(data_dir / "corpus.jsonl"), "--model", str(zero_model),
                         "--out", str(zero_index)]) == 0
        commands = {
            "search": (["search", "--queries", str(data_dir / "queries.jsonl"),
                        "--pool", str(data_dir / "pool.jsonl"), "--task", "synth", "--k", "2"], n_queries),
            "ablate": (["ablate", "--data", f"synth={data_dir}", "--cell", "inst:0:retrieved",
                        "--cell", "inst+ic:2:retrieved"], 2 * n_queries),
            "bench": (["bench", "--data", str(data_dir), "--k", "2", "--reps", "1"], 2 * n_queries),
        }
        for name, (argv, total) in commands.items():
            out = ["--out", str(tmp_path / f"{name}.out")]
            index = ["--index", str(pipeline / "index.rfi")] if name == "search" else []
            capsys.readouterr()
            assert dispatch([*argv, *index, "--model", str(pipeline / "model.rare"), *out]) == 0, name
            assert "all zeros" not in capsys.readouterr().err
            index = ["--index", str(zero_index)] if name == "search" else []
            assert dispatch([*argv, *index, "--model", str(zero_model), *out]) == 0, name
            err = capsys.readouterr().err
            line = f"{total} of {total} query embeddings are all zeros; ranked by document id"
            assert err.splitlines() == [line], (name, err)


def files_under(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


def manifest_steps(tmp_path: Path) -> list[tuple[list[str], list[Path], dict[str, Path], dict]]:
    """Every command once, in pipeline order: argv, files written, files read
    by manifest key, seeds."""
    d = tmp_path / "data"
    corpus, queries, qrels, pool = (d / n for n in ("corpus.jsonl", "queries.jsonl", "qrels.tsv", "pool.jsonl"))
    model, index, run = tmp_path / "model.rare", tmp_path / "index.rfi", tmp_path / "run.trec"
    report, buckets = tmp_path / "report.json", tmp_path / "buckets.csv"
    ablation, latency = tmp_path / "ablation.csv", tmp_path / "latency.csv"
    dataset = {"synth:corpus": corpus, "synth:queries": queries, "synth:qrels": qrels, "synth:pool": pool}
    return [
        (["synth", "--out", str(d), *SMALL_SYNTH],
         [corpus, queries, qrels, d / "train.jsonl", pool], {}, {"seed": 3}),
        (["train", "--data", str(d / "train.jsonl"), "--pool", f"synth={pool}", "--k", "2", "--epochs", "1",
          "--batch", "16", "--seed", "5", "--out", str(model), *SMALL_EMBEDDER],
         [model, tmp_path / "model.rare.log.jsonl"], {"train": d / "train.jsonl", "pool:synth": pool},
         {"seed": 5, "shuffle_seed": 0}),
        (["index", "--corpus", str(corpus), "--model", str(model), "--out", str(index)],
         [index], {"corpus": corpus, "model": model}, {}),
        (["search", "--index", str(index), "--model", str(model), "--queries", str(queries), "--pool", str(pool),
          "--task", "synth", "--k", "2", "--shuffle-seed", "4", "--out", str(run)],
         [run], {"index": index, "model": model, "queries": queries, "pool": pool},
         {"seed": 0, "shuffle_seed": 4}),
        (["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(report), "--buckets-out", str(buckets),
          "--baseline-run", str(run), "--queries", str(queries), "--pool", str(pool), "--task", "synth",
          "--model", str(model)],
         [report, buckets],
         {"run": run, "qrels": qrels, "baseline_run": run, "queries": queries, "pool": pool, "model": model}, {}),
        (["ablate", "--data", f"synth={d}", "--model", str(model), "--cell", "inst:0:retrieved",
          "--cell", "inst+ic:2:retrieved", "--out", str(ablation)],
         [ablation], {"model": model, **dataset}, {"seed": 0}),
        (["bench", "--data", str(d), "--dataset", "synth", "--model", str(model), "--k", "2", "--reps", "1",
          "--out", str(latency)],
         [latency], {"model": model, **dataset}, {}),
    ]


class TestManifests:
    """`dispatch` writes one manifest beside every file a command wrote. Its
    `input_digests` name exactly the files the command read, and its seeds
    are the parsed options named `*seed`."""

    def test_every_command_records_what_it_read_and_wrote(self, tmp_path):
        for argv, wrote, read, seeds in manifest_steps(tmp_path):
            before = files_under(tmp_path)
            assert dispatch(argv) == 0, argv[0]
            new = files_under(tmp_path) - before
            assert new == {*wrote, *(manifest_path(p) for p in wrote)}, argv[0]
            digests = {key: digest_file(path) for key, path in read.items()}
            for artifact in wrote:
                manifest = json.loads(manifest_path(artifact).read_text(encoding="utf-8"))
                assert manifest["command"] == ["rare", *argv]
                assert manifest["input_digests"] == digests, (argv[0], artifact.name)
                assert manifest["seeds"] == seeds, (argv[0], artifact.name)

    def test_every_command_hashes_each_input_once_before_writing(self, tmp_path, monkeypatch):
        """A command hashes each file it reads once, when it takes the file:
        before it writes anything, and never again for the manifest or for
        `eval`'s fingerprint."""
        calls = []

        def counting_digest(path):
            calls.append((Path(path), files_under(tmp_path) - before))
            return digest_file(path)

        monkeypatch.setattr(rare.cli, "digest_file", counting_digest)
        monkeypatch.setattr(rare.manifest, "digest_file", counting_digest)
        for argv, _, read, _ in manifest_steps(tmp_path):
            before = files_under(tmp_path)
            calls.clear()
            assert dispatch(argv) == 0, argv[0]
            assert Counter(path for path, _ in calls) == Counter(read.values()), argv[0]
            assert [written for _, written in calls if written] == [], argv[0]

    def test_eval_over_its_own_run_records_the_run_it_read(self, pipeline, tmp_path):
        run = tmp_path / "run.trec"
        shutil.copyfile(pipeline / "run.trec", run)
        read = digest_file(run)
        assert dispatch(["eval", "--run", str(run), "--qrels", str(pipeline / "data" / "qrels.tsv"),
                         "--out", str(run)]) == 0
        manifest = json.loads(manifest_path(run).read_text(encoding="utf-8"))
        assert manifest["input_digests"]["run"] == read
        # The fingerprint comes from the same digests, so the report is the pipeline's.
        assert run.read_bytes() == (pipeline / "report.json").read_bytes()

    def test_search_without_examples_records_no_pool(self, pipeline, tmp_path):
        data_dir = pipeline / "data"
        run = tmp_path / "run.trec"
        assert dispatch([
            "search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
            "--queries", str(data_dir / "queries.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
            "--format", "inst", "--k", "0", "--out", str(run),
        ]) == 0
        manifest = json.loads(manifest_path(run).read_text(encoding="utf-8"))
        assert set(manifest["input_digests"]) == {"index", "model", "queries"}

    def test_task_pools(self, pipeline, tmp_path, capsys):
        # A train set with two tasks needs one --pool TASK=PATH per task.
        lines = (pipeline / "data" / "train.jsonl").read_text(encoding="utf-8").splitlines()
        examples = [json.loads(line) for line in lines]
        for ex in examples[::2]:
            ex["task_id"] = "other"
        train_path = tmp_path / "train.jsonl"
        train_path.write_text("".join(json.dumps(ex) + "\n" for ex in examples), encoding="utf-8")
        pool = pipeline / "data" / "pool.jsonl"
        model = tmp_path / "m.rare"
        train = ["train", "--data", str(train_path), "--k", "2", "--epochs", "1", "--batch", "16",
                 "--out", str(model), *SMALL_EMBEDDER]
        capsys.readouterr()
        assert dispatch([*train, "--pool", str(pool)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: train set has multiple tasks; use --pool TASK=PATH for each"]
        assert files_under(tmp_path) == {train_path}

        assert dispatch([*train, "--pool", f"synth={pool}", "--pool", f"other={pool}"]) == 0
        manifest = json.loads(manifest_path(model).read_text(encoding="utf-8"))
        assert manifest["input_digests"] == {
            "train": digest_file(train_path), "pool:synth": digest_file(pool), "pool:other": digest_file(pool),
        }

    def test_failed_eval_writes_nothing(self, pipeline, tmp_path, capsys):
        # The bucket flags are checked, and every bucket input read, before
        # the report is written; a failed command leaves no file and no manifest.
        data_dir = pipeline / "data"
        eval_argv = ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(data_dir / "qrels.tsv"),
                     "--out", str(tmp_path / "r.json"), "--buckets-out", str(tmp_path / "b.csv")]
        companions = ["--queries", str(data_dir / "queries.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
                      "--task", "synth", "--model", str(pipeline / "model.rare")]
        assert dispatch(eval_argv) == 1
        assert "--buckets-out needs --baseline-run" in capsys.readouterr().err
        assert dispatch([*eval_argv, *companions, "--baseline-run", str(tmp_path / "missing.trec")]) == 2
        assert "baseline run not found" in capsys.readouterr().err
        assert files_under(tmp_path) == set()


# What writes the bytes of each command's last output, by the command in `manifest_steps`.
LAST_WRITERS = {
    "synth": "rare.data.write_pool",
    "train": "rare.data._write_jsonl",
    "index": "rare.retrieve.IndexWriter.write",
    "search": "rare.cli.write_run",
    "eval": "pathlib.Path.write_text",
    "ablate": "rare.cli.write_ablation_csv",
    "bench": "rare.cli.emit_csv",
}


def with_option(argv: list[str], flag: str, value: str) -> list[str]:
    """`argv` with the value of `flag` replaced."""
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1:]]


class TestStagedOutputs:
    """`dispatch` gives each command a temporary file beside every output
    and renames them into place only when the command has succeeded."""

    @pytest.mark.parametrize("step", range(len(LAST_WRITERS)), ids=list(LAST_WRITERS))
    def test_failed_write_leaves_every_output_and_manifest_as_it_was(self, tmp_path, monkeypatch, capsys, step):
        steps = manifest_steps(tmp_path)
        for argv, *_ in steps[:step + 1]:
            assert dispatch(argv) == 0, argv[0]
        argv, wrote, *_ = steps[step]
        # Outputs already there, with bytes the command would not write.
        before = {path: f"old {path.name}\n".encode() for artifact in wrote
                  for path in (artifact, manifest_path(artifact))}
        for path, blob in before.items():
            path.write_bytes(blob)

        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(LAST_WRITERS[argv[0]], fail)
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]
        assert {path: path.read_bytes() for path in before} == before

    @pytest.mark.parametrize("step", range(len(LAST_WRITERS)), ids=list(LAST_WRITERS))
    def test_output_that_cannot_be_a_file_is_usage_error(self, tmp_path, capsys, step):
        # Checked before any input is read: none of these exist.
        argv, *_ = manifest_steps(tmp_path)[step]
        if argv[0] == "synth":
            (tmp_path / "data" / "corpus.jsonl").mkdir(parents=True)
            cases = [(argv, tmp_path / "data" / "corpus.jsonl")]
        else:
            cases = [(with_option(argv, "--out", out), Path(out)) for out in (".", "", str(tmp_path))]
        for bad, shown in cases:
            capsys.readouterr()
            assert dispatch(bad) == 1, bad
            assert capsys.readouterr().err.splitlines() == [f"error: output {str(shown)!r} is a directory, not a file"]
            assert files_under(tmp_path) == set()

    @pytest.mark.parametrize("step", range(1, len(LAST_WRITERS)), ids=list(LAST_WRITERS)[1:])
    def test_output_in_a_missing_directory_names_the_output(self, tmp_path, capsys, step):
        steps = manifest_steps(tmp_path)
        for argv, *_ in steps[:step + 1]:
            assert dispatch(argv) == 0, argv[0]
        argv, wrote, *_ = steps[step]
        missing = tmp_path / "missing" / wrote[0].name
        before = files_under(tmp_path)
        capsys.readouterr()
        assert dispatch(with_option(argv, "--out", str(missing))) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{missing}'"]
        assert files_under(tmp_path) == before

    def test_symlinked_output_is_replaced_not_written_through(self, pipeline, tmp_path):
        target, out, loop = tmp_path / "target.json", tmp_path / "out.json", tmp_path / "loop.json"
        target.write_text("old\n", encoding="utf-8")
        out.symlink_to(target)
        loop.symlink_to(loop)
        argv = ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(pipeline / "data" / "qrels.tsv")]
        for path in (out, loop):
            assert dispatch([*argv, "--out", str(path)]) == 0, path
            assert not path.is_symlink() and path.read_bytes() == (pipeline / "report.json").read_bytes()
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_train_log_in_a_missing_directory_leaves_the_model(self, tmp_path, capsys):
        # The model used to be replaced before the log failed, and kept its old manifest.
        steps = manifest_steps(tmp_path)
        for argv, *_ in steps[:2]:
            assert dispatch(argv) == 0, argv[0]
        argv, wrote, *_ = steps[1]
        before = {path: path.read_bytes() for path in files_under(tmp_path)}
        log = tmp_path / "missing" / "log.jsonl"
        capsys.readouterr()
        assert dispatch([*with_option(argv, "--seed", "6"), "--log", str(log)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{log}'"]
        assert {path: path.read_bytes() for path in files_under(tmp_path)} == before


class TestIndexNamesItsModel:
    """An index file stores the sha256 of the model file it was built with,
    and `search` refuses a model with another digest."""

    def test_seed_7_index_with_a_seed_1_model_is_exit_two(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert dispatch(["synth", "--seed", "7", "--out", str(data)]) == 0
        models = {seed: tmp_path / f"model-{seed}.rare" for seed in ("0", "1")}
        for seed, model in models.items():
            assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                             "--seed", seed, "--out", str(model)]) == 0
        index = tmp_path / "index.rfi"
        assert dispatch(["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(models["0"]),
                         "--out", str(index)]) == 0
        run = tmp_path / "run.trec"
        search = ["search", "--index", str(index), "--queries", str(data / "queries.jsonl"),
                  "--pool", str(data / "pool.jsonl"), "--task", "synth", "--k", "5", "--out", str(run)]
        before = files_under(tmp_path)
        capsys.readouterr()
        assert dispatch([*search, "--model", str(models["1"])]) == 2
        built, given = digest_file(models["0"])[:8], digest_file(models["1"])[:8]
        assert capsys.readouterr().err.splitlines() == [
            f"error: {index} was built with model {built}, not {given} ({models['1']}); rebuild it with `rare index`"
        ]
        assert files_under(tmp_path) == before
        assert dispatch([*search, "--model", str(models["0"])]) == 0

    def test_version_1_index_is_exit_two_with_a_rebuild_hint(self, pipeline, tmp_path, capsys):
        blob = (pipeline / "index.rfi").read_bytes()
        old = tmp_path / "old.rfi"  # version 1 held no model digest between (n, dim) and the ids
        old.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:24] + blob[56:])
        run = tmp_path / "run.trec"
        capsys.readouterr()
        assert dispatch(["search", "--index", str(old), "--model", str(pipeline / "model.rare"),
                         "--queries", str(pipeline / "data" / "queries.jsonl"), "--format", "inst", "--k", "0",
                         "--out", str(run)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {old}: unsupported index version 1; rebuild it with `rare index`"
        ]
        assert not run.exists()


class TestCorpusReadFromItsFile:
    """`rare index`, `ablate` and `bench` check every corpus line first, then
    read each document back from the file as it is embedded. A file that
    changes in between is exit 2 in one line, and nothing is written."""

    @pytest.fixture
    def seed7(self, tmp_path) -> tuple[Path, Path]:
        data, model = tmp_path / "data", tmp_path / "m.rare"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        save(new_params(hash_dim=4096, embed_dim=16, seed=1), model)
        os.utime(data / "corpus.jsonl", ns=(10**18, 10**18))  # an edit made now changes the mtime
        return data / "corpus.jsonl", model

    @staticmethod
    def edit_after_loading(monkeypatch, corpus: Path, row: int, old: bytes, new: bytes, keep_mtime: bool) -> None:
        """Replace `old` by `new` on line `row` of the corpus in place, right after `load_corpus` returns."""
        load = rare.data.load_corpus

        def load_then_edit(path):
            loaded = load(path)
            st = os.stat(corpus)
            lines = corpus.read_bytes().splitlines(keepends=True)
            assert len(new) == len(old) and old in lines[row]
            lines[row] = lines[row].replace(old, new, 1)
            with corpus.open("r+b") as fh:  # the same file, not a new one at its path
                fh.write(b"".join(lines))
            if keep_mtime:
                os.utime(corpus, ns=(st.st_atime_ns, st.st_mtime_ns))
            assert os.stat(corpus).st_size == st.st_size
            return loaded

        monkeypatch.setattr(rare.data, "load_corpus", load_then_edit)

    def index(self, corpus, model, out, capsys) -> tuple[int, list[str]]:
        capsys.readouterr()
        code = dispatch(["index", "--corpus", str(corpus), "--model", str(model), "--out", str(out)])
        return code, capsys.readouterr().err.splitlines()

    # 320 documents: in this process as two ranges, or in forked workers as five.
    TASK_TEXTS = [256, pytest.param(64, marks=TWO_CPUS)]

    @pytest.mark.parametrize("task_texts", TASK_TEXTS)
    def test_a_line_whose_id_changed_is_exit_two(self, seed7, tmp_path, monkeypatch, capsys, task_texts):
        corpus, model = seed7
        monkeypatch.setattr(rare.embedder, "_TASK_TEXTS", task_texts)
        self.edit_after_loading(monkeypatch, corpus, 100, b'"d2-20"', b'"d2-2x"', keep_mtime=True)
        out = tmp_path / "i.rfi"
        assert self.index(corpus, model, out, capsys) == (
            2, [f"error: {corpus} changed while it was read (document 'd2-20'); run the command again"])
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("task_texts", TASK_TEXTS)
    def test_a_same_length_text_edit_is_exit_two(self, seed7, tmp_path, monkeypatch, capsys, task_texts):
        corpus, model = seed7
        monkeypatch.setattr(rare.embedder, "_TASK_TEXTS", task_texts)
        self.edit_after_loading(monkeypatch, corpus, 200, b'"sh99 ', b'"sh98 ', keep_mtime=False)
        out = tmp_path / "i.rfi"
        assert self.index(corpus, model, out, capsys) == (
            2, [f"error: {corpus} changed while it was read (document 'd0-0'); run the command again"])
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_a_duplicate_id_is_found_before_any_fork_or_row(self, seed7, tmp_path, monkeypatch, capsys):
        corpus, model = seed7
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[300] = lines[300].replace('"d7-20"', '"d0-3"', 1)
        corpus.write_text("".join(lines), encoding="utf-8")
        monkeypatch.setattr(rare.embedder, "_TASK_TEXTS", 64)
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(rare.embedder, "load", no_pool)
        out = tmp_path / "i.rfi"
        assert self.index(corpus, model, out, capsys) == (
            2, [f"error: {corpus}:301: duplicate document id 'd0-3'"])
        assert not out.exists()

    def test_a_bom_prefixed_corpus_is_exit_two_in_one_line(self, seed7, tmp_path, capsys):
        corpus, model = seed7
        corpus.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
        out = tmp_path / "i.rfi"
        assert self.index(corpus, model, out, capsys) == (
            2, [f"error: {corpus}:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"])
        assert not out.exists()

    def test_ablate_and_bench_read_the_same_corpus(self, tmp_path):
        # Synth seed 7 with its default model (d46a3da9); the CSV bytes and the
        # bench columns that hold no timing are those of an in-memory corpus.
        data, model = tmp_path / "data", tmp_path / "model.rare"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        assert dispatch(["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
                         "--out", str(model)]) == 0
        ablation, latency = tmp_path / "ablation.csv", tmp_path / "latency.csv"
        assert dispatch(["ablate", "--data", f"synth={data}", "--model", str(model), "--cell", "inst:0:retrieved",
                         "--cell", "inst+ic:5:retrieved", "--cell", "inst+ic:5:random", "--out", str(ablation)]) == 0
        assert ablation.read_bytes() == (
            b'Setting,synth,Average\r\n'
            b'"inst,k=0,retrieved",0.4234772200457796,0.4234772200457796\r\n'
            b'"inst+ic,k=5,retrieved",0.8426782035215554,0.8426782035215554\r\n'
            b'"inst+ic,k=5,random",0.12495707803478337,0.12495707803478337\r\n'
        )
        assert dispatch(["bench", "--data", f"synth={data}", "--model", str(model), "--setting", "both",
                         "--reps", "1", "--out", str(latency)]) == 0
        with latency.open(newline="", encoding="utf-8") as fh:
            rows = [row[:4] for row in csv.reader(fh)]
        assert rows == [["Dataset", "#Corpus", "Setting", "AvgQLen"],
                        ["synth", "320", "inst", "11.0"], ["synth", "320", "inst+ic", "231.0"]]


class TestNotUtf8:
    """A byte that is not UTF-8, in an input file or on the command line, or a
    lone surrogate in a JSONL field, ends in one line and an exit code; no
    file is written."""

    @pytest.mark.parametrize(("command", "flag", "extra"), [
        ("index", "--corpus", b'{"_id": "bad", "title": "", "text": "caf\xff"}\n'),
        ("eval", "--qrels", b"q1\td\xff\t1\n"),
        ("eval", "--run", b"q1 Q0 d1 1 0.5 \xff\n"),
    ], ids=["corpus", "qrels", "run"])
    def test_input_file_is_exit_two(self, pipeline, tmp_path, capsys, command, flag, extra):
        inputs = {
            "index": {"--corpus": pipeline / "data" / "corpus.jsonl", "--model": pipeline / "model.rare"},
            "eval": {"--run": pipeline / "run.trec", "--qrels": pipeline / "data" / "qrels.tsv"},
        }[command]
        lines = inputs[flag].read_bytes().splitlines(keepends=True)
        bad = inputs[flag] = tmp_path / inputs[flag].name
        bad.write_bytes(b"".join(lines) + extra)
        argv = [command, *(arg for item in inputs.items() for arg in map(str, item)), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:{len(lines) + 1}: not valid UTF-8"]
        assert files_under(tmp_path) == {bad}

    @pytest.mark.parametrize(("command", "flag", "key", "line"), [
        ("index", "--corpus", "title", r'{"_id": "bad", "title": "a \ud800 b", "text": "x"}'),
        ("index", "--corpus", "_id", r'{"_id": "\udcff", "title": "", "text": "x"}'),
        ("train", "--data", "query", r'{"task_id": "t", "instruction": "", "query": "q \ud800", "positive": "p"}'),
        ("train", "--pool", "positive", r'{"query": "q", "positive": "\uDFFF"}'),
    ], ids=["corpus-title", "corpus-id", "train-query", "pool-positive"])
    def test_lone_surrogate_is_exit_two(self, pipeline, tmp_path, capsys, command, flag, key, line):
        # A JSON escape can decode to a lone surrogate, which no UTF-8 output can hold.
        data_dir = pipeline / "data"
        inputs = {
            "index": {"--corpus": data_dir / "corpus.jsonl", "--model": pipeline / "model.rare"},
            "train": {"--data": data_dir / "train.jsonl", "--pool": data_dir / "pool.jsonl"},
        }[command]
        lines = inputs[flag].read_text(encoding="utf-8").splitlines(keepends=True)
        bad = inputs[flag] = tmp_path / inputs[flag].name
        bad.write_text("".join(lines) + line + "\n", encoding="utf-8")
        argv = [command, *(arg for item in inputs.items() for arg in map(str, item)), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}:{len(lines) + 1}: field {key!r} is not valid UTF-8 (a lone surrogate)"
        ]
        assert files_under(tmp_path) == {bad}

    def test_argument_is_usage_error(self, pipeline, tmp_path, capsys):
        data_dir = pipeline / "data"
        run = tmp_path / "run.trec"
        search = ["search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
                  "--queries", str(data_dir / "queries.jsonl"), "--pool", str(data_dir / "pool.jsonl"),
                  "--task", "synth", "--k", "2", "--out", str(run)]
        byte = os.fsdecode(b"\xff")  # how the interpreter passes a byte that is not UTF-8
        for extra in (["--tag", byte], ["--instruction", f"find {byte}"]):
            capsys.readouterr()
            assert dispatch([*search, *extra]) == 1, extra
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: argument {len(search) + 2} is not valid UTF-8: {extra[1]!r}"], err
        assert files_under(tmp_path) == set()

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "rare.cli", *search, "--tag", b"\xff"], env=env,
                                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: argument {len(search) + 2} is not valid UTF-8: '\\udcff'"]
        assert files_under(tmp_path) == set()


def numeric_flags() -> list[tuple[str, str]]:
    """(command, flag) for every option of every subcommand whose type turns "1" into a number."""
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, command in commands.items()
        for action in command._actions
        if action.option_strings and action.type is not None and isinstance(action.type("1"), (int, float))
    ]


# Flags that size a workload or an allocation: a positive value is only parsed.
SIZE_FLAGS = {
    ("synth", "--clusters"), ("synth", "--docs"), ("synth", "--queries"), ("synth", "--vocab-per-cluster"),
    ("synth", "--shared-vocab"), ("train", "--epochs"), ("train", "--batch"), ("train", "--hash-dim"),
    ("train", "--dim"), ("bench", "--reps"),
}

RAW_NUMBERS = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def parsed_value(argv: list[str], dest: str):
    """The value `dest` gets from argv's flags, or None when they do not parse."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError:
        return None
    return getattr(args, dest)


@pytest.fixture(scope="module")
def command_argv(pipeline, tmp_path_factory):
    """A smoke-size invocation of each command with numeric options, on the pipeline's files."""
    data_dir = pipeline / "data"
    out = tmp_path_factory.mktemp("flags")
    model = str(pipeline / "model.rare")
    queries, pool = str(data_dir / "queries.jsonl"), str(data_dir / "pool.jsonl")
    return {
        "synth": ["synth", "--out", str(out / "synth"), *SMALL_SYNTH],
        "train": ["train", "--data", str(data_dir / "train.jsonl"), "--pool", pool, "--k", "2",
                  "--epochs", "1", "--batch", "16", "--out", str(out / "m.rare"), *SMALL_EMBEDDER],
        "search": ["search", "--index", str(pipeline / "index.rfi"), "--model", model, "--queries", queries,
                   "--pool", pool, "--task", "synth", "--k", "2", "--out", str(out / "run.trec")],
        "eval": ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(data_dir / "qrels.tsv"),
                 "--out", str(out / "r.json"), "--buckets-out", str(out / "b.csv"),
                 "--baseline-run", str(pipeline / "run.trec"), "--queries", queries, "--pool", pool,
                 "--task", "synth", "--model", model],
        "ablate": ["ablate", "--data", f"synth={data_dir}", "--model", model, "--cell", "inst+ic:2:retrieved",
                   "--out", str(out / "a.csv")],
        "bench": ["bench", "--data", str(data_dir), "--model", model, "--k", "2", "--reps", "1",
                  "--out", str(out / "l.csv")],
    }


class TestNumericFlags:
    """Every numeric option, walked from the parser, ends any value in exit
    0-3 without a traceback."""

    def test_walk_covers_every_command(self, command_argv):
        flags = numeric_flags()
        assert {command for command, _ in flags} == set(command_argv)
        assert SIZE_FLAGS <= set(flags)

    @pytest.mark.parametrize(("command", "flag"), numeric_flags())
    @settings(max_examples=4, deadline=None, database=None, derandomize=True)
    @given(raw=RAW_NUMBERS)
    @example(raw="-1")
    @example(raw="0")
    @example(raw=str(2**63))
    @example(raw=str(2**64))
    @example(raw=str(-(2**63)))
    @example(raw="nan")
    @example(raw="inf")
    @example(raw="-inf")
    @example(raw="1e308")
    @example(raw="1e-300")
    @example(raw="5e-324")
    def test_any_value_ends_in_an_exit_code(self, command_argv, command, flag, raw):
        argv = [*command_argv[command], f"{flag}={raw}"]
        value = parsed_value(argv, flag[2:].replace("-", "_"))
        if (command, flag) in SIZE_FLAGS and value is not None and value > 0:
            return  # never start a workload this size
        assert_exit_code(argv)

    # --ngrams parses to a tuple, so the walk above does not reach it.
    @pytest.mark.parametrize("raw", ["0", "-1", "1,0", "1,-2", f"1,{2**32}", f"1,{2**64}", "1,,2", ",", "", "1.5", "nan"])
    def test_any_ngram_orders_end_in_an_exit_code(self, command_argv, raw):
        assert_exit_code([*command_argv["train"], f"--ngrams={raw}"])


def assert_exit_code(argv: list[str]) -> None:
    """`dispatch(argv)` ends in exit 0-3 without a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


# What the commands that compute load: numpy and the modules built on it.
NUMERIC_MODULES = ["numpy", "rare.bm25", "rare.embedder", "rare.retrieve", "rare.trainer"]
# The rare.cli names perfbench/tracer.py rebinds before any command runs; the
# first five come from numpy-backed modules.
TRACED_NAMES = ["train", "build_flat_index", "save_index", "load_flat_index", "run_inference",
                "write_run", "load_run", "evaluate", "build_manifest"]

# Runs `dispatch(ARGV)` and prints its exit code and which of MODULES are loaded.
MODULES_CHILD = """
import json, sys
from rare.cli import dispatch
try:
    code = dispatch(json.loads(sys.argv[1]))
except SystemExit as exc:  # --version exits from argparse
    code = exc.code
print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""

# Resolves NAMES on rare.cli, rebinds each to a wrapper that counts its calls,
# runs each of STEPS through dispatch, and prints what resolved and what was called.
REBIND_CHILD = """
import json, sys
import rare.cli as cli
names, steps = json.loads(sys.argv[1]), json.loads(sys.argv[2])
resolved = [name for name in names if callable(getattr(cli, name))]
called = []
def rebind(name, fn):
    def wrapper(*args, **kwargs):
        called.append(name)
        return fn(*args, **kwargs)
    setattr(cli, name, wrapper)
for name in names:
    rebind(name, getattr(cli, name))
codes = [cli.dispatch(argv) for argv in steps]
print(json.dumps([resolved, codes, sorted(set(called))]))
"""


def run_fresh(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run `python ARGV...` in a fresh interpreter with src/ on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True,
                            timeout=SUBPROCESS_TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    return result


class TestImports:
    """Each command imports only what it runs: `synth` and `eval` start
    without numpy, and the numeric commands load it when dispatched."""

    @staticmethod
    def command_argv(pipeline: Path, tmp_path: Path) -> dict[str, list[str]]:
        d = pipeline / "data"
        return {
            "synth": ["synth", "--out", str(tmp_path / "d"), *SMALL_SYNTH],
            "eval": ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(d / "qrels.tsv"),
                     "--out", str(tmp_path / "r.json")],
            "--version": ["--version"],
            "usage-error": ["train", "--data", str(d / "train.jsonl")],
            "train": ["train", "--data", str(d / "train.jsonl"), "--pool", str(d / "pool.jsonl"), "--k", "2",
                      "--epochs", "1", "--out", str(tmp_path / "m.rare"), *SMALL_EMBEDDER],
            "index": ["index", "--corpus", str(d / "corpus.jsonl"), "--model", str(pipeline / "model.rare"),
                      "--out", str(tmp_path / "i.rfi")],
            "search": ["search", "--index", str(pipeline / "index.rfi"), "--model", str(pipeline / "model.rare"),
                       "--queries", str(d / "queries.jsonl"), "--pool", str(d / "pool.jsonl"), "--task", "synth",
                       "--k", "2", "--out", str(tmp_path / "run.trec")],
        }

    @pytest.mark.parametrize("command", ["synth", "eval", "--version", "usage-error", "train", "index", "search"])
    def test_only_numeric_commands_load_numpy(self, pipeline, tmp_path, command):
        # numpy.ma comes with the first np.unique call in a process, and costs
        # every `rare train` about 13 ms; batch_grads does not need it.
        argv = self.command_argv(pipeline, tmp_path)[command]
        code = 1 if command == "usage-error" else 0
        loaded = NUMERIC_MODULES if command in ("train", "index", "search") else []
        result = run_fresh("-c", MODULES_CHILD, json.dumps(argv), json.dumps([*NUMERIC_MODULES, "numpy.ma"]))
        assert json.loads(result.stdout.splitlines()[-1]) == [code, loaded]

    def test_rebound_names_are_the_ones_dispatch_calls(self, tmp_path):
        # Every traced name resolves before any command runs, and a wrapper set
        # in its place stays there when a numeric command loads its names.
        steps = [argv for argv, *_ in manifest_steps(tmp_path)]
        result = run_fresh("-c", REBIND_CHILD, json.dumps(TRACED_NAMES), json.dumps(steps))
        resolved, codes, called = json.loads(result.stdout.splitlines()[-1])
        assert resolved == TRACED_NAMES
        assert codes == [0] * len(steps)
        assert called == sorted(TRACED_NAMES)

    @pytest.mark.parametrize("command", ["eval", "ablate", "bench"])
    def test_fresh_interpreter_writes_the_in_process_csv(self, pipeline, tmp_path, monkeypatch, command):
        # Run in a fresh interpreter, the command imports numpy's modules as it
        # is dispatched; in-process, pytest has loaded them all already.
        d = pipeline / "data"
        argv = {
            "eval": ["eval", "--run", str(pipeline / "run.trec"), "--qrels", str(d / "qrels.tsv"),
                     "--out", "r.json", "--buckets-out", "out.csv", "--baseline-run", str(pipeline / "run.trec"),
                     "--queries", str(d / "queries.jsonl"), "--pool", str(d / "pool.jsonl"), "--task", "synth",
                     "--model", str(pipeline / "model.rare")],
            "ablate": ["ablate", "--data", f"synth={d}", "--model", str(pipeline / "model.rare"),
                       "--cell", "inst:0:retrieved", "--cell", "inst+ic:2:random", "--out", "out.csv"],
            "bench": ["bench", "--data", str(d), "--dataset", "synth", "--model", str(pipeline / "model.rare"),
                      "--k", "2", "--reps", "1", "--out", "out.csv"],
        }[command]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        run_fresh("-m", "rare.cli", *argv, cwd=fresh)
        monkeypatch.chdir(here)
        assert dispatch(argv) == 0
        fresh_csv, here_csv = ((p / "out.csv").read_text(encoding="utf-8") for p in (fresh, here))
        if command == "bench":  # keep the columns that are not seconds
            fresh_csv, here_csv = ([row[:4] for row in csv.reader(io.StringIO(text))] for text in (fresh_csv, here_csv))
        assert fresh_csv == here_csv


def run_synth(argv: list[str], out: Path) -> None:
    result = subprocess.run(
        [*argv, "synth", "--out", str(out), *SMALL_SYNTH],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "corpus.jsonl").is_file()
    assert "wrote" in result.stdout


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared `rare` script resolves to `rare.cli.main`, and runs in
        a fresh interpreter the way pip's console-script wrapper runs it."""
        toml = tomllib or pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = toml.load(fh)["project"]["scripts"]["rare"]
        module_name, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module_name), attr, None) is main
        wrapper = f"import sys\nfrom {module_name} import {attr}\nsys.argv[0] = 'rare'\nsys.exit({attr}())"
        run_synth([sys.executable, "-c", wrapper], tmp_path / "d")

    @pytest.mark.skipif(shutil.which("rare") is None, reason="rare console script not installed")
    def test_script_on_path(self, tmp_path):
        run_synth([shutil.which("rare")], tmp_path / "d")
