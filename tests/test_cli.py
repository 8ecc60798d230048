"""Command-line surface: exit codes, the full pipeline, config overrides and
manifests. Commands run in-process through dispatch; the subprocess tests
cover the declared `rare` console script and `main()`."""

from __future__ import annotations

import csv
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rare.cli import dispatch, main
from rare.embedder import load, new_params, save

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBPROCESS_TIMEOUT_S = 120

SMALL_SYNTH = [
    "--clusters", "2", "--vocab-per-cluster", "12", "--shared-vocab", "10",
    "--docs", "4", "--queries", "2", "--ambiguity", "0.8", "--seed", "3",
]
SMALL_EMBEDDER = ["--hash-dim", "2048", "--dim", "16"]


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

    def test_malformed_data_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        model = tmp_path / "m.rare"
        code = dispatch(["index", "--corpus", str(bad), "--model", str(model),
                         "--out", str(tmp_path / "i.rfi")])
        assert code == 2

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
        # Rejected before training, in the flag and the --config form.
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        out = tmp_path / "m.rare"
        train = ["train", "--data", str(synth_dir / "train.jsonl"), "--pool", str(synth_dir / "pool.jsonl"),
                 "--k", "2", "--epochs", "2", "--batch", "8", "--out", str(out), *SMALL_EMBEDDER]
        for key in ("lr", "temp"):
            for value in ("nan", "inf"):
                for extra in ([f"--{key}", value], ["--config", f"{key}={value}"]):
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

    def test_bad_config_pair_is_usage_error(self, tmp_path, capsys):
        synth = ["synth", "--out", str(tmp_path / "d")]
        train = ["train", "--data", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "m.rare")]
        cases = [
            (synth, "nonsense"),
            (synth, "unknown-key=3"),
            (synth, "seed=abc"),
            (train, "temp=abc"),
            (train, "max_tokens=abc"),
            (train, "select=bogus"),
            (train, "func=x"),
        ]
        for argv, pair in cases:
            capsys.readouterr()
            assert dispatch([*argv, "--config", pair]) == 1, pair
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1, err
            assert "Traceback" not in err

    def test_bad_embedder_shape_is_usage_error(self, tmp_path, capsys):
        # With real training data these values used to reach new_params and
        # end in a ValueError traceback, or (--max-tokens -1) train and then
        # fail to save, or (--max-tokens 0) cut every text to nothing; now the
        # flag's type rejects them. The flag form prints argparse's one-line
        # error, then the usage.
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
            assert err.splitlines()[0] == f"rare train: argument --{flag}: invalid {type_name} value: '{value}'", err
            assert "Traceback" not in err

            assert dispatch([*train, "--config", f"{flag}={value}"]) == 1, (flag, value)
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1, err
            assert f"--config {flag}: invalid" in err
        assert not out.exists()


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


class TestConfigOverride:
    def test_config_overrides_flag_value(self, tmp_path):
        synth_dir = tmp_path / "data"
        assert dispatch(["synth", "--out", str(synth_dir), *SMALL_SYNTH]) == 0
        out = tmp_path / "m.rare"
        assert dispatch([
            "train", "--data", str(synth_dir / "train.jsonl"),
            "--pool", str(synth_dir / "pool.jsonl"),
            "--k", "2", "--epochs", "3", "--batch", "16",
            "--config", "epochs=1", "--out", str(out), *SMALL_EMBEDDER,
        ]) == 0
        log_lines = (tmp_path / "m.rare.log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 1

    def test_config_respects_types(self, tmp_path):
        out = tmp_path / "d"
        assert dispatch(["synth", "--out", str(out), *SMALL_SYNTH, "--config", "seed=9"]) == 0
        manifest = json.loads((out / "corpus.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["seeds"]["seed"] == 9
        model = tmp_path / "m.rare"
        assert dispatch([
            "train", "--data", str(out / "train.jsonl"), "--pool", str(tmp_path / "missing.jsonl"),
            "--k", "2", "--epochs", "1", "--batch", "16", "--out", str(model), *SMALL_EMBEDDER,
            "--config", "max_tokens=5", "--config", "temp=0.5", "--config", "brackets=true",
            "--config", f"pool={out / 'pool.jsonl'}",
        ]) == 0
        config = json.loads((tmp_path / "m.rare.manifest.json").read_text(encoding="utf-8"))["config"]
        assert (config["max_tokens"], config["temp"], config["brackets"]) == (5, 0.5, True)
        assert load(model).max_tokens == 5


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

    def test_bad_cell_is_usage_error(self, pipeline, tmp_path, capsys):
        code = dispatch([
            "ablate", "--data", f"synth={pipeline / 'data'}",
            "--model", str(pipeline / "model.rare"),
            "--cell", "inst+ic:x:retrieved",
            "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 1


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
            assert err.splitlines()[0] == f"rare {command}: argument --{flag}: invalid {type_name} value: '{value}'"
            assert "Traceback" not in err

            assert dispatch([*argv, "--config", f"{flag}={value}"]) == 1, (command, flag, value)
            err = capsys.readouterr().err
            assert err.strip().splitlines() == [f"--config {flag}: invalid {type_name} value {value!r}"], err
        ablate = [*commands["ablate"][:-2], "--out", str(out)]
        # --cell is required, so the --config form overrides a valid one.
        for form in (["--cell", "inst+ic:-1:retrieved"],
                     ["--cell", "inst:0:retrieved", "--config", "cell=inst+ic:-1:retrieved"]):
            capsys.readouterr()
            assert dispatch([*ablate, *form]) == 1, form
            err = capsys.readouterr().err
            assert err.strip().splitlines() == [
                "k must be a non-negative integer in --cell 'inst+ic:-1:retrieved'"
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
        commands = {
            "search": (["search", "--index", str(pipeline / "index.rfi"), "--queries", str(data_dir / "queries.jsonl"),
                        "--pool", str(data_dir / "pool.jsonl"), "--task", "synth", "--k", "2"], n_queries),
            "ablate": (["ablate", "--data", f"synth={data_dir}", "--cell", "inst:0:retrieved",
                        "--cell", "inst+ic:2:retrieved"], 2 * n_queries),
            "bench": (["bench", "--data", str(data_dir), "--k", "2", "--reps", "1"], 2 * n_queries),
        }
        for name, (argv, total) in commands.items():
            out = ["--out", str(tmp_path / f"{name}.out")]
            capsys.readouterr()
            assert dispatch([*argv, "--model", str(pipeline / "model.rare"), *out]) == 0, name
            assert "all zeros" not in capsys.readouterr().err
            assert dispatch([*argv, "--model", str(zero_model), *out]) == 0, name
            err = capsys.readouterr().err
            line = f"{total} of {total} query embeddings are all zeros; ranked by document id"
            assert err.splitlines() == [line], (name, err)


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
