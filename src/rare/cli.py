"""Command line interface.

One executable, `rare`, with subcommands covering the whole loop:

    rare synth   --clusters 8 --ambiguity 0.8 --seed 7 --out data/synth/
    rare train   --data train.jsonl --pool pool.jsonl --out model.rare
    rare index   --corpus corpus.jsonl --model model.rare --out index.rfi
    rare search  --index index.rfi --model model.rare --queries queries.jsonl \\
                 --pool pool.jsonl --format inst+ic --k 5 --out run.trec
    rare eval    --run run.trec --qrels qrels.tsv --out report.json
    rare ablate  --data data/synth --model model.rare --cell inst:0:retrieved \\
                 --cell inst+ic:5:retrieved --out ablation.csv
    rare bench   --data data/synth --model model.rare --setting both --out latency.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. Every
file a successful command writes (synth's five, the model and its log, the
index, run, report, buckets CSV, ablation and latency CSVs) gets a sibling
`<name>.manifest.json` with the command line, the parsed options, the options
named `*seed`, and the sha256 of each file read, keyed `train`, `pool` or
`pool:TASK`, `corpus`, `model`, `index`, `queries`, `run`, `qrels`,
`baseline_run`, or `NAME:corpus|queries|qrels|pool` per dataset directory.
Each digest is taken once, when the command takes the file and before it reads
it; `eval`'s fingerprint and `search`'s check that the index names its model
use the same digests. Each output is written to `NAME.PID.tmp` beside it and
renamed into place only on success. No environment variables are consulted.

`synth`, and `eval` without `--buckets-out`, run without importing numpy. The
other commands load numpy and the names in `_NUMERIC` when they are dispatched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import logging
import os
import sys
from pathlib import Path

from . import DEFAULT_EMBED_DIM, DEFAULT_HASH_DIM, DEFAULT_NGRAM_ORDERS, __version__, data, synth
from .data import load_run, write_run
from .errors import ConfigError, DataError, NumericError, RareError
from .evaluation import AblationCell, DatasetBundle, ablate, evaluate, score_at_top1, write_ablation_csv
from .manifest import build_manifest, digest_file, manifest_path, write_manifest
from .prompt import FormatKind, PromptFormat, SelectionPolicy

# The names the numeric commands' handlers call that need numpy, by the
# module each comes from (a module itself where the two are equal).
_NUMERIC = {
    "embedder": "embedder",
    "train": "trainer", "TrainConfig": "trainer",
    "IndexWriter": "retrieve", "StageTimes": "retrieve", "build_flat_index": "retrieve",
    "load_flat_index": "retrieve", "run_inference": "retrieve", "save_index": "retrieve",
    "add_inc_factors": "bench", "emit_csv": "bench", "profile": "bench",
}


def __getattr__(name: str):
    """Import a name of `_NUMERIC` on first use (PEP 562) and keep it as a
    global. A global already bound, such as a wrapper set in its place,
    stays as it is."""
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_NUMERIC[name]}")
    return globals().setdefault(name, module if name == _NUMERIC[name] else getattr(module, name))


def _numeric_guard(args: argparse.Namespace) -> contextlib.AbstractContextManager:
    """What a command runs under. One that computes with numpy (all but
    `synth`, and `eval` without `--buckets-out`) first loads the names of
    `_NUMERIC`. Overflow and NaN on the way to a numeric failure are each
    caught by an explicit check, which prints one line, so numpy need not warn."""
    if args.command == "synth" or (args.command == "eval" and not args.buckets_out):
        return contextlib.nullcontext()
    for name in _NUMERIC:
        __getattr__(name)
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore")


FORMAT_CHOICES = [kind.value for kind in FormatKind]
SELECT_CHOICES = [policy.value for policy in SelectionPolicy]


class UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(f"{self.prog}: {message}")


def _require_file(path: str | Path, what: str, inputs: dict[str, str], key: str) -> Path:
    """The existing file at `path`, whose sha256 is recorded in `inputs` under
    `key` before the command reads it or writes anything."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {p}")
    inputs[key] = digest_file(p)
    return p


def _format_from_args(args: argparse.Namespace) -> PromptFormat:
    return PromptFormat(
        kind=FormatKind(args.format),
        bracket_queries=args.brackets,
        shuffle_seed=args.shuffle_seed,
    )


def _add_format_flags(parser: argparse.ArgumentParser, default: str = "inst+ic") -> None:
    parser.add_argument("--format", choices=FORMAT_CHOICES, default=default)
    parser.add_argument("--brackets", action="store_true", help="render query payloads as [query]")
    parser.add_argument("--shuffle-seed", type=int, default=0)


def positive_int(raw: str) -> int:
    """An argparse type for counts and sizes: 1 <= value < 2**64, as the model
    header stores them. Its ValueError becomes a usage error naming the flag."""
    value = int(raw)
    if not 1 <= value < 2**64:
        raise ValueError(raw)
    return value


def nonneg_int(raw: str) -> int:
    """An argparse type for counts where 0 means none, such as the example count."""
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def model_seed(raw: str) -> int:
    """An argparse type for train's seed, which seeds numpy's generator and is
    stored in the model header as an int64: 0 <= seed < 2**63."""
    value = int(raw)
    if not 0 <= value < 2**63:
        raise ValueError(raw)
    return value


def run_tag(raw: str) -> str:
    """An argparse type for a run tag, the sixth field of every run line: not empty, no whitespace."""
    if raw.split() != [raw]:
        raise ValueError(raw)
    return raw


def ngram_orders(raw: str) -> tuple[int, ...]:
    """Comma-separated n-gram orders, at least one, each a u32 in the model header: 1 <= order < 2**32."""
    orders = tuple(positive_int(n) for n in raw.split(",") if n.strip())
    if not orders or max(orders) >= 2**32:
        raise ValueError(raw)
    return orders


def _add_embedder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hash-dim", type=positive_int, default=DEFAULT_HASH_DIM)
    parser.add_argument("--dim", type=positive_int, default=DEFAULT_EMBED_DIM)
    parser.add_argument("--ngrams", type=ngram_orders, default=DEFAULT_NGRAM_ORDERS,
                        help="comma-separated n-gram orders")
    parser.add_argument("--max-tokens", type=positive_int, default=None)


def _report_zero_queries(zero: int, total: int) -> None:
    if zero:
        print(f"{zero} of {total} query embeddings are all zeros; ranked by document id", file=sys.stderr)


def _cmd_synth(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    spec = synth.SynthSpec(
        n_clusters=args.clusters,
        vocab_per_cluster=args.vocab_per_cluster,
        shared_vocab=args.shared_vocab,
        docs_per_cluster=args.docs,
        queries_per_cluster=args.queries,
        query_ambiguity=args.ambiguity,
        seed=args.seed,
    )
    bench_data = synth.generate(spec)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    writers = (data.write_corpus, data.write_queries, data.write_qrels, data.write_train, data.write_pool)
    values = (bench_data.corpus, bench_data.queries, bench_data.qrels, bench_data.train_set, bench_data.pool)
    for write, value, path in zip(writers, values, out.values()):
        write(value, path)
    print(f"wrote {len(bench_data.corpus)} docs, {len(bench_data.queries)} queries, "
          f"{len(bench_data.train_set)} training triples to {Path(args.out)}")


def _named_path(entry: str, default: str | None) -> tuple[str | None, str]:
    """The NAME and PATH of a `--pool` or `--data` entry. An entry that names
    an existing path, or holds no `=`, is that path named `default`; any other
    is NAME=PATH, split at its first `=`."""
    name, sep, path = entry.partition("=")
    return (name, path) if sep and not os.path.exists(entry) else (default, entry)


def _parse_pools(
    pool_args: list[str], train_set: list[data.TrainExample], inputs: dict[str, str]
) -> dict[str, data.ExamplePool]:
    """Load each `--pool PATH` or `--pool TASK=PATH`; a task may have only one pool."""
    task_ids = sorted({ex.task_id for ex in train_set})
    pools: dict[str, data.ExamplePool] = {}
    for entry in pool_args:
        task, path = _named_path(entry, None)
        key = f"pool:{task}"
        if task is None:
            if len(task_ids) != 1:
                raise UsageError("train set has multiple tasks; use --pool TASK=PATH for each")
            task, key = task_ids[0], "pool"
        if task in pools:
            raise UsageError(f"--pool names task {task!r} more than once")
        pools[task] = data.load_example_pool(_require_file(path, "example pool", inputs, key), task)
    return pools


def _cmd_train(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    train_set = data.load_train(_require_file(args.data, "training data", inputs, "train"))
    pools = _parse_pools(args.pool or [], train_set, inputs)
    params = embedder.new_params(
        hash_dim=args.hash_dim,
        embed_dim=args.dim,
        ngram_orders=args.ngrams,
        seed=args.seed,
        max_tokens=args.max_tokens,
    )
    config = TrainConfig(
        k=args.k,
        temperature=args.temp,
        batch_size=args.batch,
        epochs=args.epochs,
        learning_rate=args.lr,
        ic_mixture=args.mix,
        selection=SelectionPolicy(args.select),
        format=_format_from_args(args),
        seed=args.seed,
        use_hard_negative=not args.no_hard_negative,
        include_batch_hard_negatives=args.include_batch_hard_negatives,
    )
    params, history = train(train_set, pools, params, config)
    embedder.save(params, out["out"])
    data._write_jsonl(out["log"], history)
    final = history[-1]["mean_loss"] if history else float("nan")
    print(f"trained {args.epochs} epochs, final mean loss {final:.6f}, model at {Path(args.out)}")


def _cmd_index(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    corpus = data.load_corpus(_require_file(args.corpus, "corpus", inputs, "corpus"))
    params = embedder.load(_require_file(args.model, "model", inputs, "model"))
    index = build_flat_index(corpus, params, IndexWriter(out["out"], inputs["model"]))  # rows go to disk as made
    save_index(index, out["out"], inputs["model"])
    print(f"indexed {len(index)} documents into {args.out}")


def _cmd_search(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    index = load_flat_index(_require_file(args.index, "index", inputs, "index"))
    params = embedder.load(_require_file(args.model, "model", inputs, "model"))
    if index.model != inputs["model"]:
        raise DataError(f"{args.index} was built with model {index.model[:8]}, not {inputs['model'][:8]} "
                        f"({args.model}); rebuild it with `rare index`")
    queries = data.load_queries(_require_file(args.queries, "queries", inputs, "queries"))
    fmt = _format_from_args(args)
    pool = None
    if fmt.uses_examples(args.k):
        if not args.pool:
            raise UsageError(f"format {fmt.kind.value} needs --pool")
        pool = data.load_example_pool(_require_file(args.pool, "example pool", inputs, "pool"), args.task)
    times = StageTimes()
    run = run_inference(
        queries, args.instruction, pool, index, params,
        fmt, args.k, args.topk,
        selection=SelectionPolicy(args.select), seed=args.seed, times=times,
    )
    _report_zero_queries(times.zero_queries, times.queries)
    write_run(run, out["out"], tag=args.tag)
    print(f"searched {len(queries)} queries, run written to {args.out}")


def _cmd_eval(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    if args.buckets_out:
        for flag in ("baseline_run", "queries", "pool", "model"):
            if not getattr(args, flag):
                raise UsageError(f"--buckets-out needs --{flag.replace('_', '-')}")
    run = load_run(_require_file(args.run, "run file", inputs, "run"))
    qrels = data.load_qrels(_require_file(args.qrels, "qrels file", inputs, "qrels"))
    fingerprint = hashlib.sha256(
        json.dumps({"k": args.k, "run": inputs["run"], "qrels": inputs["qrels"]}, sort_keys=True).encode()
    ).hexdigest()
    report = evaluate(run, qrels, args.k, dataset=args.dataset, fingerprint=fingerprint)
    payload = {
        "dataset": report.dataset,
        "k": report.k,
        "mean_ndcg": report.mean,
        "n_evaluated": report.n_evaluated,
        "n_zero_relevant": len(report.zero_relevant),
        "zero_relevant": sorted(report.zero_relevant),
        "fingerprint": report.fingerprint,
        "per_query": report.per_query,
    }

    if args.buckets_out:
        baseline_run = load_run(_require_file(args.baseline_run, "baseline run", inputs, "baseline_run"))
        baseline = evaluate(baseline_run, qrels, args.k)
        queries = data.load_queries(_require_file(args.queries, "queries", inputs, "queries"))
        pool = data.load_example_pool(_require_file(args.pool, "example pool", inputs, "pool"), args.task)
        params = embedder.load(_require_file(args.model, "model", inputs, "model"))
        buckets = score_at_top1(queries, pool, params, report, baseline, args.bin_width)
        with out["buckets_out"].open("w", encoding="utf-8", newline="") as fh:
            fh.write("Lower,Upper,N,MeanNdcgDelta\n")
            for b in buckets:
                delta = "" if b.mean_ndcg_delta is None else repr(b.mean_ndcg_delta)
                fh.write(f"{b.lower!r},{b.upper!r},{b.n},{delta}\n")
    out["out"].write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    mean = "n/a" if report.mean is None else f"{report.mean:.4f}"
    print(f"nDCG@{args.k} = {mean} over {report.n_evaluated} queries "
          f"({len(report.zero_relevant)} had no relevant documents)")


def _dataset_entry(entry: str) -> tuple[str, Path]:
    """The NAME and directory of a `--data` entry: NAME=dir, or a dir named by its last component."""
    name, path = _named_path(entry, Path(entry).name)
    if not name:
        raise UsageError(f"--data {entry!r} names no dataset; give it as NAME=dir")
    return name, Path(path)


def _load_bundle(name: str, root: Path, instruction: str, inputs: dict[str, str]) -> DatasetBundle:
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    corpus = data.load_corpus(_require_file(root / "corpus.jsonl", "corpus", inputs, f"{name}:corpus"))
    queries = data.load_queries(_require_file(root / "queries.jsonl", "queries", inputs, f"{name}:queries"))
    qrels = data.load_qrels(_require_file(root / "qrels.tsv", "qrels", inputs, f"{name}:qrels"))
    pool_path = root / "pool.jsonl"
    pool = None
    if pool_path.is_file():
        pool = data.load_example_pool(_require_file(pool_path, "example pool", inputs, f"{name}:pool"), name)
    return DatasetBundle(name=name, corpus=corpus, queries=queries, qrels=qrels,
                         pool=pool, instruction=instruction)


def _parse_cell(raw: str) -> AblationCell:
    parts = raw.split(":")
    if len(parts) < 3 or parts[3:] not in ([], ["brackets"]):
        raise UsageError(f"--cell expects format:k:selection[:brackets], got {raw!r}")
    fmt_name, k_raw, selection = parts[:3]
    if fmt_name not in FORMAT_CHOICES:
        raise UsageError(f"unknown format {fmt_name!r} in --cell {raw!r}")
    if selection not in SELECT_CHOICES:
        raise UsageError(f"unknown selection {selection!r} in --cell {raw!r}")
    try:
        k = nonneg_int(k_raw)
    except ValueError:
        raise UsageError(f"k must be a non-negative integer in --cell {raw!r}") from None
    return AblationCell(
        fmt=PromptFormat(kind=FormatKind(fmt_name), bracket_queries=len(parts) == 4),
        k=k,
        selection=SelectionPolicy(selection),
    )


def _cmd_ablate(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    entries = [_dataset_entry(entry) for entry in args.data]
    names = [name for name, _ in entries]
    for name in names:
        if names.count(name) > 1:
            raise UsageError(f"--data names dataset {name!r} more than once; give each a distinct NAME=dir")
    params = embedder.load(_require_file(args.model, "model", inputs, "model"))
    bundles = [_load_bundle(name, root, args.instruction, inputs) for name, root in entries]
    cells = [_parse_cell(raw) for raw in args.cell]
    times = StageTimes()
    table = ablate(cells, bundles, params, top_k=args.topk, ndcg_k=args.ndcg_k, seed=args.seed, times=times)
    _report_zero_queries(times.zero_queries, times.queries)
    write_ablation_csv(table, out["out"])
    print(f"wrote {len(cells)} x {len(bundles)} ablation table to {args.out}")


def _cmd_bench(args: argparse.Namespace, inputs: dict[str, str], out: dict[str, Path]) -> None:
    params = embedder.load(_require_file(args.model, "model", inputs, "model"))
    name, root = (args.dataset, Path(args.data)) if args.dataset else _dataset_entry(args.data)
    bundle = _load_bundle(name, root, args.instruction, inputs)
    index = build_flat_index(bundle.corpus, params)
    settings = {
        "inst": [FormatKind.INST],
        "inst+ic": [FormatKind.INST_IC],
        "both": [FormatKind.INST, FormatKind.INST_IC],
    }[args.setting]
    reports = [
        profile(
            bundle.name, bundle.queries, bundle.instruction, bundle.pool,
            index, params, setting, k=args.k, top_k=args.topk, repetitions=args.reps,
        )
        for setting in settings
    ]
    _report_zero_queries(sum(r.zero_queries for r in reports), len(bundle.queries) * len(reports))
    add_inc_factors(reports)
    emit_csv(reports, out["out"])
    for r in reports:
        inc = f", inc {r.inc_factor:.2f}x" if r.inc_factor is not None else ""
        print(f"{r.dataset} [{r.setting}] total {r.total_s:.4f}s "
              f"(nn {r.nn_s:.4f} query {r.query_s:.4f} search {r.search_s:.4f}){inc}")


def build_parser() -> _Parser:
    parser = _Parser(prog="rare", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rare {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate the synthetic clustered benchmark")
    p.add_argument("--clusters", type=int, default=synth.SynthSpec.n_clusters)
    p.add_argument("--vocab-per-cluster", type=int, default=synth.SynthSpec.vocab_per_cluster)
    p.add_argument("--shared-vocab", type=int, default=synth.SynthSpec.shared_vocab)
    p.add_argument("--docs", type=int, default=synth.SynthSpec.docs_per_cluster, help="documents per cluster")
    p.add_argument("--queries", type=int, default=synth.SynthSpec.queries_per_cluster, help="evaluation queries per cluster")
    p.add_argument("--ambiguity", type=float, default=synth.SynthSpec.query_ambiguity)
    p.add_argument("--seed", type=int, default=synth.SynthSpec.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="contrastively train the embedder projection")
    p.add_argument("--data", required=True, help="train.jsonl")
    p.add_argument("--pool", action="append", help="pool.jsonl, or TASK=pool.jsonl, repeatable")
    p.add_argument("--k", type=nonneg_int, default=5)
    p.add_argument("--temp", type=float, default=0.01)
    p.add_argument("--mix", type=float, default=0.7, help="probability of in-context rendering")
    p.add_argument("--select", choices=SELECT_CHOICES, default="retrieved")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.003)
    p.add_argument("--seed", type=model_seed, default=0)
    p.add_argument("--no-hard-negative", action="store_true")
    p.add_argument("--include-batch-hard-negatives", action="store_true")
    p.add_argument("--log", default=None, help="training log path (default: <out>.log.jsonl)")
    p.add_argument("--out", required=True, help="model output path")
    _add_format_flags(p)
    _add_embedder_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("index", help="embed a corpus into a flat index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="run augmented queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--pool", default=None)
    p.add_argument("--task", default="default", help="task id for the example pool")
    p.add_argument("--instruction", default="")
    p.add_argument("--k", type=nonneg_int, default=5)
    p.add_argument("--topk", type=positive_int, default=10)
    p.add_argument("--select", choices=SELECT_CHOICES, default="retrieved")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", type=run_tag, default="rare")
    p.add_argument("--out", required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="score a run file with nDCG@K")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=positive_int, default=10)
    p.add_argument("--dataset", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--buckets-out", default=None, help="also write Score@Top-1 bucket deltas")
    p.add_argument("--baseline-run", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--pool", default=None)
    p.add_argument("--task", default="default")
    p.add_argument("--model", default=None)
    p.add_argument("--bin-width", type=float, default=0.1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="evaluate a grid of settings across datasets")
    p.add_argument("--data", action="append", required=True, help="dataset dir, or NAME=dir, repeatable")
    p.add_argument("--model", required=True)
    p.add_argument("--cell", action="append", required=True, help="format:k:selection[:brackets], repeatable")
    p.add_argument("--instruction", default="")
    p.add_argument("--topk", type=positive_int, default=10)
    p.add_argument("--ndcg-k", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("bench", help="profile per-stage inference latency")
    p.add_argument("--data", required=True, help="dataset dir with corpus/queries/pool files")
    p.add_argument("--dataset", default=None, help="dataset name for the report")
    p.add_argument("--model", required=True)
    p.add_argument("--setting", choices=["inst", "inst+ic", "both"], default="both")
    p.add_argument("--instruction", default="")
    p.add_argument("--k", type=nonneg_int, default=5)
    p.add_argument("--topk", type=positive_int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def _outputs(args: argparse.Namespace) -> dict[str, Path]:
    """Every file the command writes, keyed by the option that names it (synth's by file name, in the order it
    writes them). Refused: a directory, and two outputs, or an output and another's manifest, that are one file."""
    outputs = {"out": Path(args.out)}
    if args.command == "synth":
        names = ("corpus.jsonl", "queries.jsonl", "qrels.tsv", "train.jsonl", "pool.jsonl")
        outputs = {name: Path(args.out, name) for name in names}
    elif args.command == "train":
        outputs["log"] = Path(args.log or f"{outputs['out']}.log.jsonl")
    elif args.command == "eval" and args.buckets_out:
        outputs["buckets_out"] = Path(args.buckets_out)
    seen: dict[str, str] = {}
    for key, path in outputs.items():
        if not path.name or path.is_dir():
            raise UsageError(f"output {str(path)!r} is a directory, not a file")
        flag = f"--{key.replace('_', '-')}"
        for what, file in ((flag, path), (f"the manifest of {flag}", manifest_path(path))):
            if os.path.realpath(file) in seen:  # realpath, unlike Path.resolve, takes a symlink loop
                raise UsageError(f"{what} and {seen[os.path.realpath(file)]}")
            seen[os.path.realpath(file)] = f"{what} name the same file: {file}"
    return outputs


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    staged: dict[str, Path] = {}  # each temporary file the handler writes -> the output it becomes
    try:
        for position, arg in enumerate(argv, start=1):
            if any("\ud800" <= c <= "\udfff" for c in arg):  # how a byte that is not UTF-8 arrives
                raise UsageError(f"argument {position} is not valid UTF-8: {arg!r}")
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        outputs = _outputs(args)
        temporary = {key: path.with_name(f"{path.name}.{os.getpid()}.tmp") for key, path in outputs.items()}
        staged = {str(temporary[key]): path for key, path in outputs.items()}
        inputs: dict[str, str] = {}
        with _numeric_guard(args):
            args.func(args, inputs, temporary)
        options = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
        seeds = {key: value for key, value in options.items() if key.endswith("seed")}
        manifest = build_manifest(["rare", *argv], options, seeds, inputs)
        for tmp, path in staged.items():
            os.replace(tmp, path)
            write_manifest(manifest, path)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (RareError, OSError) as exc:
        if isinstance(exc, OSError) and str(exc.filename) in staged:  # name the output, not its temporary file
            exc = OSError(exc.errno, exc.strerror, str(staged[str(exc.filename)]))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for tmp in filter(os.path.lexists, staged):
            os.unlink(tmp)


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
