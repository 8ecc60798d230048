"""Command line interface.

One executable, `rare`, with subcommands covering the whole loop:

    rare synth   --clusters 8 --ambiguity 0.8 --seed 7 --out data/synth/
    rare train   --data train.jsonl --pool pool.jsonl --out model.rare
    rare index   --corpus corpus.jsonl --model model.rare --out index.rfi
    rare search  --index index.rfi --model model.rare --queries queries.jsonl \
                 --pool pool.jsonl --format inst+ic --k 5 --out run.trec
    rare eval    --run run.trec --qrels qrels.tsv --out report.json
    rare ablate  --data data/synth --model model.rare --cell inst:0:retrieved \
                 --cell inst+ic:5:retrieved --out ablation.csv
    rare bench   --data data/synth --model model.rare --setting both --out latency.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. Every
produced artifact gets a sibling `<name>.manifest.json`. Flag values can also
be supplied as `--config key=value` pairs, which override parsed flags by
destination name. No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__, data, embedder, synth
from .bench import add_inc_factors, emit_csv, profile
from .errors import ConfigError, DataError, NumericError, RareError
from .evaluation import AblationCell, DatasetBundle, ablate, evaluate, score_at_top1, write_ablation_csv
from .manifest import build_manifest, write_manifest
from .prompt import FormatKind, PromptFormat
from .retrieve import (
    StageTimes,
    build_flat_index,
    load_flat_index,
    load_run,
    run_inference,
    save_index,
    write_run,
)
from .trainer import SelectionPolicy, TrainConfig, train

FORMAT_CHOICES = [kind.value for kind in FormatKind]
SELECT_CHOICES = [policy.value for policy in SelectionPolicy]


class UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {p}")
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
    """An argparse type; its ValueError becomes a usage error naming the flag."""
    value = int(raw)
    if value < 1:
        raise ValueError(raw)
    return value


def ngram_orders(raw: str) -> tuple[int, ...]:
    """Comma-separated positive n-gram orders, at least one."""
    orders = tuple(positive_int(n) for n in raw.split(",") if n.strip())
    if not orders:
        raise ValueError(raw)
    return orders


def _add_embedder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hash-dim", type=positive_int, default=embedder.DEFAULT_HASH_DIM)
    parser.add_argument("--dim", type=positive_int, default=embedder.DEFAULT_EMBED_DIM)
    parser.add_argument("--ngrams", type=ngram_orders, default="1,2", help="comma-separated n-gram orders")
    parser.add_argument("--max-tokens", type=positive_int, default=None)


def _apply_config_pairs(args: argparse.Namespace, command: argparse.ArgumentParser) -> None:
    """Apply --config key=value overrides onto parsed flags.

    Each value is converted by its flag's type and checked against its
    choices, exactly as the flag itself would be.
    """
    actions = {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}
    for pair in args.config:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise UsageError(f"--config expects key=value, got {pair!r}")
        action = actions.get(key.strip().replace("-", "_"))
        if action is None:
            raise UsageError(f"--config refers to unknown option {key!r}")
        if action.nargs == 0:
            value = raw.strip().lower() in ("1", "true", "yes", "on")
        else:
            convert = action.type or str
            try:
                value = convert(raw)
            except ValueError:
                raise UsageError(f"--config {key}: invalid {convert.__name__} value {raw!r}") from None
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(str, action.choices))
                raise UsageError(f"--config {key}: {raw!r} is not one of {choices}")
            if isinstance(action, argparse._AppendAction):
                value = [value]
        setattr(args, action.dest, value)


def _manifest_config(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _report_zero_queries(zero: int, total: int) -> None:
    if zero:
        print(f"{zero} of {total} query embeddings are all zeros; ranked by document id", file=sys.stderr)


def _emit_manifest(argv: list[str], args: argparse.Namespace, artifact: Path, inputs: dict[str, Path], seeds: dict) -> None:
    manifest = build_manifest(["rare", *argv], _manifest_config(args), seeds, inputs)
    write_manifest(manifest, artifact)


def _cmd_synth(argv: list[str], args: argparse.Namespace) -> int:
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.write_corpus(bench_data.corpus, out / "corpus.jsonl")
    data.write_queries(bench_data.queries, out / "queries.jsonl")
    data.write_qrels(bench_data.qrels, out / "qrels.tsv")
    data.write_train(bench_data.train_set, out / "train.jsonl")
    data.write_pool(bench_data.pool, out / "pool.jsonl")
    _emit_manifest(argv, args, out / "corpus.jsonl", {}, {"seed": args.seed})
    print(
        f"wrote {len(bench_data.corpus)} docs, {len(bench_data.queries)} queries, "
        f"{len(bench_data.train_set)} training triples to {out}"
    )
    return 0


def _parse_pools(
    pool_args: list[str], train_set: list[data.TrainExample]
) -> tuple[dict[str, data.ExamplePool], dict[str, Path]]:
    """Load each `--pool PATH` or `--pool TASK=PATH`; also returns their manifest inputs."""
    task_ids = sorted({ex.task_id for ex in train_set})
    pools: dict[str, data.ExamplePool] = {}
    inputs: dict[str, Path] = {}
    for entry in pool_args:
        task, sep, path = entry.partition("=")
        if sep and not Path(task).exists():
            pools[task] = data.load_example_pool(_require_file(path, "example pool"), task)
            inputs[f"pool:{task}"] = Path(path)
        else:
            if len(task_ids) != 1:
                raise UsageError("train set has multiple tasks; use --pool TASK=PATH for each")
            pools[task_ids[0]] = data.load_example_pool(_require_file(entry, "example pool"), task_ids[0])
            inputs["pool"] = Path(entry)
    return pools, inputs


def _cmd_train(argv: list[str], args: argparse.Namespace) -> int:
    train_path = _require_file(args.data, "training data")
    train_set = data.load_train(train_path)
    pools, pool_inputs = _parse_pools(args.pool or [], train_set)
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
    out = Path(args.out)
    embedder.save(params, out)
    log_path = Path(args.log) if args.log else out.with_name(out.name + ".log.jsonl")
    with log_path.open("w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    inputs = {"train": train_path, **pool_inputs}
    _emit_manifest(argv, args, out, inputs, {"seed": args.seed, "shuffle_seed": args.shuffle_seed})
    final = history[-1]["mean_loss"] if history else float("nan")
    print(f"trained {args.epochs} epochs, final mean loss {final:.6f}, model at {out}")
    return 0


def _cmd_index(argv: list[str], args: argparse.Namespace) -> int:
    corpus = data.load_corpus(_require_file(args.corpus, "corpus"))
    params = embedder.load(_require_file(args.model, "model"))
    index = build_flat_index(corpus, params)
    save_index(index, args.out)
    _emit_manifest(
        argv, args, Path(args.out),
        {"corpus": Path(args.corpus), "model": Path(args.model)},
        {},
    )
    print(f"indexed {len(index)} documents into {args.out}")
    return 0


def _cmd_search(argv: list[str], args: argparse.Namespace) -> int:
    index = load_flat_index(_require_file(args.index, "index"))
    params = embedder.load(_require_file(args.model, "model"))
    queries = data.load_queries(_require_file(args.queries, "queries"))
    fmt = _format_from_args(args)
    pool = None
    if fmt.uses_examples(args.k):
        if not args.pool:
            raise UsageError(f"format {fmt.kind.value} needs --pool")
        pool = data.load_example_pool(_require_file(args.pool, "example pool"), args.task)
    times = StageTimes()
    run = run_inference(
        queries, args.instruction, pool, index, params,
        fmt, args.k, args.topk,
        selection=SelectionPolicy(args.select), seed=args.seed, times=times,
    )
    _report_zero_queries(times.zero_queries, times.queries)
    write_run(run, args.out, tag=args.tag)
    inputs = {"index": Path(args.index), "model": Path(args.model), "queries": Path(args.queries)}
    if args.pool:
        inputs["pool"] = Path(args.pool)
    _emit_manifest(argv, args, Path(args.out), inputs, {"seed": args.seed, "shuffle_seed": args.shuffle_seed})
    print(f"searched {len(queries)} queries, run written to {args.out}")
    return 0


def _cmd_eval(argv: list[str], args: argparse.Namespace) -> int:
    run_path = _require_file(args.run, "run file")
    qrels_path = _require_file(args.qrels, "qrels file")
    run = load_run(run_path)
    qrels = data.load_qrels(qrels_path)
    fingerprint = hashlib.sha256(
        json.dumps(
            {"k": args.k, "run": hashlib.sha256(run_path.read_bytes()).hexdigest(),
             "qrels": hashlib.sha256(qrels_path.read_bytes()).hexdigest()},
            sort_keys=True,
        ).encode()
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
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    inputs = {"run": run_path, "qrels": qrels_path}

    if args.buckets_out:
        for flag in ("baseline_run", "queries", "pool", "model"):
            if not getattr(args, flag):
                raise UsageError(f"--buckets-out needs --{flag.replace('_', '-')}")
        baseline = evaluate(load_run(_require_file(args.baseline_run, "baseline run")), qrels, args.k)
        queries = data.load_queries(_require_file(args.queries, "queries"))
        pool = data.load_example_pool(_require_file(args.pool, "example pool"), args.task)
        params = embedder.load(_require_file(args.model, "model"))
        buckets = score_at_top1(queries, pool, params, report, baseline, args.bin_width)
        with Path(args.buckets_out).open("w", encoding="utf-8", newline="") as fh:
            fh.write("Lower,Upper,N,MeanNdcgDelta\n")
            for b in buckets:
                delta = "" if b.mean_ndcg_delta is None else repr(b.mean_ndcg_delta)
                fh.write(f"{b.lower!r},{b.upper!r},{b.n},{delta}\n")
        inputs["baseline_run"] = Path(args.baseline_run)
    _emit_manifest(argv, args, Path(args.out), inputs, {})
    mean = "n/a" if report.mean is None else f"{report.mean:.4f}"
    print(f"nDCG@{args.k} = {mean} over {report.n_evaluated} queries "
          f"({len(report.zero_relevant)} had no relevant documents)")
    return 0


def _load_bundle(entry: str, instruction: str) -> DatasetBundle:
    name, sep, path = entry.partition("=")
    root = Path(path if sep else entry)
    if not sep:
        name = root.name
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    corpus = data.load_corpus(_require_file(root / "corpus.jsonl", "corpus"))
    queries = data.load_queries(_require_file(root / "queries.jsonl", "queries"))
    qrels = data.load_qrels(_require_file(root / "qrels.tsv", "qrels"))
    pool_path = root / "pool.jsonl"
    pool = data.load_example_pool(pool_path, name) if pool_path.is_file() else None
    return DatasetBundle(name=name, corpus=corpus, queries=queries, qrels=qrels,
                         pool=pool, instruction=instruction)


def _parse_cell(raw: str) -> AblationCell:
    parts = raw.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"--cell expects format:k:selection[:brackets], got {raw!r}")
    fmt_name, k_raw, selection = parts[:3]
    if fmt_name not in FORMAT_CHOICES:
        raise UsageError(f"unknown format {fmt_name!r} in --cell {raw!r}")
    if selection not in SELECT_CHOICES:
        raise UsageError(f"unknown selection {selection!r} in --cell {raw!r}")
    try:
        k = int(k_raw)
    except ValueError:
        raise UsageError(f"k must be an integer in --cell {raw!r}") from None
    brackets = len(parts) == 4 and parts[3] == "brackets"
    return AblationCell(
        fmt=PromptFormat(kind=FormatKind(fmt_name), bracket_queries=brackets),
        k=k,
        selection=SelectionPolicy(selection),
    )


def _cmd_ablate(argv: list[str], args: argparse.Namespace) -> int:
    params = embedder.load(_require_file(args.model, "model"))
    bundles = [_load_bundle(entry, args.instruction) for entry in args.data]
    cells = [_parse_cell(raw) for raw in args.cell]
    times = StageTimes()
    table = ablate(cells, bundles, params, top_k=args.topk, ndcg_k=args.ndcg_k, seed=args.seed, times=times)
    _report_zero_queries(times.zero_queries, times.queries)
    write_ablation_csv(table, args.out)
    inputs = {"model": Path(args.model)}
    for bundle, entry in zip(bundles, args.data):
        _, sep, path = entry.partition("=")
        root = Path(path if sep else entry)
        inputs[f"{bundle.name}:corpus"] = root / "corpus.jsonl"
    _emit_manifest(argv, args, Path(args.out), inputs, {"seed": args.seed})
    print(f"wrote {len(cells)} x {len(bundles)} ablation table to {args.out}")
    return 0


def _cmd_bench(argv: list[str], args: argparse.Namespace) -> int:
    params = embedder.load(_require_file(args.model, "model"))
    bundle = _load_bundle(f"{args.dataset}={args.data}" if args.dataset else args.data, args.instruction)
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
    emit_csv(reports, args.out)
    _emit_manifest(argv, args, Path(args.out), {"model": Path(args.model)}, {})
    for r in reports:
        inc = f", inc {r.inc_factor:.2f}x" if r.inc_factor is not None else ""
        print(f"{r.dataset} [{r.setting}] total {r.total_s:.4f}s "
              f"(nn {r.nn_s:.4f} query {r.query_s:.4f} search {r.search_s:.4f}){inc}")
    return 0


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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--temp", type=float, default=0.01)
    p.add_argument("--mix", type=float, default=0.7, help="probability of in-context rendering")
    p.add_argument("--select", choices=SELECT_CHOICES, default="retrieved")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.003)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--select", choices=SELECT_CHOICES, default="retrieved")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", default="rare")
    p.add_argument("--out", required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="score a run file with nDCG@K")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
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
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--ndcg-k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("bench", help="profile per-stage inference latency")
    p.add_argument("--data", required=True, help="dataset dir with corpus/queries/pool files")
    p.add_argument("--dataset", default=None, help="dataset name for the report")
    p.add_argument("--model", required=True)
    p.add_argument("--setting", choices=["inst", "inst+ic", "both"], default="both")
    p.add_argument("--instruction", default="")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    for sp in sub.choices.values():
        sp.add_argument("--config", action="append", default=[], metavar="KEY=VALUE",
                        help="override any flag of this subcommand by destination name")
    parser.commands = sub.choices
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        if not argv:
            raise UsageError(parser.format_usage())
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        _apply_config_pairs(args, parser.commands[args.command])
        return args.func(argv, args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
