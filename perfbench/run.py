#!/usr/bin/env python3
"""Benchmark of the `rare` commands: end-to-end and per-layer metrics per workload.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-S --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --paper-table --seed 7

A run prepares its inputs (`rare synth` with the seed, plus an untrained
model on the L workloads) several times, then repeats the workload's timed
command sequence for about `--seconds` seconds. On pipeline-S each `train` is
followed by several rounds of `index`, `search` and `eval`, so that the short
serving commands are sampled as often as the run allows. Every command is a fresh
`python -m rare.cli` process with src/ on PYTHONPATH, one BLAS thread and a
fixed PYTHONHASHSEED, one at a time: a closed loop with one client. Every
output is checked: exit codes, run-file shape, byte-identical outputs across
iterations, the reference recorded for the seed in references.json, and an
independent full-sort ranking of a sample of queries (perfbench/oracle.py).

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json. With
`--trace 1` the run repeats pairs of one untraced and one traced pass (the
commands run under perfbench/tracer.py) and reports the per-layer metrics
plus `trace.overhead`, the traced over the untraced workflow time. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when any check failed.
`--paper-table` prints the paper's latency view (NN / Query / Search and the
in-context over instruction-only increase) from traced serve searches.

Inputs and outputs live under .bench_out/ in the checkout; a run that passes
its checks deletes its work directory and keeps its result JSON. See
perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
COMMAND_TIMEOUT_S = 150
ORACLE_SAMPLE = 20
TOP_K = 10  # `rare search --topk` default
TRAIN_EPOCHS = 5  # `rare train --epochs` default
REFERENCE_TOL = 1e-12

# The ROADMAP's L size; S is the synth default (8 clusters x 40 docs).
L_SYNTH = ("--clusters", "64", "--docs", "500")
# Criterion 11 of the acceptance suite: small enough for the smoke test.
SMOKE_SYNTH = ("--clusters", "3", "--vocab-per-cluster", "16", "--shared-vocab", "12",
               "--docs", "6", "--queries", "3")
SMOKE_MODEL = ("--hash-dim", "2048", "--dim", "16")

END_TO_END_UNITS = {
    "setup_s": "s",
    "workflow_s": "s",
    "index_docs_per_s": "1/s",
    "search_queries_per_s": "1/s",
    "ndcg10": "ratio",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    large: bool  # L corpus with an untrained model made in setup; S trains in the timed loop
    search: tuple[str, ...]  # format flags of `rare search`
    setup_repeats: int  # set-ups per run; setup_s is their median
    serve_rounds: int  # index/search/eval rounds per timed pass (after `train` on S)

    @property
    def uses_examples(self) -> bool:
        return "inst+ic" in self.search


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-S", large=False, search=("--format", "inst+ic", "--k", "5"),
             setup_repeats=7, serve_rounds=3),
    Workload("serve-ic-L", large=True, search=("--format", "inst+ic", "--k", "5"),
             setup_repeats=3, serve_rounds=1),
    Workload("serve-inst-L", large=True, search=("--format", "inst", "--k", "0"),
             setup_repeats=3, serve_rounds=1),
)}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def ranking_digest(run_path: Path) -> str:
    """SHA-256 of the ranked doc ids, "qid docid" per line in file order."""
    h = hashlib.sha256()
    with run_path.open(encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            h.update(f"{fields[0]} {fields[2]}\n".encode())
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "child_env": CHILD_ENV,
    }


def run_child(argv: list[str], cwd: Path, env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MiB)."""
    with log_path.open("ab") as log:
        log.write(f"$ {' '.join(argv)}\n".encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run of one workload: its commands, checks and counts."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, base: Path, tag: str):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = base / f"{workload.name}-seed{seed}{'-smoke' if smoke else ''}-{tag}"
        self.data = self.work / "data"
        self.log = self.work / "commands.log"
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.traces: list[dict] = []

    # -- commands ---------------------------------------------------------

    def setup_commands(self) -> list[list[str]]:
        size = SMOKE_SYNTH if self.smoke else (L_SYNTH if self.workload.large else ())
        cmds = [["synth", "--out", "data", "--seed", str(self.seed), *size]]
        if self.workload.large:
            cmds.append([*self.train_command(), "--epochs", "0"])
        return cmds

    def train_command(self) -> list[str]:
        return ["train", "--data", "data/train.jsonl", "--pool", "data/pool.jsonl",
                *(SMOKE_MODEL if self.smoke else ()), "--out", "model.rare"]

    INDEX = ["index", "--corpus", "data/corpus.jsonl", "--model", "model.rare", "--out", "index.rfi"]
    EVAL = ["eval", "--run", "run.trec", "--qrels", "data/qrels.tsv", "--out", "report.json"]

    @staticmethod
    def search_command(workload: Workload) -> list[str]:
        cmd = ["search", "--index", "index.rfi", "--model", "model.rare", "--queries", "data/queries.jsonl"]
        if workload.uses_examples:
            cmd += ["--pool", "data/pool.jsonl", "--task", "synth"]
        return [*cmd, *workload.search, "--out", "run.trec"]

    def training_commands(self) -> list[list[str]]:
        return [] if self.workload.large else [self.train_command()]

    def serving_commands(self) -> list[list[str]]:
        return [self.INDEX, self.search_command(self.workload), self.EVAL]

    def timed_commands(self) -> list[list[str]]:
        return [*self.training_commands(), *self.serving_commands()]

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    def command(self, args: list[str], traced: bool) -> float | None:
        """Run one `rare` command and return its wall seconds, or None when it
        failed (a failed operation)."""
        name = args[0]
        if traced:
            spans = self.work / f"spans-{len(self.traces)}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "rare.cli", *args]
        code, wall, rss = run_child(argv, self.work, self.env, self.log)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not self.check(code == 0, f"`rare {name}` exited {code} (see {self.log})"):
            return None
        if traced:
            trace = json.loads(spans.read_text())
            spans.unlink()
            trace.update(command=name, wall_s=wall)
            self.traces.append(trace)
        return wall

    def sequence(self, commands: list[list[str]], traced: bool) -> list[float] | None:
        walls = []
        for args in commands:
            wall = self.command(args, traced)
            if wall is None:
                return None
            walls.append(wall)
        return walls

    # -- outputs ----------------------------------------------------------

    def setup_digests(self) -> dict[str, str]:
        files = sorted(p for p in self.data.iterdir() if not p.name.endswith(".manifest.json"))
        digests = {p.name: sha256(p) for p in files}
        if self.workload.large:
            digests["model.rare"] = sha256(self.work / "model.rare")
        return digests

    def output_digests(self) -> dict[str, str]:
        d = {
            "ranking": ranking_digest(self.work / "run.trec"),
            "run.trec": sha256(self.work / "run.trec"),
            "report.json": sha256(self.work / "report.json"),
            "index.rfi": sha256(self.work / "index.rfi"),
        }
        if not self.workload.large:
            d["model.rare"] = sha256(self.work / "model.rare")
            d["model.rare.log.jsonl"] = sha256(self.work / "model.rare.log.jsonl")
        return d

    def observed(self) -> dict:
        """The values the references pin: nDCG@10, ranking digest, final loss."""
        report = json.loads((self.work / "report.json").read_text())
        obs = {"ndcg10": report["mean_ndcg"], "ranking_sha256": ranking_digest(self.work / "run.trec")}
        if not self.workload.large:
            lines = (self.work / "model.rare.log.jsonl").read_text().splitlines()
            obs["final_loss"] = json.loads(lines[-1])["mean_loss"]
        return obs

    def reference_key(self) -> str:
        return self.workload.name + ("@smoke" if self.smoke else "")

    def check_outputs(self) -> dict:
        """Checks made once per run on the first pass's outputs."""
        queries = [json.loads(line)["_id"] for line in
                   (self.data / "queries.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
        ranks: dict[str, list[int]] = {}
        for line in (self.work / "run.trec").read_text(encoding="utf-8").splitlines():
            fields = line.split()
            ranks.setdefault(fields[0], []).append(int(fields[3]))
        self.check(list(ranks) == queries and all(r == list(range(1, TOP_K + 1)) for r in ranks.values()),
                   f"run.trec does not rank {TOP_K} documents for every query, in query order")
        report = json.loads((self.work / "report.json").read_text())
        self.check(report["n_evaluated"] == len(queries) and report["mean_ndcg"] is not None,
                   f"report evaluates {report['n_evaluated']} of {len(queries)} queries")

        obs = self.observed()
        refs = json.loads(REFERENCES.read_text())["references"]
        expected = refs.get(self.reference_key(), {}).get(str(self.seed))
        if expected is None:
            print(f"no reference recorded for {self.reference_key()} seed {self.seed}; "
                  "oracle and determinism checks only")
        else:
            for key, want in expected.items():
                got = obs.get(key)
                ok = got == want if isinstance(want, str) else (
                    got is not None and abs(got - want) <= REFERENCE_TOL)
                self.check(ok, f"{key} = {got!r}, reference {want!r}")

        oracle = [sys.executable, str(BENCH / "oracle.py"), "--index", "index.rfi", "--model", "model.rare",
                  "--queries", "data/queries.jsonl", "--run", "run.trec",
                  *self.workload.search, "--pool", "data/pool.jsonl",
                  "--sample", str(ORACLE_SAMPLE), "--seed", str(self.seed)]
        code, *_ = run_child(oracle, self.work, self.env, self.log)
        self.check(code == 0, f"oracle ranking differs from run.trec (see {self.log})")
        return obs

    def record_reference(self, obs: dict) -> None:
        doc = json.loads(REFERENCES.read_text())
        entries = doc["references"].setdefault(self.reference_key(), {})
        if str(self.seed) not in entries:
            entries[str(self.seed)] = obs
            REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"recorded reference for {self.reference_key()} seed {self.seed}")

    # -- runs ---------------------------------------------------------------

    def fresh(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.data.mkdir(parents=True)

    def setup(self, repeats: int, traced: bool) -> list[float]:
        """Prepare the inputs `repeats` times; each must be byte-identical."""
        times, first = [], None
        for _ in range(repeats):
            walls = self.sequence(self.setup_commands(), traced)
            if walls is None:
                raise SetupFailed
            times.append(sum(walls))
            digests = self.setup_digests()
            if first is None:
                first = digests
            else:
                self.check(digests == first, "setup outputs differ between repetitions")
        return times

    def timed_loop(self, seconds: float, one_pass) -> list:
        """Repeat `one_pass()` while another pass is predicted to end less
        than half a pass after `seconds`, so that the run ends within half a
        pass of `seconds` on either side; `one_pass` returns (result, seconds
        its commands took)."""
        start, results, busy = time.perf_counter(), [], 0.0
        while True:
            result = one_pass()
            if result is None:
                break
            results.append(result[0])
            busy += result[1]
            if time.perf_counter() - start + busy / len(results) / 2 > seconds:
                break
        return results


class SetupFailed(Exception):
    pass


def _per_s(count: int, walls: list[float]) -> float:
    return count / statistics.median(walls)


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced run: end-to-end metrics, human-only extras, raw samples.

    A timed pass is the training commands (pipeline-S) followed by
    `serve_rounds` rounds of index, search and eval; the outputs of every
    round are checked. Each command's wall times are pooled over the run, and
    `workflow_s` is the sum of the commands' medians."""
    setup_times = bench.setup(bench.workload.setup_repeats, traced=False)
    walls: dict[str, list[float]] = {args[0]: [] for args in bench.timed_commands()}
    first: dict = {}
    obs: dict = {}

    def timed(commands: list[list[str]]) -> float | None:
        got = bench.sequence(commands, traced=False)
        if got is None:
            return None
        for args, wall in zip(commands, got):
            walls[args[0]].append(wall)
        return sum(got)

    def one_pass():
        busy = timed(bench.training_commands())
        if busy is None:
            return None
        for _ in range(bench.workload.serve_rounds):
            spent = timed(bench.serving_commands())
            if spent is None:
                return None
            busy += spent
            digests = bench.output_digests()
            if not first:
                first.update(digests)
                obs.update(bench.check_outputs())
            else:
                bench.check(digests == first, "outputs differ from the first round: " +
                            ", ".join(k for k in digests if digests[k] != first.get(k)))
        return True, busy

    passes = bench.timed_loop(seconds, one_pass)
    if not passes:
        return {}, {}, {"setup_s": setup_times}
    n_docs = count_lines(bench.data / "corpus.jsonl")
    n_queries = count_lines(bench.data / "queries.jsonl")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "workflow_s": sum(statistics.median(w) for w in walls.values()),
        "index_docs_per_s": _per_s(n_docs, walls["index"]),
        "search_queries_per_s": _per_s(n_queries, walls["search"]),
        "ndcg10": obs["ndcg10"],
        "peak_rss_mb": bench.peak_rss_mb,
    }
    extras = {}
    if "train" in walls:
        extras["train_examples_per_s"] = ("1/s", _per_s(count_lines(bench.data / "train.jsonl") * TRAIN_EPOCHS,
                                                       walls["train"]))
    raw = {"setup_s": setup_times, "passes": len(passes), **{f"{c}_wall_s": w for c, w in walls.items()},
           "observed": obs}
    return metrics, extras, raw


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Traced run: per-layer metrics from traced passes, each paired with an
    untraced pass whose outputs it must reproduce."""
    bench.setup(1, traced=True)
    setup_traces = list(bench.traces)
    timed = bench.timed_commands()
    obs: dict = {}

    def one_pair():
        plain = bench.sequence(timed, traced=False)
        if plain is None:
            return None
        plain_digests = bench.output_digests()
        if not obs:
            obs.update(bench.check_outputs())
        bench.traces = []
        traced = bench.sequence(timed, traced=True)
        if traced is None:
            return None
        diff = [k for k, v in bench.output_digests().items() if plain_digests[k] != v]
        bench.check(not diff, "traced outputs differ from untraced: " + ", ".join(diff))
        metrics, tails = layers.layer_metrics(setup_traces + bench.traces)
        traced_s, plain_s = sum(traced), sum(plain)
        metrics["trace.overhead"] = traced_s / plain_s
        return (metrics, tails), traced_s + plain_s

    pairs = bench.timed_loop(seconds, one_pair)
    if not pairs:
        return {}, {}, {}
    metrics = {name: statistics.median(p[0][name] for p in pairs) for name in layers.LAYER_UNITS}
    return metrics, pairs[-1][1], {"observed": obs, "pairs": [p[0] for p in pairs]}


def paper_table(seed: int, smoke: bool, base: Path) -> int:
    """The paper's latency table from traced serve searches on one L corpus."""
    ic, inst = WORKLOADS["serve-ic-L"], WORKLOADS["serve-inst-L"]
    bench = Bench(ic, seed, smoke, base, "paper")
    bench.fresh()
    try:
        bench.setup(1, traced=False)
    except SetupFailed:
        return 1
    if bench.command(bench.INDEX, traced=False) is None:
        return 1
    rows = {}
    for workload in (inst, ic):
        bench.traces = []
        if bench.command(bench.search_command(workload), traced=True) is None:
            return 1
        view = layers.paper_view(bench.traces)
        rows[workload.name] = {part: statistics.median(view[part]) * 1e6 for part in view}
    base_total = rows[inst.name]["total"]
    print(f"paper latency view: per-query medians in us over {len(view['total'])} queries, seed {seed}")
    print(f"{'setting':14s} {'NN':>10s} {'Query':>10s} {'Search':>10s} {'Total':>10s} {'Inc':>7s}")
    for name, row in rows.items():
        print(f"{name:14s} {row['nn']:10.1f} {row['query']:10.1f} {row['search']:10.1f} "
              f"{row['total']:10.1f} {row['total'] / base_total:6.2f}x")
    shutil.rmtree(bench.work)
    return 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the rare commands.")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--paper-table", action="store_true",
                      help="print the NN / Query / Search view of the two serve workloads")
    p.add_argument("--seed", type=int, default=7, help="synth seed (default: the synth default, 7)")
    p.add_argument("--seconds", type=float, default=45.0, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: criterion-11 inputs (3 clusters x 6 docs), for the harness test")
    p.add_argument("--workdir", type=Path, default=ROOT / ".bench_out", help="where inputs and results go")
    p.add_argument("--record-reference", action="store_true",
                   help="add this seed's outputs to references.json if it has none yet")
    args = p.parse_args(argv)

    if not (SRC / "rare" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'rare' / 'cli.py'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    smoke = args.size == "smoke"
    if args.paper_table:
        return paper_table(args.seed, smoke, args.workdir)

    bench = Bench(WORKLOADS[args.workload], args.seed, smoke, args.workdir, f"trace{args.trace}")
    bench.fresh()
    env = environment()
    units = layers.LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics, tails, extras, raw = {}, {}, {}, {}
    try:
        if args.trace:
            metrics, tails, raw = measure_traced(bench, args.seconds)
        else:
            metrics, extras, raw = measure(bench, args.seconds)
    except SetupFailed:
        pass
    correct = bench.failed == 0 and bool(metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name in tails:
            pct, n = tails[name]
            note = f"  (p{pct:g} of {n} samples)"
        print(f"  {name:28s} {value:16.6f} {units[name]}{note}")
    for name, (unit, value) in extras.items():
        print(f"  {name:28s} {value:16.6f} {unit}  (printed only)")
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failure_rate':28s} {rate:16.6f} ratio  ({bench.failed} of {bench.attempted} operations)")

    results = args.workdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "seconds": args.seconds, "environment": env, "correct": correct,
              "attempted": bench.attempted, "failed": bench.failed, "problems": bench.problems,
              "metrics": metrics, "extras": {k: v[1] for k, v in extras.items()}, "raw": raw}
    (results / f"{bench.work.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if correct:
        if args.record_reference and not args.trace:
            bench.record_reference(raw["observed"])
        shutil.rmtree(bench.work)

    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
