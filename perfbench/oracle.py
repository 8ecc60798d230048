"""Independent check of a `rare search` run file on a seeded sample of queries.

    python perfbench/oracle.py --index INDEX --model MODEL --queries QUERIES \
        --run RUN --format inst+ic --k 5 --pool POOL --sample 20 --seed 7

Each sampled query is rebuilt the way `rare search` documents it:
`select_examples` over a BM25 index of the pool queries, then
`render_inst_ic` (or `render_inst` when no examples are used), then `embed`.
Every row of the loaded index is scored, and the rows are ranked by a full
sort on (score descending, doc id ascending), the order criterion 3 of the
acceptance suite fixes. The top 10 doc ids must equal the run file's, which
this script parses itself. Exit 0 when every sampled query matches, 1 when
one does not.
"""

from __future__ import annotations

import argparse
import random
import sys

from rare import bm25, data, embedder
from rare.prompt import FormatKind, PromptFormat, render_inst, render_inst_ic
from rare.retrieve import load_flat_index
from rare.trainer import SelectionPolicy, select_examples

TOP = 10


def read_run(path: str) -> dict[str, list[str]]:
    ranked: dict[str, list[tuple[int, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc_id, rank, _, _ = line.split()
            ranked.setdefault(qid, []).append((int(rank), doc_id))
    return {qid: [doc for _, doc in sorted(rows)] for qid, rows in ranked.items()}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--index", "--model", "--queries", "--run", "--format"):
        p.add_argument(flag, required=True)
    p.add_argument("--pool", default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--sample", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    index = load_flat_index(args.index)
    params = embedder.load(args.model)
    queries = data.load_queries(args.queries)
    run = read_run(args.run)
    fmt = PromptFormat(kind=FormatKind(args.format))
    uses_examples = fmt.kind is not FormatKind.INST and args.k > 0
    if uses_examples:
        pool = data.load_example_pool(args.pool, "synth")
        ic_index = bm25.build_index([ex.query for ex in pool.examples])

    sample = random.Random(f"oracle:{args.seed}").sample(queries, min(args.sample, len(queries)))
    mismatches = 0
    for query in sample:
        if uses_examples:
            examples = select_examples(
                pool, ic_index, query.text, args.k, SelectionPolicy.RETRIEVED, random.Random(0)
            )
            text = render_inst_ic("", examples, query.text, fmt).text
        else:
            text = render_inst("", query.text).text
        scores = index.matrix @ embedder.embed(params, text)
        order = sorted(range(len(index.ids)), key=lambda row: (-scores[row], index.ids[row]))
        expected = [index.ids[row] for row in order[:TOP]]
        if run.get(query.id, [])[:TOP] != expected:
            mismatches += 1
            print(f"{query.id}: run {run.get(query.id, [])[:TOP]} != oracle {expected}", file=sys.stderr)
    print(f"oracle: {len(sample) - mismatches}/{len(sample)} sampled queries match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
