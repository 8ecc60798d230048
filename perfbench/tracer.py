"""Run one `rare` command in this process with spans around the layers it calls.

    python perfbench/tracer.py SPANS_JSON -- RARE_ARGS...

Each wrapper is installed at the name its caller looks up (for example
`rare.cli.run_inference`, `rare.trainer.featurize` and
`rare.embedder.featurize`), so nothing under src/ changes. `_bucket` is left
alone: it gets about 900k calls per default `rare train`, and its hit rate is
read from its lru_cache counters instead.

A span is `[name, start, end, parent, value]`: `parent` is the index of the
enclosing span in the same file, or -1, and `value` is the per-call count
named in `install` (None where there is none). Spans are held in memory and
written to SPANS_JSON when the command ends, whatever its exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """Collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` by a function that records a span per call.

        `count(result, *args, **kwargs)` gives the span's value.
        """
        fn = getattr(owner, attr)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if count is not None:
                span[4] = count(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)


def _n_features(result, *_args, **_kwargs) -> int:
    return len(result)


def _is_zero(result, *_args, **_kwargs) -> int:
    return int(not result.any())


def _is_short(result, _index, _query, k, *_args, **_kwargs) -> int:
    return int(len(result) < k)


def _rendered(result, *_args, **_kwargs) -> list[int]:
    return [result.approx_len, result.n_examples]


def install(tracer: Tracer) -> None:
    """Wrap the public functions the `rare` commands call, layer by layer."""
    from rare import bm25, cli, data, embedder, retrieve, synth, trainer

    wrap = tracer.wrap
    # What the command handlers in rare.cli call by name.
    wrap(cli, "train", "trainer.train")
    wrap(cli, "build_flat_index", "retrieve.build_flat_index")
    wrap(cli, "save_index", "retrieve.save_index")
    wrap(cli, "load_flat_index", "retrieve.load_flat_index")
    wrap(cli, "run_inference", "retrieve.run_inference")
    wrap(cli, "write_run", "retrieve.write_run")
    wrap(cli, "load_run", "retrieve.load_run")
    wrap(cli, "evaluate", "evaluation.evaluate")
    wrap(cli, "build_manifest", "manifest.build_manifest")
    # What rare.cli and rare.trainer reach through a module attribute.
    for attr in ("load_corpus", "load_queries", "load_qrels", "load_train", "load_example_pool"):
        wrap(data, attr, "data.load")
    wrap(synth, "generate", "synth.generate")
    wrap(embedder, "load", "embedder.load")
    wrap(embedder, "save", "embedder.save")
    wrap(bm25, "build_index", "bm25.build_index")
    wrap(bm25, "top_k_neighbors", "bm25.top_k_neighbors", _is_short)
    # The embedding path: embed() looks up featurize/project in rare.embedder,
    # the trainer its own imported names.
    for module in (embedder, trainer):
        wrap(module, "featurize", "embedder.featurize", _n_features)
        wrap(module, "project", "embedder.project", _is_zero)
    wrap(trainer, "batch_grads", "trainer.batch_grads")
    for module in (trainer, retrieve):
        wrap(module, "select_examples", "trainer.select_examples")
        wrap(module, "render_inst", "prompt.render", _rendered)
        wrap(module, "render_inst_ic", "prompt.render", _rendered)
    wrap(retrieve, "embed", "embedder.embed")
    wrap(retrieve, "search", "retrieve.search")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- RARE_ARGS...", file=sys.stderr)
        return 1
    out, rare_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    install(tracer)
    from rare import cli, embedder

    sys.argv = ["rare", *rare_args]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        info = embedder._bucket.cache_info()
        out.write_text(json.dumps({
            "spans": tracer.spans,
            "bucket_hits": info.hits,
            "bucket_misses": info.misses,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
