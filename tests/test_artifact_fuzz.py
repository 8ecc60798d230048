"""Corrupt binary artifacts through the real `search` command: a truncated,
extended or header-flipped `RARE1` model or `RFI1` index ends in a usage,
data or numeric exit code, never in an uncaught exception."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare.cli import dispatch

HASH_DIM, DIM = 2048, 16
SYNTH = ["--clusters", "3", "--vocab-per-cluster", "16", "--shared-vocab", "12",
         "--docs", "6", "--queries", "3", "--seed", "5"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    steps = [
        ["synth", "--out", str(data), *SYNTH],
        ["train", "--data", str(data / "train.jsonl"), "--pool", str(data / "pool.jsonl"),
         "--epochs", "0", "--hash-dim", str(HASH_DIM), "--dim", str(DIM), "--out", str(root / "model.rare")],
        ["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(root / "model.rare"),
         "--out", str(root / "index.rfi")],
    ]
    for argv in steps:
        assert dispatch(argv) == 0, argv[0]
    return root


def search(root, model, index) -> int:
    return dispatch([
        "search", "--index", str(index), "--model", str(model),
        "--queries", str(root / "data" / "queries.jsonl"), "--pool", str(root / "data" / "pool.jsonl"),
        "--task", "synth", "--k", "2", "--out", str(root / "run.trec"),
    ])


def test_intact_artifacts_search(artifacts):
    assert search(artifacts, artifacts / "model.rare", artifacts / "index.rfi") == 0


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(target=st.sampled_from(["model.rare", "index.rfi"]), mutation=mutations)
def test_corrupt_artifact_exit_code(artifacts, target, mutation):
    blob = (artifacts / target).read_bytes()
    # The float64 matrix closes both files; RFI1 stores its row count at offset 8.
    rows = HASH_DIM if target == "model.rare" else struct.unpack_from("<Q", blob, 8)[0]
    matrix_bytes = 8 * rows * DIM
    kind = mutation[0]
    if kind == "truncate":
        bad = blob[: int(mutation[1] * len(blob))]
    elif kind == "append":
        bad = blob + mutation[1]
    else:  # flip one byte before the matrix
        at = int(mutation[1] * (len(blob) - matrix_bytes))
        bad = blob[:at] + bytes([blob[at] ^ mutation[2]]) + blob[at + 1 :]
    corrupt = artifacts / ("bad-" + target)
    corrupt.write_bytes(bad)
    model = corrupt if target == "model.rare" else artifacts / "model.rare"
    index = corrupt if target == "index.rfi" else artifacts / "index.rfi"
    code = search(artifacts, model, index)
    assert code in (0, 1, 2, 3)
    if kind in ("truncate", "append"):
        assert code == 2
