"""Corrupt binary artifacts through the real `search` command: a truncated,
extended or header-flipped `RARE1` model or `RFI1` index ends in a usage,
data or numeric exit code, never in an uncaught exception, and a corrupt
float inside the index matrix ends in the code its value calls for. An index
whose stored model digest no longer names the model is a data error."""

from __future__ import annotations

import math
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



@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(at=st.integers(0, 31), mask=st.integers(1, 255))
def test_corrupt_model_digest_is_exit_two(artifacts, at, mask):
    blob = bytearray((artifacts / "index.rfi").read_bytes())
    blob[24 + at] ^= mask  # RFI1 version 2: magic, u32 version, u64 n, u64 dim, then the model's sha256
    corrupt = artifacts / "bad-digest.rfi"
    corrupt.write_bytes(blob)
    assert search(artifacts, artifacts / "model.rare", corrupt) == 2


@pytest.mark.parametrize("corrupt", ["utf8", "length"])
def test_corrupt_id_is_exit_two_in_one_line(artifacts, capsys, corrupt):
    blob = bytearray((artifacts / "index.rfi").read_bytes())
    # RFI1 version 2: the first id's u32 length at 56, its bytes from 60.
    if corrupt == "utf8":
        blob[60] = 0xFF
    else:
        struct.pack_into("<I", blob, 56, len(blob))
    bad = artifacts / f"bad-{corrupt}.rfi"
    bad.write_bytes(blob)
    capsys.readouterr()
    assert search(artifacts, artifacts / "model.rare", bad) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and ("UTF-8" if corrupt == "utf8" else "more bytes") in err[0], err


# One float of the index matrix gets a byte flipped, or its 11-bit exponent
# field rewritten: a byte flip alone cannot reach an infinity or NaN from a
# float in [-1, 1). 0x3FF and 0x400 sit at the range edge, 0x7FF is inf/NaN.
float_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 7), st.integers(1, 255)),
    st.tuples(st.just("exponent"), st.integers(0, 0x7FF) | st.sampled_from([0x3FF, 0x400, 0x7FF])),
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(where=st.floats(0.0, 1.0, exclude_max=True), mutation=float_mutations)
def test_corrupt_index_matrix_exit_code(artifacts, where, mutation):
    """The changed float may stay in [-1, 1] (exit 0), leave it (exit 2) or
    stop being finite (exit 3)."""
    blob = bytearray((artifacts / "index.rfi").read_bytes())
    floats = struct.unpack_from("<Q", blob, 8)[0] * DIM
    at = len(blob) - 8 * (floats - int(where * floats))
    bits = int.from_bytes(blob[at : at + 8], "little")
    if mutation[0] == "flip":
        bits ^= mutation[2] << (8 * mutation[1])
    else:
        bits = bits & ~(0x7FF << 52) | mutation[1] << 52
    blob[at : at + 8] = bits.to_bytes(8, "little")
    value = struct.unpack_from("<d", blob, at)[0]
    corrupt = artifacts / "bad-matrix.rfi"
    corrupt.write_bytes(blob)
    expected = 0 if abs(value) <= 1.0 else 2 if math.isfinite(value) else 3
    assert search(artifacts, artifacts / "model.rare", corrupt) == expected, value
