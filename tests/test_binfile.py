"""`binfile.Reader`: the matrix is read into the array it returns, with no
copy of the file bytes beside it, its finiteness is checked in row slices,
and a declared size is checked against the file before anything is
allocated for it."""

from __future__ import annotations

import gc
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from rare.binfile import SLICE_BYTES
from rare.cli import dispatch
from rare.embedder import load, new_params, save
from rare.errors import BadMagic, NonFiniteParams, Truncated
from rare.retrieve import FlatIndex, load_flat_index, save_index

SYNTH = ["--clusters", "2", "--vocab-per-cluster", "8", "--shared-vocab", "4",
         "--docs", "3", "--queries", "2", "--seed", "5"]
HASH_DIM_OFFSET = 9  # magic RARE1, u32 version, then u64 hash_dim


def test_model_load_peak_is_one_matrix(tmp_path):
    hash_dim, embed_dim = 1 << 16, 16
    path = tmp_path / "model.rare"
    save(new_params(hash_dim=hash_dim, embed_dim=embed_dim), path)
    matrix_bytes = 8 * hash_dim * embed_dim
    tracemalloc.start()
    try:
        params = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params.projection.nbytes == matrix_bytes
    assert matrix_bytes <= peak <= 1.25 * matrix_bytes


def test_default_model_load_makes_no_array_beside_w(tmp_path):
    # A whole-matrix `np.isfinite` would add a bool array of W's entries: 4 MiB here.
    path = tmp_path / "model.rare"
    save(new_params(), path)
    tracemalloc.start()
    try:
        params = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params.projection.nbytes == 32 << 20
    assert peak < params.projection.nbytes + (1 << 20)


def test_nan_in_the_last_slice_is_rejected(tmp_path):
    hash_dim, embed_dim = 1 << 14, 16
    assert 8 * hash_dim * embed_dim >= 8 * SLICE_BYTES  # several slices
    path = tmp_path / "model.rare"
    save(new_params(hash_dim=hash_dim, embed_dim=embed_dim), path)
    with path.open("r+b") as fh:
        fh.seek(-8, 2)
        fh.write(struct.pack("<d", float("nan")))
    with pytest.raises(NonFiniteParams):
        load(path)


def test_huge_declared_rows_are_truncated_not_allocated(tmp_path):
    data, model = tmp_path / "data", tmp_path / "model.rare"
    assert dispatch(["synth", "--out", str(data), *SYNTH]) == 0
    save(new_params(hash_dim=64, embed_dim=4), model)
    blob = bytearray(model.read_bytes())
    struct.pack_into("<Q", blob, HASH_DIM_OFFSET, 1 << 60)  # 2^60 rows of 4 float64s
    model.write_bytes(bytes(blob))
    with pytest.raises(Truncated):
        load(model)
    argv = ["index", "--corpus", str(data / "corpus.jsonl"), "--model", str(model),
            "--out", str(tmp_path / "index.rfi")]
    assert dispatch(argv) == 2


def test_huge_declared_index_dim_is_truncated(tmp_path):
    path = tmp_path / "index.rfi"
    save_index(FlatIndex(ids=["d1"], matrix=np.ones((1, 3)) / np.sqrt(3), dim=3), path, "00" * 32)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 16, 1 << 61)  # magic RFI1, u32 version, u64 n, then u64 dim
    path.write_bytes(bytes(blob))
    with pytest.raises(Truncated):
        load_flat_index(path)


def test_file_is_closed_on_every_path(tmp_path):
    params = new_params(hash_dim=8, embed_dim=2)
    good = tmp_path / "good.rare"
    save(params, good)
    blob = good.read_bytes()
    bad_magic, cut, trailing, non_finite = (tmp_path / n for n in ("magic", "cut", "trailing", "nan"))
    bad_magic.write_bytes(b"X" + blob[1:])
    cut.write_bytes(blob[:-1])
    trailing.write_bytes(blob + b"\0")
    non_finite.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
    cases = [(good, None), (bad_magic, BadMagic), (cut, Truncated), (trailing, Truncated),
             (non_finite, NonFiniteParams)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for path, error in cases:
            if error is None:
                load(path)
            else:
                with pytest.raises(error):
                    load(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
