"""Flat dense index, exact search, end-to-end inference and the TREC run
and index file formats."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare import bm25, embedder, retrieve
from rare.bench import profile
from rare.binfile import Reader
from rare.cli import dispatch
from rare.data import (
    Document,
    ExamplePool,
    ICExample,
    Query,
    TrainExample,
    load_corpus,
    load_run,
    write_corpus,
    write_run,
)
from rare.embedder import embed, featurize, load, new_params, save
from rare.errors import (
    BadMagic,
    DataError,
    DimMismatch,
    EmptyCorpus,
    MalformedRow,
    NonFiniteParams,
    SpecInvalid,
    Truncated,
    VersionMismatch,
)
from rare.prompt import FormatKind, PromptFormat, render_inst_ic
from rare.retrieve import (
    FlatIndex,
    StageTimes,
    build_flat_index,
    document_text,
    load_flat_index,
    run_inference,
    save_index,
    search,
)
from rare.synth import SynthSpec, generate
from rare.trainer import TrainConfig, train

from conftest import TWO_CPUS, no_pool, random_text


MODEL = hashlib.sha256(b"model file").hexdigest()  # the model digest an index file names


def small_params(seed=0):
    return new_params(hash_dim=512, embed_dim=16, ngram_orders=(1, 2), seed=seed)


def make_corpus(texts):
    return {f"d{i}": Document(id=f"d{i}", title="", text=t) for i, t in enumerate(texts)}


class TestDocumentText:
    def test_title_and_text_joined_by_one_space(self):
        doc = Document(id="d", title="The Title", text="the body")
        assert document_text(doc) == "The Title the body"

    def test_empty_title(self):
        assert document_text(Document(id="d", title="", text="body")) == " body"


class TestBuildFlatIndex:
    def test_single_doc(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple banana"]), params)
        assert index.matrix.shape == (1, params.embed_dim)
        assert abs(np.linalg.norm(index.matrix[0]) - 1.0) < 1e-9
        assert index.ids == ["d0"]

    def test_rows_follow_corpus_order(self, rng):
        params = small_params()
        texts = [random_text(rng, 8) for _ in range(12)]
        corpus = make_corpus(texts)
        index = build_flat_index(corpus, params)
        assert index.ids == list(corpus)
        for row, text in zip(index.matrix, texts):
            np.testing.assert_array_equal(row, embed(params, " " + text))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_flat_index({}, small_params())

    def test_rebuild_bit_identical(self, rng):
        params = small_params()
        corpus = make_corpus([random_text(rng, 8) for _ in range(20)])
        a = build_flat_index(corpus, params)
        b = build_flat_index(corpus, params)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_corpus_scale(self):
        # NFCorpus-sized collection: 3633 documents.
        params = new_params(hash_dim=64, embed_dim=4, ngram_orders=(1,), seed=0)
        corpus = make_corpus([f"term{i % 97} term{i % 89}" for i in range(3633)])
        index = build_flat_index(corpus, params)
        assert len(index) == 3633
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_gram_free_document_embeds_to_zero_row(self):
        params = small_params()
        corpus = {"d0": Document(id="d0", title="", text="..."), "d1": Document(id="d1", title="", text="apple")}
        index = build_flat_index(corpus, params)
        assert not index.matrix[0].any()


# Ids mix ASCII, accented, Cyrillic, CJK and astral characters, so their
# sorted order has nothing to do with row order or with byte length.
ID_CHARS = "aZ09-_éüдиф中文🙂"


@st.composite
def flat_cases(draw):
    """An index whose rows repeat a few vectors of halved small integers and
    zero rows, so dot products tie exactly and ties straddle the k-th score;
    the query is one such vector or zero, and top_k may exceed the row count."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    distinct = draw(st.lists(vector, min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.sampled_from([[0] * dim, *distinct]), min_size=n, max_size=n))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    q = draw(st.one_of(st.just([0] * dim), vector))
    top_k = draw(st.integers(1, n + 3))
    index = FlatIndex(ids=ids, matrix=np.array(rows, dtype=np.float64) / 2, dim=dim)
    return index, np.array(q, dtype=np.float64) / 2, top_k


class TestSearch:
    def build_random_index(self, rng, n, dim=8, with_ties=False):
        mat = np.zeros((n, dim))
        for i in range(n):
            v = np.array([rng.gauss(0, 1) for _ in range(dim)])
            mat[i] = v / np.linalg.norm(v)
        ids = [f"d{i:04d}" for i in range(n)]
        if with_ties and n >= 4:
            mat[1] = mat[0]
            mat[3] = mat[2]
        return FlatIndex(ids=ids, matrix=mat, dim=dim)

    def test_k_zero(self, rng):
        index = self.build_random_index(rng, 5)
        assert search(index, index.matrix[0], 0) == []

    def test_self_match_first_with_score_one(self, rng):
        index = self.build_random_index(rng, 30)
        got = search(index, index.matrix[7].copy(), 3)
        assert got[0][0] == "d0007"
        assert abs(got[0][1] - 1.0) < 1e-6

    def test_k_larger_than_n_returns_all(self, rng):
        index = self.build_random_index(rng, 6)
        got = search(index, index.matrix[0], 100)
        assert len(got) == 6
        assert len({doc_id for doc_id, _ in got}) == 6

    def test_matches_brute_force_full_sort(self, rng):
        for _ in range(25):
            n = rng.randint(1, 60)
            index = self.build_random_index(rng, n, with_ties=rng.random() < 0.5)
            q = np.array([rng.gauss(0, 1) for _ in range(index.dim)])
            q /= np.linalg.norm(q)
            k = rng.randint(1, n + 3)
            got = search(index, q, k)
            scores = index.matrix @ q
            expected = sorted(zip(index.ids, scores), key=lambda pair: (-pair[1], pair[0]))[:k]
            assert [doc_id for doc_id, _ in got] == [doc_id for doc_id, _ in expected]

    def test_scores_non_increasing_and_ties_by_id(self, rng):
        index = self.build_random_index(rng, 20, with_ties=True)
        got = search(index, index.matrix[0].copy(), 20)
        for (id_a, score_a), (id_b, score_b) in zip(got, got[1:]):
            assert score_a >= score_b
            if score_a == score_b:
                assert id_a < id_b

    def test_dim_mismatch(self, rng):
        index = self.build_random_index(rng, 4, dim=8)
        with pytest.raises(DimMismatch):
            search(index, np.zeros(9), 3)

    def test_zero_query_orders_by_id(self, rng):
        index = self.build_random_index(rng, 10)
        got = search(index, np.zeros(index.dim), 10)
        assert [doc_id for doc_id, _ in got] == sorted(index.ids)
        assert all(score == 0.0 for _, score in got)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(case=flat_cases())
    def test_partial_selection_matches_full_sort(self, case):
        index, q, top_k = case
        got = search(index, q, top_k)
        scores = index.matrix @ q
        order = sorted(range(len(index)), key=lambda row: (-scores[row], index.ids[row]))[:top_k]
        assert got == [(index.ids[row], float(scores[row])) for row in order]


def oracle_search(index, q_emb, top_k):
    """`search` as it was before the float32 scan: one float64 product over
    every row, then the same selection. The reference for the scan."""
    if top_k <= 0:
        return []
    scores = index.matrix @ q_emb
    n = len(scores)
    if top_k < n:
        kth = np.partition(scores, n - top_k)[n - top_k]
        rows = np.flatnonzero(scores >= kth).tolist()
    else:
        rows = range(n)
    ids = index.ids
    ranked = sorted(rows, key=lambda row: (-scores[row], ids[row]))[:top_k]
    return [(ids[row], float(scores[row])) for row in ranked]


# Exponents at the float32 underflow limits (normal 2^-126, subnormal 2^-149)
# and the float64 ones (normal 2^-1022, subnormal 2^-1074). Search takes
# entries in [-1, 1] only, so none is positive.
EXPONENTS = [0, -1, -60, -126, -149, -150, -500, -1000, -1022, -1074]


@st.composite
def scaled_cases(draw):
    """An index and a query that stress the float32 scan. Each case draws a
    few row kinds and makes every row one of them: small integers (exact
    ties), floats, zero rows, copies of earlier rows, or near copies of row 0
    that differ from it by about one float32 ulp per entry. Against row 0 as
    the query, float32 often orders near copies differently from float64.
    Every entry lies in [-1/2, 3/4]. The matrix is scaled down by a power of
    two near the float32 or float64 underflow limit, and each row by one of
    a few small further powers, capped at 1. The query is zero, a fresh
    vector or row 0, scaled the same way. Ids are unique and in an order
    unrelated to the rows; k is 1, n-1, n or n+5."""
    n = draw(st.integers(1, 41))
    dim = draw(st.integers(1, 64))
    nprng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector(kind):
        return nprng.integers(-3, 4, dim) / 4 if kind == "int" else nprng.uniform(-0.5, 0.5, dim)

    def some_of(values):
        return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)

    kinds = draw(st.lists(st.sampled_from(draw(some_of(["int", "float", "zero", "copy", "near"]))),
                          min_size=n, max_size=n))
    matrix = np.zeros((n, dim))
    matrix[0] = vector(kinds[0]) if kinds[0] != "zero" else 0.0
    for row, kind in enumerate(kinds[1:], start=1):
        if kind == "copy":
            matrix[row] = matrix[nprng.integers(0, row)]
        elif kind == "near":
            matrix[row] = matrix[0] + matrix[0] * nprng.uniform(-2.0, 2.0, dim) * 2.0**-24
        elif kind != "zero":
            matrix[row] = vector(kind)
    spread = draw(st.lists(st.sampled_from(draw(some_of([0, 1, -1, -30, -140]))), min_size=n, max_size=n))
    exps = np.minimum(draw(st.sampled_from(EXPONENTS)) + np.array(spread), 0)
    row0 = matrix[0].copy()
    matrix = np.ldexp(matrix, exps[:, None])
    q_kind = draw(st.sampled_from(["int", "float", "row", "zero"]))
    if q_kind == "zero":
        q = np.zeros(dim)
    else:
        q = row0 if q_kind == "row" else vector(q_kind)
        q = np.ldexp(q, draw(st.sampled_from(EXPONENTS)))
    ids = [f"d{i:02d}" for i in draw(st.permutations(range(n)))]
    top_k = draw(st.sampled_from([1, max(n - 1, 1), n, n + 5]))
    return FlatIndex(ids=ids, matrix=matrix, dim=dim), q, top_k


OUT_OF_RANGE = [1.5e308, 1 + 2**-52, -(1 + 2**-52), np.nan, np.inf, -np.inf]


class TestTwoPassSearch:
    """`search` scans a float32 copy of the index and rescores only the
    candidates in float64; it must still return the old search's ids and
    score floats."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(case=scaled_cases())
    def test_equals_full_product_search(self, case):
        index, q, top_k = case
        assert search(index, q, top_k) == oracle_search(index, q, top_k)

    def test_queries_below_the_float32_normal_range(self):
        """A query under 2**-126 keeps few bits in float32, and its products
        with the index underflow, so the scan can order rows wrongly by more
        than the rounding term of the bound; the underflow term must keep
        the exact top K among the candidates."""
        nprng = np.random.default_rng(4)
        for _ in range(3000):
            dim = int(nprng.integers(2, 4))
            index = FlatIndex(ids=[f"d{i}" for i in range(8)], matrix=nprng.uniform(-1, 1, (8, dim)), dim=dim)
            q = np.ldexp(nprng.uniform(-1, 1, dim), int(nprng.integers(-150, -130)))
            assert search(index, q, 1) == oracle_search(index, q, 1)

    def test_entries_of_one_are_in_range(self):
        matrix = np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [-1.0, -1.0]])
        index = FlatIndex(ids=[f"d{i}" for i in range(5)], matrix=matrix, dim=2)
        q = np.array([1.0, -1.0])
        assert search(index, q, 2) == oracle_search(index, q, 2) == [("d0", 2.0), ("d2", 0.0)]

    def test_scan_raises_no_floating_point_warning(self):
        """Library callers run without `dispatch`'s errstate: the float32 scan
        of in-range factors must not warn, whatever numpy's error mode."""
        nprng = np.random.default_rng(11)
        matrix = nprng.uniform(-1, 1, (257, 64))
        matrix[::7] = np.sign(matrix[::7])  # whole rows of -1 and 1
        matrix[3] = 0.0
        matrix[5] = np.ldexp(matrix[5], -140)  # rows below the float32 normal range
        index = FlatIndex(ids=[f"d{i}" for i in range(257)], matrix=matrix, dim=64)
        queries = [matrix[0], matrix[7], np.zeros(64), np.ldexp(nprng.uniform(-1, 1, 64), -150),
                   nprng.uniform(-1, 1, 64) / 8]
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            for q in queries:
                assert search(index, q, 10) == oracle_search(index, q, 10)

    @pytest.mark.parametrize("bad", OUT_OF_RANGE)
    @pytest.mark.parametrize("top_k", [1, 8])
    def test_out_of_range_index_entry_raises_at_first_search(self, bad, top_k):
        matrix = np.full((8, 2), 0.25)
        matrix[5, 1] = bad
        index = FlatIndex(ids=[f"d{i}" for i in range(8)], matrix=matrix, dim=2)
        with pytest.raises(DataError, match=r"index entries must lie in \[-1, 1\]"):
            search(index, np.array([0.6, 0.8]), top_k)

    @pytest.mark.parametrize("bad", OUT_OF_RANGE)
    def test_out_of_range_query_raises(self, bad):
        index = FlatIndex(ids=[f"d{i}" for i in range(8)], matrix=np.full((8, 2), 0.25), dim=2)
        with pytest.raises(DataError, match=r"query entries must lie in \[-1, 1\]"):
            search(index, np.array([0.6, bad]), 1)

    @pytest.mark.parametrize("n", [1, 3, 4, 9, 64, 257])
    def test_every_row_picked_scores_like_the_full_product(self, n):
        """A zero query or `top_k >= n` picks every row; each score keeps the
        bits of `matrix @ q`, the sign of a zero included."""
        nprng = np.random.default_rng(n)
        matrix = nprng.uniform(-1, 1, (n, 64))
        matrix[0] = -np.abs(matrix[0])  # every product with a zero query is -0.0
        ids = [f"d{i:03d}" for i in nprng.permutation(n)]
        index = FlatIndex(ids=ids, matrix=matrix, dim=64)
        q = nprng.uniform(-1, 1, 64) / 8
        for q, top_k in ((q, n), (q, n + 3), (np.zeros(64), 1), (np.zeros(64), n), (np.zeros(64), n + 3)):
            full = matrix @ q
            want = sorted(range(n), key=lambda row: (-full[row], ids[row]))[:top_k]
            got = search(index, q, top_k)
            assert [doc for doc, _ in got] == [ids[row] for row in want]
            assert [score.hex() for _, score in got] == [float(full[row]).hex() for row in want]

    @pytest.mark.parametrize("dim", [*range(1, 18), 32, 63, 64, 65])
    def test_gathered_blocks_score_like_the_full_product(self, dim):
        """The rescoring relies on OpenBLAS's gemv on one thread: a gathered
        product of whole 4-row blocks, then the n % 4 tail rows together with
        the block before them, equals the full product on those rows bit for
        bit. The sizes stay below those at which gemv uses more threads."""
        nprng = np.random.default_rng(dim)
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 37, 38, 39, 40, 255, 256, 257, 258]:
            matrix = nprng.standard_normal((n, dim))
            head = n - n % 4
            tail = np.arange(max(head - 4, 0), n) if n % 4 else np.arange(0)
            free_blocks = head // 4 - (1 if n % 4 else 0)  # blocks not scored with the tail
            for trial in range(6):
                q = nprng.standard_normal(dim)
                blocks = np.sort(nprng.permutation(max(free_blocks, 0))[: 1 + trial])
                with_tail = len(tail) > 0 and (trial % 2 == 1 or len(blocks) == 0)
                rows = np.concatenate([(4 * blocks[:, None] + np.arange(4)).ravel(),
                                       tail if with_tail else np.arange(0)])
                got = (matrix[rows] @ q).tobytes()
                assert got == (matrix @ q)[rows].tobytes(), (
                    f"BLAS assumption broken at n={n}, dim={dim}: a gathered product of 4-row blocks "
                    f"and the tail with its preceding block no longer has the full product's bits, "
                    f"so retrieve.search is no longer exact"
                )

    def test_float32_copy_is_built_by_the_first_search_only(self, rng, tmp_path):
        def has_copy(index):
            return any(isinstance(v, np.ndarray) and v.dtype == np.float32 for v in vars(index).values())

        params = small_params()
        built = build_flat_index(make_corpus([random_text(rng, 6) for _ in range(9)]), params)
        save_index(built, tmp_path / "index.rfi", MODEL)
        assert not has_copy(built)
        assert not has_copy(load_flat_index(tmp_path / "index.rfi"))

        n, dim = 1 << 14, 64
        nprng = np.random.default_rng(5)
        matrix = nprng.standard_normal((n, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        save_index(FlatIndex(ids=[f"d{i}" for i in range(n)], matrix=matrix, dim=dim), tmp_path / "big.rfi", MODEL)
        index = load_flat_index(tmp_path / "big.rfi")
        q = matrix[7].copy()
        tracemalloc.start()
        try:
            got = search(index, q, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert has_copy(index)
        assert got[0][0] == "d7"
        # The float32 copy is half the matrix; a full-size float64 temporary would double that.
        assert 0.5 * matrix.nbytes <= peak <= 0.6 * matrix.nbytes


SRC = Path(__file__).resolve().parents[1] / "src"

# n = 1 (mod 4) rows, past the size at which OpenBLAS splits a gemv over
# threads. Every call scores every row with the full product: `top_k >= n`,
# a zero query, and a query so small that the float32 scan sees only zeros.
THREADS_CHILD = """
import json
import numpy as np
from rare.retrieve import FlatIndex, search
n, dim = 16385, 64
rng = np.random.default_rng(11)
matrix = rng.uniform(-1, 1, (n, dim))
matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
index = FlatIndex(ids=[f"d{i}" for i in range(n)], matrix=matrix, dim=dim)
q = matrix[3].copy()
calls = [(q, n), (q, n + 5), (np.zeros(dim), n), (np.zeros(dim), 10), (q * 2.0**-600, 10)]
print(json.dumps([[score.hex() for _, score in search(index, v, k)] for v, k in calls]))
"""


def test_scores_do_not_depend_on_the_blas_thread_count():
    scores = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        scores.append(json.loads(result.stdout))
    assert scores[0] == scores[1]


def disambiguation_fixture():
    corpus = {
        "fruit1": Document(id="fruit1", title="", text="apple banana cherry nectar"),
        "fruit2": Document(id="fruit2", title="", text="banana maple orchid apple"),
        "sky1": Document(id="sky1", title="", text="cloud frost zephyr lunar"),
        "sky2": Document(id="sky2", title="", text="frost tundra cloud galaxy"),
    }
    pool = ExamplePool(
        task_id="t",
        examples=[
            ICExample(query="orchard picks", positive="apple banana cherry nectar"),
            ICExample(query="weather report", positive="cloud frost zephyr lunar"),
        ],
    )
    return corpus, pool


class TestRunInference:
    def test_k_zero_equals_inst(self, rng):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id=f"q{i}", text=random_text(rng, 5)) for i in range(6)]
        ic = run_inference(
            queries, "find it", pool, index, params,
            PromptFormat(kind=FormatKind.INST_IC), k=0, top_k=4,
        )
        inst = run_inference(
            queries, "find it", None, index, params,
            PromptFormat(kind=FormatKind.INST), k=0, top_k=4,
        )
        assert ic == inst

    def test_single_query_single_doc(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple banana"]), params)
        run = run_inference(
            [Query(id="q1", text="apple")], "", None, index, params,
            PromptFormat(kind=FormatKind.INST), k=0, top_k=10,
        )
        assert list(run) == ["q1"]
        assert len(run["q1"]) == 1

    def test_run_twice_identical(self):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard fruit"), Query(id="q2", text="weather frost")]
        kwargs = dict(fmt=PromptFormat(kind=FormatKind.INST_IC), k=1, top_k=4, seed=3)
        a = run_inference(queries, "", pool, index, params, **kwargs)
        b = run_inference(queries, "", pool, index, params, **kwargs)
        assert a == b

    def test_examples_change_ranking(self):
        # An ambiguous query plus a fruit-flavored in-context example should
        # pull fruit documents up relative to the bare rendering.
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard picks")]
        ic = run_inference(
            queries, "", pool, index, params,
            PromptFormat(kind=FormatKind.INST_IC), k=1, top_k=4,
        )
        assert ic["q1"][0][0].startswith("fruit")

    def test_serving_leaves_the_gram_table_empty(self, monkeypatch, rng):
        # Queries are embedded with a memo per call; the process's gram counts
        # still count every lookup.
        counts = embedder._GramCounts()
        monkeypatch.setattr(embedder, "_bucket", counts)
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        before = counts.cache_info()
        texts = []
        real_embed = retrieve.embed
        monkeypatch.setattr(retrieve, "embed", lambda p, text: texts.append(text) or real_embed(p, text))
        queries = [Query(id=f"q{i}", text=random_text(rng, 6)) for i in range(8)]
        run_inference(queries, "find it", pool, index, params, PromptFormat(kind=FormatKind.INST_IC), k=2, top_k=4)
        assert len(texts) == len(queries)
        info = counts.cache_info()
        grams = sum(max(len(bm25.tokenize(text)) - n + 1, 0) for text in texts for n in params.ngram_orders)
        assert info.hits + info.misses - before.hits - before.misses == grams
        assert info.hits > before.hits  # repeats within one rendered query

    def test_missing_pool_rejected(self):
        params = small_params()
        index = build_flat_index(make_corpus(["apple"]), params)
        with pytest.raises(SpecInvalid, match="pool"):
            run_inference(
                [Query(id="q", text="x")], "", None, index, params,
                PromptFormat(kind=FormatKind.INST_IC), k=2, top_k=3,
            )

    def test_stage_times_accumulate(self):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard fruit"), Query(id="q2", text="weather frost")]
        fmt = PromptFormat(kind=FormatKind.INST_IC)
        times = StageTimes()
        for _ in range(2):
            run_inference(queries, "", pool, index, params, fmt, k=1, top_k=4, times=times)
        # Each query's one BM25 neighbour is the pool entry it shares a term with.
        one_pass = (render_inst_ic("", [pool.examples[0]], "orchard fruit", fmt).approx_len
                    + render_inst_ic("", [pool.examples[1]], "weather frost", fmt).approx_len)
        assert times.tokens == 2 * one_pass
        assert times.select_s > 0.0 and times.query_s > 0.0 and times.search_s > 0.0
        assert (times.queries, times.zero_queries) == (4, 0)

    def test_zero_query_embeddings_counted_not_logged(self, caplog):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        params.projection[:] = 0.0  # every query now embeds to all zeros
        queries = [Query(id="q1", text="orchard fruit"), Query(id="q2", text="weather frost")]
        times = StageTimes()
        with caplog.at_level("DEBUG"):
            run = run_inference(queries, "", pool, index, params, PromptFormat(kind=FormatKind.INST_IC),
                                k=1, top_k=4, times=times)
        assert (times.queries, times.zero_queries) == (2, 2)
        assert caplog.records == []
        assert [doc_id for doc_id, _ in run["q1"]] == sorted(corpus)


class TestPoolIndex:
    """The pool builds its BM25 index once, on first use, for every caller."""

    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls = []
        real = bm25.build_index

        def counting(texts):
            calls.append(len(texts))
            return real(texts)

        monkeypatch.setattr(bm25, "build_index", counting)
        return calls

    def test_train_and_inference_share_one_index(self, build_calls):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        train_set = [
            TrainExample(task_id="t", instruction="", query=f"orchard picks {i}",
                         positive="apple banana", negative="cloud frost")
            for i in range(4)
        ]
        config = TrainConfig(k=1, epochs=2, batch_size=2, ic_mixture=1.0)
        train(train_set, {"t": pool}, params, config)
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard fruit")]
        for _ in range(2):
            run_inference(queries, "", pool, index, params, PromptFormat(kind=FormatKind.INST_IC), k=1, top_k=4)
        assert build_calls == [len(pool)]

    def test_inst_profile_never_builds(self, build_calls):
        params = small_params()
        corpus, pool = disambiguation_fixture()
        index = build_flat_index(corpus, params)
        queries = [Query(id="q1", text="orchard fruit")]
        profile("toy", queries, "", None, index, params, FormatKind.INST, repetitions=1)
        profile("toy", queries, "", pool, index, params, FormatKind.INST, repetitions=1)
        assert build_calls == []


class TestRunFiles:
    def test_write_format(self, tmp_path):
        path = tmp_path / "run.trec"
        write_run({"q1": [("d9", 0.25), ("d2", 0.125)]}, path, tag="sys")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["q1 Q0 d9 1 0.250000 sys", "q1 Q0 d2 2 0.125000 sys"]

    def test_round_trip(self, tmp_path):
        run = {"q1": [("d1", 0.5), ("d2", 0.25)], "q2": [("d3", 0.125)]}
        path = tmp_path / "run.trec"
        write_run(run, path)
        assert load_run(path) == run

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_run(path)
        assert err.value.line_no == 2

    def test_bad_score(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 abc tag\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_run(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5 tag\n\n", encoding="utf-8")
        assert len(load_run(path)) == 1

    @pytest.mark.parametrize("second, reason", [
        ("q1 Q0 d1 2 0.4 tag", "document 'd1' is listed twice for query 'q1'"),
        ("q1 Q0 d2 x 0.4 tag", "rank 'x' is not an integer"),
        ("q1 Q0 d2 1 0.4 tag", "rank 1 of query 'q1' does not follow rank 1"),
        ("q1 Q0 d2 0 0.4 tag", "rank 0 of query 'q1' does not follow rank 1"),
    ])
    def test_repeated_document_and_bad_rank_name_the_line(self, tmp_path, second, reason):
        path = tmp_path / "run.trec"
        path.write_text(f"q1 Q0 d1 1 0.5 tag\nq2 Q0 d1 1 0.5 tag\n{second}\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_run(path)
        assert str(err.value) == f"{path}:3: {reason}"

    def test_queries_may_interleave(self, tmp_path):
        # Ranks increase within each query, not across the file, and
        # one document may be listed once for each query.
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.5 t\nq2 Q0 d1 1 0.5 t\nq1 Q0 d2 3 0.25 t\nq2 Q0 d3 7 0.125 t\n",
                        encoding="utf-8")
        assert load_run(path) == {"q1": [("d1", 0.5), ("d2", 0.25)], "q2": [("d1", 0.5), ("d3", 0.125)]}


class TestIndexSerialization:
    def make_index(self, rng, n=7, dim=5):
        mat = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)])
        ids = [f"doc-{i}" for i in range(n - 1)] + ["unicode-ид"]
        return FlatIndex(ids=ids, matrix=mat, dim=dim)

    def test_round_trip(self, rng, tmp_path):
        index = self.make_index(rng)
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        loaded = load_flat_index(path)
        assert loaded.ids == index.ids
        assert loaded.dim == index.dim
        assert loaded.matrix.tobytes() == index.matrix.tobytes()
        assert loaded.model == MODEL

    def test_saving_into_the_file_it_reads_keeps_the_file(self, rng, tmp_path):
        # A loaded index, or one built into a writer, reads its rows from the
        # file at `path`: saving it there used to truncate the file, then fail.
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path, MODEL)
        blob = path.read_bytes()
        save_index(load_flat_index(path), path, MODEL)
        assert path.read_bytes() == blob
        (tmp_path / "d").mkdir()
        writer = retrieve.IndexWriter(path, MODEL)
        built = build_flat_index(make_corpus(["alpha beta", "gamma"]), small_params(), writer)
        blob = path.read_bytes()
        save_index(built, tmp_path / "d" / ".." / "index.bin", MODEL)  # another spelling of the path
        assert path.read_bytes() == blob
        assert load_flat_index(path).matrix.tobytes() == built.matrix.tobytes()

    def test_saving_into_the_file_it_reads_for_another_model_is_refused(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path, MODEL)
        blob = path.read_bytes()
        with pytest.raises(DataError, match="names another model; save them to another file$"):
            save_index(load_flat_index(path), path, hashlib.sha256(b"another model").hexdigest())
        assert path.read_bytes() == blob

    def test_index_built_in_memory_names_no_model(self):
        assert build_flat_index(make_corpus(["alpha beta"]), small_params()).model is None

    def test_version_1_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "index.bin"  # version 1: no model digest after n, dim
        path.write_bytes(b"RFI1" + struct.pack("<IQQI", 1, 1, 2, 2) + b"d1" + struct.pack("<2d", 0.6, 0.8))
        with pytest.raises(VersionMismatch, match=r"unsupported index version 1; rebuild it with `rare index`$"):
            load_flat_index(path)

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path, MODEL)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("Z")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_flat_index(path)

    def test_version_mismatch(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path, MODEL)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_flat_index(path)

    def test_every_strict_prefix_raises_truncated(self, rng, tmp_path):
        index = self.make_index(rng, n=3, dim=2)
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(Truncated):
                load_flat_index(cut)

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self.make_index(rng), path, MODEL)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(Truncated):
            load_flat_index(path)

    def test_non_finite_file_rejected(self, rng, tmp_path):
        index = self.make_index(rng)
        index.matrix[-1, -1] = np.nan
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        with pytest.raises(NonFiniteParams):
            load_flat_index(path)

    def test_bad_utf8_id_rejected(self, rng, tmp_path):
        index = self.make_index(rng, n=2, dim=2)
        index.ids = ["a", "b"]
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        blob = path.read_bytes()
        # Layout: magic(4) version(4) n(8) dim(8) model(32), then u32 length + "a".
        path.write_bytes(blob[:60] + b"\xff" + blob[61:])
        with pytest.raises(DataError, match="UTF-8"):
            load_flat_index(path)

    def test_id_block_is_read_with_one_call(self, rng, tmp_path, monkeypatch):
        index = self.make_index(rng, n=50, dim=3)
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        reads = []
        real_take = Reader.take

        def counting_take(reader, n):
            reads.append(n)
            return real_take(reader, n)

        monkeypatch.setattr(Reader, "take", counting_take)
        assert load_flat_index(path).ids == index.ids
        assert len(reads) == 4  # magic, version, (n, dim, model), the id block

    def test_id_length_past_the_block_is_truncated(self, rng, tmp_path):
        index = self.make_index(rng, n=2, dim=2)
        index.ids = ["a", "b"]
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 56, 7)  # the first id claims 7 bytes; the id block holds 10
        path.write_bytes(bytes(blob))
        with pytest.raises(Truncated):
            load_flat_index(path)

    def test_bad_utf8_names_its_offset(self, rng, tmp_path):
        index = self.make_index(rng, n=2, dim=2)
        index.ids = ["a", "b"]
        path = tmp_path / "index.bin"
        save_index(index, path, MODEL)
        blob = path.read_bytes()
        path.write_bytes(blob[:65] + b"\xff" + blob[66:])  # the second id's byte
        with pytest.raises(DataError, match="string at offset 65 is not valid UTF-8"):
            load_flat_index(path)


class TestStoredIndex:
    """A loaded index, and one `build_flat_index` writes into an
    `IndexWriter`, keep their float64 rows in the file: they read them in
    slices and gathered blocks, and score with the bits of `matrix @ q`."""

    N, DIM = 1 << 14, 64

    @pytest.fixture
    def big(self, tmp_path) -> tuple[np.ndarray, Path]:
        matrix = np.random.default_rng(5).standard_normal((self.N, self.DIM))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        path = tmp_path / "big.rfi"
        save_index(FlatIndex(ids=[f"d{i}" for i in range(self.N)], matrix=matrix, dim=self.DIM), path, MODEL)
        return matrix, path

    def test_load_and_first_search_hold_the_float32_copy_and_no_more(self, big):
        matrix, path = big
        tracemalloc.start()
        try:
            index = load_flat_index(path)
            held, _ = tracemalloc.get_traced_memory()
            got = search(index, matrix[7].copy(), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[0][0] == "d7"
        ids = sys.getsizeof(index.ids) + sum(map(sys.getsizeof, index.ids))
        assert held <= ids + (64 << 10)  # the ids; none of the float64 rows
        # The float32 copy is half the matrix; the rest is slices and the scan's scores.
        assert peak - ids <= 0.6 * matrix.nbytes

    def test_build_and_save_through_a_writer_hold_no_matrix(self, tmp_path):
        words = [f"w{i}" for i in range(3000)]
        rng = random.Random(1)
        corpus = make_corpus([" ".join(rng.choices(words, k=8)) for _ in range(self.N)])
        params = new_params(hash_dim=4096, embed_dim=self.DIM, seed=1)
        out = tmp_path / "built.rfi"
        tracemalloc.start()
        try:
            writer = retrieve.IndexWriter(out, MODEL)
            index = build_flat_index(corpus, params, writer)
            save_index(index, out, MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == self.N
        assert peak < 0.5 * 8 * self.N * self.DIM

    def test_a_loaded_corpus_holds_its_ids_and_spans_not_its_texts(self, tmp_path):
        words = [f"w{i}" for i in range(3000)]
        rng = random.Random(1)
        n = 1 << 13
        docs = {f"doc-{i}": Document(f"doc-{i}", "", " ".join(rng.choices(words, k=32))) for i in range(n)}
        path = tmp_path / "corpus.jsonl"
        write_corpus(docs, path)
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ids = sum(map(sys.getsizeof, corpus))
        texts = sum(sys.getsizeof(doc.text) for doc in docs.values())
        # Per document, its 16-byte span, its dict entry and its row number
        # take under 80 bytes: 69 here. The texts take 228.
        per_doc = 80 * n + (64 << 10)
        assert texts > 2 * per_doc
        assert held <= ids + per_doc
        assert peak <= held + (64 << 10)  # a line at a time
        assert corpus == docs

    def test_writer_bytes_and_rows_equal_the_in_memory_build(self, rng, tmp_path):
        params = small_params()
        corpus = make_corpus([random_text(rng, 6) for _ in range(2 * 1024 + 3)])
        built = build_flat_index(corpus, params)
        save_index(built, tmp_path / "memory.rfi", MODEL)
        out = tmp_path / "streamed.rfi"
        writer = retrieve.IndexWriter(out, MODEL)
        streamed = build_flat_index(corpus, params, writer)
        save_index(streamed, out, MODEL)
        assert out.read_bytes() == (tmp_path / "memory.rfi").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.rfi", "streamed.rfi"]
        assert streamed.model == MODEL
        assert streamed.matrix.tobytes() == built.matrix.tobytes()
        q = built.matrix[5].copy()
        assert search(streamed, q, 10) == search(built, q, 10)

    def test_stored_rows_read_as_the_matrix_indexes(self, tmp_path):
        index = FlatIndex(ids=[f"d{i}" for i in range(37)], matrix=np.random.default_rng(2).uniform(-1, 1, (37, 5)),
                          dim=5)
        save_index(index, tmp_path / "i.rfi", MODEL)
        stored = load_flat_index(tmp_path / "i.rfi").rows
        for key in (slice(None), slice(3, 9), slice(30, 99), slice(9, 3), np.array([0, 1, 2, 3, 8, 9, 36]),
                    np.array([36, 4, 5, 5, 0]), np.array([], dtype=np.int64)):
            assert stored[key].tobytes() == index.matrix[key].tobytes(), key
        with pytest.raises(IndexError):
            stored[np.array([35, 36, 37])]

    def test_a_file_that_shrinks_after_the_scan_is_truncated(self, big):
        matrix, path = big
        index = load_flat_index(path)
        q = matrix[7].copy()
        expected = search(index, q, 10)
        # The path may be replaced: the index reads the file it opened.
        path.rename(path.with_name("moved.rfi"))
        path.write_bytes(b"RFI1")
        assert search(index, q, 10) == expected
        with path.with_name("moved.rfi").open("r+b") as fh:
            fh.truncate(fh.seek(0, 2) - 8 * self.DIM)
        with pytest.raises(Truncated, match="the file shrank"):
            search(index, matrix[self.N - 1].copy(), 10)


def _die(_start):
    os._exit(1)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


# `rare index` after an unflushed line, with ranges small enough to fork workers.
ONCE_CHILD = """
import sys
from rare import cli, embedder
print("before")
embedder._TASK_TEXTS = 64
sys.argv = ["rare", *sys.argv[1:]]
cli.main()
"""


class TestIndexOverWorkers:
    """An index build of more than one range of texts featurizes them in
    forked workers and projects every row here; no worker outlives it."""

    @pytest.fixture
    def seed7(self, tmp_path) -> tuple[Path, Path]:
        data, model = tmp_path / "data", tmp_path / "m.rare"
        assert dispatch(["synth", "--out", str(data), "--seed", "7"]) == 0
        save(new_params(hash_dim=1 << 16, embed_dim=16, seed=1), model)
        return data / "corpus.jsonl", model

    def test_serving_and_the_pipeline_corpus_never_fork(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        bench = generate(SynthSpec())
        params = small_params()
        index = build_flat_index(bench.corpus, params)
        assert len(index) == 320
        run = run_inference(bench.queries, "", bench.pool, index, params,
                            PromptFormat(kind=FormatKind.INST_IC), k=5, top_k=10)
        assert len(run) == len(bench.queries)

    @TWO_CPUS
    def test_a_dead_worker_is_exit_two_in_one_line(self, seed7, tmp_path, monkeypatch, capfd):
        corpus, model = seed7
        out = tmp_path / "i.rfi"
        monkeypatch.setattr(embedder, "_TASK_TEXTS", 64)
        monkeypatch.setattr(embedder, "_worker_chunks", _die)
        capfd.readouterr()
        code = dispatch(["index", "--corpus", str(corpus), "--model", str(model), "--out", str(out)])
        err = capfd.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: a featurizing worker process ended before returning its texts"], err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @TWO_CPUS
    def test_overflow_mid_build_is_exit_three_and_leaves_no_worker(self, seed7, tmp_path, monkeypatch, capfd):
        corpus, model = seed7
        params = load(model)
        texts = [document_text(doc) for doc in load_corpus(corpus).values()]
        # Columns only document 150 reaches: its row is the one that overflows,
        # while later ranges are still pending.
        others = set().union(*(featurize(params, text) for i, text in enumerate(texts) if i != 150))
        cols = sorted(set(featurize(params, texts[150])) - others)
        assert cols
        params.projection[:, cols] *= 1e200
        save(params, model)
        out = tmp_path / "i.rfi"
        monkeypatch.setattr(embedder, "_TASK_TEXTS", 32)
        capfd.readouterr()
        code = dispatch(["index", "--corpus", str(corpus), "--model", str(model), "--out", str(out)])
        err = capfd.readouterr().err
        assert code == 3
        assert err.splitlines() == ["numeric failure: embedding norm overflowed"], err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @TWO_CPUS
    def test_output_before_the_fork_is_printed_once(self, seed7, tmp_path):
        # A forked worker flushes its copy of stdout when it ends, so whatever
        # this process had buffered must be flushed before the fork.
        corpus, model = seed7
        out, log = tmp_path / "i.rfi", tmp_path / "stdout.txt"
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)  # a file gets a block buffer
        with log.open("w") as stdout:
            result = subprocess.run(
                [sys.executable, "-c", ONCE_CHILD, "index", "--corpus", str(corpus), "--model", str(model),
                 "--out", str(out)],
                env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert log.read_text().splitlines() == ["before", f"indexed 320 documents into {out}"]

    @TWO_CPUS
    def test_index_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        data, model = tmp_path / "data", tmp_path / "m.rare"
        assert dispatch(["synth", "--out", str(data), "--clusters", "8", "--docs", "160"]) == 0
        save(new_params(hash_dim=4096, embed_dim=16, seed=2), model)
        cpu = min(os.sched_getaffinity(0))
        blobs = []
        for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):  # this child alone
            out = tmp_path / f"i{len(blobs)}.rfi"
            result = subprocess.run(
                [sys.executable, "-m", "rare.cli", "index", "--corpus", str(data / "corpus.jsonl"),
                 "--model", str(model), "--out", str(out)],
                env=_child_env(), preexec_fn=pin, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout == f"indexed 1280 documents into {out}\n"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestStreamedBuildOverWorkers:
    """While workers featurize the ranges of a streamed build, this process
    holds only a few small ranges of their results at a time."""

    @TWO_CPUS
    def test_streaming_8k_documents_holds_under_two_mib(self, tmp_path):
        words = [f"w{i}" for i in range(3000)]
        rng = random.Random(1)
        corpus = make_corpus([" ".join(rng.choices(words, k=32)) for _ in range(1 << 13)])
        params = new_params(hash_dim=4096, embed_dim=16, seed=1)
        built = build_flat_index(corpus, params)  # loads what the pool imports before tracing
        out = tmp_path / "built.rfi"
        tracemalloc.start()
        try:
            writer = retrieve.IndexWriter(out, MODEL)
            index = build_flat_index(corpus, params, writer)
            save_index(index, out, MODEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.matrix.tobytes() == built.matrix.tobytes()
        assert multiprocessing.active_children() == []
        # Ranges of 1,024 texts held 3.4-4.4 MiB here, ranges of 256 1.0-1.2 MiB.
        assert peak < 2 << 20


# Non-ASCII texts: accents, a combining mark, an emoji, and `\x85` and
# `\u2028`, which end a line for str.splitlines but not in a text-mode file.
ODD_TEXTS = ["caf\u00e9 cr\u00e8me", "emoji \U0001f642 here", "e\u0301 combining", "next\x85line", "line\u2028sep",
             "ascii"]


class TestIndexFromACorpusFile:
    """`rare index` of a corpus file, whose documents are read back from it by
    byte span, writes the bytes of the same documents indexed from a dict,
    however the file's lines end."""

    @pytest.mark.parametrize("newline, blank, last", [
        ("\n", "", "\n"),
        ("\r\n", "", "\r\n"),
        ("\r", "", "\r"),
        ("\n", "\n \r\n\t\r", "\n"),  # blank lines between documents
        ("\r\n", "", ""),  # no newline after the last document
    ])
    @pytest.mark.parametrize("n", [40, pytest.param(1100, marks=TWO_CPUS)])  # in this process, or in workers
    def test_bytes_equal_an_index_of_the_documents_in_a_dict(self, tmp_path, newline, blank, last, n):
        rng = random.Random(n)
        docs = {f"d{i}": Document(f"d{i}", ODD_TEXTS[i % 6] if i % 3 else "",
                                  f"{ODD_TEXTS[(5 * i) % 6]} {random_text(rng)}") for i in range(n)}
        corpus, model = tmp_path / "corpus.jsonl", tmp_path / "m.rare"
        lines = [json.dumps({"_id": d.id, "title": d.title, "text": d.text}, ensure_ascii=False) for d in docs.values()]
        corpus.write_bytes(((newline + blank).join(lines) + last).encode("utf-8"))
        params = small_params()
        save(params, model)
        expected, out = tmp_path / "dict.rfi", tmp_path / "file.rfi"
        save_index(build_flat_index(docs, params), expected, hashlib.sha256(model.read_bytes()).hexdigest())
        assert load_corpus(corpus) == docs
        assert dispatch(["index", "--corpus", str(corpus), "--model", str(model), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
