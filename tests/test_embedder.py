"""Hashed n-gram embedder: feature extraction, projection, cosine, and the
binary parameter format."""

from __future__ import annotations

import dataclasses
import functools
import math
import multiprocessing
import subprocess
import sys
from concurrent.futures.process import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rare import embedder
from rare.embedder import EmbedderParams, cosine, embed, feature_arrays, featurize, load, new_params, project, save
from rare.errors import BadMagic, DimMismatch, NonFiniteParams, SerializationError, Truncated, VersionMismatch
from rare.retrieve import document_text
from rare.synth import SynthSpec, generate

from conftest import TWO_CPUS, WORDS, no_pool, random_text


def small_params(seed=0, orders=(1, 2), hash_dim=512, embed_dim=16, max_tokens=None):
    return new_params(
        hash_dim=hash_dim,
        embed_dim=embed_dim,
        ngram_orders=orders,
        seed=seed,
        max_tokens=max_tokens,
    )


class TestFeaturize:
    def test_empty_text(self):
        assert featurize(small_params(), "") == {}

    def test_punctuation_only_text(self):
        assert featurize(small_params(), "... !!") == {}

    def test_single_repeated_token_unigrams(self):
        params = small_params(orders=(1,))
        feats = featurize(params, "a a")
        assert len(feats) == 1
        (value,) = feats.values()
        assert value == 1.0

    def test_values_sum_to_one(self, rng):
        params = small_params()
        for _ in range(50):
            text = random_text(rng, max_tokens=12)
            feats = featurize(params, text)
            if feats:
                assert abs(math.fsum(feats.values()) - 1.0) < 1e-9

    def test_gram_count_oracle(self, rng):
        # n tokens produce n unigrams and n-1 bigrams; the normalized values
        # must therefore be multiples of 1/(2n-1).
        params = small_params(orders=(1, 2))
        for _ in range(30):
            n = rng.randrange(2, 10)
            tokens = [rng.choice(WORDS) for _ in range(n)]
            feats = featurize(params, " ".join(tokens))
            total = 2 * n - 1
            for value in feats.values():
                scaled = value * total
                assert abs(scaled - round(scaled)) < 1e-9

    def test_max_tokens_truncates(self):
        params = small_params(orders=(1,), max_tokens=2)
        full = small_params(orders=(1,))
        assert featurize(params, "a b c d") == featurize(full, "a b")

    def test_unigram_permutation_invariance(self, rng):
        params = small_params(orders=(1,))
        for _ in range(20):
            tokens = [rng.choice(WORDS) for _ in range(rng.randrange(1, 10))]
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            assert featurize(params, " ".join(tokens)) == featurize(params, " ".join(shuffled))

    def test_seed_changes_buckets(self):
        a = featurize(small_params(seed=1, orders=(1,)), "alpha beta gamma delta")
        b = featurize(small_params(seed=2, orders=(1,)), "alpha beta gamma delta")
        assert set(a) != set(b)

    def test_cross_process_determinism(self):
        code = (
            "from rare.embedder import featurize, new_params\n"
            "p = new_params(hash_dim=512, embed_dim=8, ngram_orders=(1,2), seed=3)\n"
            "feats = featurize(p, 'alpha beta gamma delta epsilon')\n"
            "print(sorted(feats.items()))\n"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        params = small_params(seed=3, hash_dim=512, embed_dim=8)
        here = sorted(featurize(params, "alpha beta gamma delta epsilon").items())
        assert runs[0].strip() == str(here)


class TestProjectAndEmbed:
    def test_project_matches_dense_oracle(self, rng):
        params = small_params(hash_dim=64, embed_dim=8)
        for _ in range(20):
            feats = featurize(params, random_text(rng, max_tokens=8))
            x = np.zeros(params.hash_dim)
            for bucket, value in feats.items():
                x[bucket] += value
            np.testing.assert_allclose(project(params, *feature_arrays(feats)), params.projection @ x, atol=1e-12)

    def test_embed_unit_norm(self, rng):
        params = small_params()
        for _ in range(30):
            text = random_text(rng, max_tokens=10)
            norm = float(np.linalg.norm(embed(params, text)))
            assert abs(norm - 1.0) < 1e-9

    def test_embed_empty_is_zero_vector(self):
        params = small_params()
        v = embed(params, "")
        assert v.shape == (params.embed_dim,)
        assert not v.any()

    def test_scale_invariance(self):
        # Scaling W leaves the normalized embedding bit-identical because
        # u/|u| == (c*u)/|c*u| in IEEE double for c a power of two.
        params = small_params(seed=5)
        scaled = EmbedderParams(
            hash_dim=params.hash_dim,
            embed_dim=params.embed_dim,
            ngram_orders=params.ngram_orders,
            projection=params.projection * 2.0,
            hash_seed=params.hash_seed,
            max_tokens=params.max_tokens,
        )
        a = embed(params, "alpha beta gamma")
        b = embed(scaled, "alpha beta gamma")
        assert a.tobytes() == b.tobytes()

    def test_non_finite_projection_rejected(self):
        params = small_params()
        params.projection[0, :] = np.inf
        feats = featurize(params, "alpha beta")
        with pytest.raises(NonFiniteParams):
            project(params, *feature_arrays(feats))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_norm_overflow_rejected(self):
        # Finite entries near 1e198 overflow the norm; u / inf would embed to zero.
        params = small_params()
        params.projection *= 1e200
        u = project(params, *feature_arrays(featurize(params, "alpha beta")))
        assert np.all(np.isfinite(u))
        with pytest.raises(NonFiniteParams):
            embed(params, "alpha beta")

    def test_unit_keeps_the_division_bits(self, rng):
        params = small_params()
        for _ in range(30):
            u = project(params, *feature_arrays(featurize(params, random_text(rng, max_tokens=10))))
            e, norm = embedder.unit(u)
            assert norm == float(np.linalg.norm(u))
            assert e.tobytes() == (u / norm).tobytes()
        e, norm = embedder.unit(np.zeros(params.embed_dim))
        assert norm == 0.0 and not e.any() and e.shape == (params.embed_dim,)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 64),
           exp=st.one_of(st.integers(-1074, 1023), st.integers(-540, -480)))
    def test_unit_entries_lie_in_the_search_range(self, seed, dim, exp):
        """From the smallest subnormal scale to the largest, `unit` returns
        entries in [-1, 1], the range `retrieve.search` takes, or raises.
        Entries of one vector spread over up to 60 binades, so some squares
        are subnormal while others are not."""
        nprng = np.random.default_rng(seed)
        u = np.ldexp(nprng.uniform(-1, 1, dim), exp - nprng.integers(0, 61, dim))
        try:
            with np.errstate(over="ignore", under="ignore"):
                e, norm = embedder.unit(u)
        except NonFiniteParams:
            return
        assert np.abs(e).max(initial=0.0) <= 1.0
        assert (norm == 0.0) == (not u.any())

    def test_underflowing_norm_rejected(self):
        # The square of 1e-161 is subnormal: its norm comes out as 9.94e-162,
        # and u / norm would be 1.006, outside the range search takes.
        u = np.array([1e-161, 0.0])
        with pytest.raises(NonFiniteParams, match="underflowed"):
            embedder.unit(u)
        e, norm = embedder.unit(np.ldexp(u, 300))
        assert np.abs(e).max() <= 1.0 and norm > 0.0

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 64),
           exp=st.one_of(st.integers(-1074, 1023), st.integers(-540, -480), st.integers(480, 540)))
    def test_unit_norm_has_the_bits_of_linalg_norm(self, seed, dim, exp):
        """`unit`'s norm is `np.linalg.norm`'s float, bit for bit, on huge,
        tiny, subnormal-holding and zero-holding vectors; where it raises, that
        norm is out of range."""
        nprng = np.random.default_rng(seed)
        u = np.ldexp(nprng.uniform(-1, 1, dim), exp - nprng.integers(0, 61, dim))
        u[nprng.random(dim) < 0.25] = 0.0
        with np.errstate(over="ignore", under="ignore"):
            expected = float(np.linalg.norm(u))
            try:
                norm = embedder.unit(u)[1]
            except NonFiniteParams:
                assert not math.isfinite(expected) or expected < 2.0**-511
                return
        assert type(norm) is float and norm.hex() == expected.hex()

    @pytest.mark.parametrize("u", [
        [1e150, -3e149, 7e149],  # huge: squares near 1e300
        [1e-150, 0.0, -2e-151],  # tiny, with a zero
        [0.5, 5e-324, -2.2e-308, 0.0],  # subnormal entries beside a normal one
        [0.0, 0.0, 0.0],
        [0.0, -0.0, 3.0],
    ])
    def test_unit_norm_named_cases(self, u):
        u = np.array(u)
        with np.errstate(under="ignore"):
            assert embedder.unit(u)[1].hex() == float(np.linalg.norm(u)).hex()


class TestCosine:
    def test_hand_case(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0])
        assert abs(cosine(a, b) - math.sqrt(0.5)) < 1e-12

    def test_self_similarity_one(self, rng):
        params = small_params()
        for _ in range(10):
            v = embed(params, random_text(rng, max_tokens=8))
            assert abs(cosine(v, v) - 1.0) < 1e-9

    def test_high_precision_oracle(self, rng):
        params = small_params()
        for _ in range(20):
            a = embed(params, random_text(rng, max_tokens=10))
            b = embed(params, random_text(rng, max_tokens=10))
            expected = math.fsum(
                float(x) * float(y) for x, y in zip(a.tolist(), b.tolist())
            )
            assert abs(cosine(a, b) - expected) < 1e-12

    def test_zero_vector_convention(self):
        zero = np.zeros(4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert cosine(zero, v) == 0.0
        assert cosine(zero, zero) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine(np.zeros(3), np.zeros(4))


class TestNewParams:
    def test_shape_and_bound(self):
        params = small_params(hash_dim=128, embed_dim=8)
        assert params.projection.shape == (8, 128)
        bound = 1.0 / math.sqrt(128)
        assert np.all(np.abs(params.projection) <= bound)

    def test_orders_sorted_and_deduped(self):
        params = new_params(hash_dim=8, embed_dim=2, ngram_orders=(2, 1, 2))
        assert params.ngram_orders == (1, 2)

    def test_seed_determinism(self):
        a = small_params(seed=7)
        b = small_params(seed=7)
        assert a.projection.tobytes() == b.projection.tobytes()

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            new_params(hash_dim=0, embed_dim=4)
        with pytest.raises(ValueError):
            new_params(hash_dim=4, embed_dim=4, ngram_orders=(0,))
        with pytest.raises(ValueError):
            new_params(hash_dim=4, embed_dim=4, ngram_orders=())


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        params = small_params(seed=11, max_tokens=40)
        path = tmp_path / "model.bin"
        save(params, path)
        loaded = load(path)
        assert loaded.hash_dim == params.hash_dim
        assert loaded.embed_dim == params.embed_dim
        assert loaded.ngram_orders == params.ngram_orders
        assert loaded.hash_seed == params.hash_seed
        assert loaded.max_tokens == params.max_tokens
        assert loaded.projection.tobytes() == params.projection.tobytes()

    def test_round_trip_none_max_tokens(self, tmp_path):
        path = tmp_path / "model.bin"
        save(small_params(), path)
        assert load(path).max_tokens is None

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save(small_params(seed=2), a)
        save(small_params(seed=2), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        save(small_params(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.bin"
        save(small_params(), path)
        blob = bytearray(path.read_bytes())
        blob[5] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load(path)

    def test_every_strict_prefix_raises_truncated(self, tmp_path):
        params = small_params(hash_dim=8, embed_dim=2)
        path = tmp_path / "model.bin"
        save(params, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(Truncated):
                load(cut)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save(small_params(hash_dim=8, embed_dim=2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(Truncated):
            load(path)

    def test_non_finite_file_rejected(self, tmp_path):
        params = small_params(hash_dim=8, embed_dim=2)
        params.projection[0, 0] = np.nan
        path = tmp_path / "model.bin"
        save(params, path)
        with pytest.raises(NonFiniteParams):
            load(path)

    def test_header_shape_checked(self, tmp_path):
        # Layout: magic(5) version(4) hash_dim(8) embed_dim(8) n_orders(4) orders.
        path = tmp_path / "model.bin"
        save(small_params(hash_dim=8, embed_dim=2, orders=(1,)), path)
        good = path.read_bytes()
        for start, width in ((9, 8), (17, 8), (29, 4)):
            path.write_bytes(good[:start] + bytes(width) + good[start + width:])
            with pytest.raises(SerializationError):
                load(path)


# Words with repeats, non-ASCII letters and gram-free punctuation.
LAYOUT_WORDS = WORDS[:5] + ["naïve", "straße", "東京", "ωμέγα", "...", "!?", "a-b"]


@functools.lru_cache(maxsize=1)
def default_projections() -> tuple[np.ndarray, np.ndarray]:
    """A default-size W, column-major as held and as a row-major copy."""
    projection = new_params(seed=3).projection
    return projection, np.ascontiguousarray(projection)


class TestColumnMajorLayout:
    """W is held column-major in memory; no embedding or file byte may depend on it."""

    @settings(max_examples=80, deadline=None)
    @given(
        text=st.one_of(st.lists(st.sampled_from(LAYOUT_WORDS), max_size=100).map(" ".join), st.text(max_size=40)),
        orders=st.sampled_from([(1,), (1, 2), (1, 2, 3)]),
        max_tokens=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_layout_moves_no_bit(self, text, orders, max_tokens):
        column_major, row_major_w = default_projections()
        params = EmbedderParams(hash_dim=column_major.shape[1], embed_dim=column_major.shape[0],
                                ngram_orders=orders, projection=column_major, hash_seed=3, max_tokens=max_tokens)
        row_major = dataclasses.replace(params, projection=row_major_w)
        assert params.projection.flags.f_contiguous and row_major.projection.flags.c_contiguous
        cols, vals = feature_arrays(featurize(params, text))
        assert project(params, cols, vals).tobytes() == project(row_major, cols, vals).tobytes()
        assert embed(params, text).tobytes() == embed(row_major, text).tobytes()

    def test_new_params_and_load_are_column_major(self, tmp_path):
        params = small_params(seed=4)
        assert params.projection.flags.f_contiguous
        path = tmp_path / "model.bin"
        save(params, path)
        assert load(path).projection.flags.f_contiguous

    def test_save_bytes_do_not_depend_on_layout(self, tmp_path):
        # The file holds W column-major (version 2) whatever the array's order.
        params = small_params(seed=5, hash_dim=3000, embed_dim=40)
        a, b = tmp_path / "f.bin", tmp_path / "c.bin"
        save(params, a)
        save(dataclasses.replace(params, projection=np.ascontiguousarray(params.projection)), b)
        assert a.read_bytes() == b.read_bytes()
        header = len(a.read_bytes()) - params.projection.size * 8
        assert a.read_bytes()[header:] == params.projection.astype("<f8").tobytes(order="F")

    def test_load_save_round_trips_the_file(self, tmp_path):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save(small_params(seed=6, max_tokens=9, hash_dim=3000, embed_dim=40), first)
        save(load(first), second)
        assert second.read_bytes() == first.read_bytes()



class _CountedPool(ProcessPoolExecutor):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


class TestEmbedManyOverRanges:
    """`embed_many` featurizes ranges of `_TASK_TEXTS` texts in forked workers
    when it has more than one range and CPU; the rows keep the serial bits."""

    @staticmethod
    def seed7_texts() -> list[str]:
        texts = [document_text(doc) for doc in generate(SynthSpec()).corpus.values()]
        return [*texts[:100], "... !!", *texts[100:]]  # a gram-free text inside a range

    @TWO_CPUS
    def test_workers_give_the_serial_bits_and_counts(self, monkeypatch):
        params = small_params(seed=3, hash_dim=4096)
        texts = self.seed7_texts()
        monkeypatch.setattr(embedder, "_bucket", embedder._GramCounts())
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        serial = embedder.embed_many(params, texts)  # 321 texts: one range
        lookups = embedder._bucket.lookups
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", _CountedPool)
        monkeypatch.setattr(_CountedPool, "built", 0)
        monkeypatch.setattr(embedder, "_TASK_TEXTS", 50)  # 7 ranges
        monkeypatch.setattr(embedder, "_bucket", embedder._GramCounts())
        forked = embedder.embed_many(params, texts)
        assert _CountedPool.built == 1
        assert [list(map(float.hex, row)) for row in forked.tolist()] == \
            [list(map(float.hex, row)) for row in serial.tolist()]
        assert not forked[100].any()
        assert embedder._bucket.lookups == lookups
        assert multiprocessing.active_children() == []

    def test_one_range_or_one_cpu_stays_in_process(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        params = small_params()
        texts = self.seed7_texts()[:320]
        rows = embedder.embed_many(params, texts)  # the pipeline-S corpus size
        assert embed(params, texts[0]).tobytes() == rows[0].tobytes()
        monkeypatch.setattr(embedder, "_TASK_TEXTS", 50)
        monkeypatch.setattr(embedder.os, "sched_getaffinity", lambda _pid: {0})
        assert embedder.embed_many(params, texts).tobytes() == rows.tobytes()


class TestForkThreshold:
    """Forking starts past 1,024 texts, whatever the default `_TASK_TEXTS`:
    every query and the pipeline corpus stay in this process."""

    @TWO_CPUS
    def test_1024_texts_stay_in_process_and_1025_build_one_pool(self, rng, monkeypatch):
        params = small_params()
        texts = [random_text(rng, 6) for _ in range(1025)]
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        rows = embedder.embed_many(params, texts[:1024])
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", _CountedPool)
        monkeypatch.setattr(_CountedPool, "built", 0)
        forked = embedder.embed_many(params, texts)
        assert _CountedPool.built == 1
        assert forked[:1024].tobytes() == rows.tobytes()
        assert multiprocessing.active_children() == []


class TestMemo:
    @pytest.mark.parametrize("other", [{"hash_seed": 1}, {"hash_dim": 256}])
    def test_a_memo_for_another_model_is_refused(self, other):
        params = new_params(hash_dim=512, embed_dim=4, seed=0)
        memo = embedder.Memo(params, 1 << 12)
        embed(params, "alpha beta gamma", memo)
        held = dict(memo)
        with pytest.raises(DimMismatch, match="gram memo"):
            embed(dataclasses.replace(params, **other), "alpha beta gamma", memo)
        with pytest.raises(DimMismatch, match="gram memo"):
            featurize(dataclasses.replace(params, **other), "alpha", memo)
        assert memo == held

    def test_a_memo_empties_once_a_lookup_leaves_it_past_its_cap(self):
        params = new_params(hash_dim=512, embed_dim=4, ngram_orders=(1,), seed=0)
        memo = embedder.Memo(params, 3)
        a, b, again = memo.buckets(params, ["a", "b", "a"]).tolist()
        assert again == a and sorted(memo) == ["a", "b"]
        assert memo.buckets(params, ["b", "a"]).tolist() == [b, a] and len(memo) == 2
        fresh = embedder.Memo(params, 3).buckets(params, ["c", "d"])
        assert memo.buckets(params, ["c", "d"]).tolist() == fresh.tolist()
        assert not memo
