"""Synthetic benchmark generation: determinism, vocabulary structure, the
query-ambiguity signal property, and the frozen untrained baseline."""

from __future__ import annotations

import filecmp

import pytest

from rare import data, synth
from rare.embedder import new_params
from rare.errors import SpecInvalid
from rare.evaluation import evaluate, ndcg_at_k
from rare.prompt import FormatKind, PromptFormat
from rare.retrieve import build_flat_index, run_inference
from rare.synth import SynthSpec, generate


def small_spec(**kw):
    defaults = dict(
        n_clusters=3, vocab_per_cluster=24, shared_vocab=20,
        docs_per_cluster=6, queries_per_cluster=4, query_ambiguity=0.8, seed=11,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


def write_all(bench, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_corpus(bench.corpus, out_dir / "corpus.jsonl")
    data.write_queries(bench.queries, out_dir / "queries.jsonl")
    data.write_qrels(bench.qrels, out_dir / "qrels.tsv")
    data.write_train(bench.train_set, out_dir / "train.jsonl")
    data.write_pool(bench.pool, out_dir / "pool.jsonl")


class TestVocabulary:
    def test_private_vocabularies_pairwise_disjoint(self):
        spec = small_spec()
        vocabularies = [set(synth.private_vocabulary(spec, c)) for c in range(spec.n_clusters)]
        shared = set(synth.shared_vocabulary(spec))
        for i in range(len(vocabularies)):
            assert not (vocabularies[i] & shared)
            for j in range(i + 1, len(vocabularies)):
                assert not (vocabularies[i] & vocabularies[j])

    def test_doc_and_query_parts_partition_private_vocab(self):
        spec = small_spec()
        for cluster in range(spec.n_clusters):
            private = synth.private_vocabulary(spec, cluster)
            doc_words = synth.doc_part(spec, cluster)
            query_words = synth.query_part(spec, cluster)
            assert doc_words + query_words == private
            assert not (set(doc_words) & set(query_words))
            assert query_words

    def test_default_spec_part_sizes(self):
        spec = SynthSpec()
        assert len(synth.private_vocabulary(spec, 0)) == 96
        assert len(synth.query_part(spec, 0)) == 8
        assert len(synth.doc_part(spec, 0)) == 88


class TestGenerate:
    def test_sizes(self):
        spec = small_spec()
        bench = generate(spec)
        assert len(bench.corpus) == spec.n_clusters * spec.docs_per_cluster
        assert len(bench.queries) == spec.n_clusters * spec.queries_per_cluster
        assert len(bench.pool) == spec.n_clusters * spec.queries_per_cluster * synth.TRAIN_QUERIES_PER_CLUSTER_FACTOR
        assert len(bench.train_set) == len(bench.pool)

    def test_qrels_complete_and_cluster_scoped(self):
        spec = small_spec()
        bench = generate(spec)
        for query in bench.queries:
            judged = bench.qrels.grades_for(query.id)
            assert judged
            cluster = query.id[1:].split("-")[0]
            assert all(doc_id.startswith(f"d{cluster}-") for doc_id in judged)
            assert len(judged) == spec.docs_per_cluster

    def test_documents_mix_private_shared_80_20(self):
        bench = generate(SynthSpec())
        for doc_id, doc in bench.corpus.items():
            cluster = doc_id[1:].split("-")[0]
            tokens = doc.text.split()
            assert len(tokens) == synth.DOC_TOKENS
            private = sum(1 for t in tokens if t.startswith(f"c{cluster}w"))
            shared = sum(1 for t in tokens if t.startswith("sh"))
            assert private == 24
            assert shared == 6

    def test_queries_use_query_part_words_only(self):
        spec = small_spec(query_ambiguity=0.5)
        bench = generate(spec)
        for query in bench.queries:
            cluster = int(query.id[1:].split("-")[0])
            allowed = set(synth.query_part(spec, cluster)) | set(synth.shared_vocabulary(spec))
            tokens = query.text.split()
            assert len(tokens) == synth.QUERY_TOKENS
            assert set(tokens) <= allowed
            assert not any(t in set(synth.doc_part(spec, cluster)) for t in tokens)

    def test_train_triples_pair_cluster_doc_with_other_cluster_negative(self):
        spec = small_spec()
        bench = generate(spec)
        texts_by_cluster = {
            c: {bench.corpus[f"d{c}-{i}"].text for i in range(spec.docs_per_cluster)}
            for c in range(spec.n_clusters)
        }
        all_texts = set().union(*texts_by_cluster.values())
        for ex in bench.train_set:
            assert ex.positive in all_texts
            assert ex.negative in all_texts
            pos_clusters = [c for c, texts in texts_by_cluster.items() if ex.positive in texts]
            neg_clusters = [c for c, texts in texts_by_cluster.items() if ex.negative in texts]
            assert not (set(pos_clusters) & set(neg_clusters))

    def test_pool_metadata(self):
        bench = generate(small_spec())
        assert bench.pool.task_id == "synth"
        assert all(ex.negative for ex in bench.pool.examples)

    def test_determinism_byte_identical_files(self, tmp_path):
        spec = small_spec()
        write_all(generate(spec), tmp_path / "a")
        write_all(generate(spec), tmp_path / "b")
        names = ["corpus.jsonl", "queries.jsonl", "qrels.tsv", "train.jsonl", "pool.jsonl"]
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert match == names
        assert not mismatch and not errors

    def test_seed_changes_output(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        texts_a = [d.text for d in a.corpus.values()]
        texts_b = [d.text for d in b.corpus.values()]
        assert texts_a != texts_b


class TestSignalProperty:
    def test_fully_ambiguous_queries_carry_no_cluster_signal(self):
        spec = small_spec(query_ambiguity=1.0)
        bench = generate(spec)
        all_private = set()
        for cluster in range(spec.n_clusters):
            all_private |= set(synth.private_vocabulary(spec, cluster))
        for query in bench.queries:
            assert not (set(query.text.split()) & all_private)

    def test_pool_positives_identify_one_cluster(self):
        # Every pool document carries private vocabulary from exactly one
        # cluster, which is what makes retrieved examples informative.
        spec = small_spec(query_ambiguity=1.0)
        bench = generate(spec)
        vocabularies = {c: set(synth.private_vocabulary(spec, c)) for c in range(spec.n_clusters)}
        for ex in bench.pool.examples:
            tokens = set(ex.positive.split())
            hit_clusters = [c for c, vocab in vocabularies.items() if tokens & vocab]
            assert len(hit_clusters) == 1

    def test_zero_ambiguity_queries_are_all_private(self):
        spec = small_spec(query_ambiguity=0.0)
        bench = generate(spec)
        shared = set(synth.shared_vocabulary(spec))
        for query in bench.queries:
            assert not (set(query.text.split()) & shared)


class TestDegenerateAndInvalid:
    def test_single_cluster_any_ranking_is_perfect(self):
        spec = small_spec(n_clusters=1)
        bench = generate(spec)
        doc_ids = sorted(bench.corpus)
        for query in bench.queries:
            judged = bench.qrels.grades_for(query.id)
            assert set(judged) == set(doc_ids)
            arbitrary = [(doc_id, 0.0) for doc_id in doc_ids]
            assert abs(ndcg_at_k(arbitrary, judged, 10) - 1.0) < 1e-12

    def test_invalid_specs_rejected(self):
        with pytest.raises(SpecInvalid):
            generate(small_spec(n_clusters=0))
        with pytest.raises(SpecInvalid):
            generate(small_spec(docs_per_cluster=0))
        with pytest.raises(SpecInvalid):
            generate(small_spec(vocab_per_cluster=0))
        with pytest.raises(SpecInvalid):
            generate(small_spec(query_ambiguity=1.5))
        with pytest.raises(SpecInvalid):
            generate(small_spec(query_ambiguity=-0.1))


class TestFrozenBaseline:
    def test_untrained_inst_baseline(self):
        # End-to-end fixture: the default benchmark scored with a fresh
        # random projection and plain queries. The exact value is frozen;
        # anything drifting here means generation, embedding, search or
        # scoring changed behavior.
        bench = generate(SynthSpec())
        params = new_params(seed=0)
        index = build_flat_index(bench.corpus, params)
        run = run_inference(
            bench.queries, "", None, index, params,
            PromptFormat(kind=FormatKind.INST), k=0, top_k=10,
        )
        report = evaluate(run, bench.qrels, 10)
        assert report.mean == pytest.approx(0.10180176149631423, abs=1e-12)
        assert report.mean < 0.2
