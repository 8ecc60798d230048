"""Prompt rendering: golden strings for every format, degeneracy at zero
examples, shuffle semantics, and bracketed rendering."""

from __future__ import annotations

import random

import pytest

from rare.data import ICExample
from rare.errors import EmptyQuery, MissingNegative
from rare.prompt import (
    SEPARATOR,
    AugmentedQuery,
    FormatKind,
    PromptFormat,
    render_inst,
    render_inst_ic,
)


def shuffle_permutation(seed: int, n: int) -> list[int]:
    """Oracle: the permutation the shuffle formats apply for a seed and size."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


EXAMPLES = [
    ICExample(query="a", positive="b", negative="nb"),
    ICExample(query="c", positive="d", negative="nd"),
]


def fmt(kind: FormatKind, bracket: bool = False, seed: int = 0) -> PromptFormat:
    return PromptFormat(kind=kind, bracket_queries=bracket, shuffle_seed=seed)


class TestGoldenStrings:
    def test_inst(self):
        out = render_inst("T", "q")
        assert out.text == "Instruct: T ; Query: q"
        assert out.n_examples == 0

    def test_inst_without_instruction(self):
        assert render_inst("", "what is bm25").text == "Query: what is bm25"

    def test_inst_ic_one_example(self):
        out = render_inst_ic("T", EXAMPLES[:1], "c", fmt(FormatKind.INST_IC))
        assert out.text == "Instruct: T ; Query: a ; Document: b ; Query: c"
        assert out.n_examples == 1

    def test_inst_ic_two_examples(self):
        out = render_inst_ic("T", EXAMPLES, "e", fmt(FormatKind.INST_IC))
        assert out.text == "Instruct: T ; Query: a ; Document: b ; Query: c ; Document: d ; Query: e"

    def test_queries_only(self):
        out = render_inst_ic("T", EXAMPLES, "e", fmt(FormatKind.QUERIES_ONLY))
        assert out.text == "Instruct: T ; Query: a ; Query: c ; Query: e"

    def test_doc_only(self):
        out = render_inst_ic("T", EXAMPLES, "e", fmt(FormatKind.DOC_ONLY))
        assert out.text == "Instruct: T ; Document: b ; Document: d ; Query: e"

    def test_inst_ic_neg(self):
        out = render_inst_ic("T", EXAMPLES[:1], "c", fmt(FormatKind.INST_IC_NEG))
        assert out.text == (
            "Instruct: T ; Query: a ; Positive Document: b ; Negative Document: nb ; Query: c"
        )

    def test_bracketed(self):
        out = render_inst_ic("T", EXAMPLES[:1], "c", fmt(FormatKind.INST_IC, bracket=True))
        assert out.text == "Instruct: T ; Query: [a] ; Document: b ; Query: [c]"

    def test_bracketed_inst(self):
        assert render_inst("T", "q", bracket_queries=True).text == "Instruct: T ; Query: [q]"


class TestDegeneracy:
    def test_zero_examples_match_inst(self):
        plain = render_inst("T", "q")
        for kind in FormatKind:
            augmented = render_inst_ic("T", [], "q", fmt(kind))
            assert augmented.text == plain.text
            assert augmented.n_examples == 0

    def test_inst_kind_ignores_examples(self):
        out = render_inst_ic("T", EXAMPLES, "q", fmt(FormatKind.INST))
        assert out.text == render_inst("T", "q").text
        assert out.n_examples == 0


class TestShuffles:
    def make_examples(self, n):
        return [ICExample(query=f"q{i}", positive=f"p{i}") for i in range(n)]

    def test_shuffle_c_query_slots_fixed(self):
        examples = self.make_examples(6)
        out = render_inst_ic("T", examples, "tq", fmt(FormatKind.SHUFFLE_C, seed=3))
        segments = out.text.split(SEPARATOR)
        assert segments[0] == "Instruct: T"
        queries = segments[1:-1:2]
        assert queries == [f"Query: q{i}" for i in range(6)]

    def test_shuffle_c_documents_are_permuted_multiset(self):
        examples = self.make_examples(6)
        out = render_inst_ic("T", examples, "tq", fmt(FormatKind.SHUFFLE_C, seed=3))
        segments = out.text.split(SEPARATOR)
        docs = segments[2:-1:2]
        assert sorted(docs) == sorted(f"Document: p{i}" for i in range(6))

    def test_shuffle_c_matches_permutation_oracle(self):
        examples = self.make_examples(8)
        seed = 41
        out = render_inst_ic("", examples, "tq", fmt(FormatKind.SHUFFLE_C, seed=seed))
        perm = shuffle_permutation(seed, 8)
        expected = []
        for i, ex in enumerate(examples):
            expected.append(f"Query: {ex.query}")
            expected.append(f"Document: {examples[perm[i]].positive}")
        expected.append("Query: tq")
        assert out.text == SEPARATOR.join(expected)

    def test_shuffle_permutation_helper_agrees(self):
        seed, n = 41, 8
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        assert shuffle_permutation(seed, n) == perm

    def test_shuffle_nc_segment_multiset(self):
        examples = self.make_examples(5)
        out = render_inst_ic("T", examples, "tq", fmt(FormatKind.SHUFFLE_NC, seed=9))
        segments = out.text.split(SEPARATOR)
        assert segments[0] == "Instruct: T"
        assert segments[-1] == "Query: tq"
        middle = segments[1:-1]
        expected = [f"Query: q{i}" for i in range(5)] + [f"Document: p{i}" for i in range(5)]
        assert sorted(middle) == sorted(expected)

    def test_shuffle_nc_actually_moves_segments(self):
        # With ten segments, at least one seed in a small range must produce
        # an order different from the paired layout.
        examples = self.make_examples(5)
        paired = render_inst_ic("T", examples, "tq", fmt(FormatKind.INST_IC)).text
        moved = any(
            render_inst_ic("T", examples, "tq", fmt(FormatKind.SHUFFLE_NC, seed=s)).text != paired
            for s in range(10)
        )
        assert moved

    def test_shuffle_deterministic_in_seed(self):
        examples = self.make_examples(7)
        for kind in (FormatKind.SHUFFLE_C, FormatKind.SHUFFLE_NC):
            a = render_inst_ic("T", examples, "tq", fmt(kind, seed=5))
            b = render_inst_ic("T", examples, "tq", fmt(kind, seed=5))
            assert a.text == b.text


class TestProperties:
    def test_target_query_always_last(self, rng):
        for _ in range(100):
            kind = rng.choice(list(FormatKind))
            n = rng.randrange(4)
            examples = [
                ICExample(query=f"eq{i}", positive=f"ep{i}", negative=f"en{i}") for i in range(n)
            ]
            target = f"target{rng.randrange(1000)}"
            bracket = rng.random() < 0.5
            out = render_inst_ic("T", examples, target, fmt(kind, bracket=bracket, seed=rng.randrange(50)))
            segments = out.text.split(SEPARATOR)
            expected = f"Query: [{target}]" if bracket else f"Query: {target}"
            assert segments[-1] == expected

    def test_brackets_wrap_every_query_payload(self):
        out = render_inst_ic("T", EXAMPLES, "tq", fmt(FormatKind.INST_IC, bracket=True))
        segments = out.text.split(SEPARATOR)
        for seg in segments:
            if seg.startswith("Query: "):
                payload = seg[len("Query: ") :]
                assert payload.startswith("[") and payload.endswith("]")

    def test_brackets_do_not_touch_documents(self):
        out = render_inst_ic("T", EXAMPLES, "tq", fmt(FormatKind.DOC_ONLY, bracket=True))
        assert "Document: b" in out.text and "[b]" not in out.text

    def test_approx_len_counts_whitespace_tokens(self):
        out = render_inst_ic("T", EXAMPLES[:1], "two words", fmt(FormatKind.INST_IC))
        assert out.approx_len == len(out.text.split())

    def test_n_examples_reported(self):
        for n in range(4):
            examples = [ICExample(query=f"q{i}", positive=f"p{i}") for i in range(n)]
            out = render_inst_ic("T", examples, "tq", fmt(FormatKind.INST_IC))
            assert out.n_examples == n

    def test_result_type(self):
        assert isinstance(render_inst("T", "q"), AugmentedQuery)


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(EmptyQuery):
            render_inst("T", "")
        with pytest.raises(EmptyQuery):
            render_inst_ic("T", EXAMPLES, "", fmt(FormatKind.INST_IC))

    def test_missing_negative(self):
        examples = [ICExample(query="a", positive="b")]
        with pytest.raises(MissingNegative, match="'a'"):
            render_inst_ic("T", examples, "c", fmt(FormatKind.INST_IC_NEG))

    def test_missing_negative_empty_string(self):
        examples = [ICExample(query="a", positive="b", negative="")]
        with pytest.raises(MissingNegative):
            render_inst_ic("T", examples, "c", fmt(FormatKind.INST_IC_NEG))
