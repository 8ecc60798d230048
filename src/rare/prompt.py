"""Rendering retrieval queries, optionally augmented with in-context examples.

Every rendered string is a sequence of labeled segments joined by " ; ".
Labels are "Instruct: ", "Query: ", "Document: ", "Positive Document: " and
"Negative Document: ", each with a single trailing space. The target query is
always the final segment. An empty instruction drops the instruction segment
entirely rather than rendering an empty label.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .data import ICExample
from .errors import EmptyQuery, MissingNegative

SEPARATOR = " ; "


class FormatKind(Enum):
    INST = "inst"
    INST_IC = "inst+ic"
    QUERIES_ONLY = "queries-only"
    DOC_ONLY = "doc-only"
    SHUFFLE_NC = "shuffle-nc"
    SHUFFLE_C = "shuffle-c"
    INST_IC_NEG = "inst+ic+neg"


class SelectionPolicy(Enum):
    """How a query's in-context examples are picked from its task's pool."""

    RETRIEVED = "retrieved"
    RANDOM = "random"


@dataclass(frozen=True)
class PromptFormat:
    kind: FormatKind = FormatKind.INST_IC
    bracket_queries: bool = False
    shuffle_seed: int = 0

    def uses_examples(self, k: int) -> bool:
        """Whether rendering under this format with k examples consults a pool."""
        return self.kind is not FormatKind.INST and k > 0


@dataclass(frozen=True)
class AugmentedQuery:
    text: str
    n_examples: int
    approx_len: int = field(default=0)  # whitespace token count of text


def _query_segment(payload: str, bracket: bool) -> str:
    return f"Query: [{payload}]" if bracket else f"Query: {payload}"


def render_inst(instruction: str, query: str, bracket_queries: bool = False) -> AugmentedQuery:
    """Render the plain instruction format with no in-context examples."""
    return render_inst_ic(instruction, [], query, PromptFormat(FormatKind.INST, bracket_queries))


def _example_segments(examples: list[ICExample], fmt: PromptFormat) -> list[str]:
    bracket = fmt.bracket_queries
    kind = fmt.kind
    if kind is FormatKind.INST:
        return []
    if kind is FormatKind.QUERIES_ONLY:
        return [_query_segment(ex.query, bracket) for ex in examples]
    if kind is FormatKind.DOC_ONLY:
        return [f"Document: {ex.positive}" for ex in examples]
    if kind is FormatKind.INST_IC_NEG:
        segments = []
        for ex in examples:
            if not ex.negative:
                raise MissingNegative(f"example with query {ex.query!r} has no negative document")
            segments.append(_query_segment(ex.query, bracket))
            segments.append(f"Positive Document: {ex.positive}")
            segments.append(f"Negative Document: {ex.negative}")
        return segments
    if kind is FormatKind.SHUFFLE_C:
        # Break the pairing: queries keep their slots, documents are permuted.
        perm = list(range(len(examples)))
        random.Random(fmt.shuffle_seed).shuffle(perm)
        segments = []
        for i, ex in enumerate(examples):
            segments.append(_query_segment(ex.query, bracket))
            segments.append(f"Document: {examples[perm[i]].positive}")
        return segments
    segments = []
    for ex in examples:
        segments.append(_query_segment(ex.query, bracket))
        segments.append(f"Document: {ex.positive}")
    if kind is FormatKind.SHUFFLE_NC:
        # No correspondence at all: every labeled segment moves freely.
        random.Random(fmt.shuffle_seed).shuffle(segments)
    return segments


def render_inst_ic(
    instruction: str,
    examples: list[ICExample],
    query: str,
    fmt: PromptFormat,
) -> AugmentedQuery:
    """Render `query` augmented with in-context examples under `fmt`.

    With zero examples every kind degenerates to the plain instruction
    rendering, byte for byte.
    """
    if not query:
        raise EmptyQuery("cannot render an empty query")
    segments = []
    if instruction:
        segments.append(f"Instruct: {instruction}")
    segments.extend(_example_segments(examples, fmt))
    segments.append(_query_segment(query, fmt.bracket_queries))
    text = SEPARATOR.join(segments)
    n_rendered = 0 if fmt.kind is FormatKind.INST else len(examples)
    return AugmentedQuery(text=text, n_examples=n_rendered, approx_len=len(text.split()))

