"""Retrieval pipeline where queries are augmented with retrieved in-context examples.

The package covers the full loop at desk scale: loading BeIR-style data,
selecting in-context examples with BM25, rendering augmented queries,
embedding text with a hashed n-gram featurizer behind a learnable linear
projection, contrastive training of that projection, exact dense search,
nDCG@10 evaluation, and stage-level latency profiling.
"""

__version__ = "0.1.0"

# The embedder's default shape: hash buckets, embedding size and n-gram
# orders. They live here, not in the numpy-backed embedder, so that the
# command line can offer them as flag defaults without importing numpy.
DEFAULT_HASH_DIM = 1 << 16
DEFAULT_EMBED_DIM = 64
DEFAULT_NGRAM_ORDERS = (1, 2)
