"""Set-based reference for `score_heads`: one row, one step at a time.

`topk_indices` ranks a single attention row and `step_hit_ratio` counts how
much of that top-k lands in a word's audio span; averaging them over the
word-aligned steps is the definition `score_heads` batches over heads.
"""

import numpy as np


def topk_indices(attention_row, k):
    """Indices of the k largest attention values, ties going to lower indices."""
    row = np.asarray(attention_row)
    if k < 1:
        raise ValueError("k must be >= 1")
    if row.ndim != 1 or row.size < 1:
        raise ValueError("attention row must be a non-empty 1-D array")
    if k >= row.size:
        return frozenset(range(row.size))
    order = np.argsort(-row, kind="stable")
    return frozenset(int(i) for i in order[:k])


def step_hit_ratio(topk, span, k):
    """Fraction of the top-k indices falling inside the word's audio span."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for i in topk if span.start_index <= i <= span.end_index)
    return hits / k
