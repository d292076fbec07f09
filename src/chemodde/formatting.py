"""Text of float blocks, with each distinct value formatted once.

The CSV and SVG writers format their output a bounded block of values at a
time.  Under a periodic or converging feed most values repeat, inside a
block and from one block to the next, so a ``DistinctFormatter`` formats
each distinct value of a block once, reuses the text of the values that
the previous block of the same column formatted, and gathers the text back
in order through the inverse of ``np.unique``.  Values are told apart by
their bits, so the text is the same, byte for byte, as formatting every
value on its own, whatever the formatter does with -0.0 or nan.
"""

from __future__ import annotations

import numpy as np


class DistinctFormatter:
    """Text of the blocks of one column, each distinct value formatted once.

    fmt maps a non-empty float64 array to a list of str, one per element,
    each a function of its element's bits alone.  Called on a column's
    blocks in order, the formatter returns fmt's text of each block, but
    calls fmt only on the distinct values of a block that the block before
    did not hold: it keeps that block's distinct values and their text, a
    table no larger than the block.  A block of all-distinct values with
    no table before it is passed to fmt whole and leaves no table, so it
    costs one sort more than fmt alone.
    """

    def __init__(self, fmt):
        self.fmt = fmt
        self.table = None

    def __call__(self, values) -> list:
        keys = values.view(np.int64)
        ordered = np.sort(keys)
        if self.table is None and not (ordered[1:] == ordered[:-1]).any():
            return self.fmt(values)
        distinct, inverse = np.unique(keys, return_inverse=True)
        texts = np.empty(len(distinct), dtype=object)
        new = np.ones(len(distinct), dtype=bool)
        if self.table is not None:
            known, known_texts = self.table
            at = np.searchsorted(known, distinct).clip(max=len(known) - 1)
            new = known[at] != distinct
            texts[~new] = known_texts[at[~new]]
        if new.any():
            texts[new] = self.fmt(distinct[new].view(np.float64))
        self.table = (distinct, texts)
        return texts[inverse].tolist()
