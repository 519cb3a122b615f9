"""Block signatures of finite words and the walk over them.

Maps sharing a fixed point commute, so a word acts through its block
structure only: the sequence of maximal same-group runs with per-member
occurrence counts.  Two words compose to the identical similarity whenever
their block signatures agree, which is exactly the exact-overlap relation
of these systems, so the library walks signature classes, never words.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Tuple

from .ifs import CFSystem


class Block(NamedTuple):
    """A maximal run of one group: per-member occurrence counts, sorted by
    member, as order inside the run is irrelevant (the maps commute).  A
    word's block signature is the tuple of its blocks."""

    group: int
    counts: Tuple[Tuple[int, int], ...]  # ((member, count), ...), member-sorted

    def to_json(self) -> dict:
        return {"group": self.group, "counts": dict(self.counts)}


def signature_classes(sys: CFSystem, n: int) -> Iterator[tuple]:
    """Each block signature of words of length n >= 1 once, as the record
    (signature, contraction product, Pi value), the signature a tuple of
    Blocks.

    A depth-first walk over block prefixes.  Each appended block extends the
    running product of the ratios and the telescoped projection
    Pi(w) = f_w(0) = t_1 + sum_k Lambda_k (t_{k+1} - t_k) - Lambda_m t_m,
    where t_k is the k-th block's fixed point and Lambda_k the product of the
    ratios of the first k blocks; it is the intercept of the composed map
    f_{w_1} o ... o f_{w_n}.
    The product starts at the integer 1, so it is exact in rational mode.
    """
    def group_blocks(g, row, length):
        # reversed, the multisets come in ascending count-vector order
        for combo in reversed(list(itertools.combinations_with_replacement(
                range(1, len(row) + 1), length))):
            block = Block(g, tuple((m, len(list(run)))
                                   for m, run in itertools.groupby(combo)))
            yield block, math.prod(row[m - 1] ** c for m, c in block.counts)

    # blocks[g - 1][l]: the (block, ratio product) pairs of group g and
    # length l, built once per walk and shared by every signature
    blocks = [[list(group_blocks(g, row, length)) for length in range(n + 1)]
              for g, row in enumerate(sys.ratios, 1)]
    path: list = []

    def rec(remaining: int, prev_group: int, value, scale, t_prev):
        # value: the telescoped sum up to the last block's fixed point;
        # scale: the product of the ratios of all blocks so far
        for g, t in enumerate(sys.fixed_points, 1):
            if g == prev_group:
                continue
            g_value = value + scale * (t - t_prev)
            for length in range(1, remaining + 1):
                for block, lam in blocks[g - 1][length]:
                    path.append(block)
                    g_scale = scale * lam
                    if length < remaining:
                        yield from rec(remaining - length, g, g_value, g_scale, t)
                    else:
                        yield tuple(path), g_scale, g_value - g_scale * t
                    path.pop()

    # the empty prefix: sum 0, scale 1, fixed point 0, so a first block's
    # g_value is its own fixed point
    yield from rec(n, 0, 0, 1, 0)
