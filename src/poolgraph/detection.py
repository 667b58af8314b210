"""COMP and DD decoding of noiseless pooled tests.

COMP: any item in a negative test is definitely non-defective (DND);
everything else stays possibly defective (PD) and is declared defective.
COMP never misses a defective, so its errors are false alarms only.

DD: starting from COMP's PD set, a positive test whose sockets touch
exactly one PD socket certifies that item as definitely defective. Only
certified items are declared, so DD never raises a false alarm and its
errors are misdetections only.

The sole-PD rule is socket-level: a test whose two sockets both land on
the same PD item does NOT certify it (the multi-edge counts twice). This is
the rule every enumerator table computes.

Items with degree 0 never appear in a test; they defensively stay PD
(undetected under DD).

The rule has two implementations. The bitmask decoders (`comp_pd_mask`,
`dd_certified_mask`) take one pattern as a Python int and loop over the
tests; the oracle uses them as its literal reference. `decode_batch` takes
an n x P boolean matrix, one column per pattern, and decodes every column
at once with numpy gathers; the Monte Carlo simulator uses it. The property
tests hold the two equal pattern by pattern.
"""

from __future__ import annotations

import enum

import numpy as np

from .ensemble import PoolingGraph


class Algorithm(enum.Enum):
    COMP = "comp"
    DD = "dd"


def comp_pd_mask(graph: PoolingGraph, defective_mask: int) -> int:
    """Bitmask of PD items: those in no negative test."""
    negative_union = 0
    for mask in graph.test_masks:
        if not (mask & defective_mask):
            negative_union |= mask
    return ((1 << graph.n) - 1) & ~negative_union


def dd_certified_mask(graph: PoolingGraph, defective_mask: int) -> int:
    """Bitmask of items certified defective by the socket-level sole-PD rule."""
    pd = comp_pd_mask(graph, defective_mask)
    certified = 0
    for members, mask in zip(graph.adj, graph.test_masks):
        if not (mask & defective_mask):
            continue
        count = 0
        sole = -1
        for v in members:
            if (pd >> v) & 1:
                count += 1
                if count > 1:
                    break
                sole = v
        if count == 1:
            certified |= 1 << sole
    return certified


def _index_tables(graph: PoolingGraph) -> tuple[np.ndarray, np.ndarray]:
    """(socket slot x test -> item, item slot x item -> test), padded with dummies.

    Tests with fewer sockets than the largest are padded with the dummy
    item n, items with fewer sockets with the dummy test m. An item on two
    sockets of one test lists that test twice.
    """
    item_tests: list[list[int]] = [[] for _ in range(graph.n)]
    for c, members in enumerate(graph.adj):
        for v in members:
            item_tests[v].append(c)
    return _padded_columns(graph.adj, graph.n), _padded_columns(item_tests, graph.m)


def _padded_columns(rows, dummy: int) -> np.ndarray:
    width = max(map(len, rows), default=0)
    padded = [list(row) + [dummy] * (width - len(row)) for row in rows]
    return np.array(padded, dtype=np.intp).T.copy()


def _with_dummy(flags: np.ndarray) -> np.ndarray:
    """flags with one all-False row appended: the dummy item or test."""
    out = np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=bool)
    out[:-1] = flags
    return out


def decode_batch(graph: PoolingGraph, defective: np.ndarray, algorithm: Algorithm) -> np.ndarray:
    """n x P estimate of an n x P bool pattern matrix: PD items (COMP) or certified items (DD).

    Column p is comp_pd_mask / dd_certified_mask of pattern p. A test is
    positive if any socket holds a defective; an item is PD if it is in no
    negative test; under DD a PD item is certified if some positive test
    has exactly one PD socket, which must then be its own. Items run down
    the rows so that every reduction ORs or adds whole rows of P patterns.
    """
    sockets, tests = _index_tables(graph)
    positive = _with_dummy(defective)[sockets].any(axis=0)
    pd = ~_with_dummy(~positive)[tests].any(axis=0)
    if algorithm is Algorithm.COMP:
        return pd
    pd_sockets = _with_dummy(pd)[sockets].sum(axis=0, dtype=np.min_scalar_type(len(sockets)))
    return pd & _with_dummy(positive & (pd_sockets == 1))[tests].any(axis=0)
