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

The rule has two implementations. The bitmask decoders (`comp_pd_mask`,
`dd_certified_mask`) take one pattern as a Python int and loop over the
tests; they are the literal reference the tests hold the batch decoder and
the oracle to, and no package path calls them. `decode_tables` decodes a
whole pattern matrix at once with numpy gathers over two padded index
tables, taken from both directions of a matching at the indices that only
`index_tables` lays out, and uses only OR, AND and NOT, so one code serves
two layouts. Both package callers pass uint64 words, 64 patterns
bit-sliced per word: Monte Carlo over one sampled graph's `graph_tables`,
and the oracle over the disjoint union of a block of matchings. Bool, one
column per pattern, stays only as a cross-check in the tests, which hold
both layouts and the bitmask decoders equal pattern by pattern.

`Algorithm` is defined in the numpy-free `enumerator` and imported here.
"""

from __future__ import annotations

import numpy as np

from .ensemble import PoolingGraph
from .enumerator import Algorithm


# The one bound on a decode_tables call: Monte Carlo decodes at most
# CHUNK_PATTERNS patterns of one graph, the oracle at most CHUNK_PATTERNS
# (matching, word) pairs. Both pass uint64 words, so a call's memory is
# O(CHUNK_PATTERNS x (n + m)) words whatever the caller's total.
CHUNK_PATTERNS = 4096


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


def index_tables(test_degrees, item_degrees, graphs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """np.take indices of the two padded tables of `graphs` graphs' disjoint union, for decode_tables.

    Row k of the caller's two (graphs, E + 1) arrays is graph k's matching
    in both directions: the item on each test socket, test by test, plus
    k n, and the test on each item socket, item by item, plus k m; the last
    column is the dummy, graphs n or graphs m. Taken at these indices they
    give the socket table (socket slot x test -> item) and the test table
    (item slot x item -> test), shorter rows padded with the dummy. An item
    on two sockets of one test lists that test twice.
    """
    return _padded(test_degrees, graphs), _padded(item_degrees, graphs)


def _padded(degrees, graphs: int) -> np.ndarray:
    """Slot x (graph, node) flat indices: node v's slot s reads its socket, past its degree the dummy."""
    degrees = np.asarray(degrees, dtype=np.intp)
    slot = np.arange(degrees.max(initial=0))[:, None]
    edges = degrees.sum()
    column = np.where(slot < degrees, np.cumsum(degrees) - degrees + slot, edges)
    return (column[:, None, :] + np.arange(graphs)[:, None] * (edges + 1)).reshape(len(slot), -1)


def _with_dummy(flags: np.ndarray) -> np.ndarray:
    """flags with one all-zero row appended: the dummy item or test."""
    out = np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=flags.dtype)
    out[:-1] = flags
    return out


def graph_tables(graph: PoolingGraph) -> tuple[np.ndarray, np.ndarray]:
    """The two index tables of one sampled graph, for decode_tables."""
    degrees = [len(members) for members in graph.adj]
    items = np.array([v for members in graph.adj for v in members], dtype=np.intp)
    # Each item's sockets in socket order: a stable sort of the sockets by item.
    tests = np.repeat(np.arange(graph.m), degrees)[np.argsort(items, kind="stable")]
    sockets, slots = index_tables(degrees, np.bincount(items, minlength=graph.n))
    return np.take(np.append(items, graph.n), sockets), np.take(np.append(tests, graph.m), slots)


def decode_tables(
    sockets: np.ndarray, tests: np.ndarray, defective: np.ndarray, algorithm: Algorithm
) -> np.ndarray:
    """Estimate of an n x W pattern matrix: PD items (COMP) or certified items (DD).

    sockets and tests are the graph's two index tables, as index_tables
    lays them out. defective is bool, one pattern per column, or unsigned
    words, one pattern per bit; bit b of estimate[v, w] is comp_pd_mask /
    dd_certified_mask of the pattern in bit b of column w. The dummy item
    is row len(defective) and the dummy test is the number of tests. A test
    is positive if any socket holds a defective; an item is PD if it is in
    no negative test; under DD a PD item is certified if some positive test
    has exactly one PD socket, which must then be its own. Only OR, AND and
    NOT are used, so every reduction ORs whole rows of patterns.
    """
    positive = np.bitwise_or.reduce(_with_dummy(defective)[sockets], axis=0)
    pd = ~np.bitwise_or.reduce(_with_dummy(~positive)[tests], axis=0)
    if algorithm is Algorithm.COMP:
        return pd
    # Patterns with at least one / at least two PD sockets, slot by slot.
    once, twice = np.zeros((2, *positive.shape), dtype=positive.dtype)
    for slot in _with_dummy(pd)[sockets]:
        twice |= once & slot
        once |= slot
    return pd & np.bitwise_or.reduce(_with_dummy(positive & once & ~twice)[tests], axis=0)


def wrong_items(estimate: np.ndarray, defective: np.ndarray, algorithm: Algorithm) -> np.ndarray:
    """The decoder's errors: false alarms under COMP, misdetections under DD, its only kind."""
    if algorithm is Algorithm.COMP:
        return estimate & ~defective
    return defective & ~estimate
