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
whole pattern matrix at once with numpy gathers over two padded tables and
uses only OR, AND and NOT, so one code serves two layouts. Both package
callers take one layout step, `union_tables`, for K graphs as one disjoint
union (Monte Carlo one sampled graph, the oracle a block of multigraphs),
and one count step, `decode_counts`, to each (graph, pattern)'s defective
count a and error count j on uint64 words, 64 patterns per word. Bool, one
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
# (graph, word) pairs. Both pass uint64 words, so a call's memory is
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


def union_tables(items: np.ndarray, n: int, test_degrees) -> tuple[np.ndarray, np.ndarray]:
    """The two padded tables of K graphs' disjoint union, for decode_tables.

    Row k of `items` (K x E) is graph k's item on each test socket, test by
    test; each graph has n items and these test degrees, and its item v and
    test c are k n + v and k m + c in the union. The socket table (slot x
    test -> item) reads the items in place; the test table (slot x item ->
    test) lists each item's sockets in socket order, by a stable sort, so an
    item on two sockets of one test lists it twice. Pads are the dummy K n or K m.
    """
    graphs = len(items)
    items = (items + np.arange(graphs)[:, None] * n).ravel()
    test_degrees = np.tile(test_degrees, graphs)
    tests = np.repeat(np.arange(len(test_degrees)), test_degrees)[np.argsort(items, kind="stable")]
    item_degrees = np.bincount(items, minlength=graphs * n)
    return _padded(items, test_degrees, graphs * n), _padded(tests, item_degrees, len(test_degrees))


def _padded(ends: np.ndarray, degrees: np.ndarray, dummy: int) -> np.ndarray:
    """Slot x node table: node v's slot s holds the far end of its s-th socket, past its degree the dummy."""
    slot = np.arange(degrees.max(initial=0))[:, None]
    column = np.where(slot < degrees, np.cumsum(degrees) - degrees + slot, len(ends))
    return np.append(ends, dummy)[column]


def _with_dummy(flags: np.ndarray) -> np.ndarray:
    """flags with one all-zero row appended: the dummy item or test."""
    out = np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=flags.dtype)
    out[:-1] = flags
    return out


def decode_tables(
    sockets: np.ndarray, tests: np.ndarray, defective: np.ndarray, algorithm: Algorithm
) -> np.ndarray:
    """Estimate of an n x W pattern matrix: PD items (COMP) or certified items (DD).

    sockets and tests are the graph's two padded tables, as union_tables
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


def decode_counts(
    tables: tuple[np.ndarray, np.ndarray], words: np.ndarray, algorithm: Algorithm, count: int
) -> np.ndarray:
    """Each (graph, pattern)'s defective count a and error count j, a 2 x K x count array.

    words (K x n x W) are graph k's patterns in uint64 lanes, the first count
    of them real. j counts the decoder's only kind of error: false alarms
    under COMP, misdetections under DD.
    """
    graphs, n, _ = words.shape
    words = words.reshape(graphs * n, -1)
    estimate = decode_tables(*tables, words, algorithm)
    wrong = estimate & ~words if algorithm is Algorithm.COMP else words & ~estimate
    # Rows of the patterns' items, then of their wrong items, in one call; unpacking drops the padding.
    rows = np.concatenate((words, wrong)).view(np.uint8)
    lanes = np.unpackbits(rows, axis=1, count=count, bitorder="little")
    return lanes.reshape(2, graphs, n, count).sum(axis=2, dtype=np.min_scalar_type(n))
