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
tests; they are the literal reference the tests hold the batch decoder and
the oracle to, and no package path calls them. `decode_tables` decodes an
n x P boolean matrix, one column per pattern, at once with numpy gathers
over two padded index tables, which only `index_tables` lays out: for one
sampled graph via `graph_tables`, once per graph for all its patterns
(Monte Carlo), or for the disjoint union of a block of matchings (the
oracle). The property tests hold the batch and bitmask decoders equal
pattern by pattern.

`Algorithm` is defined in the numpy-free `enumerator` and imported here.
"""

from __future__ import annotations

import numpy as np

from .ensemble import PoolingGraph
from .enumerator import Algorithm


# Most (graph, pattern) pairs decoded in one call, so a call's memory is
# O(CHUNK_PATTERNS x (n + m)) whatever the caller's total.
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


def index_tables(items: np.ndarray, n: int, test_degrees) -> tuple[np.ndarray, np.ndarray]:
    """(socket slot x test -> item, item slot x item -> test) of K graphs' disjoint union.

    items[k, q] is the item on test socket q of graph k; the sockets run
    test by test, test_degrees[c] of them for test c, and all K graphs have
    the same item degrees. The union's graph k has items k n + v and tests
    k m + c. Shorter rows are padded with the dummy item K n or test K m.
    An item on two sockets of one test lists that test twice.
    """
    test_degrees = np.asarray(test_degrees, dtype=np.intp)
    owner = np.repeat(np.arange(len(test_degrees)), test_degrees)
    # Each item's sockets in socket order: a stable sort of the sockets by item.
    item_tests = owner[np.argsort(items, axis=1, kind="stable")]
    return (
        _padded_union(items, test_degrees, n),
        _padded_union(item_tests, np.bincount(items[0], minlength=n), len(test_degrees)),
    )


def _padded_union(values: np.ndarray, degrees: np.ndarray, size: int) -> np.ndarray:
    """values[k] holds degrees[v] entries per node v in turn, offset by k size; padded with K size."""
    k = len(values)
    slot = np.arange(degrees.max(initial=0))[:, None]
    pad = slot >= degrees
    first = np.cumsum(degrees) - degrees
    table = values[:, np.where(pad, 0, first + slot)] + np.arange(k)[:, None, None] * size
    table[:, pad] = k * size
    return table.transpose(1, 0, 2).reshape(len(slot), k * len(degrees))


def _with_dummy(flags: np.ndarray) -> np.ndarray:
    """flags with one all-False row appended: the dummy item or test."""
    out = np.zeros((flags.shape[0] + 1, flags.shape[1]), dtype=bool)
    out[:-1] = flags
    return out


def graph_tables(graph: PoolingGraph) -> tuple[np.ndarray, np.ndarray]:
    """The two index tables of one sampled graph, for decode_tables."""
    items = np.array([v for members in graph.adj for v in members], dtype=np.intp)
    return index_tables(items[None], graph.n, [len(members) for members in graph.adj])


def decode_tables(
    sockets: np.ndarray, tests: np.ndarray, defective: np.ndarray, algorithm: Algorithm
) -> np.ndarray:
    """n x P estimate of an n x P bool pattern matrix: PD items (COMP) or certified items (DD).

    sockets and tests are the graph's two index tables, as index_tables
    lays them out; column p is comp_pd_mask / dd_certified_mask of pattern
    p. The dummy item is row len(defective) and the dummy test is the
    number of tests. A test is positive if any socket holds a defective; an
    item is PD if it is in no negative test; under DD a PD item is certified
    if some positive test has exactly one PD socket, which must then be its
    own. Items run down the rows so that every reduction ORs or adds whole
    rows of P patterns.
    """
    positive = _with_dummy(defective)[sockets].any(axis=0)
    pd = ~_with_dummy(~positive)[tests].any(axis=0)
    if algorithm is Algorithm.COMP:
        return pd
    pd_sockets = _with_dummy(pd)[sockets].sum(axis=0, dtype=np.min_scalar_type(len(sockets)))
    return pd & _with_dummy(positive & (pd_sockets == 1))[tests].any(axis=0)


def wrong_items(estimate: np.ndarray, defective: np.ndarray, algorithm: Algorithm) -> np.ndarray:
    """The decoder's errors: false alarms under COMP, misdetections under DD, its only kind."""
    if algorithm is Algorithm.COMP:
        return estimate & ~defective
    return defective & ~estimate
