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
"""

from __future__ import annotations

import enum

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
