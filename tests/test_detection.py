from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolgraph.detection import (
    Algorithm,
    comp_pd_mask,
    dd_certified_mask,
    decode_counts,
    decode_tables,
    union_tables,
)
from poolgraph.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    PoolingGraph,
    regular_spec,
    sample_graph,
)


def graph_of(n, *tests):
    return PoolingGraph(n=n, m=len(tests), adj=tuple(map(tuple, tests)))


def tables_of(graph):
    """union_tables of one graph: its items test by test, and its tests' degrees."""
    return union_tables(np.array([sum(graph.adj, ())]), graph.n, [len(members) for members in graph.adj])


def errors(estimate, defective):
    """(false alarms, misdetections) of an estimate mask against the true mask."""
    return (estimate & ~defective).bit_count(), (defective & ~estimate).bit_count()


def test_comp_all_zero_pattern():
    graph = graph_of(3, (0, 1, 2))
    assert comp_pd_mask(graph, 0b000) == 0b000
    assert dd_certified_mask(graph, 0b000) == 0b000


def test_comp_all_one_pattern():
    graph = graph_of(3, (0, 1, 2))
    assert comp_pd_mask(graph, 0b111) == 0b111


def test_comp_hand_trace_two_false_alarms():
    # One positive test over three items, one true defective.
    graph = graph_of(3, (0, 1, 2))
    estimate = comp_pd_mask(graph, 0b001)
    assert estimate == 0b111
    assert errors(estimate, 0b001) == (2, 0)


def test_dd_hand_trace_exact_recovery():
    graph = graph_of(3, (0, 1), (1, 2))
    defective = 0b001
    assert [bool(mask & defective) for mask in graph.test_masks] == [True, False]
    assert comp_pd_mask(graph, defective) == 0b001
    estimate = dd_certified_mask(graph, defective)
    assert estimate == 0b001
    assert errors(estimate, defective) == (0, 0)


def test_dd_hand_trace_two_misdetections():
    graph = graph_of(2, (0, 1))
    estimate = dd_certified_mask(graph, 0b11)
    assert estimate == 0b00
    assert errors(estimate, 0b11) == (0, 2)


def test_count_errors_identity():
    graph = graph_of(2, (0, 1))
    assert errors(comp_pd_mask(graph, 0b00), 0b00) == (0, 0)


def test_socket_vs_node_uniqueness():
    # Item 0 holds two sockets of the only positive test's PD attachment.
    # It is the test's only PD item, but the socket-level rule sees two PD
    # sockets and certifies nothing.
    graph = graph_of(3, (0, 0, 1), (1, 2))
    assert comp_pd_mask(graph, 0b001) == 0b001
    assert dd_certified_mask(graph, 0b001) == 0


def random_cases(trials):
    rng = np.random.default_rng(20240817)
    specs = [regular_spec(4, 1, 2), regular_spec(4, 2, 2), regular_spec(6, 2, 3)]
    for trial in range(trials):
        spec = specs[trial % len(specs)]
        graph = sample_graph(spec, int(rng.integers(0, 2**63)))
        mask = int(rng.integers(0, 1 << spec.n))
        yield graph, mask


def test_comp_never_misdetects_and_dd_never_false_alarms():
    for graph, mask in random_cases(400):
        comp = comp_pd_mask(graph, mask)
        dd = dd_certified_mask(graph, mask)
        assert mask & ~comp == 0  # every defective stays possible
        assert dd & ~mask == 0  # certificates only on true defectives
        assert dd & ~comp == 0  # certified items are possible-defective


def test_detectors_are_permutation_equivariant():
    rng = np.random.default_rng(7)
    spec = regular_spec(6, 2, 3)
    for trial in range(50):
        graph = sample_graph(spec, trial)
        mask = int(rng.integers(0, 1 << 6))
        perm = rng.permutation(6)
        relabeled = PoolingGraph(
            n=graph.n,
            m=graph.m,
            adj=tuple(tuple(int(perm[i]) for i in members) for members in graph.adj),
        )
        relabeled_mask = 0
        for i in range(6):
            if mask >> i & 1:
                relabeled_mask |= 1 << int(perm[i])
        for detect in (comp_pd_mask, dd_certified_mask):
            base = detect(graph, mask)
            moved = detect(relabeled, relabeled_mask)
            expected = 0
            for i in range(6):
                if base >> i & 1:
                    expected |= 1 << int(perm[i])
            assert moved == expected


def test_algorithm_enum_values():
    assert Algorithm.COMP.value == "comp"
    assert Algorithm.DD.value == "dd"


BITMASK_DECODERS = {Algorithm.COMP: comp_pd_mask, Algorithm.DD: dd_certified_mask}


def assert_batch_matches_bitmask(graph, masks, algorithm):
    """decode_tables on the n x P matrix of `masks` equals the bitmask decoder column by column."""
    matrix = np.array([[mask >> i & 1 for mask in masks] for i in range(graph.n)], dtype=bool)
    estimate = decode_tables(*tables_of(graph), matrix, algorithm)
    assert estimate.shape == (graph.n, len(masks)) and estimate.dtype == bool
    decode = BITMASK_DECODERS[algorithm]
    for p, mask in enumerate(masks):
        column = sum(1 << i for i in range(graph.n) if estimate[i, p])
        assert column == decode(graph, mask), (graph.adj, mask)


@st.composite
def irregular_specs(draw):
    """Items of degree 1..3 and tests of degree 1..4, usually several of each."""
    n = draw(st.integers(1, 12))
    item_degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    test_degrees = []
    remaining = sum(item_degrees)
    while remaining:
        test_degrees.append(draw(st.integers(1, min(4, remaining))))
        remaining -= test_degrees[-1]
    m = len(test_degrees)
    assume(m <= n)
    return EnsembleSpec(
        n=n,
        m=m,
        left=DegreeDistribution.from_dict({d: Fraction(item_degrees.count(d), n) for d in set(item_degrees)}),
        right=DegreeDistribution.from_dict({d: Fraction(test_degrees.count(d), m) for d in set(test_degrees)}),
    )


@st.composite
def graphs_and_patterns(draw):
    # (4,2,2) and (2,2,2) often put both sockets of an item on one test.
    spec = draw(st.one_of(
        irregular_specs(),
        st.sampled_from([regular_spec(4, 2, 2), regular_spec(2, 2, 2), regular_spec(2, 1, 2)]),
    ))
    graph = sample_graph(spec, draw(st.integers(0, 2**63 - 1)))
    full = (1 << spec.n) - 1
    masks = draw(st.lists(st.integers(0, full), max_size=20))
    return graph, [0, full] + masks


@settings(deadline=None, max_examples=300)
@given(graphs_and_patterns(), st.sampled_from(list(Algorithm)))
def test_batch_decoder_matches_bitmask_decoders(case, algorithm):
    graph, masks = case
    assert_batch_matches_bitmask(graph, masks, algorithm)


def test_batch_decoder_on_hand_built_graphs():
    # A doubled PD item certifies nothing; item 3 is in no test and stays PD.
    graph = graph_of(4, (0, 0, 1), (1, 2))
    for algorithm in Algorithm:
        assert_batch_matches_bitmask(graph, list(range(16)), algorithm)


def test_batch_decoder_beyond_one_machine_word():
    # n = 240: a pattern no longer fits in a 64-bit word.
    graph = sample_graph(regular_spec(240, 3, 6), 2024)
    rng = np.random.default_rng(240)
    full = (1 << 240) - 1
    masks = [0, full]
    for density in (1 / 100, 1 / 20, 1 / 5, 1 / 2):
        for _ in range(25):
            bits = rng.random(240) < density
            masks.append(sum(1 << i for i in np.flatnonzero(bits).tolist()))
    for algorithm in Algorithm:
        assert_batch_matches_bitmask(graph, masks, algorithm)


# Pattern counts on both sides of the 64-bit word edges, so that the zero
# padding bits of a partial last word are exercised.
WORD_EDGE_COUNTS = [1, 63, 64, 65, 130]


def packed_words(n, masks):
    """n x ceil(P/64) uint64 words: bit p % 64 of word p // 64 in row v is item v of masks[p]."""
    words = [[0] * -(-len(masks) // 64) for _ in range(n)]
    for p, mask in enumerate(masks):
        for v in range(n):
            words[v][p // 64] |= (mask >> v & 1) << (p % 64)
    return np.array(words, dtype=np.uint64)


def assert_packed_matches_bool_and_bitmask(graph, masks, algorithm):
    """decode_tables on packed words equals the bitmask decoder, and so the bool path, pattern by pattern."""
    assert_batch_matches_bitmask(graph, masks, algorithm)
    estimate = decode_tables(*tables_of(graph), packed_words(graph.n, masks), algorithm)
    assert estimate.shape == (graph.n, -(-len(masks) // 64)) and estimate.dtype == np.uint64
    decode = BITMASK_DECODERS[algorithm]
    for p in range(estimate.shape[1] * 64):
        column = sum(1 << i for i in range(graph.n) if int(estimate[i, p // 64]) >> (p % 64) & 1)
        # A padding bit decodes as the empty pattern; Monte Carlo drops it on unpacking.
        assert column == decode(graph, masks[p] if p < len(masks) else 0), (graph.adj, p)


@pytest.mark.parametrize("count", WORD_EDGE_COUNTS)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_packed_decoder_across_word_edges(count, algorithm):
    rng = np.random.default_rng(count)
    graph = sample_graph(regular_spec(30, 3, 6), count)
    masks = [sum(1 << i for i in np.flatnonzero(rng.random(30) < 0.15).tolist()) for _ in range(count)]
    assert_packed_matches_bool_and_bitmask(graph, masks, algorithm)


@settings(deadline=None, max_examples=200)
@given(graphs_and_patterns(), st.sampled_from(WORD_EDGE_COUNTS), st.sampled_from(list(Algorithm)))
def test_packed_decoder_matches_bool_and_bitmask_decoders(case, count, algorithm):
    graph, masks = case
    assert_packed_matches_bool_and_bitmask(graph, (masks * count)[:count], algorithm)


@pytest.mark.parametrize("count", WORD_EDGE_COUNTS)
def test_packed_decoder_counts_sockets_not_items(count):
    # Item 0 fills two sockets of the only positive test: `twice` is set, so
    # the sole-PD rule certifies nothing, in every bit of every word.
    graph = graph_of(3, (0, 0, 1), (1, 2))
    words = packed_words(3, [0b001] * count)
    assert not decode_tables(*tables_of(graph), words, Algorithm.DD).any()
    # COMP leaves exactly item 0 PD.
    assert (decode_tables(*tables_of(graph), words, Algorithm.COMP) == words).all()
    # Every pattern of the hand-built graph, each at several bit positions.
    graph = graph_of(4, (0, 0, 1), (1, 2))
    for algorithm in Algorithm:
        assert_packed_matches_bool_and_bitmask(graph, [p % 16 for p in range(count)], algorithm)


@st.composite
def matching_unions(draw):
    """A spec, K >= 1 socket matchings of it, and patterns spanning one or more words."""
    spec = draw(st.one_of(irregular_specs(), st.sampled_from([regular_spec(4, 2, 2), regular_spec(2, 2, 2)])))
    matchings = draw(st.lists(st.permutations(range(spec.edge_count)), min_size=1, max_size=4))
    full = (1 << spec.n) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    return spec, matchings, (masks * 130)[: draw(st.sampled_from(WORD_EDGE_COUNTS))]


@settings(deadline=None, max_examples=200)
@given(matching_unions(), st.sampled_from(list(Algorithm)))
def test_tables_from_both_directions_decode_like_the_bitmask_decoders(case, algorithm):
    # Matching k puts item socket s = matching[q] on test socket q; union_tables
    # lays out the K graphs as one and finds the item-to-test direction itself.
    spec, matchings, masks = case
    n, m, graphs = spec.n, spec.m, len(matchings)
    socket_items = np.array(spec.socket_items)
    items = np.array([socket_items[list(matching)] for matching in matchings])
    tables = union_tables(items, n, spec.test_degrees)
    words = np.tile(packed_words(n, masks), (graphs, 1))
    estimate = decode_tables(*tables, words, algorithm)
    defectives, wrong = decode_counts(tables, words.reshape(graphs, n, -1), algorithm, len(masks))
    decode, kind = BITMASK_DECODERS[algorithm], 0 if algorithm is Algorithm.COMP else 1
    for k in range(graphs):
        members = np.split(items[k], np.cumsum(spec.test_degrees)[:-1])
        graph = PoolingGraph(n=n, m=m, adj=tuple(tuple(c.tolist()) for c in members))
        rows = estimate[k * n : (k + 1) * n]
        for p, mask in enumerate(masks):
            column = sum(1 << v for v in range(n) if int(rows[v, p // 64]) >> (p % 64) & 1)
            assert column == decode(graph, mask), (graph.adj, mask)
            assert (defectives[k, p], wrong[k, p]) == (mask.bit_count(), errors(column, mask)[kind])
