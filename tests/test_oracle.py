import functools
import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_reference
from poolgraph import ensemble, errors, oracle
from poolgraph.combinatorics import binomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, PoolingGraph, load_spec, regular_spec
from poolgraph.enumerator import build_table, fa_probability, md_probability
from poolgraph.errors import SizeLimitError
from poolgraph.oracle import exact_enumerators, exact_error_probability, multigraph_count

DELTAS = (0, Fraction(1, 3), Fraction(1, 2), 1)

# Small enough for the literal reference. The last spec has two degrees on
# each side, so both index tables are padded, and its degree-2 items can
# fill both sockets of a degree-2 test.
EQUALITY_SPECS = {
    "1,1,1": regular_spec(1, 1, 1),
    "2,1,2": regular_spec(2, 1, 2),
    "2,2,2": regular_spec(2, 2, 2),
    "4,1,2": regular_spec(4, 1, 2),
    "3,2,3": regular_spec(3, 2, 3),
    "6,1,2": regular_spec(6, 1, 2),
    "mixed-3": load_spec(Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "mixed-3.json"),
    "two-by-two": EnsembleSpec(
        n=4,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(1, 2), 2: Fraction(1, 2)}),
        right=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
    ),
}


@functools.cache
def _reference(name: str, algorithm: Algorithm):
    spec = EQUALITY_SPECS[name]
    report = oracle_reference.exact_enumerators(spec, algorithm)
    probabilities = [oracle_reference.exact_error_probability(spec, algorithm, d) for d in DELTAS]
    return list(report.table.values.items()), report.matchings_enumerated, probabilities


# Block bounds, by n. A block is at most K graphs, each laid out as one
# canonical matching, with K x W within the bound, W = ceil(2^n / 64) words
# per item row. "1 pair" fits less than one graph's words, so each block is
# a single graph. "11 matchings" gives blocks of 11 graphs, the last one
# partial unless 11 divides the graph count. Between items the partial
# matrices are cut into chunks of K too.
BLOCK_BOUNDS = {"default": None, "1 pair": lambda n: 1, "11 matchings": lambda n: 11 * -(-(1 << n) // 64)}


def _bound_blocks(monkeypatch, bound: str, n: int) -> None:
    if BLOCK_BOUNDS[bound]:
        monkeypatch.setattr(oracle, "CHUNK_PATTERNS", BLOCK_BOUNDS[bound](n))


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", list(EQUALITY_SPECS))
def test_batched_oracle_equals_literal_reference(name, algorithm, bound, monkeypatch):
    spec = EQUALITY_SPECS[name]
    _bound_blocks(monkeypatch, bound, spec.n)
    table, matchings, probabilities = _reference(name, algorithm)
    report = exact_enumerators(spec, algorithm)
    assert list(report.table.values.items()) == table
    assert report.matchings_enumerated == matchings == math.factorial(spec.edge_count)
    assert [exact_error_probability(spec, algorithm, d) for d in DELTAS] == probabilities
    assert [_closed_form_probability(report.table, d) for d in DELTAS] == probabilities


def _canonical_graph(spec: EnsembleSpec, matrix: tuple[int, ...]) -> PoolingGraph:
    """Test c's sockets hold its items in item order, M_vc copies of item v."""
    m = spec.m
    adj = tuple(tuple(v for v in range(spec.n) for _ in range(matrix[v * m + c])) for c in range(m))
    return PoolingGraph(n=spec.n, m=m, adj=adj)


@pytest.mark.parametrize("name", list(EQUALITY_SPECS))
def test_matchings_group_into_the_enumerated_matrices_with_weight_w(name):
    # The literal E! matchings, grouped by multiplicity matrix, are the
    # enumerated matrices, each once, and each group has W(M) matchings.
    spec = EQUALITY_SPECS[name]
    groups = Counter(oracle_reference.multiplicity_matrix(spec, graph) for graph in ensemble.enumerate_matchings(spec))
    blocks = list(oracle._matrix_blocks(spec, 2))
    matrices = [tuple(row) for block in blocks for row in block.tolist()]
    assert max(map(len, blocks)) <= 2
    assert len(matrices) == len(set(matrices)) == len(groups) == multigraph_count(spec)
    assert set(matrices) == set(groups)
    assert all(groups[matrix] == oracle_reference.weight(spec, matrix) for matrix in matrices)
    assert sum(groups.values()) == math.factorial(spec.edge_count)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("shape", [(2, 21, 42), (3, 20, 30)])
def test_weights_stay_exact_past_int64(shape, algorithm):
    # prod l_v! is 21!^2 or 20!^3, past int64; prod M_vc! is taken in Python ints, so the weights stay exact.
    spec = regular_spec(*shape)
    assert math.prod(map(math.factorial, spec.item_degrees)) >= 2**63
    assert exact_enumerators(spec, algorithm).table.values == build_table(spec, algorithm).values


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", list(EQUALITY_SPECS))
def test_error_blocks_equal_the_reference_on_canonical_graphs(name, algorithm, bound, monkeypatch):
    # Row k of each block holds the errors of the k-th matrix's canonical
    # graph under every pattern, as the one-pattern bitmask decoders count them.
    spec = EQUALITY_SPECS[name]
    _bound_blocks(monkeypatch, bound, spec.n)
    size = max(oracle.CHUNK_PATTERNS // -(-(1 << spec.n) // 64), 1)
    blocks = list(oracle._error_blocks(spec, algorithm, multigraph_count(spec)))
    assert {errors.dtype for _, errors in blocks} == {np.min_scalar_type(spec.n)}
    assert max(len(cells) for cells, _ in blocks) <= size
    for cells, errors in blocks:
        for matrix, row in zip(cells.tolist(), errors.tolist(), strict=True):
            graph = _canonical_graph(spec, matrix)
            assert row == [oracle_reference._pattern_errors(graph, mask, algorithm) for mask in range(1 << spec.n)]


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", ["2,1,2", "3,2,3", "mixed-3", "two-by-two"])
def test_error_blocks_follow_permutation_order(name, algorithm, bound, monkeypatch):
    # Row i of the blocks' errors, laid out by the matrix of each matching in
    # itertools.permutations order, the order the literal reference walks,
    # is the reference's errors of the i-th matching: they depend only on M.
    spec = EQUALITY_SPECS[name]
    _bound_blocks(monkeypatch, bound, spec.n)
    blocks = list(oracle._error_blocks(spec, algorithm, multigraph_count(spec)))
    rows = {tuple(matrix): row for cells, errors in blocks for matrix, row in zip(cells.tolist(), errors.tolist())}
    assert len(rows) == sum(len(cells) for cells, _ in blocks) == multigraph_count(spec)
    graphs = list(ensemble.enumerate_matchings(spec))
    expected = [[oracle_reference._pattern_errors(graph, mask, algorithm) for mask in range(1 << spec.n)] for graph in graphs]
    assert [rows[oracle_reference.multiplicity_matrix(spec, graph)] for graph in graphs] == expected


@pytest.mark.parametrize("words", [1, 4])
@pytest.mark.parametrize("edges", range(1, 9))
def test_matching_blocks_are_whole_and_in_permutation_order(edges, words):
    # On (E, 1, 1) every matrix is one matching, item v to test sigma(v), and
    # W(M) = 1, so the matrix walk is the walk over the E! matchings. A block
    # of K graphs of W words each fits K W <= bound, as _error_blocks sizes it.
    spec = regular_spec(edges, 1, 1)
    permutations = np.array(list(itertools.permutations(range(edges))))
    for bound in (1, 2, 5, 11, 176, 720, 4096):
        size = max(bound // words, 1)
        blocks = list(oracle._matrix_blocks(spec, size))
        assert max(map(len, blocks)) <= size and len(blocks) >= -(-len(permutations) // size), bound
        # Whole: every row is a complete permutation matrix.
        matrices = np.concatenate(blocks).reshape(-1, edges, edges)
        assert (matrices.sum(axis=1) == 1).all() and (matrices.sum(axis=2) == 1).all(), bound
        assert np.array_equal(matrices.argmax(axis=2), permutations), bound


def test_matching_blocks_at_the_default_bound():
    # 4,096 one-word graphs fit the default bound: (5,2,2)'s 6,210 graphs make
    # two blocks, in descending lexicographic order of their entries.
    spec = regular_spec(5, 2, 2)
    assert oracle.CHUNK_PATTERNS == 4096 and multigraph_count(spec) == 6210
    blocks = list(oracle._error_blocks(spec, Algorithm.DD, multigraph_count(spec)))
    assert [len(cells) for cells, _ in blocks] == [4096, 2114]
    matrices = np.concatenate([cells for cells, _ in blocks]).reshape(-1, spec.n, spec.m)
    assert (matrices.sum(axis=2) == 2).all() and (matrices.sum(axis=1) == 2).all()
    rows = [tuple(matrix) for matrix in matrices.reshape(len(matrices), -1).tolist()]
    assert rows == sorted(set(rows), reverse=True)


def test_tally_keys_fit_their_type_at_the_largest_accepted_n():
    # Every item has a socket, so E >= n, and the cheapest n-item spec has E = n.
    n = 1
    while True:
        try:
            multigraph_count(regular_spec(n + 1, 1, n + 1))
        except SizeLimitError:
            break
        n += 1
    # Each of these specs is one graph, so the item cap, not time, stops them.
    assert n == oracle.ORACLE_MAX_ITEMS
    for size in range(1, n + 1):
        # The largest key is a (n + 1) + j at a = j = n; form every key as _oracle_table does,
        # and hold it to the same key in int64. bitwise_count gives uint8, so a product
        # taken before the widening wraps at n = 16.
        kind = oracle._count_type(size)
        ones = np.bitwise_count(np.arange(1 << size))
        assert np.iinfo(kind).max >= size * (size + 1) + size
        for errors in range(size + 1):
            keys = ones.astype(kind) * (size + 1) + np.full(1 << size, errors, dtype=kind)
            assert keys.tolist() == (ones.astype(np.int64) * (size + 1) + errors).tolist()
    # uint8 holds every key up to n = 15, (n + 1)^2 - 1 = 255.
    assert [oracle._count_type(size) for size in (15, 16)] == [np.uint8, np.uint16]
    # Past the oracle's reach the type widens instead of wrapping.
    assert np.iinfo(oracle._count_type(300)).max >= 301**2 - 1


def test_one_pass_per_spec_and_decoder(monkeypatch):
    passes = []
    blocks = oracle._error_blocks

    def counted(spec, algorithm, graphs):
        passes.append((spec, algorithm))
        return blocks(spec, algorithm, graphs)

    monkeypatch.setattr(oracle, "_error_blocks", counted)
    spec, other = regular_spec(4, 2, 2), regular_spec(4, 1, 2)
    exact_enumerators(spec, Algorithm.DD)
    for delta in (0, Fraction(1, 3), Fraction(1, 2)):
        exact_error_probability(spec, Algorithm.DD, delta)
    assert passes == [(spec, Algorithm.DD)]
    exact_enumerators(spec, Algorithm.COMP)
    exact_error_probability(other, Algorithm.DD, Fraction(1, 2))
    assert passes == [(spec, Algorithm.DD), (spec, Algorithm.COMP), (other, Algorithm.DD)]
    table = oracle._oracle_table(spec, Algorithm.DD)
    assert exact_enumerators(spec, Algorithm.DD).table is table
    assert [sum(row) for row in table.rows] == [binomial(4, a) * math.factorial(8) for a in range(5)]
    assert isinstance(table.rows, tuple) and all(isinstance(row, tuple) for row in table.rows)
    with pytest.raises(AttributeError):
        table.rows = ()


def _predicted(spec: EnsembleSpec) -> float:
    """The weighted oracle's predicted seconds for spec, read with the limit lifted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "LIMIT_SECONDS", math.inf)
        return oracle._graph_seconds(spec, multigraph_count(spec))


def test_each_oracle_table_is_sized_once(monkeypatch):
    # A build counts its multigraphs once, before its first block; reading a
    # cached table counts nothing, whichever entry point built it.
    events, count, blocks = [], oracle._matrix_count, oracle._matrix_blocks

    def counted(spec):
        events.append("count")
        return count(spec)

    def blocked(spec, size):
        events.append("first block")
        yield from blocks(spec, size)

    monkeypatch.setattr(oracle, "_matrix_count", counted)
    monkeypatch.setattr(oracle, "_matrix_blocks", blocked)
    spec = regular_spec(4, 2, 2)
    for build in (
        lambda: exact_enumerators(spec, Algorithm.DD),
        lambda: exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)),
    ):
        oracle._oracle_table.cache_clear()
        events.clear()
        build()
        assert events == ["count", "first block"]
        for delta in (0, Fraction(1, 3), Fraction(1, 2)):
            exact_error_probability(spec, Algorithm.DD, delta)
        exact_enumerators(spec, Algorithm.DD)
        assert events == ["count", "first block"]


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", ["4,1,2", "mixed-3"])
def test_direct_expectation_equals_literal_reference_on_a_delta_grid(name, algorithm):
    # One integer sum over L M q^n against the reference's per-pattern Fractions.
    spec = EQUALITY_SPECS[name]
    for delta in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1):
        expected = oracle_reference.exact_error_probability(spec, algorithm, delta)
        assert exact_error_probability(spec, algorithm, delta) == expected, delta


@functools.cache
def _two_word_reference(algorithm: Algorithm):
    report = oracle_reference.exact_enumerators(regular_spec(7, 1, 7), algorithm)
    return list(report.table.values.items()), report.matchings_enumerated


def _closed_form_probability(table, delta):
    probability = fa_probability if table.algorithm is Algorithm.COMP else md_probability
    return probability(table, delta)


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_two_word_oracle_equals_literal_reference(algorithm, bound, monkeypatch):
    # 2^7 = 128 patterns: every item row spans two words.
    spec = regular_spec(7, 1, 7)
    _bound_blocks(monkeypatch, bound, spec.n)
    report = exact_enumerators(spec, algorithm)
    assert (list(report.table.values.items()), report.matchings_enumerated) == _two_word_reference(algorithm)
    closed = build_table(spec, algorithm)
    for delta in (Fraction(1, 3), Fraction(1, 2)):
        assert exact_error_probability(spec, algorithm, delta) == _closed_form_probability(closed, delta)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("r", [2, 4])
def test_four_word_oracle_matches_closed_form_per_cell(r, algorithm):
    # 2^8 = 256 patterns: every item row spans four words.
    spec = regular_spec(8, 1, r)
    report = exact_enumerators(spec, algorithm)
    closed = build_table(spec, algorithm)
    assert report.table.values.keys() == closed.values.keys()
    for key, value in report.table.values.items():
        assert value == closed.values[key], key
    for delta in (Fraction(1, 3), Fraction(1, 2)):
        direct = exact_error_probability(spec, algorithm, delta)
        assert direct == _closed_form_probability(closed, delta)


def _degrees(draw, total: int, parts: int) -> list[int]:
    """A composition of total into parts positive degrees."""
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=parts - 1, max_size=parts - 1, unique=True))
    bounds = [0, *sorted(cuts), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _distribution(degrees: list[int]) -> DegreeDistribution:
    return DegreeDistribution.from_dict({d: Fraction(k, len(degrees)) for d, k in Counter(degrees).items()})


@st.composite
def irregular_specs(draw):
    """Specs of 12 to 16 edges with more than one degree on some side, within 20,000 graphs."""
    edges, n = draw(st.integers(12, 16)), draw(st.integers(4, 8))
    m = draw(st.integers(2, n))
    items, tests = _degrees(draw, edges, n), _degrees(draw, edges, m)
    assume(len(set(items)) > 1 or len(set(tests)) > 1)
    spec = EnsembleSpec(n=n, m=m, left=_distribution(items), right=_distribution(tests))
    # The count itself: multigraph_count refuses some of these specs on time (667 s at 16! matchings).
    assume(oracle._matrix_count(spec) <= 20_000)
    return spec


@settings(deadline=None, max_examples=40)
@given(irregular_specs())
def test_weighted_oracle_equals_closed_forms_at_twelve_to_sixteen_edges(spec):
    # Past 11 edges no literal walk runs; the weighted oracle still checks the tables cell by cell.
    for algorithm in Algorithm:
        assert exact_enumerators(spec, algorithm).table.values == build_table(spec, algorithm).values


def test_comp_oracle_matches_closed_form_per_cell():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    closed = build_table(spec, Algorithm.COMP)
    assert report.table.values.keys() == closed.values.keys()
    for key, value in report.table.values.items():
        assert value == closed.values[key], key


def test_dd_oracle_matches_closed_form_per_cell():
    spec = regular_spec(2, 1, 2)
    report = exact_enumerators(spec, Algorithm.DD)
    closed = build_table(spec, Algorithm.DD)
    for key, value in report.table.values.items():
        assert value == closed.values[key], key


def test_oracle_walks_every_matching():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    assert report.matchings_enumerated == math.factorial(spec.edge_count)


def test_oracle_table_rows_sum_to_pattern_counts():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    table = report.table
    assert table.source == "oracle"
    assert table.denominator == report.matchings_enumerated
    assert table.bad_rows == []
    sums = {a: sum(v for (i, _), v in table.values.items() if i == a) for a in range(spec.n + 1)}
    assert sums == {a: binomial(spec.n, a) for a in range(spec.n + 1)}


@pytest.mark.parametrize("delta", [0, 1, Fraction(1, 2), Fraction(1, 3)])
def test_direct_expectation_agrees_with_table_route(delta):
    # exact_error_probability sums the table's rows itself; fa/md_probability
    # go through its error_weights and Horner's rule. Agreement means two
    # independent evaluations coincide.
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    direct = exact_error_probability(spec, Algorithm.COMP, delta)
    assert direct == fa_probability(report.table, delta)

    spec = regular_spec(2, 1, 2)
    report = exact_enumerators(spec, Algorithm.DD)
    direct = exact_error_probability(spec, Algorithm.DD, delta)
    assert direct == md_probability(report.table, delta)


def test_a_lost_block_fails_the_weight_check_under_python_optimize():
    # python -O strips assert statements; the oracle's only self-check must survive it.
    code = """
from poolgraph import oracle
from poolgraph.detection import Algorithm
from poolgraph.ensemble import regular_spec

blocks = oracle._error_blocks
def one_lost(spec, algorithm, graphs):
    found = list(blocks(spec, algorithm, graphs))
    if len(found) != 5:
        raise SystemExit(f"{len(found)} blocks")
    return found[:4]
oracle._error_blocks = one_lost
try:
    oracle.exact_enumerators(regular_spec(6, 2, 3), Algorithm.COMP)
except AssertionError as error:
    print(error)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "multigraph weights do not sum to E!\n", "")


def test_frozen_error_probabilities():
    half = Fraction(1, 2)
    assert exact_error_probability(regular_spec(4, 1, 2), Algorithm.COMP, half) == Fraction(7, 12)
    assert exact_error_probability(regular_spec(2, 1, 2), Algorithm.DD, half) == Fraction(3, 4)
    assert exact_error_probability(regular_spec(2, 1, 2), Algorithm.DD, 1) == 1


def test_socket_certification_counts_multi_edges():
    # n=2, l=2, m=2, r=2 forces double edges: every test holds two sockets
    # of PD items, whether of one item or of two.
    spec = regular_spec(2, 2, 2)
    socket = exact_enumerators(spec, Algorithm.DD)

    # A doubled edge fills both sockets of its test, so nothing is ever
    # certified: every defective set is missed wholesale.
    nonzero = {k: v for k, v in socket.table.values.items() if v}
    assert nonzero == {(0, 0): Fraction(1), (1, 1): Fraction(2), (2, 2): Fraction(1)}

    assert exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)) == Fraction(3, 4)


def test_refuses_oversized_ensembles():
    # 90! matchings: refused on the lgamma bound of the graph count, before the
    # graphs are counted or the 2^30 patterns sized.
    t0 = time.monotonic()
    message = r"^the oracle over 90! matchings is predicted to take [0-9.]+e\+[0-9]+ s, over the limit of 600 s$"
    with pytest.raises(SizeLimitError, match=message):
        exact_enumerators(regular_spec(30, 3, 6), Algorithm.COMP)
    with pytest.raises(SizeLimitError, match=message):
        exact_error_probability(regular_spec(30, 3, 6), Algorithm.DD, Fraction(1, 2))
    # 3,000,000! has some 1.8*10^7 digits: refused without being computed.
    huge = regular_spec(10**6, 3, 6)
    message = r"^the oracle over 3000000! matchings is predicted to take more than 1e308 s, over the limit of 600 s$"
    with pytest.raises(SizeLimitError, match=message):
        exact_enumerators(huge, Algorithm.DD)
    with pytest.raises(SizeLimitError, match=message):
        exact_error_probability(huge, Algorithm.COMP, Fraction(1, 2))
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize(
    "spec, limit",
    [
        (regular_spec(8, 1, 2), None),  # 2,520 graphs x 2^8 patterns
        (regular_spec(4, 2, 2), "at"),  # the limit set to its own prediction
        (regular_spec(4, 2, 2), "over"),  # the limit set just under it
        (regular_spec(9, 1, 3), "over"),
        (regular_spec(10, 1, 2), None),  # 113,400 graphs
        (regular_spec(12, 1, 2), None),  # 7,484,400 graphs x 64 words
    ],
    ids=["8,1,2", "4,2,2-at", "4,2,2-over", "9,1,3-over", "10,1,2", "12,1,2"],
)
def test_entry_points_accept_and_refuse_the_same_specs(spec, limit, monkeypatch):
    # Both entry points read the same pass, so they size it alike. Its blocks
    # are swapped for a stub that only says they were reached: only the size checks run.
    class Accepted(Exception):
        pass

    def reached(*args):
        raise Accepted

    monkeypatch.setattr(oracle, "_error_blocks", reached)
    seconds = _predicted(spec)
    if limit is not None:
        monkeypatch.setattr(errors, "LIMIT_SECONDS", seconds if limit == "at" else math.nextafter(seconds, 0))
    outcomes = []
    for call in (
        lambda: exact_enumerators(spec, Algorithm.DD),
        lambda: exact_error_probability(spec, Algorithm.DD, Fraction(1, 3)),
    ):
        try:
            call()
        except Accepted:
            outcomes.append("accepted")
        except SizeLimitError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] == "accepted") == (seconds <= errors.LIMIT_SECONDS)


def test_oracle_work_is_matchings_times_pattern_words():
    # A walk over all E! matchings (enumerate_matchings and the literal
    # reference) is predicted from E! x ceil(2^n / 64), from lgamma.
    for spec, words in ((regular_spec(4, 2, 2), 1), (regular_spec(8, 1, 2), 4), (regular_spec(9, 1, 3), 8)):
        units = ensemble._predicted_seconds(spec) / ensemble._ORACLE_SECONDS_PER_WORD
        assert round(units) == math.factorial(spec.edge_count) * words


@pytest.mark.parametrize(
    "shape, graphs",
    [((4, 2, 2), 282), ((3, 3, 3), 55), ((5, 2, 2), 6_210), ((6, 2, 3), 16_260), ((6, 2, 4), 2_385),
     ((8, 2, 4), 1_093_050), ((12, 1, 2), 7_484_400), ((16, 1, 16), 1)],
)
def test_oracle_work_is_graphs_times_pattern_words(shape, graphs):
    # The weighted oracle is predicted from its exact graph count: each graph
    # costs ceil(2^n / 64) words' decoding plus its enumeration. The lgamma
    # bound it refuses on first is never above that count.
    spec = regular_spec(*shape)
    words = -(-(1 << spec.n) // 64)
    assert multigraph_count(spec) == graphs
    assert oracle._graph_bound(spec) <= graphs * (1 + 1e-9)
    cost = words * oracle._GRAPH_SECONDS_PER_WORD + oracle._GRAPH_SECONDS
    assert math.isclose(oracle._graph_seconds(spec, graphs), graphs * cost, rel_tol=1e-12)
    assert math.isclose(_predicted(spec), graphs * cost, rel_tol=1e-12)


def test_oracle_takes_at_most_sixteen_items():
    # (n, 1, n) is one graph at every n, cheap in time; the item cap stops it past 16.
    for algorithm in Algorithm:
        spec = regular_spec(16, 1, 16)
        report = exact_enumerators(spec, algorithm)
        assert report.table.values == build_table(spec, algorithm).values
        assert report.matchings_enumerated == math.factorial(16)
    message = "^the oracle over 17! matchings takes at most 16 items, got n = 17$"
    for call in (
        lambda: multigraph_count(regular_spec(17, 1, 17)),
        lambda: exact_enumerators(regular_spec(17, 1, 17), Algorithm.COMP),
        lambda: exact_error_probability(regular_spec(17, 1, 17), Algorithm.DD, Fraction(1, 2)),
    ):
        with pytest.raises(SizeLimitError, match=message):
            call()



@pytest.mark.parametrize("shape, edges", [((16, 60, 60), 960), ((4, 100, 100), 400)])
def test_large_degrees_are_refused_while_counting(shape, edges):
    # The lgamma bound is far below one graph and n is within the cap, so the
    # exact count is reached; it stops at its entry budget, long before the
    # C(75, 15) rows of one degree-60 line or the ~10^9 steps of a full count.
    spec = regular_spec(*shape)
    assert oracle._graph_bound(spec) < 1 and spec.n <= oracle.ORACLE_MAX_ITEMS
    message = f"^the oracle over {edges}! matchings counts its multigraphs over at most 300,000 entries$"
    for call in (
        lambda: multigraph_count(spec),
        lambda: exact_enumerators(spec, Algorithm.COMP),
        lambda: exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)),
    ):
        t0 = time.monotonic()
        with pytest.raises(SizeLimitError, match=message):
            call()
        assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize(
    "spec, other",
    [
        (regular_spec(8, 2, 4), 4),  # items are the lines: 8 x C(5, 2) placements against 4 x C(11, 4)
        # Tests are the lines: 4 x C(8, 4) placements against 4 x C(4, 1) + C(15, 12).
        (EnsembleSpec(n=5, m=4, left=DegreeDistribution.from_dict({1: Fraction(4, 5), 12: Fraction(1, 5)}),
                      right=DegreeDistribution.regular(4)), 5),
    ],
)
def test_exact_count_fills_the_cheaper_side(spec, other, monkeypatch):
    # Either side gives the matrix count, as the matrix walk enumerates it.
    fills, calls = oracle._fills, []

    def recorded(degree, left):
        calls.append(len(left))
        return fills(degree, left)

    monkeypatch.setattr(oracle, "_fills", recorded)
    assert oracle._matrix_count(spec) == sum(map(len, oracle._matrix_blocks(spec, 4096)))
    assert max(calls) == other

def test_literal_reference_refuses_like_the_library(monkeypatch):
    # 1800! has over 5,000 digits; the reference decides without computing it.
    message = r"^the oracle over 1800! matchings is predicted to take more than 1e308 s, over the limit of 600 s$"
    with pytest.raises(SizeLimitError, match=message):
        oracle_reference.exact_error_probability(regular_spec(600, 3, 6), Algorithm.DD, Fraction(1, 2))
    # The reference walks all E! matchings through enumerate_matchings, so one
    # prediction, E! x ceil(2^n / 64), decides for both: just under (4,2,2)'s, each refuses.
    spec = regular_spec(4, 2, 2)
    monkeypatch.setattr(errors, "LIMIT_SECONDS", math.nextafter(ensemble._predicted_seconds(spec), 0))
    for call in (
        lambda: oracle_reference.exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)),
        lambda: oracle_reference.exact_enumerators(spec, Algorithm.DD),
        lambda: next(ensemble.enumerate_matchings(spec)),
    ):
        with pytest.raises(SizeLimitError, match="^the oracle over 8! matchings"):
            call()
    # The weighted oracle decodes 282 graphs, far under that limit.
    assert exact_enumerators(spec, Algorithm.DD).matchings_enumerated == math.factorial(8)


def test_delta_validation():
    spec = regular_spec(2, 1, 2)
    with pytest.raises(TypeError):
        exact_error_probability(spec, Algorithm.DD, 0.5)
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, Fraction(3, 2))
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, -1)

