import functools
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle_reference
from poolgraph import ensemble, errors, oracle
from poolgraph.combinatorics import binomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, load_spec, matching_count, regular_spec
from poolgraph.enumerator import build_table, fa_probability, md_probability
from poolgraph.errors import SizeLimitError
from poolgraph.oracle import exact_enumerators, exact_error_probability

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


# Block bounds, by n. A block is k! matchings with k! x W within the bound,
# W = ceil(2^n / 64) words per item row, so it is never partial. "1 pair"
# fits at most one matching's words, so each block is a single matching.
# "11 matchings" (11 x 2^n) gives blocks of 6 to 120 matchings: 120 at n=4.
BLOCK_BOUNDS = {"default": None, "1 pair": lambda n: 1, "11 matchings": lambda n: 11 << n}


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", list(EQUALITY_SPECS))
def test_batched_oracle_equals_literal_reference(name, algorithm, bound, monkeypatch):
    spec = EQUALITY_SPECS[name]
    if BLOCK_BOUNDS[bound]:
        monkeypatch.setattr(oracle, "CHUNK_PATTERNS", BLOCK_BOUNDS[bound](spec.n))
    table, matchings, probabilities = _reference(name, algorithm)
    report = exact_enumerators(spec, algorithm)
    assert list(report.table.values.items()) == table
    assert report.matchings_enumerated == matchings == math.factorial(spec.edge_count)
    assert [exact_error_probability(spec, algorithm, d) for d in DELTAS] == probabilities
    assert [_closed_form_probability(report.table, d) for d in DELTAS] == probabilities


def _block_rows(edges: int, words: int, bound: int) -> int:
    """k! for the largest k <= edges with k! * words <= bound, or 1 if there is none."""
    fitting = [math.factorial(k) for k in range(edges + 1) if math.factorial(k) * words <= bound]
    return max(fitting, default=1)


def _blocks(edges: int, words: int) -> list[np.ndarray]:
    """The matching blocks as the oracle consumes them: order[columns] for each order."""
    columns, orders = oracle._matching_blocks(edges, words)
    return [order[columns] for order in orders]


@pytest.mark.parametrize("words", [1, 4])
@pytest.mark.parametrize("edges", range(1, 9))
def test_matching_blocks_are_whole_and_in_permutation_order(edges, words, monkeypatch):
    permutations = [list(p) for p in itertools.permutations(range(edges))]
    for bound in (1, 2, 5, 11, 176, 720, 4096):
        monkeypatch.setattr(oracle, "CHUNK_PATTERNS", bound)
        blocks = _blocks(edges, words)
        rows = _block_rows(edges, words, bound)
        assert {len(block) for block in blocks} == {rows}, bound
        assert np.concatenate(blocks).tolist() == permutations, bound


def test_matching_blocks_at_the_default_bound():
    # 6! = 720 one-word matchings fit in 4,096; 7! = 5,040 do not.
    blocks = _blocks(9, 1)
    assert {len(block) for block in blocks} == {_block_rows(9, 1, oracle.CHUNK_PATTERNS)} == {720}
    assert np.concatenate(blocks).tolist() == [list(p) for p in itertools.permutations(range(9))]


@pytest.mark.parametrize("bound", list(BLOCK_BOUNDS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("name", ["2,1,2", "3,2,3", "mixed-3", "two-by-two"])
def test_error_blocks_follow_permutation_order(name, algorithm, bound, monkeypatch):
    # Row i of the concatenated blocks is the i-th matching of itertools.permutations,
    # which is the order the literal reference walks.
    spec = EQUALITY_SPECS[name]
    if BLOCK_BOUNDS[bound]:
        monkeypatch.setattr(oracle, "CHUNK_PATTERNS", BLOCK_BOUNDS[bound](spec.n))
    blocks = list(oracle._error_blocks(spec, algorithm))
    assert {block.dtype for block in blocks} == {oracle._count_type(spec.n)}
    expected = [
        [oracle_reference._pattern_errors(graph, mask, algorithm) for mask in range(1 << spec.n)]
        for graph in ensemble.enumerate_matchings(spec)
    ]
    assert np.concatenate(blocks).tolist() == expected


def test_tally_keys_fit_their_type_at_the_largest_accepted_n():
    # Every item has a socket, so E >= n, and the cheapest n-item spec has E = n.
    n = 1
    while True:
        try:
            matching_count(regular_spec(n + 1, 1, n + 1))
        except SizeLimitError:
            break
        n += 1
    for size in range(1, n + 1):
        # The largest key is a (n + 1) + j at a = j = n; form every key as _oracle_table does.
        kind = oracle._count_type(size)
        ones = np.bitwise_count(np.arange(1 << size))
        assert np.iinfo(kind).max >= size * (size + 1) + size
        for errors in range(size + 1):
            keys = (ones * (size + 1)).astype(kind) + np.full(1 << size, errors, dtype=kind)
            assert keys.tolist() == (ones * (size + 1) + errors).tolist()
    # uint8 holds every key up to n = 15, (n + 1)^2 - 1 = 255.
    assert [oracle._count_type(size) for size in (15, 16)] == [np.uint8, np.uint16]
    # Past the oracle's reach the type widens instead of wrapping.
    assert np.iinfo(oracle._count_type(300)).max >= 301**2 - 1


def test_one_pass_per_spec_and_decoder(monkeypatch):
    passes = []
    blocks = oracle._error_blocks

    def counted(spec, algorithm):
        passes.append((spec, algorithm))
        return blocks(spec, algorithm)

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


def test_cached_counts_are_refused_like_fresh_ones(monkeypatch):
    # Every call sizes its spec before it reads the cache: just under (4,2,2)'s
    # prediction, both entry points refuse it although its counts are cached.
    spec = regular_spec(4, 2, 2)
    exact_enumerators(spec, Algorithm.DD)
    assert oracle._oracle_table.cache_info().currsize == 1
    monkeypatch.setattr(errors, "LIMIT_SECONDS", math.nextafter(ensemble._predicted_seconds(spec), 0))
    for call in (
        lambda: exact_enumerators(spec, Algorithm.DD),
        lambda: exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)),
    ):
        with pytest.raises(SizeLimitError, match="^the oracle over 8! matchings"):
            call()


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
    if BLOCK_BOUNDS[bound]:
        monkeypatch.setattr(oracle, "CHUNK_PATTERNS", BLOCK_BOUNDS[bound](spec.n))
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
    # 90! matchings: refused before the 2^30 patterns are sized.
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
        (regular_spec(8, 1, 2), None),  # 8! x 2^8 (matching, pattern) pairs
        (regular_spec(4, 2, 2), "at"),  # the limit set to its own prediction
        (regular_spec(4, 2, 2), "over"),  # the limit set just under it
        (regular_spec(9, 1, 3), "over"),
        (regular_spec(10, 1, 2), None),  # 10! matchings
        (regular_spec(12, 1, 2), None),  # 12! matchings x 64 words
    ],
    ids=["8,1,2", "4,2,2-at", "4,2,2-over", "9,1,3-over", "10,1,2", "12,1,2"],
)
def test_entry_points_accept_and_refuse_the_same_specs(spec, limit, monkeypatch):
    # Both entry points decode the same blocks, so they size them alike. Blocks
    # are swapped for one empty block: only the size checks run.
    monkeypatch.setattr(oracle, "_error_blocks", lambda *args: iter([np.zeros((1, 1 << spec.n), dtype=np.intp)]))
    seconds = ensemble._predicted_seconds(spec)
    if limit is not None:
        monkeypatch.setattr(errors, "LIMIT_SECONDS", seconds if limit == "at" else math.nextafter(seconds, 0))
    outcomes = []
    for call in (
        lambda: exact_enumerators(spec, Algorithm.DD),
        lambda: exact_error_probability(spec, Algorithm.DD, Fraction(1, 3)),
    ):
        try:
            call()
            outcomes.append("accepted")
        except SizeLimitError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] == "accepted") == (seconds <= errors.LIMIT_SECONDS)


def test_oracle_work_is_matchings_times_pattern_words():
    # E! x ceil(2^n / 64), the count the prediction scales, from lgamma.
    for spec, words in ((regular_spec(4, 2, 2), 1), (regular_spec(8, 1, 2), 4), (regular_spec(9, 1, 3), 8)):
        units = ensemble._predicted_seconds(spec) / ensemble._ORACLE_SECONDS_PER_WORD
        assert round(units) == math.factorial(spec.edge_count) * words


def test_literal_reference_refuses_like_the_library(monkeypatch):
    # 1800! has over 5,000 digits; the reference decides without computing it.
    message = r"^the oracle over 1800! matchings is predicted to take more than 1e308 s, over the limit of 600 s$"
    with pytest.raises(SizeLimitError, match=message):
        oracle_reference.exact_error_probability(regular_spec(600, 3, 6), Algorithm.DD, Fraction(1, 2))
    # One prediction decides for every entry point: just under (4,2,2)'s, each refuses.
    spec = regular_spec(4, 2, 2)
    monkeypatch.setattr(errors, "LIMIT_SECONDS", math.nextafter(ensemble._predicted_seconds(spec), 0))
    for call in (
        lambda: oracle_reference.exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)),
        lambda: oracle_reference.exact_enumerators(spec, Algorithm.DD),
        lambda: next(ensemble.enumerate_matchings(spec)),
        lambda: exact_enumerators(spec, Algorithm.DD),
    ):
        with pytest.raises(SizeLimitError, match="^the oracle over 8! matchings"):
            call()


def test_delta_validation():
    spec = regular_spec(2, 1, 2)
    with pytest.raises(TypeError):
        exact_error_probability(spec, Algorithm.DD, 0.5)
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, Fraction(3, 2))
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, -1)

