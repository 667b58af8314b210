import functools
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_reference
from poolgraph import oracle
from poolgraph.combinatorics import binomial
from poolgraph.detection import Algorithm
from poolgraph.ensemble import DegreeDistribution, EnsembleSpec, load_spec, regular_spec
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
    return list(report.exact_table.items()), report.matchings_enumerated, probabilities


# Block bounds in (matching, pattern) pairs, by n: below one matching (so
# one matching per block), and 11 matchings, which divides no E! here.
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
    assert list(report.exact_table.items()) == table
    assert report.matchings_enumerated == matchings == math.factorial(spec.edge_count)
    assert [exact_error_probability(spec, algorithm, d) for d in DELTAS] == probabilities


def test_comp_oracle_matches_closed_form_per_cell():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    closed = build_table(spec, Algorithm.COMP)
    assert report.exact_table.keys() == closed.values.keys()
    for key, value in report.exact_table.items():
        assert value == closed.values[key], key


def test_dd_oracle_matches_closed_form_per_cell():
    spec = regular_spec(2, 1, 2)
    report = exact_enumerators(spec, Algorithm.DD)
    closed = build_table(spec, Algorithm.DD)
    for key, value in report.exact_table.items():
        assert value == closed.values[key], key


def test_oracle_walks_every_matching():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    assert report.matchings_enumerated == math.factorial(spec.edge_count)


def test_oracle_table_rows_sum_to_pattern_counts():
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    table = report.as_table()
    assert table.source == "oracle"
    assert table.check_row_sums()
    sums = table.row_sums()
    assert sums == {a: binomial(spec.n, a) for a in range(spec.n + 1)}


@pytest.mark.parametrize("delta", [0, 1, Fraction(1, 2), Fraction(1, 3)])
def test_direct_expectation_agrees_with_table_route(delta):
    # exact_error_probability never builds a table; fa/md_probability only
    # consume one. Agreement means two independent aggregations coincide.
    spec = regular_spec(4, 1, 2)
    report = exact_enumerators(spec, Algorithm.COMP)
    direct = exact_error_probability(spec, Algorithm.COMP, delta)
    assert direct == fa_probability(report.as_table(), delta)

    spec = regular_spec(2, 1, 2)
    report = exact_enumerators(spec, Algorithm.DD)
    direct = exact_error_probability(spec, Algorithm.DD, delta)
    assert direct == md_probability(report.as_table(), delta)


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
    nonzero = {k: v for k, v in socket.exact_table.items() if v}
    assert nonzero == {(0, 0): Fraction(1), (1, 1): Fraction(2), (2, 2): Fraction(1)}

    assert exact_error_probability(spec, Algorithm.DD, Fraction(1, 2)) == Fraction(3, 4)


def test_refuses_oversized_ensembles():
    # 90! matchings: refused before the 2^30 patterns are sized.
    t0 = time.monotonic()
    with pytest.raises(SizeLimitError, match=r"^90! socket matchings exceed the limit 1000000$"):
        exact_enumerators(regular_spec(30, 3, 6), Algorithm.COMP)
    with pytest.raises(SizeLimitError, match=r"^90! matchings x 2\^30 patterns exceed the oracle limit 1000000$"):
        exact_error_probability(regular_spec(30, 3, 6), Algorithm.DD, Fraction(1, 2))
    # 3,000,000! has some 1.8*10^7 digits: refused without being computed.
    huge = regular_spec(10**6, 3, 6)
    with pytest.raises(SizeLimitError, match=r"^3000000! socket matchings exceed the limit 1000000$"):
        exact_enumerators(huge, Algorithm.DD)
    with pytest.raises(SizeLimitError, match=r"^3000000! matchings x 2\^1000000 patterns exceed the oracle limit 1000000$"):
        exact_error_probability(huge, Algorithm.COMP, Fraction(1, 2))
    assert time.monotonic() - t0 < 1.0
    # 8! matchings alone fit in 10^5; crossed with 2^4 patterns they do not.
    with pytest.raises(SizeLimitError, match=r"^8! matchings x 2\^4 patterns exceed the oracle limit 100000$"):
        exact_error_probability(regular_spec(4, 2, 2), Algorithm.DD, Fraction(1, 2), limit=10**5)
    with pytest.raises(SizeLimitError, match="^8! socket matchings exceed the limit 1000$"):
        exact_enumerators(regular_spec(4, 2, 2), Algorithm.DD, limit=10**3)


def test_delta_validation():
    spec = regular_spec(2, 1, 2)
    with pytest.raises(TypeError):
        exact_error_probability(spec, Algorithm.DD, 0.5)
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, Fraction(3, 2))
    with pytest.raises(ValueError):
        exact_error_probability(spec, Algorithm.DD, -1)

