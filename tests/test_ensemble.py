import json
import math
import pickle
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

import oracle_reference

from poolgraph.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    _graph_from_assignment,
    _permutation,
    enumerate_matchings,
    load_spec,
    parse_spec,
    regular_spec,
    sample_graph,
    save_spec,
    spec_hash,
    spec_to_jsonable,
)
from poolgraph.detection import Algorithm
from poolgraph.enumerator import build_table
from poolgraph.errors import SizeLimitError, ValidationError
from poolgraph.montecarlo import simulate
from poolgraph import oracle
from poolgraph.oracle import exact_enumerators, exact_error_probability


def mixed_spec():
    return EnsembleSpec(
        n=3,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(2, 3), 2: Fraction(1, 3)}),
        right=DegreeDistribution.regular(2),
    )


def test_validate_accepts_case_study_shape():
    spec = EnsembleSpec(
        n=30, m=15, left=DegreeDistribution.regular(3), right=DegreeDistribution.regular(6)
    )
    assert (spec.item_classes, spec.test_classes, spec.edge_count) == (((3, 30),), ((6, 15),), 90)


def test_validate_accepts_tiny_regular():
    spec = EnsembleSpec(
        n=4, m=2, left=DegreeDistribution.regular(1), right=DegreeDistribution.regular(2)
    )
    assert (spec.item_classes, spec.test_classes, spec.edge_count) == (((1, 4),), ((2, 2),), 4)


def test_validate_rejects_edge_count_mismatch():
    with pytest.raises(ValidationError, match="edge"):
        EnsembleSpec(
            n=4, m=3, left=DegreeDistribution.regular(1), right=DegreeDistribution.regular(2)
        )


def test_validate_rejects_more_tests_than_items():
    with pytest.raises(ValidationError, match="more tests than items"):
        EnsembleSpec(
            n=4, m=8, left=DegreeDistribution.regular(2), right=DegreeDistribution.regular(1)
        )


def test_validate_allows_equal_counts():
    # (4,2,2) has m = n = 4 and must be usable.
    assert regular_spec(4, 2, 2).test_classes == ((2, 4),)


def test_validate_rejects_fractional_node_counts():
    half_and_half = DegreeDistribution.from_dict({1: Fraction(1, 2), 2: Fraction(1, 2)})
    # Edge counts agree (9/2 both sides) but 3 * 1/2 nodes of degree 1 is not an integer.
    with pytest.raises(ValidationError, match="degree"):
        EnsembleSpec(n=3, m=3, left=half_and_half, right=half_and_half)


def test_spec_is_checked_only_when_made(monkeypatch):
    specs = [regular_spec(4, 2, 2), mixed_spec()]

    def refuse(*args):
        raise AssertionError("spec re-checked after construction")

    monkeypatch.setattr(DegreeDistribution, "__post_init__", refuse)
    monkeypatch.setattr(DegreeDistribution, "node_counts", refuse)
    monkeypatch.setattr(DegreeDistribution, "mean", refuse)
    for spec in specs:
        for algorithm in Algorithm:
            build_table.__wrapped__(spec, algorithm)
            simulate(spec, algorithm, Fraction(1, 4), 2, 8, seed=1)
        # The oracle reads the spec the same way for both decoders; COMP is the quicker one.
        exact_enumerators(spec, Algorithm.COMP)
        exact_error_probability(spec, Algorithm.COMP, Fraction(1, 2))
        sample_graph(spec, 0)
        next(enumerate_matchings(spec))


def test_kept_counts_stay_out_of_identity():
    built = [
        regular_spec(4, 2, 2),
        parse_spec(spec_to_jsonable(regular_spec(4, 2, 2))),
        EnsembleSpec(n=4, m=4, left=DegreeDistribution.regular(2), right=DegreeDistribution.regular(2)),
        EnsembleSpec(
            n=4, m=4, left=DegreeDistribution(((2, Fraction(1)),)), right=DegreeDistribution(((2, Fraction(1)),))
        ),
        # Entries given as lists are kept as a tuple of pairs.
        EnsembleSpec(
            n=4, m=4, left=DegreeDistribution([(2, Fraction(1))]), right=DegreeDistribution([[2, Fraction(1)]])
        ),
    ]
    assert all(spec == built[0] for spec in built)
    assert len({hash(spec) for spec in built}) == 1
    assert len({spec_hash(spec) for spec in built}) == 1
    assert repr(built[0]) == repr(built[2])
    table = build_table(built[0], Algorithm.COMP)
    hits = build_table.cache_info().hits
    assert all(build_table(spec, Algorithm.COMP) is table for spec in built[1:])
    assert build_table.cache_info().hits == hits + len(built) - 1
    for spec in (built[0], mixed_spec()):
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert (copy.item_classes, copy.test_classes, copy.edge_count) == (
            spec.item_classes, spec.test_classes, spec.edge_count
        )


@pytest.mark.parametrize("degree", [2.7, 2.0, True, "3"])
def test_degree_must_be_an_int(degree):
    with pytest.raises(ValidationError, match="degree must be an int"):
        DegreeDistribution.from_dict({degree: 1})
    with pytest.raises(ValidationError, match="degree must be an int"):
        DegreeDistribution.from_dict({3: Fraction(1, 2), degree: Fraction(1, 2)})


@pytest.mark.parametrize("n, m", [(4.0, 2), (4, 2.0), (True, 1), (4, True), ("4", 2)])
def test_node_counts_must_be_ints(n, m):
    with pytest.raises(ValidationError, match="must be an int"):
        EnsembleSpec(n=n, m=m, left=DegreeDistribution.regular(1), right=DegreeDistribution.regular(2))


@pytest.mark.parametrize("n, l, r", [(4.0, 1, 2), (True, 1, 1), (4, 1.0, 2), (4, 1, 2.0), (4, True, 2)])
def test_regular_spec_arguments_must_be_ints(n, l, r):
    with pytest.raises(ValidationError, match="must be an int"):
        regular_spec(n, l, r)


def test_degree_distribution_must_sum_to_one():
    with pytest.raises(ValidationError):
        DegreeDistribution.from_dict({1: Fraction(1, 2)})
    with pytest.raises(ValidationError):
        DegreeDistribution.from_dict({0: Fraction(1)})
    with pytest.raises(ValidationError):
        DegreeDistribution.from_dict({1: Fraction(3, 2), 2: Fraction(-1, 2)})


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "entries",
    [
        ((1, HALF),),  # sums to 1/2
        ((3, HALF), (1, HALF)),  # out of degree order
        ((2, HALF), (2, HALF)),  # a repeated degree
        ((1, Fraction(0)), (2, Fraction(1))),  # a zero fraction
        ((0, Fraction(1)),),
        ((2.0, Fraction(1)),),
        ((True, Fraction(1)),),
        ((1, 0.5), (2, HALF)),  # a float fraction
        {1: 0.5, 2: 0.5},  # from_dict: float fractions, named whether or not they sum to 1
        {1: 0.1, 2: 0.9},
        {2: True},
    ],
)
def test_degree_distribution_is_checked_when_made(entries):
    if isinstance(entries, dict):
        with pytest.raises(ValidationError, match=r"^degree [12]: fraction must be exact, got (0\.|True)"):
            DegreeDistribution.from_dict(entries)
    else:
        with pytest.raises(ValidationError):
            DegreeDistribution(entries)


def test_regular_spec_case_study():
    spec = regular_spec(30, 3, 6)
    assert spec.m == 15
    assert spec.edge_count == 90


def test_regular_spec_small():
    assert regular_spec(4, 1, 2).m == 2


def test_regular_spec_divisibility():
    with pytest.raises(ValidationError):
        regular_spec(4, 2, 3)


def test_sample_graph_deterministic():
    spec = regular_spec(6, 2, 3)
    assert sample_graph(spec, 99) == sample_graph(spec, 99)
    assert sample_graph(spec, 99) != sample_graph(spec, 100)


def test_sample_graph_preserves_degrees():
    spec = regular_spec(4, 1, 2)
    for seed in range(1000):
        graph = sample_graph(spec, seed)
        assert all(len(members) == 2 for members in graph.adj)
        seen = [0] * 4
        for members in graph.adj:
            for item in members:
                seen[item] += 1
        assert seen == [1, 1, 1, 1]


def item_degrees(graph):
    """Every item's degree, counted from the tests' socket lists, in ascending order."""
    return sorted(sum(members.count(v) for members in graph.adj) for v in range(graph.n))


def test_sample_graph_mixed_degrees():
    spec = mixed_spec()
    for seed in range(200):
        graph = sample_graph(spec, seed)
        assert item_degrees(graph) == [1, 1, 2]
        assert all(len(members) == 2 for members in graph.adj)


class _RawWords:
    """A bit generator stand-in: the given raw words first, then PCG64(seed)'s."""

    def __init__(self, words, seed=0):
        self.words = list(words)
        self.rest = np.random.PCG64(seed)

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0) if self.words else int(self.rest.random_raw())
        return np.array([self.random_raw() for _ in range(size)], dtype=np.uint64)


def _reference_permutation(bits, size):
    """Textbook Fisher-Yates; Lemire's bounded draw one Python int at a time."""
    order = list(range(size))
    for i in range(size - 1, 0, -1):
        bound = i + 1
        product = int(bits.random_raw()) * bound
        while product % 2**64 < 2**64 % bound:
            product = int(bits.random_raw()) * bound
        j = product // 2**64
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("size", [1, 2, 3, 90, 1000])
def test_permutation_matches_reference_on_the_same_raw_words(size):
    for seed in range(20):
        fast, slow = np.random.PCG64(seed), np.random.PCG64(seed)
        order = _permutation(fast, size)
        assert order == _reference_permutation(slow, size)
        assert sorted(order) == list(range(size))
        # Both read exactly size - 1 words.
        assert fast.random_raw() == slow.random_raw()


def test_permutation_redraws_rejected_words_in_stream_order():
    # Word 0 times a bound b that is not a power of two has low word 0 < 2^64 mod b,
    # so Lemire rejects it and reads the next word.
    words = [0, 0, 2**64 - 1, 123456789 << 30, 0, 1, 2**63]
    for size in (3, 7, 12):
        order = _permutation(_RawWords(words, seed=5), size)
        assert order == _reference_permutation(_RawWords(words, seed=5), size)
        assert sorted(order) == list(range(size))


def test_sample_graph_is_a_shuffle_of_raw_words():
    spec = mixed_spec()
    for seed in range(50):
        assignment = _reference_permutation(np.random.PCG64(seed), spec.edge_count)
        expected = _graph_from_assignment(spec, assignment)
        assert sample_graph(spec, seed) == expected


def test_single_test_matchings_all_identical():
    spec = EnsembleSpec(
        n=3, m=1, left=DegreeDistribution.regular(1), right=DegreeDistribution.regular(3)
    )
    structures = {tuple(sorted(g.adj[0])) for g in enumerate_matchings(spec)}
    assert structures == {(0, 1, 2)}


def test_enumerate_matchings_counts():
    assert sum(1 for _ in enumerate_matchings(regular_spec(4, 1, 2))) == 24
    assert sum(1 for _ in enumerate_matchings(regular_spec(4, 2, 2))) == math.factorial(8)


def test_enumerate_matchings_yields_valid_graphs():
    spec = mixed_spec()
    for graph in enumerate_matchings(spec):
        assert sum(len(members) for members in graph.adj) == spec.edge_count
        assert item_degrees(graph) == [1, 1, 2]


def test_enumerate_matchings_refuses_oversized():
    with pytest.raises(SizeLimitError, match="90"):
        next(iter(enumerate_matchings(regular_spec(30, 3, 6))))


def test_spec_json_round_trip():
    spec = mixed_spec()
    parsed = parse_spec(spec_to_jsonable(spec))
    assert parsed == spec
    assert spec_hash(parsed) == spec_hash(spec)


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    spec = regular_spec(6, 2, 3)
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_shorthand_spec_form():
    assert parse_spec({"n": 4, "l": 1, "r": 2}) == regular_spec(4, 1, 2)


def test_shorthand_rejects_extra_fields():
    with pytest.raises(ValidationError):
        parse_spec({"n": 4, "l": 1, "r": 2, "m": 2})


def test_parse_spec_rejects_float_fractions():
    # Refused for their JSON type, before any range check: int() would turn 2.0, 1.9 or True into a count.
    for bad in (0.5, 1.9, 2.0, True, "3"):
        for key in ("n", "m", "degree", "num", "den"):
            obj = spec_to_jsonable(mixed_spec())
            (obj if key in ("n", "m") else obj["lambda"][0])[key] = bad
            with pytest.raises(ValidationError, match="must be a JSON integer"):
                parse_spec(obj)
    for key, bad in [("n", 30.5), ("n", "30"), ("l", 3.0), ("r", True)]:
        with pytest.raises(ValidationError, match="must be a JSON integer"):
            parse_spec({"n": 30, "l": 3, "r": 6, key: bad})
    full = {
        "n": 4.9,
        "m": 2,
        "lambda": [{"degree": 1.5, "num": 1.9, "den": 1}],
        "rho": [{"degree": 2, "num": 1, "den": 1}],
    }
    with pytest.raises(ValidationError, match="must be a JSON integer"):
        parse_spec(full)


def test_parse_spec_rejects_duplicate_degrees():
    obj = {
        "n": 4,
        "m": 2,
        "lambda": [{"degree": 1, "num": 1, "den": 2}, {"degree": 1, "num": 1, "den": 2}],
        "rho": [{"degree": 2, "num": 1, "den": 1}],
    }
    with pytest.raises(ValidationError):
        parse_spec(obj)


def test_load_spec_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_spec(path)


def test_load_spec_refuses_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValidationError, match=r"deep\.json: invalid JSON \(maximum recursion depth exceeded"):
        load_spec(path)


def test_spec_hash_distinguishes_specs():
    assert spec_hash(regular_spec(4, 1, 2)) != spec_hash(regular_spec(4, 2, 2))
    assert len(spec_hash(regular_spec(4, 1, 2))) == 12


def test_spec_jsonable_is_json_serializable():
    text = json.dumps(spec_to_jsonable(mixed_spec()))
    assert parse_spec(json.loads(text)) == mixed_spec()


# Significance of the sampler-law test, fixed before its first run.
SAMPLER_ALPHA = 1e-3


def _chi_square_critical(df: int, alpha: float) -> float:
    """The chi-square upper-alpha point, by the Wilson-Hilferty cube-root normal approximation (no scipy)."""
    z = NormalDist().inv_cdf(1 - alpha)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def _pooled(expected: list[float], observed: list[int]) -> list[tuple[float, int]]:
    """(expected, observed) cells, those expected under 5 pooled into one, topped up by the smallest others."""
    order = sorted(range(len(expected)), key=expected.__getitem__)
    small = [i for i in order if expected[i] < 5]
    large = [i for i in order if expected[i] >= 5]
    while small and sum(expected[i] for i in small) < 5:
        small.append(large.pop(0))
    cells = [(expected[i], observed[i]) for i in large]
    if small:
        cells.append((sum(expected[i] for i in small), sum(observed[i] for i in small)))
    return cells


@pytest.mark.parametrize(
    "spec, draws",
    [
        (regular_spec(4, 2, 2), 20_000),  # 282 multigraphs, none pooled
        (regular_spec(3, 3, 3), 5_000),  # 55 multigraphs
        (  # 45 multigraphs, two degrees on each side
            EnsembleSpec(
                n=4, m=3,
                left=DegreeDistribution.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}),
                right=DegreeDistribution.from_dict({2: Fraction(2, 3), 4: Fraction(1, 3)}),
            ),
            5_000,
        ),
    ],
    ids=["4,2,2", "3,3,3", "irregular-4"],
)
def test_sampled_multigraphs_follow_the_configuration_law(spec, draws):
    # A uniform matching gives the labelled multigraph M with probability
    # W(M) / E!, W(M) = prod l_v! prod r_c! / prod M_vc!. Seeds 0, 1, ... are fixed.
    matrices = [tuple(row) for block in oracle._matrix_blocks(spec, 1024) for row in block.tolist()]
    weights = [oracle_reference.weight(spec, matrix) for matrix in matrices]
    assert sum(weights) == math.factorial(spec.edge_count)
    seen = Counter(oracle_reference.multiplicity_matrix(spec, sample_graph(spec, seed)) for seed in range(draws))
    assert set(seen) <= set(matrices)
    expected = [draws * w / math.factorial(spec.edge_count) for w in weights]
    cells = _pooled(expected, [seen[M] for M in matrices])
    statistic = sum((o - e) ** 2 / e for e, o in cells)
    assert statistic <= _chi_square_critical(len(cells) - 1, SAMPLER_ALPHA), (statistic, len(cells) - 1)
