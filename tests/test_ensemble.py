import json
import math
import pickle
from fractions import Fraction

import pytest

from poolgraph.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
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
    assert (spec.left_counts(), spec.right_counts(), spec.edge_count) == ({3: 30}, {6: 15}, 90)


def test_validate_accepts_tiny_regular():
    spec = EnsembleSpec(
        n=4, m=2, left=DegreeDistribution.regular(1), right=DegreeDistribution.regular(2)
    )
    assert (spec.left_counts(), spec.right_counts(), spec.edge_count) == ({1: 4}, {2: 2}, 4)


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
    assert regular_spec(4, 2, 2).right_counts() == {2: 4}


def test_validate_rejects_fractional_node_counts():
    half_and_half = DegreeDistribution.from_dict({1: Fraction(1, 2), 2: Fraction(1, 2)})
    # Edge counts agree (9/2 both sides) but 3 * 1/2 nodes of degree 1 is not an integer.
    with pytest.raises(ValidationError, match="degree"):
        EnsembleSpec(n=3, m=3, left=half_and_half, right=half_and_half)


def test_spec_is_checked_only_when_made(monkeypatch):
    specs = [regular_spec(4, 2, 2), mixed_spec()]

    def refuse(*args):
        raise AssertionError("spec re-checked after construction")

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
    ]
    assert all(spec == built[0] for spec in built)
    assert len({hash(spec) for spec in built}) == 1
    assert len({spec_hash(spec) for spec in built}) == 1
    assert repr(built[0]) == repr(built[2])
    table = build_table(built[0], Algorithm.COMP)
    hits = build_table.cache_info().hits
    assert all(build_table(spec, Algorithm.COMP) is table for spec in built[1:])
    assert build_table.cache_info().hits == hits + 2
    for spec in (built[0], mixed_spec()):
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert (copy.left_counts(), copy.right_counts(), copy.edge_count) == (
            spec.left_counts(), spec.right_counts(), spec.edge_count
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


def test_sample_graph_mixed_degrees():
    spec = mixed_spec()
    for seed in range(200):
        graph = sample_graph(spec, seed)
        assert sorted(graph.left_degrees) == [1, 1, 2]
        assert all(len(members) == 2 for members in graph.adj)


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
        assert sum(graph.left_degrees) == spec.edge_count
        assert sorted(graph.left_degrees) == [1, 1, 2]


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


def test_spec_hash_distinguishes_specs():
    assert spec_hash(regular_spec(4, 1, 2)) != spec_hash(regular_spec(4, 2, 2))
    assert len(spec_hash(regular_spec(4, 1, 2))) == 12


def test_spec_jsonable_is_json_serializable():
    text = json.dumps(spec_to_jsonable(mixed_spec()))
    assert parse_spec(json.loads(text)) == mixed_spec()
