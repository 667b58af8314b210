"""End-to-end acceptance suite.

Eleven checks, each printing a single PASS/FAIL line (visible with -s).
Exact tables must agree with their references to the rational, Monte
Carlo must land within four standard errors of the analytic value, and
fixed seeds must give bit-identical output regardless of worker count.
"""

import hashlib
import io
import math
import random
import time
from fractions import Fraction

from poolgraph.detection import Algorithm, comp_pd_mask, dd_certified_mask
from poolgraph.ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    regular_spec,
    sample_graph,
)
from gf_reference import reference_table
from poolgraph.enumerator import build_table, fa_probability, md_probability, write_table_csv
from poolgraph.montecarlo import derive_seed, simulate, write_trials_csv
from poolgraph.oracle import exact_enumerators, exact_error_probability

CASE_STUDY = regular_spec(30, 3, 6)
MC_GRID = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]
MC_SEED = 30
MC_WORKERS = 8
# sha256 of the (30,3,6) `enumerate` CSVs with the '#' comment lines left out.
CASE_STUDY_DIGESTS = {
    Algorithm.COMP: "53b8a40896924dd6f808920da414a6397525a88d5657c43afce6e6eaa1cffea3",
    Algorithm.DD: "c83b6a97ba42287690b3dc7eabb994f4b75231f41201cb36e143fb586158386f",
}


# Same digests for the irregular family lambda = {2: 1/2, 4: 1/2}, rho = {6: 1},
# both decoders at n = 12 and n = 30. COMP at 12 and DD at 30 were recorded at
# dce2beb, before the class-table builders took small-integer weights.
IRREGULAR_DIGESTS = {
    (12, Algorithm.COMP): "7271bb3de9ce3b9e585ba13f6297536fc44969be16c1a939e2dc63207f82e2b2",
    (30, Algorithm.COMP): "e9d4e0c7bdb287279c31448c2aeaa0ebd06d4b4b7a9d595a6b89ab738e276091",
    (12, Algorithm.DD): "c22d340f9e7804bd4606c76d714836b5792accb4393d0988fdb862405e15530f",
    (30, Algorithm.DD): "2ad1a623d2e8fd033f1101c92a637b21051a3954e26f021ddedc2ff7b87c6ef3",
}
# Same digests for (60,3,6), twice the case study.
DOUBLED_DIGESTS = {
    Algorithm.COMP: "f7dd7547eec181301f39a57bb6a6dcc71a2d6e6717d495e4002b8d356bc37535",
    Algorithm.DD: "c653eac172e66b925e0bc2d4dddfd9a8dc85e4fc3f1ae5be5f51443f205c4b48",
}
# And for lambda = {2: 1/3, 3: 1/3, 4: 1/3}, rho = {4: 1/2, 8: 1/2} at n = 12:
# three item classes, and DD's H_o rows mix two ordinary-test classes.
THREE_DEGREE_DIGESTS = {
    Algorithm.COMP: "52227dd93cac1a82e1c3be0db9a62089814b143a0a838e3feb54e6a0fa6d6dfb",
    Algorithm.DD: "fdafe72f313d80f1aed71967cbebfd08511345617e5074ca2b2cb14b0b78ce5b",
}
# And for lambda = {3: 1}, rho = {4: 1/3, 6: 1/3, 8: 1/3} at n = 12: three
# test classes, so DD's H_o rows sum over three classes' sole-term counts.
THREE_TEST_DEGREE_DIGESTS = {
    Algorithm.COMP: "5f2309f8a397c117c7bfd31e54d87d46c7ef0c0a31306ab533d36dabe3c568a9",
    Algorithm.DD: "64350e4f1263870eef8036617c131e8279fb24475bd29e59ef8240ce30bdd84c",
}


def _stamp(index: int, label: str, ok: bool, elapsed: float = None) -> None:
    timing = "" if elapsed is None else f" ({elapsed:.1f}s)"
    print(f"[{index:2d}/11] {label}: {'PASS' if ok else 'FAIL'}{timing}")


def _mixed_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n=3,
        m=2,
        left=DegreeDistribution.from_dict({1: Fraction(2, 3), 2: Fraction(1, 3)}),
        right=DegreeDistribution.regular(2),
    )


def test_comp_closed_form_equals_exhaustive_oracle():
    t0 = time.monotonic()
    report = exact_enumerators(regular_spec(4, 1, 2), Algorithm.COMP)
    table = build_table(regular_spec(4, 1, 2), Algorithm.COMP)
    bad = [key for key, exact in report.table.values.items() if table.values[key] != exact]
    elapsed = time.monotonic() - t0
    ok = not bad and report.matchings_enumerated == 24 and elapsed < 1.0
    _stamp(1, "COMP closed form equals 24-matching oracle on (4,1,2)", ok, elapsed)
    assert not bad, bad
    assert report.matchings_enumerated == 24
    assert elapsed < 1.0


def test_dd_closed_form_equals_exhaustive_oracle():
    t0 = time.monotonic()
    report = exact_enumerators(regular_spec(4, 2, 2), Algorithm.DD)
    table = build_table(regular_spec(4, 2, 2), Algorithm.DD)
    bad = [key for key, exact in report.table.values.items() if table.values[key] != exact]
    elapsed = time.monotonic() - t0
    ok = not bad and report.matchings_enumerated == math.factorial(8) and elapsed < 60.0
    _stamp(2, "DD closed form equals 40320-matching oracle on (4,2,2)", ok, elapsed)
    assert not bad, bad
    assert elapsed < 60.0


def _two_by_two_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n=4,
        m=3,
        left=DegreeDistribution.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}),
        right=DegreeDistribution.from_dict({2: Fraction(2, 3), 4: Fraction(1, 3)}),
    )


def _nine_edge_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n=6,
        m=3,
        left=DegreeDistribution.from_dict({1: Fraction(1, 2), 2: Fraction(1, 2)}),
        right=DegreeDistribution.from_dict({2: Fraction(1, 3), 3: Fraction(1, 3), 4: Fraction(1, 3)}),
    )


def _irregular_spec(n: int) -> EnsembleSpec:
    return EnsembleSpec(
        n=n,
        m=n // 2,
        left=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
        right=DegreeDistribution.regular(6),
    )


def _three_degree_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n=12,
        m=6,
        left=DegreeDistribution.from_dict({2: Fraction(1, 3), 3: Fraction(1, 3), 4: Fraction(1, 3)}),
        right=DegreeDistribution.from_dict({4: Fraction(1, 2), 8: Fraction(1, 2)}),
    )


def _three_test_degree_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n=12,
        m=6,
        left=DegreeDistribution.regular(3),
        right=DegreeDistribution.from_dict({4: Fraction(1, 3), 6: Fraction(1, 3), 8: Fraction(1, 3)}),
    )


def test_mixed_degree_closed_forms_equal_exhaustive_oracle():
    bad = []
    # (spec, seconds allowed): two item degrees at n=3 (4! matchings), two
    # degrees on each side at n=4 (8! matchings), then two item degrees and
    # three test degrees at n=6 (9! matchings).
    for spec, limit in ((_mixed_spec(), 5.0), (_two_by_two_spec(), 60.0), (_nine_edge_spec(), 60.0)):
        t0 = time.monotonic()
        for algorithm in (Algorithm.COMP, Algorithm.DD):
            report = exact_enumerators(spec, algorithm)
            table = build_table(spec, algorithm)
            bad += [(spec.n, algorithm.value, key) for key, exact in report.table.values.items()
                    if table.values[key] != exact]
        elapsed = time.monotonic() - t0
        if elapsed >= limit:
            bad.append((spec.n, "slow", elapsed))
    for (n, algorithm), pinned in IRREGULAR_DIGESTS.items():
        if _csv_digest(build_table(_irregular_spec(n), algorithm)) != pinned:
            bad.append((n, algorithm.value, "csv digest"))
    for algorithm, pinned in THREE_DEGREE_DIGESTS.items():
        if _csv_digest(build_table(_three_degree_spec(), algorithm)) != pinned:
            bad.append((12, algorithm.value, "three-degree csv digest"))
    for algorithm, pinned in THREE_TEST_DEGREE_DIGESTS.items():
        if _csv_digest(build_table(_three_test_degree_spec(), algorithm)) != pinned:
            bad.append((12, algorithm.value, "three-test-degree csv digest"))
    ok = not bad
    _stamp(3, "mixed-degree closed forms equal the oracle (n=3, n=4 and n=6) and "
              "irregular CSV digests match", ok)
    assert not bad, bad


def _csv_digest(table) -> str:
    buffer = io.StringIO()
    write_table_csv(table, buffer)
    kept = "".join(
        line for line in buffer.getvalue().splitlines(keepends=True) if not line.startswith("#")
    )
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


def test_row_sums_at_case_study_scale():
    t0 = time.monotonic()
    bad = []
    for spec, digests in ((CASE_STUDY, CASE_STUDY_DIGESTS), (regular_spec(60, 3, 6), DOUBLED_DIGESTS)):
        for algorithm in (Algorithm.COMP, Algorithm.DD):
            table = build_table(spec, algorithm)
            if table.denominator != math.factorial(spec.edge_count):
                bad.append((spec.n, algorithm.value, "denominator"))
            bad += [(spec.n, algorithm.value, a) for a in table.bad_rows]
            if _csv_digest(table) != digests[algorithm]:
                bad.append((spec.n, algorithm.value, "csv digest"))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 600.0
    _stamp(4, "row sums hit C(n,a) and CSV digests match on (30,3,6) and (60,3,6), both decoders",
           ok, elapsed)
    assert not bad, bad
    assert elapsed < 600.0


def test_general_routes_reproduce_regular_routes():
    # The multiplied-out generating functions (tests/gf_reference.py) share no
    # code with the closed forms. The n=8 irregular specs take one O^o row
    # (one test degree) and rows convolved over K (two test degrees).
    t0 = time.monotonic()
    specs = [regular_spec(n, l, r) for n, l, r in [(6, 2, 3), (6, 3, 6), (8, 2, 4), (12, 2, 4)]]
    specs += [
        EnsembleSpec(
            n=8,
            m=4,
            left=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
            right=DegreeDistribution.regular(6),
        ),
        EnsembleSpec(
            n=8,
            m=4,
            left=DegreeDistribution.from_dict({1: Fraction(1, 2), 2: Fraction(1, 2)}),
            right=DegreeDistribution.from_dict({2: Fraction(1, 2), 4: Fraction(1, 2)}),
        ),
    ]
    bad = []
    for spec in specs:
        for algorithm in (Algorithm.COMP, Algorithm.DD):
            values = build_table(spec, algorithm).values
            reference = reference_table(spec, algorithm)
            bad += [(spec.n, spec.m, algorithm.value, key) for key in reference
                    if values[key] != reference[key]]
    elapsed = time.monotonic() - t0
    ok = not bad
    _stamp(5, "degree-class tables match multiplied-out generating functions on (6,2,3), "
              "(6,3,6), (8,2,4), (12,2,4) and two irregular n=8 specs", ok, elapsed)
    assert not bad, bad


def test_probability_routes_agree_at_one_half():
    half = Fraction(1, 2)
    comp_spec = regular_spec(4, 1, 2)
    fa_table = fa_probability(build_table(comp_spec, Algorithm.COMP), half)
    fa_direct = exact_error_probability(comp_spec, Algorithm.COMP, half)
    dd_spec = regular_spec(4, 2, 2)
    md_table = md_probability(build_table(dd_spec, Algorithm.DD), half)
    md_direct = exact_error_probability(dd_spec, Algorithm.DD, half)
    ok = fa_table == fa_direct and md_table == md_direct
    _stamp(6, "table and direct-expectation probabilities coincide", ok)
    assert fa_table == fa_direct == Fraction(7, 12)
    assert md_table == md_direct


def test_monte_carlo_agrees_with_analytic_values():
    failures = []
    for algorithm in (Algorithm.COMP, Algorithm.DD):
        table = build_table(CASE_STUDY, algorithm)
        prob = fa_probability if algorithm is Algorithm.COMP else md_probability
        for index, delta in enumerate(MC_GRID):
            t0 = time.monotonic()
            report = simulate(
                CASE_STUDY,
                algorithm,
                delta,
                100,
                10_000,
                derive_seed(MC_SEED, index),
                workers=MC_WORKERS,
            )
            elapsed = time.monotonic() - t0
            # Patterns share a graph, so the pooled stderr understates the
            # spread of the overall mean; the graph-clustered stderr is the
            # honest yardstick and the binding one here.
            if algorithm is Algorithm.COMP:
                mean, pooled, cluster = report.far_mean, report.far_stderr, report.far_graph_stderr
            else:
                mean, pooled, cluster = report.mdr_mean, report.mdr_stderr, report.mdr_graph_stderr
            dev = abs(mean - float(prob(table, delta)))
            print(f"      {algorithm.value} delta={delta}: |dev|={dev:.2e}, "
                  f"4*graph_se={4 * cluster:.2e}, 4*pooled_se={4 * pooled:.2e}, "
                  f"{elapsed:.1f}s")
            if dev > 4 * cluster or dev > 4 * pooled or elapsed >= 300.0:
                failures.append((algorithm.value, str(delta), dev, cluster, pooled))
    ok = not failures
    _stamp(7, "Monte Carlo within 4 stderr of analytic on (30,3,6)", ok)
    assert not failures, failures


def test_decoder_guarantees_over_hundred_thousand_trials():
    t0 = time.monotonic()
    specs = [regular_spec(4, 1, 2), regular_spec(4, 2, 2),
             regular_spec(6, 2, 3), _mixed_spec()]
    rng = random.Random(8_000_000)
    trials = 0
    violations = 0
    for spec_index, spec in enumerate(specs):
        for g in range(250):
            graph = sample_graph(spec, derive_seed(8, spec_index, g))
            for _ in range(100):
                mask = rng.getrandbits(spec.n)
                comp = comp_pd_mask(graph, mask)
                dd = dd_certified_mask(graph, mask)
                # sandwich: certified within truth within possibly-defective
                if (mask & ~comp) or (dd & ~mask) or (dd & ~comp):
                    violations += 1
                trials += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and trials >= 100_000
    _stamp(8, f"zero misdetections/false alarms over {trials} trials", ok, elapsed)
    assert trials >= 100_000
    assert violations == 0


def test_boundary_values():
    specs = [regular_spec(4, 1, 2), regular_spec(4, 2, 2),
             regular_spec(6, 2, 3), _mixed_spec()]
    bad = []
    for spec in specs:
        comp = build_table(spec, Algorithm.COMP)
        dd = build_table(spec, Algorithm.DD)
        if fa_probability(comp, 0) != 0 or fa_probability(comp, 1) != 0:
            bad.append((spec, "fa boundary"))
        if md_probability(dd, 0) != 0:
            bad.append((spec, "md boundary"))
        if comp.values[(0, 0)] != 1 or dd.values[(0, 0)] != 1:
            bad.append((spec, "empty-set cell"))
        if any(comp.values.get((0, j)) for j in range(1, spec.n + 1)):
            bad.append((spec, "comp zero row"))
        if any(dd.values.get((0, j)) for j in range(1, spec.n + 1)):
            bad.append((spec, "dd zero row"))
    ok = not bad
    _stamp(9, "boundary probabilities and empty-set cells", ok)
    assert not bad, bad


def test_fixed_seed_output_is_bit_identical(tmp_path):
    t0 = time.monotonic()
    spec = regular_spec(4, 1, 2)
    runs = {}
    for name, workers in [("first", 1), ("second", 1), ("eight", 8)]:
        report = simulate(spec, Algorithm.COMP, Fraction(1, 10), 16, 500, 77,
                          workers=workers)
        path = tmp_path / f"{name}.csv"
        write_trials_csv([report], path)
        runs[name] = path.read_bytes()
    elapsed = time.monotonic() - t0
    ok = runs["first"] == runs["second"] == runs["eight"]
    _stamp(10, "fixed seed gives identical CSV bytes, workers 1 and 8", ok, elapsed)
    assert runs["first"] == runs["second"]
    assert runs["first"] == runs["eight"]


def test_dd_simulation_meets_the_table_at_120():
    # The graph-clustered stderr binds; patterns share a graph, so the pooled
    # one understates the spread and its deviation is printed only.
    spec = regular_spec(120, 3, 6)
    t0 = time.monotonic()
    table = build_table(spec, Algorithm.DD)
    built = time.monotonic() - t0
    failures = []
    for index, delta in enumerate([Fraction(1, 20), Fraction(1, 10)]):
        t0 = time.monotonic()
        report = simulate(spec, Algorithm.DD, delta, 100, 10_000, derive_seed(MC_SEED, index), workers=MC_WORKERS)
        elapsed = time.monotonic() - t0
        dev = report.mdr_mean - float(md_probability(table, delta))
        print(f"      dd delta={delta}: dev={dev:.2e} = {dev / report.mdr_graph_stderr:+.2f} graph_se "
              f"({dev / report.mdr_stderr:+.2f} pooled_se), table {built:.2f}s, simulation {elapsed:.2f}s")
        if abs(dev) > 4 * report.mdr_graph_stderr:
            failures.append((str(delta), dev, report.mdr_graph_stderr))
    _stamp(11, "DD Monte Carlo within 4 graph-clustered stderr of the (120,3,6) table", not failures)
    assert not failures, failures
