"""Pooling-graph ensembles: degree distributions, specs, sampling, enumeration, CSV output.

A pooling design is a bipartite multigraph between n items (left) and m
tests (right). The ensemble fixes both degree distributions and puts the
uniform distribution on socket matchings: lay out item sockets and test
sockets in a fixed order, then match them with a uniformly random
bijection. Multi-edges are kept; they carry weight in the socket counting
and the decoders are defined on multigraphs accordingly.

A spec is checked once, when it is made: a DegreeDistribution whose
degrees are not distinct and ascending, or whose fractions are not positive
Fractions summing to 1, and an EnsembleSpec with fractional node counts or
unequal edge counts, raise ValidationError. The spec keeps the (degree,
node count) pairs of each side, ascending in degree, as item_classes and
test_classes; every builder, the sampler and the oracle read those. Nodes
and their sockets are numbered in that order (socket_items, test_degrees),
so a (spec, seed) pair pins down the sampled graph completely.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import ContextManager, Iterable, Iterator, Mapping, Optional, TextIO, Union

from .errors import SizeLimitError, ValidationError, refuse_over_limit

# One process on a 2-vCPU x86_64 host. A walk over all E! matchings
# (enumerate_matchings) is predicted at this per (matching, 64-pattern word),
# fitted in BENCH_19.json on a batched matching walk; the weighted oracle
# (oracle.py) costs the next two per (multigraph, word) decoded and per
# multigraph enumerated, fitted in BENCH_31.json.
_ORACLE_SECONDS_PER_WORD = 1.38e-6
_GRAPH_SECONDS_PER_WORD = 9.4e-7
_GRAPH_SECONDS = 3.0e-6
# Most items the oracle takes: one decode unpacks n x 2^n error bytes, 400 MB
# at n = 24, where a one-graph spec is cheap in time.
ORACLE_MAX_ITEMS = 16
# Most remainder entries multigraph_count visits to count the matrices
# exactly, about 0.2 s (BENCH_31.json).
_COUNT_ENTRIES = 300_000


@dataclass(frozen=True)
class DegreeDistribution:
    """Fraction of nodes per degree: distinct ascending degrees, positive Fractions summing to 1."""

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        # A tuple of pairs whatever iterable of pairs was given, so equal distributions hash alike.
        object.__setattr__(self, "entries", tuple((degree, fraction) for degree, fraction in self.entries))
        for k, (degree, fraction) in enumerate(self.entries):
            if type(degree) is not int:
                raise ValidationError(f"degree must be an int, got {degree!r}")
            if degree < 1:
                raise ValidationError(f"degree {degree} < 1")
            if k and degree <= self.entries[k - 1][0]:
                raise ValidationError(f"degree {degree}: degrees must be distinct and ascending")
            if not isinstance(fraction, Fraction) or fraction <= 0:
                raise ValidationError(f"degree {degree}: fraction must be a positive Fraction, got {fraction!r}")
        total = sum(f for _, f in self.entries)
        if total != 1:
            raise ValidationError(f"degree fractions sum to {total}, expected 1")

    @classmethod
    def from_dict(cls, mapping: Mapping[int, Union[Fraction, int, str]]) -> "DegreeDistribution":
        for degree in mapping:
            if type(degree) is not int:
                raise ValidationError(f"degree must be an int, got {degree!r}")
        entries = []
        for degree, fraction in sorted(mapping.items()):
            if isinstance(fraction, (float, bool)):
                raise ValidationError(f"degree {degree}: fraction must be exact, got {fraction!r}")
            fraction = Fraction(fraction)
            if fraction < 0:
                raise ValidationError(f"degree {degree}: negative fraction {fraction}")
            if fraction or degree < 1:  # a zero fraction is dropped, unless its degree is refused
                entries.append((degree, fraction))
        return cls(tuple(entries))

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        return cls.from_dict({degree: Fraction(1)})

    def mean(self) -> Fraction:
        return sum((d * f for d, f in self.entries), Fraction(0))

    def node_counts(self, total_nodes: int, side: str) -> tuple[tuple[int, int], ...]:
        """(degree, node count) pairs in ascending degree; every count must come out integral."""
        counts = []
        for degree, fraction in self.entries:
            count = fraction * total_nodes
            if count.denominator != 1:
                raise ValidationError(
                    f"{side} degree {degree}: node count {total_nodes}*{fraction} = {count} is not an integer"
                )
            counts.append((degree, int(count)))
        return tuple(counts)


@dataclass(frozen=True)
class EnsembleSpec:
    """n items, m tests, and the two degree distributions; raises ValidationError if invalid."""

    n: int
    m: int
    left: DegreeDistribution
    right: DegreeDistribution
    # Kept from the checks and left out of ==, hash and repr, so equal specs stay equal
    # whatever built them.
    edge_count: int = field(init=False, compare=False, repr=False)
    item_classes: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    test_classes: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n", "m"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if self.m > self.n:
            raise ValidationError(f"more tests than items: m = {self.m} > n = {self.n}")
        left_edges = self.n * self.left.mean()
        right_edges = self.m * self.right.mean()
        if left_edges != right_edges:
            raise ValidationError(
                f"edge-count mismatch: n*mean(left) = {left_edges} != m*mean(right) = {right_edges}"
            )
        # Integral node counts make the edge count integral too.
        object.__setattr__(self, "item_classes", self.left.node_counts(self.n, "left"))
        object.__setattr__(self, "test_classes", self.right.node_counts(self.m, "right"))
        object.__setattr__(self, "edge_count", int(left_edges))

    @cached_property
    def item_degrees(self) -> tuple[int, ...]:
        """Each item's degree: item v owns the next item_degrees[v] consecutive item sockets."""
        return tuple(d for d, count in self.item_classes for _ in range(count))

    @cached_property
    def socket_items(self) -> tuple[int, ...]:
        """The item on each item socket."""
        return tuple(v for v, d in enumerate(self.item_degrees) for _ in range(d))

    @cached_property
    def test_degrees(self) -> tuple[int, ...]:
        """Each test's degree: test c owns the next test_degrees[c] consecutive test sockets."""
        return tuple(d for d, count in self.test_classes for _ in range(count))


def regular_spec(n: int, l: int, r: int) -> EnsembleSpec:
    """Spec where every item is in l tests and every test pools r items."""
    for name, value in (("n", n), ("l", l), ("r", r)):
        if type(value) is not int:
            raise ValidationError(f"{name} must be an int, got {value!r}")
    if l < 1 or r < 1:
        raise ValidationError(f"degrees must be >= 1, got l={l}, r={r}")
    if (n * l) % r != 0:
        raise ValidationError(f"r = {r} does not divide n*l = {n * l}")
    return EnsembleSpec(n=n, m=(n * l) // r, left=DegreeDistribution.regular(l), right=DegreeDistribution.regular(r))


@dataclass(frozen=True)
class PoolingGraph:
    """Realized pooling design, test-centric with socket multiplicities.

    adj[c] lists the items on test c's sockets in socket order; an item
    appearing twice is a genuine multi-edge.
    """

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def test_masks(self) -> tuple[int, ...]:
        return tuple(_members_to_mask(members) for members in self.adj)


def _members_to_mask(members: tuple[int, ...]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _graph_from_assignment(spec: EnsembleSpec, assignment) -> PoolingGraph:
    # assignment[q] = item socket matched to test socket q
    owners = [spec.socket_items[socket] for socket in assignment]
    adj = []
    q = 0
    for degree in spec.test_degrees:
        adj.append(tuple(owners[q : q + degree]))
        q += degree
    return PoolingGraph(n=spec.n, m=spec.m, adj=tuple(adj))


def _permutation(bits, size: int) -> list[int]:
    """Fisher-Yates shuffle of range(size) over Lemire's bounded integers from raw 64-bit words.

    Swap i = size - 1, ..., 1 reads the next raw word x and swaps i with
    j = floor(x (i + 1) / 2^64), unless the low 64 bits of x (i + 1) fall
    below 2^64 mod (i + 1): then it rejects x and reads the next word.
    """
    # size - 1 words in one call; a rejection reads one more, in stream order.
    words = itertools.chain(bits.random_raw(size - 1).tolist(), iter(lambda: int(bits.random_raw()), None))
    order = list(range(size))
    for i, word in zip(range(size - 1, 0, -1), words):
        product = word * (i + 1)
        while product % 2**64 < 2**64 % (i + 1):
            product = next(words) * (i + 1)
        j = product >> 64
        order[i], order[j] = order[j], order[i]
    return order


def sample_graph(spec: EnsembleSpec, seed: int) -> PoolingGraph:
    """One configuration-model draw, deterministic in (spec, seed).

    The socket matching is a Fisher-Yates shuffle read from PCG64(seed)'s
    raw words, which numpy keeps stable across releases.
    """
    import numpy as np  # this module's only numpy use; loading a spec loads none
    return _graph_from_assignment(spec, _permutation(np.random.PCG64(seed), spec.edge_count))


def _predicted_seconds(spec: EnsembleSpec) -> float:
    """A walk over all E! matchings, E! x ceil(2^n / 64) x c, from lgamma: E! itself is never computed."""
    log_words = max(spec.n - 6, 0) * math.log(2)
    return math.exp(math.lgamma(spec.edge_count + 1) + log_words) * _ORACLE_SECONDS_PER_WORD


def matching_count(spec: EnsembleSpec) -> int:
    """E!, the number of socket matchings; first SizeLimitError when walking them all would take too long."""
    refuse_over_limit(f"the oracle over {spec.edge_count}! matchings", _predicted_seconds, spec)
    return math.factorial(spec.edge_count)


def _graph_seconds(spec: EnsembleSpec, graphs) -> float:
    """The weighted oracle's seconds over `graphs` multigraphs, each enumerated and decoded on ceil(2^n / 64) words."""
    return graphs * (2 ** max(spec.n - 6, 0) * _GRAPH_SECONDS_PER_WORD + _GRAPH_SECONDS)


def _graph_bound(spec: EnsembleSpec) -> float:
    """E! / (prod l_v! prod r_c!) from lgamma: no multigraph has more matchings, so there are at least this many."""
    degrees = (*spec.item_classes, *spec.test_classes)
    return math.exp(math.lgamma(spec.edge_count + 1) - sum(k * math.lgamma(d + 1) for d, k in degrees))


def _fills(degree: int, left: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each remainder of `left` after `degree` <= sum(left) edges take at most left[i] from each entry i, lazily."""
    if len(left) == 1:
        yield (left[0] - degree,)
        return
    for take in range(max(degree - sum(left[1:]), 0), min(degree, left[0]) + 1):
        yield from ((left[0] - take, *rest) for rest in _fills(degree - take, left[1:]))


@lru_cache(maxsize=16)
def _matrix_count(spec: EnsembleSpec) -> int:
    """The multiplicity matrices, counted line by line over the sorted nonzero remainders of the other side.

    Transposing swaps the margins, so the lines are the side with fewer
    unbounded placements, sum over its degrees d of C(d + k - 1, d), k the
    other side's size.
    """
    sides = (spec.item_degrees, spec.test_degrees)
    other, lines = min(sides, sides[::-1], key=lambda pair: sum(math.comb(d + len(pair[0]) - 1, d) for d in pair[1]))
    ways, entries = {tuple(sorted(other)): 1}, 0
    for degree in lines:
        after: dict[tuple[int, ...], int] = {}
        for left, count in ways.items():
            for rest in _fills(degree, left):
                entries += len(rest)
                if entries > _COUNT_ENTRIES:
                    work = f"the oracle over {spec.edge_count}! matchings"
                    raise SizeLimitError(f"{work} counts its multigraphs over at most {_COUNT_ENTRIES:,} entries")
                key = tuple(sorted(filter(None, rest)))
                after[key] = after.get(key, 0) + count
        ways = after
    return ways[()]


def multigraph_count(spec: EnsembleSpec) -> int:
    """The oracle's graphs, one per multiplicity matrix; first SizeLimitError when the oracle would take too long.

    Refused first on the lgamma bound of the count, then past
    ORACLE_MAX_ITEMS items, and only then counted exactly, over at most
    _COUNT_ENTRIES remainder entries.
    """
    work = f"the oracle over {spec.edge_count}! matchings"
    refuse_over_limit(work, lambda: _graph_seconds(spec, _graph_bound(spec)))
    if spec.n > ORACLE_MAX_ITEMS:
        raise SizeLimitError(f"{work} takes at most {ORACLE_MAX_ITEMS} items, got n = {spec.n}")
    graphs = _matrix_count(spec)
    refuse_over_limit(work, _graph_seconds, spec, graphs)
    return graphs


def enumerate_matchings(spec: EnsembleSpec) -> Iterator[PoolingGraph]:
    """Yield the graph of every one of the E! socket matchings, in a fixed order.

    Repeated structures are intentional: the uniform-matching measure counts
    them with multiplicity. Refuses with SizeLimitError what matching_count
    refuses.
    """
    matching_count(spec)
    for assignment in itertools.permutations(range(spec.edge_count)):
        yield _graph_from_assignment(spec, assignment)


# ---------------------------------------------------------------------------
# Spec files: {"n", "m", "lambda": [{"degree","num","den"}...], "rho": [...]}
# with the regular shorthand {"n", "l", "r"} also accepted.
# ---------------------------------------------------------------------------


def _json_int(obj, key: str) -> int:
    """obj[key], which must be a JSON integer: a float, bool or string raises TypeError."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def _distribution_from_json(items, side: str) -> DegreeDistribution:
    if not isinstance(items, list) or not items:
        raise ValidationError(f"spec field '{side}' must be a non-empty list")
    mapping: dict[int, Fraction] = {}
    for entry in items:
        try:
            degree = _json_int(entry, "degree")
            fraction = Fraction(_json_int(entry, "num"), _json_int(entry, "den"))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValidationError(f"spec field '{side}': bad entry {entry!r} ({exc})") from exc
        if degree in mapping:
            raise ValidationError(f"spec field '{side}': duplicate degree {degree}")
        mapping[degree] = fraction
    return DegreeDistribution.from_dict(mapping)


def parse_spec(obj: Mapping) -> EnsembleSpec:
    """EnsembleSpec from a parsed JSON object; every count must be a JSON integer."""
    if not isinstance(obj, Mapping):
        raise ValidationError(f"spec must be a JSON object, got {type(obj).__name__}")
    if "l" in obj or "r" in obj:
        for key in ("l", "r"):
            if key not in obj:
                raise ValidationError(f"regular shorthand requires both 'l' and 'r' (missing {key!r})")
        unknown = set(obj) - {"n", "l", "r"}
        if unknown:
            raise ValidationError(f"unexpected spec fields with regular shorthand: {sorted(unknown)}")
        try:
            return regular_spec(_json_int(obj, "n"), _json_int(obj, "l"), _json_int(obj, "r"))
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"bad regular shorthand: {exc}") from exc
    for key in ("n", "m", "lambda", "rho"):
        if key not in obj:
            raise ValidationError(f"spec is missing field {key!r}")
    try:
        n = _json_int(obj, "n")
        m = _json_int(obj, "m")
    except TypeError as exc:
        raise ValidationError(f"n and m must be integers: {exc}") from exc
    return EnsembleSpec(
        n=n,
        m=m,
        left=_distribution_from_json(obj["lambda"], "lambda"),
        right=_distribution_from_json(obj["rho"], "rho"),
    )


def spec_to_jsonable(spec: EnsembleSpec) -> dict:
    """Canonical JSON form (always the full format, never the shorthand)."""
    return {
        "n": spec.n,
        "m": spec.m,
        "lambda": [
            {"degree": d, "num": f.numerator, "den": f.denominator} for d, f in spec.left.entries
        ],
        "rho": [
            {"degree": d, "num": f.numerator, "den": f.denominator} for d, f in spec.right.entries
        ],
    }


def load_spec(path: Union[str, Path]) -> EnsembleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deeply
            raise ValidationError(f"spec file {path}: invalid JSON ({exc})") from exc
    return parse_spec(obj)


def save_spec(spec: EnsembleSpec, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_jsonable(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def spec_hash(spec: EnsembleSpec) -> str:
    """Short stable digest of the canonical spec JSON, for output headers."""
    canonical = json.dumps(spec_to_jsonable(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


def open_output(out: Union[str, Path, TextIO]) -> ContextManager[TextIO]:
    """A path opened for writing, which the `with` closes, or an open stream, which it leaves open."""
    if isinstance(out, (str, Path)):
        return open(out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(out)


def write_csv(out, spec: Optional[EnsembleSpec], header: Mapping[str, object], columns: str, rows: Iterable) -> None:
    """Every CSV the package writes: a `#` line of the spec hash and the header's key=value pairs, columns, rows.

    Without a spec there is no `#` line. Each row is a tuple with one field
    per column, written as its str(); no field holds a comma, quote or line
    break, so none is quoted, and str(float) is repr(float).
    """
    line = ",".join(["%s"] * (columns.count(",") + 1)) + "\n"
    with open_output(out) as fh:
        if spec is not None:
            fh.write(" ".join([f"# spec_hash={spec_hash(spec)}", *(f"{k}={v}" for k, v in header.items())]) + "\n")
        fh.write(columns + "\n")
        for row in rows:
            fh.write(line % row)
