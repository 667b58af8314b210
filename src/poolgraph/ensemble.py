"""Pooling-graph ensembles: degree distributions, specs, sampling, enumeration.

A pooling design is a bipartite multigraph between n items (left) and m
tests (right). The ensemble fixes both degree distributions and puts the
uniform distribution on socket matchings: lay out item sockets and test
sockets in a fixed order, then match them with a uniformly random
bijection. Multi-edges are kept; they carry weight in the socket counting
and the decoders are defined on multigraphs accordingly.

A spec is checked once, when it is made: an EnsembleSpec with fractional
node counts or unequal edge counts raises ValidationError, and the counts
it computes are kept on the spec for everything downstream.

Node degrees are assigned deterministically (ascending degree by node
index), so a (spec, seed) pair pins down the sampled graph completely.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Union

from .combinatorics import factorial_exceeds
from .errors import SizeLimitError, ValidationError

DEFAULT_MATCHING_LIMIT = 10**6


@dataclass(frozen=True)
class DegreeDistribution:
    """Fraction of nodes per degree; fractions are exact and sum to 1."""

    entries: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, mapping: Mapping[int, Union[Fraction, int, str]]) -> "DegreeDistribution":
        for degree in mapping:
            if type(degree) is not int:
                raise ValidationError(f"degree must be an int, got {degree!r}")
        entries = []
        for degree, fraction in sorted(mapping.items()):
            fraction = Fraction(fraction)
            if degree < 1:
                raise ValidationError(f"degree {degree} < 1")
            if fraction < 0:
                raise ValidationError(f"degree {degree}: negative fraction {fraction}")
            if fraction > 0:
                entries.append((degree, fraction))
        dist = cls(tuple(entries))
        if dist.total() != 1:
            raise ValidationError(f"degree fractions sum to {dist.total()}, expected 1")
        return dist

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        return cls.from_dict({degree: Fraction(1)})

    def total(self) -> Fraction:
        return sum((f for _, f in self.entries), Fraction(0))

    def mean(self) -> Fraction:
        return sum((d * f for d, f in self.entries), Fraction(0))

    def node_counts(self, total_nodes: int, side: str) -> dict[int, int]:
        """Number of nodes of each degree; every count must come out integral."""
        counts = {}
        for degree, fraction in self.entries:
            count = fraction * total_nodes
            if count.denominator != 1:
                raise ValidationError(
                    f"{side} degree {degree}: node count {total_nodes}*{fraction} = {count} is not an integer"
                )
            counts[degree] = int(count)
        return counts


@dataclass(frozen=True)
class EnsembleSpec:
    """n items, m tests, and the two degree distributions; raises ValidationError if invalid."""

    n: int
    m: int
    left: DegreeDistribution
    right: DegreeDistribution
    # Kept from the checks and left out of ==, hash and repr, so equal specs stay equal
    # whatever built them. Callers share the count dicts and only read them.
    edge_count: int = field(init=False, compare=False, repr=False)
    _left_counts: dict[int, int] = field(init=False, compare=False, repr=False)
    _right_counts: dict[int, int] = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "_left_counts", self.left.node_counts(self.n, "left"))
        object.__setattr__(self, "_right_counts", self.right.node_counts(self.m, "right"))
        object.__setattr__(self, "edge_count", int(left_edges))

    def left_counts(self) -> dict[int, int]:
        return self._left_counts

    def right_counts(self) -> dict[int, int]:
        return self._right_counts


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
    left_degrees: tuple[int, ...]

    @cached_property
    def test_masks(self) -> tuple[int, ...]:
        return tuple(_members_to_mask(members) for members in self.adj)


def _members_to_mask(members: tuple[int, ...]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _socket_layout(counts: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(socket owner per socket index, degree per node), ascending degree order."""
    owners = []
    degrees = []
    node = 0
    for degree in sorted(counts):
        for _ in range(counts[degree]):
            degrees.append(degree)
            owners.extend([node] * degree)
            node += 1
    return tuple(owners), tuple(degrees)


def _graph_from_assignment(
    spec: EnsembleSpec,
    left_owner: tuple[int, ...],
    right_degrees: tuple[int, ...],
    left_degrees: tuple[int, ...],
    assignment,
) -> PoolingGraph:
    # assignment[q] = left socket matched to right socket q
    adj = []
    q = 0
    for degree in right_degrees:
        adj.append(tuple(left_owner[assignment[q + s]] for s in range(degree)))
        q += degree
    return PoolingGraph(n=spec.n, m=spec.m, adj=tuple(adj), left_degrees=left_degrees)


def sample_graph(spec: EnsembleSpec, seed: int) -> PoolingGraph:
    """One configuration-model draw, deterministic in (spec, seed).

    Uses numpy's PCG64 stream for the socket permutation.
    """
    import numpy as np  # this module's only numpy use; loading a spec loads none
    left_owner, left_degrees = _socket_layout(spec.left_counts())
    _, right_degrees = _socket_layout(spec.right_counts())
    rng = np.random.Generator(np.random.PCG64(seed))
    assignment = rng.permutation(spec.edge_count)
    return _graph_from_assignment(spec, left_owner, right_degrees, left_degrees, assignment)


def matching_count(spec: EnsembleSpec, limit: int = DEFAULT_MATCHING_LIMIT) -> int:
    """E!, the number of socket matchings; SizeLimitError, before E! is computed, when it exceeds limit."""
    edges = spec.edge_count
    if factorial_exceeds(edges, limit):
        raise SizeLimitError(f"{edges}! socket matchings exceed the limit {limit}")
    return math.factorial(edges)


def enumerate_matchings(spec: EnsembleSpec, limit: int = DEFAULT_MATCHING_LIMIT) -> Iterator[PoolingGraph]:
    """Yield the graph of every one of the E! socket matchings, in a fixed order.

    Repeated structures are intentional: the uniform-matching measure counts
    them with multiplicity. Refuses with SizeLimitError when E! > limit.
    """
    matching_count(spec, limit)
    left_owner, left_degrees = _socket_layout(spec.left_counts())
    _, right_degrees = _socket_layout(spec.right_counts())
    for assignment in itertools.permutations(range(spec.edge_count)):
        yield _graph_from_assignment(spec, left_owner, right_degrees, left_degrees, assignment)


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
        except json.JSONDecodeError as exc:
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
