"""Exact and sampled error rates for pooling-graph group testing.

Core objects: ensemble specs (degree distributions over items and tests),
the COMP and DD decoders, exact ensemble-average pattern enumerators with
their false-alarm and misdetection probabilities, an exhaustive oracle for
tiny ensembles, and a seeded Monte Carlo harness.

Importing the package loads no numpy (`Algorithm` lives in `enumerator`):
the Monte Carlo and oracle exports, which need it, are imported on first
access by the module `__getattr__` below.
"""

import importlib

from .combinatorics import binomial, to_decimal
from .ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    PoolingGraph,
    load_spec,
    parse_spec,
    regular_spec,
    sample_graph,
    save_spec,
    spec_hash,
    spec_to_jsonable,
)
from .enumerator import (
    Algorithm,
    EnumeratorTable,
    build_table,
    fa_probability,
    md_probability,
    write_table_csv,
)
from .errors import SizeLimitError, ValidationError

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(["TrialReport", "derive_seed", "simulate", "sweep", "write_trials_csv"], "montecarlo"),
    **dict.fromkeys(["OracleReport", "exact_enumerators", "exact_error_probability"], "oracle"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "Algorithm",
    "DegreeDistribution",
    "EnsembleSpec",
    "EnumeratorTable",
    "OracleReport",
    "PoolingGraph",
    "SizeLimitError",
    "TrialReport",
    "ValidationError",
    "binomial",
    "build_table",
    "derive_seed",
    "exact_enumerators",
    "exact_error_probability",
    "fa_probability",
    "load_spec",
    "md_probability",
    "parse_spec",
    "regular_spec",
    "sample_graph",
    "save_spec",
    "simulate",
    "spec_hash",
    "spec_to_jsonable",
    "sweep",
    "to_decimal",
    "write_table_csv",
    "write_trials_csv",
]
