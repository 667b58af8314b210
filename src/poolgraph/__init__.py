"""Exact and sampled error rates for pooling-graph group testing.

Core objects: ensemble specs (degree distributions over items and tests),
the COMP and DD decoders, exact ensemble-average pattern enumerators with
their false-alarm and misdetection probabilities, an exhaustive oracle for
tiny ensembles, and a seeded Monte Carlo harness.
"""

from .combinatorics import Rational, binomial, multinomial, to_decimal
from .detection import Algorithm, comp_pd_mask, dd_certified_mask
from .ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    PoolingGraph,
    enumerate_matchings,
    load_spec,
    parse_spec,
    regular_spec,
    sample_graph,
    save_spec,
    spec_hash,
    spec_to_jsonable,
)
from .enumerator import (
    EnumeratorTable,
    build_table,
    fa_probability,
    md_probability,
    write_table_csv,
)
from .errors import SizeLimitError, ValidationError
from .montecarlo import TrialReport, derive_seed, simulate, sweep, write_trials_csv
from .oracle import OracleReport, exact_enumerators, exact_error_probability

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "DegreeDistribution",
    "EnsembleSpec",
    "EnumeratorTable",
    "OracleReport",
    "PoolingGraph",
    "Rational",
    "SizeLimitError",
    "TrialReport",
    "ValidationError",
    "binomial",
    "build_table",
    "comp_pd_mask",
    "dd_certified_mask",
    "derive_seed",
    "enumerate_matchings",
    "exact_enumerators",
    "exact_error_probability",
    "fa_probability",
    "load_spec",
    "md_probability",
    "multinomial",
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
