"""Which poolgraph names the traced pass rebinds, and the per-layer metrics read back.

Each entry rebinds a name in the module that calls it: ``enumerator.poly_mul``
is the name the table builders call, ``polynomial.poly_mul`` the one
``poly_pow`` and ``poly_product_of_powers`` call. The layers are the package
modules: polynomial, combinatorics, enumerator, ensemble, detection,
montecarlo, oracle and cli.
"""

from __future__ import annotations

from tracer import Tracer


def _poly_mul_sizes(args, kwargs, result):
    a, b = args[0], args[1]
    values = result.terms.values()
    return {
        "term_pairs": len(a.terms) * len(b.terms),
        "terms_out": len(values),
        "coef_bits": max(max(values), -min(values)).bit_length() if values else 0,
    }


def _sweep_patterns(args, kwargs, result):
    grid, graphs, patterns = args[2], args[3], args[4]
    return {"patterns": len(grid) * graphs * patterns}


def _matchings(args, kwargs, result):
    return {"matchings": result.matchings_enumerated}


def install(tracer: Tracer) -> None:
    """Rebind every traced name; tracer.restore() puts the originals back."""
    from poolgraph import cli, detection, enumerator, montecarlo, oracle, polynomial

    span, leaf = tracer.span, tracer.leaf

    for module in (polynomial, enumerator):
        tracer.rebind(module, "poly_mul", span("polynomial.poly_mul", module.poly_mul, _poly_mul_sizes))
        tracer.rebind(module, "poly_pow", span("polynomial.poly_pow", module.poly_pow))
    tracer.rebind(enumerator, "poly_add", span("polynomial.poly_add", enumerator.poly_add))
    tracer.rebind(
        enumerator,
        "poly_product_of_powers",
        span("polynomial.poly_product_of_powers", enumerator.poly_product_of_powers),
    )

    tracer.rebind(enumerator, "multinomial", leaf("combinatorics.multinomial", enumerator.multinomial))
    for module in (enumerator, cli):
        tracer.rebind(module, "to_decimal", leaf("combinatorics.to_decimal", module.to_decimal))

    seen_tables: set = set()

    def _table(args, kwargs, result):
        # A cache hit returns a table already counted.
        fresh = id(result) not in seen_tables
        seen_tables.add(id(result))
        return {"algorithm": args[1].value, "cells": len(result.values) if fresh else 0}

    tracer.rebind(cli, "build_table", span("enumerator.build_table", cli.build_table, _table))
    for name in ("fa_probability", "md_probability", "write_table_csv"):
        tracer.rebind(cli, name, span(f"enumerator.{name}", getattr(cli, name)))

    tracer.rebind(montecarlo, "sample_graph", span("ensemble.sample_graph", montecarlo.sample_graph))
    tracer.rebind(
        oracle,
        "enumerate_matchings",
        tracer.generator("ensemble.enumerate_matchings", oracle.enumerate_matchings),
    )
    tracer.rebind(cli, "load_spec", span("ensemble.load_spec", cli.load_spec))

    # detection.comp_pd_mask is the name dd_certified_mask calls.
    for module in (montecarlo, oracle, detection):
        tracer.rebind(module, "comp_pd_mask", leaf("detection.comp_pd_mask", module.comp_pd_mask))
    for module in (montecarlo, oracle):
        tracer.rebind(
            module, "dd_certified_mask", leaf("detection.dd_certified_mask", module.dd_certified_mask)
        )

    tracer.rebind(montecarlo, "sweep", span("montecarlo.sweep", montecarlo.sweep, _sweep_patterns))
    tracer.rebind(cli, "exact_enumerators", span("oracle.exact_enumerators", cli.exact_enumerators, _matchings))
    tracer.rebind(
        oracle,
        "exact_error_probability",
        span("oracle.exact_error_probability", oracle.exact_error_probability),
    )
    tracer.rebind(cli, "main", span("cli.main", cli.main))


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("polynomial.poly_mul.calls", "count", "lower"),
    ("polynomial.poly_mul.s", "s", "lower"),
    ("polynomial.poly_mul.term_pairs", "count", "lower"),
    ("polynomial.poly_mul.terms_out_max", "count", "lower"),
    ("polynomial.poly_mul.coef_bits_max", "bits", "lower"),
    ("polynomial.poly_mul.out_per_pair", "ratio", "higher"),
    ("polynomial.poly_pow.s", "s", "lower"),
    ("polynomial.poly_product_of_powers.s", "s", "lower"),
    ("polynomial.poly_add.s", "s", "lower"),
    ("combinatorics.multinomial.calls", "count", "lower"),
    ("combinatorics.multinomial.s", "s", "lower"),
    ("combinatorics.to_decimal.calls", "count", "lower"),
    ("combinatorics.to_decimal.s", "s", "lower"),
    ("enumerator.build_table.comp.s", "s", "lower"),
    ("enumerator.build_table.dd.s", "s", "lower"),
    ("enumerator.build_table.self_s", "s", "lower"),
    ("enumerator.cells", "count", "higher"),
    ("enumerator.fa_probability.calls", "count", "lower"),
    ("enumerator.fa_probability.s", "s", "lower"),
    ("enumerator.md_probability.calls", "count", "lower"),
    ("enumerator.md_probability.s", "s", "lower"),
    ("enumerator.write_table_csv.s", "s", "lower"),
    ("ensemble.sample_graph.calls", "count", "lower"),
    ("ensemble.sample_graph.s", "s", "lower"),
    ("ensemble.enumerate_matchings.graphs", "count", "lower"),
    ("ensemble.enumerate_matchings.s", "s", "lower"),
    ("ensemble.load_spec.s", "s", "lower"),
    ("detection.comp_pd_mask.calls", "count", "lower"),
    ("detection.comp_pd_mask.s", "s", "lower"),
    ("detection.dd_certified_mask.calls", "count", "lower"),
    ("detection.dd_certified_mask.s", "s", "lower"),
    ("detection.comp.patterns_per_s", "1/s", "higher"),
    ("detection.dd.patterns_per_s", "1/s", "higher"),
    ("montecarlo.sweep.s", "s", "lower"),
    ("montecarlo.sweep.self_s", "s", "lower"),
    ("montecarlo.patterns", "count", "higher"),
    ("oracle.exact_enumerators.s", "s", "lower"),
    ("oracle.exact_enumerators.self_s", "s", "lower"),
    ("oracle.exact_enumerators.matchings_per_s", "1/s", "higher"),
    ("oracle.exact_error_probability.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass; trace.overhead_s is filled in by the caller."""
    mul = tracer.attrs("polynomial.poly_mul")
    pairs = sum(a["term_pairs"] for a in mul)
    multinomial = tracer.leaf_totals("combinatorics.multinomial")
    to_decimal = tracer.leaf_totals("combinatorics.to_decimal")
    matchings = tracer.leaf_totals("ensemble.enumerate_matchings")
    comp = tracer.leaf_totals("detection.comp_pd_mask")
    dd = tracer.leaf_totals("detection.dd_certified_mask")
    oracle_s = tracer.total("oracle.exact_enumerators")
    return {
        "polynomial.poly_mul.calls": tracer.count("polynomial.poly_mul"),
        "polynomial.poly_mul.s": tracer.total("polynomial.poly_mul"),
        "polynomial.poly_mul.term_pairs": pairs,
        "polynomial.poly_mul.terms_out_max": max((a["terms_out"] for a in mul), default=0),
        "polynomial.poly_mul.coef_bits_max": max((a["coef_bits"] for a in mul), default=0),
        "polynomial.poly_mul.out_per_pair": _rate(sum(a["terms_out"] for a in mul), pairs),
        "polynomial.poly_pow.s": tracer.total("polynomial.poly_pow"),
        "polynomial.poly_product_of_powers.s": tracer.total("polynomial.poly_product_of_powers"),
        "polynomial.poly_add.s": tracer.total("polynomial.poly_add"),
        "combinatorics.multinomial.calls": multinomial[0],
        "combinatorics.multinomial.s": multinomial[1],
        "combinatorics.to_decimal.calls": to_decimal[0],
        "combinatorics.to_decimal.s": to_decimal[1],
        "enumerator.build_table.comp.s": tracer.total("enumerator.build_table", algorithm="comp"),
        "enumerator.build_table.dd.s": tracer.total("enumerator.build_table", algorithm="dd"),
        "enumerator.build_table.self_s": tracer.self_time("enumerator.build_table"),
        "enumerator.cells": sum(a["cells"] for a in tracer.attrs("enumerator.build_table")),
        "enumerator.fa_probability.calls": tracer.count("enumerator.fa_probability"),
        "enumerator.fa_probability.s": tracer.total("enumerator.fa_probability"),
        "enumerator.md_probability.calls": tracer.count("enumerator.md_probability"),
        "enumerator.md_probability.s": tracer.total("enumerator.md_probability"),
        "enumerator.write_table_csv.s": tracer.total("enumerator.write_table_csv"),
        "ensemble.sample_graph.calls": tracer.count("ensemble.sample_graph"),
        "ensemble.sample_graph.s": tracer.total("ensemble.sample_graph"),
        "ensemble.enumerate_matchings.graphs": matchings[0],
        "ensemble.enumerate_matchings.s": matchings[1],
        "ensemble.load_spec.s": tracer.total("ensemble.load_spec"),
        "detection.comp_pd_mask.calls": comp[0],
        "detection.comp_pd_mask.s": comp[1],
        "detection.dd_certified_mask.calls": dd[0],
        "detection.dd_certified_mask.s": dd[1],
        # COMP patterns are the top-level comp_pd_mask calls; the others run
        # inside dd_certified_mask.
        "detection.comp.patterns_per_s": _rate(comp[2], comp[3]),
        "detection.dd.patterns_per_s": _rate(dd[0], dd[1]),
        "montecarlo.sweep.s": tracer.total("montecarlo.sweep"),
        "montecarlo.sweep.self_s": tracer.self_time("montecarlo.sweep"),
        "montecarlo.patterns": sum(a["patterns"] for a in tracer.attrs("montecarlo.sweep")),
        "oracle.exact_enumerators.s": oracle_s,
        "oracle.exact_enumerators.self_s": tracer.self_time("oracle.exact_enumerators"),
        "oracle.exact_enumerators.matchings_per_s": _rate(
            sum(a["matchings"] for a in tracer.attrs("oracle.exact_enumerators")), oracle_s
        ),
        "oracle.exact_error_probability.s": tracer.total("oracle.exact_error_probability"),
        "cli.main.calls": tracer.count("cli.main"),
        "cli.main.self_s": tracer.self_time("cli.main"),
    }
