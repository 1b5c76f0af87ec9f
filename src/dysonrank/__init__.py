"""Exact Dyson rank statistics for integer partitions.

The package computes exact residue counts N(r, t; n) of Dyson's rank,
and rows of rank counts N(m, n) where they are asked for.  It checks
those counts against analytic envelopes and error budgets, verifies
multiplicative convexity of the residue counts, and maximizes products of residue counts over the parts
of a partition, including closed forms for the maximizing partitions.

`import dysonrank` is lazy: each public name is imported from its home
submodule on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "bounds": (
        "BUDGET_CAP", "ENVELOPE_C", "RATIO_CAP_2_DERIVED", "RATIO_CAPS",
        "BoundPair", "ErrorBudget", "error_budget", "exact_gap",
        "hardy_ramanujan", "lehmer_bounds", "lehmer_estimate",
        "lemma_threshold", "main_term", "main_term_decimal", "mu",
        "ratio_bound", "residue_envelope_check", "s_ratio", "t_gap",
    ),
    "cache": ("CacheFormatError", "load_table", "save_table"),
    "convexity": (
        "ConvexityReport", "check_pair", "scan_region", "sharpness_frontier",
    ),
    "core": (
        "MAX_TABLE_ROWS", "RankTable", "a_third_exact", "build_rank_table",
        "decomposition_check", "enumerate_partitions", "partition_number",
        "partition_numbers", "rank", "residue_column", "residue_count",
        "table_for",
    ),
    "maxprod": (
        "MaxProductEntry", "VerificationReport", "closed_form",
        "conjecture_max_mod2", "max_table", "product_over_partition",
        "replacement_rules", "verify_closed_forms",
        "verify_replacement_rules", "verify_small_tables",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """Import a public name's home submodule on first access and keep
    the name here, so later lookups skip this hook.  The home
    submodules resolve too, so `dysonrank.core.rank` works after a bare
    `import dysonrank`."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
