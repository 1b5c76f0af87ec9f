"""Every public name of dysonrank is guarded: its tests compare it with
an independent oracle in oracles.py, or it has a one-line reason for
having none."""

from __future__ import annotations

import inspect

import dysonrank
import oracles

# Each public name: the oracles its tests compare it with, or (a string)
# why it has none.
GUARDS: dict[str, tuple[str, ...] | str] = {
    # bounds
    "BUDGET_CAP": "a constant of the paper",
    "ENVELOPE_C": "a constant of the paper",
    "LEHMER_ESTIMATE_MAX_N": "a constant: the last n whose e^mu fits a double",
    "RATIO_CAPS": "constants of the paper",
    "RATIO_CAP_2_DERIVED": "a constant of the paper",
    "BoundPair": "a result type",
    "ErrorBudget": "a result type",
    "error_budget": ("_independent_error_bounds", "_literal_error_bound",
                     "_literal_envelope"),
    "exact_gap": "a wrapper of Fraction: |a - m| with no rounding",
    "hardy_ramanujan": "one formula, checked against frozen values and p(n)",
    "lehmer_bounds": ("_literal_lehmer_bounds", "_decimal_lehmer_bounds"),
    "lehmer_estimate": ("_literal_lehmer_estimate",),
    "lemma_threshold": ("_literal_lemma_threshold",),
    "main_term": "one formula, checked against frozen 50-digit values",
    "main_term_decimal": "main_term's formula in Decimal, checked against it",
    "ratio_bound": ("_literal_ratio_bound",),
    "residue_envelope_check": "a wrapper of residue_count and Lehmer's "
                              "envelope",
    "s_ratio": "one formula, checked against frozen values",
    "t_gap": "one formula, checked against frozen values",
    # cache
    "CacheFormatError": "an exception type",
    "load_table": "file I/O: a load returns the rows of the table saved",
    "save_table": "file I/O: a load returns the rows of the table saved",
    # convexity
    "ConvexityReport": "a result type",
    "check_pair": "a wrapper of residue_count: one product compared",
    "scan_region": ("pairwise_scan", "row_pass_scan",
                    "concave_start_by_definition"),
    "sharpness_frontier": "a wrapper of scan_region",
    # core
    "MAX_TABLE_ROWS": "a constant: the row ceiling",
    "RankTable": ("entry_half_row",),
    "a_third_exact": ("dyson_a_third", "a_third"),
    "build_rank_table": ("brute_rank_counts", "series_rank_rows",
                         "entry_half_row"),
    "decomposition_check": ("entry_decomposition_check",),
    "enumerate_partitions": "the brute-force oracles' enumerator; counted "
                            "against p(n)",
    "partition_number": "a wrapper of partition_numbers",
    "partition_numbers": ("coin_partition_numbers", "loop_divide_by_euler"),
    "residue_column": ("row_residue_count", "loop_divide_by_euler",
                       "dyson_a_third"),
    "residue_count": ("row_residue_count", "checked_residue_count"),
    "table_for": "the range policy: it sizes a RankTable and counts nothing",
    # maxprod
    "MaxProductEntry": "a result type",
    "VerificationReport": "a result type",
    "closed_form": "Theorem 2's formula, which verify_closed_forms checks",
    "conjecture_max_mod2": ("listing_conjecture_max_mod2", "_closure_mod2",
                            "counter_closure_mod2"),
    "max_table": ("brute_max", "full_best_and_count", "full_walk_optima",
                  "prefix_collect_optima", "oracle_entries"),
    "product_over_partition": "a wrapper of residue_count: one product",
    "replacement_rules": "the paper's rule lists, which "
                         "verify_replacement_rules checks",
    "verify_closed_forms": ("per_n_verify_closed_forms",),
    "verify_replacement_rules": "a wrapper of product_over_partition",
    "verify_small_tables": "a wrapper of max_table against the paper's "
                           "printed tables",
}


def test_every_public_name_has_one_entry():
    public = set(dysonrank.__all__) - {"__version__"}
    assert sorted(public - GUARDS.keys()) == [], "public names with no entry"
    assert sorted(GUARDS.keys() - public) == [], "entries for no public name"


def test_every_entry_names_oracles_or_one_reason():
    for name, guard in GUARDS.items():
        if isinstance(guard, str):
            assert guard and "\n" not in guard, name
            continue
        assert guard, name
        for oracle in guard:
            # unwrap sees through functools.cache
            function = inspect.unwrap(getattr(oracles, oracle, None))
            assert inspect.isfunction(function), (name, oracle)
            assert function.__module__ == oracles.__name__, (name, oracle)
