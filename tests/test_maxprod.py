"""Maximum products of residue counts over partitions: dynamic program
vs. exhaustive search, the periodic closed forms, replacement rules,
and the exploratory modulus-2 analogues."""

from __future__ import annotations

from collections import Counter

import pytest

from dysonrank import (
    MaxProductEntry,
    brute_max,
    closed_form,
    conjecture_max_mod2,
    max_table,
    product_over_partition,
    replacement_rules,
    verify_closed_forms,
    verify_replacement_rules,
    verify_small_tables,
)
from dysonrank.maxprod import (
    CLOSED_FORM_START,
    _closure_mod2,
    _count_row,
    _value_table,
)
from dysonrank.reference import SMALL_TABLE, counts_column, max_column


# The Counter closure and the tuple-prefix optima walk below are the
# production algorithms these two helpers replaced, kept unchanged as
# oracles for the part-count closure and the shared-path walk.

def counter_closure_mod2(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Closure of a partition under swapping (2,2) <-> (4) and
    (2,2,2) <-> (6), both directions."""
    swaps = [((2, 2), (4,)), ((4,), (2, 2)),
             ((2, 2, 2), (6,)), ((6,), (2, 2, 2))]
    first = tuple(sorted(start, reverse=True))
    seen = {first}
    frontier = [first]
    while frontier:
        cur = Counter(frontier.pop())
        for before, after in swaps:
            need = Counter(before)
            if all(cur[k] >= v for k, v in need.items()):
                nxt = cur - need + Counter(after)
                parts = tuple(sorted(nxt.elements(), reverse=True))
                if parts not in seen:
                    seen.add(parts)
                    frontier.append(parts)
    return seen


def prefix_collect_optima(V: list[list], f: list[int], n: int,
                          cap: int | None
                          ) -> tuple[list[tuple[int, ...]], bool]:
    """All partitions attaining V[n][n], each found exactly once (a
    partition is reconstructed only at its own largest part)."""
    limit = None if cap is None else cap + 1
    found: list[tuple[int, ...]] = []
    stack: list[tuple[int, int, tuple[int, ...]]] = [(n, n, ())]
    while stack:
        s, c, prefix = stack.pop()
        while True:
            if s == 0:
                found.append(prefix)
                break
            if c > s:
                c = s
            target = V[s][c]
            takes = V[s - c][c] >= 0 and f[c] * V[s - c][c] == target
            skips = c > 1 and V[s][c - 1] == target
            if takes and skips:
                stack.append((s, c - 1, prefix))
            if takes:
                prefix = prefix + (c,)
                s -= c
            elif skips:
                c -= 1
            else:  # pragma: no cover - V guarantees one branch matches
                break
        if limit is not None and len(found) >= limit:
            break
    found.sort()
    if cap is not None and len(found) > cap:
        return found[:cap], True
    return found, False


def _canonical_mod2(n: int) -> tuple[int, ...]:
    if n % 2 == 0:
        return (2,) * (n // 2)
    return (9,) + (2,) * ((n - 9) // 2)


class TestProductOverPartition:
    def test_empty_partition_is_one(self, table):
        assert product_over_partition(table, 0, 3, ()) == 1

    def test_known_product(self, table):
        # counts 7, 7, 3, 3 multiply to 441
        assert product_over_partition(table, 0, 3, (7, 7, 4, 4)) == 441

    def test_order_irrelevant(self, table):
        assert product_over_partition(table, 1, 3, (5, 2, 9)) \
            == product_over_partition(table, 1, 3, (9, 5, 2))

    def test_rejects_bad_parts(self, table):
        with pytest.raises(ValueError):
            product_over_partition(table, 0, 3, (3, 0))


class TestDynamicProgram:
    def test_zero_row(self, table):
        entries = max_table(table, 0, 3, 0)
        assert entries[0] == MaxProductEntry(0, 1, ((),))

    def test_matches_brute_force(self, table):
        for r, t in ((0, 3), (1, 3), (2, 3), (0, 2), (1, 2)):
            entries = max_table(table, r, t, 22, optima_cap=None)
            for n in range(23):
                assert entries[n] == brute_max(table, r, t, n,
                                               optima_cap=None), (r, t, n)

    def test_matches_golden_column(self, table):
        for r in (0, 1, 2):
            report = verify_small_tables(table, r)
            assert report.ok, report.mismatches
            assert report.checked == len(max_column(r))

    def test_multi_optima_rows(self, table):
        e16 = max_table(table, 0, 3, 16)[16]
        assert e16.value == 81
        assert e16.optima == ((4, 4, 4, 4), (16,))
        e4 = max_table(table, 1, 3, 4)[4]
        assert e4.value == 1
        assert e4.optima == ((2, 2), (4,))

    def test_part_beats_singleton_at_8(self, table):
        entry = max_table(table, 0, 3, 8)[8]
        assert entry.value == 9
        assert entry.optima == ((4, 4),)
        assert product_over_partition(table, 0, 3, (8,)) == 6

    def test_optima_cap_truncates_with_flag(self, table):
        entry = max_table(table, 0, 3, 16, optima_cap=1)[16]
        assert entry.truncated
        assert len(entry.optima) == 1

    def test_table_too_small(self, table):
        with pytest.raises(ValueError, match="table holds"):
            max_table(table, 0, 3, 500)

    def test_validation(self, table):
        with pytest.raises(ValueError):
            max_table(table, 3, 3, 10)
        with pytest.raises(ValueError):
            max_table(table, 0, 3, -1)


class TestClosedForm:
    def test_spot_values(self):
        assert closed_form(0, 36) == (21904, (13, 13, 10))
        assert closed_form(0, 33) == (9583, (13, 13, 7))
        assert closed_form(1, 22) == (400, (11, 11))
        assert closed_form(1, 27) == (1534, (15, 12))
        assert closed_form(1, 30) == (3481, (15, 15))
        assert closed_form(2, 30) == (3481, (15, 15))

    def test_partition_sums_to_n(self):
        for r in (0, 1, 2):
            for n in range(CLOSED_FORM_START[r], CLOSED_FORM_START[r] + 30):
                value, parts = closed_form(r, n)
                assert sum(parts) == n
                assert value > 0
                assert all(a >= b for a, b in zip(parts, parts[1:]))

    def test_value_is_product_of_part_counts(self, table):
        for r in (0, 1, 2):
            for n in range(CLOSED_FORM_START[r], CLOSED_FORM_START[r] + 30):
                value, parts = closed_form(r, n)
                assert value == product_over_partition(table, r, 3, parts)

    def test_periodicity(self):
        base = {0: 7, 1: 14, 2: 14}
        for r in (0, 1, 2):
            start = CLOSED_FORM_START[r]
            growth = counts_column(r)[base[r]]
            for n in range(start, start + 20):
                v1, p1 = closed_form(r, n)
                v2, p2 = closed_form(r, n + base[r])
                assert v2 == v1 * growth
                assert sorted(set(p2) - {base[r]}) == sorted(set(p1) - {base[r]})

    def test_agrees_with_dynamic_program(self, table):
        for r in (0, 1, 2):
            report = verify_closed_forms(table, r, 240)
            assert report.ok, report.mismatches
            assert report.checked == 240 - CLOSED_FORM_START[r] + 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form(0, 32)
        with pytest.raises(ValueError):
            closed_form(1, 21)
        with pytest.raises(ValueError):
            closed_form(3, 100)


class TestReplacementRules:
    def test_rules_preserve_sums_and_improve(self, table):
        for r in (0, 1, 2):
            report = verify_replacement_rules(table, r)
            assert report.ok, report.mismatches

    def test_rule_lists_are_nonempty_and_deduplicated(self):
        for r in (0, 1, 2):
            rules = replacement_rules(r)
            assert rules
            keys = [tuple(sorted(before)) for before, _ in rules]
            assert len(keys) == len(set(keys))

    def test_specific_rule_present(self, table):
        rules = replacement_rules(0)
        assert ((1, 1, 1, 1), (4,)) in rules


class TestGoldenTables:
    def test_counts_match_computed(self, table):
        from dysonrank import residue_count
        for r in (0, 1, 2):
            for n, count in counts_column(r).items():
                assert residue_count(table, r, 3, n) == count, (r, n)

    def test_r2_aliases_r1(self):
        assert counts_column(2) == counts_column(1)
        assert max_column(2) == max_column(1)

    def test_shape(self):
        assert set(SMALL_TABLE) == {0, 1}
        assert set(SMALL_TABLE[0]) == set(range(1, 33))
        assert set(SMALL_TABLE[1]) == set(range(1, 22))


class TestConjectureMod2:
    def test_forms_agree_to_120(self, table):
        for r in (0, 1):
            report = conjecture_max_mod2(table, r, 120)
            assert report.ok, report.mismatches

    def test_example_at_8(self, table):
        entry = max_table(table, 1, 2, 8, optima_cap=None)[8]
        assert entry.value == 16
        assert entry.optima == ((2, 2, 2, 2), (4, 2, 2), (4, 4), (6, 2))

    def test_rejects_other_residues(self, table):
        with pytest.raises(ValueError):
            conjecture_max_mod2(table, 2, 50)

    def test_closure_matches_counter_oracle(self):
        starts = [_canonical_mod2(n) for n in range(8, 121)]
        starts += [(9, 2, 2, 2), (4, 4, 2, 1), (6, 6, 3), (6, 4, 2, 2, 1),
                   (5, 3), (), (2,), (4,), (6,)]
        for start in starts:
            assert _closure_mod2(start) == counter_closure_mod2(start), start


class TestOptimaWalk:
    @pytest.mark.parametrize("cap", [None, 0, 1, 4, 64])
    def test_entries_match_prefix_oracle(self, table, cap):
        for r, t in ((1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 5)):
            entries = max_table(table, r, t, 120, optima_cap=cap)
            f = _count_row(table, r, t, 120)
            V = _value_table(f, 120)
            for n in range(1, 121):
                optima, truncated = prefix_collect_optima(V, f, n, cap)
                want = MaxProductEntry(n, V[n][n], tuple(optima), truncated)
                assert entries[n] == want, (r, t, cap, n)
