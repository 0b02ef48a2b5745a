import sys
import threading
from collections import Counter
from math import comb, factorial

import pytest

from oracles import brute_packed_words, egf_expansion, partition_packed_words
from packedwords import enumeration
from packedwords.algebra import _cuts
from packedwords import (
    count_irreducible,
    count_irreducible_compositions,
    count_packed,
    count_packed_pure,
    count_packed_total,
    count_packed_zero,
    egf_check,
    enumerate_irreducible,
    enumerate_packed,
    is_irreducible,
    parse_word,
    stirling2,
)


def W(text):
    return parse_word(text)


def climb_together(monkeypatch, tables, call, cases, rounds):
    """Faults seen when four threads each check call(n) == want for every case.

    Each round first resets each module-level table of ``enumeration`` named
    in ``tables`` to a fresh copy of its cold value there, then releases the
    four threads together from a barrier, so they grow the tables together,
    with a 1 us switch interval.  After each round, each table it reset must
    hold exactly the terms one thread leaves there calling call(n) for every
    case from cold: those up to the largest n asked, each with its value.
    """

    def reset():
        for table, cold in tables.items():
            monkeypatch.setattr(enumeration, table, list(cold))

    reset()
    for n, _ in cases:
        call(n)
    alone = {table: getattr(enumeration, table) for table in tables}
    faults = []
    start = threading.Barrier(4)

    def caller():
        start.wait(timeout=60)
        for n, want in cases:
            try:
                got = call(n)
            except Exception as exc:
                faults.append((n, repr(exc)))
            else:
                if got != want:
                    faults.append((n, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            reset()
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for table, terms in alone.items():
                grown = getattr(enumeration, table)
                assert grown == terms, f"{table}: {len(grown)} terms, {len(terms)} alone"
    finally:
        sys.setswitchinterval(interval)
    return faults


class TestStirling:
    def test_diagonal_and_edge(self):
        for n in range(9):
            assert stirling2(n, n) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(0, 0) == 1

    def test_small_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(9, 5) == 6951

    def test_above_diagonal_is_zero(self):
        assert stirling2(3, 5) == 0

    def test_recursion_holds(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert stirling2(n + 1, k) == stirling2(n, k - 1) + k * stirling2(n, k)

    def test_concurrent_cold_callers_see_exact_values(self, monkeypatch):
        # regression: the shared table was once grown in place with no lock,
        # so cold concurrent callers could append the same row twice and then
        # raise IndexError or read a row from the wrong place; the memo of
        # totals is reset too, so that every call reaches the table
        cases = [(n, count_packed_total(n)) for n in range(40)]
        cold = {"_STIRLING_ROWS": [[1]], "_PACKED_TOTALS": [1]}
        faults = climb_together(monkeypatch, cold, count_packed_total, cases, rounds=30)
        assert not faults, faults[:5]

    def test_exceeds_machine_words(self):
        # S(21, k) values overflow 64 bits; stays exact
        assert stirling2(25, 5) == 2436684974110751


class TestCounts:
    def test_packed_examples(self):
        assert count_packed(4, 2) == 50
        assert count_packed(0, 0) == 1
        assert count_packed(8, 8) == 40320

    def test_totals(self):
        assert count_packed_total(0) == 1
        assert count_packed_total(5) == 1082
        assert count_packed_total(10) == 204495126
        assert count_packed_total(-1) == 0

    def test_triangle_identity(self):
        for n in range(13):
            for k in range(13):
                d = count_packed(n, k)
                assert d == count_packed_pure(n, k) + count_packed_zero(n, k)
                assert d == stirling2(n + 1, k + 1) * factorial(k)

    @pytest.mark.parametrize("n, k", [(0, -1), (-2, 0), (-1, 0), (3, -1)])
    @pytest.mark.parametrize("count", [count_packed, count_packed_pure, count_packed_zero])
    def test_negative_arguments_rejected(self, count, n, k):
        # regression: count_packed_zero(0, -1) gave 1, count_packed(-1, 0)
        # gave 0 and count_packed(-2, 0) named (-1, 1)
        with pytest.raises(ValueError, match=rf"^need n, k >= 0, got \({n}, {k}\)$"):
            count(n, k)

    def test_row_sums(self):
        for n in range(13):
            assert sum(count_packed(n, k) for k in range(n + 1)) == count_packed_total(n)

    def test_concurrent_cold_callers_see_exact_totals(self, monkeypatch):
        # the memo of totals starts cold each round while four threads climb
        # it, so a total read before it was appended, or appended twice,
        # would show
        cases = [(n, sum(count_packed(n, k) for k in range(n + 1))) for n in range(60)]
        faults = climb_together(monkeypatch, {"_PACKED_TOTALS": [1]}, count_packed_total, cases, rounds=10)
        assert not faults, faults[:5]


class TestIrreducibleCounts:
    def test_examples_both_paths(self):
        for n, expected in [(1, 2), (4, 66), (10, 145992338)]:
            assert count_irreducible(n) == expected
            assert count_irreducible_compositions(n) == expected

    def test_first_ten_values(self):
        expected = [2, 2, 10, 66, 538, 5170, 56906, 704226, 9671930, 145992338]
        assert [count_irreducible(n) for n in range(1, 11)] == expected

    def test_length_seven_by_direct_enumeration(self):
        # third route, independent of both counting formulas
        assert sum(1 for w in enumerate_packed(7) if is_irreducible(w)) == 56906

    def test_paths_agree(self):
        for n in range(1, 21):
            assert count_irreducible(n) == count_irreducible_compositions(n)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("count", [count_irreducible, count_irreducible_compositions])
    def test_lengths_below_one_rejected(self, count, n):
        with pytest.raises(ValueError, match=rf"^need n >= 1, got {n}$"):
            count(n)

    def test_concurrent_callers_see_exact_values(self, monkeypatch):
        # regression: the shared memo was once truncated and refilled in
        # place, so concurrent callers raised IndexError or read shifted
        # values; each round starts cold and four threads climb together
        top = 24
        d = [count_packed_total(m) for m in range(top + 1)]
        expected = [0]
        for n in range(1, top + 1):
            expected.append(d[n] - sum(expected[j] * d[n - j] for j in range(1, n)))
        cases = [(n, expected[n]) for n in range(1, top + 1)]
        cold = {"_irreducible_cache": [0], "_PACKED_TOTALS": [1]}
        faults = climb_together(monkeypatch, cold, count_irreducible, cases, rounds=10)
        assert not faults, faults[:5]

    def test_each_total_is_evaluated_once(self, monkeypatch):
        # regression: every call that grew the memo summed d_0..d_n afresh, so
        # n = 1..100 in order evaluated the Stirling sum 5 150 times; each
        # evaluation asks count_packed for k = 0 once
        lengths = Counter()
        real = enumeration.count_packed

        def counted(n, k):
            if k == 0:
                lengths[n] += 1
            return real(n, k)

        monkeypatch.setattr(enumeration, "count_packed", counted)
        monkeypatch.setattr(enumeration, "_PACKED_TOTALS", [1])
        monkeypatch.setattr(enumeration, "_irreducible_cache", [0])
        for n in range(1, 101):
            count_irreducible(n)
        assert sum(lengths.values()) <= 101
        assert max(lengths.values()) == 1


class TestEnumeration:
    def test_small_lengths(self):
        assert enumerate_packed(0) == [W("e")]
        assert enumerate_packed(1) == [W("0"), W("1")]
        assert [w.text() for w in enumerate_packed(2)] == ["0,0", "0,1", "1,0", "1,1", "1,2", "2,1"]

    def test_matches_brute_force(self):
        for n in range(6):
            assert set(enumerate_packed(n)) == brute_packed_words(n)

    def test_matches_set_partition_construction(self):
        # same words in the same order as the sorted set-partition construction
        for n in range(8):
            assert enumerate_packed(n) == partition_packed_words(n), n

    def test_canonical_order_no_duplicates(self):
        for n in range(6):
            words = enumerate_packed(n)
            assert len(set(words)) == len(words)
            assert words == sorted(words)

    def test_counts_by_supremum(self):
        for n in range(6):
            words = enumerate_packed(n)
            assert len(words) == count_packed_total(n)
            by_sup = Counter(w.sup for w in words)
            for k in range(n + 1):
                assert by_sup.get(k, 0) == count_packed(n, k)

    @pytest.mark.parametrize("n", range(8))
    def test_supremum_search_is_the_filter(self, n):
        # the search with its supremum pinned yields exactly the words of
        # the full search with that supremum, in the same order, and
        # nothing above the length; pruned to irreducibility as well, it
        # yields exactly those of them with no cut (e, with none, is not
        # irreducible)
        full = list(enumeration._packed_letters(n))
        for k in range(n + 3):
            words = list(enumeration._packed_letters(n, k))
            assert words == [w for w in full if max(w, default=0) == k], k
            assert len(words) == count_packed(n, k), k
            irreducible = list(enumeration._packed_letters(n, k, irreducible=True))
            assert irreducible == [w for w in words if w and not _cuts(w)], k

    def test_length_zero_by_supremum(self):
        assert list(enumeration._packed_letters(0, 0)) == [()]
        assert list(enumeration._packed_letters(0, 1)) == []
        assert enumerate_packed(0, 0) == [W("e")]

    def test_enumerate_packed_by_supremum(self):
        for n in range(6):
            words = enumerate_packed(n)
            for k in range(n + 2):
                assert enumerate_packed(n, k) == [w for w in words if w.sup == k], (n, k)
        with pytest.raises(ValueError):
            enumerate_packed(3, -1)

    def test_irreducible_enumeration(self):
        assert enumerate_irreducible(1) == [W("0"), W("1")]
        assert enumerate_irreducible(2) == [W("1,1"), W("2,1")]
        assert len(enumerate_irreducible(3)) == 10
        for n in range(1, 6):
            words = enumerate_irreducible(n)
            assert len(words) == count_irreducible(n)
            assert all(is_irreducible(w) for w in words)

    def test_irreducible_search_keeps_what_the_cut_filter_keeps(self):
        for n in range(1, 8):
            kept = [w for w in enumeration._packed_letters(n) if not _cuts(w)]
            assert list(enumeration._packed_letters(n, irreducible=True)) == kept, n

    def test_irreducible_search_at_length_eight(self):
        assert sum(1 for _ in enumeration._packed_letters(8, irreducible=True)) == count_irreducible(8) == 704226

    def test_irreducible_search_by_supremum_at_length_eight(self):
        # the walk pruned both ways splits the irreducible words of length
        # eight by supremum; the 64 of supremum 1 are the words 1,w,1 with w
        # any of the 2^6 words over {0,1}
        counts = [sum(1 for _ in enumeration._packed_letters(8, k, irreducible=True)) for k in range(10)]
        assert counts[0] == counts[9] == 0
        assert counts[1] == 64
        assert sum(counts) == count_irreducible(8) == 704226

    def test_length_zero_irreducible_rejected(self):
        with pytest.raises(ValueError):
            enumerate_irreducible(0)


class TestEgfCheck:
    def test_all_match(self):
        rows = egf_check(10)
        assert [r[0] for r in rows] == list(range(11))
        assert all(ok for _, _, ok in rows)
        assert rows[0][1] == 1
        assert rows[5][1] == 1082

    def test_counts_are_twice_the_ordered_bell_numbers(self):
        # ordered Bell numbers: b_0 = 1, b_n = sum_{k=1..n} C(n,k)*b_{n-k}
        fubini = [1]
        for n in range(1, 11):
            fubini.append(sum(comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
            assert count_packed_total(n) == 2 * fubini[n]

    def test_matches_the_fraction_series_expansion(self):
        rows = egf_check(40)
        assert [(n, v) for n, v, _ in rows] == list(enumerate(egf_expansion(40)))
        assert all(type(v) is int for _, v, _ in rows)

    def test_fraction_oracle_is_integral_and_starts_right(self):
        # the oracle carries the cross-check above, so pin it on its own
        values = egf_expansion(7)
        assert all(v.denominator == 1 for v in values)
        assert values == [1, 2, 6, 26, 150, 1082, 9366, 94586]

    def test_all_match_well_past_machine_words(self):
        rows = egf_check(150)
        assert all(ok for _, _, ok in rows)
        assert rows[150][1] > 2**64

    def test_shorter_runs_are_prefixes(self):
        rows = egf_check(60)
        for m in (0, 1, 10, 59):
            assert egf_check(m) == rows[: m + 1]

    def test_order_zero(self):
        assert egf_check(0) == [(0, 1, True)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="max_n"):
            egf_check(-1)
