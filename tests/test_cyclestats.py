import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import wdag

from wdag.cyclestats import (
    IDENTITY_NAMES,
    cycle_type_census,
    rising_factorial,
    stirling1,
    stirling1_all_divisible,
    stirling1_by_even,
    verify_identity,
)


def census_stats(n):
    """Aggregate the brute-force census into the three statistics."""
    census = cycle_type_census(n)
    c = {}
    c_div = {}
    c_even = {}
    for ctype, count in census.items():
        m = len(ctype)
        e = sum(1 for length in ctype if length % 2 == 0)
        c[m] = c.get(m, 0) + count
        c_even[(m, e)] = c_even.get((m, e), 0) + count
        for d in (1, 2, 3, 4):
            if all(length % d == 0 for length in ctype):
                c_div[(d, m)] = c_div.get((d, m), 0) + count
    return c, c_div, c_even


class TestRisingFactorial:
    def test_empty_product(self):
        assert rising_factorial(3, 0) == 1

    def test_factorial_case(self):
        for n in range(8):
            assert rising_factorial(1, n) == factorial(n)

    def test_small_value(self):
        assert rising_factorial(2, 3) == 24

    def test_stirling_expansion(self):
        for x in range(1, 6):
            for n in range(9):
                assert rising_factorial(x, n) == sum(
                    stirling1(n, m) * x**m for m in range(n + 1)
                )


class TestStirling:
    def test_frozen_values(self):
        # Computed from the S_n census.
        assert stirling1(3, 2) == 3
        assert stirling1(4, 2) == 11
        assert stirling1(5, 2) == 50

    def test_boundary(self):
        for n in range(1, 9):
            assert stirling1(n, n) == 1
            assert stirling1(n, 0) == 0
        assert stirling1(0, 0) == 1

    def test_row_sums_to_factorial(self):
        for n in range(9):
            assert sum(stirling1(n, m) for m in range(n + 1)) == factorial(n)

    def test_more_cycles_than_points_is_zero_at_once(self):
        # stirling1(n, n) asks for stirling1(n - 1, n), which must not recurse
        # down its column; a cold cache would overflow the stack by n ~ 1000.
        stirling1.cache_clear()
        for n in range(1200):
            assert stirling1(n, n) == 1
        assert stirling1(3, 5) == 0


@pytest.mark.parametrize(
    "call, value",
    [
        ("stirling1(1200, 1)", "factorial(1199)"),
        ("stirling1_all_divisible(2, 1200, 1200)", "0"),
        ("stirling1_by_even(1200, 1200, 0)", "1"),
    ],
)
def test_cold_table_fills_without_recursion_error(call, value):
    # A fresh process starts with empty tables, so the whole chain of
    # smaller n is filled by this one call.
    code = (
        "from math import factorial\n"
        "from wdag.cyclestats import *\n"
        f"assert {call} == {value}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wdag.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)


class TestDivisible:
    def test_frozen_values(self):
        # S_4 census: the three double transpositions.
        assert stirling1_all_divisible(2, 4, 2) == 3
        assert stirling1_all_divisible(2, 4, 1) == 6
        assert stirling1_all_divisible(3, 6, 2) == 40

    def test_zero_when_not_divisible(self):
        assert all(stirling1_all_divisible(2, 5, m) == 0 for m in range(6))

    def test_degenerate_divisor(self):
        for n in range(8):
            for m in range(n + 1):
                assert stirling1_all_divisible(1, n, m) == stirling1(n, m)

    def test_divisor_validation(self):
        with pytest.raises(ValueError):
            stirling1_all_divisible(0, 2, 1)

    def test_recurrences_agree_wide(self):
        # Each call already cross-checks the two recurrences internally.
        for d in (2, 3, 4):
            for n in range(0, 17, d):
                for m in range(n + 1):
                    stirling1_all_divisible(d, n, m)


class TestEvenSplit:
    def test_frozen_values(self):
        # S_4 census: 2 cycles split as (3,1) -> e=0 eight times, (2,2) -> e=2.
        assert stirling1_by_even(4, 2, 0) == 8
        assert stirling1_by_even(4, 2, 1) == 0
        assert stirling1_by_even(4, 2, 2) == 3
        assert stirling1_by_even(4, 3, 1) == 6

    def test_partition_by_even_count(self):
        for n in range(9):
            for m in range(n + 1):
                assert sum(
                    stirling1_by_even(n, m, e) for e in range(n // 2 + 1)
                ) == stirling1(n, m)

    def test_impossible_even_count(self):
        for n in range(1, 9):
            for e in range(n // 2 + 1, n + 2):
                assert stirling1_by_even(n, n, e) == 0
        assert stirling1_by_even(5, 2, 3) == 0

    def test_recurrences_agree_wide(self):
        for n in range(13):
            for m in range(n + 1):
                for e in range(n // 2 + 1):
                    stirling1_by_even(n, m, e)


class TestCensusAgreement:
    @pytest.mark.parametrize("n", range(7))
    def test_all_three_statistics(self, n):
        c, c_div, c_even = census_stats(n)
        for m in range(n + 1):
            assert c.get(m, 0) == stirling1(n, m)
            for d in (1, 2, 3, 4):
                assert c_div.get((d, m), 0) == stirling1_all_divisible(d, n, m)
            for e in range(n // 2 + 1):
                assert c_even.get((m, e), 0) == stirling1_by_even(n, m, e)


class TestIdentities:
    def test_all_odd_value_at_three(self):
        # 2*c(3,1,0) + 8*c(3,3,0) = 4 + 8 = 12 = 2*3!
        assert stirling1_by_even(3, 1, 0) == 2
        assert stirling1_by_even(3, 3, 0) == 1
        total = sum(2**m * stirling1_by_even(3, m, 0) for m in range(1, 4))
        assert total == 12 == 2 * factorial(3)

    def test_mixed_even_value_at_two(self):
        total = sum(
            2**m * 2**e * stirling1_by_even(2, m, e)
            for m in range(1, 3)
            for e in range(1, m + 1)
        )
        assert total == 4  # (2k)! (k^2 + 2k - 1) at k = 1

    def test_rising_d_degenerate(self):
        # d=2, n=1: (2)! x = 1! * c_2(2,1) * (2x).
        assert stirling1_all_divisible(2, 2, 1) == 1
        for x in range(1, 6):
            assert factorial(2) * rising_factorial(x, 1) == factorial(1) * (
                stirling1_all_divisible(2, 2, 1) * (2 * x)
            )

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_reports_clean(self, name):
        report = verify_identity(name, 10)
        assert report.ok
        assert report.checked > 0

    def test_violations_name_each_failing_n(self, monkeypatch):
        monkeypatch.setattr(wdag.cyclestats, "stirling1_by_even", lambda n, m, e: 0)
        report = verify_identity("all_odd", 2)
        assert report.checked == 2
        assert report.violations == ["n=1: 0 != 2", "n=2: 0 != 4"]
        assert verify_identity("mandev", 2).violations == ["n=2: 0 != 4"]

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity("nope", 5)
