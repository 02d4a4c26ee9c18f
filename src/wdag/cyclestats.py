"""Exact permutation-cycle statistics and the identities they satisfy.

Three counting families, all exact big integers:

  stirling1(n, m)                permutations of n elements with m cycles
  stirling1_all_divisible(d,n,m) ... with every cycle length divisible by d
  stirling1_by_even(n, m, e)     ... with exactly e cycles of even length

The divisible and even-split families are each computed by two distinct
recurrences (cycle removal and short step) that are required to agree;
an exhaustive census of S_n is the external oracle for all three.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import accumulate, permutations
from math import factorial
from operator import mul


def rising_factorial(x: int, n: int) -> int:
    """x (x+1) ... (x+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    out = 1
    for i in range(n):
        out *= x + i
    return out


def _memoised(recurrence):
    """Memoise a recurrence in n written as a generator: it yields the
    tuple of argument tuples it needs, is sent their values, and returns
    its own value.  A miss fills the table bottom-up: each state waits on
    an explicit stack until every state it needs, all of smaller n, is in
    the table, so a long chain of them never deepens Python's call stack."""
    table: dict[tuple[int, ...], int] = {}

    @wraps(recurrence)
    def value(*args: int) -> int:
        if args in table:
            return table[args]
        stack = [[args, recurrence(*args), None]]
        while stack:
            frame = stack[-1]
            state, steps, needs = frame
            values = None
            if needs is not None:
                missing = next((s for s in needs if s not in table), None)
                if missing is not None:
                    stack.append([missing, recurrence(*missing), None])
                    continue
                values = tuple(table[s] for s in needs)
            try:
                frame[2] = steps.send(values)
            except StopIteration as done:
                table[state] = done.value
                stack.pop()
        return table[args]

    value.cache_clear = table.clear
    return value


@_memoised
def stirling1(n: int, m: int):
    """Unsigned Stirling number of the first kind."""
    if n < 0 or m < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    fewer, same = yield (n - 1, m - 1), (n - 1, m)
    return fewer + (n - 1) * same


@_memoised
def _div_by_removal(d: int, n: int, m: int):
    # Remove the cycle containing the largest element; its length is a
    # multiple dk of d, chosen in (n-1)!/(n-dk)! ways.  Fewer points than
    # cycles leave nothing, so dk stops at n - m + 1.
    if n < 0 or m < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    if n % d != 0 or m == 0:
        return 0
    lengths = range(d, n - m + 2, d)
    rests = yield tuple((d, n - length, m - 1) for length in lengths)
    # ways[k] = (n-1)(n-2)...(n-k), the ways to fill a cycle of length k+1.
    ways = list(accumulate(range(n - 1, m - 1, -1), mul, initial=1))
    return sum(ways[length - 1] * rest for length, rest in zip(lengths, rests))


@_memoised
def _div_by_step(d: int, n: int, m: int):
    # Step down by d: the cycle holding the top element either has length
    # exactly d or loses d of its members.
    if n < 0 or m < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    if n % d != 0:
        return 0
    prev = n - d
    fewer, same = yield (d, prev, m - 1), (d, prev, m)
    return rising_factorial(prev + 1, d - 1) * fewer + rising_factorial(prev, d) * same


def stirling1_all_divisible(d: int, n: int, m: int) -> int:
    """Permutations of n elements with m cycles, all lengths divisible by d."""
    if d < 1:
        raise ValueError("divisor must be positive")
    a = _div_by_removal(d, n, m)
    b = _div_by_step(d, n, m)
    if a != b:
        raise ArithmeticError(
            f"divisible-cycle recurrences disagree at d={d}, n={n}, m={m}: {a} != {b}"
        )
    return a


@_memoised
def _even_by_step(n: int, m: int, e: int):
    # The cycle holding the top element has length 1, length 2, or length
    # greater than 2 (drop the top element and its successor).
    if n < 0 or m < 0 or e < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 and e == 0 else 0
    fixed, swap, longer = yield (n - 1, m - 1, e), (n - 2, m - 1, e - 1), (n - 2, m, e)
    return fixed + (n - 1) * swap + (n - 1) * (n - 2) * longer


@_memoised
def _even_by_removal(n: int, m: int, e: int):
    # Remove the whole cycle containing the top element, split by parity
    # of its length 2t+1 or 2t.  Fewer points than cycles leave nothing,
    # so the length stops at n - m + 1.
    if n < 0 or m < 0 or e < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 and e == 0 else 0
    if m == 0:
        return 0
    odd = range(1, n - m + 2, 2)
    even = range(2, n - m + 2, 2)
    rests = yield (
        *((n - length, m - 1, e) for length in odd),
        *((n - length, m - 1, e - 1) for length in even),
    )
    # ways[k] = (n-1)(n-2)...(n-k), the ways to fill a cycle of length k+1.
    ways = list(accumulate(range(n - 1, m - 1, -1), mul, initial=1))
    return sum(ways[length - 1] * rest for length, rest in zip((*odd, *even), rests))


def stirling1_by_even(n: int, m: int, e: int) -> int:
    """Permutations of n elements with m cycles of which exactly e are even."""
    a = _even_by_step(n, m, e)
    b = _even_by_removal(n, m, e)
    if a != b:
        raise ArithmeticError(
            f"even-split recurrences disagree at n={n}, m={m}, e={e}: {a} != {b}"
        )
    return a


def cycle_type_census(n: int) -> dict[tuple[int, ...], int]:
    """Exhaustive census of S_n: sorted cycle type -> number of permutations.

    Brute-force oracle, independent of every recurrence above.
    """
    counts: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            lengths.append(length)
        key = tuple(sorted(lengths))
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

IDENTITY_NAMES = ("rising_d", "all_odd", "some_even", "mandev", "mandev_minus_one")


@dataclass
class IdentityReport:
    name: str
    max_n: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_identity(name: str, max_n: int) -> IdentityReport:
    """Exact check of one cycle-statistics identity for all parameters up
    to max_n; the report lists every violation."""
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    report = IdentityReport(name=name, max_n=max_n)

    def check(ok: bool, detail: str) -> None:
        report.checked += 1
        if not ok:
            report.violations.append(detail)

    if name == "rising_d":
        # (dn)! x^{rising n} = n! sum_m c_d(dn, m) (xd)^m, cross-multiplied
        # to stay in integers.
        for d in (1, 2, 3):
            for n in range(1, max_n // d + 1):
                dn = d * n
                for x in range(1, 6):
                    lhs = factorial(dn) * rising_factorial(x, n)
                    rhs = factorial(n) * sum(
                        stirling1_all_divisible(d, dn, m) * (x * d) ** m
                        for m in range(0, n + 1)
                    )
                    check(lhs == rhs, f"d={d} n={n} x={x}: {lhs} != {rhs}")
        return report
    # The rest are sum_{m >= 1, e} 2^m w(e) c(n, m, e) = r(n); terms of
    # weight 0 are skipped.  In r(n), k = n // 2.
    weight, total = {
        "all_odd": (lambda e: int(e == 0), lambda n, k: 2 * factorial(n)),
        "some_even": (lambda e: int(e > 0), lambda n, k: (n - 1) * factorial(n)),
        "mandev": (
            lambda e: 2**e if e else 0,
            lambda n, k: factorial(n) * (k * (k + 3) if n % 2 else k * k + 2 * k - 1),
        ),
        "mandev_minus_one": (
            lambda e: 2**e - 1,
            lambda n, k: factorial(n) * (n - k) * k,
        ),
    }[name]
    for n in range(1, max_n + 1):
        weights = [weight(e) for e in range(n + 1)]
        lhs = sum(
            2**m * weights[e] * stirling1_by_even(n, m, e)
            for m in range(1, n + 1)
            for e in range(m + 1)
            if weights[e]
        )
        rhs = total(n, n // 2)
        check(lhs == rhs, f"n={n}: {lhs} != {rhs}")
    return report
