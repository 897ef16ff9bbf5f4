"""Independent oracles for the benchmark.

Every answer the library gives in a benchmark task is re-derived here by
code that does not call the library function that produced it: closed
forms and construction ground truth where they exist, direct
definitions (block formula, divisibility, exhaustive enumeration)
otherwise.  Nothing here imports ultradiv.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


def dyadic_color(a: int, b: int) -> int:
    """Pair color from the block definition, with no XOR trick.

    The merge level is the least n with ceil(a/2^n) == ceil(b/2^n); the
    color is that level minus floor(log2(b - a)).
    """
    if a > b:
        a, b = b, a
    level = 0
    while -(-a // 2**level) != -(-b // 2**level):
        level += 1
    gap, lg = b - a, 0
    while 2 ** (lg + 1) <= gap:
        lg += 1
    return level - lg


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by trial division."""
    out: list[int] = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


class SpfTable:
    """Smallest-prime-factor sieve that grows on demand."""

    def __init__(self, limit: int = 1 << 12):
        self.spf: list[int] = []
        self._build(limit)

    def _build(self, limit: int) -> None:
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        self.spf = spf

    def factor(self, n: int) -> dict[int, int]:
        if n >= len(self.spf):
            self._build(max(n, 2 * len(self.spf)))
        out: dict[int, int] = {}
        while n > 1:
            p = self.spf[n]
            out[p] = out.get(p, 0) + 1
            n //= p
        return out


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a bytearray sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def trial_factor(n: int, primes: list[int]) -> dict[int, int]:
    """Factorization by trial division; `primes` must reach isqrt(n)."""
    if primes[-1] < math.isqrt(n):
        raise ValueError(f"trial_factor needs primes up to {math.isqrt(n)}")
    out: dict[int, int] = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors_of(fac: dict[int, int]) -> list[int]:
    """All divisors from a factorization, increasing."""
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def is_prime_small(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, for input generation.

    Exact below psi_12 = 318665857834031151167461 (Sorenson & Webster
    2017); the generators only test numbers below 10^19.
    """
    if n >= 318665857834031151167461:
        raise ValueError("is_prime_small is only exact below psi_12")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime >= n (generation only, n < 10^19)."""
    while not is_prime_small(n):
        n += 1
    return n


# --- sets -------------------------------------------------------------------


def multiples_count(A, W: int) -> int:
    """|{n <= W : some a in A divides n}| by inclusion-exclusion."""
    elems = sorted(a for a in set(A) if a <= W)
    total = 0
    for r in range(1, len(elems) + 1):
        sign = 1 if r % 2 else -1
        for sub in combinations(elems, r):
            total += sign * (W // math.lcm(*sub))
    return total


def up_closure_ok(A, W: int, got, probes) -> bool:
    """Window, bounds, exact size and sampled membership of an upward closure."""
    if getattr(got, "window", None) != W:
        return False
    if got and (min(got) < 1 or max(got) > W):
        return False
    if len(got) != multiples_count(A, W):
        return False
    elems = [a for a in A if a <= W]
    return all((x in got) == any(x % a == 0 for a in elems) for x in probes)


# --- patterns ----------------------------------------------------------------


def pattern_numbers(entries, pools) -> set[int]:
    """Every number of a pattern, by injective assignment of pool primes.

    entries: (label, exponent, multiplicity) triples; pools: label ->
    primes.  A label's slots take distinct primes of its pool in every
    order (permutations, not the library's combination recursion).
    """
    per_label: dict = {}
    for label, k, n in entries:
        per_label.setdefault(label, []).extend([k] * n)
    out = {1}
    for label, exps in per_label.items():
        vals = {math.prod(p**e for p, e in zip(perm, exps))
                for perm in permutations(pools[label], len(exps))}
        out = {x * v for x in out for v in vals}
    return out


def tail_sums_exceed(alpha, beta) -> bool:
    """True when not(alpha <= beta): some label has a tail sum of alpha's
    exponent multiplicities above beta's."""
    labels = {lab for lab, _k, _n in alpha} | {lab for lab, _k, _n in beta}
    for label in labels:
        xs = [(k, n) for lab, k, n in alpha if lab == label]
        ys = [(k, n) for lab, k, n in beta if lab == label]
        top = max([k for k, _n in xs + ys], default=0)
        for m in range(1, top + 1):
            if sum(n for k, n in xs if k >= m) > sum(n for k, n in ys if k >= m):
                return True
    return False


# --- thickness ---------------------------------------------------------------


def _covers(indices, n: int, k_max: int) -> bool:
    """Do the arity-n subsets of these prime indices meet classes 1..k_max?"""
    need = set(range(1, k_max + 1))
    for sub in combinations(sorted(indices), n):
        need.discard(dyadic_color(sub[0], sub[1]))
        if not need:
            return True
    return False


def thick_brute(indices, m_max: int, k_max: int, n: int) -> bool:
    """Bounded thickness by exhaustive partition enumeration.

    Not thick iff some partition into at most m_max parts has no part
    meeting every class; parts are enumerated as bitmasks holding the
    lowest remaining element, so every partition is visited once.
    """
    idx = sorted(indices)
    size = len(idx)
    if m_max == 1:
        return bool(idx) and _covers(idx, n, k_max)
    bad = [not _covers([idx[i] for i in range(size) if mask >> i & 1], n, k_max)
           for mask in range(1 << size)]

    def violating(rest: int, parts: int) -> bool:
        if rest == 0:
            return True
        if parts == 1:
            return bad[rest]
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            part = low | sub
            if bad[part] and violating(rest ^ part, parts - 1):
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & others

    return not violating((1 << size) - 1, m_max)


def thick_certificate_ok(primes, index_of, m_max: int, k_max: int, n: int, cert) -> bool:
    """A non-thickness certificate: a partition of the primes into at most
    m_max parts, each missing its listed class among its arity-n subsets."""
    parts, missing = cert["partition"], cert["missing"]
    if len(parts) > m_max or len(parts) != len(missing):
        return False
    flat = [p for part in parts for p in part]
    if sorted(flat) != sorted(set(primes)) or len(flat) != len(set(flat)):
        return False
    for part, miss in zip(parts, missing):
        if not part or not 1 <= miss <= k_max:
            return False
        ids = sorted(index_of[p] for p in part)
        if any(dyadic_color(s[0], s[1]) == miss for s in combinations(ids, n)):
            return False
    return True
