"""Exact divisor-lattice primitives over unbounded positive integers.

Everything here is pure and exact: Python bignums throughout, no floats.
Conceptually infinite sets (upward divisibility closures) are always cut
at an explicit window W and the window travels with the result.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain, combinations, compress

__all__ = [
    "NatSet",
    "factorize",
    "up_closure",
    "quotient_set",
    "coprime_product",
    "coprime_power",
    "level_of",
    "prime_index",
    "primes_upto",
    "first_primes",
    "is_prime",
    "divisors",
]

# Trial division uses a cached, growing prime list; inputs whose
# unfactored part survives past this bound go to Pollard rho.
TRIAL_DIVISION_BOUND = 10**6

_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_sieved_to: int = 48


def _extend_sieve(limit: int) -> None:
    global _primes, _sieved_to
    if limit <= _sieved_to:
        return
    limit = max(limit, 2 * _sieved_to)
    # odd numbers only: sieve[i] stands for 2*i + 1
    sieve = bytearray(b"\x01") * ((limit + 1) // 2)
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    _primes = [2, *compress(range(1, limit + 1, 2), sieve)]
    _sieved_to = limit


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, increasing."""
    _extend_sieve(limit)
    return _primes[: bisect.bisect_right(_primes, limit)]


def first_primes(count: int) -> list[int]:
    """The first `count` primes, increasing."""
    if count < 0:
        raise ValueError("count must be >= 0")
    while len(_primes) < count:
        # p_n < n(ln n + ln ln n) for n >= 6
        n = max(count, 6)
        _extend_sieve(int(n * (math.log(n) + math.log(math.log(n)))) + 10)
    return _primes[:count]


def prime_index(p: int) -> int:
    """Position of the prime p in the increasing enumeration (1-based)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _extend_sieve(p)
    return bisect.bisect_right(_primes, p)


# Sorenson & Webster (2017): psi_12, the least strong pseudoprime to all of
# the first 12 prime bases, so below it those 12 bases decide primality.
_PSI_12 = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Primality test: exact below psi_12 = 318665857834031151167461,
    probable from there on.

    Below psi_12, Miller-Rabin to the 12 prime bases 2..37 is a proof.
    From psi_12 on it is Baillie-PSW: a base-2 strong test, then a strong
    Lucas test with Selfridge's parameters.  No composite is known to pass
    it, but that is not proven.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n < _PSI_12 else (2,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 37^2, free of factors <= 37,
    with Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, for odd n
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_k, V_k and Q^k mod n, for k running over the binary prefixes of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle detection)."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


def factorize(n: int) -> dict[int, int]:
    """Exact prime factorization as a prime -> exponent map; 1 -> {}."""
    if n < 1:
        raise ValueError("factorize is defined on positive integers")
    out: dict[int, int] = {}
    if n == 1:
        return out
    bound = min(math.isqrt(n), TRIAL_DIVISION_BOUND)
    _extend_sieve(min(bound + 1, TRIAL_DIVISION_BOUND))
    for p in _primes:
        if p > bound:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            bound = min(math.isqrt(n), TRIAL_DIVISION_BOUND)
    if n == 1:
        return out
    if math.isqrt(n) <= TRIAL_DIVISION_BOUND:
        # every prime up to sqrt(n) was tried: n is prime
        out[n] = out.get(n, 0) + 1
        return out
    # what remains has no prime factor up to the trial bound: a prime, or a job for rho
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing."""
    if n < 1:
        raise ValueError("divisors is defined on positive integers")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class NatSet(frozenset):
    """Finite set of positive integers, optionally windowed.

    A window W marks the set as the visible part S ∩ {1..W} of a
    conceptually unbounded S.  Window is metadata: equality and hashing
    are those of the underlying frozenset.
    """

    __slots__ = ("window",)

    def __new__(cls, elements=(), window: int | None = None):
        self = cls._trusted(_elems(elements), window)
        if window is not None:
            if window < 1:
                raise ValueError("window must be >= 1")
            if self and max(self) > window:
                raise ValueError("NatSet element exceeds its window")
        return self

    @classmethod
    def _trusted(cls, elements, window: int | None = None) -> NatSet:
        """Internal constructor for elements known to be >= 1 and <= window."""
        self = frozenset.__new__(cls, elements)
        self.window = window
        return self

    def __repr__(self) -> str:
        body = "{" + ", ".join(map(str, sorted(self))) + "}"
        return f"NatSet({body}, window={self.window})" if self.window else f"NatSet({body})"


def _elems(A) -> frozenset:
    """A set operand, checked once where it enters; a NatSet is trusted."""
    if isinstance(A, NatSet):
        return A
    elems = A if isinstance(A, frozenset) else frozenset(A)
    if elems and min(elems) < 1:
        raise ValueError("NatSet elements must be integers >= 1")
    return elems


def up_closure(A, W: int) -> NatSet:
    """Multiples within the window: {n <= W : some a in A divides n}.

    Elements of A larger than W contribute nothing (they have no
    multiples in the window).
    """
    if W < 1:
        raise ValueError("window must be >= 1")
    gens: list[int] = []
    for a in sorted(_elems(A)):
        if a > W:
            break
        # skip multiples of kept generators, unless the test costs more than W // a
        if len(gens) >= W // a or all(a % g for g in gens):
            gens.append(a)
    return NatSet._trusted(chain.from_iterable(range(a, W + 1, a) for a in gens), W)


def quotient_set(A, n: int) -> NatSet:
    """A/n = {m : m*n in A}.  Empty when n divides no element."""
    if n < 1:
        raise ValueError("quotient divisor must be >= 1")
    window = A.window if isinstance(A, NatSet) else None
    out = {a // n for a in _elems(A) if a % n == 0}
    return NatSet._trusted(out, window and max(1, window // n))


def coprime_product(A, B) -> NatSet:
    """{a*b : a in A, b in B, gcd(a,b) = 1}."""
    B = _elems(B)
    return NatSet._trusted({a * b for a in _elems(A) for b in B if math.gcd(a, b) == 1})


def coprime_power(A, n: int) -> NatSet:
    """n-fold coprime product of A with itself.

    For A a set of primes this is all products of n distinct members.
    """
    if n < 1:
        raise ValueError("coprime power needs n >= 1")
    elems = _elems(A)
    if all(is_prime(a) for a in elems):
        # distinct-prime fast path, same result as folding the binary product
        return NatSet._trusted(math.prod(c) for c in combinations(elems, n))
    acc = base = NatSet._trusted(elems)
    for _ in range(n - 1):
        acc = coprime_product(acc, base)
    return acc


def level_of(n: int) -> int:
    """Number of prime factors counted with multiplicity; level_of(1) = 0."""
    return sum(factorize(n).values())
