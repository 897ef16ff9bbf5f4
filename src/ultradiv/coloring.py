"""Dyadic block coloring, derived partitions of coprime products, and
exhaustive verifiers.

The coloring lives on the dyadic block tree: level-n blocks are the
intervals ((i-1)*2^n, i*2^n], each the union of its two level-(n-1)
children.  A pair a < b is colored at its merge level n (the least level
putting both in one block; there a and b automatically sit in opposite
half-blocks) by n - floor(log2(b - a)).  Tuples inherit the color of
their two smallest members, which partitions the products of n distinct
primes into classes indexed by color; those classes refine downwards
(dropping the largest prime keeps the class) and drive the bounded
d-thickness test.

Verifiers here are exhaustive within their stated bounds and return
certificates for any violation found; they never sample.  verify_progr
decides each progression exactly: for every pair of terms, the starts
that color it k form one interval repeating with a power-of-two period,
so one bit mask per step settles all starts at once.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, compress
from typing import Callable, Iterable, Mapping

from .arith import NatSet, factorize, first_primes, prime_index
from .guards import check_guard

__all__ = [
    "ThickParams",
    "ThickResult",
    "color_pair",
    "color_tuple",
    "class_of",
    "block_interval",
    "verify_progr",
    "verify_refinement",
    "is_thick_bounded",
    "check_thick_lemmas",
    "coloring_from_set",
    "find_monochromatic",
    "VerifyReport",
    "ThickLemmasReport",
]

MAX_WORK = 10**8  # default guard: work one exhaustive search may do, in its own units
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits -> compress() selectors


def block_interval(n: int, i: int) -> range:
    """The i-th dyadic block at level n: {(i-1)*2^n + 1, ..., i*2^n}."""
    if n < 0 or i < 1:
        raise ValueError("level must be >= 0 and index >= 1")
    return range((i - 1) * 2**n + 1, i * 2**n + 1)


def color_pair(a: int, b: int) -> int:
    """Color of a distinct pair: merge level minus dyadic size of the gap.

    Always >= 1; adjacent pairs {2i-1, 2i} get color 1.
    """
    if a == b:
        raise ValueError("pair coloring needs two distinct numbers")
    if a < 1 or b < 1:
        raise ValueError("pair elements must be >= 1")
    return _pair_color(a, b) if a < b else _pair_color(b, a)


def _pair_color(a: int, b: int) -> int:
    """color_pair for 1 <= a < b, unchecked."""
    merge = ((a - 1) ^ (b - 1)).bit_length()  # least n with both in one level-n block
    return merge - (b - a).bit_length() + 1


def color_tuple(indices: Iterable[int], n: int | None = None) -> int:
    """Color of a finite index set: the pair color of its two smallest."""
    xs = sorted(set(indices))
    if n is not None and len(xs) != n:
        raise ValueError(f"expected {n} distinct indices, got {len(xs)}")
    if len(xs) < 2:
        raise ValueError("need at least two distinct indices")
    a, b = xs[0], xs[1]
    if a < 1:
        raise ValueError("pair elements must be >= 1")
    return _pair_color(a, b)


def class_of(n: int, x: int) -> int:
    """Partition class of a product of n distinct primes.

    The class index is the tuple color of the primes' positions in the
    increasing prime enumeration.
    """
    if n < 2:
        raise ValueError("classes are defined for arity >= 2")
    fac = factorize(x)
    if len(fac) != n or any(e != 1 for e in fac.values()):
        raise ValueError(f"{x} is not a product of {n} distinct primes")
    return color_tuple([prime_index(p) for p in fac], n)


# --- exhaustive verifiers -----------------------------------------------------


class VerifyReport:
    """Result of an exhaustive verifier: how many instances it checked and
    every violation it found."""

    __slots__ = ("checked", "violations")

    def __init__(self, checked: int, violations: list):
        self.checked = checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_progr(k: int, a0_max: int, d_max: int) -> VerifyReport:
    """Decide every progression with start <= a0_max, step <= d_max and
    length 2^k + 1: does it have a pair colored k?  Violations, each
    (start, step, terms), are collected in full, steps outer and starts
    ascending.
    """
    if k < 1:
        raise ValueError("color index must be >= 1")
    if a0_max < 1 or d_max < 1:
        raise ValueError("start and step bounds must be >= 1")
    # from k = 64 on the guard sees 2^64, a lower bound for 2^k + 1, so a
    # huge k trips it before 2^k is ever built
    estimate = 2**k + 1 if k < 64 else 2**64
    check_guard(a0_max * d_max * math.comb(estimate, 2), MAX_WORK, "progression pair checks")
    length = 2**k + 1
    full = (1 << a0_max) - 1
    nums: list[int] = []  # 1, 2, ...: every violation's terms are items of this one list
    violations = []
    for d in range(1, d_max + 1):
        missed = full ^ _progr_hits(k, a0_max, d, full)
        if not missed:
            continue
        if not nums:
            nums = list(range(1, a0_max + (length - 1) * d_max + 1))
        flags = format(missed, f"0{a0_max}b")[::-1].encode().translate(_BIT_FLAGS)
        stop = (length - 1) * d + 1
        terms = [tuple(nums[s:s + stop:d]) for s in compress(range(a0_max), flags)]
        violations += [(t[0], d, t) for t in terms]
    return VerifyReport(a0_max * d_max, violations)


def _progr_hits(k: int, a0_max: int, d: int, full: int) -> int:
    """Bit s (s < a0_max) is set iff the step-d progression from a0 = s + 1
    has a pair colored k.

    A pair x < y with gap delta = y - x is colored k iff
    ((x-1) ^ (y-1)).bit_length() == t = k - 1 + delta.bit_length(), that
    is iff (x-1) mod 2^t lies in [max(0, 2^(t-1) - delta),
    min(2^(t-1), 2^t - delta)).  For terms i and i + g, then, the starts
    that color the pair k form one interval per period 2^t, shifted by
    i*d and perhaps wrapped.  Gaps are walked shortest first; a period
    shorter than a0_max is built once and copied up by doubling, a longer
    one is clipped to [0, a0_max).
    """
    hit = 0
    for g in range(1, 2**k + 1):
        delta = g * d
        period = 1 << (k - 1 + delta.bit_length())
        half = period >> 1
        lo = max(0, half - delta)
        width = min(half, period - delta) - lo
        span = min(period, a0_max)
        cover = 0
        for i in range(2**k - g + 1):
            r = (lo - i * d) % period  # least s >= 0 with (s + i*d) mod period == lo
            if r < span:
                cover |= (1 << min(r + width, span)) - (1 << r)
            if r + width > period:
                cover |= (1 << min(r + width - period, span)) - 1
        if span < a0_max:
            while span < a0_max:
                cover |= cover << span
                span *= 2
            cover &= full
        hit |= cover
        if hit == full:
            break
    return hit


def verify_refinement(n: int, index_bound: int) -> VerifyReport:
    """For every (n+1)-subset of {1..index_bound}: its color must be the
    color its n-prefix gets from the block definition.

    Subsets are walked in lexicographic order, grouped by their n-prefix:
    each prefix is colored once, by `_block_color`, and each subset once,
    by `color_tuple`.  So the check fails when the xor identity in
    `_pair_color` and the dyadic blocks disagree on a pair, or when
    dropping the largest member changes a tuple's color.
    """
    if n < 2:
        raise ValueError("refinement starts at arity 2")
    if index_bound < n + 1:
        raise ValueError(f"index bound must be >= arity + 1 = {n + 1}")
    # C(index_bound, n + 1) from its smaller side; once both sides exceed 64
    # it is above C(130, 65) > 2^64, and 2^64 stands in as a lower bound
    side = min(n + 1, index_bound - n - 1)
    check_guard(math.comb(index_bound, side) if side <= 64 else 2**64, MAX_WORK,
                "refinement tuples")
    violations = []
    checked = 0
    for prefix in combinations(range(1, index_bound), n):
        color = _block_color(prefix[0], prefix[1])
        lasts = range(prefix[-1] + 1, index_bound + 1)
        checked += len(lasts)
        for last in lasts:
            tup = prefix + (last,)
            if color_tuple(tup, n + 1) != color:
                violations.append(tup)
    return VerifyReport(checked, violations)


def _block_color(a: int, b: int) -> int:
    """The pair color of 1 <= a < b read off the block tree: the least
    level whose block around a also holds b, minus the gap's dyadic size.

    A level-l block spans 2^l numbers, so the search starts at the first
    level wide enough for the gap, and the color is one more than the
    number of levels it climbs from there.
    """
    level = start = (b - a).bit_length()
    while b not in block_interval(level, ((a - 1) >> level) + 1):
        level += 1
    return level - start + 1


# --- bounded thickness ---------------------------------------------------------


class ThickParams:
    """Bounds for the finitized thickness test: partitions into at most
    m_max parts, classes 1..k_max to be met, products of n >= 2 primes."""

    __slots__ = ("m_max", "k_max", "n")

    def __init__(self, m_max: int, k_max: int, n: int = 2):
        if m_max < 1 or k_max < 1 or n < 1:
            raise ValueError("thickness parameters must be >= 1")
        if n < 2:
            raise ValueError("product arity must be >= 2")
        self.m_max = m_max
        self.k_max = k_max
        self.n = n

    def __repr__(self) -> str:
        return f"ThickParams(m_max={self.m_max}, k_max={self.k_max}, n={self.n})"


class ThickResult:
    __slots__ = ("thick", "certificate")

    def __init__(self, thick: bool, certificate: dict | None = None):
        self.thick = thick
        self.certificate = certificate  # violating partition when not thick


def _partitions_bounded(items: tuple, max_parts: int):
    """Set partitions of items into at most max_parts nonempty blocks, each
    sorted as items and ordered by least element: the restricted growth
    strings in lexicographic order, walked with an explicit stack."""
    parts: list[list] = []
    placed: list[int] = []  # placed[i]: the block items[i] sits in
    j = 0  # the block to try for the next item; len(parts) opens a new one
    while True:
        if len(placed) == len(items):
            yield [tuple(p) for p in parts]
        elif j <= len(parts) and j < max_parts:
            if j == len(parts):
                parts.append([])
            parts[j].append(items[len(placed)])
            placed.append(j)
            j = 0
            continue
        if not placed:
            return
        j = placed.pop()  # undo the last placement, then try the next block
        parts[j].pop()
        if not parts[j]:  # only the newest block can empty
            parts.pop()
        j += 1


def _missing_class(part: tuple[int, ...], n: int, k_max: int) -> int | None:
    """The least class 1..k_max that the part's arity-n product set misses,
    or None when it meets every one.

    part holds prime indices, sorted.  The class of an n-subset is the
    pair color of its two smallest members, so it suffices to scan pairs
    that still leave n-2 larger elements in the part (none when the part
    has fewer than n members).
    """
    need = set(range(1, k_max + 1))
    for jb in range(1, len(part) - n + 2):
        b = part[jb]
        for ja in range(jb):
            need.discard(_pair_color(part[ja], b))
            if not need:
                return None
    return min(need)


def is_thick_bounded(A: Iterable[int], params: ThickParams) -> ThickResult:
    """Bounded thickness of a prime set, by exhaustive partition search.

    True iff every partition of A into at most m_max parts has a part
    whose arity-n coprime products meet every class k <= k_max.  This
    UNDER-approximates the unbounded notion: claims hold only at the
    given (m_max, k_max).  When false, the certificate holds a violating
    partition and one missing class per part.
    """
    primes = sorted(set(A))
    n = len(primes)
    if not n:
        return ThickResult(False, {"partition": [], "missing": []})
    # a partition into at most m parts is a restricted growth string, so
    # there are at most m^(n-1), each with at most C(n, 2) pairs to color;
    # from 2^64 on the guard sees 2^64 for the power
    m = min(params.m_max, n)
    partitions = m ** (n - 1) if (n - 1) * (m.bit_length() - 1) < 64 else 2**64
    check_guard(partitions * math.comb(n, 2), MAX_WORK, "thickness pair colorings")
    prime_at = {prime_index(p): p for p in primes}
    # no pair of indices <= i has a color above i.bit_length(), so a larger
    # k_max leaves the least missing class unchanged
    k_max = min(params.k_max, max(prime_at).bit_length() + 1)
    for partition in _partitions_bounded(tuple(prime_at), params.m_max):
        missing: list[int] = []
        for part in partition:
            miss = _missing_class(part, params.n, k_max)
            if miss is None:
                break
            missing.append(miss)
        else:  # prime_at is increasing, so each part maps back sorted
            partition = [[prime_at[i] for i in part] for part in partition]
            return ThickResult(False, {"partition": partition, "missing": missing})
    return ThickResult(True)


class ThickLemmasReport:
    """Randomized harness over the three closure properties of bounded
    thickness (supersets stay thick; unions of non-thick sets stay
    non-thick with added part budgets; non-thickness climbs arity)."""

    __slots__ = ("samples", "monotone_hits", "union_hits", "arity_hits", "failures")

    def __init__(self, samples: int):
        self.samples = samples
        self.monotone_hits = self.union_hits = self.arity_hits = 0
        self.failures: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def check_thick_lemmas(samples: int = 100, seed: int = 0) -> ThickLemmasReport:
    """Random small instances for each property; every instance must pass.

    Vacuous instances (premise not met) count as passes but not as hits;
    generation is biased so a healthy fraction of premises fire.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    primes = first_primes(10)
    report = ThickLemmasReport(samples)

    def rand_set(lo, hi):
        size = rng.randrange(lo, hi + 1)
        return frozenset(rng.sample(primes, size))

    for _ in range(samples):
        # (i) monotonicity: thick(A) and A <= B forces thick(B)
        B = rand_set(2, 8)
        A = frozenset(x for x in B if rng.random() < 0.7) or B
        bounds = {"m_max": rng.randrange(1, 3), "k_max": rng.randrange(1, 3),
                  "n": rng.choice((2, 2, 3))}
        params = ThickParams(**bounds)
        if is_thick_bounded(A, params).thick:
            report.monotone_hits += 1
            if not is_thick_bounded(B, params).thick:
                report.failures.append(
                    {"property": "monotone", "A": sorted(A), "B": sorted(B), "params": bounds}
                )

        # (ii) union: witnesses against A (m1 parts) and B (m2 parts)
        # concatenate to a witness against A|B at m1+m2 parts
        A = rand_set(2, 4)
        B = rand_set(2, 4)
        m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
        k_max = rng.randrange(2, 4)
        n = 2
        pa = ThickParams(m_max=m1, k_max=k_max, n=n)
        pb = ThickParams(m_max=m2, k_max=k_max, n=n)
        if not is_thick_bounded(A, pa).thick and not is_thick_bounded(B, pb).thick:
            report.union_hits += 1
            pu = ThickParams(m_max=m1 + m2, k_max=k_max, n=n)
            if is_thick_bounded(A | B, pu).thick:
                report.failures.append(
                    {"property": "union", "A": sorted(A), "B": sorted(B),
                     "m1": m1, "m2": m2, "k_max": k_max}
                )

        # (iii) arity step: a witness at arity n works at arity n+1
        A = rand_set(2, 7)
        bounds = {"m_max": rng.randrange(1, 3), "k_max": rng.randrange(1, 3), "n": 2}
        if not is_thick_bounded(A, ThickParams(**bounds)).thick:
            report.arity_hits += 1
            if is_thick_bounded(A, ThickParams(**{**bounds, "n": 3})).thick:
                report.failures.append({"property": "arity", "A": sorted(A), "params": bounds})
    return report


# --- coloring/set translation and monochromatic search -------------------------


def coloring_from_set(S: Iterable[int], A: Iterable[int], k: int) -> dict[frozenset, int]:
    """Two-coloring of k-subsets of A: 0 when the product lands in S."""
    Sset = frozenset(S)
    out = {}
    for comb in combinations(sorted(set(A)), k):
        prod = 1
        for x in comb:
            prod *= x
        out[frozenset(comb)] = 0 if prod in Sset else 1
    return out


def find_monochromatic(
    A: Iterable[int],
    k: int,
    coloring: Mapping[frozenset, int] | Callable[[frozenset], int],
    target_size: int,
) -> NatSet | None:
    """Brute-force search for a target_size subset all of whose k-subsets
    share one color; None when no subset works."""
    if target_size < k:
        raise ValueError("target size must be at least the subset size")
    color = coloring.__getitem__ if isinstance(coloring, Mapping) else coloring
    elems = sorted(set(A))
    for cand in combinations(elems, target_size):
        seen = {color(frozenset(sub)) for sub in combinations(cand, k)}
        if len(seen) == 1:
            return NatSet(cand)
    return None
