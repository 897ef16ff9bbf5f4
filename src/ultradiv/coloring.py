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
certificates for any violation found; they never sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
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
    "find_mono_ap",
    "is_thick_bounded",
    "check_thick_lemmas",
    "coloring_from_set",
    "find_monochromatic",
    "ProgressionReport",
    "RefinementReport",
    "ThickLemmasReport",
]

MAX_THICK_SET = 12  # default guard: exhaustive partitions only up to this size
MAX_THICK_PARTS = 3
MAX_VERIFY_WORK = 10**8  # default guard: pair checks or tuples one exhaustive verifier may do


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
    if a > b:
        a, b = b, a
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
    return ((a - 1) ^ (b - 1)).bit_length() - (b - a).bit_length() + 1  # color_pair(a, b)


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


@dataclass
class ProgressionReport:
    """Exhaustive check that length-(2^k + 1) progressions contain a k-pair."""

    k: int
    a0_max: int
    d_max: int
    checked: int
    violations: list[tuple[int, int, tuple[int, ...]]]  # (start, step, terms)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_progr(k: int, a0_max: int, d_max: int) -> ProgressionReport:
    """Scan every progression with start <= a0_max, step <= d_max and
    length 2^k + 1 for a pair colored k; violations are collected in full.
    """
    if k < 1:
        raise ValueError("color index must be >= 1")
    if a0_max < 1 or d_max < 1:
        raise ValueError("start and step bounds must be >= 1")
    length = 2**k + 1
    check_guard(length, 2**12 + 1, "progression length")
    check_guard(a0_max * d_max * math.comb(length, 2), MAX_VERIFY_WORK, "progression pair checks")
    # gap-1 pairs first: the intended witness is usually adjacent
    pair_order = sorted(combinations(range(length), 2), key=lambda ij: ij[1] - ij[0])
    violations = []
    for d in range(1, d_max + 1):
        # color_pair(a, b) == k  iff  ((a-1) ^ (b-1)).bit_length() == k - 1 + (b-a).bit_length();
        # the offsets and the gap's target depend on d only, not on the start
        targets = [(i * d, j * d, k - 1 + ((j - i) * d).bit_length()) for i, j in pair_order]
        for s in range(a0_max):  # s = a0 - 1
            for x, y, t in targets:
                if ((s + x) ^ (s + y)).bit_length() == t:
                    break
            else:
                violations.append((s + 1, d, tuple(range(s + 1, s + 1 + length * d, d))))
    return ProgressionReport(k, a0_max, d_max, a0_max * d_max, violations)


@dataclass
class RefinementReport:
    """Check that dropping the largest index never changes the class."""

    arity: int
    index_bound: int
    checked: int
    violations: list[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_refinement(n: int, index_bound: int) -> RefinementReport:
    """For every (n+1)-subset of {1..index_bound}: color with and without
    the largest member must agree.

    Subsets are walked in lexicographic order, grouped by their n-prefix:
    each prefix is colored once and each subset once.  As `color_tuple`
    is defined, the check is vacuous for n >= 2: the color reads the two
    smallest members, which dropping the largest never changes, so only
    color_tuple's own sort and dedupe are exercised.
    """
    if n < 2:
        raise ValueError("refinement starts at arity 2")
    if index_bound < n + 1:
        raise ValueError(f"index bound must be >= arity + 1 = {n + 1}")
    # C(index_bound, n + 1) from its smaller side; once both sides exceed 64
    # it is above C(130, 65) > 2^64, and 2^64 stands in as a lower bound
    side = min(n + 1, index_bound - n - 1)
    check_guard(math.comb(index_bound, side) if side <= 64 else 2**64, MAX_VERIFY_WORK,
                "refinement tuples")
    violations = []
    checked = 0
    for prefix in combinations(range(1, index_bound), n):
        color = color_tuple(prefix, n)
        lasts = range(prefix[-1] + 1, index_bound + 1)
        checked += len(lasts)
        for last in lasts:
            tup = prefix + (last,)
            if color_tuple(tup, n + 1) != color:
                violations.append(tup)
    return RefinementReport(n, index_bound, checked, violations)


def find_mono_ap(partition: Iterable[Iterable[int]], length: int) -> tuple[int, ...] | None:
    """First monochromatic arithmetic progression of the given length.

    The classes are scanned over the covered initial segment in
    (start, step) order; None means none exists within it, which at
    finite scale refutes nothing.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    classes = [frozenset(c) for c in partition]
    covered = frozenset().union(*classes) if classes else frozenset()
    if not covered:
        return None
    top = max(covered)
    for a0 in range(1, top + 1):
        owner = next((c for c in classes if a0 in c), None)
        if owner is None:
            continue
        if length == 1:
            return (a0,)
        for d in range(1, (top - a0) // max(1, length - 1) + 1):
            terms = range(a0, a0 + length * d, d)
            if all(t in owner for t in terms):
                return tuple(terms)
    return None


# --- bounded thickness ---------------------------------------------------------


@dataclass(frozen=True)
class ThickParams:
    """Bounds for the finitized thickness test."""

    m_max: int  # partitions up to this many parts
    k_max: int  # classes 1..k_max must all be met
    n: int = 2  # product arity

    def __post_init__(self):
        if self.m_max < 1 or self.k_max < 1 or self.n < 1:
            raise ValueError("thickness parameters must be >= 1")


@dataclass
class ThickResult:
    thick: bool
    params: ThickParams
    certificate: dict | None = None  # violating partition when not thick

    def __bool__(self) -> bool:
        return self.thick


def _partitions_bounded(items: tuple, max_parts: int):
    """Set partitions of items into at most max_parts nonempty blocks
    (blocks ordered by least element; deterministic)."""
    n = len(items)
    parts: list[list] = []

    def rec(i: int):
        if i == n:
            yield [tuple(p) for p in parts]
            return
        for p in parts:
            p.append(items[i])
            yield from rec(i + 1)
            p.pop()
        if len(parts) < max_parts:
            parts.append([items[i]])
            yield from rec(i + 1)
            parts.pop()

    if n == 0:
        yield []
        return
    yield from rec(0)


def _covers_all_classes(part: tuple[int, ...], n: int, k_max: int) -> tuple[bool, int | None]:
    """Does the part's arity-n product set meet every class 1..k_max?

    part holds prime indices, sorted.  The class of an n-subset is the
    pair color of its two smallest members, so it suffices to scan pairs
    that still leave n-2 larger elements in the part.  Returns (ok,
    a missing class index when not ok).
    """
    need = set(range(1, k_max + 1))
    size = len(part)
    if size < n:
        return False, min(need)
    for jb in range(1, size - n + 2):
        b = part[jb]
        for ja in range(jb):
            c = color_pair(part[ja], b)
            need.discard(c)
            if not need:
                return True, None
    return False, min(need)


def is_thick_bounded(
    A: Iterable[int],
    params: ThickParams,
    *,
    max_set: int | None = None,
    max_parts: int | None = None,
) -> ThickResult:
    """Bounded thickness of a prime set, by exhaustive partition search.

    True iff every partition of A into at most m_max parts has a part
    whose arity-n coprime products meet every class k <= k_max.  This
    UNDER-approximates the unbounded notion: claims hold only at the
    given (m_max, k_max).  When false, the certificate holds a violating
    partition and one missing class per part.
    """
    primes = sorted(set(A))
    if params.n < 2:
        raise ValueError("product arity must be >= 2")
    check_guard(len(primes), MAX_THICK_SET, "thickness set size", cap=max_set)
    check_guard(params.m_max, MAX_THICK_PARTS, "thickness partition size", cap=max_parts)
    if not primes:
        return ThickResult(False, params, {"partition": [], "missing": []})
    index_of = {p: prime_index(p) for p in primes}
    indices = tuple(sorted(index_of[p] for p in primes))
    back = {i: p for p, i in index_of.items()}
    for partition in _partitions_bounded(indices, params.m_max):
        missing: list[int] = []
        for part in partition:
            ok, miss = _covers_all_classes(tuple(sorted(part)), params.n, params.k_max)
            if ok:
                break
            missing.append(miss)
        else:
            return ThickResult(
                False,
                params,
                {
                    "partition": [sorted(back[i] for i in part) for part in partition],
                    "missing": missing,
                },
            )
    return ThickResult(True, params)


@dataclass
class ThickLemmasReport:
    """Randomized harness over the three closure properties of bounded
    thickness (supersets stay thick; unions of non-thick sets stay
    non-thick with added part budgets; non-thickness climbs arity)."""

    samples: int
    seed: int
    monotone_hits: int = 0
    union_hits: int = 0
    arity_hits: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_thick_lemmas(samples: int = 100, seed: int = 0, pool: int = 10) -> ThickLemmasReport:
    """Random small instances for each property; every instance must pass.

    Vacuous instances (premise not met) count as passes but not as hits;
    generation is biased so a healthy fraction of premises fire.
    """
    rng = random.Random(seed)
    primes = first_primes(pool)
    report = ThickLemmasReport(samples=samples, seed=seed)

    def rand_set(lo, hi):
        size = rng.randrange(lo, hi + 1)
        return frozenset(rng.sample(primes, size))

    for _ in range(samples):
        # (i) monotonicity: thick(A) and A <= B forces thick(B)
        B = rand_set(2, 8)
        A = frozenset(x for x in B if rng.random() < 0.7) or B
        params = ThickParams(m_max=rng.randrange(1, 3), k_max=rng.randrange(1, 3),
                             n=rng.choice((2, 2, 3)))
        if is_thick_bounded(A, params).thick:
            report.monotone_hits += 1
            if not is_thick_bounded(B, params).thick:
                report.failures.append(
                    {"property": "monotone", "A": sorted(A), "B": sorted(B),
                     "params": params.__dict__}
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
            if is_thick_bounded(A | B, pu, max_parts=m1 + m2).thick:
                report.failures.append(
                    {"property": "union", "A": sorted(A), "B": sorted(B),
                     "m1": m1, "m2": m2, "k_max": k_max}
                )

        # (iii) arity step: a witness at arity n works at arity n+1
        A = rand_set(2, 7)
        pn = ThickParams(m_max=rng.randrange(1, 3), k_max=rng.randrange(1, 3), n=2)
        if not is_thick_bounded(A, pn).thick:
            report.arity_hits += 1
            pn1 = ThickParams(m_max=pn.m_max, k_max=pn.k_max, n=3)
            if is_thick_bounded(A, pn1).thick:
                report.failures.append(
                    {"property": "arity", "A": sorted(A), "params": pn.__dict__}
                )
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
