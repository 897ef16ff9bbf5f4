"""Constructive auxiliaries: eventually constant prime functions and
their index maps, chain-based pair sets, pseudointersections with slack,
and a greedy thickness-preserving family extender.

The greedy extender is a finite-stage analog of a transfinite recursion:
for each candidate set it keeps the candidate if every intersection with
the current family stays bounded-thick, otherwise tries the complement,
otherwise logs a dead end.  At finite scale the either-or dichotomy is
not guaranteed, so dead ends are first-class outcomes, not errors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .arith import NatSet, first_primes, is_prime, primes_upto
from .coloring import ThickParams, is_thick_bounded

__all__ = [
    "ECFunction",
    "ChainOfSets",
    "ec_enumerate",
    "g_value",
    "verify_g_disjoint",
    "GDisjointReport",
    "build_Y",
    "pseudo_check",
    "greedy_thick_extend",
]


class ECFunction:
    """Eventually constant function into the primes.

    Value at n is prefix[n-1] for n <= len(prefix) and tail beyond;
    stored in minimal form (the prefix never ends with the tail value).
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: Iterable[int], tail: int):
        prefix = tuple(prefix)
        for v in (*prefix, tail):
            if not is_prime(v):
                raise ValueError(f"values must be prime, got {v}")
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        self.prefix = prefix
        self.tail = tail

    @classmethod
    def _trusted(cls, prefix: tuple[int, ...], tail: int) -> "ECFunction":
        """Internal: prime values already in minimal form, taken unchecked."""
        f = object.__new__(cls)
        f.prefix = prefix
        f.tail = tail
        return f

    def __eq__(self, other) -> bool:
        return (isinstance(other, ECFunction)
                and (self.prefix, self.tail) == (other.prefix, other.tail))

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("arguments start at 1")
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail

    @property
    def max_value(self) -> int:
        return max((*self.prefix, self.tail))

    def bound_ok(self, index_prime: int) -> bool:
        """The index constraint: values <= i at i in {2,3}, < i above."""
        if index_prime in (2, 3):
            return self.max_value <= index_prime
        return self.max_value < index_prime

    def __repr__(self) -> str:
        if not self.prefix:
            return f"ECFunction(const {self.tail})"
        return f"ECFunction({list(self.prefix)} then {self.tail})"


def ec_enumerate(count: int) -> dict[int, ECFunction]:
    """Assign distinct eventually constant functions to the first `count`
    primes: each index prime, in increasing order, takes the first unused
    function in canonical order (prefix length, then prefix
    lexicographically, then tail) that satisfies its bound.

    That rule has a closed form, returned directly.  Constants come first,
    so 2 and 3 take the constants 2 and 3, and from 7 on p_k takes the
    constant p_(k-1) that its bound first allows.  5 alone finds both its
    constants taken and gets the first non-constant function, "[2] then 3".
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    primes = first_primes(count)
    values = [((), 2), ((), 3), ((2,), 3)] + [((), q) for q in primes[2:-1]]
    return {i: ECFunction._trusted(*v) for i, v in zip(primes, values)}


def g_value(asg: Mapping[int, ECFunction], i: int, n: int) -> int:
    """The index map at stage n: the index prime times its function value.

    For index primes above 3 the bound makes the two factors distinct, so
    the result determines (i, value) unambiguously.
    """
    if i not in asg:
        raise ValueError(f"unknown index prime {i}")
    return i * asg[i](n)


class GDisjointReport:
    __slots__ = ("diff_indices", "collisions")

    def __init__(self, diff_indices: tuple[int, ...], collisions: list[tuple[int, int, int]]):
        self.diff_indices = diff_indices  # where the assigned functions differ
        self.collisions = collisions  # (index_m, index_n, shared value)

    @property
    def ok(self) -> bool:
        return not self.collisions


def verify_g_disjoint(asg: Mapping[int, ECFunction], m: int, n: int) -> GDisjointReport:
    """Check the stage-m and stage-n index maps have disjoint images over
    the indices whose functions distinguish m from n."""
    if m == n:
        raise ValueError("stages must differ")
    diff = tuple(sorted(i for i, f in asg.items() if f(m) != f(n)))
    gm = {g_value(asg, i, m): i for i in diff}
    gn = {g_value(asg, i, n): i for i in diff}
    collisions = [(gm[v], gn[v], v) for v in sorted(gm.keys() & gn.keys())]
    return GDisjointReport(diff, collisions)


class ChainOfSets:
    """Descending chain X_1 >= X_2 >= ... of finite prime sets.

    Indexing clamps: positions beyond the last listed set return the
    last one (a finite chain read as eventually constant).
    """

    def __init__(self, sets: Iterable[Iterable[int]]):
        self.sets: tuple[frozenset, ...] = tuple(frozenset(s) for s in sets)
        if not self.sets:
            raise ValueError("chain needs at least one set")
        for s in self.sets:
            for p in s:
                if not is_prime(p):
                    raise ValueError(f"chain elements must be prime sets, got {p}")
        for a, b in zip(self.sets, self.sets[1:]):
            if not b <= a:
                raise ValueError("chain must be descending")

    def at(self, j: int) -> frozenset:
        if j < 1:
            raise ValueError("chain positions start at 1")
        return self.sets[min(j, len(self.sets)) - 1]

    def __len__(self) -> int:
        return len(self.sets)


def build_Y(chain: ChainOfSets, W: int) -> NatSet:
    """Windowed pair set of a chain: products m*n of distinct primes with
    m > n and m in the chain set at position n."""
    if W < 1:
        raise ValueError("window must be >= 1")
    primes = primes_upto(W // 2)
    out = set()
    for idx, n in enumerate(primes):
        level = chain.at(n)
        for m in primes[idx + 1 :]:
            if m * n > W:
                break
            if m in level:
                out.add(m * n)
    return NatSet._trusted(out, W)


def pseudo_check(B: Iterable[int], chain: ChainOfSets, slack: int) -> bool:
    """Finitized pseudointersection: B sticks out of every chain set by at
    most `slack` elements."""
    if slack < 0:
        raise ValueError("slack must be >= 0")
    Bs = frozenset(B)
    return all(len(Bs - X) <= slack for X in chain.sets)


def greedy_thick_extend(
    seeds: Sequence[Iterable[int]],
    candidates: Sequence[Iterable[int]],
    params: ThickParams,
) -> tuple[list[frozenset], list[dict]]:
    """Grow a family of prime sets, candidate by candidate, keeping all
    pairwise intersections bounded-thick.

    Each candidate is kept as-is when every intersection with the current
    family passes the thickness test; otherwise its complement (within
    the seed universe) gets the same chance; otherwise the candidate is
    logged as a dead end and skipped.  Returns the family and the
    decision log.
    """
    family = [frozenset(s) for s in seeds]
    if not family:
        raise ValueError("need at least one seed")
    universe = frozenset().union(*family)

    def thick(S):
        return is_thick_bounded(S, params).thick

    for a, b in combinations_with_replacement(family, 2):
        if not thick(a & b):
            raise ValueError(f"seed intersection {sorted(a & b)} is not thick at {params}")

    log: list[dict] = []
    for pos, raw in enumerate(candidates):
        S = frozenset(raw) & universe
        for side, name in ((S, "candidate"), (universe - S, "complement")):
            if all(thick(side & a) for a in family):
                family.append(side)
                log.append({"index": pos, "kept": name, "set": sorted(side)})
                break
        else:
            log.append({"index": pos, "kept": None, "set": sorted(S)})
    return family, log
