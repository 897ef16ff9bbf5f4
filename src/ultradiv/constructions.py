"""Constructive auxiliaries: eventually constant prime functions and
their index maps, and a greedy thickness-preserving family extender.

The greedy extender is a finite-stage analog of a transfinite recursion:
for each candidate set it keeps the candidate if every intersection with
the current family stays bounded-thick, otherwise tries the complement,
otherwise logs a dead end.  At finite scale the either-or dichotomy is
not guaranteed, so dead ends are first-class outcomes, not errors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .arith import first_primes, is_prime
from .coloring import ThickParams, is_thick_bounded

__all__ = [
    "ECFunction",
    "ec_enumerate",
    "g_value",
    "verify_g_disjoint",
    "GDisjointReport",
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

    def __repr__(self) -> str:
        if not self.prefix:
            return f"ECFunction(const {self.tail})"
        return f"ECFunction({list(self.prefix)} then {self.tail})"


def ec_enumerate(count: int) -> dict[int, ECFunction]:
    """Assign distinct eventually constant functions to the first `count`
    primes: each index prime, in increasing order, takes the first unused
    function in canonical order (prefix length, then prefix
    lexicographically, then tail) that satisfies its bound: every value is
    at most i for i in {2, 3}, and below i from 5 on.

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
