"""Bounded-universe filter model for divisibility.

A filter over the universe {1..bound} is represented by its core, the
intersection of a finite generating family: membership of a set is then
exactly containment of the core, so every notion here is decidable.
Singleton cores are the principal ultrafilters and serve as ground
truth; for general cores the upward and downward divisibility tests are
exposed separately (they provably agree in the principal case and the
library asserts nothing beyond that).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .arith import NatSet, quotient_set

__all__ = [
    "FinFilter",
    "WindowOverflowError",
    "member",
    "divides_up",
    "divides_down",
    "image_filter",
    "product_member",
    "product_principal",
    "quotient_filter_view",
]


class WindowOverflowError(ValueError):
    """A result escaped the finite universe instead of being truncated."""


class FinFilter:
    """Filter over {1..bound} given by a nonempty core set."""

    __slots__ = ("bound", "core")

    def __init__(self, bound: int, core: Iterable[int]):
        core = frozenset(core)
        if bound < 1:
            raise ValueError("universe bound must be >= 1")
        if not core:
            raise ValueError("filter core must be nonempty")
        for x in core:
            if not isinstance(x, int) or not 1 <= x <= bound:
                raise ValueError(f"core element {x!r} outside universe 1..{bound}")
        self.bound = bound
        self.core = core

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinFilter)
                and (self.bound, self.core) == (other.bound, other.core))

    def __hash__(self) -> int:
        return hash((self.bound, self.core))

    @classmethod
    def principal(cls, n: int, bound: int) -> "FinFilter":
        return cls(bound, frozenset((n,)))

    @property
    def is_ultra(self) -> bool:
        return len(self.core) == 1


def _same_universe(x: FinFilter, y: FinFilter) -> None:
    if x.bound != y.bound:
        raise ValueError(f"universe mismatch: {x.bound} vs {y.bound}")


def _operand(A: Iterable[int], bound: int) -> set | frozenset:
    """A set operand over {1..bound}, checked once where it enters; a NatSet
    windowed inside the universe is trusted as it is, with no O(|A|) scan."""
    if isinstance(A, NatSet) and A.window is not None and A.window <= bound:
        return A
    elems = A if isinstance(A, (set, frozenset)) else frozenset(A)
    if elems and (min(elems) < 1 or max(elems) > bound):
        raise ValueError("set escapes the universe")
    return elems


def member(f: FinFilter, A: Iterable[int]) -> bool:
    """A belongs to the filter iff A contains the core."""
    return f.core <= _operand(A, f.bound)


def divides_up(x: FinFilter, y: FinFilter) -> bool:
    """Upward-closure divisibility: core_y inside the multiples of core_x.

    Equivalent to up_closure(core_x, bound) >= core_y without
    materializing the closure: every core_y element has a divisor in
    core_x.
    """
    _same_universe(x, y)
    xc = x.core
    if len(xc) == 1:
        (a,) = xc
        for b in y.core:
            if b % a:
                return False
        return True
    return all(any(b % a == 0 for a in xc) for b in y.core)


def divides_down(x: FinFilter, y: FinFilter) -> bool:
    """Downward-closure divisibility: core_x inside the divisors of core_y."""
    _same_universe(x, y)
    yc = y.core
    if len(yc) == 1:
        (b,) = yc
        for a in x.core:
            if b % a:
                return False
        return True
    return all(any(b % a == 0 for b in yc) for a in x.core)


def image_filter(f: Callable[[int], int], x: FinFilter) -> FinFilter:
    """Push the filter forward along f: the image filter's core is f[core]."""
    img = frozenset(f(a) for a in x.core)
    for v in img:
        if not isinstance(v, int) or not 1 <= v <= x.bound:
            raise WindowOverflowError(f"image value {v!r} escapes universe 1..{x.bound}")
    return FinFilter(x.bound, img)


def product_member(A: Iterable[int], x: FinFilter, y: FinFilter) -> bool:
    """Membership of A in the filter product of x and y.

    A is in the product iff {n : A/n contains core_y} contains core_x;
    evaluated pointwise (b*n in A for all b in core_y, n in core_x)
    rather than by materializing quotient sets.
    """
    _same_universe(x, y)
    elems = _operand(A, x.bound)
    yc = y.core
    for n in x.core:
        for b in yc:
            if b * n not in elems:
                return False
    return True


def product_principal(m: int, n: int, W: int) -> int:
    """Product of two principal ultrafilters inside the window: just m*n.

    With cores {m} and {n}, product_member(A, x, y) reduces to m*n in A,
    so the product is the principal filter at m*n; it must fit in W.
    """
    if m < 1 or n < 1:
        raise ValueError("principal indices must be >= 1")
    if m * n > W:
        raise WindowOverflowError(f"{m}*{n} overflows the window {W}")
    return m * n


def quotient_filter_view(A: Iterable[int], x: FinFilter, y: FinFilter) -> NatSet:
    """The inner set of the product formula: {n in universe : A/n >= core_y}.

    Exposed for inspection; product_member(A, x, y) iff this contains
    core_x.
    """
    _same_universe(x, y)
    elems = NatSet(A, window=x.bound)
    hits = {n for n in range(1, x.bound + 1) if member(y, quotient_set(elems, n))}
    return NatSet._trusted(hits, x.bound)
