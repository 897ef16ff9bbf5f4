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

from .arith import NatSet

__all__ = [
    "FinFilter",
    "WindowOverflowError",
    "divides_up",
    "divides_down",
    "image_filter",
    "product_member",
    "product_principal",
]


class WindowOverflowError(ValueError):
    """A result escaped the finite universe instead of being truncated."""


class FinFilter:
    """Filter over {1..bound} given by a nonempty core set; gen is the
    element of a singleton core (a principal ultrafilter), else None."""

    __slots__ = ("bound", "core", "gen")

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
        self.gen = next(iter(core)) if len(core) == 1 else None

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
        return self.gen is not None


def _mismatch(x: FinFilter, y: FinFilter) -> ValueError:
    return ValueError(f"universe mismatch: {x.bound} vs {y.bound}")


def _operand(A: Iterable[int], bound: int) -> set | frozenset:
    """A set operand over {1..bound}, checked once where it enters; a NatSet
    windowed inside the universe is trusted as it is, with no O(|A|) scan."""
    if isinstance(A, NatSet) and A.window is not None and A.window <= bound:
        return A
    elems = A if isinstance(A, (set, frozenset)) else frozenset(A)
    if elems and (min(elems) < 1 or max(elems) > bound):
        raise ValueError("set escapes the universe")
    return elems


def divides_up(x: FinFilter, y: FinFilter) -> bool:
    """Upward-closure divisibility: core_y inside the multiples of core_x.

    Equivalent to up_closure(core_x, bound) >= core_y without
    materializing the closure: every core_y element has a divisor in
    core_x. A principal pair {m}, {n} reduces to m | n.
    """
    if x.bound != y.bound:
        raise _mismatch(x, y)
    m, n = x.gen, y.gen
    if m is None:
        return all(any(b % a == 0 for a in x.core) for b in y.core)
    if n is not None:
        return not n % m
    for b in y.core:
        if b % m:
            return False
    return True


def divides_down(x: FinFilter, y: FinFilter) -> bool:
    """Downward-closure divisibility: core_x inside the divisors of core_y.

    A principal pair {m}, {n} reduces to m | n.
    """
    if x.bound != y.bound:
        raise _mismatch(x, y)
    m, n = x.gen, y.gen
    if n is None:
        return all(any(b % a == 0 for b in y.core) for a in x.core)
    if m is not None:
        return not n % m
    for a in x.core:
        if n % a:
            return False
    return True


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
    evaluated pointwise (b*a in A for all b in core_y, a in core_x)
    rather than by materializing quotient sets; for principal x and y this
    is one lookup, m*n in A.
    """
    if x.bound != y.bound:
        raise _mismatch(x, y)
    elems = _operand(A, x.bound)
    m, n = x.gen, y.gen
    if m is not None and n is not None:
        return m * n in elems
    yc = y.core
    for a in x.core:
        for b in yc:
            if b * a not in elems:
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

