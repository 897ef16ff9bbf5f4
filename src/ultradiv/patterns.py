"""Factorization-pattern algebra.

A pattern records, per prime label, how many slots of each exponent a
number (or a family of numbers) carries: entry ((label, k) -> n) means
"n distinct primes tagged `label`, each raised to the k-th power".
Labels are concrete primes for patterns read off numbers, and opaque
symbols for abstract patterns.  On top of the algebra (sigma, addition,
the tail-sum domination order) sit three constructive procedures:

* generate_falpha: materialize every number matching a pattern once the
  labels are bound to finite prime pools;
* witness_set: for a non-dominated ordered pair, build a generator set
  certifying the separation (every alpha-number has a generator divisor,
  no beta-number does);
* extend_divisible: lift a generated number of a smaller pattern to a
  divisible generated number of a dominating pattern.
"""

from __future__ import annotations

import math
import re
from itertools import combinations, zip_longest
from typing import Iterable, Mapping, Union

from . import arith
from .arith import NatSet, factorize, up_closure
from .guards import check_guard

__all__ = [
    "Label",
    "Pattern",
    "InsufficientPrimesError",
    "NoWitnessError",
    "WitnessCertificate",
    "sigma",
    "restrict",
    "dominates",
    "pattern_leq",
    "pattern_add",
    "pattern_of",
    "shape_class",
    "shape_name",
    "check_assignment",
    "generate_falpha",
    "witness_set",
    "extend_divisible",
    "parse_pattern",
    "parse_assignment",
]

Label = Union[int, str]

GENERATE_CAP = 10**6  # refuse to materialize pattern sets larger than this


class InsufficientPrimesError(ValueError):
    """An assignment pool is too small to fill a pattern's slots."""


class NoWitnessError(ValueError):
    """witness_set called on a dominated pair: no separating set exists."""


def _label_key(label: Label):
    # concrete primes sort before symbols; deterministic total order
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


class Pattern:
    """Finitely supported map (label, exponent) -> multiplicity (>= 1).

    Stored per label, labels in canonical order, as the multiplicity
    sequence of exponents 1, 2, ... with no trailing zeros: the
    restrict() value.
    """

    __slots__ = ("_seqs",)

    def __init__(self, triples: Iterable[tuple[Label, int, int]] = ()):
        acc: dict[Label, dict[int, int]] = {}
        for label, k, n in triples:
            if not isinstance(label, (int, str)):
                raise TypeError(f"label must be int or str, got {label!r}")
            if label not in acc:
                if isinstance(label, int) and not arith.is_prime(label):
                    raise ValueError(f"concrete labels must be prime, got {label}")
                acc[label] = {}
            if k < 1:
                raise ValueError("exponent must be >= 1")
            if n < 0:
                raise ValueError("multiplicity must be >= 0")
            if n:
                acc[label][k] = acc[label].get(k, 0) + n
        self._seqs = {
            label: tuple(per_k.get(k, 0) for k in range(1, max(per_k) + 1))
            for label, per_k in sorted(acc.items(), key=lambda kv: _label_key(kv[0]))
            if per_k
        }

    @classmethod
    def _trusted(cls, seqs: dict[Label, tuple[int, ...]]) -> Pattern:
        """Wrap label -> sequence data already in the stored form: labels
        valid and in canonical order, sequences nonempty without trailing
        zeros.  For patterns derived from a factorization or from other
        patterns, which are valid by construction."""
        pat = object.__new__(cls)
        pat._seqs = seqs
        return pat

    @property
    def entries(self) -> dict[tuple[Label, int], int]:
        return {(label, k): n for label, seq in self._seqs.items()
                for k, n in enumerate(seq, 1) if n}

    @property
    def support(self) -> tuple[Label, ...]:
        return tuple(self._seqs)

    def slots(self, label: Label) -> int:
        """Total number of distinct primes the pattern needs for `label`."""
        return sum(self._seqs.get(label, ()))

    def __bool__(self) -> bool:
        return bool(self._seqs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Pattern) and self._seqs == other._seqs

    def __hash__(self) -> int:
        return hash(tuple(self._seqs.items()))

    def __repr__(self) -> str:
        return f"Pattern({self.to_text()!r})"

    def to_text(self) -> str:
        """Round-trippable mini-grammar form: (label,k)xn,(label,k),..."""
        bits = [f"({label},{k})" if n == 1 else f"({label},{k})x{n}"
                for (label, k), n in self.entries.items()]
        return ",".join(bits) or "{}"


def sigma(alpha: Pattern) -> int:
    """Total level of a pattern: sum of exponent * multiplicity."""
    return sum(k * n for seq in alpha._seqs.values() for k, n in enumerate(seq, 1))


def restrict(alpha: Pattern, label: Label) -> tuple[int, ...]:
    """Multiplicity sequence of label^1, label^2, ... (trailing zeros cut)."""
    return alpha._seqs.get(label, ())


def _slot_exponents(seq: tuple[int, ...]) -> list[int]:
    """The exponent of every slot in a multiplicity sequence, largest first."""
    return [k for k in range(len(seq), 0, -1) for _ in range(seq[k - 1])]


def _least_excess(y: Iterable[int], x: Iterable[int]) -> int | None:
    """Least threshold m whose tail sum x_m + x_(m+1) + ... exceeds y's,
    or None when there is none."""
    xs, ys = tuple(x), tuple(y)
    for m in range(1, max(len(xs), len(ys)) + 1):
        if sum(xs[m - 1 :]) > sum(ys[m - 1 :]):
            return m
    return None


def dominates(y: Iterable[int], x: Iterable[int]) -> bool:
    """Tail-sum comparison: every tail sum of x is <= the tail sum of y."""
    return _least_excess(y, x) is None


def pattern_leq(alpha: Pattern, beta: Pattern) -> bool:
    """Order on patterns: beta's sequence dominates alpha's at every label."""
    labels = alpha._seqs.keys() | beta._seqs.keys()
    return all(dominates(restrict(beta, p), restrict(alpha, p)) for p in labels)


def pattern_add(alpha: Pattern, beta: Pattern) -> Pattern:
    """Entrywise sum of multiplicities."""
    return Pattern._trusted({
        label: tuple(map(sum, zip_longest(restrict(alpha, label), restrict(beta, label),
                                          fillvalue=0)))
        for label in sorted(alpha._seqs.keys() | beta._seqs.keys(), key=_label_key)
    })


def pattern_of(n: int) -> Pattern:
    """Pattern of a concrete number: one slot per prime-power in it."""
    return Pattern._trusted({p: (0,) * (e - 1) + (1,) for p, e in sorted(factorize(n).items())})


def shape_class(n: int) -> tuple[int, ...]:
    """Exponent multiset of n's factorization, sorted descending.

    Identifies n's class within its level (all numbers on one level split
    by shape); undefined for n = 1.
    """
    if n < 2:
        raise ValueError("shape_class is defined for n >= 2")
    return tuple(sorted(factorize(n).values(), reverse=True))


def shape_name(shape: Iterable[int]) -> str:
    """Render an exponent multiset as a product of prime-power classes.

    (2, 1, 1) -> "P^2 P^(2)": one squared prime times two distinct primes.
    """
    counts: dict[int, int] = {}
    for k in shape:
        counts[k] = counts.get(k, 0) + 1
    bits = []
    for k in sorted(counts, reverse=True):
        c = counts[k]
        if k == 1:
            bits.append("P" if c == 1 else f"P^({c})")
        else:
            bits.append(f"P^{k}" if c == 1 else f"(P^{k})^({c})")
    return " ".join(bits) if bits else "1"


# --- assignments and generation ----------------------------------------------


def check_assignment(asg: Mapping[Label, Iterable[int]], *patterns: Pattern) -> dict[Label, tuple[int, ...]]:
    """Validate an assignment label -> prime pool; return sorted pools.

    Pools must be pairwise disjoint sets of primes and must cover the
    support of every given pattern.
    """
    pools: dict[Label, tuple[int, ...]] = {}
    seen: set[int] = set()
    for label, raw in asg.items():
        pool = tuple(sorted(set(raw)))
        for p in pool:
            if not arith.is_prime(p):
                raise ValueError(f"assignment for {label!r} contains non-prime {p}")
        if seen & set(pool):
            raise ValueError("assignment pools must be pairwise disjoint")
        seen.update(pool)
        pools[label] = pool
    for pat in patterns:
        for label in pat.support:
            if label not in pools:
                raise ValueError(f"assignment missing label {label!r}")
    return pools


def _label_factors(pool: tuple[int, ...], groups: list[tuple[int, int]]) -> list[int]:
    """All products for one label: groups of (exponent, multiplicity) slots
    filled with distinct primes from the pool, globally distinct within
    the label."""
    out: set[int] = set()

    def rec(avail: tuple[int, ...], gi: int, acc: int) -> None:
        if gi == len(groups):
            out.add(acc)
            return
        k, n = groups[gi]
        for chosen in combinations(avail, n):
            rest = tuple(a for a in avail if a not in chosen)
            prod = acc
            for p in chosen:
                prod *= p**k
            rec(rest, gi + 1, prod)

    rec(pool, 0, 1)
    return sorted(out)


def _estimated_size(alpha: Pattern, pools: Mapping[Label, tuple[int, ...]]) -> int:
    total = 1
    for label in alpha.support:
        avail = len(pools[label])
        for n in restrict(alpha, label):
            total *= math.comb(avail, n)
            avail -= n
    return total


def generate_falpha(
    alpha: Pattern,
    asg: Mapping[Label, Iterable[int]],
    *,
    allow_insufficient: bool = False,
) -> NatSet:
    """Materialize all numbers matching `alpha` under a prime assignment.

    Each label's slots are filled with distinct primes from that label's
    pool; pools are disjoint so cross-label primes never collide.  A pool
    smaller than a label's slot count raises InsufficientPrimesError
    unless allow_insufficient is set, in which case the result is empty.
    """
    return _generate(alpha, check_assignment(asg, alpha), allow_insufficient)


def _generate(alpha: Pattern, pools: Mapping, allow_insufficient=False) -> NatSet:
    """generate_falpha on pools already checked by check_assignment."""
    for label in alpha.support:
        if len(pools[label]) < alpha.slots(label):
            if allow_insufficient:
                return NatSet()
            raise InsufficientPrimesError(
                f"label {label!r} needs {alpha.slots(label)} distinct primes, "
                f"pool has {len(pools[label])}"
            )
    check_guard(_estimated_size(alpha, pools), GENERATE_CAP, "generated set size")
    products = [1]
    for label in alpha.support:
        groups = [(k, n) for k, n in enumerate(restrict(alpha, label), 1) if n]
        factors = _label_factors(pools[label], groups)
        products = [x * f for x in products for f in factors]
    return NatSet._trusted(products)


# --- witness construction ----------------------------------------------------


class WitnessCertificate:
    """Separating-set certificate for a non-dominated ordered pair.

    generators G: every alpha-generated number has a divisor in G
    (covers_alpha) while no beta-generated number does (excludes_beta).
    """

    __slots__ = ("label", "threshold", "tail_alpha", "tail_beta", "generators",
                 "alpha_set", "beta_set", "covers_alpha", "excludes_beta", "upward")

    def __init__(self, label: Label, threshold: int, tail_alpha: int, tail_beta: int,
                 generators: NatSet, alpha_set: NatSet, beta_set: NatSet,
                 covers_alpha: bool, excludes_beta: bool, upward: NatSet | None = None):
        self.label = label
        self.threshold = threshold
        self.tail_alpha = tail_alpha
        self.tail_beta = tail_beta
        self.generators = generators
        self.alpha_set = alpha_set
        self.beta_set = beta_set
        self.covers_alpha = covers_alpha
        self.excludes_beta = excludes_beta
        self.upward = upward

    @property
    def ok(self) -> bool:
        return self.covers_alpha and self.excludes_beta

    def summary(self) -> dict:
        return {
            "label": str(self.label),
            "threshold": self.threshold,
            "tail_alpha": self.tail_alpha,
            "tail_beta": self.tail_beta,
            "generators": sorted(self.generators),
            "covers_alpha": self.covers_alpha,
            "excludes_beta": self.excludes_beta,
        }


def witness_set(
    alpha: Pattern,
    beta: Pattern,
    asg: Mapping[Label, Iterable[int]],
    window: int | None = None,
) -> WitnessCertificate:
    """Build the separating generator set for a pair with not(alpha <= beta).

    Picks the least violating threshold m (ties broken by label order),
    takes the generators made of alpha's slots with exponents >= m at the
    violating label, and checks both certificate properties by direct
    divisibility over the generated sets.
    """
    pools = check_assignment(asg, alpha, beta)
    found = []
    for label in set(alpha.support) | set(beta.support):
        m = _least_excess(restrict(beta, label), restrict(alpha, label))
        if m is not None:
            found.append((m, _label_key(label), label))
    if not found:
        raise NoWitnessError("no witness exists: alpha <= beta")
    m, _key, label = min(found)

    xs, ys = restrict(alpha, label), restrict(beta, label)
    u = sum(xs[m - 1 :])
    v = sum(ys[m - 1 :])
    tail = Pattern._trusted({label: (0,) * (m - 1) + xs[m - 1 :]})
    gens = _generate(tail, pools, allow_insufficient=True)

    s_alpha = _generate(alpha, pools, allow_insufficient=True)
    s_beta = _generate(beta, pools, allow_insufficient=True)
    covers = all(any(x % g == 0 for g in gens) for x in s_alpha)
    excludes = not any(y % g == 0 for y in s_beta for g in gens)
    upward = up_closure(gens, window) if window is not None else None
    return WitnessCertificate(
        label=label, threshold=m, tail_alpha=u, tail_beta=v,
        generators=gens, alpha_set=s_alpha, beta_set=s_beta,
        covers_alpha=covers, excludes_beta=excludes, upward=upward,
    )


def extend_divisible(
    l: int,
    alpha: Pattern,
    beta: Pattern,
    asg: Mapping[Label, Iterable[int]],
) -> int:
    """Lift l, generated by alpha, to a multiple generated by beta.

    Requires alpha <= beta.  Per label, l's primes keep their identity but
    are raised to beta's exponents (largest to largest; domination makes
    every raise non-decreasing) and the remaining slots are filled with
    the smallest unused primes of the label's pool.
    """
    if not pattern_leq(alpha, beta):
        raise ValueError("extension requires alpha <= beta")
    pools = check_assignment(asg, alpha, beta)

    # recover l's per-label slot structure and check it matches alpha
    owner: dict[int, Label] = {p: lab for lab, pool in pools.items() for p in pool}
    per_label: dict[Label, list[tuple[int, int]]] = {lab: [] for lab in pools}
    for p, e in factorize(l).items():
        if p not in owner:
            raise ValueError(f"{l} uses prime {p} outside the assignment")
        per_label[owner[p]].append((p, e))
    for label in sorted(set(alpha.support) | {lab for lab, ps in per_label.items() if ps},
                        key=_label_key):
        have = sorted((e for _p, e in per_label.get(label, [])), reverse=True)
        if have != _slot_exponents(restrict(alpha, label)):
            raise ValueError(f"{l} is not generated by the first pattern at {label!r}")

    result = 1
    for label in beta.support:
        targets = _slot_exponents(restrict(beta, label))
        current = sorted(per_label.get(label, []), key=lambda pe: (-pe[1], pe[0]))
        used = {p for p, _e in current}
        fresh = [p for p in pools[label] if p not in used]
        need = len(targets) - len(current)
        if need > len(fresh):
            raise InsufficientPrimesError(
                f"label {label!r}: need {need} fresh primes, pool has {len(fresh)}"
            )
        for p, k in zip([p for p, _e in current] + fresh, targets):
            result *= p**k
    return result


# --- text forms ---------------------------------------------------------------

_ENTRY_RE = re.compile(
    r"\s*\(\s*([A-Za-z_][A-Za-z0-9_]*|\d+)\s*,\s*(\d+)\s*\)\s*(?:x\s*(\d+))?\s*"
)


def parse_pattern(text: str) -> Pattern:
    """Parse "(label,exp)xmult,(label,exp),..."; "{}" or "" is empty."""
    text = text.strip()
    if text in ("", "{}", "-"):
        return Pattern()
    triples = []
    pos = 0
    while pos < len(text):
        m = _ENTRY_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad pattern syntax at {text[pos:]!r}")
        raw_label, k, n = m.groups()
        label: Label = int(raw_label) if raw_label.isdigit() else raw_label
        triples.append((label, int(k), int(n) if n else 1))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError(f"bad pattern syntax at {text[pos:]!r}")
            pos += 1
    return Pattern(triples)


def parse_assignment(text: str) -> dict[Label, tuple[int, ...]]:
    """Parse "label:p1,p2,...;label:p1,..." into an assignment map."""
    out: dict[Label, tuple[int, ...]] = {}
    for group in filter(None, (g.strip() for g in text.split(";"))):
        if ":" not in group:
            raise ValueError(f"bad assignment group {group!r}")
        raw_label, raw_primes = group.split(":", 1)
        raw_label = raw_label.strip()
        label: Label = int(raw_label) if raw_label.isdigit() else raw_label
        primes = tuple(int(p) for p in raw_primes.split(",") if p.strip())
        if not primes:
            raise ValueError(f"empty prime pool for label {raw_label!r}")
        out[label] = primes
    return out
