import math
import random
from itertools import combinations

import pytest

from ultradiv import coloring
from ultradiv.arith import coprime_power, first_primes, prime_index
from ultradiv.coloring import (
    ThickParams,
    block_interval,
    check_thick_lemmas,
    class_of,
    color_pair,
    color_tuple,
    coloring_from_set,
    find_monochromatic,
    is_thick_bounded,
    verify_progr,
    verify_refinement,
)
from ultradiv.guards import GuardExceeded


def color_oracle(a, b):
    """Literal block-tree definition, for cross-checking the arithmetic."""
    if a > b:
        a, b = b, a
    n = 1
    while (a - 1) // 2**n != (b - 1) // 2**n:
        n += 1
    i = (a - 1) // 2**n + 1
    assert a in block_interval(n - 1, 2 * i - 1) and b in block_interval(n - 1, 2 * i)
    j = 0
    while 2 ** (j + 1) <= b - a:
        j += 1
    return n - j


def test_blocks_nest():
    for n in (1, 2, 3, 4):
        for i in (1, 2, 3, 5):
            left = set(block_interval(n - 1, 2 * i - 1))
            right = set(block_interval(n - 1, 2 * i))
            assert set(block_interval(n, i)) == left | right


def test_color_pair_examples():
    assert color_pair(5, 6) == 1
    assert color_pair(4, 6) == 2
    for t in range(8):
        assert color_pair(1, 2**t + 1) == 1
    for i in range(1, 200):
        assert color_pair(2 * i - 1, 2 * i) == 1
    with pytest.raises(ValueError):
        color_pair(4, 4)


def test_color_pair_matches_block_oracle():
    for a in range(1, 130):
        for b in range(a + 1, 130):
            assert color_pair(a, b) == color_oracle(a, b)


def test_color_pair_symmetric_positive():
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        if a == b:
            continue
        assert color_pair(a, b) == color_pair(b, a) >= 1


def test_color_tuple():
    assert color_tuple({5, 6, 100}) == 1
    assert color_tuple({4, 6, 7, 9}) == 2
    assert color_tuple({3, 8}) == color_pair(3, 8)
    with pytest.raises(ValueError):
        color_tuple({1, 2, 3}, 4)
    with pytest.raises(ValueError):
        color_tuple({7})


def test_class_of():
    assert class_of(2, 143) == 1  # 11*13: indices 5,6
    assert class_of(3, 7 * 13 * 23) == 2  # indices 4,6,9 -> color(4,6)
    for bad in (4, 12, 30):  # square, square times prime, three primes
        with pytest.raises(ValueError):
            class_of(2, bad)
    # every product of two distinct primes lands in exactly one class
    prs = first_primes(8)
    for i, p in enumerate(prs):
        for q in prs[i + 1 :]:
            assert class_of(2, p * q) == color_pair(
                prs.index(p) + 1, prs.index(q) + 1
            )


def test_verify_progr_small_k2():
    rep = verify_progr(2, 256, 32)
    assert rep.ok and rep.checked == 256 * 32


def test_verify_progr_k1_finds_known_gap():
    # the length-3 guarantee genuinely fails, first at the progression 3,6,9
    rep = verify_progr(1, 16, 8)
    assert not rep.ok
    assert (3, 3, (3, 6, 9)) in rep.violations
    # all reported violations are real: no pair in them is colored 1
    for a0, d, terms in rep.violations:
        assert all(color_pair(x, y) != 1 for x, y in combinations(terms, 2))


def progr_reference(k, a0_max, d_max):
    """The plain scan: color_pair on every pair, shortest gaps first."""
    length = 2**k + 1
    pair_order = sorted(combinations(range(length), 2), key=lambda ij: ij[1] - ij[0])
    violations = []
    checked = 0
    for d in range(1, d_max + 1):
        for a0 in range(1, a0_max + 1):
            checked += 1
            if not any(color_pair(a0 + i * d, a0 + j * d) == k for i, j in pair_order):
                violations.append((a0, d, tuple(range(a0, a0 + length * d, d))))
    return checked, violations


def test_verify_progr_matches_reference_scan():
    rng = random.Random(5)
    cases = [(k, 1, 1) for k in range(1, 5)] + [(k, 64, 16) for k in range(1, 5)]
    cases += [(rng.randint(1, 4), rng.randint(1, 64), rng.randint(1, 16)) for _ in range(24)]
    # periods 2^t shorter than, equal to and longer than a0_max, a0_max not
    # a multiple of the period, and longer progressions at small bounds
    cases += [(2, 777, 5), (3, 333, 9), (4, 1500, 2), (5, 2000, 1)]
    cases += [(5, 40, 3), (5, 17, 6), (5, 64, 2), (5, 100, 1), (6, 20, 2), (6, 33, 1),
              (6, 8, 3), (7, 5, 1), (7, 12, 1), (7, 3, 2)]
    for k, a0_max, d_max in cases:
        rep = verify_progr(k, a0_max, d_max)
        expect = progr_reference(k, a0_max, d_max)
        assert (rep.checked, rep.violations) == expect, (k, a0_max, d_max)


def test_verify_progr_k1_full_scale_matches_reference():
    rep = verify_progr(1, 1024, 64)
    assert len(rep.violations) == 29184
    assert (rep.checked, rep.violations) == progr_reference(1, 1024, 64)
    # each start is its own first term, and all terms are items of one list
    # of the numbers up to a0_max + 2^k * d_max
    assert all(a0 is terms[0] for a0, _d, terms in rep.violations)
    assert len({id(x) for _a0, _d, terms in rep.violations for x in terms}) <= 1024 + 2 * 64 + 1


@pytest.mark.parametrize("k", [2, 3])
def test_verify_progr_full_scale_holds(k):
    rep = verify_progr(k, 1024, 64)
    assert rep.checked == 65536 and rep.violations == []


def test_progr_hits_is_the_exact_start_mask():
    # bit s is set iff the step-d progression from s + 1 has a pair colored
    # k, and no bit at or above a0_max is ever set
    for k, a0_max, d in [(1, 5, 3), (1, 40, 6), (2, 100, 3), (2, 7, 64), (3, 40, 7),
                         (3, 3, 5), (4, 50, 5), (4, 6, 11)]:
        pairs = list(combinations(range(2**k + 1), 2))
        expect = sum(1 << s for s in range(a0_max)
                     if any(color_pair(s + 1 + i * d, s + 1 + j * d) == k for i, j in pairs))
        assert coloring._progr_hits(k, a0_max, d, (1 << a0_max) - 1) == expect, (k, a0_max, d)


@pytest.mark.parametrize("a0_max, d_max", [(0, 5), (5, 0), (-1, 3)])
def test_verify_progr_rejects_vacuous_bounds(a0_max, d_max):
    with pytest.raises(ValueError):
        verify_progr(2, a0_max, d_max)


def test_verify_refinement():
    assert verify_refinement(2, 20).ok
    assert verify_refinement(3, 15).ok
    assert verify_refinement(2, 3).ok
    for n, index_bound in ((2, 0), (2, 2), (3, 3)):  # no (n+1)-subset to check
        with pytest.raises(ValueError):
            verify_refinement(n, index_bound)


def refinement_reference(n, index_bound):
    """The plain scan: color every (n+1)-subset, and apart its n-prefix
    from the literal block tree."""
    checked, violations = 0, []
    for comb in combinations(range(1, index_bound + 1), n + 1):
        checked += 1
        if coloring.color_tuple(comb, n + 1) != color_oracle(comb[0], comb[1]):
            violations.append(comb)
    return checked, violations


REFINEMENT_CASES = [(n, bound) for n in (2, 3, 4) for bound in range(n + 1, 19)]


def test_verify_refinement_matches_reference_scan():
    for n, bound in REFINEMENT_CASES:
        rep = verify_refinement(n, bound)
        assert (rep.checked, rep.violations) == refinement_reference(n, bound), (n, bound)
        assert rep.ok


def test_verify_refinement_colors_every_tuple(monkeypatch):
    # a color that reads the largest member breaks the tuples whose largest
    # member is odd and no other, so a skipped or misattributed tuple shows
    real_tuple, real_block = coloring.color_tuple, coloring._block_color
    calls = {}

    def by_largest(indices, n=None):
        calls[n] = calls.get(n, 0) + 1
        return real_tuple(indices, n) + max(indices) % 2

    def block_color(a, b):
        calls["block"] = calls.get("block", 0) + 1
        return real_block(a, b)

    monkeypatch.setattr(coloring, "color_tuple", by_largest)
    monkeypatch.setattr(coloring, "_block_color", block_color)
    for n, bound in REFINEMENT_CASES:
        expect = refinement_reference(n, bound)
        assert expect[1] or bound == n + 1  # one tuple, whose largest member may be even
        calls.clear()
        rep = verify_refinement(n, bound)
        assert (rep.checked, rep.violations) == expect, (n, bound)
        # one color_tuple call per tuple, one block color per prefix that has an extension
        assert calls == {n + 1: math.comb(bound, n + 1), "block": math.comb(bound - 1, n)}


def test_verify_refinement_fails_when_the_pair_color_drifts(monkeypatch):
    # prefixes are colored from the block tree and tuples through
    # _pair_color, so a pair color off by one on (3, 5) shows up in every
    # tuple whose two smallest members are 3 and 5, and nowhere else
    real = coloring._pair_color
    monkeypatch.setattr(coloring, "_pair_color", lambda a, b: real(a, b) + ((a, b) == (3, 5)))
    rep = verify_refinement(2, 8)
    assert rep.checked == math.comb(8, 3)
    assert rep.violations == [(3, 5, 6), (3, 5, 7), (3, 5, 8)]


def test_block_color_is_the_pair_color():
    for b in range(2, 512):
        for a in range(1, b):
            assert coloring._block_color(a, b) == coloring._pair_color(a, b), (a, b)


def test_color_tuple_matches_color_pair():
    rng = random.Random(7)
    for _ in range(500):
        xs = rng.sample(range(1, 10**6), rng.randint(2, 5))
        low = sorted(xs)
        assert color_tuple(xs) == color_pair(low[0], low[1])
    with pytest.raises(ValueError, match="pair elements must be >= 1"):
        color_tuple({0, 5})


@pytest.mark.parametrize("n, message", [(1, "product arity must be >= 2"),
                                         (0, "thickness parameters must be >= 1")])
def test_thick_params_own_the_arity_rule(n, message):
    with pytest.raises(ValueError, match=message):
        ThickParams(1, 1, n)


def test_is_thick_certificate_parts_are_sorted():
    # primes given in any order come back as sorted parts of a partition
    A = [43, 2, 31, 7, 19, 3, 11]
    for m in (1, 2, 3):
        res = is_thick_bounded(A, ThickParams(m, 3, 2))
        if res.thick:
            continue
        parts = res.certificate["partition"]
        assert all(p == sorted(p) for p in parts)
        assert sorted(x for p in parts for x in p) == sorted(A)
        assert [p[0] for p in parts] == sorted(p[0] for p in parts)


def test_is_thick_examples():
    params = ThickParams(m_max=1, k_max=1, n=2)
    assert not is_thick_bounded(frozenset(), params).thick
    assert not is_thick_bounded({2}, params).thick
    res = is_thick_bounded(first_primes(8), params)
    # single-part partition: thick iff the products meet class 1
    covers = any(class_of(2, x) == 1 for x in coprime_power(first_primes(8), 2))
    assert res.thick == covers is True


def test_is_thick_certificate_is_real():
    params = ThickParams(m_max=2, k_max=3, n=2)
    res = is_thick_bounded(first_primes(6), params)
    if not res.thick:
        cert = res.certificate
        parts = [frozenset(p) for p in cert["partition"]]
        assert frozenset().union(*parts) == frozenset(first_primes(6))
        for part, missing in zip(cert["partition"], cert["missing"]):
            prods = coprime_power(part, params.n)
            assert all(class_of(params.n, x) != missing for x in prods)


def thick_oracle(A, params):
    """Bounded thickness from literal products and the classifier, over
    every partition into at most m_max parts."""

    def covers(part):
        prods = coprime_power(part, params.n)
        klasses = {class_of(params.n, x) for x in prods}
        return set(range(1, params.k_max + 1)) <= klasses

    def parts_of(s, m):
        s = sorted(s)
        if not s:
            yield []
            return
        first, rest = s[0], s[1:]
        for sub in parts_of(rest, m):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            if len(sub) < m:
                yield [[first]] + sub

    return all(any(covers(frozenset(p)) for p in partition)
               for partition in parts_of(A, params.m_max))


def test_is_thick_dual_route():
    # pair-scan coverage must agree with literal products + classifier
    rng = random.Random(9)
    primes = first_primes(9)
    for _ in range(40):
        A = frozenset(rng.sample(primes, rng.randrange(2, 7)))
        params = ThickParams(
            m_max=rng.randrange(1, 3), k_max=rng.randrange(1, 4), n=rng.choice((2, 3))
        )
        assert is_thick_bounded(A, params).thick == thick_oracle(A, params), (sorted(A), params)


def test_thick_guard():
    # 5 primes in 4 parts: 4^4 partitions of C(5, 2) pairs at most, inside the guard
    for k_max in (1, 2, 3):
        params = ThickParams(m_max=4, k_max=k_max, n=2)
        assert is_thick_bounded(first_primes(5), params).thick == thick_oracle(first_primes(5),
                                                                                params)
    with pytest.raises(GuardExceeded):
        is_thick_bounded(first_primes(12), ThickParams(4, 1, 2))


def partitions_oracle(items, max_parts):
    """Set partitions of items into at most max_parts blocks, by recursion:
    item i joins each open block in turn, then opens a new one."""
    parts = []

    def rec(i):
        if i == len(items):
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

    yield from rec(0)


def test_partition_walk_matches_the_recursive_oracle():
    for n in range(10):
        items = tuple(range(3, 3 + 2 * n, 2))
        for m in range(7):
            assert list(coloring._partitions_bounded(items, m)) == list(
                partitions_oracle(items, m)), (n, m)
    # S(9, 1) + ... + S(9, 6) partitions of 9 items into at most 6 blocks
    assert len(list(coloring._partitions_bounded(tuple(range(9)), 6))) == 20648


def unclamped_thick(A, params):
    """is_thick_bounded's search with k_max passed through as given."""
    prime_at = {prime_index(p): p for p in sorted(A)}
    for partition in partitions_oracle(tuple(prime_at), params.m_max):
        missing = [coloring._missing_class(part, params.n, params.k_max) for part in partition]
        if None not in missing:
            return False, {"partition": [[prime_at[i] for i in p] for p in partition],
                           "missing": missing}
    return True, None


def test_k_max_clamp_keeps_answer_and_certificate():
    # pools of 2..40 primes: small ones meet every class up to the clamp, and
    # k_max up to 10 runs past it
    rng = random.Random(19)
    for _ in range(300):
        primes = first_primes(rng.randrange(2, 41))
        A = rng.sample(primes, rng.randrange(1, min(8, len(primes) + 1)))
        params = ThickParams(rng.randrange(1, 4), rng.randrange(1, 11), rng.choice((2, 3)))
        res = is_thick_bounded(A, params)
        assert (res.thick, res.certificate) == unclamped_thick(A, params), (sorted(A), params)


def test_check_thick_lemmas():
    rep = check_thick_lemmas(samples=120, seed=4)
    assert rep.ok
    # the premises must actually fire a reasonable number of times
    assert rep.union_hits > 10 and rep.arity_hits > 10


@pytest.mark.parametrize("samples", [0, -3])
def test_check_thick_lemmas_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_thick_lemmas(samples=samples)


def test_coloring_from_set():
    col = coloring_from_set({15}, {3, 5}, 2)
    assert col == {frozenset({3, 5}): 0}
    col = coloring_from_set(set(), {2, 3, 5}, 2)
    assert set(col.values()) == {1}
    A = first_primes(4)
    col = coloring_from_set(coprime_power(A, 2), A, 2)
    assert set(col.values()) == {0}


def test_find_monochromatic():
    A = first_primes(6)
    col = {frozenset(c): 0 for c in combinations(A, 2)}
    assert find_monochromatic(A, 2, col, 6) == frozenset(A)
    assert find_monochromatic({2, 3}, 2, col, 3) is None
    with pytest.raises(ValueError):
        find_monochromatic(A, 3, col, 2)


def test_every_pair_coloring_of_six_has_mono_triple():
    # finite Ramsey bound: 6 elements always contain a monochromatic triple
    A = list(range(1, 7))
    pairs = list(combinations(A, 2))
    for bits in range(2**15):
        col = {frozenset(p): (bits >> i) & 1 for i, p in enumerate(pairs)}
        assert find_monochromatic(A, 2, col, 3) is not None


def test_mono_set_lands_inside_or_outside():
    rng = random.Random(17)
    A = first_primes(8)
    prods = sorted(coprime_power(A, 2))
    for _ in range(50):
        S = frozenset(rng.sample(prods, rng.randrange(0, len(prods))))
        col = coloring_from_set(S, A, 2)
        M = find_monochromatic(A, 2, col, 3)
        assert M is not None
        mprod = coprime_power(M, 2)
        assert mprod <= S or not (mprod & S)
