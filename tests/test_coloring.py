import math
import random
from itertools import combinations

import pytest

from ultradiv import coloring
from ultradiv.arith import coprime_power, first_primes
from ultradiv.coloring import (
    ThickParams,
    block_interval,
    check_thick_lemmas,
    class_of,
    color_pair,
    color_tuple,
    coloring_from_set,
    find_mono_ap,
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
    for k, a0_max, d_max in cases:
        rep = verify_progr(k, a0_max, d_max)
        expect = progr_reference(k, a0_max, d_max)
        assert (rep.checked, rep.violations) == expect, (k, a0_max, d_max)


def test_verify_progr_k1_full_scale_matches_reference():
    rep = verify_progr(1, 1024, 64)
    assert len(rep.violations) == 29184
    assert (rep.checked, rep.violations) == progr_reference(1, 1024, 64)


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
    """The plain scan: color every (n+1)-subset and, apart, its n-prefix."""
    checked, violations = 0, []
    for comb in combinations(range(1, index_bound + 1), n + 1):
        checked += 1
        if coloring.color_tuple(comb, n + 1) != coloring.color_tuple(comb[:-1], n):
            violations.append(comb)
    return checked, violations


REFINEMENT_CASES = [(n, bound) for n in (2, 3, 4) for bound in range(n + 1, 19)]


def test_verify_refinement_matches_reference_scan():
    for n, bound in REFINEMENT_CASES:
        rep = verify_refinement(n, bound)
        assert (rep.checked, rep.violations) == refinement_reference(n, bound), (n, bound)
        assert rep.ok


def test_verify_refinement_colors_every_tuple(monkeypatch):
    # a color that reads the largest member turns every dropped member
    # into a possible violation, so a skipped or misattributed tuple shows
    real = coloring.color_tuple
    calls = {}

    def by_largest(indices, n=None):
        calls[n] = calls.get(n, 0) + 1
        return real(indices, n) + max(indices) % 3

    monkeypatch.setattr(coloring, "color_tuple", by_largest)
    for n, bound in REFINEMENT_CASES:
        expect = refinement_reference(n, bound)
        assert expect[1]
        calls.clear()
        rep = verify_refinement(n, bound)
        assert (rep.checked, rep.violations) == expect, (n, bound)
        # one call per tuple, one per prefix that has an extension
        assert calls == {n + 1: math.comb(bound, n + 1), n: math.comb(bound - 1, n)}


def test_color_tuple_matches_color_pair():
    rng = random.Random(7)
    for _ in range(500):
        xs = rng.sample(range(1, 10**6), rng.randint(2, 5))
        low = sorted(xs)
        assert color_tuple(xs) == color_pair(low[0], low[1])
    with pytest.raises(ValueError, match="pair elements must be >= 1"):
        color_tuple({0, 5})


def test_find_mono_ap():
    odds = set(range(1, 10, 2))
    evens = set(range(2, 10, 2))
    assert find_mono_ap([odds, evens], 3) == (1, 3, 5)
    assert find_mono_ap([set(range(1, 10))], 4) == (1, 2, 3, 4)
    assert find_mono_ap([{1}, {2}], 2) is None
    assert find_mono_ap([], 2) is None


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


def test_is_thick_dual_route():
    # pair-scan coverage must agree with literal products + classifier
    rng = random.Random(9)
    primes = first_primes(9)
    for _ in range(40):
        A = frozenset(rng.sample(primes, rng.randrange(2, 7)))
        params = ThickParams(
            m_max=rng.randrange(1, 3), k_max=rng.randrange(1, 4), n=rng.choice((2, 3))
        )
        got = is_thick_bounded(A, params).thick

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
        expect = all(
            any(covers(frozenset(p)) for p in partition)
            for partition in parts_of(A, params.m_max)
        )
        assert got == expect, (sorted(A), params)


def test_thick_guard():
    params = ThickParams(m_max=4, k_max=1, n=2)
    with pytest.raises(GuardExceeded):
        is_thick_bounded(first_primes(5), params)
    assert is_thick_bounded(first_primes(5), params, max_parts=4).thick in (True, False)
    with pytest.raises(GuardExceeded):
        is_thick_bounded(first_primes(13), ThickParams(1, 1, 2))


def test_check_thick_lemmas():
    rep = check_thick_lemmas(samples=120, seed=4)
    assert rep.ok
    # the premises must actually fire a reasonable number of times
    assert rep.union_hits > 10 and rep.arity_hits > 10


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
