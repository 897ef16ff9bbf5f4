import random

import pytest

from ultradiv.arith import NatSet, divisors, factorize
from ultradiv.filters import (
    FinFilter,
    WindowOverflowError,
    divides_down,
    divides_up,
    image_filter,
    product_member,
    product_principal,
)


def F(core, bound=100):
    return FinFilter(bound, frozenset(core))


def test_finfilter_validation():
    with pytest.raises(ValueError):
        FinFilter(10, frozenset())
    with pytest.raises(ValueError):
        FinFilter(10, frozenset({11}))
    assert FinFilter.principal(3, 10).is_ultra
    assert not F({2, 3}).is_ultra


def test_gen_and_identity_follow_the_core():
    # gen is the element of a singleton core; equality and hashing read (bound, core) only
    for core in ({7}, {2, 3}, {1}, {4, 6, 9}):
        x, y = F(core), FinFilter(100, list(core))
        assert x == y and hash(x) == hash(y)
        assert x.gen == (next(iter(core)) if len(core) == 1 else None)
        assert x.is_ultra == (x.gen is not None)
    assert F({7}) != FinFilter(50, {7}) and F({7}) != F({7, 14})


def test_universe_mismatch_message():
    x, y = F({2}), FinFilter(50, {2, 3})
    for call in (lambda: divides_up(x, y), lambda: divides_down(x, y),
                 lambda: product_member({2}, x, y)):
        with pytest.raises(ValueError, match=r"^universe mismatch: 100 vs 50$"):
            call()


def test_set_operands_below_one_are_rejected():
    f = F({2})
    with pytest.raises(ValueError, match="set escapes the universe"):
        product_member([-1, 4], f, f)
    with pytest.raises(ValueError, match="set escapes the universe"):
        product_member({4, 101}, f, f)
    assert product_member(NatSet({4}, window=100), f, f)  # a windowed NatSet is trusted


def test_divides_up_examples():
    assert divides_up(F({6}), F({42}))
    assert not divides_up(F({6}), F({10}))
    assert divides_up(F({2, 3}), F({6}))
    with pytest.raises(ValueError):
        divides_up(F({2}), FinFilter(50, frozenset({2})))


def test_divides_down_examples():
    assert divides_down(F({6}), F({42}))
    assert not divides_down(F({4}), F({2}))
    x = F({5, 7})
    assert divides_down(x, x) and divides_up(x, x)


def test_image_filter():
    assert image_filter(lambda n: min(factorize(n)), F({12})).core == {2}
    assert image_filter(lambda a: a * a, F({3})).core == {9}
    x = F({4, 6})
    assert image_filter(lambda a: a, x) == x
    with pytest.raises(WindowOverflowError):
        image_filter(lambda a: a * a, F({11}))


def test_image_composition():
    # pushing forward along g after f equals pushing along their composite
    rng = random.Random(3)
    for _ in range(50):
        core = frozenset(rng.sample(range(2, 50), rng.randrange(1, 5)))
        x = FinFilter(100, core)
        f = lambda a: a + 1
        g = lambda a: max(1, a // 2)
        assert image_filter(g, image_filter(f, x)) == image_filter(lambda a: g(f(a)), x)


def test_product_member_examples():
    x2, y3 = F({2}), F({3})
    assert product_member({6}, x2, y3)
    assert not product_member({6}, F({3}), y3)
    assert product_member(range(1, 101), x2, y3)


def quotient_view(A, y, W):
    """The inner set of the product formula, {n <= W : A/n contains core_y}."""
    return {n for n in range(1, W + 1) if y.core <= {a // n for a in A if a % n == 0}}


def test_product_member_matches_quotient_view():
    rng = random.Random(5)
    for _ in range(30):
        W = 40
        A = frozenset(rng.sample(range(1, W + 1), rng.randrange(0, W)))
        x = FinFilter(W, frozenset(rng.sample(range(1, W + 1), rng.randrange(1, 4))))
        y = FinFilter(W, frozenset(rng.sample(range(1, W + 1), rng.randrange(1, 4))))
        assert product_member(A, x, y) == (x.core <= quotient_view(A, y, W))


@pytest.mark.parametrize("kinds", ["pp", "pg", "gp", "gg"])
def test_fast_paths_match_plain_scans(kinds):
    # principal (p) and general (g) cores in every combination, against all/any written here
    rng = random.Random(f"fast-paths:{kinds}")
    W = 60
    core = {"p": lambda: rng.sample(range(1, W + 1), 1),
            "g": lambda: rng.sample(range(1, W + 1), rng.randint(2, 4))}
    for _ in range(600):
        xc, yc = core[kinds[0]](), core[kinds[1]]()
        x, y = FinFilter(W, xc), FinFilter(W, yc)
        A = NatSet(rng.sample(range(1, W + 1), rng.randrange(0, W + 1)), window=W)
        assert divides_up(x, y) == all(any(b % a == 0 for a in xc) for b in yc)
        assert divides_down(x, y) == all(any(b % a == 0 for b in yc) for a in xc)
        assert product_member(A, x, y) == all(a * b in A for a in xc for b in yc)
        assert product_member(set(A), x, y) == product_member(A, x, y)


def test_product_principal():
    assert product_principal(2, 3, 100) == 6
    assert product_principal(1, 17, 50) == 17
    assert product_principal(7, 11, 100) == 77
    with pytest.raises(WindowOverflowError):
        product_principal(20, 30, 100)
    W = 60
    for m in range(1, 13):
        for n in range(1, 13):
            if m * n <= W:
                assert product_principal(m, n, W) == m * n
            else:
                with pytest.raises(WindowOverflowError):
                    product_principal(m, n, W)
    for m, n in ((0, 3), (3, 0), (-2, 5)):
        with pytest.raises(ValueError):
            product_principal(m, n, W)


def test_principal_reduction_small():
    # on principal ultrafilters both divisibility routes collapse to m | n
    W = 60
    filters = [FinFilter.principal(i, W) for i in range(1, W + 1)]
    for m in range(1, W + 1):
        x = filters[m - 1]
        for n in range(1, W + 1):
            y = filters[n - 1]
            expect = n % m == 0
            assert divides_up(x, y) == expect
            assert divides_down(x, y) == expect


def test_principal_divisor_structure():
    # divisors of a principal core {n} are exactly the divisor filters
    W = 80
    for n in (1, 7, 12, 36, 64):
        y = FinFilter.principal(n, W)
        divs = [m for m in range(1, W + 1) if divides_up(FinFilter.principal(m, W), y)]
        assert divs == divisors(n)
    # a prime has only the trivial proper divisor
    divs = [m for m in range(1, 81) if m != 13 and divides_up(FinFilter.principal(m, 80), FinFilter.principal(13, 80))]
    assert divs == [1]


def test_prime_power_core_divisors():
    # divisors of {p^k} under upward divisibility are exactly {p^j}, j <= k
    W = 100
    y = FinFilter.principal(64, W)
    divs = {m for m in range(1, W + 1) if divides_up(FinFilter.principal(m, W), y)}
    assert divs == {1, 2, 4, 8, 16, 32, 64}


def _random_core(rng, W, size):
    return frozenset(rng.sample(range(2, W + 1), size))


def test_divisibility_routes_are_preorders():
    # reflexive and transitive on arbitrary cores, not just principal ones
    rng = random.Random(19)
    W = 300
    xs = [FinFilter(W, _random_core(rng, W, rng.randrange(1, 5))) for _ in range(40)]
    for x in xs:
        assert divides_up(x, x) and divides_down(x, x)
    for x in xs[:12]:
        for y in xs[:12]:
            for z in xs[:12]:
                if divides_up(x, y) and divides_up(y, z):
                    assert divides_up(x, z)
                if divides_down(x, y) and divides_down(y, z):
                    assert divides_down(x, z)


def test_function_image_divisibility_both_ways():
    # f(a) | a pushes the image below x; a | f(a) pushes it above
    rng = random.Random(11)
    W = 500
    for _ in range(300):
        core = _random_core(rng, W, rng.randrange(1, 6))
        x = FinFilter(W, core)
        down_map = {a: rng.choice(divisors(a)) for a in core}
        up_map = {a: a * rng.randrange(1, max(2, W // a + 1)) for a in core}
        up_map = {a: (v if v <= W else a) for a, v in up_map.items()}
        assert divides_up(image_filter(down_map.__getitem__, x), x)
        assert divides_up(x, image_filter(up_map.__getitem__, x))


def test_product_on_principal_matches_membership():
    rng = random.Random(13)
    W = 200
    for _ in range(200):
        m = rng.randrange(1, 15)
        n = rng.randrange(1, 15)
        A = frozenset(rng.sample(range(1, W + 1), rng.randrange(0, 40)))
        got = product_member(A, FinFilter.principal(m, W), FinFilter.principal(n, W))
        assert got == (m * n in A)
