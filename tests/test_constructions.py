import random
from itertools import product as iproduct

import pytest

from ultradiv import constructions
from ultradiv.arith import first_primes, primes_upto
from ultradiv.coloring import ThickParams
from ultradiv.constructions import (
    ECFunction,
    ec_enumerate,
    g_value,
    greedy_thick_extend,
    verify_g_disjoint,
)


def test_ecfunction_basics():
    f = ECFunction((2, 5), 3)
    assert [f(n) for n in (1, 2, 3, 4, 10)] == [2, 5, 3, 3, 3]
    assert ECFunction((2, 3, 3), 3) == ECFunction((2,), 3)  # minimal form
    with pytest.raises(ValueError):
        ECFunction((4,), 3)
    with pytest.raises(ValueError):
        ECFunction((), 1)


def test_ec_enumerate_prefix():
    asg = ec_enumerate(6)
    assert asg[2] == ECFunction((), 2)
    assert asg[3] == ECFunction((), 3)
    assert asg[5] == ECFunction((2,), 3)
    assert asg[7] == ECFunction((), 5)
    assert asg[11] == ECFunction((), 7)
    assert asg[13] == ECFunction((), 11)


def within_index_bound(f, i):
    """The index constraint: values <= i at i in {2, 3}, < i above."""
    top = max((*f.prefix, f.tail))
    return top <= i if i in (2, 3) else top < i


def test_ec_enumerate_injective_bounded_deterministic():
    asg = ec_enumerate(80)
    assert len(set(asg.values())) == len(asg) == 80
    for i, f in asg.items():
        assert within_index_bound(f, i), (i, f)
    assert ec_enumerate(80) == asg


def ec_reference(count):
    """The plain scan: for each index, re-scan the canonical order from the
    start, building an ECFunction for every candidate."""
    used, out = set(), {}
    for i in first_primes(count):
        allowed = [p for p in primes_upto(i) if p <= i] if i in (2, 3) else primes_upto(i - 1)
        chosen, length = None, 0
        while chosen is None:
            for prefix in iproduct(allowed, repeat=length):
                for tail in allowed:
                    if prefix and prefix[-1] == tail:
                        continue
                    cand = ECFunction(prefix, tail)
                    if cand not in used:
                        chosen = cand
                        break
                if chosen:
                    break
            length += 1
        used.add(chosen)
        out[i] = chosen
    return out


def test_ec_enumerate_matches_reference_scan():
    full = list(ec_enumerate(500).items())
    assert full == list(ec_reference(500).items())
    for count in range(1, 500):
        assert list(ec_enumerate(count).items()) == full[:count], count


def test_ec_enumerate_closed_form():
    # 2, 3 and 5 are special; from p_4 = 7 on, p_k takes the constant p_(k-1)
    primes = first_primes(10**4)
    got = [(i, f.prefix, f.tail) for i, f in ec_enumerate(10**4).items()]
    expect = [(2, (), 2), (3, (), 3), (5, (2,), 3)]
    expect += [(p, (), q) for q, p in zip(primes[2:], primes[3:])]
    assert got == expect


def test_ec_enumerate_validates_only_returned_functions(monkeypatch):
    # every value comes from first_primes, so not even the returned ones are re-tested
    def is_prime(v):
        raise AssertionError(f"is_prime({v}) called")

    monkeypatch.setattr(constructions, "is_prime", is_prime)
    assert len(ec_enumerate(200)) == 200


def test_g_value():
    asg = ec_enumerate(4)
    assert g_value(asg, 2, 1) == 4
    assert g_value(asg, 2, 9) == 4
    custom = {7: ECFunction((), 3)}
    assert g_value(custom, 7, 5) == 21
    with pytest.raises(ValueError):
        g_value(asg, 19, 1)


def test_g_value_two_distinct_factors_above_three():
    asg = ec_enumerate(50)
    for i, f in asg.items():
        if i > 3:
            v = g_value(asg, i, 3)
            assert v == i * f(3) and f(3) < i  # recoverable pair


def test_verify_g_disjoint_canonical():
    asg = ec_enumerate(100)
    for m, n in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        rep = verify_g_disjoint(asg, m, n)
        assert rep.ok, (m, n, rep.collisions)
    rep = verify_g_disjoint(asg, 1, 2)
    assert rep.diff_indices == (5,)  # only the one prefixed function differs
    with pytest.raises(ValueError):
        verify_g_disjoint(asg, 2, 2)


def test_verify_g_disjoint_rich_assignments():
    # random assignments obeying the index bound are always collision-free
    rng = random.Random(23)
    for _ in range(30):
        asg = {}
        for i in first_primes(40):
            allowed = [p for p in primes_upto(i) if (p <= i if i in (2, 3) else p < i)]
            prefix = tuple(rng.choice(allowed) for _ in range(rng.randrange(0, 4)))
            asg[i] = ECFunction(prefix, rng.choice(allowed))
        for m, n in ((1, 2), (2, 3), (1, 4)):
            assert verify_g_disjoint(asg, m, n).ok


def test_greedy_examples():
    params = ThickParams(m_max=1, k_max=1, n=2)
    seeds = [set(first_primes(12))]
    family, log = greedy_thick_extend(seeds, [set()], params)
    assert log[0]["kept"] == "complement"
    assert family[-1] == frozenset(first_primes(12))

    family, log = greedy_thick_extend(seeds, [set(first_primes(12))], params)
    assert log[0]["kept"] == "candidate"


def test_greedy_family_stays_pairwise_thick():
    rng = random.Random(31)
    params = ThickParams(m_max=2, k_max=2, n=2)
    seeds = [set(first_primes(10))]
    candidates = [frozenset(rng.sample(first_primes(10), rng.randrange(0, 10)))
                  for _ in range(6)]
    family, log = greedy_thick_extend(seeds, candidates, params)
    from ultradiv.coloring import is_thick_bounded

    for a in family:
        for b in family:
            assert is_thick_bounded(a & b, params).thick
    assert len(log) == 6
    kept = [e for e in log if e["kept"]]
    assert len(family) == 1 + len(kept)


def test_greedy_checks_each_seed_pair_once(monkeypatch):
    seen = []

    def counting(S, params, **kw):
        seen.append(frozenset(S))
        return is_thick(S, params, **kw)

    is_thick = constructions.is_thick_bounded
    monkeypatch.setattr(constructions, "is_thick_bounded", counting)
    seeds = [first_primes(12), first_primes(13)[1:], first_primes(12)[::-1]]
    greedy_thick_extend(seeds, [], ThickParams(1, 1, 2))
    assert len(seen) == 6  # the three seeds with themselves and each other, once


def test_greedy_rejects_bad_seeds():
    params = ThickParams(m_max=1, k_max=2, n=2)
    with pytest.raises(ValueError):
        greedy_thick_extend([{2}], [set()], params)
