import copy
import math
import pickle
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultradiv import arith
from ultradiv.arith import (
    NatSet,
    coprime_power,
    coprime_product,
    divisors,
    factorize,
    first_primes,
    is_prime,
    level_of,
    prime_index,
    primes_upto,
    quotient_set,
    up_closure,
)


def test_factorize_basic():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_factorize_matches_sympy_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**7)
        assert factorize(n) == sympy.factorint(n)


def test_factorize_large_goes_through_rho():
    # both factors above the trial-division sieve
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p * q) == {p: 2, q: 1}


def test_factorize_tests_each_cofactor_once(monkeypatch):
    p, q = 1000003, 1000033
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or real(m))
    assert factorize(p * p * q) == {p: 2, q: 1}
    assert calls.count(p * p * q) == 1
    calls.clear()
    assert factorize(7 * q) == {7: 1, q: 1}
    assert calls == []  # trial division passed sqrt(q), which proves q prime


@pytest.mark.parametrize("n", [2 * 2749, 360, 2**40, 999983 * 1000003, 10**12 - 11])
def test_factorize_trusts_a_cofactor_trial_division_proved_prime(monkeypatch, n):
    def no_test(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(arith, "is_prime", no_test)
    assert factorize(n) == sympy.factorint(n)


def test_factorize_tests_a_cofactor_past_the_trial_bound(monkeypatch):
    q = 1000002000007  # prime, isqrt(q) > TRIAL_DIVISION_BOUND
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or real(m))
    assert factorize(2 * q) == {2: 1, q: 1}
    assert calls == [q]


def test_factorize_matches_sympy_near_the_trial_bound():
    # cofactors on both sides of TRIAL_DIVISION_BOUND^2 = 10^12
    rng = random.Random(15)
    sample = [rng.randrange(1, 10**12) for _ in range(100)]
    sample += [rng.randrange(10**12 - 10**7, 10**12 + 10**7) for _ in range(100)]
    sample += [rng.randrange(2, 10**4) * rng.randrange(10**11, 10**13) for _ in range(100)]
    for n in sample:
        assert factorize(n) == sympy.factorint(n), n


def test_prime_index_inverts_nth_prime():
    for i, p in enumerate(first_primes(199), 1):
        assert prime_index(p) == i
    with pytest.raises(ValueError):
        prime_index(6)


def _trial_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


# Each limit is sieved from a fresh state: below, at and above twice the
# sieved bound (which a call rounds up to), odd and even, and squares of
# primes with their neighbours.
SIEVE_LIMITS = [2, 3, 4, 5, 8, 9, 10, 25, 47, 48, 49, 95, 96, 97, 98, 120, 121, 122,
                168, 169, 170, 288, 289, 290, 361, 960, 961, 962, 1681, 2000]


@pytest.mark.parametrize("start", [1, 48])
def test_sieve_matches_trial_division(monkeypatch, start):
    def fresh():
        monkeypatch.setattr(arith, "_primes", _trial_primes(start))
        monkeypatch.setattr(arith, "_sieved_to", start)

    for limit in SIEVE_LIMITS:
        expected = _trial_primes(limit)
        fresh()
        assert primes_upto(limit) == expected
        sieved = max(limit, 2 * start) if limit > start else start
        assert arith._sieved_to == sieved
        assert arith._primes == _trial_primes(sieved)
        fresh()
        assert first_primes(len(expected)) == expected
        fresh()
        assert prime_index(expected[-1]) == len(expected)


def test_prime_counts_at_a_million_and_two(monkeypatch):
    monkeypatch.setattr(arith, "_primes", [2])
    monkeypatch.setattr(arith, "_sieved_to", 2)
    assert len(primes_upto(10**6)) == 78498
    assert len(primes_upto(2 * 10**6)) == 148933
    assert primes_upto(2 * 10**6)[-1] == sympy.prevprime(2 * 10**6)


def test_up_closure():
    assert up_closure({2, 3}, 10) == {2, 3, 4, 6, 8, 9, 10}
    assert up_closure({1}, 5) == {1, 2, 3, 4, 5}
    assert up_closure({7}, 6) == frozenset()
    assert up_closure({2, 3}, 10).window == 10


def test_quotient_set():
    assert quotient_set({6, 12}, 3) == {2, 4}
    assert quotient_set({5}, 2) == frozenset()
    # quotient of a 2-fold coprime power by a member drops that member
    a2 = coprime_power({3, 5, 7}, 2)
    assert a2 == {15, 21, 35}
    assert quotient_set(a2, 5) == {3, 7}


def test_coprime_product():
    assert coprime_product({2, 3}, {3, 5}) == {6, 10, 15}
    assert coprime_product({2}, {2}) == frozenset()
    assert coprime_product({2, 3}, {5, 7}) == {10, 14, 15, 21}


def test_coprime_product_closure_identity():
    # AB agrees with (A-multiples ∩ B-multiples ∩ squarefree-semiprimes) in window
    A, B = {2, 3}, {5, 7}
    W = 21
    ab = coprime_product(A, B)
    p2 = {m * n for m in first_primes(10) for n in first_primes(10) if m < n and m * n <= W}
    assert ab == up_closure(A, W) & up_closure(B, W) & p2


def test_coprime_power():
    assert coprime_power({3, 5, 7}, 2) == {15, 21, 35}
    assert coprime_power({3, 5, 7}, 3) == {105}
    assert coprime_power({3, 5}, 3) == frozenset()
    # non-prime elements fall back to the folded definition
    assert coprime_power({4, 9, 25}, 2) == {36, 100, 225}
    assert coprime_power({1, 2}, 3) == {1, 2}  # 1 is coprime to itself


def test_level_of():
    assert level_of(1) == 0
    assert level_of(12) == 3
    assert level_of(210) == 4


def test_natset_window_validation():
    with pytest.raises(ValueError):
        NatSet({0})
    with pytest.raises(ValueError):
        NatSet([3, -1])
    with pytest.raises(ValueError):
        NatSet({5}, window=4)
    with pytest.raises(ValueError):
        NatSet(iter([1, 9]), window=8)
    s = NatSet({1, 2}, window=10)
    assert s.window == 10 and 2 in s


def test_natset_window_is_a_slot_that_survives_copies():
    s = NatSet({1, 2, 6}, window=10)
    assert not hasattr(s, "__dict__")
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(t) is NatSet and t == s and t.window == 10
    assert pickle.loads(pickle.dumps(NatSet({3}))).window is None


# --- structural properties ---------------------------------------------------


small_sets = st.frozensets(st.integers(min_value=1, max_value=60), max_size=8)


@given(small_sets, st.integers(min_value=1, max_value=20))
def test_quotient_membership_iff(A, n):
    q = quotient_set(A, n)
    for m in range(1, 61):
        assert (m in q) == (m * n in A)


@given(small_sets)
def test_up_closure_idempotent_monotone(A):
    W = 80
    u = up_closure(A, W)
    assert up_closure(u, W) == u
    bigger = up_closure(A | {2}, W)
    assert u <= bigger


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_singleton_duality(m, n):
    W = max(m, n)
    assert (n in up_closure({m}, W)) == (n % m == 0)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_level_completely_additive(m, n):
    assert level_of(m * n) == level_of(m) + level_of(n)


def test_coprime_power_lands_in_level():
    A = first_primes(6)
    for n in (1, 2, 3):
        for x in coprime_power(A, n):
            assert level_of(x) == n


def test_quotient_of_coprime_product_by_member():
    # disjoint prime sets: (AB)/a = B for a in A
    A, B = frozenset({2, 11}), frozenset({3, 7})
    ab = coprime_product(A, B)
    for a in A:
        assert quotient_set(ab, a) == B
    a2 = coprime_power({2, 3, 5, 7}, 2)
    for a in (2, 3, 5, 7):
        assert quotient_set(a2, a) == {2, 3, 5, 7} - {a}


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert is_prime(2) and is_prime(997) and not is_prime(1)
    assert not is_prime(1000003 * 1000033)
    assert math.prod(p**e for p, e in factorize(987654321).items()) == 987654321


# --- input contract: sets are checked where they enter ----------------------


def _coprime_fold(A, n):
    acc = set(A)
    for _ in range(n - 1):
        acc = {x * a for x in acc for a in A if math.gcd(x, a) == 1}
    return acc


# name -> (operation, set-comprehension reference, result window given A's window)
SET_OPS = {
    "up_closure": (
        lambda A: up_closure(A, 90),
        lambda A: {m for m in range(1, 91) if any(m % a == 0 for a in A)},
        lambda w: 90,
    ),
    "quotient_set": (
        lambda A: quotient_set(A, 3),
        lambda A: {a // 3 for a in A if a % 3 == 0},
        lambda w: None if w is None else w // 3,
    ),
    "coprime_product": (
        lambda A: coprime_product(A, {1, 5, 6, 49}),
        lambda A: {a * b for a in A for b in (1, 5, 6, 49) if math.gcd(a, b) == 1},
        lambda w: None,
    ),
    "coprime_product_right": (
        lambda A: coprime_product({2, 15}, A),
        lambda A: {a * b for a in (2, 15) for b in A if math.gcd(a, b) == 1},
        lambda w: None,
    ),
    "coprime_power_2": (lambda A: coprime_power(A, 2), lambda A: _coprime_fold(A, 2), lambda w: None),
    "coprime_power_3": (lambda A: coprime_power(A, 3), lambda A: _coprime_fold(A, 3), lambda w: None),
}

# each way a set operand can arrive, with the window it carries
INPUT_FORMS = {
    "natset_window": (lambda A: NatSet(A, window=60), 60),
    "natset": (lambda A: NatSet(A), None),
    "frozenset": (frozenset, None),
    "list": (list, None),
    "generator": (lambda A: (a for a in A), None),
}


@pytest.mark.parametrize("name", SET_OPS)
@given(A=small_sets)
@example(A=frozenset({2, 3, 5, 7, 11}))  # coprime_power's prime-set path
@settings(max_examples=40)
def test_set_operation_contract(name, A):
    op, reference, out_window = SET_OPS[name]
    want = reference(A)
    for make, window in INPUT_FORMS.values():
        got = op(make(A))
        assert type(got) is NatSet
        assert got == want
        assert got.window == out_window(window)


def test_prime_set_with_many_generators_closes_like_the_reference():
    primes = first_primes(168)  # the primes below 1000
    assert up_closure(primes, 1000) == NatSet(range(2, 1001))
    assert up_closure(primes[10:], 1000) == {
        m for m in range(1, 1001) if any(m % p == 0 for p in primes[10:])
    }


@pytest.mark.parametrize("name", SET_OPS)
@pytest.mark.parametrize("bad", [0, -3])
def test_set_operation_rejects_nonpositive_elements(name, bad):
    # up_closure used to drop a negative generator and crash on 0 (range step 0)
    op = SET_OPS[name][0]
    with pytest.raises(ValueError, match="integers >= 1"):
        op({bad, 2})
    with pytest.raises(ValueError, match="integers >= 1"):
        op([5, bad])


# --- primality above the 12-base bound ---------------------------------------

# strong pseudoprimes to the first 12 and 13 prime bases (Sorenson & Webster 2017)
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981

CARMICHAEL_BELOW_10_6 = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461, 530881, 552721, 656601, 658801, 670033, 748657, 825265,
    838201, 852841, 997633,
)


def test_is_prime_rejects_psi_12_and_psi_13():
    for psi in (PSI_12, PSI_13):
        assert not sympy.isprime(psi)
        assert not is_prime(psi)
    assert PSI_12 == 399165290221 * 798330580441


def test_is_prime_rejects_carmichael_numbers():
    for n in CARMICHAEL_BELOW_10_6:
        fac = sympy.factorint(n)
        # Korselt: squarefree, at least two primes, p - 1 | n - 1 for each p
        assert len(fac) > 1 and all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in fac.items())
        assert not sympy.isprime(n) and not is_prime(n)


def test_is_prime_matches_sympy_on_24_to_26_digits():
    # 24 digits start below psi_12, so both the exact and the probable range run
    rng = random.Random(2017)
    for digits in (24, 25, 26):
        lo = 10 ** (digits - 1)
        for _ in range(15):
            p = sympy.nextprime(rng.randrange(lo, 10 * lo))
            q = sympy.nextprime(rng.randrange(10**11, 10**12))
            r = sympy.nextprime(lo // q)
            odd = rng.randrange(lo, 10 * lo) | 1
            assert is_prime(p)
            for n in (q * r, q * q, odd, odd + 2):
                assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # with Selfridge's parameters the odd composites below 20000 that pass the
    # strong Lucas test alone are 5459, 5777, 10877, 16109 and 18971 (OEIS A217255)
    from ultradiv.arith import _strong_lucas_prp

    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    passing = {
        n for n in range(41 * 41, 20000, 2)
        if all(n % p for p in small) and _strong_lucas_prp(n)
    }
    primes = {n for n in passing if sympy.isprime(n)}
    assert passing - primes == {5459, 5777, 10877, 16109, 18971}
    assert primes == set(sympy.primerange(41 * 41, 20000))
