import itertools

import pytest
import sympy

from _patgen import iso_patterns, patterns_two_labels
from ultradiv import arith, patterns
from ultradiv.arith import factorize, level_of
from ultradiv.guards import GuardExceeded
from ultradiv.patterns import (
    InsufficientPrimesError,
    NoWitnessError,
    Pattern,
    dominates,
    extend_divisible,
    generate_falpha,
    parse_assignment,
    parse_pattern,
    pattern_add,
    pattern_leq,
    pattern_of,
    restrict,
    shape_class,
    shape_name,
    sigma,
    witness_set,
)


def P(*triples):
    return Pattern(triples)


def test_sigma():
    assert sigma(P()) == 0
    assert sigma(P(("p", 3, 1), ("q", 1, 1))) == 4
    assert sigma(P(("p", 1, 2), ("p", 2, 2), ("q", 1, 2))) == 8


def test_restrict():
    assert restrict(P(("p", 1, 2)), "p") == (2,)
    assert restrict(P(("p", 1, 1), ("p", 2, 1)), "p") == (1, 1)
    assert restrict(P(("p", 1, 2)), "q") == ()


def test_dominates():
    assert dominates((1, 1), (2,))
    assert not dominates((0, 1), (2,))
    assert dominates((2,), (2,))
    assert dominates((), ())
    assert not dominates((), (1,))


def test_pattern_leq_examples():
    # one split slot dominates two plain slots
    assert pattern_leq(P(("p", 1, 2)), P(("p", 1, 1), ("p", 2, 1)))
    # fails when some label's tail sums drop
    a = P(("p", 1, 2), ("p", 2, 2), ("q", 1, 2))
    b = P(("p", 1, 1), ("p", 3, 3), ("q", 2, 1))
    assert dominates(restrict(b, "p"), restrict(a, "p"))
    assert not dominates(restrict(b, "q"), restrict(a, "q"))
    assert not pattern_leq(a, b)
    assert pattern_leq(a, a)


def test_pattern_add():
    a = P(("p", 2, 1))
    assert pattern_add(a, P()) == a
    assert pattern_add(P(("p", 1, 1)), P(("p", 1, 1))) == P(("p", 1, 2))
    assert pattern_add(a, P(("q", 1, 2))) == P(("p", 2, 1), ("q", 1, 2))


def test_pattern_of():
    assert pattern_of(360) == P((2, 3, 1), (3, 2, 1), (5, 1, 1))
    assert pattern_of(1) == P()
    assert pattern_of(36) == P((2, 2, 1), (3, 2, 1))
    for n in (1, 2, 36, 360, 9699690):
        assert sigma(pattern_of(n)) == level_of(n)


def test_shape_class():
    assert shape_class(16) == (4,)
    assert shape_class(60) == (2, 1, 1)
    assert shape_class(210) == (1, 1, 1, 1)
    assert shape_class(360) == (3, 2, 1)
    with pytest.raises(ValueError):
        shape_class(1)


def test_shape_name():
    assert shape_name((4,)) == "P^4"
    assert shape_name((2, 1, 1)) == "P^2 P^(2)"
    assert shape_name((1, 1, 1, 1)) == "P^(4)"
    assert shape_name((2, 2)) == "(P^2)^(2)"
    assert shape_name((3, 1)) == "P^3 P"


def test_generate_falpha():
    assert generate_falpha(P(("p", 1, 2)), {"p": (3, 5, 7)}) == {15, 21, 35}
    assert generate_falpha(P(("p", 2, 1)), {"p": (2, 3)}) == {4, 9}
    out = generate_falpha(P(("p", 1, 1), ("q", 1, 1)), {"p": (2,), "q": (5, 7)})
    assert out == {10, 14}
    assert generate_falpha(P(), {}) == {1}


def test_generate_falpha_multi_group_share_label():
    # two exponent groups on one label draw globally distinct primes
    out = generate_falpha(P(("p", 1, 1), ("p", 2, 1)), {"p": (2, 3)})
    assert out == {2 * 9, 3 * 4}


def test_generate_falpha_errors():
    with pytest.raises(InsufficientPrimesError):
        generate_falpha(P(("p", 1, 3)), {"p": (3, 5)})
    assert generate_falpha(P(("p", 1, 3)), {"p": (3, 5)}, allow_insufficient=True) == frozenset()
    with pytest.raises(ValueError):
        generate_falpha(P(("p", 1, 1), ("q", 1, 1)), {"p": (3,), "q": (3,)})
    with pytest.raises(ValueError):
        generate_falpha(P(("p", 1, 1)), {"p": (4,)})


def test_witness_basic():
    cert = witness_set(P(("p", 1, 2)), P(("p", 1, 1)), {"p": (3, 5, 7)})
    assert cert.label == "p" and cert.threshold == 1
    assert cert.generators == {15, 21, 35}
    assert cert.tail_alpha == 2 and cert.tail_beta == 1
    assert cert.covers_alpha and cert.excludes_beta
    assert cert.beta_set == {3, 5, 7}


def test_witness_threshold_two():
    cert = witness_set(P(("p", 2, 1)), P(("p", 1, 1)), {"p": (2, 3)})
    assert cert.threshold == 2
    assert cert.generators == {4, 9}
    assert cert.covers_alpha and cert.excludes_beta


def test_witness_checks_its_assignment_once(monkeypatch):
    calls = []

    def counting(asg, *pats):
        calls.append(pats)
        return check(asg, *pats)

    check = patterns.check_assignment
    monkeypatch.setattr(patterns, "check_assignment", counting)
    alpha, beta = P(("p", 1, 2), ("q", 2, 1)), P(("p", 1, 1), ("q", 1, 1))
    cert = witness_set(alpha, beta, {"p": (3, 5, 7), "q": (11, 13)})
    assert cert.ok and len(calls) == 1
    assert cert.alpha_set == generate_falpha(alpha, {"p": (3, 5, 7), "q": (11, 13)})
    assert len(calls) == 2  # generate_falpha itself still checks its assignment


def test_witness_guards_each_generated_set(monkeypatch):
    # generators and alpha's set are 120 numbers each; beta's set, C(120, 8), trips the guard
    monkeypatch.delenv("ULTRADIV_GUARD", raising=False)
    with pytest.raises(GuardExceeded, match="generated set size"):
        witness_set(P(("p", 2, 1)), P(("p", 1, 8)), {"p": tuple(arith.first_primes(120))})


def test_witness_requires_non_dominated():
    with pytest.raises(NoWitnessError):
        witness_set(P(("p", 1, 1)), P(("p", 1, 2)), {"p": (3, 5, 7)})


def test_witness_window():
    cert = witness_set(P(("p", 1, 2)), P(("p", 1, 1)), {"p": (3, 5, 7)}, window=50)
    assert cert.upward == {15, 21, 30, 35, 42, 45}
    assert cert.upward.window == 50


def test_extend_divisible():
    assert extend_divisible(15, P(("p", 1, 2)), P(("p", 1, 3)), {"p": (3, 5, 7)}) == 105
    got = extend_divisible(
        10, P(("p", 1, 1), ("q", 1, 1)), P(("p", 2, 1), ("q", 1, 1)),
        {"p": (2,), "q": (5,)},
    )
    assert got == 20
    # identity extension
    a = P(("p", 1, 2))
    assert extend_divisible(21, a, a, {"p": (3, 5, 7)}) == 21


def test_extend_divisible_validation():
    with pytest.raises(ValueError):
        extend_divisible(15, P(("p", 1, 2)), P(("p", 1, 1)), {"p": (3, 5, 7)})
    with pytest.raises(ValueError):
        # 9 = 3^2 is not generated by (p,1)x2
        extend_divisible(9, P(("p", 1, 2)), P(("p", 1, 3)), {"p": (3, 5, 7)})
    with pytest.raises(InsufficientPrimesError):
        extend_divisible(15, P(("p", 1, 2)), P(("p", 1, 3)), {"p": (3, 5)})


def test_extend_output_in_beta_set():
    alpha = P(("p", 1, 1), ("p", 2, 1))
    beta = P(("p", 1, 1), ("p", 2, 1), ("p", 3, 1))
    asg = {"p": (2, 3, 5, 7)}
    s_beta = generate_falpha(beta, asg)
    for l in generate_falpha(alpha, asg):
        l2 = extend_divisible(l, alpha, beta, asg)
        assert l2 % l == 0 and l2 in s_beta


# --- the stored form against a plain triples model ---------------------------


def _ref_key(label):
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


class RefPattern:
    """A pattern as plain (label, k, n) triples, n >= 1, merged and sorted by
    (label, k): every question answered by scanning all triples."""

    def __init__(self, triples):
        acc = {}
        for label, k, n in triples:
            if n:
                acc[(label, k)] = acc.get((label, k), 0) + n
        self.triples = sorted(((lab, k, n) for (lab, k), n in acc.items()),
                              key=lambda t: (_ref_key(t[0]), t[1]))

    def support(self):
        return tuple(dict.fromkeys(lab for lab, _k, _n in self.triples))

    def slots(self, label):
        return sum(n for lab, _k, n in self.triples if lab == label)

    def restrict(self, label):
        per_k = {k: n for lab, k, n in self.triples if lab == label}
        return tuple(per_k.get(k, 0) for k in range(1, max(per_k, default=0) + 1))

    def sigma(self):
        return sum(k * n for _lab, k, n in self.triples)

    def to_text(self):
        return ",".join(f"({lab},{k})" + (f"x{n}" if n > 1 else "")
                        for lab, k, n in self.triples) or "{}"


MIXED = [
    P(("q", 1, 1), (3, 1, 1), ("a", 2, 1), (2, 1, 1)),
    P((7, 3, 2), ("p", 1, 1), (2, 2, 1)),
    *(pattern_of(n) for n in (1, 2, 12, 360, 2**10 * 3**4 * 7, 9699690)),
]
MODEL_PATTERNS = patterns_two_labels(5) + iso_patterns(6, "a") + MIXED


def _triples(pat):
    return [(lab, k, n) for (lab, k), n in pat.entries.items()]


@pytest.mark.parametrize("pat", MODEL_PATTERNS, ids=lambda p: p.to_text())
def test_pattern_matches_the_triples_model(pat):
    ref = RefPattern(_triples(pat))
    assert _triples(pat) == ref.triples  # canonical order, no zero entries
    assert pat.support == ref.support()
    assert sigma(pat) == ref.sigma()
    assert pat.to_text() == ref.to_text()
    assert parse_pattern(pat.to_text()) == pat
    assert bool(pat) == bool(ref.triples)
    for label in (*ref.support(), "zz", 5):
        assert restrict(pat, label) == ref.restrict(label)
        assert pat.slots(label) == ref.slots(label)
    # the same entries split into single slots, reversed and padded with
    # zero multiplicities build an equal pattern with an equal hash
    split = [(lab, k, 1) for lab, k, n in reversed(ref.triples) for _ in range(n)]
    again = Pattern(split + [(lab, 9, 0) for lab in ref.support()])
    assert again == pat and hash(again) == hash(pat)
    assert again.to_text() == pat.to_text()


def test_equality_and_hashing_match_the_triples_model():
    by_text = {}
    for pat in MODEL_PATTERNS:
        by_text.setdefault(RefPattern(_triples(pat)).to_text(), set()).add(pat)
    assert all(len(pats) == 1 for pats in by_text.values())
    assert len(set(MODEL_PATTERNS)) == len(by_text)


def test_pattern_add_matches_the_triples_model():
    pats = patterns_two_labels(5)[::2] + iso_patterns(6, "a")[::3] + MIXED
    for a, b in itertools.product(pats, repeat=2):
        got = pattern_add(a, b)
        ref = RefPattern(_triples(a) + _triples(b))
        assert _triples(got) == ref.triples
        assert got == Pattern(ref.triples) and hash(got) == hash(Pattern(ref.triples))
        assert got.to_text() == ref.to_text()


BENCH_SEMIPRIME = sympy.nextprime(1_500_000) * sympy.nextprime(10**15)


@pytest.mark.parametrize("n", [1, 360, 2**40, BENCH_SEMIPRIME])
def test_pattern_of_does_not_retest_primes(monkeypatch, n):
    fac = factorize(n)
    expected = Pattern([(p, e, 1) for p, e in fac.items()])

    def refuse(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(patterns, "factorize", lambda m: dict(fac))
    monkeypatch.setattr(arith, "is_prime", refuse)
    got = pattern_of(n)
    assert got == expected and got.to_text() == expected.to_text()
    assert sigma(got) == sum(fac.values())


def test_pattern_checks_each_label_once(monkeypatch):
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or is_prime(m))
    Pattern([(3, 1, 1), (5, 2, 1), (3, 2, 2), ("p", 1, 1), (5, 1, 0)])
    assert calls == [3, 5]


@pytest.mark.parametrize("triples, error", [
    ([(4, 1, 1)], ValueError),             # composite label
    ([(3, 1, 1), (9, 2, 1)], ValueError),  # composite label after a valid one
    ([(1, 1, 0)], ValueError),             # checked even with no multiplicity
    ([("p", 0, 1)], ValueError),           # k < 1
    ([("p", 1, -1)], ValueError),          # n < 0
    ([(2.0, 1, 1)], TypeError),
    ([(None, 1, 1)], TypeError),
    ([(["p"], 1, 1)], TypeError),
    ([("p", 1.5, 1)], TypeError),           # no place in the sequence over 1, 2, ...
])
def test_pattern_rejects_bad_triples(triples, error):
    with pytest.raises(error):
        Pattern(triples)


# --- order axioms and family properties --------------------------------------


def test_partial_order_axioms_small():
    pats = patterns_two_labels(3)
    for a in pats:
        assert pattern_leq(a, a)
    for a, b in itertools.permutations(pats, 2):
        if pattern_leq(a, b) and pattern_leq(b, a):
            assert a == b
    leq = {(i, j) for i, a in enumerate(pats) for j, b in enumerate(pats) if pattern_leq(a, b)}
    for (i, j) in leq:
        for k in range(len(pats)):
            if (j, k) in leq:
                assert (i, k) in leq


def test_leq_implies_sigma_monotone_small():
    pats = patterns_two_labels(3)
    for a, b in itertools.product(pats, repeat=2):
        if pattern_leq(a, b):
            assert sigma(a) <= sigma(b)


def test_add_is_commutative_monoid_and_monotone():
    pats = patterns_two_labels(2)
    for a, b in itertools.product(pats, repeat=2):
        assert pattern_add(a, b) == pattern_add(b, a)
        assert sigma(pattern_add(a, b)) == sigma(a) + sigma(b)
        if pattern_leq(a, b):
            for c in pats:
                assert pattern_leq(pattern_add(a, c), pattern_add(b, c))
    for a, b, c in itertools.product(pats[:8], repeat=3):
        assert pattern_add(pattern_add(a, b), c) == pattern_add(a, pattern_add(b, c))


def test_distinct_patterns_generate_disjoint_sets():
    asg = {"p": (2, 3, 5, 7), "q": (11, 13, 17, 19)}
    pats = [p for p in patterns_two_labels(4) if all(p.slots(lab) <= 4 for lab in p.support)]
    by_sigma = {}
    for p in pats:
        by_sigma.setdefault(sigma(p), []).append(p)
    for group in by_sigma.values():
        sets = [generate_falpha(p, asg) for p in group]
        for (i, s1), (j, s2) in itertools.combinations(enumerate(sets), 2):
            assert not (s1 & s2), (group[i], group[j])


def test_element_level_product():
    # product of generated numbers of disjoint-support patterns lands in the sum pattern
    alpha = P(("p", 1, 2))
    beta = P(("q", 2, 1))
    asg = {"p": (3, 5, 7), "q": (2, 11)}
    s_a = generate_falpha(alpha, asg)
    s_b = generate_falpha(beta, asg)
    s_ab = generate_falpha(pattern_add(alpha, beta), asg)
    for a in s_a:
        for b in s_b:
            assert a * b in s_ab


def test_parse_pattern_roundtrip():
    for text in ("{}", "(p,1)x2", "(p,1)x2,(p,2)x2,(q,1)x2", "(2,3),(3,2),(5,1)"):
        pat = parse_pattern(text)
        assert parse_pattern(pat.to_text()) == pat
    assert parse_pattern("(p,1) x2, (q,2)") == P(("p", 1, 2), ("q", 2, 1))
    with pytest.raises(ValueError):
        parse_pattern("(p,0)")
    with pytest.raises(ValueError):
        parse_pattern("p,1")


def test_parse_assignment():
    asg = parse_assignment("p:3,5,7;q:11,13")
    assert asg == {"p": (3, 5, 7), "q": (11, 13)}
    assert parse_assignment("2:2;3:3") == {2: (2,), 3: (3,)}
    with pytest.raises(ValueError):
        parse_assignment("p")
