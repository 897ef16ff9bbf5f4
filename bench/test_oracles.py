"""Tests of the benchmark's own oracles.

    python3 -m pytest -q bench/test_oracles.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ultradiv.coloring import color_pair, is_thick_bounded, ThickParams  # noqa: E402


def test_block_formula_matches_color_pair():
    for b in range(2, 513):
        for a in range(1, b):
            assert oracles.dyadic_color(a, b) == color_pair(a, b), (a, b)


def test_spf_sieve_and_trial_division_match_sympy():
    sympy = pytest.importorskip("sympy")
    spf = oracles.SpfTable()
    for n in range(1, 10**4 + 1):
        assert spf.factor(n) == sympy.factorint(n), n
    primes = oracles.primes_upto(400_000)
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 16 * 10**10)
        assert oracles.trial_factor(n, primes) == sympy.factorint(n), n


def test_thick_brute_force_matches_library():
    rng = random.Random(1)
    primes = oracles.first_primes(14)
    for _ in range(120):
        A = rng.sample(primes, rng.randint(1, 7))
        m, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3)
        want = is_thick_bounded(A, ThickParams(m, k, n)).thick
        assert workloads.brute_thick(A, m, k, n) == want, (A, m, k, n)


def _plant(lib, name, wrong):
    setattr(lib, name, wrong)
    return lib


PLANTED = {
    "setlattice": lambda lib: _plant(lib, "quotient_set", lambda A, n: lib.NatSet()),
    "factor": lambda lib: _plant(lib, "divisors", lambda n: [1, n]),
    "thick": lambda lib: _plant(
        lib, "is_thick_bounded", lambda A, params: is_thick_bounded([], params)),
    "certify": lambda lib: _plant(lib, "product_member", lambda A, x, y: True),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_answer_is_counted_as_failed(name):
    lib = workloads.library()
    wl = workloads.WORKLOADS[name](lib, seed=5)
    honest = run.Loop()
    honest.round(wl, lib, wl.round(1))
    assert honest.failures == []
    planted = run.Loop()
    planted.round(wl, PLANTED[name](workloads.library()), wl.round(1))
    assert len(planted.failures) > len(honest.failures)


def test_psi_probe_counts_misjudged_pseudoprimes():
    sympy = pytest.importorskip("sympy")
    for psi, fac in workloads.PSI_FACTORS.items():
        assert sympy.factorint(psi) == fac
    lib = workloads.library()
    assert workloads.psi_misjudged(_plant(lib, "is_prime", lambda n: False)) == 0
    assert workloads.psi_misjudged(_plant(lib, "is_prime", lambda n: True)) == 2
    assert sympy.factorint(workloads.math.prod(workloads.CLI_SEMIPRIME)) == workloads.CLI_SEMIPRIME
