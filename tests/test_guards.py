import json
import math
import time

import pytest

from ultradiv import coloring
from ultradiv.arith import first_primes
from ultradiv.cli import main
from ultradiv.coloring import ThickParams, is_thick_bounded, verify_progr, verify_refinement
from ultradiv.guards import ENV_VAR, GuardExceeded, check_guard
from ultradiv.patterns import Pattern, generate_falpha


def test_check_guard_basics():
    check_guard(5, 10, "x")
    with pytest.raises(GuardExceeded, match=f"x = 11 exceeds guard cap 10; set {ENV_VAR}="):
        check_guard(11, 10, "x")


def test_env_override_disables(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "off")
    check_guard(10**9, 10, "x")
    monkeypatch.setenv(ENV_VAR, "0")
    check_guard(10**9, 10, "x")


def test_env_override_replaces_cap(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "20")
    check_guard(15, 10, "x")
    with pytest.raises(GuardExceeded):
        check_guard(25, 10, "x")


@pytest.mark.parametrize("raw", ["-5", "none", "of", "1e9", ""])
def test_env_override_rejects_other_values(monkeypatch, capsys, raw):
    # a negative cap, an undocumented word or a typo is an error, not a silent off or default
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(ValueError, match=f"{ENV_VAR}={raw!r}: expected off, 0 or a positive"):
        check_guard(5, 10, "x")
    code = main(["thick", "2,3,5,7,11", "--m-max", "4", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and ENV_VAR in rep["error"] and "guard cap" not in rep["error"]


def test_generate_guard(monkeypatch):
    # 20 choose 10 candidate sets would blow the (tiny) cap
    pat = Pattern([("p", 1, 10)])
    asg = {"p": tuple(first_primes(20))}
    monkeypatch.setenv(ENV_VAR, "1000")
    with pytest.raises(GuardExceeded, match="generated set size = 184756 exceeds guard cap 1000"):
        generate_falpha(pat, asg)


def test_thick_guard_env(monkeypatch):
    params = ThickParams(m_max=4, k_max=1, n=2)
    with pytest.raises(GuardExceeded):
        is_thick_bounded(first_primes(12), params)
    monkeypatch.setenv(ENV_VAR, "off")
    assert is_thick_bounded(first_primes(12), params).thick is not None


class Indexed(Exception):
    """Raised in place of prime_index: the call got past the guard."""


def refuse_prime_index(*args):
    raise Indexed


def thick_estimate(size, m_max):
    """The thickness guard's count: min(m, n)^(n-1) partitions of C(n, 2) pairs."""
    return min(m_max, size) ** (size - 1) * math.comb(size, 2)


@pytest.mark.parametrize("size, m_max", [(12, 3), (5, 4), (8, 4), (9, 4), (6, 10**9), (10, 4),
                                         (13, 1)])
def test_thick_guard_admits(monkeypatch, size, m_max):
    # every estimate here is at most 4^9 * C(10, 2) = 11,796,480 pair colorings
    monkeypatch.delenv(ENV_VAR, raising=False)
    res = is_thick_bounded(first_primes(size), ThickParams(m_max, 1, 2))
    assert res.thick in (True, False)


@pytest.mark.parametrize("size, m_max", [(14143, 1), (21, 2), (14, 3), (12, 4)])
def test_thick_guard_refuses_before_indexing(monkeypatch, size, m_max):
    # the first refused set size for each part count; one prime fewer reaches prime_index
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(coloring, "prime_index", refuse_prime_index)
    assert thick_estimate(size - 1, m_max) <= coloring.MAX_WORK < thick_estimate(size, m_max)
    with pytest.raises(GuardExceeded, match=f"thickness pair colorings = "
                       f"{thick_estimate(size, m_max)} exceeds guard cap {coloring.MAX_WORK};"):
        is_thick_bounded(first_primes(size), ThickParams(m_max, 1, 2))
    with pytest.raises(Indexed):
        is_thick_bounded(first_primes(size - 1), ThickParams(m_max, 1, 2))


def test_thick_guard_env_replaces_the_partition_cap(monkeypatch):
    # 5 primes in 4 parts (4^4 partitions of C(5, 2) pairs) pass the default but not a cap
    # of 100; past 2^64 partitions the guard sees 2^64, so no 18,000-digit power is built
    monkeypatch.setattr(coloring, "prime_index", refuse_prime_index)
    monkeypatch.setenv(ENV_VAR, "100")
    with pytest.raises(GuardExceeded, match="pair colorings = 2560 exceeds guard cap 100;"):
        is_thick_bounded(first_primes(5), ThickParams(4, 1, 2))
    monkeypatch.setenv(ENV_VAR, "100000")
    with pytest.raises(GuardExceeded,
                       match=f"thickness pair colorings = {2**64 * math.comb(5000, 2)} exceeds"):
        is_thick_bounded(first_primes(5000), ThickParams(5000, 1, 2))


@pytest.mark.parametrize("argv, estimate", [
    (["refinement", "--arity", "5", "--index-bound", "200"], math.comb(200, 6)),
    (["progr", "--k", "3", "--a0-max", "1000000", "--d-max", "1000000"], 10**12 * 36),
    # both sides of the binomial above 64: the estimate is its lower bound 2^64
    (["refinement", "--arity", "1000000", "--index-bound", "2000001"], 2**64),
])
def test_verifier_work_guards(monkeypatch, capsys, argv, estimate):
    def no_enumeration(*args):
        raise AssertionError("enumeration started before the guard")

    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(coloring, "combinations", no_enumeration)
    code = main(["verify", *argv, "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["outcome"] == "error"
    assert f" = {estimate} exceeds guard cap {coloring.MAX_WORK};" in rep["error"]
    assert rep["elapsed_ms"] < 1000


def test_verifier_work_guards_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1000")
    with pytest.raises(GuardExceeded, match="refinement tuples = 1140 "):
        verify_refinement(2, 20)
    with pytest.raises(GuardExceeded, match="progression pair checks = 10240 "):
        verify_progr(2, 64, 16)
    monkeypatch.setenv(ENV_VAR, "off")
    assert verify_refinement(2, 20).checked == 1140
    assert verify_progr(2, 64, 16).checked == 1024
    assert math.comb(130, 65) > 2**64  # the refinement guard's lower bound past side 64


@pytest.mark.parametrize("guard", [None, "100000"])
@pytest.mark.parametrize("k", [20000, 10**10])
def test_progr_guards_a_huge_k_before_building_its_length(monkeypatch, capsys, k, guard):
    # 2^k + 1 is estimated by its lower bound 2^64, so neither 2^k nor its
    # decimal form (over Python's 4300-digit limit at k = 20000) is built
    def no_enumeration(*args):
        raise AssertionError("enumeration started before the guard")

    monkeypatch.delenv(ENV_VAR, raising=False)
    if guard is not None:
        monkeypatch.setenv(ENV_VAR, guard)
    monkeypatch.setattr(coloring, "combinations", no_enumeration)
    t0 = time.perf_counter()
    code = main(["verify", "progr", "--k", str(k), "--a0-max", "1", "--d-max", "1",
                 "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["outcome"] == "error"
    assert f"progression pair checks = {math.comb(2**64, 2)} exceeds guard cap" in rep["error"]
    assert time.perf_counter() - t0 < 1


def test_progr_guard_admits_k13_and_refuses_k14_at_one_start_and_step(monkeypatch):
    # C(2^13 + 1, 2) = 33,558,528 pair checks pass the cap, C(2^14 + 1, 2) does not
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert verify_progr(13, 1, 1).checked == 1
    with pytest.raises(GuardExceeded, match=f"progression pair checks = {math.comb(2**14 + 1, 2)} "
                                            f"exceeds guard cap {coloring.MAX_WORK};"):
        verify_progr(14, 1, 1)


@pytest.mark.parametrize("a0_max, d_max, checked", [(1, 1, 1), (3, 3, 9)])
def test_progr_at_the_longest_guarded_length_builds_no_pair_list(monkeypatch, a0_max, d_max,
                                                               checked):
    # k = 12 passes the guard at 3 starts and 3 steps (C(4097, 2) pair checks each);
    # the verifier walks gaps lazily and never enumerates the pairs
    def no_enumeration(*args):
        raise AssertionError("pair list built")

    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(coloring, "combinations", no_enumeration)
    rep = verify_progr(12, a0_max, d_max)
    assert rep.checked == checked and rep.violations == []
