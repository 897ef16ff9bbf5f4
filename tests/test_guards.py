import json
import math

import pytest

from ultradiv import coloring
from ultradiv.arith import first_primes
from ultradiv.cli import main
from ultradiv.coloring import ThickParams, is_thick_bounded, verify_progr, verify_refinement
from ultradiv.guards import ENV_VAR, GuardExceeded, check_guard
from ultradiv.patterns import Pattern, generate_falpha


def test_check_guard_basics():
    check_guard(5, 10, "x")
    with pytest.raises(GuardExceeded):
        check_guard(11, 10, "x")
    check_guard(11, 10, "x", cap=0)  # explicit cap <= 0 disables
    with pytest.raises(GuardExceeded):
        check_guard(11, 10, "x", cap=10)


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


def test_generate_guard(monkeypatch):
    # 20 choose 10 candidate sets would blow the (tiny) cap
    pat = Pattern([("p", 1, 10)])
    asg = {"p": tuple(first_primes(20))}
    with pytest.raises(GuardExceeded):
        generate_falpha(pat, asg, max_elements=1000)
    monkeypatch.setenv(ENV_VAR, "1000")
    with pytest.raises(GuardExceeded):
        generate_falpha(pat, asg)


def test_thick_guard_env(monkeypatch):
    params = ThickParams(m_max=4, k_max=1, n=2)
    with pytest.raises(GuardExceeded):
        is_thick_bounded(first_primes(5), params)
    monkeypatch.setenv(ENV_VAR, "off")
    assert is_thick_bounded(first_primes(5), params).thick is not None


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
    assert f" = {estimate} exceeds guard cap {coloring.MAX_VERIFY_WORK};" in rep["error"]
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
