import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from test_imports import SRC, SUBCOMMANDS
from ultradiv import arith, cli, patterns
from ultradiv.cli import build_parser, main
from ultradiv.guards import ENV_VAR
from ultradiv.patterns import pattern_of, shape_class, shape_name, sigma


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_classify(capsys):
    code, rep = run_json(capsys, "classify", "360")
    assert code == 0
    assert rep["level"] == 6 and rep["shape"] == [3, 2, 1]
    assert rep["primality"] == "proven"
    code, rep = run_json(capsys, "classify", "1")
    assert code == 0 and rep["level"] == 0 and "shape" not in rep
    code, rep = run_json(capsys, "classify", "210")
    assert rep["class"] == "P^(4)"
    # the next prime after psi_12: only Baillie-PSW vouches for it
    code, rep = run_json(capsys, "classify", "318665857834031151167483")
    assert code == 0 and rep["primality"] == "probable"
    assert rep["class"] == "P" and rep["level"] == 1


@pytest.mark.parametrize("n", [
    1, 2, 4, 360, 2**40, 561,
    sympy.nextprime(1_500_000) * sympy.nextprime(10**15),  # the benchmark's semiprime
    sympy.nextprime(arith._PSI_12),
])
def test_classify_factorizes_once_and_matches_the_library(capsys, monkeypatch, n):
    calls = []
    factorize = arith.factorize
    for module in (arith, patterns):  # patterns holds its own reference
        monkeypatch.setattr(module, "factorize", lambda m: calls.append(m) or factorize(m))
    code, rep = run_json(capsys, "classify", str(n))
    assert code == 0 and calls == [n]
    monkeypatch.undo()
    pat = pattern_of(n)
    expected = {
        "command": "classify", "params": {"n": n}, "outcome": "value", "n": n,
        "level": arith.level_of(n), "sigma": sigma(pat), "pattern": pat.to_text(),
        "primality": "proven" if all(p < arith._PSI_12 for p, _k in pat.entries) else "probable",
    }
    if n > 1:
        expected["shape"] = list(shape_class(n))
        expected["class"] = shape_name(shape_class(n))
    assert rep.pop("elapsed_ms") >= 0
    assert rep == expected


def test_divides(capsys):
    code, rep = run_json(capsys, "divides", "6", "42")
    assert code == 0 and rep["divides_up"] and rep["divides_down"]
    _, rep = run_json(capsys, "divides", "6", "10")
    assert not rep["divides_up"] and not rep["divides_down"]
    _, rep = run_json(capsys, "divides", "1", "999", "--universe", "2000")
    assert rep["divides_up"] and rep["divides_down"]


def test_product(capsys):
    code, rep = run_json(capsys, "product", "2", "3", "--universe", "100")
    assert code == 0 and rep["value"] == 6
    _, rep = run_json(capsys, "product", "7", "11")
    assert rep["value"] == 77
    assert rep["params"] == {"m": 7, "n": 11, "universe": 77}
    code, rep = run_json(capsys, "product", "20", "30", "--universe", "100")
    assert code == 2 and rep["outcome"] == "error"


@pytest.mark.parametrize("argv", [
    ["divides", "6", "42", "--universe", "0"],
    ["product", "7", "11", "--universe", "0"],
])
def test_universe_zero_is_a_usage_error(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["outcome"] == "error"
    assert rep["params"]["universe"] == 0


def test_color(capsys):
    assert run_json(capsys, "color", "pair", "5", "6")[1]["color"] == 1
    assert run_json(capsys, "color", "tuple", "4", "6", "7", "9")[1]["color"] == 2
    assert run_json(capsys, "color", "class", "2", "143")[1]["class"] == 1
    code, rep = run_json(capsys, "color", "class", "2", "4")
    assert code == 2 and rep["outcome"] == "error"


def test_usage_error_report_carries_elapsed_ms(capsys):
    code, rep = run_json(capsys, "product", "20", "30", "--universe", "100")
    assert code == 2
    assert list(rep) == ["command", "params", "outcome", "error", "elapsed_ms"]
    assert rep["params"] == {"m": 20, "n": 30, "universe": 100}


EXIT_CODES = {"value": 0, "pass": 0, "fail": 1, "error": 2, "internal_error": 3}

# one error per subcommand form of test_imports.SUBCOMMANDS, in the same order;
# thick-lemmas' error here is a guard set to 1; its bad --samples values are
# in test_vacuous_verifier_bounds_are_usage_errors
ERROR_FORMS = [
    (["classify", "0"], {}),
    (["divides", "6", "42", "--universe", "10"], {}),
    (["product", "20", "30", "--universe", "100"], {}),
    (["color", "pair", "4", "4"], {}),
    (["verify", "progr", "--a0-max", "0"], {}),
    (["verify", "refinement", "--index-bound", "2"], {}),
    (["verify", "thick-lemmas", "--samples", "2"], {ENV_VAR: "1"}),
    (["verify", "g-disjoint", "--count", "0"], {}),
    (["falpha", "(p,1)x2", "--assign", "p:3"], {}),
    (["witness", "(p,1)", "(p,2)", "--assign", "p:2,3"], {}),
    (["extend", "14", "(p,1)x2", "(p,1)x3", "--assign", "p:3,5,7"], {}),
    (["thick", "2,3,5", "--m-max", "0"], {}),
    (["ecfun", "0"], {}),
    (["greedy", "--seeds", "2", "--candidates", "-"], {}),
]


def form(argv):
    return argv[:2] if argv[0] == "verify" else argv[:1]


def test_error_forms_match_the_subcommand_forms():
    assert [form(a) for a, _env in ERROR_FORMS] == [form(a) for a, _needed in SUBCOMMANDS]


SCHEMA_CASES = [(argv, {}, "success") for argv, _needed in SUBCOMMANDS]
SCHEMA_CASES += [(argv, env, "error") for argv, env in ERROR_FORMS]
SCHEMA_CASES += [(["verify", "progr", "--k", "1", "--a0-max", "8", "--d-max", "4"], {}, "fail")]


@pytest.mark.parametrize("argv, env, kind", SCHEMA_CASES,
                         ids=[f"{kind}: {' '.join(a[:2])}" for a, _e, kind in SCHEMA_CASES])
def test_every_report_shares_one_envelope(capsys, monkeypatch, argv, env, kind):
    monkeypatch.delenv(ENV_VAR, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, rep = run_json(capsys, *argv)
    keys = list(rep)
    assert keys[:3] == ["command", "params", "outcome"] and keys[-1] == "elapsed_ms"
    assert rep["command"] == argv[0] and isinstance(rep["params"], dict)
    assert code == EXIT_CODES[rep["outcome"]]
    if kind == "success":
        assert rep["outcome"] in ("value", "pass")
    else:
        assert rep["outcome"] == kind
    if kind == "error":
        assert keys == ["command", "params", "outcome", "error", "elapsed_ms"]
    if argv[0] == "verify":
        assert rep["params"]["suite"] == argv[1]


@pytest.mark.parametrize("argv", [
    ["classify", "360", "--seed", "4"],
    ["classify", "360", "--universe", "3"],
    ["divides", "6", "42", "--window", "9"],
    ["witness", "(p,2)", "(p,1)", "--universe", "9"],
    ["verify", "progr", "--count", "5"],
    ["verify", "refinement", "--samples", "3"],
    ["verify", "g-disjoint", "--seed", "1"],
    # ULTRADIV_GUARD is the one way to lift a guard: no per-call cap flags
    ["thick", "2,3,5", "--max-set", "20"],
    ["thick", "2,3,5", "--max-parts", "5"],
    ["greedy", "--seeds", "2,3", "--max-set", "20"],
    ["greedy", "--seeds", "2,3", "--max-parts", "5"],
    ["falpha", "(p,1)x2", "--assign", "p:3,5,7", "--max-elements", "10"],
])
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def stalled(args, params):
        params["count"] = args.count
        raise RuntimeError("enumeration stalled")

    monkeypatch.setattr(cli, "cmd_ecfun", stalled)
    code = main(["ecfun", "5", "--format", "json"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 3  # not 1, which means "violations found"
    assert rep["command"] == "ecfun" and rep["outcome"] == "internal_error"
    assert rep["error_type"] == "RuntimeError" and rep["error"] == "enumeration stalled"
    assert list(rep) == ["command", "params", "outcome", "error_type", "error", "elapsed_ms"]
    assert rep["params"] == {"count": 5} and rep["elapsed_ms"] >= 0
    assert "Traceback" in captured.err


def test_verify_suites(capsys):
    code, rep = run_json(capsys, "verify", "refinement", "--arity", "2",
                         "--index-bound", "12")
    assert code == 0 and rep["outcome"] == "pass"
    code, rep = run_json(capsys, "verify", "progr", "--k", "2", "--a0-max", "64",
                         "--d-max", "16")
    assert code == 0 and rep["violation_count"] == 0
    code, rep = run_json(capsys, "verify", "progr", "--k", "1", "--a0-max", "8",
                         "--d-max", "4")
    assert code == 1 and rep["outcome"] == "fail"
    assert {"start": 3, "step": 3, "terms": [3, 6, 9]} in rep["violations"]
    code, rep = run_json(capsys, "verify", "thick-lemmas", "--samples", "40")
    assert code == 0 and rep["failure_count"] == 0
    code, rep = run_json(capsys, "verify", "g-disjoint", "--count", "50",
                         "--stages", "3")
    assert code == 0 and rep["collision_count"] == 0
    code, rep = run_json(capsys, "verify", "progr", "--k", "2", "--a0-max", "0",
                         "--d-max", "5")
    assert code == 2 and rep["outcome"] == "error"
    code, rep = run_json(capsys, "verify", "refinement", "--arity", "2",
                         "--index-bound", "0")
    assert code == 2 and rep["outcome"] == "error"


@pytest.mark.parametrize("argv", [
    ["thick-lemmas", "--samples", "0"],
    ["thick-lemmas", "--samples", "-3"],
    ["g-disjoint", "--stages", "0"],
    ["g-disjoint", "--stages", "1"],
    ["g-disjoint", "--stages", "-2"],
])
def test_vacuous_verifier_bounds_are_usage_errors(capsys, argv):
    code, rep = run_json(capsys, "verify", *argv)
    assert code == 2 and rep["outcome"] == "error"


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_falpha(capsys):
    code, rep = run_json(capsys, "falpha", "(p,1)x2", "--assign", "p:3,5,7")
    assert code == 0 and rep["values"] == [15, 21, 35]
    # combined "pattern | assignment" form
    _, rep = run_json(capsys, "falpha", "(p,1),(q,1) | p:2;q:5,7")
    assert rep["values"] == [10, 14]
    code, rep = run_json(capsys, "falpha", "(p,1)x5", "--assign", "p:3,5")
    assert code == 2 and "insufficient" in rep["error"].lower() or "needs" in rep["error"]


def test_witness(capsys):
    code, rep = run_json(capsys, "witness", "(p,2)", "(p,1)", "--assign", "p:2,3")
    assert code == 0 and rep["outcome"] == "pass"
    assert rep["certificate"]["threshold"] == 2
    assert rep["certificate"]["generators"] == [4, 9]
    code, rep = run_json(capsys, "witness", "(p,1)", "(p,1)x2", "--assign", "p:2,3")
    assert code == 2 and "no witness" in rep["error"]


def test_extend(capsys):
    code, rep = run_json(capsys, "extend", "15", "(p,1)x2", "(p,1)x3",
                         "--assign", "p:3,5,7")
    assert code == 0 and rep["value"] == 105


@pytest.mark.parametrize("seed", ["1", "2"])
def test_extend_names_the_first_mismatched_label_under_any_hash_seed(seed):
    # both labels mismatch; the error names the first in label order, not in set order
    proc = subprocess.run(
        [sys.executable, "-m", "ultradiv.cli", "extend", "225", "(p,1),(q,1)", "(p,1),(q,1)",
         "--assign", "p:3;q:5", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "225 is not generated by the first pattern at 'p'"


def test_thick(capsys):
    code, rep = run_json(capsys, "thick", "2,3,5,7,11,13,17,19", "--k-max", "1")
    assert code == 0 and rep["thick"] is True
    _, rep = run_json(capsys, "thick", "2")
    assert rep["thick"] is False


def test_thick_huge_k_max_answers_at_once(capsys):
    # colors of indices <= 3 stop at 2, so k_max is clamped to 3 before any class set is built
    _, small = run_json(capsys, "thick", "2,3,5", "--k-max", "4")
    code, huge = run_json(capsys, "thick", "2,3,5", "--k-max", "1000000000000")
    assert code == 0 and huge["certificate"] == small["certificate"] == {
        "partition": [[2, 3, 5]], "missing": [3]}
    assert huge["elapsed_ms"] < 1000


def test_thick_with_the_guard_off_walks_a_thousand_primes(capsys, monkeypatch):
    # the partition walk keeps no Python frame per prime, so no RecursionError
    monkeypatch.setenv(ENV_VAR, "off")
    code, rep = run_json(capsys, "thick", ",".join(map(str, arith.first_primes(1000))))
    assert code == 0 and rep["outcome"] == "value" and rep["thick"] is True


@pytest.mark.parametrize("arg", ["", "-", ";"])
def test_thick_empty_set(capsys, arg):
    code, rep = run_json(capsys, "thick", arg)
    assert code == 0 and rep["params"]["primes"] == [] and rep["thick"] is False


def test_thick_takes_one_prime_set(capsys):
    # a second set used to be dropped, and {2, 3} alone tested
    code, rep = run_json(capsys, "thick", "2,3;5,7")
    assert code == 2 and rep["outcome"] == "error"
    assert rep["error"] == "thick takes one prime set, got 2"


@pytest.mark.parametrize("argv", [["classify", "360"], ["divides", "6", "42", "--universe", "100"]])
def test_malformed_guard_variable_fails_unguarded_commands(capsys, monkeypatch, argv):
    # neither command consults a guard, so the typo used to pass in silence
    monkeypatch.setenv(ENV_VAR, "of")
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["outcome"] == "error" and rep["command"] == argv[0]
    assert rep["error"] == f"{ENV_VAR}='of': expected off, 0 or a positive integer"
    assert list(rep)[-1] == "elapsed_ms"


def test_ecfun(capsys):
    code, rep = run_json(capsys, "ecfun", "4")
    assert code == 0
    assert rep["assignment"][0] == {"index": 2, "prefix": [], "tail": 2}
    assert rep["assignment"][2] == {"index": 5, "prefix": [2], "tail": 3}


def test_greedy(capsys):
    seeds = ",".join(str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    code, rep = run_json(capsys, "greedy", "--seeds", seeds, "--candidates", "-")
    assert code == 0 and rep["log"][0]["kept"] == "complement"


def test_reports_deterministic_modulo_timing(capsys):
    def strip(rep):
        rep.pop("elapsed_ms", None)
        return rep

    a = strip(run_json(capsys, "verify", "thick-lemmas", "--samples", "30",
                       "--seed", "7")[1])
    b = strip(run_json(capsys, "verify", "thick-lemmas", "--samples", "30",
                       "--seed", "7")[1])
    assert a == b
    c = strip(run_json(capsys, "witness", "(p,1)x2", "(p,1)", "--assign",
                       "p:3,5,7")[1])
    d = strip(run_json(capsys, "witness", "(p,1)x2", "(p,1)", "--assign",
                       "p:3,5,7")[1])
    assert c == d


def test_text_format_renders(capsys):
    code, out = run(capsys, "classify", "60")
    assert code == 0
    assert 'class: "P^2 P^(2)"' in out


README = Path(__file__).resolve().parent.parent / "README.md"
README_ONLY_FLAGS = {"--no-build-isolation"}  # pip's, in the install instructions


def long_options(parser):
    """Every --option of a parser and of its subparsers, recursively."""
    found = set()
    for action in parser._actions:
        found.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= long_options(sub)
    return found


def test_readme_names_exactly_the_parser_options():
    options = long_options(build_parser())
    named = set(re.findall(r"--[a-z][a-z0-9-]*", README.read_text()))
    assert options - named == set(), "options missing from README"
    assert named - options == README_ONLY_FLAGS, "README names options the parser lacks"
