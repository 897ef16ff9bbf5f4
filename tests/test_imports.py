"""The import surface: a fresh process loads only what its answer needs,
the package exports exactly its public names, and each of them has a
caller in the product."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultradiv

SRC = Path(ultradiv.__file__).resolve().parent.parent

# The names `ultradiv` exports, each defined in its submodule.
PUBLIC = {
    "arith": ["NatSet", "coprime_power", "coprime_product", "factorize", "level_of",
              "prime_index", "quotient_set", "up_closure"],
    "coloring": ["ThickParams", "check_thick_lemmas", "class_of", "color_pair", "color_tuple",
                 "coloring_from_set", "find_monochromatic", "is_thick_bounded",
                 "verify_progr", "verify_refinement"],
    "constructions": ["ECFunction", "ec_enumerate", "g_value", "greedy_thick_extend",
                      "verify_g_disjoint"],
    "filters": ["FinFilter", "divides_down", "divides_up", "image_filter", "product_member",
                "product_principal"],
    "patterns": ["Pattern", "dominates", "extend_divisible", "generate_falpha", "pattern_add",
                 "pattern_leq", "pattern_of", "restrict", "shape_class", "shape_name", "sigma",
                 "witness_set"],
}

ALWAYS = {"ultradiv", "ultradiv.cli", "ultradiv.guards"}
COLORING = {"ultradiv.arith", "ultradiv.coloring"}
CONSTRUCTIONS = COLORING | {"ultradiv.constructions"}
FILTERS = {"ultradiv.arith", "ultradiv.filters"}
PATTERNS = {"ultradiv.arith", "ultradiv.patterns"}

SUBCOMMANDS = [
    (["classify", "360"], PATTERNS),
    (["divides", "6", "42"], FILTERS),
    (["product", "7", "11"], FILTERS),
    (["color", "pair", "4", "6"], COLORING),
    (["verify", "progr", "--a0-max", "8", "--d-max", "4"], COLORING),
    (["verify", "refinement", "--index-bound", "6"], COLORING),
    (["verify", "thick-lemmas", "--samples", "2"], COLORING),
    (["verify", "g-disjoint", "--count", "5", "--stages", "2"], CONSTRUCTIONS),
    (["falpha", "(p,1)x2", "--assign", "p:3,5,7"], PATTERNS),
    (["witness", "(p,2)", "(p,1)", "--assign", "p:2,3"], PATTERNS),
    (["extend", "15", "(p,1)x2", "(p,1)x3", "--assign", "p:3,5,7"], PATTERNS),
    (["thick", "2,3,5,7"], COLORING),
    (["ecfun", "3"], CONSTRUCTIONS),
    (["greedy", "--seeds", "2,3,5", "--candidates", "-"], CONSTRUCTIONS),
]


def fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, needed", SUBCOMMANDS, ids=[" ".join(a[:2]) for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(argv, needed):
    loaded = set(json.loads(fresh_python(
        "import json, sys\n"
        "from ultradiv.cli import main\n"
        f"assert main({argv!r} + ['--format', 'json']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )))
    assert {m for m in loaded if m.split(".")[0] == "ultradiv"} == ALWAYS | needed
    # dataclasses pulls in inspect: milliseconds of every cold call
    assert not loaded & {"dataclasses", "inspect"}


def test_bare_import_loads_no_submodule_but_reaches_all():
    out = fresh_python(
        "import sys, ultradiv\n"
        "before = sorted(m for m in sys.modules if m.startswith('ultradiv.'))\n"
        "print(before, ultradiv.arith.factorize(360))\n"
    )
    assert out == "[] {2: 3, 3: 2, 5: 1}"


def test_every_public_name_resolves_to_its_definition():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"ultradiv.{module}")
        for name in names:
            assert getattr(ultradiv, name) is getattr(defining, name), name
    assert sorted(ultradiv.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert set(ultradiv.__all__) <= set(dir(ultradiv))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ultradiv.no_such_name  # noqa: B018
    assert not hasattr(ultradiv, "cmd_classify")
    with pytest.raises(ImportError):
        from ultradiv import no_such_name  # noqa: F401


# Where a public name earns its place: code in an acceptance test or a bench
# workload (read only), or in src/, the CLI included (below).  Prose and
# string literals do not count.
REACHING = [SRC.parent / "tests" / "test_acceptance.py",
            SRC.parent / "bench" / "workloads.py", SRC.parent / "bench" / "oracles.py"]


def _names_read(tree: ast.AST) -> set[str]:
    """Names and attribute names a tree reads, type annotations left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            node.annotation = ast.Constant(None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _read_elsewhere_in_src(name: str) -> bool:
    """Some src/ statement reads name, outside its own definition and the
    export lists."""
    for path in (SRC / "ultradiv").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                continue
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS")
                    for t in node.targets):
                continue
            if name in _names_read(node):
                return True
    return False


def test_every_public_name_has_a_caller_in_the_product():
    read = set().union(*(_names_read(ast.parse(path.read_text())) for path in REACHING))
    unreached = [name for name in ultradiv._EXPORTS
                 if name not in read and not _read_elsewhere_in_src(name)]
    assert unreached == []
