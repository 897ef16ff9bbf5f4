"""ultradiv: exact divisor-lattice combinatorics at desk scale.

Divisor closures and quotient sets, factorization patterns with a
domination order and constructive witnesses, bounded-universe filter
divisibility with the product formula, dyadic pair colorings with
exhaustive verifiers, and the greedy machinery built on top of them.

The public names below load their submodule on first use (PEP 562), so
`import ultradiv` itself compiles none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "NatSet", "coprime_power", "coprime_product", "factorize", "level_of", "prime_index",
        "quotient_set", "up_closure",
    ), "arith"),
    **dict.fromkeys((
        "ThickParams", "check_thick_lemmas", "class_of", "color_pair", "color_tuple",
        "coloring_from_set", "find_monochromatic", "is_thick_bounded", "verify_progr",
        "verify_refinement",
    ), "coloring"),
    **dict.fromkeys((
        "ECFunction", "ec_enumerate", "g_value", "greedy_thick_extend", "verify_g_disjoint",
    ), "constructions"),
    **dict.fromkeys((
        "FinFilter", "divides_down", "divides_up", "image_filter", "product_member",
        "product_principal",
    ), "filters"),
    **dict.fromkeys((
        "Pattern", "dominates", "extend_divisible", "generate_falpha", "pattern_add",
        "pattern_leq", "pattern_of", "restrict", "shape_class", "shape_name", "sigma",
        "witness_set",
    ), "patterns"),
}
_SUBMODULES = ("arith", "coloring", "constructions", "filters", "guards", "patterns")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
