"""Command-line front end.

Every subcommand runs one library operation or verifier and emits a
single structured report: one JSON object per line under --format json
(field order fixed for diff-based comparison), or an indented text
rendering.  A handler takes (args, params), records its arguments in
params as it reads them and returns (outcome, payload); main() wraps
every outcome, errors included, in one envelope: command, params,
outcome, the payload's fields, elapsed_ms.  Exit status follows the
outcome: 0 for a value or a passing verification, 1 when a verifier
found real violations, 2 for usage errors, 3 for an unexpected error
inside ultradiv.  Violation lists in reports are complete up to the
stated bounds; timing is the only non-deterministic field.  Handlers
import only the modules their subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .guards import GuardExceeded, _env_override

TEXT_LIST_CAP = 10  # text rendering truncates long lists; json never does


def _parse_prime_sets(text: str) -> list[set[int]]:
    """Semicolon-separated prime sets; "-" denotes an empty set."""
    groups = [g.strip() for g in text.split(";") if g.strip()]
    out = []
    for g in groups:
        if g == "-":
            out.append(set())
        else:
            out.append({int(p) for p in g.split(",") if p.strip()})
    return out


def _render_text(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
    elif isinstance(obj, list):
        shown = obj[:TEXT_LIST_CAP]
        for val in shown:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
        if len(obj) > TEXT_LIST_CAP:
            lines.append(f"{pad}... ({len(obj) - TEXT_LIST_CAP} more)")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, separators=(",", ":")))
    else:
        print("\n".join(_render_text(report)))


def _assignment(asg) -> dict:
    return {str(k): list(v) for k, v in asg.items()}


def cmd_classify(args, params):
    from .arith import _PSI_12
    from .patterns import pattern_of, restrict, shape_name, sigma

    n = params["n"] = args.n
    # one factorization feeds level, pattern and shape; one slot per prime makes level = sigma
    pat = pattern_of(n)
    level = sigma(pat)
    payload = {
        "n": n,
        "level": level,
        "sigma": level,
        "pattern": pat.to_text(),
        # is_prime proves primality below psi_12 and is Baillie-PSW from there on
        "primality": "proven" if all(p < _PSI_12 for p in pat.support) else "probable",
    }
    if n > 1:
        shape = sorted((len(restrict(pat, p)) for p in pat.support), reverse=True)
        payload["shape"] = shape
        payload["class"] = shape_name(shape)
    return "value", payload


def cmd_divides(args, params):
    from .filters import FinFilter, divides_down, divides_up

    m, n = args.m, args.n
    universe = max(m, n) if args.universe is None else args.universe
    params.update(m=m, n=n, universe=universe)
    if max(m, n) > universe:
        raise ValueError("arguments exceed the universe bound")
    x, y = FinFilter.principal(m, universe), FinFilter.principal(n, universe)
    return "value", {"divides_up": divides_up(x, y), "divides_down": divides_down(x, y)}


def cmd_product(args, params):
    from .filters import product_principal

    universe = args.m * args.n if args.universe is None else args.universe
    params.update(m=args.m, n=args.n, universe=universe)
    return "value", {"value": product_principal(args.m, args.n, universe)}


def cmd_color(args, params):
    from .coloring import class_of, color_pair, color_tuple

    mode, values = args.mode, args.values
    params["mode"] = mode
    if mode == "tuple":
        params["indices"] = sorted(set(values))
        return "value", {"color": color_tuple(values)}
    if len(values) != 2:
        raise ValueError("color pair needs exactly two numbers" if mode == "pair"
                         else "color class needs an arity and a number")
    if mode == "pair":
        params["a"], params["b"] = values
        return "value", {"color": color_pair(*values)}
    params["arity"], params["x"] = values
    return "value", {"class": class_of(*values)}


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def cmd_progr(args, params):
    from .coloring import verify_progr

    params.update(suite=args.suite, k=args.k, a0_max=args.a0_max, d_max=args.d_max)
    rep = verify_progr(args.k, args.a0_max, args.d_max)
    violations = [{"start": a0, "step": d, "terms": list(terms)}
                  for a0, d, terms in rep.violations]
    return _verdict(rep.ok), {"checked": rep.checked, "violation_count": len(violations),
                              "violations": violations}


def cmd_refinement(args, params):
    from .coloring import verify_refinement

    params.update(suite=args.suite, arity=args.arity, index_bound=args.index_bound)
    rep = verify_refinement(args.arity, args.index_bound)
    return _verdict(rep.ok), {"checked": rep.checked, "violation_count": len(rep.violations),
                              "violations": [list(v) for v in rep.violations]}


def cmd_thick_lemmas(args, params):
    from .coloring import check_thick_lemmas

    params.update(suite=args.suite, samples=args.samples, seed=args.seed)
    rep = check_thick_lemmas(samples=args.samples, seed=args.seed)
    return _verdict(rep.ok), {
        "monotone_hits": rep.monotone_hits,
        "union_hits": rep.union_hits,
        "arity_hits": rep.arity_hits,
        "failure_count": len(rep.failures),
        "failures": rep.failures,
    }


def cmd_g_disjoint(args, params):
    from itertools import combinations

    from .constructions import ec_enumerate, verify_g_disjoint

    params.update(suite=args.suite, count=args.count, stages=args.stages)
    if args.stages < 2:
        raise ValueError("stages must be >= 2")
    asg = ec_enumerate(args.count)
    pairs = list(combinations(range(1, args.stages + 1), 2))
    collisions = [{"m": m, "n": n, "index_m": im, "index_n": jn, "value": v}
                  for m, n in pairs for im, jn, v in verify_g_disjoint(asg, m, n).collisions]
    return _verdict(not collisions), {"pairs_checked": len(pairs),
                                      "collision_count": len(collisions),
                                      "collisions": collisions}


def cmd_falpha(args, params):
    from .patterns import generate_falpha, parse_assignment, parse_pattern

    raw_pattern, raw_assign = args.pattern, args.assign
    if "|" in raw_pattern and raw_assign is None:
        raw_pattern, raw_assign = raw_pattern.split("|", 1)
    pat, asg = parse_pattern(raw_pattern), parse_assignment(raw_assign or "")
    params.update(pattern=pat.to_text(), assignment=_assignment(asg))
    out = generate_falpha(pat, asg)
    return "value", {"size": len(out), "values": sorted(out)}


def _read_pair(args, params):
    """alpha, beta and --assign of witness and extend, parsed and recorded."""
    from .patterns import parse_assignment, parse_pattern

    alpha, beta = parse_pattern(args.alpha), parse_pattern(args.beta)
    asg = parse_assignment(args.assign or "")
    params.update(alpha=alpha.to_text(), beta=beta.to_text(), assignment=_assignment(asg))
    return alpha, beta, asg


def cmd_witness(args, params):
    from .patterns import witness_set

    alpha, beta, asg = _read_pair(args, params)
    params["window"] = args.window
    cert = witness_set(alpha, beta, asg, window=args.window)
    payload = {"certificate": cert.summary(),
               "alpha_set": sorted(cert.alpha_set),
               "beta_set": sorted(cert.beta_set)}
    if cert.upward is not None:
        payload["upward"] = sorted(cert.upward)
    return _verdict(cert.ok), payload


def cmd_extend(args, params):
    from .patterns import extend_divisible

    params["l"] = args.l
    value = extend_divisible(args.l, *_read_pair(args, params))
    return "value", {"value": value, "ratio": value // args.l}


def _thick_params(args, params):
    """The thickness bounds of thick and greedy, recorded and validated."""
    from .coloring import ThickParams

    params.update(m_max=args.m_max, k_max=args.k_max, arity=args.arity)
    return ThickParams(args.m_max, args.k_max, args.arity)


def cmd_thick(args, params):
    from .coloring import is_thick_bounded

    sets = _parse_prime_sets(args.primes)
    if len(sets) > 1:
        raise ValueError(f"thick takes one prime set, got {len(sets)}")
    primes = params["primes"] = sorted(sets[0]) if sets else []
    res = is_thick_bounded(primes, _thick_params(args, params))
    payload: dict = {"thick": res.thick}
    if res.certificate is not None:
        payload["certificate"] = res.certificate
    return "value", payload


def cmd_ecfun(args, params):
    from .constructions import ec_enumerate

    params["count"] = args.count
    listing = [{"index": i, "prefix": list(f.prefix), "tail": f.tail}
               for i, f in ec_enumerate(args.count).items()]
    return "value", {"assignment": listing}


def cmd_greedy(args, params):
    from .constructions import greedy_thick_extend

    seeds = _parse_prime_sets(args.seeds)
    candidates = _parse_prime_sets(args.candidates) if args.candidates else []
    params.update(seeds=[sorted(s) for s in seeds], candidates=[sorted(c) for c in candidates])
    family, log = greedy_thick_extend(seeds, candidates, _thick_params(args, params))
    dead = sum(1 for e in log if e["kept"] is None)
    return "value", {"family": [sorted(s) for s in family], "dead_ends": dead, "log": log}


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (one JSON object per line)")
    principal = argparse.ArgumentParser(add_help=False)  # divides, product
    principal.add_argument("m", type=int)
    principal.add_argument("n", type=int)
    principal.add_argument("--universe", type=int, default=None,
                           help="bound of the finite universe {1..N}")
    lifted = argparse.ArgumentParser(add_help=False)  # extend: the number to lift comes before the patterns
    lifted.add_argument("l", type=int)
    pair = argparse.ArgumentParser(add_help=False)  # witness, extend
    pair.add_argument("alpha")
    pair.add_argument("beta")
    pair.add_argument("--assign", default=None, help='prime pools "label:p1,p2;label:p1,..."')
    bounds = argparse.ArgumentParser(add_help=False)  # thick, greedy
    bounds.add_argument("--arity", type=int, default=2)
    bounds.add_argument("--k-max", type=int, default=1)
    bounds.add_argument("--m-max", type=int, default=1)

    def leaf(subparsers, name, fn, help, *parents):
        p = subparsers.add_parser(name, parents=[*parents, fmt], help=help)
        p.set_defaults(fn=fn)
        return p

    parser = argparse.ArgumentParser(
        prog="ultradiv",
        description="Divisor-lattice, pattern and coloring toolkit with "
                    "machine-readable verification reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = leaf(sub, "classify", cmd_classify, "level, pattern and shape class of a number")
    p.add_argument("n", type=int)
    leaf(sub, "divides", cmd_divides, "both divisibility routes on principal filters",
         principal)
    leaf(sub, "product", cmd_product, "principal filter product", principal)
    p = leaf(sub, "color", cmd_color, "pair color, tuple color, or product class")
    p.add_argument("mode", choices=("pair", "tuple", "class"))
    p.add_argument("values", type=int, nargs="+")

    verify = sub.add_parser("verify", help="run an exhaustive or randomized verifier suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    p = leaf(suites, "progr", cmd_progr, "progressions of length 2^k + 1 hold a k-colored pair")
    p.add_argument("--k", type=int, default=2, help="color index")
    p.add_argument("--a0-max", type=int, default=256, help="max start")
    p.add_argument("--d-max", type=int, default=32, help="max step")
    p = leaf(suites, "refinement", cmd_refinement,
             "tuples keep the block-tree color of their prefix")
    p.add_argument("--arity", type=int, default=2, help="product arity")
    p.add_argument("--index-bound", type=int, default=20, help="prime index bound")
    p = leaf(suites, "thick-lemmas", cmd_thick_lemmas,
             "randomized harness over the thickness closure properties")
    p.add_argument("--samples", type=int, default=100, help="instances per property")
    p.add_argument("--seed", type=int, default=0, help="seed of the instances")
    p = leaf(suites, "g-disjoint", cmd_g_disjoint, "stage images of the index maps are disjoint")
    p.add_argument("--count", type=int, default=100, help="index primes")
    p.add_argument("--stages", type=int, default=4, help="stage bound")

    p = leaf(sub, "falpha", cmd_falpha,
             'generate the set of a pattern, e.g. "(p,1)x2" --assign "p:3,5,7"')
    p.add_argument("pattern", help='entries "(label,exp)xmult", comma separated; '
                                   '"{}" for empty; "PATTERN | ASSIGN" also accepted')
    p.add_argument("--assign", default=None,
                   help='prime pools "label:p1,p2;label:p1,..."')
    p = leaf(sub, "witness", cmd_witness, "separating certificate for a non-dominated pair",
             pair)
    p.add_argument("--window", type=int, default=None,
                   help="also report the upward closure of the generators within {1..N}")
    leaf(sub, "extend", cmd_extend, "lift a generated number to a dominating pattern",
         lifted, pair)
    p = leaf(sub, "thick", cmd_thick, "bounded thickness test with certificate", bounds)
    p.add_argument("primes", help='one comma-separated prime set, e.g. "2,3,5,7"')
    p = leaf(sub, "ecfun", cmd_ecfun, "canonical eventually-constant function assignment")
    p.add_argument("count", type=int)
    p = leaf(sub, "greedy", cmd_greedy, "greedy thickness-preserving family extension", bounds)
    p.add_argument("--seeds", required=True,
                   help='prime sets "2,3,5;7,11", semicolon separated, "-" for the empty '
                        'set; a value that starts with "-" takes the form --seeds=VALUE')
    p.add_argument("--candidates", default="",
                   help='candidate prime sets, same syntax, e.g. --candidates="-;5,7"')
    return parser


EXIT_CODES = {"value": 0, "pass": 0, "fail": 1, "error": 2, "internal_error": 3}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    params: dict = {}  # each handler records its arguments here as it reads them
    try:
        _env_override()  # a malformed ULTRADIV_GUARD fails every command, guarded or not
        outcome, payload = args.fn(args, params)
    except (ValueError, GuardExceeded) as exc:
        outcome, payload = "error", {"error": str(exc)}
    except Exception as exc:  # a fault in ultradiv, kept apart from "violations found" (1)
        import traceback

        traceback.print_exc()
        outcome, payload = "internal_error", {"error_type": type(exc).__name__,
                                              "error": str(exc)}
    report = {"command": args.cmd, "params": params, "outcome": outcome, **payload,
              "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3)}
    emit(report, args.format)
    return EXIT_CODES[outcome]


if __name__ == "__main__":
    sys.exit(main())
