"""Command-line front end.

Every subcommand runs one library operation or verifier and emits a
single structured report: one JSON object per line under --format json
(field order fixed for diff-based comparison), or an indented text
rendering.  Exit status is 0 for a value or a passing verification, 1
when a verifier found real violations, 2 for usage errors.  Violation
lists in reports are complete up to the stated bounds; timing is the
only non-deterministic field.  Exit status 3 marks an unexpected error
inside ultradiv.  Handlers import only the modules their subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .guards import GuardExceeded

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


def _report(command: str, params: dict, outcome: str, payload: dict, t0: float) -> dict:
    rep = {"command": command, "params": params, "outcome": outcome}
    rep.update(payload)
    rep["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return rep


def cmd_classify(args, t0):
    from .arith import _PSI_12, factorize
    from .patterns import Pattern, shape_name, sigma

    n = args.n
    # one factorization feeds what level_of, pattern_of and shape_class would each redo
    fac = factorize(n)
    pat = Pattern([(p, e, 1) for p, e in fac.items()])
    payload = {
        "n": n,
        "level": sum(fac.values()),
        "sigma": sigma(pat),
        "pattern": pat.to_text(),
        # is_prime proves primality below psi_12 and is Baillie-PSW from there on
        "primality": "proven" if all(p < _PSI_12 for p in fac) else "probable",
    }
    if n > 1:
        shape = tuple(sorted(fac.values(), reverse=True))
        payload["shape"] = list(shape)
        payload["class"] = shape_name(shape)
    return _report("classify", {"n": n}, "value", payload, t0), 0


def cmd_divides(args, t0):
    from .filters import FinFilter, divides_down, divides_up

    universe = args.universe or max(args.m, args.n)
    if max(args.m, args.n) > universe:
        raise ValueError("arguments exceed the universe bound")
    x = FinFilter.principal(args.m, universe)
    y = FinFilter.principal(args.n, universe)
    up, down = divides_up(x, y), divides_down(x, y)
    params = {"m": args.m, "n": args.n, "universe": universe}
    return _report("divides", params, "value",
                   {"divides_up": up, "divides_down": down}, t0), 0


def cmd_product(args, t0):
    from .filters import product_principal

    W = args.universe or args.m * args.n
    value = product_principal(args.m, args.n, W)
    params = {"m": args.m, "n": args.n, "universe": W}
    return _report("product", params, "value", {"value": value}, t0), 0


def cmd_color(args, t0):
    from .coloring import class_of, color_pair, color_tuple

    if args.mode == "pair":
        if len(args.values) != 2:
            raise ValueError("color pair needs exactly two numbers")
        a, b = args.values
        return _report("color", {"mode": "pair", "a": a, "b": b}, "value",
                       {"color": color_pair(a, b)}, t0), 0
    if args.mode == "tuple":
        return _report("color", {"mode": "tuple", "indices": sorted(set(args.values))},
                       "value", {"color": color_tuple(args.values)}, t0), 0
    if len(args.values) != 2:
        raise ValueError("color class needs an arity and a number")
    arity, x = args.values
    return _report("color", {"mode": "class", "arity": arity, "x": x}, "value",
                   {"class": class_of(arity, x)}, t0), 0


def cmd_verify(args, t0):
    from .coloring import check_thick_lemmas, verify_progr, verify_refinement

    suite = args.suite
    if suite == "progr":
        rep = verify_progr(args.k, args.a0_max, args.d_max)
        params = {"suite": suite, "k": args.k, "a0_max": args.a0_max, "d_max": args.d_max}
        payload = {
            "checked": rep.checked,
            "violation_count": len(rep.violations),
            "violations": [
                {"start": a0, "step": d, "terms": list(terms)}
                for a0, d, terms in rep.violations
            ],
        }
        ok = rep.ok
    elif suite == "refinement":
        rep = verify_refinement(args.arity, args.index_bound)
        params = {"suite": suite, "arity": args.arity, "index_bound": args.index_bound}
        payload = {
            "checked": rep.checked,
            "violation_count": len(rep.violations),
            "violations": [list(v) for v in rep.violations],
        }
        ok = rep.ok
    elif suite == "thick-lemmas":
        rep = check_thick_lemmas(samples=args.samples, seed=args.seed)
        params = {"suite": suite, "samples": args.samples, "seed": args.seed}
        payload = {
            "monotone_hits": rep.monotone_hits,
            "union_hits": rep.union_hits,
            "arity_hits": rep.arity_hits,
            "failure_count": len(rep.failures),
            "failures": rep.failures,
        }
        ok = rep.ok
    elif suite == "g-disjoint":
        from .constructions import ec_enumerate, verify_g_disjoint

        asg = ec_enumerate(args.count)
        collisions = []
        pairs = 0
        for m in range(1, args.stages + 1):
            for n in range(m + 1, args.stages + 1):
                pairs += 1
                sub = verify_g_disjoint(asg, m, n)
                collisions.extend(
                    {"m": m, "n": n, "index_m": im, "index_n": jn, "value": v}
                    for im, jn, v in sub.collisions
                )
        params = {"suite": suite, "count": args.count, "stages": args.stages}
        payload = {"pairs_checked": pairs, "collision_count": len(collisions),
                   "collisions": collisions}
        ok = not collisions
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown suite {suite!r}")
    return _report("verify", params, "pass" if ok else "fail", payload, t0), (0 if ok else 1)


def _pattern_and_assignment(raw_pattern: str, raw_assign: str | None):
    from .patterns import parse_assignment, parse_pattern

    if "|" in raw_pattern and raw_assign is None:
        raw_pattern, raw_assign = raw_pattern.split("|", 1)
    if raw_assign is None:
        raw_assign = ""
    return parse_pattern(raw_pattern), parse_assignment(raw_assign)


def cmd_falpha(args, t0):
    from .patterns import generate_falpha

    pat, asg = _pattern_and_assignment(args.pattern, args.assign)
    out = generate_falpha(pat, asg, max_elements=args.max_elements)
    params = {"pattern": pat.to_text(),
              "assignment": {str(k): list(v) for k, v in asg.items()}}
    return _report("falpha", params, "value",
                   {"size": len(out), "values": sorted(out)}, t0), 0


def cmd_witness(args, t0):
    from .patterns import parse_assignment, parse_pattern, witness_set

    alpha = parse_pattern(args.alpha)
    beta = parse_pattern(args.beta)
    asg = parse_assignment(args.assign or "")
    cert = witness_set(alpha, beta, asg, window=args.window)
    params = {
        "alpha": alpha.to_text(), "beta": beta.to_text(),
        "assignment": {str(k): list(v) for k, v in asg.items()},
        "window": args.window,
    }
    payload = {"certificate": cert.summary(),
               "alpha_set": sorted(cert.alpha_set),
               "beta_set": sorted(cert.beta_set)}
    if cert.upward is not None:
        payload["upward"] = sorted(cert.upward)
    return _report("witness", params, "pass" if cert.ok else "fail", payload, t0), (
        0 if cert.ok else 1
    )


def cmd_extend(args, t0):
    from .patterns import extend_divisible, parse_assignment, parse_pattern

    alpha = parse_pattern(args.alpha)
    beta = parse_pattern(args.beta)
    asg = parse_assignment(args.assign or "")
    value = extend_divisible(args.l, alpha, beta, asg)
    params = {"l": args.l, "alpha": alpha.to_text(), "beta": beta.to_text(),
              "assignment": {str(k): list(v) for k, v in asg.items()}}
    return _report("extend", params, "value",
                   {"value": value, "ratio": value // args.l}, t0), 0


def cmd_thick(args, t0):
    from .coloring import ThickParams, is_thick_bounded

    primes = sorted(_parse_prime_sets(args.primes)[0]) if args.primes.strip() else []
    params_obj = ThickParams(m_max=args.m_max, k_max=args.k_max, n=args.arity)
    res = is_thick_bounded(primes, params_obj, max_set=args.max_set,
                           max_parts=args.max_parts)
    params = {"primes": primes, "m_max": args.m_max, "k_max": args.k_max,
              "arity": args.arity}
    payload: dict = {"thick": res.thick}
    if res.certificate is not None:
        payload["certificate"] = res.certificate
    return _report("thick", params, "value", payload, t0), 0


def cmd_ecfun(args, t0):
    from .constructions import ec_enumerate

    asg = ec_enumerate(args.count)
    listing = [
        {"index": i, "prefix": list(f.prefix), "tail": f.tail}
        for i, f in asg.items()
    ]
    return _report("ecfun", {"count": args.count}, "value",
                   {"assignment": listing}, t0), 0


def cmd_greedy(args, t0):
    from .coloring import ThickParams
    from .constructions import greedy_thick_extend

    seeds = _parse_prime_sets(args.seeds)
    candidates = _parse_prime_sets(args.candidates) if args.candidates else []
    params_obj = ThickParams(m_max=args.m_max, k_max=args.k_max, n=args.arity)
    family, log = greedy_thick_extend(seeds, candidates, params_obj,
                                      max_set=args.max_set, max_parts=args.max_parts)
    params = {"seeds": [sorted(s) for s in seeds],
              "candidates": [sorted(c) for c in candidates],
              "m_max": args.m_max, "k_max": args.k_max, "arity": args.arity}
    dead = sum(1 for e in log if e["kept"] is None)
    payload = {"family": [sorted(s) for s in family], "dead_ends": dead, "log": log}
    return _report("greedy", params, "value", payload, t0), 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--universe", type=int, default=None,
                        help="bound of the finite universe {1..N}")
    common.add_argument("--window", type=int, default=None,
                        help="window for closure-style results")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized harnesses")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (one JSON object per line)")

    parser = argparse.ArgumentParser(
        prog="ultradiv",
        description="Divisor-lattice, pattern and coloring toolkit with "
                    "machine-readable verification reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="level, pattern and shape class of a number")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("divides", parents=[common],
                       help="both divisibility routes on principal filters")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_divides)

    p = sub.add_parser("product", parents=[common],
                       help="principal filter product")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("color", parents=[common],
                       help="pair color, tuple color, or product class")
    p.add_argument("mode", choices=("pair", "tuple", "class"))
    p.add_argument("values", type=int, nargs="+")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("verify", parents=[common],
                       help="run an exhaustive or randomized verifier suite")
    p.add_argument("suite", choices=("progr", "refinement", "thick-lemmas", "g-disjoint"))
    p.add_argument("--k", type=int, default=2, help="color index (progr)")
    p.add_argument("--a0-max", type=int, default=256, help="max start (progr)")
    p.add_argument("--d-max", type=int, default=32, help="max step (progr)")
    p.add_argument("--arity", type=int, default=2, help="product arity (refinement)")
    p.add_argument("--index-bound", type=int, default=20,
                   help="prime index bound (refinement)")
    p.add_argument("--samples", type=int, default=100, help="instances (thick-lemmas)")
    p.add_argument("--count", type=int, default=100, help="index primes (g-disjoint)")
    p.add_argument("--stages", type=int, default=4, help="stage bound (g-disjoint)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "falpha", parents=[common],
        help='generate the set of a pattern, e.g. "(p,1)x2" --assign "p:3,5,7"',
    )
    p.add_argument("pattern", help='entries "(label,exp)xmult", comma separated; '
                                   '"{}" for empty; "PATTERN | ASSIGN" also accepted')
    p.add_argument("--assign", default=None,
                   help='prime pools "label:p1,p2;label:p1,..."')
    p.add_argument("--max-elements", type=int, default=None,
                   help="override the generated-set size guard")
    p.set_defaults(fn=cmd_falpha)

    p = sub.add_parser("witness", parents=[common],
                       help="separating certificate for a non-dominated pair")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--assign", default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("extend", parents=[common],
                       help="lift a generated number to a dominating pattern")
    p.add_argument("l", type=int)
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--assign", default=None)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("thick", parents=[common],
                       help="bounded thickness test with certificate")
    p.add_argument("primes", help='comma-separated prime set, e.g. "2,3,5,7"')
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--k-max", type=int, default=1)
    p.add_argument("--m-max", type=int, default=1)
    p.add_argument("--max-set", type=int, default=None, help="override set-size guard")
    p.add_argument("--max-parts", type=int, default=None, help="override parts guard")
    p.set_defaults(fn=cmd_thick)

    p = sub.add_parser("ecfun", parents=[common],
                       help="canonical eventually-constant function assignment")
    p.add_argument("count", type=int)
    p.set_defaults(fn=cmd_ecfun)

    p = sub.add_parser("greedy", parents=[common],
                       help="greedy thickness-preserving family extension")
    p.add_argument("--seeds", required=True,
                   help='prime sets "2,3,5;7,11" (semicolon separated)')
    p.add_argument("--candidates", default="",
                   help="candidate prime sets, same syntax")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--k-max", type=int, default=1)
    p.add_argument("--m-max", type=int, default=1)
    p.add_argument("--max-set", type=int, default=None)
    p.add_argument("--max-parts", type=int, default=None)
    p.set_defaults(fn=cmd_greedy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        report, code = args.fn(args, t0)
    except (ValueError, GuardExceeded) as exc:
        report, code = {"command": args.cmd, "outcome": "error", "error": str(exc)}, 2
    except Exception as exc:  # a fault in ultradiv, kept apart from "violations found" (1)
        import traceback

        traceback.print_exc()
        report, code = {"command": args.cmd, "outcome": "internal_error",
                        "error_type": type(exc).__name__, "error": str(exc)}, 3
    # a handler's own report carries elapsed_ms already; an error report gains it here
    report.setdefault("elapsed_ms", round((time.perf_counter() - t0) * 1000, 3))
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
