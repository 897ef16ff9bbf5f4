"""The four benchmark workloads.

Each workload makes its inputs from the seed in rounds: a round is a
fixed list of task kinds whose contents are drawn from
`Random(f"{workload}:{seed}:{round}")`, so every run holds the same mix
and two seeds differ only in the drawn values.  A task is one unit that
is timed and checked: `run_<kind>(lib, payload)` calls into ultradiv
through `lib`, and `check_<kind>(payload, out)` judges the answer with the
independent code in oracles.py.  The library receives only the
generated inputs.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from types import SimpleNamespace

import oracles

# Span names of every library function the tasks call, by layer.
FUNCTIONS = (
    "arith.quotient_set", "arith.coprime_product", "arith.coprime_power",
    "arith.up_closure", "arith.factorize", "arith.divisors", "arith.level_of",
    "patterns.pattern_of", "patterns.shape_class", "patterns.sigma",
    "patterns.generate_falpha", "patterns.witness_set",
    "filters.product_member", "filters.divides_up", "filters.divides_down",
    "filters.product_principal",
    "coloring.is_thick_bounded", "coloring.check_thick_lemmas",
    "coloring.verify_progr", "coloring.verify_refinement",
    "constructions.greedy_thick_extend", "constructions.ec_enumerate",
    "constructions.verify_g_disjoint",
)

# rho_frac counts factorize inputs with a prime factor above this bound.
TRIAL_BOUND = 10**6

# Values the traced run keeps from each call's result.
PROBES = {
    "arith.factorize": lambda fac: max(fac, default=1) > TRIAL_BOUND,
    "arith.quotient_set": len,
    "arith.coprime_product": len,
    "arith.coprime_power": len,
    "arith.up_closure": len,
    "patterns.generate_falpha": len,
    "coloring.is_thick_bounded": lambda res: res.thick,
    "coloring.verify_progr": lambda rep: rep.checked,
    "coloring.verify_refinement": lambda rep: rep.checked,
    "constructions.greedy_thick_extend":
        lambda res: (sum(e["kept"] is None for e in res[1]), len(res[1])),
}

# Strong pseudoprimes to the first twelve and thirteen prime bases
# (Sorenson & Webster 2017).  The library's is_prime calls both prime, so
# they are not task inputs, whose answers must all be right; every run
# probes them once, untimed, and reports the misjudged count instead.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
PSI_FACTORS = {PSI12: {399165290221: 1, 798330580441: 1},
               PSI13: {1287836182261: 1, 2575672364521: 1}}


def psi_misjudged(lib) -> int:
    """How many of psi_12 and psi_13 the library's is_prime calls prime."""
    return sum(bool(lib.is_prime(psi)) for psi in PSI_FACTORS)


def library(tracer=None) -> SimpleNamespace:
    """Import ultradiv and bind the functions the tasks call.

    With a tracer each function is wrapped to record a span; without one
    the raw functions are bound, so the untraced run pays nothing.
    """
    from ultradiv import arith, coloring, constructions, filters, patterns

    modules = {"arith": arith, "patterns": patterns, "filters": filters,
               "coloring": coloring, "constructions": constructions}
    lib = SimpleNamespace(NatSet=arith.NatSet, FinFilter=filters.FinFilter,
                          Pattern=patterns.Pattern, ThickParams=coloring.ThickParams,
                          is_prime=arith.is_prime)
    for name in FUNCTIONS:
        layer, fn_name = name.split(".")
        fn = getattr(modules[layer], fn_name)
        setattr(lib, fn_name, fn if tracer is None else tracer.wrap(name, fn))
    return lib


class Workload:
    name = ""
    warmup_kind = ""
    cli: list = []  # (argv after "python -m ultradiv.cli", check of the report)

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warmup_task(self) -> tuple[str, object]:
        """The first task of round 0 with the workload's warm-up kind."""
        return next(t for t in self.round(0) if t[0] == self.warmup_kind)


# --- setlattice --------------------------------------------------------------

P30 = oracles.first_primes(30)
P15 = P30[:15]
W_C08 = P15[-2] * P15[-1]  # the c08 window: every pair product of P15 fits
W_LARGE = 10**5


class SetLattice(Workload):
    """c08 shape: one base set A with disjoint partners, products, quotients
    and closures.  Even tasks use prime sets (the coprime_power fast path),
    odd tasks pairwise-coprime composite atoms (the general path)."""

    name = "setlattice"
    warmup_kind = "lattice"
    PER_ROUND = 50  # the large closure is 2% of tasks, so p99 sits mid-group
    PARTNERS = 8
    cli = [
        (["falpha", "(p,1)x2,(q,2)", "--assign", "p:2,3,5,7,11;q:13,17,19"],
         lambda rep: rep["values"] == sorted(oracles.pattern_numbers(
             [("p", 1, 2), ("q", 2, 1)], {"p": (2, 3, 5, 7, 11), "q": (13, 17, 19)}))),
        (["witness", "(p,2)", "(p,1)x2", "--assign", "p:3,5,7,11", "--window", "100000"],
         lambda rep: rep["outcome"] == "pass"
         and rep["certificate"]["generators"] == [9, 25, 49, 121]
         and len(rep["upward"]) == oracles.multiples_count((9, 25, 49, 121), 100000)),
    ]

    def round(self, r):
        rng = self.rng(r)
        tasks = []
        for i in range(self.PER_ROUND):
            A, partners = (self._primes if i % 2 == 0 else self._atoms)(rng)
            large = i == r % 2  # one large-window closure a round
            tasks.append(("lattice", {
                "A": frozenset(A), "Aord": tuple(sorted(A)),
                "Bs": [(frozenset(B), tuple(sorted(B))) for B in partners],
                # the large closure covers about half the window whatever the
                # draw, below the size where set tables double, so peak memory
                # does not depend on the seed
                "AL": frozenset(a for a in A if a > 10) | {2} if large else None,
                "WL": W_LARGE if large else None,
                "tag": rng.getrandbits(32),
            }))
        return tasks

    def _primes(self, rng):
        A = rng.sample(P15[:10], 1)
        rest = [p for p in P15 if p > A[0]]
        A += rng.sample(rest, rng.randint(0, min(4, len(rest) - 1)))
        rest = [p for p in rest if p not in A]
        return A, [rng.sample(rest, rng.randint(1, min(4, len(rest))))
                   for _ in range(self.PARTNERS)]

    def _atoms(self, rng):
        primes = rng.sample(P30, 24)
        atoms = [primes.pop() * primes.pop()]  # A always holds a composite
        while len(primes) >= 2:
            shape = rng.choice(("p", "p2", "pq", "pq"))
            p = primes.pop()
            atoms.append(p * p if shape == "p2" else p * primes.pop() if shape == "pq" else p)
        A = [atoms[0]] + rng.sample(atoms[len(atoms) // 2:], rng.randint(1, 3))
        rest = [a for a in atoms if a not in A]
        return A, [rng.sample(rest, rng.randint(1, 3)) for _ in range(self.PARTNERS)]

    @staticmethod
    def run_lattice(lib, p):
        A, Aord = p["A"], p["Aord"]
        a2 = lib.coprime_power(A, 2)
        a2q = [lib.quotient_set(a2, a) for a in Aord]
        prods = []
        for B, Bord in p["Bs"]:
            ab = lib.coprime_product(A, B)
            prods.append((ab, [lib.quotient_set(ab, a) for a in Aord],
                          [lib.quotient_set(ab, b) for b in Bord]))
        up = lib.up_closure(A, W_C08)
        upl = lib.up_closure(p["AL"], p["WL"]) if p["WL"] else None
        return a2, a2q, prods, up, upl

    def check_lattice(self, p, out):
        """The c08 closed forms: members are pairwise coprime, so A x B is
        {a*b}, (A x B)/a = B, (A x B)/b = A and A^(2)/a = A - {a}."""
        a2, a2q, prods, up, upl = out
        A, Aord = p["A"], p["Aord"]
        if a2 != {a * b for a, b in combinations(Aord, 2)}:
            return False
        if any(q != A - {a} for a, q in zip(Aord, a2q)):
            return False
        for (B, _), (ab, qa, qb) in zip(p["Bs"], prods):
            if ab != {a * b for a in A for b in B}:
                return False
            if any(q != B for q in qa) or any(q != A for q in qb):
                return False
        rng = random.Random(p["tag"])
        if not oracles.up_closure_ok(A, W_C08, up, rng.sample(range(1, W_C08 + 1), 64)):
            return False
        return upl is None or oracles.up_closure_ok(
            p["AL"], p["WL"], upl, rng.sample(range(1, p["WL"] + 1), 64))


# --- factor ------------------------------------------------------------------

# Carmichael numbers with their factorizations (561 = 3 * 11 * 17, ...).
CARMICHAEL = {
    561: (3, 11, 17), 1105: (5, 13, 17), 1729: (7, 13, 19), 2465: (5, 17, 29),
    2821: (7, 13, 31), 6601: (7, 23, 41), 8911: (7, 19, 67), 10585: (5, 29, 73),
    15841: (7, 31, 73), 29341: (13, 37, 61), 41041: (7, 11, 13, 41),
    46657: (13, 37, 97), 52633: (7, 73, 103), 62745: (3, 5, 47, 89),
    63973: (7, 13, 19, 37), 75361: (11, 13, 17, 31),
}


# A 22-digit semiprime for the cold CLI: rho finds its smaller factor.
CLI_SEMIPRIME = {oracles.next_prime(1_500_000): 1, oracles.next_prime(10**15): 1}


class Factor(Workload):
    """c11 shape plus the factorization hot spots: a contiguous range from 1,
    seeded n for divisors, rho-bound semiprimes and Carmichael numbers."""

    name = "factor"
    warmup_kind = "semiprime"
    RANGE_PER_ROUND = 42  # 50 tasks a round: the largest divisors input is 2%, where p99 sits
    DIVISOR_BASES = (10**3, 10**6, 10**9, 4 * 10**11)
    cli = [
        (["classify", "360"], lambda rep: Factor.classify_report_ok(rep, {2: 3, 3: 2, 5: 1})),
        (["classify", str(math.prod(CLI_SEMIPRIME))],
         lambda rep: Factor.classify_report_ok(rep, CLI_SEMIPRIME)),
    ]

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.spf = oracles.SpfTable()
        self.trial_primes = oracles.primes_upto(math.isqrt(max(self.DIVISOR_BASES) * 11 // 10))

    def round(self, r):
        rng = self.rng(r)
        base = r * self.RANGE_PER_ROUND
        tasks = [("classify", (n, "spf")) for n in range(base + 1, base + self.RANGE_PER_ROUND + 1)]
        for lo in self.DIVISOR_BASES:
            tasks.append(("factor", (rng.randrange(lo, lo * 11 // 10), "trial", True)))
        for kind in ("semiprime", "classify"):
            p = oracles.next_prime(rng.randrange(10**6, 2 * 10**6))
            digits = rng.randint(18, 25)
            q = oracles.next_prime(rng.randrange(-(-10 ** (digits - 1) // p), 10**digits // p))
            truth = {p: 1, q: 1}  # q > 10^10 > p
            tasks.append(("semiprime", (p * q, truth, False)) if kind == "semiprime"
                         else ("classify", (p * q, truth)))
        n = rng.choice(sorted(CARMICHAEL))
        tasks.append(("factor", (n, dict.fromkeys(CARMICHAEL[n], 1), True)))
        tasks.append(("factor", self._chernick(rng)))
        # a fixed order, so the library's lazy sieve grows the same way
        # for every seed and peak memory does not depend on the draw
        return tasks

    @staticmethod
    def _chernick(rng):
        """A Carmichael number (6k+1)(12k+1)(18k+1) with all three prime,
        each factor above the trial-division bound."""
        k = rng.randrange(2 * 10**5, 4 * 10**5)
        while not all(oracles.is_prime_small(c * k + 1) for c in (6, 12, 18)):
            k += 1
        fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        return math.prod(fs), dict.fromkeys(fs, 1), False

    def truth(self, n, source):
        """Ground truth: known from construction, or the SPF sieve for the
        range, or trial division for the seeded divisor inputs."""
        if source == "spf":
            return self.spf.factor(n)
        if source == "trial":
            return oracles.trial_factor(n, self.trial_primes)
        return source

    @staticmethod
    def run_classify(lib, p):
        n = p[0]
        pat = lib.pattern_of(n)
        return (lib.level_of(n), pat, lib.sigma(pat),
                lib.shape_class(n) if n > 1 else ())

    def check_classify(self, p, out):
        fac = self.truth(*p)
        level, pat, sigma, shape = out
        omega = sum(fac.values())
        return (level == omega and sigma == omega
                and pat.entries == {(q, e): 1 for q, e in fac.items()}
                and tuple(shape) == tuple(sorted(fac.values(), reverse=True)))

    @staticmethod
    def run_factor(lib, p):
        fac = lib.factorize(p[0])
        return fac, lib.divisors(p[0]) if p[2] else None

    def check_factor(self, p, out):
        fac = self.truth(p[0], p[1])
        return out[0] == fac and (not p[2] or out[1] == oracles.divisors_of(fac))

    run_semiprime = run_factor
    check_semiprime = check_factor

    @staticmethod
    def classify_report_ok(rep, fac):
        omega = sum(fac.values())
        return (rep["level"] == omega and rep["sigma"] == omega
                and rep["shape"] == sorted(fac.values(), reverse=True))


# --- thick -------------------------------------------------------------------

P24 = oracles.first_primes(24)
INDEX = {p: i + 1 for i, p in enumerate(P24)}
BRUTE_MAX = 9  # True answers are cross-checked by enumeration up to this size

# (set size, m_max, k_max, arity) of the is_thick_bounded tasks.  A round
# of 50 tasks holds 36 single-part queries (so p50 sits inside that
# group), half of the two- and three-part searches (alternating by round),
# two greedy calls, one check_thick_lemmas and one (10, 3, 1, 2) query,
# mostly True and so exhaustive: the 2% of tasks where p99 sits.
THICK_SINGLE = tuple((s, 1, k, n) for s in (6, 8, 9, 10, 11, 12) for k in (1, 2, 3)
                     for n in (2, 3))
THICK_SEARCH = (
    (6, 2, 1, 2), (7, 2, 2, 2), (8, 2, 1, 3), (8, 2, 2, 2), (9, 2, 1, 2), (9, 2, 2, 3),
    (10, 2, 1, 2), (10, 2, 3, 2), (11, 2, 2, 2), (12, 2, 1, 2), (12, 2, 2, 3), (12, 2, 3, 2),
    (6, 3, 1, 2), (7, 3, 2, 2), (8, 3, 1, 2), (8, 3, 2, 3), (9, 3, 1, 2), (9, 3, 3, 2),
    (10, 3, 2, 2), (12, 3, 3, 3),
)
THICK_HEAVY = (10, 3, 1, 2)
GREEDY_PARAMS = ((1, 2, 2), (2, 1, 2))


def brute_thick(primes, m, k, n) -> bool:
    return oracles.thick_brute([INDEX[p] for p in primes], m, k, n)


def greedy_replay_ok(seeds, candidates, params, out) -> bool:
    """Replay the greedy extension decision by decision with brute_thick."""
    family, log = out
    expect = [frozenset(s) for s in seeds]
    universe = frozenset().union(*expect)
    for pos, raw in enumerate(candidates):
        S = frozenset(raw) & universe
        entry = {"index": pos, "kept": None, "set": sorted(S)}
        for side, name in ((S, "candidate"), (universe - S, "complement")):
            if all(brute_thick(side & a, *params) for a in expect):
                expect.append(side)
                entry = {"index": pos, "kept": name, "set": sorted(side)}
                break
        if log[pos] != entry:
            return False
    return len(log) == len(candidates) and family == expect


class Thick(Workload):
    """Bounded thickness: is_thick_bounded queries over seeded prime sets,
    greedy_thick_extend calls and one check_thick_lemmas per round."""

    name = "thick"
    warmup_kind = "thick"
    cli = [
        (["thick", "2,3,5,7,11,13,17,19", "--m-max", "2", "--k-max", "2"],
         lambda rep: rep["thick"] == brute_thick(P24[:8], 2, 2, 2)),
        (["greedy", "--seeds", "2,3,5,7,11,13,17,19", "--candidates", "2,5,11;3,7,13,19",
          "--k-max", "2"],
         lambda rep: greedy_replay_ok([P24[:8]], [(2, 5, 11), (3, 7, 13, 19)], (1, 2, 2),
                                      ([frozenset(s) for s in rep["family"]], rep["log"]))),
    ]

    def round(self, r):
        rng = self.rng(r)
        tasks = []
        for size, m, k, n in (*THICK_SINGLE, *THICK_SEARCH[r % 2 :: 2], THICK_HEAVY):
            A = tuple(sorted(rng.sample(P24, size)))
            tasks.append(("thick", (A, self.lib.ThickParams(m_max=m, k_max=k, n=n), (m, k, n))))
        for params in GREEDY_PARAMS:
            while True:
                universe = sorted(rng.sample(P24, rng.randint(8, BRUTE_MAX)))
                if brute_thick(universe, *params):
                    break
            cands = [tuple(sorted(rng.sample(universe, rng.randint(3, 6)))) for _ in range(5)]
            tasks.append(("greedy", ([universe], cands, params,
                                     self.lib.ThickParams(*params))))
        tasks.append(("lemmas", (5, rng.getrandbits(32))))
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def run_thick(lib, p):
        return lib.is_thick_bounded(p[0], p[1])

    @staticmethod
    def check_thick(p, res):
        primes, _, (m, k, n) = p
        if not res.thick:
            return oracles.thick_certificate_ok(primes, INDEX, m, k, n, res.certificate)
        return len(primes) > BRUTE_MAX and m > 1 or brute_thick(primes, m, k, n)

    @staticmethod
    def run_greedy(lib, p):
        return lib.greedy_thick_extend(p[0], p[1], p[3])

    @staticmethod
    def check_greedy(p, out):
        return greedy_replay_ok(p[0], p[1], p[2], out)

    @staticmethod
    def run_lemmas(lib, p):
        return lib.check_thick_lemmas(samples=p[0], seed=p[1])

    @staticmethod
    def check_lemmas(p, rep):
        hits = (rep.monotone_hits, rep.union_hits, rep.arity_hits)
        return rep.ok and rep.samples == p[0] and all(0 <= h <= p[0] for h in hits)


# --- certify -----------------------------------------------------------------

W_C04 = 5000
SMALL_POOLS = {"p": (2, 3, 5, 7), "q": (11, 13, 17, 19)}
PROGR_BOUNDS = (1024, 64)
PROGR_K1_VIOLATIONS = 29184  # exhaustive count at (1024, 64), all at non-power-of-two steps


def random_pattern(rng, max_slots):
    """(label, exponent, multiplicity) triples with up to max_slots slots a label."""
    entries = []
    for label in ("p", "q"):
        exps = [rng.randint(1, 3) for _ in range(rng.randint(0, max_slots))]
        entries += [(label, k, exps.count(k)) for k in sorted(set(exps))]
    return entries or [("p", 1, 1)]


class Certify(Workload):
    """Verifier and filter calls: c04 product-member batteries, general-core
    divisibility, product_principal, pattern generation and witnesses,
    verify_progr / verify_refinement and the c10 ec_enumerate check."""

    name = "certify"
    warmup_kind = "principal"
    cli = [
        (["product", "7", "11", "--universe", "1000"], lambda rep: rep["value"] == 77),
        (["verify", "progr", "--k", "2", "--a0-max", "256", "--d-max", "32"],
         lambda rep: rep["outcome"] == "pass" and rep["checked"] == 256 * 32),
    ]

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = random.Random(f"{self.name}:{seed}:battery")
        self.battery = [
            lib.NatSet(rng.sample(range(1, W_C04 + 1), int(W_C04 * d)), window=W_C04)
            for d in (0.05, 0.2, 0.5, 0.8) * 6
        ]

    def round(self, r):
        """800 tasks: 760 cheap filter calls, 28 small pattern tasks, 8 large
        generate_falpha calls and 4 verifiers, so the top 1% holds the
        verifiers and half the large pattern sets: p99 is a pattern task."""
        rng = self.rng(r)
        FF = self.lib.FinFilter
        tasks = []
        for i in range(560):
            if i % 4:
                m = rng.randint(1, 70)
                xc, yc = (m,), (rng.randint(1, W_C04 // m),)
            else:
                xc = tuple(rng.sample(range(1, 31), rng.randint(2, 3)))
                yc = tuple(rng.sample(range(1, 101), rng.randint(2, 3)))
            tasks.append(("member", (rng.choice(self.battery), FF(W_C04, xc), FF(W_C04, yc),
                                     xc, yc)))
        for i in range(200):
            xc = rng.sample(range(2, 1001), rng.randint(1, 6))
            yc = ([a * rng.randint(1, 1000 // a) for a in xc] if i % 4 < 2
                  else rng.sample(range(2, 1001), rng.randint(1, 6)))
            tasks.append(("up" if i % 2 else "down",
                          (FF(1000, xc), FF(1000, yc), frozenset(xc), frozenset(yc))))
        for _ in range(20):
            entries = random_pattern(rng, 4)
            tasks.append(("falpha", (self.lib.Pattern(entries), SMALL_POOLS, entries)))
        for _ in range(8):
            while True:
                alpha, beta = random_pattern(rng, 4), random_pattern(rng, 4)
                if oracles.tail_sums_exceed(alpha, beta):
                    break
            tasks.append(("witness", (self.lib.Pattern(alpha), self.lib.Pattern(beta),
                                      alpha, beta)))
        for _ in range(8):
            # 45 * 360 = 16200 numbers whatever the draw
            pool = rng.sample(P30, 20)
            entries = [("p", 1, 2), ("p", rng.choice((2, 3)), 1), ("q", rng.choice((1, 2)), 2)]
            tasks.append(("falpha", (self.lib.Pattern(entries),
                                     {"p": tuple(pool[:10]), "q": tuple(pool[10:])}, entries)))
        W = (1000, 2000, 4000)[r % 3]
        m = rng.randint(1, 50)
        tasks.append(("principal", (m, rng.randint(1, W // m), W)))
        tasks.append(("progr", (r % 3 + 1, rng.getrandbits(32))))
        tasks.append(("refinement", (2, 40) if r % 2 == 0 else (3, 30)))
        tasks.append(("ec", rng.randint(60, 120)))
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def run_member(lib, p):
        return lib.product_member(p[0], p[1], p[2])

    @staticmethod
    def check_member(p, got):
        A, _, _, xc, yc = p
        return got == all(b * n in A for n in xc for b in yc)

    @staticmethod
    def run_up(lib, p):
        return lib.divides_up(p[0], p[1])

    @staticmethod
    def check_up(p, got):
        multiples = set()
        for a in p[2]:
            multiples.update(range(a, 1001, a))
        return got == (p[3] <= multiples)

    @staticmethod
    def run_down(lib, p):
        return lib.divides_down(p[0], p[1])

    @staticmethod
    def check_down(p, got):
        divs = {d for b in p[3] for d in range(1, b + 1) if b % d == 0}
        return got == (p[2] <= divs)

    @staticmethod
    def run_principal(lib, p):
        return lib.product_principal(*p)

    @staticmethod
    def check_principal(p, got):
        return got == p[0] * p[1]

    @staticmethod
    def run_falpha(lib, p):
        return lib.generate_falpha(p[0], p[1])

    @staticmethod
    def check_falpha(p, got):
        return got == oracles.pattern_numbers(p[2], p[1])

    @staticmethod
    def run_witness(lib, p):
        return lib.witness_set(p[0], p[1], SMALL_POOLS)

    @staticmethod
    def check_witness(p, cert):
        """Re-check the separating set by direct divisibility."""
        alpha = oracles.pattern_numbers(p[2], SMALL_POOLS)
        beta = oracles.pattern_numbers(p[3], SMALL_POOLS)
        gens = cert.generators
        return (cert.ok and cert.alpha_set == alpha and cert.beta_set == beta
                and all(any(x % g == 0 for g in gens) for x in alpha)
                and not any(y % g == 0 for y in beta for g in gens))

    @staticmethod
    def run_progr(lib, p):
        return lib.verify_progr(p[0], *PROGR_BOUNDS)

    @staticmethod
    def check_progr(p, rep):
        k, tag = p
        a0_max, d_max = PROGR_BOUNDS
        if rep.checked != a0_max * d_max:
            return False
        if k == 1:
            if len(rep.violations) != PROGR_K1_VIOLATIONS:
                return False
            if any(d & (d - 1) == 0 for _a0, d, _terms in rep.violations):
                return False
        elif rep.violations:
            return False
        # re-derive a sample of verdicts with the block formula
        rng = random.Random(tag)
        bad = {(a0, d) for a0, d, _terms in rep.violations}
        for _ in range(32):
            a0, d = rng.randint(1, a0_max), rng.randint(1, d_max)
            terms = [a0 + i * d for i in range(2**k + 1)]
            has_k = any(oracles.dyadic_color(x, y) == k for x, y in combinations(terms, 2))
            if has_k == ((a0, d) in bad):
                return False
        return True

    @staticmethod
    def run_refinement(lib, p):
        return lib.verify_refinement(*p)

    @staticmethod
    def check_refinement(p, rep):
        n, bound = p
        return rep.checked == math.comb(bound, n + 1) and not rep.violations

    @staticmethod
    def run_ec(lib, count):
        asg = lib.ec_enumerate(count)
        reps = [lib.verify_g_disjoint(asg, m, n) for m, n in combinations(range(1, 5), 2)]
        return asg, reps

    @staticmethod
    def check_ec(count, out):
        """Distinct, minimal, index-bounded functions into the primes, and
        disjoint stage images recomputed from prefix/tail."""
        asg, reps = out
        index = oracles.first_primes(count)
        if list(asg) != index:
            return False
        prime_set = set(index)
        seen = set()
        for i, f in asg.items():
            values = (*f.prefix, f.tail)
            cap = i if i in (2, 3) else i - 1
            if any(v not in prime_set or v > cap for v in values):
                return False
            if f.prefix and f.prefix[-1] == f.tail or (f.prefix, f.tail) in seen:
                return False
            seen.add((f.prefix, f.tail))

        def value(f, stage):
            return f.prefix[stage - 1] if stage <= len(f.prefix) else f.tail

        for (m, n), rep in zip(combinations(range(1, 5), 2), reps):
            diff = tuple(i for i, f in asg.items() if value(f, m) != value(f, n))
            images_m = {i * value(asg[i], m) for i in diff}
            images_n = {i * value(asg[i], n) for i in diff}
            if rep.collisions or tuple(rep.diff_indices) != diff or images_m & images_n:
                return False
        return True


WORKLOADS = {w.name: w for w in (SetLattice, Factor, Thick, Certify)}
