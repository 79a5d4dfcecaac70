"""The three workloads: seeded lists of ops, each with the check it must pass.

An op is a dict: "argv" (the CLI arguments after --json) or "binoct" (a
seed for the binary octahedral search), plus "check", the name and
arguments of its check in checks.py, and "kept" for the ops that fail today
because of a known fault and are counted as failed until it is mended.

Every op except the budget-leak probe passes --budget, so a budget left
behind by an earlier op in the same process cannot change its outcome.
"""

from __future__ import annotations

import math
import random

import sympy

# Primes of the form 2^a 3^b + 1 up to 257: the paper's bases.
BASES = (2, 3, 5, 7, 13, 17, 19, 37, 73, 97, 109, 163, 193, 257)
N_MAX = 30          # graphs use q = p^n for n <= N_MAX; sweeps run up to it
CELL_N_MAX = 24     # ppd cells use n <= CELL_N_MAX
SWEEP_BASES = (7, 13, 17)  # the bases of the reference ppd table
BUDGET = "200000"   # rho iterations per cofactor for every ordinary op
SEMIPRIME_BUDGET = "10000000"  # the default budget, stated: rho splits every one
CAP = "50"          # --cap for sym/alt (largest n) and for the oracle (largest q)

# A number is in the pools when every prime factor but its largest is below
# EASY_LIMIT: rho then needs about 4*10^4 iterations per split, far inside
# BUDGET, so no pooled op can exhaust its budget.
EASY_LIMIT = 10**9

# Inputs copied from the reference data the paper prints.
PPD_THRESHOLD_ROWS = ((7, 5, 13), (13, 5, 19), (17, 4, 19),
                      (19, 7, 37), (37, 7, 109), (73, 5, 127))
ABOVE_PER_ROW = 5
CASES = ((7, 2), (7, 3), (7, 4), (13, 3), (13, 4),
         (19, 3), (19, 6), (73, 2), (73, 3), (73, 4))

SEMIPRIMES = 8
SYM_ALT_SEEDED = 4  # per family, n drawn from [10, 34]; n = 50 always runs
METACYCLIC_GROUPS = 6
# Sum of element orders of a chosen group, which is the number of
# multiplications an element-by-element order search makes.
METACYCLIC_WORK = (150_000, 300_000)
F4_OPS = 3
GRAPH_COMMANDS = (("graph", "pgl2"), ("omega", "pgl2"), ("graph", "psl2"), ("omega", "psl2"))
BINOCT_SEARCHES = 42  # with 60 oracle ops, 102 per round
ORACLE_Q_MAX = 27  # keeps a round near 3 s, so a run holds about ten


def _op(argv, check, kept=False) -> dict:
    return {"argv": [str(a) for a in argv], "check": check, "kept": kept}


def easy(factors) -> bool:
    primes = sorted(p for p, _ in factors)
    return all(p < EASY_LIMIT for p in primes[:-1])


def _easy_run(expected: dict, a: int, n_max: int) -> int:
    """Largest n <= n_max with every a^i - 1, i <= n, easy."""
    n = 0
    while n < n_max and easy(expected[f"{a}^{n + 1}-1"]):
        n += 1
    return n


def ppd_ops(seed: int, expected: dict) -> list[dict]:
    rng = random.Random(f"ppd:{seed}")
    # Every cell of the pool, in table order (by n, then a): each cell then
    # factors one new a^n - 1 and finds the smaller ones in the cache, the
    # same ones for every seed.
    cells = sorted((n, a) for a in BASES
                   for n in range(2, _easy_run(expected, a, CELL_N_MAX) + 1))
    ops = [_op(["--budget", BUDGET, "ppd", a, n], ["ppd", a, n]) for n, a in cells]
    for a in SWEEP_BASES:
        top = _easy_run(expected, a, N_MAX)
        ops.append(_op(["--budget", BUDGET, "ppd", a, top, "--upto"], ["ppd_upto", a, top]))

    above = [(17, 6, 19)]  # the documented false instance of its row
    for a, m, q in PPD_THRESHOLD_ROWS:
        pool = [n for n in range(m, 61) if (a, n, q) not in above]
        k = ABOVE_PER_ROW - ((a, q) == (17, 19))
        above += [(a, n, q) for n in rng.sample(pool, k)]
    rng.shuffle(above)
    ops += [_op(["--budget", BUDGET, "ppd-above", a, n, q], ["ppd_above", a, n, q])
            for a, n, q in above]

    for p, n in CASES:
        for value in (p**n - 1, p**n + 1):
            ops.append(_op(["--budget", SEMIPRIME_BUDGET, "factor", value], ["factor", value]))
    for _ in range(SEMIPRIMES):
        value = (sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
                 * sympy.nextprime(rng.randrange(10**10, 10**11)))
        ops.append(_op(["--budget", SEMIPRIME_BUDGET, "factor", value], ["factor", value]))

    for target in ("table1", "lemma1", "cases"):
        ops.append(_op(["--budget", BUDGET, "verify", target], ["verify_" + target]))

    # Kept failures.  The full-factorization engine factors every a^i - 1
    # below n and gives up on one of them, although Phi_60(7) and
    # Phi_40(13) factor at once.
    ops.append(_op(["--budget", 100000, "ppd", 7, 60], ["ppd_partial", 7, 60], kept=True))
    ops.append(_op(["--budget", 100000, "ppd", 13, 40], ["ppd_partial", 13, 40], kept=True))
    # Budget-leak probe: the first op runs out of its small budget, and the
    # budget stays in the numtheory module globals, so the second op, which
    # passes no --budget and factors in about 15 ms on its own, exits 3.
    probe_x = 2**4 * 3 * sympy.nextprime(10**7) * sympy.nextprime(3 * 10**7)
    probe_y = sympy.nextprime(2 * 10**8) * sympy.nextprime(5 * 10**8)
    ops.append(_op(["--budget", 1000, "factor", probe_x], ["factor_partial", probe_x], kept=True))
    ops.append(_op(["factor", probe_y], ["factor_partial", probe_y], kept=True))
    return ops


def metacyclic_orders(m: int, n: int, k: int) -> list[int]:
    """Element orders of Z_m : Z_n with b -> b^k, per coset in closed form.

    For b^i a^j with r = n / gcd(n, j), (b^i a^j)^r = b^(i * S) where
    S = sum_{t<r} kinv^(j t), so the order is r * m / gcd(m, i * S).
    """
    kinv = pow(k, -1, m)
    orders = []
    for j in range(n):
        r = n // math.gcd(n, j)
        s = sum(pow(kinv, j * t, m) for t in range(r)) % m
        orders += [r * m // math.gcd(m, i * s) for i in range(m)]
    return orders


def _metacyclic_groups(rng: random.Random) -> list[tuple[int, int, int]]:
    """Seeded Z_m : Z_n, m prime, k of order n mod m, order m*n in [10^3, 10^4]."""
    groups = []
    while len(groups) < METACYCLIC_GROUPS:
        m = sympy.prevprime(rng.randrange(40, 160))
        ns = [n for n in sympy.divisors(m - 1) if 1000 <= m * n <= 10_000]
        if not ns:
            continue
        n = rng.choice(ns)
        t = rng.choice([t for t in range(1, n + 1) if math.gcd(t, n) == 1])
        k = pow(sympy.primitive_root(m), t * (m - 1) // n, m)
        if METACYCLIC_WORK[0] <= sum(metacyclic_orders(m, n, k)) <= METACYCLIC_WORK[1]:
            groups.append((m, n, k))
    return groups


def graphs_ops(seed: int, expected: dict) -> list[dict]:
    rng = random.Random(f"graphs:{seed}")
    ops = [_op(["--budget", BUDGET, "verify", "pgl2", p, 2], ["verify_pgl2", p, 2])
           for p in BASES if p != 2]
    # Which command and family a q gets is fixed, not seeded: omega of a q
    # with many divisors prints megabytes, so a seeded choice moved peak
    # memory and throughput from seed to seed.
    pool = [(p, n) for p in BASES for n in range(1, N_MAX + 1) if n != 2 or p == 2
            if easy(expected[f"{p}^{n}-1"]) and easy(expected[f"{p}^{n}+1"])]
    for i, (p, n) in enumerate(pool):
        command, family = GRAPH_COMMANDS[i % len(GRAPH_COMMANDS)]
        ops.append(_op(["--budget", BUDGET, command, family, p, n],
                       [command + "_group", family, p, n]))
    for family in ("sym", "alt"):
        for n in rng.sample(range(10, 35), SYM_ALT_SEEDED) + [50]:
            ops.append(_op(["--budget", BUDGET, "--cap", CAP, "mu", family, n],
                           ["mu_" + family, n]))
    for m, n, k in _metacyclic_groups(rng):
        ops.append(_op(["--budget", BUDGET, "omega", "metacyclic", m, n, k],
                       ["omega_metacyclic", m, n, k]))
    for e in rng.sample(range(1, 17), F4_OPS):
        ops.append(_op(["--budget", BUDGET, "mu", "f4psi", e], ["mu_f4psi", e]))
    rng.shuffle(ops)
    return ops


def prime_powers(limit: int) -> list[tuple[int, int]]:
    return [(p, n) for p in sympy.primerange(2, limit + 1)
            for n in range(1, limit.bit_length()) if p**n <= limit]


def oracle_ops(seed: int, expected: dict) -> list[dict]:
    rng = random.Random(f"oracle:{seed}")
    ops = [_op(["--budget", BUDGET, "--cap", CAP, "oracle", family, p, n],
               ["oracle", family, p, n])
           for p, n in prime_powers(ORACLE_Q_MAX) for family in ("gl2", "sl2", "pgl2", "psl2")]
    # Fixed search seeds: a search takes 1 to 9 ms depending on its seed, and
    # search seeds drawn from the workload seed moved p50_ms by 0.18 between
    # workload seeds.
    ops += [{"binoct": s, "check": ["binoct", s], "kept": False}
            for s in range(BINOCT_SEARCHES)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"ppd": ppd_ops, "graphs": graphs_ops, "oracle": oracle_ops}
