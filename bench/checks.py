"""Output checks, made apart from the program and run after the timing.

Each check recomputes the answer with sympy, with a closed form written
here, or from expected.json (sympy factorizations that make_expected.py
regenerates), or tests a property the method must have.  A check returns
None when the output is right and a message when it is not.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, deque

import sympy

from workloads import CASES, PPD_THRESHOLD_ROWS, metacyclic_orders

EXIT_RESOURCE = 3


def _prod(factors) -> int:
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def _strip(value: int, primes) -> int:
    for p in primes:
        while value % p == 0:
            value //= p
    return value


@functools.lru_cache(maxsize=None)
def _phi(n: int, a: int) -> int:
    return int(sympy.cyclotomic_poly(n, a))


def _is_primitive(a: int, n: int, s: int) -> bool:
    """s is prime and a has multiplicative order exactly n modulo s."""
    return (sympy.isprime(s) and pow(a, n, s) == 1
            and all(pow(a, n // r, s) != 1 for r in sympy.primefactors(n)))


def _zsigmondy(a: int, n: int) -> bool:
    return (a, n) == (2, 6) or (n == 2 and a >= 3 and (a + 1) & a == 0)


def _ppd_row(row: dict, a: int, n: int, complete: bool = True) -> str | None:
    if (row["a"], row["n"]) != (a, n):
        return f"row is for ({row['a']}, {row['n']}), not ({a}, {n})"
    primes = row["primitive_primes"]
    bad = [s for s in primes if not _is_primitive(a, n, s)]
    if bad:
        return f"ppd {a} {n}: {bad} are not primitive prime divisors"
    if (row["exception"] != "none") != _zsigmondy(a, n):
        return f"ppd {a} {n}: exception flag {row['exception']!r} is wrong"
    if not complete:
        return None if row["complete"] is False else f"ppd {a} {n}: exit 3 but complete"
    if row["complete"] is not True:
        return f"ppd {a} {n}: exit 0 but incomplete"
    rest = _strip(_phi(n, a), list(primes) + sympy.primefactors(n))
    if rest != 1:
        return f"ppd {a} {n}: Phi_{n}({a}) keeps a factor {rest} outside the reported primes"
    return None


def check_ppd(doc, code, expected, a, n):
    return _ppd_row(doc["result"], a, n)


def check_ppd_upto(doc, code, expected, a, top):
    rows = doc["result"]["rows"]
    if len(rows) != top:
        return f"ppd {a} {top} --upto: {len(rows)} rows"
    for i, row in enumerate(rows, start=1):
        msg = _ppd_row(row, a, i)
        if msg:
            return msg
    return None


def check_ppd_partial(doc, code, expected, a, n):
    """A kept failure: on exit 3 the partial set must still be primitive."""
    return _ppd_row(doc["result"], a, n, complete=code != EXIT_RESOURCE)


@functools.lru_cache(maxsize=None)
def _above(a: int, n: int, q: int) -> tuple[list[int], int]:
    """Primes <= q of Phi_n(a) not dividing n, and what is left above q."""
    value = _strip(_phi(n, a), sympy.primefactors(n))
    small = [r for r in sympy.primerange(2, q + 1) if value % r == 0]
    return small, _strip(value, small)


def check_ppd_above(doc, code, expected, a, n, q):
    res = doc["result"]
    small, rest = _above(a, n, q)
    if res["exists_above_threshold"] != (rest > 1) or res["residual"] != rest:
        return (f"ppd-above {a} {n} {q}: verdict {res['exists_above_threshold']} "
                f"residual {res['residual']}, expected {rest > 1} / {rest}")
    if res["primitive_primes"] != small:
        return f"ppd-above {a} {n} {q}: primes {res['primitive_primes']}, expected {small}"
    if (a, n, q) == (17, 6, 19) and res["exists_above_threshold"]:
        return "ppd-above 17 6 19 must be false: the ppd of 17^6 - 1 are 7 and 13"
    return None


def check_factor(doc, code, expected, n):
    res = doc["result"]
    factors = res["factors"]
    if not res["complete"] or res["cofactor"] != 1 or res["n"] != n:
        return f"factor {n}: incomplete or wrong n"
    if _prod(factors) != n or [p for p, _ in factors] != sorted({p for p, _ in factors}):
        return f"factor {n}: factors {factors} do not multiply to n in order"
    if not all(sympy.isprime(p) for p, _ in factors):
        return f"factor {n}: a composite factor in {factors}"
    return None


def check_factor_partial(doc, code, expected, n):
    if code != EXIT_RESOURCE:
        return check_factor(doc, code, expected, n)
    res = doc["result"]
    c = res["cofactor"]
    if res["complete"] or c <= 1 or sympy.isprime(c):
        return f"factor {n}: exit 3 needs a composite cofactor, got {c}"
    if _prod(res["factors"]) * c != n or not all(sympy.isprime(p) for p, _ in res["factors"]):
        return f"factor {n}: partial result {res['factors']} * {c} is not n"
    return None


# ---------------------------------------------------------------------------
# verify commands


def _fmt(factors) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def _verify_ok(doc, checks):
    res = doc["result"]
    if res["ok"] is not True or res["passed"] != res["checks"] or res["checks"] != checks:
        return f"verify: ok={res['ok']} passed {res['passed']}/{res['checks']}, want {checks}"
    return None


def check_verify_table1(doc, code, expected):
    msg = _verify_ok(doc, 55)
    if msg:
        return msg
    items = doc["result"]["reports"][0]["items"][1:]
    cells = [(p, n) for p in (7, 13, 17) for n in range(2, 20)]
    for item, (p, n) in zip(items, sorted(cells)):
        primes = [s for s, _ in expected[f"{p}^{n}-1"] if sympy.n_order(p, s) == n]
        if item["name"] != f"cell p={p} n={n}" or item["detail"] != str(primes):
            return f"verify table1: {item['name']} says {item['detail']}, expected {primes}"
    return None


def check_verify_lemma1(doc, code, expected):
    msg = _verify_ok(doc, 6)
    if msg:
        return msg
    items = doc["result"]["reports"][0]["items"]
    for item, (a, m, q) in zip(items, PPD_THRESHOLD_ROWS):
        failing = [n for n in range(m, 61) if _above(a, n, q)[1] == 1]
        if item["name"] != f"row p={a} m={m} q={q}" or item["erratum"] != bool(failing):
            return f"verify lemma1: {item['name']} erratum={item['erratum']}, failing n {failing}"
        if failing and not item["detail"].startswith(f"counterexample at n={failing}"):
            return f"verify lemma1: {item['name']} reports {item['detail']!r}, failing n {failing}"
    if doc["result"]["errata"] != 1:
        return "verify lemma1: expected exactly the documented 17,4,19 erratum"
    return None


def check_verify_cases(doc, code, expected):
    msg = _verify_ok(doc, 20)
    if msg:
        return msg
    items = doc["result"]["reports"][0]["items"]
    names = [f"{p}^{n}{s}1" for p, n in CASES for s in "-+"]
    for item, key in zip(items, names):
        want = _fmt(expected[key])
        ok = (item["detail"] == f"= {want}" if not item["erratum"]
              else f"computed {want}:" in item["detail"])
        if item["name"] != key or not ok:
            return f"verify cases: {item['name']} says {item['detail']!r}, sympy gives {want}"
    if doc["result"]["errata"] != 1:
        return "verify cases: expected exactly the documented 19^6 - 1 erratum"
    return None


# ---------------------------------------------------------------------------
# group families


def _maximal(values) -> list[int]:
    return sorted(m for m in values if not any(k != m and k % m == 0 for k in values))


def _closure(mu) -> list[int]:
    return sorted({d for m in mu for d in sympy.divisors(m)})


def _linear_mu(family: str, p: int, n: int) -> list[int]:
    """Maximal element orders of GL/SL/PGL/PSL(2, q), closed forms."""
    q = p**n
    e = math.gcd(2, q - 1)
    return _maximal({
        "gl2": {q * q - 1, p * (q - 1)},
        "sl2": {q - 1, q + 1, p * e},
        "pgl2": {q - 1, p, q + 1},
        "psl2": {(q - 1) // e, p, (q + 1) // e},
    }[family])


def _group_graph(family: str, p: int, n: int, expected):
    """mu of PGL/PSL(2, p^n) with the primes of each member, from sympy."""
    q = p**n
    e = math.gcd(2, q - 1) if family == "psl2" else 1
    members = {p: {p}}
    for key, value in ((f"{p}^{n}-1", q - 1), (f"{p}^{n}+1", q + 1)):
        members[value // e] = {r for r, k in expected[key] if not (r == 2 and k == 1 and e == 2)}
    mu = _maximal(members)
    vertices = sorted(set().union(*(members[m] for m in mu)))
    edges = sorted([r, s] for r in vertices for s in vertices
                   if r < s and any({r, s} <= members[m] for m in mu))
    adjacent = {v: set() for v in vertices}
    for r, s in edges:
        adjacent[r].add(s)
        adjacent[s].add(r)
    comps, seen = [], set()
    for v in vertices:
        if v not in seen:
            comp, stack = set(), [v]
            while stack:
                u = stack.pop()
                if u not in comp:
                    comp.add(u)
                    stack.extend(adjacent[u])
            seen |= comp
            comps.append(sorted(comp))
    comps.sort(key=lambda c: (2 not in c, c[0]))
    return mu, vertices, edges, comps


def check_graph_group(doc, code, expected, family, p, n):
    mu, vertices, edges, comps = _group_graph(family, p, n, expected)
    res = doc["result"]
    got = (res["vertices"], res["edges"], res["components"], res["t"])
    if got != (vertices, edges, comps, len(comps)):
        return f"graph {family} {p} {n}: got {got}, expected {(vertices, edges, comps)}"
    if family == "pgl2" and p != 2 and (len(comps) != 2 or comps[1] != [p]):
        return f"graph pgl2 {p} {n}: t must be 2 with {{{p}}} isolated"
    return None


def check_omega_group(doc, code, expected, family, p, n):
    mu = _group_graph(family, p, n, expected)[0]
    res = doc["result"]
    if res["mu"] != mu or res["omega"] != _closure(mu):
        return f"omega {family} {p} {n}: mu {res['mu']}, expected {mu}"
    return None


def check_verify_pgl2(doc, code, expected, p, n):
    msg = _verify_ok(doc, 1)
    if msg:
        return msg
    comps = _group_graph("pgl2", p, n, expected)[3]
    detail = doc["result"]["reports"][0]["items"][0]["detail"]
    if detail != f"components: {comps}":
        return f"verify pgl2 {p} {n}: {detail!r}, expected components {comps}"
    return None


@functools.lru_cache(maxsize=None)
def _permutation_mu(n: int, alternating: bool) -> list[int]:
    """mu of S_n or A_n by the prime-power-sum rule.

    m is an element order of S_n iff the sum s(m) of the prime powers
    exactly dividing m is at most n.  In A_n an odd m needs the same, and an
    even m needs s(m) + 2 <= n: one cycle of length 2^a is odd, and the
    cheapest way to make the permutation even is a further 2-cycle.
    """
    sums = {1: 0}
    for p in sympy.primerange(2, n + 1):
        for m, s in list(sums.items()):
            pk = p
            while s + pk <= n:
                sums[m * pk] = s + pk
                pk *= p
    orders = {m for m, s in sums.items()
              if not alternating or m % 2 == 1 or s + 2 <= n}
    primes = list(sympy.primerange(2, n + 1))
    return sorted(m for m in orders if not any(m * p in orders for p in primes))


def check_mu_sym(doc, code, expected, n):
    want = _permutation_mu(n, False)
    return None if doc["result"]["mu"] == want else f"mu sym {n}: {doc['result']['mu']} != {want}"


def check_mu_alt(doc, code, expected, n):
    want = _permutation_mu(n, True)
    return None if doc["result"]["mu"] == want else f"mu alt {n}: {doc['result']['mu']} != {want}"


def check_omega_metacyclic(doc, code, expected, m, n, k):
    mu = _maximal(set(metacyclic_orders(m, n, k)))
    res = doc["result"]
    if res["mu"] != mu or res["omega"] != _closure(mu):
        return f"omega metacyclic {m} {n} {k}: mu {res['mu']}, expected {mu}"
    return None


def check_mu_f4psi(doc, code, expected, e):
    q = 2**e
    want = sorted({q**4 - 1, q**4 + 1, q**4 - q**2 + 1, (q - 1) * (q**3 + 1), (q + 1) * (q**3 - 1)})
    return None if doc["result"]["mu"] == want else f"mu f4psi {e}: {doc['result']['mu']} != {want}"


def check_oracle(doc, code, expected, family, p, n):
    mu = _linear_mu(family, p, n)
    res = doc["result"]
    if res["mu"] != mu or res["omega"] != _closure(mu):
        return f"oracle {family} {p} {n}: mu {res['mu']}, closed form {mu}"
    if family in ("pgl2", "psl2") and (res["formula_mu"] != mu or res["matches_formula"] is not True):
        return f"oracle {family} {p} {n}: closed-form verdict {res['matches_formula']}"
    return None


def _mat_mul7(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 7, (a * f + b * h) % 7, (c * e + d * g) % 7, (c * f + d * h) % 7)


def _order7(x) -> int:
    acc, k = x, 1
    while acc != (1, 0, 0, 1):
        acc, k = _mat_mul7(acc, x), k + 1
    return k


BINOCT_CENSUS = {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}


def check_binoct(doc, code, expected, seed):
    elements = {tuple(x) for x in doc["elements"]}
    if len(elements) != 48 or len(doc["elements"]) != 48:
        return f"binoct {seed}: {len(doc['elements'])} elements"
    if any((a * d - b * c) % 7 != 1 for a, b, c, d in elements):
        return f"binoct {seed}: an element is not in SL(2,7)"
    if any(_mat_mul7(x, y) not in elements for x in elements for y in elements):
        return f"binoct {seed}: not closed under multiplication mod 7"
    gens = [tuple(g) for g in doc["generators"]]
    seen, queue = {(1, 0, 0, 1)}, deque([(1, 0, 0, 1)])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = _mat_mul7(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != elements:
        return f"binoct {seed}: the generators do not generate the 48 elements"
    census = dict(Counter(_order7(x) for x in elements))
    if census != BINOCT_CENSUS or dict(map(tuple, doc["order_counts"])) != census:
        return f"binoct {seed}: order census {census}, reported {doc['order_counts']}"
    return None


def check(name: str, args: list, code: int, text: str, expected: dict) -> str | None:
    """Run the named check on one op's exit code and output.

    An op that exits with an error is counted as failed by the caller; its
    output is checked only where a partial result has a defined form.
    """
    if code == EXIT_RESOURCE and name in ("ppd_partial", "factor_partial"):
        return globals()["check_" + name](json.loads(text), code, expected, *args)
    if code != 0:
        return None
    return globals()["check_" + name](json.loads(text), code, expected, *args)
