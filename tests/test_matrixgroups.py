import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from pglspectra import matrixgroups as mg
from pglspectra import spectra as sp
from pglspectra.errors import CapExceeded, NotPrime


# --- field construction ----------------------------------------------------------

def test_field_ctx_moduli():
    assert mg.field_ctx(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert mg.field_ctx(5, 1).modulus == (0, 1)          # x
    assert mg.field_ctx(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert mg.field_ctx(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    # no size cap of its own: GF(32) is within the oracle's default cap
    ctx = mg.field_ctx(2, 5)
    assert ctx.q == 32 and ctx.modulus == (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1


def test_field_ctx_rejects_bad_input():
    before = mg.field_ctx.cache_info().currsize
    for _ in range(2):  # a rejection is not cached: it raises on every call
        with pytest.raises(NotPrime):
            mg.field_ctx(6, 2)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                mg.field_ctx(7, n)
    assert mg.field_ctx.cache_info().currsize == before


def test_field_size_and_encoding_round_trip():
    ctx = mg.field_ctx(3, 3)
    assert ctx.q == 27
    for x in ctx.elements():
        assert ctx.encode(ctx.decode(x)) == x


def test_field_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
        mg.field_ctx(5, 1).inv(0)


FIELD_SIZES = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]


@pytest.mark.parametrize("p,n", FIELD_SIZES)
def test_field_axioms(p, n):
    ctx = mg.field_ctx(p, n)
    rng = random.Random(p * 100 + n)
    # inverse round trip for every nonzero element
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1
    # associativity and distributivity on random triples
    for _ in range(60):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
    # characteristic p
    acc = 0
    for _ in range(p):
        acc = ctx.add(acc, 1)
    assert acc == 0


def slow_tables(ctx):
    """q x q add/sub/mul tables from the polynomial path alone: digit-wise
    sums and differences, and the product reduced by the modulus."""
    def digitwise(x, y, sign):
        return ctx.encode(a + sign * b for a, b in zip(ctx.decode(x), ctx.decode(y)))

    q = ctx.q
    add = [[digitwise(x, y, 1) for y in range(q)] for x in range(q)]
    sub = [[digitwise(x, y, -1) for y in range(q)] for x in range(q)]
    mul = [[ctx._mul_slow(x, y) for y in range(q)] for x in range(q)]
    return add, sub, mul


@pytest.mark.parametrize("p,n", FIELD_SIZES + [(2, 1), (3, 1)])
def test_zech_arithmetic_matches_polynomial_path(p, n):
    ctx = mg.field_ctx(p, n)
    add, sub, mul = slow_tables(ctx)
    for x, y in product(range(ctx.q), repeat=2):
        assert ctx.add(x, y) == add[x][y], (x, y)
        assert ctx.sub(x, y) == sub[x][y], (x, y)
        assert ctx.mul(x, y) == mul[x][y], (x, y)
    for x in range(ctx.q):
        assert ctx.neg(x) == sub[0][x]


def test_multiplicative_group_order():
    for p, n in ((2, 2), (3, 2), (2, 3), (5, 1)):
        ctx = mg.field_ctx(p, n)
        g_orders = set()
        for x in range(1, ctx.q):
            acc, k = x, 1
            while acc != 1:
                acc = ctx.mul(acc, x)
                k += 1
            g_orders.add(k)
        assert max(g_orders) == ctx.q - 1  # the group is cyclic of order q-1


def test_field_ctx_is_built_once_per_argument_tuple():
    assert mg.field_ctx(5, 2) is mg.field_ctx(5, 2)
    maxsize = mg.field_ctx.cache_info().maxsize
    assert maxsize is not None
    # the bound holds over distinct fields, GF(p) for the first maxsize + 5 primes
    primes = [p for p in range(2, 1000) if mg.is_prime(p)]
    for p in primes[:maxsize + 5]:
        mg.field_ctx(p, 1)
    assert mg.field_ctx.cache_info().currsize == maxsize


def test_oracle_and_search_share_one_field():
    mg.field_ctx.cache_clear()
    mg._sl27.cache_clear()
    mg.omega_bruteforce("PGL2", 7, 1)
    mg.find_binary_octahedral_subgroup(0)
    assert mg.field_ctx.cache_info().currsize == 1
    assert mg._sl27()[0] is mg.field_ctx(7, 1)


def test_import_builds_no_field():
    # the fields and the SL(2,7) search space are built on first use
    code = ("import pglspectra.cli, pglspectra.matrixgroups as mg; "
            "assert mg.field_ctx.cache_info().currsize == 0; "
            "assert mg._sl27.cache_info().currsize == 0")
    src = Path(mg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# --- matrices -----------------------------------------------------------------------

def linear_order(x, ctx):
    """Least k >= 1 with x^k the identity matrix, by repeated multiplication."""
    acc, k = x, 1
    while acc != mg.MAT_IDENTITY:
        acc = mg.mat_mul(acc, x, ctx)
        k += 1
    return k


def test_group_orders_by_enumeration():
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)):
        ctx = mg.field_ctx(p, n)
        ctx.tables()
        q = ctx.q
        gl_count = 0
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    for d in range(q):
                        m = (a, b, c, d)
                        if mg.mat_det(m, ctx) != 0:
                            gl_count += 1
        assert gl_count == (q * q - 1) * (q * q - q), (p, n)


def test_projective_divides_linear():
    for p, n in ((7, 1), (3, 2)):
        ctx = mg.field_ctx(p, n)
        ctx.tables()
        rng = random.Random(42)
        q = ctx.q
        gl_order = (q * q - 1) * (q * q - q)
        found = 0
        while found < 40:
            m = tuple(rng.randrange(q) for _ in range(4))
            if mg.mat_det(m, ctx) == 0:
                continue
            found += 1
            lin = linear_order(m, ctx)
            assert gl_order % lin == 0


# --- exhaustive spectra -----------------------------------------------------------------

def test_omega_bruteforce_examples():
    s = mg.omega_bruteforce("PGL2", 3, 2)
    assert s.mu == {3, 8, 10}
    assert sp.omega_closure(s) == [1, 2, 3, 4, 5, 8, 10]
    assert mg.omega_bruteforce("PGL2", 7, 1).mu == {6, 7, 8}
    assert mg.omega_bruteforce("PSL2", 3, 2).mu == {3, 4, 5}


def test_omega_bruteforce_gl_sl():
    # GL(2,3) has element orders {1,2,3,4,6,8}; SL(2,3) has {1,2,3,4,6}
    assert set(sp.omega_closure(mg.omega_bruteforce("GL2", 3, 1))) == {1, 2, 3, 4, 6, 8}
    assert set(sp.omega_closure(mg.omega_bruteforce("SL2", 3, 1))) == {1, 2, 3, 4, 6}


def exhaustive_orders(p, n):
    """Element orders of GL/SL/PGL/PSL(2, p^n) over all q^4 matrices.

    The oracle's own oracle: every matrix is visited, with powers stepped one
    multiplication at a time in the slow_tables arithmetic.  Orders are
    memoized per (trace, det, scalar), which fix the conjugacy class of a 2x2
    matrix.
    """
    ctx = mg.field_ctx(p, n)
    add, sub, mul = slow_tables(ctx)

    def mat_mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

    def orders_of(x):
        # (linear order, projective order)
        acc, k, proj = x, 1, None
        while acc != (1, 0, 0, 1):
            if proj is None and acc[1] == acc[2] == 0 and acc[0] == acc[3]:
                proj = k
            acc, k = mat_mul(acc, x), k + 1
        return k, proj or k

    found = {family: set() for family in mg.FAMILIES}
    memo = {}
    for a, b, c, d in product(range(ctx.q), repeat=4):
        det = sub[mul[a][d]][mul[b][c]]
        if det == 0:
            continue
        key = (add[a][d], det, b == c == 0 and a == d)
        if key not in memo:
            memo[key] = orders_of((a, b, c, d))
        linear, projective = memo[key]
        found["GL2"].add(linear)
        found["PGL2"].add(projective)
        if det == 1:
            found["SL2"].add(linear)
            found["PSL2"].add(projective)
    return found


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (11, 1), (13, 1), (2, 4)])
def test_class_representatives_match_exhaustive_enumeration(p, n):
    found = exhaustive_orders(p, n)
    for family in mg.FAMILIES:
        assert mg.omega_bruteforce(family, p, n).mu == \
            sp.maximal_elements(found[family]).mu, family


@pytest.mark.parametrize("p,n", [(2, 5), (7, 2), (2, 6)])
def test_oracle_beyond_enumeration_reach(p, n):
    assert mg.omega_bruteforce("PGL2", p, n, cap=64).mu == sp.mu_pgl2(p, n).mu
    assert mg.omega_bruteforce("PSL2", p, n, cap=64).mu == sp.mu_psl2(p, n).mu


def test_omega_bruteforce_guards():
    with pytest.raises(ValueError):
        mg.omega_bruteforce("SP4", 3, 1)
    with pytest.raises(CapExceeded):
        mg.omega_bruteforce("PGL2", 2, 7)
    with pytest.raises(NotPrime):
        mg.omega_bruteforce("PGL2", 10, 1)
    # q = p^n is no field size for n < 1: a domain error, not a cap
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            mg.omega_bruteforce("PGL2", 7, n)



def test_omega_bruteforce_names_q_past_the_cap_without_building_it():
    # 7^3000000 has 2.5 million digits, and (2^1279 - 1)^12, a Mersenne
    # prime's power, more than the 4300 Python prints by default
    with pytest.raises(CapExceeded, match=r"^q=7\^3000000 exceeds enumeration cap 32$"):
        mg.omega_bruteforce("PGL2", 7, 3_000_000)
    mersenne = 2**1279 - 1
    with pytest.raises(CapExceeded, match=rf"^q={mersenne}\^12 exceeds"):
        mg.omega_bruteforce("PGL2", mersenne, 12)
    # a q that is built is named by its value
    with pytest.raises(CapExceeded, match=r"^q=37 exceeds enumeration cap 32$"):
        mg.omega_bruteforce("PGL2", 37, 1)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (7, 1)])
def test_enumerate_sl2_in_lexicographic_order(p, n):
    ctx = mg.field_ctx(p, n)
    _, sub, mul = slow_tables(ctx)
    assert mg.enumerate_sl2(ctx) == [
        (a, b, c, d) for a, b, c, d in product(range(ctx.q), repeat=4)
        if sub[mul[a][d]][mul[b][c]] == 1]


# --- closure -------------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_sl2_orders_by_trace_match_linear_order(p, n):
    ctx = mg.field_ctx(p, n)
    order = mg._sl2_orders(ctx)
    linear = {g: linear_order(g, ctx) for g in mg.enumerate_sl2(ctx)}
    assert {g: order(g) for g in linear} == linear
    assert mg._class_orders("SL2", ctx) == set(linear.values())


def test_subgroup_closure_identity():
    ctx = mg.field_ctx(7, 1)
    assert mg.subgroup_closure([(1, 0, 0, 1)], ctx=ctx) == [(1, 0, 0, 1)]
    assert mg.subgroup_closure([], ctx=ctx) == [(1, 0, 0, 1)]


def test_subgroup_closure_cyclic():
    ctx = mg.field_ctx(7, 1)
    m = (3, 0, 0, 1)  # linear order 6 in GL(2,7)
    closure = mg.subgroup_closure([m], ctx=ctx)
    assert len(closure) == 6
    assert closure[0] == (1, 0, 0, 1)


def test_subgroup_closure_sl23_inside_sl27():
    # these two generate a 24-element copy of SL(2,3) in SL(2,7)
    ctx = mg.field_ctx(7, 1)
    gens = [(0, 1, 6, 0), (0, 2, 3, 1)]
    closure = mg.subgroup_closure(gens, ctx=ctx)
    assert len(closure) == 24
    census = Counter(linear_order(g, ctx) for g in closure)
    assert set(census) == {1, 2, 3, 4, 6}
    # closed under multiplication
    satellite = set(closure)
    for g in closure[:6]:
        for h in closure:
            assert mg.mat_mul(g, h, ctx) in satellite


def test_subgroup_closure_cap():
    ctx = mg.field_ctx(7, 1)
    gens = [(0, 1, 6, 0), (0, 2, 3, 1)]
    with pytest.raises(CapExceeded):
        mg.subgroup_closure(gens, ctx=ctx, cap=10)


def test_find_binary_octahedral_subgroup():
    w = mg.find_binary_octahedral_subgroup(seed=0)
    assert len(w.elements) == 48
    assert w.order_set == {1, 2, 3, 4, 6, 8}
    census = dict(w.order_counts)
    assert census[2] == 1  # unique involution: quaternion Sylow 2-subgroup
    # reproducible for the fixed seed
    again = mg.find_binary_octahedral_subgroup(seed=0)
    assert again.generators == w.generators


def test_binary_octahedral_witness_is_pinned():
    # a change to the field arithmetic or to the order of enumerate_sl2 must
    # not move the witness a seed finds
    w = mg.find_binary_octahedral_subgroup(seed=0)
    assert w.generators == ((3, 5, 4, 0), (3, 1, 1, 3))
    assert w.order_counts == ((1, 1), (2, 1), (3, 8), (4, 18), (6, 8), (8, 12))


def find_binary_octahedral_unfiltered(seed):
    """The search closing every drawn pair, with orders by repeated
    multiplication: the reference for the trace filter of the library's."""
    ctx = mg.field_ctx(7, 1)
    sl2 = mg.enumerate_sl2(ctx)
    rng = random.Random(f"binoct:{seed}")
    for _ in range(mg._BINOCT_TRIALS):
        x = sl2[rng.randrange(len(sl2))]
        y = sl2[rng.randrange(len(sl2))]
        try:
            closure = mg.subgroup_closure([x, y], ctx, cap=48)
        except CapExceeded:
            continue
        if len(closure) != 48:
            continue
        census = Counter(linear_order(g, ctx) for g in closure)
        if set(census) == {1, 2, 3, 4, 6, 8} and census[2] == 1:
            return mg.SubgroupWitness(
                generators=(x, y),
                elements=tuple(closure),
                order_counts=tuple(sorted(census.items())),
            )
    raise RuntimeError(f"no 48-element witness found in {mg._BINOCT_TRIALS} trials")


def test_trace_filter_keeps_every_witness():
    for seed in range(100):
        w = mg.find_binary_octahedral_subgroup(seed)
        ref = find_binary_octahedral_unfiltered(seed)
        assert (w.generators, w.elements, w.order_counts) == \
            (ref.generators, ref.elements, ref.order_counts), seed


def test_trace_filter_gives_up_at_the_same_draw(monkeypatch):
    monkeypatch.setattr(mg, "_BINOCT_TRIALS", 20)
    outcomes = Counter()
    for seed in range(100):
        try:
            ref = find_binary_octahedral_unfiltered(seed)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                mg.find_binary_octahedral_subgroup(seed)
            outcomes["raised"] += 1
            continue
        assert mg.find_binary_octahedral_subgroup(seed) == ref, seed
        outcomes["found"] += 1
    assert outcomes["raised"] and outcomes["found"]


def test_search_witnesses_of_the_benchmark_seeds_are_pinned():
    # generators, elements and order census of every witness for the oracle
    # benchmark's search seeds 0-41, digested from products computed
    # entirely by Zech logarithms; a wrong product that still closes to 48
    # elements moves some witness, and with it the digest
    witnesses = tuple(tuple(mg.find_binary_octahedral_subgroup(s)) for s in range(42))
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
        "152b23cb91a5ac1ad12cc42628ec8f34a8bcfe94cdaa90980e5c1b8cbe311a99"


# --- GF(p) in integers mod p against the polynomial path ------------------------------

PRIMES_TO_CAP = [p for p in range(2, mg.DEFAULT_ENUM_CAP) if mg.is_prime(p)]


def slow_mat_mul(add, mul):
    """The 2x2 product in slow_tables arithmetic."""
    def mat_mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])
    return mat_mul


@pytest.mark.parametrize("p", PRIMES_TO_CAP)
def test_prime_field_mat_mul_matches_polynomial_path(p):
    ctx = mg.field_ctx(p, 1)
    add, _, mul = slow_tables(ctx)
    slow = slow_mat_mul(add, mul)
    if p <= 3:
        pairs = product(product(range(p), repeat=4), repeat=2)
    else:
        rng = random.Random(f"mat_mul:{p}")
        pairs = [tuple(tuple(rng.randrange(p) for _ in range(4)) for _ in range(2))
                 for _ in range(2000)]
    for x, y in pairs:
        assert mg.mat_mul(x, y, ctx) == slow(x, y), (x, y)


@pytest.mark.parametrize("p", PRIMES_TO_CAP)
def test_prime_field_companion_power_matches_polynomial_path(p):
    ctx = mg.field_ctx(p, 1)
    _, sub, mul = slow_tables(ctx)
    for t, d in product(range(p), range(1, p)):
        # U_{k+1} = t U_k - d U_{k-1} up to its first zero; C^k = -d U_{k-1} I
        prev, cur, k = 0, 1, 1
        while cur != 0:
            prev, cur, k = cur, sub[mul[t][cur]][mul[d][prev]], k + 1
        assert mg._companion_power(t, d, ctx) == (k, sub[0][mul[d][prev]]), (t, d)


@pytest.mark.parametrize("p", [p for p in PRIMES_TO_CAP if p <= 13])
def test_prime_field_sl2_orders_match_polynomial_path(p):
    ctx = mg.field_ctx(p, 1)
    add, sub, mul = slow_tables(ctx)
    slow = slow_mat_mul(add, mul)
    order = mg._sl2_orders(ctx)
    sl2 = [g for g in product(range(p), repeat=4)
           if sub[mul[g[0]][g[3]]][mul[g[1]][g[2]]] == 1]
    assert len(sl2) == p * (p * p - 1)
    for g in sl2:
        acc, k = g, 1
        while acc != (1, 0, 0, 1):
            acc, k = slow(acc, g), k + 1
        assert order(g) == k, g


# --- scaling orbits against one sequence per characteristic polynomial ---------------

def orders_by_char_poly(family, ctx):
    """Element orders from every scalar and one companion matrix per (t, d).

    The oracle for the orbit representatives of mg._class_orders: it steps a
    Lucas sequence for each of the q (q - 1) characteristic polynomials of
    GL(2, q), or the q with d = 1 for SL2 and PSL2, with no scaling argument.
    """
    q = ctx.q
    if family in ("SL2", "PSL2"):
        scalars, dets = {1, ctx.neg(1)}, (1,)
    else:
        scalars = dets = range(1, q)
    powers = [(1, a) for a in scalars]
    powers += [mg._companion_power(t, d, ctx) for d in dets for t in range(q)]
    if family in ("GL2", "SL2"):  # ord(lam) = (q-1)/gcd(q-1, log lam)
        return {k * ((q - 1) // gcd(q - 1, ctx._log[lam])) for k, lam in powers}
    return {k for k, _ in powers}


PRIME_POWERS_TO_32 = [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                      for n in range(1, 6) if p**n <= 32]


@pytest.mark.parametrize("p,n", PRIME_POWERS_TO_32)
def test_scaling_orbits_match_every_characteristic_polynomial(p, n):
    ctx = mg.field_ctx(p, n)
    for family in mg.FAMILIES:
        # every element order, not only the maximal ones: an orbit lost to a
        # bad representative can hide below a maximal order
        assert mg._class_orders(family, ctx) == orders_by_char_poly(family, ctx), family
        assert mg.omega_bruteforce(family, p, n).mu == \
            sp.maximal_elements(orders_by_char_poly(family, ctx)).mu, family


def mu_gl2(p, n):
    q = p**n
    return sp.maximal_elements({q * q - 1, p * (q - 1)}).mu


def mu_sl2(p, n):
    q = p**n
    return sp.maximal_elements({q - 1, q + 1, p * gcd(2, q - 1)}).mu


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (3, 5), (2, 8)])
def test_oracle_agrees_with_closed_forms_at_larger_q(p, n):
    q = p**n
    assert mg.omega_bruteforce("PGL2", p, n, cap=q).mu == sp.mu_pgl2(p, n).mu
    assert mg.omega_bruteforce("PSL2", p, n, cap=q).mu == sp.mu_psl2(p, n).mu
    assert mg.omega_bruteforce("GL2", p, n, cap=q).mu == mu_gl2(p, n)
    assert mg.omega_bruteforce("SL2", p, n, cap=q).mu == mu_sl2(p, n)


# --- Lucas steps in Zech logs on extension fields --------------------------------------

EXTENSION_FIELDS_TO_32 = [(p, n) for p, n in PRIME_POWERS_TO_32 if n > 1]


@pytest.mark.parametrize("p,n", EXTENSION_FIELDS_TO_32)
def test_extension_field_companion_power_matches_polynomial_path(p, n):
    ctx = mg.field_ctx(p, n)
    _, sub, mul = slow_tables(ctx)
    for t, d in product(range(ctx.q), range(1, ctx.q)):
        # U_{k+1} = t U_k - d U_{k-1} up to its first zero; C^k = -d U_{k-1} I
        prev, cur, k = 0, 1, 1
        while cur != 0:
            prev, cur, k = cur, sub[mul[t][cur]][mul[d][prev]], k + 1
        assert mg._companion_power(t, d, ctx) == (k, sub[0][mul[d][prev]]), (t, d)


@pytest.mark.parametrize("p,n", [(7, 2), (2, 6), (3, 4)])
def test_log_residues_match_every_characteristic_polynomial(p, n):
    # q = 49, 64, 81: gcd(k, q - 1) takes many values over the orders k
    ctx = mg.field_ctx(p, n)
    for family in mg.FAMILIES:
        assert mg._class_orders(family, ctx) == orders_by_char_poly(family, ctx), family


@pytest.mark.parametrize("p,n", [(31, 2), (2, 10)])
def test_linear_oracle_agrees_with_closed_forms_at_q_near_1000(p, n):
    q = p**n
    assert mg.omega_bruteforce("GL2", p, n, cap=q).mu == mu_gl2(p, n)
    assert mg.omega_bruteforce("SL2", p, n, cap=q).mu == mu_sl2(p, n)
