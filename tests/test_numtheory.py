import collections
import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pglspectra import numtheory as nt
from pglspectra import spectra as sp
from pglspectra.errors import FactorizationIncomplete, NotCoprime


# --- independent oracles ----------------------------------------------------

def naive_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def naive_order(a: int, m: int) -> int:
    x = a % m
    k = 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def ppd_by_set_difference(a: int, n: int) -> tuple[frozenset[int], bool]:
    """Primitive primes of a^n - 1 as the primes of a^n - 1 that divide no
    a^i - 1 with i < n, and whether every factorization was complete.
    Never evaluates a cyclotomic polynomial."""
    complete = True
    lower: set[int] = set()
    for i in range(1, n):
        f = nt.factor(a**i - 1)
        complete &= f.complete
        lower.update(f.primes())
    top = nt.factor(a**n - 1)
    return frozenset(set(top.primes()) - lower), complete and top.complete


def largest_prime_below(n: int) -> int:
    """The largest prime <= n (n >= 2): picks test primes."""
    if n < 2:
        raise ValueError("no prime <= n for n < 2")
    k = n
    while not nt.is_prime(k):
        k -= 1
    return k


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    f = nt.factor(n).require_complete()
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def is_primitive_prime_divisor(a: int, n: int, s: int) -> bool:
    """Definition check: s | a^n - 1 and s does not divide a^i - 1 for i < n."""
    if pow(a, n, s) != 1 % s:
        return False
    return all(pow(a, i, s) != 1 % s for i in range(1, n))


def ppd_above_by_sieve(a: int, n: int, q: int) -> tuple[nt.PpdReport, bool]:
    """ppd_exists_above by trial division with every prime <= q from a sieve,
    and whether the residual was ever itself a prime <= q."""
    value = nt._stripped_cyclotomic(a, n)
    n_primes = nt.factor(n).primes()
    found: set[int] = set()
    edge = False
    for r in nt.primes_below(q + 1):
        if value == 1:
            break
        edge |= value == r
        if value % r == 0:
            found.add(r)
            while value % r == 0:
                value //= r
    exists = value > 1
    if q < n:
        for r in n_primes:
            if r > q and is_primitive_prime_divisor(a, n, r):
                found.add(r)
                exists = True
    rep = nt.PpdReport(
        a=a, n=n, primitive_primes=frozenset(found),
        exception=nt.zsigmondy_exception(a, n),
        method=nt.METHOD_RESIDUAL, residual=value,
        threshold=q, exists_above_threshold=exists,
        complete=not exists,
    )
    return rep, edge


def catalan_by_sieve(value_bound: int) -> list[tuple[int, int, int, int, str]]:
    """Every prime power p^m <= bound, sieved, with p^m - 1 tested as a prime power."""
    out = []
    for p in nt.primes_below(value_bound + 1):
        v, m = p, 1
        while v <= value_bound:
            qn = nt._prime_power(v - 1)
            if qn is not None:
                out.append((p, m, *qn, nt._classify_catalan(p, m, *qn)))
            v *= p
            m += 1
    out.sort(key=lambda s: (s[0]**s[1], s[0]))
    return out


def cyclotomic_by_mobius(n: int, a: int) -> int:
    """Phi_n(a) as prod over d | n of (a^d - 1)^mobius(n/d), the quotient
    checked exact; never divides by a lower Phi_e(a)."""
    num = den = 1
    for d in nt.divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num *= a**d - 1
        elif mu == -1:
            den *= a**d - 1
    value, rem = divmod(num, den)
    assert rem == 0, (n, a)
    return value


# --- primality ---------------------------------------------------------------

def test_is_prime_matches_trial_division_below_3000():
    for n in range(3000):
        assert nt.is_prime(n) == naive_is_prime(n), n


def test_is_prime_random_sample_against_trial_division():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert nt.is_prime(n) == naive_is_prime(n), n


def test_is_prime_examples():
    assert not nt.is_prime(1)
    assert nt.is_prime(1201)
    assert nt.is_prime(14199121)


def test_primality_probabilistic_flag():
    # 2^89 - 1 is a Mersenne prime well beyond the deterministic threshold
    big = 2**89 - 1
    status = nt.primality(big)
    assert status.prime and status.probabilistic
    assert not nt.primality(10**18 + 9).probabilistic


def test_largest_prime_below():
    assert largest_prime_below(10) == 7
    assert largest_prime_below(2) == 2
    assert largest_prime_below(13) == 13
    with pytest.raises(ValueError):
        largest_prime_below(1)


# --- factor ------------------------------------------------------------------

def test_factor_examples():
    assert nt.factor(2402).as_dict() == {2: 1, 1201: 1}
    one = nt.factor(1)
    assert one.factors == () and one.complete
    assert nt.factor(28398240).as_dict() == {2: 5, 3: 2, 5: 1, 13: 1, 37: 1, 41: 1}


def test_factor_against_naive_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        assert nt.factor(n).as_dict() == naive_factor(n), n


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factor_reconstruction(n):
    f = nt.factor(n)
    assert f.complete
    assert f.product() == n
    primes = f.primes()
    assert list(primes) == sorted(primes)
    assert all(nt.is_prime(p) for p in primes)
    assert all(e >= 1 for _, e in f.factors)


def test_factor_perfect_powers():
    p = largest_prime_below(10**6)
    assert nt.factor(p * p).as_dict() == {p: 2}
    assert nt.factor(p**3).as_dict() == {p: 3}


# two ~10^15 primes: far beyond trial division, and rho cannot split the
# product within a tiny budget
HARD_P1 = 999999999999989
HARD_P2 = 999998999999977


@pytest.fixture
def limits():
    """nt.configure, with the budget it found put back afterwards."""
    previous = nt.configure()
    yield nt.configure
    nt.configure(**previous)


def test_factor_budget_exhaustion_is_reported(limits):
    assert nt.is_prime(HARD_P1) and nt.is_prime(HARD_P2)
    limits(budget=500)
    f = nt.factor(HARD_P1 * HARD_P2)
    assert not f.complete
    assert f.cofactor == HARD_P1 * HARD_P2
    assert f.product() == HARD_P1 * HARD_P2
    with pytest.raises(FactorizationIncomplete):
        f.require_complete()


def test_factor_hard_semiprime_succeeds_with_real_budget():
    # both prime factors near 10^8: a genuine rho workout
    p = largest_prime_below(10**8)
    q = largest_prime_below(10**8 - 10**4)
    assert nt.factor(p * q).as_dict() == {p: 1, q: 1}


def test_factor_deterministic_for_fixed_seed(monkeypatch, limits):
    # the cache is emptied in between, so the two results are two computations
    cache: dict = {}
    monkeypatch.setattr(nt, "_FACTOR_CACHE", cache)
    n = HARD_P1 * HARD_P2
    limits(budget=2 * 10**7)
    a = nt.factor(n)
    cache.clear()
    b = nt.factor(n)
    assert a == b and a is not b


def test_negative_budget_is_rejected(limits):
    before = nt.configure()
    with pytest.raises(ValueError, match="budget must be >= 0, got -5"):
        nt.configure(budget=-5)
    # the rejected call changed nothing, and budget 0 is trial division only
    assert nt.configure() == before
    limits(budget=0)
    assert nt.factor(91).as_dict() == {7: 1, 13: 1}
    assert not nt.factor(HARD_P1 * HARD_P2).complete


def test_configure_returns_the_limits_it_replaced():
    previous = nt.configure(budget=300)
    try:
        assert previous == {"budget": nt.DEFAULT_RHO_BUDGET}
        assert nt.configure(**previous) == {"budget": 300}
        assert nt.configure() == previous
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_configure_takes_only_the_budget(limits):
    # the rho walk is not a setting: a seed is rejected and changes nothing
    before = nt.configure()
    with pytest.raises(TypeError):
        nt.configure(seed=1)
    assert nt.configure() == before


# --- divisors / mobius --------------------------------------------------------

def test_factor_pieces_merges_counts_and_probable_primes():
    m89 = 2**89 - 1  # prime, beyond the deterministic primality range
    f = nt.factor_pieces((m89, 12, m89, 1))
    assert f == nt.Factorization(12 * m89**2, ((2, 2), (3, 1), (m89, 2)),
                                 probable=(m89,))
    assert f == nt.factor(12 * m89**2)


def test_factor_pieces_incomplete_multiplies_stuck_cofactors():
    hard = 999999999999989 * 999998999999977
    nt.configure(budget=200)
    try:
        f = nt.factor_pieces((hard, 10, hard))
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    assert not f.complete
    assert f.base_n == 10 * hard**2
    assert f.factors == ((2, 1), (5, 1))
    assert f.cofactor == hard**2
    assert f.product() == f.base_n
    with pytest.raises(FactorizationIncomplete):
        f.require_complete()


def test_factor_caches_every_outcome_under_what_decides_it(monkeypatch, limits):
    cache: dict = {}
    monkeypatch.setattr(nt, "_FACTOR_CACHE", cache)
    f = nt.factor(2**64 + 1)
    assert f.complete and nt.factor(2**64 + 1) is f
    # an incomplete result is kept too, and answers only the same limits
    hard = HARD_P1 * HARD_P2
    previous = limits(budget=200)
    stuck = nt.factor(hard)
    assert not stuck.complete
    assert nt.factor(hard) is stuck
    limits(**previous)
    # the modulus of a _Congruent is part of the key
    piece = nt._cyclotomic_pieces(7, 5)[5]  # Phi_5(7) = 2801, a prime
    tagged, plain = nt.factor(piece), nt.factor(2801)
    assert tagged == plain and tagged is not plain
    assert {key[:2] for key in cache if key[0] == 2801} == {(2801, 5), (2801, 1)}
    # factor_pieces caches nothing of its own: only factor() writes entries
    keys = set(cache)
    nt.factor_pieces((3, 8, 100))
    assert {key[0] for key in set(cache) - keys} == {3, 8, 100}
    # ppd factors the model's own Phi_4(7) = 50, the piece of q + 1 that
    # mu_pgl2(7, 2) factored: its entry answers, and none is added
    sp.mu_pgl2(7, 2).factorization(50)
    keys = set(cache)
    assert nt.primitive_prime_divisors(7, 4).primitive_primes == {5}
    assert set(cache) == keys


def test_cache_answers_only_the_budget_that_filled_it(monkeypatch, limits):
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    n = 12865927 * 9468940004449
    f = nt.factor(n)
    assert f.complete
    previous = limits(budget=1)
    assert not nt.factor(n).complete
    limits(**previous)
    assert nt.factor(n) is f


def test_divisors_of_merged_pieces():
    assert nt.factor_pieces((3, 8, 100)).divisors() == nt.divisors(2400)
    with pytest.raises(FactorizationIncomplete):
        nt.Factorization(30, ((2, 1),), complete=False, cofactor=15).divisors()


def test_divisors_examples():
    assert nt.divisors(1) == [1]
    assert nt.divisors(8) == [1, 2, 4, 8]
    assert nt.divisors(10) == [1, 2, 5, 10]


def test_divisors_against_naive():
    for n in range(1, 500):
        assert nt.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def _divisors_by_trial(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


@pytest.mark.parametrize("factors", [
    (),
    ((2, 30),),
    ((3, 20), (5, 3), (7, 1)),
    ((2, 5), (3, 4), (5, 2), (7, 1), (11, 1), (13, 1)),
    ((101, 3), (1000003, 1)),
])
def test_factorization_divisors_strictly_ascending_and_complete(factors):
    n = math.prod(p**e for p, e in factors)
    divs = nt.Factorization(n, factors).divisors()
    assert all(a < b for a, b in zip(divs, divs[1:]))
    assert divs == _divisors_by_trial(n)


def test_divisors_propagates_incomplete():
    nt.configure(budget=200)
    try:
        with pytest.raises(FactorizationIncomplete):
            nt.divisors(HARD_P1 * HARD_P2)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_mobius_examples_and_oracle():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    for n in range(1, 400):
        f = naive_factor(n)
        expected = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
        if n == 1:
            expected = 1
        assert mobius(n) == expected, n


# --- multiplicative order ------------------------------------------------------

def test_multiplicative_order_examples():
    assert nt.multiplicative_order(7, 2801) == 5
    assert nt.multiplicative_order(1, 97) == 1
    assert nt.multiplicative_order(13, 30941) == 5
    assert nt.multiplicative_order(3, 4) == 2  # lambda(4) = 2


def test_multiplicative_order_not_coprime():
    with pytest.raises(NotCoprime):
        nt.multiplicative_order(6, 27)


def test_multiplicative_order_rejects_a_modulus_below_2():
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        nt.multiplicative_order(3, 1)


def test_multiplicative_order_against_stepping():
    for m in range(2, 300):  # every coprime pair, then seeded larger moduli
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert nt.multiplicative_order(a, m) == naive_order(a, m), (a, m)
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randrange(2, 4000)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        assert nt.multiplicative_order(a, m) == naive_order(a, m), (a, m)


# --- cyclotomic values ----------------------------------------------------------

def test_cyclotomic_examples():
    for a in range(2, 9):
        assert nt.cyclotomic_value(1, a) == a - 1
    assert nt.cyclotomic_value(2, 7) == 8
    assert nt.cyclotomic_value(6, 2) == 3


def test_cyclotomic_product_identity_small():
    for a in range(2, 9):
        for n in range(1, 17):
            prod = 1
            for d in nt.divisors(n):
                prod *= nt.cyclotomic_value(d, a)
            assert prod == a**n - 1, (a, n)


def test_cyclotomic_value_matches_mobius_product():
    cases = [(n, a) for a in range(2, 31) for n in range(1, 61)]
    for n, a in cases + [(720, 2), (360, 7), (126, 73)]:
        assert nt.cyclotomic_value(n, a) == cyclotomic_by_mobius(n, a), (a, n)
    for n, a in ((0, 2), (3, 1)):
        with pytest.raises(ValueError):
            nt.cyclotomic_value(n, a)


def test_cyclotomic_pieces_carry_their_index_as_modulus():
    for a in (2, 3, 7, 73):
        for m in (1, 2, 12, 36, 60, 126, 720):
            pieces = nt._cyclotomic_pieces(a, m)
            assert list(pieces) == [d for d in range(1, m + 1) if m % d == 0]
            for d, v in pieces.items():
                assert type(v) is nt._Congruent and v.modulus == d, (a, m, d)
                assert v == cyclotomic_by_mobius(d, a), (a, m, d)


def test_q_pm_1_pieces_pgl_and_psl_forms():
    for p in (2, 3, 5, 7, 97):
        for n in range(1, 13):
            q = p**n
            minus_ds = [d for d in range(1, n + 1) if n % d == 0]
            plus_ds = [d for d in range(1, 2 * n + 1) if 2 * n % d == 0 and n % d]
            for e in {1, math.gcd(2, q - 1)}:  # the PGL and the PSL form
                minus, plus = nt.q_pm_1_pieces(p, n, e)
                for pieces, value, ds in ((minus, q - 1, minus_ds),
                                          (plus, q + 1, plus_ds)):
                    assert math.prod(pieces) == value // e, (p, n, e)
                    assert all(type(v) is nt._Congruent for v in pieces), (p, n, e)
                    assert [v.modulus for v in pieces] == ds, (p, n, e)
                    for v in pieces:
                        d = v.modulus
                        # factored as a plain integer, without the congruence
                        for s in nt.factor(int(v)).require_complete().primes():
                            assert d % s == 0 or s % d == 1 % d, (p, n, e, s)


def test_cyclotomic_product_pieces_multiply_to_sympy_products():
    # prod over m in ms of Phi_m(p^n) from sympy's polynomials, for F4's
    # index sets and distinct ones drawn from the subsets of 1..30 whose lcm
    # is at most 60, each asked for next to (1,) and (2,) in one call
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = {m: sympy.Poly(sympy.cyclotomic_poly(m, x)) for m in range(1, 31)}
    rng = random.Random(31)
    draws = [(1, 2, 4), (8,), (12,), (1, 2, 6), (1, 2, 3)]
    while len(draws) < 24:
        ms = tuple(sorted(rng.sample(range(1, 31), rng.randint(1, 4))))
        if math.lcm(*ms) <= 60 and ms not in draws:
            draws.append(ms)
    for p in PAPER_BASES:
        for n in range(1, 13):
            q = p**n
            for ms in draws:
                index_sets = (ms, (1,), (2,))
                got = nt.cyclotomic_product_pieces(p, n, index_sets)
                for sets, pieces in zip(index_sets, got):
                    ds = [v.modulus for v in pieces]
                    assert all(type(v) is nt._Congruent for v in pieces), (p, n, sets)
                    assert ds == sorted(ds), (p, n, sets)
                    assert all(d // math.gcd(d, n) in sets for d in ds), (p, n, sets)
                    assert math.prod(pieces) == math.prod(
                        int(poly[m].eval(q)) for m in sets), (p, n, sets)
                # the same products by Kronecker substitution, at q and at q^3
                for x in (q, q**3):
                    assert nt.cyclotomic_products(x, index_sets) == [
                        math.prod(int(poly[m].eval(x)) for m in sets)
                        for sets in index_sets], (p, n, ms)


# --- primitive prime divisors -----------------------------------------------------

def test_ppd_examples():
    assert nt.primitive_prime_divisors(7, 5).primitive_primes == {2801}
    rep26 = nt.primitive_prime_divisors(2, 6)
    assert rep26.primitive_primes == frozenset()
    assert rep26.exception == nt.EXCEPTION_A2N6
    assert nt.primitive_prime_divisors(13, 4).primitive_primes == {5, 17}
    rep72 = nt.primitive_prime_divisors(7, 2)
    assert rep72.primitive_primes == frozenset()
    assert rep72.exception == nt.EXCEPTION_MERSENNE_SQUARE


def test_ppd_n_equals_1_is_prime_set_of_a_minus_1():
    assert nt.primitive_prime_divisors(7, 1).primitive_primes == {2, 3}
    assert nt.primitive_prime_divisors(2, 1).primitive_primes == frozenset()


def test_zsigmondy_exception_classifier():
    assert nt.zsigmondy_exception(2, 6) == nt.EXCEPTION_A2N6
    for a in (3, 7, 15, 31, 63, 127):
        assert nt.zsigmondy_exception(a, 2) == nt.EXCEPTION_MERSENNE_SQUARE
    assert nt.zsigmondy_exception(5, 2) == nt.EXCEPTION_NONE
    assert nt.zsigmondy_exception(2, 2) == nt.EXCEPTION_NONE
    assert nt.zsigmondy_exception(7, 3) == nt.EXCEPTION_NONE


def test_ppd_congruence_and_order_small_grid():
    for a in range(2, 11):
        for n in range(2, 13):
            rep = nt.primitive_prime_divisors(a, n)
            for s in rep.primitive_primes:
                assert s % n == 1, (a, n, s)
                assert nt.multiplicative_order(a, s) == n, (a, n, s)


def test_ppd_method_equivalence_small_grid():
    # full-factorization route vs prime factors of Phi_n(a) not dividing n
    for a in range(2, 11):
        for n in range(2, 13):
            full = nt.primitive_prime_divisors(a, n).primitive_primes
            phi = nt.cyclotomic_value(n, a)
            via_phi = {p for p in nt.factor(a**n - 1).primes()
                       if phi % p == 0 and n % p != 0}
            assert full == via_phi, (a, n)


def test_ppd_matches_set_difference_reference_grid():
    for a in range(2, 31):
        for n in range(1, 21):
            rep = nt.primitive_prime_divisors(a, n)
            primes, complete = ppd_by_set_difference(a, n)
            assert complete and rep.complete, (a, n)
            assert rep.primitive_primes == primes, (a, n)
            # Zsigmondy: for n >= 2 the set is empty exactly at the exceptions
            assert (rep.exception != nt.EXCEPTION_NONE) == (n > 1 and not primes), (a, n)


def test_budget_charges_the_multiplications_of_each_step(monkeypatch, limits):
    # the stripped Phi_23(37) is 47 * 1845029930335901 * 375176717285846681,
    # so rho on x -> x^46 + c runs out of budget; each step costs the 7
    # multiplications of pow(x, 46, n), so it takes about budget / 7 steps
    calls = 0

    def counting_pow(*args):
        nonlocal calls
        calls += 1
        return pow(*args)

    monkeypatch.setattr(nt, "pow", counting_pow, raising=False)
    budget = 20000
    limits(budget=budget)
    rep = nt.primitive_prime_divisors(37, 23)
    assert not rep.complete
    assert calls <= 2 * budget // 7 + 256


def test_ppd_completes_where_lower_a_i_minus_1_are_hard(limits):
    # Phi_60(7) and Phi_40(13) split at once, although some 7^i - 1 with
    # i < 60 and 13^i - 1 with i < 40 do not split within these budgets
    for budget in (100000, nt.DEFAULT_RHO_BUDGET):
        limits(budget=budget)
        rep = nt.primitive_prime_divisors(7, 60)
        assert rep.complete and rep.primitive_primes == {61, 555915824341}
        rep = nt.primitive_prime_divisors(13, 40)
        assert rep.complete
        assert rep.primitive_primes == {41, 29881, 543124566401}


# --- ppd_exists_above ---------------------------------------------------------------

def test_ppd_above_examples(monkeypatch):
    # the strip divides by gcd(value, n): no ppd-above path factors anything
    def no_factor(n):
        raise AssertionError(f"factor({n}) called")

    monkeypatch.setattr(nt, "factor", no_factor)
    # Phi_20(2) = 5 * 41, Phi_6(5) = 3 * 7, Phi_8(3) = 2 * 41, Phi_2(23) = 2^3 * 3
    for (a, n), value in {(7, 5): 2801, (2, 6): 1, (2, 20): 41, (5, 6): 7,
                          (3, 8): 41, (23, 2): 3, (7, 1): 6}.items():
        assert nt._stripped_cyclotomic(a, n) == value, (a, n)
    rep = nt.ppd_exists_above(7, 5, 13)
    assert rep.exists_above_threshold is True
    assert rep.residual == 2801
    assert rep.method == nt.METHOD_RESIDUAL
    assert nt.ppd_exists_above(2, 6, 2).exists_above_threshold is False
    # infeasible by full factorization; the whole point of the method
    rep = nt.ppd_exists_above(73, 126, 127)
    assert rep.exists_above_threshold is True
    assert rep.residual == nt.cyclotomic_value(126, 73)


def test_ppd_above_finds_known_false_instance():
    # the primitive prime divisors of 17^6 - 1 are 7 and 13, both below 19
    rep = nt.ppd_exists_above(17, 6, 19)
    assert rep.exists_above_threshold is False
    assert rep.primitive_primes == {7, 13}
    assert rep.complete


def test_ppd_above_agrees_with_full_factorization():
    for a in range(2, 11):
        for n in range(2, 13):
            full = nt.primitive_prime_divisors(a, n).primitive_primes
            for q in (2, 3, 7, 19, 50):
                rep = nt.ppd_exists_above(a, n, q)
                expected = any(s > q for s in full)
                assert rep.exists_above_threshold == expected, (a, n, q)
                # the primes it does list are genuine and below the threshold
                assert rep.primitive_primes <= full
                assert all(s <= q for s in rep.primitive_primes)


def test_ppd_above_matches_sieve_route_grid():
    # residual, verdict and primes equal the trial division by every prime
    # <= q, including the cases where the residual becomes a prime <= q
    # (found by the early stop) and q < n (the stripped-prime re-check)
    edges = 0
    for q in (2, 3, 7, 19, 50, 127, 2000):
        for a in range(2, 31):
            for n in range(2, 31):
                expected, edge = ppd_above_by_sieve(a, n, q)
                assert nt.ppd_exists_above(a, n, q) == expected, (a, n, q)
                edges += edge
    assert edges > 100


def test_ppd_above_small_threshold_regime():
    # q < n exercises the documented re-check of stripped primes; in
    # (2, 14, 3) the stripped prime 7 exceeds q but divides 2^3 - 1,
    # so it is not primitive and must be discounted
    for a, n, q in ((2, 12, 3), (2, 14, 3), (2, 6, 2), (3, 10, 2)):
        rep = nt.ppd_exists_above(a, n, q)
        full = nt.primitive_prime_divisors(a, n).primitive_primes
        assert rep.exists_above_threshold == any(s > q for s in full), (a, n, q)


# --- p^m = q^n + 1 --------------------------------------------------------------------

def test_catalan_examples():
    sols10 = {(s.p, s.m, s.q, s.n) for s in nt.catalan_solutions(10)}
    assert (3, 2, 2, 3) in sols10
    assert (2, 2, 3, 1) in sols10
    sols20 = {(s.p, s.m, s.q, s.n) for s in nt.catalan_solutions(20)}
    assert (17, 1, 2, 4) in sols20


def test_catalan_solutions_are_verified_solutions():
    for s in nt.catalan_solutions(10**5):
        assert s.p**s.m == s.q**s.n + 1
        assert nt.is_prime(s.p) and nt.is_prime(s.q)


def test_catalan_families_to_one_million():
    sols = nt.catalan_solutions(10**6)
    assert all(s.family != nt.FAMILY_UNCLASSIFIED for s in sols)
    fermat_p = {s.p for s in sols if s.family == nt.FAMILY_FERMAT}
    mersenne_q = {s.q for s in sols if s.family == nt.FAMILY_MERSENNE}
    exceptional = [(s.p, s.m, s.q, s.n) for s in sols if s.family == nt.FAMILY_EXCEPTIONAL]
    assert fermat_p <= {3, 5, 17, 257, 65537}
    assert mersenne_q <= {3, 7, 31, 127, 8191, 131071, 524287}
    assert exceptional == [(3, 2, 2, 3)]


def test_catalan_matches_sieve_route():
    for bound in (9, 10, 100, 10**4, 10**6):
        got = [(s.p, s.m, s.q, s.n, s.family) for s in nt.catalan_solutions(bound)]
        assert got == catalan_by_sieve(bound), bound


def test_catalan_far_beyond_sieving_range():
    sols = nt.catalan_solutions(10**60)
    assert all(s.family != nt.FAMILY_UNCLASSIFIED for s in sols)
    assert all(s.p**s.m == s.q**s.n + 1 <= 10**60 for s in sols)
    # Mersenne primes 2^k - 1 below 10^60 and the known Fermat primes
    assert {s.q for s in sols if s.family == nt.FAMILY_MERSENNE} == {
        2**k - 1 for k in (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)}
    assert {s.p for s in sols if s.family == nt.FAMILY_FERMAT} == {3, 5, 17, 257, 65537}
    assert [(s.p, s.m, s.q, s.n) for s in sols
            if s.family == nt.FAMILY_EXCEPTIONAL] == [(3, 2, 2, 3)]


def test_catalan_rejects_tiny_bound():
    with pytest.raises(ValueError):
        nt.catalan_solutions(8)


def test_prime_power_takes_the_largest_exponent():
    assert nt._prime_power(3**4) == (3, 4)
    assert nt._prime_power(7**6) == (7, 6)
    assert nt._prime_power(15**2) is None
    # 1000003 is above the trial bound, so factor meets the power whole
    assert nt.factor(1000003**6).factors == ((1000003, 6),)


# --- differential tests against sympy ------------------------------------------

def test_primality_matches_sympy_on_seeded_odd_sample():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    starts = [rng.randrange(3, 1 << 64) | 1 for _ in range(100)]
    starts += [rng.randrange(1 << 64, 1 << 100) | 1 for _ in range(100)]
    # each start and the next prime after it, so both verdicts are common
    for n in starts + [sympy.nextprime(n) for n in starts]:
        assert nt.primality(n).prime == sympy.isprime(n), n


@pytest.mark.parametrize("n, bases, factors", [
    (3215031751, (2, 3, 5, 7), {151: 1, 751: 1, 28351: 1}),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23),
     {149491: 1, 747451: 1, 34233211: 1}),
])
def test_strong_pseudoprimes_to_small_bases_are_rejected(n, bases, factors):
    sympy = pytest.importorskip("sympy")
    assert nt._miller_rabin(n, bases)
    assert not nt.is_prime(n)
    assert sympy.factorint(n) == factors


def test_first_twelve_bases_are_fooled_above_two_to_the_64():
    # why the first 12 primes as bases are exact only below 2^64: they call
    # this composite above 2^64 prime
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461 > nt._DETERMINISTIC_LIMIT
    assert nt._miller_rabin(n, nt._DETERMINISTIC_BASES)
    assert not nt.is_prime(n)


def test_primality_matches_sympy_from_65_to_200_bits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    starts = [rng.getrandbits(bits) | 1 << (bits - 1) | 1
              for bits in range(65, 201) for _ in range(2)]
    # each start and the next prime after it, so both verdicts are common
    for n in starts + [sympy.nextprime(n) for n in starts]:
        assert nt.primality(n).prime == sympy.isprime(n), n


# Arnault (J. Symb. Comp. 20, 1995): a composite of 1318 bits that is a
# strong pseudoprime to every prime base below 307.
ARNAULT_P1 = int(
    "296744956686855105501541746429053327307719917998530433509950"
    "755312768387531717701995942385964281211880336647542183455624"
    "93168782883")
ARNAULT_N = int(
    "288714823805077121267142959713039399197760945927972270092651602419743"
    "230379915273311632898314463922594197780311092934965557841894944174093"
    "380561511397999942154241693397290542371100275104208013496673175515285"
    "922696291677532547504444585610194940420003990443211677661994962953925"
    "045269871932907037356403227370127845389912612030924484149472897688540"
    "6024976768122077071687938121709811322297802059565867")


def test_arnault_composite_is_rejected():
    p1 = ARNAULT_P1
    assert ARNAULT_N == p1 * (313 * (p1 - 1) + 1) * (353 * (p1 - 1) + 1)
    # it fools every Miller-Rabin base below 307, and so any fixed set of
    # prime bases that stops there
    assert nt._miller_rabin(ARNAULT_N, nt.primes_below(307))
    assert nt.primality(ARNAULT_N) == nt.Primality(False, True)
    assert not nt.is_prime(ARNAULT_N)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
def test_strong_lucas_pseudoprimes_are_rejected(n):
    # OEIS A217255: composites that pass the strong Lucas test with
    # Selfridge's parameters, so base 2 alone rejects them
    assert nt._strong_lucas(n)
    assert not nt._miller_rabin(n, (2,))
    assert not nt.is_prime(n)
    assert not naive_is_prime(n)


def test_strong_lucas_matches_sympy_below_20000():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp
    for n in range(41, 20000, 2):
        if all(n % p for p in nt._DETERMINISTIC_BASES):
            assert nt._strong_lucas(n) == is_strong_lucas_prp(n), n
    assert sympy.isprime(19997) and nt._strong_lucas(19997)


@pytest.mark.parametrize("n, D", [(41 * 13151, 41), (43 * 58717, -43)])
def test_strong_lucas_rejects_a_shared_prime_met_by_the_search(n, D):
    # Selfridge's search 5, -7, 9, ... meets (D/n) = 0 before any (D/n) = -1
    searched = [d * (-1) ** i for i, d in enumerate(range(5, abs(D) + 1, 2))]
    assert searched[-1] == D
    assert [nt._jacobi(d, n) for d in searched] == [1] * (len(searched) - 1) + [0]
    assert not nt._strong_lucas(n)


def test_trial_primes_are_the_sieve_primes_one_mod_e():
    below = nt.primes_below(nt.TRIAL_BOUND)
    for e in range(2, 201, 2):
        assert list(nt._trial_primes(e)) == [r for r in below if r % e == 1], e
    for e in (nt.TRIAL_BOUND, nt.TRIAL_BOUND + 2, 3 * nt.TRIAL_BOUND):
        assert list(nt._trial_primes(e)) == [], e


def test_primes_below_matches_the_full_range_read():
    # primes_below reads only the sieve's odd stride; the parent read every
    # index of range(limit)
    for limit in [*range(301), nt.TRIAL_BOUND, nt.TRIAL_BOUND + 1]:
        full = tuple(itertools.compress(range(limit),
                                        nt._sieve(max(limit, nt.TRIAL_BOUND))))
        assert nt.primes_below(limit) == full, limit
    assert nt.primes_below(0) == nt.primes_below(1) == nt.primes_below(2) == ()
    assert nt.primes_below(3) == (2,)
    assert len(nt.primes_below(nt.TRIAL_BOUND)) == 9592


def test_factor_congruent_across_the_trial_bound():
    # r is the last trial divisor for modulus e, s the first prime of the
    # same form that trial division does not reach
    sympy = pytest.importorskip("sympy")
    for e in range(2, 201, 2):
        r = max(nt._trial_primes(e))
        s = next(s for s in range(nt.TRIAL_BOUND + 1, 10 * nt.TRIAL_BOUND, 2)
                 if s % e == 1 and sympy.isprime(s))
        for n in (r * s, r * r * s):
            f = nt.factor(nt._Congruent(n, e))
            assert f.complete and f.as_dict() == sympy.factorint(n), (e, n)


def test_factor_trial_route_depends_on_e_alone(monkeypatch):
    # moduli 1 and 2 share e = 2 with a plain number: what is left of a
    # modulus-2 piece at or above the bound's square is walked over all the
    # primes, and the class product of e = 2 is never built
    real = nt._class_product

    def no_class_of_two(e):
        if e == 2:
            raise AssertionError("the class product of e = 2 was built")
        return real(e)

    monkeypatch.setattr(nt, "_class_product", no_class_of_two)
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    v = (100000000003 + 1) // 4
    assert v >= nt.TRIAL_BOUND**2
    assert nt.factor(v).as_dict() == {17573: 1, 1422637: 1}
    for k in (1, 2):
        assert nt.factor(nt._Congruent(v, k)) == nt.factor(v), k


def test_aurifeuillian_step_splits_phi_4k_of_2(monkeypatch, limits):
    # Phi_372(2) = 373 * 951088215727633 * 4611545283086450689 divides
    # 2^186 + 1 = (2^93 - 2^47 + 1)(2^93 + 2^47 + 1), one large prime in
    # each: any budget above 0 splits it, 0 leaves it whole
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    piece = nt._cyclotomic_pieces(2, 372)[372]
    limits(budget=1)
    assert nt.factor(piece).as_dict() == {373: 1, 951088215727633: 1,
                                          4611545283086450689: 1}
    limits(budget=0)
    f = nt.factor(piece)
    assert not f.complete and f.as_dict() == {373: 1}


def test_aurifeuillian_step_agrees_with_sympy(limits):
    # Phi_4k(2), k odd, and pieces Phi_d(a) of other bases with
    # d = 4 (mod 8), where the step must not change the result
    sympy = pytest.importorskip("sympy")
    limits(budget=nt.DEFAULT_RHO_BUDGET)
    for k in range(3, 46, 2):
        piece = nt._cyclotomic_pieces(2, 4 * k)[4 * k]
        assert nt.factor(piece).as_dict() == sympy.factorint(int(piece)), k
    for a, d in ((3, 124), (5, 44), (7, 76), (10, 36), (6, 52)):
        piece = nt._cyclotomic_pieces(a, d)[d]
        assert nt.factor(piece).as_dict() == sympy.factorint(int(piece)), (a, d)


def test_factor_congruent_walk_that_stops_on_a_prime_of_the_modulus():
    # the walk takes the primes of k before the r = 1 (mod e), and may stop
    # on one of them; what is left is then 1 or a prime below the bound's
    # square
    sympy = pytest.importorskip("sympy")
    for k in range(2, 201):
        e = math.lcm(2, k)
        if e <= 10:  # all primes below the bound are the walk
            continue
        primes = sorted(sympy.primefactors(k))
        top = primes[-1]
        s = next(s for s in range(nt.TRIAL_BOUND + 1, 10 * nt.TRIAL_BOUND, 2)
                 if s % e == 1 and sympy.isprime(s))
        for n in (*primes, math.prod(primes), math.prod(primes) * top, top * s):
            f = nt.factor(nt._Congruent(n, k))
            assert f.complete and f.as_dict() == sympy.factorint(n), (k, n)


def test_factor_matches_sympy_on_seeded_products():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for k in (2, 3) * 10:
        n = math.prod(sympy.prevprime(rng.randrange(3, 10**8)) for _ in range(k))
        assert nt.factor(n).as_dict() == sympy.factorint(n), n


# --- trial division of a congruence class by one gcd ----------------------------------

# the paper's primes a = 2^x 3^y + 1 up to 257
PAPER_BASES = (2, 3, 5, 7, 13, 17, 19, 37, 73, 97, 109, 163, 193, 257)


def walk_all_primes(n: int) -> tuple[dict[int, int], int]:
    """n trial divided by every prime below TRIAL_BOUND: (prime counts, what is left)."""
    counts: dict[int, int] = {}
    for r in nt.primes_below(nt.TRIAL_BOUND):
        while n % r == 0:
            counts[r] = counts.get(r, 0) + 1
            n //= r
    return counts, n


def assert_trial_division_is_the_walk(n: int) -> None:
    # under budget 0 factor() is trial division, then a primality and a
    # perfect-power verdict on what is left
    f = nt.factor(n)
    counts, left = walk_all_primes(int(n))
    bound = nt.TRIAL_BOUND
    assert {p: e for p, e in f.factors if p < bound} == counts, n
    assert math.prod(p**e for p, e in f.factors if p >= bound) * f.cofactor == left, n
    if left < bound * bound:
        assert f.complete and (left == 1 or left in f.as_dict()), n


def test_factor_budget_0_is_the_walk_on_paper_pieces(limits):
    limits(budget=0)
    for a in PAPER_BASES:
        for d in range(1, 121):
            assert_trial_division_is_the_walk(nt._cyclotomic_pieces(a, d)[d])


def test_factor_budget_0_is_the_walk_on_wieferich_squares(limits):
    # 1093^2 divides Phi_364(2) and 3511^2 divides Phi_1755(2): the gcd holds
    # each prime once, and factor() divides it out to its multiplicity
    limits(budget=0)
    for d, s in ((364, 1093), (1755, 3511)):
        piece = nt._cyclotomic_pieces(2, d)[d]
        assert piece % (s * s) == 0
        assert nt.factor(piece).as_dict()[s] == 2
        assert_trial_division_is_the_walk(piece)


def test_factor_budget_0_is_the_walk_around_the_square_of_the_bound(limits):
    # r * s is what is left after the primes of k: just below the bound's
    # square it is walked, just above it it takes the gcd route
    sympy = pytest.importorskip("sympy")
    limits(budget=0)
    bound = nt.TRIAL_BOUND
    for k in (5, 12, 13, 60, 364):
        e = math.lcm(2, k)
        r = max(t for t in nt._trial_primes(e) if t < bound // 2)
        edge = (bound * bound - 1) // r  # s * r < bound^2 iff s <= edge
        edge -= (edge - 1) % e  # the largest candidate 1 (mod e) up to it
        below = next(s for s in range(edge, 0, -e) if sympy.isprime(s))
        above = next(s for s in range(edge + e, 10 * edge, e) if sympy.isprime(s))
        assert below * r < bound * bound < above * r
        for s in (below, above):
            for n in (r * s, k * k * r * s, k * r * r * s):
                assert_trial_division_is_the_walk(nt._Congruent(n, k))
                assert nt.factor(nt._Congruent(n, k)).as_dict() == sympy.factorint(n)


@functools.lru_cache(maxsize=None)
def class_primes(e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes 1 (mod e) below TRIAL_BOUND, and the first 51 above it."""
    sympy = pytest.importorskip("sympy")
    above = []
    s = nt.TRIAL_BOUND // e * e + 1
    while len(above) < 51:
        if s > nt.TRIAL_BOUND and sympy.isprime(s):
            above.append(s)
        s += e
    return tuple(nt._trial_primes(e)), tuple(above)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 400).filter(lambda k: math.lcm(2, k) > 10),
       st.lists(st.integers(0, 10**4), max_size=6),
       st.lists(st.integers(0, 10), max_size=3),
       st.none() | st.integers(0, 50))
@example(12, [0, 1], [0], None)  # 2 * 13 * 37, below the bound's square
@example(12, [10, 200, 2000], [], None)  # the second walk stops at 83137
@example(12, [5, 2000, 2000], [], None)  # 109 * 83137^2
@example(12, [2000, 2001], [1], 0)  # 3 * 83137 * 83221 * 100057
def test_factor_class_route_on_drawn_products(k, picks, k_picks, big):
    # v is a multiset of primes 1 (mod e) below the bound, some primes of k
    # and at most one prime 1 (mod e) above the bound.  Past the bound's
    # square the gcd route divides the primes of the gcd out of v, and may
    # stop at the last of them with exactly that prime left
    sympy = pytest.importorskip("sympy")
    below, above = class_primes(math.lcm(2, k))
    primes_of_k = sympy.primefactors(k)
    v = math.prod(below[i % len(below)] for i in picks)
    v *= math.prod(primes_of_k[i % len(primes_of_k)] for i in k_picks)
    if big is not None:
        v *= above[big]
    previous = nt.configure(budget=0)
    try:
        f = nt.factor(nt._Congruent(v, k))
    finally:
        nt.configure(**previous)
    assert f.complete and f.as_dict() == sympy.factorint(v), (k, v)


# --- rho: the walk of the parent, two steps to a product -------------------------------

def rho_one_step_a_product(n, rng, budget, e):
    """The Brent rho walk with one factor |x - y| taken into q per step,
    each y reduced mod n: the oracle for _pollard_rho_brent's (factor, cost)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    step = e.bit_length() + e.bit_count() - 2
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        if e == 2:
            for _ in range(r):
                y = (y * y + c) % n
        else:
            for _ in range(r):
                y = (pow(y, e, n) + c) % n
        used += r * step
        k = 0
        while k < r and g == 1:
            ys = y
            if e == 2:
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
            else:
                for _ in range(min(m, r - k)):
                    y = (pow(y, e, n) + c) % n
                    q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        used += min(r, k) * step
        r *= 2
        if used > budget:
            return None, used
    if g == n:
        while True:
            ys = (pow(ys, e, n) + c) % n
            used += step
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
            if used > budget:
                return None, used
    return (g, used) if g != n else (None, used)


def assert_rho_is_the_oracle(n, budget, e):
    for seed in range(3):
        got = nt._pollard_rho_brent(n, random.Random(f"{seed}:{n}"), budget, e)
        want = rho_one_step_a_product(n, random.Random(f"{seed}:{n}"), budget, e)
        assert got == want, (n, e, seed)


@pytest.mark.parametrize("e", [2, 4, 12, 46])
def test_rho_pairs_steps_and_charges_as_the_oracle(e):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(e)
    for sizes in ((16, 16), (24, 24), (20, 100), (28, 60)):
        ps = []
        for bits in sizes:
            p = 0
            while not sympy.isprime(p):
                p = rng.randrange(2**(bits - 1), 2**bits) // e * e + 1
            ps.append(p)
        assert_rho_is_the_oracle(ps[0] * ps[1], 10**6, e)


@pytest.mark.parametrize("n, e", [(10019, 2), (10147, 2), (11461, 12), (13019, 46)])
def test_rho_replay_after_the_batched_gcd_overshot(n, e):
    # at seed "0:n" the block's gcd is n itself, so the walk is replayed one
    # step at a time; at 13019 the replay meets n again and gives up
    assert_rho_is_the_oracle(n, 10**6, e)
    assert nt._pollard_rho_brent(n, random.Random(f"0:{n}"), 10**6, e)[0] != n


@pytest.mark.parametrize("n, e", [(3239, 2), (4453, 12)])
def test_rho_splits_in_the_first_block_of_one_step(n, e):
    # r = 1 takes one step, an odd one out of the pairs
    assert nt._pollard_rho_brent(n, random.Random(f"0:{n}"), 10**6, e)[1] == 2 * (
        e.bit_length() + e.bit_count() - 2)
    assert_rho_is_the_oracle(n, 10**6, e)


def test_rho_budget_exit_as_the_oracle():
    # a 10^30 semiprime at budget 500, and the stripped Phi_23(37) without
    # its 47 on x -> x^46 + c at budget 20000: neither splits
    assert_rho_is_the_oracle(HARD_P1 * HARD_P2, 500, 2)
    assert_rho_is_the_oracle(1845029930335901 * 375176717285846681, 20000, 46)
    got = nt._pollard_rho_brent(HARD_P1 * HARD_P2, random.Random("0"), 500, 2)
    assert got[0] is None and got[1] > 500


# --- Pollard p - 1 ahead of rho on x^2 + c ----------------------------------------------

# 632814148699 - 1 = 2*3*67*193*229*35617: stage 2 finds it at 35617
PM1_STAGE2 = 632814148699 * 2014012194499


def test_pm1_plan_is_lcm_of_one_to_the_bound_and_its_charge():
    exponent, start, charge = nt._pm1_plan()
    assert exponent == math.lcm(*range(1, nt.P1_BOUND + 1))
    stage2 = nt.primes_below(nt.TRIAL_BOUND)[start:]
    assert stage2[0] > nt.P1_BOUND and nt.primes_below(nt.TRIAL_BOUND)[start - 1] <= nt.P1_BOUND
    assert max(b - a for a, b in zip(stage2, stage2[1:])) == nt._P1_MAX_GAP
    assert charge == exponent.bit_length() + 2 * len(stage2) == 22654


def test_pm1_stage_1_takes_each_prime_to_its_top_power():
    # 120833 - 1 = 2^11 * 59, and 3 is not a square mod 120833, so its order
    # needs 2^11, the top power of 2 up to P1_BOUND; 2014012194499 - 1 has
    # the prime 7922507
    assert nt._pollard_pm1(120833 * 2014012194499) == 120833
    assert nt._pollard_pm1(PM1_STAGE2) == 632814148699


def test_pm1_only_where_rho_walks_x_squared_plus_c(monkeypatch):
    # the 58-bit Phi_37(3) as a piece of modulus 37 goes to x^74 + c alone,
    # and as a plain number or a piece of modulus 2 to p - 1 first
    tried = []
    monkeypatch.setattr(nt, "_pollard_pm1", lambda c: tried.append(c))
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    n = 13097927 * 17189128703
    for k in (37, 74):
        assert nt.factor(nt._Congruent(n, k)).as_dict() == {13097927: 1, 17189128703: 1}
    assert tried == []
    for value in (n, nt._Congruent(n, 2)):
        assert nt.factor(value).complete
    assert tried == [n, n]
    # below P1_MIN_BITS rho alone, though both p - 1 divide E
    assert (106696591 * 203693491).bit_length() == nt.P1_MIN_BITS - 1
    assert nt.factor(106696591 * 203693491).as_dict() == {106696591: 1, 203693491: 1}
    assert tried == [n, n]


def test_pm1_runs_only_where_its_whole_charge_fits(monkeypatch, limits):
    # rho alone needs far more than the charge for a 40-bit prime
    charge = nt._pm1_plan()[2]
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    limits(budget=charge)
    assert nt.factor(PM1_STAGE2).as_dict() == {632814148699: 1, 2014012194499: 1}
    limits(budget=charge - 1)
    f = nt.factor(PM1_STAGE2)
    assert not f.complete and f.cofactor == PM1_STAGE2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(nt.primes_below(nt.P1_BOUND + 1)),
                min_size=1, max_size=4, unique=True),
       st.none() | st.sampled_from(nt.primes_below(nt.TRIAL_BOUND)).filter(
           lambda r: r > nt.P1_BOUND),
       st.integers(0, 24), st.randoms(use_true_random=False))
def test_pm1_splits_where_p_minus_1_is_smooth_but_for_one_prime(smooth, r, extra, rnd):
    # p - 1 divides E * r, E = lcm(1..P1_BOUND), r a stage-2 prime or none;
    # q - 1 has a prime above TRIAL_BOUND, so p - 1 finds p alone
    sympy = pytest.importorskip("sympy")
    exponent = nt._pm1_plan()[0]
    big = r or 1
    m = 2 * big * math.prod(smooth)
    p = next((m * t + 1 for t in range(1, 10**4)
              if m * t + 1 > nt.TRIAL_BOUND and exponent * big % (m * t) == 0
              and sympy.isprime(m * t + 1)), None)
    assume(p is not None)
    bits = max(nt.P1_MIN_BITS + 1 - p.bit_length(), 24) + extra
    q = p
    while q == p or max(sympy.primefactors(q - 1)) < nt.TRIAL_BOUND:
        q = sympy.nextprime(rnd.randrange(2 ** (bits - 1), 2**bits))
    n = p * q
    assert n.bit_length() >= nt.P1_MIN_BITS
    assert nt._pollard_pm1(n) == p
    assert nt.factor(n).as_dict() == sympy.factorint(n)


@pytest.mark.parametrize("p, q", [
    (2454021571, 2677114441),  # p - 1 and q - 1 both divide E: stage 1
    (4506391891, 9012783781),  # both divide E * 50021: one stage-2 block
])
def test_pm1_gcd_equal_to_the_cofactor_falls_back_to_rho(monkeypatch, p, q):
    walks = []
    rho = nt._pollard_rho_brent

    def counted(*args):
        walks.append(args[0])
        return rho(*args)

    monkeypatch.setattr(nt, "_pollard_rho_brent", counted)
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    assert nt._pollard_pm1(p * q) is None
    f = nt.factor(p * q)
    assert f.complete and f.as_dict() == {p: 1, q: 1}
    assert walks and set(walks) == {p * q}


def factor_rho_only(n: int, budget: int) -> nt.Factorization:
    """factor() of a plain n >= 1 with rho alone: every prime below TRIAL_BOUND
    walked out, then each cofactor a prime, a perfect power, or split by
    rho on x -> x^2 + c seeded by the cofactor under its own budget."""
    found, rest = walk_all_primes(n)
    counts = collections.Counter(found)
    probable: set[int] = set()
    stuck = 1

    def settle(c: int, mult: int) -> None:
        nonlocal stuck
        if c == 1:
            return
        verdict = nt.primality(c)
        if verdict.prime:
            counts[c] += mult
            if verdict.probabilistic:
                probable.add(c)
            return
        power = nt._as_perfect_power(c, c.bit_length() // 16)
        if power is not None:
            settle(power[0], mult * power[1])
            return
        rng = random.Random(f"0:{c}")
        left = budget
        while left > 0:
            d, used = nt._pollard_rho_brent(c, rng, left, 2)
            left -= used
            if d is not None:
                settle(d, mult)
                settle(c // d, mult)
                return
        stuck *= c**mult

    settle(rest, 1)
    return nt.Factorization(n, tuple(sorted(counts.items())), stuck == 1, stuck,
                            tuple(sorted(probable)))


@pytest.mark.parametrize("budget", [0, 200, 500, 2000, 4000])
def test_budgets_below_the_pm1_charge_are_rho_alone(monkeypatch, limits, budget):
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    limits(budget=budget)
    for n in (PM1_STAGE2, 2454021571 * 2677114441, 4506391891 * 9012783781,
              HARD_P1 * HARD_P2, 13097927 * 17189128703, 200000033 * 500000003,
              2**4 * 3 * 10000019 * 30000001, 1000003 * 10000019 * 100000007,
              97**24 + 1, 2**89 - 1, (2**61 - 1) * 1000000007**2):
        assert nt.factor(n) == factor_rho_only(n, budget), n


@pytest.mark.parametrize("n", [22998271 * 3535855212619, 15792433 * 1074942191647])
def test_rho_gets_what_p_minus_1_leaves(monkeypatch, limits, n):
    # p - 1 finds neither prime, and rho alone splits n within charge + 4000
    # multiplications but not within 4000
    charge = nt._pm1_plan()[2]
    assert nt._pollard_pm1(n) is None
    assert not factor_rho_only(n, 4000).complete
    assert factor_rho_only(n, charge + 4000).complete
    for budget in (charge, charge + 4000, 2 * charge + 4000):
        monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
        limits(budget=budget)
        assert nt.factor(n) == factor_rho_only(n, budget - charge), budget


# --- ECM after rho's share ----------------------------------------------------------------

# the stripped Phi_23(37) without its 47: primes of 16 and 18 digits, 1 (mod 46)
PHI_23_37 = 1845029930335901 * 375176717285846681


@pytest.mark.parametrize("e", [2, 12, 46])
def test_rho_share_is_whole_rounds_past_the_expected_charge(e):
    # a walk that does not split its number spends exactly the share
    step = e.bit_length() + e.bit_count() - 2
    share = nt._rho_share(e)
    assert share >= step * math.isqrt(2**nt.RHO_SHARE_BITS // e) > share // 2 - 2 * step
    walk = nt._pollard_rho_brent(PHI_23_37, random.Random(f"0:{PHI_23_37}"), share - 1, e)
    assert walk == (None, share)


def test_ecm_schedule_follows_the_b1_table():
    b1s = list(itertools.islice(nt._ecm_schedule(), 1000))
    (first, low), (second, mid), (_, top) = nt.ECM_B1
    assert b1s == [low] * first + [mid] * second + [top] * (1000 - first - second)
    plans = [nt._ecm_plan(b1) for b1 in (low, mid, top)]
    assert plans[0].charge < plans[1].charge < plans[2].charge
    for b1, plan in zip((low, mid, top), plans):
        assert int("1" + plan.bits, 2) == math.lcm(*range(1, b1 + 1))
        # every prime in (b1, ECM_B2 * b1] is m D +- j for one slot j of giant m
        babies = nt._ECM_BABIES
        covered = {(plan.first + i) * nt.ECM_D + s * babies[j]
                   for i, js in enumerate(plan.slots) for j in js for s in (-1, 1)}
        stage2 = [s for s in nt.primes_below(nt.ECM_B2 * b1 + 1) if s > b1]
        assert set(stage2) <= covered and all(js == tuple(sorted(set(js))) for js in plan.slots)


def test_ecm_curve_splits_and_never_returns_n_or_1():
    # a 31-bit prime times a 36-bit one, as in the bench's semiprimes; every
    # answer of a curve is a proper factor or None
    n = 1000000007 * 68719476767
    rng = random.Random("ecm:test")
    found = [nt._ecm_curve(n, rng, 250) for _ in range(40)]
    assert {d for d in found if d is not None} <= {1000000007, 68719476767}
    assert sum(d is not None for d in found) >= 4


@settings(max_examples=20, deadline=None)
@given(st.integers(28, 45), st.integers(0, 16), st.sampled_from([1, 2, 3, 12, 23, 37]),
       st.integers(0, 2**32))
def test_ecm_factors_as_sympy_past_the_rho_share(bits, extra, k, seed):
    # p * q with p of 28 to 45 bits, past what rho walks before the curves;
    # both 1 (mod e), so the product is also a piece of modulus k
    sympy = pytest.importorskip("sympy")
    e = math.lcm(2, k)
    rnd = random.Random(seed)

    def prime(b: int) -> int:
        while not sympy.isprime(s := rnd.randrange(2 ** (b - 1), 2**b) // e * e + 1):
            pass
        return s

    p = prime(bits)
    q = prime(bits + extra)
    assume(p != q)
    want = sympy.factorint(p * q)
    assert nt.factor(p * q).as_dict() == want
    assert nt.factor(nt._Congruent(p * q, k)).as_dict() == want


def test_ecm_curves_run_only_where_their_whole_charge_fits(monkeypatch, limits):
    # a piece of modulus 23 skips p - 1; the rho share does not split it, and
    # no curve does either: each one is recorded and fails
    piece = nt._Congruent(PHI_23_37, 23)
    used = nt._rho_share(46)
    runs = []
    monkeypatch.setattr(nt, "_ecm_curve", lambda c, rng, b1: runs.append(b1))
    (first, low), (_, mid), _ = nt.ECM_B1
    low_charge, mid_charge = nt._ecm_plan(low).charge, nt._ecm_plan(mid).charge
    for budget, b1s in ((used + low_charge - 1, []),
                        (used + low_charge, [low]),
                        (used + first * low_charge + mid_charge - 1, [low] * first),
                        (used + first * low_charge + mid_charge, [low] * first + [mid])):
        monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
        runs.clear()
        limits(budget=budget)
        assert not nt.factor(piece).complete
        assert runs == b1s, budget


@pytest.mark.parametrize("n", [
    PM1_STAGE2, HARD_P1 * HARD_P2, 13097927 * 17189128703, 200000033 * 500000003,
    22998271 * 3535855212619, 1000003 * 10000019 * 100000007, 97**24 + 1])
def test_a_budget_short_of_the_share_and_one_curve_is_rho_alone(monkeypatch, limits, n):
    budget = nt._rho_share(2) + nt._ecm_plan(nt.ECM_B1[0][1]).charge - 1
    assert budget < nt._pm1_plan()[2]
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    limits(budget=budget)
    assert nt.factor(n) == factor_rho_only(n, budget)


def test_ecm_splits_what_rho_leaves_at_the_same_budget(monkeypatch, limits):
    # below p - 1's charge, rho alone does not split this 68-bit semiprime;
    # once the first curve fits beside the share, the curve splits it
    n = 176322187 * 958263922949
    budget = nt._rho_share(2) + nt._ecm_plan(nt.ECM_B1[0][1]).charge
    assert budget < nt._pm1_plan()[2]
    limits(budget=budget - 1)
    assert nt.factor(n) == factor_rho_only(n, budget - 1)
    assert not nt.factor(n).complete
    limits(budget=budget)
    assert not factor_rho_only(n, budget).complete
    assert nt.factor(n).as_dict() == {176322187: 1, 958263922949: 1}


# --- perfect powers----------------------------------------------------------------------

@pytest.mark.parametrize("k", [4, 6, 12, 30])
def test_perfect_power_roots_match_sympy(k):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(k)
    bases = [2, 3, 10, 99991, 2**64 + 13, 10**40 + 7, rng.getrandbits(300) | 1]
    for b in bases:
        n = b**k
        for r in nt.primes_below(k + 20):
            for v in (n - 1, n, n + 1):
                assert nt._iroot(v, r) == sympy.integer_nthroot(v, r)[0], (b, k, r)
        root, r = nt._as_perfect_power(n, n.bit_length())
        assert r == min(sympy.primefactors(k)) and root**r == n, (b, k)
        for v in (n - 1, n + 1):
            found = nt._as_perfect_power(v, v.bit_length())
            assert (found is None) == (sympy.perfect_power(v) is False), (b, k, v)


def test_prime_power_takes_composite_exponents():
    for q, n in ((3, 12), (7, 30), (2, 4), (99991, 6)):
        assert nt._prime_power(q**n) == (q, n)
    assert nt._prime_power(6**4) is None
