import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglspectra import numtheory as nt
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


def ppd_above_by_sieve(a: int, n: int, q: int) -> tuple[nt.PpdReport, bool]:
    """ppd_exists_above by trial division with every prime <= q from a sieve,
    and whether the residual was ever itself a prime <= q."""
    value, n_primes = nt._stripped_cyclotomic(a, n)
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
            if r > q and nt.is_primitive_prime_divisor(a, n, r):
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
        mu = nt.mobius(n // d)
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
    assert nt.largest_prime_below(10) == 7
    assert nt.largest_prime_below(2) == 2
    assert nt.largest_prime_below(13) == 13
    with pytest.raises(ValueError):
        nt.largest_prime_below(1)


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
    p = nt.largest_prime_below(10**6)
    assert nt.factor(p * p).as_dict() == {p: 2}
    assert nt.factor(p**3).as_dict() == {p: 3}


# two ~10^15 primes: far beyond trial division, and rho cannot split the
# product within a tiny budget
HARD_P1 = 999999999999989
HARD_P2 = 999998999999977


def test_factor_budget_exhaustion_is_reported():
    assert nt.is_prime(HARD_P1) and nt.is_prime(HARD_P2)
    f = nt.factor(HARD_P1 * HARD_P2, budget=500)
    assert not f.complete
    assert f.cofactor == HARD_P1 * HARD_P2
    assert f.product() == HARD_P1 * HARD_P2
    with pytest.raises(FactorizationIncomplete):
        f.require_complete()


def test_factor_hard_semiprime_succeeds_with_real_budget():
    # both prime factors near 10^8: a genuine rho workout
    p = nt.largest_prime_below(10**8)
    q = nt.largest_prime_below(10**8 - 10**4)
    assert nt.factor(p * q).as_dict() == {p: 1, q: 1}


def test_factor_deterministic_for_fixed_seed():
    n = HARD_P1 * HARD_P2
    a = nt.factor(n, budget=2 * 10**7, seed=3)
    b = nt.factor(n, budget=2 * 10**7, seed=3)
    assert a == b


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


def test_factorizations_are_cached_only_when_complete(monkeypatch):
    cache: dict = {}
    monkeypatch.setattr(nt, "_COMPLETE_CACHE", cache)
    f = nt.factor(2**64 + 1)
    assert f.complete and nt.factor(2**64 + 1) is f
    g = nt.factor_pieces((3, 8, 100))
    assert nt.factor_pieces((3, 8, 100)) is g
    assert nt.factor(2400) is g
    hard = 999999999999989 * 999998999999977
    nt.configure(budget=200)
    try:
        incomplete = (nt.factor(hard), nt.factor_pieces((hard, 10, hard)))
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    assert not any(r.complete for r in incomplete)
    assert hard not in cache and 10 * hard**2 not in cache
    assert all(r.complete for r in cache.values())


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


def test_divisors_propagates_incomplete():
    nt.configure(budget=200)
    try:
        with pytest.raises(FactorizationIncomplete):
            nt.divisors(HARD_P1 * HARD_P2)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_mobius_examples_and_oracle():
    assert nt.mobius(1) == 1
    assert nt.mobius(6) == 1
    assert nt.mobius(12) == 0
    for n in range(1, 400):
        f = naive_factor(n)
        expected = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
        if n == 1:
            expected = 1
        assert nt.mobius(n) == expected, n


# --- multiplicative order ------------------------------------------------------

def test_multiplicative_order_examples():
    assert nt.multiplicative_order(7, 2801) == 5
    assert nt.multiplicative_order(1, 97) == 1
    assert nt.multiplicative_order(13, 30941) == 5


def test_multiplicative_order_not_coprime():
    with pytest.raises(NotCoprime):
        nt.multiplicative_order(6, 27)


def test_multiplicative_order_against_stepping():
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


def test_budget_charges_the_multiplications_of_each_step(monkeypatch):
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
    rep = nt.primitive_prime_divisors(37, 23, budget=budget)
    assert not rep.complete
    assert calls <= 2 * budget // 7 + 256


def test_ppd_completes_where_lower_a_i_minus_1_are_hard():
    # Phi_60(7) and Phi_40(13) split at once, although some 7^i - 1 with
    # i < 60 and 13^i - 1 with i < 40 do not split within these budgets
    for opts in ({"budget": 100000}, {}):
        rep = nt.primitive_prime_divisors(7, 60, **opts)
        assert rep.complete and rep.primitive_primes == {61, 555915824341}
        rep = nt.primitive_prime_divisors(13, 40, **opts)
        assert rep.complete
        assert rep.primitive_primes == {41, 29881, 543124566401}


# --- ppd_exists_above ---------------------------------------------------------------

def test_ppd_above_examples():
    rep = nt.ppd_exists_above(7, 5, 13)
    assert rep.exists_above_threshold is True
    assert rep.residual == 2801
    assert rep.method == nt.METHOD_RESIDUAL
    assert nt.ppd_exists_above(2, 6, 2).exists_above_threshold is False
    # infeasible by full factorization; the whole point of the method
    assert nt.ppd_exists_above(73, 126, 127).exists_above_threshold is True


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
