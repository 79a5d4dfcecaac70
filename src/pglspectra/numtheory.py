"""Arbitrary-precision primality, factorization and primitive prime divisors.

Everything here works on plain Python integers, so values are unbounded.
Primitive prime divisors of a^n - 1 come from one cyclotomic core: since
a^n - 1 = prod over d | n of Phi_d(a), they are exactly the primes of
Phi_n(a) that do not divide n (_stripped_cyclotomic).  Two queries sit on
that core:

  * primitive_prime_divisors -- all of them, by factoring the stripped
    Phi_n(a) once;
  * ppd_exists_above -- an exact existence test "is there one above q?"
    that never factors anything big: it trial divides the stripped
    Phi_n(a) by the r = 1 (mod n) up to q and looks at what is left.

Every Phi_d(a) comes from one routine, _cyclotomic_pieces, by the same
identity read upwards: taking the d | m ascending, Phi_d(a) is a^d - 1
divided exactly by the Phi_e(a) already found for e | d, e < d.  It gives
cyclotomic_value, and q_pm_1_pieces, the pieces Phi_d(p) of q -+ 1 that
the spectra closed forms record and factor_pieces factors one by one.

Every prime s of Phi_d(a) divides d or is 1 (mod d): if s does not divide
d, then a has order exactly d mod s, so d | s - 1.  factor() uses that
congruence when the number comes as a _Congruent, which only this module
builds, next to the proof: the pieces of _cyclotomic_pieces and
q_pm_1_pieces, and the stripped Phi_n(a) of primitive_prime_divisors.
With e = lcm(2, k) every prime not dividing k is odd and 1 (mod e), so
after the primes of k are divided out, trial division needs only the
r = 1 (mod e), and rho iterates x -> x^e + c (Brent & Pollard, Math.
Comp. 36, 1981): x -> x^e is e-to-1 on the units mod such a prime, so the
walk lives on about s/e values and its expected length falls by about
sqrt(e).  Each step costs the roughly log2(e) multiplications of
pow(x, e, n), and the rho budget charges them.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .errors import FactorizationIncomplete, NotCoprime

# Factoring defaults.  configure() sets the rho budget and seed that factor()
# uses when a call passes none; cli.main calls it on every invocation.
DEFAULT_TRIAL_BOUND = 10**5
DEFAULT_RHO_BUDGET = 10**7
DEFAULT_SEED = 0

_rho_budget = DEFAULT_RHO_BUDGET
_seed = DEFAULT_SEED


def configure(*, seed: int | None = None, budget: int | None = None) -> None:
    """Set the process-wide rho seed and budget; None keeps the current one.

    The values stay until the next call; individual functions also accept
    per-call overrides.
    """
    global _seed, _rho_budget
    if seed is not None:
        _seed = seed
    if budget is not None:
        _rho_budget = budget


# ---------------------------------------------------------------------------
# primality

# Miller-Rabin witnesses: the first 40 primes, fixed so that results stay
# reproducible run to run.  All 40 are used above the deterministic limit;
# below it the first 12 are exact (for n < 3_317_044_064_679_887_385_961_981,
# which exceeds 2^64), and they also screen n by trial division.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
          53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
          109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173)
_DETERMINISTIC_LIMIT = 1 << 64
_DETERMINISTIC_BASES = _BASES[:12]


@dataclass(frozen=True)
class Primality:
    prime: bool
    probabilistic: bool  # True when n was beyond the deterministic threshold


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primality(n: int) -> Primality:
    """Primality of n, recording whether the verdict is only probabilistic."""
    if n < 2:
        return Primality(False, False)
    for p in _DETERMINISTIC_BASES:
        if n == p:
            return Primality(True, False)
        if n % p == 0:
            return Primality(False, False)
    if n < _DETERMINISTIC_LIMIT:
        return Primality(_miller_rabin(n, _DETERMINISTIC_BASES), False)
    return Primality(_miller_rabin(n, _BASES), True)


def is_prime(n: int) -> bool:
    """True iff n is prime (exact below 2^64, 40-witness Miller-Rabin above)."""
    return primality(n).prime


@functools.lru_cache(maxsize=8)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit, by sieve of Eratosthenes."""
    if limit <= 2:
        return ()
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return tuple(i for i in range(limit) if sieve[i])


def largest_prime_below(n: int) -> int:
    """The largest prime <= n (n >= 2)."""
    if n < 2:
        raise ValueError("no prime <= n for n < 2")
    k = n
    while not is_prime(k):
        k -= 1
    return k


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    """n as a product of primes: factors = ((prime, exponent), ...) ascending.

    When complete is False the listed part only divides base_n and the
    remaining composite is carried in cofactor.  probable lists any factor
    whose primality was established only probabilistically.
    """

    base_n: int
    factors: tuple[tuple[int, int], ...]
    complete: bool = True
    cofactor: int = 1
    probable: tuple[int, ...] = ()

    def product(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out * self.cofactor

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def require_complete(self) -> "Factorization":
        if not self.complete:
            raise FactorizationIncomplete(self)
        return self

    def divisors(self) -> list[int]:
        """All positive divisors of base_n, ascending; needs completeness."""
        divs = [1]
        for p, e in self.require_complete().factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)

    def __str__(self) -> str:
        if not self.factors and self.cofactor == 1:
            return "1"
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if not self.complete:
            parts.append(f"[{self.cofactor}]")
        return "*".join(parts)


class _Congruent(int):
    """An integer each of whose primes divides `modulus` or is 1 (mod modulus).

    Only this module builds one, where the congruence is proved: a
    cyclotomic piece Phi_d(a), halved or not, carries d, the stripped
    Phi_n(a) carries n.  factor() reads the modulus to choose its trial
    divisors and rho map; to everything else it is the plain integer.  A
    wrong modulus would make factor() unsound, so it is never taken from
    outside this module.
    """

    def __new__(cls, value: int, modulus: int):
        self = super().__new__(cls, value)
        self.modulus = modulus
        return self

    def __getnewargs__(self):
        return int(self), self.modulus


def _candidates(k: int, stop: int) -> range:
    """The r = 1 (mod lcm(2, k)) with 1 < r < stop, ascending.

    For k >= 2 every prime that is 1 (mod k) is among them (it is odd).
    Used as trial divisors in ascending order, a composite candidate never
    divides: its primes are smaller candidates, already divided out, or
    primes that cannot occur in the number at all.
    """
    e = math.lcm(2, k)
    return range(e + 1, stop, e)


def _divide_out(m: int, trial, counts: Counter[int]) -> int:
    """m with each trial divisor, ascending, divided out and counted in counts.

    It stops at the first divisor whose square exceeds what is left.
    """
    for r in trial:
        if r * r > m:
            break
        while m % r == 0:
            counts[r] += 1
            m //= r
    return m


def _pollard_rho_brent(n: int, rng: random.Random, budget: int,
                       e: int) -> tuple[int | None, int]:
    """One randomized Brent-cycle rho attempt on x -> x^e + c: (factor | None, cost).

    The cost counts the multiplications mod n that pow(x, e, n) takes, so
    one step of x^2 + c costs 1 and the budget bounds the time whatever e is.
    """
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    step = e.bit_length() + e.bit_count() - 2
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    # e == 2 steps by y * y, about a quarter faster than pow(y, 2, n) on
    # cofactors below about 150 bits
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
        # the batched gcd overshot; replay one step at a time
        while True:
            ys = (pow(ys, e, n) + c) % n
            used += step
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
            if used > budget:
                return None, used
    return (g, used) if g != n else (None, used)


def _as_perfect_power(n: int) -> tuple[int, int] | None:
    """(root, k) with root**k == n and k >= 2 largest (root no perfect power), or None."""
    for k in range(n.bit_length(), 1, -1):
        lo, hi = 1, 1 << (n.bit_length() // k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**k < n:
                lo = mid + 1
            else:
                hi = mid
        if lo**k == n:
            return lo, k
    return None


# Complete factorizations are unique, so they can be cached regardless of
# which seed/budget produced them.
_COMPLETE_CACHE: dict[int, Factorization] = {}


def _factorization(n: int, counts: Counter[int], probable: set[int],
                   cofactor: int) -> Factorization:
    """The Factorization of n from its prime counts and the unfactored cofactor.

    It is complete iff cofactor == 1, and a complete one is cached under n.
    """
    result = Factorization(
        base_n=n,
        factors=tuple(sorted(counts.items())),
        complete=cofactor == 1,
        cofactor=cofactor,
        probable=tuple(sorted(probable)),
    )
    if result.complete and len(_COMPLETE_CACHE) < 200_000:
        _COMPLETE_CACHE[n] = result
    return result


def factor(n: int, *, budget: int | None = None,
           seed: int | None = None) -> Factorization:
    """Factor n >= 1: trial division below DEFAULT_TRIAL_BOUND, then Brent/Pollard rho.

    Never raises on hard input: if the per-cofactor budget runs out, the
    partial result is returned with complete=False and the unfactored
    cofactor recorded.  The budget counts multiplications mod the cofactor:
    one per step of x -> x^2 + c, and as many per step of x -> x^e + c as
    pow(x, e, n) takes, so it bounds the time spent whatever e is.

    The trial bound is the constant DEFAULT_TRIAL_BOUND.  When n is a
    _Congruent with modulus k (see the module docstring), the primes of k
    below the bound are divided out first; every other prime below the
    bound that can divide n is 1 (mod e), e = lcm(2, k).  Trial division
    then takes only the r = 1 (mod e) below the bound (or the primes below
    it, when those are fewer), so every prime below the bound that divides
    n is still divided out, and a cofactor below its square is still prime.
    Rho iterates x -> x^e + c.  Without a congruence e = 2: all primes
    below the bound and x -> x^2 + c.
    """
    if n < 1:
        raise ValueError("factor requires n >= 1")
    k = n.modulus if type(n) is _Congruent else 1
    n = int(n)
    cached = _COMPLETE_CACHE.get(n)
    if cached is not None:
        return cached
    bound = DEFAULT_TRIAL_BOUND
    budget = _rho_budget if budget is None else budget
    seed = _seed if seed is None else seed

    counts: Counter[int] = Counter()
    probable: set[int] = set()
    m = n
    e = math.lcm(2, k)
    trial = primes_below(bound)
    for r in trial:  # the primes of k below bound
        if r > k:
            break
        if k % r == 0:
            while m % r == 0:
                counts[r] += 1
                m //= r
    if bound // e < len(trial):
        trial = _candidates(k, bound)
    m = _divide_out(m, trial, counts)
    cofactor = 1

    def settle(c: int, mult: int) -> None:
        # classify c (all prime factors >= bound) recursively
        nonlocal cofactor
        if c == 1:
            return
        if c < bound * bound:
            counts[c] += mult  # smallest factor >= bound, so c is prime
            return
        st = primality(c)
        if st.prime:
            counts[c] += mult
            if st.probabilistic:
                probable.add(c)
            return
        power = _as_perfect_power(c)
        if power is not None:
            settle(power[0], mult * power[1])
            return
        rng = random.Random(f"{seed}:{c}")
        left = budget
        while left > 0:
            d, used = _pollard_rho_brent(c, rng, left, e)
            left -= used
            if d is not None:
                settle(d, mult)
                settle(c // d, mult)
                return
        cofactor *= c**mult

    settle(m, 1)
    return _factorization(n, counts, probable, cofactor)


def factor_pieces(pieces) -> Factorization:
    """Factor a product given as its pieces, one factor() call per piece.

    The pieces need not be coprime: prime counts are summed, probable primes
    united, and the stuck cofactors multiplied.  The result is complete only
    if every piece factored completely; the product itself is never factored
    whole.  Complete results are cached under the product, so a repeat call,
    or factor() of the product, is one lookup.
    """
    pieces = tuple(pieces)
    n = math.prod(pieces)
    cached = _COMPLETE_CACHE.get(n)
    if cached is not None:
        return cached
    counts: Counter[int] = Counter()
    probable: set[int] = set()
    cofactor = 1
    for piece in pieces:
        f = factor(piece)
        counts.update(f.as_dict())
        probable.update(f.probable)
        cofactor *= f.cofactor
    return _factorization(n, counts, probable, cofactor)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return factor(n).divisors()


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    f = factor(n).require_complete()
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def _carmichael(modulus: int) -> int:
    lam = 1
    for p, e in factor(modulus).require_complete().factors:
        if p == 2:
            part = 2 ** max(e - 2, 0) if e > 1 else 1
        else:
            part = p ** (e - 1) * (p - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a^k = 1 (mod modulus); requires gcd(a, modulus) = 1.

    The order is found by reducing a known exponent multiple (modulus-1 for
    prime moduli, the Carmichael function otherwise) along its prime
    factorization, never by naive stepping.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"{a} and {modulus} share a factor")
    e = modulus - 1 if is_prime(modulus) else _carmichael(modulus)
    for p in factor(e).require_complete().primes():
        while e % p == 0 and pow(a, e // p, modulus) == 1:
            e //= p
    return e


def _cyclotomic_pieces(a: int, m: int) -> dict[int, _Congruent]:
    """Phi_d(a) for every d | m, keyed by d ascending, each tagged with its d.

    Since a^d - 1 = prod over e | d of Phi_e(a), taking d ascending each
    Phi_d(a) is a^d - 1 divided exactly by the Phi_e(a) already found for
    e | d, e < d.  The divisors of m come from trial division up to
    isqrt(m), so nothing is factored.  Every prime of Phi_d(a) divides d or
    is 1 (mod d) (module docstring), which the tag records.
    """
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    phi: dict[int, _Congruent] = {}
    for d in low + [m // d for d in reversed(low) if d * d != m]:
        value = a**d - 1
        for e, v in phi.items():
            if d % e == 0:
                value //= v
        phi[d] = _Congruent(value, d)
    return phi


def q_pm_1_pieces(p: int, n: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q - 1)/e and (q + 1)/e, q = p^n, as their pieces Phi_d(p), d ascending.

    q - 1 is the product over the d | n, q + 1 = (q^2 - 1)/(q - 1) over the
    d | 2n that do not divide n (_cyclotomic_pieces), so nothing is
    factored.  e divides both, so it is 1 or 2; e = 2 halves the first even
    piece of each.  Every piece is a _Congruent carrying its d, halved too.
    """
    minus, plus = [], []
    for d, value in _cyclotomic_pieces(p, 2 * n).items():
        (minus if n % d == 0 else plus).append(value)
    if e == 2:
        for side in minus, plus:
            i = next(i for i, v in enumerate(side) if v % 2 == 0)
            side[i] = _Congruent(side[i] // 2, side[i].modulus)
    return tuple(minus), tuple(plus)


def cyclotomic_value(n: int, a: int) -> int:
    """Phi_n(a), the n-th cyclotomic polynomial evaluated at a >= 2.

    Computed exactly by ascending division (_cyclotomic_pieces).
    """
    if n < 1 or a < 2:
        raise ValueError("need n >= 1 and a >= 2")
    return int(_cyclotomic_pieces(a, n)[n])


# ---------------------------------------------------------------------------
# primitive prime divisors

EXCEPTION_NONE = "none"
EXCEPTION_A2N6 = "a2n6"
EXCEPTION_MERSENNE_SQUARE = "mersenne_square"

METHOD_FULL = "full_factorization"
METHOD_RESIDUAL = "cyclotomic_residual"


def zsigmondy_exception(a: int, n: int) -> str:
    """Which Zsigmondy exception (a, n) falls under, if any.

    The n = 2 exception holds exactly when a + 1 is a power of two, i.e. a
    is a Mersenne *number*; for prime a this is the familiar Mersenne-prime
    case, but composite instances such as a = 15 are exceptions as well
    (15^2 - 1 = 2^5 * 7 and both 2 and 7 already divide 15 - 1).
    """
    if (a, n) == (2, 6):
        return EXCEPTION_A2N6
    if n == 2 and a >= 3 and (a + 1) & a == 0:
        return EXCEPTION_MERSENNE_SQUARE
    return EXCEPTION_NONE


@dataclass(frozen=True)
class PpdReport:
    """Outcome of a primitive-prime-divisor query on a^n - 1.

    primitive_primes holds every prime s with s | a^n - 1 and s not dividing
    a^i - 1 for 1 <= i < n that the chosen method identified; complete says
    whether that set is exhaustive.  For the residual method the verdict
    exists_above_threshold is exact even when the set is not.
    """

    a: int
    n: int
    primitive_primes: frozenset[int]
    exception: str = EXCEPTION_NONE
    method: str = METHOD_FULL
    residual: int = 1
    threshold: int | None = None
    exists_above_threshold: bool | None = None
    complete: bool = True
    probable: tuple[int, ...] = field(default=(), compare=False)


def is_primitive_prime_divisor(a: int, n: int, s: int) -> bool:
    """Definition check: s | a^n - 1 and s does not divide a^i - 1 for i < n."""
    if pow(a, n, s) != 1 % s:
        return False
    return all(pow(a, i, s) != 1 % s for i in range(1, n))


def _stripped_cyclotomic(a: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(Phi_n(a) with every prime of n divided out to full multiplicity, those primes).

    The primes of the stripped value are exactly the primitive prime
    divisors of a^n - 1.  A prime s of Phi_n(a) with d = ord_s(a) < n has
    n = d * s^k for some k >= 1, so s divides n and is stripped.  A
    primitive prime divisor s has ord_s(a) = n, so it divides Phi_n(a);
    and n | s - 1, i.e. s = 1 (mod n), so s > n cannot divide n and is
    never stripped.  For n = 1 nothing is stripped and Phi_1(a) = a - 1.
    """
    value = cyclotomic_value(n, a)
    n_primes = factor(n).require_complete().primes()
    for r in n_primes:
        while value % r == 0:
            value //= r
    return value, n_primes


def primitive_prime_divisors(a: int, n: int, **factor_opts) -> PpdReport:
    """All primitive prime divisors of a^n - 1: the primes of the stripped Phi_n(a).

    One factorization of Phi_n(a) with the primes of n divided out (see
    _stripped_cyclotomic for why that is exact); its primes, completeness
    and probable primes are the report's.  For n = 1 the primitivity
    condition is vacuous and the result is just the prime set of a - 1.
    """
    if a < 2 or n < 1:
        raise ValueError("need a >= 2 and n >= 1")
    value, _ = _stripped_cyclotomic(a, n)
    f = factor(_Congruent(value, n), **factor_opts)
    return PpdReport(
        a=a, n=n, primitive_primes=frozenset(f.primes()),
        exception=zsigmondy_exception(a, n),
        method=METHOD_FULL, complete=f.complete, probable=f.probable,
    )


def ppd_exists_above(a: int, n: int, q: int) -> PpdReport:
    """Exact decision: does some primitive prime divisor of a^n - 1 exceed q?

    No factorization of a^n - 1 is attempted.  The primes of the stripped
    Phi_n(a) are exactly the primitive prime divisors (see
    _stripped_cyclotomic), so after dividing out all of them <= q, a
    residual > 1 is equivalent to the existence of a primitive prime
    divisor > q.  Those primes are all odd and 1 (mod n), so the trial
    divisors are the r = 1 (mod lcm(2, n)) up to q, ascending (_candidates).
    Once r^2 exceeds the residual, the residual is 1 or a prime, which is
    divided out too if it is <= q.  Memory stays O(1) and the steps number
    about q/lcm(2, n).

    A stripped prime of n is never primitive, even when it exceeds q: a
    primitive prime divisor is 1 (mod n), so it cannot divide n.
    """
    if a < 2 or n < 2 or q < 2:
        raise ValueError("need a >= 2, n >= 2, q >= 2")
    value, _ = _stripped_cyclotomic(a, n)
    found: Counter[int] = Counter()
    value = _divide_out(value, _candidates(n, q + 1), found)
    if 1 < value <= q:  # a prime: only after the divisors passed its root
        found[value] += 1
        value = 1
    exists = value > 1
    return PpdReport(
        a=a, n=n, primitive_primes=frozenset(found),
        exception=zsigmondy_exception(a, n),
        method=METHOD_RESIDUAL, residual=value,
        threshold=q, exists_above_threshold=exists,
        complete=not exists,
    )


# ---------------------------------------------------------------------------
# p^m = q^n + 1

FAMILY_MERSENNE = "mersenne"
FAMILY_FERMAT = "fermat"
FAMILY_EXCEPTIONAL = "exceptional"
FAMILY_UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CatalanSolution:
    """A solution of p^m = q^n + 1 with p, q prime and m, n >= 1."""

    p: int
    m: int
    q: int
    n: int
    family: str

    @property
    def value(self) -> int:
        return self.p**self.m


def _classify_catalan(p: int, m: int, q: int, n: int) -> str:
    if (p, m, q, n) == (3, 2, 2, 3):
        return FAMILY_EXCEPTIONAL
    if p == 2 and n == 1 and is_prime(m) and q == 2**m - 1:
        return FAMILY_MERSENNE
    if q == 2 and m == 1 and n & (n - 1) == 0 and p == 2**n + 1:
        return FAMILY_FERMAT
    return FAMILY_UNCLASSIFIED


def _prime_power(u: int) -> tuple[int, int] | None:
    """(q, n) with q prime and q^n == u, or None."""
    if u < 2:
        return None
    if u % 2 == 0:
        return (2, u.bit_length() - 1) if u & (u - 1) == 0 else None
    base, exp = _as_perfect_power(u) or (u, 1)
    return (base, exp) if is_prime(base) else None


def catalan_solutions(value_bound: int) -> list[CatalanSolution]:
    """All (p, m, q, n) with p, q prime, p^m = q^n + 1 <= value_bound, ascending.

    p^m and q^n differ by 1, so one of them is even: p = 2 or q = 2.  So it
    is enough to test 2^k - 1 (p = 2, m = k) and 2^k + 1 (q = 2, n = k) as
    prime powers for every 2^k up to the bound.  Each solution is
    classified into the Mersenne family (p = 2), the Fermat family (q = 2)
    or the single exceptional solution 3^2 = 2^3 + 1.
    """
    if value_bound < 9:
        raise ValueError("value_bound must be >= 9")
    out = []
    k = 1
    while (power := 1 << k) <= value_bound:
        if (qn := _prime_power(power - 1)) is not None:
            out.append(CatalanSolution(2, k, *qn, _classify_catalan(2, k, *qn)))
        if power + 1 <= value_bound and (pm := _prime_power(power + 1)) is not None:
            out.append(CatalanSolution(*pm, 2, k, _classify_catalan(*pm, 2, k)))
        k += 1
    return out
