"""Arbitrary-precision primality, factorization and primitive prime divisors.

Everything here works on plain Python integers, so values are unbounded.
Primitive prime divisors of a^n - 1 come from one cyclotomic core: since
a^n - 1 = prod over d | n of Phi_d(a), they are exactly the primes of
Phi_n(a) that do not divide n (_stripped_cyclotomic).  Two queries sit on
that core:

  * primitive_prime_divisors -- all of them, by factoring the model's
    Phi_n(a) once, tagged with n, and dropping its primes that divide n;
  * ppd_exists_above -- an exact existence test "is there one above q?"
    that factors nothing, not even n: it trial divides the stripped
    Phi_n(a) by the r = 1 (mod lcm(2, n)) up to q and looks at what is
    left.

Every Phi_d(a) comes from one routine, _cyclotomic_pieces, by the same
identity read upwards: taking the d | m ascending, Phi_d(a) is a^d - 1
divided exactly by the Phi_e(a) already found for e | d, e < d.  It gives
cyclotomic_value, and the one model of the closed-form orders,
cyclotomic_product_pieces: a product of Phi_m(q), q = p^n, over a set of
indices m is the product of the Phi_d(p) with d / gcd(d, n) in that set.
q_pm_1_pieces is its case m in {1, 2}.  The spectra closed forms record
those pieces, and factor_pieces factors them one by one.

Every prime s of Phi_d(a) divides d or is 1 (mod d): if s does not divide
d, then a has order exactly d mod s, so d | s - 1.  factor() uses that
congruence when the number comes as a _Congruent, which only this module
builds, next to the proof: the pieces of _cyclotomic_pieces, and so of
the model and of primitive_prime_divisors.
With e = lcm(2, k) every prime not dividing k is odd and 1 (mod e), so
trial division needs only the primes of k and the primes r = 1 (mod e),
read from one sieve.  For e > 2 a cofactor of at least the bound's
square is not walked over that class: one gcd with the product of the
class's primes, built once per e and cached, holds every one of them that
divides it, and only that gcd is walked (the batch gcd of Bernstein, "How
to find smooth parts of integers", 2004).  Every trial division, of a
number or of that gcd, is the one loop _divide_out.  Rho iterates
x -> x^e + c (Brent & Pollard, Math. Comp. 36, 1981): x -> x^e is e-to-1 on the units
mod such a prime, so the walk lives on about s/e values and its expected
length falls by about sqrt(e).  Every e, 2 too, steps by the one map
pow(x, e, n) + c, whose roughly log2(e) multiplications the rho budget
charges.

When e = 4k with k odd, a composite cofactor c first takes one gcd with
2^k - 2^((k+1)/2) + 1.  That is one of Aurifeuille's two factors of
2^(2k) + 1 = (2^k - 2^((k+1)/2) + 1)(2^k + 2^((k+1)/2) + 1), which are
coprime, as they differ by a power of 2 (Brent, "On computing factors of
cyclotomic polynomials", Math. Comp. 61, 1993).  A piece of Phi_4k(2)
divides 2^(2k) + 1, so the gcd holds each of its primes that divides the
first factor, to its full power in c, and c over the gcd the others: one
gcd does what rho might not within its budget (Phi_372(2) has primes of
15 and 19 digits, one in each).  For another base the gcd is a divisor
of c all the same, and almost always 1 or c.  Like p - 1 and rho it runs
only with a budget above 0; it is not charged.

Where rho would walk x -> x^2 + c on a cofactor of at least P1_MIN_BITS
bits, Pollard's p - 1 (Proc. Camb. Phil. Soc. 76, 1974) goes first.  It
finds each prime s with s - 1 a product of prime powers up to P1_BOUND
and at most one more prime below TRIAL_BOUND.  Stage 1 is one
pow(3, lcm(1..P1_BOUND), n), which runs in C; stage 2 walks trial
division's primes above P1_BOUND, stepping x^r from one prime to the next
by a table of x^gap.  The budget charges it about 22.6k multiplications
(_pm1_plan), which rho's expected charge on a balanced split, about
n^(1/4), reaches at about P1_MIN_BITS bits.  Pieces with e > 2 skip it.

Rho finds a prime s in about sqrt(s / e) steps, so past a few dozen bits
Lenstra's elliptic curve method (ECM) finds it sooner: its time grows
with the size of s far more slowly.  After p - 1, rho walks a share of
the budget, what it expects to need for a prime of RHO_SHARE_BITS bits
(_rho_share); then ECM curves run, each only if its whole charge fits in
what is left, and rho walks the rest.  A curve is a Montgomery curve
from Suyama's parametrization, drawn from a generator seeded by the
cofactor; stage 1 is one x-only ladder over lcm(1..B1), and stage 2
pairs baby and giant steps on D = 210, one multiplication per pair of
primes up to ECM_B2 * B1 (_ecm_curve).  B1 rises as curves fail, as in
GMP-ECM's table (Zimmermann & Dodson, ANTS 2006): ECM_B1.  Every e gets
the curves, pieces too.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from collections import Counter, namedtuple
from itertools import compress, repeat

from .errors import FactorizationIncomplete, NotCoprime
from .records import FrozenRecord

# The trial bound is fixed; configure() alone sets the budget for p - 1,
# rho and ECM that factor() uses, and cli.main sets it for one invocation.
TRIAL_BOUND = 10**5
DEFAULT_RHO_BUDGET = 10**7
# Pollard p - 1: stage 1 takes every prime power up to P1_BOUND, and only a
# cofactor of at least P1_MIN_BITS bits is tried.  _P1_MAX_GAP is the widest
# gap between primes below TRIAL_BOUND (31397 to 31469), which stage 2 steps.
P1_BOUND = 3000
P1_MIN_BITS = 56
_P1_MAX_GAP = 72
# ECM: rho first walks the share it expects to need for a prime of
# RHO_SHARE_BITS bits, then curves run while their charge fits.  Curve i
# takes the b1 of the first (count, b1) of ECM_B1 whose counts sum past i,
# or the last b1; stage 2 goes to ECM_B2 * b1 in giant steps of ECM_D.
RHO_SHARE_BITS = 26
ECM_B1 = ((20, 250), (60, 2000), (None, 11000))
ECM_B2 = 50
ECM_D = 210
# Stage 2's baby steps: the j < ECM_D / 2 prime to ECM_D, 24 for D = 210.
_ECM_BABIES = tuple(j for j in range(1, ECM_D // 2, 2) if math.gcd(j, ECM_D) == 1)

_rho_budget = DEFAULT_RHO_BUDGET


def configure(*, budget: int | None = None) -> dict[str, int]:
    """Set the process-wide p - 1, rho and ECM budget; None keeps the current one.

    The only setter of the limit factor() reads at each call; it stays
    until the next call.  A budget below 0 is rejected and changes nothing.
    0 stops p - 1, rho, ECM and the Aurifeuillian gcd; trial division runs, and
    BPSW and the perfect-power test still run on a large cofactor,
    uncharged.  Returns the value it replaced, so that
    configure(**previous) puts it back.
    """
    global _rho_budget
    previous = {"budget": _rho_budget}
    if budget is not None:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        _rho_budget = budget
    return previous


# ---------------------------------------------------------------------------
# primality

# The first 12 primes: primality() trial divides n by them before BPSW,
# which is base 2 and a strong Lucas test, and never uses them as
# Miller-Rabin bases.  BPSW has no pseudoprime below 2^64 (Feitsma &
# Galway), so primality() is exact below the limit and probabilistic from
# it on.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64


class Primality(namedtuple("Primality", "prime probabilistic")):
    """probabilistic is True when n was beyond the deterministic threshold."""

    __slots__ = ()


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2^s and d odd, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _miller_rabin(n: int, bases) -> bool:
    """True iff odd n is a strong probable prime to every base, each 1 < a < n - 1.

    primality() takes base 2 alone, after screening n by the first 12
    primes, so n >= 41 there.
    """
    d, s = _odd_part(n - 1)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """True iff n, odd with no prime below 41, is a strong Lucas probable prime.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  A square n has no such D, so it
    is rejected first.  A D with (D/n) = 0 shares a prime with n; for a
    prime n the search stops at some |D| < n, so that proves n composite.
    With n + 1 = d * 2^s, d odd, n passes iff U_d = 0 or V_(d 2^r) = 0
    (mod n) for some 0 <= r < s.  U and V go up the bits of d from the top
    by U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k and, for a set bit,
    U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    u, v, qk = 1, 1, Q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u if u % 2 == 0 else u + n) // 2 % n
            v = (v if v % 2 == 0 else v + n) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def primality(n: int) -> Primality:
    """Primality of n, recording whether the verdict is only probabilistic.

    Trial division by the first 12 primes, then BPSW (Baillie & Wagstaff
    1980; Pomerance, Selfridge & Wagstaff 1980): one strong base-2 test
    and one strong Lucas test.  Exact below 2^64; no composite is known to
    pass above it.
    """
    if n < 2:
        return Primality(False, False)
    for p in _DETERMINISTIC_BASES:
        if n == p:
            return Primality(True, False)
        if n % p == 0:
            return Primality(False, False)
    return Primality(_miller_rabin(n, (2,)) and _strong_lucas(n),
                     n >= _DETERMINISTIC_LIMIT)


def is_prime(n: int) -> bool:
    """True iff n is prime: BPSW, exact below 2^64 and probabilistic above."""
    return primality(n).prime


@functools.lru_cache(maxsize=8)
def _sieve(limit: int) -> bytes:
    """Sieve of Eratosthenes: byte i is 1 iff i is prime, 0 <= i < limit."""
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return bytes(sieve)


@functools.lru_cache(maxsize=8)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit, read from factor()'s sieve (or a larger one).

    Only the odd numbers are read, so half as many ints are made.
    """
    if limit <= 2:
        return ()
    return (2, *compress(range(3, limit, 2), _sieve(max(limit, TRIAL_BOUND))[3::2]))


# ---------------------------------------------------------------------------
# factorization


class Factorization(namedtuple("Factorization",
                                "base_n factors complete cofactor probable",
                                defaults=(True, 1, ()))):
    """n as a product of primes: factors = ((prime, exponent), ...) ascending.

    When complete is False the listed part only divides base_n and the
    remaining composite is carried in cofactor.  probable lists any factor
    whose primality was established only probabilistically.
    """

    __slots__ = ()

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
        """All positive divisors of base_n, ascending; needs completeness.

        Each prime p^e extends the ascending list by e ascending runs, each
        the one before times p; one sort merges the e + 1 runs.
        """
        divs = [1]
        for p, e in self.require_complete().factors:
            run = divs
            divs = divs.copy()
            for _ in range(e):
                run = [d * p for d in run]
                divs += run
            divs.sort()
        return divs

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
    cyclotomic piece Phi_d(a), halved or not, carries d.  factor() reads
    the modulus to choose its trial divisors and rho map; to everything
    else it is the plain integer.  A wrong modulus would make factor()
    unsound, so it is never taken from outside this module.
    """

    def __new__(cls, value: int, modulus: int):
        self = super().__new__(cls, value)
        self.modulus = modulus
        return self

    def __getnewargs__(self):
        return int(self), self.modulus


def _trial_primes(e: int):
    """The primes r = 1 (mod e) below TRIAL_BOUND, ascending, read lazily.

    The stride is a memoryview, so a call copies nothing and costs what the
    caller reads before it stops.  factor() walks them when the cofactor is
    below TRIAL_BOUND^2, where the walk stops early; for a larger cofactor
    _divide_out_class walks them over its gcd with their product.
    """
    sieve = memoryview(_sieve(TRIAL_BOUND))
    return compress(range(e + 1, TRIAL_BOUND, e), sieve[e + 1::e])


@functools.lru_cache(maxsize=128)
def _class_product(e: int) -> int:
    """The product of the primes r = 1 (mod e) below TRIAL_BOUND, built once per e.

    From 0.5 KB at e = 120 to 4.5 KB at e = 10.  factor() never builds the
    18 KB one of e = 2: it walks that class.
    """
    return math.prod(_trial_primes(e))


def _divide_out(m: int, trial, counts: Counter[int]) -> int:
    """m with each trial divisor, ascending, divided out and counted in counts.

    It stops at the first divisor whose square exceeds what is left.  It is
    the one loop that divides and counts: factor()'s walks, both walks of
    _divide_out_class and ppd_exists_above's walk are calls of it.
    """
    for r in trial:
        if r * r > m:
            break
        while m % r == 0:
            counts[r] += 1
            m //= r
    return m


def _divide_out_class(m: int, e: int, counts: Counter[int]) -> int:
    """m with every prime r = 1 (mod e) below TRIAL_BOUND divided out and counted.

    g = gcd(m, P_e), P_e = _class_product(e), holds each such prime of m
    once, so one gcd replaces a walk of m over the class.  The class is
    walked over g instead (_divide_out): what it leaves of g, rest, is 1
    or a prime.  A second walk divides the primes of g, ascending, out of
    m to their full multiplicity.  It may stop early, at a prime r of g
    with r * r > m: every smaller prime of m is gone by then and every
    other prime of m is at least r, so m == r, and factor() counts a
    cofactor below TRIAL_BOUND^2 as a prime.
    """
    found: Counter[int] = Counter()
    rest = _divide_out(math.gcd(m, _class_product(e)), _trial_primes(e), found)
    return _divide_out(m, [*found, rest] if rest > 1 else found, counts)


def _pollard_rho_brent(n: int, rng: random.Random, budget: int,
                       e: int) -> tuple[int | None, int]:
    """One randomized Brent-cycle rho attempt on x -> x^e + c: (factor | None, cost).

    Every step, of x^2 + c too, is y = pow(y, e, n) + c, left unreduced
    after + c: pow reduces its base, and q and every gcd read y only mod n.
    The cost counts the multiplications mod n that pow(y, e, n) takes, so
    one step of x^2 + c costs 1 and the budget bounds the time whatever e is.
    The product q takes its factors two steps at a time, (x - y1)(x - y),
    and without abs: it changes by a sign at most, and gcd(q, n) does not.
    A block has an odd step only at r = 1.
    """
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    step = e.bit_length() + e.bit_count() - 2
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = pow(y, e, n) + c
        used += r * step
        k = 0
        while k < r and g == 1:
            ys = y
            # a block has m steps, or r < m: odd only at r = 1
            steps = min(m, r - k)
            for _ in range(steps >> 1):
                y1 = pow(y, e, n) + c
                y = pow(y1, e, n) + c
                q = q * ((x - y1) * (x - y)) % n
            if steps & 1:
                y = pow(y, e, n) + c
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        used += min(r, k) * step
        r *= 2
        if used > budget:
            return None, used
    if g == n:
        # the batched gcd overshot; replay one step at a time
        while True:
            ys = pow(ys, e, n) + c
            used += step
            g = math.gcd(x - ys, n)
            if g > 1:
                break
            if used > budget:
                return None, used
    return (g, used) if g != n else (None, used)


def _lcm_upto(b: int) -> int:
    """lcm(1..b), b < TRIAL_BOUND: the largest power up to b of each prime up to b."""
    primes = primes_below(TRIAL_BOUND)
    out = 1
    for p in primes[:bisect.bisect(primes, b)]:
        power = p
        while power * p <= b:
            power *= p
        out *= power
    return out


@functools.cache
def _pm1_plan() -> tuple[int, int, int]:
    """(E, start, charge) for _pollard_pm1, built once.

    E = lcm(1..P1_BOUND) (_lcm_upto), about 4.3 kbit.  start is the index in
    primes_below(TRIAL_BOUND) of the first prime above P1_BOUND, where
    stage 2 begins.  charge is what the budget counts for one attempt:
    a squaring per bit of E and 2 multiplications per stage-2 prime.
    """
    primes = primes_below(TRIAL_BOUND)
    start = bisect.bisect(primes, P1_BOUND)
    exponent = _lcm_upto(P1_BOUND)
    return exponent, start, exponent.bit_length() + 2 * (len(primes) - start)


def _pollard_pm1(n: int) -> int | None:
    """A proper factor of odd composite n by Pollard's p - 1, or None.

    Stage 1: x = 3^E mod n, E = lcm(1..P1_BOUND), and gcd(x - 1, n) holds
    every prime s of n with s - 1 | E.  Stage 2 goes over the primes r of
    primes_below(TRIAL_BOUND) above P1_BOUND, ascending.  x^r steps to the
    next prime's power by one multiplication with x^gap, read from a table
    of the even gaps, and x^r - 1 is multiplied into one product, whose gcd
    with n is taken every 1024 primes.  That catches each s with
    s - 1 | E * r.  A gcd equal to n gives None: the caller's rho splits n.
    """
    exponent, start, _ = _pm1_plan()
    x = pow(3, exponent, n)
    g = math.gcd(x - 1, n)
    if g != 1:
        return g if g != n else None
    primes = primes_below(TRIAL_BOUND)
    x2 = x * x % n
    power = [1] * (_P1_MAX_GAP + 1)  # power[d] = x^d for even d
    for d in range(2, _P1_MAX_GAP + 1, 2):
        power[d] = power[d - 2] * x2 % n
    prev = primes[start]
    y = pow(x, prev, n)
    q = y - 1
    for i in range(start + 1, len(primes), 1024):
        for r in primes[i:i + 1024]:
            y = y * power[r - prev] % n
            q = q * (y - 1) % n
            prev = r
        g = math.gcd(q, n)
        if g != 1:
            return g if g != n else None
    return None


@functools.cache
def _rho_share(e: int) -> int:
    """What rho walks on x -> x^e + c before the first ECM curve.

    Its expected charge for a prime of RHO_SHARE_BITS bits, about
    step * sqrt(2^RHO_SHARE_BITS / e), rounded up to whole rounds of Brent's
    walk: a round of r steps and its r paired steps charge 2 r step, and r
    doubles.  A walk given this share less 1 as its budget stops at the end
    of the round that spends it, unless it splits its number first.
    """
    step = e.bit_length() + e.bit_count() - 2
    target = step * math.isqrt(2**RHO_SHARE_BITS // e)
    share, r = 0, 1
    while share <= target:
        share, r = share + 2 * r * step, 2 * r
    return share


_EcmPlan = namedtuple("_EcmPlan", "bits first slots charge")


@functools.cache
def _ecm_plan(b1: int) -> _EcmPlan:
    """The fixed part of one ECM curve at b1, built once per b1.

    bits is bin(k)[3:], k = lcm(1..b1), which stage 1's ladder reads.  Stage 2
    covers each prime s in (b1, ECM_B2 * b1] as s = m D +- j, D = ECM_D,
    0 < j < D / 2 and gcd(j, D) = 1: slots holds, for each giant m from
    first on, the indices of the j whose pair has a prime, in the order of
    those j.  charge is what the budget counts for a curve: its
    multiplications mod n, each of its three inversions counted as one.
    """
    primes = primes_below(max(ECM_B2 * b1 + 1, TRIAL_BOUND))
    babies = {j: i for i, j in enumerate(_ECM_BABIES)}
    pairs: dict[int, set[int]] = {}
    for s in primes[bisect.bisect(primes, b1):bisect.bisect(primes, ECM_B2 * b1)]:
        m = (s + ECM_D // 2) // ECM_D
        pairs.setdefault(m, set()).add(babies[abs(s - m * ECM_D)])
    first, last = min(pairs), max(pairs)
    slots = tuple(tuple(sorted(pairs.get(m, ()))) for m in range(first, last + 1))
    bits = bin(_lcm_upto(b1))[3:]
    kept = len(slots) + len(babies)
    charge = (15 + 5 + 10 * len(bits)  # the curve, 2P and the ladder
              + 2 + 5 + 6 * (ECM_D // 4)  # x(Q), 2Q and the odd jQ up to D / 2
              + 10 + 6 * max(last - 2, 0)  # DQ, 2DQ and the walk to the last giant
              + 4 * kept + 1 + sum(map(len, slots)))  # normalized; one per pair
    return _EcmPlan(bits, first, slots, charge)


def _ecm_schedule():
    """The b1 of each curve in turn, from ECM_B1, without end."""
    for count, b1 in ECM_B1[:-1]:
        yield from repeat(b1, count)
    yield from repeat(ECM_B1[-1][1])


def _ecm_curve(n: int, rng: random.Random, b1: int) -> int | None:
    """A proper factor of n from one ECM curve at b1, or None.

    Lenstra's method (Ann. Math. 126, 1987) on a Montgomery curve
    B y^2 = x^3 + A x^2 + x with x-only arithmetic (Montgomery, Math.
    Comp. 48, 1987), from Suyama's parametrization: sigma drawn from rng,
    u = sigma^2 - 5, v = 4 sigma, P = (u^3 / v^3 : 1) and
    (A + 2) / 4 = (v - u)^3 (3u + v) / (16 u^3 v).  Mod a prime s of n
    the group has order divisible by 12, and the curve finds s when that
    order is b1-smooth but for one prime up to ECM_B2 * b1.
    Stage 1 is one ladder Q = [k]P, k = lcm(1..b1): s | Z(Q) when the
    order of P mod s divides k.  Stage 2 pairs baby steps jQ with giant
    steps m D Q, all normalized to x alone by one batch inversion (the
    trick of Montgomery, Math. Comp. 48, 1987): x(mDQ) - x(jQ) vanishes
    mod s when the order of Q mod s divides m D - j or m D + j, so one
    multiplication covers both primes of a pair.  An inversion that fails
    gives its gcd with n instead; a gcd equal to n gives None.
    """
    plan = _ecm_plan(b1)
    sigma = rng.randrange(6, n - 1)
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3, v3 = u * u % n * u % n, v * v % n * v % n
    den = 16 * u3 * v3 % n
    if (g := math.gcd(den, n)) != 1:
        return g if g != n else None
    inv = pow(den, -1, n)
    x = 16 * u3 * u3 % n * inv % n
    a24 = (v - u) ** 3 % n * (3 * u + v) % n * v % n * v % n * inv % n

    def dbl(x, z):
        s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    # stage 1: (x1 : z1) = [i]P and (x2 : z2) = [i + 1]P, from the top bit of k;
    # the ladder doubles inline, as a dbl call per bit made a curve 4-6% slower
    # (Python 3.11, B1 = 250 and 2000)
    x1, z1, (x2, z2) = x, 1, dbl(x, 1)
    for bit in plan.bits:
        p1, m1, p2, m2 = x1 + z1, x1 - z1, x2 + z2, x2 - z2
        u, v = m1 * p2, p1 * m2
        xa, za = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            s, d = p2 * p2 % n, m2 * m2 % n
            t = s - d
            x1, z1, x2, z2 = xa, za, s * d % n, t * (d + a24 * t) % n
        else:
            s, d = p1 * p1 % n, m1 * m1 % n
            t = s - d
            x1, z1, x2, z2 = s * d % n, t * (d + a24 * t) % n, xa, za
    if (g := math.gcd(z1, n)) != 1:
        return g if g != n else None

    # stage 2
    def walk(prev, point, step, count):
        # point + i * step for i = 0..count, each from the last two and
        # prev = point - step: x(P + S) from x(P), x(S) and x(P - S)
        (xb, zb), (xa, za) = prev, point
        ps, ms = sum(step), step[0] - step[1]
        out = [point]
        for _ in range(count):
            u, v = (xa - za) * ps, (xa + za) * ms
            xa, za, xb, zb = zb * (u + v) ** 2 % n, xb * (u - v) ** 2 % n, xa, za
            out.append((xa, za))
        return out

    q = x1 * pow(z1, -1, n) % n, 1
    odd = walk(q, q, dbl(*q), ECM_D // 4)  # odd[i] = (2i + 1)Q, up to D / 2
    step = dbl(*odd[-1])  # DQ
    giants = [step] + walk(step, dbl(*step), step, len(plan.slots) + plan.first - 3)
    points = [odd[j // 2] for j in _ECM_BABIES] + giants[plan.first - 1:]
    partial = [1]  # partial[i] = the product of the first i z mod n
    for _, z in points:
        partial.append(partial[-1] * z % n)
    if (g := math.gcd(partial[-1], n)) != 1:
        return g if g != n else None
    inv = pow(partial[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xs[i] = points[i][0] * partial[i] % n * inv % n
        inv = inv * points[i][1] % n
    baby = xs[:len(_ECM_BABIES)]
    q = 1
    for xg, js in zip(xs[len(baby):], plan.slots):
        for j in js:
            q = q * (xg - baby[j]) % n
    g = math.gcd(q, n)
    return g if 1 < g < n else None


def _iroot(n: int, r: int) -> int:
    """floor(n^(1/r)) for n >= 1 and r >= 2, by integer Newton steps.

    The start is a float estimate, good to about 40 bits.  A step from any
    x > 0 lands at or above the floor root (AM-GM), and from there each
    step goes down to it; the first that does not go down ends the walk.
    """
    if r == 2:
        return math.isqrt(n)
    t = math.log2(n) / r
    shift = max(0, int(t) - 52)
    x = (int(2.0 ** (t - shift)) + 1) << shift
    x = ((r - 1) * x + n // x ** (r - 1)) // r
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _as_perfect_power(n: int, top: int) -> tuple[int, int] | None:
    """(root, r) with root**r == n, r the least prime <= top that gives one, or None.

    A k-th power is an r-th power for each prime r | k, so only prime
    exponents are tried.  The root may be a power itself: callers that
    need the full exponent apply this to the root again.
    """
    for r in compress(range(top + 1), _sieve(max(top + 1, TRIAL_BOUND))):
        root = _iroot(n, r)
        if root**r == n:
            return root, r
    return None


# Every result of factor(), complete or not, keyed by all that decides it:
# (n, modulus, budget), modulus that of a _Congruent n or 1.  The trial bound
# and the primality test are fixed and rho is seeded by the cofactor
# alone, so an earlier call changes how fast a later one answers, not what.
_FACTOR_CACHE: dict[tuple[int, int, int], Factorization] = {}


def _factorization(n: int, counts: Counter[int], probable: set[int],
                   cofactor: int) -> Factorization:
    """The Factorization of n from its prime counts and unfactored cofactor."""
    return Factorization(n, tuple(sorted(counts.items())), cofactor == 1,
                         cofactor, tuple(sorted(probable)))


def factor(n: int) -> Factorization:
    """Factor n >= 1: trial division below TRIAL_BOUND, then p - 1, rho and ECM.

    Never raises on hard input: if the per-cofactor budget runs out, the
    partial result is returned with complete=False and the unfactored
    cofactor recorded.  Each part of a split starts with the whole budget
    again (settle): a call that splits s times tries s cofactors that split
    and at most s + 1 that do not, so it can spend up to 2s + 1 times the
    budget.  The budget counts multiplications mod the cofactor: one per
    step of x -> x^2 + c, and as many per step of x -> x^e + c as
    pow(x, e, n) takes, so it bounds the time spent whatever e is.  Pollard
    p - 1 is charged to the same budget: one squaring per bit of its
    stage-1 exponent and 2 multiplications per stage-2 prime, about 22.6k.
    So is each ECM curve, by the multiplications it makes (_ecm_plan):
    about 5.6k at the first B1.

    The trial bound is the constant TRIAL_BOUND.  When n is a
    _Congruent with modulus k (see the module docstring), every prime of n
    divides k or is 1 (mod e), e = lcm(2, k).  A walk divides out the
    primes of k first.  The trial route for what is left depends on e
    alone, not on k: a plain n and the moduli 1 and 2 share e = 2, whose
    congruence every odd prime meets, and take one route, an ascending
    walk that stops early over all the primes below the bound, at any
    size.  When e > 2 and what is left is below the bound's square, the
    same walk goes over the primes r = 1 (mod e) below the bound alone,
    read lazily from the sieve (_trial_primes).  When it is not, one gcd
    with the product of the class's primes finds those that divide it,
    only the gcd is walked, and a second walk divides the primes it found
    out of what is left (_divide_out_class).
    That walk may stop early too, with one of those primes left.  So every
    prime below the bound that divides n is still divided out, or is all
    that is left, and a cofactor below the bound's square is still prime.
    A cofactor above that square is tested by BPSW (primality), and a
    prime above 2^64 is recorded in probable.  A composite one is taken as
    a perfect power b^k if it is one, where b >= bound > 2^16 bounds k by
    its bit length over 16.  When e = 4k, k odd, one gcd with an
    Aurifeuillian factor of 2^(2k) + 1 may split it (module docstring);
    otherwise, and for each part, rho on x -> x^e + c splits it.
    Without a congruence e = 2: x -> x^2 + c.  When e = 2 and the
    cofactor has at least P1_MIN_BITS bits, Pollard p - 1 (_pollard_pm1)
    runs before rho if its whole charge fits in the cofactor's budget; a
    piece with e > 2 skips it.  When what is left holds rho's share
    (_rho_share) and the first curve, rho walks the share, then ECM curves
    run while the whole charge of the next one fits, and rho walks what is
    left; otherwise rho walks it all.  So a budget below the share plus
    one curve, 13811 for e = 2, factors as p - 1 and rho alone.
    The budget is configure()'s, and it alone decides what completes:
    p - 1 always starts from 3, and each cofactor seeds its rho walk and
    its curves, so the same (n, modulus, budget) always gives the same
    result.
    """
    if n < 1:
        raise ValueError("factor requires n >= 1")
    k = n.modulus if type(n) is _Congruent else 1
    n = int(n)
    budget = _rho_budget
    key = (n, k, budget)
    cached = _FACTOR_CACHE.get(key)
    if cached is not None:
        return cached
    bound = TRIAL_BOUND

    counts: Counter[int] = Counter()
    probable: set[int] = set()
    e = math.lcm(2, k)
    trial = primes_below(bound)
    m = _divide_out(n, [r for r in trial[:k] if k % r == 0], counts)
    if e == 2 or m < bound * bound:  # a walk, which stops early
        m = _divide_out(m, trial if e == 2 else _trial_primes(e), counts)
    else:
        m = _divide_out_class(m, e, counts)
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
        # c = b^k with b >= bound >= 2^t, t = 16, so k <= c.bit_length() // t
        t = bound.bit_length() - 1
        power = _as_perfect_power(c, c.bit_length() // t)
        if power is not None:
            settle(power[0], mult * power[1])
            return
        left = budget
        d = None
        if e % 8 == 4 and left > 0:
            # k = e / 4 is odd: a piece of Phi_4k(2) divides 2^(2k) + 1, and
            # Aurifeuille's two coprime factors of it split c (module docstring)
            g = math.gcd(c, 2 ** (e // 4) - 2 ** (e // 8 + 1) + 1)
            d = g if 1 < g < c else None
        if e == 2 and c.bit_length() >= P1_MIN_BITS and (charge := _pm1_plan()[2]) <= left:
            left -= charge
            d = _pollard_pm1(c)
        # another string is another walk: it changes what a small budget factors
        rng = random.Random(f"0:{c}")
        share = _rho_share(e)
        if d is None and share + _ecm_plan(ECM_B1[0][1]).charge <= left:
            d, used = _pollard_rho_brent(c, rng, share - 1, e)
            left -= used
            curves = random.Random(f"ecm:{c}")
            for b1 in _ecm_schedule():
                if d is not None or (charge := _ecm_plan(b1).charge) > left:
                    break
                left -= charge
                d = _ecm_curve(c, curves, b1)
        while d is None and left > 0:
            d, used = _pollard_rho_brent(c, rng, left, e)
            left -= used
        if d is not None:
            settle(d, mult)
            settle(c // d, mult)
            return
        cofactor *= c**mult

    settle(m, 1)
    result = _factorization(n, counts, probable, cofactor)
    if len(_FACTOR_CACHE) < 200_000:
        _FACTOR_CACHE[key] = result
    return result


def factor_pieces(pieces) -> Factorization:
    """Factor a product given as its pieces, one factor() call per piece.

    The pieces need not be coprime: prime counts are summed, probable primes
    united, and the stuck cofactors multiplied.  The result is complete only
    if every piece factored completely; the product itself is never factored
    whole.  Each piece's factorization is cached by factor(), so a repeat
    call costs a lookup per piece and the merge.
    """
    found = [factor(piece) for piece in pieces]
    counts: Counter[int] = Counter()
    for f in found:
        counts.update(f.as_dict())
    return _factorization(math.prod(f.base_n for f in found), counts,
                          {s for f in found for s in f.probable},
                          math.prod(f.cofactor for f in found))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return factor(n).divisors()


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a^k = 1 (mod modulus); requires gcd(a, modulus) = 1.

    The order is found by reducing a known exponent multiple (modulus-1 for
    prime moduli, Euler's phi otherwise) along its prime factorization,
    never by naive stepping.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"{a} and {modulus} share a factor")
    e = modulus - 1 if is_prime(modulus) else math.prod(
        p ** (k - 1) * (p - 1) for p, k in factor(modulus).require_complete().factors)
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


def cyclotomic_product_pieces(p: int, n: int, index_sets) -> list[list[_Congruent]]:
    """prod over m in ms of Phi_m(p^n) as its pieces Phi_d(p), for each ms of index_sets.

    A primitive d-th root of unity z has z^n of order d / gcd(d, n), so
    Phi_m(x^n) is the product of the Phi_d(x) with d / gcd(d, n) = m, and
    each such d divides mn.  So the pieces of ms are the Phi_d(p) with
    d | n * lcm(ms) and d / gcd(d, n) in ms, d ascending.  One
    _cyclotomic_pieces call, over the divisors of n times the lcm of every
    index, serves every set, so nothing is factored; each piece is the
    _Congruent it returns, tagged with its d.
    """
    phi = _cyclotomic_pieces(p, n * math.lcm(*(m for ms in index_sets for m in ms)))
    return [[v for d, v in phi.items() if d // math.gcd(d, n) in ms] for ms in index_sets]


def cyclotomic_products(q: int, index_sets) -> list[int]:
    """prod over m in ms of Phi_m(q), for each ms of index_sets, dividing no number of q's size.

    Such a product is a polynomial of degree D <= sum(ms) whose roots lie
    on the unit circle, so its coefficient of x^i is at most
    binom(D, i) < 2^sum(ms) in size.  With base = 2^(s + 1), s the largest
    sum(ms), the coefficients are the balanced base-`base` digits of its
    value at base (Kronecker substitution), which the model gives from
    small numbers (312 bits at most for F4's tori), and Horner's rule
    takes them to q.  The model at q itself divides q^d - 1, which costs
    time quadratic in q's size.
    """
    base = 2 << max(map(sum, index_sets))

    def at_q(v: int) -> int:
        c = (v + base // 2) % base - base // 2  # v's lowest balanced digit
        return c + q * at_q((v - c) // base) if v else 0
    return [at_q(math.prod(ps)) for ps in cyclotomic_product_pieces(base, 1, index_sets)]


def q_pm_1_pieces(p: int, n: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q - 1)/e and (q + 1)/e, q = p^n, as their pieces Phi_d(p), d ascending.

    q - 1 = Phi_1(q) and q + 1 = Phi_2(q): the index sets (1,) and (2,) of
    cyclotomic_product_pieces, whose pieces are the Phi_d(p) with d | n and
    with d | 2n not dividing n.  e divides both, so it is 1 or 2; e = 2
    halves the first even piece of each.  Every piece is a _Congruent
    carrying its d, halved too.
    """
    minus, plus = cyclotomic_product_pieces(p, n, ((1,), (2,)))
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


class PpdReport(FrozenRecord):
    """Outcome of a primitive-prime-divisor query on a^n - 1.

    primitive_primes holds every prime s with s | a^n - 1 and s not dividing
    a^i - 1 for 1 <= i < n that the chosen method identified; complete says
    whether that set is exhaustive.  For the residual method the verdict
    exists_above_threshold is exact even when the set is not.  probable,
    the primes only probably prime, is left out of == and hash.
    """

    __slots__ = ("a", "n", "primitive_primes", "exception", "method", "residual",
                 "threshold", "exists_above_threshold", "complete", "probable")
    _compared = __slots__[:-1]

    def __init__(self, a: int, n: int, primitive_primes: frozenset[int],
                 exception: str = EXCEPTION_NONE, method: str = METHOD_FULL,
                 residual: int = 1, threshold: int | None = None,
                 exists_above_threshold: bool | None = None,
                 complete: bool = True, probable: tuple[int, ...] = ()):
        self._fill(a, n, primitive_primes, exception, method, residual,
                   threshold, exists_above_threshold, complete, probable)


def _stripped_cyclotomic(a: int, n: int) -> int:
    """Phi_n(a) with every prime of n divided out to full multiplicity.

    Each pass divides by gcd(value, n) until that is 1, so n is never
    factored and the strip does not depend on the budget.  The primes of
    the stripped value are exactly the primitive prime divisors of
    a^n - 1.  A prime s of Phi_n(a) with d = ord_s(a) < n has
    n = d * s^k for some k >= 1, so s divides n and is stripped.  A
    primitive prime divisor s has ord_s(a) = n, so it divides Phi_n(a);
    and n | s - 1, i.e. s = 1 (mod n), so s > n cannot divide n and is
    never stripped.  For n = 1 nothing is stripped and Phi_1(a) = a - 1.
    """
    value = cyclotomic_value(n, a)
    while (g := math.gcd(value, n)) > 1:
        value //= g
    return value


def primitive_prime_divisors(a: int, n: int) -> PpdReport:
    """All primitive prime divisors of a^n - 1: the primes of Phi_n(a) not dividing n.

    One factorization of the model's piece Phi_n(a), tagged with n
    (_cyclotomic_pieces), so it shares its cache entry with the piece a
    closed form records.  Its primes that divide n, which factor()'s first
    walk divides out, are dropped (see _stripped_cyclotomic for why the
    rest are exactly the primitive ones); the rest, completeness and
    probable primes are the report's.  For n = 1 the primitivity condition
    is vacuous and the result is just the prime set of a - 1.  The
    factoring budget is configure()'s.
    """
    if a < 2 or n < 1:
        raise ValueError("need a >= 2 and n >= 1")
    f = factor(_cyclotomic_pieces(a, n)[n])
    return PpdReport(
        a=a, n=n, primitive_primes=frozenset(s for s in f.primes() if n % s),
        exception=zsigmondy_exception(a, n), method=METHOD_FULL,
        complete=f.complete, probable=f.probable,
    )


def ppd_exists_above(a: int, n: int, q: int) -> PpdReport:
    """Exact decision: does some primitive prime divisor of a^n - 1 exceed q?

    Nothing is factored, not even n.  The primes of the stripped
    Phi_n(a) are exactly the primitive prime divisors (see
    _stripped_cyclotomic), so after dividing out all of them <= q, a
    residual > 1 is equivalent to the existence of a primitive prime
    divisor > q.  Those primes are all odd and 1 (mod n), so the trial
    divisors are the r = 1 (mod lcm(2, n)) up to q, ascending, composites
    too, since q may go past the sieve that factor() reads.  A composite
    one never divides: its primes are smaller divisors, already divided
    out, or primes that cannot occur in the residual at all.  Once r^2
    exceeds the residual, the residual is 1 or a prime, which is divided
    out too if it is <= q.  Memory stays O(1) and the steps number about
    q/lcm(2, n).

    A stripped prime of n is never primitive, even when it exceeds q: a
    primitive prime divisor is 1 (mod n), so it cannot divide n.
    """
    if a < 2 or n < 2 or q < 2:
        raise ValueError("need a >= 2, n >= 2, q >= 2")
    value = _stripped_cyclotomic(a, n)
    found: Counter[int] = Counter()
    e = math.lcm(2, n)
    value = _divide_out(value, range(e + 1, q + 1, e), found)
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


class CatalanSolution(namedtuple("CatalanSolution", "p m q n family")):
    """A solution of p^m = q^n + 1 with p, q prime and m, n >= 1."""

    __slots__ = ()

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
    base, exp = u, 1
    while (power := _as_perfect_power(base, base.bit_length())) is not None:
        base, exp = power[0], exp * power[1]
    return (base, exp) if is_prime(base) else None


def catalan_solutions(value_bound: int) -> list[CatalanSolution]:
    """All (p, m, q, n) with p, q prime, p^m = q^n + 1 <= value_bound, ascending.

    p^m and q^n differ by 1, so one of them is even: p = 2 or q = 2.  So it
    is enough to test 2^k - 1 (p = 2, m = k) and 2^k + 1 (q = 2, n = k) as
    prime powers for every 2^k up to the bound.  Each solution is
    classified into the Mersenne family (p = 2), the Fermat family (q = 2)
    or the single exceptional solution 3^2 = 2^3 + 1.
    """
    if value_bound < 9:  # the bound of `catalan` and of `verify --bound`
        raise ValueError(f"bound must be >= 9, got {value_bound}")
    out = []
    k = 1
    while (power := 1 << k) <= value_bound:
        if (qn := _prime_power(power - 1)) is not None:
            out.append(CatalanSolution(2, k, *qn, _classify_catalan(2, k, *qn)))
        if power + 1 <= value_bound and (pm := _prime_power(power + 1)) is not None:
            out.append(CatalanSolution(*pm, 2, k, _classify_catalan(*pm, 2, k)))
        k += 1
    return out
