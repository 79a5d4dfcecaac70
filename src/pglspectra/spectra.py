"""Element-order spectra: canonical mu-form plus the closed-form families.

A spectrum (the set of element orders of a finite group) is divisor-closed,
so it is stored by the antichain of its maximal elements mu; the full set
omega is recovered on demand by divisor closure.  The PGL/PSL(2, q) closed
forms also record each order as its pieces Phi_d(p) (numtheory.q_pm_1_pieces),
so that consumers factor the pieces, not q -+ 1 whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadAction, CapExceeded, NotPrime
from .numtheory import (Factorization, factor_pieces, is_prime, primes_below,
                        q_pm_1_pieces)

DEFAULT_PARTITION_CAP = 40
DEFAULT_GROUP_CAP = 100_000


@dataclass(frozen=True)
class Spectrum:
    """An element-order spectrum held by its maximal orders.

    mu must be a divisibility antichain: no member divides another.  In
    particular 1 only appears as the spectrum of the trivial group.

    pieces maps an order to factors whose product it is, such as the
    cyclotomic values Phi_d(p) of q - 1 and q + 1; factorization(m) factors
    those pieces (numtheory.factor_pieces) instead of the order whole.  An
    order without an entry is its own single piece.  Building a spectrum
    factors nothing: the closed forms take their pieces, found by exact
    division and tagged with their d, from numtheory.q_pm_1_pieces.
    """

    mu: frozenset[int]
    label: str = field(default="", compare=False)
    pieces: dict[int, tuple[int, ...]] = field(default_factory=dict,
                                               compare=False, repr=False)

    def __post_init__(self):
        self._check_orders()
        for m in self.mu:
            for k in self.mu:
                if m != k and k % m == 0:
                    raise ValueError(f"{m} divides {k}: mu is not an antichain")

    def _check_orders(self):
        if not self.mu:
            raise ValueError("spectrum must be nonempty")
        if any(m < 1 for m in self.mu):
            raise ValueError("orders must be positive")

    @classmethod
    def _of_antichain(cls, mu: frozenset[int], label: str = "",
                      pieces=None) -> "Spectrum":
        """A spectrum whose builder has already proved mu an antichain.

        It skips the constructor's O(|mu|^2) pairwise re-check, which
        dominates for large mu (S_n, A_n), and keeps the other checks.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "mu", mu)
        object.__setattr__(s, "label", label)
        object.__setattr__(s, "pieces", pieces or {})
        s._check_orders()
        return s

    def sorted_mu(self) -> list[int]:
        return sorted(self.mu)

    def pieces_of(self, m: int) -> tuple[int, ...]:
        """Factors whose product is the order m: its recorded pieces, or (m,)."""
        return tuple(map(int, self.pieces.get(m, (m,))))

    def factorization(self, m: int) -> Factorization:
        """The factorization of the order m, merged from its pieces."""
        return factor_pieces(self.pieces.get(m, (m,)))


def maximal_elements(orders, label: str = "", pieces=None) -> Spectrum:
    """Reduce a set of orders to the members maximal under divisibility.

    pieces, an order-to-pieces map as in Spectrum, is passed through.
    """
    values = set(orders)
    if not values:
        raise ValueError("empty order set")
    mu = {m for m in values if not any(k != m and k % m == 0 for k in values)}
    return Spectrum._of_antichain(frozenset(mu), label, pieces)


def omega_closure(s: Spectrum) -> list[int]:
    """The full divisor-closed spectrum omega, ascending (always contains 1)."""
    out: set[int] = set()
    for m in s.mu:
        out.update(s.factorization(m).divisors())
    return sorted(out)


def _mu_projective(p: int, n: int, special: bool) -> Spectrum:
    """mu of PSL(2, p^n) if special, else of PGL(2, p^n), with the pieces of q -+ 1."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    q = p**n
    e = math.gcd(2, q - 1) if special else 1
    minus, plus = q_pm_1_pieces(p, n, e)
    return maximal_elements({(q - 1) // e, p, (q + 1) // e},
                            label=f"{'PSL' if special else 'PGL'}(2,{q})",
                            pieces={(q - 1) // e: minus, (q + 1) // e: plus})


def mu_pgl2(p: int, n: int) -> Spectrum:
    """Maximal element orders of PGL(2, p^n): {q - 1, p, q + 1} for q = p^n."""
    return _mu_projective(p, n, special=False)


def mu_psl2(p: int, n: int) -> Spectrum:
    """Maximal element orders of PSL(2, p^n): {(q-1)/e, p, (q+1)/e}, e = gcd(2, q-1)."""
    return _mu_projective(p, n, special=True)


def _prime_power_sums(n: int, cap: int) -> dict[int, int]:
    """Map every element order m of S_n to the sum of its prime-power parts.

    A permutation of order m needs, for each prime power p^e exactly dividing
    m, a cycle of length divisible by p^e, and one cycle per prime power is
    cheapest, so m is an order of S_n iff those parts sum to at most n
    (the knapsack behind Landau's function).  Built prime by prime: each
    order found so far takes every power of the next prime that still fits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds partition cap {cap}")
    sums = {1: 0}
    for p in primes_below(n + 1):
        for m, s in list(sums.items()):
            q = p
            while s + q <= n:
                sums[m * q] = s + q
                q *= p
    return sums


def _divisor_closed_mu(orders, n: int, label: str) -> Spectrum:
    """mu of a divisor-closed order set of a group of degree n.

    m is maximal iff no m*p is an order: an order properly divisible by m is
    divisible by some m*p, and every prime of an order is at most n.
    """
    primes = primes_below(n + 1)
    return Spectrum._of_antichain(
        frozenset(m for m in orders if not any(m * p in orders for p in primes)),
        label)


def omega_symmetric(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Spectrum:
    """Spectrum of the symmetric group on n letters.

    m is an element order iff its prime-power parts sum to at most n.
    """
    return _divisor_closed_mu(_prime_power_sums(n, cap), n, label=f"S{n}")


def omega_alternating(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Spectrum:
    """Spectrum of the alternating group on n letters.

    Odd-length cycles are even permutations, so every odd order of S_n is
    an order of A_n.  An even order m needs an even number of even-length
    cycles, hence at least two; the cheapest second even cycle is a
    2-cycle, so m is an order of A_n iff its prime-power parts sum to at
    most n - 2.
    """
    orders = {m for m, s in _prime_power_sums(n, cap).items() if m % 2 or s <= n - 2}
    return _divisor_closed_mu(orders, n, label=f"A{n}")


def omega_metacyclic(m: int, n: int, k: int,
                     cap: int = DEFAULT_GROUP_CAP) -> Spectrum:
    """Spectrum of <a, b | a^n = b^m = 1, a^-1 b a = b^k>, coset by coset.

    Requires k^n = 1 (mod m) for the action to be consistent.  Every element
    is b^i a^j; pushing a-powers to the right gives, with kinv the inverse
    of k mod m and r = n / gcd(n, j), (b^i a^j)^r = b^(i * S_j) where
    S_j = sum_{t<r} kinv^(j t).  So b^i a^j has order r * m / gcd(m, i * S_j),
    which divides the order r * m / gcd(m, S_j) of b a^j: each coset
    contributes one candidate maximal order.
    """
    if m < 1 or n < 1:
        raise ValueError("orders must be positive")
    if pow(k, n, m) != 1 % m:
        raise BadAction(f"k^n = {pow(k, n, m)} (mod {m}), not 1: no such group")
    if m * n > cap:
        raise CapExceeded(f"group order {m * n} exceeds cap {cap}")
    kinv = pow(k, -1, m)
    orders = set()
    for j in range(n):
        r = n // math.gcd(n, j)
        x = pow(kinv, j, m)
        # S_j = (x^r - 1) / (x - 1), exact division done modulo m * (x - 1)
        s = r if x == 1 % m else (pow(x, r, m * (x - 1)) - 1) // (x - 1)
        orders.add(r * m // math.gcd(m, s))
    return maximal_elements(orders, label=f"Z{m}:Z{n} (b->b^{k})")


def psi_f4(e: int) -> frozenset[int]:
    """The five maximal odd-order torus element orders of F4(2^e).

    For q = 2^e these are q^4 - 1, q^4 + 1, q^4 - q^2 + 1, (q-1)(q^3+1) and
    (q+1)(q^3-1).  This is not the full spectrum of F4(q), only its maximal
    odd part.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    q = 2**e
    return frozenset({
        q**4 - 1,
        q**4 + 1,
        q**4 - q**2 + 1,
        (q - 1) * (q**3 + 1),
        (q + 1) * (q**3 - 1),
    })


def mu_psi_f4(e: int) -> Spectrum:
    """psi(F4(2^e)) held as a Spectrum, for mu and omega.

    Only the maximal odd part of the spectrum of F4(2^e), so its prime graph
    is not that of the group.
    """
    return maximal_elements(psi_f4(e), label=f"psi(F4(2^{e}))")
