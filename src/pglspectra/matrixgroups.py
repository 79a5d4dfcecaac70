"""Explicit GF(p^n) arithmetic and 2x2 matrix-group spectra by conjugacy class.

This is the independent oracle for the closed-form spectra: fields are
built from an explicit irreducible modulus and computed in by Zech
logarithms, and element orders are found by stepping in the field from one
companion matrix per orbit of conjugacy classes under scaling by nonzero
field elements, about q Lucas sequences for GL(2, q) and PGL(2, q); the
linear orders of the scaled classes are read from logs.  Nothing here knows
the q-1 / p / q+1 formulas.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import CapExceeded, NotPrime
from .numtheory import is_prime
from .spectra import maximal_elements

DEFAULT_FIELD_DEGREE_CAP = 4
DEFAULT_FIELD_SIZE_CAP = 10**4
DEFAULT_ENUM_CAP = 32
DEFAULT_CLOSURE_CAP = 100_000
_BINOCT_TRIALS = 20_000  # generator pairs find_binary_octahedral_subgroup tries

FAMILIES = ("GL2", "SL2", "PGL2", "PSL2")


# ---------------------------------------------------------------------------
# polynomials over GF(p), coefficient lists with the constant term first

def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    num = num[:]
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    while len(num) - 1 >= dn and num:
        shift = len(num) - 1 - dn
        scale = num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - scale * c) % p
        _poly_trim(num)
        if not num:
            break
    return num


def _poly_mul(x: list[int], y: list[int], p: int) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] = (out[i + j] + xi * yj) % p
    return _poly_trim(out)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # monic of degree n; reducible iff it has a monic divisor of degree <= n/2
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            cand = list(tail) + [1]
            if not _poly_mod(list(poly), cand, p):
                return False
    return True


class FieldCtx:
    """An explicit finite field GF(p^n), immutable after construction.

    Elements are integers in [0, p^n) encoding coefficient vectors in base p
    with the constant term as the least significant digit.  The modulus is
    the lexicographically least monic irreducible polynomial of degree n
    (coefficients compared constant-term first).  Arithmetic goes by logs
    to a primitive element g: g^i + g^j = g^(i + zech[j - i]).
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus
        self.q = p**n
        self._pow_p = [p**i for i in range(n)]
        exp, self._log, self._zech = self.tables()
        # g^k for 0 <= k < 2(q-1): a sum of two logs indexes it unreduced
        self._exp = exp + exp
        # -1 = g^((q-1)/2), or 1 in characteristic 2
        self._log_minus_one = 0 if p == 2 else (self.q - 1) // 2

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.n}), modulus={list(self.modulus)})"

    def encode(self, coeffs) -> int:
        return sum(c % self.p * w for c, w in zip(coeffs, self._pow_p))

    def decode(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def add(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return x or y
        i = self._log[x]
        z = self._zech[self._log[y] - i]  # a negative index wraps mod q - 1
        return 0 if z is None else self._exp[i + z]

    def neg(self, x: int) -> int:
        if x == 0:
            return 0
        return self._exp[self._log[x] + self._log_minus_one]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def _mul_slow(self, x: int, y: int) -> int:
        prod = _poly_mul(list(self.decode(x)), list(self.decode(y)), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        return self.encode(rem + [0] * (self.n - len(rem)))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[-self._log[x]]

    def elements(self):
        return range(self.q)

    def tables(self) -> tuple[list[int], list[int | None], list[int | None]]:
        """(exp, log, zech): exp[k] = g^k, log[g^k] = k and zech[k] = log(1 + g^k)
        for 0 <= k < q - 1, with None for the log of 0.  g is the first of
        1, 2, ... whose powers, stepped with the polynomial product, reach 1
        only after q - 1 steps.
        """
        q, p = self.q, self.p
        for g in range(1, q):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._mul_slow(x, g)
            if len(exp) == q - 1:
                break
        log: list[int | None] = [None] * q
        for k, x in enumerate(exp):
            log[x] = k
        # adding 1 changes only the constant digit
        zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp]
        return exp, log, zech


def field_ctx(p: int, n: int, degree_cap: int = DEFAULT_FIELD_DEGREE_CAP,
              size_cap: int = DEFAULT_FIELD_SIZE_CAP) -> FieldCtx:
    """Build GF(p^n) with the least monic irreducible modulus.

    Candidates are compared by their descending-degree coefficient sequence
    (so GF(8) gets x^3 + x + 1, not x^3 + x^2 + 1); the stored coefficient
    vector is constant-term first.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1 or n > degree_cap or p**n > size_cap:
        raise CapExceeded(f"GF({p}^{n}) outside caps (degree {degree_cap}, size {size_cap})")
    for high_to_low in product(range(p), repeat=n):
        cand = tuple(reversed(high_to_low)) + (1,)
        if _is_irreducible(cand, p):
            return FieldCtx(p, n, cand)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# 2x2 matrices as 4-tuples (a, b, c, d) of encoded field elements

MAT_IDENTITY = (1, 0, 0, 1)


def mat_mul(x, y, ctx: FieldCtx):
    a, b, c, d = x
    e, f, g, h = y
    return (
        ctx.add(ctx.mul(a, e), ctx.mul(b, g)),
        ctx.add(ctx.mul(a, f), ctx.mul(b, h)),
        ctx.add(ctx.mul(c, e), ctx.mul(d, g)),
        ctx.add(ctx.mul(c, f), ctx.mul(d, h)),
    )


def mat_det(x, ctx: FieldCtx):
    a, b, c, d = x
    return ctx.sub(ctx.mul(a, d), ctx.mul(b, c))


def linear_order(x, ctx: FieldCtx) -> int:
    """Least k >= 1 with x^k the identity matrix."""
    acc, k = x, 1
    while acc != MAT_IDENTITY:
        acc = mat_mul(acc, x, ctx)
        k += 1
    return k


# ---------------------------------------------------------------------------
# spectra from conjugacy-class representatives

def _companion_power(t: int, d: int, ctx: FieldCtx) -> tuple[int, int]:
    """(k, lam): the least k >= 1 with C^k = lam * I, for C = [[0, -d], [1, t]].

    By Cayley-Hamilton C^k = U_k C - d U_{k-1} I, where U_0 = 0, U_1 = 1 and
    U_{k+1} = t U_k - d U_{k-1}; C is not scalar, so k is the first zero of U.
    """
    minus_d = ctx.neg(d)
    prev, cur, k = 0, 1, 1
    while cur != 0:
        prev, cur = cur, ctx.add(ctx.mul(t, cur), ctx.mul(minus_d, prev))
        k += 1
    return k, ctx.mul(minus_d, prev)


def _class_orders(family: str, ctx: FieldCtx) -> set[int]:
    """Every element order of the family over ctx, not only the maximal ones.

    One Lucas sequence per orbit representative, as omega_bruteforce says.
    """
    q = ctx.q
    if family in ("SL2", "PSL2"):
        scalars = {1, ctx.neg(1)}
        reps = [(t, 1) for t in range(q)]
    else:
        scalars = range(1, q)
        reps = [(1, d) for d in range(1, q)] + [(0, 1)]
        if q % 2:
            reps.append((0, ctx._exp[1]))
    powers = {_companion_power(t, d, ctx) for t, d in reps}
    if family in ("PGL2", "PSL2"):
        return {1} | {k for k, _ in powers}
    log = ctx._log
    orders = {(q - 1) // gcd(q - 1, log[a]) for a in scalars}
    if family == "SL2":
        return orders | {k * ((q - 1) // gcd(q - 1, log[lam])) for k, lam in powers}
    for k, lam in powers:
        orders.update(k * ((q - 1) // gcd(q - 1, j * k + log[lam])) for j in range(q - 1))
    return orders


def omega_bruteforce(family: str, p: int, n: int,
                     cap: int = DEFAULT_ENUM_CAP):
    """Spectrum of GL/SL/PGL/PSL(2, p^n) from one matrix per scaling orbit.

    Order is a class function, and a non-scalar 2x2 matrix is conjugate to
    the companion matrix C of its characteristic polynomial x^2 - t x + d.
    Where C^k = lam * I first, the projective order is k and the linear one
    k * ord(lam).  Scaling by c != 0 maps the class of C(t, d) to that of
    C(c t, c^2 d), with the same projective order k, and (cC)^k = c^k lam I.
    Every (t, d), d != 0, has one of these in its orbit: (1, d) for d != 0
    (take c = 1/t), (0, 1), or (0, g) for the primitive element g, a
    non-square, when q is odd.  So GL2 and PGL2 step about q sequences
    instead of q^2: PGL2 takes each k, and GL2 takes k * ord(c^k lam) for
    every c = g^j, read from logs as (q-1)/gcd(q-1, j k + log lam).  Only
    c = +-1 keeps d = 1, so SL2 and PSL2 step (t, 1) for all t.  The
    scalars aI, with a^2 = 1 for SL2 and PSL2, have linear order ord(a) and
    projective order 1; PSL2 takes projective orders of SL(2, q).  No
    formula in q is used, so the result checks the closed forms in spectra.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    q = p**n
    if q > cap:
        raise CapExceeded(f"q={q} exceeds enumeration cap {cap}")
    ctx = field_ctx(p, n, degree_cap=n, size_cap=q)
    label = {"GL2": f"GL(2,{q})", "SL2": f"SL(2,{q})",
             "PGL2": f"PGL(2,{q})", "PSL2": f"PSL(2,{q})"}[family]
    return maximal_elements(_class_orders(family, ctx), label=f"{label} enumerated")


def enumerate_sl2(ctx: FieldCtx) -> list[tuple[int, int, int, int]]:
    """All determinant-1 matrices over the field, in lexicographic order.

    ad - bc = 1 fixes d = (1 + bc)/a when a != 0, and c = -1/b when a = 0.
    """
    q = ctx.q
    out = [(0, b, ctx.neg(ctx.inv(b)), d) for b in range(1, q) for d in range(q)]
    for a in range(1, q):
        inv_a = ctx.inv(a)
        out += [(a, b, c, ctx.mul(ctx.add(1, ctx.mul(b, c)), inv_a))
                for b in range(q) for c in range(q)]
    return out


# ---------------------------------------------------------------------------
# generator closure

def subgroup_closure(gens, ctx: FieldCtx, cap: int = DEFAULT_CLOSURE_CAP) -> list:
    """Breadth-first closure under multiplication of 2x2 entry 4-tuples.

    Returns the subgroup elements in deterministic BFS order, identity
    first; raises CapExceeded if the closure grows past cap.
    """
    seen = {MAT_IDENTITY}
    order = [MAT_IDENTITY]
    for current in order:  # order grows while it is read: a FIFO queue
        for g in gens:
            nxt = mat_mul(current, g, ctx)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                seen.add(nxt)
                order.append(nxt)
    return order


@dataclass(frozen=True)
class SubgroupWitness:
    """A subgroup found by search: its generators, elements and order census."""

    generators: tuple
    elements: tuple
    order_counts: tuple[tuple[int, int], ...]  # (element order, multiplicity)

    @property
    def order_set(self) -> frozenset[int]:
        return frozenset(o for o, _ in self.order_counts)


def find_binary_octahedral_subgroup(seed: int = 0) -> SubgroupWitness:
    """Search SL(2,7) for a 48-element subgroup with orders {1,2,3,4,6,8}.

    Seeded random generator pairs are closed under multiplication (aborting
    as soon as a closure passes 48 elements) until one yields a subgroup of
    size 48 whose element-order set is {1,2,3,4,6,8} with a single
    involution, i.e. a quaternion Sylow 2-subgroup.  Deterministic for a
    fixed seed.
    """
    ctx = field_ctx(7, 1)
    sl2 = enumerate_sl2(ctx)
    rng = random.Random(f"binoct:{seed}")
    for _ in range(_BINOCT_TRIALS):
        x = sl2[rng.randrange(len(sl2))]
        y = sl2[rng.randrange(len(sl2))]
        try:
            closure = subgroup_closure([x, y], ctx, cap=48)
        except CapExceeded:
            continue
        if len(closure) != 48:
            continue
        census = Counter(linear_order(g, ctx) for g in closure)
        if set(census) == {1, 2, 3, 4, 6, 8} and census[2] == 1:
            return SubgroupWitness(
                generators=(x, y),
                elements=tuple(closure),
                order_counts=tuple(sorted(census.items())),
            )
    raise RuntimeError(f"no 48-element witness found in {_BINOCT_TRIALS} trials")
