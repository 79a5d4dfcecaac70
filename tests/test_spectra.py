import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglspectra import numtheory as nt
from pglspectra import spectra as sp
from pglspectra.errors import BadAction, CapExceeded, NotPrime


# --- independent oracle: exhaustive permutation enumeration -------------------

def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_order(p):
    identity = tuple(range(len(p)))
    acc, k = p, 1
    while acc != identity:
        acc = _compose(acc, p)
        k += 1
    return k


def _is_even_by_inversions(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


def brute_symmetric_orders(n):
    return {_perm_order(p) for p in itertools.permutations(range(n))}


def brute_alternating_orders(n):
    return {_perm_order(p) for p in itertools.permutations(range(n))
            if _is_even_by_inversions(p)}


# --- independent oracles: partitions and element stepping ---------------------

def partitions(n):
    """Yield the partitions of n as descending lists (iterative, streaming).

    Kelleher's accelerated ascending-composition algorithm; no recursion,
    constant memory per partition.
    """
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield a[k::-1]


def partition_mu(n, alternating=False):
    """mu of S_n (or A_n) from the lcm of every (even) cycle type."""
    orders = {math.lcm(*p) for p in partitions(n)
              if not alternating or (n - len(p)) % 2 == 0}
    return sp.maximal_elements(orders).mu


def metacyclic_mu_by_stepping(m, n, k):
    """mu of Z_m : Z_n (b -> b^k) by stepping every element b^i a^j to 1.

    (b^i a^j)(b^i' a^j') = b^(i + i' * kinv^j) a^(j + j'), kinv = k^-1 mod m.
    """
    kinv = pow(k, -1, m)

    def mul(x, y):
        return (x[0] + y[0] * pow(kinv, x[1], m)) % m, (x[1] + y[1]) % n

    orders = set()
    for g in itertools.product(range(m), range(n)):
        acc, order = g, 1
        while acc != (0, 0):
            acc, order = mul(acc, g), order + 1
        orders.add(order)
    return sp.maximal_elements(orders).mu


# --- Spectrum type -------------------------------------------------------------

def test_spectrum_rejects_non_antichain():
    with pytest.raises(ValueError):
        sp.Spectrum(frozenset({2, 4}))
    with pytest.raises(ValueError):
        sp.Spectrum(frozenset({1, 3}))
    with pytest.raises(ValueError):
        sp.Spectrum(frozenset())
    for mu in (frozenset({0, 3}), frozenset({-2})):
        with pytest.raises(ValueError, match="positive"):
            sp.Spectrum(mu)


def test_spectrum_allows_trivial():
    assert sp.Spectrum(frozenset({1})).sorted_mu() == [1]


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_builders_prove_the_antichain_they_skip_checking(n):
    # maximal_elements and the S_n / A_n builders skip the constructor's
    # pairwise antichain check; the public constructor must accept their mu
    for s in (sp.omega_symmetric(n), sp.omega_alternating(n),
              sp.maximal_elements(range(1, 10 * n))):
        assert sp.Spectrum(s.mu, s.label) == s
    # the cheap checks stay on the private path
    with pytest.raises(ValueError):
        sp.Spectrum._of_antichain(frozenset())
    with pytest.raises(ValueError):
        sp.maximal_elements({-3, 2})


def test_maximal_elements_examples():
    assert sp.maximal_elements({1, 2, 3, 4, 5, 8, 10}).mu == {3, 8, 10}
    assert sp.maximal_elements({1}).mu == {1}
    assert sp.maximal_elements({1, 2, 4}).mu == {4}


def test_omega_closure_examples():
    assert sp.omega_closure(sp.maximal_elements({8, 3, 10})) == [1, 2, 3, 4, 5, 8, 10]
    assert sp.omega_closure(sp.Spectrum(frozenset({1}))) == [1]
    assert sp.omega_closure(sp.maximal_elements({6, 7, 8})) == [1, 2, 3, 4, 6, 7, 8]


def omega_closure_by_set_union(s):
    """The closure as a set union sorted once: the reference for omega_closure."""
    out: set[int] = set()
    for m in s.mu:
        out.update(s.factorization(m).divisors())
    return sorted(out)


@pytest.mark.parametrize("builder, args", [
    ("mu_pgl2", (37, 24)), ("mu_psl2", (37, 24)),
    ("mu_pgl2", (17, 24)), ("mu_psl2", (17, 24)),
    ("mu_pgl2", (73, 20)), ("mu_psl2", (73, 20)),
    ("mu_psl2", (2, 10)), ("mu_pgl2", (3, 1)),
    ("omega_symmetric", (30,)), ("omega_alternating", (30,)),
    ("omega_metacyclic", (5, 8, 2)), ("omega_metacyclic", (91, 12, 10)),
    ("mu_psi_f4", (4,)),
])
def test_omega_closure_matches_set_union(builder, args):
    s = getattr(sp, builder)(*args)
    assert sp.omega_closure(s) == omega_closure_by_set_union(s)


def omega_by_trial_division(orders):
    """Every divisor of every order, each found by trial division, as a sorted
    set: a reference that shares no code with omega_closure."""
    return sorted({d for m in orders for d in range(1, m + 1) if m % d == 0})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6))
def test_omega_closure_matches_trial_division_on_shared_divisors(factors):
    # the products of neighbours share divisors, as 6, 10 and 15 share 2, 3 and 5
    orders = {a * b for a, b in zip(factors, factors[1:] + factors[:1])}
    s = sp.maximal_elements(orders)
    assert sp.omega_closure(s) == omega_by_trial_division(s.mu)


def test_omega_closure_of_an_antichain_sharing_every_prime():
    s = sp.maximal_elements({6, 10, 15})
    assert s.mu == {6, 10, 15}
    assert sp.omega_closure(s) == omega_by_trial_division(s.mu) == [1, 2, 3, 5, 6, 10, 15]


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=12))
def test_mu_omega_round_trip(orders):
    s = sp.maximal_elements(orders)
    closed = sp.omega_closure(s)
    assert sp.maximal_elements(closed).mu == s.mu
    # closure is divisor-closed and contains the original orders
    closed_set = set(closed)
    assert orders <= closed_set
    assert all(d in closed_set for m in closed for d in range(1, m + 1) if m % d == 0)


# --- closed-form families --------------------------------------------------------

def test_mu_pgl2_examples():
    assert sp.mu_pgl2(7, 1).mu == {6, 7, 8}
    assert sp.mu_pgl2(3, 2).mu == {8, 3, 10}
    assert sp.mu_pgl2(7, 4).mu == {2400, 7, 2402}
    assert sp.mu_pgl2(2, 1).mu == {2, 3}


def test_mu_psl2_examples():
    assert sp.mu_psl2(3, 2).mu == {4, 3, 5}
    assert sp.mu_psl2(2, 3).mu == {2, 7, 9}
    assert sp.mu_psl2(5, 1).mu == {2, 5, 3}


def test_pieces_multiply_to_their_orders():
    for p in (2, 3, 5, 7, 13, 17, 19):
        for n in range(1, 17):
            for s in (sp.mu_pgl2(p, n), sp.mu_psl2(p, n)):
                for m in s.mu:
                    assert math.prod(s.pieces_of(m)) == m, (s.label, m)
    # an order without a recorded entry is its own single piece
    assert sp.Spectrum(frozenset({12, 5})).pieces_of(12) == (12,)


def test_pieces_are_cyclotomic_values_and_factor_nothing(monkeypatch):
    def no_factoring(*args, **kwargs):
        raise AssertionError("building a spectrum must not factor")

    cases = [(p, n) for p in (2, 3, 7, 97) for n in (1, 2, 6, 12, 15, 24)]
    with monkeypatch.context() as m:
        m.setattr(nt, "factor", no_factoring)
        built = [(p, n, sp.mu_pgl2(p, n), sp.mu_psl2(p, n)) for p, n in cases]
    for p, n, s, _ in built:
        q = p**n
        assert s.pieces_of(q - 1) == tuple(
            nt.cyclotomic_value(d, p) for d in nt.divisors(n))
        assert s.pieces_of(q + 1) == tuple(
            nt.cyclotomic_value(d, p) for d in nt.divisors(2 * n) if n % d)


def test_spectrum_factorization_by_recorded_pieces():
    s = sp.Spectrum(frozenset({2400, 7}), pieces={2400: (3, 8, 100)})
    assert s.factorization(2400) == nt.factor(2400)
    assert s.factorization(7) == nt.factor(7)


def test_merged_pieces_equal_whole_factorization(monkeypatch):
    # q - 1, q + 1 and both PSL halves, factored whole and by their
    # cyclotomic pieces; each side starts from an empty cache, so neither
    # can just read the other's result back
    cache: dict = {}
    monkeypatch.setattr(nt, "_FACTOR_CACHE", cache)
    for p in (2, 3, 5, 7, 13, 17, 19):
        for n in range(1, 17):
            for s in (sp.mu_pgl2(p, n), sp.mu_psl2(p, n)):
                for m in s.mu - {p}:
                    cache.clear()
                    whole = nt.factor(m)
                    cache.clear()
                    merged = nt.factor_pieces(s.pieces_of(m))
                    assert merged == whole, (s.label, m)
                    assert merged.complete


PAPER_BASES = (2, 3, 5, 7, 13, 17, 19, 37, 73, 97)


def _recorded_pieces():
    """(label, piece) for every piece mu_pgl2/mu_psl2 record, n <= 16."""
    for p in PAPER_BASES:
        for n in range(1, 17):
            for s in (sp.mu_pgl2(p, n), sp.mu_psl2(p, n)):
                for pieces in s.pieces.values():
                    for v in pieces:
                        yield s.label, v


def test_recorded_pieces_satisfy_their_congruence():
    # every prime of a piece Phi_d(p), PSL halves included, divides d or is
    # 1 (mod d); a prime 2 only occurs for d a power of 2
    sympy = pytest.importorskip("sympy")
    for label, v in _recorded_pieces():
        d = v.modulus
        for r in sympy.factorint(int(v)):
            assert d % r == 0 or r % d == 1 % d, (label, d, r)
            assert r != 2 or d & (d - 1) == 0, (label, d)


def test_congruence_path_matches_plain_factor(monkeypatch):
    # the recorded pieces and the stripped Phi_n(a), factored with and
    # without their congruence, each from an empty cache
    cache: dict = {}
    monkeypatch.setattr(nt, "_FACTOR_CACHE", cache)
    congruent = [v for _, v in _recorded_pieces()]
    congruent += [nt._Congruent(nt._stripped_cyclotomic(a, n), n)
                  for a in PAPER_BASES for n in range(1, 17)]
    for v in congruent:
        cache.clear()
        plain = nt.factor(int(v))
        cache.clear()
        assert nt.factor(v) == plain, (int(v), v.modulus)
        assert plain.complete


def test_spectrum_copies_keep_piece_moduli():
    s = sp.mu_pgl2(7, 4)
    for c in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert c == s
        for m, pieces in s.pieces.items():
            assert [v.modulus for v in c.pieces[m]] == [v.modulus for v in pieces]


def test_omega_closure_by_pieces_matches_whole_divisors():
    for p, n in ((7, 4), (13, 3), (2, 6), (3, 5)):
        for s in (sp.mu_pgl2(p, n), sp.mu_psl2(p, n)):
            bare = sp.Spectrum(s.mu, s.label)
            assert not bare.pieces
            assert sp.omega_closure(s) == sp.omega_closure(bare)


def test_mu_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        sp.mu_pgl2(6, 1)
    with pytest.raises(NotPrime):
        sp.mu_psl2(9, 1)


def test_psl_divides_into_pgl():
    for p in (3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            big = sp.mu_pgl2(p, n).mu
            for m in sp.mu_psl2(p, n).mu:
                assert any(mm % m == 0 for mm in big), (p, n, m)


# --- partitions --------------------------------------------------------------------

def test_partition_counts():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, expected in enumerate(known):
        assert sum(1 for _ in partitions(n)) == expected


def test_partitions_are_partitions():
    for n in range(1, 13):
        seen = set()
        for part in partitions(n):
            assert sum(part) == n
            assert sorted(part, reverse=True) == part
            seen.add(tuple(part))
        assert len(seen) == sum(1 for _ in partitions(n))


# --- symmetric / alternating ---------------------------------------------------------

def test_omega_symmetric_small():
    assert sp.omega_symmetric(3).mu == {2, 3}
    assert sp.omega_symmetric(1).mu == {1}


def test_omega_alternating_small():
    assert sp.omega_alternating(5).mu == {2, 3, 5}
    assert sp.omega_alternating(2).mu == {1}


def test_alternating_seven_contains_seven_but_no_multiple():
    omega = set(sp.omega_closure(sp.omega_alternating(7)))
    assert 7 in omega
    assert {m for m in omega if m % 7 == 0} == {7}


def test_partition_spectra_match_permutation_enumeration():
    for n in range(1, 9):
        assert set(sp.omega_closure(sp.omega_symmetric(n))) == brute_symmetric_orders(n), n
        assert set(sp.omega_closure(sp.omega_alternating(n))) == brute_alternating_orders(n), n


def test_alternating_inside_symmetric():
    for n in range(1, 13):
        alt = set(sp.omega_closure(sp.omega_alternating(n)))
        sym = set(sp.omega_closure(sp.omega_symmetric(n)))
        assert alt <= sym


def test_prime_power_rule_matches_partition_lcms():
    for n in range(1, 41):
        assert sp.omega_symmetric(n).mu == partition_mu(n), n
        assert sp.omega_alternating(n).mu == partition_mu(n, alternating=True), n


def test_partition_cap():
    with pytest.raises(CapExceeded):
        sp.omega_symmetric(15, cap=10)
    with pytest.raises(CapExceeded):
        sp.omega_alternating(41)


# --- metacyclic -------------------------------------------------------------------------

def test_metacyclic_witness_examples():
    assert sp.omega_metacyclic(5, 8, 2).mu == {8, 10}
    assert sp.omega_metacyclic(7, 3, 2).mu == {3, 7}
    assert sp.omega_metacyclic(9, 1, 1).mu == {9}
    assert sp.omega_metacyclic(1, 6, 1).mu == {6}


def test_metacyclic_rejects_bad_action():
    with pytest.raises(BadAction):
        sp.omega_metacyclic(5, 3, 2)  # 2^3 = 3 (mod 5)
    with pytest.raises(BadAction):
        sp.omega_metacyclic(9, 2, 3)  # gcd(3, 9) > 1


def test_metacyclic_rejects_an_order_below_1():
    with pytest.raises(ValueError, match="orders must be positive"):
        sp.omega_metacyclic(0, 3, 1)


def test_maximal_elements_of_no_orders_is_rejected():
    with pytest.raises(ValueError, match="empty order set"):
        sp.maximal_elements([])


def test_metacyclic_orders_divide_group_order():
    for m, n in itertools.product((1, 2, 3, 5, 8, 12), (1, 2, 3, 4, 6)):
        for k in range(1, m + 1):
            if math.gcd(k, m) != 1 or pow(k, n, m) != 1 % m:
                continue
            s = sp.omega_metacyclic(m, n, k)
            for order in sp.omega_closure(s):
                assert (m * n) % order == 0, (m, n, k, order)


def test_metacyclic_direct_product_case():
    # k = 1 gives Z_m x Z_n; maximal order is lcm(m, n)
    assert sp.omega_metacyclic(4, 6, 1).mu == {12}
    assert sp.omega_metacyclic(3, 5, 1).mu == {15}


def test_metacyclic_cap():
    with pytest.raises(CapExceeded):
        sp.omega_metacyclic(1000, 1000, 1, cap=1000)


def test_metacyclic_closed_form_matches_element_stepping():
    for m, n in itertools.product(range(1, 31), range(1, 13)):
        for k in range(m):
            if pow(k, n, m) == 1 % m:
                assert sp.omega_metacyclic(m, n, k).mu == \
                    metacyclic_mu_by_stepping(m, n, k), (m, n, k)


# --- F4 odd torus orders ------------------------------------------------------------------

def test_psi_f4_values():
    assert sp.psi_f4(1) == {15, 17, 13, 9, 21}
    assert sp.psi_f4(2) == {255, 257, 241, 195, 315}
    assert 17 in sp.psi_f4(1)  # q^4 + 1 at q = 2, a prime


def test_psi_f4_requires_positive_exponent():
    with pytest.raises(ValueError):
        sp.psi_f4(0)


def psi_f4_by_formulas(e):
    """The five torus orders of F4(2^e) written out: the reference for psi_f4."""
    q = 2**e
    return {q**4 - 1, q**4 + 1, q**4 - q**2 + 1,
            (q - 1) * (q**3 + 1), (q + 1) * (q**3 - 1)}


def test_psi_f4_matches_the_written_out_formulas():
    for e in range(1, 80):
        assert sp.psi_f4(e) == psi_f4_by_formulas(e), e
        assert sp.mu_psi_f4(e).mu == psi_f4_by_formulas(e), e


def test_f4_pieces_are_cyclotomic_and_satisfy_their_congruence():
    # each order's pieces are Phi_d(2) with d / gcd(d, e) in its torus's
    # index set, multiply to the order, and every prime of Phi_d(2)
    # divides d or is 1 (mod d)
    sympy = pytest.importorskip("sympy")
    for e in range(1, 17):
        s = sp.mu_psi_f4(e)
        q = 2**e
        assert s.pieces.keys() == s.mu
        for ms in sp.F4_TORI:
            order = math.prod(int(sympy.cyclotomic_poly(m, q)) for m in ms)
            pieces = s.pieces[order]
            assert math.prod(pieces) == order, (e, ms)
            for v in pieces:
                d = v.modulus
                assert type(v) is nt._Congruent and d // math.gcd(d, e) in ms, (e, ms, d)
                assert v == nt.cyclotomic_value(d, 2), (e, d)
                for r in sympy.factorint(int(v)):
                    assert d % r == 0 or r % d == 1, (e, d, r)


def test_omega_f4psi_factors_only_congruent_pieces(monkeypatch, capsys):
    from pglspectra import cli
    passed = []
    real = nt.factor

    def recording_factor(n):
        passed.append(n)
        return real(n)

    monkeypatch.setattr(nt, "factor", recording_factor)
    for e in range(1, 25):
        passed.clear()
        assert cli.main(["omega", "f4psi", str(e)]) == 0, e
        capsys.readouterr()
        assert passed and all(type(n) is nt._Congruent for n in passed), e


def test_omega_f4psi_31_completes(capsys):
    # the torus Phi_12(2^31) has the piece Phi_372(2), whose two large
    # primes rho on x^372 + c does not split within the default budget;
    # Aurifeuille's factors of 2^186 + 1 separate them
    from pglspectra import cli
    for argv in (["omega", "f4psi", "31"], ["--json", "omega", "f4psi", "31"]):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert sp.mu_psi_f4(31).factorization((2**31) ** 4 - 2**62 + 1).complete


def test_each_closed_form_takes_one_cyclotomic_pieces_call(monkeypatch):
    # building a spectrum takes one call; psi(F4)'s pieces Phi_d(2), built
    # on the first read of pieces, take one more
    calls = []
    real = nt._cyclotomic_pieces

    def counting(a, m):
        calls.append((a, m))
        return real(a, m)

    monkeypatch.setattr(nt, "_cyclotomic_pieces", counting)
    for build, args, built, read in ((sp.mu_pgl2, (7, 6), [(7, 12)], []),
                                     (sp.mu_psl2, (3, 5), [(3, 10)], []),
                                     (sp.mu_psi_f4, (5,), [(2**13, 24)], [(2, 120)])):
        calls.clear()
        s = build(*args)
        assert calls == built, build.__name__
        calls.clear()
        assert s.pieces is s.pieces
        assert calls == read, build.__name__


def test_mu_f4psi_at_large_e_divides_nothing_of_qs_size(monkeypatch):
    # the orders come from Phi_m(2^13), m | 24, and no Phi_d(2) is built
    # until the pieces are read
    e = 100_000
    calls = []
    real = nt._cyclotomic_pieces

    def recording(a, m):
        calls.append((a, m))
        return real(a, m)

    monkeypatch.setattr(nt, "_cyclotomic_pieces", recording)
    s = sp.mu_psi_f4(e)
    assert calls == [(2**13, 24)]
    assert s.mu == psi_f4_by_formulas(e)


def test_f4_pieces_survive_copies_unread():
    s = sp.mu_psi_f4(6)
    for c in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert c == s and c.label == s.label
        assert c.pieces == s.pieces
        assert [v.modulus for v in c.pieces[2**24 + 1]] == [16, 48]
