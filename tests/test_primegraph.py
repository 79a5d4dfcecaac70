import random

import pytest

from pglspectra import numtheory as nt
from pglspectra import primegraph as pgr
from pglspectra import spectra as sp
from pglspectra.errors import FactorizationIncomplete, NotPrime


def test_build_graph_pgl2_7():
    g = pgr.build_graph(sp.mu_pgl2(7, 1))
    assert g.vertices == {2, 3, 7}
    assert g.edges == {(2, 3)}
    assert g.is_isolated(7)


def test_build_graph_single_prime():
    g = pgr.build_graph(sp.Spectrum(frozenset({13})))
    assert g.vertices == {13}
    assert g.edges == frozenset()


def test_build_graph_pgl2_7_4():
    g = pgr.build_graph(sp.mu_pgl2(7, 4))
    assert g.vertices == {2, 3, 5, 7, 1201}
    assert g.edges == {(2, 3), (2, 5), (3, 5), (2, 1201)}
    assert g.is_isolated(7)


def test_components_examples():
    part = pgr.components(pgr.build_graph(sp.mu_pgl2(7, 4)))
    assert part.t == 2
    assert part.components[0] == {2, 3, 5, 1201}
    assert part.components[1] == {7}

    single = pgr.components(pgr.build_graph(sp.Spectrum(frozenset({5}))))
    assert single.t == 1

    l29 = pgr.components(pgr.build_graph(sp.mu_psl2(3, 2)))
    assert l29.t == 3
    assert [sorted(c) for c in l29.components] == [[2], [3], [5]]


def test_component_ordering_two_first_then_smallest():
    # spectrum {35, 11, 13*17} has components {5,7}, {11}, {13,17}; no vertex 2
    s = sp.maximal_elements({35, 11, 221})
    part = pgr.components(pgr.build_graph(s))
    assert [sorted(c) for c in part.components] == [[5, 7], [11], [13, 17]]
    # adding an order 6 brings {2, 3} to the front
    s2 = sp.maximal_elements({35, 11, 221, 6})
    part2 = pgr.components(pgr.build_graph(s2))
    assert sorted(part2.components[0]) == [2, 3]


def test_mu_components_examples():
    s = sp.mu_pgl2(7, 4)
    part = pgr.components(pgr.build_graph(s))
    mc = pgr.mu_components(s, part)
    assert mc.mu_sets == (frozenset({2400, 2402}), frozenset({7}))
    assert mc.tail_singletons == (True,)

    s9 = sp.mu_pgl2(3, 2)
    part9 = pgr.components(pgr.build_graph(s9))
    mc9 = pgr.mu_components(s9, part9)
    assert mc9.mu_sets == (frozenset({8, 10}), frozenset({3}))

    trivial = sp.Spectrum(frozenset({7}))
    mct = pgr.mu_components(trivial, pgr.components(pgr.build_graph(trivial)))
    assert mct.mu_sets == (frozenset({7}),)
    assert mct.tail_singletons == ()


def test_is_cpp_candidate():
    assert pgr.is_cpp_candidate(sp.mu_pgl2(7, 2), 7)
    assert pgr.is_cpp_candidate(sp.maximal_elements({2, 3}), 3)
    assert not pgr.is_cpp_candidate(sp.maximal_elements({6, 7, 8}), 3)
    assert not pgr.is_cpp_candidate(sp.maximal_elements({2, 3}), 5)  # 5 divides nothing
    with pytest.raises(NotPrime):
        pgr.is_cpp_candidate(sp.maximal_elements({2, 3}), 4)


def test_adjacency_soundness_random_spectra():
    rng = random.Random(5)
    for _ in range(40):
        orders = {rng.randrange(1, 600) for _ in range(rng.randrange(1, 7))}
        s = sp.maximal_elements(orders)
        g = pgr.build_graph(s)
        omega = set(sp.omega_closure(s))
        verts = sorted(g.vertices)
        for i, r in enumerate(verts):
            for t in verts[i + 1:]:
                assert (((r, t) in g.edges) == (r * t in omega)), (orders, r, t)


def test_pgl2_component_structure_small_grid():
    for p in (3, 5, 7, 11, 13):
        for n in (2, 3, 4):
            part = pgr.components(pgr.build_graph(sp.mu_pgl2(p, n)))
            assert part.t == 2, (p, n)
            assert part.components[1] == {p}
            expected = set(nt.factor(p**(2 * n) - 1).require_complete().primes())
            assert part.components[0] == expected


def test_component_ordering_deterministic():
    s = sp.mu_pgl2(73, 4)
    parts = [pgr.components(pgr.build_graph(s)) for _ in range(3)]
    assert parts[0] == parts[1] == parts[2]


# A spectrum containing an unfactorable-within-budget order must poison the
# graph loudly rather than omit vertices.
def test_build_graph_incomplete_budget():
    hard = 999999999999989 * 999998999999977
    s = sp.Spectrum(frozenset({hard}))
    nt.configure(budget=200)
    try:
        with pytest.raises(FactorizationIncomplete):
            pgr.build_graph(s)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_build_graph_incomplete_cyclotomic_piece(monkeypatch):
    # 3^37 - 1 = 2 * Phi_37(3) and Phi_37(3) = 13097927 * 17189128703, which
    # rho cannot split in 200 iterations: the stuck piece poisons the graph
    # and no factorization of 3^37 - 1 whole is tried in its place
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    s = sp.mu_pgl2(3, 37)
    nt.configure(budget=200)
    try:
        with pytest.raises(FactorizationIncomplete) as info:
            pgr.build_graph(s)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    partial = info.value.partial
    assert partial.base_n == 3**37 - 1
    assert partial.factors == ((2, 1),)
    assert partial.cofactor == 13097927 * 17189128703


def test_to_dot_stable_output():
    s = sp.mu_pgl2(7, 1)
    g = pgr.build_graph(s)
    part = pgr.components(g)
    dot = pgr.to_dot(g, part, label=s.label)
    assert dot == (
        'graph primegraph {\n'
        '  label="PGL(2,7)";\n'
        '  "2" [component=1];\n'
        '  "3" [component=1];\n'
        '  "7" [component=2];\n'
        '  "2" -- "3";\n'
        '}\n'
    )
