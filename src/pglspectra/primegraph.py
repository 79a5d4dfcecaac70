"""Prime graphs (Gruenberg-Kegel graphs) built from element-order spectra.

Vertices are the primes dividing some element order; two primes r, s are
adjacent exactly when r*s is itself an element order.  Since the spectrum
is divisor-closed, r*s lies in it iff r*s divides some maximal order, so
adjacency is decided on mu directly and omega is never materialized.
Each maximal order is factored by the pieces its spectrum records
(Spectrum.factorization): for PGL/PSL(2, q) the cyclotomic values Phi_d(p)
that multiply to q -+ 1 (or their halves), never q -+ 1 whole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotPrime
from .numtheory import is_prime
from .spectra import Spectrum


@dataclass(frozen=True)
class PrimeGraph:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]  # pairs (r, s) with r < s

    def is_isolated(self, v: int) -> bool:
        return v in self.vertices and not any(v in e for e in self.edges)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components, ordered: the one containing 2 first (when 2 is
    a vertex), the rest by smallest member ascending."""

    components: tuple[frozenset[int], ...]

    @property
    def t(self) -> int:
        return len(self.components)


def build_graph(s: Spectrum) -> PrimeGraph:
    """The prime graph of a spectrum.

    For primes r != s, r*s divides m iff both r and s do, so the edges are
    the union over m in mu of all pairs of primes of m.  Each m is factored
    by its pieces (Spectrum.factorization), which for the PGL/PSL(2, q) closed
    forms are cyclotomic values Phi_d(p).  Needs the complete factorization
    of every maximal order; an incomplete piece poisons the whole graph
    with FactorizationIncomplete rather than producing a silently partial
    vertex set.
    """
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for m in s.sorted_mu():
        primes = s.factorization(m).require_complete().primes()
        vertices.update(primes)
        edges.update(itertools.combinations(primes, 2))
    return PrimeGraph(frozenset(vertices), frozenset(edges))


def components(g: PrimeGraph) -> ComponentPartition:
    """Connected components by merging the components of each edge's ends,
    in the documented stable order."""
    comp_of = {v: frozenset({v}) for v in g.vertices}
    for r, s in g.edges:
        merged = comp_of[r] | comp_of[s]
        for v in merged:
            comp_of[v] = merged
    comps = sorted(set(comp_of.values()), key=lambda c: (2 not in c, min(c)))
    return ComponentPartition(tuple(comps))


@dataclass(frozen=True)
class ComponentSpectra:
    """mu restricted to each component; tail_singletons[i] says whether the
    (i+2)-nd component carries exactly one maximal order."""

    mu_sets: tuple[frozenset[int], ...]
    tail_singletons: tuple[bool, ...]


def mu_components(s: Spectrum, part: ComponentPartition) -> ComponentSpectra:
    """Split mu by component: mu_i = {m in mu : all primes of m lie in pi_i}.

    The primes of a maximal order are pairwise adjacent, so they all lie in
    one component, found from any one of them.
    """
    index = {v: i for i, comp in enumerate(part.components) for v in comp}
    members: list[set[int]] = [set() for _ in part.components]
    for m in s.mu:
        primes = s.factorization(m).require_complete().primes()
        if primes:
            members[index[primes[0]]].add(m)
    mu_sets = [frozenset(ms) for ms in members]
    return ComponentSpectra(
        mu_sets=tuple(mu_sets),
        tail_singletons=tuple(len(ms) == 1 for ms in mu_sets[1:]),
    )


def is_cpp_candidate(s: Spectrum, p: int) -> bool:
    """Spectrum-level necessary condition for the C_pp property.

    True iff p divides some element order and p is an isolated vertex of
    the prime graph (no element order p*r with r != p).  This does not
    decide the centralizer-theoretic C_pp property itself, only its
    spectrum shadow, hence "candidate".
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not any(m % p == 0 for m in s.mu):
        return False
    return build_graph(s).is_isolated(p)


def to_dot(g: PrimeGraph, part: ComponentPartition, label: str = "") -> str:
    """Render the graph in DOT format, ascending, each vertex with its component."""
    comp_of = {v: idx for idx, comp in enumerate(part.components, start=1)
               for v in comp}
    lines = ["graph primegraph {"]
    if label:
        lines.append(f'  label="{label}";')
    for v in sorted(g.vertices):
        lines.append(f'  "{v}" [component={comp_of[v]}];')
    for r, s in sorted(g.edges):
        lines.append(f'  "{r}" -- "{s}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
