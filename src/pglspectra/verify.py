"""Reference data and batch checkers.

The tables embedded here are golden *inputs* to a differ, never trusted
outputs: every checker recomputes the arithmetic from scratch and reports
agreement or discrepancy.  Known misprints in the reference data live in
KNOWN_ERRATA; a checker that finds exactly a documented discrepancy still
counts the run as passing (the erratum is reported, not patched), while an
undocumented discrepancy, or a documented one that fails to show up, fails
the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotCppPrime, NotPrime
from .numtheory import (FAMILY_EXCEPTIONAL, FAMILY_UNCLASSIFIED, Factorization,
                        catalan_solutions, is_prime, multiplicative_order,
                        ppd_exists_above, primitive_prime_divisors)
from .primegraph import build_graph, components
from .spectra import mu_pgl2

# ---------------------------------------------------------------------------
# reference table: primitive prime divisors of p^n - 1 for p in {7, 13, 17},
# 2 <= n <= 19 (the (7, 2) cell is genuinely empty: 7 + 1 is a power of two)

PPD_TABLE: dict[tuple[int, int], frozenset[int]] = {
    (7, 2): frozenset(), (13, 2): frozenset({7}), (17, 2): frozenset({3}),
    (7, 3): frozenset({19}), (13, 3): frozenset({61}), (17, 3): frozenset({307}),
    (7, 4): frozenset({5}), (13, 4): frozenset({5, 17}), (17, 4): frozenset({5, 29}),
    (7, 5): frozenset({2801}), (13, 5): frozenset({30941}), (17, 5): frozenset({88741}),
    (7, 6): frozenset({43}), (13, 6): frozenset({157}), (17, 6): frozenset({7, 13}),
    (7, 7): frozenset({29, 4733}), (13, 7): frozenset({5229043}),
    (17, 7): frozenset({25646167}),
    (7, 8): frozenset({1201}), (13, 8): frozenset({14281}), (17, 8): frozenset({41761}),
    (7, 9): frozenset({37, 1063}), (13, 9): frozenset({1609669}),
    (17, 9): frozenset({19, 1270657}),
    (7, 10): frozenset({11, 191}), (13, 10): frozenset({11, 2411}),
    (17, 10): frozenset({11, 71, 101}),
    (7, 11): frozenset({1123, 293459}), (13, 11): frozenset({23, 419, 859, 18041}),
    (17, 11): frozenset({2141993519227}),
    (7, 12): frozenset({13, 181}), (13, 12): frozenset({28393}),
    (17, 12): frozenset({83233}),
    (7, 13): frozenset({16148168401}), (13, 13): frozenset({53, 264031, 1803647}),
    (17, 13): frozenset({212057, 2919196853}),
    (7, 14): frozenset({113, 911}), (13, 14): frozenset({29, 22079}),
    (17, 14): frozenset({22796593}),
    (7, 15): frozenset({31, 159871}), (13, 15): frozenset({4651, 161971}),
    (17, 15): frozenset({6566760001}),
    (7, 16): frozenset({17, 169553}), (13, 16): frozenset({407865361}),
    (17, 16): frozenset({18913, 184417}),
    (7, 17): frozenset({14009, 2767631689}),
    (13, 17): frozenset({103, 443, 15798461357509}),
    (17, 17): frozenset({10949, 1749233, 2699538733}),
    (7, 18): frozenset({117307}), (13, 18): frozenset({19, 271, 937}),
    (17, 18): frozenset({1423, 5653}),
    (7, 19): frozenset({419, 4534166740403}),
    (13, 19): frozenset({12865927, 9468940004449}),
    (17, 19): frozenset({229, 1103, 202607147, 291973723}),
}

# rows (p, m, q): the claim is that every n >= m admits a primitive prime
# divisor of p^n - 1 exceeding q
PPD_THRESHOLD_ROWS: tuple[tuple[int, int, int], ...] = (
    (7, 5, 13),
    (13, 5, 19),
    (17, 4, 19),
    (19, 7, 37),
    (37, 7, 109),
    (73, 5, 127),
)


@dataclass(frozen=True)
class CaseFactorization:
    """A printed factorization pair for p^n -+ 1 from the reference data."""

    p: int
    n: int
    printed_minus: tuple[tuple[int, int], ...]
    printed_plus: tuple[tuple[int, int], ...]


CASE_FACTORIZATIONS: tuple[CaseFactorization, ...] = (
    CaseFactorization(7, 2, ((2, 4), (3, 1)), ((2, 1), (5, 2))),
    CaseFactorization(7, 3, ((2, 1), (3, 2), (19, 1)), ((2, 3), (43, 1))),
    CaseFactorization(7, 4, ((2, 5), (3, 1), (5, 2)), ((2, 1), (1201, 1))),
    CaseFactorization(13, 3, ((2, 2), (3, 2), (61, 1)), ((2, 1), (7, 1), (157, 1))),
    CaseFactorization(13, 4, ((2, 4), (3, 1), (5, 1), (7, 1), (17, 1)),
                      ((2, 1), (14281, 1))),
    CaseFactorization(19, 3, ((2, 1), (3, 3), (127, 1)), ((2, 2), (5, 1), (7, 3))),
    CaseFactorization(19, 6, ((2, 3), (3, 3), (5, 1), (7, 1), (127, 1)),
                      ((2, 1), (13, 2), (181, 1), (769, 1))),
    CaseFactorization(73, 2, ((2, 4), (3, 2), (37, 1)), ((2, 1), (5, 1), (13, 1), (41, 1))),
    CaseFactorization(73, 3, ((2, 3), (3, 3), (1801, 1)), ((2, 1), (7, 1), (37, 1), (751, 1))),
    CaseFactorization(73, 4, ((2, 5), (3, 2), (5, 1), (13, 1), (37, 1), (41, 1)),
                      ((2, 1), (14199121, 1))),
)

# Misprints and false instances in the reference data, found by recomputing.
# Keyed by checker-specific tuples; each checker knows its own key shape.
KNOWN_ERRATA: dict[tuple, str] = {
    ("case", 19, 6, "minus"):
        "printed exponent of 7 is 1, recomputation gives 3 "
        "(19^6 - 1 = 47045880 = 2^3*3^3*5*7^3*127); prime sets agree",
    ("ppd_above", 17, 4, 19, 6):
        "the threshold claim fails at n = 6: the primitive prime divisors "
        "of 17^6 - 1 are 7 and 13 (see the bundled ppd table), so none "
        "exceeds 19",
}

# component-structure battery used by `verify all` and the acceptance suite
COMPONENT_PAIRS: tuple[tuple[int, int], ...] = (
    (7, 2), (7, 3), (7, 4), (13, 3), (13, 4),
    (19, 3), (37, 2), (73, 2), (73, 3), (73, 4),
)


# ---------------------------------------------------------------------------
# C_pp reference table

@dataclass(frozen=True)
class CppGroupDescriptor:
    """One simple-group entry of a C_pp table row: family plus the printed
    parameter constraint (empty for sporadic groups)."""

    family: str
    parameter: str = ""

    def __str__(self):
        return f"{self.family}({self.parameter})" if self.parameter else self.family


def _g(family: str, parameter: str = "") -> CppGroupDescriptor:
    return CppGroupDescriptor(family, parameter)


CPP_TABLE_FIXED: dict[int, tuple[CppGroupDescriptor, ...]] = {
    2: (_g("A", "5"), _g("A", "6"),
        _g("L2", "q a Fermat prime, a Mersenne prime, or q=2^m, m>=3"),
        _g("L3", "2^2"), _g("Sz", "2^(2m+1), m>=1")),
    3: (_g("A", "5"), _g("A", "6"),
        _g("L2", "q=2^3, 3^m, or 2*3^m+-1 a prime, m>=1"),
        _g("L3", "2^2")),
    5: (_g("A", "5"), _g("A", "6"), _g("A", "7"), _g("M11"), _g("M22"),
        _g("L2", "q=7^2, 5^m, or 2*5^m+-1 a prime, m>=1"),
        _g("L3", "2^2"), _g("S4", "3"), _g("S4", "7"), _g("U4", "3"),
        _g("Sz", "2^3"), _g("Sz", "2^5")),
    7: (_g("A", "7"), _g("A", "8"), _g("A", "9"), _g("M22"), _g("J1"),
        _g("J2"), _g("HS"),
        _g("L2", "q=2^3, 7^m, or 2*7^m-1 a prime, m>=1"),
        _g("L3", "2^2"), _g("S6", "2"), _g("O8+", "2"), _g("G2", "3"),
        _g("G2", "19"), _g("U3", "3"), _g("U3", "5"), _g("U3", "19"),
        _g("U4", "3"), _g("U6", "2"), _g("Sz", "2^3")),
    13: (_g("A", "13"), _g("A", "14"), _g("A", "15"), _g("Suz"), _g("Fi22"),
         _g("L2", "q=3^3, 5^2, 13^m, or 2*13^m-1 a prime, m>=1"),
         _g("L3", "3"), _g("L4", "3"), _g("O7", "3"), _g("S4", "5"),
         _g("S6", "3"), _g("O8+", "3"), _g("G2", "2^2"), _g("G2", "3"),
         _g("F4", "2"), _g("U3", "2^2"), _g("U3", "23"), _g("Sz", "2^3"),
         _g("3D4", "2"), _g("2E6", "2"), _g("2F4", "2'")),
    17: (_g("A", "17"), _g("A", "18"), _g("A", "19"), _g("J3"), _g("He"),
         _g("Fi23"), _g("Fi24'"),
         _g("L2", "q=2^4, 17^m, or 2*17^m+-1 a prime, m>=1"),
         _g("S4", "4"), _g("S8", "2"), _g("F4", "2"), _g("O8-", "2"),
         _g("O10-", "2"), _g("2E6", "2")),
    19: (_g("A", "19"), _g("A", "20"), _g("A", "21"), _g("J1"), _g("J3"),
         _g("O'N"), _g("Th"), _g("HN"),
         _g("L2", "q=19^m or 2*19^m-1 a prime, m>=1"),
         _g("L3", "7"), _g("U3", "2^3"), _g("R", "3^3"), _g("2E6", "2")),
    37: (_g("A", "37"), _g("A", "38"), _g("A", "39"), _g("J4"), _g("Ly"),
         _g("L2", "q=37^m or 2*37^m-1 a prime, m>=1"),
         _g("U3", "11"), _g("R", "3^3"), _g("2F4", "2^3")),
    73: (_g("A", "73"), _g("A", "74"), _g("A", "75"),
         _g("L2", "q=73^m or 2*73^m-1 a prime, m>=1"),
         _g("L3", "2^3"), _g("S6", "2^3"), _g("G2", "2^3"), _g("G2", "3^2"),
         _g("F4", "3"), _g("E6", "2"), _g("E7", "2"), _g("U3", "3^2"),
         _g("3D4", "3")),
    109: (_g("A", "109"), _g("A", "110"), _g("A", "111"),
          _g("L2", "q=109^m or 2*109^m-1 a prime, m>=1"),
          _g("2F4", "2^3")),
}


def _fermat_row(p: int, s: int) -> tuple[CppGroupDescriptor, ...]:
    return (
        _g("A", str(p)), _g("A", str(p + 1)), _g("A", str(p + 2)),
        _g("L2", f"q=2^{2**s}, {p}^k, or 2*{p}^k+-1 a prime, k>=1"),
        _g("S", f"a(2^b), a=2^(c+1), b=2^d, c>=1, c+d={s}"),
        _g("F4", f"2^e, e>=1, 4e=2^{s}"),
        _g("O-", f"{2 * (2**s + 1)}(2), needs s>=2 (here s={s})"),
        _g("O-", f"a(2^b), a=2^(c+1), b=2^d, c>=2, c+d={s}"),
    )


def _other_row(p: int) -> tuple[CppGroupDescriptor, ...]:
    return (
        _g("A", str(p)), _g("A", str(p + 1)), _g("A", str(p + 2)),
        _g("L2", f"q={p}^m or 2*{p}^m-1 a prime, m>=1"),
    )


def table2_lookup(p: int) -> tuple[CppGroupDescriptor, ...]:
    """The C_pp row for a prime p = 2^a * 3^b + 1.

    Fixed rows exist for p in {2, 3, 5, 7, 13, 17, 19, 37, 73, 109}; other
    Fermat primes 2^(2^s) + 1 get the parametric row; every remaining prime
    of the right form gets the generic row.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    rest = p - 1
    for r in (2, 3):
        while rest % r == 0:
            rest //= r
    if rest != 1:
        raise NotCppPrime(f"{p} - 1 has a prime factor other than 2 and 3")
    if p in CPP_TABLE_FIXED:
        return CPP_TABLE_FIXED[p]
    m = p - 1  # now p = 2^a 3^b + 1 with b = 0 iff m is a power of two
    if m & (m - 1) == 0:
        exponent = m.bit_length() - 1
        if exponent & (exponent - 1) == 0:  # p is a Fermat prime 2^(2^s)+1
            return _fermat_row(p, exponent.bit_length() - 1)
    return _other_row(p)


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""
    erratum: bool = False  # a documented reference-data discrepancy showed up


@dataclass
class Report:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def errata(self) -> list[CheckItem]:
        return [item for item in self.items if item.erratum]

    def lines(self) -> list[str]:
        out = [f"[{'ok' if self.ok else 'FAIL'}] {self.title}"]
        for item in self.items:
            status = "pass" if item.passed else "FAIL"
            if item.erratum:
                status += " (documented erratum)"
            line = f"  {status}: {item.name}"
            if item.detail:
                line += f" -- {item.detail}"
            out.append(line)
        return out

    def to_payload(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "items": [
                {"name": it.name, "passed": it.passed, "detail": it.detail,
                 "erratum": it.erratum}
                for it in self.items
            ],
        }


def _fmt(pairs) -> str:
    return str(Factorization(0, tuple(pairs))) if pairs else "1"


# ---------------------------------------------------------------------------
# checkers

DEFAULT_N_MAX = 60  # the lemma1 rows are checked for n up to this
DEFAULT_VALUE_BOUND = 10**6  # lemma2 enumerates p^m = q^n + 1 up to this

def verify_table1() -> Report:
    """Recompute all 54 cells of the bundled primitive-prime-divisor table.

    The embedded data is first self-checked: every expected entry s must be
    prime, and p must have multiplicative order exactly n modulo s (which is
    equivalent to s being a primitive prime divisor of p^n - 1).  Each cell
    is then recomputed by factoring Phi_n(p) with the primes of n stripped
    (primitive_prime_divisors) and compared as a set.
    """
    report = Report("table1: primitive prime divisors for p in {7,13,17}, n in 2..19")
    bad = []
    for (p, n), expected in sorted(PPD_TABLE.items()):
        for s in expected:
            if not is_prime(s) or multiplicative_order(p, s) != n:
                bad.append((p, n, s))
    report.items.append(CheckItem(
        "reference data self-check (primality and order of every entry)",
        passed=not bad, detail="" if not bad else f"violations: {bad}"))
    for (p, n), expected in sorted(PPD_TABLE.items()):
        name = f"cell p={p} n={n}"
        got = primitive_prime_divisors(p, n)
        if not got.complete:
            report.items.append(CheckItem(
                name, False, f"incomplete factorization, partial set {sorted(got.primitive_primes)}"))
        elif got.primitive_primes == expected:
            report.items.append(CheckItem(name, True, f"{sorted(expected)}"))
        else:
            report.items.append(CheckItem(
                name, False,
                f"expected {sorted(expected)}, computed {sorted(got.primitive_primes)}"))
    return report


def verify_lemma1(n_max: int = DEFAULT_N_MAX) -> Report:
    """Check each threshold row: a primitive prime divisor > q for all n in [m, n_max].

    Uses the exact cyclotomic-residual method, so rows stay cheap even where
    p^n - 1 is far beyond factoring range.  A documented false instance is
    reported as an erratum rather than failing the run; an undocumented one
    fails it.
    """
    report = Report(f"lemma1: primitive prime divisor above threshold, n up to {n_max}")
    for p, m, q in PPD_THRESHOLD_ROWS:
        failing = [n for n in range(m, n_max + 1)
                   if not ppd_exists_above(p, n, q).exists_above_threshold]
        documented = [n for n in range(m, n_max + 1)
                      if ("ppd_above", p, m, q, n) in KNOWN_ERRATA]
        name = f"row p={p} m={m} q={q}"
        if failing == documented == []:
            report.items.append(CheckItem(name, True, f"all n in [{m},{n_max}] pass"))
        elif failing == documented:
            notes = "; ".join(KNOWN_ERRATA[("ppd_above", p, m, q, n)] for n in failing)
            report.items.append(CheckItem(
                name, True, f"counterexample at n={failing}: {notes}", erratum=True))
        else:
            unexpected = sorted(set(failing) ^ set(documented))
            report.items.append(CheckItem(
                name, False,
                f"counterexamples {failing} do not match documented set {documented} "
                f"(difference {unexpected})"))
    return report


def verify_lemma2(value_bound: int = DEFAULT_VALUE_BOUND) -> Report:
    """Classify all solutions of p^m = q^n + 1 up to the bound."""
    report = Report(f"lemma2: p^m = q^n + 1 enumeration up to {value_bound}")
    sols = catalan_solutions(value_bound)
    unclassified = [s for s in sols if s.family == FAMILY_UNCLASSIFIED]
    report.items.append(CheckItem(
        "every solution falls in the Mersenne, Fermat or exceptional family",
        passed=not unclassified,
        detail=f"{len(sols)} solutions" if not unclassified else f"stray: {unclassified}"))
    exceptional = [(s.p, s.m, s.q, s.n) for s in sols if s.family == FAMILY_EXCEPTIONAL]
    report.items.append(CheckItem(
        "the exceptional solution is exactly 3^2 = 2^3 + 1",
        passed=exceptional == [(3, 2, 2, 3)],
        detail=f"exceptional list: {exceptional}"))
    return report


def verify_case_factorizations() -> Report:
    """Diff every embedded factorization of p^n -+ 1 against mu_pgl2's, by pieces."""
    report = Report("cases: embedded factorizations of p^n -+ 1")
    for case in CASE_FACTORIZATIONS:
        s = mu_pgl2(case.p, case.n)
        for side, printed, value in (
            ("minus", case.printed_minus, case.p**case.n - 1),
            ("plus", case.printed_plus, case.p**case.n + 1),
        ):
            name = f"{case.p}^{case.n}{'-1' if side == 'minus' else '+1'}"
            computed = s.factorization(value).require_complete()
            matches = computed.factors == printed
            erratum_note = KNOWN_ERRATA.get(("case", case.p, case.n, side))
            if matches and erratum_note is None:
                report.items.append(CheckItem(name, True, f"= {computed}"))
            elif not matches and erratum_note is not None:
                report.items.append(CheckItem(
                    name, True,
                    f"printed {_fmt(printed)} vs computed {computed}: {erratum_note}",
                    erratum=True))
            elif not matches:
                report.items.append(CheckItem(
                    name, False, f"printed {_fmt(printed)} but computed {computed}"))
            else:
                report.items.append(CheckItem(
                    name, False, "documented discrepancy did not reproduce"))
    return report


def check_pgl2_component_structure(p: int, n: int) -> Report:
    """Prime graph of mu(PGL(2, p^n)): two components, {p} isolated,
    the rest exactly the primes of p^(2n) - 1.

    Those primes are read from the spectrum's factorizations of q - 1 and
    q + 1, which together are p^(2n) - 1.
    """
    if p == 2 or not is_prime(p):
        raise NotPrime(f"{p} must be an odd prime")
    q = p**n
    if q < 5:
        raise ValueError("requires p^n >= 5")
    s = mu_pgl2(p, n)
    part = components(build_graph(s))
    pi1_expected = set(s.factorization(q - 1).require_complete().primes())
    pi1_expected |= set(s.factorization(q + 1).require_complete().primes())
    got: list[set[int]] = [set(c) for c in part.components]
    passed = (part.t == 2 and got[1] == {p} and got[0] == pi1_expected)
    report = Report(f"pgl2 component structure p={p} n={n}")
    report.items.append(CheckItem(
        f"t=2, pi1=pi({p}^{2 * n}-1), pi2={{{p}}}",
        passed=passed,
        detail=f"components: {[sorted(c) for c in got]}"))
    return report


def verify_all(n_max: int = DEFAULT_N_MAX,
               value_bound: int = DEFAULT_VALUE_BOUND) -> list[Report]:
    """Run every checker, including the component-structure battery."""
    reports = [
        verify_table1(),
        verify_lemma1(n_max),
        verify_lemma2(value_bound),
        verify_case_factorizations(),
    ]
    battery = Report("pgl2 component structure battery")
    for p, n in COMPONENT_PAIRS:
        battery.items.extend(check_pgl2_component_structure(p, n).items)
    reports.append(battery)
    return reports
