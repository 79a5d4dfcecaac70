import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglspectra import cli, matrixgroups
from pglspectra import numtheory as nt
from pglspectra import spectra, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), out


# --- basic commands -------------------------------------------------------------

def test_ppd_text(capsys):
    code, out, _ = run(capsys, "ppd", "7", "5")
    assert code == 0
    assert "2801" in out


def test_ppd_exception_text(capsys):
    code, out, _ = run(capsys, "ppd", "2", "6")
    assert code == 0
    assert "(none)" in out
    assert "a2n6" in out


def test_ppd_upto(capsys):
    code, out, _ = run(capsys, "ppd", "7", "5", "--upto")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 5
    assert lines[-1].split()[0] == "5"
    assert "2801" in lines[-1]


def test_ppd_above(capsys):
    code, out, _ = run(capsys, "ppd-above", "7", "5", "13")
    assert code == 0
    assert "true" in out
    assert "2801" in out
    code, out, _ = run(capsys, "ppd-above", "2", "6", "2")
    assert code == 0
    assert "false" in out


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "28398240")
    assert code == 0
    assert "2^5*3^2*5*13*37*41" in out


def test_factor_by_p_minus_1_within_the_budget(capsys, monkeypatch):
    # 632814148699 - 1 = 2*3*67*193*229*35617: p - 1 splits the 80-bit product
    # within budget 40000; below its charge, rho and the two ECM curves that
    # fit do not
    n = "1274495412331289495806801"
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    assert run(capsys, "--budget", "40000", "factor", n) == (
        0, f"{n} = 632814148699*2014012194499\n", "")
    code, doc, _ = run_json(capsys, "--budget", "20000", "factor", n)
    assert code == 3 and doc["result"]["cofactor"] == int(n)


def test_stated_charges_are_the_ones_numtheory_makes():
    # README, --budget's help and factor()'s docstring state the charges of
    # p - 1, the rho share and the ECM curves; each is what numtheory builds
    exponent, start, pm1 = nt._pm1_plan()
    stage2 = len(nt.primes_below(nt.TRIAL_BOUND)) - start
    share = nt._rho_share(2)
    (b1, curve), *rest = [(b1, nt._ecm_plan(b1).charge) for _, b1 in nt.ECM_B1]
    later = " and ".join(f"{charge} at {b}" for b, charge in rest)
    readme = " ".join((Path(cli.__file__).parents[2] / "README.md").read_text().split())
    for stated in (f"One p-1 attempt counts {pm1}: a squaring for each of the "
                   f"{exponent.bit_length()} bits of `lcm(1..{nt.P1_BOUND})` and 2 for "
                   f"each of the {stage2} stage-2 primes",
                   f"its share ({share} for `x^2 + c`",
                   f"({curve} multiplications at `B1 = {b1}`, {later})",
                   f"So a budget below {share + curve} factors a plain number as rho "
                   f"alone, as do budgets below {pm1} on those with fewer than "
                   f"{nt.P1_MIN_BITS} bits",
                   f"on a cofactor of at least {nt.P1_MIN_BITS} bits where rho"):
        assert stated in readme, stated
    budget = next(a for a in cli.build_parser()._actions if a.dest == "budget")
    docstring = " ".join(nt.factor.__doc__.split())
    for text in (budget.help, docstring):  # in thousands, rounded down
        assert f"about {pm1 // 100 / 10}k" in text and f"{curve // 100 / 10}k" in text
    assert f"no curve runs below {share + curve}" in budget.help
    assert f"{share + curve} for e = 2" in docstring


def test_mu_families(capsys):
    code, out, _ = run(capsys, "mu", "pgl2", "7", "1")
    assert code == 0 and "6 7 8" in out
    code, out, _ = run(capsys, "mu", "psl2", "3", "2")
    assert code == 0 and "3 4 5" in out
    code, out, _ = run(capsys, "mu", "sym", "3")
    assert code == 0 and "2 3" in out
    code, out, _ = run(capsys, "mu", "alt", "5")
    assert code == 0 and "2 3 5" in out
    code, out, _ = run(capsys, "mu", "metacyclic", "5", "8", "2")
    assert code == 0 and "8 10" in out
    code, out, _ = run(capsys, "mu", "f4psi", "1")
    assert code == 0 and "9 13 15 17 21" in out


def test_omega_includes_closure(capsys):
    code, out, _ = run(capsys, "omega", "pgl2", "3", "2")
    assert code == 0
    assert "omega: 1 2 3 4 5 8 10" in out


def test_graph_text_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "pgl2", "7", "4")
    assert code == 0
    assert "components (t=2)" in out
    assert "2 3 5 1201; 7" in out
    code, dot, _ = run(capsys, "graph", "pgl2", "7", "1", "--dot")
    assert code == 0
    assert dot.startswith("graph primegraph {")
    assert '"2" -- "3";' in dot


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "pgl2", "3", "2")
    assert code == 0
    assert "matches closed form" in out and "yes" in out
    code, out, _ = run(capsys, "oracle", "gl2", "3", "1")
    assert code == 0
    assert "matches" not in out


def test_catalan(capsys):
    code, out, _ = run(capsys, "catalan", "10")
    assert code == 0
    assert "3^2 = 2^3 + 1" in out
    assert "[exceptional]" in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    assert "55/55 checks passed" in out
    code, out, _ = run(capsys, "verify", "lemma1", "--nmax", "8")
    assert code == 0
    assert "documented errata reported" in out
    code, out, _ = run(capsys, "verify", "pgl2", "7", "2")
    assert code == 0


def test_verify_failure_exits_1(capsys, monkeypatch):
    from pglspectra import verify as vf
    monkeypatch.setitem(vf.PPD_TABLE, (13, 3), frozenset({23}))
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 1
    assert "FAIL" in out


def test_verify_failed_only_by_the_budget_exits_3(capsys, monkeypatch):
    # at budget 2804 four table1 cells stay unfactored, and nothing disagrees:
    # a resource limit, as for `--budget 2804 ppd 13 19`
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    code, out, err = run(capsys, "--budget", "2804", "verify", "table1")
    assert code == 3
    assert out.splitlines()[-1] == "51/55 checks passed"
    assert err == "note: factoring budget exhausted; 4 checks incomplete\n"
    assert run(capsys, "--budget", "2804", "ppd", "13", "19")[0] == 3
    code, doc, _ = run_json(capsys, "--budget", "2804", "verify", "all")
    assert code == 3
    assert doc["result"]["ok"] is False and doc["result"]["passed"] == doc["result"]["checks"] - 4
    assert doc["diagnostics"] == ["factoring budget exhausted; 4 checks incomplete"]
    # a check that disagrees next to the incomplete ones is a failed verification
    monkeypatch.setitem(verify.PPD_TABLE, (13, 3), frozenset({23}))
    code, _, err = run(capsys, "--budget", "2804", "verify", "table1")
    assert code == 1
    assert err == ""


# --- usage and domain errors --------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert run(capsys, "mu", "pgl2", "7")[0] == 2          # wrong arity
    assert run(capsys, "mu", "metacyclic", "5", "8")[0] == 2
    assert run(capsys, "verify", "pgl2", "7")[0] == 2
    assert run(capsys, "catalan", "4")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "mu", "pgl2", "4", "1")     # 4 not prime
    assert code == 2
    assert "prime" in err
    assert run(capsys, "mu", "metacyclic", "5", "3", "2")[0] == 2  # bad action


@pytest.mark.parametrize("argv", [
    ("mu", "pgl2", "7"),
    ("mu", "metacyclic", "5", "8"),
    ("verify", "pgl2", "7"),
    ("catalan", "4"),
    ("factor", "0"),
    ("ppd", "1", "5"),
    ("ppd", "7", "0", "--upto"),
    ("ppd-above", "2", "1", "5"),
    ("oracle", "pgl2", "7", "0"),
    ("oracle", "pgl2", "7", "-1"),
    ("verify", "table1", "5", "6"),
    ("--cap", "0", "mu", "sym", "10"),
    ("--cap", "-1", "oracle", "pgl2", "7", "1"),
    ("--cap", "5", "factor", "100"),
    ("--cap", "5", "mu", "pgl2", "7", "1"),
    ("verify", "table1", "--nmax", "5"),
    ("verify", "cases", "--bound", "7"),
])
def test_rejected_argument_is_a_json_document(capsys, argv):
    # arity, range and the checks only the CLI can make all reach the one
    # writer in main: under --json, one document with a null result
    code, doc, _ = run_json(capsys, *argv)
    assert code == 2
    assert doc["result"] is None
    diagnostic, = doc["diagnostics"]
    assert diagnostic.startswith("domain error: ")


@pytest.mark.parametrize("nmax", ["0", "6"])
@pytest.mark.parametrize("target", ["lemma1", "all"])
def test_verify_nmax_below_a_row_m_is_a_domain_error(capsys, target, nmax):
    # the row (19, 7, 37) would check the empty range [7, nmax] and pass
    code, out, err = run(capsys, "verify", target, "--nmax", nmax)
    assert (code, out, err) == (2, "", f"error: nmax must be >= 7, got {nmax}\n")
    code, doc, _ = run_json(capsys, "verify", target, "--nmax", nmax)
    assert code == 2
    assert doc["result"] is None


def test_verify_all_checks_its_options_before_any_checker(capsys, monkeypatch):
    # a rejected --nmax or --bound costs no checker's time
    def not_reached(*args):
        raise AssertionError("a checker ran before the options were checked")

    monkeypatch.setattr(verify, "verify_table1", not_reached)
    monkeypatch.setattr(verify, "verify_lemma1", not_reached)
    code, out, err = run(capsys, "verify", "all", "--nmax", "0")
    assert (code, out, err) == (2, "", "error: nmax must be >= 7, got 0\n")
    code, out, err = run(capsys, "verify", "all", "--bound", "8")
    assert (code, out, err) == (2, "", "error: bound must be >= 9, got 8\n")
    # with both rejected, --nmax is named, as the report order has it
    code, out, err = run(capsys, "verify", "all", "--nmax", "6", "--bound", "8")
    assert (code, out, err) == (2, "", "error: nmax must be >= 7, got 6\n")


@pytest.mark.parametrize("argv, bound", [
    (("catalan", "4"), 4),
    (("verify", "lemma2", "--bound", "5"), 5),
    (("verify", "all", "--bound", "8"), 8),
])
def test_bound_error_names_the_bound_given(capsys, argv, bound):
    # "bound" is both catalan's positional argument and verify's --bound
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: bound must be >= 9, got {bound}\n")


def test_factor_of_1_is_the_empty_product(capsys):
    assert run(capsys, "factor", "1") == (0, "1 = 1\n", "")


def test_sym_n_below_1_is_a_domain_error(capsys):
    assert run(capsys, "mu", "sym", "0") == (2, "", "error: n must be >= 1\n")


def test_oracle_n_below_1_is_a_domain_error(capsys):
    # not a field outside the caps (exit 3): the same answer as mu gives
    for n in ("0", "-1"):
        code, out, err = run(capsys, "oracle", "pgl2", "7", n)
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")
    assert run(capsys, "mu", "pgl2", "7", "0")[0] == 2


def test_verify_pgl2_n_below_1_is_a_domain_error(capsys):
    # checked before p^n, which is a float for n = -1, is compared with 5
    for n in ("0", "-1"):
        code, out, err = run(capsys, "verify", "pgl2", "7", n)
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")
        code, doc, _ = run_json(capsys, "verify", "pgl2", "7", n)
        assert code == 2 and doc["result"] is None
        assert doc["diagnostics"] == ["domain error: n must be >= 1"]


@pytest.mark.parametrize("p, n", [("7", "3000000"), ("2", "100000000")])
def test_oracle_q_far_past_the_cap_exits_3_at_once(capsys, p, n):
    # p^n is neither built nor printed: it has millions of digits
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "pgl2", p, n)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"error: q={p}^{n} exceeds enumeration cap 32\n")


@pytest.mark.parametrize("target", ["table1", "lemma1", "lemma2", "cases", "all"])
def test_verify_rejects_stray_params(capsys, target):
    code, out, err = run(capsys, "verify", target, "5", "6")
    assert (code, out) == (2, "")
    assert err == f"error: verify {target} takes no params\n"


def test_cap_below_1_is_a_domain_error(capsys):
    for cap in ("0", "-1"):
        for argv in (("mu", "sym", "10"), ("oracle", "pgl2", "7", "1")):
            code, out, err = run(capsys, "--cap", cap, *argv)
            assert (code, out) == (2, ""), (cap, argv)
            assert err == f"error: --cap must be >= 1, got {cap}\n"
    # any other cap is used as given
    assert run(capsys, "--cap", "1", "mu", "sym", "2")[0] == 3
    assert run(capsys, "--cap", "1", "mu", "sym", "1")[0] == 0


def test_negative_budget_is_a_domain_error(capsys):
    # budget 0 is trial division only; below it nothing is meant
    for budget, argv in (("-1", ("factor", "91")),
                         ("-5", ("factor", "1000000016000000063"))):
        code, out, err = run(capsys, "--budget", budget, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: budget must be >= 0, got {budget}\n"
        code, doc, _ = run_json(capsys, "--budget", budget, *argv)
        assert code == 2
        assert doc["result"] is None
        assert doc["diagnostics"] == [f"domain error: budget must be >= 0, got {budget}"]
    code, out, _ = run(capsys, "--budget", "0", "factor", "91")
    assert (code, out) == (0, "91 = 7*13\n")


@pytest.mark.parametrize("argv", [
    ("ppd", "7", "5"),
    ("ppd-above", "7", "5", "13"),
    ("factor", "100"),
    ("catalan", "100"),
    ("verify", "cases"),
    ("mu", "pgl2", "7", "1"),
    ("mu", "psl2", "7", "1"),
    ("mu", "f4psi", "1"),
    ("omega", "pgl2", "7", "1"),
    ("omega", "psl2", "7", "1"),
    ("omega", "f4psi", "1"),
    ("graph", "pgl2", "7", "1"),
    ("graph", "psl2", "7", "1"),
])
def test_cap_is_rejected_where_nothing_reads_it(capsys, argv):
    # --cap bounds only sym, alt, metacyclic and oracle; elsewhere it is
    # a domain error, not silently ignored
    code, out, err = run(capsys, "--cap", "5", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --cap does not apply to ")


@pytest.mark.parametrize("option, value, target", [
    ("--nmax", "5", ("table1",)),
    ("--nmax", "5", ("lemma2",)),
    ("--nmax", "5", ("cases",)),
    ("--nmax", "5", ("pgl2", "7", "1")),
    ("--bound", "7", ("table1",)),
    ("--bound", "7", ("lemma1",)),
    ("--bound", "7", ("cases",)),
    ("--bound", "7", ("pgl2", "7", "1")),
])
def test_verify_option_is_rejected_where_the_target_does_not_read_it(
        capsys, option, value, target):
    # --nmax reaches only lemma1 and all, --bound only lemma2 and all
    code, out, err = run(capsys, "verify", *target, option, value)
    assert (code, out) == (2, "")
    assert err == f"error: {option} does not apply to verify {target[0]}\n"


def test_cap_not_given_leaves_the_library_default(capsys):
    assert run(capsys, "mu", "sym", str(spectra.DEFAULT_PARTITION_CAP))[0] == 0
    assert run(capsys, "mu", "sym", str(spectra.DEFAULT_PARTITION_CAP + 1))[0] == 3
    assert run(capsys, "oracle", "pgl2", "31", "1")[0] == 0  # the default cap is 32
    assert run(capsys, "oracle", "pgl2", "37", "1")[0] == 3


def test_verify_inputs_show_the_checker_defaults(capsys):
    # an option not given is not passed on, and the document still shows
    # the value the checkers apply
    code, doc, _ = run_json(capsys, "verify", "table1")
    assert code == 0
    assert doc["inputs"] == {"target": "table1", "params": [],
                             "nmax": 60, "bound": 1000000}
    code, doc, _ = run_json(capsys, "verify", "lemma1", "--nmax", "8")
    assert code == 0
    assert (doc["inputs"]["nmax"], doc["inputs"]["bound"]) == (8, 1000000)


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_budget_exhaustion_exit_3(capsys):
    hard = 999999999999989 * 999998999999977
    code, out, err = run(capsys, "--budget", "100", "factor", str(hard))
    assert code == 3
    assert "budget exhausted" in err
    assert str(hard) in out  # partial result still printed
    nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_budget_does_not_leak_into_next_call(capsys):
    # a budget given to one main() call must not stay in effect for the next
    stuck = 2**4 * 3 * 10000019 * 30000001
    easy = 200000033 * 500000003  # rho splits it well inside the default budget
    try:
        assert run(capsys, "--budget", "1000", "factor", str(stuck))[0] == 3
        code, out, _ = run(capsys, "factor", str(easy))
        assert code == 0
        assert "200000033*500000003" in out
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_main_leaves_the_limits_it_set_behind_it(capsys):
    # budget 1 ends with the main() call that was given it
    try:
        assert run(capsys, "--budget", "1", "ppd", "2", "1")[0] == 0
        assert nt.factor(200000033 * 500000003).complete
        assert nt.configure() == {"budget": nt.DEFAULT_RHO_BUDGET}
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_main_leaves_limits_set_by_configure_in_place(capsys):
    # a main() call with its own defaults does not reset what configure set
    nt.configure(budget=5)
    try:
        assert run(capsys, "factor", "91")[0] == 0
        assert not nt.factor(200000033 * 500000003).complete
        assert run(capsys, "--budget", "-1", "factor", "91")[0] == 2
        assert nt.configure() == {"budget": 5}
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


# Each command line alone, and in one process after others that factor the
# same numbers by another route or under other limits.
HISTORY_BATTERY = (
    # by its pieces 97^24 + 1 factors within this budget; whole, it does not
    ("--budget", "20000", "graph", "pgl2", "97", "24"),
    ("--budget", "20000", "factor", str(97**24 + 1)),
    # the stripped Phi_42(19) factors by its congruence, not as a plain int
    ("--json", "--budget", "2000", "ppd", "19", "42"),
    ("--json", "--budget", "2000", "factor", "332780793373183"),
    ("--budget", "4000", "factor", "332780793373183"),
    # a stuck piece Phi_37(3), met again by other routes
    ("--json", "--budget", "200", "graph", "pgl2", "3", "37"),
    ("--budget", "200", "graph", "psl2", "3", "37"),
    ("--json", "--budget", "200", "factor", str(13097927 * 17189128703)),
    ("--budget", "200", "factor", str(3**37 - 1)),
    # one number under two budgets
    ("ppd", "13", "19"),
    ("--json", "--budget", "1", "ppd", "13", "19"),
    ("--json", "--budget", "-1", "factor", "91"),
)


def test_no_outcome_depends_on_the_calls_before_it(capsys, monkeypatch):
    alone = {}
    for argv in HISTORY_BATTERY:
        monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
        alone[argv] = run(capsys, *argv)[:2]
    assert alone[HISTORY_BATTERY[1]][0] == 3  # 97^24 + 1 whole at budget 20000
    # 332780793373183 = 43^2 * 343393 * 524119: the rho walk splits the
    # cofactor within budget 4000, not 2000
    code, doc = alone[HISTORY_BATTERY[3]]
    assert code == 3 and json.loads(doc)["result"]["cofactor"] == 179978795767
    assert alone[HISTORY_BATTERY[4]] == (0, "332780793373183 = 43^2*343393*524119\n")
    for order in (HISTORY_BATTERY, HISTORY_BATTERY[::-1]):
        monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
        for argv in order:
            assert run(capsys, *argv)[:2] == alone[argv], argv


def test_graph_incomplete_cyclotomic_piece_exit_3(capsys, monkeypatch):
    # Phi_37(3) = 13097927 * 17189128703 does not split in 200 rho iterations
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    try:
        code, doc, _ = run_json(capsys, "--budget", "200", "graph", "pgl2", "3", "37")
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    assert code == 3
    assert doc["result"] is None
    assert any(str(13097927 * 17189128703) in d for d in doc["diagnostics"])


def test_graph_pgl2_97_24_completes(capsys):
    # 97^24 + 1 = 2 * 17 * 230512752775793 * Phi_48(97), a 32-digit prime:
    # whole, it defeats rho at the default budget; by pieces it is instant
    sympy = pytest.importorskip("sympy")
    code, doc, _ = run_json(capsys, "graph", "pgl2", "97", "24")
    assert code == 0
    pi1: set[int] = set()  # the primes of 97^48 - 1, piece by piece
    for d in sympy.divisors(48):
        pi1 |= set(sympy.factorint(int(sympy.cyclotomic_poly(d, 97))))
    r = doc["result"]
    assert r["vertices"] == sorted(pi1 | {97})
    assert r["components"] == [sorted(pi1), [97]]
    assert r["t"] == 2


def test_graph_pgl2_97_25_completes(capsys):
    # a piece of 97^50 - 1 leaves a 32-digit cofactor that rho on
    # x -> x^2 + c does not split at the default budget; every prime of
    # Phi_d(97) divides d or is 1 (mod d), and rho on x -> x^(2d) + c does
    sympy = pytest.importorskip("sympy")
    code, doc, _ = run_json(capsys, "graph", "pgl2", "97", "25")
    assert code == 0
    pi1: set[int] = set()  # the primes of 97^50 - 1, piece by piece
    for d in sympy.divisors(50):
        pi1 |= set(sympy.factorint(int(sympy.cyclotomic_poly(d, 97))))
    r = doc["result"]
    assert r["vertices"] == sorted(pi1 | {97})
    assert r["components"] == [sorted(pi1), [97]]
    assert r["t"] == 2


def test_cap_exhaustion_exit_3(capsys):
    code, _, err = run(capsys, "--cap", "10", "oracle", "pgl2", "5", "2")
    assert code == 3
    assert "cap" in err.lower()



def test_reused_parser_carries_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "--cap", "10", "oracle", "pgl2", "5", "2")[0] == 3
    code, out, _ = run(capsys, "oracle", "pgl2", "5", "2")
    assert code == 0
    assert "matches closed form" in out
    assert run(capsys, "--json", "ppd", "7", "5", "--upto")[0] == 0
    code, out, _ = run(capsys, "ppd", "7", "5")
    assert code == 0
    assert out == "primitive prime divisors of 7^5 - 1: 2801\n"


# --- machine-readable mode ------------------------------------------------------------

def test_json_schema_and_round_trip(capsys):
    code, doc, raw = run_json(capsys, "ppd", "7", "5")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == "ppd"
    assert doc["inputs"] == {"a": 7, "n": 5, "upto": False}
    assert doc["result"]["primitive_primes"] == [2801]
    assert doc["diagnostics"] == []
    # byte-identical re-render
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw


def _oracle_rendering(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": {"e": {"f": {}}}},
    {"ints": [0, -1, -(2**70), 2**64, 2**64 + 1, 10**40],
     "bools": [True, False, True],
     "mixed": [1, True, 2, False, None, 0, -3],
     "leading_bool": [False, 1, 2], "bool_and_none": [None, True]},
    {"tuple": (1, (2, 3), ("x", [4, (5,)])), "in_list": [(), (None,), (True, 7)]},
    {"text": ["", "plain", "é ü ß", "☃ 😀 \u2028", "\x00\x01\x1f\x7f",
              "tab\tnew\nline\rfeed\f\b", 'quote" back\\slash /'],
     "é \n": "key with non-ASCII and control characters"},
    {"none": None, "t": True, "f": False, "zero": 0, "neg": -5, "list_of_none": [None]},
    {10: "int keys sort as numbers", 2: "before 10"},
    [[1, 2], [3], [[4, -5], []], [2**65]],
])
def test_render_document_matches_json_dumps_on_synthetic_documents(value):
    diagnostics = ["note \u00e9\t", "\x1b[0m"]
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": "x", "inputs": {"v": value},
           "result": value, "diagnostics": diagnostics}
    assert cli.render_document("x", {"v": value}, value, diagnostics) == _oracle_rendering(doc)


@pytest.mark.parametrize("argv", [
    ("ppd", "7", "12", "--upto"),
    ("ppd", "2", "6"),
    ("ppd-above", "7", "5", "13"),
    ("factor", "28398240"),
    ("--budget", "100", "factor", str(999999999999989 * 999998999999977)),  # exit 3
    *[(command, *family) for command in ("mu", "omega") for family in (
        ("pgl2", "7", "4"), ("psl2", "3", "2"), ("sym", "20"), ("alt", "20"),
        ("metacyclic", "5", "8", "2"), ("f4psi", "4"))],
    ("omega", "psl2", "37", "24"),  # 2.2 MB
    ("graph", "pgl2", "7", "4"),
    ("graph", "psl2", "7", "4", "--dot"),
    ("--cap", "49", "oracle", "psl2", "7", "2"),
    ("oracle", "gl2", "3", "1"),
    ("catalan", "1000000"),
    ("verify", "all"),
    ("catalan", "4"),  # rejected: a null result
])
def test_render_document_matches_json_dumps_on_every_command(capsys, monkeypatch, argv):
    # the oracle renders the very objects main passed, tuples and bools included
    docs = []
    render = cli.render_document

    def recording(command, inputs, result, diagnostics):
        docs.append({"schema_version": cli.SCHEMA_VERSION, "command": command,
                     "inputs": inputs, "result": result, "diagnostics": diagnostics})
        return render(command, inputs, result, diagnostics)

    monkeypatch.setattr(cli, "render_document", recording)
    try:
        code, out, _ = run(capsys, "--json", *argv)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    doc, = docs
    assert out == _oracle_rendering(doc)
    assert code in (0, 2, 3)


def test_text_lines_are_built_only_in_text_mode(capsys, monkeypatch):
    # under --json no element of omega is formatted as text
    formatted = []
    real_closure = spectra.omega_closure

    class Traced(int):
        def __str__(self):
            formatted.append(int(self))
            return int.__str__(self)

    monkeypatch.setattr(spectra, "omega_closure",
                        lambda s: [Traced(d) for d in real_closure(s)])
    code, doc, _ = run_json(capsys, "omega", "pgl2", "3", "2")
    assert code == 0 and doc["result"]["omega"] == [1, 2, 3, 4, 5, 8, 10]
    assert formatted == []
    code, out, _ = run(capsys, "omega", "pgl2", "3", "2")
    assert code == 0 and "omega: 1 2 3 4 5 8 10" in out
    assert formatted == [1, 2, 3, 4, 5, 8, 10]


def test_json_round_trip_verify(capsys):
    code, doc, raw = run_json(capsys, "verify", "cases")
    assert code == 0
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw
    assert doc["result"]["ok"] is True
    assert doc["result"]["errata"] == 1


def test_json_and_text_verdicts_agree(capsys):
    json_code, doc, _ = run_json(capsys, "verify", "lemma1", "--nmax", "8")
    text_code, out, _ = run(capsys, "verify", "lemma1", "--nmax", "8")
    assert json_code == text_code == 0
    assert doc["result"]["ok"] is True
    assert "[ok]" in out
    json_code, doc, _ = run_json(capsys, "oracle", "psl2", "3", "2")
    text_code, out, _ = run(capsys, "oracle", "psl2", "3", "2")
    assert json_code == text_code == 0
    assert doc["result"]["matches_formula"] is True
    assert "yes" in out


# sha256 of the --json stdout of each command line, pinned before a change
# that must leave every byte as it was: the first eight before primality
# moved to BPSW and trial division to the sieve's primes, the last five
# (one per command or option not pinned before) before the records became
# namedtuples and slotted classes.  A namedtuple that reached a payload
# would render as a list without any error.
PINNED_DOCUMENTS = {
    "ppd 7 30 --upto": "e13da7cbfff11b98b2d807b03d7bad727b6861be46bb4ddc93ff745c606f46a6",
    "ppd 2 89": "cf9941bc68515357cc132ad9273d6c0bdb575b92af73821aa062aa856de099c1",
    "ppd 7 60": "5510c9ec84e663a340fd55ee9f7bcae9b56b207f41e2908dcf96f99a4e888aaf",
    "graph pgl2 97 24": "47a50652eb5d01e8cb2db823032659f4f2b07475c1cbf8e06a3beaa211dc6d40",
    "omega psl2 37 24": "f13a05c3defea7e415f73a1596fa9e7696da5421d65d85bebfc9fb0955adadb7",
    "factor 618970019642690137449562111":
        "58d60d6da1e6220e2587749f73c5b219836daa925a12820ba759705d6f11459d",
    "ppd-above 73 126 10000000":
        "d818dc6a16b7db5e3dba58414c60d28853c897e333b9a35d87e7738338841ce7",
    "verify all": "cbc024182d5eefc9c4ae23d53e90251bf8c343dcbda6f40b4e7cb8fb3e36165c",
    "--cap 100000 mu sym 80":
        "7ef3c75bb2eed0d26d38e2f8bdab91125de3c1a5cabf908cfac19c27a89aab8f",
    "--cap 49 oracle psl2 7 2":
        "1f4936d5754e817c76a7518ddff4331082d87e4e4ebcb88bf0266e7d6c888f28",
    "catalan 1000000": "9d10392e27cee87f33c71d91a1c8c9ca3a4fd0d797aa5e41caa8306006184d32",
    "graph pgl2 7 4 --dot": "6eb0120a428dfe308fca2e85c6adc4e725abbb0e32b0f428d60cce407c0acf83",
    "verify pgl2 7 1": "6e412be43e465b56e2dec87fb61f220c9d55743e4848012a23b246362976712f",
}


@pytest.mark.parametrize("argv", PINNED_DOCUMENTS)
def test_json_document_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, "--json", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[argv]


def test_json_deterministic_across_runs(capsys):
    _, _, raw1 = run_json(capsys, "factor", "2402")
    _, _, raw2 = run_json(capsys, "factor", "2402")
    assert raw1 == raw2


def test_seed_option_is_rejected(capsys):
    # the budget is the one factoring option; a removed one is not ignored
    code, out, err = run(capsys, "--seed", "1", "ppd", "7", "5")
    assert code == 2 and out == "" and "usage: pglspectra" in err
    # argparse alone would reject its value 1 as the command instead
    assert "unrecognized arguments: --seed" in err


def test_unknown_option_is_named_despite_a_bad_value_after_it(capsys):
    code, out, err = run(capsys, "--seed", "1", "oracle", "gl2", "2", "2",
                         "--cap", "x")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed" in err


def test_unknown_option_alone_is_named(capsys):
    # with no command after it the option is all the parser leaves
    code, out, err = run(capsys, "--seed")
    assert code == 2 and out == "" and "usage: pglspectra" in err
    assert "unrecognized arguments: --seed" in err


@pytest.mark.parametrize("argv", [(), ("--json",)])
def test_missing_command_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "usage: pglspectra" in err
    assert "the following arguments are required: command" in err


@pytest.mark.parametrize("argv", [
    ("ppd", "1", "0"),
    ("ppd", "1", "0", "--upto"),
    ("ppd", "7", "0", "--upto"),
    ("ppd", "1", "3", "--upto"),
])
def test_ppd_range_is_checked_by_the_library(capsys, argv):
    # --upto asks for n itself too, so the library rejects an n below 1
    assert run(capsys, *argv) == (2, "", "error: need a >= 2 and n >= 1\n")


def test_json_domain_error_document(capsys):
    code, out, err = run(capsys, "--json", "mu", "pgl2", "4", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["result"] is None
    assert any("domain error" in d for d in doc["diagnostics"])


def test_json_graph_payload(capsys):
    code, doc, _ = run_json(capsys, "graph", "pgl2", "7", "4")
    assert code == 0
    r = doc["result"]
    assert r["vertices"] == [2, 3, 5, 7, 1201]
    assert r["t"] == 2
    assert r["components"] == [[2, 3, 5, 1201], [7]]
    assert ([2, 3] in r["edges"]) and ([2, 1201] in r["edges"])


# --- f4psi as a spectrum, the ppd loop, probable primes ------------------------

def test_omega_f4psi_is_divisor_union_of_psi(capsys):
    sympy = pytest.importorskip("sympy")
    from pglspectra import spectra
    for e in range(1, 7):
        values = sorted(spectra.psi_f4(e))
        omega = sorted({d for v in values for d in sympy.divisors(v)})
        code, doc, _ = run_json(capsys, "omega", "f4psi", str(e))
        assert code == 0
        r = doc["result"]
        assert r["label"] == f"psi(F4(2^{e}))"
        assert r["mu"] == values
        assert r["omega"] == omega
        code, out, _ = run(capsys, "omega", "f4psi", str(e))
        assert code == 0
        assert out.splitlines() == [f"psi(F4(2^{e}))",
                                    "mu: " + " ".join(map(str, values)),
                                    "omega: " + " ".join(map(str, omega))]


def test_ppd_budget_exhaustion_exit_3(capsys, monkeypatch):
    # an earlier test may have cached the complete factorization of Phi_19(13)
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    try:
        code, _, err = run(capsys, "--budget", "1", "ppd", "13", "19")
        assert code == 3
        assert "factoring budget exhausted" in err
        code, doc, _ = run_json(capsys, "--budget", "1", "ppd", "13", "19", "--upto")
        assert code == 3
        rows = doc["result"]["rows"]
        assert [row["n"] for row in rows] == list(range(1, 20))
        assert any(row["complete"] is False for row in rows)
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_factor_probable_prime_note(capsys):
    code, out, err = run(capsys, "factor", str(2**89 - 1))
    assert code == 0
    assert out == f"{2**89 - 1} = {2**89 - 1}\n"
    assert "established probabilistically" in err


def test_verify_lemma2_and_all_summaries(capsys):
    code, out, _ = run(capsys, "verify", "lemma2", "--bound", "1000")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"
    code, out, _ = run(capsys, "verify", "all", "--nmax", "8", "--bound", "1000")
    assert code == 0
    assert out.splitlines()[-1] == "93/93 checks passed; 2 documented errata reported"


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(spectra, "mu_pgl2",
                        lambda p, n: spectra.maximal_elements({2, 3}))
    code, out, _ = run(capsys, "oracle", "pgl2", "3", "2")
    assert code == 1
    assert "matches closed form [2, 3]: NO" in out


def test_budget_exit_does_not_depend_on_earlier_calls(capsys, monkeypatch):
    # a complete factorization found at the default budget does not answer
    # a later call under --budget 1 in the same process
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    try:
        assert run(capsys, "ppd", "13", "19")[0] == 0
        code, _, err = run(capsys, "--budget", "1", "ppd", "13", "19")
        assert code == 3
        assert "factoring budget exhausted" in err
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)


def test_runs_without_sympy():
    # sympy is a test-only dependency: with its import blocked, the commands
    # and the subgroup search that reach each module still succeed
    code = """
import sys
sys.modules["sympy"] = None
from pglspectra import cli, matrixgroups
for argv in (["--json", "verify", "all"], ["--cap", "50", "oracle", "gl2", "3", "3"],
             ["graph", "pgl2", "7", "4"], ["ppd", "7", "5"]):
    assert cli.main(argv) == 0, argv
assert len(matrixgroups.find_binary_octahedral_subgroup(0).elements) == 48
"""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def test_cold_start_loads_no_code_generators():
    # the records generate no code at import, so neither dataclasses nor
    # inspect, ast and dis, which it pulls in, is loaded by a cold start
    code = """
import sys
import pglspectra.cli
assert pglspectra.cli.main(["--json", "ppd", "2", "1"]) == 0
loaded = [m for m in ("dataclasses", "inspect", "ast", "dis") if m in sys.modules]
assert not loaded, loaded
"""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("argv", [["omega", "pgl2", "13", "30"],
                                  ["--json", "omega", "pgl2", "13", "36"]])
def test_a_reader_closing_the_pipe_changes_no_exit_code(argv):
    # 0.2 MB of lines, and a 4.7 MB document written in 1 MiB slices, each
    # far past a pipe's buffer: the reader takes one byte and closes the
    # pipe, and the command still exits 0, its own code, with nothing on stderr
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "pglspectra.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == (b"{" if "--json" in argv else b"P")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert err == b"", err  # no traceback


# --- every command line of the grammar, drawn ------------------------------------------

# Each subcommand with the words that choose a family or target, and how many
# ints follow them.  Ints past 4300 digits have their own tests above.
COMMAND_SHAPES = (
    (("ppd",), 2), (("ppd-above",), 3), (("factor",), 1), (("catalan",), 1),
    *(((command, family), len(names.split()))
      for command in ("mu", "omega", "graph")
      for family, (_, names, _) in cli._SPECTRUM_FAMILIES.items()
      if (command, family) != ("graph", "f4psi")),
    *((("oracle", family.lower()), 2) for family in matrixgroups.FAMILIES),
    *((("verify", target), len(names.split()))
      for target, (_, names, _) in cli._VERIFY_TARGETS.items()),
)
SMALL_INTS = st.integers(-2, 49)


@st.composite
def command_lines(draw):
    words, arity = draw(st.sampled_from(COMMAND_SHAPES))
    argv = ["--budget", str(draw(st.integers(0, 10**4)))]
    if draw(st.booleans()):
        argv.insert(0, "--json")
    if draw(st.booleans()):
        argv += ["--cap", str(draw(st.integers(-1, 64)))]
    argv += [*words, *(str(draw(SMALL_INTS)) for _ in range(arity))]
    flags = {"ppd": ("--upto",), "graph": ("--dot",)}.get(words[0], ())
    argv += [flag for flag in flags if draw(st.booleans())]
    if words[0] == "verify":
        for option in ("--nmax", "--bound"):
            if draw(st.booleans()):
                argv += [option, str(draw(SMALL_INTS))]
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_every_drawn_command_line_ends_in_a_documented_exit(argv):
    # 0, 2 or 3, and 1 only as a verify or oracle verdict; nothing escapes
    # main, and under --json stdout is one document
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    command = next(w for w in argv if w[0].isalpha())
    assert code in (0, 2, 3) or (code == 1 and command in ("verify", "oracle")), argv
    if "--json" in argv:
        json.loads(out.getvalue())
