import json

import pytest

from pglspectra import cli
from pglspectra import numtheory as nt
from pglspectra import spectra


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


def test_oracle_n_below_1_is_a_domain_error(capsys):
    # not a field outside the caps (exit 3): the same answer as mu gives
    for n in ("0", "-1"):
        code, out, err = run(capsys, "oracle", "pgl2", "7", n)
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")
    assert run(capsys, "mu", "pgl2", "7", "0")[0] == 2


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
        nt.configure(seed=nt.DEFAULT_SEED, budget=nt.DEFAULT_RHO_BUDGET)


def test_graph_incomplete_cyclotomic_piece_exit_3(capsys, monkeypatch):
    # Phi_37(3) = 13097927 * 17189128703 does not split in 200 rho iterations
    monkeypatch.setattr(nt, "_COMPLETE_CACHE", {})
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


def test_json_deterministic_across_runs(capsys):
    _, _, raw1 = run_json(capsys, "--seed", "1", "factor", "2402")
    _, _, raw2 = run_json(capsys, "--seed", "1", "factor", "2402")
    assert raw1 == raw2


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
    monkeypatch.setattr(nt, "_COMPLETE_CACHE", {})
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
    monkeypatch.setattr(nt, "_COMPLETE_CACHE", {})
    try:
        assert run(capsys, "ppd", "13", "19")[0] == 0
        code, _, err = run(capsys, "--budget", "1", "ppd", "13", "19")
        assert code == 3
        assert "factoring budget exhausted" in err
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
