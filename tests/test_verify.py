import pytest

from pglspectra import numtheory as nt
from pglspectra import spectra as sp
from pglspectra import verify as vf
from pglspectra.errors import NotCppPrime, NotPrime


def test_ppd_table_shape():
    assert len(vf.PPD_TABLE) == 54
    assert set(p for p, _ in vf.PPD_TABLE) == {7, 13, 17}
    assert set(n for _, n in vf.PPD_TABLE) == set(range(2, 20))
    # the single genuinely empty cell
    empties = [cell for cell, exp in vf.PPD_TABLE.items() if not exp]
    assert empties == [(7, 2)]


def test_verify_table1_passes_clean():
    report = vf.verify_table1()
    assert report.ok
    assert len(report.items) == 55  # 54 cells + self-check
    assert not report.errata


def test_verify_lemma1_reports_documented_counterexample():
    report = vf.verify_lemma1(n_max=10)
    assert report.ok
    assert len(report.errata) == 1
    erratum = report.errata[0]
    assert "p=17" in erratum.name
    assert "n=[6]" in erratum.detail


def test_verify_lemma1_all_other_rows_clean():
    report = vf.verify_lemma1(n_max=25)
    clean = [it for it in report.items if not it.erratum]
    assert len(clean) == 5
    assert all(it.passed for it in clean)


@pytest.mark.parametrize("n_max", [0, 4, 6])
def test_verify_lemma1_rejects_n_max_below_a_row_m(n_max):
    # below m = 7 of the (19, 7, 37) row that row would check nothing
    with pytest.raises(ValueError, match=f"nmax must be >= 7, got {n_max}"):
        vf.verify_lemma1(n_max)
    with pytest.raises(ValueError, match=f"nmax must be >= 7, got {n_max}"):
        vf.verify_all(n_max=n_max)


def test_verify_lemma2():
    report = vf.verify_lemma2(10**5)
    assert report.ok
    assert not report.errata


def test_verify_case_factorizations():
    report = vf.verify_case_factorizations()
    assert report.ok
    assert len(report.items) == 20
    assert len(report.errata) == 1
    erratum = report.errata[0]
    assert erratum.name == "19^6-1"
    assert "7^3" in erratum.detail


def test_check_pgl2_component_structure():
    assert vf.check_pgl2_component_structure(7, 4).ok
    assert vf.check_pgl2_component_structure(3, 2).ok
    assert vf.check_pgl2_component_structure(73, 4).ok
    with pytest.raises(NotPrime):
        vf.check_pgl2_component_structure(2, 3)
    with pytest.raises(ValueError):
        vf.check_pgl2_component_structure(3, 1)


def test_pgl2_component_structure_checks_mu_of_the_second_component(monkeypatch):
    # components [[2, 3], [7]] as for PGL(2, 7), but mu_2 = {49}, not {7}
    monkeypatch.setattr(vf, "mu_pgl2", lambda p, n: sp.Spectrum(frozenset({6, 8, 49})))
    report = vf.check_pgl2_component_structure(7, 1)
    assert not report.ok
    item, = report.items
    assert item.name == "t=2, pi1=pi(7^2-1), pi2={7}"
    assert item.detail == "components: [[2, 3], [7]]"


def test_verify_all_aggregates():
    reports = vf.verify_all(n_max=12, value_bound=10**4)
    assert all(r.ok for r in reports)
    assert sum(len(r.errata) for r in reports) == 2
    battery = reports[-1]
    assert len(battery.items) == len(vf.COMPONENT_PAIRS)


def test_corrupted_reference_cell_fails_the_run(monkeypatch):
    monkeypatch.setitem(vf.PPD_TABLE, (7, 3), frozenset({23}))
    report = vf.verify_table1()
    assert not report.ok
    bad = [it for it in report.items if not it.passed]
    assert any("p=7 n=3" in it.name for it in bad)


def test_undocumented_discrepancy_fails_the_run(monkeypatch):
    # strike the known erratum from the registry: the 19^6 - 1 mismatch is
    # then an undocumented discrepancy and must fail
    cleaned = {k: v for k, v in vf.KNOWN_ERRATA.items()
               if k != ("case", 19, 6, "minus")}
    monkeypatch.setattr(vf, "KNOWN_ERRATA", cleaned)
    report = vf.verify_case_factorizations()
    assert not report.ok


def test_documented_discrepancy_that_does_not_reproduce_fails(monkeypatch):
    # whitelist a discrepancy on a case that actually matches
    augmented = dict(vf.KNOWN_ERRATA)
    augmented[("case", 7, 4, "minus")] = "bogus"
    monkeypatch.setattr(vf, "KNOWN_ERRATA", augmented)
    report = vf.verify_case_factorizations()
    assert not report.ok
    bad = [it for it in report.items if not it.passed]
    assert any("did not reproduce" in it.detail for it in bad)


# --- C_pp table lookup ---------------------------------------------------------

def test_table2_lookup_109():
    row = vf.table2_lookup(109)
    families = [d.family for d in row]
    assert families == ["A", "A", "A", "L2", "2F4"]
    assert [d.parameter for d in row[:3]] == ["109", "110", "111"]
    assert "109^m" in row[3].parameter
    assert row[4].parameter == "2^3"


def test_table2_lookup_rejects_wrong_form():
    with pytest.raises(NotCppPrime):
        vf.table2_lookup(11)  # 10 = 2 * 5
    with pytest.raises(NotCppPrime):
        vf.table2_lookup(23)
    with pytest.raises(NotPrime):
        vf.table2_lookup(15)


def test_table2_lookup_other_row():
    row = vf.table2_lookup(97)  # 96 = 2^5 * 3, not a fixed row
    assert [d.family for d in row] == ["A", "A", "A", "L2"]
    assert row[0].parameter == "97"
    assert "97^m" in row[3].parameter


def test_table2_lookup_fermat_row():
    row = vf.table2_lookup(257)  # 2^(2^3) + 1, s = 3
    families = [d.family for d in row]
    assert families[:3] == ["A", "A", "A"]
    assert "S" in families and "F4" in families and "O-" in families
    joined = " | ".join(d.parameter for d in row)
    assert "c+d=3" in joined
    assert "257^k" in joined


def test_table2_fixed_rows_take_priority_over_fermat():
    # 3, 5, 17 are Fermat primes but carry bespoke rows
    for p in (3, 5, 17):
        row = vf.table2_lookup(p)
        assert row == vf.CPP_TABLE_FIXED[p]
    assert vf.table2_lookup(2) == vf.CPP_TABLE_FIXED[2]


def test_table2_row_17_contents():
    row = vf.table2_lookup(17)
    as_str = {str(d) for d in row}
    assert "F4(2)" in as_str
    assert "O10-(2)" in as_str
    assert "Fi24'" in as_str


def test_case_factorizations_factor_only_tagged_pieces(monkeypatch):
    # every factor() call gets a cyclotomic piece tagged with its d; p^n + 1
    # is itself one piece Phi_2n(p) when n is a power of two
    expected = vf.verify_case_factorizations().lines()
    real_factor = nt.factor
    seen = []

    def recording_factor(n, **kwargs):
        seen.append(n)
        return real_factor(n, **kwargs)

    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    monkeypatch.setattr(nt, "factor", recording_factor)
    monkeypatch.setattr(vf, "factor", recording_factor, raising=False)
    assert vf.verify_case_factorizations().lines() == expected
    assert seen, "the pieces were not factored"
    untagged = [n for n in seen if type(n) is not nt._Congruent]
    assert not untagged, untagged


def test_verify_lemma1_undocumented_counterexample_fails(monkeypatch):
    monkeypatch.delitem(vf.KNOWN_ERRATA, ("ppd_above", 17, 4, 19, 6))
    report = vf.verify_lemma1(8)
    assert not report.ok
    row, = [it for it in report.items if it.name == "row p=17 m=4 q=19"]
    assert not row.passed and not row.erratum
    assert row.detail.endswith("(difference [6])")


def test_verify_table1_incomplete_cells_fail(monkeypatch):
    monkeypatch.setattr(nt, "_FACTOR_CACHE", {})
    nt.configure(budget=1)
    try:
        report = vf.verify_table1()
    finally:
        nt.configure(budget=nt.DEFAULT_RHO_BUDGET)
    assert not report.ok
    failed = {it.name: it.detail for it in report.items if not it.passed}
    assert "cell p=13 n=19" in failed
    assert all(d.startswith("incomplete factorization") for d in failed.values())
