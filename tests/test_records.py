"""The records' semantics: repr, ==, hash, immutability and copies.

Every expectation here held for the dataclasses the records replaced, so
each record type keeps the behaviour its callers and tests rely on.
"""

import copy
import inspect
import pickle

import pytest

from pglspectra import matrixgroups as mg
from pglspectra import numtheory as nt
from pglspectra import primegraph as pg
from pglspectra import spectra as sp
from pglspectra import verify as vf

# (type, every field by keyword, another value for each field)
RECORDS = [
    (nt.Primality, dict(prime=True, probabilistic=False),
     dict(prime=False, probabilistic=True)),
    (nt.Factorization,
     dict(base_n=12, factors=((2, 2), (3, 1)), complete=True, cofactor=1, probable=()),
     dict(base_n=24, factors=((2, 3),), complete=False, cofactor=5, probable=(3,))),
    (nt.PpdReport,
     dict(a=7, n=5, primitive_primes=frozenset({2801}), exception="none",
          method="full_factorization", residual=1, threshold=None,
          exists_above_threshold=None, complete=True, probable=()),
     dict(a=8, n=6, primitive_primes=frozenset(), exception="a2n6",
          method="cyclotomic_residual", residual=89, threshold=30,
          exists_above_threshold=True, complete=False, probable=(2801,))),
    (nt.CatalanSolution, dict(p=3, m=2, q=2, n=3, family="exceptional"),
     dict(p=5, m=1, q=3, n=1, family="fermat")),
    (sp.Spectrum, dict(mu=frozenset({6, 7, 8}), label="PGL(2,7)", pieces={}),
     dict(mu=frozenset({5, 6}), label="PSL(2,7)", pieces={6: (2, 3)})),
    (pg.PrimeGraph, dict(vertices=frozenset({2, 3}), edges=frozenset({(2, 3)})),
     dict(vertices=frozenset({2}), edges=frozenset())),
    (pg.ComponentPartition, dict(components=(frozenset({2, 3}),)),
     dict(components=())),
    (pg.ComponentSpectra, dict(mu_sets=(frozenset({6}),), tail_singletons=()),
     dict(mu_sets=(), tail_singletons=(True,))),
    (mg.SubgroupWitness,
     dict(generators=((1, 0, 0, 1),), elements=((1, 0, 0, 1),), order_counts=((1, 1),)),
     dict(generators=(), elements=(), order_counts=())),
    (vf.CaseFactorization,
     dict(p=7, n=2, printed_minus=((2, 4), (3, 1)), printed_plus=((2, 1), (5, 2))),
     dict(p=13, n=3, printed_minus=(), printed_plus=())),
    (vf.CppGroupDescriptor, dict(family="A", parameter="5"),
     dict(family="L2", parameter="")),
    (vf.CheckItem, dict(name="n=2", passed=True, detail="ok", erratum=False),
     dict(name="n=3", passed=False, detail="", erratum=True)),
    (vf.Report, dict(title="t", items=[]),
     dict(title="u", items=[vf.CheckItem("a", True)])),
]
IGNORED = {(sp.Spectrum, "label"), (sp.Spectrum, "pieces"), (nt.PpdReport, "probable")}
MUTABLE = {vf.CheckItem, vf.Report}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_fields_are_the_constructor_parameters(cls, fields, other):
    assert list(inspect.signature(cls).parameters) == list(fields) == list(other)


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_equality_ignores_exactly_the_documented_fields(cls, fields, other):
    a = cls(**fields)
    assert a == cls(**fields)
    for name in fields:
        b = cls(**{**fields, name: other[name]})
        if (cls, name) in IGNORED:
            assert a == b, name
            assert hash(a) == hash(b), name
        else:
            assert a != b, name
            assert not a == b, name


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, fields, other):
    a = cls(**fields)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        for name in fields:
            setattr(a, name, other[name])
            assert getattr(a, name) == other[name]
        return
    assert hash(a) == hash(cls(**fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, other[name])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == fields[name]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_copies_are_equal_with_the_same_repr(cls, fields, other):
    for record in (cls(**fields), cls(**other)):
        for c in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
            assert type(c) is cls
            assert c == record and repr(c) == repr(record)


# reprs as the dataclasses gave them
REPRS = [
    (nt.Primality(True, False), "Primality(prime=True, probabilistic=False)"),
    (nt.Factorization(360, ((2, 3), (3, 2), (5, 1))),
     "Factorization(base_n=360, factors=((2, 3), (3, 2), (5, 1)), complete=True, "
     "cofactor=1, probable=())"),
    (nt.Factorization(2**64 + 1, ((274177, 1),), False, 67280421310721, (67280421310721,)),
     "Factorization(base_n=18446744073709551617, factors=((274177, 1),), complete=False, "
     "cofactor=67280421310721, probable=(67280421310721,))"),
    (nt.PpdReport(7, 5, frozenset({2801})),
     "PpdReport(a=7, n=5, primitive_primes=frozenset({2801}), exception='none', "
     "method='full_factorization', residual=1, threshold=None, "
     "exists_above_threshold=None, complete=True, probable=())"),
    (nt.PpdReport(2, 11, frozenset({23}), method="cyclotomic_residual", residual=89,
                  threshold=30, exists_above_threshold=True, complete=False),
     "PpdReport(a=2, n=11, primitive_primes=frozenset({23}), exception='none', "
     "method='cyclotomic_residual', residual=89, threshold=30, "
     "exists_above_threshold=True, complete=False, probable=())"),
    (nt.CatalanSolution(3, 1, 2, 1, "fermat"),
     "CatalanSolution(p=3, m=1, q=2, n=1, family='fermat')"),
    (sp.Spectrum(frozenset({6, 7, 8}), "PGL(2,7)", {6: (2, 3)}),
     "Spectrum(mu=frozenset({8, 6, 7}), label='PGL(2,7)')"),
    (pg.PrimeGraph(frozenset({2, 3, 7}), frozenset({(2, 3)})),
     "PrimeGraph(vertices=frozenset({2, 3, 7}), edges=frozenset({(2, 3)}))"),
    (pg.ComponentPartition((frozenset({2, 3}), frozenset({7}))),
     "ComponentPartition(components=(frozenset({2, 3}), frozenset({7})))"),
    (pg.ComponentSpectra((frozenset({6, 8}), frozenset({7})), (True,)),
     "ComponentSpectra(mu_sets=(frozenset({8, 6}), frozenset({7})), "
     "tail_singletons=(True,))"),
    (mg.SubgroupWitness(((1, 2, 3, 4),), ((1, 0, 0, 1), (1, 2, 3, 4)), ((1, 1), (3, 1))),
     "SubgroupWitness(generators=((1, 2, 3, 4),), elements=((1, 0, 0, 1), (1, 2, 3, 4)), "
     "order_counts=((1, 1), (3, 1)))"),
    (vf.CaseFactorization(7, 2, ((2, 4), (3, 1)), ((2, 1), (5, 2))),
     "CaseFactorization(p=7, n=2, printed_minus=((2, 4), (3, 1)), "
     "printed_plus=((2, 1), (5, 2)))"),
    (vf.CppGroupDescriptor("A", "5"), "CppGroupDescriptor(family='A', parameter='5')"),
    (vf.CppGroupDescriptor("M11"), "CppGroupDescriptor(family='M11', parameter='')"),
    (vf.CheckItem("n=2", True, "ok"),
     "CheckItem(name='n=2', passed=True, detail='ok', erratum=False)"),
    (vf.Report("t", [vf.CheckItem("a", False, erratum=True)]),
     "Report(title='t', items=[CheckItem(name='a', passed=False, detail='', "
     "erratum=True)])"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[r[1].split("(")[0] for r in REPRS])
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_descriptor_str_is_family_and_parameter():
    assert str(vf.CppGroupDescriptor("A", "5")) == "A(5)"
    assert f"{vf.CppGroupDescriptor('M11')}" == "M11"


def test_report_items_append_and_are_not_shared():
    first, second = vf.Report("first"), vf.Report("second")
    assert first.items == [] and first.items is not second.items
    item = vf.CheckItem("n=2", True)
    first.items.append(item)
    assert first.items == [item] and second.items == []
    assert not first.errata and first.ok
    first.items.append(vf.CheckItem("n=3", False, erratum=True))
    assert not first.ok and len(first.errata) == 1
