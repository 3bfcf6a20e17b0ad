"""Model search: counts, isomorphism filtering, limits, determinism."""

import pytest

from hooplab.hoops import builtin_theory, is_hoop, lukasiewicz
from hooplab.model import isomorphic
from hooplab.search import (
    SearchError, SearchLimit, SearchOptions, count_models, enumerate_models,
    isofilter,
)
from hooplab.syntax import parse_source

SEMILATTICE = builtin_theory("semilattice")
HOOP = builtin_theory("hoop")


def test_semilattice_small_counts():
    # 1, 1, 2, 5 semilattices on 1..4 points up to isomorphism
    assert [count_models(SEMILATTICE, n) for n in (1, 2, 3, 4)] \
        == [1, 1, 2, 5]


def test_hoop_counts_small():
    assert count_models(HOOP, 2) == 1
    assert count_models(HOOP, 3) == 2


def test_enumerated_hoops_are_hoops():
    for m in enumerate_models(HOOP, SearchOptions(4, upto_iso=True)):
        assert is_hoop(m)
        assert m.size == 4


def test_upto_iso_filters():
    all_models = list(enumerate_models(HOOP, SearchOptions(3)))
    iso_models = list(enumerate_models(HOOP, SearchOptions(3,
                                                           upto_iso=True)))
    assert len(iso_models) == 2
    assert len(all_models) >= len(iso_models)
    assert len(list(isofilter(all_models))) == len(iso_models)


@pytest.mark.parametrize("name", ["hoop", "semilattice_ge", "pocrim"])
def test_upto_iso_yields_canonical_forms(name):
    for n in range(1, 5):
        models = list(enumerate_models(builtin_theory(name),
                                       SearchOptions(n, upto_iso=True)))
        keys = [m.canonical_labeling()[0] for m in models]
        assert len(set(keys)) == len(keys)
        for m in models:
            assert m.canonical_form() == m


def test_found_models_include_lukasiewicz():
    found = list(enumerate_models(HOOP, SearchOptions(3, upto_iso=True)))
    assert any(isomorphic(m, lukasiewicz(3)) for m in found)


def test_max_models_limit():
    got = []
    with pytest.raises(SearchLimit) as exc:
        for m in enumerate_models(HOOP, SearchOptions(4, max_models=2)):
            got.append(m)
    assert exc.value.limit == "max_models"
    assert len(got) == 2


@pytest.mark.parametrize("limit", [0, 1])
def test_max_models_limit_small(limit):
    got = []
    with pytest.raises(SearchLimit) as exc:
        for m in enumerate_models(HOOP, SearchOptions(4, upto_iso=True,
                                                      max_models=limit)):
            got.append(m)
    assert exc.value.limit == "max_models"
    assert len(got) == limit


def test_max_seconds_limit_raises():
    with pytest.raises(SearchLimit):
        for _ in enumerate_models(HOOP, SearchOptions(6,
                                                      max_seconds=0.05)):
            pass


def test_determinism():
    a = [m.encode() for m in enumerate_models(HOOP,
                                              SearchOptions(3,
                                                            upto_iso=True))]
    b = [m.encode() for m in enumerate_models(HOOP,
                                              SearchOptions(3,
                                                            upto_iso=True))]
    assert a == b


def test_relation_theory_search():
    # the >= definition is relational; searching must handle it
    th = builtin_theory("semilattice_ge")
    models = list(enumerate_models(th, SearchOptions(3, upto_iso=True)))
    assert len(models) == 2
    for m in models:
        assert ">=" in m.rel_tables


def test_disjunctive_constraint():
    th = builtin_theory("hoop_linear")
    for m in enumerate_models(th, SearchOptions(4, upto_iso=True)):
        mt = m.fun_tables["~"]
        n = m.size
        assert all(mt[i][j] == 0 or mt[j][i] == 0
                   for i in range(n) for j in range(n))


def test_bad_size_rejected():
    with pytest.raises(SearchError):
        SearchOptions(0)


def test_unsat_theory_has_no_models():
    th = parse_source("""
formulas(assumptions).
   f(x) = a.
   f(x) != a.
end_of_list.
""")
    assert count_models(th, 2, upto_iso=False) == 0
