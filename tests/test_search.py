"""Model search: counts, isomorphism filtering, limits, determinism."""

import time

import pytest

from hooplab.hoops import builtin_theory, derived_tables, is_hoop, lukasiewicz
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


def test_defined_operations_are_computed_not_searched():
    # hoop_defs is hoop plus definitions: every labelled model is a hoop
    # with its defined tables, in the searcher's order
    hoop_defs = builtin_theory("hoop_defs")
    for n in range(1, 5):
        got = [m.encode() for m in enumerate_models(hoop_defs,
                                                    SearchOptions(n))]
        want = [derived_tables(m).encode()
                for m in enumerate_models(HOOP, SearchOptions(n))]
        assert got == want, n


def test_defined_operations_up_to_isomorphism():
    start = time.monotonic()
    for n in range(1, 6):
        got = [m.canonical_labeling()[0] for m in enumerate_models(
            builtin_theory("hoop_defs"), SearchOptions(n, upto_iso=True))]
        want = [derived_tables(m).canonical_labeling()[0]
                for m in enumerate_models(HOOP,
                                          SearchOptions(n, upto_iso=True))]
        assert got == want, n
    assert len(got) == 10
    assert time.monotonic() - start < 60


def test_second_definition_of_a_head_is_checked_at_the_leaves():
    th = parse_source("""
formulas(assumptions).
   f(x) = g(x).
   f(x) = x.
end_of_list.
""")
    models = list(enumerate_models(th, SearchOptions(2)))
    # g must be the identity, and f is computed from it after the search
    assert [list(m.fun_tables.items()) for m in models] \
        == [[("g", (0, 1)), ("f", (0, 1))]]


def test_defined_function_in_a_goal():
    th = parse_source("""
formulas(assumptions).
   f(x) = g(g(x)).
end_of_list.
formulas(goals).
   f(x) = x.
end_of_list.
""")
    # counterexamples: the g whose square is not the identity, with f
    # computed from it
    found = [list(m.fun_tables.items())
             for m in enumerate_models(th, SearchOptions(2))]
    assert found == [[("g", (0, 0)), ("f", (0, 0))],
                     [("g", (1, 1)), ("f", (1, 1))]]
