"""Model search: counts, isomorphism filtering, limits, determinism."""

import hashlib
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import hooplab.model
import hooplab.search
from hooplab.hoops import builtin_theory, derived_tables, is_hoop, lukasiewicz
from hooplab.model import canonical_key, isomorphic, serialize_model
from hooplab.search import (
    SearchError, SearchLimit, SearchOptions, SearchStats, _checkers,
    _Searcher, count_models, enumerate_models, isofilter,
)
from hooplab.syntax import parse_formula_text, parse_source

SEMILATTICE = builtin_theory("semilattice")
HOOP = builtin_theory("hoop")


def test_semilattice_small_counts():
    # 1, 1, 2, 5 semilattices on 1..4 points up to isomorphism
    assert [count_models(SEMILATTICE, n) for n in (1, 2, 3, 4)] \
        == [1, 1, 2, 5]


def test_semilattice_counts_at_6_and_7():
    # a finite semilattice with a top added is a lattice, so there are as
    # many semilattices on n points as lattices on n + 1 (OEIS A006966:
    # 53 lattices on 7 points, 222 on 8)
    assert [count_models(SEMILATTICE, n) for n in (6, 7)] == [53, 222]


def test_transposition_cut_leaves_few_leaves_per_class():
    # the least-number heuristic alone reached 14,301 leaves for the 53
    # classes of semilattice 6; the transposition cut leaves under 10 each
    stats = SearchStats()
    classes = sum(1 for _ in enumerate_models(
        SEMILATTICE, SearchOptions(6, upto_iso=True), stats))
    assert classes == 53
    assert stats.cut > 0
    assert stats.leaves < 10 * classes


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
    with pytest.raises(SearchLimit) as exc:
        for _ in enumerate_models(HOOP, SearchOptions(6,
                                                      max_seconds=0.05)):
            pass
    assert exc.value.limit == "max_seconds"
    stats = exc.value.stats
    assert stats.decisions > 0 and stats.conflicts > 0


BUILTINS = ["semilattice", "semilattice_ge", "hoop", "pocrim", "hoop_defs",
            "hoop_linear"]


@pytest.mark.parametrize("name", BUILTINS)
def test_least_number_pruning_keeps_every_class(name):
    # the transposition cut and domain elimination drop labelled models
    # but no isomorphism class: the classes of the labelled enumeration
    # are exactly those found up to isomorphism
    th = builtin_theory(name)
    for n in range(1, 5 if name == "pocrim" else 6):
        labelled = list(enumerate_models(th, SearchOptions(n)))
        want = {m.canonical_labeling()[0] for m in isofilter(labelled)}
        got = {m.canonical_labeling()[0]
               for m in enumerate_models(th, SearchOptions(n, upto_iso=True))}
        assert got == want, n
        if name == "hoop" and n == 4:
            assert len(labelled) == 4 * 24 + 12


@pytest.mark.parametrize("name", BUILTINS)
def test_cell_key_is_the_searched_tables_key(name):
    # up to isomorphism, leaves are keyed from the cells; that key and its
    # relabelling must be the canonical labeling of the model of the
    # searched tables
    th = builtin_theory(name)
    for n in range(1, 4 if name == "pocrim" else 5):
        searcher = _Searcher(th, SearchOptions(n))
        for vals in searcher.run():
            assert searcher._labeling(vals) == \
                searcher._searched_model(vals).canonical_labeling()


def _check_hoops(n, classes, linear_classes):
    models = list(enumerate_models(HOOP, SearchOptions(n, upto_iso=True)))
    assert len(models) == classes
    assert len({m.canonical_labeling()[0] for m in models}) == classes
    assert all(is_hoop(m) for m in models)
    # the linear ones are the 2^(n-2) classes of hoop_linear
    linear = parse_formula_text("x ~ y = 0 | y ~ x = 0", HOOP)
    assert sum(m.satisfies(linear) for m in models) == linear_classes


def test_hoops_of_size_6():
    _check_hoops(6, 23, 16)


def test_hoops_of_size_7():
    # 49 classes: the count of the searcher before its least-number bound
    # counted only what decisions mention (one sha256 over the sorted
    # canonical keys was equal before and after that change)
    _check_hoops(7, 49, 32)


def test_hoops_of_size_8():
    # 111 classes: the count of the searcher before the transposition cut,
    # with the least-number heuristic alone (17,814 leaves and about 25 s
    # of CPU there; the models it yielded, in order, hashed the same as
    # after the cut)
    _check_hoops(8, 111, 64)


RELATIONS = """
formulas(assumptions).
   r(x, y, z) -> r(y, x, z).
   r(x, y, z) -> z = f(x).
   r(x, y, z) -> x = y | p(x).
   r(x, x, f(x)).
   p(f(x)) | x = c.
   -p(c).
end_of_list.
"""


def test_unary_and_ternary_relations_up_to_isomorphism():
    # searched relation cells of arity 1 and 3 beside function cells: the
    # classes found up to isomorphism are those of the labelled models
    th = parse_source(RELATIONS)
    assert th.symbols()["p"] == (1, "relation")
    assert th.symbols()["r"] == (3, "relation")
    counts = []
    for n in range(1, 4):
        labelled = list(enumerate_models(th, SearchOptions(n)))
        want = {m.canonical_labeling()[0] for m in isofilter(labelled)}
        got = [m.canonical_labeling()[0]
               for m in enumerate_models(th, SearchOptions(n, upto_iso=True))]
        assert len(got) == len(set(got))
        assert set(got) == want, n
        counts.append((len(labelled), len(got)))
    assert counts == [(1, 1), (4, 2), (72, 13)]


def test_transposition_cut_keeps_relation_values():
    # a transposition moves relation cells but keeps their 0/1 values;
    # swapping the values too would cut classes here (6 of 8 at size 2)
    th = parse_source("formulas(assumptions).\n   p(x) -> p(f(x)).\n"
                      "end_of_list.\n")
    counts = []
    for n in range(1, 4):
        labelled = enumerate_models(th, SearchOptions(n))
        want = {m.canonical_labeling()[0] for m in isofilter(labelled)}
        got = {m.canonical_labeling()[0]
               for m in enumerate_models(th, SearchOptions(n, upto_iso=True))}
        assert got == want, n
        counts.append(len(got))
    assert counts == [2, 8, 27]


# identities of one binary operation; each of the first six alone leaves at
# most 10,000 labelled models of size 4, the last two only with another
IDENTITIES = [
    "f(x, f(y, z)) = f(f(x, y), z)",
    "f(x, f(x, y)) = y",
    "f(f(x, y), y) = x",
    "f(x, f(y, z)) = f(x, z)",
    "f(f(x, y), z) = f(x, z)",
    "f(f(x, y), x) = y",
    "f(x, y) = f(y, x)",
    "f(x, x) = x",
]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(IDENTITIES), min_size=1, max_size=3,
                unique=True).filter(
                    lambda ids: len(ids) > 1 or ids[0] in IDENTITIES[:6]),
       st.integers(2, 4))
def test_classes_up_to_isomorphism_are_those_of_the_labelled_search(ids, n):
    # the transposition cut drops no class
    th = parse_source("formulas(assumptions).\n%s\nend_of_list.\n"
                      % "\n".join(e + "." for e in ids))
    labelled = enumerate_models(th, SearchOptions(n))
    want = [m.canonical_labeling()[0] for m in isofilter(labelled)]
    got = [m.canonical_labeling()[0]
           for m in enumerate_models(th, SearchOptions(n, upto_iso=True))]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name,size,upto_iso,pinned", [
    ("hoop", 5, True, (749, 443, 2973, 10, 0, 0, 113)),
    ("semilattice", 5, True, (152, 31, 1288, 22, 7, 0, 60)),
    ("pocrim", 4, True, (155, 62, 253, 7, 0, 0, 39)),
    ("hoop", 4, False, (2252, 1443, 5314, 108, 0, 0, 0)),
    ("hoop", 1, True, (0, 0, 0, 1, 0, 0, 0)),
    ("pocrim", 1, True, (0, 0, 1, 1, 0, 0, 0)),
])
def test_search_is_pinned(name, size, upto_iso, pinned):
    """The search these theories take, in SearchStats counts (decisions,
    conflicts, eliminated, leaves, duplicates, rejected, cut).  A change to
    the cell order, the propagation or the symmetry breaking may move them:
    it must then update these values and say so in CHANGES.  A change that
    only makes the searcher faster must leave them as they are."""
    stats = SearchStats()
    for _ in enumerate_models(builtin_theory(name),
                              SearchOptions(size, upto_iso=upto_iso), stats):
        pass
    assert tuple(getattr(stats, f) for f in stats.__slots__) == pinned


def test_a_value_cut_before_propagation_is_not_propagated(monkeypatch):
    # the transposition cut is checked with the decision value assigned
    # and before it is propagated, so some decisions make no propagation
    calls = []
    propagate = _Searcher._propagate

    def counted(self, *args):
        calls.append(args[0])
        return propagate(self, *args)

    monkeypatch.setattr(_Searcher, "_propagate", counted)
    stats = SearchStats()
    assert sum(1 for _ in enumerate_models(
        HOOP, SearchOptions(5, upto_iso=True), stats)) == 10
    decided = [c for c in calls if c is not None]  # the root pass aside
    assert len(decided) < stats.decisions
    # each decision left unpropagated was cut
    assert stats.decisions - len(decided) <= stats.cut


def test_model_sequences_are_pinned():
    """Every model the searcher yields, in order, for hoop, hoop_linear,
    semilattice, semilattice_ge and pocrim up to isomorphism at sizes 1-5,
    and for those and hoop_defs labelled at sizes 1-4 (824 models), as one
    sha256 over their serialized forms.  A change to how the search
    propagates must leave it as it is; a change to the cell order or the
    symmetry breaking may move it, and must then say so in CHANGES."""
    digest = hashlib.sha256()
    theories = ("hoop", "hoop_linear", "semilattice", "semilattice_ge",
                "pocrim")
    searches = [(name, n, True) for name in theories for n in range(1, 6)]
    searches += [(name, n, False) for name in theories + ("hoop_defs",)
                 for n in range(1, 5)]
    count = 0
    for name, n, upto_iso in searches:
        for m in enumerate_models(builtin_theory(name),
                                  SearchOptions(n, upto_iso=upto_iso)):
            digest.update(serialize_model(m).encode() + b"\n")
            count += 1
    assert count == 824
    assert digest.hexdigest() == (
        "b72fb02bac4e6595cb34df9cdab1c4f67523cca1eba874c4882ba59e16adcb4f")


def test_a_clause_set_is_compiled_once_for_every_size():
    # hoop_defs searches hoop's clauses: its definitions are computed
    _checkers.cache_clear()
    for n in range(1, 6):
        count_models(HOOP, n)
    count_models(builtin_theory("hoop_defs"), 3)
    info = _checkers.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def _search(name, n):
    stats = SearchStats()
    models = [m.encode() for m in enumerate_models(
        builtin_theory(name), SearchOptions(n, upto_iso=True), stats)]
    return models, tuple(getattr(stats, f) for f in stats.__slots__)


def test_interleaved_sizes_search_as_each_alone():
    # three clause sets compiled once, their instances bound at sizes in
    # mixed order; each search counts and yields what a fresh compile does
    counts = {"hoop": [1, 1, 2, 5, 10], "hoop_linear": [1, 1, 2, 4, 8],
              "pocrim": [1, 1, 2, 7]}
    plan = [("hoop", 4), ("pocrim", 3), ("hoop_linear", 5), ("hoop", 2),
            ("pocrim", 4), ("hoop", 5), ("hoop_linear", 3), ("pocrim", 1),
            ("hoop", 3), ("hoop_linear", 4), ("pocrim", 2), ("hoop", 1)]
    _checkers.cache_clear()
    interleaved = [_search(name, n) for name, n in plan]
    assert _checkers.cache_info().misses == 3
    for (name, n), (models, stats) in zip(plan, interleaved):
        assert len(models) == counts[name][n - 1], (name, n)
        _checkers.cache_clear()
        assert _search(name, n) == (models, stats), (name, n)
    assert interleaved[plan.index(("hoop", 5))][1] \
        == (749, 443, 2973, 10, 0, 0, 113)
    assert interleaved[plan.index(("pocrim", 4))][1] \
        == (155, 62, 253, 7, 0, 0, 39)


TERNARY = """
formulas(assumptions).
   g(x, x, y) = y.
   g(x, y, y) = x.
   g(x, y, x) = x.
   r(x, y, z) -> g(x, y, z) = x.
   g(x, y, z) = x -> r(x, y, z).
end_of_list.
"""


def test_ternary_tables_at_sizes_up_and_down():
    # a ternary function and a ternary relation take the strides n**2 and
    # n; one compile serves every size in either order
    th = parse_source(TERNARY)
    assert th.symbols() == {"g": (3, "function"), "r": (3, "relation")}
    _checkers.cache_clear()
    runs = []
    for sizes in ((1, 2, 3), (3, 2, 1)):
        runs.append({(n, iso): [m.encode() for m in enumerate_models(
                         th, SearchOptions(n, upto_iso=iso))]
                     for n in sizes for iso in (False, True)})
    assert _checkers.cache_info().misses == 1
    assert runs[0] == runs[1]
    assert [len(runs[0][n, iso]) for n in (1, 2, 3)
            for iso in (False, True)] == [1, 1, 1, 1, 729, 138]
    for m in enumerate_models(th, SearchOptions(3)):
        assert all(m.satisfies(f) for f in th.assumptions)


def test_the_compiled_clause_sets_are_bounded():
    _checkers.cache_clear()
    bound = _checkers.cache_info().maxsize
    for k in range(bound + 1):
        th = parse_source("formulas(assumptions).\n   f(f(x)) = c%d.\n"
                          "end_of_list.\n" % k)
        assert count_models(th, 2) == 1
    info = _checkers.cache_info()
    assert (info.currsize, info.misses) == (bound, bound + 1)


def test_each_new_class_is_keyed_once(monkeypatch):
    # hoop defines no symbol, so the key that tells a new class from a
    # copy also gives its canonical form: one canonical_key call per leaf
    calls = []

    def counted(*args):
        calls.append(args[0])
        return canonical_key(*args)

    monkeypatch.setattr(hooplab.search, "canonical_key", counted)
    monkeypatch.setattr(hooplab.model, "canonical_key", counted)
    stats = SearchStats()
    models = list(enumerate_models(HOOP, SearchOptions(5, upto_iso=True),
                                   stats))
    assert len(models) == stats.leaves == 10
    assert len(calls) == stats.leaves
    assert all(m.canonical_form() == m for m in models)


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
    for kwargs in ({}, {"max_models": -1}, {"max_seconds": 0},
                   {"max_seconds": -1}):
        with pytest.raises(SearchError):
            SearchOptions(0 if not kwargs else 3, **kwargs)
    SearchOptions(3, max_models=0)


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
