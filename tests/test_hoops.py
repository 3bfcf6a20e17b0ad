"""Hoop domain layer: builtin theories, constructions, derived tables,
linear decomposition, nomenclature."""

import pytest

from hooplab import hoops
from hooplab.chains import lemma_corpus
from hooplab.hoops import (
    builtin_theory, decompose_linear, derived_tables, direct_product,
    is_hoop, is_linear, linear_index_set, lukasiewicz, name_property,
    ordinal_sum, ordinal_sum_many, parse_hoop_term, trivial_hoop,
)
from hooplab.model import isomorphic, serialize_model
from hooplab.search import SearchOptions, enumerate_models
from hooplab.syntax import TheoryError, parse_formula_text


def test_builtin_theories():
    assert len(builtin_theory("hoop").assumptions) == 8
    assert len(builtin_theory("semilattice").assumptions) == 3
    assert builtin_theory("pocrim").assumptions
    with pytest.raises(ValueError):
        builtin_theory("nonsense")


def test_lukasiewicz_tables():
    l3 = lukasiewicz(3)
    assert l3.fun_tables["+"] == ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    assert l3.fun_tables["~"] == ((0, 0, 0), (1, 0, 0), (2, 1, 0))
    assert l3.constants == {"0": 0, "1": 2}
    with pytest.raises(ValueError):
        lukasiewicz(1)


def test_lukasiewicz_satisfies_hoop_axioms():
    for n in range(2, 9):
        assert is_hoop(lukasiewicz(n))


def test_ordinal_sum_table1():
    s = ordinal_sum(lukasiewicz(2), lukasiewicz(2))
    assert s.size == 3
    assert s.fun_tables["+"] == ((0, 1, 2), (1, 1, 2), (2, 2, 2))
    assert is_hoop(s)


def test_ordinal_sum_neutral():
    h = lukasiewicz(3)
    assert isomorphic(ordinal_sum(h, trivial_hoop()), h)
    assert isomorphic(ordinal_sum(trivial_hoop(), h), h)


def test_ordinal_sum_preserves_hoopness():
    for a in (2, 3):
        for b in (2, 3):
            assert is_hoop(ordinal_sum(lukasiewicz(a), lukasiewicz(b)))


def test_direct_product():
    p = direct_product(lukasiewicz(2), lukasiewicz(2))
    assert p.size == 4
    assert is_hoop(p)
    assert not is_linear(p)
    assert isomorphic(direct_product(lukasiewicz(3), trivial_hoop()),
                      lukasiewicz(3))


def test_derived_tables_cup_semilattice():
    for h in (lukasiewicz(4),
              ordinal_sum(lukasiewicz(2), lukasiewicz(3))):
        d = derived_tables(h)
        cup = d.fun_tables["cup"]
        n = d.size
        for i in range(n):
            assert cup[i][i] == i
            for j in range(n):
                assert cup[i][j] == cup[j][i]


def test_derived_tables_neg():
    d = derived_tables(lukasiewicz(3))
    assert d.fun_tables["neg"] == (2, 1, 0)
    ge = d.rel_tables[">="]
    assert ge[2][0] and not ge[0][2]


def test_derived_tables_satisfy_the_definition_files():
    # ties the >= table to hoop-ge-def.ax and the operations to
    # hoop-defs.ax, where alone they are defined
    defs = builtin_theory("hoop_defs")
    hoop = builtin_theory("hoop")
    for n in range(1, 5):
        for h in enumerate_models(hoop, SearchOptions(n, upto_iso=True)):
            d = derived_tables(h)
            for f in defs.assumptions:
                assert d.satisfies(f), (n, serialize_model(h))


def test_definitions_files_parse_in_order():
    assert list(hoops.DEFINITIONS) == [">=", "neg", "cup", "cap", "\\",
                                       "nand"]
    assert list(hoops.DERIVED_DEFS) == ["neg", "cup", "cap", "\\", "nand"]
    d = derived_tables(lukasiewicz(2))
    assert d.function_names() == ["+", "~", "neg", "cup", "cap", "\\",
                                  "nand"]
    assert d.relation_names() == [">="]


@pytest.mark.parametrize("text", [
    # an axiom, not a definition
    'op(500, infix, "+").\nformulas(assumptions).\n'
    '   x + y = y + x.\nend_of_list.',
    # the body uses a variable that is not a parameter
    'formulas(assumptions).\n   f(x) = g(x, y).\nend_of_list.',
    # a head defined twice
    'formulas(assumptions).\n   f(x) = x.\n   f(x) = g(x).\nend_of_list.',
    # a body naming a head defined below it
    'formulas(assumptions).\n   f(x) = g(x).\n   g(x) = x.\nend_of_list.',
    # goals have no place in a definitions file
    'formulas(assumptions).\n   f(x) = x.\nend_of_list.\n'
    'formulas(goals).\n   f(x) = x.\nend_of_list.',
])
def test_malformed_definitions_rejected(text):
    with pytest.raises(TheoryError):
        hoops._parse_definitions(text)


def _labelled_hoops(n):
    return list(enumerate_models(builtin_theory("hoop"), SearchOptions(n)))


def test_derived_tables_of_labelled_hoops():
    # every labelling of the carrier, not only canonical forms, which put
    # the constant 0 at element 0
    defs = builtin_theory("hoop_defs").assumptions  # includes hoop-ge-def.ax
    corpus = [r.statement for r in lemma_corpus()]
    assert len(corpus) == 24
    for n in (3, 4):
        hs = _labelled_hoops(n)
        assert any(h.constants["0"] != 0 for h in hs)
        for h in hs:
            d = derived_tables(h)
            for f in defs + corpus:
                assert d.satisfies(f), (n, serialize_model(h))


def test_linear_decomposition_of_labelled_hoops():
    hoop = builtin_theory("hoop")
    # every hoop of size 3 is a chain
    assert all(is_linear(h) for h in _labelled_hoops(3))
    for n in (3, 4):
        reps = list(enumerate_models(hoop, SearchOptions(n, upto_iso=True)))
        for h in _labelled_hoops(n):
            if not is_linear(h):
                continue
            rep, = [r for r in reps if isomorphic(h, r) is not None]
            assert decompose_linear(h) == decompose_linear(rep), \
                serialize_model(h)


def test_is_linear():
    assert is_linear(lukasiewicz(5))
    assert is_linear(trivial_hoop())
    assert not is_linear(direct_product(lukasiewicz(2), lukasiewicz(2)))


def test_decompose_linear_examples():
    assert decompose_linear(lukasiewicz(4)) == [4]
    s = ordinal_sum(lukasiewicz(2), lukasiewicz(3))
    assert decompose_linear(s) == [2, 3]
    three = ordinal_sum_many([lukasiewicz(2)] * 3)
    assert decompose_linear(three) == [2, 2, 2]


def test_decompose_linear_rejects_nonlinear():
    with pytest.raises(Exception):
        decompose_linear(direct_product(lukasiewicz(2), lukasiewicz(2)))


def test_linear_index_set():
    assert linear_index_set([2, 3], 4) == {1}
    assert linear_index_set([4], 4) == set()
    assert linear_index_set([2, 2, 2], 4) == {1, 2}
    with pytest.raises(ValueError):
        linear_index_set([2, 2], 4)


def test_name_property():
    defs = builtin_theory("hoop_defs")
    for text, name in [
        ("x nand y = y nand x", "AA"),
        ("(x cap y)' = x nand y", "MNA"),
        ("x = (x cap y) + (x ~ y)", "MPS"),
        ("(x ~ x'')' = 1", "SNNNO"),
        ("x'' ~ y'' = (x ~ y)''", "NNSNNSNN"),
    ]:
        f = parse_formula_text(text, defs)
        assert name_property(f) == name


def test_name_property_rejects_non_equations():
    defs = builtin_theory("hoop_defs")
    with pytest.raises(ValueError):
        name_property(parse_formula_text("x >= y cap x", defs))


def test_parse_hoop_term():
    t = parse_hoop_term("x' + (y cap x)")
    assert t[0] == "+"
    assert t[1] == ("neg", ("V", "x"))
    assert t[2] == ("cap", ("V", "y"), ("V", "x"))
