"""Theory file parsing and printing."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hooplab.syntax import (
    ParseError, Theory, TheoryError, merge_theories, parse_formula_text,
    parse_source, parse_term_text, render_formula, render_term,
    render_theory,
)

SEMILATTICE = """
op(500, infix, "cup").
formulas(assumptions).
   (x cup y) cup z = x cup (y cup z).
   x cup y = y cup x.
   x cup x = x.
end_of_list.
"""


def test_parse_semilattice():
    th = parse_source(SEMILATTICE)
    assert th.declared("cup") == (500, "infix")
    assert len(th.assumptions) == 3
    assert th.goals == []


def test_roundtrip_render_parse():
    th = parse_source(SEMILATTICE)
    again = parse_source(render_theory(th))
    assert again.assumptions == th.assumptions
    assert again.op_decls == th.op_decls


def test_variables_versus_constants():
    th = parse_source(SEMILATTICE)
    t = parse_term_text("x cup a", th)
    assert t == ("cup", ("V", "x"), ("a",))


def test_precedence_and_associativity():
    src = 'op(500, infix, "+").\nop(400, infix, "*").\n'
    th = parse_source(src)
    # tighter precedence number binds tighter; infix ops left-associate
    assert (parse_term_text("x + y * z", th)
            == ("+", ("V", "x"), ("*", ("V", "y"), ("V", "z"))))
    assert (parse_term_text("x + y + z", th)
            == ("+", ("+", ("V", "x"), ("V", "y")), ("V", "z")))


def test_postfix_prime_is_neg():
    th = Theory()
    assert parse_term_text("x'", th) == ("neg", ("V", "x"))
    assert parse_term_text("x''", th) == ("neg", ("neg", ("V", "x")))
    assert parse_term_text("neg(x)", th) == ("neg", ("V", "x"))


def test_formula_connectives_and_relations():
    th = Theory()
    f = parse_formula_text("x >= y <-> f(y, x) = z", th)
    assert f[0] == "iff"
    assert parse_formula_text("x != y", th)[0] == "not"
    # a <= b is sugar for b >= a
    assert (parse_formula_text("x <= y", th)
            == ("atom", (">=", ("V", "y"), ("V", "x"))))


def test_predicate_atoms():
    # a term that is not a variable and that no relational operator
    # follows is a predicate atom, typed as a relation
    x, y, z = ("V", "x"), ("V", "y"), ("V", "z")
    th = parse_source("formulas(assumptions).\n p(x) | -p(x).\n"
                      " r(x,y,z) -> r(y,x,z).\n q.\nend_of_list.")
    assert th.assumptions == [
        ("or", ("atom", ("p", x)), ("not", ("atom", ("p", x)))),
        ("imp", ("atom", ("r", x, y, z)), ("atom", ("r", y, x, z))),
        ("atom", ("q",))]
    assert th.symbols() == {"p": (1, "relation"), "r": (3, "relation"),
                            "q": (0, "relation")}
    assert parse_source(render_theory(th)) == th
    # a variable is not an atom
    for text in ("x", "x | p(x)", "-y"):
        with pytest.raises(ParseError):
            parse_formula_text(text, th)


def test_render_formula_roundtrip():
    th = parse_source(SEMILATTICE)
    for text in ["x cup y = y cup x", "x >= y <-> x cup y = x",
                 "x != y | x = y", "x = y -> y = x", "p(x) | -p(x)",
                 "r(x, y, z) -> r(y, x, z)", "q", "-(q) & p(a cup x)"]:
        f = parse_formula_text(text, th)
        assert parse_formula_text(render_formula(f, th), th) == f


_TERMS = st.recursive(
    st.sampled_from([("V", "x"), ("V", "y"), ("a",)]),
    lambda sub: st.tuples(st.just("cup"), sub, sub), max_leaves=3)
_FORMULAS = st.recursive(
    st.tuples(st.just("atom"),
              st.tuples(st.sampled_from(["=", ">="]), _TERMS, _TERMS)
              | st.tuples(st.just("p"), _TERMS)
              | st.tuples(st.just("r"), _TERMS, _TERMS, _TERMS)),
    lambda sub: (st.tuples(st.just("not"), sub)
                 | st.tuples(st.sampled_from(["and", "or", "imp", "iff"]),
                             sub, sub)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_render_formula_reparses(f):
    # the printer brackets what the parser would group otherwise: & and |
    # group to the left, -> to the right, and <-> takes one operand a side
    th = parse_source(SEMILATTICE)
    assert parse_formula_text(render_formula(f, th), th) == f


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_source("formulas(assumptions).\n x = .\nend_of_list.")
    with pytest.raises(ParseError):
        parse_source("op(xyz, infix, \"+\").")
    # the prime is the only postfix operator, and it is not declared
    with pytest.raises(ParseError):
        parse_source("op(300, postfix, \"!\").")


def test_conflicting_arity_rejected():
    bad = ("formulas(assumptions).\n f(x) = x.\n f(x, y) = x.\n"
           "end_of_list.")
    with pytest.raises(TheoryError):
        parse_source(bad)



def test_operator_redeclared_in_one_text_rejected():
    text = 'op(500, infix, "cup").\nop(400, infix, "cup").'
    with pytest.raises(TheoryError, match=r"operator 'cup' redeclared as "
                       r"\(400, 'infix'\), was \(500, 'infix'\)"):
        parse_source(text)
    # the same declaration twice is accepted
    assert parse_source('op(500, infix, "cup").\n' * 2).declared("cup") \
        == (500, "infix")


def test_operator_used_with_another_arity_rejected():
    text = ('op(500, infix, "f").\nformulas(assumptions).\n f(x) = x.\n'
            "end_of_list.")
    with pytest.raises(TheoryError, match=r"declared operator 'f' used as "
                       r"\(1, 'function'\)"):
        parse_source(text)

def test_merge_theories_conflict():
    a = parse_source('op(500, infix, "+").')
    b = parse_source('op(300, infix, "+").')
    with pytest.raises(TheoryError):
        merge_theories([a, b])


def test_render_term_parenthesization():
    th = parse_source(SEMILATTICE)
    t = parse_term_text("(x cup y) cup z", th)
    assert render_term(t, th) == "x cup y cup z"
    t2 = parse_term_text("x cup (y cup z)", th)
    assert render_term(t2, th) == "x cup (y cup z)"


def test_comments_ignored():
    th = parse_source("# a comment\n" + SEMILATTICE)
    assert len(th.assumptions) == 3


def test_repeated_declaration_keeps_precedence():
    two = 'op(500, infix, "+").\nop(500, infix, "~").\n'
    once = parse_source(two + SEMILATTICE)
    again = parse_source(two + SEMILATTICE + 'op(500, infix, "+").\n')
    assert again.precedence() == once.precedence()
    assert once.precedence()["+"] < once.precedence()["cup"]


def _defined(text):
    defs, indices = parse_source(text).definitions()
    return {name: kind for name, (kind, _, _) in defs.items()}, indices


def test_definitions_in_file_order():
    defs, indices = parse_source("""
op(500, infix, "~").
op(500, infix, "cup").
formulas(assumptions).
   x ~ x = 0.
   x' = 1 ~ x.
   x >= y <-> y ~ x = 0.
   x cup y = x' ~ (y ~ x).
end_of_list.
""").definitions()
    assert list(defs) == ["neg", ">=", "cup"]
    assert indices == [1, 2, 3]
    kind, params, body = defs["cup"]
    assert (kind, params) == ("function", ("x", "y"))
    assert body == ("~", ("neg", ("V", "x")), ("~", ("V", "y"), ("V", "x")))
    assert defs[">="][:2] == ("relation", ("x", "y"))


def test_definitions_reject_self_reference():
    assert _defined("""
formulas(assumptions).
   f(x) = g(f(x)).
   x >= y <-> y >= x.
end_of_list.
""") == ({}, [])


def test_definitions_reject_mutual_reference_to_a_later_head():
    # f's body names g, which the next formula has as its head; g's body
    # then names f, which no later formula defines, so g alone is defined
    # and f stays a searched table
    assert _defined("""
formulas(assumptions).
   f(x) = g(x).
   g(x) = f(x).
end_of_list.
""") == ({"g": "function"}, [1])


def test_definitions_reject_body_variable_that_is_no_parameter():
    assert _defined("""
formulas(assumptions).
   f(x) = g(x, y).
   x >= y <-> z >= y.
end_of_list.
""") == ({}, [])


def test_definitions_need_distinct_variable_arguments():
    assert _defined("""
formulas(assumptions).
   f(x, x) = x.
   f(x, a) = x.
   a = g(a).
end_of_list.
""") == ({}, [])


def test_definitions_keep_the_first_of_a_repeated_head():
    assert _defined("""
formulas(assumptions).
   f(x) = g(x).
   f(y) = h(y).
end_of_list.
""") == ({"f": "function"}, [0])
