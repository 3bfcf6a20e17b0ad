"""Unit tests for the term layer: substitution, matching, unification,
orderings and clausification."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from hooplab.terms import (
    canonical_clause, canonical_instance, canonical_renaming, clause_weight,
    clausify, lpo_gt, match, positions, rename_apart, replace_at,
    substitute, substitute_clause, subterm_at, subterms, term_size,
    term_vars, unify, var,
)

X, Y, Z = var("x"), var("y"), var("z")
ZERO = ("0",)
ONE = ("1",)


def plus(a, b):
    return ("+", a, b)


def minus(a, b):
    return ("~", a, b)


terms_strategy = st.recursive(
    st.sampled_from([X, Y, Z, ZERO, ONE]),
    lambda sub: st.builds(plus, sub, sub) | st.builds(minus, sub, sub),
    max_leaves=8)


def test_vars_and_size():
    t = plus(X, minus(Y, ZERO))
    assert term_vars(t) == {"x", "y"}
    assert term_size(t) == 5
    assert term_size(X) == 1


def test_subterms_and_positions():
    t = plus(X, minus(Y, ZERO))
    assert t in subterms(t)
    assert ZERO in subterms(t)
    for p in positions(t):
        s = subterm_at(t, p)
        assert replace_at(t, p, s) == t
    assert subterm_at(t, ()) == t
    assert subterm_at(t, (2, 1)) == Y


def test_substitute_and_compose():
    t = plus(X, Y)
    s1 = {"x": minus(Y, ZERO)}
    s2 = {"y": ONE}
    lhs = substitute(substitute(t, s1), s2)
    rhs = substitute(t, {"x": minus(ONE, ZERO), "y": ONE})
    assert lhs == rhs == plus(minus(ONE, ZERO), ONE)
    # simultaneous: a bound occurrence is replaced once, not chased
    assert substitute(t, {"x": Y, "y": X}) == plus(Y, X)
    assert substitute(t, {"z": ONE}) == t


def test_match_basic():
    pat = plus(X, minus(Y, X))
    subj = plus(ZERO, minus(ONE, ZERO))
    b = match(pat, subj)
    assert b == {"x": ZERO, "y": ONE}
    assert match(pat, plus(ZERO, minus(ONE, ONE))) is None


def test_unify_basic():
    mgu = unify(plus(X, ZERO), plus(ONE, Y))
    assert mgu == {"x": ONE, "y": ZERO}
    assert unify(plus(X, X), plus(ZERO, ONE)) is None
    # occurs check
    assert unify(X, plus(X, ZERO)) is None


@settings(max_examples=100)
@given(terms_strategy, terms_strategy)
def test_unify_produces_a_unifier(s, t):
    mgu = unify(s, t)
    if mgu is not None:
        assert substitute(s, mgu) == substitute(t, mgu)


@settings(max_examples=100)
@given(terms_strategy, terms_strategy)
def test_match_is_one_sided(pat, subj):
    b = match(pat, subj)
    if b is not None:
        assert substitute(pat, b) == subj


def test_canonical_renaming():
    t1 = plus(var("p4"), var("q7"))
    t2 = plus(X, Y)
    assert (substitute(t1, canonical_renaming([t1]))
            == substitute(t2, canonical_renaming([t2])))


def test_rename_apart():
    c = (((True, ("=", plus(X, Y), Y)),))
    r = rename_apart(c)
    used = set()
    for _, atom in r:
        used |= term_vars(atom[1]) | term_vars(atom[2])
    assert used == {"_x", "_y"}
    # the parser reads an underscored name as a constant
    from hooplab.syntax import Theory, parse_term_text
    assert parse_term_text("_x", Theory()) == ("_x",)


PREC = {"0": 0, "1": 1, "+": 2, "~": 3}


def test_lpo_orientation():
    # x + 0 > x, and the subterm property
    assert lpo_gt(plus(X, ZERO), X, PREC)
    assert not lpo_gt(X, plus(X, ZERO), PREC)
    # irreflexive
    assert not lpo_gt(X, X, PREC)
    assert not lpo_gt(plus(X, ZERO), plus(X, ZERO), PREC)
    # variables are incomparable with fresh variables
    assert not lpo_gt(X, Y, PREC) and not lpo_gt(Y, X, PREC)


@settings(max_examples=60)
@given(terms_strategy, terms_strategy)
def test_lpo_antisymmetric(s, t):
    if lpo_gt(s, t, PREC):
        assert not lpo_gt(t, s, PREC)


def _lpo_by_definition(s, t, prec):
    """The textbook LPO: every case of the definition, tried in order."""
    if s == t:
        return False
    if t[0] == "V":
        return t[1] in term_vars(s)
    if s[0] == "V":
        return False
    if any(a == t or _lpo_by_definition(a, t, prec) for a in s[1:]):
        return True
    if prec[s[0]] > prec[t[0]]:
        return all(_lpo_by_definition(s, b, prec) for b in t[1:])
    if s[0] == t[0] and len(s) == len(t):
        for a, b in zip(s[1:], t[1:]):
            if a != b:
                return (_lpo_by_definition(a, b, prec)
                        and all(_lpo_by_definition(s, c, prec)
                                for c in t[1:]))
    return False


@settings(max_examples=300)
@given(terms_strategy, terms_strategy)
def test_lpo_matches_definition(s, t):
    assert lpo_gt(s, t, PREC) == _lpo_by_definition(s, t, PREC)
    assert lpo_gt(plus(s, t), plus(t, s), PREC) \
        == _lpo_by_definition(plus(s, t), plus(t, s), PREC)


def test_clause_weight_counts_symbols():
    c = ((True, ("=", plus(X, ZERO), X)),)
    assert clause_weight(c) == 4


def test_canonical_clause_is_renaming_invariant():
    c1 = ((True, ("=", plus(var("u1"), var("w2")), var("u1"))),)
    c2 = ((True, ("=", plus(X, Y), X)),)
    assert canonical_clause(c1) == canonical_clause(c2)


# variables named as in canonical clauses and as in a renamed-apart copy
_mixed_terms = st.recursive(
    st.sampled_from([X, Y, Z, var("_x"), var("_y"), ZERO]),
    lambda sub: st.builds(plus, sub, sub) | st.builds(minus, sub, sub),
    max_leaves=5)
_literals = st.tuples(st.booleans(), st.sampled_from(["=", ">="]),
                      _mixed_terms, _mixed_terms).map(
    lambda l: (l[0], (l[1], l[2], l[3])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_literals, max_size=3), _mixed_terms, _mixed_terms)
# a bound variable whose value holds a variable that also occurs unbound
@example([(True, ("=", plus(var("_x"), X), Y))], plus(X, Y),
         plus(minus(Y, var("_y")), Z))
def test_canonical_instance_is_canonical_clause_of_the_instance(clause, s, t):
    b = unify(s, t)
    if b is None:
        b = {}
    inst = substitute_clause(clause, b)
    # canonical_clause by its definition, apart from the shared walk
    want = substitute_clause(inst, canonical_renaming(
        [t for _, atom in inst for t in atom[1:]]))
    assert canonical_instance(clause, b) == canonical_clause(inst) == want


def test_clausify_equation():
    f = ("atom", ("=", plus(X, Y), plus(Y, X)))
    cls = clausify(f, "assumption")
    assert cls == [((True, ("=", plus(X, Y), plus(Y, X))),)]


def test_clausify_iff_gives_two_clauses():
    f = ("iff", ("atom", (">=", X, Y)),
         ("atom", ("=", minus(Y, X), ZERO)))
    cls = clausify(f, "assumption")
    assert len(cls) == 2
    for c in cls:
        assert len(c) == 2


def test_clausify_denied_goal_introduces_constants():
    f = ("atom", ("=", plus(X, X), X))
    cls = clausify(f, "denied_goal")
    assert len(cls) == 1
    (lit,) = cls[0]
    assert lit[0] is False
    assert not term_vars(lit[1][1])  # variables became Skolem constants


def test_clausify_skolem_constants_by_first_occurrence():
    # y >= x -> x = z: the denial is y >= x & x != z
    f = ("imp", ("atom", (">=", Y, X)), ("atom", ("=", X, Z)))
    c1, c2, c3 = ("c1",), ("c2",), ("c3",)
    assert clausify(f, "denied_goal") == [((True, (">=", c1, c2)),),
                                          ((False, ("=", c2, c3)),)]


def test_clausify_skolem_names_skip_taken_symbols():
    f = ("atom", ("=", plus(X, Y), X))
    (lit,), = clausify(f, "denied_goal", {"c1", "c3", "+"})
    assert lit == (False, ("=", plus(("c2",), ("c4",)), ("c2",)))
