"""Finite models: evaluation, satisfaction, isomorphism, serialization."""

from itertools import permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hooplab.hoops import builtin_theory, lukasiewicz
from hooplab.model import (
    FiniteModel, ModelError, deserialize_model, isomorphic, serialize_model,
)
from hooplab.search import SearchOptions, enumerate_models
from hooplab.syntax import Theory, parse_formula_text, parse_source

L3 = lukasiewicz(3)


def f(text):
    th = Theory(op_decls=[(500, "infix", "+"), (500, "infix", "~")])
    return parse_formula_text(text, th)


def test_eval_term_tables():
    # 1 + 1 saturates at the top in L_3
    assert L3.eval_term({}, ("+", ("1",), ("1",))) == 2
    assert L3.eval_term({"x": 1}, ("~", ("V", "x"), ("V", "x"))) == 0


def test_holds_and_satisfies():
    assert L3.satisfies(f("x ~ x = 0"))
    assert L3.satisfies(f("x + y = y + x"))
    assert not L3.satisfies(f("x + x = x"))


def test_counterexample_env():
    env = L3.counterexample_env(f("x + x = x"))
    assert env is not None
    assert L3.eval_term(env, ("+", ("V", "x"), ("V", "x"))) != env["x"]
    assert L3.counterexample_env(f("x ~ x = 0")) is None


def test_relations():
    m = FiniteModel(2, {"0": 0}, {},
                    {">=": ((True, False), (True, True))})
    assert m.satisfies(f("x >= 0"))
    assert not m.satisfies(f("0 >= x"))


def test_uninterpreted_symbol_error():
    with pytest.raises(ModelError):
        L3.eval_term({}, ("mystery", ("0",)))


def test_isomorphic_permutation():
    perm = [2, 1, 0]  # relabel but keep structure
    m2 = L3.permuted(perm)
    assert isomorphic(L3, m2)
    assert not isomorphic(L3, lukasiewicz(4))


def test_isomorphic_distinguishes_structure():
    a = FiniteModel(2, {}, {"f": ((0, 0), (0, 0))})
    b = FiniteModel(2, {}, {"f": ((0, 1), (1, 0))})
    assert not isomorphic(a, b)


@st.composite
def model_and_perm(draw):
    """A model of size <= 4 with a constant, a binary operation and a
    binary relation, and a relabeling of its carrier."""
    n = draw(st.integers(1, 4))

    def table(cell):
        return draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    m = FiniteModel(n, {"c": draw(st.integers(0, n - 1))},
                    {"f": table(st.integers(0, n - 1))},
                    {"r": table(st.booleans())})
    return m, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(model_and_perm())
def test_isomorphic_finds_a_relabeling(mp):
    m, p = mp
    q = isomorphic(m, m.permuted(p))
    assert q is not None
    assert m.permuted(q) == m.permuted(p)


def _brute_key(m):
    """The least encoding over all n! relabelings."""
    return min(m.permuted(p).encode() for p in permutations(range(m.size)))


@st.composite
def symmetric_model(draw, n):
    """A model of size n with constants c and d, a unary g, a binary f and
    a binary relation r, all invariant under a drawn relabeling sigma that
    fixes the constants.  For sigma other than the identity, sigma is a
    nontrivial automorphism, so no invariant splits its orbits and
    refinement leaves classes of size > 1."""
    c, d = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    moved = [e for e in range(n) if e not in (c, d)]
    sigma = list(range(n))
    for e, img in zip(moved, draw(st.permutations(moved))):
        sigma[e] = img

    def table(arity, is_fun):
        out = {}
        for args in product(range(n), repeat=arity):
            if args in out:
                continue
            orbit = [args]
            while True:
                nxt = tuple(sigma[x] for x in orbit[-1])
                if nxt == args:
                    break
                orbit.append(nxt)
            if is_fun:
                # the value's orbit must divide the argument orbit
                fixed = []
                for v in range(n):
                    w = v
                    for _ in orbit:
                        w = sigma[w]
                    if w == v:
                        fixed.append(v)
                v = draw(st.sampled_from(fixed))
            else:
                v = draw(st.booleans())
            for t in orbit:
                out[t] = v
                if is_fun:
                    v = sigma[v]
        flat = [out[t] for t in product(range(n), repeat=arity)]
        return (tuple(flat) if arity == 1 else
                tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))

    return FiniteModel(n, {"c": c, "d": d},
                       {"g": table(1, True), "f": table(2, True)},
                       {"r": table(2, False)})


@st.composite
def model_pair(draw):
    """Two models of size <= 5 over one signature: a symmetric model and
    a relabeled copy, a copy with one cell changed, or another model."""
    n = draw(st.integers(1, 5))
    m = draw(symmetric_model(n))
    kind = draw(st.sampled_from(["copy", "mutant", "other"]))
    if kind == "other":
        other = draw(symmetric_model(n))
    else:
        other = m
        if kind == "mutant":
            f = [list(row) for row in m.fun_tables["f"]]
            f[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
                draw(st.integers(0, n - 1))
            other = FiniteModel(n, m.constants,
                                {"g": m.fun_tables["g"], "f": f},
                                m.rel_tables)
    return m, other.permuted(draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(model_pair())
def test_canonical_labeling_against_brute_force(pair):
    m1, m2 = pair
    (key1, perm1), (key2, perm2) = (m1.canonical_labeling(),
                                    m2.canonical_labeling())
    assert (key1 == key2) == (_brute_key(m1) == _brute_key(m2))
    for m, key, perm in ((m1, key1, perm1), (m2, key2, perm2)):
        assert m.permuted(perm).encode() == key
        form = m.canonical_form()
        assert form.canonical_form() == form
        named = list(dict.fromkeys(m.constants.values()))
        assert [perm[e] for e in named] == list(range(len(named)))


def test_isomorphic_classes_of_labelled_hoops():
    hoop = builtin_theory("hoop")
    reps = list(enumerate_models(hoop, SearchOptions(4, upto_iso=True)))
    labelled = list(enumerate_models(hoop, SearchOptions(4)))
    assert (len(reps), len(labelled)) == (5, 108)
    for m in labelled:
        assert sum(1 for r in reps if isomorphic(m, r) is not None) == 1


def test_isomorphic_rejects_signature_mismatch():
    with pytest.raises(ModelError):
        isomorphic(L3, FiniteModel(3, {"0": 0}, dict(L3.fun_tables)))


def test_canonical_form_is_invariant():
    m2 = L3.permuted([1, 2, 0])
    assert L3.canonical_form() == m2.canonical_form()


def test_serialize_roundtrip():
    line = serialize_model(L3)
    again = deserialize_model(line)
    assert again == L3
    assert serialize_model(again) == line


def test_model_validation():
    with pytest.raises(ModelError):
        FiniteModel(0)
    with pytest.raises(ModelError):
        FiniteModel(2, {"c": 5})
    with pytest.raises(ModelError):
        FiniteModel(2, {}, {"f": ((0, 3), (0, 0))})


def test_extend_appends_defined_tables_in_order():
    th = parse_source("""
op(500, infix, "~").
op(500, infix, "cap").
formulas(assumptions).
   x' = 1 ~ x.
   x cap y = x ~ (x ~ y').
   x >= y <-> y ~ x = 0.
end_of_list.
""")
    defs, _ = th.definitions()
    m = L3.extend(defs)
    assert m.function_names() == ["+", "~", "neg", "cap"]
    assert m.relation_names() == [">="]
    assert m.fun_tables["neg"] == (2, 1, 0)
    # cap's body reads neg, computed just before it
    assert m.fun_tables["cap"][2][2] == 0
    assert m.rel_tables[">="] == ((True, False, False), (True, True, False),
                                  (True, True, True))
    assert L3.function_names() == ["+", "~"]
    for f in th.assumptions:
        assert m.satisfies(f)
