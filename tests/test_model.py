"""Finite models: evaluation, satisfaction, isomorphism, serialization."""

from itertools import permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hooplab.chains import lemma_corpus
from hooplab.hoops import (
    DEFINITIONS, builtin_theory, derived_tables, lukasiewicz,
)
from hooplab.model import (
    FiniteModel, ModelError, _compiled, deserialize_model, isomorphic,
    serialize_model, unflatten,
)
from hooplab.search import SearchOptions, enumerate_models
from hooplab.syntax import Theory, parse_formula_text, parse_source
from hooplab.terms import formula_atoms, formula_vars

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
    # a relation given by 0/1 entries still yields bools
    m01 = FiniteModel(2, {"0": 0}, {}, {">=": ((1, 0), (1, 1))})
    assert m01.holds({"x": 1}, f("x >= 0")) is True
    assert m01.holds({"x": 1}, f("0 >= x")) is False


def test_uninterpreted_symbol_error():
    with pytest.raises(ModelError):
        L3.eval_term({}, ("mystery", ("0",)))
    # a numeral is a constant like any other, not the element it spells
    with pytest.raises(ModelError, match="constant '2'"):
        L3.eval_term({}, ("2",))
    # a table is read only at the arity it has
    with pytest.raises(ModelError, match="'\\+' has arity 2, used with 1"):
        L3.eval_term({"x": 0}, ("+", ("V", "x")))


def test_uninterpreted_symbols_fail_only_when_reached():
    x = ("V", "x")
    true = ("atom", ("=", x, x))
    mystery = ("atom", ("=", ("mystery", x), ("0",)))
    bare = ("atom", ("p", x))
    # short-circuited operands are never evaluated
    assert L3.satisfies(("or", true, mystery))
    assert L3.satisfies(("or", true, bare))
    assert not L3.satisfies(("and", ("not", true), mystery))
    assert L3.satisfies(("imp", ("not", true), bare))
    assert L3.counterexample_env(("and", ("not", true), bare)) == {"x": 0}
    for f in (("or", mystery, true), ("and", true, mystery), bare,
              ("not", bare)):
        with pytest.raises(ModelError):
            L3.satisfies(f)
    # a function's arguments are evaluated before its own table is sought
    with pytest.raises(ModelError, match="constant 'c'"):
        L3.eval_term({}, ("mystery", ("c",)))
    with pytest.raises(ModelError, match="relation 'p'"):
        L3.holds({"x": 0}, ("atom", ("p", ("mystery", x))))


def _ref_term(m, env, t):
    if t[0] == "V":
        return env[t[1]]
    if len(t) == 1:
        return m.constants[t[0]]
    v = m.fun_tables[t[0]]
    for a in t[1:]:
        v = v[_ref_term(m, env, a)]
    return v


def _ref_holds(m, env, f):
    """A plain recursive evaluator, the reference for FiniteModel's."""
    if f[0] == "atom":
        rel, l, r = f[1]
        a, b = _ref_term(m, env, l), _ref_term(m, env, r)
        return a == b if rel == "=" else m.rel_tables[rel][a][b]
    if f[0] == "not":
        return not _ref_holds(m, env, f[1])
    a, b = _ref_holds(m, env, f[1]), _ref_holds(m, env, f[2])
    return {"and": a and b, "or": a or b, "imp": not a or b,
            "iff": a == b}[f[0]]


# hoops of sizes 1-5 with their defined tables, as the search builds them
_HOOPS = [m for n in range(1, 6)
          for m in enumerate_models(builtin_theory("hoop_defs"),
                                    SearchOptions(n, upto_iso=True))]
_terms = st.recursive(
    st.sampled_from([("V", "x"), ("V", "y"), ("V", "z"), ("0",), ("1",)]),
    lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(["+", "~", "cup", "cap", "\\", "nand"]),
                  sub, sub)),
    max_leaves=5)
_formulas = st.recursive(
    st.tuples(st.just("atom"),
              st.tuples(st.sampled_from(["=", ">="]), _terms, _terms)),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), sub, sub)),
    max_leaves=4)


@st.composite
def built_hoop(draw):
    """(m, q, p): a hoop m from the search, and q, the same hoop built by
    the search, by m.permuted(p) or by deserialize_model, with p the
    relabeling that takes m to q."""
    m = draw(st.sampled_from(_HOOPS))
    same = list(range(m.size))
    how = draw(st.sampled_from(["search", "permuted", "deserialized"]))
    if how == "permuted":
        p = draw(st.permutations(same))
        return m, m.permuted(p), p
    if how == "deserialized":
        return m, deserialize_model(serialize_model(m)), same
    return m, m, same


@settings(max_examples=300, deadline=None)
@given(built_hoop(), _formulas)
def test_evaluator_agrees_with_reference(built, f):
    """The evaluator on q's flat tables agrees with the reference on m's
    nested ones and on q's, and q's defined tables with the reference on
    each definition body."""
    m, q, p = built
    names = sorted(formula_vars(f))
    envs = [dict(zip(names, vals))
            for vals in product(range(m.size), repeat=len(names))]
    moved = [{v: p[x] for v, x in env.items()} for env in envs]
    want = [_ref_holds(m, env, f) for env in envs]
    assert [_ref_holds(q, env, f) for env in moved] == want
    assert [q.holds(env, f) for env in moved] == want
    assert all(type(q.holds(env, f)) is bool for env in moved)
    assert q.satisfies(f) == all(want)
    # the first failure in product order over q's values
    assert q.counterexample_env(f) == min(
        (env for env, ok in zip(moved, want) if not ok),
        key=lambda env: [env[v] for v in names], default=None)
    for atom in formula_atoms(f):
        for t in atom[1:]:
            assert [q.eval_term(env, t) for env in moved] == \
                [p[_ref_term(m, env, t)] for env in envs]
    for name, (kind, params, body) in DEFINITIONS.items():
        table = (q.fun_tables if kind == "function" else q.rel_tables)[name]
        ref = _ref_term if kind == "function" else _ref_holds
        for args in product(range(q.size), repeat=len(params)):
            assert _at(table, args) == ref(q, dict(zip(params, args)), body)


def test_each_formula_is_compiled_once():
    # one compilation per formula serves every model and every size
    axioms = builtin_theory("hoop").assumptions
    statements = [r.statement for r in lemma_corpus()]
    chains = [lukasiewicz(n) for n in range(2, 9)]
    _compiled.cache_clear()
    for m in chains:
        assert all(m.satisfies(f) for f in axioms)
        d = derived_tables(m)
        assert all(d.satisfies(f) for f in statements)
    info = _compiled.cache_info()
    assert info.misses == len(set(axioms) | set(statements)) \
        + len(DEFINITIONS)
    assert info.maxsize is not None


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


@st.composite
def wide_model_and_perm(draw):
    """A model of size <= 4 with a constant, a unary g, a binary f, a
    ternary h and a binary relation r, and a relabeling of its carrier."""
    n = draw(st.integers(1, 4))

    def table(arity, cell):
        return unflatten(draw(st.lists(cell, min_size=n ** arity,
                                       max_size=n ** arity)), arity, n)
    elem = st.integers(0, n - 1)
    m = FiniteModel(n, {"c": draw(elem)},
                    {"g": table(1, elem), "f": table(2, elem),
                     "h": table(3, elem)},
                    {"r": table(2, st.booleans())})
    return m, draw(st.permutations(range(n)))


def _at(table, args):
    for a in args:
        table = table[a]
    return table


@settings(max_examples=200, deadline=None)
@given(wide_model_and_perm())
def test_permuted_against_its_definition(mp):
    """m.permuted(p) is the image of m under i -> p[i]: c' = p[c],
    f'(p[a], ...) = p[f(a, ...)] and r'(p[a], p[b]) = r(a, b); and the
    relabeling canonical_labeling gives takes m to its key."""
    m, p = mp
    n = m.size
    q = m.permuted(p)
    assert q.constants == {"c": p[m.constants["c"]]}
    for name, arity in (("g", 1), ("f", 2), ("h", 3)):
        for args in product(range(n), repeat=arity):
            assert _at(q.fun_tables[name], [p[a] for a in args]) == \
                p[_at(m.fun_tables[name], args)]
    for a, b in product(range(n), repeat=2):
        assert q.rel_tables["r"][p[a]][p[b]] == m.rel_tables["r"][a][b]
    key, perm = m.canonical_labeling()
    assert m.permuted(perm).encode() == key


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
    # derived_tables adds the relation table >= to the function tables
    for m in (L3, derived_tables(L3)):
        line = serialize_model(m)
        again = deserialize_model(line)
        assert again == m
        assert serialize_model(again) == line
    assert " ; rel/2 >= = " in serialize_model(derived_tables(L3))


@pytest.mark.parametrize("line", [
    "2 ; rel/1 r = 5,7",                   # relation entries are 0 or 1
    "2 ; fun/0 c = 1,0",                   # a constant has one value
    "2 ; fun/0 c = 0 ; fun/0 c = 1",       # each table is given once
])
def test_deserialize_rejects_malformed_tables(line):
    with pytest.raises(ModelError):
        deserialize_model(line)


def test_model_validation():
    with pytest.raises(ModelError):
        FiniteModel(0)
    with pytest.raises(ModelError):
        FiniteModel(2, {"c": 5})
    with pytest.raises(ModelError):
        FiniteModel(2, {}, {"f": ((0, 3), (0, 0))})
    # every row has n places, at every depth
    for n, table in ((3, ((0, 1), (1, 0))), (2, ((0, 1), (1,))),
                     (2, ((0, 1), 1)), (2, (0, (1, 0))), (2, ())):
        with pytest.raises(ModelError, match="table f"):
            FiniteModel(n, {}, {"f": table})
        with pytest.raises(ModelError, match="table r"):
            FiniteModel(n, {}, {}, {"r": table})
    # relation entries are 0 or 1, bools included
    with pytest.raises(ModelError, match="table r"):
        FiniteModel(2, {}, {}, {"r": ((True, 5), (0, 1))})
    m = FiniteModel(2, {}, {}, {"r": ((True, 0), (1, False))})
    assert m.rel_tables["r"] == ((True, False), (True, False))
    assert m.encode() == (1, 0, 1, 0)
    # an assignment outside the carrier is no environment
    with pytest.raises(ModelError, match="variable x"):
        L3.eval_term({"x": 3}, ("+", ("V", "x"), ("0",)))
    with pytest.raises(ModelError, match="permutation"):
        L3.permuted([0, 0, 1])


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
