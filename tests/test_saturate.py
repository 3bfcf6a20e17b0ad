"""Saturation prover: outcomes, proof objects, verification, transforms,
text format, mining."""

import itertools
import os

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hooplab import saturate
from hooplab.chains import lemma_corpus, lemma_theory
from hooplab.hoops import builtin_theory
from hooplab.saturate import (
    Proof, ProofStep, ProverError, ProverLimits, ProverStats, mine_patterns,
    parse_proof, prove, render_proof, transform_proof, verify_proof,
)
from hooplab.syntax import (
    Theory, TheoryError, parse_formula_text, parse_source,
)
from hooplab.terms import (
    VAR, canonical_clause, lpo_gt, match, positions, rename_apart,
    replace_at, substitute, substitute_clause, subterm_at, term_vars, unify,
    var,
)

SL = builtin_theory("semilattice")
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hooplab",
                    "data")


def data_theory(*names):
    return parse_source("\n".join(open(os.path.join(DATA, n)).read()
                                  for n in names))


def with_goal(base, text):
    th = Theory(op_decls=list(base.op_decls),
                assumptions=list(base.assumptions))
    th.goals.append(parse_formula_text(text, th))
    return th


def test_idempotency_goal_proved():
    th = with_goal(SL, "x cup (x cup x) = x")
    out = prove(th, ProverLimits(max_given=10))
    assert out.status == "proved"
    assert out.proof.steps[-1].clause == ()
    ok, report = verify_proof(th, out.proof)
    assert ok, report


def test_transitivity_proved():
    th = with_goal(builtin_theory("semilattice_ge"),
                   "x >= y & y >= z -> x >= z")
    out = prove(th, ProverLimits(max_given=60))
    assert out.status == "proved"
    assert verify_proof(th, out.proof)[0]


def test_total_order_never_proved():
    th = with_goal(builtin_theory("semilattice_ge"), "x >= y | y >= x")
    out = prove(th, ProverLimits(max_seconds=5, max_given=2000))
    assert out.status in ("exhausted", "limit")


def test_limit_reached_reports_which():
    th = with_goal(builtin_theory("hoop"),
                   "(x + (y ~ x)) + (z ~ (x + (y ~ x))) = "
                   "x + ((y + (z ~ y)) ~ x)")
    out = prove(th, ProverLimits(max_given=5))
    assert out.status == "limit"
    assert out.which == "max_given"


def test_bad_limits_rejected():
    with pytest.raises(ProverError):
        ProverLimits(max_seconds=-1)


# the fields of each operation after its kind: d a cited step id, l a
# literal index, s a side, p a path; rewrite entries are (d, l, p, s)
_FIELD_ROLES = {"deny": "d", "copy": "d", "xx": "l",
                "para": "dsdlp", "resolve": "dldl", "factor": "dll"}


def _field_mutants(fields, roles, earlier):
    """(category, fields with one field changed): a step id to each other
    earlier id, a literal index or a path entry + 1, a side swapped."""
    for k, (v, role) in enumerate(zip(fields, roles)):
        if role == "d":
            news = [("id", e) for e in earlier if e != v]
        elif role == "l":
            news = [("lit", v + 1)]
        elif role == "s":
            news = [("side", "r" if v == "l" else "l")]
        else:
            news = [("path", v[:j] + (v[j] + 1,) + v[j + 1:])
                    for j in range(len(v))]
        for cat, new in news:
            yield cat, fields[:k] + (new,) + fields[k + 1:]


def _op_mutants(op, earlier):
    """(category, mutated op, equation it applies or None)."""
    if op[0] == "rewrite":
        entries = op[1]
        for i, entry in enumerate(entries):
            for cat, new in _field_mutants(entry, "dlps", earlier):
                yield (cat, ("rewrite", entries[:i] + [new] + entries[i + 1:]),
                       entry[0])
    elif op[0] in _FIELD_ROLES:
        for cat, new in _field_mutants(op[1:], _FIELD_ROLES[op[0]], earlier):
            yield cat, op[:1] + new, op[1] if op[0] == "para" else None


def _clause_mutants(clause):
    """The clause with one non-variable subterm replaced by 0, for each
    position of such a subterm that is not already 0."""
    zero = ("0",)
    for li, (pol, atom) in enumerate(clause):
        for path in positions(atom):
            sub = subterm_at(atom, path)
            if path and sub[0] != VAR and sub != zero:
                yield (clause[:li] + ((pol, replace_at(atom, path, zero)),)
                       + clause[li + 1:])


def _var_mutants(clause):
    """The clause with one variable occurrence replaced by another
    variable of the clause or by a fresh one, for each occurrence."""
    names = sorted({v for _, atom in clause for t in atom[1:]
                    for v in term_vars(t)})
    for li, (pol, atom) in enumerate(clause):
        for path in positions(atom):
            sub = subterm_at(atom, path)
            if not path or sub[0] != VAR:
                continue
            for name in names + ["fresh"]:
                if name != sub[1]:
                    yield (clause[:li]
                           + ((pol, replace_at(atom, path, var(name))),)
                           + clause[li + 1:])


def _flip_symmetric(clause):
    """Whether a unit equation s = t is a variant of t = s."""
    (pol, (_, s, t)), = clause
    return canonical_clause(((pol, ("=", s, t)),)) \
        == canonical_clause(((pol, ("=", t, s)),))


def test_verify_rejects_mutations():
    """Every cited step id changed to another earlier one, every literal
    index and path entry raised by one, and every side swapped is rejected
    with a step report.  The one exception is a side swap on an equation
    whose sides are variants (x + y = y + x): both directions give the
    same rewrite.  A derived step whose stated clause has one subterm
    replaced by 0, or one variable occurrence replaced by another or a
    fresh variable, is rejected at that step, too, unless the new clause
    is a variant of the old one."""
    tried = {}
    for files in (("semilattice.ax", "sl-pr1.gl"),
                  ("semilattice.ax", "sl-ge-def.ax", "sl-trans.gl"),
                  ("hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl"),
                  ("hoop.ax", "hoop-ge-def.ax", "hp-sum-lemma.gl")):
        th = data_theory(*files)
        out = prove(th, ProverLimits(max_given=70))
        assert out.status == "proved", files[-1]
        steps = out.proof.steps
        by_id = out.proof.step_map()
        for si, step in enumerate(steps):
            earlier = [s.id for s in steps[:si]]
            for oi, op in enumerate(step.justification):
                for cat, new, eq in _op_mutants(op, earlier):
                    just = list(step.justification)
                    just[oi] = new
                    broken = Proof(steps[:si] + [ProofStep(
                        step.id, step.clause, just, step.formula)]
                        + steps[si + 1:])
                    ok, report = verify_proof(th, broken)
                    tried[cat, ok] = tried.get((cat, ok), 0) + 1
                    if ok:
                        assert cat == "side" and _flip_symmetric(
                            by_id[eq].clause), (files[-1], step.id, new)
                    else:
                        assert report.startswith("step %d" % step.id)
            if step.justification[0][0] in ("goal", "assumption", "deny"):
                continue
            key = canonical_clause(step.clause)
            for cat, clause in (
                    [("clause", c) for c in _clause_mutants(step.clause)]
                    + [("var", c) for c in _var_mutants(step.clause)]):
                broken = Proof(steps[:si] + [ProofStep(
                    step.id, clause, step.justification, step.formula)]
                    + steps[si + 1:])
                ok, report = verify_proof(th, broken)
                tried[cat, ok] = tried.get((cat, ok), 0) + 1
                assert ok == (canonical_clause(clause) == key) and (
                    ok or report.startswith("step %d: " % step.id)), \
                    (files[-1], step.id, clause)
    assert {cat for cat, ok in tried if not ok} \
        == {"id", "lit", "path", "side", "clause", "var"}


def test_verify_rejects_malformed_proof_objects():
    th = with_goal(SL, "x cup (x cup x) = x")
    proof = prove(th, ProverLimits(max_given=10)).proof
    last = proof.steps[-1]
    for just in ([], [("resolve", 4, 0)], [("factor", 5)],
                 [("copy", -1)], [("para", 4, "q", 3, 0, (1,))],
                 [("para", 4, "l", 3, 0, ())], [("rewrite", [(4, 0)])],
                 [("copy", 4), ("xx", "0")], [("frobnicate", 4)],
                 [("copy", 4), ("flip", 0)]):
        broken = Proof(proof.steps[:-1] + [ProofStep(last.id, (), just)])
        assert verify_proof(th, broken) == (
            False, "step %d: malformed justification" % last.id)
    # literal indices and paths out of range for the cited clause
    # (4 x cup x = x, 5 c1 cup (c1 cup c1) != c1)
    for just in ([("copy", 5), ("xx", 7)], [("factor", 5, 0, 9)],
                 [("copy", 5), ("rewrite", [(4, 3, (1,), "l")])],
                 [("para", 4, "l", 5, 0, (1, 5))],
                 [("para", 4, "l", 5, 0, (1, 1, 1))]):
        ok, report = verify_proof(th, Proof(
            proof.steps[:-1] + [ProofStep(last.id, (), just)]))
        assert not ok and report.startswith("step %d: " % last.id)
        assert "out of range" in report
    # malformed stated clauses
    for clause in (None, ((True,),), 5):
        ok, report = verify_proof(th, Proof(proof.steps[:-2] + [
            ProofStep(5, clause, [("deny", 1)]), last]))
        assert not ok and report.startswith("step 5: ")


def test_verify_rejects_a_repeated_step_id():
    # two proofs in one file each number their steps from 1; a later step
    # must not take the place of an earlier one with the same id
    th = with_goal(SL, "x cup (x cup x) = x")
    proof = prove(th, ProverLimits(max_given=10)).proof
    assert verify_proof(th, proof) == (True, "ok")
    assert verify_proof(th, Proof(proof.steps + proof.steps)) == (
        False, "step id %d is used twice" % proof.steps[0].id)


def test_verify_rejects_factor_of_one_literal():
    # factoring a literal with itself would drop it: this "proves" c = d
    # from a = b | c = d
    th = parse_source("""
formulas(assumptions).
   a = b | c = d.
end_of_list.
formulas(goals).
   c = d.
end_of_list.
""")
    proof = parse_proof("""1 c = d # label(non_clause) # label(goal).  [goal].
2 c != d.  [deny(1)].
3 a = b | c = d.  [assumption].
4 c = d.  [factor(3,0,0)].
5 $F.  [resolve(4,0,2,0)].
""", th)
    assert verify_proof(th, proof) == (
        False, "step 4: factor needs two distinct literals")


def test_verify_accepts_a_factor_step():
    th = parse_source("""
formulas(assumptions).
   f(x) = a | f(y) = a.
end_of_list.
formulas(goals).
   f(b) = a.
end_of_list.
""")
    proof = parse_proof("""1 f(b) = a # label(non_clause) # label(goal).  [goal].
2 f(b) != a.  [deny(1)].
3 f(x) = a | f(y) = a.  [assumption].
4 f(x) = a.  [factor(3,0,1)].
5 $F.  [resolve(4,0,2,0)].
""", th)
    assert verify_proof(th, proof)[0]
    # each field of the factor step changed on its own is rejected there
    steps = proof.steps
    step = steps[3]
    mutants = list(_field_mutants(step.justification[0][1:], "dll",
                                  [s.id for s in steps[:3]]))
    assert {cat for cat, _ in mutants} == {"id", "lit"}
    for _, fields in mutants:
        broken = Proof(steps[:3] + [ProofStep(step.id, step.clause,
                                              [("factor",) + fields])]
                       + steps[4:])
        ok, report = verify_proof(th, broken)
        assert not ok and report.startswith("step 4: "), fields
        if fields[0] == 1:
            assert report == ("step 4: step 1 is the goal, which has no "
                              "clause; only deny may cite it")


def test_transform_renumber():
    th = with_goal(SL, "x cup (x cup x) = x")
    proof = prove(th, ProverLimits(max_given=10)).proof
    ren = transform_proof(proof, "renumber")
    assert [s.id for s in ren.steps] == list(range(1, len(ren.steps) + 1))
    assert verify_proof(th, ren)[0]
    again = transform_proof(ren, "renumber")
    assert [s.id for s in again.steps] == [s.id for s in ren.steps]


def _theorem(assumptions, goal):
    return parse_source("formulas(assumptions).\n%s\nend_of_list.\n"
                        "formulas(goals).\n%s\nend_of_list.\n"
                        % (assumptions, goal))


# theorems whose proofs rewrite
_REWRITING = [
    with_goal(SL, "x cup (x cup x) = x"),
    # an xx before the rewrite
    _theorem("f(c) = d.  x != c | g(f(x)) = b.", "g(d) = b."),
    # a rewrite makes two literals equal
    _theorem("c = a.  c >= b | a >= b | c >= d.", "a >= b | a >= d."),
    # a rewrite makes the second literal equal to the first, whose later
    # entries its own entries repeat
    _theorem("c = a.  g(g(x)) = g(x).  g(g(c)) >= b | g(g(a)) >= b | d >= e.",
             "g(a) >= b | d >= e."),
]


def test_transform_expand_rewrites():
    for th in _REWRITING:
        proof = prove(th, ProverLimits(max_given=10)).proof
        assert any(op[0] == "rewrite" for s in proof.steps
                   for op in s.justification)
        exp = transform_proof(proof, "expand_rewrites")
        assert not [op for s in exp.steps for op in s.justification
                    if op[0] == "rewrite"], th.goals
        assert verify_proof(th, exp) == (True, "ok"), th.goals
        assert [s.id for s in exp.steps] \
            == list(range(1, len(exp.steps) + 1))
    # an xx between two rewrites becomes a step of its own
    th = _theorem("c = a.  f(a) = d.  a != c | g(f(c)) = b.", "g(d) = b.")
    proof = parse_proof("""1 g(d) = b # label(non_clause) # label(goal).  [goal].
2 c = a.  [assumption].
3 f(a) = d.  [assumption].
4 a != c | g(f(c)) = b.  [assumption].
5 g(d) != b.  [deny(1)].
6 g(d) = b.  [copy(4),rewrite([2(0,2,l)]),xx(0),rewrite([2(0,1.1.1,l),3(0,1.1,l)])].
7 $F.  [copy(5),rewrite([6(0,1,l)]),xx(0)].
""", th)
    exp = transform_proof(proof, "expand_rewrites")
    assert verify_proof(th, exp) == (True, "ok")
    assert [s.justification for s in exp.steps[5:9]] == [
        [("copy", 4)], [("para", 2, "l", 6, 0, (2,))],
        [("copy", 7), ("xx", 0)], [("para", 2, "l", 8, 0, (1, 1, 1))]]


def test_proof_text_roundtrip():
    th = with_goal(SL, "x cup (x cup x) = x")
    proof = prove(th, ProverLimits(max_given=10)).proof
    text = render_proof(proof, th)
    assert "$F" in text
    assert "[goal]" in text
    again = parse_proof(text, th)
    assert verify_proof(th, again)[0]
    assert render_proof(again, th) == text


def test_parse_proof_rejects_garbage():
    for text in ("",
                 "# metadata only\n\n# no step line",
                 "1 nonsense without a period",
                 "5 $F.  [para(4,l,5)].",              # too few fields
                 "5 $F.  [resolve(4,0)].",
                 "5 $F.  [factor(5)].",
                 "5 $F.  [copy(4,5)].",                # too many
                 "5 $F.  [rewrite([4(0,1)])].",
                 "5 $F.  [para(4,q,3,0,1)].",          # side neither l nor r
                 "5 $F.  [rewrite([4(0,1,x)])].",
                 "5 $F.  [copy(-1)].",                 # negative number
                 "5 $F.  [copy(4),xx(a)].",            # not a number
                 "5 $F.  [copy(4),flip(0)].",          # no such operation
                 "5 $F.  [para(4,l,3,0,1.0)].",        # path entry 0
                 "5 $F.  [para(4,l,3,0,)].",           # empty path
                 "5 $F.  [copy(4]."):
        with pytest.raises(ProverError):
            parse_proof(text, SL)


def test_determinism():
    th = with_goal(SL, "x cup (x cup x) = x")
    a = prove(th, ProverLimits(max_given=10)).proof
    b = prove(th, ProverLimits(max_given=10)).proof
    assert render_proof(a, th) == render_proof(b, th)


def test_mine_patterns():
    th = with_goal(SL, "(x cup y) cup (x cup y) = y cup x")
    proof = prove(th, ProverLimits(max_given=10)).proof
    pats = mine_patterns(proof, min_count=2, min_size=3)
    assert all(count >= 2 for _, count in pats)
    assert any("cup" in str(pat) for pat, _ in pats)
    assert mine_patterns(proof, min_count=10 ** 6, min_size=1) == []


def test_soundness_on_models():
    """Every Skolem-free step clause of a hoop proof holds in every hoop of
    size <= 3 (clauses descending from the denial mention Skolem constants
    and are exempt: they are contradictory with the theory by design)."""
    from hooplab.model import ModelError
    from hooplab.search import SearchOptions, enumerate_models
    from hooplab.terms import lit_vars

    hoop = builtin_theory("hoop")
    th = with_goal(hoop, "x + (y ~ x) = y + (x ~ y)")
    proof = prove(th, ProverLimits(max_given=10)).proof
    models = list(enumerate_models(hoop, SearchOptions(3, upto_iso=True)))
    checked = 0
    for step in proof.steps:
        if not step.clause:
            continue
        clause_vars = set()
        for lit in step.clause:
            clause_vars |= lit_vars(lit)
        for m in models:
            try:
                for env in _environments(sorted(clause_vars), m.size):
                    ok = False
                    for pol, atom in step.clause:
                        if m.eval_atom(env, atom) == pol:
                            ok = True
                            break
                    assert ok, (step.id, env)
                checked += 1
            except ModelError:
                break  # mentions a Skolem constant
    assert checked > 0


def _environments(names, n):
    import itertools
    for vals in itertools.product(range(n), repeat=len(names)):
        yield dict(zip(names, vals))


def test_ac_symbols_need_both_axioms():
    from hooplab.saturate import _ac_symbols
    from hooplab.terms import clausify

    def units(th):
        return [cl for f in th.assumptions
                for cl in clausify(f, "assumption")]

    assert _ac_symbols(units(builtin_theory("hoop"))) == {"+"}
    assert _ac_symbols(units(SL)) == {"cup"}
    comm_only = parse_source('op(500, infix, "*").\n'
                             "formulas(assumptions).\n"
                             "   x * y = y * x.\nend_of_list.\n")
    assert _ac_symbols(units(comm_only)) == set()


def test_skolem_constants_avoid_theory_symbols():
    # the denial of f(x) = c1 must not reuse the theory's own c1: f(c1) = c1
    # does not entail f(x) = c1 (a two-element countermodel)
    th = parse_source("""
formulas(assumptions).
   f(c1) = c1.
end_of_list.
formulas(goals).
   f(x) = c1.
end_of_list.
""")
    assert prove(th, ProverLimits(max_given=100)).status != "proved"
    colliding = parse_proof("""1 f(x) = c1 # label(non_clause) # label(goal).  [goal].
2 f(c1) = c1.  [assumption].
3 f(c1) != c1.  [deny(1)].
4 $F.  [copy(3),rewrite([2(0,1,l)]),xx(0)].
""", th)
    assert verify_proof(th, colliding) == (
        False, "step 3 does not deny the goal")


def test_equation_with_a_variable_side():
    # x = d has a bare variable as a side; back-simplification looks up
    # its instances among all stored terms
    th = parse_source("""
formulas(assumptions).
   f(y) = c.
   x = d.
end_of_list.
formulas(goals).
   f(c) = d.
end_of_list.
""")
    out = prove(th, ProverLimits(max_given=100))
    assert out.status in ("proved", "exhausted", "limit")
    if out.status == "proved":
        ok, report = verify_proof(th, out.proof)
        assert ok, report


def test_no_rewrite_captures_a_clause_variable():
    # g(y) = f(x) read as f(x) -> g(y) would rewrite p(f(h(y))) to
    # p(g(y)) only by capturing the clause's y; verify_proof renames the
    # equation apart and rejects such a rewrite, so it is never made
    th = parse_source("""
formulas(assumptions).
   g(y) = f(x).
   p(f(h(y))) | q(y).
end_of_list.
formulas(goals).
   p(g(b)) | q(b).
end_of_list.
""")
    out = prove(th, ProverLimits(max_given=100))
    assert out.status == "proved"
    ok, report = verify_proof(th, out.proof)
    assert ok, report


_SL_IDEMPOTENT = """1 x cup (x cup x) = x # label(non_clause) # label(goal).  [goal].
4 x cup x = x.  [assumption].
5 c1 cup (c1 cup c1) != c1.  [deny(1)].
"""
# the denial of a conjunction is a non-unit clause
_SL_BOTH = """1 x cup x = x & y cup y = y # label(non_clause) # label(goal).  [goal].
4 x cup x = x.  [assumption].
5 c1 cup c1 != c1 | c2 cup c2 != c2.  [deny(1)].
"""


@pytest.mark.parametrize("head, last, report", [
    (_SL_BOTH, "[copy(4),rewrite([5(0,1,l)])]",
     "demodulator 5 is not a positive unit equation"),
    (_SL_BOTH, "[para(5,l,4,0,1)]",
     "para source 5 is not a positive unit equation"),
    # x -> x cup x makes c1 larger
    (_SL_IDEMPOTENT, "[copy(5),rewrite([4(0,2,r)])]",
     "rewrite with demodulator 4 does not decrease the ordering"),
    # position 1.1 of x cup x = x is the variable x
    (_SL_IDEMPOTENT, "[para(4,l,4,0,1.1)]",
     "paramodulation into a variable"),
    (_SL_IDEMPOTENT, "[para(4,l,5,0,2)]", "para source 4 does not unify"),
], ids=["non-unit demodulator", "non-unit para source",
        "increasing rewrite", "para into a variable", "para not unifying"])
def test_verify_rejects_bad_equation_steps(head, last, report):
    goal = head.split(" # ")[0].split(" ", 1)[1]    # the text of step 1
    th = with_goal(SL, goal)
    proof = parse_proof(head + "6 $F.  %s.\n" % last, th)
    assert verify_proof(th, proof) == (False, "step 6: " + report)


# ---------------------------------------------------------------------------
# the prover's fast paths against their definitions

X, Y, Z = var("x"), var("y"), var("z")

_terms = st.recursive(
    st.sampled_from([X, Y, Z, ("a",), ("b",)]),
    lambda sub: (st.builds(lambda s: ("g", s), sub)
                 | st.builds(lambda s, t: ("f", s, t), sub, sub)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=8), _terms)
# non-linear patterns, and query variables that only a pattern variable
# matches
@example([("f", X, X), ("f", X, Y), ("f", ("a",), X), X],
         ("f", Y, Y))
@example([("f", X, X), ("f", ("g", X), Y), ("g", ("a",))],
         ("f", ("g", Z), ("g", Z)))
def test_disc_tree_retrieves_exactly_the_matching_patterns(patterns, term):
    """retrieve returns each stored pattern that terms.match accepts, once,
    with match's binding (its variable names, and their values in the same
    order), and nothing else."""
    tree = saturate._DiscTree()
    for i, pat in enumerate(patterns):
        tree.insert(pat, i)
    got = {}
    for i, names, binds in tree.retrieve(term):
        assert i not in got
        got[i] = dict(zip(names, binds))
    want = {i: b for i, b in ((i, match(pat, term))
                              for i, pat in enumerate(patterns))
            if b is not None}
    assert got == want


def _brute_subsumes(c, d):
    """Whether c has no more literals than d and some substitution maps
    each literal of c onto a literal of d, equations either way round:
    every choice of targets, tried one by one."""
    targets = [(pol, a) for pol, atom in d
               for a in {atom, (atom[0], atom[2], atom[1])
                         if atom[0] == "=" else atom}]
    for choice in itertools.product(targets, repeat=len(c)):
        b = {}
        if all(pol == pol2 and match(atom, atom2, b) is not None
               for (pol, atom), (pol2, atom2) in zip(c, choice)):
            return len(c) <= len(d)
    return False


_hoop_terms = st.recursive(
    st.sampled_from([X, Y, Z, ("0",), ("1",)]),
    lambda sub: (st.builds(lambda s, t: ("+", s, t), sub, sub)
                 | st.builds(lambda s, t: ("~", s, t), sub, sub)),
    max_leaves=4)
_hoop_literals = st.builds(lambda pol, pred, s, t: (pol, (pred, s, t)),
                           st.booleans(), st.sampled_from(["=", ">="]),
                           _hoop_terms, _hoop_terms)


@st.composite
def _clause_pairs(draw):
    """(c, d): d is often an instance of c's literals, some equations
    flipped, with other literals mixed in."""
    c = draw(st.lists(_hoop_literals, min_size=1, max_size=3))
    if draw(st.booleans()):
        b = {v: draw(_hoop_terms) for v in "xyz"}
        d = [(pol, (atom[0],) + tuple(substitute(t, b) for t in atom[1:]))
             for pol, atom in c]
        d = [(pol, (atom[0], atom[2], atom[1]) if draw(st.booleans())
              and atom[0] == "=" else atom) for pol, atom in d]
        d = draw(st.permutations(
            d + draw(st.lists(_hoop_literals, max_size=2))))
    else:
        d = draw(st.lists(_hoop_literals, min_size=1, max_size=3))
    return (canonical_clause(saturate._dedup(c)),
            canonical_clause(saturate._dedup(d)))


@settings(max_examples=300, deadline=None)
@given(_clause_pairs())
# the subsumer's indexed literal (its heaviest) matches d flipped
@example((((True, ("=", ("+", X, ("~", Y, X)), X)), (False, (">=", X, Y))),
          ((False, (">=", ("1",), ("0",))),
           (True, ("=", ("1",), ("+", ("1",), ("~", ("0",), ("1",))))))))
# the other literal matches on its own, but not under the indexed one's
# bindings
@example((((True, (">=", X, Y)), (True, ("=", ("+", X, Y), Y))),
          ((True, (">=", ("0",), ("1",))),
           (True, ("=", ("+", ("1",), ("0",)), ("0",))))))
# d equals c: forward subsumption deletes a duplicate of a live clause
@example((((False, (">=", X, Y)), (True, ("=", ("~", Y, X), ("0",)))),
          ((False, (">=", X, Y)), (True, ("=", ("~", Y, X), ("0",))))))
def test_forward_subsumption_agrees_with_brute_force(pair):
    """With c the one live clause, the prover deletes d as subsumed
    exactly when a brute-force search over literal maps says so."""
    c, d = pair
    state = saturate._State(with_goal(builtin_theory("hoop"), "0 = 1"),
                            ProverLimits())
    state._install(state._new_step(c, [("assumption",)]), c)
    assert state._forward_subsumed(d) == _brute_subsumes(c, d)


@settings(max_examples=200, deadline=None)
@given(_hoop_literals.map(lambda lit: lit[1]))
def test_proof_paths_are_term_paths(atom):
    """A proof reads a path as terms.subterm_at does, and replace_at puts
    back what subterm_at reads."""
    for p in positions(atom):
        if p:
            assert saturate._position(atom, p) == subterm_at(atom, p)
            assert replace_at(atom, p, subterm_at(atom, p)) == atom


def _reference_paramodulate(state, from_id, into_id):
    """Paramodulation as it was before per-clause sites: every reading of
    the from-clause against every non-variable subterm of the into-clause's
    literals, in an equation only the sides that the LPO does not put
    below the other side."""
    from_cl = state.steps[from_id].clause
    eqs = state._equations_of(from_cl)
    into_cl = state.steps[into_id].clause
    if not eqs:
        return []
    out = []
    _, left, right = rename_apart(from_cl)[0][1]
    for side, _, _ in eqs:
        lhs, rhs = (left, right) if side == "l" else (right, left)
        for li, (pol, atom) in enumerate(into_cl):
            if atom[0] == "=":
                sides = [ai for ai in (1, 2)
                         if not lpo_gt(atom[3 - ai], atom[ai], state.prec)]
            else:
                sides = range(1, len(atom))
            for ai in sides:
                t = atom[ai]
                for path in positions(t):
                    sub = subterm_at(t, path)
                    if sub[0] == VAR:
                        continue
                    b = unify(lhs, sub)
                    if b is None:
                        continue
                    new_t = replace_at(t, path, substitute(rhs, b))
                    new_atom = atom[:ai] + (new_t,) + atom[ai + 1:]
                    out.append((substitute_clause(
                        into_cl[:li] + ((pol, new_atom),) + into_cl[li + 1:],
                        b), [("para", from_id, side, into_id, li,
                              (ai,) + path)]))
    return out


def test_cached_sites_paramodulate_as_the_reference():
    th = data_theory("hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl")
    state = saturate._State(th, ProverLimits(max_given=20))
    assert state.run().which == "max_given"
    # x = 0 has a variable side, which unifies with every site; it is
    # made a step only, so it rewrites nothing
    var_side = state._new_step(((True, ("=", X, ("0",))),),
                               [("assumption",)])
    pairs = made = 0
    for a in list(state.active) + [var_side]:
        for b in state.active:
            got = []
            state._paramodulate(a, b, got)
            want = _reference_paramodulate(state, a, b)
            assert [(j, canonical_clause(c)) for c, j in got] \
                == [(j, canonical_clause(c)) for c, j in want], (a, b)
            pairs += 1
            made += len(got)
    assert pairs == 420 and made > 0


class _CheckedRootLookups(saturate._State):
    """A prover state that compares each _rewrite_once answer with a
    memo-free scan: the first live demodulator entry, in seq order, whose
    _root_step rewrites the term.  skips counts the lookups of a stale
    miss that left out a live entry older than the miss whose left-hand
    side matches the term."""

    answers = skips = 0
    checked = None      # seqs of the entries a lookup checks

    def _root_step(self, sub, val, binding=None):
        if self.checked is not None:
            self.checked.append(val[0])
        return super()._root_step(sub, val, binding)

    def _rewrite_once(self, sub):
        live = sorted(val for vals in self._demod_vals.values()
                      for val in vals)
        got = self._root_memo.get(sub)
        stale = got is not None and got[0] is None \
            and got[1] < self._demod_seq
        seen = got[1] if stale else 0
        self.checked = []
        hit = super()._rewrite_once(sub)
        checked, self.checked = self.checked, None
        want = next((h for h in (self._root_step(sub, val) for val in live)
                     if h is not None), None)
        assert hit == want, sub
        self.answers += 1
        self.skips += any(val[0] < seen and val[0] not in checked
                          and match(val[2], sub) is not None
                          for val in live)
        return hit


def test_remembered_root_lookups_rewrite_as_the_reference():
    th = data_theory("hoop.ax", "hoop-defs.ax", "hp-cup-assoc.gl")
    state = _CheckedRootLookups(th, ProverLimits(max_given=70))
    assert state.run().status == "proved"
    assert state.answers > 0 and state.skips > 0


def _prove_counting_given(names, max_given):
    th = _pinned_theory(names)
    calls = [0]

    def should_stop():
        calls[0] += 1
        return False

    return prove(th, ProverLimits(max_given=max_given), should_stop), calls[0]


# the outcome (proved, or the limit that stopped the search), should_stop
# calls, proof length (None without a proof) and the ProverStats counters
# (given, generated, forward demodulated, kept, tautologies, forward
# subsumed, back simplified, demodulators)
_PINNED = {
    "sl-pr1.gl": ("proved", 0, 4, (0, 0, 0, 3, 0, 0, 0, 3)),
    "hp-plus-mono.gl": ("proved", 66, 24,
                        (66, 1309, 749, 272, 616, 423, 13, 127)),
    "hp-sum-lemma.gl": ("proved", 60, 15,
                        (60, 1267, 697, 239, 533, 451, 13, 111)),
    # proved by a derived equation that the LPO cannot orient, used as a
    # demodulator on instances that get smaller
    "hp-cup-assoc.gl": ("proved", 45, 13,
                        (45, 1740, 1264, 193, 1353, 97, 11, 190)),
    # a non-theorem with non-unit clauses, where forward subsumption
    # deletes more clauses than any other test
    "hoop-ax6.gl": ("max_given", 71, None,
                    (70, 3884, 900, 835, 245, 2830, 14, 19)),
    # a corpus lemma that runs to the budget, as most of them do
    "basic_vi": ("max_given", 71, None,
                 (70, 1877, 1129, 399, 762, 747, 15, 160)),
}


def _pinned_theory(names):
    """The theory of data files ending in a goal file, or of a corpus
    lemma's name: the lemma posed with hoop_defs and its dependencies, as
    the prove benchmark poses it."""
    record = next((r for r in lemma_corpus() if r.name == names[-1]), None)
    if record is None:
        return data_theory(*names)
    return lemma_theory(record.depends_on, record.statement)


@pytest.mark.parametrize("names", [
    ("semilattice.ax", "sl-pr1.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-sum-lemma.gl"),
    ("pocrim.ax", "hoop-ax6.gl"),
    ("hoop.ax", "hoop-defs.ax", "hp-cup-assoc.gl"),
    ("basic_vi",),
], ids=lambda names: names[-1])
def test_search_is_pinned(names):
    """The search these goals take at max_given=70, in deterministic
    counts.  A change to the prover's heuristics (selection, ordering,
    simplification, redundancy) may move them: it must then update these
    values and say so in CHANGES.  A change that only makes the prover
    faster must leave them as they are."""
    out, given = _prove_counting_given(names, 70)
    proved = out.status == "proved"
    stats = tuple(getattr(out.stats, name) for name in ProverStats.__slots__)
    assert ("proved" if proved else out.which, given,
            len(out.proof.steps) if proved else None, stats) \
        == _PINNED[names[-1]]
    # should_stop is called once more when a limit ends the search
    assert out.stats.given == given - (not proved)


def test_every_outcome_carries_stats():
    out, given = _prove_counting_given(
        ("semilattice.ax", "sl-ge-def.ax", "sl-total.gl"), 30)
    assert out.status == "limit" and out.which == "max_given"
    assert out.stats.given == 30 == given - 1
    assert out.stats.generated >= out.stats.kept > 0
    assert str(out.stats).startswith("30 given, %d generated, "
                                     % out.stats.generated)
    th = parse_source("""
formulas(assumptions).
   f(x) = a.
end_of_list.
formulas(goals).
   g(a) = b.
end_of_list.
""")
    out = prove(th)
    assert out.status == "exhausted" and out.stats.given > 0


def test_symbol_with_two_arities_is_refused_before_the_search():
    """The inference rules compare heads only: two terms with the same head
    have the same arity, because prove refuses a theory that uses a
    symbol with two arities before its first given clause."""
    x, a = var("x"), ("a",)
    th = Theory(assumptions=[("atom", ("=", ("f", x), a))],
                goals=[("atom", ("=", ("f", a, a), a))])
    asked = []
    with pytest.raises(TheoryError, match="conflicting arity"):
        prove(th, ProverLimits(max_given=10), lambda: asked.append(1))
    assert asked == []


def test_no_exhaustion_with_non_unit_equations():
    # a theorem: c = a rewrites the assumption to the goal's two literals
    # plus g(a) = b.  Paramodulation works from unit equations only, and
    # the search runs out of clauses without a proof
    th = parse_source("""
formulas(assumptions).
   c = a.
   g(c) = b | g(a) = b | h(c) = d.
end_of_list.
formulas(goals).
   g(a) = b | h(a) = d.
end_of_list.
""")
    out = prove(th, ProverLimits(max_given=100))
    assert (out.status, out.which) == ("limit", "incomplete")
    assert out.stats.given < 100


class _JumpingClock:
    """time.monotonic for the prover: 0 for the first calls, then far
    past any deadline."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self):
        self.calls -= 1
        return 0.0 if self.calls >= 0 else 1e9


@pytest.mark.parametrize("calls, phase", [(2, "generation"), (3, "adding")])
def test_deadline_is_checked_inside_a_round(monkeypatch, calls, phase):
    """One clock call sets the deadline and one comes before the first
    given clause; the clock then jumps past the deadline at the check
    between active partners, or at the one between generated clauses."""
    th = with_goal(builtin_theory("hoop"),
                   "(x + (y ~ x)) + (z ~ (x + (y ~ x))) = "
                   "x + ((y + (z ~ y)) ~ x)")
    monkeypatch.setattr(saturate.time, "monotonic", _JumpingClock(calls))
    out = prove(th, ProverLimits(max_seconds=10))
    assert out.status == "limit" and out.which == "max_seconds"
    assert out.stats.given == 1
    # generated is counted when the round's generation is complete
    assert (out.stats.generated > 0) == (phase == "adding")
