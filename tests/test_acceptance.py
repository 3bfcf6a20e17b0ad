"""Acceptance gate.

Each test here corresponds to one acceptance criterion; together they fix
the behaviour the package promises: model counts, table fixtures, prover
performance on the bundled goals, soundness canaries, the lemma corpus,
chain verification, the linear-hoop classification, and the parse/render
round-trip.
"""

import itertools
import os
import time

import pytest

from hooplab.chains import lemma_corpus, verify_chain, verify_chain_report
from hooplab.hoops import (
    builtin_theory, decompose_linear, derived_tables, direct_product,
    is_hoop, is_linear, linear_index_set, lukasiewicz, ordinal_sum,
    ordinal_sum_many, trivial_hoop,
)
from hooplab.model import FiniteModel, isomorphic
from hooplab.saturate import ProverLimits, prove, verify_proof
from hooplab.search import SearchOptions, count_models, enumerate_models
from hooplab.syntax import (
    Theory, parse_formula_text, parse_source, render_theory,
)

HOOP = builtin_theory("hoop")
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hooplab",
                    "data")


def data_theory(*names):
    text = "\n".join(open(os.path.join(DATA, n)).read() for n in names)
    return parse_source(text)


# ---------------------------------------------------------------------------
# 1. hoop counts up to isomorphism

def test_hoop_counts_2_to_5():
    t0 = time.time()
    counts = [count_models(HOOP, n, upto_iso=True) for n in (2, 3, 4, 5)]
    assert counts == [1, 2, 5, 10]
    assert time.time() - t0 < 120


# ---------------------------------------------------------------------------
# 2. the five order-4 hoops match the published tables

def fixture(plus_rows, minus_rows):
    n = len(plus_rows)
    return FiniteModel(n, {"0": 0, "1": n - 1},
                       {"+": tuple(tuple(r) for r in plus_rows),
                        "~": tuple(tuple(r) for r in minus_rows)})


ORDER4_FIXTURES = {
    "L2^L3": fixture([[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 3, 3],
                      [3, 3, 3, 3]],
                     [[0, 0, 0, 0], [1, 0, 0, 0], [2, 2, 0, 0],
                      [3, 3, 2, 0]]),
    "L4": fixture([[0, 1, 2, 3], [1, 2, 3, 3], [2, 3, 3, 3],
                   [3, 3, 3, 3]],
                  [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0],
                   [3, 2, 1, 0]]),
    "L3^L2": fixture([[0, 1, 2, 3], [1, 2, 2, 3], [2, 2, 2, 3],
                      [3, 3, 3, 3]],
                     [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0],
                      [3, 3, 3, 0]]),
    "L2^L2^L2": fixture([[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3],
                         [3, 3, 3, 3]],
                        [[0, 0, 0, 0], [1, 0, 0, 0], [2, 2, 0, 0],
                         [3, 3, 3, 0]]),
    "L2xL2": fixture([[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3],
                      [3, 3, 3, 3]],
                     [[0, 0, 0, 0], [1, 0, 1, 0], [2, 2, 0, 0],
                      [3, 2, 1, 0]]),
}


def test_order4_hoops_match_fixtures():
    found = list(enumerate_models(HOOP, SearchOptions(4, upto_iso=True)))
    assert len(found) == 5
    for a, b in itertools.combinations(found, 2):
        assert not isomorphic(a, b)
    for name, fix in ORDER4_FIXTURES.items():
        assert is_hoop(fix), name
        assert sum(1 for m in found if isomorphic(m, fix)) == 1, name
    # name checks for the decomposable fixtures
    assert isomorphic(ORDER4_FIXTURES["L2^L3"],
                      ordinal_sum(lukasiewicz(2), lukasiewicz(3)))
    assert isomorphic(ORDER4_FIXTURES["L2xL2"],
                      direct_product(lukasiewicz(2), lukasiewicz(2)))


# ---------------------------------------------------------------------------
# 3. the two order-4 pocrims that are not hoops

# Table of non-hoop pocrims; the + tables carry the 0-identity rows, the
# published point being that x + y = 1 for nonzero x, y in the first one.
POCRIM_FIXTURES = [
    fixture([[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
            [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0], [3, 1, 1, 0]]),
    fixture([[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
            [[0, 0, 0, 0], [1, 0, 0, 0], [2, 2, 0, 0], [3, 2, 1, 0]]),
]


def test_pocrims_of_order_4_that_are_not_hoops():
    pocrim = builtin_theory("pocrim")
    ax6 = parse_formula_text("x + (y ~ x) = y + (x ~ y)", HOOP)
    non_hoops = []
    for m in enumerate_models(pocrim, SearchOptions(4, upto_iso=True)):
        core = FiniteModel(m.size, dict(m.constants),
                           dict(m.fun_tables))
        if not core.satisfies(ax6):
            non_hoops.append(core)
    assert len(non_hoops) == 2
    for fix in POCRIM_FIXTURES:
        assert not fix.satisfies(ax6)
        assert sum(1 for m in non_hoops if isomorphic(m, fix)) == 1


def test_pocrim_fixtures_satisfy_pocrim_axioms():
    pocrim = builtin_theory("pocrim")
    for fix in POCRIM_FIXTURES:
        mt = fix.fun_tables["~"]
        n = fix.size
        ge = tuple(tuple(mt[j][i] == 0 for j in range(n)) for i in range(n))
        full = FiniteModel(n, dict(fix.constants), dict(fix.fun_tables),
                           {">=": ge})
        for f in pocrim.assumptions:
            assert full.satisfies(f)


def test_every_hoop_is_a_pocrim():
    pocrim = builtin_theory("pocrim")
    for size in (2, 3, 4):
        for m in enumerate_models(HOOP, SearchOptions(size, upto_iso=True)):
            d = derived_tables(m)
            for f in pocrim.assumptions:
                assert d.satisfies(f)


# ---------------------------------------------------------------------------
# 4. linear hoop counts 2^(n-2)

def test_linear_hoop_counts():
    t0 = time.time()
    linear = builtin_theory("hoop_linear")
    counts = [count_models(linear, n, upto_iso=True)
              for n in (2, 3, 4, 5, 6, 7)]
    assert counts == [1, 2, 4, 8, 16, 32]
    assert time.time() - t0 < 600


# ---------------------------------------------------------------------------
# 5. the smallest total-order countermodel

def test_smallest_total_order_countermodel():
    th = builtin_theory("semilattice_ge")
    goal = parse_formula_text("x >= y | y >= x", th)
    smallest = None
    for size in (1, 2, 3):
        for m in enumerate_models(th, SearchOptions(size, upto_iso=True)):
            if not m.satisfies(goal):
                smallest = m
                break
        if smallest is not None:
            assert size == 3
            break
    assert smallest is not None
    cup = ((0, 2, 2), (2, 1, 2), (2, 2, 2))
    ge = tuple(tuple(cup[i][j] == i for j in range(3)) for i in range(3))
    expected = FiniteModel(3, {}, {"cup": cup}, {">=": ge})
    assert isomorphic(smallest, expected)


# ---------------------------------------------------------------------------
# 6/7. prover performance goals and the soundness canary

PROVER_GOALS = [
    ("semilattice.ax", "sl-pr1.gl"),
    ("semilattice.ax", "sl-ge-def.ax", "sl-trans.gl"),
    ("hoop.ax", "hoop-defs.ax", "hp-cup-assoc.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-res-fwd.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-res-bwd.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-sum-lemma.gl"),
]


@pytest.mark.parametrize("files", PROVER_GOALS,
                         ids=[f[-1] for f in PROVER_GOALS])
def test_prover_goal(files):
    th = data_theory(*files)
    t0 = time.time()
    out = prove(th, ProverLimits(max_seconds=60))
    assert out.status == "proved", files[-1]
    assert time.time() - t0 < 60
    ok, report = verify_proof(th, out.proof)
    assert ok, report


def test_total_order_canary():
    th = data_theory("semilattice.ax", "sl-ge-def.ax", "sl-total.gl")
    out = prove(th, ProverLimits(max_seconds=10, max_given=5000))
    assert out.status in ("exhausted", "limit")


# ---------------------------------------------------------------------------
# 8. lemma corpus model check

def _check_corpus_on(model, label):
    d = derived_tables(model)
    for record in lemma_corpus():
        assert d.satisfies(record.statement), (record.name, label)


def test_corpus_holds_in_small_hoops_and_chains():
    t0 = time.time()
    for size in range(1, 6):
        for m in enumerate_models(HOOP, SearchOptions(size, upto_iso=True)):
            _check_corpus_on(m, "hoop of size %d" % size)
    for n in range(2, 9):
        _check_corpus_on(lukasiewicz(n), "L_%d" % n)
    # ordinal sums and direct products of chains
    _check_corpus_on(ordinal_sum(lukasiewicz(3), lukasiewicz(3)), "sum")
    _check_corpus_on(direct_product(lukasiewicz(2), lukasiewicz(3)),
                     "product")
    assert time.time() - t0 < 300


def test_structural_invariants_on_small_hoops():
    th = builtin_theory("hoop_defs")
    props = [parse_formula_text(s, th) for s in [
        "x cup (y cup z) = (x cup y) cup z",
        "x cup y = y cup x",
        "x cup x = x",
        "x >= y -> x + z >= y + z",
        "x >= y -> x ~ z >= y ~ z",
        "x >= y -> z ~ x <= z ~ y",
    ]]
    for size in range(1, 6):
        for m in enumerate_models(HOOP, SearchOptions(size, upto_iso=True)):
            d = derived_tables(m)
            for f in props:
                assert d.satisfies(f)


def test_cap_is_not_commutative_in_general():
    witness = None
    for size in (2, 3, 4):
        for m in enumerate_models(HOOP, SearchOptions(size, upto_iso=True)):
            cap = derived_tables(m).fun_tables["cap"]
            n = m.size
            if any(cap[i][j] != cap[j][i]
                   for i in range(n) for j in range(n)):
                witness = m
                break
        if witness:
            break
    assert witness is not None
    assert witness.size <= 4


# ---------------------------------------------------------------------------
# 9. chain verification (accept side; mutations in test_chains)

ACCEPT_CHAINS = ["AA", "MNA", "NPJSSO", "NSNSM", "NNSSNN", "SNNNO",
                 "SSNNSNO", "MPS", "NSPJN", "PPMD", "NPNPM", "JNND",
                 "SNNNPN", "NNSNNSNN"]


def test_spec_chains_accepted():
    records = {r.name: r for r in lemma_corpus()}
    for name in ACCEPT_CHAINS:
        ok, why = verify_chain_report(records[name],
                                      records[name].depends_on)
        assert ok, "%s: %s" % (name, why)


# ---------------------------------------------------------------------------
# 10. lemma-assisted saturation proofs

def _lemma_theory(goal_name, context):
    records = {r.name: r for r in lemma_corpus()}
    base = builtin_theory("hoop_defs")
    return Theory(op_decls=list(base.op_decls),
                  assumptions=list(base.assumptions)
                  + [records[n].statement for n in context],
                  goals=[records[goal_name].statement])


@pytest.mark.parametrize("goal,context", [
    ("NNSNNSNN", ("basic_vi", "SSNNSNO", "NSNSM")),
    ("PNNNNPNN", ("SNNNPN",)),
])
def test_lemma_assisted_proof(goal, context):
    th = _lemma_theory(goal, context)
    t0 = time.time()
    out = prove(th, ProverLimits(max_seconds=60))
    assert out.status == "proved", goal
    assert time.time() - t0 < 60
    ok, report = verify_proof(th, out.proof)
    assert ok, report


# ---------------------------------------------------------------------------
# 11. the linear classification

def compositions(n):
    """All [m1..mk], mi >= 2, sum mi - k + 1 = n."""
    if n == 1:
        yield []
        return
    for first in range(2, n + 1):
        if first == n:
            yield [n]
        else:
            for rest in compositions(n - first + 1):
                if rest:
                    yield [first] + rest


def test_decompose_roundtrip_up_to_6():
    for n in range(2, 7):
        seen = []
        for ms in compositions(n):
            h = ordinal_sum_many(lukasiewicz(m) for m in ms)
            assert h.size == n
            assert is_linear(h)
            assert decompose_linear(h) == ms
            assert isomorphic(
                ordinal_sum_many(lukasiewicz(m)
                                 for m in decompose_linear(h)), h)
            assert all(not isomorphic(h, other) for other in seen)
            seen.append(h)
        assert len(seen) == 2 ** (n - 2)


def test_enumerated_linear_hoops_roundtrip():
    linear = builtin_theory("hoop_linear")
    for n in range(2, 6):
        for m in enumerate_models(linear, SearchOptions(n, upto_iso=True)):
            ms = decompose_linear(m)
            assert isomorphic(ordinal_sum_many(lukasiewicz(k)
                                               for k in ms), m)


def test_linear_index_set_bijection():
    for n in range(2, 8):
        images = set()
        count = 0
        for ms in compositions(n):
            s = frozenset(linear_index_set(ms, n))
            assert s <= set(range(1, n - 1))
            images.add(s)
            count += 1
        assert count == 2 ** (n - 2)
        assert len(images) == count  # injective onto all subsets


# ---------------------------------------------------------------------------
# 12. parse/render round-trip and the semilattice oracle

def test_parse_render_roundtrip_bundled_corpus():
    names = sorted(n for n in os.listdir(DATA)
                   if n.endswith((".ax", ".gl")))
    assert names
    for name in names:
        th = parse_source(open(os.path.join(DATA, name)).read())
        again = parse_source(render_theory(th))
        assert again.assumptions == th.assumptions, name
        assert again.goals == th.goals, name


def brute_force_semilattice_count(n):
    """Independent backtracking oracle: commutative idempotent tables with
    associativity checked as soon as determined; counts canonical forms."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = [[i if i == j else None for j in range(n)] for i in range(n)]
    canon = set()

    def assoc_ok(i, j):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ab = table[a][b]
                    bc = table[b][c]
                    if ab is None or bc is None:
                        continue
                    left = table[ab][c]
                    right = table[a][bc]
                    if left is not None and right is not None \
                            and left != right:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            m = FiniteModel(n, {}, {
                "cup": tuple(tuple(table[i][j] for j in range(n))
                             for i in range(n))})
            canon.add(m.canonical_form())
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = table[j][i] = v
            if assoc_ok(i, j):
                fill(k + 1)
        table[i][j] = table[j][i] = None

    fill(0)
    return len(canon)


def test_semilattice_counts_match_oracle():
    sl = builtin_theory("semilattice")
    for n in range(1, 6):
        assert count_models(sl, n, upto_iso=True) \
            == brute_force_semilattice_count(n)
