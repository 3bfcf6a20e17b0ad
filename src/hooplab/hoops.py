"""Hoop domain layer: built-in theories, constructions, decomposition.

A hoop is a commutative monoid (+, 0) with a truncated subtraction ~ and top
element 1, satisfying eight equations (see data/hoop.ax).  Models interpret
constants "0", "1" and binary "+" and "~"; derived_tables extends a model
with the order >= and the defined operations cup, cap, \\, nand, neg.
They are written down once, in data/hoop-ge-def.ax and data/hoop-defs.ax.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .model import FiniteModel, ModelError
from .syntax import (Theory, TheoryError, parse_source, parse_term_text,
                     render_formula)

PLUS = "+"
MINUS = "~"

# nomenclature letters, keyed by operation/constant symbol
NOMENCLATURE = {
    "0": "Z", "1": "O", PLUS: "P", MINUS: "S",
    "cup": "J", "cap": "M", "\\": "D", "nand": "A", "neg": "N",
}


def _data_text(name: str) -> str:
    return (resources.files(__package__) / "data" / name).read_text()


def _parse_definitions(text):
    """Theory.definitions of a text in which every formula is a
    definition; raises TheoryError at the first one that is not."""
    theory = parse_source(text)
    defs, indices = theory.definitions()
    others = [f for i, f in enumerate(theory.assumptions)
              if i not in indices] + theory.goals
    if others:
        raise TheoryError("not a definition: %s"
                          % render_formula(others[0], theory))
    return defs


_DEFINITION_FILES = ("hoop-ge-def.ax", "hoop-defs.ax")

# >= and the derived operations: symbol -> (kind, params, body), in
# definition order.  Note \ takes its arguments as y \ x = (x + y) ~ x.
DEFINITIONS = _parse_definitions(
    "\n".join(_data_text(f) for f in _DEFINITION_FILES))

# The derived operations alone: op -> (argument variables, defining term).
DERIVED_DEFS = {op: (params, body)
                for op, (kind, params, body) in DEFINITIONS.items()
                if kind == "function"}

_BUILTIN_FILES = {
    "semilattice": ("semilattice.ax",),
    "semilattice_ge": ("semilattice.ax", "sl-ge-def.ax"),
    "hoop": ("hoop.ax",),
    "pocrim": ("pocrim.ax",),
    "hoop_defs": ("hoop.ax",) + _DEFINITION_FILES,
    "hoop_linear": ("hoop.ax", "hoop-linear.ax"),
}


@lru_cache(maxsize=None)
def builtin_theory(name: str) -> Theory:
    """One of semilattice, semilattice_ge, hoop, pocrim (with variants
    hoop_defs = hoop + derived-op definitions + >=, hoop_linear)."""
    files = _BUILTIN_FILES.get(name)
    if files is None:
        raise ValueError("unknown builtin theory %r" % name)
    # one parse over the concatenation: later files use earlier declarations
    return parse_source("\n".join(_data_text(f) for f in files))


def trivial_hoop() -> FiniteModel:
    return FiniteModel(1, {"0": 0, "1": 0},
                       {PLUS: ((0,),), MINUS: ((0,),)})


def lukasiewicz(n: int) -> FiniteModel:
    """The n-element Lukasiewicz chain: i+j truncated at n-1, i-j at 0."""
    if n < 2:
        raise ValueError("lukasiewicz chain needs n >= 2")
    plus = tuple(tuple(min(i + j, n - 1) for j in range(n)) for i in range(n))
    minus = tuple(tuple(max(i - j, 0) for j in range(n)) for i in range(n))
    return FiniteModel(n, {"0": 0, "1": n - 1}, {PLUS: plus, MINUS: minus})


def is_hoop(m: FiniteModel) -> bool:
    th = builtin_theory("hoop")
    return all(m.satisfies(f) for f in th.assumptions)


def _require_hoop(m):
    if not is_hoop(m):
        raise ModelError("operand does not satisfy the hoop axioms")


def ordinal_sum(h1: FiniteModel, h2: FiniteModel) -> FiniteModel:
    """Glue h1 below h2 on the disjoint union H1 | (H2 \\ {0}).

    Elements 0..|h1|-1 are h1's; |h1|-1+j (j >= 1) stands for h2's element j.
    Cross rules: a + b = b, a ~ b = 0, b ~ a = b for a in the h1 part and b
    strictly in the h2 part.  Inside the h2 part a ~ result of 0 means the
    global bottom, so it maps to element 0.
    """
    _require_hoop(h1)
    _require_hoop(h2)
    h1 = _zero_first(h1)
    h2 = _zero_first(h2)
    n1, n2 = h1.size, h2.size
    n = n1 + n2 - 1
    lo = n1 - 1  # offset: h2 element j > 0 becomes lo + j

    def plus(a, b):
        if a < n1 and b < n1:
            return h1.fun_tables[PLUS][a][b]
        if a >= n1 and b >= n1:
            return lo + h2.fun_tables[PLUS][a - lo][b - lo]
        return max(a, b)     # h1 part absorbed by h2 part

    def minus(a, b):
        if a < n1 and b < n1:
            return h1.fun_tables[MINUS][a][b]
        if a >= n1 and b >= n1:
            v = h2.fun_tables[MINUS][a - lo][b - lo]
            return 0 if v == 0 else lo + v
        if a < n1:           # h1 part minus h2 part
            return 0
        return a             # h2 part minus h1 part

    pt = tuple(tuple(plus(a, b) for b in range(n)) for a in range(n))
    mt = tuple(tuple(minus(a, b) for b in range(n)) for a in range(n))
    one = h1.constants["1"] if n2 == 1 else lo + h2.constants["1"]
    return FiniteModel(n, {"0": 0, "1": one}, {PLUS: pt, MINUS: mt})


def _zero_first(h: FiniteModel) -> FiniteModel:
    """Relabel so the 0 constant is element 0 (other elements keep order)."""
    z = h.constants["0"]
    if z == 0:
        return h
    perm = [0 if i == z else (i + 1 if i < z else i) for i in range(h.size)]
    return h.permuted(perm)


def ordinal_sum_many(hs) -> FiniteModel:
    hs = list(hs)
    if not hs:
        return trivial_hoop()
    acc = hs[0]
    for h in hs[1:]:
        acc = ordinal_sum(acc, h)
    return acc


def direct_product(h1: FiniteModel, h2: FiniteModel) -> FiniteModel:
    """Componentwise product; pair (i, j) is element i*|h2| + j."""
    n1, n2 = h1.size, h2.size
    n = n1 * n2

    def comp(op, a, b):
        i1, j1 = divmod(a, n2)
        i2, j2 = divmod(b, n2)
        return h1.fun_tables[op][i1][i2] * n2 + h2.fun_tables[op][j1][j2]

    tables = {op: tuple(tuple(comp(op, a, b) for b in range(n))
                        for a in range(n)) for op in (PLUS, MINUS)}
    zero = h1.constants["0"] * n2 + h2.constants["0"]
    one = h1.constants["1"] * n2 + h2.constants["1"]
    return FiniteModel(n, {"0": zero, "1": one}, tables)


def derived_tables(h: FiniteModel) -> FiniteModel:
    """Extend with the >= relation and the cup, cap, \\, nand, neg
    tables, as data/hoop-ge-def.ax and data/hoop-defs.ax define them."""
    return h.extend(DEFINITIONS)


def is_linear(h: FiniteModel) -> bool:
    mt, z = h.fun_tables[MINUS], h.constants["0"]
    n = h.size
    return all(mt[i][j] == z or mt[j][i] == z
               for i in range(n) for j in range(i + 1, n))


def _order_sorted(h: FiniteModel):
    """Relabel a linear hoop so that i >= j iff i >= j as integers."""
    mt, z = h.fun_tables[MINUS], h.constants["0"]
    n = h.size
    rank = {i: sum(1 for j in range(n) if mt[j][i] == z) - 1 for i in range(n)}
    perm = [rank[i] for i in range(n)]
    return h.permuted(perm)


def decompose_linear(h: FiniteModel):
    """Block sizes [m1..mk] with h isomorphic to L_m1 ^ ... ^ L_mk.

    Splits off the subhoop generated by the least nonzero element a: the
    chain a, a+a, ... stabilizes at an idempotent e, giving a block of size
    e+1; the elements >= e form a hoop with e as its zero, and we recurse.
    """
    if not is_linear(h):
        raise ModelError("decompose_linear needs a linear hoop")
    h = _order_sorted(h)
    ms = []
    while h.size > 1:
        pt, mt = h.fun_tables[PLUS], h.fun_tables[MINUS]
        t = 1  # least nonzero element
        while pt[t][1] != t:
            t = pt[t][1]
        e = t
        ms.append(e + 1)
        k = h.size - e

        def plus(a, b):
            return pt[a + e][b + e] - e

        def minus(a, b):
            return max(mt[a + e][b + e], e) - e

        h = FiniteModel(k, {"0": 0, "1": k - 1},
                        {PLUS: tuple(tuple(plus(a, b) for b in range(k))
                                     for a in range(k)),
                         MINUS: tuple(tuple(minus(a, b) for b in range(k))
                                      for a in range(k))})
    return ms


def linear_index_set(ms, n: int):
    """The bijection <m1..mk> -> {m1-1, m1+m2-2, ...} between block-size
    compositions of linear hoops of order n and subsets of {1..n-2}."""
    ms = list(ms)
    if not ms or any(m < 2 for m in ms):
        raise ValueError("block sizes must all be >= 2")
    if sum(ms) - len(ms) + 1 != n:
        raise ValueError("block sizes do not sum to a hoop of order %d" % n)
    out = set()
    acc = 0
    for j, m in enumerate(ms[:-1], start=1):
        acc += m
        out.add(acc - j)
    return out


def name_property(f) -> str:
    """Nomenclature name: the letters of all operations and constants in the
    left-to-right reading order of the rendered statement."""
    def term_letters(t):
        if t[0] == "V":
            return ""
        if t[0] not in NOMENCLATURE:
            raise ValueError("symbol %r has no nomenclature letter" % t[0])
        if len(t) == 3:  # binary infix: left operand, symbol, right operand
            return term_letters(t[1]) + NOMENCLATURE[t[0]] + term_letters(t[2])
        if len(t) == 2:  # postfix neg: operand then symbol
            return term_letters(t[1]) + NOMENCLATURE[t[0]]
        return NOMENCLATURE[t[0]]

    def walk(g):
        if g[0] == "atom":
            atom = g[1]
            if atom[0] != "=":
                raise ValueError("nomenclature names are for equations")
            return term_letters(atom[1]) + term_letters(atom[2])
        raise ValueError("nomenclature names are for equations")

    return walk(f)


def parse_hoop_term(text: str):
    return parse_term_text(text, builtin_theory("hoop_defs"))
