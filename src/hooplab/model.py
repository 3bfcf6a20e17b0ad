"""Finite interpretations: evaluation, satisfaction, isomorphism.

Elements are 0..n-1.  A model keeps each function and relation table
flat, as its entries in row-major order beside its arity: the entry of
f(a, b) is at a*n + b.  Relation entries are bools.  fun_tables and
rel_tables give the same tables nested, indexed by argument (unary: tuple
of ints, binary: tuple of row tuples), built on first use.  A table given
nested is checked and flattened once, when the model is built; a model
built from another one's flat tables (permuted, extend, the searcher's
leaves) takes them as they are.  Models are immutable after construction.

Terms and formulas have one evaluator: _compiled turns a term or formula
into one generated Python function per use (a value, the first falsifying
assignment, or a whole table), the first time that use runs it, and keeps
it in a cache of bounded size.  The function takes the domain size and
the flat tables of the symbols it mentions as arguments, so one
compilation serves every model of every size.  satisfies,
counterexample_env, extend and the public eval_term, eval_atom and holds
all run it.  An operand of and, or and -> runs only when the operand
before it has not decided the value.  A symbol the model does not
interpret is passed as a table whose every lookup raises ModelError, so it
fails only when its node is evaluated: a function's lookup t[a*n+b] comes
after its arguments, and a relation is first sought before them.

Isomorphism has one key, canonical_key, on flat tables; the searcher calls
it on its cells and FiniteModel.canonical_labeling on a model's tables.
The constants take labels 0..k-1 in declaration order; colour refinement
splits the other elements into ordered classes by their rows and columns in
every table, and each class takes the next block of labels.  The key is
the least encoding over the relabelings that keep to those blocks, so it
costs the product of the class sizes' factorials, not n!.  The key and
FiniteModel.permuted relabel a flat table the same way, through the list
of its cells in the new labels' row-major order (_relabelled_cells).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, permutations, product

from .terms import VAR, formula_vars, term_vars


class ModelError(ValueError):
    pass


class FiniteModel:
    """Carrier {0..n-1} with total operation and relation tables.

    constants, fun_tables and rel_tables are name-keyed dicts; key insertion
    order is the declaration order and fixes the table encoding used for
    canonical forms.
    """

    def __init__(self, size, constants=None, fun_tables=None, rel_tables=None):
        if size < 1:
            raise ModelError("model size must be >= 1")
        self.size = size
        self.constants = dict(constants or {})
        for name, v in self.constants.items():
            if not 0 <= v < size:
                raise ModelError("constant %s out of range" % name)
        # name -> (entries in row-major order, arity)
        self._funs = {k: _flattened(k, t, size, size)
                      for k, t in (fun_tables or {}).items()}
        self._rels = {}
        for k, t in (rel_tables or {}).items():
            flat, arity = _flattened(k, t, size, 2)
            self._rels[k] = (tuple(map(bool, flat)), arity)
        self._fun_tables = self._rel_tables = None

    @classmethod
    def _from_flat(cls, size, constants, funs, rels):
        """The model with the given constants and flat (entries, arity)
        tables, taken as they are: they come from a model already checked,
        or from the searcher's cells."""
        m = cls.__new__(cls)
        m.size, m.constants, m._funs, m._rels = size, constants, funs, rels
        m._fun_tables = m._rel_tables = None
        return m

    @property
    def fun_tables(self):
        if self._fun_tables is None:
            self._fun_tables = {k: _nested(flat, arity, self.size)
                                for k, (flat, arity) in self._funs.items()}
        return self._fun_tables

    @property
    def rel_tables(self):
        if self._rel_tables is None:
            self._rel_tables = {k: _nested(flat, arity, self.size)
                                for k, (flat, arity) in self._rels.items()}
        return self._rel_tables

    def constant_names(self):
        return list(self.constants)

    def function_names(self):
        return list(self._funs)

    def relation_names(self):
        return list(self._rels)

    def signature(self):
        return (tuple(self.constants),
                tuple((k, a) for k, (_, a) in self._funs.items()),
                tuple((k, a) for k, (_, a) in self._rels.items()))

    # ---- evaluation

    def eval_term(self, env, t):
        return self._value("term", t, env)

    def eval_atom(self, env, atom):
        return self._value("formula", ("atom", atom), env)

    def holds(self, env, f):
        return self._value("formula", f, env)

    def _value(self, kind, expr, env):
        params, slots, value = _compiled("value", kind, expr)
        args = [env[v] for v in params]
        for v, x in zip(params, args):
            if not 0 <= x < self.size:
                raise ModelError("variable %s = %s out of range" % (v, x))
        return value(self.size, *self._tables(slots), *args)

    def satisfies(self, f):
        params, slots, falsified = _compiled("falsified", "formula", f)
        return falsified(self.size, *self._tables(slots)) is None

    def counterexample_env(self, f):
        """The first assignment, in product order over the variables in
        name order, under which f fails; None when f holds."""
        params, slots, falsified = _compiled("falsified", "formula", f)
        bad = falsified(self.size, *self._tables(slots))
        return None if bad is None else dict(zip(params, bad))

    def extend(self, defs):
        """This model with a table appended for each definition of defs,
        a map symbol -> (kind, params, body) as Theory.definitions gives
        it, in order; each body is evaluated with the tables before it."""
        n = self.size
        m = FiniteModel._from_flat(n, dict(self.constants), dict(self._funs),
                                   dict(self._rels))
        for name, (kind, params, body) in defs.items():
            function = kind == "function"
            _, slots, table = _compiled(
                "table", "term" if function else "formula", body,
                tuple(params))
            (m._funs if function else m._rels)[name] = (
                tuple(table(n, *m._tables(slots))), len(params))
        return m

    def _tables(self, slots):
        """The flat table of each (is relation, name, arity) slot of a
        compiled expression; a constant's is its value alone."""
        out = []
        for rel, name, arity in slots:
            if rel:
                kind, entry = "relation", self._rels.get(name)
            elif arity:
                kind, entry = "function", self._funs.get(name)
            else:
                kind, entry = "constant", (((self.constants[name],), 0)
                                           if name in self.constants
                                           else None)
            if entry is None:
                out.append(_Uninterpreted("uninterpreted %s %r"
                                          % (kind, name)))
            elif entry[1] != arity:
                out.append(_Uninterpreted("%s %r has arity %d, used with %d"
                                          % (kind, name, entry[1], arity)))
            else:
                out.append(entry[0])
        return out

    # ---- isomorphism

    def encode(self):
        """Flat tuple encoding: constants (declaration order), then function
        tables in declaration order row-major, then relation tables."""
        out = list(self.constants.values())
        for flat, _ in self._funs.values():
            out.extend(flat)
        for flat, _ in self._rels.values():
            out.extend(map(int, flat))
        return tuple(out)

    def permuted(self, perm):
        """Image of the model under relabeling i -> perm[i]."""
        n = self.size
        if sorted(perm) != list(range(n)):
            raise ModelError("not a permutation of 0..%d" % (n - 1))
        inv = _inverse(perm)
        cells = {}

        def moved(flat, arity):
            # the entries of flat in row-major order of the new labels
            if arity not in cells:
                cells[arity] = _relabelled_cells(n, inv, arity)
            return [flat[j] for j in cells[arity]]
        return FiniteModel._from_flat(
            n, {k: perm[v] for k, v in self.constants.items()},
            {k: (tuple([perm[v] for v in moved(flat, a)]), a)
             for k, (flat, a) in self._funs.items()},
            {k: (tuple(moved(flat, a)), a)
             for k, (flat, a) in self._rels.items()})

    def canonical_form(self):
        """The relabeled copy whose encoding is the canonical key;
        isomorphic models have equal canonical forms."""
        return self.permuted(self.canonical_labeling()[1])

    def canonical_labeling(self):
        """(key, perm): the canonical encoding of the model and a relabeling
        perm with self.permuted(perm).encode() == key; see canonical_key."""
        return canonical_key(self.size, list(self.constants.values()),
                             list(self._funs.values()),
                             list(self._rels.values()))

    def __eq__(self, other):
        return (isinstance(other, FiniteModel) and self.size == other.size
                and self.signature() == other.signature()
                and self.encode() == other.encode())

    def __hash__(self):
        return hash((self.size, self.signature(), self.encode()))

    def __repr__(self):
        return "FiniteModel(%s)" % serialize_model(self)


def canonical_key(n, const_vals, funs, rels):
    """(key, perm) for the model of size n with the given constant values
    (declaration order) and flat row-major (table, arity) function and
    relation tables (relation entries 0 or 1): key is the canonical
    encoding, and perm a relabeling i -> perm[i] under which the model's
    encode() is key.

    The carrier is split into ordered classes by colour refinement
    (_refined_classes): constants first, in declaration order, then the
    unnamed elements split by their rows and columns in every table.
    The i-th class takes the next consecutive block of labels, and the
    key is the least encoding over the relabelings that do so, that is
    over the products of permutations inside each class.  The classes
    and their order depend only on the isomorphism class, so isomorphic
    models get equal keys; the encoding determines the model, so others
    get different keys.  The element named by the i-th distinct constant
    gets label i.
    """
    arities = {a for _, a in funs} | {a for _, a in rels}
    best = None
    best_perm = None
    perm = [0] * n
    inv = [0] * n
    for blocks in product(*(permutations(c) for c in
                            _refined_classes(n, const_vals, funs, rels))):
        label = 0
        for block in blocks:
            for e in block:
                perm[e] = label
                inv[label] = e
                label += 1
        cells = {a: _relabelled_cells(n, inv, a) for a in arities}
        enc = [perm[v] for v in const_vals]
        for flat, a in funs:
            enc.extend([perm[flat[j]] for j in cells[a]])
        for flat, a in rels:
            enc.extend([flat[j] for j in cells[a]])
        enc = tuple(enc)
        if best is None or enc < best:
            best, best_perm = enc, tuple(perm)
    return best, best_perm


def _refined_classes(n, const_vals, funs, rels):
    """The carrier {0..n-1} as a list of element classes, in colour order,
    for a model with the given constant values and flat (table, arity)
    function and relation tables.

    An element named by constants starts with the index of the first
    constant naming it; every other element starts with len(const_vals).
    Each round recolours an element a by its rank in a sort by old colour
    (ascending), then by the following signature (descending), for each
    table in order:
      unary function f: (colour[f(a)], f(a) == a); unary relation: r(a);
      binary function f: the sorted row of
        (colour[b], b == a, colour[f(a,b)], f(a,b) == a, f(a,b) == b)
        over all b, and the sorted column built the same way from f(b,a);
      binary relation r: the sorted row of (colour[b], b == a, r(a,b)) and
        the sorted column of (colour[b], b == a, r(b,a)).
    Tables of other arities do not split classes.  Rounds stop when one
    does not increase the number of classes.  Only colours and equalities
    enter a colour, so the classes and their order are invariant under
    isomorphism.
    """
    k = len(const_vals)
    colour = [k] * n
    for i, v in enumerate(const_vals):
        if colour[v] == k:
            colour[v] = i
    elems = range(n)
    count = len(set(colour))
    while True:
        # old colour negated, then a descending sort: old classes keep
        # their order, and inside each the new ones come in the order that
        # kept most hoop and semilattice representatives of sizes 1-5 as
        # the n! least-encoding key printed them
        sigs = [[-c] for c in colour]
        for flat, arity in funs:
            if arity == 1:
                for a, v in enumerate(flat):
                    sigs[a].append((colour[v], v == a))
            elif arity == 2:
                for a in elems:
                    sig = sigs[a]
                    for line in (flat[a * n:(a + 1) * n], flat[a::n]):
                        sig.append(sorted([
                            (colour[b], b == a, colour[v], v == a, v == b)
                            for b, v in zip(elems, line)]))
        for flat, arity in rels:
            if arity == 1:
                for a, v in enumerate(flat):
                    sigs[a].append(v)
            elif arity == 2:
                for a in elems:
                    sig = sigs[a]
                    for line in (flat[a * n:(a + 1) * n], flat[a::n]):
                        sig.append(sorted([(colour[b], b == a, v)
                                           for b, v in zip(elems, line)]))
        order = sorted(elems, key=sigs.__getitem__, reverse=True)
        new = [0] * n
        rank = 0
        for prev, a in zip(order, order[1:]):
            if sigs[a] != sigs[prev]:
                rank += 1
            new[a] = rank
        colour = new
        if rank + 1 == count:
            break
        count = rank + 1
    classes = [[] for _ in range(count)]
    for e, c in enumerate(colour):
        classes[c].append(e)
    return classes


_ROWS = {tuple, list}


def _flattened(name, t, n, top):
    """(flat, arity): the entries of the nested table t over {0..n-1} in
    row-major order, and its depth; ModelError naming the table unless
    every row at every depth is a tuple or list of n places and every
    entry is in 0..top-1 (bools count as 0 and 1)."""
    flat = [t]
    arity = 0
    while type(flat[0]) in _ROWS:
        if not _ROWS.issuperset(map(type, flat)) \
                or set(map(len, flat)) != {n}:
            raise ModelError("table %s is not made of rows of %d" % (name, n))
        flat = [x for row in flat for x in row]
        arity += 1
    if not _ROWS.isdisjoint(map(type, flat)):
        raise ModelError("table %s is not made of rows of %d" % (name, n))
    if not set(range(top)).issuperset(flat):
        raise ModelError("table %s entry out of range 0..%d" % (name, top - 1))
    return tuple(flat), arity


def _nested(flat, arity, n):
    """The table nested by argument from its row-major entries."""
    if not arity:
        return flat[0]
    for _ in range(arity - 1):
        flat = tuple(flat[i:i + n] for i in range(0, len(flat), n))
    return flat


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def _relabelled_cells(n, inv, arity):
    """The old flat index of each cell of an arity-ary table over
    {0..n-1} relabelled by i -> perm[i], in row-major order of the new
    labels; inv is the inverse of perm."""
    idx = [0]
    for _ in range(arity):
        idx = [j * n + i for j in idx for i in inv]
    return idx


class _Uninterpreted:
    """The table passed for a symbol the model does not interpret (or
    interprets at another arity): every lookup raises ModelError."""

    __slots__ = ("message",)

    def __init__(self, message):
        self.message = message

    def __getitem__(self, index):
        raise ModelError(self.message)


# generated functions kept compiled, a bound on the memory they hold: the
# lemma corpus, the hoop axioms and the hoop definitions make about forty
_COMPILED_CHECKERS = 512


@lru_cache(maxsize=_COMPILED_CHECKERS)
def _compiled(use, kind, expr, params=None):
    """(params, slots, function): the term or formula expr (kind "term" or
    "formula") compiled to one generated function for use.

    params are the variables, in the order the function binds them: the
    given tuple, or expr's variables in name order when it is None.  slots
    lists the tables the function reads, as (is relation, name, arity) in
    the order of its T parameters; FiniteModel._tables gives them from a
    model.  By use, the function is
      value(n, T0, ..., a0, ...): expr's value with params[i] = ai;
      falsified(n, T0, ...): the first value tuple for params, in product
        order, under which the formula expr is false, or None;
      table(n, T0, ...): the list of expr's values over every value tuple,
        in product order.

    The body is a flat list of statements, so its size, not its depth,
    grows with expr's.  Every table lookup becomes ``tK = Tj[index]``
    after the lookups of its arguments, the index being a0*n + a1 for a
    binary symbol (0 for a constant); a relation without variable-only
    arguments is first looked up at 0, so that a model that lacks it
    raises before its arguments are evaluated.  An operand of and, or and
    -> that the first does not decide gets its statements under a guard:
    ``if g:`` with g the first operand's value (negated for or), or a
    ``tK`` that also holds the guard they sit under, so no block nests in
    another.  The walk recurses once per level of expr, as the parser does.
    """
    if params is None:
        params = tuple(sorted(formula_vars(expr) if kind == "formula"
                              else term_vars(expr)))
    names = {v: "a%d" % i for i, v in enumerate(params)}
    slots = {}
    lines = []  # (guard expression or None, statement)
    fresh = count()

    def table(key):
        return "T%d" % slots.setdefault(key, len(slots))

    def index(args):
        idx = args[0] if args else "0"
        for i, a in enumerate(args[1:]):
            idx = "%s*n+%s" % (idx if i == 0 else "(%s)" % idx, a)
        return idx

    def term(t, guard):
        # the name that holds t's value, its lookups emitted in post-order;
        # loops, not comprehensions, so a level costs one frame
        if t[0] == VAR:
            return names[t[1]]
        args = []
        for a in t[1:]:
            args.append(term(a, guard))
        tab = table((False, t[0], len(args)))
        return let(guard, "%s[%s]" % (tab, index(args)))

    def let(guard, value):
        name = "t%d" % next(fresh)
        lines.append((guard, "%s = %s" % (name, value)))
        return name

    def formula(f, guard):
        # an expression for f's value, over names assigned under guard
        tag = f[0]
        if tag == "atom":
            atom = f[1]
            if atom[0] == "=":
                return "%s == %s" % (term(atom[1], guard),
                                     term(atom[2], guard))
            tab = table((True, atom[0], len(atom) - 1))
            if any(a[0] != VAR for a in atom[1:]):
                lines.append((guard, "%s[0]" % tab))
            args = []
            for a in atom[1:]:
                args.append(term(a, guard))
            return "%s[%s]" % (tab, index(args))
        if tag == "not":
            return let(guard, "not (%s)" % formula(f[1], guard))
        if tag not in ("and", "or", "imp", "iff"):
            raise ValueError("unknown formula tag %r" % tag)
        a = formula(f[1], guard)
        if not a.isidentifier():
            a = let(guard, a)
        if tag == "iff":
            return let(guard, "%s == (%s)" % (a, formula(f[2], guard)))
        # the second operand runs only when the first does not decide
        decides = "not " + a if tag == "or" else a
        if guard is None:
            sub = decides
        else:
            sub = "t%d" % next(fresh)
            lines.append((None, "%s = %s and %s" % (sub, guard, decides)))
        b = formula(f[2], sub)
        return let(guard, {"and": "%s and %s", "or": "%s or %s",
                           "imp": "not %s or %s"}[tag] % (a, b))

    result = formula(expr, None) if kind == "formula" else term(expr, None)
    indent = "    " if use == "value" else "        "
    body = []
    block = None
    for guard, stmt in lines:
        if guard is None:
            body.append(indent + stmt)
        else:
            if guard != block:
                body.append(indent + "if %s:" % guard)
            body.append(indent + "    " + stmt)
        block = guard
    tables = ["T%d" % i for i in range(len(slots))]
    loop = "    for (%s) in product(range(n), repeat=%d):" % (
        "".join(names[v] + ", " for v in params), len(params))
    if use == "value":
        head = ["def value(%s):" % ", ".join(
            ["n"] + tables + [names[v] for v in params])]
        tail = ["    return " + result]
    elif use == "falsified":
        head = ["def falsified(%s):" % ", ".join(["n"] + tables), loop]
        tail = ["        if not (%s):" % result,
                "            return (%s)" % "".join(
                    names[v] + ", " for v in params)]
    else:
        head = ["def table(%s):" % ", ".join(["n"] + tables),
                "    out = []", "    push = out.append", loop]
        tail = ["        push(%s)" % result, "    return out"]
    ns = {"product": product}
    exec("\n".join(head + body + tail), ns)  # noqa: S102 - from terms only
    return params, tuple(slots), ns[use]


def isomorphic(m1: FiniteModel, m2: FiniteModel):
    """A bijection perm with m1.permuted(perm) == m2, or None."""
    if m1.signature() != m2.signature():
        raise ModelError("signature mismatch")
    if m1.size != m2.size:
        return None
    key1, perm1 = m1.canonical_labeling()
    key2, perm2 = m2.canonical_labeling()
    if key1 != key2:
        return None
    # m1 goes to the shared canonical form by perm1, and that form goes
    # to m2 by the inverse of perm2
    inv2 = _inverse(perm2)
    return tuple(inv2[p] for p in perm1)


# ---------------------------------------------------------------------------
# compact single-line serialization

def serialize_model(m: FiniteModel) -> str:
    parts = [str(m.size)]
    for k, v in m.constants.items():
        parts.append("fun/0 %s = %d" % (k, v))
    for kind, tables in (("fun", m._funs), ("rel", m._rels)):
        for k, (flat, arity) in tables.items():
            parts.append("%s/%d %s = %s" % (kind, arity, k,
                                            ",".join(str(int(v)) for v in flat)))
    return " ; ".join(parts)


def deserialize_model(line: str) -> FiniteModel:
    parts = [p.strip() for p in line.strip().split(";")]
    n = int(parts[0])
    consts, funs, rels = {}, {}, {}
    for p in parts[1:]:
        if not p:
            continue
        head, _, values = p.partition(" = ")
        kind_arity, name = head.split()
        kind, arity = kind_arity.split("/")
        arity = int(arity)
        vals = [int(v) for v in values.split(",")] if values.strip() else []
        if name in consts or name in funs or name in rels:
            raise ModelError("table %s given twice" % name)
        if kind == "fun" and arity == 0:
            if len(vals) != 1:
                raise ModelError("constant %s needs one value" % name)
            consts[name] = vals[0]
        elif kind == "fun":
            funs[name] = unflatten(vals, arity, n)
        elif kind == "rel":
            rels[name] = unflatten(vals, arity, n)
        else:
            raise ModelError("bad model field %r" % p)
    return FiniteModel(n, consts, funs, rels)


def unflatten(vals, arity, n):
    """Nested table of the given arity over {0..n-1} from its row-major
    flat values."""
    if len(vals) != n ** arity:
        raise ModelError("table length %d, expected %d" % (len(vals), n ** arity))
    return _nested(tuple(vals), arity, n)
