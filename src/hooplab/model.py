"""Finite interpretations: evaluation, satisfaction, isomorphism.

Elements are 0..n-1.  Function tables are nested tuples indexed by argument
(unary: tuple of ints, binary: tuple of row tuples); relation tables hold
bools.  Models are immutable after construction.

Terms and formulas have one evaluator: _term_fn and _formula_fn turn one
into nested closures over a tuple environment, with the tables bound when
they are built, and satisfies, counterexample_env, extend and the public
eval_term, eval_atom and holds all run those closures.

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

from itertools import filterfalse, permutations, product
from operator import itemgetter

from .terms import VAR, formula_vars


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
        self.fun_tables = {k: _freeze(v) for k, v in (fun_tables or {}).items()}
        self.rel_tables = {k: _freeze(v) for k, v in (rel_tables or {}).items()}
        self._check()

    def _check(self):
        for name, v in self.constants.items():
            if not 0 <= v < self.size:
                raise ModelError("constant %s out of range" % name)
        for name, t in self.fun_tables.items():
            for v in _flat(t):
                if not 0 <= v < self.size:
                    raise ModelError("table %s entry out of range" % name)

    def constant_names(self):
        return list(self.constants)

    def function_names(self):
        return list(self.fun_tables)

    def relation_names(self):
        return list(self.rel_tables)

    def signature(self):
        return (tuple(self.constants),
                tuple((k, _arity(t)) for k, t in self.fun_tables.items()),
                tuple((k, _arity(t)) for k, t in self.rel_tables.items()))

    # ---- evaluation

    def eval_term(self, env, t):
        return _term_fn(self, t, _positions(env))(tuple(env.values()))

    def eval_atom(self, env, atom):
        return _formula_fn(self, ("atom", atom), _positions(env))(
            tuple(env.values()))

    def holds(self, env, f):
        return _formula_fn(self, f, _positions(env))(tuple(env.values()))

    def satisfies(self, f):
        return next(self._falsifying(f)[1], None) is None

    def counterexample_env(self, f):
        names, bad = self._falsifying(f)
        env = next(bad, None)
        return None if env is None else dict(zip(names, env))

    def _falsifying(self, f):
        """The variables of f in name order, and an iterator over the
        value tuples for them, in product order, under which f fails."""
        names = sorted(formula_vars(f))
        test = _formula_fn(self, f, _positions(names))
        return names, filterfalse(
            test, product(range(self.size), repeat=len(names)))

    def extend(self, defs):
        """This model with a table appended for each definition of defs,
        a map symbol -> (kind, params, body) as Theory.definitions gives
        it, in order; each body is evaluated with the tables before it."""
        n = self.size
        m = FiniteModel(n, self.constants, self.fun_tables, self.rel_tables)
        for name, (kind, params, body) in defs.items():
            tables, compile_fn = ((m.fun_tables, _term_fn)
                                  if kind == "function"
                                  else (m.rel_tables, _formula_fn))
            value = compile_fn(m, body, _positions(params))
            tables[name] = unflatten(
                list(map(value, product(range(n), repeat=len(params)))),
                len(params), n)
        return m

    # ---- isomorphism

    def encode(self):
        """Flat tuple encoding: constants (declaration order), then function
        tables in declaration order row-major, then relation tables."""
        out = list(self.constants.values())
        for t in self.fun_tables.values():
            out.extend(_flat(t))
        for t in self.rel_tables.values():
            out.extend(int(v) for v in _flat(t))
        return tuple(out)

    def permuted(self, perm):
        """Image of the model under relabeling i -> perm[i]."""
        n = self.size
        inv = _inverse(perm)

        def moved(t):
            # the entries of t in row-major order of the new labels
            flat = _flat(t)
            return [flat[j] for j in _relabelled_cells(n, inv, _arity(t))]
        return FiniteModel(
            n, {k: perm[v] for k, v in self.constants.items()},
            {k: unflatten([perm[v] for v in moved(t)], _arity(t), n)
             for k, t in self.fun_tables.items()},
            {k: unflatten(moved(t), _arity(t), n)
             for k, t in self.rel_tables.items()})

    def canonical_form(self):
        """The relabeled copy whose encoding is the canonical key;
        isomorphic models have equal canonical forms."""
        return self.permuted(self.canonical_labeling()[1])

    def canonical_labeling(self):
        """(key, perm): the canonical encoding of the model and a relabeling
        perm with self.permuted(perm).encode() == key; see canonical_key."""
        return canonical_key(
            self.size, list(self.constants.values()),
            [(_flat(t), _arity(t)) for t in self.fun_tables.values()],
            [([int(v) for v in _flat(t)], _arity(t))
             for t in self.rel_tables.values()])

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


def _freeze(t):
    if isinstance(t, (list, tuple)):
        return tuple(_freeze(x) for x in t)
    return t


def _flat(t):
    """The entries of a nested table as a flat row-major list."""
    flat = [t]
    while isinstance(flat[0], tuple):
        flat = [x for row in flat for x in row]
    return flat


def _arity(t):
    a = 0
    while isinstance(t, tuple):
        a += 1
        t = t[0]
    return a


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


def _positions(names):
    """Variable name -> its position in a tuple environment."""
    return {v: i for i, v in enumerate(names)}


def _term_fn(m, t, pos):
    """The term t in m as a function of a tuple environment, which holds
    variable v at position pos[v].  Tables are looked up here, once; an
    uninterpreted symbol raises ModelError only when its node is
    evaluated, after its arguments."""
    if t[0] == VAR:
        return itemgetter(pos[t[1]])
    name, args = t[0], t[1:]
    if not args:
        if name not in m.constants:
            return _raising("uninterpreted constant %r" % name, ())
        v = m.constants[name]
        return lambda e: v
    fns = [_term_fn(m, a, pos) for a in args]
    table = m.fun_tables.get(name)
    if table is None:
        return _raising("uninterpreted function %r" % name, fns)
    if len(args) == 2:
        x, y = args
        if x[0] == VAR and y[0] == VAR:
            i, j = pos[x[1]], pos[y[1]]
            return lambda e: table[e[i]][e[j]]
        f, g = fns
        return lambda e: table[f(e)][g(e)]
    if len(args) == 1:
        f, = fns
        return lambda e: table[f(e)]

    def apply(e):
        v = table
        for f in fns:
            v = v[f(e)]
        return v
    return apply


def _formula_fn(m, f, pos):
    """The formula f in m as a bool-valued function of a tuple
    environment, as _term_fn; connectives short-circuit, so a symbol in
    an operand that is never evaluated needs no interpretation."""
    tag = f[0]
    if tag == "atom":
        atom = f[1]
        if atom[0] == "=":
            lhs, rhs = (_term_fn(m, t, pos) for t in atom[1:])
            return lambda e: lhs(e) == rhs(e)
        table = m.rel_tables.get(atom[0])
        if table is None:
            return _raising("uninterpreted relation %r" % atom[0], ())
        fns = [_term_fn(m, t, pos) for t in atom[1:]]

        def rel(e):
            v = table
            for g in fns:
                v = v[g(e)]
            return bool(v)
        return rel
    if tag == "not":
        a = _formula_fn(m, f[1], pos)
        return lambda e: not a(e)
    if tag not in ("and", "or", "imp", "iff"):
        raise ValueError("unknown formula tag %r" % tag)
    a, b = (_formula_fn(m, g, pos) for g in f[1:])
    if tag == "and":
        return lambda e: a(e) and b(e)
    if tag == "or":
        return lambda e: a(e) or b(e)
    if tag == "imp":
        return lambda e: not a(e) or b(e)
    return lambda e: a(e) == b(e)


def _raising(message, fns):
    """A node that evaluates fns, then raises ModelError(message)."""
    def node(e):
        for g in fns:
            g(e)
        raise ModelError(message)
    return node


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
    for k, t in m.fun_tables.items():
        parts.append("fun/%d %s = %s" % (_arity(t), k,
                                         ",".join(str(v) for v in _flat(t))))
    for k, t in m.rel_tables.items():
        parts.append("rel/%d %s = %s" % (_arity(t), k,
                                         ",".join(str(int(v)) for v in _flat(t))))
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
            if not set(vals) <= {0, 1}:
                raise ModelError("relation %s entries must be 0 or 1" % name)
            rels[name] = unflatten([bool(v) for v in vals], arity, n)
        else:
            raise ModelError("bad model field %r" % p)
    return FiniteModel(n, consts, funs, rels)


def unflatten(vals, arity, n):
    """Nested table of the given arity over {0..n-1} from its row-major
    flat values."""
    if len(vals) != n ** arity:
        raise ModelError("table length %d, expected %d" % (len(vals), n ** arity))
    it = iter(vals)
    def build(depth):
        if depth == arity:
            return next(it)
        return tuple(build(depth + 1) for _ in range(n))
    return build(0)
