"""Backtracking finite-model search with isomorphism filtering, in the
style of Mace4 (McCune, Mace4 Reference Manual, 2003) and SEM (Zhang and
Zhang, IJCAI 1995).

Table cells are assigned in a fixed, concentric order: constants first, then
function tables by arity, and within an arity by the cell's largest argument
before its position (same-arity tables interleaved position by position);
relation tables come last.  So the elements that the assigned cells mention
grow one at a time.

Each assumption clause is compiled to one generated Python checker whose
parameters are the clause's variables; a ground instance is that checker
with the variables bound (_compile).  The checkers read the tables' first
cells and the strides n, n**2, ... from the function that binds them to
a search, so their source does not depend on the domain size, and a clause
set is compiled once per process for every size it is searched at
(_checkers, memoized on the clauses).  A checker answers satisfied,
conflict, the cell its evaluation is blocked on, or that it is down to one
unknown cell.
Each instance watches the cell it is blocked on and is re-checked when that
cell gets a value; conflicts prune the branch.  An instance found satisfied
is looked at again only once that cell has been unassigned, so satisfied
verdicts need no cache.  Every cell also keeps a domain, a bitmask of the
values not yet ruled out, and one rule propagates an instance down to one
unknown cell: it is tried with each value left in that cell's domain, and
the values under which it fails are removed (domain elimination, which also
does what SEM's unit forcing does).  An emptied domain is a conflict, and a
domain left with one value is assigned at once.  The root is one such
propagation over every instance.  The search stack holds one frame per
decision, on the next cell in the fixed order that propagation has not
assigned; the assignments, watches and domains a decision's propagation
makes are logged in its frame and undone on backtrack.

Up to isomorphism, the search cuts a decision value by lex-leader
symmetry breaking (Crawford, Ginsberg, Luks and Roy, KR 1996), checked
during the search as in SEM and Mace4 (the transposition cut, _tied).
The partial tables are compared with their image under each transposition
(a b) of two elements, cell by cell along the order: the image's cell
takes the value of the cell that (a b) moves there, relabelled by (a b)
for constants and functions, kept for relations.  The walk stops at the
first cell where either of the two is unassigned, and the next walk
resumes there.  If the image is smaller at the first difference, the
value is cut; if larger, that transposition is dropped for the whole
subtree.  So a frame carries at most n(n-1)/2 transpositions still tied,
and no table of the n! permutations is built.  The walks are taken once
after the root pass and twice per decision: with the decision value
assigned, before it is propagated, and again after a propagation that
succeeds, resuming where the first check stopped.  A cut found before
propagation stands after it, since a walk compares only assigned cells
and propagation changes none of them; so such a value is cut without
being propagated.

The cut does not change what is emitted.  Depth-first search with
ascending values reaches leaves in the lexicographic order of their cells
along the order, since every cell before the one being decided is
assigned.  Let L be the lex-least member of a class of models;
propagation removes no model.  The transposition cut cuts only a subtree
where every completion M has t(M) < M for some t, so no M there is least
in its class.  So L is reached, and is the first leaf of its class: the
models emitted and their order stay the same, and only the SearchStats
counts move.

Goals put the search in counterexample mode: emitted models must falsify at
least one goal.  Functions and relations that an assumption defines (see
Theory.definitions: f(x, ...) = term like cup, R(x, ...) <-> formula like
>=) are not searched: FiniteModel.extend computes their tables at the
leaves, where the goals and every other assumption that mentions a defined
symbol are checked (the leaf check).

Up to isomorphism, each leaf is keyed by model.canonical_key straight from
the searched tables' cells, and copies of a key already seen are dropped;
so extend and the leaf check run once per isomorphism class, not once per
leaf.  Without defined symbols, the relabelling that comes with the key
also gives the emitted canonical form.  The labelled search builds and
checks every leaf.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from itertools import combinations, product

from .model import FiniteModel, _relabelled_cells, canonical_key
from .terms import VAR, clausify, formula_symbols, term_vars


class SearchError(ValueError):
    pass


class SearchStats:
    """How far a search got: values tried at decision points, those that
    failed in propagation, values removed from cell domains, complete
    assignments reached (leaves), leaves dropped as isomorphic copies of
    an earlier leaf (duplicates, only up to isomorphism), leaves that
    failed the leaf check (rejected), and values cut because a
    transposition of two elements makes the partial tables
    lexicographically smaller, before or after their propagation (cut,
    only up to isomorphism; not counted in conflicts)."""

    __slots__ = ("decisions", "conflicts", "eliminated", "leaves",
                 "duplicates", "rejected", "cut")

    def __init__(self):
        self.decisions = self.conflicts = self.eliminated = self.leaves = 0
        self.duplicates = self.rejected = self.cut = 0


class SearchLimit(Exception):
    """Raised by enumerate_models when a resource limit cuts the search
    short, so limit termination is distinguishable from exhaustion; stats
    says how far the search got."""

    def __init__(self, limit: str, stats: SearchStats):
        super().__init__(limit)
        self.limit = limit
        self.stats = stats


class SearchOptions:
    def __init__(self, size, upto_iso=False, max_models=None,
                 max_seconds=None):
        if size < 1:
            raise SearchError("size must be >= 1")
        if max_models is not None and max_models < 0:
            raise SearchError("max_models must be >= 0")
        if max_seconds is not None and max_seconds <= 0:
            raise SearchError("max_seconds must be positive")
        self.size = size
        self.upto_iso = upto_iso
        self.max_models = max_models
        self.max_seconds = max_seconds


class _Searcher:
    def __init__(self, theory, opts: SearchOptions, stats=None):
        self.theory = theory
        self.opts = opts
        self.n = opts.size
        self.defs, defining = theory.definitions()
        searched = [(s, a, k) for s, (a, k) in theory.symbols().items()
                    if s not in self.defs]
        funs = [(s, a) for s, a, k in searched if k == "function"]
        rels = [(s, a) for s, a, k in searched if k == "relation"]
        funs.sort(key=lambda sa: sa[1])  # constants, unary, binary, ...
        self.fun_syms, self.rel_syms = funs, rels

        # fixed cell order; base[name] = first cell id of that table.
        # Concentric as in Mace4: by largest argument (-1 for constants)
        # before position, so the elements in use grow one at a time;
        # within that, same-arity tables interleaved position by position,
        # so axioms coupling two operations fail early; searched relations
        # still come last
        self.base = {}
        self.is_rel_cell = []
        keys = []
        for kind, syms in enumerate((funs, rels)):
            for seq, (s, a) in enumerate(syms):
                self.base[s] = len(self.is_rel_cell)
                for i, args in enumerate(product(range(self.n), repeat=a)):
                    keys.append((kind, a, max(args, default=-1), i, seq,
                                 len(self.is_rel_cell)))
                    self.is_rel_cell.append(kind == 1)
        self.cell_count = len(self.is_rel_cell)
        keys.sort()
        self.order = [key[-1] for key in keys]
        # up to isomorphism, one walk along the order per transposition
        # (a b) of two elements, for the transposition cut: each position's
        # cell, the cell the transposition moves to it and the map of its
        # value (relation values stay)
        self.walks = []
        if opts.upto_iso:
            same = list(range(self.n))
            for a, b in combinations(range(self.n), 2):
                swap = same[:]
                swap[a], swap[b] = b, a
                src = [self.base[s] + j for s, ar in funs + rels
                       for j in _relabelled_cells(self.n, swap, ar)]
                self.walks.append([(c, src[c],
                                    same if self.is_rel_cell[c] else swap)
                                   for c in self.order])

        # split assumptions into propagated clauses and leaf formulas
        self.leaf_formulas = []
        clauses = []
        for i, f in enumerate(theory.assumptions):
            if i in defining:
                continue
            if not formula_symbols(f).isdisjoint(self.defs):
                self.leaf_formulas.append(f)
            else:
                clauses.extend(clausify(f, "assumption"))
        self.stats = SearchStats() if stats is None else stats
        self.checkers = self._compile(clauses)

    def _compile(self, clauses):
        """The ground instances of the clauses' checkers at this size.

        ``bind(B0, B1, ..., n1, n2, ...)`` from _checkers is called once,
        with Bi = base[symbols[i]] and nk = n**k, and returns one
        ``chkK(a0, a1, ..., vals)`` per clause; the instance for the
        variable values v0, v1, ... is ``partial(chkK, v0, v1, ...)``."""
        symbols, top, bind, arities = _checkers(tuple(clauses))
        n = self.n
        checkers = bind(*[self.base[s] for s in symbols],
                        *[n ** k for k in range(1, top)])
        return [partial(chk, *values)
                for chk, arity in zip(checkers, arities)
                for values in product(range(n), repeat=arity)]

    # ---- search

    def models(self):
        """The leaves that pass the leaf check, as models in search order;
        with upto_iso, the canonical form of the first leaf of each
        isomorphism class.  The defined tables are computed from the
        searched ones, so keys of the searched tables alone split the
        leaves into the same classes, and the leaf check passes or fails
        for a whole class at once.  Without defined tables, the
        relabelling that gave the leaf its key gives its canonical form."""
        stats = self.stats
        upto_iso = self.opts.upto_iso
        seen = set()
        for vals in self.run():
            if upto_iso:
                key, perm = self._labeling(vals)
                if key in seen:
                    stats.duplicates += 1
                    continue
                seen.add(key)
            m = self._leaf_model(vals)
            if m is None:
                stats.rejected += 1
            elif not upto_iso:
                yield m
            elif self.defs:
                # the defined tables can order the classes differently
                yield m.canonical_form()
            else:
                yield m.permuted(perm)

    def run(self):
        """The cells at every leaf in search order, isomorphic copies
        included: one list, changed in place once the search resumes."""
        vals = [None] * self.cell_count
        full = (1 << self.n) - 1
        # dom[cell]: bitmask of the values not yet ruled out for the cell
        self.dom = [3 if rel else full for rel in self.is_rel_cell]
        watch = [[] for _ in range(self.cell_count)]
        stats = self.stats

        # the root pass checks every instance once; what it assigns and
        # removes is never undone
        if not self._propagate(None, None, vals, watch, [], [], []):
            return
        tied = self._tied([(t, 0) for t in range(len(self.walks))], vals)
        if tied is None:
            return

        deadline = (time.monotonic() + self.opts.max_seconds
                    if self.opts.max_seconds else None)
        order = self.order
        dom = self.dom
        # one frame per decision: (pos, values left to try, tied, trail,
        # wlog, dtrail).  The values left are those of the cell's domain
        # when the frame opens, in ascending order; tied lists the
        # transpositions still tied before the decision (see _tied); trail
        # holds the cells the frame's current value assigned (the decision
        # cell plus every cell propagation assigned), wlog its watch-list
        # additions and dtrail (cell, old domain) for every domain it
        # narrowed, all undone LIFO before the next value.
        stack = []

        def push(pos, tied):
            """Open a frame on the first cell from pos on that has no
            value; False when there is none, that is at a leaf."""
            while pos < self.cell_count and vals[order[pos]] is not None:
                pos += 1
            if pos == self.cell_count:
                return False
            d = dom[order[pos]]
            stack.append((pos, iter([v for v in range(d.bit_length())
                                     if d >> v & 1]),
                          tied, [], [], []))
            return True

        if not push(0, tied):
            stats.leaves += 1
            yield vals
        ticks = 0
        while stack:
            ticks += 1
            if deadline is not None and not ticks & 1023 \
                    and time.monotonic() > deadline:
                raise SearchLimit("max_seconds", stats)
            pos, it, tied, trail, wlog, dtrail = stack[-1]
            for b in reversed(wlog):
                watch[b].pop()
            wlog.clear()
            for c in reversed(trail):
                vals[c] = None
            trail.clear()
            for c, d in reversed(dtrail):
                dom[c] = d
            dtrail.clear()
            v = next(it, None)
            if v is None:
                stack.pop()
                continue
            stats.decisions += 1
            cell = order[pos]
            if tied:
                # the cut before propagation: it compares assigned cells
                # only, which propagation keeps
                vals[cell] = v
                tied = self._tied(tied, vals)
                vals[cell] = None
                if tied is None:
                    stats.cut += 1
                    continue
            if not self._propagate(cell, v, vals, watch, wlog, trail, dtrail):
                stats.conflicts += 1
                continue
            sub = self._tied(tied, vals) if tied else tied
            if sub is None:
                stats.cut += 1
            elif not push(pos + 1, sub):
                stats.leaves += 1
                yield vals
        # loop leaves root-assigned vals set; harmless, search is over

    def _tied(self, tied, vals):
        """The transpositions of tied, as (walk index, position) pairs,
        that the partial tables vals still tie with from that position on,
        each with the position it stopped at; None when one of them makes
        the tables lexicographically smaller (the transposition cut).

        A walk stops at the first position where the cell or the cell it
        takes its value from is unassigned, and resumes there below this
        decision; at the first difference, a smaller relabelled value cuts
        and a larger one drops the transposition for the whole subtree."""
        walks = self.walks
        out = []
        for t, p in tied:
            walk = walks[t]
            end = len(walk)
            while p < end:
                c, s, relabel = walk[p]
                x = vals[c]
                y = vals[s]
                if x is None or y is None:
                    out.append((t, p))
                    break
                y = relabel[y]
                if y != x:
                    if y < x:
                        return None
                    break
                p += 1
        return out

    def _propagate(self, cell, value, vals, watch, wlog, trail, dtrail):
        """Assign cell := value and propagate to a fixed point; with cell
        None, check every instance once instead (the root pass).

        Instances watching an assigned cell are re-checked; newly blocked
        ones additionally watch their blocking cell.  An instance down to
        one unknown cell is tried with each value left in that cell's
        domain, and the values under which it fails are removed.  An
        emptied domain fails at once; a domain left with one value is
        assigned (possibly out of cell order) and propagated in turn.
        Returns False on a conflict; all changes are logged for
        backtracking."""
        checkers = self.checkers
        dom = self.dom
        stats = self.stats
        # a queued cell keeps its place: a trial value can send an
        # evaluation to a cell not assigned yet, so what is removed depends
        # on the order in which cells are assigned
        queue = [(cell, value)]
        queued = {cell}
        while queue:
            c0, v0 = queue.pop()
            if c0 is None:
                instances = range(len(checkers))
            else:
                vals[c0] = v0
                trail.append(c0)
                instances = watch[c0]
            for idx in instances:
                chk = checkers[idx]
                res = chk(vals)
                if res == -1:
                    return False
                if res == -2:
                    continue
                if res >= 0:
                    watch[res].append(idx)
                    wlog.append(res)
                    continue
                c = -3 - res
                watch[c].append(idx)
                wlog.append(c)
                old = left = dom[c]
                rest = old
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    vals[c] = bit.bit_length() - 1
                    if chk(vals) == -1:
                        left ^= bit
                        stats.eliminated += 1
                vals[c] = None
                if left != old:
                    if not left:
                        return False
                    dtrail.append((c, old))
                    dom[c] = left
                if not left & (left - 1) and c not in queued:
                    queued.add(c)
                    queue.append((c, left.bit_length() - 1))
        return True

    def _labeling(self, vals):
        """The canonical labeling (key, perm) of _searched_model(vals),
        read from the cells."""
        n, base = self.n, self.base
        return canonical_key(
            n, [vals[base[s]] for s, a in self.fun_syms if a == 0],
            [(vals[base[s]:base[s] + n ** a], a) for s, a in self.fun_syms
             if a],
            [(vals[base[s]:base[s] + n ** a], a) for s, a in self.rel_syms])

    def _searched_model(self, vals):
        """The model of the searched tables' cells, without the defined
        tables."""
        n, base = self.n, self.base
        return FiniteModel._from_flat(
            n, {s: vals[base[s]] for s, a in self.fun_syms if a == 0},
            {s: (tuple(vals[base[s]:base[s] + n ** a]), a)
             for s, a in self.fun_syms if a},
            {s: (tuple(map(bool, vals[base[s]:base[s] + n ** a])), a)
             for s, a in self.rel_syms})

    def _leaf_model(self, vals):
        """The model of the cells with its defined tables, or None when it
        fails the leaf formulas or satisfies every goal."""
        m = self._searched_model(vals).extend(self.defs)
        if not all(m.satisfies(f) for f in self.leaf_formulas):
            return None
        if self.theory.goals and all(m.satisfies(g)
                                     for g in self.theory.goals):
            return None
        return m


# clause sets whose checkers are kept compiled, a bound on the memory they
# hold: the builtin theories make four, and a search of a clause set
# compiled before only binds its instances
_COMPILED_CLAUSE_SETS = 32


@lru_cache(maxsize=_COMPILED_CLAUSE_SETS)
def _checkers(clauses):
    """Compile the tuple clauses to checkers for every domain size:
    (symbols, top, bind, arities), symbols being the table symbols the
    clauses mention, top their highest arity, and arities the number of
    variables of each clause.

    ``bind(B0, B1, ..., n1, n2, ...)`` takes the first cell Bi of
    symbols[i]'s table and the stride nk = n**k for each k < top, and
    returns one ``chkK(a0, a1, ..., vals)`` per clause K, its parameters
    being the clause's variables in name order: one generated function per
    clause, not per instance or per size, whose instances bind all but
    vals (_Searcher._compile).  The first cells and strides are bind's
    parameters, not the checkers': so an instance binds only its variable
    values, and a call passes as few arguments as a checker written for
    one size would take.  The body is written in one post-order walk over
    each literal's terms: every table lookup becomes ``tK = vals[cell]``,
    with the cell index the table's first cell for a constant and computed
    into ``cK`` from it, the strides and the arguments otherwise.  An
    unassigned lookup counts in ``nb``, the first such cell goes to ``b``,
    and the rest of its literal is skipped; a literal whose lookups all
    succeed is evaluated, and a true one returns at once.

    checker(vals) -> -2 satisfied, -1 conflict, a cell id >= 0 the
    evaluation is blocked on when more than one lookup is blocked, or
    -3 - c when exactly one lookup is blocked, on cell c; trying c's
    values one by one then tells which of them the instance rules out.
    """
    symbols = {}  # table symbol -> its position among the B parameters
    top = 0
    lines = []

    def put(text):
        lines.append("    " * depth + text)

    def lookup(name, args):
        # one table lookup; code after it runs only when it succeeded
        nonlocal depth, tmp, top
        base = "B%d" % symbols.setdefault(name, len(symbols))
        top = max(top, len(args))
        if args:
            cell = "c%d" % tmp
            put("%s = %s" % (cell, " + ".join([base] + [
                a if i + 1 == len(args)
                else "n%d*%s" % (len(args) - 1 - i, a)
                for i, a in enumerate(args)])))
        else:
            cell = base
        t = "t%d" % tmp
        tmp += 1
        put("%s = vals[%s]" % (t, cell))
        put("if %s is None:" % t)
        put("    nb += 1")
        put("    if b < 0: b = %s" % cell)
        put("else:")
        depth += 1
        return t

    def term(t):
        # post-order: the arguments' lookups come before the root's
        if t[0] == VAR:
            return env[t[1]]
        return lookup(t[0], [term(a) for a in t[1:]])

    arities = []
    for k, clause in enumerate(clauses):
        names = sorted({v for _, a in clause for t in a[1:]
                        for v in term_vars(t)})
        env = {v: "a%d" % i for i, v in enumerate(names)}
        arities.append(len(names))
        lines += ["    def chk%d(%s):" % (k, ", ".join(
                      [env[v] for v in names] + ["vals"])),
                  "        b = -1", "        nb = 0"]
        tmp = 0
        for pol, atom in clause:
            depth = 2
            if atom[0] == "=":
                cond = "%s == %s" % (term(atom[1]), term(atom[2]))
            else:
                cond = lookup(atom[0], [term(a) for a in atom[1:]])
            put("if %s%s: return -2" % ("" if pol else "not ", cond))
        lines += ["        if nb == 0: return -1",
                  "        if nb == 1: return -3 - b",
                  "        return b"]
    # bind's parameters are known once every clause is written
    lines.insert(0, "def bind(%s):" % ", ".join(
        ["B%d" % i for i in range(len(symbols))]
        + ["n%d" % k for k in range(1, top)]))
    lines.append("    return [%s]" % ", ".join(
        "chk%d" % k for k in range(len(clauses))))
    ns = {}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from terms only
    return tuple(symbols), top, ns["bind"], tuple(arities)


def enumerate_models(theory, opts: SearchOptions, stats: SearchStats = None):
    """Stream the models of theory at opts.size in deterministic order.

    With goals present, only models falsifying at least one goal are
    emitted (counterexample mode).  With upto_iso, the canonical form of
    the first model found in each isomorphism class is emitted.  Raises
    SearchLimit when max_models or max_seconds cuts the search short.
    stats, when given, is the SearchStats the search counts into, so the
    caller can read it also after a search that runs to completion.
    """
    searcher = _Searcher(theory, opts, stats)
    models = searcher.models()
    if opts.max_models is not None:
        models = _capped(models, opts.max_models, searcher.stats)
    return models


def _capped(models, cap, stats):
    """At most cap models.  SearchLimit is raised at the first model past
    the cap, which for cap >= 1 is right after the last one admitted, so
    the search does not go on to look for it."""
    for i, m in enumerate(models):
        if i == cap:
            raise SearchLimit("max_models", stats)
        yield m
        if i + 1 == cap:
            raise SearchLimit("max_models", stats)


def count_models(theory, size, upto_iso=True) -> int:
    return sum(1 for _ in enumerate_models(
        theory, SearchOptions(size, upto_iso=upto_iso)))


def isofilter(models):
    """First-seen representative of each isomorphism class, order kept."""
    seen = set()
    for m in models:
        key = m.canonical_labeling()[0]
        if key not in seen:
            seen.add(key)
            yield m
