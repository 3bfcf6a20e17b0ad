"""Backtracking finite-model search with isomorphism filtering.

Table cells are assigned in a fixed order (constants, then function tables by
arity, same-arity tables interleaved position by position,
then relation tables).  Assumptions are compiled to ground
instances; each instance watches the cell its evaluation is currently blocked
on and is re-checked when that cell gets a value, pruning on violation.

Goals put the search in counterexample mode: emitted models must falsify at
least one goal.  Relations defined by an IFF assumption over distinct
variables (like >=) are not searched; their tables are derived at the leaves.
"""

from __future__ import annotations

import time
from itertools import product

from .model import FiniteModel, unflatten
from .terms import VAR, clausify, formula_atoms, term_vars


class SearchError(ValueError):
    pass


class SearchLimit(Exception):
    """Raised by enumerate_models when a resource limit cuts the search
    short, so limit termination is distinguishable from exhaustion."""

    def __init__(self, limit: str):
        super().__init__(limit)
        self.limit = limit


class SearchOptions:
    def __init__(self, size, upto_iso=False, max_models=None,
                 max_seconds=None):
        if size < 1:
            raise SearchError("size must be >= 1")
        self.size = size
        self.upto_iso = upto_iso
        self.max_models = max_models
        self.max_seconds = max_seconds


def _relation_definitions(theory):
    """IFF assumptions R(v1..vk) <-> rhs with distinct variable arguments
    and R not occurring in rhs define R as a derived table."""
    defs = {}
    defining = []
    for i, f in enumerate(theory.assumptions):
        if f[0] != "iff" or f[1][0] != "atom":
            continue
        atom = f[1][1]
        name = atom[0]
        if name == "=":
            continue
        args = atom[1:]
        if not all(t[0] == VAR for t in args):
            continue
        if len({t[1] for t in args}) != len(args):
            continue
        if any(a[0] == name for a in formula_atoms(f[2])):
            continue
        if name in defs:
            continue
        defs[name] = (tuple(t[1] for t in args), f[2])
        defining.append(i)
    return defs, set(defining)


class _Searcher:
    def __init__(self, theory, opts: SearchOptions):
        self.theory = theory
        self.opts = opts
        self.n = opts.size
        symbols = theory.symbols()
        self.derived, defining = _relation_definitions(theory)

        funs = [(s, a) for s, (a, k) in symbols.items() if k == "function"]
        rels = [(s, a) for s, (a, k) in symbols.items()
                if k == "relation" and s != "=" and s not in self.derived]
        funs.sort(key=lambda sa: sa[1])  # constants, unary, binary, ...
        self.fun_syms, self.rel_syms = funs, rels

        # fixed cell order; base[name] = first cell id of that table
        self.base = {}
        self.cell_count = 0
        for s, a in funs + rels:
            self.base[s] = self.cell_count
            self.cell_count += self.n ** a
        self.is_rel_cell = [False] * self.cell_count
        for s, a in rels:
            for i in range(self.n ** a):
                self.is_rel_cell[self.base[s] + i] = True

        # assignment order: same-arity tables interleaved position by
        # position, so axioms coupling two operations fail early; searched
        # relations still come last
        keys = []
        for seq, (s, a) in enumerate(funs):
            for i in range(self.n ** a):
                keys.append(((0, a, i, seq), self.base[s] + i))
        for seq, (s, a) in enumerate(rels):
            for i in range(self.n ** a):
                keys.append(((1, a, i, seq), self.base[s] + i))
        keys.sort()
        self.order = [cell for _, cell in keys]

        # prefix max of argument indices along the order, for least-number
        # pruning
        digits = [0] * self.cell_count
        for s, a in funs + rels:
            for i in range(self.n ** a):
                digits_max = -1
                j = i
                for _ in range(a):
                    j, d = divmod(j, self.n)
                    digits_max = max(digits_max, d)
                digits[self.base[s] + i] = digits_max
        self.smax = []
        acc = -1
        for cell in self.order:
            acc = max(acc, digits[cell])
            self.smax.append(acc)

        # split assumptions into propagated clauses and leaf formulas
        self.uses_numerals = False
        self.leaf_formulas = []
        clauses = []
        for i, f in enumerate(theory.assumptions):
            if i in defining:
                continue
            if any(a[0] in self.derived for a in formula_atoms(f)):
                self.leaf_formulas.append(f)
            else:
                clauses.extend(clausify(f, "assumption"))
        self.force_mult = max(self.n, 2)
        self.instances = self._ground_instances(clauses)
        self.checkers = self._codegen(self.instances)

    # ---- compilation to flat postfix programs
    # opcodes: (0, element) push constant; (1, cell) push table value;
    # (2, base, weights) pop len(weights) args, push value of that cell.

    def _emit(self, t, env, prog):
        if t[0] == VAR:
            prog.append((0, env[t[1]]))
            return
        name, args = t[0], t[1:]
        if not args:
            if name in self.base:
                prog.append((1, self.base[name]))
            elif name.isdigit() and int(name) < self.n:
                self.uses_numerals = True
                prog.append((0, int(name)))
            else:
                raise SearchError("uninterpreted constant %r" % name)
            return
        if name not in self.base:
            raise SearchError("uninterpreted function %r" % name)
        for a in args:
            self._emit(a, env, prog)
        prog.append((2, self.base[name],
                     tuple(self.n ** (len(args) - 1 - i)
                           for i in range(len(args)))))

    def _ground_instances(self, clauses):
        out = []
        for clause in clauses:
            names = sorted({v for _, a in clause for t in a[1:]
                            for v in term_vars(t)})
            for values in product(range(self.n), repeat=len(names)):
                env = dict(zip(names, values))
                lits = []
                for pol, atom in clause:
                    prog = []
                    for t in atom[1:]:
                        self._emit(t, env, prog)
                    if atom[0] != "=":
                        if atom[0] not in self.base:
                            raise SearchError(
                                "uninterpreted relation %r" % atom[0])
                        k = len(atom) - 1
                        prog.append((2, self.base[atom[0]],
                                     tuple(self.n ** (k - 1 - i)
                                           for i in range(k))))
                    # equality leaves two stack values, a relation one
                    lits.append((pol, atom[0] == "=", tuple(prog)))
                out.append(tuple(lits))
        return out

    def _codegen(self, instances):
        """Compile every ground instance to a checker function.

        checker(vals) -> -2 satisfied, -1 conflict, a cell id >= 0 the
        evaluation is blocked on, or <= -10 encoding a forced value:
        -10 - (cell * mult + value) says that cell must hold that value.
        A value is forced by unit propagation: every other literal of the
        instance is false and the remaining literal's only unknown is its
        last table lookup (for a positive equality the forced value is the
        other side; for a relation literal it is the required truth value).
        Cell indices with constant arguments are folded at compile time, so
        flat axiom instances become direct table lookups.
        """
        mult = self.force_mult
        lines = []

        def put(depth, text):
            lines.append("    " * depth + text)

        for i, inst in enumerate(instances):
            put(0, "def chk%d(vals):" % i)
            put(1, "b = -1")
            put(1, "nb = 0")
            put(1, "f = -1")
            tmp = 0
            for pol, is_eq, prog in inst:
                last_lookup = max((j for j, op in enumerate(prog)
                                   if op[0] != 0), default=None)
                depth = 1
                stack = []
                for j, op in enumerate(prog):
                    if op[0] == 0:
                        stack.append(str(op[1]))
                    else:
                        if op[0] == 1:
                            cell = str(op[1])
                        else:
                            _, base, weights = op
                            k = len(weights)
                            args = stack[-k:]
                            del stack[-k:]
                            if all(a.isdigit() for a in args):
                                cell = str(base + sum(
                                    w * int(a)
                                    for w, a in zip(weights, args)))
                            else:
                                terms = [str(base)] + [
                                    a if w == 1 else "%d*%s" % (w, a)
                                    for w, a in zip(weights, args)]
                                cell = "c%d" % tmp
                                put(depth, "%s = %s" % (
                                    cell, " + ".join(terms)))
                        t = "t%d" % tmp
                        tmp += 1
                        put(depth, "%s = vals[%s]" % (t, cell))
                        put(depth, "if %s is None:" % t)
                        forced = None
                        if j == last_lookup:
                            # remaining ops are pushes with static strings;
                            # reaching here means every earlier lookup
                            # succeeded, so the rest of the literal is known
                            rest = [str(o[1]) for o in prog[j + 1:]]
                            if is_eq:
                                if pol:
                                    pair = stack + [t] + rest
                                    other = (pair[0] if pair[1] == t
                                             else pair[1])
                                    forced = other
                            else:
                                forced = "1" if pol else "0"
                        put(depth + 1, "nb += 1")
                        if forced is not None:
                            put(depth + 1, "if nb == 1: f = %s * %d + %s"
                                % (cell, mult, forced))
                        put(depth + 1, "if b < 0: b = %s" % cell)
                        put(depth, "else:")
                        depth += 1
                        stack.append(t)
                if is_eq:
                    cond = "%s == %s" % (stack[0], stack[1])
                else:
                    cond = stack[0]
                put(depth, "if %s%s: return -2"
                    % ("" if pol else "not ", cond))
            put(1, "if nb == 0: return -1")
            put(1, "if nb == 1 and f >= 0: return -10 - f")
            put(1, "return b")
        ns = {}
        exec("\n".join(lines), ns)  # noqa: S102 - generated from terms only
        return [ns["chk%d" % i] for i in range(len(instances))]

    # ---- search

    def run(self):
        """Every leaf model in search order, isomorphic copies included."""
        vals = [None] * self.cell_count
        watch = [[] for _ in range(self.cell_count)]
        self.era = [0] * self.cell_count
        self.sat_token = [None] * len(self.instances)
        mult = self.force_mult

        # initial pass: register watches; values dictated by variable-free
        # unit instances are assigned up front and never undone
        init_forced = {}
        for idx, chk in enumerate(self.checkers):
            res = chk(vals)
            if res == -1:
                return
            if res >= 0:
                watch[res].append(idx)
            elif res <= -10:
                c, v = divmod(-10 - res, mult)
                watch[c].append(idx)
                if init_forced.setdefault(c, v) != v:
                    return
        root_vmax = -1
        root_wlog, root_trail = [], []
        for c, v in sorted(init_forced.items()):
            if vals[c] is None:
                ok, vm = self._propagate(c, v, vals, watch, root_wlog,
                                         root_trail)
                if not ok:
                    return
                root_vmax = max(root_vmax, vm)
            elif vals[c] != v:
                return

        deadline = (time.monotonic() + self.opts.max_seconds
                    if self.opts.max_seconds else None)
        # per decision level: trail[pos] = cells assigned by that decision
        # (the decision cell plus everything unit propagation forced),
        # wlog[pos] = watch-list additions; both undone LIFO on backtrack.
        # vmax[pos]: largest element value assigned up to and including pos.
        # era[cell] ticks whenever that cell's assignment changes; a cached
        # "satisfied at (cell, era)" verdict stays valid while era holds.
        trail = [[] for _ in range(self.cell_count)]
        wlog = [[] for _ in range(self.cell_count)]
        vmax = [-1] * self.cell_count
        order = self.order
        era = self.era
        stack = []

        def push(pos):
            cell = order[pos]
            if vals[cell] is not None:
                # already assigned by propagation at an earlier level
                stack.append((pos, iter((vals[cell],)), True))
            else:
                before = vmax[pos - 1] if pos else root_vmax
                stack.append((pos, iter(self._domain(pos, before)), False))

        push(0)
        ticks = 0
        while stack:
            ticks += 1
            if deadline is not None and not ticks & 1023 \
                    and time.monotonic() > deadline:
                raise SearchLimit("max_seconds")
            pos, it, noop = stack[-1]
            for b in reversed(wlog[pos]):
                watch[b].pop()
            wlog[pos].clear()
            for c in reversed(trail[pos]):
                vals[c] = None
                era[c] += 1
            trail[pos].clear()
            v = next(it, None)
            if v is None:
                stack.pop()
                continue
            before = vmax[pos - 1] if pos else root_vmax
            if noop:
                vmax[pos] = before
            else:
                ok, vm = self._propagate(order[pos], v, vals, watch,
                                         wlog[pos], trail[pos])
                vmax[pos] = max(before, vm)
                if not ok:
                    continue
            if pos + 1 == self.cell_count:
                m = self._leaf_model(vals)
                if m is not None:
                    yield m
            else:
                push(pos + 1)
        # loop leaves root-forced vals set; harmless, search is over

    def _domain(self, pos, vmax_before):
        cell = self.order[pos]
        if self.is_rel_cell[cell]:
            return (0, 1)
        if self.opts.upto_iso and not self.uses_numerals:
            # least-number heuristic: elements beyond the largest one
            # mentioned so far are interchangeable, so trying the first
            # fresh one is enough; sound up to isomorphism
            top = max(vmax_before, self.smax[pos])
            return range(min(self.n, top + 2))
        return range(self.n)

    def _propagate(self, cell, value, vals, watch, wlog, trail):
        """Assign cell := value and unit propagate to a fixed point.

        Instances watching an assigned cell are re-checked; newly blocked
        ones additionally watch their blocking cell.  A value dictated by a
        unit instance is assigned immediately (possibly out of cell order)
        and propagated in turn.  Conflicting dictated values fail at once.
        Returns (ok, vmax) where vmax is the largest element assigned to a
        function cell here; all additions are logged for backtracking."""
        checkers = self.checkers
        era = self.era
        tokens = self.sat_token
        mult = self.force_mult
        is_rel = self.is_rel_cell
        queue = [(cell, value)]
        pending = {cell: value}
        new_vmax = -1
        while queue:
            c0, v0 = queue.pop()
            del pending[c0]
            vals[c0] = v0
            era[c0] += 1
            trail.append(c0)
            if not is_rel[c0] and v0 > new_vmax:
                new_vmax = v0
            here = era[c0]
            for idx in watch[c0]:
                tok = tokens[idx]
                if tok is not None and era[tok[0]] == tok[1]:
                    continue
                res = checkers[idx](vals)
                if res == -1:
                    return False, new_vmax
                if res == -2:
                    tokens[idx] = (c0, here)
                elif res >= 0:
                    watch[res].append(idx)
                    wlog.append(res)
                else:
                    c, v = divmod(-10 - res, mult)
                    watch[c].append(idx)
                    wlog.append(c)
                    w = vals[c]
                    if w is None:
                        w = pending.get(c)
                        if w is None:
                            pending[c] = v
                            queue.append((c, v))
                            continue
                    if w != v:
                        return False, new_vmax
        return True, new_vmax

    def _leaf_model(self, vals):
        n = self.n
        consts, funs, rels = {}, {}, {}
        for s, a in self.fun_syms:
            flat = vals[self.base[s]:self.base[s] + n ** a]
            if a == 0:
                consts[s] = flat[0]
            else:
                funs[s] = unflatten(flat, a, n)
        for s, a in self.rel_syms:
            flat = [bool(v) for v in
                    vals[self.base[s]:self.base[s] + n ** a]]
            rels[s] = unflatten(flat, a, n)
        m = FiniteModel(n, consts, funs, rels)
        for name, (params, rhs) in self.derived.items():
            arity = len(params)
            flat = []
            for values in product(range(n), repeat=arity):
                flat.append(m.holds(dict(zip(params, values)), rhs))
            rels[name] = unflatten(flat, arity, n)
            m = FiniteModel(n, consts, funs, rels)
        for f in self.leaf_formulas:
            if not m.satisfies(f):
                return None
        if self.theory.goals:
            if all(m.satisfies(g) for g in self.theory.goals):
                return None
        return m


def enumerate_models(theory, opts: SearchOptions):
    """Stream the models of theory at opts.size in deterministic order.

    With goals present, only models falsifying at least one goal are
    emitted (counterexample mode).  With upto_iso, the canonical form of
    the first model found in each isomorphism class is emitted.  Raises
    SearchLimit when max_models or max_seconds cuts the search short.
    """
    models = _Searcher(theory, opts).run()
    if opts.upto_iso:
        models = (m.permuted(perm) for m, perm in _first_of_class(models))
    if opts.max_models is not None:
        models = _capped(models, opts.max_models)
    return models


def _first_of_class(models):
    """(m, perm) for the first-seen m of each isomorphism class, where
    m.permuted(perm) is its canonical form."""
    seen = set()
    for m in models:
        key, perm = m.canonical_labeling()
        if key not in seen:
            seen.add(key)
            yield m, perm


def _capped(models, cap):
    """At most cap models.  SearchLimit is raised at the first model past
    the cap, which for cap >= 1 is right after the last one admitted, so
    the search does not go on to look for it."""
    for i, m in enumerate(models):
        if i == cap:
            raise SearchLimit("max_models")
        yield m
        if i + 1 == cap:
            raise SearchLimit("max_models")


def count_models(theory, size, upto_iso=True) -> int:
    return sum(1 for _ in enumerate_models(
        theory, SearchOptions(size, upto_iso=upto_iso)))


def isofilter(models):
    """First-seen representative of each isomorphism class, order kept."""
    return (m for m, _ in _first_of_class(models))
