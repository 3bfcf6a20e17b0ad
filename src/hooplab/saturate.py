"""Given-clause saturation prover with verifiable proof objects.

The loop keeps a passive and an active clause set.  Each round it selects a
given clause (four picks out of five by minimal weight, the fifth by age),
moves it to the active set, and generates paramodulants, resolvents and
factors between the given clause and the active set.  New clauses are
simplified by demodulation with LPO-orientable unit equations, checked for
tautology and forward subsumption, and added to the passive set.  A fresh
oriented unit equation back-simplifies everything already present.

For a symbol that the assumptions declare associative and commutative, a
new clause with a positive equation whose sides are equal modulo AC is
deleted: it follows from those two axioms alone (it is ground joinable).

Proofs are by contradiction and end in the empty clause $F.  Every step
carries a justification precise enough for independent re-derivation; see
verify_proof and the proof text format in the README.
"""

from __future__ import annotations

import heapq
import time
from itertools import count

from .terms import (GREATER, INCOMPARABLE, LESS, VAR, ac_normal,
                    canonical_clause, clause_weight, clausify, is_tautology,
                    lpo_gt, match, rename_apart, replace_at, substitute,
                    substitute_clause, subterm_at, subterm_patterns,
                    subterms, term_size, unify)

EMPTY = ()


class ProverError(ValueError):
    pass


class _Prec(dict):
    """Theory precedence extended with Skolem constants c1, c2, ... which
    sit above declared constants and below proper functions."""

    def __missing__(self, sym):
        if sym.startswith("c") and sym[1:].isdigit():
            v = 500 + int(sym[1:])
            self[sym] = v
            return v
        raise KeyError(sym)


class ProverLimits:
    def __init__(self, max_seconds=None, max_given=None,
                 max_clause_weight=None):
        for v in (max_seconds, max_given, max_clause_weight):
            if v is not None and v <= 0:
                raise ProverError("limits must be positive")
        self.max_seconds = max_seconds
        self.max_given = max_given
        self.max_clause_weight = max_clause_weight


class ProofStep:
    """One proof line: a clause plus its justification.

    justification is a list of operations; the first produces a clause, the
    rest transform it in order:
      ("goal",) | ("assumption",) | ("deny", goal_step_id) | ("copy", id)
      | ("para", from_id, side, into_id, lit, path)
      | ("resolve", id1, lit1, id2, lit2) | ("factor", id, lit1, lit2)
    secondary:
      ("rewrite", [(demod_id, lit, path, side), ...]) | ("xx", lit)
      | ("flip", lit)
    side is "l" or "r" (which side of the unit equation acted as left-hand
    side); lit is a 0-based literal index; path is a tuple whose first entry
    is the 1-based atom-argument index, the rest 1-based term-argument
    indices.
    """

    def __init__(self, step_id, clause, justification, formula=None):
        self.id = step_id
        self.clause = clause
        self.justification = justification
        self.formula = formula  # only for the goal step

    def antecedents(self):
        out = []
        for op in self.justification:
            kind = op[0]
            if kind in ("deny", "copy"):
                out.append(op[1])
            elif kind in ("para", "resolve"):
                out.extend((op[1], op[3]))
            elif kind == "factor":
                out.append(op[1])
            elif kind == "rewrite":
                out.extend(e[0] for e in op[1])
        return out


class Proof:
    def __init__(self, steps):
        self.steps = list(steps)

    def step_map(self):
        return {s.id: s for s in self.steps}


class Outcome:
    status = None


class Proved(Outcome):
    status = "proved"

    def __init__(self, proof):
        self.proof = proof


class Exhausted(Outcome):
    status = "exhausted"


class LimitReached(Outcome):
    status = "limit"

    def __init__(self, which):
        self.which = which


# ---------------------------------------------------------------------------
# clause utilities

def _dedup(clause):
    seen = []
    for lit in clause:
        if lit not in seen:
            seen.append(lit)
    return tuple(seen)



def _clause_feats(clause):
    return frozenset((pol, atom[0]) for pol, atom in clause)


def _clause_subterms(clause):
    """The distinct non-variable subterms of a clause."""
    return {sub for _, atom in clause for t in atom[1:]
            for sub in subterms(t) if sub[0] != VAR}


def _ac_symbols(clauses):
    """Binary symbols f with both f(x, y) = f(y, x) and
    f(f(x, y), z) = f(x, f(y, z)) among the unit clauses, in any variable
    naming and either orientation."""
    comm, assoc = set(), set()
    for clause in clauses:
        if len(clause) != 1 or not clause[0][0] or clause[0][1][0] != "=":
            continue
        _, s, t = clause[0][1]
        for a, b in ((s, t), (t, s)):
            if len(a) != 3:
                continue
            f = a[0]
            if (a[1][0] == VAR and a[2][0] == VAR and a[1] != a[2]
                    and b == (f, a[2], a[1])):
                comm.add(f)
            if len(a[1]) == 3 and a[1][0] == f:
                x, y, z = a[1][1], a[1][2], a[2]
                if (all(v[0] == VAR for v in (x, y, z))
                        and len({x, y, z}) == 3 and b == (f, x, (f, y, z))):
                    assoc.add(f)
    return comm & assoc


def _subsumes(c, d):
    """True if some substitution maps c into a subset of d (equations may
    match either way around)."""
    if len(c) > len(d):
        return False
    # the d atoms each literal of c matches on its own; the joint search
    # then starts from the literal with the fewest
    options = []
    for pol, atom in c:
        opts = []
        for pol2, atom2 in d:
            if pol2 != pol or atom2[0] != atom[0]:
                continue
            flips = [atom2]
            if atom2[0] == "=" and atom2[1] != atom2[2]:
                flips.append((atom2[0], atom2[2], atom2[1]))
            for cand in flips:
                if match(atom, cand) is not None:
                    opts.append(cand)
        if not opts:
            return False
        options.append((atom, opts))
    options.sort(key=lambda o: len(o[1]))

    def go(i, binding):
        if i == len(options):
            return True
        atom, opts = options[i]
        for atom2 in opts:
            b = match(atom, atom2, dict(binding))
            if b is not None and go(i + 1, b):
                return True
        return False

    return go(0, {})


def _apply_rewrite(clause, entry, demod_clause, prec=None):
    """Apply one recorded rewrite; with prec given, insist the step is
    ordering-decreasing."""
    did, li, path, side = entry
    if (len(demod_clause) != 1 or not demod_clause[0][0]
            or demod_clause[0][1][0] != "="):
        raise ProverError("demodulator %d is not a positive unit equation"
                          % did)
    _, s, t = rename_apart(demod_clause, 999998)[0][1]
    lhs, rhs = (s, t) if side == "l" else (t, s)
    pol, atom = clause[li]
    ai, tpath = path[0], tuple(p - 1 for p in path[1:])
    sub = subterm_at(atom[ai], tpath)
    b = match(lhs, sub)
    if b is None:
        raise ProverError("demodulator %d does not match" % did)
    repl = substitute(rhs, b)
    if prec is not None and not lpo_gt(sub, repl, prec):
        raise ProverError("rewrite with %d does not decrease the ordering"
                          % did)
    new_atom = atom[:ai] + (replace_at(atom[ai], tpath, repl),) \
        + atom[ai + 1:]
    return clause[:li] + ((pol, new_atom),) + clause[li + 1:]


def _apply_secondary(clause, ops, get_clause, prec=None):
    for op in ops:
        kind = op[0]
        if kind == "rewrite":
            for entry in op[1]:
                clause = _apply_rewrite(clause, entry,
                                        get_clause(entry[0]), prec)
            clause = _dedup(clause)
        elif kind == "xx":
            li = op[1]
            pol, atom = clause[li]
            if pol or atom[0] != "=":
                raise ProverError("xx needs a negative equation")
            b = unify(atom[1], atom[2])
            if b is None:
                raise ProverError("xx sides do not unify")
            clause = _dedup(substitute_clause(
                clause[:li] + clause[li + 1:], b))
        elif kind == "flip":
            li = op[1]
            pol, atom = clause[li]
            if atom[0] != "=":
                raise ProverError("flip needs an equation")
            clause = (clause[:li] + ((pol, (atom[0], atom[2], atom[1])),)
                      + clause[li + 1:])
        else:
            raise ProverError("unknown secondary rule %r" % kind)
    return clause


def _apply_primary(op, get_clause):
    kind = op[0]
    if kind == "copy":
        return get_clause(op[1])
    if kind == "para":
        _, from_id, side, into_id, li, path = op
        from_cl = rename_apart(get_clause(from_id), 999999)
        if (len(from_cl) != 1 or not from_cl[0][0]
                or from_cl[0][1][0] != "="):
            raise ProverError("para source is not a positive unit equation")
        _, s, t = from_cl[0][1]
        lhs, rhs = (s, t) if side == "l" else (t, s)
        into_cl = get_clause(into_id)
        pol, atom = into_cl[li]
        ai, tpath = path[0], tuple(p - 1 for p in path[1:])
        sub = subterm_at(atom[ai], tpath)
        if sub[0] == VAR:
            raise ProverError("paramodulation into a variable")
        b = unify(lhs, sub)
        if b is None:
            raise ProverError("para terms do not unify")
        new_atom = atom[:ai] \
            + (replace_at(atom[ai], tpath, substitute(rhs, b)),) \
            + atom[ai + 1:]
        return _dedup(substitute_clause(
            into_cl[:li] + ((pol, new_atom),) + into_cl[li + 1:], b))
    if kind == "resolve":
        _, id1, li1, id2, li2 = op
        c1 = get_clause(id1)
        c2 = rename_apart(get_clause(id2), 999999)
        (p1, a1), (p2, a2) = c1[li1], c2[li2]
        if p1 == p2 or a1[0] != a2[0]:
            raise ProverError("resolved literals are not complementary")
        b = unify(a1, a2)
        if b is None:
            raise ProverError("resolved atoms do not unify")
        return _dedup(substitute_clause(
            c1[:li1] + c1[li1 + 1:] + c2[:li2] + c2[li2 + 1:], b))
    if kind == "factor":
        _, sid, li1, li2 = op
        c = get_clause(sid)
        (p1, a1), (p2, a2) = c[li1], c[li2]
        if p1 != p2 or a1[0] != a2[0]:
            raise ProverError("factored literals disagree")
        b = unify(a1, a2)
        if b is None:
            raise ProverError("factored atoms do not unify")
        return _dedup(substitute_clause(c[:li2] + c[li2 + 1:], b))
    raise ProverError("unknown primary rule %r" % kind)


# ---------------------------------------------------------------------------
# the prover

class _DiscTree:
    """Perfect discrimination tree for generalization retrieval.  A pattern
    is stored as its preorder, with each variable numbered by its first
    occurrence; retrieval binds the variables as it walks, so every pattern
    it returns matches the query.  A node is (symbol children, variable
    children, leaf entries)."""

    __slots__ = ("root",)

    def __init__(self):
        self.root = ({}, {}, [])

    @staticmethod
    def _keys(pattern):
        """Preorder keys (symbols, and first-occurrence numbers for
        variables) and the variable names in that order."""
        keys, names = [], []
        stack = [pattern]
        while stack:
            u = stack.pop()
            if u[0] == VAR:
                if u[1] not in names:
                    names.append(u[1])
                keys.append(names.index(u[1]))
            else:
                keys.append(u[0])
                stack.extend(reversed(u[1:]))
        return keys, tuple(names)

    def _leaf(self, keys):
        node = self.root
        for k in keys:
            children = node[1 if type(k) is int else 0]
            child = children.get(k)
            if child is None:
                child = children[k] = ({}, {}, [])
            node = child
        return node[2]

    def insert(self, pattern, value):
        keys, names = self._keys(pattern)
        self._leaf(keys).append((value, names))

    def remove(self, pattern, value):
        keys, names = self._keys(pattern)
        self._leaf(keys).remove((value, names))

    def retrieve(self, term):
        """(value, variable names, their values) for every pattern
        matching term, in insertion-sequence order (values must sort by
        their first item)."""
        out = []
        # each state: (node, query subterms still to meet as a linked
        # list, variable values bound so far)
        stack = [(self.root, (term, None), ())]
        while stack:
            node, rest, binds = stack.pop()
            while rest is not None:
                sub, tail = rest
                if node[1]:
                    nbound = len(binds)
                    for k, child in node[1].items():
                        if k < nbound:
                            if binds[k] == sub:
                                stack.append((child, tail, binds))
                        else:
                            stack.append((child, tail, binds + (sub,)))
                # a query variable is matched by pattern variables only
                if sub[0] == VAR:
                    node = None
                    break
                node = node[0].get(sub[0])
                if node is None:
                    break
                if len(sub) == 3:
                    tail = (sub[1], (sub[2], tail))
                else:
                    for a in reversed(sub[1:]):
                        tail = (a, tail)
                rest = tail
            if node is not None:
                for value, names in node[2]:
                    out.append((value, names, binds))
        out.sort(key=_first_of_value)
        return out


def _first_of_value(entry):
    return entry[0][0]


class _InstanceIndex:
    """Path index (Stickel) over the distinct non-variable subterms of the
    live clauses, each with the ids of the clauses that hold it.  A stored
    term is filed under (position, symbol) for each of its non-variable
    positions; the terms filed under every such pair of a pattern are those
    it matches, up to repeated pattern variables, so candidates still need
    a real match."""

    __slots__ = ("paths", "owners")

    def __init__(self):
        self.paths = {}         # (position, symbol) -> set of terms
        self.owners = {}        # term -> set of clause ids

    def add(self, term, sid):
        ids = self.owners.get(term)
        if ids is None:
            ids = self.owners[term] = set()
            for key in _path_keys(term):
                self.paths.setdefault(key, set()).add(term)
        ids.add(sid)

    def discard(self, term, sid):
        ids = self.owners[term]
        ids.discard(sid)
        if ids:
            return
        del self.owners[term]
        for key in _path_keys(term):
            terms = self.paths[key]
            terms.discard(term)
            if not terms:
                del self.paths[key]

    def instances(self, pattern):
        sets = []
        for key in _path_keys(pattern):
            terms = self.paths.get(key)
            if terms is None:
                return ()
            sets.append(terms)
        if len(sets) == 1:
            return sets[0]
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])


def _path_keys(t):
    """(position, symbol) for every non-variable position of t."""
    return [(path, sub[0]) for path, sub in _nonvar_subterms(t)]


def _nonvar_subterms(t):
    """(position, subterm) for every non-variable position of t, in
    preorder (the order of terms.positions)."""
    out = []
    stack = [((), t)]
    while stack:
        path, u = stack.pop()
        if u[0] == VAR:
            continue
        out.append((path, u))
        for i in range(len(u) - 1, 0, -1):
            stack.append((path + (i - 1,), u[i]))
    return out


class _Contradiction(Exception):
    def __init__(self, step_id):
        self.step_id = step_id


class _State:
    def __init__(self, theory, limits, should_stop=None):
        if len(theory.goals) != 1:
            raise ProverError("prove needs exactly one goal")
        self.theory = theory
        self.limits = limits
        self.should_stop = should_stop
        self.prec = _Prec(theory.precedence())
        self.ac_symbols = _ac_symbols(
            cl for f in theory.assumptions
            for cl in clausify(f, "assumption"))
        self.ids = count(1)
        self.steps = {}
        self.active = {}        # step ids, insertion order (values unused)
        self.passive = set()    # step ids
        self._by_weight = []    # heap of (weight, id); may hold stale ids
        self._by_age = []       # heap of ids; may hold stale ids
        self.alive = set()
        self.keys = {}          # canonical clause -> live id
        self.demod_ix = _DiscTree()   # lhs -> (seq,) + entry
        # demodulator entries (seq, id, lhs, rhs, side, ordered): every one
        # ever made, seq = index, and by live demodulator id
        self._demod_log = []
        self._demod_vals = {}
        self._root_memo = {}    # term -> (_rewrite_once result, log length)
        self._norm_memo = {}    # term -> (normal form, entries, version)
        self._lpo_cache = {}    # (s, t) -> lpo_gt(s, t)
        self.weight = {}
        self.feats = {}         # id -> frozenset of (polarity, predicate)
        self.sub_ix = _InstanceIndex()  # subterms of the live clauses
        # forward subsumption: each live clause under one of its atoms
        self.clause_ix = _DiscTree()  # atom -> (seq, id, pol, atom)
        self._clause_seq = 0
        self._clause_vals = {}  # id -> clause_ix values
        self.discarded_by_weight = False
        self.pick = 0
        self.salt = count(1)

    def _new_step(self, clause, justification):
        sid = next(self.ids)
        self.steps[sid] = ProofStep(sid, clause, justification)
        self.weight[sid] = clause_weight(clause)
        self.feats[sid] = _clause_feats(clause)
        return sid

    # -- input

    def load(self):
        goal = self.theory.goals[0]
        gid = next(self.ids)
        self.steps[gid] = ProofStep(gid, None, [("goal",)], formula=goal)
        for f in self.theory.assumptions:
            for cl in clausify(f, "assumption"):
                self.add_input(cl, ("assumption",))
        for cl in clausify(goal, "denied_goal"):
            self.add_input(cl, ("deny", gid))

    def add_input(self, clause, primary):
        """Record the raw input clause; if simplification changes it, the
        simplified version becomes a separate copy step (like the reference
        layout where the denial is rewritten in a later step)."""
        raw = canonical_clause(_dedup(clause))
        sid = self._new_step(raw, [primary])
        if not raw:
            raise _Contradiction(sid)
        simplified, justification = self.simplify(raw, [("copy", sid)])
        if len(justification) > 1:  # rewritten or a literal resolved away
            self.keep(simplified, justification)
        else:
            self._install(sid, raw, input_clause=True)

    # -- orientation / demodulation

    def _lpo(self, s, t):
        key = (s, t)
        got = self._lpo_cache.get(key)
        if got is None:
            got = lpo_gt(s, t, self.prec)
            self._lpo_cache[key] = got
        return got

    def orient(self, s, t):
        if self._lpo(s, t):
            return GREATER
        if self._lpo(t, s):
            return LESS
        return "equal" if s == t else INCOMPARABLE

    def demodulate(self, clause):
        """Rewrite to a normal form; returns (clause, rewrite entries)."""
        rewrites = []
        out = []
        for li, (pol, atom) in enumerate(clause):
            new_atom = [atom[0]]
            for ai in range(1, len(atom)):
                nf, entries = self._normalize(atom[ai])
                for did, path, side in entries:
                    rewrites.append(
                        (did, li, (ai,) + tuple(p + 1 for p in path), side))
                new_atom.append(nf)
            out.append((pol, tuple(new_atom)))
        return tuple(out), rewrites

    def _normalize(self, t):
        """Innermost normal form of t under the current demodulators,
        with the rewrite entries (demod id, 0-based path, side) in
        application order.  Memoized; a memo entry older than the newest
        demodulators stays valid if none of them rewrites its normal
        form."""
        if t[0] == VAR:
            return t, ()
        version = len(self._demod_log)
        got = self._norm_memo.get(t)
        if got is not None:
            nf, old_entries, ver = got
            if ver == version:
                return nf, old_entries
            if not self._rewritten_by(self._demod_log[ver:], nf):
                self._norm_memo[t] = (nf, old_entries, version)
                return nf, old_entries
        entries = []
        cur = t
        memo = self._norm_memo
        while True:
            if cur[0] == VAR:
                break
            args = []
            for i, a in enumerate(cur[1:]):
                if a[0] == VAR:
                    args.append(a)
                    continue
                got = memo.get(a)
                if got is not None and got[2] == version:
                    na, sub = got[0], got[1]
                else:
                    na, sub = self._normalize(a)
                if sub:
                    entries.extend((did, (i,) + p, side)
                                   for did, p, side in sub)
                args.append(na)
            cur = (cur[0],) + tuple(args)
            hit = self._rewrite_once(cur)
            if hit is None:
                break
            did, side, repl = hit
            entries.append((did, (), side))
            cur = repl
        result = (cur, tuple(entries))
        self._norm_memo[t] = (cur, result[1], version)
        return result

    def _rewritten_by(self, entries, t):
        """True when one of the demodulator entries rewrites somewhere
        inside t."""
        for sub in subterms(t):
            if sub[0] == VAR:
                continue
            for _, did, lhs, rhs, side, ordered in entries:
                if (lhs[0] != sub[0] or len(lhs) != len(sub)
                        or did not in self._demod_vals):
                    continue
                b = match(lhs, sub)
                if b is None:
                    continue
                if ordered and not self._lpo(sub, substitute(rhs, b)):
                    continue
                return True
        return False

    def _rewrite_once(self, sub):
        """The first demodulator entry, in insertion order, that rewrites
        sub at its root: (demod id, side, result), or None.  Remembered per
        term: a hit stays first while its demodulator lives (later entries
        come after it), and a miss needs only the entries added since."""
        got = self._root_memo.get(sub)
        if got is not None:
            hit, seen = got
            if hit is not None and hit[0] in self._demod_vals:
                return hit
            if hit is None and len(self._demod_log) - seen <= 4:
                for val in self._demod_log[seen:]:
                    if val[2][0] != sub[0] or val[1] not in self._demod_vals:
                        continue
                    b = match(val[2], sub)
                    if b is not None:
                        hit = self._root_step(sub, val, b)
                        if hit is not None:
                            break
                self._root_memo[sub] = (hit, len(self._demod_log))
                return hit
        hit = None
        for val, names, bound in self.demod_ix.retrieve(sub):
            hit = self._root_step(sub, val, dict(zip(names, bound)))
            if hit is not None:
                break
        self._root_memo[sub] = (hit, len(self._demod_log))
        return hit

    def _root_step(self, sub, val, b):
        _, did, _, rhs, side, ordered = val
        repl = substitute(rhs, b)
        # incomparable equations rewrite only when the instance shrinks
        if ordered and not self._lpo(sub, repl):
            return None
        return did, side, repl

    # -- adding derived clauses

    def add(self, clause, justification):
        return self.keep(*self.simplify(clause, justification))

    def simplify(self, clause, justification):
        """The clause's normal form under the demodulators with its trivial
        s != s literals resolved away, and the justification extended by
        one entry per step taken."""
        clause = _dedup(clause)
        clause, rewrites = self.demodulate(clause)
        clause = _dedup(clause)
        if rewrites:
            justification = justification + [("rewrite", rewrites)]
        kept = []
        for pol, atom in clause:
            if not pol and atom[0] == "=" and atom[1] == atom[2]:
                # its index once the literals before it have gone
                justification = justification + [("xx", len(kept))]
            else:
                kept.append((pol, atom))
        return tuple(kept), justification

    def keep(self, clause, justification):
        """Install a simplified clause as a new step unless it is
        redundant; its step id, or None."""
        if is_tautology(clause) or self._ac_tautology(clause):
            return None
        lim = self.limits.max_clause_weight
        if lim is not None and clause and clause_weight(clause) > lim:
            self.discarded_by_weight = True
            return None
        key = canonical_clause(clause)
        if self.keys.get(key) in self.alive:
            return None
        if clause and self._forward_subsumed(clause):
            return None
        sid = self._new_step(key, justification)
        if not clause:
            raise _Contradiction(sid)
        self._install(sid, key)
        return sid

    def _ac_tautology(self, clause):
        ac = self.ac_symbols
        # AC normalization keeps the top symbol, so equal tops come first
        return bool(ac) and any(
            pol and atom[0] == "=" and atom[1][0] == atom[2][0]
            and ac_normal(atom[1], ac) == ac_normal(atom[2], ac)
            for pol, atom in clause)

    def _install(self, sid, key, input_clause=False):
        self.alive.add(sid)
        self.keys[key] = sid
        self.passive.add(sid)
        heapq.heappush(self._by_weight, (self.weight[sid], sid))
        heapq.heappush(self._by_age, sid)
        for sub in _clause_subterms(key):
            self.sub_ix.add(sub, sid)
        # a subsumer maps every literal into the subsumed clause, so it is
        # found through any one of them: take the heaviest, the least
        # likely to match
        pol, atom = max(key, key=lambda lit: clause_weight((lit,)))
        pats = [atom]
        if atom[0] == "=" and atom[1] != atom[2]:
            pats.append((atom[0], atom[2], atom[1]))
        vals = []
        for pat in pats:
            val = (self._clause_seq, sid, pol, pat)
            self.clause_ix.insert(pat, val)
            vals.append(val)
            self._clause_seq += 1
        self._clause_vals[sid] = vals
        self._maybe_new_demod(sid, key, input_clause)

    def _forward_subsumed(self, clause):
        feats = _clause_feats(clause)
        tried = set()
        for pol, atom in clause:
            for (_, sid, pol2, _), _, _ in self.clause_ix.retrieve(atom):
                if pol2 != pol:
                    continue
                other = self.steps[sid].clause
                if len(other) == 1:
                    return True
                if sid in tried:
                    continue
                tried.add(sid)
                if self.feats[sid] <= feats and _subsumes(other, clause):
                    return True
        return False

    def _maybe_new_demod(self, sid, clause, input_clause=False):
        if len(clause) != 1:
            return
        pol, atom = clause[0]
        if not pol or atom[0] != "=":
            return
        s, t = atom[1], atom[2]
        rel = self.orient(s, t)
        if rel == GREATER:
            entries = [(sid, s, t, "l", False)]
        elif rel == LESS:
            entries = [(sid, t, s, "r", False)]
        elif rel == INCOMPARABLE and input_clause:
            # ordered rewriting: usable in both directions on instances
            # that decrease (e.g. commutativity sorts arguments); derived
            # unoriented equations stay out of the demodulator set
            entries = [(sid, s, t, "l", True), (sid, t, s, "r", True)]
        else:
            return
        vals = []
        for e in entries:
            val = (len(self._demod_log),) + e
            self.demod_ix.insert(e[1], val)
            self._demod_log.append(val)
            vals.append(val)
        self._demod_vals[sid] = vals
        self._back_simplify(entries)

    def _back_simplify(self, entries):
        did = entries[0][0]
        victims = set()
        for _, lhs, rhs, _, ordered in entries:
            for sub in self.sub_ix.instances(lhs):
                b = match(lhs, sub)
                if b is None:
                    continue
                if ordered and not self._lpo(sub, substitute(rhs, b)):
                    continue
                victims |= self.sub_ix.owners[sub]
        victims = sorted(s for s in victims
                         if s != did and s in self.alive)
        for sid in victims:
            # a nested back-simplification may already have retired it;
            # its copy is then added again (and dropped as a duplicate)
            if sid in self.alive:
                self._retire(sid)
            self.add(self.steps[sid].clause, [("copy", sid)])

    def _retire(self, sid):
        """Take a live clause out of every set and index."""
        self.alive.discard(sid)
        self.active.pop(sid, None)
        self.passive.discard(sid)
        clause = self.steps[sid].clause
        for sub in _clause_subterms(clause):
            self.sub_ix.discard(sub, sid)
        for val in self._clause_vals.pop(sid):
            self.clause_ix.remove(val[3], val)
        vals = self._demod_vals.pop(sid, None)
        if vals:
            for val in vals:
                self.demod_ix.remove(val[2], val)
            # normal forms are recomputed from the remaining demodulators
            self._norm_memo.clear()

    # -- inference rules

    def _equations_of(self, clause):
        """Paramodulation sources: sides of a positive unit equation,
        larger side first; both sides when incomparable."""
        if len(clause) != 1:
            return []
        pol, atom = clause[0]
        if not pol or atom[0] != "=":
            return []
        s, t = atom[1], atom[2]
        rel = self.orient(s, t)
        if rel == GREATER:
            return [("l", s, t)]
        if rel == LESS:
            return [("r", t, s)]
        if rel == INCOMPARABLE:
            return [("l", s, t), ("r", t, s)]
        return []

    def _paramodulate(self, from_id, into_id, out):
        from_cl = self.steps[from_id].clause
        if not self._equations_of(from_cl):
            return
        into_cl = self.steps[into_id].clause
        renamed = rename_apart(from_cl, next(self.salt))
        for side, lhs, rhs in self._equations_of(renamed):
            for li, (pol, atom) in enumerate(into_cl):
                if atom[0] == "=":
                    # superposition restriction: rewrite only the maximal
                    # side of an orientable equation
                    rel = self.orient(atom[1], atom[2])
                    if rel == GREATER:
                        sides = (1,)
                    elif rel == LESS:
                        sides = (2,)
                    else:
                        sides = (1, 2)
                else:
                    sides = range(1, len(atom))
                for ai in sides:
                    t = atom[ai]
                    for path, sub in _nonvar_subterms(t):
                        if lhs[0] != VAR and (sub[0] != lhs[0]
                                              or len(sub) != len(lhs)):
                            continue    # unify would fail at the root
                        b = unify(lhs, sub)
                        if b is None:
                            continue
                        new_t = replace_at(t, path, substitute(rhs, b))
                        new_atom = atom[:ai] + (new_t,) + atom[ai + 1:]
                        new_cl = substitute_clause(
                            into_cl[:li] + ((pol, new_atom),)
                            + into_cl[li + 1:], b)
                        out.append((new_cl, [(
                            "para", from_id, side, into_id, li,
                            (ai,) + tuple(p + 1 for p in path))]))

    def _resolve(self, id1, id2, out):
        feats2 = self.feats[id2]
        if not any((not pol, pred) in feats2
                   for pol, pred in self.feats[id1] if pred != "="):
            return
        c1 = self.steps[id1].clause
        c2 = rename_apart(self.steps[id2].clause, next(self.salt))
        for i, (p1, a1) in enumerate(c1):
            if a1[0] == "=":
                continue
            for j, (p2, a2) in enumerate(c2):
                if p1 == p2 or a1[0] != a2[0] or len(a1) != len(a2):
                    continue
                b = unify(a1, a2)
                if b is None:
                    continue
                new_cl = substitute_clause(
                    c1[:i] + c1[i + 1:] + c2[:j] + c2[j + 1:], b)
                out.append((new_cl, [("resolve", id1, i, id2, j)]))

    def _factor(self, sid, out):
        clause = self.steps[sid].clause
        for i in range(len(clause)):
            for j in range(i + 1, len(clause)):
                (p1, a1), (p2, a2) = clause[i], clause[j]
                if p1 != p2 or a1[0] != a2[0] or len(a1) != len(a2):
                    continue
                b = unify(a1, a2)
                if b is None:
                    continue
                new_cl = substitute_clause(clause[:j] + clause[j + 1:], b)
                out.append((new_cl, [("factor", sid, i, j)]))

    def _equality_resolve(self, sid, out):
        clause = self.steps[sid].clause
        for i, (pol, atom) in enumerate(clause):
            if pol or atom[0] != "=":
                continue
            b = unify(atom[1], atom[2])
            if b is None:
                continue
            new_cl = substitute_clause(clause[:i] + clause[i + 1:], b)
            out.append((new_cl, [("copy", sid), ("xx", i)]))

    # -- main loop

    def select_given(self):
        """Four picks out of five take the lightest passive clause (oldest
        first among equals), the fifth takes the oldest."""
        self.pick += 1
        if self.pick % 5 == 0:
            heap, age = self._by_age, True
        else:
            heap, age = self._by_weight, False
        while True:
            top = heapq.heappop(heap)
            sid = top if age else top[1]
            if sid in self.passive:
                break
        self.passive.discard(sid)
        return sid

    def run(self):
        try:
            self.load()
        except _Contradiction as c:
            return Proved(self._reconstruct(c.step_id))
        deadline = (time.monotonic() + self.limits.max_seconds
                    if self.limits.max_seconds else None)
        given_count = 0
        while self.passive:
            if deadline is not None and time.monotonic() > deadline:
                return LimitReached("max_seconds")
            if self.should_stop is not None and self.should_stop():
                return LimitReached("cancelled")
            if (self.limits.max_given is not None
                    and given_count >= self.limits.max_given):
                return LimitReached("max_given")
            given = self.select_given()
            if given not in self.alive:
                continue
            given_count += 1
            self.active[given] = None
            new = []
            self._factor(given, new)
            self._equality_resolve(given, new)
            for other in list(self.active):
                if other not in self.alive:
                    continue
                self._paramodulate(given, other, new)
                if other != given:
                    self._paramodulate(other, given, new)
                    self._resolve(given, other, new)
                    self._resolve(other, given, new)
            try:
                for clause, just in new:
                    self.add(clause, just)
            except _Contradiction as c:
                return Proved(self._reconstruct(c.step_id))
        if self.discarded_by_weight:
            return LimitReached("max_clause_weight")
        return Exhausted()

    def _reconstruct(self, final_id):
        needed = set()
        stack = [final_id]
        while stack:
            sid = stack.pop()
            if sid in needed:
                continue
            needed.add(sid)
            stack.extend(self.steps[sid].antecedents())
        return Proof([self.steps[sid] for sid in sorted(needed)])


def prove(theory, limits: ProverLimits = None, should_stop=None) -> Outcome:
    return _State(theory, limits or ProverLimits(), should_stop).run()


# ---------------------------------------------------------------------------
# verification

def verify_proof(theory, proof: Proof):
    """Independently re-derive every step.  Returns (ok, report)."""
    if not proof.steps or proof.steps[-1].clause != EMPTY:
        return False, "proof does not end in the empty clause"
    prec = _Prec(theory.precedence())
    by_id = {}
    goal_ids = {}
    assumption_keys = {
        canonical_clause(_dedup(cl))
        for f in theory.assumptions for cl in clausify(f, "assumption")}

    def get_clause(i):
        return by_id[i].clause

    for step in proof.steps:
        for a in step.antecedents():
            if a >= step.id:
                return False, "step %d cites a later step %d" % (step.id, a)
            if a not in by_id and a not in goal_ids:
                return False, "step %d cites unknown step %d" % (step.id, a)
        just = step.justification
        kind = just[0][0]
        try:
            if kind == "goal":
                if step.formula not in theory.goals:
                    return False, "step %d: unknown goal" % step.id
                goal_ids[step.id] = step.formula
                continue
            if kind == "assumption":
                if len(just) != 1:
                    return (False, "step %d: assumptions are recorded "
                            "unsimplified" % step.id)
                if canonical_clause(step.clause) not in assumption_keys:
                    return (False,
                            "step %d is not a theory assumption" % step.id)
            elif kind == "deny":
                gid = just[0][1]
                if gid not in goal_ids or len(just) != 1:
                    return False, "step %d is not a plain denial" % step.id
                denial = {canonical_clause(_dedup(cl)) for cl in
                          clausify(goal_ids[gid], "denied_goal")}
                if canonical_clause(step.clause) not in denial:
                    return (False,
                            "step %d does not deny the goal" % step.id)
            else:
                derived = _apply_primary(just[0], get_clause)
                derived = _apply_secondary(derived, just[1:], get_clause,
                                           prec)
                if canonical_clause(_dedup(derived)) != \
                        canonical_clause(step.clause):
                    return False, ("step %d: stated clause does not match "
                                   "the re-derived one" % step.id)
        except (ProverError, KeyError, IndexError) as e:
            return False, "step %d: %s" % (step.id, e)
        by_id[step.id] = step
    return True, "ok"


# ---------------------------------------------------------------------------
# transformations

def _remap_ops(just, mapping):
    out = []
    for op in just:
        kind = op[0]
        if kind in ("deny", "copy"):
            out.append((kind, mapping[op[1]]))
        elif kind == "para":
            out.append((kind, mapping[op[1]], op[2], mapping[op[3]],
                        op[4], op[5]))
        elif kind == "resolve":
            out.append((kind, mapping[op[1]], op[2], mapping[op[3]], op[4]))
        elif kind == "factor":
            out.append((kind, mapping[op[1]], op[2], op[3]))
        elif kind == "rewrite":
            out.append((kind, [(mapping[e[0]],) + e[1:] for e in op[1]]))
        else:
            out.append(op)
    return out


def _renumber(proof: Proof) -> Proof:
    mapping = {}
    steps = []
    for i, step in enumerate(proof.steps, start=1):
        mapping[step.id] = i
        steps.append(ProofStep(i, step.clause,
                               _remap_ops(step.justification, mapping),
                               formula=step.formula))
    return Proof(steps)


def _expand(proof: Proof) -> Proof:
    """Replace every multi-rewrite justification by a chain of single
    paramodulation steps (the prooftrans 4A/4B layout)."""
    by_id = proof.step_map()
    steps = []
    fresh = count(max(by_id) + 1)
    for step in proof.steps:
        just = step.justification
        if not any(op[0] == "rewrite" and len(op[1]) > 0 for op in just):
            steps.append(step)
            continue
        new_ops = []
        current = None   # id of the clause built so far
        clause = None
        for op in just:
            if op[0] == "rewrite":
                for entry in op[1]:
                    if current is None:
                        # materialize the primary result as its own step
                        base = _dedup(_apply_primary(
                            new_ops[0], lambda i: by_id[i].clause))
                        current = next(fresh)
                        mid = ProofStep(current, canonical_clause(base),
                                        list(new_ops))
                        by_id[current] = mid
                        steps.append(mid)
                        clause = mid.clause
                        new_ops = []
                    did, li, path, side = entry
                    clause = _dedup(_apply_rewrite(
                        clause, entry, by_id[did].clause))
                    nid = next(fresh)
                    mid = ProofStep(nid, canonical_clause(clause),
                                    [("para", did, side, current, li,
                                      path)])
                    by_id[nid] = mid
                    steps.append(mid)
                    current = nid
            else:
                new_ops.append(op)
        if current is not None:
            final_ops = [("copy", current)] + [
                op for op in new_ops if op[0] not in
                ("copy", "para", "resolve", "factor", "assumption",
                 "deny", "goal")]
            final = ProofStep(step.id, step.clause, final_ops,
                              formula=step.formula)
        else:
            final = step
        by_id[step.id] = final
        steps.append(final)
    return Proof(steps)


def transform_proof(proof: Proof, which: str) -> Proof:
    if which == "renumber":
        return _renumber(proof)
    if which == "expand_rewrites":
        return _renumber(_expand(proof))
    raise ProverError("unknown transformation %r" % which)


# ---------------------------------------------------------------------------
# pattern mining

def mine_patterns(proof: Proof, min_count: int = 2, min_size: int = 3):
    counts = {}
    for step in proof.steps:
        if step.clause is None:
            continue
        for pol, atom in step.clause:
            for t in atom[1:]:
                for pat in subterm_patterns(t):
                    counts[pat] = counts.get(pat, 0) + 1
    out = [(pat, c) for pat, c in counts.items()
           if c >= min_count and term_size(pat) >= min_size]
    out.sort(key=lambda pc: (-pc[1], -term_size(pc[0]), pc[0]))
    return out


# ---------------------------------------------------------------------------
# proof text format
#
# One line per step: "ID CLAUSE.  [op,op,...]." where CLAUSE is the
# literals joined by " | " ("$F" for the empty clause).  The goal step
# shows the goal formula and carries "# label(non_clause) # label(goal)"
# before its period.  Lines starting with "# " are metadata.

def _render_op(op):
    kind = op[0]
    if kind in ("goal", "assumption"):
        return kind
    if kind in ("deny", "copy"):
        return "%s(%d)" % (kind, op[1])
    if kind == "para":
        return "para(%d,%s,%d,%d,%s)" % (
            op[1], op[2], op[3], op[4], ".".join(str(i) for i in op[5]))
    if kind == "resolve":
        return "resolve(%d,%d,%d,%d)" % op[1:]
    if kind == "factor":
        return "factor(%d,%d,%d)" % op[1:]
    if kind == "rewrite":
        entries = ",".join("%d(%d,%s,%s)"
                           % (e[0], e[1], ".".join(str(i) for i in e[2]),
                              e[3])
                           for e in op[1])
        return "rewrite([%s])" % entries
    if kind in ("xx", "flip"):
        return "%s(%d)" % (kind, op[1])
    raise ProverError("unknown proof operation %r" % (op,))


def _render_clause(clause, theory):
    from .syntax import render_formula
    if clause == EMPTY:
        return "$F"
    parts = []
    for pol, atom in clause:
        f = ("atom", atom) if pol else ("not", ("atom", atom))
        parts.append(render_formula(f, theory))
    return " | ".join(parts)


def render_proof(proof: Proof, theory) -> str:
    from .syntax import render_formula
    lines = []
    for step in proof.steps:
        just = ",".join(_render_op(op) for op in step.justification)
        if step.justification[0][0] == "goal":
            body = (render_formula(step.formula, theory)
                    + " # label(non_clause) # label(goal)")
        else:
            body = _render_clause(step.clause, theory)
        lines.append("%d %s.  [%s]." % (step.id, body, just))
    return "\n".join(lines) + "\n"


def _split_args(text):
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_path(text):
    return tuple(int(p) for p in text.split(".") if p != "")


def _parse_op(text):
    text = text.strip()
    if "(" not in text:
        if text in ("goal", "assumption"):
            return (text,)
        raise ProverError("bad proof operation %r" % text)
    kind, inner = text[:-1].split("(", 1)
    if kind in ("deny", "copy", "xx", "flip"):
        return (kind, int(inner))
    args = _split_args(inner)
    if kind == "para":
        return ("para", int(args[0]), args[1], int(args[2]), int(args[3]),
                _parse_path(args[4]))
    if kind == "resolve":
        return ("resolve",) + tuple(int(a) for a in args)
    if kind == "factor":
        return ("factor",) + tuple(int(a) for a in args)
    if kind == "rewrite":
        if not (inner.startswith("[") and inner.endswith("]")):
            raise ProverError("bad rewrite list %r" % inner)
        entries = []
        for e in _split_args(inner[1:-1]):
            if not e:
                continue
            eid, rest = e[:-1].split("(", 1)
            lit, path, side = _split_args(rest)
            entries.append((int(eid), int(lit), _parse_path(path), side))
        return ("rewrite", entries)
    raise ProverError("unknown proof operation %r" % text)


def _parse_clause_text(text, theory):
    from .syntax import parse_formula_text
    text = text.strip()
    if text == "$F":
        return EMPTY
    lits = []
    for part in text.split("|"):
        f = parse_formula_text(part.strip(), theory)
        if f[0] == "atom":
            lits.append((True, f[1]))
        elif f[0] == "not" and f[1][0] == "atom":
            lits.append((False, f[1][1]))
        else:
            raise ProverError("literal expected in %r" % part)
    return tuple(lits)


import re as _re

_STEP_RE = _re.compile(r"^(\d+)\s+(.*?)\.\s+\[(.*)\]\.\s*$")
_LABEL_RE = _re.compile(r"\s*#\s*label\(\w+\)")


def parse_proof(text: str, theory) -> Proof:
    """Inverse of render_proof.  Lines starting with '#' are ignored."""
    from .syntax import parse_formula_text
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ProverError("unparseable proof line %r" % raw)
        step_id = int(m.group(1))
        body = _LABEL_RE.sub("", m.group(2)).strip()
        ops = [_parse_op(p) for p in _split_args(m.group(3))]
        if ops and ops[0][0] == "goal":
            formula = parse_formula_text(body, theory)
            steps.append(ProofStep(step_id, None, ops, formula=formula))
        else:
            steps.append(ProofStep(step_id, _parse_clause_text(body, theory),
                                   ops))
    return Proof(steps)
