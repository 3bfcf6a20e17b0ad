"""Given-clause saturation prover with verifiable proof objects.

The loop keeps a passive and an active clause set.  Each round it selects a
given clause (four picks out of five by minimal weight, the fifth by age),
moves it to the active set, and generates paramodulants, resolvents and
factors between the given clause and the active set.  The goal is denied
with Skolem constants c1, c2, ... named apart from the theory's symbols.

New clauses are simplified by demodulation, checked for tautology and
forward subsumption, and added to the passive set.  Every positive unit
equation, input or derived, is a demodulator: one whose sides the LPO
orders rewrites the larger side to the smaller, one whose sides it cannot
order rewrites either way on instances that get smaller.  An equation
whose two readings are variants of each other (x + y = y + x) is indexed
by its first reading only: the second rewrites exactly as the first does,
and the first is always tried first.  One test (_State._root_step)
decides whether a demodulator rewrites a term at its root; forward
demodulation and back-simplification, in which a new demodulator
simplifies again every live clause it rewrites, both use it.  Forward
demodulation takes the pattern's variable bindings from the discrimination
tree that found it, so it never matches the pattern a second time.
Normal forms are memoized while the set of demodulators stays the same;
the memo holds normal forms only, and the rewrite entries of a proof step
come from the walk that rewrites the clause.  The first entry that
rewrites a term at its root is memoized too.  An entry never changes, so a
miss keeps the entry count it was computed at, and after new entries
arrive only those are checked.

Every stored clause is canonical: its variables are x, y, z, u, v, w, x1,
... in order of first occurrence.  Inferences work from per-clause data
kept while a clause is active: its readings as an equation, the subterms
it can be paramodulated into (with the superposition side restriction
applied) filed by head symbol, and one copy of it renamed apart, which
serves as the paramodulation source and as the second clause of a
resolution.  terms.rename_apart is the one renaming apart, here and in
verify_proof: it puts an underscore in front of every variable, a name
that no canonical or parsed clause uses.  A pair whose readings meet none
of the into-clause's heads is skipped before any unification.  Each
inference builds its clause canonical as it applies the unifier
(terms.canonical_instance); a generated clause is renamed again only when
simplification rewrites it or resolves a literal away and it is not a
tautology.

Forward subsumption files each live clause under its heaviest atom (and
that atom flipped, for an equation).  Retrieving a new clause's atom
returns a candidate with the bindings of its indexed literal's variables,
and the subsumption check starts from them, matching only the candidate's
other literals.  It also deletes a new clause equal to a live one: the
live clause's indexed atom is an atom of the new clause, so retrieval
finds it.

A new clause is a tautology (_State._tautology) when it has complementary
literals or a positive equation whose sides are equal, modulo AC for a
symbol that the assumptions declare associative and commutative: such an
equation follows from those two axioms alone (it is ground joinable).

Paramodulation works from positive unit equations only, so a search that
kept a positive equation in a longer clause and ran out of clauses ends in
LimitReached("incomplete"), not Exhausted.

Proofs are by contradiction and end in the empty clause $F.  Every step
carries a justification precise enough for independent re-derivation; see
verify_proof and the proof text format in the README.
"""

from __future__ import annotations

import heapq
import re
import time
from itertools import count

from .terms import (VAR, ac_normal, canonical_clause, canonical_instance,
                    clause_weight, clausify, lpo_gt, match, rename_apart,
                    replace_at, substitute, substitute_clause,
                    subterm_patterns, subterms, term_size, term_vars, unify)

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
    def __init__(self, max_seconds=None, max_given=None):
        for v in (max_seconds, max_given):
            if v is not None and v <= 0:
                raise ProverError("limits must be positive")
        self.max_seconds = max_seconds
        self.max_given = max_given


class ProofStep:
    """One proof line: a clause plus its justification.

    justification is a list of operations; the first produces a clause, the
    rest transform it in order:
      ("goal",) | ("assumption",) | ("deny", goal_step_id) | ("copy", id)
      | ("para", from_id, side, into_id, lit, path)
      | ("resolve", id1, lit1, id2, lit2) | ("factor", id, lit1, lit2)
    secondary:
      ("rewrite", [(demod_id, lit, path, side), ...]) | ("xx", lit)
    side is "l" or "r" (which side of the unit equation acted as left-hand
    side); lit is a 0-based literal index; path is the tuple indices from
    the literal's atom down, as terms.subterm_at reads them.
    """

    def __init__(self, step_id, clause, justification, formula=None):
        self.id = step_id
        self.clause = clause
        self.justification = justification
        self.formula = formula  # only for the goal step

    def antecedents(self):
        return [i for op in self.justification for i in _cited(op)]


class Proof:
    def __init__(self, steps):
        self.steps = list(steps)

    def step_map(self):
        return {s.id: s for s in self.steps}


class ProverStats:
    """What a proof search did, in counters: given clauses; clauses the
    inference rules generated, and those of them that demodulation
    rewrote at least once; clauses kept (made live, input clauses
    included); simplified clauses deleted as tautologies (AC ones
    included) or as forward-subsumed (those equal to a live clause
    included); live clauses back-simplified; and clauses made
    demodulators."""

    __slots__ = ("given", "generated", "forward_demodulated", "kept",
                 "tautologies", "forward_subsumed", "back_simplified",
                 "demodulators")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def __str__(self):
        return ", ".join("%d %s" % (getattr(self, name),
                                    name.replace("_", " "))
                         for name in self.__slots__)


class Outcome:
    """The result of a proof search; stats says how far it got."""

    status = None

    def __init__(self, stats):
        self.stats = stats


class Proved(Outcome):
    status = "proved"

    def __init__(self, proof, stats):
        super().__init__(stats)
        self.proof = proof


class Exhausted(Outcome):
    status = "exhausted"


class LimitReached(Outcome):
    status = "limit"

    def __init__(self, which, stats):
        super().__init__(stats)
        self.which = which


# ---------------------------------------------------------------------------
# clause utilities

def _dedup(clause):
    seen = []
    for lit in clause:
        if lit not in seen:
            seen.append(lit)
    return tuple(seen)


def _clause_subterms(clause):
    """The distinct non-variable subterms of a clause."""
    return {sub for _, atom in clause for t in atom[1:]
            for sub in subterms(t) if sub[0] != VAR}


def _denial(theory, goal):
    """The clauses of the denied goal, with Skolem constants named apart
    from every symbol the theory's precedence ranks."""
    return clausify(goal, "denied_goal", theory.precedence())


def _unit_equation(clause):
    """The two sides of a positive unit equation, or None."""
    if len(clause) == 1 and clause[0][0] and clause[0][1][0] == "=":
        return clause[0][1][1:]
    return None


def _ac_symbols(clauses):
    """Binary symbols f with both f(x, y) = f(y, x) and
    f(f(x, y), z) = f(x, f(y, z)) among the unit clauses, in any variable
    naming and either orientation."""
    comm, assoc = set(), set()
    for clause in clauses:
        eq = _unit_equation(clause)
        if eq is None:
            continue
        s, t = eq
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


def _flips(atom):
    """An atom, and for an equation with distinct sides also its flip."""
    if atom[0] == "=" and atom[1] != atom[2]:
        return atom, (atom[0], atom[2], atom[1])
    return atom,


def _subsumes(c, li, binding, targets):
    """Whether binding, which maps literal li of c onto a literal of a
    clause, extends to a substitution that maps each other literal of c
    onto one of targets, that clause's literals with equations both ways
    round."""
    # per other literal, the targets it matches under binding, each with
    # that match; the joint search starts from the literal with the fewest
    options = []
    for j, (pol, atom) in enumerate(c):
        if j == li:
            continue
        opts = []
        for pol2, atom2 in targets:
            if pol2 == pol and atom2[0] == atom[0]:
                b = match(atom, atom2, dict(binding))
                if b is not None:
                    opts.append((atom2, b))
        if not opts:
            return False
        options.append((atom, opts))
    options.sort(key=lambda o: len(o[1]))

    def go(i, b):
        if i == len(options):
            return True
        atom, opts = options[i]
        for atom2, _ in opts:
            b2 = match(atom, atom2, dict(b))
            if b2 is not None and go(i + 1, b2):
                return True
        return False

    return any(go(1, b) for _, b in options[0][1])


def _literal(clause, li):
    if not 0 <= li < len(clause):
        raise ProverError("literal %d out of range" % li)
    return clause[li]


def _position(atom, path):
    """The subterm of atom at a proof path."""
    t = atom
    for p in path:
        if t[0] == VAR or not 1 <= p < len(t):
            raise ProverError("path %s out of range"
                              % ".".join(map(str, path)))
        t = t[p]
    return t


def _equation_step(clause, li, path, source, side, what, prec=None,
                   para=False):
    """Replace the subterm at literal li, path of clause using the positive
    unit equation source, read with its side "l" or "r" as left-hand side.
    A rewrite needs the left-hand side to match the subterm and, with prec
    given, the step to decrease the ordering; paramodulation (para) needs
    it to unify with a non-variable subterm and instantiates the result.
    what names source in the error messages."""
    eq = _unit_equation(rename_apart(source))
    if eq is None:
        raise ProverError("%s is not a positive unit equation" % what)
    lhs, rhs = eq if side == "l" else eq[::-1]
    pol, atom = _literal(clause, li)
    sub = _position(atom, path)
    if not para:
        b = match(lhs, sub)
    elif sub[0] == VAR:
        raise ProverError("paramodulation into a variable")
    else:
        b = unify(lhs, sub)
    if b is None:
        raise ProverError("%s does not %s" % (what,
                                              "unify" if para else "match"))
    repl = substitute(rhs, b)
    if prec is not None and not lpo_gt(sub, repl, prec):
        raise ProverError("rewrite with %s does not decrease the ordering"
                          % what)
    clause = clause[:li] + ((pol, replace_at(atom, path, repl)),) \
        + clause[li + 1:]
    return _dedup(substitute_clause(clause, b)) if para else clause


def _apply_secondary(clause, ops, get_clause, prec=None):
    for op in ops:
        kind = op[0]
        if kind == "rewrite":
            for did, li, path, side in op[1]:
                clause = _equation_step(clause, li, path, get_clause(did),
                                        side, "demodulator %d" % did, prec)
            clause = _dedup(clause)
        elif kind == "xx":
            li = op[1]
            pol, atom = _literal(clause, li)
            if pol or atom[0] != "=":
                raise ProverError("xx needs a negative equation")
            b = unify(atom[1], atom[2])
            if b is None:
                raise ProverError("xx sides do not unify")
            clause = _dedup(substitute_clause(
                clause[:li] + clause[li + 1:], b))
        else:
            raise ProverError("unknown secondary rule %r" % kind)
    return clause


def _apply_primary(op, get_clause):
    kind = op[0]
    if kind == "copy":
        return get_clause(op[1])
    if kind == "para":
        _, from_id, side, into_id, li, path = op
        return _equation_step(get_clause(into_id), li, path,
                              get_clause(from_id), side,
                              "para source %d" % from_id, para=True)
    if kind == "resolve":
        _, id1, li1, id2, li2 = op
        c1 = get_clause(id1)
        c2 = rename_apart(get_clause(id2))
        (p1, a1), (p2, a2) = _literal(c1, li1), _literal(c2, li2)
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
        (p1, a1), (p2, a2) = _literal(c, li1), _literal(c, li2)
        if li1 == li2:
            raise ProverError("factor needs two distinct literals")
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
    it returns matches the query, and it returns the match with it.  A
    node is (symbol children, variable children, leaf entries); a leaf
    entry is (value, the pattern's variable names by number)."""

    __slots__ = ("root",)

    def __init__(self):
        self.root = ({}, {}, [])

    @staticmethod
    def _keys(pattern):
        """Preorder keys: symbols, and first-occurrence numbers for
        variables; and the variable names in that order."""
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
        """(value, names, bindings) for every pattern matching term:
        bindings holds the values of the pattern's variables, whose names
        are names, by first-occurrence number."""
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
        return out


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
        if not sets:
            return self.owners     # a bare variable matches every term
        if len(sets) == 1:
            return sets[0]
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])


def _path_keys(t):
    """(position, symbol) for every non-variable position of t."""
    return [(path, sub[0]) for path, sub in _nonvar_subterms(t)]


def _nonvar_subterms(t, prefix=()):
    """(path, subterm) for every non-variable position of t, each path
    after prefix, in preorder (the order of terms.positions)."""
    out = []
    stack = [(prefix, t)]
    while stack:
        path, u = stack.pop()
        if u[0] == VAR:
            continue
        out.append((path, u))
        for i in range(len(u) - 1, 0, -1):
            stack.append((path + (i,), u[i]))
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
        self.ac_symbols = set()     # set by load, from the assumptions
        self.ids = count(1)
        self.steps = {}         # id -> ProofStep, every step ever made
        # the live clauses: id -> their clause_ix values; the passive
        # ones are those not active
        self.live = {}
        self.active = {}        # ids, insertion order (values unused)
        self._by_weight = []    # heap of (weight, id); may hold stale ids
        self._by_age = []       # heap of ids; may hold stale ids
        # demodulator entries (seq, id, lhs, rhs, side, ordered): how many
        # were ever made (the next seq), the live ones by lhs, and by live
        # id
        self._demod_seq = 0
        self.demod_ix = _DiscTree()
        self._demod_vals = {}
        # term -> (_rewrite_once result, the _demod_seq it was computed at)
        self._root_memo = {}
        # term -> its normal form under the current demodulators; cleared
        # whenever one is added or retired
        self._norm_memo = {}
        # live id -> (readings, into-sites by head symbol, all into-sites,
        # the clause renamed apart)
        self._sites = {}
        self.sub_ix = _InstanceIndex()  # subterms of the live clauses
        # forward subsumption: each live clause under one of its atoms, as
        # (id, polarity, atom, literal index)
        self.clause_ix = _DiscTree()
        self.pick = 0
        self.stats = ProverStats()
        self.deadline = None

    def _new_step(self, clause, justification):
        sid = next(self.ids)
        self.steps[sid] = ProofStep(sid, clause, justification)
        return sid

    # -- input

    def load(self):
        goal = self.theory.goals[0]
        gid = next(self.ids)
        self.steps[gid] = ProofStep(gid, None, [("goal",)], formula=goal)
        clauses = [cl for f in self.theory.assumptions
                   for cl in clausify(f, "assumption")]
        self.ac_symbols = _ac_symbols(clauses)
        for cl in clauses:
            self.add_input(cl, ("assumption",))
        for cl in _denial(self.theory, goal):
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
            self.keep(simplified, justification, canonical=False)
        else:
            self._install(sid, raw)

    # -- orientation / demodulation

    def _readings(self, s, t):
        """The readings (side, lhs, rhs) of the equation s = t with its
        larger side under the LPO as lhs: that side alone, both ways round
        when the sides are incomparable, none when they are equal."""
        if s == t:
            return []
        if lpo_gt(s, t, self.prec):
            return [("l", s, t)]
        if lpo_gt(t, s, self.prec):
            return [("r", t, s)]
        return [("l", s, t), ("r", t, s)]

    def demodulate(self, clause):
        """Rewrite to a normal form; returns (clause, rewrite entries)."""
        rewrites = []
        out = []
        for li, (pol, atom) in enumerate(clause):
            new_atom = [atom[0]]
            for ai in range(1, len(atom)):
                new_atom.append(self._normalize(atom[ai], li, (ai,), rewrites))
            out.append((pol, tuple(new_atom)))
        return tuple(out), rewrites

    def _normalize(self, t, li, path, rewrites):
        """Innermost normal form of t, the subterm at literal li, path of a
        clause, under the current demodulators; appends the rewrite entries
        (demod id, li, path, side) to rewrites in application order.  A
        term memoized as its own normal form returns at once; one that
        rewrites is walked again for its entries."""
        if t[0] == VAR or self._norm_memo.get(t) == t:
            return t
        cur = t
        while cur[0] != VAR:
            args = [cur[0]]
            for i in range(1, len(cur)):
                args.append(self._normalize(cur[i], li, path + (i,), rewrites))
            cur = tuple(args)
            hit = self._rewrite_once(cur)
            if hit is None:
                break
            did, side, repl = hit
            rewrites.append((did, li, path, side))
            cur = repl
        self._norm_memo[t] = cur
        return cur

    def _rewrite_once(self, sub):
        """The first demodulator entry, in insertion order, that rewrites
        sub at its root: (demod id, side, result), or None.  Remembered per
        term: a hit stays first while its demodulator lives (later entries
        come after it).  A miss keeps the entry count it was computed at:
        an entry never changes, so the entries made before it still refuse
        sub, and after new entries arrive only those are checked."""
        hit, since = self._root_memo.get(sub, (None, 0))
        if hit is not None:
            if hit[0] in self._demod_vals:
                return hit
            hit, since = None, 0
        elif since == self._demod_seq:
            return None
        # seq orders the entries, so the bindings are never compared
        for val, names, binds in sorted(self.demod_ix.retrieve(sub)):
            if val[0] < since:
                continue
            hit = self._root_step(sub, val, dict(zip(names, binds)))
            if hit is not None:
                break
        self._root_memo[sub] = (hit, self._demod_seq)
        return hit

    def _root_step(self, sub, val, binding=None):
        """The rewrite of sub at its root by demodulator entry val:
        (demod id, side, result), or None when the left-hand side does not
        match or, for an incomparable equation, the instance does not
        shrink.  binding, when given, is the match of the left-hand side
        to sub, found already."""
        _, did, lhs, rhs, side, ordered = val
        if binding is None:
            binding = match(lhs, sub)
            if binding is None:
                return None
        repl = substitute(rhs, binding)
        if ordered and not lpo_gt(sub, repl, self.prec):
            return None
        return did, side, repl

    # -- adding derived clauses

    def add(self, clause, justification, generated=False):
        """Simplify a canonical clause and keep it unless it is redundant.
        generated says that an inference made it, so that it counts as
        forward-demodulated when demodulation rewrites it."""
        simplified, full = self.simplify(clause, justification)
        added = full[len(justification):]
        if generated and added and added[0][0] == "rewrite":
            self.stats.forward_demodulated += 1
        # a rewrite or a resolved literal may leave the variables out of
        # order; dropping repeated literals does not
        self.keep(simplified, full, canonical=not added)

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

    def keep(self, clause, justification, canonical=True):
        """Install a simplified clause as a new step unless it is
        redundant; canonical says that its variables are named canonically
        already."""
        stats = self.stats
        if self._tautology(clause):
            stats.tautologies += 1
            return
        if not canonical:
            clause = canonical_clause(clause)
        if clause and self._forward_subsumed(clause):
            stats.forward_subsumed += 1
            return
        sid = self._new_step(clause, justification)
        if not clause:
            raise _Contradiction(sid)
        self._install(sid, clause)

    def _tautology(self, clause):
        """Whether clause has complementary literals, or a positive
        equation whose sides are equal modulo AC for the AC symbols."""
        positive = [atom for pol, atom in clause if pol]
        if any(not pol and atom in positive for pol, atom in clause):
            return True
        ac = self.ac_symbols
        # AC normalization keeps the top symbol, so equal tops come first
        return any(
            atom[0] == "=" and (atom[1] == atom[2] or bool(ac)
                                and atom[1][0] == atom[2][0]
                                and ac_normal(atom[1], ac)
                                == ac_normal(atom[2], ac))
            for atom in positive)

    def _install(self, sid, key):
        self.stats.kept += 1
        heapq.heappush(self._by_weight, (clause_weight(key), sid))
        heapq.heappush(self._by_age, sid)
        for sub in _clause_subterms(key):
            self.sub_ix.add(sub, sid)
        # a subsumer maps every literal into the subsumed clause, so it is
        # found through any one of them: take the heaviest, the least
        # likely to match
        li, (pol, atom) = max(enumerate(key),
                              key=lambda e: clause_weight((e[1],)))
        self.live[sid] = vals = [(sid, pol, pat, li) for pat in _flips(atom)]
        for val in vals:
            self.clause_ix.insert(val[2], val)
        self._maybe_new_demod(sid, key)

    def _forward_subsumed(self, clause):
        """Whether a live clause subsumes clause: some substitution maps
        each of its literals onto a literal of clause, equations either way
        round.  The substitution maps the subsumer's indexed literal onto
        some literal of clause, so retrieving that literal's atom finds the
        subsumer with the bindings of the indexed literal's variables; the
        search starts from them and matches the other literals only."""
        targets = None      # clause's literals, equations both ways round
        for pol, atom in clause:
            for (sid, pol2, _, li), names, binds in \
                    self.clause_ix.retrieve(atom):
                if pol2 != pol:
                    continue
                other = self.steps[sid].clause
                if len(other) == 1:
                    return True
                if len(other) > len(clause):
                    continue
                if targets is None:
                    targets = [(p, a) for p, lit in clause
                               for a in _flips(lit)]
                if _subsumes(other, li, dict(zip(names, binds)), targets):
                    return True
        return False

    def _maybe_new_demod(self, sid, clause):
        """Make a positive unit equation a demodulator and back-simplify
        with it.  One whose sides are incomparable rewrites either way, on
        instances that decrease (e.g. commutativity sorts arguments), and
        only by its first reading when the two are variants of each other.
        No reading rewrites to a variable that its left-hand side lacks."""
        eqs = self._equations_of(clause)
        ordered = len(eqs) == 2
        if ordered and clause == canonical_clause(
                ((True, ("=", eqs[1][1], eqs[1][2])),)):
            eqs = eqs[:1]
        eqs = [e for e in eqs if term_vars(e[2]) <= term_vars(e[1])]
        if not eqs:
            return
        self.stats.demodulators += 1
        seq = self._demod_seq
        self._demod_vals[sid] = vals = [
            (seq + i, sid, lhs, rhs, side, ordered)
            for i, (side, lhs, rhs) in enumerate(eqs)]
        for val in vals:
            self.demod_ix.insert(val[2], val)
        self._demod_seq += len(vals)
        self._norm_memo.clear()
        self._back_simplify(vals)

    def _back_simplify(self, vals):
        """Simplify again every other live clause that the new
        demodulator entries rewrite."""
        did = vals[0][1]
        victims = set()
        for val in vals:
            for sub in self.sub_ix.instances(val[2]):
                if self._root_step(sub, val) is not None:
                    victims |= self.sub_ix.owners[sub]
        victims.discard(did)
        for sid in sorted(victims):
            # a nested back-simplification may already have retired it;
            # its copy is then added again (and dropped as subsumed)
            if sid in self.live:
                self._retire(sid)
                self.stats.back_simplified += 1
            self.add(self.steps[sid].clause, [("copy", sid)])

    def _retire(self, sid):
        """Take a live clause out of every set and index."""
        for val in self.live.pop(sid):
            self.clause_ix.remove(val[2], val)
        self.active.pop(sid, None)
        self._sites.pop(sid, None)
        clause = self.steps[sid].clause
        for sub in _clause_subterms(clause):
            self.sub_ix.discard(sub, sid)
        vals = self._demod_vals.pop(sid, None)
        if vals:
            for val in vals:
                self.demod_ix.remove(val[2], val)
            self._norm_memo.clear()

    # -- inference rules

    def _equations_of(self, clause):
        """The readings (_readings) of a positive unit equation, as
        paramodulation sources and demodulator entries; none for any other
        clause."""
        eq = _unit_equation(clause)
        return [] if eq is None else self._readings(*eq)

    def _para_sites(self, sid):
        """Clause sid's readings as a paramodulation source
        (_equations_of); the sites (li, path, subterm) it can be
        paramodulated into, path from the literal's atom down, by head
        symbol and all together, each in visiting order: literals, then
        atom arguments, then subterms in preorder; and the clause renamed
        apart from every canonical clause.  Cached while the clause
        lives."""
        got = self._sites.get(sid)
        if got is None:
            clause = self.steps[sid].clause
            eqs = self._equations_of(clause)
            by_head, every = {}, []
            for li, (pol, atom) in enumerate(clause):
                if atom[0] == "=":
                    # superposition restriction: rewrite only the maximal
                    # sides, both when they are equal
                    sides = [1 if side == "l" else 2 for side, _, _
                             in eqs or self._readings(atom[1], atom[2])] \
                        or (1, 2)
                else:
                    sides = range(1, len(atom))
                for ai in sides:
                    for path, sub in _nonvar_subterms(atom[ai], (ai,)):
                        site = (li, path, sub)
                        every.append(site)
                        by_head.setdefault(sub[0], []).append(site)
            got = self._sites[sid] = (eqs, by_head, every,
                                      rename_apart(clause))
        return got

    def _paramodulate(self, from_id, into_id, out):
        eqs, _, _, from_apart = self._para_sites(from_id)
        if not eqs:
            return
        _, by_head, every, _ = self._para_sites(into_id)
        into_cl = self.steps[into_id].clause
        # the readings are of the stored clause; take the chosen sides
        # from its renamed copy
        _, left, right = from_apart[0][1]
        for side, _, _ in eqs:
            lhs, rhs = (left, right) if side == "l" else (right, left)
            sites = every if lhs[0] == VAR else by_head.get(lhs[0], ())
            for li, path, sub in sites:
                b = unify(lhs, sub)
                if b is None:
                    continue
                pol, atom = into_cl[li]
                new_cl = canonical_instance(
                    into_cl[:li] + ((pol, replace_at(atom, path, rhs)),)
                    + into_cl[li + 1:], b)
                out.append((new_cl, [("para", from_id, side, into_id, li,
                                      path)]))

    def _resolve(self, id1, id2, out):
        c1 = self.steps[id1].clause
        c2 = self._para_sites(id2)[3]     # renamed apart from c1
        for i, (p1, a1) in enumerate(c1):
            if a1[0] == "=":
                continue
            for j, (p2, a2) in enumerate(c2):
                if p1 == p2 or a1[0] != a2[0]:
                    continue
                b = unify(a1, a2)
                if b is None:
                    continue
                new_cl = canonical_instance(
                    c1[:i] + c1[i + 1:] + c2[:j] + c2[j + 1:], b)
                out.append((new_cl, [("resolve", id1, i, id2, j)]))

    def _factor(self, sid, out):
        clause = self.steps[sid].clause
        for i in range(len(clause)):
            for j in range(i + 1, len(clause)):
                (p1, a1), (p2, a2) = clause[i], clause[j]
                if p1 != p2 or a1[0] != a2[0]:
                    continue
                b = unify(a1, a2)
                if b is None:
                    continue
                new_cl = canonical_instance(clause[:j] + clause[j + 1:], b)
                out.append((new_cl, [("factor", sid, i, j)]))

    def _equality_resolve(self, sid, out):
        clause = self.steps[sid].clause
        for i, (pol, atom) in enumerate(clause):
            if pol or atom[0] != "=":
                continue
            b = unify(atom[1], atom[2])
            if b is None:
                continue
            new_cl = canonical_instance(clause[:i] + clause[i + 1:], b)
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
            if sid in self.live and sid not in self.active:
                return sid

    def _late(self):
        return self.deadline is not None and time.monotonic() > self.deadline

    def run(self):
        """The search's outcome.  max_seconds is checked before each given
        clause, between its active partners and between the clauses it
        generated."""
        stats = self.stats
        try:
            self.load()
        except _Contradiction as c:
            return Proved(self._reconstruct(c.step_id), stats)
        if self.limits.max_seconds:
            self.deadline = time.monotonic() + self.limits.max_seconds
        while len(self.live) > len(self.active):
            if self._late():
                return LimitReached("max_seconds", stats)
            if self.should_stop is not None and self.should_stop():
                return LimitReached("cancelled", stats)
            if (self.limits.max_given is not None
                    and stats.given >= self.limits.max_given):
                return LimitReached("max_given", stats)
            given = self.select_given()
            stats.given += 1
            self.active[given] = None
            new = []
            self._factor(given, new)
            self._equality_resolve(given, new)
            for other in list(self.active):
                if self._late():
                    return LimitReached("max_seconds", stats)
                self._paramodulate(given, other, new)
                if other != given:
                    self._paramodulate(other, given, new)
                    self._resolve(given, other, new)
                    self._resolve(other, given, new)
            stats.generated += len(new)
            try:
                for clause, just in new:
                    if self._late():
                        return LimitReached("max_seconds", stats)
                    self.add(clause, just, generated=True)
            except _Contradiction as c:
                return Proved(self._reconstruct(c.step_id), stats)
        if any(len(s.clause or ()) > 1 and any(
                pol and atom[0] == "=" for pol, atom in s.clause)
               for s in self.steps.values()):
            return LimitReached("incomplete", stats)
        return Exhausted(stats)

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
    """Search for a proof of theory's one goal.  should_stop, when given,
    is called once before each given clause and cancels the search by
    returning true, so callers may count given clauses with it."""
    return _State(theory, limits or ProverLimits(), should_stop).run()


# ---------------------------------------------------------------------------
# verification

def verify_proof(theory, proof: Proof):
    """Independently re-derive every step.  Returns (ok, report); a
    malformed justification or clause is reported, never raised."""
    if not proof.steps or proof.steps[-1].clause != EMPTY:
        return False, "proof does not end in the empty clause"
    prec = _Prec(theory.precedence())
    by_id = {}
    goal_ids = {}
    assumption_keys = {
        canonical_clause(_dedup(cl))
        for f in theory.assumptions for cl in clausify(f, "assumption")}

    def get_clause(i):
        if i in goal_ids:
            raise ProverError("step %d is the goal, which has no clause; "
                              "only deny may cite it" % i)
        return by_id[i].clause

    for step in proof.steps:
        if step.id in by_id or step.id in goal_ids:
            return False, "step id %d is used twice" % step.id
        if not step.justification or not all(
                map(_well_formed, step.justification)):
            return False, "step %d: malformed justification" % step.id
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
                          _denial(theory, goal_ids[gid])}
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
        except (LookupError, TypeError, ValueError) as e:
            # ProverError is a ValueError; the others come from steps
            # whose clauses are malformed
            return False, "step %d: %s" % (step.id, e)
        by_id[step.id] = step
    return True, "ok"


# ---------------------------------------------------------------------------
# transformations

def _remap_ops(just, mapping):
    out = []
    for op in just:
        if op[0] == "rewrite":
            out.append(("rewrite", [(mapping[e[0]],) + e[1:] for e in op[1]]))
        else:
            out.append(op[:1] + tuple(
                mapping[v] if f == "d" else v
                for v, f in zip(op[1:], _OP_FIELDS[op[0]])))
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
    """Give every rewrite entry of a verified proof a para step of its own
    (the prooftrans 4A/4B layout); see the README.  A para step drops
    repeated literals at once, so an entry cites the literal that
    survives, and the entries of a literal dropped for equalling the one
    rewritten, which repeat that one's later entries, are left out."""
    by_id = proof.step_map()
    fresh = count(max(by_id) + 1)
    steps = []

    def get_clause(i):
        return by_id[i].clause

    def add(clause, just):
        step = ProofStep(next(fresh), canonical_clause(clause), just)
        by_id[step.id] = step
        steps.append(step)
        return step.id

    for step in proof.steps:
        ops = step.justification
        cuts = [k for k, op in enumerate(ops) if op[0] == "rewrite" and op[1]]
        if not cuts:
            steps.append(step)
            continue
        clause = canonical_clause(_apply_secondary(
            _apply_primary(ops[0], get_clause), ops[1:cuts[0]], get_clause))
        last = add(clause, ops[:cuts[0]])
        for op in ops[cuts[0]:cuts[-1] + 1]:
            if op[0] != "rewrite":      # an xx between two rewrites
                clause = _apply_secondary(clause, [op], get_clause)
                last = add(clause, [("copy", last), op])
                continue
            # each literal the entries cite -> its index in clause, None
            # once dropped
            where = list(range(len(clause)))
            for did, li, path, side in op[1]:
                m = where[li]
                if m is not None:
                    new = _equation_step(clause, m, path, get_clause(did),
                                         side, "demodulator %d" % did)
                    clause = _dedup(new)
                    where = [None if w is None or new.index(new[w]) != w
                             else clause.index(new[w]) for w in where]
                    last = add(clause, [("para", did, side, last, m, path)])
        steps.append(ProofStep(step.id, step.clause,
                               [("copy", last)] + ops[cuts[-1] + 1:]))
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

# Proof operations and their fields after the kind: d a cited step id and
# l a 0-based literal index (non-negative integers), s the side of a unit
# equation used as left-hand side (l or r), p a path of tuple indices from
# the atom down (terms.subterm_at).  rewrite has one field, a list of
# entries ID(LIT,PATH,SIDE).
_OP_FIELDS = {"goal": "", "assumption": "", "deny": "d", "copy": "d",
              "xx": "l", "para": "dsdlp", "resolve": "dldl",
              "factor": "dll", "rewrite": "w"}
_REWRITE_FIELDS = "dlps"
_FIELD_RES = {"d": "[0-9]+", "l": "[0-9]+", "s": "[lr]",
              "p": r"[1-9][0-9]*(\.[1-9][0-9]*)*"}


def _cited(op):
    """The step ids that a well-formed operation cites."""
    if op[0] == "rewrite":
        return [e[0] for e in op[1]]
    return [v for v, f in zip(op[1:], _OP_FIELDS[op[0]]) if f == "d"]


def _render_op(op):
    kind = op[0]
    if kind == "rewrite":
        args = ["[%s]" % ",".join("%d(%d,%s,%s)" % (
            e[0], e[1], ".".join(map(str, e[2])), e[3]) for e in op[1])]
    else:
        args = [".".join(map(str, v)) if f == "p" else str(v)
                for v, f in zip(op[1:], _OP_FIELDS[kind])]
    return "%s(%s)" % (kind, ",".join(args)) if args else kind


def _well_formed(op):
    """Whether op fits the field rules: it must come back from its own text
    form unchanged, down to the types of its fields (hence repr)."""
    try:
        return repr(_parse_op(_render_op(op))) == repr(op)
    except (ProverError, LookupError, TypeError):
        return False


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


def _parse_fields(texts, spec, what):
    if len(texts) != len(spec) or not all(
            re.fullmatch(_FIELD_RES[f], t) for f, t in zip(spec, texts)):
        raise ProverError("malformed proof operation %r" % what)
    return tuple(t if f == "s" else _parse_path(t) if f == "p" else int(t)
                 for f, t in zip(spec, texts))


def _parse_path(text):
    return tuple(int(p) for p in text.split("."))


def _parse_op(text):
    m = _CALL_RE.fullmatch(text.strip())
    spec = _OP_FIELDS.get(m.group(1)) if m else None
    if spec is None:
        raise ProverError("unknown proof operation %r" % text)
    args = [] if m.group(2) is None else _split_args(m.group(2))
    if spec != "w":
        return (m.group(1),) + _parse_fields(args, spec, text)
    if len(args) != 1 or args[0][:1] != "[" or args[0][-1:] != "]":
        raise ProverError("bad rewrite list %r" % text)
    entries = []
    for e in _split_args(args[0][1:-1]):
        em = _CALL_RE.fullmatch(e)
        if em is None or em.group(2) is None:
            raise ProverError("malformed rewrite entry %r" % e)
        entries.append(_parse_fields([em.group(1)] + _split_args(em.group(2)),
                                     _REWRITE_FIELDS, e))
    return ("rewrite", entries)


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


_STEP_RE = re.compile(r"^(\d+)\s+(.*?)\.\s+\[(.*)\]\.\s*$")
_LABEL_RE = re.compile(r"\s*#\s*label\(\w+\)")
_CALL_RE = re.compile(r"(\w+)(?:\((.*)\))?", re.S)


def parse_proof(text: str, theory) -> Proof:
    """Inverse of render_proof.  Lines starting with '#' are ignored; a
    text without a step line raises ProverError."""
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
    if not steps:
        raise ProverError("no proof steps")
    return Proof(steps)
