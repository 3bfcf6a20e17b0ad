"""Symbolic terms, formulas and clauses.

Terms are nested tuples: a variable is ("V", name) and an application of a
function or constant symbol is (symbol, arg1, ..., argk), so a constant is a
1-tuple like ("0",).  Tuples hash and compare fast, which matters in the
saturation loop.

Atoms are tuples (pred, t1, ..., tk) where pred is "=" for equations or a
relation name like ">=".  A literal is (polarity, atom) with polarity a bool.
A clause is a tuple of literals; the empty tuple is the contradiction $F.

Formulas are tagged tuples over atoms:
    ("atom", atom) | ("not", f) | ("and", f, g) | ("or", f, g)
    | ("imp", f, g) | ("iff", f, g)
"""

from __future__ import annotations

from itertools import count

VAR = "V"

# canonical variable names for pattern normalization, in order
CANON_VARS = ("x", "y", "z", "u", "v", "w")


def var(name: str):
    return (VAR, name)


def term_vars(t, acc=None):
    """Set of variable names occurring in a term."""
    if acc is None:
        acc = set()
    if t[0] == VAR:
        acc.add(t[1])
    else:
        for a in t[1:]:
            term_vars(a, acc)
    return acc


def term_symbols(t):
    """Set of function and constant symbols occurring in a term."""
    return {s[0] for s in subterms(t) if s[0] != VAR}


def term_size(t) -> int:
    """Total number of symbol occurrences (variables included)."""
    if t[0] == VAR:
        return 1
    return 1 + sum(term_size(a) for a in t[1:])


def subterms(t):
    """All subterms, outermost first, left to right."""
    yield t
    if t[0] != VAR:
        for a in t[1:]:
            yield from subterms(a)


def subterm_at(t, path):
    for i in path:
        t = t[i + 1]
    return t


def replace_at(t, path, s):
    if not path:
        return s
    i = path[0]
    return t[: i + 1] + (replace_at(t[i + 1], path[1:], s),) + t[i + 2 :]


def positions(t, prefix=()):
    """All positions (paths) in a term, root first."""
    yield prefix
    if t[0] != VAR:
        for i, a in enumerate(t[1:]):
            yield from positions(a, prefix + (i,))


def substitute(t, binding):
    """Apply a variable binding to a term.  Simultaneous: bound occurrences
    are replaced once, unbound variables stay."""
    if t[0] == VAR:
        return binding.get(t[1], t)
    if len(t) == 1:
        return t
    if len(t) == 3:
        return (t[0], substitute(t[1], binding), substitute(t[2], binding))
    return (t[0], *[substitute(a, binding) for a in t[1:]])


def compose(b1, b2):
    """Binding equal to applying b1 then b2."""
    out = {v: substitute(t, b2) for v, t in b1.items()}
    for v, t in b2.items():
        out.setdefault(v, t)
    return out


def match(pattern, target, binding=None):
    """One-way matching: find b with substitute(pattern, b) == target.
    Variables in target are treated as constants.  Returns None on failure."""
    if binding is None:
        binding = {}
    if pattern[0] == VAR:
        bound = binding.get(pattern[1])
        if bound is None:
            binding[pattern[1]] = target
            return binding
        return binding if bound == target else None
    if target[0] == VAR or pattern[0] != target[0] or len(pattern) != len(target):
        return None
    for p, t in zip(pattern[1:], target[1:]):
        if match(p, t, binding) is None:
            return None
    return binding


def _walk(t, subst):
    while t[0] == VAR and t[1] in subst:
        t = subst[t[1]]
    return t


def _occurs(name, t, subst):
    t = _walk(t, subst)
    if t[0] == VAR:
        return t[1] == name
    for a in t[1:]:
        if _occurs(name, a, subst):
            return True
    return False


def unify(t1, t2):
    """Most general unifier with occurs-check, or None.

    The result is idempotent: every binding value is fully resolved.
    """
    subst = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = _walk(a, subst)
        b = _walk(b, subst)
        if a == b:
            continue
        if a[0] == VAR:
            if _occurs(a[1], b, subst):
                return None
            subst[a[1]] = b
        elif b[0] == VAR:
            if _occurs(b[1], a, subst):
                return None
            subst[b[1]] = a
        else:
            if a[0] != b[0] or len(a) != len(b):
                return None
            stack.extend(zip(a[1:], b[1:]))
    # resolve to an idempotent substitution
    def resolve(t):
        t = _walk(t, subst)
        if t[0] == VAR:
            return t
        if len(t) == 1:
            return t
        return (t[0], *[resolve(a) for a in t[1:]])

    return {v: resolve(t) for v, t in subst.items()}


def canon_var_name(i: int) -> str:
    if i < len(CANON_VARS):
        return CANON_VARS[i]
    return "x%d" % (i - len(CANON_VARS) + 1)


def canonical_renaming(ts):
    """Binding renaming variables to x, y, z, ... by first occurrence in a
    left-to-right depth-first traversal of the given terms."""
    binding = {}
    def visit(t):
        if t[0] == VAR:
            if t[1] not in binding:
                binding[t[1]] = var(canon_var_name(len(binding)))
        else:
            for a in t[1:]:
                visit(a)
    for t in ts:
        visit(t)
    return binding


def subterm_patterns(t):
    """Multiset (list) of all non-variable subterms, each normalized by
    canonical variable renaming."""
    out = []
    for s in subterms(t):
        if s[0] != VAR:
            out.append(substitute(s, canonical_renaming([s])))
    return out


# ---------------------------------------------------------------------------
# literals, clauses

def lit_terms(lit):
    return lit[1][1:]


def lit_vars(lit):
    acc = set()
    for t in lit_terms(lit):
        term_vars(t, acc)
    return acc


def clause_vars(clause):
    acc = set()
    for lit in clause:
        acc |= lit_vars(lit)
    return acc


def substitute_lit(lit, binding):
    pol, atom = lit
    return (pol, (atom[0],) + tuple(substitute(t, binding) for t in atom[1:]))


def substitute_clause(clause, binding):
    return tuple(substitute_lit(l, binding) for l in clause)


def clause_weight(clause) -> int:
    return sum(term_size(t) for lit in clause for t in lit_terms(lit))


def ac_normal(t, ac_symbols):
    """t with every nest of an associative-commutative symbol flattened
    into one node with sorted arguments; two terms are equal modulo AC
    exactly when their AC normal forms are equal."""
    if t[0] == VAR or len(t) == 1:
        return t
    args = [ac_normal(a, ac_symbols) for a in t[1:]]
    if t[0] in ac_symbols:
        flat = []
        for a in args:
            flat.extend(a[1:] if a[0] == t[0] else (a,))
        flat.sort()
        return (t[0],) + tuple(flat)
    return (t[0],) + tuple(args)


def canonical_clause(clause):
    """Clause with variables renamed canonically; used as a dedup key."""
    binding = canonical_renaming([t for lit in clause for t in lit_terms(lit)])
    return substitute_clause(clause, binding)


def rename_apart(clause, salt: int):
    """Rename variables injectively to fresh names determined by salt."""
    binding = {v: var("%s_%d" % (v.rstrip("_0123456789") or v, salt))
               for v in sorted(clause_vars(clause))}
    # guard against accidental collisions from the stripped stem
    if len(set(b[1] for b in binding.values())) != len(binding):
        binding = {v: var("%s_%d" % (v, salt)) for v in sorted(clause_vars(clause))}
    return substitute_clause(clause, binding)


def is_tautology(clause) -> bool:
    atoms_pos = {a for p, a in clause if p}
    atoms_neg = {a for p, a in clause if not p}
    if atoms_pos & atoms_neg:
        return True
    for pol, atom in clause:
        if pol and atom[0] == "=" and atom[1] == atom[2]:
            return True
    return False


# ---------------------------------------------------------------------------
# lexicographic path ordering

GREATER = "greater"
LESS = "less"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def lpo_gt(s, t, prec) -> bool:
    """s > t in the lexicographic path ordering with the given precedence
    (a mapping from non-variable symbols to integers).

    Arguments are compared in the order of Loechner, "Things to know when
    implementing LPO" (2006): with equal heads only the arguments after
    the first difference are looked at, and with a greater head only the
    arguments of t; both cases give the definition's answer by the
    ordering's transitivity and subterm property."""
    if t[0] == VAR:
        return s != t and _occurs_plain(t[1], s)
    if s[0] == VAR:
        return False
    f, g = s[0], t[0]
    if f == g and len(s) == len(t):
        for i in range(1, len(s)):
            if s[i] != t[i]:
                break
        else:
            return False
        if lpo_gt(s[i], t[i], prec):
            return _gt_all(s, t, i + 1, prec)
        return _ge_some(s, t, i + 1, prec)
    if f != g and prec[f] > prec[g]:
        return _gt_all(s, t, 1, prec)
    return _ge_some(s, t, 1, prec)


def _gt_all(s, t, start, prec):
    """s > t[j] for every argument index j >= start."""
    for j in range(start, len(t)):
        if not lpo_gt(s, t[j], prec):
            return False
    return True


def _ge_some(s, t, start, prec):
    """s[j] >= t for some argument index j >= start."""
    for j in range(start, len(s)):
        if s[j] == t or lpo_gt(s[j], t, prec):
            return True
    return False


def _occurs_plain(name, t):
    if t[0] == VAR:
        return t[1] == name
    for a in t[1:]:
        if _occurs_plain(name, a):
            return True
    return False


def compare_lpo(t1, t2, prec) -> str:
    if t1 == t2:
        return EQUAL
    if lpo_gt(t1, t2, prec):
        return GREATER
    if lpo_gt(t2, t1, prec):
        return LESS
    return INCOMPARABLE


# ---------------------------------------------------------------------------
# formulas and clausification

def formula_atoms(f):
    if f[0] == "atom":
        yield f[1]
    elif f[0] == "not":
        yield from formula_atoms(f[1])
    else:
        yield from formula_atoms(f[1])
        yield from formula_atoms(f[2])


def formula_vars(f):
    acc = set()
    for atom in formula_atoms(f):
        for t in atom[1:]:
            term_vars(t, acc)
    return acc


def formula_symbols(f):
    """Set of relation ("=" included) and function symbols of a formula."""
    acc = set()
    for atom in formula_atoms(f):
        acc.add(atom[0])
        for t in atom[1:]:
            acc |= term_symbols(t)
    return acc


def _nnf(f, positive: bool):
    tag = f[0]
    if tag == "atom":
        return ("lit", positive, f[1])
    if tag == "not":
        return _nnf(f[1], not positive)
    if tag == "and":
        a, b = _nnf(f[1], positive), _nnf(f[2], positive)
        return ("and", a, b) if positive else ("or", a, b)
    if tag == "or":
        a, b = _nnf(f[1], positive), _nnf(f[2], positive)
        return ("or", a, b) if positive else ("and", a, b)
    if tag == "imp":
        a, b = _nnf(f[1], not positive), _nnf(f[2], positive)
        return ("or", a, b) if positive else ("and", a, b)
    if tag == "iff":
        fwd = ("imp", f[1], f[2])
        bwd = ("imp", f[2], f[1])
        return _nnf(("and", fwd, bwd), positive)
    raise ValueError("unknown formula tag %r" % (tag,))


def _cnf(nf):
    """Distribute an NNF tree to a list of clauses (naive)."""
    tag = nf[0]
    if tag == "lit":
        return [((nf[1], nf[2]),)]
    if tag == "and":
        return _cnf(nf[1]) + _cnf(nf[2])
    if tag == "or":
        left, right = _cnf(nf[1]), _cnf(nf[2])
        out = []
        for c1 in left:
            for c2 in right:
                merged = c1 + tuple(l for l in c2 if l not in c1)
                out.append(merged)
        return out
    raise ValueError("bad nnf node %r" % (tag,))


def clausify(f, mode: str, fresh_constants=None):
    """Turn a quantifier-free formula into CNF clauses.

    mode "assumption": the formula is kept as is.
    mode "denied_goal": the formula is negated and each of its (implicitly
    universal) variables is replaced by a fresh Skolem constant drawn from
    fresh_constants (an iterator of names; defaults to c1, c2, ...).
    """
    if mode == "assumption":
        nf = _nnf(f, True)
    elif mode == "denied_goal":
        nf = _nnf(f, False)
        names = fresh_constants if fresh_constants is not None else (
            "c%d" % i for i in count(1))
        binding = {}
        order = []
        def visit(t):
            if t[0] == VAR:
                if t[1] not in binding:
                    binding[t[1]] = None
                    order.append(t[1])
            else:
                for a in t[1:]:
                    visit(a)
        def visit_nf(n):
            if n[0] == "lit":
                for t in n[2][1:]:
                    visit(t)
            else:
                visit_nf(n[1])
                visit_nf(n[2])
        visit_nf(nf)
        for v in order:
            binding[v] = (next(names),)
        def subst_nf(n):
            if n[0] == "lit":
                return ("lit", n[1],
                        (n[2][0],) + tuple(substitute(t, binding) for t in n[2][1:]))
            return (n[0], subst_nf(n[1]), subst_nf(n[2]))
        nf = subst_nf(nf)
    else:
        raise ValueError("unknown clausify mode %r" % (mode,))
    return _cnf(nf)
