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
    """The subterm at a path: the sequence of tuple indices from t down, so
    argument i of a node is index i (the atom's arguments, for an atom)."""
    for i in path:
        t = t[i]
    return t


def replace_at(t, path, s):
    """t with the subterm at path (as subterm_at reads it) replaced by s."""
    if not path:
        return s
    i = path[0]
    return t[:i] + (replace_at(t[i], path[1:], s),) + t[i + 1:]


def positions(t, prefix=()):
    """All paths in t (as subterm_at reads them), each after prefix, root
    first, then preorder."""
    yield prefix
    if t[0] != VAR:
        for i in range(1, len(t)):
            yield from positions(t[i], prefix + (i,))


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
    return canonical_instance(clause, {})


def canonical_instance(clause, binding):
    """substitute_clause(clause, binding) with its variables renamed to x,
    y, z, ... by first occurrence, in one left-to-right walk.  binding
    must be idempotent: no variable it binds occurs in a value it binds,
    as with the result of unify."""
    images = {}     # variable name -> its image in the result
    free = 0        # unbound variables met so far

    def walk(t):
        nonlocal free
        if t[0] == VAR:
            got = images.get(t[1])
            if got is None:
                bound = binding.get(t[1])
                if bound is None:
                    got = var(canon_var_name(free))
                    free += 1
                else:
                    got = walk(bound)
                images[t[1]] = got
            return got
        if len(t) == 3:
            return (t[0], walk(t[1]), walk(t[2]))
        if len(t) == 1:
            return t
        return (t[0], *[walk(a) for a in t[1:]])

    return tuple((pol, (atom[0], *[walk(a) for a in atom[1:]]))
                 for pol, atom in clause)


def rename_apart(clause):
    """clause with an underscore put in front of every variable name.  The
    parser never reads such a name as a variable, so the result shares no
    variable with a parsed or canonical clause."""
    return substitute_clause(clause, {v: var("_" + v)
                                      for v in clause_vars(clause)})


# ---------------------------------------------------------------------------
# lexicographic path ordering

def lpo_gt(s, t, prec) -> bool:
    """s > t in the lexicographic path ordering with the given precedence
    (a mapping from non-variable symbols to integers).

    Arguments are compared in the order of Loechner, "Things to know when
    implementing LPO" (2006): with equal heads only the arguments after
    the first difference are looked at, and with a greater head only the
    arguments of t; both cases give the definition's answer by the
    ordering's transitivity and subterm property."""
    if t[0] == VAR:
        return s != t and _occurs(t[1], s, {})
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


def clausify(f, mode: str, taken=()):
    """Turn a quantifier-free formula into CNF clauses.

    mode "assumption": the formula is kept as is.
    mode "denied_goal": the formula is negated and each of its (implicitly
    universal) variables is replaced by a fresh Skolem constant c1, c2, ...
    skipping the names in taken (the symbols already in use).
    """
    if mode == "assumption":
        return _cnf(_nnf(f, True))
    if mode != "denied_goal":
        raise ValueError("unknown clausify mode %r" % (mode,))
    # the variables by first occurrence, the order they have in the NNF
    order = canonical_renaming([t for atom in formula_atoms(f)
                                for t in atom[1:]])
    names = (n for n in ("c%d" % i for i in count(1)) if n not in taken)
    skolem = {v: (next(names),) for v in order}
    return [substitute_clause(c, skolem) for c in _cnf(_nnf(f, False))]
