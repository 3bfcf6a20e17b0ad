"""Equational chain proofs over the hoop signature, and the lemma corpus.

A chain proves a statement ``lhs rel rhs`` (rel one of ``=``, ``>=``,
``<=``) as a sequence of terms joined by links.  Each link carries a
relation and a justification::

    term_0
    term_1 <TAB> rel_1 <TAB> justification_1
    ...
    term_k <TAB> rel_k <TAB> justification_k

Verification works on *expanded normal forms*: every derived operation is
unfolded into the core signature {+, ~, 0, 1} and sums are flattened and
sorted (associativity/commutativity of + is built in).  On top of that a
small sound inequality engine (``_Geq``) decides "bookkeeping" facts such
as ``x + x' >= 1`` or ``(y ~ x) ~ x' = 0``; summands that the engine can
show equal to 0 are erased before terms are compared, which is what lets
one printed line absorb the routine "note that ... = 0" reasoning.

Justification forms:

``axiom(N)``
    one rewrite with hoop axiom N (1-8), either direction, anywhere.
``def(op)``
    unfolding a defined operation; a no-op on expanded forms, so the two
    sides must already be equal after expansion and zero-erasure.
``lemma(NAME)``
    one rewrite with the cited lemma's equation; NAME must be in the
    supplied context (or be an internal helper, which is then verified
    recursively from its own chain).
``base`` / ``ac``
    the two sides are equal after zero-erasure, or both inequalities are
    derivable by the base engine.
``mono`` / ``res`` / ``base`` on an inequality link
    the relation is derivable by the engine; ``mono(NAME,...)`` makes the
    cited statements available as extra facts.
``derive(NAME,...)``
    a deep equality, checked against its stored proof certificate
    ``data/proofs/LEMMA.LINE.proof`` (LINE as in the rejection messages):
    the goal must be the link's equation on expanded forms, either way
    round, and ``verify_proof`` must accept the proof from hoop_defs plus
    the cited lemmas.  The prover never runs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache

from .terms import VAR, ac_normal, substitute, term_vars
from .hoops import DERIVED_DEFS, MINUS, PLUS, builtin_theory, parse_hoop_term
from .syntax import Theory, data_text, parse_formula_text

ZERO = ("0",)
ONE = ("1",)


class ChainError(ValueError):
    """Malformed chain file or justification."""


# ---------------------------------------------------------------------------
# expanded normal forms

def expand(t):
    """Unfold every derived operation into {+, ~, 0, 1}."""
    if t[0] == VAR:
        return t
    args = tuple(expand(a) for a in t[1:])
    defn = DERIVED_DEFS.get(t[0])
    if defn is not None:
        params, body = defn
        return expand(substitute(body, dict(zip(params, args))))
    return (t[0],) + args


def acnorm(t):
    """Flatten + into a sorted n-ary node; recurse everywhere."""
    return ac_normal(t, (PLUS,))


def en(t):
    return acnorm(expand(t))


def _mk_sum(args):
    flat = []
    for a in args:
        flat.extend(a[1:] if a[0] == PLUS else (a,))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    flat.sort()
    return (PLUS,) + tuple(flat)


# ---------------------------------------------------------------------------
# the base inequality engine

class _Geq:
    """Sound, incomplete decision engine for s >= t on expanded forms.

    facts is a tuple of (big, small) pattern pairs; s >= t is accepted if
    some simultaneous AC-instance of a pair matches (s, t).  Terms are
    zero-erased first by base, the fact-free engine: the engines of one
    verification share one base, so its memos live as long as that
    verification and no longer.
    """

    def __init__(self, facts=(), base=None):
        self.facts = tuple(facts)
        self.base = base or (_Geq() if self.facts else self)
        self.memo = {}
        self.active = set()
        self.zmemo = {}
        self.zactive = set()

    def geq(self, s, t, depth=14):
        s, t = self.base.zreduce(s), self.base.zreduce(t)
        if depth <= 0:
            return False
        key = (s, t)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if key in self.active:
            return False
        self.active.add(key)
        try:
            r = self._geq(s, t, depth)
        finally:
            self.active.discard(key)
        if r:
            self.memo[key] = True
        return r

    def _geq(self, s, t, depth):
        if s == t or t == ZERO or s == ONE:
            return True
        if t == ONE and s[0] == PLUS:
            # c + d' + ... >= 1 whenever c >= d (so in particular d + d')
            args = list(s[1:])
            for i, v in enumerate(args):
                if v[0] == MINUS and v[1] == ONE:
                    rest = _mk_sum(args[:i] + args[i + 1:])
                    if self.geq(rest, v[2], depth - 1):
                        return True
        if s[0] == PLUS:
            sargs = list(s[1:])
            targs = list(t[1:]) if t[0] == PLUS else [t]
            if _multiset_contains(sargs, targs):
                return True
            # b + (a ~ b) >= a: replace such a pair by a and retry
            for s2 in _pair_reductions(sargs):
                if self.geq(s2, t, depth - 1):
                    return True
            if t[0] == PLUS and len(sargs) == len(t) - 1:
                if self._match_sums(sargs, list(t[1:]), depth):
                    return True
        if s[0] == MINUS and t[0] == MINUS:
            if (self.geq(s[1], t[1], depth - 1)
                    and self.geq(t[2], s[2], depth - 1)):
                return True
        if t[0] == MINUS:
            a, b = t[1], t[2]
            if self.geq(s, a, depth - 1):
                return True
            # residuation: s >= a ~ b iff b + s >= a
            if self.geq(_mk_sum([b, s]), a, depth - 1):
                return True
        for big, small in self.facts:
            for bind in ac_match(big, s, {}):
                if any(True for _ in ac_match(small, t, bind)):
                    return True
        if t != ONE and self.geq(s, ONE, depth - 1):
            return True
        return False

    def _match_sums(self, sargs, targs, depth):
        if not targs:
            return True
        t0 = targs[0]
        tried = set()
        for i, si in enumerate(sargs):
            if si in tried:
                continue
            tried.add(si)
            if self.geq(si, t0, depth - 1):
                if self._match_sums(sargs[:i] + sargs[i + 1:],
                                    targs[1:], depth):
                    return True
        return False

    # zero-erasure: called on a fact-free base engine

    def zreduce(self, t):
        """Erase summands (and subtrahends) this engine knows equal 0."""
        r = self.zmemo.get(t)
        if r is not None:
            return r
        if t in self.zactive:
            return t
        self.zactive.add(t)
        try:
            r = self._zreduce(t)
            self.zmemo[t] = r
        finally:
            self.zactive.discard(t)
        return r

    def _zreduce(self, t):
        if t[0] == VAR or len(t) == 1:
            return t
        args = [self.zreduce(a) for a in t[1:]]
        if t[0] == PLUS:
            kept = []
            for a in args:
                if a != ZERO:
                    kept.extend(a[1:] if a[0] == PLUS else (a,))
            r = _mk_sum(kept)
        elif t[0] == MINUS:
            a, b = args
            if b == ZERO:
                r = a
            elif a == ZERO:
                r = ZERO
            else:
                r = (MINUS, a, b)
        else:
            r = (t[0],) + tuple(args)
        if r != ZERO and r[0] == MINUS and self.geq(r[2], r[1]):
            r = ZERO
        return r


def _multiset_contains(sargs, targs):
    pool = list(sargs)
    for t in targs:
        if t in pool:
            pool.remove(t)
        else:
            return False
    return True


def _pair_reductions(args):
    for i, u in enumerate(args):
        for j, v in enumerate(args):
            if i != j and v[0] == MINUS and v[2] == u:
                rest = [a for k, a in enumerate(args) if k not in (i, j)]
                yield _mk_sum(rest + [v[1]])


def zreduce(t):
    """Erase summands (and subtrahends) the base engine knows equal 0, with
    memos that last for this one call."""
    return _Geq().zreduce(t)


# ---------------------------------------------------------------------------
# AC matching and rewriting

def ac_match(pattern, subject, binding):
    """Yield extensions of binding matching pattern against subject, where
    + is associative-commutative (both sides in acnorm form)."""
    if pattern[0] == VAR:
        bound = binding.get(pattern[1])
        if bound is None:
            b2 = dict(binding)
            b2[pattern[1]] = subject
            yield b2
        elif bound == subject:
            yield binding
        return
    if len(pattern) == 1:
        if pattern == subject:
            yield binding
        return
    if pattern[0] == PLUS:
        if subject[0] == PLUS:
            yield from _match_sum(list(pattern[1:]), list(subject[1:]),
                                  binding)
        return
    if subject[0] != pattern[0] or len(subject) != len(pattern):
        return

    def argwise(i, b):
        if i == len(pattern):
            yield b
            return
        for b2 in ac_match(pattern[i], subject[i], b):
            yield from argwise(i + 1, b2)

    yield from argwise(1, binding)


def _match_sum(pargs, sargs, binding):
    # match a concrete (non-variable or already-bound) pattern argument
    # against each candidate subject argument; leftover unbound variables
    # then absorb a partition of the remaining subject arguments
    for k, p in enumerate(pargs):
        if not (p[0] == VAR and p[1] not in binding):
            rest = pargs[:k] + pargs[k + 1:]
            tried = set()
            for i, cand in enumerate(sargs):
                if cand in tried:
                    continue
                tried.add(cand)
                for b2 in ac_match(p, cand, binding):
                    yield from _match_sum(rest, sargs[:i] + sargs[i + 1:],
                                          b2)
            return
    if not pargs:
        if not sargs:
            yield binding
        return
    names = [p[1] for p in pargs]
    if len(sargs) < len(names):
        return
    yield from _assign_blocks(names, sargs, binding)


def _assign_blocks(names, sargs, binding):
    k = len(names)
    if k == 1:
        b2 = dict(binding)
        b2[names[0]] = _mk_sum(sargs)
        yield b2
        return
    seen = set()
    for choice in itertools.product(range(k), repeat=len(sargs)):
        if len(set(choice)) != k:
            continue
        blocks = [[] for _ in range(k)]
        for elt, c in zip(sargs, choice):
            blocks[c].append(elt)
        b2 = dict(binding)
        ok = True
        for name, block in zip(names, blocks):
            val = _mk_sum(block)
            if b2.setdefault(name, val) != val:
                ok = False
                break
        if ok:
            key = tuple(sorted(b2.items()))
            if key not in seen:
                seen.add(key)
                yield b2


def rewrites(t, eqs):
    """Yield acnorm results of one rewrite with any of eqs anywhere in t,
    including on proper sub-multisets of a sum."""
    for l, r in eqs:
        for b in ac_match(l, t, {}):
            yield acnorm(substitute(r, b))
    if t[0] == VAR or len(t) == 1:
        return
    if t[0] == PLUS:
        args = list(t[1:])
        for i, a in enumerate(args):
            for a2 in rewrites(a, eqs):
                yield _mk_sum(args[:i] + [a2] + args[i + 1:])
        m = len(args)
        for size in range(2, m):
            for idxs in itertools.combinations(range(m), size):
                sub = _mk_sum([args[i] for i in idxs])
                rest = [args[i] for i in range(m) if i not in idxs]
                for l, r in eqs:
                    for b in ac_match(l, sub, {}):
                        yield _mk_sum(rest + [acnorm(substitute(r, b))])
    else:
        args = list(t[1:])
        for i, a in enumerate(args):
            for a2 in rewrites(a, eqs):
                yield (t[0],) + tuple(args[:i] + [a2] + args[i + 1:])


# ---------------------------------------------------------------------------
# statements, axioms, facts

def _statement_sides(formula):
    if formula[0] != "atom":
        raise ChainError("statement is not an equation or an inequality")
    atom = formula[1]
    return atom[0], en(atom[1]), en(atom[2])


@lru_cache(maxsize=None)
def _axiom_equations():
    """id (1-8) -> usable oriented equation list, on expanded forms."""
    out = {}
    for i, f in enumerate(builtin_theory("hoop").assumptions, start=1):
        _, l, r = _statement_sides(f)
        out[i] = _orient(l, r)
    return out


def _orient(l, r):
    eqs = []
    if term_vars(r) <= term_vars(l):
        eqs.append((l, r))
    if term_vars(l) <= term_vars(r) and l != r:
        eqs.append((r, l))
    return tuple(eqs)


def _fact_pairs(formula):
    """(big, small) engine facts contributed by a statement."""
    rel, l, r = _statement_sides(formula)
    if rel == ">=":
        return ((l, r),)
    pairs = [(l, r), (r, l)]
    if r == ZERO and l[0] == MINUS:
        pairs.append((l[2], l[1]))
    if l == ZERO and r[0] == MINUS:
        pairs.append((r[2], r[1]))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# lemma records and chain files

class LemmaRecord(namedtuple("LemmaRecord", "name statement_text "
                             "depends_on helper", defaults=((), False))):
    """A corpus statement; its formula and its transcribed chain are
    parsed on first read, once per record."""

    @cached_property
    def statement(self):
        return parse_formula_text(self.statement_text,
                                  builtin_theory("hoop_defs"))

    @cached_property
    def chain(self):
        text = data_text("chains", self.name + ".chain")
        return None if text is None else parse_chain(text)


Justification = namedtuple("Justification", "kind refs", defaults=((),))


def _parse_justification(text):
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ChainError("bad justification %r" % text)
        kind, inner = text[:-1].split("(", 1)
        kind = kind.strip()
        refs = tuple(p.strip() for p in inner.split(",") if p.strip())
    else:
        kind, refs = text, ()
    if kind == "axiom":
        if len(refs) != 1 or not refs[0].isdigit():
            raise ChainError("axiom justification needs a number: %r" % text)
        refs = (int(refs[0]),)
    elif kind == "def":
        if len(refs) != 1:
            raise ChainError("def justification needs an operation: %r"
                             % text)
    elif kind in ("lemma", "derive"):
        if not refs:
            raise ChainError("%s justification needs a name: %r"
                             % (kind, text))
    elif kind not in ("base", "ac", "mono", "res"):
        raise ChainError("unknown justification %r" % text)
    return Justification(kind, refs)


def parse_chain(text):
    """[first_term, (term, rel, justification), ...]"""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ChainError("empty chain")
    steps = [parse_hoop_term(lines[0])]
    for ln in lines[1:]:
        parts = [p for p in ln.split("\t") if p.strip()]
        if len(parts) != 3:
            raise ChainError("chain line needs term<TAB>rel<TAB>just: %r"
                             % ln)
        term, rel, just = parts
        if rel.strip() not in ("=", ">=", "<="):
            raise ChainError("bad relation %r" % rel)
        steps.append((parse_hoop_term(term), rel.strip(),
                      _parse_justification(just)))
    return steps


# ---------------------------------------------------------------------------
# the corpus

@lru_cache(maxsize=None)
def _registry():
    """Every record by name, in dependency order, helpers last."""
    basic = [
        ("basic_i", "x >= y cap x", ()),
        ("basic_ii", "x >= x \\ y", ()),
        ("basic_iii", "(x \\ y) ~ x = 0", ()),
        ("basic_iv", "x + y = x + (y \\ x)", ()),
        ("basic_v", "z cap (y ~ x) >= (z cap y) ~ (z cap x)", ()),
        ("basic_vi", "x ~ (x cap y) = x ~ y", ()),
    ]
    named = [
        ("AA", "x nand y = y nand x", ()),
        ("MNA", "(x cap y)' = x nand y", ()),
        ("MNMN", "(x cap y)' = (y cap x)'", ("MNA", "AA")),
        ("NPJSSO", "x' + ((y cup x) ~ (y ~ x)) = 1", ()),
        ("MPS", "x = (x cap y) + (x ~ y)", ()),
        ("NSPJN", "x' = (y ~ x) + (x cup y)'", ()),
        ("NNSSNN", "x' = x' ~ (x ~ x'')", ("PNSSNNO",)),
        ("SNNNO", "(x ~ x'')' = 1", ("NNSSNN", "NPJSSO")),
        ("SSNNSNO", "((x ~ y) ~ (x'' ~ y))' = 1", ("SNNNO",)),
        ("NSNSM", "x' = (x ~ y)' ~ (y cap x)", ("MNMN",)),
        ("NNSNNSNN", "x'' ~ y'' = (x ~ y)''",
         ("basic_vi", "SSNNSNO", "NSNSM")),
        ("PPMD", "x + y = x + (y cap (y \\ x))",
         ("basic_iii", "basic_iv", "MPS")),
        ("NPNPM", "x' + y = x' + (y cap x)", ("PPMD",)),
        ("JNND", "(x cup y)' = y' \\ x", ("NPNPM",)),
        ("NDND", "y' \\ x = x' \\ y", ("JNND",)),
        ("SNNNPN", "(y ~ x')' = x' + y'",
         ("NSPJN", "JNND", "NDND", "basic_vi")),
        ("PNNNNPNN", "(x + y)'' = x'' + y''", ("SNNNPN",)),
        ("SNNPNN", "(x ~ y)' = x' + y''",
         ("basic_vi", "NNSNNSNN", "SNNNPN")),
    ]
    records = [LemmaRecord(n, s, d) for n, s, d in basic + named]
    records.append(LemmaRecord("PNSSNNO", "x + (x' ~ (x ~ x'')) = 1",
                               (), helper=True))
    return {r.name: r for r in records}


def lemma_corpus():
    """The transcribed lemma corpus, in dependency order."""
    return [r for r in _registry().values() if not r.helper]


# ---------------------------------------------------------------------------
# verification

def lemma_theory(names, goal):
    """The theory hoop_defs plus the statements of the named lemmas
    (helpers included), with goal as its one goal.  Raises ChainError
    on a name that is neither."""
    reg = _registry()
    unknown = [n for n in names if n not in reg]
    if unknown:
        raise ChainError("unknown lemma %s" % ", ".join(unknown))
    base = builtin_theory("hoop_defs")
    return Theory(op_decls=list(base.op_decls),
                  assumptions=list(base.assumptions)
                  + [reg[n].statement for n in names],
                  goals=[goal])


def proof_certificate(lemma, line):
    """Text of the stored proof of the derive link at line of lemma's
    chain, or None when there is none."""
    return data_text("proofs", "%s.%d.proof" % (lemma, line))


def _check_certificate(prev, cur, names, lemma, line):
    """Raise ChainError, naming the cause, unless the stored certificate
    proves prev = cur (expanded forms) from the lemmas names."""
    from .saturate import parse_proof, verify_proof
    where = "derive link at line %d of %s" % (line, lemma)
    text = proof_certificate(lemma, line)
    if text is None:
        raise ChainError("%s: no proof certificate data/proofs/%s.%d.proof"
                         % (where, lemma, line))
    try:
        proof = parse_proof(text, builtin_theory("hoop_defs"))
    except ValueError as e:
        raise ChainError("%s: unreadable proof certificate: %s" % (where, e))
    goals = [step.formula for step in proof.steps if step.formula is not None]
    sides = None
    if len(goals) == 1 and goals[0][0] == "atom" and goals[0][1][0] == "=":
        sides = en(goals[0][1][1]), en(goals[0][1][2])
    if sides not in ((prev, cur), (cur, prev)):
        raise ChainError("%s: the proof certificate does not prove this link"
                         % where)
    ok, report = verify_proof(lemma_theory(names, goals[0]), proof)
    if not ok:
        raise ChainError("%s: proof certificate rejected: %s"
                         % (where, report))


def _cited_equations(just, available):
    """Oriented rewrite equations for an axiom/lemma justification."""
    if just.kind == "axiom":
        eqs = _axiom_equations().get(just.refs[0])
        if eqs is None:
            raise ChainError("no axiom %r" % (just.refs[0],))
        return eqs
    if just.kind == "lemma":
        eqs = []
        for name in just.refs:
            rel, l, r = _statement_sides(available(name).statement)
            if rel != "=":
                raise ChainError(
                    "lemma %s is not an equation; cite it with mono" % name)
            eqs.extend(_orient(l, r))
        return tuple(eqs)
    return ()


class _Verifier:
    def __init__(self, context):
        self.context = {}
        for item in context:
            rec = _registry()[item] if isinstance(item, str) else item
            self.context[rec.name] = rec
        self.helper_ok = {}
        # one base engine, and so one zero-erasure memo, per verifier
        self.base = _Geq()
        self.zreduce = self.base.zreduce

    def available(self, name):
        rec = self.context.get(name)
        if rec is not None:
            return rec
        rec = _registry().get(name)
        if rec is not None and rec.helper:
            ok = self.helper_ok.get(name)
            if ok is None:
                ok, why = self.verify(rec)
                self.helper_ok[name] = ok
                if not ok:
                    raise ChainError("helper %s does not verify: %s"
                                     % (name, why))
            elif not ok:
                raise ChainError("helper %s does not verify" % name)
            return rec
        raise ChainError("lemma %s is not in the context" % name)

    def facts_for(self, names):
        pairs = []
        for name in names:
            pairs.extend(_fact_pairs(self.available(name).statement))
        return tuple(pairs)

    def check_link(self, prev, cur, rel, just, lemma, line):
        """prev/cur are expanded forms; the link is line of lemma's chain."""
        if rel == "=":
            zp, zc = self.zreduce(prev), self.zreduce(cur)
            if just.kind in ("axiom", "def", "lemma", "base", "ac",
                            "derive") and zp == zc:
                return True
            if just.kind in ("axiom", "lemma"):
                eqs = _cited_equations(just, self.available)
                for src, tgt in ((prev, zc), (zp, zc), (cur, zp), (zc, zp)):
                    seen = set()
                    for r in rewrites(src, eqs):
                        if r in seen:
                            continue
                        seen.add(r)
                        if self.zreduce(r) == tgt:
                            return True
                return False
            if just.kind in ("base", "ac"):
                return (self.base.geq(prev, cur)
                        and self.base.geq(cur, prev))
            if just.kind == "derive":
                for name in just.refs:
                    self.available(name)
                _check_certificate(prev, cur, just.refs, lemma, line)
                return True
            return False
        # inequality links
        if just.kind not in ("base", "mono", "res"):
            return False
        gq = _Geq(self.facts_for(just.refs), self.base)
        if rel == ">=":
            return gq.geq(prev, cur)
        return gq.geq(cur, prev)

    def verify(self, record):
        chain = record.chain
        if chain is None:
            return False, "no chain is transcribed for %s" % record.name
        try:
            terms = [en(chain[0])]
            rels = []
            for i, (term, rel, just) in enumerate(chain[1:], start=2):
                cur = en(term)
                if not self.check_link(terms[-1], cur, rel, just,
                                       record.name, i):
                    return False, ("link at line %d (%s, %s) does not check"
                                   % (i, rel, just.kind))
                terms.append(cur)
                rels.append(rel)
        except ChainError as e:
            return False, str(e)
        return self.entails(record, terms, rels)

    def entails(self, record, terms, rels):
        rel_claim, lhs, rhs = _statement_sides(record.statement)
        zl, zr_ = self.zreduce(lhs), self.zreduce(rhs)
        zterms = [self.zreduce(t) for t in terms]
        kinds = set(rels)
        up = "<=" not in kinds      # chain proves terms[0] >= terms[-1]
        down = ">=" not in kinds    # chain proves terms[0] <= terms[-1]
        cyclic = zterms[0] == zterms[-1] and (up or down)
        if cyclic:
            # a one-directional cycle forces every term to be equal
            if zl in zterms and zr_ in zterms:
                return True, "ok"
            return False, "claim sides do not appear in the cycle"
        fwd = zterms[0] == zl and zterms[-1] == zr_
        bwd = zterms[0] == zr_ and zterms[-1] == zl
        if rel_claim == ">=":
            if (fwd and up) or (bwd and down):
                return True, "ok"
            return False, "chain does not entail the inequality"
        if not (fwd or bwd):
            return False, "chain endpoints do not match the claim"
        if up and down:
            return True, "ok"
        # the chain gives one direction; the converse must be immediate
        big, small = (rhs, lhs) if (fwd and up) or (bwd and down) \
            else (lhs, rhs)
        gq = _Geq(self.facts_for(self.context.keys()), self.base)
        if gq.geq(big, small):
            return True, "ok"
        if self._swap_symmetric(lhs, rhs):
            return True, "ok"
        return False, "converse direction of the equality is not immediate"

    @staticmethod
    def _swap_symmetric(lhs, rhs):
        vs = sorted(term_vars(lhs) | term_vars(rhs))
        if len(vs) != 2:
            return False
        a, b = vs
        swap = {a: (VAR, b), b: (VAR, a)}
        return (acnorm(substitute(lhs, swap)) == rhs
                and acnorm(substitute(rhs, swap)) == lhs)


def verify_chain_report(lemma, context=()):
    """(ok, reason).  lemma is a LemmaRecord or a corpus name."""
    if isinstance(lemma, str):
        lemma = _registry()[lemma]
    return _Verifier(context).verify(lemma)


def verify_chain(lemma, context=()):
    """True iff the transcribed chain for lemma checks link by link and
    entails its statement, using only the statements in context (plus the
    hoop axioms, definitions and base facts)."""
    ok, _ = verify_chain_report(lemma, context)
    return ok
