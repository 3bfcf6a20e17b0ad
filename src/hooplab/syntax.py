"""Theory file format: parsing and printing.

The accepted format is a small subset of the usual first-order tool syntax:

    op(500, infix, "cup").          # operator declaration
    formulas(assumptions).
       (x cup y) cup z = x cup (y cup z).
       x >= y <-> x cup y = x.
    end_of_list.
    formulas(goals).
       x cup (x cup x) = x.
    end_of_list.

Identifiers whose first letter is one of u..z are variables, everything else
is a constant or function symbol.  A postfix prime makes the unary "neg"
operation (x' is neg(x)); "neg" itself is accepted as an alias.  Comments run
from # to end of line.  Input is 7-bit ASCII.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import (VAR, formula_atoms, formula_symbols, formula_vars,
                    subterms, term_symbols, term_vars, var)

FIXED_TOKENS = ["<->", "->", "!=", ">=", "<=", "=", "&", "|", "'",
                "(", ")", ".", ",", "-"]

VARIABLE_INITIALS = "uvwxyz"

NEG = "neg"


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class TheoryError(ValueError):
    """Conflicting declarations or symbol usage."""


@dataclass
class Theory:
    # (precedence, fixity, symbol); fixity is "infix" or "postfix"
    op_decls: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    goals: list = field(default_factory=list)

    def declared(self, name):
        for prec, fixity, sym in self.op_decls:
            if sym == name:
                return (prec, fixity)
        return None

    def symbols(self):
        """Map symbol name -> (arity, kind); raises TheoryError on conflict."""
        table = {}
        for f in self.assumptions + self.goals:
            for atom in formula_atoms(f):
                found = [(t[0], len(t) - 1, "function") for a in atom[1:]
                         for t in subterms(a) if t[0] != VAR]
                if atom[0] != "=":
                    found.insert(0, (atom[0], len(atom) - 1, "relation"))
                for name, arity, kind in found:
                    old = table.setdefault(name, (arity, kind))
                    if old != (arity, kind):
                        raise TheoryError(
                            "symbol %r used with conflicting arity/kind "
                            "%r vs %r" % (name, old, (arity, kind)))
        for prec, fixity, sym in self.op_decls:
            if sym in table and table[sym] != (2, "function"):
                raise TheoryError("declared operator %r used as %r"
                                  % (sym, table[sym]))
        return table

    def definitions(self):
        """The assumptions that define a symbol, in file order.

        f(x1..xk) = term and R(x1..xk) <-> formula, over k >= 1 distinct
        variables, define f or R when the body uses only those variables,
        mentions neither the head nor a symbol that a later formula of
        either shape has as its head, and the head is not defined above.
        Returns (defs, indices): defs maps each defined symbol, in order,
        to (kind, params, body) with kind "function" or "relation" as in
        symbols(), and indices lists the defining assumptions' positions.
        """
        shapes = [_definition_shape(f) for f in self.assumptions]
        defs, indices = {}, []
        for i, shape in enumerate(shapes):
            if shape is None:
                continue
            kind, name, params, body = shape
            if kind == "function":
                used, mentioned = term_vars(body), term_symbols(body)
            else:
                used, mentioned = formula_vars(body), formula_symbols(body)
            later = {s[1] for s in shapes[i + 1:] if s is not None}
            if (name in defs or not used <= set(params)
                    or name in mentioned or mentioned & later):
                continue
            defs[name] = (kind, params, body)
            indices.append(i)
        return defs, indices

    def precedence(self):
        """Default LPO precedence: 0 < 1 < other constants < undeclared
        functions < declared operators in declaration order < neg."""
        table = self.symbols()
        prec = {"0": 0, "1": 1}
        consts = sorted(n for n, (a, k) in table.items()
                        if a == 0 and k == "function" and n not in prec)
        for i, n in enumerate(consts):
            prec[n] = 2 + i
        # a repeated declaration keeps the rank of its first occurrence
        declared = list(dict.fromkeys(sym for _, _, sym in self.op_decls))
        funcs = sorted(n for n, (a, k) in table.items()
                       if a > 0 and k == "function"
                       and n not in declared and n != NEG)
        for i, n in enumerate(funcs):
            prec[n] = 1000 + i
        for i, n in enumerate(declared):
            prec[n] = 2000 + i
        prec[NEG] = 3000
        return prec


def _definition_shape(f):
    """(kind, head symbol, params, body) when f reads f(x1..xk) = term or
    R(x1..xk) <-> formula over k >= 1 distinct variables, else None."""
    if f[0] == "atom" and f[1][0] == "=":
        kind, head, body = "function", f[1][1], f[1][2]
    elif f[0] == "iff" and f[1][0] == "atom" and f[1][1][0] != "=":
        kind, head, body = "relation", f[1][1], f[2]
    else:
        return None
    if head[0] == VAR:
        return None
    params = tuple(a[1] for a in head[1:] if a[0] == VAR)
    if not params or len(set(params)) != len(head) - 1:
        return None
    return kind, head[0], params, body


def merge_theories(theories):
    """Concatenate declarations, assumptions and goals, in order."""
    merged = Theory()
    for t in theories:
        for decl in t.op_decls:
            old = merged.declared(decl[2])
            if old is None:
                merged.op_decls.append(decl)
            elif old != (decl[0], decl[1]):
                raise TheoryError(
                    "operator %r redeclared as %r, was %r"
                    % (decl[2], (decl[0], decl[1]), old))
        merged.assumptions.extend(t.assumptions)
        merged.goals.extend(t.goals)
    merged.symbols()
    return merged


# ---------------------------------------------------------------------------
# tokenizer

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


def tokenize(text, extra_symbols=()):
    """Token stream of (kind, value, line, col); kind in
    {ident, str, sym, end}."""
    toks = []
    fixed = sorted(set(FIXED_TOKENS) | set(extra_symbols), key=len,
                   reverse=True)
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            toks.append(("str", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for f in fixed:
            if text.startswith(f, i):
                toks.append(("sym", f, line, col))
                i += len(f)
                col += len(f)
                break
        else:
            raise ParseError("unexpected character %r" % c, line, col)
    toks.append(("end", "", line, col))
    return toks


def _predeclared_symbols(text):
    """Scan op declarations so symbolic operators tokenize correctly."""
    return re.findall(r'op\s*\(\s*\d+\s*,\s*\w+\s*,\s*"([^"]+)"\s*\)', text)


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, toks, ops):
        self.toks = toks
        self.i = 0
        self.ops = dict(ops)  # symbol -> (precedence, fixity)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message):
        kind, val, line, col = self.peek()
        got = val if kind != "end" else "end of input"
        raise ParseError("%s (got %r)" % (message, got), line, col)

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value:
            self.error("expected %r" % value)
        return self.next()

    def at(self, value):
        return self.peek()[1] == value and self.peek()[0] != "str"

    # ---- terms

    def parse_term(self, max_prec=10**9):
        return self.parse_term_rest(self.parse_primary(), max_prec)

    def parse_term_rest(self, t, max_prec):
        while True:
            kind, val, _, _ = self.peek()
            op = self.ops.get(val)
            if op is None or op[1] != "infix" or op[0] > max_prec:
                return t
            self.next()
            rhs = self.parse_primary()
            rhs = self.parse_term_rest(rhs, op[0] - 1)
            t = (val, t, rhs)

    def parse_primary(self):
        kind, val, line, col = self.peek()
        if val == "(":
            self.next()
            t = self.parse_term()
            self.expect(")")
        elif kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = [self.parse_term()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                t = (val, *args)
            elif val[0] in VARIABLE_INITIALS:
                t = var(val)
            else:
                t = (val,)
        else:
            self.error("expected a term")
        while self.at("'"):
            self.next()
            t = (NEG, t)
        return t

    # ---- formulas

    RELOPS = ("=", "!=", ">=", "<=")

    def parse_formula(self):
        return self.parse_iff()

    def parse_iff(self):
        f = self.parse_imp()
        if self.at("<->"):
            self.next()
            return ("iff", f, self.parse_imp())
        return f

    def parse_imp(self):
        f = self.parse_or()
        if self.at("->"):
            self.next()
            return ("imp", f, self.parse_imp())
        return f

    def parse_or(self):
        f = self.parse_and()
        while self.at("|"):
            self.next()
            f = ("or", f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unit()
        while self.at("&"):
            self.next()
            f = ("and", f, self.parse_unit())
        return f

    def parse_unit(self):
        if self.at("-"):
            self.next()
            return ("not", self.parse_unit())
        if self.at("("):
            # could be a parenthesized term or a parenthesized formula
            save = self.i
            try:
                return self.parse_atom()
            except ParseError:
                self.i = save
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        return self.parse_atom()

    def parse_atom(self):
        lhs = self.parse_term()
        kind, val, line, col = self.peek()
        if val not in self.RELOPS:
            self.error("expected one of %s" % (", ".join(self.RELOPS)))
        self.next()
        rhs = self.parse_term()
        if val == "=":
            return ("atom", ("=", lhs, rhs))
        if val == "!=":
            return ("not", ("atom", ("=", lhs, rhs)))
        if val == ">=":
            return ("atom", (">=", lhs, rhs))
        return ("atom", (">=", rhs, lhs))  # a <= b  ==  b >= a

    # ---- top level

    def parse_theory(self):
        theory = Theory()
        while self.peek()[0] != "end":
            if self.at("op"):
                self.next()
                self.expect("(")
                kind, val, line, col = self.next()
                if not val.isdigit():
                    raise ParseError("expected precedence integer", line, col)
                prec = int(val)
                self.expect(",")
                kind, fixity, line, col = self.next()
                if fixity not in ("infix", "postfix"):
                    raise ParseError("unknown fixity %r" % fixity, line, col)
                self.expect(",")
                kind, sym, line, col = self.next()
                if kind not in ("str", "ident", "sym"):
                    raise ParseError("expected operator symbol", line, col)
                self.expect(")")
                self.expect(".")
                old = self.ops.get(sym)
                if old is not None and old != (prec, fixity):
                    raise TheoryError(
                        "operator %r redeclared as %r, was %r"
                        % (sym, (prec, fixity), old))
                theory.op_decls.append((prec, fixity, sym))
                if fixity == "infix":
                    self.ops[sym] = (prec, fixity)
            elif self.at("formulas"):
                self.next()
                self.expect("(")
                kind, which, line, col = self.next()
                if which not in ("assumptions", "goals"):
                    raise ParseError("expected assumptions or goals",
                                     line, col)
                self.expect(")")
                self.expect(".")
                target = (theory.assumptions if which == "assumptions"
                          else theory.goals)
                while not self.at("end_of_list"):
                    if self.peek()[0] == "end":
                        self.error("missing end_of_list")
                    target.append(self.parse_formula())
                    self.expect(".")
                self.expect("end_of_list")
                self.expect(".")
            else:
                self.error("expected op(...) or formulas(...)")
        return theory


def parse_source(text: str) -> Theory:
    ops = _predeclared_symbols(text)
    parser = _Parser(tokenize(text, ops), {})
    theory = parser.parse_theory()
    theory.symbols()  # arity/kind consistency check
    return theory


def parse_formula_text(text: str, theory: Theory):
    """Parse a single formula (no trailing dot) in a theory's operator
    context."""
    ops = {sym: (prec, fixity) for prec, fixity, sym in theory.op_decls}
    parser = _Parser(tokenize(text, list(ops)), ops)
    f = parser.parse_formula()
    if parser.peek()[0] != "end":
        parser.error("trailing input after formula")
    return f


def parse_term_text(text: str, theory: Theory):
    ops = {sym: (prec, fixity) for prec, fixity, sym in theory.op_decls}
    parser = _Parser(tokenize(text, list(ops)), ops)
    t = parser.parse_term()
    if parser.peek()[0] != "end":
        parser.error("trailing input after term")
    return t


# ---------------------------------------------------------------------------
# printing

def render_term(t, theory: Theory, parent_prec=10**9, right=False) -> str:
    if t[0] == VAR:
        return t[1]
    if t[0] == NEG:
        arg = t[1]
        inner = render_term(arg, theory)
        if arg[0] != VAR and len(arg) > 1 and arg[0] != NEG:
            inner = "(" + inner + ")"
        return inner + "'"
    decl = theory.declared(t[0])
    if decl is not None and len(t) == 3:
        prec = decl[0]
        s = "%s %s %s" % (render_term(t[1], theory, prec, False), t[0],
                          render_term(t[2], theory, prec, True))
        if prec > parent_prec or (prec == parent_prec and right):
            return "(" + s + ")"
        return s
    if len(t) == 1:
        return t[0]
    return "%s(%s)" % (t[0], ", ".join(render_term(a, theory) for a in t[1:]))


_CONNECTIVE_PREC = {"iff": 4, "imp": 3, "or": 2, "and": 1}


def render_formula(f, theory: Theory, parent_prec=10**9) -> str:
    tag = f[0]
    if tag == "atom":
        atom = f[1]
        if atom[0] == "=":
            return "%s = %s" % (render_term(atom[1], theory),
                                render_term(atom[2], theory))
        return "%s %s %s" % (render_term(atom[1], theory), atom[0],
                             render_term(atom[2], theory))
    if tag == "not":
        inner = f[1]
        if inner[0] == "atom" and inner[1][0] == "=":
            return "%s != %s" % (render_term(inner[1][1], theory),
                                 render_term(inner[1][2], theory))
        return "-(%s)" % render_formula(inner, theory)
    symbol = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[tag]
    prec = _CONNECTIVE_PREC[tag]
    s = "%s %s %s" % (render_formula(f[1], theory, prec - 1), symbol,
                      render_formula(f[2], theory, prec))
    if prec > parent_prec:
        return "(" + s + ")"
    return s


def render_theory(theory: Theory) -> str:
    lines = []
    for prec, fixity, sym in theory.op_decls:
        lines.append('op(%d, %s, "%s").' % (prec, fixity, sym))
    if theory.assumptions:
        lines.append("formulas(assumptions).")
        for f in theory.assumptions:
            lines.append("   %s." % render_formula(f, theory))
        lines.append("end_of_list.")
    if theory.goals:
        lines.append("formulas(goals).")
        for f in theory.goals:
            lines.append("   %s." % render_formula(f, theory))
        lines.append("end_of_list.")
    return "\n".join(lines) + "\n"


def render_model(m) -> str:
    """Operation and relation tables in the row/column layout of the usual
    model-finder output."""
    n = m.size
    width = len(str(n - 1))
    def cell(v):
        return str(v).rjust(width)
    blocks = []
    for name in m.constant_names():
        blocks.append(" %s : %s\n" % (name, m.constants[name]))
    for name in m.function_names():
        table = m.fun_tables[name]
        blocks.append(_render_table(name, table, n, cell))
    for name in m.relation_names():
        table = m.rel_tables[name]
        as_int = tuple(tuple(int(v) for v in row) for row in table)
        blocks.append(_render_table(name, as_int, n, cell))
    return "\n".join(blocks)


def _render_table(name, table, n, cell):
    lines = [" %s :" % name]
    if isinstance(table[0], tuple):
        header = "    %s | %s" % (" " * len(cell(0)),
                                  " ".join(cell(j) for j in range(n)))
        lines.append(header)
        lines.append("    %s-+-%s" % ("-" * len(cell(0)),
                                      "-" * (len(header) - len(cell(0)) - 7)))
        for i in range(n):
            lines.append("    %s | %s" % (cell(i),
                                          " ".join(cell(v) for v in table[i])))
    else:
        lines.append("      %s" % " ".join(cell(v) for v in table))
    return "\n".join(lines) + "\n"
