"""Chain verifier and the transcribed lemma corpus."""

import functools
import io

import pytest

from hooplab import chains, cli, saturate
from hooplab.chains import (
    ChainError, LemmaRecord, acnorm, en, expand, lemma_corpus, parse_chain,
    verify_chain, verify_chain_report, zreduce,
)
from hooplab.hoops import (
    builtin_theory, derived_tables, lukasiewicz, name_property,
)
from hooplab.model import serialize_model
from hooplab.search import SearchOptions, enumerate_models
from hooplab.terms import term_vars

CORPUS = {r.name: r for r in lemma_corpus()}

# chains that must verify as stored and fail when any term is mutated
SPEC_CHAINS = ["AA", "MNA", "NPJSSO", "NSNSM", "NNSSNN", "SNNNO",
               "SSNNSNO", "MPS", "NSPJN", "PPMD", "NPNPM", "JNND",
               "SNNNPN", "NNSNNSNN"]


# ---------------------------------------------------------------------------
# normal forms

def test_expand_unfolds_derived_ops():
    t = chains.expand(("cup", ("V", "x"), ("V", "y")))
    assert t == ("+", ("V", "x"), ("~", ("V", "y"), ("V", "x")))
    # nand unfolds through neg
    t2 = chains.expand(("nand", ("V", "x"), ("V", "y")))
    assert "nand" not in str(t2) and "neg" not in str(t2)


def test_acnorm_sorts_and_flattens():
    a, b, c = ("V", "x"), ("V", "y"), ("V", "z")
    left = ("+", ("+", a, b), c)
    right = ("+", c, ("+", b, a))
    assert acnorm(left) == acnorm(right)
    assert acnorm(left)[0] == "+"
    assert len(acnorm(left)) == 4


def test_zreduce_erases_known_zero_summands():
    x = ("V", "x")
    t = acnorm(("+", x, ("~", x, x)))
    assert zreduce(t) == x
    # (y ~ x) ~ x' vanishes because x' >= y ~ x fails but 1~x >= y~x holds
    one_minus = ("~", ("1",), x)
    inner = ("~", ("V", "y"), x)
    assert zreduce(("~", inner, one_minus)) == ("0",)


def test_base_engine_facts():
    g = chains._Geq(())
    x, y = ("V", "x"), ("V", "y")
    one, zero = ("1",), ("0",)
    assert g.geq(x, x)
    assert g.geq(x, zero)
    assert g.geq(one, y)
    assert g.geq(acnorm(("+", x, y)), x)
    assert g.geq(x, ("~", x, y))
    # residuation: x + x' >= 1
    assert g.geq(acnorm(("+", x, ("~", one, x))), one)
    # not everything is provable
    assert not g.geq(x, y)
    assert not g.geq(x, one)


# ---------------------------------------------------------------------------
# corpus shape

def test_corpus_contents():
    assert len(CORPUS) == 24
    assert CORPUS["AA"].statement_text == "x nand y = y nand x"
    assert CORPUS["SNNNO"].statement_text == "(x ~ x'')' = 1"
    assert CORPUS["SNNNO"].depends_on == ("NNSSNN", "NPJSSO")
    assert CORPUS["basic_v"].chain is None


def test_dependency_graph_acyclic_and_closed():
    seen = set()
    for record in lemma_corpus():
        for dep in record.depends_on:
            assert dep in seen or dep == "PNSSNNO", \
                "%s depends on %s out of order" % (record.name, dep)
        seen.add(record.name)


def test_names_match_nomenclature():
    for record in lemma_corpus():
        if record.name.startswith("basic_") or "=" not in \
                record.statement_text:
            continue
        assert name_property(record.statement) == record.name


def test_statements_hold_in_l5():
    d = derived_tables(lukasiewicz(5))
    m = _with_ascii_aliases(d)
    for record in lemma_corpus():
        assert m.satisfies(record.statement), record.name


def _with_ascii_aliases(d):
    return d


def test_chain_links_hold_in_small_hoops():
    # every link states a law of hoops, whatever its justification (derive
    # and lemma links included), so it holds in each of the 19 hoops up to
    # size 5; a <= link is checked as >= with its sides swapped
    hoops = [derived_tables(m) for n in range(1, 6)
             for m in enumerate_models(builtin_theory("hoop"),
                                       SearchOptions(n, upto_iso=True))]
    assert len(hoops) == 19
    checks = 0
    for record in lemma_corpus():
        chain = record.chain
        if chain is None:
            continue
        prev = chain[0]
        for line, (term, rel, _) in enumerate(chain[1:], start=2):
            atom = (">=", term, prev) if rel == "<=" else (rel, prev, term)
            for d in hoops:
                assert d.satisfies(("atom", atom)), \
                    (record.name, line, serialize_model(d))
                checks += 1
            prev = term
    assert checks == 2166


# ---------------------------------------------------------------------------
# verification of the transcribed chains

def test_all_chains_verify_with_declared_context():
    for record in lemma_corpus():
        if record.chain is None:
            continue
        ok, why = verify_chain_report(record, record.depends_on)
        assert ok, "%s: %s" % (record.name, why)


def test_spec_example_aa_empty_context():
    assert verify_chain("AA", ())
    assert len(CORPUS["AA"].chain) == 8  # first term + 7 links


def test_spec_example_nnsnnsnn():
    assert verify_chain("NNSNNSNN", ("basic_vi", "SSNNSNO", "NSNSM"))
    assert len(CORPUS["NNSNNSNN"].chain) == 6  # the 5-line proof


def test_missing_dependency_rejected():
    ok, why = verify_chain_report("MNMN", ())
    assert not ok
    assert "context" in why


def test_mna_swap_mutation_rejected():
    text = _chain_text("MNA").replace(
        "(x ~ y) + (((x cap y)') ~ (x ~ y))",
        "(x ~ y) + (((y cap x)') ~ (x ~ y))")
    assert not _verify_text("MNA", text, ())


# ---------------------------------------------------------------------------
# systematic single-term mutations

def _chain_text(name):
    from importlib import resources
    return (resources.files("hooplab") / "data" / "chains"
            / (name + ".chain")).read_text()


def _report_text(name, text, context):
    """(ok, reason) of lemma name's statement with the chain text."""
    record = CORPUS[name]
    mutated = parse_chain(text)

    class _R:
        pass

    r = _R()
    r.name = record.name
    r.statement = record.statement
    r.chain = mutated
    return chains._Verifier(context).verify(r)


def _verify_text(name, text, context):
    return _report_text(name, text, context)[0]


def _mutate_term(t):
    """A canonical semantics-changing mutation of a term, or None."""
    candidates = []

    def swap_noncomm(u):
        if u[0] in ("~", "\\", "cap", "nand") and len(u) == 3:
            return (u[0], u[2], u[1])
        if len(u) > 1 and u[0] != "V":
            for i in range(1, len(u)):
                s = swap_noncomm(u[i])
                if s is not None:
                    return u[:i] + (s,) + u[i + 1:]
        return None

    s = swap_noncomm(t)
    if s is not None:
        candidates.append(s)
    vs = sorted(term_vars(t))
    if len(vs) >= 2:
        from hooplab.terms import substitute
        swap = {vs[0]: ("V", vs[1]), vs[1]: ("V", vs[0])}
        candidates.append(substitute(t, swap))
    for c in candidates:
        if zreduce(en(c)) != zreduce(en(t)):
            return c
    return None


def _render_just(j):
    if not j.refs:
        return j.kind
    return "%s(%s)" % (j.kind, ", ".join(str(r) for r in j.refs))


def _chain_to_text(chain, defs, replace_at=None, replacement=None):
    from hooplab.syntax import render_term
    lines = []
    for i, entry in enumerate(chain):
        term = entry if i == 0 else entry[0]
        if i == replace_at:
            term = replacement
        if i == 0:
            lines.append(render_term(term, defs))
        else:
            lines.append("%s\t%s\t%s" % (render_term(term, defs),
                                         entry[1], _render_just(entry[2])))
    return "\n".join(lines)


def test_rendered_chains_reverify():
    defs = builtin_theory("hoop_defs")
    for name in SPEC_CHAINS:
        record = CORPUS[name]
        text = _chain_to_text(record.chain, defs)
        assert _verify_text(name, text, record.depends_on), name


def test_each_single_term_mutation_rejected():
    # a mutation must be caught where it is made, not by some other link
    # that fails anyway
    defs = builtin_theory("hoop_defs")
    for name in SPEC_CHAINS:
        record = CORPUS[name]
        chain = record.chain
        mutated_any = False
        for i, entry in enumerate(chain):
            term = entry if i == 0 else entry[0]
            mut = _mutate_term(term)
            if mut is None:
                continue
            text = _chain_to_text(chain, defs, replace_at=i,
                                  replacement=mut)
            assert _rejected_near(record, parse_chain(text), i), \
                "%s line %d mutation accepted" % (name, i + 1)
            mutated_any = True
        assert mutated_any, name


def _rejected_near(record, chain, i):
    """True when a link next to term i of chain, or for an end term the
    entailment check, rejects the chain."""
    verifier = chains._Verifier(record.depends_on)
    terms = [en(chain[0])] + [en(entry[0]) for entry in chain[1:]]

    def link_fails(k):   # the link from term k - 1 to term k, on line k + 1
        _, rel, just = chain[k]
        try:
            return not verifier.check_link(terms[k - 1], terms[k], rel, just,
                                           record.name, k + 1)
        except ChainError:
            return True

    if any(link_fails(k) for k in (i, i + 1) if 1 <= k < len(chain)):
        return True
    if i in (0, len(chain) - 1):
        ok, _ = verifier.entails(record, terms,
                                 [entry[1] for entry in chain[1:]])
        return not ok
    return False


# ---------------------------------------------------------------------------
# derive links and their proof certificates

# MNMN's statement as one derive link from MNA and AA
MNMN_DERIVE = "(x cap y)'\n(y cap x)'\t=\tderive(MNA, AA)\n"


def _certificate(folder, names, goal, max_given):
    """The prover's proof of goal from the lemmas names, made by the recipe
    the README gives for a certificate."""
    link = folder / "LINK.p"
    link.write_text(
        "formulas(assumptions).\n%send_of_list.\n"
        "formulas(goals).\n   %s.\nend_of_list.\n"
        % ("".join("   %s.\n" % CORPUS[n].statement_text for n in names),
           goal))
    proof = folder / "LINK.proof"
    code = cli.main(["prove", "-f", "hoop.ax", "hoop-ge-def.ax",
                     "hoop-defs.ax", str(link), "--max-given", str(max_given),
                     "--proof-out", str(proof)], out=io.StringIO())
    assert code == 0
    return proof.read_text()


@pytest.fixture(scope="module")
def mnmn_certificate(tmp_path_factory):
    """The prover's proof of the MNMN_DERIVE link."""
    return _certificate(tmp_path_factory.mktemp("certificate"),
                        ("MNA", "AA"), CORPUS["MNMN"].statement_text, 70)


def test_shipped_certificate_is_the_recipes(tmp_path):
    """NNSNNSNN's derive link (line 2 of its chain) ships the proof that
    the README's recipe writes, byte for byte."""
    made = _certificate(tmp_path, ("basic_vi", "SSNNSNO", "NSNSM"),
                        "x'' ~ y'' = (x'' ~ y)''", 200)
    assert chains.proof_certificate("NNSNNSNN", 2) == made


def test_derive_link_accepted_with_its_certificate(monkeypatch,
                                                   mnmn_certificate):
    monkeypatch.setattr(chains, "proof_certificate", lambda lemma, line:
                        mnmn_certificate if (lemma, line) == ("MNMN", 2)
                        else None)
    assert _report_text("MNMN", MNMN_DERIVE, ("MNA", "AA")) == (True, "ok")
    # the goal may state the link's two sides in either order
    flipped = "(y cap x)'\n(x cap y)'\t=\tderive(MNA, AA)\n"
    assert _report_text("MNMN", flipped, ("MNA", "AA")) == (True, "ok")


def _corrupt_step(text):
    """The proof with the clause of its second-to-last step replaced."""
    lines = text.splitlines()
    step_id, rest = lines[-2].split(" ", 1)
    lines[-2] = "%s x = y%s" % (step_id, rest[rest.index(".  ["):])
    return "\n".join(lines) + "\n"


def _add_assumption(text):
    """The proof with one more assumption step, put before its last step."""
    lines = text.splitlines()
    fresh = max(int(line.split(" ", 1)[0]) for line in lines) + 1
    lines.insert(-1, "%d x + y = x.  [assumption]." % fresh)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lemma,change,cause", [
    ("NNSNNSNN", None, "does not prove this link"),
    ("MNMN", _corrupt_step, "rejected: step"),
    ("MNMN", _add_assumption, "not a theory assumption"),
    ("MNMN", lambda text: "1 garbage", "unreadable"),
    ("MNMN", lambda text: None,
     "no proof certificate data/proofs/MNMN.2.proof"),
])
def test_derive_link_rejects_wrong_certificates(monkeypatch, mnmn_certificate,
                                                lemma, change, cause):
    text = change(mnmn_certificate) if change else mnmn_certificate
    # served for every link, so NNSNNSNN's line 2 gets MNMN's certificate
    monkeypatch.setattr(chains, "proof_certificate", lambda *link: text)
    if lemma == "MNMN":
        ok, why = _report_text("MNMN", MNMN_DERIVE, ("MNA", "AA"))
    else:
        ok, why = verify_chain_report(lemma, CORPUS[lemma].depends_on)
    assert not ok
    assert "line 2 of %s" % lemma in why and cause in why, why


def test_chain_verification_never_runs_the_prover(monkeypatch):
    def no_prover(*args, **kwargs):
        raise AssertionError("the chain verifier ran the prover")

    monkeypatch.setattr(saturate, "prove", no_prover)
    verdicts = {record.name: verify_chain_report(record, record.depends_on)
                for record in lemma_corpus() if record.chain is not None}
    rejected = sorted(n for n, (ok, _) in verdicts.items() if not ok)
    assert rejected == ["PNNNNPNN"]
    assert len(verdicts) - len(rejected) == 22
    for name in rejected:
        assert "no proof certificate" in verdicts[name][1]


def test_each_record_parses_once(monkeypatch):
    """Verifying every transcribed chain, the cited statements and the
    helper's included, parses each record's statement and chain at most
    once."""
    parses = {}

    def counting(fn):
        def wrapper(text, *args):
            parses[fn, text] = parses.get((fn, text), 0) + 1
            return fn(text, *args)
        return wrapper

    monkeypatch.setattr(chains, "parse_formula_text",
                        counting(chains.parse_formula_text))
    monkeypatch.setattr(chains, "parse_chain", counting(chains.parse_chain))
    # fresh records, so that every parse happens under the counters
    monkeypatch.setattr(chains, "_registry",
                        functools.lru_cache()(chains._registry.__wrapped__))
    for record in lemma_corpus():
        if record.chain is not None:
            verify_chain_report(record, record.depends_on)
    assert len(parses) > len(lemma_corpus())
    assert max(parses.values()) == 1


# ---------------------------------------------------------------------------
# chain file handling

def test_parse_chain_errors():
    with pytest.raises(ChainError):
        parse_chain("")
    with pytest.raises(ChainError):
        parse_chain("x\nx\t=\tguesswork")
    with pytest.raises(ChainError):
        parse_chain("x\nx\t~\taxiom(3)")
    with pytest.raises(ChainError):
        parse_chain("x\nx\t=\taxiom(nine)")


def test_helper_is_not_citable_as_context_free_lemma():
    # PNSSNNO is an internal helper: chains may cite it and it is then
    # verified from its own chain, which itself must check
    ok, why = verify_chain_report("NNSSNN", ())
    assert ok, why


def test_lemma_theory():
    record = CORPUS["SNNNO"]
    th = chains.lemma_theory(record.depends_on, record.statement)
    base = builtin_theory("hoop_defs").assumptions
    assert th.assumptions == base + [CORPUS["NNSSNN"].statement,
                                     CORPUS["NPJSSO"].statement]
    assert th.goals == [record.statement]
    # helpers are named statements too
    th = chains.lemma_theory(("PNSSNNO",), record.statement)
    assert len(th.assumptions) == len(base) + 1
    with pytest.raises(ChainError):
        chains.lemma_theory(("NNSSNN", "NO_SUCH_LEMMA"), record.statement)


def test_verify_chain_accepts_record_objects():
    rec = CORPUS["MPS"]
    assert verify_chain(rec, ())


def test_each_verifier_has_its_own_memos():
    v = chains._Verifier(())
    assert v.verify(CORPUS["AA"]) == (True, "ok")
    assert v.base.zmemo
    assert chains._Verifier(()).base.zmemo == {}


def test_statements_parse_as_formulas():
    def statement(text):
        return chains.LemmaRecord("T", text).statement

    assert statement("y <= x + y") == statement("x + y >= y")
    assert statement("x != y") == ("not", statement("x = y"))
