"""The three workloads: fixed job lists with known answers.

build(workload, hl, t, root) does the workload's set-up and returns its
jobs as (job id, run) pairs; run(t) returns True when the job reached a
verdict within its budget, False when a deterministic budget stopped it,
and raises Wrong for a wrong answer.  Every verdict is fixed by a count
(max_given, model counts), never by a clock.
"""

import os
import subprocess
import sys
from importlib import resources

import answers as A
from spans import clock

# Given-clause budget of every prover job.  At 70 the prover spends about
# 0.4 s on a typical corpus lemma and reaches the proofs of hp-plus-mono
# and hp-sum-lemma (which take 67 and 65 given clauses at the parent).
MAX_GIVEN = 70

# The CLI's own wall-clock limit is set far beyond any run's length so
# that --max-given alone decides the CLI's prover verdicts.
CLI_PROVER_BUDGET = ["--max-given", str(MAX_GIVEN), "--max-seconds", "3600"]


class Wrong(Exception):
    """A job produced a wrong answer."""


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def build(workload, hl, t, root):
    return {"models": models_jobs, "prove": prove_jobs,
            "cli": cli_jobs}[workload](hl, t, root)


# ---------------------------------------------------------------------------
# shared set-up

def parse_files(hl, t, names):
    """Parse data files by concatenation, as multi-file CLI runs do."""
    data = resources.files("hooplab") / "data"
    text = "\n".join((data / n).read_text() for n in names)
    return t.call("syntax.parse_source", hl.parse_source, text)


def load_corpus(hl, t):
    """name -> (record, statement, chain), loaded once in set-up."""
    def load():
        return {r.name: (r, r.statement, r.chain) for r in hl.lemma_corpus()}
    corpus = t.call("chains.lemma_corpus", load)
    expect(len(corpus) == A.CORPUS_SIZE, "corpus has %d lemmas" % len(corpus))
    return corpus


def search(hl, t, theory, opts, limit=None):
    """Models of theory at opts.size, timing the search from outside."""
    t.count("search.enumerate_models.calls")
    start = clock()
    it = t.call("search.enumerate_models", hl.enumerate_models, theory, opts)
    found = []
    for m in t.iterate("search.enumerate_models", it):
        if not found:
            t.count("search.first_model_s", clock() - start)
        found.append(m)
        if len(found) == limit:
            break
    t.count("search.models", len(found))
    return found


# ---------------------------------------------------------------------------
# models: searcher-heavy, prover idle

def compositions(n):
    """All [m1..mk] with every mi >= 2 and sum(mi) - k + 1 = n."""
    if n == 1:
        yield []
        return
    for first in range(2, n + 1):
        if first == n:
            yield [n]
        else:
            for rest in compositions(n - first + 1):
                if rest:
                    yield [first] + rest


def models_jobs(hl, t, root):
    th = {name: parse_files(hl, t, files)
          for name, files in A.THEORY_FILES.items() if name != "hoop_defs"}
    corpus = load_corpus(hl, t)
    statements = [(name, stmt) for name, (_, stmt, _) in corpus.items()]
    hoop_axioms = th["hoop"].assumptions
    ax6 = hoop_axioms[5]   # x + (y ~ x) = y + (x ~ y)
    goals = {files: parse_files(hl, t, files) for files in A.COUNTERMODELS}

    def check_corpus(t, m, label):
        d = t.call("hoops.derived_tables", hl.derived_tables, m)
        for name, stmt in statements:
            expect(t.call("model.satisfies", d.satisfies, stmt),
                   "%s fails in %s" % (name, label))

    def count_job(name, n):
        def run(t):
            found = search(hl, t, th[name], hl.SearchOptions(n, upto_iso=True))
            want = A.ISO_COUNTS[name].get(n)
            expect(want is None or len(found) == want,
                   "%d %s models of size %d, want %s"
                   % (len(found), name, n, want))
            if name == "hoop":   # here, so size-5 hoops are searched once
                for i, m in enumerate(found):
                    check_corpus(t, m, "hoop %d of size %d" % (i, n))
            elif name == "pocrim":
                check_pocrim_hoops(t, found, n)
            return True
        return run

    def check_pocrim_hoops(t, found, n):
        keys = set()
        for m in found:
            core = hl.FiniteModel(m.size, dict(m.constants), dict(m.fun_tables))
            if not t.call("model.satisfies", core.satisfies, ax6):
                continue
            for f in hoop_axioms:
                expect(t.call("model.satisfies", core.satisfies, f),
                       "a pocrim with axiom 6 is not a hoop")
            keys.add(t.call("model.canonical_form",
                            lambda: core.canonical_form().encode()))
        # as many distinct hoops as there are hoops: exactly the hoops
        expect(len(keys) == A.POCRIM_HOOP_PART[n],
               "%d pocrims of size %d satisfy axiom 6, want %d"
               % (len(keys), n, A.POCRIM_HOOP_PART[n]))

    def labelled_job(t):
        found = search(hl, t, th["hoop"], hl.SearchOptions(4))
        expect(len(found) == A.LABELLED_HOOPS_4,
               "%d labelled hoops of size 4" % len(found))
        return True

    def countermodel_job(files, n, want):
        theory = goals[files]

        def run(t):
            found = search(hl, t, theory, hl.SearchOptions(
                n, upto_iso=True, max_models=1), limit=1)
            expect(bool(found) == want, "%s at size %d: found=%s"
                   % (files[-1], n, bool(found)))
            for m in found:
                for f in theory.assumptions:
                    expect(t.call("model.satisfies", m.satisfies, f),
                           "countermodel breaks an assumption")
                for g in theory.goals:
                    expect(not t.call("model.satisfies", m.satisfies, g),
                           "countermodel satisfies the goal")
            return True
        return run

    def corpus_job(label, construct):
        def run(t):
            check_corpus(t, t.call("hoops.construct", construct), label)
            return True
        return run

    def osum(ms):
        return hl.ordinal_sum_many(hl.lukasiewicz(m) for m in ms)

    def classification_job(n):
        def run(t):
            keys = set()
            for ms in compositions(n):
                h = t.call("hoops.construct", osum, ms)
                got = t.call("hoops.decompose_linear", hl.decompose_linear, h)
                expect(got == ms, "decompose_linear gave %s for %s" % (got, ms))
                keys.add(t.call("model.canonical_form",
                                lambda: h.canonical_form().encode()))
                t.mark()
            expect(len(keys) == A.LINEAR_CLASSES[n],
                   "%d linear classes of size %d" % (len(keys), n))
            return True
        return run

    jobs = []
    for name in ("hoop", "hoop_linear", "semilattice", "semilattice_ge",
                 "pocrim"):
        for n in A.SIZES:
            jobs.append(("enumerate %s %d" % (name, n), count_job(name, n)))
    jobs.append(("labelled hoop 4", labelled_job))
    for files, sizes in A.COUNTERMODELS.items():
        for n, want in sizes.items():
            jobs.append(("countermodel %s %d" % (files[-1], n),
                         countermodel_job(files, n, want)))
    for n in A.CORPUS_CHAINS:
        jobs.append(("corpus L%d" % n,
                     corpus_job("L_%d" % n, lambda n=n: hl.lukasiewicz(n))))
    jobs.append(("corpus L3^L3", corpus_job("L_3^L_3", lambda: hl.ordinal_sum(
        hl.lukasiewicz(3), hl.lukasiewicz(3)))))
    jobs.append(("corpus L2xL3", corpus_job("L_2xL_3", lambda: hl.direct_product(
        hl.lukasiewicz(2), hl.lukasiewicz(3)))))
    for n in A.LINEAR_CLASSES:
        jobs.append(("classify linear %d" % n, classification_job(n)))
    return jobs


# ---------------------------------------------------------------------------
# prove: prover-heavy, searcher idle

def prove_jobs(hl, t, root):
    corpus = load_corpus(hl, t)
    base = parse_files(hl, t, A.THEORY_FILES["hoop_defs"])

    def lemma_theory(dep_names, goal):
        """The hoop definitions plus the named corpus statements."""
        return hl.Theory(op_decls=list(base.op_decls),
                         assumptions=list(base.assumptions)
                         + [corpus[d][1] for d in dep_names if d in corpus],
                         goals=[goal])

    def prover_job(theory, canary):
        def run(t):
            given = [0]

            def should_stop():
                given[0] += 1
                return False

            out = t.call("saturate.prove", hl.prove, theory,
                         hl.ProverLimits(max_given=MAX_GIVEN), should_stop)
            t.count("saturate.given", given[0])
            if out.status == "proved":
                expect(not canary, "a non-theorem came back Proved")
                t.count("saturate.given_to_proof", given[0])
                t.count("saturate.proof_steps", len(out.proof.steps))
                text = t.call("saturate.render_proof", hl.render_proof,
                              out.proof, theory)
                proof = t.call("saturate.parse_proof", hl.parse_proof, text,
                               theory)
                ok, report = t.call("saturate.verify_proof", hl.verify_proof,
                                    theory, proof)
                expect(ok, "proof fails verification: %s" % report)
                return True
            if out.status == "exhausted":
                expect(canary, "Exhausted on a theorem")
                return True
            expect(out.which == "max_given", "stopped by %s" % out.which)
            return False
        return run

    def chain_job(name):
        record, _, chain = corpus[name]

        def run(t):
            ok, why = t.call("chains.verify_chain_report",
                             hl.verify_chain_report, record,
                             record.depends_on)
            expect(ok, "chain %s rejected: %s" % (name, why))
            t.count("chains.links", len(chain) - 1)
            return True
        return run

    jobs = []
    for files in A.PROVER_GOALS:
        jobs.append(("prove %s" % files[-1],
                     prover_job(parse_files(hl, t, files), False)))
    for files in A.CANARIES:
        jobs.append(("canary %s" % files[-1],
                     prover_job(parse_files(hl, t, files), True)))
    for name, (record, stmt, _) in corpus.items():
        jobs.append(("lemma %s" % name,
                     prover_job(lemma_theory(record.depends_on, stmt), False)))
    # each derive link posed exactly as the chain verifier poses it
    for name in A.DERIVE_LINK_LEMMAS:
        chain = corpus[name][2]
        for i, (term, _, just) in enumerate(chain[1:], start=1):
            if just.kind != "derive":
                continue
            prev = chain[0] if i == 1 else chain[i - 1][0]
            goal = ("atom", ("=", prev, term))
            jobs.append(("derive %s line %d" % (name, i + 1),
                         prover_job(lemma_theory(just.refs, goal), False)))
    for name in A.CHAINS_OK:
        jobs.append(("chain %s" % name, chain_job(name)))
    return jobs


# ---------------------------------------------------------------------------
# cli: start-up-heavy; every command is a fresh interpreter

def cli_jobs(hl, t, root):
    tmp = os.path.join(root, "bench", "out", "cli-tmp")
    os.makedirs(tmp, exist_ok=True)
    model = os.path.join(tmp, "l4.model")
    proof = os.path.join(tmp, "hp-plus-mono.proof")
    mono = ["-f", "hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cli(t, *args):
        """Run one command; return stdout lines after checking exit 0."""
        res = t.call("cli." + args[0], subprocess.run,
                     [sys.executable, "-m", "hooplab.cli", *args], cwd=root,
                     env=env, capture_output=True, text=True, timeout=120)
        expect(res.returncode == 0, "hooplab %s exited %d: %s"
               % (" ".join(args), res.returncode, res.stderr.strip()))
        t.mark()
        return res.stdout.splitlines()

    def parse(t):
        lines = cli(t, "parse", "-f", "hoop.ax")
        expect("formulas(assumptions)." in lines, "parse printed no theory")
        return True

    def construct_osum(t):
        text = "\n".join(cli(t, "construct", "--osum", "2,3", "--derived"))
        for op in ("cup", "cap", "nand", "neg", ">="):
            expect(" %s :" % op in text, "construct printed no %s table" % op)
        return True

    def construct_check(t):
        lines = cli(t, "construct", "--ln", "4", "--format", "compact")
        expect(len(lines) == 1 and lines[0].startswith("4 ;"),
               "construct --ln 4 printed %r" % lines)
        with open(model, "w") as fh:
            fh.write(lines[0] + "\n")
        lines = cli(t, "check", "--model", model, "-f", "hoop.ax")
        expect(lines[-1] == A.CLI_CHECK_OK, "check printed %r" % lines[-1])
        return True

    def enumerate_(t):
        lines = cli(t, "enumerate", "--builtin", "hoop", "--size", "4",
                    "--iso")
        expect(lines[-1] == A.CLI_ENUMERATE_HOOP_4,
               "enumerate printed %r" % lines[-1])
        return True

    def prove_pr1(t):
        lines = cli(t, "prove", "-f", "semilattice.ax", "sl-pr1.gl",
                    *CLI_PROVER_BUDGET)
        expect(lines[0] == A.CLI_PROVED, "prove printed %r" % lines[0])
        return True

    def prove_verify_mine(t):
        lines = cli(t, "prove", *mono, "--proof-out", proof,
                    *CLI_PROVER_BUDGET)
        expect(lines[0] == A.CLI_PROVED, "prove printed %r" % lines[0])
        lines = cli(t, "verify", "--proof", proof, *mono)
        expect(lines == [A.CLI_PROOF_VERIFIED], "verify printed %r" % lines)
        lines = cli(t, "mine", "--proof", proof, *mono)
        expect(lines and all(int(ln.split("\t")[0]) >= 2 for ln in lines),
               "mine printed %r" % lines[:3])
        return True

    def lemmas(t):
        lines = cli(t, "lemmas")
        expect(len(lines) == A.CORPUS_SIZE, "lemmas printed %d lines"
               % len(lines))
        return True

    def check_models(t):
        lines = cli(t, "lemmas", "--check-models", "4")
        expect(lines == [A.CLI_CHECK_MODELS_4], "lemmas --check-models 4 "
               "printed %r" % lines)
        return True

    return [("cli parse", parse), ("cli construct osum", construct_osum),
            ("cli construct+check", construct_check),
            ("cli enumerate", enumerate_), ("cli prove sl-pr1", prove_pr1),
            ("cli prove+verify+mine", prove_verify_mine),
            ("cli lemmas", lemmas), ("cli check-models", check_models)]
