"""Command-line surface.

    hooplab parse -f FILES...
    hooplab enumerate (--theory FILE | --builtin NAME) --size N [--iso] ...
    hooplab prove -f FILES... [--max-seconds S] [--max-given G] ...
    hooplab verify --proof PATH -f FILES...
    hooplab mine --proof PATH -f FILES... [--min-count C] [--min-size Z]
    hooplab construct (--ln N | --osum SPEC | --product SPEC) [--derived]
    hooplab lemmas [--verify-chains | --check-models N | --prove NAME]
    hooplab check --model PATH -f FILES...

Exit codes: 0 proved / models found / checks passed; 1 search exhausted or
a check failed; 2 resource limit hit or incomplete prover search; 3 usage
or parse error.  Lines
starting with "# " are metadata; everything else is the primary output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import syntax

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3

DEFAULT_MAX_SECONDS = 60.0
DEFAULT_MAX_GIVEN = 100000


class UsageError(Exception):
    pass


def _read_input(path):
    """Read a file; unqualified names fall back to the bundled data dir."""
    if not os.path.exists(path) and os.sep not in path:
        bundled = syntax.data_text(path)
        if bundled is not None:
            return bundled
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e))


def _load_theory(paths):
    """Merge theory files by concatenation, so later files see earlier
    operator declarations (mirrors multi-file prover invocations)."""
    if not paths:
        raise UsageError("no theory files given")
    text = "\n".join(_read_input(p) for p in paths)
    try:
        return syntax.parse_source(text)
    except (syntax.ParseError, syntax.TheoryError) as e:
        raise UsageError("parse error: %s" % e)


def _print_model(m, fmt, out):
    from .model import serialize_model
    if fmt == "compact":
        out.write(serialize_model(m) + "\n")
    else:
        out.write(syntax.render_model(m) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_parse(args, out):
    out.write(syntax.render_theory(_load_theory(args.files)))
    return EXIT_OK


def cmd_enumerate(args, out):
    from . import hoops, search
    if args.builtin:
        theory = hoops.builtin_theory(args.builtin)
    else:
        theory = _load_theory([args.theory])
    opts = search.SearchOptions(args.size, upto_iso=args.iso,
                                max_models=args.max_models,
                                max_seconds=args.max_seconds)
    count = 0
    limit = None
    try:
        for m in search.enumerate_models(theory, opts):
            count += 1
            out.write("# model %d\n" % count)
            _print_model(m, args.format, out)
    except search.SearchLimit as e:
        limit = e
    out.write("models: %d\n" % count)
    if limit is not None:
        st = limit.stats
        out.write("# limit: %s after %d decisions, %d conflicts, %d leaves\n"
                  % (limit.limit, st.decisions, st.conflicts, st.leaves))
        return EXIT_LIMIT
    return EXIT_OK if count else EXIT_FAIL


def _run_prover(theory, args, out, proof_sink):
    """Prove each goal of theory separately; returns the exit code."""
    from . import saturate
    if not theory.goals:
        raise UsageError("no goals to prove")
    limits = saturate.ProverLimits(max_seconds=args.max_seconds,
                                   max_given=args.max_given)
    worst = EXIT_OK
    for goal in theory.goals:
        sub = syntax.Theory(op_decls=list(theory.op_decls),
                            assumptions=list(theory.assumptions),
                            goals=[goal])
        outcome = saturate.prove(sub, limits)
        if outcome.status == "proved":
            out.write("THEOREM PROVED\n\n")
            text = saturate.render_proof(outcome.proof, sub)
            out.write(text + "\n")
            proof_sink.append(text)
            out.write("# stats: %s\n" % outcome.stats)
        else:
            if outcome.status == "exhausted":
                out.write("SEARCH EXHAUSTED\n")
                worst = max(worst, EXIT_FAIL)
            else:
                out.write("LIMIT REACHED (%s)\n" % outcome.which)
                worst = max(worst, EXIT_LIMIT)
            out.write("# goal: %s\n" % syntax.render_formula(goal, sub))
            out.write("# stats: %s\n" % outcome.stats)
    return worst


def cmd_prove(args, out):
    theory = _load_theory(args.files)
    if args.proof_out and len(theory.goals) > 1:
        # a proof file holds one proof: each proof numbers its steps from 1
        raise UsageError("--proof-out takes one goal, not %d"
                         % len(theory.goals))
    proofs = []
    code = _run_prover(theory, args, out, proofs)
    if args.proof_out and proofs:
        with open(args.proof_out, "w") as fh:
            fh.write("".join(proofs))
    return code


def _load_proof(args, theory):
    from . import saturate
    try:
        return saturate.parse_proof(_read_input(args.proof), theory)
    except (saturate.ProverError, syntax.ParseError) as e:
        raise UsageError("unreadable proof: %s" % e)


def cmd_verify(args, out):
    from . import saturate
    theory = _load_theory(args.files)
    proof = _load_proof(args, theory)
    ok, report = saturate.verify_proof(theory, proof)
    if ok:
        out.write("PROOF VERIFIED\n")
        return EXIT_OK
    out.write("PROOF REJECTED\n")
    out.write("# %s\n" % report)
    return EXIT_FAIL


def cmd_mine(args, out):
    from . import saturate
    theory = _load_theory(args.files)
    proof = _load_proof(args, theory)
    for pat, count in saturate.mine_patterns(proof, args.min_count,
                                             args.min_size):
        out.write("%d\t%s\n" % (count, syntax.render_term(pat, theory)))
    return EXIT_OK


def _parse_spec(spec):
    try:
        ms = [int(p) for p in spec.split(",")]
    except ValueError:
        raise UsageError("size list expected, e.g. 2,3: %r" % spec)
    if not ms or any(m < 2 for m in ms):
        raise UsageError("every component size must be >= 2")
    return ms


def cmd_construct(args, out):
    from . import hoops
    if args.ln is not None:
        m = hoops.lukasiewicz(args.ln)
    elif args.osum is not None:
        m = hoops.ordinal_sum_many(hoops.lukasiewicz(k)
                                   for k in _parse_spec(args.osum))
    else:
        m = functools.reduce(hoops.direct_product,
                             (hoops.lukasiewicz(k)
                              for k in _parse_spec(args.product)))
    if args.derived:
        m = hoops.derived_tables(m)
    _print_model(m, args.format, out)
    return EXIT_OK


def _lemmas_verify_chains(out):
    """One line per lemma, a rejection with its reason, then the count of
    verified named (non-basic) chains.  A lemma with no transcribed chain
    is reported, not failed."""
    from . import chains
    named = verified = failed = 0
    for record in chains.lemma_corpus():
        if record.chain is None:
            out.write("# %s: no chain\n" % record.name)
            continue
        ok, why = chains.verify_chain_report(record,
                                             tuple(record.depends_on))
        out.write("# %s: %s\n" % (record.name,
                                   "ok" if ok else "REJECTED: " + why))
        failed += not ok
        if not record.name.startswith("basic_"):
            named += 1
            verified += ok
    out.write("%d/%d chains verified\n" % (verified, named))
    return EXIT_OK if failed == 0 else EXIT_FAIL


def _lemmas_check_models(size, out):
    from . import chains, hoops, search
    # hoop_defs models come with the defined operations' tables
    theory = hoops.builtin_theory("hoop_defs")
    corpus = chains.lemma_corpus()
    bad = 0
    checked = 0
    for n in range(1, size + 1):
        opts = search.SearchOptions(n, upto_iso=True)
        for m in search.enumerate_models(theory, opts):
            checked += 1
            for record in corpus:
                if not m.satisfies(record.statement):
                    bad += 1
                    out.write("# %s FAILS in a hoop of size %d\n"
                              % (record.name, n))
    out.write("corpus statements: %d lemmas checked in %d hoops "
              "(sizes 1..%d), %d failures\n"
              % (len(corpus), checked, size, bad))
    return EXIT_OK if bad == 0 else EXIT_FAIL


def _lemmas_prove(name, args, out):
    from . import chains
    record = {r.name: r for r in chains.lemma_corpus()}.get(name)
    if record is None:
        raise UsageError("unknown lemma %r" % name)
    theory = chains.lemma_theory(record.depends_on, record.statement)
    return _run_prover(theory, args, out, [])


def cmd_lemmas(args, out):
    if args.prove is not None:
        return _lemmas_prove(args.prove, args, out)
    if args.verify_chains:
        return _lemmas_verify_chains(out)
    if args.check_models is not None:
        if args.check_models < 1:
            raise UsageError("--check-models size must be >= 1")
        return _lemmas_check_models(args.check_models, out)
    from . import chains
    for record in chains.lemma_corpus():
        deps = (" [uses %s]" % ", ".join(record.depends_on)
                if record.depends_on else "")
        out.write("%-10s %s%s\n"
                  % (record.name, record.statement_text, deps))
    return EXIT_OK


def cmd_check(args, out):
    from .model import deserialize_model
    theory = _load_theory(args.files)
    lines = [ln for ln in _read_input(args.model).splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise UsageError("empty model file")
    try:
        m = deserialize_model(lines[0])
    except ValueError as e:
        raise UsageError("unreadable model: %s" % e)
    # the theory's defined symbols that the model leaves out get their
    # tables from their definitions; a table the model has is kept
    have = {*m.constant_names(), *m.function_names(),
            *m.relation_names()}
    defs = {name: d for name, d in theory.definitions()[0].items()
            if name not in have}
    missing = sorted(set(theory.symbols()) - have - set(defs))
    if missing:
        raise UsageError("the model does not interpret %s"
                         % ", ".join(missing))
    m = m.extend(defs)
    bad = 0
    for label, formulas in (("assumption", theory.assumptions),
                            ("goal", theory.goals)):
        for i, f in enumerate(formulas, start=1):
            if m.satisfies(f):
                out.write("%s %d: holds\n" % (label, i))
            else:
                bad += 1
                env = m.counterexample_env(f)
                where = ", ".join("%s=%d" % kv for kv in sorted(env.items()))
                out.write("%s %d: FAILS at %s\n" % (label, i, where))
    out.write("checks: %d failed\n" % bad)
    return EXIT_OK if bad == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    ap = argparse.ArgumentParser(prog="hooplab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def files_opt(p, required=True):
        p.add_argument("-f", dest="files", action="extend", nargs="+",
                       default=[], required=required, metavar="FILE",
                       help="theory files, merged in order")

    def limits_opt(p):
        p.add_argument("--max-seconds", type=float,
                       default=DEFAULT_MAX_SECONDS)
        p.add_argument("--max-given", type=int, default=DEFAULT_MAX_GIVEN)

    def format_opt(p):
        p.add_argument("--format", choices=("tables", "compact"),
                       default="tables")

    p = sub.add_parser("parse", help="echo the normalized theory")
    files_opt(p)

    p = sub.add_parser("enumerate", help="enumerate finite models")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--theory", metavar="FILE")
    src.add_argument("--builtin", metavar="NAME")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--iso", action="store_true",
                   help="filter models up to isomorphism")
    p.add_argument("--max-models", type=int)
    p.add_argument("--max-seconds", type=float)
    format_opt(p)

    p = sub.add_parser("prove", help="run the saturation prover")
    files_opt(p)
    limits_opt(p)
    p.add_argument("--proof-out", metavar="PATH")

    p = sub.add_parser("verify", help="check a proof file")
    p.add_argument("--proof", required=True, metavar="PATH")
    files_opt(p)

    p = sub.add_parser("mine", help="frequent subterm patterns of a proof")
    p.add_argument("--proof", required=True, metavar="PATH")
    files_opt(p)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--min-size", type=int, default=3)

    p = sub.add_parser("construct", help="build standard hoops")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ln", type=int, metavar="N",
                     help="the n-element linear hoop L_n")
    src.add_argument("--osum", metavar="SPEC",
                     help="ordinal sum of L_m's, e.g. 2,3")
    src.add_argument("--product", metavar="SPEC",
                     help="direct product of L_m's, e.g. 2,2")
    p.add_argument("--derived", action="store_true",
                   help="extend with derived operation tables")
    format_opt(p)

    p = sub.add_parser("lemmas", help="lemma corpus checks")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--verify-chains", action="store_true")
    mode.add_argument("--check-models", type=int, metavar="N")
    mode.add_argument("--prove", metavar="NAME")
    limits_opt(p)

    p = sub.add_parser("check", help="satisfaction report for a model")
    p.add_argument("--model", required=True, metavar="PATH")
    files_opt(p)
    return ap


_COMMANDS = {
    "parse": cmd_parse,
    "enumerate": cmd_enumerate,
    "prove": cmd_prove,
    "verify": cmd_verify,
    "mine": cmd_mine,
    "construct": cmd_construct,
    "lemmas": cmd_lemmas,
    "check": cmd_check,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except (UsageError, ValueError) as e:   # engine errors are ValueErrors
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


def main_script():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (hooplab ... | head); point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main_script()
