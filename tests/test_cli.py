"""Command-line surface: golden first lines and exit codes."""

import io
import os
import resource
import subprocess
import sys

import pytest

from hooplab import chains, cli

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def data(name):
    return os.path.join(DATA, name)


def test_prove_semilattice_golden():
    code, out = run("prove", "-f", data("semilattice.ax"),
                    data("sl-pr1.gl"))
    assert code == 0
    assert out.splitlines()[0] == "THEOREM PROVED"
    assert "$F" in out


def test_prove_bundled_name_fallback():
    # unqualified file names fall back to the bundled data directory
    code, out = run("prove", "-f", "semilattice.ax", "sl-pr1.gl")
    assert code == 0
    assert out.startswith("THEOREM PROVED")


def test_prove_unprovable_exhausts():
    code, out = run("prove", "-f", data("semilattice.ax"),
                    data("sl-ge-def.ax"), data("sl-total.gl"),
                    "--max-seconds", "5", "--max-given", "300")
    assert code in (1, 2)
    assert out.splitlines()[0] in ("SEARCH EXHAUSTED",
                                   "LIMIT REACHED (max_given)",
                                   "LIMIT REACHED (max_seconds)")


def test_prove_limit_prints_stats():
    code, out = run("prove", "-f", data("semilattice.ax"),
                    data("sl-ge-def.ax"), data("sl-total.gl"),
                    "--max-given", "20")
    assert code == 2
    verdict, goal, stats = out.splitlines()
    assert (verdict, goal) == ("LIMIT REACHED (max_given)",
                               "# goal: x >= y | y >= x")
    assert stats.startswith("# stats: 20 given, ")
    assert stats.endswith(" demodulators")


def test_prove_prints_stats_after_the_proof():
    code, out = run("prove", "-f", "semilattice.ax", "sl-pr1.gl")
    assert code == 0
    assert out.splitlines()[-1].startswith("# stats: 0 given, ")


def test_prove_missing_file_usage_error():
    code, _ = run("prove", "-f", "no-such-file-anywhere.ax")
    assert code == 3


def test_parse_echoes_theory():
    code, out = run("parse", "-f", data("semilattice.ax"))
    assert code == 0
    assert "formulas(assumptions)." in out
    assert "x cup x = x." in out


def test_parse_output_parses_again(tmp_path):
    src = tmp_path / "iff.ax"
    src.write_text("formulas(assumptions).\n"
                   "   x = a <-> (y = b <-> z = c).\n"
                   "end_of_list.\n")
    code, out = run("parse", "-f", str(src))
    assert code == 0
    again = tmp_path / "again.ax"
    again.write_text(out)
    assert run("parse", "-f", str(again)) == (0, out)


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ax"
    bad.write_text("formulas(assumptions).\n x = .\nend_of_list.\n")
    code, _ = run("parse", "-f", str(bad))
    assert code == 3


def test_deeply_nested_input_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.gl"
    deep.write_text("formulas(goals).\n%sx%s = x.\nend_of_list.\n"
                    % ("(" * 600, " + 0)" * 600))
    code, out = run("prove", "-f", "hoop.ax", str(deep))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == \
        "error: parse error: input nested too deeply\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_deep_goal_proved_in_bounded_memory(tmp_path):
    """The normal-form memo keeps no rewrite entries, so the 200-deep goal
    is proved under a 512 MB address-space cap on the child process."""
    deep = tmp_path / "deep.gl"
    deep.write_text("formulas(goals).\n%sx%s = x.\nend_of_list.\n"
                    % ("(" * 200, " + 0)" * 200))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-m", "hooplab.cli", "prove", "-f", "hoop.ax",
         str(deep), "--max-given", "20"],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=_limit_address_space)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "THEOREM PROVED"


def test_enumerate_golden():
    code, out = run("enumerate", "--builtin", "hoop", "--size", "4",
                    "--iso")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "models: 5"


def test_enumerate_no_models():
    code, out = run("enumerate", "--builtin", "hoop", "--size", "4",
                    "--iso", "--max-models", "0")
    # zero admitted models is reported as a failed search
    assert code == 1 or "models: 0" in out


def test_enumerate_limit_says_how_far_it_got():
    code, out = run("enumerate", "--builtin", "hoop", "--size", "4",
                    "--max-models", "2", "--format", "compact")
    assert code == 2
    lines = out.splitlines()
    assert lines[-2] == "models: 2"
    head, counts = lines[-1].split(" after ")
    assert head == "# limit: max_models"
    decisions, conflicts, leaves = [int(part.split()[0])
                                    for part in counts.split(", ")]
    assert decisions > 0 and leaves >= 2


def test_tables_format_prints_wide_tables_row_major(tmp_path):
    # a ternary table is one line of entries in the compact format's order
    theory = tmp_path / "g.in"
    theory.write_text("formulas(assumptions).\n"
                      "   g(x, y, z) = g(y, x, z).\n"
                      "end_of_list.\n")
    outs = [run("enumerate", "--theory", str(theory), "--size", "2",
                "--format", fmt)
            for fmt in ("tables", "compact")]
    assert [code for code, _ in outs] == [0, 0]
    tables = [line.split() for line in outs[0][1].splitlines()
              if line.startswith("      ")]
    compact = [line.split(" = ")[1].split(",")
               for line in outs[1][1].splitlines() if "fun/3 g" in line]
    assert len(tables) == len(compact) == 64
    assert tables == compact


def test_verify_roundtrip(tmp_path):
    proof = tmp_path / "p.txt"
    code, _ = run("prove", "-f", data("semilattice.ax"), data("sl-pr1.gl"),
                  "--proof-out", str(proof))
    assert code == 0
    code, out = run("verify", "--proof", str(proof),
                    "-f", data("semilattice.ax"), data("sl-pr1.gl"))
    assert code == 0
    assert out.splitlines()[0] == "PROOF VERIFIED"


def test_verify_roundtrip_of_a_right_nested_goal(tmp_path):
    # the goal line of the proof file is read back as the same formula
    goal = tmp_path / "g.gl"
    goal.write_text("formulas(goals).\n"
                    "   x + 0 = x & (0 + x = x & x ~ x = 0).\n"
                    "end_of_list.\n")
    proof = tmp_path / "p.txt"
    code, _ = run("prove", "-f", data("hoop.ax"), str(goal),
                  "--proof-out", str(proof))
    assert code == 0
    code, out = run("verify", "--proof", str(proof),
                    "-f", data("hoop.ax"), str(goal))
    assert (code, out.splitlines()[0]) == (0, "PROOF VERIFIED")


def test_verify_rejects_tampering(tmp_path):
    proof = tmp_path / "p.txt"
    run("prove", "-f", data("semilattice.ax"), data("sl-pr1.gl"),
        "--proof-out", str(proof))
    text = proof.read_text()
    tampered = text.replace("x cup x = x", "x cup x = x cup x", 1)
    assert tampered != text
    proof.write_text(tampered)
    code, out = run("verify", "--proof", str(proof),
                    "-f", data("semilattice.ax"), data("sl-pr1.gl"))
    assert code == 1
    assert out.splitlines()[0] == "PROOF REJECTED"


def test_verify_malformed_proof_is_unreadable(tmp_path):
    proof = tmp_path / "p.txt"
    for text in ("1 $F.  [resolve(4,0)].\n", "", "# no steps\n\n",
                 "1 $F.  [copy(4),flip(0)].\n"):
        proof.write_text(text)
        for command in ("verify", "mine"):
            code, out = run(command, "--proof", str(proof),
                            "-f", data("semilattice.ax"), data("sl-pr1.gl"))
            assert code == 3, (command, text)


def test_proof_out_written_only_for_a_proof(tmp_path):
    proof = tmp_path / "p.txt"
    code, _ = run("prove", "-f", data("hoop.ax"), data("hoop-defs.ax"),
                  data("hp-cup-assoc.gl"), "--max-given", "1",
                  "--proof-out", str(proof))
    assert code == 2
    assert not proof.exists()


TWO_GOALS = ["x cup (x cup x) = x", "x cup (y cup x) = x cup y"]


def _goal_file(path, goals):
    path.write_text('op(500, infix, "cup").\nformulas(goals).\n%s'
                    'end_of_list.\n' % "".join("   %s.\n" % g for g in goals))
    return str(path)


def test_proof_out_takes_one_goal(tmp_path, monkeypatch):
    # a proof file holds one proof: two goals are a usage error before any
    # search, and two proofs pasted into one file are rejected, since each
    # numbers its steps from 1
    from hooplab import saturate
    both = _goal_file(tmp_path / "two.gl", TWO_GOALS)
    proof = tmp_path / "p.txt"
    texts = []
    for goal in TWO_GOALS:
        code, _ = run("prove", "-f", "semilattice.ax",
                      _goal_file(tmp_path / "one.gl", [goal]),
                      "--proof-out", str(proof))
        assert code == 0
        texts.append(proof.read_text())
    proof.write_text("".join(texts))
    code, out = run("verify", "--proof", str(proof),
                    "-f", "semilattice.ax", both)
    assert (code, out.splitlines()) == (
        1, ["PROOF REJECTED", "# step id 1 is used twice"])

    def no_search(*args):
        raise AssertionError("the prover ran")

    monkeypatch.setattr(saturate, "prove", no_search)
    proof.unlink()
    code, out = run("prove", "-f", "semilattice.ax", both,
                    "--proof-out", str(proof))
    assert (code, out) == (3, "")
    assert not proof.exists()


def test_mine(tmp_path):
    proof = tmp_path / "p.txt"
    run("prove", "-f", data("hoop.ax"), data("hoop-ax6.gl"),
        "--proof-out", str(proof))
    code, out = run("mine", "--proof", str(proof),
                    "-f", data("hoop.ax"), data("hoop-ax6.gl"),
                    "--min-count", "2", "--min-size", "3")
    assert code == 0


def test_construct_ln():
    code, out = run("construct", "--ln", "3")
    assert code == 0
    assert " + :" in out
    code, out = run("construct", "--ln", "3", "--format", "compact")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_construct_osum_and_product():
    code, out = run("construct", "--osum", "2,3", "--derived")
    assert code == 0
    assert " cup :" in out
    code, _ = run("construct", "--product", "2,2")
    assert code == 0


def test_construct_bad_spec():
    code, _ = run("construct", "--osum", "2,banana")
    assert code == 3


def test_check_model(tmp_path):
    _, compact = run("construct", "--ln", "4", "--format", "compact")
    mf = tmp_path / "m.model"
    mf.write_text(compact)
    code, out = run("check", "--model", str(mf), "-f", data("hoop.ax"))
    assert code == 0
    assert "checks: 0 failed" in out


def test_check_model_with_relation_table(tmp_path):
    # the derived tables include the relation >=, read back from the file
    _, compact = run("construct", "--ln", "3", "--derived", "--format",
                     "compact")
    mf = tmp_path / "m.model"
    mf.write_text(compact)
    code, out = run("check", "--model", str(mf), "-f", data("hoop.ax"),
                    data("hoop-ge-def.ax"), data("hoop-defs.ax"))
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == ["assumption %d: holds" % i for i in range(1, 15)]
    assert lines[-1] == "checks: 0 failed"


def test_check_model_failure(tmp_path):
    # L_2 x L_2 is a hoop but not linear
    _, compact = run("construct", "--product", "2,2", "--format",
                     "compact")
    mf = tmp_path / "m.model"
    mf.write_text(compact)
    code, out = run("check", "--model", str(mf), "-f", data("hoop.ax"),
                    data("hoop-linear.ax"))
    assert code == 1
    assert "FAILS" in out


def test_check_computes_defined_tables(tmp_path):
    # the model has no >= table; hoop-ge-def.ax defines it
    _, compact = run("construct", "--ln", "4", "--format", "compact")
    mf = tmp_path / "m.model"
    mf.write_text(compact)
    code, out = run("check", "--model", str(mf), "-f", data("hoop.ax"),
                    data("hoop-ge-def.ax"), data("hp-plus-mono.gl"))
    assert code == 0
    assert out.splitlines() == (["assumption %d: holds" % i
                                 for i in range(1, 10)]
                                + ["goal 1: holds", "checks: 0 failed"])


def test_check_names_uninterpreted_symbols(tmp_path, capsys):
    mf = tmp_path / "m.model"
    mf.write_text("2 ; fun/0 0 = 0\n")
    code, out = run("check", "--model", str(mf), "-f", data("hoop.ax"))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: the model does not interpret +, 1, ~\n")


def test_check_rejects_non_boolean_relation_entry(tmp_path, capsys):
    _, compact = run("construct", "--ln", "2", "--format", "compact")
    mf = tmp_path / "m.model"
    mf.write_text(compact.strip() + " ; rel/2 >= = 1,0,1,7\n")
    code, _ = run("check", "--model", str(mf), "-f", data("hoop.ax"),
                  data("hoop-ge-def.ax"))
    assert code == 3
    assert "unreadable model" in capsys.readouterr().err


def test_lemmas_listing():
    code, out = run("lemmas")
    assert code == 0
    assert "AA" in out and "NNSNNSNN" in out


def test_lemmas_verify_chains_reports_each_lemma_once(monkeypatch):
    # every transcribed chain is taken as verified
    monkeypatch.setattr(chains, "verify_chain_report",
                        lambda record, context=(): (True, "ok"))
    code, out = run("lemmas", "--verify-chains")
    lines = out.splitlines()
    assert "# basic_v: no chain" in lines
    assert "# basic_i: ok" in lines
    assert len(lines) == len(set(lines))
    assert lines[-1] == "18/18 chains verified"
    assert code == 0


def test_lemmas_verify_chains_names_the_reason(monkeypatch):
    # with no stored certificates, the chains with a derive link are
    # rejected for the missing certificate of that link
    monkeypatch.setattr(chains, "proof_certificate",
                        lambda lemma, line: None)
    code, out = run("lemmas", "--verify-chains")
    lines = out.splitlines()
    assert [line for line in lines if "REJECTED" in line] == [
        "# %s: REJECTED: derive link at line 2 of %s: no proof certificate "
        "data/proofs/%s.2.proof" % (name, name, name)
        for name in ("NNSNNSNN", "PNNNNPNN")]
    assert lines[-1] == "16/18 chains verified"
    assert code == 1


def test_lemmas_prove_poses_helper_dependencies(monkeypatch):
    # NNSSNN depends on the helper PNSSNNO, which is not a corpus lemma
    posed = []
    monkeypatch.setattr(cli, "_run_prover",
                        lambda theory, *rest: posed.append(theory) or 0)
    code, _ = run("lemmas", "--prove", "NNSSNN")
    assert code == 0
    theory, = posed
    nnssnn = {r.name: r for r in chains.lemma_corpus()}["NNSSNN"]
    assert theory.goals == [nnssnn.statement]
    helper = chains.LemmaRecord("PNSSNNO", "x + (x' ~ (x ~ x'')) = 1")
    assert helper.statement in theory.assumptions


def test_usage_errors():
    code, _ = run("enumerate", "--size", "3")
    assert code == 3
    code, _ = run("frobnicate")
    assert code == 3
    # the lemmas modes exclude each other rather than one silently winning
    for modes in (("--verify-chains", "--check-models", "4"),
                  ("--verify-chains", "--prove", "AA"),
                  ("--check-models", "4", "--prove", "AA")):
        code, out = run("lemmas", *modes)
        assert (code, out) == (3, "")
    # each mode is taken when given, and a model size below 1 is refused
    for mode in (("--check-models", "0"), ("--check-models", "-2"),
                 ("--prove", "")):
        code, out = run("lemmas", *mode)
        assert (code, out) == (3, "")
    # so is each construct source, also when it is 0 or empty
    for source in (("--ln", "0"), ("--osum", ""), ("--product", "")):
        code, out = run("construct", *source)
        assert (code, out) == (3, "")


# Run in a fresh interpreter: one command, then a line with its exit code
# and the modules it imported that the interpreter had not loaded at start.
_FOOTPRINT = """\
import io, sys
start = set(sys.modules)
from hooplab import cli
code = cli.main(sys.argv[1:], out=io.StringIO())
print(code, *sorted(set(sys.modules) - start))
"""

_ONLY_PARSER = {"model", "search", "saturate", "hoops", "chains"}
_NO_SEARCHER = {"search", "chains", "hoops", "model"}
_NO_PROVER = {"saturate", "chains"}


@pytest.fixture(scope="module")
def footprint_dir(tmp_path_factory):
    """A directory with the proof and the model file the commands read."""
    d = tmp_path_factory.mktemp("footprint")
    assert run("prove", "-f", "semilattice.ax", "sl-pr1.gl", "--proof-out",
               str(d / "sl.proof"))[0] == 0
    _, compact = run("construct", "--ln", "4", "--format", "compact")
    (d / "l4.model").write_text(compact)
    return d


# (command, its exit code, engines it must not import)
_FOOTPRINTS = [
    ("parse -f hoop.ax", 0, _ONLY_PARSER),
    ("prove -f semilattice.ax sl-pr1.gl", 0, _NO_SEARCHER),
    ("prove -f hoop.ax hoop-defs.ax hp-cup-assoc.gl --max-given 5", 2,
     _NO_SEARCHER),
    ("verify --proof sl.proof -f semilattice.ax sl-pr1.gl", 0, _NO_SEARCHER),
    ("mine --proof sl.proof -f semilattice.ax sl-pr1.gl", 0, _NO_SEARCHER),
    ("enumerate --builtin hoop --size 4 --iso", 0, _NO_PROVER),
    ("construct --osum 2,3 --derived", 0, _NO_PROVER),
    ("check --model l4.model -f hoop.ax", 0, _NO_PROVER),
    ("lemmas", 0, {"saturate"}),
    ("lemmas --check-models 3", 0, {"saturate"}),
    ("lemmas --verify-chains", 1, set()),
]


@pytest.mark.parametrize("argv, want_code, barred", _FOOTPRINTS,
                         ids=[case[0] for case in _FOOTPRINTS])
def test_command_imports_only_its_engines(footprint_dir, argv, want_code,
                                          barred):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv.split()],
                         cwd=footprint_dir, env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    code, *loaded = res.stdout.split()
    assert int(code) == want_code
    engines = {m.split(".")[1] for m in loaded if m.startswith("hooplab.")}
    assert "cli" in engines and not engines & barred
    assert "dataclasses" not in loaded


def test_closed_pipe_ends_without_traceback():
    """A reader that stops early (hooplab enumerate ... | head) ends the
    command with exit code 1 and no traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "hooplab.cli", "enumerate", "--builtin",
             "hoop", "--size", "6"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"# model 1\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=300) == 1
    assert "Traceback" not in err, err
