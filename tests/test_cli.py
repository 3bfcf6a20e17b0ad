"""Command-line surface: golden first lines and exit codes."""

import io
import os

import pytest

from hooplab import cli

DATA = os.path.join(os.path.dirname(cli.__file__), "data")


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


def test_prove_missing_file_usage_error():
    code, _ = run("prove", "-f", "no-such-file-anywhere.ax")
    assert code == 3


def test_parse_echoes_theory():
    code, out = run("parse", "-f", data("semilattice.ax"))
    assert code == 0
    assert "formulas(assumptions)." in out
    assert "x cup x = x." in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ax"
    bad.write_text("formulas(assumptions).\n x = .\nend_of_list.\n")
    code, _ = run("parse", "-f", str(bad))
    assert code == 3


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


def test_verify_roundtrip(tmp_path):
    proof = tmp_path / "p.txt"
    code, _ = run("prove", "-f", data("semilattice.ax"), data("sl-pr1.gl"),
                  "--proof-out", str(proof))
    assert code == 0
    code, out = run("verify", "--proof", str(proof),
                    "-f", data("semilattice.ax"), data("sl-pr1.gl"))
    assert code == 0
    assert out.splitlines()[0] == "PROOF VERIFIED"


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


def test_lemmas_listing():
    code, out = run("lemmas")
    assert code == 0
    assert "AA" in out and "NNSNNSNN" in out


def test_lemmas_verify_chains_reports_each_lemma_once(monkeypatch):
    # no prover run: every transcribed chain is taken as verified
    monkeypatch.setattr(cli.chains, "verify_chain",
                        lambda record, context=(): True)
    code, out = run("lemmas", "--verify-chains")
    lines = out.splitlines()
    assert "# basic_v: no chain" in lines
    assert "# basic_i: ok" in lines
    assert len(lines) == len(set(lines))
    assert lines[-1] == "18/18 chains verified"
    assert code == 0


def test_lemmas_prove_poses_helper_dependencies(monkeypatch):
    # NNSSNN depends on the helper PNSSNNO, which is not a corpus lemma
    posed = []
    monkeypatch.setattr(cli, "_run_prover",
                        lambda theory, *rest: posed.append(theory) or 0)
    code, _ = run("lemmas", "--prove", "NNSSNN")
    assert code == 0
    theory, = posed
    nnssnn = {r.name: r for r in cli.chains.lemma_corpus()}["NNSSNN"]
    assert theory.goals == [nnssnn.statement]
    helper = cli.chains.LemmaRecord("PNSSNNO", "x + (x' ~ (x ~ x'')) = 1")
    assert helper.statement in theory.assumptions


def test_usage_errors():
    code, _ = run("enumerate", "--size", "3")
    assert code == 3
    code, _ = run("frobnicate")
    assert code == 3
