"""The package's public names: imported from their submodules on first
use, and the same set the package has always exported."""

import importlib
import os
import subprocess
import sys

import hooplab

# The names the package exported when it imported every submodule eagerly.
EXPORTS = {
    "syntax": ["ParseError", "Theory", "TheoryError", "merge_theories",
               "parse_formula_text", "parse_source", "parse_term_text",
               "render_formula", "render_model", "render_term",
               "render_theory"],
    "model": ["FiniteModel", "ModelError", "deserialize_model", "isomorphic",
              "serialize_model"],
    "search": ["SearchError", "SearchLimit", "SearchOptions", "count_models",
               "enumerate_models", "isofilter"],
    "saturate": ["Exhausted", "LimitReached", "Outcome", "Proof", "ProofStep",
                 "Proved", "ProverError", "ProverLimits", "ProverStats",
                 "mine_patterns", "parse_proof", "prove", "render_proof",
                 "transform_proof", "verify_proof"],
    "hoops": ["builtin_theory", "decompose_linear", "derived_tables",
              "direct_product", "is_hoop", "is_linear", "linear_index_set",
              "lukasiewicz", "name_property", "ordinal_sum",
              "ordinal_sum_many", "parse_hoop_term", "trivial_hoop"],
    "chains": ["ChainError", "LemmaRecord", "lemma_corpus", "verify_chain",
               "verify_chain_report"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_every_name_is_the_submodules_object():
    assert sorted(hooplab.__all__) == NAMES
    for module, names in EXPORTS.items():
        sub = importlib.import_module("hooplab." + module)
        for name in names:
            assert getattr(hooplab, name) is getattr(sub, name), name
    assert set(NAMES) <= set(dir(hooplab))
    assert hooplab.__version__ == "0.1.0"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hooplab import *", namespace)
    assert {name: namespace[name] for name in NAMES} \
        == {name: getattr(hooplab, name) for name in NAMES}


def test_unknown_names_are_missing():
    assert not hasattr(hooplab, "no_such_name")


def test_submodules_are_attributes():
    for module in list(EXPORTS) + ["terms"]:
        assert getattr(hooplab, module) is sys.modules["hooplab." + module]


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(hooplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, hooplab; print(*sorted(m for m "
         "in sys.modules if m.startswith('hooplab')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert res.stdout.split() == ["hooplab"], res.stderr


def test_readme_library_example_runs():
    # the README's one Python block, run as written
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        blocks = f.read().split("```python\n")[1:]
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0].split("```")[0], ns)  # noqa: S102 - the README's code
    assert len(ns["models"]) == 5
    assert ns["decompose_linear"](ns["m"]) == [2, 3]
    assert ns["out"].status == "proved"
    assert ns["verify_proof"](ns["problem"], ns["out"].proof) == (True, "ok")
