"""Desk-scale toolkit for equational reasoning on algebraic structures:
theory parsing, finite model enumeration up to isomorphism, saturation
proving with verifiable proof objects, and a built-in hoop domain layer."""

import importlib

__version__ = "0.1.0"

# submodule -> its public names; __getattr__ imports both on first use
_EXPORTS = {
    "syntax": "ParseError Theory TheoryError merge_theories parse_formula_text"
              " parse_source parse_term_text render_formula render_model"
              " render_term render_theory",
    "model": "FiniteModel ModelError deserialize_model isomorphic"
             " serialize_model",
    "search": "SearchError SearchLimit SearchOptions count_models"
              " enumerate_models isofilter",
    "saturate": "Exhausted LimitReached Outcome Proof ProofStep Proved"
                " ProverError ProverLimits ProverStats mine_patterns"
                " parse_proof prove render_proof transform_proof verify_proof",
    "hoops": "builtin_theory decompose_linear derived_tables direct_product"
             " is_hoop is_linear linear_index_set lukasiewicz name_property"
             " ordinal_sum ordinal_sum_many parse_hoop_term trivial_hoop",
    "chains": "ChainError LemmaRecord lemma_corpus verify_chain"
              " verify_chain_report",
    "terms": "",
}
_HOME = {n: mod for mod, names in _EXPORTS.items() for n in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
