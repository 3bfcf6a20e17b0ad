"""Desk-scale toolkit for equational reasoning on algebraic structures:
theory parsing, finite model enumeration up to isomorphism, saturation
proving with verifiable proof objects, and a built-in hoop domain layer."""

__version__ = "0.1.0"

from .syntax import (ParseError, Theory, TheoryError, merge_theories,
                     parse_formula_text, parse_source, parse_term_text,
                     render_formula, render_model, render_term,
                     render_theory)
from .model import (FiniteModel, ModelError, deserialize_model, isomorphic,
                    serialize_model)
from .search import (SearchError, SearchLimit, SearchOptions, count_models,
                     enumerate_models, isofilter)
from .saturate import (Exhausted, LimitReached, Outcome, Proof, ProofStep,
                       Proved, ProverError, ProverLimits, ProverStats,
                       mine_patterns, parse_proof, prove, render_proof,
                       transform_proof, verify_proof)
from .hoops import (builtin_theory, decompose_linear, derived_tables,
                    direct_product, is_hoop, is_linear, linear_index_set,
                    lukasiewicz, name_property, ordinal_sum,
                    ordinal_sum_many, parse_hoop_term, trivial_hoop)
from .chains import (ChainError, LemmaRecord, lemma_corpus, verify_chain,
                     verify_chain_report)
