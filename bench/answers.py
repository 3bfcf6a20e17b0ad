"""Known answers for the benchmark, written by hand.

Every number here comes from a source outside the program under test:
the test suite's acceptance criteria, OEIS, a counting argument written
out below, or the README's documented CLI output.  Nothing is computed by
hooplab.
"""

# Isomorphism classes of each theory at sizes 1..5.
#   hoop: 1, 1, 2, 5, 10.  Sizes 2..5 are tests/test_acceptance.py
#     test_hoop_counts_2_to_5; size 1 is the trivial hoop.
#   hoop_linear: 2^(n-2) for n >= 2 (one linear hoop per composition of
#     the chain into Lukasiewicz blocks; test_linear_hoop_counts), and the
#     trivial hoop at n = 1.
#   semilattice, semilattice_ge: a finite join-semilattice on n elements
#     with a bottom adjoined is a lattice on n + 1 elements, so the counts
#     are OEIS A006966 shifted by one: A006966(2..6) = 1, 1, 2, 5, 15.
#     semilattice_ge only adds the definition of >=, which fixes >= from
#     cup, so its counts are the same.
#   pocrim: every bounded pocrim on 1, 2 or 3 elements is a chain and is
#     one of the hoops L_1, L_2, L_3, L_2^L_2; order 4 has the 5 hoops plus
#     the 2 non-hoop pocrims of test_pocrims_of_order_4_that_are_not_hoops.
#     No hand count is known at size 5, so only the hoop part is checked
#     there (POCRIM_HOOP_PART).
ISO_COUNTS = {
    "hoop": {1: 1, 2: 1, 3: 2, 4: 5, 5: 10},
    "hoop_linear": {1: 1, 2: 1, 3: 2, 4: 4, 5: 8},
    "semilattice": {1: 1, 2: 1, 3: 2, 4: 5, 5: 15},
    "semilattice_ge": {1: 1, 2: 1, 3: 2, 4: 5, 5: 15},
    "pocrim": {1: 1, 2: 1, 3: 2, 4: 7},
}

# The pocrims that satisfy hoop axiom 6 (x + (y ~ x) = y + (x ~ y)) are
# exactly the hoops of that size: a pocrim with that axiom is a hoop.
POCRIM_HOOP_PART = ISO_COUNTS["hoop"]

# Labelled hoops of size 4 (no isomorphism filter): the 5 classes have
# automorphism groups of order 1, 1, 1, 1 and 2 (L2xL2 swaps its atoms),
# so the orbits have 24, 24, 24, 24 and 12 members.
LABELLED_HOOPS_4 = 4 * 24 + 12

# Theories built from data files, as the bundled builtin theories are.
THEORY_FILES = {
    "hoop": ("hoop.ax",),
    "hoop_linear": ("hoop.ax", "hoop-linear.ax"),
    "semilattice": ("semilattice.ax",),
    "semilattice_ge": ("semilattice.ax", "sl-ge-def.ax"),
    "pocrim": ("pocrim.ax",),
    "hoop_defs": ("hoop.ax", "hoop-ge-def.ax", "hoop-defs.ax"),
}

# Countermodel searches: (theory files with goal) -> {size: model found?}.
# hoop-ax6 fails first in the order-4 non-hoop pocrims (test suite, item
# 3); a total order fails first in the 3-element semilattice with two
# incomparable atoms (test_smallest_total_order_countermodel).
COUNTERMODELS = {
    ("pocrim.ax", "hoop-ax6.gl"): {2: False, 3: False, 4: True},
    ("semilattice.ax", "sl-ge-def.ax", "sl-total.gl"): {2: False, 3: True},
}

# Goals the searcher refutes; they are non-theorems, so the prover must
# never return Proved on them.
CANARIES = tuple(COUNTERMODELS)

# The bundled prover goals (tests/test_acceptance.py PROVER_GOALS); all
# are theorems.
PROVER_GOALS = (
    ("semilattice.ax", "sl-pr1.gl"),
    ("semilattice.ax", "sl-ge-def.ax", "sl-trans.gl"),
    ("hoop.ax", "hoop-defs.ax", "hp-cup-assoc.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-plus-mono.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-res-fwd.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-res-bwd.gl"),
    ("hoop.ax", "hoop-ge-def.ax", "hp-sum-lemma.gl"),
)

# The lemma corpus (README "Lemma corpus"; chains.lemma_corpus docs).
CORPUS_SIZE = 24
# Lemmas whose chain has a derive link; the link's equality is posed to
# the prover instead of through the wall-clock-limited chain verifier.
DERIVE_LINK_LEMMAS = ("NNSNNSNN", "PNNNNPNN")
# basic_v has no transcribed chain (ROADMAP, small defects).
NO_CHAIN = ("basic_v",)
# The remaining transcribed chains.  Every transcribed chain verifies
# against its declared dependencies (tests/test_chains.py,
# test_all_chains_verify_with_declared_context); only the derive-link
# chains above depend on the verifier's prover clock.
CHAINS_OK = (
    "basic_i", "basic_ii", "basic_iii", "basic_iv", "basic_vi",
    "AA", "MNA", "MNMN", "NPJSSO", "MPS", "NSPJN", "NNSSNN", "SNNNO",
    "SSNNSNO", "NSNSM", "PPMD", "NPNPM", "JNND", "NDND", "SNNNPN",
    "SNNPNN",
)

# Enumeration sizes.  The corpus model check covers every hoop of these
# sizes, L_2..L_8, L_3^L_3 and L_2xL_3; every corpus statement holds in
# every hoop (test_corpus_holds_in_small_hoops_and_chains).
SIZES = (1, 2, 3, 4, 5)
CORPUS_CHAINS = (2, 3, 4, 5, 6, 7, 8)
CORPUS_CHECKS = (sum(ISO_COUNTS["hoop"][n] for n in SIZES)
                 + len(CORPUS_CHAINS) + 2) * CORPUS_SIZE   # 672

# Linear classification: the compositions of n into blocks m_i >= 2 with
# sum(m_i) - k + 1 = n are in bijection with subsets of {1..n-2}, so
# there are 2^(n-2) of them, each a distinct linear hoop.
LINEAR_CLASSES = {5: 8, 6: 16, 7: 32}

# README CLI outputs.
CLI_ENUMERATE_HOOP_4 = "models: 5"
CLI_CHECK_OK = "checks: 0 failed"
CLI_PROOF_VERIFIED = "PROOF VERIFIED"
CLI_PROVED = "THEOREM PROVED"
CLI_CHECK_MODELS_4 = ("corpus statements: 24 lemmas checked in 9 hoops "
                      "(sizes 1..4), 0 failures")   # 9 = 1 + 1 + 2 + 5
