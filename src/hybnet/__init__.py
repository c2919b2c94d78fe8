"""Minimum hybridization networks for three binary phylogenetic trees.

Given three rooted binary trees on the same taxa, find a rooted network with
the smallest number of reticulations that displays all three, by guessing an
acyclic agreement forest, wiring its component roots, and reconstructing the
canonical coloured network that the wiring determines.
"""

from .errors import (
    BudgetExceeded,
    DuplicateLabel,
    HybnetError,
    InputError,
    InternalInconsistency,
    InvalidCNET,
    LabelMismatch,
    MissingSubstitution,
    NewickSyntaxError,
    NoSolutionWithin,
    NonBinaryError,
    TooManyReticulations,
    UnknownLabel,
    UnsupportedFormat,
)
from .trees import (
    RHO,
    PhyloTree,
    common_chains,
    common_pendant_subtree_reduction,
    isomorphic,
    parse_newick,
    random_tree,
    restrict,
    serialize,
)
from .forests import (
    Forest,
    InheritanceGraph,
    inheritance_graph,
    is_acyclic_agreement_forest,
    is_agreement_forest,
    is_forest_for,
)
from .networks import (
    CNET,
    Network,
    deletion_forest,
    displays,
    emit,
    expand_map,
    hybridization_number,
    induce_network,
    network_from_json,
    network_from_tree,
    validate_cnet,
)
from .aaf_search import AafCandidate, ChainGuess, chain_guesses, enumerate_aafs
from .extended_aaf import (
    RHO_GUESS,
    Component,
    Description,
    ExtendedAAF,
    WiringGuess,
    enumerate_wiring_guesses,
)
from .reconstruct import Rejection, expand_components, search_cnet
from .solver import Instance, Solution, gen_random, rspr, solve

__version__ = "0.1.0"
