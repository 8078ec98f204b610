"""Exact enumeration of peak-height statistics modulo k on lattice paths.

The package covers generalized Dyck paths with down-steps of drop k,
their colored-level (Motzkin/Schroder style) and ballot extensions, the
peak and double-descent statistics in residue classes modulo k, the
cyclic-shift machinery, the bijection with (k+1)-ary positional trees,
closed-form counts, and a truncated generating-function engine.  The paper
defines the bijection recursively; here it is computed from one matching
pass over the path, with explicit stacks instead of recursion, so paths
and trees of any depth are handled.  All arithmetic is exact.
"""

from .core import (
    DOWN,
    UP,
    ArityMismatchError,
    BadPermutationError,
    DuplicatePositionError,
    EmptyPathError,
    FamilySpec,
    IllegalStepError,
    LatticePath,
    NegativeHeightError,
    NodeLabel,
    ParseError,
    PathError,
    PositionOutOfRangeError,
    PositionalTree,
    Step,
    TreeError,
    WrongEndHeightError,
    WrongKError,
    height_profile,
    level,
    parse_path,
    render_path,
    tree_from_json,
    tree_from_json_text,
    tree_to_json,
    tree_to_json_text,
    validate,
)
from .statistics import (
    PLAIN,
    PLAIN_STARRED,
    VARIANTS,
    WEAK,
    WEAK_STARRED,
    StatVector,
    double_descents,
    e_vector,
    label_features,
    peaks,
    stat_vector,
    weak_double_descents,
    weak_peaks,
)
from .transforms import (
    BallotDecomposition,
    LastStepDecomposition,
    RightPeakDecomposition,
    ballot_decompose,
    cyclic_shift,
    deutsch_involution,
    last_step_decompose,
    lift,
    permute_subtrees,
    right_peak_decompose,
)
from .bijections import (
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    tree_to_path,
)
from .enumeration import (
    DEFAULT_MAX_OBJECTS,
    Histogram,
    ResourceLimitError,
    family_histogram,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    gen_trees,
    histogram,
    histogram_from_keys,
)
from .counting import (
    NonIntegerResultError,
    TruncSeries,
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    fuss_catalan,
    lagrange_coefficient,
    narayana,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
)

__version__ = "0.1.0"
