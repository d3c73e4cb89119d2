"""Joint inference for relation predictions: mine consistency clues from a
KB triple store and pick a globally coherent prediction set with an exact
0-1 integer linear program."""

from .candidates import (
    NA_LABEL,
    Candidate,
    MentionPrediction,
    PairCandidates,
    aggregate,
    build_pair_candidates,
    load_predictions,
    select_mention_candidates,
)
from .clues import (
    ClueSet,
    TypeClue,
    UniquenessClue,
    kulczynski,
    load_clue_file,
    merge_clue_sets,
    mine_clues,
    mine_type_clues,
    mine_uniqueness_clues,
    prune_clues,
    save_clue_file,
)
from .constraints import (
    AuxVar,
    ConflictBlock,
    DecisionVar,
    HardConstraint,
    SoftAugmentation,
    generate_blocks,
    generate_hard,
    soften,
)
from .evaluate import (
    DiffReport,
    PeakF1,
    PrPoint,
    RankedPrediction,
    diff_analysis,
    mintzpp,
    peak_f1,
    pr_curve,
    ranked_from_solution,
    rule_based,
)
from .ilp import (
    Component,
    IlpModel,
    Solution,
    brute_force,
    build_model,
    check_assignment,
    decompose,
    export_lp,
    selection_objective,
    solve,
)
from .kb import KbIndex, Triple, load_triples, read_triples
from .synth import GeneratedWorld, RelationSpec, SynthConfig, generate

__version__ = "0.1.0"
