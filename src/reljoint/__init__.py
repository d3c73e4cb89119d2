"""Joint inference for relation predictions: mine consistency clues from a
KB triple store and pick a globally coherent prediction set with an exact
0-1 integer linear program.

Importing the package loads none of its modules: each exported name is
imported from its home module on first use and then kept here.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "candidates": (
        "NA_LABEL",
        "Candidate",
        "MentionPrediction",
        "PairCandidates",
        "aggregate",
        "build_pair_candidates",
        "load_predictions",
        "select_mention_candidates",
    ),
    "clues": (
        "ClueSet",
        "TypeClue",
        "UniquenessClue",
        "kulczynski",
        "load_clue_file",
        "merge_clue_sets",
        "mine_clues",
        "mine_type_clues",
        "mine_uniqueness_clues",
        "prune_clues",
        "save_clue_file",
    ),
    "constraints": (
        "AuxVar",
        "ConflictBlock",
        "DecisionVar",
        "HardConstraint",
        "SoftAugmentation",
        "generate_blocks",
        "generate_hard",
        "soften",
    ),
    "evaluate": (
        "DiffReport",
        "PeakF1",
        "PrPoint",
        "RankedPrediction",
        "diff_analysis",
        "mintzpp",
        "peak_f1",
        "pr_curve",
        "ranked_from_solution",
        "rule_based",
    ),
    "ilp": (
        "Component",
        "IlpModel",
        "Solution",
        "brute_force",
        "build_model",
        "check_assignment",
        "decompose",
        "export_lp",
        "selection_objective",
        "solve",
    ),
    "kb": ("KbIndex", "Triple", "load_triples", "read_triples"),
    "synth": ("GeneratedWorld", "RelationSpec", "SynthConfig", "generate"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
