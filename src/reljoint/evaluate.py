"""Baseline integrators, precision-recall evaluation, and output diffing.

The OR-ing baseline unions each mention's argmax prediction into a
pair-level multi-label output; the greedy baseline walks candidates by
confidence and keeps whatever does not clash with an earlier pick. Both
produce the same ranked-prediction records the joint solver emits, so one
evaluation path serves all of them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .candidates import NA_LABEL, MentionPrediction, PairCandidates
from .kb import DataFileError

if TYPE_CHECKING:
    from .clues import ClueSet
    from .constraints import DecisionVar
    from .ilp import Solution

GoldTriple = tuple[str, str, str]


@dataclass(slots=True)
class RankedPrediction:
    pair_id: str
    subject: str
    object: str
    relation: str
    score: float

    @property
    def triple(self) -> GoldTriple:
        return (self.subject, self.relation, self.object)


@dataclass(slots=True)
class PrPoint:
    rank: int
    precision: float
    recall: float


@dataclass(frozen=True)
class PeakF1:
    precision: float
    recall: float
    f1: float
    rank: int


@dataclass
class DiffReport:
    eliminated: int
    corrected: int
    introduced: int
    details: list[dict] = field(default_factory=list)


def _rank(predictions: Iterable[RankedPrediction]) -> list[RankedPrediction]:
    return sorted(predictions, key=lambda p: (-p.score, p.pair_id, p.relation))


def mintzpp(
    mentions_by_pair: Mapping[str, Sequence[MentionPrediction]]
) -> list[RankedPrediction]:
    """OR-ing integration: each mention votes its single best label.

    A mention whose best label is the no-relation marker contributes
    nothing. A predicted relation is scored by the best score any voting
    mention gave it.
    """
    out: list[RankedPrediction] = []
    for pair_id in sorted(mentions_by_pair):
        mentions = mentions_by_pair[pair_id]
        votes: dict[str, float] = {}
        # a vote is a max over mentions, so their order does not matter
        for m in mentions:
            scores = m.scores
            if not scores:
                continue
            score = max(scores.values())
            winner = min(rel for rel, s in scores.items() if s == score)
            if winner == NA_LABEL:
                continue
            votes[winner] = max(votes.get(winner, 0.0), score)
        first = mentions[0]
        for rel in sorted(votes):
            if votes[rel] > 0:
                out.append(
                    RankedPrediction(pair_id, first.subject, first.object, rel, votes[rel])
                )
    return _rank(out)


def rule_based(
    candidates: Sequence[PairCandidates], clues: ClueSet
) -> list[RankedPrediction]:
    """Greedy conflict resolution: walk candidates by confidence and keep
    each one unless `clues.joins` joins it, at a shared entity, with one
    already kept (the join `generate_blocks` makes). A check reads the
    index once per relation kept at an entity, however many pairs hold it.
    """
    ranked = _rank(
        RankedPrediction(pc.pair_id, pc.subject, pc.object, rel, cand.conf)
        for pc in candidates
        for rel, cand in pc.candidates.items()
    )
    same_subject = clues.joins["subject", "subject"]
    same_object = clues.joins["object", "object"]
    object_subject = clues.joins["object", "subject"]
    subject_object = clues.joins["subject", "object"]
    # entity -> relation -> ids of the kept pairs with it in that slot; a
    # pair has one candidate per relation, so no id repeats in a list
    by_subject: dict[str, dict[str, list[str]]] = {}
    by_object: dict[str, dict[str, list[str]]] = {}

    def clashes(cand: RankedPrediction) -> bool:
        rel = cand.relation
        row = same_subject.get(rel)
        if row:
            for kept_rel in by_subject.get(cand.subject, ()):
                if kept_rel in row:
                    return True
        row = same_object.get(rel)
        if row:
            for kept_rel in by_object.get(cand.object, ()):
                if kept_rel in row:
                    return True
        # rer joins the candidate with every kept pair but its own
        own = [cand.pair_id]
        row = object_subject.get(rel)
        if row:
            for kept_rel, pair_ids in by_subject.get(cand.object, {}).items():
                if kept_rel in row and pair_ids != own:
                    return True
        row = subject_object.get(rel)
        if row:
            for kept_rel, pair_ids in by_object.get(cand.subject, {}).items():
                if kept_rel in row and pair_ids != own:
                    return True
        return False

    kept: list[RankedPrediction] = []
    for cand in ranked:
        if not clashes(cand):
            kept.append(cand)
            rel, pair_id = cand.relation, cand.pair_id
            by_subject.setdefault(cand.subject, {}).setdefault(rel, []).append(pair_id)
            by_object.setdefault(cand.object, {}).setdefault(rel, []).append(pair_id)
    # a subsequence of the ranked list is already in rank order
    return kept


def ranked_from_solution(
    vars: Sequence[DecisionVar], solution: Solution
) -> list[RankedPrediction]:
    """Selected decision variables as ranked predictions, scored by their
    objective coefficient."""
    out = [
        RankedPrediction(v.pair_id, v.subject, v.object, v.relation, v.objective_coeff)
        for v in vars
        if solution.assignment.get(v.id) == 1
    ]
    return _rank(out)


def pr_curve(
    predictions: Sequence[RankedPrediction], gold: Iterable[GoldTriple]
) -> list[PrPoint]:
    """Precision/recall after each prefix of the ranked prediction list."""
    gold_set = set(gold)
    if not gold_set:
        raise ValueError("gold set is empty")
    seen: set[tuple[str, str]] = set()
    for p in predictions:
        key = (p.pair_id, p.relation)
        if key in seen:
            raise ValueError(f"duplicate prediction for {key}")
        seen.add(key)
    curve: list[PrPoint] = []
    hits = 0
    for rank, p in enumerate(_rank(predictions), start=1):
        if p.triple in gold_set:
            hits += 1
        curve.append(PrPoint(rank=rank, precision=hits / rank, recall=hits / len(gold_set)))
    return curve


def peak_f1(curve: Sequence[PrPoint]) -> PeakF1:
    """The point of the curve with the highest F1; earliest rank on ties."""
    best = PeakF1(precision=0.0, recall=0.0, f1=0.0, rank=0)
    for point in curve:
        if point.precision + point.recall == 0:
            continue
        f1 = 2 * point.precision * point.recall / (point.precision + point.recall)
        if f1 > best.f1:
            best = PeakF1(point.precision, point.recall, f1, point.rank)
    return best


def diff_analysis(
    baseline: Sequence[RankedPrediction],
    optimized: Sequence[RankedPrediction],
    gold: Iterable[GoldTriple],
) -> DiffReport:
    """How the optimized output differs from the baseline against gold.

    * eliminated: baseline predictions that are wrong and no longer made;
    * corrected: pairs whose baseline predictions were all wrong but now
      include at least one gold relation;
    * introduced: correct predictions for pairs the baseline left empty.
    """
    gold_set = set(gold)
    opt_keys = {(p.pair_id, p.relation) for p in optimized}
    base_pairs: dict[str, list[RankedPrediction]] = {}
    for p in baseline:
        base_pairs.setdefault(p.pair_id, []).append(p)
    opt_pairs: dict[str, list[RankedPrediction]] = {}
    for p in optimized:
        opt_pairs.setdefault(p.pair_id, []).append(p)

    eliminated = sum(
        1
        for p in baseline
        if p.triple not in gold_set and (p.pair_id, p.relation) not in opt_keys
    )
    corrected = 0
    for pair_id, preds in sorted(base_pairs.items()):
        if any(p.triple in gold_set for p in preds):
            continue
        if any(p.triple in gold_set for p in opt_pairs.get(pair_id, [])):
            corrected += 1
    introduced = sum(
        1
        for p in optimized
        if p.triple in gold_set and p.pair_id not in base_pairs
    )

    details = []
    for pair_id in sorted(set(base_pairs) | set(opt_pairs)):
        base_rels = sorted(p.relation for p in base_pairs.get(pair_id, []))
        opt_rels = sorted(p.relation for p in opt_pairs.get(pair_id, []))
        if base_rels != opt_rels:
            details.append(
                {
                    "pair_id": pair_id,
                    "baseline": base_rels,
                    "optimized": opt_rels,
                    "gold_hits": sorted(
                        p.relation
                        for p in opt_pairs.get(pair_id, [])
                        if p.triple in gold_set
                    ),
                }
            )
    return DiffReport(
        eliminated=eliminated, corrected=corrected, introduced=introduced, details=details
    )


def write_ranked_predictions(path: str | Path, predictions: Sequence[RankedPrediction]) -> None:
    """Tab-separated ranked predictions: pair_id, subject, relation,
    object, score. Scores use repr so they round-trip exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        for p in _rank(predictions):
            handle.write(
                "\t".join([p.pair_id, p.subject, p.relation, p.object, repr(p.score)]) + "\n"
            )


def read_ranked_predictions(path: str | Path) -> list[RankedPrediction]:
    out: list[RankedPrediction] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise DataFileError("expected 5 tab-separated fields", path, lineno)
            pair_id, subject, relation, obj, score = fields
            try:
                value = float(score)
            except ValueError:
                value = math.nan
            # a NaN would make the ranking depend on the line order
            if not math.isfinite(value):
                raise DataFileError(f"score {score!r} is not a finite number", path, lineno)
            out.append(RankedPrediction(pair_id, subject, obj, relation, value))
    return out


def write_pr_csv(path: str | Path, curve: Sequence[PrPoint]) -> None:
    """Two-column CSV (recall, precision), one row per rank."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["recall", "precision"])
        for point in curve:
            writer.writerow([repr(point.recall), repr(point.precision)])


def total_confidence(predictions: Sequence[RankedPrediction]) -> float:
    return math.fsum(p.score for p in _rank(predictions))
