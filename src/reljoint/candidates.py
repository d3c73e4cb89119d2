"""Turn per-sentence relation scores into per-pair candidate sets.

Each entity pair is seen through one or more mentions (sentences), each
carrying a relation -> score map. A mention admits its top-k relations
above a confidence floor as candidates; the pair-level confidence of a
relation is the sum of its scores over the mentions that admitted it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .defaults import DEFAULT_MIN_CONF, DEFAULT_TOP_K
from .kb import DataFileError

log = logging.getLogger(__name__)

# Reserved no-relation label; never becomes a candidate.
NA_LABEL = "NA"

_ID_FIELDS = ("pair_id", "subject", "object", "mention_id")


class PredictionFileError(DataFileError):
    """Malformed predictions file."""


@dataclass(slots=True)
class MentionPrediction:
    """One sentence-level score distribution for an entity pair."""

    pair_id: str
    subject: str
    object: str
    mention_id: str
    scores: Mapping[str, float]

    def __post_init__(self):
        for rel, score in self.scores.items():
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score for {rel!r} out of [0,1]: {score}")


@dataclass(slots=True)
class Candidate:
    conf: float
    max_mention: float
    supporting_mentions: tuple[str, ...]


@dataclass(slots=True)
class PairCandidates:
    pair_id: str
    subject: str
    object: str
    candidates: Mapping[str, Candidate]


def select_mention_candidates(
    scores: Mapping[str, float],
    top_k: int = DEFAULT_TOP_K,
    min_conf: float = DEFAULT_MIN_CONF,
) -> list[str]:
    """The mention's up-to-top_k relations by score, floor applied.

    NA and non-positive scores are excluded; ties at the cut fall to the
    lexicographically smaller relation name.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if not 0.0 <= min_conf <= 1.0:
        raise ValueError(f"min_conf must be in [0,1], got {min_conf}")
    eligible = sorted(
        (-score, rel)
        for rel, score in scores.items()
        if rel != NA_LABEL and score > 0.0 and score >= min_conf
    )
    return [rel for _, rel in eligible[:top_k]]


def aggregate(
    mentions: Sequence[MentionPrediction],
    top_k: int = DEFAULT_TOP_K,
    min_conf: float = DEFAULT_MIN_CONF,
) -> PairCandidates:
    """Combine one pair's mentions into its candidate relation set.

    A relation's confidence sums the scores of exactly the mentions that
    admitted it as a candidate; max_mention is the best of those scores.
    """
    if not mentions:
        raise ValueError("aggregate needs at least one mention")
    first = mentions[0]
    if len(mentions) > 1:
        seen_ids: set[str] = set()
        for m in mentions:
            if (m.pair_id, m.subject, m.object) != (first.pair_id, first.subject, first.object):
                raise ValueError(
                    f"mention {m.mention_id!r} does not match pair {first.pair_id!r}"
                )
            if m.mention_id in seen_ids:
                raise ValueError(f"duplicate mention id {m.mention_id!r} in pair {m.pair_id!r}")
            seen_ids.add(m.mention_id)
        mentions = sorted(mentions, key=lambda m: m.mention_id)

    # Visiting mentions in id order leaves every relation's scores and
    # supporter ids in id order.
    support: dict[str, tuple[list[float], list[str]]] = {}
    for m in mentions:
        scores = m.scores
        for rel in select_mention_candidates(scores, top_k, min_conf):
            values, ids = support.setdefault(rel, ([], []))
            values.append(scores[rel])
            ids.append(m.mention_id)

    candidates: dict[str, Candidate] = {}
    for rel in sorted(support):
        values, ids = support[rel]
        # fsum in mention-id order keeps the stored value exactly
        # recomputable from the raw input.
        candidates[rel] = Candidate(math.fsum(values), max(values), tuple(ids))
    return PairCandidates(first.pair_id, first.subject, first.object, candidates)


def build_pair_candidates(
    mentions_by_pair: Mapping[str, Sequence[MentionPrediction]],
    top_k: int = DEFAULT_TOP_K,
    min_conf: float = DEFAULT_MIN_CONF,
) -> list[PairCandidates]:
    """Aggregate every pair, dropping pairs with no surviving candidate."""
    pairs = []
    for pair_id in sorted(mentions_by_pair):
        pc = aggregate(mentions_by_pair[pair_id], top_k, min_conf)
        if pc.candidates:
            pairs.append(pc)
    return pairs


def load_predictions(path: str | Path) -> dict[str, list[MentionPrediction]]:
    """Read the line-delimited JSON predictions file, grouped by pair.

    Each line is an object with string pair_id, subject, object and
    mention_id, and a relation -> score map whose scores are JSON numbers
    in [0, 1]; anything else raises PredictionFileError. Scores are taken
    as given; mentions whose scores sum past a distribution (> 1 plus
    float slack) are counted and flagged with a single warning, not
    rescaled.
    """
    grouped: dict[str, list[MentionPrediction]] = {}
    unnormalized = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PredictionFileError(f"invalid JSON ({exc})", path, lineno) from exc
            try:
                mention = _mention(record)
                # strict JSON holds a tab or newline only as an escape
                if "\\" in line:
                    _check_separators(mention)
            except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
                raise PredictionFileError(f"bad record ({exc})", path, lineno) from exc
            if math.fsum(mention.scores.values()) > 1.0 + 1e-6 * len(mention.scores):
                unnormalized += 1
            grouped.setdefault(mention.pair_id, []).append(mention)
    if unnormalized:
        log.warning(
            "%d mention(s) in %s have scores summing past 1; left unscaled", unnormalized, path
        )
    return grouped


def _mention(record) -> MentionPrediction:
    """One decoded line as a mention: the ids must be strings and the
    scores numbers (not bools)."""
    for name in _ID_FIELDS:
        value = record[name]
        if type(value) is not str and not isinstance(value, str):
            raise TypeError(f"{name} must be a string, got {value!r}")
    # the decoded map is this call's own, so it becomes the mention's
    scores = record["scores"]
    for rel, score in scores.items():
        if type(score) is not float:
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise TypeError(f"score for {rel!r} must be a number, got {score!r}")
            scores[rel] = float(score)
    return MentionPrediction(
        record["pair_id"], record["subject"], record["object"], record["mention_id"], scores
    )


def _check_separators(mention: MentionPrediction) -> None:
    """Ids and relation names go into tab-separated lines, so none may hold
    a tab, newline or carriage return."""
    named = [(name, getattr(mention, name)) for name in _ID_FIELDS]
    for name, value in named + [("relation", rel) for rel in mention.scores]:
        if "\t" in value or "\n" in value or "\r" in value:
            raise ValueError(f"{name} {value!r} holds a tab, newline or carriage return")


def write_predictions_file(path: str | Path, mentions: Iterable[MentionPrediction]) -> None:
    """Serialize mentions in the load_predictions line format."""
    with open(path, "w", encoding="utf-8") as handle:
        for m in mentions:
            record = {
                "pair_id": m.pair_id,
                "subject": m.subject,
                "object": m.object,
                "mention_id": m.mention_id,
                "scores": {rel: m.scores[rel] for rel in sorted(m.scores)},
            }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
