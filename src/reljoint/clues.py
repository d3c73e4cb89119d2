"""Mining and handling of cross-prediction consistency clues.

Two clue categories are derived from a KB index:

* type clues (`sr`, `ro`, `rer`) mark relation pairs whose argument sets
  barely co-occur, scored by a log-scale set-overlap coefficient;
* uniqueness clues (`ou`, `su`) mark relations whose subjects (objects)
  almost always bind a single object (subject).

Clues can also be read from a hand-written file in the same schema the
miner exports.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

from .defaults import DEFAULT_KAPPA, DEFAULT_THETA
from .kb import KbIndex

NEG_INF = float("-inf")

TYPE_KINDS = ("sr", "ro", "rer")
UNIQUENESS_KINDS = ("ou", "su")
ALL_KINDS = TYPE_KINDS + UNIQUENESS_KINDS

MINED = "mined"
MANUAL = "manual"


class ClueFileError(ValueError):
    """Clue file failed validation; message lists the offending entries."""


@dataclass(frozen=True)
class TypeClue:
    """Two relations whose argument slots should not share an entity.

    `sr` and `ro` are symmetric and stored with (rel_a, rel_b) in
    lexicographic order. `rer` is directed: rel_a's object slot conflicts
    with rel_b's subject slot. `k_score` is the overlap score that mined
    the clue; manual clues carry -inf (maximally confident).
    """

    kind: str
    rel_a: str
    rel_b: str
    k_score: float = NEG_INF
    provenance: str = MANUAL

    def __post_init__(self):
        if self.kind not in TYPE_KINDS:
            raise ValueError(f"unknown type-clue kind {self.kind!r}")
        if self.kind in ("sr", "ro") and self.rel_a > self.rel_b:
            low, high = self.rel_b, self.rel_a
            object.__setattr__(self, "rel_a", low)
            object.__setattr__(self, "rel_b", high)
        if not self.k_score <= 0:
            raise ValueError(f"k_score must be <= 0, got {self.k_score}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.rel_a, self.rel_b)


@dataclass(frozen=True)
class UniquenessClue:
    """A relation expecting a unique object per subject (`ou`) or a unique
    subject per object (`su`); `ratio` is the observed uniqueness fraction."""

    kind: str
    rel: str
    ratio: float = 1.0
    provenance: str = MANUAL

    def __post_init__(self):
        if self.kind not in UNIQUENESS_KINDS:
            raise ValueError(f"unknown uniqueness-clue kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must be in [0,1], got {self.ratio}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.rel)


@dataclass
class ClueSet:
    """The five clue collections, deduplicated by canonical key."""

    sr: list[TypeClue] = field(default_factory=list)
    ro: list[TypeClue] = field(default_factory=list)
    rer: list[TypeClue] = field(default_factory=list)
    ou: list[UniquenessClue] = field(default_factory=list)
    su: list[UniquenessClue] = field(default_factory=list)

    def __post_init__(self):
        self._validate()
        self._sr_index = {(c.rel_a, c.rel_b): c for c in self.sr}
        self._ro_index = {(c.rel_a, c.rel_b): c for c in self.ro}
        self._rer_index = {(c.rel_a, c.rel_b): c for c in self.rer}
        self._ou_index = {c.rel: c for c in self.ou}
        self._su_index = {c.rel: c for c in self.su}

    def _validate(self) -> None:
        duplicates = []
        for clues in (self.sr, self.ro, self.rer, self.ou, self.su):
            seen = set()
            for clue in clues:
                if clue.key in seen:
                    duplicates.append(clue.key)
                seen.add(clue.key)
        if duplicates:
            raise ClueFileError(f"duplicate clues: {sorted(duplicates)}")

    def sr_clue(self, rel_a: str, rel_b: str) -> TypeClue | None:
        key = (rel_a, rel_b) if rel_a <= rel_b else (rel_b, rel_a)
        return self._sr_index.get(key)

    def ro_clue(self, rel_a: str, rel_b: str) -> TypeClue | None:
        key = (rel_a, rel_b) if rel_a <= rel_b else (rel_b, rel_a)
        return self._ro_index.get(key)

    def rer_clue(self, rel_from: str, rel_to: str) -> TypeClue | None:
        """Directed lookup: rel_from's object against rel_to's subject."""
        return self._rer_index.get((rel_from, rel_to))

    def ou_clue(self, rel: str) -> UniquenessClue | None:
        return self._ou_index.get(rel)

    def su_clue(self, rel: str) -> UniquenessClue | None:
        return self._su_index.get(rel)

    def counts(self) -> dict[str, int]:
        return {kind: len(getattr(self, kind)) for kind in ALL_KINDS}

    def restrict(self, kinds: Iterable[str]) -> "ClueSet":
        """Keep only the given clue families (for ablation runs)."""
        wanted = set(kinds)
        unknown = wanted - set(ALL_KINDS)
        if unknown:
            raise ValueError(f"unknown clue kinds: {sorted(unknown)}")
        return ClueSet(**{kind: list(getattr(self, kind)) if kind in wanted else [] for kind in ALL_KINDS})


def kulczynski(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    """Log of the mean directional overlap ratio between two entity sets.

    Returns log(0.5 * (|a&b|/|a| + |a&b|/|b|)) with the natural logarithm,
    or -inf when the intersection is empty. Raises ValueError on an empty
    input set (the ratio is undefined).
    """
    if not a or not b:
        raise ValueError("kulczynski requires two non-empty sets")
    shared = len(a & b)
    if shared == 0:
        return NEG_INF
    return math.log(0.5 * (shared / len(a) + shared / len(b)))


def mine_type_clues(
    kb: KbIndex, kappa: float = DEFAULT_KAPPA
) -> tuple[list[TypeClue], list[TypeClue], list[TypeClue]]:
    """Score all relation pairs and keep those strictly below `kappa`.

    For an unordered pair {r1, r2} the subject sets give an `sr` clue and
    the object sets an `ro` clue; the two directed object-vs-subject scores
    give `rer` clues, including the self pair r1 = r2 (a relation's own
    object slot may conflict with its subject slot). `sr`/`ro` self pairs
    are vacuous and never mined. A relation with an empty subject or object
    set is skipped for the affected score only.
    """
    if not kappa < 0:
        raise ValueError(f"kappa must be negative, got {kappa}")
    sr: list[TypeClue] = []
    ro: list[TypeClue] = []
    rer: list[TypeClue] = []
    rels = kb.relations
    for i, r1 in enumerate(rels):
        s1, o1 = kb.subjects(r1), kb.objects(r1)
        for r2 in rels[i:]:
            s2, o2 = kb.subjects(r2), kb.objects(r2)
            if r1 != r2:
                if s1 and s2:
                    score = kulczynski(s1, s2)
                    if score < kappa:
                        sr.append(TypeClue("sr", r1, r2, score, MINED))
                if o1 and o2:
                    score = kulczynski(o1, o2)
                    if score < kappa:
                        ro.append(TypeClue("ro", r1, r2, score, MINED))
            if o1 and s2:
                score = kulczynski(o1, s2)
                if score < kappa:
                    rer.append(TypeClue("rer", r1, r2, score, MINED))
            if r1 != r2 and o2 and s1:
                score = kulczynski(o2, s1)
                if score < kappa:
                    rer.append(TypeClue("rer", r2, r1, score, MINED))
    sr.sort(key=lambda c: c.key)
    ro.sort(key=lambda c: c.key)
    rer.sort(key=lambda c: c.key)
    return sr, ro, rer


def mine_uniqueness_clues(
    kb: KbIndex, theta: float = DEFAULT_THETA
) -> tuple[list[UniquenessClue], list[UniquenessClue]]:
    """Keep relations whose argument-uniqueness fraction reaches `theta`.

    The `ou` ratio is the fraction of a relation's subjects bound to exactly
    one object; `su` is symmetric over objects. Comparison is inclusive so
    theta = 1.0 demands perfect functionality.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    ou: list[UniquenessClue] = []
    su: list[UniquenessClue] = []
    for rel in kb.relations:
        fanout = kb.subject_fanout(rel)
        ratio = sum(1 for n in fanout.values() if n == 1) / len(fanout)
        if ratio >= theta:
            ou.append(UniquenessClue("ou", rel, ratio, MINED))
        fanin = kb.object_fanin(rel)
        ratio = sum(1 for n in fanin.values() if n == 1) / len(fanin)
        if ratio >= theta:
            su.append(UniquenessClue("su", rel, ratio, MINED))
    return ou, su


def mine_clues(
    kb: KbIndex, kappa: float = DEFAULT_KAPPA, theta: float = DEFAULT_THETA
) -> ClueSet:
    """Run both miners over the KB and bundle the result."""
    sr, ro, rer = mine_type_clues(kb, kappa)
    ou, su = mine_uniqueness_clues(kb, theta)
    return ClueSet(sr=sr, ro=ro, rer=rer, ou=ou, su=su)


def _score_to_json(score: float) -> float | None:
    # JSON has no -inf; null stands for "disjoint argument sets".
    return None if score == NEG_INF else score


def _score_from_json(value) -> float:
    if value is None:
        return NEG_INF
    if isinstance(value, (int, float)) and not isinstance(value, bool) and not math.isnan(value):
        return float(value)
    raise ClueFileError(f"invalid k_score value: {value!r}")


def _parse_type_entry(kind: str, entry) -> TypeClue:
    if isinstance(entry, list):
        if len(entry) != 2 or not all(isinstance(r, str) and r.strip() for r in entry):
            raise ClueFileError(f"{kind} entry must be a pair of relation names: {entry!r}")
        return TypeClue(kind, entry[0], entry[1], NEG_INF, MANUAL)
    if isinstance(entry, dict):
        rels = entry.get("relations")
        if (
            not isinstance(rels, list)
            or len(rels) != 2
            or not all(isinstance(r, str) and r.strip() for r in rels)
        ):
            raise ClueFileError(f"{kind} entry needs a two-name 'relations' list: {entry!r}")
        score = _score_from_json(entry.get("k_score"))
        return TypeClue(kind, rels[0], rels[1], score, entry.get("provenance", MINED))
    raise ClueFileError(f"unrecognized {kind} entry: {entry!r}")


def _parse_uniqueness_entry(kind: str, entry) -> UniquenessClue:
    if isinstance(entry, str):
        if not entry.strip():
            raise ClueFileError(f"{kind} entry has an empty relation name")
        return UniquenessClue(kind, entry, 1.0, MANUAL)
    if isinstance(entry, dict):
        rel = entry.get("relation")
        if not isinstance(rel, str) or not rel.strip():
            raise ClueFileError(f"{kind} entry needs a 'relation' name: {entry!r}")
        ratio = entry.get("ratio", 1.0)
        if isinstance(ratio, bool) or not isinstance(ratio, (int, float)):
            raise ClueFileError(f"{kind} entry has a non-numeric ratio: {entry!r}")
        return UniquenessClue(kind, rel, float(ratio), entry.get("provenance", MINED))
    raise ClueFileError(f"unrecognized {kind} entry: {entry!r}")


def load_clue_file(path: str | Path) -> ClueSet:
    """Load a clue file (hand-written or exported by `save_clue_file`).

    Bare pairs / relation names are manual clues; entries with a score
    field keep their mined score. Unknown keys, a kind whose value is not
    a list, malformed entries (a bool is not a number) and duplicates
    raise ClueFileError.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ClueFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ClueFileError(f"{path}: top level must be an object")
    unknown = set(payload) - set(ALL_KINDS)
    if unknown:
        raise ClueFileError(f"{path}: unknown clue kinds {sorted(unknown)}")
    collections: dict[str, list] = {}
    for kind in ALL_KINDS:
        entries = payload.get(kind, [])
        if not isinstance(entries, list):
            raise ClueFileError(f"{path}: {kind} must be a list of entries, got {entries!r}")
        parse = _parse_type_entry if kind in TYPE_KINDS else _parse_uniqueness_entry
        collections[kind] = [parse(kind, entry) for entry in entries]
    return ClueSet(**collections)


def save_clue_file(clues: ClueSet, path: str | Path) -> None:
    """Write a clue set in the load_clue_file schema.

    Manual clues are written in the bare form, mined ones as objects with
    their k_score / ratio. Output is sorted, so identical clue sets always
    serialize identically.
    """
    payload: dict[str, list] = {}
    for kind in TYPE_KINDS:
        entries = []
        for clue in sorted(getattr(clues, kind), key=lambda c: c.key):
            if clue.provenance == MANUAL:
                entries.append([clue.rel_a, clue.rel_b])
            else:
                entries.append(
                    {"relations": [clue.rel_a, clue.rel_b], "k_score": _score_to_json(clue.k_score)}
                )
        payload[kind] = entries
    for kind in UNIQUENESS_KINDS:
        entries = []
        for clue in sorted(getattr(clues, kind), key=lambda c: c.key):
            if clue.provenance == MANUAL:
                entries.append(clue.rel)
            else:
                entries.append({"relation": clue.rel, "ratio": clue.ratio})
        payload[kind] = entries
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


def merge_clue_sets(*clue_sets: ClueSet) -> ClueSet:
    """Union clue sets; on a key collision the manual clue wins."""
    merged: dict[str, dict] = {kind: {} for kind in ALL_KINDS}
    for cs in clue_sets:
        for kind in ALL_KINDS:
            for clue in getattr(cs, kind):
                existing = merged[kind].get(clue.key)
                if existing is None or (
                    existing.provenance != MANUAL and clue.provenance == MANUAL
                ):
                    merged[kind][clue.key] = clue
    return ClueSet(**{kind: sorted(by_key.values(), key=lambda c: c.key) for kind, by_key in merged.items()})


def prune_clues(clues: ClueSet, candidates: Sequence, max_relations: int) -> ClueSet:
    """Keep clues whose relations all rank in the top `max_relations` by
    candidate frequency (descending, ties by relation name).

    `max_relations` of 0, or at least the number of distinct candidate
    relations, is the identity.
    """
    if max_relations < 0:
        raise ValueError(f"max_relations must be >= 0, got {max_relations}")
    if max_relations == 0:
        return clues
    freq: Counter[str] = Counter()
    for pair in candidates:
        for rel in pair.candidates:
            freq[rel] += 1
    ranked = sorted(freq, key=lambda rel: (-freq[rel], rel))
    if max_relations >= len(ranked):
        return clues
    top = set(ranked[:max_relations])
    kept: dict[str, list] = {}
    for kind in TYPE_KINDS:
        kept[kind] = [c for c in getattr(clues, kind) if c.rel_a in top and c.rel_b in top]
    for kind in UNIQUENESS_KINDS:
        kept[kind] = [c for c in getattr(clues, kind) if c.rel in top]
    return ClueSet(**kept)
