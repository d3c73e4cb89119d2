"""Seeded synthetic worlds for end-to-end checks.

A world is a typed entity universe, a KB of facts respecting a relation
schema (argument types plus an optional one-to-one cardinality), a gold
subset posed as the prediction task, and noisy per-mention score
distributions over those gold pairs.

Construction keeps two guarantees the test suite leans on:

* every relation's argument sets cover enough of their type pool that
  same-type argument sets always overlap strongly, while different types
  never overlap - so type-clue mining recovers exactly the schema's
  type-disjoint relation pairs;
* one-to-one relations are generated as bijections (uniqueness ratios
  exactly 1) and all other relations get enough repeated arguments that
  both uniqueness ratios stay clearly below the mining threshold.

Two modes: "conflict" corrupts mentions toward type-clashing relations so
joint inference has disagreements to resolve; "riedel" concentrates the
task on one dominant relation with disjoint argument pools, yielding no
usable disagreements at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Sequence

from .candidates import NA_LABEL, MentionPrediction, write_predictions_file
from .defaults import (
    DEFAULT_MENTIONS_PER_PAIR,
    DEFAULT_NOISE,
    DEFAULT_PAIRS,
    DEFAULT_SEED,
    DEFAULT_WORLD_MODE,
    WORLD_MODES,
)
from .kb import Triple, write_triples

# Construction constants; validation re-checks the resulting ratios.
_BIJECTION_FILL = 0.85  # fraction of the smaller pool a one-to-one relation covers
_OBJECT_FILL = 0.75  # fraction of the object pool a many-to-many relation uses
_SECOND_OBJECT_FRACTION = 0.35  # subjects receiving a second object
_MIN_COVERAGE = 0.7  # every argument set must cover this much of its pool
_UNIQUENESS_CEILING = 0.78  # many-to-many uniqueness ratios must stay below


class SynthConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RelationSpec:
    name: str
    subject_type: str
    object_type: str
    functional: bool = False  # one-to-one when true


def conflict_schema() -> list[RelationSpec]:
    return [
        RelationSpec("capital", "country", "city", functional=True),
        RelationSpec("leader", "country", "person", functional=True),
        RelationSpec("headquarters", "org", "city", functional=True),
        RelationSpec("contains", "country", "city"),
        RelationSpec("location_city", "org", "city"),
        RelationSpec("nationality", "person", "country"),
        RelationSpec("employer", "person", "org"),
    ]


def conflict_entity_counts() -> dict[str, int]:
    return {"country": 500, "city": 600, "person": 550, "org": 500}


def riedel_schema() -> list[RelationSpec]:
    # First relation dominates the task; argument pools never cross, so no
    # clue ever fires on the candidates.
    return [
        RelationSpec("contains", "location", "location"),
        RelationSpec("origin", "person", "location"),
        RelationSpec("member", "person", "org"),
    ]


def riedel_entity_counts() -> dict[str, int]:
    return {"location": 700, "person": 500, "org": 420}


_RIEDEL_DOMINANT_SHARE = 0.7


@dataclass
class SynthConfig:
    seed: int = DEFAULT_SEED
    pairs: int = DEFAULT_PAIRS
    noise: float = DEFAULT_NOISE
    mode: str = DEFAULT_WORLD_MODE
    entity_counts: dict[str, int] = field(default_factory=dict)
    relations: list[RelationSpec] = field(default_factory=list)
    mentions_per_pair: tuple[int, int] = DEFAULT_MENTIONS_PER_PAIR

    def __post_init__(self):
        if self.mode not in WORLD_MODES:
            raise SynthConfigError(f"unknown mode {self.mode!r}")
        if not self.entity_counts:
            self.entity_counts = (
                conflict_entity_counts() if self.mode == "conflict" else riedel_entity_counts()
            )
        if not self.relations:
            self.relations = conflict_schema() if self.mode == "conflict" else riedel_schema()
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise SynthConfigError(f"noise must be in [0,1], got {self.noise}")
        if self.pairs < 1:
            raise SynthConfigError("pairs must be >= 1")
        lo, hi = self.mentions_per_pair
        if not 1 <= lo <= hi:
            raise SynthConfigError(f"bad mentions_per_pair range {self.mentions_per_pair}")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SynthConfigError("duplicate relation names in schema")
        for rel in self.relations:
            for t in (rel.subject_type, rel.object_type):
                if t not in self.entity_counts:
                    raise SynthConfigError(f"relation {rel.name} uses unknown type {t!r}")
                if self.entity_counts[t] < 12:
                    raise SynthConfigError(f"type pool {t!r} too small")
        type_uses: dict[str, int] = {}
        for rel in self.relations:
            type_uses[rel.subject_type] = type_uses.get(rel.subject_type, 0) + 1
            type_uses[rel.object_type] = type_uses.get(rel.object_type, 0) + 1
        if not any(n >= 2 for n in type_uses.values()):
            raise SynthConfigError("schema has no two relations sharing an argument type")
        for rel in self.relations:
            if rel.functional:
                small = min(
                    self.entity_counts[rel.subject_type], self.entity_counts[rel.object_type]
                )
                big = max(
                    self.entity_counts[rel.subject_type], self.entity_counts[rel.object_type]
                )
                if _BIJECTION_FILL * small < _MIN_COVERAGE * big:
                    raise SynthConfigError(
                        f"pools of {rel.name} are too unbalanced for a dense one-to-one relation"
                    )
        if self.mode == "conflict":
            subject_types = {r.subject_type for r in self.relations}
            if len(subject_types) < 2:
                raise SynthConfigError("conflict mode needs at least two subject types")


@dataclass(frozen=True)
class GeneratedWorld:
    triples_path: Path
    gold_path: Path
    predictions_path: Path
    fact_count: int
    pair_count: int


def schema_type_conflicts(
    relations: Sequence[RelationSpec],
) -> tuple[set[tuple[str, str]], set[tuple[str, str]], set[tuple[str, str]]]:
    """The type-disjoint relation pairs the schema implies: symmetric
    subject-subject and object-object pairs, plus directed object-vs-subject
    pairs (self pairs included)."""
    by_name = {r.name: r for r in relations}
    names = sorted(by_name)
    sr: set[tuple[str, str]] = set()
    ro: set[tuple[str, str]] = set()
    rer: set[tuple[str, str]] = set()
    for i, a in enumerate(names):
        for b in names[i:]:
            if a != b:
                if by_name[a].subject_type != by_name[b].subject_type:
                    sr.add((a, b))
                if by_name[a].object_type != by_name[b].object_type:
                    ro.add((a, b))
            if by_name[a].object_type != by_name[b].subject_type:
                rer.add((a, b))
            if a != b and by_name[b].object_type != by_name[a].subject_type:
                rer.add((b, a))
    return sr, ro, rer


def schema_functional(relations: Sequence[RelationSpec]) -> set[str]:
    return {r.name for r in relations if r.functional}


def _entities(config: SynthConfig) -> dict[str, list[str]]:
    return {
        t: [f"{t}_{i:05d}" for i in range(count)]
        for t, count in sorted(config.entity_counts.items())
    }


def _facts_for_relation(
    rel: RelationSpec, pools: dict[str, list[str]], rng: Random
) -> list[tuple[str, str]]:
    subjects_pool = pools[rel.subject_type]
    objects_pool = pools[rel.object_type]
    if rel.functional:
        size = math.ceil(_BIJECTION_FILL * min(len(subjects_pool), len(objects_pool)))
        subjects = rng.sample(subjects_pool, size)
        objects = rng.sample(objects_pool, size)
        return list(zip(subjects, objects))

    subjects = list(subjects_pool)
    rng.shuffle(subjects)
    cycle_len = math.ceil(_OBJECT_FILL * len(objects_pool))
    cycle = rng.sample(objects_pool, cycle_len)
    facts: list[tuple[str, str]] = []

    def pick(pos: int, subject: str, avoid: str | None = None) -> str:
        # walk forward past self-loops and the subject's first object
        for step in range(cycle_len):
            obj = cycle[(pos + step) % cycle_len]
            if obj != subject and obj != avoid:
                return obj
        raise SynthConfigError("object cycle too small to avoid self-loops")

    first_object: dict[str, str] = {}
    for k, subject in enumerate(subjects):
        obj = pick(k % cycle_len, subject)
        first_object[subject] = obj
        facts.append((subject, obj))
    extra = math.ceil(_SECOND_OBJECT_FRACTION * len(subjects))
    base = len(subjects) % cycle_len
    if base == 0:
        base = max(1, cycle_len // 2)
    for k in range(extra):
        subject = subjects[k]
        obj = pick((base + k) % cycle_len, subject, avoid=first_object[subject])
        facts.append((subject, obj))
    return facts


def _check_fact_shape(rel: RelationSpec, facts: list[tuple[str, str]], pools) -> None:
    subjects = {s for s, _ in facts}
    objects = {o for _, o in facts}
    if len(set(facts)) != len(facts):
        raise SynthConfigError(f"duplicate facts generated for {rel.name}")
    for side, used, pool in (
        ("subject", subjects, pools[rel.subject_type]),
        ("object", objects, pools[rel.object_type]),
    ):
        coverage = len(used) / len(pool)
        if coverage < _MIN_COVERAGE:
            raise SynthConfigError(
                f"{rel.name} {side} coverage {coverage:.2f} below {_MIN_COVERAGE}"
            )
    fanout: dict[str, int] = {}
    fanin: dict[str, int] = {}
    for s, o in facts:
        fanout[s] = fanout.get(s, 0) + 1
        fanin[o] = fanin.get(o, 0) + 1
    ou_ratio = sum(1 for n in fanout.values() if n == 1) / len(fanout)
    su_ratio = sum(1 for n in fanin.values() if n == 1) / len(fanin)
    if rel.functional:
        if ou_ratio != 1.0 or su_ratio != 1.0:
            raise SynthConfigError(f"{rel.name} should be one-to-one but is not")
    else:
        if ou_ratio > _UNIQUENESS_CEILING or su_ratio > _UNIQUENESS_CEILING:
            raise SynthConfigError(
                f"{rel.name} uniqueness ratios {ou_ratio:.2f}/{su_ratio:.2f} too high"
            )


def _sample_task(
    config: SynthConfig,
    facts_by_rel: dict[str, list[tuple[str, str]]],
    rng: Random,
) -> list[tuple[str, str, str]]:
    """Pick the gold task pairs; each (subject, object) pair appears once."""
    if config.mode == "riedel":
        dominant = config.relations[0].name
        quotas = {dominant: round(_RIEDEL_DOMINANT_SHARE * config.pairs)}
        rest = config.pairs - quotas[dominant]
        others = [r.name for r in config.relations[1:]]
        for i, name in enumerate(others):
            quotas[name] = rest // len(others) + (1 if i < rest % len(others) else 0)
        chosen: list[tuple[str, str, str]] = []
        used_pairs: set[tuple[str, str]] = set()
        for name in [dominant] + others:
            pool = list(facts_by_rel[name])
            rng.shuffle(pool)
            take = 0
            for s, o in pool:
                if take >= quotas[name]:
                    break
                if (s, o) in used_pairs:
                    continue
                used_pairs.add((s, o))
                chosen.append((s, name, o))
                take += 1
            if take < quotas[name]:
                raise SynthConfigError(
                    f"not enough {name} facts for {quotas[name]} task pairs"
                )
        return chosen

    flat = [
        (s, rel, o)
        for rel in sorted(facts_by_rel)
        for s, o in facts_by_rel[rel]
    ]
    rng.shuffle(flat)
    chosen = []
    used_pairs = set()
    for s, rel, o in flat:
        if len(chosen) >= config.pairs:
            break
        if (s, o) in used_pairs:
            continue
        used_pairs.add((s, o))
        chosen.append((s, rel, o))
    if len(chosen) < config.pairs:
        raise SynthConfigError(
            f"world capacity {len(chosen)} is below the requested {config.pairs} pairs"
        )
    return chosen


def _conflict_mention_scores(
    gold_rel: str,
    corrupt: bool,
    type_conflicting: Sequence[str],
    same_subject_functional: Sequence[str],
    other_relations: Sequence[str],
    rng: Random,
) -> dict[str, float]:
    # ranges are chosen so a mention's scores never sum past 1
    scores: dict[str, float] = {}
    if corrupt:
        if same_subject_functional and rng.random() < 0.3:
            wrong = rng.choice(same_subject_functional)
        else:
            wrong = rng.choice(type_conflicting)
        scores[wrong] = rng.uniform(0.5, 0.7)
        # gold stays an admissible runner-up
        scores[gold_rel] = rng.uniform(0.12, 0.27)
        if rng.random() < 0.3:
            scores[NA_LABEL] = rng.uniform(0.01, 0.02)
    else:
        scores[gold_rel] = rng.uniform(0.5, 0.68)
        if other_relations and rng.random() < 0.5:
            distractor = rng.choice(other_relations)
            scores[distractor] = rng.uniform(0.1, 0.28)
        if rng.random() < 0.3:
            scores[NA_LABEL] = rng.uniform(0.01, 0.03)
    return scores


def _riedel_mention_scores(gold_rel: str, corrupt: bool, rng: Random) -> dict[str, float]:
    if corrupt:
        # the pair is lost to both integrators: the gold score falls below
        # the candidate floor and the mention's best label is no-relation
        return {NA_LABEL: rng.uniform(0.6, 0.9), gold_rel: rng.uniform(0.02, 0.09)}
    scores = {gold_rel: rng.uniform(0.55, 0.9)}
    if rng.random() < 0.3:
        scores[NA_LABEL] = rng.uniform(0.01, 0.09)
    return scores


def generate(config: SynthConfig, out_dir: str | Path) -> GeneratedWorld:
    """Write triples.tsv (the KB), gold.tsv (the task), and
    predictions.jsonl (noisy mention scores) under `out_dir`.

    Byte-deterministic for a fixed config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = Random(config.seed)
    pools = _entities(config)

    facts_by_rel: dict[str, list[tuple[str, str]]] = {}
    for rel in config.relations:
        facts = _facts_for_relation(rel, pools, rng)
        _check_fact_shape(rel, facts, pools)
        facts_by_rel[rel.name] = facts

    task = _sample_task(config, facts_by_rel, rng)

    triples = sorted(
        Triple(s, rel, o) for rel, facts in facts_by_rel.items() for s, o in facts
    )
    triples_path = out / "triples.tsv"
    write_triples(triples_path, triples)

    gold_path = out / "gold.tsv"
    write_triples(gold_path, [Triple(s, rel, o) for s, rel, o in task])

    by_name = {r.name: r for r in config.relations}
    names = sorted(by_name)
    type_conflicting = {
        g: [r for r in names if by_name[r].subject_type != by_name[g].subject_type]
        for g in names
    }
    same_subject_functional = {
        g: [
            r
            for r in names
            if r != g
            and by_name[r].functional
            and by_name[r].subject_type == by_name[g].subject_type
        ]
        for g in names
    }
    other_relations = {g: [r for r in names if r != g] for g in names}
    if config.mode == "conflict":
        missing = [g for g in names if not type_conflicting[g]]
        if missing:
            raise SynthConfigError(
                f"no type-conflicting relation available to corrupt toward for {missing}"
            )

    lo, hi = config.mentions_per_pair
    mentions: list[MentionPrediction] = []
    for index, (subject, gold_rel, obj) in enumerate(task):
        pair_id = f"p{index:06d}"
        for j in range(rng.randint(lo, hi)):
            corrupt = rng.random() < config.noise
            if config.mode == "conflict":
                scores = _conflict_mention_scores(
                    gold_rel,
                    corrupt,
                    type_conflicting[gold_rel],
                    same_subject_functional[gold_rel],
                    other_relations[gold_rel],
                    rng,
                )
            else:
                scores = _riedel_mention_scores(gold_rel, corrupt, rng)
            mentions.append(
                MentionPrediction(
                    pair_id=pair_id,
                    subject=subject,
                    object=obj,
                    mention_id=f"{pair_id}_m{j}",
                    scores=scores,
                )
            )
    predictions_path = out / "predictions.jsonl"
    write_predictions_file(predictions_path, mentions)

    return GeneratedWorld(
        triples_path=triples_path,
        gold_path=gold_path,
        predictions_path=predictions_path,
        fact_count=len(triples),
        pair_count=len(task),
    )
