"""Instantiate consistency constraints over candidate predictions.

Every (pair, candidate relation) becomes a binary decision variable whose
objective coefficient is conf + best mention score. Clue lookups joined
through shared entities yield five at-most-one constraint families; the
three type families can optionally be relaxed into penalized soft
constraints backed by auxiliary variables.

The join keys candidates by (entity, relation) bucket and reads which
buckets clash from `ClueSet.joins`, the one definition of a clash (the
greedy baseline reads it too). One type clue at one entity is one
`ConflictBlock`: no variable of one bucket together with any variable of
the other, standing for |left|·|right| pairwise rows. `generate_blocks` is
the join; `generate_hard` is its canonical expansion into those rows,
which `expand` defines for every consumer that writes or counts rows.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence, Union

from .candidates import PairCandidates
from .clues import ALL_KINDS, TYPE_KINDS, ClueSet, TypeClue, UniquenessClue

log = logging.getLogger(__name__)

FAMILY_ORDER = {kind: rank for rank, kind in enumerate(ALL_KINDS)}


@dataclass(frozen=True)
class DecisionVar:
    id: int
    pair_id: str
    subject: str
    object: str
    relation: str
    objective_coeff: float

    def __post_init__(self):
        if self.objective_coeff <= 0:
            raise ValueError(
                f"objective coefficient must be positive, got {self.objective_coeff}"
            )


@dataclass(frozen=True)
class HardConstraint:
    """At-most-one over `var_ids`; 2 vars for type families, >= 2 for
    uniqueness groups."""

    family: str
    var_ids: tuple[int, ...]
    clue: TypeClue | UniquenessClue


@dataclass(frozen=True)
class ConflictBlock:
    """One type clue at one entity: no variable of `left` together with any
    variable of `right`.

    The sides are ascending variable ids. They are disjoint, except for a
    clue joining a relation with itself, whose one bucket is both sides and
    whose rows are its distinct pairs. `sr`/`ro` rows are (min, max); `rer`
    rows are (object side, subject side), `left` being the object side.
    """

    family: str
    clue: TypeClue
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of pairwise rows the block stands for."""
        if self.left == self.right:
            return len(self.left) * (len(self.left) - 1) // 2
        return len(self.left) * len(self.right)


Constraint = Union[ConflictBlock, HardConstraint]


def canonical_rows(
    blocks: Sequence[tuple[str, Sequence[int], Sequence[int]]],
) -> list[tuple[int, int, int, int]]:
    """The pairwise rows that `(family, left, right)` blocks stand for, as
    (family rank, a, b, block index), sorted: the order `generate_hard`
    writes them in. A `rer` row is (left member, right member), an
    `sr`/`ro` row (min, max), and a block whose sides are equal stands for
    the distinct pairs of its side."""
    rows: list[tuple[int, int, int, int]] = []
    for k, (family, left, right) in enumerate(blocks):
        rank = FAMILY_ORDER[family]
        if left == right:
            rows += [(rank, a, b, k) for a, b in itertools.combinations(left, 2)]
        elif family == "rer":
            rows += [(rank, a, b, k) for a in left for b in right]
        else:
            rows += [(rank, a, b, k) if a < b else (rank, b, a, k) for a in left for b in right]
    rows.sort()
    return rows


def _as_block(c: Constraint) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """A type constraint as (family, left, right); a row is a 1x1 block."""
    if isinstance(c, ConflictBlock):
        return c.family, c.left, c.right
    return c.family, c.var_ids[:1], c.var_ids[1:]


@dataclass(frozen=True)
class AuxVar:
    """Violation indicator for one relaxed type constraint: forced to 1
    exactly when both endpoint variables are selected, costing `penalty`."""

    id: int
    var_a: int
    var_b: int
    penalty: float
    family: str
    clue: TypeClue


@dataclass(frozen=True)
class SoftAugmentation:
    aux_vars: tuple[AuxVar, ...]


def build_decision_vars(candidates: Sequence[PairCandidates]) -> list[DecisionVar]:
    """One densely numbered variable per (pair, candidate relation)."""
    out: list[DecisionVar] = []
    seen_pairs: set[str] = set()
    for pc in sorted(candidates, key=lambda p: p.pair_id):
        if pc.pair_id in seen_pairs:
            raise ValueError(f"duplicate pair id {pc.pair_id!r}")
        seen_pairs.add(pc.pair_id)
        for rel in sorted(pc.candidates):
            cand = pc.candidates[rel]
            out.append(
                DecisionVar(
                    id=len(out),
                    pair_id=pc.pair_id,
                    subject=pc.subject,
                    object=pc.object,
                    relation=rel,
                    objective_coeff=cand.conf + cand.max_mention,
                )
            )
    return out


def generate_blocks(
    candidates: Sequence[PairCandidates], clues: ClueSet
) -> tuple[list[DecisionVar], list[Constraint]]:
    """Join candidate variables through shared entities against the clues.

    Variables are bucketed by (subject, relation) and (object, relation),
    and `clues.joins` says which buckets clash. Emits, in canonical order
    (family, then sides or member ids):

    * `sr` - per subject, one block for each clued pair of its relation
      buckets (a pair holding both relations joins itself);
    * `ro` - likewise over objects;
    * `rer` - per entity, one block from the bucket of pairs holding it as
      object to the bucket of pairs holding it as subject. Joins of a pair
      against itself (subject == object) are degenerate and skipped
      (counted in the log): such a variable gets its own one-row-wide
      block against the other pairs;
    * `ou`/`su` - per clued relation and entity, one at-most-one
      `HardConstraint` group over the competing variables; singleton
      groups are vacuous and dropped.
    """
    vars = build_decision_vars(candidates)

    by_subject: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
    by_object: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
    for v in vars:
        by_subject[v.subject][v.relation].append(v.id)
        by_object[v.object][v.relation].append(v.id)

    blocks: list[ConflictBlock] = []
    groups: list[HardConstraint] = []
    for slots, joins in (
        (by_subject, clues.joins["subject", "subject"]),
        (by_object, clues.joins["object", "object"]),
    ):
        for buckets in slots.values():
            for rel_a, left in buckets.items():
                row = joins.get(rel_a)
                if row is None:
                    continue
                for rel_b, right in buckets.items():
                    # each pair of buckets once; one bucket joins itself only
                    # with two or more members
                    if rel_a > rel_b or rel_b not in row or (rel_a == rel_b and len(left) < 2):
                        continue
                    for clue in row[rel_b]:
                        if clue.kind in TYPE_KINDS:
                            blocks.append(
                                ConflictBlock(clue.kind, clue, tuple(left), tuple(right))
                            )
                        else:
                            groups.append(HardConstraint(clue.kind, tuple(left), clue))

    rer_joins = clues.joins["object", "subject"]
    degenerate_rer = 0
    for entity, obj_buckets in by_object.items():
        subj_buckets = by_subject.get(entity)
        if not subj_buckets:
            continue
        for rel_a, obj_ids in obj_buckets.items():  # pairs with `entity` as object
            row = rer_joins.get(rel_a)
            if row is None:
                continue
            plain = tuple(a for a in obj_ids if vars[a].subject != entity)
            loops = [a for a in obj_ids if vars[a].subject == entity]
            for rel_b, subj_ids in subj_buckets.items():  # ... and as subject
                for clue in row.get(rel_b, ()):
                    right = tuple(subj_ids)
                    if plain:
                        blocks.append(ConflictBlock("rer", clue, plain, right))
                    for a in loops:
                        others = tuple(b for b in right if vars[b].pair_id != vars[a].pair_id)
                        degenerate_rer += len(right) - len(others)
                        if others:
                            blocks.append(ConflictBlock("rer", clue, (a,), others))
    if degenerate_rer:
        log.debug("skipped %d degenerate same-pair rer joins", degenerate_rer)
    blocks.sort(key=lambda b: (FAMILY_ORDER[b.family], b.left, b.right))
    groups.sort(key=lambda c: (FAMILY_ORDER[c.family], c.var_ids))
    return vars, [*blocks, *groups]


def expand(constraints: Sequence[Constraint]) -> list[HardConstraint]:
    """Pairwise rows of the blocks, with the rows and groups given, in the
    canonical order: family-major, then by `var_ids`."""
    typed = [c for c in constraints if c.family in TYPE_KINDS]
    rows = [
        HardConstraint(typed[k].family, (a, b), typed[k].clue)
        for _rank, a, b, k in canonical_rows([_as_block(c) for c in typed])
    ]
    groups = [c for c in constraints if c.family not in TYPE_KINDS]
    return rows + sorted(groups, key=lambda c: (FAMILY_ORDER[c.family], c.var_ids))


def generate_hard(
    candidates: Sequence[PairCandidates], clues: ClueSet
) -> tuple[list[DecisionVar], list[HardConstraint]]:
    """The variables and the canonical pairwise rows and groups of
    `generate_blocks`: `sr`/`ro` rows as (min, max) ids, `rer` rows as
    (object side, subject side), `ou`/`su` groups by ascending id,
    family-major and sorted by `var_ids`."""
    vars, constraints = generate_blocks(candidates, clues)
    return vars, expand(constraints)


def soften(
    vars: Sequence[DecisionVar],
    hard: Sequence[Constraint],
    alpha: float,
) -> tuple[list[Constraint], SoftAugmentation]:
    """Relax finite-score type constraints into penalized violations.

    Each pairwise row of such a constraint (a block stands for all of its
    rows) gets an auxiliary variable with penalty -alpha * k_score, in the
    canonical row order of `expand`; uniqueness groups and -inf (manual)
    constraints stay hard. Auxiliary ids continue after the decision
    variables.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    remaining: list[Constraint] = []
    relaxed: list[Constraint] = []
    for constraint in hard:
        if constraint.family in TYPE_KINDS and math.isfinite(constraint.clue.k_score):
            relaxed.append(constraint)
        else:
            remaining.append(constraint)
    aux = [
        AuxVar(
            id=len(vars) + k,
            var_a=a,
            var_b=b,
            penalty=-alpha * relaxed[i].clue.k_score,  # type: ignore[union-attr]
            family=relaxed[i].family,
            clue=relaxed[i].clue,  # type: ignore[arg-type]
        )
        for k, (_rank, a, b, i) in enumerate(canonical_rows([_as_block(c) for c in relaxed]))
    ]
    return remaining, SoftAugmentation(aux_vars=tuple(aux))


def census(
    constraints: Sequence[Constraint], soft: SoftAugmentation | None = None
) -> dict[str, dict[str, int]]:
    """Constraint counts per family, split into hard rows and soft
    (penalized) rows; a block counts the pairwise rows it stands for."""
    hard_counts = {family: 0 for family in FAMILY_ORDER}
    for c in constraints:
        hard_counts[c.family] += c.size if isinstance(c, ConflictBlock) else 1
    soft_counts = {family: 0 for family in FAMILY_ORDER}
    if soft is not None:
        for a in soft.aux_vars:
            soft_counts[a.family] += 1
    return {"hard": hard_counts, "soft": soft_counts}


def _clue_label(clue: TypeClue | UniquenessClue) -> str:
    if isinstance(clue, TypeClue):
        return f"{clue.rel_a}|{clue.rel_b}"
    return clue.rel


def dump_constraints(
    path,
    vars: Sequence[DecisionVar],
    hard: Sequence[Constraint],
    soft: SoftAugmentation | None = None,
) -> None:
    """Write one constraint per line (kind, family, clue, bound variables)
    for debugging generated models; blocks are written as their rows, in
    the canonical order of `expand`."""
    by_id = {v.id: v for v in vars}

    def describe(var_id: int) -> str:
        v = by_id[var_id]
        return f"{v.pair_id}:{v.relation}"

    with open(path, "w", encoding="utf-8") as handle:
        for c in expand(hard):
            members = " ".join(describe(i) for i in c.var_ids)
            handle.write(f"hard\t{c.family}\t{_clue_label(c.clue)}\t{members}\n")
        if soft is not None:
            for a in soft.aux_vars:
                handle.write(
                    f"soft\t{a.family}\t{_clue_label(a.clue)}\t"
                    f"{describe(a.var_a)} {describe(a.var_b)}\tpenalty={a.penalty!r}\n"
                )
