import random

import pytest

from reljoint.candidates import build_pair_candidates, load_predictions
from reljoint.clues import TypeClue, mine_clues
from reljoint.constraints import (
    DecisionVar,
    HardConstraint,
    generate_blocks,
    generate_hard,
    soften,
)
from reljoint.ilp import IlpModel, build_model
from reljoint.kb import KbIndex, Triple, read_triples
from reljoint.synth import SynthConfig, conflict_schema, generate


def kb_from(*rows: tuple[str, str, str]) -> KbIndex:
    return KbIndex(Triple(s, r, o) for s, r, o in rows)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def random_model(
    rng: random.Random,
    min_decision: int = 4,
    max_decision: int = 14,
    with_links: bool = False,
    max_total: int | None = None,
) -> IlpModel:
    """Seeded random model with mixed pairwise/group/linking constraints."""
    n = rng.randint(min_decision, max_decision)
    coeffs = [round(rng.uniform(0.05, 2.0), 6) for i in range(n)]
    pairwise = set()
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        pairwise.add((min(i, j), max(i, j)))
    groups = []
    for _ in range(rng.randint(0, max(0, n // 4))):
        size = rng.randint(2, min(4, n))
        groups.append(tuple(sorted(rng.sample(range(n), size))))
    links = []
    if with_links:
        budget = (max_total - n) if max_total is not None else n // 2
        for _ in range(rng.randint(0, max(0, min(n // 2, budget)))):
            a, b = rng.sample(range(n), 2)
            coeffs.append(-round(rng.uniform(0.0, 1.5), 6))
            links.append((a, b, n + len(links)))
    return IlpModel(
        coeffs=coeffs,
        num_decision=n,
        pairwise=sorted(pairwise),
        groups=groups,
        links=links,
    )


def chain_instance(coeff_a: float, coeff_b: float, coeff_c: float):
    """Three variables where a conflicts with b and b with c, but a and c
    are compatible; the canonical greedy-vs-exact divergence shape."""
    vars = [
        DecisionVar(0, "pa", "s", "oa", "ra", coeff_a),
        DecisionVar(1, "pb", "s", "ob", "rb", coeff_b),
        DecisionVar(2, "pc", "s", "oc", "rc", coeff_c),
    ]
    clue_ab = TypeClue("sr", "ra", "rb", -4.0, "mined")
    clue_bc = TypeClue("sr", "rb", "rc", -4.0, "mined")
    hard = [
        HardConstraint("sr", (0, 1), clue_ab),
        HardConstraint("sr", (1, 2), clue_bc),
    ]
    return vars, hard


def soft_pair_model(coeff_a: float, coeff_b: float, penalty: float):
    """Two conflicting variables whose constraint is relaxed at the given
    penalty; built through the real soften path."""
    vars = [
        DecisionVar(0, "p1", "s", "o1", "r1", coeff_a),
        DecisionVar(1, "p2", "s", "o2", "r2", coeff_b),
    ]
    clue = TypeClue("sr", "r1", "r2", -1.0, "mined")
    hard = [HardConstraint("sr", (0, 1), clue)]
    remaining, aug = soften(vars, hard, alpha=penalty)
    assert remaining == [] and len(aug.aux_vars) == 1
    return vars, remaining, aug


def type_leaks(facts: list[Triple], seed: int, per_relation: int) -> list[Triple]:
    """Cross-type facts for a conflict-world KB: each borrows one argument
    from a relation of another argument type, so mining gives those
    relation pairs finite (below-threshold) type-clue scores."""
    schema = {r.name: r for r in conflict_schema()}
    subjects = {r: sorted({t.subject for t in facts if t.relation == r}) for r in schema}
    objects = {r: sorted({t.object for t in facts if t.relation == r}) for r in schema}
    rng = random.Random(f"leak-{seed}")
    leaks = []
    for rel, spec in sorted(schema.items()):
        for k in range(per_relation):
            if k % 2 == 0:
                donor = rng.choice(
                    sorted(r for r in schema if schema[r].subject_type != spec.subject_type)
                )
                s, o = rng.choice(subjects[donor]), rng.choice(objects[rel])
            else:
                donor = rng.choice(
                    sorted(r for r in schema if schema[r].object_type != spec.object_type)
                )
                s, o = rng.choice(subjects[rel]), rng.choice(objects[donor])
            if s != o:
                leaks.append(Triple(s, rel, o))
    return leaks


def synth_model(
    tmp_path,
    seed: int,
    pairs: int,
    leaks: int = 0,
    alpha: float | None = None,
    blocks: bool = False,
):
    """Model of a seeded conflict world (noise 0.4) under its mined clues;
    `leaks` cross-type facts per relation are added to the KB before
    mining, and a given `alpha` softens the finite-score rows. The type
    constraints are pairwise rows, or bicliques with `blocks`."""
    world = generate(SynthConfig(seed=seed, pairs=pairs, noise=0.4), tmp_path / f"w{seed}_{pairs}")
    facts = read_triples(world.triples_path)
    clues = mine_clues(KbIndex(facts + type_leaks(facts, seed, leaks)))
    candidates = build_pair_candidates(load_predictions(world.predictions_path))
    vars, hard = (generate_blocks if blocks else generate_hard)(candidates, clues)
    soft = None
    if alpha is not None:
        hard, soft = soften(vars, hard, alpha)
    return build_model(vars, hard, soft)


@pytest.fixture
def rng():
    return random.Random(20240817)
