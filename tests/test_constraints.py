import math
import random

import pytest

from reljoint.candidates import Candidate, PairCandidates
from reljoint.clues import NEG_INF, ClueSet, TypeClue, UniquenessClue
from reljoint.constraints import (
    FAMILY_ORDER,
    ConflictBlock,
    HardConstraint,
    build_decision_vars,
    census,
    dump_constraints,
    expand,
    generate_blocks,
    generate_hard,
    soften,
)


def pair(pair_id, subject, object, rels, conf=0.6, max_mention=0.6):
    return PairCandidates(
        pair_id=pair_id,
        subject=subject,
        object=object,
        candidates={
            rel: Candidate(conf, max_mention, (f"{pair_id}_m0",)) for rel in rels
        },
    )


def var_key(vars):
    return {(v.pair_id, v.relation): v.id for v in vars}


class TestGenerateHard:
    def test_cross_pair_shared_subject(self):
        candidates = [
            pair("p1", "USA", "New York", ["LargestCity"]),
            pair("p2", "USA", "Washington", ["LocationCity"]),
        ]
        clues = ClueSet(sr=[TypeClue("sr", "LargestCity", "LocationCity")])
        vars, constraints = generate_hard(candidates, clues)
        ids = var_key(vars)
        assert [c.family for c in constraints] == ["sr"]
        assert constraints[0].var_ids == (
            min(ids[("p1", "LargestCity")], ids[("p2", "LocationCity")]),
            max(ids[("p1", "LargestCity")], ids[("p2", "LocationCity")]),
        )

    def test_intra_pair_disagreement(self):
        candidates = [pair("p1", "USA", "Washington", ["Capital", "LocationCity"])]
        clues = ClueSet(sr=[TypeClue("sr", "Capital", "LocationCity")])
        _, constraints = generate_hard(candidates, clues)
        assert len(constraints) == 1
        assert constraints[0].family == "sr"

    def test_shared_object_family(self):
        candidates = [
            pair("p1", "NYU", "New York", ["LocationCity"]),
            pair("p2", "Columbia", "New York", ["LocationCountry"]),
        ]
        clues = ClueSet(ro=[TypeClue("ro", "LocationCity", "LocationCountry")])
        _, constraints = generate_hard(candidates, clues)
        assert [c.family for c in constraints] == ["ro"]

    def test_rer_is_directed(self):
        candidates = [
            pair("p1", "Fuld", "USA", ["Nationality"]),
            pair("p2", "USA", "New York", ["LocationCity"]),
        ]
        directed = ClueSet(rer=[TypeClue("rer", "Nationality", "LocationCity")])
        vars, constraints = generate_hard(candidates, directed)
        ids = var_key(vars)
        assert [c.family for c in constraints] == ["rer"]
        # the clue runs object-of-Nationality against subject-of-LocationCity
        assert constraints[0].var_ids == (
            ids[("p1", "Nationality")],
            ids[("p2", "LocationCity")],
        )
        reversed_clue = ClueSet(rer=[TypeClue("rer", "LocationCity", "Nationality")])
        _, none = generate_hard(candidates, reversed_clue)
        assert none == []

    def test_rer_same_pair_join_skipped(self):
        # a pair whose subject equals its object joins against itself
        candidates = [pair("p1", "loop", "loop", ["r1", "r2"])]
        clues = ClueSet(rer=[TypeClue("rer", "r1", "r2")])
        _, constraints = generate_hard(candidates, clues)
        assert constraints == []

    def test_ou_groups_need_two_members(self):
        clues = ClueSet(ou=[UniquenessClue("ou", "Capital")])
        one = [pair("p1", "USA", "W", ["Capital"])]
        _, constraints = generate_hard(one, clues)
        assert constraints == []
        two = one + [pair("p2", "USA", "NY", ["Capital"])]
        vars, constraints = generate_hard(two, clues)
        assert [c.family for c in constraints] == ["ou"]
        assert constraints[0].var_ids == (0, 1)

    def test_su_groups_on_objects(self):
        clues = ClueSet(su=[UniquenessClue("su", "Capital")])
        candidates = [
            pair("p1", "USA", "W", ["Capital"]),
            pair("p2", "Prussia", "W", ["Capital"]),
            pair("p3", "France", "Paris", ["Capital"]),
        ]
        _, constraints = generate_hard(candidates, clues)
        assert [c.family for c in constraints] == ["su"]
        assert len(constraints[0].var_ids) == 2

    def test_unused_clue_is_silent(self):
        clues = ClueSet(sr=[TypeClue("sr", "ghost1", "ghost2")])
        vars, constraints = generate_hard([pair("p1", "a", "b", ["r1"])], clues)
        assert len(vars) == 1
        assert constraints == []

    def test_objective_coefficients(self):
        candidates = [pair("p1", "a", "b", ["r1"], conf=1.0, max_mention=0.2)]
        vars, _ = generate_hard(candidates, ClueSet())
        assert vars[0].objective_coeff == pytest.approx(1.2)

    def test_deterministic_under_permutation(self, rng):
        candidates = [
            pair(f"p{i}", f"s{i % 4}", f"o{i % 3}", ["r1", "r2"]) for i in range(8)
        ]
        clues = ClueSet(
            sr=[TypeClue("sr", "r1", "r2")],
            ro=[TypeClue("ro", "r1", "r2")],
            ou=[UniquenessClue("ou", "r1")],
        )
        vars, constraints = generate_hard(candidates, clues)
        for seed in range(4):
            shuffled = list(candidates)
            random.Random(seed).shuffle(shuffled)
            vars2, constraints2 = generate_hard(shuffled, clues)
            assert vars2 == vars
            assert constraints2 == constraints

    def test_emitted_pairs_share_required_entity(self, rng):
        subjects = [f"s{i}" for i in range(5)]
        objects = [f"o{i}" for i in range(5)]
        candidates = [
            pair(f"p{i}", rng.choice(subjects), rng.choice(objects), ["r1", "r2", "r3"])
            for i in range(12)
        ]
        clues = ClueSet(
            sr=[TypeClue("sr", "r1", "r2")],
            ro=[TypeClue("ro", "r2", "r3")],
            rer=[TypeClue("rer", "r1", "r3")],
        )
        vars, constraints = generate_hard(candidates, clues)
        by_id = {v.id: v for v in vars}
        for c in constraints:
            va, vb = (by_id[i] for i in c.var_ids)
            if c.family == "sr":
                assert va.subject == vb.subject
            elif c.family == "ro":
                assert va.object == vb.object
            elif c.family == "rer":
                assert va.object == vb.subject

    def test_census_counts(self):
        candidates = [
            pair("p1", "USA", "W", ["Capital", "LocationCity"]),
            pair("p2", "USA", "NY", ["Capital"]),
        ]
        clues = ClueSet(
            sr=[TypeClue("sr", "Capital", "LocationCity")],
            ou=[UniquenessClue("ou", "Capital")],
        )
        _, constraints = generate_hard(candidates, clues)
        counts = census(constraints)
        # sr fires twice: inside p1 and across p1/p2 (same subject)
        assert counts["hard"] == {"sr": 2, "ro": 0, "rer": 0, "ou": 1, "su": 0}


class TestSoften:
    def make(self, k_score):
        candidates = [
            pair("p1", "s", "o1", ["r1"]),
            pair("p2", "s", "o2", ["r2"]),
            pair("p3", "s", "o3", ["r1"]),
        ]
        clues = ClueSet(
            sr=[TypeClue("sr", "r1", "r2", k_score, "mined")],
            ou=[UniquenessClue("ou", "r1", 0.9, "mined")],
        )
        return generate_hard(candidates, clues)

    def test_penalty_arithmetic(self):
        vars, hard = self.make(-4.0)
        remaining, aug = soften(vars, hard, alpha=0.2)
        assert [c.family for c in remaining] == ["ou"]
        assert all(a.penalty == pytest.approx(0.8) for a in aug.aux_vars)
        assert [a.id for a in aug.aux_vars] == [len(vars) + i for i in range(len(aug.aux_vars))]

    def test_zero_alpha_zero_penalties(self):
        vars, hard = self.make(-4.0)
        _, aug = soften(vars, hard, alpha=0.0)
        assert all(a.penalty == 0.0 for a in aug.aux_vars)

    def test_manual_clues_stay_hard(self):
        vars, hard = self.make(NEG_INF)
        remaining, aug = soften(vars, hard, alpha=1.0)
        assert aug.aux_vars == ()
        assert {c.family for c in remaining} == {"sr", "ou"}

    def test_uniqueness_never_softened(self):
        vars, hard = self.make(-2.0)
        remaining, aug = soften(vars, hard, alpha=5.0)
        assert {c.family for c in remaining} == {"ou"}
        assert all(a.family == "sr" for a in aug.aux_vars)
        assert all(math.isfinite(a.penalty) and a.penalty > 0 for a in aug.aux_vars)

    def test_negative_alpha_rejected(self):
        vars, hard = self.make(-2.0)
        with pytest.raises(ValueError):
            soften(vars, hard, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        vars, hard = self.make(-2.0)
        with pytest.raises(ValueError, match="finite"):
            soften(vars, hard, alpha=alpha)


def test_dump_constraints_file(tmp_path):
    from reljoint.constraints import dump_constraints, soften

    candidates = [
        pair("p1", "s", "o1", ["r1"]),
        pair("p2", "s", "o2", ["r2"]),
        pair("p3", "s", "o3", ["r2"]),
    ]
    clues = ClueSet(
        sr=[TypeClue("sr", "r1", "r2", -2.5, "mined")],
        ou=[UniquenessClue("ou", "r2", 0.9, "mined")],
    )
    vars, hard = generate_hard(candidates, clues)
    remaining, aug = soften(vars, hard, alpha=1.0)
    out = tmp_path / "constraints.tsv"
    dump_constraints(out, vars, remaining, aug)
    lines = out.read_text(encoding="utf-8").splitlines()
    hard_lines = [l for l in lines if l.startswith("hard\t")]
    soft_lines = [l for l in lines if l.startswith("soft\t")]
    assert len(hard_lines) == len(remaining)
    assert len(soft_lines) == len(aug.aux_vars)
    assert any("\tou\tr2\t" in l for l in hard_lines)
    assert all("penalty=" in l for l in soft_lines)
    dump_constraints(tmp_path / "again.tsv", vars, remaining, aug)
    assert (tmp_path / "again.tsv").read_bytes() == out.read_bytes()


def naive_join(candidates, clues):
    """Every two variables tested against the clues, one at a time: the
    reference the bucket join of `generate_blocks` must reproduce."""
    vars = build_decision_vars(candidates)
    rows = []
    for va in vars:
        for vb in vars:
            if va.id < vb.id and va.subject == vb.subject:
                clue = clues.sr_clue(va.relation, vb.relation)
                if clue is not None:
                    rows.append(HardConstraint("sr", (va.id, vb.id), clue))
            if va.id < vb.id and va.object == vb.object:
                clue = clues.ro_clue(va.relation, vb.relation)
                if clue is not None:
                    rows.append(HardConstraint("ro", (va.id, vb.id), clue))
            if va.object == vb.subject and va.pair_id != vb.pair_id:
                clue = clues.rer_clue(va.relation, vb.relation)
                if clue is not None:
                    rows.append(HardConstraint("rer", (va.id, vb.id), clue))
    for family, slot, lookup in (
        ("ou", "subject", clues.ou_clue),
        ("su", "object", clues.su_clue),
    ):
        for va in vars:
            clue = lookup(va.relation)
            members = tuple(
                v.id
                for v in vars
                if v.relation == va.relation and getattr(v, slot) == getattr(va, slot)
            )
            if clue is not None and len(members) > 1 and members[0] == va.id:
                rows.append(HardConstraint(family, members, clue))
    return vars, sorted(rows, key=lambda c: (FAMILY_ORDER[c.family], c.var_ids))


def random_world(rng):
    """Candidates over a few entities (self-loop pairs included) and clues
    with finite and -inf scores, same-relation clues and both directions
    of `rer`."""
    entities = [f"e{i}" for i in range(rng.randint(2, 5))]
    rels = ["r1", "r2", "r3", "r4"]
    candidates = [
        pair(
            f"p{i:02d}",
            rng.choice(entities),
            rng.choice(entities),
            rng.sample(rels, rng.randint(1, 3)),
        )
        for i in range(rng.randint(3, 16))
    ]

    def score():
        return rng.choice([NEG_INF, round(rng.uniform(-6.0, -3.1), 3)])

    def type_clues(kind, symmetric):
        keys = {
            (a, b) for a in rels for b in rels if (a <= b or not symmetric) and rng.random() < 0.35
        }
        return [TypeClue(kind, a, b, score(), "mined") for a, b in sorted(keys)]

    clues = ClueSet(
        sr=type_clues("sr", True),
        ro=type_clues("ro", True),
        rer=type_clues("rer", False),
        ou=[UniquenessClue("ou", r) for r in rels if rng.random() < 0.3],
        su=[UniquenessClue("su", r) for r in rels if rng.random() < 0.3],
    )
    return candidates, clues


class TestBlocks:
    """`generate_blocks` is the only join; `generate_hard`, `census`,
    `soften` and `dump_constraints` see its blocks as the pairwise rows
    they stand for."""

    def test_rows_match_the_naive_join(self, rng):
        for trial in range(300):
            candidates, clues = random_world(rng)
            assert generate_hard(candidates, clues) == naive_join(candidates, clues), trial

    def test_census_and_soften_of_blocks_match_rows(self, rng, tmp_path):
        for trial in range(150):
            candidates, clues = random_world(rng)
            vars, blocks = generate_blocks(candidates, clues)
            _, rows = generate_hard(candidates, clues)
            assert sum(isinstance(c, ConflictBlock) for c in blocks) <= len(rows)
            assert census(blocks) == census(rows), trial
            alpha = rng.choice([0.0, 0.15, 1.0])
            remaining_blocks, soft_blocks = soften(vars, blocks, alpha)
            remaining_rows, soft_rows = soften(vars, rows, alpha)
            assert soft_blocks == soft_rows, trial
            assert expand(remaining_blocks) == remaining_rows, trial
            assert census(remaining_blocks, soft_blocks) == census(remaining_rows, soft_rows)
            assert all(
                not math.isfinite(c.clue.k_score)
                for c in remaining_blocks
                if isinstance(c, ConflictBlock)
            )
            dump_constraints(tmp_path / "blocks.tsv", vars, remaining_blocks, soft_blocks)
            dump_constraints(tmp_path / "rows.tsv", vars, remaining_rows, soft_rows)
            assert (tmp_path / "blocks.tsv").read_bytes() == (tmp_path / "rows.tsv").read_bytes()

    def test_hub_clue_is_one_block(self):
        candidates = [pair(f"p{i}", "hub", f"o{i}", ["ra", "rb"]) for i in range(4)]
        clues = ClueSet(sr=[TypeClue("sr", "ra", "rb")])
        vars, blocks = generate_blocks(candidates, clues)
        ids = var_key(vars)
        assert blocks == [
            ConflictBlock(
                "sr",
                clues.sr[0],
                tuple(ids[(f"p{i}", "ra")] for i in range(4)),
                tuple(ids[(f"p{i}", "rb")] for i in range(4)),
            )
        ]
        # each pair's own ra/rb join is one of the 16 rows
        assert census(blocks)["hard"]["sr"] == 16

    def test_same_relation_clue_counts_distinct_pairs(self):
        candidates = [pair(f"p{i}", "hub", f"o{i}", ["r1"]) for i in range(5)]
        clues = ClueSet(sr=[TypeClue("sr", "r1", "r1")])
        _, blocks = generate_blocks(candidates, clues)
        assert [(b.left, b.right) for b in blocks] == [((0, 1, 2, 3, 4),) * 2]
        assert census(blocks)["hard"]["sr"] == 10
        assert [c.var_ids for c in expand(blocks)] == [
            (i, j) for i in range(5) for j in range(i + 1, 5)
        ]

    def test_rer_block_leaves_out_the_self_loop_join(self):
        candidates = [
            pair("p1", "x", "loop", ["r1"]),
            pair("p2", "loop", "loop", ["r1", "r2"]),
            pair("p3", "loop", "y", ["r2"]),
        ]
        clues = ClueSet(rer=[TypeClue("rer", "r1", "r2")])
        vars, blocks = generate_blocks(candidates, clues)
        ids = var_key(vars)
        rows = [c.var_ids for c in expand(blocks)]
        assert (ids[("p2", "r1")], ids[("p2", "r2")]) not in rows
        assert sorted(rows) == sorted(
            [
                (ids[("p1", "r1")], ids[("p2", "r2")]),
                (ids[("p1", "r1")], ids[("p3", "r2")]),
                (ids[("p2", "r1")], ids[("p3", "r2")]),
            ]
        )
