import json
import math

import pytest
from hypothesis import given, strategies as st

from reljoint.candidates import Candidate, PairCandidates
from reljoint.clues import (
    ALL_KINDS,
    NEG_INF,
    ClueFileError,
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
from conftest import kb_from


class TestKulczynski:
    def test_identical_sets_score_zero(self):
        a = {"v", "w", "x", "y", "z"}
        assert kulczynski(a, set(a)) == 0.0

    def test_disjoint_sets_are_minus_inf(self):
        assert kulczynski({"x"}, {"y"}) == NEG_INF

    def test_hand_computed_example(self):
        # overlap 1, ratios 1/2 and 1/3, mean 5/12
        assert kulczynski({"a", "b"}, {"b", "c", "d"}) == pytest.approx(
            math.log(5 / 12), abs=1e-15
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            kulczynski(set(), {"a"})
        with pytest.raises(ValueError):
            kulczynski({"a"}, set())

    small_sets = st.sets(st.integers(0, 40), min_size=1, max_size=25)

    @given(a=small_sets, b=small_sets)
    def test_symmetry_and_sign(self, a, b):
        score = kulczynski(a, b)
        assert score == kulczynski(b, a)
        assert score <= 0.0
        assert (score == 0.0) == (a == b)

    @given(a=small_sets, b=small_sets)
    def test_against_direct_arithmetic(self, a, b):
        shared = len(a & b)
        if shared == 0:
            assert kulczynski(a, b) == NEG_INF
        else:
            expected = math.log(0.5 * (shared / len(a) + shared / len(b)))
            assert abs(kulczynski(a, b) - expected) <= 1e-12

    @given(
        base=st.sets(st.integers(0, 30), min_size=2, max_size=20),
        extra=st.sets(st.integers(31, 60), min_size=1, max_size=10),
    )
    def test_growing_intersection_never_decreases(self, base, extra):
        # same |a|, |b|; move one element of b into the overlap
        a = set(base)
        b_low = set(list(extra)[:1]) | set(list(base)[1:])
        b_high = set(list(base)[: len(b_low)])
        if len(b_high) != len(b_low):
            return
        assert kulczynski(a, b_high) >= kulczynski(a, b_low)


class TestMineTypeClues:
    def test_disjoint_subjects_give_sr_clue(self):
        kb = kb_from(
            ("a", "r1", "z1"), ("b", "r1", "z1"), ("c", "r1", "z1"),
            ("x", "r2", "z1"), ("y", "r2", "z1"), ("z", "r2", "z1"),
        )
        sr, _, _ = mine_type_clues(kb, kappa=-3.0)
        assert [(c.rel_a, c.rel_b, c.k_score) for c in sr] == [("r1", "r2", NEG_INF)]

    def test_shared_subjects_never_clue(self):
        kb = kb_from(("a", "r1", "x"), ("b", "r1", "x"), ("a", "r2", "y"), ("b", "r2", "y"))
        sr, _, _ = mine_type_clues(kb, kappa=-50.0)
        assert sr == []

    def test_rer_boundary_at_ln_point_one(self):
        # |O_r1| = 10, |S_r2| = 10, one shared entity: score ln(0.1) ~ -2.303
        rows = [("s", "r1", f"o{i}") for i in range(9)] + [("s", "r1", "shared")]
        rows += [("shared", "r2", "t")] + [(f"s{i}", "r2", "t") for i in range(9)]
        kb = kb_from(*rows)
        _, _, rer_tight = mine_type_clues(kb, kappa=-3.0)
        assert not any(c.rel_a == "r1" and c.rel_b == "r2" for c in rer_tight)
        _, _, rer_loose = mine_type_clues(kb, kappa=-2.0)
        match = [c for c in rer_loose if (c.rel_a, c.rel_b) == ("r1", "r2")]
        assert len(match) == 1
        assert match[0].k_score == pytest.approx(math.log(0.1), abs=1e-12)

    def test_rer_self_pair_is_mined(self):
        # a relation whose objects never appear as its subjects
        kb = kb_from(("c1", "cap", "t1"), ("c2", "cap", "t2"))
        _, _, rer = mine_type_clues(kb, kappa=-3.0)
        assert [(c.rel_a, c.rel_b) for c in rer] == [("cap", "cap")]

    def test_sr_self_pairs_never_mined(self):
        kb = kb_from(("a", "r1", "b"))
        sr, ro, _ = mine_type_clues(kb, kappa=-1e-9)
        assert not any(c.rel_a == c.rel_b for c in sr + ro)

    def test_kappa_must_be_negative(self):
        with pytest.raises(ValueError):
            mine_type_clues(kb_from(("a", "r", "b")), kappa=0.0)
        with pytest.raises(ValueError):
            mine_type_clues(kb_from(("a", "r", "b")), kappa=float("nan"))

    def test_agrees_with_brute_force_rescoring(self, rng):
        relations = [f"r{i}" for i in range(6)]
        entities = [f"e{i}" for i in range(15)]
        rows = []
        for rel in relations:
            for _ in range(rng.randint(1, 12)):
                rows.append((rng.choice(entities), rel, rng.choice(entities)))
        kb = kb_from(*rows)
        kappa = -1.5
        sr, ro, rer = mine_type_clues(kb, kappa)

        def score(a, b):
            return NEG_INF if not (a & b) else math.log(0.5 * (len(a & b) / len(a) + len(a & b) / len(b)))

        expected_sr, expected_ro, expected_rer = set(), set(), set()
        for r1 in kb.relations:
            for r2 in kb.relations:
                s1, o1 = kb.subjects(r1), kb.objects(r1)
                s2, o2 = kb.subjects(r2), kb.objects(r2)
                if r1 < r2:
                    if s1 and s2 and score(s1, s2) < kappa:
                        expected_sr.add((r1, r2))
                    if o1 and o2 and score(o1, o2) < kappa:
                        expected_ro.add((r1, r2))
                if o1 and s2 and score(o1, s2) < kappa:
                    expected_rer.add((r1, r2))
        assert {(c.rel_a, c.rel_b) for c in sr} == expected_sr
        assert {(c.rel_a, c.rel_b) for c in ro} == expected_ro
        assert {(c.rel_a, c.rel_b) for c in rer} == expected_rer


class TestMineUniquenessClues:
    def test_perfect_functionality(self):
        kb = kb_from(("a", "r", "x"), ("b", "r", "y"), ("c", "r", "z"))
        ou, su = mine_uniqueness_clues(kb, theta=0.8)
        assert [(c.rel, c.ratio) for c in ou] == [("r", 1.0)]
        assert [(c.rel, c.ratio) for c in su] == [("r", 1.0)]

    def test_seven_of_ten_misses_point_eight(self):
        rows = [(f"s{i}", "r", f"o{i}") for i in range(10)]
        # three subjects get a second object: 7/10 remain unique
        rows += [(f"s{i}", "r", f"extra{i}") for i in range(3)]
        kb = kb_from(*rows)
        ou, _ = mine_uniqueness_clues(kb, theta=0.8)
        assert ou == []
        ou_loose, _ = mine_uniqueness_clues(kb, theta=0.7)
        assert [(c.rel, c.ratio) for c in ou_loose] == [("r", 0.7)]

    def test_capital_toy_kb_in_both(self):
        kb = kb_from(
            ("USA", "capital", "Washington"),
            ("France", "capital", "Paris"),
            ("Japan", "capital", "Tokyo"),
        )
        ou, su = mine_uniqueness_clues(kb, theta=0.8)
        assert [c.rel for c in ou] == ["capital"]
        assert [c.rel for c in su] == ["capital"]

    def test_bijection_scores_one_on_both_sides(self):
        kb = kb_from(*[(f"s{i}", "r", f"o{i}") for i in range(7)])
        ou, su = mine_uniqueness_clues(kb, theta=1.0)
        assert [c.ratio for c in ou] == [1.0]
        assert [c.ratio for c in su] == [1.0]

    def test_theta_domain(self):
        kb = kb_from(("a", "r", "b"))
        with pytest.raises(ValueError):
            mine_uniqueness_clues(kb, theta=0.0)
        with pytest.raises(ValueError):
            mine_uniqueness_clues(kb, theta=1.2)


class TestClueFile:
    def test_manual_pairs_and_relations(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(
            json.dumps({"sr": [["country", "nationality"]], "ou": ["capital"]}),
            encoding="utf-8",
        )
        clues = load_clue_file(path)
        assert [(c.rel_a, c.rel_b, c.k_score, c.provenance) for c in clues.sr] == [
            ("country", "nationality", NEG_INF, "manual")
        ]
        assert [(c.rel, c.provenance) for c in clues.ou] == [("capital", "manual")]

    def test_empty_file_is_empty_set(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text("{}", encoding="utf-8")
        assert load_clue_file(path).counts() == dict.fromkeys(ALL_KINDS, 0)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(json.dumps({"xx": []}), encoding="utf-8")
        with pytest.raises(ClueFileError, match="xx"):
            load_clue_file(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(
            json.dumps({"sr": [["a", "b"], ["b", "a"]]}), encoding="utf-8"
        )
        with pytest.raises(ClueFileError, match="duplicate"):
            load_clue_file(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(json.dumps({"sr": [["solo"]]}), encoding="utf-8")
        with pytest.raises(ClueFileError):
            load_clue_file(path)

    def test_nan_score_rejected(self, tmp_path):
        # json reads the bare token NaN as a float
        path = tmp_path / "clues.json"
        path.write_text('{"sr": [{"relations": ["a", "b"], "k_score": NaN}]}', encoding="utf-8")
        with pytest.raises(ClueFileError, match="nan"):
            load_clue_file(path)
        with pytest.raises(ValueError):
            TypeClue("sr", "a", "b", float("nan"))

    def test_kind_that_is_not_a_list_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(json.dumps({"ou": 5}), encoding="utf-8")
        with pytest.raises(ClueFileError, match="ou must be a list"):
            load_clue_file(path)

    def test_string_kind_is_not_iterated(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(json.dumps({"sr": "ab"}), encoding="utf-8")
        with pytest.raises(ClueFileError, match="sr must be a list"):
            load_clue_file(path)

    def test_bool_ratio_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(json.dumps({"su": [{"relation": "a", "ratio": True}]}), encoding="utf-8")
        with pytest.raises(ClueFileError, match="non-numeric ratio"):
            load_clue_file(path)

    def test_bool_score_rejected(self, tmp_path):
        path = tmp_path / "clues.json"
        path.write_text(
            json.dumps({"ro": [{"relations": ["a", "b"], "k_score": True}]}), encoding="utf-8"
        )
        with pytest.raises(ClueFileError, match="invalid k_score value: True"):
            load_clue_file(path)

    def test_mined_round_trip(self, tmp_path):
        kb = kb_from(
            ("a", "r1", "x"), ("b", "r1", "y"),
            ("p", "r2", "q"), ("s", "r2", "t"),
        )
        mined = mine_clues(kb, kappa=-3.0, theta=0.8)
        path = tmp_path / "mined.json"
        save_clue_file(mined, path)
        loaded = load_clue_file(path)
        assert loaded.counts() == mined.counts()
        assert {c.key for c in loaded.rer} == {c.key for c in mined.rer}
        assert all(c.provenance == "mined" for c in loaded.sr + loaded.ro + loaded.rer)
        # minus infinity survives the null encoding
        assert all(c.k_score == NEG_INF for c in loaded.sr)

    def test_merge_prefers_manual(self):
        mined = ClueSet(sr=[TypeClue("sr", "a", "b", -4.2, "mined")])
        manual = ClueSet(sr=[TypeClue("sr", "a", "b", NEG_INF, "manual")])
        merged = merge_clue_sets(mined, manual)
        assert len(merged.sr) == 1
        assert merged.sr[0].provenance == "manual"


def _pair(pair_id, rels):
    return PairCandidates(
        pair_id=pair_id,
        subject=f"s_{pair_id}",
        object=f"o_{pair_id}",
        candidates={rel: Candidate(0.5, 0.5, (f"{pair_id}_m0",)) for rel in rels},
    )


class TestPruneClues:
    def make_clues(self):
        return ClueSet(
            sr=[TypeClue("sr", "r1", "r2", -4.0, "mined")],
            ou=[UniquenessClue("ou", "r3", 0.9, "mined")],
        )

    def make_candidates(self):
        pairs = []
        for i in range(50):
            pairs.append(_pair(f"a{i:03d}", ["r1"]))
        for i in range(30):
            pairs.append(_pair(f"b{i:03d}", ["r2"]))
        for i in range(5):
            pairs.append(_pair(f"c{i:03d}", ["r3"]))
        return pairs

    def test_no_pruning_cases(self):
        clues = self.make_clues()
        candidates = self.make_candidates()
        assert prune_clues(clues, candidates, 0) is clues
        assert prune_clues(clues, candidates, 3) is clues
        assert prune_clues(clues, candidates, 99) is clues

    def test_top_two_keeps_only_fully_covered(self):
        pruned = prune_clues(self.make_clues(), self.make_candidates(), 2)
        assert [(c.rel_a, c.rel_b) for c in pruned.sr] == [("r1", "r2")]
        assert pruned.ou == []

    def test_top_one_drops_everything(self):
        pruned = prune_clues(self.make_clues(), self.make_candidates(), 1)
        assert sum(pruned.counts().values()) == 0

    def test_output_is_subset(self):
        clues = self.make_clues()
        for k in range(4):
            pruned = prune_clues(clues, self.make_candidates(), k)
            assert {c.key for c in pruned.sr} <= {c.key for c in clues.sr}
            assert {c.key for c in pruned.ou} <= {c.key for c in clues.ou}


def test_restrict_families():
    clues = ClueSet(
        sr=[TypeClue("sr", "a", "b")],
        ou=[UniquenessClue("ou", "c")],
    )
    only_sr = clues.restrict(["sr"])
    assert only_sr.counts() == {"sr": 1, "ro": 0, "rer": 0, "ou": 0, "su": 0}
    with pytest.raises(ValueError):
        clues.restrict(["bogus"])
