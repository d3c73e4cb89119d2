import itertools
from collections import defaultdict

import pytest

from reljoint.candidates import (
    Candidate,
    MentionPrediction,
    PairCandidates,
    build_pair_candidates,
    load_predictions,
)
from reljoint.clues import ClueSet, TypeClue, UniquenessClue, mine_clues
from reljoint.constraints import generate_hard
from reljoint.evaluate import (
    RankedPrediction,
    diff_analysis,
    mintzpp,
    peak_f1,
    pr_curve,
    ranked_from_solution,
    read_ranked_predictions,
    rule_based,
    total_confidence,
    write_ranked_predictions,
)
from reljoint.ilp import build_model, check_assignment, solve
from reljoint.kb import DataFileError, load_triples
from reljoint.synth import SynthConfig, generate

from conftest import write_lines
from test_constraints import random_world, stacked_clue_world


def mention(pair_id, mention_id, scores, subject="s", object="o"):
    return MentionPrediction(
        pair_id=pair_id, subject=subject, object=object, mention_id=mention_id, scores=scores
    )


def pc(pair_id, subject, object, rel_confs):
    return PairCandidates(
        pair_id=pair_id,
        subject=subject,
        object=object,
        candidates={
            rel: Candidate(conf, conf, (f"{pair_id}_m0",)) for rel, conf in rel_confs.items()
        },
    )


def rp(pair_id, rel, score, subject="s", object="o"):
    return RankedPrediction(pair_id, subject, object, rel, score)


class TestMintzpp:
    def test_union_of_argmaxes_with_max_score(self):
        mentions = {
            "p": [
                mention("p", "m0", {"r1": 0.4, "r2": 0.1}),
                mention("p", "m1", {"r1": 0.6}),
                mention("p", "m2", {"r2": 0.3}),
            ]
        }
        preds = mintzpp(mentions)
        assert {(p.relation, p.score) for p in preds} == {("r1", 0.6), ("r2", 0.3)}

    def test_all_na_gives_nothing(self):
        mentions = {"p": [mention("p", "m0", {"NA": 0.9, "r1": 0.4})]}
        assert mintzpp(mentions) == []

    def test_single_mention(self):
        mentions = {"p": [mention("p", "m0", {"r1": 0.9})]}
        preds = mintzpp(mentions)
        assert [(p.relation, p.score) for p in preds] == [("r1", 0.9)]

    def test_never_outputs_unvoted_relation(self):
        mentions = {
            "p": [mention("p", "m0", {"r1": 0.5, "r2": 0.45})],
            "q": [mention("q", "m0", {"r3": 0.7, "r1": 0.2})],
        }
        voted = {("p", "r1"), ("q", "r3")}
        assert {(p.pair_id, p.relation) for p in mintzpp(mentions)} == voted


class TestRuleBased:
    def test_pairwise_conflict_keeps_stronger(self):
        candidates = [
            pc("p1", "e", "o1", {"r1": 1.8}),
            pc("p2", "e", "o2", {"r2": 1.2}),
        ]
        clues = ClueSet(sr=[TypeClue("sr", "r1", "r2")])
        kept = rule_based(candidates, clues)
        assert [(p.pair_id, p.relation) for p in kept] == [("p1", "r1")]

    def test_ou_group_matches_exact_solver(self):
        candidates = [
            pc("p1", "e", "o1", {"r": 0.5}),
            pc("p2", "e", "o2", {"r": 0.9}),
            pc("p3", "e", "o3", {"r": 0.7}),
        ]
        clues = ClueSet(ou=[UniquenessClue("ou", "r")])
        kept = rule_based(candidates, clues)
        assert [(p.pair_id, p.score) for p in kept] == [("p2", 0.9)]

    def test_chain_with_dominant_ends(self):
        # conflicts a-b and b-c; a and c are compatible
        candidates = [
            pc("pa", "e1", "x1", {"ra": 1.0}),
            pc("pb", "e1", "x2", {"rb": 0.9}),
            pc("pc", "e1", "x3", {"rc": 0.8}),
        ]
        clues = ClueSet(sr=[TypeClue("sr", "ra", "rb"), TypeClue("sr", "rb", "rc")])
        kept = rule_based(candidates, clues)
        assert {(p.pair_id) for p in kept} == {"pa", "pc"}

    def test_chain_with_dominant_middle_diverges(self):
        candidates = [
            pc("pa", "e1", "x1", {"ra": 0.9}),
            pc("pb", "e1", "x2", {"rb": 1.0}),
            pc("pc", "e1", "x3", {"rc": 0.9}),
        ]
        clues = ClueSet(sr=[TypeClue("sr", "ra", "rb"), TypeClue("sr", "rb", "rc")])
        kept = rule_based(candidates, clues)
        # greedy keeps only the middle; the exact answer is the two ends
        assert [(p.pair_id, p.score) for p in kept] == [("pb", 1.0)]
        vars, hard = generate_hard(candidates, clues)
        solution = solve(build_model(vars, hard))
        selected_pairs = {vars[i].pair_id for i in solution.selected()}
        assert selected_pairs == {"pa", "pc"}

    def test_hub_costs_lookups_per_kept_relation_not_per_kept_pair(self):
        # one subject in 1000 pairs, each with candidates ra and rb, and
        # sr(ra, rb): a check looks up each relation kept at the hub once
        candidates = [pc(f"p{i:04d}", "hub", f"o{i}", {"ra": 0.6, "rb": 0.3}) for i in range(1000)]
        clues = ClueSet(sr=[TypeClue("sr", "ra", "rb")])
        lookups = 0

        class CountedRow(dict):
            def __contains__(self, rel):
                nonlocal lookups
                lookups += 1
                return super().__contains__(rel)

        for slots, rows in clues.joins.items():
            clues.joins[slots] = {rel: CountedRow(row) for rel, row in rows.items()}
        kept = rule_based(candidates, clues)
        assert len(kept) == 1000 and {p.relation for p in kept} == {"ra"}
        assert 0 < lookups <= 4 * 2000

    def test_output_feasible_and_bounded_by_optimum(self, rng):
        subjects = [f"e{i}" for i in range(4)]
        candidates = [
            pc(
                f"p{i}",
                rng.choice(subjects),
                f"o{i % 5}",
                {f"r{j}": round(rng.uniform(0.2, 2.0), 6) for j in rng.sample(range(4), 2)},
            )
            for i in range(10)
        ]
        clues = ClueSet(
            sr=[TypeClue("sr", "r0", "r1"), TypeClue("sr", "r2", "r3")],
            ro=[TypeClue("ro", "r1", "r2")],
            ou=[UniquenessClue("ou", "r0")],
        )
        kept = rule_based(candidates, clues)
        vars, hard = generate_hard(candidates, clues)
        model = build_model(vars, hard)
        var_ids = {(v.pair_id, v.relation): v.id for v in vars}
        assignment = {i: 0 for i in range(model.num_vars)}
        for p in kept:
            assignment[var_ids[(p.pair_id, p.relation)]] = 1
        assert not check_assignment(model, assignment)
        optimum = solve(model).objective_value
        assert total_confidence(kept) <= optimum + 1e-9



def generator_greedy(candidates, clues):
    """The rule baseline's walk, (-conf, pair_id, relation) order, with its
    clashes read off the rows of the constraint generator."""
    vars, rows = generate_hard(candidates, clues)
    conf = {(p.pair_id, rel): c.conf for p in candidates for rel, c in p.candidates.items()}
    rows_at = defaultdict(list)
    for row in rows:
        for i in row.var_ids:
            rows_at[i].append(row.var_ids)
    kept = set()
    for v in sorted(vars, key=lambda v: (-conf[v.pair_id, v.relation], v.pair_id, v.relation)):
        if not any(j in kept for ids in rows_at[v.id] for j in ids):
            kept.add(v.id)
    return sorted((vars[i].pair_id, vars[i].relation) for i in kept)


def rule_kept(candidates, clues):
    return sorted((p.pair_id, p.relation) for p in rule_based(candidates, clues))


class TestRuleMatchesGenerator:
    """`rule_based` clashes exactly where `generate_hard` writes a row."""

    def test_random_worlds(self, rng):
        worlds = itertools.chain((random_world(rng) for _ in range(1000)), [stacked_clue_world()])
        for trial, (world, clues) in enumerate(worlds):
            # varied confidences, with ties, so the walk order matters
            candidates = [
                PairCandidates(
                    p.pair_id,
                    p.subject,
                    p.object,
                    {
                        rel: Candidate(conf, conf, c.supporting_mentions)
                        for rel, c in p.candidates.items()
                        for conf in [rng.choice([0.2, 0.4, 0.6, 0.8])]
                    },
                )
                for p in world
            ]
            assert rule_kept(candidates, clues) == generator_greedy(candidates, clues), trial

    @pytest.mark.parametrize("seed", [7, 5, 3])
    def test_synth_worlds(self, tmp_path, seed):
        world = generate(SynthConfig(seed=seed, pairs=1000, noise=0.4), tmp_path)
        clues = mine_clues(load_triples(world.triples_path))
        candidates = build_pair_candidates(load_predictions(world.predictions_path))
        kept = rule_kept(candidates, clues)
        assert kept == generator_greedy(candidates, clues)
        assert len(kept) < sum(len(p.candidates) for p in candidates)

class TestPrCurve:
    def test_all_correct_half_recall(self):
        gold = {("s", "r1", "o"), ("s2", "r1", "o2"), ("s3", "r1", "o3"), ("s4", "r1", "o4")}
        preds = [rp("p1", "r1", 0.9), rp("p2", "r1", 0.8, subject="s2", object="o2")]
        curve = pr_curve(preds, gold)
        assert curve[-1].precision == 1.0
        assert curve[-1].recall == 0.5

    def test_one_correct_one_wrong(self):
        gold = {("s", "rGold", "o"), ("x", "rGold", "y")}
        preds = [rp("p1", "rGold", 0.9), rp("p2", "rWrong", 0.8)]
        curve = pr_curve(preds, gold)
        assert [(pt.precision, pt.recall) for pt in curve] == [(1.0, 0.5), (0.5, 0.5)]

    def test_zero_predictions_empty_curve(self):
        assert pr_curve([], {("s", "r", "o")}) == []

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([rp("p", "r", 0.5)], set())

    def test_rank1_precision_iff_top_hit(self):
        gold = {("s", "rGold", "o")}
        hit_first = pr_curve([rp("p", "rGold", 0.9), rp("q", "rX", 0.8)], gold)
        assert hit_first[0].precision == 1.0
        miss_first = pr_curve([rp("q", "rX", 0.9), rp("p", "rGold", 0.8)], gold)
        assert miss_first[0].precision == 0.0

    def test_recall_monotone_and_precision_rank_integral(self, rng):
        gold = {(f"s{i}", "r", f"o{i}") for i in range(8)}
        preds = [
            rp(f"p{i}", "r", round(rng.uniform(0.1, 1.0), 6),
               subject=f"s{i}", object=f"o{i}" if i % 2 else "wrong")
            for i in range(8)
        ]
        curve = pr_curve(preds, gold)
        last = 0.0
        for pt in curve:
            assert pt.recall >= last
            last = pt.recall
            hits = pt.precision * pt.rank
            assert abs(hits - round(hits)) < 1e-9


class TestPeakF1:
    def test_spec_curve(self):
        from reljoint.evaluate import PrPoint

        curve = [PrPoint(1, 1.0, 0.1), PrPoint(2, 0.5, 0.5)]
        peak = peak_f1(curve)
        assert peak.f1 == pytest.approx(0.5)
        assert peak.rank == 2

    def test_empty_curve(self):
        peak = peak_f1([])
        assert (peak.precision, peak.recall, peak.f1) == (0.0, 0.0, 0.0)

    def test_perfect_point(self):
        from reljoint.evaluate import PrPoint

        assert peak_f1([PrPoint(1, 1.0, 1.0)]).f1 == 1.0

    def test_tie_keeps_earliest_rank(self):
        from reljoint.evaluate import PrPoint

        curve = [PrPoint(1, 0.5, 0.5), PrPoint(2, 0.5, 0.5)]
        assert peak_f1(curve).rank == 1


class TestDiffAnalysis:
    def test_identical_outputs_zero_diff(self):
        gold = {("s", "r1", "o")}
        preds = [rp("p", "r1", 0.9)]
        report = diff_analysis(preds, preds, gold)
        assert (report.eliminated, report.corrected, report.introduced) == (0, 0, 0)

    def test_correction_also_counts_elimination(self):
        gold = {("s", "rGold", "o")}
        baseline = [rp("p1", "rWrong", 0.9)]
        optimized = [rp("p1", "rGold", 0.8)]
        report = diff_analysis(baseline, optimized, gold)
        assert report.eliminated == 1
        assert report.corrected == 1
        assert report.introduced == 0

    def test_introduction_for_silent_pair(self):
        gold = {("s", "rGold", "o")}
        report = diff_analysis([], [rp("p2", "rGold", 0.5)], gold)
        assert report.introduced == 1
        assert report.eliminated == 0

    def test_detail_records_track_changed_pairs(self):
        gold = {("s", "rGold", "o")}
        baseline = [rp("p1", "rWrong", 0.9), rp("p2", "rKeep", 0.8)]
        optimized = [rp("p1", "rGold", 0.7), rp("p2", "rKeep", 0.8)]
        report = diff_analysis(baseline, optimized, gold)
        assert [d["pair_id"] for d in report.details] == ["p1"]


class TestRankedIo:
    def test_round_trip_exact(self, tmp_path):
        preds = [rp("p1", "r1", 0.1 + 0.2), rp("p2", "r2", 1 / 3)]
        path = tmp_path / "preds.tsv"
        write_ranked_predictions(path, preds)
        loaded = read_ranked_predictions(path)
        assert loaded == sorted(preds, key=lambda p: (-p.score, p.pair_id, p.relation))

    @pytest.mark.parametrize(
        "order, score, line",
        [
            ((0, 1, 2, 3), "nan", 2),
            ((3, 2, 0, 1), "nan", 4),
            ((0, 1, 2, 3), "-inf", 2),
            ((0, 1, 2, 3), "high", 2),
        ],
    )
    def test_score_that_is_no_finite_number_rejected(self, tmp_path, order, score, line):
        # read unchecked, the NaN lines gave peak F1 0.8571 in the first
        # order and 1.0 in the second against gold o0, o2 and o3, since
        # sorting compared NaN
        scores = ["0.9", score, "0.5", "0.1"]
        lines = [f"p{i}\ts\tr\to{i}\t{value}" for i, value in enumerate(scores)]
        path = write_lines(tmp_path / "preds.tsv", [lines[i] for i in order])
        message = rf"preds.tsv:{line}: score '{score}' is not a finite number"
        with pytest.raises(DataFileError, match=message) as err:
            read_ranked_predictions(path)
        assert (err.value.path, err.value.line) == (str(path), line)

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path / "preds.tsv", ["p0\ts\tr\to\t0.5", "p1\ts\tr\t0.5"])
        with pytest.raises(DataFileError, match="preds.tsv:2: expected 5 tab-separated fields"):
            read_ranked_predictions(path)

    def test_ranked_from_solution_scores_by_coefficient(self):
        candidates = [pc("p1", "e", "o1", {"r1": 0.6}), pc("p2", "e", "o2", {"r2": 0.4})]
        vars, hard = generate_hard(candidates, ClueSet())
        solution = solve(build_model(vars, hard))
        ranked = ranked_from_solution(vars, solution)
        assert [(p.pair_id, p.score) for p in ranked] == [
            ("p1", pytest.approx(1.2)),
            ("p2", pytest.approx(0.8)),
        ]
