import json
import math
import random

import pytest

from reljoint.candidates import (
    Candidate,
    MentionPrediction,
    PairCandidates,
    PredictionFileError,
    aggregate,
    build_pair_candidates,
    load_predictions,
    select_mention_candidates,
)
from reljoint.kb import DataFileError

from conftest import write_lines


def mention(pair_id, mention_id, scores, subject="s", object="o"):
    return MentionPrediction(
        pair_id=pair_id, subject=subject, object=object, mention_id=mention_id, scores=scores
    )


class TestSelect:
    def test_sort_and_filter(self):
        scores = {"r1": 0.5, "r2": 0.3, "r3": 0.15, "r4": 0.05}
        assert select_mention_candidates(scores, top_k=3, min_conf=0.1) == ["r1", "r2", "r3"]

    def test_all_below_threshold(self):
        assert select_mention_candidates({"r1": 0.05, "r2": 0.09}) == []

    def test_na_excluded(self):
        assert select_mention_candidates({"NA": 0.9, "r1": 0.4}, top_k=3) == ["r1"]

    def test_tie_at_cut_prefers_smaller_name(self):
        scores = {"rb": 0.4, "ra": 0.4, "rc": 0.4}
        assert select_mention_candidates(scores, top_k=2) == ["ra", "rb"]

    def test_zero_scores_excluded_even_at_zero_floor(self):
        assert select_mention_candidates({"r1": 0.0, "r2": 0.2}, min_conf=0.0) == ["r2"]

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            select_mention_candidates({"r": 0.5}, top_k=0)
        with pytest.raises(ValueError):
            select_mention_candidates({"r": 0.5}, min_conf=1.5)


class TestAggregate:
    def test_singleton(self):
        pc = aggregate([mention("p", "m0", {"r1": 0.5})])
        assert pc.candidates["r1"].conf == 0.5
        assert pc.candidates["r1"].max_mention == 0.5
        assert pc.candidates["r1"].supporting_mentions == ("m0",)

    def test_many_weak_against_one_strong(self):
        # five mentions at 0.2 for r1 vs one at 0.9 for r2: coefficients
        # 1.2 against 1.8, so the strong single mention wins the objective
        mentions = [mention("p", f"m{i}", {"r1": 0.2}) for i in range(5)]
        mentions.append(mention("p", "m5", {"r2": 0.9}))
        pc = aggregate(mentions)
        r1, r2 = pc.candidates["r1"], pc.candidates["r2"]
        assert r1.conf == pytest.approx(1.0)
        assert r1.max_mention == 0.2
        assert r2.conf == pytest.approx(0.9)
        assert r2.max_mention == 0.9
        assert r1.conf + r1.max_mention == pytest.approx(1.2)
        assert r2.conf + r2.max_mention == pytest.approx(1.8)
        assert r2.conf + r2.max_mention > r1.conf + r1.max_mention

    def test_hand_summed_pair(self):
        pc = aggregate(
            [mention("p", "m0", {"r1": 0.3, "r2": 0.2}), mention("p", "m1", {"r1": 0.4})]
        )
        assert pc.candidates["r1"].conf == pytest.approx(0.7)
        assert pc.candidates["r2"].conf == pytest.approx(0.2)

    def test_only_admitting_mentions_counted(self):
        # r2 scores 0.05 in the second mention: below the floor there, so
        # only the first mention supports it
        pc = aggregate(
            [mention("p", "m0", {"r2": 0.3}), mention("p", "m1", {"r1": 0.5, "r2": 0.05})]
        )
        assert pc.candidates["r2"].conf == pytest.approx(0.3)
        assert pc.candidates["r2"].supporting_mentions == ("m0",)

    def test_duplicate_mention_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate mention id"):
            aggregate([mention("p", "m0", {"r1": 0.5}), mention("p", "m0", {"r1": 0.6})])

    def test_mixed_pair_rejected(self):
        with pytest.raises(ValueError):
            aggregate(
                [mention("p", "m0", {"r1": 0.5}), mention("q", "m1", {"r1": 0.5})]
            )

    def test_empty_candidates_allowed(self):
        pc = aggregate([mention("p", "m0", {"NA": 0.9, "r1": 0.01})])
        assert pc.candidates == {}

    def test_permutation_invariance(self):
        mentions = [
            mention("p", f"m{i}", {"r1": 0.1 + 0.05 * i, "r2": 0.2}) for i in range(6)
        ]
        base = aggregate(mentions)
        for seed in range(5):
            shuffled = list(mentions)
            random.Random(seed).shuffle(shuffled)
            again = aggregate(shuffled)
            assert again == base

    def test_conf_recomputable_from_raw_input(self):
        mentions = [mention("p", f"m{i}", {"r1": 0.1 + 0.07 * i}) for i in range(7)]
        pc = aggregate(mentions)
        by_id = {m.mention_id: m for m in mentions}
        cand = pc.candidates["r1"]
        recomputed = math.fsum(
            by_id[mid].scores["r1"] for mid in sorted(cand.supporting_mentions)
        )
        assert recomputed == cand.conf

    def test_score_domain_enforced(self):
        with pytest.raises(ValueError):
            mention("p", "m0", {"r1": 1.5})


def reference_candidates(mentions_by_pair, top_k, min_conf):
    """build_pair_candidates spelled out: per mention in id order, its
    admitted relations, then each relation's fsum, max and supporters."""
    out = []
    for pair_id in sorted(mentions_by_pair):
        mentions = sorted(mentions_by_pair[pair_id], key=lambda m: m.mention_id)
        admitted = [
            (m, select_mention_candidates(m.scores, top_k, min_conf)) for m in mentions
        ]
        candidates = {}
        for rel in sorted({rel for _, rels in admitted for rel in rels}):
            supporters = [m for m, rels in admitted if rel in rels]
            scores = [m.scores[rel] for m in supporters]
            candidates[rel] = Candidate(
                math.fsum(scores), max(scores), tuple(m.mention_id for m in supporters)
            )
        if candidates:
            first = mentions[0]
            out.append(PairCandidates(pair_id, first.subject, first.object, candidates))
    return out


class TestPredictionsFile:
    def test_round_trip_grouping(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = [
            {"pair_id": "p2", "subject": "a", "object": "b", "mention_id": "m0",
             "scores": {"r1": 0.4}},
            {"pair_id": "p1", "subject": "c", "object": "d", "mention_id": "m0",
             "scores": {"r2": 0.6, "NA": 0.2}},
            {"pair_id": "p2", "subject": "a", "object": "b", "mention_id": "m1",
             "scores": {"r1": 0.5}},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        grouped = load_predictions(path)
        assert sorted(grouped) == ["p1", "p2"]
        assert [m.mention_id for m in grouped["p2"]] == ["m0", "m1"]
        pairs = build_pair_candidates(grouped)
        assert [pc.pair_id for pc in pairs] == ["p1", "p2"]
        assert pairs[1].candidates["r1"].conf == pytest.approx(0.9)

    def test_bad_json_carries_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"pair_id": "p"}\nnot json\n', encoding="utf-8")
        with pytest.raises(PredictionFileError) as err:
            load_predictions(path)
        assert err.value.line in (1, 2)
        assert isinstance(err.value, DataFileError) and err.value.path == str(path)

    def test_unnormalized_scores_warned_not_rescaled(self, tmp_path, caplog):
        path = tmp_path / "preds.jsonl"
        record = {
            "pair_id": "p", "subject": "a", "object": "b", "mention_id": "m0",
            "scores": {"r1": 0.9, "r2": 0.8},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            grouped = load_predictions(path)
        assert "summing past 1" in caplog.text
        assert grouped["p"][0].scores == {"r1": 0.9, "r2": 0.8}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"scores": {"r1": True}}, "score for 'r1'"),
            ({"pair_id": None}, "pair_id"),
            ({"subject": None}, "subject"),
            ({"scores": {"r1": "0.5"}}, "score for 'r1'"),
            ({"scores": {"r1": 10**400}}, "too large"),
            ({"subject": "a\tb"}, r"subject 'a\\tb' holds a tab"),
            ({"scores": {"r\n2": 0.5}}, r"relation 'r\\n2' holds a tab"),
            ({"mention_id": "m\r1"}, "mention_id"),
            ({"scores": {"r1": 1.5}}, r"score for 'r1' out of \[0,1\]: 1.5"),
            ({"scores": {"r1": -0.1}}, r"score for 'r1' out of \[0,1\]: -0.1"),
            ({"scores": [0.5]}, "bad record"),
            ('["p", "a", "b", "m1", {"r1": 0.5}]', "bad record"),
        ],
        ids=[
            "bool-score", "null-pair-id", "null-subject", "string-score", "huge-int-score",
            "tab-in-subject", "newline-in-relation", "return-in-mention-id",
            "score-above-one", "negative-score", "score-list", "array-line",
        ],
    )
    def test_malformed_values_rejected_with_line(self, tmp_path, bad, message):
        good = {
            "pair_id": "p", "subject": "a", "object": "b", "mention_id": "m0",
            "scores": {"r1": 0.5},
        }
        path = tmp_path / "preds.jsonl"
        # a string is the whole second line
        second = bad if isinstance(bad, str) else json.dumps({**good, "mention_id": "m1", **bad})
        lines = [json.dumps(good), second]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PredictionFileError, match=message) as err:
            load_predictions(path)
        assert err.value.line == 2

    def test_escapes_without_separators_load(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        record = {
            "pair_id": "p", "subject": "caf\u00e9", "object": "a\\b", "mention_id": "m0",
            "scores": {"r/1": 0.5},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        mention = load_predictions(path)["p"][0]
        assert (mention.subject, mention.object) == ("caf\u00e9", "a\\b")

    def test_integer_scores_load_as_floats(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        record = {
            "pair_id": "p", "subject": "a", "object": "b", "mention_id": "m0",
            "scores": {"r1": 1, "NA": 0},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        scores = load_predictions(path)["p"][0].scores
        assert scores == {"r1": 1.0, "NA": 0.0}
        assert all(type(s) is float for s in scores.values())

    def test_loaded_candidates_match_reference(self, tmp_path):
        # few distinct values, so top-k cuts often fall inside a tie; 0 and
        # 1 are written as JSON integers
        values = [0, 0.05, 0.1, 0.2, 0.2, 0.35, 0.35, 0.6, 1]
        relations = ["NA", "r1", "r2", "r3", "r4", "r5"]
        rng = random.Random(21)
        for case in range(40):
            records = []
            for p in range(rng.randint(1, 12)):
                ids = [f"m{i}" for i in rng.sample(range(12), rng.randint(1, 4))]
                for mention_id in ids:
                    rels = rng.sample(relations, rng.randint(1, len(relations)))
                    records.append({
                        "pair_id": f"p{p}", "subject": f"s{p}", "object": f"o{p}",
                        "mention_id": mention_id,
                        "scores": {rel: rng.choice(values) for rel in rels},
                    })
            rng.shuffle(records)
            path = write_lines(tmp_path / f"case{case}.jsonl", map(json.dumps, records))
            mentions = load_predictions(path)
            for top_k in (1, 2, 3):
                for min_conf in (0.0, 0.1):
                    got = build_pair_candidates(mentions, top_k, min_conf)
                    want = reference_candidates(mentions, top_k, min_conf)
                    assert got == want
                    assert [list(pc.candidates) for pc in got] == [
                        list(pc.candidates) for pc in want
                    ]
