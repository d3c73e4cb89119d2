"""Seeded inputs and per-pass command lines of the benchmark workloads.

Every generator is a pure function of (seed, scale): the same seed gives
byte-identical input files. The program under test only ever sees those
files, through its command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from reljoint import synth
from reljoint.candidates import MentionPrediction, write_predictions_file
from reljoint.kb import Triple, read_triples, write_triples

LEAKS_PER_RELATION = 4
HUB_GOLD_SHARE = 0.6


@dataclass(frozen=True)
class Inputs:
    """Files one workload reads. `triples` is None when no clue mining
    runs; `clues` is the clue file `solve` reads (mined during the pass
    when `triples` is set)."""

    predictions: Path
    gold: Path
    clues: Path
    triples: Path | None


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[Path, int, float], Inputs]
    commands: Callable[[Inputs, Path], list[list[str]]]
    # "hard"/"soft" when the primary output comes from the ILP, None when
    # it comes from the greedy `rule` baseline
    mode: str | None


def _conflict_world(out: Path, seed: int, pairs: int) -> Inputs:
    world = synth.generate(synth.SynthConfig(seed=seed, pairs=pairs, noise=0.4), out / "world")
    return Inputs(
        predictions=world.predictions_path,
        gold=world.gold_path,
        clues=out / "clues.json",
        triples=world.triples_path,
    )


def leaky_inputs(out: Path, seed: int, scale: float) -> Inputs:
    """A conflict world whose KB gets a few cross-type facts per relation.

    Each leak shares one argument with a relation of another argument
    type, so those relation pairs mine finite (but still below-threshold)
    type-clue scores, which soft mode turns into penalized links.
    """
    inputs = _conflict_world(out, seed, max(40, round(700 * scale)))
    facts = read_triples(inputs.triples)
    schema = {r.name: r for r in synth.conflict_schema()}
    subjects = {r: sorted({t.subject for t in facts if t.relation == r}) for r in schema}
    objects = {r: sorted({t.object for t in facts if t.relation == r}) for r in schema}
    rng = Random(f"leak-{seed}")
    leaks: list[Triple] = []
    for rel in sorted(schema):
        spec = schema[rel]
        for k in range(LEAKS_PER_RELATION):
            if k % 2 == 0:  # subject borrowed from a relation of another subject type
                donors = sorted(r for r in schema if schema[r].subject_type != spec.subject_type)
                s = rng.choice(subjects[rng.choice(donors)])
                o = rng.choice(objects[rel])
            else:  # object borrowed from a relation of another object type
                donors = sorted(r for r in schema if schema[r].object_type != spec.object_type)
                s = rng.choice(subjects[rel])
                o = rng.choice(objects[rng.choice(donors)])
            if s != o:
                leaks.append(Triple(s, rel, o))
    write_triples(inputs.triples, sorted(set(facts) | set(leaks)))
    return inputs


def hub_inputs(out: Path, seed: int, scale: float) -> Inputs:
    """One subject shared by every pair; each pair has candidates ra and rb,
    and a hand-written clue says ra and rb never share a subject.

    Every mention scores ra above rb, so the joint choice is all-ra and the
    search stays at a few nodes; gold says ra for a fixed share of the
    pairs and rb for the rest. (Mentions that favour rb on some pairs make
    the search take about 2.7 nodes per pair, each scanning every row: over
    three minutes per solve at 300 pairs.)"""
    rng = Random(f"hub-{seed}")
    n = max(8, round(300 * scale))
    out.mkdir(parents=True, exist_ok=True)
    gold_ra = set(rng.sample(range(n), round(HUB_GOLD_SHARE * n)))
    mentions: list[MentionPrediction] = []
    gold: list[Triple] = []
    for i in range(n):
        pair_id = f"h{i:05d}"
        obj = f"obj_{i:05d}"
        gold.append(Triple("hub", "ra" if i in gold_ra else "rb", obj))
        for j in range(rng.randint(1, 3)):
            scores = {"ra": rng.uniform(0.45, 0.7), "rb": rng.uniform(0.1, 0.3)}
            mentions.append(MentionPrediction(pair_id, "hub", obj, f"{pair_id}_m{j}", scores))
    predictions = out / "predictions.jsonl"
    write_predictions_file(predictions, mentions)
    gold_path = out / "gold.tsv"
    write_triples(gold_path, gold)
    clues = out / "clues.json"
    clues.write_text(json.dumps({"sr": [["ra", "rb"]]}) + "\n", encoding="utf-8")
    return Inputs(predictions=predictions, gold=gold_path, clues=clues, triples=None)


def _mine(i: Inputs) -> list[str]:
    return ["mine", "--triples", str(i.triples), "--out", str(i.clues)]


def _solve(i: Inputs, out: Path, *extra: str) -> list[str]:
    return ["solve", "--predictions", str(i.predictions), "--clues", str(i.clues),
            "--out-dir", str(out / "run"), *extra]


def _eval(i: Inputs, out: Path, *extra: str) -> list[str]:
    return ["eval", "--predictions", str(out / "run" / "predictions.tsv"),
            "--gold", str(i.gold), "--out-dir", str(out / "eval"), *extra]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "soft_leaky",
            leaky_inputs,
            lambda i, out: [
                _mine(i),
                _solve(i, out, "--mode", "soft", "--alpha", "1"),
                _eval(i, out),
            ],
            mode="soft",
        ),
        Workload(
            "hub_entity",
            hub_inputs,
            lambda i, out: [_solve(i, out), _eval(i, out)],
            mode="hard",
        ),
        Workload(
            "baselines",
            lambda out, seed, scale: _conflict_world(out, seed, max(40, round(2000 * scale))),
            lambda i, out: [
                _mine(i),
                ["solve", "--predictions", str(i.predictions), "--method", "mintzpp",
                 "--out-dir", str(out / "oring")],
                _solve(i, out, "--method", "rule"),
                _eval(i, out, "--baseline", str(out / "oring" / "predictions.tsv")),
            ],
            mode=None,
        ),
    )
}
