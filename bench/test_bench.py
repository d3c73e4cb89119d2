"""The benchmark's own tests: a small smoke run of every workload in both
modes, and the correctness gate rejecting corrupted outputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from reljoint import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, scale=0.05)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0
        assert result["metrics"]["pass_s"]["value"] > 0


def _solved(tmp_path: Path, workload: str):
    spec = WORKLOADS[workload]
    inputs = spec.make_inputs(tmp_path / "inputs", 3, 0.05)
    with redirect_stdout(io.StringIO()):
        for argv in spec.commands(inputs, tmp_path):
            cli.main(argv)
    ref = gate.build_reference(inputs.predictions, inputs.clues, spec.mode)
    optimum = gate.highs_optimum(ref.model) if spec.mode else None
    output = (tmp_path / "run" / "predictions.tsv").read_bytes()
    census = json.loads((tmp_path / "run" / "census.json").read_text(encoding="utf-8"))
    return ref, optimum, output, census


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_accepts_the_program_output(tmp_path, workload):
    ref, optimum, output, census = _solved(tmp_path, workload)
    assert gate.check_output(ref, output, census, optimum) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_rejects_a_dropped_selection(tmp_path, workload):
    ref, optimum, output, census = _solved(tmp_path, workload)
    lines = output.splitlines(keepends=True)
    assert gate.check_output(ref, b"".join(lines[1:]), census, optimum)


@pytest.mark.parametrize("workload", ["soft_leaky", "hub_entity", "baselines"])
def test_gate_rejects_an_added_conflicting_selection(tmp_path, workload):
    ref, optimum, output, census = _solved(tmp_path, workload)
    selected, _ = gate.read_selection(ref, output)
    model = ref.model
    pair = next((i, j) for i, j in model.pairwise if (i in selected) != (j in selected))
    added = pair[1] if pair[0] in selected else pair[0]
    pair_id, relation = next(key for key, var in ref.var_ids.items() if var == added)
    line = f"{pair_id}\tx\t{relation}\ty\t0.5\n".encode()
    problems = gate.check_output(ref, output + line, census, optimum)
    assert any("pairwise" in p for p in problems)


@pytest.mark.parametrize("workload", ["soft_leaky", "hub_entity"])
def test_gate_rejects_a_wrong_objective(tmp_path, workload):
    ref, optimum, output, census = _solved(tmp_path, workload)
    census["solver"]["objective"] *= 1 + 1e-6
    assert gate.check_output(ref, output, census, optimum)
    census["solver"]["objective"] /= 1 + 1e-6
    assert gate.check_output(ref, output, census, optimum * (1 + 1e-6))


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "soft_leaky", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
