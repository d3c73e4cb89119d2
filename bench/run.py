"""Closed-loop benchmark of the reljoint command line.

    python3 bench/run.py --workload soft_leaky --seed 7 --seconds 30 --trace 0

One caller runs passes back to back for `--seconds`: a pass is the
workload's quick-start commands, called in process through
`reljoint.cli.main`. Every pass is checked (see gate.py). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
the end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
run (`--trace 1`). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 5

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "peak_f1": "ratio",
}
PER_LAYER = {
    "ilp.solve_ms": "ms",
    "ilp.nodes": "count",
    "ilp.us_per_node": "us",
    "ilp.largest_component_vars": "count",
    "ilp.largest_component_nodes": "count",
    "ilp.largest_component_ms": "ms",
    "ilp.decompose_ms": "ms",
    "ilp.components": "count",
    "ilp.build_model_ms": "ms",
    "ilp.nonoptimal_components": "count",
    "ilp.objective_gap": "ratio",
    "constraints.generate_hard_ms": "ms",
    "constraints.hard_rows": "count",
    "constraints.decision_vars": "count",
    "constraints.rows_per_var": "ratio",
    "constraints.soften_ms": "ms",
    "constraints.aux_vars": "count",
    "kb.load_triples_ms": "ms",
    "kb.facts": "count",
    "clues.mine_clues_ms": "ms",
    "clues.load_clue_file_ms": "ms",
    "clues.type_clues": "count",
    "clues.finite_type_clues": "count",
    "candidates.load_predictions_ms": "ms",
    "candidates.build_pair_candidates_ms": "ms",
    "candidates.mentions": "count",
    "candidates.pairs": "count",
    "evaluate.mintzpp_ms": "ms",
    "evaluate.rule_based_ms": "ms",
    "evaluate.diff_analysis_ms": "ms",
    "evaluate.pr_curve_ms": "ms",
    "evaluate.ranked_from_solution_ms": "ms",
    "evaluate.write_ranked_predictions_ms": "ms",
    "synth.generate_ms": "ms",
    "trace.overhead_pct": "%",
}


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the command line."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import reljoint.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def _one_pass(commands: list[list[str]]) -> tuple[float, str | None]:
    """Run the pass's commands in process; (seconds, error or None)."""
    from reljoint import cli

    output = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            for argv in commands:
                cli.main(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit {exc.code}: {output.getvalue().strip()[-500:]}"
    except Exception as exc:  # a crashing pass is counted as failed, not fatal
        error = repr(exc)
    return time.perf_counter() - start, error


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return str([round(v, 4) for v in values])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (
        f"min {min(values):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} max {max(values):.4f}"
        f" mean {statistics.fmean(values):.4f}"
    )


@dataclass
class Passes:
    """What the closed loop saw: per-pass problems and timings."""

    problems: list[list[str]] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    layer_ms: list[dict[str, float]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    output: bytes | None = None  # predictions.tsv of the first successful pass
    census: dict | None = None


def _closed_loop(commands, out: Path, seconds: float, trace: bool, tracer) -> Passes:
    """Passes back to back for `seconds` (at least one, or one of each kind
    when tracing); in a traced run every second pass is traced."""
    seen = Passes()
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    while len(seen.problems) < min_passes or time.perf_counter() - start < seconds:
        traced = trace and len(seen.problems) % 2 == 1
        tracer.reset()
        with tracer.installed() if traced else contextlib.nullcontext():
            elapsed, error = _one_pass(commands)
        issues = [error] if error else []
        if not error:
            output = (out / "run" / "predictions.tsv").read_bytes()
            census = json.loads((out / "run" / "census.json").read_text(encoding="utf-8"))
            if seen.output is None:
                seen.output, seen.census = output, census
            elif output != seen.output:
                issues.append("predictions.tsv differs from the first pass")
            elif census != seen.census:
                issues.append("census.json differs from the first pass")
        seen.problems.append(issues)
        if traced:
            seen.traced_times.append(elapsed)
            seen.layer_ms.append(tracer.self_ms())
            seen.counts.update(tracer.counts)
        else:
            seen.times.append(elapsed)
    return seen


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run in a fresh work directory, removed afterwards."""
    import gate
    from tracer import TRACED, Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    tracer = Tracer()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setup_rounds: list[float] = []
        generate_ms: list[float] = []
        for k in range(SETUP_ROUNDS):
            tracer.reset()
            start = time.perf_counter()
            with tracer.installed() if trace else contextlib.nullcontext():
                inputs = spec.make_inputs(work / f"inputs{k}", seed, scale)
            setup_rounds.append(_import_seconds() + time.perf_counter() - start)
            generate_ms.append(tracer.self_ms().get("synth.generate", 0.0))

        loop_start = time.perf_counter()
        seen = _closed_loop(spec.commands(inputs, work), work, seconds, trace, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop_s = time.perf_counter() - loop_start

        # the gate on the output every passing pass shares, after the timed passes
        ref = gate.build_reference(inputs.predictions, inputs.clues, spec.mode)
        optimum = None
        try:
            if spec.mode:
                optimum = gate.highs_optimum(ref.model)
            shared_issues = [] if seen.output is None else gate.check_output(
                ref, seen.output, seen.census, optimum
            )
        except RuntimeError as exc:
            shared_issues = [f"reference check: {exc}"]
        for issues in seen.problems:
            if not issues:
                issues.extend(shared_issues)
        failed = sum(1 for issues in seen.problems if issues)
        print(
            f"{workload} seed {seed}: {len(seen.problems)} passes in {loop_s:.1f} s, "
            f"untraced pass s {_quartiles(seen.times)}, traced {_quartiles(seen.traced_times)}, "
            f"check {time.perf_counter() - loop_start - loop_s:.1f} s",
            file=sys.stderr,
        )
        for issues in seen.problems:
            for issue in issues[:5]:
                print(f"pass failed: {issue}", file=sys.stderr)

        if not trace:
            summary = work / "eval" / "summary.json"
            pass_s = _median(seen.times)
            values = {
                "setup_s": _median(setup_rounds),
                "pass_s": pass_s,
                # closed-loop throughput: pairs handled per second spent in passes
                "pairs_per_s": ref.pairs * len(seen.times) / sum(seen.times),
                "peak_rss_mb": peak_rss_mb,
                "ok_rate": 1.0 - failed / len(seen.problems),
                "peak_f1": json.loads(summary.read_text(encoding="utf-8"))["peak"]["f1"]
                if summary.exists()
                else 0.0,
            }
            units = END_TO_END
        else:
            values = {
                f"{name}_ms": _median([m.get(name, 0.0) for m in seen.layer_ms]) for name in TRACED
            }
            values["synth.generate_ms"] = _median(generate_ms)
            values.update(seen.counts)
            values.update(_component_metrics(ref, spec.mode))
            nodes = values.get("ilp.nodes", 0)
            values["ilp.us_per_node"] = values["ilp.solve_ms"] * 1000.0 / nodes if nodes else 0.0
            rows = values.get("constraints.hard_rows", 0)
            decision = values.get("constraints.decision_vars", 0)
            values["constraints.rows_per_var"] = rows / decision if decision else 0.0
            if optimum is not None and seen.census is not None:
                reported = seen.census["solver"]["objective"]
                values["ilp.objective_gap"] = abs(reported - optimum) / max(abs(optimum), 1e-12)
            values["trace.overhead_pct"] = (
                _median(seen.traced_times) / _median(seen.times) - 1.0
            ) * 100.0
            units = PER_LAYER
        return {
            "correct": failed == 0,
            "attempted": len(seen.problems),
            "failed": failed,
            "metrics": {
                name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _component_metrics(ref, mode: str | None) -> dict[str, float]:
    """Solve every component of the model on its own: the largest one's
    size, nodes and time, and how many components missed optimality."""
    if mode is None:
        return {}
    from reljoint import ilp

    largest = None
    nonoptimal = 0
    for component in ilp.decompose(ref.model):
        if component.model.num_vars < 2:
            continue
        start = time.perf_counter()
        solution = ilp.solve(component.model)
        ms = (time.perf_counter() - start) * 1000.0
        nonoptimal += not solution.optimal
        if largest is None or component.model.num_vars > largest[0]:
            largest = (component.model.num_vars, solution.stats.nodes, ms)
    out = {"ilp.nonoptimal_components": nonoptimal}
    if largest:
        out.update(
            {
                "ilp.largest_component_vars": largest[0],
                "ilp.largest_component_nodes": largest[1],
                "ilp.largest_component_ms": largest[2],
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reljoint" / "__init__.py").is_file():
        print(f"benchmark: no reljoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
