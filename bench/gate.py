"""Correctness gate for one pass's primary output.

The model is rebuilt from the pass's input files through the library,
outside any timed pass. The selection read back from `predictions.tsv`
must satisfy every row of it; an ILP output must also reach the optimum
that HiGHS (`scipy.optimize.milp`) finds on the same rows, and a greedy
`rule` output must be maximal (every dropped candidate clashes with a kept
one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from reljoint import candidates, clues, constraints, ilp

REL_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    model: ilp.IlpModel
    var_ids: dict[tuple[str, str], int]  # (pair_id, relation) -> decision variable id
    pairs: int  # pairs with at least one candidate


def build_reference(predictions: Path, clue_file: Path, mode: str | None) -> Reference:
    pairs = candidates.build_pair_candidates(candidates.load_predictions(predictions))
    vars, hard = constraints.generate_hard(pairs, clues.load_clue_file(clue_file))
    soft = None
    if mode == "soft":
        hard, soft = constraints.soften(vars, hard, 1.0)
    model = ilp.build_model(vars, hard, soft)
    return Reference(model, {(v.pair_id, v.relation): v.id for v in vars}, len(pairs))


def read_selection(ref: Reference, predictions_tsv: bytes) -> tuple[list[int], list[str]]:
    """Decision ids named by a ranked-predictions file, and any lines that
    name no candidate or repeat one."""
    selected: set[int] = set()
    problems: list[str] = []
    for line in predictions_tsv.decode("utf-8").splitlines():
        fields = line.split("\t")
        key = (fields[0], fields[2]) if len(fields) == 5 else None
        var = ref.var_ids.get(key) if key else None
        if var is None:
            problems.append(f"output line names no candidate: {line!r}")
        elif var in selected:
            problems.append(f"output repeats {key}")
        else:
            selected.add(var)
    return sorted(selected), problems


def full_assignment(model: ilp.IlpModel, selected: list[int]) -> dict[int, int]:
    """Decision selection plus the auxiliary values feasibility forces."""
    assignment = {i: 0 for i in range(model.num_vars)}
    for i in selected:
        assignment[i] = 1
    for a, b, aux in model.links:
        assignment[aux] = assignment[a] & assignment[b]
    return assignment


def highs_optimum(model: ilp.IlpModel) -> float:
    """Optimum of the same rows by HiGHS, re-evaluated with the canonical
    fsum over the rounded selection."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    upper: list[float] = []

    def row(terms: list[tuple[int, float]], bound: float) -> None:
        for col, val in terms:
            rows.append(len(upper))
            cols.append(col)
            vals.append(val)
        upper.append(bound)

    for i, j in model.pairwise:
        row([(i, 1.0), (j, 1.0)], 1.0)
    for group in model.groups:
        row([(i, 1.0) for i in group], 1.0)
    for a, b, aux in model.links:
        row([(aux, 1.0), (a, -1.0)], 0.0)
        row([(aux, 1.0), (b, -1.0)], 0.0)
        row([(a, 1.0), (b, 1.0), (aux, -1.0)], 1.0)
    n = model.num_vars
    constraints_ = []
    if upper:
        matrix = csr_matrix((vals, (rows, cols)), shape=(len(upper), n))
        constraints_.append(LinearConstraint(matrix, -np.inf, np.asarray(upper)))
    result = milp(
        c=-np.asarray(model.coeffs, dtype=float),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        constraints=constraints_,
        options={"mip_rel_gap": 0.0, "time_limit": 120.0},
    )
    if result.status != 0 or result.x is None:
        raise RuntimeError(f"HiGHS did not prove an optimum: {result.message}")
    chosen = {i for i in range(n) if result.x[i] > 0.5}
    if ilp.check_assignment(model, {i: int(i in chosen) for i in range(n)}):
        raise RuntimeError("HiGHS returned an infeasible selection")
    return ilp.selection_objective(model, chosen)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_output(
    ref: Reference, predictions_tsv: bytes, census: dict, optimum: float | None
) -> list[str]:
    """Every way the output fails the gate (empty = correct).

    `optimum` is the HiGHS optimum for an ILP output, None for a `rule`
    output, which is checked for maximality instead."""
    selected, problems = read_selection(ref, predictions_tsv)
    assignment = full_assignment(ref.model, selected)
    problems += ilp.check_assignment(ref.model, assignment)
    if optimum is None:
        chosen = set(selected)
        neighbours: dict[int, set[int]] = {}
        for i, j in ref.model.pairwise:
            neighbours.setdefault(i, set()).add(j)
            neighbours.setdefault(j, set()).add(i)
        for group in ref.model.groups:
            for i in group:
                neighbours.setdefault(i, set()).update(group)
        for i in range(ref.model.num_decision):
            if i not in chosen and not (neighbours.get(i, set()) - {i}) & chosen:
                problems.append(f"rule output could also keep variable {i}")
        return problems
    solver = census.get("solver", {})
    if solver.get("optimal") is not True:
        problems.append("solver did not report an optimal solution")
    reported = solver.get("objective")
    value = ilp.selection_objective(ref.model, [i for i, v in assignment.items() if v])
    if not isinstance(reported, (int, float)) or not _close(reported, value):
        problems.append(f"census objective {reported!r} != objective of the output {value!r}")
    if not _close(value, optimum):
        problems.append(f"objective {value!r} != HiGHS optimum {optimum!r}")
    return problems
