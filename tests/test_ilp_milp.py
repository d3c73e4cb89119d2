"""Differential check of the exact solver against an independent MILP
solver (HiGHS through scipy) on components too large for brute force."""

import itertools
import math
import random

import pytest

pytest.importorskip("scipy")

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from reljoint.ilp import IlpModel, check_assignment, decompose, selection_objective, solve

from conftest import synth_model


def highs_rows(model: IlpModel) -> LinearConstraint:
    """Every row of the model, a biclique as the pairwise rows it stands
    for, as one HiGHS constraint block."""
    rows: list[list[tuple[int, float]]] = [[(i, 1.0), (j, 1.0)] for i, j in model.pairwise]
    upper = [1.0] * len(rows)
    for group in model.groups:
        rows.append([(i, 1.0) for i in group])
        upper.append(1.0)
    for a, b, aux in model.links:
        rows += [[(aux, 1.0), (a, -1.0)], [(aux, 1.0), (b, -1.0)], [(a, 1.0), (b, 1.0), (aux, -1.0)]]
        upper += [0.0, 0.0, 1.0]
    for _family, left, right in model.bicliques:
        pairs = itertools.combinations(left, 2) if left == right else itertools.product(left, right)
        for a, b in pairs:
            rows.append([(a, 1.0), (b, 1.0)])
            upper.append(1.0)
    entries = [(r, col, val) for r, terms in enumerate(rows) for col, val in terms]
    r, c, v = zip(*entries)
    matrix = coo_matrix((v, (r, c)), shape=(len(rows), model.num_vars))
    return LinearConstraint(matrix, -np.inf, upper)


def highs_selection(model: IlpModel) -> list[int]:
    """The ids of a selection HiGHS proves optimal (zero gap)."""
    result = milp(
        c=-np.asarray(model.coeffs),
        integrality=np.ones(model.num_vars),
        bounds=Bounds(0, 1),
        constraints=[highs_rows(model)],
        options={"mip_rel_gap": 0.0},
    )
    assert result.status == 0, result.message
    chosen = [i for i in range(model.num_vars) if result.x[i] > 0.5]
    assert check_assignment(model, {i: int(i in chosen) for i in range(model.num_vars)}) == []
    return chosen


def highs_objective(model: IlpModel) -> float:
    """Canonical objective of the selection HiGHS proves optimal."""
    return selection_objective(model, highs_selection(model))


def highs_lexmax(model: IlpModel, step: float) -> list[int]:
    """The decision ids of the optimum whose sorted ids are smallest, found
    with HiGHS alone: among the optima, the lexicographic maximum of x in
    id order.

    Every coefficient must be a multiple of `step` (a power of two), so
    objectives are exact in a double and distinct ones differ by `step` or
    more: the optima are the selections with c.x >= opt - step / 2. Walking
    the decision ids in ascending order, each is fixed to 1 when an optimum
    with the earlier fixes takes it, and to 0 otherwise. The last optimum
    found holds the earlier fixes, so only an id it leaves out needs a
    feasibility solve.
    """
    n = model.num_vars
    assert all(c / step == int(c / step) for c in model.coeffs)
    chosen = highs_selection(model)
    optimum = selection_objective(model, chosen)
    x = [int(i in chosen) for i in range(n)]
    rows = [highs_rows(model), LinearConstraint(model.coeffs, optimum - step / 2, np.inf)]
    lower, upper = np.zeros(n), np.ones(n)
    for i in range(model.num_decision):
        if not x[i]:
            lower[i] = 1
            result = milp(
                c=np.zeros(n),
                integrality=np.ones(n),
                bounds=Bounds(lower, upper),
                constraints=rows,
            )
            assert result.status in (0, 2), result.message  # 2: infeasible
            if result.status == 0:
                x = [round(value) for value in result.x]
        lower[i] = upper[i] = x[i]
    return [i for i in range(model.num_decision) if x[i]]


def tie_heavy_model(rng: random.Random) -> IlpModel:
    """A model whose optima tie often: quarter coefficients in [0, 1], zero
    weights included, with pairwise rows, groups of 2-4, 3x3 bicliques and
    links whose auxiliary variables cost -1/4 to -3/4."""
    d = rng.randint(40, 90)
    coeffs = [rng.randint(0, 4) / 4 for _ in range(d)]
    pairwise = sorted({tuple(rng.sample(range(d), 2)) for _ in range(d // 2)})
    groups = [tuple(rng.sample(range(d), rng.randint(2, 4))) for _ in range(d // 10)]
    bicliques = []
    for _ in range(d // 15):
        ids = rng.sample(range(d), 6)
        bicliques.append(("sr", tuple(sorted(ids[:3])), tuple(sorted(ids[3:]))))
    links = []
    for a, b in sorted({tuple(rng.sample(range(d), 2)) for _ in range(d // 4)}):
        links.append((a, b, d + len(links)))
        coeffs.append(-rng.randint(1, 3) / 4)
    return IlpModel(
        coeffs, d, pairwise=pairwise, groups=groups, links=links, bicliques=bicliques
    )


@pytest.mark.parametrize(
    "seed, pairs, leaks, alpha, violations",
    [(1, 1200, 0, None, 0), (3, 700, 4, 1.0, 0), (3, 500, 4, 0.15, 1)],
    ids=["hard", "soft", "soft-cheap-penalties"],
)
def test_components_match_highs(tmp_path, seed, pairs, leaks, alpha, violations):
    """`violations` is the least number of violated soft rows the optima
    must pay for: with cheap penalties the link folding decides them."""
    model = synth_model(tmp_path, seed, pairs, leaks=leaks, alpha=alpha)
    subs = [c.model for c in decompose(model) if 25 <= c.model.num_vars <= 500]
    assert len(subs) >= 10
    if alpha is not None:
        assert sum(len(sub.links) for sub in subs) > 0
    paid = 0
    for sub in subs:
        solution = solve(sub)
        assert solution.optimal
        assert check_assignment(sub, solution.assignment) == []
        assert math.isclose(
            solution.objective_value, highs_objective(sub), rel_tol=1e-9, abs_tol=1e-9
        )
        paid += sum(solution.assignment[aux] for _a, _b, aux in sub.links)
    assert paid >= violations


@pytest.mark.parametrize("alpha, hardened", [(1.0, 4295), (0.2, 3074)])
def test_leaky_world_solves_to_optimality(tmp_path, alpha, hardened):
    """The 1000-pair leaky world in soft mode, whole: links that outweigh
    their cheaper endpoint become conflict edges, and the rest bound the
    search, so it is solved exactly (not just per component)."""
    model = synth_model(tmp_path, 7, 1000, leaks=4, alpha=alpha)
    solution = solve(model)
    assert solution.optimal
    assert (solution.stats.hardened_links, len(model.links)) == (hardened, 4295)
    assert math.isclose(
        solution.objective_value, highs_objective(model), rel_tol=1e-9, abs_tol=1e-9
    )


@pytest.mark.parametrize(
    "seed, pairs, leaks, alpha",
    [(1, 1200, 0, None), (3, 700, 4, 1.0), (3, 500, 4, 0.15)],
    ids=["hard", "soft", "soft-cheap-penalties"],
)
def test_block_components_match_highs(tmp_path, seed, pairs, leaks, alpha):
    """Components whose type constraints are bicliques, against HiGHS on
    the pairwise rows those stand for."""
    model = synth_model(tmp_path, seed, pairs, leaks=leaks, alpha=alpha, blocks=True)
    subs = [c.model for c in decompose(model) if 25 <= c.model.num_vars <= 500]
    assert len(subs) >= 10
    assert sum(
        len(left) * len(right) > 1 for sub in subs for _f, left, right in sub.bicliques
    ) > 0
    for sub in subs:
        solution = solve(sub)
        assert solution.optimal
        assert check_assignment(sub, solution.assignment) == []
        assert math.isclose(
            solution.objective_value, highs_objective(sub), rel_tol=1e-9, abs_tol=1e-9
        )


def test_mixed_hub_block_matches_highs():
    """A hub whose rb side wins: each side of its biclique is a twin
    class, so the search solves one edge."""
    from test_ilp import mixed_hub_model

    model = mixed_hub_model(50, seed=7, blocks=True)
    solution = solve(model)
    assert solution.optimal
    assert math.isclose(
        solution.objective_value, highs_objective(model), rel_tol=1e-9, abs_tol=1e-9
    )


@pytest.mark.parametrize("shape", ["mixed-hub-300", "path-400"])
def test_kernelized_models_match_highs(shape):
    """Models the twin merge (a hub's block sides) or the pendant fold (a
    path) solves in one node, against HiGHS on every row."""
    from test_ilp import mixed_hub_model, path_model

    model = mixed_hub_model(300, seed=7, blocks=True) if shape == "mixed-hub-300" else path_model(400)
    solution = solve(model)
    assert solution.optimal and solution.stats.nodes == 1
    assert math.isclose(
        solution.objective_value, highs_objective(model), rel_tol=1e-9, abs_tol=1e-9
    )


def test_tie_broken_selection_matches_highs_lexmax():
    """`solve` promises the optimum whose sorted ids are smallest; on
    models full of tied optima its selection is the one HiGHS picks out id
    by id."""
    rng = random.Random(20261022)
    for trial in range(16):
        model = tie_heavy_model(rng)
        solution = solve(model)
        assert solution.optimal, trial
        selected = [i for i in solution.selected() if i < model.num_decision]
        assert selected == highs_lexmax(model, 0.25), trial
