import inspect
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from reljoint.candidates import MentionPrediction, build_pair_candidates
from reljoint.clues import ClueSet, TypeClue
from reljoint.constraints import (
    FAMILY_ORDER,
    AuxVar,
    DecisionVar,
    HardConstraint,
    SoftAugmentation,
    generate_blocks,
    generate_hard,
    soften,
)
from reljoint.ilp import (
    IlpModel,
    ModelError,
    _ComponentSolver,
    _Timeout,
    _scaled,
    brute_force,
    build_model,
    check_assignment,
    decompose,
    export_lp,
    selection_objective,
    solve,
)

from conftest import chain_instance, random_model, soft_pair_model, synth_model


def two_var_conflict():
    vars = [
        DecisionVar(0, "p1", "USA", "NY", "r1", 1.2),
        DecisionVar(1, "p2", "USA", "DC", "r2", 1.8),
    ]
    hard = [HardConstraint("sr", (0, 1), TypeClue("sr", "r1", "r2", -2.0, "mined"))]
    return vars, hard


class TestBuildModel:
    def test_single_unconstrained_var(self):
        vars = [DecisionVar(0, "p", "s", "o", "r", 0.7)]
        model = build_model(vars, [])
        solution = solve(model)
        assert solution.assignment == {0: 1}
        assert solution.objective_value == 0.7

    def test_conflict_instance(self):
        model = build_model(*two_var_conflict())
        # brute force over the 4 assignments: feasible objectives 0, 1.2, 1.8
        assert brute_force(model).objective_value == 1.8
        assert solve(model).objective_value == 1.8
        assert solve(model).selected() == [1]

    def test_soft_low_penalty_selects_both(self):
        vars, remaining, aug = soft_pair_model(1.2, 1.8, penalty=0.8)
        model = build_model(vars, remaining, aug)
        solution = solve(model)
        # brute force over 8 assignments: both ends plus the violation
        # marker beats dropping either side (3.0 - 0.8 = 2.2)
        assert solution.objective_value == pytest.approx(2.2)
        assert solution.assignment == {0: 1, 1: 1, 2: 1}
        assert brute_force(model).objective_value == solution.objective_value

    def test_soft_high_penalty_behaves_hard(self):
        vars, remaining, aug = soft_pair_model(1.2, 1.8, penalty=8.0)
        model = build_model(vars, remaining, aug)
        solution = solve(model)
        assert solution.objective_value == 1.8
        assert solution.selected() == [1]

    def test_dangling_reference_rejected(self):
        vars, _ = two_var_conflict()
        bad = [HardConstraint("sr", (0, 7), TypeClue("sr", "r1", "r2"))]
        with pytest.raises(ModelError):
            build_model(vars, bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ModelError, match="x1 is not finite"):
            IlpModel(coeffs=[1.0, bad], num_decision=2)

    def test_overflowing_coefficient_sum_rejected(self):
        # solve and brute_force would die summing a selection's objective
        for coeffs in ([1e308, 1e308], [0.5, -1e308, -1e308]):
            with pytest.raises(ModelError, match="overflow a float sum"):
                IlpModel(coeffs=coeffs, num_decision=len(coeffs))
        model = IlpModel(coeffs=[1e308, 7e307, -1e308, -7e307], num_decision=4)
        for entry_point in (solve, brute_force):
            solution = entry_point(model)
            assert solution.selected() == [0, 1] and solution.objective_value == 1.7e308

    def test_sparse_ids_rejected(self):
        vars = [DecisionVar(3, "p", "s", "o", "r", 1.0)]
        with pytest.raises(ModelError):
            build_model(vars, [])

    @pytest.mark.parametrize(
        "links, message",
        [
            ([(2, 0, 7)], "link references unknown variable 7"),
            ([(2, 0, 1), (3, 0, 2)], "link endpoints must be decision variables"),
            ([(3, 0, 1), (2, 0, 1)], "auxiliary ids must continue densely, found 3"),
        ],
    )
    def test_bad_auxiliary_rejected(self, links, message):
        vars, hard = two_var_conflict()
        clue = hard[0].clue
        aux = [AuxVar(i, a, b, 0.5, "sr", clue) for i, a, b in links]
        with pytest.raises(ModelError, match=message):
            build_model(vars, [], SoftAugmentation(tuple(aux)))


class TestDecompose:
    def test_two_disjoint_conflicts(self):
        model = IlpModel(
            coeffs=[1.0, 0.9, 0.8, 0.7],
            num_decision=4,
            pairwise=[(0, 1), (2, 3)],
        )
        components = decompose(model)
        assert [c.var_map for c in components] == [(0, 1), (2, 3)]

    def test_clique_is_one_component(self):
        n = 5
        model = IlpModel(
            coeffs=[1.0] * n,
            num_decision=n,
            pairwise=[(i, j) for i in range(n) for j in range(i + 1, n)],
        )
        assert len(decompose(model)) == 1

    def test_unconstrained_positives_are_singletons(self):
        model = IlpModel(coeffs=[0.5, 0.6, 0.7], num_decision=3)
        components = decompose(model)
        assert [c.var_map for c in components] == [(0,), (1,), (2,)]
        solution = solve(model)
        assert solution.selected() == [0, 1, 2]
        assert solution.objective_value == pytest.approx(1.8)

    def test_links_glue_components(self):
        model = IlpModel(
            coeffs=[1.0, 1.0, -0.5],
            num_decision=2,
            links=[(0, 1, 2)],
        )
        assert len(decompose(model)) == 1

    def test_component_solutions_concatenate(self, rng):
        for trial in range(30):
            model = random_model(rng, min_decision=4, max_decision=10, with_links=True)
            whole = solve(model)
            merged = {i: 0 for i in range(model.num_vars)}
            for component in decompose(model):
                sub_solution = solve(component.model)
                for local, value in sub_solution.assignment.items():
                    merged[component.var_map[local]] = value
            assert not check_assignment(model, merged)
            assert selection_objective(
                model, (i for i, v in merged.items() if v == 1)
            ) == whole.objective_value


class TestSolve:
    def test_ou_group_keeps_best(self):
        model = IlpModel(
            coeffs=[0.5, 0.9, 0.7],
            num_decision=3,
            groups=[(0, 1, 2)],
        )
        solution = solve(model)
        # 5 feasible assignments of the 8: empty or one winner
        assert solution.selected() == [1]
        assert solution.objective_value == 0.9
        assert brute_force(model).objective_value == 0.9

    def test_no_constraints_selects_all(self, rng):
        coeffs = [round(rng.uniform(0.1, 1.0), 6) for _ in range(9)]
        model = IlpModel(coeffs=coeffs, num_decision=9)
        solution = solve(model)
        assert solution.selected() == list(range(9))
        assert solution.objective_value == selection_objective(model, range(9))

    def test_reports_optimal_and_stats(self):
        model = build_model(*two_var_conflict())
        solution = solve(model)
        assert solution.optimal
        assert solution.stats.components == 1
        assert solution.stats.nodes >= 1

    def test_chain_divergence_instance(self):
        vars, hard = chain_instance(1.0, 0.9, 0.8)
        model = build_model(vars, hard)
        assert solve(model).selected() == [0, 2]
        vars, hard = chain_instance(0.9, 1.0, 0.9)
        model = build_model(vars, hard)
        solution = solve(model)
        assert solution.selected() == [0, 2]
        assert solution.objective_value == pytest.approx(1.8)

    def test_solution_always_validates(self, rng):
        for _ in range(40):
            model = random_model(rng, with_links=True)
            solution = solve(model)
            assert not check_assignment(model, solution.assignment)

    def test_adding_constraint_never_helps(self, rng):
        for _ in range(30):
            model = random_model(rng, min_decision=4, max_decision=9)
            base = solve(model).objective_value
            i, j = rng.sample(range(model.num_decision), 2)
            tightened = IlpModel(
                coeffs=list(model.coeffs),
                num_decision=model.num_decision,
                pairwise=sorted(set(model.pairwise) | {(min(i, j), max(i, j))}),
                groups=list(model.groups),
                links=list(model.links),
            )
            assert solve(tightened).objective_value <= base + 1e-12

    def test_deterministic_across_runs(self, rng):
        model = random_model(rng, min_decision=8, max_decision=12, with_links=True)
        first = solve(model)
        for _ in range(3):
            again = solve(model)
            assert again.assignment == first.assignment
            assert again.objective_value == first.objective_value


def mixed_hub_model(pairs: int, seed: int, blocks: bool = False) -> IlpModel:
    """One subject in every pair, candidates ra and rb, an sr(ra, rb) clue:
    even pairs' mentions prefer ra, odd pairs' prefer rb. The clue is
    pairwise rows, or one biclique with `blocks`."""
    rng = random.Random(f"hub-{seed}")
    mentions = {}
    for i in range(pairs):
        pair_id = f"h{i:05d}"
        mentions[pair_id] = []
        for j in range(rng.randint(1, 3)):
            high, low = rng.uniform(0.45, 0.7), rng.uniform(0.1, 0.3)
            scores = {"ra": low, "rb": high} if i % 2 else {"ra": high, "rb": low}
            mentions[pair_id].append(
                MentionPrediction(pair_id, "hub", f"obj_{i:05d}", f"{pair_id}_m{j}", scores)
            )
    clues = ClueSet(sr=[TypeClue("sr", "ra", "rb")])
    generate = generate_blocks if blocks else generate_hard
    return build_model(*generate(build_pair_candidates(mentions), clues))


class TestPinnedSearch:
    """Node count, component count and objective of seeded models, pinned:
    a change to the branching order, the reductions or a tie-break moves
    them."""

    # each world in the pairwise rows only tests build, then in the blocks
    # the command line builds: the two forms search alike

    def test_hard_world(self, tmp_path):
        for blocks in (False, True):
            model = synth_model(tmp_path / str(blocks), seed=7, pairs=300, blocks=blocks)
            assert bool(model.bicliques) == blocks
            solution = solve(model)
            assert (solution.stats.nodes, solution.stats.components) == (201, 231), blocks
            assert solution.objective_value == 489.66778178071786, blocks

    def test_soft_leaky_world(self, tmp_path):
        for blocks in (False, True):
            model = synth_model(
                tmp_path / str(blocks), seed=7, pairs=150, leaks=4, alpha=1.0, blocks=blocks
            )
            assert bool(model.bicliques) == blocks
            solution = solve(model)
            assert (solution.stats.nodes, solution.stats.components) == (113, 131), blocks
            assert solution.stats.hardened_links == len(model.links) == 397, blocks
            assert solution.objective_value == 256.262290111018, blocks

    def test_mixed_preference_hub(self):
        solution = solve(mixed_hub_model(40, seed=7))
        assert (solution.stats.nodes, solution.stats.components) == (1, 1)
        assert solution.objective_value == 48.678231748258156


def boundary_link_model(rng: random.Random) -> tuple[IlpModel, list[str]]:
    """Random model whose link penalties each sit below, exactly on, or
    above minus the cheaper endpoint's coefficient; returns the model and
    each link's side."""
    n = rng.randint(3, 10)
    coeffs = [round(rng.uniform(0.05, 2.0), 2) for _ in range(n)]
    pairwise = set()
    for _ in range(rng.randint(0, n // 2)):
        i, j = rng.sample(range(n), 2)
        pairwise.add((min(i, j), max(i, j)))
    links, sides = [], []
    for _ in range(rng.randint(1, min(n, 25 - n))):
        a, b = rng.sample(range(n), 2)
        side = rng.choice(["below", "on", "above"])
        cheaper = min(coeffs[a], coeffs[b])
        penalty = {"below": -cheaper - 0.25, "on": -cheaper, "above": min(0.0, 0.25 - cheaper)}
        coeffs.append(penalty[side])
        links.append((a, b, n + len(links)))
        sides.append(side)
    return IlpModel(coeffs=coeffs, num_decision=n, pairwise=sorted(pairwise), links=links), sides


def kernel_model(rng: random.Random) -> IlpModel:
    """Random hard model of at most 16 variables with planted twin classes
    (two to four variables sharing their neighbors, as pairwise rows or a
    biclique) and pendants (one neighbor each), relabelled at random so
    that pendants sit on both sides of their neighbor's id. Weights come
    from a tie-heavy grid whose 0.1, 0.2 and 0.3 make float sums round."""
    n = rng.randint(3, 16)
    core = rng.randint(2, max(2, n // 3))
    edges = {tuple(rng.sample(range(core), 2)) for _ in range(rng.randint(0, 2 * core))}
    blocks = []
    k = core
    while k < n:
        kind = rng.choice(["twins", "pendant", "other"])
        if kind == "twins" and n - k >= 2:
            size = rng.randint(2, min(4, n - k))
            anchors = rng.sample(range(k), rng.randint(0, min(3, k)))
            if anchors and rng.random() < 0.5:
                blocks.append((anchors, range(k, k + size)))
            else:
                edges.update((a, t) for a in anchors for t in range(k, k + size))
            k += size
        elif kind == "pendant":
            edges.add((rng.randrange(k), k))
            k += 1
        else:
            edges.update((u, k) for u in rng.sample(range(k), rng.randint(0, min(2, k))))
            k += 1
    label = rng.sample(range(n), n)
    return IlpModel(
        coeffs=[rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 1.0]) for _ in range(n)],
        num_decision=n,
        pairwise=sorted({tuple(sorted((label[a], label[b]))) for a, b in edges}),
        bicliques=[
            ("sr", tuple(sorted(label[a] for a in left)), tuple(sorted(label[t] for t in right)))
            for left, right in blocks
        ],
    )


def linked_tie_model(rng: random.Random) -> IlpModel:
    """Random soft model of 3-11 decision variables with several links per
    variable: weights from a tie-heavy grid and link penalties small
    enough that few links harden, so the search folds two or more
    penalties into one partner and their rounded sums can tie."""
    n = rng.randint(3, 11)
    coeffs = [rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 1.0]) for _ in range(n)]
    pairwise = set()
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        pairwise.add((min(i, j), max(i, j)))
    ends = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = []
    for a, b in rng.sample(ends, min(rng.randint(1, min(2 * n, 18 - n)), len(ends))):
        coeffs.append(rng.choice([-0.05, -0.1, -0.2, -0.3, -0.4]))
        links.append((a, b, n + len(links)))
    return IlpModel(coeffs=coeffs, num_decision=n, pairwise=sorted(pairwise), links=links)


class TestLinkHardening:
    """A link whose penalty outweighs its cheaper endpoint becomes a
    conflict edge inside the component solver; one exactly on that line
    stays a link."""

    def test_equality_keeps_the_tie_break(self):
        # {0, 1, aux} ties {1} at 1.0; the tie-break prefers the first
        model = IlpModel(coeffs=[0.5, 1.0, -0.5], num_decision=2, links=[(0, 1, 2)])
        solution = solve(model)
        assert solution.stats.hardened_links == 0
        assert solution.selected() == brute_force(model).selected() == [0, 1, 2]
        model.coeffs[2] = -0.5000001
        solution = solve(model)
        assert solution.stats.hardened_links == 1
        assert solution.selected() == brute_force(model).selected() == [1]
        # {0, 1, aux} ties {0}: the cheaper endpoint's id is the larger one,
        # and the selection holding the smallest differing id (1) still wins
        model = IlpModel(coeffs=[1.0, 0.5, -0.5], num_decision=2, links=[(0, 1, 2)])
        solution = solve(model)
        assert solution.stats.hardened_links == 0
        assert solution.selected() == brute_force(model).selected() == [0, 1, 2]

    def test_boundary_penalties_match_brute_force(self, rng):
        for trial in range(150):
            model, sides = boundary_link_model(rng)
            solution = solve(model)
            oracle = brute_force(model)
            assert solution.stats.hardened_links == sides.count("below"), trial
            assert solution.objective_value == oracle.objective_value, trial
            assert solution.selected() == oracle.selected(), trial

    def test_timeout_fallback_never_scores_below_zero(self):
        # a 5-clique of links that are not dominated: 1 - 0.9 > 0
        n = 5
        links = [(a, b, n + k) for k, (a, b) in enumerate(itertools.combinations(range(n), 2))]
        model = IlpModel(coeffs=[1.0] * n + [-0.9] * len(links), num_decision=n, links=links)
        selection, optimal = _ComponentSolver(model, deadline=time.monotonic() - 1).run()
        assert not optimal
        chosen = set(selection) | {aux for a, b, aux in links if {a, b} <= selection}
        assert selection_objective(model, chosen) >= 0


class TestBruteForce:
    def test_matches_solve_on_examples(self):
        for coeffs, num_decision, pairwise, groups, links in [
            ([1.2, 1.8], 2, [(0, 1)], [], []),
            ([0.5, 0.9, 0.7], 3, [], [(0, 1, 2)], []),
            ([1.2, 1.8, -0.8], 2, [], [], [(0, 1, 2)]),
            # a 25-variable linked path: 13 decisions, 12 links
            (
                [1 + ((37 * i) % 11) / 100 for i in range(13)] + [-0.5] * 12,
                13, [], [], [(i, i + 1, 13 + i) for i in range(12)],
            ),
            # a 22-variable zero-weight plateau of 11 conflicting pairs
            ([0.0] * 22, 22, [(2 * i, 2 * i + 1) for i in range(11)], [], []),
        ]:
            model = IlpModel(
                coeffs=coeffs,
                num_decision=num_decision,
                pairwise=pairwise,
                groups=groups,
                links=links,
            )
            oracle, exact = brute_force(model), solve(model)
            assert oracle.objective_value == exact.objective_value
            assert oracle.selected() == exact.selected()

    def test_refuses_large_models(self):
        model = IlpModel(coeffs=[0.5] * 26, num_decision=26)
        with pytest.raises(ValueError, match="25"):
            brute_force(model)

    def test_all_zero_always_feasible(self):
        # a model whose only feasible selections are tiny still solves
        model = IlpModel(
            coeffs=[0.1, 0.1],
            num_decision=2,
            pairwise=[(0, 1)],
        )
        solution = brute_force(model)
        assert solution.objective_value >= 0.0

    def test_large_magnitudes_keep_the_optimum(self):
        # float sums of these round off by more than any fixed absolute
        # tolerance: the oracle and the solver must compare exact values
        model = IlpModel(coeffs=[6.1, 9.0, 90000000000.1, 8.1], num_decision=4)
        assert brute_force(model).selected() == solve(model).selected() == [0, 1, 2, 3]
        # exact values also hold where a float sum of the magnitudes overflows
        model = IlpModel(coeffs=[1e308, -1e308], num_decision=2)
        assert brute_force(model).selected() == solve(model).selected() == [0]

    def test_linking_semantics_enforced(self):
        # aux may be 1 only when both ends are 1
        model = IlpModel(coeffs=[0.4, 0.4, -0.1], num_decision=2, links=[(0, 1, 2)])
        solution = brute_force(model)
        assert solution.assignment == {0: 1, 1: 1, 2: 1}
        assert solution.objective_value == pytest.approx(0.7)
        infeasible = {0: 1, 1: 0, 2: 1}
        assert check_assignment(model, infeasible)

    def test_oracle_equivalence_randomized(self, rng):
        for trial in range(120):
            model = random_model(
                rng, min_decision=3, max_decision=12, with_links=(trial % 2 == 0)
            )
            exact = solve(model)
            oracle = brute_force(model)
            assert exact.objective_value == oracle.objective_value, (
                f"trial {trial}: solver {exact.objective_value!r} "
                f"!= oracle {oracle.objective_value!r}"
            )
            assert exact.selected() == oracle.selected()

    def test_tie_heavy_models_match_exactly(self, rng):
        # coefficients and penalties on a half-unit grid make many optima
        # of equal value, of different sizes, and exact zeros after folding
        for trial in range(300):
            n = rng.randint(3, 10)
            coeffs = [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(n)]
            pairwise = set()
            for _ in range(rng.randint(0, n)):
                i, j = rng.sample(range(n), 2)
                pairwise.add((min(i, j), max(i, j)))
            links = []
            for _ in range(rng.randint(0, min(n, 16 - n))):
                a, b = rng.sample(range(n), 2)
                coeffs.append(rng.choice([-0.5, -1.0]))
                links.append((a, b, n + len(links)))
            model = IlpModel(
                coeffs=coeffs, num_decision=n, pairwise=sorted(pairwise), links=links
            )
            exact, oracle = solve(model), brute_force(model)
            assert exact.objective_value == oracle.objective_value, trial
            assert exact.selected() == oracle.selected(), trial

    def test_twins_and_pendants_match_exactly(self, rng):
        merged = folded = 0
        for trial in range(2000):
            model = kernel_model(rng)
            exact, oracle = solve(model), brute_force(model)
            assert exact.objective_value == oracle.objective_value, trial
            assert exact.selected() == oracle.selected(), trial
            merged += exact.stats.merged_twins
            folded += exact.stats.folded_pendants
        assert merged > 1000 and folded > 300

    def test_linked_tie_models_match_exactly(self, rng):
        for trial in range(2000):
            model = linked_tie_model(rng)
            exact, oracle = solve(model), brute_force(model)
            assert exact.objective_value == oracle.objective_value, trial
            assert exact.selected() == oracle.selected(), trial

    def test_exact_sums_decide_ties(self):
        # as floats, 0.1 + 0.2 is exactly above 0.3, but both selections
        # sum to 1.5 once rounded: the exact sums decide, not the tie-break
        model = IlpModel(
            coeffs=[1.0, 0.3, 0.0, 0.2, 0.2, 0.1], num_decision=6, pairwise=[(1, 4), (1, 5)]
        )
        assert solve(model).selected() == brute_force(model).selected() == [0, 2, 3, 4, 5]
        # twin sides {0, 2} and {1, 3} of one block: 0.3 + 0.1 and 0.2 + 0.2
        # both round to 0.4, and the second is exactly heavier
        model = IlpModel(
            coeffs=[0.3, 0.2, 0.1, 0.2], num_decision=4, pairwise=[(0, 1), (0, 3), (1, 2), (2, 3)]
        )
        solution = solve(model)
        assert solution.stats.merged_twins == 2
        assert solution.selected() == brute_force(model).selected() == [1, 3]
        # twins {1, 2} weigh exactly as much as 0 and the twins {3, 4}
        # together, but the rounded weights read 0.30000000000000004 and
        # 0.3: the domination rule must not commit {1, 2}, and the tie
        # goes to the selection holding 0
        model = IlpModel(
            coeffs=[0.05, 0.1, 0.2, 0.2, 0.05, 0.0],
            num_decision=6,
            pairwise=[(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4)],
        )
        solution = solve(model)
        assert solution.stats.merged_twins == 2
        assert solution.selected() == brute_force(model).selected() == [0, 3, 4]
        # committing 4 folds the link (4, 1) into 1's coefficient, and
        # 1.0 - 0.1 rounds up: the exact sums of {1, 3, 4, 7, aux 10} and
        # {0, 1, 6, 7} tie, and the selection holding 0 wins
        model = IlpModel(
            coeffs=[0.1, 1.0, 0.3, 0.2, 1.0, 0.1, 1.0, 0.3, -0.2, -0.5, -0.1],
            num_decision=8,
            pairwise=[(0, 3), (0, 4), (0, 5), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (5, 7)],
            links=[(4, 2, 8), (2, 1, 9), (4, 1, 10)],
        )
        assert solve(model).selected() == brute_force(model).selected() == [0, 1, 6, 7]
        # committing 1 and then 2 folds -0.1 and -0.4 into 0: 0.5 - 0.1 - 0.4
        # rounds step by step to exactly 0.0, but the exact sum is below 0,
        # so 0 must stay out
        model = IlpModel(
            coeffs=[0.5, 0.7, 0.7, -0.4, -0.1], num_decision=3, links=[(2, 0, 3), (0, 1, 4)]
        )
        assert solve(model).selected() == brute_force(model).selected() == [1, 2]
        assert solve(model).objective_value == brute_force(model).objective_value

    def test_hard_soft_limit(self, rng):
        for _ in range(25):
            n = rng.randint(3, 8)
            vars = [
                DecisionVar(i, f"p{i}", f"s{i % 3}", f"o{i}", f"r{i}", round(rng.uniform(0.1, 2.0), 6))
                for i in range(n)
            ]
            hard = []
            for _ in range(rng.randint(1, n)):
                i, j = rng.sample(range(n), 2)
                clue = TypeClue("sr", f"r{i}", f"r{j}", round(rng.uniform(-5, -0.5), 6), "mined")
                hard.append(HardConstraint("sr", (min(i, j), max(i, j)), clue))
            hard = sorted(set(hard), key=lambda c: c.var_ids)
            hard_solution = solve(build_model(vars, hard))
            total = sum(v.objective_coeff for v in vars)
            alpha = (total + 1.0) / min(-c.clue.k_score for c in hard)
            remaining, aug = soften(vars, hard, alpha)
            soft_solution = solve(build_model(vars, remaining, aug))
            original = [i for i in soft_solution.selected() if i < n]
            assert original == hard_solution.selected()


class TestExportLp:
    def test_conflict_model_file(self, tmp_path):
        model = build_model(*two_var_conflict())
        path = tmp_path / "model.lp"
        export_lp(model, path)
        text = path.read_text(encoding="utf-8")
        assert text == (
            "Maximize\n"
            " obj: 1.2 d_p1_r1 + 1.8 d_p2_r2\n"
            "Subject To\n"
            " c1: d_p1_r1 + d_p2_r2 <= 1\n"
            "Binary\n"
            " d_p1_r1\n"
            " d_p2_r2\n"
            "End\n"
        )

    def test_linking_rows(self, tmp_path):
        vars, remaining, aug = soft_pair_model(1.2, 1.8, penalty=0.8)
        model = build_model(vars, remaining, aug)
        path = tmp_path / "soft.lp"
        export_lp(model, path)
        text = path.read_text(encoding="utf-8")
        assert " c1: aux_0_1 - d_p1_r1 <= 0\n" in text
        assert " c2: aux_0_1 - d_p2_r2 <= 0\n" in text
        assert " c3: d_p1_r1 + d_p2_r2 - aux_0_1 <= 1\n" in text
        assert "- 0.8 aux_0_1" in text

    def test_empty_model(self, tmp_path):
        model = IlpModel(coeffs=[], num_decision=0)
        path = tmp_path / "empty.lp"
        export_lp(model, path)
        assert path.read_text(encoding="utf-8") == (
            "Maximize\n obj:\nSubject To\nBinary\nEnd\n"
        )

    def test_byte_determinism(self, tmp_path, rng):
        model = random_model(rng, with_links=True)
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        export_lp(model, a)
        export_lp(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_name_sanitization(self, tmp_path):
        vars = [DecisionVar(0, "p 1", "s", "o", "rel/x", 1.0)]
        model = build_model(vars, [])
        path = tmp_path / "san.lp"
        export_lp(model, path)
        assert "d_p_1_rel_x" in path.read_text(encoding="utf-8")


def expanded(model: IlpModel) -> IlpModel:
    """The same model with each biclique written out as pairwise rows, in
    the order `generate_hard` gives them, ahead of the pairwise rows."""
    rows = []
    for family, left, right in model.bicliques:
        if left == right:
            pairs = itertools.combinations(left, 2)
        elif family == "rer":
            pairs = itertools.product(left, right)
        else:
            pairs = ((min(a, b), max(a, b)) for a, b in itertools.product(left, right))
        rows += [(FAMILY_ORDER[family], row) for row in pairs]
    return IlpModel(
        coeffs=list(model.coeffs),
        num_decision=model.num_decision,
        pairwise=[row for _rank, row in sorted(rows)] + list(model.pairwise),
        groups=list(model.groups),
        links=list(model.links),
        names=list(model.names),
    )


def random_block_model(rng: random.Random) -> IlpModel:
    """`random_model` plus bicliques of every shape: disjoint sides of
    one or more members, and one side standing for a whole bucket."""
    base = random_model(rng, min_decision=4, max_decision=12, with_links=True, max_total=22)
    n = base.num_decision
    bicliques = []
    for _ in range(rng.randint(1, 4)):
        members = rng.sample(range(n), rng.randint(2, min(n, 7)))
        family = rng.choice(["sr", "ro", "rer"])
        if rng.random() < 0.2:
            bicliques.append((family, tuple(sorted(members)), tuple(sorted(members))))
        else:
            cut = rng.randint(1, len(members) - 1)
            bicliques.append((family, tuple(sorted(members[:cut])), tuple(sorted(members[cut:]))))
    return IlpModel(
        coeffs=base.coeffs,
        num_decision=n,
        pairwise=base.pairwise,
        groups=base.groups,
        links=base.links,
        bicliques=bicliques,
    )


class TestBicliques:
    """A biclique is the set of pairwise rows it stands for, to the solver,
    the oracle, the feasibility check, the decomposition and the LP file."""

    def test_matches_brute_force_and_its_rows(self, rng):
        for trial in range(150):
            model = random_block_model(rng)
            rows = expanded(model)
            solution = solve(model)
            oracle = brute_force(model)
            assert oracle.assignment == brute_force(rows).assignment, trial
            assert solution.objective_value == oracle.objective_value, trial
            assert solution.selected() == oracle.selected(), trial
            assert solve(rows).selected() == solution.selected(), trial
            n = model.num_decision
            only_blocks = IlpModel(coeffs=model.coeffs[:n], num_decision=n, bicliques=model.bicliques)
            for _ in range(20):
                assignment = {i: int(rng.random() < 0.3) for i in range(n)}
                assert bool(check_assignment(only_blocks, assignment)) == bool(
                    check_assignment(expanded(only_blocks), assignment)
                ), trial

    def test_decompose_keeps_bicliques_inside_components(self, rng):
        for trial in range(40):
            model = random_block_model(rng)
            components = decompose(model)
            by_rows = decompose(expanded(model))
            assert [c.var_map for c in components] == [c.var_map for c in by_rows]
            kept = 0
            for component in components:
                back = component.var_map
                for family, left, right in component.model.bicliques:
                    parent = (family, tuple(back[i] for i in left), tuple(back[i] for i in right))
                    assert parent in model.bicliques
                    kept += 1
            assert kept == len(model.bicliques), trial

    def test_export_writes_every_row(self, tmp_path, rng):
        model = IlpModel(
            coeffs=[1.0, 2.0, 3.0, 4.0],
            num_decision=4,
            pairwise=[(0, 1)],
            bicliques=[("rer", (3,), (0, 1)), ("sr", (1, 2), (0, 3))],
        )
        export_lp(model, tmp_path / "blocks.lp")
        text = (tmp_path / "blocks.lp").read_text(encoding="utf-8")
        assert text.split("Subject To\n")[1].split("Binary\n")[0] == (
            " c1: x0 + x1 <= 1\n"
            " c2: x0 + x2 <= 1\n"
            " c3: x1 + x3 <= 1\n"
            " c4: x2 + x3 <= 1\n"
            " c5: x3 + x0 <= 1\n"
            " c6: x3 + x1 <= 1\n"
            " c7: x0 + x1 <= 1\n"
        )
        for trial in range(30):
            model = random_block_model(rng)
            export_lp(model, tmp_path / "blocks.lp")
            export_lp(expanded(model), tmp_path / "rows.lp")
            assert (tmp_path / "blocks.lp").read_bytes() == (tmp_path / "rows.lp").read_bytes()

    @pytest.mark.parametrize(
        "left, right, family",
        [((0, 1), (1, 2), "sr"), ((1, 0), (2,), "ro"), ((0,), (), "sr"), ((0,), (3,), "sr"),
         ((0,), (0,), "sr"), ((0,), (1,), "ou")],
    )
    def test_malformed_biclique_rejected(self, left, right, family):
        with pytest.raises(ModelError):
            IlpModel(
                coeffs=[1.0, 1.0, 1.0, -0.5],
                num_decision=3,
                links=[(0, 1, 3)],
                bicliques=[(family, left, right)],
            )


@pytest.mark.parametrize(
    "seed, pairs, leaks, alpha",
    [(7, 300, 0, None), (3, 800, 0, None), (7, 1000, 4, 1.0), (3, 500, 4, 0.15)],
    ids=["hard-300", "hard-800", "leaky-soft", "leaky-soft-cheap-penalties"],
)
def test_block_and_row_worlds_agree(tmp_path, seed, pairs, leaks, alpha):
    rows = synth_model(tmp_path, seed, pairs, leaks=leaks, alpha=alpha)
    blocks = synth_model(tmp_path, seed, pairs, leaks=leaks, alpha=alpha, blocks=True)
    assert blocks.bicliques and not rows.bicliques
    assert (blocks.coeffs, blocks.links, blocks.names) == (rows.coeffs, rows.links, rows.names)
    by_rows, by_blocks = solve(rows), solve(blocks)
    assert by_blocks.optimal and by_rows.optimal
    assert by_blocks.selected() == by_rows.selected()
    assert by_blocks.objective_value == by_rows.objective_value
    assert by_blocks.stats.components == by_rows.stats.components
    assert check_assignment(rows, by_blocks.assignment) == []
    assert check_assignment(blocks, by_rows.assignment) == []


@pytest.mark.parametrize("pairs", [40, 80])
def test_mixed_hub_blocks_agree_with_rows(pairs):
    blocks = mixed_hub_model(pairs, seed=7, blocks=True)
    assert len(blocks.bicliques) == 1 and not blocks.pairwise
    by_rows, by_blocks = solve(mixed_hub_model(pairs, seed=7)), solve(blocks)
    assert by_blocks.optimal
    assert by_blocks.selected() == by_rows.selected()
    assert by_blocks.objective_value == by_rows.objective_value
    # the bound scores the hub's one biclique exactly, at its heavier side
    assert by_blocks.stats.nodes <= by_rows.stats.nodes


def test_time_budget_covers_the_whole_solve(tmp_path):
    # unbudgeted, this world's 318-variable component takes seconds
    model = synth_model(tmp_path, 7, 1000, leaks=4, alpha=0.1)
    solution = solve(model, time_budget_ms=200)
    assert not solution.optimal
    assert solution.objective_value >= 0
    assert check_assignment(model, solution.assignment) == []
    assert solution.stats.wall_ms < 700


@pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
def test_invalid_time_budget_rejected(budget):
    # a NaN deadline never expires; a negative one would expire at once
    model = build_model(*two_var_conflict())
    with pytest.raises(ValueError, match="time_budget_ms must be >= 0"):
        solve(model, budget)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@example([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.1, 1e300, -1e300])
def test_scaled_weights_are_exact(coeffs):
    weights, scale = _scaled(coeffs)
    assert scale > 0 and scale & (scale - 1) == 0
    assert len(weights) == len(coeffs) and all(type(w) is int for w in weights)
    assert all(Fraction(w, scale) == Fraction(c) for w, c in zip(weights, coeffs))


@pytest.mark.parametrize("factor", [1.0, 0.1, 1e-300, 5e-324, 1e300])
def test_solve_matches_brute_force_at_any_magnitude(rng, factor):
    # at 5e-324 every coefficient rounds to 0, 1 or 2 units of the
    # smallest subnormal: a plateau of exact ties
    for trial in range(60):
        drawn = random_model(rng, min_decision=3, max_decision=10, with_links=True)
        model = IlpModel(
            coeffs=[c * factor for c in drawn.coeffs],
            num_decision=drawn.num_decision,
            pairwise=drawn.pairwise,
            groups=drawn.groups,
            links=drawn.links,
        )
        exact, oracle = solve(model), brute_force(model)
        assert exact.selected() == oracle.selected(), trial
        assert exact.objective_value == oracle.objective_value, trial


def crown_model(pairs: int, seed: int) -> IlpModel:
    """`mixed_hub_model`'s weights on a crown: ra of one pair conflicts
    with rb of every other pair, so at the root no two variables are twins
    and none is a pendant or dominated, and the search excludes them one
    at a time."""
    rng = random.Random(f"crown-{seed}")
    coeffs = []
    for i in range(pairs):
        high, low = rng.uniform(0.45, 0.7), rng.uniform(0.1, 0.3)
        coeffs += [low, high] if i % 2 else [high, low]  # ra is 2i, rb is 2i + 1
    rows = [tuple(sorted((2 * i, 2 * j + 1))) for i in range(pairs) for j in range(pairs) if i != j]
    return IlpModel(coeffs=coeffs, num_decision=2 * pairs, pairwise=sorted(rows))


def path_model(n: int) -> IlpModel:
    """A path of n variables, rows (i, i + 1), coefficients 1 + ((37 i) mod 11) / 100:
    interior variables tie on degree, and no rule but the pendant fold
    reduces it."""
    return IlpModel(
        coeffs=[1 + ((37 * i) % 11) / 100 for i in range(n)],
        num_decision=n,
        pairwise=[(i, i + 1) for i in range(n - 1)],
    )


def test_search_depth_needs_no_recursion_limit(monkeypatch):
    model = crown_model(60, seed=7)
    depth = [0, 0]  # current and deepest nesting of `_solve_free`
    solve_free = _ComponentSolver._solve_free

    def counted(self, free):
        depth[0] += 1
        depth[1] = max(depth)
        result = yield from solve_free(self, free)
        depth[0] -= 1
        return result

    monkeypatch.setattr(_ComponentSolver, "_solve_free", counted)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        limit = sys.getrecursionlimit()
        solution = solve(model)
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old_limit)
    assert solution.optimal
    # the premise: the search still nests deep under every reduction
    assert solution.stats.nodes == 153 and depth[1] >= 45


def test_kernel_rules_fire(tmp_path):
    hub = solve(mixed_hub_model(160, seed=7, blocks=True))
    assert (hub.stats.nodes, hub.stats.merged_twins, hub.stats.folded_pendants) == (1, 318, 0)
    world = solve(synth_model(tmp_path, 7, 2000, blocks=True))
    assert world.optimal and world.stats.merged_twins > 0 and world.stats.folded_pendants > 0
    assert world.stats.nodes == 263
    path = solve(path_model(400))
    assert path.optimal and path.stats.nodes == 1 and path.stats.folded_pendants > 0


def test_timeout_mid_search_falls_back_from_the_root(tmp_path):
    model = synth_model(tmp_path, 7, 1000, leaks=4, alpha=0.1, blocks=True)
    sub = max((c.model for c in decompose(model)), key=lambda m: m.num_vars)
    assert (sub.num_vars, len(sub.links)) == (318, 220)
    root_greedy, optimal = _ComponentSolver(sub, deadline=time.monotonic() - 1).run()
    assert not optimal
    for after in (5, 50, 400):
        solver = _ComponentSolver(sub, deadline=None)
        folded = []

        def tick():  # the clock runs out on node `after`
            solver.nodes += 1
            if solver.nodes == after:
                folded.append(solver.link_active.count(False))
                raise _Timeout

        solver._tick = tick
        selection, optimal = solver.run()
        assert not optimal
        assert folded[0] > 0, after  # the timeout struck inside include branches
        assert solver.coeff == _scaled(sub.coeffs)[0]
        assert all(solver.link_active)
        assert solver.trail == []
        assert selection == root_greedy, after
