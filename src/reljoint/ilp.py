"""0-1 integer linear program: model, exact solver, oracle, LP export.

The model only ever contains four row shapes - pairwise exclusions
(x_i + x_j <= 1), at-most-one groups, bicliques (x_a + x_b <= 1 for every
a of one side and b of the other, kept as the two sides), and the
three-row linking gadget that forces an auxiliary variable to the AND of
its two endpoints. That restriction buys an exact, deterministic solver:
the constraint graph is decomposed into connected components, and each
component is searched by depth-first branch and bound that re-splits the
remaining free variables after every branch, with an upper bound
tightened by the at-most-one cliques and the bicliques for pruning. The
search runs on an explicit stack, so any depth works under the default
recursion limit, on the caller's thread. A biclique costs the solver, the
oracle and the feasibility check time in its number of members, not in
its number of rows.

Feasibility forces every auxiliary variable to equal the AND of its
endpoints, so the search only branches on decision variables; a link's
penalty is folded into the partner's coefficient once one endpoint is
committed. A link whose penalty outweighs its cheaper endpoint is never
paid by an optimum, so the component solver treats it as a conflict
edge; the links that remain tighten the bound pair by pair.

Before each branching step the component solver kernelizes: variables
with the same neighbors (twins) merge into their smallest id, and a
variable with one neighbor (a pendant) folds into that neighbor's
weight, so a hub's block sides cost one variable each and a path is
solved without branching. Merges, pendant folds and link folds go on one
trail, unwound once the smaller problem is solved, which puts the removed
variables back.

Determinism contract: fixed inputs give a fixed result whenever the
search completes within budget. The component solver weighs in integers:
every coefficient of a component times one power of two, the same for
all of them, is an int, so every merged weight, folded link, bound and
selection value is an exact int sum and every comparison is exact, with
no rounding to decide one. Among optima of exactly equal objective the
one that holds the smallest id on which they differ wins, i.e. the
smallest `(*sorted selected ids, num_vars)` tuple. That order decides a
union by its parts, so the winners of separate components and
subproblems merge into the whole-model winner, and `solve` and
`brute_force` agree exactly. Objectives are reported with math.fsum over
ascending variable ids, so equal selections always yield bit-identical
values.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Generator, Iterable, Mapping, Sequence

from .clues import TYPE_KINDS
from .constraints import (
    ConflictBlock,
    Constraint,
    DecisionVar,
    SoftAugmentation,
    canonical_rows,
)
from .defaults import DEFAULT_TIME_BUDGET_MS

BRUTE_FORCE_LIMIT = 25


class ModelError(ValueError):
    pass


@dataclass
class IlpModel:
    """Binary maximization model.

    `coeffs[i]` is variable i's objective coefficient; ids are dense.
    Variables with id >= num_decision are auxiliary: each appears as the
    third element of exactly one link and nowhere else.

    A biclique `(family, left, right)` is the type-constraint block of that
    family: x_a + x_b <= 1 for every a in `left` and b in `right`. Its
    sides are ascending decision ids, disjoint, or equal for a block over
    one bucket, which then excludes every two of its members. The family
    fixes only how its rows are written out (see `export_lp`).
    """

    coeffs: list[float]
    num_decision: int
    pairwise: list[tuple[int, int]] = field(default_factory=list)
    groups: list[tuple[int, ...]] = field(default_factory=list)
    links: list[tuple[int, int, int]] = field(default_factory=list)
    bicliques: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )
    names: list[str] | None = None

    def __post_init__(self):
        if self.names is None:
            self.names = [f"x{i}" for i in range(len(self.coeffs))]
        self.validate()

    @classmethod
    def _of_valid_rows(cls, **fields) -> IlpModel:
        """A model from rows cut out of an already validated model, built
        without running `validate()` again."""
        model = cls.__new__(cls)
        model.__dict__.update(fields)
        return model

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def validate(self) -> None:
        n = len(self.coeffs)
        if len(self.names) != n:
            raise ModelError("names/coeffs length mismatch")
        if len(set(self.names)) != n:
            raise ModelError("variable names are not unique")
        if not 0 <= self.num_decision <= n:
            raise ModelError("num_decision out of range")
        if not all(map(math.isfinite, self.coeffs)):
            bad = next(i for i, c in enumerate(self.coeffs) if not math.isfinite(c))
            raise ModelError(f"coefficient of {self.names[bad]} is not finite: {self.coeffs[bad]}")
        # every selection's objective lies between these two sums
        try:
            math.fsum(c for c in self.coeffs if c > 0)
            math.fsum(c for c in self.coeffs if c < 0)
        except OverflowError:
            raise ModelError("the positive or negative coefficients overflow a float sum") from None

        def check(i: int, where: str) -> None:
            if not 0 <= i < n:
                raise ModelError(f"{where} references unknown variable {i}")

        aux_ids = set()
        for a, b, aux in self.links:
            for i in (a, b, aux):
                check(i, "link")
            if len({a, b, aux}) != 3:
                raise ModelError(f"degenerate link ({a}, {b}, {aux})")
            if aux in aux_ids:
                raise ModelError(f"auxiliary variable {aux} used by two links")
            aux_ids.add(aux)
        expected_aux = set(range(self.num_decision, n))
        if aux_ids != expected_aux:
            raise ModelError("auxiliary ids must be exactly the ids past num_decision")
        for a, b, _aux in self.links:
            if a in expected_aux or b in expected_aux:
                raise ModelError("link endpoints must be decision variables")
        for i, j in self.pairwise:
            check(i, "pairwise")
            check(j, "pairwise")
            if i == j:
                raise ModelError(f"pairwise constraint on a single variable {i}")
            if i in expected_aux or j in expected_aux:
                raise ModelError("pairwise constraints may not touch auxiliary variables")
        for group in self.groups:
            if len(group) < 2 or len(set(group)) != len(group):
                raise ModelError(f"bad group {group}")
            for i in group:
                check(i, "group")
                if i in expected_aux:
                    raise ModelError("groups may not touch auxiliary variables")
        for family, left, right in self.bicliques:
            if family not in TYPE_KINDS:
                raise ModelError(f"biclique of unknown family {family!r}")
            for side in (left, right):
                if (
                    not side
                    or list(side) != sorted(set(side))
                    or side[0] < 0
                    or side[-1] >= self.num_decision
                ):
                    raise ModelError(f"biclique side {side} is not ascending decision ids")
            if len(left) < 2 if left == right else not set(left).isdisjoint(right):
                raise ModelError(f"biclique sides {left} and {right} overlap")


@dataclass
class SolveStats:
    nodes: int = 0
    components: int = 0
    wall_ms: float = 0.0
    # links the component solvers turned into conflict edges
    hardened_links: int = 0
    # variables merged into a twin, and pendants folded into a neighbour
    merged_twins: int = 0
    folded_pendants: int = 0


@dataclass
class Solution:
    assignment: dict[int, int]
    objective_value: float
    optimal: bool
    stats: SolveStats

    def selected(self) -> list[int]:
        return sorted(i for i, v in self.assignment.items() if v == 1)


def build_model(
    vars: Sequence[DecisionVar],
    hard: Sequence[Constraint],
    soft: SoftAugmentation | None = None,
) -> IlpModel:
    """Assemble the model from generated variables and constraints: a
    two-variable row becomes a pairwise row, a larger one a group, and a
    block a biclique. It checks only what the model cannot: that each
    coefficient lands at its variable's id, the decision ids being dense
    and the auxiliary ids continuing them in order. `IlpModel.validate`
    checks every row."""
    for expected, v in enumerate(vars):
        if v.id != expected:
            raise ModelError(f"variable ids must be dense, found {v.id} at position {expected}")
    n = len(vars)
    coeffs = [v.objective_coeff for v in vars]
    pairwise: list[tuple[int, int]] = []
    groups: list[tuple[int, ...]] = []
    bicliques: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    for c in hard:
        if isinstance(c, ConflictBlock):
            bicliques.append((c.family, c.left, c.right))
        elif len(c.var_ids) == 2:
            pairwise.append((c.var_ids[0], c.var_ids[1]))
        else:
            groups.append(c.var_ids)
    links: list[tuple[int, int, int]] = []
    if soft is not None:
        for aux in soft.aux_vars:
            if aux.id != len(coeffs):
                raise ModelError(f"auxiliary ids must continue densely, found {aux.id}")
            coeffs.append(-aux.penalty)
            links.append((aux.var_a, aux.var_b, aux.id))
    names = _unique_names(
        [_var_name(v) for v in vars] + [f"aux_{a}_{b}" for a, b, _aux in links]
    )
    return IlpModel(
        coeffs=coeffs,
        num_decision=n,
        pairwise=pairwise,
        groups=groups,
        links=links,
        bicliques=bicliques,
        names=names,
    )


def _var_name(v: DecisionVar) -> str:
    return _sanitize(f"d_{v.pair_id}_{v.relation}")


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _unique_names(names: Iterable[str]) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for name in names:
        if name in seen:
            suffix = 2
            while f"{name}_{suffix}" in seen:
                suffix += 1
            name = f"{name}_{suffix}"
        seen.add(name)
        out.append(name)
    return out


def selection_objective(model: IlpModel, selected: Iterable[int]) -> float:
    """Canonical objective of a selection: fsum over ascending ids."""
    return math.fsum(model.coeffs[i] for i in sorted(selected))


def check_assignment(model: IlpModel, assignment: Mapping[int, int]) -> list[str]:
    """All constraint violations of an assignment (empty = feasible)."""
    problems: list[str] = []
    for i in range(model.num_vars):
        if assignment.get(i) not in (0, 1):
            problems.append(f"variable {i} is not binary")
    for i, j in model.pairwise:
        if assignment.get(i, 0) + assignment.get(j, 0) > 1:
            problems.append(f"pairwise ({i}, {j}) violated")
    for group in model.groups:
        if sum(assignment.get(i, 0) for i in group) > 1:
            problems.append(f"group {group} violated")
    for family, left, right in model.bicliques:
        in_left = sum(assignment.get(i, 0) for i in left)
        if left == right:
            violated = in_left > 1
        else:
            violated = in_left > 0 and sum(assignment.get(i, 0) for i in right) > 0
        if violated:
            problems.append(f"{family} biclique {left} x {right} violated")
    for a, b, aux in model.links:
        xa, xb, xx = assignment.get(a, 0), assignment.get(b, 0), assignment.get(aux, 0)
        if xx > xa or xx > xb or xa + xb - xx > 1:
            problems.append(f"link ({a}, {b}, {aux}) violated")
    return problems


@dataclass
class Component:
    """A connected sub-model plus the map from its local ids back to the
    parent model's ids."""

    model: IlpModel
    var_map: tuple[int, ...]


def _bits(mask: int) -> list[int]:
    """Set bits of a mask in ascending order, in time linear in its length."""
    digits = bin(mask)[:1:-1]
    out: list[int] = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _conflict_masks(model: IlpModel) -> list[int]:
    """Per variable, the mask of the variables a row forbids beside it."""
    conflict = [0] * model.num_vars
    for i, j in model.pairwise:
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
    cliques = list(model.groups)
    for _family, left, right in model.bicliques:
        if left == right:
            cliques.append(left)
            continue
        left_mask = right_mask = 0
        for i in left:
            left_mask |= 1 << i
        for i in right:
            right_mask |= 1 << i
        for i in left:
            conflict[i] |= right_mask
        for i in right:
            conflict[i] |= left_mask
    for clique in cliques:
        members = 0
        for i in clique:
            members |= 1 << i
        for i in clique:
            conflict[i] |= members & ~(1 << i)
    return conflict


def _structure_masks(conflict: Sequence[int], links: Iterable[tuple[int, int, int]]) -> list[int]:
    """The conflict masks with each link's endpoints joined: the graph
    whose connected parts are solved apart."""
    struct = list(conflict)
    for a, b, _aux in links:
        struct[a] |= 1 << b
        struct[b] |= 1 << a
    return struct


def _parts(free: int, struct: Sequence[int]) -> list[int]:
    """Connected parts of the set `free` under the neighbour masks
    `struct`, ordered by their lowest id."""
    parts: list[int] = []
    while free:
        part = frontier = free & -free
        while frontier:
            grown = 0
            while frontier:  # lowest bit first: frontiers are sparse in `free`
                low = frontier & -frontier
                grown |= struct[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & free & ~part
            part |= frontier
        parts.append(part)
        free &= ~part
    return parts


def decompose(model: IlpModel) -> list[Component]:
    """Split into connected components of the constraint graph.

    Links connect their endpoints and auxiliary variable; unconstrained
    variables become singleton components. Components are ordered by their
    smallest parent id, so the output is independent of traversal order.
    """
    n = model.num_vars
    struct = _structure_masks(_conflict_masks(model), model.links)
    # the parts of the decision variables; each auxiliary variable then
    # joins its link's part, after the decision ids (auxiliary ids are larger)
    members_of = [_bits(part) for part in _parts((1 << model.num_decision) - 1, struct)]
    label = [0] * n
    for comp, members in enumerate(members_of):
        for gid in members:
            label[gid] = comp
    for a, _b, aux in model.links:
        label[aux] = label[a]
        members_of[label[a]].append(aux)
    local = [0] * n
    for members in members_of:
        members.sort()
        for lid, gid in enumerate(members):
            local[gid] = lid

    # a row lies inside one component: the component of its first id
    pairwise: list[list[tuple[int, int]]] = [[] for _ in members_of]
    groups: list[list[tuple[int, ...]]] = [[] for _ in members_of]
    links: list[list[tuple[int, int, int]]] = [[] for _ in members_of]
    bicliques: list[list[tuple[str, tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in members_of
    ]
    for i, j in model.pairwise:
        pairwise[label[i]].append((min(local[i], local[j]), max(local[i], local[j])))
    for group in model.groups:
        groups[label[group[0]]].append(tuple(sorted(local[i] for i in group)))
    for a, b, aux in model.links:
        links[label[a]].append((local[a], local[b], local[aux]))
    # local ids keep the parent's order, so the sides stay ascending
    for family, left, right in model.bicliques:
        bicliques[label[left[0]]].append(
            (family, tuple([local[i] for i in left]), tuple([local[i] for i in right]))
        )

    components: list[Component] = []
    for comp, members in enumerate(members_of):
        sub = IlpModel._of_valid_rows(
            coeffs=[model.coeffs[g] for g in members],
            num_decision=sum(1 for g in members if g < model.num_decision),
            pairwise=sorted(pairwise[comp]),
            groups=sorted(groups[comp]),
            links=sorted(links[comp]),
            bicliques=bicliques[comp],
            names=[model.names[g] for g in members],
        )
        components.append(Component(model=sub, var_map=tuple(members)))
    return components


class _Timeout(Exception):
    pass


_Step = Generator["_Step", tuple[int, ...], tuple[int, ...]]


def _scaled(coeffs: Sequence[float]) -> tuple[list[int], int]:
    """The coefficients as ints, each times the returned scale: the
    largest denominator of their exact ratios, a power of two that every
    other denominator divides."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max((den for _num, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios], scale


class _ComponentSolver:
    """Exact search over one connected component.

    Every subproblem is first kernelized. Twin classes merge into one
    variable each (`_merge_twins`); then `_reduce` runs its rules to
    fixpoint: weighted domination (a link-free variable strictly
    outweighing its whole conflict neighborhood is committed and its
    neighborhood dropped, a variable covered by a heavier neighbor is
    dropped) and the pendant fold (`_fold_pendants`). What remains is
    re-split into connected parts and searched by branching on the
    best-connected variable, so components shatter quickly. Committing a
    variable to 1 folds its link penalties into the partners' weights
    (`_fold_links`); the search solves what is left.

    Weights are ints: the model's coefficients scaled by one power of two
    (`_scaled`), so every sum and comparison of weights is exact. Every
    weight change - a merge, a pendant fold or a link fold - goes through
    `_reweigh`, which pushes an undo entry onto one solver-wide trail. A
    step `_unwind`s the trail to its length on entry once its subproblems
    are solved, restoring weights and links and putting back the twins of
    a selected representative and the pendant of an unselected neighbor.

    The steps `_solve_free` and `_solve_connected` are generators that
    yield their subproblems' steps; `_search` runs them on an explicit
    stack, so no depth needs a recursion limit or a thread of its own.

    A link (a, b, aux) with coeff[aux] + min(coeff[a], coeff[b]) < 0 is
    hardened on construction: it becomes a conflict edge and a pairwise
    clique of the bound, and the search never sees it as a link. Only
    the remaining links block the domination and kernel rules, and the bound
    discounts each of them whose endpoints are both still undiscounted.

    Variable sets are Python int bitmasks (bit i is variable i): the
    conflict and structural neighborhoods of each variable, and the free
    set of every subproblem. The upper bound reaches its bicliques and
    at-most-one cliques through a per-variable index, so it visits only
    those that touch a free positive variable: the bicliques in model
    order, then the cliques in canonical order. A biclique with one member
    a side is a pairwise clique, and one over a single bucket is a group,
    so a model of pairwise rows and groups is bounded the same whichever
    shape carries them.
    """

    def __init__(self, model: IlpModel, deadline: float | None):
        self.model = model
        self.deadline = deadline
        self.nodes = 0
        n = model.num_vars
        self.coeff = coeff = _scaled(model.coeffs)[0]

        conflict = _conflict_masks(model)
        # A link costing more than its cheaper endpoint is never paid by an
        # optimum: dropping that endpoint gains -(c + p) > 0, since other
        # link penalties are <= 0 and the feasible set is downward-closed.
        # It is exactly a conflict edge. The test stays strict: at
        # equality {a, b, aux} ties {b}, and the tie-break prefers it.
        # links_at[v] = (partner, aux weight, link index)
        self.links_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.link_active = [True] * len(model.links)
        hardened: list[tuple[int, int]] = []
        linked = 0
        for idx, (a, b, aux) in enumerate(model.links):
            penalty = coeff[aux]
            if penalty + min(coeff[a], coeff[b]) < 0:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
                hardened.append((min(a, b), max(a, b)))
                continue
            self.links_at[a].append((b, penalty, idx))
            self.links_at[b].append((a, penalty, idx))
            linked |= 1 << a | 1 << b
        self.conflict = conflict
        self.hardened_links = len(hardened)
        # variables with a link left in the search, for the bound's link walk
        self.linked = linked

        # the bicliques, then the at-most-one cliques in canonical order,
        # for the bound discounts, and the ascending indices of those each
        # variable is in. A biclique is scored exactly, the rows greedily,
        # so the bicliques go first.
        pairs = model.pairwise + hardened
        groups = list(model.groups)
        bicliques: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for _family, left, right in model.bicliques:
            if left == right:
                groups.append(left)
            elif len(left) == len(right) == 1:
                pairs.append((min(left[0], right[0]), max(left[0], right[0])))
            else:
                bicliques.append((left, right))
        self.num_bicliques = len(bicliques)
        self.cliques: list[tuple] = bicliques + sorted(pairs) + sorted(groups)
        self.cliques_at: list[list[int]] = [[] for _ in range(n)]
        for k, clique in enumerate(self.cliques):
            for i in clique[0] + clique[1] if k < self.num_bicliques else clique:
                self.cliques_at[i].append(k)

        self.struct = _structure_masks(conflict, model.links)
        # the changes to undo: (variable, weight before, deactivated link or
        # -1, variables removed, whether they return with it selected)
        self.trail: list[tuple[int, int, int, tuple[int, ...], bool]] = []
        self.merged_twins = 0
        self.folded_pendants = 0

    def run(self) -> tuple[frozenset[int], bool]:
        """Best decision-variable selection and whether it is proven optimal."""
        free = (1 << self.model.num_decision) - 1
        try:
            return frozenset(self._search(self._solve_free(free))), True
        except _Timeout:
            # the abandoned steps never unwound their changes: greedy from the root
            self._unwind(0)
            return self._greedy(free), False

    @staticmethod
    def _search(root: _Step) -> tuple[int, ...]:
        """Run a step to its selection on an explicit stack: each yielded
        child is pushed, and its selection is sent back to its parent."""
        stack = [root]
        result = None
        while stack:
            try:
                child = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(child)
                result = None
        return result

    def _tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout

    def _greedy(self, free: int) -> frozenset[int]:
        """Heaviest-first feasible selection. A variable is taken only if
        its weight plus the penalties of its active links to variables
        already taken is positive, so the selection never scores below 0."""
        taken = 0
        blocked = 0
        for v in sorted(_bits(free), key=lambda i: (-self.coeff[i], i)):
            if blocked >> v & 1:
                continue
            gain = self.coeff[v] + sum(
                aux_coeff
                for partner, aux_coeff, idx in self.links_at[v]
                if self.link_active[idx] and taken >> partner & 1
            )
            if gain > 0:
                taken |= 1 << v
                blocked |= self.conflict[v]
        return frozenset(_bits(taken))

    def _reweigh(self, v: int, weight: int, link=-1, gone=(), with_v=False) -> None:
        """Give v `weight`, deactivate `link`, if any, and push the undo
        entry: `gone` left the subproblem and comes back when v is
        selected (`with_v`) or when it is not."""
        self.trail.append((v, self.coeff[v], link, gone, with_v))
        if link >= 0:
            self.link_active[link] = False
        self.coeff[v] = weight

    def _unwind(self, mark: int, chosen: set[int] | None = None) -> None:
        """Undo the changes past `mark`, newest first, and put back into
        `chosen`, if given, the twins of a selected representative and
        the pendant of an unselected neighbor."""
        trail, coeff, active = self.trail, self.coeff, self.link_active
        while len(trail) > mark:
            v, weight, link, gone, with_v = trail.pop()
            coeff[v] = weight
            if link >= 0:
                active[link] = True
            elif chosen is not None and (v in chosen) == with_v:
                chosen.update(gone)

    def _value_and_tiebreak(self, selection: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        """Subproblem value and tie-break tuple of a selection.

        The value is its current weights plus the penalties of still-active
        links internal to it. The tuple is the sorted selection plus a
        sentinel: auxiliary ids are larger than every decision id and
        follow from the decision ids, so the decision ids alone decide the
        smallest differing id.
        """
        sel = set(selection)
        coeff, active = self.coeff, self.link_active
        value = 0
        for i in sel:
            value += coeff[i]
            for partner, aux_coeff, idx in self.links_at[i]:
                if active[idx] and i < partner and partner in sel:
                    value += aux_coeff
        return value, (*sorted(sel), self.model.num_vars)

    def _upper_bound(self, free: int) -> int:
        """Optimistic value of a free set: positive weights, each
        at-most-one clique discounted to its single best free member, each
        biclique to its heavier side, max(sum A, sum B) over its free
        members, then each active link between two still-undiscounted
        members, walked in ascending id order, discounted by
        min(c_a, c_b, -penalty): the pair is worth at most
        max(c_a, c_b, c_a + c_b + penalty). Other link penalties are
        nonpositive, so they add nothing. Every member is discounted at
        most once, so the parts bound disjoint sets."""
        coeff = self.coeff
        positive = [i for i in _bits(free) if coeff[i] > 0]
        bound = 0
        touched: set[int] = set()
        for i in positive:
            bound += coeff[i]
            touched.update(self.cliques_at[i])
        available = set(positive)
        for k in sorted(touched):
            if k < self.num_bicliques:
                left, right = self.cliques[k]
                side_a = [i for i in left if i in available]
                side_b = [i for i in right if i in available] if side_a else None
                if side_b:
                    bound -= min(sum(coeff[i] for i in side_a), sum(coeff[i] for i in side_b))
                    available.difference_update(side_a)
                    available.difference_update(side_b)
                continue
            members = [i for i in self.cliques[k] if i in available]
            if len(members) > 1:
                total = sum(coeff[i] for i in members)
                best = max(coeff[i] for i in members)
                bound -= total - best
                available.difference_update(members)
        for i in _bits(self.linked & free):  # empty without links: hard mode
            if i not in available:
                continue
            for partner, aux_coeff, idx in self.links_at[i]:
                if partner in available and self.link_active[idx]:
                    bound -= min(coeff[i], coeff[partner], -aux_coeff)
                    available.discard(i)
                    available.discard(partner)
                    break
        return bound

    def _has_live_link(self, v: int, free: int) -> bool:
        if not self.linked >> v & 1:  # links_at[v] is empty
            return False
        return any(
            self.link_active[idx] and free >> partner & 1
            for partner, _coeff, idx in self.links_at[v]
        )

    def _merge_twins(self, free: int) -> int:
        """Twin merge: link-free, non-negative variables with the same free
        conflict neighborhood are pairwise non-adjacent, so a tie-preferred
        optimum holds all of a class or none of it. Each class of two or
        more becomes its smallest id, weighing the class sum; the rest
        leave `free`, which is returned. Two selections that differ on a
        class differ first at its smallest id, so the tie order holds."""
        coeff, conflict = self.coeff, self.conflict
        link_free = free & ~self.linked
        if link_free.bit_count() < 2:
            return free
        candidates = [v for v in _bits(link_free) if coeff[v] >= 0]
        classes: dict[int, list[int]] = {}
        for v in candidates:
            classes.setdefault(conflict[v] & free, []).append(v)
        if len(classes) == len(candidates):
            return free
        for members in classes.values():
            if len(members) > 1:
                rep, others = members[0], tuple(members[1:])
                self._reweigh(rep, sum(coeff[t] for t in members), gone=others, with_v=True)
                for t in others:
                    free &= ~(1 << t)
                self.merged_twins += len(others)
        return free

    def _fold_pendants(self, v: int, remaining: int) -> int:
        """Pendant fold: a link-free v >= 0 whose one neighbor u is
        link-free, with u < v and c(v) <= c(u), is in a tie-preferred
        optimum exactly when u is not. Take c(v) off c(u) and drop v; then
        fold u in turn if that left it such a pendant. Returns what
        remains. A smaller id u keeps the tie order: selections that
        differ at v differ at u first."""
        coeff = self.coeff
        while True:
            nmask = self.conflict[v] & remaining
            u = nmask.bit_length() - 1
            if (
                not 0 <= u < v
                or nmask != 1 << u
                or coeff[v] > coeff[u]
                or self._has_live_link(u, remaining)
            ):
                return remaining
            self._reweigh(u, coeff[u] - coeff[v], gone=(v,))
            remaining &= ~(1 << v)
            self.folded_pendants += 1
            v = u

    def _reduce(self, free: int) -> tuple[list[int], int]:
        """Shrink a subproblem with exactness- and tie-preserving rules.

        Run to fixpoint over the current graph:

        * negative weight: selecting it strictly loses, so drop;
        * neighborhood-sum domination: a link-free variable strictly
          outweighing its whole conflict neighborhood is in every optimum,
          so commit it and drop the neighborhood;
        * adjacent domination: a variable whose link-free neighbor covers
          its remaining neighborhood at no smaller weight (ties to the
          smaller id) is in no tie-preferred optimum, so drop it;
        * pendant fold (`_fold_pendants`).
        """
        coeff = self.coeff
        conflict = self.conflict
        remaining = free
        forced: list[int] = []
        changed = True
        while changed:
            changed = False
            for v in _bits(remaining):
                vbit = 1 << v
                if not remaining & vbit:
                    continue
                if coeff[v] < 0:
                    remaining &= ~vbit
                    changed = True
                    continue
                nmask = conflict[v] & remaining
                neighborhood = _bits(nmask)
                link_free = not self._has_live_link(v, remaining)
                if link_free and coeff[v] > sum(coeff[u] for u in neighborhood if coeff[u] > 0):
                    forced.append(v)
                    remaining &= ~(vbit | nmask)
                    changed = True
                    continue
                dominated = False
                outside = remaining & ~(vbit | nmask)
                for u in neighborhood:
                    if coeff[u] < coeff[v] or (coeff[u] == coeff[v] and u > v):
                        continue
                    if self._has_live_link(u, remaining):
                        continue
                    if not conflict[u] & outside:
                        dominated = True
                        break
                if dominated:
                    remaining &= ~vbit
                    changed = True
                elif link_free and len(neighborhood) == 1:
                    folded = self._fold_pendants(v, remaining)
                    changed = changed or folded != remaining
                    remaining = folded
        return forced, remaining

    def _solve_free(self, free: int) -> _Step:
        if not free:
            return ()
        self._tick()
        mark = len(self.trail)
        free = self._merge_twins(free)
        forced, free = self._reduce(free)
        selected: list[int] = list(forced)
        for part in _parts(free, self.struct):
            selected.extend((yield self._solve_connected(part)))
        if len(self.trail) == mark:
            return tuple(selected)
        chosen = set(selected)
        self._unwind(mark, chosen)
        return tuple(chosen)

    def _solve_connected(self, free: int) -> _Step:
        self._tick()
        if not free & (free - 1):
            v = free.bit_length() - 1
            return (v,) if self.coeff[v] >= 0 else ()
        # branch where the graph shatters: best-connected first
        v = min(
            _bits(free),
            key=lambda i: (-(self.conflict[i] & free).bit_count(), -self.coeff[i], i),
        )
        vbit = 1 << v

        # (value, tie-break tuple, selection)
        best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
        # a strictly negative variable is in no optimum; zero-weight
        # ones still branch, since the tie-break may want them selected
        if self.coeff[v] >= 0:
            rest = free & ~(vbit | self.conflict[v])
            mark = len(self.trail)
            self._fold_links(v, rest)
            sub = yield self._solve_free(rest)
            self._unwind(mark)
            include = (v,) + sub
            best = (*self._value_and_tiebreak(include), include)

        rest0 = free & ~vbit
        if best is None or self._upper_bound(rest0) >= best[0]:
            sub0 = yield self._solve_free(rest0)
            value0, tiebreak0 = self._value_and_tiebreak(sub0)
            if (
                best is None
                or value0 > best[0]
                or (value0 == best[0] and tiebreak0 < best[1])
            ):
                best = (value0, tiebreak0, sub0)
        return best[2]

    def _fold_links(self, v: int, remaining: int) -> None:
        """Commit v=1: fold each active link's penalty into its partner.

        Afterwards a partner's selection already pays the forced auxiliary
        penalty through its weight."""
        coeff, active = self.coeff, self.link_active
        for partner, aux_coeff, idx in self.links_at[v]:
            if active[idx] and remaining >> partner & 1:
                self._reweigh(partner, coeff[partner] + aux_coeff, idx)


def solve(model: IlpModel, time_budget_ms: float = DEFAULT_TIME_BUDGET_MS) -> Solution:
    """Exact maximization; `time_budget_ms` caps the whole solve (0: no cap).

    The components share one deadline, largest first. A component whose
    search runs past it, or that is reached after it, falls back to its
    greedy incumbent, which never scores below zero, and the solution is
    flagged non-optimal. The all-zeros assignment is always feasible, so a
    solution always exists. A negative or NaN budget raises ValueError.
    """
    if not time_budget_ms >= 0:
        raise ValueError(f"time_budget_ms must be >= 0, got {time_budget_ms}")
    start = time.monotonic()
    deadline = start + time_budget_ms / 1000.0 if time_budget_ms else None
    components = decompose(model)
    assignment = {i: 0 for i in range(model.num_vars)}
    nodes = hardened_links = merged_twins = folded_pendants = 0
    optimal = True
    # Budget priority goes to the largest components; results merge by id,
    # so the order cannot change the outcome.
    for component in sorted(components, key=lambda c: (-c.model.num_vars, c.var_map)):
        sub = component.model
        if sub.num_vars == 1:
            local_selected: frozenset[int] = (
                frozenset([0]) if sub.coeffs[0] >= 0 else frozenset()
            )
            comp_optimal = True
        else:
            solver = _ComponentSolver(sub, deadline)
            local_selected, comp_optimal = solver.run()
            nodes += solver.nodes
            hardened_links += solver.hardened_links
            merged_twins += solver.merged_twins
            folded_pendants += solver.folded_pendants
        for local in local_selected:
            assignment[component.var_map[local]] = 1
        for _a, _b, aux in sub.links:
            if all(
                assignment[component.var_map[end]] == 1 for end in (_a, _b)
            ):
                assignment[component.var_map[aux]] = 1
        optimal = optimal and comp_optimal

    problems = check_assignment(model, assignment)
    if problems:  # internal consistency; never expected to fire
        raise AssertionError(f"solver produced an infeasible assignment: {problems}")
    objective = selection_objective(model, (i for i, v in assignment.items() if v == 1))
    wall_ms = (time.monotonic() - start) * 1000.0
    return Solution(
        assignment=assignment,
        objective_value=objective,
        optimal=optimal,
        stats=SolveStats(
            nodes=nodes,
            components=len(components),
            wall_ms=wall_ms,
            hardened_links=hardened_links,
            merged_twins=merged_twins,
            folded_pendants=folded_pendants,
        ),
    )


def brute_force(model: IlpModel) -> Solution:
    """Exhaustive oracle (<= 25 variables) that shares no code with `solve`.

    It walks every feasible set of decision variables once, taking or
    leaving each id in ascending order; each auxiliary variable is the AND
    of its link's ends, paid when the second end is taken. Values are exact
    ints, every coefficient times the largest denominator of their ratios.
    The greatest value wins, then the smallest `(*sorted selected ids,
    num_vars)` tuple. The cost is the number of feasible decision sets.
    """
    start = time.monotonic()
    n, d = model.num_vars, model.num_decision
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute_force refuses models with more than {BRUTE_FORCE_LIMIT} variables")
    ratios = [c.as_integer_ratio() for c in model.coeffs]
    scale = max((den for _num, den in ratios), default=1)
    weight = [num * (scale // den) for num, den in ratios]
    # per decision id: the smaller ids a row forbids beside it, and the
    # links whose other end is smaller
    earlier, closes = [0] * d, [[] for _ in range(d)]
    for a, b in model.pairwise:
        earlier[max(a, b)] |= 1 << min(a, b)
    # a group forbids every two of its members, as a one-bucket biclique does
    blocks = [(group, group) for group in model.groups]
    blocks += [(left, right) for _family, left, right in model.bicliques]
    for left, right in blocks:
        for members, others in ((left, right), (right, left)):
            forbidden = sum(1 << i for i in others)
            for a in members:
                earlier[a] |= forbidden & ((1 << a) - 1)
    for a, b, aux in model.links:
        closes[max(a, b)].append((min(a, b), aux))

    best_value, best = 0, (n,)  # the empty selection
    valued = 0
    stack = [(0, 0, 0)]  # (next decision id, selected mask, its value)
    while stack:
        v, selected, value = stack.pop()
        if v == d:
            valued += 1
            if value >= best_value:
                key = (*(i for i in range(n) if selected >> i & 1), n)
                if value > best_value or key < best:
                    best_value, best = value, key
            continue
        stack.append((v + 1, selected, value))
        if not selected & earlier[v]:
            selected |= 1 << v
            value += weight[v]
            for u, aux in closes[v]:
                if selected >> u & 1:
                    selected |= 1 << aux
                    value += weight[aux]
            stack.append((v + 1, selected, value))

    chosen = best[:-1]
    return Solution(
        assignment={i: int(i in chosen) for i in range(n)},
        objective_value=selection_objective(model, chosen),
        optimal=True,
        stats=SolveStats(nodes=valued, components=1, wall_ms=(time.monotonic() - start) * 1000.0),
    )


def _format_coeff(value: float) -> str:
    return f"{value:.9g}"


def export_lp(model: IlpModel, path: str | Path) -> None:
    """Write the model as a deterministic LP text file.

    Sections are Maximize / Subject To / Binary / End; constraint rows are
    named c1, c2, ... in model order: the bicliques' pairwise rows, as
    `generate_hard` writes them (family-major, sorted), then the pairwise
    rows, the groups, and the three linking rows per auxiliary variable.
    Coefficients carry 9 significant digits; zero-coefficient variables
    are kept binary but skipped in the objective.
    """
    lines = ["Maximize"]
    terms: list[str] = []
    for i, coeff in enumerate(model.coeffs):
        if coeff == 0:
            continue
        magnitude = _format_coeff(abs(coeff))
        if not terms:
            prefix = "" if coeff > 0 else "- "
        else:
            prefix = "+ " if coeff > 0 else "- "
        terms.append(f"{prefix}{magnitude} {model.names[i]}")
    lines.append(" obj: " + " ".join(terms) if terms else " obj:")
    lines.append("Subject To")
    row = 0

    def row_name() -> str:
        nonlocal row
        row += 1
        return f"c{row}"

    biclique_rows = [(a, b) for _rank, a, b, _k in canonical_rows(model.bicliques)]
    for i, j in biclique_rows + model.pairwise:
        lines.append(f" {row_name()}: {model.names[i]} + {model.names[j]} <= 1")
    for group in model.groups:
        body = " + ".join(model.names[i] for i in group)
        lines.append(f" {row_name()}: {body} <= 1")
    for a, b, aux in model.links:
        na, nb, nx = model.names[a], model.names[b], model.names[aux]
        lines.append(f" {row_name()}: {nx} - {na} <= 0")
        lines.append(f" {row_name()}: {nx} - {nb} <= 0")
        lines.append(f" {row_name()}: {na} + {nb} - {nx} <= 1")
    lines.append("Binary")
    for name in model.names:
        lines.append(f" {name}")
    lines.append("End")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
