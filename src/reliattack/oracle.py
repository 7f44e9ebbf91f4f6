"""Independent validation machinery for the closed forms and attack solvers.

The fractional oracle never reuses the solvers' code paths: it evaluates the
target's exact Shapley value from the raw coalition-value table (the
liveness transform over all coalitions, then the marginal-weight sum that
:func:`reliattack.shapley.shapley_definitional` also uses) at the 2^k
corners of the attackable coordinates, interpolates every other profile
from them (by ``reliability._fold``, the halving fold of
:func:`reliattack.reliability.liveness_value`, over the corner table), and
optimizes by enumerating a budget-feasible grid and its budget-exhausting
variants, then descending with improving swaps until no small transfer of
probability mass helps.  The grid is enumerated axis by axis: each
budget-feasible prefix of coordinates carries its cost and the corner
table with its coordinates folded in, so grid points that share a prefix
share those fold steps, and neither the grid nor the candidates are ever
held as a matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attacks import AttackPlan, AttackProblem
from .errors import DomainError, ResourceLimitError
from .games import _as_finite, _as_int
from .reliability import ReliabilityProfile, _fold, liveness_transform
from .shapley import _table_shapley

_GRID_POINT_LIMIT = 4_000_000
_EVAL_CHUNK = 8192
_ORACLE_N_LIMIT = 16


@dataclass(frozen=True)
class OracleConfig:
    """Tuning knobs for the grid-and-swaps oracle.

    ``grid_resolution`` is the probability step of the initial grid (keep the
    default only for a few attackable players; coarsen it as their number
    grows - the swap refinement recovers the precision).
    """

    grid_resolution: float = 1.0 / 64.0
    swap_step: float = 1e-3
    max_refinements: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < _as_finite(self.grid_resolution, "grid_resolution") <= 0.25:
            raise DomainError(
                f"grid_resolution {self.grid_resolution} outside (0, 1/4]"
            )
        if _as_finite(self.swap_step, "swap_step") <= 0:
            raise DomainError("swap_step must be positive")
        if _as_int(self.max_refinements, "max_refinements") < 0:
            raise DomainError("max_refinements must be nonnegative")
        if _as_finite(self.tolerance, "tolerance") <= 0:
            raise DomainError("tolerance must be positive")


def _corner_shapley(
    vtable: np.ndarray, x: int, baseline: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Shapley value of x at the 2^k profiles that set the players of
    ``cols`` to 0 or 1 (bit i of the index for ``cols[i]``) and keep the
    others at ``baseline``.

    Sh_x is multilinear in every p_j (Owen 1972), so these corner values
    determine it: its value where the players of ``cols`` take the
    probabilities q is ``liveness_value(corners, q)``, the top entry of
    their liveness transform, in O(2^k) per profile.
    """
    k = len(cols)
    profiles = np.repeat(baseline[None, :], 1 << k, axis=0)
    profiles[:, cols] = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return _table_shapley(liveness_transform(vtable, profiles), x)


def _swap_directions(k: int) -> np.ndarray:
    """The swap moves as rows of +-1 steps, in the order whose first argmin
    wins ties: each single-player nudge up then down, then for every pair
    i < j the transfers (+, +), (+, -), (-, +), (-, -).  With piecewise
    costs a coordinate below its baseline refunds budget by moving up, so
    (+, +) and (-, -) are legitimate surface moves too."""
    rows = []
    for i in range(k):
        for si in (1.0, -1.0):
            row = np.zeros(k)
            row[i] = si
            rows.append(row)
    for i in range(k):
        for j in range(i + 1, k):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    row = np.zeros(k)
                    row[i], row[j] = si, sj
                    rows.append(row)
    return np.array(rows).reshape(-1, k)


def _cost_of(
    points: np.ndarray, base_p: np.ndarray, base_l: np.ndarray, base_r: np.ndarray
) -> np.ndarray:
    """Cost of moving the coordinates from ``base_p`` to the rows of
    ``points``: L per unit lowered, R per unit raised, summed over the row."""
    return _move_costs(points, base_p, base_l, base_r).sum(axis=-1)


def _move_costs(points, base_p, base_l, base_r) -> np.ndarray:
    """The terms of :func:`_cost_of`, one per coordinate, unsummed."""
    below = np.maximum(base_p - points, 0.0)
    above = np.maximum(points - base_p, 0.0)
    return below * base_l + above * base_r


def _staged_pool(
    corners: np.ndarray,
    axes: Sequence[np.ndarray],
    base_p: np.ndarray,
    base_l: np.ndarray,
    base_r: np.ndarray,
    budget: float,
) -> tuple[np.ndarray, np.ndarray, Callable[[int], np.ndarray]]:
    """The values and costs of the oracle's start candidates, and a function
    that rebuilds the candidate at an index of them.

    The candidates are first the budget-feasible points of the grid
    ``axes[0] x ... x axes[k-1]`` in C order, then for each coordinate i its
    budget-exhausting variants: every feasible point with the leftover
    budget spent on coordinate i, raising it (in feasible order), then
    lowering it.  Competing greedy basins can differ by less than one grid
    step, so these exact variants matter.  A variant whose coordinate does
    not move repeats its feasible point and is left out; a variant over
    budget is dropped.  Values are ``liveness_value(corners, point)``, bit
    for bit because both fold by ``reliability._fold``; costs are
    :func:`_cost_of`'s.

    Neither the grid nor the candidates are materialised.  The grid is
    built axis by axis: stage j keeps the feasible prefixes (a_0 .. a_j) in
    C order, their costs summed left to right like the row sums of
    :func:`_cost_of` (numpy sums fewer than 8 terms in order), and the
    corner table with a_0 .. a_j folded in, one column per prefix, so points
    that share a prefix share its fold steps.  A prefix over budget is
    dropped: costs are nonnegative, so none of its completions is feasible.
    A variant on coordinate i starts from its point's prefix (a_0 .. a_i-1),
    so it folds 2^(k-i) entries rather than 2^k, in pieces of at most
    ``_EVAL_CHUNK``.
    """
    cap = budget + 1e-12
    axis_costs = [_move_costs(a, base_p[i], base_l[i], base_r[i]) for i, a in enumerate(axes)]
    # tables[j] and prefix_costs[j] belong to the prefixes of length j,
    # parents[j] and picks[j] give each prefix of length j + 1 its prefix of
    # length j and its index on axes[j]
    tables, prefix_costs, parents, picks = [corners[:, None]], [np.zeros(1)], [], []
    for a, c in zip(axes, axis_costs):
        extended = prefix_costs[-1][:, None] + c
        parent, pick = np.nonzero(extended <= cap)
        tables.append(_fold(tables[-1][:, parent], [a[pick]]))
        prefix_costs.append(extended[parent, pick])
        parents.append(parent)
        picks.append(pick)

    # each feasible point's prefix of length j (rows[j]), coordinates and
    # per-axis costs
    rows = [np.arange(len(prefix_costs[-1]))]
    for parent in reversed(parents):
        rows.insert(0, parent[rows[0]])
    coords = [a[pick[r]] for a, pick, r in zip(axes, picks, rows[1:])]
    terms = [c[pick[r]] for c, pick, r in zip(axis_costs, picks, rows[1:])]

    costs = prefix_costs[-1]
    leftover = np.clip(budget - costs, 0.0, None)
    values, pool_costs = [tables[-1][0]], [costs]
    segments = [(None, rows[-1], None)]
    for i, col in enumerate(coords):
        # a tiny slope overflows the move to inf, which the bounds clip to 1 or 0
        with np.errstate(over="ignore"):
            rise = leftover / base_r[i]
            fall = leftover / base_l[i]
        up = np.minimum(1.0, col + np.where(col >= base_p[i], rise, 0.0))
        down = np.maximum(0.0, col - np.where(col <= base_p[i], fall, 0.0))
        for moved in (up, down):
            src = np.nonzero(moved != col)[0]
            moved = moved[src]
            cost = prefix_costs[i][rows[i][src]] + _move_costs(
                moved, base_p[i], base_l[i], base_r[i]
            )
            for term in terms[i + 1 :]:
                cost = cost + term[src]
            within = cost <= cap
            src, moved, cost = src[within], moved[within], cost[within]
            value = np.empty(len(src))
            for lo in range(0, len(src), _EVAL_CHUNK):
                part = src[lo : lo + _EVAL_CHUNK]
                probs = [moved[lo : lo + _EVAL_CHUNK]] + [c[part] for c in coords[i + 1 :]]
                # the empty prefix's single column broadcasts without a copy
                table = tables[i][:, rows[i][part]] if i else tables[0]
                value[lo : lo + len(part)] = _fold(table, probs)[0]
            values.append(value)
            pool_costs.append(cost)
            segments.append((i, src, moved))

    def candidate(index: int) -> np.ndarray:
        for i, src, moved in segments:
            if index < len(src):
                point = np.array([c[src[index]] for c in coords])
                if i is not None:
                    point[i] = moved[index]
                return point
            index -= len(src)
        raise IndexError("candidate index out of range")

    return np.concatenate(values), np.concatenate(pool_costs), candidate


def _grid_axis(baseline: float, resolution: float) -> np.ndarray:
    """The multiples of ``resolution`` clipped at 1, with 1 and ``baseline``,
    sorted and without repeats."""
    steps = int(round(1.0 / resolution))
    grid = np.minimum(1.0, np.arange(steps + 1) * resolution)
    return np.unique(np.concatenate([grid, [1.0, baseline]]))


def fractional_oracle(
    problem: AttackProblem,
    cfg: OracleConfig | None = None,
    *,
    attackable_cap: int = 6,
) -> AttackPlan:
    """Reference solution of a fractional attack problem.

    Enumerates every budget-feasible grid profile over the attackable
    players, then refines the best one with improving swaps (single-player
    nudges and pairwise transfers of probability mass, step shrinking below
    ``swap_step``) while they keep strictly decreasing the target's Shapley
    value; each accepted move is monotone and the move count is capped by
    ``max_refinements``.  A plan whose descent stopped at that cap carries
    the note ``"stopped at max_refinements"``.
    """
    cfg = cfg or OracleConfig()
    game = problem.game
    n = game.n
    if n > _ORACLE_N_LIMIT:
        raise ResourceLimitError(
            f"n = {n} exceeds the oracle coalition-table cap ({_ORACLE_N_LIMIT})"
        )
    attackable = problem.attackable()
    k = len(attackable)
    if k > attackable_cap:
        raise ResourceLimitError(
            f"{k} attackable players exceed the oracle cap ({attackable_cap})"
        )
    costs = problem.costs
    baseline = np.array(costs.p_star, dtype=np.float64)
    x = problem.target
    budget = problem.budget

    cols = np.array([j - 1 for j in attackable], dtype=np.int64)
    base_l = np.array([costs.L[j - 1] for j in attackable])
    base_r = np.array([costs.R[j - 1] for j in attackable])
    base_p = baseline[cols]

    # every axis holds at least round(1 / resolution) + 1 points, so refuse
    # a grid over the limit before building any axis (1 / resolution is
    # infinite for a subnormal resolution), and both refusals come before
    # the 2^k corner table
    least = (round(min(1.0 / cfg.grid_resolution, sys.float_info.max)) + 1) ** k
    if least > _GRID_POINT_LIMIT:
        raise ResourceLimitError(
            f"grid of at least {least} profiles exceeds the oracle limit "
            f"({_GRID_POINT_LIMIT}); coarsen grid_resolution"
        )
    axes = [_grid_axis(base_p[i], cfg.grid_resolution) for i in range(k)]
    total = 1
    for a in axes:
        total *= len(a)
    if total > _GRID_POINT_LIMIT:
        raise ResourceLimitError(
            f"grid of {total} profiles exceeds the oracle limit ({_GRID_POINT_LIMIT}); "
            "coarsen grid_resolution"
        )

    corners = _corner_shapley(game.subset_values(range(1, n + 1)), x, baseline, cols)
    if k == 0:
        return AttackPlan(0.0, float(corners[0]), profile=ReliabilityProfile(tuple(baseline)))
    values, cand_costs, candidate = _staged_pool(corners, axes, base_p, base_l, base_r, budget)
    # among exact value ties prefer the cheapest point (no wasted budget)
    tied = np.nonzero(values <= values.min() + 1e-15)[0]
    best_idx = int(tied[np.argmin(cand_costs[tied])])
    point = candidate(best_idx)
    value = float(values[best_idx])

    # improving-swap descent along the budget-feasibility surface
    floor_eps = min(cfg.swap_step, cfg.tolerance * 0.1)
    eps = max(cfg.grid_resolution / 2.0, cfg.swap_step)
    directions = _swap_directions(k)
    steps = 0
    note = None
    while steps < cfg.max_refinements:
        cands = np.clip(point + eps * directions, 0.0, 1.0)
        cands = cands[np.abs(cands - point).sum(axis=1) > 1e-15]
        cands = cands[_cost_of(cands, base_p, base_l, base_r) <= budget + 1e-12]
        if cands.size:
            cand_values = _fold(corners[:, None], cands.T)[0]
            pick = int(np.argmin(cand_values))
            if cand_values[pick] < value - 1e-15:
                point = cands[pick].copy()
                value = float(cand_values[pick])
                steps += 1
                continue
        if eps <= floor_eps:
            break
        eps = max(eps / 2.0, floor_eps)
    else:
        note = "stopped at max_refinements"

    full = baseline.copy()
    full[cols] = point
    profile = ReliabilityProfile(tuple(full))
    return AttackPlan(
        float(_cost_of(point, base_p, base_l, base_r)),
        value,
        profile=profile,
        note=note,
    )


def fractional_knapsack_optimum(
    values: Sequence[float], weights: Sequence[float], capacity: float
) -> float:
    """Exact optimum of ``max v.z : w.z <= capacity, 0 <= z <= 1`` via LP.

    The independent check for the knapsack-equivalent credit attacks.
    """
    if capacity < 0:
        raise DomainError(f"capacity {capacity} is negative")
    if len(values) != len(weights):
        raise DomainError("values and weights must have equal length")
    if not values:
        return 0.0
    from scipy.optimize import linprog  # loaded here: it costs most of the package import

    res = linprog(
        c=-np.asarray(values, dtype=np.float64),
        A_ub=np.asarray(weights, dtype=np.float64)[None, :],
        b_ub=np.array([capacity], dtype=np.float64),
        bounds=[(0.0, 1.0)] * len(values),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"knapsack LP failed: {res.message}")
    return float(-res.fun)
