"""Independent validation machinery for the closed forms and attack solvers.

The fractional oracle never reuses the solvers' code paths: it evaluates the
target's exact Shapley value from the raw coalition-value table (the
liveness transform over all coalitions, then the marginal-weight sum that
:func:`reliattack.shapley.shapley_definitional` also uses) at the 2^k
corners of the attackable coordinates.  Sh_x is multilinear in those
coordinates (Owen 1972), so the corner table determines it everywhere, and
the oracle minimises it by a best-first branch and bound over boxes that
lie on one side of the baseline in every coordinate.  On such a box the
cost is linear, so Sh_x + lambda * cost is extremal at the box's vertices
for every lambda >= 0 (Boros & Hammer, Discrete Appl. Math. 123, 2002): the
lower convex hull of the vertices' (cost, value) points, read at cost =
budget, bounds Sh_x from below on the box's feasible part.  The best
feasible vertex, and the point where the hull's segment crosses the budget,
are feasible profiles.  Along a coordinate where all of the corner table's
differences share a sign, Sh_x is monotone over the whole cube, so every
point on one side of the baseline is dominated by its projection onto it:
no higher value at a strictly lower cost.  The root boxes keep only the
other side there.  The sign is read off each instance's own corner table,
so the oracle assumes no monotonicity of the game and reads no solver code.
The boxes are evaluated as a stack, the root ones together and the two
halves of an opened box together.  The search stops when the best feasible
profile is within 1e-9 of the least bound of the boxes still open, so the
answer is certified to 1e-9.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import AttackPlan, AttackProblem
from .errors import DomainError, ResourceLimitError
from .games import _as_finite, _as_int
from .reliability import ReliabilityProfile, _fold, liveness_transform
from .shapley import _TABLE_PLAYER_CAP, _table_shapley

_CORNER_LOG_LIMIT = 25  # 2^k profiles x 2^n coalitions in the corner transform
_GAP = 1e-9
_TIE = 1e-15


@dataclass(frozen=True)
class OracleConfig:
    """Settings of the fractional oracle.

    ``max_refinements`` caps the boxes the branch and bound opens; a plan
    that reaches the cap before its certificate carries the note
    ``"stopped at max_refinements"``.  ``tolerance`` is the solver-oracle
    gap that ``oracle-check`` accepts.  ``grid_resolution`` is validated
    but steers nothing; it is kept so that configuration files that set it
    stay valid.
    """

    grid_resolution: float = 1.0 / 64.0
    max_refinements: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < _as_finite(self.grid_resolution, "grid_resolution") <= 0.25:
            raise DomainError(
                f"grid_resolution {self.grid_resolution} outside (0, 1/4]"
            )
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
    probabilities q is ``liveness_transform(corners, q)[..., -1]``, the top
    entry of their liveness transform, which ``_fold`` reads alone in O(2^k)
    per profile.
    """
    k = len(cols)
    profiles = np.repeat(baseline[None, :], 1 << k, axis=0)
    profiles[:, cols] = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return _table_shapley(liveness_transform(vtable, profiles), x)


def _cost_of(
    points: np.ndarray, base_p: np.ndarray, base_l: np.ndarray, base_r: np.ndarray
) -> np.ndarray:
    """Cost of moving the coordinates from ``base_p`` to the rows of
    ``points``: L per unit lowered, R per unit raised, summed over the row."""
    below = np.maximum(base_p - points, 0.0)
    above = np.maximum(points - base_p, 0.0)
    return (below * base_l + above * base_r).sum(axis=-1)


def _branch_and_bound(
    corners: np.ndarray,
    base_p: np.ndarray,
    base_l: np.ndarray,
    base_r: np.ndarray,
    budget: float,
    max_boxes: int,
) -> tuple[np.ndarray, float, bool]:
    """Minimise ``liveness_transform(corners, q)[..., -1]`` over the points q
    of [0, 1]^k whose :func:`_cost_of` is within ``budget``, k >= 1.

    Returns the best point found, a lower bound on the minimum and whether
    the search stopped at ``max_boxes`` opened boxes with that bound more
    than ``_GAP`` below the point's value.  A point counts as feasible up
    to a cost of ``budget + 1e-12``; the bound is taken at ``budget``
    itself.  Among values within ``_TIE`` the lower cost wins, then the
    lexicographically smaller point.

    A box carries its values at its 2^k vertices (axis i for coordinate i).
    ``halve`` cuts a stack of boxes along one axis and mixes the ends at the
    cut as ``reliability._fold`` does, since Sh_x is linear along every axis.
    The roots are [0, 1]^k, valued by the corner table and halved at every
    baseline b_i < 1, and an opened box is halved at its midpoint.  Where
    all corner differences along axis i are >= 0, Sh_x never falls as q_i
    rises, and a point above b_i is dominated by its projection onto b_i,
    which costs strictly less since R_i > 0: the roots keep only the lower
    side of b_i.  Where all are <= 0 they keep only the upper side, since
    L_i > 0.  ``push`` takes the roots, or an opened box's halves, as one
    stack.  At most 2^k + ``max_boxes`` boxes are open at a time.
    """
    k = len(base_p)
    cap = budget + 1e-12
    # vertex v of a box takes the upper end of axis i where bits[v, i] is set
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    best: list = []  # [value, cost, point as a tuple]
    heap: list = []
    floor = np.inf  # the least bound of the boxes never pushed
    serial = itertools.count()

    def offer(value: float, cost: float, point: list) -> None:
        if not best or value < best[0] - _TIE or (
            value <= best[0] + _TIE and [cost, tuple(point)] < best[1:]
        ):
            best[:] = [value, cost, tuple(point)]

    def push(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Offer each box's feasible vertex and hull crossing, then queue it by
        its bound unless that bound is settled or within ``_GAP``: box by box,
        as one box at a time, since a tie can raise the incumbent by ``_TIE``."""
        nonlocal floor
        points = np.where(bits, hi[:, None], lo[:, None])
        costs = _cost_of(points, base_p, base_l, base_r)
        flat = values.reshape(costs.shape)
        rows = np.arange(len(flat))
        feasible = costs <= cap
        least = np.where(feasible, flat, np.inf).min(axis=1, keepdims=True)
        pick = np.where(feasible & (flat <= least + _TIE), costs, np.inf).argmin(axis=1)
        # per box, the vertices by cost and the stair of those no cheaper vertex matches
        order = np.lexsort((flat, costs))
        ranked, by_cost = flat[rows[:, None], order], costs[rows[:, None], order]
        stairs = np.ones(flat.shape, bool)
        stairs[:, 1:] = ranked[:, 1:] < np.minimum.accumulate(ranked, 1)[:, :-1]
        last = flat.shape[1] - 1 - stairs[:, ::-1].argmax(axis=1)
        # no point of the box is within budget, or its least vertex is
        bounds = np.where(by_cost[:, 0] > budget, np.inf, ranked[rows, last])
        crossing = np.flatnonzero((by_cost[:, 0] <= budget) & (by_cost[rows, last] > budget))

        def turn(h: int, g: int, j: int) -> float:
            """Positive when g lies below the chord from h to j."""
            return (xs[g] - xs[h]) * (ys[j] - ys[h]) - (ys[g] - ys[h]) * (xs[j] - xs[h])

        segments = []  # per crossing box, t and the ends of its hull segment over the budget
        for i in crossing.tolist():
            stair = order[i, stairs[i]]
            xs, ys = costs[i, stair].tolist(), flat[i, stair].tolist()
            hull: list[int] = []  # the stair's lower convex hull
            for j in range(len(xs)):
                while len(hull) > 1 and turn(hull[-2], hull[-1], j) <= 0:
                    hull.pop()
                hull.append(j)
            a, b = next((h, j) for h, j in itertools.pairwise(hull) if xs[j] > budget)
            t = (budget - xs[a]) / (xs[b] - xs[a])
            bounds[i] = ys[a] + t * (ys[b] - ys[a])
            segments.append((t, points[i, stair[a]], points[i, stair[b]]))
        at = {i: c for c, i in enumerate(crossing.tolist())}  # box -> its row among the crossing
        if segments:
            t, u, w = map(np.array, zip(*segments))
            cross = np.clip(u + t[:, None] * (w - u), lo[crossing], hi[crossing])
            cross_values = _fold(corners[:, None], cross.T)[0].tolist()
            cross_costs = _cost_of(cross, base_p, base_l, base_r).tolist()
            cross_points, cross_axes = cross.tolist(), np.abs(w - u).argmax(axis=1).tolist()
        vertex = zip(feasible.any(axis=1).tolist(), flat[rows, pick].tolist(),
                     costs[rows, pick].tolist(), points[rows, pick].tolist(), bounds.tolist())
        for j, (some, value, cost, point, bound) in enumerate(vertex):
            if some:
                offer(value, cost, point)
            c = at.get(j)
            if c is not None:
                offer(cross_values[c], cross_costs[c], cross_points[c])
            if c is None or bound >= best[0] - _GAP:
                floor = min(floor, bound)
            else:
                heapq.heappush(heap, (bound, next(serial), values[j], lo[j], hi[j], cross_axes[c]))

    def halve(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, axis: int, s: float):
        """Each box of the stack cut at ``s`` of its way along ``axis``, lower half first."""
        low, high = values.take(0, axis + 1), values.take(1, axis + 1)
        mid = s * high + (1.0 - s) * low
        halves = np.stack((np.stack((low, mid), axis + 1), np.stack((mid, high), axis + 1)), 1)
        lo, hi = lo.repeat(2, 0), hi.repeat(2, 0)
        hi[::2, axis] = lo[1::2, axis] = s * hi[::2, axis] + (1.0 - s) * lo[::2, axis]
        return halves.reshape((-1,) + values.shape[1:]), lo, hi

    # row i of low: the corners with bit i clear; every slope of Sh_x along
    # axis i in the cube is a mix of the corner differences of row i
    low, axes = np.arange(1 << k - 1), np.arange(k)[:, None]
    low = (low >> axes << axes + 1) | (low & (1 << axes) - 1)
    slopes = corners[low | 1 << axes] - corners[low]
    rises, falls = (slopes >= 0).all(axis=1), (slopes <= 0).all(axis=1)
    box = corners.reshape((2,) * k).transpose()[None].copy(), np.zeros((1, k)), np.ones((1, k))
    for i, b in enumerate(base_p):
        if rises[i] or falls[i]:  # one side of b: its far end moves to b, as in halve
            values, lo, hi = box
            ends = np.moveaxis(values, i + 1, 1)
            ends[:, int(rises[i])] = b * ends[:, 1] + (1.0 - b) * ends[:, 0]
            (hi if rises[i] else lo)[:, i] = b
        elif b < 1.0:
            box = halve(*box, i, b)
    push(*box)

    opened = 0
    while heap and best[0] - heap[0][0] > _GAP and opened < max_boxes:
        _, _, values, lo, hi, axis = heapq.heappop(heap)
        opened += 1
        push(*halve(values[None], lo[None], hi[None], axis, 0.5))
    bound = min([floor] + [entry[0] for entry in heap])
    return np.array(best[2]), bound, best[0] - bound > _GAP


def fractional_oracle(
    problem: AttackProblem,
    cfg: OracleConfig | None = None,
    *,
    attackable_cap: int = 6,
) -> AttackPlan:
    """Reference solution of a fractional attack problem.

    Minimises the target's Shapley value over the budget-feasible profiles
    of the attackable players by branch and bound (see the module
    docstring), certified to within 1e-9 of the minimum.  A search that
    opens ``max_refinements`` boxes before its certificate returns its best
    profile with the note ``"stopped at max_refinements"``.
    """
    cfg = cfg or OracleConfig()
    game = problem.game
    n = game.n
    if n > _TABLE_PLAYER_CAP:
        raise ResourceLimitError(
            f"n = {n} exceeds the oracle coalition-table cap ({_TABLE_PLAYER_CAP})"
        )
    attackable = problem.attackable()
    k = len(attackable)
    if k > attackable_cap:
        raise ResourceLimitError(
            f"{k} attackable players exceed the oracle cap ({attackable_cap})"
        )
    if k + n > _CORNER_LOG_LIMIT:
        raise ResourceLimitError(
            f"corner table of 2^{k} profiles x 2^{n} coalitions exceeds the "
            f"oracle limit of 2^{_CORNER_LOG_LIMIT} entries"
        )
    costs = problem.costs
    baseline = np.array(costs.p_star, dtype=np.float64)
    cols = np.array([j - 1 for j in attackable], dtype=np.int64)
    corners = _corner_shapley(game.subset_values(), problem.target, baseline, cols)
    if k == 0:
        return AttackPlan(0.0, float(corners[0]), profile=ReliabilityProfile(tuple(baseline)))
    base_p = baseline[cols]
    base_l = np.array([costs.L[j - 1] for j in attackable])
    base_r = np.array([costs.R[j - 1] for j in attackable])
    point, _, stopped = _branch_and_bound(
        corners, base_p, base_l, base_r, problem.budget, cfg.max_refinements
    )
    full = baseline.copy()
    full[cols] = point
    return AttackPlan(
        float(_cost_of(point, base_p, base_l, base_r)),
        float(_fold(corners, point)[0]),
        profile=ReliabilityProfile(tuple(full)),
        note="stopped at max_refinements" if stopped else None,
    )


def fractional_knapsack_optimum(
    values: Sequence[float], weights: Sequence[float], capacity: float
) -> float:
    """Exact optimum, to rounding, of ``max v.z : w.z <= capacity, 0 <= z <= 1``.

    The independent check for the knapsack-equivalent credit attacks: it
    neither sorts nor fills.  By LP duality the optimum is the least value of
    the convex, piecewise linear g(lam) = lam * capacity + sum_i max(0, v_i -
    lam * w_i) over lam >= 0, read at lam = 0 and at every kink v_i / w_i > 0.
    """
    capacity = _as_finite(capacity, "capacity")
    if capacity < 0:
        raise DomainError(f"capacity {capacity} is negative")
    if len(values) != len(weights):
        raise DomainError("values and weights must have equal length")
    v = np.array([_as_finite(x, f"values[{i}]") for i, x in enumerate(values)], dtype=np.float64)
    w = np.array([_as_finite(x, f"weights[{i}]") for i, x in enumerate(weights)], dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing kink or value is inf, never the least
        ratio = np.divide(v, w, out=np.zeros_like(v), where=w != 0)
        kinks = np.append(0.0, ratio[np.isfinite(ratio) & (ratio > 0)])
        step = max(1, (1 << 16) // max(len(v), 1))  # about 2^16 floats live per block
        g = lambda lam: lam * capacity + np.maximum(v - lam[:, None] * w, 0.0).sum(axis=1)
        return min(float(g(kinks[lo:lo + step]).min()) for lo in range(0, len(kinks), step))
