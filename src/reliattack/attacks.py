"""Budget-constrained attacks on a target player's Shapley value.

Fractional attacks move other players' reliabilities under piecewise-linear
costs; removal attacks zero them out at per-player prices.  The three
fractional solvers (complete and star graphs, cycles, two-author credit
instances) are one greedy raise along one order, or the best of the
cycle's four (:func:`_best_raise`), and :func:`fractional_attack` picks the
one for a problem's game and topology; the removal search is exhaustive.
Each solver is validated against independent oracles by the test suite.
"""

from __future__ import annotations

import itertools
import random
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .games import (
    ClosedNeighborhoodGame,
    CoverageGame,
    CreditInstance,
    DistanceCutoffGame,
    FullCreditGame,
    FullObligationGame,
    Game,
    ThresholdNeighborhoodGame,
    _as_finite,
    _as_int,
    _as_player,
    _as_playerset,
    _require_two_authors,
    coauthor_contributions,
    cycle_sequence,
    is_complete,
    star_center,
)
from .reliability import ProfileLike, ReliabilityProfile, as_profile
from .shapley import _BLOCK_ELEMENTS, _shapley_batch, _window, shapley_closed, shapley_cycle_closed

_COST_EPS = 1e-12
_TIE_EPS = 1e-12
_NO_BENEFIT_SLACK = 1e-9
_COAUTHOR_CAP = 24
_WINDOW_CAP = 16
_SET_CAP = 24


@dataclass(frozen=True)
class CostModel:
    """Per-player attack prices.

    ``p_star`` are baseline reliabilities in (0, 1]; lowering player j below
    baseline costs ``L[j-1]`` per unit, raising costs ``R[j-1]`` per unit,
    and removal (forcing p_j = 0) costs ``c[j-1]``.  Every entry must be a
    finite number.
    """

    p_star: tuple[float, ...]
    L: tuple[float, ...]
    R: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.p_star)
        for name, label in (("p_star", "p*"), ("L", "L"), ("R", "R"), ("c", "c")):
            values = getattr(self, name)
            if len(values) != n:
                raise DomainError(
                    f"cost model vector {label} has {len(values)} entries, p* has {n}"
                )
            entries = (_as_finite(v, f"{label}_{i}") for i, v in enumerate(values, start=1))
            object.__setattr__(self, name, tuple(entries))
        for i in range(n):
            if not 0.0 < self.p_star[i] <= 1.0:
                raise DomainError(f"baseline p*_{i + 1} = {self.p_star[i]} outside (0, 1]")
            if not self.L[i] > 0:
                raise DomainError(f"decrease slope L_{i + 1} must be positive")
            if not self.R[i] > 0:
                raise DomainError(f"increase slope R_{i + 1} must be positive")
            if self.c[i] < 0:
                raise DomainError(f"removal cost c_{i + 1} must be nonnegative")

    @classmethod
    def uniform(
        cls,
        p_star: Sequence[float],
        L: float = 1.0,
        R: float = 1.0,
        c: float = 0.0,
    ) -> "CostModel":
        n = len(p_star)
        return cls(tuple(p_star), (L,) * n, (R,) * n, (c,) * n)

    @property
    def n(self) -> int:
        return len(self.p_star)

    def baseline_profile(self) -> ReliabilityProfile:
        return ReliabilityProfile(self.p_star)

    def change_cost(self, j: int, p: float) -> float:
        """Cost of moving player j's reliability from baseline to p."""
        base = self.p_star[j - 1]
        if p < base:
            return self.L[j - 1] * (base - p)
        return self.R[j - 1] * (p - base)

    def profile_cost(self, profile: ProfileLike) -> float:
        p = as_profile(profile, self.n).values
        return sum(self.change_cost(j, p[j - 1]) for j in range(1, self.n + 1))

    def removal_cost(self, removed: Iterable[int]) -> float:
        return sum(self.c[j - 1] for j in removed)


@dataclass(frozen=True)
class AttackProblem:
    """Minimize the Shapley value of ``target`` spending at most ``budget``;
    exempt players (always including the target) keep their baselines."""

    game: Game
    target: int
    budget: float
    costs: CostModel
    exempt: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        n = self.game.n
        _as_player(self.target, n, "target")
        if _as_finite(self.budget, "budget") < 0:
            raise DomainError(f"budget {self.budget} is negative")
        if self.costs.n != n:
            raise DomainError(f"cost model covers {self.costs.n} players, game has {n}")
        exempt = _as_playerset(self.exempt, n, "exempt set") | {self.target}
        object.__setattr__(self, "exempt", exempt)

    def attackable(self) -> list[int]:
        return [j for j in range(1, self.game.n + 1) if j not in self.exempt]


@dataclass(frozen=True)
class AttackPlan:
    """Outcome of an attack: the modified profile (fractional) or the removed
    set (removal), the budget actually spent, the targeting order, and the
    target's resulting Shapley value."""

    total_cost: float
    achieved: float
    profile: ReliabilityProfile | None = None
    removed: frozenset[int] | None = None
    order: tuple[int, ...] = ()
    note: str | None = None


def _greedy_raise(
    problem: AttackProblem, order: Sequence[int], slopes: Sequence[float], target: float
) -> tuple[ReliabilityProfile, tuple[int, ...]]:
    """Move each ordered player from its baseline toward ``target`` (0 or 1)
    at its cost ``slopes[j - 1]`` per unit while the problem's budget lasts,
    partially on the first unaffordable one."""
    vals = list(problem.costs.p_star)
    left = problem.budget
    touched: list[int] = []
    for j in order:
        cur = vals[j - 1]
        gap = abs(target - cur)
        if gap == 0.0:
            continue
        full = slopes[j - 1] * gap
        if full <= left + _COST_EPS:
            vals[j - 1] = target
            left = max(0.0, left - full)
            touched.append(j)
        else:
            delta = left / slopes[j - 1]
            if delta > 0.0:
                moved = cur + delta if target > cur else cur - delta
                vals[j - 1] = min(1.0, max(0.0, moved))
                touched.append(j)
            left = 0.0
            break
    return ReliabilityProfile(tuple(vals)), tuple(touched)


def _best_raise(
    problem: AttackProblem, orders: Sequence[Sequence[int]], slopes: Sequence[float],
    target: float, value: Callable[[ReliabilityProfile], float], notes: Sequence[str | None],
) -> AttackPlan:
    """The plan of the greedy raise along each of ``orders`` whose profile
    ``value`` scores least, the first on a tie, noted by its entry of
    ``notes``."""
    plans = []
    for order, note in zip(orders, notes):
        profile, touched = _greedy_raise(problem, order, slopes, target)
        plans.append((value(profile), profile, touched, note))
    achieved, profile, touched, note = min(plans, key=lambda plan: plan[0])
    return AttackPlan(
        problem.costs.profile_cost(profile), achieved, profile=profile, order=touched, note=note
    )


def _common_slope(values: Sequence[float], players: Sequence[int], name: str) -> None:
    slopes = {values[j - 1] for j in players}
    if len(slopes) > 1:
        raise DomainError(
            f"attackable players must share a common {name} slope, got {sorted(slopes)}"
        )


def greedy_fractional_attack(
    problem: AttackProblem, *, assume_large_cutoff: bool = False
) -> AttackPlan:
    """Optimal fractional attack on complete and star graphs.

    Raises attackable reliabilities to 1 in descending baseline order (on a
    star with the target at a leaf, the center always goes first), spending
    any residual budget partially on the first unaffordable player.  The
    ordering is optimal for the closed-neighborhood game; for the threshold
    and distance-cutoff variants the same greedy runs but the plan is marked
    as heuristic, to be confirmed against the oracle.
    """
    game = problem.game
    if isinstance(game, (ClosedNeighborhoodGame, ThresholdNeighborhoodGame)):
        note = None if isinstance(game, ClosedNeighborhoodGame) else (
            "greedy ordering is heuristic for this variant; verify with the oracle"
        )
    elif isinstance(game, DistanceCutoffGame):
        if not assume_large_cutoff:
            raise DomainError(
                "distance-cutoff greedy requires assume_large_cutoff=True "
                "(the ordering is only justified for large cutoffs)"
            )
        note = "greedy ordering assumes a large cutoff; verify with the oracle"
    else:
        raise DomainError(f"greedy attack does not apply to variant {game.variant!r}")

    graph = game.graph
    x = problem.target
    center = star_center(graph)
    if not is_complete(graph) and center is None:
        raise DomainError("greedy attack needs a complete or star graph")

    attackable = problem.attackable()
    _common_slope(problem.costs.L, attackable, "decrease")
    _common_slope(problem.costs.R, attackable, "increase")

    p_star = problem.costs.p_star
    by_baseline = sorted(attackable, key=lambda j: (-p_star[j - 1], j))
    if center is not None and center != x and center in set(attackable):
        order = [center] + [j for j in by_baseline if j != center]
    else:
        order = by_baseline
    return _best_raise(
        problem, [order], problem.costs.R, 1.0, lambda p: shapley_closed(game, p, x), [note]
    )


def _cycle_ring(game: ClosedNeighborhoodGame, x: int) -> tuple[int, ...]:
    """The cycle in order from x, stepping first to x's smaller neighbor."""
    seq = cycle_sequence(game.graph)
    if seq is None:
        raise DomainError("cycle attack needs a cycle graph")
    i = seq.index(x)
    ring = seq[i:] + seq[:i]
    return ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1]


def cycle_fractional_attack(problem: AttackProblem) -> AttackPlan:
    """Optimal fractional attack on a cycle: the best of four fixed greedy
    targeting orders over the target's two neighbors and two distance-two
    neighbors.  In two of the orders a distance-two node is deliberately
    raised before a direct neighbor.
    """
    game = problem.game
    if not isinstance(game, ClosedNeighborhoodGame):
        raise DomainError(
            f"cycle attack applies to the closed-neighborhood game only, got {game.variant!r}"
        )
    n = game.n
    if n < 5:
        raise DomainError(
            f"cycle attack needs n >= 5 (got n={n}); use the oracle for smaller cycles"
        )
    ring = _cycle_ring(game, problem.target)
    succ, succ2, pred2, pred = ring[1], ring[2], ring[-2], ring[-1]
    window = [succ, succ2, pred2, pred]

    attackable = set(problem.attackable())
    outside = sorted(attackable - set(window))
    if outside:
        warnings.warn(
            "ignoring attackable players outside the influence window of the "
            f"target: {outside}",
            UserWarning,
            stacklevel=2,
        )
    live = [j for j in window if j in attackable]
    _common_slope(problem.costs.R, live, "increase")

    def evaluate(profile: ReliabilityProfile) -> float:
        relabeled = ReliabilityProfile(tuple(profile.values[v - 1] for v in ring))
        return shapley_cycle_closed(relabeled)

    orders = (
        [succ, pred, pred2, succ2],
        [succ, pred2, pred, succ2],
        [pred, succ2, succ, pred2],
        [pred, succ, succ2, pred2],
    )
    # with no live player every order leaves the baseline, and the plan has no note
    notes = [f"best-of-four targeting order {name}" if live else None for name in "PQRS"]
    seqs = [[j for j in order if j in attackable] for order in orders]
    return _best_raise(problem, seqs, problem.costs.R, 1.0, evaluate, notes)


def crossover_lambda_pq(p_star: ProfileLike) -> float:
    """Budget at which the cumulative decrease of cycle order P catches up
    with order Q: ``3/2 - p*_2 - p*_n`` (meaningful when
    ``p*_{n-1} - p*_n > 1/2``)."""
    p = as_profile(p_star)
    if p.n < 5:
        raise DomainError(f"cycle crossover needs n >= 5, got n={p.n}")
    return 1.5 - p[2] - p[p.n]


def credit_knapsack_attack(problem: AttackProblem) -> AttackPlan:
    """Optimal fractional attack on two-author credit instances.

    Full credit: raise coauthor reliabilities to 1 in descending order of
    joint contribution per unit increase cost.  Full obligation: lower them
    to 0 in descending order of joint contribution per unit decrease cost.
    This is the exact greedy solution of the equivalent fractional knapsack.
    Per-player slopes may differ.
    """
    game = problem.game
    if not isinstance(game, (FullCreditGame, FullObligationGame)):
        raise DomainError(
            f"knapsack attack applies to credit games only, got {game.variant!r}"
        )
    x = problem.target
    _require_two_authors(game.instance, x)
    contrib = coauthor_contributions(game.instance, x)

    raising = isinstance(game, FullCreditGame)
    slope_vec = problem.costs.R if raising else problem.costs.L
    candidates = [l for l in contrib if l not in problem.exempt]
    order = sorted(candidates, key=lambda l: (-contrib[l] / slope_vec[l - 1], l))
    return _best_raise(
        problem, [order], slope_vec, float(raising), lambda p: shapley_closed(game, p, x), [None]
    )


def fractional_attack(problem: AttackProblem, *, assume_large_cutoff: bool = False) -> AttackPlan:
    """Optimal fractional attack by the solver of the problem's game and
    topology: the knapsack greedy for credit games, the greedy on complete
    and star graphs, the best of four orders on cycles."""
    game = problem.game
    if isinstance(game, (FullCreditGame, FullObligationGame)):
        return credit_knapsack_attack(problem)
    if isinstance(game, (ClosedNeighborhoodGame, ThresholdNeighborhoodGame, DistanceCutoffGame)):
        graph = game.graph
        if is_complete(graph) or star_center(graph) is not None:
            return greedy_fractional_attack(problem, assume_large_cutoff=assume_large_cutoff)
        if cycle_sequence(graph) is not None:
            return cycle_fractional_attack(problem)
        raise DomainError(
            "fractional attack supports complete, star and cycle graphs; "
            "run oracle-check for other topologies"
        )
    raise DomainError(f"fractional attack undefined for variant {game.variant!r}")


def pairwise_exempt_set(game: Game, y: int) -> frozenset[int]:
    """Players whose reliabilities contribute to the Shapley value of y and
    are therefore untouchable in a pairwise attack protecting y: y and the
    members of the sets of y's closed form.

    In a coverage game these are y and the coverers of every element y
    covers; in the threshold game the distance-two ball of y, and in the
    full-obligation game y and its coauthors."""
    y = _as_player(y, game.n)
    if not hasattr(game, "_sets_of"):
        raise DomainError(f"pairwise exemption undefined for variant {game.variant!r}")
    return frozenset((_window(game, y) + 1).tolist())


@dataclass(frozen=True)
class RemovalCheck:
    """Result of probing removal subsets for a forbidden Shapley decrease."""

    passed: bool
    trials: int
    baseline: float
    counterexample: frozenset[int] | None = None
    counterexample_value: float | None = None


def removal_no_benefit_check(
    game: Game,
    x: int,
    trials: int | None,
    *,
    profile: ProfileLike | None = None,
    seed: int = 0,
) -> RemovalCheck:
    """Check that no removal subset decreases the target's Shapley value.

    Applies to the centrality variants and the full-credit game, where the
    no-benefit theorems hold.  ``trials=None`` enumerates every removal
    subset; an integer samples that many random subsets (seeded), at least
    one.  The enumeration is refused above ``_WINDOW_CAP`` players in x's
    window, the cap of the exhaustive removal search.
    """
    if not isinstance(game, (CoverageGame, ThresholdNeighborhoodGame)):
        raise DomainError(
            f"no-benefit check covers nc1/nc2/nc3/fc, not {game.variant!r}"
        )
    x = _as_player(x, game.n)
    if trials is not None:
        trials = _at_least(trials, "trials", 1)
    base_profile = (
        ReliabilityProfile.ones(game.n) if profile is None else as_profile(profile, game.n)
    )
    baseline = shapley_closed(game, base_profile, x)
    others = [j for j in range(1, game.n + 1) if j != x]
    window = sorted(pairwise_exempt_set(game, x) - {x})
    if trials is None:
        if len(window) > _WINDOW_CAP:
            raise ResourceLimitError(
                f"{len(window)} players in the window of player {x} exceed the"
                f" exhaustive-search cap ({_WINDOW_CAP}); sample them with trials"
            )
        # a subset's value depends only on its players in x's window, so the
        # first subset of the enumeration with a given value holds no others
        subsets: Iterable[frozenset[int]] = (
            frozenset(j for i, j in enumerate(window) if mask >> i & 1)
            for mask in range(1 << len(window))
        )
        count = 1 << len(others)
    else:
        rng = random.Random(seed)
        subsets = (
            frozenset(j for j in others if rng.random() < 0.5) for _ in range(trials)
        )
        count = trials
    p, cols = np.array(base_profile.values), np.array(window, dtype=np.intp) - 1
    while chunk := list(itertools.islice(subsets, _BLOCK_ELEMENTS // max(1, len(window)))):
        removed = np.array([[j in s for j in window] for s in chunk]).reshape(len(chunk), -1)
        values = _shapley_batch(game, p, x, cols, np.where(removed, 0.0, p[cols]))
        bad = np.flatnonzero(values < baseline - _NO_BENEFIT_SLACK)
        if len(bad):
            return RemovalCheck(False, count, baseline, chunk[bad[0]], float(values[bad[0]]))
    return RemovalCheck(True, count, baseline)


def _affordable_masks(prices: Sequence[float], budget: float) -> np.ndarray:
    """The bitmasks over ``prices`` whose total price is within ``budget``,
    in increasing order.  A mask's total adds its prices in increasing bit
    order, as a left-to-right sum over the set bits does."""
    totals = np.zeros(1 << len(prices))
    for i, price in enumerate(prices):
        totals[1 << i : 2 << i] = totals[: 1 << i] + price
    return np.flatnonzero(totals <= budget + _COST_EPS)


def _best_affordable(masks: np.ndarray, scores: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The least of ``scores`` over the subset bitmasks ``masks`` (as from
    :func:`_affordable_masks`), and the subset of bit indices that attains
    it.  Scores within ``_TIE_EPS`` tie; a tie prefers the smaller subset,
    then the lexicographically first.  That rule is not transitive, so the
    masks are scanned in increasing order; a score above the best by more
    than ``_TIE_EPS`` can neither win nor tie, so its subset is not built."""
    best: tuple[float, tuple[int, ...]] | None = None
    for mask, value in zip(masks.tolist(), scores.tolist()):
        if best is not None and value > best[0] + _TIE_EPS:
            continue
        chosen = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        if best is None or value < best[0] - _TIE_EPS or (
            abs(value - best[0]) <= _TIE_EPS and (len(chosen), chosen) < (len(best[1]), best[1])
        ):
            best = (value, chosen)
    return best


def removal_attack(problem: AttackProblem) -> AttackPlan:
    """Optimal removal attack for the studied games.

    Full obligation is solved by exhaustive search over the target's
    removable coauthors.  For the coverage variants, the full-credit game and
    threshold 1, no removal can decrease the target's value, so the empty
    removal is optimal.  The threshold game with threshold >= 2 genuinely
    admits beneficial removals (a neighbor's neighbor may be needed to reach
    the threshold), so it is searched exhaustively over the target's
    distance-two window.  The search scores every affordable subset of the
    candidates; ties prefer smaller subsets, then lexicographic order.
    """
    game, x, costs = problem.game, problem.target, problem.costs
    if isinstance(game, FullObligationGame):
        candidates, cap, what = game.instance.coauthors(x), _COAUTHOR_CAP, "coauthors"
    elif isinstance(game, ThresholdNeighborhoodGame) and game.threshold >= 2:
        candidates, cap, what = pairwise_exempt_set(game, x), _WINDOW_CAP, "players"
    elif isinstance(game, (CoverageGame, ThresholdNeighborhoodGame)):
        return AttackPlan(
            0.0,
            shapley_closed(game, costs.baseline_profile(), x),
            removed=frozenset(),
            note="removal attacks cannot decrease this target's value; empty removal is optimal",
        )
    else:
        raise DomainError(f"removal attack undefined for variant {game.variant!r}")
    candidates = sorted(candidates - problem.exempt)
    if len(candidates) > cap:
        raise ResourceLimitError(
            f"{len(candidates)} removable {what} exceed the exhaustive-search cap ({cap})"
        )
    masks = _affordable_masks([costs.c[j - 1] for j in candidates], problem.budget)
    p, cols = np.array(costs.p_star), np.array(candidates, dtype=np.intp) - 1
    bits, step = np.arange(len(cols)), _BLOCK_ELEMENTS // max(1, len(cols))
    drops = (masks[i : i + step, None] >> bits & 1 for i in range(0, len(masks), step))
    scores = [_shapley_batch(game, p, x, cols, np.where(d, 0.0, p[cols])) for d in drops]
    value, chosen = _best_affordable(masks, np.concatenate(scores))
    removed = tuple(candidates[i] for i in chosen)
    return AttackPlan(costs.removal_cost(removed), value, removed=frozenset(removed), order=removed)


# ---------------------------------------------------------------------------
# budgeted max-coverage reduction


@dataclass(frozen=True)
class BMCReduction:
    """Removal-attack instance encoding a budgeted max-coverage question.

    Removing a coauthor set A of ``target`` decreases its Shapley value by
    exactly the total weight covered by the corresponding sets; the coverage
    answer is YES iff some affordable removal decreases it by ``threshold``.
    """

    instance: CreditInstance
    costs: CostModel
    budget: float
    target: int
    threshold: float


def _at_least(value, what: str, least: int) -> int:
    """``value`` as an integer (see :func:`reliattack.games._as_int`) of at
    least ``least``."""
    out = _as_int(value, what)
    if out < least:
        raise DomainError(f"{what} must be at least {least}, got {value!r}")
    return out


def _validate_cover_input(
    element_weights: Sequence[float],
    sets: Sequence[tuple[Iterable[int], float]],
    *,
    positive_costs: bool,
) -> tuple[list[int], list[tuple[frozenset[int], float]]]:
    """The element weights as positive integers, and the sets as
    (members, cost) with integer members in range and integer costs
    (positive if ``positive_costs``, else nonnegative).  The weights,
    counted once per element and once more per set that holds it, must sum
    within the float range: that sum is the total score of the papers that
    :func:`bmc_reduce` builds, and it bounds every covered weight."""
    weights = [
        _at_least(w, f"weight of element {i}", 1) for i, w in enumerate(element_weights, start=1)
    ]
    norm = []
    for j, (members, cost) in enumerate(sets, start=1):
        members = frozenset(_as_int(u, f"element of set {j}") for u in members)
        for u in members:
            if not 1 <= u <= len(weights):
                raise DomainError(f"set {j} references element {u!r}, expected 1..{len(weights)}")
        norm.append((members, float(_at_least(cost, f"cost of set {j}", int(positive_costs)))))
    if sum(weights) + sum(weights[u - 1] for members, _ in norm for u in members) > sys.float_info.max:
        raise DomainError(
            "element weights sum past the largest float, counted once per element"
            " and once more per set that holds it"
        )
    return weights, norm


def covered_weight(
    element_weights: Sequence[float],
    sets: Sequence[tuple[Iterable[int], float]],
    chosen: Iterable[int],
) -> float:
    """Total weight of the elements covered by the chosen sets (1-based ids)."""
    weights, norm = _validate_cover_input(element_weights, sets, positive_costs=False)
    union: set[int] = set()
    for j in chosen:
        union |= norm[_as_player(j, len(norm), "set id") - 1][0]
    return float(sum(weights[u - 1] for u in union))


def bmc_reduce(
    element_weights: Sequence[float],
    sets: Sequence[tuple[Iterable[int], float]],
    budget: float,
    threshold: float,
) -> BMCReduction:
    """Encode budgeted max-coverage as a full-obligation removal attack.

    Player 1 is the target; player ``j+1`` stands for set j.  Element i
    becomes one paper authored by player 1 and the players of the sets
    covering i, scored by (number of authors) x (element weight), so each
    paper contributes exactly the element weight to the target's baseline
    Shapley value.  All baselines are 1; removal prices are the set costs.
    """
    weights, norm = _validate_cover_input(element_weights, sets, positive_costs=True)
    budget = _at_least(budget, "budget k", 1)
    threshold = _at_least(threshold, "threshold L", 1)
    n = 1 + len(norm)
    papers = []
    for i, w in enumerate(weights, start=1):
        authors = {1} | {j + 1 for j, (members, _) in enumerate(norm, start=1) if i in members}
        papers.append((authors, len(authors) * w))
    instance = CreditInstance.of(n, papers)
    costs = CostModel(
        (1.0,) * n,
        (1.0,) * n,
        (1.0,) * n,
        (0.0,) + tuple(cost for _, cost in norm),
    )
    return BMCReduction(instance, costs, float(budget), 1, float(threshold))


def bmc_solve_exact(
    element_weights: Sequence[float],
    sets: Sequence[tuple[Iterable[int], float]],
    budget: float,
) -> tuple[tuple[int, ...], float]:
    """Exhaustively maximize covered weight under the cost budget.

    Returns the chosen set ids (1-based) and the covered weight; ties prefer
    fewer sets, then lexicographic order.
    """
    weights, norm = _validate_cover_input(element_weights, sets, positive_costs=False)
    budget = _at_least(budget, "budget", 0)
    if len(norm) > _SET_CAP:
        raise ResourceLimitError(
            f"{len(norm)} sets exceed the exhaustive-coverage cap ({_SET_CAP})"
        )
    # element i becomes a paper of the sets that contain it, scored by its
    # weight, so the weight that a choice of sets covers is its full-credit
    # value; an element in no set needs no paper, and the instance keeps one
    # author when there are no sets
    papers = [
        ([j for j, (members, _) in enumerate(norm, start=1) if i in members], w)
        for i, w in enumerate(weights, start=1)
    ]
    instance = CreditInstance.of(max(len(norm), 1), [paper for paper in papers if paper[0]])
    table = FullCreditGame(instance).subset_values()
    masks = _affordable_masks([cost for _, cost in norm], budget)
    neg_weight, chosen = _best_affordable(masks, -table[masks])
    return tuple(j + 1 for j in chosen), -neg_weight
