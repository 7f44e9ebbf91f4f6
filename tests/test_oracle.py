import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliattack import (
    AttackProblem,
    ClosedNeighborhoodGame,
    CostModel,
    CreditInstance,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    Graph,
    OracleConfig,
    ReliabilityProfile,
    ResourceLimitError,
    complete_graph,
    credit_knapsack_attack,
    fractional_knapsack_optimum,
    fractional_oracle,
    game_from_json,
    greedy_fractional_attack,
    liveness_transform,
    ThresholdNeighborhoodGame,
    shapley_closed,
)
from reliattack import oracle
from reliattack.shapley import _table_shapley, shapley_definitional

from conftest import (
    coverage_inner,
    cycle_graph,
    exact_knapsack,
    finite_difference,
    fo_value,
    nc2_inner,
    random_game,
    random_profile,
    random_two_author_credit,
    star_graph,
)


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.grid_resolution == 1 / 64
        assert cfg.max_refinements == 10_000
        assert cfg.tolerance == 1e-6

    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(grid_resolution=0.3)
        with pytest.raises(DomainError):
            OracleConfig(grid_resolution=0.0)
        with pytest.raises(DomainError):
            OracleConfig(tolerance=-1.0)
        for field, bad in (
            ("grid_resolution", math.nan),
            ("tolerance", math.nan),
            ("tolerance", math.inf),
            ("max_refinements", True),
            ("max_refinements", 2.5),
            ("max_refinements", "10"),
        ):
            with pytest.raises(DomainError, match=field):
                OracleConfig(**{field: bad})


class TestFractionalOracle:
    def test_zero_budget_returns_baseline(self):
        game = ClosedNeighborhoodGame(complete_graph(4))
        cm = CostModel.uniform((0.31, 0.62, 0.47, 0.58))
        plan = fractional_oracle(AttackProblem(game, 1, 0.0, cm), OracleConfig(0.25))
        assert plan.profile.values == pytest.approx(cm.p_star, abs=1e-12)
        assert plan.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_single_attackable_line_search(self):
        game = ClosedNeighborhoodGame(complete_graph(3))
        cm = CostModel.uniform((0.5, 0.4, 0.9), R=2.0)
        exempt = frozenset({3})
        budget = 0.7
        plan = fractional_oracle(AttackProblem(game, 1, budget, cm, exempt))
        assert plan.profile[2] == pytest.approx(min(1.0, 0.4 + budget / 2.0), abs=1e-6)
        assert plan.profile[3] == 0.9

    def test_matches_greedy_on_k4(self, rng):
        game = ClosedNeighborhoodGame(complete_graph(4))
        for _ in range(5):
            p_star = tuple(rng.uniform(0.1, 0.95) for _ in range(4))
            cm = CostModel.uniform(p_star, R=rng.uniform(0.5, 2.0))
            problem = AttackProblem(game, 1, rng.uniform(0, 2.5), cm)
            greedy = greedy_fractional_attack(problem)
            oracle = fractional_oracle(problem, OracleConfig(grid_resolution=0.25))
            assert abs(greedy.achieved - oracle.achieved) <= 1e-6

    def test_feasibility_and_stationarity(self, rng):
        game = ClosedNeighborhoodGame(star_graph(4, center=2))
        p_star = (0.45, 0.3, 0.85, 0.6)
        cm = CostModel.uniform(p_star)
        problem = AttackProblem(game, 1, 0.9, cm)
        cfg = OracleConfig(grid_resolution=0.25)
        plan = fractional_oracle(problem, cfg)
        assert plan.total_cost <= problem.budget + 1e-9
        assert all(0.0 <= v <= 1.0 for v in plan.profile.values)
        # no pairwise swap of size 1e-3 improves by more than tolerance
        step = 1e-3
        attackable = problem.attackable()
        base_value = shapley_definitional(game, plan.profile)[1]
        for i in attackable:
            for j in attackable:
                if i == j:
                    continue
                moved = {
                    i: min(1.0, max(0.0, plan.profile[i] - step)),
                    j: min(1.0, max(0.0, plan.profile[j] + step)),
                }
                cand = plan.profile.with_values(moved)
                if cm.profile_cost(cand) > problem.budget + 1e-12:
                    continue
                value = shapley_definitional(game, cand)[1]
                assert value >= base_value - cfg.tolerance

    def test_attackable_cap(self):
        game = ClosedNeighborhoodGame(complete_graph(8))
        cm = CostModel.uniform((0.5,) * 8)
        with pytest.raises(ResourceLimitError, match="cap"):
            fractional_oracle(AttackProblem(game, 1, 1.0, cm))

    def test_exempt_players_stay_at_baseline(self):
        ci = CreditInstance.of(4, [((1, 2), 3.0), ((1, 3), 2.0), ((1, 4), 1.0)])
        game = FullCreditGame(ci)
        cm = CostModel.uniform((0.9, 0.4, 0.5, 0.6))
        exempt = frozenset({3})
        plan = fractional_oracle(
            AttackProblem(game, 1, 0.8, cm, exempt), OracleConfig(0.125)
        )
        assert plan.profile[3] == 0.5
        greedy = credit_knapsack_attack(AttackProblem(game, 1, 0.8, cm, exempt))
        assert abs(plan.achieved - greedy.achieved) <= 1e-6


    @pytest.mark.parametrize("slope", ["L", "R"])
    def test_tiny_slopes_raise_no_warning(self, slope):
        # leftover / 1e-310 overflows to inf before the move is clipped to
        # [0, 1]; Tier-1 turns a leaked RuntimeWarning into an error
        game = ClosedNeighborhoodGame(complete_graph(4))
        p_star = (0.5, 0.6, 0.7, 0.8)
        tiny, ones = (1e-310,) * 4, (1.0,) * 4
        L, R = (tiny, ones) if slope == "L" else (ones, tiny)
        problem = AttackProblem(game, 1, 0.5, CostModel(p_star, L, R, (0.0,) * 4))
        plan = fractional_oracle(problem, OracleConfig(0.25))
        assert plan.total_cost <= problem.budget + 1e-12
        assert plan.achieved == pytest.approx(shapley_closed(game, plan.profile, 1), abs=1e-12)
        assert plan.achieved < shapley_closed(game, ReliabilityProfile(p_star), 1)

    def test_note_when_refinements_run_out(self):
        problem = pinned_nc2_problem()
        capped = fractional_oracle(problem, OracleConfig(0.25, max_refinements=5))
        assert capped.note == "stopped at max_refinements"
        assert capped.total_cost <= problem.budget + 1e-12
        assert fractional_oracle(problem, OracleConfig(0.25)).note is None

    def test_tie_heavy_case_stops_at_the_cap(self):
        # many vertices tie at p* = 0.5, and the bound closes too slowly to
        # certify this case within the default cap
        game = ThresholdNeighborhoodGame(complete_graph(7), 3)
        p_star = ReliabilityProfile((0.5,) * 7)
        problem = AttackProblem(game, 1, 0.7, CostModel.uniform(p_star.values))
        plan = fractional_oracle(problem, OracleConfig(0.25, max_refinements=100))
        assert plan.note == "stopped at max_refinements"
        assert plan.total_cost <= problem.budget + 1e-12
        assert plan.achieved == pytest.approx(shapley_closed(game, plan.profile, 1), abs=1e-12)
        assert plan.achieved < shapley_closed(game, p_star, 1)

    def test_oversized_corner_table_is_refused_before_it_is_built(self, monkeypatch):
        def no_corners(*args):
            raise AssertionError("corner table built")

        monkeypatch.setattr(oracle, "_corner_shapley", no_corners)
        # ten attackable players of 16: 2^26 corner-table entries
        game = ClosedNeighborhoodGame(complete_graph(16))
        problem = AttackProblem(
            game, 1, 0.3, CostModel.uniform((0.5,) * 16), exempt=frozenset(range(12, 17))
        )
        with pytest.raises(ResourceLimitError, match=r"2\^10 profiles x 2\^16 coalitions"):
            fractional_oracle(problem, attackable_cap=10)


def pinned_nc2_problem():
    """nc2 with k = 2 on the edges (1,2), (2,3), (2,4), (3,4), target 1,
    budget 0.67, unequal slopes.  The profile (0.66, 0.76, 0.049767814,
    0.455116093) costs 0.67 and scores 0.737909694884 (shapley_closed and
    shapley_definitional agree to 12 digits)."""
    game = ThresholdNeighborhoodGame(Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)]), 2)
    costs = CostModel(
        (0.66, 0.76, 0.6, 0.85), (0.9, 1.7, 0.5, 1.0), (1.3, 1.4, 1.2, 1.9), (0.0,) * 4
    )
    return AttackProblem(game, 1, 0.67, costs)


class TestCertifiedOptimum:
    """nc2 with k = 2, where the optimum is not a vertex point: it lies on
    the budget surface inside a box, between coordinates of unequal
    slopes."""

    def test_four_player_case(self):
        problem = pinned_nc2_problem()
        plan = fractional_oracle(problem)
        assert plan.note is None
        assert plan.total_cost <= problem.budget + 1e-12
        assert plan.achieved <= 0.737909694884 + 1e-9
        want = shapley_definitional(problem.game, plan.profile)[1]
        assert plan.achieved == pytest.approx(want, abs=1e-12)

    def test_k5_equal_slopes(self):
        game = ThresholdNeighborhoodGame(complete_graph(5), 2)
        problem = AttackProblem(game, 1, 0.7, CostModel.uniform((0.5,) * 5))
        plan = fractional_oracle(problem, OracleConfig(0.25))
        # the optimum raises two players to 0.85
        assert plan.achieved == pytest.approx(0.713958333333, abs=1e-9)
        assert plan.profile.values == (0.5, 0.5, 0.5, 0.85, 0.85)


def exact_target_value(game, variant, profile, x):
    if variant == "fo":
        return fo_value(game, profile, x)
    inner = nc2_inner if variant.startswith("nc2") else coverage_inner
    return Fraction(profile[x]) * inner(game, profile, x)


@pytest.mark.parametrize(
    "variant, k",
    [("nc1", 3), ("nc2-2", 2), ("nc2-2", 3), ("nc2-3", 3), ("fc", 3), ("fo", 3)],
)
def test_bound_below_dense_grid_minimum(rng, variant, k):
    """The branch and bound's lower bound against the exact minimum over the
    budget-feasible points of the grid of eighths, on dyadic data so that
    costs and values are exact Fractions."""
    steps = [j / 8 for j in range(9)]
    for _ in range(3):
        n = 5
        game = random_game(rng, variant, n)
        p_star = tuple(rng.choice(steps) for _ in range(n))
        slopes = [tuple(rng.choice((0.5, 1.0, 1.5, 2.0)) for _ in range(n)) for _ in "LR"]
        budget = rng.choice(steps[1:])
        attackable = sorted(rng.sample(range(2, n + 1), k))
        cols = np.array(attackable) - 1
        base_p, base_l, base_r = (np.array(v)[cols] for v in (p_star, *slopes))
        corners = oracle._corner_shapley(game.subset_values(), 1, np.array(p_star), cols)
        point, bound, stopped = oracle._branch_and_bound(
            corners, base_p, base_l, base_r, budget, 10_000
        )
        assert not stopped
        assert bound >= liveness_transform(corners, point)[..., -1] - 1e-9
        least = None
        for q in itertools.product(steps, repeat=k):
            cost = sum(
                Fraction(l) * max(Fraction(b) - Fraction(v), Fraction(0))
                + Fraction(r) * max(Fraction(v) - Fraction(b), Fraction(0))
                for v, b, l, r in zip(q, base_p, base_l, base_r)
            )
            if cost <= Fraction(budget):
                full = list(p_star)
                for j, v in zip(cols, q):
                    full[j] = v
                value = exact_target_value(game, variant, ReliabilityProfile(full), 1)
                least = value if least is None else min(least, value)
        # the float bound may exceed an exactly attained minimum by rounding
        assert bound <= float(least) + 1e-12


GOLDEN = Path(__file__).with_name("oracle_golden.json")


def golden_cases(count: int = 60, seed: int = 19) -> list[dict]:
    """Random oracle problems as JSON: nc1, nc2 with k = 1, 2 and 3, fc and
    fo in turn, each at the caps 0, 5 and 10,000 in turn; n 3-8, random
    exempt sets leaving at most 6 attackable players, unequal L and R."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        variant = ("nc1", "nc2", "nc2", "nc2", "fc", "fo")[i % 6]
        n = rng.randint(3, 8)
        players = range(1, n + 1)
        if variant in ("fc", "fo"):
            papers = [
                {"authors": rng.sample(players, rng.randint(1, min(n, 4))),
                 "score": rng.uniform(0.2, 3.0)}
                for _ in range(rng.randint(1, 6))
            ]
            game = {"variant": variant, "n": n, "papers": papers}
        else:
            edges = [[u, v] for u, v in itertools.combinations(players, 2) if rng.random() < 0.5]
            game = {"variant": variant, "n": n, "edges": edges}
            if variant == "nc2":
                game["k"] = i % 6
        target = rng.randint(1, n)
        others = [j for j in players if j != target]
        exempt = rng.sample(others, max(rng.randint(0, 2), len(others) - 6))
        cases.append({
            "game": game,
            "target": target,
            "budget": rng.uniform(0.0, 1.5),
            "p_star": [1.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0) for _ in players],
            "L": [rng.uniform(0.3, 3.0) for _ in players],
            "R": [rng.uniform(0.3, 3.0) for _ in players],
            "exempt": sorted(exempt),
            "max_refinements": (0, 5, 10_000)[i // 6 % 3],
        })
    return cases


def golden_record(case: dict) -> dict:
    """The oracle's corner table, search and plan for one case of
    :func:`golden_cases`: the corners as floats, the ``repr`` of the
    (point, bound, stopped) that ``_branch_and_bound`` returns from them
    (None when no player is attackable), and the plan's total_cost,
    achieved, profile and note."""
    n = case["game"]["n"]
    costs = CostModel(case["p_star"], case["L"], case["R"], (0.0,) * n)
    game = game_from_json(case["game"])
    problem = AttackProblem(game, case["target"], case["budget"], costs, frozenset(case["exempt"]))
    cols = np.array(problem.attackable(), dtype=np.int64) - 1
    baseline = np.array(case["p_star"])
    corners = oracle._corner_shapley(game.subset_values(), case["target"], baseline, cols)
    plan = fractional_oracle(problem, OracleConfig(max_refinements=case["max_refinements"]))
    return {
        "corners": corners.tolist(),
        "search": golden_search(case, corners),
        "plan": [plan.total_cost, plan.achieved, list(plan.profile.values), plan.note],
    }


def golden_search(case: dict, corners: np.ndarray) -> str | None:
    """``repr`` of ``_branch_and_bound``'s (point, bound, stopped) for one
    case of :func:`golden_cases` from the corner table ``corners``."""
    exempt = {case["target"], *case["exempt"]}
    cols = [j for j in range(case["game"]["n"]) if j + 1 not in exempt]
    if not cols:
        return None
    base_p, base_l, base_r = (np.array(case[key])[cols] for key in ("p_star", "L", "R"))
    point, bound, stopped = oracle._branch_and_bound(
        corners, base_p, base_l, base_r, case["budget"], case["max_refinements"]
    )
    return repr((point.tolist(), float(bound), bool(stopped)))


def test_search_matches_the_recorded_fixture():
    """The branch and bound, bit for bit, against ``oracle_golden.json``: it
    runs on the recorded corner tables and uses only elementwise numpy and
    short sums, so its output does not hang on the machine's BLAS.  A change
    that means to alter it regenerates the fixture with
    ``PYTHONPATH=src python tests/test_oracle.py`` and says why."""
    recorded = json.loads(GOLDEN.read_text())
    assert [entry["case"] for entry in recorded] == golden_cases()
    for entry in recorded:
        assert golden_search(entry["case"], np.array(entry["corners"])) == entry["search"]


def test_plans_match_the_recorded_fixture():
    """The oracle's corner tables and plans against ``oracle_golden.json``, to
    a few ulps of their scale: the corners come from a BLAS contraction,
    whose rounding can differ between machines."""
    def close(actual, recorded):
        return np.allclose(actual, recorded, rtol=1e-13, atol=1e-13)

    for entry in json.loads(GOLDEN.read_text()):
        record = golden_record(entry["case"])
        assert close(record["corners"], entry["corners"])
        *numbers, note = record["plan"]
        *recorded_numbers, recorded_note = entry["plan"]
        assert note == recorded_note
        assert all(close(a, b) for a, b in zip(numbers, recorded_numbers, strict=True))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_unopened_search_beats_every_feasible_root_vertex(hrng):
    """With no box opened, the search has still offered the best feasible
    vertex of every root orthant it kept, and a point of an orthant it dropped
    is no better than its projection onto the baseline, a point of a kept
    one.  So neither its plan nor its bound lies above the least
    budget-feasible point of the grid {0, b_i, 1}^k, dropped orthants
    included, up to the oracle's cap of 6 attackable players."""
    n = hrng.randint(3, 7)
    game = random_game(hrng, hrng.choice(("nc1", "nc2", "nc3", "fc", "fo")), n)
    p_star = tuple(1.0 if hrng.random() < 0.1 else hrng.uniform(0.05, 1.0) for _ in range(n))
    slopes = [tuple(hrng.uniform(0.3, 3.0) for _ in range(n)) for _ in "LR"]
    budget = hrng.uniform(0.0, 1.5)
    attackable = sorted(hrng.sample(range(2, n + 1), hrng.randint(1, min(n - 1, 6))))
    problem = AttackProblem(
        game, 1, budget, CostModel(p_star, *slopes, (0.0,) * n),
        frozenset(range(2, n + 1)) - set(attackable),
    )
    plan = fractional_oracle(problem, OracleConfig(max_refinements=0))
    cols = np.array(attackable) - 1
    base_p, base_l, base_r = (np.array(v)[cols] for v in (p_star, *slopes))
    corners = oracle._corner_shapley(game.subset_values(), 1, np.array(p_star), cols)
    _, bound, _ = oracle._branch_and_bound(corners, base_p, base_l, base_r, budget, 0)
    grid = np.array(list(itertools.product(*[(0.0, b, 1.0) for b in base_p])))
    feasible = grid[oracle._cost_of(grid, base_p, base_l, base_r) <= budget]
    least = liveness_transform(corners, feasible)[..., -1].min()
    assert plan.total_cost <= budget + 1e-12
    assert plan.achieved <= least + 1e-12
    assert bound <= least + 1e-12


class TestDominatedOrthants:
    """Hand-written corner tables (index bit i for coordinate i) through the
    branch and bound, whose roots keep one side of the baseline in every
    coordinate along which all corner differences share a sign."""

    def test_mixed_slopes_keep_the_half_the_baseline_slope_would_drop(self):
        # f = -0.2 q1 + 0.5 q2 + q1 q2: df/dq1 = q2 - 0.2 is 0.3 at the
        # baseline, yet the optimum raises q1 once q2 has fallen below 0.2
        corners = np.array([0.0, -0.2, 0.5, 1.3])
        point, bound, stopped = oracle._branch_and_bound(
            corners, np.array([0.5, 0.5]), np.ones(2), np.ones(2), 1.0, 10_000
        )
        assert point.tolist() == [1.0, 0.0]
        assert liveness_transform(corners, point)[..., -1] == pytest.approx(-0.2, abs=1e-15)
        assert not stopped and -0.2 - 1e-9 <= bound <= -0.2 + 1e-15

    def test_monotone_table_exact_minimum(self):
        # f = 2 q1 - q2 - q1 q2 rises in q1 and falls in q2; with raising q2
        # at twice the price, lowering q1 to 0 is the unique optimum
        corners = np.array([0.0, 2.0, -1.0, 0.0])
        point, bound, stopped = oracle._branch_and_bound(
            corners, np.array([0.5, 0.5]), np.ones(2), np.array([1.0, 2.0]), 0.5, 10_000
        )
        assert point.tolist() == [0.0, 0.5]
        assert liveness_transform(corners, point)[..., -1] == -0.5
        assert not stopped and -0.5 - 1e-9 <= bound <= -0.5


class TestCornerInterpolation:
    """Evaluating through the 2^k corner values against the liveness transform
    of the whole coalition table at every profile row."""

    @pytest.mark.parametrize("case", ["K6", "C7", "fc-two-author", "fo-two-author"])
    def test_matches_per_row_transform(self, rng, case):
        if case == "K6":
            game = ClosedNeighborhoodGame(complete_graph(6))
        elif case == "C7":
            game = ClosedNeighborhoodGame(cycle_graph(7))
        else:
            inst = random_two_author_credit(rng, 6)
            game = FullCreditGame(inst) if case == "fc-two-author" else FullObligationGame(inst)
        n = game.n
        vtable = np.array([game.value_mask(m) for m in range(1 << n)])
        baseline = np.array(random_profile(rng, n).values)
        cols = np.array(sorted(rng.sample(range(n), 5 if n == 6 else 6)))
        np_rng = np.random.default_rng(rng.randrange(1 << 30))
        points = np_rng.random((1000, len(cols)))
        points[:50] = np_rng.integers(0, 2, size=(50, len(cols)))  # exact corners
        for x in (1, n):
            corners = oracle._corner_shapley(vtable, x, baseline, cols)
            interpolated = liveness_transform(corners, points)[:, -1]
            full = np.repeat(baseline[None, :], len(points), axis=0)
            full[:, cols] = points
            direct = _table_shapley(liveness_transform(vtable, full), x)
            assert interpolated == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestFiniteDifference:
    def test_linear_function_exact(self):
        f = lambda p: 3.0 * p[1] + 1.0
        p = ReliabilityProfile((0.5, 0.2))
        assert finite_difference(f, p, 1, 1e-3) == pytest.approx(3.0, abs=1e-9)

    def test_constant_zero(self):
        f = lambda p: 7.0
        assert finite_difference(f, ReliabilityProfile((0.5,)), 1, 1e-4) == 0.0

    def test_boundary_one_sided(self):
        f = lambda p: p[1] ** 2
        p = ReliabilityProfile((0.0,))
        # forward difference from 0: (h^2 - 0)/h = h
        assert finite_difference(f, p, 1, 1e-3) == pytest.approx(1e-3, abs=1e-12)

    def test_invalid_step(self):
        with pytest.raises(DomainError, match="h"):
            finite_difference(lambda p: 0.0, ReliabilityProfile((0.5,)), 1, 0.0)


class TestKnapsackLp:
    def test_hand_instance(self):
        # items (value, weight): (6,2), (5,5), (4,4); capacity 7 -> 6 + 5*1 + 4*... greedy ratio order
        value = fractional_knapsack_optimum([6, 5, 4], [2, 5, 4], 7.0)
        assert value == pytest.approx(6 + 5 + 0.0, abs=1e-9)  # take item1 full, item2 full

    def test_fractional_part(self):
        value = fractional_knapsack_optimum([10, 4], [5, 4], 7.0)
        assert value == pytest.approx(10 + 4 * 0.5, abs=1e-9)

    def test_empty(self):
        assert fractional_knapsack_optimum([], [], 3.0) == 0.0

    def test_negative_capacity(self):
        with pytest.raises(DomainError, match=re.escape("capacity -1.0 is negative")):
            fractional_knapsack_optimum([1.0], [1.0], -1.0)

    def test_matches_exact_vertex_enumeration(self):
        # zero weights, values and weights of either sign, and the capacity
        # in turn 0, inside the total weight, and above it
        rng = random.Random(2024)
        pick = lambda lo, hi: rng.choice([0.0, rng.uniform(lo, hi), float(rng.randint(lo, hi))])
        for case in range(1200):
            n = rng.randint(0, 8)
            values = [pick(-2, 5) for _ in range(n)]
            weights = [pick(-1, 4) for _ in range(n)]
            total = sum(abs(w) for w in weights)
            capacity = [0.0, rng.uniform(0.0, total), total + rng.uniform(0.0, 2.0)][case % 3]
            exact = exact_knapsack(values, weights, capacity)
            got = fractional_knapsack_optimum(values, weights, capacity)
            assert abs(got - float(exact)) <= 1e-12, (values, weights, capacity)

    @pytest.mark.parametrize(
        "values, weights, capacity, message",
        [
            ([math.nan], [1.0], 1.0, "values[0] must be a finite number"),
            ([1.0, 2.0], [1.0, math.inf], 1.0, "weights[1] must be a finite number"),
            ([1.0], [-math.inf], 1.0, "weights[0] must be a finite number"),
            ([1.0], [1.0], math.inf, "capacity must be a finite number"),
            ([True], [1.0], 1.0, "values[0] must be a finite number"),
            ([1.0], [1.0], True, "capacity must be a finite number"),
            (["1"], [1.0], 1.0, "values[0] must be a finite number"),
            ([1.0], [1.0], "1", "capacity must be a finite number"),
            ([1.0, 2.0], [1.0], 1.0, "values and weights must have equal length"),
        ],
        ids=["nan-value", "inf-weight", "-inf-weight", "inf-capacity", "bool-value",
             "bool-capacity", "str-value", "str-capacity", "unequal-lengths"],
    )
    def test_malformed_input_names_argument(self, values, weights, capacity, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            fractional_knapsack_optimum(values, weights, capacity)

    def test_imports_no_scipy(self, tmp_path):
        # importing scipy.optimize costs a process about 48 MB and half a second
        request = {
            "game": {"variant": "fo", "n": 3, "papers": [{"authors": [1, 2], "score": 2.0},
                                                         {"authors": [1, 3], "score": 3.0}]},
            "target": 1, "budget": 0.5, "mode": "fractional",
            "cost_model": {"p_star": [0.9, 0.8, 0.7], "L": [1.0, 2.0, 1.0],
                           "R": [1.0, 1.0, 1.0], "c": [0.0, 0.0, 0.0]},
        }
        path = tmp_path / "request.json"
        path.write_text(json.dumps(request))
        code = (
            "import sys\n"
            "import reliattack, reliattack.cli\n"
            "reliattack.fractional_knapsack_optimum([3.0, 2.0], [1.0, 2.0], 2.0)\n"
            f"code = reliattack.cli.main(['oracle-check', {str(path)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout.splitlines()[-1:]) == (0, ["0 []"]), out.stderr


def golden_changes(recorded: list[dict], entries: list[dict]) -> list[str]:
    """One line per entry of ``entries`` that differs from the one at its
    index in ``recorded``: the index, variant, ``max_refinements``, which of
    corners, search and plan changed, and the largest absolute difference of
    the plan's numbers (cost, achieved and profile)."""
    lines = []
    for i, (entry, was) in enumerate(itertools.zip_longest(entries, recorded)):
        if entry is None:
            lines.append(f"case {i}: removed")
            continue
        case = entry["case"]
        head = f"case {i} ({case['game']['variant']}, max_refinements {case['max_refinements']})"
        if was is None or was["case"] != case:
            lines.append(f"{head}: new case")
            continue
        changed = [key for key in ("corners", "search", "plan") if entry[key] != was[key]]
        if changed:
            numbers = [np.array([p[0], p[1], *p[2]]) for p in (entry["plan"], was["plan"])]
            gap = np.abs(numbers[0] - numbers[1]).max()
            lines.append(f"{head}: {', '.join(changed)} changed; largest plan difference {gap:.3g}")
    return lines


if __name__ == "__main__":
    entries = [{"case": case, **golden_record(case)} for case in golden_cases()]
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    print("\n".join(golden_changes(recorded, entries)) or "no entry changed")
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
