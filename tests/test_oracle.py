import math
import random

import numpy as np
import pytest

from reliattack import (
    AttackProblem,
    ClosedNeighborhoodGame,
    CostModel,
    CreditInstance,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    OracleConfig,
    ReliabilityProfile,
    ResourceLimitError,
    complete_graph,
    credit_knapsack_attack,
    fractional_knapsack_optimum,
    fractional_oracle,
    greedy_fractional_attack,
    liveness_transform,
    liveness_value,
    shapley_closed,
)
from reliattack import oracle
from reliattack.shapley import _table_shapley, shapley_definitional

from conftest import (
    cycle_graph,
    finite_difference,
    random_profile,
    random_two_author_credit,
    star_graph,
)


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.grid_resolution == 1 / 64
        assert cfg.swap_step == 1e-3
        assert cfg.max_refinements == 10_000
        assert cfg.tolerance == 1e-6

    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(grid_resolution=0.3)
        with pytest.raises(DomainError):
            OracleConfig(grid_resolution=0.0)
        with pytest.raises(DomainError):
            OracleConfig(swap_step=0.0)
        with pytest.raises(DomainError):
            OracleConfig(tolerance=-1.0)
        for field, bad in (
            ("grid_resolution", math.nan),
            ("swap_step", math.nan),
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
        # no pairwise swap of size swap_step improves by more than tolerance
        attackable = problem.attackable()
        base_value = shapley_definitional(game, plan.profile)[1]
        for i in attackable:
            for j in attackable:
                if i == j:
                    continue
                moved = {
                    i: min(1.0, max(0.0, plan.profile[i] - cfg.swap_step)),
                    j: min(1.0, max(0.0, plan.profile[j] + cfg.swap_step)),
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
        game = ClosedNeighborhoodGame(complete_graph(4))
        cm = CostModel.uniform((0.31, 0.62, 0.47, 0.58))
        problem = AttackProblem(game, 1, 0.6, cm)
        capped = fractional_oracle(problem, OracleConfig(0.25, max_refinements=0))
        assert capped.note == "stopped at max_refinements"
        assert fractional_oracle(problem, OracleConfig(0.25)).note is None


def materialised_pool(axes, base_p, base_l, base_r, budget):
    """The oracle's candidate pool built directly: the whole grid, the cost of
    every row, then every budget-exhausting variant as a full copy of the
    feasible rows, less the copies that equal their feasible row."""

    def cost_of(points):
        below = np.maximum(base_p - points, 0.0)
        above = np.maximum(points - base_p, 0.0)
        return (below * base_l + above * base_r).sum(axis=-1)

    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    # row by row, in blocks that keep the temporaries small
    grid_costs = np.concatenate([cost_of(rows) for rows in np.array_split(grid, 16)])
    feasible = grid[grid_costs <= budget + 1e-12]
    leftover = np.clip(budget - grid_costs[grid_costs <= budget + 1e-12], 0.0, None)
    pool = [feasible]
    for i in range(len(axes)):
        up = feasible.copy()
        room = np.where(up[:, i] >= base_p[i], leftover / base_r[i], 0.0)
        up[:, i] = np.minimum(1.0, up[:, i] + room)
        down = feasible.copy()
        room = np.where(down[:, i] <= base_p[i], leftover / base_l[i], 0.0)
        down[:, i] = np.maximum(0.0, down[:, i] - room)
        pool += [variant[(variant != feasible).any(axis=1)] for variant in (up, down)]
    cands = np.concatenate(pool, axis=0)
    costs = cost_of(cands)
    keep = costs <= budget + 1e-12
    return cands[keep], costs[keep]


def reference_pool(corners, axes, base_p, base_l, base_r, budget):
    """``oracle._staged_pool`` from the materialised pool: every row folded
    from the whole corner table by ``liveness_value``."""
    rows, costs = materialised_pool(axes, base_p, base_l, base_r, budget)
    return liveness_value(corners, rows), costs, lambda index: rows[index].copy()


def set_grid_axis(baseline, resolution):
    """The oracle's grid axis built as a Python set of floats."""
    steps = int(round(1.0 / resolution))
    pts = {min(1.0, i * resolution) for i in range(steps + 1)}
    pts.add(1.0)
    pts.add(baseline)
    return np.array(sorted(pts), dtype=np.float64)


def random_pool_input(rng, k, resolution, budget_max):
    # baselines on and off the grid, and at the bounds
    base_p = np.array(
        [rng.choice((rng.random(), rng.randrange(9) / 8, 0.0, 1.0)) for _ in range(k)]
    )
    base_l = np.array([rng.uniform(0.5, 3.0) for _ in range(k)])
    base_r = np.array([rng.uniform(0.5, 3.0) for _ in range(k)])
    axes = [oracle._grid_axis(p, resolution) for p in base_p]
    corners = np.array([rng.uniform(-1.0, 1.0) for _ in range(1 << k)])
    return corners, axes, base_p, base_l, base_r, rng.uniform(0.0, budget_max)


def assert_same_pool(got, args):
    """``oracle._staged_pool``'s output ``got`` for ``args`` against
    ``reference_pool``: values, costs and every rebuilt row bit for bit,
    which pins the segment order, and the winning row of the oracle's tie
    rule among them."""
    values, costs, candidate = got
    want_values, want_costs, want_candidate = reference_pool(*args)
    np.testing.assert_array_equal(values, want_values)
    np.testing.assert_array_equal(costs, want_costs)
    rows = np.array([candidate(index) for index in range(len(want_values))])
    want_rows = np.array([want_candidate(index) for index in range(len(want_values))])
    np.testing.assert_array_equal(rows, want_rows)
    tied = np.nonzero(values <= values.min() + 1e-15)[0]
    best = int(tied[np.argmin(costs[tied])])
    np.testing.assert_array_equal(candidate(best), want_candidate(best))
    with pytest.raises(IndexError):
        candidate(len(want_values))


class TestCandidatePool:
    @pytest.mark.parametrize("resolution", [1 / 4, 1 / 8])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_materialised_grid(self, rng, k, resolution):
        for _ in range(3):
            args = random_pool_input(rng, k, resolution, 1.2 if k < 6 else 0.6)
            assert_same_pool(oracle._staged_pool(*args), args)

    def test_variant_segments_cross_chunk_boundaries(self, rng):
        base_p, base_l, base_r = np.array([0.45, 0.7]), np.array([1.0, 1.5]), np.array([2.0, 0.8])
        axes = [oracle._grid_axis(p, 1 / 256) for p in base_p]
        corners = np.array([rng.uniform(-1.0, 1.0) for _ in range(4)])
        args = (corners, axes, base_p, base_l, base_r, 1.0)
        got = oracle._staged_pool(*args)
        # at most one row per grid point is feasible, so the four variant
        # segments hold more than four chunks and one of them spans two
        assert len(got[0]) - len(axes[0]) * len(axes[1]) > 4 * oracle._EVAL_CHUNK
        assert_same_pool(got, args)

    @pytest.mark.parametrize("resolution", [1 / 4, 0.22, 1 / 8, 0.07, 1 / 64, 1 / 999, 1e-4])
    def test_grid_axis_matches_set_construction(self, rng, resolution):
        for baseline in [rng.random() for _ in range(5)] + [resolution * 3, 0.5, 1.0]:
            np.testing.assert_array_equal(
                oracle._grid_axis(baseline, resolution), set_grid_axis(baseline, resolution)
            )

    @pytest.mark.parametrize("case", ["K5", "C6", "fc-two-author", "fo-two-author"])
    def test_oracle_plans_match_reference_pool(self, rng, monkeypatch, case):
        for _ in range(3):
            if case == "K5":
                game = ClosedNeighborhoodGame(complete_graph(5))
            elif case == "C6":
                game = ClosedNeighborhoodGame(cycle_graph(6))
            else:
                inst = random_two_author_credit(rng, 6)
                game = FullCreditGame(inst) if case == "fc-two-author" else FullObligationGame(inst)
            n = game.n
            costs = CostModel(
                tuple(rng.uniform(0.05, 1.0) for _ in range(n)),
                tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
                tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
                (0.0,) * n,
            )
            problem = AttackProblem(game, rng.randint(1, n), rng.uniform(0.0, 1.5), costs)
            cfg = OracleConfig(rng.choice((1 / 4, 1 / 8)))
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_staged_pool", reference_pool)
                want = fractional_oracle(problem, cfg)
            assert repr(fractional_oracle(problem, cfg)) == repr(want)

    def test_huge_grid_is_refused_before_any_axis_is_built(self, monkeypatch):
        def no_axis(*args):
            raise AssertionError("grid axis built")

        monkeypatch.setattr(oracle, "_grid_axis", no_axis)
        game = ClosedNeighborhoodGame(complete_graph(3))
        problem = AttackProblem(game, 1, 0.3, CostModel.uniform((0.7, 0.8, 0.6)))
        with pytest.raises(ResourceLimitError, match="at least 1000000002000000001 profiles"):
            fractional_oracle(problem, OracleConfig(grid_resolution=1e-9))
        with pytest.raises(ResourceLimitError, match="coarsen grid_resolution"):
            fractional_oracle(problem, OracleConfig(grid_resolution=5e-324))

    def test_refused_grid_builds_no_corner_table(self, monkeypatch):
        def no_corners(*args):
            raise AssertionError("corner table built")

        monkeypatch.setattr(oracle, "_corner_shapley", no_corners)
        # ten attackable players: at least 5^10 profiles at grid 1/4
        game = ClosedNeighborhoodGame(complete_graph(11))
        problem = AttackProblem(game, 1, 0.3, CostModel.uniform((0.5,) * 11))
        with pytest.raises(ResourceLimitError, match="at least 9765625 profiles"):
            fractional_oracle(problem, OracleConfig(grid_resolution=0.25), attackable_cap=10)
        # and the size of the built grid (see the test below)
        problem = AttackProblem(game, 1, 0.3, CostModel.uniform((0.7, 0.4) + (0.9,) * 9),
                                exempt=frozenset(range(4, 12)))
        with pytest.raises(ResourceLimitError, match=r"grid of \d+ profiles exceeds"):
            fractional_oracle(problem, OracleConfig(grid_resolution=1 / 1999))

    def test_built_grid_over_the_limit_names_its_size(self):
        # 2,000 points per axis pass the lower bound (2000^2 is the limit);
        # the off-grid baselines add one more to each axis
        game = ClosedNeighborhoodGame(complete_graph(3))
        problem = AttackProblem(game, 1, 0.3, CostModel.uniform((0.7, 0.4, 0.9)))
        with pytest.raises(ResourceLimitError, match=r"grid of \d+ profiles exceeds"):
            fractional_oracle(problem, OracleConfig(grid_resolution=1 / 1999))


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
        with pytest.raises(DomainError):
            fractional_knapsack_optimum([1.0], [1.0], -1.0)
