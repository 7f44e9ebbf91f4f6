import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from reliattack import (
    AttackPlan,
    AttackProblem,
    ClosedNeighborhoodGame,
    CostModel,
    CreditInstance,
    DistanceCutoffGame,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    Graph,
    ReliabilityProfile,
    ResourceLimitError,
    ThresholdNeighborhoodGame,
    bmc_reduce,
    bmc_solve_exact,
    complete_graph,
    covered_weight,
    credit_knapsack_attack,
    crossover_lambda_pq,
    cycle_fractional_attack,
    fractional_attack,
    greedy_fractional_attack,
    pairwise_exempt_set,
    removal_attack,
    removal_no_benefit_check,
    shapley_closed,
    shapley_definitional,
)

from reliattack import attacks

from conftest import (
    TableGame,
    all_coalitions,
    best_affordable_loop,
    cycle_graph,
    exact_shapley,
    exact_table_shapley,
    no_benefit_loop,
    path_graph,
    random_game,
    random_graph,
    random_profile,
    random_two_author_credit,
    removal_search_loop,
    star_graph,
    threshold_value,
)

BMC_WEIGHTS = [2, 1]
BMC_SETS = [({1}, 1), ({1, 2}, 2)]


def nc1(graph):
    return ClosedNeighborhoodGame(graph)


def _targeted_before(order, a, b):
    """a received budget strictly before b (b possibly never targeted)."""
    if a not in order:
        return False
    return b not in order or order.index(a) < order.index(b)


class TestCostModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            CostModel((0.0,), (1.0,), (1.0,), (0.0,))  # baseline must be > 0
        with pytest.raises(DomainError):
            CostModel((0.5,), (0.0,), (1.0,), (0.0,))
        with pytest.raises(DomainError):
            CostModel((0.5,), (1.0,), (-1.0,), (0.0,))
        with pytest.raises(DomainError):
            CostModel((0.5,), (1.0,), (1.0,), (-0.1,))
        with pytest.raises(DomainError):
            CostModel((0.5, 0.5), (1.0,), (1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.5"])
    @pytest.mark.parametrize("index, label", [(0, "p*"), (1, "L"), (2, "R"), (3, "c")])
    def test_entries_must_be_finite_numbers(self, index, label, bad):
        vectors = [[0.5, 0.5], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
        vectors[index][1] = bad
        with pytest.raises(DomainError, match=re.escape(f"{label}_2 must be a finite number")):
            CostModel(*map(tuple, vectors))

    def test_piecewise_cost(self):
        cm = CostModel((0.4,), (3.0,), (2.0,), (1.0,))
        assert cm.change_cost(1, 0.4) == 0.0
        assert cm.change_cost(1, 0.1) == pytest.approx(0.9)
        assert cm.change_cost(1, 1.0) == pytest.approx(1.2)

    def test_problem_validation(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.5, 0.5, 0.5))
        with pytest.raises(DomainError):
            AttackProblem(game, 4, 1.0, cm)
        with pytest.raises(DomainError):
            AttackProblem(game, 1, -1.0, cm)
        problem = AttackProblem(game, 1, 1.0, cm, exempt=frozenset({2}))
        assert problem.exempt == {1, 2}
        assert problem.attackable() == [3]

    # a NaN budget used to pass, and the solvers then returned the baseline plan
    @pytest.mark.parametrize("budget", [math.nan, math.inf, True, "1"])
    def test_problem_budget_must_be_finite(self, budget):
        game = nc1(complete_graph(3))
        with pytest.raises(DomainError, match="budget must be a finite number"):
            AttackProblem(game, 1, budget, CostModel.uniform((0.5, 0.5, 0.5)))


class TestGreedyAttack:
    def test_k3_trace(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.7, 0.8, 0.6), L=1.0, R=1.0)
        plan = greedy_fractional_attack(AttackProblem(game, 1, 0.3, cm))
        assert plan.profile.values == pytest.approx((0.7, 1.0, 0.7))
        assert plan.order == (2, 3)
        assert plan.total_cost == pytest.approx(0.3)

    def test_zero_budget(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.7, 0.8, 0.6))
        plan = greedy_fractional_attack(AttackProblem(game, 1, 0.0, cm))
        assert plan.profile.values == cm.p_star
        assert plan.total_cost == 0.0
        assert plan.achieved == pytest.approx(
            shapley_closed(game, cm.baseline_profile(), 1)
        )

    def test_saturation_leaves_budget_unspent(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.7, 0.8, 0.6), R=2.0)
        plan = greedy_fractional_attack(AttackProblem(game, 1, 5.0, cm))
        assert plan.profile.values == pytest.approx((0.7, 1.0, 1.0))
        assert plan.total_cost == pytest.approx(2.0 * (0.2 + 0.4))
        assert plan.total_cost < 5.0

    def test_star_noncenter_targets_center_first(self):
        game = nc1(star_graph(4, center=2))
        cm = CostModel.uniform((0.5, 0.9, 0.95, 0.96))
        plan = greedy_fractional_attack(AttackProblem(game, 1, 10.0, cm))
        assert plan.order[0] == 2
        assert plan.order == (2, 4, 3)  # then descending baseline

    def test_wrong_topology(self):
        game = nc1(path_graph(4))
        cm = CostModel.uniform((0.5,) * 4)
        with pytest.raises(DomainError, match="complete or star"):
            greedy_fractional_attack(AttackProblem(game, 1, 1.0, cm))

    def test_heterogeneous_slopes_rejected(self):
        game = nc1(complete_graph(3))
        cm = CostModel((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.0,) * 3)
        with pytest.raises(DomainError, match="slope"):
            greedy_fractional_attack(AttackProblem(game, 1, 1.0, cm))

    def test_distance_cutoff_needs_flag(self):
        g = Graph(3, complete_graph(3).edges, (1.0, 1.0, 1.0))
        game = DistanceCutoffGame(g, 5.0)
        cm = CostModel.uniform((0.5,) * 3)
        problem = AttackProblem(game, 1, 1.0, cm)
        with pytest.raises(DomainError, match="cutoff"):
            greedy_fractional_attack(problem)
        plan = greedy_fractional_attack(problem, assume_large_cutoff=True)
        assert plan.note is not None

    def test_threshold_variant_marked_heuristic(self):
        game = ThresholdNeighborhoodGame(complete_graph(3), 2)
        cm = CostModel.uniform((0.5,) * 3)
        plan = greedy_fractional_attack(AttackProblem(game, 1, 0.4, cm))
        assert "oracle" in plan.note

    def test_all_exempt_returns_baseline(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.5,) * 3)
        exempt = pairwise_exempt_set(game, 2)
        plan = greedy_fractional_attack(AttackProblem(game, 1, 1.0, cm, exempt))
        assert plan.profile.values == cm.p_star
        assert plan.total_cost == 0.0

    def test_raise_skips_a_player_already_at_one(self):
        # player 2 leads the order at p* = 1: it gets nothing and is left out
        # of the order, and the budget goes to player 3
        game = nc1(complete_graph(4))
        cm = CostModel.uniform((0.5, 1.0, 0.6, 0.5))
        plan = greedy_fractional_attack(AttackProblem(game, 1, 0.5, cm))
        assert plan.order == (3, 4)
        assert plan.profile.values == pytest.approx((0.5, 1.0, 1.0, 0.6))
        assert plan.total_cost == pytest.approx(0.5)


def cycle_problem(n, p_star, budget, target=1, exempt=frozenset()):
    game = nc1(cycle_graph(n))
    cm = CostModel.uniform(p_star, L=1.0, R=1.0)
    return AttackProblem(game, target, budget, cm, exempt)


class TestCycleAttack:
    def test_small_cycle_rejected(self):
        with pytest.raises(DomainError, match="n >= 5"):
            cycle_fractional_attack(cycle_problem(4, (0.5,) * 4, 1.0))

    def test_wrong_variant_rejected(self):
        game = ThresholdNeighborhoodGame(cycle_graph(5), 1)
        cm = CostModel.uniform((0.5,) * 5)
        with pytest.raises(DomainError, match="closed-neighborhood"):
            cycle_fractional_attack(AttackProblem(game, 1, 1.0, cm))

    def test_saturating_budget_all_orders_coincide(self):
        plan = cycle_fractional_attack(cycle_problem(5, (0.8, 0.3, 0.4, 0.5, 0.6), 10.0))
        assert plan.profile.values == pytest.approx((0.8, 1.0, 1.0, 1.0, 1.0))
        expected = shapley_closed(
            nc1(cycle_graph(5)), ReliabilityProfile((0.8, 1.0, 1.0, 1.0, 1.0)), 1
        )
        assert plan.achieved == pytest.approx(expected, abs=1e-12)

    def test_ignores_players_outside_window(self):
        with pytest.warns(UserWarning, match="influence window"):
            plan = cycle_fractional_attack(
                cycle_problem(7, (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5), 20.0)
            )
        # players 4 and 5 are beyond distance two from 1 on C_7
        assert plan.profile[4] == 0.5 and plan.profile[5] == 0.5

    def test_p_dominant_conditions(self):
        # p*_{n-1}-p*_n < 1/2, p*_3-p*_2 < 1/2, p*_3+p*_n <= p*_2+p*_{n-1}
        p_star = (0.9, 0.8, 0.5, 0.7, 0.75, 0.4)  # n=6: p2=.8 p3=.5 p5=.75 p6=.4
        for budget in (0.1, 0.5, 1.0, 1.7, 2.4):
            plan = cycle_fractional_attack(cycle_problem(6, p_star, budget))
            assert plan.note.endswith("P")

    def test_q_winner_targets_distance_two_before_neighbor(self):
        # p*_{n-1}-p*_n > 1/2 and p*_3-p*_2 > 1/2 open the Q/R window
        p_star = (1.0, 0.05, 0.7, 0.9, 0.8, 0.1)
        plan = cycle_fractional_attack(cycle_problem(6, p_star, 1.1))
        assert plan.note[-1] in "QR"
        order = plan.order
        if plan.note.endswith("Q"):
            assert _targeted_before(order, 5, 6)  # distance-two node 5 first
        else:
            assert _targeted_before(order, 3, 2)

    def test_crossover_lambda_examples(self):
        assert crossover_lambda_pq((1.0, 0.5, 0.3, 0.3, 0.5)) == pytest.approx(0.5)
        assert crossover_lambda_pq((1.0, 0.9, 0.3, 0.3, 0.1)) == pytest.approx(0.5)

    @pytest.mark.parametrize("p_star", [
        (1, Fraction(1, 4), Fraction(1, 2), Fraction(7, 8), Fraction(1, 8)),
        tuple(Fraction(v, 16) for v in (12, 8, 4, 10, 15, 4)),
    ])
    def test_crossover_lambda_is_exact(self, p_star):
        # p*_{n-1} - p*_n > 1/2: at budget crossover_lambda_pq, orders P and Q
        # (each player raised to 1 at unit cost in turn) decrease Sh_1 by
        # the same exact amount
        n = len(p_star)
        lam = Fraction(crossover_lambda_pq([float(v) for v in p_star]))
        assert lam == Fraction(3, 2) - p_star[1] - p_star[-1]
        graph = cycle_graph(n)
        table = [
            Fraction(len(set().union(*(graph.closed_neighborhood(v) for v in coalition))))
            for coalition in all_coalitions(n)
        ]

        def decrease(order):
            p, left = list(p_star), lam
            for j in order:
                step = min(left, 1 - p[j - 1])
                p[j - 1] += step
                left -= step
            return exact_table_shapley(table, p_star)[0] - exact_table_shapley(table, p)[0]

        assert decrease([2, n, n - 1, 3]) == decrease([2, n - 1, n, 3])  # P, then Q

    def test_budget_feasibility_random(self, rng):
        for _ in range(20):
            n = rng.choice([5, 6, 7])
            p_star = tuple(rng.uniform(0.05, 0.95) for _ in range(n))
            budget = rng.uniform(0, 3)
            with pytest.warns(UserWarning) if n >= 6 else _nullcontext():
                plan = cycle_fractional_attack(cycle_problem(n, p_star, budget))
            assert plan.total_cost <= budget + 1e-9
            assert all(0.0 <= v <= 1.0 for v in plan.profile.values)

    def test_pairwise_protected_cycle_player_unchanged(self):
        game = nc1(cycle_graph(7))
        p_star = (0.9, 0.4, 0.5, 0.6, 0.7, 0.8, 0.3)
        cm = CostModel.uniform(p_star)
        exempt = pairwise_exempt_set(game, 4)
        plan = cycle_fractional_attack(cycle_problem(7, p_star, 2.0, exempt=exempt))
        before = shapley_closed(game, cm.baseline_profile(), 4)
        after = shapley_closed(game, plan.profile, 4)
        assert abs(after - before) <= 1e-12
        for j in exempt:
            assert plan.profile[j] == p_star[j - 1]

    def test_exempt_window_returns_the_baseline(self):
        p_star = (0.9, 0.4, 0.5, 0.6, 0.7)
        exempt = pairwise_exempt_set(nc1(cycle_graph(5)), 1)
        plan = cycle_fractional_attack(cycle_problem(5, p_star, 2.0, exempt=exempt))
        assert plan.profile.values == p_star
        assert plan.total_cost == 0.0
        assert plan.order == ()
        assert plan.note is None


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestKnapsackAttack:
    def test_fc_trace(self):
        ci = CreditInstance.of(3, [((1, 2), 4.0), ((1, 3), 3.0)])
        cm = CostModel((0.9, 0.5, 0.5), (1.0,) * 3, (1.0, 2.0, 1.0), (0.0,) * 3)
        plan = credit_knapsack_attack(AttackProblem(FullCreditGame(ci), 1, 0.5, cm))
        assert plan.order == (3,)  # ratio 3/1 beats 4/2
        assert plan.profile.values == pytest.approx((0.9, 0.5, 1.0))

    def test_fo_drains_all_coauthors(self):
        ci = CreditInstance.of(3, [((1, 2), 2.0), ((1, 3), 1.0)])
        cm = CostModel.uniform((1.0, 0.8, 0.6), L=2.0)
        budget = 2.0 * (0.8 + 0.6)
        plan = credit_knapsack_attack(AttackProblem(FullObligationGame(ci), 1, budget, cm))
        assert plan.profile.values == pytest.approx((1.0, 0.0, 0.0))
        assert plan.achieved == pytest.approx(0.0, abs=1e-12)

    def test_zero_budget(self):
        ci = CreditInstance.of(2, [((1, 2), 1.0)])
        cm = CostModel.uniform((0.5, 0.5))
        plan = credit_knapsack_attack(AttackProblem(FullCreditGame(ci), 1, 0.0, cm))
        assert plan.profile.values == cm.p_star

    def test_partial_spend_order(self):
        ci = CreditInstance.of(3, [((1, 2), 4.0), ((1, 3), 3.0)])
        cm = CostModel.uniform((1.0, 0.5, 0.5), R=1.0)
        plan = credit_knapsack_attack(AttackProblem(FullCreditGame(ci), 1, 0.7, cm))
        assert plan.order == (2, 3)
        assert plan.profile.values == pytest.approx((1.0, 1.0, 0.7))

    def test_rejects_wide_papers(self):
        ci = CreditInstance.of(3, [((1, 2, 3), 1.0)])
        cm = CostModel.uniform((0.5,) * 3)
        with pytest.raises(DomainError, match="authors"):
            credit_knapsack_attack(AttackProblem(FullCreditGame(ci), 1, 1.0, cm))

    def test_pairwise_protection_freezes_y(self, rng):
        for _ in range(10):
            n = rng.randint(3, 6)
            ci = random_two_author_credit(rng, n)
            game = FullCreditGame(ci)
            p_star = tuple(rng.uniform(0.3, 0.95) for _ in range(n))
            cm = CostModel.uniform(p_star)
            y = rng.randint(2, n)
            exempt = pairwise_exempt_set(game, y)
            plan = credit_knapsack_attack(
                AttackProblem(game, 1, rng.uniform(0, 2), cm, exempt)
            )
            before = shapley_closed(game, cm.baseline_profile(), y)
            after = shapley_closed(game, plan.profile, y)
            assert abs(after - before) <= 1e-12
            for j in exempt:
                assert plan.profile[j] == cm.p_star[j - 1]


def _outcome(solve, problem, **kwargs):
    """The plan's repr, or the type and message of the error it raises."""
    try:
        return repr(solve(problem, **kwargs))
    except DomainError as exc:
        return type(exc), str(exc)


def _graph_problem(rng, variant, graph):
    if variant == "nc3":
        graph = Graph(graph.n, graph.edges, tuple(rng.uniform(0.2, 2.0) for _ in graph.edges))
        game = DistanceCutoffGame(graph, rng.uniform(0.3, 2.5))
    elif variant == "nc2":
        game = ThresholdNeighborhoodGame(graph, rng.randint(1, 3))
    else:
        game = nc1(graph)
    n = game.n
    cm = CostModel.uniform(
        tuple(rng.uniform(0.05, 1.0) for _ in range(n)), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    )
    target = rng.randint(1, n)
    exempt = frozenset(rng.sample(range(1, n + 1), rng.randint(0, 1)))
    return AttackProblem(game, target, rng.uniform(0.0, 1.5), cm, exempt)


class TestFractionalAttack:
    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3"])
    @pytest.mark.parametrize("topology", ["complete", "star", "cycle"])
    def test_matches_the_solver_of_its_graph(self, variant, topology):
        rng = random.Random(f"{variant}-{topology}")
        for _ in range(12):
            n = rng.randint(4, 8)
            if topology == "complete":
                graph, solver = complete_graph(n), greedy_fractional_attack
            elif topology == "star":
                graph, solver = star_graph(n, rng.randint(1, n)), greedy_fractional_attack
            else:
                graph, solver = cycle_graph(n), cycle_fractional_attack
            problem = _graph_problem(rng, variant, graph)
            kwargs = {}
            if solver is greedy_fractional_attack:
                kwargs = {"assume_large_cutoff": rng.random() < 0.7}
            expected = _outcome(solver, problem, **kwargs)
            assert _outcome(fractional_attack, problem, **kwargs) == expected

    @pytest.mark.parametrize("variant", ["fc", "fo"])
    def test_matches_the_knapsack_on_two_author_credit(self, variant):
        rng = random.Random(variant)
        for _ in range(20):
            n = rng.randint(2, 8)
            x = rng.randint(1, n)
            instance = random_two_author_credit(rng, n, x)
            game = FullCreditGame(instance) if variant == "fc" else FullObligationGame(instance)
            cm = CostModel(
                tuple(rng.uniform(0.05, 1.0) for _ in range(n)),
                tuple(rng.uniform(0.3, 3.0) for _ in range(n)),
                tuple(rng.uniform(0.3, 3.0) for _ in range(n)),
                (0.0,) * n,
            )
            problem = AttackProblem(game, x, rng.uniform(0.0, 2.0), cm)
            plan = fractional_attack(problem)
            assert repr(plan) == repr(credit_knapsack_attack(problem))

    def test_other_topologies_point_to_the_oracle(self):
        problem = AttackProblem(nc1(path_graph(5)), 1, 0.5, CostModel.uniform((0.5,) * 5))
        with pytest.raises(DomainError, match="run oracle-check for other topologies"):
            fractional_attack(problem)

    def test_games_without_a_solver_are_refused(self):
        game = TableGame(2, {(): 0.0, (1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        problem = AttackProblem(game, 1, 0.5, CostModel.uniform((0.5, 0.5)))
        with pytest.raises(DomainError, match="fractional attack undefined for variant 'table'"):
            fractional_attack(problem)


class TestPairwiseExemptSet:
    def test_fc_coauthors(self):
        ci = CreditInstance.of(6, [((2, 3), 1.0), ((2, 5), 2.0)])
        assert pairwise_exempt_set(FullCreditGame(ci), 2) == {2, 3, 5}

    def test_complete_and_star_exempt_everyone(self):
        assert pairwise_exempt_set(nc1(complete_graph(5)), 3) == set(range(1, 6))
        assert pairwise_exempt_set(nc1(star_graph(5, center=2)), 4) == set(range(1, 6))

    def test_cycle_distance_two_ball(self):
        assert pairwise_exempt_set(nc1(cycle_graph(7)), 1) == {6, 7, 1, 2, 3}

    def test_nc3_shares_a_cover_set(self):
        g = Graph(4, ((1, 2), (2, 3), (3, 4)), (1.0, 1.0, 1.0))
        # every ball of radius 0.8 is a single player, so only p_1 enters Sh_1
        assert pairwise_exempt_set(DistanceCutoffGame(g, 0.8), 1) == {1}
        # at radius 1.0 player 1 covers 1 and 2, which 2 and 3 cover too
        assert pairwise_exempt_set(DistanceCutoffGame(g, 1.0), 1) == {1, 2, 3}

    def test_outside_players_leave_the_value_unchanged(self, rng):
        checked = 0
        for variant in ("nc1", "nc3", "fc", "nc21", "nc22", "nc23", "fo"):
            for _ in range(10):
                n = rng.randint(2, 6)
                game = random_game(rng, variant, n)
                p = random_profile(rng, n)
                y = rng.randint(1, n)
                before = shapley_definitional(game, p)[y]
                for j in sorted(set(range(1, n + 1)) - pairwise_exempt_set(game, y)):
                    for v in (0.0, 1.0):
                        after = shapley_definitional(game, p.with_value(j, v))[y]
                        assert after == pytest.approx(before, abs=1e-12), (variant, j, v)
                        checked += 1
        assert checked > 0


class TestRemovalNoBenefit:
    def test_fc_removal_strictly_increases(self):
        ci = CreditInstance.of(2, [((1, 2), 3.0)])
        game = FullCreditGame(ci)
        p = ReliabilityProfile((1.0, 0.8))
        before = shapley_closed(game, p, 1)
        after = shapley_closed(game, p.with_value(2, 0.0), 1)
        assert after > before

    def test_star_leaf_removal_does_not_hurt_other_leaf(self):
        game = nc1(star_graph(4, center=1))
        p = ReliabilityProfile((0.9, 0.8, 0.7, 0.6))
        before = shapley_closed(game, p, 2)
        after = shapley_closed(game, p.with_value(3, 0.0), 2)
        assert after >= before - 1e-12

    # zero or negative trials used to report a vacuous pass
    @pytest.mark.parametrize("trials", [0, -5, True, 2.5])
    def test_trials_must_be_at_least_one(self, trials):
        game = nc1(complete_graph(4))
        with pytest.raises(DomainError, match="trials"):
            removal_no_benefit_check(game, 1, trials)

    def test_exhaustive_pass_where_theorem_holds(self, rng):
        from conftest import random_game

        for variant in ("nc1", "nc21", "nc3", "fc"):
            game = random_game(rng, variant, rng.randint(2, 6))
            p = random_profile(rng, game.n, lo=0.1)
            check = removal_no_benefit_check(
                game, rng.randint(1, game.n), None, profile=p
            )
            assert check.passed, (variant, check)

    def test_exhaustive_refuses_a_window_above_the_cap(self):
        # the hub's window holds the 29 leaves: 2^29 subsets used to be
        # enumerated one frozenset at a time, with no end in sight
        game = nc1(star_graph(30, center=1))
        assert len(pairwise_exempt_set(game, 1) - {1}) == 29 > attacks._WINDOW_CAP
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"29 players .* cap \(16\)"):
            removal_no_benefit_check(game, 1, None)
        assert time.perf_counter() - start < 1.0
        assert removal_no_benefit_check(game, 1, 50).passed  # sampling stays open

    def test_threshold_two_removal_counterexample(self):
        # with threshold 2 on the path 1-2-3, player 1 needs player 3 alive
        # to push node 2 over the threshold, so removing 3 hurts player 1:
        # Sh(1) drops from 7/6 to 1; the checker must surface exactly that
        game = ThresholdNeighborhoodGame(path_graph(3), 2)
        before = exact_shapley(threshold_value(game.graph, 2), 3, (1, 1, 1), 1)
        after = exact_shapley(threshold_value(game.graph, 2), 3, (1, 1, 0), 1)
        assert (before, after) == (Fraction(7, 6), Fraction(1))
        check = removal_no_benefit_check(game, 1, None)
        assert not check.passed
        assert check.counterexample == {3}
        assert abs(Fraction(check.baseline) - before) <= 1e-12
        assert abs(Fraction(check.counterexample_value) - after) <= 1e-12

    def test_fo_rejected(self):
        game = FullObligationGame(CreditInstance.of(2, [((1, 2), 1.0)]))
        with pytest.raises(DomainError, match="nc1/nc2/nc3/fc"):
            removal_no_benefit_check(game, 1, 5)


class TestFoRemoval:
    def test_zero_budget_removes_nothing(self):
        red = bmc_reduce(BMC_WEIGHTS, BMC_SETS, 1, 1)
        cm = CostModel(red.costs.p_star, red.costs.L, red.costs.R, (0.0, 1.0, 2.0))
        plan = removal_attack(AttackProblem(FullObligationGame(red.instance), 1, 0.0, cm))
        assert plan.removed == frozenset()
        assert plan.total_cost == 0.0

    def test_full_budget_leaves_solo_credit(self):
        ci = CreditInstance.of(3, [((1,), 5.0), ((1, 2), 2.0), ((1, 3), 4.0)])
        cm = CostModel.uniform((1.0, 1.0, 1.0), c=1.0)
        plan = removal_attack(AttackProblem(FullObligationGame(ci), 1, 2.0, cm))
        assert plan.removed == {2, 3}
        assert plan.achieved == pytest.approx(5.0, abs=1e-12)

    def test_reduction_fixture(self):
        red = bmc_reduce(BMC_WEIGHTS, BMC_SETS, 2, 3)
        game = FullObligationGame(red.instance)
        baseline = shapley_closed(game, red.costs.baseline_profile(), 1)
        plan = removal_attack(AttackProblem(game, 1, red.budget, red.costs))
        assert plan.removed == {3}  # the player standing for the second set
        assert plan.total_cost == pytest.approx(2.0)
        assert baseline - plan.achieved == pytest.approx(3.0, abs=1e-12)

    def test_tie_break_prefers_smaller_subset(self):
        # removing either coauthor alone wipes the same paper
        ci = CreditInstance.of(3, [((1, 2, 3), 3.0)])
        cm = CostModel.uniform((1.0,) * 3, c=1.0)
        plan = removal_attack(AttackProblem(FullObligationGame(ci), 1, 2.0, cm))
        assert plan.removed == {2}

    def test_coauthor_cap(self):
        n = 30
        ci = CreditInstance.of(n, [((1, l), 1.0) for l in range(2, n + 1)])
        cm = CostModel.uniform((1.0,) * n, c=1.0)
        with pytest.raises(ResourceLimitError, match="cap"):
            removal_attack(AttackProblem(FullObligationGame(ci), 1, 3.0, cm))

    def test_window_cap(self):
        # the centre of a 17-leaf star has 17 players in its distance-two window
        game = ThresholdNeighborhoodGame(star_graph(18), 2)
        cm = CostModel.uniform((1.0,) * 18, c=1.0)
        with pytest.raises(ResourceLimitError, match=r"17 removable players .* cap \(16\)"):
            removal_attack(AttackProblem(game, 1, 3.0, cm))

    def test_removal_attack_dispatch(self):
        game = nc1(complete_graph(3))
        cm = CostModel.uniform((0.5,) * 3, c=1.0)
        plan = removal_attack(AttackProblem(game, 1, 2.0, cm))
        assert plan.removed == frozenset()
        assert "empty removal" in plan.note

    def test_removal_attack_threshold_two_finds_beneficial_removal(self):
        # the empty removal is NOT optimal for threshold >= 2: see the
        # counterexample above; the dispatcher must search exhaustively
        game = ThresholdNeighborhoodGame(path_graph(3), 2)
        cm = CostModel.uniform((1.0,) * 3, c=1.0)
        plan = removal_attack(AttackProblem(game, 1, 1.0, cm))
        assert plan.removed == {3}
        assert plan.achieved == pytest.approx(1.0, abs=1e-12)
        assert plan.total_cost == pytest.approx(1.0)


class TestBmc:
    def test_fixture_papers(self):
        red = bmc_reduce(BMC_WEIGHTS, BMC_SETS, 2, 3)
        papers = {(tuple(sorted(a)), s) for a, s in red.instance.papers}
        assert papers == {((1, 2, 3), 6.0), ((1, 3), 2.0)}
        assert red.target == 1 and red.budget == 2.0 and red.threshold == 3.0
        assert red.costs.c == (0.0, 1.0, 2.0)

    def test_baseline_is_total_weight(self):
        red = bmc_reduce(BMC_WEIGHTS, BMC_SETS, 2, 3)
        game = FullObligationGame(red.instance)
        baseline = shapley_closed(game, red.costs.baseline_profile(), 1)
        assert baseline == pytest.approx(sum(BMC_WEIGHTS), abs=1e-12)

    def test_uncovered_element_is_solo_paper(self):
        red = bmc_reduce([3], [], 1, 1)
        assert red.instance.papers == ((frozenset({1}), 3.0),)

    def test_empty_family_answer(self):
        red = bmc_reduce([3], [], 1, 1)
        game = FullObligationGame(red.instance)
        plan = removal_attack(AttackProblem(game, 1, red.budget, red.costs))
        baseline = shapley_closed(game, red.costs.baseline_profile(), 1)
        assert baseline - plan.achieved == pytest.approx(0.0)  # NO for threshold 1

    def test_solve_fixture(self):
        assert bmc_solve_exact(BMC_WEIGHTS, BMC_SETS, 2) == ((2,), 3.0)

    def test_solve_zero_budget(self):
        assert bmc_solve_exact(BMC_WEIGHTS, BMC_SETS, 0) == ((), 0.0)

    def test_solve_free_sets_cover_union(self):
        chosen, weight = bmc_solve_exact([2, 1, 4], [({1}, 0), ({2, 3}, 0)], 0)
        assert weight == 7.0
        assert chosen == (1, 2)

    def test_solve_set_cap(self):
        sets = [({1}, 1)] * 30
        with pytest.raises(ResourceLimitError, match="cap"):
            bmc_solve_exact([1], sets, 1)

    def test_covered_weight_validates_its_sets(self):
        assert covered_weight([1, 5], [([1, 2], 0), ([2], 3)], [2]) == 5.0
        for sets, field in (
            ([([0], 1)], r"^set 1 references element 0, expected 1\.\.2$"),
            ([([-1], 1)], r"^set 1 references element -1, expected 1\.\.2$"),
            ([([3], 1)], r"^set 1 references element 3, expected 1\.\.2$"),
            ([([True], 1)], r"^element of set 1 must be an integer, got True$"),
        ):
            with pytest.raises(DomainError, match=field):
                covered_weight([1, 5], sets, [1])
        for chosen, field in (
            ([3], r"^set id 3 outside 1\.\.2$"),
            ([True], r"^set id must be an integer, got True$"),
        ):
            with pytest.raises(DomainError, match=field):
                covered_weight([1, 5], [([1], 1), ([2], 1)], chosen)

    def test_input_validation(self):
        with pytest.raises(DomainError, match="weight"):
            bmc_reduce([0], [], 1, 1)
        for bad in (True, math.inf, math.nan, 1.5):
            with pytest.raises(DomainError, match="weight of element 1"):
                bmc_reduce([bad], [], 1, 1)
            with pytest.raises(DomainError, match="element of set 1"):
                bmc_reduce([1], [([bad], 1)], 1, 1)
            with pytest.raises(DomainError, match="cost of set 1"):
                bmc_solve_exact([1], [({1}, bad)], 1)
            with pytest.raises(DomainError, match="budget"):
                bmc_solve_exact([1], [({1}, 1)], bad)
        with pytest.raises(DomainError, match="cost"):
            bmc_reduce([1], [({1}, 0)], 1, 1)
        with pytest.raises(DomainError, match="budget"):
            bmc_reduce([1], [({1}, 1)], 0, 1)
        with pytest.raises(DomainError, match="element"):
            bmc_reduce([1], [({2}, 1)], 1, 1)
        # the reduction scores the element 2 * 10**308; alone it is in range
        big = 10**308
        with pytest.raises(DomainError, match="element weights sum past the largest float"):
            bmc_reduce([big], [({1}, 1)], 1, 1)
        assert bmc_solve_exact([big], [], 1) == ((), 0.0)

    def test_reduction_soundness_exhaustive(self, rng):
        for _ in range(8):
            n_elem = rng.randint(1, 5)
            weights = [rng.randint(1, 5) for _ in range(n_elem)]
            m = rng.randint(0, 5)
            sets = []
            for _ in range(m):
                members = {u for u in range(1, n_elem + 1) if rng.random() < 0.5}
                sets.append((members, rng.randint(1, 4)))
            red = bmc_reduce(weights, sets, 1, 1)
            game = FullObligationGame(red.instance)
            base_profile = red.costs.baseline_profile()
            baseline = shapley_closed(game, base_profile, 1)
            for mask in range(1 << m):
                family = [j + 1 for j in range(m) if mask >> j & 1]
                removed = {j + 1 for j in family}
                after = shapley_closed(
                    game, base_profile.with_values({j: 0.0 for j in removed}), 1
                )
                assert baseline - after == pytest.approx(
                    covered_weight(weights, sets, family), abs=1e-9
                )


def _removal_loop(game, costs, budget, x, candidates):
    """The exhaustive removal search as one loop over every subset mask,
    pricing each subset before evaluating it: the reference for the search
    that enumerates only affordable masks."""
    base = costs.baseline_profile()
    best = None
    for mask in range(1 << len(candidates)):
        removed = tuple(candidates[i] for i in range(len(candidates)) if mask >> i & 1)
        cost = costs.removal_cost(removed)
        if cost > budget + 1e-12:
            continue
        value = shapley_closed(game, base.with_values({j: 0.0 for j in removed}), x)
        if best is None or value < best[0] - 1e-12:
            best = (value, len(removed), removed, cost)
        elif abs(value - best[0]) <= 1e-12 and (len(removed), removed) < (best[1], best[2]):
            best = (value, len(removed), removed, cost)
    value, _, removed, cost = best
    return AttackPlan(cost, value, removed=frozenset(removed), order=removed)


def _bmc_loop(weights, sets, budget):
    """``bmc_solve_exact`` as one loop over every subset mask."""
    best = None
    for mask in range(1 << len(sets)):
        chosen = tuple(j + 1 for j in range(len(sets)) if mask >> j & 1)
        if sum(float(sets[j - 1][1]) for j in chosen) > budget + 1e-12:
            continue
        weight = covered_weight(weights, sets, chosen)
        if best is None or weight > best[0] + 1e-12:
            best = (weight, len(chosen), chosen)
        elif abs(weight - best[0]) <= 1e-12 and (len(chosen), chosen) < (best[1], best[2]):
            best = (weight, len(chosen), chosen)
    return best[2], best[0]


class TestAffordableEnumeration:
    """Searching only the affordable masks gives the plans of the loop over
    every mask, ties and float sums at the budget included."""

    # at 1e4 one ulp of a total exceeds the 1e-12 slack, so the order in
    # which a subset's prices are added decides ties at the budget
    PRICES = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1e4 + 0.1, 2e4 + 0.2, 3e4 + 0.3)

    def _costs(self, rng, n):
        return CostModel(
            tuple(rng.choice((0.4, 0.8, 1.0)) for _ in range(n)),
            (1.0,) * n,
            (1.0,) * n,
            tuple(rng.choice(self.PRICES) for _ in range(n)),
        )

    def _budget(self, rng, costs):
        # often exactly a sum of prices, so totals land on the budget
        return sum(rng.sample(costs.c, rng.randint(0, len(costs.c))))

    def test_masks_price_left_to_right(self, rng):
        for _ in range(10):
            prices = [rng.choice(self.PRICES) for _ in range(8)]
            totals = [sum(p for i, p in enumerate(prices) if m >> i & 1) for m in range(256)]
            for budget in rng.sample(totals, 20):
                affordable = [m for m, total in enumerate(totals) if total <= budget + 1e-12]
                assert attacks._affordable_masks(prices, budget).tolist() == affordable

    def test_fo(self, rng):
        for _ in range(40):
            n = rng.randint(2, 9)
            papers = [
                (rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))), rng.choice((1.0, 2.0, 2.5)))
                for _ in range(rng.randint(1, 8))
            ]
            inst = CreditInstance.of(n, papers)
            costs = self._costs(rng, n)
            budget = self._budget(rng, costs)
            exempt = frozenset(j for j in range(2, n + 1) if rng.random() < 0.2)
            plan = removal_attack(AttackProblem(FullObligationGame(inst), 1, budget, costs, exempt))
            candidates = sorted(inst.coauthors(1) - exempt)
            assert plan == _removal_loop(FullObligationGame(inst), costs, budget, 1, candidates)

    def test_nc2(self, rng):
        for _ in range(30):
            n = rng.randint(2, 8)
            game = ThresholdNeighborhoodGame(random_graph(rng, n), rng.randint(2, 3))
            costs = self._costs(rng, n)
            budget = self._budget(rng, costs)
            x = rng.randint(1, n)
            plan = removal_attack(AttackProblem(game, x, budget, costs))
            candidates = sorted(pairwise_exempt_set(game, x) - {x})
            assert plan == _removal_loop(game, costs, budget, x, candidates)

    def test_bmc(self, rng):
        for _ in range(30):
            n_elem = rng.randint(1, 6)
            weights = [rng.randint(1, 4) for _ in range(n_elem)]
            sets = [
                ({u for u in range(1, n_elem + 1) if rng.random() < 0.4}, rng.randint(1, 3))
                for _ in range(rng.randint(0, 7))
            ]
            k, threshold = rng.randint(1, 6), rng.randint(1, 8)
            red = bmc_reduce(weights, sets, k, threshold)
            game = FullObligationGame(red.instance)
            plan = removal_attack(AttackProblem(game, 1, red.budget, red.costs))
            candidates = list(range(2, red.instance.n + 1))
            assert plan == _removal_loop(game, red.costs, red.budget, 1, candidates)
            assert bmc_solve_exact(weights, sets, k) == _bmc_loop(weights, sets, k)


def _tie_heavy_costs(rng, n):
    """Baselines of exact 1s and a few halves, and removal prices from a
    short list, so that many subsets tie in price and in value."""
    return CostModel(
        tuple(rng.choice((1.0, 1.0, 0.5)) for _ in range(n)),
        (1.0,) * n,
        (1.0,) * n,
        tuple(rng.choice((0.0, 1.0, 1.0, 2.0)) for _ in range(n)),
    )


class TestBatchedSearches:
    """The searches that score all their profiles in one batch against the
    per-profile loops in conftest: the same plans, counterexamples and
    values (1e-12)."""

    def test_best_affordable_matches_the_callback_scan(self, rng):
        # scores from a short list, some 1e-12 apart: the tie rule is not
        # transitive, so only the same sequential scan gives the same subset
        for _ in range(60):
            m = rng.randint(0, 8)
            prices = [rng.choice((0.0, 0.5, 1.0)) for _ in range(m)]
            budget = rng.choice((0.0, 0.5, 1.0, 2.0, 10.0))
            levels = (0.0, 1e-12, 2e-12, 0.5, 1.0)
            table = {mask: rng.choice(levels) for mask in range(1 << m)}
            masks = attacks._affordable_masks(prices, budget)
            scores = np.array([table[mask] for mask in masks.tolist()])

            def score(chosen):
                return table[sum(1 << i for i in chosen)]

            assert attacks._best_affordable(masks, scores) == best_affordable_loop(
                prices, budget, score
            )

    @pytest.mark.parametrize("variant", ["nc22", "nc23", "fo"])
    def test_removal_matches_the_per_call_loop(self, rng, variant):
        for _ in range(25):
            n = rng.randint(2, 9)
            game = random_game(rng, variant, n)
            costs = _tie_heavy_costs(rng, n)
            budget = rng.choice((0.0, 1.0, 2.0, 3.0, 100.0))
            x = rng.randint(1, n)
            plan = removal_attack(AttackProblem(game, x, budget, costs))
            candidates = sorted(pairwise_exempt_set(game, x) - {x})
            reference = removal_search_loop(game, costs, budget, x, candidates)
            assert (plan.removed, plan.order, plan.total_cost) == (
                reference.removed, reference.order, reference.total_cost
            )
            assert abs(plan.achieved - reference.achieved) <= 1e-12

    @pytest.mark.parametrize("variant", ["nc1", "nc21", "nc22", "nc23", "nc3", "fc"])
    def test_no_benefit_matches_the_per_call_loop(self, rng, variant):
        for _ in range(15):
            n = rng.randint(1, 7)
            game = random_game(rng, variant, n)
            p = ReliabilityProfile(tuple(rng.choice((0.0, 1.0, 0.5, 0.25)) for _ in range(n)))
            x = rng.randint(1, n)
            trials = rng.choice((None, None, 1, 40))
            seed = rng.randint(0, 99)
            check = removal_no_benefit_check(game, x, trials, profile=p, seed=seed)
            reference = no_benefit_loop(game, x, trials, profile=p, seed=seed)
            assert (check.passed, check.trials, check.counterexample) == (
                reference.passed, reference.trials, reference.counterexample
            )
            assert abs(check.baseline - reference.baseline) <= 1e-12
            if not check.passed:
                assert abs(check.counterexample_value - reference.counterexample_value) <= 1e-12
