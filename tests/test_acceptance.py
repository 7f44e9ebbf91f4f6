"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line; seeds are fixed so the whole run is reproducible."""

import json
import random
import time
import warnings

import pytest

from reliattack import (
    AttackProblem,
    ClosedNeighborhoodGame,
    CostModel,
    FullCreditGame,
    FullObligationGame,
    OracleConfig,
    ReliabilityProfile,
    ThresholdNeighborhoodGame,
    bmc_reduce,
    bmc_solve_exact,
    complete_graph,
    coauthor_contributions,
    credit_knapsack_attack,
    crossover_lambda_pq,
    cycle_fractional_attack,
    fractional_knapsack_optimum,
    fractional_oracle,
    greedy_fractional_attack,
    pairwise_exempt_set,
    removal_attack,
    removal_no_benefit_check,
    shapley_closed,
    shapley_cycle_closed,
    shapley_definitional,
    shapley_gradient,
    shapley_gradient_nc1,
)
from reliattack.cli import main as cli_main

from conftest import (
    cycle_graph,
    finite_difference,
    path_graph,
    random_game,
    random_graph,
    random_profile,
    random_two_author_credit,
    star_graph,
)


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_closed_forms_match_definitional():
    start = time.time()
    rng = random.Random(101)
    configs = ["nc1", "nc21", "nc22", "nc23", "nc3", "fc", "fo"]
    worst = 0.0
    for variant in configs:
        for _ in range(100):
            n = rng.randint(2, 8)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n)
            reference = shapley_definitional(game, p)
            for x in range(1, n + 1):
                err = abs(shapley_closed(game, p, x) - reference[x])
                worst = max(worst, err)
                assert err <= 1e-9, (variant, n, x, err)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"criterion 1 exceeded its 2-minute budget: {elapsed:.1f}s"
    report(1, f"closed vs definitional on 700 instances, worst |diff| = {worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_cycle_formula():
    rng = random.Random(202)
    worst = 0.0
    for n in (5, 6):
        game = ClosedNeighborhoodGame(cycle_graph(n))
        for _ in range(50):
            p = random_profile(rng, n)
            err = abs(shapley_cycle_closed(p) - shapley_definitional(game, p)[1])
            worst = max(worst, err)
            assert err <= 1e-9
    point = ReliabilityProfile((1.0, 0.5, 0.5, 0.5, 0.5))
    assert shapley_cycle_closed(point) == pytest.approx(1.75, abs=1e-12)
    brute = shapley_definitional(ClosedNeighborhoodGame(cycle_graph(5)), point)[1]
    assert brute == pytest.approx(1.75, abs=1e-9)
    report(2, f"cycle closed form on C5/C6 x50 profiles, worst |diff| = {worst:.2e}; "
              "pinned point value 1.75 confirmed")


def test_criterion_3_greedy_matches_oracle_on_complete_and_star():
    rng = random.Random(303)
    cfg = OracleConfig(grid_resolution=0.25)
    configs = []
    for n in (4, 5, 6):
        configs.append((f"K_{n}", ClosedNeighborhoodGame(complete_graph(n)), 1))
        configs.append((f"S_{n}-center", ClosedNeighborhoodGame(star_graph(n, center=1)), 1))
        configs.append((f"S_{n}-leaf", ClosedNeighborhoodGame(star_graph(n, center=2)), 1))
    worst = 0.0
    for label, game, target in configs:
        n = game.n
        for _ in range(50):
            p_star = tuple(rng.uniform(0.05, 0.98) for _ in range(n))
            slope_l = rng.uniform(0.5, 2.0)
            slope_r = rng.uniform(0.5, 2.0)
            costs = CostModel.uniform(p_star, L=slope_l, R=slope_r)
            full_spend = slope_r * sum(1.0 - p_star[j] for j in range(1, n))
            budget = rng.uniform(0.0, 1.1 * full_spend)
            problem = AttackProblem(game, target, budget, costs)
            greedy = greedy_fractional_attack(problem)
            oracle = fractional_oracle(problem, cfg)
            gap = abs(greedy.achieved - oracle.achieved)
            worst = max(worst, gap)
            assert gap <= 1e-6, (label, p_star, budget, gap)
    report(3, f"greedy vs oracle on K_4..K_6 and S_4..S_6 (center/leaf), 50 draws each, "
              f"worst gap = {worst:.2e}")


def _segment_delta(order: str, p2, p3, pm1, pn, budget: float) -> float:
    """Cumulative Shapley decrease of the cycle greedy orders as a function of
    spent budget (unit increase slope), from the four-segment speed table."""
    if order == "P":
        segments = [
            (1.0 - (p3 + pn) / 3.0, 1.0 - p2),
            ((2.0 - pm1) / 3.0, 1.0 - pn),
            (1.0 / 6.0, 1.0 - pm1),
            (1.0 / 6.0, 1.0 - p3),
        ]
    elif order == "Q":
        segments = [
            (1.0 - (p3 + pn) / 3.0, 1.0 - p2),
            (0.5 - pn / 3.0, 1.0 - pm1),
            (1.0 / 3.0, 1.0 - pn),
            (1.0 / 6.0, 1.0 - p3),
        ]
    else:
        raise ValueError(order)
    total = 0.0
    left = budget
    for speed, size in segments:
        step = min(left, size)
        if step <= 0:
            break
        total += speed * step
        left -= step
    return total


def test_criterion_4_cycle_best_of_four_matches_oracle():
    rng = random.Random(404)
    cfg = OracleConfig(grid_resolution=0.25)
    worst = 0.0
    qr_seen = 0
    warnings.simplefilter("ignore", UserWarning)

    def run_case(n, p_star, budget):
        nonlocal worst, qr_seen
        game = ClosedNeighborhoodGame(cycle_graph(n))
        costs = CostModel.uniform(p_star, L=1.0, R=1.0)
        problem = AttackProblem(game, 1, budget, costs)
        plan = cycle_fractional_attack(problem)
        oracle = fractional_oracle(problem, cfg)
        gap = abs(plan.achieved - oracle.achieved)
        worst = max(worst, gap)
        assert gap <= 1e-6, (n, p_star, budget, gap)
        if plan.note[-1] in "QR":
            qr_seen += 1
            order = plan.order
            pm1, pn = n - 1, n
            # a distance-two node is never targeted after its direct neighbor
            if plan.note.endswith("Q"):
                if pn in order:
                    assert pm1 in order and order.index(pm1) < order.index(pn)
            else:
                if 2 in order:
                    assert 3 in order and order.index(3) < order.index(2)
            # crossover of the P/Q decrease curves from the segment table,
            # valid in the regime that opens the Q window
            if p_star[n - 2] - p_star[n - 1] > 0.5:
                lam = crossover_lambda_pq(p_star)
                d_p = _segment_delta("P", p_star[1], p_star[2], p_star[n - 2], p_star[n - 1], lam)
                d_q = _segment_delta("Q", p_star[1], p_star[2], p_star[n - 2], p_star[n - 1], lam)
                assert abs(d_p - d_q) <= 1e-9, (p_star, lam, d_p, d_q)

    for n in (5, 6):
        for _ in range(50):
            p_star = tuple(rng.uniform(0.05, 0.98) for _ in range(n))
            budget = rng.uniform(0.0, 1.1 * sum(1.0 - v for v in p_star[1:]))
            run_case(n, p_star, budget)
    # constructed Q-or-R window: p*_{n-1} - p*_n > 1/2 and p*_3 - p*_2 > 1/2
    for n in (5, 6):
        base = [1.0] * n
        base[1], base[2], base[n - 2], base[n - 1] = 0.05, 0.7, 0.8, 0.1
        lam = 1.5 - base[1] - base[n - 1]
        lo = max(1.0 - base[1], 1.0 - base[n - 1])
        for budget in (0.5 * (lo + lam), 0.8 * lam + 0.2 * lo):
            run_case(n, tuple(base), budget)
    assert qr_seen >= 1, "no instance exhibited a Q-or-R winner"
    report(4, f"cycle best-of-four vs oracle on C5/C6, worst gap = {worst:.2e}; "
              f"{qr_seen} Q/R winners with crossover identity within 1e-9")


def test_criterion_5_removal_never_helps():
    # The no-removal theorem holds for nc1, nc3, fc and nc2 with k=1, and
    # is FALSE for the threshold variant with k >= 2: on the path 1-2-3
    # with k=2, player 1 only earns credit for pushing node 2 over the
    # threshold when player 3 is alive, so removing 3 drops Sh(1) from 7/6
    # to 1.  The criterion checks the theorem on its domain and pins that
    # counterexample (README, "A note on the threshold game (nc2, k >= 2)").
    rng = random.Random(505)
    count = 0
    violations = []
    cases = []
    for variant in ("nc1", "nc2", "nc3", "fc"):
        for _ in range(20):
            n = rng.randint(2, 7)
            cases.append((variant, random_game(rng, variant, n),
                          random_profile(rng, n, lo=0.05), rng.randint(1, n)))
    path_case = ("nc2", ThresholdNeighborhoodGame(path_graph(3), 2),
                 ReliabilityProfile.ones(3), 1)
    cases.append(path_case)
    path_violation = None
    for case in cases:
        variant, game, profile, target = case
        check = removal_no_benefit_check(game, target, None, profile=profile)
        count += check.trials
        if not check.passed:
            violations.append((variant, getattr(game, "threshold", None), game.n,
                               target, check.baseline, check.counterexample_value,
                               sorted(check.counterexample)))
            if case is path_case:
                path_violation = violations[-1]
    # every violation must be the documented threshold-game phenomenon;
    # anything else would be an implementation bug
    assert all(v[0] == "nc2" and v[1] is not None and v[1] >= 2 for v in violations), violations
    assert path_violation is not None, "path 1-2-3 (k=2) counterexample not reported"
    assert path_violation[6] == [3], path_violation
    assert abs(path_violation[4] - 7.0 / 6.0) <= 1e-12, path_violation
    assert abs(path_violation[5] - 1.0) <= 1e-12, path_violation
    report(
        5,
        f"exhaustive removal subsets ({count} total) never decrease the target for "
        f"nc1/nc3/fc and nc2 with k=1; {len(violations)} threshold-game (k >= 2) instances "
        f"admit a removal that decreases the target's Shapley value, e.g. "
        f"variant nc2 k={violations[0][1]} n={violations[0][2]} target={violations[0][3]} "
        f"removing {violations[0][6]} drops {violations[0][4]:.6f} -> {violations[0][5]:.6f}; "
        f"pinned: path 1-2-3 k=2 removing {path_violation[6]} drops Sh(1) "
        f"{path_violation[4]:.6f} -> {path_violation[5]:.6f} "
        '(see README, "A note on the threshold game (nc2, k >= 2)")'
    )


def test_criterion_6_knapsack_attacks_match_lp_and_respect_pairwise():
    rng = random.Random(606)
    worst = 0.0
    for trial in range(50):
        n = rng.randint(3, 6)
        instance = random_two_author_credit(rng, n)
        raising = trial % 2 == 0
        game = FullCreditGame(instance) if raising else FullObligationGame(instance)
        p_star = tuple(rng.uniform(0.2, 0.95) for _ in range(n))
        costs = CostModel(
            p_star,
            tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            (0.0,) * n,
        )
        contrib = coauthor_contributions(instance, 1)
        coas = sorted(contrib)
        if raising:
            values = [contrib[l] * (1.0 - p_star[l - 1]) for l in coas]
            weights = [costs.R[l - 1] * (1.0 - p_star[l - 1]) for l in coas]
        else:
            values = [contrib[l] * p_star[l - 1] for l in coas]
            weights = [costs.L[l - 1] * p_star[l - 1] for l in coas]
        budget = rng.uniform(0.0, 1.2 * sum(weights))
        problem = AttackProblem(game, 1, budget, costs)
        plan = credit_knapsack_attack(problem)
        before = shapley_closed(game, costs.baseline_profile(), 1)
        lp_decrease = p_star[0] * fractional_knapsack_optimum(values, weights, budget) / 2.0
        gap = abs(plan.achieved - (before - lp_decrease))
        worst = max(worst, gap)
        assert gap <= 1e-9, (trial, gap)
        # pairwise-restricted run leaves the protected player untouched
        y = rng.randint(2, n)
        exempt = pairwise_exempt_set(game, y)
        pair_plan = credit_knapsack_attack(
            AttackProblem(game, 1, budget, costs, exempt)
        )
        y_before = shapley_closed(game, costs.baseline_profile(), y)
        y_after = shapley_closed(game, pair_plan.profile, y)
        assert abs(y_after - y_before) <= 1e-12
    report(6, f"knapsack attacks vs exact LP on 50 heterogeneous-slope instances, "
              f"worst gap = {worst:.2e}; pairwise runs leave the protected value unchanged")


def test_criterion_7_coverage_reduction_round_trip():
    rng = random.Random(707)
    cases = []
    for _ in range(30):
        n_elem = rng.randint(1, 10)
        weights = [rng.randint(1, 6) for _ in range(n_elem)]
        m = rng.randint(1, 10)
        sets = []
        for _ in range(m):
            members = {u for u in range(1, n_elem + 1) if rng.random() < 0.35}
            sets.append((members, rng.randint(1, 5)))
        k = rng.randint(1, max(1, sum(c for _, c in sets)))
        threshold = rng.randint(1, max(1, sum(weights)))
        cases.append((weights, sets, k, threshold))
    cases.append(([2, 1], [({1}, 1), ({1, 2}, 2)], 2, 3))  # worked fixture
    for weights, sets, k, threshold in cases:
        reduction = bmc_reduce(weights, sets, k, threshold)
        game = FullObligationGame(reduction.instance)
        baseline = shapley_closed(game, reduction.costs.baseline_profile(), 1)
        assert baseline == pytest.approx(sum(weights), abs=1e-9)
        plan = removal_attack(AttackProblem(game, 1, reduction.budget, reduction.costs))
        decrease = baseline - plan.achieved
        chosen, coverage = bmc_solve_exact(weights, sets, k)
        assert decrease == pytest.approx(coverage, abs=1e-9)
        assert (decrease >= threshold - 1e-9) == (coverage >= threshold - 1e-9)
    weights, sets, k, threshold = cases[-1]
    reduction = bmc_reduce(weights, sets, k, threshold)
    game = FullObligationGame(reduction.instance)
    baseline = shapley_closed(game, reduction.costs.baseline_profile(), 1)
    plan = removal_attack(AttackProblem(game, 1, reduction.budget, reduction.costs))
    assert baseline - plan.achieved == pytest.approx(3.0, abs=1e-12)
    report(7, "coverage reduction: optimal removal decrease equals optimal coverage on "
              "31 instances (YES/NO answers agree; worked fixture decreases by 3)")


def test_criterion_8_gradients_and_sign_constraints():
    rng = random.Random(808)
    worst_fd = 0.0
    for _ in range(20):
        n = rng.randint(2, 7)
        graph = random_graph(rng, n)
        game = ClosedNeighborhoodGame(graph)
        p = random_profile(rng, n, lo=0.05, hi=0.95)
        x = rng.randint(1, n)
        grad = shapley_gradient_nc1(graph, p, x)
        for j in range(1, n + 1):
            if j == x:
                continue
            fd = finite_difference(lambda q: shapley_closed(game, q, x), p, j, 1e-6)
            worst_fd = max(worst_fd, abs(grad[j - 1] - fd))
            assert abs(grad[j - 1] - fd) <= 1e-5
    slack = 1e-7
    from reliattack import ball

    # sign constraints for the three centrality variants; the nonpositivity
    # claim is FALSE for the threshold game with k >= 2 (a neighbor's
    # neighbor can be needed to reach the threshold, making the slope
    # strictly positive), so those slopes must stay confined to that variant
    # and the path 1-2-3 slope d Sh(1)/d p_3 = +1/6 is pinned
    sign_violations = []
    for variant in ("nc1", "nc2", "nc3"):
        for _ in range(50):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n, lo=0.05, hi=0.95)
            x = rng.randint(1, n)
            grad = shapley_gradient(game, p, x)
            if variant == "nc3":
                window = ball(game.graph, {x}, 2.0 * game.cutoff)
            else:
                window = ball(game.graph, {x}, 2.0)  # hop distance
            for j in range(1, n + 1):
                if j == x:
                    continue
                if j not in window:
                    assert abs(grad[j - 1]) <= slack, (variant, j, grad[j - 1])
                elif grad[j - 1] > slack:
                    sign_violations.append(
                        (variant, getattr(game, "threshold", None), n, x, j, grad[j - 1])
                    )
    for variant in ("fc", "fo"):
        for _ in range(50):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n, lo=0.05, hi=0.95)
            x = rng.randint(1, n)
            grad = shapley_gradient(game, p, x)
            coas = game.instance.coauthors(x)
            for j in range(1, n + 1):
                if j == x:
                    continue
                if j in coas:
                    if variant == "fc":
                        assert grad[j - 1] <= slack
                    else:
                        assert grad[j - 1] >= -slack
                else:
                    assert abs(grad[j - 1]) <= slack
    assert all(v[0] == "nc2" and v[1] is not None and v[1] >= 2 for v in sign_violations), \
        sign_violations
    path_slope = shapley_gradient(ThresholdNeighborhoodGame(path_graph(3), 2), (1.0, 1.0, 1.0), 1)[2]
    assert abs(path_slope - 1.0 / 6.0) <= 1e-5, path_slope
    report(
        8,
        f"analytic gradient vs finite differences (worst |diff| = {worst_fd:.2e} <= 1e-5); "
        f"locality and credit signs hold at 50 random points per variant, and "
        f"{len(sign_violations)} threshold-game (k >= 2) slopes are strictly positive inside "
        f"the distance-2 window, e.g. k={sign_violations[0][1]} n={sign_violations[0][2]} "
        f"d Sh({sign_violations[0][3]})/d p_{sign_violations[0][4]} = "
        f"{sign_violations[0][5]:.4f} > 0; pinned: path 1-2-3 k=2 d Sh(1)/d p_3 = "
        f"{path_slope:.4f} = +1/6 "
        '(see README, "A note on the threshold game (nc2, k >= 2)")'
    )


def test_criterion_9_cli_reports_are_byte_identical(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"variant": "nc1", "n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    fc_game = {
        "variant": "fc",
        "n": 3,
        "papers": [{"authors": [1, 2], "score": 4.0}, {"authors": [1, 3], "score": 3.0}],
    }
    request = tmp_path / "attack.json"
    request.write_text(json.dumps({
        "game": fc_game,
        "target": 1,
        "budget": 0.5,
        "cost_model": {
            "p_star": [0.9, 0.5, 0.5],
            "L": [1.0, 1.0, 1.0],
            "R": [1.0, 2.0, 1.0],
            "c": [0.0, 0.0, 0.0],
        },
        "mode": "fractional",
    }))
    bmc = tmp_path / "bmc.json"
    bmc.write_text(json.dumps({
        "elements": [{"weight": 2}, {"weight": 1}],
        "sets": [{"members": [1], "cost": 1}, {"members": [1, 2], "cost": 2}],
        "k": 2,
        "L": 3,
    }))
    oc_request = tmp_path / "oc.json"
    oc_request.write_text(json.dumps({
        "game": {"variant": "nc1", "n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
        "target": 1,
        "budget": 0.3,
        "cost_model": {
            "p_star": [0.7, 0.8, 0.6],
            "L": [1.0, 1.0, 1.0],
            "R": [1.0, 1.0, 1.0],
            "c": [0.0, 0.0, 0.0],
        },
        "mode": "fractional",
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_resolution": 0.25}))
    goldens = [
        ["shapley", str(k3)],
        ["attack", str(request)],
        ["reduce-bmc", str(bmc)],
        ["oracle-check", str(oc_request), "--config", str(cfg)],
        ["no-benefit", str(k3), "--target", "1", "--trials", "40"],
    ]
    for argv in goldens:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
    report(9, f"{len(goldens)} CLI golden fixtures reproduce byte-identical output "
              "across consecutive runs")
