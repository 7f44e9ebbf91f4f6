"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench

The references are first compared with a brute-force Shapley value of the
reliability extension on small games.  Then every check is shown to accept a
right output, to accept it again after a change far below its tolerance, and
to reject it after a change just above its tolerance.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest

import gen
from checks import Checker
from reference import Instance, greedy_knapsack, knapsack_items, max_coverage

TINY = 1e-12  # far below every tolerance
OVER = 1e-7  # above the 1e-9 tolerance of the closed-form checks


def brute_value(inst: Instance, data: dict, coalition: frozenset) -> float:
    """v(S) straight from the game's definition."""
    if inst.variant in ("fc", "fo"):
        test = (lambda a: bool(a & coalition)) if inst.variant == "fc" else (lambda a: a <= coalition)
        return sum(p["score"] for p in data["papers"] if test(set(p["authors"])))
    n = inst.n
    if inst.variant == "nc2":
        return len(coalition) + sum(
            1 for y in range(1, n + 1) if y not in coalition and len(inst.nbrs[y] & coalition) >= inst.k)
    if inst.variant == "nc1":
        dist = {(u, v): 1.0 for u in range(1, n + 1) for v in inst.nbrs[u]}
        cut = 1.0
    else:
        dist = {(e[0], e[1]): e[2] for e in data["edges"]}
        dist.update({(v, u): w for (u, v), w in list(dist.items())})
        cut = data["d_cut"]
    d = [[0.0 if u == v else dist.get((u, v), math.inf) for v in range(n + 1)] for u in range(n + 1)]
    for k in range(1, n + 1):  # Floyd-Warshall, independent of the reference's Dijkstra
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return float(sum(1 for y in range(1, n + 1) if any(d[x][y] <= cut for x in coalition)))


def brute_shapley(inst: Instance, data: dict, p) -> list[float]:
    n = inst.n
    v = {}
    for m in range(1 << n):
        v[m] = brute_value(inst, data, frozenset(i + 1 for i in range(n) if m >> i & 1))

    def vbar(mask):
        total = 0.0
        for sub in range(1 << n):
            if sub & ~mask:
                continue
            prob = math.prod(p[i] if sub >> i & 1 else 1 - p[i] for i in range(n) if mask >> i & 1)
            total += prob * v[sub]
        return total

    table = [vbar(m) for m in range(1 << n)]
    out = []
    for x in range(n):
        out.append(sum(
            math.factorial(bin(m).count("1")) * math.factorial(n - 1 - bin(m).count("1"))
            / math.factorial(n) * (table[m | 1 << x] - table[m])
            for m in range(1 << n) if not m >> x & 1))
    return out


def small_games(rng: random.Random) -> dict:
    return {
        "nc1": gen.nc_game("nc1", 7, gen.random_edges(rng, 7, 9)),
        "nc2": gen.nc_game("nc2", 7, gen.random_edges(rng, 7, 10), k=2),
        "nc3": gen.nc3_game(rng, 7, gen.random_edges(rng, 7, 10)),
        "fc": gen.credit_game("fc", rng, 7, 8, 3),
        "fo": gen.credit_game("fo", rng, 7, 8, 3),
    }


@pytest.fixture
def env(tmp_path):
    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return name
    return Checker(str(tmp_path)), write


def bumped(values, i, rel):
    out = list(values)
    out[i] *= 1 + rel
    return out


@pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
def test_reference_matches_brute_force_and_vector_check(env, variant):
    checker, write = env
    rng = random.Random(variant)
    data = small_games(rng)[variant]
    p = [rng.uniform(0.05, 0.95) for _ in range(data["n"])]
    inst = Instance(data)
    truth = brute_shapley(inst, data, p)
    for x in range(1, inst.n + 1):
        assert inst.shapley(p, x) == pytest.approx(truth[x - 1], rel=1e-12, abs=1e-12)
    assert inst.expected_value(p) == pytest.approx(sum(truth), rel=1e-12)

    op = {"op": "definitional", "game": write("g.json", data), "profile": write("p.json", {"p": p})}
    assert checker.check(op, truth) is None
    assert checker.check(op, bumped(truth, 3, TINY)) is None
    assert checker.check(op, bumped(truth, 3, OVER)) is not None
    assert checker.check(op, truth[:-1]) is not None
    if variant != "nc2":  # nc2 vectors are checked by efficiency alone
        assert checker.check({**op, "op": "vector"}, bumped(truth, 3, OVER)) is not None
    assert checker.check({**op, "op": "vector"}, bumped(truth, 3, 1e-3)) is not None


def test_nc3_ties_at_the_cutoff_count_as_inside():
    data = {"variant": "nc3", "n": 3, "edges": [[1, 2, 0.25], [2, 3, 0.75]], "d_cut": 1.0}
    assert Instance(data).cover[1] == {1, 2, 3}


def test_gradient_check(env):
    checker, write = env
    data = gen.nc_game("nc1", 7, [[i, i + 1] for i in range(1, 7)])  # a path: 6 and 7 are far from 1
    p = [0.3, 0.5, 0.7, 0.2, 0.9, 0.4, 0.6]
    inst = Instance(data)
    grad = []
    for j in range(1, 8):
        hi, lo = list(p), list(p)
        hi[j - 1], lo[j - 1] = 1.0, 0.0
        grad.append(brute_shapley(inst, data, hi)[0] - brute_shapley(inst, data, lo)[0])
    assert abs(grad[5]) < 1e-12 and abs(grad[6]) < 1e-12
    grad[5] = grad[6] = 0.0
    op = {"op": "gradient", "game": write("g.json", data), "profile": write("p.json", {"p": p}), "players": [1]}
    assert checker.check(op, [grad]) is None
    assert checker.check(op, [bumped(grad, 1, TINY)]) is None
    assert checker.check(op, [bumped(grad, 1, OVER)]) is not None
    assert checker.check(op, [grad[:5] + [1e-9, 0.0]]) is not None
    assert checker.check(op, [grad, grad]) is not None


def test_reliability_and_knapsack_lp_checks(env):
    checker, write = env
    rng = random.Random(3)
    data = gen.credit_game("fo", rng, 6, 7, 3)
    p = [rng.uniform(0.1, 0.9) for _ in range(6)]
    coalition = [1, 2, 4, 5]
    inst = Instance(data)
    want = sum(
        brute_value(inst, data, frozenset(live)) * math.prod(p[i - 1] if i in live else 1 - p[i - 1] for i in coalition)
        for r in range(5) for live in itertools.combinations(coalition, r))
    op = {"op": "reliability", "game": write("g.json", data), "profile": write("p.json", {"p": p}),
          "coalition": coalition}
    assert checker.check(op, want) is None
    assert checker.check(op, want * (1 + OVER)) is not None

    items = {"values": [3.0, 2.0, 1.5], "weights": [2.0, 1.0, 3.0], "capacity": 2.5}
    op = {"op": "knapsack_lp", "items": write("ks.json", items)}
    assert greedy_knapsack(items["values"], items["weights"], 2.5) == pytest.approx(2.0 + 0.75 * 3.0)
    assert checker.check(op, 4.25 * (1 + TINY)) is None
    assert checker.check(op, 4.25 * (1 + OVER)) is not None


def _plan(inst, costs, profile):
    return {"total_cost": sum(costs["L"][j] * (b - q) if q < b else costs["R"][j] * (q - b)
                              for j, (q, b) in enumerate(zip(profile, costs["p_star"]))),
            "achieved": inst.shapley(profile, 1), "profile": list(profile)}


def test_oracle_check(env):
    checker, write = env
    data = gen.nc_game("nc1", 4, gen.complete_edges(4))
    costs = {"p_star": [0.5, 0.4, 0.6, 0.7], "L": [1.0] * 4, "R": [1.0] * 4, "c": [0.0] * 4}
    req = {"game": write("g.json", data), "target": 1, "budget": 0.3, "cost_model": costs, "mode": "fractional"}
    op = {"op": "oracle", "request": write("r.json", req), "solver": "greedy"}
    inst = Instance(data)
    good = _plan(inst, costs, [0.5, 0.4, 0.6, 1.0])
    assert checker.check(op, {"solver": good, "oracle": good}) is None
    # the oracle found a point 2e-6 lower: a real solver/oracle gap
    lower = dict(good, achieved=good["achieved"] - 2e-6)
    assert checker.check(op, {"solver": good, "oracle": lower}) is not None
    assert checker.check(op, {"solver": dict(good, total_cost=0.3 + OVER), "oracle": good}) is not None
    over = _plan(inst, costs, [0.5, 0.4, 0.6 + 1e-6, 1.0])  # consistent, but over budget
    assert checker.check(op, {"solver": over, "oracle": good}) is not None
    moved = _plan(inst, costs, [0.5 + 0.01, 0.4, 0.6, 0.7])  # the target itself was touched
    assert checker.check(op, {"solver": moved, "oracle": moved}) is not None


def test_knapsack_attack_optimality(env):
    checker, write = env
    rng = random.Random(5)
    data = gen.two_author_game("fc", rng, 6, 8)
    costs = gen.cost_model(rng, 6, common=False)
    inst = Instance(data)
    values, weights = knapsack_items(inst, costs, 1)
    budget = 0.5 * sum(weights)
    req = {"game": write("g.json", data), "target": 1, "budget": budget, "cost_model": costs, "mode": "fractional"}

    def spend(order):
        prof, left = list(costs["p_star"]), budget
        for l in order:
            step = min(1.0 - prof[l - 1], left / costs["R"][l - 1])
            prof[l - 1] += step
            left -= step * costs["R"][l - 1]
        plan = _plan(inst, costs, prof)
        return {"code": 0, "stderr": "", "stdout": json.dumps({
            "profile": plan["profile"], "total_cost": plan["total_cost"], "shapley_after": plan["achieved"],
            "shapley_before": inst.shapley(costs["p_star"], 1), "targeting_order": [], "mode": "fractional"})}

    ratio = lambda l: -values[l - 2] / weights[l - 2]
    op = {"argv": ["attack", write("r.json", req)], "check": "attack"}
    assert checker.check(op, spend(sorted(range(2, 7), key=ratio))) is None
    assert checker.check(op, spend(sorted(range(2, 7), key=ratio, reverse=True))) is not None


def test_fo_removal_check(env):
    checker, write = env
    data = {"variant": "fo", "n": 4, "papers": [
        {"authors": [1, 2], "score": 4.0}, {"authors": [1, 3], "score": 2.0}, {"authors": [1, 4], "score": 1.0}]}
    costs = {"p_star": [0.9, 0.8, 0.7, 0.6], "L": [1.0] * 4, "R": [1.0] * 4, "c": [0.0, 2.0, 1.0, 1.0]}
    req = {"game": write("g.json", data), "target": 1, "budget": 2.0, "cost_model": costs, "mode": "removal"}
    inst = Instance(data)

    def report(removed):
        p = list(costs["p_star"])
        for j in removed:
            p[j - 1] = 0.0
        return {"code": 0, "stderr": "", "stdout": json.dumps({
            "removed": removed, "total_cost": sum(costs["c"][j - 1] for j in removed),
            "shapley_before": inst.shapley(costs["p_star"], 1), "shapley_after": inst.shapley(p, 1)})}

    op = {"argv": ["attack", write("r.json", req)], "check": "attack"}
    assert checker.check(op, report([2])) is None
    assert checker.check(op, report([3, 4])) is not None  # affordable but not optimal
    assert checker.check(op, report([2, 3])) is not None  # over budget


def test_cli_checks(env):
    checker, write = env
    ok = lambda obj: {"code": 0, "stdout": json.dumps(obj), "stderr": ""}
    bad = {"argv": ["attack", "r.json"], "check": "malformed", "field": "budget"}
    assert checker.check(bad, {"code": 1, "stdout": "", "stderr": "error: field 'budget' must be finite"}) is None
    assert checker.check(bad, {"code": 0, "stdout": "{}", "stderr": ""}) is not None
    assert checker.check(bad, {"code": 1, "stdout": "", "stderr": "error: bad input"}) is not None

    data = gen.nc_game("nc1", 3, gen.complete_edges(3))
    op = {"argv": ["shapley", write("k3.json", data)], "check": "shapley"}
    values = [1.0, 1.0, 1.0]
    assert checker.check(op, ok({"values": values})) is None
    assert checker.check(op, ok({"values": bumped(values, 0, OVER)})) is not None
    assert checker.check(op, {"code": 0, "stdout": '{"values": [NaN, 1.0, 1.0]}', "stderr": ""}) is not None

    bmc = {"elements": [{"weight": 2}, {"weight": 1}, {"weight": 3}],
           "sets": [{"members": [1], "cost": 1}, {"members": [1, 2], "cost": 2}, {"members": [3], "cost": 2}],
           "k": 3, "L": 5}
    best = max_coverage(bmc)
    assert best == 5.0
    op = {"argv": ["reduce-bmc", write("bmc.json", bmc)], "check": "reduce-bmc"}
    rep = {"coverage": {"weight": best, "answer": "YES", "chosen_sets": [1, 3]},
           "removal": {"decrease": best, "answer": "YES", "removed": [2, 4]},
           "reduction": {"baseline_shapley": 6.0}, "agree": True}
    assert checker.check(op, ok(rep)) is None
    assert checker.check(op, ok({**rep, "agree": False})) is not None
    assert checker.check(op, ok({**rep, "removal": {**rep["removal"], "decrease": best * (1 + OVER)}})) is not None

    path = {"argv": ["no-benefit", write("p3.json", gen.nc_game("nc2", 3, [[1, 2], [2, 3]], k=2)),
                     "--target", "1", "--trials", "20"], "check": "no-benefit-counterexample"}
    rep = {"passed": False, "trials": 20, "baseline": 7 / 6, "counterexample": [2, 3], "counterexample_value": 1.0}
    assert checker.check(path, ok(rep)) is None
    assert checker.check(path, ok({**rep, "passed": True, "counterexample": None})) is not None
    assert checker.check(path, ok({**rep, "counterexample_value": 1.0 + OVER})) is not None


def test_oracle_check_report(env):
    checker, _ = env
    op = {"argv": ["oracle-check", "r.json"], "check": "oracle-check"}
    rep = {"solver_value": 1.0, "oracle_value": 1.0 - 5e-7, "gap": 5e-7, "tolerance": 1e-6, "within_tolerance": True}
    assert checker.check(op, {"code": 0, "stdout": json.dumps(rep), "stderr": ""}) is None
    far = {**rep, "oracle_value": 1.0 - 2e-6, "gap": 2e-6, "within_tolerance": False}
    assert checker.check(op, {"code": 0, "stdout": json.dumps(far), "stderr": ""}) is not None
    assert checker.check(op, {"code": 3, "stdout": json.dumps(far), "stderr": ""}) is not None


def test_generator_is_deterministic(tmp_path):
    a = gen.generate("oracle-audit", 7, str(tmp_path / "a"))
    b = gen.generate("oracle-audit", 7, str(tmp_path / "b"))
    assert a == b
    for name in a["games"]:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    c = gen.generate("oracle-audit", 8, str(tmp_path / "c"))
    assert (tmp_path / "a" / "oc_K6.json").read_text() != (tmp_path / "c" / "oc_K6.json").read_text()


def test_nc2_removal_and_no_benefit_checks(env):
    checker, write = env
    data = gen.nc_game("nc2", 4, [[1, 2], [2, 3], [3, 4], [2, 4]], k=2)
    costs = {"p_star": [0.9, 0.8, 0.7, 0.6], "L": [1.0] * 4, "R": [1.0] * 4, "c": [0.0, 1.0, 1.0, 1.0]}
    req = {"game": write("g.json", data), "target": 1, "budget": 1.0, "cost_model": costs, "mode": "removal"}
    inst = Instance(data)
    truth = {}
    for removed in ([], [2], [3], [4]):
        p = list(costs["p_star"])
        for j in removed:
            p[j - 1] = 0.0
        truth[tuple(removed)] = brute_shapley(inst, data, p)[0]
    best = min(truth, key=truth.get)
    assert truth[best] < truth[()]  # removals help in the threshold game

    def report(removed):
        return {"code": 0, "stderr": "", "stdout": json.dumps({
            "removed": list(removed), "total_cost": float(len(removed)),
            "shapley_before": truth[()], "shapley_after": truth[removed]})}

    op = {"argv": ["attack", write("r.json", req)], "check": "attack"}
    assert checker.check(op, report(best)) is None
    assert checker.check(op, report(())) is not None

    nb = {"argv": ["no-benefit", write("k3.json", gen.nc_game("nc1", 3, gen.complete_edges(3))),
                   "--target", "2", "--trials", "40"], "check": "no-benefit"}
    rep = {"passed": True, "trials": 40, "baseline": 1.0, "counterexample": None, "counterexample_value": None}
    ok = lambda obj: {"code": 0, "stdout": json.dumps(obj), "stderr": ""}
    assert checker.check(nb, ok(rep)) is None
    assert checker.check(nb, ok({**rep, "trials": -5})) is not None
    assert checker.check(nb, ok({**rep, "baseline": 1.0 + OVER})) is not None


def test_tracer_self_time_and_nesting(tmp_path):
    import time
    import types

    from tracing import Tracer

    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)
    ns.outer = lambda: (time.sleep(0.01), ns.inner(), ns.again())
    ns.again = lambda: ns.inner()
    ns.hot = lambda: None
    tr = Tracer()
    tr.wrap(ns, "inner", "x.inner")
    tr.wrap(ns, "again", "x.outer")  # nested inside a span of the same metric
    tr.wrap(ns, "outer", "x.outer")
    tr.count(ns, "hot", "hot")
    ns.outer()
    ns.hot()
    ns.hot()
    tr.uninstall()
    assert ns.outer.__name__ == "<lambda>" and tr.counts["hot"] == 2
    total, selfs = tr.totals(lambda name: name)
    outer = tr.spans[0][3] - tr.spans[0][2]
    assert total["x.outer"] == pytest.approx(outer)  # counted once, not with the nested span
    assert total["x.inner"] == pytest.approx(0.04, abs=0.02)
    assert selfs["x.outer"] == pytest.approx(outer - total["x.inner"], abs=1e-9)
    assert selfs["x.outer"] == pytest.approx(0.01, abs=0.01)
    tr.write(str(tmp_path / "spans.json"))
    written = json.loads((tmp_path / "spans.json").read_text())
    assert [(s["name"], s["parent"]) for s in written] == [
        ("x.outer", -1), ("x.inner", 0), ("x.outer", 0), ("x.inner", 2)]
