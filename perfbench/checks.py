"""Independent checks of every operation's output.

``Checker(workdir).check(op, output)`` returns None when the output is
right and a one-line reason when it is not.  Expected values come from
``reference.py`` and the generated input files, never from ``reliattack``
and never from a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
import re

from reference import (
    GAP_TOL,
    Instance,
    ball2,
    best_removal,
    close,
    coauthors,
    greedy_knapsack,
    knapsack_items,
    max_coverage,
    pairwise_exempt,
    profile_cost,
)

SPOT_CHECKS = 16


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in report")


def strict_json(text: str):
    """Parse a report as strict JSON: ``NaN`` and ``Infinity`` are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class Checker:
    def __init__(self, workdir: str):
        self.dir = workdir
        self._instances: dict[str, Instance] = {}

    def load(self, name: str):
        with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def instance(self, name: str) -> Instance:
        if name not in self._instances:
            self._instances[name] = Instance(self.load(name))
        return self._instances[name]

    def check(self, op: dict, out) -> str | None:
        if isinstance(out, dict) and "error" in out:
            return f"raised {out['error']}"
        try:
            if "argv" in op:
                return self._cli(op, out)
            return getattr(self, "_" + op["op"])(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    # -- in-process operations -------------------------------------------------

    def _values(self, inst: Instance, p, values, players) -> str | None:
        if len(values) != inst.n:
            return f"{len(values)} values for {inst.n} players"
        want = inst.expected_value(p)
        if not close(sum(values), want):
            return f"efficiency: sum {sum(values)!r} != E[v(live N)] {want!r}"
        for x in players:
            ref = inst.shapley(p, x)
            if not close(values[x - 1], ref):
                return f"Sh_{x} = {values[x - 1]!r}, reference {ref!r}"
        return None

    def _spot_players(self, inst: Instance, key: str) -> list[int]:
        if inst.n <= SPOT_CHECKS:
            return list(range(1, inst.n + 1))
        return sorted(random.Random(f"spot:{key}").sample(range(1, inst.n + 1), SPOT_CHECKS))

    def _vector(self, op, out):
        inst = self.instance(op["game"])
        p = self.load(op["profile"])["p"]
        # nc2 has no cheap per-player reference at this size: efficiency only
        players = [] if inst.variant == "nc2" else self._spot_players(inst, op["game"])
        return self._values(inst, p, out, players)

    def _definitional(self, op, out):
        inst = self.instance(op["game"])
        return self._values(inst, self.load(op["profile"])["p"], out, range(1, inst.n + 1))

    def _gradient(self, op, out):
        """Multilinearity: dSh_x/dp_j = Sh_x(p_j = 1) - Sh_x(p_j = 0)."""
        if len(out) != len(op["players"]):
            return f"{len(out)} gradients for {len(op['players'])} players"
        for x, grad in zip(op["players"], out):
            bad = self._one_gradient(op, x, grad)
            if bad:
                return bad
        return None

    def _one_gradient(self, op, x, out):
        inst = self.instance(op["game"])
        p = list(self.load(op["profile"])["p"])
        if len(out) != inst.n:
            return f"{len(out)} gradient entries for {inst.n} players"
        window = ball2(inst, x)
        for j in range(1, inst.n + 1):
            if j not in window:
                if abs(out[j - 1]) > 1e-12:
                    return f"dSh_{x}/dp_{j} = {out[j - 1]!r} outside the distance-two ball"
                continue
            keep = p[j - 1]
            p[j - 1] = 1.0
            hi = inst.shapley(p, x)
            p[j - 1] = 0.0
            lo = inst.shapley(p, x)
            p[j - 1] = keep
            if not close(out[j - 1], hi - lo, floor=max(1.0, abs(hi))):
                return f"dSh_{x}/dp_{j} = {out[j - 1]!r}, reference {hi - lo!r}"
        return None

    def _reliability(self, op, out):
        inst = self.instance(op["game"])
        want = inst.expected_value(self.load(op["profile"])["p"], op["coalition"])
        return None if close(out, want) else f"value {out!r}, reference {want!r}"

    def _knapsack_lp(self, op, out):
        items = self.load(op["items"])
        want = greedy_knapsack(items["values"], items["weights"], items["capacity"])
        return None if close(out, want) else f"LP optimum {out!r}, sorted greedy {want!r}"

    def _oracle(self, op, out):
        req = self.load(op["request"])
        inst = self.instance(req["game"])
        for name in ("solver", "oracle"):
            bad = self._plan(inst, req, out[name], frozenset())
            if bad:
                return f"{name} plan: {bad}"
        gap = abs(out["solver"]["achieved"] - out["oracle"]["achieved"])
        if not gap <= GAP_TOL:
            return f"solver-oracle gap {gap!r} > {GAP_TOL}"
        if op["solver"] == "knapsack":
            return self._knapsack_optimal(inst, req, out["solver"]["achieved"], frozenset())
        return None

    # -- plans -------------------------------------------------------------------

    def _plan(self, inst: Instance, req: dict, plan: dict, exempt) -> str | None:
        """A fractional plan: untouched players at baseline, cost recomputed
        from the profile equal to ``total_cost`` and within the budget, and
        the achieved value equal to the reference Shapley value."""
        costs, x, budget = req["cost_model"], req["target"], req["budget"]
        prof = plan["profile"]
        if len(prof) != inst.n:
            return f"profile has {len(prof)} entries for {inst.n} players"
        for j in exempt | {x}:
            if not close(prof[j - 1], costs["p_star"][j - 1], 1e-11):
                return f"untouchable player {j} moved to {prof[j - 1]!r}"
        if not all(0.0 <= q <= 1.0 for q in prof):
            return "profile leaves [0, 1]"
        cost = profile_cost(costs, prof)
        if not close(plan["total_cost"], cost):
            return f"total_cost {plan['total_cost']!r}, recomputed {cost!r}"
        if not plan["total_cost"] <= budget + 1e-9 * max(1.0, budget):
            return f"total_cost {plan['total_cost']!r} over budget {budget!r}"
        ref = inst.shapley(prof, x)
        if not close(plan["achieved"], ref):
            return f"achieved {plan['achieved']!r}, reference Sh {ref!r}"
        return None

    def _knapsack_optimal(self, inst, req, achieved, exempt) -> str | None:
        costs, x = req["cost_model"], req["target"]
        values, weights = knapsack_items(inst, costs, x, exempt)
        best = greedy_knapsack(values, weights, req["budget"])
        decrease = inst.shapley(costs["p_star"], x) - achieved
        if not close(decrease, best):
            return f"decrease {decrease!r}, fractional-knapsack optimum {best!r}"
        return None

    # -- CLI requests --------------------------------------------------------------

    def _cli(self, op, out):
        if op["check"] == "malformed":
            if out["code"] != 1:
                return f"malformed {op['field']!r} accepted with exit code {out['code']}"
            if not re.search(rf"\b{re.escape(op['field'])}\b", out["stderr"]):
                return f"error message does not name field {op['field']!r}: {out['stderr'].strip()!r}"
            return None
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].strip()[-200:]}"
        report = strict_json(out["stdout"])
        return getattr(self, "_cli_" + op["check"].replace("-", "_"))(op["argv"], report)

    def _cli_shapley(self, argv, report):
        inst = self.instance(argv[1])
        p = self.load(argv[argv.index("--profile") + 1])["p"] if "--profile" in argv else [1.0] * inst.n
        if "--player" in argv:
            x = int(argv[argv.index("--player") + 1])
            ref = inst.shapley(p, x)
            return None if close(report["value"], ref) else f"Sh_{x} = {report['value']!r}, reference {ref!r}"
        return self._values(inst, p, report["values"], range(1, inst.n + 1))

    def _cli_attack(self, argv, report):
        req = self.load(argv[1])
        inst = self.instance(req["game"])
        costs, x, budget = req["cost_model"], req["target"], req["budget"]
        before = inst.shapley(costs["p_star"], x)
        if not close(report["shapley_before"], before):
            return f"shapley_before {report['shapley_before']!r}, reference {before!r}"
        exempt = frozenset()
        if req.get("pairwise_protect") is not None:
            exempt = frozenset(pairwise_exempt(inst, req["pairwise_protect"]))
        if req["mode"] == "fractional":
            plan = {"profile": report["profile"], "total_cost": report["total_cost"],
                    "achieved": report["shapley_after"]}
            bad = self._plan(inst, req, plan, exempt)
            if bad or inst.variant not in ("fc", "fo"):
                return bad
            return self._knapsack_optimal(inst, req, report["shapley_after"], exempt | {x})
        return self._removal(inst, req, report, before)

    def _removal(self, inst, req, report, before):
        costs, x, budget = req["cost_model"], req["target"], req["budget"]
        removed = report["removed"]
        cost = sum(costs["c"][j - 1] for j in removed)
        if x in removed or not close(report["total_cost"], cost) or cost > budget + 1e-9:
            return f"removal {removed} costs {cost!r}, reported {report['total_cost']!r}, budget {budget!r}"
        p = list(costs["p_star"])
        for j in removed:
            p[j - 1] = 0.0
        after = inst.shapley(p, x)
        if not close(report["shapley_after"], after):
            return f"shapley_after {report['shapley_after']!r}, reference {after!r}"
        if inst.variant == "fo":
            best = best_removal(inst, costs, budget, x, coauthors(inst, x))
        elif inst.variant == "nc2" and inst.k >= 2:
            best = best_removal(inst, costs, budget, x, ball2(inst, x) - {x})
        else:
            best = before  # no removal can lower the value in these games
        if not close(report["shapley_after"], best):
            return f"shapley_after {report['shapley_after']!r}, brute-force optimum {best!r}"
        return None

    def _cli_oracle_check(self, argv, report):
        gap = abs(report["solver_value"] - report["oracle_value"])
        if not (report["gap"] <= GAP_TOL and report["within_tolerance"] is True):
            return f"oracle gap {report['gap']!r} > {GAP_TOL}"
        if not abs(report["gap"] - gap) <= 1e-9:
            return f"reported gap {report['gap']!r} != |solver - oracle| {gap!r}"
        return None

    def _cli_reduce_bmc(self, argv, report):
        bmc = self.load(argv[1])
        best = max_coverage(bmc)
        yes = "YES" if best >= bmc["L"] else "NO"
        total = float(sum(e["weight"] for e in bmc["elements"]))
        if not close(report["coverage"]["weight"], best):
            return f"coverage weight {report['coverage']['weight']!r}, brute force {best!r}"
        if not close(report["removal"]["decrease"], best):
            return f"removal decrease {report['removal']['decrease']!r}, brute-force coverage {best!r}"
        if not close(report["reduction"]["baseline_shapley"], total):
            return f"baseline {report['reduction']['baseline_shapley']!r}, total weight {total!r}"
        if (report["coverage"]["answer"], report["removal"]["answer"], report["agree"]) != (yes, yes, True):
            return f"answers {report['coverage']['answer']}/{report['removal']['answer']}, expected {yes}"
        return None

    def _cli_no_benefit(self, argv, report):
        inst = self.instance(argv[1])
        x = int(argv[argv.index("--target") + 1])
        trials = int(argv[argv.index("--trials") + 1])
        base = inst.shapley([1.0] * inst.n, x)
        if report["passed"] is not True or report["trials"] != trials or report["counterexample"] is not None:
            return f"no-benefit check failed or miscounted: {report}"
        return None if close(report["baseline"], base) else f"baseline {report['baseline']!r}, reference {base!r}"

    def _cli_no_benefit_counterexample(self, argv, report):
        """nc2 on the path 1-2-3 with k = 2: removals drop Sh(1) from 7/6 to 1."""
        inst = self.instance(argv[1])
        if report["passed"] is not False or not report["counterexample"]:
            return f"documented counterexample not reported: {report}"
        p = [1.0] * inst.n
        for j in report["counterexample"]:
            p[j - 1] = 0.0
        value = inst.shapley(p, 1)
        if not (close(report["baseline"], 7 / 6) and close(report["counterexample_value"], value)
                and close(value, 1.0)):
            return f"counterexample {report} does not drop Sh(1) from 7/6 to 1 (reference {value!r})"
        return None
