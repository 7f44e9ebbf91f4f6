"""Command-line front end: parse game/attack JSON, run the library, emit
deterministic reports.

Exit codes: 0 success, 1 malformed input, 2 resource cap exceeded,
3 solver/oracle gap beyond tolerance (oracle-check only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any

from .attacks import (
    AttackPlan,
    AttackProblem,
    CostModel,
    bmc_reduce,
    bmc_solve_exact,
    fractional_attack,
    pairwise_exempt_set,
    removal_attack,
    removal_no_benefit_check,
)
from .errors import DomainError, ResourceLimitError
from .games import (
    FullObligationGame, Game, _as_finite, _as_int, _as_list, _as_player, game_from_json,
)
from .oracle import OracleConfig, fractional_oracle
from .reliability import ReliabilityProfile
from .shapley import shapley_closed, shapley_vector_closed

ORACLE_CAP_ENV = "RELIATTACK_ORACLE_CAP"


def _round_floats(obj: Any) -> Any:
    """Fix every float to 12 significant digits so reports are byte-stable."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, fmt: str) -> None:
    report = _round_floats(report)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if fmt == "json":
        print(text)
        return
    for line in _table_lines(report, ""):
        print(line)


def _table_lines(obj: Any, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _table_lines(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    else:
        label = prefix[:-1]
        if isinstance(obj, list):
            yield f"{label}: {json.dumps(obj, sort_keys=True)}"
        else:
            yield f"{label}: {obj}"


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in {path}: {exc}") from None


def _load_game(spec: Any) -> Game:
    if isinstance(spec, str):
        spec = _load_json(spec)
    if not isinstance(spec, dict):
        raise DomainError("field 'game' must be a file path or an inline game object")
    return game_from_json(spec)


def _require(data: dict, field: str, where: str) -> Any:
    if not isinstance(data, dict):
        raise DomainError(f"{where} must be an object, got {data!r}")
    if field not in data:
        raise DomainError(f"{where} missing field {field!r}")
    return data[field]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cost_model(data: dict) -> CostModel:
    return CostModel(*(
        tuple(_as_list(_require(data, name, "cost_model"), f"cost_model field {name!r}"))
        for name in ("p_star", "L", "R", "c")
    ))


def _profile_arg(path: str | None, n: int) -> ReliabilityProfile:
    if path is None:
        return ReliabilityProfile.ones(n)
    data = _load_json(path)
    values = _as_list(_require(data, "p", "profile file"), "profile file field 'p'")
    if len(values) != n:
        raise DomainError(f"profile file field 'p' has {len(values)} entries, expected {n}")
    entries = (_as_finite(v, f"profile entry p_{i}") for i, v in enumerate(values, 1))
    return ReliabilityProfile(tuple(entries))


def _attack_problem(request: dict) -> tuple[AttackProblem, str, bool]:
    game = _load_game(_require(request, "game", "attack request"))
    target = _as_int(_require(request, "target", "attack request"), "field 'target'")
    budget = _as_finite(_require(request, "budget", "attack request"), "field 'budget'")
    costs = _cost_model(_require(request, "cost_model", "attack request"))
    mode = _require(request, "mode", "attack request")
    if mode not in ("fractional", "removal"):
        raise DomainError("field 'mode' must be 'fractional' or 'removal'")
    exempt: frozenset[int] = frozenset()
    if request.get("pairwise_protect") is not None:
        protect = _as_int(request["pairwise_protect"], "field 'pairwise_protect'")
        exempt = pairwise_exempt_set(game, _as_player(protect, game.n, "field 'pairwise_protect'"))
    large_cutoff = request.get("assume_large_cutoff", False)
    if not isinstance(large_cutoff, bool):
        raise DomainError(f"field 'assume_large_cutoff' must be a boolean, got {large_cutoff!r}")
    return AttackProblem(game, target, budget, costs, exempt), mode, large_cutoff


def _plan_report(problem: AttackProblem, mode: str, plan: AttackPlan) -> dict:
    before = shapley_closed(problem.game, problem.costs.baseline_profile(), problem.target)
    report = {
        "mode": mode,
        "target": problem.target,
        "budget": problem.budget,
        "total_cost": plan.total_cost,
        "shapley_before": before,
        "shapley_after": plan.achieved,
        "targeting_order": list(plan.order),
    }
    if plan.profile is not None:
        report["profile"] = list(plan.profile.values)
    if plan.removed is not None:
        report["removed"] = sorted(plan.removed)
    if plan.note is not None:
        report["note"] = plan.note
    return report


def _cmd_shapley(args) -> int:
    game = _load_game(args.game)
    profile = _profile_arg(args.profile, game.n)
    report = {
        "variant": game.variant,
        "n": game.n,
        "profile": list(profile.values),
    }
    if args.player is not None:
        report["player"] = player = _as_player(args.player, game.n, "--player")
        report["value"] = shapley_closed(game, profile, player)
    else:
        report["values"] = list(shapley_vector_closed(game, profile))
    _emit(report, args.format)
    return 0


def _cmd_attack(args) -> int:
    request = _load_json(args.request)
    problem, mode, large_cutoff = _attack_problem(request)
    if mode == "fractional":
        plan = fractional_attack(problem, assume_large_cutoff=large_cutoff)
    else:
        plan = removal_attack(problem)
    _emit(_plan_report(problem, mode, plan), args.format)
    return 0


def _cmd_oracle_check(args) -> int:
    request = _load_json(args.request)
    problem, mode, large_cutoff = _attack_problem(request)
    if mode != "fractional":
        raise DomainError("oracle-check applies to fractional attack requests")
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise DomainError(f"oracle config {args.config} must be a JSON object, got {config!r}")
    fields = [f.name for f in dataclasses.fields(OracleConfig)]
    unknown = [key for key in config if key not in fields]
    if unknown:
        raise DomainError(
            f"oracle config {args.config} has unknown field {unknown[0]!r};"
            f" the fields are {', '.join(fields)}"
        )
    cfg = OracleConfig(**config)
    cap = os.environ.get(ORACLE_CAP_ENV, "6")
    if not cap.strip().isdecimal():
        raise DomainError(f"{ORACLE_CAP_ENV} must be a nonnegative integer, got {cap!r}")
    plan = fractional_attack(problem, assume_large_cutoff=large_cutoff)
    reference = fractional_oracle(problem, cfg, attackable_cap=int(cap))
    gap = abs(plan.achieved - reference.achieved)
    report = {
        "solver_value": plan.achieved,
        "oracle_value": reference.achieved,
        "gap": gap,
        "tolerance": cfg.tolerance,
        "within_tolerance": bool(gap <= cfg.tolerance),
    }
    _emit(report, args.format)
    return 0 if gap <= cfg.tolerance else 3


def _cmd_reduce_bmc(args) -> int:
    data = _load_json(args.bmc)
    elements = _as_list(_require(data, "elements", "bmc file"), "field 'elements'")
    weights = [_require(e, "weight", f"element {i}") for i, e in enumerate(elements, 1)]
    sets = []
    for j, s in enumerate(_as_list(data.get("sets", []), "field 'sets'"), 1):
        members = _as_list(_require(s, "members", f"set {j}"), f"members of set {j}")
        sets.append((members, _require(s, "cost", f"set {j}")))
    k = _require(data, "k", "bmc file")
    threshold = _require(data, "L", "bmc file")
    reduction = bmc_reduce(weights, sets, k, threshold)
    game = FullObligationGame(reduction.instance)
    baseline = shapley_closed(game, reduction.costs.baseline_profile(), reduction.target)
    plan = removal_attack(AttackProblem(game, reduction.target, reduction.budget, reduction.costs))
    decrease = baseline - plan.achieved
    chosen, coverage = bmc_solve_exact(weights, sets, k)
    removal_yes = decrease >= threshold - 1e-9
    coverage_yes = coverage >= threshold - 1e-9
    report = {
        "reduction": {
            "target": reduction.target,
            "n": reduction.instance.n,
            "budget": reduction.budget,
            "threshold": reduction.threshold,
            "baseline_shapley": baseline,
            "papers": [
                {"authors": sorted(a), "score": s}
                for a, s in reduction.instance.papers
            ],
            "removal_costs": list(reduction.costs.c),
        },
        "removal": {
            "removed": sorted(plan.removed),
            "decrease": decrease,
            "answer": "YES" if removal_yes else "NO",
        },
        "coverage": {
            "chosen_sets": list(chosen),
            "weight": coverage,
            "answer": "YES" if coverage_yes else "NO",
        },
        "agree": bool(removal_yes == coverage_yes),
    }
    _emit(report, args.format)
    return 0


def _cmd_no_benefit(args) -> int:
    game = _load_game(args.game)
    profile = _profile_arg(args.profile, game.n)
    target = _as_player(args.target, game.n, "--target")
    result = removal_no_benefit_check(game, target, args.trials, profile=profile, seed=args.seed)
    report = {
        "passed": result.passed,
        "trials": result.trials,
        "baseline": result.baseline,
        "counterexample": sorted(result.counterexample) if result.counterexample else None,
        "counterexample_value": result.counterexample_value,
    }
    _emit(report, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reliattack",
        description="Shapley values of reliability extensions and optimal budgeted attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("shapley", help="Shapley values of a game file")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--profile", help="reliability profile JSON file {'p': [...]}")
    p.add_argument("--player", type=int, help="report a single player")
    add_format(p)
    p.set_defaults(func=_cmd_shapley)

    p = sub.add_parser("attack", help="solve an attack request")
    p.add_argument("request", help="attack request JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("oracle-check", help="compare a solver against the oracle")
    p.add_argument("request", help="attack request JSON file")
    p.add_argument("--config", help="oracle config JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("reduce-bmc", help="budgeted max-coverage reduction round trip")
    p.add_argument("bmc", help="BMC instance JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_reduce_bmc)

    p = sub.add_parser("no-benefit", help="probe removal subsets for a forbidden decrease")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", help="baseline profile JSON file; default all ones")
    add_format(p)
    p.set_defaults(func=_cmd_no_benefit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
