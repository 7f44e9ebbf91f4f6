"""Benchmark worker: one fresh interpreter that imports ``reliattack`` from the
checkout, builds every game of the workload from its JSON file, prints
``ready``, and then (unless ``--mode setup``) runs whole rounds of the
workload's operations in-process.

Run from the work directory that ``gen.py`` filled, with ``src`` on
``PYTHONPATH``; ``run.py`` does this.  Round 1 is the checked round: its
outputs go to ``outputs.json`` and it fills the package's caches, so it
is not timed.  ``--mode run`` then times whole rounds (see :func:`timed_rounds`);
``--mode trace`` alternates traced and untraced rounds (see ``tracing.py``)
and writes the last traced round's spans to ``spans.json``.  Every output
is reduced to a digest as soon as it is produced, so the worker's peak
memory is the program's.  The result goes to ``--out`` as JSON: round
times, a digest of every round's outputs, peak memory and, when tracing,
the spans summed per layer metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import warnings
from time import perf_counter

from tracing import Tracer

ATTACK_SPANS = {
    "greedy_fractional_attack": "attacks.greedy",
    "cycle_fractional_attack": "attacks.cycle",
    "credit_knapsack_attack": "attacks.knapsack",
    "removal_attack": "attacks.removal",
    "removal_no_benefit_check": "attacks.removal",
    "fo_removal_exhaustive": "attacks.removal",
    "bmc_reduce": "attacks.bmc",
    "bmc_solve_exact": "attacks.bmc",
}


def load(name: str):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def plan_dict(plan) -> dict:
    return {
        "total_cost": plan.total_cost,
        "achieved": plan.achieved,
        "profile": list(plan.profile.values),
    }


class Library:
    """The package's modules, looked up by attribute at every call so that a
    tracer's wrappers take effect."""

    def __init__(self):
        import reliattack
        import reliattack.cli

        self.games = reliattack.games
        self.reliability = reliattack.reliability
        self.shapley = reliattack.shapley
        self.attacks = reliattack.attacks
        self.oracle = reliattack.oracle
        self.cli = reliattack.cli


def problem_from_request(lib: Library, games: dict, req: dict):
    cm = req["cost_model"]
    costs = lib.attacks.CostModel(tuple(cm["p_star"]), tuple(cm["L"]), tuple(cm["R"]), tuple(cm["c"]))
    return lib.attacks.AttackProblem(games[req["game"]], req["target"], req["budget"], costs)


def build(lib: Library, manifest: dict) -> list:
    """Set-up: parse every game with ``game_from_json`` and prepare the round's
    operations as closures over the parsed inputs."""
    games = {f: lib.games.game_from_json(load(f)) for f in manifest["games"]}
    return [_make_op(lib, games, op) for op in manifest["ops"]]


def _make_op(lib: Library, games: dict, op: dict):
    if "argv" in op:
        argv = list(op["argv"])

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(list(argv))
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return run_cli
    kind = op["op"]
    if kind in ("vector", "gradient", "definitional", "reliability"):
        game = games[op["game"]]
        prof = lib.reliability.ReliabilityProfile(tuple(load(op["profile"])["p"]))
        if kind == "vector":
            return lambda: list(lib.shapley.shapley_vector_closed(game, prof))
        if kind == "gradient":
            return lambda: [lib.shapley.shapley_gradient_nc1(game.graph, prof, x) for x in op["players"]]
        if kind == "definitional":
            return lambda: list(lib.shapley.shapley_definitional(game, prof))
        coalition = list(op["coalition"])
        return lambda: lib.reliability.reliability_value(game, prof, coalition)
    if kind == "oracle":
        problem = problem_from_request(lib, games, load(op["request"]))
        cfg = load(op["config"])
        solver = {
            "greedy": "greedy_fractional_attack",
            "cycle": "cycle_fractional_attack",
            "knapsack": "credit_knapsack_attack",
        }[op["solver"]]

        def run_oracle():
            plan = getattr(lib.attacks, solver)(problem)
            ref = lib.oracle.fractional_oracle(problem, lib.oracle.OracleConfig(**cfg))
            return {"solver": plan_dict(plan), "oracle": plan_dict(ref)}

        return run_oracle
    if kind == "knapsack_lp":
        items = load(op["items"])
        return lambda: lib.oracle.fractional_knapsack_optimum(
            items["values"], items["weights"], items["capacity"])
    raise ValueError(f"unknown operation {kind!r}")


def install_tracer(lib: Library) -> Tracer:
    tr = Tracer()
    build_name = lambda data, *a, **k: f"games.build.{data.get('variant')}"
    vector_name = lambda game, *a, **k: f"shapley.vector.{game.variant}"
    for owner in (lib.games, lib.cli):
        tr.wrap(owner, "game_from_json", build_name)
    for owner in (lib.shapley, lib.cli):
        tr.wrap(owner, "shapley_vector_closed", vector_name)
    for owner in (lib.attacks, lib.cli):
        tr.wrap(owner, "shapley_closed", "shapley.closed")
    tr.wrap(lib.attacks, "shapley_cycle_closed", "shapley.closed")
    tr.wrap(lib.shapley, "shapley_gradient_nc1", "shapley.gradient")
    tr.wrap(lib.shapley, "shapley_definitional", "shapley.definitional")
    tr.wrap(lib.reliability, "reliability_value", "reliability.value")
    for attr, label in ATTACK_SPANS.items():
        for owner in (lib.attacks, lib.cli):
            if hasattr(owner, attr):
                tr.wrap(owner, attr, label)
    for owner in (lib.oracle, lib.cli):
        tr.wrap(owner, "fractional_oracle", "oracle.fractional")
    tr.wrap(lib.oracle, "fractional_knapsack_optimum", "oracle.knapsack_lp")
    tr.wrap(lib.cli, "main", lambda argv=None: f"cli.main.{argv[0]}")
    for cls in vars(lib.games).values():
        if isinstance(cls, type) and "value_mask" in vars(cls) and cls is not lib.games.Game:
            tr.count(cls, "value_mask", "games.value_mask")
    return tr


def metric_of(span: str) -> str:
    layer, _, rest = span.partition(".")
    if layer == "games":
        return "games.build_s." + rest.split(".", 1)[1]
    if layer == "cli":
        return "cli.request_s." + rest.split(".", 1)[1]
    if span.startswith("shapley.vector."):
        return "shapley.vector_s." + rest.split(".", 1)[1]
    return span + "_s"


def layer_metrics(tr: Tracer) -> dict:
    total, selfs = tr.totals(metric_of)
    out = dict(total)
    out["games.value_mask_calls"] = tr.counts["games.value_mask"]
    out["shapley.closed_calls"] = sum(1 for s in tr.spans if s[0] == "shapley.closed")
    out["attacks.self_s"] = sum(v for k, v in selfs.items() if k.startswith("attacks."))
    out["oracle.fractional_self_s"] = selfs["oracle.fractional_s"]
    out["cli.main_self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
    return out


_ENCODER = json.JSONEncoder(sort_keys=True)


def digest(output) -> str:
    """SHA-1 of the output's JSON form, encoded piece by piece so that no
    copy of a large output is built."""
    if isinstance(output, dict) and "stdout" in output:
        output = [output["code"], output["stdout"]]
    h = hashlib.sha1()
    for chunk in _ENCODER.iterencode(output):
        h.update(chunk.encode())
    return h.hexdigest()


def run_round(ops, record=None) -> tuple[list[float], list[str]]:
    """Run every operation once; returns the latency and the digest of each
    operation's output.  An output is dropped as soon as it is digested and,
    if ``record`` (an open file) is given, written there as an element of a
    JSON list."""
    latencies, keys = [], []
    for i, op in enumerate(ops):
        t = perf_counter()
        try:
            out = op()
        except Exception as exc:  # a crashing operation is reported, and fails its check
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(perf_counter() - t)
        keys.append(digest(out))
        if record is not None:
            record.write("," if i else "[")
            json.dump(out, record)
        del out
    if record is not None:
        record.write("]")
    return latencies, keys


def timed_rounds(round_fn, first: list[float], seconds: float, deadline: float,
                 first_timed: bool = False) -> dict:
    """Time whole rounds after round 1, whose latencies are ``first``.

    Round 1 is timed too if ``first_timed``: when every operation starts a
    fresh interpreter, round 1 starts from the same state as every later
    round.  Rounds run until ``seconds`` of timed rounds have passed, at
    least one; a round starts only if it should end by
    ``deadline`` (``perf_counter`` time), judged by the length of the round
    before it.  ``round_fn()`` returns a round's latencies and digests.  If
    no timed round fits, round 1 is reported and the result is marked
    ``truncated``."""
    res = {"round_s": [], "op_s": [], "digests": []}
    last, t1 = sum(first), perf_counter()
    if first_timed:
        t1 -= last
        res["round_s"].append(last)
        res["op_s"].append(first)
    while perf_counter() + last <= deadline and (not res["round_s"] or perf_counter() - t1 < seconds):
        latencies, keys = round_fn()
        last = sum(latencies)
        res["round_s"].append(last)
        res["op_s"].append(latencies)
        res["digests"].append(keys)
    res["truncated"] = not res["round_s"]
    if res["truncated"]:
        res.update(round_s=[sum(first)], op_s=[list(first)])
    return res


def main() -> int:
    t0 = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=0.0, help="seconds from start to the last round's end")
    ap.add_argument("--out")
    args = ap.parse_args()
    deadline = t0 + args.budget
    warnings.simplefilter("ignore")
    manifest = load("manifest.json")

    tracer = None
    lib = Library()
    if args.mode == "trace":
        tracer = install_tracer(lib)
    ops = build(lib, manifest)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if tracer is not None:
        setup_layers = {k: v for k, v in layer_metrics(tracer).items() if k.startswith("games.build_s.")}
        tracer.uninstall()

    with open("outputs.json", "w", encoding="utf-8") as fh:
        first, keys = run_round(ops, fh)
    if tracer is None:
        result = timed_rounds(lambda: run_round(ops), first, args.seconds, deadline)
        result["digests"].insert(0, keys)
    else:
        # At least one traced round; each is followed by an untraced one if
        # that fits, else the overhead is taken against round 1.
        result = {"setup_layers": setup_layers, "digests": [keys]}
        traced, untraced, per_round = [], [], []
        last, t1 = sum(first), perf_counter()
        while not traced or (perf_counter() - t1 < args.seconds and perf_counter() + last <= deadline):
            tracer = install_tracer(lib)
            latencies, keys = run_round(ops)
            tracer.uninstall()
            last = sum(latencies)
            traced.append(last)
            per_round.append(layer_metrics(tracer))
            result["digests"].append(keys)
            if perf_counter() + last > deadline:
                break
            latencies, keys = run_round(ops)
            untraced.append(sum(latencies))
            result["digests"].append(keys)
        names = sorted(set().union(*per_round))
        result["layers"] = {k: statistics.median(r.get(k, 0) for r in per_round) for k in names}
        tracer.write("spans.json")  # the last traced round
        result["overhead_s"] = statistics.median(traced) - statistics.median(untraced or [sum(first)])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
