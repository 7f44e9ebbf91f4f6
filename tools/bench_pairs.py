"""Run alternating parent/change pairs of the benchmark and record them.

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME --seeds 101 102 ... \\
        [--traced-seeds 201 202 ...] [--traced-workloads W ...]

PARENT and CHANGE are git revisions of this repository.  For every seed and
workload, both sides run ``perfbench/run.py`` once, back to back: odd seeds
run the parent first, even seeds the change.  Every run starts from a fresh
``git archive`` tree of its side's commit in a temporary directory, so
neither side sees the working tree or the other's leftovers.  The seeds
give the end-to-end runs of every workload (``--trace 0``, for the
``run_seconds`` of ``BENCHMARK.json``); the traced seeds give the per-layer
runs (``--trace 1``, 5 s) of the traced workloads, all of them unless given.
A run that exits nonzero or outlasts 15 minutes is recorded with an error.

The record goes to ``BENCH_<label>.json`` at the root of the repository:
the commits, commands, seeds, order and machine, every run's result, and
per workload and metric each side's quartiles and median, the change of
the median in percent and the number of pairs in which the change read
lower.  Each end-to-end metric of the untraced runs also carries its
``bound`` from ``BENCHMARK.json`` and ``within_bound``: whether the
change's median is no worse than the parent's median times (1 + bound) in
the metric's ``better`` direction, and ``gain_shown``: whether the change
reads better in at least 9 of 10 pairs, ties counting for neither, and its
median is better than the parent's by more than the parent's Q3 - Q1.
``what``, ``claim`` and ``notes`` are left empty for the reader's account
of the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402  (the benchmark's own modules)

SIDES = ("parent", "change")
TRACED_SECONDS = 5.0


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def _run(archive: bytes, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in a fresh tree unpacked from ``archive``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=900)
        except subprocess.TimeoutExpired:
            return {"elapsed_s": round(perf_counter() - t0, 1), "result": None, "error": "timeout"}
        elapsed = round(perf_counter() - t0, 1)
    if proc.returncode != 0:
        return {"elapsed_s": elapsed, "result": None, "error": proc.stderr.strip()[-2000:]}
    return {"elapsed_s": elapsed, "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def _pairs(archives: dict, workloads, seeds, seconds: float, trace: int) -> list[dict]:
    runs = []
    for seed in seeds:
        for workload in workloads:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                run = {"workload": workload, "seed": seed, "side": side, "trace": trace}
                run.update(_run(archives[side], workload, seed, seconds, trace))
                runs.append(run)
                result = run["result"] or {}
                print(f"{workload} seed {seed} {side}: {run['elapsed_s']} s, "
                      f"correct {result.get('correct')}", file=sys.stderr)
    return runs


def _quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, interpolated linearly between the sorted values."""
    ordered = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        out.append(round(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), 6))
    return out


def summarize(runs: list[dict], end_to_end: dict[str, dict]) -> dict:
    """Per workload: correctness, operation counts and, per metric, both
    sides' quartiles over the pairs in which both sides produced it; for a
    metric named in ``end_to_end`` (its ``BENCHMARK.json`` entry by name),
    also its bound, whether the change's median keeps within it and whether
    the runs show a gain by the claim rule."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        results = {side: {run["seed"]: run["result"] for run in mine
                          if run["side"] == side and run["result"]} for side in SIDES}
        out = summary[workload] = {
            "all_correct": all(run["result"] and run["result"]["correct"] for run in mine),
            **{f"{count}_ops": {side: sum(r[count] for r in results[side].values())
                                for side in SIDES} for count in ("failed", "attempted")},
        }
        seeds = [seed for seed in results["parent"] if seed in results["change"]]
        metrics = dict.fromkeys(m for seed in seeds for m in results["parent"][seed]["metrics"])
        for metric in metrics:
            pairs = [
                (results["parent"][seed]["metrics"][metric]["value"],
                 results["change"][seed]["metrics"][metric]["value"])
                for seed in seeds if metric in results["change"][seed]["metrics"]
            ]
            if not pairs:
                continue
            parent, change = (_quartiles([pair[i] for pair in pairs]) for i in (0, 1))
            out[metric] = {
                "parent_q1_median_q3": parent,
                "change_q1_median_q3": change,
                "median_change_pct": round(100.0 * (change[1] / parent[1] - 1.0), 2)
                if parent[1] else None,
                "pairs_change_lower": sum(c < p for p, c in pairs),
                "pairs": len(pairs),
            }
            spec = end_to_end.get(metric)
            if spec:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                out[metric]["bound"] = spec["bound"]
                out[metric]["within_bound"] = (
                    sign * change[1] <= sign * parent[1] * (1.0 + sign * spec["bound"])
                )
                better = sum(sign * c < sign * p for p, c in pairs)
                out[metric]["gain_shown"] = (
                    10 * better >= 9 * len(pairs)
                    and sign * (parent[1] - change[1]) > parent[2] - parent[0]
                )
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--traced-workloads", nargs="+", choices=gen.WORKLOADS,
                    default=list(gen.WORKLOADS))
    args = ap.parse_args()
    seconds = float(bench["run_seconds"])

    commits = {side: _git("rev-parse", rev).decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    archives = {side: _git("archive", commits[side]) for side in SIDES}
    runs = _pairs(archives, gen.WORKLOADS, args.seeds, seconds, 0)
    traced = _pairs(archives, args.traced_workloads, args.traced_seeds, TRACED_SECONDS, 1)

    def command(workloads, seconds, trace):
        names = workloads[0] if len(workloads) == 1 else f"<{'|'.join(workloads)}>"
        return " ".join(bench["command"]) + (
            f" --workload {names} --seed <seed> --seconds {seconds:g} --trace {trace}"
        )

    record = {
        "what": None,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": command(gen.WORKLOADS, seconds, 0),
        "traced_command": traced and command(args.traced_workloads, TRACED_SECONDS, 1) or None,
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "order": "alternating: odd seeds run parent first, even seeds run change first; per seed "
                 "the workloads one after the other, both sides of a workload back to back; each "
                 "side runs from a fresh git archive of its commit",
        "machine": f"{platform.system()} {platform.machine()}, "
                   f"{len(os.sched_getaffinity(0))} CPUs available, no CPU pinning; "
                   f"Python {platform.python_version()}, numpy {metadata.version('numpy')}",
        "claim": None,
        "notes": None,
        "summary": summarize(runs, {metric["name"]: metric for metric in bench["end_to_end"]}),
        "traced_summary": summarize(traced, {}),
        "runs": runs,
        "traced_runs": traced,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(path, file=sys.stderr)
    summaries = (*record["summary"].values(), *record["traced_summary"].values())
    return 0 if all(s["all_correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
