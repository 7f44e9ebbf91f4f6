"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed (``gen.py``), runs them against ``src/reliattack`` without installing
it, checks every output independently (``checks.py``) and prints one JSON
object as the last line of stdout:

* ``--trace 0``: the end-to-end metrics, measured with tracing off;
* ``--trace 1``: the per-layer metrics of a separate traced run.

Load is one closed-loop client: one operation at a time, the next one only
after the previous one finished.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402  (benchmark modules live next to this file)
from checks import Checker  # noqa: E402
from worker import digest, timed_rounds  # noqa: E402

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
TAIL_S = 40.0  # kept free after the rounds for the remaining set-ups and the checks

PER_LAYER = (
    [f"games.build_s.{v}" for v in ("nc1", "nc2", "nc3", "fc", "fo")]
    + ["games.value_mask_calls", "reliability.value_s"]
    + [f"shapley.vector_s.{v}" for v in ("nc1", "nc2", "nc3", "fc", "fo")]
    + ["shapley.gradient_s", "shapley.closed_calls", "shapley.closed_s", "shapley.definitional_s"]
    + [f"attacks.{a}_s" for a in ("greedy", "cycle", "knapsack", "removal", "bmc", "self")]
    + ["oracle.fractional_s", "oracle.fractional_self_s", "oracle.knapsack_lp_s", "cli.import_s"]
    + [f"cli.request_s.{c}" for c in ("shapley", "attack", "oracle-check", "reduce-bmc", "no-benefit")]
    + ["cli.main_self_s", "trace.overhead_s"]
)


class BenchError(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t0 = perf_counter()
        self.deadline = self.t0 + RUN_LIMIT_S - TAIL_S  # for the end of the last round
        self.workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def left(self) -> float:
        left = RUN_LIMIT_S - (perf_counter() - self.t0)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left

    # -- child processes -----------------------------------------------------------

    def worker(self, mode: str, out: str | None = None) -> float:
        """Start a worker and return the seconds from spawn until it has
        imported the package and built every game; wait for it to finish."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--seconds", str(self.seconds), "--budget", str(self.deadline - perf_counter())]
        if out:
            cmd += ["--out", out]
        with open(os.path.join(self.workdir, f"worker-{mode}.err"), "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                ready, _, _ = select.select([proc.stdout], [], [], self.left())
                line = proc.stdout.readline() if ready else ""
                setup = perf_counter() - t0
                if line.strip() != "ready":
                    raise BenchError(f"worker ({mode}) did not get ready: {self._tail(err.name)}")
                code = proc.wait(timeout=self.left())
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker ({mode}) exited {code}: {self._tail(err.name)}")
        return setup

    @staticmethod
    def _tail(path: str) -> str:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def timed_subprocess(self, args: list[str]) -> tuple[float, dict]:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=self.left())
        elapsed = perf_counter() - t0
        return elapsed, {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def cli_round(self, ops: list[dict]) -> tuple[list[float], list[dict]]:
        """One round of CLI requests, each spawned as ``python -m reliattack.cli``."""
        runs = [self.timed_subprocess(["-m", "reliattack.cli", *op["argv"]]) for op in ops]
        return [latency for latency, _ in runs], [out for _, out in runs]

    def cli_rounds(self, ops: list[dict]) -> dict:
        """Round 1 is checked and timed: every request starts a fresh
        interpreter, so it starts from the same state as any later round."""
        first, outputs = self.cli_round(ops)

        def round_fn():
            latencies, outs = self.cli_round(ops)
            return latencies, [digest(o) for o in outs]

        res = timed_rounds(round_fn, first, self.seconds, self.deadline, first_timed=True)
        res["digests"].insert(0, [digest(o) for o in outputs])
        res["outputs"] = outputs
        return res

    # -- the run -------------------------------------------------------------------

    def execute(self) -> dict:
        if not os.path.isfile(os.path.join(SRC, "reliattack", "__init__.py")):
            raise BenchError(f"no package at {SRC}/reliattack; run from the root of a checkout")
        os.makedirs(self.workdir)
        manifest = gen.generate(self.workload, self.seed, self.workdir)
        ops = manifest["ops"]
        out_file = os.path.join(self.workdir, "result.json")
        metrics: dict[str, tuple[float, str]] = {}
        if self.trace:
            self.worker("trace", out_file)
            res = self._load(out_file)
            os.replace(os.path.join(self.workdir, "spans.json"),
                       os.path.join(HERE, ".work", f"spans-{self.workload}-{self.seed}.json"))
            imports = [self.timed_subprocess(["-c", "import reliattack.cli"])[0] for _ in range(3)]
            layers = {**res["layers"], **res["setup_layers"]}
            layers["cli.import_s"] = statistics.median(imports)
            layers["trace.overhead_s"] = res["overhead_s"]
            for name in PER_LAYER:
                unit = "count" if name.endswith("_calls") else "s"
                metrics[name] = (layers.get(name, 0), unit)
        else:
            if self.workload == "cli-requests":
                res = self.cli_rounds(ops)
                peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
                setups = [self.worker("setup") for _ in range(SETUP_REPEATS)]
            else:
                setups = [self.worker("run", out_file)]
                setups += [self.worker("setup") for _ in range(SETUP_REPEATS - 1)]
                res = self._load(out_file)
                peak = res["maxrss_mb"]
            if res["truncated"]:
                print("truncated: no timed round fitted in the run; wall_s and request_p50_s "
                      "are those of round 1", file=sys.stderr)
            # Means over the timed rounds: the machine's speed drifts over a
            # few seconds, and a mean over the whole run evens that out best.
            op_means = [statistics.fmean(op) for op in zip(*res["op_s"])]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.fmean(res["round_s"]), "s"),
                "request_p50_s": (statistics.median(op_means), "s"),
                "peak_rss_mb": (peak, "MB"),
            }
        if "outputs" not in res:
            res["outputs"] = self._load(os.path.join(self.workdir, "outputs.json"))
        attempted, failed, correct = self._verify(ops, res["outputs"], res["digests"])
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    @staticmethod
    def _load(path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def _verify(self, ops, first_outputs, rounds) -> tuple[int, int, bool]:
        """Check the first round's outputs against the references; a later
        round's operation passes only if its output equals the first round's.
        ``correct`` is false when an operation fails that is not one of the
        malformed requests the program is known to accept."""
        checker = Checker(self.workdir)
        reasons = [checker.check(op, out) for op, out in zip(ops, first_outputs)]
        failed, unexpected = 0, False
        for r, keys in enumerate(rounds):
            for i, op in enumerate(ops):
                reason = reasons[i] or (None if keys[i] == rounds[0][i] else "output differs from round 1")
                if reason:
                    failed += 1
                    unexpected |= op.get("check") != "malformed"
                    if r == 0 or not reasons[i]:
                        print(f"FAILED op {i} ({_label(op)}), round {r + 1}: {reason}", file=sys.stderr)
        return len(rounds) * len(ops), failed, not unexpected


def _label(op: dict) -> str:
    return " ".join(op["argv"]) if "argv" in op else op["op"] + ":" + str(op.get("label", op.get("game", "")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
