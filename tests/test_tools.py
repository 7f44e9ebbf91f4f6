"""The repository's tools: ``tools/bench_pairs.py`` summarizing synthetic runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
}


def runs(parent, change, metric="wall_s"):
    """One untraced run per side and seed, seeds 1.., reading ``metric``."""
    out = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", p), ("change", c)):
            result = {"correct": True, "failed": 0, "attempted": 4,
                      "metrics": {metric: {"value": value, "unit": "s"}}}
            out.append({"workload": "w", "seed": seed, "side": side, "trace": 0,
                        "result": result})
    return out


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]  # Q3 - Q1 = 0.2


def summary(bench_pairs, parent, change, metric="wall_s"):
    return bench_pairs.summarize(runs(parent, change, metric), END_TO_END)["w"][metric]


class TestBenchPairsSummary:
    def test_quartiles_counts_and_bound(self, bench_pairs):
        change = [v - 1.0 for v in PARENT]
        out = summary(bench_pairs, PARENT, change)
        assert out["parent_q1_median_q3"] == [9.9, 10.0, 10.1]
        assert out["change_q1_median_q3"] == [8.9, 9.0, 9.1]
        assert out["median_change_pct"] == -10.0
        assert (out["pairs_change_lower"], out["pairs"]) == (10, 10)
        assert (out["bound"], out["within_bound"]) == (0.25, True)
        assert out["gain_shown"] is True

    def test_nine_of_ten_pairs_suffice(self, bench_pairs):
        change = [v - 1.0 for v in PARENT[:9]] + [PARENT[9]]  # the tie counts for neither
        assert summary(bench_pairs, PARENT, change)["gain_shown"] is True

    def test_eight_of_ten_pairs_show_no_gain(self, bench_pairs):
        change = [v - 1.0 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]]
        out = summary(bench_pairs, PARENT, change)
        assert out["pairs_change_lower"] == 8
        assert out["gain_shown"] is False

    def test_median_inside_the_parents_spread_shows_no_gain(self, bench_pairs):
        # lower in every pair, but by 0.1 against the parent's Q3 - Q1 of 0.2
        change = [v - 0.1 for v in PARENT]
        out = summary(bench_pairs, PARENT, change)
        assert out["pairs_change_lower"] == 10
        assert out["gain_shown"] is False

    def test_higher_is_better(self, bench_pairs):
        higher = summary(bench_pairs, PARENT, [v + 1.0 for v in PARENT], "ops_per_s")
        lower = summary(bench_pairs, PARENT, [v - 1.0 for v in PARENT], "ops_per_s")
        assert (higher["gain_shown"], higher["within_bound"]) == (True, True)
        assert lower["gain_shown"] is False

    def test_worse_beyond_the_bound(self, bench_pairs):
        out = summary(bench_pairs, PARENT, [v * 1.3 for v in PARENT])
        assert (out["within_bound"], out["gain_shown"]) == (False, False)

    def test_per_layer_metrics_carry_no_claim(self, bench_pairs):
        out = bench_pairs.summarize(runs(PARENT, PARENT, "shapley.gradient_s"), END_TO_END)
        assert "gain_shown" not in out["w"]["shapley.gradient_s"]
        assert out["w"]["all_correct"] is True
        assert out["w"]["failed_ops"] == {"parent": 0, "change": 0}


class TestBenchPairsMachine:
    def test_records_whether_runs_write_bytecode(self, bench_pairs, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        assert bench_pairs.machine().endswith(
            "; no bytecode written (PYTHONDONTWRITEBYTECODE set)"
        )
        # Python reads an empty value as unset
        for unset in (lambda: monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", ""),
                      lambda: monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")):
            unset()
            assert bench_pairs.machine().endswith("; bytecode written")
