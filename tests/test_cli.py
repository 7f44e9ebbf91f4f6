import json
import math
import os

import pytest

from reliattack.cli import _emit, main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


K3 = {"variant": "nc1", "n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
FC_GAME = {
    "variant": "fc",
    "n": 3,
    "papers": [
        {"authors": [1, 2], "score": 4.0},
        {"authors": [1, 3], "score": 3.0},
    ],
}
BMC = {
    "elements": [{"weight": 2}, {"weight": 1}],
    "sets": [{"members": [1], "cost": 1}, {"members": [1, 2], "cost": 2}],
    "k": 2,
    "L": 3,
}


def fc_request(tmp_path, **extra):
    request = {
        "game": FC_GAME,
        "target": 1,
        "budget": 0.5,
        "cost_model": {
            "p_star": [0.9, 0.5, 0.5],
            "L": [1.0, 1.0, 1.0],
            "R": [1.0, 2.0, 1.0],
            "c": [0.0, 0.0, 0.0],
        },
        "mode": "fractional",
    }
    request.update(extra)
    return write(tmp_path, "request.json", request)


class TestShapley:
    def test_k3_unreliability_free(self, tmp_path, capsys):
        game = write(tmp_path, "k3.json", K3)
        code, out, _ = run(capsys, "shapley", game)
        assert code == 0
        report = json.loads(out)
        assert report["values"] == [1.0, 1.0, 1.0]
        assert report["profile"] == [1.0, 1.0, 1.0]

    def test_single_player_with_profile(self, tmp_path, capsys):
        game = write(tmp_path, "k3.json", K3)
        profile = write(tmp_path, "p.json", {"p": [1.0, 0.5, 0.5]})
        code, out, _ = run(capsys, "shapley", game, "--profile", profile, "--player", "1")
        assert code == 0
        assert "value" in json.loads(out)

    def test_table_format(self, tmp_path, capsys):
        game = write(tmp_path, "k3.json", K3)
        code, out, _ = run(capsys, "shapley", game, "--format", "table")
        assert code == 0
        assert "values:" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "shapley", "/nonexistent.json")
        assert code == 1
        assert "not found" in err

    def test_malformed_game_names_field(self, tmp_path, capsys):
        game = write(tmp_path, "bad.json", {"variant": "nc2", "n": 3, "edges": [[1, 2]]})
        code, _, err = run(capsys, "shapley", game)
        assert code == 1
        assert "'k'" in err


class TestAttack:
    def test_fc_fixture_targets_best_ratio(self, tmp_path, capsys):
        code, out, _ = run(capsys, "attack", fc_request(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["targeting_order"] == [3]
        assert report["profile"][2] == 1.0
        assert report["shapley_after"] < report["shapley_before"]

    def test_pairwise_protection(self, tmp_path, capsys):
        code, out, _ = run(capsys, "attack", fc_request(tmp_path, pairwise_protect=2))
        assert code == 0
        report = json.loads(out)
        assert report["profile"][1] == 0.5  # coauthor of protected player untouched

    def test_removal_mode_on_fo(self, tmp_path, capsys):
        request = {
            "game": {
                "variant": "fo",
                "n": 3,
                "papers": [
                    {"authors": [1, 2], "score": 2.0},
                    {"authors": [1, 3], "score": 4.0},
                ],
            },
            "target": 1,
            "budget": 1.0,
            "cost_model": {
                "p_star": [1.0, 1.0, 1.0],
                "L": [1.0, 1.0, 1.0],
                "R": [1.0, 1.0, 1.0],
                "c": [0.0, 1.0, 1.0],
            },
            "mode": "removal",
        }
        code, out, _ = run(capsys, "attack", write(tmp_path, "rm.json", request))
        assert code == 0
        report = json.loads(out)
        assert report["removed"] == [3]
        assert report["shapley_after"] == pytest.approx(1.0)

    def test_unsupported_topology_points_to_the_oracle(self, tmp_path, capsys):
        request = {
            "game": {"variant": "nc1", "n": 5, "edges": [[i, i + 1] for i in range(1, 5)]},
            "target": 1,
            "budget": 0.5,
            "cost_model": {"p_star": [0.5] * 5, "L": [1.0] * 5, "R": [1.0] * 5, "c": [0.0] * 5},
            "mode": "fractional",
        }
        code, out, err = run(capsys, "attack", write(tmp_path, "req.json", request))
        assert code == 1 and out == ""
        assert "oracle-check" in err

    def test_bad_mode(self, tmp_path, capsys):
        code, _, err = run(capsys, "attack", fc_request(tmp_path, mode="sideways"))
        assert code == 1
        assert "mode" in err

    def test_missing_cost_field(self, tmp_path, capsys):
        request = {
            "game": K3,
            "target": 1,
            "budget": 1.0,
            "cost_model": {"p_star": [0.5, 0.5, 0.5], "L": [1, 1, 1], "R": [1, 1, 1]},
            "mode": "fractional",
        }
        code, _, err = run(capsys, "attack", write(tmp_path, "req.json", request))
        assert code == 1
        assert "'c'" in err


class TestOracleCheck:
    def test_agreement(self, tmp_path, capsys):
        request = {
            "game": K3,
            "target": 1,
            "budget": 0.3,
            "cost_model": {
                "p_star": [0.7, 0.8, 0.6],
                "L": [1.0, 1.0, 1.0],
                "R": [1.0, 1.0, 1.0],
                "c": [0.0, 0.0, 0.0],
            },
            "mode": "fractional",
        }
        cfg = write(tmp_path, "cfg.json", {"grid_resolution": 0.25})
        code, out, _ = run(
            capsys, "oracle-check", write(tmp_path, "req.json", request), "--config", cfg
        )
        assert code == 0
        report = json.loads(out)
        assert report["within_tolerance"] is True
        assert report["gap"] <= 1e-6

    def test_gap_beyond_tolerance_exits_3(self, tmp_path, capsys):
        request = {
            "game": K3,
            "target": 1,
            "budget": 0.35,
            "cost_model": {
                "p_star": [0.7, 0.62, 0.57],
                "L": [1.0, 1.0, 1.0],
                "R": [1.0, 1.0, 1.0],
                "c": [0.0, 0.0, 0.0],
            },
            "mode": "fractional",
        }
        cfg = write(tmp_path, "cfg.json", {"grid_resolution": 0.25, "tolerance": 1e-18})
        code, out, _ = run(
            capsys, "oracle-check", write(tmp_path, "req.json", request), "--config", cfg
        )
        assert code == 3
        assert json.loads(out)["within_tolerance"] is False

    def test_oracle_cap_env(self, tmp_path, capsys, monkeypatch):
        request = {
            "game": {"variant": "nc1", "n": 8,
                     "edges": [[u, v] for u in range(1, 9) for v in range(u + 1, 9)]},
            "target": 1,
            "budget": 0.5,
            "cost_model": {
                "p_star": [0.5] * 8,
                "L": [1.0] * 8,
                "R": [1.0] * 8,
                "c": [0.0] * 8,
            },
            "mode": "fractional",
        }
        path = write(tmp_path, "req.json", request)
        code, _, err = run(capsys, "oracle-check", path)
        assert code == 2  # seven attackable players exceed the default cap
        assert "cap" in err
        monkeypatch.setenv("RELIATTACK_ORACLE_CAP", "7")
        cfg = write(tmp_path, "cfg.json", {"grid_resolution": 0.25})
        code, out, _ = run(capsys, "oracle-check", path, "--config", cfg)
        assert code == 0

    def test_oracle_player_cap(self, tmp_path, capsys):
        request = {
            "game": {"variant": "nc1", "n": 17,
                     "edges": [[u, v] for u in range(1, 18) for v in range(u + 1, 18)]},
            "target": 1,
            "budget": 0.5,
            "cost_model": {"p_star": [0.5] * 17, "L": [1.0] * 17, "R": [1.0] * 17,
                           "c": [0.0] * 17},
            "mode": "fractional",
        }
        code, out, err = run(capsys, "oracle-check", write(tmp_path, "req.json", request))
        assert code == 2 and out == ""
        assert "cap (16)" in err

    # a bare int() named no variable, and a negative cap exited 2 as if exceeded
    @pytest.mark.parametrize("cap", ["abc", "2.5", "-1", ""])
    def test_malformed_oracle_cap_env(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("RELIATTACK_ORACLE_CAP", cap)
        cfg = write(tmp_path, "cfg.json", {"grid_resolution": 0.25})
        code, out, err = run(capsys, "oracle-check", fc_request(tmp_path), "--config", cfg)
        assert code == 1 and out == ""
        assert "RELIATTACK_ORACLE_CAP" in err


class TestReduceBmc:
    def test_fixture(self, tmp_path, capsys):
        code, out, _ = run(capsys, "reduce-bmc", write(tmp_path, "bmc.json", BMC))
        assert code == 0
        report = json.loads(out)
        assert report["removal"]["answer"] == "YES"
        assert report["coverage"]["answer"] == "YES"
        assert report["removal"]["decrease"] == pytest.approx(3.0)
        assert report["coverage"]["weight"] == pytest.approx(3.0)
        assert report["agree"] is True
        assert report["reduction"]["baseline_shapley"] == pytest.approx(3.0)


class TestNoBenefit:
    def test_passes_on_fc(self, tmp_path, capsys):
        game = write(tmp_path, "fc.json", FC_GAME)
        code, out, _ = run(capsys, "no-benefit", game, "--target", "1", "--trials", "30")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["counterexample"] is None

    def test_fo_rejected(self, tmp_path, capsys):
        game = write(tmp_path, "fo.json", {**FC_GAME, "variant": "fo"})
        code, _, err = run(capsys, "no-benefit", game, "--target", "1")
        assert code == 1
        assert "nc1/nc2/nc3/fc" in err


class TestDeterminism:
    @pytest.mark.parametrize("fixture", ["shapley", "attack", "reduce-bmc", "no-benefit"])
    def test_byte_identical_across_runs(self, tmp_path, capsys, fixture):
        if fixture == "shapley":
            argv = ["shapley", write(tmp_path, "g.json", K3)]
        elif fixture == "attack":
            argv = ["attack", fc_request(tmp_path)]
        elif fixture == "reduce-bmc":
            argv = ["reduce-bmc", write(tmp_path, "b.json", BMC)]
        else:
            argv = ["no-benefit", write(tmp_path, "g.json", FC_GAME), "--target", "1"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_floats_are_rounded_to_12_digits(self, tmp_path, capsys):
        game = write(
            tmp_path,
            "g.json",
            {"variant": "fo", "n": 3, "papers": [{"authors": [1, 2, 3], "score": 1.0}]},
        )
        profile = write(tmp_path, "p.json", {"p": [0.1, 0.2, 0.3]})
        code, out, _ = run(capsys, "shapley", game, "--profile", profile)
        assert code == 0
        for value in json.loads(out)["values"]:
            assert value == float(f"{value:.12g}")


def _costs(p_star, L=None, c=None):
    n = len(p_star)
    return {"p_star": p_star, "L": L or [1.0] * n, "R": [1.0] * n, "c": c or [0.0] * n}


NC2_PATH = {"variant": "nc2", "n": 3, "edges": [[1, 2], [2, 3]], "k": 2}
K4 = {"variant": "nc1", "n": 4, "edges": [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]}
FO_TWO_AUTHOR = {
    "variant": "fo",
    "n": 4,
    "papers": [
        {"authors": [1, 2], "score": 2.0},
        {"authors": [1, 3], "score": 3.0},
        {"authors": [1, 4], "score": 1.0},
    ],
}

# Each case's argv; an object item is written to a file and passed by path.
# Their stdout is pinned in ``cli_golden.json``.
GOLDEN = {
    "shapley-nc1": ["shapley", K4, "--profile", {"p": [0.9, 0.4, 0.7, 0.55]}],
    "shapley-nc2-table": [
        "shapley", NC2_PATH, "--profile", {"p": [0.9, 0.6, 0.8]}, "--format", "table",
    ],
    "shapley-nc3": [
        "shapley",
        {"variant": "nc3", "n": 4, "edges": [[1, 2, 0.1], [2, 3, 0.2], [3, 4, 0.3]], "d_cut": 0.6},
        "--profile",
        {"p": [0.8, 0.5, 0.9, 0.3]},
    ],
    "shapley-fc": ["shapley", FC_GAME, "--profile", {"p": [0.9, 0.4, 0.7]}],
    "shapley-fo": [
        "shapley",
        {"variant": "fo", "n": 4, "papers": [{"authors": [1, 2, 3], "score": 3.0},
                                             {"authors": [2, 4], "score": 1.5}]},
        "--profile",
        {"p": [0.6, 0.7, 0.8, 0.5]},
        "--player",
        "2",
    ],
    "attack-greedy": ["attack", {
        "game": K4, "target": 1, "budget": 0.6, "mode": "fractional",
        "cost_model": _costs([0.8, 0.5, 0.7, 0.6]),
    }],
    "attack-cycle": ["attack", {
        "game": {"variant": "nc1", "n": 5, "edges": [[i, i % 5 + 1] for i in range(1, 6)]},
        "target": 1, "budget": 0.7, "mode": "fractional",
        "cost_model": _costs([0.9, 0.6, 0.5, 0.8, 0.4]),
    }],
    "attack-knapsack": ["attack", {
        "game": FO_TWO_AUTHOR, "target": 1, "budget": 0.9, "mode": "fractional",
        "cost_model": _costs([0.9, 0.8, 0.7, 0.6], L=[1.0, 2.0, 1.0, 0.5]),
    }],
    "attack-removal": ["attack", {
        "game": {"variant": "nc2", "n": 5, "edges": [[1, 2], [2, 3], [3, 4], [2, 5]], "k": 2},
        "target": 1, "budget": 1.5, "mode": "removal",
        "cost_model": _costs([1.0, 0.9, 0.8, 1.0, 0.7], c=[0.0, 1.0, 0.5, 1.0, 0.5]),
    }],
    "no-benefit": ["no-benefit", NC2_PATH, "--target", "1", "--trials", "20", "--seed", "3"],
    "reduce-bmc": ["reduce-bmc", BMC],
}


class TestGoldenReports:
    """The exact stdout of small runs of every report, so that a change to
    any printed digit shows."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_stdout_matches_recorded_text(self, tmp_path, capsys, case):
        argv = [
            write(tmp_path, f"{i}.json", item) if isinstance(item, dict) else item
            for i, item in enumerate(GOLDEN[case])
        ]
        code, out, err = run(capsys, *argv)
        with open(os.path.join(os.path.dirname(__file__), "cli_golden.json")) as fh:
            expected = json.load(fh)[case]
        assert (code, err) == (0, "")
        assert out == expected


class TestThinAdapter:
    def test_shapley_report_rederives_from_library(self, tmp_path, capsys):
        from reliattack import game_from_json, shapley_vector_closed
        from reliattack.cli import _round_floats

        game_path = write(tmp_path, "g.json", FC_GAME)
        profile = write(tmp_path, "p.json", {"p": [0.9, 0.4, 0.7]})
        code, out, _ = run(capsys, "shapley", game_path, "--profile", profile)
        assert code == 0
        reported = json.loads(out)["values"]
        game = game_from_json(FC_GAME)
        expected = list(shapley_vector_closed(game, (0.9, 0.4, 0.7)))
        assert reported == _round_floats(expected)

    def test_attack_report_rederives_from_library(self, tmp_path, capsys):
        from reliattack import (
            AttackProblem,
            CostModel,
            credit_knapsack_attack,
            game_from_json,
        )
        from reliattack.cli import _round_floats

        code, out, _ = run(capsys, "attack", fc_request(tmp_path))
        assert code == 0
        report = json.loads(out)
        game = game_from_json(FC_GAME)
        costs = CostModel((0.9, 0.5, 0.5), (1.0,) * 3, (1.0, 2.0, 1.0), (0.0,) * 3)
        plan = credit_knapsack_attack(AttackProblem(game, 1, 0.5, costs))
        assert report["profile"] == _round_floats(list(plan.profile.values))
        assert report["shapley_after"] == _round_floats(plan.achieved)
        assert report["total_cost"] == _round_floats(plan.total_cost)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestMalformedInput:
    """Malformed input exits 1 with a message naming the field, instead of
    being truncated or producing NaN/Infinity or a vacuous pass."""

    # an integer beyond the float range must not escape as OverflowError
    @pytest.mark.parametrize(
        "budget",
        ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="10**400")],
    )
    def test_non_finite_budget(self, tmp_path, capsys, budget):
        path = fc_request(tmp_path)
        text = open(path).read().replace('"budget": 0.5', f'"budget": {budget}')
        assert budget in text
        (tmp_path / "request.json").write_text(text)
        code, out, err = run(capsys, "attack", path)
        assert code == 1 and out == ""
        assert "'budget'" in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"n": 3.7}, "'n'"),
            ({"n": True}, "'n'"),
            ({"edges": [[1.9, 2], [1, 3]]}, "edge"),
            ({"variant": "nc2", "k": 2.5}, "'k'"),
        ],
    )
    def test_non_integral_game_fields(self, tmp_path, capsys, change, field):
        game = write(tmp_path, "g.json", {**K3, **change})
        code, out, err = run(capsys, "shapley", game)
        assert code == 1 and out == ""
        assert field in err

    @pytest.mark.parametrize(
        "edges, d_cut, field",
        [
            ("[[1, 2, Infinity], [2, 3, 0.5]]", "Infinity", "weight"),
            ("[[1, 2, NaN], [2, 3, 0.5]]", "1.0", "weight"),
            ("[[1, 2, 1.0], [2, 3, 0.5]]", "Infinity", "'d_cut'"),
            ("[[1, 2, 1.0], [2, 3, 0.5]]", "-Infinity", "'d_cut'"),
            ("[[1, 2, 1.0], [2, 3, 0.5]]", "NaN", "'d_cut'"),
            ("[[1, 2, 1.0], [2, 3, 0.5]]", '"x"', "'d_cut'"),
            ("[[1, 2, true], [2, 3, 0.5]]", "1.0", "weight"),
        ],
    )
    def test_non_finite_nc3_fields(self, tmp_path, capsys, edges, d_cut, field):
        game = tmp_path / "nc3.json"
        game.write_text(f'{{"variant": "nc3", "n": 3, "edges": {edges}, "d_cut": {d_cut}}}')
        code, out, err = run(capsys, "shapley", str(game))
        assert code == 1 and out == ""
        assert field in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"k": True}, "budget k"),
            ({"k": math.inf}, "budget k"),
            ({"k": math.nan}, "budget k"),
            ({"L": math.nan}, "threshold L"),
            ({"elements": [{"weight": True}, {"weight": 1}]}, "weight of element 1"),
            ({"sets": [{"members": [True], "cost": 1}]}, "element of set 1"),
            ({"sets": [{"members": [1], "cost": math.inf}]}, "cost of set 1"),
        ],
    )
    def test_bmc_integer_fields(self, tmp_path, capsys, change, field):
        code, out, err = run(capsys, "reduce-bmc", write(tmp_path, "bmc.json", {**BMC, **change}))
        assert code == 1 and out == ""
        assert field in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"elements": {"weight": 1}}, "'elements'"),
            ({"elements": [5]}, "element 1"),
            ({"sets": [{"members": 1, "cost": 1}]}, "members of set 1"),
        ],
    )
    def test_bmc_array_fields(self, tmp_path, capsys, change, field):
        code, out, err = run(capsys, "reduce-bmc", write(tmp_path, "bmc.json", {**BMC, **change}))
        assert code == 1 and out == ""
        assert field in err

    @pytest.mark.parametrize(
        "game, field",
        [
            ({**K3, "edges": 5}, "'edges'"),
            ({**K3, "edges": [[1, 2], 5]}, "edge"),
            ({**FC_GAME, "papers": 5}, "'papers'"),
            ({**FC_GAME, "papers": [{"authors": 1, "score": 1.0}]}, "authors of paper 0"),
            ({**FC_GAME, "papers": [{"authors": [1, 2], "score": True}]}, "score of paper 0"),
            ({**FC_GAME, "papers": [{"authors": [True, 2], "score": 1.0}]}, "author set"),
            ({**FC_GAME, "papers": [{"authors": [1, True], "score": 1.0}]}, "author set"),
            ({**FC_GAME, "papers": [[1, 2]]}, "paper 0 must be an object"),
            ({**K3, "variant": ["nc1"]}, "field 'variant'"),
            (
                {**FC_GAME, "papers": [{"authors": [1], "score": 1.0}, {"authors": [], "score": 1.0}]},
                "paper 1 has an empty author set",
            ),
        ],
    )
    def test_game_fields(self, tmp_path, capsys, game, field):
        code, out, err = run(capsys, "shapley", write(tmp_path, "g.json", game))
        assert code == 1 and out == ""
        assert field in err

    @pytest.mark.parametrize("p, field", [([True, 0.5, 0.5], "p_1"), (5, "'p'")])
    def test_profile_fields(self, tmp_path, capsys, p, field):
        game = write(tmp_path, "k3.json", K3)
        profile = write(tmp_path, "p.json", {"p": p})
        code, out, err = run(capsys, "shapley", game, "--profile", profile)
        assert code == 1 and out == ""
        assert field in err

    def test_assume_large_cutoff_is_boolean(self, tmp_path, capsys):
        # a truthy string must not switch on the large-cutoff greedy
        game = {"variant": "nc3", "n": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]], "d_cut": 5.0}
        code, out, err = run(
            capsys, "attack", fc_request(tmp_path, game=game, assume_large_cutoff="no")
        )
        assert code == 1 and out == ""
        assert "'assume_large_cutoff'" in err

    @pytest.mark.parametrize(
        "vector, entry", [("p_star", "p*_2"), ("L", "L_2"), ("R", "R_2"), ("c", "c_2")]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    def test_non_finite_cost_model(self, tmp_path, capsys, vector, entry, bad):
        request = json.loads(open(fc_request(tmp_path, mode="removal")).read())
        request["game"]["variant"] = "fo"
        request["cost_model"][vector][1] = bad
        code, out, err = run(capsys, "attack", write(tmp_path, "request.json", request))
        assert code == 1 and out == ""
        assert entry in err

    @pytest.mark.parametrize("vector", ["L", "R", "c"])
    def test_cost_model_lengths(self, tmp_path, capsys, vector):
        request = json.loads(open(fc_request(tmp_path)).read())
        request["cost_model"][vector].append(1.0)
        code, out, err = run(capsys, "attack", write(tmp_path, "request.json", request))
        assert code == 1 and out == ""
        assert f"cost model vector {vector} has 4 entries, p* has 3" in err

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"swap_step": 1e-3}, "swap_step"),
            ({"tolerance": math.nan}, "tolerance"),
            ({"tolerance": math.inf}, "tolerance"),
            ({"max_refinements": True}, "max_refinements"),
            ({"max_refinements": 2.5}, "max_refinements"),
            ({"max_refinements": "10"}, "max_refinements"),
            ([{"grid_resolution": 0.25}], "cfg.json must be a JSON object"),
            (
                {"bogus": 1},
                "unknown field 'bogus'; the fields are"
                " grid_resolution, max_refinements, tolerance",
            ),
        ],
    )
    def test_oracle_config_fields(self, tmp_path, capsys, config, field):
        if isinstance(config, dict):
            config = {"grid_resolution": 0.25, **config}
        cfg = write(tmp_path, "cfg.json", config)
        code, out, err = run(capsys, "oracle-check", fc_request(tmp_path), "--config", cfg)
        assert code == 1 and out == ""
        assert field in err

    def test_swap_step_is_an_unknown_field(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {"grid_resolution": 0.25, "swap_step": 1e-3})
        code, out, err = run(capsys, "oracle-check", fc_request(tmp_path), "--config", cfg)
        assert (code, out) == (1, "")
        assert "unknown field 'swap_step'" in err

    def test_totals_past_the_float_range(self, tmp_path, capsys):
        # every score and weight is finite, but not their sum: the fo report
        # held inf, and reduce-bmc named one of its own papers
        game = {"variant": "fo", "n": 2, "papers": [{"authors": [1], "score": 1e308}] * 2}
        code, out, err = run(capsys, "shapley", write(tmp_path, "g.json", game))
        assert code == 1 and out == ""
        assert "paper scores sum past the largest float" in err
        bmc = {**BMC, "elements": [{"weight": 1e308}, {"weight": 1e308}]}
        code, out, err = run(capsys, "reduce-bmc", write(tmp_path, "bmc.json", bmc))
        assert code == 1 and out == ""
        assert "element weights sum past the largest float" in err

    def test_non_integral_target(self, tmp_path, capsys):
        code, _, err = run(capsys, "attack", fc_request(tmp_path, target=1.5))
        assert code == 1
        assert "'target'" in err

    def test_pairwise_protect_out_of_range(self, tmp_path, capsys):
        code, out, err = run(capsys, "attack", fc_request(tmp_path, pairwise_protect=9))
        assert code == 1 and out == ""
        assert "field 'pairwise_protect' 9 outside 1..3" in err

    def test_no_benefit_target_out_of_range(self, tmp_path, capsys):
        game = write(tmp_path, "fc.json", FC_GAME)
        code, out, err = run(capsys, "no-benefit", game, "--target", "9")
        assert code == 1 and out == ""
        assert "--target 9 outside 1..3" in err

    def test_shapley_player_out_of_range(self, tmp_path, capsys):
        game = write(tmp_path, "fc.json", FC_GAME)
        code, out, err = run(capsys, "shapley", game, "--player", "9")
        assert code == 1 and out == ""
        assert "--player 9 outside 1..3" in err

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_must_be_positive(self, tmp_path, capsys, trials):
        game = write(tmp_path, "fc.json", FC_GAME)
        code, out, err = run(capsys, "no-benefit", game, "--target", "1", "--trials", trials)
        assert code == 1 and out == ""
        assert "--trials" in err

    def test_reports_refuse_non_finite_floats(self):
        with pytest.raises(ValueError):
            _emit({"value": float("nan")}, "json")
        with pytest.raises(ValueError):
            _emit({"value": float("inf")}, "table")
