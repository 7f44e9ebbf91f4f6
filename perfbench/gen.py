"""Seeded instance generator for the benchmark workloads.

``generate(workload, seed, outdir)`` writes game, profile, attack-request,
BMC and oracle-config files in the file formats of the top-level README and
returns a manifest (also written to ``outdir/manifest.json``) that lists the
operations of one round.  The same seed always gives the same files; the
sizes of every input are fixed, only their random structure follows the seed.

Run ``python3 perfbench/gen.py WORKLOAD SEED OUTDIR`` to inspect the inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

from reference import Instance, knapsack_items

WORKLOADS = ("vectors-large", "cli-requests", "oracle-audit")

# nc3 edge weights are multiples of 1/4 and the cutoff is 1, so every path sum
# is exact in binary floating point and ties at exactly d_cut really occur.
DYADIC_WEIGHTS = (0.25, 0.5, 0.75, 1.0, 1.25)
D_CUT = 1.0


def _write(outdir: str, name: str, obj) -> str:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
    return name


def random_edges(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """``m`` distinct edges of a uniform random simple graph on 1..n."""
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return [list(e) for e in sorted(seen)]


def bounded_degree_edges(rng: random.Random, n: int, chords: int) -> list[list[int]]:
    """A cycle on 1..n plus random chords between degree-2 players, so every
    degree is at most 3 and every distance-two ball has at most 10 players."""
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    free = list(range(1, n + 1))
    rng.shuffle(free)
    while chords and len(free) >= 2:
        u, v = free.pop(), free.pop()
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            chords -= 1
    return [list(e) for e in sorted(edges)]


def nc_game(variant: str, n: int, edges, **extra) -> dict:
    return {"variant": variant, "n": n, "edges": edges, **extra}


def nc3_game(rng: random.Random, n: int, edges) -> dict:
    weighted = [[u, v, rng.choice(DYADIC_WEIGHTS)] for u, v in edges]
    return nc_game("nc3", n, weighted, d_cut=D_CUT)


def cycle_union_edges(rng: random.Random, n: int, cycles: int) -> list[list[int]]:
    """The union of ``cycles`` random Hamiltonian cycles on 1..n.  Every degree
    is at most ``2 * cycles``, so the balls around the players, whose cubed
    sizes set the nc3 closed form's work, differ little from seed to seed (on
    a uniform random graph that work varies about threefold)."""
    seen: set[tuple[int, int]] = set()
    for _ in range(cycles):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for u, v in zip(order, order[1:] + order[:1]):
            seen.add((min(u, v), max(u, v)))
    return [list(e) for e in sorted(seen)]


def credit_game(variant: str, rng: random.Random, n: int, papers: int, max_authors: int) -> dict:
    out = []
    for _ in range(papers):
        authors = sorted(rng.sample(range(1, n + 1), rng.randint(1, max_authors)))
        out.append({"authors": authors, "score": rng.randint(1, 20) / 2})
    return {"variant": variant, "n": n, "papers": out}


def two_author_game(variant: str, rng: random.Random, n: int, papers: int) -> dict:
    """Two-author credit game in which every other author shares a paper
    with player 1 (so all of them are attackable coauthors of the target)."""
    out = [{"authors": [1, j], "score": rng.randint(1, 20) / 2} for j in range(2, n + 1)]
    for _ in range(papers - len(out)):
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        out.append({"authors": [u, v], "score": rng.randint(1, 20) / 2})
    return {"variant": variant, "n": n, "papers": out}


def profile(rng: random.Random, n: int, lo: float = 0.05, hi: float = 0.95) -> dict:
    return {"p": [rng.uniform(lo, hi) for _ in range(n)]}


def cost_model(rng: random.Random, n: int, *, common: bool, c_max: int = 0,
               L_range=(0.5, 2.0), R_range=(0.5, 2.0)) -> dict:
    p_star = [rng.uniform(0.1, 0.95) for _ in range(n)]
    if common:
        L = [rng.uniform(*L_range)] * n
        R = [rng.uniform(*R_range)] * n
    else:
        L = [rng.uniform(*L_range) for _ in range(n)]
        R = [rng.uniform(*R_range) for _ in range(n)]
    c = [float(rng.randint(1, c_max)) if c_max else 0.0 for _ in range(n)]
    return {"p_star": p_star, "L": L, "R": R, "c": c}


def grid_budget(costs: dict, attackable: list[int], resolution: float, share: float) -> float:
    """Budget at the ``share`` quantile of the costs of the oracle's grid.

    The oracle grid puts each attackable player on the multiples of
    ``resolution`` plus its baseline.  Fixing the share of grid profiles that
    are affordable fixes how many the oracle evaluates, so a case costs about
    the same on every seed while its baselines and slopes still vary.
    """
    axes = []
    for j in attackable:
        base, lo, hi = costs["p_star"][j - 1], costs["L"][j - 1], costs["R"][j - 1]
        steps = round(1.0 / resolution)
        pts = sorted({min(1.0, i * resolution) for i in range(steps + 1)} | {1.0, base})
        axes.append([lo * (base - q) if q < base else hi * (q - base) for q in pts])
    totals = sorted(sum(c) for c in itertools.product(*axes))
    return totals[min(len(totals) - 1, int(share * len(totals)))]


def complete_edges(n: int) -> list[list[int]]:
    return [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def star_edges(n: int, center: int) -> list[list[int]]:
    return [[min(center, v), max(center, v)] for v in range(1, n + 1) if v != center]


def cycle_edges(n: int) -> list[list[int]]:
    return [[u, u + 1] for u in range(1, n)] + [[1, n]]


# ---------------------------------------------------------------------------
# workloads


def _vectors_large(rng: random.Random, outdir: str) -> dict:
    games = {
        "nc1": nc_game("nc1", 2_500, random_edges(rng, 2_500, 10_000)),
        "nc2": nc_game("nc2", 2_500, random_edges(rng, 2_500, 10_000), k=2),
        "nc3": nc3_game(rng, 200, cycle_union_edges(rng, 200, 2)),
        "fc": credit_game("fc", rng, 1_500, 3_000, 6),
        "fo": credit_game("fo", rng, 1_500, 3_000, 6),
    }
    files = {name: _write(outdir, f"{name}.json", g) for name, g in games.items()}
    profiles = {name: _write(outdir, f"p_{name}.json", profile(rng, g["n"])) for name, g in games.items()}
    ops = [
        {"op": "vector", "game": files[name], "profile": profiles[name]}
        for name in ("nc1", "nc2", "nc3", "fc", "fo")
    ]
    players = sorted(rng.sample(range(1, 2_501), 20))
    ops.append({"op": "gradient", "game": files["nc1"], "profile": profiles["nc1"], "players": players})
    return {"games": sorted(files.values()), "ops": ops}


def _request(outdir: str, name: str, game_file: str, target: int, budget, costs: dict,
             mode: str = "fractional", **extra) -> str:
    req = {"game": game_file, "target": target, "budget": budget, "cost_model": costs, "mode": mode}
    req.update(extra)
    return _write(outdir, name, req)


def _cli_requests(rng: random.Random, outdir: str) -> dict:
    w = lambda name, obj: _write(outdir, name, obj)
    g = {
        "nc1": w("nc1.json", nc_game("nc1", 40, random_edges(rng, 40, 100))),
        "nc2": w("nc2.json", nc_game("nc2", 40, random_edges(rng, 40, 80), k=2)),
        "nc3": w("nc3.json", nc3_game(rng, 40, random_edges(rng, 40, 100))),
        "fc": w("fc.json", credit_game("fc", rng, 40, 80, 4)),
        "fo": w("fo.json", credit_game("fo", rng, 40, 80, 4)),
        "k200": w("k200.json", nc_game("nc1", 200, complete_edges(200))),
        "star": w("star60.json", nc_game("nc1", 60, star_edges(60, 1))),
        "c40": w("c40.json", nc_game("nc1", 40, cycle_edges(40))),
        "c9": w("c9.json", nc_game("nc1", 9, cycle_edges(9))),
        "fc2": w("fc2.json", two_author_game("fc", rng, 30, 60)),
        "fo2": w("fo2.json", two_author_game("fo", rng, 30, 60)),
        "fo16": w("fo16.json", _fo_removal_game(rng)),
        "nc2deg3": w("nc2_deg3.json", nc_game("nc2", 40, bounded_degree_edges(rng, 40, 10), k=2)),
        "k5": w("k5.json", nc_game("nc1", 5, complete_edges(5))),
        "c5": w("c5.json", nc_game("nc1", 5, cycle_edges(5))),
        "fc5": w("fc5.json", two_author_game("fc", rng, 5, 7)),
        "nb_nc1": w("nb_nc1.json", nc_game("nc1", 12, random_edges(rng, 12, 24))),
        "nb_fc": w("nb_fc.json", credit_game("fc", rng, 12, 20, 3)),
        "path3": w("path3.json", nc_game("nc2", 3, [[1, 2], [2, 3]], k=2)),
        "bad_n": w("bad_n.json", nc_game("nc1", 3.7, [[1, 2], [2, 3]])),
    }
    p = {name: w(f"p_{name}.json", profile(rng, n)) for name, n in
         (("nc1", 40), ("nc2", 40), ("nc3", 40), ("fc", 40), ("fo", 40))}
    cfg = w("oracle_cfg.json", {"grid_resolution": 0.25})

    def spend(cm, players, raising=True):
        slope = cm["R"] if raising else cm["L"]
        return sum(slope[j - 1] * ((1.0 - cm["p_star"][j - 1]) if raising else cm["p_star"][j - 1])
                   for j in players)

    reqs = []
    c = cost_model(rng, 200, common=True)
    reqs.append(_request(outdir, "r_greedy_k200.json", g["k200"], 1, 0.4 * spend(c, range(2, 201)), c))
    c = cost_model(rng, 60, common=True)
    reqs.append(_request(outdir, "r_greedy_star.json", g["star"], 7, 0.5 * spend(c, range(1, 61)), c))
    c = cost_model(rng, 40, common=True)
    reqs.append(_request(outdir, "r_cycle_c40.json", g["c40"], 1, rng.uniform(0.3, 2.0), c))
    c = cost_model(rng, 9, common=True)
    reqs.append(_request(outdir, "r_cycle_c9.json", g["c9"], 4, rng.uniform(0.3, 2.0), c))
    c = cost_model(rng, 30, common=False)
    reqs.append(_request(outdir, "r_knap_fc.json", g["fc2"], 1, 0.5 * spend(c, range(2, 31)), c))
    c = cost_model(rng, 30, common=False)
    reqs.append(_request(outdir, "r_knap_fo.json", g["fo2"], 1, 0.5 * spend(c, range(2, 31), False), c,
                         pairwise_protect=rng.randint(2, 30)))
    c = cost_model(rng, 30, common=True, c_max=5)
    reqs.append(_request(outdir, "r_removal_fo16.json", g["fo16"], 1, float(rng.randint(10, 20)), c,
                         mode="removal"))
    c = cost_model(rng, 40, common=True, c_max=3)
    reqs.append(_request(outdir, "r_removal_nc2.json", g["nc2deg3"], rng.randint(1, 40),
                         float(rng.randint(3, 6)), c, mode="removal"))
    c = cost_model(rng, 40, common=True, c_max=3)
    reqs.append(_request(outdir, "r_removal_nc1.json", g["nc1"], rng.randint(1, 40), 5.0, c,
                         mode="removal"))

    oracle = []
    for name, gfile, n in (("k5", g["k5"], 5), ("c5", g["c5"], 5)):
        c = cost_model(rng, n, common=True)
        budget = grid_budget(c, list(range(2, n + 1)), 0.25, rng.uniform(0.2, 0.8))
        oracle.append(_request(outdir, f"oc_{name}.json", gfile, 1, budget, c))
    c = cost_model(rng, 5, common=False)
    budget = grid_budget(c, list(range(2, 6)), 0.25, rng.uniform(0.2, 0.8))
    oracle.append(_request(outdir, "oc_fc5.json", g["fc5"], 1, budget, c))

    bmc = [w("bmc16.json", _bmc(rng, 20, 16)), w("bmc8.json", _bmc(rng, 10, 8))]

    # "budget": NaN is not strict JSON, which is the point: the CLI's parser
    # accepts it and the request must still be refused by name.
    c = cost_model(rng, 5, common=True)
    with open(os.path.join(outdir, "bad_budget.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"game": g["k5"], "target": 1, "budget": float("nan"),
                             "cost_model": c, "mode": "fractional"}))

    ops = [
        {"argv": ["shapley", g["nc1"], "--profile", p["nc1"]], "check": "shapley"},
        {"argv": ["shapley", g["nc2"], "--profile", p["nc2"]], "check": "shapley"},
        {"argv": ["shapley", g["nc3"], "--profile", p["nc3"]], "check": "shapley"},
        {"argv": ["shapley", g["fc"], "--profile", p["fc"]], "check": "shapley"},
        {"argv": ["shapley", g["fo"], "--profile", p["fo"]], "check": "shapley"},
        {"argv": ["shapley", g["nc1"], "--profile", p["nc1"], "--player", str(rng.randint(1, 40))],
         "check": "shapley"},
        {"argv": ["shapley", g["nc3"], "--player", str(rng.randint(1, 40))], "check": "shapley"},
    ]
    ops += [{"argv": ["attack", r], "check": "attack"} for r in reqs]
    ops += [{"argv": ["oracle-check", r, "--config", cfg], "check": "oracle-check"} for r in oracle]
    ops += [{"argv": ["reduce-bmc", b], "check": "reduce-bmc"} for b in bmc]
    ops += [
        {"argv": ["no-benefit", g["nb_nc1"], "--target", str(rng.randint(1, 12)), "--trials", "40",
                  "--seed", str(rng.randint(0, 999))], "check": "no-benefit"},
        {"argv": ["no-benefit", g["nb_fc"], "--target", str(rng.randint(1, 12)), "--trials", "40",
                  "--seed", str(rng.randint(0, 999))], "check": "no-benefit"},
        {"argv": ["no-benefit", g["path3"], "--target", "1", "--trials", "20"],
         "check": "no-benefit-counterexample"},
    ]
    ops += [
        {"argv": ["attack", "bad_budget.json"], "check": "malformed", "field": "budget"},
        {"argv": ["shapley", g["bad_n"]], "check": "malformed", "field": "n"},
        {"argv": ["no-benefit", g["nc1"], "--target", "1", "--trials", "-5"],
         "check": "malformed", "field": "trials"},
    ]
    games = sorted(v for k, v in g.items() if k != "bad_n")
    return {"games": games, "ops": ops}


def _fo_removal_game(rng: random.Random) -> dict:
    """Full-obligation game on 30 authors where player 1 has exactly 16
    coauthors, spread over papers of two to four authors."""
    coauthors = rng.sample(range(2, 31), 16)
    papers = []
    pool = list(coauthors)
    rng.shuffle(pool)
    while pool:
        take = [pool.pop() for _ in range(min(len(pool), rng.randint(1, 3)))]
        papers.append({"authors": sorted([1] + take), "score": rng.randint(1, 20) / 2})
    for _ in range(8):
        extra = rng.sample(coauthors, rng.randint(1, 3))
        papers.append({"authors": sorted([1] + extra), "score": rng.randint(1, 20) / 2})
    for _ in range(20):
        papers.append({"authors": sorted(rng.sample(range(2, 31), rng.randint(2, 4))),
                       "score": rng.randint(1, 20) / 2})
    return {"variant": "fo", "n": 30, "papers": papers}


def _bmc(rng: random.Random, elements: int, sets: int) -> dict:
    data = {
        "elements": [{"weight": rng.randint(1, 5)} for _ in range(elements)],
        "sets": [
            {"members": sorted(rng.sample(range(1, elements + 1), rng.randint(1, 4))),
             "cost": rng.randint(1, 3)}
            for _ in range(sets)
        ],
        "k": rng.randint(3, 6),
    }
    data["L"] = rng.randint(5, 3 * data["k"])
    return data


# Oracle cases: (label, topology, n, grid resolution, share of affordable grid
# profiles).  The target is player 1 and every other player is attackable.
# Grid sizes are fixed per case, and so is the affordable share, so each case
# does about the same work on every seed.
ORACLE_CASES = (
    ("K4", "complete", 4, 1 / 16, 0.5),
    ("K5", "complete", 5, 1 / 8, 0.4),
    ("K6", "complete", 6, 1 / 4, 0.6),
    ("K6-fine", "complete", 6, 1 / 8, 0.2),
    ("S6-center", "star-center", 6, 1 / 4, 0.5),
    ("S6-leaf", "star-leaf", 6, 1 / 4, 0.7),
    ("S5-leaf", "star-leaf", 5, 1 / 8, 0.5),
    ("C5", "cycle", 5, 1 / 8, 0.5),
    ("C6", "cycle", 6, 1 / 4, 0.4),
    ("C7", "cycle", 7, 1 / 4, 0.15),
    ("FC6", "fc", 6, 1 / 4, 0.5),
    ("FO6", "fo", 6, 1 / 4, 0.5),
)


def _oracle_audit(rng: random.Random, outdir: str) -> dict:
    ops = []
    games = []
    for label, topo, n, res, share in ORACLE_CASES:
        if topo == "complete":
            game, solver = nc_game("nc1", n, complete_edges(n)), "greedy"
        elif topo == "star-center":
            game, solver = nc_game("nc1", n, star_edges(n, 1)), "greedy"
        elif topo == "star-leaf":
            game, solver = nc_game("nc1", n, star_edges(n, 2)), "greedy"
        elif topo == "cycle":
            game, solver = nc_game("nc1", n, cycle_edges(n)), "cycle"
        else:
            game, solver = two_author_game(topo, rng, n, n + 2), "knapsack"
        gfile = _write(outdir, f"g_{label}.json", game)
        games.append(gfile)
        if solver != "knapsack":
            c = cost_model(rng, n, common=True)
        elif topo == "fc":
            # the attack raises coauthors: make that the expensive direction,
            # so a grid-quantile budget stops the optimum part-way
            c = cost_model(rng, n, common=False, L_range=(0.3, 0.6), R_range=(1.5, 3.0))
        else:
            c = cost_model(rng, n, common=False, L_range=(1.5, 3.0), R_range=(0.3, 0.6))
        budget = grid_budget(c, list(range(2, n + 1)), res, share)
        req = _request(outdir, f"oc_{label}.json", gfile, 1, budget, c)
        cfg = _write(outdir, f"cfg_{label}.json", {"grid_resolution": res})
        ops.append({"op": "oracle", "label": label, "request": req, "config": cfg, "solver": solver})
        if solver == "knapsack":
            values, weights = knapsack_items(Instance(game), c, 1)
            items = _write(outdir, f"ks_{label}.json",
                           {"values": values, "weights": weights, "capacity": budget})
            ops.append({"op": "knapsack_lp", "label": label, "items": items})
    for name, game in (
        ("def_nc2", nc_game("nc2", 9, random_edges(rng, 9, 16), k=2)),
        ("def_nc3", nc3_game(rng, 9, random_edges(rng, 9, 14))),
        ("def_fc", credit_game("fc", rng, 8, 12, 3)),
    ):
        gfile = _write(outdir, f"{name}.json", game)
        games.append(gfile)
        pfile = _write(outdir, f"p_{name}.json", profile(rng, game["n"]))
        ops.append({"op": "definitional", "game": gfile, "profile": pfile})
    for name, game, size in (
        ("rel_nc1", nc_game("nc1", 20, random_edges(rng, 20, 40)), 18),
        ("rel_fc", credit_game("fc", rng, 20, 30, 4), 17),
        ("rel_fo", credit_game("fo", rng, 20, 30, 3), 16),
    ):
        gfile = _write(outdir, f"{name}.json", game)
        games.append(gfile)
        pfile = _write(outdir, f"p_{name}.json", profile(rng, game["n"]))
        coalition = sorted(rng.sample(range(1, game["n"] + 1), size))
        ops.append({"op": "reliability", "game": gfile, "profile": pfile, "coalition": coalition})
    return {"games": games, "ops": ops}


def generate(workload: str, seed: int, outdir: str) -> dict:
    """Write the inputs of one run of ``workload`` into ``outdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    build = {
        "vectors-large": _vectors_large,
        "cli-requests": _cli_requests,
        "oracle-audit": _oracle_audit,
    }[workload]
    manifest = {"workload": workload, "seed": seed, **build(rng, outdir)}
    _write(outdir, "manifest.json", manifest)
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen.py WORKLOAD SEED OUTDIR")
    m = generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(f"{len(m['ops'])} operations, {len(m['games'])} game files in {sys.argv[3]}")
