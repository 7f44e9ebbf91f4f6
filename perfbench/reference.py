"""Reference computations for the benchmark's output checks.

Everything here is computed from the generated instance files alone and
imports nothing from ``reliattack``:

* coverage games (nc1, nc3, fc) use Owen's multilinear extension,
  ``E[1/(1+L)] = int_0^1 prod_z (1 - p_z + p_z t) dt``, by Gauss-Legendre
  quadrature with enough nodes to be exact for the polynomial;
* nc3 balls come from this module's own Dijkstra (dyadic weights, so sums
  are exact and ties at ``d_cut`` are decided exactly);
* fo uses the product formula ``Sh_x = sum_papers score/|A| prod_a p_a``;
* nc2 splits into one small game per player ``y`` (depending on ``N[y]``
  only), each solved by brute force over the subsets of ``N[y]``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np

REL_TOL = 1e-9
GAP_TOL = 1e-6


def close(a: float, b: float, tol: float = REL_TOL, floor: float = 1.0) -> bool:
    """``|a - b| <= tol * max(floor, |b|)``; false for NaN or infinities."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(floor, abs(b))


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def owen_integral(probs) -> float:
    """``E[1/(1+L)]`` for ``L`` the number of live players among ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    t, w = _gauss_legendre(len(probs) // 2 + 1)
    if not len(probs):
        return 1.0
    return float(w @ np.prod(1.0 - probs[None, :] + probs[None, :] * t[:, None], axis=1))


class Instance:
    """A game file, parsed independently of the program."""

    def __init__(self, data: dict):
        self.variant = data["variant"]
        self.n = n = data["n"]
        if self.variant in ("nc1", "nc2", "nc3"):
            self.nbrs = [set() for _ in range(n + 1)]
            self.wadj = [[] for _ in range(n + 1)]
            for e in data["edges"]:
                u, v = e[0], e[1]
                self.nbrs[u].add(v)
                self.nbrs[v].add(u)
                w = e[2] if len(e) == 3 else 1.0
                self.wadj[u].append((v, w))
                self.wadj[v].append((u, w))
            self.k = data.get("k")
            if self.variant == "nc3":
                self.d_cut = data["d_cut"]
                self.cover = [frozenset()] + [self._ball(x) for x in range(1, n + 1)]
            else:
                self.cover = [frozenset()] + [frozenset(self.nbrs[x] | {x}) for x in range(1, n + 1)]
        else:
            self.papers = [(tuple(sorted(p["authors"])), float(p["score"])) for p in data["papers"]]
            self.papers_of = [[] for _ in range(n + 1)]
            for i, (authors, _) in enumerate(self.papers):
                for a in authors:
                    self.papers_of[a].append(i)

    def _ball(self, x: int) -> frozenset:
        dist = {x: 0.0}
        pq = [(0.0, x)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            for v, w in self.wadj[u]:
                nd = d + w
                if nd <= self.d_cut and nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        return frozenset(dist)

    # -- coverage view: elements with weights and coverer sets ---------------

    def elements_of(self, x: int):
        """(weight, coverers) of every element that player x covers."""
        if self.variant in ("nc1", "nc3"):
            # y is covered by z iff z is in cover[y]; covers are symmetric
            return [(1.0, self.cover[y]) for y in self.cover[x]]
        return [(self.papers[i][1], self.papers[i][0]) for i in self.papers_of[x]]

    def all_elements(self):
        if self.variant in ("nc1", "nc3"):
            return [(1.0, self.cover[y]) for y in range(1, self.n + 1)]
        return [(s, a) for a, s in self.papers]

    # -- expectations ----------------------------------------------------------

    def expected_value(self, p, coalition=None) -> float:
        """``E[v(live S)]`` for S = ``coalition`` (default: everyone)."""
        inside = None if coalition is None else set(coalition)
        keep = (lambda z: True) if inside is None else (lambda z: z in inside)
        if self.variant == "nc2":
            total = 0.0
            for y in range(1, self.n + 1):
                py = p[y - 1] if keep(y) else 0.0
                live_nbrs = [p[z - 1] for z in sorted(self.nbrs[y]) if keep(z)]
                total += py + (1.0 - py) * at_least(live_nbrs, self.k)
            return total
        if self.variant == "fo":
            return sum(s * math.prod(p[a - 1] if keep(a) else 0.0 for a in authors)
                       for authors, s in self.papers)
        total = 0.0
        for w, cov in self.all_elements():
            dead = math.prod(1.0 - p[z - 1] for z in cov if keep(z))
            total += w * (1.0 - dead)
        return total

    def shapley(self, p, x: int) -> float:
        """Shapley value of x in the reliability extension at profile p."""
        if self.variant == "fo":
            return sum(s / len(a) * math.prod(p[b - 1] for b in a)
                       for s, a in ((self.papers[i][1], self.papers[i][0]) for i in self.papers_of[x]))
        if self.variant == "nc2":
            return sum(self._local_nc2(p, y)[x] for y in sorted(self.nbrs[x] | {x}))
        total = 0.0
        for w, cov in self.elements_of(x):
            total += w * owen_integral([p[z - 1] for z in sorted(cov) if z != x])
        return p[x - 1] * total

    def _local_nc2(self, p, y: int) -> dict:
        """Shapley values of the players of N[y] in the reliability extension
        of ``v_y(S) = [y in S] + [y not in S and |N(y) & S| >= k]``."""
        players = sorted(self.nbrs[y] | {y})
        t = len(players)
        iy = players.index(y)
        size = 1 << t
        table = [0.0] * size
        for m in range(size):
            if m >> iy & 1:
                table[m] = 1.0
            elif bin(m).count("1") >= self.k:
                table[m] = 1.0
        for i, z in enumerate(players):  # fold in each player's liveness
            pz, bit = p[z - 1], 1 << i
            for m in range(size):
                if m & bit:
                    table[m] = pz * table[m] + (1.0 - pz) * table[m ^ bit]
        weights = [math.factorial(s) * math.factorial(t - 1 - s) / math.factorial(t) for s in range(t)]
        out = {}
        for i, z in enumerate(players):
            bit = 1 << i
            out[z] = sum(weights[bin(m).count("1")] * (table[m | bit] - table[m])
                         for m in range(size) if not m & bit)
        return out


def at_least(probs, k: int) -> float:
    """P(at least k of the independent Bernoulli(probs) are live)."""
    pmf = [1.0]
    for q in probs:
        nxt = [0.0] * (len(pmf) + 1)
        for s, c in enumerate(pmf):
            nxt[s] += c * (1.0 - q)
            nxt[s + 1] += c * q
        pmf = nxt
    return sum(pmf[k:])


def ball2(inst: Instance, x: int) -> set:
    out = {x} | inst.nbrs[x]
    for v in list(out):
        out |= inst.nbrs[v]
    return out


def coauthors(inst: Instance, x: int) -> set:
    out = set()
    for i in inst.papers_of[x]:
        out |= set(inst.papers[i][0])
    return out - {x}


# ---------------------------------------------------------------------------
# attacks


def profile_cost(costs: dict, profile) -> float:
    total = 0.0
    for j, q in enumerate(profile):
        base = costs["p_star"][j]
        total += costs["L"][j] * (base - q) if q < base else costs["R"][j] * (q - base)
    return total


def greedy_knapsack(values, weights, capacity: float) -> float:
    """Optimum of the fractional knapsack by ratio-sorted greedy."""
    order = sorted(range(len(values)), key=lambda i: -values[i] / weights[i])
    left, total = capacity, 0.0
    for i in order:
        take = min(1.0, left / weights[i]) if weights[i] > 0 else 1.0
        if take <= 0:
            break
        total += take * values[i]
        left -= take * weights[i]
    return total


def knapsack_items(inst: Instance, costs: dict, x: int, exempt=frozenset()):
    """Items of the fractional knapsack equivalent to the attack on x in a
    two-author credit game: fc raises coauthors to 1, fo lowers them to 0."""
    contrib: dict[int, float] = {}
    for i in inst.papers_of[x]:
        authors, score = inst.papers[i]
        (l,) = [a for a in authors if a != x]
        contrib[l] = contrib.get(l, 0.0) + score
    px = costs["p_star"][x - 1]
    values, weights = [], []
    for l in sorted(contrib):
        if l in exempt:
            continue
        base = costs["p_star"][l - 1]
        if inst.variant == "fc":
            values.append(px * contrib[l] * (1.0 - base) / 2.0)
            weights.append(costs["R"][l - 1] * (1.0 - base))
        else:
            values.append(px * contrib[l] * base / 2.0)
            weights.append(costs["L"][l - 1] * base)
    return values, weights


def pairwise_exempt(inst: Instance, y: int) -> set:
    """Players whose reliabilities enter the Shapley value of y."""
    if inst.variant in ("fc", "fo"):
        return coauthors(inst, y) | {y}
    return ball2(inst, y)


def best_removal(inst: Instance, costs: dict, budget: float, x: int, candidates) -> float:
    """Smallest Shapley value of x over affordable removal sets, by brute force."""
    cands = sorted(candidates)
    base = list(costs["p_star"])
    if inst.variant == "fo":
        return _best_fo_removal(inst, costs, budget, x, cands)
    best = math.inf
    for r in range(len(cands) + 1):
        for removed in itertools.combinations(cands, r):
            if sum(costs["c"][j - 1] for j in removed) > budget + 1e-12:
                continue
            p = list(base)
            for j in removed:
                p[j - 1] = 0.0
            best = min(best, inst.shapley(p, x))
    return best


def _best_fo_removal(inst: Instance, costs: dict, budget: float, x: int, cands) -> float:
    """fo keeps a paper of x only while none of its authors is removed."""
    bit = {j: 1 << i for i, j in enumerate(cands)}
    papers = []
    for i in inst.papers_of[x]:
        authors, score = inst.papers[i]
        mask = sum(bit.get(a, 0) for a in authors)
        papers.append((mask, score / len(authors) * math.prod(costs["p_star"][a - 1] for a in authors)))
    best = math.inf
    for removed in range(1 << len(cands)):
        if sum(costs["c"][j - 1] for j in cands if removed & bit[j]) > budget + 1e-12:
            continue
        best = min(best, sum(v for m, v in papers if not m & removed))
    return best


def max_coverage(bmc: dict) -> float:
    """Largest covered weight of sets whose total cost is at most k."""
    weights = [e["weight"] for e in bmc["elements"]]
    sets = [(set(s["members"]), s["cost"]) for s in bmc["sets"]]
    best = 0.0
    for mask in range(1 << len(sets)):
        chosen = [sets[j] for j in range(len(sets)) if mask >> j & 1]
        if sum(c for _, c in chosen) > bmc["k"]:
            continue
        covered = set().union(*(m for m, _ in chosen)) if chosen else set()
        best = max(best, float(sum(weights[u - 1] for u in covered)))
    return best
