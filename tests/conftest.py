"""Shared random-instance generators and the test references; everything
is seeded and deterministic."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Mapping

import numpy as np
import pytest
from hypothesis import settings

from reliattack import (
    AttackPlan,
    ClosedNeighborhoodGame,
    CreditInstance,
    DistanceCutoffGame,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    Game,
    Graph,
    ReliabilityProfile,
    ThresholdNeighborhoodGame,
    shapley_closed,
)
from reliattack.attacks import RemovalCheck, _affordable_masks
from reliattack.games import Coalition, _as_playerset, _players_of
from reliattack.reliability import ProfileLike, as_profile

# Every property test draws the same examples on every run: the examples come
# from a hash of the test, and no database of earlier failures is replayed.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# graph builders used by the tests

def star_graph(n: int, center: int = 1) -> Graph:
    if not 1 <= center <= n:
        raise DomainError(f"center {center} outside 1..{n}")
    return Graph(n, tuple(sorted((min(center, v), max(center, v)) for v in range(1, n + 1) if v != center)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"a cycle needs n >= 3, got {n}")
    edges = sorted((u, u + 1) for u in range(1, n)) + [(1, n)]
    return Graph(n, tuple(sorted(edges)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((u, u + 1) for u in range(1, n)))


def random_graph(rng: random.Random, n: int, p_edge: float = 0.5, weighted: bool = False) -> Graph:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p_edge:
                if weighted:
                    edges.append((u, v, rng.uniform(0.2, 2.0)))
                else:
                    edges.append((u, v))
    return Graph.of(n, edges)


def random_weighted_graph(rng: random.Random, n: int, p_edge: float = 0.6) -> Graph:
    edges = []
    weights = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p_edge:
                edges.append((u, v))
                weights.append(rng.uniform(0.2, 2.0))
    return Graph(n, tuple(edges), tuple(weights))


def random_credit(rng: random.Random, n: int, max_papers: int = 5) -> CreditInstance:
    papers = []
    for _ in range(rng.randint(1, max_papers)):
        size = rng.randint(1, min(n, 4))
        papers.append((rng.sample(range(1, n + 1), size), rng.uniform(0.0, 3.0)))
    return CreditInstance.of(n, papers)


def random_two_author_credit(rng: random.Random, n: int, x: int = 1) -> CreditInstance:
    """Instance where every paper of player x has exactly two authors."""
    papers = []
    others = [j for j in range(1, n + 1) if j != x]
    for l in rng.sample(others, rng.randint(1, len(others))):
        for _ in range(rng.randint(1, 2)):
            papers.append(((x, l), rng.uniform(0.2, 4.0)))
    for _ in range(rng.randint(0, 2)):
        if len(others) >= 2:
            papers.append((rng.sample(others, 2), rng.uniform(0.2, 2.0)))
    return CreditInstance.of(n, papers)


def random_profile(rng: random.Random, n: int, lo: float = 0.0, hi: float = 1.0) -> ReliabilityProfile:
    return ReliabilityProfile(tuple(rng.uniform(lo, hi) for _ in range(n)))


def random_game(rng: random.Random, variant: str, n: int):
    if variant == "nc1":
        return ClosedNeighborhoodGame(random_graph(rng, n))
    if variant.startswith("nc2"):
        k = int(variant[-1]) if len(variant) > 3 else rng.randint(1, 3)
        return ThresholdNeighborhoodGame(random_graph(rng, n), k)
    if variant == "nc3":
        return DistanceCutoffGame(random_weighted_graph(rng, n), rng.uniform(0.3, 2.5))
    if variant == "fc":
        return FullCreditGame(random_credit(rng, n))
    if variant == "fo":
        return FullObligationGame(random_credit(rng, n))
    raise ValueError(variant)


def loop_table(game):
    """The reference subset table: one ``value_mask`` call per coalition."""
    return np.array([game.value_mask(mask) for mask in range(1 << game.n)])


class TableGame(Game):
    """Explicit subset -> value table, for hand-built games in the tests;
    its subset tables are the ``value_mask`` loop."""

    variant = "table"

    def __init__(self, n: int, table: Mapping[Iterable[int], float]):
        self.n = n
        norm: dict[frozenset[int], float] = {}
        for coalition, val in table.items():
            norm[_as_playerset(coalition, n, "table key")] = float(val)
        if norm.get(frozenset()) is None:
            raise DomainError("table must define the empty-coalition value")
        if norm[frozenset()] != 0.0:
            raise DomainError("table value of the empty coalition must be 0")
        self._table = norm

    def value_mask(self, mask: int) -> float:
        key = _players_of(mask)
        try:
            return self._table[key]
        except KeyError:
            raise DomainError(f"table has no value for coalition {sorted(key)}") from None

    def subset_values(self):
        return loop_table(self)


def enumerated_value(value_mask, pvals, smask):
    """The loop form of the reliability extension at ``smask``: every liveness
    outcome of its members, weighted by its probability, summed in ascending
    order of the compressed outcome index."""
    members = [i + 1 for i in range(smask.bit_length()) if smask >> i & 1]
    total = 0.0
    for r in range(1 << len(members)):
        tmask = 0
        prob = 1.0
        for idx, player in enumerate(members):
            if r >> idx & 1:
                tmask |= 1 << (player - 1)
                prob *= pvals[player - 1]
            else:
                prob *= 1.0 - pvals[player - 1]
        if prob:
            total += value_mask(tmask) * prob
    return total


def size_pmf(probs, one=1):
    """Distribution of the number of live players among independent players,
    each live with probability q / one for its q in ``probs``: pmf[s] =
    P(exactly s live) * one^len(probs).  Exact for integers and Fractions."""
    pmf = [1]
    for q in probs:
        nxt = [0] * (len(pmf) + 1)
        for s, c in enumerate(pmf):
            nxt[s] += c * (one - q)
            nxt[s + 1] += c * q
        pmf = nxt
    return pmf


@lru_cache(maxsize=4096)
def _integer_pmf(probs: tuple[float, ...]) -> tuple[list[int], int]:
    """``size_pmf`` of ``probs`` (a sorted tuple, so equal multisets share an
    entry) in integers, and the scale that divides it.  Floats are dyadic,
    so each probability is an integer over the largest denominator."""
    fracs = [Fraction(q) for q in probs]
    one = max((f.denominator for f in fracs), default=1)
    pmf = size_pmf([f.numerator * (one // f.denominator) for f in fracs], one)
    return pmf, one ** len(fracs)


@lru_cache(maxsize=1024)
def _pmf_moments(probs: tuple[float, ...]) -> tuple[Fraction, Fraction]:
    """E[1 / (1 + L)] and E[1 / ((1 + L)(2 + L))] for the number L of live
    players among ``probs``, summed exactly over the size pmf."""
    pmf, scale = _integer_pmf(probs)
    return (
        Fraction(1, scale) * sum(Fraction(c, s + 1) for s, c in enumerate(pmf)),
        Fraction(1, scale) * sum(Fraction(c, (s + 1) * (s + 2)) for s, c in enumerate(pmf)),
    )


def _moments(profile, players):
    return _pmf_moments(tuple(sorted(profile[z] for z in players)))


def coverage_inner(game, profile, x) -> Fraction:
    """The pmf reference for a coverage game's inner sum (Sh_x = p_x *
    inner): over the elements e that x covers, w_e * E[1 / (1 + L)] with L
    the live coverers of e other than x.  Exact rational arithmetic on the
    float profile and weights."""
    total = Fraction(0)
    for e in game._covers[x].tolist():
        others = [z for z in game._coverers[e].tolist() if z != x]
        total += Fraction(float(game._weights[e])) * _moments(profile, others)[0]
    return total


def coverage_gradient(game, profile, x) -> list[Fraction]:
    """The pmf reference for ``shapley_gradient`` on a coverage game: entry
    x - 1 is the inner sum, and entry j - 1 is -p_x times the sum over the
    elements e covered by x and j of w_e * E[1 / ((1 + L)(2 + L))], with L
    the live coverers of e other than x and j.  Exact, as above."""
    out = [Fraction(0)] * game.n
    for e in game._covers[x].tolist():
        w = Fraction(float(game._weights[e]))
        others = [z for z in game._coverers[e].tolist() if z != x]
        for j in others:
            out[j - 1] -= w * _moments(profile, [z for z in others if z != j])[1]
    out = [Fraction(profile[x]) * v for v in out]
    out[x - 1] = coverage_inner(game, profile, x)
    return out


@lru_cache(maxsize=4096)
def _nc2_pair(probs: tuple[float, ...], py: Fraction, k: int) -> Fraction:
    """The sum over s1 live players among ``probs`` of P(s1) * (p_y *
    alive(s1) + (1 - p_y) * dead(s1)), the threshold weights of the pair
    term, exactly."""
    pmf, scale = _integer_pmf(probs)
    total = Fraction(0)
    for s1, c in enumerate(pmf):
        alive = Fraction(s1 + 2 - k, (s1 + 1) * (s1 + 2)) if s1 + 2 > k else 0
        dead = Fraction(1, s1 + 1) if s1 >= k - 1 else 0
        total += c * (py * alive + (1 - py) * dead)
    return total / scale


def nc2_inner(game, profile, x) -> Fraction:
    """The pmf reference for the threshold game's inner sum (Sh_x = p_x *
    inner), term by term: for each neighbour y of x the pair term over the
    live players of N(y) - {x}, plus x's own term sum_s P(s of N(x) live) *
    min(k, s + 1) / (s + 1).  Exact rational arithmetic on the float
    profile."""
    graph, k = game.graph, game.threshold
    total = Fraction(0)
    for y in sorted(graph.neighbors(x)):
        others = tuple(sorted(profile[z] for z in graph.neighbors(y) - {x}))
        total += _nc2_pair(others, Fraction(profile[y]), k)
    pmf, scale = _integer_pmf(tuple(sorted(profile[z] for z in graph.neighbors(x))))
    return total + sum(c * Fraction(min(k, s + 1), s + 1) for s, c in enumerate(pmf)) / scale


def fo_value(game, profile, x) -> Fraction:
    """The exact reference for the full-obligation Shapley value of x: the
    sum over x's papers P of score_P / |P| * prod_{l in P} p_l, as a
    Fraction product."""
    total = Fraction(0)
    for authors, score in game.instance.papers:
        if x in authors:
            term = Fraction(score) / len(authors)
            for l in authors:
                term *= Fraction(profile[l])
            total += term
    return total


def fo_gradient(game, profile, x) -> list[Fraction]:
    """The exact reference for ``shapley_gradient`` on the full-obligation
    game, Sh_x = sum over x's papers P of score_P / |P| * prod_{l in P} p_l:
    entry j - 1 is its derivative in p_j, as a Fraction product."""
    out = [Fraction(0)] * game.n
    for authors, score in game.instance.papers:
        if x not in authors:
            continue
        for j in authors:
            term = Fraction(score) / len(authors)
            for l in authors - {j}:
                term *= Fraction(profile[l])
            out[j - 1] += term
    return out


def exact_shapley(value: Callable[[frozenset], int], n: int, profile, x: int) -> Fraction:
    """Sh_x of the reliability extension of the game ``value`` (a function
    of a frozenset of players 1..n) as the exact permutation average, for
    n <= 6, in Fractions and without numpy: vbar(S) = sum over T <= S of
    v(T) * pi(T, S, p), and Sh_x averages vbar(B + x) - vbar(B) over the
    players B before x in every order."""
    assert n <= 6
    p = [None] + [Fraction(v) for v in profile]

    def vbar(s):
        total = Fraction(0)
        for r in range(len(s) + 1):
            for live in itertools.combinations(sorted(s), r):
                pi = Fraction(1)
                for i in s:
                    pi *= p[i] if i in live else 1 - p[i]
                total += value(frozenset(live)) * pi
        return total

    total = Fraction(0)
    for order in itertools.permutations(range(1, n + 1)):
        before = frozenset(order[: order.index(x)])
        total += vbar(before | {x}) - vbar(before)
    return total / factorial(n)


def exact_table_shapley(table: list[Fraction], profile) -> list[Fraction]:
    """The Shapley vector of the reliability extension of the game whose
    values over all 2^n coalitions (bit i of an index is player i + 1) are
    ``table``, in Fractions and without numpy: the liveness of each player
    folded in turn, v[S + i] <- v[S] + p_i * (v[S + i] - v[S]), then Sh_x as
    the sum over the sizes s of s! (n - 1 - s)! / n! times the sum of
    v[S + x] - v[S] over the coalitions S of size s without x."""
    n = len(profile)
    vbar = list(table)
    for i, q in enumerate(Fraction(q) for q in profile):
        if q == 1:  # a certain player's fold changes nothing
            continue
        bit = 1 << i
        for s in range(1 << n):
            if s & bit:
                low = vbar[s ^ bit]
                vbar[s] = low + q * (vbar[s] - low)
    out = []
    for x in range(n):
        by_size = [Fraction(0)] * n
        for s in range(1 << n):
            if not s >> x & 1:
                by_size[bin(s).count("1")] += vbar[s | 1 << x] - vbar[s]
        total = sum(factorial(s) * factorial(n - 1 - s) * d for s, d in enumerate(by_size))
        out.append(total / factorial(n))
    return out


def exact_knapsack(values, weights, capacity) -> Fraction:
    """max v.z subject to w.z <= capacity and 0 <= z <= 1, in Fractions and
    without numpy, as the best of the LP's vertices: a set S taken whole
    (when it fits), or S plus one more item j filled to the capacity, z_j =
    (capacity - w(S)) / w_j strictly between 0 and 1 (a negative w_j fills
    from above).  Weights and values of either sign."""
    v = [Fraction(x) for x in values]
    w = [Fraction(x) for x in weights]
    cap = Fraction(capacity)
    best = Fraction(0)  # z = 0 is feasible since the capacity is >= 0
    for r in range(len(v) + 1):
        for taken in itertools.combinations(range(len(v)), r):
            used = sum((w[i] for i in taken), Fraction(0))
            value = sum((v[i] for i in taken), Fraction(0))
            if used <= cap:
                best = max(best, value)
            for j in set(range(len(v))) - set(taken):
                if w[j] != 0 and 0 < (cap - used) / w[j] < 1:
                    best = max(best, value + (cap - used) / w[j] * v[j])
    return best


def threshold_value(graph, k: int) -> Callable[[frozenset], int]:
    """The threshold game's value in plain Python: the members of S plus the
    players outside S with at least k neighbours in S."""
    return lambda s: len(s) + sum(
        1 for y in range(1, graph.n + 1) if y not in s and len(graph.neighbors(y) & s) >= k
    )


# The per-profile loops that the batched searches replaced, kept as their
# references: one shapley_closed call per subset or per two-point profile.


def best_affordable_loop(prices, budget, score) -> tuple[float, tuple[int, ...]]:
    """The least ``score(chosen)`` over the affordable subsets of indices
    into ``prices``, scanned in mask order: within 1e-12 a tie prefers the
    smaller subset, then the lexicographically first."""
    best = None
    for mask in _affordable_masks(prices, budget).tolist():
        chosen = tuple(i for i in range(len(prices)) if mask >> i & 1)
        value = score(chosen)
        if best is None or value < best[0] - 1e-12 or (
            abs(value - best[0]) <= 1e-12 and (len(chosen), chosen) < (len(best[1]), best[1])
        ):
            best = (value, chosen)
    return best


def removal_search_loop(game, costs, budget, x, candidates) -> AttackPlan:
    """The exhaustive removal search over the sorted ``candidates``, one
    ``shapley_closed`` call per affordable subset."""
    base = costs.baseline_profile()
    value, chosen = best_affordable_loop(
        [costs.c[j - 1] for j in candidates],
        budget,
        lambda chosen: shapley_closed(
            game, base.with_values({candidates[i]: 0.0 for i in chosen}), x
        ),
    )
    removed = tuple(candidates[i] for i in chosen)
    return AttackPlan(costs.removal_cost(removed), value, removed=frozenset(removed), order=removed)


def no_benefit_loop(game, x, trials, profile=None, seed=0) -> RemovalCheck:
    """``removal_no_benefit_check`` with one ``shapley_closed`` call per
    subset: every subset of the other players in mask order (trials None),
    or ``trials`` subsets drawn with ``random.Random(seed)``."""
    base = ReliabilityProfile.ones(game.n) if profile is None else as_profile(profile, game.n)
    baseline = shapley_closed(game, base, x)
    others = [j for j in range(1, game.n + 1) if j != x]
    if trials is None:
        subsets = (
            frozenset(others[i] for i in range(len(others)) if mask >> i & 1)
            for mask in range(1 << len(others))
        )
        count = 1 << len(others)
    else:
        rng = random.Random(seed)
        subsets = (frozenset(j for j in others if rng.random() < 0.5) for _ in range(trials))
        count = trials
    for removed in subsets:
        value = shapley_closed(game, base.with_values({j: 0.0 for j in removed}), x)
        if value < baseline - 1e-9:
            return RemovalCheck(False, count, baseline, removed, value)
    return RemovalCheck(True, count, baseline)


def two_point_gradient_loop(game, profile, x) -> list[float]:
    """Entry j is ``shapley_closed`` at p_j = 1 less at p_j = 0."""
    p = as_profile(profile, game.n)
    return [
        shapley_closed(game, p.with_value(j, 1.0), x)
        - shapley_closed(game, p.with_value(j, 0.0), x)
        for j in range(1, game.n + 1)
    ]


def pi_prob(live: Coalition, among: Coalition, profile: ProfileLike) -> float:
    """Probability that exactly ``live`` is the live subset of ``among``."""
    p = as_profile(profile)
    t = _as_playerset(live, p.n, "live set")
    s = _as_playerset(among, p.n, "host set")
    if not t <= s:
        raise DomainError("live set must be a subset of the host set")
    prob = 1.0
    for i in sorted(s):
        prob *= p[i] if i in t else 1.0 - p[i]
    return prob


def all_coalitions(n: int) -> Iterable[frozenset[int]]:
    """Every coalition of 1..n in bitmask order (deterministic)."""
    for mask in range(1 << n):
        yield _players_of(mask)


def finite_difference(
    f: Callable[[ReliabilityProfile], float],
    profile: ProfileLike,
    j: int,
    h: float,
) -> float:
    """Central-difference slope of f in p_j, one-sided at the [0,1] boundary."""
    if h <= 0:
        raise DomainError(f"step h must be positive, got {h}")
    p = as_profile(profile)
    if not 1 <= j <= p.n:
        raise DomainError(f"player {j} outside 1..{p.n}")
    lo = max(0.0, p[j] - h)
    hi = min(1.0, p[j] + h)
    return (f(p.with_value(j, hi)) - f(p.with_value(j, lo))) / (hi - lo)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
