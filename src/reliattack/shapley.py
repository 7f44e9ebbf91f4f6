"""Exact Shapley values of games and their reliability extensions.

Two independent routes are provided and cross-checked by the test suite:

* :func:`shapley_definitional` - the permutation average itself, evaluated
  over every permutation with exact marginal expectations; the audit oracle.
* :func:`shapley_closed` - per-variant closed forms in the participation
  probabilities, polynomial in local neighborhood / author-list sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceLimitError
from .games import (
    ClosedNeighborhoodGame,
    CoverageGame,
    CreditInstance,
    FullObligationGame,
    Game,
    Graph,
    ThresholdNeighborhoodGame,
    _require_two_authors,
    coauthor_contributions,
)
from .reliability import (
    ProfileLike,
    ReliabilityProfile,
    as_profile,
    liveness_transform,
)

DEFAULT_PLAYER_CAP = 9


@dataclass(frozen=True)
class ShapleyVector:
    """Shapley values for players 1..n; sums to the grand-coalition value."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> float:
        if not 1 <= player <= self.n:
            raise DomainError(f"player {player} outside 1..{self.n}")
        return self.values[player - 1]

    def __iter__(self):
        return iter(self.values)

    def total(self) -> float:
        return sum(self.values)


def _int_dtype(largest: int) -> np.dtype:
    """Smallest signed integer dtype that holds ``largest``."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@lru_cache(maxsize=2)
def _permutation_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All n! permutations plus the coalition bitmasks before/after each
    position, as arrays of shape (n!, n) in the smallest integer dtypes that
    hold n - 1 and 2^n - 1."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, _int_dtype(n - 1), count=factorial(n) * n).reshape(factorial(n), n)
    bits = np.left_shift(np.ones(1, dtype=_int_dtype((1 << n) - 1)), perms)
    after = np.bitwise_or.accumulate(bits, axis=1)
    before = np.zeros_like(after)
    before[:, 1:] = after[:, :-1]
    return perms, before, after


def shapley_definitional(
    game: Game,
    profile: ProfileLike | None = None,
    *,
    player_cap: int = DEFAULT_PLAYER_CAP,
) -> ShapleyVector:
    """Shapley vector by full permutation enumeration (never sampling).

    With a profile, the marginals are exact expectations of the reliability
    extension; without one, the game itself is used.  Enumerating n! * 2^n
    terms is intentional - this is the oracle everything else is checked
    against - so n is limited by ``player_cap``.
    """
    n = game.n
    if n > player_cap:
        raise ResourceLimitError(
            f"n = {n} exceeds the definitional-oracle player cap ({player_cap})"
        )
    table = game.subset_values(range(1, n + 1))
    if profile is not None:
        table = liveness_transform(table, as_profile(profile, n).values)
    perms, before, after = _permutation_masks(n)
    marginals = table[after] - table[before]
    acc = np.zeros(n, dtype=np.float64)
    np.add.at(acc, perms.ravel(), marginals.ravel())
    return ShapleyVector(tuple(float(v) for v in acc / factorial(n)))


# ---------------------------------------------------------------------------
# Owen's integral for the coverage games (nc1, nc3, fc)
#
# If L counts the live players of a set B, then E[1 / (1 + L)] is the
# integral over [0, 1] of prod_{z in B} (1 - p_z + p_z t) dt (Owen's
# multilinear extension), and E[1 / ((1 + L)(2 + L))] is the same integral
# with the extra factor (1 - t).  Both integrands are polynomials, so
# Gauss-Legendre quadrature computes them exactly.

# Cap on the entries of one block (rows * |A| * nodes for Owen's integrand,
# rows * (|A| + 1) for nc2's pmf), so a large bucket or set is processed in
# pieces instead of as one huge array.
_BLOCK_ELEMENTS = 1 << 15


@lru_cache(maxsize=256)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of q-point Gauss-Legendre quadrature on [0, 1],
    exact for polynomials of degree up to 2q - 1.

    Newton's method on the roots of the Legendre polynomial P_q, evaluated
    by its three-term recurrence; numpy's polynomial package would cost
    about 2 MB of memory per process.
    """
    x = np.cos(np.pi * (np.arange(q) + 0.75) / (q + 0.5))
    step = np.inf
    for _ in range(100):
        lower, value = np.ones(q), x
        for k in range(2, q + 1):
            lower, value = value, ((2 * k - 1) * x * value - (k - 1) * lower) / k
        # P_q'(x); (x - 1)(x + 1) because x * x - 1 cancels near the ends
        slope = q * (x * value - lower) / ((x - 1.0) * (x + 1.0))
        # stopping only after the slope is evaluated at the last node keeps
        # the weights consistent with the nodes
        if np.abs(step).max() <= 1e-15:
            break
        step = value / slope
        x = x - step
    t, w = (1.0 - x) / 2.0, 1.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _owen_blocks(game: CoverageGame, p: np.ndarray, elements: np.ndarray):
    """Owen's integrand over the cover sets of ``elements``, in blocks.

    The elements are bucketed by the size a of their cover set A, and a
    bucket is cut into blocks of about ``_BLOCK_ELEMENTS`` entries: several
    sets at all Q = ceil(a / 2) nodes, or one set at some of its nodes when
    a set alone is larger.  A block yields ``(e, members, logs, total, t,
    w)``: its elements, their 0-based coverers of shape (rows, a),
    log(1 - p_z + p_z t) at the block's nodes t, of shape (rows, a, len(t)),
    the sum of those logs over each set, and the nodes and their weights w.
    An integral is the sum of its weighted values over all the blocks of
    its set.  A caller leaves a player's factor out of the product by
    subtracting its log from the total; every factor is at least t > 0, so
    exact 0s and 1s are safe.  Q nodes integrate the product over A minus
    one player exactly, and (1 - t) times the product over A minus two.
    """
    indptr, indices, _ = game._coverer_csr
    sizes = indptr[elements + 1] - indptr[elements]
    # np.unique would import numpy.ma, about 15 ms for a short-lived process
    for a in sorted(set(sizes.tolist()) - {0}):
        t, w = _gauss_legendre((a + 1) // 2)
        sel = elements[sizes == a]
        step = max(1, _BLOCK_ELEMENTS // (a * len(t)))
        span = max(1, _BLOCK_ELEMENTS // a)  # nodes per block of one set
        for lo in range(0, len(sel), step):
            e = sel[lo : lo + step]
            members = indices[indptr[e, None] + np.arange(a)]
            for q in range(0, len(t), span):
                nodes = t[q : q + span]
                logs = np.log1p(p[members][..., None] * (nodes - 1.0))
                yield e, members, logs, logs.sum(axis=1), nodes, w[q : q + span]


def _coverage_inner(game: CoverageGame, p: np.ndarray, x: int) -> float:
    """Sum over the elements e that x covers of w_e * E[1 / (1 + L)], where
    L counts the live coverers of e other than x; Sh_x is p_x times this."""
    total = 0.0
    for e, _, _, sums, t, w in _owen_blocks(game, p, game._covers[x]):
        total += game._weights[e] @ (np.exp(sums - np.log1p(p[x - 1] * (t - 1.0))) @ w)
    return float(total)


# ---------------------------------------------------------------------------
# closed forms


def _size_pmf(probs: list[float]) -> list[float]:
    """Distribution of the number of live players among independent
    Bernoulli(p) players: pmf[s] = P(exactly s live)."""
    pmf = [1.0]
    for q in probs:
        nxt = [0.0] * (len(pmf) + 1)
        for s, c in enumerate(pmf):
            nxt[s] += c * (1.0 - q)
            nxt[s + 1] += c * q
        pmf = nxt
    return pmf


def _nc2_inner(game: ThresholdNeighborhoodGame, p: ReliabilityProfile, x: int) -> float:
    graph, k = game.graph, game.threshold
    total = 0.0
    for y in sorted(graph.neighbors(x)):
        rest = sorted(graph.closed_neighborhood(y) - {x, y})
        pmf = _size_pmf([p[z] for z in rest])
        acc = 0.0
        for s1, c in enumerate(pmf):
            s = s1 + 1  # type-counted size when y itself is live
            alive = (s + 1 - k) / (s * (s + 1)) if s + 1 - k > 0 else 0.0
            dead = 1.0 / (s1 + 1) if s1 >= k - 1 else 0.0
            acc += c * (p[y] * alive + (1.0 - p[y]) * dead)
        total += acc
    nbrs = sorted(graph.neighbors(x))
    pmf = _size_pmf([p[z] for z in nbrs])
    total += sum(c * min(k, s + 1) / (s + 1) for s, c in enumerate(pmf))
    return total


def _fo_closed(game: FullObligationGame, p: ReliabilityProfile, x: int) -> float:
    total = 0.0
    for i in game.instance.papers_of(x):
        authors, score = game.instance.papers[i]
        prob = 1.0
        for l in sorted(authors):
            prob *= p[l]
        total += score / len(authors) * prob
    return total


def shapley_closed(game: Game, profile: ProfileLike, player: int) -> float:
    """Closed-form Shapley value of ``player`` in the reliability extension.

    Supports the five wire variants; table games have no closed form and must
    go through :func:`shapley_definitional`.
    """
    p = as_profile(profile, game.n)
    if not 1 <= player <= game.n:
        raise DomainError(f"player {player} outside 1..{game.n}")
    if isinstance(game, CoverageGame):
        return p[player] * _coverage_inner(game, np.array(p.values), player)
    if isinstance(game, ThresholdNeighborhoodGame):
        return p[player] * _nc2_inner(game, p, player)
    if isinstance(game, FullObligationGame):
        return _fo_closed(game, p, player)
    raise DomainError(
        f"no closed form for game variant {game.variant!r}; use shapley_definitional"
    )


# ---------------------------------------------------------------------------
# whole-vector closed forms
#
# nc2's closed form sums, over pairs (x, A) of a player and a set A = N(y),
# the quantity sum_s P(s players of A - {x} live) * w[s].  The vector path
# evaluates all pairs at once: it buckets them by |A|, runs the _size_pmf
# recurrence column by column over a block of rows (x's own entry set to 0,
# which adds no live player and leaves the arithmetic exact) and adds each
# row's dot product onto x.  The coverage games use Owen's integral instead.


def _pair_pmf_dots(
    p: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    pair_x: np.ndarray,
    pair_a: np.ndarray,
    weights: Callable[[int], np.ndarray],
) -> np.ndarray:
    """For each pair (x, A): sum_s P(s players of A - {x} live) * w[s].

    ``pair_x`` holds 0-based players and ``pair_a`` row numbers of the CSR
    cover sets; ``weights(d)`` gives the weight vectors for |A| = d, shape
    (d + 1,) or (d + 1, k).  Returns one row per pair, shaped like the weights.
    """
    sizes = np.diff(indptr)[pair_a]
    out = np.zeros((len(pair_x),) + weights(0).shape[1:])
    for d in sorted(set(sizes.tolist())):
        w = weights(d)
        sel = np.flatnonzero(sizes == d)
        step = max(1, _BLOCK_ELEMENTS // (d + 1))
        for lo in range(0, len(sel), step):
            rows = sel[lo : lo + step]
            members = indices[indptr[pair_a[rows], None] + np.arange(d)]
            probs = p[members]
            probs[members == pair_x[rows, None]] = 0.0
            pmf = np.zeros((len(rows), d + 1))
            pmf[:, 0] = 1.0
            for j in range(d):
                q = probs[:, j, None]
                live = pmf[:, : j + 1] * q
                pmf[:, : j + 1] *= 1.0 - q
                pmf[:, 1 : j + 2] += live
            out[rows] = pmf @ w
    return out


def _sizes(d: int) -> np.ndarray:
    """s + 1 for s = 0..d."""
    return np.arange(1.0, d + 2.0)


def _nc2_pair_weights(k: int):
    """Alive/dead weights of ``_nc2_inner`` for s1 live players of N(y) - {x}."""

    def weights(d: int) -> np.ndarray:
        s1 = np.arange(d + 1.0)
        s = s1 + 1.0
        alive = np.where(s + 1 - k > 0, (s + 1 - k) / (s * (s + 1)), 0.0)
        dead = np.where(s1 >= k - 1, 1.0 / (s1 + 1), 0.0)
        return np.stack([alive, dead], axis=1)

    return weights


def _coverage_vector(game: CoverageGame, p: np.ndarray) -> np.ndarray:
    """p_x * sum over the elements e that x covers of w_e * E[1 / (1 + live
    coverers of e other than x)], for every player x."""
    inner = np.zeros(len(p))
    elements = np.arange(len(game._weights))
    for e, members, logs, total, _, w in _owen_blocks(game, p, elements):
        vals = game._weights[e][:, None] * (np.exp(total[:, None, :] - logs) @ w)
        inner += np.bincount(members.ravel(), vals.ravel(), minlength=len(p))
    return p * inner


def _nc2_vector(game: ThresholdNeighborhoodGame, p: np.ndarray) -> np.ndarray:
    graph, k, n = game.graph, game.threshold, len(p)
    indptr, ys, xs = graph._nbr_csr
    alive, dead = _pair_pmf_dots(p, indptr, ys, xs, ys, _nc2_pair_weights(k)).T
    py = p[ys]
    # x's own term: s live neighbours of x, no removal
    own = np.arange(n)
    own_term = _pair_pmf_dots(
        p, indptr, ys, own, own, lambda d: np.minimum(k, _sizes(d)) / _sizes(d)
    )
    return p * (np.bincount(xs, py * alive + (1.0 - py) * dead, minlength=n) + own_term)


def _fo_vector(game: FullObligationGame, p: np.ndarray) -> np.ndarray:
    inst = game.instance
    indptr, authors, paper = inst._author_csr
    prods = np.multiply.reduceat(p[authors], indptr[:-1])
    vals = (inst._scores / np.diff(indptr) * prods)[paper]
    return np.bincount(authors, vals, minlength=len(p)).astype(np.float64)


def shapley_vector_closed(game: Game, profile: ProfileLike) -> ShapleyVector:
    """Closed-form Shapley values of every player, computed for all players
    at once; :func:`shapley_closed` is the per-player reference path."""
    prof = as_profile(profile, game.n)
    p = np.array(prof.values, dtype=np.float64)
    if isinstance(game, CoverageGame):
        vec = _coverage_vector(game, p)
    elif isinstance(game, ThresholdNeighborhoodGame):
        vec = _nc2_vector(game, p)
    elif isinstance(game, FullObligationGame):
        vec = _fo_vector(game, p)
    else:
        raise DomainError(
            f"no closed form for game variant {game.variant!r}; use shapley_definitional"
        )
    return ShapleyVector(tuple(vec.tolist()))


def shapley_fc_two_author(instance: CreditInstance, profile: ProfileLike, x: int) -> float:
    """Full-credit Shapley value of x when all of x's papers have exactly two
    authors: ``p_x * sum_l C(x,l) * (2 - p_l) / 2``."""
    p = as_profile(profile, instance.n)
    _require_two_authors(instance, x)
    contrib = coauthor_contributions(instance, x)
    return p[x] * sum(c * (2.0 - p[l]) / 2.0 for l, c in contrib.items())


def shapley_cycle_closed(profile: ProfileLike) -> float:
    """Shapley value of player 1 in the closed-neighborhood game on the cycle
    1-2-...-n-1 (n >= 5); only p_1, p_2, p_3, p_{n-1}, p_n enter:

    ``p_1 * ((p_2 p_n + p_2 p_3 + p_{n-1} p_n)/3 - (p_3 + p_{n-1})/2
    - p_2 - p_n + 3)``
    """
    p = as_profile(profile)
    n = p.n
    if n < 5:
        raise DomainError(
            f"cycle closed form needs n >= 5 (got n={n}); use shapley_definitional"
        )
    return p[1] * (
        (p[2] * p[n] + p[2] * p[3] + p[n - 1] * p[n]) / 3.0
        - (p[3] + p[n - 1]) / 2.0
        - p[2]
        - p[n]
        + 3.0
    )


# ---------------------------------------------------------------------------
# gradients


def _coverage_gradient(game: CoverageGame, p: ReliabilityProfile, x: int) -> tuple[float, ...]:
    """The entry for x is the inner sum of Sh_x = p_x * inner.  For j != x,
    dSh_x/dp_j = -p_x * sum over the elements e covered by x and j of
    w_e * E[1 / ((1 + L)(2 + L))], where L counts the live coverers of e
    other than x and j."""
    inner, slopes = 0.0, np.zeros(game.n)
    for e, members, logs, sums, t, w in _owen_blocks(game, np.array(p.values), game._covers[x]):
        rest = sums - np.log1p(p[x] * (t - 1.0))
        inner += game._weights[e] @ (np.exp(rest) @ w)
        # x's own column is meaningless here; its entry is the inner sum
        pairs = game._weights[e][:, None] * (np.exp(rest[:, None, :] - logs) @ (w * (1.0 - t)))
        slopes += np.bincount(members.ravel(), pairs.ravel(), minlength=game.n)
    out = 0.0 - p[x] * slopes  # unlike -y, 0.0 - y keeps unrelated players at +0.0
    out[x - 1] = inner
    return tuple(out.tolist())


def shapley_gradient_nc1(graph: Graph, profile: ProfileLike, x: int) -> tuple[float, ...]:
    """Gradient of the closed-neighborhood Shapley value of x in every p_j.

    Entries for j != x are nonpositive and vanish outside the distance-two
    ball of x; the entry for x itself is the (nonnegative) derivative in the
    target's own reliability.
    """
    return shapley_gradient(ClosedNeighborhoodGame(graph), profile, x)


def shapley_gradient(game: Game, profile: ProfileLike, x: int, *, step: float = 1e-6) -> tuple[float, ...]:
    """Gradient of the closed-form Shapley value of x in every p_j.

    Analytic for the coverage games (nc1, nc3 and fc); the threshold and
    full-obligation games are differentiated numerically (central
    differences of the closed form with step ``step``) as a cross-check
    surface.
    """
    p = as_profile(profile, game.n)
    if not 1 <= x <= game.n:
        raise DomainError(f"player {x} outside 1..{game.n}")
    if isinstance(game, CoverageGame):
        return _coverage_gradient(game, p, x)
    from .oracle import finite_difference  # oracle imports attacks, which imports this module

    f = lambda q: shapley_closed(game, q, x)
    return tuple(finite_difference(f, p, j, step) for j in range(1, game.n + 1))
