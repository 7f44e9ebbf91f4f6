"""Exact Shapley values of games and their reliability extensions.

Two independent routes are provided and cross-checked by the test suite:

* :func:`shapley_definitional` - the definition in its subset form, the
  weighted marginals over every coalition with exact expectations of the
  reliability extension; the audit oracle.  Its contraction of a
  coalition table, :func:`_table_shapley`, also serves the fractional
  oracle.
* the closed forms - one kernel per game family (coverage for nc1, nc3
  and fc; the threshold game nc2; the unanimity sum fo), polynomial in
  local neighborhood / author-list sizes.  :func:`shapley_vector_closed`
  runs it on all of a game's sets, and :func:`shapley_closed` on the sets
  that involve one player.

The tests also pin the closed forms to exact rational references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt

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
    _BLOCK_ELEMENTS,
    _as_player,
    _csr_rows,
    _popcount,
    _require_two_authors,
    _row,
    _size_groups,
    coauthor_contributions,
)
from .reliability import (
    ProfileLike,
    ReliabilityProfile,
    _low_order_pmfs,
    as_profile,
    liveness_transform,
)


@dataclass(frozen=True)
class ShapleyVector:
    """Shapley values for players 1..n; sums to the grand-coalition value."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> float:
        return self.values[_as_player(player, self.n) - 1]

    def __iter__(self):
        return iter(self.values)


# the most players whose 2^n coalition table the definitional route and the
# fractional oracle build
_TABLE_PLAYER_CAP = 16


@lru_cache(maxsize=32)
def _marginals(n: int, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coalitions S of n players without x, S + x, and the weights |S|!
    (n - 1 - |S|)! / n!, as read-only arrays; 32 entries hold a whole
    vector at n = 16 in about 12 MB."""
    xbit = 1 << (x - 1)
    rest = np.nonzero((np.arange(1 << n) & xbit) == 0)[0]
    weights = np.array([factorial(s) * factorial(n - 1 - s) / factorial(n) for s in range(n)])
    out = rest, rest | xbit, weights[_popcount(n)[rest]]
    for a in out:
        a.flags.writeable = False
    return out


def _table_shapley(table: np.ndarray, x: int) -> np.ndarray:
    """Shapley value of player x from values over all 2^n coalitions on the
    last axis of ``table`` (bit i of an index is player i + 1); leading axes
    broadcast.  The marginals v(S + x) - v(S) over the coalitions S without
    x, weighted by |S|! (n - 1 - |S|)! / n!, in O(2^n) per row."""
    rest, with_x, weights = _marginals(table.shape[-1].bit_length() - 1, x)
    return (table[..., with_x] - table[..., rest]) @ weights


def shapley_definitional(game: Game, profile: ProfileLike | None = None) -> ShapleyVector:
    """Shapley vector by the subset form of the definition (never sampling).

    With a profile, the marginals are exact expectations of the reliability
    extension; without one, the game itself is used.  Every coalition's
    value is computed, n * 2^n terms in all - this is the oracle everything
    else is checked against - so n is limited to ``_TABLE_PLAYER_CAP``.
    """
    n = game.n
    if n > _TABLE_PLAYER_CAP:
        raise ResourceLimitError(
            f"n = {n} exceeds the definitional-oracle player cap ({_TABLE_PLAYER_CAP})"
        )
    table = game.subset_values()
    if profile is not None:
        table = liveness_transform(table, as_profile(profile, n).values)
    return ShapleyVector(tuple(float(_table_shapley(table, x)) for x in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Owen's integral
#
# If L counts the live players of a set B, then E[1 / (1 + L)] is the
# integral over [0, 1] of prod_{z in B} (1 - p_z + p_z t) dt (Owen's
# multilinear extension), and E[1 / ((1 + L)(2 + L))] is the same integral
# with the extra factor (1 - t).  Both integrands are polynomials, so
# Gauss-Legendre quadrature computes them exactly.  The coverage games
# (nc1, nc3, fc) and the threshold game nc2 all read these integrals.

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


class _Batch:
    """Reliability profiles as the rows of a matrix ``P``: column j holds
    0-based player j, or, with a map ``col``, column ``col[j]`` does.
    Kernels gather from P (:meth:`take`) and add their terms (:meth:`add`)
    into an array of P's shape."""

    def __init__(self, P: np.ndarray, col: np.ndarray | None = None):
        self.P, self.col = P, col

    def columns(self, players: np.ndarray) -> np.ndarray:
        return players if self.col is None else self.col[players]

    def take(self, players: np.ndarray) -> np.ndarray:
        """The probabilities of ``players``, of shape (profiles,) +
        players.shape, C-contiguous (unlike ``P[:, cols]`` for several
        profiles)."""
        return np.take(self.P, self.columns(players), axis=1)

    def add(self, inner: np.ndarray, players: np.ndarray, vals: np.ndarray) -> None:
        """``inner[b, column of players[i]] += vals[b, i]``, added per
        profile in the order of ``players`` (one ``np.bincount``)."""
        cols = self.columns(players).ravel()
        if len(inner) > 1:  # the columns of profile b follow those of b - 1
            cols = (cols + inner.shape[1] * np.arange(len(inner))[:, None]).ravel()
        inner += np.bincount(cols, vals.ravel(), minlength=inner.size).reshape(inner.shape)


def _owen_blocks(csr: tuple[np.ndarray, ...], batch: _Batch, rows: np.ndarray, extra: int = 0):
    """Owen's integrand over the sets ``rows`` of a CSR of sets, in groups.

    The integrand of a set A of size a has degree a - 1 + ``extra`` (extra
    is 0 for the coverage games and 1 for nc2), so Q = (a - 1 + extra) // 2
    + 1 nodes integrate it exactly.  The rows run in the groups of
    :func:`reliattack.games._size_groups` at a cost of Q per entry, about
    ``_BLOCK_ELEMENTS`` entries per profile, the same for every batch.  A
    group yields ``(rows, members, probs, blocks)``: its rows, their 0-based
    players and their probabilities, member-major, of shapes (a, rows) and
    (profiles, a, rows), and its node blocks (all Q nodes, or some of them
    when one set alone is larger; see :func:`_owen_nodes`).  An integral is
    the sum of its weighted values over all the node blocks of its set.  A
    caller leaves a player's factor out of the product by subtracting its
    log from the total; every factor is at least t > 0, so exact 0s and 1s
    are safe.
    """
    nodes = lambda a: (a - 1 + extra) // 2 + 1
    for group, members in _size_groups(csr, rows, nodes):
        a = len(members)
        t, w = _gauss_legendre(nodes(a))
        probs = batch.take(members)
        yield group, members, probs, _owen_nodes(probs, t, w, max(1, _BLOCK_ELEMENTS // a))


def _owen_nodes(probs: np.ndarray, t: np.ndarray, w: np.ndarray, span: int):
    """The node blocks of sets whose probabilities ``probs`` are of shape
    (..., a, rows), column i one set's: ``span`` nodes of ``t`` at a time.
    A node block is ``(logs, total, t, w)``: log(1 - p_z + p_z t) at the
    block's nodes t, of shape (..., a, rows, len(t)), its sum over each
    set's members, the leading axis a, of shape (..., rows, len(t)), and
    the nodes and their weights w."""
    for q in range(0, len(t), span):
        nodes = t[q : q + span]
        logs = np.log1p(probs[..., None] * (nodes - 1.0))
        yield logs, logs.sum(axis=-3), nodes, w[q : q + span]


# ---------------------------------------------------------------------------
# closed forms
#
# One kernel per game family, over the sets of the game's ``_set_csr``: the
# coverage games and nc2 by Owen's integral, fo by one product per paper.
# A kernel returns an array of the batch's shape, the value of each
# column's player at each profile; the value of x is exact when every set
# in row x - 1 of ``_sets_of`` is among those passed.  The whole vector
# passes every set, and the value of one player x passes only x's sets.


def _coverage_vector(game: CoverageGame, batch: _Batch, sets: np.ndarray) -> np.ndarray:
    """p_x * sum over the elements e that x covers of w_e * E[1 / (1 + live
    coverers of e other than x)], over the elements ``sets``."""
    inner = np.zeros(batch.P.shape)
    for e, members, _, blocks in _owen_blocks(game._set_csr, batch, sets):
        for logs, total, _, w in blocks:
            f = total[..., None, :, :] - logs
            vals = game._weights[e] * (np.exp(f, out=f) @ w)
            batch.add(inner, members, vals)
    return batch.P * inner


def _nc2_vector(game: ThresholdNeighborhoodGame, batch: _Batch, sets: np.ndarray) -> np.ndarray:
    """The threshold game by Owen's integral, over the rows ``sets`` of
    N(y).  Sh_x is p_x times the sum of x's own term and one pair term per
    neighbour y.  With A = N(y) and L the live players of A - {x}, the pair
    term of (x, y) is E[1 / (1 + L)] - k p_y E[1 / ((1 + L)(2 + L))] and
    y's own term is k E[1 / (1 + live players of A)], both less the
    threshold's correction at the sizes s < k - 1, where the true weights
    are 0 and 1.  A k above |A| + 1 is cut to |A| + 1: the weights stay all
    0 and 1, and the terms that cancel stay of size |A|, not k."""
    inner = np.zeros(batch.P.shape)
    indptr = game._set_csr[0]
    inner[:, batch.columns(sets[indptr[sets + 1] - indptr[sets] == 0])] = 1.0  # isolated: own term
    for ys, members, probs, blocks in _owen_blocks(game._set_csr, batch, sets, 1):
        k = min(game.threshold, len(members) + 1)
        s1 = np.arange(1.0, k)
        py = batch.take(ys)[:, None]
        full, loo = _low_order_pmfs(probs, k - 1)  # the threshold's correction
        own = full @ (1.0 - k / s1)
        pair = k * py * (loo @ (1.0 / (s1 * (s1 + 1.0)))) - loo @ (1.0 / s1)
        for logs, total, t, w in blocks:
            f = total[..., None, :, :] - logs
            np.exp(f, out=f)
            pair += f @ w - k * py * (f @ (w * (1.0 - t)))
            own += k * (np.exp(total) @ w)
        batch.add(inner, ys, own)
        batch.add(inner, members, pair)
    return batch.P * inner


def _fo_vector(game: FullObligationGame, batch: _Batch, sets: np.ndarray) -> np.ndarray:
    """Sum over x's papers P of score_P / |P| * prod_{l in P} p_l, over the
    papers ``sets``."""
    authors, sizes = _csr_rows(game._set_csr, sets)
    prods = np.multiply.reduceat(batch.take(authors), np.cumsum(sizes) - sizes, axis=1)
    inner = np.zeros(batch.P.shape)
    batch.add(inner, authors, np.repeat(game.instance._scores[sets] / sizes * prods, sizes, axis=1))
    return inner


def _kernel(game: Game):
    if isinstance(game, CoverageGame):
        return _coverage_vector
    if isinstance(game, ThresholdNeighborhoodGame):
        return _nc2_vector
    if isinstance(game, FullObligationGame):
        return _fo_vector
    raise DomainError(
        f"no closed form for game variant {game.variant!r}; use shapley_definitional"
    )


def _window(game: Game, x: int) -> np.ndarray:
    """x and the members of x's sets, 0-based and sorted: the players whose
    probabilities enter Sh_x."""
    members, _ = _csr_rows(game._set_csr, _row(game._sets_of, x - 1))
    return np.array(sorted({x - 1, *members.tolist()}), dtype=np.intp)


def _shapley_batch(game: Game, p: np.ndarray, x: int, window=None, rows=None) -> np.ndarray:
    """Closed-form Sh_x at p, or at each profile that equals p except on the
    0-based players ``window``, which take a row of ``rows``: the game's
    kernel on x's sets.  A batch's matrix has a column for each player of
    x's window and of ``window``, and runs as many profiles at a time as
    keep its blocks within ``_BLOCK_ELEMENTS`` entries.  A row gives the
    same floats as the call at its profile alone."""
    kernel, sets = _kernel(game), _row(game._sets_of, x - 1)
    if rows is None:
        return kernel(game, _Batch(p[None]), sets)[:, x - 1]
    indptr = game._set_csr[0]
    sizes = indptr[sets + 1] - indptr[sets]  # a set of size a takes at most a * (a // 2 + 1)
    step = max(1, _BLOCK_ELEMENTS // max(1, int(sizes @ (sizes // 2 + 1))))
    used = np.zeros(len(p), dtype=bool)
    used[_window(game, x)] = used[window] = True
    col = np.cumsum(used) - 1  # the column of each used player, in player order
    P = np.repeat(p[used][None], len(rows), axis=0)
    P[:, col[window]] = rows
    pieces = (_Batch(P[i : i + step], col) for i in range(0, len(P), step))
    return np.concatenate([kernel(game, batch, sets)[:, col[x - 1]] for batch in pieces])


def shapley_closed(game: Game, profile: ProfileLike, player: int) -> float:
    """Closed-form Shapley value of ``player`` in the reliability extension:
    the game's kernel run on the player's own sets.

    Supports the five wire variants; table games have no closed form and must
    go through :func:`shapley_definitional`.
    """
    p = as_profile(profile, game.n)
    player = _as_player(player, game.n)
    return float(_shapley_batch(game, p._array, player)[0])


def shapley_vector_closed(game: Game, profile: ProfileLike) -> ShapleyVector:
    """Closed-form Shapley values of every player: the game's kernel run on
    all of its sets at once."""
    prof = as_profile(profile, game.n)
    kernel = _kernel(game)
    batch = _Batch(prof._array[None])
    sets = np.arange(len(game._set_csr[0]) - 1)
    return ShapleyVector(tuple(kernel(game, batch, sets)[0].tolist()))


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
    other than x and j.

    x's element sets run in a few padded blocks, not one block per set
    size.  Sorted by size, the sets fill each block in turn while rows *
    width * nodes stays within ``_BLOCK_ELEMENTS``.  A block is as wide as
    its widest set and takes that set's Gauss-Legendre rule, which is exact
    for the narrower sets too.  A narrower set is padded with probability-0
    entries: log1p(0 * (t - 1)) is exactly -0.0, a factor of exactly 1 in
    every product, and the scatter skips them.  x's own probability is set
    to 0 too, which leaves x out of L.  A block is member-major, of shape
    (width, rows) like the groups of the vector kernels, and is filled and
    read through the transposed view of its row-major mask of real entries.
    A lone set wider than the cap is cut along its nodes by
    :func:`_owen_nodes`.  The members' probabilities are gathered once per
    call, from the profile's array with x's entry zeroed on a copy, and
    sliced per block.
    """
    indptr = game._set_csr[0]
    rows = _row(game._covers, x - 1)
    rows = rows[np.argsort(indptr[rows + 1] - indptr[rows], kind="stable")]
    members, sizes = _csr_rows(game._set_csr, rows)
    P = p._array.copy()
    px, P[x - 1] = P[x - 1], 0.0
    probs = P[members]
    # sets i..j - 1 share a block when (j - i) * cost[j - 1] is within the cap,
    # that is when first[j - 1] <= i; first increases strictly with j
    cost = sizes * ((sizes - 1) // 2 + 1)
    first = np.arange(1, len(rows) + 1) - _BLOCK_ELEMENTS // cost
    ends = np.cumsum(sizes)
    own, pairs = np.zeros(len(rows)), np.zeros(len(members))
    i = 0
    while i < len(rows):
        j = max(i + 1, int(first.searchsorted(i, "right")))
        lo, hi, a = ends[i] - sizes[i], ends[j - 1], sizes[j - 1]
        real = np.arange(a) < sizes[i:j, None]  # row-major, as members are
        block = np.zeros((a, j - i))
        block.T[real] = probs[lo:hi]
        t, w = _gauss_legendre((a - 1) // 2 + 1)
        for logs, rest, t, w in _owen_nodes(block, t, w, max(1, _BLOCK_ELEMENTS // block.size)):
            own[i:j] += np.exp(rest) @ w
            # x's own pair value is meaningless here; its entry is the inner sum
            loo = rest - logs
            pairs[lo:hi] += (np.exp(loo, out=loo) @ (w * (1.0 - t))).T[real]
        i = j
    weights = game._weights[rows]
    slopes = np.bincount(members, np.repeat(weights, sizes) * pairs, minlength=game.n)
    out = 0.0 - px * slopes  # unlike -y, 0.0 - y keeps unrelated players at +0.0
    out[x - 1] = weights @ own
    return tuple(out.tolist())


def shapley_gradient_nc1(graph: Graph, profile: ProfileLike, x: int) -> tuple[float, ...]:
    """Gradient of the closed-neighborhood Shapley value of x in every p_j.

    Entries for j != x are nonpositive and vanish outside the distance-two
    ball of x; the entry for x itself is the (nonnegative) derivative in the
    target's own reliability.
    """
    return shapley_gradient(ClosedNeighborhoodGame(graph), profile, x)


def shapley_gradient(game: Game, profile: ProfileLike, x: int) -> tuple[float, ...]:
    """Gradient of the closed-form Shapley value of x in every p_j.

    Analytic for the coverage games (nc1, nc3 and fc): x's element sets,
    sorted by size, run in a few blocks, each padded to its widest set
    (see :func:`_coverage_gradient`).  For the threshold and
    full-obligation games entry j is ``Sh_x(p_j = 1) - Sh_x(p_j = 0)`` of
    the closed form: Sh_x is multilinear in every p_j (Owen 1972), so this
    two-point difference is the derivative exactly.  Only the players of
    x's sets enter Sh_x, so their two points form one batch of profiles (in
    pieces of at most 2 * 128 rows) and every other entry is 0.
    """
    p, x = as_profile(profile, game.n), _as_player(x, game.n)
    if isinstance(game, CoverageGame):
        return _coverage_gradient(game, p, x)
    _kernel(game)  # a game without a closed form stops here
    base, out, window = p._array, np.zeros(game.n), _window(game, x)
    step = isqrt(_BLOCK_ELEMENTS // 2)
    for cols in (window[i : i + step] for i in range(0, len(window), step)):
        i = np.arange(len(cols))
        rows = np.repeat(base[cols][None], 2 * len(cols), axis=0)
        rows[2 * i, i], rows[2 * i + 1, i] = 1.0, 0.0
        values = _shapley_batch(game, base, x, cols, rows)
        out[cols] = values[0::2] - values[1::2]
    return tuple(out.tolist())
