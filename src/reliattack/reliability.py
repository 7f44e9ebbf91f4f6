"""Reliability extension: independent per-player participation.

For a profile ``p`` and coalitions ``T <= S``, the probability that exactly
the players of T are live among S is
``pi(T, S, p) = prod_{i in T} p_i * prod_{i in S - T} (1 - p_i)``.  The
reliability extension of a game v is
``vbar(S) = sum_{T<=S} v(T) * pi(T, S, p)``, Owen's multilinear extension
of v at the profile q that is p on S and 0 elsewhere (Owen, Management
Science 18(5), 1972).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError
from .games import (
    Coalition,
    CoverageGame,
    FullObligationGame,
    Game,
    ThresholdNeighborhoodGame,
    _as_player,
    _as_playerset,
    _row_reduce,
    _size_groups,
)


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-player participation probabilities, indexed 1..n."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for i, v in enumerate(self.values, start=1):
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"p_{i} = {v} outside [0, 1]")

    @classmethod
    def ones(cls, n: int) -> "ReliabilityProfile":
        return cls((1.0,) * n)

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> float:
        return self.values[_as_player(player, self.n) - 1]

    def __iter__(self):
        return iter(self.values)

    @cached_property
    def _array(self) -> np.ndarray:
        """``values`` as a read-only float64 array, converted on first use;
        np.fromiter converts the tuple about twice as fast as np.array."""
        out = np.fromiter(self.values, float, self.n)
        out.flags.writeable = False
        return out

    def with_value(self, player: int, p: float) -> "ReliabilityProfile":
        return self.with_values({player: p})

    def with_values(self, changes: dict[int, float]) -> "ReliabilityProfile":
        vals = list(self.values)
        for player, p in changes.items():
            vals[_as_player(player, self.n) - 1] = p
        return ReliabilityProfile(tuple(vals))


ProfileLike = ReliabilityProfile | Sequence[float]


def as_profile(p: ProfileLike, n: int | None = None) -> ReliabilityProfile:
    prof = p if isinstance(p, ReliabilityProfile) else ReliabilityProfile(tuple(p))
    if n is not None and prof.n != n:
        raise DomainError(f"profile has {prof.n} entries, expected {n}")
    return prof


def liveness_transform(table: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Reliability extension of set functions given as tables over submasks.

    ``table`` holds values over the 2^m submasks of m players on its last
    axis (bit i of an index is player i), ``probs`` their participation
    probabilities with shape ``(..., m)``; leading axes broadcast, so one
    call transforms a batch of profile rows.  Folds in each player's
    liveness in turn, ``v[S | i] <- p_i * v[S | i] + (1 - p_i) * v[S]``,
    in O(m * 2^m) per row; entry T of the result is
    ``sum_{U <= T} table[U] * pi(U, T, probs)``, pi as in the module
    docstring.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[-1]
    size = np.shape(table)[-1]
    if size != 1 << m:
        raise DomainError(f"table of {size} entries does not span 2^{m} submasks")
    batch = np.broadcast_shapes(np.shape(table)[:-1], probs.shape[:-1])
    out = np.array(np.broadcast_to(table, batch + (size,)), dtype=np.float64)
    for i in range(m):
        halves = out.reshape(batch + (size >> (i + 1), 2, 1 << i))
        p_i = probs[..., i, None, None]
        live = halves[..., 1, :]
        live *= p_i
        live += (1.0 - p_i) * halves[..., 0, :]
    return out


def _fold(table: np.ndarray, probs) -> np.ndarray:
    """Fold the probabilities ``probs[0], probs[1], ...`` into ``table``, its
    submasks on the first axis, lowest bit first: each step pairs the
    entries that differ in the lowest remaining bit,
    ``table <- p * table[1::2] + (1 - p) * table[0::2]``, and halves the
    table.  Each ``p`` broadcasts against ``table[0]``."""
    for p in probs:
        table = p * table[1::2] + (1.0 - p) * table[0::2]
    return table


def _low_order_pmfs(probs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For each set of ``probs`` (shape (..., a, rows), member-major as the
    groups of :func:`reliattack.games._size_groups`), P(s of its players
    live) and, for each j, P(s of its players other than its j-th live), for
    s < m: shapes (..., rows, m) and (..., a, rows, m).  Prefix and suffix
    pmfs truncated at m, combined without division, so exact 0s and 1s are
    safe."""
    a = probs.shape[-2]
    both = np.array((probs, probs[..., ::-1, :]))  # the suffixes are prefixes of the reversed sets
    pmf = np.zeros(both.shape[:-2] + (a + 1, probs.shape[-1], m))  # pmf[..., j, r, s]: s of the first j live
    pmf[..., 0, :, :1] = 1.0
    pmf[..., 1:, :, :1] = np.cumprod(1.0 - both, axis=-2)[..., None]
    if m > 1:  # the columns s >= 1 need the recurrence
        for j in range(a):
            q = both[..., j, :, None]
            pmf[..., j + 1, :, 1:] = pmf[..., j, :, 1:] * (1.0 - q) + pmf[..., j, :, :-1] * q
    pre, suf = pmf[0, ..., :a, :, :], pmf[1, ..., a - 1 :: -1, :, :]  # players before j, after j
    loo = np.empty(probs.shape + (m,))
    for s in range(m):
        loo[..., s] = (pre[..., : s + 1] * suf[..., s::-1]).sum(axis=-1)
    return pmf[0, ..., a, :, :], loo


def _multilinear(game: Game, q: np.ndarray) -> float:
    """Owen's multilinear extension of ``game`` at the 0-based profile ``q``,
    over the sets of its ``_set_csr``:
    sum_e w_e (1 - prod_{i covers e} (1 - q_i)) for coverage,
    sum_P score_P prod_{a in P} q_a for full obligation, and
    sum_y q_y + (1 - q_y) P(at least k of N(y) live) for the threshold game."""
    if isinstance(game, CoverageGame):
        return float(game._weights @ (1.0 - _row_reduce(game._set_csr, 1.0 - q, np.multiply)))
    if isinstance(game, FullObligationGame):
        return float(game.instance._scores @ _row_reduce(game._set_csr, q, np.multiply))
    if not isinstance(game, ThresholdNeighborhoodGame):
        raise DomainError(
            f"no closed form for game variant {game.variant!r}; use shapley_definitional"
        )
    sizes, k = np.diff(game._set_csr[0]), game.threshold
    tails = np.zeros(len(sizes))
    # a row smaller than k never reaches k; the pmfs hold about a * k entries per row
    for rows, members in _size_groups(game._set_csr, np.flatnonzero(sizes >= k), lambda a: k):
        pmf, _ = _low_order_pmfs(q[members], k)
        tails[rows] = 1.0 - pmf.sum(axis=-1)
    return float(q.sum() + (1.0 - q) @ tails)


def reliability_value(game: Game, profile: ProfileLike, coalition: Coalition) -> float:
    """Value of the reliability extension of ``game`` at ``coalition``.

    Exact, for any ``|S|``: the five paper games evaluate their multilinear
    extension at the profile restricted to the coalition.  Any other game
    raises :class:`DomainError`; :func:`liveness_transform` on its
    :meth:`Game.subset_values` gives its values instead.
    """
    p = as_profile(profile, game.n)
    s = _as_playerset(coalition, game.n)
    members = np.fromiter(s, np.intp, len(s)) - 1
    q = np.zeros(game.n)
    q[members] = p._array[members]
    return _multilinear(game, q)
