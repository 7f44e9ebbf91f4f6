"""Graphs, coauthorship instances and the five coalition value functions.

Players are the integers ``1..n``.  Coalitions are plain sets of players;
internally every game also evaluates coalitions given as bitmasks (bit
``i-1`` set means player ``i`` is in), which is what the exact Shapley
machinery iterates over.
"""

from __future__ import annotations

import heapq
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError

Coalition = Iterable[int]


def _integer(x) -> int | None:
    """``x`` as an int if it is an int or a numpy integer, else None (bools
    too): the one type rule for a player, alone or in a set."""
    if type(x) is int:  # a plain int skips the slow numbers.Integral check
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        return None
    return int(x)


def _as_playerset(players: Coalition, n: int, what: str = "coalition") -> frozenset[int]:
    out = []  # bools are checked before a set merges True with 1
    for x in players:
        i = _integer(x)
        if i is None or not 1 <= i <= n:
            raise DomainError(f"{what} contains player {x!r}, expected integers in 1..{n}")
        out.append(i)
    return frozenset(out)


def _as_int(value, what: str) -> int:
    """``value`` as an int; bools and non-integral numbers are rejected
    instead of truncated."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _as_player(x, n: int, what: str = "player") -> int:
    """``x`` as a player of 1..n; bools and non-integers (numpy integers
    pass) are rejected."""
    i = _integer(x)
    if i is None:
        raise DomainError(f"{what} must be an integer, got {x!r}")
    if not 1 <= i <= n:
        raise DomainError(f"{what} {i} outside 1..{n}")
    return i


def _as_finite(value, what: str) -> float:
    """``value`` as a float; bools, non-numbers and infinite or NaN values
    are rejected."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            out = float(value)
        except OverflowError:  # an int beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise DomainError(f"{what} must be a finite number, got {value!r}")


def _as_list(value, what: str) -> list:
    """``value`` as a list; anything but a list or a tuple is rejected."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise DomainError(f"{what} must be a list, got {value!r}")


def _mask_of(players: Iterable[int]) -> int:
    m = 0
    for x in players:
        m |= 1 << (x - 1)
    return m


def _players_of(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on players ``1..n``.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``.  ``weights``,
    when present, is parallel to ``edges`` and strictly positive.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None
    _adj: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"graph needs at least one player, got n={self.n}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"self-loop at player {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise DomainError(f"edge ({u},{v}) has endpoint outside 1..{self.n}")
            if u > v:
                raise DomainError(f"edge ({u},{v}) not normalized as (min,max)")
            if (u, v) in seen:
                raise DomainError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise DomainError("weights must be parallel to edges")
            for (u, v), w in zip(self.edges, self.weights):
                if not 0 < w < math.inf:
                    raise DomainError(
                        f"edge ({u},{v}) weight {w} is not a finite positive number"
                    )
        adj = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(a) for a in adj))

    @cached_property
    def _wadj(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per player, its ``(neighbor, weight)`` pairs sorted by neighbor."""
        wadj: list[list[tuple[int, float]]] = [[] for _ in range(self.n + 1)]
        for (u, v), w in self.edge_weight_items():
            wadj[u].append((v, w))
            wadj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in wadj)

    @cached_property
    def _closed_rows(self) -> tuple[np.ndarray, ...]:
        """Per player, its closed neighborhood as a sorted index array
        (entry 0 is empty)."""
        return _index_rows([()] + [a | {x} for x, a in enumerate(self._adj) if x])

    @cached_property
    def _closed_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``_closed_rows`` in CSR form (row 0 is empty)."""
        return _csr(self._closed_rows)

    @classmethod
    def of(cls, n: int, edges: Iterable[Sequence[float]]) -> "Graph":
        """Build from ``[u, v]`` or ``[u, v, w]`` items, normalizing endpoint order."""
        plain: list[tuple[int, int]] = []
        wts: list[float] = []
        weighted = None
        for e in edges:
            e = _as_list(e, "edge")
            if len(e) not in (2, 3):
                raise DomainError(f"edge {e} must be [u, v] or [u, v, w]")
            u, v = e[0], e[1]
            if type(u) is not int or type(v) is not int:
                u, v = (_as_int(end, f"endpoint of edge {e}") for end in (u, v))
            if u > v:
                u, v = v, u
            plain.append((u, v))
            if len(e) == 3:
                if weighted is False:
                    raise DomainError("mixed weighted and unweighted edges")
                weighted = True
                wts.append(_as_finite(e[2], f"edge ({u},{v}) weight"))
            else:
                if weighted is True:
                    raise DomainError("mixed weighted and unweighted edges")
                weighted = False
        order = sorted(range(len(plain)), key=lambda i: plain[i])
        return cls(
            n,
            tuple(plain[i] for i in order),
            tuple(wts[i] for i in order) if weighted else None,
        )

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def neighbors(self, x: int) -> frozenset[int]:
        return self._adj[_as_player(x, self.n)]

    def closed_neighborhood(self, x: int) -> frozenset[int]:
        return self.neighbors(x) | {x}

    def edge_weight_items(self) -> list[tuple[tuple[int, int], float]]:
        if self.weights is None:
            return [(e, 1.0) for e in self.edges]
        return list(zip(self.edges, self.weights))


def ball(graph: Graph, coalition: Coalition, radius: float) -> frozenset[int]:
    """Players within (weighted) shortest-path distance ``radius`` of the
    coalition; distance ties at exactly ``radius`` are included.

    Unweighted graphs use hop distance.  An empty coalition has an empty ball.
    """
    if radius < 0:
        raise DomainError(f"radius {radius} is negative")
    s = _as_playerset(coalition, graph.n)
    if not s:
        return frozenset()
    # Paths are only extended while they stay within the radius; with positive
    # weights that leaves every distance <= radius as plain Dijkstra finds it.
    dist = {x: 0.0 for x in s}
    pq: list[tuple[float, int]] = [(0.0, x) for x in sorted(s)]
    heapq.heapify(pq)
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in graph._wadj[u]:
            nd = d + w
            if nd <= radius and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return frozenset(dist)


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def is_complete(graph: Graph) -> bool:
    return len(graph.edges) == graph.n * (graph.n - 1) // 2


def star_center(graph: Graph) -> int | None:
    """Center of a star graph (one hub adjacent to all others, no other
    edges), or None if the graph is not a star.  Requires n >= 3."""
    if graph.n < 3 or len(graph.edges) != graph.n - 1:
        return None
    for c in range(1, graph.n + 1):
        if len(graph.neighbors(c)) == graph.n - 1:
            return c
    return None


def cycle_sequence(graph: Graph) -> tuple[int, ...] | None:
    """Players of a cycle graph in cyclic order starting at player 1,
    stepping first to 1's smaller-indexed neighbor; None if not a cycle."""
    n = graph.n
    if n < 3 or len(graph.edges) != n:
        return None
    if any(len(graph.neighbors(v)) != 2 for v in range(1, n + 1)):
        return None
    seq = [1, min(graph.neighbors(1))]
    while len(seq) < n:
        nxt = graph.neighbors(seq[-1]) - {seq[-2]}
        if len(nxt) != 1:
            return None
        seq.append(next(iter(nxt)))
    if seq[0] not in graph.neighbors(seq[-1]) or len(set(seq)) != n:
        return None
    return tuple(seq)


# ---------------------------------------------------------------------------
# coauthorship


@dataclass(frozen=True)
class CreditInstance:
    """Authors ``1..n`` plus papers, each a nonempty author set with a
    nonnegative score."""

    n: int
    papers: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"need at least one author, got n={self.n}")
        norm = []
        for i, (authors, score) in enumerate(self.papers):
            authors = _as_playerset(authors, self.n, "author set")
            if not authors:
                raise DomainError(f"paper {i} has an empty author set")
            if not math.isfinite(score):
                raise DomainError(f"paper score {score} is not finite")
            if score < 0:
                raise DomainError(f"paper score {score} is negative")
            norm.append((authors, float(score)))
        # every coalition value and Shapley value is at most this total
        if not math.isfinite(sum(score for _, score in norm)):
            raise DomainError("paper scores sum past the largest float")
        object.__setattr__(self, "papers", tuple(norm))

    @classmethod
    def of(cls, n: int, papers: Iterable[tuple[Iterable[int], float]]) -> "CreditInstance":
        scored = [(a, _as_finite(s, f"score of paper {i}")) for i, (a, s) in enumerate(papers)]
        return cls(n, tuple((tuple(a), s) for a, s in scored))

    @cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """Per author, the indices of their papers (entry 0 is empty)."""
        return _transpose(_index_rows(authors for authors, _ in self.papers), self.n + 1)

    @cached_property
    def _author_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The authors of each paper in CSR form, one row per paper."""
        return _csr(_index_rows(authors for authors, _ in self.papers))

    @cached_property
    def _scores(self) -> np.ndarray:
        return np.array([score for _, score in self.papers], dtype=np.float64)

    def papers_of(self, x: int) -> list[int]:
        """Indices (0-based into ``papers``) of the papers authored by x."""
        return self._rows[_as_player(x, self.n)].tolist()

    def coauthors(self, x: int) -> frozenset[int]:
        out: set[int] = set()
        for i in self.papers_of(x):
            out |= self.papers[i][0]
        return frozenset(out - {x})


def coauthor_contributions(instance: CreditInstance, x: int) -> dict[int, float]:
    """Joint contribution of x with each coauthor: the total score of their
    shared papers.  Players with no shared paper are absent from the map."""
    contrib: dict[int, float] = {}
    for i in instance.papers_of(x):
        authors, score = instance.papers[i]
        for l in authors:
            if l != x:
                contrib[l] = contrib.get(l, 0.0) + score
    return {l: contrib[l] for l in sorted(contrib)}


def _require_two_authors(instance: CreditInstance, x: int) -> None:
    """Raise unless every paper of x has exactly two authors."""
    for i in instance.papers_of(x):
        authors = instance.papers[i][0]
        if len(authors) != 2:
            raise DomainError(
                f"paper {sorted(authors)} of player {x} has {len(authors)} authors, expected 2"
            )


# ---------------------------------------------------------------------------
# games


def _index_rows(sets: Iterable[Iterable[int]]) -> tuple[np.ndarray, ...]:
    return tuple(np.fromiter(sorted(s), np.intp) for s in sets)


def _csr(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """CSR form of index rows of players: row pointer, and the 0-based
    players of each row in row order."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    # the leading empty array lets an empty list of rows concatenate
    return indptr, np.concatenate((np.empty(0, np.intp), *rows)) - 1


def _csr_rows(csr: tuple[np.ndarray, ...], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based players of the CSR rows ``rows``, concatenated in order,
    and the size of each of those rows."""
    indptr, indices = csr
    sizes = indptr[rows + 1] - indptr[rows]
    offsets = np.repeat(indptr[rows] - (np.cumsum(sizes) - sizes), sizes)
    return indices[offsets + np.arange(len(offsets))], sizes


# Cap on the entries of one block (profiles * rows * |A| * cost, such as
# nodes), so that large buckets, sets and batches are processed in pieces.
_BLOCK_ELEMENTS = 1 << 15


def _size_groups(csr: tuple[np.ndarray, ...], rows: np.ndarray, cost):
    """The nonempty rows ``rows`` of a CSR of sets, bucketed by their size a
    in increasing order, each bucket cut in order into groups of at most
    ``_BLOCK_ELEMENTS // (a * cost(a))`` rows (at least one).  Yields each
    group's rows and their 0-based players, of shape (rows, a)."""
    indptr, indices = csr
    sizes = indptr[rows + 1] - indptr[rows]
    # np.unique would import numpy.ma, about 15 ms for a short-lived process
    for a in sorted(set(sizes.tolist()) - {0}):
        bucket = rows[sizes == a]
        step = max(1, _BLOCK_ELEMENTS // (a * cost(a)))
        for group in (bucket[i : i + step] for i in range(0, len(bucket), step)):
            yield group, indices[indptr[group, None] + np.arange(a)]


def _transpose(rows: Sequence[np.ndarray], size: int) -> tuple[np.ndarray, ...]:
    """Per element 0..size-1, the sorted indices of the rows that hold it."""
    flat = np.concatenate((np.empty(0, np.intp), *rows))  # an empty list of rows too
    owners = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    ends = np.cumsum(np.bincount(flat, minlength=size))
    # splitting at all size ends leaves one empty piece after the last
    return tuple(np.split(owners[np.argsort(flat, kind="stable")], ends)[:-1])


def _hits(rows: Sequence[np.ndarray], players: Iterable[int], size: int) -> np.ndarray:
    """Per element, how many of ``players`` have it in their row."""
    idx = [rows[x] for x in players]
    if not idx:
        return np.zeros(size, np.int64)
    return np.bincount(np.concatenate(idx), minlength=size)


def _codes(rows: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Per element, the bitmask coalition of the players whose row holds it
    (``rows[x]`` for player x; ``rows[0]`` is not read)."""
    codes = np.zeros(size, np.int64)
    for x in range(1, len(rows)):
        codes[rows[x]] |= 1 << (x - 1)
    return codes


def _zeta(table: np.ndarray) -> np.ndarray:
    """Subset sums in place: entry T becomes the sum of the entries U <= T
    (bitwise), in O(m * 2^m) for 2^m entries."""
    step = 1
    while step < table.shape[0]:
        halves = table.reshape(-1, 2, step)
        halves[:, 1, :] += halves[:, 0, :]
        step <<= 1
    return table


@lru_cache(maxsize=4)
def _popcount(m: int) -> np.ndarray:
    """Number of set bits of every index below 2^m."""
    counts = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        counts.reshape(-1, 2, 1 << i)[:, 1, :] += 1
    return counts


class Game(ABC):
    """A coalition value function on players ``1..n`` with ``value({}) == 0``."""

    variant: str
    n: int

    def value(self, coalition: Coalition) -> float:
        return self.value_mask(_mask_of(_as_playerset(coalition, self.n)))

    @abstractmethod
    def value_mask(self, mask: int) -> float:
        """Coalition value for a bitmask coalition (bit i-1 <=> player i)."""

    @abstractmethod
    def subset_values(self) -> np.ndarray:
        """Float64 values of all 2^n coalitions: entry r is the value of the
        bitmask coalition r, the submask order that
        :func:`reliattack.reliability.liveness_transform` reads.  The five
        paper games fill it with numpy transforms, without a
        :meth:`value_mask` call per entry.
        """


class CoverageGame(Game):
    """Weighted coverage: a coalition earns the weight of every element that
    at least one member covers.

    A subclass supplies the incidence as ``_covers``, per player the sorted
    array of the elements it covers (entry 0 is empty), and ``_weights``, one
    weight per element.  Who covers an element, ``_coverers``, is read off
    the transpose of ``_covers`` and never recomputed, so the value, the
    closed forms and the exempt set all see one relation.  The sets of the
    closed form are the coverer sets, one per element, and the sets that
    involve x are the elements x covers.
    """

    _covers: tuple[np.ndarray, ...]

    @property
    def _sets_of(self) -> tuple[np.ndarray, ...]:
        return self._covers

    @cached_property
    def _weights(self) -> np.ndarray:
        """Unless a subclass says otherwise, the elements are the players
        1..n, each of weight 1 (element 0 is never covered)."""
        return np.ones(self.n + 1)

    @cached_property
    def _coverers(self) -> tuple[np.ndarray, ...]:
        """Per element, the sorted players that cover it."""
        return _transpose(self._covers, len(self._weights))

    @cached_property
    def _set_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``_coverers`` in CSR form, one row per element."""
        return _csr(self._coverers)

    def value_mask(self, mask: int) -> float:
        covered = _hits(self._covers, _players_of(mask), len(self._weights)) > 0
        return float(self._weights[covered].sum())

    def subset_values(self) -> np.ndarray:
        """Each element adds its weight at the code of its coverers in ``c``;
        the coalition T misses exactly the elements whose code lies inside
        the complement of T, so ``value[T] = zeta(c)[full] - zeta(c)[full ^ T]``.
        """
        codes = _codes(self._covers, len(self._weights))
        c = np.bincount(codes, weights=self._weights, minlength=1 << self.n)
        c = c.astype(np.float64, copy=False)  # integer when there are no elements
        c[0] = 0.0  # elements that no player covers never count
        z = _zeta(c)
        return z[-1] - z[::-1]


@dataclass(frozen=True)
class ClosedNeighborhoodGame(CoverageGame):
    """Value of S is the number of players in S or adjacent to S."""

    graph: Graph
    variant = "nc1"

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def _covers(self) -> tuple[np.ndarray, ...]:
        return self.graph._closed_rows

    # N[.] comes from symmetric integer adjacency with no float sums, so y is
    # in N[x] exactly when x is in N[y]: the rows are their own transpose
    _coverers = _covers

    @property
    def _set_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # on the graph, so that the games shapley_gradient_nc1 builds per call share it
        return self.graph._closed_csr


@dataclass(frozen=True)
class ThresholdNeighborhoodGame(Game):
    """Value of S counts S plus the outside players with at least
    ``threshold`` neighbors inside S."""

    graph: Graph
    threshold: int
    variant = "nc2"

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise DomainError(f"threshold k must be >= 1, got {self.threshold}")

    @property
    def n(self) -> int:
        return self.graph.n

    def value_mask(self, mask: int) -> float:
        members = _players_of(mask)
        reached = _hits(self._rows, members, self.n + 1) >= self.threshold
        reached[list(members)] = True
        return float(reached.sum())

    @cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """Per player, its neighbors (entry 0 is empty)."""
        return _index_rows(self.graph._adj)

    @cached_property
    def _set_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The sets of the closed form: N(y), row y - 1 for each player y."""
        return _csr(self._rows[1:])

    @cached_property
    def _sets_of(self) -> tuple[np.ndarray, ...]:
        """Per player x, the rows of the sets that involve x: x's own N(x)
        and N(y) for every neighbour y, that is N[x] - 1."""
        return tuple(row - 1 for row in self.graph._closed_rows)

    def subset_values(self) -> np.ndarray:
        """A player outside the coalition r counts when at least k of its
        neighbors lie in r: one pass over the 2^n entries per player whose
        degree reaches k."""
        k, r = self.threshold, np.arange(1 << self.n)
        pop = _popcount(self.n)
        total = pop.copy()  # the cached counts stay as they are
        codes = _codes(self._rows, self.n + 1)
        for y, code in enumerate(codes[1:].tolist()):
            if pop[code] >= k:
                total += (pop[r & code] >= k) & ((r >> y & 1) == 0)
        return total.astype(np.float64)


@dataclass(frozen=True)
class DistanceCutoffGame(CoverageGame):
    """Value of S is the size of the ball of radius ``cutoff`` around S in a
    weighted graph (distance ties at the cutoff included).

    Player x covers the ball computed from x.  Float path sums are not
    symmetric (0.1 + 0.2 + 0.3 > 0.6), so at a tie y may lie in the ball of
    x while x misses the ball of y; the coverers of y are therefore the
    transpose of the balls, not the ball of y.
    """

    graph: Graph
    cutoff: float
    _covers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    variant = "nc3"

    def __post_init__(self) -> None:
        if not self.graph.is_weighted:
            raise DomainError("distance-cutoff game needs an edge-weighted graph")
        if not 0 < self.cutoff < math.inf:
            raise DomainError(
                f"cutoff (field 'd_cut') must be a finite positive number, got {self.cutoff}"
            )
        balls = [ball(self.graph, {x}, self.cutoff) for x in range(1, self.graph.n + 1)]
        object.__setattr__(self, "_covers", _index_rows([()] + balls))

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class FullCreditGame(CoverageGame):
    """A coalition earns every paper with at least one of its authors."""

    instance: CreditInstance
    variant = "fc"

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def _covers(self) -> tuple[np.ndarray, ...]:
        return self.instance._rows

    @property
    def _weights(self) -> np.ndarray:
        return self.instance._scores

    @property
    def _set_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self.instance._author_csr


@dataclass(frozen=True)
class FullObligationGame(Game):
    """A coalition earns a paper only if it contains all of its authors."""

    instance: CreditInstance
    variant = "fo"

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def _set_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The sets of the closed form: the authors of each paper."""
        return self.instance._author_csr

    @property
    def _sets_of(self) -> tuple[np.ndarray, ...]:
        """Per author, their papers."""
        return self.instance._rows

    def value_mask(self, mask: int) -> float:
        inst = self.instance
        inside = _hits(inst._rows, _players_of(mask), len(inst.papers)) == np.diff(self._set_csr[0])
        return float(inst._scores[inside].sum())

    def subset_values(self) -> np.ndarray:
        """Each paper adds its score at the code of its authors; entry T is
        then the subset sum at T."""
        inst = self.instance
        codes = _codes(inst._rows, len(inst.papers))
        c = np.bincount(codes, weights=inst._scores, minlength=1 << self.n)
        return _zeta(c.astype(np.float64, copy=False))  # integer when there are no papers


# ---------------------------------------------------------------------------
# JSON wire format

_NC_VARIANTS = {"nc1", "nc2", "nc3"}
_CREDIT_VARIANTS = {"fc", "fo"}


def game_from_json(data: Mapping) -> Game:
    """Parse the game file schema.

    ``{"variant": "nc1"|"nc2"|"nc3"|"fc"|"fo", "n": int,
       "edges": [[u,v] | [u,v,w]], "k": int?, "d_cut": number?,
       "papers": [{"authors": [...], "score": number}]?}``
    """
    try:
        variant = data["variant"]
        n = _as_int(data["n"], "field 'n'")
    except KeyError as exc:
        raise DomainError(f"game file missing field {exc.args[0]!r}") from None
    if not isinstance(variant, str):
        raise DomainError(f"field 'variant' must be a string, got {variant!r}")
    if variant in _NC_VARIANTS:
        if "edges" not in data:
            raise DomainError(f"variant {variant!r} requires field 'edges'")
        if "papers" in data:
            raise DomainError(f"variant {variant!r} must not carry field 'papers'")
        graph = Graph.of(n, _as_list(data["edges"], "field 'edges'"))
        if variant == "nc1":
            return ClosedNeighborhoodGame(graph)
        if variant == "nc2":
            if "k" not in data:
                raise DomainError("variant 'nc2' requires field 'k'")
            return ThresholdNeighborhoodGame(graph, _as_int(data["k"], "field 'k'"))
        if "d_cut" not in data:
            raise DomainError("variant 'nc3' requires field 'd_cut'")
        return DistanceCutoffGame(graph, _as_finite(data["d_cut"], "field 'd_cut'"))
    if variant in _CREDIT_VARIANTS:
        if "papers" not in data:
            raise DomainError(f"variant {variant!r} requires field 'papers'")
        if "edges" in data:
            raise DomainError(f"variant {variant!r} must not carry field 'edges'")
        papers = []
        for i, paper in enumerate(_as_list(data["papers"], "field 'papers'")):
            try:
                papers.append((_as_list(paper["authors"], f"authors of paper {i}"), paper["score"]))
            except KeyError as exc:
                raise DomainError(
                    f"paper {i} missing field {exc.args[0]!r}"
                ) from None
            except TypeError:  # a list, string or number has no named fields
                raise DomainError(f"paper {i} must be an object, got {paper!r}") from None
        inst = CreditInstance.of(n, papers)
        return FullCreditGame(inst) if variant == "fc" else FullObligationGame(inst)
    raise DomainError(f"unknown game variant {variant!r}")

