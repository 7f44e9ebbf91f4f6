import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliattack import (
    ClosedNeighborhoodGame,
    DistanceCutoffGame,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    ReliabilityProfile,
    ThresholdNeighborhoodGame,
    complete_graph,
    liveness_transform,
    reliability_value,
    shapley_gradient,
    shapley_vector_closed,
)
from reliattack import games
from reliattack.reliability import _fold

from conftest import (
    TableGame,
    all_coalitions,
    enumerated_value,
    pi_prob,
    random_credit,
    random_game,
    random_graph,
    random_profile,
    random_weighted_graph,
)


class TestProfile:
    def test_bounds(self):
        with pytest.raises(DomainError):
            ReliabilityProfile((0.5, 1.2))
        with pytest.raises(DomainError):
            ReliabilityProfile((-0.1,))

    def test_indexing(self):
        p = ReliabilityProfile((0.2, 0.7))
        assert p[1] == 0.2 and p[2] == 0.7
        with pytest.raises(DomainError):
            p[0]
        assert p.with_value(2, 0.5).values == (0.2, 0.5)


class TestProfileArray:
    """The profile's private array, converted once and shared by the closed
    forms, the gradient and ``reliability_value``."""

    def test_read_only_equal_and_cached(self, rng):
        p = random_profile(rng, 7)
        arr = p._array
        assert arr.dtype == np.float64 and arr.tolist() == list(p.values)
        with pytest.raises(ValueError):
            arr[0] = 0.5
        assert p._array is arr

    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_gradient_leaves_it_and_later_vectors_unchanged(self, rng, variant):
        n = 8
        game = random_game(rng, variant, n)
        p = random_profile(rng, n)
        before = p._array.copy()
        for x in range(1, n + 1):
            shapley_gradient(game, p, x)
        assert np.array_equal(p._array, before)
        fresh = ReliabilityProfile(p.values)
        assert shapley_vector_closed(game, p).values == shapley_vector_closed(game, fresh).values

    def test_equality_and_hash_ignore_it(self, rng):
        p = random_profile(rng, 5)
        p._array
        fresh = ReliabilityProfile(p.values)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


class TestPiProb:
    def test_empty_sets(self):
        assert pi_prob(set(), set(), ReliabilityProfile((0.3,))) == 1.0

    def test_spec_point(self):
        assert pi_prob({1}, {1, 2}, (0.5, 0.25)) == pytest.approx(0.375, abs=1e-15)

    def test_all_live_certain(self):
        assert pi_prob({1, 2}, {1, 2}, (1.0, 1.0)) == 1.0

    def test_not_subset(self):
        with pytest.raises(DomainError):
            pi_prob({1}, {2}, (0.5, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.randoms(use_true_random=False))
    def test_normalization(self, size, hrng):
        p = ReliabilityProfile(tuple(hrng.uniform(0, 1) for _ in range(size)))
        host = frozenset(range(1, size + 1))
        total = 0.0
        for mask in range(1 << size):
            live = frozenset(i + 1 for i in range(size) if mask >> i & 1)
            total += pi_prob(live, host, p)
        assert total == pytest.approx(1.0, abs=1e-12)


def submasks(mask):
    return [t for t in range(mask + 1) if t & mask == t]


def players(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def sparse_profile(rng, m):
    """Random probabilities with some exact 0s and 1s."""
    return [rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(m)]


class TestLivenessTransform:
    def test_matches_enumeration(self, rng):
        for m in range(11):
            for probs in ([rng.random() for _ in range(m)], sparse_profile(rng, m)):
                table = np.array([rng.uniform(-2.0, 3.0) for _ in range(1 << m)])
                out = liveness_transform(table, probs)
                assert out.shape == table.shape
                entries = {0, (1 << m) - 1} | {rng.randrange(1 << m) for _ in range(12)}
                for t in sorted(entries):
                    expected = sum(
                        table[u] * pi_prob(players(u), players(t), probs)
                        for u in submasks(t)
                    )
                    assert out[t] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_batched_rows(self, rng):
        for m in (0, 1, 4, 7):
            tables = np.array([[rng.random() for _ in range(1 << m)] for _ in range(3)])
            probs = np.array([sparse_profile(rng, m) for _ in range(3)])
            out = liveness_transform(tables, probs)
            for row in range(3):
                single = liveness_transform(tables[row], probs[row])
                assert out[row] == pytest.approx(single, rel=1e-12, abs=1e-12)
            # one table against many profile rows broadcasts
            shared = liveness_transform(tables[0], probs)
            for row in range(3):
                single = liveness_transform(tables[0], probs[row])
                assert shared[row] == pytest.approx(single, rel=1e-12, abs=1e-12)
            assert tables[0] == pytest.approx(liveness_transform(tables[0], np.ones(m)))

    def test_input_is_not_modified(self):
        table = np.array([0.0, 1.0, 2.0, 4.0])
        liveness_transform(table, [0.5, 0.5])
        assert table.tolist() == [0.0, 1.0, 2.0, 4.0]

    def test_size_mismatch(self):
        with pytest.raises(DomainError, match="2\\^2"):
            liveness_transform(np.zeros(8), [0.5, 0.5])


class TestLivenessValue:
    """The top entry alone, by the oracle's halving fold ``_fold`` (submasks
    and probabilities on the first axis), against the full transform's last
    entry, bit for bit."""

    def test_equals_top_entry(self, rng):
        np_rng = np.random.default_rng(rng.randrange(1 << 30))
        for m in range(11):
            table = np_rng.uniform(-2.0, 3.0, 1 << m)
            for probs in (np_rng.random(m), sparse_profile(rng, m)):
                np.testing.assert_array_equal(
                    _fold(table, probs)[0], liveness_transform(table, probs)[-1]
                )

    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_batched_and_broadcast_rows(self, rng, m):
        np_rng = np.random.default_rng(rng.randrange(1 << 30))
        tables = np_rng.uniform(-1.0, 2.0, (4, 1 << m))
        probs = np_rng.random((4, m))
        for table, prob, folded in (
            (tables, probs, _fold(tables.T, probs.T)),  # one profile per table
            (tables[0], probs, _fold(tables[0, :, None], probs.T)),  # one table, many profiles
            (tables, probs[0], _fold(tables.T, probs[0])),  # many tables, one profile
        ):
            want = liveness_transform(table, prob)[..., -1]
            np.testing.assert_array_equal(np.broadcast_to(folded[0], want.shape), want)

    def test_certain_players_pick_one_entry(self):
        table = np.arange(16.0) ** 2 - 7.0
        for mask in range(16):
            probs = [float(mask >> i & 1) for i in range(4)]
            assert _fold(table, probs)[0] == table[mask]

    def test_input_is_not_modified(self):
        table = np.array([0.0, 1.0, 2.0, 4.0])
        _fold(table, [0.5, 0.5])
        assert table.tolist() == [0.0, 1.0, 2.0, 4.0]


class TestReliabilityValue:
    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_matches_enumeration(self, rng, variant):
        for _ in range(6):
            n = rng.randint(1, 9)
            game = random_game(rng, variant, n)
            pvals = sparse_profile(rng, n) if rng.random() < 0.5 else random_profile(rng, n).values
            s = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            smask = sum(1 << (x - 1) for x in s)
            expected = enumerated_value(game.value_mask, pvals, smask)
            assert reliability_value(game, pvals, s) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_certain_profiles_reduce_to_char_value(self, rng):
        for variant in ("nc1", "nc2", "nc3", "fc", "fo"):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            ones = ReliabilityProfile.ones(n)
            for s in all_coalitions(n):
                assert reliability_value(game, ones, s) == pytest.approx(
                    game.value(s), abs=1e-12
                )

    def test_single_player_bernoulli(self):
        # only the paper games have the closed form; a table game is folded
        # by the caller, liveness_transform on its subset table
        game = TableGame(1, {(): 0.0, (1,): 1.0})
        with pytest.raises(DomainError, match=r"'table'; use shapley_definitional$"):
            reliability_value(game, (0.6,), {1})
        assert liveness_transform(game.subset_values(), [0.6])[-1] == pytest.approx(0.6, abs=1e-15)

    def test_k2_by_hand(self):
        game = ClosedNeighborhoodGame(complete_graph(2))
        # four liveness outcomes: one worthless, three worth 2/2/2
        assert reliability_value(game, (0.5, 0.5), {1, 2}) == pytest.approx(1.5, abs=1e-15)

    def test_multilinear_in_each_coordinate(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            game = random_game(rng, "fc", n)
            p = random_profile(rng, n)
            j = rng.randint(1, n)
            a, b, lam = rng.random(), rng.random(), rng.random()
            s = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            va = reliability_value(game, p.with_value(j, a), s)
            vb = reliability_value(game, p.with_value(j, b), s)
            vmix = reliability_value(game, p.with_value(j, lam * a + (1 - lam) * b), s)
            assert vmix == pytest.approx(lam * va + (1 - lam) * vb, abs=1e-12)


def large_game(rng, variant, n):
    """A paper game on n players with sparse sets, cheap to build at n = 200."""
    if variant == "nc1":
        return ClosedNeighborhoodGame(random_graph(rng, n, 0.05))
    if variant == "nc2":
        return ThresholdNeighborhoodGame(random_graph(rng, n, 0.05), rng.randint(1, 4))
    if variant == "nc3":
        return DistanceCutoffGame(random_weighted_graph(rng, n, 0.02), rng.uniform(0.5, 2.0))
    instance = random_credit(rng, n, 300)
    return FullCreditGame(instance) if variant == "fc" else FullObligationGame(instance)


class TestMultilinearValue:
    """The paper games' closed form of the reliability extension, pinned to
    the table path and past the table's cap."""

    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_matches_the_table_fold(self, rng, variant):
        for size in (0, 1, 2, 5, 9, 12, 16):
            n = rng.randint(size, 16) if size else rng.randint(1, 16)
            game = random_game(rng, variant, n)
            pvals = sparse_profile(rng, n) if rng.random() < 0.5 else random_profile(rng, n).values
            members = sorted(rng.sample(range(1, n + 1), size))
            q = [pvals[x - 1] if x in members else 0.0 for x in range(1, n + 1)]
            want = liveness_transform(game.subset_values(), q)[-1]
            got = reliability_value(game, pvals, members)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_past_the_table_cap(self, rng, variant):
        n = 200
        game = large_game(rng, variant, n)
        for _ in range(3):
            s = frozenset(rng.sample(range(1, n + 1), rng.randint(21, n)))
            ones = [float(rng.random() < 0.7) for _ in range(n)]
            live = {x for x in s if ones[x - 1]}
            assert reliability_value(game, ones, s) == pytest.approx(game.value(live), rel=1e-12)
            p = random_profile(rng, n).values
            q = [p[x - 1] if x in s else 0.0 for x in range(1, n + 1)]
            total = sum(shapley_vector_closed(game, q))
            assert reliability_value(game, p, s) == pytest.approx(total, rel=1e-9, abs=1e-9)

    def test_threshold_above_every_degree_allocates_nothing_per_unit_of_k(self):
        # no row of K5 reaches k = 6 or more, so k = 10^5 reads no row; the
        # row sizes are the only thing compared with k
        graph, p = complete_graph(5), (0.3, 0.6, 0.9, 0.5, 0.2)
        want = reliability_value(ThresholdNeighborhoodGame(graph, 6), p, range(1, 6))
        game = ThresholdNeighborhoodGame(graph, 10**5)
        tracemalloc.start()
        try:
            got = reliability_value(game, p, range(1, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == pytest.approx(sum(p), abs=1e-15)
        assert peak < 1 << 20

    def test_threshold_pmfs_stay_within_a_block(self):
        # K120 with k = 60: one bucket of 120 rows whose pmfs hold a * k
        # entries each.  Run as one block it peaked at about 27 MB
        game, p = ThresholdNeighborhoodGame(complete_graph(120), 60), [0.5, 0.3, 0.8] * 40
        want = sum(shapley_vector_closed(game, p))
        tracemalloc.start()
        try:
            got = reliability_value(game, p, range(1, 121))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, rel=1e-9)
        assert peak < 8 << 20

    @pytest.mark.parametrize("cap", [1, 40])
    def test_threshold_in_small_groups(self, rng, monkeypatch, cap):
        # with a tiny block every bucket runs in groups of one or a few rows
        monkeypatch.setattr(games, "_BLOCK_ELEMENTS", cap)
        for _ in range(40):
            n = rng.randint(1, 12)
            game = ThresholdNeighborhoodGame(random_graph(rng, n), rng.randint(1, 6))
            pvals = sparse_profile(rng, n) if rng.random() < 0.5 else random_profile(rng, n).values
            members = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            q = [pvals[x - 1] if x in members else 0.0 for x in range(1, n + 1)]
            want = liveness_transform(game.subset_values(), q)[-1]
            got = reliability_value(game, pvals, members)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_numpy_integer_members(self):
        game = ThresholdNeighborhoodGame(complete_graph(4), 2)
        p = (0.3, 0.6, 0.9, 0.5)
        assert reliability_value(game, p, [np.int64(1), 2]) == reliability_value(game, p, [1, 2])
        with pytest.raises(DomainError, match=r"^coalition contains player True, "):
            reliability_value(game, p, [True, 2])
