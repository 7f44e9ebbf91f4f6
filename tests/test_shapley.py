import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reliattack import (
    ClosedNeighborhoodGame,
    CreditInstance,
    DistanceCutoffGame,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    Graph,
    ReliabilityProfile,
    ResourceLimitError,
    ThresholdNeighborhoodGame,
    ball,
    complete_graph,
    reliability_value,
    shapley_closed,
    shapley_cycle_closed,
    shapley_definitional,
    shapley_fc_two_author,
    shapley_gradient,
    shapley_gradient_nc1,
    shapley_vector_closed,
)
from reliattack import games, shapley

from conftest import (
    TableGame,
    all_coalitions,
    coverage_gradient,
    coverage_inner,
    cycle_graph,
    enumerated_value,
    exact_shapley,
    exact_table_shapley,
    finite_difference,
    fo_gradient,
    fo_value,
    nc2_inner,
    path_graph,
    random_game,
    random_graph,
    random_profile,
    random_two_author_credit,
    size_pmf,
    star_graph,
    threshold_value,
    two_point_gradient_loop,
)


class TestDefinitional:
    def test_symmetric_triangle(self):
        game = ClosedNeighborhoodGame(complete_graph(3))
        assert shapley_definitional(game, ReliabilityProfile.ones(3)).values == pytest.approx(
            (1.0, 1.0, 1.0), abs=1e-12
        )

    def test_star_by_hand(self):
        # six permutations enumerated by hand: center 4/3, each leaf 5/6
        game = ClosedNeighborhoodGame(star_graph(3, center=3))
        sh = shapley_definitional(game)
        assert sh[3] == pytest.approx(4 / 3, abs=1e-12)
        assert sh[1] == pytest.approx(5 / 6, abs=1e-12)
        assert sh[2] == pytest.approx(5 / 6, abs=1e-12)

    def test_dictator_table_game(self):
        table = {}
        for mask in range(8):
            coalition = frozenset(i + 1 for i in range(3) if mask >> i & 1)
            table[coalition] = 1.0 if 1 in coalition else 0.0
        game = TableGame(3, table)
        assert shapley_definitional(game).values == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_player_cap(self):
        game = FullObligationGame(CreditInstance.of(17, [((1,), 1.0)]))
        with pytest.raises(ResourceLimitError, match="cap"):
            shapley_definitional(game)

    def test_efficiency(self, rng):
        for variant in ("nc1", "nc2", "nc3", "fc", "fo"):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n)
            sh = shapley_definitional(game, p)
            grand = reliability_value(game, p, set(range(1, n + 1)))
            assert sum(sh) == pytest.approx(grand, abs=1e-9)


    def test_matches_enumerated_permutation_average(self, rng):
        for variant in ("nc1", "nc2", "nc3", "fc", "fo"):
            n = rng.randint(1, 6)
            game = random_game(rng, variant, n)
            pvals = random_profile(rng, n).values
            table = [enumerated_value(game.value_mask, pvals, m) for m in range(1 << n)]
            expected = [0.0] * n
            for perm in itertools.permutations(range(n)):
                before = 0
                for i in perm:
                    expected[i] += table[before | 1 << i] - table[before]
                    before |= 1 << i
            expected = [v / math.factorial(n) for v in expected]
            assert list(shapley_definitional(game, pvals)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_nine_players_match_closed_form(self, rng):
        game = random_game(rng, "nc1", 9)
        p = random_profile(rng, 9)
        assert list(shapley_definitional(game, p)) == pytest.approx(
            list(shapley_vector_closed(game, p)), abs=1e-9
        )

    @pytest.mark.parametrize("variant", ["nc1", "nc22", "nc3", "fc", "fo"])
    def test_matches_exact_subset_sum(self, rng, variant):
        # n = 9 within 1e-13 of exact rationals on the game's own table,
        # relative to the largest value (a player without marginals has
        # exact value 0, and the fold leaves float noise there); at a small
        # n the exact subset sum is itself checked against the permutation
        # average
        for n in (9, rng.randint(2, 5)):
            game = random_game(rng, variant, n)
            p = random_profile(rng, n)
            table = [Fraction(v) for v in game.subset_values().tolist()]
            expected = exact_table_shapley(table, p.values)
            if n < 9:
                value = lambda s: table[sum(1 << (x - 1) for x in s)]
                assert expected == [exact_shapley(value, n, p, x) for x in range(1, n + 1)]
            scale = max(abs(exact) for exact in expected)
            for got, exact in zip(shapley_definitional(game, p), expected):
                assert abs(Fraction(got) - exact) <= Fraction(1e-13) * scale

    @seed(20240817)
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["nc1", "nc2", "nc3", "fc", "fo"]),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    def test_multilinear_in_each_probability(self, variant, n, hrng):
        # Sh_x of the reliability extension is affine in every p_j, j = x too
        game = random_game(hrng, variant, n)
        p = random_profile(hrng, n)
        j = hrng.randint(1, n)
        a, b, lam = hrng.random(), hrng.random(), hrng.random()
        sh_a = shapley_definitional(game, p.with_value(j, a))
        sh_b = shapley_definitional(game, p.with_value(j, b))
        sh_mix = shapley_definitional(game, p.with_value(j, lam * a + (1 - lam) * b))
        for x in range(1, n + 1):
            assert sh_mix[x] == pytest.approx(lam * sh_a[x] + (1 - lam) * sh_b[x], abs=1e-12)


class TestClosedForms:
    @pytest.mark.parametrize(
        "variant, certain",
        [
            pytest.param(v, c, id=v + "-certain" * c)
            for c in (False, True)
            for v in ("nc1", "nc21", "nc22", "nc23", "nc3", "fc", "fo")
        ],
    )
    def test_matches_definitional(self, rng, variant, certain):
        # certain: some entries of the profile are exact 0s and 1s
        for _ in range(12):
            n = rng.randint(2, 7)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n)
            if certain:
                p = _with_certain_players(rng, p)
            reference = shapley_definitional(game, p)
            vector = shapley_vector_closed(game, p)
            for x in range(1, n + 1):
                assert shapley_closed(game, p, x) == pytest.approx(reference[x], abs=1e-9)
                assert vector[x] == pytest.approx(reference[x], abs=1e-9)

    def test_fo_single_paper_certain(self):
        game = FullObligationGame(CreditInstance.of(2, [((1, 2), 2.0)]))
        assert shapley_closed(game, ReliabilityProfile.ones(2), 1) == pytest.approx(1.0)

    def test_fo_three_authors_half(self):
        game = FullObligationGame(CreditInstance.of(3, [((1, 2, 3), 3.0)]))
        p = ReliabilityProfile((0.5,) * 3)
        assert shapley_closed(game, p, 1) == pytest.approx(0.125, abs=1e-12)

    def test_fc_two_author_expansion(self):
        game = FullCreditGame(CreditInstance.of(2, [((1, 2), 2.0)]))
        p = ReliabilityProfile((1.0, 0.5))
        assert shapley_closed(game, p, 1) == pytest.approx(1.5, abs=1e-12)

    def test_null_player(self, rng):
        g = Graph.of(4, [(1, 2), (2, 3)])  # player 4 isolated
        game = ClosedNeighborhoodGame(g)
        p = random_profile(rng, 4)
        # an isolated node still counts itself: its value is p_4, not 0; the
        # true null player needs an empty-paper credit instance
        ci = CreditInstance.of(3, [((1, 2), 2.0)])
        for game in (FullCreditGame(ci), FullObligationGame(ci)):
            p3 = random_profile(rng, 3)
            assert shapley_closed(game, p3, 3) == 0.0
            assert shapley_definitional(game, p3)[3] == pytest.approx(0.0, abs=1e-12)

    def test_table_game_has_no_closed_form(self):
        game = TableGame(1, {(): 0.0, (1,): 1.0})
        with pytest.raises(DomainError, match="definitional"):
            shapley_closed(game, (1.0,), 1)
        with pytest.raises(DomainError, match="definitional"):
            shapley_vector_closed(game, (1.0,))

    def test_symmetry_under_relabeling(self, rng):
        # swapping two symmetric players permutes the Shapley vector
        game = ClosedNeighborhoodGame(complete_graph(4))
        p = ReliabilityProfile((0.3, 0.8, 0.8, 0.5))
        sh = shapley_vector_closed(game, p)
        assert sh[2] == pytest.approx(sh[3], abs=1e-12)

    def test_relabeled_instance_permutes_values(self, rng):
        # applying a permutation to the graph and the profile together
        # permutes the Shapley vector the same way
        for _ in range(5):
            n = rng.randint(2, 6)
            graph = random_graph(rng, n)
            p = random_profile(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)  # perm[i-1] is the new label of player i
            relabeled = Graph.of(
                n, [(perm[u - 1], perm[v - 1]) for u, v in graph.edges]
            )
            p2 = ReliabilityProfile(
                tuple(p[perm.index(j) + 1] for j in range(1, n + 1))
            )
            game, game2 = ClosedNeighborhoodGame(graph), ClosedNeighborhoodGame(relabeled)
            for x in range(1, n + 1):
                assert shapley_closed(game, p, x) == pytest.approx(
                    shapley_closed(game2, p2, perm[x - 1]), abs=1e-12
                )

    def test_vector_efficiency(self, rng):
        for variant in ("nc1", "nc2", "nc3", "fc", "fo"):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            p = random_profile(rng, n)
            total = sum(shapley_vector_closed(game, p))
            grand = reliability_value(game, p, set(range(1, n + 1)))
            assert total == pytest.approx(grand, abs=1e-9)

    @seed(20240817)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["nc1", "nc2", "nc3", "fc", "fo"]),
        st.integers(1, 12),
        st.randoms(use_true_random=False),
    )
    def test_efficiency_property(self, variant, n, hrng):
        game = random_game(hrng, variant, n)
        p = [hrng.choice((0.0, 1.0, hrng.random(), hrng.random())) for _ in range(n)]
        total = sum(shapley_vector_closed(game, p))
        assert total == pytest.approx(reliability_value(game, p, range(1, n + 1)), abs=1e-9)

    @seed(20240817)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_threshold_one_is_nc1_property(self, n, p_edge, hrng):
        graph = random_graph(hrng, n, p_edge)
        p = random_profile(hrng, n)
        nc2 = shapley_vector_closed(ThresholdNeighborhoodGame(graph, 1), p)
        nc1 = shapley_vector_closed(ClosedNeighborhoodGame(graph), p)
        assert list(nc2) == pytest.approx(list(nc1), abs=1e-12)


def _vertex_transitive_graph(name):
    """C5-C7, K_n, the cube Q3 and the Petersen graph, players 1..n."""
    if name[0] in "CK":
        return (cycle_graph if name[0] == "C" else complete_graph)(int(name[1:]))
    if name == "Q3":  # corners 0..7, joined when they differ in one bit
        edges = [(i + 1, j + 1) for i in range(8) for j in (i ^ 1, i ^ 2, i ^ 4) if i < j]
        return Graph.of(8, edges)
    # the outer 5-cycle 1..5, the spokes, and the inner pentagram 6..10
    outer = [(i + 1, (i + 1) % 5 + 1) for i in range(5)]
    spokes = [(i + 1, i + 6) for i in range(5)]
    inner = [(i + 6, (i + 2) % 5 + 6) for i in range(5)]
    return Graph.of(10, outer + spokes + inner)


class TestVertexTransitive:
    """Every automorphism of the graph maps a player's value onto another's,
    so with a constant profile all players of a vertex-transitive graph have
    the same value."""

    @pytest.mark.parametrize("name", ["C5", "C6", "C7", "K2", "K5", "K8", "Q3", "petersen"])
    def test_equal_values_summing_to_the_grand_value(self, name):
        graph = _vertex_transitive_graph(name)
        n = graph.n
        unit = Graph.of(n, [(u, v, 1.0) for u, v in graph.edges])
        games = [
            ClosedNeighborhoodGame(graph),
            *(ThresholdNeighborhoodGame(graph, k) for k in (1, 2, 3)),
            DistanceCutoffGame(unit, 2.0),
        ]
        for game in games:
            for q in (0.3, 0.875, 1.0):
                p = ReliabilityProfile((q,) * n)
                values = list(shapley_vector_closed(game, p))
                assert values == pytest.approx([values[0]] * n, rel=1e-12, abs=1e-12)
                grand = reliability_value(game, p, range(1, n + 1))
                assert sum(values) == pytest.approx(grand, abs=1e-9)


TIE_WEIGHTS = (0.1, 0.2, 0.3, 0.6, 0.7)


def tie_path_game():
    """Path 1-2-3-4 with weights 0.1, 0.2, 0.3 and cutoff 0.6: summed from 4
    the path to 1 is 0.6, summed from 1 it is 0.6000000000000001, so 4 covers
    1 but 1 does not cover 4."""
    return DistanceCutoffGame(Graph.of(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.3)]), 0.6)


class TestDistanceTies:
    """nc3 at floating-point distance ties, where the ball from x and the
    ball from y disagree; every path must follow ``value_mask``."""

    def test_path_case(self):
        game = tie_path_game()
        p = ReliabilityProfile.ones(4)
        expected = [0.75, 13 / 12, 13 / 12, 13 / 12]
        closed = [shapley_closed(game, p, x) for x in range(1, 5)]
        assert closed == pytest.approx(expected, abs=1e-12)
        assert list(shapley_vector_closed(game, p)) == pytest.approx(expected, abs=1e-12)
        assert list(shapley_definitional(game, p)) == pytest.approx(expected, abs=1e-12)

    @seed(20240817)
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_matches_definitional_at_ties(self, data):
        # a path 1-2-...-n plus chords, so that many path sums meet the cutoff
        n = data.draw(st.integers(2, 7))
        weight = st.sampled_from(TIE_WEIGHTS)
        chords = [(u, v) for u in range(1, n + 1) for v in range(u + 2, n + 1)]
        if chords:
            chords = sorted(data.draw(st.sets(st.sampled_from(chords))))
        edges = [(u, u + 1) for u in range(1, n)] + chords
        graph = Graph.of(n, [(u, v, data.draw(weight)) for u, v in edges])
        cutoff = sum(data.draw(st.lists(weight, min_size=1, max_size=3)))
        game = DistanceCutoffGame(graph, cutoff)
        probability = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
        p = data.draw(st.lists(probability, min_size=n, max_size=n))
        closed = [shapley_closed(game, p, x) for x in range(1, n + 1)]
        assert closed == pytest.approx(list(shapley_definitional(game, p)), abs=1e-9)
        assert list(shapley_vector_closed(game, p)) == pytest.approx(closed, abs=1e-9)


class TestTwoAuthorFormula:
    def test_single_paper(self):
        ci = CreditInstance.of(2, [((1, 2), 2.0)])
        assert shapley_fc_two_author(ci, (1.0, 0.5), 1) == pytest.approx(1.5, abs=1e-12)

    def test_certain_coauthors_halve(self):
        ci = CreditInstance.of(3, [((1, 2), 3.0), ((1, 3), 1.0)])
        p = ReliabilityProfile((0.7, 1.0, 1.0))
        assert shapley_fc_two_author(ci, p, 1) == pytest.approx(0.7 * (3 + 1) / 2, abs=1e-12)

    def test_no_papers_is_zero(self):
        ci = CreditInstance.of(3, [((2, 3), 5.0)])
        assert shapley_fc_two_author(ci, ReliabilityProfile.ones(3), 1) == 0.0

    def test_rejects_other_sizes(self):
        ci = CreditInstance.of(3, [((1, 2, 3), 1.0)])
        with pytest.raises(DomainError, match="authors"):
            shapley_fc_two_author(ci, ReliabilityProfile.ones(3), 1)

    def test_matches_closed_form(self, rng):
        for _ in range(15):
            n = rng.randint(2, 6)
            ci = random_two_author_credit(rng, n)
            p = random_profile(rng, n)
            expected = shapley_closed(FullCreditGame(ci), p, 1)
            assert shapley_fc_two_author(ci, p, 1) == pytest.approx(expected, abs=1e-12)

    def test_exact_at_dyadic_profiles(self, rng):
        # exact rationals of the definition, relative to the score of x's
        # papers, which bounds the value: above 8 one ulp exceeds 1e-15
        for _ in range(15):
            n = rng.randint(2, 7)
            ci = random_two_author_credit(rng, n)
            table = [
                sum((Fraction(s) for a, s in ci.papers if a & coalition), Fraction(0))
                for coalition in all_coalitions(n)
            ]
            p = [rng.randint(0, 16) / 16 for _ in range(n)]
            exact = exact_table_shapley(table, p)[0]
            scale = max(1.0, sum(s for a, s in ci.papers if 1 in a))
            assert abs(Fraction(shapley_fc_two_author(ci, p, 1)) - exact) <= Fraction(1e-15) * scale


class TestCycleClosedForm:
    def test_certain_cycle_is_one(self):
        assert shapley_cycle_closed(ReliabilityProfile.ones(6)) == pytest.approx(1.0, abs=1e-12)

    def test_spec_point(self):
        p = ReliabilityProfile((1.0, 0.5, 0.5, 0.5, 0.5))
        assert shapley_cycle_closed(p) == pytest.approx(1.75, abs=1e-12)

    def test_small_cycle_rejected(self):
        with pytest.raises(DomainError, match="definitional"):
            shapley_cycle_closed(ReliabilityProfile.ones(4))

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_definitional(self, rng, n):
        game = ClosedNeighborhoodGame(cycle_graph(n))
        for _ in range(15):
            p = random_profile(rng, n)
            assert shapley_cycle_closed(p) == pytest.approx(
                shapley_definitional(game, p)[1], abs=1e-9
            )

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_exact_at_dyadic_profiles(self, rng, n):
        graph = cycle_graph(n)
        table = [
            Fraction(len(set().union(*(graph.closed_neighborhood(v) for v in coalition))))
            for coalition in all_coalitions(n)
        ]
        for _ in range(10):
            p = [rng.randint(0, 16) / 16 for _ in range(n)]
            exact = exact_table_shapley(table, p)[0]
            assert abs(Fraction(shapley_cycle_closed(p)) - exact) <= Fraction(1e-15)


def _with_certain_players(rng, p):
    """The profile with some entries replaced by exact 0s and 1s."""
    return ReliabilityProfile(tuple(rng.choice((0.0, 1.0, v, v)) for v in p))


def _vector_case(rng, case):
    if case in ("nc1", "nc2-k1", "nc2-k2", "nc2-k3", "nc3", "fc", "fo"):
        n = rng.randint(1, 8)
        game = random_game(rng, "nc2" + case[-1] if case.startswith("nc2") else case, n)
        return game, _with_certain_players(rng, random_profile(rng, n))
    if case == "isolated":
        graph = Graph.of(6, [(1, 2), (2, 3), (1, 3)])  # players 4..6 isolated
        weighted = Graph.of(6, [(1, 2, 0.5), (2, 3, 0.7)])
        game = rng.choice(
            [
                ClosedNeighborhoodGame(graph),
                ThresholdNeighborhoodGame(graph, rng.randint(1, 3)),
                DistanceCutoffGame(weighted, 1.0),
            ]
        )
        return game, random_profile(rng, 6)
    if case == "star-200":
        assert 200 * 201 > shapley._BLOCK_ELEMENTS  # the hub's bucket spans several blocks
        graph = star_graph(200)
        k = rng.randint(1, 3)
        game = rng.choice([ClosedNeighborhoodGame(graph), ThresholdNeighborhoodGame(graph, k)])
        return game, _with_certain_players(rng, random_profile(rng, 200))
    if case == "credit-edge-cases":
        # author 5 has no paper; papers 1 and 3 have a single author
        inst = CreditInstance.of(
            5, [((1,), 2.0), ((1, 2, 3), 1.5), ((4,), 0.0), ((2, 4), 3.0), ((1, 2), 0.5)]
        )
        game = rng.choice([FullCreditGame(inst), FullObligationGame(inst)])
        return game, _with_certain_players(rng, random_profile(rng, 5))
    if case == "no-papers":
        inst = CreditInstance.of(3, [])
        return rng.choice([FullCreditGame(inst), FullObligationGame(inst)]), random_profile(rng, 3)
    raise AssertionError(case)


class TestVectorPath:
    """``shapley_vector_closed`` against the per-player ``shapley_closed``,
    and both against the exact rational references in conftest."""

    @pytest.mark.parametrize(
        "case",
        [
            "nc1", "nc2-k1", "nc2-k2", "nc2-k3", "nc3", "fc", "fo",
            "isolated", "star-200", "credit-edge-cases", "no-papers",
        ],
    )
    def test_matches_per_player_path(self, rng, case):
        for _ in range(2 if case == "star-200" else 12):
            game, p = _vector_case(rng, case)
            vector = shapley_vector_closed(game, p)
            assert all(type(v) is float for v in vector)
            reference = [shapley_closed(game, p, x) for x in range(1, game.n + 1)]
            assert list(vector) == pytest.approx(reference, rel=1e-12, abs=1e-12)
            # the exact references, independent of Owen's integral and of
            # the kernels' numpy code
            if game.variant in ("nc1", "nc3", "fc"):
                exact = [p[x] * coverage_inner(game, p, x) for x in range(1, game.n + 1)]
            elif game.variant == "nc2":
                exact = [p[x] * nc2_inner(game, p, x) for x in range(1, game.n + 1)]
            else:
                exact = [fo_value(game, p, x) for x in range(1, game.n + 1)]
            exact = [float(v) for v in exact]
            assert list(vector) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_small_groups_keep_the_values(self, rng, monkeypatch, variant):
        # a tiny block cuts every bucket of equal-size sets into many groups
        cases = []
        for _ in range(8):
            n = rng.randint(1, 30)
            game = random_game(rng, variant, n)
            cases.append((game, _with_certain_players(rng, random_profile(rng, n))))
        default = [list(shapley_vector_closed(game, p)) for game, p in cases]
        monkeypatch.setattr(games, "_BLOCK_ELEMENTS", 3)
        for (game, p), want in zip(cases, default):
            got = list(shapley_vector_closed(game, p))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestBatch:
    """A row of ``shapley._shapley_batch`` gives the same floats as the
    one-profile ``shapley_closed`` call at that row's profile."""

    @pytest.mark.parametrize(
        "case",
        [
            "nc1", "nc2-k1", "nc2-k2", "nc2-k3", "nc3", "fc", "fo",
            "isolated", "star-200", "credit-edge-cases", "no-papers", "K20", "star-301",
        ],
    )
    def test_rows_equal_single_calls(self, rng, case):
        for _ in range(2 if case.startswith("star") else 6):
            if case == "star-301":
                # the hub's set has 301 coverers and 151 nodes, so _owen_nodes
                # cuts it along its nodes
                assert 301 * 151 > shapley._BLOCK_ELEMENTS
                graph = star_graph(301)
                game = rng.choice(
                    [ClosedNeighborhoodGame(graph), ThresholdNeighborhoodGame(graph, rng.randint(1, 3))]
                )
                p = _with_certain_players(rng, random_profile(rng, 301))
            elif case == "K20":
                # x's sets take about 20 * 19 * 10 entries per profile, so the
                # 48 rows run in several pieces
                game = ThresholdNeighborhoodGame(complete_graph(20), rng.randint(1, 6))
                p = _with_certain_players(rng, random_profile(rng, 20))
            else:
                game, p = _vector_case(rng, case)
            x = rng.randint(1, game.n)
            window = np.array(sorted(rng.sample(range(game.n), min(game.n, 5))), dtype=np.intp)
            rows = np.array(
                [[rng.choice((0.0, 1.0, rng.random())) for _ in window] for _ in range(48)]
            ).reshape(48, len(window))
            base = np.array(p.values)
            values = shapley._shapley_batch(game, base, x, window, rows)
            for row, value in zip(rows, values.tolist()):
                q = p.with_values({j + 1: v for j, v in zip(window.tolist(), row.tolist())})
                assert value == shapley_closed(game, q, x)


class TestOwenQuadrature:
    """The coverage paths (Owen's integral by Gauss-Legendre quadrature)
    against the exact rational size-pmf reference in conftest."""

    def test_nodes_integrate_monomials_exactly(self):
        for q in range(1, 161):
            t, w = shapley._gauss_legendre(q)
            s = np.arange(2 * q)
            integrals = (t[None, :] ** s[:, None]) @ w
            assert integrals * (s + 1) == pytest.approx(np.ones(2 * q), rel=1e-13), q

    @pytest.mark.parametrize(
        "graph",
        [complete_graph(n) for n in (1, 2, 5, 6, 31, 60)] + [star_graph(301)],
        ids=lambda g: f"n{g.n}-m{len(g.edges)}",
    )
    def test_matches_exact_pmf(self, graph, rng):
        # K60's bucket (60 sets of 60 coverers, 30 nodes) spans several
        # blocks; the star's hub set (301 coverers, 151 nodes) is itself cut
        # along its nodes, and its leaf sets have 2 coverers
        assert 60 * 60 * 30 > shapley._BLOCK_ELEMENTS and 301 * 151 > shapley._BLOCK_ELEMENTS
        game = ClosedNeighborhoodGame(graph)
        p = ReliabilityProfile(
            tuple(rng.choice((0.0, 1.0, 0.125, 0.375, 0.5, 0.875)) for _ in range(graph.n))
        )
        inner = [coverage_inner(game, p, x) for x in range(1, game.n + 1)]
        exact = [float(p[x] * inner[x - 1]) for x in range(1, game.n + 1)]
        assert list(shapley_vector_closed(game, p)) == pytest.approx(exact, rel=1e-12, abs=1e-12)
        for x in {1, 2, game.n} & set(range(1, game.n + 1)):
            assert shapley_closed(game, p, x) == pytest.approx(exact[x - 1], rel=1e-12, abs=1e-12)
            reference = [float(v) for v in coverage_gradient(game, p, x)]
            assert shapley_gradient(game, p, x) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_imports_no_numpy_subpackage(self):
        # numpy.polynomial would add about 2 MB to every process, and
        # numpy.ma (behind np.unique) about 15 ms to every CLI request
        code = (
            "import sys\n"
            "from reliattack import *\n"
            "for game in (ClosedNeighborhoodGame(complete_graph(9)),"
            " FullCreditGame(CreditInstance.of(3, [((1, 2, 3), 1.0)])),"
            " ThresholdNeighborhoodGame(complete_graph(9), 2)):\n"
            "    p = [0.5] * game.n\n"
            "    shapley_closed(game, p, 1); shapley_vector_closed(game, p)\n"
            "    shapley_gradient(game, p, 1)\n"
            "print('numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(shapley.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "False False\n"), out.stderr


class TestThresholdQuadrature:
    """The nc2 vector (Owen's integral plus the threshold's low-order
    correction) against the exact rational size-pmf reference in conftest."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10**6, 10**17])
    @pytest.mark.parametrize(
        "graph",
        [complete_graph(n) for n in (1, 2, 3, 4, 5, 6, 31, 60)]
        + [star_graph(301), path_graph(7), Graph.of(7, [(1, 2), (2, 3), (1, 3), (4, 5)])],
        ids=lambda g: f"n{g.n}-m{len(g.edges)}",
    )
    def test_matches_exact_pmf(self, graph, k, rng):
        # |N(y)| runs over odd and even sizes; K60's bucket (60 sets of 59,
        # 30 nodes) spans several groups of rows, the star's hub set (300
        # players, 151 nodes) is cut along its nodes, and the last graph
        # has isolated players; k = 5 is above the largest degree of most,
        # and with k = 10**6 or 10**17 every weight is an exact 0 or 1, which
        # terms of size k that cancel would lose to round-off
        assert 60 * 59 * 30 > shapley._BLOCK_ELEMENTS and 300 * 151 > shapley._BLOCK_ELEMENTS
        game = ThresholdNeighborhoodGame(graph, k)
        p = ReliabilityProfile(
            tuple(rng.choice((0.0, 1.0, 0.125, 0.375, 0.5, 0.875)) for _ in range(graph.n))
        )
        exact = [float(p[x] * nc2_inner(game, p, x)) for x in range(1, game.n + 1)]
        assert list(shapley_vector_closed(game, p)) == pytest.approx(exact, rel=1e-12, abs=1e-12)
        for x in {1, 2, game.n} & set(range(1, game.n + 1)):
            assert shapley_closed(game, p, x) == pytest.approx(exact[x - 1], rel=1e-12, abs=1e-12)


def _gradient_nc1_over_all_players(graph, p, x):
    """The nc1 gradient as a loop over every player j (no distance-two
    restriction): the reference the restricted loop must reproduce."""
    out = [0.0] * graph.n
    total = 0.0
    for y in sorted(graph.closed_neighborhood(x)):
        others = sorted(graph.closed_neighborhood(y) - {x})
        pmf = size_pmf([p[z] for z in others])
        total += sum(c / (s + 1) for s, c in enumerate(pmf))
    out[x - 1] = total
    hood_x = graph.closed_neighborhood(x)
    for j in range(1, graph.n + 1):
        if j == x:
            continue
        common = hood_x & graph.closed_neighborhood(j)
        if not common:
            continue
        total = 0.0
        for y in sorted(common):
            others = sorted(graph.closed_neighborhood(y) - {x, j})
            pmf = size_pmf([p[z] for z in others])
            total += sum(c / ((s + 1) * (s + 2)) for s, c in enumerate(pmf))
        out[j - 1] = -p[x] * total
    return tuple(out)


def _graph_of_mask(n, mask):
    """The graph on 1..n whose edges are the set bits of ``mask`` over the
    pairs (u, v), u < v, in lexicographic order."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, tuple(e for b, e in enumerate(pairs) if mask >> b & 1))


def _labelled_graphs(n):
    return [_graph_of_mask(n, mask) for mask in range(1 << n * (n - 1) // 2)]


def _graph_classes(n):
    """One graph per isomorphism class on n players: the least edge mask
    of each class, over the images of every mask under every relabelling."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: b for b, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs))
    bits = masks[:, None] >> np.arange(len(pairs)) & 1
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        image = [index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        least = np.minimum(least, (bits << np.array(image)).sum(axis=1))
    return [_graph_of_mask(n, mask) for mask in np.unique(least).tolist()]


def _integral_game(rng, variant, n):
    """A seeded nc3, fc or fo game whose coalition values are integers."""
    if variant == "nc3":
        return random_game(rng, "nc3", n)  # its values are ball sizes
    papers = [
        (rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))), rng.randint(1, 9))
        for _ in range(rng.randint(1, 5))
    ]
    instance = CreditInstance.of(n, papers)
    return FullCreditGame(instance) if variant == "fc" else FullObligationGame(instance)


def _assert_pinned_to_the_pmf(game, p, x):
    """``shapley_gradient`` on a coverage game against the exact pmf
    reference at rel/abs 1e-12, and +0.0 wherever the reference is 0."""
    reference = coverage_gradient(game, p, x)
    grad = shapley_gradient(game, p, x)
    assert grad == pytest.approx([float(r) for r in reference], rel=1e-12, abs=1e-12)
    assert all(
        (g, math.copysign(1.0, g)) == (0.0, 1.0) for g, r in zip(grad, reference) if r == 0
    ), (game, x)


class TestGradients:
    @pytest.mark.parametrize(
        "case", ["nc1", "nc3", "fc", "isolated", "star-200", "credit-edge-cases", "no-papers"]
    )
    def test_coverage_matches_the_pmf_reference(self, rng, case):
        # the exact reference costs about a second per star-200 target at
        # float profiles, so that case checks one draw at its hub, player 1
        draws = 0
        while draws < (1 if case == "star-200" else 12):
            game, p = _vector_case(rng, case)
            if game.variant not in ("nc1", "nc3", "fc"):
                continue
            draws += 1
            for x in [1] if case == "star-200" else range(1, game.n + 1):
                _assert_pinned_to_the_pmf(game, p, x)

    def test_sets_of_five_sizes_share_one_block(self, rng):
        # player 1's sets have 2 to 6 coverers: its closed neighbourhood and
        # those of its neighbours 2..6, which carry 0..4 leaves; in fc its
        # papers have 1 to 6 authors.  Either way they fit one padded block
        edges, leaf = [(1, y) for y in range(2, 7)], 7
        for y in range(3, 7):
            edges += [(y, z) for z in range(leaf, leaf + y - 2)]
            leaf += y - 2
        papers = [(range(1, a + 1), a / 4) for a in range(1, 7)] + [((2, 7), 1.0)]
        cases = [
            ClosedNeighborhoodGame(Graph.of(leaf - 1, edges)),
            FullCreditGame(CreditInstance.of(8, papers)),
        ]
        for game in cases:
            covered = games._row(game._covers, 0).tolist()
            sizes = [len(games._row(game._set_csr, e)) for e in covered]
            assert len(set(sizes)) >= 5, sizes
            assert len(sizes) * 6 * 3 <= shapley._BLOCK_ELEMENTS  # 6 wide, 3 nodes
            for _ in range(6):
                p = _with_certain_players(rng, random_profile(rng, game.n))
                for x in range(1, game.n + 1):
                    _assert_pinned_to_the_pmf(game, p, x)

    def test_hub_set_split_along_its_nodes(self, rng):
        # the hub's own set (301 coverers, 151 nodes) exceeds a block, so it
        # runs in node slices after the block of its 300 two-wide leaf sets;
        # players 302..305 lie outside its distance-two ball.  Dyadic
        # probabilities keep the exact reference fast
        assert 301 * 151 > shapley._BLOCK_ELEMENTS
        edges = [(1, y) for y in range(2, 302)] + [(302, 303), (303, 304)]
        game = ClosedNeighborhoodGame(Graph.of(305, edges))
        values = [rng.choice((0.0, 1.0, 0.125, 0.375, 0.5, 0.875)) for _ in range(305)]
        for hub in (0.5, 0.0):
            p = ReliabilityProfile((hub, *values[1:]))
            for x in (1, 2):
                _assert_pinned_to_the_pmf(game, p, x)

    def test_restricted_loop_is_unchanged(self, rng):
        for _ in range(20):
            n = rng.randint(1, 12)
            graph = random_graph(rng, n, p_edge=rng.choice((0.15, 0.3, 0.6)))
            p = _with_certain_players(rng, random_profile(rng, n))
            x = rng.randint(1, n)
            grad = shapley_gradient_nc1(graph, p, x)
            reference = _gradient_nc1_over_all_players(graph, p, x)
            assert grad == pytest.approx(reference, rel=1e-12, abs=1e-12)
            # outside the distance-two ball the entries are exactly zero
            assert all(g == 0.0 for g, r in zip(grad, reference) if r == 0.0)

    def test_zero_outside_distance_two(self):
        game_graph = cycle_graph(7)
        p = ReliabilityProfile((0.6,) * 7)
        grad = shapley_gradient_nc1(game_graph, p, 1)
        # distance-2 ball of 1 on C_7 is {1,2,3,6,7}; players 4 and 5 are out
        assert grad[3] == 0.0 and grad[4] == 0.0
        assert grad[1] < 0 and grad[2] < 0 and grad[5] < 0 and grad[6] < 0

    def test_matches_finite_differences(self, rng):
        for _ in range(8):
            n = rng.randint(2, 7)
            graph = random_graph(rng, n)
            game = ClosedNeighborhoodGame(graph)
            p = random_profile(rng, n, lo=0.05, hi=0.95)
            x = rng.randint(1, n)
            grad = shapley_gradient_nc1(graph, p, x)
            for j in range(1, n + 1):
                if j == x:
                    continue
                fd = finite_difference(lambda q: shapley_closed(game, q, x), p, j, 1e-6)
                assert grad[j - 1] == pytest.approx(fd, abs=1e-5)
        for variant in ("nc3", "fc"):
            for _ in range(8):
                n = rng.randint(2, 7)
                game = random_game(rng, variant, n)
                p = random_profile(rng, n, lo=0.05, hi=0.95)
                x = rng.randint(1, n)
                grad = shapley_gradient(game, p, x)
                for j in range(1, n + 1):
                    fd = finite_difference(lambda q: shapley_closed(game, q, x), p, j, 1e-6)
                    assert grad[j - 1] == pytest.approx(fd, abs=1e-5), (variant, j)

    @pytest.mark.parametrize("variant", ["nc21", "nc22", "nc23", "fo"])
    def test_exact_for_threshold_and_obligation(self, rng, variant):
        # Sh_x is multilinear in every p_j, so the two-point difference is
        # the derivative itself; the references are exact rationals
        def nc2_value(game, q, x):
            return Fraction(q[x]) * nc2_inner(game, q, x)

        for _ in range(15):
            n = rng.randint(1, 7)
            game = random_game(rng, variant, n)
            p = _with_certain_players(rng, random_profile(rng, n))
            x = rng.randint(1, n)
            grad = shapley_gradient(game, p, x)
            if variant == "fo":
                reference = fo_gradient(game, p, x)
                inside = game.instance.coauthors(x) | {x}
            else:
                reference = [
                    nc2_value(game, p.with_value(j, 1.0), x)
                    - nc2_value(game, p.with_value(j, 0.0), x)
                    for j in range(1, n + 1)
                ]
                inside = ball(game.graph, {x}, 2)
            assert grad == pytest.approx([float(r) for r in reference], rel=1e-12, abs=1e-12)
            assert all(grad[j - 1] == 0.0 for j in range(1, n + 1) if j not in inside)

    def test_threshold_path_slope_is_one_sixth(self):
        # path 1-2-3 with k = 2: player 1 gains from pushing 2 over the
        # threshold only when 3 is live, so d Sh(1)/d p_3 = +1/6; Sh_1 is
        # linear in p_3, so the exact slope is the exact two-point difference
        game = ThresholdNeighborhoodGame(path_graph(3), 2)
        value = threshold_value(game.graph, 2)
        slope = exact_shapley(value, 3, (1, 1, 1), 1) - exact_shapley(value, 3, (1, 1, 0), 1)
        assert slope == Fraction(1, 6)
        assert abs(Fraction(shapley_gradient(game, (1.0, 1.0, 1.0), 1)[2]) - slope) <= 1e-12

    @pytest.mark.parametrize("p1", [Fraction(1), Fraction(1, 2)])
    def test_threshold_path_mixed_partial_is_minus_p1_over_three(self, p1):
        # path 1-2-3 with k = 2: Sh_1 is multilinear in p_2 and p_3, so its
        # mixed partial in them is the exact four-point difference over
        # their corners, -p_1 / 3
        graph = path_graph(3)
        value = threshold_value(graph, 2)
        table = [Fraction(value(coalition)) for coalition in all_coalitions(3)]
        game = ThresholdNeighborhoodGame(graph, 2)
        signs = {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
        exact = sum(s * exact_table_shapley(table, (p1, a, b))[0] for (a, b), s in signs.items())
        assert exact == -p1 / 3
        closed = sum(s * shapley_closed(game, (float(p1), a, b), 1) for (a, b), s in signs.items())
        assert abs(Fraction(closed) - exact) <= 1e-12

    @pytest.mark.parametrize("family", ["nc1-labelled", "nc1-classes", "nc3", "fc", "fo"])
    def test_mixed_partials_are_nonnegative(self, family):
        # the vertex property of the exact attack: for nc1, nc3, fc and fo,
        # d^2 Sh_x / dp_i dp_j >= 0 for i, j != x.  Sh_x is multilinear, so
        # the mixed partial is the exact four-point difference over the
        # corners of (p_i, p_j), at one rational non-uniform profile
        profile = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 5), Fraction(5, 6))
        if family == "nc1-labelled":
            games = [ClosedNeighborhoodGame(g) for n in range(1, 5) for g in _labelled_graphs(n)]
        elif family == "nc1-classes":
            classes = _graph_classes(5)
            assert len(classes) == 34
            games = [ClosedNeighborhoodGame(g) for g in classes]
        else:
            rng = random.Random(31)
            games = [_integral_game(rng, family, n) for n in (2, 3, 4, 4, 5, 5)]
        for game in games:
            n = game.n
            # integral values, so the float table is exact
            table = [Fraction(game.value_mask(mask)) for mask in range(1 << n)]
            for i, j in itertools.combinations(range(n), 2):
                corners = {}
                for a, b in itertools.product((0, 1), repeat=2):
                    q = list(profile[:n])
                    q[i], q[j] = a, b
                    corners[a, b] = exact_table_shapley(table, q)
                for x in set(range(n)) - {i, j}:
                    mixed = sum(
                        (-1) ** (a + b) * corners[a, b][x] for a, b in corners
                    )
                    assert mixed >= 0, (game, x + 1, i + 1, j + 1, mixed)

    def test_exact_enumerator_matches_the_closed_form(self, rng):
        # the exact pins above rest on conftest's Fraction enumerator
        for _ in range(4):
            n, k = rng.randint(1, 5), rng.randint(1, 3)
            game = ThresholdNeighborhoodGame(random_graph(rng, n), k)
            p = tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(n))
            x = rng.randint(1, n)
            exact = exact_shapley(threshold_value(game.graph, k), n, p, x)
            assert abs(Fraction(shapley_closed(game, p, x)) - exact) <= 1e-12

    @pytest.mark.parametrize("variant", ["nc21", "nc22", "nc23", "fo"])
    def test_two_point_batch_matches_the_per_call_loop(self, rng, variant):
        for _ in range(15):
            n = rng.randint(1, 9)
            game = random_game(rng, variant, n)
            p = _with_certain_players(rng, random_profile(rng, n))
            x = rng.randint(1, n)
            assert shapley_gradient(game, p, x) == pytest.approx(
                two_point_gradient_loop(game, p, x), rel=0, abs=1e-12
            )

    def test_triangle_symmetry(self):
        p = ReliabilityProfile((1.0, 0.5, 0.5))
        grad = shapley_gradient_nc1(complete_graph(3), p, 1)
        assert grad[1] == pytest.approx(grad[2], abs=1e-12)

    def test_dispatch_analytic_vs_numeric(self, rng):
        n = 5
        graph = random_graph(rng, n)
        game = ClosedNeighborhoodGame(graph)
        p = random_profile(rng, n, lo=0.1, hi=0.9)
        assert shapley_gradient(game, p, 2) == shapley_gradient_nc1(graph, p, 2)

    def test_coverage_variant_slopes_nonpositive(self, rng):
        # the monotone-decrease property holds for the coverage variants
        # (and for threshold 1, which coincides with them); threshold >= 2
        # genuinely violates it, see the removal counterexample in the
        # attacks tests
        from conftest import random_game

        for variant in ("nc1", "nc21", "nc3"):
            for _ in range(8):
                n = rng.randint(2, 6)
                game = random_game(rng, variant, n)
                p = random_profile(rng, n, lo=0.05, hi=0.95)
                x = rng.randint(1, n)
                grad = shapley_gradient(game, p, x)
                for j in range(1, n + 1):
                    if j != x:
                        assert grad[j - 1] <= 1e-7, (variant, j)

    def test_credit_slope_signs(self, rng):
        for _ in range(6):
            n = rng.randint(3, 6)
            game_fc = random_game(rng, "fc", n)
            game_fo = FullObligationGame(game_fc.instance)
            p = random_profile(rng, n, lo=0.05, hi=0.95)
            x = rng.randint(1, n)
            coas = game_fc.instance.coauthors(x)
            grad_fc = shapley_gradient(game_fc, p, x)
            grad_fo = shapley_gradient(game_fo, p, x)
            for j in range(1, n + 1):
                if j == x:
                    continue
                if j in coas:
                    assert grad_fc[j - 1] <= 1e-9
                    assert grad_fo[j - 1] >= -1e-9
                else:
                    assert grad_fc[j - 1] == pytest.approx(0.0, abs=1e-9)
                    assert grad_fo[j - 1] == pytest.approx(0.0, abs=1e-9)


class TestImprovingSwaps:
    def test_swap_toward_smaller_partial_decreases(self, rng):
        eps = 1e-4
        found = 0
        for _ in range(40):
            n = rng.randint(3, 6)
            graph = random_graph(rng, n)
            game = ClosedNeighborhoodGame(graph)
            p = random_profile(rng, n, lo=0.1, hi=0.9)
            x = rng.randint(1, n)
            grad = shapley_gradient_nc1(graph, p, x)
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != x and j != x and i != j and grad[i - 1] > grad[j - 1] + 1e-3
            ]
            if not pairs:
                continue
            i, j = pairs[0]
            found += 1
            before = shapley_closed(game, p, x)
            swapped = p.with_values({i: p[i] - eps, j: p[j] + eps})
            after = shapley_closed(game, swapped, x)
            gap = grad[i - 1] - grad[j - 1]
            assert after < before - 0.25 * eps * gap
        assert found >= 5
