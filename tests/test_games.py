import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reliattack import (
    AttackProblem,
    ClosedNeighborhoodGame,
    CostModel,
    CreditInstance,
    DistanceCutoffGame,
    DomainError,
    FullCreditGame,
    FullObligationGame,
    Graph,
    ReliabilityProfile,
    ThresholdNeighborhoodGame,
    ball,
    coauthor_contributions,
    complete_graph,
    cycle_sequence,
    game_from_json,
    is_complete,
    pairwise_exempt_set,
    removal_no_benefit_check,
    shapley_closed,
    shapley_gradient,
    shapley_vector_closed,
    star_center,
)
from reliattack import games
from reliattack.games import Game

from conftest import (
    TableGame,
    all_coalitions,
    cycle_graph,
    loop_table,
    path_graph,
    random_credit,
    random_game,
    random_graph,
    random_weighted_graph,
    star_graph,
    threshold_value,
)


class TestGraph:
    def test_validation(self):
        with pytest.raises(DomainError):
            Graph.of(3, [(1, 1)])  # self-loop
        with pytest.raises(DomainError):
            Graph.of(3, [(1, 2), (2, 1)])  # duplicate after normalization
        with pytest.raises(DomainError):
            Graph.of(3, [(1, 4)])  # endpoint out of range
        with pytest.raises(DomainError):
            Graph.of(3, [(1, 2, 0.0)])  # nonpositive weight
        with pytest.raises(DomainError):
            Graph.of(3, [(1, 2), (2, 3, 1.0)])  # mixed weighting

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_weights_must_be_finite(self, w):
        with pytest.raises(DomainError, match="edge \\(1,2\\) weight"):
            Graph.of(3, [(1, 2, w), (2, 3, 0.5)])
        with pytest.raises(DomainError, match="finite"):
            Graph(3, ((1, 2),), (w,))

    def test_endpoints_must_be_integers(self):
        assert Graph.of(3, [(1.0, 2)]) == Graph.of(3, [(1, 2)])
        for bad in ((1.9, 2), (True, 2), ("1", 2)):
            with pytest.raises(DomainError, match="endpoint"):
                Graph.of(3, [bad])
        # paper authors too; in a set, True would merge with player 1
        for bad in ((True, 2), (1, True)):
            with pytest.raises(DomainError, match="author set"):
                CreditInstance.of(3, [(bad, 1.0)])

    def test_builders(self):
        assert len(complete_graph(5).edges) == 10
        assert star_center(star_graph(5, center=3)) == 3
        assert star_center(complete_graph(4)) is None
        assert is_complete(complete_graph(4))
        assert not is_complete(star_graph(4))
        assert cycle_sequence(cycle_graph(5)) == (1, 2, 3, 4, 5)
        assert cycle_sequence(path_graph(5)) is None
        assert cycle_sequence(complete_graph(4)) is None


class TestBall:
    def test_hop_distance(self):
        assert ball(path_graph(3), {1}, 1) == {1, 2}

    def test_empty(self):
        assert ball(path_graph(3), set(), 2) == frozenset()

    def test_weighted_shortest_path(self):
        g = Graph.of(3, [(1, 2, 0.4), (2, 3, 0.7)])
        assert ball(g, {1}, 1.0) == {1, 2}  # d(1,3) = 1.1 > 1
        assert ball(g, {1}, 1.1) == {1, 2, 3}  # inclusive at the cutoff

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            ball(path_graph(3), {1}, -0.1)

    def test_two_edge_tie_at_cutoff(self):
        # 0.4 + 0.6 == 1.0 exactly: player 3 sits on the cutoff and is in;
        # the direct edge (1, 3) is longer, and player 4 lies beyond the cutoff
        g = Graph.of(4, [(1, 2, 0.4), (2, 3, 0.6), (1, 3, 1.2), (3, 4, 0.25)])
        assert ball(g, {1}, 1.0) == {1, 2, 3}
        assert ball(g, {3}, 1.0) == {1, 2, 3, 4}
        game = DistanceCutoffGame(g, 1.0)
        assert game._covers[1].tolist() == [1, 2, 3]
        assert game._covers[4].tolist() == [2, 3, 4]
        assert game.value({4}) == 3


class TestCharValue:
    def test_nc1_star(self):
        game = ClosedNeighborhoodGame(star_graph(3, center=3))
        assert game.value({1}) == 2  # |{1, 3}|

    def test_fo_needs_all_authors(self):
        game = FullObligationGame(CreditInstance.of(2, [((1, 2), 2.0)]))
        assert game.value({1}) == 0
        assert game.value({1, 2}) == 2

    def test_fc_counts_touched_papers(self):
        game = FullCreditGame(
            CreditInstance.of(3, [((1, 2), 2.0), ((2, 3), 1.0)])
        )
        assert game.value({2}) == 3

    def test_empty_coalition_is_zero(self, rng):
        for variant in ("nc1", "nc21", "nc3", "fc", "fo"):
            from conftest import random_game

            game = random_game(rng, variant, 5)
            assert game.value(set()) == 0.0

    def test_table_game(self):
        game = TableGame(2, {(): 0.0, (1,): 1.0, (2,): 0.0, (1, 2): 1.0})
        assert game.value({1}) == 1.0
        with pytest.raises(DomainError):
            TableGame(2, {(1,): 1.0})  # empty coalition undefined
        with pytest.raises(DomainError):
            TableGame(2, {(): 0.5})  # nonzero empty value

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nc2_matches_its_definition(self, rng, k):
        # player n + 1 is isolated, and sparse graphs isolate more
        for p_edge in (0.2, 0.5, 0.8):
            for _ in range(3):
                n = rng.randint(1, 7)
                graph = Graph(n + 1, random_graph(rng, n, p_edge).edges)
                game, value = ThresholdNeighborhoodGame(graph, k), threshold_value(graph, k)
                for coalition in all_coalitions(n + 1):
                    assert game.value(coalition) == value(coalition)

    def test_nc2_requires_k(self):
        with pytest.raises(DomainError):
            ThresholdNeighborhoodGame(path_graph(3), 0)

    def test_nc3_requires_weights(self):
        with pytest.raises(DomainError):
            DistanceCutoffGame(path_graph(3), 1.0)


class TestMonotonicity:
    @pytest.mark.parametrize("variant", ["nc1", "nc2", "nc3", "fc", "fo"])
    def test_value_monotone_in_members(self, rng, variant):
        from conftest import random_game

        for _ in range(6):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            full = list(all_coalitions(n))
            for s in full:
                vs = game.value(s)
                for extra in range(1, n + 1):
                    if extra not in s:
                        assert vs <= game.value(s | {extra}) + 1e-12


class TestVariantBridges:
    def test_nc3_unit_weights_radius_one_equals_nc1(self, rng):
        for _ in range(8):
            n = rng.randint(2, 7)
            plain = random_graph(rng, n)
            weighted = Graph(plain.n, plain.edges, (1.0,) * len(plain.edges))
            nc1 = ClosedNeighborhoodGame(plain)
            nc3 = DistanceCutoffGame(weighted, 1.0)
            for s in all_coalitions(n):
                assert nc1.value(s) == nc3.value(s)

    def test_nc2_with_threshold_one_equals_nc1(self, rng):
        for _ in range(8):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            nc1 = ClosedNeighborhoodGame(g)
            nc2 = ThresholdNeighborhoodGame(g, 1)
            for s in all_coalitions(n):
                assert nc1.value(s) == nc2.value(s)


class TestCoauthors:
    def test_single_paper(self):
        ci = CreditInstance.of(2, [((1, 2), 5.0)])
        assert coauthor_contributions(ci, 1) == {2: 5.0}

    def test_sums_joint_papers(self):
        ci = CreditInstance.of(3, [((1, 2), 2.0), ((1, 2), 3.0), ((1, 3), 1.0)])
        assert coauthor_contributions(ci, 1) == {2: 5.0, 3: 1.0}

    def test_no_coauthored_papers(self):
        ci = CreditInstance.of(3, [((2,), 1.0)])
        assert coauthor_contributions(ci, 1) == {}

    def test_papers_of(self):
        ci = CreditInstance.of(3, [((1, 2), 2.0), ((2,), 1.0), ((1, 3), 4.0)])
        assert ci.papers_of(1) == [0, 2]
        assert ci.papers_of(2) == [0, 1]
        ci.papers_of(3).append(0)  # callers get a fresh list
        assert ci.papers_of(3) == [2]
        with pytest.raises(DomainError):
            ci.papers_of(4)

    def test_validation(self):
        with pytest.raises(DomainError, match="finite"):
            CreditInstance.of(2, [((1,), float("inf"))])
        with pytest.raises(DomainError):
            CreditInstance.of(2, [((), 1.0)])
        with pytest.raises(DomainError):
            CreditInstance.of(2, [((1,), -0.5)])
        with pytest.raises(DomainError):
            CreditInstance.of(2, [((3,), 1.0)])

    def test_scores_must_sum_within_the_float_range(self):
        # each score is finite, but the grand coalition's value is not
        with pytest.raises(DomainError, match="paper scores sum past the largest float"):
            CreditInstance.of(2, [((1,), 1e308), ((2,), 1e308)])
        CreditInstance.of(2, [((1,), 1e308), ((2,), 7e307)])


def induced_subgraph_to_credit(graph: Graph) -> CreditInstance:
    """One two-author paper per edge, scored by the edge weight, so that the
    full-obligation game on the result reproduces the induced-subgraph game."""
    return CreditInstance.of(
        graph.n, [((u, v), w) for (u, v), w in graph.edge_weight_items()]
    )


class TestInducedSubgraph:
    def test_triangle(self):
        g = Graph.of(3, [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)])
        ci = induced_subgraph_to_credit(g)
        assert len(ci.papers) == 3
        assert sorted(s for _, s in ci.papers) == [1.0, 2.0, 3.0]

    def test_edgeless(self):
        assert induced_subgraph_to_credit(Graph.of(3, [])).papers == ()

    def test_edge_coalition_value(self):
        g = Graph.of(3, [(1, 2, 1.5), (2, 3, 2.5)])
        game = FullObligationGame(induced_subgraph_to_credit(g))
        assert game.value({1, 2}) == 1.5
        assert game.value({1, 3}) == 0.0

    def test_matches_inside_edge_weight_sum(self, rng):
        for _ in range(6):
            n = rng.randint(2, 6)
            g = random_weighted_graph(rng, n)
            game = FullObligationGame(induced_subgraph_to_credit(g))
            for s in all_coalitions(n):
                expected = sum(
                    w for (u, v), w in g.edge_weight_items() if u in s and v in s
                )
                assert game.value(s) == pytest.approx(expected, abs=1e-12)


def game_to_json(game: Game) -> dict:
    """Inverse of :func:`game_from_json` for the five wire variants."""
    if isinstance(game, (ClosedNeighborhoodGame, ThresholdNeighborhoodGame, DistanceCutoffGame)):
        g = game.graph
        if g.is_weighted:
            edges = [[u, v, w] for (u, v), w in zip(g.edges, g.weights)]
        else:
            edges = [[u, v] for u, v in g.edges]
        out: dict = {"variant": game.variant, "n": g.n, "edges": edges}
        if isinstance(game, ThresholdNeighborhoodGame):
            out["k"] = game.threshold
        if isinstance(game, DistanceCutoffGame):
            out["d_cut"] = game.cutoff
        return out
    if isinstance(game, (FullCreditGame, FullObligationGame)):
        return {
            "variant": game.variant,
            "n": game.n,
            "papers": [
                {"authors": sorted(a), "score": s} for a, s in game.instance.papers
            ],
        }
    raise DomainError(f"game variant {game.variant!r} has no JSON form")


class TestJson:
    def test_round_trip_nc(self):
        for game in (
            ClosedNeighborhoodGame(cycle_graph(5)),
            ThresholdNeighborhoodGame(complete_graph(4), 2),
            DistanceCutoffGame(Graph.of(3, [(1, 2, 0.4), (2, 3, 0.7)]), 1.0),
        ):
            assert game_from_json(game_to_json(game)) == game

    def test_round_trip_credit(self):
        ci = CreditInstance.of(3, [((1, 2), 2.0), ((2, 3), 1.0)])
        for game in (FullCreditGame(ci), FullObligationGame(ci)):
            assert game_from_json(game_to_json(game)) == game

    @seed(20240817)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["nc1", "nc2", "nc3", "fc", "fo"]),
        st.integers(1, 8),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_property(self, variant, n, hrng):
        game = random_game(hrng, variant, n)
        assert game_from_json(json.loads(json.dumps(game_to_json(game)))) == game

    def test_field_errors(self):
        with pytest.raises(DomainError, match="variant"):
            game_from_json({"n": 3})
        with pytest.raises(DomainError, match="edges"):
            game_from_json({"variant": "nc1", "n": 3})
        with pytest.raises(DomainError, match="k"):
            game_from_json({"variant": "nc2", "n": 3, "edges": [[1, 2]]})
        with pytest.raises(DomainError, match="d_cut"):
            game_from_json({"variant": "nc3", "n": 3, "edges": [[1, 2, 1.0]]})
        with pytest.raises(DomainError, match="papers"):
            game_from_json({"variant": "fc", "n": 3})
        with pytest.raises(DomainError, match="papers"):
            game_from_json({"variant": "nc1", "n": 3, "edges": [[1, 2]], "papers": []})

    @pytest.mark.parametrize("d_cut", [math.inf, -math.inf, math.nan, 0.0])
    def test_cutoff_must_be_finite_and_positive(self, d_cut):
        nc3 = {"variant": "nc3", "n": 3, "edges": [[1, 2, 1.0], [2, 3, 0.5]], "d_cut": d_cut}
        with pytest.raises(DomainError, match="'d_cut'"):
            game_from_json(nc3)
        with pytest.raises(DomainError, match="'d_cut'"):
            DistanceCutoffGame(Graph.of(3, [(1, 2, 1.0)]), d_cut)

    def test_integer_fields_are_not_truncated(self):
        nc1 = {"variant": "nc1", "n": 3, "edges": [[1, 2]]}
        assert game_from_json({**nc1, "n": 3.0}) == game_from_json(nc1)
        for bad, field in (
            ({**nc1, "n": 3.7}, "'n'"),
            ({**nc1, "n": True}, "'n'"),
            ({**nc1, "edges": [[1.9, 2]]}, "edge"),
            ({**nc1, "variant": "nc2", "k": 2.5}, "'k'"),
            ({**nc1, "variant": "nc2", "k": False}, "'k'"),
        ):
            with pytest.raises(DomainError, match=field):
                game_from_json(bad)


def assert_loop_table(game, exact: bool) -> None:
    """``game.subset_values()`` against the ``value_mask`` loop over all 2^n
    coalitions: float64 both, the same bytes when ``exact``, else within 1e-12."""
    got, want = game.subset_values(), loop_table(game)
    assert got.dtype == want.dtype == np.float64 and got.shape == (1 << game.n,)
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSubsetValues:
    """Each game's numpy table builder against the ``value_mask`` loop; exact
    on integer-valued games, 1e-12 on credit scores."""

    @pytest.mark.parametrize("variant", ["nc1", "nc21", "nc22", "nc23", "nc3", "fc", "fo"])
    def test_matches_value_mask_loop(self, rng, variant):
        for i in range(40):
            game = random_game(rng, variant, 1 + i % 9)
            assert_loop_table(game, exact=variant not in ("fc", "fo"))

    def test_table_game_loops_over_value_mask(self, rng):
        n = 5
        table = {coalition: float(rng.randint(0, 9)) for coalition in all_coalitions(n)}
        table[frozenset()] = 0.0
        game = TableGame(n, table)
        assert game.subset_values().tolist() == [game.value(s) for s in all_coalitions(n)]

    def test_tie_at_cutoff_and_isolated_players(self):
        # 0.4 + 0.6 reaches the cutoff 1.0 exactly; player 5 has no edge
        g = Graph.of(5, [(1, 2, 0.4), (2, 3, 0.6), (1, 3, 1.2), (3, 4, 0.25)])
        nc3 = DistanceCutoffGame(g, 1.0)
        plain = Graph.of(5, [(1, 2), (2, 3), (3, 4)])
        games = [nc3, ClosedNeighborhoodGame(plain)] + [
            ThresholdNeighborhoodGame(plain, k) for k in (1, 2, 3)
        ]
        for game in games:
            assert_loop_table(game, exact=True)
        assert nc3.subset_values()[[0b1, 0b10000]].tolist() == [3.0, 1.0]

    def test_papers_reaching_outside(self):
        # papers of one to three authors; author 6 has no paper
        inst = CreditInstance.of(
            6, [((1, 2), 1.5), ((2, 3, 4), 2.25), ((5,), 0.5), ((1, 4), 3.0), ((3,), 1.0)]
        )
        for game in (FullCreditGame(inst), FullObligationGame(inst)):
            assert_loop_table(game, exact=False)
        fo = FullObligationGame(inst)
        assert fo.subset_values()[[0b1, 0b1001, 0b11, 0b1011]].tolist() == [0.0, 3.0, 1.5, 4.5]
        for n in (1, 3):  # no papers: a float64 table of zeros
            empty = CreditInstance.of(n, [])
            for game in (FullCreditGame(empty), FullObligationGame(empty)):
                assert_loop_table(game, exact=True)

    def test_oracle_and_definitional_tables(self, rng, monkeypatch):
        from reliattack import AttackProblem, CostModel, OracleConfig, fractional_oracle
        from reliattack import oracle, shapley

        seen = []
        corner, transform = oracle._corner_shapley, shapley.liveness_transform
        monkeypatch.setattr(
            oracle, "_corner_shapley", lambda vtable, *a: seen.append(vtable) or corner(vtable, *a)
        )
        monkeypatch.setattr(
            shapley, "liveness_transform", lambda table, p: seen.append(table) or transform(table, p)
        )
        for variant in ("nc1", "nc2", "nc3", "fc", "fo"):
            n = rng.randint(2, 6)
            game = random_game(rng, variant, n)
            p = [rng.uniform(0.1, 1.0) for _ in range(n)]
            ones = (1.0,) * n
            problem = AttackProblem(game, 1, 0.5, CostModel(tuple(p), ones, ones, ones))
            seen.clear()
            fractional_oracle(problem, OracleConfig(0.25), attackable_cap=6)
            shapley.shapley_definitional(game, p)
            expected = [game.value_mask(m) for m in range(1 << n)]
            assert len(seen) == 2
            for table in seen:
                assert table == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_numpy_integers_in_player_sets(self):
        # the rule of a single player: numpy integers pass, bools do not
        game = ClosedNeighborhoodGame(complete_graph(3))
        costs = CostModel.uniform((0.5,) * 3)
        assert AttackProblem(game, 1, 0.5, costs, frozenset({np.int64(2)})).exempt == {1, 2}
        with pytest.raises(DomainError, match=r"^exempt set contains player True, "):
            AttackProblem(game, 1, 0.5, costs, frozenset({True}))
        inst = CreditInstance.of(3, [((np.int64(1), 2), 1.0)])
        assert inst.papers[0][0] == {1, 2} and all(type(a) is int for a in inst.papers[0][0])
        assert game.value([np.int64(2)]) == game.value([2])


class TestCoverageIncidence:
    def test_coverers_transpose_covers(self, rng):
        # path sums from 4 reach 1 at exactly 0.6; from 1 they reach 4 at
        # 0.6000000000000001, past the cutoff
        tie = DistanceCutoffGame(Graph.of(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.3)]), 0.6)
        assert tie._covers[1].tolist() == [1, 2, 3] and tie._covers[4].tolist() == [1, 2, 3, 4]
        assert tie._coverers[1].tolist() == [1, 2, 3, 4] and tie._coverers[4].tolist() == [2, 3, 4]
        games = [tie, FullCreditGame(CreditInstance.of(3, []))] + [
            random_game(rng, variant, rng.randint(1, 8))
            for variant in ("nc1", "nc3", "fc")
            for _ in range(10)
        ]
        for game in games:
            size = len(game._weights)
            assert len(game._covers) == game.n + 1 and len(game._covers[0]) == 0
            assert len(game._coverers) == size
            for row in (*game._covers, *game._coverers):
                assert (np.diff(row) > 0).all()
            covers = {(x, e) for x in range(game.n + 1) for e in game._covers[x].tolist()}
            coverers = {(x, e) for e in range(size) for x in game._coverers[e].tolist()}
            assert covers == coverers


class TestSizeGroups:
    def test_buckets_by_size_in_groups_within_the_cap(self, monkeypatch):
        # rows 0..6 of sizes 2, 0, 1, 2, 2, 1, 2; row 1 is empty
        rows = [[0, 1], [], [2], [3, 4], [0, 5], [6], [1, 2]]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        csr = (indptr, np.array(sum(rows, []), dtype=np.intp))
        monkeypatch.setattr(games, "_BLOCK_ELEMENTS", 6)
        out = list(games._size_groups(csr, np.array([6, 5, 4, 3, 2, 1, 0]), lambda a: 1))
        # at most 6 // a rows a group: one group of size 1, two of size 2
        assert [(g.tolist(), m.tolist()) for g, m in out] == [
            ([5, 2], [[6], [2]]),
            ([6, 4, 3], [[1, 2], [0, 5], [3, 4]]),
            ([0], [[0, 1]]),
        ]
        assert list(games._size_groups(csr, np.array([1]), lambda a: a)) == []

    def test_a_costly_row_still_forms_a_group(self):
        csr = (np.array([0, 3, 6]), np.arange(6))
        big = games._BLOCK_ELEMENTS
        out = list(games._size_groups(csr, np.array([0, 1]), lambda a: big))
        assert [g.tolist() for g, _ in out] == [[0], [1]]


def _player_entry_points():
    """Each public call that takes one player of a 3-player game, as a
    function of that player."""
    game = ClosedNeighborhoodGame(complete_graph(3))
    p = ReliabilityProfile((0.5, 0.6, 0.7))
    instance = CreditInstance.of(3, [((1, 2), 1.0), ((2, 3), 2.0)])
    return {
        "shapley_closed": lambda x: shapley_closed(game, p, x),
        "shapley_gradient": lambda x: shapley_gradient(game, p, x),
        "ShapleyVector[x]": lambda x: shapley_vector_closed(game, p)[x],
        "AttackProblem.target": lambda x: AttackProblem(
            game, x, 0.5, CostModel.uniform((0.5,) * 3)
        ).target,
        "pairwise_exempt_set": lambda x: pairwise_exempt_set(game, x),
        "removal_no_benefit_check": lambda x: removal_no_benefit_check(game, x, None),
        "Graph.neighbors": lambda x: game.graph.neighbors(x),
        "CreditInstance.papers_of": lambda x: instance.papers_of(x),
        "ReliabilityProfile[x]": lambda x: p[x],
        "ReliabilityProfile.with_value": lambda x: p.with_value(x, 0.1),
    }


class TestPlayerArguments:
    @pytest.mark.parametrize("entry", sorted(_player_entry_points()))
    def test_only_integer_players_in_range(self, entry):
        call = _player_entry_points()[entry]
        what = "target" if entry == "AttackProblem.target" else "player"
        for bad in (True, False, 2.0, 1.5, "2", None):
            with pytest.raises(DomainError, match=f"^{what} must be an integer, got "):
                call(bad)
        for outside in (0, 4, -1):
            with pytest.raises(DomainError) as info:
                call(outside)
            assert str(info.value) == f"{what} {outside} outside 1..3"
        assert call(np.int64(2)) == call(2)
