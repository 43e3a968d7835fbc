import math
from random import Random
from time import perf_counter

import pytest

from antjam import network
from antjam.network import (
    Network,
    Node,
    build_network,
    euclidean_distance,
    grid_network,
    hop_counts,
    random_geometric_network,
)


class TestDistance:
    def test_three_four_five(self):
        assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_symmetry(self):
        rng = Random(11)
        for _ in range(100):
            a = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            assert euclidean_distance(a, b) == euclidean_distance(b, a)
            assert euclidean_distance(a, a) == 0.0


class TestBuildNetwork:
    def test_unit_square_has_four_side_links(self, unit_square):
        assert {(a, b) for a, b in unit_square.links if a < b} == {
            (0, 1), (1, 2), (2, 3), (0, 3)
        }
        # diagonals are sqrt(2) > 1.2 apart
        assert (0, 2) not in unit_square.links
        assert (1, 3) not in unit_square.links

    def test_link_needs_mutual_range(self):
        # node 1 can hear node 0 but not vice versa: no link
        net = build_network(
            [((0.0, 0.0), 10.0, 0.5), ((1.0, 0.0), 10.0, 5.0)], 1
        )
        assert net.links == set()

    def test_distances_symmetric_and_positive(self, unit_square):
        for (i, j) in unit_square.links:
            d = unit_square.distance[(i, j)]
            assert d > 0
            assert d == unit_square.distance[(j, i)]

    def test_neighbors_match_links(self, unit_square):
        for i in unit_square.nodes:
            for j in unit_square.neighbors(i):
                assert (i, j) in unit_square.links
        assert unit_square.neighbors(0) == {1, 3}

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="share coordinates"):
            build_network(
                [((1.0, 2.0), 10.0, 1.0), ((1.0, 2.0), 10.0, 1.0)], 0
            )

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            build_network([((0.0, 0.0), 10.0, 1.0)], 0)

    def test_bad_pe_index_rejected(self):
        specs = [((0.0, 0.0), 10.0, 1.0), ((1.0, 0.0), 10.0, 1.0)]
        for pe_index in (5, 2, -1):
            with pytest.raises(ValueError, match="unknown processing element"):
                build_network(specs, pe_index)

    def test_far_apart_grid_compares_only_neighbours(self, monkeypatch):
        # a spacing 1e11 times the range once made the build compare every
        # pair: 2,049,300 distances for these 2,025 nodes
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return euclidean_distance(a, b)

        monkeypatch.setattr(network, "euclidean_distance", counted)
        net = grid_network(45, 45, 1e12, 12.0, 1.0)
        assert net.links == set()
        assert 0 < calls <= 9 * len(net.nodes)

    def test_single_processing_element(self, unit_square):
        assert unit_square.pe_id == 2

    def test_link_ceiling(self, unit_square, monkeypatch):
        specs = [(n.position, 100.0, 1.2) for n in unit_square.nodes.values()]
        monkeypatch.setattr(network, "MAX_LINKS", 8)
        assert len(build_network(specs, 2).links) == 8
        monkeypatch.setattr(network, "MAX_LINKS", 7)
        with pytest.raises(ValueError, match="exceeds 7 directed links"):
            build_network(specs, 2)
        with pytest.raises(ValueError, match="exceeds 7 directed links"):
            random_geometric_network(
                4, 1.0, 1.0, 2.0, 100.0, Random(0), connected=True
            )

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Node(0, (0.0, 0.0), -1.0, 1.0)
        with pytest.raises(ValueError):
            Node(0, (0.0, 0.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            Node(0, (math.nan, 0.0), 1.0, 1.0)

    def test_node_rejects_nan(self):
        with pytest.raises(ValueError, match="negative energy"):
            Node(0, (0.0, 0.0), math.nan, 1.0)
        with pytest.raises(ValueError, match="radio range must be positive"):
            Node(0, (0.0, 0.0), 1.0, math.nan)
        assert Node(0, (0.0, 0.0), 1.0, math.inf).radio_range == math.inf

    def test_unknown_node_id(self, unit_square):
        with pytest.raises(ValueError, match="unknown node id"):
            unit_square.neighbors(99)


class TestDrainEnergy:
    def test_energy_floors_at_zero(self, unit_square):
        unit_square.drain_energy(0, 1e9)
        assert unit_square.nodes[0].energy == 0.0

    def test_energy_monotone_nonincreasing(self, unit_square):
        rng = Random(5)
        previous = unit_square.nodes[1].energy
        for _ in range(50):
            unit_square.drain_energy(1, rng.uniform(0, 5))
            now = unit_square.nodes[1].energy
            assert now <= previous
            previous = now

    def test_dead_node_leaves_all_neighborhoods(self, unit_square):
        unit_square.drain_energy(1, 100.0)
        assert not unit_square.nodes[1].alive
        for i in unit_square.nodes:
            assert 1 not in unit_square.neighbors(i)
        assert unit_square.neighbors(1) == set()
        assert (0, 1) not in unit_square.links
        assert (1, 2) not in unit_square.links
        assert set(unit_square.links) == set(unit_square.distance)
        assert "links" not in vars(unit_square)

    def test_negative_drain_rejected(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.drain_energy(0, -1.0)

    def test_partial_drain_keeps_links(self, unit_square):
        unit_square.drain_energy(1, 99.5)
        assert unit_square.nodes[1].alive
        assert (0, 1) in unit_square.links

    def test_only_the_killing_drain_returns_true(self, unit_square):
        assert unit_square.drain_energy(1, 99.5) is False
        assert unit_square.drain_energy(1, 0.5) is True
        assert unit_square.drain_energy(1, 1.0) is False  # already dead

    def test_unknown_node_rejected(self, unit_square):
        with pytest.raises(ValueError, match="unknown node id 99"):
            unit_square.drain_energy(99, 1.0)

    @pytest.mark.parametrize("energy", [100.0, 0.3, math.inf])
    @pytest.mark.parametrize("amount", [0.0, 0.1, 0.3, 99.9, 100.0, math.inf, math.nan])
    def test_energy_left_is_the_floored_difference(self, energy, amount):
        net = build_network([((0.0, 0.0), energy, 1.0), ((0.5, 0.0), 1.0, 1.0)], 1)
        if math.isnan(amount):  # no amount at all: refused, and the node kept
            with pytest.raises(ValueError, match="^drain amount must be >= 0$"):
                net.drain_energy(0, amount)
            want = energy
        else:
            want = max(0.0, energy - amount)
            assert net.drain_energy(0, amount) is (want == 0.0)
        assert net.nodes[0].energy == want
        assert net.nodes[0].alive is (want != 0.0)

    def test_deaths_record_the_rows_they_drop(self, unit_square):
        # 0 - 1 - 2 - 3 - 0 around the square
        assert unit_square._dropped_rows == []
        unit_square.drain_energy(1, 100.0)
        assert unit_square._dropped_rows[0] == 1
        assert sorted(unit_square._dropped_rows[1:]) == [0, 2]
        unit_square.drain_energy(1, 1.0)  # already dead: nothing new
        unit_square.drain_energy(0, 100.0)
        assert unit_square._dropped_rows[3:] == [0, 3]
        unit_square.drain_energy(3, 100.0)  # 2 loses its last neighbor
        assert unit_square._dropped_rows[5:] == [3, 2]
        unit_square.drain_energy(2, 100.0)  # an isolated death drops its own row
        assert unit_square._dropped_rows[7:] == [2]


class TestHopCounts:
    def test_line(self, line3):
        assert hop_counts(line3, 2) == {2: 0, 1: 1, 0: 2}

    def test_blocked_node_cuts_path(self, line3):
        counts = hop_counts(line3, 2, blocked=frozenset({1}))
        assert counts == {2: 0}

    def test_dead_node_cuts_path(self, line3):
        line3.drain_energy(1, 100.0)
        assert hop_counts(line3, 2) == {2: 0}


class TestGenerators:
    def test_grid_shape(self):
        net = grid_network(3, 4, 10.0, 12.0, 50.0, pe_index=11)
        assert len(net.nodes) == 12
        assert net.nodes[5].position == (10.0, 10.0)  # row 1, col 1
        assert net.pe_id == 11
        # interior node has 4 orthogonal neighbors at range 12 < 10*sqrt(2)
        assert net.neighbors(5) == {1, 4, 6, 9}

    def test_random_reproducible(self):
        a = random_geometric_network(12, 100.0, 100.0, 40.0, 50.0, Random(3))
        b = random_geometric_network(12, 100.0, 100.0, 40.0, 50.0, Random(3))
        assert [a.nodes[i].position for i in a.nodes] == [
            b.nodes[i].position for i in b.nodes
        ]
        assert a.links == b.links

    def test_random_connected_flag(self):
        net = random_geometric_network(
            10, 100.0, 100.0, 45.0, 50.0, Random(9), connected=True
        )
        assert len(hop_counts(net, net.pe_id)) == 10

    def test_random_respects_bounds(self):
        net = random_geometric_network(20, 30.0, 60.0, 10.0, 50.0, Random(1))
        for node in net.nodes.values():
            x, y = node.position
            assert 0.0 <= x <= 30.0
            assert 0.0 <= y <= 60.0

    def test_tiny_area_raises_promptly(self):
        # only 4 distinct points fit, so 10 nodes must share one; redrawing
        # a shared point never ended
        class CountedRandom(Random):
            draws = 0

            def uniform(self, a, b):
                self.draws += 1
                assert self.draws <= 20, "placement keeps redrawing"
                return super().uniform(a, b)

        with pytest.raises(ValueError, match="share coordinates"):
            random_geometric_network(
                10, 5e-324, 5e-324, 1.0, 50.0, CountedRandom(1), connected=True
            )

    def test_no_connected_placement_is_value_error(self):
        with pytest.raises(ValueError, match="^no connected placement found in 3 tries"):
            random_geometric_network(
                10, 100.0, 100.0, 0.001, 50.0, Random(1), connected=True, max_tries=3
            )

    def test_placement_budget_shrinks_with_count(self):
        tries = network.placement_tries
        assert [tries(n) for n in (2, 10, 2000, 5000)] == [200] * 4
        assert [tries(n) for n in (5001, 20_000, 100_000)] == [199, 50, 10]
        assert tries(10**7) == 1

    # (count, range, draw budget or None for the default, budget, the seed
    # whose first connected placement is the budget's last attempt, the seed
    # whose first is one attempt past it), all in a 100 x 100 field
    BUDGETS = [(10, 26.0, None, 200, 312, 1430), (40, 22.0, 120, 3, 3, 12)]

    @pytest.mark.parametrize("count, reach, draws, budget, last, past", BUDGETS,
                             ids=["default", "shrunk"])
    def test_placement_just_under_and_past_the_budget(
        self, monkeypatch, count, reach, draws, budget, last, past
    ):
        if draws is not None:
            monkeypatch.setattr(network, "MAX_PLACEMENT_DRAWS", draws)
        assert network.placement_tries(count) == budget

        def place(seed, max_tries=None):
            return random_geometric_network(
                count, 100.0, 100.0, reach, 50.0, Random(seed), connected=True,
                max_tries=max_tries,
            )

        placed = place(last)
        assert len(hop_counts(placed, placed.pe_id)) == count
        with pytest.raises(ValueError, match=f"in {budget - 1} tries"):
            place(last, budget - 1)  # so the budget's last attempt placed it
        # one attempt past the budget fails, naming it, after drawing exactly
        # the budget's nodes; 200 attempts of 10 nodes take milliseconds
        rng = Random(past)
        start = perf_counter()
        with pytest.raises(ValueError, match=(
            f"^no connected placement found in {budget} tries, "
            f"the attempt budget for {count} nodes;"
        )):
            random_geometric_network(count, 100.0, 100.0, reach, 50.0, rng,
                                     connected=True)
        assert perf_counter() - start < 5.0
        drawn = Random(past)
        for _ in range(2 * count * budget):
            drawn.random()
        assert rng.getstate() == drawn.getstate()
        assert place(past, budget + 1).pe_id == 0

    def test_links_mutual_on_random_nets(self):
        # the link rule distance <= min(range) is symmetric by construction;
        # spot-check on heterogeneous ranges
        rng = Random(17)
        specs = [
            ((rng.uniform(0, 50), rng.uniform(0, 50)), 10.0, rng.uniform(5, 30))
            for _ in range(15)
        ]
        net = build_network(specs, 0)
        for (i, j) in net.links:
            assert (j, i) in net.links
            d = euclidean_distance(net.nodes[i].position, net.nodes[j].position)
            assert d <= min(net.nodes[i].radio_range, net.nodes[j].radio_range)
