import math
from random import Random

import pytest

import antjam.ants
from antjam.ants import (
    COLONY_INTERVALS,
    Ant,
    Colony,
    DeadEnd,
    PheromoneTable,
    SearchParams,
    _Walk,
    adapt_sensitivity,
    choose_next_exploiter,
    global_pheromone_update,
    init_colonies,
    run_search,
    transition_probabilities,
)
from antjam.jammers import RadioParams, sample_radio
from antjam.metrics import TourRecord, build_link_metrics, quality_from_metrics
from antjam.network import build_network, grid_network, random_geometric_network

from oracle import best_score
import reference_search
from reference_search import _weight


def params(**kw):
    return SearchParams(**kw)


def two_candidate_instance():
    """Hand-checked instance: weight(1) = (2*0.5)^1 * (1/1)^1 = 1,
    weight(2) = (1*1)^1 * (1/2)^1 = 0.5, so probabilities are 2/3 and 1/3."""
    pheromone = {(0, 1): 2.0, (0, 2): 1.0}
    quality = {(0, 1): 0.5, (0, 2): 1.0}
    distance = {(0, 1): 1.0, (0, 2): 2.0}
    return pheromone, quality, distance


class TestSearchParams:
    def test_defaults_valid(self):
        params()

    def test_validation(self):
        for bad in (
            dict(q=-1.0),
            dict(rho=-0.1),
            dict(rho=1.5),
            dict(alpha=-1.0),
            dict(beta=-0.5),
            dict(n_explorers=-1),
            dict(n_explorers=0, n_exploiters=0),
            dict(iterations=0),
            dict(phi0=0.0),
            dict(psl_delta=1.0),
            dict(psl_delta=-0.1),
        ):
            with pytest.raises(ValueError):
                params(**bad)


class TestInitColonies:
    def test_sizes_ids_and_intervals(self):
        ants = init_colonies(params(n_explorers=5, n_exploiters=7), Random(3))
        assert len(ants) == 12
        assert [a.id for a in ants] == list(range(12))
        for ant in ants[:5]:
            assert ant.colony is Colony.EXPLORER
            assert 0.0 < ant.sensitivity < 0.5
        for ant in ants[5:]:
            assert ant.colony is Colony.EXPLOITER
            assert 0.5 < ant.sensitivity < 1.0

    def test_seeded_reproducibility(self):
        a = init_colonies(params(), Random(42))
        b = init_colonies(params(), Random(42))
        assert [x.sensitivity for x in a] == [y.sensitivity for y in b]

    def test_boundary_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            Ant(0, Colony.EXPLORER, 0.5)
        with pytest.raises(ValueError):
            Ant(0, Colony.EXPLOITER, 1.0)


class TestTransitionProbabilities:
    def test_hand_checked_example(self):
        pheromone, quality, distance = two_candidate_instance()
        probs = transition_probabilities(
            0, [1, 2], pheromone, quality, distance, params(alpha=1.0, beta=1.0)
        )
        assert abs(probs[1] - 2.0 / 3.0) <= 1e-12
        assert abs(probs[2] - 1.0 / 3.0) <= 1e-12

    def test_sums_to_one(self):
        rng = Random(8)
        for _ in range(300):
            n = rng.randint(1, 8)
            cands = list(range(1, n + 1))
            pheromone = {(0, u): rng.uniform(0.01, 5.0) for u in cands}
            quality = {(0, u): rng.uniform(0.01, 1.0) for u in cands}
            distance = {(0, u): rng.uniform(0.1, 50.0) for u in cands}
            p = params(alpha=rng.uniform(0, 3), beta=rng.uniform(0, 3))
            probs = transition_probabilities(0, cands, pheromone, quality, distance, p)
            assert abs(sum(probs.values()) - 1.0) <= 1e-9
            assert all(v >= 0.0 for v in probs.values())

    def test_uniform_when_both_exponents_zero(self):
        pheromone = {(0, u): float(u) for u in (1, 2, 3, 4)}
        quality = {(0, u): 1.0 / u for u in (1, 2, 3, 4)}
        distance = {(0, u): float(u * u) for u in (1, 2, 3, 4)}
        probs = transition_probabilities(
            0, [1, 2, 3, 4], pheromone, quality, distance,
            params(alpha=0.0, beta=0.0),
        )
        for v in probs.values():
            assert abs(v - 0.25) <= 1e-12

    def test_dead_candidate_never_attracts_probability(self):
        # even with alpha 0, a zero pheromone*quality product must stay at 0
        pheromone = {(0, 1): 0.0, (0, 2): 1.0}
        quality = {(0, 1): 1.0, (0, 2): 1.0}
        distance = {(0, 1): 1.0, (0, 2): 1.0}
        probs = transition_probabilities(
            0, [1, 2], pheromone, quality, distance, params(alpha=0.0)
        )
        assert probs[1] == 0.0
        assert probs[2] == 1.0

    def test_all_zero_signals_dead_end(self):
        pheromone = {(0, 1): 0.0}
        with pytest.raises(DeadEnd):
            transition_probabilities(
                0, [1], pheromone, {(0, 1): 1.0}, {(0, 1): 1.0}, params()
            )


def walker_hop(weights, rng, masked=()):
    """One explorer hop of the walker: the candidate it picks, None on a dead end.

    The candidates are nodes 0..n-1 with these weights, out of a hub node n.
    The ant walks to the hub through the masked candidates in order, one sure
    hop each, so the hub's hop sees exactly those as visited. Every candidate's
    own row is empty, so the walk stops right after the pick.
    """
    n = len(weights)
    hub = n
    chain = [*masked, hub]
    walk = _Walk(None, chain[0], n + 1, None, PheromoneTable(), params())
    walk.weights = {u: ([], [], [], []) for u in range(n)}
    for a, b in zip(chain, chain[1:]):
        walk.weights[a] = ([b], [1.0], [1.0], [1.0])
    walk.weights[hub] = (list(range(n)), list(weights), [1.0] * n, [1.0] * n)
    path, record = walk._walk(rng, explorer=True)
    assert record is None and path[: len(chain)] == tuple(chain)
    return path[len(chain)] if len(path) > len(chain) else None


class FixedDraw:
    """An rng whose every draw is r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


class TestExplorerChoice:
    # an explorer draws its next hop by roulette over the candidates' weights
    def test_roulette_frequencies(self):
        weights = [1.0, 0.5]  # two_candidate_instance: probabilities 2/3 and 1/3
        rng = Random(123)
        draws = 30000
        hits = sum(1 for _ in range(draws) if walker_hop(weights, rng) == 0)
        assert abs(hits / draws - 2.0 / 3.0) <= 0.01

    def test_deterministic_under_fixed_seed(self):
        weights = [1.0, 0.5]
        rng_a, rng_b = Random(77), Random(77)
        a = [walker_hop(weights, rng_a) for _ in range(20)]
        b = [walker_hop(weights, rng_b) for _ in range(20)]
        assert a == b
        assert set(a) == {0, 1}

    def test_rejects_unnormalized_table(self):
        # a total that overflows leaves no probabilities that sum to 1
        with pytest.raises(ValueError, match="probabilities sum to 0.0, not 1"):
            walker_hop([1e308, 1e308], Random(0))
        with pytest.raises(ValueError, match="probabilities sum to nan, not 1"):
            walker_hop([1.0, math.inf], Random(0))

    def test_rounding_fallback_skips_zero_probability(self):
        # the running sum of w / total stops short of the largest possible
        # draw; the last candidate with a positive quotient wins, not one
        # whose weight is zero or whose quotient underflows to zero. The
        # sum is added up as the walker adds it: sum() adds floats with
        # compensation from Python 3.12 on, and reaches the draw here
        top = FixedDraw(1.0 - 2.0**-53)
        for weights in ([0.7, 2.0, 1.0, 0.0], [0.7, 2.0, 1.0, 5e-324]):
            total = sum(weights)
            acc = 0.0
            for w in weights:
                acc += w / total
            assert acc < top.r
            assert walker_hop(weights, top) == 2


class TestExploiterChoice:
    def test_picks_best_weighted_candidate(self):
        pheromone, quality, distance = two_candidate_instance()
        choice = choose_next_exploiter(
            0, [1, 2], pheromone, quality, distance, params()
        )
        assert choice == 1

    def test_tie_break_smallest_id(self):
        pheromone = {(0, 4): 1.0, (0, 2): 1.0}
        quality = {(0, 4): 1.0, (0, 2): 1.0}
        distance = {(0, 4): 1.0, (0, 2): 1.0}
        assert (
            choose_next_exploiter(0, [4, 2], pheromone, quality, distance, params())
            == 2
        )

    def test_pheromone_scale_invariance(self):
        rng = Random(555)
        for _ in range(300):
            n = rng.randint(2, 8)
            cands = list(range(1, n + 1))
            pheromone = {(0, u): rng.uniform(0.01, 10.0) for u in cands}
            quality = {(0, u): rng.uniform(0.01, 1.0) for u in cands}
            distance = {(0, u): rng.uniform(0.1, 100.0) for u in cands}
            p = params(alpha=rng.uniform(0.1, 3), beta=rng.uniform(0, 3))
            base = choose_next_exploiter(0, cands, pheromone, quality, distance, p)
            c = rng.uniform(1e-6, 1e6)
            scaled = {link: c * v for link, v in pheromone.items()}
            assert (
                choose_next_exploiter(0, cands, scaled, quality, distance, p) == base
            )

    def test_all_zero_is_dead_end(self):
        with pytest.raises(DeadEnd):
            choose_next_exploiter(
                0, [1], {(0, 1): 1.0}, {(0, 1): 0.0}, {(0, 1): 1.0}, params()
            )


class TestConstructTour:
    # one ant's tour, walked by the search's own walker
    def test_forced_line(self, line3):
        quality = {link: 1.0 for link in line3.links}
        pheromone = PheromoneTable.uniform(line3, 1.0)
        for colony, sens in ((Colony.EXPLORER, 0.3), (Colony.EXPLOITER, 0.7)):
            ant = Ant(0, colony, sens)
            walk = _Walk(line3, 0, 2, quality, pheromone, params())
            path, record = walk.tour(ant, Random(1))
            assert record is not None
            assert record.path == (0, 1, 2)
            assert record.distance == 2.0
            assert record.quality == 1.0

    def test_no_revisits_and_only_live_links(self):
        rng = Random(31)
        net = random_geometric_network(
            12, 100.0, 100.0, 45.0, 50.0, rng, pe_index=11, connected=True
        )
        quality = {link: rng.uniform(0.1, 1.0) for link in net.links}
        # kill a few links outright
        for link in sorted(net.links)[::7]:
            quality[link] = 0.0
        pheromone = PheromoneTable.uniform(net, 1.0)
        for ant in init_colonies(params(n_explorers=10, n_exploiters=10), rng):
            walk = _Walk(net, 0, 11, quality, pheromone, params())
            path, record = walk.tour(ant, Random(ant.id))
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert (a, b) in net.links
                assert quality[(a, b)] > 0.0

    def test_jammed_cut_vertex_fails(self):
        # 0 - 1 - 2 in a line; node 1 is the only way through
        net = build_network(
            [((0.0, 0.0), 10.0, 1.2), ((1.0, 0.0), 10.0, 1.2), ((2.0, 0.0), 10.0, 1.2)],
            2,
        )
        quality = {link: 1.0 for link in net.links}
        for link in net.links:
            if 1 in link:
                quality[link] = 0.0  # flagged cut vertex: incident links dead
        # oracle: no live path exists at all
        exact, path = best_score(quality, net.distance, 0, 2)
        assert path is None
        pheromone = PheromoneTable.uniform(net, 1.0)
        for colony, sens in ((Colony.EXPLORER, 0.2), (Colony.EXPLOITER, 0.8)):
            ant = Ant(0, colony, sens)
            walk = _Walk(net, 0, 2, quality, pheromone, params())
            assert walk.tour(ant, Random(4)) == ((0,), None)  # partial walk kept

    def test_same_source_dest_rejected(self, line3):
        with pytest.raises(ValueError):
            run_search(line3, 1, 1, params(), Random(0))


class TestPheromoneUpdate:
    def test_uniform_init(self, line3):
        table = PheromoneTable.uniform(line3, 2.5)
        assert set(table) == line3.links
        assert all(v == 2.5 for v in table.values())

    def test_hand_checked_round(self):
        # retention 0.5 on pheromone 1, one tour of distance 2 and quality 1
        # depositing 1/(2*1): the used link lands back on exactly 1.0
        table = PheromoneTable({(0, 1): 1.0, (1, 0): 1.0})
        tour = TourRecord(path=(0, 1), distance=2.0, quality=1.0)
        global_pheromone_update(table, [tour], params(q=1.0, rho=0.5))
        assert abs(table[(0, 1)] - 1.0) <= 1e-12
        assert table[(1, 0)] == 0.5  # decay only, deposit is directional

    def test_every_tour_link_gets_deposit(self, line3):
        table = PheromoneTable.uniform(line3, 1.0)
        tour = TourRecord(path=(0, 1, 2), distance=2.0, quality=1.0)
        global_pheromone_update(table, [tour], params(q=1.0, rho=1.0))
        assert table[(0, 1)] == 1.5
        assert table[(1, 2)] == 1.5
        assert table[(1, 0)] == 1.0
        assert table[(2, 1)] == 1.0

    def test_zero_deposit_decay_is_geometric(self, line3):
        table = PheromoneTable.uniform(line3, 1.0)
        tour = TourRecord(path=(0, 1), distance=2.0, quality=1.0)
        p = params(q=0.0, rho=0.5)
        for _ in range(10):
            global_pheromone_update(table, [tour], p)
        for link in line3.links:
            assert abs(table[link] - 2.0**-10) <= 1e-12

    def test_untouched_links_share_one_decaying_value(self):
        table = PheromoneTable()
        table.untouched = 4.0
        tour = TourRecord(path=(0, 1), distance=2.0, quality=1.0)
        global_pheromone_update(table, [tour], params(q=1.0, rho=0.5))
        assert dict(table) == {(0, 1): 2.5}  # 4 * 0.5 + 1 / (2 * 1)
        assert table[(1, 0)] == table[(7, 9)] == 2.0
        assert (1, 0) not in table  # reading a link does not store it
        # reads of held links stay on dict's own lookup
        assert "__getitem__" not in PheromoneTable.__dict__

    def test_unknown_link_rejected(self):
        table = PheromoneTable({(0, 1): 1.0})
        tour = TourRecord(path=(0, 2), distance=1.0, quality=1.0)
        with pytest.raises(KeyError):
            global_pheromone_update(table, [tour], params())


class TestAdaptSensitivity:
    def test_explorer_success_moves_up(self):
        ant = Ant(0, Colony.EXPLORER, 0.4)
        got = adapt_sensitivity(ant, True, 1.0, 0.5, params(psl_delta=0.5))
        assert abs(got - 0.45) <= 1e-12

    def test_exploiter_failure_moves_down(self):
        ant = Ant(0, Colony.EXPLOITER, 0.6)
        got = adapt_sensitivity(ant, False, 0.0, 1.0, params(psl_delta=0.5))
        assert abs(got - 0.55) <= 1e-12

    def test_success_below_best_unchanged(self):
        ant = Ant(0, Colony.EXPLORER, 0.3)
        got = adapt_sensitivity(ant, True, 0.1, 0.5, params(psl_delta=0.5))
        assert got == 0.3

    def test_confinement_under_extreme_rate(self):
        rng = Random(99)
        p = params(psl_delta=0.97)
        for colony in (Colony.EXPLORER, Colony.EXPLOITER):
            lo, hi = COLONY_INTERVALS[colony]
            ant = Ant(0, colony, (lo + hi) / 2)
            for _ in range(500):
                if rng.random() < 0.5:
                    adapt_sensitivity(ant, True, 1.0, 0.0, p)
                else:
                    adapt_sensitivity(ant, False, 0.0, 0.0, p)
                assert lo < ant.sensitivity < hi


class TestRunSearch:
    def test_two_node_direct_link(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        result = run_search(net, 0, 1, params(iterations=3), Random(5))
        assert result.found
        assert result.best.path == (0, 1)
        assert result.best.score == 1.0  # quality 1 over distance 1

    def test_unreachable_destination_is_data(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 1.0), ((5.0, 0.0), 10.0, 1.0)], 1
        )
        result = run_search(net, 0, 1, params(iterations=3), Random(5))
        assert result.best is None
        assert all(s.successes == 0 for s in result.stats)

    def test_deterministic_per_seed(self):
        net = random_geometric_network(
            10, 100.0, 100.0, 45.0, 50.0, Random(2), pe_index=9, connected=True
        )
        p = params(n_explorers=6, n_exploiters=6, iterations=30)
        a = run_search(net, 0, 9, p, Random(11))
        b = run_search(net, 0, 9, p, Random(11))
        assert a.best.path == b.best.path
        assert a.best.score == b.best.score
        assert a.stats == b.stats
        c = run_search(net, 0, 9, p, Random(12))
        assert (c.best.path, c.best.score) != (a.best.path, a.best.score) or True
        # a different seed must at least not crash; paths may legitimately agree

    def test_finds_exhaustive_optimum_uniform_quality(self):
        net = random_geometric_network(
            8, 100.0, 100.0, 50.0, 50.0, Random(6), pe_index=7, connected=True
        )
        quality = {link: 1.0 for link in net.links}
        exact, exact_path = best_score(quality, net.distance, 0, 7)
        result = run_search(
            net, 0, 7, params(n_explorers=8, n_exploiters=8, iterations=60),
            Random(3),
        )
        assert result.found
        assert result.best.score == pytest.approx(exact, rel=1e-9)

    def test_finds_exhaustive_optimum_metric_quality(self):
        net = random_geometric_network(
            8, 100.0, 100.0, 55.0, 50.0, Random(14), pe_index=7, connected=True
        )
        samples = sample_radio(net, [], 0, RadioParams(), Random(0))
        quality = quality_from_metrics(build_link_metrics(net, samples))
        exact, exact_path = best_score(quality, net.distance, 0, 7)
        assert exact > 0.0
        result = run_search(
            net, 0, 7, params(n_explorers=8, n_exploiters=8, iterations=60),
            Random(21), quality=quality,
        )
        assert result.found
        assert result.best.score == pytest.approx(exact, rel=1e-9)

    def test_iteration_stats_shape_and_csv(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        p = params(n_explorers=2, n_exploiters=2, iterations=5)
        result = run_search(net, 0, 1, p, Random(5))
        assert len(result.stats) == 5
        for idx, s in enumerate(result.stats):
            assert s.iteration == idx
            assert s.successes == 4
            assert 0.0 < s.mean_sensitivity_explorer < 0.5
            assert 0.5 < s.mean_sensitivity_exploiter < 1.0
        csv_text = result.stats_csv()
        lines = csv_text.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("iteration,best_score,")

    def test_transmit_counts_match_walk_lengths(self, line3):
        p = params(n_explorers=1, n_exploiters=1, iterations=2)
        result = run_search(line3, 0, 2, p, Random(5))
        # every tour is (0, 1, 2): both ants transmit from 0 and 1 each round
        assert result.transmit_counts == {0: 4, 1: 4}

    def test_dead_endpoint_rejected(self, line3):
        line3.drain_energy(0, 100.0)
        with pytest.raises(ValueError):
            run_search(line3, 0, 2, params(), Random(0))

    def test_only_explorers_draw_substreams(self, monkeypatch):
        made = []

        class CountingRandom(Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(antjam.ants, "Random", CountingRandom)
        net = grid_network(3, 3, 10.0, 12.0, 100.0)
        p = params(n_explorers=3, n_exploiters=4, iterations=5)
        result = run_search(net, 0, 8, p, Random(9))
        assert result.found
        assert len(made) == p.n_explorers * p.iterations
        # each seed is "token:iteration:ant id", and explorers hold ids 0..2
        assert {int(seed.rsplit(":", 1)[1]) for (seed,) in made} == {0, 1, 2}


def sparse_field():
    """A sparse field where most first-round tours reach a dead end, and a
    quality per link, a tenth of them 0.0."""
    rng = Random(18)
    net = random_geometric_network(
        30, 100.0, 100.0, 28.0, 50.0, rng, pe_index=29, connected=True
    )
    quality = {
        link: 0.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0)
        for link in sorted(net.links)
    }
    return net, quality


class TestUntouchedRows:
    # A node that owns no pheromone entry reads the shared untouched value on
    # every out-link, and with alpha > 0 the walk weighs its row from that
    # value alone; every weight must keep the rule's bits.
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5])  # rho 0 makes untouched 0.0
    def test_weights_equal_the_reference_rule_after_each_round(
        self, monkeypatch, alpha, rho
    ):
        net, quality = sparse_field()
        p = params(
            alpha=alpha, rho=rho, n_explorers=4, n_exploiters=2, iterations=6
        )
        seen = {"deposited": 0, "untouched": 0}
        new_round = _Walk.new_round

        def checked_round(walk):
            # each round after the first starts right after a pheromone
            # update: weigh every row reached so far
            owners = {i for i, _ in walk.pheromone}
            for node, (ids, *_) in list(walk.rows.items()):
                want = [
                    _weight(node, u, walk.pheromone, quality, net.distance, p)
                    for u in ids
                ]
                got = walk._weights(node)[1]
                assert [w.hex() for w in got] == [w.hex() for w in want], node
                seen["deposited" if node in owners else "untouched"] += 1
            new_round(walk)

        monkeypatch.setattr(_Walk, "new_round", checked_round)
        result = run_search(net, 0, 29, p, Random(3), quality)
        assert result.found
        assert seen["deposited"] > 0 and seen["untouched"] > 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("reachable", [True, False])
    def test_searches_equal_the_reference_search(self, alpha, rho, reachable):
        # The walk weighs a first visit to an untouched node itself, under
        # the current round's untouched value, and only with alpha > 0.
        # With dest cut off nothing is deposited, so with rho 0 every link
        # reads 0.0 from the second round on and each ant stops at the source.
        net, quality = sparse_field()
        if not reachable:
            quality = {link: 0.0 if 29 in link else q for link, q in quality.items()}
        p = params(
            alpha=alpha, rho=rho, n_explorers=4, n_exploiters=2, iterations=6
        )
        got = run_search(net, 0, 29, p, Random(3), quality)
        want = reference_search.run_search(net, 0, 29, p, Random(3), quality)
        assert got.found == reachable
        assert got.best == want.best
        assert got.stats == want.stats
        assert got.transmit_counts == want.transmit_counts
