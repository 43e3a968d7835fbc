import copy
import math

import pytest

from antjam import engine
from antjam.ants import SearchParams
from antjam.config import (
    ExplicitNetworkSpec,
    GridNetworkSpec,
    JammerSpec,
    ScenarioConfig,
    parse_config,
)
from antjam.engine import Simulation, run_scenario
from antjam.jammers import RadioParams, RadioPicture
from antjam.network import build_network
from antjam.reporting import report_json_bytes
from test_report_digests import CHURN, GRID49

FAST_SEARCH = SearchParams(n_explorers=4, n_exploiters=4, iterations=15)

# 0 -- 1 -- 2(pe), spacing 10, range 12
LINE3 = ExplicitNetworkSpec(
    nodes=((0.0, 0.0, 100.0, 12.0), (10.0, 0.0, 100.0, 12.0),
           (20.0, 0.0, 100.0, 12.0)),
    pe=2,
)

# two disjoint two-hop routes from 0 to the processing element 3:
# via 1 (top, shorter) or via 2 (bottom, longer); 0-3 and 1-2 out of range
DIAMOND = ExplicitNetworkSpec(
    nodes=((0.0, 0.0, 100.0, 8.0), (5.0, 4.0, 100.0, 8.0),
           (5.0, -5.0, 100.0, 8.0), (10.0, 0.0, 100.0, 8.0)),
    pe=3,
)


def make_config(network, **kw):
    kw.setdefault("search", FAST_SEARCH)
    kw.setdefault("ant_energy_cost", 0.0)
    return ScenarioConfig(network=network, **kw)


def assert_conserved(report):
    for t, sent, delivered, dropped, in_flight, flagged in report.trace:
        assert sent == delivered + dropped + in_flight, f"imbalance at step {t}"


class TestCleanLine:
    def test_delivery_counts_and_delay(self):
        report = run_scenario(make_config(LINE3, duration=5), seed=1)
        assert report.sent == 5
        assert report.delivered == 3
        assert report.dropped == 0
        assert report.in_flight == 2
        assert report.pdr == pytest.approx(0.6)
        assert report.mean_delay == pytest.approx(2.0)  # two hops, one per step
        assert report.reroutes == 0
        assert report.jammed_peak == 0
        assert_conserved(report)

    def test_transmit_energy_by_hop(self):
        report = run_scenario(
            make_config(LINE3, duration=5, packet_energy_cost=1.0), seed=1
        )
        # node 0 forwards packets 0..3, node 1 forwards 0..2, the pe never sends
        assert report.energy_spent == {0: 4.0, 1: 3.0, 2: 0.0}

    def test_initial_search_recorded_at_step_minus_one(self):
        sim = Simulation(make_config(LINE3, duration=1), seed=1)
        assert len(sim.state.searches) == 1
        first = sim.state.searches[0]
        assert first.step == -1
        assert first.source == 0
        assert first.found
        assert sim.state.routes[0] == (0, 1, 2)

    def test_unknown_source_id_rejected(self):
        with pytest.raises(ValueError, match="unknown node id 99"):
            Simulation(make_config(LINE3, sources=(99,)), seed=1)

    def test_repeated_source_id_rejected(self):
        # parse_config refuses the repeat; a config built in code is refused too
        with pytest.raises(ValueError, match="node 0 listed twice"):
            Simulation(make_config(LINE3, sources=(0, 1, 0)), seed=1)

    def test_fractional_rate_accumulates(self):
        report = run_scenario(make_config(LINE3, duration=6, rate=0.5), seed=1)
        assert report.sent == 3  # emissions land on steps 1, 3, 5

    def test_rate_above_one_bursts(self):
        report = run_scenario(make_config(LINE3, duration=4, rate=2.5), seed=1)
        assert report.sent == 10  # 2, 3, 2, 3
        assert_conserved(report)

    def test_trace_shape(self):
        report = run_scenario(make_config(LINE3, duration=5), seed=1)
        assert len(report.trace) == 5
        assert report.trace[-1] == [4, 5, 3, 0, 2, 0]
        assert len(report.jammed_per_step) == 5


class TestConstantJammer:
    # power 0.01 on top of node 1: its neighbor signal is 0.1/10^2 = 1e-3,
    # so node 1 is swamped while 0 and 2 (noise 1e-4) stay clear
    JAM_MID = (JammerSpec(kind="constant", x=10.0, y=0.0, power=0.01),)

    def test_only_middle_node_flagged(self):
        sim = Simulation(
            make_config(LINE3, jammers=self.JAM_MID, duration=3, reroute=False),
            seed=1,
        )
        events = sim.step()
        flagged = [e for e in events if e.kind == "flagged"]
        assert [e.node for e in flagged] == [1]
        assert sim.state.flags == {1}

    def test_cut_vertex_without_reroute_blocks_everything(self):
        report = run_scenario(
            make_config(LINE3, jammers=self.JAM_MID, duration=5, reroute=False),
            seed=1,
        )
        assert report.sent == 5
        assert report.delivered == 0
        assert report.dropped == 4
        assert report.in_flight == 1
        assert report.jammed_peak == 1
        assert report.jammed_per_step == [1] * 5
        assert_conserved(report)

    def test_cut_vertex_with_reroute_suspends_source(self):
        sim = Simulation(
            make_config(LINE3, jammers=self.JAM_MID, duration=6), seed=1
        )
        sim.step()
        events = sim.detect_and_reroute()
        assert [e.kind for e in events] == ["suspend"]
        assert events[0].source == 0
        assert sim.state.routes[0] is None
        assert sim.state.searches[-1].found is False
        for _ in range(5):
            sim.step()
            sim.detect_and_reroute()
        report = sim.report()
        assert report.sent == 1  # only the packet emitted before the flag
        assert report.delivered == 0
        assert_conserved(report)

    def test_debounce_delays_the_flag(self):
        cfg = make_config(
            LINE3, jammers=self.JAM_MID, duration=4, reroute=False,
            radio=RadioParams(debounce=2),
        )
        report = run_scenario(cfg, seed=1)
        assert report.jammed_per_step == [0, 1, 1, 1]

    def test_pe_jammed_suspends_source(self):
        jam_pe = (JammerSpec(kind="constant", x=20.0, y=0.0, power=0.01),)
        sim = Simulation(make_config(LINE3, jammers=jam_pe, duration=4), seed=1)
        sim.step()
        events = sim.detect_and_reroute()
        assert [e.kind for e in events] == ["suspend"]
        for _ in range(3):
            sim.step()
            sim.detect_and_reroute()
        report = sim.report()
        assert report.delivered == 0
        assert report.sent == 1
        assert report.dropped == 1
        assert_conserved(report)


class TestReroute:
    # power 0.004 on top of node 1 (signal there 0.1/41): flags only node 1
    JAM_TOP = (JammerSpec(kind="constant", x=5.0, y=4.0, power=0.004, start=2),)

    def test_initial_route_prefers_short_arm(self):
        sim = Simulation(make_config(DIAMOND, duration=1), seed=3)
        assert sim.state.routes[0] == (0, 1, 3)

    def test_reroute_to_clear_arm(self):
        sim = Simulation(
            make_config(DIAMOND, jammers=self.JAM_TOP, duration=10), seed=3
        )
        for step in range(10):
            step_events = sim.step()
            detect_events = sim.detect_and_reroute()
            if step == 2:
                assert any(
                    e.kind == "flagged" and e.node == 1 for e in step_events
                )
                assert [e.kind for e in detect_events] == ["reroute"]
            assert set(sim.state.routes[0] or ()) & sim.state.flags == set()
        report = sim.report()
        assert sim.state.routes[0] == (0, 2, 3)
        assert report.reroutes == 1
        # packets already committed to the jammed arm are lost, later ones
        # ride the new route: emitted 0..9, lost 3 (steps 0, 1, and the one
        # emitted just before the reroute took effect), five home, two flying
        assert report.sent == 10
        assert report.dropped == 3
        assert report.delivered == 5
        assert report.in_flight == 2
        assert report.mean_delay == pytest.approx(2.0)
        assert_conserved(report)

    def test_in_flight_packets_keep_their_route_snapshot(self):
        sim = Simulation(
            make_config(DIAMOND, jammers=self.JAM_TOP, duration=3), seed=3
        )
        sim.step()  # t=0: packet 0 emitted on (0, 1, 3)
        sim.detect_and_reroute()
        sim.state.routes[0] = (0, 2, 3)  # force a reroute under packet 0
        sim.step()  # t=1: packet 0 still advances to node 1, not node 2
        assert (0, 1) in sim.state.counters
        assert (0, 2) not in sim.state.counters
        assert sim.state.packets[0].route == (0, 1, 3)

    JAM_CYCLE = (
        JammerSpec(kind="random", x=5.0, y=4.0, power=0.004,
                   sleep=(2, 2), jam=(3, 3)),
    )

    def test_restore_after_clear(self):
        # no traffic, so link history stays empty and geometry alone decides
        cfg = make_config(
            DIAMOND, jammers=self.JAM_CYCLE, duration=7, rate=0.0,
            restore_routes=True,
        )
        sim = Simulation(cfg, seed=3)
        routes_seen = []
        for _ in range(7):
            sim.step()
            sim.detect_and_reroute()
            routes_seen.append(sim.state.routes[0])
        assert routes_seen[1] == (0, 1, 3)  # still asleep
        assert routes_seen[2] == (0, 2, 3)  # jam burst steps 2..4
        assert routes_seen[6] == (0, 1, 3)  # cleared at step 5, restored
        assert sim.state.reroutes == 2

    def test_restore_resurveys_but_respects_loss_history(self):
        # with traffic flowing, the drops recorded on the jammed arm keep its
        # delivery ratio low, so the post-clear search stands by the detour
        cfg = make_config(
            DIAMOND, jammers=self.JAM_CYCLE, duration=7, restore_routes=True
        )
        sim = Simulation(cfg, seed=3)
        for _ in range(7):
            sim.step()
            sim.detect_and_reroute()
        assert len(sim.state.searches) == 3  # install, reroute, resurvey
        assert sim.state.routes[0] == (0, 2, 3)
        assert sim.state.reroutes == 1

    def test_no_restore_by_default(self):
        sim = Simulation(
            make_config(DIAMOND, jammers=self.JAM_CYCLE, duration=7, rate=0.0),
            seed=3,
        )
        for _ in range(7):
            sim.step()
            sim.detect_and_reroute()
        assert sim.state.routes[0] == (0, 2, 3)
        assert len(sim.state.searches) == 2  # install and the one reroute
        assert sim.state.reroutes == 1

    def test_reroute_sees_a_flag_raised_before_the_last_step(self):
        # the jammer on the centre of a 3x3 grid flags node 4 at step 0; a
        # reroute after step 1 must still see it, though step 1 raised none
        grid = GridNetworkSpec(rows=3, cols=3, spacing=10.0, radio_range=12.0,
                               pe=8)
        jam = (JammerSpec(kind="constant", x=10.0, y=10.0, power=0.01),)
        cfg = make_config(grid, jammers=jam, sources=(0,), search=SearchParams())
        sim = Simulation(cfg, seed=1)
        assert sim.state.routes[0] == (0, 1, 4, 5, 8)
        assert any(e.kind == "flagged" and e.node == 4 for e in sim.step())
        sim.step()
        events = sim.detect_and_reroute()
        assert 4 in sim.state.flags
        assert 4 not in sim.state.routes[0]
        assert [e.kind for e in events] == ["reroute"]


class TestReactiveJammer:
    def test_one_step_latency_then_oscillation(self):
        jam = (
            JammerSpec(kind="reactive", x=10.0, y=0.0, power=0.01,
                       sense_range=15.0),
        )
        report = run_scenario(
            make_config(LINE3, jammers=jam, duration=6, reroute=False), seed=1
        )
        # nothing transmitted at step 0, the first forward happens at step 1,
        # so the first reaction lands at step 2; the flag then silences the
        # link, the jammer loses its trigger, and the two settle into a
        # transmit/jam alternation that never lets a packet through
        assert report.jammed_per_step == [0, 0, 1, 0, 1, 0]
        assert report.delivered == 0
        assert report.dropped == 4
        assert_conserved(report)

    def test_out_of_sense_range_never_triggers(self):
        # 6 m to the nearest relay but ears only 5 m wide: stays asleep
        jam = (
            JammerSpec(kind="reactive", x=16.0, y=0.0, power=0.02,
                       sense_range=5.0),
        )
        report = run_scenario(
            make_config(LINE3, jammers=jam, duration=6, reroute=False), seed=1
        )
        assert report.jammed_per_step == [0] * 6
        assert report.delivered == 4

    def test_steady_transmitter_holds_the_trigger(self):
        # same spot with real ears: node 0 keeps transmitting (its own next
        # hop stays clear), so the jammer stays lit and the pe stays flagged
        jam = (
            JammerSpec(kind="reactive", x=16.0, y=0.0, power=0.02,
                       sense_range=20.0),
        )
        sim = Simulation(
            make_config(LINE3, jammers=jam, duration=6, reroute=False), seed=1
        )
        for _ in range(6):
            sim.step()
        report = sim.report()
        assert report.jammed_per_step == [0, 0, 1, 1, 1, 1]
        assert sim.state.flags == {2}
        assert report.delivered == 0
        assert_conserved(report)


class TestDeceptiveJammer:
    def test_victim_pays_receive_energy(self):
        # reference signal at node 0 is 0.1/25 = 4e-3; 5e-3 on top of it wins
        jam = (JammerSpec(kind="deceptive", x=0.0, y=0.0, power=0.005),)
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 100.0, 6.0), (5.0, 0.0, 100.0, 6.0)), pe=1
        )
        cfg = make_config(
            net, jammers=jam, duration=4, rate=0.0, reroute=False,
            packet_energy_cost=0.0, rx_energy_cost=0.25,
        )
        report = run_scenario(cfg, seed=1)
        assert report.energy_spent == {0: 1.0, 1: 0.0}
        # the fake traffic also swamps the victim's radio
        assert report.jammed_peak == 1

    def test_far_node_unaffected(self):
        jam = (JammerSpec(kind="deceptive", x=0.0, y=0.0, power=0.005),)
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 100.0, 6.0), (5.0, 0.0, 100.0, 6.0)), pe=1
        )
        cfg = make_config(
            net, jammers=jam, duration=4, rate=0.0, reroute=False,
            packet_energy_cost=0.0, rx_energy_cost=0.25,
        )
        report = run_scenario(cfg, seed=1)
        assert report.energy_spent[1] == 0.0


class TestNextHopDrop:
    """A packet whose next hop is flagged or dead is dropped without a send."""

    def test_failed_send_spends_nothing_and_is_not_heard(self):
        jams = (
            JammerSpec(kind="constant", x=10.0, y=0.0, power=0.01),
            # hears every transmission, too weak and far to flag anything
            JammerSpec(kind="reactive", x=500.0, y=0.0, power=1e-9),
        )
        cfg = make_config(
            LINE3, jammers=jams, duration=3, reroute=False, packet_energy_cost=1.0
        )
        sim = Simulation(cfg, seed=1)
        sim.step()  # relay 1 is flagged; source 0 emits onto (0, 1, 2)
        assert sim.state.flags == {1}
        assert len(sim.state.packets) == 1
        events = sim.step()
        drops = [(e.node, e.detail) for e in events if e.kind == "drop"]
        assert drops == [(1, "next hop jammed or dead")]
        assert sim.net.node(0).energy == 100.0
        assert sim.state.last_transmitters == set()
        sim.step()
        assert sim.jammers[1].triggered is False
        assert sim.report().energy_spent[0] == 0.0


class TestEnergyDeath:
    def test_exhausted_relay_kills_route(self):
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 100.0, 12.0), (10.0, 0.0, 2.5, 12.0),
                   (20.0, 0.0, 100.0, 12.0)),
            pe=2,
        )
        sim = Simulation(make_config(net, duration=8), seed=1)
        death_steps = []
        for _ in range(8):
            events = sim.step()
            death_steps += [e.step for e in events if e.kind == "death"]
            sim.detect_and_reroute()
        report = sim.report()
        # relay 1 affords three forwards (the third drains it to zero), then
        # the route collapses and the source suspends
        assert death_steps == [4]
        assert report.delivered == 3
        assert report.dropped == 2
        assert report.sent == 5
        assert report.in_flight == 0
        assert report.energy_spent[1] == 2.5
        assert sim.state.routes[0] is None
        assert sim.state.searches[-1].found is False
        assert not sim.net.node(1).alive
        assert_conserved(report)

    def test_death_reported_once_without_rerouting(self):
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 100.0, 12.0), (10.0, 0.0, 2.5, 12.0),
                   (20.0, 0.0, 100.0, 12.0)),
            pe=2,
        )
        sim = Simulation(make_config(net, duration=8, reroute=False), seed=1)
        death_steps = []
        for _ in range(8):
            death_steps += [e.step for e in sim.step() if e.kind == "death"]
        assert death_steps == [4]
        assert not sim.net.node(1).alive

    def test_source_drained_by_an_earlier_search_gets_no_route(self):
        grid = GridNetworkSpec(rows=3, cols=3, spacing=10.0, radio_range=12.0,
                               energy=1.0, pe=8)
        cfg = make_config(grid, sources=(0, 1, 3), ant_energy_cost=1.0,
                          duration=5)
        sim = Simulation(cfg, seed=1)
        assert not sim.net.node(1).alive
        assert sim.state.routes[1] is None
        assert_conserved(sim.run())

    def test_source_drained_by_its_own_search_keeps_the_found_route(self):
        # every ant's first hop costs the source more than it holds, but
        # liveness is checked before the search, so the route is installed
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 0.5, 12.0), (10.0, 0.0, 100.0, 12.0),
                   (20.0, 0.0, 100.0, 12.0)),
            pe=2,
        )
        sim = Simulation(make_config(net, ant_energy_cost=1.0), seed=1)
        assert sim.state.routes[0] == (0, 1, 2)
        assert not sim.net.node(0).alive

    def test_processing_element_drained_by_a_deceptive_jammer(self):
        grid = GridNetworkSpec(rows=3, cols=3, spacing=10.0, radio_range=12.0,
                               energy=3.0, pe=4)
        jam = (JammerSpec(kind="deceptive", x=10.0, y=10.0, power=0.01),)
        sim = Simulation(make_config(grid, jammers=jam, duration=10), seed=1)
        for _ in range(10):
            sim.step()
            sim.detect_and_reroute()
        assert not sim.net.node(4).alive
        assert all(route is None for route in sim.state.routes.values())
        assert_conserved(sim.report())

    def test_a_batch_that_searches_nothing_builds_no_table(self, monkeypatch):
        # once the PE is dead, a death still lists the sources again, but the
        # batch searches none of them and so builds no quality table
        tables = []
        build = engine.build_link_metrics

        def counted(*args, **kwargs):
            tables.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(engine, "build_link_metrics", counted)
        grid = GridNetworkSpec(rows=3, cols=3, spacing=10.0, radio_range=12.0,
                               energy=3.0, pe=4)
        jam = (JammerSpec(kind="deceptive", x=10.0, y=10.0, power=0.01),)
        sim = Simulation(make_config(grid, jammers=jam, duration=10), seed=1)
        assert len(tables) == 1  # setup's batch
        batches = []  # (sources, tables built, searches run) with the PE dead
        route = Simulation._route

        def recorded(self, sources):
            pe_dead = not self.net.node(self.net.pe_id).alive
            counts = len(tables), len(self.state.searches)
            events = route(self, sources)
            if pe_dead:
                batches.append((sources, len(tables) - counts[0],
                                len(self.state.searches) - counts[1]))
            return events

        monkeypatch.setattr(Simulation, "_route", recorded)
        for _ in range(10):
            sim.step()
            sim.detect_and_reroute()
        assert not sim.net.node(4).alive
        assert batches
        assert all(sources and built == searched == 0
                   for sources, built, searched in batches)

    def test_a_search_after_a_death_in_its_batch_builds_fresh_rows(
        self, monkeypatch
    ):
        # 0 -- 1 -- 2(pe)     Source 0's only way out is relay 1, which its
        #      |    |         ants drain to death. Source 4's ants then pass
        #      3 -- 5         hub 3, whose row the first search built with 1
        #      |              in it, so reading that row again would walk
        #      4              them through the dead relay.
        net = ExplicitNetworkSpec(
            nodes=((0.0, 0.0, 100.0, 12.0), (10.0, 0.0, 20.0, 12.0),
                   (20.0, 0.0, 100.0, 12.0), (10.0, 10.0, 100.0, 12.0),
                   (10.0, 20.0, 100.0, 12.0), (20.0, 10.0, 100.0, 12.0)),
            pe=2,
        )
        searches = []  # (source, relay 1 alive at its start, rows, result, fresh)
        search = engine.run_search

        def searched(net, source, dest, params, rng, quality, rows):
            alive = net.node(1).alive
            fresh = search(net, source, dest, params, copy.deepcopy(rng), quality)
            result = search(net, source, dest, params, rng, quality, rows)
            searches.append((source, alive, rows, result, fresh))
            return result

        monkeypatch.setattr(engine, "run_search", searched)
        cfg = make_config(net, sources=(0, 4), ant_energy_cost=1.0,
                          search=SearchParams(n_explorers=4, n_exploiters=4,
                                              iterations=5))
        sim = Simulation(cfg, seed=1)
        (src0, alive0, rows0, _, _), (src4, alive4, rows4, second, fresh) = searches
        assert (src0, alive0, src4, alive4) == (0, True, 4, False)
        assert 1 in rows0[3][0]  # the hub's row from before the death
        assert 1 not in second.transmit_counts
        assert second.found and 1 not in second.best.path
        assert second == fresh
        assert 1 not in rows4[3][0]
        assert sim.state.routes[4] == second.best.path

    def test_a_reroute_after_a_packet_phase_death_reads_fresh_neighbor_rows(
        self, monkeypatch
    ):
        # DIAMOND with weak relays: forwarding drains top relay 1 to death in
        # the packet phase (ants spend nothing). The network keeps each
        # node's neighbor row across batches, so source 0's row, read with
        # 1 in it at setup, must lose 1 at the death: the reroute batch walks
        # the bottom arm, as a search over a network built with 1 dead does.
        nodes = ((0.0, 0.0, 100.0, 8.0), (5.0, 4.0, 2.5, 8.0),
                 (5.0, -5.0, 2.5, 8.0), (10.0, 0.0, 100.0, 8.0))
        searches = []  # (dead at its start, result, search over a fresh network)
        search = engine.run_search

        def searched(net, source, dest, params, rng, quality, rows):
            dead = {i for i, node in net.nodes.items() if not node.alive}
            rebuilt = build_network([((x, y), e, r) for x, y, e, r in nodes], 3)
            for i in dead:
                rebuilt.drain_energy(i, rebuilt.node(i).energy)
            fresh = search(rebuilt, source, dest, params, copy.deepcopy(rng), quality)
            result = search(net, source, dest, params, rng, quality, rows)
            searches.append((dead, result, fresh))
            return result

        monkeypatch.setattr(engine, "run_search", searched)
        sim = Simulation(make_config(ExplicitNetworkSpec(nodes=nodes, pe=3),
                                     duration=8), seed=3)
        assert sim.state.routes[0] == (0, 1, 3)
        assert sim.net._rows[0][0] == (1, 2)  # as setup's batch read it
        for _ in range(8):
            assert not any(e.kind == "death" for e in sim.detect_and_reroute())
            sim.step()
            if not sim.net.node(1).alive:
                break
        assert len(searches) == 1  # the death came in the packet phase
        sim.detect_and_reroute()
        (_, first, _), (dead, second, fresh) = searches
        assert dead == {1} and 1 in first.best.path
        assert 1 not in second.transmit_counts
        assert second.found and 1 not in second.best.path
        assert second == fresh
        assert sim.state.routes[0] == (0, 2, 3)


class TestPatchedRadio:
    """A death patches the kept radio picture, its flags and the deceptive
    victims instead of rebuilding them, and a run must not tell the two apart.

    Source 0 and the PE 2 each have a helper 3 away (4 and 5), and link
    through relay 1 or through node 3, 4 below it. The deceptive jammer, 5
    above relay 1, flags it and makes it a victim from step 3, but not node
    3, which hears relay 1 at distance 4. The fake traffic drains relay 1 to
    death at step 6. Node 3's nearest live neighbor is then 10.8 away, so the
    patch at step 7 flags it and makes it a victim too, and its own death at
    step 10 clears it. With rerouting on, the route moves to node 3 at step 3
    and suspends at step 7; without it, relay 1 is on the route when it dies.
    """

    NET = ExplicitNetworkSpec(
        nodes=((0.0, 0.0, 100.0, 12.0), (10.0, 0.0, 100.0, 12.0),
               (20.0, 0.0, 100.0, 12.0), (10.0, -4.0, 100.0, 12.0),
               (-3.0, 0.0, 100.0, 12.0), (23.0, 0.0, 100.0, 12.0)),
        pe=2,
    )
    JAM = (JammerSpec(kind="deceptive", x=10.0, y=5.0, power=0.3, start=3),)

    @staticmethod
    def advance(sim):
        events = sim.step()
        return events + sim.detect_and_reroute() if sim.config.reroute else events

    @pytest.mark.parametrize("reroute", [True, False])
    def test_a_death_that_changes_a_flag_runs_as_a_rebuild(self, monkeypatch, reroute):
        cfg = make_config(self.NET, jammers=self.JAM, duration=12, reroute=reroute,
                          packet_energy_cost=0.0, rx_energy_cost=25.0)
        rebuilt = Simulation(cfg, seed=1)
        want = []
        for _ in range(cfg.duration):
            rebuilt.net._radio_memo.clear()  # every step samples from scratch
            want.append(self.advance(rebuilt))

        patches = []  # (flags before, flags after) of each patched picture
        patch = RadioPicture._patched

        def patched(picture, hearing, nodes):
            new = patch(picture, hearing, nodes)
            patches.append((picture.flagged, new.flagged))
            return new

        monkeypatch.setattr(RadioPicture, "_patched", patched)
        sim = Simulation(cfg, seed=1)
        assert sim.state.routes[0] == (0, 1, 2)
        got = [self.advance(sim) for _ in range(cfg.duration)]
        assert got == want
        assert report_json_bytes(sim.report()) == report_json_bytes(rebuilt.report())
        changes = [
            (e.step, e.kind, e.node) for events in got for e in events
            if e.kind in ("flagged", "cleared", "death")
        ]
        assert changes == [
            (3, "flagged", 1), (6, "death", 1), (7, "flagged", 3),
            (7, "cleared", 1), (10, "death", 3), (11, "cleared", 3),
        ]
        assert patches == [({1}, {3}), ({3}, set())]


class TestDeterminism:
    GRID = GridNetworkSpec(rows=4, cols=4, spacing=10.0, radio_range=12.0, pe=15)
    JAM = (
        JammerSpec(kind="random", x=15.0, y=15.0, power=0.08,
                   sleep=(1, 3), jam=(1, 4)),
    )

    def test_identical_seed_identical_bytes(self):
        cfg = make_config(self.GRID, jammers=self.JAM, duration=40)
        a = run_scenario(cfg, seed=9)
        b = run_scenario(cfg, seed=9)
        assert report_json_bytes(a) == report_json_bytes(b)
        assert_conserved(a)

    def test_seed_is_part_of_the_report(self):
        cfg = make_config(self.GRID, jammers=self.JAM, duration=10)
        a = run_scenario(cfg, seed=1)
        b = run_scenario(cfg, seed=2)
        assert report_json_bytes(a) != report_json_bytes(b)

    def test_fresh_simulation_does_not_leak_state(self):
        cfg = make_config(self.GRID, jammers=self.JAM, duration=25)
        first = run_scenario(cfg, seed=9)
        again = Simulation(cfg, seed=9).run()
        assert report_json_bytes(first) == report_json_bytes(again)

    def test_simulations_stepped_alternately_match_their_solo_runs(self):
        # each network holds its own radio picture: nothing is shared
        configs = [parse_config(GRID49), parse_config(CHURN)]
        solo = [report_json_bytes(run_scenario(cfg, seed=7)) for cfg in configs]
        sims = [Simulation(cfg, seed=7) for cfg in configs]
        for t in range(max(cfg.duration for cfg in configs)):
            for sim in sims:
                if t < sim.config.duration:
                    sim.step()
                    if sim.config.reroute:
                        sim.detect_and_reroute()
        assert [report_json_bytes(sim.report()) for sim in sims] == solo
