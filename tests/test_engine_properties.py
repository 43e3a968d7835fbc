"""Engine invariants over generated scenarios.

Small grid, random and explicit layouts with finite energy, so that nodes
die, and zero to three jammers of every kind are driven one `step()` at a
time, with `detect_and_reroute()` after each step when rerouting is on.
After every step the new trace row conserves packets, no node has gained
energy, and the nodes with a jam streak are exactly the brute-force set of
nodes whose sampled signal-to-noise ratio is below 1. Over the run each node
that died has exactly one death event, and the same config and seed replay
to the same report bytes, also after a `format_config` -> `parse_config`
round trip. Each example is labelled with `hypothesis.event()` by whether a
node died, a flag was raised and a reroute changed a route, so
`--hypothesis-show-statistics` shows how often the generator reaches each. A
generated config that lists a source twice runs with each source once; the
same config with one of its sources (or the default source) listed again is
refused both by `Simulation` and, after `format_config`, by `parse_config`.
Driven with `detect_and_reroute()` after every first, second or third step
instead, no route left by a reroute crosses a flagged node.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

from antjam.ants import SearchParams
from antjam.config import (
    ConfigError,
    ExplicitNetworkSpec,
    GridNetworkSpec,
    JammerSpec,
    RandomNetworkSpec,
    ScenarioConfig,
    format_config,
    parse_config,
)
from antjam.engine import ROW, Simulation, run_scenario
from antjam.jammers import RadioParams
from antjam.reporting import report_json_bytes

ENERGY = st.sampled_from([1.0, 2.5, 6.0, 20.0])
COST = st.sampled_from([0.0, 0.1, 0.5, 1.0])


@st.composite
def networks(draw):
    """A layout spec and its node count, up to 30 nodes over a 40 x 40 field."""
    layout = draw(st.sampled_from(["grid", "random", "explicit"]))
    if layout == "grid":
        rows = draw(st.integers(1, 5))
        cols = draw(st.integers(2, 6))
        spacing = 40.0 / (max(rows, cols) - 1)
        reach = draw(st.sampled_from([1.0, 1.5, 2.0]))
        count = rows * cols
        spec = GridNetworkSpec(
            rows, cols, spacing, spacing * reach, draw(ENERGY),
            draw(st.integers(0, count - 1)),
        )
        return spec, count
    if layout == "random":
        count = draw(st.integers(2, 30))
        spec = RandomNetworkSpec(
            count, draw(st.sampled_from([15.0, 25.0, 60.0])), 40.0, 40.0,
            draw(ENERGY), draw(st.integers(0, count - 1)),
            placement_seed=draw(st.integers(0, 99)), connected=False,
        )
        return spec, count
    cells = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                 min_size=2, max_size=12, unique=True)
    )
    nodes = tuple(
        (10.0 * x, 10.0 * y, draw(ENERGY), draw(st.sampled_from([15.0, 25.0, 45.0])))
        for x, y in cells
    )
    return ExplicitNetworkSpec(nodes, draw(st.integers(0, len(nodes) - 1))), len(nodes)


@st.composite
def jammers(draw):
    kind = draw(st.sampled_from(["constant", "deceptive", "random", "reactive"]))
    spec = {
        "kind": kind,
        "x": draw(st.sampled_from([0.0, 15.0, 20.0, 40.0])),
        "y": draw(st.sampled_from([0.0, 20.0, 35.0])),
        "power": draw(st.sampled_from([0.002, 0.01, 0.1])),
        "start": draw(st.integers(0, 5)),
    }
    if kind == "random":
        lo = draw(st.integers(1, 3))
        spec["sleep"] = (lo, lo + draw(st.integers(0, 2)))
        spec["jam"] = (1, draw(st.integers(1, 3)))
    if kind == "reactive":
        spec["sense_range"] = draw(st.sampled_from([15.0, float("inf")]))
    return JammerSpec(**spec)


@st.composite
def scenarios(draw):
    network, count = draw(networks())
    others = [i for i in range(count) if i != network.pe]
    sources = draw(
        st.none() | st.lists(st.sampled_from(others), min_size=1, max_size=3)
        .map(tuple)
    )
    n_explorers = draw(st.integers(0, 3))
    search = SearchParams(
        n_explorers=n_explorers,
        n_exploiters=draw(st.integers(0 if n_explorers else 1, 3)),
        iterations=draw(st.integers(1, 5)),
    )
    return ScenarioConfig(
        network=network,
        jammers=tuple(draw(jammers()) for _ in range(draw(st.integers(0, 3)))),
        radio=RadioParams(debounce=draw(st.integers(1, 2))),
        search=search,
        sources=sources,
        rate=draw(st.sampled_from([0.5, 1.0])),
        duration=draw(st.integers(1, 40)),
        packet_energy_cost=draw(COST),
        ant_energy_cost=draw(st.sampled_from([0.0, 0.05, 0.5])),
        rx_energy_cost=draw(COST),
        reroute=draw(st.booleans()),
        restore_routes=draw(st.booleans()),
    )


def each_source_once(cfg):
    """cfg with each source once, as Simulation requires."""
    if cfg.sources:
        cfg = replace(cfg, sources=tuple(dict.fromkeys(cfg.sources)))
    return cfg


@settings(max_examples=50, deadline=None)
@given(scenarios(), st.data())
def test_a_source_listed_twice_is_refused(cfg, data):
    sources = cfg.sources or (1 if cfg.network.pe == 0 else 0,)  # or the default
    again = data.draw(st.sampled_from(sources))
    cfg = replace(cfg, sources=tuple(data.draw(st.permutations((*sources, again)))))
    with pytest.raises(ValueError, match="listed twice"):
        Simulation(cfg, 0)
    with pytest.raises(ConfigError, match="listed twice"):
        parse_config(format_config(cfg))


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.integers(0, 2**16))
def test_step_invariants(cfg, seed):
    cfg = each_source_once(cfg)
    sim = Simulation(cfg, seed)
    # the initial installation is a batch at step -1 that counts no reroute
    assert sim.state.reroutes == 0
    assert all(s.step == -1 for s in sim.state.searches)
    deaths: Counter[int] = Counter()
    reroutes = flagged = 0
    for _ in range(cfg.duration):
        before = {i: n.energy for i, n in sim.net.nodes.items()}
        events = sim.step()
        deaths.update(e.node for e in events if e.kind == "death")
        flagged += sum(e.kind == "flagged" for e in events)
        dead = {i for i, n in sim.net.nodes.items() if not n.alive}
        t, sent, delivered, dropped, in_flight, _flagged = sim.state.trace[-ROW:]
        assert sent == delivered + dropped + in_flight, f"imbalance at step {t}"
        jammed = {
            i for i, s in sim.state.last_samples.items()
            if s.p_signal / s.p_noise < 1.0
        }
        assert set(sim.state.streaks) == jammed, f"pre-debounce flags at step {t}"
        if cfg.reroute:
            reroutes += sum(e.kind == "reroute" for e in sim.detect_and_reroute())
        for i, node in sim.net.nodes.items():
            assert node.energy <= before[i], f"node {i} gained energy at step {t}"
    # a node drained by the last reroute's ants dies after the last report
    assert deaths == Counter(dead)
    assert reroutes == sim.report().reroutes
    event("a node died" if deaths else "no node died")
    event("a flag was raised" if flagged else "no flag was raised")
    event("a reroute changed a route" if reroutes else "no reroute changed a route")
    report = report_json_bytes(sim.report())
    assert report == report_json_bytes(run_scenario(cfg, seed))
    assert report == report_json_bytes(
        run_scenario(parse_config(format_config(cfg)), seed)
    )


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.integers(0, 2**16), st.sampled_from([1, 2, 3]))
def test_reroutes_see_every_flag_since_the_last(cfg, seed, every):
    """Rerouting after every k-th step leaves no route through a flagged node.

    A dead node is not checked: a batch's own ants can drain a relay of the
    route that the batch has just found.
    """
    cfg = each_source_once(cfg)
    sim = Simulation(cfg, seed)
    for t in range(1, cfg.duration + 1):
        sim.step()
        if t % every:
            continue
        sim.detect_and_reroute()
        dead = {i for i, n in sim.net.nodes.items() if not n.alive}
        for src, route in sim.state.routes.items():
            crossed = set(route or ()) & sim.state.flags - dead
            assert not crossed, f"route of {src} crosses flagged {crossed} at {t}"
