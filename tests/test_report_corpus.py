"""Report bytes pinned over a fixed corpus of generated scenarios.

`corpus()` draws CORPUS_SIZE scenarios from `Random(CORPUS_SEED)` over the
families of `test_engine_properties.py`: grid, random and explicit layouts of
up to 30 nodes with finite energy, zero to three jammers of any kind,
`debounce` 1-3, and rerouting and route restoring on and off. The first
scenario runs for zero steps, so its per-step arrays serialize as `[]`.

Each scenario is driven one `step()` at a time, with `detect_and_reroute()`
after each step when rerouting is on, and the sha256 of its report must equal
the one in DIGESTS. The digests were recorded before the step trace moved into
one flat int64 array and the JSON encoder began writing the per-step arrays by
hand, so a change to either that moves a byte fails here. The same runs must
reach a death, a dead processing element, a suspended source, a reroute, a
restored route and a flag from every jammer kind, each report's totals
must be the ones its trace rows give, and the events the runs returned must
add up to those totals, to the reroutes and to the dead nodes. No search's
best path may cross a node that was dead when the search started.
"""

import hashlib
import json
from collections import Counter
from functools import lru_cache
from random import Random

import pytest

from antjam import engine
from antjam.ants import SearchParams
from antjam.config import (
    ExplicitNetworkSpec,
    GridNetworkSpec,
    JammerSpec,
    RandomNetworkSpec,
    ScenarioConfig,
)
from antjam.engine import ROW, Simulation
from antjam.jammers import RadioParams
from antjam.reporting import report_json_bytes

CORPUS_SEED = 37  # the first seed from 0 whose scenarios reach every outcome
CORPUS_SIZE = 40
KINDS = ("constant", "deceptive", "random", "reactive")
ENERGY = [1.0, 2.5, 6.0, 20.0]


def draw_network(rng):
    """A layout spec and its node count, up to 30 nodes over a 40 x 40 field."""
    layout = rng.choice(["grid", "random", "explicit"])
    if layout == "grid":
        rows, cols = rng.randint(1, 5), rng.randint(2, 6)
        spacing = 40.0 / (max(rows, cols) - 1)
        reach = rng.choice([1.0, 1.5, 2.0])
        count = rows * cols
        spec = GridNetworkSpec(
            rows, cols, spacing, spacing * reach, rng.choice(ENERGY),
            rng.randrange(count),
        )
        return spec, count
    if layout == "random":
        count = rng.randint(2, 30)
        spec = RandomNetworkSpec(
            count, rng.choice([15.0, 25.0, 60.0]), 40.0, 40.0, rng.choice(ENERGY),
            rng.randrange(count), placement_seed=rng.randrange(100),
            connected=False,
        )
        return spec, count
    cells = rng.sample([(x, y) for x in range(5) for y in range(5)],
                       rng.randint(2, 12))
    nodes = tuple(
        (10.0 * x, 10.0 * y, rng.choice(ENERGY), rng.choice([15.0, 25.0, 45.0]))
        for x, y in cells
    )
    return ExplicitNetworkSpec(nodes, rng.randrange(len(nodes))), len(nodes)


def draw_jammer(rng):
    kind = rng.choice(KINDS)
    spec = {
        "kind": kind,
        "x": rng.choice([0.0, 15.0, 20.0, 40.0]),
        "y": rng.choice([0.0, 20.0, 35.0]),
        "power": rng.choice([0.002, 0.01, 0.1]),
        "start": rng.randint(0, 5),
    }
    if kind == "random":
        lo = rng.randint(1, 3)
        spec["sleep"] = (lo, lo + rng.randint(0, 2))
        spec["jam"] = (1, rng.randint(1, 3))
    if kind == "reactive":
        spec["sense_range"] = rng.choice([15.0, float("inf")])
    return JammerSpec(**spec)


def draw_scenario(rng, duration):
    network, count = draw_network(rng)
    others = [i for i in range(count) if i != network.pe]
    sources = None
    if rng.random() < 0.75:
        # a repeated draw is dropped: a source is listed once
        sources = tuple(dict.fromkeys(
            rng.choice(others) for _ in range(rng.randint(1, 3))
        ))
    n_explorers = rng.randint(0, 3)
    search = SearchParams(
        n_explorers=n_explorers,
        n_exploiters=rng.randint(0 if n_explorers else 1, 3),
        iterations=rng.randint(1, 5),
    )
    return ScenarioConfig(
        network=network,
        jammers=tuple(draw_jammer(rng) for _ in range(rng.randint(0, 3))),
        radio=RadioParams(debounce=rng.randint(1, 3)),
        search=search,
        sources=sources,
        rate=rng.choice([0.5, 1.0]),
        duration=duration,
        packet_energy_cost=rng.choice([0.0, 0.1, 0.5, 1.0]),
        ant_energy_cost=rng.choice([0.0, 0.05, 0.5]),
        rx_energy_cost=rng.choice([0.0, 0.1, 0.5, 1.0]),
        reroute=rng.random() < 0.5,
        restore_routes=rng.random() < 0.5,
    )


def corpus():
    """[(config, seed)], the same list on every call."""
    rng = Random(CORPUS_SEED)
    scenarios = []
    for k in range(CORPUS_SIZE):
        config = draw_scenario(rng, 0 if k == 0 else rng.randint(1, 40))
        scenarios.append((config, rng.randrange(2**16)))
    return scenarios


@lru_cache(maxsize=None)
def drive(k):
    """Run scenario k step by step.

    Returns (sim, report, the outcomes it reached, every event it returned).
    """
    config, seed = corpus()[k]
    sim = Simulation(config, seed)
    st = sim.state
    reached = set()
    log = []
    for _ in range(config.duration):
        events = sim.step()
        log += events
        kinds = {e.kind for e in events}
        reached |= kinds & {"death", "flagged"}
        if not config.reroute:
            continue
        # a route re-searched only because a flag cleared, that changed
        stale = (st.flags - st.routed_flags) | st.newly_dead
        old = dict(st.routes)
        rerouted = sim.detect_and_reroute()
        log += rerouted
        reached |= {e.kind for e in rerouted}
        if "cleared" in kinds and any(
            route is not None and st.routes[src] not in (None, route)
            and not stale & set(route)
            for src, route in old.items()
        ):
            reached.add("restored")
    if not sim.net.node(sim.net.pe_id).alive:
        reached.add("dead pe")
    jam_kinds = {j.kind for j in config.jammers}
    if "flagged" in reached and len(jam_kinds) == 1:
        reached.add("flag from " + jam_kinds.pop())
    return sim, sim.report(), reached, log


# scenario index -> sha256 of its report
DIGESTS = {
    0: "c164b2d919ad348a6d2c1429a1fdd98a99c82663a88b290f3344e700610c8cf9",  # explicit, 0 steps, jammers: constant
    1: "fbb0a1535482fd474b1d6dc792bab8634e1a6d250e1292f427676557ec369ef7",  # grid, 40 steps, jammers: none
    2: "80962f734268f8433c8c4c4ae4b0d1e899367e0180e4f5ab45d566ac8ae9e1ce",  # grid, 23 steps, jammers: random
    3: "8e3b98cd4c6488d7e4b77e9fb7e7a63b2e9eb854e3f2e0437c10bc8fc9b199d4",  # random, 26 steps, jammers: constant,constant
    4: "07b75397208bdd796494615cf803e225e82961e24d91ddea43529026776f1a8f",  # random, 8 steps, jammers: none
    5: "298ece0c302fafe10dff0d265e149aac1e6c34352bd2e275308336cabf262fbe",  # explicit, 32 steps, jammers: none
    6: "9a9ba49d56977b63bb00b9d0e4201910131c39c7a48e1973350f971387d70300",  # grid, 19 steps, jammers: none
    7: "cdfaa1a16fe7732ba4a6f6680e0f55738e04c6442c731b663853ed89d0d08f0c",  # grid, 11 steps, jammers: none
    8: "b642597c80710ea7eb0fc4df13f081fe36027146b9a8fe389d2b3a4e72f16a9f",  # grid, 36 steps, jammers: random
    9: "96d783128be6b4d7b4fc8a7fe8fcbd50189f969edcb01b7e71edc8b23654ddb1",  # random, 10 steps, jammers: constant,constant,constant
    10: "e11d7248a4ade2b456949fb093e674cecb84ac69e121ac9a2e05fac582c6408a",  # random, 30 steps, jammers: constant,reactive
    11: "071e526a051a6e6cc5fe77d0ffad692e0f12c7a5759c2f8cd72c0d662318e94e",  # random, 30 steps, jammers: reactive
    12: "26d3367f4d0bb8e00373013131e31be8ae30f7cc0b64ad6c1814a3adf81fad09",  # explicit, 20 steps, jammers: random,random
    13: "53b9083fe6f3a13b6377f8d5f3390fc0a3d8d96a8910856075db2fbb91943f53",  # explicit, 1 steps, jammers: none
    14: "cd99bed309c86c3bae2bf2319e5519046432b55a5b8b9459264e61f0c61e7b7b",  # random, 16 steps, jammers: random
    15: "d71af9cb60a1863384b682903b343cafe9fefcf39c0117131c2216ce5ed44efb",  # random, 13 steps, jammers: none
    16: "6fd2352ed2c786ae649125e1b9cd08b83baa81ffbc29f2778d74902298f73662",  # random, 18 steps, jammers: random,random,deceptive
    17: "85b94e90639b74bd91f4d0cb696bcdddf745466b303001442fa99e3aca87d3e3",  # random, 40 steps, jammers: random,constant
    18: "bcb546d766b6cb3beff0ed46f1f2534d68588133f2a6a4d04e8e333ab3bd73af",  # explicit, 27 steps, jammers: none
    19: "ed8661ada29815e9d44a5e07af7d10a44d7bf3261fcf8c0c3b49b39052cd05d6",  # explicit, 38 steps, jammers: constant,reactive,constant
    20: "da307a729d3f199ea3aa91588c1790616788abd78a98186031b2b0881296632b",  # explicit, 38 steps, jammers: reactive
    21: "60f9d619b12399de7cee89d89e4d1a579cd95d01b4f824d6185528d5dc12ecc6",  # random, 34 steps, jammers: reactive,random
    22: "0cf563e409f33a15a5ed243cd43aa9fd5c93da54f5e30dea560d142dc40a069a",  # grid, 39 steps, jammers: reactive,constant
    23: "837cbb6f56e1e76d1199f2e41cfa707d38c5e0680bf034a8498a80e3a85912d0",  # explicit, 17 steps, jammers: reactive,reactive
    24: "589b9b7bde4f509013657f6cdfb58ad185fb4527e0f9f25faacbb70eaa3e02c3",  # grid, 40 steps, jammers: none
    25: "b8d1c7d826a4bb9fab07fe9d0029ac2b0e00e4276a5474be7053dc49817b96e7",  # grid, 6 steps, jammers: deceptive,constant
    26: "2d511839ce35c7e1dd0cbd54e7f0d949d4df08596faa76f410c7d851b3d8f912",  # random, 22 steps, jammers: none
    27: "241149384e92ae7b6b6808638482c87f4d5aa3067f3022d122bd990673092e98",  # random, 20 steps, jammers: constant,deceptive,reactive
    28: "764ea126a81a5dbc0fa877005866b914258fc0adc676261658ea8c93acd33b55",  # random, 25 steps, jammers: deceptive,constant
    29: "0e5b30cf7ea7efe39139f71d14deba26fe3188cd5bfc0b5993b30b90ebb2de08",  # grid, 28 steps, jammers: reactive,constant
    30: "b993b6dfe856dd3ddfc1c224a7c83a38351839dfd7cd9d00a69302e9a49f1dc6",  # explicit, 33 steps, jammers: reactive
    31: "bf72493ebccf465a2c083f6b655d5b3d733ec2c9574aef3aacb5a8c689ded7dd",  # grid, 26 steps, jammers: deceptive
    32: "b599df0cce1a12fc1192dfb3d4f4ea836f3f6eccb0d88f736cb37ab1b8c3155f",  # random, 28 steps, jammers: reactive,constant
    33: "9dc7556803c93cb915beeb3060e0f10de0ad6c257c047af27026e58a1ae87d99",  # explicit, 6 steps, jammers: deceptive,deceptive
    34: "5eefdb84de3efb448b3d8fad4402a75bb449f64ef1009ba1cc0edea8a682d472",  # grid, 25 steps, jammers: constant
    35: "f82910b2515bf387455b3960edf8d80c24a2ff00fcee3a4fd90f8dbf1dc1234e",  # random, 19 steps, jammers: constant
    36: "d358b88b38c306ff1d1a358865d02c352fcaf33f01909c9e479c70cefc398642",  # explicit, 9 steps, jammers: none
    37: "66b820e0baefe5d1760677601305b765a03c9972a683c3b8aeb0622027279f12",  # explicit, 1 steps, jammers: deceptive
    38: "9c660671b114c2aef3f07ace9c5b5b6c0d2fd61e7a7c3862238f0a335e0311e0",  # random, 3 steps, jammers: random,deceptive
    39: "6ecfdee2d1cccd885561b2d93618e9cf74a08c0358df26b73fa19b096dc184f7",  # random, 30 steps, jammers: constant,deceptive
}


@pytest.mark.parametrize("k", range(CORPUS_SIZE))
def test_report_bytes_are_pinned(k):
    report = drive(k)[1]
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == DIGESTS[k]


def test_corpus_reaches_every_outcome():
    reached = set().union(*(drive(k)[2] for k in range(CORPUS_SIZE)))
    want = {"death", "dead pe", "suspend", "reroute", "restored"}
    want |= {"flag from " + kind for kind in KINDS}
    assert want <= reached, sorted(want - reached)


def test_empty_run_writes_empty_arrays():
    config, _ = corpus()[0]
    assert config.duration == 0
    parsed = json.loads(report_json_bytes(drive(0)[1]))
    assert parsed["jammed_per_step"] == [] and parsed["trace"] == []
    assert (parsed["sent"], parsed["pdr"], parsed["jammed_peak"]) == (0, 1.0, 0)


@pytest.mark.parametrize("k", range(CORPUS_SIZE))
def test_totals_are_read_off_the_trace(k):
    sim, report = drive(k)[:2]
    rows = report.trace
    assert len(rows) == report.duration == sim.config.duration
    assert len(report.flat_trace) == ROW * sim.config.duration
    last = rows[-1] if rows else [0, 0, 0, 0, 0, 0]
    assert [report.sent, report.delivered, report.dropped, report.in_flight] == (
        last[1:5]
    )
    assert report.in_flight == len(sim.state.packets)
    assert report.pdr == (report.delivered / report.sent if report.sent else 1.0)
    assert report.jammed_per_step == [row[5] for row in rows]
    assert report.jammed_peak == max((row[5] for row in rows), default=0)
    assert [row[0] for row in rows] == list(range(len(rows)))
    for t, sent, delivered, dropped, in_flight, _ in rows:
        assert sent == delivered + dropped + in_flight, f"imbalance at step {t}"


@pytest.mark.parametrize("k", range(CORPUS_SIZE))
def test_events_reconcile_with_the_report(k):
    sim, report, _, log = drive(k)
    kinds = Counter(e.kind for e in log)
    assert kinds["deliver"] == report.delivered
    assert kinds["drop"] == report.dropped
    assert kinds["reroute"] == report.reroutes
    # a death after the last step (the last reroute's ants, or the setup of
    # a run of no steps) is pending, never reported
    deaths = [e.node for e in log if e.kind == "death"]
    dead = [i for i, n in sorted(sim.net.nodes.items()) if not n.alive]
    assert sorted(deaths + list(sim.state.unreported_dead)) == dead


def test_no_search_crosses_a_node_dead_when_it_started(monkeypatch):
    # A batch's quality table answers for the live links, so the table is
    # sound only if no search reads a dead node's links: no best path may
    # cross a node dead at its search's start, one that an earlier search of
    # the same batch drained after the table was built included.
    def dead(net):
        return {i for i, n in net.nodes.items() if not n.alive}

    tables = []  # the dead set when each table was built
    searches = []  # (dead at its table, dead at its start, best path)
    build, search = engine.build_link_metrics, engine.run_search

    def built(net, *args, **kwargs):
        tables.append(dead(net))
        return build(net, *args, **kwargs)

    def searched(net, *args):
        at_start = dead(net)
        result = search(net, *args)
        if result.best is not None:
            searches.append((tables[-1], at_start, result.best.path))
        return result

    monkeypatch.setattr(engine, "build_link_metrics", built)
    monkeypatch.setattr(engine, "run_search", searched)
    for k in range(CORPUS_SIZE):
        drive.__wrapped__(k)  # uncached, so every search runs through the wrappers
    assert any(at_table < at_start for at_table, at_start, _ in searches)
    for _, at_start, path in searches:
        assert not at_start & set(path), (sorted(at_start), path)
