"""A network pickles and deep-copies, and so do the quality tables built on it.

The copies are taken right after setup and again once a relay has died, on
the churn field of test_report_digests.py. A copy must hold the same nodes,
energy and links, and sample the same radio picture as the original. Its
distance view reads the copy's own neighbor rows, so a death in the copy
leaves the original's links as they were.

A whole Simulation pickles too: a copy taken after setup or mid-run, run on
to the end, gives the report bytes of a run that was never pickled.
"""

import copy
import pickle
from random import Random

import pytest

from antjam.config import parse_config
from antjam.engine import Simulation
from antjam.jammers import jammed_from_samples, sample_radio
from antjam.metrics import build_link_metrics, quality_from_metrics
from antjam.reporting import report_json_bytes
from test_report_digests import CHURN

COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


@pytest.fixture(scope="module")
def sims():
    fresh = Simulation(parse_config(CHURN), 7)
    churned = Simulation(parse_config(CHURN), 7)
    st = churned.state
    # run on until a node has died while some node is flagged
    while all(n.alive for n in churned.net.nodes.values()) or not st.flags:
        churned.step()
        churned.detect_and_reroute()
    return {"after setup": fresh, "after a death": churned}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("when", ["after setup", "after a death"])
def test_network_copies(sims, when, how):
    sim = sims[when]
    net = sim.net
    twin = COPIES[how](net)
    assert twin is not net
    assert twin.nodes == net.nodes
    assert {i: n.energy for i, n in twin.nodes.items()} == {
        i: n.energy for i, n in net.nodes.items()
    }
    assert twin.distance == net.distance
    assert set(twin.links) == set(net.links)
    assert twin._dropped_rows == net._dropped_rows
    # the neighbor rows travel with the copy
    ids = sorted(net.nodes)
    assert [twin.neighbor_row(i) for i in ids] == [net.neighbor_row(i) for i in ids]
    t = sim.state.time
    want = sample_radio(net, sim.jammers, t, sim.radio, Random(5))
    got = sample_radio(twin, sim.jammers, t, sim.radio, Random(5))
    assert dict(got) == dict(want)
    assert jammed_from_samples(got) == jammed_from_samples(want)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_death_in_a_copy_leaves_the_original_links(sims, how):
    net = sims["after setup"].net
    count, items = len(net.distance), list(net.distance.items())
    twin = COPIES[how](net)
    relay = next(i for i in sorted(twin.nodes) if i != twin.pe_id and twin.neighbors(i))
    lost = 2 * len(twin.neighbors(relay))
    assert twin.drain_energy(relay, twin.nodes[relay].energy)
    assert len(twin.distance) == len(twin.links) == count - lost
    assert [(link, d) for link, d in items if relay not in link] == list(twin.distance.items())
    assert len(net.distance) == count
    assert list(net.distance.items()) == items


def test_the_distance_view_is_read_only(sims):
    net = sims["after setup"].net
    link = next(iter(net.distance))
    with pytest.raises(TypeError):
        net.distance[link] = 1.0
    with pytest.raises(TypeError):
        del net.distance[link]
    assert link in net.links


@pytest.mark.parametrize("how", sorted(COPIES))
def test_quality_tables_copy(sims, how):
    sim = sims["after a death"]
    st = sim.state
    assert st.counters and st.flags
    metrics = build_link_metrics(
        sim.net, st.last_samples, st.counters, sim.totals, frozenset(st.flags)
    )
    quality = quality_from_metrics(metrics)
    for table in (metrics, quality):
        twin = COPIES[how](table)
        assert len(twin) == len(table)
        assert list(twin.items()) == list(table.items())


def advance(sim, until):
    """Step sim as run() does until its clock reads `until`."""
    while sim.state.time < until:
        sim.step()
        if sim.config.reroute:
            sim.detect_and_reroute()
    return sim


# after 27 steps the two deaths of step 26 are recorded but not yet patched
# into the radio memo, which the copy carries
@pytest.mark.parametrize("steps", [0, 25, 27])
def test_simulation_pickles_and_resumes(steps):
    want = report_json_bytes(Simulation(parse_config(CHURN), 7).run())
    sim = advance(Simulation(parse_config(CHURN), 7), steps)
    twin = pickle.loads(pickle.dumps(sim))
    # the copy and the original each run on to the same bytes
    for run in (twin, sim):
        assert report_json_bytes(advance(run, run.config.duration).report()) == want
