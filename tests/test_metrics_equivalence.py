"""The per-node quality table against reference_metrics.py.

The package measures one LinkMetrics per destination node, plus one per
neighbour of a flagged node, and measures a link on its own only when it has
a counter; it scores those entries, not the links. None of that may change a
result: on generated networks, while relays die and flags, samples and
counters change between builds, the metrics table and the quality table must
equal the per-link original in order and bit for bit, have its length, miss
the same keys, keep answering as built after later deaths, and an invalid
counter must raise the same error. Extreme signal and noise powers and
infinite node energies under finite totals must never raise.
"""

import math
from datetime import timedelta
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_metrics as ref
from antjam.jammers import RadioSample
from antjam.metrics import (
    LinkCounters,
    MetricTotals,
    build_link_metrics,
    measure_link,
    quality_from_metrics,
)
from antjam.network import build_network

# attempts, delivered, lost: empty, partial and full delivery, plus a
# counter whose delivered and lost do not add up to its attempts
COUNTERS = [(0, 0, 0), (3, 1, 2), (4, 4, 0), (2, 0, 2), (5, 2, 1)]
# delivered > attempts and lost > attempts: each raises its own text
BAD_COUNTERS = [LinkCounters(2, 3, 0), LinkCounters(2, 0, 5)]


def counters_of(rng, links, bad):
    counters = {
        link: LinkCounters(*rng.choice(COUNTERS))
        for link in links
        if rng.random() < 0.3
    }
    counters[(98, 99)] = LinkCounters(1, 1, 0)  # a key that is no link
    if bad:
        counters.update(zip(rng.sample(links, min(2, len(links))), BAD_COUNTERS))
    items = list(counters.items())
    rng.shuffle(items)  # the first bad link in (i, j) order must raise
    return dict(items)


@st.composite
def metric_cases(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 12))
    spots = [(x * 0.5, y * 0.5) for x in range(-3, 4) for y in range(-3, 4)]
    positions = rng.sample(spots, count)
    radii = [rng.choice([0.5, 1.0, 1.5]) for _ in range(count)]
    for i in rng.sample(range(count), draw(st.integers(0, 2))):
        radii[i] = 0.25  # no other lattice point is this close: isolated
    infinite = draw(st.booleans())  # some nodes may hold infinite energy
    energies = [1.0, 2.0, 5.0] + [math.inf] * infinite
    specs = [(pos, rng.choice(energies), r) for pos, r in zip(positions, radii)]
    pe = rng.randrange(count)
    builds = []
    for _ in range(draw(st.integers(1, 4))):
        drains = [
            (rng.randrange(count), rng.choice([0.5, 1.0, 5.0]))
            for _ in range(draw(st.integers(0, 3)))
        ]
        flagged = frozenset(
            rng.sample(range(count), draw(st.integers(0, min(count, 4))))
        )
        if draw(st.booleans()):
            flagged |= {pe}
        samples = {
            i: RadioSample(
                rng.choice([0.0, 0.5, 3.0, 20.0, 1e308]),
                rng.choice([0.5, 1.0, 5e-324, math.inf]),
            )
            for i in range(count)
            if rng.random() < 0.8
        }
        # the default budget of infinite energy is not finite: it is refused
        totals = draw(
            st.sampled_from(
                [None] * (not infinite)
                + [MetricTotals(1.0, 1.0), MetricTotals(3.0, 2.0, 4.0),
                   MetricTotals(20.0, 10.0, 25.0), MetricTotals(1e308, 1e308, 1e308)]
            )
        )
        bad = draw(st.sampled_from([None, None, None, "counter"]))
        builds.append((drains, flagged, samples, totals, bad, rng.random()))
    return specs, pe, builds


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(metric_cases())
def test_matches_reference_metrics(case):
    specs, pe, builds = case
    net = build_network(specs, pe)
    built = []  # (table, its items when built) of every earlier build
    for drains, flagged, samples, totals, bad, seed in builds:
        old_links = set(net.links)
        for i, amount in drains:
            net.drain_energy(i, amount)
        # a table already built answers as it did, whatever died since
        for table, items in built:
            assert list(table.items()) == items
        rng = Random(seed)
        links = sorted(net.links)
        counters = counters_of(rng, links, bad == "counter")
        args = (net, samples, counters, totals, flagged)
        try:
            want = ref.build_link_metrics(*args)
        except ValueError as exc:
            assert bad == "counter"  # nothing else can fail
            with pytest.raises(ValueError) as got:
                build_link_metrics(*args)
            assert str(got.value) == str(exc)
            continue
        got = build_link_metrics(*args)
        want_quality = ref.quality_from_metrics(want)
        quality = quality_from_metrics(got)
        assert list(got.items()) == list(want.items())
        assert list(quality.items()) == list(want_quality.items())
        assert len(got) == len(quality) == len(want)
        # (0, 0), a pair of unknown ids and the links of nodes that just died
        for non_link in [(0, 0), (98, 99), *sorted(old_links - set(links))]:
            assert non_link not in got and non_link not in quality
            assert quality.get(non_link, 0.0) == 0.0
            assert got.get(non_link) is None
            for table in (got, quality):
                with pytest.raises(KeyError):
                    table[non_link]
        built += [(got, list(want.items())), (quality, list(want_quality.items()))]


@pytest.mark.parametrize(
    "counters",
    [{(2, 1): LinkCounters(attempts=2, delivered=3, lost=0)}],
    ids=["delivered-over-attempts"],
)
def test_invalid_entries_raise_like_measure_link(counters):
    # (0, 1) is measured first, so (2, 1) could reuse its measurement if
    # the entry were ignored
    net = build_network([((0.0, 0.0), 1.0, 1.5), ((1.0, 0.0), 1.0, 1.5),
                         ((2.0, 0.0), 1.0, 1.5)], 0)
    samples = {i: RadioSample(5.0, 1.0) for i in net.nodes}
    with pytest.raises(ValueError) as want:
        measure_link(net, samples, 2, 1, counters)
    with pytest.raises(ValueError) as got:
        build_link_metrics(net, samples, counters)
    assert str(got.value) == str(want.value)
    assert "outside" in str(got.value)
