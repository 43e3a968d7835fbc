"""run_search against the original dict-based search in reference_search.py.

The package's search reads pheromone, quality and distance through lazily
built candidate rows, per-round weight caches and a sparse pheromone table.
None of that may change a result: on generated small networks both searches
must return equal best tours, iteration stats and transmit counts, and equal
final pheromone on every link. The reference's table holds every link; the
package's holds the links tours used, and every other link reads its
shared untouched value.

The walker reads a per-node quality table (quality_from_metrics of
build_link_metrics) through the same `get` as a plain dict, so a search on
such a table must equal the search on a dict of its items, down to the
final pheromone.
"""

from datetime import timedelta
from random import Random

from hypothesis import given, settings, strategies as st

import reference_search
from antjam.ants import SearchParams, run_search
from antjam.jammers import RadioSample
from antjam.metrics import LinkCounters, build_link_metrics, quality_from_metrics
from antjam.network import build_network


def search_params(draw):
    n_explorers = draw(st.integers(0, 4))
    return SearchParams(
        q=draw(st.sampled_from([0.0, 1.0, 2.5])),
        rho=draw(st.sampled_from([0.0, 0.5, 1.0])),
        alpha=draw(st.sampled_from([0.0, 1.0, 2.0])),
        beta=draw(st.sampled_from([0.0, 1.0, 2.0])),
        n_explorers=n_explorers,
        n_exploiters=draw(st.integers(0 if n_explorers else 1, 4)),
        iterations=draw(st.integers(1, 6)),
    )


@st.composite
def search_cases(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(3, 9))
    radio_range = draw(st.sampled_from([1.0, 1.5, 2.5]))
    specs = [
        ((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)), 10.0, radio_range)
        for _ in range(count)
    ]
    net = build_network(specs, count - 1)
    source, dest = 0, count - 1

    quality = None
    if draw(st.booleans()):
        zero_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
        quality = {
            link: 0.0 if rng.random() < zero_share else rng.uniform(0.05, 1.0)
            for link in sorted(net.links)
        }
    if count > 3 and draw(st.booleans()):
        # the quality table keeps the dead node's stale links on purpose
        net.drain_energy(draw(st.integers(1, count - 2)), 10.0)

    params = search_params(draw)
    return net, source, dest, params, quality, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(search_cases())
def test_matches_reference_search(case):
    net, source, dest, params, quality, seed = case
    got = run_search(net, source, dest, params, Random(seed), quality)
    want = reference_search.run_search(net, source, dest, params, Random(seed), quality)
    assert got.best == want.best
    assert got.stats == want.stats
    assert got.transmit_counts == want.transmit_counts
    # the package keeps only the links tours used; any other reads the
    # shared untouched value
    links = sorted(net.links)
    assert list(want.pheromone) == links
    assert set(got.pheromone) <= set(links)
    assert [got.pheromone[link] for link in links] == [
        want.pheromone[link] for link in links
    ]


@st.composite
def table_cases(draw):
    """A network, its per-node quality table with flags and counters, and
    search knobs; a relay may die after the table is built."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(3, 9))
    radio_range = draw(st.sampled_from([1.0, 1.5, 2.5]))
    specs = [
        ((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)),
         rng.choice([2.0, 5.0, 10.0]), radio_range)
        for _ in range(count)
    ]
    net = build_network(specs, count - 1)
    source, dest = 0, count - 1
    links = sorted(net.links)
    flagged = frozenset(rng.sample(range(count), draw(st.integers(0, 2))))
    samples = {
        i: RadioSample(rng.choice([0.5, 3.0, 20.0]), 1.0)
        for i in range(count)
        if rng.random() < 0.9
    }
    # attempts, delivered, lost: empty, partial, full and no delivery
    counters = {
        link: LinkCounters(*rng.choice([(0, 0, 0), (3, 1, 2), (4, 4, 0), (2, 0, 2)]))
        for link in links
        if rng.random() < draw(st.sampled_from([0.0, 0.3, 0.8]))
    }
    table = build_link_metrics(net, samples, counters, None, flagged)
    quality = quality_from_metrics(table)
    if count > 3 and draw(st.booleans()):
        net.drain_energy(draw(st.integers(1, count - 2)), 10.0)
    params = search_params(draw)
    return net, source, dest, params, quality, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(table_cases())
def test_per_node_quality_reads_like_a_dict(case):
    net, source, dest, params, quality, seed = case
    plain = dict(quality.items())
    assert type(quality) is not dict
    got = run_search(net, source, dest, params, Random(seed), quality)
    want = run_search(net, source, dest, params, Random(seed), plain)
    assert got.best == want.best
    assert got.stats == want.stats
    assert got.transmit_counts == want.transmit_counts
    assert got.pheromone == want.pheromone
    assert got.pheromone.untouched == want.pheromone.untouched
