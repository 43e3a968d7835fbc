"""run_search against the original dict-based search in reference_search.py.

The package's search reads pheromone, quality and distance through lazily
built candidate rows, per-round weight caches and a sparse pheromone table.
None of that may change a result: on generated small networks both searches
must return equal best tours, iteration stats and transmit counts, and equal
final pheromone on every link. The reference's table holds every link; the
package's holds the links tours used, and every other link reads its
shared untouched value.

The walker reads a per-node quality table (quality_from_metrics of
build_link_metrics) one node's row at a time, and a plain dict link by link,
so a search on such a table must equal the search on a dict of its items,
down to the final pheromone. Either search, given the candidate rows that an
earlier search filled over the same network, table and params, must return
what it returns with rows of its own.

An explorer's hop draws from the walker's weights in one pass; it must pick
the node, dead-end or raise exactly as the reference's normalize-then-draw
does. The public rule functions, transition_probabilities and
choose_next_exploiter, weigh their candidates with the walker's code; on
generated candidates they must give the reference's probabilities, pick or
DeadEnd bit for bit, and a candidate missing from any of their three link
mappings must raise KeyError. Every tour the walker returns is scored from
the rows it read; its quality and length must equal tour_quality and the
left-to-right sum of the link distances along its path.
"""

from datetime import timedelta
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_search
from antjam.ants import (
    Colony,
    DeadEnd,
    PheromoneTable,
    SearchParams,
    _normalize,
    _Walk,
    choose_next_exploiter,
    run_search,
    transition_probabilities,
)
from antjam.jammers import RadioSample
from antjam.metrics import (
    LinkCounters,
    build_link_metrics,
    quality_from_metrics,
    tour_quality,
)
from antjam.network import build_network, grid_network
from test_ants import FixedDraw, walker_hop


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
    # attempts, delivered: empty, partial, full and no delivery
    counters = {
        link: LinkCounters(*rng.choice([(0, 0), (3, 1), (4, 4), (2, 0)]))
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
    for table, alone in ((quality, got), (plain, want)):
        rows = {}  # filled by a search the other way, then shared
        run_search(net, dest, source, params, Random(seed + 1), table, rows)
        assert rows
        shared = run_search(net, source, dest, params, Random(seed), table, rows)
        assert shared.best == alone.best
        assert shared.stats == alone.stats
        assert shared.transmit_counts == alone.transmit_counts


# zeros, subnormals (whose quotient underflows next to a large total), plain
# values, and values large enough that two of them overflow the total
hop_weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from([5e-324, 1e-320, 2.2e-308]),
        st.floats(1e-3, 1e3),
        st.floats(1e307, 1.7976931348623157e308),
        st.floats(0.0, 1.7976931348623157e308),
    ),
    min_size=1,
    max_size=8,
)


def hop_outcome(hop):
    try:
        return ("pick", hop())
    except (DeadEnd, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def reference_hop(weights, r, masked):
    """_normalize, then the reference roulette over the unvisited candidates."""
    probs = _normalize([0.0 if u in masked else w for u, w in enumerate(weights)])
    if probs is None:
        return None
    table = {u: p for u, p in enumerate(probs) if u not in masked}
    return reference_search.choose_next_explorer(table, FixedDraw(r))


@settings(max_examples=500, deadline=timedelta(seconds=1))
@given(
    hop_weights,
    st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)),
    st.lists(st.integers(0, 7), unique=True),
)
@example([0.7, 2.0, 1.0, 5e-324], 1.0 - 2.0**-53, [])  # last quotient underflows
@example([1e308, 1e308], 0.5, [])  # the total overflows to inf
@example([1e308, 1e308, 1.0], 0.5, [1])  # so does the sum of the open ones
@example([5.0, 1.0, 5.0], 1.0 - 2.0**-53, [0, 2])  # only one candidate is open
@example([5.0, 0.0], 0.5, [0])  # no open candidate weighs anything
def test_explorer_hop_matches_reference(weights, r, visited):
    masked = [u for u in visited if u < len(weights)]
    got = hop_outcome(lambda: walker_hop(weights, FixedDraw(r), masked))
    want = hop_outcome(lambda: reference_hop(weights, r, set(masked)))
    assert got == want


RULES = [
    (transition_probabilities, reference_search.transition_probabilities),
    (choose_next_exploiter, reference_search.choose_next_exploiter),
]


@st.composite
def rule_cases(draw):
    """Candidates out of node 0, which may repeat, with their pheromone,
    quality and distance, and knobs. Pheromone is a dict or a sparse
    PheromoneTable whose missing links read its untouched value."""
    candidates = draw(st.lists(st.integers(1, 20), max_size=8))
    pheromone_value = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    pheromone = {(0, u): draw(pheromone_value) for u in candidates}
    quality = {
        (0, u): draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) for u in candidates
    }
    distance = {(0, u): draw(st.floats(0.1, 100.0)) for u in candidates}
    if draw(st.booleans()):
        pheromone = PheromoneTable(
            {link: v for link, v in pheromone.items() if draw(st.booleans())}
        )
        pheromone.untouched = draw(pheromone_value)
    exponent = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 3.0))
    params = SearchParams(alpha=draw(exponent), beta=draw(exponent))
    return candidates, pheromone, quality, distance, params


def rule_outcome(rule, *args):
    try:
        got = rule(*args)
    except DeadEnd as exc:
        return ("DeadEnd", str(exc))
    return ("result", list(got.items()) if isinstance(got, dict) else got)


@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(rule_cases())
@example((  # dead links weigh zero even with both exponents 0
    [2, 1],
    {(0, 1): 0.0, (0, 2): 3.0},
    {(0, 1): 1.0, (0, 2): 0.0},
    {(0, 1): 1.0, (0, 2): 2.0},
    SearchParams(alpha=0.0, beta=0.0),
))
@example((  # a repeated candidate counts once
    [1, 1, 2],
    {(0, 1): 1.0, (0, 2): 1.0},
    {(0, 1): 1.0, (0, 2): 1.0},
    {(0, 1): 1.0, (0, 2): 1.0},
    SearchParams(),
))
def test_rule_functions_match_reference(case):
    for rule, reference in RULES:
        got = rule_outcome(rule, 0, *case)
        assert got == rule_outcome(reference, 0, *case)


@settings(max_examples=100, deadline=timedelta(seconds=1))
@given(rule_cases().filter(lambda case: case[0]), st.integers(0, 2), st.data())
def test_a_candidate_missing_from_a_mapping_raises_key_error(case, which, data):
    candidates, pheromone, quality, distance, params = case
    pheromone = {(0, u): pheromone[(0, u)] for u in candidates}
    mappings = [pheromone, dict(quality), dict(distance)]
    del mappings[which][(0, data.draw(st.sampled_from(candidates)))]
    if which == 0 and data.draw(st.booleans()):
        mappings[0] = PheromoneTable(mappings[0])  # untouched None: links are fixed
    for rule, _ in RULES:
        with pytest.raises(KeyError):
            rule(0, candidates, *mappings, params)


def checked_tours(net, source, dest, params, quality, seed):
    """Check every tour record run_search's walker returns; how many were explorers'.

    Each record's quality must be tour_quality of its path and its distance
    the left-to-right sum of the link distances along it.
    """
    seen = []
    tour = _Walk.tour

    def recording_tour(self, ant, rng):
        path, record = tour(self, ant, rng)
        seen.append((ant.colony, path, record))
        return path, record

    with patch.object(_Walk, "tour", recording_tour):
        result = run_search(net, source, dest, params, Random(seed), quality)
    table = quality if quality is not None else {link: 1.0 for link in net.links}
    explorers = 0
    for colony, path, record in seen:
        if record is None:
            continue
        assert record.path == path
        assert record.quality == tour_quality(path, table)
        walked = 0.0
        for link in zip(path, path[1:]):
            walked += net.distance[link]
        assert record.distance == walked
        explorers += colony is Colony.EXPLORER
    assert result.best is None or result.best in [record for *_, record in seen]
    return explorers


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(st.one_of(search_cases(), table_cases()))
def test_tour_records_score_their_own_path(case):
    checked_tours(*case)


def test_explorer_tour_records_are_checked():
    net = grid_network(4, 4, 10.0, 12.0, 10.0, pe_index=15)
    assert checked_tours(net, 0, 15, SearchParams(iterations=5), None, 3) > 0
