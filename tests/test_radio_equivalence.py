"""The banded link build and cached radio layer against reference_radio.py.

The package compares each node only with the nodes in its own and the 8
neighbouring cells of bands no wider than the largest finite range (and
nodes of infinite range with each other), caches each node's
nearest-live-neighbor distance and each jammer's path-gain row on the
network, and memoises the last radio samples and deceptive victims there.
None of that may change a result: on generated explicit networks the links,
distances, adjacency, radio samples, jammed flags, deceptive victims and the
jammer rng state must equal the original pairwise, recompute-everything
implementation at every step of runs of up to 40 steps, while relays die,
random jammers change phase, reactive jammers turn on and off, jammer powers
and radio values change on the same network, and steps come where no node is
sampled.
"""

import dataclasses
import gc
import math
import weakref
from datetime import timedelta
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_radio as ref
from antjam import jammers as jammers_mod
from antjam.jammers import (
    Jammer,
    JammerKind,
    RadioParams,
    deceptive_victims,
    jammed_from_samples,
    noise_at,
    reference_signal,
    sample_radio,
)
from antjam.network import Node, build_network

# A few fixed jammer spots, so that a cache keyed on position alone would be
# hit again by another example's network.
JAMMER_SPOTS = ((0.0, 0.0), (1.0, 0.0), (0.5, 1.5), (-1.0, -1.0))
# the values a step may set on the run's RadioParams
RADIO_VALUES = {
    "floor": (1e-9, 1e-3),
    "tx_power": (0.1, 1.0),
    "d0": (0.5, 1.0),
    "gamma": (0.0, 2.0, 3.0),
}


def assert_same_links(net, specs):
    nodes = {i: Node(i, pos, e, r) for i, (pos, e, r) in enumerate(specs)}
    links, distance, adjacency = ref.reference_links(nodes)
    assert net.links == links
    assert list(net.distance.items()) == list(distance.items())
    assert [(i, list(s)) for i, s in net._adjacency.items()] == [
        (i, list(s)) for i, s in adjacency.items()
    ]


def make_jammers(specs):
    return [
        Jammer(kind, pos, power, sleep_steps=sleep, jam_steps=jam, start=start)
        for kind, pos, power, sleep, jam, start in specs
    ]


@st.composite
def radio_cases(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 12))
    if draw(st.booleans()):
        # a lattice of half units: points on cell edges, links of exactly
        # their range, and (with range 0.25) no links at all
        spots = [(x * 0.5, y * 0.5) for x in range(-4, 5) for y in range(-4, 5)]
        positions = rng.sample(spots, count)
    else:
        positions = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(count)]
    ranges = draw(st.sampled_from(["same", "mixed", "one_inf", "isolated"]))
    if ranges == "same":
        radii = [draw(st.sampled_from([0.5, 1.0, 2.0]))] * count
    elif ranges == "isolated":
        radii = [0.25] * count
    else:
        radii = [rng.choice([0.5, 1.0, 1.5, 2.5]) for _ in range(count)]
        if ranges == "one_inf":
            radii[rng.randrange(count)] = math.inf
    duplicate = draw(st.booleans()) and count > 2
    if duplicate:
        a, b = sorted(rng.sample(range(count), 2))
        positions[b] = positions[a]
    specs = [
        (pos, rng.choice([1.0, 2.0, 5.0]), r) for pos, r in zip(positions, radii)
    ]

    kinds = st.sampled_from(list(JammerKind))
    jammer_specs = [
        (
            draw(kinds),
            draw(st.sampled_from(JAMMER_SPOTS)),
            draw(st.sampled_from([0.001, 0.05, 1.0])),
            draw(st.sampled_from([(1, 1), (1, 3)])),
            draw(st.sampled_from([(1, 2), (2, 4)])),
            draw(st.integers(0, 2)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    radio = RadioParams(
        **{name: draw(st.sampled_from(values)) for name, values in RADIO_VALUES.items()}
    )
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        # about one death every few steps, so runs have stretches of both
        drains = [
            (rng.randrange(count), rng.choice([0.5, 1.0, 5.0]))
            for _ in range(rng.choice([0, 0, 0, 1, 2]))
        ]
        triggered = [rng.random() < 0.5 for _ in jammer_specs]
        retune = None
        if rng.random() < 0.2:
            name = rng.choice(sorted(RADIO_VALUES))
            retune = (name, rng.choice(RADIO_VALUES[name]))
        repower = None
        if jammer_specs and rng.random() < 0.2:
            repower = (rng.randrange(len(jammer_specs)), rng.choice([0.001, 0.05, 1.0]))
        steps.append((drains, triggered, retune, repower))
    return specs, jammer_specs, radio, steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(radio_cases())
def test_matches_reference_radio(case):
    specs, jammer_specs, radio, steps, seed = case
    try:
        ref.reference_links(
            {i: Node(i, pos, e, r) for i, (pos, e, r) in enumerate(specs)}
        )
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_network(specs, 0)
        assert str(got.value) == str(exc)
        return
    net = build_network(specs, 0)
    assert_same_links(net, specs)

    mine, theirs = make_jammers(jammer_specs), make_jammers(jammer_specs)
    rng_a, rng_b = Random(seed), Random(seed)
    radio = dataclasses.replace(radio)  # retuned below; keep the drawn case intact
    for t, (drains, triggered, retune, repower) in enumerate(steps):
        for i, amount in drains:
            net.drain_energy(i, amount)
        for a, b, flag in zip(mine, theirs, triggered):
            a.triggered = b.triggered = flag
        if retune is not None:
            setattr(radio, *retune)
        if repower is not None:
            k, power = repower
            mine[k].power = theirs[k].power = power
        with mock.patch.object(
            jammers_mod, "jammer_emission", wraps=jammers_mod.jammer_emission
        ) as emission:
            got = sample_radio(net, mine, t, radio, rng_a)
        # each jammer once per step, and only when some node is sampled
        assert emission.call_count == (len(mine) if got else 0)
        want = ref.sample_radio(net, theirs, t, radio, rng_b)
        assert list(got.items()) == list(want.items())
        assert jammed_from_samples(got) == {
            i for i, sample in want.items() if sample.p_signal / sample.p_noise < 1.0
        }
        assert rng_a.getstate() == rng_b.getstate()
        assert deceptive_victims(net, mine, t, radio) == ref.deceptive_victims(
            net, theirs, t, radio
        )
        for i in sorted(net.nodes):
            assert reference_signal(net, i, radio) == ref.reference_signal(net, i, radio)
        probe = t % len(specs)
        assert noise_at(net, mine, probe, t, radio, rng_a) == ref.noise_at(
            net, theirs, probe, t, radio, rng_b
        )
        assert rng_a.getstate() == rng_b.getstate()


def test_duplicate_error_names_smallest_pair():
    # (1, 4) and (2, 3) both coincide; the pairwise loop reports (1, 4) first
    specs = [
        ((0.0, 0.0), 1.0, 1.0),
        ((5.0, 5.0), 1.0, 1.0),
        ((9.0, 0.0), 1.0, 1.0),
        ((9.0, 0.0), 1.0, 1.0),
        ((5.0, 5.0), 1.0, 1.0),
    ]
    message = r"^nodes 1 and 4 share coordinates \(5.0, 5.0\)$"
    with pytest.raises(ValueError, match=message):
        build_network(specs, 0)
    with pytest.raises(ValueError, match=message):
        ref.reference_links({i: Node(i, *spec) for i, spec in enumerate(specs)})


def random_field(count, half_width, seed):
    rng = Random(seed)
    return [
        ((rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width)),
         1.0, rng.choice([5.0, 8.0, 12.0]))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "specs",
    [
        # a random field: many cells, negative coordinates
        random_field(400, 60.0, 4),
        # a lattice whose spacing equals the range: every link sits on a cell edge
        [((c * 3.0, r * 3.0), 1.0, 3.0) for r in range(-5, 6) for c in range(-5, 6)],
        # ranges a 1e-13 fraction of the coordinates
        [((1e10 + k * 1e-3, 0.0), 1.0, 0.0015) for k in range(5)],
        # a grid at spacing 1e12 whose links are exactly its range long
        [((c * 1e12, r * 1e12), 1.0, 1e12) for r in range(8) for c in range(8)],
        # a diagonal chain near 1e300: each node reaches only the next
        [((1e300 + k * 3e286, 1e300 - k * 2e286), 1.0, 4e286) for k in range(6)],
        # infinite ranges link every such pair, even where the distance
        # overflows to inf, and a finite range only within its reach
        [((x * 4.0, y * 3.0), 1.0, math.inf if (x + y) % 3 == 0 else 5.0)
         for x in range(-4, 5) for y in range(-4, 5)]
        + [((1e300, -1e300), 1.0, math.inf), ((-1e300, 1e300), 1.0, math.inf)],
        # one shared x, so a single band along it
        [((7.0, k * 2.0), 1.0, 2.5) for k in range(-10, 10)],
    ],
    ids=["random-field", "lattice-on-edges", "far-out", "grid-1e12", "near-1e300",
         "mixed-infinite", "shared-x"],
)
def test_cell_grid_links_match_pairwise(specs):
    positions = [pos for pos, _, _ in specs]
    assert len(set(positions)) == len(positions)
    net = build_network(specs, 0)
    assert_same_links(net, specs)
    assert net.links


def test_gain_rows_belong_to_their_network():
    jammer = [Jammer(JammerKind.CONSTANT, (0.0, 0.0), power=0.05)]
    near = build_network([((1.0, 0.0), 1.0, 2.0), ((2.0, 0.0), 1.0, 2.0)], 0)
    far = build_network([((5.0, 0.0), 1.0, 2.0), ((6.0, 0.0), 1.0, 2.0)], 0)
    # rows differ per network and per (d0, gamma)
    for net, radio in [
        (near, RadioParams()),
        (far, RadioParams()),
        (near, RadioParams(gamma=3.0)),
        (near, RadioParams(d0=0.5)),
        (near, RadioParams()),
    ]:
        got = sample_radio(net, jammer, 0, radio, Random(0))
        assert got == ref.sample_radio(net, jammer, 0, radio, Random(0))
    # nothing outside the network keeps it alive
    alive = weakref.ref(near)
    del net, near
    gc.collect()
    assert alive() is None


def test_two_random_jammers_share_one_rng_through_a_silent_step():
    specs = [((0.0, 0.0), 2.0, 1.5), ((1.0, 0.0), 2.0, 1.5), ((2.0, 0.0), 5.0, 1.5)]
    net = build_network(specs, 0)
    spec = [
        (JammerKind.RANDOM, (1.0, 0.0), 0.05, (1, 3), (1, 2), 0),
        (JammerKind.RANDOM, (0.5, 1.5), 1.0, (1, 2), (2, 4), 1),
    ]
    mine, theirs = make_jammers(spec), make_jammers(spec)
    rng_a, rng_b = Random(3), Random(3)
    radio = RadioParams()
    sampled = []
    for t in range(12):
        if t == 4:
            net.drain_energy(1, 2.0)  # the relay dies: 0 and 2 hear nobody
        got = sample_radio(net, mine, t, radio, rng_a)
        assert got == ref.sample_radio(net, theirs, t, radio, rng_b)
        assert rng_a.getstate() == rng_b.getstate()
        sampled.append(bool(got))
    assert sampled == [True] * 4 + [False] * 8
    # the silent steps drew nothing: both cycles stand where the reference's do
    assert [(j._phase, j._phase_end) for j in mine] == [
        (j._phase, j._phase_end) for j in theirs
    ]
