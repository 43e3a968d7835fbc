"""The banded link build and cached radio layer against reference_radio.py.

The package compares each node only with the nodes in its own and the 8
neighbouring cells of bands no wider than the largest finite range (and
nodes of infinite range with each other), keeps each node's neighbor row
(whose minimum is its nearest-live-neighbor distance) on the network, and
memoises the last hearing set, radio samples and deceptive victims there,
patching them after a death for the nodes whose rows it changed. None of
that may change a result: on generated explicit networks the links, the
distance view (in the build's order, without the links of dead nodes),
neighbor rows (ids in id order), radio samples, jammed flags, deceptive
victims and the jammer rng state must equal the original pairwise,
recompute-everything implementation at every step of runs of up to 40 steps,
while relays die, random jammers change phase, reactive jammers turn on and
off, jammer powers and radio values change on the same network, and steps
come where no node is sampled. Derandomized draws hold floors on the share
of cases that build a link and that patch a picture. The tests at the end
pin what a patch recomputes, that it leaves an earlier picture as it was,
and that the memo keeps one entry of each kind, however many jammer
positions it has seen.
"""

import dataclasses
import gc
import math
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from datetime import timedelta
from random import Random
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

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
from antjam.network import Node, build_network, euclidean_distance, grid_network

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
    assert_live_distances(net, distance)
    assert_kept_rows(net, distance, adjacency)


def assert_live_distances(net, distance):
    """The network's distance view holds the reference links whose ends are
    both alive, in the reference's order, and no link with a dead end."""
    alive = {i for i, node in net.nodes.items() if node.alive}
    live = [(link, d) for link, d in distance.items() if alive.issuperset(link)]
    assert list(net.distance.items()) == live
    assert len(net.distance) == len(net.links) == len(live)
    for link in sorted(distance.keys() - dict(live).keys()):
        assert link not in net.links
        with pytest.raises(KeyError):
            net.distance[link]


def assert_kept_rows(net, distance, adjacency):
    """Each node's neighbor row lists its live reference neighbors in
    id order with their reference distances (a dead node's row is empty), and
    its nearest distance is the row's minimum."""
    for i, node in net.nodes.items():
        ids = sorted(j for j in adjacency[i] if net.nodes[j].alive) if node.alive else []
        want = (tuple(ids), tuple(distance[(i, j)] for j in ids))
        assert net.neighbor_row(i) == want, i
        assert net.nearest_distance(i) == min(want[1], default=None), i


def make_jammers(specs):
    return [
        Jammer(kind, pos, power, sleep_steps=sleep, jam_steps=jam, start=start)
        for kind, pos, power, sleep, jam, start in specs
    ]


@st.composite
def radio_cases(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    # a build with a link is what the radio layer is tested on, so the cases
    # that build none (an isolated layout, a coincident pair) come one in 20
    count = rng.randint(2, 12)
    if draw(st.booleans()):
        # a lattice of half units: points on cell edges, links of exactly
        # their range, and (with range 0.25) no links at all
        spots = [(x * 0.5, y * 0.5) for x in range(-3, 4) for y in range(-3, 4)]
        positions = rng.sample(spots, count)
    else:
        positions = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(count)]
        # node 1 within 0.5 of node 0, the smallest range but the isolated one
        x, y = positions[0]
        positions[1] = (x + rng.uniform(-0.35, 0.35), y + rng.uniform(-0.35, 0.35))
    if rng.random() < 0.05:
        ranges = "isolated"
    else:
        ranges = draw(st.sampled_from(["same", "mixed", "one_inf"]))
    if ranges == "same":
        radii = [draw(st.sampled_from([0.5, 1.0, 2.0]))] * count
    elif ranges == "isolated":
        radii = [0.25] * count
    else:
        radii = [rng.choice([0.5, 1.0, 1.5, 2.5]) for _ in range(count)]
        if ranges == "one_inf":
            radii[rng.randrange(count)] = math.inf
    if count > 2 and rng.random() < 0.05:
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
    energy = [e for _, e, _ in specs]  # as the drains leave it
    for _ in range(draw(st.integers(1, 40))):
        # about one death every few steps, so runs have stretches of both
        drains = [
            (rng.randrange(count), rng.choice([0.5, 1.0, 5.0]))
            for _ in range(rng.choice([0, 0, 0, 1, 2]))
        ]
        live = [k for k in range(count) if energy[k] > 0.0]
        if live and rng.random() < 0.25:
            # now and then two live neighbors of a live node die before the
            # next sample: both deaths share the node, which may lose its last link
            k = rng.choice(live)
            around = [
                j for j in live
                if j != k
                and euclidean_distance(positions[j], positions[k]) <= min(radii[j], radii[k])
            ]
            drains += [(j, 5.0) for j in rng.sample(around, min(2, len(around)))]
        for i, amount in drains:
            energy[i] -= amount
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


def replay(steps, net, jammer_lists, radio):
    """Yields each step of a case after making its changes: the drains on
    `net`, the triggers and the new power on every list of jammers, and the
    new radio value on `radio`."""
    for t, (drains, triggered, retune, repower) in enumerate(steps):
        for i, amount in drains:
            net.drain_energy(i, amount)
        for jammers in jammer_lists:
            for jammer, flag in zip(jammers, triggered):
                jammer.triggered = flag
            if repower is not None:
                k, power = repower
                jammers[k].power = power
        if retune is not None:
            setattr(radio, *retune)
        yield t


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(radio_cases())
def test_matches_reference_radio(case):
    specs, jammer_specs, radio, steps, seed = case
    event(layout_label(specs))
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
    _, distance, adjacency = ref.reference_links(
        {i: Node(i, pos, e, r) for i, (pos, e, r) in enumerate(specs)}
    )

    mine, theirs = make_jammers(jammer_specs), make_jammers(jammer_specs)
    rng_a, rng_b = Random(seed), Random(seed)
    radio = dataclasses.replace(radio)  # retuned below; keep the drawn case intact
    with patched_pictures() as patches:  # labels the example
        for t in replay(steps, net, (mine, theirs), radio):
            assert_live_distances(net, distance)
            assert_kept_rows(net, distance, adjacency)
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
    event("death" if net._dropped_rows else "no death")
    event("patch" if patches else "no patch")


def layout_label(specs):
    """Whether a case's layout builds with a link, builds without one, or
    holds a coincident pair, which does not build."""
    try:
        net = build_network(specs, 0)
    except ValueError:
        return "coincident"
    return "link" if net.links else "no link"


@contextmanager
def patched_pictures():
    """Records (kept picture, new picture) for each radio picture a death
    patches: a miss on the kept picture that judges some nodes without
    listing every one, as a rebuild does."""
    patches = []
    memo = jammers_mod._memo

    def spy(net, name, key, nodes, judge, finish):
        listed = []

        def listing():
            listed.append(True)
            return nodes()

        kept = net._radio_memo.get(name)
        value = memo(net, name, key, listing, judge, finish)
        if name == "samples" and kept is not None and kept[3] is not value and not listed:
            patches.append((kept[3], value))
        return value

    with mock.patch.object(jammers_mod, "_memo", spy):
        yield patches


def test_most_radio_cases_build_a_link():
    """The radio layer is only tested where a node hears a neighbor, so at
    least 70% of the drawn cases must build a network with a link; the draw
    is derandomized, so this share is the same on every run."""
    labels = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(radio_cases())
    def draw(case):
        labels.append(layout_label(case[0]))

    draw()
    assert labels.count("link") >= 0.7 * len(labels), Counter(labels)


def patches_a_picture(case):
    """Whether the package alone, stepped through a case as
    test_matches_reference_radio steps it, patches a radio picture."""
    specs, jammer_specs, radio, steps, seed = case
    try:
        net = build_network(specs, 0)
    except ValueError:
        return False
    jammers, rng, radio = make_jammers(jammer_specs), Random(seed), dataclasses.replace(radio)
    with patched_pictures() as patches:
        for t in replay(steps, net, [jammers], radio):
            sample_radio(net, jammers, t, radio, rng)
            noise_at(net, jammers, t % len(specs), t, radio, rng)
    return bool(patches)


def test_many_radio_cases_patch_a_picture():
    """The reference comparison reaches the patch a death makes only where a
    kept picture is patched, so at least 8% of the drawn cases must patch
    one (28 of these 300 do); the draw is derandomized, so this share is the
    same on every run."""
    patched = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(radio_cases())
    def draw(case):
        patched.append(patches_a_picture(case))

    draw()
    assert sum(patched) >= 0.08 * len(patched), Counter(patched)


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


def test_gains_follow_their_network_and_radio_values():
    jammer = [Jammer(JammerKind.CONSTANT, (0.0, 0.0), power=0.05)]
    near = build_network([((1.0, 0.0), 1.0, 2.0), ((2.0, 0.0), 1.0, 2.0)], 0)
    far = build_network([((5.0, 0.0), 1.0, 2.0), ((6.0, 0.0), 1.0, 2.0)], 0)
    # gains differ per network and per (d0, gamma)
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


# The radio memo after a death: the hearing set, the picture and the
# deceptive victims are patched for the nodes whose rows the death dropped.


def patch_case():
    """A 5x5 grid (ids r*5 + c, links to the 8 around) under a constant
    jammer on node 6 and a deceptive one on node 18."""
    net = grid_network(5, 5, 1.0, 1.5, 10.0)
    jammers = [
        Jammer(JammerKind.CONSTANT, (1.0, 1.0), power=0.15),
        Jammer(JammerKind.DECEPTIVE, (3.0, 3.0), power=0.3),
    ]
    return net, jammers


def assert_radio_matches_reference(net, jammers, t, radio):
    picture = sample_radio(net, jammers, t, radio, Random(0))
    want = ref.sample_radio(net, jammers, t, radio, Random(0))
    assert list(picture.items()) == list(want.items())
    assert picture.flagged == {
        i for i, sample in want.items() if sample.p_signal / sample.p_noise < 1.0
    }
    assert deceptive_victims(net, jammers, t, radio) == ref.deceptive_victims(
        net, jammers, t, radio
    )
    return picture


@contextmanager
def radio_work():
    """Mocks wrapping the per-node work: a reference signal, a noise sum, a
    flag verdict and a victim verdict."""
    names = ("reference_signal", "_noise", "_drowned", "_fooled")
    with ExitStack() as stack:
        yield {
            name: stack.enter_context(
                mock.patch.object(jammers_mod, name, wraps=getattr(jammers_mod, name))
            )
            for name in names
        }


def read_radio(net, jammers, t, radio):
    sample_radio(net, jammers, t, radio, Random(0))
    deceptive_victims(net, jammers, t, radio)


def test_a_death_resamples_only_the_recorded_nodes():
    net, jammers = patch_case()
    radio = RadioParams()
    with radio_work() as work:
        read_radio(net, jammers, 0, radio)
    assert work["reference_signal"].call_count == 25
    assert work["_noise"].call_count == work["_drowned"].call_count == 25
    assert work["_fooled"].call_count == 25

    recorded = {12} | net.neighbors(12)
    assert net.drain_energy(12, 10.0)
    with radio_work() as work:
        read_radio(net, jammers, 1, radio)
    signals = [call.args[1] for call in work["reference_signal"].call_args_list]
    assert sorted(signals) == sorted(recorded)
    # the dead node hears nobody, so only its 8 neighbors are sampled again,
    # and the new picture works out its flags over all its 24 nodes
    assert work["_noise"].call_count == 8
    assert work["_drowned"].call_count == 24
    fooled = [call.args[-1] for call in work["_fooled"].call_args_list]
    assert sorted(fooled) == sorted(recorded)
    assert_radio_matches_reference(net, jammers, 1, radio)

    jammers[0].power = 0.6  # a new emission: noise everywhere, signals kept
    with radio_work() as work:
        read_radio(net, jammers, 2, radio)
    assert work["reference_signal"].call_count == 0
    assert work["_noise"].call_count == work["_drowned"].call_count == 24
    assert work["_fooled"].call_count == 0  # the fakes did not change
    assert_radio_matches_reference(net, jammers, 2, radio)

    jammers[1].power = 0.35  # new fakes: every node judged again
    with radio_work() as work:
        read_radio(net, jammers, 3, radio)
    assert work["_noise"].call_count == 24
    assert work["_fooled"].call_count == 24
    assert_radio_matches_reference(net, jammers, 3, radio)

    radio.tx_power = 0.2  # a new radio value: every signal again
    with radio_work() as work:
        read_radio(net, jammers, 4, radio)
    assert work["reference_signal"].call_count == 24
    assert work["_noise"].call_count == work["_fooled"].call_count == 24
    assert_radio_matches_reference(net, jammers, 4, radio)


def test_a_patch_leaves_the_earlier_picture_as_it_was():
    net, jammers = patch_case()
    radio = RadioParams()
    before = sample_radio(net, jammers, 0, radio, Random(0))
    items, flagged = list(before.items()), before.flagged
    assert 6 in flagged
    assert net.drain_energy(6, 10.0)  # a flagged node dies
    after = sample_radio(net, jammers, 1, radio, Random(0))
    assert after is not before
    assert 6 not in after and 6 not in after.flagged
    assert list(before.items()) == items
    assert before.flagged is flagged


def test_two_deaths_around_a_shared_neighbor_match_the_reference():
    net, jammers = patch_case()
    radio = RadioParams()
    picture = assert_radio_matches_reference(net, jammers, 0, radio)
    assert 0 not in picture.flagged
    # 1 and 5 die between samples, both next to 0 and 6: 0's nearest
    # neighbor is now 6, on the diagonal, and the weaker signal is jammed
    assert net.drain_energy(1, 10.0) and net.drain_energy(5, 10.0)
    picture = assert_radio_matches_reference(net, jammers, 1, radio)
    assert 0 in picture.flagged
    # 6 and 10 die, both next to 11: 0 is left with no link
    assert net.drain_energy(6, 10.0) and net.drain_energy(10, 10.0)
    picture = assert_radio_matches_reference(net, jammers, 2, radio)
    assert 0 not in picture and 11 in picture
    assert 11 not in deceptive_victims(net, jammers, 2, radio)
    # 12 and 16 die: 11 hears only diagonals now, and the fakes drown that
    assert net.drain_energy(12, 10.0) and net.drain_energy(16, 10.0)
    assert_radio_matches_reference(net, jammers, 3, radio)
    assert 11 in deceptive_victims(net, jammers, 3, radio)


def test_the_radio_memo_does_not_grow_with_jammer_positions():
    """However many jammer positions a network is sampled under, it keeps
    one hearing set, one picture and one victim set, and every value still
    equals the reference's."""
    net, _ = patch_case()
    radio = RadioParams()
    for k in range(60):
        spot = (k % 7 * 0.7 - 0.5, k // 7 * 0.55 - 0.5)
        jammers = [
            Jammer(JammerKind.CONSTANT, spot, power=0.15),
            Jammer(JammerKind.DECEPTIVE, spot[::-1], power=0.3),
        ]
        assert_radio_matches_reference(net, jammers, k, radio)
        i = k % len(net.nodes)
        assert noise_at(net, jammers, i, k, radio, Random(0)) == ref.noise_at(
            net, jammers, i, k, radio, Random(0)
        )
    assert set(net._radio_memo) == {"hearing", "samples", "victims"}
