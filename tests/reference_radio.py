"""The radio layer and link build the package shipped first, kept as a reference.

These functions are the original implementations: the link build compares
every pair of nodes, and every radio query recomputes each node's nearest
live neighbor, each jammer's emission and each jammer-to-node path gain.
The package builds links on a cell grid and caches the static geometry;
tests/test_radio_equivalence.py checks that both give equal results.

The link loop is lifted out of `Network.__init__` into `reference_links`;
its body is unchanged.
"""

from __future__ import annotations

from random import Random
from typing import Iterable

from antjam.jammers import (
    Jammer,
    JammerKind,
    RadioParams,
    RadioSample,
    jammer_emission,
    path_gain,
)
from antjam.network import Network, Node, euclidean_distance


def reference_links(
    nodes: dict[int, Node],
) -> tuple[set[tuple[int, int]], dict[tuple[int, int], float], dict[int, set[int]]]:
    """(links, distance, adjacency) as the pairwise build produced them."""
    links: set[tuple[int, int]] = set()
    distance: dict[tuple[int, int], float] = {}
    adjacency: dict[int, set[int]] = {i: set() for i in nodes}

    def _add_link(a: int, b: int, d: float) -> None:
        links.add((a, b))
        links.add((b, a))
        distance[(a, b)] = d
        distance[(b, a)] = d
        adjacency[a].add(b)
        adjacency[b].add(a)

    ids = sorted(nodes)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1 :]:
            na, nb = nodes[a], nodes[b]
            d = euclidean_distance(na.position, nb.position)
            if d == 0.0:
                raise ValueError(
                    f"nodes {a} and {b} share coordinates {na.position}"
                )
            if d <= min(na.radio_range, nb.radio_range):
                _add_link(a, b, d)
    return links, distance, adjacency


def noise_at(
    net: Network,
    jammers: Iterable[Jammer],
    node_id: int,
    t: int,
    radio: RadioParams,
    rng: Random,
) -> float:
    """Total noise power at a node: floor plus every jammer's attenuated emission."""
    pos = net.node(node_id).position
    total = radio.floor
    for jammer in jammers:
        emitted = jammer_emission(jammer, t, jammer.triggered, rng)
        if emitted > 0.0:
            d = euclidean_distance(jammer.position, pos)
            total += emitted * path_gain(d, radio.d0, radio.gamma)
    return total


def reference_signal(net: Network, node_id: int, radio: RadioParams) -> float | None:
    """Received power of a reference transmission from the nearest live neighbor.

    None when the node has no live neighbors (nothing to receive).
    """
    nbrs = net.neighbors(node_id)
    if not nbrs:
        return None
    d = min(net.distance[(node_id, n)] for n in nbrs)
    return radio.tx_power * path_gain(d, radio.d0, radio.gamma)


def sample_radio(
    net: Network,
    jammers: Iterable[Jammer],
    t: int,
    radio: RadioParams,
    rng: Random,
) -> dict[int, RadioSample]:
    """Per-node RadioSample for one step, for every live node that can hear a neighbor."""
    jammers = list(jammers)
    samples: dict[int, RadioSample] = {}
    for i in net.alive_ids():
        signal = reference_signal(net, i, radio)
        if signal is None:
            continue
        noise = noise_at(net, jammers, i, t, radio, rng)
        samples[i] = RadioSample(signal, noise)
    return samples


def deceptive_victims(
    net: Network,
    jammers: Iterable[Jammer],
    t: int,
    radio: RadioParams,
) -> set[int]:
    """Nodes busy receiving a deceptive jammer's fake packets this step.

    A node is a victim when some deceptive jammer's received power reaches its
    reference signal power, i.e. the fake traffic wins the channel.
    """
    deceptive = [
        j for j in jammers if j.kind is JammerKind.DECEPTIVE and t >= j.start
    ]
    if not deceptive:
        return set()
    victims: set[int] = set()
    for i in net.alive_ids():
        signal = reference_signal(net, i, radio)
        if signal is None:
            continue
        pos = net.node(i).position
        for j in deceptive:
            d = euclidean_distance(j.position, pos)
            if j.power * path_gain(d, radio.d0, radio.gamma) >= signal:
                victims.add(i)
                break
    return victims
