"""Geometric model of the sensor field: nodes, radio links, energy bookkeeping."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Iterable, KeysView, Mapping, Sequence

Position = tuple[float, float]

# (position, initial energy, radio range)
NodeSpec = tuple[Position, float, float]

# Ceiling on directed links per network, checked as the build adds them: a
# mean degree of 20 at the 100,000-node ceiling. The node ceiling alone does
# not bound links, since a range covering the field links every pair.
MAX_LINKS = 2_000_000


def euclidean_distance(a: Position, b: Position) -> float:
    """Distance between two points in the plane."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class Node:
    """One radio node; the network's pe_id names the processing element."""

    id: int
    position: Position
    energy: float
    radio_range: float
    alive: bool = True

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"node {self.id}: non-finite position")
        if not self.energy >= 0:
            raise ValueError(f"node {self.id}: negative energy")
        if not self.radio_range > 0:
            raise ValueError(f"node {self.id}: radio range must be positive")


class Network:
    """Sensor field with symmetric links between mutually in-range nodes.

    A link (i, j) exists iff distance(i, j) <= min(range_i, range_j), so link
    existence is mutual. Each directed link is one key of `distance`, because
    pheromone and link metrics attach per direction; `links` is a live view of
    those keys. Dead nodes keep their Node record but lose every incident
    link, which removes them from all neighborhoods.

    Positions never move after the build, so radio geometry is cached per
    network: each node's nearest-live-neighbor distance (dropped around a
    node when it dies) and the jammer-to-node path-gain rows that jammers.py
    keeps in `_gain_rows` (never stale, since only positions enter them).
    jammers.py also keeps its last radio picture in `_radio_memo`, keyed in
    part on the link count, which stands for the link set since links are
    only ever removed. A pickled or copied network carries that picture.
    """

    def __init__(self, nodes: Iterable[Node], pe_id: int):
        self.nodes: dict[int, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node
        if len(self.nodes) < 2:
            raise ValueError("a network needs at least two nodes")
        if pe_id not in self.nodes:
            raise ValueError(f"unknown processing element id {pe_id}")
        self.pe_id = pe_id
        self.distance: dict[tuple[int, int], float] = {}
        self._adjacency: dict[int, set[int]] = {i: set() for i in self.nodes}
        self._nearest: dict[int, float | None] = {}
        self._gain_rows: dict[tuple[Position, float, float], dict[int, float]] = {}
        self._radio_memo: dict[str, tuple[tuple, object]] = {}
        self._build_links()

    def _build_links(self) -> None:
        """Link every mutually in-range pair, in ascending (a, b) order.

        A node is compared with the higher ids in its own cell and the 8
        around it (see _cells), and one of infinite range also with every
        higher id of infinite range, which it always links to, so MAX_LINKS
        bounds that work. Coincident nodes share a cell, so the first pair
        found at distance 0 is the smallest such pair overall.
        """
        ids = sorted(self.nodes)
        unbounded = [i for i in ids if self.nodes[i].radio_range == math.inf]
        cell_of, stride = _cells(self.nodes)
        around = [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        members: dict[int, list[int]] = {}
        for i in ids:
            members.setdefault(cell_of[i], []).append(i)
        for a in ids:
            na = self.nodes[a]
            cell = cell_of[a]
            nearby = [b for d in around for b in members.get(cell + d, ()) if b > a]
            if na.radio_range == math.inf:
                nearby = set(nearby).union(b for b in unbounded if b > a)
            for b in sorted(nearby):
                nb = self.nodes[b]
                d = euclidean_distance(na.position, nb.position)
                if d == 0.0:
                    raise ValueError(
                        f"nodes {a} and {b} share coordinates {na.position}"
                    )
                if d <= min(na.radio_range, nb.radio_range):
                    self._add_link(a, b, d)

    @property
    def links(self) -> KeysView[tuple[int, int]]:
        """Every directed link (i, j), as a live view of the keys of `distance`."""
        return self.distance.keys()

    def _add_link(self, a: int, b: int, d: float) -> None:
        if len(self.distance) + 2 > MAX_LINKS:
            raise ValueError(
                f"network exceeds {MAX_LINKS} directed links; "
                "shrink the radio range or the node count"
            )
        self.distance[(a, b)] = d
        self.distance[(b, a)] = d
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def node(self, i: int) -> Node:
        try:
            return self.nodes[i]
        except KeyError:
            raise ValueError(f"unknown node id {i}") from None

    def neighbors(self, i: int) -> set[int]:
        """Live nodes sharing a link with i (empty for dead or isolated nodes)."""
        self.node(i)
        return set(self._adjacency[i])

    def nearest_distance(self, i: int) -> float | None:
        """Distance from i to its nearest live neighbor; None without one."""
        try:
            return self._nearest[i]
        except KeyError:
            pass
        self.node(i)
        d = min((self.distance[(i, j)] for j in self._adjacency[i]), default=None)
        self._nearest[i] = d
        return d

    def alive_ids(self) -> list[int]:
        return sorted(i for i, n in self.nodes.items() if n.alive)

    def drain_energy(self, i: int, amount: float) -> bool:
        """Subtract energy from node i, flooring at zero; True if this killed it.

        A node that reaches zero energy dies: its links are removed in both
        directions and it stops appearing in any neighborhood. Draining a
        dead node changes nothing.
        """
        if amount < 0:
            raise ValueError("drain amount must be >= 0")
        node = self.node(i)
        if not node.alive:
            return False
        node.energy = max(0.0, node.energy - amount)
        if node.energy != 0.0:
            return False
        self._kill(i)
        return True

    def _kill(self, i: int) -> None:
        node = self.nodes[i]
        node.alive = False
        self._nearest.pop(i, None)
        for j in list(self._adjacency[i]):
            self._nearest.pop(j, None)
            del self.distance[(i, j)], self.distance[(j, i)]
            self._adjacency[j].discard(i)
        self._adjacency[i].clear()


def _cells(nodes: Mapping[int, Node]) -> tuple[dict[int, int], int]:
    """Cell of each node, numbered x band * stride + y band, and the stride.

    Along each axis, in coordinate order, a band opens at the first
    coordinate more than `size` (the largest finite range) past the start of
    the current band. Float subtraction is monotone, so nodes two or more
    bands apart differ by more than `size` as computed, like the band start
    between them, so only two infinite ranges link them, at any coordinates.
    """
    finite = [n.radio_range for n in nodes.values() if n.radio_range < math.inf]
    size = max(finite, default=0.0)
    bands: list[dict[int, int]] = []
    for axis in (0, 1):
        coord = {i: n.position[axis] for i, n in nodes.items()}
        band: dict[int, int] = {}
        k, start = -1, -math.inf
        for i in sorted(coord, key=coord.__getitem__):
            if coord[i] - start > size:
                k, start = k + 1, coord[i]
            band[i] = k
        bands.append(band)
    x_band, y_band = bands
    stride = k + 2  # y bands 0..k and one free slot, so y ± 1 never wraps
    return {i: x_band[i] * stride + y_band[i] for i in nodes}, stride


def build_network(node_specs: Sequence[NodeSpec], pe_index: int) -> Network:
    """Build a network from (position, energy, range) triples.

    pe_index selects the processing element by position in the list; node ids
    are assigned 0..n-1 in list order.
    """
    nodes = [
        Node(i, (float(pos[0]), float(pos[1])), float(energy), float(radio_range))
        for i, (pos, energy, radio_range) in enumerate(node_specs)
    ]
    return Network(nodes, pe_index)


def hop_counts(net: Network, target: int, blocked: frozenset[int] = frozenset()) -> dict[int, int]:
    """Breadth-first hop distance to target over live links.

    Nodes in `blocked` are impassable and excluded. Unreachable nodes are
    absent from the result. The target maps to 0 unless itself blocked.
    """
    net.node(target)
    if target in blocked or not net.nodes[target].alive:
        return {}
    hops = {target: 0}
    queue = deque([target])
    while queue:
        cur = queue.popleft()
        for nxt in net._adjacency[cur]:
            if nxt in hops or nxt in blocked:
                continue
            hops[nxt] = hops[cur] + 1
            queue.append(nxt)
    return hops


def grid_network(
    rows: int,
    cols: int,
    spacing: float,
    radio_range: float,
    energy: float,
    pe_index: int = 0,
) -> Network:
    """Regular rows x cols grid, node id r*cols + c at (c*spacing, r*spacing)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two nodes")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    specs: list[NodeSpec] = []
    for r in range(rows):
        for c in range(cols):
            specs.append(((c * spacing, r * spacing), energy, radio_range))
    return build_network(specs, pe_index)


def random_geometric_network(
    count: int,
    width: float,
    height: float,
    radio_range: float,
    energy: float,
    rng: Random,
    pe_index: int = 0,
    connected: bool = False,
    max_tries: int = 200,
) -> Network:
    """Uniform random placement over a width x height rectangle.

    With connected=True, placement is redrawn until every node can reach the
    processing element; ValueError after max_tries attempts. Two nodes drawn
    at one point raise ValueError from build_network.
    """
    if count < 2:
        raise ValueError("need at least two nodes")
    if width <= 0 or height <= 0:
        raise ValueError("area dimensions must be positive")
    for _ in range(max_tries):
        positions = [
            (rng.uniform(0.0, width), rng.uniform(0.0, height))
            for _ in range(count)
        ]
        net = build_network(
            [(p, energy, radio_range) for p in positions], pe_index
        )
        if not connected or len(hop_counts(net, net.pe_id)) == count:
            return net
    raise ValueError(
        f"no connected placement found in {max_tries} tries; "
        "grow radio_range or shrink the area"
    )
