"""Geometric model of the sensor field: nodes, radio links, energy bookkeeping."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from random import Random
from typing import Any, Hashable, Iterable, Iterator, KeysView, Mapping, Sequence

Position = tuple[float, float]

# (position, initial energy, radio range)
NodeSpec = tuple[Position, float, float]

# Ceiling on directed links per network, checked as the build adds them: a
# mean degree of 20 at the 100,000-node ceiling. The node ceiling alone does
# not bound links, since a range covering the field links every pair.
MAX_LINKS = 2_000_000

# Attempt budget of a connected random placement: at most MAX_PLACEMENT_TRIES
# attempts, and at most MAX_PLACEMENT_DRAWS nodes drawn over all of them, so
# 200 attempts up to 5,000 nodes, shrinking to 10 at 100,000.
MAX_PLACEMENT_TRIES = 200
MAX_PLACEMENT_DRAWS = 1_000_000


# (sign, metadata name, test) of each bound a config field may declare
BOUNDS = ((">", "gt", operator.gt), (">=", "ge", operator.ge),
          ("<", "lt", operator.lt), ("<=", "le", operator.le))


def config_field(default: Any = MISSING, **metadata: Any) -> Any:
    """A dataclass field that declares its config key in its metadata: the
    bounds `gt`, `ge`, `lt` and `le`, and, where the document differs from
    the field, how config.py reads it (`key`, `kind`, `section`, `for_kind`,
    and `absent`, the value a document without the key gives, where the
    field cannot hold that default)."""
    return field(default=default, metadata=metadata)


def broken_bound(metadata: Mapping[str, Any], value: Any) -> str | None:
    """Why value breaks a bound declared in metadata: "must be one of
    <choices>" outside a `kind` that is a tuple of choices, else "must be
    <sign> <bound>" for the first bound it breaks (NaN breaks them all);
    None if none."""
    choices = metadata.get("kind")
    if isinstance(choices, tuple) and value not in choices:
        return f"must be one of {', '.join(choices)}"
    for sign, name, holds in BOUNDS:
        bound = metadata.get(name)
        if bound is not None and not holds(value, bound):
            return f"must be {sign} {bound}"
    return None


def check_bounds(obj: Any) -> None:
    """Raise ValueError naming the first field of dataclass obj, unless None,
    that breaks a bound or leaves the choices it declares; a config
    dataclass's __post_init__."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        reason = value is not None and broken_bound(f.metadata, value)
        if reason:
            raise ValueError(f"{f.name} {reason}, got {value}")


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
    existence is mutual. Dead nodes keep their Node record but lose every
    incident link, which removes them from all neighborhoods.

    Each node's neighbor row holds its live neighbor ids in ascending order,
    and their distances in the same order; the rows are the network's only
    store of links. A death takes the dead node out of its neighbors' rows
    and empties its own. The ant search builds its candidate rows from them,
    and the nearest-neighbor distance is a row's minimum. `distance` is a
    read-only view of the rows keyed per directed link, because pheromone
    and link metrics attach per direction, and `links` is a view of its
    keys. `_dropped_rows` records, in order and never shortened, the nodes
    whose rows a death changes: the dead node and its neighbors at the time.
    jammers.py keeps its radio caches in one store, `_radio_memo`: the
    path-gain row of each jammer position, and the last hearing set,
    picture and deceptive victims, keyed in part on the link count, which
    stands for the link set since links are only ever removed. Each of the
    last three notes the record's length when it is made, so a death
    patches it for the nodes recorded since instead of rebuilding it. A
    pickled or copied network carries the rows with their view, that store
    and the record.
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
        self._rows: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {}
        self.distance = LinkDistances(self._rows)
        self._dropped_rows: list[int] = []
        self._radio_memo: dict[Hashable, tuple[tuple, int, object]] = {}
        self._build_links()

    def _build_links(self) -> None:
        """Link every mutually in-range pair, in ascending (a, b) order.

        A node is compared with the higher ids in its own cell and the 8
        around it (see _cells), and one of infinite range also with every
        higher id of infinite range, which it always links to, so MAX_LINKS
        bounds that work. Coincident nodes share a cell, so the first pair
        found at distance 0 is the smallest such pair overall. Each node's
        row comes out sorted: lower neighbors first, then higher, each ascending.
        The rows are filled into `_rows` in place, which `distance` reads.
        """
        ids = sorted(self.nodes)
        position = {i: n.position for i, n in self.nodes.items()}
        reach = {i: n.radio_range for i, n in self.nodes.items()}
        unbounded = [i for i in ids if reach[i] == math.inf]
        cell_of, stride = _cells(self.nodes)
        around = [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        members: dict[int, list[int]] = {}
        for i in ids:
            members.setdefault(cell_of[i], []).append(i)
        count = 0
        found: dict[int, tuple[list[int], list[float]]] = {i: ([], []) for i in ids}
        for a in ids:
            pa, ra, (linked, linked_at) = position[a], reach[a], found[a]
            cell = cell_of[a]
            nearby = [b for d in around for b in members.get(cell + d, ()) if b > a]
            if ra == math.inf:
                nearby = set(nearby).union(b for b in unbounded if b > a)
            for b in sorted(nearby):
                d = euclidean_distance(pa, position[b])
                if d == 0.0:
                    raise ValueError(f"nodes {a} and {b} share coordinates {pa}")
                rb = reach[b]
                # a compare, not min(): this runs for every nearby pair
                if d <= (ra if ra < rb else rb):
                    count += 2
                    if count > MAX_LINKS:
                        raise ValueError(
                            f"network exceeds {MAX_LINKS} directed links; "
                            "shrink the radio range or the node count"
                        )
                    linked.append(b)
                    linked_at.append(d)
                    found[b][0].append(a)
                    found[b][1].append(d)
        self._rows.update((i, (tuple(ns), tuple(ds))) for i, (ns, ds) in found.items())
        self.distance._count = count

    @property
    def links(self) -> KeysView[tuple[int, int]]:
        """Every directed link (i, j), as a live view of the keys of `distance`."""
        return self.distance.keys()

    def node(self, i: int) -> Node:
        try:
            return self.nodes[i]
        except KeyError:
            raise ValueError(f"unknown node id {i}") from None

    def neighbors(self, i: int) -> set[int]:
        """Live nodes sharing a link with i (empty for dead or isolated nodes)."""
        return set(self.neighbor_row(i)[0])

    def neighbor_row(self, i: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(ids, distances) of i's live neighbors, ids ascending (empty for
        dead or isolated nodes)."""
        self.node(i)
        return self._rows[i]

    def nearest_distance(self, i: int) -> float | None:
        """Distance from i to its nearest live neighbor; None without one."""
        return min(self.neighbor_row(i)[1], default=None)

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
        node = self.nodes.get(i) or self.node(i)  # node() raises for an unknown id
        if not node.alive:
            return False
        # a compare, not max(): this runs for every drain of every step
        energy = node.energy - amount
        if energy > 0.0:
            node.energy = energy
            return False
        node.energy = 0.0
        self._kill(i)
        return True

    def _kill(self, i: int) -> None:
        self.nodes[i].alive = False
        linked = self._rows[i][0]
        self._rows[i] = ((), ())
        self._dropped_rows.append(i)
        self._dropped_rows.extend(linked)
        self.distance._count -= 2 * len(linked)
        for j in linked:
            ids, dists = self._rows[j]
            k = ids.index(i)
            self._rows[j] = (ids[:k] + ids[k + 1 :], dists[:k] + dists[k + 1 :])


class LinkDistances(Mapping[tuple[int, int], float]):
    """Read-only distance of each directed link (i, j), read from the
    network's neighbor rows, which it shares and never changes.

    A lookup finds j in i's ascending row by bisection. The length is a count
    that the link build sets and each death lowers. Iteration goes, for each
    node a ascending and each higher neighbor b ascending, (a, b) then
    (b, a): the order in which the link build finds them.
    """

    __slots__ = ("_rows", "_count")

    def __init__(self, rows: Mapping[int, tuple[tuple[int, ...], tuple[float, ...]]]):
        self._rows = rows
        self._count = 0

    def __getitem__(self, link: tuple[int, int]) -> float:
        try:
            i, j = link
            ids, dists = self._rows[i]
            k = bisect_left(ids, j)
        except (TypeError, ValueError, KeyError):  # not a link of this network
            raise KeyError(link) from None
        if k < len(ids) and ids[k] == j:
            return dists[k]
        raise KeyError(link)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for a, (ids, _) in self._rows.items():
            for b in ids[bisect_right(ids, a):]:
                yield a, b
                yield b, a


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
        for nxt in net._rows[cur][0]:
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
    max_tries: int | None = None,
) -> Network:
    """Uniform random placement over a width x height rectangle.

    With connected=True, placement is redrawn until every node can reach the
    processing element; ValueError after max_tries attempts, which default
    to placement_tries(count). Two nodes drawn at one point raise ValueError
    from build_network.
    """
    if count < 2:
        raise ValueError("need at least two nodes")
    if width <= 0 or height <= 0:
        raise ValueError("area dimensions must be positive")
    if max_tries is None:
        max_tries = placement_tries(count)
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
        f"no connected placement found in {max_tries} tries, the attempt "
        f"budget for {count} nodes; grow radio_range or shrink the area"
    )


def placement_tries(count: int) -> int:
    """Attempts a connected placement of count nodes gets: MAX_PLACEMENT_TRIES,
    or fewer where that many would draw over MAX_PLACEMENT_DRAWS nodes."""
    return max(1, min(MAX_PLACEMENT_TRIES, MAX_PLACEMENT_DRAWS // count))
