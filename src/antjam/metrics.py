"""Link quality factors and tour scoring.

Every factor lives in [0, 1] and the quality of a link is their plain
product, so one dead factor kills the link. Factors come from observable
state: hop progress toward the processing element, residual energy, a
bit-error proxy that mirrors the signal-to-noise ratio, that ratio itself,
and rolling delivery/loss counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from .jammers import RadioSample, signal_to_noise_ratio
from .network import Network, hop_counts

_V = TypeVar("_V")
_W = TypeVar("_W")


def normalize_metric(actual: float, total: float) -> float:
    """Map a consumed amount against its budget onto [0, 1], 1 meaning untouched."""
    if total <= 0:
        raise ValueError("total must be positive")
    if actual < 0 or actual > total:
        raise ValueError(f"actual {actual} outside [0, {total}]")
    return (total - actual) / total


@dataclass(frozen=True)
class LinkMetrics:
    """The six factors measured for one directed link."""

    hop: float
    energy: float
    bit_error: float
    snr: float
    delivery: float
    loss: float

    def __post_init__(self) -> None:
        for name, value in (
            ("hop", self.hop),
            ("energy", self.energy),
            ("bit_error", self.bit_error),
            ("snr", self.snr),
            ("delivery", self.delivery),
            ("loss", self.loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} factor {value} outside [0, 1]")


def link_quality(m: LinkMetrics) -> float:
    """Product of the six factors."""
    return m.hop * m.energy * m.bit_error * m.snr * m.delivery * m.loss


@dataclass(frozen=True)
class TourRecord:
    """A completed source-to-destination walk with its length and quality."""

    path: tuple[int, ...]
    distance: float
    quality: float

    @property
    def score(self) -> float:
        return self.quality / self.distance


def tour_quality(path: Sequence[int], quality: Mapping[tuple[int, int], float]) -> float:
    """Geometric mean of link quality along a path.

    A zero-quality link makes the tour invalid and raises; callers must keep
    dead links out of tours rather than silently scoring them as zero. Factors
    multiply in sorted order so reversing the path cannot change the result.
    """
    if len(path) < 2:
        raise ValueError("a tour needs at least one link")
    values = []
    for a, b in zip(path, path[1:]):
        try:
            q = quality[(a, b)]
        except KeyError:
            raise ValueError(f"path uses unknown link ({a}, {b})") from None
        if q <= 0.0:
            raise ValueError(f"dead link ({a}, {b}) on tour")
        values.append(q)
    return geometric_mean(values)


def geometric_mean(values: list[float]) -> float:
    """The n-th root of the product of n values, multiplied in sorted order."""
    return math.prod(sorted(values)) ** (1.0 / len(values))


@dataclass
class LinkCounters:
    """Rolling transmission bookkeeping for one directed link."""

    attempts: int = 0
    delivered: int = 0
    lost: int = 0


@dataclass(frozen=True)
class MetricTotals:
    """Budgets the raw observations normalize against. Each is positive and
    finite, so the factors measured against them are in [0, 1]."""

    hops: float
    energy: float
    snr: float = 10.0

    def __post_init__(self) -> None:
        if not all(0 < total < math.inf for total in (self.hops, self.energy, self.snr)):
            raise ValueError("metric totals must be positive and finite")

    @classmethod
    def for_network(
        cls, net: Network, snr: float = 10.0,
        hops: float | None = None, energy: float | None = None,
    ) -> "MetricTotals":
        """The given budgets; unset, the hop budget is the node count and the
        energy budget the largest node energy, or 1.0 if every energy is 0."""
        # A simple path uses at most n-1 hops, so a budget of n keeps every
        # reachable hop count strictly above zero after normalizing.
        if hops is None:
            hops = float(len(net.nodes))
        if energy is None:
            energy = max(n.energy for n in net.nodes.values()) or 1.0
        return cls(hops, energy, snr)


def _measure(
    net: Network,
    samples: Mapping[int, RadioSample],
    j: int,
    source_flagged: bool,
    counter: LinkCounters | None,
    totals: MetricTotals,
    flagged: frozenset[int],
    hops_to_pe: Mapping[int, int],
) -> LinkMetrics:
    """The factors of a link into j, whose source is flagged or not, with the
    link's own counter or None."""
    hj = hops_to_pe.get(j)
    if hj is None or hj >= totals.hops:
        hop = 0.0
    else:
        hop = normalize_metric(float(hj), totals.hops)

    residual = min(net.node(j).energy, totals.energy)
    energy = normalize_metric(totals.energy - residual, totals.energy)

    if source_flagged or j in flagged:
        snr_factor = 0.0
    else:
        sample = samples.get(j)
        snr = signal_to_noise_ratio(sample) if sample is not None else 0.0
        snr_factor = normalize_metric(totals.snr - min(snr, totals.snr), totals.snr)

    if counter is None or counter.attempts == 0:
        delivery = 1.0
        loss = 1.0
    else:
        delivery = normalize_metric(
            float(counter.attempts - counter.delivered), float(counter.attempts)
        )
        loss = normalize_metric(float(counter.lost), float(counter.attempts))

    return LinkMetrics(hop, energy, snr_factor, snr_factor, delivery, loss)


def measure_link(
    net: Network,
    samples: Mapping[int, RadioSample],
    i: int,
    j: int,
    counters: Mapping[tuple[int, int], LinkCounters] | None = None,
    totals: MetricTotals | None = None,
    flagged: frozenset[int] = frozenset(),
    hops_to_pe: Mapping[int, int] | None = None,
) -> LinkMetrics:
    """Measure the six factors for directed link (i, j).

    The hop factor reflects how close j sits to the processing element over
    paths avoiding flagged nodes; unreachable means 0. A flagged endpoint
    clamps the SNR factor to 0, which kills the link outright. The bit-error
    factor mirrors the SNR factor. Delivery/loss default to 1 while counters
    are empty.
    """
    if (i, j) not in net.links:
        raise ValueError(f"no link between {i} and {j}")
    if totals is None:
        totals = MetricTotals.for_network(net)
    if hops_to_pe is None:
        hops_to_pe = hop_counts(net, net.pe_id, blocked=flagged)
    counter = counters.get((i, j)) if counters is not None else None
    return _measure(
        net, samples, j, i in flagged, counter, totals, flagged, hops_to_pe
    )


_MISSING = object()


class LinkTable(Mapping[tuple[int, int], _V]):
    """A read-only value per directed link, held per node.

    Link (i, j) reads its own entry when it has one (a link with a counter),
    else j's flagged-source entry when i is flagged, else j's plain entry.
    The link set is a snapshot taken with the entries, so a later death
    changes nothing the table answers. Iteration is in ascending (i, j)
    order.
    """

    __slots__ = ("_links", "_flagged", "_plain", "_blocked", "_own")

    def __init__(
        self,
        links: Mapping[tuple[int, int], object],
        flagged: frozenset[int],
        plain: dict[int, _V],
        blocked: dict[int, _V],
        own: dict[tuple[int, int], _V],
    ):
        self._links = links
        self._flagged = flagged
        self._plain = plain
        self._blocked = blocked
        self._own = own

    def get(self, link: object, default=None):
        value = self._own.get(link)
        if value is not None:
            return value
        if link not in self._links:
            return default
        i, j = link
        return (self._blocked if i in self._flagged else self._plain)[j]

    def __getitem__(self, link: tuple[int, int]) -> _V:
        value = self.get(link, _MISSING)
        if value is _MISSING:
            raise KeyError(link)
        return value

    def __contains__(self, link: object) -> bool:
        return link in self._links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._links))

    def map(self, fn: Callable[[_V], _W]) -> "LinkTable[_W]":
        """fn of every entry, over the same links and flags."""
        return LinkTable(
            self._links,
            self._flagged,
            {j: fn(v) for j, v in self._plain.items()},
            {j: fn(v) for j, v in self._blocked.items()},
            {link: fn(v) for link, v in self._own.items()},
        )


def build_link_metrics(
    net: Network,
    samples: Mapping[int, RadioSample],
    counters: Mapping[tuple[int, int], LinkCounters] | None = None,
    totals: MetricTotals | None = None,
    flagged: frozenset[int] = frozenset(),
) -> LinkTable[LinkMetrics]:
    """Measure every directed link, in ascending (i, j) order.

    Apart from its counter, a link (i, j) reads its source only through
    `i in flagged`. So the table measures each live node once as a
    destination, once more as the neighbour of a flagged node, and each
    link with a counter on its own, all against one hop-count sweep.

    Finite totals, energies and samples keep the hop, energy and SNR
    factors in [0, 1], so only a link's own counter can be invalid. Own
    entries are measured in ascending order, so the first bad counter
    raises at its link, as measuring link by link would.
    """
    if totals is None:
        totals = MetricTotals.for_network(net)
    flagged = frozenset(flagged)
    hops = hop_counts(net, net.pe_id, blocked=flagged)
    links = net.distance.copy()
    plain = {
        j: _measure(net, samples, j, False, None, totals, flagged, hops)
        for j, node in net.nodes.items()
        if node.alive
    }
    flagged_sources = (i for i in flagged if i in net.nodes)
    blocked = {
        j: _measure(net, samples, j, True, None, totals, flagged, hops)
        for j in set().union(*map(net.neighbors, flagged_sources))
    }
    own = {
        link: _measure(
            net, samples, link[1], link[0] in flagged, counter, totals, flagged, hops
        )
        for link, counter in sorted((counters or {}).items())
        if link in links
    }
    return LinkTable(links, flagged, plain, blocked, own)


def quality_from_metrics(table: LinkTable[LinkMetrics]) -> LinkTable[float]:
    """Quality of every link in the table, scored once per entry."""
    return table.map(link_quality)
