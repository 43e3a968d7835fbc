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
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .jammers import RadioSample, signal_to_noise_ratio
from .network import Network, hop_counts

_V = TypeVar("_V")


def normalize_metric(actual: float, total: float) -> float:
    """Map a consumed amount against its budget onto [0, 1], 1 meaning untouched."""
    if not total > 0:
        raise ValueError("total must be positive")
    if not 0 <= actual <= total:
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
    """Rolling transmission bookkeeping for one directed link; every attempt
    not delivered was lost."""

    attempts: int = 0
    delivered: int = 0


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
    else:
        delivery = normalize_metric(
            float(counter.attempts - counter.delivered), float(counter.attempts)
        )

    return LinkMetrics(hop, energy, snr_factor, snr_factor, delivery, delivery)


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
    factor mirrors the SNR factor, and the loss factor the delivery factor,
    since an attempt not delivered is lost. Both are 1 while counters are empty.
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

    A link (i, j) in the given link set, read live, reads its own entry when
    it has one (a link with a counter), else j's flagged-source entry when i
    is flagged, else j's plain entry. Own entries are held per source, under
    i and then j. Iteration is in ascending (i, j) order.
    """

    __slots__ = ("_links", "_flagged", "_plain", "_blocked", "_own")

    def __init__(
        self,
        links: Mapping[tuple[int, int], object],
        flagged: frozenset[int],
        plain: dict[int, _V],
        blocked: dict[int, _V],
        own: dict[int, dict[int, _V]],
    ):
        self._links = links
        self._flagged = flagged
        self._plain = plain
        self._blocked = blocked
        self._own = own

    def row(self, i: int, ids: Iterable[int]) -> list[_V]:
        """The values of links (i, j) for j in ids, in order, each of which
        must be a live link: the rule is applied once for the whole row."""
        base = self._blocked if i in self._flagged else self._plain
        own = self._own.get(i)
        if own is None:
            return [base[j] for j in ids]
        return [own[j] if j in own else base[j] for j in ids]

    def get(self, link: object, default=None):
        if link not in self._links:
            return default
        i, j = link
        return self.row(i, (j,))[0]

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


def build_link_metrics(
    net: Network,
    samples: Mapping[int, RadioSample],
    counters: Mapping[tuple[int, int], LinkCounters] | None = None,
    totals: MetricTotals | None = None,
    flagged: frozenset[int] = frozenset(),
) -> LinkTable[LinkMetrics]:
    """Measure every directed link, over the live link set that the table keeps.

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
    own: dict[int, dict[int, LinkMetrics]] = {}
    for (i, j), counter in sorted((counters or {}).items()):
        if (i, j) in net.distance:
            own.setdefault(i, {})[j] = _measure(
                net, samples, j, i in flagged, counter, totals, flagged, hops
            )
    return LinkTable(net.distance, flagged, plain, blocked, own)


def quality_from_metrics(table: LinkTable[LinkMetrics]) -> LinkTable[float]:
    """Quality of every link in the table, scored once per entry, over the same
    links and flags."""
    return LinkTable(
        table._links,
        table._flagged,
        {j: link_quality(m) for j, m in table._plain.items()},
        {j: link_quality(m) for j, m in table._blocked.items()},
        {i: {j: link_quality(m) for j, m in row.items()}
         for i, row in table._own.items()},
    )
