"""Link quality factors and tour scoring.

Every factor lives in [0, 1] and the quality of a link is their plain
product, so one dead factor kills the link. Factors come from observable
state: hop progress toward the processing element, residual energy, a
bit-error proxy that mirrors the signal-to-noise ratio, that ratio itself,
and rolling delivery/loss counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .jammers import RadioSample, signal_to_noise_ratio
from .network import Network, hop_counts


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
    product = 1.0
    for q in sorted(values):
        product *= q
    return product ** (1.0 / len(values))


@dataclass
class LinkCounters:
    """Rolling transmission bookkeeping for one directed link."""

    attempts: int = 0
    delivered: int = 0
    lost: int = 0


@dataclass(frozen=True)
class MetricTotals:
    """Budgets the raw observations normalize against."""

    hops: float
    energy: float
    snr: float = 10.0

    def __post_init__(self) -> None:
        if self.hops <= 0 or self.energy <= 0 or self.snr <= 0:
            raise ValueError("metric totals must be positive")

    @classmethod
    def for_network(cls, net: Network, snr: float = 10.0) -> "MetricTotals":
        # A simple path uses at most n-1 hops, so a budget of n keeps every
        # reachable hop count strictly above zero after normalizing.
        return cls(
            hops=float(len(net.nodes)),
            energy=max(n.energy for n in net.nodes.values()),
            snr=snr,
        )


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

    hj = hops_to_pe.get(j)
    if hj is None or hj >= totals.hops:
        hop = 0.0
    else:
        hop = normalize_metric(float(hj), totals.hops)

    residual = min(net.node(j).energy, totals.energy)
    energy = normalize_metric(totals.energy - residual, totals.energy)

    if i in flagged or j in flagged:
        snr_factor = 0.0
    else:
        sample = samples.get(j)
        snr = signal_to_noise_ratio(sample) if sample is not None else 0.0
        snr_factor = normalize_metric(totals.snr - min(snr, totals.snr), totals.snr)

    counter = counters.get((i, j)) if counters is not None else None
    if counter is None or counter.attempts == 0:
        delivery = 1.0
        loss = 1.0
    else:
        delivery = normalize_metric(
            float(counter.attempts - counter.delivered), float(counter.attempts)
        )
        loss = normalize_metric(float(counter.lost), float(counter.attempts))

    return LinkMetrics(hop, energy, snr_factor, snr_factor, delivery, loss)


def build_link_metrics(
    net: Network,
    samples: Mapping[int, RadioSample],
    counters: Mapping[tuple[int, int], LinkCounters] | None = None,
    totals: MetricTotals | None = None,
    flagged: frozenset[int] = frozenset(),
) -> dict[tuple[int, int], LinkMetrics]:
    """Measure every directed link, in ascending (i, j) order.

    Apart from its counter, a link (i, j) reads its source only through
    `i in flagged`, so links without a counter share one measurement per
    (j, i in flagged); links with a counter are measured on their own. One
    hop-count sweep serves the whole table.
    """
    if totals is None:
        totals = MetricTotals.for_network(net)
    hops = hop_counts(net, net.pe_id, blocked=flagged)
    own = counters or {}
    shared: dict[tuple[int, bool], LinkMetrics] = {}
    table: dict[tuple[int, int], LinkMetrics] = {}

    def measure(i: int, j: int) -> LinkMetrics:
        return measure_link(net, samples, i, j, counters, totals, flagged, hops)

    for i in sorted(net.nodes):
        i_flagged = i in flagged
        for j in sorted(net.neighbors(i)):
            if (i, j) in own:
                m = measure(i, j)
            else:
                m = shared.get((j, i_flagged))
                if m is None:
                    m = shared[(j, i_flagged)] = measure(i, j)
            table[(i, j)] = m
    return table


def quality_from_metrics(
    table: Mapping[tuple[int, int], LinkMetrics],
) -> dict[tuple[int, int], float]:
    """Quality of every link in the table, in the table's order."""
    return {link: link_quality(m) for link, m in table.items()}
