"""The per-link quality table the package shipped first, kept as a reference.

`build_link_metrics` here calls `measure_link` once for every directed link
and `quality_from_metrics` scores every link on its own, as the package's
does. The package measures one shared `LinkMetrics` per (destination,
flagged source); tests/test_metrics_equivalence.py checks that both give
equal tables.
"""

from __future__ import annotations

from typing import Mapping

from antjam.jammers import RadioSample
from antjam.metrics import (
    LinkCounters,
    LinkMetrics,
    MetricTotals,
    link_quality,
    measure_link,
)
from antjam.network import Network, hop_counts


def build_link_metrics(
    net: Network,
    samples: Mapping[int, RadioSample],
    counters: Mapping[tuple[int, int], LinkCounters] | None = None,
    totals: MetricTotals | None = None,
    flagged: frozenset[int] = frozenset(),
) -> dict[tuple[int, int], LinkMetrics]:
    """Measure every directed link once, sharing one hop-count sweep."""
    if totals is None:
        totals = MetricTotals.for_network(net)
    hops = hop_counts(net, net.pe_id, blocked=flagged)
    return {
        (i, j): measure_link(net, samples, i, j, counters, totals, flagged, hops)
        for (i, j) in sorted(net.links)
    }


def quality_from_metrics(
    table: Mapping[tuple[int, int], LinkMetrics],
) -> dict[tuple[int, int], float]:
    return {link: link_quality(m) for link, m in table.items()}
