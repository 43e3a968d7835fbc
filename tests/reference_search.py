"""The dict-based route search the package shipped first, kept as a reference.

These functions are the original per-hop implementation: every ant step
looks up pheromone, quality and distance per candidate in dicts, and every
round decays every directed link. The package's run_search reads the same
values through lazily built candidate rows and a sparse pheromone table;
tests/test_search_equivalence.py checks that both give equal results.

The only change from the original is the explorer fallback: when rounding
leaves the roulette draw past the cumulative sum, the last candidate with
positive probability is returned, not the last candidate.
"""

from __future__ import annotations

import math
from random import Random
from typing import Mapping, Sequence

from antjam.ants import (
    Ant,
    Colony,
    DeadEnd,
    IterationStats,
    PheromoneTable,
    SearchParams,
    SearchResult,
    _mean_sensitivity,
    adapt_sensitivity,
    init_colonies,
)
from antjam.metrics import TourRecord, tour_quality
from antjam.network import Network


def _weight(
    node: int,
    u: int,
    pheromone: Mapping[tuple[int, int], float] | PheromoneTable,
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> float:
    base = pheromone[(node, u)] * quality[(node, u)]
    if base == 0.0:
        # a dead link must never attract probability, even with alpha == 0
        return 0.0
    return base**params.alpha * (1.0 / distance[(node, u)]) ** params.beta


def transition_probabilities(
    node: int,
    candidates: Sequence[int],
    pheromone: Mapping[tuple[int, int], float] | PheromoneTable,
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> dict[int, float]:
    """Normalized next-hop probabilities over the candidate neighbors.

    Weight of candidate u is (pheromone * quality)^alpha * (1/distance)^beta.
    Raises DeadEnd when every weight is zero.
    """
    weights = {
        u: _weight(node, u, pheromone, quality, distance, params)
        for u in sorted(candidates)
    }
    total = sum(weights.values())
    if total <= 0.0:
        raise DeadEnd(f"no live candidate out of node {node}")
    return {u: w / total for u, w in weights.items()}


def choose_next_explorer(probabilities: Mapping[int, float], rng: Random) -> int:
    """Roulette-wheel draw from a normalized probability table."""
    if not probabilities:
        raise DeadEnd("empty probability table")
    total = sum(probabilities.values())
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"probabilities sum to {total}, not 1")
    r = rng.random()
    acc = 0.0
    last = None
    for u, p in probabilities.items():
        acc += p
        last = u if p > 0.0 else last
        if r < acc:
            return u
    return last  # guard against the sum rounding just under 1.0


def choose_next_exploiter(
    node: int,
    candidates: Sequence[int],
    pheromone: Mapping[tuple[int, int], float] | PheromoneTable,
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> int:
    """Greedy next hop: the best-weighted candidate, lowest id on ties."""
    best_u = None
    best_w = 0.0
    for u in sorted(candidates):
        w = _weight(node, u, pheromone, quality, distance, params)
        if w > best_w:
            best_u, best_w = u, w
    if best_u is None:
        raise DeadEnd(f"no live candidate out of node {node}")
    return best_u


def construct_tour(
    ant: Ant,
    source: int,
    dest: int,
    net: Network,
    pheromone: PheromoneTable,
    quality: Mapping[tuple[int, int], float],
    params: SearchParams,
    rng: Random,
) -> TourRecord | None:
    """Walk one ant from source toward dest, never revisiting a node.

    Returns the finished TourRecord, or None when the ant dead-ends (a normal
    outcome). The ant keeps its partial tour and tabu list either way; the
    tabu list records each visited node with its energy at visit time.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    for endpoint in (source, dest):
        if not net.node(endpoint).alive:
            raise ValueError(f"node {endpoint} is dead")
    ant.distance = 0.0
    ant.tour = [source]
    ant.tabu = [(source, net.node(source).energy)]
    visited = {source}
    current = source
    while current != dest:
        candidates = [
            u
            for u in net.neighbors(current)
            if u not in visited and quality.get((current, u), 0.0) > 0.0
        ]
        if not candidates:
            return None
        try:
            if ant.colony is Colony.EXPLORER:
                probs = transition_probabilities(
                    current, candidates, pheromone, quality, net.distance, params
                )
                nxt = choose_next_explorer(probs, rng)
            else:
                nxt = choose_next_exploiter(
                    current, candidates, pheromone, quality, net.distance, params
                )
        except DeadEnd:
            return None
        ant.tour.append(nxt)
        ant.tabu.append((nxt, net.node(nxt).energy))
        ant.distance += net.distance[(current, nxt)]
        visited.add(nxt)
        current = nxt
    return TourRecord(tuple(ant.tour), ant.distance, tour_quality(ant.tour, quality))


def global_pheromone_update(
    pheromone: PheromoneTable, tours: Sequence[TourRecord], params: SearchParams
) -> PheromoneTable:
    """One batch pheromone round: every link decays, successful tours deposit.

    Each tour adds q / (distance * quality) to every directed link it used.
    """
    for link in pheromone:
        pheromone[link] *= params.rho
    for tour in tours:
        if tour.distance <= 0.0 or tour.quality <= 0.0:
            raise ValueError("tour with non-positive distance or quality")
        deposit = params.q / (tour.distance * tour.quality)
        for link in zip(tour.path, tour.path[1:]):
            if link not in pheromone:
                raise KeyError(f"tour uses unknown link {link}")
            pheromone[link] += deposit
    return pheromone


def run_search(
    net: Network,
    source: int,
    dest: int,
    params: SearchParams,
    rng: Random,
    quality: Mapping[tuple[int, int], float] | None = None,
) -> SearchResult:
    """Run the full two-colony search and return the best tour found.

    quality=None scores every live link at 1.0. Pheromone starts uniform at
    phi0 and is updated in one batch per iteration from that iteration's
    successful tours. The best tour by quality/distance across all iterations
    is returned; None when every ant failed every round (dest unreachable is
    data, not an error).
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    for endpoint in (source, dest):
        if not net.node(endpoint).alive:
            raise ValueError(f"node {endpoint} is dead")
    if quality is None:
        quality = {link: 1.0 for link in net.links}

    pheromone = PheromoneTable.uniform(net, params.phi0)
    ants = init_colonies(params, rng)
    token = rng.getrandbits(64)
    best: TourRecord | None = None
    best_score = 0.0
    transmit_counts: dict[int, int] = {}
    stats: list[IterationStats] = []

    for iteration in range(params.iterations):
        # construction phase; each ant on its own substream
        outcomes: list[tuple[Ant, TourRecord | None]] = []
        for ant in ants:
            sub = Random(f"{token}:{iteration}:{ant.id}")
            record = construct_tour(
                ant, source, dest, net, pheromone, quality, params, sub
            )
            outcomes.append((ant, record))
            for hop_from in ant.tour[:-1]:
                transmit_counts[hop_from] = transmit_counts.get(hop_from, 0) + 1

        # serial fold in ant-id order: adaptation, then best-tour tracking
        succeeded: list[TourRecord] = []
        scores: list[float] = []
        for ant, record in outcomes:
            if record is None:
                adapt_sensitivity(ant, False, 0.0, best_score, params)
                continue
            score = record.score
            adapt_sensitivity(ant, True, score, best_score, params)
            if best is None or score > best_score:
                best, best_score = record, score
            succeeded.append(record)
            scores.append(score)

        global_pheromone_update(pheromone, succeeded, params)
        stats.append(
            IterationStats(
                iteration=iteration,
                best_score=max(scores) if scores else 0.0,
                mean_score=sum(scores) / len(scores) if scores else 0.0,
                successes=len(succeeded),
                mean_sensitivity_explorer=_mean_sensitivity(ants, Colony.EXPLORER),
                mean_sensitivity_exploiter=_mean_sensitivity(ants, Colony.EXPLOITER),
            )
        )

    return SearchResult(best, pheromone, stats, transmit_counts)
