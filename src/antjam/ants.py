"""Two-colony ant route search over the sensor network.

Each ant carries a sensitivity value in (0, 1) that fixes its colony and its
decision rule. Explorer ants (sensitivity below 0.5) pick the next hop by
roulette over pheromone-and-quality weights; exploiter ants (above 0.5) always
take the best-weighted candidate. Sensitivity adapts after every tour: toward
the colony's upper bound on a best-yet success, toward the lower bound on
failure, and never leaves the colony's open interval.

All randomness flows through the rng arguments. Within run_search each
explorer draws from its own substream derived from (search token, iteration,
ant id), so results do not depend on construction order; exploiters draw
nothing, so they get none.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Mapping, Sequence

from .metrics import LinkTable, TourRecord, geometric_mean
from .network import Network, check_bounds, config_field


class Colony(Enum):
    EXPLORER = "explorer"
    EXPLOITER = "exploiter"


# Open sensitivity intervals; ants never sit on a boundary.
COLONY_INTERVALS: dict[Colony, tuple[float, float]] = {
    Colony.EXPLORER: (0.0, 0.5),
    Colony.EXPLOITER: (0.5, 1.0),
}


class DeadEnd(Exception):
    """Every candidate weight is zero (or there is no candidate)."""


@dataclass
class Ant:
    id: int
    colony: Colony
    sensitivity: float

    def __post_init__(self) -> None:
        lo, hi = COLONY_INTERVALS[self.colony]
        if not lo < self.sensitivity < hi:
            raise ValueError(
                f"ant {self.id}: sensitivity {self.sensitivity} outside ({lo}, {hi})"
            )


# Ceiling on the ant tours one search walks: (n_explorers + n_exploiters)
# * iterations.
MAX_ANT_TOURS = 1_000_000


@dataclass
class SearchParams:
    """Knobs of the route search; defaults suit desk-scale networks."""

    q: float = config_field(1.0, ge=0, lt=math.inf)  # deposit scale
    rho: float = config_field(0.5, ge=0.0, le=1.0)  # pheromone retention per round
    alpha: float = config_field(1.0, ge=0, lt=math.inf)  # pheromone-and-quality exponent
    beta: float = config_field(1.0, ge=0, lt=math.inf)  # inverse-distance exponent
    n_explorers: int = config_field(10, ge=0)
    n_exploiters: int = config_field(10, ge=0)
    iterations: int = config_field(50, ge=1)
    phi0: float = config_field(1.0, gt=0, lt=math.inf)  # initial pheromone on every link
    psl_delta: float = config_field(0.1, ge=0.0, lt=1.0)  # sensitivity adaptation rate

    def __post_init__(self) -> None:
        check_bounds(self)
        ants = self.n_explorers + self.n_exploiters
        if ants < 1:
            raise ValueError("need at least one ant")
        if ants * self.iterations > MAX_ANT_TOURS:
            raise ValueError("(n_explorers + n_exploiters) * iterations must be "
                             f"<= {MAX_ANT_TOURS}, got {ants * self.iterations}")


class PheromoneTable(dict):
    """Pheromone per directed link.

    A link missing from the dict reads `untouched`, the one value shared by
    every link no tour has used; with untouched None such a read raises
    KeyError, so a table built over a fixed link set rejects other links.
    """

    untouched: float | None = None

    @classmethod
    def uniform(cls, net: Network, phi0: float) -> "PheromoneTable":
        if phi0 <= 0:
            raise ValueError("phi0 must be positive")
        return cls({link: phi0 for link in sorted(net.links)})

    def __missing__(self, link: tuple[int, int]) -> float:
        untouched = self.untouched
        if untouched is None:
            raise KeyError(f"unknown link {link}")
        return untouched


def _draw_sensitivity(rng: Random, lo: float, hi: float) -> float:
    # uniform() can land exactly on lo; redraw to honor the open interval
    while True:
        s = rng.uniform(lo, hi)
        if lo < s < hi:
            return s


def init_colonies(params: SearchParams, rng: Random) -> list[Ant]:
    """Create both colonies with sensitivities drawn inside their intervals.

    Explorers take ids 0..n_explorers-1, exploiters follow.
    """
    ants: list[Ant] = []
    lo, hi = COLONY_INTERVALS[Colony.EXPLORER]
    for i in range(params.n_explorers):
        ants.append(Ant(i, Colony.EXPLORER, _draw_sensitivity(rng, lo, hi)))
    lo, hi = COLONY_INTERVALS[Colony.EXPLOITER]
    for i in range(params.n_exploiters):
        ants.append(
            Ant(params.n_explorers + i, Colony.EXPLOITER, _draw_sensitivity(rng, lo, hi))
        )
    return ants


def _normalize(weights: Sequence[float]) -> list[float] | None:
    """weights / their sum, in order; None when the sum is not positive."""
    total = sum(weights)
    if total <= 0.0:
        return None
    return [w / total for w in weights]


def _argmax(weights: Sequence[float]) -> int | None:
    """Index of the largest positive weight, lowest index on ties."""
    best_k = None
    best_w = 0.0
    for k, w in enumerate(weights):
        if w > best_w:
            best_k, best_w = k, w
    return best_k


def _row_weights(
    node: int,
    ordered: Sequence[int],
    pheromone: Mapping[tuple[int, int], float],
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> Sequence[float]:
    """The weights of node's candidates in this order, by the walker's code."""
    links = [(node, u) for u in ordered]
    trail = PheromoneTable({link: pheromone[link] for link in links})
    walk = _Walk(None, node, None, None, trail, params)
    inv_d_beta = [(1.0 / distance[link]) ** params.beta for link in links]
    walk.rows[node] = (ordered, inv_d_beta, [quality[link] for link in links], ())
    return walk._weights(node)[1]


def transition_probabilities(
    node: int,
    candidates: Sequence[int],
    pheromone: Mapping[tuple[int, int], float],
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> dict[int, float]:
    """Normalized next-hop probabilities over the candidate neighbors.

    Weight of candidate u is (pheromone * quality)^alpha * (1/distance)^beta,
    0 when pheromone * quality is 0; each candidate link must be in all three
    mappings, and a repeated candidate counts once. Raises DeadEnd when every
    weight is zero.
    """
    ordered = sorted(set(candidates))
    probs = _normalize(_row_weights(node, ordered, pheromone, quality, distance, params))
    if probs is None:
        raise DeadEnd(f"no live candidate out of node {node}")
    return dict(zip(ordered, probs))


def choose_next_exploiter(
    node: int,
    candidates: Sequence[int],
    pheromone: Mapping[tuple[int, int], float],
    quality: Mapping[tuple[int, int], float],
    distance: Mapping[tuple[int, int], float],
    params: SearchParams,
) -> int:
    """Greedy next hop: the best-weighted candidate, lowest id on ties; each
    candidate link must be in all three mappings."""
    ordered = sorted(set(candidates))
    k = _argmax(_row_weights(node, ordered, pheromone, quality, distance, params))
    if k is None:
        raise DeadEnd(f"no live candidate out of node {node}")
    return ordered[k]


def _check_endpoints(net: Network, source: int, dest: int) -> None:
    if source == dest:
        raise ValueError("source and destination must differ")
    for endpoint in (source, dest):
        if not net.node(endpoint).alive:
            raise ValueError(f"node {endpoint} is dead")


_Row = tuple[Sequence[int], Sequence[float], Sequence[float], Sequence[float]]


class _Walk:
    """The one tour walker: ants from source to dest over rows built lazily.

    A node's row holds its live neighbors with quality > 0 in id order, with
    each link's (1/distance)^beta, quality and distance in tuples sized to
    fit; it is built when an ant first reaches the node, into `rows`, from
    the network's kept neighbor row, whose id and distance tuples it reuses
    when every quality is positive. A given rows dict may hold rows built
    earlier, so it must come from the same live link set, the same quality
    table and the same beta. Only successful tours deposit. `deposited`
    holds the nodes that owned an entry when the walker was made and the
    nodes of every successful tour since, so a node outside it owns no
    pheromone entry and reads untouched on every out-link. With alpha > 0
    the walk weighs such a node's row itself, from that one value with no
    per-link lookup, at every visit, and keeps nothing. Any other node's
    round weights swap in the transition weights under the current
    pheromone for (1/distance)^beta, on the first visit in a round, and hold
    for the rest of it: pheromone only changes between rounds. new_round
    drops them, and must follow every update. Both ways give the same bits.
    The public rule functions weigh their candidates with _weights; their
    trail holds every candidate link, so their node is in `deposited`.
    """

    def __init__(
        self,
        net: Network,
        source: int,
        dest: int,
        quality: Mapping[tuple[int, int], float],
        pheromone: PheromoneTable,
        params: SearchParams,
        rows: dict[int, _Row] | None = None,
    ):
        self.net = net
        self.source, self.dest = source, dest
        self.quality = quality
        self.pheromone = pheromone
        self.alpha, self.beta = params.alpha, params.beta
        self.rows: dict[int, _Row] = {} if rows is None else rows
        self.weights: dict[int, _Row] = {}
        # every node that owns a pheromone entry, and maybe more; entries are
        # never removed
        self.deposited: set[int] = {i for i, _ in pheromone}
        # the first exploiter's walk this round: path and record
        self.greedy: tuple[tuple[int, ...], TourRecord | None] | None = None

    def new_round(self) -> None:
        self.weights = {}
        self.greedy = None

    def _row(self, node: int) -> _Row:
        ids, dists = self.net.neighbor_row(node)
        quality, beta = self.quality, self.beta
        if isinstance(quality, LinkTable):  # one read of the node's entries
            quals = tuple(quality.row(node, ids))
        else:
            quals = tuple([quality.get((node, u), 0.0) for u in ids])
        if not all(q > 0.0 for q in quals):  # drop the links of quality <= 0
            keep = [k for k, q in enumerate(quals) if q > 0.0]
            ids = tuple([ids[k] for k in keep])
            quals = tuple([quals[k] for k in keep])
            dists = tuple([dists[k] for k in keep])
        inv_d_beta = tuple([(1.0 / d) ** beta for d in dists])
        self.rows[node] = row = (ids, inv_d_beta, quals, dists)
        return row

    def _weights(self, node: int) -> _Row:
        ids, inv_d_beta, quals, dists = self.rows.get(node) or self._row(node)
        untouched, alpha = self.pheromone.untouched, self.alpha
        # the transition rule, with (1/distance)^beta taken from the row; with
        # alpha 0 only the guard weighs a zero base 0.0, since 0.0 ** 0 is 1.
        # dict.get with the untouched value, not the Python-level __missing__
        pheromone_of = self.pheromone.get
        weights = [
            base**alpha * d
            if (base := pheromone_of((node, u), untouched) * q)
            else 0.0
            for u, q, d in zip(ids, quals, inv_d_beta)
        ]
        self.weights[node] = entry = (ids, weights, quals, dists)
        return entry

    def tour(
        self, ant: Ant, rng: Random | None
    ) -> tuple[tuple[int, ...], TourRecord | None]:
        """Walk one ant from source toward dest, never revisiting a node.

        Returns the path walked and its TourRecord. On a dead end the path
        stops where the ant got stuck and the record is None. Only an
        explorer reads rng; an exploiter may pass None.
        """
        if ant.colony is Colony.EXPLORER:
            return self._walk(rng, explorer=True)
        # An exploiter's walk reads neither its rng nor its sensitivity, so
        # every exploiter in a round walks the first one's tour.
        if self.greedy is None:
            self.greedy = self._walk(rng, explorer=False)
        return self.greedy

    def _walk(
        self, rng: Random | None, explorer: bool
    ) -> tuple[tuple[int, ...], TourRecord | None]:
        source, dest = self.source, self.dest
        round_weights, new_weights = self.weights, self._weights
        rows, new_row, deposited = self.rows, self._row, self.deposited
        untouched, alpha = self.pheromone.untouched, self.alpha
        inf = math.inf
        tour, visited = [source], {source}
        walked, quals_walked = 0.0, []
        current = source
        while current != dest:
            # A visited candidate weighs zero: it adds nothing to any sum and
            # can be neither drawn nor the argmax, as if it were left out.
            entry = round_weights.get(current)
            if entry is None and alpha and current not in deposited:
                # every out-link reads untouched; with alpha > 0 a zero base
                # already weighs 0.0, as the guard in _weights would give
                ids, inv_d_beta, quals, dists = rows.get(current) or new_row(current)
                open_weights = [
                    0.0 if u in visited else (untouched * q) ** alpha * d
                    for u, q, d in zip(ids, quals, inv_d_beta)
                ]
            else:
                ids, weights, quals, dists = entry or new_weights(current)
                open_weights = [0.0 if u in visited else w for u, w in zip(ids, weights)]
            if not explorer:
                k = _argmax(open_weights)
            elif (total := sum(open_weights)) <= 0.0:
                k = None
            elif total < inf:
                # Roulette: the first index whose running sum of w / total
                # exceeds the draw. If the sum rounds to just under it, the last
                # index with a positive quotient wins, never a zero one.
                r, acc = rng.random(), 0.0
                for k, w in enumerate(open_weights):
                    acc += w / total
                    if r < acc:
                        break
                else:
                    for k in range(k, -1, -1):
                        if open_weights[k] / total > 0.0:
                            break
            else:  # the total overflowed: no quotients can sum to 1
                raise ValueError(
                    f"probabilities sum to {sum(w / total for w in open_weights)}, not 1"
                )
            if k is None:
                return tuple(tour), None
            nxt = ids[k]
            tour.append(nxt)
            quals_walked.append(quals[k])
            walked += dists[k]
            visited.add(nxt)
            current = nxt
        path = tuple(tour)
        # the round's update deposits on every successful tour, so from then
        # on its nodes may own pheromone entries
        self.deposited.update(path)
        return path, TourRecord(path, walked, geometric_mean(quals_walked))


def global_pheromone_update(
    pheromone: PheromoneTable, tours: Sequence[TourRecord], params: SearchParams
) -> PheromoneTable:
    """One batch pheromone round: every link decays, successful tours deposit.

    The shared untouched value decays with the links held in the table. Each
    tour adds q / (distance * quality) to every directed link it used.
    """
    rho = params.rho
    for link, value in pheromone.items():
        pheromone[link] = value * rho
    if pheromone.untouched is not None:
        pheromone.untouched *= rho
    for tour in tours:
        if tour.distance <= 0.0 or tour.quality <= 0.0:
            raise ValueError("tour with non-positive distance or quality")
        deposit = params.q / (tour.distance * tour.quality)
        for link in zip(tour.path, tour.path[1:]):
            pheromone[link] += deposit
    return pheromone


def adapt_sensitivity(
    ant: Ant, succeeded: bool, score: float, best_score: float, params: SearchParams
) -> float:
    """Move an ant's sensitivity after a tour.

    A success at least as good as the best seen so far pulls it toward the
    colony's upper bound; a failure pulls it toward the lower bound; any other
    outcome leaves it unchanged. The value stays strictly inside the open
    interval even when rounding would land on a boundary.
    """
    lo, hi = COLONY_INTERVALS[ant.colony]
    s = ant.sensitivity
    if succeeded and score >= best_score:
        s = s + params.psl_delta * (hi - s)
    elif not succeeded:
        s = s - params.psl_delta * (s - lo)
    s = min(max(s, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    ant.sensitivity = s
    return s


@dataclass(frozen=True)
class IterationStats:
    """Per-round search telemetry."""

    iteration: int
    best_score: float
    mean_score: float
    successes: int
    mean_sensitivity_explorer: float
    mean_sensitivity_exploiter: float


@dataclass
class SearchResult:
    best: TourRecord | None
    pheromone: PheromoneTable
    stats: list[IterationStats]
    # per-node count of hops transmitted by ants, for energy accounting
    transmit_counts: Counter[int]

    @property
    def found(self) -> bool:
        return self.best is not None

    def stats_csv(self) -> str:
        lines = [
            "iteration,best_score,mean_score,successes,"
            "mean_sensitivity_explorer,mean_sensitivity_exploiter"
        ]
        for s in self.stats:
            lines.append(
                f"{s.iteration},{s.best_score:.6g},{s.mean_score:.6g},{s.successes},"
                f"{s.mean_sensitivity_explorer:.6g},{s.mean_sensitivity_exploiter:.6g}"
            )
        return "\n".join(lines) + "\n"


def _mean_sensitivity(ants: Sequence[Ant], colony: Colony) -> float:
    values = [a.sensitivity for a in ants if a.colony is colony]
    return sum(values) / len(values) if values else 0.0


def run_search(
    net: Network,
    source: int,
    dest: int,
    params: SearchParams,
    rng: Random,
    quality: Mapping[tuple[int, int], float] | None = None,
    rows: dict[int, _Row] | None = None,
) -> SearchResult:
    """Run the full two-colony search and return the best tour found.

    quality=None scores every live link at 1.0. Pheromone starts uniform at
    phi0 and is updated in one batch per iteration from that iteration's
    successful tours. The best tour by quality/distance across all iterations
    is returned; None when every ant failed every round (dest unreachable is
    data, not an error). The returned pheromone holds the links tours used;
    every other link reads its shared untouched value.

    net and quality must not change while the search runs: each node's
    candidate row is read from them once, when an ant first reaches it, into
    rows. rows=None starts an empty dict. A caller's dict lets the searches
    of one batch share their rows, so it must come from the same live link
    set, the same quality and the same params.beta as the rows it holds.
    """
    _check_endpoints(net, source, dest)
    if quality is None:
        quality = {link: 1.0 for link in net.links}

    pheromone = PheromoneTable()
    pheromone.untouched = params.phi0
    walk = _Walk(net, source, dest, quality, pheromone, params, rows)
    ants = init_colonies(params, rng)
    token = rng.getrandbits(64)
    best: TourRecord | None = None
    best_score = 0.0
    transmit_counts: Counter[int] = Counter()
    stats: list[IterationStats] = []

    for iteration in range(params.iterations):
        # One pass in ant-id order, each explorer on its own substream: walk, then
        # adapt and track the best. Sensitivity enters no weight and pheromone
        # changes only in the batch update, so no walk sees another's fold.
        walk.new_round()
        succeeded: list[TourRecord] = []
        for ant in ants:
            # only an explorer draws; an exploiter's substream would go unread
            explorer = ant.colony is Colony.EXPLORER
            rng = Random(f"{token}:{iteration}:{ant.id}") if explorer else None
            path, record = walk.tour(ant, rng)
            transmit_counts.update(path[:-1])
            if record is None:
                adapt_sensitivity(ant, False, 0.0, best_score, params)
                continue
            score = record.score
            adapt_sensitivity(ant, True, score, best_score, params)
            if best is None or score > best_score:
                best, best_score = record, score
            succeeded.append(record)

        global_pheromone_update(pheromone, succeeded, params)
        scores = [record.score for record in succeeded]
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
