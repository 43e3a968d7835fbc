"""Discrete-time scenario engine: traffic, attacks, detection, rerouting.

Each step runs in a fixed order: reactive jammers sense last step's
transmissions, the radio picture is sampled, jammed flags update (debounced),
deceptive victims pay receive energy, in-flight packets advance one hop, and
sources emit new packets. detect_and_reroute runs after the step whenever
rerouting is enabled: routes crossing a node flagged now but not at the last
reroute, or dead since then, are re-searched from their source to the
processing element over the current link quality table, and sources without a
path suspend until the picture changes.

Determinism contract: every random draw comes from streams derived from the
run seed, so identical (config, seed) pairs replay identically, including
serialized reports byte for byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from random import Random
from typing import Mapping

from .ants import run_search
from .config import (
    ScenarioConfig,
    build_jammers,
    build_scenario_network,
    resolve_sources,
    resolve_totals,
)
from .jammers import (
    JammerKind,
    RadioSample,
    deceptive_victims,
    jammed_from_samples,
    sample_radio,
)
from .metrics import (
    LinkCounters,
    build_link_metrics,
    quality_from_metrics,
)
from .network import euclidean_distance

# step trace values per step: t, sent, delivered, dropped, in_flight, flagged
ROW = 6


@dataclass
class Packet:
    route: tuple[int, ...]  # snapshot of the route at send time; [0] is the source
    idx: int  # position within route
    sent_at: int


@dataclass(frozen=True)
class Event:
    step: int
    kind: str  # deliver | drop | flagged | cleared | death | reroute | suspend
    node: int | None = None
    source: int | None = None
    detail: str = ""


@dataclass
class SearchSummary:
    """One run_search invocation as recorded in the report."""

    step: int  # -1 for the initial route installation
    source: int
    found: bool
    best_score: float
    successes: int


@dataclass
class RunReport:
    """Outcome of one scenario run.

    The steps run, the packet totals and the jam counts are read off the step
    trace, which is held once, flat, ROW int64 values per step.
    """

    seed: int
    mean_delay: float
    reroutes: int
    energy_spent: dict[int, float]
    searches: list[SearchSummary]
    flat_trace: array

    # the totals are the last row's
    duration = property(lambda self: len(self.flat_trace) // ROW)
    sent = property(lambda self: self._last(1))
    delivered = property(lambda self: self._last(2))
    dropped = property(lambda self: self._last(3))
    in_flight = property(lambda self: self._last(4))

    def _last(self, column: int) -> int:
        return self.flat_trace[column - ROW] if self.flat_trace else 0

    @property
    def pdr(self) -> float:
        sent = self.sent
        return self.delivered / sent if sent else 1.0

    @property
    def jammed_per_step(self) -> list[int]:
        return self.flat_trace[ROW - 1 :: ROW].tolist()

    @property
    def jammed_peak(self) -> int:
        return max(self.flat_trace[ROW - 1 :: ROW], default=0)

    @property
    def trace(self) -> list[list[int]]:
        """Per step: [t, sent, delivered, dropped, in_flight, flagged]."""
        flat = self.flat_trace
        return [flat[i : i + ROW].tolist() for i in range(0, len(flat), ROW)]


@dataclass
class ScenarioState:
    routes: dict[int, tuple[int, ...] | None] = field(default_factory=dict)
    packets: list[Packet] = field(default_factory=list)
    flags: set[int] = field(default_factory=set)
    routed_flags: set[int] = field(default_factory=set)  # as of the last reroute
    streaks: dict[int, int] = field(default_factory=dict)
    newly_dead: set[int] = field(default_factory=set)  # since the last reroute
    unreported_dead: set[int] = field(default_factory=set)  # since the last step
    last_transmitters: set[int] = field(default_factory=set)
    last_samples: Mapping[int, RadioSample] = field(default_factory=dict)
    emit_acc: dict[int, float] = field(default_factory=dict)
    counters: dict[tuple[int, int], LinkCounters] = field(default_factory=dict)
    delay_sum: int = 0
    reroutes: int = 0
    trace: array = field(default_factory=lambda: array("q"))  # ROW values per step
    searches: list[SearchSummary] = field(default_factory=list)

    time = property(lambda self: len(self.trace) // ROW)  # the steps run


class Simulation:
    """One seeded scenario run. Build, then call run(), or drive step() directly."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.seed = seed
        self.net = build_scenario_network(config, seed)
        self.jammers = build_jammers(config)
        self.radio = config.radio
        self.totals = resolve_totals(config, self.net)
        sources = resolve_sources(config, self.net)
        self.jam_rng = Random(f"{seed}/jammers")
        self.state = ScenarioState()
        self.state.routes = {src: None for src in sources}
        self.state.emit_acc = {src: 0.0 for src in sources}
        self._initial_energy = {i: n.energy for i, n in self.net.nodes.items()}
        # clean network: jammers have not emitted yet
        self.state.last_samples = sample_radio(self.net, [], 0, self.radio, Random(0))
        self._route(sorted(self.state.routes))

    # ----- internals -------------------------------------------------

    def _drain(self, node_id: int, amount: float) -> None:
        if amount > 0.0 and self.net.drain_energy(node_id, amount):
            self.state.newly_dead.add(node_id)
            self.state.unreported_dead.add(node_id)

    def _route(self, sources: list[int]) -> list[Event]:
        """Search each source's route to the PE, in order, over one quality table.

        A source dead when its turn comes (an earlier search's ants may have
        drained it) gets no search, nor does any source while the PE is dead
        (a deceptive jammer's fake traffic can drain it). The table is built
        at the first search, so a batch that searches nothing builds none.
        The batch's searches share one dict of candidate rows, built from the
        table and started anew whenever a node dies: links are only ever
        removed, so the link count stands for the link set.
        """
        st = self.state
        net = self.net
        step = st.time - 1  # -1 for the initial installation
        quality = rows = None
        rows_links = -1  # the link count the rows were built over
        events: list[Event] = []
        for src in sources:
            old = st.routes[src]
            st.routes[src] = None
            if not net.node(src).alive:
                continue
            best = None
            if net.node(net.pe_id).alive:
                if quality is None:
                    quality = quality_from_metrics(build_link_metrics(
                        net, st.last_samples, counters=st.counters,
                        totals=self.totals, flagged=frozenset(st.flags),
                    ))
                if len(net.links) != rows_links:
                    rows, rows_links = {}, len(net.links)
                rng = Random(f"{self.seed}/search/{len(st.searches)}")
                # rows by position: a wrapper of run_search may take no keywords
                result = run_search(
                    net, src, net.pe_id, self.config.search, rng, quality, rows
                )
                for node_id, hops in sorted(result.transmit_counts.items()):
                    self._drain(node_id, hops * self.config.ant_energy_cost)
                best = result.best
                st.searches.append(SearchSummary(
                    step=step, source=src, found=result.found,
                    best_score=best.score if best else 0.0,
                    successes=sum(s.successes for s in result.stats),
                ))
            if best is not None:
                if best.path != old:
                    events.append(Event(step, "reroute", source=src,
                                        detail=f"{len(best.path) - 1} hops"))
                st.routes[src] = best.path
            elif old is not None:
                events.append(Event(step, "suspend", source=src,
                                    detail="no live path to the processing element"))
        return events

    # ----- per-step phases, in README's "Simulation step order" --------

    def step(self) -> list[Event]:
        """Advance the scenario one time step; returns this step's events."""
        st = self.state
        t = st.time
        events: list[Event] = []
        self._sense()
        flags = self._flag(t, events)
        self._drain_victims(t)
        delivered, dropped = self._advance(t, flags, events)
        sent = self._emit(t, flags)
        before = st.trace[1 - ROW : 4 - ROW] if st.trace else (0, 0, 0)
        st.trace.extend((t, before[0] + sent, before[1] + delivered,
                         before[2] + dropped, len(st.packets), len(flags)))
        for i in sorted(st.unreported_dead):
            events.append(Event(t, "death", node=i))
        st.unreported_dead = set()
        return events

    def _sense(self) -> None:
        """Reactive jammers hear last step's transmissions (one-step latency)."""
        nodes = self.net.nodes
        for jammer in self.jammers:
            if jammer.kind is JammerKind.REACTIVE:
                jammer.triggered = any(
                    euclidean_distance(jammer.position, nodes[i].position)
                    <= jammer.sense_range
                    for i in self.state.last_transmitters
                )

    def _flag(self, t: int, events: list[Event]) -> set[int]:
        """The radio picture, and jam flags debounced over it; returns the flags."""
        st = self.state
        st.last_samples = sample_radio(self.net, self.jammers, t, self.radio, self.jam_rng)
        jammed = jammed_from_samples(st.last_samples)
        st.streaks = {i: st.streaks.get(i, 0) + 1 for i in jammed}
        flags = {i for i, n in st.streaks.items() if n >= self.radio.debounce}
        for i in sorted(flags - st.flags):
            events.append(Event(t, "flagged", node=i))
        for i in sorted(st.flags - flags):
            events.append(Event(t, "cleared", node=i))
        st.flags = flags
        return flags

    def _drain_victims(self, t: int) -> None:
        """Deceptive jammers keep their victims busy receiving fake packets."""
        cost = self.config.rx_energy_cost
        if cost > 0.0:
            for victim in sorted(deceptive_victims(self.net, self.jammers, t, self.radio)):
                self._drain(victim, cost)

    def _advance(self, t: int, flags: set[int], events: list[Event]) -> tuple[int, int]:
        """In-flight packets advance one hop; returns (delivered, dropped). One
        whose next hop is flagged or dead is dropped unsent: its link counts the
        attempt, and its holder spends no energy and is not heard."""
        st = self.state
        nodes = self.net.nodes
        counters = st.counters
        transmitters: set[int] = set()
        kept: list[Packet] = []
        delivered = dropped = 0
        for pkt in st.packets:
            cur = pkt.route[pkt.idx]
            nxt = pkt.route[pkt.idx + 1]
            lost = cur if cur in flags or not nodes[cur].alive else None
            if lost is None:
                counter = counters.get((cur, nxt))
                if counter is None:
                    counter = counters[(cur, nxt)] = LinkCounters()
                counter.attempts += 1
                if nxt in flags or not nodes[nxt].alive:
                    lost = nxt
            if lost is not None:
                dropped += 1
                where = "holder" if lost == cur else "next hop"
                events.append(Event(t, "drop", node=lost, source=pkt.route[0],
                                    detail=f"{where} jammed or dead"))
                continue
            counter.delivered += 1
            transmitters.add(cur)
            self._drain(cur, self.config.packet_energy_cost)
            pkt.idx += 1
            if pkt.idx == len(pkt.route) - 1:
                delivered += 1
                st.delay_sum += t - pkt.sent_at
                events.append(Event(t, "deliver", node=nxt, source=pkt.route[0]))
            else:
                kept.append(pkt)
        st.packets = kept
        st.last_transmitters = transmitters
        return delivered, dropped

    def _emit(self, t: int, flags: set[int]) -> int:
        """Sources emit onto their installed routes; returns the packets sent."""
        st = self.state
        sent = 0
        for src, route in sorted(st.routes.items()):
            if route is None or src in flags or not self.net.nodes[src].alive:
                continue
            acc = st.emit_acc[src] + self.config.rate
            while acc >= 1.0:
                acc -= 1.0
                st.packets.append(Packet(route, 0, t))
                sent += 1
            st.emit_acc[src] = acc
        return sent

    def detect_and_reroute(self) -> list[Event]:
        """Re-search routes crossing a node flagged now but not at the last call,
        or dead since then; suspend sources left without a path."""
        st = self.state
        newly_flagged = st.flags - st.routed_flags
        cleared = st.routed_flags - st.flags
        st.routed_flags = st.flags
        deaths = set(st.newly_dead)
        st.newly_dead = set()
        changed = bool(newly_flagged or cleared or deaths)

        needs: list[int] = []
        for src in sorted(st.routes):
            route = st.routes[src]
            if route is None:
                if changed:
                    needs.append(src)
            elif set(route) & (newly_flagged | deaths):
                needs.append(src)
            elif cleared and self.config.restore_routes:
                needs.append(src)
        if not needs:
            return []

        events = self._route(needs)
        st.reroutes += sum(e.kind == "reroute" for e in events)
        return events

    # ----- whole-run driver ------------------------------------------

    def run(self) -> RunReport:
        for _ in range(self.config.duration):
            self.step()
            if self.config.reroute:
                self.detect_and_reroute()
        return self.report()

    def report(self) -> RunReport:
        st = self.state
        delivered = st.trace[2 - ROW] if st.trace else 0
        mean_delay = st.delay_sum / delivered if delivered else 0.0
        energy_spent = {
            i: self._initial_energy[i] - self.net.nodes[i].energy
            for i in sorted(self.net.nodes)
        }
        return RunReport(
            seed=self.seed,
            mean_delay=mean_delay,
            reroutes=st.reroutes,
            energy_spent=energy_spent,
            searches=list(st.searches),
            flat_trace=st.trace[:],  # a copy, so later steps leave it as it is
        )


def run_scenario(config: ScenarioConfig, seed: int) -> RunReport:
    """Build and run one seeded scenario end to end."""
    return Simulation(config, seed).run()
