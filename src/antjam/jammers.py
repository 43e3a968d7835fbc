"""Jammer behaviors, radio noise aggregation, and the jammed-node predicate.

Four attacker kinds are modeled. A constant jammer emits every step once
started. A deceptive jammer emits the same way, but its emissions look like
well-formed packets, so nodes that hear it louder than their own traffic also
waste receive energy (see deceptive_victims). A random jammer alternates
seeded sleep/jam phases. A reactive jammer emits only when it heard channel
activity on the previous step.

The hearing set, the radio picture and the deceptive victims are kept on the
network (see _memo). A changed radio value, emission or fake rebuilds one for
every live node. A death only patches them: the network records the nodes
whose neighbor rows each death drops, and just those are looked at again.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Callable, Iterable, Iterator, TypeVar

from .network import Network, Position, check_bounds, config_field, euclidean_distance

_T = TypeVar("_T")


class JammerKind(Enum):
    CONSTANT = "constant"
    DECEPTIVE = "deceptive"
    RANDOM = "random"
    REACTIVE = "reactive"


@dataclass
class RadioParams:
    """Channel constants shared by every node and jammer in a scenario."""

    floor: float = config_field(1e-9, gt=0)  # ambient noise power, always present
    tx_power: float = config_field(0.1, gt=0, lt=math.inf)  # node transmit power
    d0: float = config_field(1.0, gt=0)  # path-gain reference distance
    gamma: float = config_field(2.0, ge=0)  # path-loss exponent
    debounce: int = config_field(1, ge=1)  # consecutive jammed steps before a node is flagged

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RadioSample:
    """Received signal and noise power at one node for one step. The signal
    is finite and the noise may overflow to inf, so the SNR is never NaN."""

    p_signal: float
    p_noise: float

    def __post_init__(self) -> None:
        if not 0 <= self.p_signal < math.inf:
            raise ValueError("signal power must be finite and >= 0")
        if not self.p_noise > 0:
            raise ValueError("noise power must be positive")


@dataclass
class Jammer:
    """One attacker. Sleep/jam cycle state belongs to the simulation loop.

    sleep_steps and jam_steps are inclusive integer ranges; a fixed duration is
    (k, k). The cycle starts sleeping at the `start` step. `triggered` is the
    reactive kind's one-step-delayed channel sense, set by the caller.
    """

    kind: JammerKind
    position: Position
    power: float
    sleep_steps: tuple[int, int] = (1, 1)
    jam_steps: tuple[int, int] = (1, 1)
    start: int = 0
    sense_range: float = math.inf
    triggered: bool = False
    _phase: str | None = field(default=None, repr=False, compare=False)
    _phase_end: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(math.isnan(c) for c in self.position):
            raise ValueError("jammer position must not be NaN")
        if not 0 < self.power < math.inf:
            raise ValueError("jammer power must be positive and finite")
        for name, rng_ in (("sleep_steps", self.sleep_steps), ("jam_steps", self.jam_steps)):
            lo, hi = rng_
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi")
        if self.start < 0:
            raise ValueError("start step must be >= 0")
        if not self.sense_range > 0:
            raise ValueError("sense_range must be positive")


def path_gain(distance: float, d0: float, gamma: float) -> float:
    """Power gain over distance: 1 inside the reference distance, (d0/d)^gamma beyond."""
    if distance < 0:
        raise ValueError("distance must be >= 0")
    if distance <= d0:
        return 1.0
    return (d0 / distance) ** gamma


def signal_to_noise_ratio(sample: RadioSample) -> float:
    return sample.p_signal / sample.p_noise


def is_jammed(snr: float) -> bool:
    """An attack is effective when the ratio drops strictly below 1."""
    return snr < 1.0


def jammer_emission(jammer: Jammer, t: int, channel_active: bool, rng: Random) -> float:
    """Emitted power of one jammer at step t.

    The random kind advances its sleep/jam cycle lazily up to t, drawing phase
    durations from rng. Calls must use non-decreasing t; repeated calls at the
    same t are idempotent, so per-node noise evaluation stays safe.
    """
    if t < jammer.start:
        return 0.0
    kind = jammer.kind
    if kind in (JammerKind.CONSTANT, JammerKind.DECEPTIVE):
        return jammer.power
    if kind is JammerKind.REACTIVE:
        return jammer.power if channel_active else 0.0
    # random kind
    if jammer._phase is None:
        jammer._phase = "sleep"
        jammer._phase_end = jammer.start + rng.randint(*jammer.sleep_steps)
    while t >= jammer._phase_end:
        if jammer._phase == "sleep":
            jammer._phase = "jam"
            jammer._phase_end += rng.randint(*jammer.jam_steps)
        else:
            jammer._phase = "sleep"
            jammer._phase_end += rng.randint(*jammer.sleep_steps)
    return jammer.power if jammer._phase == "jam" else 0.0


def _emissions(
    jammers: Iterable[Jammer],
    t: int,
    rng: Random,
) -> tuple[tuple[float, Position], ...]:
    """(emission, position) of every jammer emitting at step t, in jammer order.

    Each jammer's emission is evaluated exactly once, so the random kind's
    draws from a shared rng keep their order. A reactive jammer emits when its
    own `triggered` state is set.
    """
    out = []
    for jammer in jammers:
        emitted = jammer_emission(jammer, t, jammer.triggered, rng)
        if emitted > 0.0:
            out.append((emitted, jammer.position))
    return tuple(out)


def _rows(
    net: Network, radio: RadioParams, sources: Iterable[tuple[float, Position]]
) -> list[tuple[float, dict[int, float]]]:
    """Each (power, position) with the gain row from that position."""
    return [(power, _gain_row(net, position, radio)) for power, position in sources]


def _noise(floor: float, emitting: list[tuple[float, dict[int, float]]], i: int) -> float:
    total = floor
    for emitted, row in emitting:
        total += emitted * row[i]
    return total


def noise_at(
    net: Network,
    jammers: Iterable[Jammer],
    node_id: int,
    t: int,
    radio: RadioParams,
    rng: Random,
) -> float:
    """Total noise power at a node: floor plus every jammer's attenuated emission."""
    net.node(node_id)
    emissions = _emissions(jammers, t, rng)
    return _noise(radio.floor, _rows(net, radio, emissions), node_id)


def reference_signal(net: Network, node_id: int, radio: RadioParams) -> float | None:
    """Received power of a reference transmission from the nearest live neighbor.

    None when the node has no live neighbors (nothing to receive).
    """
    d = net.nearest_distance(node_id)
    if d is None:
        return None
    return radio.tx_power * path_gain(d, radio.d0, radio.gamma)


def _memo(
    net: Network,
    name: Hashable,
    key: tuple,
    build: Callable[[], _T],
    patch: Callable[[_T, set[int]], _T] | None = None,
) -> _T:
    """The value kept under `name` on the network if it was built under an
    equal key; otherwise build(), kept under `key`.

    A `patch`ed name's key starts with the link count. When only that count
    differs from the kept key, the value is patch(kept value, the nodes the
    network recorded since it was kept) instead of build().
    """
    hit = net._radio_memo.get(name)
    if hit is not None and hit[0] == key:
        return hit[2]
    dropped = net._dropped_rows
    if hit is not None and patch is not None and hit[0][1:] == key[1:]:
        value = patch(hit[2], set(dropped[hit[1]:]))
    else:
        value = build()
    net._radio_memo[name] = (key, len(dropped), value)
    return value


def _gain_row(net: Network, position: Position, radio: RadioParams) -> dict[int, float]:
    """Path gain from `position` to every node. Positions never move, so the
    row is kept per position and keyed only on d0 and gamma."""

    def build() -> dict[int, float]:
        return {
            i: path_gain(euclidean_distance(position, n.position), radio.d0, radio.gamma)
            for i, n in net.nodes.items()
        }

    return _memo(net, ("gain", position), (radio.d0, radio.gamma), build)


def _hearing(net: Network, radio: RadioParams) -> tuple[tuple, dict[int, float]]:
    """(key, {node: reference signal}) of the live nodes that hear a neighbor,
    in ascending id order.

    Signals change only when a link goes or a radio value changes. Links are
    only ever removed, so the key is the link count and the radio values.
    When only the link count has moved, the nodes whose rows a death dropped
    are looked at again: a node that died or lost its last neighbor leaves,
    and any other gets its signal recomputed in place. No node ever joins,
    so the order holds.
    """
    key = (len(net.distance), radio.floor, radio.tx_power, radio.d0, radio.gamma)

    def build() -> dict[int, float]:
        signals = ((i, reference_signal(net, i, radio)) for i in net.alive_ids())
        return {i: signal for i, signal in signals if signal is not None}

    def patch(hearing: dict[int, float], nodes: set[int]) -> dict[int, float]:
        for i in nodes:
            signal = reference_signal(net, i, radio)
            if signal is None:
                hearing.pop(i, None)
            else:
                hearing[i] = signal
        return hearing

    return key, _memo(net, "hearing", key, build, patch)


def _drowned(sample: RadioSample) -> bool:
    """The flag rule: the node's reference reception is drowned out."""
    return is_jammed(signal_to_noise_ratio(sample))


class RadioPicture(Mapping[int, RadioSample]):
    """One step's samples, read-only, and `flagged`: the nodes they flag
    before debounce, worked out once when the picture is made."""

    __slots__ = ("_samples", "flagged")

    def __init__(
        self, samples: Mapping[int, RadioSample], flagged: frozenset[int] | None = None
    ):
        self._samples = samples
        if flagged is None:
            flagged = frozenset(i for i, s in samples.items() if _drowned(s))
        self.flagged = flagged

    def _patched(self, hearing: Mapping[int, float], nodes: set[int]) -> RadioPicture:
        """A new picture where each of `nodes` outside `hearing` leaves and
        any other takes its signal from `hearing` and keeps its noise, which
        is the same float under equal emissions; only their flags are worked
        out again. This picture is left as it is."""
        samples = dict(self._samples)
        for i in nodes:
            signal = hearing.get(i)
            if signal is None:
                samples.pop(i, None)
            else:
                samples[i] = RadioSample(signal, samples[i].p_noise)
        return RadioPicture(samples, self.flagged.difference(nodes).union(
            i for i in nodes if i in samples and _drowned(samples[i])
        ))

    def __getitem__(self, i: int) -> RadioSample:
        return self._samples[i]

    def get(self, i: int, default: RadioSample | None = None) -> RadioSample | None:
        return self._samples.get(i, default)

    def __iter__(self) -> Iterator[int]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


_NO_SAMPLES = RadioPicture({})


def sample_radio(
    net: Network,
    jammers: Iterable[Jammer],
    t: int,
    radio: RadioParams,
    rng: Random,
) -> RadioPicture:
    """Per-node RadioSample for one step, for every live node that can hear a neighbor.

    Jammer emissions are evaluated once when some node is sampled, and not at
    all when none is. The picture is memoised on the network, keyed on its
    link count, the radio values and this step's (emission, position) pairs:
    an equal key returns the same picture. A key that differs only in the
    link count gives a patched copy, resampling just the nodes whose rows a
    death dropped since the kept picture was made (see _hearing).
    """
    base, hearing = _hearing(net, radio)
    if not hearing:
        return _NO_SAMPLES
    emissions = _emissions(jammers, t, rng)

    def build() -> RadioPicture:
        rows = _rows(net, radio, emissions)
        return RadioPicture({
            i: RadioSample(signal, _noise(radio.floor, rows, i))
            for i, signal in hearing.items()
        })

    return _memo(
        net, "samples", (*base, emissions), build,
        lambda picture, nodes: picture._patched(hearing, nodes),
    )


def jammed_from_samples(samples: RadioPicture) -> frozenset[int]:
    """Nodes whose reference reception is drowned out this step (before
    debounce): the flags sample_radio's picture carries."""
    return samples.flagged


def _fooled(fakes: list[tuple[float, dict[int, float]]], i: int, signal: float) -> bool:
    """Whether some fake (power, gain row) reaches node i at `signal` or louder."""
    return any(power * row[i] >= signal for power, row in fakes)


def deceptive_victims(
    net: Network,
    jammers: Iterable[Jammer],
    t: int,
    radio: RadioParams,
) -> frozenset[int]:
    """Nodes busy receiving a deceptive jammer's fake packets this step.

    A node is a victim when some deceptive jammer's received power reaches its
    reference signal power, i.e. the fake traffic wins the channel. An equal
    key returns the same set, and a key that differs only in the link count
    a new set with just the nodes whose rows a death dropped judged again.
    """
    fakes = tuple(
        (j.power, j.position)
        for j in jammers
        if j.kind is JammerKind.DECEPTIVE and t >= j.start
    )
    if not fakes:
        return frozenset()
    base, hearing = _hearing(net, radio)

    def build() -> frozenset[int]:
        rows = _rows(net, radio, fakes)
        return frozenset(i for i, signal in hearing.items() if _fooled(rows, i, signal))

    def patch(victims: frozenset[int], nodes: set[int]) -> frozenset[int]:
        rows = _rows(net, radio, fakes)
        return victims.difference(nodes).union(
            i for i in nodes if i in hearing and _fooled(rows, i, hearing[i])
        )

    return _memo(net, "victims", (*base, fakes), build, patch)
