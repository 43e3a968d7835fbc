"""Jammer behaviors, radio noise aggregation, and the jammed-node predicate.

Four attacker kinds are modeled. A constant jammer emits every step once
started. A deceptive jammer emits the same way, but its emissions look like
well-formed packets, so nodes that hear it louder than their own traffic also
waste receive energy (see deceptive_victims). A random jammer alternates
seeded sleep/jam phases. A reactive jammer emits only when it heard channel
activity on the previous step.

The hearing set, the radio picture and the deceptive victims are kept on the
network (see _memo), each as a map built by one per-node judge: reference_signal,
_sample and _fooled. A changed radio value, emission or fake judges every live
node again. A death only patches them: the network records the nodes whose
neighbor rows each death drops, and the same judge runs again on just those.
A jammer's gain to a node is computed where the node is judged, from the
jammer's position, and noise is summed in jammer order.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from random import Random
from typing import Callable, Iterable, Iterator, TypeVar

from .network import Network, Position, check_bounds, config_field, euclidean_distance

_T = TypeVar("_T")
_V = TypeVar("_V")
# (power, position) of each emitting source, in jammer order
_Sources = tuple[tuple[float, Position], ...]


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
    if not distance >= 0:
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
) -> _Sources:
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


def _noise(radio: RadioParams, emitting: _Sources, node_position: Position) -> float:
    """The floor plus each emission times its gain to node_position, in order."""
    total, d0, gamma = radio.floor, radio.d0, radio.gamma
    for emitted, position in emitting:
        total += emitted * path_gain(euclidean_distance(position, node_position), d0, gamma)
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
    node_position = net.node(node_id).position  # raises before any emission
    return _noise(radio, _emissions(jammers, t, rng), node_position)


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
    nodes: Callable[[], Iterable[int]],
    judge: Callable[[int], _V | None],
    finish: Callable[[dict[int, _V]], _T],
) -> _T:
    """finish({node: judge(node)}), kept under `name` beside that map; a
    node judged None is left out.

    The key starts with the link count. An equal key returns the kept value
    and judges nothing. A key that differs only in the link count copies the
    kept map and judges again just the nodes the network recorded since it
    was kept (see Network._dropped_rows); any other key judges each node of
    nodes(). So a rebuild and a patch apply the same per-node judge.
    """
    hit = net._radio_memo.get(name)
    if hit is not None and hit[0] == key:
        return hit[3]
    dropped = net._dropped_rows
    if hit is not None and hit[0][1:] == key[1:]:
        judged, todo = dict(hit[2]), set(dropped[hit[1]:])
    else:
        judged, todo = {}, nodes()
    for i in todo:
        verdict = judge(i)
        if verdict is None:
            judged.pop(i, None)
        else:
            judged[i] = verdict
    value = finish(judged)
    net._radio_memo[name] = (key, len(dropped), judged, value)
    return value


def _hearing(net: Network, radio: RadioParams) -> tuple[tuple, dict[int, float]]:
    """(key, {node: reference signal}) of the live nodes that hear a neighbor,
    in ascending id order.

    Signals change only when a link goes or a radio value changes. Links are
    only ever removed, so the key is the link count and the radio values,
    and a node that left never hears again: the order holds through patches.
    """
    key = (len(net.distance), radio.floor, radio.tx_power, radio.d0, radio.gamma)
    return key, _memo(
        net, "hearing", key, net.alive_ids, partial(reference_signal, net, radio=radio), dict,
    )


def _drowned(sample: RadioSample) -> bool:
    """The flag rule: the node's reference reception is drowned out."""
    return is_jammed(signal_to_noise_ratio(sample))


class RadioPicture(Mapping[int, RadioSample]):
    """One step's samples, read-only, and `flagged`: the nodes they flag
    before debounce, worked out once when the picture is made."""

    __slots__ = ("_samples", "flagged")

    def __init__(self, samples: Mapping[int, RadioSample]):
        self._samples = samples
        self.flagged = frozenset(i for i, s in samples.items() if _drowned(s))

    def __getitem__(self, i: int) -> RadioSample:
        return self._samples[i]

    def get(self, i: int, default: RadioSample | None = None) -> RadioSample | None:
        return self._samples.get(i, default)

    def __iter__(self) -> Iterator[int]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


_NO_SAMPLES = RadioPicture({})


def _sample(
    net: Network, hearing: Mapping[int, float], radio: RadioParams, emitting: _Sources, i: int
) -> RadioSample | None:
    """Node i's reference signal and noise; None when it hears nobody."""
    signal = hearing.get(i)
    if signal is None:
        return None
    return RadioSample(signal, _noise(radio, emitting, net.nodes[i].position))


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
    link count gives a new picture, with just the nodes whose rows a death
    dropped since the kept one was made sampled again (see _memo).
    """
    base, hearing = _hearing(net, radio)
    if not hearing:
        return _NO_SAMPLES
    emissions = _emissions(jammers, t, rng)
    return _memo(
        net, "samples", (*base, emissions), hearing.keys,
        partial(_sample, net, hearing, radio, emissions), RadioPicture,
    )


def jammed_from_samples(samples: RadioPicture) -> frozenset[int]:
    """Nodes whose reference reception is drowned out this step (before
    debounce): the flags sample_radio's picture carries."""
    return samples.flagged


def _fooled(
    net: Network, hearing: Mapping[int, float], radio: RadioParams, fakes: _Sources, i: int
) -> bool | None:
    """True when some fake (power, position) reaches node i at its reference
    signal or louder; None when none does or the node hears nobody."""
    signal, node_position = hearing.get(i), net.nodes[i].position
    if signal is not None and any(
        power * path_gain(euclidean_distance(position, node_position), radio.d0, radio.gamma)
        >= signal for power, position in fakes
    ):
        return True
    return None


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
    return _memo(
        net, "victims", (*base, fakes), hearing.keys,
        partial(_fooled, net, hearing, radio, fakes), frozenset,
    )
