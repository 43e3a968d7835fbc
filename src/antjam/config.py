"""Scenario configuration: a flat, sectioned key-value document.

Sections: [network], [radio], [metrics], [search], [traffic], [sim],
[output], and one [jammer.<label>] (or bare [jammer]) section per attacker.
Unknown sections and unknown keys are errors; every reported problem names
the offending key. The full key reference lives in the README.

Every key is declared once, as a `_Key` in a per-section table that both
`parse_config` and `format_config` walk; each default lives on its dataclass.
"""

from __future__ import annotations

import configparser
import math
import operator
from dataclasses import dataclass, field, replace
from random import Random

from .ants import SearchParams
from .jammers import Jammer, JammerKind, RadioParams
from .metrics import MetricTotals
from .network import (
    Network,
    build_network,
    grid_network,
    random_geometric_network,
)


# Ceilings on the sizes a document may ask for, checked while parsing so that
# no oversized scenario is ever built.
MAX_NODES = 100_000  # random `count`, grid `rows * cols`, explicit `nodes`
MAX_DURATION = 1_000_000  # traffic `duration`, in steps
MAX_RATE = 1_000  # traffic `rate`, in packets per source per step
MAX_ANT_TOURS = 1_000_000  # (n_explorers + n_exploiters) * iterations


class ConfigError(Exception):
    """Carries every (key, reason) problem found while parsing a config."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{key}: {reason}" for key, reason in errors))


@dataclass(frozen=True)
class ExplicitNetworkSpec:
    nodes: tuple[tuple[float, float, float, float], ...]  # x, y, energy, range
    pe: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class GridNetworkSpec:
    rows: int
    cols: int
    spacing: float
    radio_range: float
    energy: float = 1e6
    pe: int = 0

    @property
    def node_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class RandomNetworkSpec:
    count: int
    radio_range: float
    width: float = 100.0
    height: float = 100.0
    energy: float = 1e6
    pe: int = 0
    placement_seed: int | None = None
    connected: bool = True

    @property
    def node_count(self) -> int:
        return self.count


NetworkSpec = ExplicitNetworkSpec | GridNetworkSpec | RandomNetworkSpec


@dataclass(frozen=True)
class JammerSpec:
    kind: str
    x: float
    y: float
    power: float
    start: int = 0
    sleep: tuple[int, int] = (1, 1)
    jam: tuple[int, int] = (1, 1)
    sense_range: float = math.inf


@dataclass
class ScenarioConfig:
    network: NetworkSpec
    jammers: tuple[JammerSpec, ...] = ()
    radio: RadioParams = field(default_factory=RadioParams)
    search: SearchParams = field(default_factory=SearchParams)
    snr_total: float = 10.0
    total_hops: float | None = None
    energy_capacity: float | None = None
    sources: tuple[int, ...] | None = None  # None: lowest non-PE node id
    rate: float = 1.0
    duration: int = 100
    packet_energy_cost: float = 1.0
    ant_energy_cost: float = 1.0
    rx_energy_cost: float = 1.0
    reroute: bool = True
    restore_routes: bool = False
    output_format: str = "json"
    output_path: str | None = None


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a valid boolean (on/off): {text!r}")


def _steps(text: str) -> tuple[int, int]:
    """Inclusive integer range: either "k" or "a..b", both at least 1."""
    parts = text.split("..") if ".." in text else [text, text]
    try:
        lo_text, hi_text = parts  # "a..b..c" has too many parts
        lo, hi = int(lo_text, 10), int(hi_text, 10)
    except ValueError:
        raise ValueError(f"expected an integer or a..b range, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"range must satisfy 1 <= a <= b, got {text!r}")
    return (lo, hi)


def _line(text: str) -> str:
    """Text on one line; a value continued over lines would not be written
    back by format_config as one value."""
    if "\n" in text:
        raise ValueError(f"must be on one line, got {text!r}")
    return text


def _ints(text: str) -> tuple[int, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    out = []
    for item in items:
        try:
            out.append(int(item, 10))
        except ValueError:
            raise ValueError(f"not an integer: {item!r}") from None
    return tuple(out)


def _nodes(text: str) -> tuple[tuple[float, float, float, float], ...]:
    """Explicit layout: semicolon-separated x,y,energy,range entries."""
    entries = [e.strip() for e in text.replace("\n", " ").split(";") if e.strip()]
    if len(entries) < 2:
        raise ValueError("need at least two nodes")
    if len(entries) > MAX_NODES:
        raise ValueError(f"at most {MAX_NODES} nodes, got {len(entries)}")
    quads = []
    for idx, entry in enumerate(entries):
        parts = [p.strip() for p in entry.split(",")]
        if len(parts) != 4:
            raise ValueError(f"entry {idx}: expected x,y,energy,range")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            values = [math.nan]
        if any(math.isnan(v) for v in values):
            raise ValueError(f"entry {idx}: non-numeric field in {entry!r}")
        x, y, energy, radio_range = values
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"entry {idx}: coordinates must be finite")
        if energy <= 0:
            raise ValueError(f"entry {idx}: energy must be positive")
        if not math.isfinite(energy):
            raise ValueError(f"entry {idx}: energy must be finite")
        if radio_range <= 0:
            raise ValueError(f"entry {idx}: range must be positive")
        quads.append((x, y, energy, radio_range))
    return tuple(quads)


# how each structured kind is written back; str() of a float parses back exactly
_WRITERS = {
    _boolean: lambda v: "on" if v else "off",
    _steps: lambda v: f"{v[0]}..{v[1]}",
    _ints: lambda v: ", ".join(str(i) for i in v),
    _nodes: lambda v: "; ".join(f"{x!r},{y!r},{e!r},{r!r}" for x, y, e, r in v),
}
_BOUNDS = ((">", "gt", operator.gt), (">=", "ge", operator.ge),
           ("<", "lt", operator.lt), ("<=", "le", operator.le))


@dataclass(frozen=True)
class _Key:
    """One config key: how its text is read and checked, and the dataclass
    field it fills; a missing or invalid key leaves the field's default."""

    name: str
    kind: object  # float, int, a tuple of choices, or a text -> value function
    required: bool = False
    gt: float | None = None  # bounds: the value must be > gt, >= ge, < lt, <= le
    ge: float | None = None
    lt: float | None = None
    le: float | None = None
    target: str | None = None  # the dataclass field, when it is not `name`

    @property
    def attr(self) -> str:
        return self.target or self.name

    def convert(self, text: str) -> object:
        """The value of this key's text; raises ValueError naming the problem."""
        if isinstance(self.kind, tuple):
            if text not in self.kind:
                raise ValueError(f"must be one of {', '.join(self.kind)}; got {text!r}")
            return text
        if self.kind is not float and self.kind is not int:
            return self.kind(text)
        try:
            value = float(text) if self.kind is float else int(text, 10)
        except ValueError:
            value = math.nan
        if math.isnan(value):  # "nan" parses as a float but is not a number
            name = "number" if self.kind is float else "integer"
            raise ValueError(f"not a valid {name}: {text!r}")
        for sign, attr, holds in _BOUNDS:
            bound = getattr(self, attr)
            if bound is not None and not holds(value, bound):
                raise ValueError(f"must be {sign} {bound}, got {text}")
        return value


def _render(keys: tuple[_Key, ...], obj: object) -> list[str]:
    """The `name = value` lines of the keys whose field on obj is set."""
    return [
        f"{key.name} = {_WRITERS.get(key.kind, str)(getattr(obj, key.attr))}"
        for key in keys
        if getattr(obj, key.attr) is not None
    ]


_RANGE = _Key("range", float, required=True, gt=0, target="radio_range")
_ENERGY = _Key("energy", float, gt=0, lt=math.inf)
_PE = _Key("pe", int, ge=0)

# layout -> (spec type, the layout's own keys); `pe` is read after them
_LAYOUTS: dict[str, tuple[type, tuple[_Key, ...]]] = {
    "explicit": (ExplicitNetworkSpec, (_Key("nodes", _nodes, required=True),)),
    "grid": (GridNetworkSpec, (
        _Key("rows", int, required=True, ge=1), _Key("cols", int, required=True, ge=1),
        _Key("spacing", float, gt=0),
        _RANGE,
        _ENERGY,
    )),
    "random": (RandomNetworkSpec, (
        _Key("count", int, required=True, ge=2, le=MAX_NODES),
        _RANGE,
        _Key("width", float, gt=0, lt=math.inf),
        _Key("height", float, gt=0, lt=math.inf),
        _ENERGY,
        _Key("placement_seed", int, ge=0),
        _Key("connected", _boolean),
    )),
}
_LAYOUT = _Key("layout", tuple(_LAYOUTS), required=True)

# section -> (dataclass it fills, None for ScenarioConfig's own fields; keys)
_SECTIONS: dict[str, tuple[type | None, tuple[_Key, ...]]] = {
    "radio": (RadioParams, (
        _Key("floor", float, gt=0), _Key("tx_power", float, gt=0, lt=math.inf),
        _Key("d0", float, gt=0), _Key("gamma", float, ge=0),
        _Key("debounce", int, ge=1),
    )),
    "metrics": (None, (
        _Key("snr_total", float, gt=0, lt=math.inf),
        _Key("total_hops", float, gt=0, lt=math.inf),
        _Key("energy_capacity", float, gt=0, lt=math.inf),
    )),
    "search": (SearchParams, (
        _Key("q", float, ge=0, lt=math.inf),
        _Key("rho", float, ge=0.0, le=1.0),
        _Key("alpha", float, ge=0, lt=math.inf), _Key("beta", float, ge=0, lt=math.inf),
        _Key("n_explorers", int, ge=0), _Key("n_exploiters", int, ge=0),
        _Key("iterations", int, ge=1),
        _Key("phi0", float, gt=0, lt=math.inf),
        _Key("psl_delta", float, ge=0.0, lt=1.0),
    )),
    "traffic": (None, (
        _Key("sources", _ints),
        _Key("rate", float, ge=0, le=MAX_RATE),
        _Key("duration", int, ge=0, le=MAX_DURATION),
    )),
    "sim": (None, (
        _Key("packet_energy_cost", float, ge=0),
        _Key("ant_energy_cost", float, ge=0),
        _Key("rx_energy_cost", float, ge=0),
        _Key("reroute", _boolean), _Key("restore_routes", _boolean),
    )),
    "output": (None, (
        _Key("format", ("json", "csv"), target="output_format"),
        _Key("path", _line, target="output_path"),
    )),
}

_JAMMER_KEYS = (
    _Key("kind", tuple(k.value for k in JammerKind), required=True),
    _Key("x", float, required=True), _Key("y", float, required=True),
    _Key("power", float, required=True, gt=0, lt=math.inf),
    _Key("start", int, ge=0),
)
# keys only some jammer kinds take; on any other kind they are unknown
_JAMMER_KIND_KEYS: dict[str, tuple[_Key, ...]] = {
    "random": (_Key("sleep", _steps), _Key("jam", _steps)),
    "reactive": (_Key("sense_range", float, gt=0),),
}


class _Section:
    """One section's raw keys, read against key tables into shared errors."""

    def __init__(self, name: str, raw: dict[str, str], errors: list[tuple[str, str]]):
        self.name = name
        self.raw = raw  # keys not read yet; read() removes them
        self.errors = errors

    def error(self, key: str, reason: str) -> None:
        self.errors.append((f"{self.name}.{key}", reason))

    def finish(self) -> None:
        for key in sorted(self.raw):
            self.error(key, "unknown key")

    def read(self, keys: tuple[_Key, ...]) -> dict[str, object]:
        """The valid values among keys, by dataclass field, in table order."""
        values = {}
        for key in keys:
            text = self.raw.pop(key.name, None)
            if text is None:
                if key.required:
                    self.error(key.name, "required key is missing")
                continue
            try:
                values[key.attr] = key.convert(text.strip())
            except ValueError as exc:
                self.error(key.name, str(exc))
        return values


def _parse_network(sec: _Section) -> NetworkSpec | None:
    """The spec, or None if it cannot be built; every valid layout reads `pe`."""
    layout = sec.read((_LAYOUT,)).get("layout")
    spec = None
    if layout is not None:
        spec_type, keys = _LAYOUTS[layout]
        values = sec.read(keys)
        ok = all(key.attr in values for key in keys if key.required)
        if ok and layout == "grid":
            rows, cols = values["rows"], values["cols"]
            spacing = values.setdefault("spacing", 10.0)
            if rows * cols < 2:
                sec.error("rows", "grid needs at least two nodes")
                ok = False
            elif rows * cols > MAX_NODES:
                sec.error("rows", f"rows * cols must be <= {MAX_NODES}, got {rows * cols}")
                ok = False
            elif not math.isfinite(spacing * (max(rows, cols) - 1)):
                sec.error("spacing", f"grid coordinates must be finite, got {spacing!r}")
                ok = False
        pe = sec.read((_PE,)).get("pe", 0)
        if ok:
            spec = spec_type(**values)
            if pe >= spec.node_count:
                sec.error("pe", f"node id {pe} out of range for {spec.node_count} nodes")
            else:
                spec = replace(spec, pe=pe)
    sec.finish()
    return spec


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document; raises ConfigError."""
    errors: list[tuple[str, str]] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([("config", f"malformed document: {exc}")]) from None

    sections: dict[str, _Section] = {}
    jammer_sections: list[_Section] = []
    for name in parser.sections():
        sec = _Section(name, dict(parser.items(name)), errors)
        if name == "network" or name in _SECTIONS:
            sections[name] = sec
        elif name == "jammer" or name.startswith("jammer."):
            jammer_sections.append(sec)
        else:
            errors.append((name, "unknown section"))

    if "network" not in sections:
        errors.append(("network", "required section is missing"))
        raise ConfigError(errors)
    network = _parse_network(sections["network"])

    fields: dict[str, object] = {}
    for name, (section_type, keys) in _SECTIONS.items():
        sec = sections.get(name) or _Section(name, {}, errors)
        values = sec.read(keys)
        if name == "search":
            ants = [values.get(k, getattr(SearchParams, k))
                    for k in ("n_explorers", "n_exploiters")]
            tours = sum(ants) * values.get("iterations", SearchParams.iterations)
            if sum(ants) < 1:
                sec.error("n_explorers", "need at least one ant across both colonies")
            elif tours > MAX_ANT_TOURS:
                sec.error("iterations", "(n_explorers + n_exploiters) * iterations "
                          f"must be <= {MAX_ANT_TOURS}, got {tours}")
        sec.finish()
        if name == "traffic" and network is not None:
            for src in values.get("sources", ()):
                if not 0 <= src < network.node_count:
                    sec.error("sources", f"node id {src} out of range")
                elif src == network.pe:
                    sec.error("sources", f"node {src} is the processing element")
        fields.update(values if section_type is None else {name: values})

    jammers = []
    for sec in jammer_sections:
        values = sec.read(_JAMMER_KEYS)
        values.update(sec.read(_JAMMER_KIND_KEYS.get(values.get("kind"), ())))
        sec.finish()
        jammers.append(values)

    if errors:
        raise ConfigError(errors)
    assert network is not None
    for name, (section_type, _) in _SECTIONS.items():
        if section_type is not None:
            fields[name] = section_type(**fields[name])
    return ScenarioConfig(
        network=network, jammers=tuple(JammerSpec(**v) for v in jammers), **fields
    )


def format_config(cfg: ScenarioConfig) -> str:
    """Render a config back to its document form.

    Parsing the rendered text yields an equal ScenarioConfig, so configs can
    be echoed, diffed, and stored canonically.
    """
    net = cfg.network
    layout = next(name for name, (t, _) in _LAYOUTS.items() if isinstance(net, t))
    lines = ["[network]", f"layout = {layout}"]
    lines += _render(_LAYOUTS[layout][1] + (_PE,), net)
    for name, (section_type, keys) in _SECTIONS.items():
        obj = cfg if section_type is None else getattr(cfg, name)
        lines += ["", f"[{name}]", *_render(keys, obj)]
    for idx, j in enumerate(cfg.jammers):
        keys = _JAMMER_KEYS + _JAMMER_KIND_KEYS.get(j.kind, ())
        lines += ["", f"[jammer.{idx}]", *_render(keys, j)]
    return "\n".join(lines) + "\n"


def build_scenario_network(cfg: ScenarioConfig, seed: int) -> Network:
    """Materialize the configured network; the run seed places random layouts
    whose placement_seed is unset."""
    net = cfg.network
    if isinstance(net, ExplicitNetworkSpec):
        return build_network(
            [((x, y), e, r) for (x, y, e, r) in net.nodes], net.pe
        )
    if isinstance(net, GridNetworkSpec):
        return grid_network(
            net.rows, net.cols, net.spacing, net.radio_range, net.energy, net.pe
        )
    placement_seed = net.placement_seed if net.placement_seed is not None else seed
    return random_geometric_network(
        net.count,
        net.width,
        net.height,
        net.radio_range,
        net.energy,
        Random(f"{placement_seed}/placement"),
        pe_index=net.pe,
        connected=net.connected,
    )


def build_jammers(cfg: ScenarioConfig) -> list[Jammer]:
    """Fresh jammer instances (cycle state zeroed) for one run."""
    return [
        Jammer(
            kind=JammerKind(spec.kind),
            position=(spec.x, spec.y),
            power=spec.power,
            sleep_steps=spec.sleep,
            jam_steps=spec.jam,
            start=spec.start,
            sense_range=spec.sense_range,
        )
        for spec in cfg.jammers
    ]


def resolve_totals(cfg: ScenarioConfig, net: Network) -> MetricTotals:
    return MetricTotals.for_network(
        net, cfg.snr_total, cfg.total_hops, cfg.energy_capacity
    )


def resolve_sources(cfg: ScenarioConfig, net: Network) -> tuple[int, ...]:
    if cfg.sources is not None:
        return cfg.sources
    candidates = [i for i in sorted(net.nodes) if i != net.pe_id]
    return (candidates[0],)
