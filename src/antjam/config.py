"""Scenario configuration: a flat, sectioned key-value document.

Sections: [network], [radio], [metrics], [search], [traffic], [sim],
[output], and one [jammer.<label>] (or bare [jammer]) section per attacker.
Unknown sections and unknown keys are errors; every reported problem names
the offending key. The full key reference lives in the README.

Every key is declared once, on the dataclass field it fills (see
network.config_field): its default and bounds, and how the document reads
it. `parse_config` and `format_config` walk the fields in order, and each
config dataclass checks the same bounds when it is built in code.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from random import Random
from typing import Any, Mapping

from .ants import MAX_ANT_TOURS, SearchParams
from .jammers import Jammer, JammerKind, RadioParams
from .metrics import MetricTotals
from .network import (
    Network,
    broken_bound,
    build_network,
    check_bounds,
    config_field,
    grid_network,
    random_geometric_network,
)


# Ceilings on the sizes a document may ask for, checked while parsing so that
# no oversized scenario is ever built, and by the dataclasses when built in
# code. MAX_ANT_TOURS, on (n_explorers + n_exploiters) * iterations, lives
# with SearchParams in ants.py.
MAX_NODES = 100_000  # random `count`, grid `rows * cols`, explicit `nodes`
MAX_DURATION = 1_000_000  # traffic `duration`, in steps
MAX_RATE = 1_000  # traffic `rate`, in packets per source per step


class ConfigError(Exception):
    """Carries every (key, reason) problem found while parsing a config."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{key}: {reason}" for key, reason in errors))


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


@dataclass(frozen=True)
class ExplicitNetworkSpec:
    # x, y, energy, range
    nodes: tuple[tuple[float, float, float, float], ...] = config_field(kind=_nodes)
    pe: int = config_field(0, ge=0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if len(self.nodes) > MAX_NODES:
            raise ValueError(f"nodes must hold <= {MAX_NODES} entries, got {len(self.nodes)}")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class GridNetworkSpec:
    rows: int = config_field(ge=1)
    cols: int = config_field(ge=1)
    spacing: float = config_field(gt=0, absent=10.0)
    radio_range: float = config_field(gt=0, key="range")
    energy: float = config_field(1e6, gt=0, lt=math.inf)
    pe: int = config_field(0, ge=0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.rows * self.cols > MAX_NODES:
            raise ValueError(f"rows * cols must be <= {MAX_NODES}, got {self.rows * self.cols}")

    @property
    def node_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class RandomNetworkSpec:
    count: int = config_field(ge=2, le=MAX_NODES)
    radio_range: float = config_field(gt=0, key="range")
    width: float = config_field(100.0, gt=0, lt=math.inf)
    height: float = config_field(100.0, gt=0, lt=math.inf)
    energy: float = config_field(1e6, gt=0, lt=math.inf)
    pe: int = config_field(0, ge=0)
    placement_seed: int | None = config_field(None, ge=0)
    connected: bool = True

    __post_init__ = check_bounds

    @property
    def node_count(self) -> int:
        return self.count


NetworkSpec = ExplicitNetworkSpec | GridNetworkSpec | RandomNetworkSpec


@dataclass(frozen=True)
class JammerSpec:
    kind: str = config_field(kind=tuple(k.value for k in JammerKind))
    x: float
    y: float
    power: float = config_field(gt=0, lt=math.inf)
    start: int = config_field(0, ge=0)
    sleep: tuple[int, int] = config_field((1, 1), kind=_steps, for_kind="random")
    jam: tuple[int, int] = config_field((1, 1), kind=_steps, for_kind="random")
    sense_range: float = config_field(math.inf, gt=0, for_kind="reactive")

    __post_init__ = check_bounds


@dataclass
class ScenarioConfig:
    network: NetworkSpec
    jammers: tuple[JammerSpec, ...] = ()
    radio: RadioParams = field(default_factory=RadioParams)
    search: SearchParams = field(default_factory=SearchParams)
    snr_total: float = config_field(10.0, section="metrics", gt=0, lt=math.inf)
    total_hops: float | None = config_field(None, section="metrics", gt=0, lt=math.inf)
    energy_capacity: float | None = config_field(None, section="metrics", gt=0, lt=math.inf)
    # None: lowest non-PE node id
    sources: tuple[int, ...] | None = config_field(None, section="traffic", kind=_ints)
    rate: float = config_field(1.0, section="traffic", ge=0, le=MAX_RATE)
    duration: int = config_field(100, section="traffic", ge=0, le=MAX_DURATION)
    packet_energy_cost: float = config_field(1.0, section="sim", ge=0)
    ant_energy_cost: float = config_field(1.0, section="sim", ge=0)
    rx_energy_cost: float = config_field(1.0, section="sim", ge=0)
    reroute: bool = config_field(True, section="sim")
    restore_routes: bool = config_field(False, section="sim")
    output_format: str = config_field(
        "json", section="output", key="format", kind=("json", "csv"))
    output_path: str | None = config_field(None, section="output", key="path", kind=_line)

    __post_init__ = check_bounds


# how each structured kind is written back; str() of a float parses back exactly
_WRITERS = {
    _boolean: lambda v: "on" if v else "off",
    _steps: lambda v: f"{v[0]}..{v[1]}",
    _ints: lambda v: ", ".join(str(i) for i in v),
    _nodes: lambda v: "; ".join(f"{x!r},{y!r},{e!r},{r!r}" for x, y, e, r in v),
}
# the kind of a field that declares none, by its annotation's first type
_ANNOTATED = {"float": float, "int": int, "bool": _boolean}


@dataclass(frozen=True)
class _Key:
    """One config key: how its text is read and checked, and the dataclass
    field it fills; a missing or invalid key leaves the field's default."""

    name: str
    attr: str  # the dataclass field
    kind: object  # float, int, a tuple of choices, or a text -> value function
    required: bool
    meta: Mapping[str, Any]  # the field's metadata, which holds its bounds

    @classmethod
    def of(cls, f: Field) -> _Key:
        meta = f.metadata
        kind = meta.get("kind") or _ANNOTATED[f.type.split(" |")[0]]
        unset = f.default is MISSING and f.default_factory is MISSING
        return cls(meta.get("key", f.name), f.name, kind, unset and "absent" not in meta, meta)

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
        reason = broken_bound(self.meta, value)
        if reason:
            raise ValueError(f"{reason}, got {text}")
        return value


def _keys(cls: type, **only: object) -> tuple[_Key, ...]:
    """The keys of cls's fields, in field order; with `only`, of just the
    fields whose metadata holds those values (an absent one reads None)."""
    return tuple(
        _Key.of(f) for f in fields(cls)
        if all(f.metadata.get(name) == want for name, want in only.items())
    )


def _render(keys: tuple[_Key, ...], obj: object) -> list[str]:
    """The `name = value` lines of the keys whose field on obj is set."""
    return [
        f"{key.name} = {_WRITERS.get(key.kind, str)(getattr(obj, key.attr))}"
        for key in keys
        if getattr(obj, key.attr) is not None
    ]


# layout -> (spec type, its keys); `pe` is read after the layout's own keys
_LAYOUTS: dict[str, tuple[type, tuple[_Key, ...]]] = {
    name: (spec, tuple(sorted(_keys(spec), key=lambda key: key.attr == "pe")))
    for name, spec in (
        ("explicit", ExplicitNetworkSpec),
        ("grid", GridNetworkSpec),
        ("random", RandomNetworkSpec),
    )
}
_LAYOUT = _Key("layout", "layout", tuple(_LAYOUTS), True, {})

# section -> (dataclass it fills, None for ScenarioConfig's own fields; keys),
# in the order the sections are read and written
_SECTIONS: dict[str, tuple[type | None, tuple[_Key, ...]]] = {
    "radio": (RadioParams, _keys(RadioParams)),
    "metrics": (None, _keys(ScenarioConfig, section="metrics")),
    "search": (SearchParams, _keys(SearchParams)),
    "traffic": (None, _keys(ScenarioConfig, section="traffic")),
    "sim": (None, _keys(ScenarioConfig, section="sim")),
    "output": (None, _keys(ScenarioConfig, section="output")),
}

_JAMMER_KEYS = _keys(JammerSpec, for_kind=None)
# keys only one jammer kind takes; on any other kind they are unknown
_JAMMER_KIND_KEYS = {kind.value: _keys(JammerSpec, for_kind=kind.value) for kind in JammerKind}


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
            if "absent" in key.meta:  # a default its field cannot hold
                values[key.attr] = key.meta["absent"]
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
        values = sec.read(keys[:-1])
        ok = all(key.attr in values for key in keys if key.required)
        if ok and layout == "grid":
            rows, cols, spacing = values["rows"], values["cols"], values["spacing"]
            if rows * cols < 2:
                sec.error("rows", "grid needs at least two nodes")
                ok = False
            elif rows * cols > MAX_NODES:
                sec.error("rows", f"rows * cols must be <= {MAX_NODES}, got {rows * cols}")
                ok = False
            elif not math.isfinite(spacing * (max(rows, cols) - 1)):
                sec.error("spacing", f"grid coordinates must be finite, got {spacing!r}")
                ok = False
        pe = sec.read(keys[-1:]).get("pe", 0)
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
            listed: dict[int, int] = {}
            for src in values.get("sources", ()):
                listed[src] = listed.get(src, 0) + 1
                if not 0 <= src < network.node_count:
                    sec.error("sources", f"node id {src} out of range")
                elif src == network.pe:
                    sec.error("sources", f"node {src} is the processing element")
                elif listed[src] == 2:
                    sec.error("sources", f"node {src} listed twice")
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
    lines += _render(_LAYOUTS[layout][1], net)
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
        # parse_config refuses a repeat too; this catches configs built in code
        seen: set[int] = set()
        for src in cfg.sources:
            if src in seen:
                raise ValueError(f"node {src} listed twice")
            seen.add(src)
        return cfg.sources
    candidates = [i for i in sorted(net.nodes) if i != net.pe_id]
    return (candidates[0],)
