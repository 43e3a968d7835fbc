"""The hand-written config reader the package shipped first, kept as a reference.

Each key here is read by its own typed `_Section.get_*` call and written by
its own line in `format_config`. The package reads and writes every key from
one declarative table; tests/test_config_equivalence.py checks that both
give equal configs, or equal ordered error lists, on generated documents.

Eleven fixes are applied on top of the original code, and nothing else:
`pe` is read for every layout, after the layout's own keys, and its range is
checked only when the node count is known (it used to be reported as an
unknown key whenever another `[network]` key was invalid); an infinite
node `energy` is rejected (`< inf` for grid and random layouts, `energy must
be finite` for an explicit entry); a jammer `sleep` or `jam` range with more
than two parts, such as `1..2..9`, is rejected (it used to be read as
`1..2`); an `[output] path` continued over several lines is rejected
(`format_config` wrote it back over several lines, which did not parse); a
`[traffic] rate` above 1000 packets per source per step is rejected (an
infinite or huge rate never finished a step); an infinite `[metrics]`
`snr_total`, `total_hops` or `energy_capacity` is rejected (`< inf`; every
run then failed late on a NaN quality factor that named no key); and an
infinite `[search]` `q`, `phi0`, `alpha` or `beta` is rejected (`< inf`; a
run could then fail late on transition probabilities that summed to NaN and
named no key); and an infinite `[radio] tx_power` or `[jammer] power` is
rejected (`< inf`; the noise it made could be NaN, which hid a jam or failed
the run late on a NaN quality factor that named no key); and an explicit
`nodes` list of more than `MAX_NODES` entries is rejected before its numbers
are read (the node ceiling bounded only random and grid layouts); and the
parse ceilings are mirrored: a random `count` or a grid's `rows * cols` above
`MAX_NODES`, a `[traffic] duration` above `MAX_DURATION`, and `[search]`
`(n_explorers + n_exploiters) * iterations` above `MAX_ANT_TOURS` are
rejected (this reader accepted all four, which the package rejects); and a
`[traffic] sources` id listed twice is rejected (`node N listed twice`, once
per repeated id; the run had one flow per distinct id, and `format_config`
wrote the repeat back).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import replace

from antjam.ants import SearchParams
from antjam.config import (
    MAX_ANT_TOURS,
    MAX_DURATION,
    MAX_NODES,
    ConfigError,
    ExplicitNetworkSpec,
    GridNetworkSpec,
    JammerSpec,
    NetworkSpec,
    RandomNetworkSpec,
    ScenarioConfig,
)
from antjam.jammers import JammerKind, RadioParams


class _Section:
    """Typed key readers over one config section, accumulating errors."""

    def __init__(self, name: str, raw: dict[str, str], errors: list[tuple[str, str]]):
        self.name = name
        self.raw = raw
        self.errors = errors
        self.used: set[str] = set()

    def error(self, key: str, reason: str) -> None:
        self.errors.append((f"{self.name}.{key}", reason))

    def take(self, key: str) -> str | None:
        self.used.add(key)
        value = self.raw.get(key)
        return value.strip() if value is not None else None

    def finish(self) -> None:
        for key in sorted(set(self.raw) - self.used):
            self.error(key, "unknown key")

    def _number(self, key, default, required, lo, hi, lo_open, hi_open, cast, kind_name):
        text = self.take(key)
        if text is None:
            if required:
                self.error(key, "required key is missing")
            return default
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if math.isnan(value):  # "nan" parses as a float but is not a number
            self.error(key, f"not a valid {kind_name}: {text!r}")
            return default
        if lo is not None and (value <= lo if lo_open else value < lo):
            self.error(key, f"must be {'>' if lo_open else '>='} {lo}, got {text}")
            return default
        if hi is not None and (value >= hi if hi_open else value > hi):
            self.error(key, f"must be {'<' if hi_open else '<='} {hi}, got {text}")
            return default
        return value

    def get_float(self, key, default=None, required=False, lo=None, hi=None,
                  lo_open=False, hi_open=False):
        return self._number(key, default, required, lo, hi, lo_open, hi_open,
                            float, "number")

    def get_int(self, key, default=None, required=False, lo=None, hi=None):
        def cast(text: str) -> int:
            return int(text, 10)

        return self._number(key, default, required, lo, hi, False, False,
                            cast, "integer")

    def get_bool(self, key, default=None, required=False):
        text = self.take(key)
        if text is None:
            if required:
                self.error(key, "required key is missing")
            return default
        lowered = text.lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        self.error(key, f"not a valid boolean (on/off): {text!r}")
        return default

    def get_choice(self, key, choices, default=None, required=False):
        text = self.take(key)
        if text is None:
            if required:
                self.error(key, "required key is missing")
            return default
        if text not in choices:
            self.error(key, f"must be one of {', '.join(choices)}; got {text!r}")
            return default
        return text

    def get_step_range(self, key, default=(1, 1)):
        """Inclusive integer range: either "k" or "a..b", both at least 1."""
        text = self.take(key)
        if text is None:
            return default
        parts = text.split("..") if ".." in text else [text, text]
        try:
            lo_text, hi_text = parts
            lo, hi = int(lo_text, 10), int(hi_text, 10)
        except (ValueError, IndexError):
            self.error(key, f"expected an integer or a..b range, got {text!r}")
            return default
        if lo < 1 or hi < lo:
            self.error(key, f"range must satisfy 1 <= a <= b, got {text!r}")
            return default
        return (lo, hi)

    def get_int_list(self, key):
        text = self.take(key)
        if text is None:
            return None
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items:
            self.error(key, "empty list")
            return None
        out = []
        for item in items:
            try:
                out.append(int(item, 10))
            except ValueError:
                self.error(key, f"not an integer: {item!r}")
                return None
        return tuple(out)


def _parse_network(sec: _Section) -> NetworkSpec | None:
    layout = sec.get_choice(
        "layout", ("explicit", "grid", "random"), required=True
    )
    if layout == "explicit":
        spec = _parse_explicit_network(sec)
    elif layout == "grid":
        spec = _parse_grid_network(sec)
    elif layout == "random":
        spec = _parse_random_network(sec)
    else:
        spec = None
    if layout is not None:
        pe = _parse_pe(sec, None if spec is None else spec.node_count)
        if spec is not None:
            spec = replace(spec, pe=pe)
    sec.finish()
    return spec


def _parse_pe(sec: _Section, node_count: int | None) -> int:
    pe = sec.get_int("pe", default=0, lo=0)
    if pe is None:
        return 0
    if node_count is not None and pe >= node_count:
        sec.error("pe", f"node id {pe} out of range for {node_count} nodes")
        return 0
    return pe


def _parse_explicit_network(sec: _Section) -> ExplicitNetworkSpec | None:
    text = sec.take("nodes")
    if text is None:
        sec.error("nodes", "required key is missing")
        return None
    quads = []
    entries = [e.strip() for e in text.replace("\n", " ").split(";") if e.strip()]
    if len(entries) < 2:
        sec.error("nodes", "need at least two nodes")
        return None
    if len(entries) > MAX_NODES:
        sec.error("nodes", f"at most {MAX_NODES} nodes, got {len(entries)}")
        return None
    for idx, entry in enumerate(entries):
        parts = [p.strip() for p in entry.split(",")]
        if len(parts) != 4:
            sec.error("nodes", f"entry {idx}: expected x,y,energy,range")
            return None
        try:
            values = [float(p) for p in parts]
        except ValueError:
            values = [math.nan]
        if any(math.isnan(v) for v in values):
            sec.error("nodes", f"entry {idx}: non-numeric field in {entry!r}")
            return None
        x, y, energy, radio_range = values
        if not (math.isfinite(x) and math.isfinite(y)):
            sec.error("nodes", f"entry {idx}: coordinates must be finite")
            return None
        if energy <= 0:
            sec.error("nodes", f"entry {idx}: energy must be positive")
            return None
        if not math.isfinite(energy):
            sec.error("nodes", f"entry {idx}: energy must be finite")
            return None
        if radio_range <= 0:
            sec.error("nodes", f"entry {idx}: range must be positive")
            return None
        quads.append((x, y, energy, radio_range))
    return ExplicitNetworkSpec(nodes=tuple(quads))


def _parse_grid_network(sec: _Section) -> GridNetworkSpec | None:
    rows = sec.get_int("rows", required=True, lo=1)
    cols = sec.get_int("cols", required=True, lo=1)
    spacing = sec.get_float("spacing", default=10.0, lo=0, lo_open=True)
    radio_range = sec.get_float("range", required=True, lo=0, lo_open=True)
    energy = sec.get_float("energy", default=1e6, lo=0, lo_open=True,
                           hi=math.inf, hi_open=True)
    if rows is None or cols is None or radio_range is None:
        return None
    if rows * cols < 2:
        sec.error("rows", "grid needs at least two nodes")
        return None
    if rows * cols > MAX_NODES:
        sec.error("rows", f"rows * cols must be <= {MAX_NODES}, got {rows * cols}")
        return None
    if not math.isfinite(spacing * (max(rows, cols) - 1)):
        sec.error("spacing", f"grid coordinates must be finite, got {spacing!r}")
        return None
    return GridNetworkSpec(rows, cols, spacing, radio_range, energy)


def _parse_random_network(sec: _Section) -> RandomNetworkSpec | None:
    count = sec.get_int("count", required=True, lo=2, hi=MAX_NODES)
    radio_range = sec.get_float("range", required=True, lo=0, lo_open=True)
    width = sec.get_float("width", default=100.0, lo=0, lo_open=True,
                          hi=math.inf, hi_open=True)
    height = sec.get_float("height", default=100.0, lo=0, lo_open=True,
                           hi=math.inf, hi_open=True)
    energy = sec.get_float("energy", default=1e6, lo=0, lo_open=True,
                           hi=math.inf, hi_open=True)
    placement_seed = sec.get_int("placement_seed", default=None, lo=0)
    connected = sec.get_bool("connected", default=True)
    if count is None or radio_range is None:
        return None
    return RandomNetworkSpec(
        count, radio_range, width, height, energy,
        placement_seed=placement_seed, connected=connected,
    )


def _parse_jammer(sec: _Section) -> JammerSpec | None:
    kind = sec.get_choice(
        "kind",
        tuple(k.value for k in JammerKind),
        required=True,
    )
    x = sec.get_float("x", required=True)
    y = sec.get_float("y", required=True)
    power = sec.get_float(
        "power", required=True, lo=0, lo_open=True, hi=math.inf, hi_open=True
    )
    start = sec.get_int("start", default=0, lo=0)
    sleep = (1, 1)
    jam = (1, 1)
    sense_range = math.inf
    if kind == "random":
        sleep = sec.get_step_range("sleep")
        jam = sec.get_step_range("jam")
    elif kind == "reactive":
        sense_range = sec.get_float(
            "sense_range", default=math.inf, lo=0, lo_open=True
        )
    sec.finish()
    if kind is None or x is None or y is None or power is None:
        return None
    return JammerSpec(kind, x, y, power, start, sleep, jam, sense_range)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document; raises ConfigError."""
    errors: list[tuple[str, str]] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([("config", f"malformed document: {exc}")]) from None

    known = {"network", "radio", "metrics", "search", "traffic", "sim", "output"}
    sections: dict[str, _Section] = {}
    jammer_sections: list[_Section] = []
    for name in parser.sections():
        sec = _Section(name, dict(parser.items(name)), errors)
        if name in known:
            sections[name] = sec
        elif name == "jammer" or name.startswith("jammer."):
            jammer_sections.append(sec)
        else:
            errors.append((name, "unknown section"))

    if "network" not in sections:
        errors.append(("network", "required section is missing"))
        raise ConfigError(errors)
    network = _parse_network(sections["network"])

    radio = RadioParams()
    if "radio" in sections:
        sec = sections["radio"]
        floor = sec.get_float("floor", default=radio.floor, lo=0, lo_open=True)
        tx_power = sec.get_float("tx_power", default=radio.tx_power, lo=0, lo_open=True,
                                 hi=math.inf, hi_open=True)
        d0 = sec.get_float("d0", default=radio.d0, lo=0, lo_open=True)
        gamma = sec.get_float("gamma", default=radio.gamma, lo=0)
        debounce = sec.get_int("debounce", default=radio.debounce, lo=1)
        sec.finish()
        if not errors:
            radio = RadioParams(floor, tx_power, d0, gamma, debounce)

    snr_total, total_hops, energy_capacity = 10.0, None, None
    if "metrics" in sections:
        sec = sections["metrics"]
        snr_total = sec.get_float("snr_total", default=10.0, lo=0, lo_open=True,
                                  hi=math.inf, hi_open=True)
        total_hops = sec.get_float("total_hops", default=None, lo=0, lo_open=True,
                                   hi=math.inf, hi_open=True)
        energy_capacity = sec.get_float(
            "energy_capacity", default=None, lo=0, lo_open=True,
            hi=math.inf, hi_open=True,
        )
        sec.finish()

    search = SearchParams()
    if "search" in sections:
        sec = sections["search"]
        q = sec.get_float("q", default=search.q, lo=0, hi=math.inf, hi_open=True)
        rho = sec.get_float("rho", default=search.rho, lo=0.0, hi=1.0)
        alpha = sec.get_float("alpha", default=search.alpha, lo=0,
                              hi=math.inf, hi_open=True)
        beta = sec.get_float("beta", default=search.beta, lo=0, hi=math.inf, hi_open=True)
        n_explorers = sec.get_int("n_explorers", default=search.n_explorers, lo=0)
        n_exploiters = sec.get_int("n_exploiters", default=search.n_exploiters, lo=0)
        iterations = sec.get_int("iterations", default=search.iterations, lo=1)
        phi0 = sec.get_float(
            "phi0", default=search.phi0, lo=0, lo_open=True, hi=math.inf, hi_open=True
        )
        psl_delta = sec.get_float(
            "psl_delta", default=search.psl_delta, lo=0.0, hi=1.0, hi_open=True
        )
        if (n_explorers or 0) + (n_exploiters or 0) < 1:
            sec.error("n_explorers", "need at least one ant across both colonies")
        elif (n_explorers + n_exploiters) * iterations > MAX_ANT_TOURS:
            sec.error("iterations", "(n_explorers + n_exploiters) * iterations "
                      f"must be <= {MAX_ANT_TOURS}, got "
                      f"{(n_explorers + n_exploiters) * iterations}")
        sec.finish()
        if not errors:
            search = SearchParams(
                q, rho, alpha, beta, n_explorers, n_exploiters, iterations,
                phi0, psl_delta,
            )

    sources, rate, duration = None, 1.0, 100
    if "traffic" in sections:
        sec = sections["traffic"]
        sources = sec.get_int_list("sources")
        rate = sec.get_float("rate", default=1.0, lo=0, hi=1000)
        duration = sec.get_int("duration", default=100, lo=0, hi=MAX_DURATION)
        sec.finish()
        if sources is not None and network is not None:
            count = network.node_count
            seen, repeated = set(), set()
            for src in sources:
                if not 0 <= src < count:
                    sec.error("sources", f"node id {src} out of range")
                elif src == network.pe:
                    sec.error(
                        "sources", f"node {src} is the processing element"
                    )
                elif src in seen and src not in repeated:
                    repeated.add(src)
                    sec.error("sources", f"node {src} listed twice")
                seen.add(src)

    packet_cost, ant_cost, rx_cost = 1.0, 1.0, 1.0
    reroute, restore_routes = True, False
    if "sim" in sections:
        sec = sections["sim"]
        packet_cost = sec.get_float("packet_energy_cost", default=1.0, lo=0)
        ant_cost = sec.get_float("ant_energy_cost", default=1.0, lo=0)
        rx_cost = sec.get_float("rx_energy_cost", default=1.0, lo=0)
        reroute = sec.get_bool("reroute", default=True)
        restore_routes = sec.get_bool("restore_routes", default=False)
        sec.finish()

    output_format, output_path = "json", None
    if "output" in sections:
        sec = sections["output"]
        output_format = sec.get_choice("format", ("json", "csv"), default="json")
        output_path = sec.take("path")
        if output_path is not None and "\n" in output_path:
            sec.error("path", f"must be on one line, got {output_path!r}")
            output_path = None
        sec.finish()

    jammers = []
    for sec in jammer_sections:
        spec = _parse_jammer(sec)
        if spec is not None:
            jammers.append(spec)

    if errors:
        raise ConfigError(errors)
    assert network is not None
    return ScenarioConfig(
        network=network,
        jammers=tuple(jammers),
        radio=radio,
        search=search,
        snr_total=snr_total,
        total_hops=total_hops,
        energy_capacity=energy_capacity,
        sources=sources,
        rate=rate,
        duration=duration,
        packet_energy_cost=packet_cost,
        ant_energy_cost=ant_cost,
        rx_energy_cost=rx_cost,
        reroute=reroute,
        restore_routes=restore_routes,
        output_format=output_format,
        output_path=output_path,
    )


def format_config(cfg: ScenarioConfig) -> str:
    """Render a config back to its document form.

    Parsing the rendered text yields an equal ScenarioConfig, so configs can
    be echoed, diffed, and stored canonically.
    """
    lines: list[str] = ["[network]"]
    net = cfg.network
    if isinstance(net, ExplicitNetworkSpec):
        lines.append("layout = explicit")
        quads = "; ".join(
            f"{x!r},{y!r},{e!r},{r!r}" for (x, y, e, r) in net.nodes
        )
        lines.append(f"nodes = {quads}")
        lines.append(f"pe = {net.pe}")
    elif isinstance(net, GridNetworkSpec):
        lines.append("layout = grid")
        lines.append(f"rows = {net.rows}")
        lines.append(f"cols = {net.cols}")
        lines.append(f"spacing = {net.spacing!r}")
        lines.append(f"range = {net.radio_range!r}")
        lines.append(f"energy = {net.energy!r}")
        lines.append(f"pe = {net.pe}")
    else:
        lines.append("layout = random")
        lines.append(f"count = {net.count}")
        lines.append(f"range = {net.radio_range!r}")
        lines.append(f"width = {net.width!r}")
        lines.append(f"height = {net.height!r}")
        lines.append(f"energy = {net.energy!r}")
        lines.append(f"pe = {net.pe}")
        if net.placement_seed is not None:
            lines.append(f"placement_seed = {net.placement_seed}")
        lines.append(f"connected = {'on' if net.connected else 'off'}")

    lines += [
        "",
        "[radio]",
        f"floor = {cfg.radio.floor!r}",
        f"tx_power = {cfg.radio.tx_power!r}",
        f"d0 = {cfg.radio.d0!r}",
        f"gamma = {cfg.radio.gamma!r}",
        f"debounce = {cfg.radio.debounce}",
        "",
        "[metrics]",
        f"snr_total = {cfg.snr_total!r}",
    ]
    if cfg.total_hops is not None:
        lines.append(f"total_hops = {cfg.total_hops!r}")
    if cfg.energy_capacity is not None:
        lines.append(f"energy_capacity = {cfg.energy_capacity!r}")

    s = cfg.search
    lines += [
        "",
        "[search]",
        f"q = {s.q!r}",
        f"rho = {s.rho!r}",
        f"alpha = {s.alpha!r}",
        f"beta = {s.beta!r}",
        f"n_explorers = {s.n_explorers}",
        f"n_exploiters = {s.n_exploiters}",
        f"iterations = {s.iterations}",
        f"phi0 = {s.phi0!r}",
        f"psl_delta = {s.psl_delta!r}",
        "",
        "[traffic]",
    ]
    if cfg.sources is not None:
        lines.append("sources = " + ", ".join(str(i) for i in cfg.sources))
    lines += [
        f"rate = {cfg.rate!r}",
        f"duration = {cfg.duration}",
        "",
        "[sim]",
        f"packet_energy_cost = {cfg.packet_energy_cost!r}",
        f"ant_energy_cost = {cfg.ant_energy_cost!r}",
        f"rx_energy_cost = {cfg.rx_energy_cost!r}",
        f"reroute = {'on' if cfg.reroute else 'off'}",
        f"restore_routes = {'on' if cfg.restore_routes else 'off'}",
        "",
        "[output]",
        f"format = {cfg.output_format}",
    ]
    if cfg.output_path is not None:
        lines.append(f"path = {cfg.output_path}")

    for idx, j in enumerate(cfg.jammers):
        lines += [
            "",
            f"[jammer.{idx}]",
            f"kind = {j.kind}",
            f"x = {j.x!r}",
            f"y = {j.y!r}",
            f"power = {j.power!r}",
            f"start = {j.start}",
        ]
        if j.kind == "random":
            lines.append(f"sleep = {j.sleep[0]}..{j.sleep[1]}")
            lines.append(f"jam = {j.jam[0]}..{j.jam[1]}")
        elif j.kind == "reactive" and math.isfinite(j.sense_range):
            lines.append(f"sense_range = {j.sense_range!r}")
    return "\n".join(lines) + "\n"

