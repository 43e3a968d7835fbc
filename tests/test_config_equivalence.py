"""The table-driven config reader against reference_config.py.

The package declares every key once in a table that both `parse_config` and
`format_config` walk; the reference reads and writes each key by hand. On
generated documents both must give equal configs, or the same ordered list
of errors, and every valid config must survive `format_config` followed by
`parse_config`, with either side's writer and reader. Generated documents
rarely draw any one bad text, so each text in the tables is also read alone,
in an otherwise valid document.
"""

from datetime import timedelta
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_config as ref
from antjam.config import MAX_NODES, ConfigError, format_config, parse_config

# text that no key accepts, or only some do
JUNK = ["nan", "NaN", "abc", "a..b", "", "1e", "--1", "2.5", "1,x", "0..0"]

# key -> (valid texts, boundary or out-of-range texts)
NETWORK = {
    "rows": (["1", "2", "3", "7"], ["0", "-1"]),
    "cols": (["2", "3", "5"], ["0", "1"]),
    "spacing": (["1", "2.5", "10"], ["0", "inf", "1e308"]),
    "range": (["5", "12", "30.5", "inf"], ["0", "-1"]),
    "energy": (["1", "100", "1e6"], ["0", "inf", "1e308"]),
    "count": (["2", "5", "12", "100000"], ["1", "0", "100001"]),
    "width": (["50", "100", "1e308"], ["0", "inf"]),
    "height": (["60", "100"], ["0", "inf"]),
    "placement_seed": (["0", "7"], ["-1"]),
    "connected": (["on", "off", "yes", "0", "TRUE"], ["maybe"]),
    "pe": (["0", "1"], ["-1", "3", "100"]),
}
LAYOUT_KEYS = {
    "explicit": (["nodes"], []),
    "grid": (["rows", "cols", "range"], ["spacing", "energy"]),
    "random": (["count", "range"], ["width", "height", "energy",
                                    "placement_seed", "connected"]),
}
SECTIONS = {
    "radio": {
        "floor": (["1e-9", "1e-8"], ["0"]),
        "tx_power": (["0.1", "0.2", "1e308"], ["0", "-0.1", "inf"]),
        "d0": (["1", "2"], ["0"]),
        "gamma": (["0", "2", "2.5"], ["-1"]),
        "debounce": (["1", "3"], ["0"]),
    },
    "metrics": {
        "snr_total": (["10", "12"], ["0", "inf"]),
        "total_hops": (["3", "14"], ["0", "-2", "inf"]),
        "energy_capacity": (["600", "1e308"], ["0", "inf"]),
    },
    "search": {
        "q": (["0", "1", "2.5", "1e308"], ["-1", "inf"]),
        "rho": (["0", "0.3", "1", "1.0"], ["1.0000001", "-0.1"]),
        "alpha": (["0", "1", "2", "1e308"], ["-1", "inf"]),
        "beta": (["0", "1", "2", "1e308"], ["-0.5", "inf"]),
        "n_explorers": (["0", "4", "10"], ["-1"]),
        "n_exploiters": (["0", "5"], ["-1"]),
        "iterations": (["1", "40"], ["0"]),
        "phi0": (["0.5", "1", "1e308"], ["0", "inf"]),
        "psl_delta": (["0", "0.2"], ["1", "1.0", "-0.1"]),
    },
    "traffic": {
        "sources": (["2", "3", "2, 3"], ["-1", "0", "1", "99", ", ,", "3,2,3"]),
        "rate": (["0", "0.5", "1", "1000"], ["-1", "1000.5", "inf"]),
        "duration": (["0", "100", "1000000"], ["-5", "1000001"]),
    },
    "sim": {
        "packet_energy_cost": (["0", "0.1", "1"], ["-1"]),
        "ant_energy_cost": (["0", "0.01"], ["-1"]),
        "rx_energy_cost": (["0.2", "1"], ["-0.2"]),
        "reroute": (["on", "off", "true", "no", "1"], ["2"]),
        "restore_routes": (["on", "off"], ["nope"]),
    },
    "output": {
        "format": (["json", "csv"], ["xml", "JSON"]),
        "path": (["out.csv", "-", "runs/a b.json"], []),
    },
}
JAMMER = {
    "kind": (["constant", "deceptive", "random", "reactive"], ["sweep"]),
    "x": (["0", "10", "-5.5", "1e308"], ["inf"]),
    "y": (["0", "20", "3"], []),
    "power": (["0.1", "0.004", "1e308"], ["0", "-1", "inf"]),
    "start": (["0", "5"], ["-1"]),
}
JAMMER_KIND_KEYS = {
    "sleep": ("random", ["1", "3", "2..4", "1..2..3"], ["0..2", "5..3", "x..y"]),
    "jam": ("random", ["1", "1..3"], ["0"]),
    "sense_range": ("reactive", ["25", "inf"], ["0"]),
}
NODE_ENTRIES = ["0,0,100,12", "10,0,100,12", "-3.5,4,1,inf", "5,5,80,12.5"]
BAD_NODE_ENTRIES = ["1,2,3", "0,0,inf,12", "inf,0,1,1", "0,0,0,1", "0,0,1,0",
                    "a,b,c,d", "0,0,-inf,5", "0,nan,1,1"]


def value(rng, valid, bad, fault):
    if rng.random() < fault:
        return rng.choice(JUNK + bad)
    return rng.choice(valid)


def nodes_text(rng, fault):
    entries = rng.sample(NODE_ENTRIES, rng.randint(3, 4))
    if rng.random() < fault:
        entries = entries[:1]  # too few nodes
    if rng.random() < fault:
        entries[rng.randrange(len(entries))] = rng.choice(BAD_NODE_ENTRIES)
    return (";\n  " if rng.random() < 0.3 else "; ").join(entries)


def network_lines(rng, fault):
    layout = value(rng, list(LAYOUT_KEYS), ["hex"], fault)
    lines = {"layout": layout} if rng.random() >= fault / 2 else {}
    required, optional = LAYOUT_KEYS.get(layout, ([], []))
    for key in required:
        if rng.random() >= 2 * fault:  # a required key goes missing
            lines[key] = (nodes_text(rng, fault) if key == "nodes"
                          else value(rng, *NETWORK[key], fault))
    for key in optional:
        if rng.random() < 0.5:
            lines[key] = value(rng, *NETWORK[key], fault)
    # a broken pe next to broken layout keys pins the order pe is read in
    if rng.random() < 0.5 + 2 * fault:
        lines["pe"] = value(rng, *NETWORK["pe"], 2 * fault)
    if rng.random() < fault:  # a key of another layout
        lines[rng.choice(["rows", "count", "width", "nodes"])] = "3"
    return lines


def jammer_lines(rng, fault):
    lines = {}
    for key, (valid, bad) in JAMMER.items():
        required = key != "start"
        if rng.random() < (1 - fault if required else 0.5):
            lines[key] = value(rng, valid, bad, fault)
    for key, (kind, valid, bad) in JAMMER_KIND_KEYS.items():
        # keys of the jammer's own kind often, of another kind now and then
        if rng.random() < (0.5 if lines.get("kind") == kind else fault + 0.05):
            lines[key] = value(rng, valid, bad, fault)
    return lines


def document(rng):
    """A scenario document; most are valid, some carry one or many faults."""
    fault = rng.choice([0.0, 0.0, 0.0, 0.0, 0.02, 0.08, 0.25, 0.4])
    sections = []
    if rng.random() >= fault / 2:
        sections.append(("network", network_lines(rng, fault)))
    for name, keys in SECTIONS.items():
        if rng.random() < 0.5:
            sections.append((name, {
                key: value(rng, valid, bad, fault)
                for key, (valid, bad) in keys.items()
                if rng.random() < 0.5
            }))
    labels = rng.sample(["jammer", "jammer.a", "jammer.1", "jammer.x.y"],
                        rng.choice([0, 0, 1, 1, 2, 3]))
    sections += [(label, jammer_lines(rng, fault)) for label in labels]
    if rng.random() < fault:
        sections.append(("turbo", {"boost": "9"}))
    if rng.random() < fault / 4:
        sections.append(("DEFAULT", {"rate": "1"}))
    for _, lines in sections:
        if rng.random() < fault / 2:
            lines["bogus"] = "1"
    rng.shuffle(sections)
    out = []
    for name, lines in sections:
        items = list(lines.items())
        rng.shuffle(items)
        out += [f"[{name}]"] + [f"{key} = {text}" for key, text in items] + [""]
    return "\n".join(out)


def assert_readers_agree(text):
    """Equal configs or equal ordered errors; a config survives both writers."""
    try:
        want = ref.parse_config(text)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            parse_config(text)
        assert got.value.errors == exc.errors
        return
    cfg = parse_config(text)
    assert cfg == want
    assert parse_config(format_config(cfg)) == cfg
    assert ref.parse_config(format_config(cfg)) == cfg
    assert parse_config(ref.format_config(cfg)) == cfg


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(st.integers(0, 2**32 - 1))
def test_matches_reference_config(seed):
    assert_readers_agree(document(Random(seed)))


def single_value_cases():
    """Every table text once, alone in an otherwise valid document."""
    grid = {"layout": "grid", "rows": "2", "cols": "2", "range": "12"}
    random = {"layout": "random", "count": "5", "range": "30"}
    jammer = {"kind": "constant", "x": "0", "y": "0", "power": "0.1"}
    random_keys = ["count"] + LAYOUT_KEYS["random"][1]
    cases = [("network", key, random if key in random_keys else grid, *texts)
             for key, texts in NETWORK.items()]
    cases += [(section, key, {}, *texts)
              for section, keys in SECTIONS.items() for key, texts in keys.items()]
    cases += [("jammer", key, jammer, *texts) for key, texts in JAMMER.items()]
    cases += [("jammer", key, {**jammer, "kind": kind}, valid, bad)
              for key, (kind, valid, bad) in JAMMER_KIND_KEYS.items()]
    for section, key, base, valid, bad in cases:
        for text in valid + bad:
            # a [network] case replaces the grid section in place
            sections = {"network": grid, section: {**base, key: text}}
            lines = []
            for name, keys in sections.items():
                lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
            yield pytest.param("\n".join(lines) + "\n", id=f"{section}.{key}={text}")


@pytest.mark.parametrize("text", single_value_cases())
def test_each_value_matches_reference_config(text):
    assert_readers_agree(text)


def test_explicit_node_ceiling_matches_reference_config():
    entries = "; ".join(f"{i},0,1,2" for i in range(MAX_NODES + 1))
    assert_readers_agree(f"[network]\nlayout = explicit\nnodes = {entries}\n")


@pytest.mark.parametrize("side", [316, 317])  # 316 * 316 <= MAX_NODES < 317 * 317
def test_grid_node_ceiling_matches_reference_config(side):
    assert_readers_agree(
        f"[network]\nlayout = grid\nrows = {side}\ncols = {side}\nrange = 12\n"
    )


@pytest.mark.parametrize("iterations", [50000, 50001])  # 20 ants by default
def test_ant_tour_ceiling_matches_reference_config(iterations):
    assert_readers_agree(
        "[network]\nlayout = grid\nrows = 2\ncols = 2\nrange = 12\n"
        f"[search]\niterations = {iterations}\n"
    )
