"""Every declared config bound, at both entrances, and the README's key list.

Each config key is declared once, on the dataclass field it fills (see
antjam.network.config_field). The cases here are generated from those
declarations: a value just outside a bound must make the dataclass refuse
it when built in code, naming the field, and make `parse_config` report
the key; a value exactly on an inclusive bound must pass both. A field's
declared choices, and the ceilings that tie fields together, hold in code
too.
"""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from antjam.ants import MAX_ANT_TOURS, SearchParams
from antjam.config import (
    MAX_NODES,
    _JAMMER_KEYS,
    _JAMMER_KIND_KEYS,
    _LAYOUT,
    _LAYOUTS,
    _SECTIONS,
    ConfigError,
    ExplicitNetworkSpec,
    GridNetworkSpec,
    JammerSpec,
    RandomNetworkSpec,
    ScenarioConfig,
    parse_config,
)
from antjam.jammers import JammerKind, RadioParams
from antjam.network import BOUNDS

README = Path(__file__).resolve().parent.parent / "README.md"

GRID = {"layout": "grid", "rows": "2", "cols": "2", "range": "12"}
# each config dataclass: a valid instance, and its document section with
# the keys that make that section valid
CLASSES = {
    RadioParams: (RadioParams(), "radio", {}),
    SearchParams: (SearchParams(), "search", {}),
    ExplicitNetworkSpec: (
        ExplicitNetworkSpec(((0.0, 0.0, 1.0, 2.0), (1.0, 0.0, 1.0, 2.0))),
        "network", {"layout": "explicit", "nodes": "0,0,1,2; 1,0,1,2"},
    ),
    GridNetworkSpec: (GridNetworkSpec(2, 2, 10.0, 12.0), "network", GRID),
    RandomNetworkSpec: (
        RandomNetworkSpec(5, 30.0), "network", {"layout": "random", "count": "5", "range": "30"},
    ),
    JammerSpec: (
        JammerSpec("constant", 0.0, 0.0, 0.1),
        "jammer", {"kind": "constant", "x": "0", "y": "0", "power": "0.1"},
    ),
    ScenarioConfig: (ScenarioConfig(GridNetworkSpec(2, 2, 10.0, 12.0)), None, {}),
}


def bound_cases():
    """(class, field, sign, bound, value, outside) for each declared bound:
    values just outside it, and, for an inclusive one, the bound itself."""
    for cls in CLASSES:
        for f in fields(cls):
            for sign, name, _ in BOUNDS:
                bound = f.metadata.get(name)
                if bound is None:
                    continue
                below = name in ("gt", "ge")  # the outside lies below the bound
                if f.type.startswith("int"):
                    outside = [bound - 1 if below else bound + 1]
                else:
                    outside = [math.nextafter(bound, -math.inf if below else math.inf)]
                if name in ("gt", "lt"):
                    outside = [bound] + [v for v in outside if v != bound]
                for value in outside:
                    yield pytest.param(cls, f, sign, bound, value, True,
                                       id=f"{cls.__name__}.{f.name}={value!r}")
                if name in ("ge", "le"):
                    yield pytest.param(cls, f, sign, bound, bound, False,
                                       id=f"{cls.__name__}.{f.name}={bound!r}")


def document(cls, f, text):
    """A valid document, but for f's key set to text."""
    _, section, lines = CLASSES[cls]
    section = section or f.metadata["section"]
    if cls is JammerSpec and "for_kind" in f.metadata:
        lines = {**lines, "kind": f.metadata["for_kind"]}
    sections = {"network": GRID, section: {**lines, f.metadata.get("key", f.name): text}}
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@pytest.mark.parametrize("cls, f, sign, bound, value, outside", bound_cases())
def test_each_bound_holds_in_code_and_in_documents(cls, f, sign, bound, value, outside):
    base, section, _ = CLASSES[cls]
    section = section or f.metadata["section"]
    key = f"{section}.{f.metadata.get('key', f.name)}"
    text = str(value)
    if outside:
        with pytest.raises(ValueError) as built:
            replace(base, **{f.name: value})
        assert str(built.value) == f"{f.name} must be {sign} {bound}, got {value}"
        with pytest.raises(ConfigError) as parsed:
            parse_config(document(cls, f, text))
        assert parsed.value.errors == [(key, f"must be {sign} {bound}, got {text}")]
    else:
        assert getattr(replace(base, **{f.name: value}), f.name) == value
        cfg = parse_config(document(cls, f, text))
        owner = {"network": cfg.network, "radio": cfg.radio, "search": cfg.search}.get(
            section, cfg.jammers[0] if section == "jammer" else cfg)
        assert getattr(owner, f.name) == value


def test_every_declared_bound_is_generated():
    cases = {(p.values[0], p.values[1].name) for p in bound_cases()}
    # 5 radio, 9 search, 1 + 6 + 7 network, 3 jammer and 8 scenario fields
    assert len(cases) == 39


def test_an_unbounded_rate_is_refused_when_built():
    # a first step() on this config would append packets until memory ran out
    cfg = ScenarioConfig(GridNetworkSpec(2, 2, 10.0, 12.0))
    with pytest.raises(ValueError) as exc:
        replace(cfg, rate=math.inf)
    assert str(exc.value) == "rate must be <= 1000, got inf"


# each ceiling that ties fields together: (a function making an instance
# that reaches n, the ceiling, the message past it)
CEILINGS = {
    "grid rows * cols": (
        lambda n: GridNetworkSpec(100, n // 100, 10.0, 12.0), MAX_NODES,
        "rows * cols must be <= {ceiling}, got {n}",
    ),
    "explicit nodes": (
        lambda n: ExplicitNetworkSpec(tuple((float(i), 0.0, 1.0, 2.0) for i in range(n))),
        MAX_NODES, "nodes must hold <= {ceiling} entries, got {n}",
    ),
    "ant tours": (
        lambda n: SearchParams(n_explorers=10, n_exploiters=10, iterations=n // 20),
        MAX_ANT_TOURS,
        "(n_explorers + n_exploiters) * iterations must be <= {ceiling}, got {n}",
    ),
}


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_each_ceiling_holds_in_code(name):
    build, ceiling, message = CEILINGS[name]
    assert ceiling % 100 == 0  # so each function reaches it exactly
    build(ceiling)
    n = ceiling + 100
    with pytest.raises(ValueError) as exc:
        build(n)
    assert str(exc.value) == message.format(ceiling=ceiling, n=n)


def test_choices_hold_in_code_and_in_documents():
    base = CLASSES[JammerSpec][0]
    for kind in JammerKind:
        assert replace(base, kind=kind.value).kind == kind.value
    kind = fields(JammerSpec)[0]
    kinds = ", ".join(kind.metadata["kind"])
    with pytest.raises(ValueError) as built:
        replace(base, kind="sweep")
    assert str(built.value) == f"kind must be one of {kinds}, got sweep"
    with pytest.raises(ConfigError) as parsed:
        parse_config(document(JammerSpec, kind, "sweep"))
    assert parsed.value.errors == [("jammer.kind", f"must be one of {kinds}; got 'sweep'")]
    with pytest.raises(ValueError) as built:
        replace(CLASSES[ScenarioConfig][0], output_format="xml")
    assert str(built.value) == "output_format must be one of json, csv, got xml"


def test_nan_breaks_every_bound():
    for cls, f, *_ in (p.values for p in bound_cases()):
        if f.type.startswith("float"):
            with pytest.raises(ValueError, match=f"^{f.name} must be "):
                replace(CLASSES[cls][0], **{f.name: math.nan})


def declared_keys():
    """Section -> every key the parser reads there."""
    keys = {"network": {_LAYOUT.name}, "jammer": {k.name for k in _JAMMER_KEYS}}
    for _, layout_keys in _LAYOUTS.values():
        keys["network"] |= {k.name for k in layout_keys}
    for kind_keys in _JAMMER_KIND_KEYS.values():
        keys["jammer"] |= {k.name for k in kind_keys}
    for name, (_, section_keys) in _SECTIONS.items():
        keys[name] = {k.name for k in section_keys}
    return keys


def test_readme_names_every_declared_key():
    text = README.read_text(encoding="utf-8")
    reference = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^### \[([a-z]+)\].*$", reference, flags=re.M)
    sections = dict(zip(parts[1::2], parts[2::2]))
    keys = declared_keys()
    assert set(keys) <= set(sections)
    missing = [
        f"{section}.{key}"
        for section, names in keys.items() for key in sorted(names)
        if f"`{key}`" not in sections[section] and f"`{key} = " not in sections[section]
    ]
    assert missing == []
