"""Spans around antjam's layer boundaries, recorded from outside the package.

The tracer swaps module attributes for timing wrappers: the names
`antjam.engine` binds from the other modules, `antjam.network.build_network`
(which the grid and random layouts call, once per placement attempt), the
`Simulation` methods the benchmark drives, and the three public entry
points the benchmark itself calls. Nothing under `src/` changes. A name
that has gone missing raises `TracerError` instead of reading as a layer
that took no time.

Spans are kept in memory as flat rows and written out once, at the end.
"""

from __future__ import annotations

import csv
import importlib
from collections import Counter
from time import perf_counter
from typing import Callable, Sequence

# (count key, function of (call args, result) giving the increment)
CountRule = tuple[str, Callable[[tuple, object], int]]


def _search_tours(args: tuple, result) -> int:
    params = args[3]
    return len(result.stats) * (params.n_explorers + params.n_exploiters)


# (module, attribute, span name, count rules). The span name is
# "<layer>.<what>"; a layer's self time sums over every span of that name.
BOUNDARIES: Sequence[tuple[str, str, str, Sequence[CountRule]]] = (
    ("antjam.config", "parse_config", "config.parse", ()),
    ("antjam.engine", "build_jammers", "config.resolve", ()),
    ("antjam.engine", "resolve_totals", "config.resolve", ()),
    ("antjam.engine", "resolve_sources", "config.resolve", ()),
    ("antjam.engine", "build_scenario_network", "network.build",
     (("network.links", lambda a, net: len(net.links)),)),
    ("antjam.network", "build_network", "network.build",
     (("network.build_calls", lambda a, net: 1),)),
    ("antjam.engine", "sample_radio", "jammers.sample_radio",
     (("jammers.sample_radio_calls", lambda a, s: 1),
      ("jammers.node_samples", lambda a, s: len(s)))),
    ("antjam.engine", "jammed_from_samples", "jammers.flags",
     (("jammers.flagged_node_steps", lambda a, s: len(s)),)),
    ("antjam.engine", "deceptive_victims", "jammers.deceptive_victims", ()),
    ("antjam.engine", "build_link_metrics", "metrics.quality_table",
     (("metrics.quality_tables", lambda a, t: 1),
      ("metrics.links_scored", lambda a, t: len(t)))),
    ("antjam.engine", "quality_from_metrics", "metrics.quality_table", ()),
    ("antjam.engine", "run_search", "ants.search",
     (("ants.searches", lambda a, r: 1),
      ("ants.tours", _search_tours),
      ("ants.successful_tours", lambda a, r: sum(s.successes for s in r.stats)),
      ("ants.hops", lambda a, r: sum(r.transmit_counts.values())))),
    ("antjam.engine.Simulation", "__init__", "engine.setup", ()),
    ("antjam.engine.Simulation", "run", "engine.run", ()),
    ("antjam.engine.Simulation", "step", "engine.step", ()),
    ("antjam.engine.Simulation", "detect_and_reroute", "engine.reroute", ()),
    ("antjam.engine.Simulation", "report", "engine.report", ()),
    ("antjam.reporting", "report_json_bytes", "reporting.serialize",
     (("reporting.bytes", lambda a, b: len(b)),)),
)


class TracerError(RuntimeError):
    """A traced name is missing, so its layer cannot be measured."""


def _resolve(target: str):
    """Import "pkg.mod" or "pkg.mod.Class" and return the object."""
    module_name, _, last = target.rpartition(".")
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        pass
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        raise TracerError(f"cannot import {target}") from None
    try:
        return getattr(owner, last)
    except AttributeError:
        raise TracerError(f"{module_name} has no attribute {last}") from None


class Tracer:
    """Install with `with Tracer() as tracer:`; spans accumulate until exit.

    Each span row is [name, start, end, parent index, unit]. `unit` is set by
    the caller and groups the spans of one scenario unit, the way spans of one
    request share an identifier.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.unit = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, rules: Sequence[CountRule]):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            spans.append(row)
            stack.append(idx)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            for key, rule in rules:
                counts[key] += rule(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for target, attr, name, rules in self.boundaries:
                owner = _resolve(target)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if not callable(original):
                    raise TracerError(f"{target}.{attr} is missing")
                setattr(owner, attr, self._wrap(name, original, rules))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Counter[str]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for (name, start, end, _parent, _unit), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _u in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "unit", "parent", "name", "start", "end"])
            for idx, (name, start, end, parent, unit) in enumerate(self.spans):
                out.writerow([idx, unit, parent, name, repr(start), repr(end)])
