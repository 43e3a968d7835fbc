#!/usr/bin/env python3
"""Benchmark for antjam: seeded scenario workloads through the public API.

    python3 bench/run.py --workload grid49 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Each scenario goes config text -> `parse_config` -> `Simulation(config,
seed)` -> `run()` -> `report_json_bytes`, one after another in one process
and thread (a closed loop with one caller). Every report is checked, and a
scenario that breaks a check counts as failed.

`--trace 0` runs whole units until `--seconds` is used up and prints the
end-to-end metrics. `--trace 1` runs the workload's fixed block of units
twice, once with spans recorded around each layer's entry points (see
tracer.py) and once without, alternating, and prints per-layer self times
and work counts; the block is fixed so that counts repeat exactly for a
seed and per-layer figures compare across commits. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Standard library only. Imports antjam from the `src/` directory next to
this one and refuses to run without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer  # bench/ is the script's directory
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

# end-to-end metric -> unit, in print order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# span name -> per-layer self-time metric
SELF_TIME = {
    "config.parse": "config.parse_s",
    "config.resolve": "config.resolve_s",
    "network.build": "network.build_s",
    "jammers.sample_radio": "jammers.sample_radio_s",
    "jammers.flags": "jammers.flags_s",
    "jammers.deceptive_victims": "jammers.deceptive_victims_s",
    "metrics.quality_table": "metrics.quality_table_s",
    "ants.search": "ants.search_s",
    "engine.setup": "engine.setup_self_s",
    "engine.run": "engine.run_self_s",
    "engine.step": "engine.step_self_s",
    "engine.reroute": "engine.reroute_self_s",
    "engine.report": "engine.report_s",
    "reporting.serialize": "reporting.serialize_s",
}

# tracer count keys reported as they are
COUNTS = (
    "network.build_calls",
    "network.links",
    "jammers.sample_radio_calls",
    "jammers.node_samples",
    "jammers.flagged_node_steps",
    "metrics.quality_tables",
    "metrics.links_scored",
    "ants.searches",
    "ants.tours",
    "ants.hops",
    "reporting.bytes",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no antjam sources next to it)."""


def load_antjam() -> SimpleNamespace:
    """Import antjam from ROOT/src, and from nowhere else."""
    if not (SRC / "antjam" / "__init__.py").is_file():
        raise SetupError(f"antjam sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import antjam.config
    import antjam.engine
    import antjam.reporting

    found = Path(antjam.__file__).resolve().parent
    if found != SRC / "antjam":
        raise SetupError(f"imported antjam from {found}, expected {SRC / 'antjam'}")
    return SimpleNamespace(
        config=antjam.config, engine=antjam.engine, reporting=antjam.reporting
    )


# ----- one scenario -------------------------------------------------------


@dataclass
class Scenario:
    seed: int
    wall_s: float  # config text to report bytes
    setup_s: float  # parse_config + Simulation(...)
    run_s: float  # Simulation.run(): stepping, rerouting, RunReport
    steps: int
    report_sha256: str
    packet_hops: int
    reroutes: int
    deaths: int
    problems: list[str] = field(default_factory=list)


def check_report(data: bytes) -> list[str]:
    """Invariants every serialized report must hold; [] when it is sound."""
    try:
        doc = json.loads(data)
        problems = []
        for t, sent, delivered, dropped, in_flight, _flagged in doc["trace"]:
            if sent != delivered + dropped + in_flight:
                problems.append(
                    f"step {t}: sent {sent} != delivered {delivered} + "
                    f"dropped {dropped} + in_flight {in_flight}"
                )
                break
        if doc["sent"] != doc["delivered"] + doc["dropped"] + doc["in_flight"]:
            problems.append("final counts do not conserve packets")
        negative = [k for k, v in doc["energy_spent"].items() if v < 0]
        if negative:
            problems.append(f"negative energy_spent at nodes {negative[:5]}")
        if not 0.0 <= doc["pdr"] <= 1.0:
            problems.append(f"pdr {doc['pdr']} outside [0, 1]")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def run_scenario(api: SimpleNamespace, text: str, seed: int) -> Scenario:
    t0 = perf_counter()
    cfg = api.config.parse_config(text)
    sim = api.engine.Simulation(cfg, seed)
    t1 = perf_counter()
    report = sim.run()
    t2 = perf_counter()
    data = api.reporting.report_json_bytes(report)
    t3 = perf_counter()
    return Scenario(
        seed=seed,
        wall_s=t3 - t0,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        steps=cfg.duration,
        report_sha256=hashlib.sha256(data).hexdigest(),
        packet_hops=sum(c.attempts for c in sim.state.counters.values()),
        reroutes=sim.state.reroutes,
        deaths=sum(not n.alive for n in sim.net.nodes.values()),
        problems=check_report(data),
    )


def run_unit(api, workload: Workload, seed: int) -> list[Scenario]:
    return [run_scenario(api, text, seed) for text in workload.unit]


# ----- statistics ---------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples above it, or the median (50) when no percentile above the
    median has that many."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k < (n - 1) // 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * (k + 1) / n, ordered[k]


def digest(units: list[list[Scenario]]) -> str:
    """sha256 over the reports' sha256 digests, in run order."""
    h = hashlib.sha256()
    for unit in units:
        for sc in unit:
            h.update(sc.report_sha256.encode())
    return h.hexdigest()


def failures(units: list[list[Scenario]]) -> list[str]:
    return [
        f"seed {sc.seed}: {problem}"
        for unit in units
        for sc in unit
        for problem in sc.problems
    ]


# ----- the two kinds of run -----------------------------------------------


def measure(api, workload: Workload, seed: int, seconds: float) -> list[list[Scenario]]:
    """Untraced units from run seed `seed` upward, until `seconds` is spent.

    A unit starts while at least half a median unit still fits, so a run
    overshoots by at most half a unit; there is always at least one.
    """
    units: list[list[Scenario]] = []
    start = perf_counter()
    while True:
        units.append(run_unit(api, workload, seed + len(units)))
        typical = statistics.median(sum(s.wall_s for s in u) for u in units)
        if perf_counter() - start + typical / 2 > seconds:
            return units


def end_to_end(units: list[list[Scenario]]) -> dict[str, float]:
    scenarios = [sc for unit in units for sc in unit]
    return {
        "wall_s": statistics.median(sum(s.wall_s for s in u) for u in units),
        "setup_s": statistics.median(sum(s.setup_s for s in u) for u in units),
        "steps_per_s": sum(s.steps for s in scenarios)
        / sum(s.run_s for s in scenarios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_block(api, workload: Workload, seed: int, units: int | None = None):
    """The workload's fixed block, each unit traced then untraced.

    Returns (tracer, traced units, untraced units). A traced report that
    differs from its untraced twin is a failure of the traced scenario.
    """
    tracer = Tracer()
    traced: list[list[Scenario]] = []
    plain: list[list[Scenario]] = []
    for k in range(workload.trace_units if units is None else units):
        tracer.unit = k
        with tracer:
            traced.append(run_unit(api, workload, seed + k))
        plain.append(run_unit(api, workload, seed + k))
        for a, b in zip(traced[-1], plain[-1]):
            if a.report_sha256 != b.report_sha256:
                a.problems.append("traced and untraced report bytes differ")
    return tracer, traced, plain


def per_layer(tracer: Tracer, traced, plain) -> dict[str, float]:
    scenarios = [sc for unit in traced for sc in unit]
    wall = sum(sc.wall_s for sc in scenarios)
    own = tracer.self_times()
    counts = tracer.counts
    searches = tracer.durations("ants.search")  # every source searches at setup
    tail_pct, tail_s = tail(searches)
    out = {metric: own[span] for span, metric in SELF_TIME.items()}
    out.update({key: counts[key] for key in COUNTS})
    out.update(
        {
            "ants.search_s_median": statistics.median(searches),
            "ants.search_s_tail": tail_s,
            "ants.search_s_tail_pct": tail_pct,
            "ants.tour_success_ratio": counts["ants.successful_tours"]
            / counts["ants.tours"],
            "ants.hops_per_s": counts["ants.hops"] / own["ants.search"],
            "engine.steps": sum(sc.steps for sc in scenarios),
            "engine.packet_hops": sum(sc.packet_hops for sc in scenarios),
            "engine.reroutes": sum(sc.reroutes for sc in scenarios),
            "engine.deaths": sum(sc.deaths for sc in scenarios),
            "trace.units": len(traced),
            "trace.spans": len(tracer.spans),
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(own.values()),
            "trace.overhead_s": wall - sum(sc.wall_s for u in plain for sc in u),
        }
    )
    return out


PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME.values()},
    **{key: "count" for key in COUNTS},
    "ants.search_s_median": "s",
    "ants.search_s_tail": "s",
    "ants.search_s_tail_pct": "%",
    "ants.tour_success_ratio": "ratio",
    "ants.hops_per_s": "1/s",
    "engine.steps": "count",
    "engine.packet_hops": "count",
    "engine.reroutes": "count",
    "engine.deaths": "count",
    "trace.units": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


# ----- output -------------------------------------------------------------


def machine_stamp() -> str:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"nproc={cpus} python={platform.python_version()} loadavg={load}"


def result_line(units, metrics: dict[str, float], units_of: dict[str, str]) -> str:
    scenarios = [sc for unit in units for sc in unit]
    failed = sum(1 for sc in scenarios if sc.problems)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(scenarios),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units_of[name]}
                for name, value in metrics.items()
            },
        }
    )


def bench_one(api, workload: Workload, seed: int, seconds: float,
              trace: bool) -> int:
    print(f"bench workload={workload.name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"machine at start: {machine_stamp()}")
    if trace:
        tracer, units, plain = traced_block(api, workload, seed)
        metrics = per_layer(tracer, units, plain)
        units_of = PER_LAYER_UNITS
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.csv"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        units = measure(api, workload, seed, seconds)
        metrics = end_to_end(units)
        units_of = END_TO_END
        walls = [sum(s.wall_s for s in u) for u in units]
        pct, value = tail(walls)
        print(f"units: {len(units)} ({len(workload.unit)} scenario(s) each), "
              f"run seeds {seed}..{seed + len(units) - 1}; "
              f"unit wall p{pct:.0f} {value:.4f} s over {len(walls)} samples")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units_of[name]}")
    problems = failures(units)
    for problem in problems:
        print(f"FAILED {problem}")
    scenarios = [sc for unit in units for sc in unit]
    print(f"scenarios_failed = {sum(1 for sc in scenarios if sc.problems)} "
          f"of {len(scenarios)} scenarios")
    for sc in units[0]:
        print(f"report_sha256 seed={sc.seed} {sc.report_sha256}")
    print(f"report_sha256 combined over {len(scenarios)} scenarios "
          f"{digest(units)}")
    print(f"machine at end: {machine_stamp()}")
    print(result_line(units, metrics, units_of), flush=True)
    return 0 if not problems else 1


def bench_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        api = load_antjam()
        if args.workload == "all":
            return bench_all(args.seed, args.seconds, bool(args.trace))
        return bench_one(api, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
