"""Command line front end: run, sweep, and compare subcommands.

Exit codes: 0 success, 2 configuration error, 3 I/O error. The only
environment variable read is ANTJAM_WORKERS (sweep/compare worker count).
A `--seeds` range may hold at most MAX_SEEDS seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .config import ConfigError, ScenarioConfig, parse_config
from .engine import Simulation, run_scenario
from .reporting import RunRow, compare_csv_bytes, emit_report, sweep_csv_bytes, write_bytes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# most seeds one sweep or compare runs; checked before the seed list is built
MAX_SEEDS = 10_000


def _parse_seed_range(text: str) -> list[int]:
    """The seeds of an inclusive range a..b; every error names --seeds."""
    lo_text, _, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text, 10), int(hi_text, 10)
    except ValueError:
        raise ValueError(f"--seeds: expected <a>..<b>, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"--seeds: need 0 <= a <= b, got {text!r}")
    if hi - lo >= MAX_SEEDS:
        raise ValueError(f"--seeds: at most {MAX_SEEDS} seeds, got {text!r}")
    return list(range(lo, hi + 1))


def _load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _worker_count() -> int:
    """ANTJAM_WORKERS, clamped to [1, CPUs this process may use]; 1 when unset."""
    raw = os.environ.get("ANTJAM_WORKERS", "1")
    try:
        count = int(raw, 10)
    except ValueError:
        raise ValueError(f"ANTJAM_WORKERS must be an integer, got {raw!r}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(count, cpus))


def _run_row(config: ScenarioConfig, seed: int) -> RunRow:
    return RunRow.of(run_scenario(config, seed))


def _run_pair(config: ScenarioConfig, seed: int) -> tuple[RunRow, RunRow]:
    """One seed's (reroute on, reroute off) rows, both from one setup."""
    sim = Simulation(dataclasses.replace(config, reroute=True), seed)
    setup = pickle.dumps(sim)  # setup reads no `reroute`: the baseline starts here
    enabled = RunRow.of(sim.run())
    del sim  # the rerouting run is released before its copy is loaded
    sim = pickle.loads(setup)
    sim.config = dataclasses.replace(config, reroute=False)
    return enabled, RunRow.of(sim.run())


def _run_batch(job, config: ScenarioConfig, seeds: list[int]) -> list:
    """job(config, seed) for each seed, in order; only its rows leave a worker."""
    workers = min(_worker_count(), len(seeds))
    run = partial(job, config)
    if workers == 1:
        return list(map(run, seeds))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, seeds))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antjam",
        description="Jamming-aware sensor network simulator with ant route search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded scenario")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", required=True, type=int)
    run_p.add_argument("--format", choices=("json", "csv"), default=None)
    run_p.add_argument("--out", default=None)

    sweep_p = sub.add_parser("sweep", help="run a seed range, one CSV row per seed")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--seeds", required=True, help="inclusive range a..b")
    sweep_p.add_argument("--out", default=None)

    cmp_p = sub.add_parser(
        "compare", help="paired runs with rerouting on and off per seed"
    )
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--seeds", required=True, help="inclusive range a..b")
    cmp_p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        for key, reason in exc.errors:
            print(f"config error: {key}: {reason}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            report = run_scenario(config, args.seed)
            fmt = args.format or config.output_format
            destination = args.out or config.output_path
            emit_report(report, fmt, destination)
        else:
            seeds = _parse_seed_range(args.seeds)
            if args.command == "sweep":
                payload = sweep_csv_bytes(_run_batch(_run_row, config, seeds))
            else:
                payload = compare_csv_bytes(_run_batch(_run_pair, config, seeds))
            write_bytes(payload, args.out or config.output_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # from the ants' pheromone and distance powers
        s = config.search
        print(
            f"error: ant weights overflow with [search] alpha = {s.alpha!r}, "
            f"beta = {s.beta!r}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
