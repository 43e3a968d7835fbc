import json
import subprocess
import sys
from dataclasses import replace
from textwrap import dedent

from antjam import cli, network
from antjam.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    MAX_SEEDS,
    _parse_seed_range,
    _worker_count,
    main,
)
from antjam.config import parse_config
from antjam.engine import Simulation, run_scenario
from antjam.reporting import COMPARE_COLUMNS, SWEEP_COLUMNS, RunRow, report_json_bytes

import pytest

from test_report_corpus import CORPUS_SIZE, corpus

# two-hop detour topology: jamming the short arm at step 2 forces traffic
# onto the long one, so rerouting visibly beats the fixed-route baseline
DIAMOND_CFG = dedent(
    """
    [network]
    layout = explicit
    nodes = 0,0,100,8; 5,4,100,8; 5,-5,100,8; 10,0,100,8
    pe = 3

    [search]
    n_explorers = 4
    n_exploiters = 4
    iterations = 15

    [traffic]
    duration = 12

    [sim]
    ant_energy_cost = 0.0

    [jammer]
    kind = constant
    x = 5
    y = 4
    power = 0.004
    start = 2
    """
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(DIAMOND_CFG)
    return path


class TestSeedRange:
    def test_inclusive_range(self):
        assert _parse_seed_range("0..3") == [0, 1, 2, 3]
        assert _parse_seed_range("5..5") == [5]

    def test_rejects_bad_text(self):
        for bad in ("5", "3..1", "-1..2", "a..b"):
            with pytest.raises(ValueError):
                _parse_seed_range(bad)

    def test_ceiling_is_checked_before_the_list_is_built(self):
        assert len(_parse_seed_range(f"5..{MAX_SEEDS + 4}")) == MAX_SEEDS
        for text in (f"5..{MAX_SEEDS + 5}", f"0..{10**18}"):
            with pytest.raises(ValueError, match=f"^--seeds: at most {MAX_SEEDS} seeds"):
                _parse_seed_range(text)

    def test_every_error_names_the_flag(self, config_file, monkeypatch, capsys):
        for bad in ("5", "3..1", "-1..2", "a..b", "1..", "..2", "1..2..3"):
            with pytest.raises(ValueError, match="^--seeds: "):
                _parse_seed_range(bad)
        monkeypatch.setattr(cli, "_run_batch", None)  # nothing may run
        for command in ("sweep", "compare"):
            code = main([command, "--config", str(config_file), "--seeds", "a..b"])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "error: --seeds: expected <a>..<b>, got 'a..b'\n"
            )

    def test_too_many_seeds_is_config_error(self, config_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_run_batch", None)  # nothing may run
        for command in ("sweep", "compare"):
            code = main([command, "--config", str(config_file), "--seeds", f"0..{10**18}"])
            assert code == EXIT_CONFIG
            assert "error: --seeds: at most" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_json_report(self, config_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(config_file), "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        expected = report_json_bytes(run_scenario(parse_config(DIAMOND_CFG), 1))
        assert out.read_bytes() == expected
        parsed = json.loads(out.read_text())
        assert parsed["seed"] == 1
        assert parsed["reroutes"] == 1

    def test_csv_format_flag(self, config_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(config_file), "--seed", "1",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2

    def test_stdout_by_default(self, config_file, capsysbinary):
        code = main(["run", "--config", str(config_file), "--seed", "1"])
        assert code == EXIT_OK
        payload = capsysbinary.readouterr().out
        assert json.loads(payload)["seed"] == 1

    def test_config_output_path_honored(self, tmp_path, monkeypatch):
        cfg_text = DIAMOND_CFG + "\n[output]\npath = from_config.json\n"
        path = tmp_path / "scenario.cfg"
        path.write_text(cfg_text)
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--config", str(path), "--seed", "1"])
        assert code == EXIT_OK
        assert (tmp_path / "from_config.json").exists()

    def test_repeat_runs_are_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", str(config_file), "--seed", "7", "--out", str(a)])
        main(["run", "--config", str(config_file), "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_row_per_seed_plus_trailers(self, config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config_file),
                     "--seeds", "0..4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 + 3
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert [line.split(",")[0] for line in lines[1:6]] == [
            "0", "1", "2", "3", "4"
        ]
        assert [line.split(",")[0] for line in lines[6:]] == [
            "mean", "min", "max"
        ]

    def test_bad_seed_range_is_config_error(self, config_file, tmp_path, capsys):
        code = main(["sweep", "--config", str(config_file), "--seeds", "9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_parallel_workers_match_serial_bytes(self, config_file, tmp_path,
                                                 monkeypatch):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        monkeypatch.setenv("ANTJAM_WORKERS", "1")
        main(["sweep", "--config", str(config_file), "--seeds", "0..3",
              "--out", str(serial)])
        monkeypatch.setenv("ANTJAM_WORKERS", "2")
        main(["sweep", "--config", str(config_file), "--seeds", "0..3",
              "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()


def separate_runs(config, seed):
    """A seed's (reroute on, reroute off) rows, each from a setup of its own."""
    return tuple(
        RunRow.of(run_scenario(replace(config, reroute=on), seed))
        for on in (True, False)
    )


class TestBatch:
    def test_batch_returns_rows_not_reports(self):
        config = parse_config(DIAMOND_CFG)
        rows = cli._run_batch(cli._run_row, config, [1, 2])
        assert rows == [RunRow.of(run_scenario(config, seed)) for seed in (1, 2)]
        assert all(type(row) is RunRow for row in rows)

    def test_compare_batch_returns_row_pairs_not_reports(self):
        config = parse_config(DIAMOND_CFG)
        pairs = cli._run_batch(cli._run_pair, config, [1, 2])
        assert pairs == [separate_runs(config, seed) for seed in (1, 2)]
        assert all(type(row) is RunRow for pair in pairs for row in pair)

    @pytest.mark.parametrize("k", range(CORPUS_SIZE))
    def test_pair_equals_two_separate_runs(self, k):
        config, seed = corpus()[k]
        assert cli._run_pair(config, seed) == separate_runs(config, seed)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "raw, cpus, expected",
        [
            (None, 8, 1),
            ("4", 8, 4),
            ("64", 8, 8),
            ("1000000", 2, 2),
            ("3", None, 1),
            ("0", 8, 1),
            ("-5", 8, 1),
        ],
    )
    def test_clamped_to_cpu_count(self, monkeypatch, raw, cpus, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        if raw is None:
            monkeypatch.delenv("ANTJAM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ANTJAM_WORKERS", raw)
        assert _worker_count() == expected

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("ANTJAM_WORKERS", "many")
        with pytest.raises(ValueError):
            _worker_count()


class TestCompareCommand:
    def test_rerouting_beats_baseline_per_seed(self, config_file, tmp_path):
        out = tmp_path / "compare.csv"
        code = main(["compare", "--config", str(config_file),
                     "--seeds", "0..2", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(COMPARE_COLUMNS)
        assert len(lines) == 4
        for line in lines[1:]:
            fields = dict(zip(COMPARE_COLUMNS, line.split(",")))
            assert float(fields["delta_pdr"]) > 0.0
            assert float(fields["pdr_reroute"]) > float(fields["pdr_baseline"])
            assert int(fields["reroutes"]) >= 1

    def test_parallel_workers_match_serial_bytes(self, config_file, tmp_path,
                                                 monkeypatch):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        monkeypatch.setenv("ANTJAM_WORKERS", "1")
        main(["compare", "--config", str(config_file), "--seeds", "0..2",
              "--out", str(serial)])
        monkeypatch.setenv("ANTJAM_WORKERS", "2")
        main(["compare", "--config", str(config_file), "--seeds", "0..2",
              "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sets_each_seed_up_once(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ANTJAM_WORKERS", "1")
        built = []
        init = Simulation.__init__

        def counted_init(sim, config, seed):
            built.append(seed)
            init(sim, config, seed)

        monkeypatch.setattr(Simulation, "__init__", counted_init)
        code = main(["compare", "--config", str(config_file), "--seeds", "0..2",
                     "--out", str(tmp_path / "compare.csv")])
        assert code == EXIT_OK
        assert built == [0, 1, 2]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--seed", "1"])
        assert code == EXIT_IO
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_lists_keys(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(
            DIAMOND_CFG.replace("iterations = 15", "iterations = 15\nrho = 1.5")
        )
        code = main(["run", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: search.rho:" in err

    def test_link_ceiling_is_config_error(self, config_file, monkeypatch, capsys):
        monkeypatch.setattr(network, "MAX_LINKS", 6)  # the diamond has 8
        code = main(["run", "--config", str(config_file), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "error: network exceeds 6 directed links" in capsys.readouterr().err

    def test_huge_rate_is_config_error(self, tmp_path, monkeypatch, capsys):
        # such a rate never finished a step; it must stop at parse time
        monkeypatch.setattr(cli, "run_scenario", None)  # nothing may run
        path = tmp_path / "flood.cfg"
        path.write_text(
            DIAMOND_CFG.replace("duration = 12", "duration = 12\nrate = 1e300")
        )
        code = main(["run", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: traffic.rate: must be <= 1000, got 1e300" in err

    def test_overflow_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "steep.cfg"
        path.write_text(
            DIAMOND_CFG.replace(
                "iterations = 15", "iterations = 15\nalpha = 100000\nphi0 = 2"
            )
        )
        code = main(["run", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "[search] alpha = 100000.0, beta = 1.0" in err

    @pytest.mark.parametrize(
        "extra, keys",
        [
            # NaN noise hid the jam: exit 0 and jammed_peak 0
            ("[radio]\ntx_power = inf\n[jammer]\npower = inf\n",
             ["radio.tx_power", "jammer.power"]),
            # inf * a gain of 0 gave a NaN quality factor that named no key
            ("[radio]\ngamma = 2000\n[jammer]\npower = inf\n", ["jammer.power"]),
            # transition probabilities summed to NaN
            ("[search]\nalpha = inf\n[jammer]\npower = 1\n", ["search.alpha"]),
        ],
        ids=["tx-power-and-jammer-power", "jammer-power-steep-gamma", "alpha"],
    )
    def test_infinite_value_names_the_key(self, tmp_path, capsys, extra, keys):
        # a 3x3 grid with a constant jammer on its middle node
        path = tmp_path / "inf.cfg"
        path.write_text(
            "[network]\nlayout = grid\nrows = 3\ncols = 3\nrange = 12\n"
            "[traffic]\nduration = 5\n" + extra + "kind = constant\nx = 10\ny = 10\n"
        )
        code = main(["run", "--config", str(path), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key}: must be < inf, got inf" for key in keys
        ]

    @pytest.mark.parametrize(
        "area, reason",
        [
            # 10 nodes in an area that holds 4 distinct points
            ("width = 5e-324\nheight = 5e-324\nrange = 1",
             "share coordinates"),
            ("range = 0.001", "no connected placement found in 200 tries"),
        ],
        ids=["tiny-area", "short-range"],
    )
    def test_failed_placement_is_config_error(self, tmp_path, area, reason, child_env):
        path = tmp_path / "field.cfg"
        path.write_text(f"[network]\nlayout = random\ncount = 10\n{area}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "antjam", "run", "--config", str(path), "--seed", "1"],
            capture_output=True, text=True, timeout=60, env=child_env,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and reason in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_output(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file), "--seed", "1",
                     "--out", str(tmp_path / "missing_dir" / "out.json")])
        assert code == EXIT_IO
        assert "cannot write output" in capsys.readouterr().err


def test_module_invocation_matches_library(config_file, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "antjam", "run",
         "--config", str(config_file), "--seed", "5"],
        capture_output=True, env=child_env,
    )
    assert proc.returncode == EXIT_OK
    expected = report_json_bytes(run_scenario(parse_config(config_file.read_text()), 5))
    assert proc.stdout == expected


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_output_does_not_depend_on_hash_seed(config_file, command, child_env):
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "antjam", command,
             "--config", str(config_file), "--seeds", "1..3"],
            capture_output=True,
            env={**child_env, "PYTHONHASHSEED": hash_seed},
            check=True,
        ).stdout
        for hash_seed in ("0", "12345")
    ]
    assert outputs[0] == outputs[1]
    rows = outputs[0].splitlines()[1:4]
    assert [row.split(b",")[0] for row in rows] == [b"1", b"2", b"3"]
