import math
from textwrap import dedent

import pytest

import reference_config as ref
from antjam.config import (
    MAX_ANT_TOURS,
    MAX_DURATION,
    MAX_NODES,
    MAX_RATE,
    ConfigError,
    ExplicitNetworkSpec,
    GridNetworkSpec,
    RandomNetworkSpec,
    ScenarioConfig,
    build_jammers,
    build_scenario_network,
    format_config,
    parse_config,
    resolve_sources,
    resolve_totals,
)
from antjam.jammers import JammerKind

MINIMAL = dedent(
    """
    [network]
    layout = grid
    rows = 2
    cols = 2
    range = 12
    """
)

FULL = dedent(
    """
    [network]
    layout = random
    count = 12
    range = 30
    width = 80
    height = 60
    energy = 500
    pe = 3
    placement_seed = 7
    connected = on

    [radio]
    floor = 1e-8
    tx_power = 0.2
    d0 = 2.0
    gamma = 2.5
    debounce = 3

    [metrics]
    snr_total = 12
    total_hops = 14
    energy_capacity = 600

    [search]
    q = 2.0
    rho = 0.3
    alpha = 1.5
    beta = 2.0
    n_explorers = 6
    n_exploiters = 5
    iterations = 40
    phi0 = 0.5
    psl_delta = 0.2

    [traffic]
    sources = 1, 2
    rate = 0.5
    duration = 250

    [sim]
    packet_energy_cost = 0.1
    ant_energy_cost = 0.01
    rx_energy_cost = 0.2
    reroute = on
    restore_routes = on

    [output]
    format = csv
    path = out.csv

    [jammer.alpha]
    kind = constant
    x = 10
    y = 20
    power = 0.3
    start = 5

    [jammer.beta]
    kind = random
    x = 0
    y = 0
    power = 0.2
    sleep = 2..4
    jam = 1..3

    [jammer.gamma]
    kind = reactive
    x = 5
    y = 5
    power = 0.1
    sense_range = 25

    [jammer.delta]
    kind = deceptive
    x = 1
    y = 1
    power = 0.15
    """
)


def errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


class TestParsing:
    def test_minimal_grid_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.network == GridNetworkSpec(
            rows=2, cols=2, spacing=10.0, radio_range=12.0, energy=1e6, pe=0
        )
        assert cfg.jammers == ()
        assert cfg.radio.floor == 1e-9
        assert cfg.radio.debounce == 1
        assert cfg.search.rho == 0.5
        assert cfg.snr_total == 10.0
        assert cfg.total_hops is None
        assert cfg.sources is None
        assert cfg.rate == 1.0
        assert cfg.duration == 100
        assert cfg.reroute is True
        assert cfg.restore_routes is False
        assert cfg.output_format == "json"
        assert cfg.output_path is None

    def test_full_document(self):
        cfg = parse_config(FULL)
        assert cfg.network == RandomNetworkSpec(
            count=12, radio_range=30.0, width=80.0, height=60.0, energy=500.0,
            pe=3, placement_seed=7, connected=True,
        )
        assert cfg.radio.floor == 1e-8
        assert cfg.radio.debounce == 3
        assert cfg.snr_total == 12.0
        assert cfg.total_hops == 14.0
        assert cfg.energy_capacity == 600.0
        assert cfg.search.q == 2.0
        assert cfg.search.n_exploiters == 5
        assert cfg.search.psl_delta == 0.2
        assert cfg.sources == (1, 2)
        assert cfg.rate == 0.5
        assert cfg.duration == 250
        assert cfg.restore_routes is True
        assert cfg.output_format == "csv"
        assert cfg.output_path == "out.csv"
        kinds = [j.kind for j in cfg.jammers]
        assert kinds == ["constant", "random", "reactive", "deceptive"]
        assert cfg.jammers[0].start == 5
        assert cfg.jammers[1].sleep == (2, 4)
        assert cfg.jammers[1].jam == (1, 3)
        assert cfg.jammers[2].sense_range == 25.0
        assert cfg.jammers[3].sense_range == math.inf

    def test_explicit_layout(self):
        cfg = parse_config(
            dedent(
                """
                [network]
                layout = explicit
                nodes = 0,0,100,12; 10,0,100,12; 20,0,100,12
                pe = 2
                """
            )
        )
        assert isinstance(cfg.network, ExplicitNetworkSpec)
        assert cfg.network.nodes == (
            (0.0, 0.0, 100.0, 12.0),
            (10.0, 0.0, 100.0, 12.0),
            (20.0, 0.0, 100.0, 12.0),
        )
        assert cfg.network.pe == 2

    def test_step_range_single_integer(self):
        text = MINIMAL + dedent(
            """
            [jammer]
            kind = random
            x = 0
            y = 0
            power = 0.1
            sleep = 3
            jam = 2
            """
        )
        cfg = parse_config(text)
        assert cfg.jammers[0].sleep == (3, 3)
        assert cfg.jammers[0].jam == (2, 2)

    def test_boolean_spellings(self):
        for text, expected in (
            ("on", True), ("true", True), ("yes", True), ("1", True),
            ("off", False), ("false", False), ("no", False), ("0", False),
        ):
            cfg = parse_config(MINIMAL + f"\n[sim]\nreroute = {text}\n")
            assert cfg.reroute is expected


class TestErrors:
    def test_rho_out_of_bounds_names_the_key(self):
        errors = errors_of(MINIMAL + "\n[search]\nrho = 1.5\n")
        assert len(errors) == 1
        key, reason = errors[0]
        assert key == "search.rho"
        assert "<= 1.0" in reason and "1.5" in reason

    def test_unsupported_jammer_kind(self):
        errors = errors_of(
            MINIMAL + "\n[jammer]\nkind = sweep\nx = 0\ny = 0\npower = 0.1\n"
        )
        assert any(
            key == "jammer.kind" and "'sweep'" in reason
            for key, reason in errors
        )

    def test_unknown_key_and_section(self):
        errors = errors_of(MINIMAL + "\n[turbo]\nboost = 9\n")
        assert ("turbo", "unknown section") in errors
        errors = errors_of(
            MINIMAL.replace("range = 12", "range = 12\nbogus = 3")
        )
        assert ("network.bogus", "unknown key") in errors

    def test_missing_network_section(self):
        errors = errors_of("[search]\nrho = 0.4\n")
        assert ("network", "required section is missing") in errors

    def test_missing_required_key(self):
        errors = errors_of("[network]\nlayout = grid\ncols = 2\nrange = 12\n")
        assert ("network.rows", "required key is missing") in errors

    def test_problems_accumulate(self):
        text = dedent(
            """
            [network]
            layout = grid
            rows = 2
            cols = 2
            range = 12

            [search]
            rho = 1.5
            iterations = 0

            [radio]
            floor = 0
            """
        )
        errors = errors_of(text)
        assert {key for key, _ in errors} == {
            "search.rho", "search.iterations", "radio.floor"
        }

    def test_source_validation(self):
        errors = errors_of(MINIMAL + "\n[traffic]\nsources = 7\n")
        assert any(
            key == "traffic.sources" and "out of range" in reason
            for key, reason in errors
        )
        errors = errors_of(MINIMAL + "\n[traffic]\nsources = 0\n")
        assert any(
            key == "traffic.sources" and "processing element" in reason
            for key, reason in errors
        )

    @pytest.mark.parametrize("key", ["snr_total", "total_hops", "energy_capacity"])
    def test_infinite_metrics_total_names_the_key(self, key):
        # an infinite total used to fail every run late, on a NaN factor
        text = MINIMAL + f"\n[metrics]\n{key} = inf\n"
        expected = [(f"metrics.{key}", "must be < inf, got inf")]
        assert errors_of(text) == expected
        with pytest.raises(ConfigError) as excinfo:
            ref.parse_config(text)
        assert excinfo.value.errors == expected
        cfg = parse_config(MINIMAL + f"\n[metrics]\n{key} = 1e308\n")
        assert getattr(cfg, key) == 1e308

    @pytest.mark.parametrize("key", ["q", "phi0", "alpha", "beta"])
    def test_infinite_search_value_names_the_key(self, key):
        # an infinite q, phi0, alpha or beta used to fail a run late, on a
        # NaN sum
        text = MINIMAL + f"\n[search]\n{key} = inf\n"
        expected = [(f"search.{key}", "must be < inf, got inf")]
        assert errors_of(text) == expected
        with pytest.raises(ConfigError) as excinfo:
            ref.parse_config(text)
        assert excinfo.value.errors == expected
        cfg = parse_config(MINIMAL + f"\n[search]\n{key} = 1e308\n")
        assert getattr(cfg.search, key) == 1e308

    def test_cycle_keys_rejected_for_non_random_kinds(self):
        errors = errors_of(
            MINIMAL + "\n[jammer]\nkind = constant\nx = 0\ny = 0\n"
            "power = 0.1\nsleep = 2\n"
        )
        assert ("jammer.sleep", "unknown key") in errors

    def test_bad_step_ranges(self):
        for bad in ("0..2", "5..3", "x..y"):
            errors = errors_of(
                MINIMAL + f"\n[jammer]\nkind = random\nx = 0\ny = 0\n"
                f"power = 0.1\nsleep = {bad}\n"
            )
            assert any(key == "jammer.sleep" for key, _ in errors)

    def test_integer_keys_reject_float_text(self):
        errors = errors_of(MINIMAL.replace("rows = 2", "rows = 2.5"))
        assert any(
            key == "network.rows" and "integer" in reason
            for key, reason in errors
        )

    def test_explicit_node_validation(self):
        errors = errors_of("[network]\nlayout = explicit\nnodes = 0,0,100,12\n")
        assert any("two nodes" in reason for _, reason in errors)
        errors = errors_of(
            "[network]\nlayout = explicit\nnodes = 0,0,100; 1,1,100,5\n"
        )
        assert any("entry 0" in reason for _, reason in errors)

    def test_nan_numbers_rejected(self):
        jammer = "\n[jammer]\nkind = constant\nx = {x}\ny = 0\npower = {power}\n"
        cases = {
            "network.range": MINIMAL.replace("range = 12", "range = nan"),
            "jammer.x": MINIMAL + jammer.format(x="nan", power="0.1"),
            "jammer.power": MINIMAL + jammer.format(x="0", power="NaN"),
            "radio.gamma": MINIMAL + "\n[radio]\ngamma = nan\n",
            "traffic.rate": MINIMAL + "\n[traffic]\nrate = nan\n",
        }
        for key, text in cases.items():
            errors = errors_of(text)
            assert len(errors) == 1, (key, errors)
            assert errors[0][0] == key
            assert errors[0][1].startswith("not a valid number: ")
            assert "nan" in errors[0][1].lower()

    def test_nan_explicit_node_rejected(self):
        errors = errors_of(
            "[network]\nlayout = explicit\nnodes = 0,0,100,nan; 1,1,100,5\n"
        )
        assert errors == [
            ("network.nodes", "entry 0: non-numeric field in '0,0,100,nan'")
        ]

    def test_infinite_explicit_coordinates_rejected(self):
        errors = errors_of(
            "[network]\nlayout = explicit\nnodes = 0,0,100,12; inf,0,100,12\n"
        )
        assert errors == [("network.nodes", "entry 1: coordinates must be finite")]

    def test_infinite_grid_coordinates_rejected(self):
        for spacing in ("inf", "1e308"):  # 1e308 overflows at the third column
            text = MINIMAL.replace("cols = 2", "cols = 3") + f"spacing = {spacing}\n"
            errors = errors_of(text)
            assert len(errors) == 1, (spacing, errors)
            assert errors[0][0] == "network.spacing"
            assert "finite" in errors[0][1]

    def test_infinite_random_area_rejected(self):
        base = "[network]\nlayout = random\ncount = 4\nrange = 12\n"
        for key in ("width", "height"):
            errors = errors_of(base + f"{key} = inf\n")
            assert errors == [(f"network.{key}", "must be < inf, got inf")]

    def test_infinite_energy_rejected(self):
        grid = MINIMAL + "energy = inf\n"
        random = "[network]\nlayout = random\ncount = 4\nrange = 12\nenergy = inf\n"
        for text in (grid, random):
            assert errors_of(text) == [("network.energy", "must be < inf, got inf")]
        errors = errors_of(
            "[network]\nlayout = explicit\nnodes = 0,0,100,12; 1,1,inf,5\n"
        )
        assert errors == [("network.nodes", "entry 1: energy must be finite")]

    def test_valid_pe_is_read_when_the_layout_is_invalid(self):
        cases = {
            "layout = grid\ncols = 2\nrange = 12\npe = 1\n":
                [("network.rows", "required key is missing")],
            "layout = explicit\nnodes = 0,0,100,12\npe = 1\n":
                [("network.nodes", "need at least two nodes")],
            "layout = random\ncount = 1\nrange = 12\npe = 1\n":
                [("network.count", "must be >= 2, got 1")],
        }
        for body, expected in cases.items():
            assert errors_of("[network]\n" + body) == expected, body

    def test_step_range_with_three_parts_rejected(self):
        text = MINIMAL + (
            "\n[jammer]\nkind = random\nx = 0\ny = 0\npower = 0.1\nsleep = 1..2..9\n"
        )
        expected = [("jammer.sleep", "expected an integer or a..b range, got '1..2..9'")]
        assert errors_of(text) == expected
        with pytest.raises(ConfigError) as excinfo:
            ref.parse_config(text)
        assert excinfo.value.errors == expected

    def test_multi_line_output_path_rejected(self):
        text = MINIMAL + "\n[output]\npath = runs/a\n  b.json\n"
        expected = [("output.path", "must be on one line, got 'runs/a\\nb.json'")]
        assert errors_of(text) == expected
        with pytest.raises(ConfigError) as excinfo:
            ref.parse_config(text)
        assert excinfo.value.errors == expected

    def test_infinite_ranges_still_accepted(self):
        cfg = parse_config(MINIMAL.replace("range = 12", "range = inf"))
        assert cfg.network.radio_range == math.inf
        cfg = parse_config(
            MINIMAL + "\n[jammer]\nkind = reactive\nx = 0\ny = 0\n"
            "power = 0.1\nsense_range = inf\n"
        )
        assert cfg.jammers[0].sense_range == math.inf

    def test_empty_sources_list(self):
        errors = errors_of(MINIMAL + "\n[traffic]\nsources =\n")
        assert ("traffic.sources", "empty list") in errors

    def test_malformed_document(self):
        errors = errors_of("this is not a config\n")
        assert errors[0][0] == "config"

    def test_error_message_joins_all_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(MINIMAL + "\n[search]\nrho = 1.5\niterations = 0\n")
        message = str(excinfo.value)
        assert "search.rho" in message and "search.iterations" in message


class TestCeilings:
    # parsing only: nothing here builds or runs a scenario of this size
    RANDOM = "[network]\nlayout = random\nrange = 10\ncount = {}\n"

    def test_random_node_count(self):
        assert parse_config(self.RANDOM.format(MAX_NODES)).network.count == MAX_NODES
        assert errors_of(self.RANDOM.format(MAX_NODES + 1)) == [
            ("network.count", f"must be <= {MAX_NODES}, got {MAX_NODES + 1}")
        ]

    def test_grid_node_count(self):
        grid = "[network]\nlayout = grid\nrange = 12\nrows = {}\ncols = {}\n"
        network = parse_config(grid.format(100, MAX_NODES // 100)).network
        assert network.node_count == MAX_NODES
        assert errors_of(grid.format(317, 317)) == [
            ("network.rows", f"rows * cols must be <= {MAX_NODES}, got {317 * 317}")
        ]
        errors = errors_of(grid.format(MAX_NODES + 1, 1))
        assert [key for key, _ in errors] == ["network.rows"]

    def test_explicit_node_count(self):
        # the ceiling is checked before any entry's numbers are read
        explicit = "[network]\nlayout = explicit\nnodes = {}\n"
        entries = [f"{i},0,1,2" for i in range(MAX_NODES)]
        network = parse_config(explicit.format("; ".join(entries))).network
        assert network.node_count == MAX_NODES
        entries += ["a,b,c,d"]
        assert errors_of(explicit.format("; ".join(entries))) == [
            ("network.nodes", f"at most {MAX_NODES} nodes, got {MAX_NODES + 1}")
        ]

    def test_duration(self):
        traffic = MINIMAL + "\n[traffic]\nduration = {}\n"
        assert parse_config(traffic.format(MAX_DURATION)).duration == MAX_DURATION
        assert errors_of(traffic.format(MAX_DURATION + 1)) == [
            ("traffic.duration", f"must be <= {MAX_DURATION}, got {MAX_DURATION + 1}")
        ]

    def test_rate(self):
        # a huge rate never drained a source's emit accumulator
        traffic = MINIMAL + "\n[traffic]\nrate = {}\n"
        assert parse_config(traffic.format(MAX_RATE)).rate == MAX_RATE
        for text in (str(MAX_RATE + 1), "inf", "1e300"):
            expected = [("traffic.rate", f"must be <= {MAX_RATE}, got {text}")]
            assert errors_of(traffic.format(text)) == expected
            with pytest.raises(ConfigError) as excinfo:
                ref.parse_config(traffic.format(text))
            assert excinfo.value.errors == expected

    def test_ant_tours_per_search(self):
        search = MINIMAL + "\n[search]\nn_explorers = 10\nn_exploiters = 10\n"
        at_ceiling = search + f"iterations = {MAX_ANT_TOURS // 20}\n"
        assert parse_config(at_ceiling).search.iterations == MAX_ANT_TOURS // 20
        tours = 20 * (MAX_ANT_TOURS // 20 + 1)
        assert errors_of(search + f"iterations = {MAX_ANT_TOURS // 20 + 1}\n") == [
            ("search.iterations", "(n_explorers + n_exploiters) * iterations "
             f"must be <= {MAX_ANT_TOURS}, got {tours}")
        ]
        # the default 50 iterations count too
        errors = errors_of(MINIMAL + "\n[search]\nn_explorers = 20001\n")
        assert [key for key, _ in errors] == ["search.iterations"]


class TestRoundTrip:
    def test_full_config_survives_format_parse(self):
        cfg = parse_config(FULL)
        again = parse_config(format_config(cfg))
        assert again == cfg

    def test_minimal_config_survives_format_parse(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(format_config(cfg)) == cfg

    def test_output_path_survives_format_parse(self):
        cfg = parse_config(MINIMAL + "\n[output]\npath = runs/a b.json\n")
        assert cfg.output_path == "runs/a b.json"
        assert parse_config(format_config(cfg)) == cfg

    def test_explicit_layout_survives_format_parse(self):
        cfg = parse_config(
            "[network]\nlayout = explicit\n"
            "nodes = 0,0,100,12; 10.5,0,80,12\npe = 1\n"
        )
        assert parse_config(format_config(cfg)) == cfg


class TestBuilders:
    def test_grid_and_explicit_ignore_run_seed(self):
        cfg = parse_config(MINIMAL)
        a = build_scenario_network(cfg, 1)
        b = build_scenario_network(cfg, 2)
        assert {i: n.position for i, n in a.nodes.items()} == {
            i: n.position for i, n in b.nodes.items()
        }

    def test_pinned_placement_seed_beats_run_seed(self):
        cfg = parse_config(FULL)
        a = build_scenario_network(cfg, 1)
        b = build_scenario_network(cfg, 2)
        assert [n.position for n in a.nodes.values()] == [
            n.position for n in b.nodes.values()
        ]

    def test_unpinned_random_layout_follows_run_seed(self):
        text = FULL.replace("placement_seed = 7\n", "")
        cfg = parse_config(text)
        a = build_scenario_network(cfg, 1)
        b = build_scenario_network(cfg, 2)
        c = build_scenario_network(cfg, 1)
        assert [n.position for n in a.nodes.values()] != [
            n.position for n in b.nodes.values()
        ]
        assert [n.position for n in a.nodes.values()] == [
            n.position for n in c.nodes.values()
        ]

    def test_resolve_totals_defaults(self):
        cfg = parse_config(MINIMAL)
        net = build_scenario_network(cfg, 1)
        totals = resolve_totals(cfg, net)
        assert totals.hops == 4.0
        assert totals.energy == 1e6
        assert totals.snr == 10.0

    def test_resolve_totals_overrides(self):
        cfg = parse_config(FULL)
        net = build_scenario_network(cfg, 1)
        totals = resolve_totals(cfg, net)
        assert (totals.hops, totals.energy, totals.snr) == (14.0, 600.0, 12.0)

    def test_resolve_sources_default_is_lowest_non_pe(self):
        cfg = parse_config(MINIMAL)
        net = build_scenario_network(cfg, 1)
        assert resolve_sources(cfg, net) == (1,)

    def test_build_jammers_fresh_instances(self):
        cfg = parse_config(FULL)
        first = build_jammers(cfg)
        second = build_jammers(cfg)
        assert [j.kind for j in first] == [
            JammerKind.CONSTANT, JammerKind.RANDOM,
            JammerKind.REACTIVE, JammerKind.DECEPTIVE,
        ]
        assert all(a is not b for a, b in zip(first, second))
        assert first[1].sleep_steps == (2, 4)
        assert first[2].sense_range == 25.0
