import json
from array import array

import pytest

from antjam.config import parse_config
from antjam.engine import RunReport, SearchSummary, Simulation
from antjam.reporting import (
    _CHUNK,
    COMPARE_COLUMNS,
    SWEEP_COLUMNS,
    RunRow,
    compare_csv_bytes,
    emit_report,
    fmt6,
    report_csv_bytes,
    report_json_bytes,
    round6,
    sweep_csv_bytes,
    write_bytes,
)

# t, sent, delivered, dropped, in_flight, flagged: 8 sent, 7 delivered,
# 1 dropped, a jam peak of 2
ROWS = [[0, 2, 1, 0, 1, 0], [1, 4, 3, 0, 1, 1], [2, 6, 5, 1, 0, 2], [3, 8, 7, 1, 0, 1]]


def make_report(seed=1, delay=2.0, reroutes=1, rows=ROWS):
    """A report whose totals are read off `rows`, as the engine's are."""
    return RunReport(
        seed=seed,
        mean_delay=delay,
        reroutes=reroutes,
        energy_spent={0: 4.0, 1: 3.123456789, 2: 0.0},
        searches=[SearchSummary(step=-1, source=0, found=True,
                                best_score=0.06764567891, successes=120)],
        flat_trace=array("q", [v for row in rows for v in row]),
    )


def dumps_report(report):
    """The report through json.dumps(indent=2), as it was written before the
    per-step arrays were written by hand."""
    d = {
        "seed": report.seed,
        "duration": report.duration,
        "sent": report.sent,
        "delivered": report.delivered,
        "dropped": report.dropped,
        "in_flight": report.in_flight,
        "pdr": round6(report.pdr),
        "mean_delay": round6(report.mean_delay),
        "reroutes": report.reroutes,
        "jammed_peak": report.jammed_peak,
        "energy_spent": {
            str(i): round6(v) for i, v in sorted(report.energy_spent.items())
        },
        "jammed_per_step": report.jammed_per_step,
        "searches": [
            {"step": s.step, "source": s.source, "found": s.found,
             "best_score": round6(s.best_score), "successes": s.successes}
            for s in report.searches
        ],
        "trace": report.trace,
    }
    return (json.dumps(d, indent=2) + "\n").encode()


SNAPSHOT = """
[network]
layout = grid
rows = 3
cols = 4
spacing = 10
range = 12
pe = 11

[traffic]
sources = 0
duration = 40

[jammer]
kind = random
x = 15
y = 10
power = 0.05
sleep = 1..3
jam = 1..3
"""


class TestNumberFormatting:
    def test_six_significant_digits(self):
        assert fmt6(0.123456789) == "0.123457"
        assert fmt6(1234567.0) == "1.23457e+06"
        assert fmt6(2.0) == "2"
        assert fmt6(0.0001234567) == "0.000123457"

    def test_round6_is_idempotent(self):
        for value in (0.123456789, 1e-7, 987654.321, 0.0):
            assert round6(round6(value)) == round6(value)


class TestRunReportSerialization:
    def test_dict_key_order_is_fixed(self):
        d = json.loads(report_json_bytes(make_report()))
        assert list(d) == [
            "seed", "duration", "sent", "delivered", "dropped", "in_flight",
            "pdr", "mean_delay", "reroutes", "jammed_peak", "energy_spent",
            "jammed_per_step", "searches", "trace",
        ]

    def test_floats_are_rounded(self):
        d = json.loads(report_json_bytes(make_report()))
        assert d["energy_spent"]["1"] == 3.12346
        assert d["searches"][0]["best_score"] == 0.0676457

    def test_json_round_trips_and_ends_with_newline(self):
        payload = report_json_bytes(make_report())
        assert payload.endswith(b"\n")
        parsed = json.loads(payload)
        assert parsed["seed"] == 1
        assert parsed["trace"] == ROWS
        assert parsed["jammed_per_step"] == [0, 1, 2, 1]
        assert (parsed["sent"], parsed["in_flight"], parsed["jammed_peak"]) == (8, 0, 2)

    @pytest.mark.parametrize(
        "steps", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 2]
    )
    def test_matches_json_dumps(self, steps):
        rows = [[t, 3 * t, t, 2 * t, 0, t % 300] for t in range(steps)]
        report = make_report(rows=rows)
        assert report_json_bytes(report) == dumps_report(report)

    def test_report_is_a_snapshot(self):
        sim = Simulation(parse_config(SNAPSHOT), 3)
        for _ in range(15):
            sim.step()
            sim.detect_and_reroute()
        report = sim.report()
        payload = report_json_bytes(report)
        rows = report.trace
        for _ in range(25):
            sim.step()
            sim.detect_and_reroute()
        assert report.trace == rows and len(rows) == 15
        assert report.duration == 15  # the steps run, not the configured 40
        assert report_json_bytes(report) == payload
        assert len(sim.report().trace) == 40

    def test_csv_single_run(self):
        lines = report_csv_bytes(make_report()).decode().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[1] == "1,0.875,2,1,8,7,1,2"
        assert len(lines) == 2


class TestSweepCsv:
    def test_rows_and_trailers(self):
        rows = [
            RunRow(seed=0, pdr=0.5, mean_delay=2.0, reroutes=0, sent=10,
                   delivered=5, dropped=5, jammed_peak=1),
            RunRow(seed=1, pdr=1.0, mean_delay=4.0, reroutes=2, sent=10,
                   delivered=10, dropped=0, jammed_peak=3),
        ]
        lines = sweep_csv_bytes(rows).decode().splitlines()
        assert len(lines) == 6  # header, two seeds, mean, min, max
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[1].startswith("0,0.5,2,0,")
        assert lines[3] == "mean,0.75,3,1,10,7.5,2.5,2"
        assert lines[4] == "min,0.5,2,0,10,5,0,1"
        assert lines[5] == "max,1,4,2,10,10,5,3"

    def test_rows_give_the_reports_bytes(self):
        # a third of 3 packets delivered: a pdr that needs rounding
        reports = [make_report(seed=0, delay=2.5, rows=[[0, 3, 1, 2, 0, 0]]),
                   make_report()]
        rows = [RunRow.of(report) for report in reports]
        assert rows[0] == (0, 1 / 3, 2.5, 1, 3, 1, 2, 0)
        assert RunRow.of(rows[0]) == rows[0]
        assert report_csv_bytes(rows[1]).decode().splitlines()[1] == "1,0.875,2,1,8,7,1,2"
        assert report_csv_bytes(rows[0]) == report_csv_bytes(reports[0])
        assert sweep_csv_bytes(rows) == sweep_csv_bytes(reports)
        assert compare_csv_bytes([(rows[1], rows[1])]) == compare_csv_bytes(
            [(reports[1], reports[1])]
        )

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep_csv_bytes([])


class TestCompareCsv:
    def test_paired_rows(self):
        pairs = [
            (RunRow(seed=0, pdr=0.9, mean_delay=3.0, reroutes=1, sent=10,
                    delivered=9, dropped=1, jammed_peak=2),
             RunRow(seed=0, pdr=0.4, mean_delay=2.0, reroutes=0, sent=10,
                    delivered=4, dropped=6, jammed_peak=2)),
        ]
        lines = compare_csv_bytes(pairs).decode().splitlines()
        assert lines[0] == ",".join(COMPARE_COLUMNS)
        assert lines[1] == "0,0.9,0.4,0.5,3,2,1"

    def test_mismatched_seeds_rejected(self):
        pairs = [(make_report(seed=0), make_report(seed=1))]
        with pytest.raises(ValueError):
            compare_csv_bytes(pairs)

    def test_empty_compare_rejected(self):
        with pytest.raises(ValueError):
            compare_csv_bytes([])


class TestEmission:
    def test_write_to_file(self, tmp_path):
        target = tmp_path / "r.json"
        report = make_report()
        n = emit_report(report, "json", str(target))
        assert target.read_bytes() == report_json_bytes(report)
        assert n == len(report_json_bytes(report))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(make_report(), "yaml", None)

    def test_stdout_fallback(self, capsysbinary):
        payload = report_csv_bytes(make_report())
        write_bytes(payload, None)
        assert capsysbinary.readouterr().out == payload

    def test_dash_means_stdout(self, capsysbinary):
        write_bytes(b"x,y\n", "-")
        assert capsysbinary.readouterr().out == b"x,y\n"
