"""Report serialization: JSON for single runs, CSV for runs, sweeps, compares.

All floating-point values are printed with 6 significant digits, field order
is fixed, and serialization is pure, so identical reports give identical
bytes.
"""

from __future__ import annotations

import io
import json
import sys
from typing import NamedTuple, Sequence

from .engine import ROW, RunReport


class RunRow(NamedTuple):
    """One run's sweep columns, unrounded: all a sweep or compare keeps."""

    seed: int
    pdr: float
    mean_delay: float
    reroutes: int
    sent: int
    delivered: int
    dropped: int
    jammed_peak: int

    @classmethod
    def of(cls, run: RunReport | RunRow) -> RunRow:
        """The columns read off a RunReport, or off another row."""
        return cls(*(getattr(run, name) for name in cls._fields))


SWEEP_COLUMNS = RunRow._fields

COMPARE_COLUMNS = (
    "seed",
    "pdr_reroute",
    "pdr_baseline",
    "delta_pdr",
    "mean_delay_reroute",
    "mean_delay_baseline",
    "reroutes",
)


def fmt6(value: float) -> str:
    return f"{value:.6g}"


def round6(value: float) -> float:
    """The float whose repr is the 6-significant-digit rendering."""
    return float(fmt6(value))


# items of a per-step array formatted by one `%` call
_CHUNK = 4096
# %d template of one trace row
_ROW_ITEM = b"[" + b",".join([b"\n      %d"] * ROW) + b"\n    ]"


def _write_array(
    out: io.BytesIO, values: Sequence[int], width: int, item: bytes
) -> None:
    """Write `values` as json.dumps(indent=2) writes a list nested one level deep.

    Each item takes `width` values, rendered through the %d template `item`.
    """
    if not values:
        out.write(b"[]")
        return
    out.write(b"[")
    step = _CHUNK * width
    for i in range(0, len(values), step):
        part = values[i : i + step]
        text = (b",\n    " + item) * (len(part) // width) % tuple(part)
        out.write(text[1:] if i == 0 else text)  # no comma before the first
    out.write(b"\n  ]")


def report_json_bytes(report: RunReport) -> bytes:
    """RunReport as indented JSON, fixed key order, floats rounded to 6 digits.

    The bytes are those of json.dumps(..., indent=2). json.dumps writes the
    head and the searches; the two per-step arrays are written from the flat
    trace in chunks, so no Python object is built per value.
    """
    head = json.dumps(
        {
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
            "jammed_per_step": [],
            "searches": [
                {
                    "step": s.step,
                    "source": s.source,
                    "found": s.found,
                    "best_score": round6(s.best_score),
                    "successes": s.successes,
                }
                for s in report.searches
            ],
            "trace": [],
        },
        indent=2,
    )
    before, _, rest = head.partition('"jammed_per_step": []')
    middle, _, after = rest.partition('"trace": []')
    flat = report.flat_trace
    out = io.BytesIO()
    out.write(f'{before}"jammed_per_step": '.encode())
    _write_array(out, flat[ROW - 1 :: ROW], 1, b"%d")  # the flagged counts
    out.write(f'{middle}"trace": '.encode())
    _write_array(out, flat, ROW, _ROW_ITEM)
    out.write(f"{after}\n".encode())
    return out.getvalue()


def _csv(lines: Sequence[Sequence[object]]) -> bytes:
    """CSV lines, floats through fmt6 and every other value through str."""
    return "".join(
        ",".join(fmt6(v) if isinstance(v, float) else str(v) for v in line) + "\n"
        for line in lines
    ).encode("utf-8")


def report_csv_bytes(report: RunReport | RunRow) -> bytes:
    return _csv([SWEEP_COLUMNS, RunRow.of(report)])


def sweep_csv_bytes(reports: Sequence[RunReport | RunRow]) -> bytes:
    """One row per seed plus mean/min/max trailer rows (column-wise)."""
    if not reports:
        raise ValueError("no reports to summarize")
    rows = [RunRow.of(report) for report in reports]
    columns = [[float(v) for v in column] for column in list(zip(*rows))[1:]]
    mean = ["mean"] + [sum(vs) / len(vs) for vs in columns]
    trailer = [mean, ["min", *map(min, columns)], ["max", *map(max, columns)]]
    return _csv([SWEEP_COLUMNS, *rows, *trailer])


def compare_csv_bytes(
    pairs: Sequence[tuple[RunReport | RunRow, RunReport | RunRow]],
) -> bytes:
    """Per-seed paired rows; each pair is (reroute enabled, baseline)."""
    if not pairs:
        raise ValueError("no report pairs to summarize")
    if any(on.seed != off.seed for on, off in pairs):
        raise ValueError("paired reports must share a seed")
    return _csv([COMPARE_COLUMNS] + [
        (on.seed, on.pdr, off.pdr, on.pdr - off.pdr,
         on.mean_delay, off.mean_delay, on.reroutes)
        for on, off in pairs
    ])


def emit_report(report: RunReport, fmt: str, destination: str | None = None) -> int:
    """Serialize one report to a file path or stdout; returns bytes written.

    fmt is "json" or "csv". destination None or "-" writes to stdout. I/O
    errors propagate as OSError for the caller to map to an exit status.
    """
    if fmt == "json":
        payload = report_json_bytes(report)
    elif fmt == "csv":
        payload = report_csv_bytes(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return write_bytes(payload, destination)


def write_bytes(payload: bytes, destination: str | None = None) -> int:
    if destination is None or destination == "-":
        stream = sys.stdout.buffer if hasattr(sys.stdout, "buffer") else sys.stdout
        if isinstance(stream, io.TextIOBase):
            stream.write(payload.decode("utf-8"))
        else:
            stream.write(payload)
        return len(payload)
    with open(destination, "wb") as fh:
        fh.write(payload)
    return len(payload)
