"""Peak memory per simulated step of `antjam run`, and bytes per link.

A 3-node line with zero energy costs runs for SHORT and for LONG steps, each
through `python -m antjam run` in a fresh child. A wrapper process runs the
child and prints the child's peak resident set (`RUSAGE_CHILDREN`). The step
trace is held as ROW int64 values per step, once in the state and once in the
report, and the JSON writes about 90 bytes per step, so the peak must grow by
less than 400 bytes per step. It grew by about 1,000 when every trace value
was a Python int in a list per row and the JSON was built through a dict.

A network keeps each link once, in its neighbor rows. The benchmark's
2000-node field, built in process, must hold under 110 traced bytes per
directed link (about 70 with the rows alone); it held about 180 when every
directed link was also a key of a distance dict.
"""

import gc
import subprocess
import sys
import tracemalloc
from random import Random

import pytest

from antjam.network import random_geometric_network

resource = pytest.importorskip("resource")

SHORT, LONG = 2_000, 50_000
MAX_BYTES_PER_STEP = 400
MAX_BYTES_PER_LINK = 110

LINE = """
[network]
layout = explicit
nodes = 0,0,100,12; 10,0,100,12; 20,0,100,12
pe = 2

[traffic]
sources = 0
duration = {duration}

[sim]
packet_energy_cost = 0
ant_energy_cost = 0
rx_energy_cost = 0
"""

# runs argv[1:] and prints its peak resident set in bytes
WRAPPER = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak if sys.platform == "darwin" else peak * 1024)
"""


def peak_rss(tmp_path, duration, env):
    path = tmp_path / f"line{duration}.cfg"
    path.write_text(LINE.format(duration=duration))
    run = [sys.executable, "-m", "antjam", "run", "--config", str(path),
           "--seed", "1", "--out", "-"]
    proc = subprocess.run([sys.executable, "-c", WRAPPER, *run], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return int(proc.stdout)


def test_peak_rss_per_step(tmp_path, child_env):
    growth = peak_rss(tmp_path, LONG, child_env) - peak_rss(tmp_path, SHORT, child_env)
    per_step = growth / (LONG - SHORT)
    assert per_step < MAX_BYTES_PER_STEP, f"{per_step:.0f} bytes per step"


def test_traced_bytes_per_link():
    # the field2000-churn benchmark's geometry: placement seed 3
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        net = random_geometric_network(
            2000, 400.0, 400.0, 18.0, 100.0, Random("3/placement"), connected=True
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    per_link = held / len(net.links)
    assert len(net.links) == 24380
    assert per_link < MAX_BYTES_PER_LINK, f"{per_link:.0f} bytes per directed link"
