"""Report bytes pinned across commits.

The sha256 of `report_json_bytes` for two seeded scenarios, recorded before
the link-quality table was rebuilt from per-node factors. A speed-up must
leave every report byte as it was; this test catches a change that does not,
without a second checkout to compare against.

- grid49: the 7x7 acceptance grid with rerouting on (the benchmark's grid49
  config), one constant jammer over the centre.
- churn: a 120-node random field with finite energy, a constant and a
  deceptive jammer, and packet and ant costs that kill relays, so the run
  goes through link counters, jam flags, deaths and reroutes.
"""

import hashlib

import pytest

from antjam.config import parse_config
from antjam.engine import Simulation
from antjam.reporting import report_json_bytes

GRID49 = """
[network]
layout = grid
rows = 7
cols = 7
spacing = 10
range = 12
pe = 27

[search]
n_explorers = 6
n_exploiters = 6
iterations = 30

[traffic]
sources = 21
duration = 300

[sim]
ant_energy_cost = 0.0
reroute = true

[jammer]
kind = constant
x = 30
y = 30
power = 0.45
start = 50
"""

CHURN = """
[network]
layout = random
count = 120
width = 120
height = 120
range = 20
energy = 60
placement_seed = 1
pe = 0

[traffic]
sources = 100,110,119
rate = 1.0
duration = 60

[search]
n_explorers = 4
n_exploiters = 4
iterations = 8

[sim]
ant_energy_cost = 0.05
packet_energy_cost = 2.0

[jammer.wall]
kind = constant
x = 70
y = 60
power = 0.6
start = 15

[jammer.decoy]
kind = deceptive
x = 40
y = 80
power = 1.0
start = 5
"""

# name -> (config, sha256 of the seed-7 report)
DIGESTS = {
    "grid49": (
        GRID49,
        "a879346e45c080180e2d0d1bf22786022984a32b79d5c796afed17c5e97fa728",
    ),
    "churn": (
        CHURN,
        "0277554ab00acc2a733e76fb0f4f37861943beda0b076d1075d7efe2f8767ee1",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_bytes_are_pinned(name):
    text, digest = DIGESTS[name]
    sim = Simulation(parse_config(text), 7)
    data = report_json_bytes(sim.run())
    assert hashlib.sha256(data).hexdigest() == digest


def test_churn_covers_counters_flags_deaths_and_reroutes():
    sim = Simulation(parse_config(CHURN), 7)
    report = sim.run()
    assert report.reroutes > 0
    assert report.jammed_peak > 0
    assert sim.state.counters
    assert any(not node.alive for node in sim.net.nodes.values())
