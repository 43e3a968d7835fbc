"""The benchmark's workloads, as the config text a user would write.

Each workload is a list of config documents run one after another for every
run seed; that list is one *unit*. Field placements are pinned
(`placement_seed`) as workload data, so the run seed only drives the ant
substreams and the random jammer's sleep/jam phases.
"""

from __future__ import annotations

from dataclasses import dataclass

# The 7x7 acceptance-gate scenario (GRID_TEXT in tests/test_acceptance.py):
# west-middle source, east-middle processing element, a constant jammer over
# the centre from step 50. Energy is effectively infinite and the geometry
# never changes, so stepping (radio sampling above all) dominates.
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
reroute = {reroute}

[jammer]
kind = constant
x = 30
y = 30
power = 0.45
start = 50
"""

# 400 nodes, ten sources west and south of the processing element in the
# north-east corner; a constant jammer between the western sources and the
# PE and a sleep/jam cycling one across the southern approach. Default search
# knobs: the ten initial route installs dominate the run.
FIELD400_SOURCES = (147, 12, 196, 48, 10, 5, 74, 9, 99, 175)
FIELD400 = f"""
[network]
layout = random
count = 400
width = 200
height = 200
range = 18
placement_seed = 1
pe = 0

[traffic]
sources = {",".join(map(str, FIELD400_SOURCES))}
rate = 0.5
duration = 200

[jammer.wall]
kind = constant
x = 120
y = 192
power = 0.6
start = 40

[jammer.cycler]
kind = random
x = 190
y = 25
power = 1.0
start = 20
sleep = 10..30
jam = 5..15
"""

# 2000 nodes with finite energy: relays near the PE run dry mid-run and force
# reroutes, so topology writes interleave with the radio and quality reads.
# The deceptive jammer's victims also pay receive energy each step.
FIELD2000_SOURCES = (1422, 1915, 1479)
FIELD2000_CHURN = f"""
[network]
layout = random
count = 2000
width = 400
height = 400
range = 18
energy = 100
placement_seed = 3
pe = 0

[traffic]
sources = {",".join(map(str, FIELD2000_SOURCES))}
rate = 1.0
duration = 60

[search]
n_explorers = 4
n_exploiters = 4
iterations = 10

[sim]
ant_energy_cost = 0.05
packet_energy_cost = 2.0

[jammer.wall]
kind = constant
x = 270
y = 250
power = 0.6
start = 20

[jammer.decoy]
kind = deceptive
x = 210
y = 265
power = 1.0
start = 10
"""


@dataclass(frozen=True)
class Workload:
    name: str
    unit: tuple[str, ...]  # config documents run, in order, per run seed
    trace_units: int  # run seeds in one traced run (a fixed block)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid49",
            (GRID49.format(reroute="true"), GRID49.format(reroute="false")),
            trace_units=20,
        ),
        Workload("field400", (FIELD400,), trace_units=2),
        Workload("field2000-churn", (FIELD2000_CHURN,), trace_units=2),
    )
}
