"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import unittest
from unittest import mock

import run
import tracer
from workloads import WORKLOADS

API = run.load_antjam()
GRID = WORKLOADS["grid49"]


def traced_summary(seed: int, units: int):
    trace, traced, plain = run.traced_block(API, GRID, seed, units)
    layer = run.per_layer(trace, traced, plain)
    counts = {k: v for k, v in layer.items() if run.PER_LAYER_UNITS[k] == "count"}
    return trace, traced, plain, layer, counts


class WorkCounts(unittest.TestCase):
    def test_counts_and_digests_repeat_for_a_seed(self):
        first = traced_summary(seed=7, units=2)
        second = traced_summary(seed=7, units=2)
        self.assertEqual(first[4], second[4])
        self.assertEqual(run.digest(first[1]), run.digest(second[1]))
        self.assertEqual(run.digest(first[1]), run.digest(first[2]))
        for key in ("ants.hops", "ants.tours", "metrics.links_scored",
                    "jammers.node_samples", "engine.packet_hops",
                    "network.links"):
            self.assertGreater(first[4][key], 0, key)

    def test_self_times_and_remainder_account_for_wall(self):
        trace, traced, _plain, layer, _counts = traced_summary(seed=3, units=1)
        own = sum(layer[m] for m in run.SELF_TIME.values())
        self.assertAlmostEqual(own + layer["trace.unattributed_s"],
                               layer["trace.wall_s"], places=9)
        self.assertGreaterEqual(layer["trace.unattributed_s"], 0.0)
        self.assertEqual(set(trace.self_times()), set(run.SELF_TIME))


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cfg = API.config.parse_config(GRID.unit[0])
        report = API.engine.Simulation(cfg, 1).run()
        cls.good = API.reporting.report_json_bytes(report)

    def broken(self, edit) -> bytes:
        doc = json.loads(self.good)
        edit(doc)
        return json.dumps(doc).encode()

    def test_sound_report_passes(self):
        self.assertEqual(run.check_report(self.good), [])

    def test_each_broken_invariant_fails(self):
        def leak(doc):
            doc["trace"][5][1] += 1

        def negative_energy(doc):
            doc["energy_spent"]["3"] = -0.5

        def bad_pdr(doc):
            doc["pdr"] = 1.5

        for edit in (leak, negative_energy, bad_pdr):
            with self.subTest(edit.__name__):
                self.assertTrue(run.check_report(self.broken(edit)))
        self.assertTrue(run.check_report(b"{not json"))
        self.assertTrue(run.check_report(b'{"trace": []}'))

    def test_broken_scenario_counts_as_failed(self):
        good = run.run_scenario(API, GRID.unit[0], 1)
        bad = run.run_scenario(API, GRID.unit[0], 1)
        bad.problems = run.check_report(self.broken(lambda d: d.update(pdr=-1)))
        result = json.loads(run.result_line([[good, bad]], {}, {}))
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])

    def test_traced_bytes_that_differ_fail_the_scenario(self):
        class Corrupting(tracer.Tracer):
            def _wrap(self, name, fn, rules):
                if name != "reporting.serialize":
                    return super()._wrap(name, fn, rules)
                return lambda *a, **k: fn(*a, **k) + b" "

        with mock.patch.object(run, "Tracer", Corrupting):
            _trace, traced, plain = run.traced_block(API, GRID, 1, units=1)
        self.assertEqual(
            traced[0][0].problems, ["traced and untraced report bytes differ"]
        )
        self.assertEqual(plain[0][0].problems, [])


class TracerPatching(unittest.TestCase):
    def test_missing_name_fails_loudly_and_restores(self):
        import antjam.engine

        original = antjam.engine.sample_radio
        bounds = (
            ("antjam.engine", "sample_radio", "jammers.sample_radio", ()),
            ("antjam.engine", "no_such_function", "jammers.gone", ()),
        )
        with self.assertRaisesRegex(tracer.TracerError, "no_such_function"):
            with tracer.Tracer(bounds):
                pass
        self.assertIs(antjam.engine.sample_radio, original)

    def test_missing_module_or_method_fails_loudly(self):
        for target, attr in (("antjam.nowhere", "f"),
                             ("antjam.engine.Simulation", "no_such_method")):
            with self.subTest(target=target, attr=attr):
                with self.assertRaises(tracer.TracerError):
                    with tracer.Tracer(((target, attr, "x.y", ()),)):
                        pass

    def test_every_boundary_restored_after_use(self):
        import antjam.engine

        before = dict(vars(antjam.engine.Simulation))
        with tracer.Tracer():
            self.assertIsNot(vars(antjam.engine.Simulation)["step"],
                             before["step"])
        self.assertEqual(dict(vars(antjam.engine.Simulation)), before)


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 41)]
        pct, value = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(pct, 75.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (50.0, 2.0))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
