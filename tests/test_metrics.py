import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from antjam.jammers import RadioParams, RadioSample, sample_radio
from antjam.metrics import (
    LinkCounters,
    LinkMetrics,
    MetricTotals,
    build_link_metrics,
    link_quality,
    measure_link,
    normalize_metric,
    quality_from_metrics,
    tour_quality,
)
from antjam.network import build_network


def clean_metrics(**overrides):
    base = dict(hop=1.0, energy=1.0, bit_error=1.0, snr=1.0, delivery=1.0, loss=1.0)
    base.update(overrides)
    return LinkMetrics(**base)


class TestNormalizeMetric:
    def test_example(self):
        # 4 of 10 consumed leaves 0.6
        assert normalize_metric(4.0, 10.0) == 0.6

    def test_boundaries(self):
        assert normalize_metric(0.0, 7.0) == 1.0
        assert normalize_metric(7.0, 7.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize_metric(1.0, 0.0)
        with pytest.raises(ValueError):
            normalize_metric(-0.1, 1.0)
        with pytest.raises(ValueError):
            normalize_metric(1.1, 1.0)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match=r"^actual nan outside \[0, 10.0\]$"):
            normalize_metric(math.nan, 10.0)
        with pytest.raises(ValueError, match="^total must be positive$"):
            normalize_metric(1.0, math.nan)

    @given(
        total=st.floats(min_value=1e-6, max_value=1e9),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stays_in_unit_interval(self, total, fraction):
        actual = total * fraction
        value = normalize_metric(min(actual, total), total)
        assert 0.0 <= value <= 1.0

    @given(
        total=st.floats(min_value=1.0, max_value=1e6),
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_consumption(self, total, a, b):
        lo, hi = sorted((a * total, b * total))
        assert normalize_metric(hi, total) <= normalize_metric(lo, total)


class TestLinkQuality:
    def test_product_example(self):
        m = clean_metrics(hop=0.9, energy=0.8)
        assert link_quality(m) == pytest.approx(0.72, abs=1e-12)

    def test_any_zero_factor_kills_link(self):
        for name in ("hop", "energy", "bit_error", "snr", "delivery", "loss"):
            assert link_quality(clean_metrics(**{name: 0.0})) == 0.0

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            clean_metrics(snr=1.5)
        with pytest.raises(ValueError):
            clean_metrics(hop=-0.1)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
        )
    )
    def test_quality_in_unit_interval(self, factors):
        m = LinkMetrics(*factors)
        assert 0.0 <= link_quality(m) <= 1.0


class TestTourQuality:
    def test_geometric_mean_example(self):
        quality = {(0, 1): 0.25, (1, 2): 1.0}
        assert tour_quality([0, 1, 2], quality) == pytest.approx(0.5, abs=1e-12)

    def test_single_link(self):
        assert tour_quality([3, 4], {(3, 4): 0.7}) == pytest.approx(0.7, abs=1e-15)

    def test_reversal_invariant_on_symmetric_tables(self):
        rng = Random(23)
        for _ in range(50):
            n = rng.randint(2, 8)
            path = list(range(n + 1))
            quality = {}
            for a, b in zip(path, path[1:]):
                q = rng.uniform(0.05, 1.0)
                quality[(a, b)] = q
                quality[(b, a)] = q
            forward = tour_quality(path, quality)
            backward = tour_quality(list(reversed(path)), quality)
            assert forward == backward  # exact, not approximate

    def test_dead_link_raises(self):
        with pytest.raises(ValueError, match="dead link"):
            tour_quality([0, 1, 2], {(0, 1): 0.5, (1, 2): 0.0})

    def test_unknown_link_raises(self):
        with pytest.raises(ValueError, match="unknown link"):
            tour_quality([0, 1, 2], {(0, 1): 0.5})

    def test_too_short_path_raises(self):
        with pytest.raises(ValueError):
            tour_quality([0], {})


def line4():
    """0 - 1 - 2 - 3(PE), unit spacing."""
    return build_network(
        [
            ((0.0, 0.0), 100.0, 1.5),
            ((1.0, 0.0), 100.0, 1.5),
            ((2.0, 0.0), 100.0, 1.5),
            ((3.0, 0.0), 100.0, 1.5),
        ],
        3,
    )


def clean_samples(net, radio=None):
    return sample_radio(net, [], 0, radio or RadioParams(), Random(0))


class TestMetricTotals:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["hops", "energy", "snr"])
    def test_totals_must_be_positive_and_finite(self, field, bad):
        # an infinite budget made its factor NaN, which raised at some link
        totals = {"hops": 4.0, "energy": 100.0, "snr": 10.0, field: bad}
        with pytest.raises(ValueError, match="positive and finite"):
            MetricTotals(**totals)

    def test_for_network_fills_unset_budgets(self):
        net = line4()
        assert MetricTotals.for_network(net) == MetricTotals(4.0, 100.0, 10.0)
        assert MetricTotals.for_network(net, 5.0, 7.0, 50.0) == MetricTotals(7.0, 50.0, 5.0)
        assert MetricTotals.for_network(net, 1e308, 1e308, 1e308).energy == 1e308

    def test_networks_without_energy_take_a_unit_budget(self):
        # a largest energy of 0 is no budget: every energy factor is 0
        drained = build_network([((0.0, 0.0), 1.0, 1.5), ((1.0, 0.0), 1.0, 1.5)], 1)
        for i in (0, 1):
            drained.drain_energy(i, 1.0)
        assert MetricTotals.for_network(drained) == MetricTotals(2.0, 1.0, 10.0)
        assert len(build_link_metrics(drained, clean_samples(drained))) == 0
        built_empty = build_network([((0.0, 0.0), 0.0, 1.5), ((1.0, 0.0), 0.0, 1.5)], 1)
        emptied = line4()
        for node in emptied.nodes.values():
            node.energy = 0.0
        for net in (built_empty, emptied):
            quality = quality_from_metrics(build_link_metrics(net, clean_samples(net)))
            assert len(quality) == len(net.links) > 0
            assert set(quality.values()) == {0.0}

    def test_infinite_node_energy_needs_a_budget(self):
        net = build_network([((0.0, 0.0), math.inf, 1.5), ((1.0, 0.0), 1.0, 1.5)], 1)
        with pytest.raises(ValueError, match="positive and finite"):
            MetricTotals.for_network(net)
        totals = MetricTotals.for_network(net, energy=10.0)
        assert measure_link(net, clean_samples(net), 1, 0, totals=totals).energy == 1.0


class TestMeasureLink:
    def test_clean_state_factor_values(self):
        net = line4()
        samples = clean_samples(net)
        totals = MetricTotals(hops=4.0, energy=100.0, snr=10.0)
        m = measure_link(net, samples, 0, 1, totals=totals)
        # node 1 sits 2 hops from the PE: (4 - 2) / 4
        assert m.hop == 0.5
        assert m.energy == 1.0  # full charge
        assert m.snr == 1.0  # clean channel saturates the budget
        assert m.bit_error == 1.0  # proxies the SNR factor
        assert m.delivery == 1.0 and m.loss == 1.0  # empty counters
        assert link_quality(m) == 0.5

    def test_link_into_pe_has_full_hop_factor(self):
        net = line4()
        m = measure_link(net, clean_samples(net), 2, 3)
        assert m.hop == (4.0 - 0.0) / 4.0 == 1.0

    def test_drained_receiver_zeroes_energy_factor(self):
        net = line4()
        samples = clean_samples(net)
        net.nodes[1].energy = 0.0  # drained but probed directly
        m = measure_link(net, samples, 0, 1, totals=MetricTotals(4.0, 100.0))
        assert m.energy == 0.0
        assert link_quality(m) == 0.0

    def test_flagged_endpoint_kills_link(self):
        net = line4()
        samples = clean_samples(net)
        for flagged_node in (0, 1):
            m = measure_link(
                net, samples, 0, 1, flagged=frozenset({flagged_node})
            )
            assert m.snr == 0.0
            assert link_quality(m) == 0.0

    def test_unreachable_receiver_zeroes_hop_factor(self):
        net = line4()
        samples = clean_samples(net)
        # flagging node 2 cuts 1 and 0 off the PE for hop counting
        m = measure_link(net, samples, 0, 1, flagged=frozenset({2}))
        assert m.hop == 0.0

    def test_snr_factor_scales_with_ratio(self):
        net = line4()
        totals = MetricTotals(hops=4.0, energy=100.0, snr=10.0)
        samples = {1: RadioSample(p_signal=5.0, p_noise=1.0)}  # snr 5 of 10
        m = measure_link(net, samples, 0, 1, totals=totals)
        assert m.snr == 0.5

    def test_counters_feed_delivery_and_loss(self):
        net = line4()
        counters = {(0, 1): LinkCounters(attempts=10, delivered=6)}
        m = measure_link(net, clean_samples(net), 0, 1, counters=counters)
        assert m.delivery == pytest.approx(0.6, abs=1e-12)
        assert m.loss == pytest.approx(0.6, abs=1e-12)

    def test_unknown_link_rejected(self):
        net = line4()
        with pytest.raises(ValueError, match="no link"):
            measure_link(net, clean_samples(net), 0, 3)


class TestTables:
    def test_table_covers_every_directed_link(self):
        net = line4()
        table = build_link_metrics(net, clean_samples(net))
        assert set(table) == net.links

    def test_quality_from_metrics_matches_link_quality(self):
        net = line4()
        table = build_link_metrics(net, clean_samples(net))
        quality = quality_from_metrics(table)
        for link, m in table.items():
            assert quality[link] == link_quality(m)
