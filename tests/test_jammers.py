import math
from random import Random

import pytest

from antjam.jammers import (
    Jammer,
    JammerKind,
    RadioParams,
    RadioSample,
    deceptive_victims,
    is_jammed,
    jammed_from_samples,
    jammer_emission,
    noise_at,
    path_gain,
    sample_radio,
    signal_to_noise_ratio,
)
from antjam.network import build_network, grid_network


def make_jammer(kind, power=1.0, position=(0.0, 0.0), **kw):
    return Jammer(kind=kind, position=position, power=power, **kw)


def jammed(net, jammers, t, radio, rng):
    """Nodes drowned out at step t, before debounce, as the engine flags them."""
    return jammed_from_samples(sample_radio(net, jammers, t, radio, rng))


class TestSnr:
    def test_ratio(self):
        assert signal_to_noise_ratio(RadioSample(2.0, 4.0)) == 0.5
        assert signal_to_noise_ratio(RadioSample(4.0, 2.0)) == 2.0

    def test_jammed_strictly_below_one(self):
        assert is_jammed(0.999)
        assert not is_jammed(1.0)
        assert not is_jammed(1.5)

    def test_sample_validation(self):
        for signal, noise in ((-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0),
                              (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                RadioSample(signal, noise)
        # finite jammer powers can overflow the noise: that is SNR 0, a jam
        assert is_jammed(signal_to_noise_ratio(RadioSample(1.0, math.inf)))


class TestPathGain:
    def test_reference_distance_caps_at_one(self):
        assert path_gain(0.0, 1.0, 2.0) == 1.0
        assert path_gain(0.5, 1.0, 2.0) == 1.0
        assert path_gain(1.0, 1.0, 2.0) == 1.0

    def test_square_law(self):
        # twice the reference distance at gamma 2: gain (1/2)^2
        assert path_gain(2.0, 1.0, 2.0) == 0.25

    def test_monotone_decreasing(self):
        gains = [path_gain(d / 4, 1.0, 2.7) for d in range(1, 60)]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestEmission:
    def test_constant_always_on_after_start(self):
        j = make_jammer(JammerKind.CONSTANT, power=2.0, start=3)
        rng = Random(0)
        got = [jammer_emission(j, t, False, rng) for t in range(6)]
        assert got == [0.0, 0.0, 0.0, 2.0, 2.0, 2.0]

    def test_deceptive_emits_like_constant(self):
        j = make_jammer(JammerKind.DECEPTIVE, power=1.5)
        rng = Random(0)
        assert [jammer_emission(j, t, False, rng) for t in range(4)] == [1.5] * 4

    def test_random_fixed_cycle(self):
        # sleep 2 then jam 3, repeating
        j = make_jammer(
            JammerKind.RANDOM, power=1.0, sleep_steps=(2, 2), jam_steps=(3, 3)
        )
        rng = Random(0)
        got = [jammer_emission(j, t, False, rng) for t in range(10)]
        assert got == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_random_idempotent_within_step(self):
        j = make_jammer(
            JammerKind.RANDOM, power=1.0, sleep_steps=(1, 4), jam_steps=(1, 4)
        )
        rng = Random(42)
        for t in range(20):
            first = jammer_emission(j, t, False, rng)
            again = jammer_emission(j, t, False, rng)
            assert first == again

    def test_random_reproducible(self):
        def sequence(seed):
            j = make_jammer(
                JammerKind.RANDOM, power=1.0, sleep_steps=(1, 5), jam_steps=(2, 6)
            )
            rng = Random(seed)
            return [jammer_emission(j, t, False, rng) for t in range(60)]

        assert sequence(9) == sequence(9)
        assert sequence(9) != sequence(10)  # schedules actually vary

    def test_reactive_follows_last_step_activity(self):
        j = make_jammer(JammerKind.REACTIVE, power=0.7)
        rng = Random(0)
        assert jammer_emission(j, 0, False, rng) == 0.0
        assert jammer_emission(j, 1, True, rng) == 0.7
        assert jammer_emission(j, 2, False, rng) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_jammer(JammerKind.CONSTANT, power=0.0)
        with pytest.raises(ValueError):
            make_jammer(JammerKind.RANDOM, sleep_steps=(0, 2))
        with pytest.raises(ValueError):
            make_jammer(JammerKind.RANDOM, jam_steps=(4, 2))
        with pytest.raises(ValueError):
            make_jammer(JammerKind.CONSTANT, start=-1)

    def test_validation_rejects_nan(self):
        with pytest.raises(ValueError, match="power must be positive"):
            make_jammer(JammerKind.CONSTANT, power=math.nan)
        with pytest.raises(ValueError, match="power must be positive and finite"):
            make_jammer(JammerKind.CONSTANT, power=math.inf)
        with pytest.raises(ValueError, match="sense_range must be positive"):
            make_jammer(JammerKind.REACTIVE, sense_range=math.nan)
        with pytest.raises(ValueError, match="position must not be NaN"):
            make_jammer(JammerKind.CONSTANT, position=(0.0, math.nan))
        assert make_jammer(JammerKind.REACTIVE, sense_range=math.inf)

    def test_radio_params_reject_nan(self):
        for name in ("floor", "tx_power", "d0", "gamma"):
            with pytest.raises(ValueError):
                RadioParams(**{name: math.nan})
        with pytest.raises(ValueError) as exc:
            RadioParams(tx_power=math.inf)
        assert str(exc.value) == "tx_power must be < inf, got inf"


class TestNoise:
    def net2(self):
        return build_network(
            [((0.0, 0.0), 10.0, 5.0), ((1.0, 0.0), 10.0, 5.0)], 1
        )

    def test_floor_only_without_jammers(self):
        net = self.net2()
        radio = RadioParams(floor=1e-9)
        assert noise_at(net, [], 0, 0, radio, Random(0)) == 1e-9

    def test_single_jammer_square_law(self):
        # jammer 2 reference distances away contributes power * 0.25
        net = self.net2()
        radio = RadioParams(floor=1e-9, d0=1.0, gamma=2.0)
        j = make_jammer(JammerKind.CONSTANT, power=1.0, position=(0.0, 2.0))
        noise = noise_at(net, [j], 0, 0, radio, Random(0))
        assert noise == pytest.approx(1e-9 + 0.25, abs=0.0)

    def test_noise_adds_over_jammers(self):
        net = self.net2()
        radio = RadioParams()
        js = [
            make_jammer(JammerKind.CONSTANT, power=0.5, position=(0.0, 2.0)),
            make_jammer(JammerKind.CONSTANT, power=0.5, position=(0.0, 3.0)),
        ]
        lone0 = noise_at(net, [js[0]], 0, 0, radio, Random(0)) - radio.floor
        lone1 = noise_at(net, [js[1]], 0, 0, radio, Random(0)) - radio.floor
        both = noise_at(net, js, 0, 0, radio, Random(0)) - radio.floor
        assert both == pytest.approx(lone0 + lone1, rel=1e-12)


class TestJammedSet:
    def test_monotone_in_jammer_count_and_power(self):
        net = grid_network(5, 5, 10.0, 12.0, 100.0, pe_index=24)
        radio = RadioParams(tx_power=0.1)
        rng = Random(0)
        base_jammer = make_jammer(
            JammerKind.CONSTANT, power=0.2, position=(20.0, 20.0)
        )
        base = jammed(net, [base_jammer], 0, radio, rng)
        more_power = jammed(
            net,
            [make_jammer(JammerKind.CONSTANT, power=0.9, position=(20.0, 20.0))],
            0,
            radio,
            rng,
        )
        extra_jammer = jammed(
            net,
            [
                base_jammer,
                make_jammer(JammerKind.CONSTANT, power=0.2, position=(40.0, 40.0)),
            ],
            0,
            radio,
            rng,
        )
        assert base <= more_power
        assert base <= extra_jammer

    def test_matches_brute_force_on_small_grid(self):
        # independent recomputation from raw positions
        net = grid_network(3, 3, 10.0, 12.0, 100.0, pe_index=8)
        radio = RadioParams(floor=1e-9, tx_power=0.1, d0=1.0, gamma=2.0)
        j = make_jammer(JammerKind.CONSTANT, power=0.08, position=(10.0, 10.0))
        got = jammed(net, [j], 0, radio, Random(0))

        expected = set()
        for i, node in net.nodes.items():
            x, y = node.position
            neighbor_d = min(
                math.hypot(x - other.position[0], y - other.position[1])
                for o, other in net.nodes.items()
                if o != i
                and math.hypot(x - other.position[0], y - other.position[1])
                <= min(node.radio_range, other.radio_range)
            )
            p_sig = 0.1 * min(1.0, (1.0 / neighbor_d) ** 2)
            dj = math.hypot(x - 10.0, y - 10.0)
            p_noise = 1e-9 + 0.08 * min(1.0, (1.0 / dj) ** 2 if dj > 0 else 1.0)
            if p_sig / p_noise < 1.0:
                expected.add(i)
        assert got == expected
        assert got  # the chosen power does jam someone
        assert got != set(net.nodes)  # but not everyone

    def test_isolated_node_not_evaluated(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 1.5), ((1.0, 0.0), 10.0, 1.5), ((9.0, 9.0), 10.0, 1.0)],
            0,
        )
        j = make_jammer(JammerKind.CONSTANT, power=100.0, position=(9.0, 9.0))
        got = jammed(net, [j], 0, RadioParams(), Random(0))
        assert 2 not in got  # no neighbor, nothing to receive


class TestDeceptiveVictims:
    def test_victims_where_fake_signal_wins(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0), ((100.0, 0.0), 10.0, 200.0)],
            1,
        )
        radio = RadioParams(tx_power=0.1)
        j = make_jammer(JammerKind.DECEPTIVE, power=0.5, position=(0.0, 1.0))
        victims = deceptive_victims(net, [j], 0, radio)
        # node 0: reference signal 0.1 (neighbor at 1.0), fake 0.5 at distance 1 -> victim
        assert 0 in victims
        # node 2 is isolated from 0/1 but in mutual range of nobody: skipped
        assert 2 not in victims

    def test_equal_key_returns_the_same_victims(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        j = make_jammer(JammerKind.DECEPTIVE, power=5.0, position=(0.0, 1.0))
        victims = deceptive_victims(net, [j], 0, RadioParams())
        assert victims == {0, 1} and isinstance(victims, frozenset)
        assert deceptive_victims(net, [j], 1, RadioParams()) is victims

    def test_constant_jammer_makes_no_victims(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        j = make_jammer(JammerKind.CONSTANT, power=5.0, position=(0.0, 1.0))
        assert deceptive_victims(net, [j], 0, RadioParams()) == set()

    def test_inactive_before_start(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        j = make_jammer(JammerKind.DECEPTIVE, power=5.0, position=(0.0, 1.0), start=4)
        assert deceptive_victims(net, [j], 3, RadioParams()) == set()
        assert deceptive_victims(net, [j], 4, RadioParams()) != set()


class TestSampleRadio:
    def test_reactive_trigger_state_respected(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        radio = RadioParams(tx_power=0.1)
        j = make_jammer(JammerKind.REACTIVE, power=5.0, position=(0.5, 0.0))
        j.triggered = False
        quiet = sample_radio(net, [j], 0, radio, Random(0))
        assert not any(is_jammed(signal_to_noise_ratio(s)) for s in quiet.values())
        j.triggered = True
        loud = sample_radio(net, [j], 1, radio, Random(0))
        assert all(is_jammed(signal_to_noise_ratio(s)) for s in loud.values())

    def test_one_read_only_picture_and_flag_set_per_key(self):
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0)], 1
        )
        radio = RadioParams(tx_power=0.1)
        j = make_jammer(JammerKind.CONSTANT, power=5.0, position=(0.5, 0.0))
        first = sample_radio(net, [j], 0, radio, Random(0))
        flagged = jammed_from_samples(first)
        assert flagged == {0, 1}
        with pytest.raises(TypeError):
            first[0] = RadioSample(1.0, 1.0)  # a caller cannot corrupt the memo
        again = sample_radio(net, [j], 1, radio, Random(0))
        assert again is first
        assert jammed_from_samples(again) is flagged
        j.power = 1e-6  # a new emission is a new picture
        quiet = sample_radio(net, [j], 2, radio, Random(0))
        assert quiet is not first and jammed_from_samples(quiet) == set()

    def test_picture_is_kept_until_a_link_goes(self):
        # 0 - 1 - 2 on a line, and 3 out of everyone's range
        net = build_network(
            [((0.0, 0.0), 10.0, 2.0), ((1.0, 0.0), 10.0, 2.0),
             ((2.0, 0.0), 10.0, 2.0), ((50.0, 0.0), 10.0, 2.0)],
            1,
        )
        radio = RadioParams(tx_power=0.1)
        j = make_jammer(JammerKind.CONSTANT, power=5.0, position=(0.5, 0.0))
        first = sample_radio(net, [j], 0, radio, Random(0))
        assert net.drain_energy(3, 10.0)  # the isolated node dies: no link goes
        assert sample_radio(net, [j], 1, radio, Random(0)) is first
        assert net.drain_energy(2, 10.0)  # a linked node dies
        after = sample_radio(net, [j], 2, radio, Random(0))
        assert after is not first and set(after) == {0, 1}
