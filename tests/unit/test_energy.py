"""Unit tests for the energy substrate (model, battery, accounting)."""

import random

import pytest

from repro.energy import (
    MOTE_PROFILE,
    NodeBattery,
    PowerProfile,
    RadioMode,
    draw_initial_energy,
    summarize_energy,
)


class TestPowerProfile:
    def test_paper_constants(self):
        """§5.1: 60 mW tx, 12 mW rx, 12 mW idle, 0.03 mW sleep."""
        assert MOTE_PROFILE.tx_w == pytest.approx(0.060)
        assert MOTE_PROFILE.rx_w == pytest.approx(0.012)
        assert MOTE_PROFILE.idle_w == pytest.approx(0.012)
        assert MOTE_PROFILE.sleep_w == pytest.approx(0.00003)

    def test_paper_idle_lifetime(self):
        """54-60 J at idle draw -> about 4500-5000 s (§5.1)."""
        assert MOTE_PROFILE.idle_lifetime_s(54.0) == pytest.approx(4500.0)
        assert MOTE_PROFILE.idle_lifetime_s(60.0) == pytest.approx(5000.0)

    def test_mode_power_mapping(self):
        assert MOTE_PROFILE.mode_power(RadioMode.SLEEP) == MOTE_PROFILE.sleep_w
        assert MOTE_PROFILE.mode_power(RadioMode.IDLE) == MOTE_PROFILE.idle_w
        assert MOTE_PROFILE.mode_power(RadioMode.OFF) == 0.0

    def test_frame_energy(self):
        assert MOTE_PROFILE.frame_energy("tx", 0.010) == pytest.approx(0.0006)
        assert MOTE_PROFILE.frame_energy("rx", 0.010) == pytest.approx(0.00012)

    def test_frame_energy_validation(self):
        with pytest.raises(ValueError):
            MOTE_PROFILE.frame_energy("sideways", 0.01)
        with pytest.raises(ValueError):
            MOTE_PROFILE.frame_energy("tx", -0.01)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            PowerProfile(tx_w=-1.0)
        with pytest.raises(ValueError):
            PowerProfile(initial_energy_min_j=60.0, initial_energy_max_j=54.0)

    def test_draw_initial_energy_in_range(self):
        rng = random.Random(1)
        for _ in range(200):
            energy = draw_initial_energy(MOTE_PROFILE, rng)
            assert 54.0 <= energy <= 60.0


class TestNodeBattery:
    def test_initial_state(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        assert battery.remaining(0.0) == 57.0
        assert battery.mode is RadioMode.SLEEP

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            NodeBattery(MOTE_PROFILE, 0.0)

    def test_sleep_draw_tiny(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        assert battery.remaining(1000.0) == pytest.approx(57.0 - 0.00003 * 1000)

    def test_idle_draw(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        assert battery.remaining(100.0) == pytest.approx(57.0 - 1.2)

    def test_mode_switch_integrates_piecewise(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        battery.set_mode(100.0, RadioMode.SLEEP)
        expected = 57.0 - 0.012 * 100 - 0.00003 * 50
        assert battery.remaining(150.0) == pytest.approx(expected)

    def test_off_mode_no_draw(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.OFF)
        assert battery.remaining(1e9) == pytest.approx(57.0)

    def test_charge_frame_decrements_and_categorizes(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        battery.charge_frame(10.0, MOTE_PROFILE.frame_energy("tx", 0.010), "probe_tx")
        assert battery.by_category["probe_tx"] == pytest.approx(0.0006)
        expected = 57.0 - 0.012 * 10 - 0.0006
        assert battery.remaining(10.0) == pytest.approx(expected)

    def test_frame_joules_is_the_charged_amount(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        joules = MOTE_PROFILE.frame_energy("rx", 0.010)
        left = battery.charge_frame(10.0, joules, "reply_rx")
        assert battery.by_category["reply_rx"] == joules
        assert left == 57.0 - MOTE_PROFILE.sleep_w * 10.0 - joules

    def test_attribute_does_not_decrement(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        before = battery.remaining(0.0)
        battery.attribute("probe_idle", 0.5)
        assert battery.remaining(0.0) == before
        assert battery.by_category["probe_idle"] == 0.5

    def test_attribute_negative_rejected(self):
        with pytest.raises(ValueError):
            NodeBattery(MOTE_PROFILE, 57.0).attribute("x", -1.0)

    def test_charge_arbitrary(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.charge(0.0, 2.0, "election")
        assert battery.remaining(0.0) == pytest.approx(55.0)

    def test_never_negative(self):
        battery = NodeBattery(MOTE_PROFILE, 1.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        assert battery.remaining(1e6) == 0.0

    def test_depleted(self):
        battery = NodeBattery(MOTE_PROFILE, 1.2)
        battery.set_mode(0.0, RadioMode.IDLE)
        assert not battery.depleted(50.0)
        assert battery.depleted(101.0)

    def test_time_to_depletion_idle(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        assert battery.time_to_depletion(0.0) == pytest.approx(57.0 / 0.012)

    def test_time_to_depletion_off_is_none(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.OFF)
        assert battery.time_to_depletion(0.0) is None

    def test_time_backwards_rejected(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.remaining(10.0)
        with pytest.raises(ValueError):
            battery.remaining(5.0)

    def test_consumed_complements_remaining(self):
        battery = NodeBattery(MOTE_PROFILE, 57.0)
        battery.set_mode(0.0, RadioMode.IDLE)
        assert battery.consumed(100.0) == pytest.approx(57.0 - battery.remaining(100.0))


class TestSummarizeEnergy:
    def test_totals_and_overhead(self):
        batteries = []
        for _ in range(3):
            battery = NodeBattery(MOTE_PROFILE, 57.0)
            battery.set_mode(0.0, RadioMode.IDLE)
            battery.charge_frame(10.0, MOTE_PROFILE.frame_energy("tx", 0.010), "probe_tx")
            battery.charge(10.0, 0.1, "data_tx")
            batteries.append(battery)
        report = summarize_energy(batteries, now=10.0)
        assert report.total_consumed_j == pytest.approx(3 * (0.12 + 0.0006 + 0.1))
        assert report.overhead_j == pytest.approx(3 * 0.0006)
        assert 0 < report.overhead_ratio < 1

    def test_empty_population(self):
        report = summarize_energy([], now=0.0)
        assert report.total_consumed_j == 0.0
        assert report.overhead_ratio == 0.0

    def test_format_row(self):
        report = summarize_energy([], now=0.0)
        assert "overhead" in report.format_row("x")
