"""Crystallization plant, crosstalk, and the closed-loop controller."""

import math
import re

import numpy as np
import pytest

import dotkit as dk

E0 = 1_300_000.0  # ueV, typical transition energy


def make_state(energies, positions, step_noise=None):
    emitters = tuple(
        dk.Emitter(energy=e, gamma=0.7, gamma_pd=2.5, sigma=1.0, position=p)
        for e, p in zip(energies, positions)
    )
    return dk.PlantState(dk.EmitterSystem(emitters))


class TestPlantConfig:
    def test_power_ordering_enforced(self):
        with pytest.raises(dk.ParameterError):
            dk.PlantConfig(threshold_power=3.0, kink_power=2.0)
        with pytest.raises(dk.ParameterError):
            dk.PlantConfig(kink_power=7.0, destroy_power=6.0)

    def test_edge_needs_more_power(self):
        cfg = dk.PlantConfig(edge_ratio=1.75, waveguide_length=15.0)
        center = cfg.threshold_at(7.5)
        edge = cfg.threshold_at(0.0)
        assert center == cfg.threshold_power
        assert edge / center == pytest.approx(1.75)
        assert cfg.threshold_at(20.0) == edge  # clamped beyond the ends


class TestCrosstalkKernel:
    def test_unity_at_zero(self):
        assert dk.crosstalk_kernel(0.0, 0.196) == 1.0

    def test_eightfold_attenuation_at_400nm(self):
        # Oracle: exp(-d^2/(2 s^2)) = 1/8 at d = 0.4 um gives
        # s = sqrt(0.08 / ln 8) = 0.19614 um.
        sigma = math.sqrt(0.08 / math.log(8.0))
        assert sigma == pytest.approx(0.19614, abs=1e-5)
        assert dk.crosstalk_kernel(0.4, sigma) == pytest.approx(1 / 8, rel=1e-12)
        assert dk.crosstalk_kernel(0.4, 0.196) == pytest.approx(1 / 8, rel=0.01)

    def test_negligible_beyond_one_micron(self):
        assert dk.crosstalk_kernel(1.0, 0.196) <= 0.01

    def test_symmetric_in_distance(self):
        assert dk.crosstalk_kernel(-0.3, 0.2) == dk.crosstalk_kernel(0.3, 0.2)


class TestApplyExposure:
    def test_below_threshold_only_noise(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        pulse = dk.ExposurePulse(site=7.5, power=1.0, duration=10.0)
        _, shift = dk.apply_exposure(state, cfg, pulse, dk.RngSeed(1))
        assert abs(shift[0]) <= 4 * cfg.step_noise

    def test_bystander_follows_kernel(self):
        # A site shift of 37.25 meV leaves ~1/8 (4.66 meV) on a line 0.4 um away.
        cfg = dk.PlantConfig(step_noise=0.0)
        state = make_state([E0, E0], [7.5, 7.9])
        raw = 37_250.0
        duration = raw / cfg.max_shift / cfg.growth_rate  # mW*s at 1 mW excess
        pulse = dk.ExposurePulse(site=7.5, power=cfg.threshold_at(7.5) + 1.0, duration=duration)
        _, shift = dk.apply_exposure(state, cfg, pulse, dk.RngSeed(2))
        assert shift[0] == pytest.approx(raw, rel=1e-6)
        assert shift[0] / shift[1] == pytest.approx(8.0, rel=0.1)

    def test_accumulates_beyond_65_mev_before_saturation(self):
        # Repeated low-power exposures (the optimized procedure) cover the
        # full inhomogeneous distribution before crystallization saturates.
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        gen = dk.RngSeed(3).generator()
        pulse = dk.ExposurePulse(site=7.5, power=3.0, duration=10.0)
        crossed_while_growing = False
        for _ in range(200):
            dk.apply_exposure(state, cfg, pulse, gen)
            if state.emitter_shifts[0] >= 65_000.0 and state.site_fraction[7.5] < 1.0:
                crossed_while_growing = True
            if state.site_fraction[7.5] >= 1.0:
                break
        assert crossed_while_growing
        assert state.emitter_shifts[0] >= 65_000.0

    def test_destruction_above_limit(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        with pytest.raises(dk.PlantDestroyedError):
            dk.apply_exposure(
                state, cfg, dk.ExposurePulse(7.5, cfg.destroy_power + 0.5, 1.0), dk.RngSeed(4)
            )
        assert not state.alive
        with pytest.raises(dk.PlantDestroyedError):
            dk.apply_exposure(state, cfg, dk.ExposurePulse(7.5, 1.0, 1.0), dk.RngSeed(5))

    def test_irreversibility(self):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 100], [7.0, 8.5])
        gen = dk.RngSeed(6).generator()
        previous_shifts = state.emitter_shifts.copy()
        previous_fraction = 0.0
        for power in (2.0, 2.8, 3.1, 2.6, 3.4):
            dk.apply_exposure(state, cfg, dk.ExposurePulse(7.0, power, 3.0), gen)
            assert np.all(state.emitter_shifts >= previous_shifts)
            assert state.site_fraction[7.0] >= previous_fraction
            previous_shifts = state.emitter_shifts.copy()
            previous_fraction = state.site_fraction[7.0]

    def test_locality_ratio(self):
        cfg = dk.PlantConfig(step_noise=0.0)
        state = make_state([E0, E0, E0], [7.5, 7.8, 8.4])
        _, shift = dk.apply_exposure(
            state, cfg, dk.ExposurePulse(7.5, 3.2, 5.0), dk.RngSeed(7)
        )
        expected = dk.crosstalk_kernel(0.3, cfg.kernel_sigma) / dk.crosstalk_kernel(
            0.9, cfg.kernel_sigma
        )
        assert shift[1] / shift[2] == pytest.approx(expected, rel=1e-9)

    def test_saturation_bound(self):
        cfg = dk.PlantConfig(step_noise=0.0)
        state = make_state([E0, E0], [7.5, 7.9])
        gen = dk.RngSeed(8).generator()
        for _ in range(100):
            dk.apply_exposure(state, cfg, dk.ExposurePulse(7.5, 3.5, 10.0), gen)
        assert state.site_fraction[7.5] == pytest.approx(1.0)
        assert state.emitter_shifts[0] <= cfg.max_shift + 1e-9
        assert state.emitter_shifts[1] <= cfg.max_shift * dk.crosstalk_kernel(
            0.4, cfg.kernel_sigma
        ) + 1e-9


class TestCalibrateRamp:
    def test_flat_then_growth_then_kink(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        powers = np.arange(0.5, 5.8, 0.25)
        p, shifts = dk.calibrate_ramp(state, cfg, 7.5, powers, 5.0, dk.RngSeed(9))
        below = p <= cfg.threshold_at(7.5)
        assert np.all(np.abs(shifts[below]) <= 5 * cfg.step_noise)
        slopes = np.diff(shifts) / np.diff(p)
        growth = (p[1:] > cfg.threshold_at(7.5)) & (p[1:] <= cfg.kink_at(7.5))
        above = p[1:] > cfg.kink_at(7.5)
        assert slopes[above].mean() / slopes[growth].mean() >= 3.0

    def test_destruction_at_crossing_power(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        powers = np.arange(3.0, 8.0, 0.5)
        with pytest.raises(dk.PlantDestroyedError) as err:
            dk.calibrate_ramp(state, cfg, 7.5, powers, 5.0, dk.RngSeed(10))
        partial_powers, _ = err.value.ramp
        assert partial_powers[-1] <= cfg.destroy_at(7.5)

    def test_powers_must_ascend(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        with pytest.raises(dk.ParameterError):
            dk.calibrate_ramp(state, cfg, 7.5, [2.0, 1.5], 5.0, dk.RngSeed(0))


class TestEnergyMeter:
    def test_readout_accuracy(self):
        state = make_state([E0], [7.5])
        meter = dk.EnergyMeter()
        gen = dk.RngSeed(12).generator()
        errors = [meter.measure(state, 0, gen) - E0 for _ in range(20)]
        assert np.abs(errors).max() <= 0.5

    def test_tracks_after_large_jump(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        meter = dk.EnergyMeter()
        gen = dk.RngSeed(13).generator()
        meter.measure(state, 0, gen)
        state.emitter_shifts = state.emitter_shifts + 500.0  # line leaves the window
        assert meter.measure(state, 0, gen) == pytest.approx(E0 + 500.0, abs=0.5)
        assert meter.last_rescans >= 1

    def test_line_near_the_window_edge(self):
        # Expected 85% of the window off the line: the first scan holds the
        # line near its edge, and the meter recenters and rescans.
        state = make_state([E0], [7.5])
        meter = dk.EnergyMeter(half_window=400.0)
        reading = meter.measure(state, 0, dk.RngSeed(14), expected=E0 - 340.0)
        assert reading == pytest.approx(E0, abs=1.0)
        assert meter.last_rescans >= 1

    def test_default_window_fits_the_line(self):
        line = make_state([E0], [7.5]).system.emitters[0]
        width = dk.spectra.line_fwhm(line.gamma, line.gamma_pd, line.sigma, 2.4)
        assert dk.EnergyMeter().window(line) == pytest.approx(12.0 * width)

    def test_explicit_window_below_coverage_rejected(self):
        state = make_state([E0], [7.5])
        meter = dk.EnergyMeter(half_window=60.0)
        with pytest.raises(dk.ParameterError, match="half_window"):
            meter.measure(state, 0, dk.RngSeed(13).generator())


class TestTuneToTarget:
    def test_target_already_met(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        log = dk.tune_to_target(state, cfg, 0, E0, tolerance=5.0, rng=dk.RngSeed(14))
        assert len(log) == 0

    def test_red_target_rejected(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        with pytest.raises(dk.UnreachableTargetError):
            dk.tune_to_target(state, cfg, 0, E0 - 500.0, tolerance=5.0, rng=dk.RngSeed(15))

    def test_17_mev_tune_with_quiet_bystanders(self):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 5000, E0 - 3000], [7.5, 8.8, 10.1])
        log = dk.tune_to_target(
            state, cfg, 0, E0 + 17_000.0, tolerance=5.0, max_exposures=200, rng=dk.RngSeed(16)
        )
        final = state.energies()
        assert abs(final[0] - (E0 + 17_000.0)) <= 5.0
        assert abs(final[1] - (E0 + 5000)) <= 100.0
        assert abs(final[2] - (E0 - 3000)) <= 100.0
        assert all(r.pulse.power < cfg.destroy_at(r.pulse.site) for r in log)

    def test_controller_stays_below_kink(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        log = dk.tune_to_target(
            state, cfg, 0, E0 + 8_000.0, tolerance=5.0, max_exposures=200, rng=dk.RngSeed(17)
        )
        assert all(r.pulse.power <= cfg.kink_at(r.pulse.site) for r in log)

    def test_final_approach_statistics(self):
        # 100 short runs with ~1 ueV steps against ~1 ueV noise.
        cfg = dk.PlantConfig()
        finals = []
        overshoots = 0
        for seed in range(100):
            state = make_state([E0], [7.5])
            target = E0 + 300.0
            dk.tune_to_target(
                state, cfg, 0, target, tolerance=2.0, max_exposures=100,
                rng=dk.RngSeed(20_000 + seed),
            )
            offset = state.energies()[0] - target
            finals.append(offset)
            if offset > 2.0:
                overshoots += 1
        assert np.abs(finals).mean() <= 2.0
        assert overshoots <= 1

    def test_budget_exhaustion(self):
        cfg = dk.PlantConfig()
        state = make_state([E0], [7.5])
        with pytest.raises(dk.BudgetExhaustedError) as err:
            dk.tune_to_target(
                state, cfg, 0, E0 + 17_000.0, tolerance=5.0, max_exposures=3, rng=dk.RngSeed(18)
            )
        assert len(err.value.log) == 3


class TestAlignResonance:
    def test_pair_054_mev_apart(self):
        # The two-emitter demonstration: 0.54 meV detuned, 1.2 um apart.
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 540.0], [7.0, 8.2])
        log = dk.align_resonance(state, cfg, [0, 1], tolerance=2.0, rng=dk.RngSeed(19))
        final = state.energies()
        assert abs(final[0] - final[1]) <= 2.0
        assert len(log) <= 500
        assert state.alive

    def test_already_resonant_is_empty(self):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 0.2], [7.0, 8.2])
        log = dk.align_resonance(state, cfg, [0, 1], tolerance=2.0, rng=dk.RngSeed(20))
        assert len(log) == 0

    def test_infeasible_layout(self):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 300.0], [7.0, 7.1])
        with pytest.raises(dk.InfeasibleLayoutError):
            dk.align_resonance(state, cfg, [0, 1], tolerance=2.0, rng=dk.RngSeed(21))

    def test_three_emitters_in_5_mev_window(self):
        cfg = dk.PlantConfig()
        state = make_state([E0 + 120.0, E0 + 2480.0, E0 + 4730.0], [6.0, 7.3, 8.6])
        log = dk.align_resonance(state, cfg, [0, 1, 2], tolerance=2.0, rng=dk.RngSeed(22))
        final = state.energies()
        assert final.max() - final.min() <= 2.0
        assert len(log) <= 500
        assert state.alive


class TestDeterminismAndJournal:
    def run_align(self, tmp_path, name):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 540.0], [7.0, 8.2])
        log = dk.align_resonance(state, cfg, [0, 1], tolerance=2.0, rng=dk.RngSeed(23))
        path = tmp_path / name
        dk.write_journal(path, log)
        return path.read_bytes(), state.energies()

    def test_fixed_seed_reproduces_journal(self, tmp_path):
        a, ea = self.run_align(tmp_path, "a.txt")
        b, eb = self.run_align(tmp_path, "b.txt")
        assert a == b
        np.testing.assert_array_equal(ea, eb)

    def test_journal_round_trip(self, tmp_path):
        cfg = dk.PlantConfig()
        state = make_state([E0, E0 + 540.0], [7.0, 8.2])
        log = dk.align_resonance(state, cfg, [0, 1], tolerance=2.0, rng=dk.RngSeed(24))
        path = tmp_path / "journal.txt"
        dk.write_journal(path, log)
        back = dk.read_journal(path)
        assert len(back) == len(log)
        for original, parsed in zip(log, back):
            assert parsed.pulse.site == pytest.approx(original.pulse.site, rel=1e-9)
            assert parsed.pulse.power == pytest.approx(original.pulse.power, rel=1e-9)
            assert parsed.pulse.duration == pytest.approx(original.pulse.duration, rel=1e-9)
            assert parsed.spectra == original.spectra
            assert parsed.energies == pytest.approx(original.energies)

    def test_records_list_the_lines_measured_after_their_pulse(self):
        # Only the stepped line is read after a pulse; when a line's loop
        # stops, the other targets are read once more into its last record.
        cfg = dk.PlantConfig()
        state = make_state([E0 + 120.0, E0 + 2480.0, E0 + 4730.0], [6.0, 7.3, 8.6])
        meter = dk.EnergyMeter()
        log = dk.align_resonance(
            state, cfg, [0, 1, 2], tolerance=2.0, rng=dk.RngSeed(22), meter=meter
        )
        assert len(log) > 0
        for record in log:
            assert len(record.spectra) == len(record.energies)
        refs = [ref for record in log for ref in record.spectra]
        assert len(set(refs)) == len(refs)
        assert meter.counter == 3 + len(refs)  # the three opening readings, then these
        assert any(len(record.energies) == 1 for record in log)
        assert all(len(record.energies) in (1, 3) for record in log)

    def test_last_record_lists_every_target_within_tolerance(self):
        cfg = dk.PlantConfig()
        tolerance = 2.0
        for seed, energies in ((22, [120.0, 2480.0, 4730.0]), (25, [0.0, 900.0, 3100.0])):
            state = make_state([E0 + e for e in energies], [6.0, 7.3, 8.6])
            log = dk.align_resonance(
                state, cfg, [0, 1, 2], tolerance=tolerance, rng=dk.RngSeed(seed)
            )
            last = log.records[-1].energies
            assert sorted(last) == [0, 1, 2]
            assert max(last.values()) - min(last.values()) <= 0.75 * tolerance

    def test_round_trips_records_of_different_lines(self, tmp_path):
        log = dk.ExposureLog()
        pulse = dk.ExposurePulse(6.0, 3.0, 0.5)
        log.append(dk.ExposureRecord(pulse, {1: E0 + 2.5}, ("scan00004",), 1))
        log.append(
            dk.ExposureRecord(
                dk.ExposurePulse(7.3, 2.9, 0.1),
                {0: E0 + 3.0, 1: E0 + 2.75, 2: E0 + 3.25},
                ("scan00005", "scan00006", "scan00007"),
                0,
            )
        )
        pulse = dk.ExposurePulse(8.6, 2.6, 0.1)
        log.append(dk.ExposureRecord(pulse, {2: E0 + 4.0}, ("scan00008",), 0))
        path = tmp_path / "journal.txt"
        dk.write_journal(path, log)
        back = dk.read_journal(path)
        assert [r.energies for r in back] == [r.energies for r in log]
        assert [r.spectra for r in back] == [r.spectra for r in log]
        assert [r.rescans for r in back] == [1, 0, 0]
        assert [r.pulse for r in back] == [r.pulse for r in log]

    def test_rescans_round_trip(self, tmp_path):
        pulse = dk.ExposurePulse(7.0, 3.0, 0.5)
        log = dk.ExposureLog()
        log.append(dk.ExposureRecord(pulse, {0: E0, 1: E0 + 1.5}, ("scan00001", "scan00002"), 0))
        log.append(dk.ExposureRecord(pulse, {0: E0 + 2.0, 1: E0 + 1.5}, ("scan00003",), 3))
        path = tmp_path / "journal.txt"
        dk.write_journal(path, log)
        back = dk.read_journal(path)
        assert [r.rescans for r in back] == [0, 3]
        assert [r.spectra for r in back] == [r.spectra for r in log]

    def test_reads_journal_without_rescans_column(self, tmp_path):
        path = tmp_path / "journal.txt"
        path.write_text(
            "# exposure journal\n"
            "# n site_um power_mW duration_s energies(idx=ueV;...) spectra\n"
            "1\t7\t3.1\t0.5\t0=1300010.5;1=1300540.25\tscan00003,scan00004\n"
            "2\t7\t3.2\t0.25\t0=1300020;1=1300540.5\t-\n"
        )
        back = dk.read_journal(path)
        assert len(back) == 2
        assert [r.rescans for r in back] == [0, 0]
        assert back.records[0].energies == {0: 1300010.5, 1: 1300540.25}
        assert back.records[0].spectra == ("scan00003", "scan00004")
        assert back.records[1].spectra == ()
        assert back.records[1].pulse.duration == 0.25

    @pytest.mark.parametrize(
        "row",
        [
            "7\thot\t0.5\t0=1300010.5\t-\t0",
            "7\t3.1\t0.5",
            "7\t3.1\t0.5\t0:1300010.5\t-\t0",
            "7\t3.1\t0.5\t0=near\t-\t0",
            "7\t3.1\t0.5\t0=1300010.5\tscan00002\t0\tjunk",
            "7\t3.1\t0.5\t0=1.0;0=2.0\t-\t0",
            "7\t3.1\t0.5\t0=1300010.5\t-\t-4",
            "nan\t3.1\t0.5\t0=1300010.5\t-\t0",
            "7\tnan\t0.5\t0=1300010.5\t-\t0",
            "7\t3.1\tinf\t0=1300010.5\t-\t0",
            "7\t3.1\t0.5\t0=nan\t-\t0",
        ],
        ids=[
            "non-numeric-power",
            "too-few-fields",
            "energy-without-equals",
            "energy-not-a-number",
            "too-many-fields",
            "repeated-energy-index",
            "negative-rescans",
            "nan-site",
            "nan-power",
            "infinite-duration",
            "nan-energy",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "journal.txt"
        path.write_text(
            "# exposure journal\n"
            "1\t7\t3.1\t0.5\t0=1300010.5\tscan00001\t0\n"
            f"2\t{row}\n"
        )
        with pytest.raises(dk.ParameterError, match=re.escape(f"journal {path}, line 3: ")):
            dk.read_journal(path)
