import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmetro.lasers import (
    C_NM_GHZ,
    C_UM_THZ,
    CalibrationTable,
    ChannelUnreachable,
    DriftModel,
    KnobDimensionMismatch,
    MemsVcselModel,
    NoCoincidence,
    NoModeInBand,
    OutOfRange,
    ThermalDbrModel,
    VernierModel,
    apply_tuning,
    calibrate,
    step_drift,
)
from gmetro.link import FrequencyPlan


# --------------------------------------------------------------------------
# MEMS VCSEL

def test_mems_fsr_keeps_single_mode():
    # n=3.2, L=1.0 um -> FSR = c/(2*3.2*1um) ~ 46.9 THz >> 12.5 THz gain band
    fsr = C_UM_THZ / (2 * 3.2 * 1.0)
    assert fsr == pytest.approx(46.9, abs=0.1)
    laser = MemsVcselModel(cavity_length_um=1.0, length_range_um=(0.9, 1.1))
    state = laser.emission()
    assert state.single_mode


def test_mems_first_order_length_sensitivity():
    laser = MemsVcselModel()
    f0 = laser.emission().frequency_thz
    laser.cavity_length_um *= 0.999
    f1 = laser.emission().frequency_thz
    assert f1 / f0 == pytest.approx(1.0 / 0.999, rel=1e-9)


def test_mems_no_mode_in_band():
    laser = MemsVcselModel(gain_center_thz=60.0, gain_bandwidth_thz=1.0)
    with pytest.raises(NoModeInBand):
        laser.emission()


def test_mems_out_of_range_length():
    laser = MemsVcselModel(cavity_length_um=2.0)
    with pytest.raises(OutOfRange):
        laser.emission()


def test_mems_single_mode_over_entire_knob_range():
    laser = MemsVcselModel()
    lo, hi = laser.length_range_um
    for length in np.linspace(lo, hi, 200):
        laser.cavity_length_um = float(length)
        assert laser.emission().single_mode


def test_mems_long_cavity_flags_multi_mode():
    # FSR shrinks below the gain bandwidth: two resonances compete
    laser = MemsVcselModel(cavity_length_um=5.0, length_range_um=(4.0, 6.0))
    state = laser.emission()
    assert not state.single_mode


def test_mems_set_frequency_inverts_model():
    laser = MemsVcselModel()
    for f in (192.1, 192.85, 193.6):
        laser.set_frequency(f)
        assert laser.emission().frequency_thz == pytest.approx(f, abs=1e-9)


def test_mems_apply_frequency_step():
    laser = MemsVcselModel()
    laser.set_frequency(192.5)
    laser.apply_frequency_step(3.0)
    assert laser.emission().frequency_thz == pytest.approx(192.503, abs=1e-9)


# --------------------------------------------------------------------------
# thermal DBR

def test_dbr_200k_gives_20nm_shift():
    laser = ThermalDbrModel()
    shift = laser.bragg_peak_nm(laser.t_ref_k + 200.0) - laser.bragg_peak_nm(laser.t_ref_k)
    assert shift == pytest.approx(20.0, abs=1e-9)


def test_dbr_polymer_25nm_heater_power():
    laser = ThermalDbrModel()
    assert laser.heater_power_mw_for_shift(25.0) == pytest.approx(48.1, abs=0.1)
    # and the conversion round-trips through the temperature knob
    temp = laser.temp_for_heater_power(laser.heater_power_mw_for_shift(25.0))
    assert laser.bragg_peak_nm(temp) - laser.bragg_peak_nm(laser.t_ref_k) == pytest.approx(25.0, abs=1e-9)


def test_dbr_phase_half_step_moves_half_fsr():
    laser = ThermalDbrModel()
    f0 = laser.emission().frequency_thz
    laser.phase_shift = (laser.phase_shift + 0.5) % 1.0
    f1 = laser.emission().frequency_thz
    assert abs(f1 - f0) * 1000.0 == pytest.approx(laser.cavity_fsr_ghz / 2.0, abs=1e-6)


def test_dbr_rejects_wide_reflection_band():
    with pytest.raises(ValueError):
        ThermalDbrModel(cavity_fsr_ghz=50.0, reflection_bandwidth_ghz=50.0)


def test_dbr_out_of_range_temperature():
    laser = ThermalDbrModel(grating_temp_k=100.0)
    with pytest.raises(OutOfRange):
        laser.emission()


@given(st.floats(min_value=250.0, max_value=500.0), st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=200)
def test_dbr_mode_stays_within_half_fsr_of_bragg_peak(temp, phase):
    laser = ThermalDbrModel(grating_temp_k=temp, phase_shift=phase)
    state = laser.emission()
    bragg_thz = C_NM_GHZ / laser.bragg_peak_nm() / 1000.0
    assert abs(state.frequency_thz - bragg_thz) * 1000.0 <= laser.cavity_fsr_ghz / 2.0 + 1e-9


def test_dbr_set_frequency_inverts_model():
    laser = ThermalDbrModel()
    for f in (192.1, 193.0, 193.6):
        laser.set_frequency(f)
        assert laser.emission().frequency_thz == pytest.approx(f, abs=1e-9)


def test_dbr_apply_frequency_step():
    laser = ThermalDbrModel()
    laser.set_frequency(193.0)
    laser.apply_frequency_step(-4.0)
    assert laser.emission().frequency_thz == pytest.approx(192.996, abs=1e-9)


# --------------------------------------------------------------------------
# Vernier

def test_vernier_effective_range_formula():
    laser = VernierModel(fsr_front_ghz=100.0, fsr_back_ghz=110.0, band_thz=(192.5, 193.5))
    assert laser.effective_range_ghz() == pytest.approx(100.0 * 110.0 / 10.0)


def test_vernier_effective_range_matches_brute_scan():
    # coincidences of two integer-ratio combs repeat at exactly F1*F2/dF
    f1, f2 = 100.0, 110.0
    window = np.arange(0.0, 4000.0, 0.01)
    front = np.abs((window + f1 / 2) % f1 - f1 / 2)
    back = np.abs((window + f2 / 2) % f2 - f2 / 2)
    hits = window[(front < 0.005) & (back < 0.005)]
    spacing = np.diff(hits)
    assert np.allclose(spacing, f1 * f2 / 10.0, atol=0.02)


def test_vernier_zero_offsets_align_at_comb_origin():
    laser = VernierModel()  # 100/104 GHz, band 191.8..194.0 THz
    state = laser.emission()
    # exact coincidences sit at multiples of 2600 GHz from the origin
    assert state.frequency_thz == pytest.approx(192.4, abs=1e-9)
    assert state.single_mode


@pytest.mark.parametrize("j", [1, 2, 5, -3])
def test_vernier_lever_moves_coincidence_by_f2_over_df(j):
    laser = VernierModel()
    base = laser.emission().frequency_thz
    delta = j * (laser.fsr_back_ghz - laser.fsr_front_ghz)
    laser.comb_offset_front_ghz = delta % laser.fsr_front_ghz
    moved = laser.emission().frequency_thz
    lever = laser.fsr_back_ghz / (laser.fsr_back_ghz - laser.fsr_front_ghz)
    assert (moved - base) * 1000.0 == pytest.approx(delta * lever, abs=1e-6)


def test_vernier_no_coincidence_outside_band():
    # offsets chosen so the unique alignment of the 2600 GHz cycle misses
    # the 2200 GHz band
    laser = VernierModel()
    laser.comb_offset_front_ghz = 50.0   # alignments at 1300 + k*2600 GHz
    laser.comb_offset_back_ghz = 52.0
    with pytest.raises(NoCoincidence):
        laser.emission()


def test_vernier_set_frequency_inverts_model():
    laser = VernierModel()
    for f in (191.9, 192.85, 193.95):
        laser.set_frequency(f)
        assert laser.emission().frequency_thz == pytest.approx(f, abs=1e-9)


def test_vernier_constructor_guards():
    with pytest.raises(ValueError):
        VernierModel(fsr_front_ghz=100.0, fsr_back_ghz=100.0)
    with pytest.raises(ValueError):
        VernierModel(comb_linewidth_ghz=3.0)  # >= dF/2
    with pytest.raises(ValueError):
        VernierModel(fsr_front_ghz=100.0, fsr_back_ghz=120.0)  # 600 GHz < band


def test_vernier_power_from_gain_current():
    laser = VernierModel(gain_current_ma=50.0)
    assert laser.power_dbm == pytest.approx(10.0)  # 0.25 * 40 mA = 10 mW
    laser.set_power(0.0)
    assert laser.power_dbm == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------------------
# knob-count law and tuning

@pytest.mark.parametrize("laser,knobs", [
    (MemsVcselModel(), 1),
    (ThermalDbrModel(), 2),
    (VernierModel(), 3),
])
def test_knob_count_law(laser, knobs):
    assert len(laser.KNOB_NAMES) == knobs
    assert len(laser.knob_ranges()) == knobs
    assert len(laser.get_knobs()) == knobs


def test_apply_tuning_dimension_mismatch():
    laser = MemsVcselModel()
    assert apply_tuning(laser, (0.9715,)).single_mode
    with pytest.raises(KnobDimensionMismatch):
        apply_tuning(laser, (0.97, 0.5, 0.1))


# --------------------------------------------------------------------------
# calibration

PLAN = FrequencyPlan()


@pytest.mark.parametrize("make_laser", [MemsVcselModel, ThermalDbrModel, VernierModel])
def test_calibration_soundness_all_families(make_laser):
    laser = make_laser()
    table = calibrate(laser, PLAN)
    assert set(table.entries) == set(range(PLAN.channel_count))
    for channel, entry in table.entries.items():
        assert entry.residual_ghz <= 1.0
        state = apply_tuning(laser, entry.knobs)
        off = abs(state.frequency_thz - PLAN.center_thz(channel)) * 1000.0
        assert off <= entry.residual_ghz + 1e-6


def test_calibration_mems_matches_monotone_search_oracle():
    # independent oracle: f(L) = m*c/(2nL) is monotone in L, so bisect it
    laser = MemsVcselModel()
    table = calibrate(laser, PLAN)
    for channel in range(PLAN.channel_count):
        target = PLAN.center_thz(channel)
        lo, hi = laser.length_range_um
        for _ in range(80):
            mid = (lo + hi) / 2.0
            laser.cavity_length_um = mid
            if laser.emission().frequency_thz > target:
                lo = mid
            else:
                hi = mid
        oracle_l = (lo + hi) / 2.0
        assert table.knobs_for(channel)[0] == pytest.approx(oracle_l, abs=1e-5)


def test_calibration_is_deterministic():
    a = calibrate(MemsVcselModel(), PLAN)
    b = calibrate(MemsVcselModel(), PLAN)
    assert a == b


def test_calibration_restores_knobs():
    laser = VernierModel()
    before = laser.get_knobs()
    calibrate(laser, PLAN)
    assert laser.get_knobs() == before


def test_calibration_unreachable_channel():
    # band stops short of the plan's top channels
    laser = VernierModel(band_thz=(191.8, 193.0), fsr_front_ghz=100.0, fsr_back_ghz=109.0)
    with pytest.raises(ChannelUnreachable):
        calibrate(laser, PLAN)


PLAN_64X50 = FrequencyPlan(channel_count=64, spacing_ghz=50.0)


@pytest.mark.parametrize("make_laser,plan,pinned", [
    (MemsVcselModel, PLAN, "0ef81cbdb2d6b0d5221f90ae4dbdd729e087bed755aff9cf9d5652268d650090"),
    (ThermalDbrModel, PLAN, "30de185d9af8819532733c3496a842871af4e027f8aad1848c26efc2991577c1"),
    (VernierModel, PLAN, "fd487b2aa8cc783012b093bfe9971cde130833857772b4497bb58becc5d89c1a"),
    (MemsVcselModel, PLAN_64X50,
     "498a8a631d4acf534c8986b5e9ccc223558d2068e48a537f1e80e413aca95815"),
    (ThermalDbrModel, PLAN_64X50, (46, 50.00000000001137)),
    (VernierModel, PLAN_64X50, (39, math.inf)),
], ids=["mems-16x100", "dbr-16x100", "vernier-16x100", "mems-64x50", "dbr-64x50",
        "vernier-64x50"])
def test_calibration_tables_are_pinned(make_laser, plan, pinned):
    # sha256 of the table text, or the (channel, residual) calibrate gives up on
    if isinstance(pinned, str):
        text = calibrate(make_laser(), plan).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == pinned
    else:
        with pytest.raises(ChannelUnreachable) as err:
            calibrate(make_laser(), plan)
        assert (err.value.channel, err.value.residual_ghz) == pinned


def test_calibration_table_text_roundtrip():
    table = calibrate(MemsVcselModel(), FrequencyPlan(channel_count=4))
    assert CalibrationTable.from_text(table.to_text()) == table


# --------------------------------------------------------------------------
# drift

def test_drift_zero_sigma_zero_ramp_is_identity():
    laser = MemsVcselModel()
    off = step_drift(laser, 10.0, DriftModel(sigma_rw_ghz=0.0, ramp_ghz_per_s=0.0),
                     np.random.default_rng(0))
    assert off == 0.0


def test_drift_pure_ramp():
    laser = MemsVcselModel()
    drift = DriftModel(sigma_rw_ghz=0.0, ramp_ghz_per_s=0.01)
    off = step_drift(laser, 100.0, drift, np.random.default_rng(0))
    assert off == pytest.approx(1.0)
    assert laser.emission().frequency_thz - MemsVcselModel().emission().frequency_thz == \
        pytest.approx(1.0 / 1000.0, abs=1e-12)


def test_drift_ensemble_variance():
    drift = DriftModel(sigma_rw_ghz=0.05)
    dt = 4.0
    offsets = []
    for seed in range(10_000):
        laser = MemsVcselModel()
        offsets.append(step_drift(laser, dt, drift, np.random.default_rng(seed)))
    var = np.var(offsets)
    assert abs(var - drift.sigma_rw_ghz**2 * dt) / (drift.sigma_rw_ghz**2 * dt) < 0.10


def test_drift_respects_bound():
    laser = MemsVcselModel()
    drift = DriftModel(sigma_rw_ghz=0.0, ramp_ghz_per_s=1.0, bound_ghz=5.0)
    assert step_drift(laser, 100.0, drift, np.random.default_rng(0)) == 5.0


def test_drift_reproducible_per_seed():
    a = step_drift(MemsVcselModel(), 1.0, DriftModel(), np.random.default_rng(17))
    b = step_drift(MemsVcselModel(), 1.0, DriftModel(), np.random.default_rng(17))
    assert a == b


def test_vernier_coincidences_follow_direct_attribute_writes():
    laser = VernierModel()
    laser.set_frequency(193.0)
    before = laser.emission()
    assert laser.emission() == before                   # served from the memo
    laser.comb_offset_back_ghz = (laser.comb_offset_back_ghz + 4.0) % laser.fsr_back_ghz
    moved = laser.emission()
    fresh = VernierModel(comb_offset_front_ghz=laser.comb_offset_front_ghz,
                         comb_offset_back_ghz=laser.comb_offset_back_ghz,
                         phase_shift=laser.phase_shift)
    assert moved == fresh.emission()
    assert moved.frequency_thz != before.frequency_thz
