"""Tunable-laser models: MEMS-VCSEL (1 knob), thermal DBR (2 knobs),
Vernier dual-comb (3 knobs), plus factory calibration and frequency drift.

Every model maps its knob vector to an EmissionState and supports the small
interface the tuning protocol needs: set_knobs / set_frequency /
apply_frequency_step / settable output power.  `set_frequency` inverts the
model analytically; physically it stands for the hardware sweep ramp, so it
is available to uncalibrated lasers too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C_UM_THZ = 299.792458     # c in THz * um
C_NM_GHZ = 299_792_458.0  # c in GHz * nm


class LaserError(Exception):
    pass


class NoModeInBand(LaserError):
    pass


class NoCoincidence(LaserError):
    pass


class OutOfRange(LaserError):
    pass


class ChannelUnreachable(LaserError):
    def __init__(self, channel: int, residual_ghz: float):
        super().__init__(f"channel {channel} unreachable, residual {residual_ghz:.2f} GHz")
        self.channel = channel
        self.residual_ghz = residual_ghz


@dataclass(frozen=True)
class EmissionState:
    frequency_thz: float
    power_dbm: float
    single_mode: bool
    mode_index: int


@dataclass(frozen=True)
class DriftModel:
    """Random-walk + ramp disturbance on the emitted frequency."""
    sigma_rw_ghz: float = 0.05   # GHz per sqrt(second)
    ramp_ghz_per_s: float = 0.0
    bound_ghz: float = 100.0


def step_drift(laser, dt_s: float, drift: DriftModel, rng: np.random.Generator) -> float:
    """Advance the laser's drift offset by dt seconds; returns the new offset."""
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    offset = laser.drift_offset_ghz + drift.ramp_ghz_per_s * dt_s
    if drift.sigma_rw_ghz > 0:
        offset += rng.normal(0.0, drift.sigma_rw_ghz * math.sqrt(dt_s))
    offset = max(-drift.bound_ghz, min(drift.bound_ghz, offset))
    laser.drift_offset_ghz = offset
    return offset


# --------------------------------------------------------------------------
# MEMS VCSEL: resonance m*c/(2*n*L); the short cavity keeps a single mode in
# the gain band, so cavity length is the only frequency knob.

@dataclass
class MemsVcselModel:
    n_eff: float = 3.2
    cavity_length_um: float = 0.9715
    length_range_um: tuple[float, float] = (0.945, 1.0)
    gain_center_thz: float = 193.0
    gain_bandwidth_thz: float = 12.5   # ~100 nm of gain medium
    power_dbm: float = 0.0
    drift_offset_ghz: float = 0.0

    KNOB_NAMES = ("cavity_length_um",)
    settle_time_ms = 1.0

    def knob_ranges(self):
        return [self.length_range_um]

    def get_knobs(self):
        return (self.cavity_length_um,)

    def set_knobs(self, knobs):
        self.cavity_length_um = float(knobs[0])

    def _band(self):
        half = self.gain_bandwidth_thz / 2.0
        return self.gain_center_thz - half, self.gain_center_thz + half

    def emission(self) -> EmissionState:
        lo, hi = self.length_range_um
        if not lo <= self.cavity_length_um <= hi:
            raise OutOfRange(f"cavity length {self.cavity_length_um} um outside {self.length_range_um}")
        fsr = C_UM_THZ / (2.0 * self.n_eff * self.cavity_length_um)
        band_lo, band_hi = self._band()
        m_lo = math.ceil(band_lo / fsr)
        m_hi = math.floor(band_hi / fsr)
        if m_hi < m_lo:
            raise NoModeInBand(f"no resonance of FSR {fsr:.2f} THz inside gain band")
        modes = [(m, m * fsr) for m in range(m_lo, m_hi + 1)]
        m, f = min(modes, key=lambda mf: abs(mf[1] - self.gain_center_thz))
        return EmissionState(f + self.drift_offset_ghz / 1000.0, self.power_dbm,
                             single_mode=len(modes) == 1, mode_index=m)

    def set_frequency(self, f_thz: float):
        band_lo, band_hi = self._band()
        if not band_lo <= f_thz <= band_hi:
            raise NoModeInBand(f"{f_thz} THz outside gain band")
        lo, hi = self.length_range_um
        for m in range(math.ceil(2 * self.n_eff * lo * band_lo / C_UM_THZ),
                       math.floor(2 * self.n_eff * hi * band_hi / C_UM_THZ) + 1):
            length = m * C_UM_THZ / (2.0 * self.n_eff * f_thz)
            if lo <= length <= hi:
                self.cavity_length_um = length
                return
        raise OutOfRange(f"no cavity length in range reaches {f_thz} THz")

    def apply_frequency_step(self, delta_ghz: float):
        f = self.emission().frequency_thz - self.drift_offset_ghz / 1000.0
        length = self.cavity_length_um * f / (f + delta_ghz / 1000.0)
        lo, hi = self.length_range_um
        self.cavity_length_um = max(lo, min(hi, length))

    def set_power(self, power_dbm: float):
        self.power_dbm = power_dbm


# --------------------------------------------------------------------------
# Thermal DBR: Bragg grating selects the mode comb point nearest its peak.
# Knobs: grating temperature (coarse via the ~0.1 nm/K index shift) and a
# phase section shifting the cavity comb.

@dataclass
class ThermalDbrModel:
    bragg_wavelength_ref_nm: float = 1552.52
    t_ref_k: float = 300.0
    dlambda_dt_nm_per_k: float = 0.1
    grating_temp_k: float = 300.0
    phase_shift: float = 0.0            # fraction of one cavity FSR
    cavity_fsr_ghz: float = 50.0        # invented default, see config docs
    reflection_bandwidth_ghz: float = 35.0
    temp_range_k: tuple[float, float] = (200.0, 600.0)
    power_dbm: float = 0.0
    drift_offset_ghz: float = 0.0

    KNOB_NAMES = ("grating_temp_k", "phase_shift")
    settle_time_ms = 100.0

    def __post_init__(self):
        if self.reflection_bandwidth_ghz >= self.cavity_fsr_ghz:
            raise ValueError("reflection bandwidth must stay below the cavity FSR "
                             "(otherwise the laser goes multi-mode)")
        if self.dlambda_dt_nm_per_k <= 0:
            raise ValueError("dlambda_dT must be positive")

    def knob_ranges(self):
        return [self.temp_range_k, (0.0, 1.0)]

    def get_knobs(self):
        return (self.grating_temp_k, self.phase_shift)

    def set_knobs(self, knobs):
        self.grating_temp_k = float(knobs[0])
        self.phase_shift = float(knobs[1]) % 1.0

    def bragg_peak_nm(self, temp_k: float | None = None) -> float:
        t = self.grating_temp_k if temp_k is None else temp_k
        return self.bragg_wavelength_ref_nm + self.dlambda_dt_nm_per_k * (t - self.t_ref_k)

    def emission(self) -> EmissionState:
        lo, hi = self.temp_range_k
        if not lo <= self.grating_temp_k <= hi:
            raise OutOfRange(f"grating temperature {self.grating_temp_k} K outside {self.temp_range_k}")
        bragg_ghz = C_NM_GHZ / self.bragg_peak_nm()
        k = round(bragg_ghz / self.cavity_fsr_ghz - self.phase_shift)
        f_ghz = (k + self.phase_shift) * self.cavity_fsr_ghz
        runner_up = min(abs(f_ghz + self.cavity_fsr_ghz - bragg_ghz),
                        abs(f_ghz - self.cavity_fsr_ghz - bragg_ghz))
        single = runner_up > self.reflection_bandwidth_ghz / 2.0
        return EmissionState((f_ghz + self.drift_offset_ghz) / 1000.0, self.power_dbm,
                             single_mode=single, mode_index=k)

    def set_frequency(self, f_thz: float):
        f_ghz = f_thz * 1000.0
        temp = self.t_ref_k + (C_NM_GHZ / f_ghz - self.bragg_wavelength_ref_nm) / self.dlambda_dt_nm_per_k
        lo, hi = self.temp_range_k
        if not lo <= temp <= hi:
            raise OutOfRange(f"{f_thz} THz needs grating temperature {temp:.1f} K, outside range")
        self.grating_temp_k = temp
        self.phase_shift = (f_ghz / self.cavity_fsr_ghz) % 1.0

    def apply_frequency_step(self, delta_ghz: float):
        # grating tracking: re-centre Bragg peak and mode comb on the shifted
        # emission so the selected mode never drifts toward a comb midpoint
        f_ghz = self.emission().frequency_thz * 1000.0 - self.drift_offset_ghz + delta_ghz
        temp = self.t_ref_k + (C_NM_GHZ / f_ghz - self.bragg_wavelength_ref_nm) / self.dlambda_dt_nm_per_k
        lo, hi = self.temp_range_k
        self.grating_temp_k = max(lo, min(hi, temp))
        self.phase_shift = (f_ghz / self.cavity_fsr_ghz) % 1.0

    def set_power(self, power_dbm: float):
        self.power_dbm = power_dbm


# --------------------------------------------------------------------------
# Vernier: two reflector combs with slightly different FSR; lasing where a
# front and a back peak coincide.  Knobs: both comb offsets plus a phase
# section; the injection current sets output power.

@dataclass
class VernierModel:
    fsr_front_ghz: float = 100.0
    fsr_back_ghz: float = 104.0
    comb_offset_front_ghz: float = 0.0
    comb_offset_back_ghz: float = 0.0
    phase_shift: float = 0.5            # fraction of the fine-tuning span
    gain_current_ma: float = 50.0
    comb_linewidth_ghz: float = 1.5
    band_thz: tuple[float, float] = (191.8, 194.0)
    threshold_ma: float = 10.0
    slope_mw_per_ma: float = 0.25
    drift_offset_ghz: float = 0.0

    KNOB_NAMES = ("comb_offset_front_ghz", "comb_offset_back_ghz", "phase_shift")
    settle_time_ms = 100.0

    def __post_init__(self):
        if self.fsr_front_ghz == self.fsr_back_ghz:
            raise ValueError("front and back FSR must differ")
        if self.comb_linewidth_ghz >= abs(self.fsr_back_ghz - self.fsr_front_ghz) / 2.0:
            raise ValueError("comb linewidth must stay below |F2-F1|/2 for a unique coincidence")
        band_width_ghz = (self.band_thz[1] - self.band_thz[0]) * 1000.0
        if self.effective_range_ghz() < band_width_ghz:
            raise ValueError(f"effective range {self.effective_range_ghz():.0f} GHz does not "
                             f"cover the {band_width_ghz:.0f} GHz band")
        self._coincidence_memo = (None, [])

    def effective_range_ghz(self) -> float:
        return self.fsr_front_ghz * self.fsr_back_ghz / abs(self.fsr_back_ghz - self.fsr_front_ghz)

    def knob_ranges(self):
        return [(0.0, self.fsr_front_ghz), (0.0, self.fsr_back_ghz), (0.0, 1.0)]

    def get_knobs(self):
        return (self.comb_offset_front_ghz, self.comb_offset_back_ghz, self.phase_shift)

    def set_knobs(self, knobs):
        self.comb_offset_front_ghz = float(knobs[0]) % self.fsr_front_ghz
        self.comb_offset_back_ghz = float(knobs[1]) % self.fsr_back_ghz
        self.phase_shift = float(knobs[2]) % 1.0

    @property
    def power_dbm(self) -> float:
        p_mw = self.slope_mw_per_ma * max(self.gain_current_ma - self.threshold_ma, 0.0)
        return 10.0 * math.log10(p_mw) if p_mw > 0 else -math.inf

    def set_power(self, power_dbm: float):
        self.gain_current_ma = self.threshold_ma + 10.0 ** (power_dbm / 10.0) / self.slope_mw_per_ma

    def _coincidences(self):
        """Comb alignments inside the band, memoised on every input of the
        search.  The key is compared on each call, rather than cleared by the
        setters, so a direct attribute write cannot leave it stale."""
        key = (self.comb_offset_front_ghz, self.comb_offset_back_ghz, self.fsr_front_ghz,
               self.fsr_back_ghz, self.comb_linewidth_ghz, self.band_thz)
        memo_key, out = self._coincidence_memo
        if key != memo_key:
            out = self._search_coincidences()
            self._coincidence_memo = (key, out)
        return out

    def _search_coincidences(self):
        lo = self.band_thz[0] * 1000.0
        hi = self.band_thz[1] * 1000.0
        f1, f2 = self.fsr_front_ghz, self.fsr_back_ghz
        out = []
        k = math.ceil((lo - self.comb_offset_front_ghz) / f1)
        while (front := self.comb_offset_front_ghz + k * f1) <= hi:
            mismatch = (front - self.comb_offset_back_ghz + f2 / 2.0) % f2 - f2 / 2.0
            if abs(mismatch) <= self.comb_linewidth_ghz:
                out.append((front - mismatch / 2.0, mismatch, k))
            k += 1
        return out

    def emission(self) -> EmissionState:
        cands = self._coincidences()
        if not cands:
            raise NoCoincidence("no front/back comb alignment inside the band")
        freq, mismatch, k = min(cands, key=lambda c: (abs(c[1]), c[0]))
        fine = (self.phase_shift - 0.5) * self.comb_linewidth_ghz
        return EmissionState((freq + fine + self.drift_offset_ghz) / 1000.0, self.power_dbm,
                             single_mode=len(cands) == 1, mode_index=k)

    def set_frequency(self, f_thz: float):
        if not self.band_thz[0] <= f_thz <= self.band_thz[1]:
            raise NoCoincidence(f"{f_thz} THz outside the configured band")
        f_ghz = f_thz * 1000.0
        self.comb_offset_front_ghz = f_ghz % self.fsr_front_ghz
        self.comb_offset_back_ghz = f_ghz % self.fsr_back_ghz
        self.phase_shift = 0.5

    def apply_frequency_step(self, delta_ghz: float):
        # translating both combs together moves the coincidence rigidly
        self.comb_offset_front_ghz = (self.comb_offset_front_ghz + delta_ghz) % self.fsr_front_ghz
        self.comb_offset_back_ghz = (self.comb_offset_back_ghz + delta_ghz) % self.fsr_back_ghz


# --------------------------------------------------------------------------
# factory calibration

@dataclass(frozen=True)
class TableEntry:
    knobs: tuple[float, ...]
    residual_ghz: float


@dataclass(frozen=True)
class CalibrationTable:
    entries: dict[int, TableEntry]

    def knobs_for(self, channel: int) -> tuple[float, ...]:
        return self.entries[channel].knobs

    def covers(self, channel: int) -> bool:
        return channel in self.entries


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(objective, lo, hi, iterations=60):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    return (a + b) / 2.0


def _refine_axis(objective, lo, hi, points=33):
    """Scan the axis, then golden-section between the best point's neighbours."""
    xs = np.linspace(lo, hi, points)
    values = [objective(float(x)) for x in xs]
    i = int(np.argmin(values))
    a = float(xs[max(0, i - 1)])
    b = float(xs[min(points - 1, i + 1)])
    return _golden_section(objective, a, b)


def calibrate(laser, plan, unreachable_ghz: float = 5.0) -> CalibrationTable:
    """Characterize the laser against a frequency plan.

    Coarse grid (9 points per axis, ~range/8 steps, emitted once and
    shared by every channel), golden-section refinement per knob axis over
    three rounds, then a short polish that nudges all knobs together via the
    model's rigid frequency step (the Vernier offsets are coupled, so pure
    coordinate descent stalls on them).  Deterministic; the laser's knob
    state is restored afterwards.
    """
    snapshot = laser.get_knobs()
    drift_snapshot = laser.drift_offset_ghz
    laser.drift_offset_ghz = 0.0
    ranges = laser.knob_ranges()
    entries = {}

    def emitted_thz(knobs):
        try:
            laser.set_knobs(knobs)
            return laser.emission().frequency_thz
        except LaserError:
            return math.inf

    def signed_offset(knobs):
        return (emitted_thz(knobs) - target) * 1000.0

    def residual_of(knobs):
        return abs(signed_offset(knobs))

    try:
        grids = [np.linspace(lo, hi, 9) for lo, hi in ranges]
        coarse = [(emitted_thz(knobs), knobs)
                  for knobs in (tuple(float(g[i]) for g, i in zip(grids, combo))
                                for combo in np.ndindex(*(len(g) for g in grids)))]
        for channel in range(plan.channel_count):
            target = plan.center_thz(channel)
            best = min(coarse, key=lambda fk: abs((fk[0] - target) * 1000.0))[1]

            knobs = list(best)
            for _ in range(3):
                for axis, (lo, hi) in enumerate(ranges):

                    def axis_obj(x, axis=axis):
                        trial = list(knobs)
                        trial[axis] = x
                        return residual_of(trial)

                    knobs[axis] = _refine_axis(axis_obj, lo, hi)

            laser.set_knobs(knobs)
            for _ in range(5):
                off = signed_offset(laser.get_knobs())
                if not math.isfinite(off) or abs(off) < 0.01:
                    break
                laser.apply_frequency_step(-off)
            knobs = list(laser.get_knobs())
            residual = residual_of(knobs)
            if residual > unreachable_ghz:
                raise ChannelUnreachable(channel, residual)
            entries[channel] = TableEntry(tuple(knobs), residual)
    finally:
        laser.set_knobs(snapshot)
        laser.drift_offset_ghz = drift_snapshot
    return CalibrationTable(entries)
