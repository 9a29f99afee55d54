"""Reference code that only the tests use.

The simulator does not run any of it.  Some of it is an oracle written apart
from the code it checks (the Hamming parity-check matrix is copied from
docs/frame_format.md, not derived from ``gmetro.codec``); the rest is
bit-vector wrappers, unit conversions and scenario helpers that keep the
tests short.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gmetro import codec, engine
from gmetro.codec import BLOCK_CODE_BITS, BLOCK_DATA_BITS, FecStatus, bits_from_int, int_from_bits
from gmetro.engine import (
    CoSpec, DeadlockError, EngineError, FaultSpec, MgmtSpec, RunSpec, RuSpec, Scenario,
)
from gmetro.lasers import CalibrationTable, EmissionState, LaserError, ThermalDbrModel
from gmetro.link import PathGainResult

# --------------------------------------------------------------------------
# codec

# Manchester symbol levels (IEEE 802.3 polarity: logical 1 = low-to-high)
LO = 0
HI = 1

# Hamming(15,11) parity-check matrix H as published in docs/frame_format.md
# (rows = parity checks, columns = bit positions 0..14)
PARITY_CHECK = np.array([
    [1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0],
    [1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1],
], dtype=np.uint8)


def hamming_encode(data) -> np.ndarray:
    """Encode 11 data bits into a systematic 15-bit codeword."""
    data = np.asarray(data, dtype=np.uint8)
    if data.shape != (BLOCK_DATA_BITS,):
        raise ValueError(f"expected {BLOCK_DATA_BITS} data bits, got shape {data.shape}")
    return bits_from_int(codec._ENCODE_TABLE[int_from_bits(data)], BLOCK_CODE_BITS)


def hamming_decode(word) -> tuple[np.ndarray, FecStatus]:
    """Syndrome-decode a 15-bit word; single errors come back CORRECTED."""
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (BLOCK_CODE_BITS,):
        raise ValueError(f"expected {BLOCK_CODE_BITS} bits, got shape {word.shape}")
    data, status = codec._decode_int(int_from_bits(word))
    return bits_from_int(data, BLOCK_DATA_BITS), status


# --------------------------------------------------------------------------
# lasers

class KnobDimensionMismatch(LaserError):
    pass


def apply_tuning(laser, knobs) -> EmissionState:
    """Set the frequency-knob vector and report the resulting emission."""
    knobs = tuple(knobs)
    if len(knobs) != len(laser.KNOB_NAMES):
        raise KnobDimensionMismatch(
            f"{type(laser).__name__} takes {len(laser.KNOB_NAMES)} knobs, got {len(knobs)}")
    laser.set_knobs(knobs)
    return laser.emission()


# the polymer-waveguide DBR reaches its shift budget at 0.52 nm per mW of
# heater power
DBR_TUNING_EFFICIENCY_NM_PER_MW = 0.52


def heater_power_mw_for_shift(laser: ThermalDbrModel, shift_nm: float) -> float:
    return shift_nm / DBR_TUNING_EFFICIENCY_NM_PER_MW


def temp_for_heater_power(laser: ThermalDbrModel, power_mw: float) -> float:
    return laser.t_ref_k + DBR_TUNING_EFFICIENCY_NM_PER_MW * power_mw / laser.dlambda_dt_nm_per_k


def calibration_text(table: CalibrationTable) -> str:
    """One line per channel, ``channel<TAB>knob,knob<TAB>residual``, each float
    as its repr: the text the pinned calibration digests hash."""
    lines = [f"{ch}\t{','.join(repr(k) for k in e.knobs)}\t{e.residual_ghz!r}"
             for ch, e in sorted(table.entries.items())]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# link

def received_power(tx_power_dbm: float, gain: PathGainResult) -> float:
    return tx_power_dbm + gain.gain_db


# --------------------------------------------------------------------------
# engine

def inject_fault(scenario: Scenario, at_us: int, kind: str,
                 span: str | None = None, ber: float | None = None) -> Scenario:
    """Return a scenario with the fault appended to its schedule."""
    fault = FaultSpec(kind=kind, at_ms=at_us / 1000.0, span=span, ber=ber)
    out = replace(scenario, faults=scenario.faults + (fault,))
    engine.validate(out)
    return out


class PairwiseTimeout(EngineError):
    pass


def pairwise_self_tune(nms_channel: int, dependent_calibrated: bool = False,
                       primary_laser: str = "vernier", dependent_laser: str = "mems",
                       ber: float = 0.0, seed: int = 1,
                       horizon_ms: float = 30_000.0):
    """Run a primary/dependent link: the primary tunes itself from the NMS
    input, conveys the channel over the management channel, the dependent
    tunes to the paired wavelength.  Returns the run's (trace, metrics);
    raises PairwiseTimeout if either side fails to lock within the bound."""
    scenario = Scenario(
        rus=(RuSpec("dependent", nms_channel, laser=dependent_laser,
                    calibrated=dependent_calibrated),),
        cos=(CoSpec("primary", role="primary", laser=primary_laser,
                    nms_channel=nms_channel),),
        mgmt=MgmtSpec(ber=ber),
        run=RunSpec(seed=seed, horizon_ms=horizon_ms),
    )
    try:
        return engine.run(scenario)
    except DeadlockError as err:
        raise PairwiseTimeout(str(err))
