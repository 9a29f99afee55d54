"""Tuning-protocol state machines and control laws.

Pure transition functions: ``ru_transition`` / ``co_transition`` take a
frozen machine plus an event and return a new machine with a tuple of
actions; nothing is executed inline and no randomness is consumed, so the
same (state, event) always yields the byte-identical result.  The engine
owns timers, frame transport (including ACK/retry) and all measurement
noise.

Full transition tables are documented in docs/transition_tables.md.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .codec import MgmtFrame, MsgType
from .lasers import CalibrationTable, DriftModel
from .link import FrequencyPlan


class ProtocolError(Exception):
    pass


class InvalidEvent(ProtocolError):
    """An event that cannot occur in this state; signals a harness bug."""

    def __init__(self, state, event):
        super().__init__(f"event {event!r} impossible in state {state}")
        self.state = state
        self.event = event


class NoReport(ProtocolError):
    pass


class RuState(Enum):
    INIT = "INIT"
    AWAIT_ASSIGN = "AWAIT_ASSIGN"
    DIRECT_TUNING = "DIRECT_TUNING"
    SWEEP = "SWEEP"
    FINE_TUNE = "FINE_TUNE"
    LOCKED = "LOCKED"
    HOLD = "HOLD"


class CoPortState(Enum):
    IDLE = "IDLE"
    WAIT_DETECT = "WAIT_DETECT"
    CONFIRMING = "CONFIRMING"
    MONITOR = "MONITOR"


class Role(Enum):
    PRIMARY = "PRIMARY"
    DEPENDENT = "DEPENDENT"


# --------------------------------------------------------------------------
# events (inputs to the machines)

@dataclass(frozen=True)
class PowerOn:
    nms_channel: int | None = None  # set on the primary of a pairwise link


@dataclass(frozen=True)
class MsgReceived:
    frame: MgmtFrame
    rx_power_dbm: float
    time_us: int = 0
    port: int | None = None


@dataclass(frozen=True)
class TimerExpired:
    tag: str
    time_us: int = 0


@dataclass(frozen=True)
class DriftTick:
    time_us: int = 0


@dataclass(frozen=True)
class LinkDown:
    """The entity's active path changed (cut, restore or protection switch)."""


@dataclass(frozen=True)
class NmsAssign:
    port: int
    channel: int


@dataclass(frozen=True)
class PortPower:
    port: int
    power_dbm: float
    offset_est_ghz: float | None
    time_us: int = 0


# --------------------------------------------------------------------------
# actions (outputs of the machines; the engine executes them)

@dataclass(frozen=True)
class SetKnobs:
    knobs: tuple[float, ...] | None = None
    frequency_thz: float | None = None
    step_ghz: float | None = None


@dataclass(frozen=True)
class SetPower:
    power_dbm: float


@dataclass(frozen=True)
class Send:
    frame: MgmtFrame
    port: int | None = None


@dataclass(frozen=True)
class ArmTimer:
    tag: str
    delay_us: int


@dataclass(frozen=True)
class RaiseAlarm:
    reason: str


# --------------------------------------------------------------------------
# message payload layouts (bit-exact, see docs/frame_format.md)

def encode_channel(channel: int) -> bytes:
    return bytes([channel])


def decode_channel(payload: bytes) -> int:
    return payload[0]


def encode_tenths(value: float) -> bytes:
    """Signed 16-bit big-endian in units of 0.1 (dBm or GHz)."""
    return struct.pack(">h", round(value * 10.0))


def decode_tenths(payload: bytes) -> float:
    return struct.unpack(">h", payload[:2])[0] / 10.0


def hello() -> MgmtFrame:
    return MgmtFrame(MsgType.HELLO)


def tune_req(channel: int) -> MgmtFrame:
    return MgmtFrame(MsgType.TUNE_REQ, payload=encode_channel(channel))


def chan_assign(channel: int) -> MgmtFrame:
    return MgmtFrame(MsgType.CHAN_ASSIGN, payload=encode_channel(channel))


def sweep_detected(channel: int) -> MgmtFrame:
    return MgmtFrame(MsgType.SWEEP_DETECTED, payload=encode_channel(channel))


def lock_confirm(channel: int) -> MgmtFrame:
    return MgmtFrame(MsgType.LOCK_CONFIRM, payload=encode_channel(channel))


def loss_report(rx_power_dbm: float) -> MgmtFrame:
    return MgmtFrame(MsgType.LOSS_REPORT, payload=encode_tenths(rx_power_dbm))


def power_adj(power_dbm: float) -> MgmtFrame:
    return MgmtFrame(MsgType.POWER_ADJ, payload=encode_tenths(power_dbm))


def hold_correct(step_ghz: float) -> MgmtFrame:
    return MgmtFrame(MsgType.HOLD_CORRECT, payload=encode_tenths(step_ghz))


# --------------------------------------------------------------------------
# control laws

def estimate_link_loss(co_tx_power_dbm: float, ru_reported_rx_dbm: float | None) -> float:
    """Downstream loss from the RU's reported receive level; up/down loss
    symmetry assumed (single fiber pair, same route)."""
    if ru_reported_rx_dbm is None:
        raise NoReport("no LOSS_REPORT received yet")
    return co_tx_power_dbm - ru_reported_rx_dbm


def sweep_power(loss_est_db: float, cfg, margin_db: float = 3.0,
                max_power_dbm: float = 3.0) -> float:
    """Minimum launch power that still reaches the CO management receiver."""
    if loss_est_db < 0:
        raise ValueError("loss estimate must be >= 0 dB")
    return min(max_power_dbm, cfg.rx_sensitivity_dbm + loss_est_db + margin_db)


def hold_step(offset_est_ghz: float, deadband_ghz: float = 1.0,
              step_gain: float = 0.5, saturation_ghz: float = 2.0) -> float:
    """Knob correction for one hold-loop iteration (GHz)."""
    if abs(offset_est_ghz) <= deadband_ghz:
        return 0.0
    return max(-saturation_ghz, min(saturation_ghz, -step_gain * offset_est_ghz))


@dataclass(frozen=True)
class SweepPlan:
    f_start_thz: float
    f_stop_thz: float
    step_ghz: float = 12.5
    dwell_ms: float = 50.0
    direction: str = "up"

    def __post_init__(self):
        if self.f_start_thz >= self.f_stop_thz or self.step_ghz <= 0 or self.dwell_ms <= 0:
            raise ValueError("sweep plan needs ordered band, positive step and dwell")

    @property
    def n_points(self) -> int:
        return int((self.f_stop_thz - self.f_start_thz) * 1000.0 / self.step_ghz + 1e-9) + 1

    @property
    def dwell_us(self) -> int:
        return int(round(self.dwell_ms * 1000.0))

    @property
    def worst_case_s(self) -> float:
        return self.n_points * self.dwell_ms / 1000.0

    def frequency_thz(self, index: int) -> float:
        i = index % self.n_points
        if self.direction == "up":
            return self.f_start_thz + i * self.step_ghz / 1000.0
        return self.f_stop_thz - i * self.step_ghz / 1000.0


def plan_sweep(band: FrequencyPlan, filter_b3_ghz: float, latency_worst_ms: float) -> SweepPlan:
    """Stepped sweep covering the band; the step never exceeds half a
    passband (cannot jump over a port) and the dwell leaves time for the
    stop message to arrive while the laser is still inside it."""
    if filter_b3_ghz <= 0:
        raise ValueError("filter bandwidth must be positive")
    start, stop = band.band_edges_thz()
    return SweepPlan(
        f_start_thz=start,
        f_stop_thz=stop,
        step_ghz=min(12.5, filter_b3_ghz / 2.0),
        dwell_ms=max(50.0, 2.0 * latency_worst_ms),
    )


def _evolve(obj, **changes):
    """``dataclasses.replace`` without calling ``__init__``: copy, then change."""
    if not changes.keys() <= obj.__dict__.keys():
        raise TypeError(f"no fields {sorted(changes.keys() - obj.__dict__.keys())}")
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


# --------------------------------------------------------------------------
# RU machine

SWEEP_LAP_LIMIT = 3


@dataclass(frozen=True)
class RuMachine:
    state: RuState = RuState.INIT
    role: Role = Role.DEPENDENT
    calibration: CalibrationTable | None = None
    sweep_plan: SweepPlan | None = None
    assigned_channel: int | None = None
    current_offset_est: float = 0.0
    sweep_index: int = 0
    last_rx_power_dbm: float | None = None
    sweep_power_dbm: float | None = None
    full_power_dbm: float = 0.0
    fine_rounds: int = 0
    hello_retries: int = 0
    settle_us: int = 1000
    deadband_ghz: float = 1.0
    hold_gain: float = 0.5
    hold_saturation_ghz: float = 2.0
    lock_step_threshold_ghz: float = 0.25
    min_fine_rounds: int = 3
    hello_period_us: int = 500_000
    hello_retry_limit: int = 10
    co_tx_power_dbm: float = 0.0   # published system parameter
    sweep_margin_db: float = 3.0
    max_tx_power_dbm: float = 3.0
    rx_sensitivity_dbm: float = -40.0

    def calibrated_for(self, channel: int) -> bool:
        return self.calibration is not None and self.calibration.covers(channel)


def _ru_start_direct(m: RuMachine, channel: int):
    m2 = _evolve(m, state=RuState.DIRECT_TUNING, assigned_channel=channel,
                 current_offset_est=0.0)
    actions = (SetKnobs(knobs=m.calibration.knobs_for(channel)),
               SetPower(m.full_power_dbm),
               ArmTimer("settle", m.settle_us))
    return m2, actions


def _ru_start_sweep(m: RuMachine, channel: int, power_dbm: float):
    plan = m.sweep_plan
    m2 = _evolve(m, state=RuState.SWEEP, assigned_channel=channel,
                 sweep_index=0, sweep_power_dbm=power_dbm)
    return m2, (SetPower(power_dbm),
                SetKnobs(frequency_thz=plan.frequency_thz(0)),
                Send(hello()),
                ArmTimer("dwell", plan.dwell_us))


def _ru_assign_fresh(m: RuMachine, channel: int, rx_power_dbm: float):
    if m.calibrated_for(channel):
        return _ru_start_direct(m, channel)
    # nothing this laser sends reaches the CO until the sweep finds the port,
    # so the reduced power comes from the local downstream measurement and
    # the published CO launch power (up/down loss symmetry assumed)
    loss = estimate_link_loss(m.co_tx_power_dbm, rx_power_dbm)
    power = sweep_power(max(loss, 0.0), m, m.sweep_margin_db, m.max_tx_power_dbm)
    m2 = _evolve(m, last_rx_power_dbm=rx_power_dbm)
    return _ru_start_sweep(m2, channel, power)


def _ru_reassign_reachable(m: RuMachine, channel: int, rx_power_dbm: float):
    # upstream still works on the old channel: let the CO size the new sweep
    # power via the LOSS_REPORT / POWER_ADJ exchange
    m2 = _evolve(m, state=RuState.AWAIT_ASSIGN, assigned_channel=channel,
                 last_rx_power_dbm=rx_power_dbm)
    return m2, (Send(loss_report(rx_power_dbm)),)


def _ru_msg(m: RuMachine, ev: MsgReceived):
    kind = ev.frame.msg_type

    if kind in (MsgType.TUNE_REQ, MsgType.CHAN_ASSIGN):
        channel = decode_channel(ev.frame.payload)
        if channel == m.assigned_channel and m.state is not RuState.AWAIT_ASSIGN:
            if m.state in (RuState.LOCKED, RuState.HOLD):
                return m, (Send(lock_confirm(channel)),)
            return m, ()
        if m.calibrated_for(channel):
            return _ru_start_direct(m, channel)
        if m.state in (RuState.LOCKED, RuState.HOLD):
            return _ru_reassign_reachable(m, channel, ev.rx_power_dbm)
        return _ru_assign_fresh(m, channel, ev.rx_power_dbm)

    if kind is MsgType.POWER_ADJ:
        power = decode_tenths(ev.frame.payload)
        if m.state is RuState.AWAIT_ASSIGN:
            if m.assigned_channel is None:
                raise InvalidEvent(m.state, ev)
            return _ru_start_sweep(m, m.assigned_channel, power)
        if m.state is RuState.SWEEP:
            return _evolve(m, sweep_power_dbm=power), (SetPower(power),)
        return m, ()

    if kind is MsgType.SWEEP_DETECTED:
        channel = decode_channel(ev.frame.payload)
        if m.state is RuState.SWEEP:
            return _evolve(m, state=RuState.FINE_TUNE, assigned_channel=channel,
                           fine_rounds=0), ()
        return m, ()

    if kind is MsgType.HOLD_CORRECT:
        step = decode_tenths(ev.frame.payload)
        if m.state is RuState.FINE_TUNE:
            actions = (SetKnobs(step_ghz=step),) if step else ()
            rounds = m.fine_rounds + 1
            if abs(step) <= m.lock_step_threshold_ghz and rounds >= m.min_fine_rounds:
                m2 = _evolve(m, state=RuState.LOCKED, fine_rounds=rounds,
                             current_offset_est=-step)
                actions += (SetPower(m.full_power_dbm),
                            Send(lock_confirm(m.assigned_channel)))
                if m.last_rx_power_dbm is not None:
                    actions += (Send(loss_report(m.last_rx_power_dbm)),)
                return m2, actions
            return _evolve(m, fine_rounds=rounds), actions
        if m.state in (RuState.LOCKED, RuState.HOLD):
            if step == 0.0:
                return m, ()
            return _evolve(m, state=RuState.HOLD, current_offset_est=-step), \
                (SetKnobs(step_ghz=step),)
        return m, ()

    return m, ()  # stray chatter is tolerated


def _ru_timer(m: RuMachine, ev: TimerExpired):
    if ev.tag == "settle":
        if m.state is not RuState.DIRECT_TUNING:
            return m, ()
        m2 = _evolve(m, state=RuState.LOCKED, current_offset_est=0.0)
        if m.role is Role.PRIMARY:
            return m2, ()  # nobody upstream to confirm to
        return m2, (Send(lock_confirm(m.assigned_channel)),)

    if ev.tag == "dwell":
        if m.state is not RuState.SWEEP:
            return m, ()
        plan = m.sweep_plan
        index = m.sweep_index + 1
        if index >= SWEEP_LAP_LIMIT * plan.n_points:
            return _evolve(m, sweep_index=index), (RaiseAlarm("sweep exhausted with no feedback"),)
        actions = (SetKnobs(frequency_thz=plan.frequency_thz(index)),
                   Send(hello()),
                   ArmTimer("dwell", plan.dwell_us))
        if index % plan.n_points == 0:
            actions = (RaiseAlarm("sweep wrapped without detection"),) + actions
        return _evolve(m, sweep_index=index), actions

    if ev.tag == "hello":
        if m.state is not RuState.FINE_TUNE:
            return m, ()
        if m.hello_retries >= m.hello_retry_limit:
            return m, (RaiseAlarm("no response to re-announcement"),)
        return _evolve(m, hello_retries=m.hello_retries + 1), \
            (Send(hello()), ArmTimer("hello", m.hello_period_us))

    return m, ()


def _ru_drift_tick(m: RuMachine):
    if m.state not in (RuState.LOCKED, RuState.HOLD):
        return m, ()
    step = hold_step(m.current_offset_est, m.deadband_ghz, m.hold_gain,
                     m.hold_saturation_ghz)
    if step == 0.0:
        if m.state is RuState.HOLD:
            return _evolve(m, state=RuState.LOCKED), ()
        return m, ()
    return _evolve(m, state=RuState.HOLD,
                   current_offset_est=m.current_offset_est + step), \
        (SetKnobs(step_ghz=step),)


def _ru_link_down(m: RuMachine):
    if m.state in (RuState.LOCKED, RuState.HOLD, RuState.FINE_TUNE):
        # already tuned; re-announce so whichever CO now terminates the path
        # can confirm us
        m2 = _evolve(m, state=RuState.FINE_TUNE, fine_rounds=0, hello_retries=0)
        return m2, (Send(hello()), ArmTimer("hello", m.hello_period_us))
    return m, ()


def ru_transition(m: RuMachine, event):
    """Pure RU transition: (machine, event) -> (machine', actions)."""
    if isinstance(event, PowerOn):
        if m.state is not RuState.INIT:
            raise InvalidEvent(m.state, event)
        if event.nms_channel is not None:
            if not m.calibrated_for(event.nms_channel):
                raise InvalidEvent(m.state, event)
            return _ru_start_direct(m, event.nms_channel)
        return _evolve(m, state=RuState.AWAIT_ASSIGN), ()
    if m.state is RuState.INIT:
        raise InvalidEvent(m.state, event)
    if isinstance(event, MsgReceived):
        return _ru_msg(m, event)
    if isinstance(event, TimerExpired):
        return _ru_timer(m, event)
    if isinstance(event, DriftTick):
        return _ru_drift_tick(m)
    if isinstance(event, LinkDown):
        return _ru_link_down(m)
    raise InvalidEvent(m.state, event)


# --------------------------------------------------------------------------
# CO machine

@dataclass(frozen=True)
class PortSlot:
    state: CoPortState = CoPortState.IDLE
    channel: int | None = None
    reported_rx_dbm: float | None = None
    last_correct_us: int | None = None
    assign_resends: int = 0
    below_sens_ticks: int = 0


_IDLE_SLOT = PortSlot()  # frozen, so every unassigned port can share it


@dataclass(frozen=True)
class CoMachine:
    ports: dict[int, PortSlot] = field(default_factory=dict)
    pairwise: bool = False
    tx_power_dbm: float = 0.0
    rx_sensitivity_dbm: float = -40.0
    sweep_margin_db: float = 3.0
    max_tx_power_dbm: float = 3.0
    deadband_ghz: float = 1.0
    hold_gain: float = 0.5
    hold_saturation_ghz: float = 2.0
    monitor_period_us: int = 1_000_000
    assign_resend_period_us: int = 500_000
    assign_resend_limit: int = 5
    reoffer_period_us: int = 1_000_000  # slow poll while the port stays dark
    los_debounce_ticks: int = 3

    def slot(self, port: int) -> PortSlot:
        return self.ports.get(port, _IDLE_SLOT)


def _co_with_slot(m: CoMachine, port: int, **changes) -> CoMachine:
    slots = dict(m.ports)
    slots[port] = _evolve(m.slot(port), **changes)
    return _evolve(m, ports=slots)


def _co_assign_frame(m: CoMachine, channel: int) -> MgmtFrame:
    return chan_assign(channel) if m.pairwise else tune_req(channel)


def _quantized_step(offset_est_ghz, deadband_ghz, gain, saturation_ghz) -> float:
    step = hold_step(offset_est_ghz, deadband_ghz, gain, saturation_ghz)
    return round(step * 10.0) / 10.0  # wire format carries 0.1 GHz units


def _co_msg(m: CoMachine, ev: MsgReceived):
    if ev.port is None:
        raise InvalidEvent("CO", ev)
    slot = m.slot(ev.port)
    kind = ev.frame.msg_type

    if kind is MsgType.HELLO:
        if slot.state in (CoPortState.WAIT_DETECT, CoPortState.CONFIRMING,
                          CoPortState.MONITOR):
            if ev.rx_power_dbm < m.rx_sensitivity_dbm:
                return m, ()
            m2 = _co_with_slot(m, ev.port, state=CoPortState.CONFIRMING,
                               below_sens_ticks=0)
            return m2, (Send(sweep_detected(slot.channel), port=ev.port),)
        return m, ()

    if kind is MsgType.LOSS_REPORT:
        reported = decode_tenths(ev.frame.payload)
        if slot.state is CoPortState.WAIT_DETECT:
            loss = estimate_link_loss(m.tx_power_dbm, reported)
            power = sweep_power(max(loss, 0.0), m, m.sweep_margin_db, m.max_tx_power_dbm)
            m2 = _co_with_slot(m, ev.port, reported_rx_dbm=reported)
            return m2, (Send(power_adj(power), port=ev.port),)
        if slot.state in (CoPortState.CONFIRMING, CoPortState.MONITOR):
            return _co_with_slot(m, ev.port, reported_rx_dbm=reported), ()
        return m, ()

    if kind is MsgType.LOCK_CONFIRM:
        if slot.state in (CoPortState.WAIT_DETECT, CoPortState.CONFIRMING,
                          CoPortState.MONITOR):
            return _co_with_slot(m, ev.port, state=CoPortState.MONITOR,
                                 below_sens_ticks=0), ()
        return m, ()

    return m, ()


def quiet_reading(m: CoMachine, slot: PortSlot, power_dbm: float,
                  offset_est_ghz: float | None, time_us: int) -> bool:
    """A MONITOR reading that changes nothing: signal up, no loss-of-signal count
    to clear, estimate in the deadband or a correction under a period old."""
    return slot.state is CoPortState.MONITOR and not slot.below_sens_ticks \
        and power_dbm >= m.rx_sensitivity_dbm and offset_est_ghz is not None \
        and (abs(offset_est_ghz) <= m.deadband_ghz or slot.last_correct_us is not None
             and time_us - slot.last_correct_us < m.monitor_period_us)


def _co_port_power(m: CoMachine, ev: PortPower):
    slot = m.slot(ev.port)

    if slot.state is CoPortState.CONFIRMING:
        if ev.power_dbm < m.rx_sensitivity_dbm or ev.offset_est_ghz is None:
            return m, ()
        # no deadband while confirming: drive the RU onto the port centre,
        # a (near-)zero step doubles as the "you are centred" signal
        step = round(max(-m.hold_saturation_ghz,
                         min(m.hold_saturation_ghz,
                             -m.hold_gain * ev.offset_est_ghz)) * 10.0) / 10.0
        return m, (Send(hold_correct(step), port=ev.port),)

    if slot.state is CoPortState.MONITOR:
        if quiet_reading(m, slot, ev.power_dbm, ev.offset_est_ghz, ev.time_us):
            return m, ()
        if ev.power_dbm < m.rx_sensitivity_dbm:
            ticks = slot.below_sens_ticks + 1
            if ticks >= m.los_debounce_ticks:
                m2 = _co_with_slot(m, ev.port, state=CoPortState.WAIT_DETECT,
                                   below_sens_ticks=0, assign_resends=0)
                return m2, (RaiseAlarm(f"loss of signal on port {ev.port}"),)
            return _co_with_slot(m, ev.port, below_sens_ticks=ticks), ()
        m2 = _co_with_slot(m, ev.port, below_sens_ticks=0) \
            if slot.below_sens_ticks else m
        if ev.offset_est_ghz is None:
            return m2, ()
        due = slot.last_correct_us is None or \
            ev.time_us - slot.last_correct_us >= m.monitor_period_us
        if not due:
            return m2, ()
        step = _quantized_step(ev.offset_est_ghz, m.deadband_ghz, m.hold_gain,
                               m.hold_saturation_ghz)
        if step == 0.0:
            return m2, ()
        m2 = _co_with_slot(m2, ev.port, last_correct_us=ev.time_us)
        return m2, (Send(hold_correct(step), port=ev.port),)

    return m, ()  # IDLE and WAIT_DETECT need a decoded HELLO, not raw power


def co_transition(m: CoMachine, event):
    """Pure CO transition: (machine, event) -> (machine', actions)."""
    if isinstance(event, NmsAssign):
        m2 = _co_with_slot(m, event.port, state=CoPortState.WAIT_DETECT,
                           channel=event.channel, assign_resends=0,
                           reported_rx_dbm=None, below_sens_ticks=0,
                           last_correct_us=None)
        return m2, (Send(_co_assign_frame(m, event.channel), port=event.port),
                    ArmTimer(f"assign:{event.port}", m.assign_resend_period_us))
    if isinstance(event, MsgReceived):
        return _co_msg(m, event)
    if isinstance(event, PortPower):
        return _co_port_power(m, event)
    if isinstance(event, TimerExpired):
        if event.tag.startswith("assign:"):
            port = int(event.tag.split(":", 1)[1])
            slot = m.slot(port)
            if slot.state is not CoPortState.WAIT_DETECT:
                return m, ()
            if slot.assign_resends < m.assign_resend_limit:
                m2 = _co_with_slot(m, port, assign_resends=slot.assign_resends + 1)
                period = m.assign_resend_period_us
            else:
                m2 = m  # fast retries exhausted: keep polling slowly
                period = m.reoffer_period_us
            return m2, (Send(_co_assign_frame(m, slot.channel), port=port),
                        ArmTimer(event.tag, period))
        return m, ()
    raise InvalidEvent("CO", event)


# --------------------------------------------------------------------------
# closed-loop hold simulation (the oracle behind the 24 h acceptance bound)

def simulate_hold_loop(duration_s: float = 86_400.0, step_s: float = 1.0,
                       drift: DriftModel | None = None,
                       noise_sigma_ghz: float = 0.5,
                       deadband_ghz: float = 1.0, gain: float = 0.5,
                       saturation_ghz: float = 2.0,
                       seeds=range(20), enabled: bool = True) -> np.ndarray:
    """Max |frequency offset| per seed over a drift + correction run.

    A simpler loop than the engine's, which samples a MONITOR port at 10 Hz:
    per ``step_s``, a drift step, one noisy CO offset estimate and one quantized
    hold_step correction.  ``enabled=False`` skips the corrections (ablation)."""
    drift = drift or DriftModel()
    n_steps = int(round(duration_s / step_s))
    seeds = list(seeds)
    sigma = drift.sigma_rw_ghz * math.sqrt(step_s)

    drift_off = np.zeros(len(seeds))
    correction = np.zeros(len(seeds))
    max_abs = np.zeros(len(seeds))
    rngs = [np.random.default_rng([int(s), 0x601d]) for s in seeds]
    increments = np.stack([r.normal(0.0, sigma, n_steps) if sigma > 0
                           else np.zeros(n_steps) for r in rngs])
    noises = np.stack([r.normal(0.0, noise_sigma_ghz, n_steps) if noise_sigma_ghz > 0
                       else np.zeros(n_steps) for r in rngs])

    for t in range(n_steps):
        drift_off += drift.ramp_ghz_per_s * step_s + increments[:, t]
        np.clip(drift_off, -drift.bound_ghz, drift.bound_ghz, out=drift_off)
        offset = drift_off + correction
        if enabled:
            est = offset + noises[:, t]
            step = np.where(np.abs(est) <= deadband_ghz, 0.0,
                            np.clip(-gain * est, -saturation_ghz, saturation_ghz))
            step = np.round(step * 10.0) / 10.0
            correction += step
            offset = drift_off + correction
        np.maximum(max_abs, np.abs(offset), out=max_abs)
    return max_abs
