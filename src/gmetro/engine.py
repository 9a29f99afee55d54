"""Deterministic discrete-event core.

Integer-microsecond clock, a (time, insertion-sequence)-ordered heap of
typed events, each entry holding the handler that runs it, per-entity RNG
streams derived from (seed, entity id), and one frame delivery pipeline for
both directions: pack -> power gate -> bit errors -> decode -> machine
transition (a frame that fails the power gate is never packed).  Bit errors
are drawn on decoded bits, so the Manchester line code, which is modelled in
``codec`` for the spectral mask, is not applied here.  At BER 0 a frame is
delivered as sent, unpacked, but the receiver still draws one channel number
per wire bit, as ``apply_bit_errors`` would, so a later BER step reads the
same stream.  Identical (scenario, seed) pairs produce byte-identical traces.

The safety checks on each send cost O(filters near the frequency + floor
classes + victim COs), not O(RUs): at a CO's demux only the ports near the
frequency are computed, and every other port is exactly its floor (see the
comment above the checks).

A frame goes between two endpoints: an RU, and an ``Association``, the
management channel of one CO port to the RU on that port's channel.  Each
endpoint keeps the reliable frames it sent that await an ACK, and the last
seq it accepted per (sender, type).  An association also holds its port's
slot of the per-port CO machine, which gets back the timers it arms, and is
made at the first NMS assignment or frame on its port.

Port monitoring is one heap entry per CO per tick, which samples the CO's
associations in assignment order.  Every port is sampled and draws its
noise, but the CO machine gets no reading it would return unchanged: none
of a WAIT_DETECT port, which waits for a decoded HELLO, and no quiet MONITOR
reading (``protocol.quiet_reading``).  A tuner's laser emission is cached
until the engine changes that laser (knobs, power or drift), and each
port's path gain until the plant or the frequency changes.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import codec, lasers, link
from .codec import MgmtChannelConfig, MgmtFrame, MsgType
from .lasers import (
    DriftModel, EmissionState, MemsVcselModel, ThermalDbrModel, VernierModel, calibrate,
)
from .link import FrequencyPlan, NoPath, Topology
from .protocol import (
    ArmTimer, CoMachine, CoPortState, DriftTick, LinkDown, MsgReceived,
    NmsAssign, PortPower, PortSlot, PowerOn, RaiseAlarm, Role, RuMachine,
    RuState, Send, SetKnobs, SetPower, TimerExpired, co_transition,
    plan_sweep, quiet_reading, ru_transition,
)

PROPAGATION_US_PER_KM = 5.0

RELIABLE_TYPES = frozenset({
    MsgType.SWEEP_DETECTED, MsgType.LOCK_CONFIRM, MsgType.LOSS_REPORT,
})

# states in which an RU counts as locked
SETTLED = (RuState.LOCKED, RuState.HOLD)

# standard normals drawn at a time for a CO's measurement noise
MEAS_BATCH = 1024

LOST_NO_PATH = "NO_PATH"
LOST_BELOW_SENSITIVITY = "BELOW_SENSITIVITY"


class EngineError(Exception):
    pass


class ValidationError(EngineError):
    def __init__(self, rule: str):
        super().__init__(rule)
        self.rule = rule


class DeadlockError(EngineError):
    pass


class SafetyViolation(EngineError):
    pass


# --------------------------------------------------------------------------
# declarative scenario

@dataclass(frozen=True)
class TopoSpec:
    kind: str = "tree"                 # tree | drop_line | horseshoe
    trunk_km: float = 20.0             # tree only
    segment_km: float = 14.0           # drop_line / horseshoe
    drop_km: float = 2.0
    loss_db_per_km: float = 0.25
    connector_loss_db: float = 0.5
    express_loss_db: float = 1.0
    filter_bandwidth_ghz: float = 50.0
    isolation_floor_db: float = 35.0


@dataclass(frozen=True)
class RuSpec:
    name: str
    channel: int
    laser: str = "mems"                # mems | dbr | vernier
    calibrated: bool = False
    start_ms: float = 0.0


@dataclass(frozen=True)
class CoSpec:
    name: str = "co0"
    role: str = "managed"              # managed | primary
    laser: str = "vernier"             # primary's own transceiver
    nms_channel: int | None = None     # primary only


@dataclass(frozen=True)
class MgmtSpec:
    bit_rate: float = 50_000.0
    ber: float = 0.0
    rx_sensitivity_dbm: float = -40.0
    tx_power_dbm: float = 0.0
    max_tx_power_dbm: float = 3.0
    sweep_margin_db: float = 3.0
    retry_limit: int = 3


@dataclass(frozen=True)
class RunSpec:
    seed: int = 1
    horizon_ms: float = 60_000.0
    stop: str = "all_locked"           # all_locked | time
    nms_at_ms: float = 0.0
    drift_sigma_rw_ghz: float = 0.05
    drift_ramp_ghz_per_s: float = 0.0
    drift_bound_ghz: float = 100.0
    drift_tick_ms: float = 1000.0
    monitor_tick_ms: float = 100.0
    measurement_noise_ghz: float = 0.5
    latency_worst_ms: float = 3.0
    crosstalk_min_margin_db: float = 25.0
    safety_checks: bool = True
    hold_enabled: bool = True
    trace_drift: bool = False
    allow_unreachable: bool = False


@dataclass(frozen=True)
class FaultSpec:
    kind: str                          # cut | restore | ber
    at_ms: float
    span: str | None = None
    ber: float | None = None


@dataclass(frozen=True)
class Scenario:
    plan: FrequencyPlan = FrequencyPlan()
    topo: TopoSpec = TopoSpec()
    rus: tuple[RuSpec, ...] = ()
    cos: tuple[CoSpec, ...] = (CoSpec(),)
    mgmt: MgmtSpec = MgmtSpec()
    run: RunSpec = RunSpec()
    faults: tuple[FaultSpec, ...] = ()


LASER_FAMILIES = {
    "mems": MemsVcselModel,
    "dbr": ThermalDbrModel,
    "vernier": VernierModel,
}


@functools.lru_cache(maxsize=16)
def calibration_table(family: str, plan: FrequencyPlan) -> lasers.CalibrationTable:
    """A fresh laser of the family calibrated against the plan, computed
    once per process: the table depends on nothing else."""
    return calibrate(LASER_FAMILIES[family](), plan)


def build_topology(scenario: Scenario) -> Topology:
    t = scenario.topo
    rus = [(r.name, r.channel) for r in scenario.rus]
    common = dict(loss_db_per_km=t.loss_db_per_km, connector_loss_db=t.connector_loss_db,
                  filter_bandwidth_ghz=t.filter_bandwidth_ghz,
                  isolation_floor_db=t.isolation_floor_db)
    if t.kind == "tree":
        return link.make_tree(scenario.plan, rus, trunk_km=t.trunk_km,
                              drop_km=t.drop_km, co_name=scenario.cos[0].name, **common)
    if t.kind == "drop_line":
        return link.make_drop_line(scenario.plan, rus, segment_km=t.segment_km,
                                   drop_km=t.drop_km, express_loss_db=t.express_loss_db,
                                   co_name=scenario.cos[0].name, **common)
    if t.kind == "horseshoe":
        return link.make_horseshoe(scenario.plan, rus, segment_km=t.segment_km,
                                   drop_km=t.drop_km, express_loss_db=t.express_loss_db,
                                   co_west=scenario.cos[0].name,
                                   co_east=scenario.cos[1].name, **common)
    raise ValidationError(f"unknown topology kind {t.kind!r}")


def validate(scenario: Scenario) -> Topology:
    """Structural validation; raises ValidationError with the first failing
    rule and returns the built topology on success."""
    if scenario.topo.kind not in ("tree", "drop_line", "horseshoe"):
        raise ValidationError(f"unknown topology kind {scenario.topo.kind!r}")
    if not scenario.rus:
        raise ValidationError("scenario needs at least one RU")
    names = [r.name for r in scenario.rus]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate RU names")
    # one RU per channel: a CO port's association has one RU at its far end
    seen = set()
    for r in scenario.rus:
        if r.channel in seen:
            raise ValidationError(f"channel {r.channel} assigned twice")
        seen.add(r.channel)
    expected_cos = 2 if scenario.topo.kind == "horseshoe" else 1
    if len(scenario.cos) != expected_cos:
        raise ValidationError(
            f"{scenario.topo.kind} topology needs {expected_cos} CO(s), got {len(scenario.cos)}")
    for r in scenario.rus:
        if not 0 <= r.channel < scenario.plan.channel_count:
            raise ValidationError(f"RU {r.name}: channel {r.channel} outside plan")
        if r.laser not in LASER_FAMILIES:
            raise ValidationError(f"RU {r.name}: unknown laser family {r.laser!r}")
        if not scenario.run.allow_unreachable:
            probe = LASER_FAMILIES[r.laser]()
            try:
                probe.set_frequency(scenario.plan.center_thz(r.channel))
            except lasers.LaserError:
                raise ValidationError(
                    f"RU {r.name}: {r.laser} laser cannot reach channel {r.channel}")
    for co in scenario.cos:
        if co.role not in ("managed", "primary"):
            raise ValidationError(f"CO {co.name}: unknown role {co.role!r}")
        if co.role == "primary":
            if co.nms_channel is None:
                raise ValidationError(f"primary CO {co.name} needs nms_channel")
            if len(scenario.rus) != 1:
                raise ValidationError("pairwise scenarios run one dependent RU")
            if scenario.rus[0].channel != co.nms_channel:
                raise ValidationError(
                    "pairwise dependent must sit behind the assigned channel's port")
            if co.laser not in LASER_FAMILIES:
                raise ValidationError(f"CO {co.name}: unknown laser family {co.laser!r}")
    if not 0.0 <= scenario.mgmt.ber <= 1.0:
        raise ValidationError("mgmt ber outside [0, 1]")
    if scenario.run.horizon_ms <= 0:
        raise ValidationError("horizon must be positive")
    if scenario.run.stop not in ("all_locked", "time"):
        raise ValidationError(f"unknown stop condition {scenario.run.stop!r}")
    topo = build_topology(scenario)
    for f in scenario.faults:
        if f.kind in ("cut", "restore"):
            if f.span is None:
                raise ValidationError(f"{f.kind} fault needs a span")
            # a name check, not topo.span(): that would compile the plant here
            if f.span not in {s.name for s in topo.spans}:
                raise ValidationError(f"fault references unknown span {f.span!r}")
        elif f.kind == "ber":
            if f.ber is None or not 0.0 <= f.ber <= 1.0:
                raise ValidationError("ber fault needs ber in [0, 1]")
        else:
            raise ValidationError(f"unknown fault kind {f.kind!r}")
        if not 0.0 <= f.at_ms <= scenario.run.horizon_ms:
            raise ValidationError(f"fault at {f.at_ms} ms outside run horizon")
    return topo


def inject_fault(scenario: Scenario, at_us: int, kind: str,
                 span: str | None = None, ber: float | None = None) -> Scenario:
    """Return a scenario with the fault appended to its schedule."""
    fault = FaultSpec(kind=kind, at_ms=at_us / 1000.0, span=span, ber=ber)
    out = replace(scenario, faults=scenario.faults + (fault,))
    validate(out)
    return out


# --------------------------------------------------------------------------
# trace and metrics

@dataclass(frozen=True)
class TraceRecord:
    time_us: int
    entity: str
    kind: str
    details: str


def trace_emit(record: TraceRecord) -> str:
    return f"{record.time_us}\t{record.entity}\t{record.kind}\t{record.details}"


class Trace:
    def __init__(self):
        self.records: list[TraceRecord] = []

    def add(self, time_us: int, entity: str, kind: str, details: str):
        self.records.append(TraceRecord(time_us, entity, kind, details))

    def render(self) -> str:
        return "".join(trace_emit(r) + "\n" for r in self.records)

    def lines(self) -> list[str]:
        return [trace_emit(r) for r in self.records]

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)


@dataclass
class Metrics:
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: dict[str, int] = field(default_factory=dict)
    frames_in_flight: int = 0
    retransmissions: int = 0
    blocks_corrected: int = 0
    time_to_lock_s: dict[str, float] = field(default_factory=dict)
    max_locked_offset_ghz: float = 0.0
    min_crosstalk_margin_db: float = math.inf
    protection_switch_s: dict[str, float] = field(default_factory=dict)
    stop_time_s: float = 0.0

    @property
    def frames_lost_total(self) -> int:
        return sum(self.frames_lost.values())

    def as_dict(self) -> dict:
        out = {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_lost": self.frames_lost_total,
            "frames_in_flight": self.frames_in_flight,
            "retransmissions": self.retransmissions,
            "blocks_corrected": self.blocks_corrected,
            "max_locked_offset_ghz": round(self.max_locked_offset_ghz, 4),
            "stop_time_s": round(self.stop_time_s, 6),
        }
        for reason in sorted(self.frames_lost):
            out[f"frames_lost.{reason}"] = self.frames_lost[reason]
        for name in sorted(self.time_to_lock_s):
            out[f"time_to_lock_s.{name}"] = round(self.time_to_lock_s[name], 6)
        if math.isfinite(self.min_crosstalk_margin_db):
            out["min_crosstalk_margin_db"] = round(self.min_crosstalk_margin_db, 2)
        for name in sorted(self.protection_switch_s):
            out[f"protection_switch_s.{name}"] = round(self.protection_switch_s[name], 6)
        return out

    def to_lines(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.as_dict().items())

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# runtime entities

def ms_to_us(ms: float) -> int:
    """Scenario milliseconds to clock microseconds, rounded to the nearest tick."""
    return int(round(ms * 1000.0))


def entity_rng(seed: int, entity: str, stream: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{entity}/{stream}".encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])


@dataclass
class RuEntity:
    name: str
    machine: RuMachine
    laser: object
    channel: int
    rng_drift: np.random.Generator
    rng_channel: np.random.Generator
    power_on_us: int = 0
    powered: bool = False
    pending_relock_since_us: int | None = None
    seq: Iterator[int] = field(default_factory=itertools.count)   # wire seqs, taken mod 16
    emission: EmissionState | None = None       # see Sim._emission
    pending: dict[tuple[MsgType, int], PendingAck] = field(default_factory=dict)
    accepted: dict[tuple[str, MsgType], int] = field(default_factory=dict)

    settled_states: ClassVar[tuple[RuState, ...]] = SETTLED


@dataclass
class PrimaryTx:
    """Transmitter half of a primary CO.  An RU machine tunes it to the NMS
    channel; once locked it hands the commanded port to its CO half."""
    name: str                                   # trace entity "<co>.tx"
    co: str
    machine: RuMachine
    laser: object
    pending_assign: tuple[int, int] | None = None
    emission: EmissionState | None = None       # see Sim._emission

    settled_states: ClassVar[tuple[RuState, ...]] = (RuState.LOCKED,)


@dataclass
class CoEntity:
    name: str
    machine: CoMachine
    rng_meas: np.random.Generator
    rng_channel: np.random.Generator
    tx: PrimaryTx | None = None
    seq: Iterator[int] = field(default_factory=itertools.count)   # shared by its ports
    ports: dict[int, Association] = field(default_factory=dict)
    # monitored associations in assignment order; the CO's tick chain runs
    # while this is non-empty, up to the horizon
    ticking: list[Association] = field(default_factory=list)
    # prefetched standard normals of rng_meas, see Sim._meas_normal
    meas_z: Iterator[float] = field(default_factory=lambda: iter(()))

    def association(self, port: int) -> Association:
        """The association on ``port``, made at its first use."""
        assoc = self.ports.get(port)
        if assoc is None:
            assoc = self.ports[port] = Association(self, port, f"{self.name}.p{port}", self.seq)
        return assoc


@dataclass(eq=False)
class Association:
    """The management channel of one CO port and the RU on its channel."""
    co: CoEntity = field(repr=False)
    port: int
    name: str                                   # trace entity "<co>.p<port>"
    seq: Iterator[int]                          # the CO's, shared by its ports
    slot: PortSlot = PortSlot()
    # (plant, frequency, gain or None), see Sim._port_gain
    gain: tuple | None = None
    # (plant, frequency, power) of its last send that passed the downstream
    # isolation check
    isolated: tuple | None = None
    pending: dict[tuple[MsgType, int], PendingAck] = field(default_factory=dict)
    accepted: dict[tuple[str, MsgType], int] = field(default_factory=dict)


@dataclass
class PendingAck:
    """A reliable frame on the air, kept by its sender until acked."""
    frame: MgmtFrame
    retries: int = 0


# `retry` value of a resend that goes out under the sender's next seq
NEW_SEQ = -1

DECODE_LOSS = {
    codec.SyncNotFound: "SYNC_NOT_FOUND",
    codec.FecFailure: "FEC_FAILURE",
    codec.CrcMismatch: "CRC_MISMATCH",
}


# --------------------------------------------------------------------------
# the simulator

class Sim:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topology = validate(scenario)
        self.plan = scenario.plan
        self.mgmt = MgmtChannelConfig(
            bit_rate=scenario.mgmt.bit_rate,
            rx_sensitivity_dbm=scenario.mgmt.rx_sensitivity_dbm,
        )
        self.ber = scenario.mgmt.ber
        self.drift = DriftModel(
            sigma_rw_ghz=scenario.run.drift_sigma_rw_ghz,
            ramp_ghz_per_s=scenario.run.drift_ramp_ghz_per_s,
            bound_ghz=scenario.run.drift_bound_ghz,
        )
        self.trace = Trace()
        self.metrics = Metrics()
        self.now_us = 0
        self.horizon_us = ms_to_us(scenario.run.horizon_ms)
        self._drift_tick_us = ms_to_us(scenario.run.drift_tick_ms)
        self._monitor_tick_us = ms_to_us(scenario.run.monitor_tick_ms)
        # entries are (time_us, insertion seq, handler, args), run as
        # handler(self, *args); the seq breaks ties, so the order of
        # _schedule calls is part of every trace.  Handlers are plain
        # functions, not bound methods, so no entry refers back to the Sim.
        self._heap: list = []
        self._seq = 0
        # tuners (RUs and primary transmitters) in one of their settled
        # states; _run_tuner keeps it, as the only place states change
        self._settled = 0
        self._tuner_count = len(scenario.rus) + \
            sum(spec.role == "primary" for spec in scenario.cos)
        # (plant, levels) of the settled RUs, see _victim_levels
        self._victims: tuple | None = None

        seed = scenario.run.seed
        sweep_plan = plan_sweep(self.plan, scenario.topo.filter_bandwidth_ghz,
                                scenario.run.latency_worst_ms)
        self.rus: dict[str, RuEntity] = {}
        for spec in scenario.rus:
            laser = LASER_FAMILIES[spec.laser]()
            machine = RuMachine(
                calibration=calibration_table(spec.laser, self.plan) if spec.calibrated else None,
                sweep_plan=sweep_plan,
                full_power_dbm=scenario.mgmt.tx_power_dbm,
                settle_us=ms_to_us(laser.settle_time_ms),
                co_tx_power_dbm=scenario.mgmt.tx_power_dbm,
                sweep_margin_db=scenario.mgmt.sweep_margin_db,
                max_tx_power_dbm=scenario.mgmt.max_tx_power_dbm,
                rx_sensitivity_dbm=scenario.mgmt.rx_sensitivity_dbm,
            )
            self.rus[spec.name] = RuEntity(
                name=spec.name, machine=machine, laser=laser, channel=spec.channel,
                rng_drift=entity_rng(seed, spec.name, "drift"),
                rng_channel=entity_rng(seed, spec.name, "channel"),
            )
        # RU index i is entry i of every FilterBank: both follow scenario order
        self._ru_list = list(self.rus.values())
        self._ru_index = {name: i for i, name in enumerate(self.rus)}

        self.cos: dict[str, CoEntity] = {}
        for spec in scenario.cos:
            machine = CoMachine(
                pairwise=spec.role == "primary",
                tx_power_dbm=scenario.mgmt.tx_power_dbm,
                rx_sensitivity_dbm=scenario.mgmt.rx_sensitivity_dbm,
                sweep_margin_db=scenario.mgmt.sweep_margin_db,
                max_tx_power_dbm=scenario.mgmt.max_tx_power_dbm,
            )
            co = CoEntity(
                name=spec.name, machine=machine,
                rng_meas=entity_rng(seed, spec.name, "meas"),
                rng_channel=entity_rng(seed, spec.name, "channel"),
            )
            if spec.role == "primary":
                laser = LASER_FAMILIES[spec.laser]()
                co.tx = PrimaryTx(
                    name=f"{spec.name}.tx", co=spec.name, laser=laser,
                    machine=RuMachine(
                        role=Role.PRIMARY,
                        calibration=calibration_table(spec.laser, self.plan),
                        sweep_plan=sweep_plan,
                        full_power_dbm=scenario.mgmt.tx_power_dbm,
                        settle_us=ms_to_us(laser.settle_time_ms),
                    ))
            self.cos[spec.name] = co

        self._seed_initial_events()

    # ---------------------------------------------------------------- queue

    def _schedule(self, time_us: int, handler, *args):
        heapq.heappush(self._heap, (time_us, self._seq, handler, args))
        self._seq += 1

    def _seed_initial_events(self):
        run = self.scenario.run
        for spec in self.scenario.rus:
            self._schedule(ms_to_us(spec.start_ms), Sim._power_on, self.rus[spec.name])
        nms_us = ms_to_us(run.nms_at_ms)
        for spec in self.scenario.cos:
            co = self.cos[spec.name]
            channels = [spec.nms_channel] if co.tx is not None else \
                [ru.channel for ru in self.rus.values()]
            for channel in channels:
                self._schedule(nms_us, Sim._nms_command, co, channel, channel)
        for fault in self.scenario.faults:
            at = ms_to_us(fault.at_ms)
            if fault.kind == "ber":
                self._schedule(at, Sim._ber_change, fault.ber)
            else:
                self._schedule(at, Sim._plant_change, fault.kind, fault.span)

    # ---------------------------------------------------------------- sending

    def _lost(self, entity: str, frame: MgmtFrame, reason: str, detail: str = ""):
        self.metrics.frames_lost[reason] = self.metrics.frames_lost.get(reason, 0) + 1
        extra = f" {detail}" if detail else ""
        self.trace.add(self.now_us, entity, "FRAME_LOST",
                       f"type={frame.msg_type.name} seq={frame.seq} reason={reason}{extra}")

    def _airtime_us(self, frame: MgmtFrame) -> int:
        bits = codec.packed_frame_bits(len(frame.payload))
        return int(round(bits / self.mgmt.bit_rate * 1e6))

    def _send(self, sender: RuEntity | Association, frame: MgmtFrame,
              retry: int | None = None):
        """Put a frame on the air from an RU or an association.

        A first transmission (``retry`` None) is traced SEND, anything else
        RETRY: ``retry`` is then the wire seq a link-layer retransmission
        reuses, or NEW_SEQ for a resend under the sender's next seq."""
        if retry is None or retry == NEW_SEQ:
            seq = next(sender.seq) % 16
        else:
            seq = retry
        frame = MgmtFrame(frame.msg_type, seq, frame.payload)
        self.metrics.frames_sent += 1
        tuner = sender if isinstance(sender, RuEntity) else sender.co.tx
        if tuner is None:   # a managed CO's fixed-grid port transmitter
            f_thz, power = self.plan.center_thz(sender.port), self.scenario.mgmt.tx_power_dbm
        else:
            state = self._emission(tuner)
            f_thz, power = state.frequency_thz, state.power_dbm
        self.trace.add(self.now_us, sender.name, "SEND" if retry is None else "RETRY",
                       f"type={frame.msg_type.name} seq={frame.seq} "
                       f"f={f_thz:.6f}THz p={power:.1f}dBm")
        try:
            receiver, path = self._route(sender)
        except link.LinkError:
            self._lost(sender.name, frame, LOST_NO_PATH)
            return
        self._check_send(sender, receiver, f_thz, power)
        arrival = self.now_us + self._airtime_us(frame) + \
            int(round(path.length_km * PROPAGATION_US_PER_KM))
        self._arm_retry(sender, frame)
        self._schedule(arrival, Sim._deliver, receiver, sender, frame, f_thz, power)

    def _route(self, sender: RuEntity | Association):
        """(receiver, compiled path) of a frame; raises link.LinkError if there
        is none.  An RU transmits toward its active side only (directional add)."""
        plant = self.topology.plant
        if isinstance(sender, RuEntity):
            path = plant.active_path(sender.name)
            return self.cos[path.co].association(sender.channel), path
        ru = self.rus[self.topology.ru_for_channel(sender.port)]
        return ru, plant.path_to_co(ru.name, sender.co.name)

    def _check_send(self, sender: RuEntity | Association, receiver, f_thz: float,
                    power: float):
        if isinstance(sender, RuEntity):
            # the crosstalk rule governs reduced-power sweep transmissions; a
            # locked RU re-announcing at full power on its own channel is
            # normal operation
            if sender.machine.state in (RuState.SWEEP, RuState.FINE_TUNE) and \
                    power < sender.machine.full_power_dbm - 1e-9:
                self._check_sweep_crosstalk(sender, f_thz, power)
            if self.scenario.run.safety_checks:
                self._check_upstream_isolation(sender, f_thz, power, receiver.co.name)
        elif self.scenario.run.safety_checks:
            self._check_downstream_isolation(sender, f_thz, power)

    def _arm_retry(self, sender: RuEntity | Association, frame: MgmtFrame):
        if frame.msg_type not in RELIABLE_TYPES:
            return
        key = (frame.msg_type, frame.seq)
        if key not in sender.pending:
            sender.pending[key] = PendingAck(frame)
        self._schedule(self.now_us + 4 * self._airtime_us(frame), Sim._rexmit, sender, key)

    def _rexmit(self, sender: RuEntity | Association, key: tuple[MsgType, int]):
        pending = sender.pending.get(key)
        if pending is None:
            return
        if pending.retries >= self.scenario.mgmt.retry_limit:
            del sender.pending[key]
            # a CO traces it under its own name, not its port's
            node = sender.name if isinstance(sender, RuEntity) else sender.co.name
            self.trace.add(self.now_us, node, "SEND_FAIL",
                           f"type={key[0].name} seq={key[1]} retries={pending.retries}")
            return
        pending.retries += 1
        self.metrics.retransmissions += 1
        self._send(sender, pending.frame, retry=key[1])

    # ---------------------------------------------------------------- arrival

    def _deliver(self, receiver: RuEntity | Association, sender: RuEntity | Association,
                 frame: MgmtFrame, f_thz: float, tx_power: float):
        upstream = isinstance(receiver, Association)
        if not upstream and not receiver.powered:
            self._lost(receiver.name, frame, "RX_OFF")
            return
        # gain is evaluated at arrival: light in flight dies with a cut span
        ru, assoc = (sender, receiver) if upstream else (receiver, sender)
        plant = self.topology.plant
        try:
            gain = plant.gain_db(plant.path_to_co(ru.name, assoc.co.name), f_thz, assoc.port)
        except NoPath:
            self._lost(receiver.name, frame, LOST_NO_PATH)
            return
        rx_power = tx_power + gain
        if rx_power < self.mgmt.rx_sensitivity_dbm:
            self._lost(receiver.name, frame, LOST_BELOW_SENSITIVITY, f"rx={rx_power:.1f}dBm")
            return
        rng = assoc.co.rng_channel if upstream else ru.rng_channel
        if self.ber == 0:
            # the channel draw of apply_bit_errors, which flips nothing here
            rng.random(codec.packed_frame_bits(len(frame.payload)))
            decoded, corrected = frame, 0
        else:
            noisy = codec.apply_bit_errors(codec.frame_pack(frame), self.ber, rng)
            try:
                decoded, stats = codec.frame_unpack(noisy)
            except (codec.SyncNotFound, codec.FecFailure, codec.CrcMismatch) as err:
                self._lost(receiver.name, frame, DECODE_LOSS[type(err)])
                return
            corrected = stats.corrected
        self.metrics.frames_delivered += 1
        self.metrics.blocks_corrected += corrected
        self.trace.add(self.now_us, receiver.name, "DELIVER",
                       f"type={decoded.msg_type.name} seq={decoded.seq} "
                       f"rx={rx_power:.1f}dBm corrected={corrected}")

        if decoded.msg_type is MsgType.ACK:
            acked_type = MsgType(decoded.payload[0] >> 4)
            acked_seq = decoded.payload[0] & 0x0F
            receiver.pending.pop((acked_type, acked_seq), None)
            return
        if decoded.msg_type is MsgType.NAK:
            return

        dedup_key = (sender.name, decoded.msg_type)
        duplicate = receiver.accepted.get(dedup_key) == decoded.seq
        if decoded.msg_type in RELIABLE_TYPES:
            ack = bytes([(int(decoded.msg_type) << 4) | decoded.seq])
            self._send(receiver, MgmtFrame(MsgType.ACK, payload=ack))
        if duplicate:
            return
        receiver.accepted[dedup_key] = decoded.seq

        event = MsgReceived(decoded, rx_power_dbm=rx_power, time_us=self.now_us)
        if upstream:
            self._run_co(receiver, event)
        else:
            self._run_tuner(receiver, event)

    # ---------------------------------------------------------------- machines

    def _run_tuner(self, tuner: RuEntity | PrimaryTx, event):
        """Drive an RU machine: an RU, or the transmitter half of a primary."""
        before = tuner.machine.state
        tuner.machine, actions = ru_transition(tuner.machine, event)
        after = tuner.machine.state
        if after is not before:
            self.trace.add(self.now_us, tuner.name, "STATE", f"{before.value}->{after.value}")
            settled = (after in tuner.settled_states) - (before in tuner.settled_states)
            if settled:
                self._settled += settled
                self._victims = None
        self._apply_tuner_actions(tuner, actions)
        # a LOCK is the completion of a tuning procedure; quiet HOLD->LOCKED
        # returns inside the deadband are not re-locks
        if after is RuState.LOCKED and before in (RuState.FINE_TUNE, RuState.DIRECT_TUNING):
            self._on_locked(tuner)

    def _apply_tuner_actions(self, tuner: RuEntity | PrimaryTx, actions):
        laser = tuner.laser
        for action in actions:
            if isinstance(action, SetKnobs):
                tuner.emission = None
                if action.knobs is not None:
                    laser.set_knobs(action.knobs)
                elif action.frequency_thz is not None:
                    laser.set_frequency(action.frequency_thz)
                elif action.step_ghz is not None:
                    laser.apply_frequency_step(action.step_ghz)
                state = self._emission(tuner)
                self.trace.add(self.now_us, tuner.name, "TUNE",
                               f"f={state.frequency_thz:.6f}THz")
            elif isinstance(action, SetPower):
                tuner.emission = None
                self._victims = None
                laser.set_power(action.power_dbm)
                self.trace.add(self.now_us, tuner.name, "POWER",
                               f"p={action.power_dbm:.1f}dBm")
            elif isinstance(action, Send):
                # a primary's transmitter half never sends: its CO half talks
                self._send(tuner, action.frame)
            elif isinstance(action, ArmTimer):
                at = self.now_us + action.delay_us
                self._schedule(at, Sim._run_tuner, tuner, TimerExpired(action.tag, time_us=at))
            elif isinstance(action, RaiseAlarm):
                self.trace.add(self.now_us, tuner.name, "ALARM", action.reason)

    def _on_locked(self, tuner: RuEntity | PrimaryTx):
        state = self._emission(tuner)
        channel = tuner.machine.assigned_channel
        off = (state.frequency_thz - self.plan.center_thz(channel)) * 1000.0
        self.trace.add(self.now_us, tuner.name, "LOCK",
                       f"ch={channel} f={state.frequency_thz:.6f}THz off={off:.1f}GHz")
        if isinstance(tuner, PrimaryTx):
            # primary transceiver tuned: hand its port to the CO half
            self._assign_port(self.cos[tuner.co], *tuner.pending_assign)
            return
        if tuner.name not in self.metrics.time_to_lock_s:
            self.metrics.time_to_lock_s[tuner.name] = (self.now_us - tuner.power_on_us) / 1e6
        if tuner.pending_relock_since_us is not None:
            delta = (self.now_us - tuner.pending_relock_since_us) / 1e6
            self.metrics.protection_switch_s[tuner.name] = delta
            tuner.pending_relock_since_us = None
        if self.scenario.run.safety_checks and abs(off) > 1.0 + 1e-9:
            raise SafetyViolation(
                f"{tuner.name} locked {off:.2f} GHz from its port centre")

    def _run_co(self, assoc: Association, event):
        """Drive the CO machine on one port."""
        assoc.slot, actions = co_transition(assoc.co.machine, assoc.slot, event)
        # a CO timer only ever resends an unanswered channel assignment
        retry = NEW_SEQ if isinstance(event, TimerExpired) else None
        for action in actions:
            if isinstance(action, Send):
                self._send(assoc, action.frame, retry)
            elif isinstance(action, ArmTimer):
                at = self.now_us + action.delay_us
                self._schedule(at, Sim._run_co, assoc, TimerExpired(action.tag, time_us=at))
            elif isinstance(action, RaiseAlarm):
                self.trace.add(self.now_us, assoc.co.name, "ALARM",
                               f"{action.reason} on port {assoc.port}")

    def _assign_port(self, co: CoEntity, port: int, channel: int):
        assoc = co.association(port)
        self._run_co(assoc, NmsAssign(channel))
        # A managed CO's ports are all assigned at the NMS time and a primary
        # has one port, so a port never joins a running chain at another phase.
        if not co.ticking:
            self._schedule(self.now_us + self._monitor_tick_us, Sim._monitor_tick, co)
        co.ticking.append(assoc)

    @staticmethod
    def _emission(tuner: RuEntity | PrimaryTx) -> EmissionState:
        """The tuner's laser emission.  Cached on the tuner: every engine
        change to the laser (SetKnobs, SetPower, drift) clears the cache."""
        state = tuner.emission
        if state is None:
            state = tuner.emission = tuner.laser.emission()
        return state

    # ---------------------------------------------------------------- safety

    # Each check repeats path_gain's float operations in the same order, with
    # everything that does not depend on the victim hoisted out: the sender's
    # path loss up to the CO port filter, and for a downstream send that
    # port's filter.  At a CO's demux, the ports near the frequency
    # (FilterBank.near) are checked one by one; every other port attenuates
    # exactly its floor, so for each floor class one comparison, with the
    # class's first member that is neither near nor the sender, stands for
    # all of it.  Crosstalk victims are sorted by level within a class, and
    # rounded subtraction is monotone, so the lowest level gives the class's
    # smallest margin.  A downstream check depends only on the plant, port,
    # frequency and power, so its passes are kept per association.  Results,
    # messages and metrics equal per-victim path_gain calls bit for bit, and
    # a violation names the lowest RU index, as a loop in RU order would.

    def _check_sweep_crosstalk(self, sweeper: RuEntity, f_thz: float, power: float):
        plant = self.topology.plant
        if self._victims is None or self._victims[0] is not plant:
            self._victims = (plant, self._victim_levels(plant))
        me = self._ru_index[sweeper.name]
        low = math.inf
        reached = []            # (base, near ports, classes) per victim CO in reach
        for victim_co, (levels, classes) in self._victims[1].items():
            try:
                base = plant.path_to_co(sweeper.name, victim_co).loss_at(f_thz)
            except NoPath:
                continue
            near = plant.bank(victim_co).near(f_thz)
            reached.append((base, near, classes))
            for i, att in near.items():
                level = levels.get(i)
                if level is not None and i != me:
                    low = min(low, level - (power + -(base + att)))
            for floor, entries in classes:
                lowest = next((level for level, i in entries if i != me and i not in near), None)
                if lowest is not None:
                    low = min(low, lowest - (power + -(base + floor)))
        margin_floor = self.scenario.run.crosstalk_min_margin_db
        if self.scenario.run.safety_checks and low < margin_floor:
            # the lowest violating RU index, and the minimum over the victims
            # up to it, which is what a loop in RU order would have seen
            margins = {i: level - (power + -(base + near.get(i, floor)))
                       for base, near, classes in reached for floor, entries in classes
                       for level, i in entries if i != me}
            first = min(i for i, margin in margins.items() if margin < margin_floor)
            low = min(margin for i, margin in margins.items() if i <= first)
            self.metrics.min_crosstalk_margin_db = min(self.metrics.min_crosstalk_margin_db, low)
            raise SafetyViolation(
                f"sweep of {sweeper.name} leaves only {margins[first]:.1f} dB margin "
                f"on channel {self._ru_list[first].channel}")
        if low < self.metrics.min_crosstalk_margin_db:
            self.metrics.min_crosstalk_margin_db = low

    def _victim_levels(self, plant: link.Plant) -> dict:
        """Carrier level (laser power plus gain) of every settled RU at its
        CO, as victim CO -> ({RU index: level}, [(floor, [(level, RU index)]
        ascending)]).  Kept until the plant changes, an RU enters or leaves
        its settled states, or a laser's power is set."""
        levels: dict[str, dict[int, float]] = {}
        for i, other in enumerate(self._ru_list):
            if other.machine.state not in SETTLED:
                continue
            try:
                victim_co, victim_gain = plant.carrier(other.name)
            except NoPath:
                continue
            levels.setdefault(victim_co, {})[i] = other.laser.power_dbm + victim_gain
        out = {}
        for victim_co, by_index in levels.items():
            classes = []
            for floor, members in plant.bank(victim_co).floor_groups.items():
                entries = sorted((by_index[i], i) for i in members if i in by_index)
                if entries:
                    classes.append((floor, entries))
            out[victim_co] = (by_index, classes)
        return out

    def _check_upstream_isolation(self, ru: RuEntity, f_thz: float, power: float,
                                  co_name: str):
        plant = self.topology.plant
        try:
            base = plant.path_to_co(ru.name, co_name).loss_at(f_thz)
        except NoPath:
            return
        sensitivity = self.mgmt.rx_sensitivity_dbm
        # the bank lists ports in RU order, as self.rus does
        bank = plant.bank(co_name)
        near = bank.near(f_thz)
        me = self._ru_index[ru.name]
        hits = [i for i, att in near.items() if i != me and power + -(base + att) >= sensitivity]
        for floor, members in bank.floor_groups.items():
            if power + -(base + floor) >= sensitivity:
                hits += [i for i in members if i != me and i not in near][:1]
        if hits:
            raise SafetyViolation(
                f"frames of {ru.name} decodable on foreign port {self._ru_list[min(hits)].channel}")

    def _check_downstream_isolation(self, assoc: Association, f_thz: float, power: float):
        plant = self.topology.plant
        if assoc.isolated == (plant, f_thz, power):
            return
        co, port = assoc.co, assoc.port
        port_filter = plant.port_filters.get((co.name, port))
        port_att = None if port_filter is None else port_filter.attenuation_db(f_thz)
        sensitivity = self.mgmt.rx_sensitivity_dbm
        for other in self._ru_list:
            if other.channel == port:
                continue
            try:
                loss = plant.path_to_co(other.name, co.name).loss_at(f_thz)
            except NoPath:
                continue
            if port_att is not None:
                loss += port_att
            if power + -loss >= sensitivity:
                raise SafetyViolation(
                    f"port {port} frames decodable at {other.name}")
        assoc.isolated = (plant, f_thz, power)

    # ---------------------------------------------------------------- events

    def _power_on(self, ru: RuEntity):
        ru.power_on_us = self.now_us
        ru.powered = True
        self.trace.add(self.now_us, ru.name, "POWER_ON", "")
        self._run_tuner(ru, PowerOn())
        self._schedule(self.now_us + self._drift_tick_us, Sim._drift_tick, ru)

    def _nms_command(self, co: CoEntity, port: int, channel: int):
        self.trace.add(self.now_us, co.name, "NMS", f"port={port} ch={channel}")
        if co.tx is not None:
            co.tx.pending_assign = (port, channel)
            self._run_tuner(co.tx, PowerOn(nms_channel=channel))
        else:
            self._assign_port(co, port, channel)

    def _monitor_tick(self, co: CoEntity):
        """Sample each of the CO's ticking ports, in assignment order.  A port
        leaves the chain once its slot is IDLE or no RU sits on its channel."""
        run, rus, now, sens = self.scenario.run, self.rus, self.now_us, self.mgmt.rx_sensitivity_dbm
        ru_by_channel, center_thz = self.topology.plant.ru_by_channel, self.plan.center_thz
        emission, port_gain, meas_normal = self._emission, self._port_gain, self._meas_normal
        ticking = []
        for assoc in co.ticking:
            slot, port = assoc.slot, assoc.port
            ru_name = ru_by_channel.get(port)
            if slot.state is CoPortState.IDLE or ru_name is None:
                continue
            ticking.append(assoc)
            state = emission(rus[ru_name])
            gain = port_gain(assoc, ru_name, state.frequency_thz)
            power = -math.inf if gain is None else state.power_dbm + gain
            noise = run.measurement_noise_ghz
            if slot.state is CoPortState.CONFIRMING:
                noise /= 4.0  # confirmation integrates 16x longer than a hold tick
            offset_est = None
            if power >= sens:
                true_off = (state.frequency_thz - center_thz(port)) * 1000.0
                sample = true_off + (noise * meas_normal(co) if noise > 0 else 0.0)
                offset_est = round(sample * 10.0) / 10.0
            # co_transition would return a WAIT_DETECT port's or a quiet reading unchanged
            if slot.state is CoPortState.CONFIRMING or run.hold_enabled and \
                    slot.state is CoPortState.MONITOR and \
                    not quiet_reading(co.machine, slot, power, offset_est, now):
                self._run_co(assoc, PortPower(power, offset_est, time_us=now))
        co.ticking = ticking
        nxt = now + self._monitor_tick_us
        if ticking and nxt <= self.horizon_us:
            self._schedule(nxt, Sim._monitor_tick, co)

    def _port_gain(self, assoc: Association, ru_name: str, f_thz: float) -> float | None:
        """Gain from the RU ``ru_name`` into the association's port; None when
        the RU transmits toward no CO or the other one (directional add).
        Kept on the association until the plant or the frequency changes."""
        plant = self.topology.plant
        memo = assoc.gain
        if memo is not None and memo[0] is plant and memo[1] == f_thz:
            return memo[2]
        try:
            path = plant.active_path(ru_name)
            gain = plant.gain_db(path, f_thz, assoc.port) if path.co == assoc.co.name else None
        except NoPath:
            gain = None
        assoc.gain = (plant, f_thz, gain)
        return gain

    @staticmethod
    def _meas_normal(co: CoEntity) -> float:
        """The next standard normal of the CO's measurement stream.  Drawn in
        batches: ``noise * z`` equals ``rng_meas.normal(0.0, noise)`` bit for
        bit, and rng_meas feeds nothing else."""
        z = next(co.meas_z, None)
        if z is None:
            co.meas_z = iter(co.rng_meas.standard_normal(MEAS_BATCH).tolist())
            z = next(co.meas_z)
        return z

    def _drift_tick(self, ru: RuEntity):
        dt = self.scenario.run.drift_tick_ms / 1000.0
        offset = lasers.step_drift(ru.laser, dt, self.drift, ru.rng_drift)
        ru.emission = None
        if self.scenario.run.trace_drift:
            self.trace.add(self.now_us, ru.name, "DRIFT", f"off={offset:.3f}GHz")
        self._run_tuner(ru, DriftTick(time_us=self.now_us))
        if ru.machine.state in SETTLED:
            off = abs(self._emission(ru).frequency_thz -
                      self.plan.center_thz(ru.channel)) * 1000.0
            if off > self.metrics.max_locked_offset_ghz:
                self.metrics.max_locked_offset_ghz = off
            if self.scenario.run.safety_checks and off > 7.5:
                raise SafetyViolation(
                    f"{ru.name} drifted {off:.2f} GHz from its port while locked")
        nxt = self.now_us + self._drift_tick_us
        if nxt <= self.horizon_us:
            self._schedule(nxt, Sim._drift_tick, ru)

    def _plant_change(self, kind: str, span: str):
        """Apply a ``cut`` or ``restore`` fault and re-route every RU."""
        change = link.apply_cut if kind == "cut" else link.restore
        before = {name: self._active_co(name) for name in self.rus}
        self.topology = change(self.topology, span)
        self.trace.add(self.now_us, "plant", kind.upper(), f"span={span}")
        for name, ru in self.rus.items():
            after = self._active_co(name)
            if after != before[name]:
                self.trace.add(self.now_us, name, "SWITCH",
                               f"{before[name] or 'none'}->{after or 'none'}")
                if ru.machine.state in (RuState.LOCKED, RuState.HOLD,
                                        RuState.FINE_TUNE):
                    ru.pending_relock_since_us = self.now_us
                self._run_tuner(ru, LinkDown())

    def _active_co(self, ru_name: str) -> str | None:
        try:
            return self.topology.active_path(ru_name).co
        except NoPath:
            return None

    def _ber_change(self, ber: float):
        self.ber = ber
        self.trace.add(self.now_us, "plant", "BER", f"p={ber:g}")

    # ---------------------------------------------------------------- run

    def _all_locked(self) -> bool:
        return self._settled == self._tuner_count

    def run(self) -> tuple[Trace, Metrics]:
        stop_on_lock = self.scenario.run.stop == "all_locked"
        heap = self._heap
        # peek before popping: an event past the horizon stays queued, and a
        # frame in it is counted in flight
        while heap and heap[0][0] <= self.horizon_us:
            self.now_us, _, handler, args = heapq.heappop(heap)
            handler(self, *args)
            if stop_on_lock and self._all_locked():
                break
        if stop_on_lock and not self._all_locked():
            raise DeadlockError("run horizon reached before all RUs locked" if heap
                                else "event queue drained before all RUs locked")
        self.metrics.stop_time_s = self.now_us / 1e6
        self.metrics.frames_in_flight = sum(1 for ev in heap if ev[2] is Sim._deliver)
        conservation = self.metrics.frames_delivered + self.metrics.frames_lost_total \
            + self.metrics.frames_in_flight
        if conservation != self.metrics.frames_sent:
            raise EngineError(
                f"frame conservation broken: sent={self.metrics.frames_sent} "
                f"accounted={conservation}")
        return self.trace, self.metrics


def run(scenario: Scenario) -> tuple[Trace, Metrics]:
    """Validate and execute a scenario."""
    return Sim(scenario).run()


class PairwiseTimeout(EngineError):
    pass


def pairwise_self_tune(nms_channel: int, dependent_calibrated: bool = False,
                       primary_laser: str = "vernier", dependent_laser: str = "mems",
                       ber: float = 0.0, seed: int = 1,
                       horizon_ms: float = 30_000.0) -> tuple[Trace, Metrics]:
    """Run a primary/dependent link: the primary tunes itself from the NMS
    input, conveys the channel over the management channel, the dependent
    tunes to the paired wavelength.  The returned trace is the transcript;
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
        return run(scenario)
    except DeadlockError as err:
        raise PairwiseTimeout(str(err))
