import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmetro.codec import MgmtChannelConfig, MsgType
from gmetro.lasers import MemsVcselModel, calibrate
from gmetro.link import FrequencyPlan
from gmetro import protocol as proto
from gmetro.protocol import (
    ArmTimer,
    CoMachine,
    CoPortState,
    DriftTick,
    InvalidEvent,
    LinkDown,
    MsgReceived,
    NmsAssign,
    NoReport,
    PortPower,
    PortSlot,
    PowerOn,
    RaiseAlarm,
    Role,
    RuMachine,
    RuState,
    Send,
    SetKnobs,
    SetPower,
    SweepPlan,
    TimerExpired,
    co_transition,
    decode_tenths,
    encode_tenths,
    estimate_link_loss,
    hold_step,
    plan_sweep,
    ru_transition,
    simulate_hold_loop,
    sweep_power,
)

PLAN = FrequencyPlan()
SWEEP_PLAN = plan_sweep(PLAN, filter_b3_ghz=50.0, latency_worst_ms=3.0)
TABLE = calibrate(MemsVcselModel(), PLAN)
CFG = MgmtChannelConfig()


def make_ru(state, *, calibrated=False, assigned=5, role=Role.DEPENDENT):
    return RuMachine(state=state, role=role,
                     calibration=TABLE if calibrated else None,
                     sweep_plan=SWEEP_PLAN,
                     assigned_channel=None if state is RuState.INIT else assigned)


def msg(frame, rx=-20.0, port=None, t=0):
    return MsgReceived(frame, rx_power_dbm=rx, time_us=t, port=port)


# --------------------------------------------------------------------------
# control laws

@pytest.mark.parametrize("tx,reported,expected", [(0.0, -20.0, 20.0), (3.0, -40.0, 43.0)])
def test_estimate_link_loss(tx, reported, expected):
    assert estimate_link_loss(tx, reported) == pytest.approx(expected)


def test_estimate_link_loss_requires_report():
    with pytest.raises(NoReport):
        estimate_link_loss(0.0, None)


def test_sweep_power_formula():
    assert sweep_power(20.0, CFG, margin_db=3.0) == pytest.approx(-17.0)
    assert sweep_power(0.0, CFG, margin_db=3.0) == pytest.approx(-37.0)
    assert sweep_power(45.0, CFG, margin_db=3.0, max_power_dbm=3.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        sweep_power(-1.0, CFG)


def test_plan_sweep_default_band():
    plan = SWEEP_PLAN
    assert plan.step_ghz == 12.5
    assert plan.dwell_ms == 50.0
    assert plan.n_points == 129
    assert plan.worst_case_s == pytest.approx(6.45)
    assert plan.frequency_thz(0) == pytest.approx(192.05)
    assert plan.frequency_thz(128) == pytest.approx(193.65)


def test_plan_sweep_step_never_skips_a_passband():
    plan = plan_sweep(PLAN, filter_b3_ghz=20.0, latency_worst_ms=3.0)
    assert plan.step_ghz == 10.0


def test_plan_sweep_dwell_follows_latency():
    plan = plan_sweep(PLAN, filter_b3_ghz=50.0, latency_worst_ms=40.0)
    assert plan.dwell_ms == 80.0


def test_hold_step_deadband_and_saturation():
    assert hold_step(0.5, deadband_ghz=1.0) == 0.0
    assert hold_step(4.0, step_gain=0.5) == -2.0
    assert hold_step(-10.0) == 2.0
    assert hold_step(3.0) == -1.5


def test_tenths_payload_roundtrip():
    for value in (-40.0, -17.3, 0.0, 2.5):
        assert decode_tenths(encode_tenths(value)) == pytest.approx(value)


# --------------------------------------------------------------------------
# RU transitions: the contract cases

def test_ru_power_on_without_nms_listens():
    m, actions = ru_transition(make_ru(RuState.INIT), PowerOn())
    assert m.state is RuState.AWAIT_ASSIGN
    assert actions == ()


def test_ru_calibrated_tune_req_starts_direct_tuning():
    m0 = make_ru(RuState.AWAIT_ASSIGN, calibrated=True)
    m, actions = ru_transition(m0, msg(proto.tune_req(5)))
    assert m.state is RuState.DIRECT_TUNING
    assert m.assigned_channel == 5
    assert actions[0] == SetKnobs(knobs=TABLE.knobs_for(5))
    assert isinstance(actions[1], SetPower)
    assert actions[2] == ArmTimer("settle", m0.settle_us)


def test_ru_uncalibrated_tune_req_enters_sweep_at_reduced_power():
    # nothing it transmits reaches the CO yet, so the reduced power comes
    # from the local downstream measurement: -40 + 20 + 3 = -17 dBm
    fresh = dataclasses.replace(make_ru(RuState.AWAIT_ASSIGN), assigned_channel=None)
    m, actions = ru_transition(fresh, msg(proto.tune_req(5), rx=-20.0))
    assert m.state is RuState.SWEEP
    assert m.assigned_channel == 5
    assert m.sweep_power_dbm == pytest.approx(-17.0)
    assert actions[0] == SetPower(-17.0)
    assert actions[1] == SetKnobs(frequency_thz=SWEEP_PLAN.frequency_thz(0))


def test_ru_reassignment_of_locked_ru_reports_loss_first():
    # on its old channel the upstream works, so the CO sizes the new sweep
    m0 = make_ru(RuState.LOCKED)
    m, actions = ru_transition(m0, msg(proto.tune_req(9), rx=-21.5))
    assert m.state is RuState.AWAIT_ASSIGN
    assert m.assigned_channel == 9
    assert actions[0].frame.msg_type is MsgType.LOSS_REPORT
    assert decode_tenths(actions[0].frame.payload) == pytest.approx(-21.5)


def test_ru_power_adj_starts_sweep_at_reduced_power():
    m0 = make_ru(RuState.AWAIT_ASSIGN)
    m, actions = ru_transition(m0, msg(proto.power_adj(-17.0)))
    assert m.state is RuState.SWEEP
    assert m.sweep_power_dbm == pytest.approx(-17.0)
    assert actions[0] == SetPower(-17.0)
    assert actions[1] == SetKnobs(frequency_thz=SWEEP_PLAN.frequency_thz(0))
    assert actions[2].frame.msg_type is MsgType.HELLO
    assert actions[3] == ArmTimer("dwell", SWEEP_PLAN.dwell_us)


def test_ru_sweep_dwell_advances_and_says_hello():
    m0 = make_ru(RuState.SWEEP)
    m, actions = ru_transition(m0, TimerExpired("dwell"))
    assert m.sweep_index == 1
    assert actions[0] == SetKnobs(frequency_thz=SWEEP_PLAN.frequency_thz(1))
    assert actions[1].frame.msg_type is MsgType.HELLO
    assert actions[2].tag == "dwell"


def test_ru_sweep_stops_on_detection():
    # "the CO sends a message to the RU and the RU stops sweeping"
    m0 = make_ru(RuState.SWEEP)
    m, actions = ru_transition(m0, msg(proto.sweep_detected(5)))
    assert m.state is RuState.FINE_TUNE
    assert actions == ()
    # pending dwell timers are now inert
    m2, actions2 = ru_transition(m, TimerExpired("dwell"))
    assert m2.state is RuState.FINE_TUNE and actions2 == ()


def test_ru_sweep_wrap_raises_alarm():
    m = dataclasses.replace(make_ru(RuState.SWEEP), sweep_index=SWEEP_PLAN.n_points - 1)
    m, actions = ru_transition(m, TimerExpired("dwell"))
    assert isinstance(actions[0], RaiseAlarm)
    assert m.state is RuState.SWEEP  # keeps trying


def test_ru_fine_tune_applies_corrections_then_locks():
    m = make_ru(RuState.FINE_TUNE)
    m, actions = ru_transition(m, msg(proto.hold_correct(2.0)))
    assert m.state is RuState.FINE_TUNE
    assert actions == (SetKnobs(step_ghz=2.0),)
    m, _ = ru_transition(m, msg(proto.hold_correct(-0.8)))
    assert m.state is RuState.FINE_TUNE
    m, actions = ru_transition(m, msg(proto.hold_correct(0.1)))
    assert m.state is RuState.LOCKED  # small step + enough rounds
    kinds = [type(a) for a in actions]
    assert kinds == [SetKnobs, SetPower, Send]
    assert actions[-1].frame.msg_type is MsgType.LOCK_CONFIRM


def test_ru_settle_timer_locks_and_confirms():
    m0 = make_ru(RuState.DIRECT_TUNING, calibrated=True)
    m, actions = ru_transition(m0, TimerExpired("settle"))
    assert m.state is RuState.LOCKED
    assert actions[0].frame.msg_type is MsgType.LOCK_CONFIRM


def test_ru_primary_settle_does_not_confirm_upstream():
    m0 = make_ru(RuState.DIRECT_TUNING, calibrated=True, role=Role.PRIMARY)
    m, actions = ru_transition(m0, TimerExpired("settle"))
    assert m.state is RuState.LOCKED
    assert actions == ()


def test_ru_drift_tick_beyond_threshold_enters_hold():
    # (LOCKED, DRIFT_TICK with |offset_est| > deadband) -> HOLD + fine step
    m0 = dataclasses.replace(make_ru(RuState.LOCKED), current_offset_est=4.0)
    m, actions = ru_transition(m0, DriftTick())
    assert m.state is RuState.HOLD
    assert actions == (SetKnobs(step_ghz=-2.0),)


def test_ru_drift_tick_inside_deadband_returns_to_locked():
    m0 = dataclasses.replace(make_ru(RuState.HOLD), current_offset_est=0.3)
    m, actions = ru_transition(m0, DriftTick())
    assert m.state is RuState.LOCKED
    assert actions == ()


def test_ru_hold_correct_while_locked():
    m0 = make_ru(RuState.LOCKED)
    m, actions = ru_transition(m0, msg(proto.hold_correct(-1.2)))
    assert m.state is RuState.HOLD
    assert actions == (SetKnobs(step_ghz=-1.2),)
    assert m.current_offset_est == pytest.approx(1.2)


def test_ru_link_down_reannounces():
    m0 = make_ru(RuState.LOCKED)
    m, actions = ru_transition(m0, LinkDown())
    assert m.state is RuState.FINE_TUNE
    assert actions[0].frame.msg_type is MsgType.HELLO
    assert isinstance(actions[1], ArmTimer)


def test_ru_locked_reconfirms_on_duplicate_assign():
    m0 = make_ru(RuState.LOCKED)
    m, actions = ru_transition(m0, msg(proto.tune_req(5)))
    assert m.state is RuState.LOCKED
    assert actions[0].frame.msg_type is MsgType.LOCK_CONFIRM


def test_ru_invalid_events():
    with pytest.raises(InvalidEvent):
        ru_transition(make_ru(RuState.INIT), DriftTick())
    with pytest.raises(InvalidEvent):
        ru_transition(make_ru(RuState.LOCKED), PowerOn())
    with pytest.raises(InvalidEvent):  # POWER_ADJ before any assignment
        ru_transition(dataclasses.replace(make_ru(RuState.AWAIT_ASSIGN), assigned_channel=None),
                      msg(proto.power_adj(-10.0)))
    with pytest.raises(InvalidEvent):  # primary must be calibrated
        ru_transition(make_ru(RuState.INIT), PowerOn(nms_channel=3))


# --------------------------------------------------------------------------
# CO transitions

def co_with_port(state=CoPortState.WAIT_DETECT, port=5, channel=5, **kw):
    m = CoMachine(**kw)
    m, _ = co_transition(m, NmsAssign(port, channel))
    if state is CoPortState.CONFIRMING:
        m, _ = co_transition(m, msg(proto.hello(), rx=-30.0, port=port))
    elif state is CoPortState.MONITOR:
        m, _ = co_transition(m, msg(proto.lock_confirm(channel), rx=-30.0, port=port))
    assert m.slot(port).state is state
    return m


def test_co_nms_assign_sends_tune_req():
    m, actions = co_transition(CoMachine(), NmsAssign(5, 5))
    assert m.slot(5).state is CoPortState.WAIT_DETECT
    assert actions[0].frame.msg_type is MsgType.TUNE_REQ
    assert actions[0].port == 5
    assert isinstance(actions[1], ArmTimer)


def test_co_pairwise_assign_sends_chan_assign():
    m, actions = co_transition(CoMachine(pairwise=True), NmsAssign(0, 7))
    assert actions[0].frame.msg_type is MsgType.CHAN_ASSIGN


def test_co_hello_above_sensitivity_triggers_detect():
    # (WAIT_DETECT, MSG(HELLO) at -39 dBm >= -40) -> SEND(SWEEP_DETECTED)
    m = co_with_port()
    m2, actions = co_transition(m, msg(proto.hello(), rx=-39.0, port=5))
    assert m2.slot(5).state is CoPortState.CONFIRMING
    assert actions[0].frame.msg_type is MsgType.SWEEP_DETECTED
    assert proto.decode_channel(actions[0].frame.payload) == 5


def test_co_hello_below_sensitivity_ignored():
    m = co_with_port()
    m2, actions = co_transition(m, msg(proto.hello(), rx=-45.0, port=5))
    assert m2.slot(5).state is CoPortState.WAIT_DETECT
    assert actions == ()


def test_co_port_power_without_decode_is_not_detection():
    m = co_with_port()
    m2, actions = co_transition(m, PortPower(5, -45.0, None, 0))
    assert m2.slot(5).state is CoPortState.WAIT_DETECT
    assert actions == ()


def test_co_loss_report_answers_with_power_adj():
    m = co_with_port(tx_power_dbm=0.0)
    m2, actions = co_transition(m, msg(proto.loss_report(-20.0), rx=-20.0, port=5))
    assert actions[0].frame.msg_type is MsgType.POWER_ADJ
    assert decode_tenths(actions[0].frame.payload) == pytest.approx(-17.0)
    assert m2.slot(5).reported_rx_dbm == pytest.approx(-20.0)


def test_co_confirming_sends_corrections_every_tick():
    m = co_with_port(CoPortState.CONFIRMING)
    _, actions = co_transition(m, PortPower(5, -35.0, offset_est_ghz=-12.5, time_us=100))
    assert actions[0].frame.msg_type is MsgType.HOLD_CORRECT
    assert decode_tenths(actions[0].frame.payload) == pytest.approx(2.0)  # saturated


def test_co_lock_confirm_moves_to_monitor():
    m = co_with_port(CoPortState.CONFIRMING)
    m2, _ = co_transition(m, msg(proto.lock_confirm(5), rx=-30.0, port=5))
    assert m2.slot(5).state is CoPortState.MONITOR


def test_co_monitor_corrects_beyond_deadband_once_per_period():
    m = co_with_port(CoPortState.MONITOR)
    m2, actions = co_transition(m, PortPower(5, -30.0, offset_est_ghz=3.0, time_us=10**6))
    assert actions[0].frame.msg_type is MsgType.HOLD_CORRECT
    assert decode_tenths(actions[0].frame.payload) == pytest.approx(-1.5)
    # a second estimate within the same period is not acted upon
    _, actions2 = co_transition(m2, PortPower(5, -30.0, offset_est_ghz=3.0, time_us=10**6 + 100_000))
    assert actions2 == ()


def test_co_monitor_inside_deadband_stays_quiet():
    m = co_with_port(CoPortState.MONITOR)
    _, actions = co_transition(m, PortPower(5, -30.0, offset_est_ghz=0.4, time_us=10**6))
    assert actions == ()


def test_co_monitor_los_debounce_returns_to_wait_detect():
    m = co_with_port(CoPortState.MONITOR)
    for i in range(2):
        m, actions = co_transition(m, PortPower(5, -60.0, None, time_us=i))
        assert actions == ()
    m, actions = co_transition(m, PortPower(5, -60.0, None, time_us=3))
    assert m.slot(5).state is CoPortState.WAIT_DETECT
    assert isinstance(actions[0], RaiseAlarm)


CO_DEFAULTS = CoMachine()
SENSITIVITY = CO_DEFAULTS.rx_sensitivity_dbm
PERIOD = CO_DEFAULTS.monitor_period_us


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(state=st.sampled_from(CoPortState) | st.just(CoPortState.MONITOR),
       below=st.integers(0, 3),
       since=st.none() | st.integers(0, 2 * PERIOD)
       | st.sampled_from([PERIOD - 1, PERIOD, PERIOD + 1]),
       est=st.none() | st.integers(-40, 40).map(lambda k: k / 10.0)
       | st.sampled_from([-1.1, -1.0, 1.0, 1.1]),
       power=st.sampled_from([-math.inf, SENSITIVITY - 0.1, SENSITIVITY, SENSITIVITY + 0.1])
       | st.floats(SENSITIVITY - 5.0, SENSITIVITY + 5.0))
def test_quiet_reading_leaves_the_machine_unchanged(state, below, since, est, power):
    now = 5 * PERIOD
    slot = PortSlot(state=state, channel=5, below_sens_ticks=below,
                    last_correct_us=None if since is None else now - since)
    m = CoMachine(ports={5: slot})
    m2, actions = co_transition(m, PortPower(5, power, est, time_us=now))
    if proto.quiet_reading(m, slot, power, est, now):
        assert m2 is m and actions == ()
    if state is CoPortState.MONITOR and power >= SENSITIVITY:
        # a reading at or above sensitivity ends a loss-of-signal count, and
        # one outside the deadband corrects once a monitor period has passed
        assert m2.slot(5).below_sens_ticks == 0
        if est is not None and abs(est) > m.deadband_ghz and (since is None or since >= PERIOD):
            step = round(max(-2.0, min(2.0, -0.5 * est)) * 10.0) / 10.0
            assert actions == (Send(proto.hold_correct(step), port=5),)
            assert m2.slot(5).last_correct_us == now


def test_co_assign_fast_retries_then_slow_reoffer():
    cfg = CoMachine()
    m = co_with_port()
    for i in range(cfg.assign_resend_limit):
        m, actions = co_transition(m, TimerExpired("assign:5"))
        assert actions[0].frame.msg_type is MsgType.TUNE_REQ
        assert actions[1].delay_us == cfg.assign_resend_period_us
    m, actions = co_transition(m, TimerExpired("assign:5"))
    assert actions[0].frame.msg_type is MsgType.TUNE_REQ
    assert actions[1].delay_us == cfg.reoffer_period_us
    # a detected port stops re-offering
    m2 = co_with_port(CoPortState.MONITOR, port=6, channel=6)
    _, actions = co_transition(m2, TimerExpired("assign:6"))
    assert actions == ()


def test_co_unassigned_ports_share_an_idle_slot_that_stays_idle():
    idle = CoMachine().slot(3)
    assert idle == PortSlot()
    assert CoMachine().slot(7) is idle
    for port, pairwise in ((3, False), (4, True)):
        m = CoMachine(pairwise=pairwise)
        for event in (NmsAssign(port, port), msg(proto.hello(), rx=-30.0, port=port),
                      PortPower(port, -30.0, 3.0, 10**6), TimerExpired(f"assign:{port}"),
                      msg(proto.lock_confirm(port), rx=-30.0, port=port),
                      PortPower(port, -60.0, None, 2 * 10**6)):
            m, _ = co_transition(m, event)
        assert m.slot(port).state is CoPortState.MONITOR
        assert m.slot(port + 1) is idle
    assert idle == PortSlot()


# --------------------------------------------------------------------------
# totality and purity

RU_EVENT_MENU = [
    msg(proto.tune_req(5)),
    msg(proto.chan_assign(5)),
    msg(proto.power_adj(-17.0)),
    msg(proto.sweep_detected(5)),
    msg(proto.hold_correct(1.0)),
    msg(proto.hello()),
    msg(proto.lock_confirm(5)),
    msg(proto.loss_report(-20.0)),
    TimerExpired("settle"),
    TimerExpired("dwell"),
    TimerExpired("hello"),
    TimerExpired("unknown"),
    DriftTick(),
    LinkDown(),
]


@pytest.mark.parametrize("state", [s for s in RuState if s is not RuState.INIT])
@pytest.mark.parametrize("calibrated", [False, True])
def test_ru_transition_total_over_legal_events(state, calibrated):
    for event in RU_EVENT_MENU:
        m = make_ru(state, calibrated=calibrated)
        m2, actions = ru_transition(m, event)
        assert isinstance(m2, RuMachine)
        assert isinstance(actions, tuple)


@pytest.mark.parametrize("state", list(CoPortState))
def test_co_transition_total_over_legal_events(state):
    menu = [
        msg(proto.hello(), rx=-30.0, port=5),
        msg(proto.loss_report(-20.0), rx=-30.0, port=5),
        msg(proto.lock_confirm(5), rx=-30.0, port=5),
        msg(proto.hold_correct(0.5), rx=-30.0, port=5),
        PortPower(5, -30.0, 2.0, 10**6),
        PortPower(5, -60.0, None, 10**6),
        TimerExpired("assign:5"),
        TimerExpired("unknown"),
        NmsAssign(5, 5),
    ]
    for event in menu:
        m = CoMachine() if state is CoPortState.IDLE else co_with_port(state)
        m2, actions = co_transition(m, event)
        assert isinstance(m2, CoMachine)
        assert isinstance(actions, tuple)


def test_transitions_are_pure_and_reproducible():
    cases = [
        (make_ru(RuState.SWEEP), TimerExpired("dwell")),
        (make_ru(RuState.AWAIT_ASSIGN), msg(proto.tune_req(5))),
        (dataclasses.replace(make_ru(RuState.LOCKED), current_offset_est=4.0), DriftTick()),
    ]
    for m, ev in cases:
        a = ru_transition(m, ev)
        b = ru_transition(m, ev)
        assert a == b
        assert repr(a) == repr(b)
    co = co_with_port(CoPortState.MONITOR)
    ev = PortPower(5, -30.0, 3.0, 10**6)
    assert co_transition(co, ev) == co_transition(co, ev)
    assert repr(co_transition(co, ev)) == repr(co_transition(co, ev))


# --------------------------------------------------------------------------
# closed-loop hold simulation (short horizon; 24 h runs in acceptance)

def test_hold_loop_keeps_offset_bounded_short_run():
    max_abs = simulate_hold_loop(duration_s=3600.0, seeds=range(8))
    assert np.all(max_abs <= 7.5)


def test_hold_loop_ablation_drifts_further():
    held = simulate_hold_loop(duration_s=7200.0, seeds=range(8))
    free = simulate_hold_loop(duration_s=7200.0, seeds=range(8), enabled=False)
    assert free.mean() > held.mean()


def test_hold_loop_deterministic():
    a = simulate_hold_loop(duration_s=600.0, seeds=[1, 2])
    b = simulate_hold_loop(duration_s=600.0, seeds=[1, 2])
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# machine copies

EVOLVE_CASES = [
    (make_ru(RuState.SWEEP), dict(
        state=RuState.HOLD, role=Role.PRIMARY, calibration=TABLE, sweep_plan=None,
        assigned_channel=9, current_offset_est=0.3, sweep_index=4, last_rx_power_dbm=-21.0,
        sweep_power_dbm=-30.0, full_power_dbm=1.0, fine_rounds=2, hello_retries=3,
        settle_us=5, deadband_ghz=0.5, hold_gain=0.25, hold_saturation_ghz=1.0,
        lock_step_threshold_ghz=0.1, min_fine_rounds=4, hello_period_us=7,
        hello_retry_limit=2, co_tx_power_dbm=1.0, sweep_margin_db=2.0,
        max_tx_power_dbm=2.0, rx_sensitivity_dbm=-35.0)),
    (co_with_port(CoPortState.MONITOR), dict(
        ports={}, pairwise=True, tx_power_dbm=1.0, rx_sensitivity_dbm=-35.0,
        sweep_margin_db=2.0, max_tx_power_dbm=2.0, deadband_ghz=0.5, hold_gain=0.25,
        hold_saturation_ghz=1.0, monitor_period_us=7, assign_resend_period_us=8,
        assign_resend_limit=2, reoffer_period_us=9, los_debounce_ticks=4)),
    (PortSlot(CoPortState.MONITOR, channel=5, last_correct_us=10), dict(
        state=CoPortState.CONFIRMING, channel=6, reported_rx_dbm=-20.0,
        last_correct_us=None, assign_resends=2, below_sens_ticks=1)),
]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return type(err)


@pytest.mark.parametrize("obj,changes", EVOLVE_CASES, ids=lambda case: type(case).__name__)
def test_machine_copies_equal_dataclasses_replace(obj, changes):
    assert changes.keys() == {f.name for f in dataclasses.fields(obj)}
    before = dataclasses.replace(obj)
    for change in [{name: value} for name, value in changes.items()] + [changes]:
        got, want = proto._evolve(obj, **change), dataclasses.replace(obj, **change)
        assert type(got) is type(want)
        assert got == want and got != obj, change
        assert hash_or_error(got) == hash_or_error(want)
        assert obj == before
    with pytest.raises(TypeError):
        dataclasses.replace(obj, no_such_field=1)
    with pytest.raises(TypeError):
        proto._evolve(obj, no_such_field=1)
