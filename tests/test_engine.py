import collections
import heapq
import math
import pathlib
from dataclasses import replace

import pytest

from gmetro import codec, engine, lasers, link
from gmetro.engine import (
    CoSpec,
    DeadlockError,
    FaultSpec,
    Metrics,
    MgmtSpec,
    RunSpec,
    RuSpec,
    Scenario,
    Sim,
    TopoSpec,
    TraceRecord,
    ValidationError,
    inject_fault,
    trace_emit,
    validate,
)
from gmetro.link import FrequencyPlan
from gmetro.protocol import (
    CoPortState, LinkDown, PortPower, PortSlot, RuState, SetPower, TimerExpired, co_transition,
    quiet_reading,
)
from gmetro.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def single_ru_scenario(calibrated=True, ber=0.0, laser="mems", **run_kw):
    return Scenario(
        rus=(RuSpec("ru0", 0, laser=laser, calibrated=calibrated),),
        mgmt=MgmtSpec(ber=ber),
        run=RunSpec(seed=7, horizon_ms=30_000.0, **run_kw),
    )


def sweep16_scenario(seed=7):
    return Scenario(
        rus=tuple(RuSpec(f"ru{i:02d}", i, calibrated=False, start_ms=200.0 * i)
                  for i in range(16)),
        run=RunSpec(seed=seed, horizon_ms=30_000.0),
    )


def horseshoe_scenario(faults=(), horizon_ms=30_000.0, stop="all_locked", seed=7):
    return Scenario(
        topo=TopoSpec(kind="horseshoe", segment_km=14.0, drop_km=1.0),
        rus=tuple(RuSpec(f"ru{i}", i, calibrated=True) for i in range(4)),
        cos=(CoSpec("co_w"), CoSpec("co_e")),
        run=RunSpec(seed=seed, horizon_ms=horizon_ms, stop=stop),
        faults=tuple(faults),
    )


def pairwise_scenario(dependent_calibrated=True, ber=0.0, seed=7):
    return Scenario(
        rus=(RuSpec("ru0", 7, calibrated=dependent_calibrated),),
        cos=(CoSpec("head", role="primary", laser="vernier", nms_channel=7),),
        mgmt=MgmtSpec(ber=ber),
        run=RunSpec(seed=seed, horizon_ms=30_000.0),
    )


# --------------------------------------------------------------------------
# validation

def test_validate_accepts_defaults():
    validate(single_ru_scenario())


@pytest.mark.parametrize("breaker,fragment", [
    (lambda s: engine.Scenario(rus=()), "at least one RU"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0), RuSpec("a", 1))), "duplicate"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 99),)), "outside plan"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0, laser="dfb"),)), "laser"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0),),
                               mgmt=MgmtSpec(ber=2.0)), "ber"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0),),
                               run=RunSpec(stop="never")), "stop"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0),),
                               faults=(FaultSpec("cut", 5.0, span="bogus"),)),
     "unknown span"),
    (lambda s: engine.Scenario(rus=(RuSpec("a", 0),),
                               faults=(FaultSpec("cut", 10**9, span="trunk"),)),
     "horizon"),
])
def test_validate_rejects(breaker, fragment):
    with pytest.raises(ValidationError) as err:
        validate(breaker(None))
    assert fragment in str(err.value)


def test_inject_fault_appends_and_validates():
    sc = single_ru_scenario()
    out = inject_fault(sc, 5_000_000, "cut", span="trunk")
    assert out.faults[-1] == FaultSpec("cut", 5000.0, span="trunk")
    with pytest.raises(ValidationError):
        inject_fault(sc, 10**12, "cut", span="trunk")


# --------------------------------------------------------------------------
# method 1: direct tuning

def test_method1_time_to_lock_is_sum_of_latencies():
    sc = single_ru_scenario(calibrated=True)
    trace, metrics = engine.run(sc)
    # one TUNE_REQ exchange: airtime + propagation (22 km at 5 us/km) + settle
    airtime = int(round(codec.packed_frame_bits(1) / 50_000.0 * 1e6))
    prop = int(round((20.0 + 2.0) * 5.0))
    expected_us = airtime + prop + 1000  # MEMS settle 1 ms
    assert metrics.time_to_lock_s["ru0"] == pytest.approx(expected_us / 1e6, abs=1e-6)


def test_method1_trace_has_lock_line():
    trace, metrics = engine.run(single_ru_scenario())
    locks = [r for r in trace.records if r.kind == "LOCK"]
    assert len(locks) == 1
    assert locks[0].entity == "ru0"
    assert locks[0].details.startswith("ch=0 f=192.1")


def test_calibration_is_shared_by_sims_of_one_family_and_plan():
    sc = single_ru_scenario(calibrated=True)
    table = Sim(sc).rus["ru0"].machine.calibration
    assert Sim(sc).rus["ru0"].machine.calibration is table
    assert table == lasers.calibrate(lasers.MemsVcselModel(), sc.plan)
    other = replace(sc, plan=FrequencyPlan(channel_count=8))
    assert Sim(other).rus["ru0"].machine.calibration is not table


# --------------------------------------------------------------------------
# method 2: sweep

def test_method2_single_uncalibrated_ru_locks():
    sc = single_ru_scenario(calibrated=False)
    trace, metrics = engine.run(sc)
    assert "ru0" in metrics.time_to_lock_s
    sim = Sim(sc)
    trace2, _ = sim.run()
    ru = sim.rus["ru0"]
    off = abs(ru.laser.emission().frequency_thz - FrequencyPlan().center_thz(0)) * 1000.0
    assert off <= 1.0


def test_method2_respects_plan_sweep_bound():
    sc = single_ru_scenario(calibrated=False)
    _, metrics = engine.run(sc)
    # detection comes early in the band for channel 0; bound is generous
    assert metrics.time_to_lock_s["ru0"] <= 6.45 + 2.55


def test_method_equivalence_same_port_same_frequency():
    f_by_method = []
    for calibrated in (True, False):
        sim = Sim(single_ru_scenario(calibrated=calibrated))
        sim.run()
        f_by_method.append(sim.rus["ru0"].laser.emission().frequency_thz)
    assert abs(f_by_method[0] - f_by_method[1]) * 1000.0 <= 1.0


def test_sweep16_all_lock_with_margin():
    sc = sweep16_scenario()
    trace, metrics = engine.run(sc)
    assert len(metrics.time_to_lock_s) == 16
    plan = FrequencyPlan()
    assert metrics.min_crosstalk_margin_db >= 25.0
    assert max(metrics.time_to_lock_s.values()) <= 6.45 + 2.55


# --------------------------------------------------------------------------
# determinism, causality, conservation

def test_identical_seed_identical_trace():
    a, _ = engine.run(sweep16_scenario(seed=3))
    b, _ = engine.run(sweep16_scenario(seed=3))
    assert a.render() == b.render()


def test_different_seed_different_trace():
    a, _ = engine.run(single_ru_scenario(calibrated=False))
    sc = single_ru_scenario(calibrated=False)
    b, _ = engine.run(Scenario(rus=sc.rus, mgmt=sc.mgmt,
                               run=engine.RunSpec(seed=8, horizon_ms=30_000.0)))
    assert a.render() != b.render()


def test_causality_deliveries_follow_sends():
    # single RU: every frame type has a unique sender, so (type, seq) pairs
    # sends with deliveries unambiguously
    trace, _ = engine.run(single_ru_scenario(calibrated=False))
    min_airtime = int(round(codec.packed_frame_bits(0) / 50_000.0 * 1e6))
    sends = {}
    for r in trace.records:
        key = r.details.split(" f=")[0].split(" rx=")[0]
        if r.kind in ("SEND", "RETRY"):
            sends.setdefault(key, []).append(r.time_us)
        elif r.kind == "DELIVER":
            candidates = [t for t in sends.get(key, []) if t <= r.time_us]
            assert candidates, f"delivery without a send: {r}"
            assert r.time_us - max(candidates) >= min_airtime


def test_frame_conservation():
    _, metrics = engine.run(sweep16_scenario())
    assert metrics.frames_sent == metrics.frames_delivered + \
        metrics.frames_lost_total + metrics.frames_in_flight


def test_frame_arriving_past_the_horizon_counts_in_flight():
    # the first event past this run's horizon is a frame arrival; it must be
    # left queued and counted in flight, not dropped (conservation abort)
    sc = Scenario(rus=(RuSpec("ru0", 0, laser="dbr", calibrated=True),),
                  run=RunSpec(seed=5, horizon_ms=3_600_000.0, stop="time",
                              drift_sigma_rw_ghz=1.5))
    _, metrics = engine.run(sc)
    assert metrics.frames_in_flight == 1
    assert metrics.frames_sent == metrics.frames_delivered + \
        metrics.frames_lost_total + metrics.frames_in_flight


def test_ms_inputs_round_to_the_nearest_microsecond():
    sc = Scenario(rus=(RuSpec("ru0", 0, calibrated=True, start_ms=1.001),),
                  run=RunSpec(seed=7, horizon_ms=10.0, stop="time"))
    trace, _ = engine.run(inject_fault(sc, 1001, "ber", ber=0.0))
    times = {r.kind: r.time_us for r in trace.records if r.kind in ("POWER_ON", "BER")}
    assert times == {"POWER_ON": 1001, "BER": 1001}


def test_trace_emit_format():
    line = trace_emit(TraceRecord(12400000, "RU3", "LOCK",
                                  "ch=5 f=192.500000THz off=0.3GHz"))
    assert line == "12400000\tRU3\tLOCK\tch=5 f=192.500000THz off=0.3GHz"


def test_trace_sorted_by_time():
    trace, _ = engine.run(sweep16_scenario())
    times = [r.time_us for r in trace.records]
    assert times == sorted(times)


# --------------------------------------------------------------------------
# BER and the codec oracle

def test_ber_frame_losses_match_codec_order_of_magnitude():
    # high BER so the run actually sees corruption
    sc = single_ru_scenario(calibrated=False, ber=2e-3)
    trace, metrics = engine.run(sc)
    assert "ru0" in metrics.time_to_lock_s  # still converges (retries)


def test_ber_set_mid_run_matches_codec_loss_oracle():
    # strong drift keeps HOLD_CORRECT traffic flowing; a harsh BER switched
    # on mid-run must corrupt frames at the codec-predicted rate
    p = 5e-3
    sc = Scenario(
        rus=(RuSpec("ru0", 0, calibrated=True),),
        run=RunSpec(seed=11, horizon_ms=400_000.0, stop="time",
                    drift_sigma_rw_ghz=0.5, drift_bound_ghz=100.0),
        faults=(FaultSpec("ber", 2_000.0, ber=p),),
    )
    trace, metrics = engine.run(sc)
    decode_reasons = ("SYNC_NOT_FOUND", "FEC_FAILURE", "CRC_MISMATCH")
    hc_lost = hc_ok = 0
    for r in trace.records:
        if "type=HOLD_CORRECT" not in r.details:
            continue
        if r.kind == "DELIVER":
            hc_ok += 1
        elif r.kind == "FRAME_LOST" and any(x in r.details for x in decode_reasons):
            hc_lost += 1
    attempts = hc_ok + hc_lost
    assert attempts > 100
    # oracle: exact 16-bit SYNC, then every 11-bit block must stay repairable
    q_block = 1.0 - codec.block_loss_probability(p)
    n_blocks = (codec.packed_frame_bits(2) - 16) // 15
    p_loss = 1.0 - (1.0 - p) ** 16 * q_block ** n_blocks
    sigma = math.sqrt(attempts * p_loss * (1.0 - p_loss))
    assert abs(hc_lost - attempts * p_loss) <= 4 * sigma + 2
    # nothing was corrupted before the fault switched the channel on
    before = [r for r in trace.records
              if r.kind == "FRAME_LOST" and r.time_us < 2_000_000
              and any(x in r.details for x in decode_reasons)]
    assert before == []


def test_drop_line_scenario_locks():
    sc = Scenario(
        topo=TopoSpec(kind="drop_line", segment_km=14.0, drop_km=2.0),
        rus=tuple(RuSpec(f"ru{i}", i, calibrated=(i % 2 == 0)) for i in range(3)),
        run=RunSpec(seed=7, horizon_ms=30_000.0),
    )
    _, metrics = engine.run(sc)
    assert len(metrics.time_to_lock_s) == 3


def test_pairwise_self_tune_helper():
    trace, metrics = engine.pairwise_self_tune(nms_channel=5, seed=3)
    assert "dependent" in metrics.time_to_lock_s
    with pytest.raises(engine.PairwiseTimeout):
        engine.pairwise_self_tune(nms_channel=5, seed=3, horizon_ms=10.0)


def test_deadlock_when_nothing_can_lock():
    # trunk cut from the start: queue drains, nobody locks
    sc = Scenario(
        rus=(RuSpec("ru0", 0, calibrated=True),),
        run=RunSpec(seed=7, horizon_ms=3_000.0),
        faults=(FaultSpec("cut", 0.0, span="trunk"),),
    )
    with pytest.raises(DeadlockError):
        engine.run(sc)


def test_stop_time_keeps_running_unlocked():
    sc = Scenario(
        rus=(RuSpec("ru0", 0, calibrated=True),),
        run=RunSpec(seed=7, horizon_ms=2_000.0, stop="time"),
        faults=(FaultSpec("cut", 0.0, span="trunk"),),
    )
    trace, metrics = engine.run(sc)
    assert metrics.time_to_lock_s == {}


# --------------------------------------------------------------------------
# horseshoe protection

def test_horseshoe_cut_relocks_all_rus_east():
    sc = horseshoe_scenario(
        faults=[FaultSpec("cut", 3_000.0, span="s1")],
        horizon_ms=20_000.0, stop="time")
    trace, metrics = engine.run(sc)
    switches = [r for r in trace.records if r.kind == "SWITCH"]
    assert {r.entity for r in switches} == {f"ru{i}" for i in range(4)}
    assert all(r.details == "co_w->co_e" for r in switches)
    assert set(metrics.protection_switch_s) == {f"ru{i}" for i in range(4)}
    assert all(0.0 < t < 5.0 for t in metrics.protection_switch_s.values())


def test_horseshoe_restore_returns_west():
    sc = horseshoe_scenario(
        faults=[FaultSpec("cut", 3_000.0, span="s1"),
                FaultSpec("restore", 10_000.0, span="s1")],
        horizon_ms=20_000.0, stop="time")
    trace, _ = engine.run(sc)
    switches = [r for r in trace.records if r.kind == "SWITCH"]
    east = [r for r in switches if r.details == "co_w->co_e"]
    west = [r for r in switches if r.details == "co_e->co_w"]
    assert len(east) == 4 and len(west) == 4
    # every RU ends locked again after the revertive switch
    final_locks = [r for r in trace.records if r.kind == "LOCK" and r.time_us > 10_000_000]
    assert {r.entity for r in final_locks} == {f"ru{i}" for i in range(4)}


# --------------------------------------------------------------------------
# pairwise self-tuning

def test_pairwise_converges_with_single_nms_input():
    sc = pairwise_scenario(dependent_calibrated=True)
    trace, metrics = engine.run(sc)
    assert trace.count("NMS") == 1
    assert "ru0" in metrics.time_to_lock_s


def test_pairwise_uncalibrated_dependent_sweeps():
    sc = pairwise_scenario(dependent_calibrated=False)
    trace, metrics = engine.run(sc)
    assert trace.count("NMS") == 1
    assert "ru0" in metrics.time_to_lock_s
    kinds = {r.kind for r in trace.records if r.entity == "ru0"}
    assert "SEND" in kinds


def test_pairwise_converges_at_mgmt_ber():
    sc = pairwise_scenario(dependent_calibrated=False, ber=5e-6)
    trace, metrics = engine.run(sc)
    assert "ru0" in metrics.time_to_lock_s
    retries = [r for r in trace.records if r.kind == "RETRY"]
    assert retries  # the CO half re-offers the channel while the RU sweeps


# --------------------------------------------------------------------------
# metrics output

def test_metrics_lines_and_json_share_keys():
    _, metrics = engine.run(single_ru_scenario())
    lines = dict(l.split("=", 1) for l in metrics.to_lines().strip().split("\n"))
    import json as _json
    blob = _json.loads(metrics.to_json())
    assert set(lines) == set(map(str, blob))


def settled_by_scan(sim):
    """The settled-tuner count as a scan of every machine."""
    rus = sum(ru.machine.state in (RuState.LOCKED, RuState.HOLD) for ru in sim.rus.values())
    primaries = sum(co.tx.machine.state is RuState.LOCKED
                    for co in sim.cos.values() if co.tx is not None)
    return rus + primaries


def events_by_hand(sim):
    """The event loop of Sim.run, run by hand so that a test can check the
    Sim between events; yields (handler, args) after running each event."""
    while sim._heap and sim._heap[0][0] <= sim.horizon_us:
        sim.now_us, _, handler, args = heapq.heappop(sim._heap)
        handler(sim, *args)
        yield handler, args
        if sim.scenario.run.stop == "all_locked" and sim._all_locked():
            break


HAND_RUN = ["tree16_sweep", "pairwise", "horseshoe_protection"]


def shipped_sim(name):
    return Sim(parse_scenario((SCENARIOS / f"{name}.gms").read_text()))


@pytest.mark.parametrize("name", HAND_RUN)
def test_settled_count_matches_a_scan_after_every_event(name):
    # horseshoe_protection's cut and restore take RUs out of LOCKED again
    sim = shipped_sim(name)
    counts = set()
    for _ in events_by_hand(sim):
        assert sim._settled == settled_by_scan(sim)
        counts.add(sim._settled)
    assert sim._all_locked()
    assert len(counts) > 1


def named_sim(name):
    if name == "horseshoe6_ber":
        from test_golden import horseshoe6_ber
        return Sim(horseshoe6_ber())
    return shipped_sim(name)


@pytest.mark.parametrize("name", HAND_RUN + ["horseshoe6_ber"])
def test_kept_victim_levels_equal_a_rebuild_after_every_event(name):
    # a kept set of levels is used only on the plant it was built on
    sim = named_sim(name)
    seen = []
    for _ in events_by_hand(sim):
        plant = sim.topology.plant
        if sim._victims is not None and sim._victims[0] is plant:
            assert sim._victims[1] == sim._victim_levels(plant)
        else:
            # keep levels in place from here, as a sweep check would
            sim._victims = (plant, sim._victim_levels(plant))
        if sim._victims[1] not in seen:
            seen.append(sim._victims[1])
    # the levels changed as RUs locked (and, on a horseshoe, switched COs)
    assert len(seen) > 1


# --------------------------------------------------------------------------
# monitor ticks and their caches

def tuners(sim):
    return list(sim.rus.values()) + [co.tx for co in sim.cos.values() if co.tx is not None]


def gain_by_path_gain(sim, co, port):
    """What a port's gain memo must hold on the current topology."""
    ru = sim.topology.ru_for_channel(port)
    try:
        if sim.topology.active_path(ru).co != co.name:
            return None
    except link.NoPath:
        return None
    f_thz = co.gains[port][1]
    return link.path_gain(sim.topology, ru, co.name, f_thz, rx_port_channel=port).gain_db


@pytest.mark.parametrize("name", HAND_RUN)
def test_emission_and_gain_caches_match_the_models_after_every_event(name):
    sim = shipped_sim(name)
    cached, plants = 0, []
    for handler, args in events_by_hand(sim):
        for tuner in tuners(sim):
            if tuner.emission is not None:
                assert tuner.emission == tuner.laser.emission()
                cached += 1
        if handler is Sim._monitor_tick:
            # the CO that ticked read each port's gain on the current plant
            # at the frequency its RU emits now
            co = args[0]
            for port in co.ticking:
                ru = sim.rus[sim.topology.ru_for_channel(port)]
                plant, f_thz, _ = co.gains[port]
                assert plant is sim.topology.plant
                assert f_thz == ru.laser.emission().frequency_thz
        for co in sim.cos.values():
            for port, (plant, _, gain) in co.gains.items():
                # a memo from an earlier plant is recomputed on its next use
                if plant is sim.topology.plant:
                    assert gain == gain_by_path_gain(sim, co, port)
                    if not any(plant is p for p in plants):
                        plants.append(plant)
    assert cached > 0
    # the horseshoe's memos are checked on its plant before the cut, while
    # it is cut and after the restore
    assert len(plants) == (3 if name == "horseshoe_protection" else 1)


def test_gain_memo_follows_a_cut_and_restore_at_one_frequency():
    # drift normally moves the frequency at a cut as well; here only the plant changes
    sim = Sim(horseshoe_scenario())
    plan = sim.plan
    seen = []
    for change in (None, link.apply_cut, link.restore):
        if change is not None:
            sim.topology = change(sim.topology, "s1")
        gains = []
        for co in sim.cos.values():
            for ru in sim.rus.values():
                gain = sim._port_gain(co, ru.channel, ru.name, plan.center_thz(ru.channel))
                assert gain == gain_by_path_gain(sim, co, ru.channel)
                gains.append(gain)
        seen.append(gains)
    before, cut, restored = seen
    assert before == restored and cut != before
    assert sum(g is None for g in cut) == sum(g is None for g in before) == 4


def test_batched_standard_normals_equal_scaled_normal_draws():
    # the monitor noise relies on this identity of the installed numpy
    scales = [0.5, 0.125, 1e-3]
    one_at_a_time = engine.entity_rng(5, "co0", "meas")
    batched = engine.entity_rng(5, "co0", "meas")
    want = [one_at_a_time.normal(0.0, scales[i % 3]) for i in range(3000)]
    z = batched.standard_normal(3000).tolist()
    assert [scales[i % 3] * z[i] for i in range(3000)] == want
    # and across the engine's batch boundaries
    co = Sim(single_ru_scenario()).cos["co0"]
    reference = engine.entity_rng(7, "co0", "meas")
    n = engine.MEAS_BATCH * 2 + 100
    assert [scales[i % 3] * Sim._meas_normal(co) for i in range(n)] == \
        [reference.normal(0.0, scales[i % 3]) for i in range(n)]


def monitor_entries(sim):
    return [entry for entry in sim._heap if entry[2] is Sim._monitor_tick]


def test_one_monitor_tick_entry_per_co():
    sim = shipped_sim("horseshoe_protection")
    ticks = 0
    for handler, _ in events_by_hand(sim):
        cos = [entry[3][0].name for entry in monitor_entries(sim)]
        assert len(cos) == len(set(cos))
        ticks += handler is Sim._monitor_tick
    # one tick per CO every 100 ms for 25 s
    assert ticks == 2 * 250
    assert [co.ticking for co in sim.cos.values()] == [[0, 1, 2, 3]] * 2


def test_wait_detect_ports_are_sampled_but_not_passed_to_the_machine(monkeypatch):
    # on a horseshoe each port of the CO an RU does not face stays in WAIT_DETECT
    sim = shipped_sim("horseshoe_protection")
    sampled, passed = set(), set()
    port_gain = sim._port_gain

    def sample(co, port, *args):
        sampled.add(co.machine.slot(port).state)
        return port_gain(co, port, *args)

    def transition(m, event):
        if isinstance(event, PortPower):
            passed.add(m.slot(event.port).state)
        return co_transition(m, event)

    sim._port_gain = sample
    monkeypatch.setattr(engine, "co_transition", transition)
    sim.run()
    assert CoPortState.WAIT_DETECT in sampled
    assert passed == {CoPortState.CONFIRMING, CoPortState.MONITOR}


@pytest.mark.parametrize("name", ["horseshoe_protection", "horseshoe6_ber"])
def test_quiet_readings_are_sampled_but_not_passed_to_the_machine(monkeypatch, name):
    sim = named_sim(name)
    sampled, passed, quiet = collections.Counter(), collections.Counter(), []
    port_gain = sim._port_gain

    def sample(co, port, *args):
        sampled[co.machine.slot(port).state] += 1
        return port_gain(co, port, *args)

    def transition(m, event):
        if isinstance(event, PortPower):
            slot = m.slot(event.port)
            passed[slot.state] += 1
            if quiet_reading(m, slot, event.power_dbm, event.offset_est_ghz, event.time_us):
                quiet.append(event)
        return co_transition(m, event)

    sim._port_gain = sample
    monkeypatch.setattr(engine, "co_transition", transition)
    sim.run()
    assert quiet == []
    # MONITOR readings that can act still reach the machine, and the rest,
    # most of them, stop before it
    assert 0 < passed[CoPortState.MONITOR] < sampled[CoPortState.MONITOR] / 2
    assert passed[CoPortState.CONFIRMING] == sampled[CoPortState.CONFIRMING] > 0


def test_idle_port_and_port_without_ru_stop_being_sampled():
    sim = Sim(Scenario(rus=(RuSpec("ru0", 0, calibrated=True), RuSpec("ru1", 1, calibrated=True)),
                       run=RunSpec(seed=7, horizon_ms=3_000.0, stop="time")))
    co = sim.cos["co0"]
    sampled = []
    port_gain = sim._port_gain
    sim._port_gain = lambda co, port, *args: sampled.append(port) or port_gain(co, port, *args)

    def tick():
        sampled.clear()
        for handler, _ in events_by_hand(sim):
            if handler is Sim._monitor_tick:
                return list(sampled)

    assert tick() == [0, 1]
    sim._assign_port(co, 5, 5)          # no RU sits on channel 5
    assert len(monitor_entries(sim)) == 1
    assert co.ticking == [0, 1, 5]
    assert tick() == [0, 1]
    assert co.ticking == [0, 1]
    co.machine = replace(co.machine, ports={**co.machine.ports, 1: PortSlot()})
    assert tick() == [0]
    co.machine = replace(co.machine, ports={**co.machine.ports, 0: PortSlot()})
    assert tick() == []
    assert co.ticking == [] and monitor_entries(sim) == []
    # a new assignment starts the chain again
    sim._assign_port(co, 1, 1)
    assert len(monitor_entries(sim)) == 1
    assert tick() == [1]


# --------------------------------------------------------------------------
# safety checks against per-victim path_gain calls

def reference_upstream(sim, ru, f_thz, power, co_name):
    for other in sim.rus.values():
        if other.name == ru.name:
            continue
        try:
            gain = link.path_gain(sim.topology, ru.name, co_name, f_thz,
                                  rx_port_channel=other.channel)
        except link.NoPath:
            continue
        if power + gain.gain_db >= sim.mgmt.rx_sensitivity_dbm:
            return f"frames of {ru.name} decodable on foreign port {other.channel}"
    return None


def reference_downstream(sim, co, port, f_thz, power):
    for other in sim.rus.values():
        if other.channel == port:
            continue
        try:
            gain = link.path_gain(sim.topology, other.name, co.name, f_thz,
                                  rx_port_channel=port)
        except link.NoPath:
            continue
        if power + gain.gain_db >= sim.mgmt.rx_sensitivity_dbm:
            return f"port {port} frames decodable at {other.name}"
    return None


def reference_crosstalk(sim, sweeper, f_thz, power):
    """(min margin, first violation) from link.crosstalk_margin per victim."""
    low, violation = math.inf, None
    for other in sim.rus.values():
        if other.name == sweeper.name or other.machine.state not in (RuState.LOCKED,
                                                                      RuState.HOLD):
            continue
        try:
            margin = link.crosstalk_margin(sim.topology, (sweeper.name, f_thz, power),
                                           other.channel, other.laser.power_dbm)
        except link.NoPath:
            continue
        low = min(low, margin)
        if margin < sim.scenario.run.crosstalk_min_margin_db:
            return low, (f"sweep of {sweeper.name} leaves only {margin:.1f} dB margin "
                         f"on channel {other.channel}")
    return low, None


def violation(check, *args):
    try:
        check(*args)
    except engine.SafetyViolation as err:
        return str(err)
    return None


def leaky_sims():
    """Plants whose weak demux filters let the checks fire: a tree, and a
    horseshoe cut in the middle so that victims sit behind both COs."""
    plan = FrequencyPlan(channel_count=8, spacing_ghz=50.0)
    rus = tuple(RuSpec(f"ru{i}", ch) for i, ch in enumerate((0, 1, 3, 4, 6, 7)))
    topo = dict(isolation_floor_db=12.0, filter_bandwidth_ghz=60.0, drop_km=1.0)
    tree = Sim(Scenario(plan=plan, topo=TopoSpec(trunk_km=2.0, **topo), rus=rus))
    horseshoe = Sim(Scenario(plan=plan, topo=TopoSpec(kind="horseshoe", segment_km=2.0, **topo),
                             rus=rus, cos=(CoSpec("co_w"), CoSpec("co_e"))))
    horseshoe.topology = link.apply_cut(horseshoe.topology, "s4")
    for sim in (tree, horseshoe):
        for ru in list(sim.rus.values())[1::2]:
            ru.machine = replace(ru.machine, state=RuState.LOCKED)
    return [pytest.param(tree, id="tree"), pytest.param(horseshoe, id="horseshoe")]


def checks_against_references(sim):
    """Compare the three checks with the per-victim references over a grid
    of frequencies and powers; return which (check, fired) outcomes showed."""
    lo, hi = sim.plan.band_edges_thz()
    grid = [lo + (hi - lo) * k / 120 for k in range(121)]
    grid += [sim.plan.center_thz(ch) + d for ch in range(sim.plan.channel_count)
             for d in (-0.03, 0.0, 0.03)]
    fired = set()
    for f_thz in grid:
        for power in (-30.0, -12.0, 0.0, 3.0):
            for ru in sim.rus.values():
                for co in sim.cos.values():
                    want = reference_upstream(sim, ru, f_thz, power, co.name)
                    assert violation(sim._check_upstream_isolation, ru, f_thz, power,
                                     co.name) == want
                    fired.add(("up", want is not None))
                want_low, want = reference_crosstalk(sim, ru, f_thz, power)
                sim.metrics.min_crosstalk_margin_db = math.inf
                assert violation(sim._check_sweep_crosstalk, ru, f_thz, power) == want
                assert sim.metrics.min_crosstalk_margin_db == want_low
                fired.add(("xt", want is not None))
            for co in sim.cos.values():
                for port in range(sim.plan.channel_count):
                    want = reference_downstream(sim, co, port, f_thz, power)
                    assert violation(sim._check_downstream_isolation, co, port, f_thz,
                                     power) == want
                    fired.add(("down", want is not None))
    return fired


@pytest.mark.parametrize("sim", leaky_sims())
def test_hoisted_safety_checks_equal_per_victim_path_gain(sim):
    fired = checks_against_references(sim)
    # every check both passed and fired somewhere on the grid
    assert fired == {(c, v) for c in ("up", "xt", "down") for v in (True, False)}

    # The kept victim levels and isolation passes follow the engine's own
    # changes, each checked on its own: a power change through
    # _apply_tuner_actions, an unlock and a lock through _run_tuner, and the
    # plant cut and restored.  The frames those transitions send are not
    # under test here.
    sim._send = lambda *args, **kwargs: None
    ru0, ru1, _, ru3, _, _ = sim.rus.values()

    def power_change():
        sim._apply_tuner_actions(ru3, (SetPower(-9.0),))

    def unlock():
        sim._run_tuner(ru1, LinkDown())
        assert ru1.machine.state is RuState.FINE_TUNE

    def lock():
        ru0.machine = replace(ru0.machine, state=RuState.DIRECT_TUNING,
                              assigned_channel=ru0.channel)
        ru0.laser.set_frequency(sim.plan.center_thz(ru0.channel))
        ru0.emission = None
        sim._run_tuner(ru0, TimerExpired("settle", time_us=sim.now_us))
        assert ru0.machine.state is RuState.LOCKED

    for step in (power_change, unlock, lock):
        step()
        assert checks_against_references(sim) >= {("xt", True), ("xt", False)}
    span = "drop_ru3" if sim.topology.kind is link.TopologyKind.TREE else "s2"
    flipped = 0
    for change in (link.apply_cut, link.restore):
        before = sim.topology
        after = change(before, span)
        # downstream sends half a channel off each port's centre, where only
        # the neighbouring RU can decode them, made on the old plant and then
        # on the new one: a pass kept from the old plant must not answer for
        # the new
        for co in sim.cos.values():
            for port in range(sim.plan.channel_count):
                for f_thz in (sim.plan.center_thz(port) + d for d in (-0.025, 0.025)):
                    outcomes = []
                    for sim.topology in (before, after):
                        want = reference_downstream(sim, co, port, f_thz, -30.0)
                        assert violation(sim._check_downstream_isolation, co, port, f_thz,
                                         -30.0) == want
                        outcomes.append(want is None)
                    flipped += outcomes == [True, False]
        assert checks_against_references(sim) >= {("xt", True), ("xt", False)}
    assert flipped > 0
