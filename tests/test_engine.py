import math

import pytest

from gmetro import codec, engine
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
