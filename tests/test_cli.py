import dataclasses
import json
import os
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmetro import codec
from gmetro.cli import main
from gmetro.engine import (
    CoSpec, FaultSpec, MgmtSpec, RunSpec, RuSpec, Scenario, TopoSpec, ValidationError, validate,
)
from gmetro.link import FrequencyPlan
from gmetro.scenario import ScenarioError, parse_scenario, render_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[plan]
channel_count = 16

[ru.ru0]
channel = 0
laser = mems
calibrated = true

[run]
seed = 3
horizon_ms = 20000.0
"""


# --------------------------------------------------------------------------
# parsing

def test_parse_minimal_applies_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.plan.channel_count == 16
    assert sc.plan.spacing_ghz == 100.0
    assert sc.topo.kind == "tree"
    assert sc.cos == (CoSpec(),)
    assert sc.rus == (RuSpec("ru0", 0, laser="mems", calibrated=True),)
    assert sc.run.seed == 3


def test_parse_reports_all_errors_in_one_pass():
    bad = """
[plan]
spacing_ghz = -100
volume = 11

[ru.ru0]
channel = 0

[mystery]
x = 1

[run]
horizon_ms = 20000.0
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    codes = [i.code for i in err.value.issues]
    assert "UNIT_VIOLATION" in codes   # negative spacing
    assert "UNKNOWN_KEY" in codes      # volume
    assert "UNKNOWN_SECTION" in codes  # [mystery]
    assert len(err.value.issues) == 3
    assert all(i.line > 0 for i in err.value.issues)


def test_parse_unknown_key_is_strict():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "\n[mgmt]\nbitrate_typo = 1\n")
    assert err.value.issues[0].code == "UNKNOWN_KEY"


def test_parse_cross_ref_error_for_bad_channel():
    bad = MINIMAL.replace("channel = 0", "channel = 99")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.issues[0].code == "CROSS_REF_ERROR"


def test_parse_cross_ref_error_for_duplicate_channel():
    bad = MINIMAL + "\n[ru.ru1]\nchannel = 0\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert str(err.value) == "line 0: CROSS_REF_ERROR: channel 0 assigned twice"


def test_parse_cross_ref_error_for_unknown_fault_span():
    bad = MINIMAL + "\n[faults]\nevent = cut nosuch at_ms=100.0\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.issues[0].code == "CROSS_REF_ERROR"


def test_parse_fault_events():
    sc = parse_scenario(MINIMAL + "\n[faults]\nevent = cut trunk at_ms=100.0\n"
                                  "event = restore trunk at_ms=200.0\n"
                                  "event = ber 5e-6 at_ms=0.0\n")
    kinds = [f.kind for f in sc.faults]
    assert kinds == ["cut", "restore", "ber"]


def test_render_parse_roundtrip():
    for name in ("tree16_sweep.gms", "horseshoe_protection.gms", "pairwise.gms"):
        sc = parse_scenario((SCENARIOS / name).read_text())
        assert parse_scenario(render_scenario(sc)) == sc


LASERS = st.sampled_from(["mems", "dbr", "vernier"])
KM = st.floats(0.0, 30.0)


@st.composite
def valid_scenarios(draw):
    """A scenario that validates: any topology kind or a pairwise link, 1-6
    RUs on distinct channels, a BER, and faults on the topology's spans."""
    kind = draw(st.sampled_from(["tree", "drop_line", "horseshoe", "pairwise"]))
    plan = FrequencyPlan(channel_count=draw(st.integers(1, 24)),
                         spacing_ghz=draw(st.sampled_from([50.0, 100.0])))
    channels = draw(st.lists(st.integers(0, plan.channel_count - 1), min_size=1,
                             max_size=1 if kind == "pairwise" else 6, unique=True))
    rus = tuple(RuSpec(f"ru{i}", ch, laser=draw(LASERS), calibrated=draw(st.booleans()),
                       start_ms=draw(st.floats(0.0, 1000.0)))
                for i, ch in enumerate(channels))
    if kind == "pairwise":
        kind, cos = "tree", (CoSpec("head", role="primary", laser=draw(LASERS),
                                    nms_channel=channels[0]),)
    else:
        cos = (CoSpec("co_w"), CoSpec("co_e")) if kind == "horseshoe" else (CoSpec("co0"),)
    topo = TopoSpec(kind=kind, trunk_km=draw(KM), segment_km=draw(KM), drop_km=draw(KM),
                    filter_bandwidth_ghz=draw(st.floats(10.0, 100.0)))
    run = RunSpec(seed=draw(st.integers(0, 2**31)), horizon_ms=draw(st.floats(1.0, 1e6)),
                  stop=draw(st.sampled_from(["all_locked", "time"])),
                  allow_unreachable=draw(st.booleans()))
    sc = Scenario(plan=plan, topo=topo, rus=rus, cos=cos, run=run,
                  mgmt=MgmtSpec(ber=draw(st.floats(0.0, 1.0))))
    try:
        spans = [s.name for s in validate(sc).spans]
    except ValidationError:     # a laser that cannot reach its channel
        assume(False)
    at_ms = st.floats(0.0, run.horizon_ms)
    faults = draw(st.lists(
        st.builds(FaultSpec, st.sampled_from(["cut", "restore"]), at_ms,
                  span=st.sampled_from(spans))
        | st.builds(FaultSpec, st.just("ber"), at_ms, ber=st.floats(0.0, 1.0)),
        max_size=4))
    return dataclasses.replace(sc, faults=tuple(faults))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(valid_scenarios())
def test_render_parse_roundtrip_of_random_scenarios(sc):
    assert parse_scenario(render_scenario(sc)) == sc


def test_shipped_scenarios_parse():
    for path in SCENARIOS.glob("*.gms"):
        parse_scenario(path.read_text())


# --------------------------------------------------------------------------
# CLI subcommands

def test_cli_validate(capsys):
    assert main(["validate", str(SCENARIOS / "pairwise.gms")]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.gms"
    bad.write_text("[plan]\nspacing_ghz = -1\n")
    assert main(["validate", str(bad)]) == 1
    assert "UNIT_VIOLATION" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path, capsys):
    scenario = tmp_path / "one.gms"
    scenario.write_text(MINIMAL)
    trace = tmp_path / "trace.txt"
    metrics = tmp_path / "metrics.txt"
    blob = tmp_path / "metrics.json"
    code = main(["run", str(scenario), "--trace", str(trace),
                 "--metrics", str(metrics), "--json", str(blob),
                 "--require-all-locked"])
    assert code == 0
    assert "time_to_lock_s.ru0=" in metrics.read_text()
    assert json.loads(blob.read_text())["frames_sent"] > 0
    lines = trace.read_text().splitlines()
    assert all(len(l.split("\t")) == 4 for l in lines)
    out = capsys.readouterr().out
    assert "frames_sent=" in out


def test_cli_run_seed_precedence(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "one.gms"
    scenario.write_text(MINIMAL)
    t1, t2, t3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("GMETRO_SEED", "55")
    main(["run", str(scenario), "--trace", str(t1), "--quiet"])
    main(["run", str(scenario), "--trace", str(t2), "--quiet", "--seed", "55"])
    monkeypatch.delenv("GMETRO_SEED")
    main(["run", str(scenario), "--trace", str(t3), "--quiet", "--seed", "55"])
    assert t1.read_text() == t2.read_text() == t3.read_text()


def test_cli_run_rejects_a_non_integer_seed_variable(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "one.gms"
    scenario.write_text(MINIMAL)
    monkeypatch.setenv("GMETRO_SEED", "abc")
    assert main(["run", str(scenario), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: GMETRO_SEED must be an integer\n"
    # an explicit --seed wins and never reads the variable
    assert main(["run", str(scenario), "--quiet", "--seed", "3"]) == 0


def test_cli_run_runtime_failure_exit_2(tmp_path, capsys):
    scenario = tmp_path / "cut.gms"
    scenario.write_text(MINIMAL + "\n[faults]\nevent = cut trunk at_ms=0.0\n")
    assert main(["run", str(scenario), "--quiet"]) == 2


def test_cli_run_threshold_exit_3(tmp_path, capsys):
    # run past the lock so drift accumulates, then demand a zero offset
    scenario = tmp_path / "drifty.gms"
    scenario.write_text(MINIMAL.replace("horizon_ms = 20000.0",
                                        "horizon_ms = 10000.0\nstop = time"))
    assert main(["run", str(scenario), "--quiet", "--max-offset-ghz", "0.0"]) == 3
    assert main(["run", str(scenario), "--quiet", "--max-offset-ghz", "100.0"]) == 0
    sweep = tmp_path / "sweep.gms"
    sweep.write_text(MINIMAL.replace("calibrated = true", "calibrated = false"))
    assert main(["run", str(sweep), "--quiet", "--require-all-locked"]) == 0


def test_cli_codec_roundtrip(capsys):
    assert main(["codec", "encode", "--type", "TUNE_REQ", "--seq", "3",
                 "--payload", "05"]) == 0
    encoded = capsys.readouterr().out.strip()
    bits = codec.hex_to_bits(encoded)
    assert len(bits) == codec.packed_frame_bits(1)
    assert main(["codec", "decode", encoded]) == 0
    out = capsys.readouterr().out
    assert "type=TUNE_REQ" in out and "seq=3" in out and "payload=05" in out


def test_cli_codec_encode_rejects_bad_type(capsys):
    assert main(["codec", "encode", "--type", "NOPE"]) == 1


def test_cli_codec_stats(capsys):
    assert main(["codec", "stats", "--ber", "5e-6"]) == 0
    out = capsys.readouterr().out
    assert "analytic_interval_h=31.7" in out


def test_cli_codec_stats_rejects_too_few_bits(capsys):
    assert main(["codec", "stats", "--ber", "1e-3", "--bits", "10"]) == 1
    captured = capsys.readouterr()
    assert "analytic_interval_s=" in captured.out
    assert captured.err == "error: need at least one whole block\n"


def test_cli_sweep_report(tmp_path, capsys):
    scenario = tmp_path / "one.gms"
    scenario.write_text(MINIMAL)
    assert main(["sweep-report", str(scenario), "--seeds", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("seed")
    assert len(out) == 4
