"""Golden digests: sha256 of the rendered trace plus the metrics JSON.

Each digest pins a whole run byte for byte, so a refactor of the engine
that changes any trace record, any metric or the event order fails here.
A change that is meant to alter behaviour must say which digest moved and
why.  All times are whole milliseconds, so the ms -> us conversion cannot
move a digest.
"""

import hashlib
import pathlib

import pytest

from gmetro import engine
from gmetro.engine import CoSpec, FaultSpec, MgmtSpec, RunSpec, RuSpec, Scenario, TopoSpec
from gmetro.link import FrequencyPlan
from gmetro.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FAMILIES = ("mems", "dbr", "vernier")


def tree32_sweep() -> Scenario:
    """32 uncalibrated MEMS RUs sweeping onto a 50 GHz tree."""
    return Scenario(
        plan=FrequencyPlan(channel_count=32, spacing_ghz=50.0),
        rus=tuple(RuSpec(f"ru{i:02d}", i, start_ms=200.0 * i) for i in range(32)),
        run=RunSpec(seed=3, horizon_ms=60_000.0),
    )


def horseshoe6_ber() -> Scenario:
    """6 calibrated RUs on a noisy horseshoe: a west-trunk cut and restore and
    a BER step, with drift traced.  The only golden run that retransmits and
    corrects FEC blocks."""
    return Scenario(
        topo=TopoSpec(kind="horseshoe", segment_km=14.0, drop_km=1.0),
        rus=tuple(RuSpec(f"ru{i}", i, laser=FAMILIES[i % 3], calibrated=True,
                         start_ms=150.0 * i) for i in range(6)),
        cos=(CoSpec("co_w"), CoSpec("co_e")),
        mgmt=MgmtSpec(ber=1e-3),
        run=RunSpec(seed=11, horizon_ms=120_000.0, stop="time", trace_drift=True),
        faults=(FaultSpec("cut", 20_000.0, span="s1"),
                FaultSpec("restore", 50_000.0, span="s1"),
                FaultSpec("ber", 80_000.0, ber=2e-3)),
    )


def shipped(name: str):
    return lambda: parse_scenario((SCENARIOS / f"{name}.gms").read_text())


GOLDEN = {
    "tree16_sweep": (shipped("tree16_sweep"),
                     "f5d6345101f0bf550c32f8f8e491f66e08f17b86e222096d98d723a0683f0311"),
    "horseshoe_protection": (shipped("horseshoe_protection"),
                             "31db7266829f837c35535a42e0a2d707ed5007fb0bfeb2494b510b453b043900"),
    "pairwise": (shipped("pairwise"),
                 "230acf747dac9e160a590225ba5c167a21d52ce6244524b173cdb08cc35617bb"),
    "tree32_sweep": (tree32_sweep,
                     "60b9cd6d1b4be7c6c1ddd9b8acd79746b39409ff9766f0d6719743b62fb43413"),
    "horseshoe6_ber": (horseshoe6_ber,
                       "9376b1ef5290be0cec4c39d673e62fcfe9f84d94e5823eff36b52574e98e5c1a"),
}


def run_digest(scenario: Scenario):
    trace, metrics = engine.run(scenario)
    digest = hashlib.sha256((trace.render() + metrics.to_json()).encode()).hexdigest()
    return digest, metrics


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    build, expected = GOLDEN[name]
    digest, metrics = run_digest(build())
    assert digest == expected
    if name == "horseshoe6_ber":
        assert metrics.retransmissions > 0
        assert metrics.blocks_corrected > 0
