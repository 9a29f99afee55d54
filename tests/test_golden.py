"""Golden digests: sha256 of the rendered trace plus the metrics JSON.

Each digest pins a whole run byte for byte, so a refactor of the engine
that changes any trace record, any metric or the event order fails here.
A change that is meant to alter behaviour must say which digest moved and
why.  All times are whole milliseconds, so the ms -> us conversion cannot
move a digest.

The runs behind the digests are stored gzipped under ``tests/golden/``
(``<name>.trace.gz`` and ``<name>.metrics.json.gz``), and each pair must
hash to its digest.  When a run no longer matches, the failure names the
first record that differs from the stored trace and the change in record
count per kind.  After a digest has moved on purpose, rewrite the stored
runs with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import collections
import gzip
import hashlib
import pathlib

import pytest

from gmetro import engine
from gmetro.engine import CoSpec, FaultSpec, MgmtSpec, RunSpec, RuSpec, Scenario, TopoSpec
from gmetro.link import FrequencyPlan
from gmetro.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
STORED = pathlib.Path(__file__).resolve().parent / "golden"
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


def digest_of(trace_text: str, metrics_json: str) -> str:
    return hashlib.sha256((trace_text + metrics_json).encode()).hexdigest()


def run_digest(scenario: Scenario):
    trace, metrics = engine.run(scenario)
    return digest_of(trace.render(), metrics.to_json()), metrics


def stored(name: str) -> tuple[str, str]:
    """(rendered trace, metrics JSON) of the stored golden run."""
    return tuple(gzip.decompress((STORED / f"{name}.{part}.gz").read_bytes()).decode()
                 for part in ("trace", "metrics.json"))


def drift_report(name: str, trace_text: str, metrics_json: str) -> str:
    """Where a run departs from the stored one: the first differing record
    and the change in record count per kind."""
    old_text, old_metrics = stored(name)
    old, new = old_text.splitlines(), trace_text.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    lines = [f"{name}: first differing record is #{first}",
             f"  stored: {old[first] if first < len(old) else '(end of trace)'}",
             f"  now:    {new[first] if first < len(new) else '(end of trace)'}"]
    count = collections.Counter(line.split("\t")[2] for line in new)
    count.subtract(line.split("\t")[2] for line in old)
    changed = {kind: n for kind, n in sorted(count.items()) if n}
    lines.append(f"  record count change per kind: {changed or 'none'}")
    if metrics_json != old_metrics:
        lines.append("  metrics differ from the stored metrics JSON")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stored_golden_run_hashes_to_its_digest(name):
    assert digest_of(*stored(name)) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    build, expected = GOLDEN[name]
    trace, metrics = engine.run(build())
    trace_text, metrics_json = trace.render(), metrics.to_json()
    assert digest_of(trace_text, metrics_json) == expected, \
        drift_report(name, trace_text, metrics_json)
    if name == "horseshoe6_ber":
        assert metrics.retransmissions > 0
        assert metrics.blocks_corrected > 0


def test_drift_report_names_the_first_change_and_the_count_per_kind():
    trace_text, metrics_json = stored("pairwise")
    lines = trace_text.splitlines(keepends=True)
    assert drift_report("pairwise", trace_text, metrics_json).endswith(
        "record count change per kind: none")
    kind = lines[5].split("\t")[2]
    edited = lines[:5] + lines[6:] + ["99999999\tru0\tALARM\tinvented\n"]
    report = drift_report("pairwise", "".join(edited), metrics_json + " ")
    assert "first differing record is #5" in report
    assert f"now:    {lines[6].rstrip()}" in report
    assert f"'ALARM': 1, '{kind}': -1" in report or f"'{kind}': -1, 'ALARM': 1" in report
    assert report.endswith("metrics differ from the stored metrics JSON")

def clean_then_noisy() -> Scenario:
    """4 calibrated RUs on a clean channel that steps to BER 1e-3 mid-run.
    Frames delivered before the step still draw from each receiver's
    channel stream, so the errors after it land where they do only if
    every clean delivery made its draw."""
    return Scenario(
        rus=tuple(RuSpec(f"ru{i}", 2 * i, laser=("mems", "dbr")[i % 2], calibrated=True,
                         start_ms=100.0 * i) for i in range(4)),
        run=RunSpec(seed=5, horizon_ms=20_000.0, stop="time"),
        faults=(FaultSpec("ber", 8_000.0, ber=1e-3),),
    )


def test_clean_deliveries_keep_their_channel_draws():
    digest, metrics = run_digest(clean_then_noisy())
    assert digest == "7343af6d5973c41e563bd62f783a480dbe571b3864318e7145e17f56249cb927"
    assert metrics.blocks_corrected > 0


if __name__ == "__main__":
    STORED.mkdir(exist_ok=True)
    for name, (build, _) in sorted(GOLDEN.items()):
        trace, metrics = engine.run(build())
        for part, text in (("trace", trace.render()), ("metrics.json", metrics.to_json())):
            (STORED / f"{name}.{part}.gz").write_bytes(gzip.compress(text.encode(), mtime=0))
