"""Self-tests of the benchmark: repeatable ops, tracing that changes no
result, and wrappers that leave the program as they found it.

    python3 -m pytest perfbench/tests -q
"""

import pytest

from gmetro import codec, engine, lasers, link, scenario
from tracer import FAMILY, Tracer
from workloads import SCENARIO_TEXT, run_op

PATCHED_OWNERS = (scenario, engine, engine.Sim, engine.Trace, lasers, link, link.Topology,
                  codec, *FAMILY)


def _snapshot():
    return [(owner, dict(vars(owner))) for owner in PATCHED_OWNERS]


def test_generated_text_depends_only_on_workload_and_seed():
    for make in SCENARIO_TEXT.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
        scenario.parse_scenario(make(3))


@pytest.mark.parametrize("workload", ["protect6", "hold16"])
def test_same_op_twice_gives_same_digest(workload):
    first, second = run_op(workload, 5), run_op(workload, 5)
    assert first.sim == second.sim
    assert first.failure == second.failure


def test_traced_op_matches_untraced_op():
    untraced = run_op("protect6", 2)
    with Tracer() as tracer:
        tracer.begin_op(0)
        traced = run_op("protect6", 2)
    assert traced.sim == untraced.sim
    assert traced.failure is None
    per_op = tracer.per_op(1)
    calls = dict(zip(per_op["names"], per_op["calls"][0]))
    assert calls["engine.run"] == 1
    assert calls["link.apply_cut"] == calls["link.restore"] == 10
    assert tracer.op_counts()["engine.events"] > 0


def test_tracer_restores_every_original():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert engine.validate is not before[1][1]["validate"]
            raise RuntimeError("leave the block early")
    after = _snapshot()
    for (owner, old), (_, new) in zip(before, after):
        assert old.keys() == new.keys(), owner
        for name, value in old.items():
            assert new[name] is value, f"{owner}.{name} not restored"
