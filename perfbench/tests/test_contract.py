"""The printed result line carries exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import run


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys):
    argv = ["--workload", "protect6", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace


def test_op_count_depends_only_on_arguments():
    from workloads import OP_HOST_S, ops_per_run

    for workload, op_s in OP_HOST_S.items():
        assert ops_per_run(workload, 0) == 1
        n = ops_per_run(workload, 20)
        assert n == ops_per_run(workload, 20)
        assert (n - 1) * op_s < 20 <= n * op_s
