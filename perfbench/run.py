#!/usr/bin/env python3
"""gmetro benchmark: one workload per call, inputs generated from a seed.

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The simulator is imported from ``src/`` of
the same tree.  Ops of the one generated input repeat a fixed number of
times, ``workloads.ops_per_run``, which takes about ``--seconds`` on the
reference host; the count depends only on the arguments, so two runs with
the same arguments attempt, and fail, the same ops.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced op for reference, then as many traced ops, and
reports the per-layer metrics.  Both write a record with the machine
context, every op and its failure reason to ``perfbench/results/``; a traced
run also writes its spans there.

``failed`` counts ops that raised an ``EngineError`` (``SafetyViolation``,
``DeadlockError``, a frame-conservation abort) or failed an output check.
``correct`` is false when an op completed without an error but failed an
output check (a silent wrong answer), or when the same input gave different
results (repeated ops, or traced against untraced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Set-ups are timed in a short batch before every op, not in one burst, so a
# brief disturbance (such as the start of the process) cannot set the median.
SETUP_BATCH_S = 0.05


def _import_program():
    src = ROOT / "src"
    if not (src / "gmetro" / "__init__.py").is_file():
        sys.exit(f"error: no gmetro sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import gmetro
    if Path(gmetro.__file__).resolve().parent != (src / "gmetro").resolve():
        sys.exit(f"error: imported gmetro from {gmetro.__file__}, not from {src}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gmetro").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
    }


def measure_setups(workload: str, seed: int) -> list[float]:
    """Repeat the op's set-up (``workloads.set_up``, the one ops time too)
    alone for about SETUP_BATCH_S, at least once.  The text is rendered
    once, outside the timer, as it is for an op."""
    from workloads import render, set_up

    text = render(workload, seed)
    times = []
    spent = 0.0
    while spent < SETUP_BATCH_S:
        t = set_up(seed, text)[1]
        times.append(t)
        spent += t
    return times


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import ops_per_run, run_op

    setups, ops = [], []
    for _ in range(ops_per_run(workload, seconds)):
        setups += measure_setups(workload, seed)
        ops.append(run_op(workload, seed))
    metrics = {
        "setup_s": statistics.median(setups + [op.setup_s for op in ops]),
        "run_s": statistics.median([op.run_s for op in ops]),
        "host_s_per_sim_h": statistics.median([op.run_s * 3600.0 / op.sim_s for op in ops]),
        "mc_bits_per_s": statistics.median([op.bits / op.run_s for op in ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ops, metrics, {}


def _layer_values(names, calls, total_ns, self_ns, counts, queue_max) -> dict:
    """Per-layer figures of one traced op."""
    idx = {n: i for i, n in enumerate(names)}

    def c(name):
        return int(calls[idx[name]]) if name in idx else 0

    def t(name):
        return float(total_ns[idx[name]]) if name in idx else 0.0

    def per(total, n, scale):
        return total / n / scale if n else 0.0

    def layer_self_s(layer):
        return sum(float(self_ns[i]) for n, i in idx.items() if n.startswith(layer + ".")) / 1e9

    events = counts.get("engine.events", 0)
    run_self = float(self_ns[idx["engine.run"]]) if "engine.run" in idx else 0.0
    changes = c("link.apply_cut") + c("link.restore")
    transitions = c("protocol.ru_transition") + c("protocol.co_transition")
    unpacks = c("codec.frame_unpack")
    families = ("mems", "dbr", "vernier")
    v = {
        "engine.events": events,
        "engine.self_s": layer_self_s("engine"),
        "engine.us_per_event": per(run_self, events, 1e3),
        "engine.queue_max": queue_max,
        "engine.trace_records": c("engine.trace_add"),
        "engine.trace_add.us_per_call": per(t("engine.trace_add"), c("engine.trace_add"), 1e3),
        "engine.validate_ms": per(t("engine.validate"), c("engine.validate"), 1e6),
        "link.path_gain.calls": c("link.path_gain"),
        "link.path_gain.us_per_call": per(t("link.path_gain"), c("link.path_gain"), 1e3),
        "link.path_gain.calls_per_event": per(c("link.path_gain"), events, 1.0),
        "link.crosstalk_margin.calls": c("link.crosstalk_margin"),
        "link.topology_lookups.calls": counts.get("link.topology_lookups", 0),
        "link.topology_change.calls": changes,
        "link.topology_change.us_per_call":
            per(t("link.apply_cut") + t("link.restore"), changes, 1e3),
        "link.self_s": layer_self_s("link"),
        "codec.frames_packed": c("codec.frame_pack"),
        "codec.frame_pack.us_per_call": per(t("codec.frame_pack"), c("codec.frame_pack"), 1e3),
        "codec.frame_unpack.us_per_call": per(t("codec.frame_unpack"), unpacks, 1e3),
        "codec.line_code.us_per_frame":
            per(t("codec.manchester_encode") + t("codec.manchester_decode"),
                c("codec.manchester_encode"), 1e3),
        "codec.bit_errors.us_per_frame":
            per(t("codec.apply_bit_errors"), c("codec.apply_bit_errors"), 1e3),
        "codec.decode_ok_ratio":
            per(unpacks - counts.get("codec.frame_unpack.raised", 0), unpacks, 1.0),
        "codec.self_s": layer_self_s("codec"),
        "protocol.transitions": transitions,
        "protocol.us_per_transition":
            per(t("protocol.ru_transition") + t("protocol.co_transition"), transitions, 1e3),
        "protocol.self_s": layer_self_s("protocol"),
        "lasers.emission.calls": sum(c(f"lasers.emission.{f}") for f in families),
        "lasers.step_drift.calls": c("lasers.step_drift"),
        "lasers.self_s": layer_self_s("lasers"),
        "scenario.parse_ms": per(t("scenario.parse"), c("scenario.parse"), 1e6),
    }
    for f in families:
        v[f"lasers.emission.{f}.us_per_call"] = \
            per(t(f"lasers.emission.{f}"), c(f"lasers.emission.{f}"), 1e3)
        v[f"lasers.calibrate_ms.{f}"] = \
            per(t(f"lasers.calibrate.{f}"), c(f"lasers.calibrate.{f}"), 1e6)
    return v


def traced(workload: str, seed: int, seconds: float, out_dir: Path):
    from tracer import Tracer, wrapper_cost_ns
    from workloads import ops_per_run, run_op

    reference = run_op(workload, seed)
    ops, counts, qmax = [], [], []
    with Tracer() as tracer:
        for _ in range(ops_per_run(workload, seconds)):
            tracer.begin_op(len(ops))
            ops.append(run_op(workload, seed))
            counts.append(tracer.op_counts())
            qmax.append(tracer.queue_max[0])
    tracer.save(out_dir / f"{workload}-spans.npz")
    per_op = tracer.per_op(len(ops))
    rows = [_layer_values(per_op["names"], per_op["calls"][i], per_op["total_ns"][i],
                          per_op["self_ns"][i], counts[i], qmax[i]) for i in range(len(ops))]
    metrics = {name: statistics.median([r[name] for r in rows]) for name in rows[0]}
    for key, value in reference.sim.items():
        metrics[f"sim.{key}"] = value
    metrics["sim.digest"] = int(reference.sim["digest"][:12], 16)
    traced_run_s = statistics.median([op.run_s for op in ops])
    metrics["trace_overhead"] = traced_run_s / reference.run_s - 1.0
    extra = {"span_names": per_op["names"], "spans": len(tracer.start),
             "wrapper_cost_ns": wrapper_cost_ns()}
    return [reference] + ops, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["sweep64", "hold16", "protect6", "mc_loss"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import KNOWN_DEFECTS, WORKLOADS

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    ops, metrics, extra = run(args.workload, args.seed, args.seconds,
                              *([out_dir] if args.trace else []))
    failed = [op for op in ops if op.failure]
    digests = {op.sim["digest"] for op in ops}
    correct = len(digests) == 1 and not any(op.wrong for op in ops)
    # fail_ratio is 0 on a healthy workload, so BENCHMARK.json lists it with
    # the per-layer metrics; the `failed` count carries it on every run.
    metrics["fail_ratio"] = len(failed) / len(ops)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context(), "about": WORKLOADS[args.workload],
        "known_defects": KNOWN_DEFECTS, "correct": correct, "digests": sorted(digests),
        "attempted": len(ops), "failed": len(failed),
        "failure_reasons": sorted({op.failure for op in failed}),
        "ops": [{k: v for k, v in op.__dict__.items() if k != "sim"} for op in ops],
        "sim": ops[0].sim,
        "metrics": shown, "all_values": metrics,
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for reason in record["failure_reasons"]:
        print(f"failed op: {reason}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
