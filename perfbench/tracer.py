"""Layer tracing from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, each public
function the engine calls with a wrapper that records a span (name, start,
end, parent span, op id) or, for the cheap topology lookups and the event
heap, only a count.  The functions are patched where the engine looks them
up, so nothing under ``src/`` changes, and every original is put back on
exit.  Spans are kept in flat in-memory arrays and written out at the end.
Each span name starts with its layer: engine, link, codec, protocol, lasers
or scenario (``cli`` is a front end over scenario and engine).
"""

from __future__ import annotations

import functools
import heapq
import time
import types
from array import array

import numpy as np

from gmetro import codec, engine, lasers, link, scenario

FAMILY = {lasers.MemsVcselModel: "mems", lasers.ThermalDbrModel: "dbr",
          lasers.VernierModel: "vernier"}
TOPOLOGY_LOOKUPS = ("span", "node", "active_path", "path_to_co", "ru_for_channel")


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # span code -> span name
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("H")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = [0]
        self.counters: dict[str, list[int]] = {}   # name -> [count in the current op]
        self.queue_max = [0]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin_op(self, op_id: int):
        """Start attributing spans to ``op_id`` and zero the per-op counts."""
        self._op[0] = op_id
        for cell in self.counters.values():
            cell[0] = 0
        self.queue_max[0] = 0

    def op_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counters.items()}

    def _counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def span(self, name: str, fn):
        code = self._codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, op, clock = self._stack, self._op, time.perf_counter_ns
        raised = self._counter(f"{name}.raised")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[0] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
        return traced

    def count(self, name: str, fn):
        cell = self._counter(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _heap_standin(self):
        pops, qmax = self._counter("engine.events"), self.queue_max

        def heappush(heap, item):
            heapq.heappush(heap, item)
            if len(heap) > qmax[0]:
                qmax[0] = len(heap)

        def heappop(heap):
            pops[0] += 1
            return heapq.heappop(heap)
        return types.SimpleNamespace(heappush=heappush, heappop=heappop)

    def __enter__(self):
        span = self.span
        self._patch(scenario, "parse_scenario", span("scenario.parse", scenario.parse_scenario))
        validate = span("engine.validate", engine.validate)
        self._patch(scenario, "validate", validate)
        self._patch(engine, "validate", validate)
        self._patch(engine.Sim, "__init__", span("engine.setup", engine.Sim.__init__))
        self._patch(engine.Sim, "run", span("engine.run", engine.Sim.run))
        self._patch(engine.Trace, "add", span("engine.trace_add", engine.Trace.add))
        self._patch(engine, "heapq", self._heap_standin())

        for fn in ("ru_transition", "co_transition", "plan_sweep"):
            self._patch(engine, fn, span(f"protocol.{fn}", getattr(engine, fn)))

        per_family = {cls: span(f"lasers.calibrate.{fam}", lasers.calibrate)
                      for cls, fam in FAMILY.items()}
        self._patch(engine, "calibrate",
                    functools.wraps(lasers.calibrate)(
                        lambda laser, *a, **k: per_family[type(laser)](laser, *a, **k)))
        self._patch(lasers, "step_drift", span("lasers.step_drift", lasers.step_drift))
        for cls, fam in FAMILY.items():
            for method in ("emission", "set_frequency", "apply_frequency_step"):
                self._patch(cls, method, span(f"lasers.{method}.{fam}", cls.__dict__[method]))

        for fn in ("path_gain", "crosstalk_margin", "apply_cut", "restore"):
            self._patch(link, fn, span(f"link.{fn}", getattr(link, fn)))
        for method in TOPOLOGY_LOOKUPS:
            self._patch(link.Topology, method,
                        self.count("link.topology_lookups", link.Topology.__dict__[method]))

        for fn in ("frame_pack", "frame_unpack", "manchester_encode", "manchester_decode",
                   "apply_bit_errors", "simulate_message_loss_interval"):
            self._patch(codec, fn, span(f"codec.{fn}", getattr(codec, fn)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # ------------------------------------------------------------ output

    def arrays(self) -> dict[str, np.ndarray]:
        """Views on the span arrays; valid while no span is being recorded."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.uint16),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_op(self, n_ops: int) -> dict:
        """Per op and span name: calls, total time and self time (ns), where
        self time is a span's duration minus that of its direct children.
        Ops are recorded one after the other, so each is a contiguous slice."""
        a = self.arrays()
        width = len(self.names)
        calls = np.zeros((n_ops, width), dtype=np.int64)
        total = np.zeros((n_ops, width))
        own = np.zeros((n_ops, width))
        bounds = np.searchsorted(a["op"], np.arange(n_ops + 1))
        for i in range(n_ops):
            lo, hi = bounds[i], bounds[i + 1]
            name = a["name"][lo:hi]
            dur = a["end_ns"][lo:hi] - a["start_ns"][lo:hi]
            parent = a["parent"][lo:hi]
            nested = parent >= 0
            child = np.bincount(parent[nested] - lo, weights=dur[nested], minlength=hi - lo)
            calls[i] = np.bincount(name, minlength=width)
            total[i] = np.bincount(name, weights=dur, minlength=width)
            own[i] = np.bincount(name, weights=dur - child, minlength=width)
        return {"names": list(self.names), "calls": calls, "total_ns": total, "self_ns": own}


def wrapper_cost_ns() -> dict[str, float]:
    """Host cost, in ns per call, that one span and one count wrapper add to
    an empty function, best of five batches of 20,000 calls.  A wrapped call
    nested in a span adds up to this much to that span's self time, so self
    times and per-call times include it."""
    def noop():
        pass

    probe = Tracer()
    fns = {"bare": noop, "span": probe.span("probe", noop),
           "count": probe.count("probe", noop)}
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(5):
        for name, fn in fns.items():
            t0 = time.perf_counter_ns()
            for _ in range(20000):
                fn()
            best[name] = min(best[name], (time.perf_counter_ns() - t0) / 20000)
    return {"span": best["span"] - best["bare"], "count": best["count"] - best["bare"]}
