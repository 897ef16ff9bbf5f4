"""In-memory span recording for the traced benchmark run.

A span is one benchmark call into a library function (name
`<layer>.<function>`) or one whole task (name `task.<kind>`).  Spans are
kept in memory and written out only when the run ends; the untraced run
binds the raw library functions and never touches this module.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter

LAYERS = ("arith", "patterns", "filters", "coloring", "constructions")


class Tracer:
    """Spans in parallel typed arrays (about 30 bytes a span), so a run of a
    million small calls stays small; -1 marks a missing parent or task."""

    def __init__(self, probes):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.probes = probes  # span name -> function of the call's result
        self.probed: dict[str, list] = {}  # span name -> probe values, in call order
        self.task_span = -1
        self.task_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _add(self, name_id: int, t0: float, t1: float, parent: int, task: int) -> int:
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.task.append(task)
        return len(self.name) - 1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        probe = self.probes.get(name)
        probed = self.probed.setdefault(name, [])

        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            self._add(name_id, t0, t1, self.task_span, self.task_id)
            if probe:
                probed.append(probe(out))
            return out

        return traced

    def open_task(self, task_id: int) -> None:
        self.task_id = task_id
        self.task_span = self._add(-1, 0.0, 0.0, -1, task_id)  # filled by close_task

    def close_task(self, kind: str, t0: float, t1: float) -> None:
        sid = self.task_span
        self.name[sid] = self._name_id(f"task.{kind}")
        self.start[sid], self.end[sid] = t0, t1
        self.task_span = self.task_id = -1

    def rollup(self) -> dict[str, dict]:
        """Per span name: durations, total self time and probe values.

        Self time is a span's duration minus that of its children; benchmark
        calls into the library are sequential inside a task, so the
        children never overlap.
        """
        child_time = [0.0] * len(self.name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[sid] - self.start[sid]
        out = {name: {"durations": [], "self_s": 0.0, "probes": self.probed.get(name, [])}
               for name in self.names}
        for sid, nid in enumerate(self.name):
            rec = out[self.names[nid]]
            dur = self.end[sid] - self.start[sid]
            rec["durations"].append(dur)
            rec["self_s"] += dur - child_time[sid]
        return out

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\ttask\n")
            for sid, nid in enumerate(self.name):
                fh.write(f"{sid}\t{self.names[nid]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}"
                         f"\t{self.parent[sid]}\t{self.task[sid]}\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(roll: dict[str, dict], functions, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metric values from a rollup.

    Every function in `functions` is reported, with zeros where the
    workload never calls it.
    """
    m: dict[str, float] = {}
    for name in functions:
        rec = roll.get(name, {"durations": [], "probes": []})
        durs = rec["durations"]
        m[f"{name}.calls"] = len(durs)
        m[f"{name}.busy_s"] = sum(durs)
        m[f"{name}.p50_us"] = statistics.median(durs) * 1e6 if durs else 0.0

    def probes(name):
        return roll.get(name, {"probes": []})["probes"]

    def share(values):
        return sum(values) / len(values) if values else 0.0

    for name in ("arith.factorize", "coloring.is_thick_bounded"):
        durs = roll.get(name, {"durations": []})["durations"]
        m[f"{name}.p99_us"] = percentile(durs, 99) * 1e6 if durs else 0.0
    m["arith.factorize.rho_frac"] = share(probes("arith.factorize"))
    m["coloring.is_thick_bounded.exhaustive_frac"] = share(probes("coloring.is_thick_bounded"))
    m["arith.natset_elems_out"] = sum(
        sum(probes(f"arith.{fn}"))
        for fn in ("quotient_set", "coprime_product", "coprime_power", "up_closure"))
    m["patterns.generate_falpha.elems_out"] = sum(probes("patterns.generate_falpha"))
    m["coloring.verify_progr.checked"] = sum(probes("coloring.verify_progr"))
    m["coloring.verify_refinement.checked"] = sum(probes("coloring.verify_refinement"))
    greedy = probes("constructions.greedy_thick_extend")
    tried = sum(t for _dead, t in greedy)
    m["constructions.greedy_thick_extend.dead_end_frac"] = (
        sum(d for d, _t in greedy) / tried if tried else 0.0)
    for layer in LAYERS:
        busy = sum(rec["self_s"] for name, rec in roll.items()
                   if name.startswith(layer + "."))
        m[f"{layer}.busy_share"] = busy / traced_wall_s
    return m
