"""ultradiv benchmark: run one workload for one seed.

    python3 bench/run.py --workload factor --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/ultradiv.  The untraced
run (--trace 0) reports the end-to-end metrics declared in
BENCHMARK.json; the traced run (--trace 1) reports the per-layer ones.
A table goes to stdout first and the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(machine, commit, per-kind latencies, failures) is written to
bench/results/, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # a run leaves no __pycache__ behind, in src/ or here

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, percentile  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_TASKS = 1000  # at least 10 samples beyond p99
BATCH = 1000  # latency quantiles are taken per batch of whole rounds, then averaged
MAX_LOOP_S = 120  # hard stop for the timed loop however slow the tasks get
SETUP_PROBES = 9
CLI_REPS = 5


def child_env() -> dict:
    """Environment for fresh interpreters: this checkout's sources, no .pyc."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def probe(workload: str, seed: int) -> None:
    """Set-up probe, run in a fresh process: import ultradiv, then one
    warm-up task (which extends the library's lazy prime sieve)."""
    t0 = perf_counter()
    lib = workloads.library()
    imported = perf_counter() - t0
    wl = workloads.WORKLOADS[workload](lib, seed)
    kind, payload = wl.warmup_task()
    t1 = perf_counter()
    getattr(wl, "run_" + kind)(lib, payload)
    print(imported + perf_counter() - t1)


class SideRuns:
    """Fresh-process measurements spread over the timed window: set-up
    probes and cold CLI calls, one at a time between rounds, so that a
    burst of machine noise cannot land on all samples of one metric."""

    def __init__(self, workload: str, seed: int, commands, probes: int):
        self.commands = commands
        self.setup: list[float] = []
        self.walls: dict[int, list[float]] = {i: [] for i in range(len(commands))}
        self.elapsed: dict[int, list[float]] = {i: [] for i in range(len(commands))}
        self.attempted = self.failed = 0
        probe_cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload,
                     "--seed", str(seed)]
        jobs = [lambda i=i: self._cli(i) for i in range(len(commands))] * CLI_REPS
        step = len(jobs) // probes if probes else 0
        for k in range(probes):  # interleave the probes with the CLI calls
            jobs.insert(k * (step + 1), lambda: self._probe(probe_cmd))
        self.jobs = jobs
        self.done = 0

    def _probe(self, cmd) -> None:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        self.setup.append(float(proc.stdout.split()[-1]))

    def _cli(self, i: int) -> None:
        argv, check = self.commands[i]
        cmd = [sys.executable, "-m", "ultradiv.cli", *argv, "--format", "json"]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        wall = perf_counter() - t0
        self.attempted += 1
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
            ok = proc.returncode == 0 and check(report)
        except (ValueError, IndexError, KeyError, TypeError):
            report, ok = {}, False
        self.failed += not ok
        self.walls[i].append(wall * 1000)
        self.elapsed[i].append(report.get("elapsed_ms", 0.0))

    def catch_up(self, fraction: float) -> float:
        """Run the jobs due by this fraction of the window; returns the time
        they took, which the caller leaves out of its window."""
        t0 = perf_counter()
        while self.done < len(self.jobs) * min(fraction, 1.0):
            self.jobs[self.done]()
            self.done += 1
        return perf_counter() - t0

    def cli_metrics(self) -> dict:
        def mean_of_medians(series):
            return statistics.fmean(statistics.median(v) for v in series.values())

        startup = {i: [w - e for w, e in zip(self.walls[i], self.elapsed[i])]
                   for i in self.walls}
        return {"cli_cold_ms": mean_of_medians(self.walls),
                "cli.report_elapsed_ms": mean_of_medians(self.elapsed),
                "cli.startup_ms": mean_of_medians(startup)}


class Loop:
    """Rounds of tasks: each task timed alone, then checked untimed."""

    def __init__(self):
        self.durations: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.round_sizes: list[int] = []

    def done(self, spent: float, seconds: float) -> bool:
        return spent >= MAX_LOOP_S or spent >= seconds and len(self.durations) >= MIN_TASKS

    @property
    def rounds(self) -> int:
        return len(self.round_sizes)

    def run(self, wl, lib, seconds: float, side: SideRuns) -> "Loop":
        start, paused = perf_counter(), 0.0
        while not self.done(perf_counter() - start - paused, seconds):
            self.round(wl, lib, wl.round(self.rounds))
            paused += side.catch_up((perf_counter() - start - paused) / seconds)
        side.catch_up(1.0)
        return self

    def round(self, wl, lib, tasks, tracer=None) -> None:
        for kind, payload in tasks:
            run = getattr(wl, "run_" + kind)
            if tracer is not None:
                tracer.open_task(len(self.durations))
            t0 = perf_counter()
            try:
                out = run(lib, payload)
                raised = False
            except Exception:  # a raising task is a failed task
                raised = True
            t1 = perf_counter()
            if tracer is not None:
                tracer.close_task(kind, t0, t1)
            self.durations.append(t1 - t0)
            self.kinds.append(kind)
            if raised or not self._check(wl, kind, payload, out):
                self.failures.append(kind)
        self.round_sizes.append(len(tasks))

    @staticmethod
    def _check(wl, kind, payload, out) -> bool:
        try:
            return bool(getattr(wl, "check_" + kind)(payload, out))
        except Exception:  # an oracle that cannot read the answer rejects it
            return False

    @property
    def busy(self) -> float:
        return sum(self.durations)

    def batches(self) -> list[list[float]]:
        """Task durations in consecutive batches of whole rounds, each of at
        least BATCH tasks; a trailing partial batch is left out."""
        out, start, end = [], 0, 0
        for size in self.round_sizes:
            end += size
            if end - start >= BATCH:
                out.append(self.durations[start:end])
                start = end
        return out

    def batch_mean(self, stat) -> float:
        """Mean over batches of a per-batch statistic: every batch holds the
        same mix, so averaging smooths machine-speed swings that a pooled
        quantile would jump across."""
        return statistics.fmean(stat(b) for b in self.batches())

    def by_kind(self) -> dict:
        out = {}
        for kind in sorted(set(self.kinds)):
            durs = [d for d, k in zip(self.durations, self.kinds) if k == kind]
            out[kind] = {"tasks": len(durs), "failed": self.failures.count(kind),
                         "p50_ms": statistics.median(durs) * 1000,
                         "busy_s": sum(durs)}
        return out


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def untraced(name, seed, seconds) -> tuple[dict, dict, Loop]:
    lib = workloads.library()
    wl = workloads.WORKLOADS[name](lib, seed)
    side = SideRuns(name, seed, wl.cli, SETUP_PROBES)
    Loop().round(wl, lib, wl.round(0))  # warm-up, not counted
    gc.collect()
    loop = Loop().run(wl, lib, seconds, side)
    values = {
        "throughput_tasks_s": len(loop.durations) / loop.busy,
        "task_p50_ms": loop.batch_mean(statistics.median) * 1000,
        "task_p99_ms": loop.batch_mean(lambda b: percentile(b, 99)) * 1000,
        "setup_s": statistics.median(side.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_ms": side.cli_metrics()["cli_cold_ms"],
    }
    extra = {"setup_probes_s": side.setup, "cli": side.cli_metrics(),
             "cli_attempted": side.attempted, "cli_failed": side.failed}
    return values, extra, loop


def traced(name, seed, seconds, spans_path) -> tuple[dict, dict, Loop]:
    lib = workloads.library()
    wl = workloads.WORKLOADS[name](lib, seed)
    side = SideRuns(name, seed, wl.cli, 0)
    Loop().round(wl, lib, wl.round(0))
    tracer = Tracer(workloads.PROBES)
    traced_lib = workloads.library(tracer)
    plain, loop = Loop(), Loop()
    gc.collect()
    start, paused = perf_counter(), 0.0
    while not loop.done(perf_counter() - start - paused, seconds):
        # each round runs untraced and traced, in alternating order, so the
        # overhead estimate sees the same inputs and machine state
        tasks = wl.round(loop.rounds)
        passes = [(plain, lib, None), (loop, traced_lib, tracer)]
        for pass_loop, pass_lib, pass_tracer in passes[:: 1 if loop.rounds % 2 else -1]:
            pass_loop.round(wl, pass_lib, tasks, pass_tracer)
        paused += side.catch_up((perf_counter() - start - paused) / seconds)
    side.catch_up(1.0)
    cli = side.cli_metrics()
    values = layer_metrics(tracer.rollup(), workloads.FUNCTIONS, loop.busy)
    values["cli.report_elapsed_ms"] = cli["cli.report_elapsed_ms"]
    values["cli.startup_ms"] = cli["cli.startup_ms"]
    values["trace.overhead_frac"] = loop.busy / plain.busy - 1
    tracer.dump(spans_path)
    extra = {"cli": cli, "cli_attempted": side.attempted, "cli_failed": side.failed,
             "untraced_busy_s": plain.busy, "traced_busy_s": loop.busy,
             "untraced_failed": len(plain.failures), "spans": len(tracer.name)}
    return values, extra, loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ultradiv" / "__init__.py").is_file():
        print(f"bench: {SRC / 'ultradiv'} not found; run from an ultradiv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    import ultradiv

    if not Path(ultradiv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported ultradiv from {ultradiv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # one spans file a workload (the latest traced run): they run to millions of lines
        values, extra, loop = traced(args.workload, args.seed, args.seconds,
                                     results / f"{args.workload}.spans.tsv.gz")
    else:
        values, extra, loop = untraced(args.workload, args.seed, args.seconds)
    # known defect, kept visible outside the checked tasks (ROADMAP item 2)
    misjudged = workloads.psi_misjudged(workloads.library())
    if args.trace:
        values["arith.is_prime.psi_misjudged"] = misjudged
    attempted = len(loop.durations) + extra["cli_attempted"]
    failed = len(loop.failures) + extra["cli_failed"]
    if not args.trace:
        values["verified_frac"] = 1 - failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "tasks": len(loop.durations),
              "rounds": loop.rounds, "latency_batches": [len(b) for b in loop.batches()],
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failed_kinds": sorted(set(loop.failures)),
              "psi_misjudged": misjudged,
              "metrics": metrics, "by_kind": loop.by_kind(), "extra": extra}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>16.6g} {m['unit']}")
    batches = loop.batches()
    print(f"{'failed_frac':<52} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    print(f"{'tasks':<52} {len(loop.durations):>16d} count "
          f"({sum(map(len, batches))} in {len(batches)} latency batches)")
    print(f"{'known defect: is_prime(psi_12), is_prime(psi_13) true':<52} {misjudged:>16d} "
          f"count (of 2; composite, see ROADMAP item 2)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
