"""One benchmark run inside a fresh interpreter, started by run.py.

    worker.py --workload W --config CONFIG --work DIR --cache DIR --seconds S --trace 0|1

issues W's command sequence through aqgsim.cli.main and prints one JSON
line. With --trace 0 the sequence repeats, untraced, for about S seconds,
and the line holds the median wall and CPU seconds per iteration.
With --trace 1 it runs once untraced and once under the layer tracer (plus,
for sweep, once on a single thread), and the line holds the per-layer
metrics. Every command's outputs are checked either way.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import aqgsim.cli
import numpy as np

import reference
import workloads
from metrics import PER_LAYER
from tracing import SPANS, Tracer

# final_rel_err on workloads that write no marched state: the metric must be
# present and nonzero on every workload, and a constant never trips its bound
NOT_MEASURED = 1.0

SPAN_NAMES = {span for _, _, span in SPANS}
WARM_AFTER = 3


class Run:
    """Issues iterations of one workload and checks every command's outputs."""

    def __init__(self, workload: str, cfg_path: Path, work: Path, cache: Path):
        self.workload = workload
        self.cfg_path = cfg_path
        self.cfg = json.loads(cfg_path.read_text())
        self.work = work
        self.reference = (reference.reference_final(self.cfg, cache)
                          if workload == "march" else None)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops = 0
        self.final_errors: list[float] = []
        self._first_final = None

    def iteration(self, tag: str, threads: int = workloads.SWEEP_THREADS) -> dict:
        """Run the command sequence once; returns wall and CPU seconds and step counts."""
        out = self.work / tag
        ops = workloads.operations(self.workload, self.cfg_path, out, threads)
        codes = []
        t0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                codes.append(aqgsim.cli.main(op.argv))
            except Exception as exc:  # a traceback is a failed operation, not a crash
                codes.append(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        accepted = 0
        for op, rc in zip(ops, codes):
            problems = workloads.check(op, rc, self.cfg)
            if op.name == "simulate" and not problems:
                accepted += len((op.out / "trace.csv").read_text().splitlines()) - 2
                problems = self._check_final(op.out / "state_final.aqgs")
            self.attempted += 1
            self.failed_ops += bool(problems)
            self.problems += problems
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "cpu": cpu, "accepted": accepted}

    def _check_final(self, path: Path) -> list[str]:
        try:
            coeffs = workloads.read_state(path)
        except (OSError, ValueError) as exc:
            return [f"simulate: unreadable state_final ({exc})"]
        err = reference.rel_hs_error(coeffs, self.reference, self.cfg["params"]["s"])
        self.final_errors.append(err)
        problems = []
        if not err < workloads.FINAL_REL_ERR_CEILING:
            problems.append(f"simulate: final_rel_err {err:.3e} above "
                            f"{workloads.FINAL_REL_ERR_CEILING:.0e}")
        if self._first_final is None:
            self._first_final = coeffs
        elif not (coeffs == self._first_final).all():
            problems.append("simulate: state_final differs between identical runs")
        return problems


def measure(run: Run, seconds: float) -> dict:
    """Iterate while the next iteration is expected to end within `seconds`
    (at least once), so that a run lasts about `seconds` however long one
    iteration takes. The first iteration warms caches and is left out of the
    medians once WARM_AFTER iterations have run."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run.iteration(f"iter{len(samples)}"))
        if time.perf_counter() - start + samples[-1]["wall"] > seconds:
            break
    timed = samples[1:] if len(samples) >= WARM_AFTER else samples
    return {
        "wall_s": statistics.median(s["wall"] for s in timed),
        "cpu_s": statistics.median(s["cpu"] for s in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_rel_err": (statistics.median(run.final_errors) if run.final_errors
                          else NOT_MEASURED),
        "samples": {"wall_s": [s["wall"] for s in samples],
                    "cpu_s": [s["cpu"] for s in samples]},
    }


def trace_layers(run: Run) -> dict:
    untraced = run.iteration("untraced")
    tracer = Tracer()
    with tracer:
        traced = run.iteration("traced")
    serial = run.iteration("serial", threads=1) if run.workload == "sweep" else None
    metrics = layer_metrics(tracer, traced, untraced, serial)
    metrics["samples"] = {"untraced_wall_s": untraced["wall"], "traced_wall_s": traced["wall"]}
    return metrics


def layer_metrics(tr: Tracer, traced: dict, untraced: dict, serial: dict | None) -> dict:
    """Every PER_LAYER metric: `<span>.calls`, `<span>.self_s` and `<span>.s`
    (total) come from the spans, other names from the tracer's counters or below."""
    # evolve makes one kernel call up front, one per attempted step and one
    # more per accepted step; trace.csv (stride 1) has one row per accepted step
    accepted = traced["accepted"]
    rejected = 0
    if accepted:
        kernel = tr.edges[("solver.evolve", "operators.nonlinear")]
        rejected = kernel - tr.spans["solver.evolve"].calls - 2 * accepted
    points = tr.spans["cli.sweep_point"].durations
    derived = {
        "solver.evolve.accepted_steps": accepted,
        "solver.evolve.rejected_steps": rejected,
        "solver.evolve.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "cli.sweep.point_p50_s": statistics.median(points) if points else 0.0,
        "cli.sweep.point_max_s": max(points, default=0.0),
        "cli.sweep.serial_s": serial["wall"] if serial else 0.0,
        "cli.sweep.speedup": serial["wall"] / untraced["wall"] if serial else 0.0,
        "trace.overhead_s": traced["wall"] - untraced["wall"],
        "trace.self_share": tr.main_self_s / traced["wall"],
    }
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif kind == "self_s":
            metrics[name] = tr.spans[span].self_s
        elif kind == "s":
            metrics[name] = tr.spans[span].total_s
        elif kind == "calls" and span in SPAN_NAMES:
            metrics[name] = tr.spans[span].calls
        else:
            metrics[name] = tr.counts[name]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--cache", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    run = Run(args.workload, args.config, args.work, args.cache)
    metrics = trace_layers(run) if args.trace else measure(run, args.seconds)
    print(json.dumps({"numpy": np.__version__, "attempted": run.attempted, "failed": run.failed_ops,
                      "problems": run.problems, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
