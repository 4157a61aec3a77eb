"""Benchmark of the aqgsim command line, end to end and per layer.

    python3 perfbench/run.py --workload march|picard|lemmas|sweep|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory, nothing is installed. Each workload (see workloads.py)
is a closed loop of one client: a fresh interpreter issues the workload's
CLI commands one after another through `aqgsim.cli.main`, on a config
generated from the seed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics, measured with tracing off:
  setup_s        median time from starting a fresh interpreter until aqgsim is
                 imported and the config validated, over SETUP_REPEATS probes
                 spread around the workload
  wall_s, cpu_s  median wall and process-CPU seconds of one command sequence,
                 repeated for about S seconds (the first of three or more
                 iterations is a warm-up and left out)
  peak_rss_mb    peak resident memory of the interpreter that ran them
  final_rel_err  march: relative H^s distance of state_final from the
                 reference integrator in reference.py (1.0 elsewhere, where no
                 marched state is written)
  pass_frac      share of the commands whose outputs passed every check
--trace 1 gives the per-layer metrics of metrics.PER_LAYER from one traced
sequence (tracing.py), next to one untraced sequence for the overhead.

--workload all runs every workload in turn; its last line prefixes each
metric name with the workload's name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 10       # set-up probes, half before and half after the workload
WORKER_LIMIT_S = 165.0   # a run must end within 180 s, set-up probes included


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args: list, timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], env=_env(), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[0]).name} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(cfg_path: Path, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        started = time.monotonic()
        ready = float(_python([str(HERE / "setup_probe.py"), str(cfg_path)], timeout=60))
        samples.append(ready - started)
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + WORKER_LIMIT_S
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(make_config(workload, seed), indent=1))
        measure_setup(cfg_path, 1)  # warm-up: compiles bytecode, fills the page cache
        setup = measure_setup(cfg_path, SETUP_REPEATS // 2)
        line = _python([str(HERE / "worker.py"), "--workload", workload,
                        "--config", str(cfg_path), "--work", str(work / "out"),
                        "--cache", str(HERE / ".cache"), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       timeout=max(1.0, deadline - time.monotonic()))
        setup += measure_setup(cfg_path, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # .work goes once no run uses it
            work.parent.rmdir()
    result = json.loads(line)
    samples = result["metrics"].pop("samples")
    samples["setup_s"] = setup
    values = dict(result["metrics"], setup_s=statistics.median(setup),
                  pass_frac=1.0 - result["failed"] / result["attempted"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in (PER_LAYER if trace else END_TO_END).items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "numpy": result["numpy"],
            "problems": result["problems"], "samples": samples}


def provenance(seed: int, numpy_version: str) -> dict:
    # a checkout without .git reports no commit; the ceiling keeps git from
    # finding an enclosing repository instead
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the aqgsim command line")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aqgsim" / "cli.py").is_file():
        print(f"perfbench: no aqgsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        for problem in results[name].pop("problems"):
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        print(f"samples {name} " + json.dumps(results[name].pop("samples")))
    numpy_version = results[names[0]]["numpy"]
    for res in results.values():
        del res["numpy"]
    print("provenance " + json.dumps(provenance(args.seed, numpy_version)))
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} " + json.dumps(res))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, res in results.items()
                             for metric, value in res["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
