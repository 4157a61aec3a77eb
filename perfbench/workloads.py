"""The benchmark's workloads: a config generated from the seed, the CLI
command sequence that one iteration issues, and the checks on its outputs.

- march:  `simulate` on a 64^2 grid to T=0.2 with ten checkpoints, then
          `gevrey` over them. Adaptive exponential-Euler stepping, per-step
          diagnostics, checkpoint writes and reads; no calibration, no Duhamel.
- picard: weighted `picard` on a 128^2 grid with 64 time nodes and 16
          calibration samples. Duhamel sums over large node stacks, calibration
          and Gevrey-weighted sups; no `evolve`.
- lemmas: `lemmas` with 200 ensemble samples, so that a run times many short
          iterations. Norms, field construction and the random ensemble; the
          nonlinear kernel is almost absent.
- sweep:  `sweep` over a 2x2 (alpha, beta) lattice on two threads, with Y1
          and Y2 points. Calibration plus a short march per point; the only
          concurrent path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("march", "picard", "lemmas", "sweep")

CHECKPOINT_TIMES = [round(0.02 * k, 10) for k in range(1, 11)]
SWEEP_ALPHAS = [0.6, 0.9]
SWEEP_BETAS = [0.4, 0.9]
SWEEP_THREADS = 2
LEMMAS_COUNT = 200
FINAL_REL_ERR_CEILING = 1e-3  # sanity ceiling; the seed code gives about 6e-6

TRACE_HEADER = "t,l2,hs,h2,gevrey_hs,diss1,diss2,max_u,dt"
GEVREY_HEADER = "t,gevrey_hs,saturated,h2,rate1,rate2,fit_residual1,fit_residual2"
SWEEP_HEADER = "alpha,beta,region,T0,hs_growth,rate1,rate2"
INEQUALITIES = (
    "subadditivity_fractional", "exp_decay_bound", "multiplier_equivalence",
    "dissipation_minus_weight_gap", "interpolation_homogeneous",
    "interpolation_inhomogeneous", "sobolev_injection", "product_law_symmetric",
    "product_law_asymmetric", "calderon_zygmund", "calderon_zygmund_p2",
    "directional_control", "directional_interpolation",
)
PICARD_FLAGS = ("converged", "ball_within", "weighted_converged", "weighted_within")

_CHECKPOINT_HEADER = struct.Struct("<4sIII6d")  # the documented checkpoint v1 layout


def make_config(workload: str, seed: int) -> dict:
    """The run config for `workload`; a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    cfg = {
        "grid": {"n1": 64, "n2": 64},
        "params": {"alpha": 0.75, "beta": 0.75, "mu": 1.0, "nu": 1.0, "s": 1.0},
        "init": {"kind": "random", "seed": seed, "kmax": 10, "spectrum_slope": 2.0,
                 "amplitude": 1.0, "normalize": "hs"},
        "constants": {"mode": "calibrate", "samples": 8, "seed": seed},
        "lemmas": {"seed": seed, "count": 100},
    }
    if workload == "march":
        cfg["time"] = {"T": 0.2, "rtol": 1e-8, "trace_stride": 1,
                       "checkpoint_times": CHECKPOINT_TIMES}
    elif workload == "picard":
        cfg["grid"] = {"n1": 128, "n2": 128}
        cfg["picard"] = {"weighted": True, "n_nodes": 64}
        cfg["constants"]["samples"] = 16
    elif workload == "lemmas":
        cfg["lemmas"]["count"] = LEMMAS_COUNT
    else:
        cfg["sweep"] = {"alphas": SWEEP_ALPHAS, "betas": SWEEP_BETAS, "T_short": 0.05}
    return cfg


@dataclass(frozen=True)
class Op:
    """One CLI command of an iteration."""

    name: str
    argv: list
    out: Path


def operations(workload: str, cfg_path: Path, out_dir: Path,
               threads: int = SWEEP_THREADS) -> list[Op]:
    """The command sequence of one iteration, writing under out_dir."""
    def op(name, out, *extra):
        return Op(name, [name, "--config", str(cfg_path), "--out", str(out), *extra], out)

    if workload == "march":
        sim = out_dir / "sim"
        return [op("simulate", sim), op("gevrey", out_dir / "gev", "--traj", str(sim))]
    if workload == "sweep":
        return [op("sweep", out_dir / "sweep", "--threads", str(threads))]
    return [op(workload, out_dir / workload)]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def check(op: Op, rc, cfg: dict) -> list[str]:
    if rc != 0:
        return [f"{op.name}: exit code {rc}"]
    try:
        return _CHECKS[op.name](op, cfg)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{op.name}: unreadable output ({exc})"]


def _check_simulate(op: Op, cfg: dict) -> list[str]:
    problems = []
    lines = (op.out / "trace.csv").read_text().splitlines()
    if lines[0] != TRACE_HEADER:
        problems.append(f"simulate: trace.csv header {lines[0]!r}")
    if len(lines) < 3:
        problems.append("simulate: trace.csv has fewer than two steps")
    states = sorted(p.name for p in op.out.glob("state_*.aqgs"))
    expected = [f"state_{i:04d}.aqgs" for i in range(len(cfg["time"]["checkpoint_times"]))]
    if states != sorted(expected + ["state_final.aqgs"]):
        problems.append(f"simulate: checkpoints {states}")
    return problems


def _check_gevrey(op: Op, cfg: dict) -> list[str]:
    lines = (op.out / "gevrey_report.csv").read_text().splitlines()
    traj = Path(op.argv[op.argv.index("--traj") + 1])
    n_states = len(list(traj.glob("state_*.aqgs")))
    problems = []
    if lines[0] != GEVREY_HEADER:
        problems.append(f"gevrey: header {lines[0]!r}")
    if len(lines) - 1 != n_states:
        problems.append(f"gevrey: {len(lines) - 1} rows for {n_states} checkpoints")
    return problems


def _check_picard(op: Op, cfg: dict) -> list[str]:
    report = {}
    for line in (op.out / "picard_report.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    return [f"picard: {flag} = {report.get(flag)}" for flag in PICARD_FLAGS
            if report.get(flag) != "true"]


def _check_lemmas(op: Op, cfg: dict) -> list[str]:
    blocks = {line[1:-1] for line in
              (op.out / "inequality_report.txt").read_text().splitlines()
              if line.startswith("[") and line.endswith("]")}
    return [f"lemmas: no block for {name}" for name in INEQUALITIES if name not in blocks]


def _check_sweep(op: Op, cfg: dict) -> list[str]:
    lines = (op.out / "sweep.csv").read_text().splitlines()
    problems = [] if lines[0] == SWEEP_HEADER else [f"sweep: header {lines[0]!r}"]
    points = [(a, b) for a in cfg["sweep"]["alphas"] for b in cfg["sweep"]["betas"]]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(points):
        return problems + [f"sweep: {len(rows)} rows for {len(points)} points"]
    for (a, b), row in zip(points, rows):
        if (float(row[0]), float(row[1])) != (a, b):
            problems.append(f"sweep: row {row[:2]} out of lattice order")
        if row[2] != expected_region(a, b):
            problems.append(f"sweep: ({a}, {b}) classified {row[2]}")
        if any(not math.isfinite(float(v)) for v in row[3:]):
            problems.append(f"sweep: non-finite entry at ({a}, {b})")
    return problems


_CHECKS = {"simulate": _check_simulate, "gevrey": _check_gevrey, "picard": _check_picard,
           "lemmas": _check_lemmas, "sweep": _check_sweep}


def expected_region(alpha: float, beta: float) -> str:
    """Region of the global-regularity plane for alpha > 1/2, from its definition."""
    if beta > 0.5:
        return "Y1"
    return "Y2" if beta > (1.0 - alpha) / (2.0 * alpha) else "outside"


def read_state(path: Path) -> np.ndarray:
    """Coefficients of a checkpoint file, parsed from the documented v1 layout."""
    raw = path.read_bytes()
    magic, version, n1, n2, *_ = _CHECKPOINT_HEADER.unpack_from(raw)
    if magic != b"AQGS" or version != 1:
        raise ValueError(f"{path.name}: not a v1 checkpoint")
    return np.frombuffer(raw, dtype="<c16", offset=_CHECKPOINT_HEADER.size).reshape(n1, n2).copy()
