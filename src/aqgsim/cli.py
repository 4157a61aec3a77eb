"""Batch entry point: simulate | picard | lemmas | sweep | gevrey subcommands.

Exit codes: 0 success, 1 config error, 2 solver abort (including a run that
runs out of memory, reported as one line "out of memory: ...", and an
interrupted run: `simulate` writes its trace and last accepted state first),
3 I/O failure, 4 inequality violation.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, _require_seed, echo_config, load_config
from .diagnostics import analyticity_radius_fit, build_gevrey_report, region_classify
from .grid import GridSpec, SpectralField, sine_sum_field
from .lemmas import (FieldEnsembleSpec, functional_inequality_suite,
                     random_band_limited_field, scalar_inequality_suite,
                     total_violations)
from .norms import _hs_norm, sobolev_norm
from .operators import DissipParams, RegimeWarning
from .solver import (ConstantsTable, PicardConfig, admits_horizon, calibrate_constants,
                     evolve, existence_time, picard_solve, weight_domination_slack,
                     weighted_picard_solve)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_VIOLATION = 4

SEEDED_COMMANDS = ("simulate", "picard", "sweep")  # the subcommands that read init.seed


def _fmt(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # np.float64 too, written as the plain float
        return repr(float(v))
    return str(v)


_SOURCE_KEYS = {"random": "init.spectrum_slope", "modes": "init.modes", "file": "init.path"}


def _require_finite_norms(coeffs, grid: GridSpec, s: float, key: str) -> None:
    """A ConfigError at `key` unless the L^2 and H^s norms of the coefficients
    are finite (so are the coefficients then); numpy's overflow warnings stay
    off stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(math.isfinite(_hs_norm(coeffs, grid, r)) for r in (0.0, s))
    if not finite:
        raise ConfigError(key, f"the initial field's L2 or H^{s:g} norm is not finite")


def build_initial_field(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    """The configured field, normalized and scaled. A field whose L^2 or H^s
    norm (s = params.s) is not finite is a config error: at the key the field
    came from when it is built so (normalizing it would silently give zero),
    else at `init.amplitude` when the scaling makes it so."""
    init = cfg.init
    if init["kind"] == "random":
        spec = FieldEnsembleSpec(grid, seed=init["seed"], count=1,
                                 kmax=init["kmax"],
                                 spectrum_slope=init["spectrum_slope"])
        f = random_band_limited_field(spec, 0)
    elif init["kind"] == "modes":
        f = sine_sum_field(grid, [(m["k"], m.get("amplitude", 1.0), m.get("phase", 0.0))
                                  for m in init["modes"]])
    else:
        cp = ckpt.read_checkpoint(init["path"])
        cp.require_grid(grid)
        f = cp.field
        if not f.is_mean_zero:
            raise ConfigError("init.path", "checkpoint field has a nonzero mean")
    s, source = cfg.params["s"], _SOURCE_KEYS[init["kind"]]
    _require_finite_norms(f.half, grid, s, source)
    if init["normalize"] is not None:
        n = sobolev_norm(f, s if init["normalize"] == "hs" else 0.0)
        if n > 0.0:
            f = f * (1.0 / n)
    if init["amplitude"] == 1.0:
        return f
    with np.errstate(over="ignore", invalid="ignore"):
        half = f.half * float(init["amplitude"])
    _require_finite_norms(half, grid, s, "init.amplitude")
    return SpectralField(grid, half)


def resolve_constants(cfg: RunConfig, p: DissipParams | list[DissipParams]
                      ) -> ConstantsTable | list[ConstantsTable]:
    """The run's constants table for p, or one table per entry of a list of
    parameter sets sharing s (one calibration pass serves them all)."""
    cs = cfg.constants
    if cs["mode"] == "calibrate":
        return calibrate_constants(p, n_samples=cs["samples"], seed=cs["seed"])
    table = ConstantsTable(cs["C1"], cs["C2"], cs["C3"], cs["C4"])
    return table if isinstance(p, DissipParams) else [table] * len(p)


def _prepare_out(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid_spec()
    p = cfg.dissip_params()
    theta0 = build_initial_field(cfg, grid)
    t = cfg.time
    cp_index = {"n": 0}

    def on_checkpoint(t_global: float, f: SpectralField) -> None:
        ckpt.write_checkpoint(out_dir / f"state_{cp_index['n']:04d}.aqgs", f, p, t_global)
        cp_index["n"] += 1

    result = evolve(theta0, t["T"], p, nonlinear=t["nonlinear"], rtol=t["rtol"], atol=t["atol"],
                    dt_fixed=t["dt_fixed"], dt_max=t["dt_max"], trace_stride=t["trace_stride"],
                    checkpoint_times=t["checkpoint_times"], on_checkpoint=on_checkpoint)
    (out_dir / "trace.csv").write_text(result.trace.to_csv())
    ckpt.write_checkpoint(out_dir / "state_final.aqgs", result.final, p, result.t_final)
    if result.aborted:
        print(f"solver aborted: {result.abort_reason}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_picard(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid_spec()
    p = cfg.dissip_params()
    theta0 = build_initial_field(cfg, grid)
    table = resolve_constants(cfg, p)
    norm0 = sobolev_norm(theta0, p.s)
    T0_lo, T0 = existence_time(norm0, p, table)
    with warnings.catch_warnings():  # the plain call has given the run's one RegimeWarning
        warnings.simplefilter("ignore", RegimeWarning)
        T1_lo, T1 = existence_time(norm0, p, table, weighted=True)
    pc = cfg.picard
    weighted = pc["weighted"]
    if pc["T"] is not None and not admits_horizon(pc["T"], T0_lo, T0):
        raise ConfigError("picard.T", f"{_fmt(pc['T'])} lies outside the existence interval "
                                      f"from T0_lo = {_fmt(T0_lo)} to T0 = {_fmt(T0)}")

    def horizon(lo, hi):  # picard.T caps a block's upper end; an unbounded one takes 1.0 or lo
        T = hi if pc["T"] is None else min(pc["T"], hi)
        return max(1.0, lo) if math.isinf(T) else T

    def solve_config(T):
        return PicardConfig(T=T, n_nodes=pc["n_nodes"], max_iter=pc["max_iter"], tol=pc["tol"])

    T_plain = horizon(T0_lo, T0)
    T_w = horizon(T1_lo, T1)
    # an empty smallness-condition set (possible off the symmetric axis when s >= 1,
    # or from the weighted e^T factor) or a capped horizon below it is a finding
    no_horizon = "existence conditions admit no positive horizon"
    lines = [f"regime = {p.regime}", f"theta0_hs = {_fmt(norm0)}", f"T0 = {_fmt(T0)}",
             f"T1 = {_fmt(T1)}"]
    if T_plain <= 0.0:
        lines += ["converged = false", f"note = {no_horizon}"]
        (out_dir / "picard_report.txt").write_text("\n".join(lines) + "\n")
        return EXIT_OK
    weighted_runs = weighted and admits_horizon(T_w, T1_lo, T1)
    # the Gevrey weight is a norm measured on the iterates, not a part of the
    # map, so on a shared horizon the weighted run's iteration is the plain one
    shared = weighted_runs and T_w == T_plain
    solve = weighted_picard_solve if shared else picard_solve
    rep = solve(theta0, solve_config(T_plain), p)
    lines += [
        f"T = {_fmt(T_plain)}",
        f"weighted = {_fmt(weighted)}",
        f"converged = {_fmt(rep.converged)}",
        f"iterations = {rep.iterations}",
        "distances = " + ", ".join(repr(d) for d in rep.distances),
        "contraction_ratios = " + ", ".join(repr(r) for r in rep.contraction_ratios),
        f"ball_sup_hs = {_fmt(rep.sup_hs)}",
        f"ball_bound = {_fmt(rep.bound)}",
        f"ball_within = {_fmt(rep.within)}",
    ]
    if rep.note:
        lines.append(f"note = {rep.note}")
    if weighted_runs:
        wrep = rep if shared else weighted_picard_solve(theta0, solve_config(T_w), p)
        lines += [
            f"weighted_T = {_fmt(T_w)}",
            f"weighted_converged = {_fmt(wrep.converged)}",
            f"weighted_iterations = {wrep.iterations}",
            f"weighted_sup = {_fmt(wrep.weighted_sup)}",
            f"weighted_within = {_fmt(wrep.weighted_within)}",
            f"weight_domination_slack = {_fmt(weight_domination_slack(p, T_w, grid))}",
        ]
    elif weighted:
        lines += [f"weighted_T = {_fmt(T_w)}", "weighted_converged = false",
                  f"weighted_note = {no_horizon}"]
    for name in ("C1", "C2", "C3", "C4"):
        lines.append(f"constants_{name} = {_fmt(getattr(table, name))}")
    (out_dir / "picard_report.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_lemmas(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid_spec()
    p = cfg.dissip_params()
    lm = cfg.lemmas
    spec = FieldEnsembleSpec(grid, seed=lm["seed"], count=lm["count"],
                             kmax=lm["kmax"], spectrum_slope=lm["spectrum_slope"])
    scalar = scalar_inequality_suite(p, lm["grid_density"])
    # the two lattice checks, last in the scalar suite, are written last
    reports = scalar[:-2] + functional_inequality_suite(spec, p) + scalar[-2:]
    lines = []
    for r in reports:
        lines.append(f"[{r.inequality}]")
        lines.append(f"exact_bound = {_fmt(r.exact_bound)}")
        lines.append(f"samples = {r.samples}")
        lines.append(f"skipped = {r.skipped}")
        lines.append(f"worst_ratio = {_fmt(r.worst_ratio)}")
        lines.append(f"empirical_constant = {_fmt(r.empirical_constant)}")
        lines.append(f"violations = {r.violations}")
        for ex in r.violation_examples:
            lines.append(f"violation_example = {ex}")
        if r.note:
            lines.append(f"note = {r.note}")
        lines.append("")
    (out_dir / "inequality_report.txt").write_text("\n".join(lines))
    bad = total_violations(reports)
    if bad:
        print(f"{bad} theorem-backed inequality violation(s); see "
              f"{out_dir / 'inequality_report.txt'}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_row(cfg: RunConfig, theta0: SpectralField, p: DissipParams,
               table: ConstantsTable) -> str:
    alpha, beta = p.alpha, p.beta
    region = region_classify(alpha, beta).value  # config keeps (alpha, beta) in (0, 1)^2
    try:
        _, T0 = existence_time(sobolev_norm(theta0, p.s), p, table)
        sw = cfg.sweep
        res = evolve(theta0, sw["T_short"], p, rtol=cfg.time["rtol"], atol=cfg.time["atol"],
                     trace_stride=10**9)
        if res.interrupted:
            raise KeyboardInterrupt
        if res.aborted:
            raise ArithmeticError(f"march aborted: {res.abort_reason}")
        hs_growth = res.trace.hs[-1] / res.trace.hs[0] if res.trace.hs[0] > 0 else math.nan
        fit = analyticity_radius_fit(res.final, theta0.dealiased(), p)
        rate1 = fit.rate1 if fit.rate1 is not None else math.nan
        rate2 = fit.rate2 if fit.rate2 is not None else math.nan
    except (ValueError, ArithmeticError) as exc:  # numerical failures are findings
        print(f"sweep point ({alpha}, {beta}) failed: {exc}", file=sys.stderr)
        T0 = hs_growth = rate1 = rate2 = math.nan
    return ",".join([repr(float(alpha)), repr(float(beta)), region, repr(float(T0)),
                     repr(float(hs_growth)), repr(float(rate1)), repr(float(rate2))])


def cmd_sweep(cfg: RunConfig, out_dir: Path, threads: int = 1) -> int:
    q = cfg.params
    lattice = [DissipParams(a, b, q["mu"], q["nu"], q["s"])
               for a in cfg.sweep["alphas"] for b in cfg.sweep["betas"]]
    # (alpha, beta) varies, s does not: the initial field and the calibration
    # samples are the same at every point, so both are built once, here
    theta0 = build_initial_field(cfg, cfg.grid_spec())
    points = list(zip(lattice, resolve_constants(cfg, lattice)))
    # the filter list is process-wide, so it is set once here and never per thread;
    # a lattice is expected to leave the guaranteed regime
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(lambda point: _sweep_row(cfg, theta0, *point), points))
        else:
            rows = [_sweep_row(cfg, theta0, *point) for point in points]
    header = "alpha,beta,region,T0,hs_growth,rate1,rate2"
    (out_dir / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
    return EXIT_OK


def cmd_gevrey(cfg: RunConfig, out_dir: Path, traj_dir: str) -> int:
    p = cfg.dissip_params()
    paths = sorted(Path(traj_dir).glob("state_*.aqgs"))
    if not paths:
        print(f"no state_*.aqgs checkpoints in {traj_dir}", file=sys.stderr)
        return EXIT_IO
    states = [ckpt.read_checkpoint(path) for path in paths]
    for cp in states:
        cp.require_params(p)
        cp.require_grid(states[0].grid)
    states.sort(key=lambda cp: cp.t)
    rep = build_gevrey_report([cp.t for cp in states], [cp.field for cp in states], p, p.s)
    lines = ["t,gevrey_hs,saturated,h2,rate1,rate2,fit_residual1,fit_residual2"]
    for t, g, h2, fit in zip(rep.times, rep.weighted_hs, rep.h2_trace, rep.fits):
        lines.append(",".join(_fmt(v) for v in (
            float(t), float(g), math.isinf(g), float(h2),
            fit.rate1, fit.rate2, fit.residual1, fit.residual2)))
    (out_dir / "gevrey_report.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aqgsim",
                                     description="anisotropic quasi-geostrophic "
                                                 "simulator and verification suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "march the flow and write a diagnostics trace"),
                      ("picard", "run the fixed-point construction and report"),
                      ("lemmas", "run the inequality verification suites"),
                      ("sweep", "scan an (alpha, beta) lattice"),
                      ("gevrey", "post-process a trajectory directory")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name in SEEDED_COMMANDS:
            p.add_argument("--seed", type=int, default=None, help="override init.seed")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="concurrent sweep points")
        if name == "gevrey":
            p.add_argument("--traj", required=True,
                           help="directory holding state_*.aqgs checkpoints")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        if args.command in SEEDED_COMMANDS and args.seed is not None:
            _require_seed(args.seed, "init.seed")
            cfg.init["seed"] = args.seed
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    try:
        out_dir = _prepare_out(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "picard":
            return cmd_picard(cfg, out_dir)
        if args.command == "lemmas":
            return cmd_lemmas(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, threads=args.threads)
        return cmd_gevrey(cfg, out_dir, args.traj)
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except KeyboardInterrupt:  # `simulate` ends an interrupted march itself, as an abort
        print(f"interrupted: {args.command} stopped before it finished", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # before CheckpointError: an unreadable checkpoint is both
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ckpt.CheckpointError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
