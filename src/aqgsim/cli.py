"""Batch entry point: simulate | picard | lemmas | sweep | gevrey subcommands.

Exit codes: 0 success, 1 config error, 2 solver abort, 3 I/O failure,
4 inequality violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, echo_config, load_config
from .diagnostics import analyticity_radius_fit, region_classify
from .grid import GridSpec, SpectralField, zero_field, sine_field
from .lemmas import (FieldEnsembleSpec, functional_inequality_suite,
                     random_band_limited_field, scalar_inequality_suite,
                     total_violations)
from .norms import gevrey_weighted_norm, sobolev_norm
from .operators import DissipParams
from .solver import (ConstantsTable, PicardConfig, calibrate_constants, evolve,
                     existence_time, picard_solve, weighted_picard_solve)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_VIOLATION = 4


def _fmt(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def build_initial_field(cfg: RunConfig, grid: GridSpec) -> SpectralField:
    init = cfg.init
    if init["kind"] == "random":
        spec = FieldEnsembleSpec(grid, seed=init["seed"], count=1,
                                 kmax=init["kmax"],
                                 spectrum_slope=init["spectrum_slope"])
        f = random_band_limited_field(spec, 0)
    elif init["kind"] == "modes":
        f = zero_field(grid)
        for m in init["modes"]:
            f = f + sine_field(grid, tuple(m["k"]), m.get("amplitude", 1.0),
                               m.get("phase", 0.0))
    else:
        cp = ckpt.read_checkpoint(init["path"])
        if cp.grid != grid:
            raise ckpt.CheckpointMismatchError("n1" if cp.grid.n1 != grid.n1 else "n2")
        f = cp.field
    if init["normalize"] is not None:
        s = cfg.params["s"] if init["normalize"] == "hs" else 0.0
        n = sobolev_norm(f, s)
        if n > 0.0:
            f = f * (1.0 / n)
    return f * init["amplitude"] if init["amplitude"] != 1.0 else f


def resolve_constants(cfg: RunConfig, p: DissipParams) -> ConstantsTable:
    cs = cfg.constants
    if cs["mode"] == "explicit":
        return ConstantsTable(cs["C1"], cs["C2"], cs["C3"], cs["C4"])
    return calibrate_constants(p, n_samples=cs["samples"], seed=cs["seed"])


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

    result = evolve(theta0, t["T"], p, cfl=t["cfl"], nonlinear=t["nonlinear"],
                    rtol=t["rtol"], atol=t["atol"], dt_fixed=t["dt_fixed"],
                    dt_max=t["dt_max"], trace_stride=t["trace_stride"],
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
    T0 = existence_time(norm0, p, table)
    T1 = existence_time(norm0, p, table, weighted=True)
    pc = cfg.picard
    weighted = pc["weighted"]

    def pick_T(horizon):
        T = pc["T"] if pc["T"] is not None else horizon
        return 1.0 if math.isinf(T) else T  # zero data: any horizon works

    T_plain = pick_T(T0)
    lines = [f"regime = {p.regime}", f"theta0_hs = {_fmt(norm0)}", f"T0 = {_fmt(T0)}",
             f"T1 = {_fmt(T1)}"]
    if T_plain <= 0.0:
        # empty smallness-condition set (possible off the symmetric axis when
        # s >= 1); a finding, not a crash
        lines += ["converged = false", "note = existence conditions admit no positive horizon"]
        (out_dir / "picard_report.txt").write_text("\n".join(lines) + "\n")
        return EXIT_OK
    rep = picard_solve(theta0, PicardConfig(T=T_plain, n_nodes=pc["n_nodes"],
                                            max_iter=pc["max_iter"], tol=pc["tol"]),
                       p, table)
    lines += [
        f"T = {_fmt(T_plain)}",
        f"weighted = {_fmt(weighted)}",
        f"converged = {_fmt(rep.converged)}",
        f"iterations = {rep.iterations}",
        "distances = " + ", ".join(repr(d) for d in rep.distances),
        "contraction_ratios = " + ", ".join(repr(r) for r in rep.contraction_ratios),
        f"ball_sup_hs = {_fmt(rep.ball_radius_check.sup_hs)}",
        f"ball_bound = {_fmt(rep.ball_radius_check.bound)}",
        f"ball_within = {_fmt(rep.ball_radius_check.within)}",
    ]
    if rep.note:
        lines.append(f"note = {rep.note}")
    if weighted:
        T_w = min(pick_T(T1), T1) if not math.isinf(T1) else pick_T(T1)
        wrep = weighted_picard_solve(
            theta0, PicardConfig(T=T_w, n_nodes=pc["n_nodes"],
                                 max_iter=pc["max_iter"], tol=pc["tol"], weighted=True),
            p, table)
        lines += [
            f"weighted_T = {_fmt(T_w)}",
            f"weighted_converged = {_fmt(wrep.converged)}",
            f"weighted_iterations = {wrep.iterations}",
            f"weighted_sup = {_fmt(wrep.ball_radius_check.weighted_sup)}",
            f"weighted_within = {_fmt(wrep.ball_radius_check.weighted_within)}",
            f"weight_domination_slack = {_fmt(wrep.weight_domination_slack)}",
        ]
    for name in ("C1", "C2", "C3", "C4"):
        lines.append(f"constants_{name} = {_fmt(getattr(table, name))}")
    (out_dir / "picard_report.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_lemmas(cfg: RunConfig, out_dir: Path, inject_fault: bool = False) -> int:
    grid = cfg.grid_spec()
    p = cfg.dissip_params()
    lm = cfg.lemmas
    spec = FieldEnsembleSpec(grid, seed=lm["seed"], count=lm["count"],
                             kmax=lm["kmax"], spectrum_slope=lm["spectrum_slope"])
    reports = scalar_inequality_suite(p, lm["grid_density"])
    reports += functional_inequality_suite(spec, p)
    if inject_fault:
        reports[0].merge_violation({"injected": True, "seed": lm["seed"]})
        reports[0].note += " [fault injected for testing]"
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


def _sweep_row(cfg: RunConfig, alpha: float, beta: float) -> str:
    try:
        region = region_classify(alpha, beta).value
    except ValueError:
        region = "outside"
    try:
        p = DissipParams(alpha, beta, cfg.params["mu"], cfg.params["nu"], cfg.params["s"])
        grid = cfg.grid_spec()
        theta0 = build_initial_field(cfg, grid)
        table = resolve_constants(cfg, p)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            T0 = existence_time(sobolev_norm(theta0, p.s), p, table)
        sw = cfg.sweep
        res = evolve(theta0, sw["T_short"], p, cfl=cfg.time["cfl"],
                     rtol=cfg.time["rtol"], atol=cfg.time["atol"],
                     trace_stride=10**9)
        hs_growth = res.trace.hs[-1] / res.trace.hs[0] if res.trace.hs[0] > 0 else math.nan
        fit = analyticity_radius_fit(res.final, theta0.dealiased(), sw["T_short"], p)
        rate1 = fit.rate1 if fit.rate1 is not None else math.nan
        rate2 = fit.rate2 if fit.rate2 is not None else math.nan
    except (ValueError, ArithmeticError) as exc:  # numerical failures are findings
        print(f"sweep point ({alpha}, {beta}) failed: {exc}", file=sys.stderr)
        T0 = hs_growth = rate1 = rate2 = math.nan
    return ",".join([repr(float(alpha)), repr(float(beta)), region, repr(float(T0)),
                     repr(float(hs_growth)), repr(float(rate1)), repr(float(rate2))])


def cmd_sweep(cfg: RunConfig, out_dir: Path, threads: int = 1) -> int:
    points = [(a, b) for a in cfg.sweep["alphas"] for b in cfg.sweep["betas"]]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda ab: _sweep_row(cfg, *ab), points))
    else:
        rows = [_sweep_row(cfg, a, b) for a, b in points]
    header = "alpha,beta,region,T0,hs_growth,rate1,rate2"
    (out_dir / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
    return EXIT_OK


def cmd_gevrey(cfg: RunConfig, out_dir: Path, traj_dir: str) -> int:
    p = cfg.dissip_params()
    s = p.s
    paths = sorted(Path(traj_dir).glob("state_*.aqgs"))
    if not paths:
        print(f"no state_*.aqgs checkpoints in {traj_dir}", file=sys.stderr)
        return EXIT_IO
    states = [ckpt.read_checkpoint(path) for path in paths]
    states.sort(key=lambda cp: cp.t)
    base = states[0]
    lines = ["t,gevrey_hs,saturated,h2,rate1,rate2,fit_residual1,fit_residual2"]
    for cp in states:
        g = gevrey_weighted_norm(cp.field, cp.t, s, p)
        fit = analyticity_radius_fit(cp.field, base.field, cp.t - base.t, p)
        lines.append(",".join([
            repr(float(cp.t)), repr(float(g.value)), _fmt(g.saturated),
            repr(float(sobolev_norm(cp.field, 2.0))),
            repr(float(fit.rate1)) if fit.rate1 is not None else "nan",
            repr(float(fit.rate2)) if fit.rate2 is not None else "nan",
            repr(float(fit.residual1)), repr(float(fit.residual2))]))
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
        p.add_argument("--seed", type=int, default=None, help="override init.seed")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="concurrent sweep points")
        if name == "lemmas":
            p.add_argument("--inject-fault", action="store_true",
                           help=argparse.SUPPRESS)
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
        if args.seed is not None:
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
            return cmd_lemmas(cfg, out_dir, inject_fault=args.inject_fault)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, threads=args.threads)
        return cmd_gevrey(cfg, out_dir, args.traj)
    except OSError as exc:  # before CheckpointError: an unreadable checkpoint is both
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ckpt.CheckpointError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
