"""CLI subcommands, config validation, output schemas, exit codes."""

import json
import math

import pytest

from aqgsim.cli import main
from aqgsim.config import ConfigError, validate_config

BASE = {
    "grid": {"n1": 32, "n2": 32},
    "params": {"alpha": 0.75, "beta": 0.75, "mu": 1.0, "nu": 1.0, "s": 1.0},
    "init": {"kind": "random", "seed": 3, "kmax": 8, "spectrum_slope": 2.5,
             "normalize": "l2", "amplitude": 0.3},
    "time": {"T": 0.2, "dt_fixed": 0.002, "checkpoint_times": [0.1]},
    "constants": {"mode": "explicit", "C1": 0.25, "C2": 0.12, "C3": 0.05, "C4": 0.02},
    "lemmas": {"count": 5, "grid_density": 100, "kmax": 8},
    "sweep": {"alphas": [0.6, 0.75, 0.9], "betas": [0.6, 0.75, 0.9], "T_short": 0.02},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE))
    for section, values in (overrides or {}).items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_validate_fills_defaults():
    cfg = validate_config({"grid": {"n1": 32, "n2": 32}})
    assert cfg.time["cfl"] == 0.4
    assert cfg.picard["n_nodes"] == 32


def test_validate_reports_key_path():
    with pytest.raises(ConfigError) as err:
        validate_config({"params": {"alpha": 1.5}})
    assert err.value.path == "params.alpha"
    with pytest.raises(ConfigError, match="grid.n1"):
        validate_config({"grid": {"n1": 33, "n2": 32}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"time": {"bogus": 1}})
    with pytest.raises(ConfigError, match="time.checkpoint_times"):
        validate_config({"time": {"T": 1.0, "checkpoint_times": [2.0]}})


def test_validate_rejects_non_finite_numbers():
    with pytest.raises(ConfigError) as err:
        validate_config({"time": {"T": 1.0, "checkpoint_times": [0.5, -math.inf]}})
    assert err.value.path == "time.checkpoint_times[1]"
    with pytest.raises(ConfigError, match="finite"):
        validate_config({"init": {"kind": "modes", "modes": [{"k": [1, 0],
                                                              "amplitude": math.nan}]}})


@pytest.mark.parametrize("command, overrides, key", [
    ("picard", {"params": {"s": math.nan}}, "params.s"),
    ("simulate", {"time": {"T": math.inf}}, "time.T"),
])
def test_non_finite_config_number_exit_1(tmp_path, capsys, command, overrides, key):
    cfg = write_config(tmp_path, overrides)
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def test_validate_explicit_constants_required():
    with pytest.raises(ConfigError, match="constants.C2"):
        validate_config({"constants": {"mode": "explicit", "C1": 1.0}})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,l2,hs,h2,gevrey_hs,diss1,diss2,max_u,dt"
    assert (out / "state_0000.aqgs").exists()
    assert (out / "state_final.aqgs").exists()
    assert json.loads((out / "config.json").read_text())["grid"]["n1"] == 32


def test_simulate_rerun_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    states = sorted(p.name for p in out1.glob("state_*.aqgs"))
    assert states == ["state_0000.aqgs", "state_final.aqgs"]
    assert states == sorted(p.name for p in out2.glob("state_*.aqgs"))
    for name in states:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_linear_flag_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path, {"time": {"nonlinear": False, "dt_fixed": None,
                                           "checkpoint_times": []},
                                  "init": {"kind": "modes", "normalize": None,
                                           "amplitude": 1.0,
                                           "modes": [{"k": [1, 0], "amplitude": 1.0}]}})
    out = tmp_path / "lin"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    last = rows[-1].split(",")
    t, l2 = float(last[0]), float(last[1])
    assert t == pytest.approx(0.2, rel=1e-12)
    assert l2 == pytest.approx(math.exp(-t) / math.sqrt(2.0), rel=1e-10)


def test_simulate_invalid_config_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"alpha": 1.5}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "params.alpha" in capsys.readouterr().err


def test_simulate_solver_abort_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"init": {"amplitude": 1e9, "normalize": None},
                                  "time": {"T": 50.0, "dt_fixed": 1.0,
                                           "checkpoint_times": []}})
    out = tmp_path / "blow"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


def test_simulate_from_checkpoint_file(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "first"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    cfg2 = write_config(tmp_path, {"init": {"kind": "file", "normalize": None,
                                            "amplitude": 1.0,
                                            "path": str(out / "state_final.aqgs")},
                                   "time": {"checkpoint_times": []}},
                        name="resume.json")
    assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "resumed")]) == 0


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_picard_single_mode_report(tmp_path):
    cfg = write_config(tmp_path, {"init": {"kind": "modes", "normalize": None,
                                           "amplitude": 1.0,
                                           "modes": [{"k": [1, 0], "amplitude": 1.0}]},
                                  "picard": {"n_nodes": 9}})
    out = tmp_path / "pic"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rep = parse_report(out / "picard_report.txt")
    assert rep["converged"] == "true"
    assert rep["iterations"] == "1"
    assert float(rep["distances"].split(",")[0]) < 1e-13
    assert rep["ball_within"] == "true"
    assert rep["regime"] == "guaranteed"


def test_picard_weighted_horizon_below_log32(tmp_path):
    cfg = write_config(tmp_path, {"picard": {"weighted": True, "n_nodes": 9}})
    out = tmp_path / "picw"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rep = parse_report(out / "picard_report.txt")
    assert float(rep["T1"]) < 0.40547
    assert float(rep["weighted_T"]) < 0.40547
    assert rep["converged"] == "true"  # plain run is always reported
    assert rep["weighted_converged"] == "true"
    assert rep["weighted_within"] == "true"


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------


def test_picard_empty_horizon_is_a_finding(tmp_path):
    # with s >= 1 and 4 beta <= 2 alpha + 1 the four-term condition has a
    # negative exponent; at unit data norm no positive horizon satisfies it
    cfg = write_config(tmp_path, {"params": {"alpha": 0.75, "beta": 0.6},
                                  "init": {"normalize": "hs", "amplitude": 1.0}})
    out = tmp_path / "empty"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rep = parse_report(out / "picard_report.txt")
    assert float(rep["T0"]) == 0.0
    assert rep["converged"] == "false"
    assert "no positive horizon" in rep["note"]


def test_picard_rerun_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["picard", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["picard", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "picard_report.txt").read_bytes() == \
        (out2 / "picard_report.txt").read_bytes()


def test_lemmas_clean_exit_0(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "lem"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "inequality_report.txt").read_text()
    assert "[calderon_zygmund_p2]" in report
    for line in report.splitlines():
        if line.startswith("violations"):
            assert line == "violations = 0"


def test_lemmas_fault_injection_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "lemf"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out),
                 "--inject-fault"]) == 4
    assert "violation" in capsys.readouterr().err
    assert "fault injected" in (out / "inequality_report.txt").read_text()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_y1_lattice(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "alpha,beta,region,T0,hs_growth,rate1,rate2"
    assert len(rows) == 10
    assert all(row.split(",")[2] == "Y1" for row in rows[1:])


def test_sweep_outside_row_and_determinism(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"alphas": [0.4], "betas": [0.5]}})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    rows = (out1 / "sweep.csv").read_text().splitlines()
    assert rows[1].split(",")[2] == "outside"
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_threads_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def _sweep_with_failing_evolve(tmp_path, monkeypatch, exc_type):
    """Sweep alphas (0.6, 0.9) at beta 0.75 with evolve raising at alpha = 0.9."""
    import aqgsim.cli as cli

    real_evolve = cli.evolve

    def evolve(theta0, T, p, **kwargs):
        if p.alpha == 0.9:
            raise exc_type("injected failure")
        return real_evolve(theta0, T, p, **kwargs)

    monkeypatch.setattr(cli, "evolve", evolve)
    cfg = write_config(tmp_path, {"sweep": {"alphas": [0.6, 0.9], "betas": [0.75]}})
    out = tmp_path / "sw"
    out.mkdir()
    return cli.cmd_sweep(cli.load_config(str(cfg)), out), out


def test_sweep_numerical_failure_is_a_nan_row(tmp_path, monkeypatch, capsys):
    rc, out = _sweep_with_failing_evolve(tmp_path, monkeypatch, ValueError)
    assert rc == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.6", "0.9"]
    assert all(v != "nan" for v in rows[0][3:])
    assert rows[1][3:] == ["nan"] * 4
    assert "sweep point (0.9, 0.75) failed: injected failure" in capsys.readouterr().err


def test_sweep_programming_error_propagates(tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="injected failure"):
        _sweep_with_failing_evolve(tmp_path, monkeypatch, TypeError)


# ---------------------------------------------------------------------------
# gevrey post-processing
# ---------------------------------------------------------------------------


def test_gevrey_postprocess(tmp_path):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    out = tmp_path / "gev"
    assert main(["gevrey", "--config", str(cfg), "--out", str(out),
                 "--traj", str(sim)]) == 0
    rows = (out / "gevrey_report.csv").read_text().splitlines()
    assert rows[0] == "t,gevrey_hs,saturated,h2,rate1,rate2,fit_residual1,fit_residual2"
    assert len(rows) >= 3
    times = [float(r.split(",")[0]) for r in rows[1:]]
    assert times == sorted(times)


def test_gevrey_missing_dir_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gevrey", "--config", str(cfg), "--out", str(tmp_path / "g"),
                 "--traj", str(tmp_path / "nothing")]) == 3


def test_gevrey_unreadable_checkpoint_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    (sim / "state_0000.aqgs").mkdir(parents=True)
    assert main(["gevrey", "--config", str(cfg), "--out", str(tmp_path / "g"),
                 "--traj", str(sim)]) == 3
    assert "I/O failure" in capsys.readouterr().err
