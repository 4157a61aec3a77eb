"""CLI subcommands, config validation, output schemas, exit codes."""

import contextlib
import io
import json
import math
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqgsim.cli import main
from aqgsim.config import (DEFAULTS, GRID_DENSITY_MAX, ConfigError, RunConfig, load_config,
                           validate_config)
from aqgsim.operators import RegimeWarning

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


@contextlib.contextmanager
def one_regime_warning():
    """The block gives exactly one warning, a RegimeWarning."""
    with pytest.warns(RegimeWarning) as record:
        yield
    assert [w.category for w in record] == [RegimeWarning]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_validate_fills_defaults():
    cfg = validate_config({"grid": {"n1": 32, "n2": 32}})
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
    with pytest.raises(ConfigError) as err:
        validate_config({"init": {"kind": "modes",
                                  "modes": [{"k": [1, 0], "amplitud": 5.0}]}})
    assert err.value.path == "init.modes[0].amplitud"
    assert "unknown key" in str(err.value)


@pytest.mark.parametrize("key", ["init.seed", "constants.seed", "lemmas.seed", "init.kmax",
                                 "time.trace_stride", "picard.max_iter", "constants.samples",
                                 "lemmas.count", "lemmas.kmax"])
def test_json_true_is_not_a_config_integer(key):
    section, name = key.split(".")
    with pytest.raises(ConfigError) as err:
        validate_config({section: {name: True}})
    assert err.value.path == key


def test_validate_rejects_non_finite_numbers():
    with pytest.raises(ConfigError) as err:
        validate_config({"time": {"T": 1.0, "checkpoint_times": [0.5, -math.inf]}})
    assert err.value.path == "time.checkpoint_times[1]"
    with pytest.raises(ConfigError, match="finite"):
        validate_config({"init": {"kind": "modes", "modes": [{"k": [1, 0],
                                                              "amplitude": math.nan}]}})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["random", "modes", "file", "hs", "l2", "calibrate", "explicit", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "amplitude", "phase", "x"]), inner, max_size=3),
    max_leaves=8)


def config_documents():
    """Any JSON value, or an object whose sections hold known keys with any JSON values."""
    sections = {name: st.dictionaries(st.sampled_from([*keys, "x"]), JSON_VALUES,
                                      max_size=len(keys))
                for name, keys in DEFAULTS.items()}
    return JSON_VALUES | st.fixed_dictionaries({}, optional=sections)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(config_documents())
def test_any_json_document_is_a_config_or_a_config_error(doc):
    try:
        cfg = validate_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.binary())
def test_any_bytes_load_as_config_or_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_bytes(raw)
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("raw", [b'\xff\xfe{"grid": {}}', b"[" * 100_000],
                         ids=["not-utf8", "deep-nesting"])
def test_unparsable_config_bytes_exit_1(tmp_path, capsys, raw):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(raw)
    assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert f"config error at {cfg}: invalid JSON" in capsys.readouterr().err


def test_unreadable_config_exit_1(tmp_path, capsys):
    """A config path naming a directory is a config error at that path."""
    cfg = tmp_path / "d"
    cfg.mkdir()
    assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert f"config error at {cfg}: cannot read config: " in capsys.readouterr().err


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


def test_time_cfl_is_an_unknown_key(tmp_path, capsys):
    # the error test alone sets the adaptive step; there is no CFL number to set
    cfg = write_config(tmp_path, {"time": {"cfl": 0.4}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "config error at time.cfl: unknown key" in capsys.readouterr().err


def test_duplicate_checkpoint_times_exit_1(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        validate_config({"time": {"T": 1.0, "checkpoint_times": [0.5, 0.25, 0.5]}})
    assert err.value.path == "time.checkpoint_times"
    cfg = write_config(tmp_path, {"time": {"checkpoint_times": [0.02, 0.02]}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "time.checkpoint_times" in err and "distinct" in err


def test_validate_explicit_constants_required():
    with pytest.raises(ConfigError, match="constants.C2"):
        validate_config({"constants": {"mode": "explicit", "C1": 1.0}})


@pytest.mark.parametrize("shape, k, message", [
    ((16, 16), [40, 0], "outside retained wavenumbers"),
    ((16, 16), [0, -9], "outside retained wavenumbers"),
    ((16, 24), [9, 12], "outside retained wavenumbers"),
    ((16, 16), [0, 0], "self-conjugate"),
    ((16, 16), [8, 0], "self-conjugate"),
    ((16, 16), [0, -8], "self-conjugate"),
    ((16, 16), [-8, 8], "self-conjugate"),
    ((16, 24), [8, -12], "self-conjugate"),
])
def test_init_mode_k_validated(tmp_path, capsys, shape, k, message):
    """A mode beyond n/2 is not on the grid, and a self-conjugate one (each
    component 0 or n/2) has no conjugate partner to make a sine real."""
    grid = {"n1": shape[0], "n2": shape[1]}
    modes = [{"k": [1, 2]}, {"k": k}]
    with pytest.raises(ConfigError) as err:
        validate_config({"grid": grid, "init": {"kind": "modes", "kmax": 5, "modes": modes},
                         "lemmas": {"kmax": 5}})
    assert err.value.path == "init.modes[1].k" and message in str(err.value)
    cfg = write_config(tmp_path, {"grid": grid, "init": {"kind": "modes", "modes": modes,
                                                          "kmax": 5},
                                  "lemmas": {"kmax": 5}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "init.modes[1].k" in err and message in err


@pytest.mark.parametrize("k", [[8, 3], [-8, 3]])
def test_init_mode_on_nyquist_row_runs(tmp_path, k):
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16}, "lemmas": {"kmax": 5},
                                  "init": {"kind": "modes", "kmax": 5, "modes": [{"k": k}]}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0


def test_init_modes_build_one_field_with_the_bits_of_the_per_mode_sum(monkeypatch):
    """300 modes, some named twice and some beside their conjugate -k, give the
    bytes of a sum of one sine_field per mode, from a fixed number of
    `SpectralField` constructions."""
    import aqgsim.cli as cli
    from aqgsim.grid import GridSpec, SpectralField, sine_field, zero_field

    rng = np.random.default_rng(5)
    ks = [k for k in rng.integers(-31, 32, size=(300, 2)).tolist() if k != [0, 0]][:296]
    modes = [{"k": k, "amplitude": a, "phase": ph}
             for k, a, ph in zip(ks, rng.uniform(-2.0, 2.0, 296).tolist(),
                                 rng.uniform(-4.0, 4.0, 296).tolist())]
    modes += [{"k": [3, -4]}, {"k": [-3, 4], "amplitude": 2}, {"k": [3, -4], "phase": 1},
              {"k": ks[0], "amplitude": 0.5}]
    cfg = validate_config({"grid": {"n1": 64, "n2": 64},
                           "init": {"kind": "modes", "modes": modes, "normalize": None}})
    grid = GridSpec(64, 64)
    expected = zero_field(grid)
    for m in modes:
        expected = expected + sine_field(grid, tuple(m["k"]), m.get("amplitude", 1.0),
                                         m.get("phase", 0.0))
    calls = []
    post_init = SpectralField.__post_init__
    monkeypatch.setattr(SpectralField, "__post_init__", lambda f: calls.append(1) or post_init(f))
    f = cli.build_initial_field(cfg, grid)
    assert len(calls) <= 2
    assert f.half.tobytes() == expected.half.tobytes()


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


def test_simulate_writes_every_requested_checkpoint(tmp_path):
    """A checkpoint time just above 0 is hit like any other: each requested time
    gets its own state file, stamped with that time, in order."""
    from aqgsim.checkpoint import read_checkpoint

    cfg = write_config(tmp_path, {"time": {"T": 0.01, "checkpoint_times": [1e-15, 0.005]}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    states = sorted(p.name for p in out.glob("state_*.aqgs"))
    assert states == ["state_0000.aqgs", "state_0001.aqgs", "state_final.aqgs"]
    assert [read_checkpoint(out / name).t for name in states] == [1e-15, 0.005, 0.01]


@pytest.mark.parametrize("command", ["simulate", "picard", "lemmas", "sweep", "gevrey"])
def test_rerun_bit_identical(tmp_path, command):
    cfg = write_config(tmp_path)
    extra = []
    if command == "gevrey":  # both runs read one trajectory directory
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        extra = ["--traj", str(sim)]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) >= 2 and names == sorted(p.name for p in out2.iterdir())
    for name in names:
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


@pytest.mark.parametrize("command", ["simulate", "picard", "sweep"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    """A MemoryError from the solver (numpy raises its _ArrayMemoryError, a
    subclass) ends the run with exit 2 and one line, not a traceback. The
    solver entry points are replaced, so nothing large is allocated."""
    import aqgsim.cli as cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (2**20, 2**20)")

    monkeypatch.setattr(cli, "picard_solve", out_of_memory)
    monkeypatch.setattr(cli, "evolve", out_of_memory)
    cfg = write_config(tmp_path, {"picard": {"n_nodes": 9},
                                  "sweep": {"alphas": [0.75], "betas": [0.75]}})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 16.0 TiB for an array with shape (2**20, 2**20)\n"


def test_simulate_large_adaptive_start_aborts_at_once(tmp_path, capsys):
    """The first adaptive step from an amplitude-1e9 field overflows, so the run
    ends at t = 0 with exit 2 and a two-row trace."""
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16},
                                  "init": {"kmax": 4, "amplitude": 1e9, "normalize": None},
                                  "lemmas": {"kmax": 4},
                                  "time": {"T": 0.05, "dt_fixed": None,
                                           "checkpoint_times": []}})
    out = tmp_path / "blow"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "solver aborted: non-finite state at t=0\n" in capsys.readouterr().err
    assert len((out / "trace.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("command, overrides, rc, key", [
    ("picard", {"params": {"s": 400.0}}, 1, "params.s"),
    ("picard", {"params": {"s": -5000.0}}, 1, "params.s"),
    ("picard", {"params": {"s": 10**400}}, 1, "params.s"),
    ("picard", {"params": {"s": -50.0}}, 0, None),
    ("picard", {"params": {"alpha": 1e-300}}, 0, None),
    ("picard", {"params": {"alpha": 5e-324}}, 0, None),
    ("simulate", {"init": {"spectrum_slope": -1e6}}, 1, "init.spectrum_slope"),
    # the squared product of two lemma samples, bounded by (N A)^4 (1 + 8 kmax^2)^2
    # with N = 120 modes and A = (5 sqrt 2)^-slope at kmax 5, leaves the float
    # range below slope -86.9; above it the run exits 0, so no ratio is NaN
    ("lemmas", {"lemmas": {"kmax": 5, "spectrum_slope": -150.0}}, 1, "lemmas.spectrum_slope"),
    ("lemmas", {"lemmas": {"kmax": 5, "spectrum_slope": -87.0}}, 1, "lemmas.spectrum_slope"),
    ("lemmas", {"lemmas": {"kmax": 5, "spectrum_slope": -86.0}}, 0, None),
], ids=["s=400", "s=-5000", "s=1e400", "s=-50", "alpha=1e-300", "alpha=5e-324",
        "spectrum_slope=-1e6", "lemmas_slope=-150", "lemmas_slope=-87", "lemmas_slope=-86"])
def test_overflowing_scalar_input_is_not_a_traceback(tmp_path, capsys, command, overrides,
                                                     rc, key):
    # a scalar power of each input leaves the float range; that must end in an exit
    # code, and where it makes the run meaningless, in a config error naming the key
    small = {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5}, "lemmas": {"kmax": 5},
             "constants": {"mode": "calibrate", "samples": 2}, "picard": {"n_nodes": 8}}
    for section, values in overrides.items():
        small[section] = {**small.get(section, {}), **values}
    cfg = write_config(tmp_path, small)
    # a picard run that reaches the existence time outside the regime warns once
    unguaranteed = command == "picard" and rc == 0
    with one_regime_warning() if unguaranteed else contextlib.nullcontext():
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == rc
    if key is not None:
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides", [
    ("picard", {"params": {"alpha": 1e-9, "beta": 1e-9, "s": 1.0}}),
    ("picard", {"params": {"alpha": 1e-6, "beta": 1e-6, "s": 0.5}}),
    ("sweep", {"sweep": {"alphas": [1e-9], "betas": [1e-9]}}),
], ids=["picard-1e-9", "picard-1e-6-s0.5", "sweep-1e-9"])
def test_calibration_at_vanishing_exponents_exits_0(tmp_path, command, overrides):
    """At alpha = beta near 0 the power sum sum_i T^{a_i} of the low-regularity
    condition, with a_i near -1/(2 alpha), underflows to 0.0 at the calibration
    horizons; there it bounds nothing, and the run ends with exit code 0."""
    small = {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5}, "lemmas": {"kmax": 5},
             "constants": {"mode": "calibrate", "samples": 2}, "picard": {"n_nodes": 8},
             **overrides}
    cfg = write_config(tmp_path, small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("s, mode, ok", [(146.0, "explicit", True), (147.0, "explicit", False),
                                         (93.0, "calibrate", True), (94.0, "calibrate", False)])
def test_params_s_bounded_by_run_and_calibration_grids(s, mode, ok):
    """(1+|k|^2)^s stays a float at the 16^2 corner |k|^2 = 128 up to s = 146, and
    at the 64^2 calibration corner |k|^2 = 2048 up to s = 93."""
    doc = {"grid": {"n1": 16, "n2": 16}, "params": {"s": s}, "init": {"kmax": 5},
           "lemmas": {"kmax": 5}, "constants": BASE["constants"] | {"mode": mode}}
    if ok:
        validate_config(doc)
    else:
        with pytest.raises(ConfigError, match="params.s"):
            validate_config(doc)


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


@pytest.mark.parametrize("command, output", [
    ("simulate", "trace.csv"), ("picard", "picard_report.txt"), ("sweep", "sweep.csv")])
def test_nonzero_mean_checkpoint_names_init_path(tmp_path, capsys, command, output):
    from aqgsim.checkpoint import write_checkpoint
    from aqgsim.grid import GridSpec, SpectralField, sine_field
    from aqgsim.operators import DissipParams

    half = sine_field(GridSpec(16, 16), (1, 0)).half.copy()
    half[0, 0] = 0.3
    state = tmp_path / "mean.aqgs"
    write_checkpoint(state, SpectralField(GridSpec(16, 16), half), DissipParams(0.75, 0.75), 0.0)
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16},
                                  "init": {"kind": "file", "path": str(state), "kmax": 5},
                                  "lemmas": {"kmax": 5}})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error at init.path" in capsys.readouterr().err
    assert not (out / output).exists()


_OUTPUTS = {"simulate": "trace.csv", "picard": "picard_report.txt", "sweep": "sweep.csv"}


def _huge_state(tmp_path):
    """A 16^2 checkpoint of 1e300 sin(x1), whose squared coefficients overflow."""
    from aqgsim.checkpoint import write_checkpoint
    from aqgsim.grid import GridSpec, sine_field
    from aqgsim.operators import DissipParams

    state = tmp_path / "huge.aqgs"
    write_checkpoint(state, sine_field(GridSpec(16, 16), (1, 0), 1e300),
                     DissipParams(0.75, 0.75), 0.0)
    return {"kind": "file", "path": str(state), "normalize": None, "amplitude": 1.0}


@pytest.mark.parametrize("command", ["simulate", "picard", "sweep"])
@pytest.mark.parametrize("init, key", [
    ({"amplitude": 1e300, "normalize": "hs"}, "init.amplitude"),  # the norm overflows
    ({"kind": "modes", "modes": [{"k": [1, 0], "amplitude": 100.0}], "normalize": None,
      "amplitude": 1e307}, "init.amplitude"),  # the coefficients themselves overflow
    ({"kind": "modes", "modes": [{"k": [1, 0], "amplitude": 1e300}], "normalize": "hs",
      "amplitude": 1.0}, "init.modes"),  # normalizing would give the zero field
    (_huge_state, "init.path"),
], ids=["amplitude_norm", "amplitude_coefficients", "modes", "path"])
def test_initial_field_with_non_finite_norm_names_the_key(tmp_path, capsys, command, init, key):
    """A field whose L2 or H^s norm overflows is a config error at the key that
    made it so, with no numpy warning and no output file."""
    init = init(tmp_path) if callable(init) else init
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5, **init},
                                  "lemmas": {"kmax": 5}, "picard": {"n_nodes": 8},
                                  "sweep": {"alphas": [0.75], "betas": [0.75]}})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {key}: ") and "Warning" not in err
    assert not (out / _OUTPUTS[command]).exists()


def test_interrupted_simulate_writes_trace_and_last_state(tmp_path, capsys, monkeypatch):
    """An interrupt from the first checkpoint write ends the march as an abort at
    that checkpoint: exit 2, a trace whose last row is that state, and the
    state itself as state_final.aqgs."""
    import aqgsim.cli as cli
    from aqgsim.checkpoint import read_checkpoint

    write = cli.ckpt.write_checkpoint
    calls = []

    def interrupted_once(path, *args):
        calls.append(path)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return write(path, *args)

    monkeypatch.setattr(cli.ckpt, "write_checkpoint", interrupted_once)
    cfg = write_config(tmp_path)  # T = 0.2, a checkpoint at 0.1
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "solver aborted: interrupted at t=0.1\n"
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0].startswith("t,") and float(rows[-1].split(",")[0]) == 0.1
    assert all(len(row.split(",")) == len(rows[0].split(",")) for row in rows)
    assert read_checkpoint(out / "state_final.aqgs").t == 0.1
    assert not (out / "state_0000.aqgs").exists()


@pytest.mark.parametrize("command", ["picard", "sweep"])
def test_interrupt_outside_the_march_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                          command):
    """An interrupt in calibration ends the run with exit 2 and one line."""
    import aqgsim.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "calibrate_constants", interrupt)
    cfg = write_config(tmp_path, {"constants": {"mode": "calibrate", "samples": 2},
                                  "sweep": {"alphas": [0.75], "betas": [0.75]}})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"interrupted: {command} stopped before it finished\n"
    assert not (out / _OUTPUTS[command]).exists()


def test_interrupted_sweep_march_stops_the_sweep(tmp_path, capsys, monkeypatch):
    """A march that ends interrupted stops the sweep, rather than becoming a
    failed point that the sweep passes over."""
    import aqgsim.cli as cli

    real_evolve, marches = cli.evolve, []

    def interrupted_evolve(theta0, T, p, **kwargs):
        marches.append(p)

        def interrupt(t, f):
            raise KeyboardInterrupt

        return real_evolve(theta0, T, p, checkpoint_times=[T / 2], on_checkpoint=interrupt,
                           **kwargs)

    monkeypatch.setattr(cli, "evolve", interrupted_evolve)
    cfg = write_config(tmp_path, {"sweep": {"alphas": [0.6, 0.9], "betas": [0.75]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "interrupted: sweep stopped before it finished\n"
    assert len(marches) == 1 and not (out / "sweep.csv").exists()


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


def _count_picard_runs(monkeypatch):
    """Wrap the solves the CLI binds; the returned list names each run made."""
    import aqgsim.cli as cli

    runs = []
    for name in ("picard_solve", "weighted_picard_solve"):
        def counting(*args, _solve=getattr(cli, name), _name=name):
            runs.append(_name)
            return _solve(*args)
        monkeypatch.setattr(cli, name, counting)
    return runs


@pytest.mark.parametrize("overrides, expected", [
    # T0 == T1: one weighted iteration serves both blocks
    ({"picard": {"weighted": True, "n_nodes": 9}}, ["weighted_picard_solve"]),
    # e^T < 3/2 caps T1 below T0: two horizons, two runs
    ({"params": {"alpha": 0.55, "beta": 0.95, "s": 1.5}, "init": {"amplitude": 0.05},
      "picard": {"weighted": True, "n_nodes": 5, "max_iter": 3}},
     ["picard_solve", "weighted_picard_solve"]),
    ({"picard": {"weighted": False, "n_nodes": 9}}, ["picard_solve"]),
])
def test_picard_one_run_per_distinct_horizon(tmp_path, monkeypatch, overrides, expected):
    runs = _count_picard_runs(monkeypatch)
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "runs"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    assert runs == expected


def test_picard_solves_the_smallness_conditions_only_in_the_cli(tmp_path, monkeypatch):
    """cmd_picard solves the plain (2) and weighted (4) conditions at s = 1; the
    shared iteration itself solves none."""
    import aqgsim.solver as solver

    calls = []
    solve = solver.solve_time_condition

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_time_condition", counting)
    runs = _count_picard_runs(monkeypatch)
    cfg = write_config(tmp_path, {"picard": {"weighted": True, "n_nodes": 9}})
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "calls")]) == 0
    assert runs == ["weighted_picard_solve"]
    assert len(calls) == 6


def test_picard_shared_run_matches_separate_solves(tmp_path):
    import aqgsim.cli as cli
    from aqgsim.cli import _fmt
    from aqgsim.config import load_config
    from aqgsim.norms import sobolev_norm
    from aqgsim.solver import (PicardConfig, picard_solve, weight_domination_slack,
                               weighted_picard_solve)

    cfg_path = write_config(tmp_path, {"picard": {"weighted": True, "n_nodes": 9}})
    out = tmp_path / "shared"
    assert main(["picard", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "picard_report.txt").read_text().splitlines()
    rep = parse_report(out / "picard_report.txt")
    assert rep["T"] == rep["weighted_T"]

    cfg = load_config(str(cfg_path))
    p = cfg.dissip_params()
    theta0 = cli.build_initial_field(cfg, cfg.grid_spec())
    T = float(rep["T"])
    pc = dict(n_nodes=9, max_iter=cfg.picard["max_iter"], tol=cfg.picard["tol"])
    plain = picard_solve(theta0, PicardConfig(T=T, **pc), p)
    wrep = weighted_picard_solve(theta0, PicardConfig(T=T, **pc), p)
    assert rep["theta0_hs"] == _fmt(sobolev_norm(theta0, p.s))
    expected = [
        f"T = {_fmt(T)}",
        "weighted = true",
        f"converged = {_fmt(plain.converged)}",
        f"iterations = {plain.iterations}",
        "distances = " + ", ".join(repr(d) for d in plain.distances),
        "contraction_ratios = " + ", ".join(repr(r) for r in plain.contraction_ratios),
        f"ball_sup_hs = {_fmt(plain.sup_hs)}",
        f"ball_bound = {_fmt(plain.bound)}",
        f"ball_within = {_fmt(plain.within)}",
        *([f"note = {plain.note}"] if plain.note else []),
        f"weighted_T = {_fmt(T)}",
        f"weighted_converged = {_fmt(wrep.converged)}",
        f"weighted_iterations = {wrep.iterations}",
        f"weighted_sup = {_fmt(wrep.weighted_sup)}",
        f"weighted_within = {_fmt(wrep.weighted_within)}",
        f"weight_domination_slack = {_fmt(weight_domination_slack(p, T, cfg.grid_spec()))}",
    ]
    start = lines.index(expected[0])
    assert lines[start:start + len(expected)] == expected
    assert rep["iterations"] == rep["weighted_iterations"]


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


def test_picard_diverging_map_writes_its_note(tmp_path):
    """Tiny constants admit the horizon T = 5, where the map expands on data of
    H^1 norm 5: the run is a finding, exit 0, and the report names the cause."""
    cfg = write_config(tmp_path, {
        "constants": {"C1": 1e-9, "C2": 1e-9, "C3": 1e-9, "C4": 1e-9},
        "init": {"normalize": "hs", "amplitude": 5.0},
        "picard": {"T": 5.0, "n_nodes": 9, "max_iter": 15}})
    out = tmp_path / "diverging"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rep = parse_report(out / "picard_report.txt")
    assert rep["T"] == "5.0"
    assert rep["converged"] == "false"
    assert rep["note"] == "diverging distances"


def _small_picard(tmp_path, constants, overrides):
    """A picard run on 16^2 with band |k| <= 3 and explicit constants."""
    doc = {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 3}, "lemmas": {"kmax": 3},
           "constants": dict(zip(("C1", "C2", "C3", "C4"), constants))}
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "small"
    return main(["picard", "--config", str(cfg), "--out", str(out)]), out / "picard_report.txt"


def test_picard_empty_weighted_horizon_is_a_finding(tmp_path):
    # at s = 0 and alpha = beta = 0.3 the conditions have negative exponents:
    # the plain one holds for every T >= 4.8^(3/7) = 1.96, the weighted one
    # (times e^T < 3/2) for none, so T1 = 0 while picard.T = 8.0 lies in the plain interval
    with one_regime_warning():
        rc, report = _small_picard(tmp_path, (1.0,) * 4, {
            "params": {"alpha": 0.3, "beta": 0.3, "s": 0.0},
            "picard": {"T": 8.0, "weighted": True}})
    assert rc == 0
    rep = parse_report(report)
    assert float(rep["T1"]) == 0.0 and float(rep["T0"]) > 1.0
    assert rep["T"] == "8.0" and rep["converged"] in ("true", "false")
    assert rep["weighted_T"] == "0.0"
    assert rep["weighted_converged"] == "false"
    assert rep["weighted_note"] == "existence conditions admit no positive horizon"


def test_picard_unbounded_horizon_runs_from_its_lower_end(tmp_path):
    # data norm 0.3 at s = 0: the plain condition 2 T^(-7/3) <= 1 / (8 * 0.3) holds
    # for every T >= 4.8^(3/7) = 1.9587, so a null picard.T runs there, not at 1.0
    with one_regime_warning():
        rc, report = _small_picard(tmp_path, (1.0,) * 4, {
            "params": {"alpha": 0.3, "beta": 0.3, "s": 0.0}, "picard": {"weighted": True}})
    assert rc == 0
    rep = parse_report(report)
    assert rep["T0"] == "inf"
    assert float(rep["T"]) == pytest.approx(4.8 ** (3.0 / 7.0), rel=1e-12)
    assert rep["weighted_note"] == "existence conditions admit no positive horizon"


def test_picard_weighted_horizon_below_its_interval_is_a_finding(tmp_path):
    # the plain interval is [0.00525, inf) and the weighted one [0.01418, 0.405]:
    # picard.T = 0.01 runs the plain block and leaves the weighted one without a horizon
    with one_regime_warning():
        rc, report = _small_picard(tmp_path, (1e-6, 1e-6, 1e-5, 1e-5), {
            "params": {"alpha": 0.3, "beta": 0.3, "s": 0.0},
            "picard": {"T": 0.01, "weighted": True}})
    assert rc == 0
    rep = parse_report(report)
    assert rep["T0"] == "inf" and 0.4 < float(rep["T1"]) < 0.41
    assert rep["T"] == "0.01" and "iterations" in rep
    assert rep["weighted_T"] == "0.01"
    assert rep["weighted_converged"] == "false"
    assert rep["weighted_note"] == "existence conditions admit no positive horizon"
    assert "weighted_iterations" not in rep


def test_picard_T_below_existence_interval_names_the_key(tmp_path, capsys):
    # in the guaranteed regime at alpha = 0.95, beta = 0.55, s = 1.2 the four-term
    # exponent (4 beta - 2 alpha - 1) / (4 beta) = -0.32 is negative: for H^s norm 0.1
    # and these calibrated constants the plain interval is [1.81e-4, 15.14]
    rc, report = _small_picard(tmp_path, (1.0,) * 4, {
        "params": {"alpha": 0.95, "beta": 0.55, "s": 1.2},
        "init": {"normalize": "hs", "amplitude": 0.1},
        "constants": {"mode": "calibrate", "samples": 8, "seed": 0},
        "picard": {"T": 1e-5}})
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error at picard.T" in err and "T0_lo = 0.00018" in err and "T0 = " in err
    assert not report.exists()


def test_picard_T_beyond_existence_time_names_the_key(tmp_path, capsys):
    rc, report = _small_picard(tmp_path, (1e3,) * 4, {"picard": {"T": 0.5}})
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error at picard.T" in err and "T0 = " in err
    assert not report.exists()


def test_picard_zero_data_is_its_own_fixed_point(tmp_path):
    rc, report = _small_picard(tmp_path, (0.25, 0.12, 0.05, 0.02),
                               {"init": {"amplitude": 0.0}, "picard": {"weighted": True}})
    assert rc == 0
    rep = parse_report(report)
    assert rep["T"] == rep["weighted_T"] == "1.0"
    assert rep["converged"] == "true" and rep["iterations"] == "0"
    assert rep["distances"] == ""
    assert rep["weighted_sup"] == "0.0"
    assert math.isfinite(float(rep["weight_domination_slack"]))


LEMMA_BLOCKS = [
    "subadditivity_fractional", "exp_decay_bound", "multiplier_equivalence",
    "dissipation_minus_weight_gap", "interpolation_homogeneous",
    "interpolation_inhomogeneous", "sobolev_injection", "product_law_symmetric",
    "product_law_asymmetric", "calderon_zygmund", "calderon_zygmund_p2",
    "directional_control", "directional_interpolation", "weight_comparison",
    "h2_weight_bound",
]


def report_blocks(path):
    """{block name: {key: value}} of an inequality report, in file order."""
    blocks = {}
    for chunk in path.read_text().split("\n\n"):
        lines = chunk.splitlines()
        if lines:
            blocks[lines[0][1:-1]] = dict(line.split(" = ", 1) for line in lines[1:])
    return blocks


def test_lemmas_clean_exit_0(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "lem"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "inequality_report.txt").read_text()
    assert "[calderon_zygmund_p2]" in report
    for line in report.splitlines():
        if line.startswith("violations"):
            assert line == "violations = 0"
    assert list(report_blocks(out / "inequality_report.txt")) == LEMMA_BLOCKS


def test_lemmas_reversed_exponents_are_a_finding(tmp_path):
    # alpha > beta: the weight comparison fails on the lattice, which is noted
    # but carries no exact bound, so it does not set exit 4
    cfg = write_config(tmp_path, {"params": {"alpha": 0.9, "beta": 0.55}})
    out = tmp_path / "lem"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 0
    block = report_blocks(out / "inequality_report.txt")["weight_comparison"]
    assert block["exact_bound"] == "false"
    assert int(block["violations"]) > 0


def test_lemmas_h2_ratio_beyond_float_range_exit_4(tmp_path, capsys):
    # s = -90 is a valid index on 64^2, but the lattice weight (1+|k|^2)^184 makes
    # the H^2 ratio overflow: it reads inf and counts as one violation
    cfg = write_config(tmp_path, {"grid": {"n1": 64, "n2": 64},
                                  "params": {"alpha": 0.3, "beta": 0.3, "s": -90.0}})
    out = tmp_path / "lem"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 4
    report = out / "inequality_report.txt"
    assert capsys.readouterr().err == \
        f"1 theorem-backed inequality violation(s); see {report}\n"
    assert report_blocks(report)["h2_weight_bound"]["worst_ratio"] == "inf"


def test_lemmas_fault_injection_exit_4(tmp_path, capsys, monkeypatch):
    import aqgsim.cli as cli

    suite = cli.scalar_inequality_suite

    def faulty_suite(*args, **kwargs):
        reports = suite(*args, **kwargs)
        reports[0].merge_violation({"xi": 1.0, "eta": 2.0})
        return reports

    monkeypatch.setattr(cli, "scalar_inequality_suite", faulty_suite)
    cfg = write_config(tmp_path)
    out = tmp_path / "lemf"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 4
    report = out / "inequality_report.txt"
    assert capsys.readouterr().err == \
        f"1 theorem-backed inequality violation(s); see {report}\n"
    first_block = report.read_text().split("\n\n")[0].splitlines()
    assert first_block[0] == "[subadditivity_fractional]"
    assert "violations = 1" in first_block
    assert "violation_example = {'xi': 1.0, 'eta': 2.0}" in first_block


@pytest.mark.parametrize("density", [GRID_DENSITY_MAX + 1, 10**7])
def test_lemmas_grid_density_beyond_bound_exit_1(tmp_path, capsys, monkeypatch, density):
    # the scan time grows as density^2 (about 2 s for the scalar suite at the
    # bound, some 10^7 times that at 10^7): the config is refused before the
    # suite is entered
    import aqgsim.cli as cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scalar suite ran")

    monkeypatch.setattr(cli, "scalar_inequality_suite", no_scan)
    cfg = write_config(tmp_path, {"lemmas": {"grid_density": density}})
    assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == ("config error at lemmas.grid_density: must be an "
                                       f"integer in [10, {GRID_DENSITY_MAX}]\n")
    assert not (tmp_path / "x").exists()
    assert validate_config({"lemmas": {"grid_density": GRID_DENSITY_MAX}}) \
        .lemmas["grid_density"] == GRID_DENSITY_MAX


REPORT_TEXT_KEYS = {"regime", "note", "weighted_note", "violation_example"}


def _is_report_value(value):
    """true/false, or one or more comma-separated floats (ints, nan and inf too)."""
    if value in ("true", "false"):
        return True
    try:
        [float(v) for v in value.split(", ")]
    except ValueError:
        return False
    return True


def test_report_values_parse_as_numbers_or_flags(tmp_path):
    import aqgsim.cli as cli

    assert cli._fmt(np.float64(0.1)) == "0.1"
    cfg = write_config(tmp_path, {"picard": {"weighted": True}})
    for command, name in (("lemmas", "inequality_report.txt"), ("picard", "picard_report.txt")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        pairs = [line.split(" = ", 1) for line in (out / name).read_text().splitlines()
                 if " = " in line]
        assert len(pairs) > 20
        bad = [(k, v) for k, v in pairs if k not in REPORT_TEXT_KEYS and not _is_report_value(v)]
        assert bad == []


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


def test_threaded_sweep_leaves_warning_filters_unchanged(tmp_path):
    """The filter list is process-wide; worker threads must not swap it."""
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5},
                                  "lemmas": {"kmax": 5}})
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(10):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"w{i}"),
                         "--threads", "4"]) == 0
            assert warnings.filters == before
    finally:
        sys.setswitchinterval(interval)


def test_sweep_unbuildable_initial_field_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16},
                                  "init": {"kind": "modes", "kmax": 5, "modes": [{"k": [40, 0]}]},
                                  "lemmas": {"kmax": 5}})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 1
    assert "outside retained wavenumbers" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_calibrates_the_lattice_once(tmp_path, monkeypatch):
    """A 2x2 sweep at 3 calibration samples draws each sample pair and takes its
    kernel once for the whole lattice, before the points' marches; its T0 column
    is, bit for bit, the upper end of each point's existence interval under its
    own calibration."""
    import aqgsim.cli as cli
    import aqgsim.solver as solver

    kernel, draw = solver._nonlinear_raw, cli.random_band_limited_field
    bilinear_kernels, draws = [], []

    def counting_kernel(*args, **kwargs):
        # in a sweep, calibration is the only caller of the bilinear form
        if kwargs.get("velocity_coeffs") is not None:
            bilinear_kernels.append(1)
        return kernel(*args, **kwargs)

    def counting_draw(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(solver, "_nonlinear_raw", counting_kernel)
    for module in (cli, solver):
        monkeypatch.setattr(module, "random_band_limited_field", counting_draw)
    constants = {"mode": "calibrate", "samples": 3, "seed": 2}
    cfg_path = write_config(tmp_path, {"constants": constants,
                                       "sweep": {"alphas": [0.6, 0.9], "betas": [0.4, 0.9]}})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "2"]) == 0
    assert len(bilinear_kernels) == 3
    assert len(draws) == 2 * 3 + 1  # the samples, and the initial field
    cfg = load_config(str(cfg_path))
    theta0 = cli.build_initial_field(cfg, cfg.grid_spec())
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(float(r[0]), float(r[1])) for r in rows] == [(0.6, 0.4), (0.6, 0.9),
                                                           (0.9, 0.4), (0.9, 0.9)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for row in rows:
            p = cli.DissipParams(float(row[0]), float(row[1]), s=1.0)
            table = solver.calibrate_constants(p, n_samples=3, seed=2)
            T0 = solver.existence_time(solver.sobolev_norm(theta0, 1.0), p, table)[1]
            assert row[3] == repr(T0)


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


def test_sweep_aborted_march_is_a_nan_row(tmp_path, capsys):
    # no step meets rtol 1e-16 with atol 0, so the march aborts as dt collapses
    cfg = write_config(tmp_path, {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5},
                                  "lemmas": {"kmax": 5}, "time": {"rtol": 1e-16, "atol": 0.0},
                                  "sweep": {"alphas": [0.75], "betas": [0.75]}})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[4:] == ["nan"] * 3
    assert ("sweep point (0.75, 0.75) failed: march aborted: step size collapsed (dt="
            in capsys.readouterr().err)


def test_sweep_programming_error_propagates(tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="injected failure"):
        _sweep_with_failing_evolve(tmp_path, monkeypatch, TypeError)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_seed_flag_only_on_subcommands_that_read_init_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim), "--seed", "5"]) == 0
    assert json.loads((sim / "config.json").read_text())["init"]["seed"] == 5
    capsys.readouterr()
    for command, extra in (("lemmas", []), ("gevrey", ["--traj", str(sim)])):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "5",
                     *extra]) == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()


SMALL = {"grid": {"n1": 16, "n2": 16}, "init": {"kmax": 5}, "lemmas": {"kmax": 5}}


@pytest.mark.parametrize("command, overrides, flags, key", [
    ("simulate", {"init": {"kmax": 5, "seed": -1}}, [], "init.seed"),
    ("picard", {"constants": {"mode": "calibrate", "samples": 1, "seed": -3}}, [],
     "constants.seed"),
    ("lemmas", {"lemmas": {"kmax": 5, "seed": -2}}, [], "lemmas.seed"),
    ("simulate", {}, ["--seed", "-5"], "init.seed"),
])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, overrides, flags, key):
    cfg = write_config(tmp_path, {**SMALL, **overrides})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 1
    assert f"config error at {key}: must be a nonnegative integer" in capsys.readouterr().err


@st.composite
def bounded_runs(draw):
    """A subcommand and a config of small size: grids <= 32^2, <= 2 calibration
    samples, <= 8 Picard nodes, <= 2 lemma samples, T <= 0.02. Mode wavenumbers
    lie in [-n1/2, n1/2] x [-n2/2, n2/2], so that most runs reach the solvers;
    `test_init_mode_k_validated` covers wavenumbers off the grid."""
    command = draw(st.sampled_from(["simulate", "picard", "lemmas", "sweep", "gevrey"]))
    side = st.sampled_from([8, 16, 24, 32])
    n1, n2 = draw(side), draw(side)
    unit = st.floats(0.05, 0.95)
    small_t = st.floats(1e-4, 0.02)
    modes = st.lists(st.fixed_dictionaries(
        {"k": st.tuples(st.integers(-n1 // 2, n1 // 2), st.integers(-n2 // 2, n2 // 2)).map(list)},
        optional={"amplitude": st.floats(-2.0, 2.0), "phase": st.floats(-4.0, 4.0)}),
        min_size=1, max_size=3)
    doc = {
        "grid": {"n1": n1, "n2": n2},
        "params": {"alpha": draw(unit), "beta": draw(unit), "mu": draw(st.floats(0.1, 3.0)),
                   "nu": draw(st.floats(0.1, 3.0)), "s": draw(st.floats(-1.0, 3.0))},
        "init": {"kind": draw(st.sampled_from(["random", "modes"])),
                 "seed": draw(st.integers(-9, 9)), "kmax": draw(st.integers(1, 2)),
                 "spectrum_slope": draw(st.floats(-1.0, 4.0)),
                 "amplitude": draw(st.floats(-3.0, 3.0)),
                 "normalize": draw(st.sampled_from([None, "hs", "l2"])),
                 "modes": draw(modes)},
        "time": {"T": draw(small_t), "dt_fixed": draw(st.none() | st.floats(1e-3, 0.01))},
        "picard": {"n_nodes": draw(st.integers(2, 8)), "max_iter": draw(st.integers(1, 5)),
                   "weighted": draw(st.booleans()), "T": draw(st.none() | small_t)},
        "constants": draw(st.sampled_from([
            {"mode": "calibrate", "samples": 1}, {"mode": "calibrate", "samples": 2},
            BASE["constants"]])),
        "lemmas": {"count": draw(st.integers(1, 2)), "kmax": draw(st.integers(1, 2)),
                   "grid_density": draw(st.integers(10, 20))},
        "sweep": {"alphas": draw(st.lists(unit, min_size=1, max_size=2)),
                  "betas": draw(st.lists(unit, min_size=1, max_size=2)),
                  "T_short": draw(small_t)},
    }
    seed = draw(st.none() | st.integers(-9, 9)) if command in ("simulate", "picard",
                                                               "sweep") else None
    return command, doc, seed


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(bounded_runs())
def test_cli_on_bounded_inputs_exits_0_to_4(run):
    """No input ends in a traceback: every run returns one of the exit codes."""
    command, doc, seed = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["--config", str(cfg), "--out", str(tmp / "out")]
        if command == "gevrey":
            assert main(["simulate", *argv[:2], "--out", str(tmp / "sim")]) in range(5)
            argv += ["--traj", str(tmp / "sim")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        # capsys would trip the function-scoped-fixture health check
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([command, *argv])
        assert rc in range(5)
        if rc == 1:
            assert "config error at " in err.getvalue()


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


def test_gevrey_saturated_column_marks_inf(tmp_path):
    from aqgsim.checkpoint import write_checkpoint
    from aqgsim.grid import GridSpec, sine_field
    from aqgsim.operators import DissipParams

    cfg = write_config(tmp_path, {"grid": {"n1": 64, "n2": 64}})
    f = sine_field(GridSpec(64, 64), (20, 0))
    traj = tmp_path / "traj"
    traj.mkdir()
    # at t = 100 the weight exponent 0.5 * 100 * 2 * 20^0.75 ~ 946 passes WEIGHT_CAP
    for i, t in enumerate((0.1, 100.0)):
        write_checkpoint(traj / f"state_{i:04d}.aqgs", f, DissipParams(0.75, 0.75), t)
    out = tmp_path / "gev"
    assert main(["gevrey", "--config", str(cfg), "--out", str(out), "--traj", str(traj)]) == 0
    rows = (out / "gevrey_report.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0.1,36.45755591749564,false,")
    assert rows[2].startswith("100.0,inf,true,")


def test_gevrey_missing_dir_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gevrey", "--config", str(cfg), "--out", str(tmp_path / "g"),
                 "--traj", str(tmp_path / "nothing")]) == 3


def test_gevrey_non_finite_checkpoint_time_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    path = sim / "state_0000.aqgs"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, struct.calcsize("<4sIII5d"), math.nan)  # the stored t
    path.write_bytes(bytes(raw))
    out = tmp_path / "gev"
    assert main(["gevrey", "--config", str(cfg), "--out", str(out), "--traj", str(sim)]) == 1
    assert "non-finite t" in capsys.readouterr().err
    assert not (out / "gevrey_report.csv").exists()


def test_gevrey_checkpoint_of_other_params_exit_1(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(sim)]) == 0
    other = write_config(tmp_path, {"params": {"alpha": 0.6}}, name="other.json")
    out = tmp_path / "gev"
    assert main(["gevrey", "--config", str(other), "--out", str(out), "--traj", str(sim)]) == 1
    assert "checkpoint mismatch in field 'alpha'" in capsys.readouterr().err
    assert not (out / "gevrey_report.csv").exists()


def test_gevrey_checkpoints_of_two_grids_exit_1(tmp_path, capsys):
    from aqgsim.checkpoint import write_checkpoint
    from aqgsim.grid import GridSpec, sine_field
    from aqgsim.operators import DissipParams

    traj = tmp_path / "traj"
    traj.mkdir()
    for i, n in enumerate((16, 32)):
        write_checkpoint(traj / f"state_{i:04d}.aqgs", sine_field(GridSpec(n, n), (1, 0)),
                         DissipParams(0.75, 0.75), 0.1 * i)
    out = tmp_path / "gev"
    assert main(["gevrey", "--config", str(write_config(tmp_path)), "--out", str(out),
                 "--traj", str(traj)]) == 1
    assert "checkpoint mismatch in field 'n1'" in capsys.readouterr().err
    assert not (out / "gevrey_report.csv").exists()


def test_gevrey_unreadable_checkpoint_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    (sim / "state_0000.aqgs").mkdir(parents=True)
    assert main(["gevrey", "--config", str(cfg), "--out", str(tmp_path / "g"),
                 "--traj", str(sim)]) == 3
    assert "I/O failure" in capsys.readouterr().err
