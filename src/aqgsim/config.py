"""Run configuration: one JSON document, validated against every module
precondition before any computation, echoed back into each output directory."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .grid import GridSpec
from .operators import DissipParams
from .solver import _CALIBRATION_GRID


class ConfigError(Exception):
    """Invalid configuration; `path` names the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


DEFAULTS = {
    "grid": {"n1": 64, "n2": 64},
    "params": {"alpha": 0.75, "beta": 0.75, "mu": 1.0, "nu": 1.0, "s": 1.0},
    "init": {"kind": "random", "seed": 0, "kmax": 10, "spectrum_slope": 2.0,
             "amplitude": 1.0, "normalize": None, "modes": [], "path": None},
    "time": {"T": 1.0, "trace_stride": 1, "rtol": 1e-8, "atol": 1e-12, "dt_fixed": None,
             "dt_max": None, "nonlinear": True, "checkpoint_times": []},
    "picard": {"n_nodes": 32, "max_iter": 40, "tol": 1e-10, "weighted": False, "T": None},
    "constants": {"mode": "calibrate", "samples": 8, "seed": 0,
                  "C1": None, "C2": None, "C3": None, "C4": None},
    "output": {"directory": "out"},
    "lemmas": {"seed": 0, "count": 100, "kmax": 10, "spectrum_slope": 2.0,
               "grid_density": 1000},
    "sweep": {"alphas": [0.6, 0.75, 0.9], "betas": [0.6, 0.75, 0.9],
              "T_short": 0.05},
}


@dataclass
class RunConfig:
    grid: dict
    params: dict
    init: dict
    time: dict
    picard: dict
    constants: dict
    output: dict
    lemmas: dict
    sweep: dict

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.grid["n1"], self.grid["n2"])

    def dissip_params(self) -> DissipParams:
        q = self.params
        return DissipParams(q["alpha"], q["beta"], q["mu"], q["nu"], q["s"])


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:  # JSON true and false are Python ints
    return isinstance(x, int) and not isinstance(x, bool)


def _require_seed(seed, path: str) -> None:
    """numpy's generators take only nonnegative integer seeds."""
    _require(_is_int(seed) and seed >= 0, path, "must be a nonnegative integer")


def _require_finite(value, path: str) -> None:
    """Reject the NaN and Infinity that Python's json accepts, at any depth."""
    if isinstance(value, float):
        _require(math.isfinite(value), path, "must be a finite number")
    elif isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


def _require_band_amplitudes(kmax: int, slope: float, path: str) -> None:
    """The ensemble amplitudes |k|^-slope on the shells 1..kmax must be floats;
    for slope < 0 the largest is at |k| = sqrt(2) kmax."""
    try:
        math.hypot(kmax, kmax) ** -slope
    except OverflowError:
        raise ConfigError(path, f"gives amplitudes |k|^-slope beyond the float range "
                                f"for kmax = {kmax}") from None


def _require_suite_range(kmax: int, slope: float) -> None:
    """The lemma suite squares the product fg of two ensemble samples and weighs
    powers |c|^2 by at most (1+|k|^2)^2, with |k|^2 <= 8 kmax^2 on the band of fg.
    By Parseval the largest such sum is at most (N A)^4 (1 + 8 kmax^2)^2, with
    N = (2 kmax + 1)^2 - 1 modes and A the largest amplitude; it must be a float."""
    log_amp = -slope * math.log(math.hypot(kmax, kmax)) if slope < 0 else 0.0
    log_sum = math.log((2 * kmax + 1) ** 2 - 1) + log_amp
    if 4.0 * log_sum + 2.0 * math.log1p(8 * kmax**2) > math.log(sys.float_info.max):
        raise ConfigError("lemmas.spectrum_slope",
                          f"lets the squared product of two ensemble samples exceed the "
                          f"float range for kmax = {kmax}")


# The largest lemmas.grid_density. The subadditivity scan holds about six
# gd x gd float64 arrays at once, 0.75 GiB at this bound; `validate_config`
# rejects a larger value before any of them is allocated.
GRID_DENSITY_MAX = 4096


def validate_config(data: dict) -> RunConfig:
    """Merge with defaults and check every field; unknown keys are rejected."""
    _require(isinstance(data, dict), "<root>", "top level must be an object")
    merged = {}
    for section, defaults in DEFAULTS.items():
        given = data.get(section, {})
        _require(isinstance(given, dict), section, "must be an object")
        for key in given:
            _require(key in defaults, f"{section}.{key}", "unknown key")
        merged[section] = {**defaults, **given}
    for section in data:
        _require(section in DEFAULTS, section, "unknown section")
        _require_finite(data[section], section)

    g = merged["grid"]
    for key in ("n1", "n2"):
        _require(_is_int(g[key]) and g[key] >= 8 and g[key] % 2 == 0,
                 f"grid.{key}", "must be an even integer >= 8")

    q = merged["params"]
    _require(_is_num(q["alpha"]) and 0.0 < q["alpha"] < 1.0, "params.alpha",
             "must lie in (0, 1)")
    _require(_is_num(q["beta"]) and 0.0 < q["beta"] < 1.0, "params.beta",
             "must lie in (0, 1)")
    _require(_is_num(q["mu"]) and q["mu"] > 0.0, "params.mu", "must be positive")
    _require(_is_num(q["nu"]) and q["nu"] > 0.0, "params.nu", "must be positive")
    _require(_is_num(q["s"]), "params.s", "must be a number")
    grids = [(g["n1"], g["n2"])]
    if merged["constants"]["mode"] == "calibrate":
        grids.append(_CALIBRATION_GRID.shape)
    for n1, n2 in grids:
        # the H^s weight (1+|k|^2)^s of every mode must be a positive float; it is
        # largest (s > 0) or smallest (s < 0) at the corner |k|^2 = (n1/2)^2 + (n2/2)^2
        try:
            w = (1.0 + (n1 // 2) ** 2 + (n2 // 2) ** 2) ** q["s"]
        except OverflowError:
            w = math.inf
        _require(0.0 < w < math.inf, "params.s",
                 f"gives H^s weights beyond the float range on the {n1}x{n2} grid")

    init = merged["init"]
    _require(init["kind"] in ("random", "modes", "file"), "init.kind",
             "must be one of random|modes|file")
    _require_seed(init["seed"], "init.seed")
    band = min(g["n1"] // 3, g["n2"] // 3)
    _require(_is_int(init["kmax"]) and 1 <= init["kmax"] <= band,
             "init.kmax", f"must be an integer in [1, {band}] for this grid")
    _require(_is_num(init["spectrum_slope"]), "init.spectrum_slope", "must be a number")
    _require_band_amplitudes(init["kmax"], init["spectrum_slope"], "init.spectrum_slope")
    _require(_is_num(init["amplitude"]), "init.amplitude", "must be a number")
    _require(init["normalize"] in (None, "hs", "l2"), "init.normalize",
             "must be null, 'hs', or 'l2'")
    if init["kind"] == "modes":
        _require(isinstance(init["modes"], list) and init["modes"], "init.modes",
                 "must be a nonempty list for kind=modes")
        for i, m in enumerate(init["modes"]):
            path = f"init.modes[{i}]"
            _require(isinstance(m, dict), path, "must be an object")
            for key in m:
                _require(key in ("k", "amplitude", "phase"), f"{path}.{key}", "unknown key")
            k = m.get("k")
            _require(isinstance(k, list) and len(k) == 2
                     and all(_is_int(v) for v in k), f"{path}.k",
                     "must be a pair of integers")
            halves = (g["n1"] // 2, g["n2"] // 2)
            _require(all(abs(v) <= h for v, h in zip(k, halves)), f"{path}.k",
                     f"{k} outside retained wavenumbers |k1| <= {halves[0]}, "
                     f"|k2| <= {halves[1]} of the {g['n1']}x{g['n2']} grid")
            # k = -k on the grid: a sine there has no conjugate partner
            _require(not all(abs(v) in (0, h) for v, h in zip(k, halves)), f"{path}.k",
                     f"{k} is a self-conjugate mode of the {g['n1']}x{g['n2']} grid")
            _require(_is_num(m.get("amplitude", 1.0)), f"{path}.amplitude",
                     "must be a number")
            _require(_is_num(m.get("phase", 0.0)), f"{path}.phase", "must be a number")
    if init["kind"] == "file":
        _require(isinstance(init["path"], str) and init["path"], "init.path",
                 "must be a path for kind=file")

    t = merged["time"]
    _require(_is_num(t["T"]) and t["T"] > 0.0, "time.T", "must be positive")
    _require(_is_int(t["trace_stride"]) and t["trace_stride"] >= 1,
             "time.trace_stride", "must be a positive integer")
    _require(_is_num(t["rtol"]) and t["rtol"] > 0.0, "time.rtol", "must be positive")
    _require(_is_num(t["atol"]) and t["atol"] >= 0.0, "time.atol", "must be nonnegative")
    for key in ("dt_fixed", "dt_max"):
        _require(t[key] is None or (_is_num(t[key]) and t[key] > 0.0),
                 f"time.{key}", "must be null or positive")
    _require(isinstance(t["nonlinear"], bool), "time.nonlinear", "must be a boolean")
    cps = t["checkpoint_times"]
    _require(isinstance(cps, list) and all(_is_num(x) and 0.0 < x <= t["T"] for x in cps)
             and len(set(cps)) == len(cps),
             "time.checkpoint_times", "must be distinct times in (0, T]")

    pc = merged["picard"]
    _require(_is_int(pc["n_nodes"]) and pc["n_nodes"] >= 2, "picard.n_nodes",
             "must be an integer >= 2")
    _require(_is_int(pc["max_iter"]) and pc["max_iter"] >= 1, "picard.max_iter",
             "must be a positive integer")
    _require(_is_num(pc["tol"]) and pc["tol"] > 0.0, "picard.tol", "must be positive")
    _require(isinstance(pc["weighted"], bool), "picard.weighted", "must be a boolean")
    _require(pc["T"] is None or (_is_num(pc["T"]) and pc["T"] > 0.0), "picard.T",
             "must be null or positive")

    cs = merged["constants"]
    _require(cs["mode"] in ("calibrate", "explicit"), "constants.mode",
             "must be calibrate|explicit")
    _require(_is_int(cs["samples"]) and cs["samples"] >= 1, "constants.samples",
             "must be a positive integer")
    _require_seed(cs["seed"], "constants.seed")
    if cs["mode"] == "explicit":
        for key in ("C1", "C2", "C3", "C4"):
            _require(_is_num(cs[key]) and cs[key] > 0.0, f"constants.{key}",
                     "must be positive in explicit mode")

    out = merged["output"]
    _require(isinstance(out["directory"], str) and out["directory"], "output.directory",
             "must be a nonempty string")

    lm = merged["lemmas"]
    _require_seed(lm["seed"], "lemmas.seed")
    _require(_is_int(lm["count"]) and lm["count"] >= 1, "lemmas.count",
             "must be a positive integer")
    _require(_is_int(lm["kmax"]) and 1 <= lm["kmax"] <= band, "lemmas.kmax",
             f"must be an integer in [1, {band}] for this grid")
    _require(_is_num(lm["spectrum_slope"]), "lemmas.spectrum_slope", "must be a number")
    _require_suite_range(lm["kmax"], lm["spectrum_slope"])  # bounds the amplitudes too
    _require(_is_int(lm["grid_density"]) and 10 <= lm["grid_density"] <= GRID_DENSITY_MAX,
             "lemmas.grid_density", f"must be an integer in [10, {GRID_DENSITY_MAX}]")

    sw = merged["sweep"]
    for key in ("alphas", "betas"):
        _require(isinstance(sw[key], list) and sw[key]
                 and all(_is_num(x) and 0.0 < x < 1.0 for x in sw[key]),
                 f"sweep.{key}", "must be a nonempty list of values in (0, 1)")
    _require(_is_num(sw["T_short"]) and sw["T_short"] > 0.0, "sweep.T_short",
             "must be positive")

    return RunConfig(**merged)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return validate_config(data)


def echo_config(cfg: RunConfig, out_dir: Path) -> None:
    """Write the fully merged configuration next to the outputs, for provenance."""
    (out_dir / "config.json").write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")
