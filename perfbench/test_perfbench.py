"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SMALL = {"grid": {"n1": 32, "n2": 32}, "params": {"alpha": 0.75, "beta": 0.75, "s": 1.0},
         "init": {"kind": "random", "seed": 3, "kmax": 5, "spectrum_slope": 2.0,
                  "normalize": "hs", "amplitude": 4.0}}


def test_reference_integrator_is_fourth_order():
    c0 = reference.initial_coeffs(SMALL)
    T = 0.2
    exact = reference.ifrk4(c0, T, T / 400, 0.75, 0.75)
    errors = [reference.rel_hs_error(reference.ifrk4(c0, T, T / n, 0.75, 0.75), exact, 1.0)
              for n in (10, 20, 40)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(abs(q - 4.0) < 0.2 for q in orders), orders


def test_reference_matches_the_linear_flow_without_advection():
    # a single Fourier mode has u parallel to its level sets: div(theta u) = 0
    c0 = np.zeros((32, 32), dtype=complex)
    c0[2, 3], c0[-2, -3] = 0.5j, -0.5j
    out = reference.ifrk4(c0, 0.1, 0.01, 0.6, 0.8)
    decay = math.exp(-0.1 * (2 ** 1.2 + 3 ** 1.6))
    assert np.allclose(out, c0 * decay, rtol=0, atol=1e-14)


def test_reference_starts_from_the_programs_initial_field():
    from aqgsim.cli import build_initial_field
    from aqgsim.config import validate_config

    cfg = validate_config(SMALL)
    program = build_initial_field(cfg, cfg.grid_spec()).coeffs
    assert np.allclose(reference.initial_coeffs(SMALL), program, rtol=0, atol=1e-15)


def test_config_generation_is_deterministic_in_the_seed():
    from aqgsim.config import validate_config

    for name in workloads.WORKLOADS:
        a, b = workloads.make_config(name, 11), workloads.make_config(name, 11)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        other = workloads.make_config(name, 12)
        assert other != a
        assert (other["init"]["seed"], other["constants"]["seed"], other["lemmas"]["seed"]) \
            == (12, 12, 12)
        validate_config(a)


def _bindings():
    """Every attribute the tracer may replace, by identity."""
    modules = [importlib.import_module(f"aqgsim.{m}") for m in LAYERS]
    from aqgsim.grid import SpectralField

    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot |= {("numpy.fft", k): v for k, v in vars(np.fft).items()}
    snapshot |= {("SpectralField", k): v for k, v in vars(SpectralField).items()}
    return snapshot


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import aqgsim.cli

    cfg_path = tmp_path / "config.json"
    cfg = dict(SMALL, time={"T": 0.01, "checkpoint_times": [0.005]})
    cfg_path.write_text(json.dumps(cfg))
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        rc = aqgsim.cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    after = _bindings()
    assert rc == 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans["cli.simulate"].calls == tracer.spans["solver.evolve"].calls == 1
    assert tracer.spans["checkpoint.write"].calls == 2
    assert tracer.spans["operators.nonlinear"].calls == \
        tracer.edges[("solver.evolve", "operators.nonlinear")] > 0
    assert tracer.counts["operators.fft.calls"] == 5 * tracer.spans["operators.nonlinear"].calls
    assert tracer.main_self_s == pytest.approx(tracer.spans["cli.main"].total_s)


def test_fft_calls_are_charged_to_the_innermost_layer():
    import aqgsim.norms
    from aqgsim.cli import build_initial_field
    from aqgsim.config import validate_config

    cfg = validate_config(SMALL)
    field = build_initial_field(cfg, cfg.grid_spec())
    with Tracer() as tracer:
        aqgsim.norms.lp_norm(field, 3.0)
        np.fft.fft2(np.zeros((4, 4)))
    assert tracer.counts["norms.fft.calls"] == 1
    assert tracer.counts["untraced.fft.calls"] == 1
    assert tracer.counts["operators.fft.calls"] == 0
    assert tracer.counts["norms.fft.bytes"] == 2 * 32 * 32 * 16


def test_output_checks_flag_a_failed_picard_report(tmp_path):
    op = workloads.Op("picard", [], tmp_path)
    good = "\n".join(f"{flag} = true" for flag in workloads.PICARD_FLAGS) + "\n"
    (tmp_path / "picard_report.txt").write_text(good)
    assert workloads.check(op, 0, {}) == []
    (tmp_path / "picard_report.txt").write_text(good.replace("ball_within = true",
                                                             "ball_within = false"))
    assert workloads.check(op, 0, {}) == ["picard: ball_within = false"]
    assert workloads.check(op, 2, {}) == ["picard: exit code 2"]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == END_TO_END[m["name"]] for m in bench["end_to_end"])
    assert all(m["unit"] == PER_LAYER[m["name"]] for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
