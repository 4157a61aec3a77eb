"""Independent reference solution for the march workload.

An integrating-factor fourth-order Runge-Kutta scheme (Lawson RK4) for

    d_t theta + div(theta u) + A(D) theta = 0,   u = R_perp theta,

written directly on numpy's real FFTs. It shares no code with
`aqgsim.operators` or `aqgsim.solver`; only the initial field comes from the
package's seeded generator, because that field is the program's input. Every
solution is computed at dt and dt/2 and must agree to SELF_CHECK_RTOL, or
`ReferenceCheckError` is raised. Results are cached per configuration on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

DT = 2e-4
SELF_CHECK_RTOL = 1e-10


class ReferenceCheckError(RuntimeError):
    """The reference failed its own dt versus dt/2 agreement check."""


def wavenumbers(n1: int, n2: int):
    """Full-layout (k1, k2) wavenumber grids in FFT ordering, shapes (n1, 1) and (1, n2)."""
    return ((np.fft.fftfreq(n1) * n1)[:, None], (np.fft.fftfreq(n2) * n2)[None, :])


def hs_norm(coeffs: np.ndarray, s: float) -> float:
    """H^s norm of full-layout Fourier coefficients, weight (1+|k|^2)^s."""
    k1, k2 = wavenumbers(*coeffs.shape)
    return float(np.sqrt(np.sum((1.0 + k1**2 + k2**2) ** s * np.abs(coeffs) ** 2)))


def rel_hs_error(coeffs: np.ndarray, ref: np.ndarray, s: float) -> float:
    return hs_norm(coeffs - ref, s) / hs_norm(ref, s)


def ifrk4(c0: np.ndarray, T: float, dt: float, alpha: float, beta: float,
          mu: float = 1.0, nu: float = 1.0) -> np.ndarray:
    """March full-layout coefficients c0 (c = fft2(values)/(n1 n2)) to time T.

    The state is the half spectrum rfft2(values); the nonlinearity is
    evaluated under the 2/3 rule, the linear part exactly.
    """
    n1, n2 = c0.shape
    shape = (n1, n2)
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-12 * T:
        raise ValueError(f"T={T} is not a whole number of steps dt={dt}")
    k1 = (np.fft.fftfreq(n1) * n1)[:, None]
    k2 = (np.fft.rfftfreq(n2) * n2)[None, :]
    A = mu * np.abs(k1) ** (2.0 * alpha) + nu * np.abs(k2) ** (2.0 * beta)
    kmag = np.sqrt(k1**2 + k2**2)
    kmag[0, 0] = 1.0
    r1 = -1j * k2 / kmag
    r2 = 1j * k1 / kmag
    r1[0, 0] = r2[0, 0] = 0.0
    keep = (np.abs(k1) <= n1 // 3) & (k2 <= n2 // 3)

    def rhs(h):
        theta = np.fft.irfft2(h, s=shape)
        u1 = np.fft.irfft2(r1 * h, s=shape)
        u2 = np.fft.irfft2(r2 * h, s=shape)
        flux = 1j * (k1 * np.fft.rfft2(theta * u1) + k2 * np.fft.rfft2(theta * u2))
        return -np.where(keep, flux, 0.0)

    values = np.real(np.fft.ifft2(np.where(_full_band(n1, n2), c0, 0.0) * (n1 * n2)))
    h = np.fft.rfft2(values)
    E = np.exp(-0.5 * dt * A)
    E2 = E * E
    for _ in range(steps):
        a = rhs(h)
        b = rhs(E * (h + 0.5 * dt * a))
        c = rhs(E * h + 0.5 * dt * b)
        d = rhs(E2 * h + dt * E * c)
        h = E2 * h + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
    return np.fft.fft2(np.fft.irfft2(h, s=shape)) / (n1 * n2)


def _full_band(n1: int, n2: int) -> np.ndarray:
    k1, k2 = wavenumbers(n1, n2)
    return (np.abs(k1) <= n1 // 3) & (np.abs(k2) <= n2 // 3)


def initial_coeffs(cfg: dict) -> np.ndarray:
    """The random initial field a `simulate` run with this config starts from."""
    from aqgsim.grid import GridSpec
    from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field

    init, grid = cfg["init"], cfg["grid"]
    if init["kind"] != "random" or init.get("normalize") != "hs":
        raise ValueError("the reference expects an H^s-normalised random field")
    spec = FieldEnsembleSpec(GridSpec(grid["n1"], grid["n2"]), seed=init["seed"], count=1,
                             kmax=init["kmax"], spectrum_slope=init["spectrum_slope"])
    c = np.array(random_band_limited_field(spec, 0).coeffs)
    return c * (init.get("amplitude", 1.0) / hs_norm(c, cfg["params"]["s"]))


def self_checked(c0: np.ndarray, T: float, params: dict, dt: float = DT):
    """Solution at dt/2, and its relative H^s distance from the dt solution."""
    args = (params["alpha"], params["beta"], params.get("mu", 1.0), params.get("nu", 1.0))
    coarse = ifrk4(c0, T, dt, *args)
    fine = ifrk4(c0, T, 0.5 * dt, *args)
    return fine, rel_hs_error(coarse, fine, params["s"])


def reference_final(cfg: dict, cache_dir: Path) -> np.ndarray:
    """Reference state at time.T for the march config, computed once per config."""
    key = {k: cfg[k] for k in ("grid", "params", "init")} | {"T": cfg["time"]["T"], "dt": DT}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:20]
    path = Path(cache_dir) / f"ref_{digest}.npy"
    if path.exists():
        return np.load(path)
    fine, gap = self_checked(initial_coeffs(cfg), cfg["time"]["T"], cfg["params"])
    if not gap <= SELF_CHECK_RTOL:
        raise ReferenceCheckError(f"reference at dt and dt/2 differ by {gap:.3e} "
                             f"(limit {SELF_CHECK_RTOL:.0e})")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, fine)
    os.replace(tmp, path)
    return fine
