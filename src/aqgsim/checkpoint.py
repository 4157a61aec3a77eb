"""Binary checkpoint format for solver states.

Little-endian layout: magic "AQGS", format version (u32), n1, n2 (u32),
alpha, beta, mu, nu, s, t (f64), then n1*n2 complex coefficients as
(real, imag) f64 pairs in k1-major transform ordering: the full layout, which a
writer reads from `SpectralField.coeffs`. A reader checks the whole body for
Hermitian symmetry and keeps its half.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import GridSpec, SpectralField, require_hermitian
from .operators import DissipParams

MAGIC = b"AQGS"
VERSION = 1
_HEADER = struct.Struct("<4sIII6d")


class CheckpointError(Exception):
    """Base class for checkpoint read/validation failures."""


class CheckpointFormatError(CheckpointError):
    """Corrupt file or unsupported format version."""


class CheckpointReadError(CheckpointFormatError, OSError):
    """The checkpoint file could not be read; an I/O failure, not a format one."""


class CheckpointMismatchError(CheckpointError):
    """Stored state is incompatible with the requested grid/parameters."""

    def __init__(self, field_name: str):
        self.field_name = field_name
        super().__init__(f"checkpoint mismatch in field '{field_name}'")


@dataclass(frozen=True)
class Checkpoint:
    params: DissipParams
    t: float
    field: SpectralField

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    def require_params(self, p: DissipParams) -> None:
        """Raise CheckpointMismatchError at the first of (alpha, beta, mu, nu, s) unlike p's."""
        for name in ("alpha", "beta", "mu", "nu", "s"):
            if getattr(self.params, name) != getattr(p, name):
                raise CheckpointMismatchError(name)

    def require_grid(self, grid: GridSpec) -> None:
        """Raise CheckpointMismatchError at the first of (n1, n2) unlike grid's."""
        if self.grid != grid:
            raise CheckpointMismatchError("n1" if self.grid.n1 != grid.n1 else "n2")


def write_checkpoint(path, field: SpectralField, p: DissipParams, t: float) -> None:
    grid = field.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.n1, grid.n2,
                          p.alpha, p.beta, p.mu, p.nu, p.s, t)
    body = np.ascontiguousarray(field.coeffs, dtype="<c16").tobytes()
    # write a sibling that never matches state_*.aqgs, then swap it in, so the
    # path holds either the old file or the complete new one
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(header + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointReadError(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointFormatError("corrupt checkpoint: truncated header")
    magic, version, n1, n2, *header = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointFormatError("corrupt checkpoint: bad magic")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    for name, value in zip(("alpha", "beta", "mu", "nu", "s", "t"), header):
        if not math.isfinite(value):
            raise CheckpointFormatError(f"corrupt checkpoint: non-finite {name} ({value})")
    expected = _HEADER.size + 16 * n1 * n2
    if len(raw) != expected:
        raise CheckpointFormatError(
            f"corrupt checkpoint: expected {expected} bytes, got {len(raw)}")
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(n1, n2)
    try:
        grid = GridSpec(int(n1), int(n2))
        params = DissipParams(*header[:5])
        require_hermitian(coeffs)
        field = SpectralField(grid, coeffs[:, :grid.n2 // 2 + 1])
    except ValueError as exc:  # a well-formed file holding an invalid grid, params or state
        raise CheckpointFormatError(f"corrupt checkpoint: {exc}") from exc
    return Checkpoint(params, float(header[5]), field)
