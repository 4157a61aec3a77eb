"""Checkpoint binary format: round trips and corruption handling."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqgsim.checkpoint import (CheckpointError, CheckpointFormatError, read_checkpoint,
                               write_checkpoint)
from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field


@pytest.fixture
def state(grid64):
    spec = FieldEnsembleSpec(grid64, seed=17, count=1, kmax=10, spectrum_slope=2.0)
    return random_band_limited_field(spec, 0)


def test_round_trip_bitwise(state, params, tmp_path):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 0.375)
    cp = read_checkpoint(path)
    assert np.array_equal(cp.field.coeffs, state.coeffs)
    assert cp.t == 0.375
    assert cp.params == params
    assert cp.grid == state.grid


def test_simulate_checkpoints_rewrite_to_the_same_bytes(tmp_path):
    """The v1 files of a 16^2 `simulate`, read back and written again, keep
    every byte: a field holds the half spectrum, and its full layout refills
    the body as the march wrote it."""
    from aqgsim.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"n1": 16, "n2": 16}, "lemmas": {"kmax": 5},
                               "init": {"kind": "random", "seed": 2, "kmax": 5},
                               "time": {"T": 0.02, "checkpoint_times": [0.01]}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("state_0000.aqgs", "state_final.aqgs"):
        cp = read_checkpoint(out / name)
        write_checkpoint(tmp_path / name, cp.field, cp.params, cp.t)
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_header_layout(state, params, tmp_path):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 1.5)
    raw = path.read_bytes()
    magic, version, n1, n2 = struct.unpack_from("<4sIII", raw)
    assert magic == b"AQGS"
    assert version == 1
    assert (n1, n2) == (64, 64)
    assert len(raw) == struct.calcsize("<4sIII6d") + 16 * 64 * 64
    # first complex value is coeffs[0, 0] (k1-major ordering)
    re0, im0 = struct.unpack_from("<2d", raw, struct.calcsize("<4sIII6d"))
    assert re0 + 1j * im0 == state.coeffs[0, 0]


def test_truncated_file_rejected(state, params, tmp_path):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointFormatError, match="corrupt"):
        read_checkpoint(path)


def test_bad_magic_rejected(state, params, tmp_path):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 0.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        read_checkpoint(path)


def test_unknown_version_rejected(state, params, tmp_path):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 0.0)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="version"):
        read_checkpoint(path)


@pytest.mark.parametrize("name, index, value", [("t", 5, float("nan")),
                                               ("mu", 2, float("inf"))])
def test_non_finite_header_value_rejected(state, params, tmp_path, name, index, value):
    path = tmp_path / "state.aqgs"
    write_checkpoint(path, state, params, 0.5)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, struct.calcsize("<4sIII") + 8 * index, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match=f"non-finite {name} "):
        read_checkpoint(path)


HEADER = struct.Struct("<4sIII6d")


def _raw_checkpoint(n1, n2, alpha=0.75, body=None):
    """Bytes of a correctly sized v1 file; the body defaults to the zero state."""
    body = np.zeros((n1, n2), dtype="<c16") if body is None else body
    return HEADER.pack(b"AQGS", 1, n1, n2, alpha, 0.75, 1.0, 1.0, 1.0, 0.0) + body.tobytes()


def _non_hermitian_body(at=(1, 0), value=1.0):
    body = np.zeros((8, 8), dtype="<c16")
    body[at] = value
    return body


@pytest.mark.parametrize("raw, cause", [
    (_raw_checkpoint(3, 8), "n1 must be even"),
    (_raw_checkpoint(8, 8, alpha=5.0), "alpha must lie in"),
    (_raw_checkpoint(8, 8, body=_non_hermitian_body()), "not Hermitian-symmetric"),
    # (1, -3): only the columns k2 < 0, which the field does not keep, show these
    (_raw_checkpoint(8, 8, body=_non_hermitian_body((1, 5))), "not Hermitian-symmetric"),
    (_raw_checkpoint(8, 8, body=_non_hermitian_body((1, 5), np.nan)), "non-finite coefficients"),
], ids=["n1=3", "alpha=5", "non-Hermitian", "non-Hermitian k2 < 0", "non-finite k2 < 0"])
def test_invalid_content_of_well_sized_file_rejected(tmp_path, raw, cause):
    path = tmp_path / "state.aqgs"
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match=f"corrupt checkpoint: .*{cause}"):
        read_checkpoint(path)


@st.composite
def checkpoint_bytes(draw):
    """Arbitrary bytes, or a v1-shaped header (any sizes and values) and any body."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    n1, n2 = (draw(st.integers(0, 12) | st.integers(0, 2**32 - 1)) for _ in range(2))
    header = HEADER.pack(draw(st.sampled_from([b"AQGS", b"AQGZ"])), draw(st.sampled_from([1, 2])),
                         n1, n2, *(draw(st.floats(0.1, 0.9) | st.floats()) for _ in range(6)))
    size = 16 * n1 * n2 if n1 * n2 <= 144 else 0
    body = draw(st.just(bytes(size)) | st.binary(min_size=size, max_size=size)
                | st.binary(max_size=size + 32))
    return header + body


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(checkpoint_bytes())
def test_any_bytes_read_as_checkpoint_or_checkpoint_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "property.aqgs"
    path.write_bytes(raw)
    try:
        read_checkpoint(path)
    except CheckpointError:
        pass


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointFormatError, match="cannot read"):
        read_checkpoint(tmp_path / "absent.aqgs")


def _partial_write(self, data):
    with open(self, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("disk full")


def _failed_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("owner, name, broken", [(Path, "write_bytes", _partial_write),
                                                 (os, "replace", _failed_rename)])
def test_failed_write_keeps_old_file(state, params, tmp_path, monkeypatch, owner, name, broken):
    path = tmp_path / "state_0000.aqgs"
    write_checkpoint(path, state, params, 0.25)
    before = path.read_bytes()
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(OSError):
        write_checkpoint(path, state * 2.0, params, 0.5)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state_0000.aqgs"]
