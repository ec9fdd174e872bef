"""Artifact files: atomic writes, JSON and CSV, and the two codecs.

Every artifact is written to a temporary file and renamed into place,
so a crashed run never leaves a half-written file.  A candidate file
stores one fitted function as packed little-endian arrays, and an
errors file stores ``example5``'s iterate errors as one zlib stream;
both decode to the same bits on any host and refuse what they cannot
read in full.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import math
import os
import zlib
from typing import Sequence

import numpy as np

from .approx import FhcCandidate, NewtonPoly

CANDIDATE_FORMAT = "freqdyn-candidate-v6"


@contextlib.contextmanager
def _atomic_file(path: str, mode: str = "w"):
    """A file written as path.tmp and renamed to path once the block
    completes; a block that raises removes it and leaves path as it was.
    mode "w" opens it as UTF-8 text, "wb" as binary."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _atomic_write(path: str, data: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def _json_default(value):
    """Encode the values json cannot: numpy scalars and arrays, complex."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _unbounded_as_null(value: float):
    """JSON has no infinity: an infinite value is written as null."""
    return None if math.isinf(value) else float(value)


def _write_json(path: str, payload) -> None:
    # compact separators keep json on its C encoder; indent would not
    text = json.dumps(
        payload,
        default=_json_default,
        separators=(",", ":"),
        sort_keys=True,
        allow_nan=False,
    )
    _atomic_write(path, text + "\n")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    # rows stream to the file, so the whole text is never held in memory
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# candidate files


# Packed arrays are little-endian complex128 (nodes, coefficients) or
# int16 (scale exponents), so a file decodes to the same bits on any host.
_PACKED = np.dtype("<c16")
_PACKED_EXPONENT = np.dtype("<i2")
# A scale is 2^e with e in this range, a normal float.
_EXPONENTS = (-1022, 1023)


def _pack(values, dtype=_PACKED) -> str:
    values = np.asarray(values, dtype=dtype)
    if not np.all(np.isfinite(values)):
        raise ValueError("a candidate function holds a non-finite entry")
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack(text, name: str, dtype=_PACKED) -> np.ndarray:
    try:
        # validate=True refuses characters outside the alphabet and bad
        # padding; a value that is no string raises TypeError
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{name} is no valid base64: {exc}") from None
    # frombuffer raises ValueError on a byte count of no whole entries
    values = np.frombuffer(raw, dtype=dtype).astype(dtype.type)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} holds a non-finite entry")
    return values


def _scale_exponents(scales: np.ndarray) -> np.ndarray:
    """e with scales == 2^e, refusing a scale that is no such power."""
    exponents = np.frexp(scales)[1] - 1
    lo, hi = _EXPONENTS
    if not np.all((exponents >= lo) & (exponents <= hi) & (np.ldexp(1.0, exponents) == scales)):
        raise ValueError(f"a scale is no power of two 2^e with e in [{lo}, {hi}]")
    return exponents


def _encode_function(fn: NewtonPoly) -> dict:
    return {
        "nodes": _pack(fn.nodes),
        "scale_exponents": _pack(_scale_exponents(fn.scales), _PACKED_EXPONENT),
        "coefficients": _pack(fn.coefficients),
    }


def _decode_function(blob: dict) -> NewtonPoly:
    """A NewtonPoly from its three packed arrays: d nodes, d scale
    exponents e_k in [-1022, 1023], the scales being 2^e_k exactly (the
    rounding bound of NewtonPoly assumes that dividing by one is exact),
    and d + 1 coefficients."""
    nodes = _unpack(blob["nodes"], "nodes")
    exponents = _unpack(blob["scale_exponents"], "scale_exponents", _PACKED_EXPONENT)
    coeffs = _unpack(blob["coefficients"], "coefficients")
    degree = coeffs.size - 1
    if degree < 0:
        raise ValueError("no coefficients")
    if nodes.size != degree or exponents.size != degree:
        raise ValueError(
            f"{nodes.size} nodes and {exponents.size} scale exponents for degree"
            f" {degree}, expected {degree} of each"
        )
    lo, hi = _EXPONENTS
    if not np.all((exponents >= lo) & (exponents <= hi)):
        raise ValueError(f"a scale exponent is outside [{lo}, {hi}]")
    return NewtonPoly(nodes=nodes, scales=np.ldexp(1.0, exponents), coefficients=coeffs)


def _encode_candidate(
    cand: FhcCandidate, config: str, kind: str, islands, extra=None
) -> dict:
    """The candidate file payload of cand, fitted on islands under the
    configuration whose hash is config."""
    payload = {
        "format": CANDIDATE_FORMAT,
        "config": config,
        "kind": kind,
        "status": cand.status,
        "reason": cand.reason,
        "degree": int(cand.degree),
        "certificates": [
            {
                "achieved": _unbounded_as_null(c.achieved),
                "envelope": float(c.envelope),
            }
            for c in cand.certificates
        ],
        "islands": [[int(isl.n), int(isl.nu)] for isl in islands],
        "function": _encode_function(cand.fn),
    }
    if extra:
        payload.update(extra)
    return payload


def _check_metadata(blob: dict, path: str) -> None:
    """Refuse islands other than [n, nu] pairs of positive integers and
    certificates without a finite positive envelope."""
    islands, certs = blob.get("islands", []), blob.get("certificates", [])
    # type(), not isinstance(): JSON true and false load as bool
    if not isinstance(islands, list) or not all(
        isinstance(i, list) and len(i) == 2 and all(type(v) is int and v > 0 for v in i)
        for i in islands
    ):
        raise ValueError(f"candidate file {path}: islands must be [n, nu] positive integers")
    if not isinstance(certs, list) or not all(
        isinstance(c, dict) and type(c.get("envelope")) in (int, float)
        and 0.0 < c["envelope"] < math.inf for c in certs
    ):
        raise ValueError(f"candidate file {path}: certificates need finite positive envelopes")


def load_candidate(path: str):
    """Read back a stored candidate; returns (function, metadata) with the
    islands and certificate envelopes checked."""
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("format") != CANDIDATE_FORMAT:
        raise ValueError(
            f"not a candidate file of format {CANDIDATE_FORMAT}: {path};"
            " rebuild it with build_fhc"
        )
    _check_metadata(blob, path)
    encoded = blob.get("function")
    if encoded is None:
        raise ValueError(f"candidate file carries no function: {path}")
    try:
        return _decode_function(encoded), blob
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed function in candidate file {path}: {exc!r}"
        ) from None


# ---------------------------------------------------------------------------
# iterate errors

# An errors file is this line, then one zlib stream (level 6) of the
# second differences of errors e_1, e_2, ...: with u_i the little-endian
# bits of e_i and u_0 = u_-1 = 0, d_i = u_i - 2 u_{i-1} + u_{i-2}
# mod 2^64, cut into blocks of _ERRORS_BLOCK values, each block written
# as its 8 byte planes (byte 0 of every value, then byte 1, ...) and
# ended by a sync flush.  Smoothly falling errors leave the high planes
# nearly constant, which zlib packs tightly.
ERRORS_HEADER = b"freqdyn-errors-v1\n"
_ERRORS_BLOCK = 4096


def _write_errors(path: str, errors: np.ndarray) -> None:
    """Write errors as an errors file, one block at a time: the extra
    memory is a few blocks and zlib's state, whatever the length."""
    bits = np.asarray(errors, dtype="<f8").view("<u8")
    packer = zlib.compressobj(6)
    # window[:2] carries u_{i-2}, u_{i-1} into each block
    window = np.zeros(_ERRORS_BLOCK + 2, dtype="<u8")
    with _atomic_file(path, "wb") as fh:
        fh.write(ERRORS_HEADER)
        for start in range(0, bits.size, _ERRORS_BLOCK):
            block = bits[start : start + _ERRORS_BLOCK]
            n = block.size
            window[2 : n + 2] = block
            # unsigned arithmetic wraps mod 2^64
            diff = window[2 : n + 2] - window[1 : n + 1] - window[1 : n + 1]
            diff += window[:n]
            fh.write(packer.compress(diff.view(np.uint8).reshape(n, 8).T.tobytes()))
            # else zlib holds back up to ~32 kB of packed output
            fh.write(packer.flush(zlib.Z_SYNC_FLUSH))
            window[:2] = window[n : n + 2]
        fh.write(packer.flush())


def load_errors(path: str) -> np.ndarray:
    """Read back an errors file as a '<f8' array, bit for bit; refuse
    another header, a corrupt, truncated or trailed zlib stream and a
    byte count of no whole values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(ERRORS_HEADER):
        raise ValueError(
            f"not an errors file of format {ERRORS_HEADER.decode().strip()}: {path}"
        )
    unpacker = zlib.decompressobj()
    try:
        raw = unpacker.decompress(memoryview(blob)[len(ERRORS_HEADER) :])
    except zlib.error as exc:
        raise ValueError(f"corrupt zlib stream in errors file {path}: {exc}") from None
    if not unpacker.eof:
        raise ValueError(f"truncated zlib stream in errors file {path}")
    if unpacker.unused_data:
        raise ValueError(
            f"{len(unpacker.unused_data)} bytes after the zlib stream in errors file {path}"
        )
    if len(raw) % 8:
        raise ValueError(f"{len(raw)} bytes of errors in {path}, no whole float64 values")
    diff = np.empty(len(raw) // 8, dtype="<u8")
    planes = np.frombuffer(raw, dtype=np.uint8)
    for start in range(0, diff.size, _ERRORS_BLOCK):
        n = min(_ERRORS_BLOCK, diff.size - start)
        block = planes[8 * start : 8 * (start + n)].reshape(8, n)
        diff[start : start + n] = np.ascontiguousarray(block.T).view("<u8")[:, 0]
    # two wrapping running sums undo the two differences
    np.cumsum(diff, dtype="<u8", out=diff)
    np.cumsum(diff, dtype="<u8", out=diff)
    return diff.view("<f8")
