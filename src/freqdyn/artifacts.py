"""Artifact files: atomic writes, JSON and CSV, and two readers.

Every artifact is written to a temporary file and renamed into place,
so a crashed run never leaves a half-written file.  A candidate file
stores one fitted function as packed little-endian arrays, which decode
to the same bits on any host; an iterate report stores the closed-form
rule of ``example5``'s bounds, which its reader evaluates.  Both readers
refuse what they cannot read in full.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import math
import os
from typing import Sequence

import numpy as np

from . import orbit
from .approx import FhcCandidate, NewtonPoly

CANDIDATE_FORMAT = "freqdyn-candidate-v6"


@contextlib.contextmanager
def _atomic_file(path: str):
    """A UTF-8 text file written as path.tmp and renamed to path once the
    block completes; a block that raises removes it and leaves path as
    it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
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
# iterate bounds

BOUNDS_FORMAT = "freqdyn-iterate-bounds-v1"

# The rule constants of orbit.iterate_bounds a report was written under.
_RULE_CONSTANTS = {
    "margin_exponent": int(math.log2(orbit.ITERATE_MARGIN)),
    "significant_bits": orbit.ITERATE_BITS,
}


def _encode_bounds(
    rule: orbit.IterateRule, config: str, final: float, decreasing
) -> dict:
    """The report payload of an iterate rule, written under the
    configuration whose hash is config, with its final bound e_N (null
    if NaN) and the step from which the exact errors decrease."""
    return {
        "format": BOUNDS_FORMAT,
        "config": config,
        "iterates": rule.iterates,
        "v0": rule.v0,
        "rho": rule.rho,
        "step": rule.step,
        "reach": rule.reach,
        **_RULE_CONSTANTS,
        "final_bound": None if math.isnan(final) else final,
        "decreasing_from": decreasing,
    }


def _rule_field(blob: dict, name: str, path: str, pair: bool = False):
    """Field name of an iterate report: a finite number, or with pair a
    [real, imag] pair of finite numbers, read as a complex."""
    value = blob.get(name)
    parts = value if pair and isinstance(value, list) else [value]
    # type(), not isinstance(): JSON true and false load as bool
    if len(parts) != 1 + pair or not all(
        type(v) in (int, float) and math.isfinite(v) for v in parts
    ):
        raise ValueError(f"iterate report {path}: {name} is missing or not finite")
    return complex(*parts) if pair else float(value)


def load_errors(path: str) -> np.ndarray:
    """The bounds e_1, ..., e_N of an iterate report as a '<f8' array,
    evaluated from its rule by orbit.iterate_bounds: the bits example5
    computed, for one numpy and libm build.  Refuses another format,
    other rule constants, a missing or non-finite field and
    iterates < 1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError:  # no JSON text, such as an errors.f8z of old
        blob = None
    if not isinstance(blob, dict) or blob.get("format") != BOUNDS_FORMAT:
        raise ValueError(f"not an iterate report of format {BOUNDS_FORMAT}: {path}")
    for name, want in _RULE_CONSTANTS.items():
        if blob.get(name) != want:
            raise ValueError(f"iterate report {path}: {name} must be {want}")
    iterates = blob.get("iterates")
    if type(iterates) is not int or iterates < 1:
        raise ValueError(f"iterate report {path}: iterates must be a positive integer")
    rule = orbit.IterateRule(
        v0=_rule_field(blob, "v0", path, pair=True),
        rho=_rule_field(blob, "rho", path),
        step=_rule_field(blob, "step", path, pair=True),
        reach=_rule_field(blob, "reach", path),
        iterates=iterates,
    )
    return orbit.iterate_bounds(rule, 1, iterates + 1).astype("<f8", copy=False)
