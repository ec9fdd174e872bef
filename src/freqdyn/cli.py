"""Config-driven experiment harness.

Every subcommand reads one INI file, optionally patched by repeatable
``--override section.key=value`` flags, runs a fixed pipeline, and
writes its artifacts under ``<output root>/<command>/``.  The output
root is the ``dir`` entry of the ``[output]`` section unless the
``FREQDYN_OUT`` environment variable is set.  Artifacts are written to
a temporary file and renamed into place, so a crashed run never leaves
a half-written report.  Summaries contain one ``PASS:`` or ``FAIL:``
line per checked property and the process exits nonzero exactly when
some line failed.

Reports embed a short hash of the effective configuration so that any
artifact can be traced back to the exact parameter set that produced
it.  Identical configurations produce byte-identical artifacts (for
one zlib build, whose output enters ``example5``'s errors file); wall
clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import base64
import configparser
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# SHA-256 from the interpreter's built-in module, as `random` takes
# SHA-512: hashlib would load OpenSSL's libcrypto, about 3.6 MB resident,
# for one digest of the config text.  The digest is the same.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # built without builtin hashes
        from hashlib import sha256

from . import approx, density, orbit, runaway
from ._record import record
from .approx import (
    BasisKind,
    FhcCandidate,
    NewtonPoly,
    enumerate_dense_polynomial,
)
from .density import IndexSet
from .geometry import (
    ClosedDisc,
    Domain,
    DomainKind,
    Exhaustion,
    right_half_plane_exhaustion,
    sector_exhaustion,
    unit_disc_exhaustion,
    whole_plane_exhaustion,
)
from .maps import (
    ConformalPair,
    HalfPlaneShift,
    HoloMap,
    Identity,
    PairKind,
    ParabolicDisc,
    RootShift,
    Similarity,
    Conjugated,
    apply,
    maps_into,
)
from .sigma import SIGMA_TOL, SigmaReport, cmd_sigma

__all__ = [
    "ExperimentConfig",
    "SigmaReport",
    "CommandResult",
    "apply_overrides",
    "cmd_build_fhc",
    "cmd_density",
    "cmd_example1",
    "cmd_example2",
    "cmd_example3",
    "cmd_example4",
    "cmd_example5",
    "cmd_runaway",
    "cmd_scan",
    "cmd_sepfamily",
    "cmd_sigma",
    "cmd_split",
    "config_hash",
    "load_config",
    "main",
]

ENV_OUTPUT = "FREQDYN_OUT"

# Conformal conjugation identities must close to this residual; it sits
# far above double-precision round-off and far below any model error.
CONJUGATION_TOL = 1e-10
FIXED_POINT_TOL = 1e-12

# A weak runaway verdict needs the escape times to keep at least this
# much lower density; zero-density escapes are the classical failure.
WEAK_DENSITY_FLOOR = 0.01

# Map indices probed when checking conjugation formulas pointwise.
PROBE_STEPS = (1, 2, 3, 5, 10, 100)
# Points and outer radius of the disc mesh those checks run on.
MESH_POINTS = 1000
MESH_RADIUS = 0.95

CANDIDATE_FORMAT = "freqdyn-candidate-v6"

# example5, density, split and sepfamily refuse, before any work, a
# horizon whose arrays would exceed this many bytes (_within_budget), and
# build_fhc a degree cap whose fit would (_within_fit_budget).
MEMORY_BUDGET = 2 * 1024**3
# lower_density_estimate's temporaries for one block of elements, which
# density, split and sepfamily add to their estimates (48 bytes per
# element of the block measured)
DENSITY_BLOCK_BYTES = 64 * density.DENSITY_BLOCK


# ---------------------------------------------------------------------------
# configuration


def _entry(key: str, default):
    """A config field read from the INI entry key = "section.key"."""
    return dataclasses.field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat view of one INI experiment description.

    Each field names its ``section.key`` entry; the type of its default
    is the type the entry parses to.  Unused entries are harmless; each
    subcommand reads only the fields its pipeline needs.
    """

    domain_kind: str = _entry("domain.kind", "whole_plane")
    map_family: str = _entry("maps.family", "translation")
    schedule: str = _entry("maps.schedule", "direct")
    alpha: float = _entry("maps.alpha", 0.0)
    beta: float = _entry("maps.beta", 1.0)
    root_n: int = _entry("maps.root_n", 1)
    a_param: float = _entry("maps.a", 1.0)
    gamma: float = _entry("maps.gamma", 1.0)
    c_const: float = _entry("maps.c", 0.25)
    b_power: float = _entry("maps.b_power", 2.0)
    omega_power: float = _entry("maps.omega_power", 1.0)
    pairs: int = _entry("family.pairs", 3)
    multiplier: int = _entry("family.multiplier", 8)
    n_max: int = _entry("horizons.n_max", 10000)
    nu_max: int = _entry("horizons.nu_max", 2)
    l_max: int = _entry("horizons.l_max", 2)
    mu_max: int = _entry("horizons.mu_max", 3)
    iterates: int = _entry("horizons.iterates", 200)
    delta: float = _entry("tolerances.delta", 0.0)
    grid_res: int = _entry("tolerances.grid_res", 3)
    max_degree: int = _entry("tolerances.max_degree", 256)
    split_parts: int = _entry("split.parts", 4)
    set_kind: str = _entry("set.kind", "naturals")
    set_first: int = _entry("set.first", 1)
    set_step: int = _entry("set.step", 1)
    build_kind: str = _entry("build.kind", "existence")
    bases: int = _entry("build.bases", 0)
    max_islands: int = _entry("build.max_islands", 4)
    runaway_mode: str = _entry("runaway.mode", "strong")
    candidate_path: str = _entry("scan.candidate", "")
    out_dir: str = _entry("output.dir", "out")


# (section, key, attribute, type) of every field; the one table that
# parsing, overrides and the configuration hash read.
_FIELDS = tuple(
    (*f.metadata["key"].split("."), f.name, type(f.default))
    for f in dataclasses.fields(ExperimentConfig)
)
_KEY_TABLE = {(s, k): (attr, kind) for s, k, attr, kind in _FIELDS}


def _parse_value(kind, raw: str):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw, 10)
        except ValueError:
            pass
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {raw!r}")
    if kind is int:
        out = int(round(val))
        if abs(val - out) > 0.0:
            raise ValueError(f"expected an integer, got {raw!r}")
        return out
    return val


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI file; unknown sections or keys are hard errors."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            # configparser spreads its messages over several lines
            raise ValueError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if parser.defaults():
        raise ValueError("the DEFAULT section is not supported, use explicit sections")
    updates = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            entry = _KEY_TABLE.get((section, key))
            if entry is None:
                raise ValueError(f"unknown config entry [{section}] {key}")
            attr, kind = entry
            updates[attr] = _parse_value(kind, raw)
    return dataclasses.replace(ExperimentConfig(), **updates)


def apply_overrides(
    cfg: ExperimentConfig, overrides: Sequence[str]
) -> ExperimentConfig:
    """Apply command line ``section.key=value`` patches in order."""
    updates = {}
    for item in overrides:
        lhs, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        section, dot, key = lhs.strip().partition(".")
        if not dot:
            raise ValueError(f"override key must be section.key: {lhs.strip()!r}")
        entry = _KEY_TABLE.get((section.strip(), key.strip()))
        if entry is None:
            raise ValueError(f"unknown override target {lhs.strip()!r}")
        attr, kind = entry
        updates[attr] = _parse_value(kind, raw)
    if not updates:
        return cfg
    return dataclasses.replace(cfg, **updates)


def _canonical(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short digest of the effective configuration, defaults included.

    The output root is left out: where a run writes changes none of it.
    """
    lines = sorted(
        f"{section}.{key}={_canonical(getattr(cfg, attr))}"
        for section, key, attr, _ in _FIELDS
        if attr != "out_dir"
    )
    digest = sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]


def _candidate_hash(cfg: ExperimentConfig) -> str:
    """config_hash without scan.candidate, which a build config leaves
    empty: the hash a candidate stores and a scan of it compares."""
    return config_hash(dataclasses.replace(cfg, candidate_path=""))


# ---------------------------------------------------------------------------
# builders


# domain.kind -> the exhaustion of that domain, whose domain every
# command takes as the configured one
_DOMAIN_KINDS = {
    "whole_plane": lambda cfg: whole_plane_exhaustion(),
    "unit_disc": lambda cfg: unit_disc_exhaustion(),
    "right_half_plane": lambda cfg: right_half_plane_exhaustion(),
    "slit_plane": lambda cfg: sector_exhaustion(
        cfg.c_const, cfg.alpha, cfg.beta, cfg.root_n
    ),
}


def build_exhaustion(cfg: ExperimentConfig) -> Exhaustion:
    build = _DOMAIN_KINDS.get(cfg.domain_kind)
    if build is None:
        raise ValueError(f"unknown domain kind {cfg.domain_kind!r}")
    return build(cfg)


def build_schedule(cfg: ExperimentConfig) -> Callable[[int], HoloMap]:
    fam = cfg.map_family
    if fam == "translation":
        base = lambda n: Similarity(1.0, complex(n))
    elif fam == "root_shift":
        base = lambda n: RootShift(cfg.alpha, cfg.beta, cfg.root_n, n)
    elif fam == "half_plane_shift":
        base = lambda n: HalfPlaneShift(cfg.a_param, cfg.gamma, n)
    elif fam == "parabolic_disc":
        base = lambda n: ParabolicDisc(cfg.a_param, cfg.gamma, n)
    elif fam == "identity":
        dom = build_exhaustion(cfg).domain
        base = lambda n: Identity(dom)
    else:
        raise ValueError(f"unknown map family {cfg.map_family!r}")
    if cfg.schedule == "powers_of_two":
        return runaway.powers_of_two_schedule(base(1))
    if cfg.schedule != "direct":
        raise ValueError(f"unknown schedule {cfg.schedule!r}")
    return base


def _prepare_runaway(cfg: ExperimentConfig, pairs: Optional[int] = None):
    fam = density.build_separated_family(
        pairs if pairs else cfg.pairs, cfg.n_max, cfg.multiplier
    )
    fam_report = fam.report
    exh = build_exhaustion(cfg)
    schedule = build_schedule(cfg)
    rcfg = runaway.RunawayConfig(
        domain=exh.domain,
        maps=schedule,
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=cfg.n_max,
        nu_max=cfg.nu_max,
    )
    return fam, fam_report, exh, schedule, rcfg


# ---------------------------------------------------------------------------
# artifacts


@record
class CommandResult:
    name: str
    lines: tuple
    artifacts: tuple

    @property
    def failed(self) -> bool:
        return any(line.startswith("FAIL:") for line in self.lines)


def _within_budget(key: str, value: int, need: int) -> None:
    """Refuse a config whose key sets arrays of about need bytes, more
    than MEMORY_BUDGET, before the command allocates any of them."""
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"{key}={value} needs about {need / 2**30:.1f} GiB,"
            f" over the {MEMORY_BUDGET / 2**30:.0f} GiB memory budget"
        )


def _verdict(ok: bool, text: str) -> str:
    return ("PASS: " if ok else "FAIL: ") + text


def _output_dir(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(os.environ.get(ENV_OUTPUT, "") or cfg.out_dir, name)


def _artifact_dir(cfg: ExperimentConfig, name: str) -> str:
    path = _output_dir(cfg, name)
    os.makedirs(path, exist_ok=True)
    return path


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


def _sigma_payload(rep: SigmaReport) -> dict:
    payload = {name: getattr(rep, name) for name in rep._fields}
    payload["limit_at_one"] = _unbounded_as_null(rep.limit_at_one)
    return payload


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


def _finish(
    cfg: ExperimentConfig, name: str, out: str, lines, artifacts
) -> CommandResult:
    head = [f"# freqdyn {name}", f"# config {config_hash(cfg)}"]
    summary = os.path.join(out, "summary.txt")
    _atomic_write(summary, "\n".join(head + list(lines)) + "\n")
    return CommandResult(
        name=name, lines=tuple(lines), artifacts=tuple([summary] + list(artifacts))
    )


# ---------------------------------------------------------------------------
# candidate serialization


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
    cand: FhcCandidate, cfg: ExperimentConfig, kind: str, islands, extra=None
) -> dict:
    payload = {
        "format": CANDIDATE_FORMAT,
        "config": _candidate_hash(cfg),
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


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _splits(kind: str, fam, cfg: ExperimentConfig) -> dict:
    """Per-level index splits that label the island targets of a build.

    Each family set splits into p-blocks and each block into l_max
    labels, keyed (l, p): an existence candidate takes one block, dense
    one block more than members (block mu + 1 feeds member mu), the
    other builds one block per member; mixed members subdivide the first
    part of a split in two.
    """
    blocks = {"existence": 1, "dense": cfg.mu_max + 1}.get(kind, cfg.mu_max)
    out = {}
    for nu in sorted({int(nu) for nu in fam.nu_values() if int(nu) <= cfg.nu_max}):
        a = fam.a_of_nu(nu)
        if kind == "mixed":
            a = density.split(a, 2, cfg.n_max)[0]
        out[nu] = approx.double_split(a, cfg.l_max, blocks, cfg.n_max)
    return out


def _runaway_lines(rep) -> tuple:
    """P1-P3 verdict lines and one NOTE per witness the check found."""
    verdicts = [
        _verdict(rep.p1_ok, "P1: index families keep positive lower density"),
        _verdict(rep.p2_ok, "P2: islands are disjoint with separated images"),
        _verdict(rep.p3_ok, "P3: probe compacts avoid foreign image discs"),
    ]
    notes = [
        f"NOTE: {label} witness {witness}"
        for label, witness in (
            ("P1", rep.p1_witness),
            ("P2 index", rep.p2_index_witness),
            ("P2 disc", rep.p2_disc_witness),
            ("P3", rep.p3_witness),
        )
        if witness is not None
    ]
    return verdicts, notes


def _within_fit_budget(cfg: ExperimentConfig, targets) -> None:
    """Refuse a degree cap whose fit (approx.fit_bytes) on the largest of
    targets would pass MEMORY_BUDGET, before any fit runs."""
    need = max(approx.fit_bytes(target, cfg.max_degree) for target in targets)
    _within_budget("tolerances.max_degree", cfg.max_degree, need)


def _fit_existence(cfg: ExperimentConfig, tr, splits, out: str, label: str):
    """Fit one candidate on the islands of a base-free truncation and
    write candidate.json; returns (candidate, summary lines, path).

    A fit to the zero function fails: it is not frequently hypercyclic.
    """
    target = approx.assemble_existence_target(tr, splits, cfg.grid_res)
    _within_fit_budget(cfg, [target])
    cand = approx.fit_on_compacts(target, cfg.max_degree)
    zero = not np.any(cand.fn.coefficients)
    lines = [
        _verdict(
            cand.status == "PASS" and not zero,
            f"{label} {cand.status} at degree {cand.degree}"
            f" (worst error ratio {cand.max_ratio:.3g})",
        )
    ]
    if zero:
        lines.append(
            "NOTE: the candidate is the zero function, which is not frequently"
            " hypercyclic"
        )
    path = os.path.join(out, "candidate.json")
    _write_json(path, _encode_candidate(cand, cfg, "existence", tr.islands))
    return cand, lines, path


def _island_pairs(islands, splits, horizon: int):
    """Designed index sets of the labelled (n, nu) islands, grouped by
    (nu, l); every island index must be at most horizon."""
    blocks = {}
    for n, nu in islands:
        label = approx.island_label(splits, n, nu)
        if label is not None:
            blocks.setdefault((int(nu), label[0]), []).append(int(n))
    out = []
    for (nu, l_idx), ns in sorted(blocks.items()):
        els = np.array(sorted(ns), dtype=np.int64)
        out.append((nu, l_idx, IndexSet(els, horizon, f"designed(nu={nu},l={l_idx})")))
    return out


SCAN_HEADER = ("nu", "l", "n", "designed", "error", "eps_sup", "hit", "prefix_ratio")


def _scan_candidate(
    fn, islands, envelopes, cfg: ExperimentConfig, splits, exh, schedule, out: str
):
    """Scan an existence candidate over the designed blocks of its (n, nu)
    islands, up to the largest island index, and write scan.csv.

    Blocks whose compact is empty are dropped; returns None when
    none is left, else (report, path).  A zero configured delta means
    twice the largest certificate envelope.
    """
    horizon = max((int(n) for n, _ in islands), default=0)
    pairs = [
        (nu, l, d)
        for nu, l, d in _island_pairs(islands, splits, horizon)
        if not exh.member(nu).is_empty
    ]
    if not pairs:
        return None
    delta = cfg.delta
    if delta <= 0.0:
        if not envelopes:
            raise ValueError("candidate carries no certificates, set a delta")
        delta = 2.0 * max(envelopes)
    report = orbit.scan(
        fn, schedule, exh, enumerate_dense_polynomial, delta, horizon, pairs,
        cfg.grid_res,
    )
    path = os.path.join(out, "scan.csv")
    _write_csv(path, SCAN_HEADER, _scan_rows(report))
    return report, path


def _scan_lines(report) -> list:
    lines = []
    for e in report.entries:
        lines.append(
            _verdict(
                e.passed,
                f"scan block (nu={e.nu}, l={e.l}): {e.designed.elements.size} designed"
                f" indices, burn-in {e.burn_in}, hit rate {e.hit_rate:.3g}",
            )
        )
    return lines


def _scan_rows(report):
    rows = []
    for e in report.entries:
        designed = set(int(n) for n in e.designed.elements)
        hits = set(int(n) for n in e.hits.elements)
        running = 0
        for n in range(1, report.horizon + 1):
            if n in hits:
                running += 1
            rows.append(
                (
                    e.nu,
                    e.l,
                    n,
                    int(n in designed),
                    f"{e.errors[n - 1]:.6e}",
                    f"{e.eps_sup[n - 1]:.6e}",
                    int(n in hits),
                    f"{running / n:.4f}",
                )
            )
    return rows


def _disc_mesh() -> np.ndarray:
    per_ring = 40
    rings = max(1, MESH_POINTS // per_ring)
    r = MESH_RADIUS * (np.arange(1, rings + 1) / rings)
    th = 2.0 * np.pi * np.arange(per_ring) / per_ring
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


# ---------------------------------------------------------------------------
# subcommands


def _cli_sigma(cfg: ExperimentConfig) -> CommandResult:
    out = _artifact_dir(cfg, "sigma")
    rep = cmd_sigma(cfg.alpha, cfg.beta)
    lines = [
        f"NOTE: sigma({cfg.alpha:g}, {cfg.beta:g}) = {rep.sigma:.12g}",
        f"NOTE: radius constant C = {rep.c_const:.12g}",
        f"NOTE: endpoint limits {rep.limit_at_one:g} (t -> 1) and"
        f" {rep.limit_at_inf:g} (t -> infinity)",
        _verdict(rep.sigma > 0.0, "separation exponent is positive"),
        _verdict(
            rep.upper - rep.sigma <= SIGMA_TOL * rep.upper,
            f"sigma bracket [{rep.sigma:.12g}, {rep.upper:.12g}] closes within {SIGMA_TOL:g}",
        ),
    ]
    path = os.path.join(out, "report.json")
    _write_json(path, {"config": config_hash(cfg), **_sigma_payload(rep)})
    return _finish(cfg, "sigma", out, lines, [path])


def cmd_example1(cfg: ExperimentConfig) -> CommandResult:
    """Root-shift maps on the slit plane: the full certification chain."""
    out = _artifact_dir(cfg, "example1")
    lines = []
    sig = cmd_sigma(cfg.alpha, cfg.beta)
    lines.append(
        f"NOTE: sigma = {sig.sigma:.12g}, certified radius constant"
        f" {sig.c_const:.12g}"
    )
    if cfg.c_const > sig.c_const:
        lines.append(
            f"NOTE: configured radius constant {cfg.c_const:g} exceeds the"
            " certified value"
        )
    auto_pairs = cfg.nu_max * (cfg.nu_max + 1) // 2
    fam, fam_report, exh, schedule, rcfg = _prepare_runaway(
        cfg, pairs=max(cfg.pairs, auto_pairs)
    )
    lines.append(_verdict(fam_report.passed, "separated family verifies"))
    rep = runaway.check_strong_runaway(rcfg)
    verdicts, notes = _runaway_lines(rep)
    lines.extend(verdicts + notes)
    gap = rep.disc_gap
    lines.append(
        _verdict(
            gap > 0.0,
            f"image discs pairwise separated over {rep.disc_pairs_checked}"
            f" pairs (minimal gap {gap:.6g})",
        )
    )
    if gap <= 0.0:
        lines.append(f"NOTE: closest disc pair {rep.disc_gap_pair}")

    payload = {
        "config": config_hash(cfg),
        "sigma": _sigma_payload(sig),
        "p1_ok": rep.p1_ok,
        "p2_ok": rep.p2_ok,
        "p3_ok": rep.p3_ok,
        "islands": len(rep.islands),
        "disc_gap": _unbounded_as_null(gap),
        "disc_pairs_checked": rep.disc_pairs_checked,
    }
    artifacts = []
    if rep.p1_ok and rep.p2_ok and rep.p3_ok:
        tr = runaway.build_carleman_truncation(
            rcfg, bases=0, report=rep, max_islands=cfg.max_islands
        )
        splits = _splits("existence", fam, cfg)
        cand, fit_lines, cpath = _fit_existence(cfg, tr, splits, out, "island fit")
        lines.extend(fit_lines)
        artifacts.append(cpath)
        payload["fit_status"] = cand.status
        payload["fit_degree"] = int(cand.degree)

        islands = [(isl.n, isl.nu) for isl in tr.islands]
        envelopes = [c.envelope for c in cand.certificates]
        scanned = _scan_candidate(
            cand.fn, islands, envelopes, cfg, splits, exh, schedule, out
        )
        if scanned is None:
            lines.append(
                "NOTE: orbit scan skipped, every truncation compact is empty at"
                " this radius constant"
            )
        else:
            scan_rep, spath = scanned
            lines.extend(_scan_lines(scan_rep))
            artifacts.append(spath)
    else:
        lines.append("NOTE: truncation and fit skipped, the runaway check failed")
    rpath = os.path.join(out, "report.json")
    _write_json(rpath, payload)
    artifacts.append(rpath)
    return _finish(cfg, "example1", out, lines, artifacts)


def cmd_example2(cfg: ExperimentConfig) -> CommandResult:
    """Conjugate the slit-plane shifts onto the disc and check the identity."""
    out = _artifact_dir(cfg, "example2")
    pair = ConformalPair(PairKind.SLIT_TO_DISC)
    mesh = _disc_mesh()
    w = pair.backward(mesh)
    rows = []
    worst_resid = 0.0
    worst_mod = 0.0
    for n in PROBE_STEPS:
        inner = RootShift(cfg.alpha, cfg.beta, cfg.root_n, n)
        phi = Conjugated(pair, inner)
        lhs = apply(phi, pair.forward(w))
        rhs = pair.forward(apply(inner, w))
        resid = float(np.max(np.abs(lhs - rhs)))
        mod = float(np.max(np.abs(apply(phi, mesh))))
        worst_resid = max(worst_resid, resid)
        worst_mod = max(worst_mod, mod)
        rows.append((n, f"{resid:.6e}", f"{mod:.12f}"))
    lines = [
        _verdict(
            worst_resid < CONJUGATION_TOL,
            f"conjugation identity closes to {worst_resid:.3e} on"
            f" {mesh.size} points",
        ),
        _verdict(worst_mod < 1.0, f"conjugated maps stay inside the disc"
                 f" (max modulus {worst_mod:.6f})"),
    ]
    path = os.path.join(out, "residuals.csv")
    _write_csv(path, ("n", "residual", "max_modulus"), rows)
    return _finish(cfg, "example2", out, lines, [path])


def cmd_example3(cfg: ExperimentConfig) -> CommandResult:
    """Parabolic disc maps against their half-plane conjugation."""
    out = _artifact_dir(cfg, "example3")
    pair = ConformalPair(PairKind.CAYLEY_DISC_TO_HALF_PLANE).reversed()
    mesh = _disc_mesh()
    rows = []
    worst_resid = 0.0
    worst_fp = 0.0
    worst_mod = 0.0
    for n in PROBE_STEPS:
        direct = ParabolicDisc(cfg.a_param, cfg.gamma, n)
        conj = Conjugated(pair, HalfPlaneShift(cfg.a_param, cfg.gamma, n))
        vals = apply(direct, mesh)
        resid = float(np.max(np.abs(vals - apply(conj, mesh))))
        # the map is defined on the closed disc, so the boundary fixed
        # point can be evaluated directly
        fp_err = abs(apply(direct, 1.0 + 0.0j) - 1.0)
        mod = float(np.max(np.abs(vals)))
        worst_resid = max(worst_resid, resid)
        worst_fp = max(worst_fp, fp_err)
        worst_mod = max(worst_mod, mod)
        rows.append((n, f"{resid:.6e}", f"{fp_err:.3e}", f"{mod:.12f}"))
    lines = [
        _verdict(
            worst_resid < CONJUGATION_TOL,
            f"closed form matches the conjugated chain to {worst_resid:.3e}"
            f" on {mesh.size} points",
        ),
        _verdict(
            worst_fp <= FIXED_POINT_TOL,
            f"boundary fixed point error {worst_fp:.3e}",
        ),
        _verdict(worst_mod < 1.0, f"maps stay inside the disc"
                 f" (max modulus {worst_mod:.6f})"),
    ]
    path = os.path.join(out, "residuals.csv")
    _write_csv(path, ("n", "residual", "fixed_point_error", "max_modulus"), rows)
    return _finish(cfg, "example3", out, lines, [path])


def cmd_example4(cfg: ExperimentConfig) -> CommandResult:
    """Similarity coefficients: growth and pairwise separation checks."""
    out = _artifact_dir(cfg, "example4")
    horizon = cfg.n_max
    a_seq = lambda n: 1.0 + 0.0j
    b_seq = lambda n: complex(float(n) ** cfg.b_power)
    omega_seq = lambda k: float(k) ** cfg.omega_power
    sim = density.check_similarity_criterion(a_seq, b_seq, omega_seq, horizon)
    sep = density.check_translation_separation(b_seq, horizon)
    lines = [
        _verdict(sim.passed, "similarity coefficients satisfy the criterion"),
        f"NOTE: growth check {'ok' if sim.growth_ok else 'violated'},"
        f" pairwise check {'ok' if sim.pairwise_ok else 'violated'}",
    ]
    if sim.witness is not None:
        lines.append(f"NOTE: pairwise witness {sim.witness}")
    lines += [
        _verdict(sep.passed, "translation steps separate all difference classes"),
        f"NOTE: {'slow' if sep.slow_growth else 'fast'} separation growth over"
        f" k <= {sep.k_max}",
    ]
    path = os.path.join(out, "report.json")
    _write_json(
        path,
        {
            "config": config_hash(cfg),
            "similarity_passed": sim.passed,
            "growth_ok": sim.growth_ok,
            "pairwise_ok": sim.pairwise_ok,
            "separation_passed": sep.passed,
            "slow_growth": sep.slow_growth,
            "k_max": sep.k_max,
            "infima": list(sep.infima),
        },
    )
    return _finish(cfg, "example4", out, lines, [path])


def cmd_example5(cfg: ExperimentConfig) -> CommandResult:
    """Orbit contraction of a parabolic disc map toward its fixed point."""
    # the errors and at most two arrays of their size that the
    # monotone-tail test derives from them; errors.f8z is written one
    # block of errors at a time
    _within_budget("horizons.iterates", cfg.iterates, 24 * cfg.iterates)
    out = _artifact_dir(cfg, "example5")
    region = ClosedDisc(0.0, 0.5)
    # upper bounds on sup |Phi_1^n(z) - 1| over the region, n = 1..N
    rep = orbit.iterate_convergence(
        ParabolicDisc(cfg.a_param, cfg.gamma, 1), region, 1.0 + 0.0j, cfg.iterates
    )
    final = float(rep.errors[-1])
    tail = orbit.first_monotone_tail(rep.errors)
    # a constant sequence is a monotone tail that never decreases
    drop = float(rep.errors[tail] - rep.errors[-1])
    lines = [
        _verdict(final < 0.1, f"error after {cfg.iterates} steps is {final:.6f}"),
        _verdict(
            tail <= (3 * cfg.iterates) // 4 and drop > orbit.MONOTONE_TOL,
            f"errors decrease monotonically from step {tail + 1}",
        ),
    ]
    ident = Identity(Domain(DomainKind.UNIT_DISC))
    control = orbit.iterate_convergence(ident, region, 1.0 + 0.0j, min(50, cfg.iterates))
    spread = float(np.max(control.errors) - np.min(control.errors))
    lines.append(
        _verdict(
            spread <= 1e-12 and float(control.errors[0]) > 0.0,
            "identity control shows no decrease",
        )
    )
    path = os.path.join(out, "errors.f8z")
    # entry i bounds e_{i+1}; its decoded bits are identical on every
    # host, the file's bytes for one zlib build
    _write_errors(path, rep.errors)
    return _finish(cfg, "example5", out, lines, [path])


# Build kinds: (base compacts for a config, member target assembler, kind
# of the span basis the members form).  The existence build fits a single
# candidate instead of members, and dense members form no basis.
# Assemblers are named, not bound, so each call resolves them on approx
# and passes through any wrapper installed there.
_BUILD_KINDS = {
    "existence": (lambda cfg: 0, None, None),
    "dense": (
        lambda cfg: max(cfg.bases, cfg.mu_max + 1), "assemble_dense_target", None
    ),
    "spaceable": (lambda cfg: 1, "assemble_spaceable_target", BasisKind.SPACEABLE),
    "mixed": (lambda cfg: 1, "assemble_mixed_target", BasisKind.MIXED),
}


def cmd_build_fhc(cfg: ExperimentConfig) -> CommandResult:
    """Certify a runaway family and fit candidates on its truncation."""
    kind = cfg.build_kind
    if kind not in _BUILD_KINDS:
        raise ValueError(f"unknown build kind {kind!r}")
    base_count, assembler, span_kind = _BUILD_KINDS[kind]
    if kind != "existence" and cfg.mu_max < 1:
        raise ValueError(
            f"horizons.mu_max must be at least 1 for a {kind} build, got {cfg.mu_max}"
        )
    out = _artifact_dir(cfg, "build_fhc")
    fam, fam_report, exh, schedule, rcfg = _prepare_runaway(cfg)
    lines = [_verdict(fam_report.passed, "separated family verifies")]
    rep = runaway.check_strong_runaway(rcfg)
    lines.append(
        _verdict(
            rep.p1_ok and rep.p2_ok and rep.p3_ok,
            f"strong runaway check (P1 {rep.p1_ok}, P2 {rep.p2_ok},"
            f" P3 {rep.p3_ok})",
        )
    )
    if not (rep.p1_ok and rep.p2_ok and rep.p3_ok):
        return _finish(cfg, "build_fhc", out, lines, [])

    tr = runaway.build_carleman_truncation(
        rcfg, bases=base_count(cfg), report=rep, max_islands=cfg.max_islands
    )
    lines.append(
        f"NOTE: truncation keeps {len(tr.islands)} islands and"
        f" {len(tr.bases)} base compacts (k_base {tr.k_base})"
    )
    splits = _splits(kind, fam, cfg)
    if kind == "existence":
        _, fit_lines, path = _fit_existence(cfg, tr, splits, out, "candidate fit")
        return _finish(cfg, "build_fhc", out, lines + fit_lines, [path])

    assemble = getattr(approx, assembler)
    targets = [assemble(mu, tr, splits, cfg.grid_res) for mu in range(1, cfg.mu_max + 1)]
    _within_fit_budget(cfg, targets)
    members = []
    artifacts = []
    for mu, target in enumerate(targets, 1):
        cand = approx.fit_on_compacts(target, cfg.max_degree)
        members.append(cand)
        text = f"member {mu} fit {cand.status} at degree {cand.degree}"
        if span_kind is None:
            text += (
                f" (base error {cand.certificates[0].achieved:.3e}"
                f" vs {1.0 / mu:.3e})"
            )
        lines.append(_verdict(cand.status == "PASS", text))
        path = os.path.join(out, f"member{mu}.json")
        _write_json(
            path, _encode_candidate(cand, cfg, kind, tr.islands, extra={"mu": mu})
        )
        artifacts.append(path)
    ok = all(cand.status == "PASS" for cand in members)
    if span_kind is None:
        if not ok:
            lines.append("NOTE: some member failed, no collection written")
    elif not ok:
        lines.append(_verdict(False, "span basis skipped, a member fit failed"))
    else:
        try:
            basis = approx.build_span_basis(
                members, list(range(1, cfg.mu_max + 1)), span_kind
            )
        except ValueError as exc:
            lines.append(_verdict(False, f"span basis rejected: {exc}"))
        else:
            lines.append(
                _verdict(
                    basis.perturbation_sum < 0.5,
                    f"circle perturbation sum {basis.perturbation_sum:.6f}",
                )
            )
            lines.append(
                f"NOTE: Gram lower eigenvalue {basis.gram_lambda_min:.6f},"
                f" coefficient bound {basis.coeff_bound:.6f}"
            )
            path = os.path.join(out, "basis.json")
            _write_json(
                path,
                {
                    "config": config_hash(cfg),
                    "kind": basis.kind,
                    "indices": list(basis.indices),
                    "perturbation_sum": basis.perturbation_sum,
                    "gram_lambda_min": basis.gram_lambda_min,
                    "coeff_bound": basis.coeff_bound,
                    "members": [f"member{mu}.json" for mu in basis.indices],
                },
            )
            artifacts.append(path)
    return _finish(cfg, "build_fhc", out, lines, artifacts)


def cmd_scan(cfg: ExperimentConfig) -> CommandResult:
    """Scan a stored candidate along its map schedule."""
    out = _artifact_dir(cfg, "scan")
    if not cfg.candidate_path:
        raise ValueError("the [scan] section must name a candidate file")
    fn, meta = load_candidate(cfg.candidate_path)
    if meta.get("kind") != "existence":
        raise ValueError("orbit scans expect an existence candidate")
    lines = []
    if meta.get("config") != _candidate_hash(cfg):
        lines.append(
            "NOTE: candidate was built under a different configuration,"
            f" hash {meta.get('config')}"
        )
    islands = meta.get("islands", [])
    if not islands:
        raise ValueError("candidate file lists no islands to scan")
    fam = density.build_separated_family(cfg.pairs, cfg.n_max, cfg.multiplier)
    exh = build_exhaustion(cfg)
    schedule = build_schedule(cfg)
    envelopes = [c["envelope"] for c in meta.get("certificates", [])]
    splits = _splits("existence", fam, cfg)
    scanned = _scan_candidate(fn, islands, envelopes, cfg, splits, exh, schedule, out)
    if scanned is None:
        raise ValueError("every designed compact has an empty grid at this radius")
    report, path = scanned
    lines.append(
        f"NOTE: scanning {len(report.entries)} blocks to horizon {report.horizon}"
        f" at delta {report.delta:.6g}"
    )
    lines.extend(_scan_lines(report))
    lines.append(_verdict(report.passed, "orbit scan verdict"))
    return _finish(cfg, "scan", out, lines, [path])


def cmd_density(cfg: ExperimentConfig) -> CommandResult:
    """Density estimates of one index set with checkpoint trace."""
    if cfg.set_kind not in ("naturals", "progression"):
        raise ValueError(f"unknown set kind {cfg.set_kind!r}")
    # the set and the one-byte check of its order: 10 bytes per element
    # (9 measured), and one density block
    step = max(cfg.set_step, 1) if cfg.set_kind == "progression" else 1
    _within_budget(
        "horizons.n_max",
        cfg.n_max,
        10 * (cfg.n_max // step + 1) + DENSITY_BLOCK_BYTES,
    )
    out = _artifact_dir(cfg, "density")
    if cfg.set_kind == "naturals":
        a = density.naturals(cfg.n_max)
    else:
        a = density.arithmetic_progression(cfg.set_first, cfg.set_step, cfg.n_max)
    rep = density.lower_density_estimate(a, cfg.n_max)
    upper = rep.upper_estimate
    lines = [
        f"NOTE: lower {rep.lower_estimate:.6f}, upper {upper:.6f}"
        f" at horizon {cfg.n_max}",
        _verdict(rep.lower_estimate <= upper + 1e-12, "estimates are ordered"),
    ]
    if rep.closed_form is not None:
        lines.append(
            _verdict(
                abs(rep.lower_estimate - rep.closed_form) <= 0.01,
                f"estimate within 0.01 of the closed form {rep.closed_form:.6f}",
            )
        )
    path = os.path.join(out, "checkpoints.csv")
    _write_csv(
        path,
        ("n", "ratio"),
        ((n, f"{r:.8f}") for n, r in rep.checkpoints),
    )
    return _finish(cfg, "density", out, lines, [path])


def _partitions(pieces: Sequence[IndexSet], n: int) -> bool:
    """Whether the pieces partition 1..n exactly: their sizes sum to n,
    and a one-byte marker per index is hit at every index, so each index
    is hit once."""
    if sum(p.elements.size for p in pieces) != n:
        return False
    hit = np.zeros(n + 1, dtype=bool)
    for p in pieces:
        if p.elements.size and p.elements[-1] > n:
            return False
        hit[p.elements] = True
    return bool(hit[1:].all())


def cmd_split(cfg: ExperimentConfig) -> CommandResult:
    """Split the naturals into geometric-density parts and verify."""
    # the naturals, whose parts are strided views of them, and the
    # partition check's one-byte marker: 10 bytes per index (9 measured),
    # and one density block
    _within_budget(
        "horizons.n_max", cfg.n_max, 10 * cfg.n_max + DENSITY_BLOCK_BYTES
    )
    out = _artifact_dir(cfg, "split")
    parts = cfg.split_parts
    pieces = density.split(density.naturals(cfg.n_max), parts, cfg.n_max)
    exact = _partitions(pieces, cfg.n_max)
    lines = [_verdict(exact, f"{parts} parts partition 1..{cfg.n_max} exactly")]
    targets = [2.0 ** (-(j + 1)) for j in range(parts - 1)]
    targets.append(2.0 ** (-(parts - 1)))
    rows = []
    for j, (piece, want) in enumerate(zip(pieces, targets), start=1):
        rep = density.lower_density_estimate(piece, cfg.n_max)
        lo, up = rep.lower_estimate, rep.upper_estimate
        lines.append(
            _verdict(
                abs(lo - want) <= 0.01,
                f"part {j} lower density {lo:.6f} within 0.01 of {want:.6f}",
            )
        )
        rows.append((j, f"{want:.6f}", piece.elements.size, f"{lo:.6f}", f"{up:.6f}"))
    path = os.path.join(out, "parts.csv")
    _write_csv(path, ("part", "target", "count", "lower", "upper"), rows)
    return _finish(cfg, "split", out, lines, [path])


def cmd_sepfamily(cfg: ExperimentConfig) -> CommandResult:
    """Build the separated family and report per-class densities."""
    # the classes hold at most n_max / multiplier indices together, the
    # first n_max / (3 multiplier); with the pruning temporaries of the
    # largest, 24 bytes per n_max / multiplier (under 20 measured), and
    # one density block
    _within_budget(
        "horizons.n_max",
        cfg.n_max,
        24 * cfg.n_max // max(cfg.multiplier, 1) + DENSITY_BLOCK_BYTES,
    )
    out = _artifact_dir(cfg, "sepfamily")
    fam = density.build_separated_family(cfg.pairs, cfg.n_max, cfg.multiplier)
    rep = fam.report
    lines = [_verdict(rep.passed, "separated family verifies")]
    for violation in rep.violations:
        lines.append(f"NOTE: violation {violation}")
    rows = []
    for label, density_rep in rep.densities:
        piece = fam.set_for(*label)
        lo = density_rep.lower_estimate
        head = ",".join(str(int(v)) for v in piece.elements[:5])
        rows.append(
            (
                label[0],
                label[1],
                min(label),
                piece.elements.size,
                f"{lo:.8f}",
                head,
            )
        )
        lines.append(
            _verdict(lo > 0.0, f"class {label} keeps positive density ({lo:.3e})")
        )
    path = os.path.join(out, "classes.csv")
    _write_csv(path, ("i", "j", "nu", "count", "lower", "first_elements"), rows)
    return _finish(cfg, "sepfamily", out, lines, [path])


def cmd_runaway(cfg: ExperimentConfig) -> CommandResult:
    """Verify the strong or weak runaway property for a schedule."""
    out = _artifact_dir(cfg, "runaway")
    if cfg.runaway_mode == "strong":
        fam, fam_report, exh, schedule, rcfg = _prepare_runaway(cfg)
        rep = runaway.check_strong_runaway(rcfg)
        verdicts, notes = _runaway_lines(rep)
        lines = (
            [_verdict(fam_report.passed, "separated family verifies")]
            + verdicts
            + [f"NOTE: inspected {len(rep.islands)} islands"]
            + notes
        )
        path = os.path.join(out, "report.json")
        _write_json(
            path,
            {
                "config": config_hash(cfg),
                "mode": "strong",
                "p1_ok": rep.p1_ok,
                "p2_ok": rep.p2_ok,
                "p3_ok": rep.p3_ok,
                "islands": len(rep.islands),
                "densities": {
                    str(k): v.lower_estimate for k, v in dict(rep.densities).items()
                },
            },
        )
        return _finish(cfg, "runaway", out, lines, [path])
    if cfg.runaway_mode != "weak":
        raise ValueError(f"unknown runaway mode {cfg.runaway_mode!r}")
    schedule = build_schedule(cfg)
    exh = build_exhaustion(cfg)
    domain, k = exh.domain, exh.member(1)
    # strong mode's test, at n = 2 too: powers of two map n = 1 to the identity
    for n in range(1, min(2, cfg.n_max) + 1):
        if not maps_into(schedule(n), domain, k):
            raise ValueError(
                f"maps.family={cfg.map_family} at index {n} does not send"
                f" level 1 into the configured domain {domain.kind.value}"
            )
    rep = runaway.check_weak_runaway(schedule, k, cfg.n_max)
    est = rep.density.lower_estimate
    lines = [
        f"NOTE: {rep.escape_set.elements.size} escape times up to {cfg.n_max}",
        _verdict(
            est > WEAK_DENSITY_FLOOR,
            f"escape set keeps lower density {est:.6f}"
            f" (floor {WEAK_DENSITY_FLOOR})",
        ),
    ]
    path = os.path.join(out, "escapes.csv")
    _write_csv(
        path,
        ("n",),
        ((int(n),) for n in rep.escape_set.elements),
    )
    return _finish(cfg, "runaway", out, lines, [path])


# ---------------------------------------------------------------------------
# entry point


# The [maps] keys each map family raises its index n to.
_FAMILY_EXPONENTS = {
    "root_shift": ("alpha", "beta"),
    "half_plane_shift": ("gamma",),
    "parabolic_disc": ("gamma",),
}

# Commands that build their maps from maps.family and the schedule.
_SCHEDULE_COMMANDS = ("example1", "build_fhc", "scan", "runaway")


def _check_exponents(command: str, cfg: ExperimentConfig) -> None:
    """Refuse an exponent key whose power of the largest mapped index overflows.

    example2 and example3 map the indices in PROBE_STEPS; example4 and
    the schedule commands map indices up to n_max, except that the
    powers-of-two schedule only iterates the map at n = 1.
    """
    if command == "example2":
        keys, horizon = _FAMILY_EXPONENTS["root_shift"], max(PROBE_STEPS)
    elif command == "example3":
        keys, horizon = _FAMILY_EXPONENTS["parabolic_disc"], max(PROBE_STEPS)
    elif command == "example4":
        keys, horizon = ("b_power", "omega_power"), cfg.n_max
    elif command in _SCHEDULE_COMMANDS and cfg.schedule != "powers_of_two":
        keys, horizon = _FAMILY_EXPONENTS.get(cfg.map_family, ()), cfg.n_max
    else:
        return
    if horizon < 2:
        return  # 1 ** p never overflows; the command refuses a smaller horizon
    for key in keys:
        value = getattr(cfg, _KEY_TABLE[("maps", key)][0])
        try:
            float(horizon) ** value
        except OverflowError:
            raise ValueError(
                f"maps.{key}={_canonical(value)} overflows at horizon {horizon}"
            ) from None


def _remove_if_empty(path: str) -> None:
    """Drop an output directory a failed run left empty; never touch files."""
    try:
        os.rmdir(path)
    except OSError:
        pass  # missing, or holds artifacts of this or an earlier run


_COMMANDS = {
    "sigma": _cli_sigma,
    "example1": cmd_example1,
    "example2": cmd_example2,
    "example3": cmd_example3,
    "example4": cmd_example4,
    "example5": cmd_example5,
    "build_fhc": cmd_build_fhc,
    "scan": cmd_scan,
    "density": cmd_density,
    "split": cmd_split,
    "sepfamily": cmd_sepfamily,
    "runaway": cmd_runaway,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="freqdyn",
        description="numerical experiments around frequently hypercyclic"
        " sequences of composition operators",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to an INI experiment description")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="replace one config entry; may be repeated",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    cfg = None
    try:
        cfg = apply_overrides(load_config(args.config), args.override)
        _check_exponents(args.command, cfg)
        result = _COMMANDS[args.command](cfg)
    except (OSError, ValueError, RuntimeError, OverflowError, MemoryError) as exc:
        # a bare MemoryError carries no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if cfg is not None:
            _remove_if_empty(_output_dir(cfg, args.command))
        return 2
    for line in result.lines:
        print(line)
    for path in result.artifacts:
        print(f"wrote {path}")
    print(f"elapsed {time.perf_counter() - started:.2f}s")
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
