"""The experiment configuration: one INI schema for every command.

An INI file is read into an `ExperimentConfig`, optionally patched by
``section.key=value`` overrides, and hashed into the short digest that
every artifact records.  The builders turn a config into the exhaustion
and the map schedule that the commands run on.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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

from .density import separation_gaps
from .geometry import (
    Exhaustion,
    right_half_plane_exhaustion,
    sector_exhaustion,
    unit_disc_exhaustion,
    whole_plane_exhaustion,
)
from .maps import HalfPlaneShift, HoloMap, Identity, ParabolicDisc, RootShift, Similarity
from .runaway import powers_of_two_schedule

__all__ = [
    "ExperimentConfig",
    "apply_overrides",
    "build_exhaustion",
    "build_schedule",
    "config_hash",
    "load_config",
]

# Map indices probed when checking conjugation formulas pointwise.
PROBE_STEPS = (1, 2, 3, 5, 10, 100)


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
    max_degree: int = _entry("tolerances.max_degree", 256)
    split_parts: int = _entry("split.parts", 4)
    set_kind: str = _entry("set.kind", "naturals")
    set_first: int = _entry("set.first", 1)
    set_step: int = _entry("set.step", 1)
    build_kind: str = _entry("build.kind", "existence")
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
        return powers_of_two_schedule(base(1))
    if cfg.schedule != "direct":
        raise ValueError(f"unknown schedule {cfg.schedule!r}")
    return base


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

    example2 and example3 map the indices in PROBE_STEPS; the schedule
    commands map indices up to n_max, except that the powers-of-two
    schedule only iterates the map at n = 1; example4 raises only the
    bases of its infima (k + 1)^p - 1, k <= separation_gaps(n_max), to p,
    and refuses an n_max below 2, which leaves no gap.
    """
    if command == "example2":
        keys, horizon = _FAMILY_EXPONENTS["root_shift"], max(PROBE_STEPS)
    elif command == "example3":
        keys, horizon = _FAMILY_EXPONENTS["parabolic_disc"], max(PROBE_STEPS)
    elif command == "example4":
        k_max = separation_gaps(cfg.n_max)
        if k_max < 1:
            raise ValueError(f"horizons.n_max={cfg.n_max} is below 2, the least example4 takes")
        keys, horizon = ("b_power",), k_max + 1
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
