"""Config handling, sigma golden values, command artifacts, exit codes."""

import base64
import contextlib
import importlib.util
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freqdyn.cli as cli
from freqdyn import approx, artifacts, density, runaway
from freqdyn.artifacts import load_candidate, load_errors
from freqdyn.config import (
    _DOMAIN_KINDS,
    _FIELDS,
    _KEY_TABLE,
    PROBE_STEPS,
    _canonical,
    build_exhaustion,
    build_schedule,
)
from freqdyn.density import IndexSet
from freqdyn.approx import NewtonPoly
from freqdyn.geometry import ClosedDisc, Domain, whole_plane_exhaustion
from freqdyn.maps import Mobius, ParabolicDisc, Similarity
from freqdyn.cli import (
    ExperimentConfig,
    apply_overrides,
    cmd_build_fhc,
    cmd_density,
    cmd_example1,
    cmd_example2,
    cmd_example3,
    cmd_example4,
    cmd_example5,
    cmd_runaway,
    cmd_scan,
    cmd_sepfamily,
    cmd_sigma,
    cmd_split,
    config_hash,
    load_config,
    main,
)

from iterate_oracle import blocked_bounds


def _cfg(**kw):
    return dataclasses.replace(ExperimentConfig(), **kw)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("FREQDYN_OUT", str(root))
    return root


@pytest.fixture(scope="module")
def existence_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("cand")
    cfg = _cfg(n_max=2000, nu_max=2, out_dir=str(out))
    old = os.environ.pop(cli.ENV_OUTPUT, None)
    try:
        res = cmd_build_fhc(cfg)
    finally:
        if old is not None:
            os.environ[cli.ENV_OUTPUT] = old
    return cfg, res, out / "build_fhc" / "candidate.json"


# ---------------------------------------------------------------------------
# configuration


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[maps]\nalpha = 0.5\nbeta = 2\n[horizons]\nn_max = 1e4\n[output]\ndir = results\n"
    )
    cfg = load_config(str(path))
    assert cfg.alpha == 0.5
    assert cfg.beta == 2.0
    assert cfg.n_max == 10000
    assert cfg.out_dir == "results"
    # untouched entries keep their defaults
    assert cfg.max_degree == ExperimentConfig().max_degree


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[maps]\nwobble = 3\n")
    with pytest.raises(ValueError, match="unknown config entry"):
        load_config(str(path))


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[sideband]\nalpha = 1\n")
    with pytest.raises(ValueError, match="unknown config entry"):
        load_config(str(path))


def test_load_config_rejects_default_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[DEFAULT]\nalpha = 1\n[maps]\nbeta = 2\n")
    with pytest.raises(ValueError, match="DEFAULT"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(OSError):
        load_config("/nonexistent/freqdyn.ini")


def test_load_config_rejects_fractional_int(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[horizons]\nn_max = 3.5\n")
    with pytest.raises(ValueError, match="integer"):
        load_config(str(path))


def test_overrides_apply_and_validate():
    cfg = apply_overrides(ExperimentConfig(), ["maps.alpha=0.25", "split.parts=6"])
    assert cfg.alpha == 0.25
    assert cfg.split_parts == 6
    with pytest.raises(ValueError, match="section.key=value"):
        apply_overrides(cfg, ["maps.alpha"])
    with pytest.raises(ValueError, match="unknown override target"):
        apply_overrides(cfg, ["maps.spin=1"])
    with pytest.raises(ValueError, match="section.key"):
        apply_overrides(cfg, ["alpha=1"])


def test_config_hash_stable_and_sensitive():
    base = ExperimentConfig()
    h0 = config_hash(base)
    assert h0 == config_hash(ExperimentConfig())
    assert len(h0) == 12
    for _, _, attr, kind in _FIELDS:
        cur = getattr(base, attr)
        if kind is int:
            new = cur + 1
        elif kind is float:
            new = cur + 0.5
        else:
            new = cur + "_x"
        moved = config_hash(dataclasses.replace(base, **{attr: new}))
        # the output root alone does not enter the hash
        if attr == "out_dir":
            assert moved == h0
        else:
            assert moved != h0, attr


def test_config_hash_matches_between_file_and_overrides(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[maps]\nalpha = 0.5\n")
    from_file = load_config(str(path))
    from_override = apply_overrides(ExperimentConfig(), ["maps.alpha=0.5"])
    assert config_hash(from_file) == config_hash(from_override)


# ---------------------------------------------------------------------------
# separation exponent


def test_sigma_unit_gap_exact():
    rep = cmd_sigma(0.0, 1.0)
    assert abs(rep.sigma - 1.0) <= 1e-9
    assert rep.c_const == 0.25
    assert rep.limit_at_one == 1.0
    # beta < 1: the infimum is the limit beta as t decreases to 1
    rep = cmd_sigma(-0.5, 0.5)
    assert rep.sigma == rep.upper == rep.limit_at_one == 0.5
    assert rep.c_const == 0.125


def test_sigma_wide_gap():
    rep = cmd_sigma(0.0, 2.0)
    # beta >= 1: the infimum is the tail limit 1, in closed form
    assert rep.sigma == rep.upper == 1.0
    assert math.isinf(rep.limit_at_one)


def test_sigma_shifted_exponents():
    rep = cmd_sigma(0.5, 1.5)
    assert rep.sigma == rep.upper == 1.0
    assert rep.c_const == 0.25
    assert rep.limit_at_one == 1.5


def test_sigma_validation():
    with pytest.raises(ValueError, match="positive"):
        cmd_sigma(0.0, 0.0)
    with pytest.raises(ValueError, match="gap"):
        cmd_sigma(0.5, 1.0)


def _ratio_longdouble(alpha, beta, u):
    """(t^beta - 1) / (t^alpha (t-1)^(beta-alpha)) at t = 1 + u in extended
    precision, as (1 - t^-beta) / (1 - 1/t)^(beta-alpha), with the size of
    the exponent of its denominator."""
    ld = np.longdouble
    u, gap = np.asarray(u, dtype=ld), ld(beta) - ld(alpha)
    y = gap * np.log1p(1 / u)
    return -np.expm1(-ld(beta) * np.log1p(u)) * np.exp(y), y


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    gap=st.floats(min_value=1.0, max_value=12.0),
    log2_u=st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=8),
)
def test_sigma_is_a_lower_bound(beta, gap, log2_u):
    alpha = beta - gap
    assume(beta >= 1.0 + alpha)
    lo = cmd_sigma(alpha, beta).sigma
    # the random points and a fine grid over the same range
    u = np.concatenate((np.exp2(log2_u), np.geomspace(2.0**-60, 2.0**60, 4001)))
    f, y = _ratio_longdouble(alpha, beta, u)
    assert np.all(lo <= f * (1 + 64 * np.finfo(np.longdouble).eps * (1 + y)))


def test_sigma_stays_below_the_ratio_past_the_old_search_range():
    # the grid search stopped at t = 1e6 and gave 0.9999999189, above f
    # at t = 2.33e6
    assert cmd_sigma(-3.0, 0.9).sigma < 0.9999998144


@pytest.mark.parametrize("alpha, beta", [(-1.0, 0.5), (-2.0, 0.25), (-3.0, 0.9), (-50.0, 0.5)])
def test_sigma_brackets_scipys_minimum(alpha, beta):
    from scipy.optimize import minimize_scalar

    def log_ratio(v):
        # log f at t = 1 + e^v
        log_t = math.log1p(math.exp(v))
        return math.log(math.expm1(beta * log_t)) - alpha * log_t - (beta - alpha) * v

    res = minimize_scalar(log_ratio, bounds=(-20.0, 40.0), method="bounded",
                          options={"xatol": 1e-9})
    rep = cmd_sigma(alpha, beta)
    assert rep.sigma <= math.exp(res.fun) <= rep.upper * (1 + 1e-9)
    assert rep.upper - rep.sigma <= 1e-6 * rep.upper


def test_sigma_and_example1_run_without_scipy(tmp_path):
    # split and the existence build called np.unique, whose first call
    # imports numpy.ma (about 15 ms per process)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, FREQDYN_OUT=str(tmp_path), PYTHONPATH=src)
    runs = (("sigma", "sigma.ini"), ("example1", "example1.ini"),
            ("split", "split.ini"), ("build_fhc", "existence.ini"))
    script = "import sys\nfrom freqdyn.cli import main\n" + "".join(
        f"assert main([{command!r}, {os.path.join(CONFIGS, config)!r}]) == 0\n"
        for command, config in runs
    ) + "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"
    assert (tmp_path / "sigma" / "report.json").is_file()
    assert (tmp_path / "build_fhc" / "candidate.json").is_file()


def _builtin_sha256() -> bool:
    return any(importlib.util.find_spec(m) is not None for m in ("_sha2", "_sha256"))


@pytest.mark.skipif(not _builtin_sha256(), reason="no built-in SHA-256 module")
def test_a_run_loads_no_openssl(tmp_path):
    # hashlib's OpenSSL backend, _hashlib, costs about 3.6 MB resident
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, FREQDYN_OUT=str(tmp_path), PYTHONPATH=src)
    script = (
        "import sys\nfrom freqdyn.cli import main\n"
        f"assert main(['split', {os.path.join(CONFIGS, 'split.ini')!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def _hashlib_config_hashes(cfgs) -> list:
    import hashlib

    out = []
    for cfg in cfgs:
        lines = sorted(
            f"{section}.{key}={_canonical(getattr(cfg, attr))}"
            for section, key, attr, _ in _FIELDS
            if attr != "out_dir"
        )
        out.append(hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12])
    return out


def test_config_hash_is_the_sha256_of_the_canonical_text():
    names = sorted(os.listdir(CONFIGS))
    assert len(names) == 16
    cfgs = [load_config(os.path.join(CONFIGS, name)) for name in names]
    assert [config_hash(cfg) for cfg in cfgs] == _hashlib_config_hashes(cfgs)


def test_config_hash_falls_back_to_hashlib():
    # an interpreter built without builtin hashes has neither module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from freqdyn.cli import config_hash, load_config\n"
        f"print(config_hash(load_config({os.path.join(CONFIGS, 'split.ini')!r})))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    want = config_hash(load_config(os.path.join(CONFIGS, "split.ini")))
    assert done.stdout.splitlines() == [want]


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    gap=st.floats(min_value=1.0, max_value=3.0),
)
def test_sigma_always_in_unit_interval(alpha, gap):
    rep = cmd_sigma(alpha, alpha + gap)
    assert 0.0 < rep.sigma <= 1.0
    assert 0.0 < rep.c_const <= 0.5


# ---------------------------------------------------------------------------
# artifacts and determinism


def test_env_var_redirects_output(outdir):
    res = cmd_split(_cfg(n_max=2000, out_dir="ignored"))
    assert not res.failed
    assert (outdir / "split" / "summary.txt").exists()
    assert (outdir / "split" / "parts.csv").exists()
    assert not os.path.exists("ignored")


def test_artifacts_are_deterministic(tmp_path, monkeypatch):
    cfg = _cfg(n_max=2000)
    blobs = []
    for sub in ("a", "b"):
        monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / sub))
        cmd_split(cfg)
        blobs.append(
            [
                (tmp_path / sub / "split" / name).read_bytes()
                for name in ("summary.txt", "parts.csv")
            ]
        )
    assert blobs[0] == blobs[1]


def test_no_temp_files_left(outdir):
    cmd_density(_cfg(n_max=1000))
    leftovers = [p for p in (outdir / "density").iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_csv_whose_rows_raise_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("earlier\n")

    def rows():
        yield (1, "a")
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        artifacts._write_csv(str(path), ("n", "x"), rows())
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_summary_carries_config_hash(outdir):
    cfg = _cfg(n_max=1000)
    cmd_density(cfg)
    text = (outdir / "density" / "summary.txt").read_text()
    assert f"# config {config_hash(cfg)}" in text
    assert any(line.startswith("PASS:") for line in text.splitlines())


# ---------------------------------------------------------------------------
# candidate serialization


def test_candidate_round_trip_bitwise(existence_artifacts):
    _, res, path = existence_artifacts
    assert not res.failed
    fn, meta = load_candidate(str(path))
    assert meta["status"] == "PASS"
    assert meta["islands"]
    z = np.array([0.3 + 0.2j, 5.0 + 0.0j, -2.0 + 1.0j, 31.5 - 0.25j])
    again, _ = load_candidate(str(path))
    assert np.array_equal(fn.evaluate(z), again.evaluate(z))


def test_candidate_matches_in_memory_function(existence_artifacts):
    cfg, _, path = existence_artifacts
    from freqdyn import approx, density, runaway
    from freqdyn.geometry import whole_plane_exhaustion
    from freqdyn.maps import Mobius, Similarity

    fam = density.build_separated_family(cfg.pairs, cfg.n_max, cfg.multiplier)
    exh = whole_plane_exhaustion()
    rcfg = runaway.RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, complex(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=cfg.n_max,
        nu_max=cfg.nu_max,
    )
    tr = runaway.build_carleman_truncation(rcfg, bases=0, max_islands=cfg.max_islands)
    splits = {
        nu: approx.double_split(fam.a_of_nu(nu), cfg.l_max, 1, cfg.n_max)
        for nu in sorted({int(v) for v in fam.nu_values() if v <= cfg.nu_max})
    }
    cand = approx.fit_on_compacts(
        approx.assemble_existence_target(tr, splits), cfg.max_degree
    )
    stored, _ = load_candidate(str(path))
    z = np.linspace(-3, 35, 101) + 0.17j
    assert np.array_equal(stored.evaluate(z), cand.fn.evaluate(z))


def test_load_candidate_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a candidate"):
        load_candidate(str(path))


def test_newton_encoding_round_trip_is_packed_and_bitwise():
    from freqdyn.approx import _fit_leja

    rng = np.random.default_rng(7)
    pts = rng.normal(size=200) + 1j * rng.normal(size=200)
    for _, _, fit in _fit_leja(pts, np.exp(pts), np.full(pts.size, 3.0), 24):
        pass
    fn = fit()
    blob = json.loads(json.dumps(artifacts._encode_function(fn)))
    # 24 nodes and 25 coefficients of 16 bytes, 24 scale exponents of 2
    fields = ("nodes", "scale_exponents", "coefficients")
    assert [len(base64.b64decode(blob[k])) for k in fields] == [16 * 24, 2 * 24, 16 * 25]
    again = artifacts._decode_function(blob)
    for name in ("nodes", "scales", "coefficients"):
        assert getattr(again, name).tobytes() == getattr(fn, name).tobytes()
    z = np.linspace(-2.0, 2.0, 301) + 0.4j
    assert again.evaluate(z).tobytes() == fn.evaluate(z).tobytes()


def test_load_candidate_rejects_v1_format(tmp_path, capsys):
    ini = tmp_path / "scan.ini"
    for old_format in (
        "freqdyn-candidate-v1", "freqdyn-candidate-v2", "freqdyn-candidate-v3",
        "freqdyn-candidate-v4", "freqdyn-candidate-v5",
    ):
        path = tmp_path / f"{old_format}.json"
        path.write_text(
            json.dumps(
                {
                    "format": old_format,
                    "kind": "existence",
                    "function": {"type": "arnoldi", "norm0": 1.0,
                                 "hessenberg": [], "coefficients": [[1.0, 0.0]]},
                }
            )
        )
        ini.write_text(f"[scan]\ncandidate = {path}\n")
        assert main(["scan", str(ini)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert artifacts.CANDIDATE_FORMAT in err[0] and "rebuild" in err[0]


def _packed(values, dtype="<c16") -> str:
    """The v6 encoding of complex values (or of scale exponents, as
    "<i2"), written independently of cli."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def _degree_one(**fields) -> dict:
    function = {"nodes": _packed([0.5]), "scale_exponents": _packed([1], "<i2"),
                "coefficients": _packed([1.0, -1.0j])}
    function.update(fields)
    return function


def test_function_codec_accepts_the_degree_one_fixture():
    fn = artifacts._decode_function(_degree_one())
    assert fn.nodes.tolist() == [0.5] and fn.scales.tolist() == [2.0]
    assert fn.coefficients.tolist() == [1.0, -1.0j]
    # 1 - 1j (z - 0.5) / 2
    assert fn.evaluate(2.5) == 1.0 - 1.0j


@pytest.mark.parametrize("degree", [0, 1, 24])
def test_function_codec_round_trip_is_bitwise(degree):
    rng = np.random.default_rng(degree)
    nodes = rng.normal(size=(degree, 2)) @ np.array([1.0, 1.0j])
    exponents = rng.integers(-1022, 1024, size=degree)
    coeffs = rng.normal(size=(degree + 1, 2)) @ np.array([1.0, 1.0j])
    # signed zeros and subnormals must survive: no decimal round trip
    edge = [complex(-0.0, 5e-324), complex(-5e-324, -0.0), complex(2.2e-308, -1e-310)]
    nodes[: len(edge)] = edge[: nodes.size]
    coeffs[: len(edge)] = edge[: coeffs.size]
    exponents[: 2] = [-1022, 1023][: exponents.size]
    scales = np.ldexp(1.0, exponents)
    fn = NewtonPoly(nodes=nodes, scales=scales, coefficients=coeffs)
    blob = json.loads(json.dumps(artifacts._encode_function(fn)))
    assert blob["nodes"] == _packed(nodes)
    assert blob["scale_exponents"] == _packed(exponents, "<i2")
    assert blob["coefficients"] == _packed(coeffs)
    again = artifacts._decode_function(blob)
    assert again.nodes.tobytes() == nodes.tobytes()
    assert again.scales.tobytes() == scales.tobytes()
    assert again.coefficients.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize(
    "where, bad",
    [(w, b) for w in ("nodes", "coefficients") for b in (math.nan, math.inf, complex(0.0, -math.inf))]
    + [("scales", b) for b in (math.nan, math.inf, -math.inf, 3.0, -2.0, 0.0, 5e-324, 2.0**-1023)],
)
def test_function_encoding_refuses_entries_it_cannot_pack(where, bad):
    arrays = {
        "nodes": np.array([0.5], dtype=complex),
        "scales": np.array([2.0]),
        "coefficients": np.array([1.0, -1.0j]),
    }
    arrays[where][-1] = bad
    match = "power of two" if where == "scales" else "non-finite"
    with pytest.raises(ValueError, match=match):
        artifacts._encode_function(NewtonPoly(**arrays))


@pytest.mark.parametrize(
    "function",
    [
        {},
        {"nodes": _packed([0.5])},
        [1.0],
        # a character outside the base64 alphabet, which a lenient
        # decoder would skip
        _degree_one(nodes=_packed([0.5, 2.0])[:8] + "!" + _packed([0.5, 2.0])[8:]),
        _degree_one(coefficients=_packed([1.0, -1.0j])[:8] + "\n" + _packed([1.0, -1.0j])[8:]),
        # bad padding
        _degree_one(nodes=_packed([0.5]).rstrip("=")),
        _degree_one(scale_exponents=_packed([1], "<i2")[:2] + "*" + _packed([1], "<i2")[2:]),
        # one node short, one exponent short or over, one coefficient over
        _degree_one(nodes=""),
        _degree_one(scale_exponents=""),
        _degree_one(scale_exponents=_packed([1, 2], "<i2")),
        _degree_one(coefficients=_packed([1.0, -1.0j, 3.0])),
        # no coefficients at all, and byte counts of no whole entries
        _degree_one(nodes="", scale_exponents="", coefficients=""),
        _degree_one(coefficients=base64.b64encode(bytes(40)).decode()),
        _degree_one(scale_exponents=base64.b64encode(bytes(3)).decode()),
        # a NaN or an infinity in the packed bytes
        _degree_one(nodes=_packed([complex(0.5, math.nan)])),
        _degree_one(coefficients=_packed([1.0, math.inf])),
        # an exponent outside [-1022, 1023]: a scale 2^e that is no normal float
        _degree_one(scale_exponents=_packed([-1023], "<i2")),
        _degree_one(scale_exponents=_packed([1024], "<i2")),
        _degree_one(scale_exponents=_packed([-32768], "<i2")),
        # v5 scales, 8 bytes each, read as four exponents
        _degree_one(scale_exponents=_packed([2.0], "<f8")),
        # the v5 field name
        {"nodes": _packed([0.5]), "scales": _packed([2.0], "<f8"),
         "coefficients": _packed([1.0, -1.0j])},
        # a list (the v3 layout) or a number in place of a string
        _degree_one(nodes=[[0.5, 0.0]]),
        _degree_one(coefficients=7),
    ],
)
def test_load_candidate_rejects_malformed_function(tmp_path, capsys, function):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"format": artifacts.CANDIDATE_FORMAT, "kind": "existence",
                    "function": function})
    )
    ini = tmp_path / "scan.ini"
    ini.write_text(f"[scan]\ncandidate = {path}\n")
    assert main(["scan", str(ini)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "malformed function" in err[0]


# ---------------------------------------------------------------------------
# iterate reports


@contextlib.contextmanager
def _output_root(path):
    """FREQDYN_OUT set to path for the block, for tests that cannot take
    the function-scoped outdir fixture (Hypothesis runs)."""
    old = os.environ.get(cli.ENV_OUTPUT)
    os.environ[cli.ENV_OUTPUT] = str(path)
    try:
        yield path
    finally:
        if old is None:
            os.environ.pop(cli.ENV_OUTPUT)
        else:
            os.environ[cli.ENV_OUTPUT] = old


def _check_report_against_the_loop(cfg, root):
    """load_errors of the report example5 wrote under root gives the bits
    of the blocked loop, and the report's final bound is the last."""
    path = root / "example5" / "report.json"
    want = blocked_bounds(
        ParabolicDisc(cfg.a_param, cfg.gamma, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j,
        cfg.iterates,
    )
    got = load_errors(path)
    assert got.dtype == np.dtype("<f8")
    assert np.array_equal(got.view("<u8"), want.view("<u8"))
    final = json.loads(path.read_text())["final_bound"]
    assert final == got[-1] if final is not None else np.isnan(got[-1])


@pytest.mark.parametrize("iterates", [1, 200, 1023, 1024, 1025, 50_000])
def test_load_errors_matches_the_blocked_loop(outdir, iterates):
    cfg = _cfg(map_family="parabolic_disc", iterates=iterates)
    # the error line fails until the bounds fall below 0.1
    assert cmd_example5(cfg).failed == (iterates < 200)
    _check_report_against_the_loop(cfg, outdir)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(1e-6, 1e6), iterates=st.integers(1, 5000))
def test_load_errors_matches_the_blocked_loop_at_any_step(tmp_path_factory, a, iterates):
    cfg = _cfg(map_family="parabolic_disc", a_param=a, iterates=iterates)
    with _output_root(tmp_path_factory.mktemp("example5")) as root:
        cmd_example5(cfg)
    _check_report_against_the_loop(cfg, root)


def _edit_report(edit):
    def rewrite(text: str) -> str:
        return json.dumps(edit(json.loads(text)))
    return rewrite


def _without(key):
    return _edit_report(lambda blob: {k: v for k, v in blob.items() if k != key})


def _with(key, value):
    return _edit_report(lambda blob: {**blob, key: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with("format", "freqdyn-errors-v1"),
         "not an iterate report of format freqdyn-iterate-bounds-v1"),
        (_without("format"), "not an iterate report"),
        (_edit_report(lambda blob: [blob]), "not an iterate report"),
        # an errors.f8z of the format the report replaced
        (lambda text: "freqdyn-errors-v1\n" + zlib.compress(b"12345678").decode("latin-1"),
         "not an iterate report"),
        (_with("margin_exponent", -30), "margin_exponent must be -40"),
        (_with("significant_bits", 53), "significant_bits must be 32"),
        (_without("iterates"), "iterates must be a positive integer"),
        (_with("iterates", 0), "iterates must be a positive integer"),
        (_with("iterates", 200.0), "iterates must be a positive integer"),
        (_without("rho"), "rho is missing or not finite"),
        (_with("rho", float("nan")), "rho is missing or not finite"),
        (_with("reach", True), "reach is missing or not finite"),
        (_with("reach", "1024"), "reach is missing or not finite"),
        (_without("v0"), "v0 is missing or not finite"),
        (_with("v0", [-1.5]), "v0 is missing or not finite"),
        (_with("v0", -1.5), "v0 is missing or not finite"),
        (_with("step", [0.0, float("-inf")]), "step is missing or not finite"),
    ],
)
def test_load_errors_refuses_a_malformed_report(outdir, edit, message):
    assert not cmd_example5(_cfg(map_family="parabolic_disc", iterates=200)).failed
    path = outdir / "example5" / "report.json"
    path.write_text(edit(path.read_text()), encoding="latin-1")
    with pytest.raises(ValueError, match=message) as info:
        load_errors(path)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# commands


def test_cmd_example1_passes_and_skips_scan(outdir):
    cfg = _cfg(
        domain_kind="slit_plane",
        map_family="root_shift",
        c_const=0.25,
        pairs=6,
        n_max=10000,
        nu_max=3,
        max_islands=6,
    )
    res = cmd_example1(cfg)
    assert not res.failed
    assert any("scan skipped" in line for line in res.lines)
    assert any(
        line.startswith("PASS: image discs pairwise separated") for line in res.lines
    )


def test_cmd_example1_large_radius_fails(outdir):
    cfg = _cfg(
        domain_kind="slit_plane",
        map_family="root_shift",
        c_const=10.0,
        pairs=6,
        n_max=10000,
        nu_max=3,
    )
    res = cmd_example1(cfg)
    assert res.failed
    assert any(line.startswith("FAIL: P2") for line in res.lines)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _shipped(name, *overrides):
    return apply_overrides(load_config(os.path.join(CONFIGS, name)), overrides)


@pytest.mark.parametrize("c_const, noted", [(0.25, False), (math.nextafter(0.25, 1.0), True)])
def test_cmd_example1_notes_any_radius_constant_above_the_certified_one(outdir, c_const, noted):
    cfg = _cfg(
        domain_kind="slit_plane",
        map_family="root_shift",
        c_const=c_const,
        pairs=1,
        n_max=50,
        nu_max=1,
        max_islands=2,
    )
    lines = cmd_example1(cfg).lines
    assert any("exceeds the certified value" in line for line in lines) == noted


def test_cmd_example1_scan_matches_stored_candidate_scan(outdir):
    cfg = _shipped("example1.ini", "maps.c=1.0")
    res = cmd_example1(cfg)
    assert not res.failed
    assert sum(line.startswith("PASS: scan block") for line in res.lines) == 3
    stored = outdir / "example1" / "candidate.json"
    rescan = cmd_scan(dataclasses.replace(cfg, candidate_path=str(stored)))
    assert not rescan.failed
    assert any("3 blocks to horizon 48" in line for line in rescan.lines)
    example_csv = (outdir / "example1" / "scan.csv").read_bytes()
    assert len(example_csv.splitlines()) == 145
    assert (outdir / "scan" / "scan.csv").read_bytes() == example_csv


@pytest.mark.parametrize(
    "command, config, expected",
    [
        (cmd_build_fhc, "existence.ini",
         ["PASS: candidate fit PASS at degree 18 (worst error ratio 0.868)"]),
        (cmd_example1, "example1.ini",
         ["PASS: island fit PASS at degree 10 (worst error ratio 0.706)"]),
        (cmd_build_fhc, "spaceable.ini",
         [f"PASS: member {mu} fit PASS at degree {d}"
          for mu, d in ((1, 26), (2, 31), (3, 42))]),
        (cmd_build_fhc, "dense.ini",
         [f"PASS: member {mu} fit PASS at degree {d} (base error {e} vs {b})"
          for mu, d, e, b in ((1, 5, "6.825e-01", "1.000e+00"),
                              (2, 67, "2.641e-01", "5.000e-01"),
                              (3, 99, "1.319e-01", "3.333e-01"))]),
    ],
)
def test_shipped_configs_fit_lines(outdir, command, config, expected):
    res = command(_shipped(config))
    assert not res.failed
    fits = [line for line in res.lines if " fit " in line]
    assert fits == expected


@pytest.mark.parametrize(
    "command, config, overrides, fits",
    [
        (cmd_build_fhc, "existence.ini", (), 1),
        (cmd_example1, "example1.ini", (), 1),
        (cmd_build_fhc, "dense.ini", (), 3),
        (cmd_build_fhc, "spaceable.ini", (), 3),
        (cmd_build_fhc, "spaceable.ini", ("build.kind=mixed",), 3),
    ],
    ids=["existence", "example1", "dense", "spaceable", "mixed"],
)
def test_shipped_fit_certificates_bound_a_denser_ring(
    outdir, monkeypatch, command, config, overrides, fits
):
    # every certificate is at least the error on a ring four times denser
    # than the approx._ring_points(d) points it was computed from,
    # evaluated directly in Newton form
    captured = []
    fit = approx.fit_on_compacts

    def capture(target, *args):
        cand = fit(target, *args)
        captured.append((target, cand))
        return cand

    monkeypatch.setattr(approx, "fit_on_compacts", capture)
    assert not command(_shipped(config, *overrides)).failed
    assert len(captured) == fits
    for target, cand in captured:
        assert cand.status == "PASS"
        for piece, cert in zip(target.pieces, cand.certificates):
            disc = piece.region
            m = 4 * approx._ring_points(cand.fn.degree) if disc.radius > 0.0 else 1
            z = disc.center + disc.radius * np.exp(2j * np.pi * np.arange(m) / m)
            assert cert.achieved >= np.max(np.abs(cand.fn.evaluate(z) - piece.spec.evaluate(z)))


def test_cmd_build_mixed_members_and_basis(outdir):
    res = cmd_build_fhc(_shipped("spaceable.ini", "build.kind=mixed"))
    assert not res.failed
    members = [line for line in res.lines if line.startswith("PASS: member")]
    assert members == [
        f"PASS: member {mu} fit PASS at degree {d}"
        for mu, d in ((1, 16), (2, 31), (3, 42))
    ]
    basis = json.loads((outdir / "build_fhc" / "basis.json").read_text())
    assert basis["kind"] == "mixed"
    assert basis["indices"] == [1, 2, 3]
    assert f"{basis['perturbation_sum']:.6f}" == "0.200673"


def test_shipped_dense_members_are_nonzero(outdir, monkeypatch):
    # index 1 of the enumeration is the zero polynomial; the dense base
    # targets start at index 2, so no member is the zero function
    bases = []
    assemble = approx.assemble_dense_target

    def capture(mu, *args):
        target = assemble(mu, *args)
        bases.append(target.pieces[0].spec)
        return target

    monkeypatch.setattr(approx, "assemble_dense_target", capture)
    assert not cmd_build_fhc(_shipped("dense.ini")).failed
    assert len(bases) == 3 and all(np.any(p.coefficients) for p in bases)
    for mu in (1, 2, 3):
        stored, _ = load_candidate(str(outdir / "build_fhc" / f"member{mu}.json"))
        assert np.any(stored.coefficients)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_member_with_an_overflowing_fit_step_is_written(outdir, monkeypatch):
    # z^3 on the unit disc, z on a disc of radius 1e-3 far off: the fit
    # at the cap 256 overflows on the small disc, so that step's bound is
    # inf.  The member FAILs at a finite step and its file is written;
    # a NaN certificate would stop the write and exit 2
    target = approx.PiecewiseTarget(
        (
            approx.TargetPiece(ClosedDisc(0.0, 1.0), approx.Polynomial.monomial(3), 1e-9),
            approx.TargetPiece(ClosedDisc(300.0 + 400.0j, 1e-3), approx.Polynomial.monomial(1), 1e-12),
        )
    )
    monkeypatch.setattr(approx, "assemble_dense_target", lambda *args: target)
    dense = os.path.join(CONFIGS, "dense.ini")
    assert main(["build_fhc", dense, "--override", "horizons.mu_max=1"]) == 1
    blob = json.loads((outdir / "build_fhc" / "member1.json").read_text())
    assert blob["status"] == "FAILED" and blob["reason"] == "NON-CONVERGED"
    assert blob["degree"] < 256
    assert all(c["achieved"] is not None for c in blob["certificates"])


def test_zero_existence_candidate_fails(tmp_path, monkeypatch):
    # one island takes label 1, the zero polynomial: the fit meets its
    # budget, but the zero function is not frequently hypercyclic
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = ["build_fhc", os.path.join(CONFIGS, "existence.ini"),
            "--override", "build.max_islands=1"]
    assert main(argv) == 1
    summary = (tmp_path / "out" / "build_fhc" / "summary.txt").read_text()
    assert summary.splitlines()[-2:] == [
        "FAIL: candidate fit PASS at degree 0 (worst error ratio 0)",
        "NOTE: the candidate is the zero function, which is not frequently"
        " hypercyclic",
    ]
    stored, _ = load_candidate(str(tmp_path / "out" / "build_fhc" / "candidate.json"))
    assert not np.any(stored.coefficients)


def test_zero_dense_member_fails(outdir, monkeypatch):
    # every fit takes the zero-function rule, a member as an existence
    # candidate: a member that fits the zero target meets its budget and
    # still fails
    target = approx.PiecewiseTarget(
        (approx.TargetPiece(ClosedDisc(0.0, 1.0), approx.Polynomial.zero(), 1e-3),)
    )
    monkeypatch.setattr(approx, "assemble_dense_target", lambda *args: target)
    res = cmd_build_fhc(_shipped("dense.ini", "horizons.mu_max=1"))
    assert res.failed
    assert list(res.lines[-3:]) == [
        "FAIL: member 1 fit PASS at degree 0 (base error 0.000e+00 vs 1.000e+00)",
        "NOTE: the candidate is the zero function, which is not frequently"
        " hypercyclic",
        "NOTE: some member failed, no collection written",
    ]
    stored, meta = load_candidate(str(outdir / "build_fhc" / "member1.json"))
    assert not np.any(stored.coefficients) and meta["mu"] == 1


@pytest.mark.parametrize(
    "kind, files, verdicts",
    [
        ("existence", ["candidate.json"], 3),
        ("dense", ["member1.json", "member2.json"], 4),
        ("spaceable", ["basis.json", "member1.json", "member2.json"], 5),
        ("mixed", ["basis.json", "member1.json", "member2.json"], 5),
    ],
)
def test_tiny_build_of_each_kind(outdir, kind, files, verdicts):
    # one fit loop for every kind: one verdict and one candidate file per
    # fit, stamped with the build kind and, for a member, its index
    res = cmd_build_fhc(
        _shipped("dense.ini", f"build.kind={kind}", "horizons.mu_max=2",
                 "build.max_islands=2")
    )
    assert sum(line.startswith("PASS:") for line in res.lines) == verdicts
    assert not any(line.startswith("FAIL:") for line in res.lines)
    out = outdir / "build_fhc"
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["summary.txt"])
    for name in files:
        if name == "basis.json":
            continue
        _, meta = load_candidate(str(out / name))
        assert meta["kind"] == kind
        assert meta.get("mu") == (None if kind == "existence" else int(name[6]))


@pytest.mark.parametrize("overrides", [(), ("build.kind=mixed",)], ids=["spaceable", "mixed"])
def test_shipped_gram_bound_is_below_the_least_eigenvalue(outdir, monkeypatch, overrides):
    # the closed-form (1 - s2)^2 of each shipped span basis never exceeds
    # the least eigenvalue of its members' Gram matrix on the circle
    built = []
    build = approx.build_span_basis

    def capture(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(approx, "build_span_basis", capture)
    assert not cmd_build_fhc(_shipped("spaceable.ini", *overrides)).failed
    (basis,) = built
    rows = approx._circle_coefficients([m.fn for m in basis.members])
    least = float(np.min(np.linalg.eigvalsh(rows @ np.conj(rows.T))))
    assert 0.5 < basis.gram_lambda_min <= least


def _run_examples_script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_examples.py")
    spec = importlib.util.spec_from_file_location("run_examples", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_examples_script_runs_every_shipped_example(tmp_path, monkeypatch, capsys):
    # the script sets and finally unsets FREQDYN_OUT; monkeypatch restores it
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "unused"))
    script = _run_examples_script()
    assert script.main(["--out", str(tmp_path / "examples"), "--configs", CONFIGS]) == 0
    out = capsys.readouterr().out
    assert f"all {len(script.RUNS)} example runs behaved as expected" in out
    assert len(script.RUNS) == 22


def test_run_examples_script_is_deterministic(tmp_path, monkeypatch):
    # two runs into one --out root, the first tree moved aside before the
    # second as the script's docstring says: every file agrees byte for byte
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "unused"))
    script = _run_examples_script()
    root = tmp_path / "examples"
    trees = []
    for aside in (tmp_path / "first", tmp_path / "second"):
        assert script.main(["--out", str(root), "--configs", CONFIGS]) == 0
        root.rename(aside)
        files = sorted(p for p in aside.rglob("*") if p.is_file())
        trees.append({p.relative_to(aside): p.read_bytes() for p in files})
    assert len(trees[0]) == 55
    assert trees[0] == trees[1]


def test_cmd_example2_residuals(outdir):
    res = cmd_example2(_cfg(map_family="root_shift"))
    assert not res.failed


def test_cmd_example3_residuals(outdir):
    res = cmd_example3(_cfg(map_family="parabolic_disc"))
    assert [line[:5] for line in res.lines] == ["PASS:"] * 3
    assert all("exactly" in line and "points" not in line for line in res.lines)
    rows = (outdir / "example3" / "residuals.csv").read_text().splitlines()
    assert rows[0] == "n,conjugate,fixed_point,automorphism"
    assert rows[1:] == [f"{n},True,True,True" for n in PROBE_STEPS]


def test_example3_fails_when_the_closed_form_moves_one_ulp(outdir, monkeypatch, capsys):
    # every line is decided exactly, so one ulp in b breaks the
    # conjugacy, the fixed point and the automorphism form at once
    parabolic = cli.ParabolicDisc

    def nudged(a, gamma, n):
        m = parabolic(a, gamma, n)
        b = complex(m.b.real, np.nextafter(m.b.imag, math.inf))
        return Mobius(m.a, b, m.c, m.d, m.domain)

    monkeypatch.setattr(cli, "ParabolicDisc", nudged)
    assert main(["example3", os.path.join(CONFIGS, "example3.ini")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:5] for line in lines[:3]] == ["FAIL:"] * 3
    summary = (outdir / "example3" / "summary.txt").read_text().splitlines()
    assert summary[2] == lines[0]


def test_cmd_example4_criteria(outdir):
    res = cmd_example4(_cfg(n_max=500))
    assert not res.failed


def test_cmd_example4_notes_pairwise_witness(outdir):
    res = cmd_example4(_cfg(n_max=500, omega_power=3.0))
    assert res.failed
    assert "NOTE: pairwise witness (3, 1)" in res.lines
    summary = (outdir / "example4" / "summary.txt").read_text().splitlines()
    assert "NOTE: pairwise witness (3, 1)" in summary


def test_cmd_example4_does_not_depend_on_the_horizon(outdir):
    # n_max sets only k_max, which stays at 200 from n_max = 400 on
    for omega_power in (1.0, 3.0):
        small = cmd_example4(_cfg(n_max=400, omega_power=omega_power))
        large = cmd_example4(_cfg(n_max=10**12, omega_power=omega_power))
        assert large.lines == small.lines


def test_cmd_example5_contraction(outdir):
    res = cmd_example5(_cfg(map_family="parabolic_disc", iterates=200))
    assert not res.failed
    errors = load_errors(outdir / "example5" / "report.json")
    assert errors.dtype == np.dtype("<f8")
    assert errors.shape == (200,)


def test_cmd_example5_errors_are_byte_identical_across_runs(tmp_path, monkeypatch):
    cfg = _cfg(map_family="parabolic_disc", iterates=200)
    blobs = []
    for sub in ("a", "b"):
        monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / sub))
        cmd_example5(cfg)
        blobs.append((tmp_path / sub / "example5" / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cmd_example5_report_holds_the_rule(outdir):
    cfg = _cfg(map_family="parabolic_disc", iterates=50_000)
    assert not cmd_example5(cfg).failed
    blob = json.loads((outdir / "example5" / "report.json").read_text())
    # in u = 1/(z - 1) the region is D(-4/3, 2/3), moved by -i a / 2 a step
    assert blob["v0"] == [-4.0 / 3.0, 0.0] and abs(blob["rho"] - 2.0 / 3.0) < 1e-14
    assert blob["step"] == [0.0, -0.5] and blob["reach"] == 1024.0
    assert (blob["margin_exponent"], blob["significant_bits"]) == (-40, 32)
    assert (blob["iterates"], blob["decreasing_from"]) == (50_000, 1)
    assert blob["config"] == config_hash(cfg) and "degree" not in blob
    assert len((outdir / "example5" / "report.json").read_bytes()) < 300


def test_cmd_example5_errors_bound_the_exact_sup(outdir):
    cfg = _cfg(map_family="parabolic_disc", iterates=5000)
    assert not cmd_example5(cfg).failed
    got = load_errors(outdir / "example5" / "report.json")
    # in u = 1/(z - 1) the region is D(-4/3, 2/3), moved by -i n a / 2
    t = np.longdouble(cfg.a_param) * np.arange(1, cfg.iterates + 1, dtype=np.longdouble)
    want = 2 / (np.sqrt(np.longdouble(64) / 9 + t * t) - np.longdouble(4) / 3)
    assert np.all(got >= want)
    assert np.all(got <= want * (1 + np.longdouble(2.0) ** -30))


def test_main_example5_does_not_grow_with_the_iterates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    out = tmp_path / "out" / "example5"
    argv = ["example5", os.path.join(CONFIGS, "example5.ini"), "--override"]
    # a first run builds what every later one reuses (compiled patterns)
    assert main(argv + ["horizons.iterates=200"]) == 0
    rules = []
    for iterates in (200, 10**12):
        tracemalloc.start()
        try:
            assert main(argv + [f"horizons.iterates={iterates}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, iterates
        summary = (out / "summary.txt").read_text().splitlines()
        assert [ln[0] for ln in summary if ln.startswith(("PASS", "FAIL"))] == list("PPP")
        report = json.loads((out / "report.json").read_text())
        final = report.pop("final_bound")
        rules.append({k: v for k, v in report.items() if k not in ("config", "iterates")})
    # 2 / (a n) to first order: 2e-12 at 10^12 steps
    assert abs(final - 2e-12) < 1e-20
    assert rules[0] == rules[1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config, override, message",
    [
        ("sepfamily", "sepfamily.ini", "family.multiplier=0",
         "family.multiplier must be at least 1, got 0"),
        ("sepfamily", "sepfamily.ini", "family.multiplier=1",
         "pruning clears class 1 at family.multiplier=1; increase family.multiplier"),
        ("sepfamily", "sepfamily.ini", "family.pairs=0", "family.pairs must be at least 1, got 0"),
        ("build_fhc", "existence.ini", "horizons.l_max=0",
         "horizons.l_max must be at least 1, got 0"),
        ("split", "split.ini", "split.parts=0", "split.parts must be at least 1, got 0"),
        ("example5", "example5.ini", "horizons.iterates=0",
         "horizons.iterates must be at least 1, got 0"),
    ],
)
def test_main_refusals_name_their_config_key(
    tmp_path, monkeypatch, capsys, command, config, override, message
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    assert main([command, os.path.join(CONFIGS, config), "--override", override]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "command, config, refused, accepted",
    [
        # 10 bytes per index: 10000 and 1500
        ("split", "split.ini", 1000, 150),
        # 10 bytes per element of the step-7 progression: 20010 and 8580
        ("density", "density.ini", 14000, 6000),
        # 24 bytes per n_max / multiplier at multiplier 8: 30000 and 6000
        ("sepfamily", "sepfamily.ini", 10000, 2000),
    ],
)
def test_main_refuses_a_horizon_over_the_memory_budget(
    tmp_path, monkeypatch, capsys, command, config, refused, accepted
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    # each estimate adds one density block to the bytes above
    monkeypatch.setattr(cli, "MEMORY_BUDGET", cli.DENSITY_BLOCK_BYTES + 9_000)
    argv = [command, os.path.join(CONFIGS, config), "--override"]
    assert main(argv + [f"horizons.n_max={refused}"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: horizons.n_max={refused} ")
    assert "memory budget" in lines[0]
    assert not (tmp_path / "out" / command).exists()
    # a split of 1..150 misses its density targets (exit 1), but it runs
    assert main(argv + [f"horizons.n_max={accepted}"]) in (0, 1)
    assert (tmp_path / "out" / command / "summary.txt").is_file()


@pytest.mark.parametrize(
    "command, config, overrides",
    [
        ("split", "split.ini", ["split.parts=1"]),
        ("split", "split.ini", []),
        ("density", "density.ini", ["set.kind=naturals"]),
        ("density", "density.ini", []),
        ("sepfamily", "sepfamily.ini", []),
        ("sepfamily", "sepfamily.ini", ["family.pairs=8"]),
    ],
)
def test_commands_peak_below_their_memory_estimates(
    outdir, monkeypatch, command, config, overrides
):
    # the estimate _within_budget compares with MEMORY_BUDGET, against
    # the peak tracemalloc sees while the command runs
    needs = []
    monkeypatch.setattr(cli, "_within_budget", lambda key, value, need: needs.append(need))
    cfg = apply_overrides(
        load_config(os.path.join(CONFIGS, config)),
        ["horizons.n_max=1000000"] + overrides,
    )
    tracemalloc.start()
    try:
        result = getattr(cli, f"cmd_{command}")(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.failed
    assert len(needs) == 1 and peak < needs[0]


def test_build_fhc_peaks_below_its_fit_estimate(outdir, monkeypatch):
    # the fit's estimate at the degree cap (approx.fit_bytes), against the
    # peak of the whole build, runaway check and truncation included
    needs = []
    monkeypatch.setattr(cli, "_within_budget", lambda key, value, need: needs.append(need))
    cfg = load_config(os.path.join(CONFIGS, "existence.ini"))
    tracemalloc.start()
    try:
        result = cmd_build_fhc(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.failed
    assert len(needs) == 1 and peak < needs[0]


def test_main_build_fhc_refuses_a_degree_cap_over_the_memory_budget(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    # the largest dense member needs about 0.67 MB at the cap of 256
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 500_000)
    assert main(["build_fhc", os.path.join(CONFIGS, "dense.ini")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tolerances.max_degree=256 ")
    assert "memory budget" in lines[0]
    assert list((tmp_path / "out").rglob("member*.json")) == []


def _broken_split(change):
    """density.split with its first two parts changed so that they no
    longer partition the set."""
    real = density.split

    def split(a, parts, horizon):
        pieces = real(a, parts, horizon)
        first, second = pieces[0], pieces[1]
        if change in ("drop", "move"):
            # drops 1 from the first part
            pieces[0] = IndexSet(first.elements[1:], first.n_max, first.descriptor)
        if change in ("duplicate", "move"):
            # adds 1, or 3, of the first part to the second
            extra = first.elements[0 if change == "duplicate" else 1]
            pieces[1] = IndexSet.from_elements(
                np.append(second.elements, extra), second.n_max, second.descriptor
            )
        return pieces

    return split


@pytest.mark.parametrize("change", ["drop", "duplicate", "move"])
def test_main_split_fails_parts_that_do_not_partition(
    outdir, monkeypatch, capsys, change
):
    # "move" keeps the sizes' sum at n_max: only the marker catches it
    monkeypatch.setattr(density, "split", _broken_split(change))
    assert main(["split", os.path.join(CONFIGS, "split.ini")]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "FAIL: 4 parts partition 1..100000 exactly"


def test_main_example5_decides_the_monotone_line_on_the_exact_errors(outdir):
    # at a = 1e-300 every stored bound is the same, but the exact errors
    # of the map, whose step is 5e-301 i, strictly decrease from step 1
    code = main([
        "example5", os.path.join(CONFIGS, "example5.ini"),
        "--override", "maps.a=1e-300",
    ])
    assert code == 1
    errors = load_errors(outdir / "example5" / "report.json")
    assert np.all(errors == errors[0])
    summary = (outdir / "example5" / "summary.txt").read_text().splitlines()
    assert summary[2].startswith("FAIL: error after 200 steps")
    assert "PASS: errors decrease monotonically from step 1" in summary


def test_main_example5_overflowing_shift_fails(outdir):
    # the step shift n a / 2 overflows from n = 4 on; the NaN bounds fail
    # the error line, and the monotone line, decided exactly, passes
    code = main([
        "example5", os.path.join(CONFIGS, "example5.ini"),
        "--override", "maps.a=1e308",
    ])
    assert code == 1
    summary = (outdir / "example5" / "summary.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in summary if ln.startswith(("PASS", "FAIL"))] == [
        "FAIL", "PASS", "PASS",
    ]
    # the NaN final bound is written as null, and read back as NaN
    report = outdir / "example5" / "report.json"
    assert json.loads(report.read_text())["final_bound"] is None
    assert np.isnan(load_errors(report)[-1])


def test_cmd_runaway_weak_direct_passes(outdir):
    res = cmd_runaway(_cfg(runaway_mode="weak", n_max=2000))
    assert not res.failed


def test_cmd_runaway_weak_powers_of_two_fails(outdir):
    res = cmd_runaway(_cfg(runaway_mode="weak", schedule="powers_of_two", n_max=2000))
    assert res.failed


def test_cmd_runaway_strong_powers_of_two_fails_p2(outdir):
    res = cmd_runaway(
        _cfg(runaway_mode="strong", schedule="powers_of_two", n_max=2000, nu_max=2)
    )
    assert res.failed
    assert any(line.startswith("FAIL: P2") for line in res.lines)


@pytest.mark.parametrize(
    "domain, family, schedule",
    [
        ("unit_disc", "translation", "direct"),
        ("whole_plane", "half_plane_shift", "direct"),
        # the identity at n = 1 maps into any domain; n = 2 does not
        ("unit_disc", "translation", "powers_of_two"),
    ],
)
def test_main_weak_runaway_refuses_maps_off_the_domain(
    outdir, capsys, domain, family, schedule
):
    code = main([
        "runaway", os.path.join(CONFIGS, "runaway_weak.ini"),
        "--override", f"domain.kind={domain}",
        "--override", f"maps.family={family}",
        "--override", f"maps.schedule={schedule}",
        "--override", "horizons.n_max=2000",
    ])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert family in err[0] and domain in err[0]
    assert "PASS" not in captured.out


def test_main_weak_runaway_refuses_an_empty_compact(outdir, capsys):
    # level 1 of the slit-plane exhaustion is empty at the default maps.c
    code = main([
        "runaway", os.path.join(CONFIGS, "runaway_weak.ini"),
        "--override", "domain.kind=slit_plane",
        "--override", "maps.family=root_shift",
        "--override", "maps.schedule=direct",
        "--override", "horizons.n_max=2000",
    ])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "is empty" in err[0]
    assert "PASS" not in captured.out
    assert not (outdir / "runaway").exists()


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_main_runaway_accepts_maps_into_a_larger_domain(outdir, mode):
    # z + n acts on the whole plane and sends the right half-plane into itself
    code = main([
        "runaway", os.path.join(CONFIGS, f"runaway_{mode}.ini"),
        "--override", "domain.kind=right_half_plane",
        "--override", "maps.family=translation",
        "--override", "maps.schedule=direct",
        "--override", "horizons.n_max=2000",
    ])
    assert code == 0


# runaway with slit-plane root shifts on the powers-of-two schedule: the
# identity between powers keeps each sector, whose enclosing disc meets
# the slit, and at c = 1 the weak compact K_1 is the point 1
SLIT_POWERS_OF_TWO = {
    "weak": [
        "NOTE: 8 escape times up to 2000",
        "FAIL: escape set keeps lower density 0.004000 (floor 0.01)",
    ],
    "strong": [
        "PASS: separated family verifies",
        "PASS: P1: index families keep positive lower density",
        "FAIL: P2: islands are disjoint with separated images",
        "FAIL: P3: probe compacts avoid foreign image discs",
        "NOTE: inspected 195 islands",
        "NOTE: P2 disc witness ((8, 1), (16, 1))",
        "NOTE: P3 witness 1",
    ],
}


@pytest.mark.parametrize("mode", sorted(SLIT_POWERS_OF_TWO))
def test_main_runaway_admits_identities_on_slit_sectors(outdir, mode):
    overrides = ("domain.kind=slit_plane", "maps.family=root_shift",
                 "maps.schedule=powers_of_two", "maps.c=1.0", "horizons.n_max=2000")
    args = ["runaway", os.path.join(CONFIGS, f"runaway_{mode}.ini")]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 1
    summary = (outdir / "runaway" / "summary.txt").read_text().splitlines()
    assert summary[2:] == SLIT_POWERS_OF_TWO[mode]


def test_cmd_runaway_rejects_unknown_mode(outdir):
    with pytest.raises(ValueError, match="runaway mode"):
        cmd_runaway(_cfg(runaway_mode="sideways"))


def test_cmd_build_rejects_unknown_kind(outdir):
    with pytest.raises(ValueError, match="build kind"):
        cmd_build_fhc(_cfg(build_kind="mystery"))


def test_cmd_scan_requires_candidate(outdir):
    with pytest.raises(ValueError, match="candidate"):
        cmd_scan(_cfg(candidate_path=""))


def test_cmd_scan_rejects_wrong_kind(outdir, tmp_path):
    path = tmp_path / "member.json"
    path.write_text(
        json.dumps(
            {
                "format": artifacts.CANDIDATE_FORMAT,
                "kind": "spaceable",
                "function": {
                    "nodes": "",
                    "scale_exponents": "",
                    "coefficients": _packed([1.0]),
                },
            }
        )
    )
    with pytest.raises(ValueError, match="existence"):
        cmd_scan(_cfg(candidate_path=str(path)))


def test_cmd_scan_from_stored_candidate(outdir, existence_artifacts):
    _, _, path = existence_artifacts
    res = cmd_scan(_cfg(n_max=2000, nu_max=2, candidate_path=str(path)))
    assert not res.failed
    rows = (outdir / "scan" / "scan.csv").read_text().splitlines()
    assert rows[0] == "nu,l,n,designed,error,eps_sup,hit,prefix_ratio"
    # three blocks scanned to the last island
    assert len(rows) == 1 + 3 * 32


def test_cmd_scan_of_candidate_built_under_another_output_root(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTPUT, raising=False)
    built = tmp_path / "built"
    path = built / "build_fhc" / "candidate.json"
    cfg = _cfg(n_max=2000, nu_max=2, candidate_path=str(path))
    assert not cmd_build_fhc(dataclasses.replace(cfg, out_dir=str(built))).failed
    res = cmd_scan(dataclasses.replace(cfg, out_dir=str(tmp_path / "scanned")))
    assert not res.failed
    assert not [line for line in res.lines if "different configuration" in line]


def test_scan_of_the_shipped_existence_candidate_notes_no_other_configuration(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    assert main(["build_fhc", os.path.join(CONFIGS, "existence.ini")]) == 0
    candidate = tmp_path / "out" / "build_fhc" / "candidate.json"
    scan = ["scan", os.path.join(CONFIGS, "scan.ini"),
            "--override", f"scan.candidate={candidate}"]
    assert main(scan) == 0
    summary = (tmp_path / "out" / "scan" / "summary.txt").read_text()
    assert "different configuration" not in summary
    # another horizon is a real difference, and still noted
    assert main(scan + ["--override", "horizons.n_max=3000"]) == 0
    summary = (tmp_path / "out" / "scan" / "summary.txt").read_text()
    assert "NOTE: candidate was built under a different configuration" in summary


def test_cmd_sepfamily_classes(outdir):
    res = cmd_sepfamily(_cfg(pairs=3, n_max=5000))
    assert not res.failed
    rows = (outdir / "sepfamily" / "classes.csv").read_text().splitlines()
    assert len(rows) == 4


def test_cmd_density_progression(outdir):
    res = cmd_density(_cfg(set_kind="progression", set_first=3, set_step=7, n_max=20000))
    assert not res.failed


def test_cmd_density_rejects_unknown_kind(outdir):
    with pytest.raises(ValueError, match="set kind"):
        cmd_density(_cfg(set_kind="fractal"))


def test_build_schedule_rejects_unknown(outdir):
    with pytest.raises(ValueError, match="map family"):
        build_schedule(_cfg(map_family="rotation"))
    with pytest.raises(ValueError, match="schedule"):
        build_schedule(_cfg(schedule="thirds"))
    with pytest.raises(ValueError, match="domain kind"):
        build_exhaustion(_cfg(domain_kind="strip"))


# ---------------------------------------------------------------------------
# entry point


def test_main_pass_and_fail_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = tmp_path / "split.ini"
    path.write_text("[split]\nparts = 4\n[horizons]\nn_max = 2000\n")
    assert main(["split", str(path)]) == 0
    weak = tmp_path / "weak.ini"
    weak.write_text(
        "[maps]\nschedule = powers_of_two\n[runaway]\nmode = weak\n"
        "[horizons]\nn_max = 2000\n"
    )
    assert main(["runaway", str(weak)]) == 1


def test_main_config_error_exits_2(tmp_path, capsys):
    assert main(["split", str(tmp_path / "missing.ini")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[maps]\nwobble = 1\n")
    assert main(["split", str(bad)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[maps]\nalpha = 0\nalpha = 1\n",
        "[maps]\nalpha = 0\n[maps]\nbeta = 1\n",
        "alpha = 0\n[maps]\nbeta = 1\n",
        "[maps]\nalpha = 0\nnot an entry\n",
    ],
    ids=["duplicate-option", "duplicate-section", "no-section-header", "unparsable-line"],
)
def test_main_malformed_ini_exits_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["sigma", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed config file")
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("certificates", [{}]),
        ("certificates", [{"envelope": None}]),
        ("certificates", "x"),
        ("islands", [5, 6]),
    ],
    ids=["no-envelope", "null-envelope", "certificates-string", "flat-islands"],
)
def test_scan_rejects_malformed_candidate_metadata(
    existence_artifacts, tmp_path, monkeypatch, capsys, field, value
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    _, _, candidate = existence_artifacts
    blob = json.loads(candidate.read_text())
    blob[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    ini = tmp_path / "scan.ini"
    ini.write_text(f"[horizons]\nn_max = 2000\n[scan]\ncandidate = {path}\n")
    assert main(["scan", str(ini)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_main_rejects_non_finite_values(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = tmp_path / "sigma.ini"
    path.write_text(f"[maps]\nalpha = 0\nbeta = 1\na = {raw}\n")
    assert main(["sigma", str(path)]) == 2
    path.write_text("[maps]\nalpha = 0\nbeta = 1\n")
    assert main(["sigma", str(path), "--override", f"horizons.n_max={raw}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all("finite" in line for line in err)
    assert not (tmp_path / "out" / "sigma").exists()


@pytest.mark.parametrize(
    "command, config, entry",
    [
        ("example1", "example1.ini", "tolerances.grid_res=3"),
        ("scan", "scan.ini", "tolerances.delta=0.0"),
        ("build_fhc", "dense.ini", "build.bases=4"),
    ],
)
def test_main_refuses_the_removed_keys(
    tmp_path, monkeypatch, capsys, command, config, entry
):
    # orbit.GRID_RESOLUTION, twice the largest envelope and mu_max + 1
    # replaced them; a config that still sets one is refused
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    lhs, value = entry.split("=")
    section, key = lhs.split(".")
    ini = tmp_path / config
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    shipped = os.path.join(CONFIGS, config)
    for argv in ([command, str(ini)], [command, shipped, "--override", entry]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


def test_scan_refuses_a_candidate_without_certificates(
    existence_artifacts, tmp_path, monkeypatch, capsys
):
    # the scan's delta is twice the largest certificate envelope
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    _, _, candidate = existence_artifacts
    blob = json.loads(candidate.read_text())
    blob["certificates"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(blob))
    ini = tmp_path / "scan.ini"
    ini.write_text(f"[horizons]\nn_max = 2000\n[scan]\ncandidate = {path}\n")
    assert main(["scan", str(ini)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "certificates" in err[0]
    assert "set a delta" not in err[0]
    assert captured.out == ""
    assert not (tmp_path / "out" / "scan").exists()


def test_readme_keys_table_matches_the_config_fields():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("Recognized sections and keys:", 1)[1].split("\n\n")[1]
    documented = [
        (row.split("|")[1].strip().strip("`"),
         [k.strip().strip("`") for k in row.split("|")[2].split(",")])
        for row in table.splitlines()[2:]
    ]
    fields = {}
    for section, key, _, _ in _FIELDS:
        fields.setdefault(section, []).append(key)
    assert documented == list(fields.items())


@pytest.mark.parametrize("kind", ["dense", "spaceable", "mixed"])
def test_main_member_build_rejects_zero_mu_max(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = os.path.join(CONFIGS, "dense.ini")
    argv = ["build_fhc", path, "--override", f"build.kind={kind}",
            "--override", "horizons.mu_max=0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "mu_max" in err[0]
    assert "member" not in captured.out
    assert not (tmp_path / "out" / "build_fhc").exists()


def test_main_runtime_error_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = os.path.join(CONFIGS, "sepfamily.ini")
    argv = ["sepfamily", path, "--override", "horizons.n_max=27",
            "--override", "family.pairs=8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 74.5 GiB"), "error: Unable to allocate 74.5 GiB"),
        (MemoryError(), "error: MemoryError"),
    ],
)
def test_main_memory_error_exits_2_without_traceback(
    tmp_path, monkeypatch, capsys, exc, line
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(density, "build_separated_family", exhausted)
    argv = ["sepfamily", os.path.join(CONFIGS, "sepfamily.ini")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert lines == [line]
    assert not (tmp_path / "out" / "sepfamily").exists()


def test_main_refuses_pair_counts_past_the_enumeration_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = ["sepfamily", os.path.join(CONFIGS, "sepfamily.ini"),
            "--override", "family.pairs=60"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "family.pairs" in lines[0]
    assert not (tmp_path / "out" / "sepfamily").exists()


@pytest.mark.parametrize(
    "command, config, overrides",
    [
        ("example3", "example3.ini", ["maps.gamma=1000000"]),
        ("example2", "example2.ini", ["maps.beta=1000000"]),
        # only b_power is bounded, at the infima's largest base 201
        ("example4", "example4.ini", ["maps.b_power=150"]),
        ("example4", "example4.ini", ["maps.omega_power=1000000000000", "maps.b_power=1000000"]),
        ("runaway", "runaway_strong.ini",
         ["maps.family=half_plane_shift", "domain.kind=right_half_plane",
          "maps.gamma=1000000"]),
    ],
)
def test_main_overflow_exits_2_without_traceback(
    tmp_path, monkeypatch, capsys, command, config, overrides
):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = [command, os.path.join(CONFIGS, config)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    key = overrides[-1].partition("=")[0]
    assert f"{key}=" in lines[0] and "overflows at horizon" in lines[0]
    assert not (tmp_path / "out" / command).exists()


def test_main_example4_decides_huge_exponents_without_forming_their_powers(
    tmp_path, monkeypatch, capsys
):
    # omega_power is not bounded: gap 2 fails in logarithms, 2 * 2^q is never formed
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = ["example4", os.path.join(CONFIGS, "example4.ini"),
            "--override", "maps.omega_power=1000000000000"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert "NOTE: pairwise witness (3, 1)" in capsys.readouterr().out
    # b_power = 100 is below the bound at base 201 and runs
    argv[-1] = "maps.b_power=100"
    assert main(argv) == 0


@pytest.mark.parametrize("n_max", [0, 1])
def test_main_example4_refuses_a_horizon_below_two(tmp_path, monkeypatch, capsys, n_max):
    # the infima need a gap k_max = n_max // 2 of at least 1
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = ["example4", os.path.join(CONFIGS, "example4.ini"),
            "--override", f"horizons.n_max={n_max}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        f"error: horizons.n_max={n_max} is below 2, the least example4 takes"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ["existence.ini", "spaceable.ini"])
def test_main_negative_degree_cap_exits_2(tmp_path, monkeypatch, capsys, config):
    # both fit sites: the existence candidate and the member loop
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    argv = ["build_fhc", os.path.join(CONFIGS, config),
            "--override", "tolerances.max_degree=-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: max_degree must be nonnegative, got -1"]
    assert not (tmp_path / "out" / "build_fhc").exists()


def test_main_dense_build_refuses_too_few_levels_for_its_bases(
    tmp_path, monkeypatch, capsys
):
    # a dense build at mu_max = 2 takes base compacts K_1..K_3, beyond nu_max = 2
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    monkeypatch.setattr(cli, "_prepare_runaway", None)  # no work may start
    argv = ["build_fhc", os.path.join(CONFIGS, "spaceable.ini"),
            "--override", "build.kind=dense", "--override", "horizons.mu_max=2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: horizons.nu_max=2 ")
    assert "horizons.mu_max=2" in lines[0]
    assert not (tmp_path / "out").exists()


def test_main_build_refuses_an_empty_base_compact_before_any_work(
    tmp_path, monkeypatch, capsys
):
    # at maps.c = 0.25 the slit-plane sectors K_1..K_3 are empty
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    monkeypatch.setattr(cli, "_prepare_runaway", None)  # no work may start
    slit = ["--override", "domain.kind=slit_plane", "--override", "maps.family=root_shift"]
    for config, level, extra in (("spaceable.ini", 1, ["horizons.nu_max=2"]),
                                 ("dense.ini", 2, [])):
        argv = ["build_fhc", os.path.join(CONFIGS, config), *slit,
                "--override", "maps.c=0.25"]
        for item in extra:
            argv += ["--override", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "sampl" not in err
        kind = config.partition(".")[0]
        assert err.strip().splitlines() == [
            f"error: base compact K_{level} of a {kind} build is empty at maps.c=0.25"
            " on domain.kind=slit_plane"
        ]
        assert not (tmp_path / "out").exists()
    # a dense build never fits its K_1, so an empty one is no reason to refuse
    def started(cfg):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli, "_prepare_runaway", started)
    argv = ["build_fhc", os.path.join(CONFIGS, "dense.ini"), *slit, "--override", "maps.c=0.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == "error: work started"


def test_main_exit_2_removes_only_an_empty_output_dir(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_OUTPUT, str(root))
    argv = ["example3", os.path.join(CONFIGS, "example3.ini"),
            "--override", "maps.gamma=1000000"]
    assert main(argv) == 2
    assert not (root / "example3").exists()
    # scan makes its directory before it finds no candidate named
    scan = ["scan", os.path.join(CONFIGS, "scan.ini"),
            "--override", "scan.candidate="]
    assert main(scan) == 2
    assert root.is_dir() and not (root / "scan").exists()
    (root / "scan").mkdir()
    (root / "scan" / "summary.txt").write_text("earlier run\n")
    assert main(scan) == 2
    assert (root / "scan" / "summary.txt").read_text() == "earlier run\n"


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        artifacts._write_json(str(tmp_path / "r.json"), {"sigma": float("nan")})


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_main_sigma_wide_gap_writes_null_limit(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = tmp_path / "sigma.ini"
    path.write_text("[maps]\nalpha = 0\nbeta = 2\n")
    assert main(["sigma", str(path)]) == 0
    report = _strict_json(tmp_path / "out" / "sigma" / "report.json")
    assert report["limit_at_one"] is None
    assert report["limit_at_inf"] == 1.0


def test_cmd_example1_wide_gap_report_is_strict_json(outdir):
    cfg = _cfg(
        domain_kind="slit_plane",
        map_family="root_shift",
        beta=2.0,
        c_const=0.25,
        pairs=1,
        n_max=50,
        nu_max=1,
        # one island would carry only the zero target, whose fit fails
        max_islands=2,
    )
    assert not cmd_example1(cfg).failed
    report = _strict_json(outdir / "example1" / "report.json")
    assert report["sigma"]["limit_at_one"] is None


def test_unbounded_values_are_written_as_null(tmp_path):
    lone = runaway.RunawayConfig(
        domain=Domain.whole_plane(),
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=whole_plane_exhaustion(),
        family=lambda nu: IndexSet.from_elements([8], 100),
        n_max=100,
        nu_max=1,
    )
    rep = runaway.check_strong_runaway(lone)
    assert len(rep.islands) == 1
    assert rep.disc_gap == math.inf and rep.disc_pairs_checked == 0
    path = tmp_path / "r.json"
    artifacts._write_json(
        str(path),
        {
            "gap": artifacts._unbounded_as_null(math.inf),
            "low": artifacts._unbounded_as_null(-math.inf),
            "x": artifacts._unbounded_as_null(np.float64(0.5)),
        },
    )
    assert _strict_json(path) == {"gap": None, "low": None, "x": 0.5}
    with pytest.raises(ValueError):
        artifacts._write_json(str(path), {"x": artifacts._unbounded_as_null(math.nan)})


def test_main_override_changes_result(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "out"))
    path = tmp_path / "density.ini"
    path.write_text("[set]\nkind = progression\nfirst = 2\nstep = 5\n[horizons]\nn_max = 5000\n")
    assert main(["density", str(path)]) == 0
    text = (tmp_path / "out" / "density" / "summary.txt").read_text()
    assert "0.2" in text
    assert main(["density", str(path), "--override", "set.step=4"]) == 0
    text = (tmp_path / "out" / "density" / "summary.txt").read_text()
    assert "0.25" in text


def test_main_rejects_unknown_command(tmp_path):
    with pytest.raises(SystemExit):
        main(["warp", str(tmp_path / "x.ini")])


# ---------------------------------------------------------------------------
# benchmark spans


def test_benchmark_span_targets_resolve():
    # the traced benchmark wraps these names and looks each one up at
    # install time; a move or a deletion would make the traced run fail.
    # The file is loaded by path: it imports no freqdyn module itself.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "spans.py")
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    assert all(module.startswith("freqdyn.") for module, _ in spans.TARGETS)
    traced = {f"{module.rsplit('.', 1)[-1]}.{name}" for module, name in spans.TARGETS}
    assert set(spans.RESULT_HOOKS) <= traced
    # disjointness answers with a bool, so the UNKNOWN counter stays at 0
    rec = spans.Recorder()
    for verdict in (True, False):
        spans.RESULT_HOOKS["geometry.disjointness"](rec, verdict)
    assert rec.counts == {"geometry.disjointness.unknown": 0}
    # The traced child imports freqdyn.cli alone and then looks every
    # target up in sys.modules, so that import must load each target's
    # module and every target must resolve there to a callable.
    # Value classes are records, not dataclasses: dataclass compiles its
    # methods in every process that defines one.
    script = (
        "import dataclasses, inspect, sys\n"
        "import freqdyn.cli\n"
        f"print([t for t in {spans.TARGETS!r}\n"
        "       if not callable(getattr(sys.modules.get(t[0]), t[1], None))])\n"
        "print(sorted(n for m, mod in list(sys.modules.items())\n"
        "             if m.startswith('freqdyn')\n"
        "             for n, o in vars(mod).items()\n"
        "             if inspect.isclass(o) and o.__module__ == m\n"
        "             and dataclasses.is_dataclass(o)))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['ExperimentConfig']"]


# ---------------------------------------------------------------------------
# fuzzing the entry point

_COMMAND_CONFIGS = {
    "sigma": "sigma.ini",
    "example1": "example1.ini",
    "example2": "example2.ini",
    "example3": "example3.ini",
    "example4": "example4.ini",
    "example5": "example5.ini",
    "build_fhc": "existence.ini",
    "scan": "scan.ini",
    "density": "density.ini",
    "split": "split.ini",
    "sepfamily": "sepfamily.ini",
    "runaway": "runaway_strong.ini",
}

# valid choices of each string key; "bogus" is added as the invalid one
_STRING_CHOICES = {
    ("domain", "kind"): sorted(_DOMAIN_KINDS),
    ("maps", "family"): [
        "translation", "root_shift", "half_plane_shift", "parabolic_disc", "identity",
    ],
    ("maps", "schedule"): ["direct", "powers_of_two"],
    ("set", "kind"): ["naturals", "progression"],
    ("build", "kind"): sorted(cli._BUILD_KINDS),
    ("runaway", "mode"): ["strong", "weak"],
    ("scan", "candidate"): ["{candidate}", ""],
    ("output", "dir"): ["out"],
}

# (low, high) of each integer key; every run draws the first four, and
# family.pairs also takes two counts past density.MAX_PERIOD_POINTS
_INT_BOUNDS = {
    ("horizons", "n_max"): (-2, 2000),
    ("horizons", "iterates"): (-2, 500),
    ("tolerances", "max_degree"): (-2, 32),
    ("family", "pairs"): (-2, 12),
    ("family", "multiplier"): (-2, 30),
    ("set", "first"): (-3, 50),
    ("set", "step"): (-3, 50),
}
_ALWAYS = tuple(_INT_BOUNDS)[:4]


def _override_value(section, key, kind):
    if kind is str:
        return st.sampled_from(_STRING_CHOICES[(section, key)] + ["bogus"])
    if kind is int:
        low, high = _INT_BOUNDS.get((section, key), (-2, 6))
        values = st.integers(low, high)
        if (section, key) == ("family", "pairs"):
            values = st.one_of(values, st.sampled_from([27, 60]))
        return values.map(str)
    return st.one_of(
        st.sampled_from([0.0, -1.0, 0.25, 1.0, 2.0, 1e6]),
        st.floats(-10.0, 10.0, allow_nan=False),
    ).map(repr)


@st.composite
def _main_runs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_CONFIGS)))
    free = [(s, k, kind) for s, k, _, kind in _FIELDS if (s, k) not in _ALWAYS]
    picked = draw(st.lists(st.sampled_from(free), max_size=4, unique=True))
    overrides = [
        f"{s}.{k}={draw(_override_value(s, k, kind))}"
        for s, k, kind in [(s, k, _KEY_TABLE[s, k][1]) for s, k in _ALWAYS] + picked
    ]
    return command, overrides


@given(run=_main_runs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_main_fuzzed_overrides_exit_cleanly(run, existence_artifacts, tmp_path_factory):
    command, overrides = run
    _, _, candidate = existence_artifacts
    argv = [command, os.path.join(CONFIGS, _COMMAND_CONFIGS[command])]
    for item in overrides:
        argv += ["--override", item.format(candidate=candidate)]
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get(cli.ENV_OUTPUT)
    os.environ[cli.ENV_OUTPUT] = str(tmp_path_factory.mktemp("fuzz"))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if old is None:
            os.environ.pop(cli.ENV_OUTPUT)
        else:
            os.environ[cli.ENV_OUTPUT] = old
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in text, argv
    if code == 2:
        assert len([ln for ln in text.splitlines() if ln.startswith("error:")]) == 1, argv
