"""Config-driven experiment harness.

Every subcommand reads one INI file (`freqdyn.config`), optionally
patched by repeatable ``--override section.key=value`` flags, runs a
fixed pipeline, and writes its artifacts under
``<output root>/<command>/``.  The output root is the ``dir`` entry of
the ``[output]`` section unless the ``FREQDYN_OUT`` environment variable
is set.  Artifacts are written to a temporary file and renamed into
place (`freqdyn.artifacts`), so a crashed run never leaves a
half-written report.  Summaries contain one ``PASS:`` or ``FAIL:`` line
per checked property and the process exits nonzero exactly when some
line failed.

Reports embed a short hash of the effective configuration so that any
artifact can be traced back to the exact parameter set that produced
it.  Identical configurations produce byte-identical artifacts (for
one zlib build, whose output enters ``example5``'s errors file); wall
clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import approx, artifacts, config, density, orbit, runaway
from ._record import record
from .approx import enumerate_dense_polynomial
from .artifacts import _write_csv, _write_json, load_candidate
from .config import ExperimentConfig, apply_overrides, config_hash, load_config
from .density import IndexSet
from .geometry import ClosedDisc, Domain, DomainKind
from .maps import (
    HalfPlaneShift,
    Identity,
    ParabolicDisc,
    RootShift,
    apply,
    cayley_conjugate,
    disc_to_slit,
    exact_entries,
    maps_into,
    projectively_equal,
    slit_to_disc,
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

# A weak runaway verdict needs the escape times to keep at least this
# much lower density; zero-density escapes are the classical failure.
WEAK_DENSITY_FLOOR = 0.01

# Points and outer radius of the disc mesh that example2 checks its
# conjugation formula on, at the indices config.PROBE_STEPS.
MESH_POINTS = 1000
MESH_RADIUS = 0.95

# example5, density, split and sepfamily refuse, before any work, a
# horizon whose arrays would exceed this many bytes (_within_budget), and
# build_fhc and example1 a degree cap whose fit would (_fit_all).
MEMORY_BUDGET = 2 * 1024**3
# lower_density_estimate's temporaries for one block of elements, which
# density, split and sepfamily add to their estimates (48 bytes per
# element of the block measured)
DENSITY_BLOCK_BYTES = 64 * density.DENSITY_BLOCK
# example5's memory beside its 8 bytes per iterate: one block of powers
# in iterate_convergence, and the errors writer's blocks and zlib state
# (0.41 MB measured)
ITERATE_BLOCK_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# results


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


def _sigma_payload(rep: SigmaReport) -> dict:
    payload = {name: getattr(rep, name) for name in rep._fields}
    payload["limit_at_one"] = artifacts._unbounded_as_null(rep.limit_at_one)
    return payload


def _finish(
    cfg: ExperimentConfig, name: str, out: str, lines, paths
) -> CommandResult:
    head = [f"# freqdyn {name}", f"# config {config_hash(cfg)}"]
    summary = os.path.join(out, "summary.txt")
    artifacts._atomic_write(summary, "\n".join(head + list(lines)) + "\n")
    return CommandResult(
        name=name, lines=tuple(lines), artifacts=tuple([summary] + list(paths))
    )


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _prepare_runaway(cfg: ExperimentConfig, pairs: Optional[int] = None):
    fam = density.build_separated_family(
        pairs if pairs else cfg.pairs, cfg.n_max, cfg.multiplier
    )
    exh = config.build_exhaustion(cfg)
    schedule = config.build_schedule(cfg)
    rcfg = runaway.RunawayConfig(
        domain=exh.domain,
        maps=schedule,
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=cfg.n_max,
        nu_max=cfg.nu_max,
    )
    return fam, exh, schedule, rcfg


# Build kinds: (base compacts and p-blocks of the splits for mu_max,
# target assembler).  An existence build fits one candidate, the others
# members mu = 1..mu_max; dense member mu takes base K_{mu+1} and block
# mu + 1.  Assemblers are named, not bound, so each call resolves them
# on approx and passes through any wrapper installed there.
_BUILD_KINDS = {
    "existence": (lambda mu_max: (0, 1), "assemble_existence_target"),
    "dense": (lambda mu_max: (mu_max + 1, mu_max + 1), "assemble_dense_target"),
    "spaceable": (lambda mu_max: (1, mu_max), "assemble_spaceable_target"),
    "mixed": (lambda mu_max: (1, mu_max), "assemble_mixed_target"),
}


def _splits(kind: str, fam, cfg: ExperimentConfig) -> dict:
    """Per-level index splits that label the island targets of a build.

    Each family set splits into the p-blocks _BUILD_KINDS gives and each
    block into l_max labels, keyed (l, p); mixed members subdivide the
    first part of a split in two.
    """
    blocks = _BUILD_KINDS[kind][0](cfg.mu_max)[1]
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


def _fit_all(cfg: ExperimentConfig, kind: str, tr, entries, out: str):
    """Fit the (file stem, label, target, extra) entries of a build of
    kind on truncation tr; returns (candidates, summary lines, paths).

    A degree cap whose fit (approx.fit_bytes) on the largest target would
    pass MEMORY_BUDGET is refused before any fit runs.  Each fit gets a
    verdict line and <stem>.json, with the extra fields in its payload.
    A fit to the zero function fails: it is not frequently hypercyclic.
    """
    need = max(approx.fit_bytes(target, cfg.max_degree) for _, _, target, _ in entries)
    _within_budget("tolerances.max_degree", cfg.max_degree, need)
    built_under = config._candidate_hash(cfg)
    cands, lines, paths = [], [], []
    for stem, label, target, extra in entries:
        cand = approx.fit_on_compacts(target, cfg.max_degree)
        zero = not np.any(cand.fn.coefficients)
        text = f"{label} {cand.status} at degree {cand.degree}"
        if kind == "existence":
            text += f" (worst error ratio {cand.max_ratio:.3g})"
        elif kind == "dense":
            base_error = cand.certificates[0].achieved
            text += f" (base error {base_error:.3e} vs {1.0 / extra['mu']:.3e})"
        lines.append(_verdict(cand.status == "PASS" and not zero, text))
        if zero:
            lines.append(
                "NOTE: the candidate is the zero function, which is not frequently"
                " hypercyclic"
            )
        path = os.path.join(out, f"{stem}.json")
        _write_json(path, artifacts._encode_candidate(cand, built_under, kind, tr.islands, extra))
        cands.append(cand)
        paths.append(path)
    return cands, lines, paths


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


def _scan_candidate(fn, islands, envelopes, splits, exh, schedule, out: str):
    """Scan an existence candidate over the designed blocks of its (n, nu)
    islands, up to the largest island index, and write scan.csv.

    Blocks whose compact is empty are dropped; returns None when
    none is left, else (report, path).  The scan's delta is twice the
    largest certificate envelope.
    """
    horizon = max((int(n) for n, _ in islands), default=0)
    pairs = [
        (nu, l, d)
        for nu, l, d in _island_pairs(islands, splits, horizon)
        if not exh.member(nu).is_empty
    ]
    if not pairs:
        return None
    if not envelopes:
        raise ValueError("candidate carries no certificates to take a delta from")
    report = orbit.scan(
        fn, schedule, exh, enumerate_dense_polynomial, 2.0 * max(envelopes),
        horizon, pairs,
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
    fam, exh, schedule, rcfg = _prepare_runaway(
        cfg, pairs=max(cfg.pairs, auto_pairs)
    )
    lines.append(_verdict(fam.report.passed, "separated family verifies"))
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
        "disc_gap": artifacts._unbounded_as_null(gap),
        "disc_pairs_checked": rep.disc_pairs_checked,
    }
    paths = []
    if rep.p1_ok and rep.p2_ok and rep.p3_ok:
        tr = runaway.build_carleman_truncation(
            rcfg, bases=0, report=rep, max_islands=cfg.max_islands
        )
        splits = _splits("existence", fam, cfg)
        target = approx.assemble_existence_target(tr, splits)
        (cand,), fit_lines, paths = _fit_all(
            cfg, "existence", tr, [("candidate", "island fit", target, None)], out
        )
        lines.extend(fit_lines)
        payload["fit_status"] = cand.status
        payload["fit_degree"] = int(cand.degree)

        islands = [(isl.n, isl.nu) for isl in tr.islands]
        envelopes = [c.envelope for c in cand.certificates]
        scanned = _scan_candidate(cand.fn, islands, envelopes, splits, exh, schedule, out)
        if scanned is None:
            lines.append(
                "NOTE: orbit scan skipped, every truncation compact is empty at"
                " this radius constant"
            )
        else:
            scan_rep, spath = scanned
            lines.extend(_scan_lines(scan_rep))
            paths.append(spath)
    else:
        lines.append("NOTE: truncation and fit skipped, the runaway check failed")
    rpath = os.path.join(out, "report.json")
    _write_json(rpath, payload)
    paths.append(rpath)
    return _finish(cfg, "example1", out, lines, paths)


def cmd_example2(cfg: ExperimentConfig) -> CommandResult:
    """Conjugate the slit-plane shifts onto the disc and check the identity."""
    out = _artifact_dir(cfg, "example2")
    mesh = _disc_mesh()
    w = disc_to_slit(mesh)
    rows = []
    worst_resid = 0.0
    worst_mod = 0.0
    for n in config.PROBE_STEPS:
        inner = RootShift(cfg.alpha, cfg.beta, cfg.root_n, n)
        # rhs is the conjugate slit_to_disc o inner o disc_to_slit on the mesh
        lhs = slit_to_disc(apply(inner, disc_to_slit(slit_to_disc(w))))
        rhs = slit_to_disc(apply(inner, w))
        resid = float(np.max(np.abs(lhs - rhs)))
        mod = float(np.max(np.abs(rhs)))
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
    """Parabolic disc maps against their half-plane conjugation, decided
    in exact arithmetic on the records' entries."""
    out = _artifact_dir(cfg, "example3")
    rows = []
    for n in config.PROBE_STEPS:
        direct = ParabolicDisc(cfg.a_param, cfg.gamma, n)
        conj = cayley_conjugate(HalfPlaneShift(cfg.a_param, cfg.gamma, n))
        (ar, ai), (br, bi), (cr, ci), (dr, di) = exact_entries(direct)
        rows.append((
            n,
            projectively_equal(conj, direct),
            # Phi_n(1) = (a + b) / (c + d)
            (ar + br, ai + bi) == (cr + dr, ci + di),
            # (a z + b) / (conj(b) z + conj(a)) with |a| > |b| maps the
            # disc onto itself
            (ar, ai, cr, ci) == (dr, -di, br, -bi) and ar * ar + ai * ai > br * br + bi * bi,
        ))
    conjugate, fixed, automorphism = (all(col) for col in list(zip(*rows))[1:])
    lines = [
        _verdict(conjugate, "Cayley conjugate of the half-plane shift equals Phi_n exactly"),
        _verdict(fixed, "Phi_n fixes the boundary point 1 exactly"),
        _verdict(automorphism, "Phi_n is an automorphism of the disc exactly"),
    ]
    path = os.path.join(out, "residuals.csv")
    _write_csv(path, ("n", "conjugate", "fixed_point", "automorphism"), rows)
    return _finish(cfg, "example3", out, lines, [path])


def cmd_example4(cfg: ExperimentConfig) -> CommandResult:
    """Similarity coefficients of b_n = n^p, omega_k = k^q: growth and
    pairwise separation for every n, in closed form."""
    sep = density.check_translation_separation(cfg.b_power, cfg.n_max)
    sim = density.check_similarity_criterion(cfg.b_power, cfg.omega_power)
    out = _artifact_dir(cfg, "example4")
    lines = [
        _verdict(sim.passed, "similarity coefficients satisfy the criterion"),
        f"NOTE: growth check {'ok' if sim.growth_ok else 'violated'},"
        f" pairwise check {'ok' if sim.pairwise_ok else 'violated'};"
        f" the gaps k <= {sim.gaps} decide it for all m > n",
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
    # the errors and ITERATE_BLOCK_BYTES; errors.f8z is written one block
    # of errors at a time
    _within_budget("horizons.iterates", cfg.iterates, 8 * cfg.iterates + ITERATE_BLOCK_BYTES)
    out = _artifact_dir(cfg, "example5")
    region = ClosedDisc(0.0, 0.5)
    phi = ParabolicDisc(cfg.a_param, cfg.gamma, 1)
    # upper bounds on sup |Phi_1^n(z) - 1| over the region, n = 1..N
    rep = orbit.iterate_convergence(phi, region, 1.0 + 0.0j, cfg.iterates)
    final = float(rep.errors[-1])
    # the exact sups strictly decrease from step t on; the identity's never do
    t = orbit.decreasing_from(phi, region, 1.0 + 0.0j)
    ident = Identity(Domain(DomainKind.UNIT_DISC))
    lines = [
        _verdict(final < 0.1, f"error after {cfg.iterates} steps is {final:.6f}"),
        _verdict(t is not None, f"errors decrease monotonically from step {t}"),
        _verdict(
            orbit.decreasing_from(ident, region, 1.0 + 0.0j) is None,
            "identity control shows no decrease",
        ),
    ]
    path = os.path.join(out, "errors.f8z")
    # entry i bounds e_{i+1}; its decoded bits are identical on every
    # host, the file's bytes for one zlib build
    artifacts._write_errors(path, rep.errors)
    return _finish(cfg, "example5", out, lines, [path])


def cmd_build_fhc(cfg: ExperimentConfig) -> CommandResult:
    """Certify a runaway family and fit candidates on its truncation."""
    kind = cfg.build_kind
    if kind not in _BUILD_KINDS:
        raise ValueError(f"unknown build kind {kind!r}")
    counts, assembler = _BUILD_KINDS[kind]
    if kind != "existence" and cfg.mu_max < 1:
        raise ValueError(
            f"horizons.mu_max must be at least 1 for a {kind} build, got {cfg.mu_max}"
        )
    bases = counts(cfg.mu_max)[0]
    if cfg.nu_max < bases:
        raise ValueError(
            f"horizons.nu_max={cfg.nu_max} must be at least {bases}, the base"
            f" compacts of a {kind} build at horizons.mu_max={cfg.mu_max}"
        )
    # dense member mu fits K_{mu+1}; its K_1 only bounds k_base
    for nu in range(1 + (kind == "dense"), bases + 1):
        if config.build_exhaustion(cfg).member(nu).is_empty:
            raise ValueError(f"base compact K_{nu} of a {kind} build is empty at"
                             f" maps.c={cfg.c_const:g} on domain.kind={cfg.domain_kind}")
    out = _artifact_dir(cfg, "build_fhc")
    fam, exh, schedule, rcfg = _prepare_runaway(cfg)
    lines = [_verdict(fam.report.passed, "separated family verifies")]
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
        rcfg, bases=bases, report=rep, max_islands=cfg.max_islands
    )
    lines.append(
        f"NOTE: truncation keeps {len(tr.islands)} islands and"
        f" {len(tr.bases)} base compacts (k_base {tr.k_base})"
    )
    splits = _splits(kind, fam, cfg)
    assemble = getattr(approx, assembler)
    if kind == "existence":
        entries = [("candidate", "candidate fit", assemble(tr, splits), None)]
    else:
        entries = [
            (f"member{mu}", f"member {mu} fit", assemble(mu, tr, splits), {"mu": mu})
            for mu in range(1, cfg.mu_max + 1)
        ]
    members, fit_lines, paths = _fit_all(cfg, kind, tr, entries, out)
    lines.extend(fit_lines)
    ok = not any(line.startswith("FAIL:") for line in fit_lines)
    if kind == "dense" and not ok:
        lines.append("NOTE: some member failed, no collection written")
    elif kind in ("spaceable", "mixed") and not ok:
        lines.append(_verdict(False, "span basis skipped, a member fit failed"))
    elif kind in ("spaceable", "mixed"):
        try:
            basis = approx.build_span_basis(members, range(1, cfg.mu_max + 1), kind)
        except ValueError as exc:
            lines.append(_verdict(False, f"span basis rejected: {exc}"))
        else:
            lines += [
                _verdict(True, f"circle perturbation sum {basis.perturbation_sum:.6f}"),
                f"NOTE: Gram lower bound {basis.gram_lambda_min:.6f},"
                f" coefficient bound {basis.coeff_bound:.6f}",
            ]
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
            paths.append(path)
    return _finish(cfg, "build_fhc", out, lines, paths)


def cmd_scan(cfg: ExperimentConfig) -> CommandResult:
    """Scan a stored candidate along its map schedule."""
    out = _artifact_dir(cfg, "scan")
    if not cfg.candidate_path:
        raise ValueError("the [scan] section must name a candidate file")
    fn, meta = load_candidate(cfg.candidate_path)
    if meta.get("kind") != "existence":
        raise ValueError("orbit scans expect an existence candidate")
    lines = []
    if meta.get("config") != config._candidate_hash(cfg):
        lines.append(
            "NOTE: candidate was built under a different configuration,"
            f" hash {meta.get('config')}"
        )
    islands = meta.get("islands", [])
    if not islands:
        raise ValueError("candidate file lists no islands to scan")
    fam = density.build_separated_family(cfg.pairs, cfg.n_max, cfg.multiplier)
    exh = config.build_exhaustion(cfg)
    schedule = config.build_schedule(cfg)
    envelopes = [c["envelope"] for c in meta.get("certificates", [])]
    splits = _splits("existence", fam, cfg)
    scanned = _scan_candidate(fn, islands, envelopes, splits, exh, schedule, out)
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
        fam, exh, schedule, rcfg = _prepare_runaway(cfg)
        rep = runaway.check_strong_runaway(rcfg)
        verdicts, notes = _runaway_lines(rep)
        lines = (
            [_verdict(fam.report.passed, "separated family verifies")]
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
    schedule = config.build_schedule(cfg)
    exh = config.build_exhaustion(cfg)
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
        config._check_exponents(args.command, cfg)
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
